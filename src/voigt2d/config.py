"""Run configuration files.

INI-style text with sections [grid], [time], [model], [init], [sweep],
[output], where a config has [model] (for simulate) or [sweep] (for sweep),
not both.  One table, ``_KEYS``, lists every section and its keys with
their types and defaults ([init] adds the per-kind rows of
initial_data.INIT_PARAMS); the parser, its unknown-key checks and the
effective echo all read it.  Parsing is strict: unknown sections or keys
fail fast naming the offender.  The parsed values are handed to the
objects that own their rules (GridSpec, DataRecipe and the generator check
of initial_data, then SolverConfig or SweepPlan), and every ValueError
those raise becomes a ConfigError, so a bad value fails before anything is
run or written.  The effective configuration (defaults applied) is read
back from the built objects and echoed into every output file alongside a
hash of the source text.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .grid import GridSpec
from .initial_data import INIT_PARAMS, REQUIRED, DataRecipe, check_params, recipe_params

if TYPE_CHECKING:
    from .dynamics import SolverConfig
    from .harness import SweepPlan


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending item."""


def _float_list(text: str) -> tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(float(t) for t in items)


#: section -> {key: (type, default)}, in echo order, where default is REQUIRED
#: or what the built object takes when the key is absent; [init] also admits
#: the INIT_PARAMS rows of its kind
_KEYS = {
    "grid": {"size": (int, REQUIRED)},
    "time": {
        "t_end": (float, REQUIRED),
        "record_every": (float, REQUIRED),
        "dt": (float, None),
        "cfl": (float, None),
        "snapshot_every": (float, None),
    },
    "model": {"alpha": (float, REQUIRED)},
    "init": {"kind": (str, REQUIRED), "seed": (int, 0)},
    "sweep": {
        "alphas": (_float_list, REQUIRED),
        "regime": (str, REQUIRED),
        "s": (float, None),
    },
    "output": {"directory": (str, ".")},
}
#: key -> the field that holds it, where the two names differ
_FIELDS = {"cfl": "c_cfl", "directory": "out_dir"}


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration of one run or sweep.

    ``run`` is the SolverConfig of a [model] config or the SweepPlan
    (jobs = 1) of a [sweep] config; it owns the grid.
    """

    source_text: str
    recipe: DataRecipe
    run: SolverConfig | SweepPlan
    out_dir: str = "."

    @property
    def grid(self) -> GridSpec:
        return self.run.grid

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()

    def solver_config(self) -> SolverConfig:
        from .dynamics import SolverConfig

        if not isinstance(self.run, SolverConfig):
            raise ConfigError("missing [model] section (key alpha) for simulate")
        return self.run

    def sweep_plan(self, jobs: int = 1) -> SweepPlan:
        from .harness import SweepPlan

        if not isinstance(self.run, SweepPlan):
            raise ConfigError("missing [sweep] section (keys alphas, regime)")
        return _checked(replace, self.run, jobs=jobs)

    def effective_lines(self) -> list[str]:
        """The effective configuration as '[section] key = value' lines: each
        _KEYS field read back from the object that holds it, fields the run
        lacks or leaves None skipped, [init] followed by the recipe's
        parameters."""
        run = self.run
        owners = {"grid": run.grid, "init": self.recipe, "output": self}
        lines = []
        for section, rows in _KEYS.items():
            owner = owners.get(section, run)
            values = {key: getattr(owner, _FIELDS.get(key, key), None) for key in rows}
            if section == "init":
                values.update(self.recipe.params)
            lines += [
                f"[{section}] {key} = {_text(value)}"
                for key, value in values.items()
                if value is not None
            ]
        return lines


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def _checked(build, *args, **kwargs):
    """build(*args, **kwargs), raising the ValueError of any rule the built
    object enforces as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _typed(given: dict[str, str], section: str, rows: dict) -> dict:
    """Pop the keys of ``rows`` from ``given`` as field -> typed value, in row
    order; a missing REQUIRED key or an untypeable value is a ConfigError,
    and an absent optional key is left to its owner's default."""
    values = {}
    for key, (cast, default) in rows.items():
        if key not in given:
            if default is REQUIRED:
                raise ConfigError(f"missing key '{key}' in [{section}]")
            continue
        text = given.pop(key)
        try:
            values[_FIELDS.get(key, key)] = cast(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}' in [{section}]: {text!r}") from exc
    return values


def _section(raw: dict[str, dict[str, str]], section: str) -> dict:
    """Section ``section`` of ``raw`` read through its _KEYS rows; a key
    left over is a ConfigError."""
    given = raw.get(section, {})
    values = _typed(given, section, _KEYS[section])
    _reject_unknown(section, given, _KEYS[section])
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; raise ConfigError on any flaw."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), strict=True
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    # configparser copies [DEFAULT] keys into every section, where they
    # would be called unknown keys of a section they are not in
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
    for section in ("grid", "time", "init"):
        if not parser.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    if parser.has_section("model") == parser.has_section("sweep"):
        raise ConfigError(
            "a config has either [model] (simulate) or [sweep] (sweep): "
            + ("not both" if parser.has_section("model") else "neither found")
        )

    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    grid = _checked(GridSpec, **_section(raw, "grid"))
    time = _section(raw, "time")

    # [init] reads its kind first: an unknown kind is named before its
    # parameters are called unknown keys
    i = raw["init"]
    head = _typed(i, "init", _KEYS["init"])
    spec = INIT_PARAMS.get(head["kind"], {})
    recipe = _checked(DataRecipe, params=_typed(i, "init", spec), **head)
    _reject_unknown("init", i, {**_KEYS["init"], **spec})
    _checked(check_params, recipe.kind, grid, recipe_params(recipe))

    # the run object's module is imported only for the command that needs it
    if "model" in raw:
        from .dynamics import SolverConfig

        run = _checked(SolverConfig, grid=grid, **time, **_section(raw, "model"))
    else:
        from .harness import SweepPlan

        sweep = _section(raw, "sweep")
        if "snapshot_every" in time:
            raise ConfigError(
                "key 'snapshot_every' in [time] is not used by sweep "
                "(sweeps compare a snapshot at every record time)"
            )
        run = _checked(SweepPlan, recipe=recipe, grid=grid, **time, **sweep)

    output = _section(raw, "output")
    if output.get("out_dir") == "":
        raise ConfigError("empty value for 'directory' in [output]")
    return RunConfig(source_text=text, recipe=recipe, run=run, **output)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _reject_unknown(section: str, leftovers: dict, known: dict) -> None:
    if leftovers:
        name = sorted(leftovers)[0]
        raise ConfigError(
            f"unknown key '{name}' in [{section}] (known: {', '.join(known)})"
        )
