"""Run configuration files.

INI-style text with sections [grid], [time], [model], [init], [sweep],
[output], where a config has [model] (for simulate) or [sweep] (for sweep),
not both.  Parsing is strict: unknown sections or keys fail fast naming
the offender.  The parsed values are handed to the objects that own their
rules (GridSpec, DataRecipe and the generator check of initial_data, then
SolverConfig or SweepPlan), and every ValueError those raise becomes a
ConfigError, so a bad value fails before anything is run or written.  The
effective configuration (defaults applied) is read back from the built
objects and echoed into every output file alongside a hash of the source
text.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace

from .dynamics import SolverConfig
from .grid import GridSpec
from .harness import SweepPlan
from .initial_data import INIT_PARAMS, REQUIRED, DataRecipe, check_params, recipe_params


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending item."""


#: section -> keys; [init] admits kind, seed and the per-kind INIT_PARAMS
_GRID_KEYS = ("size",)
_TIME_KEYS = ("t_end", "record_every", "dt", "cfl", "snapshot_every")
_MODEL_KEYS = ("alpha",)
_SWEEP_KEYS = ("alphas", "regime", "s")
_OUTPUT_KEYS = ("directory",)


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
        if not isinstance(self.run, SolverConfig):
            raise ConfigError("missing [model] section (key alpha) for simulate")
        return self.run

    def sweep_plan(self, jobs: int = 1) -> SweepPlan:
        if not isinstance(self.run, SweepPlan):
            raise ConfigError("missing [sweep] section (keys alphas, regime)")
        return _checked(replace, self.run, jobs=jobs)

    def effective_lines(self) -> list[str]:
        """The effective configuration as '[section] key = value' lines."""
        run, recipe = self.run, self.recipe
        sections = {
            "grid": {"size": run.grid.size},
            "time": {"t_end": run.t_end, "record_every": run.record_every},
        }
        time = sections["time"]
        if run.dt is not None:
            time["dt"] = run.dt
        else:
            time["cfl"] = run.c_cfl
        if isinstance(run, SolverConfig):
            if run.snapshot_every is not None:
                time["snapshot_every"] = run.snapshot_every
            sections["model"] = {"alpha": run.alpha}
        sections["init"] = {"kind": recipe.kind, "seed": recipe.seed, **recipe.params}
        if isinstance(run, SweepPlan):
            sweep = sections["sweep"] = {
                "alphas": ", ".join(repr(a) for a in run.alphas),
                "regime": run.regime,
            }
            if run.s is not None:
                sweep["s"] = run.s
        sections["output"] = {"directory": self.out_dir}
        return [
            f"[{section}] {key} = {value if isinstance(value, str) else repr(value)}"
            for section, keys in sections.items()
            for key, value in keys.items()
        ]


def _checked(build, *args, **kwargs):
    """build(*args, **kwargs), raising the ValueError of any rule the built
    object enforces as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _get(raw: dict[str, str], section: str, key: str, kind, required: bool = False):
    if key not in raw:
        if required:
            raise ConfigError(f"missing key '{key}' in [{section}]")
        return None
    text = raw.pop(key)
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}' in [{section}]: {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(float(t) for t in items)


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; raise ConfigError on any flaw."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), strict=True
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    known = {"grid", "time", "model", "init", "sweep", "output"}
    for section in parser.sections():
        if section not in known:
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

    g = raw["grid"]
    size = _get(g, "grid", "size", int, required=True)
    _reject_unknown("grid", g, _GRID_KEYS)
    grid = _checked(GridSpec, size)

    t = raw["time"]
    t_end = _get(t, "time", "t_end", float, required=True)
    record_every = _get(t, "time", "record_every", float, required=True)
    dt = _get(t, "time", "dt", float)
    cfl = _get(t, "time", "cfl", float)
    snapshot_every = _get(t, "time", "snapshot_every", float)
    _reject_unknown("time", t, _TIME_KEYS)

    i = raw["init"]
    kind = _get(i, "init", "kind", str, required=True)
    seed = _get(i, "init", "seed", int)
    spec = INIT_PARAMS.get(kind, {})
    params = {}
    for name, (cast, default) in spec.items():
        value = _get(i, "init", name, cast, required=default is REQUIRED)
        if value is not None:
            params[name] = value
    recipe = _checked(DataRecipe, kind, params, seed=0 if seed is None else seed)
    _reject_unknown("init", i, ("kind", "seed", *spec))
    _checked(check_params, kind, grid, recipe_params(recipe))

    if "model" in raw:
        m = raw["model"]
        alpha = _get(m, "model", "alpha", float, required=True)
        _reject_unknown("model", m, _MODEL_KEYS)
        run = _checked(
            SolverConfig, grid, alpha, t_end, record_every, dt, cfl, snapshot_every
        )
    else:
        w = raw["sweep"]
        alphas = _get(w, "sweep", "alphas", _float_list, required=True)
        regime = _get(w, "sweep", "regime", str, required=True)
        s = _get(w, "sweep", "s", float)
        _reject_unknown("sweep", w, _SWEEP_KEYS)
        if snapshot_every is not None:
            raise ConfigError(
                "key 'snapshot_every' in [time] is not used by sweep "
                "(sweeps compare a snapshot at every record time)"
            )
        run = _checked(
            SweepPlan, recipe=recipe, alphas=alphas, grid=grid, t_end=t_end,
            regime=regime, record_every=record_every, dt=dt, c_cfl=cfl, s=s,
        )

    o = raw.get("output", {})
    directory = _get(o, "output", "directory", str)
    _reject_unknown("output", o, _OUTPUT_KEYS)
    if directory == "":
        raise ConfigError("empty value for 'directory' in [output]")

    return RunConfig(
        source_text=text,
        recipe=recipe,
        run=run,
        out_dir="." if directory is None else directory,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _reject_unknown(section: str, leftovers: dict, known: tuple[str, ...]) -> None:
    if leftovers:
        name = sorted(leftovers)[0]
        raise ConfigError(
            f"unknown key '{name}' in [{section}] (known: {', '.join(known)})"
        )
