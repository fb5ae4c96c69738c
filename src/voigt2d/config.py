"""Run configuration files.

INI-style text with sections [grid], [time], [model], [init], [sweep],
[output].  Parsing is strict: unknown sections or keys fail fast naming
the offender, and the effective configuration (defaults applied) is
echoed into every output file alongside a hash of the source text.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .dynamics import SolverConfig
from .grid import GridSpec
from .harness import REGIMES, SweepPlan
from .initial_data import KINDS, DataRecipe


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending item."""


#: section -> {key: parser}; [init] additionally admits per-kind params
_GRID_KEYS = ("size", "dealias_cutoff")
_TIME_KEYS = ("t_end", "record_every", "dt", "cfl", "snapshot_every")
_MODEL_KEYS = ("alpha",)
_SWEEP_KEYS = ("alphas", "regime", "s")
_OUTPUT_KEYS = ("directory",)

#: per-kind [init] parameters beyond kind/seed: (required, optional)
_INIT_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "eigenfunction": ((), ("k1", "k2", "amplitude")),
    "random_sobolev": (("sigma", "band"), ("amplitude",)),
    "yudovich_patch": (("radius",), ("smoothing", "amplitude")),
    "taylor_family": ((), ("mode", "amplitude", "perturbation")),
}
_INT_PARAMS = frozenset({"band", "mode", "k1", "k2"})


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration of one run or sweep."""

    source_text: str
    grid: GridSpec
    t_end: float
    record_every: float
    dt: float | None
    c_cfl: float | None
    snapshot_every: float | None
    recipe: DataRecipe
    alpha: float | None = None
    sweep_alphas: tuple[float, ...] | None = None
    regime: str | None = None
    s: float | None = None
    out_dir: str = "."
    effective: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()

    def solver_config(self) -> SolverConfig:
        if self.alpha is None:
            raise ConfigError("missing [model] section (key alpha) for simulate")
        return SolverConfig(
            grid=self.grid,
            alpha=self.alpha,
            t_end=self.t_end,
            record_every=self.record_every,
            dt=self.dt,
            c_cfl=self.c_cfl,
            snapshot_every=self.snapshot_every,
        )

    def sweep_plan(self, jobs: int = 1) -> SweepPlan:
        if self.sweep_alphas is None or self.regime is None:
            raise ConfigError("missing [sweep] section (keys alphas, regime)")
        if self.snapshot_every is not None:
            raise ConfigError(
                "key 'snapshot_every' in [time] is not used by sweep "
                "(sweeps compare a snapshot at every record time)"
            )
        try:
            return SweepPlan(
                recipe=self.recipe,
                alphas=self.sweep_alphas,
                grid=self.grid,
                t_end=self.t_end,
                regime=self.regime,
                record_every=self.record_every,
                dt=self.dt,
                c_cfl=0.5 if self.c_cfl is None and self.dt is None else self.c_cfl,
                s=self.s,
                jobs=jobs,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_lines(self) -> list[str]:
        """The effective configuration as '[section] key = value' lines."""
        out = []
        for section, keys in self.effective.items():
            for key, value in keys.items():
                out.append(f"[{section}] {key} = {value}")
        return out


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

    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    effective: dict[str, dict[str, str]] = {}

    # [grid]
    g = raw["grid"]
    size = _get(g, "grid", "size", int, required=True)
    cutoff = _get(g, "grid", "dealias_cutoff", int)
    _reject_unknown("grid", g, _GRID_KEYS)
    try:
        grid = GridSpec(size) if cutoff is None else GridSpec(size, cutoff)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    effective["grid"] = {
        "size": str(grid.size),
        "dealias_cutoff": str(grid.dealias_cutoff),
    }

    # [time]
    t = raw["time"]
    t_end = _get(t, "time", "t_end", float, required=True)
    record_every = _get(t, "time", "record_every", float, required=True)
    dt = _get(t, "time", "dt", float)
    cfl = _get(t, "time", "cfl", float)
    snapshot_every = _get(t, "time", "snapshot_every", float)
    _reject_unknown("time", t, _TIME_KEYS)
    if dt is not None and cfl is not None:
        raise ConfigError("give either 'dt' or 'cfl' in [time], not both")
    effective["time"] = {"t_end": repr(t_end), "record_every": repr(record_every)}
    if dt is not None:
        effective["time"]["dt"] = repr(dt)
    else:
        effective["time"]["cfl"] = repr(0.5 if cfl is None else cfl)
    if snapshot_every is not None:
        effective["time"]["snapshot_every"] = repr(snapshot_every)

    # [model]
    alpha = None
    if "model" in raw:
        m = raw["model"]
        alpha = _get(m, "model", "alpha", float, required=True)
        _reject_unknown("model", m, _MODEL_KEYS)
        if alpha < 0:
            raise ConfigError("bad value for 'alpha' in [model]: must be >= 0")
        effective["model"] = {"alpha": repr(alpha)}

    # [init]
    i = raw["init"]
    kind = _get(i, "init", "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError(
            f"bad value for 'kind' in [init]: {kind!r} (known: {', '.join(KINDS)})"
        )
    seed = _get(i, "init", "seed", int)
    required_params, optional_params = _INIT_PARAMS[kind]
    params: dict = {}
    for name in required_params + optional_params:
        caster = int if name in _INT_PARAMS else float
        value = _get(i, "init", name, caster, required=name in required_params)
        if value is not None:
            params[name] = value
    _reject_unknown("init", i, ("kind", "seed") + required_params + optional_params)
    recipe = DataRecipe(kind, params, seed=0 if seed is None else seed)
    effective["init"] = {"kind": kind, "seed": str(recipe.seed)}
    for name, value in params.items():
        effective["init"][name] = repr(value) if isinstance(value, float) else str(value)

    # [sweep]
    sweep_alphas = regime = s = None
    if "sweep" in raw:
        w = raw["sweep"]
        sweep_alphas = _get(w, "sweep", "alphas", _float_list, required=True)
        regime = _get(w, "sweep", "regime", str, required=True)
        s = _get(w, "sweep", "s", float)
        _reject_unknown("sweep", w, _SWEEP_KEYS)
        if not sweep_alphas:
            raise ConfigError("bad value for 'alphas' in [sweep]: empty list")
        if regime not in REGIMES:
            raise ConfigError(
                f"bad value for 'regime' in [sweep]: {regime!r} "
                f"(known: {', '.join(REGIMES)})"
            )
        effective["sweep"] = {
            "alphas": ", ".join(repr(a) for a in sweep_alphas),
            "regime": regime,
        }
        if s is not None:
            effective["sweep"]["s"] = repr(s)

    # [output]
    out_dir = "."
    if "output" in raw:
        o = raw["output"]
        directory = _get(o, "output", "directory", str)
        _reject_unknown("output", o, _OUTPUT_KEYS)
        if directory is not None:
            out_dir = directory
    effective["output"] = {"directory": out_dir}

    return RunConfig(
        source_text=text,
        grid=grid,
        t_end=t_end,
        record_every=record_every,
        dt=dt,
        c_cfl=cfl,
        snapshot_every=snapshot_every,
        recipe=recipe,
        alpha=alpha,
        sweep_alphas=sweep_alphas,
        regime=regime,
        s=s,
        out_dir=out_dir,
        effective=effective,
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
