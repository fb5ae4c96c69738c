"""Deterministic pseudo-spectral Euler / Euler-Voigt solver on the 2D
torus, with a convergence-experiment harness for the alpha -> 0 limit.

The public names resolve lazily (PEP 562): ``import voigt2d`` loads no
module of the package, and the first use of a name imports its home
module, so each command of the CLI pays only for the modules it runs."""

from importlib import import_module

__version__ = "0.1.0"

#: home module -> the public names it exports, in ``__all__`` order
_EXPORTS = {
    "grid": ("TWO_PI", "GridSpec"),
    "spectral": (
        "SYMMETRY_TOL", "SpectralField", "SymmetryError", "biot_savart", "dealias",
        "forward_transform", "helmholtz_filter", "inverse_transform",
        "values_oversampled", "zero_mean",
    ),
    "dynamics": (
        "BlowUpError", "SolverConfig", "TrajectoryRecord", "cfl_dt", "integrate",
        "rhs", "step_rk4",
    ),
    "diagnostics": (
        "ERROR_METRICS", "cz_ratio", "error_norms", "gagliardo_ratio", "gradient_l2",
        "l2_norm", "lp_norm", "sample_state", "sobolev_norm",
    ),
    "initial_data": (
        "KINDS", "DataRecipe", "galerkin_truncate", "make_eigenfunction",
        "make_random_sobolev", "make_taylor_family", "make_yudovich_patch", "realize",
    ),
    "harness": (
        "REGIMES", "ConvergenceReport", "FitResult", "SweepPlan", "TheoreticalRate",
        "choose_cutoff", "fit_rate", "galerkin_reference_sweep", "run_sweep",
        "theoretical_slope",
    ),
    "config": ("ConfigError", "RunConfig", "load_config", "parse_config"),
    "snapshots": (
        "FORMAT_VERSION", "Snapshot", "SnapshotError", "read_snapshot", "snapshot_of",
        "write_snapshot",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """The public name ``name``, read from its home module, which is
    imported on first use; the value is not cached here, so it is always
    the home module's own."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
