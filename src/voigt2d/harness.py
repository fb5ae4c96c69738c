"""Convergence experiments: Voigt runs against Euler references over an
alpha sweep, log-log rate fits, and comparison with the proven rates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .grid import GridSpec
from .spectral import SpectralField
from .dynamics import SolverConfig, TrajectoryRecord, _live_block, cfl_dt, integrate
from .diagnostics import ERROR_METRICS, _velocity_sobolev, error_norms, l2_norm
from .initial_data import DataRecipe, _cast, galerkin_truncate, realize

REGIMES = ("smooth_s_ge_3", "smooth_2_lt_s_lt_3", "yudovich", "enstrophy_class")

#: how far a fitted slope may fall below a proven exponent in the
#: fixed-rate regimes; the proven rates are upper bounds on the error, so
#: a slope above the exponent (faster decay) is never held against a sweep
SLOPE_TOL = 0.15
#: all-errors-below means the sweep is degenerate (steady data): no fit
DEGENERATE_FLOOR = 1e-10


@dataclass(frozen=True)
class SweepPlan:
    """One convergence experiment.

    Every Voigt run starts from the recipe's data realized on ``grid`` and
    is compared with one Euler run from the same data on the same grid.
    All runs share the diagnostic time grid and one fixed time step; the
    step defaults to the CFL value of the initial data at t = 0 so the
    Euler reference and every Voigt run see the same schedule and
    time-discretization error cancels to leading order in comparisons.
    The time settings obey SolverConfig's rules, c_cfl = 0.5 when neither
    dt nor c_cfl is given.  ``s`` is the Sobolev order of the data, given
    exactly when the regime is smooth_2_lt_s_lt_3, which also needs
    random_sobolev data (its band clamps the Galerkin cutoff); the regime
    name and the range of s are theoretical_slope's to check.  ``jobs`` is
    the number of processes for the alpha runs.
    """

    recipe: DataRecipe
    alphas: tuple[float, ...]
    grid: GridSpec
    t_end: float
    regime: str
    record_every: float = 0.1
    dt: float | None = None
    c_cfl: float | None = None
    s: float | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 4:
            raise ValueError(f"need at least 4 alphas, got {len(alphas)}")
        if any(not 0 < a <= 1 for a in alphas):
            raise ValueError("alpha values must lie in (0, 1]")
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("alpha values must be strictly decreasing")
        if alphas[0] / alphas[-1] < 100.0 * (1.0 - 1e-9):
            raise ValueError("alpha sweep must span at least two decades")
        theoretical_slope(self.regime, self.s)
        if self.regime != "smooth_2_lt_s_lt_3":
            if self.s is not None:
                raise ValueError(
                    f"s is used only by regime smooth_2_lt_s_lt_3, not {self.regime!r}"
                )
        elif self.recipe.kind != "random_sobolev":
            raise ValueError(
                f"smooth_2_lt_s_lt_3 requires random_sobolev data, not {self.recipe.kind!r}"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # the Euler run's config checks the time settings and fills in c_cfl
        euler = SolverConfig(
            self.grid, 0.0, self.t_end, self.record_every, self.dt, self.c_cfl
        )
        object.__setattr__(self, "c_cfl", euler.c_cfl)


@dataclass(frozen=True)
class FitResult:
    """OLS fit of ln(error) against ln(alpha)."""

    slope: float
    intercept: float
    stderr: float


@dataclass(frozen=True)
class TheoreticalRate:
    """Proven alpha-exponents for a regime (None when no rate is proven)."""

    regime: str
    velocity: float | None
    vorticity: float | None
    description: str


@dataclass
class ConvergenceReport:
    """One row per alpha of ``plan``, the shared dt, fits, verdicts and notes;
    alphas, errors and the proven rates are derived from plan and rows."""

    plan: SweepPlan
    per_alpha: list[dict]
    dt_used: float
    fits: dict[str, FitResult] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def alphas(self) -> tuple[float, ...]:
        return self.plan.alphas

    @property
    def errors(self) -> dict[str, list[float]]:
        return {m: [row[m] for row in self.per_alpha] for m in ERROR_METRICS}

    @property
    def theoretical(self) -> TheoreticalRate:
        return theoretical_slope(self.plan.regime, self.plan.s)


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(points: list[tuple[float, float]]) -> FitResult:
    """Least-squares slope of ln(error) vs ln(alpha).

    Needs at least three points with finite, positive alphas and errors
    and at least two distinct alphas.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points to fit a rate, got {len(points)}")
    alphas = np.array([p[0] for p in points], dtype=float)
    errors = np.array([p[1] for p in points], dtype=float)
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(errors))):
        raise ValueError("rate fits need finite alphas and errors")
    if np.any(alphas <= 0) or np.any(errors <= 0):
        raise ValueError("rate fits need positive alphas and errors")
    x = np.log(alphas)
    y = np.log(errors)
    if np.ptp(x) == 0.0:
        raise ValueError("rate fits need at least two distinct alphas")
    xm = x - x.mean()
    sxx = float(np.sum(xm * xm))
    slope = float(np.sum(xm * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    stderr = math.sqrt(float(np.sum(resid * resid)) / (len(points) - 2) / sxx)
    return FitResult(slope=slope, intercept=intercept, stderr=stderr)


def theoretical_slope(regime: str, s: float | None = None) -> TheoreticalRate:
    """Proven alpha-exponent of the sup-in-time error for each regime.

    Each exponent comes from an upper bound error <= C alpha^exponent, so it
    is a floor for the fitted slope, not a prediction of it.
    """
    if regime == "smooth_s_ge_3":
        return TheoreticalRate(
            regime,
            velocity=0.5,
            vorticity=0.5,
            description=(
                "velocity and vorticity errors bounded by C sqrt(alpha + "
                "||u0^a - u0||_2^2) for H^s data, s >= 3"
            ),
        )
    if regime == "smooth_2_lt_s_lt_3":
        if s is None or not 2.0 < s < 3.0:
            raise ValueError("regime smooth_2_lt_s_lt_3 requires s in (2, 3)")
        return TheoreticalRate(
            regime,
            velocity=0.5,
            vorticity=(s - 1.0) / 4.0,
            description=(
                f"velocity exponent 1/2; vorticity exponent (s-1)/4 = "
                f"{(s - 1.0) / 4.0:.4g} for H^s data, s = {s:g}"
            ),
        )
    if regime == "yudovich":
        return TheoreticalRate(
            regime,
            velocity=None,
            vorticity=None,
            description=(
                "bound-form only: sup_t ||u^a - u||_2 <= C3 (sqrt(alpha) + "
                "||u0^a - u0||_2^2)^(exp(-C1 T)/2), i.e. alpha-exponent "
                "(1/4) exp(-C1 T) with C1 unknown"
            ),
        )
    if regime == "enstrophy_class":
        return TheoreticalRate(
            regime,
            velocity=None,
            vorticity=None,
            description="convergence without a rate for omega_0 in L^2",
        )
    raise ValueError(f"unknown regime {regime!r} (known: {', '.join(REGIMES)})")


def choose_cutoff(alpha: float, band_limit: int | None = None) -> int:
    """Galerkin cutoff N = round(alpha^(-1/4)), at least 1, clamped to
    band_limit when given; band_limit is typed by DataRecipe's rule, so a
    fractional one, or one below 1, is a ValueError naming it."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = max(math.floor(alpha**-0.25 + 0.5), 1)
    if band_limit is None:
        return n
    band_limit = _cast("band_limit", int, band_limit)
    if band_limit < 1:
        raise ValueError(f"band_limit must be >= 1, got {band_limit}")
    return min(n, band_limit)


# ---------------------------------------------------------------------------
# paired runs


def _plan_dt(plan: SweepPlan, base: SpectralField) -> float:
    if plan.dt is not None:
        return plan.dt
    return cfl_dt(_live_block(base.half), plan.c_cfl)


def _solver_config(plan: SweepPlan, alpha: float, dt: float) -> SolverConfig:
    """The schedule every run of a sweep shares: fixed dt, a snapshot per record."""
    return SolverConfig(
        grid=plan.grid,
        alpha=alpha,
        t_end=plan.t_end,
        record_every=plan.record_every,
        dt=dt,
        snapshot_every=plan.record_every,
    )


def _alpha_errors(
    plan: SweepPlan,
    base: SpectralField,
    dt: float,
    euler: TrajectoryRecord | None,
    alpha: float,
) -> dict:
    """One sweep row: errors of the Voigt run at one alpha against the
    Euler reference.

    With ``euler`` None (a pool task) the reference is integrated here.
    Regime smooth_2_lt_s_lt_3 also runs Euler from the truncation omega0^N
    at the cutoff N = choose_cutoff(alpha) clamped to the data band, and
    adds N, the truncation part of the vorticity error, the Voigt part
    against the truncated run and the truncation checks at N.  The records
    are dropped on return, so a sweep holds those of at most one alpha at
    a time per process.
    """
    if euler is None:
        euler = integrate(base, _solver_config(plan, 0.0, dt))
    voigt = integrate(base, _solver_config(plan, alpha, dt))
    row = error_norms(voigt, euler)
    if plan.regime != "smooth_2_lt_s_lt_3":
        return row
    n = choose_cutoff(alpha, band_limit=plan.recipe.params["band"])
    euler_n = integrate(galerkin_truncate(base, n), _solver_config(plan, 0.0, dt))
    return {
        "cutoff_n": n,
        **row,
        "trunc_omega_l2": error_norms(euler_n, euler)["sup_omega_l2"],
        "voigt_vs_trunc_omega_l2": error_norms(voigt, euler_n)["sup_omega_l2"],
        **_truncation_checks(base, n, plan.s),
    }


def _truncation_checks(
    base: SpectralField, n: int, s: float
) -> dict[str, float | bool]:
    """Computed truncation inequalities for u0 at cutoff n.

    Checks, with u0 = biot_savart(omega0) and u0^N its truncation:
      a) ||u^N||_{s,2} <= ||u||_{s,2}
      b) ||u^N||_{s',2} <= (1 + N^2)^{(s'-s)/2} ||u||_{s,2} with s' = s + 1,
         the Bernstein factor of the (1 + |k|^2)^s weight
      c) ||u^N - u||_{sbar,2} <= N^{sbar-s} ||u||_{s,2} for sbar in {0, 1}
    plus the vorticity corollary ||omega^N - omega||_2 <= N^{1-s}||u||_{s,2}.
    Each velocity norm is taken from the vorticity, by _velocity_sobolev.
    """
    base_n = galerkin_truncate(base, n)
    us = _velocity_sobolev(base, s)
    out: dict[str, float | bool] = {"u_s_norm": us}
    out["nest_a"] = _velocity_sobolev(base_n, s) <= us
    sp = s + 1.0
    b_lhs = _velocity_sobolev(base_n, sp)
    out["nest_b"] = b_lhs <= (1.0 + n * n) ** ((sp - s) / 2.0) * us
    d1 = base_n - base
    for sbar in (0.0, 1.0):
        lhs = _velocity_sobolev(d1, sbar)
        out[f"nest_c_sbar{int(sbar)}"] = lhs <= n ** (sbar - s) * us
    out["omega_trunc_bound"] = l2_norm(d1) <= n ** (1.0 - s) * us
    return out


# ---------------------------------------------------------------------------
# sweeps


def _degenerate(errors: dict[str, list[float]], scale: float) -> bool:
    worst = max(max(v) for v in errors.values())
    return worst <= DEGENERATE_FLOOR * max(scale, 1.0)


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor(*args, **kwargs), imported on
    first use, so a serial sweep never loads multiprocessing.  run_sweep
    looks this name up when it opens its pool, so a caller may replace it."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(*args, **kwargs)


def run_sweep(plan: SweepPlan) -> ConvergenceReport:
    """Run the paired experiment at every alpha and fit decay rates.

    The one sweep engine of every regime.  The base data and dt are fixed
    once and _alpha_errors is mapped over the alphas.  A serial sweep
    integrates the Euler reference once, in the calling process; with
    plan.jobs > 1 the alpha runs execute in a process pool of at most one
    worker per alpha, and each pool task integrates its own reference
    rather than receive the whole record by pickle.  Results are assembled
    in alpha order either way, so reports are bit-identical across
    concurrency levels.
    """
    base = realize(plan.recipe, plan.grid)
    dt = _plan_dt(plan, base)
    if plan.jobs == 1:
        euler = integrate(base, _solver_config(plan, 0.0, dt))
        per_alpha = [_alpha_errors(plan, base, dt, euler, a) for a in plan.alphas]
    else:
        with ProcessPoolExecutor(max_workers=min(plan.jobs, len(plan.alphas))) as pool:
            per_alpha = list(
                pool.map(
                    _alpha_errors, repeat(plan), repeat(base), repeat(dt), repeat(None),
                    plan.alphas,
                )
            )
    report = ConvergenceReport(
        plan=plan,
        per_alpha=[{"alpha": a, **e} for a, e in zip(plan.alphas, per_alpha)],
        dt_used=dt,
    )
    errors = report.errors
    if _degenerate(errors, l2_norm(base)):
        report.verdicts["rate"] = "SKIP"
        report.notes.append(
            "all discrepancies at roundoff level (steady data); no rate fit"
        )
        return report

    for metric in ERROR_METRICS:
        report.fits[metric] = fit_rate(list(zip(plan.alphas, errors[metric])))

    _apply_verdicts(report)
    return report


def _meets_rate(slope: float, exponent: float) -> bool:
    """Whether a fitted slope is consistent with a proven bound
    error <= C alpha^exponent, up to SLOPE_TOL."""
    return slope >= exponent - SLOPE_TOL


def _apply_verdicts(report: ConvergenceReport) -> None:
    plan = report.plan
    fits = report.fits
    theo = report.theoretical
    if plan.regime == "smooth_s_ge_3":
        vel = fits["sup_u_l2"].slope
        vor = fits["sup_omega_l2"].slope
        report.verdicts["velocity_rate"] = (
            "PASS" if _meets_rate(vel, theo.velocity) else "FAIL"
        )
        report.verdicts["vorticity_rate"] = (
            "PASS" if _meets_rate(vor, theo.vorticity) else "FAIL"
        )
        report.notes.append(
            f"fitted velocity slope {vel:.4f} vs proven exponent {theo.velocity:.4f}; "
            f"fitted vorticity slope {vor:.4f} vs proven exponent "
            f"{theo.vorticity:.4f}; each passes at >= exponent - {SLOPE_TOL}"
        )
    elif plan.regime == "smooth_2_lt_s_lt_3":
        rows = report.per_alpha
        nest_ok = all(
            row["nest_a"] and row["nest_b"] and row["nest_c_sbar0"]
            and row["nest_c_sbar1"] and row["omega_trunc_bound"]
            for row in rows
        )
        report.verdicts["truncation_inequalities"] = "PASS" if nest_ok else "FAIL"
        vor = fits["sup_omega_l2"].slope
        target = theo.vorticity
        if _meets_rate(vor, target):
            report.verdicts["vorticity_rate"] = "PASS"
            report.notes.append(
                f"fitted total vorticity slope {vor:.4f} >= {target - SLOPE_TOL:.4f}, "
                f"the proven exponent (s-1)/4 = {target:.4f} minus {SLOPE_TOL}"
            )
        else:
            report.verdicts["vorticity_rate"] = "ADVISORY"
            # which part dominates at the smallest alpha tells what the
            # desk-scale points actually measure
            last = rows[-1]
            dom = (
                "truncation"
                if last["trunc_omega_l2"] >= last["voigt_vs_trunc_omega_l2"]
                else "voigt-vs-truncated"
            )
            e = report.errors["sup_omega_l2"]
            a = plan.alphas
            pair_slopes = [
                math.log(e[i] / e[i + 1]) / math.log(a[i] / a[i + 1])
                for i in range(len(a) - 1)
            ]
            report.notes.append(
                f"fitted total vorticity slope {vor:.4f} below {target:.4f} - "
                f"{SLOPE_TOL}: pre-asymptotic regime dominates at desk scale "
                f"({dom} error dominates at alpha = {last['alpha']:g}; "
                f"interval slopes {', '.join(f'{p:.3f}' for p in pair_slopes)})"
            )
    elif plan.regime == "yudovich":
        vel = fits["sup_u_l2"].slope
        report.verdicts["velocity_rate"] = "PASS" if 0.0 < vel <= 0.6 else "FAIL"
        report.notes.append(
            f"fitted velocity slope {vel:.4f}; proven bound is parametric "
            "((1/4) exp(-C1 T), C1 unknown) so only the window (0, 0.6] is checked"
        )
    elif plan.regime == "enstrophy_class":
        ok = True
        for metric in ("sup_u_h1", "sup_omega_l2"):
            e = report.errors[metric]
            monotone = all(e[i + 1] <= e[i] * 1.05 for i in range(len(e) - 1))
            decayed = e[-1] < 0.2 * e[0]
            ok = ok and monotone and decayed
            report.notes.append(
                f"{metric}: non-increasing within 5% slack = {monotone}, "
                f"smallest/largest = {e[-1] / e[0]:.4f} (< 0.2 required)"
            )
        report.verdicts["no_rate_decay"] = "PASS" if ok else "FAIL"


def galerkin_reference_sweep(
    plan: SweepPlan, s: float | None = None
) -> ConvergenceReport:
    """The Galerkin-truncation experiment: run_sweep of a plan in regime
    smooth_2_lt_s_lt_3.

    Per alpha, with N = choose_cutoff(alpha) clamped to the data band:
    Euler from omega0, Euler from the truncation omega0^N, and Voigt from
    omega0.  The total vorticity error splits into a truncation part and a
    Voigt-vs-truncated part; the total is fitted against the proven
    exponent (s-1)/4, with an advisory verdict when the desk-scale points
    are still pre-asymptotic.  An ``s`` given here must equal plan.s.
    """
    if plan.regime != "smooth_2_lt_s_lt_3":
        raise ValueError(
            f"galerkin_reference_sweep needs regime smooth_2_lt_s_lt_3, not {plan.regime!r}"
        )
    if s is not None and s != plan.s:
        raise ValueError(f"s = {s} disagrees with plan.s = {plan.s}")
    return run_sweep(plan)
