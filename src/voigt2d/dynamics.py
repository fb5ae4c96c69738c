"""Time integration of the Euler and Euler-Voigt vorticity equations.

Euler:        d_t omega + u . grad omega = 0
Euler-Voigt:  d_t omega - alpha Lap d_t omega + u . grad omega = 0

with u = biot_savart(omega).  Both are advanced as
d_t omega = (I - alpha Lap)^{-1} (-u . grad omega), alpha = 0 giving Euler.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, tables
from .spectral import SpectralField, dealias, zero_mean
from .diagnostics import sample_state

#: floor for the velocity scale in the CFL rule (guards the zero field)
CFL_VELOCITY_FLOOR = 1e-12
#: event times closer than this fraction of t_end are one time
_EVENT_RTOL = 1e-12


class BlowUpError(RuntimeError):
    """The state became non-finite during integration."""

    def __init__(self, time: float) -> None:
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one integration.

    Exactly one of ``dt`` (fixed step) and ``c_cfl`` (advective CFL
    constant, step recomputed from the current velocity) is used; if
    neither is given the CFL rule with c_cfl = 0.5 applies.  Steps are
    shortened to land exactly on diagnostic/snapshot times and on t_end,
    and a step that ends within 1e-12 t_end short of one lands on it.
    """

    grid: GridSpec
    alpha: float
    t_end: float
    record_every: float
    dt: float | None = None
    c_cfl: float | None = None
    snapshot_every: float | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.record_every > 0:
            raise ValueError(f"record_every must be positive, got {self.record_every}")
        if self.dt is not None and self.c_cfl is not None:
            raise ValueError("give either dt or c_cfl, not both")
        if self.dt is None and self.c_cfl is None:
            object.__setattr__(self, "c_cfl", 0.5)
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.c_cfl is not None and not self.c_cfl > 0:
            raise ValueError(f"c_cfl must be positive, got {self.c_cfl}")
        if self.snapshot_every is not None and not self.snapshot_every > 0:
            raise ValueError(
                f"snapshot_every must be positive, got {self.snapshot_every}"
            )


@dataclass
class TrajectoryRecord:
    """Diagnostics (and optionally spectral snapshots) of one run of
    ``config``, which holds its grid and alpha."""

    config: SolverConfig
    times: np.ndarray
    diagnostics: dict[str, np.ndarray]
    snapshots: list[tuple[float, SpectralField]] | None = None


# ---------------------------------------------------------------------------
# the half-spectrum state of the time stepper
#
# Inside integrate the vorticity is the rfft2 half spectrum w = coeffs[:, :M/2+1]
# of its SpectralField: the columns k2 < 0 are the conjugates of those with
# k2 > 0, so a real field needs only these, and irfft2/rfft2 keep it real.


def _half(omega: SpectralField) -> np.ndarray:
    """The half spectrum w of a full-layout field."""
    return omega.coeffs[:, : omega.grid.size // 2 + 1]


def _field(w: np.ndarray) -> SpectralField:
    """The Hermitian SpectralField of half spectrum w.

    Mirrors the columns 0 < k2 < M/2 onto -k2 and symmetrizes the
    self-conjugate columns k2 = 0 and M/2, so hermitian_defect() is 0.
    """
    grid = GridSpec(w.shape[0])
    m, h = grid.size, grid.size // 2
    neg = tables(grid).negate
    c = np.empty((m, m), dtype=np.complex128)
    c[:, : h + 1] = w
    c[:, h + 1 :] = np.conj(w[neg, h - 1 : 0 : -1])
    for j in (0, h):
        c[:, j] = 0.5 * (w[:, j] + np.conj(w[neg, j]))
    return SpectralField(grid, c)


@lru_cache(maxsize=16)
def _projection(grid: GridSpec, alpha: float) -> np.ndarray:
    """-M^2 dealias_mask / (1 + alpha |k|^2) on the half spectrum, 0 at k = 0:
    dealias, zero_mean and helmholtz_filter of an rfft2 output in one multiply."""
    t = tables(grid)
    h = grid.size // 2 + 1
    out = -(grid.size**2) * t.dealias_mask[:, :h] / (1.0 + alpha * t.ksq[:, :h])
    out[0, 0] = 0.0
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# right-hand side


def rhs(w: np.ndarray, alpha: float) -> np.ndarray:
    """(I - alpha Lap)^{-1} of -u . grad omega, dealiased and zero-mean,
    with u = biot_savart(omega); alpha = 0 is the Euler right-hand side.

    ``w`` and the result are rfft2 half spectra of shape (M, M/2+1) in the
    SpectralField normalisation (w = coeffs[:, :M/2+1]).  One irfft2 of the
    stacked u1, u2, d1 omega, d2 omega multipliers gives the four products'
    factors, one rfft2 the advection term, and one multiply by the fused
    -M^2 dealias_mask / (1 + alpha |k|^2) (zero at k = 0) projects it.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    m = w.shape[0]
    grid = GridSpec(m)
    u1, u2, w1, w2 = np.fft.irfft2(tables(grid).advection * w, s=(m, m))
    return np.fft.rfft2(u1 * w1 + u2 * w2) * _projection(grid, alpha)


# ---------------------------------------------------------------------------
# stepping


def step_rk4(w: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """One classical RK4 step of d_t omega = rhs(omega, alpha) on the
    (M, M/2+1) half spectrum w.  rhs has no mean mode, so the step keeps
    w's, which integrate sets to 0."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = rhs(w, alpha)
    k2 = rhs(w + (0.5 * dt) * k1, alpha)
    k3 = rhs(w + (0.5 * dt) * k2, alpha)
    k4 = rhs(w + dt * k3, alpha)
    return w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def cfl_dt(w: np.ndarray, c_cfl: float) -> float:
    """Advective step c_cfl * (2pi/M) / max(component sup norms, floor) for
    the velocity of the (M, M/2+1) half spectrum w."""
    if not c_cfl > 0:
        raise ValueError(f"c_cfl must be positive, got {c_cfl}")
    m = w.shape[0]
    grid = GridSpec(m)
    u = np.fft.irfft2(tables(grid).advection[:2] * w, s=(m, m))
    umax = max(float(np.max(np.abs(u))) * m**2, CFL_VELOCITY_FLOOR)
    return c_cfl * grid.spacing / umax


def _event_times(t_end: float, every: float) -> list[float]:
    """Multiples of ``every`` in (0, t_end), then t_end itself."""
    out = []
    k = 1
    while True:
        t = k * every
        if t >= t_end * (1.0 - _EVENT_RTOL):
            break
        out.append(t)
        k += 1
    out.append(t_end)
    return out


def _schedule(config: SolverConfig) -> tuple[list[float], set[float], set[float]]:
    """Sorted event times, and the record and snapshot times among them.

    A snapshot time within 1e-12 t_end of a record time is moved onto it:
    k * every rounds differently for different ``every``, and two events a
    few ulps apart would force a sub-ulp step and stamp the snapshot with
    a time the records do not have.
    """
    rec_times = _event_times(config.t_end, config.record_every)
    snap_times = []
    if config.snapshot_every is not None:
        tol = _EVENT_RTOL * config.t_end
        for t in _event_times(config.t_end, config.snapshot_every):
            i = bisect_left(rec_times, t)
            near = min(rec_times[max(i - 1, 0) : i + 1], key=lambda r: abs(r - t))
            snap_times.append(near if abs(near - t) <= tol else t)
    return sorted(set(rec_times) | set(snap_times)), set(rec_times), set(snap_times)


def integrate(omega0: SpectralField, config: SolverConfig) -> TrajectoryRecord:
    """Advance omega0 to t_end recording diagnostics every record_every.

    The initial state is dealiased and mean-zeroed before stepping, which
    runs on its rfft2 half spectrum; records and snapshots see the full,
    exactly Hermitian SpectralField of the state.  Raises :class:`BlowUpError` with the failure time if the state
    stops being finite.
    """
    if omega0.grid != config.grid:
        raise ValueError("initial data grid does not match config grid")
    w = _half(zero_mean(dealias(omega0)))
    omega = _field(w)

    events, rec_set, snap_set = _schedule(config)

    times = [0.0]
    samples = [sample_state(omega, config.alpha)]
    snapshots: list[tuple[float, SpectralField]] | None = None
    if config.snapshot_every is not None:
        snapshots = [(0.0, omega)]

    t = 0.0
    for te in events:
        while t < te:
            if config.dt is not None:
                step = config.dt
            else:
                step = cfl_dt(w, config.c_cfl)
            remaining = te - t
            if step >= remaining:
                step = remaining
                t_new = te
            else:
                t_new = t + step
                if te - t_new <= _EVENT_RTOL * config.t_end:
                    t_new = te  # t + step rounded just short of te: no sliver step
            # overflow on the way to a blow-up is reported, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                w = step_rk4(w, step, config.alpha)
            if not np.all(np.isfinite(w)):
                raise BlowUpError(t_new)
            t = t_new
        omega = _field(w)  # every event is a record or a snapshot time
        if te in rec_set:
            s = sample_state(omega, config.alpha)
            if not all(np.isfinite(v) for v in s.values()):
                raise BlowUpError(te)
            times.append(te)
            samples.append(s)
        if te in snap_set:
            snapshots.append((te, omega))

    diag = {key: np.array([s[key] for s in samples]) for key in samples[0]}
    return TrajectoryRecord(
        config=config,
        times=np.array(times),
        diagnostics=diag,
        snapshots=snapshots,
    )
