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
from .spectral import SpectralField, _field, _half, dealias, zero_mean
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
    Every number given must be finite.
    """

    grid: GridSpec
    alpha: float
    t_end: float
    record_every: float
    dt: float | None = None
    c_cfl: float | None = None
    snapshot_every: float | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "t_end", "record_every", "dt", "c_cfl", "snapshot_every"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
# Inside integrate the vorticity is the rfft2 half spectrum w = _half(omega)
# (voigt2d.spectral owns the layout).  The state is dealiased, so only its
# live columns 0 <= k2 <= floor(M/3) (Orszag's two-thirds rule) can be
# nonzero: rhs and cfl_dt run their complex k1-axis passes over those alone,
# and irfft zero-pads the rest.


@lru_cache(maxsize=16)
def _projection(grid: GridSpec, alpha: float) -> np.ndarray:
    """-M^2 dealias_mask / (1 + alpha |k|^2) on the live columns, 0 at k = 0:
    dealias, zero_mean and helmholtz_filter of an rfft2 output in one multiply."""
    t = tables(grid)
    c = grid.dealias_cutoff + 1
    out = -(grid.size**2) * t.dealias_mask[:, :c] / (1.0 + alpha * t.ksq[:, :c])
    out[0, 0] = 0.0
    out.setflags(write=False)
    return out


class _Workspace:
    """The fixed multiplier and preallocated buffers of rhs, step_rk4 and
    cfl_dt on one grid.

    Every call on the grid in this process shares them, so rhs, step_rk4
    and cfl_dt must not run concurrently on one grid (sweeps run in
    parallel in separate processes).
    """

    def __init__(self, grid: GridSpec) -> None:
        m, h = grid.size, grid.size // 2 + 1
        c = grid.dealias_cutoff + 1
        t = tables(grid)
        self.live = c
        #: on the live columns, the multipliers taking the half spectrum of
        #: omega to those of u1, u2, d1 omega, d2 omega (u = biot_savart(omega)),
        #: 0 outside the dealias square, so rhs(w) only ever sees dealias(w)
        i_d1, i_d2, inv = 1j * t.d1[:, :c], 1j * t.d2[:, :c], t.inv_ksq[:, :c]
        advection = np.stack([i_d2 * inv, -i_d1 * inv, i_d1, i_d2])
        self.multiplier = np.where(t.dealias_mask[:, :c], advection, 0.0)
        self.multiplier.setflags(write=False)
        #: spectra of u1, u2, d1 omega, d2 omega on the live columns
        self.spectra = np.empty((4, m, c), dtype=np.complex128)
        #: their grid values; u1 * d1 omega + u2 * d2 omega lands in planes[0]
        self.planes = np.empty((4, m, m))
        #: the advection term transformed along x2 only
        self.half = np.empty((m, h), dtype=np.complex128)
        #: RK4 stage input, current slope and running weighted slope sum
        self.stage = np.empty((m, h), dtype=np.complex128)
        self.slope = np.empty((m, h), dtype=np.complex128)
        self.total = np.empty((m, h), dtype=np.complex128)


@lru_cache(maxsize=8)
def _workspace(grid: GridSpec) -> _Workspace:
    return _Workspace(grid)


def _live_values(ws: _Workspace, w: np.ndarray, rows: int) -> np.ndarray:
    """ws.planes[:rows], set to the grid values / M^2 of the first ``rows``
    of u1, u2, d1 omega, d2 omega for omega = dealias(w)."""
    spectra, planes = ws.spectra[:rows], ws.planes[:rows]
    np.multiply(ws.multiplier[:rows], w[:, : ws.live], out=spectra)
    np.fft.ifft(spectra, axis=1, out=spectra)
    np.fft.irfft(spectra, n=w.shape[0], axis=2, out=planes)
    return planes


# ---------------------------------------------------------------------------
# right-hand side


def rhs(w: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """(I - alpha Lap)^{-1} of -u . grad omega, dealiased and zero-mean,
    with u = biot_savart(omega) and omega = dealias(w); alpha = 0 is the
    Euler right-hand side.

    ``w`` and the result are rfft2 half spectra of shape (M, M/2+1) in the
    SpectralField normalisation (w = coeffs[:, :M/2+1]).  rhs(w) is by
    definition the Galerkin right-hand side of dealias(w): modes of ``w``
    beyond the cutoff floor(M/3) are ignored, and on a dealiased ``w`` the
    masking multiplies by 1.0 and changes no bit.

    The live columns k2 <= floor(M/3) of ``w`` times one fixed (4, M, c)
    multiplier give the spectra of u1, u2, d1 omega, d2 omega; an ifft
    along k1 and an irfft along k2 their values; one rfft along x2 of
    u1 d1 omega + u2 d2 omega and an fft along x1 of its live columns the
    advection term, which one multiply by -M^2 / (1 + alpha |k|^2) on the
    dealias square (zero at k = 0) projects.  The result is 0 outside the
    live columns.  All intermediates live in a per-grid workspace; the
    result is written into ``out`` if given (and returned), else into a
    new array.  ``w`` is never written.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    m = w.shape[0]
    grid = GridSpec(m)
    ws = _workspace(grid)
    c = ws.live
    u1, u2, w1, w2 = _live_values(ws, w, 4)
    np.multiply(u1, w1, out=u1)
    np.multiply(u2, w2, out=u2)
    np.add(u1, u2, out=u1)
    np.fft.rfft(u1, axis=1, out=ws.half)
    np.fft.fft(ws.half[:, :c], axis=0, out=ws.spectra[0])
    if out is None:
        out = np.empty_like(ws.half)
    np.multiply(ws.spectra[0], _projection(grid, alpha), out=out[:, :c])
    out[:, c:] = 0.0
    return out


# ---------------------------------------------------------------------------
# stepping


def step_rk4(w: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """One classical RK4 step of d_t omega = rhs(omega, alpha) on the
    (M, M/2+1) half spectrum w, returned as a new array; ``w`` is not
    written.  rhs has no mean mode, so the step keeps w's, which integrate
    sets to 0.

    The stages and slopes live in the grid's workspace, and the slope sum
    is accumulated in the order of the textbook formula
    w + dt/6 (k1 + 2 k2 + 2 k3 + k4), with stages w + (dt/2) k1,
    w + (dt/2) k2 and w + dt k3.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ws = _workspace(GridSpec(w.shape[0]))
    stage, slope, total = ws.stage, ws.slope, ws.total
    half_dt = 0.5 * dt
    rhs(w, alpha, out=total)  # k1
    np.multiply(total, half_dt, out=stage)
    np.add(w, stage, out=stage)
    rhs(stage, alpha, out=slope)  # k2
    np.multiply(slope, half_dt, out=stage)
    np.add(w, stage, out=stage)
    np.multiply(slope, 2.0, out=slope)
    np.add(total, slope, out=total)
    rhs(stage, alpha, out=slope)  # k3
    np.multiply(slope, dt, out=stage)
    np.add(w, stage, out=stage)
    np.multiply(slope, 2.0, out=slope)
    np.add(total, slope, out=total)
    rhs(stage, alpha, out=slope)  # k4
    np.add(total, slope, out=total)
    np.multiply(total, dt / 6.0, out=total)
    return w + total


def cfl_dt(w: np.ndarray, c_cfl: float) -> float:
    """Advective step c_cfl * (2pi/M) / max(component sup norms, floor) for
    the velocity of dealias(w), the one rhs(w) advects with, for an
    (M, M/2+1) half spectrum w; from rhs's live-column pass on the rows u1
    and u2 alone, in the grid's workspace.  ``w`` is not written."""
    if not c_cfl > 0:
        raise ValueError(f"c_cfl must be positive, got {c_cfl}")
    m = w.shape[0]
    grid = GridSpec(m)
    u = _live_values(_workspace(grid), w, 2)
    peak = max(float(u.max()), -float(u.min()))  # max |u| with no temporary
    umax = max(peak * m**2, CFL_VELOCITY_FLOOR)
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
    exactly Hermitian SpectralField of the state.  Raises
    :class:`BlowUpError` with the failure time if the state stops being
    finite.
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
