"""Time integration of the Euler and Euler-Voigt vorticity equations.

Euler:        d_t omega + u . grad omega = 0
Euler-Voigt:  d_t omega - alpha Lap d_t omega + u . grad omega = 0

with u = biot_savart(omega).  Both are advanced as
d_t omega = (I - alpha Lap)^{-1} (-u . grad omega), alpha = 0 giving Euler,
by a dealiased pseudo-spectral right-hand side that takes the advection
term in Basdevant's form (1983): four real transforms per evaluation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, tables
from .spectral import SpectralField, _field, dealias, zero_mean
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
# the live block: the state of the time stepper
#
# A SpectralField stores the rfft2 half spectrum omega.half, of shape
# (M, M/2+1) (voigt2d.spectral owns the layout).  The stepper's state is
# dealiased, so only its columns 0 <= k2 <= floor(M/3) (Orszag's two-thirds
# rule) can be nonzero.  Inside integrate the state is therefore the live
# block w = omega.half[:, :c], c = floor(M/3) + 1, held as its own
# C-contiguous (M, c) array: rhs, step_rk4 and cfl_dt take and return live
# blocks, every stage and slope of a step is one, and irfft zero-pads the
# columns the block leaves out.  _live_block cuts one from a half spectrum
# (for integrate and the sweep's CFL step), and spectral._field turns a live
# block back into a field.
#
# The advection term is taken in Basdevant's form (C. Basdevant, J. Comput.
# Phys. 50 (1983) 209-214): for divergence-free u in 2-D,
#     u . grad omega = (d1^2 - d2^2)(u1 u2) + d1 d2 (u2^2 - u1^2),
# so rhs needs the values of u1 and u2 alone, two inverse transforms, and
# the spectra of two products, two forward ones.  With dealiased products it
# is the same Galerkin term as the convective form u1 d1 omega + u2 d2 omega.


def _live_block(half: np.ndarray) -> np.ndarray:
    """The live block of the (M, M/2+1) half spectrum ``half``: a
    C-contiguous copy of its first floor(M/3)+1 columns."""
    return np.array(half[:, : half.shape[0] // 3 + 1])


@lru_cache(maxsize=16)
def _projection(m: int, alpha: float) -> np.ndarray:
    """(2, M, c) on the live columns of the M grid: P (k2^2 - k1^2) and
    -P k1 k2, with P = -M^2 dealias_mask / (1 + alpha |k|^2), 0 at k = 0.
    Applied to the rfft2 spectra of u1 u2 and u2^2 - u1^2 and summed, it
    gives the dealiased, zero-mean, Helmholtz-filtered -u . grad omega in
    one multiply and one add."""
    t = tables(GridSpec(m))
    c = m // 3 + 1
    k1, k2 = t.k1[:, :c], t.k2[:, :c]
    p = -(m**2) * t.dealias_mask[:, :c] / (1.0 + alpha * t.ksq[:, :c])
    p[0, 0] = 0.0
    out = p * np.stack([k2 * k2 - k1 * k1, -(k1 * k2)])
    out.setflags(write=False)
    return out


class _Workspace:
    """The fixed multipliers and preallocated buffers of rhs, step_rk4 and
    cfl_dt on one grid.

    Every call on the grid in this process shares them, so rhs, step_rk4
    and cfl_dt must not run concurrently on one grid (sweeps run in
    parallel in separate processes).
    """

    def __init__(self, m: int) -> None:
        self.grid = grid = GridSpec(m)
        h, c = m // 2 + 1, grid.dealias_cutoff + 1
        t = tables(grid)
        #: on the live columns, the multipliers taking the half spectrum of
        #: omega to those of u1, u2 (u = biot_savart(omega)), 0 outside the
        #: dealias square, so rhs(w) only ever sees dealias(w)
        i_d1, i_d2, inv = 1j * t.d1[:, :c], 1j * t.d2[:, :c], t.inv_ksq[:, :c]
        velocity = np.stack([i_d2 * inv, -i_d1 * inv])
        self.multiplier = np.where(t.dealias_mask[:, :c], velocity, 0.0)
        self.multiplier.setflags(write=False)
        #: spectra of u1, u2 on the live columns, then those of the products
        self.spectra = np.empty((2, m, c), dtype=np.complex128)
        #: grid values / M^2 of u1, u2 (planes[:2]) and of the products
        #: u1 u2, u2^2 - u1^2 (planes[2:])
        self.planes = np.empty((4, m, m))
        #: the products transformed along x2 only
        self.half = np.empty((2, m, h), dtype=np.complex128)
        #: RK4 stage input, current slope and running weighted slope sum:
        #: live blocks, each its own C-contiguous array
        self.stage = np.empty((m, c), dtype=np.complex128)
        self.slope = np.empty((m, c), dtype=np.complex128)
        self.total = np.empty((m, c), dtype=np.complex128)


@lru_cache(maxsize=8)
def _workspace(m: int) -> _Workspace:
    return _Workspace(m)


def _workspace_of(w: np.ndarray) -> _Workspace:
    """The workspace of the grid whose live block ``w`` is; ValueError,
    naming the expected shape, for any array that is not a live block
    (checked before a workspace is made)."""
    shape = w.shape
    m = shape[0] if shape else 0
    grid_size = m >= 8 and m % 2 == 0  # GridSpec's rule
    if not grid_size or shape != (m, m // 3 + 1):
        want = f" = {(m, m // 3 + 1)}" if grid_size else ", M even and >= 8"
        raise ValueError(
            f"expected a live block of shape (M, floor(M/3) + 1){want}, got {shape}"
        )
    return _workspace(m)


def _live_values(ws: _Workspace, w: np.ndarray) -> np.ndarray:
    """ws.planes[:2], set to the grid values / M^2 of u1, u2 for
    omega = dealias(w), w a live block."""
    spectra, planes = ws.spectra, ws.planes[:2]
    np.multiply(ws.multiplier, w, out=spectra)
    np.fft.ifft(spectra, axis=1, out=spectra)
    np.fft.irfft(spectra, n=w.shape[0], axis=2, out=planes)
    return planes


# ---------------------------------------------------------------------------
# right-hand side


def rhs(w: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """(I - alpha Lap)^{-1} of -u . grad omega, dealiased and zero-mean,
    with u = biot_savart(omega) and omega = dealias(w); alpha = 0 is the
    Euler right-hand side.

    ``w`` and the result are live blocks: the (M, floor(M/3)+1) leading
    columns w = half[:, :floor(M/3)+1] of an rfft2 half spectrum in the
    SpectralField normalisation (a field's half, coeffs[:, :M/2+1]), whose
    remaining columns a dealiased field has zero.  Any other shape, a whole
    half spectrum included, raises ValueError.  rhs(w) is by definition the
    Galerkin right-hand side of dealias(w): rows of ``w`` beyond the cutoff
    floor(M/3) are ignored, and on a dealiased ``w`` the masking multiplies
    by 1.0 and changes no bit.

    The advection term is taken in Basdevant's form (1983),
    (d1^2 - d2^2)(u1 u2) + d1 d2 (u2^2 - u1^2), which equals u . grad omega
    for divergence-free u.  ``w`` times one fixed (2, M, c) multiplier gives
    the spectra of u1 and u2; an ifft along k1 and an irfft along k2 their
    values; one rfft along x2 of u1 u2 and u2^2 - u1^2 and an fft along k1
    of its live columns their spectra, which one multiply by the (2, M, c)
    :func:`_projection` and one add turn into the result.  All
    intermediates live in a per-grid workspace; the result is written into
    the live block ``out`` if given (and returned), else into a new array.
    ``w`` is never written.  ``alpha`` must be finite and >= 0.
    """
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")
    ws = _workspace_of(w)
    u1, u2 = _live_values(ws, w)
    cross, diff = ws.planes[2], ws.planes[3]
    np.multiply(u1, u2, out=cross)
    np.subtract(u2, u1, out=diff)
    np.add(u2, u1, out=u1)
    np.multiply(diff, u1, out=diff)  # u2^2 - u1^2 = (u2 - u1)(u2 + u1)
    np.fft.rfft(ws.planes[2:], axis=2, out=ws.half)
    spectra = ws.spectra
    np.fft.fft(ws.half[:, :, : w.shape[1]], axis=1, out=spectra)
    np.multiply(spectra, _projection(w.shape[0], alpha), out=spectra)
    if out is None:
        out = np.empty_like(spectra[0])
    return np.add(spectra[0], spectra[1], out=out)


# ---------------------------------------------------------------------------
# stepping


def step_rk4(w: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """One classical RK4 step of d_t omega = rhs(omega, alpha) on the live
    block w (see :func:`rhs`), returned as a new live block; ``w`` is not
    written, and any other shape raises ValueError.  rhs has no mean mode,
    so the step keeps w's, which integrate sets to 0.

    The stages and slopes are C-contiguous live blocks in the grid's
    workspace, and the slope sum is accumulated in the order of the
    textbook formula w + dt/6 (k1 + 2 k2 + 2 k3 + k4), with stages
    w + (dt/2) k1, w + (dt/2) k2 and w + dt k3.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ws = _workspace_of(w)
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
    the velocity of dealias(w), the one rhs(w) advects with, for a live
    block w (see :func:`rhs`; any other shape raises ValueError); from the
    same pass that gives rhs its values of u1 and u2, in the grid's
    workspace.  ``w`` is not written."""
    if not c_cfl > 0:
        raise ValueError(f"c_cfl must be positive, got {c_cfl}")
    ws = _workspace_of(w)
    u = _live_values(ws, w)
    peak = max(float(u.max()), -float(u.min()))  # max |u| with no temporary
    umax = max(peak * ws.grid.size**2, CFL_VELOCITY_FLOOR)
    return c_cfl * ws.grid.spacing / umax


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


def _checked_sample(omega: SpectralField, alpha: float, t: float) -> dict[str, float]:
    """sample_state(omega, alpha) at time t; BlowUpError(t) if any value is
    not finite.  Overflow on the way to one is reported, not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = sample_state(omega, alpha)
    if not all(np.isfinite(v) for v in s.values()):
        raise BlowUpError(t)
    return s


def integrate(omega0: SpectralField, config: SolverConfig) -> TrajectoryRecord:
    """Advance omega0 to t_end recording diagnostics every record_every.

    The initial state is dealiased and mean-zeroed before stepping, which
    runs on a copy of its live block half[:, :floor(M/3)+1] (see
    :func:`rhs`); records and snapshots see the SpectralField that
    :func:`voigt2d.spectral._field` builds from a copy of it.  Raises
    :class:`BlowUpError` with the failure time if the state, or any
    diagnostic sampled from it, the one at t = 0 included, stops being
    finite.
    """
    if omega0.grid != config.grid:
        raise ValueError("initial data grid does not match config grid")
    omega = zero_mean(dealias(omega0))
    w = _live_block(omega.half)

    events, rec_set, snap_set = _schedule(config)

    times = [0.0]
    samples = [_checked_sample(omega, config.alpha, 0.0)]
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
            times.append(te)
            samples.append(_checked_sample(omega, config.alpha, te))
        if te in snap_set:
            snapshots.append((te, omega))

    diag = {key: np.array([s[key] for s in samples]) for key in samples[0]}
    return TrajectoryRecord(
        config=config,
        times=np.array(times),
        diagnostics=diag,
        snapshots=snapshots,
    )
