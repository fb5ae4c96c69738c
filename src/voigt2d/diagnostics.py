"""Norms, conserved quantities, and inequality diagnostics.

Every velocity norm is a weight on |omega_hat|^2 (_velocity_weight), so
sample_state, the per-record dict of TrajectoryRecord.diagnostics, and
error_norms build no velocity field.  lp_norm, cz_ratio and
gagliardo_ratio share one L^p quadrature on the 2x oversampled grid, and
each ratio evaluates a whole sequence of p on one oversampled field:
gagliardo_ratio on |f|, cz_ratio on |grad u|, which it builds from three
oversampled transforms of omega's half spectrum.  The oversampled values
and the scratch buffer in which the quadrature raises each p are the two
2M x 2M planes of the spectral oversampling workspace, one per grid size,
shared by every call in the process, so not for concurrent threads; a
power of two p is taken by repeated squaring in place.  The collocation sup
of the last field asked for is kept, so sample_state and cz_ratio of one
field transform it once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import TWO_PI, _Tables, tables
from .spectral import (
    SpectralField,
    _half,
    _oversample_half,
    _oversampling,
    _require_zero_mean,
    inverse_transform,
)

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TrajectoryRecord


# ---------------------------------------------------------------------------
# norms


def l2_norm(f: SpectralField) -> float:
    """sqrt((2pi)^2 sum_k |f_hat|^2) = L2 norm of the field."""
    return float(np.sqrt(TWO_PI**2 * np.sum(np.abs(f.coeffs) ** 2)))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm with weight (1 + |k|^2)^s.

    s = 0 reproduces l2_norm bit-for-bit (the weight array is exactly 1.0
    and the summation order is identical).
    """
    if not np.isfinite(s):
        raise ValueError(f"sobolev order must be finite, got {s}")
    w = (1.0 + tables(f.grid).ksq) ** s
    return float(np.sqrt(TWO_PI**2 * np.sum(w * np.abs(f.coeffs) ** 2)))


def gradient_l2(f: SpectralField) -> float:
    """L2 norm of the gradient: sqrt((2pi)^2 sum |k|^2 |f_hat|^2)."""
    return float(np.sqrt(TWO_PI**2 * np.sum(tables(f.grid).ksq * np.abs(f.coeffs) ** 2)))


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm by grid quadrature.

    p = inf returns the max absolute collocation value.  For finite p the
    interpolant is evaluated on a 2x oversampled grid first, which keeps
    quadrature error of smooth fields at roundoff level.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if p == np.inf:
        return _sup(f)
    return _abs_lp(f, (p,))[0]


@lru_cache(maxsize=1)
def _sup(f: SpectralField) -> float:
    """Max |collocation value| of f, kept for the last field asked for.

    Fields are immutable and hash by identity, so a second call on one
    field (sample_state, then cz_ratio) takes no second transform.
    """
    values = inverse_transform(f)
    return float(np.max(np.abs(values, out=values)))


def _abs_lp(f: SpectralField, ps: Sequence[float]) -> tuple[float, ...]:
    """:func:`_oversampled_lp` of |f| on the 2x oversampled grid, in the
    two planes of the oversampling workspace."""
    m = f.grid.size
    a, buf = _oversampling(m).planes
    _oversample_half(_half(f), a)
    np.abs(a, out=a)
    return _oversampled_lp(a, m, ps, buf)


def _oversampled_lp(
    a: np.ndarray, m: int, ps: Sequence[float], buf: np.ndarray
) -> tuple[float, ...]:
    """L^p norms, one per p >= 1 in ``ps``, of magnitudes a on the 2x
    oversampled grid of an M grid, by quadrature with weight (2pi/2M)^2.

    Every p works in the scratch buffer ``buf`` of a's shape; a is not
    modified.  A power of two p = 2^k takes (a/vmax)^p as a/vmax squared in
    place k times and weights the sum by h2; after a smaller power of two
    the squaring goes on from it, which repeats the same operations.  Any
    other p is bit for bit the sum of ``(a / vmax) ** p * h2``.  Either way
    each p gives the bits of a call with that p alone.
    """
    h2 = (TWO_PI / (2 * m)) ** 2
    # factor out the max so p up to ~64 neither overflows nor underflows
    vmax = float(np.max(a))
    if vmax == 0.0:
        return (0.0,) * len(ps)
    norms = []
    held = 0.0  # the power of two of a/vmax that buf holds, 0 for none
    for p in ps:
        if math.frexp(p)[0] == 0.5:  # p is a power of two
            if not 0.0 < held <= p:
                np.divide(a, vmax, out=buf)
                held = 1.0
            while held < p:
                np.multiply(buf, buf, out=buf)
                held *= 2.0
            total = h2 * float(np.sum(buf))
        else:
            np.divide(a, vmax, out=buf)
            np.power(buf, p, out=buf)
            np.multiply(buf, h2, out=buf)
            total = float(np.sum(buf))
            held = 0.0
        norms.append(vmax * total ** (1.0 / p))
    return tuple(norms)


def _velocity_weight(t: _Tables) -> np.ndarray:
    """The weight (d1^2 + d2^2) / |k|^4 of the grid tables t:
    |u1_hat|^2 + |u2_hat|^2 = weight * |omega_hat|^2 for u = biot_savart(omega),
    with the Nyquist-zeroed d tables that derivative uses."""
    return (t.d1**2 + t.d2**2) * t.inv_ksq**2


def _velocity_sobolev(omega: SpectralField, s: float) -> float:
    """H^s norm, weight (1 + |k|^2)^s, of the velocity biot_savart(omega),
    summed over both components, from omega alone."""
    _require_zero_mean(omega)  # as biot_savart(omega) would
    t = tables(omega.grid)
    w = (1.0 + t.ksq) ** s * _velocity_weight(t)
    return float(np.sqrt(TWO_PI**2 * np.sum(w * np.abs(omega.coeffs) ** 2)))


# ---------------------------------------------------------------------------
# conserved quantities


def sample_state(omega: SpectralField, alpha: float) -> dict[str, float]:
    """Squared L2 norms of velocity and vorticity, their voigt_* variants
    with the extra alpha|k|^2 weight, and the collocation sup of omega.

    All four sums weight |omega_hat|^2, the energies by
    :func:`_velocity_weight`, so no velocity field is built.  The sup is
    that of lp_norm(omega, inf), which keeps it for a later cz_ratio.  The
    whole process shares that kept value, as it shares the ratios'
    oversampling workspace, so these diagnostics are not for concurrent
    threads.
    """
    _require_zero_mean(omega)  # as biot_savart(omega) would
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    t = tables(omega.grid)
    w = 1.0 + alpha * t.ksq
    omega_sq = np.abs(omega.coeffs) ** 2
    u_sq = _velocity_weight(t) * omega_sq
    return {
        "energy": float(TWO_PI**2 * np.sum(u_sq)),
        "enstrophy": float(TWO_PI**2 * np.sum(omega_sq)),
        "voigt_energy": float(TWO_PI**2 * np.sum(w * u_sq)),
        "voigt_enstrophy": float(TWO_PI**2 * np.sum(w * omega_sq)),
        "omega_sup": lp_norm(omega, np.inf),
    }


# ---------------------------------------------------------------------------
# inequality diagnostics


def _exponents(name: str, p: float | Sequence[float], ok, domain: str) -> tuple[float, ...]:
    """The p of one ratio call as a tuple, every one checked before any
    transform.  Errors start with the row name ``{name}_p{p:g}``."""
    ps = (p,) if np.ndim(p) == 0 else tuple(p)
    for q in ps:
        if not ok(q):
            raise ValueError(f"{name}_p{q:g}: {name} requires {domain}, got {q}")
    return ps


def cz_ratio(
    omega: SpectralField, p: float | Sequence[float]
) -> float | tuple[float, ...]:
    """||grad u||_p / (p ||omega||_inf) for u = biot_savart(omega), finite p > 2.

    The Calderon-Zygmund constant of the torus makes this ratio bounded
    uniformly in p; it is scale-invariant in omega.  |grad u| is the
    pointwise Frobenius magnitude of the 2x2 gradient tensor.  A sequence
    of p returns a tuple: |grad u| and ||omega||_inf are computed once and
    every p is evaluated on them, with the same arithmetic as a single p.

    The gradient half spectra come straight from the stream function
    psi = -omega/|k|^2: d1 u1 = d1 d2 psi, d2 u1 = d2^2 psi and
    d1 u2 = -d1^2 psi with the Nyquist-zeroed d tables, and d2 u2 = -d1 u1
    exactly, so three oversampled transforms build |grad u|.
    """
    ps = _exponents("cz_ratio", p, lambda q: 2 < q < np.inf, "finite p > 2")
    if not ps:
        return ()
    sup = lp_norm(omega, np.inf)
    if sup == 0.0:
        raise ValueError(f"cz_ratio_p{ps[0]:g}: cz_ratio is undefined for the zero field")
    _require_zero_mean(omega)  # as inverse_laplacian(omega) would
    m = omega.grid.size
    h = m // 2 + 1
    t = tables(omega.grid)
    d1, d2 = t.d1[:, :h], t.d2[:, :h]
    psi = -t.inv_ksq[:, :h] * _half(omega)
    mag, v = _oversampling(m).planes
    _oversample_half(d1 * d2 * psi, mag)  # d1 u1, whose square counts twice
    mag *= mag
    mag *= 2.0
    for grad in (d2 * d2 * psi, -d1 * d1 * psi):  # d2 u1, d1 u2
        _oversample_half(grad, v)
        mag += np.multiply(v, v, out=v)
    np.sqrt(mag, out=mag)
    norms = _oversampled_lp(mag, m, ps, v)  # the last gradient plane is scratch
    ratios = tuple(n / (q * sup) for n, q in zip(norms, ps))
    return ratios[0] if np.ndim(p) == 0 else ratios


def gagliardo_ratio(
    f: SpectralField, p: float | Sequence[float]
) -> float | tuple[float, ...]:
    """||f||_{2p/(p-1)} / (||f||_2^{1-1/p} ||grad f||_2^{1/p}), finite p >= 2.

    Bounded uniformly in p by the torus Gagliardo-Nirenberg constant and
    scale-invariant in f.  A sequence of p returns a tuple: |f| on the
    oversampled grid and the two L2 norms are computed once and every p is
    evaluated on them, with the same arithmetic as a single p.
    """
    ps = _exponents("gagliardo_ratio", p, lambda q: 2 <= q < np.inf, "finite p >= 2")
    if not ps:
        return ()
    n2 = l2_norm(f)
    ng = gradient_l2(f)
    if n2 == 0.0 or ng == 0.0:
        raise ValueError(
            f"gagliardo_ratio_p{ps[0]:g}: gagliardo_ratio is undefined for constant fields"
        )
    norms = _abs_lp(f, tuple(2.0 * q / (q - 1.0) for q in ps))
    ratios = tuple(
        n / (n2 ** (1.0 - 1.0 / q) * ng ** (1.0 / q)) for n, q in zip(norms, ps)
    )
    return ratios[0] if np.ndim(p) == 0 else ratios


# ---------------------------------------------------------------------------
# trajectory comparison


def error_norms(a: "TrajectoryRecord", b: "TrajectoryRecord") -> dict[str, float]:
    """Sup-in-time discrepancy norms between two trajectories.

    Both records must carry snapshots on identical time grids and grids.
    Each norm is a weighted sum over the spectrum of the vorticity
    difference d, the velocity ones by :func:`_velocity_weight` (the
    velocity of d is biot_savart(d)), so no velocity field is built.
    Returns sup_u_l2, sup_omega_l2, sup_u_h1.
    """
    if a.snapshots is None or b.snapshots is None:
        raise ValueError("error_norms requires records with snapshots")
    if a.config.grid != b.config.grid:
        raise ValueError(f"grid mismatch: {a.config.grid} vs {b.config.grid}")
    ta = [t for t, _ in a.snapshots]
    tb = [t for t, _ in b.snapshots]
    if len(ta) != len(tb) or not np.allclose(ta, tb, rtol=0.0, atol=1e-12):
        raise ValueError("snapshot time grids differ")
    sup_u = 0.0
    sup_w = 0.0
    sup_h1 = 0.0
    for (_, wa), (_, wb) in zip(a.snapshots, b.snapshots):
        d = wa - wb
        sup_w = max(sup_w, l2_norm(d))
        sup_u = max(sup_u, _velocity_sobolev(d, 0.0))
        sup_h1 = max(sup_h1, _velocity_sobolev(d, 1.0))
    return {"sup_u_l2": sup_u, "sup_omega_l2": sup_w, "sup_u_h1": sup_h1}
