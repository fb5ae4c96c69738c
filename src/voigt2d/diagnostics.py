"""Norms, conserved quantities, and inequality diagnostics.

Every quadratic norm is a sum over the (M, M/2+1) half spectrum that a
SpectralField stores, against the norm weights of the grid's wave-number
tables (voigt2d.grid.tables): weight 2 on the columns 0 < k2 < M/2, which
stand for their conjugates at -k2 as well, and 1 on the self-conjugate
columns k2 = 0 and M/2 (``fold``), with |k|^2 (``grad``) and the velocity
weight (``velocity``) folded in.  Every velocity norm is that
weight on |omega_hat|^2, so sample_state, the per-record dict of
TrajectoryRecord.diagnostics, and error_norms build no velocity field and
no full M x M spectrum.

lp_norm, cz_ratio and gagliardo_ratio share one L^p quadrature on the 2x
oversampled grid, and each ratio evaluates a whole sequence of p on one
oversampled field: gagliardo_ratio on |f|, cz_ratio on |grad u|^2 at
exponents p/2, which it sums from three oversampled transforms of omega's
half spectrum.  The oversampled values live in the one 2M x 2M plane of
the spectral oversampling workspace, and the quadrature's scratch in its
buffer of 2 min(64, M) rows, one workspace per grid size, shared by every
call in the process, so not for concurrent threads.  The quadrature sums
every p over cache-sized row blocks in two row slices of that buffer: a
power of two p by repeated squaring in place, any other p by exp(p log)
from one log per block.  The collocation sup of the last field asked for
is kept, so sample_state and cz_ratio of one field transform it once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import TWO_PI, tables
from .spectral import (
    SpectralField,
    _oversample_half,
    _oversampling,
    _require_zero_mean,
    inverse_transform,
)

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TrajectoryRecord


# ---------------------------------------------------------------------------
# norms


def _weighted_norm(weight: np.ndarray, f: SpectralField) -> float:
    """sqrt((2pi)^2 sum weight |f_hat|^2) over the half spectrum of f."""
    sq = np.abs(f.half)
    np.square(sq, out=sq)
    sq *= weight
    return float(np.sqrt(TWO_PI**2 * np.sum(sq)))


def _sobolev_weighted_norm(weight: np.ndarray, f: SpectralField, s: float) -> float:
    """:func:`_weighted_norm` with weight (1 + |k|^2)^s times ``weight``."""
    w = np.add(tables(f.grid).ksq, 1.0)
    w **= s
    w *= weight
    return _weighted_norm(w, f)


def l2_norm(f: SpectralField) -> float:
    """sqrt((2pi)^2 sum_k |f_hat|^2) = L2 norm of the field."""
    return _weighted_norm(tables(f.grid).fold, f)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm with weight (1 + |k|^2)^s.

    s = 0 reproduces l2_norm bit-for-bit (the weight is exactly the fold
    and the summation order is identical).
    """
    if not np.isfinite(s):
        raise ValueError(f"sobolev order must be finite, got {s}")
    return _sobolev_weighted_norm(tables(f.grid).fold, f, s)


def gradient_l2(f: SpectralField) -> float:
    """L2 norm of the gradient: sqrt((2pi)^2 sum |k|^2 |f_hat|^2)."""
    return _weighted_norm(tables(f.grid).grad, f)


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
    plane of the oversampling workspace, with its block buffer as scratch."""
    m = f.grid.size
    ws = _oversampling(m)
    a = _oversample_half(f.half, ws.plane)
    np.abs(a, out=a)
    return _oversampled_lp(a, m, ps, ws.block)


def _oversampled_lp(
    a: np.ndarray, m: int, ps: Sequence[float], buf: np.ndarray
) -> tuple[float, ...]:
    """L^p norms, one per p >= 1 in ``ps``, of magnitudes a on the 2x
    oversampled grid of an M grid, by quadrature with weight (2pi/2M)^2.

    Every p is summed over blocks of min(64, M) rows of a, which stay in
    cache; the blocks live in two row slices of the scratch buffer ``buf``,
    which has a's width and at least 2 min(64, M) rows, and a is not
    modified.  A power of two p = 2^k takes
    (a/vmax)^p as a/vmax squared in place k times; after a smaller power of
    two the squaring goes on from it, which repeats the same operations.
    Any other p takes exp(p log(a/vmax)), with the log taken once per
    block for all of them (a zero of a gives exp(-inf) = 0).  Each p's norm
    is vmax (h2 * the sum of its block sums)^(1/p), so each p gives the
    bits of a call with that p alone.
    """
    h2 = (TWO_PI / (2 * m)) ** 2
    # factor out the max so p up to ~64 neither overflows nor underflows
    vmax = float(np.max(a))
    if vmax == 0.0:
        return (0.0,) * len(ps)
    rows = min(64, m)
    general = [math.frexp(p)[0] != 0.5 for p in ps]  # p is not a power of two
    need_log = any(general)
    totals = [0.0] * len(ps)
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        n = block.shape[0]
        lg, w = buf[:n], buf[rows : rows + n]  # the log, and each p's powers
        if need_log:
            np.divide(block, vmax, out=lg)
            with np.errstate(divide="ignore"):
                np.log(lg, out=lg)
        held = 0.0  # the power of two of a/vmax that w holds, 0 for none
        for i, p in enumerate(ps):
            if general[i]:
                np.multiply(lg, p, out=w)
                np.exp(w, out=w)
                held = 0.0
            else:
                if not 0.0 < held <= p:
                    np.divide(block, vmax, out=w)
                    held = 1.0
                while held < p:
                    np.multiply(w, w, out=w)
                    held *= 2.0
            totals[i] += float(np.sum(w))
    return tuple(vmax * (h2 * total) ** (1.0 / p) for total, p in zip(totals, ps))


def _velocity_sobolev(omega: SpectralField, s: float) -> float:
    """H^s norm, weight (1 + |k|^2)^s, of the velocity biot_savart(omega),
    summed over both components, from omega alone."""
    _require_zero_mean(omega)  # as biot_savart(omega) would
    return _sobolev_weighted_norm(tables(omega.grid).velocity, omega, s)


# ---------------------------------------------------------------------------
# conserved quantities


def sample_state(omega: SpectralField, alpha: float) -> dict[str, float]:
    """Squared L2 norms of velocity and vorticity, their voigt_* variants
    with the extra alpha|k|^2 weight, and the collocation sup of omega.

    All four sums weight |omega_hat|^2 over the half spectrum by the norm
    weights of the grid's tables, the energies by their velocity weight,
    so no velocity field is built.  The sup is that of lp_norm(omega, inf),
    which keeps it for a later cz_ratio.
    """
    _require_zero_mean(omega)  # as biot_savart(omega) would
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")
    # the sup first: its transform's arrays are freed before the sums' three
    sup = lp_norm(omega, np.inf)
    t = tables(omega.grid)
    omega_sq = np.abs(omega.half)
    np.square(omega_sq, out=omega_sq)
    u_sq = t.velocity * omega_sq
    omega_sq *= t.fold
    w = t.ksq * alpha
    w += 1.0
    energy = float(TWO_PI**2 * np.sum(u_sq))
    enstrophy = float(TWO_PI**2 * np.sum(omega_sq))
    u_sq *= w
    omega_sq *= w
    return {
        "energy": energy,
        "enstrophy": enstrophy,
        "voigt_energy": float(TWO_PI**2 * np.sum(u_sq)),
        "voigt_enstrophy": float(TWO_PI**2 * np.sum(omega_sq)),
        "omega_sup": sup,
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
    of p returns a tuple: |grad u|^2 and ||omega||_inf are computed once
    and every p is evaluated on them, with the same arithmetic as a single
    p.

    The gradient half spectra come straight from omega: with the stream
    function psi = -omega/|k|^2, d1 u1 = d1 d2 psi, d2 u1 = d2^2 psi and
    d1 u2 = -d1^2 psi with the Nyquist-zeroed d tables, and d2 u2 = -d1 u1
    exactly.  Each of the three is written, up to its sign, which drops out
    under the square, as omega_hat * inv_ksq * d * d straight into the
    data rows of the oversampling pad.  After the pass along k1, the pass
    along k2 runs in row blocks whose squares are summed into the
    workspace plane as |grad u|^2 = 2 (d1 u1)^2 + (d2 u1)^2 + (d1 u2)^2.
    The quadrature then takes the L^(p/2) norm of |grad u|^2, whose square
    root is the L^p norm of |grad u|.
    """
    ps = _exponents("cz_ratio", p, lambda q: 2 < q < np.inf, "finite p > 2")
    if not ps:
        return ()
    sup = lp_norm(omega, np.inf)
    if sup == 0.0:
        raise ValueError(f"cz_ratio_p{ps[0]:g}: cz_ratio is undefined for the zero field")
    _require_zero_mean(omega)  # as biot_savart(omega) would
    m = omega.grid.size
    t = tables(omega.grid)
    ws = _oversampling(m)
    grad_sq, block = ws.plane, ws.block
    for first, a, b in ((True, t.d1, t.d2), (False, t.d2, t.d2), (False, t.d1, t.d1)):
        for rows, out in ws.data:
            np.multiply(omega.half[rows], t.inv_ksq[rows], out=out)
            out *= a[rows]
            out *= b[rows]
        ws.k1_pass()
        for start in range(0, 2 * m, block.shape[0]):
            v = ws.k2_pass(block[: 2 * m - start], start)
            np.multiply(v, v, out=v)
            acc = grad_sq[start : start + v.shape[0]]
            if first:  # d1 u1, whose square counts twice
                np.multiply(v, 2.0, out=acc)
            else:
                acc += v
    norms = _oversampled_lp(grad_sq, m, tuple(q / 2.0 for q in ps), block)
    ratios = tuple(math.sqrt(n) / (q * sup) for n, q in zip(norms, ps))
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
    Each norm is a weighted sum over the half spectrum of the vorticity
    difference d, the velocity ones by the velocity weight of the grid's
    tables (the velocity of d is biot_savart(d)), so no velocity field is
    built.
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
