"""Full-plane wave-number tables and the gather map k -> -k for the test
oracles, and the stepper's live block of a half spectrum.

voigt2d.grid.tables covers the (M, M/2+1) half spectrum that a field
stores.  Oracles that work on the M x M layout of SpectralField.coeffs take
these M x M tables instead, built from the same formulas over every column,
and measure Hermitian symmetry with an index gather, :func:`negate`, that
shares no code with the slices of voigt2d.spectral._mirror.
The right-hand side, the RK4 step and the CFL rule of voigt2d.dynamics take
the live block of a half spectrum, :func:`live`.
"""

from types import SimpleNamespace

import numpy as np

from voigt2d import GridSpec


def full_tables(grid: GridSpec) -> SimpleNamespace:
    """k1, k2, d1, d2 (Nyquist-zeroed), ksq, inv_ksq (0 at k = 0) and
    dealias_mask as M x M arrays in FFT layout."""
    m = grid.size
    k = np.fft.fftfreq(m, d=1.0 / m)
    d = k.copy()
    d[m // 2] = 0.0
    ksq = np.add.outer(k**2, k**2)
    inv_ksq = np.zeros_like(ksq)
    inv_ksq[ksq > 0] = 1.0 / ksq[ksq > 0]
    keep = np.abs(k) <= grid.dealias_cutoff
    return SimpleNamespace(
        k1=np.broadcast_to(k[:, None], (m, m)),
        k2=np.broadcast_to(k[None, :], (m, m)),
        d1=np.broadcast_to(d[:, None], (m, m)),
        d2=np.broadcast_to(d[None, :], (m, m)),
        ksq=ksq,
        inv_ksq=inv_ksq,
        dealias_mask=np.logical_and.outer(keep, keep),
    )


def live(half: np.ndarray) -> np.ndarray:
    """The live block of the (M, M/2+1) half spectrum ``half``: a
    C-contiguous copy of its first floor(M/3)+1 columns."""
    return np.array(half[:, : half.shape[0] // 3 + 1])


def negate(m: int) -> np.ndarray:
    """The index that maps k -> -k in the FFT layout of an M grid, to be
    applied along either axis."""
    return (-np.arange(m)) % m


def hermitian_defect(c: np.ndarray) -> float:
    """Max |c(-k) - conj(c(k))| over all modes of the M x M array c, by an
    index gather."""
    neg = negate(c.shape[0])
    return float(np.max(np.abs(c - np.conj(c[np.ix_(neg, neg)]))))
