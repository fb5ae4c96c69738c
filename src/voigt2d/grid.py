"""Uniform periodic grids on [0, 2pi)^2 and their Fourier index tables.

:func:`tables` is the one owner of every per-grid array over the half
spectrum: the wave-numbers, the derivative, inverse-Laplacian and dealias
factors, and the weights of the quadratic norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """M x M collocation grid on the 2pi-periodic square.

    Arrays over the grid are indexed ``[i1, i2]`` with ``x1 = 2pi*i1/M``,
    ``x2 = 2pi*i2/M``.  Spectral arrays use the numpy FFT layout along both
    axes with integer wave-numbers k_i in {-M/2+1, ..., M/2}.

    Parameters
    ----------
    size : int
        Points per axis; must be even and at least 8.
    """

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {self.size!r}")
        if self.size < 8 or self.size % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.size}")

    @property
    def dealias_cutoff(self) -> int:
        """Largest |k_i| kept by :func:`voigt2d.spectral.dealias`: floor(M/3),
        Orszag's two-thirds rule for a quadratic nonlinearity."""
        return self.size // 3

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2pi/M."""
        return TWO_PI / self.size

    def nodes(self) -> np.ndarray:
        """1D array of collocation coordinates along one axis."""
        return np.arange(self.size) * self.spacing

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X1, X2) coordinate arrays indexed [i1, i2]."""
        x = self.nodes()
        return np.meshgrid(x, x, indexing="ij")


class _Tables:
    """Precomputed wave-number arrays shared by all fields on one grid.

    Every array covers the (M, M/2+1) rfft2 half spectrum that a
    SpectralField stores: rows k1 in FFT layout, columns k2 = 0 .. M/2-1
    and then -M/2, the layout's value for the unpaired column M/2.  All are
    read-only.  ``k1``/``k2`` are the raw integer wave-numbers; ``d1``/``d2``
    are the derivative factors with the unpaired Nyquist mode k_j = M/2
    zeroed (it carries no usable phase information for odd derivatives on
    an even grid).  These four are broadcast views of one 1D vector each,
    so they hold no memory of their own; ``ksq``, ``inv_ksq`` and
    ``dealias_mask`` are outer sums or products of two such vectors.

    The rest are the weights of the quadratic norms of
    :mod:`voigt2d.diagnostics`.  A sum over the M x M spectrum of a real
    field is the sum over its half spectrum with weight ``fold``, a vector
    over k2: 2 on the columns 0 < k2 < M/2, which stand for their
    conjugates at -k2 as well, and 1 on the self-conjugate columns k2 = 0
    and M/2.  ``grad`` is the folded |k|^2 and ``velocity`` the folded
    (d1^2 + d2^2) / |k|^4: |u1_hat|^2 + |u2_hat|^2 =
    (d1^2 + d2^2) / |k|^4 * |omega_hat|^2 for u = biot_savart(omega).
    """

    def __init__(self, grid: GridSpec) -> None:
        m = grid.size
        h = m // 2 + 1
        k = np.fft.fftfreq(m, d=1.0 / m)  # [0, 1, ..., M/2-1, -M/2, ..., -1]
        self.k1 = np.broadcast_to(k[:, None], (m, h))
        self.k2 = np.broadcast_to(k[None, :h], (m, h))
        self.ksq = np.add.outer(k**2, k[:h] ** 2)
        d = k.copy()
        d[m // 2] = 0.0
        self.d1 = np.broadcast_to(d[:, None], (m, h))
        self.d2 = np.broadcast_to(d[None, :h], (m, h))
        with np.errstate(divide="ignore"):
            inv = 1.0 / self.ksq
        inv[0, 0] = 0.0
        self.inv_ksq = inv
        keep = np.abs(k) <= grid.dealias_cutoff
        self.dealias_mask = np.logical_and.outer(keep, keep[:h])
        fold = np.full(h, 2.0)
        fold[0] = fold[-1] = 1.0
        self.fold = fold
        self.grad = fold * self.ksq
        # d1^2 + d2^2 from the d vector, folded and divided in place
        velocity = np.add.outer(d**2, d[:h] ** 2)
        velocity *= fold
        velocity *= inv * inv
        self.velocity = velocity
        for arr in (self.ksq, inv, self.dealias_mask, fold, self.grad, velocity):
            arr.setflags(write=False)


@lru_cache(maxsize=64)
def tables(grid: GridSpec) -> _Tables:
    """Cached wave-number tables for a grid."""
    return _Tables(grid)
