"""Spectral fields, their transforms, the linear operators the solver and
the diagnostics use (the 2x oversampled evaluation included), and
:func:`biot_savart`, the velocity of a vorticity as two fields.  The solver
and the diagnostics never build that velocity: they take every velocity
quantity from omega's spectrum.

Convention: a real field f on [0, 2pi)^2 is represented by coefficients
f_hat[k] with f(x) = sum_k f_hat[k] exp(i k.x), stored as an M x M complex
array in numpy FFT layout.  Parseval then reads
integral |f|^2 dx = (2pi)^2 * sum_k |f_hat[k]|^2.

This full layout is the one every public name takes and returns.  A
SpectralField is real by construction: its constructor rejects
coefficients that are not Hermitian, so the half spectrum of any field is
the whole of it.  This module owns the rfft2 half spectrum
coeffs[:, :M/2+1] and its conversions :func:`_half` and :func:`_field`
(the exact Hermitian mirror): :func:`forward_transform` is the two 1D
passes of an rfft2 and the mirror, the stepper of :mod:`voigt2d.dynamics`
runs on half spectra, and :func:`values_oversampled` writes the half
spectrum's rows into the M/2+1 leading columns of a (2M, M+1) pad, whose
other columns stay zero, and takes the two 1D passes of an irfft2, the
first in place.  The pad and two 2M x 2M value planes form one workspace
per grid size, allocated once and reused; the diagnostics write their
oversampled values into its planes.  Every oversampled evaluation of the
process shares it, so they must not run concurrently in threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, tables

#: relative tolerance for the Hermitian-symmetry (realness) check
SYMMETRY_TOL = 1e-12


class SymmetryError(ValueError):
    """Coefficients are not Hermitian-symmetric: the field is not real."""


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable scalar field in spectral representation.

    ``coeffs`` is a read-only complex128 array of shape (M, M) in FFT
    layout.  A read-only complex128 ndarray that owns its data is kept as it
    is (this module's constructors hand over fresh arrays that way); any
    other input is copied, so writing to the caller's array later leaves the
    field unchanged.  The field is real: the constructor raises
    :class:`SymmetryError` if the coefficients violate Hermitian symmetry
    beyond 1e-12 relative, so every half-spectrum reader may take it as
    whole, and ValueError if any coefficient is not finite.  Fields used
    by the dynamics also have a zero mean mode (coeffs[0, 0] == 0),
    enforced at the generator and integrator boundaries.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = self.coeffs
        if not (
            type(c) is np.ndarray
            and c.dtype == np.complex128
            and c.base is None
            and not c.flags.writeable
        ):
            c = np.array(c, dtype=np.complex128)
            c.setflags(write=False)
        m = self.grid.size
        if c.shape != (m, m):
            raise ValueError(f"coefficient shape {c.shape} does not match grid size {m}")
        scale = float(np.max(np.abs(c)))
        # a non-finite coefficient makes the scale inf or NaN: it fails
        # without the defect, where a conjugate pair of infs would warn
        defect = _hermitian_defect(c) if scale < np.inf else np.nan
        if not defect <= SYMMETRY_TOL * max(1.0, scale):
            if not np.all(np.isfinite(c)):
                raise ValueError("coefficients must be finite")
            raise SymmetryError(
                f"Hermitian symmetry violated (defect {defect:.3e}); field is not real"
            )
        object.__setattr__(self, "coeffs", c)

    # -- difference and scaling -----------------------------------------
    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField") -> None:
        if other.grid != self.grid:
            raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")

    @property
    def mean_coefficient(self) -> complex:
        return complex(self.coeffs[0, 0])


def _hermitian_defect(c: np.ndarray) -> float:
    """Max |c(-k) - conj(c(k))| over all modes of the M x M array c."""
    # c(-k) in FFT layout: index 0 stays, indices 1 .. M-1 reverse
    mirror = np.empty_like(c)
    mirror[0, 0] = c[0, 0]
    mirror[0, 1:] = c[0, :0:-1]
    mirror[1:, 0] = c[:0:-1, 0]
    mirror[1:, 1:] = c[:0:-1, :0:-1]
    np.conjugate(mirror, out=mirror)
    np.subtract(c, mirror, out=mirror)
    return float(np.max(np.abs(mirror)))


# ---------------------------------------------------------------------------
# the half spectrum and the transforms


def _half(f: SpectralField) -> np.ndarray:
    """The half spectrum w of a full-layout field (a view): the columns
    k2 < 0 of a real field are the conjugates of those with k2 > 0."""
    return f.coeffs[:, : f.grid.size // 2 + 1]


def _field(w: np.ndarray) -> SpectralField:
    """The Hermitian SpectralField of half spectrum w.

    Mirrors the columns 0 < k2 < M/2 onto -k2 and symmetrizes the
    self-conjugate columns k2 = 0 and M/2, so the Hermitian defect is 0.
    """
    grid = GridSpec(w.shape[0])
    m, h = grid.size, grid.size // 2
    neg = tables(grid).negate
    c = np.empty((m, m), dtype=np.complex128)
    c[:, : h + 1] = w
    # column -k2 of row k1 is conj(w[-k1, k2]); -k1 reverses rows 1 .. M-1
    np.conjugate(w[0, h - 1 : 0 : -1], out=c[0, h + 1 :])
    np.conjugate(w[:0:-1, h - 1 : 0 : -1], out=c[1:, h + 1 :])
    for j in (0, h):
        c[:, j] = 0.5 * (w[:, j] + np.conj(w[neg, j]))
    c.setflags(write=False)  # fresh and read-only: the field keeps it uncopied
    return SpectralField(grid, c)


def forward_transform(values: np.ndarray, grid: GridSpec) -> SpectralField:
    """Collocation values -> spectral coefficients.

    Input must be real and finite with shape (M, M).  The output is the
    :func:`_field` mirror of the rfft2 half spectrum, taken as rfft2's two 1D
    passes with the second in place, so Hermitian symmetry holds exactly;
    the mean mode keeps its computed (real) value.
    """
    values = np.asarray(values)
    if values.shape != (grid.size, grid.size):
        raise ValueError(
            f"value shape {values.shape} does not match grid size {grid.size}"
        )
    if np.iscomplexobj(values):
        raise ValueError("forward_transform expects a real array")
    if not np.all(np.isfinite(values)):
        raise ValueError("forward_transform expects finite values")
    half = np.fft.rfft(values, axis=1)
    np.fft.fft(half, axis=0, out=half)  # rfft2's two passes, the second in place
    half /= grid.size**2
    return _field(half)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Spectral coefficients -> collocation values (real array)."""
    return np.fft.ifft2(f.coeffs).real * f.grid.size**2


# ---------------------------------------------------------------------------
# linear operators


def helmholtz_filter(f: SpectralField, alpha: float) -> SpectralField:
    """Apply (I - alpha*Laplacian)^{-1}: divide mode k by 1 + alpha|k|^2.

    alpha = 0 is the identity bit-for-bit; negative or non-finite alpha is
    rejected.
    """
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")
    if alpha == 0:
        return f
    return SpectralField(f.grid, f.coeffs / (1.0 + alpha * tables(f.grid).ksq))


def _require_zero_mean(f: SpectralField) -> None:
    """The zero-mean check of every caller that applies -1/|k|^2 to the
    spectrum: :func:`biot_savart` and the velocity diagnostics."""
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    if abs(f.mean_coefficient) > SYMMETRY_TOL * scale:
        raise ValueError(f"field must be zero-mean, mean mode is {f.mean_coefficient}")


def biot_savart(omega: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Velocity (u1, u2) with curl(u) = omega, div(u) = 0, zero mean.

    Requires zero-mean omega.  The stream function psi = -omega/|k|^2
    solves Laplacian(psi) = omega, and u = (-d2 psi, d1 psi) with the d
    tables of :func:`voigt2d.grid.tables`: the unpaired Nyquist mode
    k_axis = M/2 is zeroed, since on an even grid it aliases its own
    conjugate and has no well-defined odd derivative.
    """
    _require_zero_mean(omega)
    g = omega.grid
    t = tables(g)
    psi = -t.inv_ksq * omega.coeffs
    return SpectralField(g, -((1j * t.d2) * psi)), SpectralField(g, (1j * t.d1) * psi)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode with max(|k1|, |k2|) > the grid's dealias cutoff."""
    return SpectralField(f.grid, f.coeffs * tables(f.grid).dealias_mask)


def zero_mean(f: SpectralField) -> SpectralField:
    """Hard-zero the (0, 0) mode."""
    c = f.coeffs.copy()
    c[0, 0] = 0.0
    return SpectralField(f.grid, c)


# ---------------------------------------------------------------------------
# oversampled evaluation


def values_oversampled(f: SpectralField) -> np.ndarray:
    """Evaluate the trigonometric interpolant on the 2M x 2M grid.

    Zero-pads the rfft2 half spectrum to a (2M, M+1) pad and takes the two
    1D passes of an irfft2 with s = (2M, 2M).  Only columns k2 = 0 .. M/2
    hold data, so the complex pass along k1 runs over those M/2+1 columns
    alone.  The unpaired Nyquist mode is split evenly between +M/2 and -M/2
    so the refined field stays real: the k1 = M/2 row is halved at rows M/2
    and 3M/2, the k2 = M/2 column is halved, and the corner gets a quarter
    in each place.  The result is a fresh array the caller owns; the pad is
    the per-process workspace of :func:`_oversampling`, not for concurrent
    threads.
    """
    m = f.grid.size
    return _oversample_half(_half(f), np.empty((2 * m, 2 * m)))


class _Oversampling:
    """The buffers of the 2x oversampled evaluation on one grid size.

    Every call in the process shares them, so oversampled evaluations must
    not run concurrently in threads (parallel sweeps use processes).
    """

    def __init__(self, m: int) -> None:
        #: the (2M, M+1) spectrum the irfft along k2 reads whole; every call
        #: writes its first M/2+1 columns and takes their ifft along k1 in
        #: place, and the columns beyond M/2 stay zero
        self.pad = np.zeros((2 * m, m + 1), dtype=np.complex128)
        #: two 2M x 2M value planes the diagnostics evaluate into
        self.planes = np.empty((2, 2 * m, 2 * m))


@lru_cache(maxsize=8)
def _oversampling(m: int) -> _Oversampling:
    return _Oversampling(m)


def _oversample_half(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`values_oversampled` of the field whose rfft2 half spectrum
    (M, M/2+1) is ``half``, written into the 2M x 2M array ``out`` and
    returned.

    It runs the two passes that numpy's irfft2 runs inside, an ifft along
    k1 in place on the M/2+1 data columns of the pad and an irfft with
    n = 2M along k2 over the whole (2M, M+1) pad into ``out`` (irfft2
    itself drops its ``out=``), so the values are bit for bit those of
    irfft2 and no fresh array is made.  The pad belongs to the per-process
    workspace of :func:`_oversampling`, not for concurrent threads; ``out``
    may be one of its planes.
    """
    m = half.shape[0]
    mf = 2 * m
    h = m // 2
    pad = _oversampling(m).pad
    big = pad[:, : h + 1]
    # rows k1 = 0 .. M/2 (the -M/2 row copied onto +M/2) and -M/2 .. -1;
    # the rows between them held the last call's ifft
    big[: h + 1] = half[: h + 1]
    big[h + 1 : mf - h] = 0.0
    big[mf - h :] = half[h:]
    big[h] *= 0.5
    big[mf - h] *= 0.5
    big[:, h] *= 0.5
    np.fft.ifft(big, axis=0, out=big)
    np.fft.irfft(pad, n=mf, axis=1, out=out)
    out *= mf**2
    return out
