"""Spectral fields, their transforms, and the linear operators the solver
and the diagnostics use (the 2x oversampled evaluation included).

Convention: a real field f on [0, 2pi)^2 is represented by coefficients
f_hat[k] with f(x) = sum_k f_hat[k] exp(i k.x), stored as an M x M complex
array in numpy FFT layout.  Parseval then reads
integral |f|^2 dx = (2pi)^2 * sum_k |f_hat[k]|^2.

This full layout is the one every public name takes and returns.  A
SpectralField is real by construction: its constructor rejects
coefficients that are not Hermitian, so the half spectrum of any field is
the whole of it.  This module owns the rfft2 half spectrum
coeffs[:, :M/2+1] and its conversions :func:`_half` and :func:`_field`
(the exact Hermitian mirror): :func:`forward_transform` is one rfft2 and
the mirror, the stepper of :mod:`voigt2d.dynamics` runs on half spectra,
and :func:`values_oversampled` pads the half spectrum's rows to 2M, shape
(2M, M/2+1), and takes the two 1D passes of an irfft2, which zero-pads the
columns itself.  The row pad, the intermediate of the two passes and two
2M x 2M value planes form one workspace per grid size, allocated once and
reused (only the pad's M+1 data rows are rewritten); the diagnostics write
their oversampled values into its planes.  Every oversampled evaluation of
the process shares it, so they must not run concurrently in threads.
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
    whole.  Fields used by the dynamics also have a zero mean mode
    (coeffs[0, 0] == 0), enforced at the generator and integrator
    boundaries.
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
        defect = _hermitian_defect(c)
        if not defect <= SYMMETRY_TOL * max(1.0, float(np.max(np.abs(c)))):
            raise SymmetryError(
                f"Hermitian symmetry violated (defect {defect:.3e}); field is not real"
            )
        object.__setattr__(self, "coeffs", c)

    # -- difference, negation and scaling -------------------------------
    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

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


@dataclass(frozen=True, eq=False)
class VelocityPair:
    """Divergence-free velocity (u1, u2) as two spectral components."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self) -> None:
        if self.u1.grid != self.u2.grid:
            raise ValueError("velocity components live on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.u1.grid


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
    :func:`_field` mirror of the rfft2 half spectrum, so Hermitian symmetry
    holds exactly; the mean mode keeps its computed (real) value.
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
    half = np.fft.rfft2(values)
    half /= grid.size**2
    return _field(half)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Spectral coefficients -> collocation values (real array)."""
    return np.fft.ifft2(f.coeffs).real * f.grid.size**2


# ---------------------------------------------------------------------------
# linear operators


def derivative(f: SpectralField, axis: int) -> SpectralField:
    """Partial derivative along axis 1 or 2 (multiplication by i*k_axis).

    The unpaired Nyquist mode k_axis = M/2 is zeroed: on an even grid it
    aliases its own conjugate and has no well-defined odd derivative.
    """
    t = tables(f.grid)
    if axis == 1:
        d = t.d1
    elif axis == 2:
        d = t.d2
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return SpectralField(f.grid, (1j * d) * f.coeffs)


def helmholtz_filter(f: SpectralField, alpha: float) -> SpectralField:
    """Apply (I - alpha*Laplacian)^{-1}: divide mode k by 1 + alpha|k|^2.

    alpha = 0 is the identity bit-for-bit; negative alpha is rejected.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return f
    return SpectralField(f.grid, f.coeffs / (1.0 + alpha * tables(f.grid).ksq))


def _require_zero_mean(f: SpectralField) -> None:
    """The zero-mean check of :func:`inverse_laplacian`, for callers that
    apply -1/|k|^2 to a part of the spectrum themselves."""
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    if abs(f.mean_coefficient) > SYMMETRY_TOL * scale:
        raise ValueError(f"field must be zero-mean, mean mode is {f.mean_coefficient}")


def inverse_laplacian(f: SpectralField) -> SpectralField:
    """Zero-mean solution of Laplacian(g) = f; requires zero-mean input."""
    _require_zero_mean(f)
    t = tables(f.grid)
    out = -t.inv_ksq * f.coeffs
    return SpectralField(f.grid, out)


def biot_savart(omega: SpectralField) -> VelocityPair:
    """Velocity with curl(u) = omega, div(u) = 0, zero mean.

    Solves Laplacian(psi) = omega and returns u = (-d2 psi, d1 psi).
    """
    psi = inverse_laplacian(omega)
    return VelocityPair(-derivative(psi, 2), derivative(psi, 1))


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

    Zero-pads the rows of the rfft2 half spectrum to 2M, giving shape
    (2M, M/2+1), and takes the two 1D passes of an irfft2 with
    s = (2M, 2M).  Only columns k2 = 0 .. M/2 hold data, and the irfft
    along k2 zero-pads them to M+1 columns itself, so the complex pass runs
    over half the columns of a (2M, M+1) pad.  The unpaired Nyquist mode is
    split evenly between +M/2 and -M/2 so the refined field stays real: the
    k1 = M/2 row is halved at rows M/2 and 3M/2, the k2 = M/2 column is
    halved, and the corner gets a quarter in each place.  The result is a
    fresh array the caller owns; the pad and the intermediate are the
    per-process workspace of :func:`_oversampling`, not for concurrent
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
        #: the (2M, M/2+1) row pad; every call rewrites its M+1 data rows,
        #: and the rows M/2+1 .. 3M/2-1 between them stay zero (only the
        #: halving of column M/2 touches them)
        self.pad = np.zeros((2 * m, m // 2 + 1), dtype=np.complex128)
        #: the pad after the complex pass along k1
        self.rows = np.empty_like(self.pad)
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
    k1 and an irfft with n = 2M along k2, each with ``out=`` (irfft2 itself
    drops its ``out=``), so the values are bit for bit those of irfft2 and
    no fresh array is made.  The pad and
    the intermediate belong to the per-process workspace of
    :func:`_oversampling`, not for concurrent threads; ``out`` may be one
    of its planes.
    """
    m = half.shape[0]
    mf = 2 * m
    h = m // 2
    ws = _oversampling(m)
    big = ws.pad
    # rows k1 = 0 .. M/2 (the -M/2 row copied onto +M/2) and -M/2 .. -1
    big[: h + 1] = half[: h + 1]
    big[mf - h :] = half[h:]
    big[h] *= 0.5
    big[mf - h] *= 0.5
    big[:, h] *= 0.5
    np.fft.ifft(big, axis=0, out=ws.rows)
    np.fft.irfft(ws.rows, n=mf, axis=1, out=out)
    out *= mf**2
    return out
