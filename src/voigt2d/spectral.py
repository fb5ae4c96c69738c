"""Spectral fields, their transforms, the linear operators the solver and
the diagnostics use (the 2x oversampled evaluation included), and
:func:`biot_savart`, the velocity of a vorticity as two fields.  The solver
and the diagnostics never build that velocity: they take every velocity
quantity from omega's spectrum.

Convention: a real field f on [0, 2pi)^2 is represented by coefficients
f_hat[k] with f(x) = sum_k f_hat[k] exp(i k.x), in numpy FFT layout.
Parseval then reads integral |f|^2 dx = (2pi)^2 * sum_k |f_hat[k]|^2.

A SpectralField stores only the rfft2 half spectrum ``half`` =
f_hat[:, :M/2+1], an (M, M/2+1) array: the columns k2 < 0 of a real field
are the conjugates of those with k2 > 0.  The M x M full layout is the one
the public constructor takes and :attr:`SpectralField.coeffs` returns,
mirrored on demand by :func:`_mirror`, the module's one map k -> -k of
the full layout; the constructor rejects coefficients that are not
Hermitian, comparing their columns k2 < 0 with that mirror of their half
and the self-conjugate columns k2 = 0 and M/2 with their own row reversal,
so the half spectrum of any field is the whole of it.  Every
operator here, :func:`forward_transform` (the two 1D passes of an rfft2),
the stepper of :mod:`voigt2d.dynamics` and the quadratic norms of
:mod:`voigt2d.diagnostics` run on half spectra (the stepper on their
leading floor(M/3)+1 columns, its live block); :func:`_field` is the
private constructor from a copy of either; the wave-number tables of
:func:`voigt2d.grid.tables` cover the same (M, M/2+1) layout.
:func:`values_oversampled` writes the half spectrum's rows into a
(2M, M/2+1) pad and takes the two unnormalized 1D passes of an irfft2, the
first in place; the second reads the pad a row block at a time through a
buffer of M+1 columns whose columns beyond M/2 stay zero.  The pad, that
buffer, one 2M x 2M value plane and a buffer of 2 min(64, M) rows of 2M
values form one workspace per grid size, allocated once and reused.  The
plane is scratch for the diagnostics' oversampled values, and the second
pass may run in row blocks into the buffer.  Every oversampled evaluation
of the process shares it, so they must not run concurrently in threads;
:func:`inverse_transform` and the quadratic norms never use it.
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


@dataclass(frozen=True, eq=False, init=False)
class SpectralField:
    """Immutable real scalar field in spectral representation.

    ``SpectralField(grid, coeffs)`` takes the M x M coefficients in FFT
    layout.  It raises :class:`SymmetryError` if they violate Hermitian
    symmetry beyond 1e-12 relative, and ValueError if any is not finite,
    and keeps a copy of their half spectrum, so writing to the caller's
    array later leaves the field unchanged.  The defect is the largest
    |c(-k) - conj c(k)| over all modes: the columns k2 < 0 are compared
    with the :func:`_mirror` of the half, and the self-conjugate columns
    with their rows reversed.  Full-layout input that is Hermitian within
    the 1e-12 tolerance, but not exactly, is read back as its mirrored
    half: the columns 0 < k2 < M/2 as given, their conjugates at -k2, and
    the self-conjugate columns k2 = 0 and M/2 symmetrized.

    ``half`` is the read-only complex128 (M, M/2+1) half spectrum, the
    field's only storage; ``coeffs`` is its exactly Hermitian M x M mirror,
    a fresh read-only array built on each access.  The private constructor
    ``SpectralField(grid, half, _half=True)`` takes over a fresh half
    spectrum: it checks the two self-conjugate columns alone, with the same
    errors, and symmetrizes them in place.  Fields used by the dynamics
    also have a zero mean mode (coeffs[0, 0] == 0), enforced at the
    generator and integrator boundaries.
    """

    grid: GridSpec
    half: np.ndarray

    def __init__(self, grid: GridSpec, coeffs: np.ndarray, *, _half: bool = False) -> None:
        m = grid.size
        h = m // 2
        if _half:
            w = c = coeffs
            if w.shape != (m, h + 1):
                raise ValueError(f"half spectrum shape {w.shape} does not match grid {m}")
        else:
            c = np.asarray(coeffs, dtype=np.complex128)
            if c.shape != (m, m):
                raise ValueError(
                    f"coefficient shape {c.shape} does not match grid size {m}"
                )
            w = np.array(c[:, : h + 1])
        scale = float(np.max(np.abs(c)))
        # the self-conjugate columns k2 = 0 and M/2, and at each k1 the
        # conjugate of their value at -k1: row 0 stays, rows 1 .. M-1 reverse
        cols = w[:, ::h]
        flip = np.conjugate(np.concatenate([cols[:1], cols[:0:-1]]))
        # a non-finite coefficient makes the scale inf or NaN: it fails
        # without the defect, where a conjugate pair of infs would warn
        defect = np.nan
        if scale < np.inf:
            defect = float(np.max(np.abs(cols - flip)))
            if not _half:
                # the columns -k2 against the mirror of the half; each pair
                # of modes across the two halves gives the same |a - conj b|
                # from either side, so this is the defect over all modes
                tail = _mirror(w, np.empty((m, m), dtype=np.complex128))[:, h + 1 :]
                np.subtract(c[:, h + 1 :], tail, out=tail)
                defect = max(defect, float(np.max(np.abs(tail))))
        if not defect <= SYMMETRY_TOL * max(1.0, scale):
            if not np.all(np.isfinite(c)):
                raise ValueError("coefficients must be finite")
            raise SymmetryError(
                f"Hermitian symmetry violated (defect {defect:.3e}); field is not real"
            )
        cols[...] = 0.5 * (cols + flip)  # now exactly Hermitian
        w.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "half", w)

    @property
    def coeffs(self) -> np.ndarray:
        """The M x M coefficients in FFT layout, mirrored from ``half``."""
        m = self.grid.size
        c = _mirror(self.half, np.empty((m, m), dtype=np.complex128))
        c.setflags(write=False)
        return c

    def __reduce__(self):
        # pickle (the sweep's process pool) rebuilds the field through the
        # private constructor, so it arrives checked and read-only again
        return (_field, (self.half,))

    # -- difference and scaling -----------------------------------------
    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.half - other.half, _half=True)

    def __mul__(self, scalar: float) -> "SpectralField":
        # the half spectrum cannot show that i f is not real where f's
        # self-conjugate columns vanish, so a non-real scalar fails here
        if complex(scalar).imag != 0.0:
            raise SymmetryError(f"a real field times {scalar} is not real")
        return SpectralField(self.grid, self.half * scalar, _half=True)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField") -> None:
        if other.grid != self.grid:
            raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")

    @property
    def mean_coefficient(self) -> complex:
        return complex(self.half[0, 0])


def _mirror(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The M x M coefficients in FFT layout of the (M, M/2+1) half spectrum
    w, written into the complex (M, M) array ``out`` and returned."""
    h = w.shape[1] - 1
    out[:, : h + 1] = w
    # column -k2 of row k1 is conj(w[-k1, k2]); -k1 reverses rows 1 .. M-1
    np.conjugate(w[0, h - 1 : 0 : -1], out=out[0, h + 1 :])
    np.conjugate(w[:0:-1, h - 1 : 0 : -1], out=out[1:, h + 1 :])
    return out


# ---------------------------------------------------------------------------
# the half spectrum and the transforms


def _field(w: np.ndarray) -> SpectralField:
    """The SpectralField whose half spectrum is zero but for its leading
    columns, a copy of w: w is either a whole (M, M/2+1) half spectrum or
    the stepper's live block, its first floor(M/3)+1 columns (see
    :func:`voigt2d.dynamics.rhs`).  Callers go on using w."""
    m = w.shape[0]
    half = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    half[:, : w.shape[1]] = w
    return SpectralField(GridSpec(m), half, _half=True)


def forward_transform(values: np.ndarray, grid: GridSpec) -> SpectralField:
    """Collocation values -> spectral coefficients.

    Input must be real and finite with shape (M, M).  The field keeps the
    rfft2 half spectrum, taken as rfft2's two 1D passes with the second in
    place, and its self-conjugate columns are symmetrized, so Hermitian
    symmetry holds exactly; the mean mode keeps its computed (real) value.
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
    return SpectralField(grid, half, _half=True)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Spectral coefficients -> collocation values (a fresh real array):
    ``np.fft.ifft2`` of the full-layout :attr:`SpectralField.coeffs`."""
    return np.fft.ifft2(f.coeffs).real * f.grid.size**2


# ---------------------------------------------------------------------------
# linear operators


def helmholtz_filter(f: SpectralField, alpha: float) -> SpectralField:
    """Apply (I - alpha*Laplacian)^{-1}: divide mode k by 1 + alpha|k|^2.

    alpha = 0 is the identity bit-for-bit; the symbol of the grid's tables
    rejects negative or non-finite alpha.
    """
    if alpha == 0:
        return f
    return SpectralField(f.grid, f.half / tables(f.grid).voigt(alpha), _half=True)


def _require_zero_mean(f: SpectralField) -> None:
    """The zero-mean check of every caller that applies -1/|k|^2 to the
    spectrum: :func:`biot_savart` and the velocity diagnostics.  The scale
    is that of the full layout, since |conj z| = |z|; it is at least 1, so
    a mean mode within SYMMETRY_TOL passes without it."""
    mean = abs(f.mean_coefficient)
    if mean > SYMMETRY_TOL and mean > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(f.half)))):
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
    psi = -t.inv_ksq * omega.half
    u1 = -((1j * t.d2) * psi)
    u2 = (1j * t.d1) * psi
    return SpectralField(g, u1, _half=True), SpectralField(g, u2, _half=True)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode with max(|k1|, |k2|) > the grid's dealias cutoff."""
    return SpectralField(f.grid, f.half * tables(f.grid).dealias_mask, _half=True)


def zero_mean(f: SpectralField) -> SpectralField:
    """Hard-zero the (0, 0) mode."""
    w = f.half.copy()
    w[0, 0] = 0.0
    return SpectralField(f.grid, w, _half=True)


# ---------------------------------------------------------------------------
# oversampled evaluation


def values_oversampled(f: SpectralField) -> np.ndarray:
    """Evaluate the trigonometric interpolant on the 2M x 2M grid.

    Zero-pads the rfft2 half spectrum to 2M rows and takes the two 1D
    passes of an irfft2 with s = (2M, 2M).  Only columns k2 = 0 .. M/2
    hold data, so the complex pass along k1 runs over those M/2+1 columns
    alone, and the pass along k2 reads them zero-extended to M+1.  The
    unpaired Nyquist mode is split evenly between +M/2 and -M/2 so the
    refined field stays real: the k1 = M/2 row is halved at rows M/2 and
    3M/2, the k2 = M/2 column is halved, and the corner gets a quarter in
    each place.  The result is a fresh array the caller owns; the pad is
    the per-process workspace of :func:`_oversampling`, not for concurrent
    threads.
    """
    m = f.grid.size
    return _oversample_half(f.half, np.empty((2 * m, 2 * m)))


class _Oversampling:
    """The buffers of the 2x oversampled evaluation on one grid size.

    An evaluation writes a half spectrum, or a multiple of one, into the
    pad's data rows ``data``, then runs :meth:`k1_pass` and
    :meth:`k2_pass`.  The plane is scratch for the diagnostics' oversampled
    values, and each reader writes all it reads first.  Every
    call in the process shares the buffers, so oversampled evaluations must
    not run concurrently in threads (parallel sweeps use processes).
    """

    def __init__(self, m: int) -> None:
        h, mf = m // 2, 2 * m
        rows = 2 * min(64, m)
        #: the (2M, M/2+1) data columns of the spectrum along k2; every
        #: call writes its data rows and takes their ifft along k1 in place
        self.pad = np.zeros((mf, h + 1), dtype=np.complex128)
        #: the data rows of the pad, each with the rows of a half spectrum
        #: it takes: k1 = 0 .. M/2 (the -M/2 row copied onto +M/2) and
        #: -M/2 .. -1
        self.data = (
            (slice(None, h + 1), self.pad[: h + 1]),
            (slice(h, None), self.pad[mf - h :]),
        )
        #: the one 2M x 2M value plane of the diagnostics' oversampled values
        self.plane = np.empty((mf, mf))
        #: 2 min(64, M) rows of 2M values: the L^p quadrature's two row
        #: blocks, and the output blocks of a row-blocked k2 pass
        self.block = np.empty((rows, mf))
        #: 2 min(64, M) rows of the (2M, M+1) spectrum the irfft along k2
        #: reads: each pass copies pad rows into its first M/2+1 columns,
        #: and the columns beyond M/2 stay zero
        self.wide = np.zeros((rows, m + 1), dtype=np.complex128)

    def k1_pass(self) -> None:
        """Split the Nyquist modes of the data rows and take the ifft along
        k1, in place on the pad.

        The rows between the data rows, which held the last call's ifft,
        are zeroed first.
        """
        pad = self.pad
        mf, h = pad.shape[0], pad.shape[1] - 1
        pad[h + 1 : mf - h] = 0.0
        pad[h] *= 0.5
        pad[mf - h] *= 0.5
        pad[:, h] *= 0.5
        np.fft.ifft(pad, axis=0, out=pad, norm="forward")

    def k2_pass(self, out: np.ndarray, start: int = 0) -> np.ndarray:
        """The irfft with n = 2M along k2 of the pad rows from ``start`` on,
        as many as ``out`` has, into ``out``, which is returned.

        The rows go through ``wide`` a block at a time: numpy's irfft of
        the pad's M/2+1 columns alone, zero-extended inside, runs slower
        than one of M+1 columns.
        """
        mf, cols = self.pad.shape[0], self.pad.shape[1]
        n = self.wide.shape[0]
        for s in range(0, out.shape[0], n):
            dst = out[s : s + n]
            src = self.wide[: dst.shape[0]]
            src[:, :cols] = self.pad[start + s : start + s + dst.shape[0]]
            np.fft.irfft(src, n=mf, axis=1, out=dst, norm="forward")
        return out


@lru_cache(maxsize=8)
def _oversampling(m: int) -> _Oversampling:
    return _Oversampling(m)


def _oversample_half(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`values_oversampled` of the field whose rfft2 half spectrum
    (M, M/2+1) is ``half``, written into the 2M x 2M array ``out`` and
    returned.

    It copies ``half`` into the pad's data rows and runs the two passes
    that numpy's irfft2 runs inside, an ifft along k1 in place on the
    (2M, M/2+1) pad and an irfft with n = 2M along k2 into ``out`` (irfft2
    itself drops its ``out=``), which reads the pad's rows a block at a
    time through the workspace's M+1 wide buffer whose columns beyond M/2
    are zero, and no fresh array is made.  Both passes take norm="forward",
    which leaves the sums unscaled, so the (2M)^2 that undoes irfft2's
    default 1/(2M)^2 costs no pass over ``out``: the values are bit for bit
    those of irfft2 with norm="forward".  For a power-of-two M the scale is a
    power of two, which commutes with every rounding, so they are also bit
    for bit those of irfft2 times (2M)^2; for other M they may differ from
    those in the last bit.  The pad belongs to the per-process workspace of
    :func:`_oversampling`, not for concurrent threads; ``out`` may be its
    plane.
    """
    m = half.shape[0]
    ws = _oversampling(m)
    for rows, data in ws.data:
        data[...] = half[rows]
    ws.k1_pass()
    return ws.k2_pass(out)
