"""Transforms, calculus operators, and the Biot-Savart reconstruction."""

import numpy as np
import pytest

from voigt2d import (
    TWO_PI,
    GridSpec,
    SpectralField,
    SymmetryError,
    biot_savart,
    dealias,
    derivative,
    forward_transform,
    helmholtz_filter,
    inverse_laplacian,
    inverse_transform,
    values_oversampled,
    zero_mean,
)
from voigt2d.grid import tables
from voigt2d.spectral import _field, _half, _hermitian_defect, _oversample_half
from voigt2d.initial_data import (
    galerkin_truncate,
    make_eigenfunction,
    make_random_sobolev,
    make_taylor_family,
    make_yudovich_patch,
)


def divergence(u) -> np.ndarray:
    """Test oracle: coefficients of d1 u1 + d2 u2."""
    t = tables(u.grid)
    return 1j * t.d1 * u.u1.coeffs + 1j * t.d2 * u.u2.coeffs


def grid32() -> GridSpec:
    return GridSpec(32)


def cos_x1(grid: GridSpec) -> SpectralField:
    x1, _ = grid.meshgrid()
    return forward_transform(np.cos(x1), grid)


def seeded(grid: GridSpec, seed: int = 0) -> SpectralField:
    return make_random_sobolev(grid, sigma=2.0, seed=seed, band=grid.dealias_cutoff)


class TestGridSpec:
    def test_default_cutoff_is_third(self):
        assert GridSpec(32).dealias_cutoff == 10
        assert GridSpec(128).dealias_cutoff == 42
        assert GridSpec(256).dealias_cutoff == 85

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(33)

    def test_tiny_size_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(4)

    def test_nodes_and_spacing(self):
        g = GridSpec(16)
        assert g.spacing == pytest.approx(TWO_PI / 16)
        nodes = g.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(TWO_PI - g.spacing)

    def test_tables_nyquist_zeroed_in_derivative_factors(self):
        g = GridSpec(16)
        t = tables(g)
        assert t.d1[8, 0] == 0.0
        assert t.d2[0, 8] == 0.0
        assert t.d1[1, 0] == 1.0
        assert t.k1[8, 0] == -8.0  # wavenumber itself keeps the Nyquist value

    def test_tables_read_only(self):
        t = tables(GridSpec(16))
        with pytest.raises(ValueError):
            t.ksq[0, 0] = 1.0

    @pytest.mark.parametrize("m", [8, 16, 64])
    def test_wave_number_tables_are_read_only_views(self, m):
        # k1, k2, d1, d2 are broadcasts of one vector each, equal to the
        # full M x M arrays they replace
        t = tables(GridSpec(m))
        k = np.fft.fftfreq(m, d=1.0 / m)
        d = k.copy()
        d[m // 2] = 0.0
        full = {
            "k1": k[:, None] * np.ones((1, m)), "k2": np.ones((m, 1)) * k[None, :],
            "d1": d[:, None] * np.ones((1, m)), "d2": np.ones((m, 1)) * d[None, :],
        }
        for name, want in full.items():
            view = getattr(t, name)
            assert view.shape == (m, m) and view.dtype == np.float64, name
            assert np.array_equal(view, want), name
            assert 0 in view.strides, name  # no M x M memory of its own
            assert not view.flags.writeable, name
            with pytest.raises(ValueError):
                view[1, 1] = 7.0
        assert np.array_equal(t.ksq, full["k1"] ** 2 + full["k2"] ** 2)


class TestTransforms:
    def test_roundtrip(self):
        g = grid32()
        rng = np.random.default_rng(1)
        values = rng.standard_normal((32, 32))
        back = inverse_transform(forward_transform(values, g))
        assert np.max(np.abs(back - values)) < 1e-13

    def test_cosine_coefficients_exact(self):
        f = cos_x1(grid32())
        assert f.coeffs[1, 0] == pytest.approx(0.5, abs=1e-15)
        assert f.coeffs[-1 % 32, 0] == pytest.approx(0.5, abs=1e-15)
        others = f.coeffs.copy()
        others[1, 0] = others[-1 % 32, 0] = 0.0
        assert np.max(np.abs(others)) < 1e-15

    def test_parseval(self):
        g = grid32()
        f = seeded(g)
        values = inverse_transform(f)
        quad = np.sum(values**2) * g.spacing**2
        spectral = TWO_PI**2 * np.sum(np.abs(f.coeffs) ** 2)
        assert quad == pytest.approx(spectral, rel=1e-13)

    def test_forward_rejects_complex_and_nonfinite(self):
        g = grid32()
        with pytest.raises(ValueError):
            forward_transform(np.ones((32, 32), dtype=complex), g)
        bad = np.ones((32, 32))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            forward_transform(bad, g)

    def test_forward_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward_transform(np.ones((16, 16)), grid32())

    def test_hermitian_symmetry_exact(self):
        f = seeded(grid32(), seed=3)
        assert _hermitian_defect(f.coeffs) == 0.0

    @pytest.mark.parametrize("m", [8, 32, 64])
    def test_forward_matches_full_fft_reference(self, m):
        # reference: the complex fft2, symmetrized by a gather of -k
        g = GridSpec(m)
        values = np.random.default_rng(m).standard_normal((m, m)) + 0.3
        c = np.fft.fft2(values) / m**2
        neg = tables(g).negate
        want = 0.5 * (c + np.conj(c[np.ix_(neg, neg)]))
        f = forward_transform(values, g)
        assert np.max(np.abs(f.coeffs - want)) <= 1e-15 * np.max(np.abs(want))
        assert _hermitian_defect(f.coeffs) == 0.0
        assert f.mean_coefficient.imag == 0.0
        assert f.mean_coefficient.real == pytest.approx(values.mean(), rel=1e-14)

    def test_inverse_rejects_asymmetric(self):
        g = grid32()
        c = np.zeros((32, 32), dtype=complex)
        c[1, 0] = 1.0  # no conjugate partner
        with pytest.raises(SymmetryError):
            inverse_transform(SpectralField(g, c))

    def test_field_arithmetic(self):
        g = grid32()
        f = seeded(g, 1)
        h = seeded(g, 2)
        assert np.allclose((f - h).coeffs, f.coeffs - h.coeffs)
        assert np.allclose((2.0 * f).coeffs, (f * 2.0).coeffs)
        assert np.allclose((-f).coeffs, -f.coeffs)

    def test_coeffs_frozen(self):
        f = seeded(grid32())
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0

    def test_constructor_does_not_freeze_callers_array(self):
        g = grid32()
        c = np.zeros((32, 32), dtype=complex)
        f = SpectralField(g, c)
        c[0, 0] = 5.0  # caller's buffer must stay writable
        assert f.coeffs[0, 0] == 0.0  # and writing it leaves the field unchanged
        assert not np.shares_memory(f.coeffs, c)

    def test_field_does_not_alias_half_spectrum(self):
        g = grid32()
        w = seeded(g, 5).coeffs[:, :17].copy()
        f = _field(w)
        assert not np.shares_memory(f.coeffs, w)
        assert not f.coeffs.flags.writeable
        w[3, 4] = 9.0
        assert f.coeffs[3, 4] != 9.0

    @pytest.mark.parametrize("m", [8, 16, 64])
    def test_hermitian_defect_matches_gather_oracle(self, m):
        g = GridSpec(m)
        rng = np.random.default_rng(m + 3)
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        neg = tables(g).negate
        want = float(np.max(np.abs(c - np.conj(c[np.ix_(neg, neg)]))))
        assert want > 0.0
        assert _hermitian_defect(c) == want
        assert _hermitian_defect(_field(c[:, : m // 2 + 1]).coeffs) == 0.0

    def test_float_input_becomes_complex_copy(self):
        g = grid32()
        c = np.zeros((32, 32))
        c[1, 0] = c[-1, 0] = 0.5
        f = SpectralField(g, c)
        assert f.coeffs.dtype == np.complex128
        c[1, 0] = 7.0  # writing to the source leaves the field unchanged
        assert f.coeffs[1, 0] == 0.5
        assert not f.coeffs.flags.writeable


def unpaired_modes() -> SpectralField:
    c = np.zeros((16, 16), dtype=complex)
    c[1, 2] = c[2, 1] = 1.0  # two modes without conjugate partners
    return SpectralField(GridSpec(16), c)


def complex_mean() -> SpectralField:
    c = np.zeros((16, 16), dtype=complex)
    c[0, 0] = 0.5 + 0.5j
    return SpectralField(GridSpec(16), c)


class TestRealness:
    # every reader of the half spectrum would silently take the Hermitian
    # part of a non-real field, so none may be constructed
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(unpaired_modes, id="unpaired_modes"),
            pytest.param(complex_mean, id="complex_mean"),
            pytest.param(lambda: seeded(grid32(), 9) * 1j, id="times_1j"),
        ],
    )
    def test_constructor_rejects_non_real(self, make):
        with pytest.raises(SymmetryError, match="not real"):
            make()

    @pytest.mark.parametrize("m", [16, 64])
    def test_every_field_made_is_exactly_hermitian(self, m):
        # the constructor's check must never reject a field the package made
        g = GridSpec(m)
        rng = np.random.default_rng(m + 11)
        made = forward_transform(rng.standard_normal((m, m)) + 0.3, g)
        f = zero_mean(made)
        h = m // 2
        assert np.all(f.coeffs[h, :] != 0) and np.all(f.coeffs[:, h] != 0)
        u = biot_savart(f)
        fields = [
            made,
            f,
            dealias(f),
            helmholtz_filter(f, 0.1),
            derivative(f, 1),
            derivative(f, 2),
            inverse_laplacian(f),
            u.u1,
            u.u2,
            galerkin_truncate(f, m // 3),
            f * 2.5,
            0.3 * f,
            f - seeded(g, 1),
            -f,
            make_eigenfunction(g, (1, 2), 1.5),
            make_random_sobolev(g, sigma=2.0, seed=m, band=g.dealias_cutoff),
            make_yudovich_patch(g, radius=1.0, seed=m),
            make_taylor_family(g, mode=2, perturbation=0.1),
        ]
        assert [_hermitian_defect(x.coeffs) for x in fields] == [0.0] * len(fields)


class TestCalculus:
    def test_derivative_of_cosine(self):
        g = grid32()
        f = cos_x1(g)
        d1 = inverse_transform(derivative(f, 1))
        x1, _ = g.meshgrid()
        assert np.max(np.abs(d1 + np.sin(x1))) < 1e-13
        d2 = derivative(f, 2)
        assert np.max(np.abs(d2.coeffs)) == 0.0

    def test_derivative_axis_validation(self):
        with pytest.raises(ValueError):
            derivative(cos_x1(grid32()), 3)

    def test_inverse_laplacian_inverts(self):
        g = grid32()
        f = zero_mean(seeded(g, 4))
        back = -tables(g).ksq * inverse_laplacian(f).coeffs  # the Laplacian
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_inverse_laplacian_rejects_nonzero_mean(self):
        g = grid32()
        c = np.zeros((32, 32), dtype=complex)
        c[0, 0] = 1.0
        with pytest.raises(ValueError):
            inverse_laplacian(SpectralField(g, c))

    def test_helmholtz_filter_matches_direct_division(self):
        g = grid32()
        f = seeded(g, 5)
        alpha = 0.37
        k = np.fft.fftfreq(32, 1.0 / 32)
        ksq = k[:, None] ** 2 + k[None, :] ** 2
        expected = f.coeffs / (1.0 + alpha * ksq)
        got = helmholtz_filter(f, alpha)
        assert np.max(np.abs(got.coeffs - expected)) < 1e-15

    def test_helmholtz_alpha_zero_identity(self):
        f = seeded(grid32(), 6)
        assert np.array_equal(helmholtz_filter(f, 0.0).coeffs, f.coeffs)

    def test_helmholtz_negative_alpha_rejected(self):
        for alpha in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                helmholtz_filter(cos_x1(grid32()), alpha)

    def test_dealias_zeroes_high_modes(self):
        g = grid32()
        c = np.zeros((32, 32), dtype=complex)
        c[11, 0] = 1.0
        c[-11 % 32, 0] = 1.0
        f = SpectralField(g, c)
        assert np.max(np.abs(dealias(f).coeffs)) == 0.0
        low_c = np.zeros((32, 32), dtype=complex)
        low_c[1, 0] = low_c[-1 % 32, 0] = 0.5
        low = SpectralField(g, low_c)
        assert np.array_equal(dealias(low).coeffs, low.coeffs)

    def test_zero_mean(self):
        g = grid32()
        c = np.ones((1, 1)) * np.zeros((32, 32), dtype=complex)
        c[0, 0] = 3.0
        f = SpectralField(g, c)
        assert zero_mean(f).mean_coefficient == 0.0


class TestBiotSavart:
    def test_single_mode_velocity(self):
        # omega = cos(x1) -> psi = -cos(x1), u = (0, sin(x1))
        g = grid32()
        u = biot_savart(cos_x1(g))
        x1, _ = g.meshgrid()
        u1 = inverse_transform(u.u1)
        u2 = inverse_transform(u.u2)
        assert np.max(np.abs(u1)) < 1e-14
        assert np.max(np.abs(u2 - np.sin(x1))) < 1e-13

    def test_divergence_free(self):
        u = biot_savart(seeded(grid32(), 7))
        assert TWO_PI * np.linalg.norm(divergence(u)) < 1e-13  # L2 norm of div u

    def test_curl_recovers_vorticity(self):
        g = grid32()
        f = zero_mean(seeded(g, 8))
        u = biot_savart(f)
        t = tables(g)
        w = 1j * t.d1 * u.u2.coeffs - 1j * t.d2 * u.u1.coeffs  # d1 u2 - d2 u1
        assert np.max(np.abs(w - f.coeffs)) < 1e-12


class TestOversampling:
    def test_values_match_on_shared_nodes(self):
        g = GridSpec(16)
        f = seeded(g, 10)
        coarse = inverse_transform(f)
        fine = values_oversampled(f)
        assert fine.shape == (32, 32)
        assert np.max(np.abs(fine[::2, ::2] - coarse)) < 1e-13

    def test_exact_for_band_limited_cosine(self):
        g = GridSpec(16)
        f = cos_x1(g)
        fine = values_oversampled(f)
        n = 32
        x = np.arange(n) * (TWO_PI / n)
        expected = np.cos(x)[:, None] * np.ones(n)[None, :]
        assert np.max(np.abs(fine - expected)) < 1e-13

    def test_rejects_non_real_field(self):
        # two modes without conjugate partners: the half spectrum would
        # silently keep only the field's Hermitian part
        c = np.zeros((16, 16), dtype=complex)
        c[1, 2] = c[2, 1] = 1.0
        with pytest.raises(SymmetryError, match="not real"):
            values_oversampled(SpectralField(GridSpec(16), c))

    def test_nyquist_split_keeps_field_real(self):
        g = GridSpec(16)
        c = np.zeros((16, 16), dtype=complex)
        c[8, 0] = 1.0  # unpaired Nyquist mode
        fine = values_oversampled(SpectralField(g, c))
        assert np.all(np.isfinite(fine))
        assert fine.dtype == np.float64

    @pytest.mark.parametrize("m", [8, 10, 16])
    def test_nyquist_modes_are_cosines(self, m):
        # a unit Nyquist coefficient is split evenly between +M/2 and -M/2,
        # so on the 2M grid it reads as a cosine (a product at the corner)
        g = GridSpec(m)
        half = m // 2
        x = np.arange(2 * m) * (TWO_PI / (2 * m))
        c1 = np.cos(half * x)[:, None] * np.ones(2 * m)[None, :]
        c2 = np.ones(2 * m)[:, None] * np.cos(half * x)[None, :]
        for index, expected in [((half, 0), c1), ((0, half), c2), ((half, half), c1 * c2)]:
            c = np.zeros((m, m), dtype=complex)
            c[index] = 1.0
            fine = values_oversampled(SpectralField(g, c))
            assert np.max(np.abs(fine - expected)) < 1e-13, index

    @pytest.mark.parametrize("m", [8, 10])
    def test_matches_direct_trigonometric_sum(self, m):
        # random Hermitian field with every Nyquist coefficient nonzero,
        # against sum_k f_hat[k] phi_k1(x1) phi_k2(x2) at all (2M)^2 nodes,
        # where phi_k = exp(ikx) for |k| < M/2 and phi_{-M/2} = cos(M/2 x)
        g = GridSpec(m)
        values = np.random.default_rng(m).standard_normal((m, m))
        f = forward_transform(values, g)
        assert np.all(np.abs(f.coeffs[m // 2, :]) > 0)
        assert np.all(np.abs(f.coeffs[:, m // 2]) > 0)
        x = np.arange(2 * m) * (TWO_PI / (2 * m))
        k = np.fft.fftfreq(m, d=1.0 / m).astype(int)
        phi = np.exp(1j * k[:, None] * x[None, :])  # (mode, node)
        phi[m // 2] = np.cos((m // 2) * x)
        direct = np.einsum("ab,ai,bj->ij", f.coeffs, phi, phi)
        assert np.max(np.abs(direct.imag)) < 1e-12
        fine = values_oversampled(f)
        assert np.max(np.abs(fine - direct.real)) < 1e-12
        assert np.max(np.abs(fine[::2, ::2] - values)) < 1e-12

    @staticmethod
    def wide_pad_oracle(f: SpectralField) -> np.ndarray:
        """The oversampled values from a fresh (2M, M+1) pad of the half spectrum."""
        m = f.grid.size
        half, mf = m // 2, 2 * m
        big = np.zeros((mf, m + 1), dtype=complex)
        big[: half + 1, : half + 1] = f.coeffs[: half + 1, : half + 1]
        big[mf - half :, : half + 1] = f.coeffs[half:, : half + 1]
        big[half] *= 0.5
        big[mf - half] *= 0.5
        big[:, half] *= 0.5
        return np.fft.irfft2(big, s=(mf, mf)) * mf**2

    @pytest.mark.parametrize("m", [8, 10, 16, 64])
    def test_matches_wide_pad(self, m):
        # the (2M, M/2+1) row pad, whose columns irfft2 pads itself, equals
        # a (2M, M+1) pad of the half spectrum bit for bit
        g = GridSpec(m)
        f = forward_transform(np.random.default_rng(m + 1).standard_normal((m, m)), g)
        assert np.all(np.abs(f.coeffs[m // 2, :]) > 0)
        assert np.all(np.abs(f.coeffs[:, m // 2]) > 0)
        assert np.array_equal(values_oversampled(f), self.wide_pad_oracle(f))

    @pytest.mark.parametrize("m", [8, 16, 64])
    def test_cached_pad_stays_clean_between_fields(self, m):
        # two different fields back to back on one grid: the reused row pad
        # carries nothing of the first into the second
        g = GridSpec(m)
        rng = np.random.default_rng(m + 2)
        f, h = (forward_transform(rng.standard_normal((m, m)), g) for _ in range(2))
        first = values_oversampled(f)
        second = values_oversampled(h)
        assert np.array_equal(first, self.wide_pad_oracle(f))
        assert np.array_equal(second, self.wide_pad_oracle(h))
        assert np.array_equal(values_oversampled(f), first)

    @pytest.mark.parametrize("m", [8, 10, 16, 64])
    def test_two_passes_match_irfft2(self, m):
        # the row pad of the half spectrum through irfft2, against the two
        # 1D passes into a caller's array
        g = GridSpec(m)
        f = forward_transform(np.random.default_rng(m + 3).standard_normal((m, m)), g)
        assert np.all(np.abs(f.coeffs[m // 2, :]) > 0)
        assert np.all(np.abs(f.coeffs[:, m // 2]) > 0)
        half, mf = m // 2, 2 * m
        pad = np.zeros((mf, half + 1), dtype=complex)
        pad[: half + 1] = _half(f)[: half + 1]
        pad[mf - half :] = _half(f)[half:]
        pad[half] *= 0.5
        pad[mf - half] *= 0.5
        pad[:, half] *= 0.5
        want = np.fft.irfft2(pad, s=(mf, mf)) * mf**2
        out = np.full((mf, mf), np.nan)
        assert _oversample_half(_half(f), out) is out
        assert np.array_equal(out, want)

    def test_divergence_alias(self):
        g = grid32()
        u = biot_savart(seeded(g, 12))
        assert float(np.max(np.abs(divergence(u)))) < 1e-14
