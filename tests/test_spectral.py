"""Transforms, calculus operators, and the Biot-Savart reconstruction."""

import re

import numpy as np
import pytest

from voigt2d import (
    TWO_PI,
    GridSpec,
    SpectralField,
    SymmetryError,
    biot_savart,
    dealias,
    forward_transform,
    helmholtz_filter,
    inverse_transform,
    sample_state,
    values_oversampled,
    zero_mean,
)
from voigt2d.grid import tables
from voigt2d.spectral import (
    _field,
    _oversample_half,
    _oversampling,
)
from voigt2d.initial_data import (
    galerkin_truncate,
    make_eigenfunction,
    make_random_sobolev,
    make_taylor_family,
    make_yudovich_patch,
)
from wavenumbers import full_tables, hermitian_defect, negate


def divergence(u1: SpectralField, u2: SpectralField) -> np.ndarray:
    """Test oracle: coefficients of d1 u1 + d2 u2."""
    t = full_tables(u1.grid)
    return 1j * t.d1 * u1.coeffs + 1j * t.d2 * u2.coeffs


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

    def test_non_integer_size_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(16.0)

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
        # k1, k2, d1, d2 are broadcasts of one vector each over the half
        # spectrum, equal to the leading columns of the full-plane arrays
        t = tables(GridSpec(m))
        full = full_tables(GridSpec(m))
        h = m // 2 + 1
        for name in ("k1", "k2", "d1", "d2"):
            view = getattr(t, name)
            assert view.shape == (m, h) and view.dtype == np.float64, name
            assert np.array_equal(view, getattr(full, name)[:, :h]), name
            assert 0 in view.strides, name  # no memory of its own
            assert not view.flags.writeable, name
            with pytest.raises(ValueError):
                view[1, 1] = 7.0
        assert np.array_equal(t.ksq, full.k1[:, :h] ** 2 + full.k2[:, :h] ** 2)

    @pytest.mark.parametrize("m", [8, 10, 64])
    def test_tables_cover_the_half_spectrum(self, m):
        # every table is (M, M/2+1), bit for bit the leading columns of the
        # full-plane formula (column M/2 keeps k2 = -M/2), and none holds or
        # views an M x M array
        t = tables(GridSpec(m))
        full = full_tables(GridSpec(m))
        h = m // 2 + 1
        names = ("k1", "k2", "d1", "d2", "ksq", "inv_ksq", "dealias_mask")
        for name in names:
            table = getattr(t, name)
            want = getattr(full, name)[:, :h]
            assert table.shape == (m, h) and table.dtype == want.dtype, name
            assert np.array_equal(table, want), name
        assert t.k2[0, m // 2] == -(m // 2)
        for name, arr in vars(t).items():
            root = arr
            while isinstance(root.base, np.ndarray):
                root = root.base
            assert root.size <= m * h, name

    @pytest.mark.parametrize("m", [8, 10, 64])
    def test_norm_weights_fold_the_full_plane(self, m):
        # a full-plane sum of |c|^2 of a real field, alone or times |k|^2 or
        # the velocity weight, is its half-spectrum sum against fold, grad
        # or velocity
        g = GridSpec(m)
        t = tables(g)
        full = full_tables(g)
        h = m // 2 + 1
        fold = np.full(h, 2.0)
        fold[[0, -1]] = 1.0
        assert np.array_equal(t.fold, fold)
        assert np.array_equal(t.grad, fold * t.ksq)
        c = forward_transform(np.random.default_rng(m + 50).standard_normal((m, m)), g).coeffs
        velocity = (full.d1**2 + full.d2**2) * full.inv_ksq**2
        for weight, full_weight in ((t.fold, 1.0), (t.grad, full.ksq), (t.velocity, velocity)):
            got = np.sum(weight * np.abs(c[:, :h]) ** 2)
            assert got == pytest.approx(np.sum(full_weight * np.abs(c) ** 2), rel=1e-13)
        for arr in (t.fold, t.grad, t.velocity):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


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

    @pytest.mark.parametrize("m", [8, 10, 64])
    def test_forward_is_the_rfft2_mirror_bitwise(self, m):
        # the two 1D passes, the second in place, give rfft2's bits
        values = np.random.default_rng(m + 4).standard_normal((m, m))
        want = _field(np.fft.rfft2(values) / m**2)
        assert np.array_equal(forward_transform(values, GridSpec(m)).coeffs, want.coeffs)

    def test_forward_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward_transform(np.ones((16, 16)), grid32())

    def test_hermitian_symmetry_exact(self):
        f = seeded(grid32(), seed=3)
        assert hermitian_defect(f.coeffs) == 0.0

    @pytest.mark.parametrize("m", [8, 32, 64])
    def test_forward_matches_full_fft_reference(self, m):
        # reference: the complex fft2, symmetrized by a gather of -k
        g = GridSpec(m)
        values = np.random.default_rng(m).standard_normal((m, m)) + 0.3
        c = np.fft.fft2(values) / m**2
        neg = negate(m)
        want = 0.5 * (c + np.conj(c[np.ix_(neg, neg)]))
        f = forward_transform(values, g)
        assert np.max(np.abs(f.coeffs - want)) <= 1e-15 * np.max(np.abs(want))
        assert hermitian_defect(f.coeffs) == 0.0
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
    @pytest.mark.parametrize("where", ["everywhere", "self_conjugate", "paired"])
    def test_constructor_reports_the_gather_oracle_defect(self, m, where):
        # the defect in the message is the gather oracle's, wherever the
        # asymmetry sits: all modes, only the self-conjugate columns
        # k2 = 0 and M/2, or only the columns 0 < k2 < M/2
        g = GridSpec(m)
        rng = np.random.default_rng(m + 3)
        noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if where == "everywhere":
            c = noise
        else:
            c = np.array(forward_transform(rng.standard_normal((m, m)), g).coeffs)
            cols = slice(None, None, m // 2) if where == "self_conjugate" else slice(1, m // 2)
            c[:, cols] += 1e-6 * noise[:, cols]
        want = hermitian_defect(c)
        assert want > 0.0
        with pytest.raises(SymmetryError, match=re.escape(f"(defect {want:.3e})")):
            SpectralField(g, c)
        # a half spectrum whose self-conjugate columns are Hermitian only
        # within the tolerance: its mirror is exactly Hermitian
        neg = negate(m)
        w = noise[:, : m // 2 + 1].copy()
        cols = slice(None, None, m // 2)
        sym = 0.5 * (noise + np.conj(noise[np.ix_(neg, neg)]))
        w[:, cols] = sym[:, cols] + 1e-14 * noise[:, cols]
        assert hermitian_defect(_field(w).coeffs) == 0.0

    @pytest.mark.parametrize("m", [8, 16, 64])
    @pytest.mark.parametrize("column", ["k2_positive", "k2_negative"])
    def test_defect_between_the_two_halves_is_checked(self, m, column):
        # the only defect is one mode of a column 0 < |k2| < M/2, visible
        # only by comparing the columns -k2 with the mirror of the half:
        # 2e-12 relative is rejected, 5e-13 accepted and read back as the
        # mirrored half
        g = GridSpec(m)
        rng = np.random.default_rng(m + 40)
        c = 1e3 * np.array(forward_transform(rng.standard_normal((m, m)), g).coeffs)
        scale = float(np.max(np.abs(c)))
        assert scale > 1.0 and hermitian_defect(c) == 0.0
        k2 = 1 if column == "k2_positive" else m - 1
        for rel, accepted in ((2e-12, False), (5e-13, True)):
            bad = c.copy()
            bad[1, k2] += rel * scale
            assert hermitian_defect(bad) == pytest.approx(rel * scale, rel=1e-3)
            if not accepted:
                with pytest.raises(SymmetryError, match="not real"):
                    SpectralField(g, bad)
                continue
            got = SpectralField(g, bad).coeffs
            assert np.array_equal(got, mirror_oracle(bad[:, : m // 2 + 1]))
            assert hermitian_defect(got) == 0.0
            if column == "k2_negative":  # the half is c's, so the field is c
                assert np.array_equal(got, c)

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


class TestConstruction:
    def test_constructor_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="coefficient shape"):
            SpectralField(GridSpec(16), np.zeros((16, 9), dtype=complex))

    def test_difference_rejects_other_grid(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            seeded(grid32()) - seeded(GridSpec(16))


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

    @pytest.mark.parametrize(
        "value, paired",
        [
            pytest.param(np.nan, False, id="nan"),
            pytest.param(np.inf, False, id="inf"),
            pytest.param(np.inf, True, id="inf_pair"),
        ],
    )
    def test_constructor_rejects_non_finite(self, value, paired):
        # named as non-finite input, not as a symmetry violation; a lone
        # infinite mode would also make the relative tolerance infinite,
        # and a conjugate pair of them must raise before inf - inf warns
        c = np.zeros((16, 16), dtype=complex)
        c[1, 2] = value
        if paired:
            c[-1, -2] = value
        with pytest.raises(ValueError, match="coefficients must be finite") as err:
            SpectralField(GridSpec(16), c)
        assert not isinstance(err.value, SymmetryError)

    @pytest.mark.parametrize("m", [16, 64])
    def test_every_field_made_is_exactly_hermitian(self, m):
        # the constructor's check must never reject a field the package made
        g = GridSpec(m)
        rng = np.random.default_rng(m + 11)
        made = forward_transform(rng.standard_normal((m, m)) + 0.3, g)
        f = zero_mean(made)
        h = m // 2
        assert np.all(f.coeffs[h, :] != 0) and np.all(f.coeffs[:, h] != 0)
        fields = [
            made,
            f,
            dealias(f),
            helmholtz_filter(f, 0.1),
            *biot_savart(f),
            galerkin_truncate(f, m // 3),
            f * 2.5,
            0.3 * f,
            f - seeded(g, 1),
            make_eigenfunction(g, (1, 2), 1.5),
            make_random_sobolev(g, sigma=2.0, seed=m, band=g.dealias_cutoff),
            make_yudovich_patch(g, radius=1.0, seed=m),
            make_taylor_family(g, mode=2, perturbation=0.1),
        ]
        assert [hermitian_defect(x.coeffs) for x in fields] == [0.0] * len(fields)


def mirror_oracle(w: np.ndarray) -> np.ndarray:
    """Test oracle: the M x M layout of half spectrum w by an index gather,
    its self-conjugate columns k2 = 0, M/2 averaged with their conjugates."""
    m = w.shape[0]
    h = m // 2
    neg = negate(m)
    w = w.copy()
    for j in (0, h):
        w[:, j] = 0.5 * (w[:, j] + np.conj(w[neg, j]))
    full = np.empty((m, m), dtype=complex)
    full[:, : h + 1] = w
    full[:, h + 1 :] = np.conj(w[np.ix_(neg, neg[h + 1 :])])
    return full


class TestHalfStorage:
    @pytest.mark.parametrize("m", [8, 10, 64])
    def test_exactly_hermitian_input_round_trips_bitwise(self, m):
        # with every Nyquist row and column nonzero
        c = forward_transform(np.random.default_rng(m + 30).standard_normal((m, m)), GridSpec(m)).coeffs
        assert np.all(c[m // 2] != 0) and np.all(c[:, m // 2] != 0)
        assert hermitian_defect(c) == 0.0
        assert np.array_equal(SpectralField(GridSpec(m), c).coeffs, c)

    @pytest.mark.parametrize("m", [8, 10, 64])
    def test_nearly_hermitian_input_reads_back_as_its_mirrored_half(self, m):
        g = GridSpec(m)
        rng = np.random.default_rng(m + 31)
        c = forward_transform(rng.standard_normal((m, m)), g).coeffs
        c = c + 1e-14 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        assert 0.0 < hermitian_defect(c) <= 1e-12
        got = SpectralField(g, c).coeffs
        assert not np.array_equal(got, c)
        assert np.array_equal(got, mirror_oracle(c[:, : m // 2 + 1]))
        assert hermitian_defect(got) == 0.0

    def test_non_real_scaling_and_lone_inf_still_rejected(self):
        g = grid32()
        with pytest.raises(SymmetryError, match="not real"):
            seeded(g, 9) * 1j
        # a field with no mode in the self-conjugate columns, whose half
        # spectrum alone would not show that i f is not real
        c = np.zeros((32, 32), dtype=complex)
        c[1, 2] = c[-1, -2] = 1.0
        f = SpectralField(g, c)
        assert not np.any(f.half[:, [0, 16]])
        for scalar in (1j, 2.0 + 1e-300j):
            with pytest.raises(SymmetryError, match="not real"):
                f * scalar
        c[1, 2] = np.inf
        with pytest.raises(ValueError, match="coefficients must be finite") as err:
            SpectralField(g, c)
        assert not isinstance(err.value, SymmetryError)

    def test_private_constructor_checks_the_self_conjugate_columns(self):
        g = GridSpec(16)
        w = np.zeros((16, 9), dtype=complex)
        w[3, 4] = 1.0 + 2.0j  # any value off the self-conjugate columns is real
        assert np.array_equal(_field(w).coeffs[-3, -4], 1.0 - 2.0j)
        for j in (0, 8):
            bad = w.copy()
            bad[1, j] = 1.0  # no conjugate partner at row -1
            with pytest.raises(SymmetryError, match="not real"):
                _field(bad)
        for value in (np.inf, np.nan):
            bad = w.copy()
            bad[2, 5] = value
            with pytest.raises(ValueError, match="coefficients must be finite") as err:
                _field(bad)
            assert not isinstance(err.value, SymmetryError)
        with pytest.raises(ValueError, match="half spectrum shape"):
            SpectralField(g, np.zeros((16, 16), dtype=complex), _half=True)

    @pytest.mark.parametrize("m", [16, 64])
    def test_field_holds_the_half_spectrum_alone(self, m):
        g = GridSpec(m)
        f = zero_mean(forward_transform(np.random.default_rng(m).standard_normal((m, m)), g))
        fields = [
            f,
            SpectralField(g, f.coeffs),
            _field(f.half),
            dealias(f),
            helmholtz_filter(f, 0.1),
            *biot_savart(f),
            galerkin_truncate(f, m // 3),
            2.5 * f,
            f - seeded(g, 1),
            seeded(g, 2),
        ]
        for x in fields:
            assert set(vars(x)) == {"grid", "half"}
            w = x.half
            assert w.shape == (m, m // 2 + 1) and w.dtype == np.complex128
            assert w.base is None and w.nbytes == 16 * m * (m // 2 + 1)
            assert not w.flags.writeable
        assert f.coeffs is not f.coeffs  # mirrored on demand, never kept

    def test_pickled_field_arrives_read_only(self):
        # the sweep's process pool sends the initial field by pickle
        import pickle

        f = seeded(grid32(), 4)
        g = pickle.loads(pickle.dumps(f))
        assert g.grid == f.grid and np.array_equal(g.half, f.half)
        assert not g.half.flags.writeable


class TestCalculus:
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
        for alpha in (-0.1, float("nan"), float("inf")):
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
        x1, _ = g.meshgrid()
        u1, u2 = map(inverse_transform, biot_savart(cos_x1(g)))
        assert np.max(np.abs(u1)) < 1e-14
        assert np.max(np.abs(u2 - np.sin(x1))) < 1e-13

    def test_divergence_free(self):
        u1, u2 = biot_savart(seeded(grid32(), 7))
        assert TWO_PI * np.linalg.norm(divergence(u1, u2)) < 1e-13  # L2 norm of div u

    def test_curl_recovers_vorticity(self):
        g = grid32()
        f = zero_mean(seeded(g, 8))
        u1, u2 = biot_savart(f)
        t = full_tables(g)
        w = 1j * t.d1 * u2.coeffs - 1j * t.d2 * u1.coeffs  # d1 u2 - d2 u1
        assert np.max(np.abs(w - f.coeffs)) < 1e-12

    def test_rejects_nonzero_mean(self):
        g = grid32()
        c = np.zeros((32, 32), dtype=complex)
        c[0, 0] = 1.0
        with pytest.raises(ValueError, match="zero-mean"):
            biot_savart(SpectralField(g, c))


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
        want = np.fft.irfft2(big, s=(mf, mf), norm="forward")
        if m & (m - 1) == 0:  # a power-of-two scale commutes with rounding
            assert np.array_equal(want, np.fft.irfft2(big, s=(mf, mf)) * mf**2)
        return want

    @pytest.mark.parametrize("m", [8, 10, 16, 64, 80, 128])
    def test_matches_wide_pad(self, m):
        # the workspace pad, transformed in place along k1, equals a fresh
        # (2M, M+1) pad of the half spectrum through an unnormalized irfft2
        # bit for bit
        g = GridSpec(m)
        f = forward_transform(np.random.default_rng(m + 1).standard_normal((m, m)), g)
        assert np.all(np.abs(f.coeffs[m // 2, :]) > 0)
        assert np.all(np.abs(f.coeffs[:, m // 2]) > 0)
        assert np.array_equal(values_oversampled(f), self.wide_pad_oracle(f))

    @pytest.mark.parametrize("m", [8, 16, 64])
    def test_cached_pad_stays_clean_between_fields(self, m):
        # two different fields back to back on one grid, with an inverse
        # transform and a sample_state in between: the reused pad, whose
        # middle rows hold the last call's ifft, and the row block the pass
        # along k2 reads carry nothing of one call into the next
        g = GridSpec(m)
        rng = np.random.default_rng(m + 2)
        f, h = (forward_transform(rng.standard_normal((m, m)), g) for _ in range(2))
        first = values_oversampled(f)
        assert np.array_equal(inverse_transform(h), np.fft.ifft2(h.coeffs).real * m**2)
        sample_state(zero_mean(h), 0.5)
        second = values_oversampled(h)
        assert np.array_equal(first, self.wide_pad_oracle(f))
        assert np.array_equal(second, self.wide_pad_oracle(h))
        assert np.array_equal(values_oversampled(f), first)
        ws = _oversampling(m)
        assert ws.pad.shape == (2 * m, m // 2 + 1)
        assert ws.wide.shape == (2 * min(64, m), m + 1)
        assert not np.any(ws.wide[:, m // 2 + 1 :])  # the columns irfft reads as zero

    @pytest.mark.parametrize("m", [80, 128])
    def test_workspace_holds_one_plane(self, m):
        # the (2M, M/2+1) pad, one 2M x 2M value plane, 2 min(64, M) rows of
        # 2M values for the quadrature and the row-blocked pass along k2,
        # and 2 min(64, M) rows of M+1 coefficients that pass reads
        ws = _oversampling(m)
        roots = {}
        for arr in vars(ws).values():
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                roots[id(arr)] = arr
        shapes = sorted(arr.shape for arr in roots.values())
        assert shapes == sorted(
            [(2 * m, m // 2 + 1), (2 * m, 2 * m), (128, 2 * m), (128, m + 1)]
        )
        assert all(np.shares_memory(rows, ws.pad) for _, rows in ws.data)

    def test_transform_allocates_no_plane(self):
        # after a warm-up call, the two passes write into the workspace pad
        # and the caller's array: no fresh 2M x 2M-sized array
        import tracemalloc

        m = 64
        half = seeded(GridSpec(m), 5).half
        out = np.empty((2 * m, 2 * m))
        _oversample_half(half, out)
        tracemalloc.start()
        try:
            _oversample_half(half, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 8

    def test_warm_inverse_transform_allocates_three_complex_arrays(self):
        # the full-layout mirror of coeffs and the outputs of ifft2's two
        # passes (numpy drops ifft2's out=), and the real result once the
        # first two are freed: no fourth complex M x M and no workspace
        import tracemalloc

        m = 512
        f = seeded(GridSpec(m), 7)
        full = np.empty((m, m), dtype=complex).nbytes
        want = np.fft.ifft2(f.coeffs).real * m**2
        assert np.array_equal(inverse_transform(f), want)
        tracemalloc.start()
        try:
            got = inverse_transform(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 3.25 * full

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
        pad[: half + 1] = f.half[: half + 1]
        pad[mf - half :] = f.half[half:]
        pad[half] *= 0.5
        pad[mf - half] *= 0.5
        pad[:, half] *= 0.5
        want = np.fft.irfft2(pad, s=(mf, mf), norm="forward")
        if m & (m - 1) == 0:  # a power-of-two scale commutes with rounding
            assert np.array_equal(want, np.fft.irfft2(pad, s=(mf, mf)) * mf**2)
        out = np.full((mf, mf), np.nan)
        assert _oversample_half(f.half, out) is out
        assert np.array_equal(out, want)

    def test_divergence_alias(self):
        g = grid32()
        u1, u2 = biot_savart(seeded(g, 12))
        assert float(np.max(np.abs(divergence(u1, u2)))) < 1e-14
