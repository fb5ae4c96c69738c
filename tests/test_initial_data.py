"""Initial vorticity generators: closed forms, determinism, grid independence."""

import functools
import inspect
import math
import pickle

import numpy as np
import pytest

from voigt2d import (
    KINDS,
    DataRecipe,
    GridSpec,
    dealias,
    forward_transform,
    galerkin_truncate,
    inverse_transform,
    l2_norm,
    make_eigenfunction,
    make_random_sobolev,
    make_taylor_family,
    make_yudovich_patch,
    realize,
    rhs,
    values_oversampled,
)
from voigt2d import initial_data
from voigt2d.initial_data import INIT_PARAMS, _half_plane_modes
from voigt2d.spectral import _field
from wavenumbers import full_tables, live

#: the parameters each kind requires, for tests that build every kind
REQUIRED = {"random_sobolev": {"sigma": 2.5, "band": 10}, "yudovich_patch": {"radius": 0.8}}


class TestRecipe:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown initial data kind"):
            DataRecipe("vortex_sheet")

    def test_hashable_and_comparable(self):
        a = DataRecipe("random_sobolev", {"sigma": 3.0, "band": 8}, seed=1)
        b = DataRecipe("random_sobolev", {"band": 8, "sigma": 3.0}, seed=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_params_are_copied(self):
        p = {"sigma": 3.0, "band": 8}
        r = DataRecipe("random_sobolev", p, seed=1)
        p["band"] = 99
        assert r.params["band"] == 8

    def test_params_are_read_only(self):
        r = DataRecipe("eigenfunction")
        members = {r}
        with pytest.raises(TypeError):
            r.params["k1"] = 3
        with pytest.raises(TypeError):
            r.params["band"] = 8.7
        assert r.params["k1"] == 1
        assert r in members

    def test_pickle_round_trip(self):
        # a sweep sends its recipe to the pool's workers by pickle
        r = DataRecipe("random_sobolev", {"sigma": 3.0, "band": 8}, seed=1)
        q = pickle.loads(pickle.dumps(r))
        assert q == r
        assert hash(q) == hash(r)
        assert list(q.params.items()) == list(r.params.items())

    def test_seed_typed_at_construction(self):
        with pytest.raises(ValueError, match=r"^seed must be int-valued, got 1\.5$"):
            DataRecipe("random_sobolev", {"sigma": 3.0, "band": 8}, seed=1.5)
        r = DataRecipe("random_sobolev", {"sigma": 3.0, "band": 8}, seed=2.0)
        assert r.seed == 2 and type(r.seed) is int
        assert r == DataRecipe("random_sobolev", {"sigma": 3.0, "band": 8}, seed=2)

    def test_generators_type_their_seed(self):
        # the seed takes the recipe's rule: 2.0 is seed 2, bit for bit, and
        # a fractional or negative seed is a ValueError naming it
        g = GridSpec(32)
        sobolev = functools.partial(make_random_sobolev, g, 3.0, band=6)
        patch = functools.partial(make_yudovich_patch, g, 0.5)
        for make in (sobolev, patch):
            assert np.array_equal(make(seed=2.0).half, make(seed=2).half)
            with pytest.raises(ValueError, match=r"^seed must be int-valued, got 1\.5$"):
                make(seed=1.5)
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
                make(seed=-1)

    def test_defaults_filled_in_and_typed(self):
        r = DataRecipe("random_sobolev", {"band": 8.0, "sigma": 3})
        assert r.params == {"sigma": 3.0, "band": 8, "amplitude": 1.0}
        assert [type(v) for v in r.params.values()] == [float, int, float]
        assert DataRecipe("yudovich_patch", {"radius": 1}).params == {
            "radius": 1.0,
            "smoothing": None,
            "amplitude": 1.0,
        }

    def test_spelled_out_defaults_are_equal(self):
        a = DataRecipe("eigenfunction")
        b = DataRecipe("eigenfunction", {"k1": 1, "k2": 0, "amplitude": 1.0})
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("random_sobolev", {"sigma": 3.0, "band": 8.7}, "band"),
            ("eigenfunction", {"k1": 1.5}, "k1"),
            ("taylor_family", {"mode": 2.9}, "mode"),
            ("eigenfunction", {"k2": math.inf}, "k2"),
            ("eigenfunction", {"k2": math.nan}, "k2"),
            ("random_sobolev", {"sigma": "smooth", "band": 8}, "sigma"),
        ],
    )
    def test_bad_value_named(self, kind, params, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            DataRecipe(kind, params)

    def test_generators_reject_fractional_ints(self):
        g = GridSpec(32)
        with pytest.raises(ValueError, match="k1 must be int-valued"):
            make_eigenfunction(g, (1.5, 0))
        with pytest.raises(ValueError, match="^band must be int-valued, got 8.7$"):
            make_random_sobolev(g, 3.0, 0, 8.7)
        with pytest.raises(ValueError, match="mode must be int-valued"):
            make_taylor_family(g, mode=2.9)
        assert np.array_equal(
            make_taylor_family(g, mode=2.0).coeffs, make_taylor_family(g, mode=2).coeffs
        )

    def test_generator_defaults_match_init_params(self):
        # a generator's keyword default and INIT_PARAMS write one default
        # twice; they must agree
        names = set()
        for kind in KINDS:
            sig = inspect.signature(getattr(initial_data, f"make_{kind}")).parameters
            for name, (_, default) in INIT_PARAMS[kind].items():
                if name in sig and sig[name].default is not inspect.Parameter.empty:
                    assert sig[name].default == default, (kind, name)
                    names.add(name)
        assert names == {"amplitude", "smoothing", "mode", "perturbation"}


class TestEigenfunction:
    def test_matches_cosine_closed_form(self):
        g = GridSpec(32)
        x1, x2 = g.meshgrid()
        f = make_eigenfunction(g, (2, -1), amplitude=1.5)
        expected = 1.5 * np.cos(2 * x1 - x2)
        assert np.max(np.abs(inverse_transform(f) - expected)) <= 1e-13

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_eigenfunction(GridSpec(32), (0, 0))

    def test_outside_band_rejected(self):
        g = GridSpec(32)  # cutoff 10
        with pytest.raises(ValueError, match="outside the dealias band"):
            make_eigenfunction(g, (11, 0))

    def test_is_steady(self):
        g = GridSpec(32)
        f = make_eigenfunction(g, (2, 3), amplitude=2.0)
        assert l2_norm(_field(rhs(live(f.half), 0.0))) <= 1e-13 * l2_norm(f)


class TestHalfPlaneModes:
    def test_no_conjugate_pairs_listed_twice(self):
        modes = _half_plane_modes(6)
        seen = set(modes)
        assert all((-k1, -k2) not in seen for k1, k2 in modes)

    def test_covers_the_band(self):
        band = 6
        modes = _half_plane_modes(band)
        full = {
            (k1, k2)
            for k1 in range(-band, band + 1)
            for k2 in range(-band, band + 1)
            if 0 < k1 * k1 + k2 * k2 <= band * band
        }
        assert len(modes) * 2 == len(full)
        assert all(m in full for m in modes)

    def test_order_is_fixed(self):
        assert _half_plane_modes(2)[:4] == [(0, 1), (0, 2), (1, -1), (1, 0)]


class TestRandomSobolev:
    def test_mode_magnitudes(self):
        g = GridSpec(32)
        sigma = 2.5
        f = make_random_sobolev(g, sigma=sigma, seed=5, band=6)
        for k1, k2 in _half_plane_modes(6):
            got = abs(f.coeffs[k1 % 32, k2 % 32])
            assert got == pytest.approx((k1**2 + k2**2) ** (-sigma / 2), rel=1e-13)

    def test_grid_independent_coefficients(self):
        fa = make_random_sobolev(GridSpec(32), sigma=3.0, seed=7, band=8)
        fb = make_random_sobolev(GridSpec(64), sigma=3.0, seed=7, band=8)
        for k1, k2 in _half_plane_modes(8):
            assert fa.coeffs[k1 % 32, k2 % 32] == fb.coeffs[k1 % 64, k2 % 64]
        assert l2_norm(fa) == pytest.approx(l2_norm(fb), rel=1e-15)

    def test_spectral_slope(self):
        f = make_random_sobolev(GridSpec(64), sigma=3.25, seed=0, band=16)
        ks = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        mags = np.array([abs(f.coeffs[int(k), 0]) for k in ks])
        slope = np.polyfit(np.log(ks), np.log(mags), 1)[0]
        assert slope == pytest.approx(-3.25, abs=1e-12)

    def test_seed_determinism(self):
        g = GridSpec(32)
        a = make_random_sobolev(g, sigma=2.0, seed=3, band=5)
        b = make_random_sobolev(g, sigma=2.0, seed=3, band=5)
        c = make_random_sobolev(g, sigma=2.0, seed=4, band=5)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_parameter_validation(self):
        g = GridSpec(32)
        with pytest.raises(ValueError, match="sigma"):
            make_random_sobolev(g, sigma=0.0, seed=0, band=4)
        with pytest.raises(ValueError, match="band"):
            make_random_sobolev(g, sigma=2.0, seed=0, band=11)
        with pytest.raises(ValueError, match="band"):
            make_random_sobolev(g, sigma=2.0, seed=0, band=0)

    def test_values_are_real_and_mean_free(self):
        f = make_random_sobolev(GridSpec(32), sigma=2.0, seed=9, band=8)
        assert f.coeffs[0, 0] == 0.0
        assert np.isrealobj(inverse_transform(f))


class TestYudovichPatch:
    def test_sup_normalized_on_refined_grid(self):
        g = GridSpec(128)
        f = make_yudovich_patch(g, radius=0.6, seed=11, amplitude=1.0)
        # 4x refinement: oversample the exact 2x interpolant once more
        fine = forward_transform(values_oversampled(f), GridSpec(256))
        sup4 = float(np.max(np.abs(values_oversampled(fine))))
        assert 0.98 <= sup4 <= 1.02

    def test_amplitude_scaling(self):
        g = GridSpec(64)
        f = make_yudovich_patch(g, radius=0.8, seed=2, amplitude=2.5)
        sup2 = float(np.max(np.abs(values_oversampled(f))))
        assert sup2 == pytest.approx(2.5, rel=1e-12)

    def test_mean_free(self):
        f = make_yudovich_patch(GridSpec(64), radius=0.7, seed=4)
        assert f.coeffs[0, 0] == 0.0

    def test_radius_validation(self):
        g = GridSpec(64)
        for bad in (0.0, -0.5, math.pi, 4.0):
            with pytest.raises(ValueError, match="radius"):
                make_yudovich_patch(g, radius=bad, seed=0)

    def test_smoothing_validation(self):
        with pytest.raises(ValueError, match="smoothing"):
            make_yudovich_patch(GridSpec(64), radius=0.6, smoothing=0.0, seed=0)

    def test_degenerate_patch_rejected(self):
        # a smoothing so wide that the patch is constant: zero after the
        # mean is removed
        with pytest.raises(ValueError, match="degenerate patch: zero field after projection"):
            make_yudovich_patch(GridSpec(16), 1.0, smoothing=1e300)

    def test_seed_moves_center(self):
        g = GridSpec(64)
        a = make_yudovich_patch(g, radius=0.6, seed=1)
        b = make_yudovich_patch(g, radius=0.6, seed=2)
        assert not np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(
            a.coeffs, make_yudovich_patch(g, radius=0.6, seed=1).coeffs
        )


class TestTaylorFamily:
    def test_matches_closed_form(self):
        g = GridSpec(32)
        x1, x2 = g.meshgrid()
        f = make_taylor_family(g, mode=2, amplitude=1.25)
        expected = 1.25 * np.cos(2 * x1) * np.cos(2 * x2)
        assert np.max(np.abs(inverse_transform(f) - expected)) <= 1e-13

    def test_perturbation_adds_single_mode(self):
        g = GridSpec(32)
        base = make_taylor_family(g, mode=1)
        pert = make_taylor_family(g, mode=1, perturbation=0.1)
        diff = pert.coeffs - base.coeffs
        assert diff[2, 0] == pytest.approx(0.05)
        assert diff[-2 % 32, 0] == pytest.approx(0.05)
        nz = np.argwhere(diff != 0)
        assert len(nz) == 2

    def test_unperturbed_is_steady(self):
        g = GridSpec(32)
        f = make_taylor_family(g, mode=1)
        assert l2_norm(_field(rhs(live(f.half), 0.0))) <= 1e-13 * l2_norm(f)

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            make_taylor_family(GridSpec(32), mode=0)
        with pytest.raises(ValueError, match="band"):
            make_taylor_family(GridSpec(32), mode=11)


class TestRealize:
    def test_dispatch_matches_direct_constructors(self):
        g = GridSpec(32)
        cases = [
            (
                DataRecipe("eigenfunction", {"k1": 2, "k2": -1, "amplitude": 1.5}),
                make_eigenfunction(g, (2, -1), 1.5),
            ),
            (
                DataRecipe("random_sobolev", {"sigma": 2.5, "band": 6}, seed=5),
                make_random_sobolev(g, 2.5, 5, 6),
            ),
            (
                DataRecipe("yudovich_patch", {"radius": 0.6}, seed=11),
                make_yudovich_patch(g, 0.6, seed=11),
            ),
            (
                DataRecipe("taylor_family", {"mode": 2, "amplitude": 1.25}),
                make_taylor_family(g, 2, 1.25),
            ),
        ]
        for recipe, direct in cases:
            assert np.array_equal(realize(recipe, g).coeffs, direct.coeffs)

    def test_eigenfunction_defaults(self):
        g = GridSpec(32)
        got = realize(DataRecipe("eigenfunction"), g)
        assert np.array_equal(got.coeffs, make_eigenfunction(g, (1, 0)).coeffs)

    def test_unknown_parameter_named(self):
        with pytest.raises(ValueError, match="vel"):
            DataRecipe("random_sobolev", {"sigma": 2.0, "band": 4, "vel": 1.0})

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="missing parameter 'sigma'"):
            DataRecipe("random_sobolev", {"band": 4})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_amplitude_named(self, kind, value):
        # the generator's own check, before any coefficient is built
        recipe = DataRecipe(kind, {**REQUIRED.get(kind, {}), "amplitude": value})
        with pytest.raises(ValueError, match="amplitude must be finite"):
            realize(recipe, GridSpec(32))

    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_every_kind_is_dealiased_and_mean_free(self, m):
        # so the CFL step of realize's output is that of integrate's
        # dealiased initial state
        for kind in KINDS:
            f = realize(DataRecipe(kind, REQUIRED.get(kind, {}), seed=3), GridSpec(m))
            assert np.array_equal(dealias(f).coeffs, f.coeffs), kind
            assert f.coeffs[0, 0] == 0, kind


class TestGalerkinTruncate:
    def test_keeps_low_kills_high(self):
        g = GridSpec(64)
        f = make_random_sobolev(g, sigma=2.0, seed=1, band=12)
        t = galerkin_truncate(f, 5)
        ksq = full_tables(g).ksq
        assert np.all(t.coeffs[ksq > 25.0] == 0.0)
        low = ksq <= 25.0
        low[0, 0] = False
        assert np.array_equal(t.coeffs[low], f.coeffs[low])
        assert t.coeffs[0, 0] == 0.0

    def test_identity_when_band_enclosed(self):
        g = GridSpec(64)
        f = make_random_sobolev(g, sigma=2.0, seed=2, band=6)
        assert np.array_equal(galerkin_truncate(f, 6).coeffs, f.coeffs)
        assert np.array_equal(galerkin_truncate(f, 19).coeffs, f.coeffs)

    def test_idempotent(self):
        f = make_random_sobolev(GridSpec(64), sigma=2.0, seed=3, band=12)
        once = galerkin_truncate(f, 4)
        assert np.array_equal(galerkin_truncate(once, 4).coeffs, once.coeffs)

    def test_validation(self):
        f = make_eigenfunction(GridSpec(32), (1, 0))
        with pytest.raises(ValueError, match=">= 1"):
            galerkin_truncate(f, 0)
