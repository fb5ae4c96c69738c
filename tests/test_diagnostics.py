"""Norms, conserved quantities, inequality ratios, and error norms."""

import math

import numpy as np
import pytest

from voigt2d import (
    GridSpec,
    SolverConfig,
    SpectralField,
    SymmetryError,
    TrajectoryRecord,
    TWO_PI,
    biot_savart,
    cz_ratio,
    derivative,
    error_norms,
    forward_transform,
    gagliardo_ratio,
    gradient_l2,
    integrate,
    l2_norm,
    lp_norm,
    sample_state,
    sobolev_norm,
    values_oversampled,
)
import voigt2d.diagnostics as diagnostics
from voigt2d.initial_data import make_random_sobolev

#: regression values frozen from dense quadrature oracles (M = 1024)
COS_L4 = 1.9615426303003437  # (3 pi^2 / 2)^(1/4)
COS_GAGLIARDO_P2 = 0.44150220872428153


def cos_x1(grid: GridSpec) -> SpectralField:
    x1, _ = grid.meshgrid()
    return forward_transform(np.cos(x1), grid)


def seeded(grid: GridSpec, seed: int = 0, sigma: float = 2.5) -> SpectralField:
    return make_random_sobolev(grid, sigma=sigma, seed=seed, band=grid.dealias_cutoff)


class TestNorms:
    def test_l2_of_zero(self):
        g = GridSpec(32)
        assert l2_norm(SpectralField(g, np.zeros((32, 32), dtype=complex))) == 0.0

    def test_l2_of_cosine(self):
        assert l2_norm(cos_x1(GridSpec(32))) == pytest.approx(
            math.pi * math.sqrt(2.0), rel=1e-14
        )

    def test_l2_matches_quadrature(self):
        g = GridSpec(32)
        f = seeded(g, 1)
        from voigt2d import inverse_transform

        v = inverse_transform(f)
        quad = math.sqrt(np.sum(v**2) * g.spacing**2)
        assert l2_norm(f) == pytest.approx(quad, rel=1e-10)

    def test_sobolev_cosine_s1(self):
        assert sobolev_norm(cos_x1(GridSpec(32)), 1.0) == pytest.approx(
            2.0 * math.pi, rel=1e-14
        )

    def test_sobolev_s0_is_l2_bitwise(self):
        for seed in range(5):
            f = seeded(GridSpec(32), seed)
            assert sobolev_norm(f, 0.0) == l2_norm(f)

    def test_sobolev_monotone_in_s(self):
        f = seeded(GridSpec(32), 2)
        values = [sobolev_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(a <= b * (1 + 1e-15) for a, b in zip(values, values[1:]))

    def test_lp_inf_is_grid_max(self):
        g = GridSpec(32)
        f = cos_x1(g)
        assert lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-13)

    def test_lp2_matches_l2(self):
        f = seeded(GridSpec(32), 3)
        assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-10)

    def test_lp4_cosine_frozen_regression(self):
        got = lp_norm(cos_x1(GridSpec(64)), 4.0)
        assert got == pytest.approx(COS_L4, rel=1e-12)
        assert COS_L4 == pytest.approx((3.0 * math.pi**2 / 2.0) ** 0.25, rel=1e-15)

    def test_lp_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(cos_x1(GridSpec(32)), 0.5)
        with pytest.raises(ValueError):
            lp_norm(cos_x1(GridSpec(32)), math.nan)

    def test_lp_of_zero(self):
        zero = SpectralField(GridSpec(32), np.zeros((32, 32), dtype=complex))
        assert lp_norm(zero, 2.0) == 0.0
        assert lp_norm(zero, 4.0) == 0.0

    def test_lp_rejects_non_real_field(self):
        # two modes without conjugate partners: the half spectrum would
        # silently keep only the field's Hermitian part, so the field is
        # rejected before lp_norm can read it
        c = np.zeros((16, 16), dtype=complex)
        c[1, 2] = c[2, 1] = 1.0
        for p in (1.0, 4.0, math.inf):
            with pytest.raises(SymmetryError, match="not real"):
                lp_norm(SpectralField(GridSpec(16), c), p)

    def test_lp_homogeneous(self):
        f = seeded(GridSpec(32), 4)
        for p in (1.0, 3.0, 7.5, math.inf):
            assert lp_norm(3.5 * f, p) == pytest.approx(3.5 * lp_norm(f, p), rel=1e-12)

    def test_lp_triangle_inequality(self):
        g = GridSpec(32)
        f, h = seeded(g, 5), seeded(g, 6)
        for p in (1.0, 2.0, 4.0, math.inf):
            total = lp_norm(SpectralField(g, f.coeffs + h.coeffs), p)
            assert total <= lp_norm(f, p) + lp_norm(h, p) + 1e-12

    def test_lp_stable_at_large_p(self):
        f = seeded(GridSpec(32), 7)
        v64 = lp_norm(f, 64.0)
        vinf = lp_norm(f, math.inf)
        assert np.isfinite(v64)
        assert v64 >= vinf * 0.95  # large-p quadrature approaches the sup

    def test_gradient_l2_of_cosine(self):
        assert gradient_l2(cos_x1(GridSpec(32))) == pytest.approx(
            math.pi * math.sqrt(2.0), rel=1e-13
        )


class TestConservedQuantities:
    def test_voigt_energy_alpha_zero_is_energy(self):
        s = sample_state(seeded(GridSpec(32), 8), 0.0)
        assert s["voigt_energy"] == s["energy"]

    def test_voigt_energy_single_mode(self):
        # u = (0, sin x1): alpha = 1 doubles the |k|^2 = 1 contribution
        s = sample_state(cos_x1(GridSpec(32)), 1.0)
        assert s["voigt_energy"] == pytest.approx(4.0 * math.pi**2, rel=1e-13)

    def test_voigt_enstrophy_single_mode(self):
        w = cos_x1(GridSpec(32))
        assert sample_state(w, 0.5)["voigt_enstrophy"] == pytest.approx(
            3.0 * math.pi**2, rel=1e-13
        )
        assert sample_state(w, 0.0)["voigt_enstrophy"] == pytest.approx(
            l2_norm(w) ** 2, rel=1e-14
        )

    def test_voigt_quantities_dominate_plain(self):
        f = seeded(GridSpec(32), 9)
        for alpha in (0.0, 0.01, 1.0):
            s = sample_state(f, alpha)
            assert s["voigt_energy"] >= s["energy"] * (1 - 1e-15)
            assert s["voigt_enstrophy"] >= l2_norm(f) ** 2 * (1 - 1e-15)

    def test_voigt_quantities_reject_nan_alpha(self):
        f = seeded(GridSpec(32), 12)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            sample_state(f, float("nan"))

    def test_voigt_energy_monotone_in_alpha(self):
        f = seeded(GridSpec(32), 10)
        states = [sample_state(f, a) for a in (0.0, 0.01, 0.1, 1.0)]
        for key in ("voigt_energy", "voigt_enstrophy"):
            values = [s[key] for s in states]
            assert all(a < b for a, b in zip(values, values[1:])), key

    def test_sample_state_fields(self):
        f = seeded(GridSpec(32), 11)
        s = sample_state(f, 0.25)
        assert list(s) == [
            "energy", "enstrophy", "voigt_energy", "voigt_enstrophy", "omega_sup"
        ]
        assert s["energy"] >= 0 and s["enstrophy"] >= 0
        assert s["voigt_energy"] >= s["energy"]
        assert s["voigt_enstrophy"] >= s["enstrophy"]
        assert s["omega_sup"] == pytest.approx(lp_norm(f, math.inf), rel=1e-13)

    @pytest.mark.parametrize("m", [16, 32, 64])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3])
    def test_sample_state_matches_biot_savart_oracle(self, m, alpha):
        # white noise: every Nyquist coefficient nonzero, where the d tables
        # and |k|^2 differ
        g = GridSpec(m)
        values = np.random.default_rng(m + 7).standard_normal((m, m))
        omega = forward_transform(values - values.mean(), g)
        assert np.all(np.abs(omega.coeffs[m // 2, 1:]) > 0)
        assert np.all(np.abs(omega.coeffs[1:, m // 2]) > 0)
        u = biot_savart(omega)
        k = np.fft.fftfreq(m, d=1.0 / m)
        w = 1.0 + alpha * (k[:, None] ** 2 + k[None, :] ** 2)

        def energy(weight):
            return TWO_PI**2 * sum(np.sum(weight * np.abs(c.coeffs) ** 2) for c in (u.u1, u.u2))

        want = {
            "energy": energy(1.0),
            "enstrophy": TWO_PI**2 * np.sum(np.abs(omega.coeffs) ** 2),
            "voigt_energy": energy(w),
            "voigt_enstrophy": TWO_PI**2 * np.sum(w * np.abs(omega.coeffs) ** 2),
            "omega_sup": np.max(np.abs(np.fft.ifft2(omega.coeffs).real * m * m)),
        }
        got = sample_state(omega, alpha)
        assert list(got) == list(want)
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-14 * value, name


class TestInequalityRatios:
    def test_cz_single_mode_decreasing_in_p(self):
        f = cos_x1(GridSpec(64))
        values = [cz_ratio(f, p) for p in (4.0, 8.0, 16.0, 32.0)]
        assert all(np.isfinite(values))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cz_scale_invariant(self):
        f = seeded(GridSpec(64), 12)
        base = cz_ratio(f, 8.0)
        for lam in (1e-3, 7.0, 1e4):
            assert abs(cz_ratio(lam * f, 8.0) - base) <= 1e-12 * base

    def test_cz_requires_p_above_two(self):
        with pytest.raises(ValueError):
            cz_ratio(cos_x1(GridSpec(32)), 2.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_cz_rejects_non_finite_p(self, p):
        with pytest.raises(ValueError, match="finite p > 2"):
            cz_ratio(cos_x1(GridSpec(32)), p)

    def test_cz_rejects_zero_field(self):
        g = GridSpec(32)
        with pytest.raises(ValueError):
            cz_ratio(SpectralField(g, np.zeros((32, 32), dtype=complex)), 4.0)

    def test_gagliardo_cosine_frozen_regression(self):
        got = gagliardo_ratio(cos_x1(GridSpec(64)), 2.0)
        assert got == pytest.approx(COS_GAGLIARDO_P2, rel=1e-12)

    def test_cz_rejects_nonzero_mean(self):
        g = GridSpec(32)
        c = cos_x1(g).coeffs.copy()
        c[0, 0] = 0.5
        with pytest.raises(ValueError, match="zero-mean"):
            cz_ratio(SpectralField(g, c), 4.0)

    def test_gagliardo_scale_invariant(self):
        f = seeded(GridSpec(64), 13)
        base = gagliardo_ratio(f, 4.0)
        for lam in (1e-3, 7.0, 1e4):
            assert abs(gagliardo_ratio(lam * f, 4.0) - base) <= 1e-12 * base

    def test_gagliardo_requires_p_at_least_two(self):
        with pytest.raises(ValueError):
            gagliardo_ratio(cos_x1(GridSpec(32)), 1.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_gagliardo_rejects_non_finite_p(self, p):
        with pytest.raises(ValueError, match="finite p >= 2"):
            gagliardo_ratio(cos_x1(GridSpec(32)), p)

    def test_gagliardo_rejects_constant_field(self):
        g = GridSpec(32)
        c = np.zeros((32, 32), dtype=complex)
        c[0, 0] = 2.0
        with pytest.raises(ValueError):
            gagliardo_ratio(SpectralField(g, c), 4.0)

    def test_sequence_of_p_matches_single_p_bitwise(self):
        f = seeded(GridSpec(64), 14, sigma=3.0)
        for cz_ps, gn_ps in [
            ((4.0, 8.0, 16.0, 64.0), (2.0, 4.0, 8.0, 64.0)),
            ((64.0, 4.0, 2.5, 8.0, 3.0, 16.0), (64.0, 2.0, 3.0, 8.0, 2.0)),  # unsorted, mixed
        ]:
            assert cz_ratio(f, cz_ps) == tuple(cz_ratio(f, p) for p in cz_ps)
            assert gagliardo_ratio(f, gn_ps) == tuple(gagliardo_ratio(f, p) for p in gn_ps)
        assert cz_ratio(f, [8.0]) == (cz_ratio(f, 8.0),)
        assert isinstance(cz_ratio(f, 8.0), float)
        assert isinstance(gagliardo_ratio(f, 8.0), float)

    @pytest.fixture
    def no_transforms(self, monkeypatch):
        def fail(*args):
            raise AssertionError("transform called before every p was checked")

        monkeypatch.setattr(diagnostics, "_oversample_half", fail)
        monkeypatch.setattr(diagnostics, "inverse_transform", fail)
        for name in ("ifft", "irfft", "ifft2", "irfft2"):  # whatever the path
            monkeypatch.setattr(np.fft, name, fail)

    def test_empty_sequence_computes_nothing(self, no_transforms):
        zero = SpectralField(GridSpec(32), np.zeros((32, 32), dtype=complex))
        assert cz_ratio(zero, ()) == ()
        assert gagliardo_ratio(zero, []) == ()

    @pytest.mark.parametrize(
        "ratio, ps, named",
        [
            (cz_ratio, (4.0, 8.0, 2.0), "cz_ratio_p2: .*finite p > 2"),
            (cz_ratio, (math.nan, 4.0), "cz_ratio_pnan: .*finite p > 2"),
            (gagliardo_ratio, (2.0, 4.0, math.inf), "gagliardo_ratio_pinf: .*finite p >= 2"),
            (gagliardo_ratio, (1.5,), "gagliardo_ratio_p1.5: .*finite p >= 2"),
        ],
    )
    def test_bad_p_in_sequence_raises_before_any_transform(
        self, no_transforms, ratio, ps, named
    ):
        with pytest.raises(ValueError, match=named):
            ratio(seeded(GridSpec(32), 3), ps)

    def test_undefined_ratio_names_first_p(self):
        g = GridSpec(32)
        zero = SpectralField(g, np.zeros((32, 32), dtype=complex))
        with pytest.raises(ValueError, match="cz_ratio_p4: .*undefined"):
            cz_ratio(zero, (4.0, 8.0))
        with pytest.raises(ValueError, match="gagliardo_ratio_p2: .*undefined"):
            gagliardo_ratio(zero, (2.0, 4.0))

    @pytest.mark.parametrize("m", [32, 64])
    @pytest.mark.parametrize("kind", ["seeded", "nyquist"])
    def test_cz_matches_four_transform_oracle(self, m, kind):
        # the old path: biot_savart, four derivatives, four oversamplings
        g = GridSpec(m)
        if kind == "seeded":
            omega = seeded(g, 5, sigma=3.0)
        else:  # white noise: every Nyquist coefficient nonzero
            values = np.random.default_rng(m).standard_normal((m, m))
            omega = forward_transform(values - values.mean(), g)
            assert np.all(np.abs(omega.coeffs[m // 2, 1:]) > 0)
        u = biot_savart(omega)
        mag = np.sqrt(sum(
            values_oversampled(derivative(c, axis)) ** 2
            for c in (u.u1, u.u2) for axis in (1, 2)
        ))
        vmax = mag.max()
        h2 = (TWO_PI / (2 * m)) ** 2
        sup = lp_norm(omega, math.inf)
        ps = (2.5, 4.0, 16.0, 64.0)
        for p, got in zip(ps, cz_ratio(omega, ps)):
            want = vmax * np.sum((mag / vmax) ** p * h2) ** (1.0 / p) / (p * sup)
            assert abs(got - want) <= 1e-13 * want, p

    def test_multi_p_quadrature_is_per_p_bitwise_and_leaves_input(self):
        a = np.abs(np.random.default_rng(3).standard_normal((64, 64)))
        before = a.copy()
        ps = (1.0, 2.0, 2.5, 4.0, 8.0, 64.0)
        vmax = float(np.max(a))
        h2 = (TWO_PI / 64) ** 2

        def oracle(p):
            if p in (1.0, 2.0, 4.0, 8.0, 64.0):  # powers of two: repeated squaring
                b = a / vmax
                for _ in range(int(math.log2(p))):
                    b = b * b
                return vmax * (h2 * float(np.sum(b))) ** (1.0 / p)
            return vmax * float(np.sum((a / vmax) ** p * h2)) ** (1.0 / p)

        want = tuple(oracle(p) for p in ps)
        assert diagnostics._oversampled_lp(a, 32, ps, np.empty_like(a)) == want
        assert np.array_equal(a, before)
        zero = np.zeros((64, 64))
        assert diagnostics._oversampled_lp(zero, 32, ps, np.empty_like(zero)) == (0.0,) * len(ps)

    def test_unsorted_mixed_p_match_single_p_bitwise(self):
        a = np.abs(np.random.default_rng(4).standard_normal((64, 64)))
        ps = (64.0, 4.0, 2.5, 8.0, 3.0, 2.0)
        buf = np.empty_like(a)
        got = diagnostics._oversampled_lp(a, 32, ps, buf)
        assert got == tuple(diagnostics._oversampled_lp(a, 32, (p,), buf)[0] for p in ps)

    def test_ratios_leave_an_oversampled_array_unchanged(self):
        f = seeded(GridSpec(32), 9, sigma=3.0)
        fine = values_oversampled(f)
        before = fine.copy()
        cz_ratio(f, (4.0, 2.5))
        gagliardo_ratio(f, (2.0, 3.0))
        lp_norm(f, 4.0)
        assert np.array_equal(fine, before)

    def test_workspace_carries_nothing_between_calls(self):
        # two grid sizes, interleaved, with values_oversampled in between:
        # every result equals the value computed alone on a fresh workspace
        f32, f64 = seeded(GridSpec(32), 21, sigma=3.0), seeded(GridSpec(64), 22, sigma=3.0)
        calls = [
            (cz_ratio, f64, (4.0, 2.5)), (gagliardo_ratio, f32, (2.0, 3.0)),
            (values_oversampled, f32, None), (cz_ratio, f32, (4.0, 8.0)),
            (gagliardo_ratio, f64, (2.0, 8.0)), (values_oversampled, f64, None),
            (cz_ratio, f64, (4.0, 2.5)), (lp_norm, f32, 3.0),
        ]

        def run(fn, f, p):
            return fn(f) if p is None else fn(f, p)

        alone = []
        for call in calls:
            diagnostics._oversampling.cache_clear()
            diagnostics._sup.cache_clear()
            alone.append(run(*call))
        held = values_oversampled(f32)
        before = held.copy()
        for call, want in zip(calls, alone):
            got = run(*call)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want)
                assert not np.shares_memory(got, held)
            else:
                assert got == want
        assert np.array_equal(held, before)

    def test_sup_is_computed_once_per_field(self, monkeypatch):
        count = []

        original = diagnostics.inverse_transform

        def counting(f):
            count.append(f)
            return original(f)

        monkeypatch.setattr(diagnostics, "inverse_transform", counting)
        f, h = seeded(GridSpec(32), 23), seeded(GridSpec(32), 24)
        first = lp_norm(f, math.inf)
        assert lp_norm(f, math.inf) == first
        assert count == [f]
        assert first == float(np.max(np.abs(original(f))))
        assert lp_norm(h, math.inf) == float(np.max(np.abs(original(h))))
        assert count == [f, h]

    def test_ratios_bounded_on_seeded_family(self):
        g = GridSpec(64)
        for seed in range(3):
            f = seeded(g, seed, sigma=3.0)
            for p in (4.0, 8.0, 16.0):
                assert cz_ratio(f, p) < 1.0
            for p in (2.0, 4.0, 8.0, 16.0):
                assert gagliardo_ratio(f, p) < 1.05


def small_pair(alpha=1e-2, t_end=0.3):
    g = GridSpec(32)
    f = make_random_sobolev(g, sigma=3.0, seed=14, band=g.dealias_cutoff)
    every = 0.1
    base_cfg = dict(grid=g, t_end=t_end, record_every=every, snapshot_every=every, dt=0.02)
    a = integrate(f, SolverConfig(alpha=0.0, **base_cfg))
    b = integrate(f, SolverConfig(alpha=alpha, **base_cfg))
    return a, b


class TestErrorNorms:
    def test_identical_records_give_zero(self):
        a, _ = small_pair()
        errs = error_norms(a, a)
        assert errs == {"sup_u_l2": 0.0, "sup_omega_l2": 0.0, "sup_u_h1": 0.0}

    def test_scaled_record_linearity(self):
        a, _ = small_pair()
        eps = 1e-3
        scaled = TrajectoryRecord(
            a.config,
            times=a.times,
            diagnostics=a.diagnostics,
            snapshots=[(t, (1.0 + eps) * w) for t, w in a.snapshots],
        )
        errs = error_norms(a, scaled)
        expected = eps * max(l2_norm(w) for _, w in a.snapshots)
        assert errs["sup_omega_l2"] == pytest.approx(expected, rel=1e-10)

    def test_recomputation_oracle(self):
        # independent reimplementation straight from the snapshot values
        a, b = small_pair()
        tpi = 2.0 * math.pi
        m = a.config.grid.size
        k = np.fft.fftfreq(m, 1.0 / m)
        ksq = k[:, None] ** 2 + k[None, :] ** 2
        inv = np.zeros_like(ksq)
        nz = ksq > 0
        inv[nz] = 1.0 / ksq[nz]
        sup_w = sup_u = sup_h1 = 0.0
        for (_, wa), (_, wb) in zip(a.snapshots, b.snapshots):
            dw = wa.coeffs - wb.coeffs
            sup_w = max(sup_w, tpi * np.linalg.norm(dw))
            psi = -dw * inv
            u1 = 1j * k[None, :] * psi * -1.0  # -d2 psi
            u2 = 1j * k[:, None] * psi
            usq = np.abs(u1) ** 2 + np.abs(u2) ** 2
            sup_u = max(sup_u, tpi * math.sqrt(float(np.sum(usq))))
            sup_h1 = max(
                sup_h1, tpi * math.sqrt(float(np.sum((1.0 + ksq) * usq)))
            )
        errs = error_norms(a, b)
        assert errs["sup_omega_l2"] == pytest.approx(sup_w, rel=1e-12)
        assert errs["sup_u_l2"] == pytest.approx(sup_u, rel=1e-12)
        assert errs["sup_u_h1"] == pytest.approx(sup_h1, rel=1e-12)

    @pytest.mark.parametrize("m", [16, 32, 64])
    def test_matches_biot_savart_oracle(self, m):
        # white noise: every Nyquist coefficient nonzero, where the d tables
        # and |k|^2 differ
        g = GridSpec(m)
        rng = np.random.default_rng(m + 3)

        def record(snapshots):
            cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.2, record_every=0.1)
            return TrajectoryRecord(cfg, np.array([0.0, 0.1, 0.2]), {}, snapshots)

        def noise():
            values = rng.standard_normal((m, m))
            return forward_transform(values - values.mean(), g)

        times = (0.0, 0.1, 0.2)
        a = record([(t, noise()) for t in times])
        b = record([(t, noise()) for t in times])
        sup_u = sup_w = sup_h1 = 0.0
        for (_, wa), (_, wb) in zip(a.snapshots, b.snapshots):
            d = wa - wb
            assert np.all(np.abs(d.coeffs[m // 2, 1:]) > 0)
            assert np.all(np.abs(d.coeffs[1:, m // 2]) > 0)
            u = biot_savart(d)
            sup_w = max(sup_w, l2_norm(d))
            sup_u = max(sup_u, math.sqrt(l2_norm(u.u1) ** 2 + l2_norm(u.u2) ** 2))
            sup_h1 = max(
                sup_h1, math.sqrt(sobolev_norm(u.u1, 1.0) ** 2 + sobolev_norm(u.u2, 1.0) ** 2)
            )
        got = error_norms(a, b)
        assert got["sup_omega_l2"] == sup_w
        assert abs(got["sup_u_l2"] - sup_u) <= 1e-14 * sup_u
        assert abs(got["sup_u_h1"] - sup_h1) <= 1e-14 * sup_h1

    def test_mismatched_grids_rejected(self):
        a, _ = small_pair()
        g2 = GridSpec(16)
        f2 = make_random_sobolev(g2, sigma=3.0, seed=14, band=4)
        other = integrate(
            f2,
            SolverConfig(
                grid=g2, alpha=0.0, t_end=0.3, record_every=0.1, snapshot_every=0.1, dt=0.02
            ),
        )
        with pytest.raises(ValueError):
            error_norms(a, other)

    def test_missing_snapshots_rejected(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=3.0, seed=14, band=g.dealias_cutoff)
        rec = integrate(
            f, SolverConfig(grid=g, alpha=0.0, t_end=0.2, record_every=0.1, dt=0.02)
        )
        with pytest.raises(ValueError):
            error_norms(rec, rec)
