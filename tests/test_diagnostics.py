"""Norms, conserved quantities, inequality ratios, and error norms."""

import math
import tracemalloc

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
from wavenumbers import full_tables

#: regression values frozen from dense quadrature oracles (M = 1024)
COS_L4 = 1.9615426303003437  # (3 pi^2 / 2)^(1/4)
COS_GAGLIARDO_P2 = 0.44150220872428153


def cos_x1(grid: GridSpec) -> SpectralField:
    x1, _ = grid.meshgrid()
    return forward_transform(np.cos(x1), grid)


def seeded(grid: GridSpec, seed: int = 0, sigma: float = 2.5) -> SpectralField:
    return make_random_sobolev(grid, sigma=sigma, seed=seed, band=grid.dealias_cutoff)


def traced_peak(fn, *args):
    """fn(*args), and the peak of what tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


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

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_sobolev_rejects_non_finite_order(self, s):
        with pytest.raises(ValueError, match="sobolev order must be finite"):
            sobolev_norm(cos_x1(GridSpec(32)), s)

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

    @pytest.mark.parametrize(
        "name, arrays",
        [("l2_norm", 1), ("gradient_l2", 1), ("sobolev_norm", 2), ("_velocity_sobolev", 2)],
    )
    def test_warm_quadratic_norm_allocates_only_its_half_spectra(self, name, arrays):
        # |f_hat|^2, squared and weighted in place, is one (M, M/2+1) float
        # array, and a Sobolev weight (1 + |k|^2)^s a second one: a warm norm
        # allocates those and less than a quarter of one more, so a full
        # M x M array in a norm would show.  M = 512, as for the ufunc
        # buffers of test_warm_cz_ratio_allocates_no_plane
        m = 512
        f = seeded(GridSpec(m), 24, sigma=3.0)
        fn = getattr(diagnostics, name)
        args = (f,) if name in ("l2_norm", "gradient_l2") else (f, 1.0)
        want = fn(*args)
        got, peak = traced_peak(fn, *args)
        assert got == want
        assert peak < (arrays + 0.25) * np.empty((m, m // 2 + 1)).nbytes


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
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                sample_state(f, alpha)

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

    def test_warm_sample_state_allocates_only_the_sup_and_its_sums(self):
        # with the sup kept, a warm call allocates the three (M, M/2+1) float
        # arrays of its sums, |omega_hat|^2, its velocity-weighted product
        # and 1 + alpha|k|^2, and less than a quarter of one more.  A fresh
        # sup is taken first and adds only inverse_transform's three complex
        # M x M arrays: the full-layout mirror and the outputs of ifft2's two
        # passes (numpy drops ifft2's out=).  M = 512, as for the ufunc
        # buffers of test_warm_cz_ratio_allocates_no_plane
        m = 512
        f = seeded(GridSpec(m), 25, sigma=3.0)
        half = np.empty((m, m // 2 + 1)).nbytes
        full = np.empty((m, m), dtype=complex).nbytes
        want = sample_state(f, 0.1)
        got, peak = traced_peak(sample_state, f, 0.1)
        assert got == want
        assert peak < 3 * half + half / 4
        diagnostics._sup.cache_clear()
        got, peak = traced_peak(sample_state, f, 0.1)
        assert got == want
        assert peak < 3 * full + half / 4

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
        u1, u2 = biot_savart(omega)
        k = np.fft.fftfreq(m, d=1.0 / m)
        w = 1.0 + alpha * (k[:, None] ** 2 + k[None, :] ** 2)

        def energy(weight):
            return TWO_PI**2 * sum(np.sum(weight * np.abs(c.coeffs) ** 2) for c in (u1, u2))

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


class TestHalfSpectrumWeights:
    def test_every_quadratic_norm_matches_the_full_plane(self):
        # M = 96 white noise: every Nyquist row and column coefficient is
        # nonzero, where weight 1 (not 2) and the d tables matter
        m = 96
        g = GridSpec(m)
        rng = np.random.default_rng(96)
        fields = []
        for _ in range(2):
            values = rng.standard_normal((m, m))
            fields.append(forward_transform(values - values.mean(), g))
        omega = fields[0]
        c = omega.coeffs
        assert np.all(np.abs(c[m // 2, 1:]) > 0) and np.all(np.abs(c[1:, m // 2]) > 0)
        k = np.fft.fftfreq(m, d=1.0 / m)
        d = k.copy()
        d[m // 2] = 0.0
        ksq = k[:, None] ** 2 + k[None, :] ** 2
        inv = np.zeros_like(ksq)
        inv[ksq > 0] = 1.0 / ksq[ksq > 0]
        vel = (d[:, None] ** 2 + d[None, :] ** 2) * inv**2

        def full(weight, x=c):
            return math.sqrt(TWO_PI**2 * float(np.sum(weight * np.abs(x) ** 2)))

        alpha = 0.01
        state = sample_state(omega, alpha)
        pairs = [
            (l2_norm(omega), full(1.0)),
            (gradient_l2(omega), full(ksq)),
            (diagnostics._velocity_sobolev(omega, 0.0), full(vel)),
            (diagnostics._velocity_sobolev(omega, 1.0), full((1.0 + ksq) * vel)),
            (math.sqrt(state["energy"]), full(vel)),
            (math.sqrt(state["enstrophy"]), full(1.0)),
            (math.sqrt(state["voigt_energy"]), full((1.0 + alpha * ksq) * vel)),
            (math.sqrt(state["voigt_enstrophy"]), full(1.0 + alpha * ksq)),
        ]
        pairs += [(sobolev_norm(omega, s), full((1.0 + ksq) ** s)) for s in (-1.0, 0.5, 2.0)]
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.1, record_every=0.1)
        a, b = (TrajectoryRecord(cfg, np.array([0.0]), {}, [(0.0, f)]) for f in fields)
        errs = error_norms(a, b)
        diff = fields[0].coeffs - fields[1].coeffs
        pairs += [
            (errs["sup_omega_l2"], full(1.0, diff)),
            (errs["sup_u_l2"], full(vel, diff)),
            (errs["sup_u_h1"], full((1.0 + ksq) * vel, diff)),
        ]
        for i, (got, want) in enumerate(pairs):
            assert abs(got - want) <= 1e-14 * want, i

    @pytest.mark.parametrize("m", [8, 10, 64, 96])
    def test_root_of_enstrophy_is_l2_norm_bitwise(self, m):
        # diagnose prints omega_l2 as sqrt(enstrophy) of sample_state, the
        # same folded sum as l2_norm
        g = GridSpec(m)
        for seed in range(20):
            values = np.random.default_rng([m, seed]).standard_normal((m, m))
            omega = forward_transform(values - values.mean(), g)
            state = sample_state(omega, 0.0)
            assert math.sqrt(state["enstrophy"]) == l2_norm(omega), seed


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

    @pytest.mark.parametrize("m", [32, 64, 80])
    @pytest.mark.parametrize("kind", ["seeded", "nyquist"])
    def test_cz_matches_four_transform_oracle(self, m, kind):
        # the old path: biot_savart, four derivatives, four oversamplings;
        # at M = 80 the pass along k2 runs in row blocks of 128 and 32
        g = GridSpec(m)
        if kind == "seeded":
            omega = seeded(g, 5, sigma=3.0)
        else:  # white noise: every Nyquist coefficient nonzero
            values = np.random.default_rng(m).standard_normal((m, m))
            omega = forward_transform(values - values.mean(), g)
            assert np.all(np.abs(omega.coeffs[m // 2, 1:]) > 0)
        t = full_tables(g)
        mag = np.sqrt(sum(
            values_oversampled(SpectralField(g, 1j * d * c.coeffs)) ** 2
            for c in biot_savart(omega) for d in (t.d1, t.d2)
        ))
        vmax = mag.max()
        h2 = (TWO_PI / (2 * m)) ** 2
        sup = lp_norm(omega, math.inf)
        ps = (2.5, 4.0, 16.0, 64.0)
        for p, got in zip(ps, cz_ratio(omega, ps)):
            want = vmax * np.sum((mag / vmax) ** p * h2) ** (1.0 / p) / (p * sup)
            assert abs(got - want) <= 1e-13 * want, p

    def test_multi_p_quadrature_is_per_p_bitwise_and_leaves_input(self):
        ps = (1.0, 2.0, 2.5, 4.0, 8.0, 64.0)
        h2 = (TWO_PI / 64) ** 2

        def oracle(a, p):
            vmax = float(np.max(a))
            if p in (1.0, 2.0, 4.0, 8.0, 64.0):  # powers of two: repeated squaring
                b = a / vmax
                for _ in range(int(math.log2(p))):
                    b = b * b
                return vmax * (h2 * float(np.sum(b))) ** (1.0 / p)
            # any other p: exp(p log(a/vmax)), summed over the code's blocks
            # of min(64, M) = 32 rows, one block sum at a time
            total = 0.0
            for block in (a[:32], a[32:]):
                total += float(np.sum(np.exp(np.log(block / vmax) * p)))
            return vmax * (h2 * total) ** (1.0 / p)

        # seeds 0-199 of the input: the oracle is the code's arithmetic, so
        # no seed may pass by luck of the last bit
        for s in range(200):
            a = np.abs(np.random.default_rng(s).standard_normal((64, 64)))
            before = a.copy()
            want = tuple(oracle(a, p) for p in ps)
            assert diagnostics._oversampled_lp(a, 32, ps, np.empty_like(a)) == want, s
            assert np.array_equal(a, before)
        zero = np.zeros((64, 64))
        assert diagnostics._oversampled_lp(zero, 32, ps, np.empty_like(zero)) == (0.0,) * len(ps)

    def test_unsorted_mixed_p_match_single_p_bitwise(self):
        a = np.abs(np.random.default_rng(4).standard_normal((64, 64)))
        ps = (64.0, 4.0, 2.5, 8.0, 3.0, 2.0)
        buf = np.empty_like(a)
        got = diagnostics._oversampled_lp(a, 32, ps, buf)
        assert got == tuple(diagnostics._oversampled_lp(a, 32, (p,), buf)[0] for p in ps)

    def test_quadrature_over_uneven_row_blocks(self):
        # M = 80: the 160 rows of the oversampled grid are summed in blocks
        # of 64, 64 and 32; powers of two and the exp-log path alike agree
        # with the plain power
        m = 80
        a = np.abs(np.random.default_rng(5).standard_normal((2 * m, 2 * m)))
        ps = (2.5, 8.0 / 3.0, 4.0, 64.0 / 31.0)
        vmax = float(np.max(a))
        h2 = (TWO_PI / (2 * m)) ** 2
        got = diagnostics._oversampled_lp(a, m, ps, np.empty_like(a))
        for norm, p in zip(got, ps):
            want = vmax * (h2 * float(np.sum((a / vmax) ** p))) ** (1.0 / p)
            assert norm == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_quadrature_of_exact_zeros_is_silent(self):
        # log(0) = -inf raises no warning (pytest turns warnings into
        # errors) and exp(-inf) = 0 leaves the zeros out of the sum
        m = 32
        a = np.zeros((2 * m, 2 * m))
        a[::2, ::3] = 1.0
        a[5, 7] = 0.5
        count = int(np.count_nonzero(a == 1.0))
        h2 = (TWO_PI / (2 * m)) ** 2
        for p in (2.5, 3.0, 4.0):
            want = (h2 * (count + 0.5**p)) ** (1.0 / p)
            (got,) = diagnostics._oversampled_lp(a, m, (p,), np.empty_like(a))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_quadrature_allocates_no_plane(self):
        # after a warm-up call, every p works in row slices of the scratch
        # buffer: no fresh 2M x 2M-sized array
        import tracemalloc

        m = 64
        a = np.abs(np.random.default_rng(6).standard_normal((2 * m, 2 * m)))
        buf = np.empty_like(a)
        ps = (4.0, 2.5, 8.0 / 3.0, 64.0)
        diagnostics._oversampled_lp(a, m, ps, buf)
        tracemalloc.start()
        try:
            diagnostics._oversampled_lp(a, m, ps, buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 8

    def test_warm_cz_ratio_allocates_no_plane(self):
        # after a warm-up call, the gradient components go straight into the
        # workspace pad and their squares into its one plane: no psi, no
        # product and no second plane.  M = 512, because numpy's ufunc
        # iterator buffers up to 8192 elements of each operand of a
        # broadcasting multiply: at M = 64 one in-place product into the pad
        # already peaks above 1/8 of the plane
        import tracemalloc

        from voigt2d.spectral import _oversampling

        m = 512
        f = seeded(GridSpec(m), 23, sigma=3.0)
        ps = (4.0, 2.5, 64.0)
        want = cz_ratio(f, ps)
        tracemalloc.start()
        try:
            got = cz_ratio(f, ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < _oversampling(m).plane.nbytes / 8

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
            u1, u2 = biot_savart(d)
            sup_w = max(sup_w, l2_norm(d))
            sup_u = max(sup_u, math.sqrt(l2_norm(u1) ** 2 + l2_norm(u2) ** 2))
            sup_h1 = max(
                sup_h1, math.sqrt(sobolev_norm(u1, 1.0) ** 2 + sobolev_norm(u2, 1.0) ** 2)
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

    def test_different_snapshot_times_rejected(self):
        g = GridSpec(16)
        f = cos_x1(g)
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.2, record_every=0.1)

        def record(times):
            return TrajectoryRecord(cfg, np.array(times), {}, [(t, f) for t in times])

        with pytest.raises(ValueError, match="snapshot time grids differ"):
            error_norms(record([0.0, 0.1]), record([0.0, 0.2]))

    def test_missing_snapshots_rejected(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=3.0, seed=14, band=g.dealias_cutoff)
        rec = integrate(
            f, SolverConfig(grid=g, alpha=0.0, t_end=0.2, record_every=0.1, dt=0.02)
        )
        with pytest.raises(ValueError):
            error_norms(rec, rec)
