"""The right-hand side, the RK4 stepper, and the event-driven integrator."""


import numpy as np
import pytest

from voigt2d import (
    TWO_PI,
    BlowUpError,
    GridSpec,
    SolverConfig,
    SpectralField,
    SymmetryError,
    biot_savart,
    cfl_dt,
    dealias,
    forward_transform,
    helmholtz_filter,
    integrate,
    l2_norm,
    rhs,
    step_rk4,
    zero_mean,
)
from voigt2d import dynamics
from voigt2d.dynamics import _event_times, _schedule
from voigt2d.spectral import _field, _half, _hermitian_defect
from voigt2d.grid import tables
from voigt2d.initial_data import make_eigenfunction, make_random_sobolev


def two_mode(grid: GridSpec) -> SpectralField:
    """cos(x1) + cos(2 x2): the advection term has a closed form."""
    x1, x2 = grid.meshgrid()
    return forward_transform(np.cos(x1) + np.cos(2.0 * x2), grid)


def full_layout_rhs(omega: SpectralField, alpha: float) -> SpectralField:
    """Reference right-hand side on the M x M spectrum, one operator at a
    time: biot_savart, complex transforms, dealias, zero_mean, helmholtz_filter."""
    g = omega.grid

    def values(c):
        return np.fft.ifft2(c).real * g.size**2

    u = biot_savart(omega)
    t = tables(g)
    w1 = values((1j * t.d1) * omega.coeffs)
    w2 = values((1j * t.d2) * omega.coeffs)
    adv = forward_transform(-(values(u.u1.coeffs) * w1 + values(u.u2.coeffs) * w2), g)
    return helmholtz_filter(zero_mean(dealias(adv)), alpha)


def advection_table(m: int) -> np.ndarray:
    """(4, M, M/2+1) multipliers taking the half spectrum of omega to those
    of u1, u2, d1 omega, d2 omega, over every column."""
    t = tables(GridSpec(m))
    h = m // 2 + 1
    i_d1, i_d2, inv = 1j * t.d1[:, :h], 1j * t.d2[:, :h], t.inv_ksq[:, :h]
    return np.stack([i_d2 * inv, -i_d1 * inv, i_d1, i_d2])


def unpruned_rhs(w: np.ndarray, alpha: float) -> np.ndarray:
    """The right-hand side over every half-spectrum column: the four factors
    from one irfft2 of the advection multipliers times w, one rfft2 of the
    products, one multiply by the fused projection."""
    m = w.shape[0]
    t = tables(GridSpec(m))
    h = m // 2 + 1
    projection = -(m**2) * t.dealias_mask[:, :h] / (1.0 + alpha * t.ksq[:, :h])
    projection[0, 0] = 0.0
    u1, u2, w1, w2 = np.fft.irfft2(advection_table(m) * w, s=(m, m))
    return np.fft.rfft2(u1 * w1 + u2 * w2) * projection


def textbook_rk4(w: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    k1 = unpruned_rhs(w, alpha)
    k2 = unpruned_rhs(w + (0.5 * dt) * k1, alpha)
    k3 = unpruned_rhs(w + (0.5 * dt) * k2, alpha)
    k4 = unpruned_rhs(w + dt * k3, alpha)
    return w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def dealiased_half(m: int, seed: int) -> np.ndarray:
    g = GridSpec(m)
    return _half(make_random_sobolev(g, sigma=2.5, seed=seed, band=g.dealias_cutoff))


class TestHalfSpectrum:
    @pytest.mark.parametrize("m", [16, 32, 64])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_rhs_matches_full_layout_oracle(self, m, alpha):
        g = GridSpec(m)
        f = make_random_sobolev(g, sigma=2.5, seed=m, band=g.dealias_cutoff)
        want = full_layout_rhs(f, alpha).coeffs
        got = _field(rhs(_half(f), alpha))
        assert _hermitian_defect(got.coeffs) == 0.0
        assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [16, 32, 64])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_bit_identical_to_unpruned_form(self, m, alpha):
        a = b = dealiased_half(m, seed=m)
        assert np.array_equal(rhs(a, alpha), unpruned_rhs(b, alpha))
        dt = 0.2 * GridSpec(m).spacing
        for _ in range(5):
            a = step_rk4(a, dt, alpha)
            b = textbook_rk4(b, dt, alpha)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_rhs_is_galerkin_rhs_of_dealiased_input(self, alpha):
        # modes beyond floor(M/3) in either k1 or k2 are ignored, not only
        # those in the k2 columns the transforms skip
        g = GridSpec(32)
        rng = np.random.default_rng(13)
        f = zero_mean(forward_transform(rng.standard_normal((32, 32)), g))
        w, clean = _half(f), _half(dealias(f))
        assert np.max(np.abs(w - clean)) > 0.01 * np.max(np.abs(w))
        assert np.array_equal(rhs(w, alpha), rhs(clean, alpha))

    def test_field_of_half_is_identity_on_hermitian_fields(self):
        f = make_random_sobolev(GridSpec(32), sigma=2.0, seed=11, band=10)
        assert np.array_equal(_field(_half(f)).coeffs, f.coeffs)

    def test_record_and_snapshot_states_exactly_hermitian(self, monkeypatch):
        original = dynamics.sample_state
        seen = []

        def recorded(omega, alpha):
            seen.append(omega)
            return original(omega, alpha)

        monkeypatch.setattr(dynamics, "sample_state", recorded)
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.5, seed=12, band=g.dealias_cutoff)
        cfg = SolverConfig(
            grid=g, alpha=0.01, t_end=0.3, record_every=0.1, snapshot_every=0.15
        )
        rec = integrate(f, cfg)
        states = seen + [w for _, w in rec.snapshots]
        assert len(seen) == 4 and len(rec.snapshots) == 3
        assert [_hermitian_defect(w.coeffs) for w in states] == [0.0] * len(states)


class TestRightHandSides:
    def test_euler_rhs_closed_form(self):
        g = GridSpec(64)
        r = _field(rhs(_half(two_mode(g)), 0.0))
        x1, x2 = g.meshgrid()
        expected = 1.5 * np.sin(x1) * np.sin(2.0 * x2)
        got = np.fft.ifft2(r.coeffs * g.size**2).real
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_voigt_rhs_is_filtered_euler(self):
        g = GridSpec(64)
        w = _half(two_mode(g))
        alpha = 0.2
        euler = rhs(w, 0.0)
        voigt = rhs(w, alpha)
        # the advection term lives on modes with |k|^2 = 5
        assert np.max(np.abs(voigt - euler / (1.0 + 5.0 * alpha))) < 1e-14

    def test_rhs_orthogonal_to_state(self):
        # d/dt ||omega||^2 = 2 (omega, rhs) = 0 for the spectral Euler system
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.5, seed=1, band=g.dealias_cutoff)
        r = _field(rhs(_half(f), 0.0))
        inner = TWO_PI**2 * np.real(np.sum(r.coeffs * np.conj(f.coeffs)))
        assert abs(inner) < 1e-12 * l2_norm(f) ** 2

    def test_eigenfunction_is_steady(self):
        g = GridSpec(32)
        f = make_eigenfunction(g, (1, 2), amplitude=2.0)
        assert float(np.max(np.abs(rhs(_half(f), 0.0)))) == 0.0
        assert float(np.max(np.abs(rhs(_half(f), 0.3)))) == 0.0

    def test_rhs_rejects_negative_alpha(self):
        for alpha in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                rhs(_half(two_mode(GridSpec(16))), alpha)

    def test_rhs_mean_free_and_dealiased(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.0, seed=2, band=g.dealias_cutoff)
        r = _field(rhs(_half(f), 0.0))
        assert r.mean_coefficient == 0.0
        cut = g.dealias_cutoff
        k = np.fft.fftfreq(g.size, 1.0 / g.size).astype(int)
        high = np.maximum(np.abs(k)[:, None], np.abs(k)[None, :]) > cut
        assert np.max(np.abs(r.coeffs[high])) == 0.0


class TestWorkspace:
    def test_inputs_never_written(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.5, seed=14, band=g.dealias_cutoff)
        before = f.coeffs.copy()
        w = _half(f)  # a non-contiguous view into f
        assert not w.flags.c_contiguous
        rhs(w, 0.1)
        rhs(w, 0.1, out=np.empty_like(w))
        step_rk4(w, 0.01, 0.1)
        assert np.array_equal(f.coeffs, before)

    def test_held_results_not_changed_by_later_calls(self):
        w = dealiased_half(32, seed=15)
        r = rhs(w, 0.0)
        s = step_rk4(w, 0.01, 0.0)
        r_copy, s_copy = r.copy(), s.copy()
        rhs(s, 0.1)
        step_rk4(s, 0.01, 0.1)
        step_rk4(r, 0.01, 0.0)
        assert np.array_equal(r, r_copy)
        assert np.array_equal(s, s_copy)

    def test_out_is_filled_and_returned(self):
        w = dealiased_half(32, seed=16)
        buf = np.full_like(w, np.nan)
        assert rhs(w, 0.1, out=buf) is buf
        assert np.array_equal(buf, rhs(w, 0.1))

    def test_interleaved_grids_and_alphas_match_separate_runs(self):
        calls = [(m, alpha) for m in (32, 64) for alpha in (0.0, 0.1)]
        states = {m: dealiased_half(m, seed=17 + m) for m in (32, 64)}

        def run(order):
            state = {call: states[call[0]] for call in calls}
            results = {call: [] for call in calls}
            for m, alpha in order:
                w = state[(m, alpha)]
                results[(m, alpha)].append(rhs(w, alpha))
                state[(m, alpha)] = step_rk4(w, 0.2 * GridSpec(m).spacing, alpha)
                results[(m, alpha)].append(state[(m, alpha)])
            return results

        separate = run([call for call in calls for _ in range(3)])
        interleaved = run(calls * 3)
        for key in calls:
            assert all(np.array_equal(a, b) for a, b in zip(separate[key], interleaved[key]))


class TestStepper:
    def test_rk4_self_convergence_order(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=3.0, seed=3, band=g.dealias_cutoff)
        dt = 0.02

        def advance(w, step, n):
            for _ in range(n):
                w = step_rk4(w, step, 0.0)
            return w

        w = _half(f)
        coarse = _field(advance(w, dt, 8))
        mid = _field(advance(w, dt / 2, 16))
        fine = _field(advance(w, dt / 4, 32))
        e1 = l2_norm(coarse - mid)
        e2 = l2_norm(mid - fine)
        # classical four-stage Runge-Kutta: halving dt divides the error by ~16
        assert 12.0 < e1 / e2 < 20.0

    def test_single_step_preserves_mean(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.0, seed=4, band=g.dealias_cutoff)
        assert step_rk4(_half(f), 0.01, 0.1)[0, 0] == 0.0

    def test_cfl_dt_formula(self):
        g = GridSpec(32)
        w = _half(make_eigenfunction(g, (1, 0), amplitude=2.0))
        # |u| peaks at 2: dt = c * h / 2
        assert cfl_dt(w, 0.5) == pytest.approx(0.5 * g.spacing / 2.0, rel=1e-12)

    def test_cfl_dt_floor_for_zero_velocity(self):
        g = GridSpec(32)
        zero = np.zeros((32, 17), dtype=complex)
        assert cfl_dt(zero, 0.5) <= 0.5 * g.spacing / 1e-12
        assert np.isfinite(cfl_dt(zero, 0.5))


class TestCflDt:
    def test_is_the_step_of_the_dealiased_velocity(self):
        g = GridSpec(32)
        rng = np.random.default_rng(21)
        f = zero_mean(forward_transform(rng.standard_normal((32, 32)), g))
        w, clean = _half(f), _half(dealias(f))
        assert np.max(np.abs(w - clean)) > 0.01 * np.max(np.abs(w))
        assert cfl_dt(w, 0.5) == cfl_dt(clean, 0.5)

    @pytest.mark.parametrize("m", [16, 32, 64])
    def test_bit_identical_to_unpruned_oracle(self, m):
        # on dealiased data, the velocity from one irfft2 over every column
        g = GridSpec(m)
        w = dealiased_half(m, seed=22 + m)
        u = np.fft.irfft2(advection_table(m)[:2] * w, s=(m, m))
        want = 0.5 * g.spacing / max(float(np.max(np.abs(u))) * m**2, 1e-12)
        assert cfl_dt(w, 0.5) == want

    def test_input_not_written(self):
        g = GridSpec(32)
        f = forward_transform(np.random.default_rng(23).standard_normal((32, 32)), g)
        before = f.coeffs.copy()
        cfl_dt(_half(f), 0.5)
        assert np.array_equal(f.coeffs, before)

    def test_rhs_unchanged_by_calls_between(self):
        w = dealiased_half(32, seed=24)
        alone = [rhs(w, 0.1), step_rk4(w, 0.01, 0.1)]
        cfl_dt(w, 0.5)
        r = rhs(w, 0.1)
        cfl_dt(dealiased_half(32, seed=25), 0.5)
        s = step_rk4(w, 0.01, 0.1)
        assert np.array_equal(r, alone[0]) and np.array_equal(s, alone[1])


class TestIntegrate:
    def test_record_grid(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=3.0, seed=5, band=g.dealias_cutoff)
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.5, record_every=0.1)
        rec = integrate(f, cfg)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == 0.5
        assert len(rec.times) == 6
        assert np.max(np.abs(np.diff(rec.times) - 0.1)) < 1e-12

    def test_record_grid_with_uneven_final_interval(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=3.0, seed=5, band=g.dealias_cutoff)
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.25, record_every=0.1)
        rec = integrate(f, cfg)
        assert rec.times[-1] == 0.25
        assert len(rec.times) == 4  # 0, 0.1, 0.2, 0.25

    def test_rejects_non_real_initial_data(self):
        # two modes without conjugate partners: stepping the half spectrum
        # would silently integrate only the field's Hermitian part
        g = GridSpec(16)
        c = np.zeros((16, 16), dtype=complex)
        c[1, 2] = c[2, 1] = 1.0
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.1, record_every=0.1, dt=0.01)
        with pytest.raises(SymmetryError, match="not real"):
            integrate(SpectralField(g, c), cfg)

    @pytest.mark.parametrize("m", [32, 64])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.1])
    def test_amplitude_time_scaling_is_exact(self, m, alpha):
        # Euler-Voigt is invariant under omega -> 2 omega, t -> t/2; scaling
        # by a power of two is exact in floating point, so with dt, t_end and
        # the record and snapshot spacing halved the run agrees bit for bit
        g = GridSpec(m)
        f = make_random_sobolev(g, sigma=2.5, seed=m, band=g.dealias_cutoff)
        dt = 0.25 * g.spacing
        base = SolverConfig(
            grid=g, alpha=alpha, t_end=0.3, record_every=0.1, snapshot_every=0.15, dt=dt
        )
        fast = SolverConfig(
            grid=g,
            alpha=alpha,
            t_end=0.15,
            record_every=0.05,
            snapshot_every=0.075,
            dt=dt / 2,
        )
        a = integrate(f, base)
        b = integrate(2.0 * f, fast)
        assert np.array_equal(b.times, 0.5 * a.times)
        assert np.array_equal(b.diagnostics["omega_sup"], 2.0 * a.diagnostics["omega_sup"])
        for key in ("energy", "enstrophy", "voigt_energy", "voigt_enstrophy"):
            assert np.array_equal(b.diagnostics[key], 4.0 * a.diagnostics[key]), key
        assert len(a.snapshots) == len(b.snapshots) == 3
        for (ta, wa), (tb, wb) in zip(a.snapshots, b.snapshots):
            assert tb == 0.5 * ta
            assert np.array_equal(wb.coeffs, 2.0 * wa.coeffs)

    def test_enstrophy_conserved_euler(self):
        g = GridSpec(64)
        f = make_random_sobolev(g, sigma=4.0, seed=6, band=3)
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.5, record_every=0.1)
        rec = integrate(f, cfg)
        ens = rec.diagnostics["enstrophy"]
        assert np.max(np.abs(ens - ens[0])) / ens[0] < 1e-8
        en = rec.diagnostics["energy"]
        assert np.max(np.abs(en - en[0])) / en[0] < 1e-8

    def test_voigt_invariants_conserved(self):
        g = GridSpec(64)
        f = make_random_sobolev(g, sigma=4.0, seed=7, band=3)
        cfg = SolverConfig(grid=g, alpha=0.05, t_end=0.5, record_every=0.1)
        rec = integrate(f, cfg)
        for key in ("voigt_energy", "voigt_enstrophy"):
            v = rec.diagnostics[key]
            assert np.max(np.abs(v - v[0])) / v[0] < 1e-8

    def test_plain_energy_not_conserved_by_voigt(self):
        # the Voigt system trades ||u||^2 against alpha ||grad u||^2
        g = GridSpec(64)
        f = make_random_sobolev(g, sigma=3.0, seed=7, band=g.dealias_cutoff)
        cfg = SolverConfig(grid=g, alpha=0.5, t_end=1.0, record_every=0.25, dt=0.01)
        rec = integrate(f, cfg)
        en = rec.diagnostics["energy"]
        assert np.max(np.abs(en - en[0])) / en[0] > 1e-7

    def test_deterministic_rerun(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.5, seed=8, band=g.dealias_cutoff)
        cfg = SolverConfig(
            grid=g, alpha=0.01, t_end=0.3, record_every=0.1, snapshot_every=0.1
        )
        a = integrate(f, cfg)
        b = integrate(f, cfg)
        assert np.array_equal(a.times, b.times)
        for key in a.diagnostics:
            assert np.array_equal(a.diagnostics[key], b.diagnostics[key])
        for (ta, wa), (tb, wb) in zip(a.snapshots, b.snapshots):
            assert ta == tb
            assert np.array_equal(wa.coeffs, wb.coeffs)

    def test_snapshot_times(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.5, seed=8, band=g.dealias_cutoff)
        cfg = SolverConfig(
            grid=g, alpha=0.0, t_end=0.4, record_every=0.1, snapshot_every=0.2
        )
        rec = integrate(f, cfg)
        assert [t for t, _ in rec.snapshots] == [0.0, 0.2, 0.4]

    def test_schedule_merges_near_coincident_snapshots(self):
        # k * 0.3 and k * 0.1 round differently: 0.3 vs 0.30000000000000004
        cfg = SolverConfig(
            grid=GridSpec(16), alpha=0.0, t_end=1.0, record_every=0.1, snapshot_every=0.3
        )
        events, records, snaps = _schedule(cfg)
        assert len(events) == 10
        assert records == set(events) == set(_event_times(1.0, 0.1))
        assert snaps <= records and len(snaps) == 4
        rec = integrate(make_eigenfunction(cfg.grid, (1, 0)), cfg)
        stamps = [t for t, _ in rec.snapshots]
        assert stamps == [0.0] + sorted(snaps)
        assert set(stamps) <= set(rec.times.tolist())

    @pytest.mark.parametrize(
        "dt, record_every, t_end, steps",
        [(0.02, 0.1, 0.5, 25), (1.0 / 30.0, 0.1, 1.0, 30), (0.01, 0.05, 0.1, 10)],
    )
    def test_no_sliver_steps(self, monkeypatch, dt, record_every, t_end, steps):
        # t + dt rounds just below some record times, e.g. 0.08 + 0.02 < 0.1;
        # the clock lands on the event instead of taking a ~1e-17 step
        calls = []

        def counted(omega, step, alpha):
            calls.append(step)
            return step_rk4(omega, step, alpha)

        monkeypatch.setattr(dynamics, "step_rk4", counted)
        g = GridSpec(16)
        cfg = SolverConfig(
            grid=g, alpha=0.0, t_end=t_end, record_every=record_every, dt=dt
        )
        rec = integrate(make_eigenfunction(g, (1, 0)), cfg)
        assert len(calls) == steps
        assert min(calls) > 0.99 * dt
        assert rec.times[-1] == t_end

    def test_no_snapshots_by_default(self):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.5, seed=8, band=g.dealias_cutoff)
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=0.2, record_every=0.1)
        assert integrate(f, cfg).snapshots is None

    def test_blow_up_reported_with_time(self):
        g = GridSpec(16)
        f = make_random_sobolev(g, sigma=2.0, seed=9, band=4, amplitude=10.0)
        cfg = SolverConfig(grid=g, alpha=0.0, t_end=50.0, record_every=10.0, dt=5.0)
        with pytest.raises(BlowUpError) as err:
            integrate(f, cfg)
        assert 0.0 <= err.value.time <= 50.0
        assert "blew up" in str(err.value) or "finite" in str(err.value)

    def test_config_validation(self):
        g = GridSpec(16)
        with pytest.raises(ValueError):
            SolverConfig(grid=g, alpha=-1.0, t_end=1.0, record_every=0.1)
        with pytest.raises(ValueError):
            SolverConfig(grid=g, alpha=0.0, t_end=0.0, record_every=0.1)
        with pytest.raises(ValueError):
            SolverConfig(grid=g, alpha=0.0, t_end=1.0, record_every=0.1, dt=0.1, c_cfl=0.5)
        with pytest.raises(ValueError):
            SolverConfig(grid=g, alpha=0.0, t_end=1.0, record_every=0.1, dt=-0.1)

    @pytest.mark.parametrize(
        "name", ["alpha", "t_end", "record_every", "dt", "c_cfl", "snapshot_every"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, name, value):
        settings = {"alpha": 0.0, "t_end": 1.0, "record_every": 0.1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SolverConfig(grid=GridSpec(16), **settings)

    def test_steady_state_l2_change_is_zero(self):
        g = GridSpec(32)
        f = make_eigenfunction(g, (2, 1))
        cfg = SolverConfig(
            grid=g, alpha=0.1, t_end=1.0, record_every=0.5, snapshot_every=1.0
        )
        rec = integrate(f, cfg)
        final = rec.snapshots[-1][1]
        assert l2_norm(final - f) == 0.0
