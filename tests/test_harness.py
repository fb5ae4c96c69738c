"""Convergence harness: rate fits, cutoff rule, paired runs, sweeps."""

import math
import os
import sys

import pytest

from voigt2d import (
    ConvergenceReport,
    DataRecipe,
    FitResult,
    GridSpec,
    SolverConfig,
    SweepPlan,
    choose_cutoff,
    error_norms,
    fit_rate,
    galerkin_reference_sweep,
    integrate,
    make_eigenfunction,
    biot_savart,
    cfl_dt,
    galerkin_truncate,
    l2_norm,
    make_random_sobolev,
    realize,
    run_sweep,
    sobolev_norm,
    theoretical_slope,
)
from voigt2d import harness, spectral
from voigt2d.dynamics import _live_block
from voigt2d.harness import ERROR_METRICS, SLOPE_TOL, _apply_verdicts

ALPHAS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SMOOTH = DataRecipe("random_sobolev", {"sigma": 3.25, "band": 8}, seed=1)


def small_plan(**kw):
    args = dict(
        recipe=SMOOTH,
        alphas=ALPHAS,
        grid=GridSpec(32),
        t_end=0.5,
        regime="smooth_s_ge_3",
        record_every=0.1,
        dt=0.02,
    )
    args.update(kw)
    return SweepPlan(**args)


def galerkin_plan(band=8, **kw):
    args = dict(
        recipe=DataRecipe("random_sobolev", {"sigma": 2.5, "band": band}, seed=1),
        regime="smooth_2_lt_s_lt_3",
        s=2.5,
        t_end=0.3,
        alphas=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
    )
    args.update(kw)
    return small_plan(**args)


@pytest.fixture
def integrate_log(monkeypatch, tmp_path):
    """Every integrate call, in the calling process or a forked pool
    worker, appends "pid alpha" to one log file; the fixture returns a
    reader that empties the log and gives (in the caller, alpha) pairs."""
    log = tmp_path / "calls.log"
    real = harness.integrate

    def logged(omega0, config):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {config.alpha!r}\n")
        return real(omega0, config)

    def calls():
        lines = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        return [(int(pid) == os.getpid(), float(a)) for pid, a in lines]

    monkeypatch.setattr(harness, "integrate", logged)
    return calls


class TestFitRate:
    def test_exact_square_root_law(self):
        pts = [(a, 2.0 * math.sqrt(a)) for a in (1e-1, 1e-2, 1e-3, 1e-4)]
        fit = fit_rate(pts)
        assert abs(fit.slope - 0.5) <= 1e-12
        assert abs(fit.intercept - math.log(2.0)) <= 1e-12
        assert fit.stderr <= 1e-10

    def test_exact_linear_law(self):
        fit = fit_rate([(a, 7.0 * a) for a in (0.5, 0.1, 0.02, 0.004)])
        assert abs(fit.slope - 1.0) <= 1e-12
        assert abs(fit.intercept - math.log(7.0)) <= 1e-12

    def test_perturbed_law_stays_close(self):
        pts = [
            (a, math.sqrt(a) * (1.0 + 0.01 * math.sin(math.log(a))))
            for a in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        ]
        fit = fit_rate(pts)
        assert 0.49 <= fit.slope <= 0.51
        assert fit.stderr > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate([(0.1, 1.0), (0.01, 0.3)])

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(0.1, 1.0), (0.01, 0.0), (0.001, 0.1)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(0.1, 1.0), (-0.01, 0.3), (0.001, 0.1)])

    def test_identical_alphas_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_rate([(0.1, 1.0), (0.1, 0.9), (0.1, 1.1)])


class TestTheoreticalSlope:
    def test_high_regularity(self):
        t = theoretical_slope("smooth_s_ge_3")
        assert t.velocity == 0.5 and t.vorticity == 0.5

    def test_intermediate_regularity(self):
        t = theoretical_slope("smooth_2_lt_s_lt_3", s=2.5)
        assert t.velocity == 0.5
        assert t.vorticity == pytest.approx(0.375)
        with pytest.raises(ValueError, match="requires s"):
            theoretical_slope("smooth_2_lt_s_lt_3")
        with pytest.raises(ValueError, match="requires s"):
            theoretical_slope("smooth_2_lt_s_lt_3", s=3.0)

    def test_unquantified_regimes(self):
        y = theoretical_slope("yudovich")
        assert y.velocity is None and y.vorticity is None
        assert "exp" in y.description
        e = theoretical_slope("enstrophy_class")
        assert e.velocity is None and e.vorticity is None

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            theoretical_slope("smooth")


class TestChooseCutoff:
    def test_reference_values(self):
        assert choose_cutoff(1.0) == 1
        assert choose_cutoff(6.25e-2) == 2
        assert choose_cutoff(1e-4) == 10

    def test_monotone_as_alpha_shrinks(self):
        alphas = [10.0**-k for k in range(0, 9)]
        ns = [choose_cutoff(a) for a in alphas]
        assert all(b >= a for a, b in zip(ns, ns[1:]))

    def test_coupling_and_clamp(self):
        assert choose_cutoff(1e-4, band_limit=6) == 6

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            choose_cutoff(0.0)
        with pytest.raises(ValueError, match="alpha"):
            choose_cutoff(1.5)


class TestSweepPlan:
    def test_validation(self):
        ok = small_plan()
        assert ok.regime == "smooth_s_ge_3"
        with pytest.raises(ValueError, match="at least 4"):
            small_plan(alphas=(1e-1, 1e-2, 1e-3))
        with pytest.raises(ValueError, match="decreasing"):
            small_plan(alphas=(1e-3, 1e-2, 1e-1, 1.0))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            small_plan(alphas=(2.0, 1e-1, 1e-2, 1e-3))
        with pytest.raises(ValueError, match="two decades"):
            small_plan(alphas=(1e-1, 7e-2, 4e-2, 2e-2))
        with pytest.raises(ValueError, match="unknown regime"):
            small_plan(regime="smooth")
        with pytest.raises(ValueError, match="requires s"):
            small_plan(regime="smooth_2_lt_s_lt_3")
        with pytest.raises(ValueError, match="s is used only by"):
            small_plan(s=2.5)
        with pytest.raises(ValueError, match="random_sobolev"):
            small_plan(
                recipe=DataRecipe("taylor_family", {"mode": 1, "perturbation": 0.1}),
                regime="smooth_2_lt_s_lt_3",
                s=2.5,
            )
        with pytest.raises(ValueError, match="jobs"):
            small_plan(jobs=0)
        with pytest.raises(ValueError, match="t_end"):
            small_plan(t_end=0.0)
        with pytest.raises(ValueError, match="record_every"):
            small_plan(record_every=0.0)
        with pytest.raises(ValueError, match="dt"):
            small_plan(dt=-0.01)
        with pytest.raises(ValueError, match="not both"):
            small_plan(c_cfl=0.5)
        assert small_plan(dt=None).c_cfl == 0.5


class TestTruncationChecks:
    def test_bernstein_factor_of_inhomogeneous_weight(self):
        # u^N = u sits at |k| = N = 1, where the (1 + |k|^2) weight gives
        # ||u^N||_{s+1} = sqrt(2) ||u||_s: above N ||u||_s, within sqrt(1 + N^2)
        omega = make_eigenfunction(GridSpec(32), (1, 0))
        checks = harness._truncation_checks(omega, 1, 2.5)
        assert all(checks[k] for k in checks if k.startswith(("nest", "omega")))

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("s", [2.25, 2.5, 2.75])
    def test_matches_biot_savart_oracle(self, n, s):
        # the checks with every velocity norm taken from u = biot_savart(.)
        # and summed over both components
        def velocity_sobolev(omega, order):
            u1, u2 = biot_savart(omega)
            return math.sqrt(sobolev_norm(u1, order) ** 2 + sobolev_norm(u2, order) ** 2)

        g = GridSpec(32)
        base = make_random_sobolev(g, sigma=s, seed=n, band=8)
        base_n = galerkin_truncate(base, n)
        diff = base_n - base
        us = velocity_sobolev(base, s)
        sp = s + 1.0
        want = {
            "nest_a": velocity_sobolev(base_n, s) <= us,
            "nest_b": velocity_sobolev(base_n, sp) <= (1.0 + n * n) ** ((sp - s) / 2.0) * us,
            "nest_c_sbar0": velocity_sobolev(diff, 0.0) <= n ** (0.0 - s) * us,
            "nest_c_sbar1": velocity_sobolev(diff, 1.0) <= n ** (1.0 - s) * us,
            "omega_trunc_bound": l2_norm(diff) <= n ** (1.0 - s) * us,
        }
        got = harness._truncation_checks(base, n, s)
        assert abs(got["u_s_norm"] - us) <= 1e-14 * us
        assert {k: got[k] for k in want} == want


class TestNoVelocityFields:
    @pytest.mark.parametrize(
        "plan", [small_plan, galerkin_plan], ids=["smooth_s_ge_3", "smooth_2_lt_s_lt_3"]
    )
    def test_serial_sweep_calls_no_biot_savart(self, monkeypatch, plan):
        # patched in every voigt2d module that holds the name, as a tracer would
        calls = []
        original = spectral.biot_savart

        def counted(omega):
            calls.append(omega.grid)
            return original(omega)

        for name, module in list(sys.modules.items()):
            if name == "voigt2d" or name.startswith("voigt2d."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        report = run_sweep(plan())
        assert len(report.per_alpha) == 5
        assert len(calls) == 0


class TestRunPair:
    """Each sweep row: one Voigt run against the shared Euler reference."""

    def test_steady_data_gives_roundoff_errors(self):
        plan = small_plan(recipe=DataRecipe("eigenfunction", {"k1": 1}))
        for row in run_sweep(plan).per_alpha:
            assert all(row[m] <= 1e-10 for m in ERROR_METRICS)

    def test_errors_shrink_with_alpha(self, report):
        big, small = report.per_alpha[2], report.per_alpha[4]
        assert (big["alpha"], small["alpha"]) == (1e-2, 1e-3)
        for metric in ERROR_METRICS:
            assert 0 < small[metric] < big[metric]

    def test_matches_direct_recomputation(self, report):
        plan = small_plan()
        base = realize(plan.recipe, plan.grid)

        def cfg(a):
            return SolverConfig(
                grid=plan.grid,
                alpha=a,
                t_end=plan.t_end,
                record_every=plan.record_every,
                dt=plan.dt,
                snapshot_every=plan.record_every,
            )

        euler = integrate(base, cfg(0.0))
        for row in report.per_alpha:
            expected = error_norms(integrate(base, cfg(row["alpha"])), euler)
            assert row == {"alpha": row["alpha"], **expected}

    def test_integrations_per_process(self, integrate_log, report):
        run_sweep(small_plan())
        # serial: one Euler reference, then one Voigt run per alpha
        assert integrate_log() == [(True, 0.0)] + [(True, a) for a in ALPHAS]
        par = run_sweep(small_plan(jobs=2))
        pool = integrate_log()
        # pooled: no run in the caller; each task pairs its own Euler
        # reference with one Voigt run
        assert not any(here for here, _ in pool)
        assert sorted(a for _, a in pool) == sorted((0.0,) * len(ALPHAS) + ALPHAS)
        assert par.per_alpha == report.per_alpha


@pytest.fixture(scope="module")
def report():
    return run_sweep(small_plan())


class TestRunSweep:
    def test_shape(self, report):
        assert report.alphas == ALPHAS
        assert set(report.errors) == set(ERROR_METRICS)
        assert all(len(v) == len(ALPHAS) for v in report.errors.values())
        assert set(report.fits) == set(ERROR_METRICS)
        assert report.dt_used == 0.02
        assert [row["alpha"] for row in report.per_alpha] == list(ALPHAS)

    def test_cfl_step_is_that_of_the_data(self):
        # with no dt the sweep's one step is the CFL value at c_cfl = 0.5 of
        # the data's live block at t = 0, bit for bit
        recipe = DataRecipe("random_sobolev", {"sigma": 3.25, "band": 5}, seed=1)
        plan = small_plan(recipe=recipe, grid=GridSpec(16), t_end=0.1, dt=None)
        want = cfl_dt(_live_block(realize(recipe, plan.grid).half), 0.5)
        assert run_sweep(plan).dt_used == want

    def test_errors_decay(self, report):
        for metric in ERROR_METRICS:
            e = report.errors[metric]
            assert all(b <= a * 1.05 for a, b in zip(e, e[1:]))
            assert e[-1] < 0.2 * e[0]

    def test_verdict_keys(self, report):
        assert set(report.verdicts) == {"velocity_rate", "vorticity_rate"}
        assert all(v in ("PASS", "FAIL") for v in report.verdicts.values())
        assert any("fitted velocity slope" in n for n in report.notes)

    def test_smooth_verdicts_treat_exponent_as_bound(self):
        # errors <= C alpha^(1/2) allow faster decay: only a slope more than
        # SLOPE_TOL below the exponent fails
        plan = small_plan()
        slopes = {"sup_u_l2": 0.5 + 2 * SLOPE_TOL, "sup_omega_l2": 0.5 - 2 * SLOPE_TOL}
        rep = ConvergenceReport(
            plan=plan,
            per_alpha=[],
            dt_used=0.02,
            fits={m: FitResult(slopes.get(m, 0.5), 0.0, 0.0) for m in ERROR_METRICS},
        )
        _apply_verdicts(rep)
        assert rep.verdicts == {"velocity_rate": "PASS", "vorticity_rate": "FAIL"}

    def test_deterministic_rerun(self, report):
        again = run_sweep(small_plan())
        assert again.errors == report.errors

    def test_concurrent_identical(self, report):
        par = run_sweep(small_plan(jobs=2))
        assert par.errors == report.errors

    def test_pool_has_at_most_one_worker_per_alpha(self, monkeypatch, report):
        sizes = []

        class InProcessPool:
            """Records its size and maps in the calling process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        assert run_sweep(small_plan(jobs=64)).per_alpha == report.per_alpha
        assert run_sweep(small_plan(jobs=3)).per_alpha == report.per_alpha
        assert sizes == [len(ALPHAS), 3]

    def test_degenerate_data_skips_fit(self):
        plan = small_plan(recipe=DataRecipe("eigenfunction", {"k1": 1}))
        report = run_sweep(plan)
        assert report.verdicts == {"rate": "SKIP"}
        assert report.fits == {}
        assert any("roundoff" in n for n in report.notes)

    def test_enstrophy_regime_verdict(self, report):
        rep = run_sweep(small_plan(regime="enstrophy_class"))
        assert rep.verdicts["no_rate_decay"] == "PASS"
        assert rep.errors == report.errors  # regime changes the verdict only

    def test_yudovich_regime_window(self, report):
        rep = run_sweep(small_plan(regime="yudovich"))
        assert rep.verdicts["velocity_rate"] in ("PASS", "FAIL")
        assert any("window" in n for n in rep.notes)
        assert rep.errors == report.errors


class TestGalerkinReferenceSweep:
    def test_run_sweep_dispatches_on_regime(self):
        plan = galerkin_plan(t_end=0.2)
        rep = run_sweep(plan)
        assert rep.verdicts["truncation_inequalities"] == "PASS"
        assert rep.per_alpha == galerkin_reference_sweep(plan).per_alpha

    def test_validation(self):
        with pytest.raises(ValueError, match="needs regime smooth_2_lt_s_lt_3"):
            galerkin_reference_sweep(small_plan())
        plan = small_plan(regime="smooth_2_lt_s_lt_3", s=2.5)
        with pytest.raises(ValueError, match="disagrees with plan.s"):
            galerkin_reference_sweep(plan, 2.7)

    def test_report_contents(self, galerkin_report):
        rep = galerkin_report
        assert rep.theoretical.vorticity == pytest.approx(0.375)
        assert {"truncation_inequalities", "vorticity_rate"} <= set(rep.verdicts)
        assert rep.verdicts["truncation_inequalities"] == "PASS"
        assert rep.verdicts["vorticity_rate"] in ("PASS", "ADVISORY")
        for row in rep.per_alpha:
            assert row["nest_a"] and row["nest_b"]
            assert row["nest_c_sbar0"] and row["nest_c_sbar1"]
            assert row["omega_trunc_bound"]
            assert 1 <= row["cutoff_n"] <= 8

    def test_truncation_collapses_when_band_enclosed(self):
        rep = galerkin_reference_sweep(galerkin_plan(band=3))
        for row in rep.per_alpha:
            assert row["cutoff_n"] == 3
            assert row["trunc_omega_l2"] == 0.0
            assert row["voigt_vs_trunc_omega_l2"] == row["sup_omega_l2"]

    def test_concurrent_identical(self, galerkin_report):
        par = run_sweep(galerkin_plan(jobs=2))
        assert par.per_alpha == galerkin_report.per_alpha
        assert par.errors == galerkin_report.errors
        assert par.fits == galerkin_report.fits
        assert par.verdicts == galerkin_report.verdicts
        assert par.notes == galerkin_report.notes

    def test_integrations_per_process(self, integrate_log):
        plan = galerkin_plan(t_end=0.1)
        alphas = plan.alphas
        run_sweep(plan)
        # serial: one Euler reference, then per alpha a Voigt run and an
        # Euler run from the truncated data
        assert integrate_log() == [(True, 0.0)] + [
            call for a in alphas for call in ((True, a), (True, 0.0))
        ]
        run_sweep(galerkin_plan(t_end=0.1, jobs=2))
        pool = integrate_log()
        # pooled: each task also integrates its own Euler reference
        assert not any(here for here, _ in pool)
        assert sorted(a for _, a in pool) == sorted((0.0,) * (2 * len(alphas)) + alphas)

    @staticmethod
    def advisory_report(trunc, voigt_vs_trunc):
        """A galerkin_plan() report with every truncation check passing and
        a vorticity slope below (s-1)/4 - SLOPE_TOL; at each alpha the two
        error parts are trunc and voigt_vs_trunc times alpha^0.1."""
        plan = galerkin_plan()
        checks = dict.fromkeys(
            ("nest_a", "nest_b", "nest_c_sbar0", "nest_c_sbar1", "omega_trunc_bound"), True
        )
        rows = [
            {"alpha": a, **{m: 2.0 * a**0.1 for m in ERROR_METRICS},
             "trunc_omega_l2": trunc * a**0.1,
             "voigt_vs_trunc_omega_l2": voigt_vs_trunc * a**0.1,
             **checks}
            for a in plan.alphas
        ]
        slope = (plan.s - 1.0) / 4.0 - SLOPE_TOL - 0.05
        fits = {m: FitResult(slope, 0.0, 0.0) for m in ERROR_METRICS}
        rep = ConvergenceReport(plan=plan, per_alpha=rows, dt_used=0.02, fits=fits)
        _apply_verdicts(rep)
        return rep

    def test_advisory_names_dominant_part_and_interval_slopes(self):
        # a vorticity slope below (s-1)/4 - SLOPE_TOL is pre-asymptotic: the
        # verdict is advisory, and the note says which error part dominates
        # at the smallest alpha and lists the slope of every alpha interval
        rep = self.advisory_report(1.5, 0.5)
        alphas = rep.alphas
        assert rep.verdicts == {
            "truncation_inequalities": "PASS", "vorticity_rate": "ADVISORY"
        }
        (note,) = rep.notes
        assert f"truncation error dominates at alpha = {alphas[-1]:g}" in note
        listed = note.split("interval slopes ", 1)[1].rstrip(")").split(", ")
        assert listed == ["0.100"] * (len(alphas) - 1)

    def test_advisory_names_voigt_vs_truncated_when_it_dominates(self):
        rep = self.advisory_report(0.5, 1.5)
        assert rep.verdicts["vorticity_rate"] == "ADVISORY"
        (note,) = rep.notes
        assert f"voigt-vs-truncated error dominates at alpha = {rep.alphas[-1]:g}" in note

    def test_degenerate_data_skips_fit(self):
        zero = DataRecipe(
            "random_sobolev", {"sigma": 2.5, "band": 8, "amplitude": 0.0}, seed=1
        )
        rep = galerkin_reference_sweep(galerkin_plan(recipe=zero, t_end=0.1))
        assert rep.verdicts == {"rate": "SKIP"}
        assert rep.fits == {}


@pytest.fixture(scope="module")
def galerkin_report():
    return galerkin_reference_sweep(galerkin_plan())
