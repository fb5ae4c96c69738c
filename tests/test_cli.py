"""Command-line interface: outputs, determinism, exit codes."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from voigt2d import (
    ConfigError,
    GridSpec,
    Snapshot,
    SolverConfig,
    cz_ratio,
    error_norms,
    gagliardo_ratio,
    gradient_l2,
    integrate,
    inverse_transform,
    l2_norm,
    make_random_sobolev,
    parse_config,
    read_snapshot,
    sample_state,
    snapshot_of,
    sobolev_norm,
    write_snapshot,
)
from voigt2d.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, entry
from voigt2d.initial_data import INIT_PARAMS
from checkout import checkout_env


def write_config(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


def sim_config(tmp_path, out, extra_output="", init="kind = eigenfunction\nk1 = 1",
               snapshots="snapshot_every = 0.25"):
    body = (
        "[grid]\nsize = 32\n\n"
        f"[time]\nt_end = 0.5\nrecord_every = 0.1\ndt = 0.02\n{snapshots}\n\n"
        "[model]\nalpha = 0.01\n\n"
        f"[init]\n{init}\n\n"
        f"[output]\ndirectory = {out}\n{extra_output}\n"
    )
    return write_config(tmp_path, body)


def sweep_config(tmp_path, out, regime="smooth_s_ge_3", extra_sweep=""):
    body = (
        "[grid]\nsize = 32\n\n"
        "[time]\nt_end = 0.5\nrecord_every = 0.1\ndt = 0.02\n\n"
        "[init]\nkind = random_sobolev\nsigma = 3.25\nband = 8\nseed = 1\n\n"
        "[sweep]\nalphas = 1e-1, 3e-2, 1e-2, 3e-3, 1e-3\n"
        f"regime = {regime}\n{extra_sweep}\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    return write_config(tmp_path, body, name="sweep.ini")


SOBOLEV = "kind = random_sobolev\nsigma = 3.25\nband = 8"
DIAGNOSTICS_HEADER = "t,energy,enstrophy,voigt_energy,voigt_enstrophy,omega_sup"

#: (config text, its replacement, what the error names); each exits 2
BAD_VALUES = [
    ("t_end = 0.5", "t_end = -1", "t_end"),
    ("record_every = 0.1", "record_every = 0", "record_every"),
    ("dt = 0.02", "dt = -0.01", "dt"),
    ("dt = 0.02", "cfl = 0", "c_cfl"),
    ("dt = 0.02", "dt = 0.02\nsnapshot_every = -0.1", "snapshot_every"),
    ("band = 8", "band = 11", "band"),  # the cutoff at M = 32 is 10
    ("sigma = 3.25", "sigma = 0", "sigma"),
    (SOBOLEV, "kind = eigenfunction\nk1 = 0\nk2 = 0", "nonzero"),
    (SOBOLEV, "kind = yudovich_patch\nradius = 3.5", "radius"),
    ("seed = 1", "seed = -1", "seed"),
    ("directory = ", "directory =\n# ", "directory"),  # the path becomes a comment
    ("size = 32", "size = 32\ndealias_cutoff = 10", "dealias_cutoff"),  # fixed at M // 3
]

#: non-finite time settings, each exits 2 naming its key
NON_FINITE = [
    ("t_end = 0.5", "t_end = inf", "t_end"),
    ("record_every = 0.1", "record_every = inf", "record_every"),
    ("dt = 0.02", "dt = inf", "dt"),
    ("dt = 0.02", "cfl = inf", "c_cfl"),
]

#: the settings each kind requires besides the one under test
REQUIRED_INIT = {
    "random_sobolev": {"sigma": "3.25", "band": "8"},
    "yudovich_patch": {"radius": "1.0"},
}

#: every float [init] parameter of every kind
INIT_FLOATS = [
    (kind, name)
    for kind, spec in INIT_PARAMS.items()
    for name, (cast, _) in spec.items()
    if cast is float
]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
class TestBadConfigWritesNothing:
    def config(self, tmp_path, command, out):
        if command == "simulate":
            return sim_config(tmp_path, out, init=SOBOLEV + "\nseed = 1", snapshots="")
        return sweep_config(tmp_path, out)

    @pytest.mark.parametrize(
        "old, new, named", BAD_VALUES, ids=[named for _, _, named in BAD_VALUES]
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, command, old, new, named):
        self.check_exits_2(tmp_path, capsys, command, old, new, named)

    @pytest.mark.parametrize(
        "old, new, named", NON_FINITE, ids=[new for _, new, _ in NON_FINITE]
    )
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, old, new, named):
        self.check_exits_2(tmp_path, capsys, command, old, new, named)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("kind, key", INIT_FLOATS, ids=[f"{k}-{n}" for k, n in INIT_FLOATS])
    def test_non_finite_init_value_exits_2(
        self, tmp_path, capsys, command, kind, key, value
    ):
        params = {**REQUIRED_INIT.get(kind, {}), key: value}
        new = "\n".join([f"kind = {kind}", *(f"{k} = {v}" for k, v in params.items())])
        named = f"{key} must be finite"
        cfg = self.check_exits_2(tmp_path, capsys, command, SOBOLEV, new, named)
        with pytest.raises(ConfigError, match=named):
            parse_config(cfg.read_text())

    def check_exits_2(self, tmp_path, capsys, command, old, new, named):
        out = tmp_path / "out"
        cfg = Path(self.config(tmp_path, command, out))
        assert old in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(old, new))
        assert entry([command, str(cfg)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()
        return cfg

    def test_section_of_other_command_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = Path(self.config(tmp_path, command, out))
        other = (
            "[sweep]\nalphas = 1e-1, 1e-2\ns = 2.5\n"
            if command == "simulate"
            else "[model]\nalpha = 0.01\n"
        )
        cfg.write_text(cfg.read_text() + "\n" + other)
        assert entry([command, str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[model]" in err and "[sweep]" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("alpha = 0.01", "alpha = nan"),
        ("alpha = 0.01", "alpha = inf"),
        ("snapshot_every = 0.25", "snapshot_every = inf"),
    ],
    ids=["alpha = nan", "alpha = inf", "snapshot_every = inf"],
)
def test_non_finite_simulate_setting_exits_2(tmp_path, capsys, old, new):
    out = tmp_path / "out"
    cfg = Path(sim_config(tmp_path, out))
    cfg.write_text(cfg.read_text().replace(old, new))
    assert entry(["simulate", str(cfg)]) == EXIT_CONFIG
    assert f"{new.split()[0]} must be finite" in capsys.readouterr().err
    assert not out.exists()


class TestSimulate:
    def test_writes_diagnostics_with_provenance(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = entry(["simulate", sim_config(tmp_path, out)])
        assert rc == EXIT_OK
        text = (out / "diagnostics.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "# voigt2d 0.1.0"
        assert lines[1].startswith("# config sha256 ")
        assert "# [grid] size = 32" in lines
        assert "# [model] alpha = 0.01" in lines
        header_at = lines.index(DIAGNOSTICS_HEADER)
        rows = [l.split(",") for l in lines[header_at + 1 :]]
        assert len(rows) == 6  # t = 0.0, 0.1, ..., 0.5
        assert rows[0][0] == "0.0" and rows[-1][0] == "0.5"
        assert "wrote" in capsys.readouterr().out

    def test_steady_data_constant_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        entry(["simulate", sim_config(tmp_path, out)])
        lines = (out / "diagnostics.csv").read_text().splitlines()
        header_at = lines.index(DIAGNOSTICS_HEADER)
        energies = {l.split(",")[1] for l in lines[header_at + 1 :]}
        assert len(energies) == 1  # eigenfunction: energy frozen to the digit

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        entry(["simulate", sim_config(tmp_path, out_a)])
        entry(["simulate", sim_config(tmp_path, out_b)])
        a = (out_a / "diagnostics.csv").read_text().splitlines()
        b = (out_b / "diagnostics.csv").read_text().splitlines()
        # identical except the echoed output directory
        keep = lambda ls: [l for l in ls if "directory" not in l and "sha256" not in l]
        assert keep(a) == keep(b)

    def test_snapshot_format_writes_files(self, tmp_path):
        # snapshot_every = 0.25 alone asks for snapshots
        out = tmp_path / "out"
        assert entry(["simulate", sim_config(tmp_path, out)]) == EXIT_OK
        snaps = sorted(out.glob("snapshot_*.vfld"))
        assert [p.name for p in snaps] == [
            "snapshot_0000.vfld",
            "snapshot_0001.vfld",
            "snapshot_0002.vfld",
        ]
        back = read_snapshot(str(snaps[-1]))
        assert back.time == 0.5
        assert back.alpha == 0.01

    def test_csv_only_by_default(self, tmp_path):
        out = tmp_path / "out"
        assert entry(["simulate", sim_config(tmp_path, out, snapshots="")]) == EXIT_OK
        assert [p.name for p in out.iterdir()] == ["diagnostics.csv"]

    def test_formats_key_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = sim_config(tmp_path, out, extra_output="formats = csv, snapshots")
        assert entry(["simulate", cfg]) == EXIT_CONFIG
        assert "unknown key 'formats' in [output]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            textwrap.dedent(
                f"""\
                [time]
                t_end = 0.5
                record_every = 0.1

                [init]
                kind = eigenfunction

                [output]
                directory = {out}
                """
            ),
        )
        assert entry(["simulate", cfg]) == EXIT_CONFIG
        assert "grid" in capsys.readouterr().err
        assert not out.exists()

    def test_default_section_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = sim_config(tmp_path, out, extra_output="[DEFAULT]\nfoo = 1")
        assert entry(["simulate", cfg]) == EXIT_CONFIG
        assert "unknown section [DEFAULT]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert entry(["simulate", str(tmp_path / "absent.ini")]) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_blow_up_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            textwrap.dedent(
                f"""\
                [grid]
                size = 16

                [time]
                t_end = 50
                record_every = 10
                dt = 5

                [model]
                alpha = 0

                [init]
                kind = random_sobolev
                sigma = 2.0
                band = 4
                seed = 9
                amplitude = 10

                [output]
                directory = {out}
                """
            ),
        )
        assert entry(["simulate", cfg]) == EXIT_BLOWUP
        assert "finite" in capsys.readouterr().err


class TestSweep:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = entry(["sweep", sweep_config(tmp_path, out)])
        assert rc == EXIT_OK
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        header_at = csv_lines.index("alpha,sup_u_l2,sup_omega_l2,sup_u_h1")
        rows = [l.split(",") for l in csv_lines[header_at + 1 :]]
        assert [float(r[0]) for r in rows] == [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        assert all(float(x) > 0 for r in rows for x in r[1:])
        summary = (out / "summary.txt").read_text()
        assert "theoretical velocity slope: 0.5" in summary
        assert "fitted sup_u_l2 slope:" in summary
        assert "verdict velocity_rate:" in summary
        assert "fitted sup_u_l2 slope:" in capsys.readouterr().out

    def test_summary_reports_alpha_times_cutoff_squared(self, tmp_path, capsys):
        # M = 32: k_c = 10, so alpha k_c^2 falls from 10 to 0.1 over the
        # sweep, and the two alphas below 1e-2 are grid-limited
        out = tmp_path / "out"
        assert entry(["sweep", sweep_config(tmp_path, out)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        lines = [
            l for l in (out / "summary.txt").read_text().splitlines()
            if l.startswith("alpha*k_c^2")
        ]
        alphas = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        assert lines == [
            f"alpha*k_c^2 at alpha {a!r} (k_c = 10): {a * 100!r}"
            + (" grid-limited" if a * 100 < 1.0 else "")
            for a in alphas
        ]
        assert [l.endswith("grid-limited") for l in lines] == [False] * 3 + [True] * 2
        assert all(l in printed for l in lines)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert entry(["sweep", sweep_config(tmp_path, out), "--jobs", jobs]) == EXIT_CONFIG
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_reruns_and_concurrency_byte_identical(self, tmp_path):
        outs = [tmp_path / n for n in ("a", "b", "c")]
        entry(["sweep", sweep_config(tmp_path, outs[0])])
        entry(["sweep", sweep_config(tmp_path, outs[1])])
        entry(["sweep", sweep_config(tmp_path, outs[2]), "--jobs", "2"])
        keep = lambda p: [
            l
            for l in (p / "sweep.csv").read_text().splitlines()
            if "directory" not in l and "sha256" not in l
        ]
        assert keep(outs[0]) == keep(outs[1]) == keep(outs[2])

    def test_pooled_sweep_of_omitted_defaults_same_bytes(self, tmp_path):
        # the config leaves amplitude to its default: the recipe the pool's
        # workers receive carries it, and the echo names it
        out = tmp_path / "out"
        config = sweep_config(tmp_path, out)
        outputs = []
        for jobs in ("1", "2"):
            assert entry(["sweep", config, "--jobs", jobs]) == EXIT_OK
            outputs.append([(out / n).read_bytes() for n in ("sweep.csv", "summary.txt")])
        assert outputs[0] == outputs[1]
        for data in outputs[0]:
            assert b"# [init] amplitude = 1.0\n" in data

    def test_galerkin_regime_dispatch(self, tmp_path):
        out = tmp_path / "out"
        cfg = sweep_config(
            tmp_path,
            out,
            regime="smooth_2_lt_s_lt_3",
            extra_sweep="s = 2.5",
        )
        assert entry(["sweep", cfg]) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "verdict truncation_inequalities:" in summary
        assert "theoretical vorticity slope: 0.375" in summary

    def test_ignored_setting_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = sweep_config(tmp_path, out, extra_sweep="s = 2.5")
        assert entry(["sweep", cfg]) == EXIT_CONFIG
        assert "s is used only by" in capsys.readouterr().err
        assert not out.exists()

    def test_galerkin_regime_on_other_data_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = sweep_config(tmp_path, out, regime="smooth_2_lt_s_lt_3", extra_sweep="s = 2.5")
        Path(cfg).write_text(
            Path(cfg).read_text().replace(
                "kind = random_sobolev\nsigma = 3.25\nband = 8\nseed = 1",
                "kind = taylor_family\nmode = 1",
            )
        )
        assert entry(["sweep", cfg]) == EXIT_CONFIG
        assert "requires random_sobolev data" in capsys.readouterr().err
        assert not out.exists()

    def test_galerkin_regime_on_steady_data_skips_fit(self, tmp_path):
        out = tmp_path / "out"
        cfg = sweep_config(tmp_path, out, regime="smooth_2_lt_s_lt_3", extra_sweep="s = 2.5")
        Path(cfg).write_text(Path(cfg).read_text().replace("band = 8", "band = 8\namplitude = 0"))
        assert entry(["sweep", cfg]) == EXIT_OK
        assert "verdict rate: SKIP" in (out / "summary.txt").read_text()

    def test_self_test_passes(self, capsys):
        assert entry(["sweep", "--self-test"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_config_required_without_self_test(self, capsys):
        assert entry(["sweep"]) == EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_self_test_with_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert entry(["sweep", "--self-test", sweep_config(tmp_path, out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--self-test takes no config" in captured.err
        assert "PASS" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["-5", "1", "2"])
    def test_self_test_with_jobs_exits_2(self, capsys, jobs):
        assert entry(["sweep", "--self-test", "--jobs", jobs]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "no --jobs" in captured.err
        assert "PASS" not in captured.out

    def test_blow_up_exits_3(self, tmp_path, capsys):
        # the datum of TestSimulate.test_blow_up_exits_3: the Euler
        # reference leaves the stable range before any output is written
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            textwrap.dedent(
                f"""\
                [grid]
                size = 16

                [time]
                t_end = 50
                record_every = 10
                dt = 5

                [init]
                kind = random_sobolev
                sigma = 2.0
                band = 4
                seed = 9
                amplitude = 10

                [sweep]
                alphas = 1e-1, 1e-2, 1e-3, 1e-4
                regime = smooth_s_ge_3

                [output]
                directory = {out}
                """
            ),
        )
        assert entry(["sweep", cfg]) == EXIT_BLOWUP
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestDiagnose:
    def test_matches_library_values(self, tmp_path, capsys):
        g = GridSpec(64)
        f = make_random_sobolev(g, sigma=3.0, seed=0, band=10)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(f, 0.25, 1e-2))
        rc = entry(["diagnose", str(path), "--cz", "4,8", "--gagliardo", "2"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        rows = dict(
            line.split(",", 1) for line in out.splitlines() if not line.startswith("#")
        )
        assert rows["quantity"] == "value"
        assert rows["time"] == repr(0.25)
        assert rows["alpha"] == repr(1e-2)
        assert rows["grid_size"] == "64"
        back = read_snapshot(str(path)).field()
        assert rows["omega_l2"] == repr(l2_norm(back))
        assert rows["cz_ratio_p4"] == repr(cz_ratio(back, 4.0))
        assert rows["cz_ratio_p8"] == repr(cz_ratio(back, 8.0))
        assert rows["gagliardo_ratio_p2"] == repr(gagliardo_ratio(back, 2.0))

    def test_one_oversampled_field_per_ratio_input(self, tmp_path, capsys, monkeypatch):
        import voigt2d.cli as cli
        import voigt2d.diagnostics as diagnostics
        import voigt2d.spectral as spectral

        calls = dict.fromkeys(
            ["values_oversampled", "inverse_transform", "biot_savart", "irfft2", "ifft"], 0
        )
        irfft_rows = []

        def counting(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        def rows_counting(a, *args, _inner=np.fft.irfft, **kwargs):
            irfft_rows.append(a.shape[0])
            return _inner(a, *args, **kwargs)

        for module in (cli, diagnostics, spectral):
            for name in ("values_oversampled", "inverse_transform", "biot_savart"):
                inner = getattr(spectral, name)
                monkeypatch.setattr(module, name, counting(name, inner), raising=False)
        for name in ("irfft2", "ifft"):
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        monkeypatch.setattr(np.fft, "irfft", rows_counting)
        g = GridSpec(32)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(make_random_sobolev(g, 3.0, 4, 10), 0.0, 0.0))
        rc = entry(["diagnose", str(path), "--cz", "4,8,16", "--gagliardo", "2,4,8"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert sum(line.startswith(("cz_ratio_p", "gagliardo_ratio_p"))
                   for line in out.splitlines()) == 6
        # oversampled fields, counted by their pass along k1 (the pass along
        # k2 may run in row blocks): three gradient components for cz plus
        # omega for gagliardo, and so at most four 2M-row pads through irfft;
        # one sup shared by sample_state and cz_ratio; no velocity
        assert calls["ifft"] <= 4
        assert 0 < sum(irfft_rows) <= 4 * 2 * 32
        assert calls["irfft2"] == 0
        assert calls["values_oversampled"] == 0
        assert calls["inverse_transform"] <= 1
        assert calls["biot_savart"] == 0

    def test_shared_scratch_carries_nothing_between_snapshots(self, tmp_path, capsys):
        # A, B, then A again in one process share the oversampling
        # workspace (M = 128: the pass along k2 runs in two row blocks) and
        # the kept sup; each output equals that snapshot's in a fresh
        # process, byte for byte
        g = GridSpec(128)
        a, b = tmp_path / "a.vfld", tmp_path / "b.vfld"
        write_snapshot(str(a), snapshot_of(make_random_sobolev(g, 3.0, 6, 40), 0.5, 1e-2))
        write_snapshot(str(b), snapshot_of(make_random_sobolev(g, 2.5, 7, 40), 1.5, 0.0))
        args = ["--cz", "4,2.5,16", "--gagliardo", "2,3"]
        fresh = {
            p: subprocess.run(
                [sys.executable, "-m", "voigt2d.cli", "diagnose", str(p), *args],
                capture_output=True,
                text=True,
                check=True,
                env=checkout_env(),
            ).stdout
            for p in (a, b)
        }
        assert fresh[a] != fresh[b]
        for p in (a, b, a):
            assert entry(["diagnose", str(p), *args]) == EXIT_OK
            assert capsys.readouterr().out == fresh[p]

    def test_hash_is_of_the_file_read_once(self, tmp_path, capsys, monkeypatch):
        import builtins
        import hashlib

        g = GridSpec(32)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(make_random_sobolev(g, 3.0, 5, 10), 0.5, 1e-3))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(args)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert entry(["diagnose", str(path), "--cz", "4"]) == EXIT_OK
        assert len(opened) == 1
        lines = capsys.readouterr().out.splitlines()
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        assert f"# snapshot sha256 {want}" in lines

    def test_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        g = GridSpec(16)
        f = make_random_sobolev(g, sigma=2.0, seed=1, band=4)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(f, 0.0, 0.0))
        path.write_bytes(path.read_bytes()[:-4])
        assert entry(["diagnose", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_invariants_are_the_diagnostics_quantities(self, tmp_path, capsys):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=3.0, seed=2, band=10)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(f, 0.0, 0.0))
        assert entry(["diagnose", str(path)]) == EXIT_OK
        rows = dict(
            line.split(",", 1)
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        )
        state = sample_state(read_snapshot(str(path)).field(), 0.0)
        assert {k: rows[k] for k in state} == {k: repr(v) for k, v in state.items()}
        assert rows["energy"] == rows["voigt_energy"]  # equal by definition at alpha 0
        assert rows["enstrophy"] == rows["voigt_enstrophy"]

    @pytest.mark.parametrize(
        "flag, p, named",
        [
            ("--cz", "1", "cz_ratio_p1"),
            ("--cz", "nan", "cz_ratio_pnan"),
            ("--cz", "inf", "cz_ratio_pinf"),
            ("--gagliardo", "1", "gagliardo_ratio_p1"),
            ("--gagliardo", "nan", "gagliardo_ratio_pnan"),
            ("--gagliardo", "inf", "gagliardo_ratio_pinf"),
        ],
    )
    def test_p_outside_domain_exits_2(self, tmp_path, capsys, flag, p, named):
        g = GridSpec(16)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(make_random_sobolev(g, 2.0, 1, 4), 0.0, 0.0))
        assert entry(["diagnose", str(path), flag, f"4,{p}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert named in captured.err and "requires finite p" in captured.err
        assert captured.out == ""

    def test_bad_p_list_exits_2(self, tmp_path, capsys):
        g = GridSpec(16)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(make_random_sobolev(g, 2.0, 1, 4), 0.0, 0.0))
        with pytest.raises(SystemExit) as exc:
            entry(["diagnose", str(path), "--cz", "4,x"])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "bad p list '4,x'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--cz", "--gagliardo"])
    def test_undefined_ratio_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "zero.vfld"
        write_snapshot(str(path), Snapshot(time=0.0, alpha=0.0, values=np.zeros((16, 16))))
        assert entry(["diagnose", str(path), flag, "4"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "_ratio_p4" in captured.err and "undefined" in captured.err
        assert captured.out == ""

    def test_negative_alpha_snapshot_exits_2(self, tmp_path, capsys):
        g = GridSpec(16)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(make_random_sobolev(g, 2.0, 1, 4), 0.0, -0.5))
        assert entry(["diagnose", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "state.vfld" in captured.err and "alpha" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("time, alpha", [(0.0, np.nan), (0.0, np.inf), (np.nan, 0.0)])
    def test_non_finite_header_exits_2(self, tmp_path, capsys, time, alpha):
        g = GridSpec(16)
        path = tmp_path / "state.vfld"
        write_snapshot(str(path), snapshot_of(make_random_sobolev(g, 2.0, 1, 4), time, alpha))
        assert entry(["diagnose", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "state.vfld" in captured.err and "non-finite" in captured.err
        assert captured.out == ""

    def test_nonzero_mean_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "state.vfld"
        g = GridSpec(32)
        x1, _ = g.meshgrid()
        snap = Snapshot(time=0.0, alpha=0.0, values=np.cos(x1) + 0.5)
        write_snapshot(str(path), snap)
        assert entry(["diagnose", str(path), "--cz", "4"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "state.vfld" in captured.err and "zero-mean" in captured.err
        assert "mean mode is" in captured.err
        assert captured.out == ""


class TestOversamplingWorkspace:
    def test_only_the_oversampled_diagnostics_build_it(self, tmp_path, capsys):
        # inverse_transform, the quadratic norms, sample_state, error_norms,
        # and a sweep and a simulate with snapshots on random_sobolev data
        # never build the per-grid oversampling workspace; a diagnose with a
        # cz row builds the one of its grid
        import voigt2d.diagnostics as diagnostics
        import voigt2d.spectral as spectral

        spectral._oversampling.cache_clear()
        diagnostics._sup.cache_clear()
        g = GridSpec(64)
        f = make_random_sobolev(g, 3.0, 8, 20)
        inverse_transform(f)
        l2_norm(f)
        gradient_l2(f)
        sobolev_norm(f, 1.0)
        diagnostics._velocity_sobolev(f, 1.0)
        sample_state(f, 0.1)
        config = dict(grid=g, t_end=0.1, record_every=0.05, dt=0.05, snapshot_every=0.05)
        a = integrate(f, SolverConfig(alpha=0.0, **config))
        b = integrate(f, SolverConfig(alpha=1e-2, **config))
        assert error_norms(a, b)["sup_omega_l2"] > 0.0
        init = "kind = random_sobolev\nsigma = 3.25\nband = 5\nseed = 1"
        time = "[time]\nt_end = 0.2\nrecord_every = 0.1\ndt = 0.05\n"
        sweep = write_config(
            tmp_path,
            f"[grid]\nsize = 16\n\n{time}\n[init]\n{init}\n\n"
            "[sweep]\nalphas = 1e-1, 3e-2, 1e-2, 1e-3\nregime = smooth_s_ge_3\n\n"
            f"[output]\ndirectory = {tmp_path / 'sweep'}\n",
            name="sweep.ini",
        )
        simulate = write_config(
            tmp_path,
            f"[grid]\nsize = 16\n\n{time}snapshot_every = 0.1\n\n"
            f"[model]\nalpha = 0.01\n\n[init]\n{init}\n\n"
            f"[output]\ndirectory = {tmp_path / 'sim'}\n",
        )
        assert entry(["sweep", sweep]) == EXIT_OK
        assert entry(["simulate", simulate]) == EXIT_OK
        assert spectral._oversampling.cache_info().currsize == 0
        snap = tmp_path / "sim" / "snapshot_0002.vfld"
        assert entry(["diagnose", str(snap), "--cz", "4"]) == EXIT_OK
        assert spectral._oversampling.cache_info().currsize == 1
        assert "cz_ratio_p4" in capsys.readouterr().out


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["--version"])
        assert exc.value.code == 0
        assert "voigt2d 0.1.0" in capsys.readouterr().out

    def test_other_exception_propagates(self, monkeypatch, capsys):
        # only ConfigError, SnapshotError and BlowUpError become exit codes
        import voigt2d.cli

        def broken(*args):
            raise RuntimeError("not a blow-up")

        monkeypatch.setattr(voigt2d.cli, "cmd_diagnose", broken)
        with pytest.raises(RuntimeError, match="not a blow-up"):
            entry(["diagnose", "state.vfld"])
        assert capsys.readouterr().err == ""

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voigt2d.cli", "--version"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert "voigt2d 0.1.0" in proc.stdout
