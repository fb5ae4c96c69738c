"""Configuration parsing: strictness, defaults, effective echo."""

import re
import textwrap
from pathlib import Path

import pytest

from voigt2d import ConfigError, SolverConfig, SweepPlan, load_config, parse_config
from voigt2d.config import _KEYS
from voigt2d.initial_data import INIT_PARAMS

SIM = textwrap.dedent(
    """\
    [grid]
    size = 64

    [time]
    t_end = 0.5
    record_every = 0.1
    dt = 0.01
    snapshot_every = 0.25

    [model]
    alpha = 0.01

    [init]
    kind = random_sobolev
    sigma = 3.0
    band = 8
    seed = 7
    """
)

SWEEP = textwrap.dedent(
    """\
    [grid]
    size = 32

    [time]
    t_end = 0.5
    record_every = 0.1

    [init]
    kind = random_sobolev
    sigma = 3.25
    band = 8
    seed = 1

    [sweep]
    alphas = 1e-1, 3e-2, 1e-2, 3e-3, 1e-3
    regime = smooth_s_ge_3

    [output]
    directory = out
    """
)


class TestHappyPath:
    def test_simulate_config(self):
        cfg = parse_config(SIM)
        sc = cfg.solver_config()
        assert cfg.grid.size == 64
        assert cfg.grid.dealias_cutoff == 21
        assert sc.t_end == 0.5
        assert sc.dt == 0.01
        assert sc.c_cfl is None
        assert sc.snapshot_every == 0.25
        assert sc.alpha == 0.01
        assert cfg.recipe.kind == "random_sobolev"
        assert cfg.recipe.params == {"sigma": 3.0, "band": 8, "amplitude": 1.0}
        assert cfg.recipe.seed == 7

    def test_sweep_config(self):
        cfg = parse_config(SWEEP)
        assert cfg.sweep_plan().alphas == (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        assert cfg.sweep_plan().regime == "smooth_s_ge_3"
        assert cfg.out_dir == "out"
        plan = cfg.sweep_plan(jobs=2)
        assert plan.jobs == 2
        assert plan.c_cfl == 0.5  # default when neither dt nor cfl given

    def test_band_is_integer(self):
        cfg = parse_config(SIM)
        assert isinstance(cfg.recipe.params["band"], int)

    def test_effective_echo(self):
        lines = parse_config(SIM).effective_lines()
        assert "[grid] size = 64" in lines
        assert "[time] dt = 0.01" in lines
        assert "[init] kind = random_sobolev" in lines
        assert "[init] seed = 7" in lines
        assert "[output] directory = ." in lines
        assert not any("formats" in line for line in lines)
        assert not any("dealias_cutoff" in line for line in lines)  # fixed at M // 3

    def test_effective_echo_lists_init_defaults(self):
        # every [init] default is echoed, a None default is left out
        lines = parse_config(SIM).effective_lines()
        assert "[init] amplitude = 1.0" in lines
        patch = SIM.replace("sigma = 3.0\nband = 8", "radius = 0.6").replace(
            "random_sobolev", "yudovich_patch"
        )
        lines = parse_config(patch).effective_lines()
        assert "[init] amplitude = 1.0" in lines
        assert not any("smoothing" in line for line in lines)

    def test_effective_echo_defaults_cfl(self):
        lines = parse_config(SWEEP).effective_lines()
        assert "[time] cfl = 0.5" in lines

    def test_sha256_tracks_source(self):
        a, b = parse_config(SIM), parse_config(SIM + "\n# trailing comment\n")
        assert a.sha256 == parse_config(SIM).sha256
        assert a.sha256 != b.sha256

    def test_mode_sections_optional(self):
        cfg = parse_config(SIM)
        assert not isinstance(cfg.run, SweepPlan)
        with pytest.raises(ConfigError, match=r"\[sweep\]"):
            cfg.sweep_plan()
        cfg2 = parse_config(SWEEP)
        assert not isinstance(cfg2.run, SolverConfig)
        with pytest.raises(ConfigError, match=r"\[model\]"):
            cfg2.solver_config()


class TestRejection:
    def test_missing_grid_section(self):
        text = SIM.split("[time]", 1)[1]
        with pytest.raises(ConfigError, match="grid"):
            parse_config("[time]" + text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(SIM.replace("t_end = 0.5\n", ""))

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"unknown section \[solver\]"):
            parse_config(SIM + "\n[solver]\nmethod = rk4\n")

    @pytest.mark.parametrize(
        "text",
        [
            SIM + "[DEFAULT]\nfoo = 1\n",
            SIM.replace("[grid]\nsize = 64", "[DEFAULT]\nsize = 64\n[grid]"),
        ],
        ids=["unknown_key", "moved_grid_key"],
    )
    def test_default_section_named(self, text):
        # configparser copies [DEFAULT] keys into every section; the error
        # names [DEFAULT], not the first section that received them
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_config(text)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'sizes'"):
            parse_config(SIM.replace("size = 64", "size = 64\nsizes = 2"))

    def test_unknown_init_param_named(self):
        with pytest.raises(ConfigError, match="unknown key 'radius'"):
            parse_config(SIM.replace("band = 8", "band = 8\nradius = 0.5"))

    def test_dt_and_cfl_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(SIM.replace("dt = 0.01", "dt = 0.01\ncfl = 0.5"))

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="bad value for 't_end'"):
            parse_config(SIM.replace("t_end = 0.5", "t_end = soon"))

    def test_bad_kind_lists_known(self):
        with pytest.raises(ConfigError, match="eigenfunction"):
            parse_config(SIM.replace("kind = random_sobolev", "kind = vortex"))

    def test_negative_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(SIM.replace("alpha = 0.01", "alpha = -0.5"))

    def test_bad_regime_lists_known(self):
        with pytest.raises(ConfigError, match="yudovich"):
            parse_config(SWEEP.replace("regime = smooth_s_ge_3", "regime = smooth"))

    def test_empty_alpha_list(self):
        with pytest.raises(ConfigError, match="alphas"):
            parse_config(
                SWEEP.replace("alphas = 1e-1, 3e-2, 1e-2, 3e-3, 1e-3", "alphas = ,")
            )

    def test_bad_format(self):
        # outputs follow the subcommand and [time] snapshot_every alone
        with pytest.raises(ConfigError, match=r"unknown key 'formats' in \[output\]"):
            parse_config(SWEEP.replace("directory = out", "directory = out\nformats = csv"))

    def test_unparseable_text(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_config("just some words\n")

    def test_invalid_grid_size_wrapped(self):
        with pytest.raises(ConfigError):
            parse_config(SIM.replace("size = 64", "size = 63"))

    def test_sweep_plan_errors_become_config_errors(self):
        short = SWEEP.replace(
            "alphas = 1e-1, 3e-2, 1e-2, 3e-3, 1e-3", "alphas = 1e-1, 1e-2, 1e-3"
        )
        with pytest.raises(ConfigError, match="at least 4"):
            parse_config(short).sweep_plan()

    def test_sweep_rejects_snapshot_every(self):
        text = SWEEP.replace("record_every = 0.1", "record_every = 0.1\nsnapshot_every = 0.2")
        with pytest.raises(ConfigError, match=r"'snapshot_every' in \[time\]"):
            parse_config(text).sweep_plan()

    def test_sweep_rejects_unused_s(self):
        text = SWEEP.replace("regime = smooth_s_ge_3", "regime = smooth_s_ge_3\ns = 2.5")
        with pytest.raises(ConfigError, match="s is used only by"):
            parse_config(text).sweep_plan()

    def test_galerkin_regime_checks_data_and_jobs(self):
        galerkin = SWEEP.replace("regime = smooth_s_ge_3", "regime = smooth_2_lt_s_lt_3\ns = 2.5")
        assert parse_config(galerkin).sweep_plan().s == 2.5
        assert parse_config(galerkin).sweep_plan(jobs=2).jobs == 2
        taylor = galerkin.replace(
            "kind = random_sobolev\nsigma = 3.25\nband = 8\nseed = 1",
            "kind = taylor_family\nmode = 1",
        )
        with pytest.raises(ConfigError, match="requires random_sobolev data"):
            parse_config(taylor).sweep_plan()

    def test_one_mode_section(self):
        with pytest.raises(ConfigError, match=r"\[model\].*\[sweep\].*not both"):
            parse_config(SWEEP + "\n[model]\nalpha = 0.01\n")
        with pytest.raises(ConfigError, match="neither"):
            parse_config(SIM.replace("[model]\nalpha = 0.01\n", ""))

    def test_reference_key_is_unknown(self):
        text = SWEEP.replace("regime = smooth_s_ge_3", "regime = smooth_s_ge_3\nreference = x")
        with pytest.raises(ConfigError, match="unknown key 'reference'"):
            parse_config(text)


def readme_ini_blocks() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)


class TestReadme:
    def test_ini_blocks_build_their_run(self):
        runs = [parse_config(block).run for block in readme_ini_blocks()]
        assert {type(run) for run in runs} == {SolverConfig, SweepPlan}


def echo_as_ini(lines: list[str]) -> str:
    """'[section] key = value' echo lines rendered back into INI text."""
    sections: dict[str, list[str]] = {}
    for line in lines:
        head, assignment = line.split("] ", 1)
        sections.setdefault(head.lstrip("["), []).append(assignment)
    return "".join(f"[{s}]\n" + "\n".join(keys) + "\n\n" for s, keys in sections.items())


ECHO_CASES = {
    "readme_simulate": lambda: readme_ini_blocks()[0],
    "readme_sweep": lambda: readme_ini_blocks()[1],
    "sweep_dt": lambda: SWEEP.replace("record_every = 0.1", "record_every = 0.1\ndt = 0.004"),
    "galerkin": lambda: SWEEP.replace(
        "regime = smooth_s_ge_3", "regime = smooth_2_lt_s_lt_3\ns = 2.5"
    ),
    "eigenfunction": lambda: SIM.replace(
        "kind = random_sobolev\nsigma = 3.0\nband = 8", "kind = eigenfunction\nk2 = 2"
    ),
    "yudovich_patch": lambda: SIM.replace(
        "kind = random_sobolev\nsigma = 3.0\nband = 8",
        "kind = yudovich_patch\nradius = 0.6\nsmoothing = 0.1",
    ),
    "taylor_family": lambda: SWEEP.replace(
        "kind = random_sobolev\nsigma = 3.25\nband = 8",
        "kind = taylor_family\nmode = 2\nperturbation = 0.05",
    ),
}


class TestEchoRoundTrip:
    """The effective echo parses back into the same run: parser and echo
    share one schema."""

    @pytest.mark.parametrize("case", ECHO_CASES)
    def test_echo_parses_to_same_run(self, case):
        cfg = parse_config(ECHO_CASES[case]())
        back = parse_config(echo_as_ini(cfg.effective_lines()))
        assert back.run == cfg.run
        assert back.recipe == cfg.recipe
        assert back.grid == cfg.grid
        assert back.out_dir == cfg.out_dir

    def test_every_key_echoed_and_parsed_back(self):
        # a _KEYS row that no echo case shows fails here
        echoed = set()
        for make in ECHO_CASES.values():
            lines = parse_config(make()).effective_lines()
            assert parse_config(echo_as_ini(lines)).effective_lines() == lines
            echoed |= {line.split(" = ", 1)[0] for line in lines}
        assert {f"[{s}] {key}" for s, rows in _KEYS.items() for key in rows} <= echoed
        assert {f"[init] {key}" for rows in INIT_PARAMS.values() for key in rows} <= echoed


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(SIM)
        assert load_config(str(p)).sha256 == parse_config(SIM).sha256

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))
