"""Each command imports only what it runs.

The package namespace resolves its public names on first use (PEP 562),
the CLI imports the stepper and the harness inside the commands that run
them, and the harness opens its process pool through a name that imports
multiprocessing only when a pool is made.  The footprint checks run in a
fresh interpreter, as a CLI call does.
"""

import importlib
import subprocess
import sys

import pytest

import voigt2d
from voigt2d import GridSpec, make_random_sobolev, snapshot_of, write_snapshot
from checkout import checkout_env

#: modules a diagnose never needs; the last two are the process pool's
WATCHED = (
    "voigt2d.harness",
    "voigt2d.dynamics",
    "concurrent.futures.process",
    "multiprocessing",
)


def loaded_after(code: str, watched: tuple[str, ...] = WATCHED) -> set[str]:
    """The ``watched`` modules in sys.modules after ``code`` runs in a fresh
    interpreter that imports voigt2d from this checkout."""
    probe = (
        f"{code}\nimport sys\n"
        f"print('loaded:', *(m for m in {watched!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=checkout_env(),
    ).stdout
    (line,) = [l for l in out.splitlines() if l.startswith("loaded:")]
    return set(line.split()[1:])


def cli_call(*argv: str) -> str:
    return f"from voigt2d.cli import entry\nassert entry({list(argv)!r}) == 0"


class TestFootprint:
    def test_importing_the_cli_loads_no_stepper_harness_or_pool(self):
        assert loaded_after("import voigt2d, voigt2d.cli") == set()

    def test_diagnose_loads_no_stepper_or_harness(self, tmp_path):
        path = tmp_path / "state.vfld"
        field = make_random_sobolev(GridSpec(16), sigma=3.0, seed=0, band=4)
        write_snapshot(str(path), snapshot_of(field, 0.5, 1e-2))
        call = cli_call("diagnose", str(path), "--cz", "4", "--gagliardo", "2")
        assert loaded_after(call) == set()

    def test_serial_sweep_loads_no_process_pool(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[grid]\nsize = 16\n\n"
            "[time]\nt_end = 0.1\nrecord_every = 0.05\ndt = 0.05\n\n"
            "[init]\nkind = random_sobolev\nsigma = 3.25\nband = 4\nseed = 1\n\n"
            "[sweep]\nalphas = 1e-1, 1e-2, 1e-3, 1e-4\nregime = smooth_s_ge_3\n\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        loaded = loaded_after(cli_call("sweep", str(cfg)))
        assert loaded == {"voigt2d.harness", "voigt2d.dynamics"}

    def test_error_metrics_load_diagnostics_not_harness(self):
        # the metric names live with error_norms, which makes their keys
        watched = ("voigt2d.diagnostics", "voigt2d.harness")
        loaded = loaded_after("import voigt2d\nvoigt2d.ERROR_METRICS", watched)
        assert loaded == {"voigt2d.diagnostics"}


class TestNamespace:
    @pytest.mark.parametrize("name", [n for n in voigt2d.__all__ if n != "__version__"])
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"voigt2d.{voigt2d._HOME[name]}")
        assert getattr(voigt2d, name) is getattr(home, name)
        # a class or function is defined in the module the table names
        assert getattr(getattr(home, name), "__module__", home.__name__) == home.__name__

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            voigt2d.no_such_name  # noqa: B018

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from voigt2d import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(voigt2d.__all__)

    def test_dir_lists_every_public_name(self):
        assert set(voigt2d.__all__) <= set(dir(voigt2d))
