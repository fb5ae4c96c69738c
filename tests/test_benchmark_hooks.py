"""The names the traced benchmark (perfbench/tracer.py) patches still exist.

The tracer imports a few voigt2d modules, wraps every function of its
LAYERS table in its voigt2d module and hands the sweep's process pool an
initializer through voigt2d.harness.ProcessPoolExecutor.  A rename or
removal of one of them, a layer module its imports no longer load, or a
pool name read before the tracer patches it, breaks only the traced
benchmark run, so this checks them here.  The table and the imports are
read from the tracer's source text; nothing under perfbench/ is imported
or written.
"""

import ast
import importlib
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from voigt2d import DataRecipe, GridSpec, SweepPlan, run_sweep
from checkout import checkout_env

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_tree() -> ast.Module:
    return ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))


def tracer_layers() -> dict[str, tuple[str, ...]]:
    for node in tracer_tree().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_traced_functions_exist():
    layers = tracer_layers()
    assert layers
    missing = [
        f"voigt2d.{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"voigt2d.{layer}"), name, None))
    ]
    assert missing == []


def test_pool_hook_exists():
    from voigt2d import harness

    assert callable(harness.ProcessPoolExecutor)


def install_imports() -> list[str]:
    """The voigt2d modules that tracer.install imports."""
    for node in tracer_tree().body:
        if isinstance(node, ast.FunctionDef) and node.name == "install":
            return [
                alias.name
                for sub in ast.walk(node)
                if isinstance(sub, ast.Import)
                for alias in sub.names
                if alias.name.split(".")[0] == "voigt2d"
            ]
    raise AssertionError(f"no install function in {TRACER}")


def test_install_imports_load_every_layer():
    # the tracer looks each layer up in sys.modules, in a process that has
    # imported voigt2d and voigt2d.cli and then the modules install imports
    imports = ["voigt2d", "voigt2d.cli", *install_imports()]
    assert len(imports) > 2
    layers = [f"voigt2d.{layer}" for layer in tracer_layers()]
    probe = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in imports)
        + f"print(*(m for m in {layers!r} if m not in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=checkout_env(),
    )
    assert proc.stdout.split() == []


def test_pool_hook_is_looked_up_when_the_pool_opens(monkeypatch):
    # as the tracer does, replace the pool name after import with one that
    # hands the real pool an initializer: a pooled sweep opens it, a
    # serial sweep never does, and the results agree
    from voigt2d import harness

    pool, opened = harness.ProcessPoolExecutor, []

    def hooked(**kwargs):
        opened.append(kwargs)
        return pool(initializer=abs, initargs=(0,), **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", hooked)
    plan = SweepPlan(
        recipe=DataRecipe("random_sobolev", {"sigma": 3.25, "band": 4}, seed=1),
        alphas=(1e-1, 1e-2, 1e-3, 1e-4),
        grid=GridSpec(16),
        t_end=0.1,
        regime="smooth_s_ge_3",
        record_every=0.05,
        dt=0.05,
    )
    serial = run_sweep(plan)
    assert opened == []
    pooled = run_sweep(replace(plan, jobs=2))
    assert opened == [{"max_workers": 2}]
    assert pooled.per_alpha == serial.per_alpha
