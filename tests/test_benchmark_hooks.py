"""The names the traced benchmark (perfbench/tracer.py) patches still exist.

The tracer wraps every function of its LAYERS table in its voigt2d module
and hands the sweep's process pool an initializer through
voigt2d.harness.ProcessPoolExecutor.  A rename or removal of one of them
breaks only the traced benchmark run, so this checks the names here.  The
table is read from the tracer's source text; nothing under perfbench/ is
imported or written.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_layers() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
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
