"""The package's public names: each resolves, none repeats, the count
holds at the number the ROADMAP states, and no public function or class
is kept only for the tests."""

import ast
import inspect
from pathlib import Path

import voigt2d

PUBLIC_NAMES = 57

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voigt2d"
TRACER = ROOT / "perfbench" / "tracer.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def called_names(tree: ast.Module) -> set[str]:
    """Names called as ``name(...)`` or ``obj.name(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def traced_layers() -> set[str]:
    """The function names of perfbench/tracer.py::LAYERS, read as text."""
    for node in parse(TRACER).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return {fn for fns in ast.literal_eval(node.value).values() for fn in fns}
    raise AssertionError(f"no LAYERS table in {TRACER}")


def acceptance_imports() -> set[str]:
    return {
        alias.name
        for node in ast.walk(parse(ACCEPTANCE))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_public_name_resolves():
    missing = [name for name in voigt2d.__all__ if not hasattr(voigt2d, name)]
    assert missing == []


def test_no_public_name_repeats():
    assert len(set(voigt2d.__all__)) == len(voigt2d.__all__)


def test_public_name_count():
    assert len(voigt2d.__all__) == PUBLIC_NAMES


def test_every_public_function_has_a_caller():
    # called (a class constructed or raised) in the package itself, a
    # traced layer, or used by the acceptance suite: anything else is kept
    # only for its own tests
    used = traced_layers() | acceptance_imports()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= called_names(parse(path))
    callables = [
        name
        for name in voigt2d.__all__
        if inspect.isfunction(obj := getattr(voigt2d, name)) or inspect.isclass(obj)
    ]
    assert callables
    assert [name for name in callables if name not in used] == []
