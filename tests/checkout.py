"""The environment for a subprocess that imports voigt2d from this
checkout, installed or not: the tests import it from ``src`` through
pytest's ``pythonpath``, which a child interpreter does not inherit."""

import os
from pathlib import Path

import voigt2d


def checkout_env() -> dict[str, str]:
    """os.environ with the directory of the imported voigt2d package first
    on PYTHONPATH."""
    src = str(Path(voigt2d.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
