"""Locate the checkout the benchmark runs in and import ``repro`` from it.

The benchmark must measure the source tree it ships with, never an
installed copy, so ``src/`` of the checkout goes first on ``sys.path``
and the imported package is checked to come from there.
"""

from __future__ import annotations

import os
import sys

#: Root of the checkout: the directory holding ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Run output: traces, and artifacts and server logs while a run lasts
#: (git-ignored).
OUT = os.path.join(ROOT, "perfbench", "out")


class CheckoutError(RuntimeError):
    """The checkout lacks the program the benchmark measures."""


def import_repro():
    """Import ``repro`` from ``<checkout>/src``; raise if it is absent."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise CheckoutError(
            f"no program to measure: {package} does not exist"
        )
    # Bytecode caches would land inside the measured source tree.
    sys.dont_write_bytecode = True
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise CheckoutError(
            f"imported repro from {where}, expected {SRC}/repro"
        )
    return repro


def child_env() -> dict:
    """Environment for a child ``python -m repro.cli`` of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env
