"""The benchmark's tracer (perfbench/tracing.py) wraps pmclab attributes by name.

A renamed or deleted attribute would make ``--trace 1`` fail its ops, so
every target must resolve, be wrapped on install and be restored after.
"""

import importlib.util
from pathlib import Path

from pmclab import solver

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    tracing = _load_tracing()
    targets = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    targets.append((solver, "LinearOperator"))
    originals = [getattr(module, attr) for module, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
