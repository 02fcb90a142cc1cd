"""The benchmark's tracer (perfbench/tracing.py) wraps pmclab attributes by name.

A renamed or deleted attribute would make ``--trace 1`` fail its ops, so
every target must resolve, be wrapped on install and be restored after.
A refactor that stops calling a wrapped name would instead blank that
layer's figures, so a traced flow solve must still record residual and
integrate spans, a traced Newton run a residual span per level and per
step and a matvec span per Krylov iteration it reports, and a traced
Newton run of every check each check layer.
"""

import importlib.util
import json
from pathlib import Path

from pmclab import scenarios, solver

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


def test_tracer_sees_the_residual_and_integrate_layers_of_a_flow_solve():
    tracing = _load_tracing()
    config = scenarios.parse_config(json.dumps({
        "fiber": {"kind": "torus", "dims": [16, 16]},
        "warping": "1",
        "H_target": "0.1",
        "initial": "0.1*sin(x1)",
        "solver": {"method": "flow", "t_max": 0.5},
        "checks": ["compatibility"],
        "expect": "obstructed",
    }))
    tracer = tracing.Tracer()
    with tracer.phase(0):
        report = scenarios.run_scenario(config)
    calls = tracing.summarize(tracer.spans)[0]["calls"]
    steps = report.solve.iterations
    assert report.solve.verdict.value == "max_iter" and steps > 0
    assert calls["solver.flow_solve"] == 1
    # a residual for the start and for each trial, within the trial budget
    assert steps + 1 <= calls["warped.residual"] <= solver._FLOW_MAX_TRIALS + 1
    # the mean of every accepted state, and the compatibility check
    assert 1 <= calls["geometry.integrate"] <= steps + 2


def test_tracer_sees_a_residual_per_level_and_step_of_a_newton_run():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracer.phase(0):
        report = scenarios.run_scenario(scenarios.builtin_config("hyperbolic_counterexample"))
    calls = tracing.summarize(tracer.spans)[0]["calls"]
    assert report.solve.verdict.value == "converged"
    levels = 1 + len(report.coarse_solves)
    steps = report.solve.iterations + sum(c["iterations"] for c in report.coarse_solves)
    assert steps > 0
    # each level evaluates its start, and each step at least one trial
    assert calls["warped.residual"] >= levels + steps


def test_tracer_sees_every_krylov_iteration_of_a_newton_run():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracer.phase(0):
        report = scenarios.run_scenario(scenarios.builtin_config("hyperbolic_counterexample"))
    calls = tracing.summarize(tracer.spans)[0]["calls"]
    krylov = report.solve.krylov_iterations + sum(c["krylov_iterations"]
                                                  for c in report.coarse_solves)
    assert krylov > 0
    assert calls["solver.matvec"] == krylov


def test_tracer_sees_every_check_layer_of_a_newton_run():
    # the checks take the solved graph state; each wrapped name must still be called
    tracing = _load_tracing()
    config = scenarios.builtin_config("identities")
    tracer = tracing.Tracer()
    with tracer.phase(0):
        report = scenarios.run_scenario(config)
    calls = tracing.summarize(tracer.spans)[0]["calls"]
    assert report.solve.verdict.value == "converged"
    assert all(check["pass"] for check in report.checks.values())
    # one Newton solve per level: the coarser levels, then the config's own
    assert calls["solver.newton_solve"] == 1 + len(report.coarse_solves)
    assert calls["scenarios.check"] == len(config.checks) == 6
    for name in ("warped.check_height_identity", "warped.check_superharmonic",
                 "warped.check_conformal_laplacian", "warped.quasi_isometry_constants"):
        assert calls.get(name, 0) >= 1, name
