"""The counts a traced run records repeat exactly for one seed.

Runs each workload twice in traced mode on one seed, each time in a fresh
process as the benchmark does, and compares the per-op Newton iterations,
flow steps, residual calls and Krylov matvecs.  Run with
``python3 -m pytest -q perfbench/test_counts.py`` from the checkout root.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT, ROOT, import_from_checkout  # noqa: E402

import_from_checkout()
from workloads import WORKLOADS  # noqa: E402

COUNTED = {"calls": ("warped.residual", "solver.matvec", "geometry.integrate",
                     "scenarios.parse_config"),
           "attrs": ("solver.newton_solve.iterations", "solver.flow_solve.iterations")}
SEED = 11


def _traced_counts(workload: str) -> dict:
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                   check=True, capture_output=True, timeout=180, cwd=ROOT)
    with open(os.path.join(OUT, f"trace-{workload}-seed{SEED}.json"), encoding="ascii") as fh:
        per_op = json.load(fh)["per_op"]
    return {op: {part: {name: figures[part].get(name, 0) for name in names}
                 for part, names in COUNTED.items()}
            for op, figures in per_op.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_one_seed(workload):
    first = _traced_counts(workload)
    second = _traced_counts(workload)
    assert set(first) == {"setup", "1"}
    assert first == second
    assert first["1"]["calls"]["warped.residual"] > 0
