"""The four benchmark workloads: seeded inputs, one op each, and its oracle.

Each workload builds its configs from the seed in ``__init__`` (that is
the set-up ``setup_s`` times), runs one op in :meth:`op` (the part
``op_s_p50`` times) and judges the op's output in :meth:`check`, outside
the timed region.  The program only ever sees generated JSON configs,
through ``scenarios.parse_config`` / ``run_scenario``, or a ``cli.main``
argument list.  Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from pmclab import ScalarField, cli, gradient, norm_sq, scenarios

_TRIG_TERMS = ("sin(x1)", "cos(x1)", "sin(x2)", "cos(x2)",
               "sin(x1+x2)", "cos(x1-x2)", "sin(2*x1)", "cos(2*x2)")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _trig_start(rng: np.random.Generator) -> str:
    """Seeded 8-term low-frequency start, the formula form of acceptance criterion 5's."""
    coeffs = rng.uniform(-0.15, 0.15, size=len(_TRIG_TERMS))
    return "+".join(f"({float(c)!r})*{term}" for c, term in zip(coeffs, _TRIG_TERMS))


def _all_checks_pass(checks: dict) -> bool:
    return all(entry["pass"] for entry in checks.values())


class HyperbolicDisk:
    """Bundled ``hyperbolic_counterexample`` with boundary data rotated by a seeded phase.

    The phase is a whole number of angular grid steps, so each op's
    solution is an index rotation of op 0's, which serves as reference.
    """

    name = "newton_hyperbolic_disk"
    pool = 8

    def __init__(self, seed: int, workdir: str) -> None:
        base = scenarios.BUILTIN_SCENARIOS["hyperbolic_counterexample"]
        n_theta = base["fiber"]["dims"][1]
        self.shifts = [int(k) for k in _rng(seed).choice(n_theta, self.pool, replace=False)]
        self.configs = [
            scenarios.parse_config(json.dumps(
                {**base, "boundary": f"0.5*sin(3*(theta+{k}*2*pi/{n_theta}))"}))
            for k in self.shifts
        ]
        self.workdir = workdir
        self.reference: tuple[int, np.ndarray] | None = None

    def op(self, i: int):
        dump = os.path.join(self.workdir, f"disk-{i}")
        return scenarios.run_scenario(self.configs[i % self.pool], dump_dir=dump), dump

    def check(self, i: int, out) -> tuple[bool, dict]:
        report, dump = out
        config = self.configs[i % self.pool]
        table = np.loadtxt(os.path.join(dump, "height.csv"), delimiter=",", skiprows=1)
        shutil.rmtree(dump)
        height = table[:, -1].reshape(config.grid.shape)
        shift = self.shifts[i % self.pool]
        if self.reference is None:
            self.reference = (shift, height)
        ref_shift, ref_height = self.reference
        agreement = float(np.abs(height - np.roll(ref_height, ref_shift - shift, axis=1)).max())
        boundary = config.boundary_values
        solve = report.solve
        detail = {
            "verdict": solve.verdict.value,
            "interior_residual": solve.residual_history[-1],
            "oscillation": solve.u_oscillation,
            "rotation_agreement": agreement,
            "rim_mid_gradient_ratio": self._rim_mid_ratio(config, height),
        }
        ok = (solve.verdict.value == "converged"
              and solve.residual_history[-1] <= 1e-10
              and boundary.min() - 1e-8 <= height.min()
              and height.max() <= boundary.max() + 1e-8
              and solve.u_oscillation > 0.5
              and _all_checks_pass(report.checks)
              and agreement <= 1e-8)
        return ok, detail

    @staticmethod
    def _rim_mid_ratio(config, height: np.ndarray) -> float:
        """Criterion 7's decay measure, recorded as a value: that clause is known to fail."""
        grid, metric = config.grid, config.metric
        gnorm = np.sqrt(norm_sq(gradient(ScalarField(grid, height), metric), metric).values)
        rho, radius = grid.axes[0], config.normalized["fiber"]["R"]
        outer = (rho >= 0.9 * radius) & (rho < rho[-1])
        mid = np.abs(rho - 0.5 * radius) <= 0.05 * radius
        return float(gnorm[outer, :].mean() / gnorm[mid, :].mean())


class TorusStarts:
    """Bundled ``uniqueness_torus`` (64^2, h = 1+0.3cos(x1), H = 0) from seeded smooth starts."""

    name = "newton_torus_starts"
    pool = 32

    def __init__(self, seed: int, workdir: str) -> None:
        base = scenarios.BUILTIN_SCENARIOS["uniqueness_torus"]
        rng = _rng(seed)
        self.configs = [scenarios.parse_config(json.dumps({**base, "initial": _trig_start(rng)}))
                        for _ in range(self.pool)]

    def op(self, i: int):
        return scenarios.run_scenario(self.configs[i % self.pool])

    def check(self, i: int, report) -> tuple[bool, dict]:
        solve = report.solve
        detail = {"verdict": solve.verdict.value, "oscillation": solve.u_oscillation}
        ok = (solve.verdict.value == "converged" and solve.u_oscillation <= 1e-6
              and _all_checks_pass(report.checks))
        return ok, detail


class FlowObstructedTorus:
    """Acceptance criterion 6 as a flow scenario: 64^2 torus, h = 1, seeded H > 0, t_max = 5."""

    name = "flow_obstructed_torus"
    pool = 8

    def __init__(self, seed: int, workdir: str) -> None:
        rng = _rng(seed)
        self.targets = []
        self.configs = []
        for _ in range(self.pool):
            target = float(rng.uniform(0.05, 0.15))
            self.targets.append(target)
            self.configs.append(scenarios.parse_config(json.dumps({
                "fiber": {"kind": "torus", "dims": [64, 64]},
                "warping": "1",
                "H_target": repr(target),
                "initial": _trig_start(rng),
                "solver": {"method": "flow", "t_max": 5.0},
                "checks": ["compatibility"],
                "expect": "obstructed",
            })))

    def op(self, i: int):
        return scenarios.run_scenario(self.configs[i % self.pool])

    def check(self, i: int, report) -> tuple[bool, dict]:
        solve = report.solve
        # mass balance: the mean height drifts at n * H with n = 2
        expected = 2.0 * self.targets[i % self.pool]
        detail = {"verdict": solve.verdict.value, "drift": solve.mean_drift_rate,
                  "expected_drift": expected}
        ok = (solve.verdict.value == "max_iter"
              and abs(solve.mean_drift_rate - expected) <= 0.1 * expected
              and report.checks["compatibility"]["pass"])
        return ok, detail


class IdentityBattery:
    """``pmclab verify``, then three bundled scenarios with one refinement, through ``cli.main``.

    The battery's inputs are fixed; the seed only orders the scenario names.
    """

    name = "identity_battery"
    scenario_names = ("identities", "ricci_sign", "obstruction_torus")

    def __init__(self, seed: int, workdir: str) -> None:
        order = _rng(seed).permutation(len(self.scenario_names))
        self.names = [self.scenario_names[k] for k in order]
        self.verify_out = os.path.join(workdir, "verify.json")
        self.scenario_out = os.path.join(workdir, "scenarios.json")

    def op(self, i: int):
        verify_code = cli.main(["verify", "--out", self.verify_out])
        scenario_code = cli.main(["scenario", *self.names, "--refine", "1",
                                  "--out", self.scenario_out])
        return verify_code, scenario_code

    def check(self, i: int, codes) -> tuple[bool, dict]:
        with open(self.verify_out, encoding="ascii") as fh:
            suites = json.load(fh)
        with open(self.scenario_out, encoding="ascii") as fh:
            reports = json.load(fh)
        os.remove(self.verify_out)
        os.remove(self.scenario_out)
        checks_pass = all(
            _all_checks_pass(part["checks"])
            for report in reports for part in [report, *report["refinements"]]
        )
        detail = {"exit_codes": list(codes), "suites": {s["suite"]: s["pass"] for s in suites}}
        ok = (codes == (0, 0) and len(suites) == 5 and all(s["pass"] for s in suites)
              and len(reports) == 3 and checks_pass)
        return ok, detail


WORKLOADS = {w.name: w for w in (HyperbolicDisk, TorusStarts, FlowObstructedTorus, IdentityBattery)}
