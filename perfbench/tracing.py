"""Spans recorded from outside the program, around the calls into each layer.

A :class:`Tracer` replaces module attributes of ``pmclab`` with wrappers
that record a span (name, start, end, parent span, op) and put the
originals back on :meth:`Tracer.uninstall`.  Because the package binds
its helpers by name (``from .warped import mean_curvature_residual``),
each layer is wrapped in every module that calls it, under one span name.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from pmclab import cli, scenarios, solver, warped


def _iterations(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _nodes(args, kwargs, result):
    return {"nodes": args[1].values.size}


# (module, attribute, span name, attributes taken from the call)
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "run_scenario", "scenarios.run_scenario", None),
    (cli, "run_verification_suite", "scenarios.verify_suite", None),
    (scenarios, "parse_config", "scenarios.parse_config", None),
    (scenarios, "run_scenario", "scenarios.run_scenario", None),
    (scenarios, "newton_solve", "solver.newton_solve", _iterations),
    (scenarios, "flow_solve", "solver.flow_solve", _iterations),
    (scenarios, "_run_check", "scenarios.check", None),
    (scenarios, "check_height_identity", "warped.check_height_identity", None),
    (scenarios, "check_superharmonic", "warped.check_superharmonic", None),
    (scenarios, "check_conformal_laplacian", "warped.check_conformal_laplacian", None),
    (scenarios, "quasi_isometry_constants", "warped.quasi_isometry_constants", None),
    (scenarios, "mean_curvature_residual", "warped.residual", _nodes),
    (solver, "mean_curvature_residual", "warped.residual", _nodes),
    (solver, "gmres", "solver.gmres", None),
    (solver, "integrate", "geometry.integrate", None),
    (warped, "mean_curvature_residual", "warped.residual", _nodes),
    (warped, "divergence", "geometry.divergence", None),
    (warped, "coordinate_partials", "geometry.coordinate_partials", None),
    (warped, "integrate", "geometry.integrate", None),
)


class Tracer:
    """Span recorder for one process; spans are ``[id, parent, op, name, t0, t1, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self.op = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self.op, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, attrs in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, attrs))
        # the matvec closure is built per Newton step, so wrap it where
        # the solver hands it to scipy
        linear_operator = solver.LinearOperator
        self._saved.append((solver, "LinearOperator", linear_operator))

        def traced_operator(*args, matvec, **kwargs):
            return linear_operator(*args, matvec=self.wrap("solver.matvec", matvec), **kwargs)

        solver.LinearOperator = traced_operator

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def phase(self, op):
        """Trace one op, or the set-up when ``op == "setup"``, under a root span."""
        self.op = op
        self.install()
        root = self._open("setup" if op == "setup" else "op")
        try:
            yield
        finally:
            self._close(root)
            self.uninstall()
            self.op = None


def summarize(spans: list[list]) -> dict:
    """Per op: inclusive seconds, self seconds, call counts and summed attributes by span name."""
    child_time = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    ops: dict = {}
    for span in spans:
        op = ops.setdefault(span[2], {"incl_s": defaultdict(float), "self_s": defaultdict(float),
                                      "calls": defaultdict(int), "attrs": defaultdict(int)})
        name, duration = span[3], span[5] - span[4]
        op["incl_s"][name] += duration
        op["self_s"][name] += duration - child_time[span[0]]
        op["calls"][name] += 1
        for key, value in (span[6] or {}).items():
            op["attrs"][f"{name}.{key}"] += value
    return {op: {k: dict(v) for k, v in parts.items()} for op, parts in ops.items()}
