"""The Newton Jacobian as the exact derivative of the discrete residual.

``_Problem.jacobian`` assembles ``J`` from the difference matrices of
:func:`pmclab.geometry.partial_matrix` by the chain rule.  The matrices
must be the stencils the residual applies, and ``J v`` must be the limit
of centered differences of the residual: their gap shrinks at second
order in the step, on every row kind (drift, off-diagonal metric, the
third axis, the disk's axis ring and the ring next to its rim).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import pmclab
from pmclab import (
    MetricField,
    ScalarField,
    SolveOptions,
    WarpedProduct,
    build_hyperbolic_disk,
    build_polar_disk,
    build_torus,
    flow_solve,
    newton_solve,
)
from pmclab.geometry import partial_into, partial_matrix
from pmclab.solver import _Problem

_EPS = (1e-3, 1e-4, 1e-5)


@pytest.mark.parametrize("grid", [
    build_torus((8, 10))[0],
    build_torus((8, 9, 10))[0],
    build_polar_disk(8, 16, 1.5)[0],
], ids=["torus", "torus3d", "disk"])
def test_difference_matrices_are_the_residual_stencils(grid):
    values = np.random.default_rng(2).standard_normal(grid.shape)
    for axis in range(grid.ndim):
        got = (partial_matrix(grid, axis) @ values.ravel()).reshape(grid.shape)
        expected = partial_into(values, grid, axis, np.empty(grid.shape))
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max(), axis


def _drift_torus():
    # a varying warping (drift rows) over a metric with an off-diagonal part
    grid, _ = build_torus((24, 24))
    x1, x2 = grid.meshes()
    mat = np.zeros(grid.shape + (2, 2))
    mat[..., 0, 0] = 1.2 + 0.2 * np.sin(x2)
    mat[..., 1, 1] = 1.0 + 0.2 * np.cos(x1)
    mat[..., 0, 1] = mat[..., 1, 0] = 0.3 * np.sin(x1 + x2)
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(x1) + 0.2 * np.sin(x2))
    wp = WarpedProduct(grid, MetricField(grid, mat), warping)
    prob = _Problem(wp, ScalarField.constant(grid, 0.0))
    return prob, 0.8 * np.sin(x1) + 0.5 * np.cos(2.0 * x2), {"all": slice(None)}


def _lifted_torus():
    grid, metric = build_torus((12, 12, 12))
    x1, x2, x3 = grid.meshes()
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(x1) + 0.2 * np.sin(x3))
    wp = WarpedProduct(grid, metric, warping)
    prob = _Problem(wp, ScalarField.constant(grid, 0.0))
    return prob, 0.6 * np.sin(x1) + 0.4 * np.cos(x2 + x3), {"all": slice(None)}


def _hyperbolic_disk():
    grid, metric = build_hyperbolic_disk(16, 32, 0.875)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    prob = _Problem(wp, ScalarField.constant(grid, 0.0))
    rho, theta = grid.meshes()
    u = 0.5 * (rho / 0.875) ** 3 * np.sin(3.0 * theta) + 0.2 * rho * np.cos(theta)
    # unknown rows by ring: the axis ring sees the across-center pair, the
    # last unknown ring the one-sided rim closure
    return prob, u, {"axis": slice(0, 1), "rim": slice(-1, None)}


@pytest.mark.parametrize("build", [_drift_torus, _lifted_torus, _hyperbolic_disk],
                         ids=["drift_torus", "lifted_torus", "hyperbolic_disk"])
def test_centered_differences_converge_to_the_jacobian_at_second_order(build):
    prob, u, ring_sets = build()
    v = np.random.default_rng(5).standard_normal(prob.n_dof)
    j_v = (prob.jacobian(u) @ v).reshape(-1, prob.grid.shape[-1])
    spread = prob.scatter(v)
    gaps = {ring: [] for ring in ring_sets}
    for eps in _EPS:
        plus = prob.residual_full(u + eps * spread)
        minus = prob.residual_full(u - eps * spread)
        centered = prob.pack(plus - minus).reshape(j_v.shape) / (2.0 * eps)
        for ring, rows in ring_sets.items():
            gaps[ring].append(np.abs(centered[rows] - j_v[rows]).max())
    for ring, gap in gaps.items():
        slope = np.polyfit(np.log10(_EPS), np.log10(gap), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1), (ring, gap)


def test_constant_warping_disk_stores_nine_entries_per_row_at_most():
    # no drift: the chain rule leaves the radius-one offsets out, where a
    # difference quotient would store rounding noise for the factor to fill
    prob, u, _ = _hyperbolic_disk()
    jac = prob.jacobian(u)
    assert jac.getnnz(axis=1).max() <= 9


def _overflowing_torus():
    # the x1 x1 entry of sigma^{-1} is 1e300 and the spacing 6e-8: the
    # residual of the level start is finite, its second differences are not
    grid, _ = build_torus((16, 16), extents=(1e-6, 1e-6))
    x1, _ = grid.meshes()
    mat = np.zeros(grid.shape + (2, 2))
    mat[..., 0, 0] = 1e-300
    mat[..., 1, 1] = 1e300
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(2e6 * np.pi * x1))
    wp = WarpedProduct(grid, MetricField(grid, mat), warping)
    return wp, ScalarField.constant(grid, 0.1), ScalarField.constant(grid, 0.0)


def test_non_finite_jacobian_entry_ends_the_solve_as_diverged():
    wp, target, zero = _overflowing_torus()
    prob = _Problem(wp, target)
    assert prob.residual_full(zero.values) is not None
    assert prob.jacobian(zero.values) is None
    _, report = newton_solve(wp, target, zero, SolveOptions())
    assert report.verdict == "diverged"
    assert report.iterations == 0


def test_non_finite_jacobian_entry_ends_the_flow_as_diverged():
    wp, target, zero = _overflowing_torus()
    state, report = flow_solve(wp, target, zero, SolveOptions(), t_max=1.0)
    assert report.verdict == "diverged"
    assert report.iterations == 0
    assert report.mean_drift_rate == 0.0
    np.testing.assert_array_equal(state.height.values, 0.0)


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(pmclab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "pmclab", "verify", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: pmclab verify" in done.stdout
