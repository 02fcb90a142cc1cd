"""The prepared residual kernel against the formula it replaces, and the flow's drift window.

The reference below is the residual written plainly: centered
differences through ``np.roll``, the divergence as the sum of those
differences of each flux density over ``sqrt(det)``, and contractions
through ``np.einsum``.  The kernel reorganises the same arithmetic on
slices, so the two must agree bit for bit, not within a tolerance.
"""

import json

import numpy as np
import pytest

from pmclab import (
    ScalarField,
    SolveOptions,
    WarpedProduct,
    build_hyperbolic_disk,
    build_polar_disk,
    build_torus,
    flow_solve,
    integrate,
    volume,
)
from pmclab import solver
from pmclab.scenarios import parse_config
from pmclab.solver import Verdict, _Problem
from pmclab.warped import mean_curvature_residual

from explicit_lift import lift_to_circle


def _roll_derivative(values, grid, axis):
    d = grid.spacings[axis]
    if grid.periodic_axes[axis]:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * d)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * d)
    paired = np.roll(values[0], grid.dims[1] // 2, axis=0)
    out[0] = (values[1] - paired) / (2.0 * d)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * d)
    return out


def _roll_partials(values, grid):
    return np.stack([_roll_derivative(values, grid, ax) for ax in range(grid.ndim)], axis=-1)


def _roll_divergence(comps, grid, sqrt_det):
    q = sqrt_det[..., None] * comps
    acc = np.zeros(grid.shape)
    for axis in range(grid.ndim):
        acc += _roll_derivative(q[..., axis], grid, axis)
    return acc / sqrt_det


def _reference_residual(wp, u, target):
    grid, metric, h = wp.fiber, wp.metric, wp.warping.values
    du = _roll_partials(u, grid)
    gu = np.einsum("...ij,...j->...i", metric.inv, du)
    grad_sq = np.maximum(np.einsum("...i,...i->...", du, gu), 0.0)
    W = np.sqrt(1.0 + h**2 * grad_sq)
    div = _roll_divergence((h / W)[..., None] * gu, grid, metric.sqrt_det)
    dh = _roll_partials(h, grid)
    drift = np.einsum("...i,...i->...", dh, gu) / W
    return div + drift - wp.dimension * target


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _conformal_torus():
    config = parse_config(json.dumps({
        "fiber": {"kind": "torus", "dims": [64, 64]},
        "metric": "1+0.2*sin(x1)*cos(x2)",
        "warping": "1+0.3*cos(x1)+0.1*sin(2*x2)",
        "H_target": "0.05*cos(x1+x2)",
        "initial": "0",
    }))
    x1, x2 = config.grid.meshes()
    u = 0.4 * np.sin(x1) * np.cos(2.0 * x2) + 0.1 * np.cos(x1 - x2)
    return config.warped, u, config.target.values


def _hyperbolic_disk():
    grid, metric = build_hyperbolic_disk(64, 128, 0.875)
    rho, theta = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u = 0.5 * rho**3 * np.sin(3.0 * theta) + 0.2 * rho * np.cos(theta)
    return wp, u, np.zeros(grid.shape)


def _flat_disk():
    grid, metric = build_polar_disk(16, 32, 1.0)
    rho, theta = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField(grid, 1.0 + 0.2 * rho**2))
    u = 0.3 * rho * np.cos(theta) - 0.2 * rho**2
    return wp, u, np.full(grid.shape, 0.1)


def _lifted_torus():
    grid2, metric2 = build_torus((16, 16))
    x1, x2 = grid2.meshes()
    h2 = ScalarField(grid2, 1.0 + 0.3 * np.cos(x1))
    grid3, metric3, lift = lift_to_circle(grid2, metric2, 8)
    wp = WarpedProduct(grid3, metric3, lift(h2))
    _, _, x3 = grid3.meshes()
    u = lift(ScalarField(grid2, 0.3 * np.sin(x1) + 0.1 * np.cos(x2))).values + 0.2 * np.sin(x3)
    return wp, u, np.full(grid3.shape, -0.02)


@pytest.mark.parametrize("build", [_conformal_torus, _hyperbolic_disk, _flat_disk, _lifted_torus],
                         ids=["conformal_torus_64", "hyperbolic_disk_64x128",
                              "flat_disk_16x32", "lifted_torus_3d"])
def test_kernel_is_bit_identical_to_the_roll_and_einsum_formula(build):
    wp, u, target = build()
    # signed zeros in the height, some with a +0.0 two nodes away, change no bit either
    u = u.copy()
    u.ravel()[::7] = -0.0
    u.ravel()[5::7] = 0.0
    expected = _reference_residual(wp, u, target)
    got = mean_curvature_residual(wp, ScalarField(wp.fiber, u),
                                  ScalarField(wp.fiber, target)).values
    assert np.array_equal(_bits(got), _bits(expected))


def test_residual_full_still_returns_none_on_unusable_heights():
    wp, u, target = _conformal_torus()
    prob = _Problem(wp, ScalarField(wp.fiber, target))
    assert prob.residual_full(u) is not None
    nonfinite = u.copy()
    nonfinite[3, 5] = np.nan
    assert prob.residual_full(nonfinite) is None
    spike = u.copy()
    spike[3, 5] = 0.9 * np.finfo(np.float64).max
    assert prob.residual_full(spike) is None


# ---------------------------------------------------------------------------
# the drift window of the flow


def _every_step_drift(wp, target, u0, opts, t_max):
    """The implicit flow written out: an fsum mean at every accepted step, then the window.

    Each trial takes its step from the flow's own linear solve,
    :meth:`_Problem.flow_step`, on a problem of its own, so the kept factor
    carries the same steps as in ``flow_solve``.  Returns the drift with
    the accepted and rejected step counts.
    """
    prob = _Problem(wp, target)
    vol = volume(wp.metric)
    eps = np.finfo(np.float64).eps
    u = u0.values.copy()
    f = prob.pack(prob.residual_full(u))
    times, means = [0.0], [integrate(ScalarField(wp.fiber, u), wp.metric) / vol]
    span, rejected = 1.0 / 16, 0
    while np.abs(f).max() > opts.tol_abs and times[-1] < 1.0:
        jac = prob.jacobian(u)
        # abs() sorts the columns of its input in place, and a Jacobian's are
        # unsorted and shared with the problem's other matrices: so it takes a copy
        slack = eps * (1.0 + np.abs(u).max()) * abs(jac.copy()).sum(axis=1).max()
        while True:
            step = min(span, 1.0 - times[-1])
            trial = u + prob.scatter(prob.flow_step(jac, step * t_max, f))
            trial_f = prob.pack(prob.residual_full(trial))
            if np.abs(trial_f).max() <= np.abs(f).max() + slack:
                break
            rejected += 1
            span = step / 2
        u, f = trial, trial_f
        times.append(times[-1] + step)
        means.append(integrate(ScalarField(wp.fiber, u), wp.metric) / vol)
        span = min(2 * step, 1.0 / 16)
    last = len(means) - 1
    if last < 1:
        return 0.0, 0, rejected
    k0 = min(int(0.8 * last), last - 1)
    return -(means[-1] - means[k0]) / ((times[-1] - times[k0]) * t_max), last, rejected


def _counting(monkeypatch):
    calls = []
    original = solver.mean_curvature_residual

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, "mean_curvature_residual", counted)
    return calls


def _obstructed_torus():
    grid, metric = build_torus((16, 16))
    x1, x2 = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u0 = ScalarField(grid, 0.1 * np.sin(x1) + 0.05 * np.cos(x2))
    return wp, ScalarField.constant(grid, 0.1), u0, SolveOptions(), 3.1


def _dirichlet_cap():
    # the cap of the flow-versus-Newton test, stopped early by a loose tolerance
    grid, metric = build_polar_disk(16, 32, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    zero = ScalarField.constant(grid, 0.0)
    return wp, ScalarField.constant(grid, -0.1), zero, SolveOptions(tol_abs=0.1999), 40.0


def _settling_torus():
    # a tolerance just under the start's residual ends the run after a step or a few
    grid, metric = build_torus((16, 16))
    x1, x2 = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField(grid, 1.0 + 0.3 * np.cos(x1)))
    zero = ScalarField.constant(grid, 0.0)
    u0 = ScalarField(grid, 0.1 * np.sin(x1) + 0.05 * np.cos(x2))
    start = _Problem(wp, zero).residual_full(u0.values)
    return wp, zero, u0, SolveOptions(tol_abs=0.97 * float(np.abs(start).max())), 40.0


def _rejecting_disk():
    # the counterexample's boundary data on a coarse hyperbolic disk, where
    # some trials raise the residual and are not taken
    grid, metric = build_hyperbolic_disk(16, 32, 0.875)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u0 = np.zeros(grid.shape)
    u0[-1, :] = 0.5 * np.sin(3.0 * grid.axes[1])
    return wp, ScalarField.constant(grid, 0.0), ScalarField(grid, u0), SolveOptions(), 40.0


@pytest.mark.parametrize("build, verdict", [
    (_obstructed_torus, Verdict.max_iter),
    (_dirichlet_cap, Verdict.converged),
    (_settling_torus, Verdict.converged),
    (_rejecting_disk, Verdict.converged),
], ids=["max_iter_torus", "converged_disk", "shorter_than_a_spacing", "rejecting_disk"])
def test_drift_from_two_exact_means_equals_the_every_step_mean(monkeypatch, build, verdict):
    wp, target, u0, opts, t_max = build()
    expected, accepted, rejected = _every_step_drift(wp, target, u0, opts, t_max)
    calls = _counting(monkeypatch)
    _, report = flow_solve(wp, target, u0, opts, t_max=t_max)
    assert report.verdict is verdict
    assert report.iterations == accepted
    assert report.mean_drift_rate == expected
    # one residual for the start and one per trial, taken or not
    assert len(calls) == accepted + rejected + 1
    if build is _settling_torus:
        assert 1 <= report.iterations <= 4
    if build is _rejecting_disk:
        assert rejected > 0
    if build is _obstructed_torus:
        # mass balance: the mean sinks at n * H = 0.2
        assert report.mean_drift_rate == pytest.approx(0.2, rel=1e-10)
