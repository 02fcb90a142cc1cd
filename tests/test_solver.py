"""Damped Newton and relaxation flow for the prescribed-curvature equation."""

import math

import numpy as np
import pytest

from pmclab import (
    ConstructionError,
    PreconditionError,
    ScalarField,
    SolveOptions,
    SolveReport,
    WarpedProduct,
    build_hyperbolic_disk,
    build_polar_disk,
    build_torus,
    conformal_scale,
    flow_solve,
    integrate,
    maximum_principle_check,
    mean_curvature_residual,
    newton_solve,
    volume,
)
from pmclab import solver
from pmclab.solver import _Problem


def _torus_problem(n=32):
    grid, metric = build_torus((n, n))
    x1, _ = grid.meshes()
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(x1))
    wp = WarpedProduct(grid, metric, warping)
    zero = ScalarField.constant(grid, 0.0)
    return wp, zero


def _smooth_start(grid, seed, scale=0.15):
    rng = np.random.Generator(np.random.PCG64(seed))
    c = rng.uniform(-scale, scale, size=8)
    x1, x2 = grid.meshes()
    vals = (c[0] * np.sin(x1) + c[1] * np.cos(x1)
            + c[2] * np.sin(x2) + c[3] * np.cos(x2)
            + c[4] * np.sin(x1 + x2) + c[5] * np.cos(x1 - x2)
            + c[6] * np.sin(2.0 * x1) + c[7] * np.cos(2.0 * x2))
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# options and reports


def test_option_defaults_are_the_documented_contract():
    opts = SolveOptions()
    assert opts.tol_abs == 1e-10
    assert opts.max_newton == 50
    assert opts.gauge == "fix_mean"
    assert solver._MAX_LINEAR == 2000
    assert solver._LINEAR_RTOL == 1e-8
    assert solver._ARMIJO_C == 1e-4
    assert solver._MIN_STEP == 1e-6


@pytest.mark.parametrize("bad", [
    {"tol_abs": 0.0},
    {"max_newton": 0},
    {"tol_abs": -1e-8},
    {"tol_abs": math.nan},
    {"gauge": "lock_phase"},
    {"tol_abs": math.inf},
    {"max_newton": -1},
    {"max_newton": math.nan},
    {"max_newton": math.inf},
    {"gauge": 3},
    {"gauge": "none"},
])
def test_option_validation(bad):
    with pytest.raises((ConstructionError, ValueError)):
        SolveOptions(**bad)


def test_report_json_shape():
    report = SolveReport("converged", 3, [1.0, 0.1], 2e-12, 0.0, 1e-13)
    payload = report.to_json_dict()
    assert set(payload) == {"verdict", "iterations", "residual_history",
                            "u_oscillation", "mean_drift_rate", "grad_sup",
                            "factorizations"}
    assert payload["verdict"] == "converged"

    witnessed = SolveReport("obstructed", 0, [0.2], 0.0, 0.0, 0.0,
                            obstruction_witness=-7.9)
    assert witnessed.to_json_dict()["obstruction_witness"] == -7.9


# ---------------------------------------------------------------------------
# newton on closed fibers


def test_newton_finds_level_solution_from_smooth_starts():
    wp, zero = _torus_problem()
    for seed in (5, 6):
        state, report = newton_solve(wp, zero, _smooth_start(wp.fiber, seed),
                                     SolveOptions())
        assert report.verdict == "converged"
        assert report.u_oscillation <= 1e-6
        assert state.interior_residual_sup() <= 1e-10
        # history must actually decrease to the tolerance, not jump there
        assert report.residual_history[-1] < 1e-3 * report.residual_history[0]


def test_fix_mean_gauge_preserves_the_mean():
    from pmclab import integrate, volume
    wp, zero = _torus_problem()
    u0 = _smooth_start(wp.fiber, 9)
    state, report = newton_solve(wp, zero, u0, SolveOptions(gauge="fix_mean"))
    assert report.verdict == "converged"
    before = integrate(u0, wp.metric) / volume(wp.metric)
    after = integrate(state.height, wp.metric) / volume(wp.metric)
    assert after == pytest.approx(before, abs=1e-9)


def test_pin_node_gauge_freezes_the_first_node():
    wp, zero = _torus_problem()
    u0 = _smooth_start(wp.fiber, 10)
    state, report = newton_solve(wp, zero, u0, SolveOptions(gauge="pin_node"))
    assert report.verdict == "converged"
    assert state.height.values[0, 0] == u0.values[0, 0]


def test_obstructed_problem_is_declared_without_iterating():
    grid, metric = build_torus((32, 32))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    target = ScalarField.constant(grid, 0.1)
    state, report = newton_solve(wp, target, ScalarField.constant(grid, 0.0),
                                 SolveOptions())
    assert report.verdict == "obstructed"
    assert report.iterations == 0
    assert report.obstruction_witness == pytest.approx(-0.8 * math.pi**2, abs=1e-12)
    np.testing.assert_array_equal(state.height.values, 0.0)


def test_divergence_is_reported_not_raised():
    # a single astronomically tall spike overflows the gradient on the
    # very first residual evaluation
    wp, zero = _torus_problem()
    vals = np.zeros(wp.fiber.shape)
    vals[5, 5] = 1e308
    state, report = newton_solve(wp, zero, ScalarField(wp.fiber, vals),
                                 SolveOptions())
    assert report.verdict == "diverged"
    assert report.residual_history == [math.inf]


def test_checkerboard_null_mode_is_an_exact_discrete_solution():
    # centered differences cannot see the alternating mode, so this start
    # already solves the discrete equation; converging on it immediately
    # is the honest verdict for the chosen stencil
    wp, zero = _torus_problem()
    vals = np.zeros(wp.fiber.shape)
    vals[::2] = 1.0
    vals[1::2] = -1.0
    state, report = newton_solve(wp, zero, ScalarField(wp.fiber, vals),
                                 SolveOptions())
    assert report.verdict == "converged"
    assert report.iterations == 0


def test_unconverged_linear_solve_is_refused_not_taken(monkeypatch):
    # no linear solve reaches a tolerance below rounding; its step must not
    # be used, and the verdict says the iteration stopped short
    monkeypatch.setattr(solver, "_LINEAR_RTOL", 1e-30)
    monkeypatch.setattr(solver, "_MAX_LINEAR", 4)
    wp, zero = _torus_problem()
    u0 = _smooth_start(wp.fiber, 5)
    state, report = newton_solve(wp, zero, u0, SolveOptions())
    assert report.verdict == "max_iter"
    assert report.iterations == 0
    np.testing.assert_array_equal(state.height.values, u0.values)


def test_iteration_budget_yields_max_iter():
    wp, zero = _torus_problem()
    u0 = _smooth_start(wp.fiber, 11, scale=0.3)
    state, report = newton_solve(wp, zero, u0, SolveOptions(max_newton=1))
    assert report.verdict == "max_iter"
    assert report.iterations == 1


# ---------------------------------------------------------------------------
# newton on the pinned disk


def test_dirichlet_solutions_agree_regardless_of_start():
    grid, metric = build_polar_disk(24, 48, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    target = ScalarField.constant(grid, -0.05)
    zero = ScalarField.constant(grid, 0.0)

    rho, theta = grid.meshes()
    bump = np.where(grid.interior_mask, 0.1 * (rho / 1.0) * np.sin(theta), 0.0)
    state_a, rep_a = newton_solve(wp, target, zero, SolveOptions())
    state_b, rep_b = newton_solve(wp, target, ScalarField(grid, bump), SolveOptions())
    assert rep_a.verdict == "converged"
    assert rep_b.verdict == "converged"
    gap = maximum_principle_check(state_a, state_b, tol_solve=1e-8)
    assert gap <= 1e-8


def test_comparison_rejects_mismatched_targets():
    grid, metric = build_polar_disk(16, 32, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    zero = ScalarField.constant(grid, 0.0)
    minus = ScalarField.constant(grid, -0.05)
    state_a, _ = newton_solve(wp, minus, zero, SolveOptions())
    state_b, _ = newton_solve(wp, ScalarField.constant(grid, -0.04), zero,
                              SolveOptions())
    with pytest.raises(PreconditionError, match="curvature"):
        maximum_principle_check(state_a, state_b, tol_solve=1e-6)


def test_comparison_rejects_mismatched_metrics():
    from pmclab.warped import GraphState
    grid, flat = build_torus((16, 16))
    _, x2 = grid.meshes()
    bent = conformal_scale(flat, ScalarField(grid, 1.0 + 0.5 * np.cos(x2)))
    warping = ScalarField.constant(grid, 1.0)
    zero = ScalarField.constant(grid, 0.0)
    # level heights solve the zero-target equation over either metric
    state_a = GraphState(WarpedProduct(grid, flat, warping), zero, zero)
    state_b = GraphState(WarpedProduct(grid, bent, warping),
                         ScalarField.constant(grid, 0.3), zero)
    with pytest.raises(PreconditionError, match="different metrics"):
        maximum_principle_check(state_a, state_b)


def test_comparison_rejects_unsolved_states():
    from pmclab.warped import GraphState
    grid, metric = build_polar_disk(16, 32, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    zero = ScalarField.constant(grid, 0.0)
    rho, _ = grid.meshes()
    raw = GraphState(wp, ScalarField(grid, np.where(grid.interior_mask, rho, 0.0)),
                     zero)
    solved, _ = newton_solve(wp, zero, zero, SolveOptions())
    with pytest.raises(PreconditionError, match="solved"):
        maximum_principle_check(solved, raw, tol_solve=1e-10)


# ---------------------------------------------------------------------------
# matrix-free jacobian


def test_jacobian_action_matches_directional_differences():
    wp, zero = _torus_problem()
    x1, x2 = wp.fiber.meshes()
    u = 0.8 * np.sin(x1) + 0.5 * np.cos(2.0 * x2)
    prob = _Problem(wp, zero, SolveOptions())
    rng = np.random.default_rng(3)
    v = rng.standard_normal(prob.n_dof)
    action = prob.jacobian_action(u, v, project_out=False)

    errors = []
    spread = prob.scatter(v)
    for eps in (1e-3, 1e-4, 1e-5):
        plus = prob.residual_full(u + eps * spread)
        minus = prob.residual_full(u - eps * spread)
        centered = (plus - minus) / (2.0 * eps)
        errors.append(np.abs(prob.pack(centered) - action).max())
    slope = np.polyfit(np.log10([1e-3, 1e-4, 1e-5]), np.log10(errors), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def _assembly_problems():
    """A fix_mean torus, a pin_node torus and a hyperbolic disk, each with a
    non-level height so the Jacobian carries its nonlinear cross terms."""
    wp, zero = _torus_problem(16)
    x1, x2 = wp.fiber.meshes()
    u_torus = 0.8 * np.sin(x1) + 0.5 * np.cos(2.0 * x2)
    grid, metric = build_hyperbolic_disk(8, 16, 0.875)
    disk = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    rho, theta = grid.meshes()
    u_disk = 0.5 * (rho / 0.875) ** 3 * np.sin(3.0 * theta) + 0.2 * rho * np.cos(theta)
    return [
        ("fix_mean torus", _Problem(wp, zero, SolveOptions(gauge="fix_mean")), u_torus),
        ("pin_node torus", _Problem(wp, zero, SolveOptions(gauge="pin_node")), u_torus),
        ("hyperbolic disk", _Problem(disk, ScalarField.constant(grid, 0.0),
                                     SolveOptions()), u_disk),
    ]


@pytest.mark.parametrize("index", range(3), ids=["fix_mean", "pin_node", "disk"])
def test_assembled_jacobian_matches_the_matrix_free_action(index):
    name, prob, u = _assembly_problems()[index]
    jac = prob.jacobian(u)
    v = np.random.default_rng(7).standard_normal(prob.n_dof)
    assembled = (jac @ v).reshape(-1, prob.grid.shape[-1])
    action = prob.jacobian_action(u, v, project_out=False).reshape(assembled.shape)
    # both are central differences of one residual, so they differ by
    # truncation only; a missing or misgrouped entry is an O(1) error in
    # its row.  Disk rows next to the axis and to the rim see the
    # across-center pair and the one-sided closure, so each is checked
    # against its own scale.
    ring_sets = {"all": slice(None)}
    if not prob.grid.closed:
        ring_sets.update(axis=slice(0, 1), rim=slice(-1, None))
    for ring, rows in ring_sets.items():
        gap = np.abs(assembled[rows] - action[rows]).max()
        assert gap <= 1e-6 * np.abs(action[rows]).max(), (name, ring, gap)


@pytest.mark.parametrize("index", range(3), ids=["fix_mean", "pin_node", "disk"])
def test_newton_step_solves_consistent_systems_in_the_gauge(index):
    name, prob, u = _assembly_problems()[index]
    jac = prob.jacobian(u)
    w = np.random.default_rng(8).standard_normal(prob.n_dof)
    rhs = jac @ w
    delta, info = prob.linear_step(jac, rhs)
    assert info == 0
    delta = prob.project(delta)
    assert np.abs(jac @ delta + rhs).max() <= 1e-8 * np.abs(rhs).max(), name
    if prob.gauge == "fix_mean":
        assert abs(delta.mean()) <= 1e-12 * np.abs(delta).max()
    elif prob.gauge == "pin_node":
        assert delta[0] == 0.0
    else:
        # no null space on the disk: the step is the unique solution
        np.testing.assert_allclose(delta, -w, rtol=0.0, atol=1e-8 * np.abs(w).max())


def test_gauge_projection_removes_the_mean():
    wp, zero = _torus_problem()
    prob = _Problem(wp, zero, SolveOptions(gauge="fix_mean"))
    vec = np.arange(prob.n_dof, dtype=float)
    projected = prob.project(vec)
    assert abs(projected.mean()) < 1e-12


# ---------------------------------------------------------------------------
# relaxation flow


def test_flow_fixed_point_converges_immediately():
    wp, zero = _torus_problem()
    state, report = flow_solve(wp, zero, ScalarField.constant(wp.fiber, 0.4),
                               SolveOptions(), t_max=1.0)
    assert report.verdict == "converged"
    assert report.iterations == 0
    assert report.mean_drift_rate == 0.0
    np.testing.assert_array_equal(state.height.values, 0.4)


def test_flow_reports_steady_drift_on_obstructed_data():
    grid, metric = build_torus((32, 32))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    target = ScalarField.constant(grid, 0.1)
    state, report = flow_solve(wp, target, ScalarField.constant(grid, 0.0),
                               SolveOptions(), t_max=2.0)
    assert report.verdict == "max_iter"
    # mass balance: the mean sinks at rate n * mean(H) = 0.2, and the
    # drift is reported with the sign that makes the obstruction positive
    assert report.mean_drift_rate == pytest.approx(0.2, rel=1e-10)


def test_flow_mass_balance_holds_over_a_varying_volume_density():
    # sqrt_det^T J = 0 on a closed fiber with constant warping, so every
    # implicit step moves the weighted mean by exactly dt * mean(F)
    grid, metric = build_torus((32, 32))
    x1, x2 = grid.meshes()
    metric = conformal_scale(metric, ScalarField(grid, 1.0 + 0.3 * np.sin(x1) * np.cos(x2)))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.3))
    target = ScalarField(grid, 0.1 + 0.05 * np.cos(x1 + x2))
    u0 = ScalarField(grid, 0.2 * np.sin(x1) + 0.1 * np.cos(2.0 * x2))
    _, report = flow_solve(wp, target, u0, SolveOptions(), t_max=3.0)
    assert report.verdict == "max_iter"
    expected = 2.0 * integrate(target, metric) / volume(metric)
    assert report.mean_drift_rate == pytest.approx(expected, rel=1e-10)


def test_flow_takes_sixteen_steps_where_the_residual_only_rounds():
    # from a level start F stays the constant -2H: a trial's residual
    # differs from it by rounding alone, which is no rise to reject
    grid, metric = build_torus((32, 32))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    _, report = flow_solve(wp, ScalarField.constant(grid, 0.1), ScalarField.constant(grid, 0.0),
                           SolveOptions(), t_max=2.0)
    assert report.verdict == "max_iter"
    assert report.iterations == 16
    assert report.mean_drift_rate == pytest.approx(0.2, rel=1e-10)


def test_flow_rejects_steps_that_raise_the_residual():
    # long implicit steps on the counterexample's boundary data raise the
    # residual; only by rejecting them does the flow settle on Newton's graph
    grid, metric = build_hyperbolic_disk(64, 128, 0.875)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    zero = ScalarField.constant(grid, 0.0)
    u0 = np.zeros(grid.shape)
    u0[-1, :] = 0.5 * np.sin(3.0 * grid.axes[1])
    newton_state, _ = newton_solve(wp, zero, ScalarField(grid, u0), SolveOptions())
    flow_state, report = flow_solve(wp, zero, ScalarField(grid, u0), SolveOptions(), t_max=40.0)
    assert report.verdict == "converged"
    assert np.abs(newton_state.height.values - flow_state.height.values).max() < 1e-6


def test_flow_reaches_the_dirichlet_cap_in_at_most_16_steps():
    grid, metric = build_polar_disk(16, 32, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    _, report = flow_solve(wp, ScalarField.constant(grid, -0.1), ScalarField.constant(grid, 0.0),
                           SolveOptions(tol_abs=1e-8), t_max=40.0)
    assert report.verdict == "converged"
    assert 1 <= report.iterations <= 16
    assert len(report.residual_history) == report.iterations + 1


def test_flow_rejects_nonpositive_horizon():
    wp, zero = _torus_problem()
    for t_max in (0.0, math.nan, math.inf):
        with pytest.raises(ConstructionError, match="positive and finite"):
            flow_solve(wp, zero, ScalarField.constant(wp.fiber, 0.0),
                       SolveOptions(), t_max=t_max)


def test_flow_matches_newton_on_dirichlet_cap():
    grid, metric = build_polar_disk(16, 32, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    target = ScalarField.constant(grid, -0.1)
    zero = ScalarField.constant(grid, 0.0)
    newton_state, _ = newton_solve(wp, target, zero, SolveOptions())
    flow_state, flow_report = flow_solve(wp, target, zero,
                                         SolveOptions(tol_abs=1e-8), t_max=40.0)
    assert flow_report.verdict == "converged"
    gap = np.abs(newton_state.height.values - flow_state.height.values).max()
    assert gap < 1e-6
