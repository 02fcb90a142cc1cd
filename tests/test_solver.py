"""Damped Newton and relaxation flow for the prescribed-curvature equation."""

import gc
import math
import weakref

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
from pmclab import solver, warped
from pmclab.solver import _Problem

from difference_action import jacobian_action


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
    assert solver._MAX_LINEAR == 2000
    assert solver._LINEAR_RTOL == 1e-8
    assert solver._ARMIJO_C == 1e-4
    assert solver._MIN_STEP == 1e-6


@pytest.mark.parametrize("bad", [
    {"tol_abs": 0.0},
    {"max_newton": 0},
    {"tol_abs": -1e-8},
    {"tol_abs": math.nan},
    {"tol_abs": -math.inf},
    {"tol_abs": math.inf},
    {"max_newton": -1},
    {"max_newton": math.nan},
    {"max_newton": math.inf},
    {"max_newton": -math.inf},
    {"max_newton": 0.5},
    {"max_newton": 2.5},
    {"max_newton": True},
    {"max_newton": "3"},
    {"tol_abs": "1e-3"},
    {"tol_abs": None},
])
def test_option_validation(bad):
    with pytest.raises((ConstructionError, ValueError)):
        SolveOptions(**bad)


def test_report_json_shape():
    report = SolveReport("converged", 3, [1.0, 0.1], 2e-12, 0.0, 1e-13)
    payload = report.to_json_dict()
    assert set(payload) == {"verdict", "iterations", "residual_history",
                            "u_oscillation", "mean_drift_rate", "grad_sup",
                            "factorizations", "krylov_iterations"}
    assert payload["verdict"] == "converged"

    witnessed = SolveReport("obstructed", 0, [0.2], 0.0, 0.0, 0.0,
                            obstruction_witness=-7.9, obstruction_source="witness")
    payload = witnessed.to_json_dict()
    assert (payload["obstruction_witness"], payload["obstruction_source"]) == (-7.9, "witness")


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
    state, report = newton_solve(wp, zero, u0, SolveOptions())
    assert report.verdict == "converged"
    before = integrate(u0, wp.metric) / volume(wp.metric)
    after = integrate(state.height, wp.metric) / volume(wp.metric)
    assert after == pytest.approx(before, abs=1e-9)


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


@pytest.mark.parametrize("solve", [newton_solve, flow_solve])
def test_a_lost_height_returns_no_state(solve):
    # the tilt of this height overflows, so no graph state can be built
    wp, zero = _torus_problem(8)
    x1, _ = wp.fiber.meshes()
    state, report = solve(wp, zero, ScalarField(wp.fiber, 1e307 * np.sin(x1)), SolveOptions())
    assert state is None
    assert report.verdict == "diverged"
    assert report.u_oscillation == report.grad_sup == math.inf


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


def test_a_non_finite_trial_ends_newton_diverged_at_its_start(monkeypatch):
    # the line search's first trial reads no finite residual: no step is
    # taken, and the solve ends diverged at the start height
    residual_full, calls = _Problem.residual_full, []

    def lost_after_start(prob, u_arr):
        calls.append(u_arr)
        return residual_full(prob, u_arr) if len(calls) == 1 else None

    monkeypatch.setattr(_Problem, "residual_full", lost_after_start)
    wp, zero = _torus_problem()
    u0 = _smooth_start(wp.fiber, 5)
    state, report = newton_solve(wp, zero, u0, SolveOptions())
    assert report.verdict == "diverged"
    assert report.iterations == 0
    assert len(report.residual_history) == 1
    np.testing.assert_array_equal(state.height.values, u0.values)


def test_a_zero_step_ends_newton_obstructed_at_its_start(monkeypatch):
    # a zero step has zero slope, so each trial would meet Armijo with no
    # decrease: the step stalls, and the solve ends obstructed where it began
    monkeypatch.setattr(_Problem, "linear_step",
                        lambda prob, jac, f_dof: (np.zeros(prob.n_dof), 0))
    wp, zero = _torus_problem(16)
    x1, x2 = wp.fiber.meshes()
    u0 = ScalarField(wp.fiber, 0.3 * np.sin(x1) + 0.1 * np.cos(x2))
    state, report = newton_solve(wp, zero, u0, SolveOptions())
    assert report.verdict == "obstructed"
    assert report.iterations == 0
    assert len(report.residual_history) == 1
    assert report.obstruction_witness is None
    assert report.obstruction_source == "stalled_step"
    np.testing.assert_array_equal(state.height.values, u0.values)


@pytest.mark.parametrize("solve", [newton_solve, flow_solve], ids=["newton", "flow"])
@pytest.mark.parametrize("fiber", ["torus", "disk"])
def test_no_solve_prepares_its_product_again(monkeypatch, solve, fiber):
    # the product prepares the residual's arrays once, when it is built; the
    # solve, its Jacobians and its final state only read them
    if fiber == "torus":
        wp, target = _torus_problem(16)
        u0 = _smooth_start(wp.fiber, 5)
    else:
        grid, metric = build_hyperbolic_disk(16, 32, 0.875)
        wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
        target = ScalarField.constant(grid, 0.0)
        u0 = np.zeros(grid.shape)
        u0[-1, :] = 0.5 * np.sin(3.0 * grid.axes[1])
        u0 = ScalarField(grid, u0)

    expected_state, expected = solve(wp, target, u0, SolveOptions())

    def prepared_again(f):
        raise AssertionError("a solve prepared its product again")

    monkeypatch.setattr(warped, "coordinate_partials", prepared_again)
    state, report = solve(wp, target, u0, SolveOptions())
    assert report.to_json_dict() == expected.to_json_dict()
    np.testing.assert_array_equal(state.height.values, expected_state.height.values)


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
    prob = _Problem(wp, zero)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(prob.n_dof)
    action = jacobian_action(prob, u, v)

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
    """A torus and a hyperbolic disk, each with a non-level height so the
    Jacobian carries its nonlinear cross terms."""
    wp, zero = _torus_problem(16)
    x1, x2 = wp.fiber.meshes()
    u_torus = 0.8 * np.sin(x1) + 0.5 * np.cos(2.0 * x2)
    grid, metric = build_hyperbolic_disk(8, 16, 0.875)
    disk = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    rho, theta = grid.meshes()
    u_disk = 0.5 * (rho / 0.875) ** 3 * np.sin(3.0 * theta) + 0.2 * rho * np.cos(theta)
    return [
        ("fix_mean torus", _Problem(wp, zero), u_torus),
        ("hyperbolic disk", _Problem(disk, ScalarField.constant(grid, 0.0)), u_disk),
    ]


@pytest.mark.parametrize("index", range(2), ids=["fix_mean", "disk"])
def test_assembled_jacobian_matches_the_matrix_free_action(index):
    name, prob, u = _assembly_problems()[index]
    jac = prob.jacobian(u)
    v = np.random.default_rng(7).standard_normal(prob.n_dof)
    assembled = (jac @ v).reshape(-1, prob.grid.shape[-1])
    action = jacobian_action(prob, u, v).reshape(assembled.shape)
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


@pytest.mark.parametrize("index", range(2), ids=["fix_mean", "disk"])
def test_newton_step_solves_consistent_systems_in_the_gauge(index):
    name, prob, u = _assembly_problems()[index]
    jac = prob.jacobian(u)
    w = np.random.default_rng(8).standard_normal(prob.n_dof)
    rhs = jac @ w
    delta, info = prob.linear_step(jac, rhs)
    assert info == 0
    delta = solver.remove_null_modes(prob.grid, delta)
    assert np.abs(jac @ delta + rhs).max() <= 1e-8 * np.abs(rhs).max(), name
    if prob.grid.closed:
        assert abs(delta.mean()) <= 1e-12 * np.abs(delta).max()
        # the step is the solution free of the null modes
        np.testing.assert_allclose(delta, -solver.remove_null_modes(prob.grid, w), rtol=0.0,
                                   atol=1e-8 * np.abs(w).max())
    else:
        # no null space on the disk: the step is the unique solution
        np.testing.assert_allclose(delta, -w, rtol=0.0, atol=1e-8 * np.abs(w).max())


@pytest.mark.parametrize("index", range(2), ids=["fix_mean", "disk"])
def test_a_later_newton_step_reuses_the_kept_factor(index, monkeypatch):
    name, prob, u = _assembly_problems()[index]
    if not prob.grid.closed:
        # without the averaged stencil's inverse the disk's first step builds
        # the factor that the next one keeps
        monkeypatch.setattr(_Problem, "_averaged_inverse", lambda self, data: None)
    prob.linear_step(prob.jacobian(u), prob.pack(prob.residual_full(u)))
    assert prob.factorizations == 1
    # the next Jacobian, a little way along: GMRES carries it on the old factor
    jac = prob.jacobian(1.001 * u)
    w = np.random.default_rng(9).standard_normal(prob.n_dof)
    rhs = jac @ w
    before = prob.krylov_iterations
    delta, info = prob.linear_step(jac, rhs)
    assert info == 0
    assert prob.factorizations == 1, name
    # more than a fresh factor's two matvecs, within one cycle and its residual check
    assert 2 < prob.krylov_iterations - before <= solver._KRYLOV_RESTART + 1, name
    delta = solver.remove_null_modes(prob.grid, delta)
    assert np.abs(jac @ delta + rhs).max() <= 1e-8 * np.abs(rhs).max(), name
    if prob.grid.closed:
        assert abs(delta.mean()) <= 1e-12 * np.abs(delta).max()
        np.testing.assert_allclose(delta, -solver.remove_null_modes(prob.grid, w), rtol=0.0,
                                   atol=1e-8 * np.abs(w).max())


def test_a_kept_factor_that_finishes_in_a_later_cycle_is_kept(monkeypatch):
    # one stop rule for every GMRES run: with two-iteration cycles the kept
    # factor of an earlier companion misses the tolerance in its first cycle
    # but gains fast enough that one more could finish, so its run goes on
    # and no new factor is built
    _, prob, u = _assembly_problems()[0]
    prob.linear_step(prob.jacobian(u), prob.pack(prob.residual_full(u)))
    assert prob.factorizations == 1
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 2)
    jac = prob.jacobian(1.01 * u)
    w = np.random.default_rng(9).standard_normal(prob.n_dof)
    rhs = jac @ w
    before = prob.krylov_iterations
    delta, info = prob.linear_step(jac, rhs)
    assert info == 0
    assert prob.factorizations == 1
    # one two-iteration cycle takes at most 3 matvecs with its final residual
    assert prob.krylov_iterations - before > 3
    delta = solver.remove_null_modes(prob.grid, delta)
    assert np.abs(jac @ delta + rhs).max() <= 1e-8 * np.abs(rhs).max()


@pytest.mark.parametrize("preconditioner", ["averaged", "factor"])
def test_a_right_side_scaled_by_a_power_of_two_scales_the_solution_exactly(preconditioner):
    # GMRES runs on the right side scaled to about unit size, so 2**600 times
    # it, whose squared norm overflows, gives 2**600 times the solution bit
    # for bit, in as many matvecs
    _, prob, u = _assembly_problems()[1]
    jac = prob.jacobian(u)
    inverse = (prob._averaged_inverse(jac.data) if preconditioner == "averaged"
               else solver._factor(jac).solve)
    rhs = -prob.pack(prob.residual_full(u))
    x, info = prob._cycled_gmres(jac, rhs, inverse)
    matvecs = prob.krylov_iterations
    scaled, scaled_info = prob._cycled_gmres(jac, 2.0**600 * rhs, inverse)
    assert info == scaled_info == 0
    assert prob.krylov_iterations == 2 * matvecs
    np.testing.assert_array_equal(scaled, 2.0**600 * x)


def _flat_torus_problem(n, warping=1.0, scale=None):
    """A problem on a freshly built ``n x n`` torus, optionally conformally scaled."""
    grid, metric = build_torus((n, n))
    if scale is not None:
        metric = conformal_scale(metric, ScalarField(grid, scale))
    wp = WarpedProduct(grid, metric, ScalarField(grid, warping + np.zeros(grid.shape)))
    return _Problem(wp, ScalarField.constant(grid, 0.0))


def _pattern(prob):
    asm = prob._assembly
    return asm.indices, asm.indptr, asm.diagonal, asm.pinned, asm.cell


def test_problems_on_equal_grids_build_equal_patterns():
    first, second = _flat_torus_problem(16), _flat_torus_problem(16)
    assert first.grid is not second.grid
    # each problem builds its own pattern, and nothing is kept between them
    assert first._assembly is not second._assembly
    for mine, theirs in zip(_pattern(first), _pattern(second)):
        np.testing.assert_array_equal(mine, theirs)
    # so does a disk on two equal hyperbolic metrics
    disks = [_Problem(WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0)),
                      ScalarField.constant(grid, 0.0))
             for grid, metric in (build_hyperbolic_disk(8, 16, 0.875) for _ in range(2))]
    for mine, theirs in zip(*map(_pattern, disks)):
        np.testing.assert_array_equal(mine, theirs)


def test_a_conformal_scale_keeps_the_pattern_and_a_varying_warping_widens_it():
    flat = _flat_torus_problem(16)
    x1, x2 = flat.grid.meshes()
    scaled = _flat_torus_problem(16, scale=1.0 + 0.3 * np.sin(x1) * np.cos(x2))
    varying = _flat_torus_problem(16, warping=1.0 + 0.3 * np.cos(x1))
    # the metric enters through the node coefficients and a row scale only
    for mine, theirs in zip(_pattern(scaled), _pattern(flat)):
        np.testing.assert_array_equal(mine, theirs)
    # the drift blocks of a varying warping add the radius-one offsets
    assert set(np.diff(flat._assembly.indptr)) == {9}
    assert set(np.diff(varying._assembly.indptr)) == {13}


@pytest.mark.parametrize("index", range(2), ids=["fix_mean", "disk"])
def test_a_jacobian_of_a_fresh_problem_equals_one_of_a_used_problem(index):
    name, used, u = _assembly_problems()[index]
    used.jacobian(0.5 * u)
    fresh = _assembly_problems()[index][1]
    jac, jac_fresh = used.jacobian(u), fresh.jacobian(u)
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(jac, part), getattr(jac_fresh, part), name)
    np.testing.assert_array_equal(fresh._assembly.cell, used._assembly.cell)


def test_a_pattern_is_freed_with_its_problem():
    # the solver keeps no pattern of its own once its problem is gone
    prob = _flat_torus_problem(16)
    indices = weakref.ref(prob._assembly.indices)
    assert prob.jacobian(np.zeros(prob.grid.shape)).indices.base is indices()
    del prob
    gc.collect()
    assert indices() is None


def test_a_shared_pattern_cannot_be_edited_in_place():
    prob = _flat_torus_problem(16)
    jac = prob.jacobian(np.zeros(prob.grid.shape))
    asm = prob._assembly
    for array in (jac.indices, jac.indptr, asm.cell):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    arrays = (asm.indices, asm.indptr, asm.diagonal, asm.pinned, asm.cell)
    assert not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize("call", [abs, lambda m: m.max(), lambda m: m.power(2),
                                  lambda m: m.sum_duplicates()],
                         ids=["abs", "max", "power", "sum_duplicates"])
def test_a_call_that_sorts_the_columns_in_place_needs_a_copy_of_the_jacobian(call):
    # the columns are unsorted and the indices the pattern's, shared read-only:
    # scipy's in-place sort refuses them and changes nothing; a copy sorts its own
    wp, zero = _torus_problem(16)
    prob = _Problem(wp, zero)
    jac = prob.jacobian(_smooth_start(wp.fiber, 5).values)
    indices, data = prob._assembly.indices.copy(), jac.data.copy()
    with pytest.raises(ValueError, match="read-only"):
        call(jac)
    np.testing.assert_array_equal(prob._assembly.indices, indices)
    np.testing.assert_array_equal(jac.indices, indices)
    np.testing.assert_array_equal(jac.data, data)
    copy = jac.copy()
    call(copy)
    np.testing.assert_array_equal(copy.toarray(), jac.toarray())


@pytest.mark.parametrize("index", range(2), ids=["fix_mean", "disk"])
def test_the_pattern_takes_int32_indices(index):
    asm = _assembly_problems()[index][1]._assembly
    assert asm.indices.dtype == asm.indptr.dtype == np.int32


def test_gauge_projection_removes_the_mean():
    wp, zero = _torus_problem()
    prob = _Problem(wp, zero)
    vec = np.arange(prob.n_dof, dtype=float)
    projected = solver.remove_null_modes(prob.grid, vec)
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


def _recording_flow_steps(monkeypatch):
    """Record ``(problem, dt, F, delta)`` for every trial step the flow solves."""
    steps = []
    original = _Problem.flow_step

    def recording(self, jac, dt, f_dof):
        delta = original(self, jac, dt, f_dof)
        steps.append((self, dt, f_dof.copy(), delta))
        return delta

    monkeypatch.setattr(_Problem, "flow_step", recording)
    return steps


@pytest.mark.parametrize("dims,conformal", [((32, 32), False), ((32, 32), True),
                                             ((16, 16, 8), False)],
                         ids=["flat", "conformal", "3d"])
def test_every_flow_step_moves_the_weighted_mean_by_dt_mean_f(monkeypatch, dims, conformal):
    # the exact correction along the constants holds mass balance to
    # rounding, not only to the linear solve's tolerance
    grid, metric = build_torus(dims)
    x1, x2 = grid.meshes()[:2]
    if conformal:
        metric = conformal_scale(metric, ScalarField(grid, 1.0 + 0.3 * np.sin(x1) * np.cos(x2)))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u0 = ScalarField(grid, 0.1 * np.sin(x1) + 0.05 * np.cos(x2))
    steps = _recording_flow_steps(monkeypatch)
    _, report = flow_solve(wp, ScalarField.constant(grid, 0.1), u0, SolveOptions(), t_max=3.0)
    assert report.verdict == "max_iter"
    # the averaged stencil's inverse carries every step: no factor is built
    assert report.factorizations == 0 and report.krylov_iterations > 0
    # no trial is rejected, so every solved step is an accepted one
    assert len(steps) == report.iterations == 16
    for prob, dt, f_dof, delta in steps:
        moved = integrate(ScalarField(grid, prob.scatter(delta)), metric)
        expected = dt * integrate(ScalarField(grid, prob.scatter(f_dof)), metric)
        assert moved == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_a_flow_whose_kept_factor_cannot_finish_refactors(monkeypatch):
    # without the averaged stencil's inverse trials build factors and later
    # ones keep them.  With one-iteration cycles a kept factor's run on
    # I - dt J mostly falls short, and then the factor is dropped and the
    # trial's own is built, which carries it: every run that falls short
    # is on a kept factor and is followed at once by a new factor, and no
    # factor is built otherwise.  The tolerance stops the run before the
    # Jacobian settles to where one iteration would carry every trial.
    grid, metric = build_hyperbolic_disk(16, 32, 0.875)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u0 = np.zeros(grid.shape)
    u0[-1, :] = 0.5 * np.sin(3.0 * grid.axes[1])
    args = (wp, ScalarField.constant(grid, 0.0), ScalarField(grid, u0), SolveOptions(tol_abs=1e-6))
    monkeypatch.setattr(_Problem, "_averaged_inverse", lambda self, data: None)
    _, kept = flow_solve(*args, t_max=40.0)
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 1)
    events = []
    factor, cycled = solver._factor, _Problem._cycled_gmres

    def recording_factor(matrix):
        events.append("factor")
        return factor(matrix)

    def recording_gmres(self, matrix, rhs, inverse):
        x, info = cycled(self, matrix, rhs, inverse)
        events.append(info)
        return x, info

    monkeypatch.setattr(solver, "_factor", recording_factor)
    monkeypatch.setattr(_Problem, "_cycled_gmres", recording_gmres)
    steps = _recording_flow_steps(monkeypatch)
    _, rebuilt = flow_solve(*args, t_max=40.0)
    # some trials are rejected, and every trial's linear solve converged
    assert len(steps) > rebuilt.iterations > 1
    assert all(np.isfinite(delta).all() for *_, delta in steps)
    # each trial runs its kept factor; one that falls short is replaced at
    # once, and the new factor's run converges
    # the first trial has no factor to keep
    assert events[:2] == ["factor", 0]
    trials = events[2:]
    shortfalls = [k for k, event in enumerate(trials) if event not in ("factor", 0)]
    assert shortfalls
    assert all(trials[k + 1:k + 3] == ["factor", 0] for k in shortfalls)
    assert rebuilt.factorizations == events.count("factor") == 1 + len(shortfalls)
    assert len(trials) == len(steps) - 1 + 2 * len(shortfalls)
    assert kept.factorizations < rebuilt.factorizations
    assert rebuilt.verdict == kept.verdict == "converged"
    assert rebuilt.iterations == kept.iterations
    assert rebuilt.residual_history[-1] == pytest.approx(kept.residual_history[-1], rel=1e-6)


def test_an_unconverged_flow_step_is_rejected_and_halves_dt(monkeypatch):
    # no GMRES run reaches a tolerance below rounding, a fresh factor's
    # neither: no trial may be taken, and each halves the next one's dt
    monkeypatch.setattr(solver, "_LINEAR_RTOL", 1e-30)
    monkeypatch.setattr(solver, "_MAX_LINEAR", 4)
    wp, zero = _torus_problem(16)
    u0 = _smooth_start(wp.fiber, 5)
    steps = _recording_flow_steps(monkeypatch)
    state, report = flow_solve(wp, zero, u0, SolveOptions(), t_max=1.6)
    assert report.verdict == "max_iter"
    assert report.iterations == 0
    assert len(report.residual_history) == 1
    np.testing.assert_array_equal(state.height.values, u0.values)
    assert len(steps) == solver._FLOW_MAX_TRIALS
    assert all(np.isnan(delta).all() for *_, delta in steps)
    assert [dt for _, dt, *_ in steps] == [0.1 * 0.5**k for k in range(solver._FLOW_MAX_TRIALS)]
    assert report.factorizations == solver._FLOW_MAX_TRIALS


def test_flow_takes_sixteen_steps_where_the_residual_only_rounds(monkeypatch):
    # from a level start F stays the constant -2H: a trial's residual
    # differs from it by rounding alone, which is no rise to reject
    grid, metric = build_torus((32, 32))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    steps = _recording_flow_steps(monkeypatch)
    _, report = flow_solve(wp, ScalarField.constant(grid, 0.1), ScalarField.constant(grid, 0.0),
                           SolveOptions(), t_max=2.0)
    assert report.verdict == "max_iter"
    assert len(steps) == report.iterations == 16
    assert report.mean_drift_rate == pytest.approx(0.2, rel=1e-10)
    # a level height makes the Jacobian's coefficients constant, so the
    # averaged stencil is the stencil and its Fourier inverse is exact: one
    # GMRES iteration beside the initial residual, and no factor
    assert report.factorizations == 0
    assert 0 < report.krylov_iterations <= 2 * len(steps)


def test_a_fourier_cycle_that_falls_short_falls_back_to_a_factor(monkeypatch):
    # one Krylov iteration cannot carry I - dt J over a varying conformal
    # factor on the averaged stencil's inverse, so the step builds a factor
    # and the kept-factor rule takes over; the run ends where it did
    grid, metric = build_torus((32, 32))
    x1, x2 = grid.meshes()
    metric = conformal_scale(metric, ScalarField(grid, np.exp(np.sin(x1))))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u0 = ScalarField(grid, 0.1 * np.sin(x1) + 0.05 * np.cos(x2))
    args = (wp, ScalarField.constant(grid, 0.1), u0, SolveOptions())
    _, fourier = flow_solve(*args, t_max=3.0)
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 1)
    _, factored = flow_solve(*args, t_max=3.0)
    assert fourier.factorizations == 0
    assert factored.factorizations >= 1
    assert factored.verdict == fourier.verdict == "max_iter"
    assert factored.iterations == fourier.iterations
    assert factored.mean_drift_rate == pytest.approx(fourier.mean_drift_rate, rel=1e-10)


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
