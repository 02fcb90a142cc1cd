"""Graph operators on warped products: residual, normals, identities."""

import math

import numpy as np
import pytest

from pmclab import (
    ConstructionError,
    FiberGrid,
    GraphState,
    GridKind,
    MetricField,
    PreconditionError,
    ScalarField,
    SolveOptions,
    WarpedProduct,
    build_hyperbolic_disk,
    build_polar_disk,
    build_torus,
    check_conformal_laplacian,
    check_height_identity,
    check_superharmonic,
    compatibility_integral,
    conformal_scale,
    induced_metric,
    laplace_beltrami,
    mean_curvature_residual,
    newton_solve,
    obstruction_witness,
    quasi_isometry_constants,
    unit_normal,
)
from pmclab import scenarios, warped
from pmclab.geometry import circle_lift_laplacian

from explicit_lift import lift_to_circle


def _torus_product(n=32, amplitude=0.3):
    grid, metric = build_torus((n, n))
    x1, _ = grid.meshes()
    warping = ScalarField(grid, 1.0 + amplitude * np.cos(x1))
    return WarpedProduct(grid, metric, warping)


def _manufactured(n):
    """Reference height whose own residual is folded into the target, so
    the pair is an exact discrete solution."""
    wp = _torus_product(n)
    x1, x2 = wp.fiber.meshes()
    u = ScalarField(wp.fiber, 0.3 * np.sin(x1) + 0.2 * np.cos(x2))
    zero = ScalarField.constant(wp.fiber, 0.0)
    target = ScalarField(
        wp.fiber, mean_curvature_residual(wp, u, zero).values / wp.dimension)
    return wp, u, target


# ---------------------------------------------------------------------------
# construction


def test_warping_must_be_positive_and_error_names_node():
    grid, metric = build_torus((8, 8))
    vals = np.ones(grid.shape)
    vals[2, 6] = -0.5
    with pytest.raises(ConstructionError, match=r"2.*6"):
        WarpedProduct(grid, metric, ScalarField(grid, vals))


def test_warping_bounds_and_constancy():
    wp = _torus_product(16)
    assert wp.h_inf == pytest.approx(0.7)
    assert wp.h_sup == pytest.approx(1.3)
    assert not wp.warping_is_constant
    assert wp.dimension == 2

    grid, metric = build_torus((8, 8))
    const = WarpedProduct(grid, metric, ScalarField.constant(grid, 2.0))
    assert const.warping_is_constant


# ---------------------------------------------------------------------------
# the prescribed-curvature residual


def test_residual_is_translation_invariant():
    wp = _torus_product()
    x1, x2 = wp.fiber.meshes()
    u = ScalarField(wp.fiber, 0.4 * np.sin(x1 + 0.3) * np.cos(x2))
    zero = ScalarField.constant(wp.fiber, 0.0)
    shifted = ScalarField(wp.fiber, u.values + 17.25)
    base = mean_curvature_residual(wp, u, zero).values
    moved = mean_curvature_residual(wp, shifted, zero).values
    np.testing.assert_allclose(moved, base, atol=1e-13)


def test_manufactured_pair_solves_exactly():
    wp, u, target = _manufactured(32)
    residual = mean_curvature_residual(wp, u, target)
    assert np.abs(residual.values).max() <= 1e-14


def test_scherk_patch_residual_refines():
    # ln(cos x / cos y) solves the minimal equation on the plane; on the
    # flat disk the interior residual is pure discretization error.  The
    # outermost interior ring feels the one-sided boundary stencil at
    # first order, the core refines at second order.
    sups = {}
    cores = {}
    for n_r, n_t in ((32, 64), (64, 128)):
        grid, metric = build_polar_disk(n_r, n_t, radius=1.2)
        rho, theta = grid.meshes()
        x = rho * np.cos(theta)
        y = rho * np.sin(theta)
        u = ScalarField(grid, np.log(np.cos(x) / np.cos(y)))
        wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
        zero = ScalarField.constant(grid, 0.0)
        res = np.abs(mean_curvature_residual(wp, u, zero).values)
        res = np.where(grid.interior_mask, res, 0.0)
        sups[n_r] = res.max()
        cores[n_r] = res[: n_r - 2].max()
    assert sups[32] == pytest.approx(2.557e-2, rel=1e-2)
    assert cores[32] / cores[64] > 3.5
    assert sups[32] / sups[64] > 2.0


# ---------------------------------------------------------------------------
# normals and the induced metric


def test_unit_normal_identities():
    wp = _torus_product()
    x1, x2 = wp.fiber.meshes()
    u = ScalarField(wp.fiber, 0.5 * np.sin(x1) + 0.2 * np.cos(2.0 * x2))
    zero = ScalarField.constant(wp.fiber, 0.0)
    fiber_part, vertical, angle = unit_normal(GraphState(wp, u, zero))
    h = wp.warping.values

    # unit length: sigma(F,F) + h^2 v^2 = 1
    sq = np.einsum("...ij,...i,...j->...",
                   wp.metric.mat, fiber_part.components, fiber_part.components)
    np.testing.assert_allclose(sq + h**2 * vertical.values**2, 1.0, atol=1e-12)

    # angle function times area factor recovers the warping
    w_factor = 1.0 / (h * vertical.values)
    np.testing.assert_allclose(angle.values * w_factor, h, atol=1e-12)
    assert 0.0 < angle.values.min() <= angle.values.max() <= 1.3 + 1e-12


def test_induced_metric_determinant_is_rank_one_update():
    wp = _torus_product()
    x1, x2 = wp.fiber.meshes()
    u = ScalarField(wp.fiber, 0.4 * np.sin(x1) * np.sin(x2))
    state = GraphState(wp, u, ScalarField.constant(wp.fiber, 0.0))
    prime = induced_metric(state)
    _, vertical, _ = unit_normal(state)
    w_sq = 1.0 / (wp.warping.values * vertical.values) ** 2
    np.testing.assert_allclose(
        prime.sqrt_det**2, wp.metric.sqrt_det**2 * w_sq, rtol=1e-12)


def test_quasi_isometry_bounds_random_pairs():
    grid, metric = build_torus((24, 24))
    x1, x2 = grid.meshes()
    rng = np.random.default_rng(40)
    zero = ScalarField.constant(grid, 0.0)
    from pmclab import gradient, norm_sq

    for _ in range(20):
        a, b, c = rng.uniform(-0.6, 0.6, size=3)
        u = ScalarField(grid, a * np.sin(x1) + b * np.cos(x2) + c * np.sin(x1 + x2))
        h = ScalarField(grid, 1.0 + 0.4 * rng.uniform() * np.cos(x1))
        wp = WarpedProduct(grid, metric, h)
        lam_min, lam_max = quasi_isometry_constants(GraphState(wp, u, zero))
        tilt = h.values**2 * norm_sq(gradient(u, metric), metric).values
        assert lam_min >= 1.0 - 1e-12
        assert lam_max <= 1.0 + tilt.max() + 1e-10


def test_quasi_isometry_tight_for_level_height():
    wp = _torus_product()
    lam_min, lam_max = quasi_isometry_constants(GraphState(
        wp, ScalarField.constant(wp.fiber, 4.0), ScalarField.constant(wp.fiber, 0.0)))
    assert lam_min == pytest.approx(1.0, abs=1e-13)
    assert lam_max == pytest.approx(1.0, abs=1e-13)


def _eigvalsh_quasi_isometry(state):
    """The per-node reference: batched Cholesky, two solves and ``eigvalsh``."""
    L = np.linalg.cholesky(state.warped.metric.mat)
    T = np.linalg.solve(L, induced_metric(state).mat)
    eigs = np.linalg.eigvalsh(np.linalg.solve(L, np.swapaxes(T, -1, -2)))
    return eigs.min(), eigs.max()


def _conformal_torus_state():
    grid, metric = build_torus((64, 64))
    x1, x2 = grid.meshes()
    metric = conformal_scale(metric, ScalarField(grid, np.exp(np.sin(x1) * np.cos(x2))))
    wp = WarpedProduct(grid, metric, ScalarField(grid, 1.0 + 0.3 * np.cos(x2)))
    u = ScalarField(grid, 0.6 * np.sin(x1 + x2) + 0.3 * np.cos(2.0 * x1))
    return GraphState(wp, u, ScalarField.constant(grid, 0.0))


def _sheared_torus_state():
    # an off-diagonal sigma, so the Cholesky factor has a lower entry
    grid, _ = build_torus((64, 64))
    x1, x2 = grid.meshes()
    mat = np.zeros(grid.shape + (2, 2))
    mat[..., 0, 0] = 1.2 + 0.2 * np.sin(x2)
    mat[..., 1, 1] = 1.0 + 0.2 * np.cos(x1)
    mat[..., 0, 1] = mat[..., 1, 0] = 0.5 * np.sin(x1 + x2)
    wp = WarpedProduct(grid, MetricField(grid, mat), ScalarField.constant(grid, 1.0))
    u = ScalarField(grid, 0.6 * np.sin(x1) + 0.4 * np.cos(x1 - 2.0 * x2))
    return GraphState(wp, u, ScalarField.constant(grid, 0.0))


def _hyperbolic_disk_state():
    grid, metric = build_hyperbolic_disk(64, 128, 0.875)
    r, theta = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u = ScalarField(grid, 0.5 * (r / 0.875) ** 3 * np.sin(3.0 * theta))
    return GraphState(wp, u, ScalarField.constant(grid, 0.0))


@pytest.mark.parametrize("build", [_conformal_torus_state, _sheared_torus_state,
                                   _hyperbolic_disk_state],
                         ids=["conformal_torus", "sheared_torus", "hyperbolic_disk"])
def test_closed_form_quasi_isometry_spectrum_matches_eigvalsh(build):
    state = build()
    got = quasi_isometry_constants(state)
    expected = _eigvalsh_quasi_isometry(state)
    assert got[0] < got[1]
    for value, reference in zip(got, expected):
        assert abs(value - reference) <= 4 * np.spacing(reference), (value, reference)


class _CountedMetric(MetricField):
    """A MetricField that records each build and can be told to fail the first ones."""

    __slots__ = ()
    builds = []
    failures = 0

    def __init__(self, grid, mat):
        type(self).builds.append(grid)
        if len(type(self).builds) <= type(self).failures:
            raise ConstructionError("a planted failure")
        super().__init__(grid, mat)


@pytest.fixture
def counted_metric(monkeypatch):
    monkeypatch.setattr(_CountedMetric, "builds", [])
    monkeypatch.setattr(_CountedMetric, "failures", 0)
    monkeypatch.setattr(warped, "MetricField", _CountedMetric)
    return _CountedMetric


def test_one_state_builds_its_induced_metric_once_for_all_checks(counted_metric):
    config = scenarios.builtin_config("uniqueness_torus")
    state, report = newton_solve(config.warped, config.target,
                                 ScalarField(config.grid, config.initial_values()),
                                 config.solver_opts)
    assert report.verdict.value == "converged"
    assert len(config.checks) == 4
    results = {name: scenarios._run_check(name, state, config) for name in config.checks}
    assert len(counted_metric.builds) == 1
    assert state.graph_metric is induced_metric(state)
    assert not state.graph_mat.flags.writeable
    for name in config.checks:
        fresh = GraphState(state.warped, state.height, state.target)
        assert scenarios._run_check(name, fresh, config) == results[name], name
    assert all(r["pass"] for r in results.values()), results


def test_an_induced_metric_build_that_raised_is_retried(counted_metric):
    state = _conformal_torus_state()
    counted_metric.failures = 1
    with pytest.raises(ConstructionError, match="a planted failure"):
        induced_metric(state)
    assert state.graph_metric is None
    prime = induced_metric(state)
    assert len(counted_metric.builds) == 2
    assert induced_metric(state) is prime and len(counted_metric.builds) == 2
    reference = MetricField(state.warped.fiber, state.graph_mat)
    for got, expected in zip((prime.mat, prime.sqrt_det, prime.inv),
                             (reference.mat, reference.sqrt_det, reference.inv)):
        assert got.tobytes() == expected.tobytes()


def _lifted_torus_state():
    grid, metric = build_torus((12, 12, 12))
    x1, x2, x3 = grid.meshes()
    metric = conformal_scale(metric, ScalarField(grid, 1.0 + 0.3 * np.sin(x1) * np.cos(x3)))
    wp = WarpedProduct(grid, metric, ScalarField(grid, 1.0 + 0.2 * np.cos(x2)))
    u = ScalarField(grid, 0.3 * np.sin(x1) + 0.1 * np.cos(x2 + x3))
    return GraphState(wp, u, ScalarField.constant(grid, 0.0))


@pytest.mark.parametrize("build", [_conformal_torus_state, _sheared_torus_state,
                                   _hyperbolic_disk_state, _lifted_torus_state],
                         ids=["conformal_torus", "sheared_torus", "hyperbolic_disk",
                              "lifted_torus"])
def test_per_component_graph_metric_and_reduction_match_the_broadcast_forms(build):
    # the whole-array forms that the per-component ones replaced, bit for bit
    state = build()
    du = np.stack(state.du, axis=-1)
    prime = state.warped.metric.mat + state.warped.h2[..., None, None] * (
        du[..., :, None] * du[..., None, :])
    assert warped._graph_metric_mat(state).tobytes() == prime.tobytes()
    if state.warped.fiber.ndim == 3:
        return  # 3-D fibers reduce by np.linalg, unchanged
    sigma = state.warped.metric.mat
    l11 = np.sqrt(sigma[..., 0, 0])
    l21 = sigma[..., 1, 0] / l11
    l22 = np.sqrt(sigma[..., 1, 1] - l21 * l21)
    t0 = prime[..., 0, :] / l11[..., None]
    t1 = (prime[..., 1, :] - l21[..., None] * t0) / l22[..., None]
    c11 = t0[..., 0] / l11
    c12 = (t0[..., 1] - l21 * c11) / l22
    c22 = (t1[..., 1] - l21 * t1[..., 0] / l11) / l22
    centre, radius = 0.5 * (c11 + c22), np.hypot(0.5 * (c11 - c22), c12)
    expected = float((centre - radius).min()), float((centre + radius).max())
    assert quasi_isometry_constants(GraphState(state.warped, state.height,
                                               state.target)) == expected


# ---------------------------------------------------------------------------
# conformal rescaling


def test_conformal_scale_requires_positive_factor():
    grid, metric = build_torus((8, 8))
    vals = np.ones(grid.shape)
    vals[1, 2] = 0.0
    with pytest.raises(ConstructionError, match=r"1.*2"):
        conformal_scale(metric, ScalarField(grid, vals))


def test_conformal_laplacian_identity_unit_factor():
    grid, metric = build_torus((12, 12, 12))
    x1, _, x3 = grid.meshes()
    f = ScalarField(grid, np.sin(x1) + 0.5 * np.cos(x3))
    one = ScalarField.constant(grid, 1.0)
    residual = check_conformal_laplacian(metric, one, f)
    assert np.abs(residual.values).max() <= 1e-13


def test_conformal_laplacian_identity_constant_function():
    grid, metric = build_torus((12, 12, 12))
    x1, _, _ = grid.meshes()
    factor = ScalarField(grid, (1.0 + 0.2 * np.cos(x1)) ** 4)
    f = ScalarField.constant(grid, 2.0)
    residual = check_conformal_laplacian(metric, factor, f)
    assert np.abs(residual.values).max() == 0.0


def test_conformal_laplacian_refines_at_second_order():
    sups = {}
    for n in (16, 24):
        grid, metric = build_torus((n, n, n))
        x1, _, x3 = grid.meshes()
        h = 1.0 + 0.3 * np.cos(x1)
        factor = ScalarField(grid, h**4)
        f = ScalarField(grid, np.sin(x1) + 0.5 * np.cos(x3))
        residual = check_conformal_laplacian(metric, factor, f)
        sups[n] = np.abs(residual.values).max()
    order = math.log(sups[16] / sups[24]) / math.log(24.0 / 16.0)
    assert order == pytest.approx(2.0, abs=0.3)


def test_conformal_laplacian_needs_three_dimensions():
    grid, metric = build_polar_disk(12, 16, radius=1.0)
    one = ScalarField.constant(grid, 1.0)
    with pytest.raises(PreconditionError, match="lift"):
        check_conformal_laplacian(metric, one, one)


def _bent_torus():
    """A 2-D torus with a non-diagonal, non-constant metric, a non-constant
    positive warping and a height that varies along both axes."""
    grid = FiberGrid(GridKind.torus2d, (24, 20), (2.0 * math.pi, 5.0))
    x1, x2 = grid.meshes()
    y = 2.0 * math.pi * x2 / 5.0
    mat = np.empty(grid.shape + (2, 2))
    mat[..., 0, 0] = 1.0 + 0.3 * np.sin(x1) * np.cos(y)
    mat[..., 1, 1] = 1.2 + 0.2 * np.cos(x1 + y)
    mat[..., 0, 1] = mat[..., 1, 0] = 0.25 * np.sin(x1) * np.sin(2.0 * y)
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(x1) + 0.2 * np.sin(y))
    u = ScalarField(grid, np.sin(x1) * np.cos(2.0 * y) + 0.3 * np.cos(x1 - y))
    return WarpedProduct(grid, MetricField(grid, mat), warping), u


def _lifted_laplacian(f, metric, factor):
    """The Laplacian of ``f`` in ``factor (metric + d theta^2)`` on an
    explicit 16-node circle lift, one slice per circle node."""
    _, metric3, lift = lift_to_circle(f.grid, metric, 16)
    lap = laplace_beltrami(lift(f), conformal_scale(metric3, lift(factor))).values
    return metric3, lift, lap


def test_circle_lift_laplacian_equals_every_slice_of_the_explicit_lift():
    wp, u = _bent_torus()
    factor = ScalarField(wp.fiber, wp.warping.values**4)
    lap = circle_lift_laplacian(u, wp.metric, factor).values
    *_, lifted = _lifted_laplacian(u, wp.metric, factor)
    tol = 1e-12 * np.abs(lifted).max()
    for k in range(lifted.shape[2]):
        np.testing.assert_allclose(lap, lifted[..., k], rtol=0.0, atol=tol)


def test_lift_checks_on_the_2d_fiber_match_the_explicit_lift():
    wp, u = _bent_torus()
    h4 = ScalarField(wp.fiber, wp.warping.values**4)
    # superharmonic: the induced metric scaled by h^4, maximum over the lift
    state = GraphState(wp, u, ScalarField.constant(wp.fiber, 0.0))
    *_, lifted = _lifted_laplacian(u, induced_metric(state), h4)
    assert check_superharmonic(state, tol_solve=np.inf) == pytest.approx(
        lifted.max(), rel=0.0, abs=1e-12 * np.abs(lifted).max())
    # conformal rule: the 2-D torus against its explicit lift, node for node
    metric3, lift, lifted = _lifted_laplacian(wp.warping, wp.metric, h4)
    residual = check_conformal_laplacian(wp.metric, h4, wp.warping).values
    residual3 = check_conformal_laplacian(metric3, lift(h4), lift(wp.warping)).values
    assert np.abs(residual).max() > 0.0
    for k in range(residual3.shape[2]):
        np.testing.assert_allclose(residual, residual3[..., k], rtol=0.0,
                                   atol=1e-12 * np.abs(lifted).max())


# ---------------------------------------------------------------------------
# solved-state identities


def test_height_identity_refines_at_second_order():
    sups = {}
    for n in (32, 64):
        wp, u, target = _manufactured(n)
        residual = check_height_identity(GraphState(wp, u, target), tol_solve=1e-8)
        sups[n] = np.abs(residual.values).max()
    assert sups[32] == pytest.approx(1.667e-3, rel=1e-2)
    order = math.log2(sups[32] / sups[64])
    assert 1.7 <= order <= 2.3


def test_height_identity_constant_warping_collapses_to_scaled_residual():
    # with level warping the identity is algebraically the equation
    # residual divided by the area factor, node for node
    grid, metric = build_polar_disk(24, 48, radius=1.2)
    rho, theta = grid.meshes()
    x = rho * np.cos(theta)
    y = rho * np.sin(theta)
    u = ScalarField(grid, np.log(np.cos(x) / np.cos(y)))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    zero = ScalarField.constant(grid, 0.0)
    equation = mean_curvature_residual(wp, u, zero)
    identity = check_height_identity(GraphState(wp, u, zero), tol_solve=1.0)
    from pmclab import gradient, norm_sq
    w = np.sqrt(1.0 + norm_sq(gradient(u, metric), metric).values)
    np.testing.assert_allclose(identity.values, equation.values / w, atol=1e-12)


def test_height_identity_rejects_unsolved_height():
    wp = _torus_product()
    x1, _ = wp.fiber.meshes()
    u = ScalarField(wp.fiber, np.sin(x1))
    zero = ScalarField.constant(wp.fiber, 0.0)
    with pytest.raises(PreconditionError, match="tol_solve"):
        check_height_identity(GraphState(wp, u, zero), tol_solve=1e-10)


def test_superharmonic_level_height_is_zero():
    wp = _torus_product()
    u = ScalarField.constant(wp.fiber, 0.75)
    zero = ScalarField.constant(wp.fiber, 0.0)
    assert abs(check_superharmonic(GraphState(wp, u, zero))) <= 1e-12


def test_superharmonic_solved_dirichlet_cap():
    grid, metric = build_polar_disk(64, 64, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    target = ScalarField.constant(grid, -0.05)
    start = ScalarField.constant(grid, 0.0)
    state, report = newton_solve(wp, target, start, SolveOptions())
    assert report.verdict == "converged"
    violation = check_superharmonic(state, tol_solve=1e-6)
    assert violation <= 1e-6


def test_superharmonic_rejects_positive_curvature():
    wp = _torus_product()
    u = ScalarField.constant(wp.fiber, 0.0)
    vals = np.full(wp.fiber.shape, -0.1)
    vals[4, 7] = 0.2
    with pytest.raises(PreconditionError, match=r"4.*7"):
        check_superharmonic(GraphState(wp, u, ScalarField(wp.fiber, vals)))


def test_superharmonic_disk_needs_level_warping():
    grid, metric = build_polar_disk(16, 32, radius=1.0)
    rho, _ = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField(grid, 1.0 + 0.1 * rho))
    u = ScalarField.constant(grid, 0.0)
    zero = ScalarField.constant(grid, 0.0)
    with pytest.raises(PreconditionError, match="constant"):
        check_superharmonic(GraphState(wp, u, zero))


# ---------------------------------------------------------------------------
# the closed-fiber compatibility integral


def test_compatibility_integral_vanishes_on_solvable_data():
    wp, u, target = _manufactured(32)
    assert abs(compatibility_integral(GraphState(wp, u, target))) <= 1e-9


def test_compatibility_integral_witnesses_level_obstruction():
    grid, metric = build_torus((32, 32))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u = ScalarField.constant(grid, 0.0)
    target = ScalarField.constant(grid, 0.1)
    value = compatibility_integral(GraphState(wp, u, target))
    assert value == pytest.approx(-0.8 * math.pi**2, abs=1e-12)


def test_compatibility_integral_needs_closed_fiber():
    grid, metric = build_polar_disk(16, 32, radius=1.0)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    u = ScalarField.constant(grid, 0.0)
    with pytest.raises(PreconditionError, match="closed fiber"):
        compatibility_integral(GraphState(wp, u, u))


def test_obstruction_witness_only_for_level_warping():
    grid, metric = build_torus((16, 16))
    level = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    target = ScalarField.constant(grid, 0.1)
    witness = obstruction_witness(level, target)
    assert witness == pytest.approx(-0.8 * math.pi**2, abs=1e-12)

    varying = _torus_product(16)
    assert obstruction_witness(varying, target) is None


def test_obstruction_witness_below_its_threshold_decides_nothing():
    # the integral of sin(x1) over the torus vanishes up to rounding
    grid, metric = build_torus((16, 16))
    level = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    x1, _ = grid.meshes()
    assert obstruction_witness(level, ScalarField(grid, 0.1 * np.sin(x1))) is None
