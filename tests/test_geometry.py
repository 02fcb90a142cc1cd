"""Grids, fields, metrics, and the discrete calculus built on them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmclab import (
    ConstructionError,
    FiberGrid,
    GridKind,
    GridMismatchError,
    MetricField,
    ModelDomainError,
    ScalarField,
    VectorField,
    build_hyperbolic_disk,
    build_polar_disk,
    build_torus,
    divergence,
    dump_field_csv,
    gradient,
    hyperbolic_conformal_factor,
    inner,
    integrate,
    laplace_beltrami,
    norm_sq,
    volume,
)
from pmclab.geometry import coarse_dims, prolong

from explicit_lift import lift_to_circle


# ---------------------------------------------------------------------------
# grids


def test_torus_grid_layout():
    grid, _ = build_torus((16, 24), extents=(2.0 * np.pi, 4.0))
    assert grid.kind is GridKind.torus2d
    assert grid.shape == (16, 24)
    assert grid.spacings == pytest.approx((2.0 * np.pi / 16, 4.0 / 24))
    assert grid.cell_volume == pytest.approx(grid.spacings[0] * grid.spacings[1])
    assert grid.closed
    assert grid.interior_mask.all()
    x1, x2 = grid.meshes()
    assert x1[0, 0] == 0.0 and x2[0, 0] == 0.0
    assert x1[-1, 0] == pytest.approx(2.0 * np.pi - grid.spacings[0])


def test_disk_grid_staggers_radial_nodes_off_the_axis():
    grid, _ = build_polar_disk(12, 16, radius=2.0)
    assert grid.kind is GridKind.disk_polar
    assert not grid.closed
    dr = 2.0 / 12
    assert grid.axes[0][0] == pytest.approx(0.5 * dr)
    assert grid.axes[0][-1] == pytest.approx(2.0 - 0.5 * dr)
    # outermost ring is the pinned boundary
    assert not grid.interior_mask[-1].any()
    assert grid.interior_mask[:-1].all()


def test_disk_needs_even_angular_count():
    with pytest.raises(ConstructionError):
        build_polar_disk(12, 15, radius=1.0)


def test_dims_floor_is_enforced():
    with pytest.raises(ConstructionError):
        build_torus((4, 64))


@pytest.mark.parametrize("build", [
    lambda: build_torus((8.7, 9.2)),
    lambda: build_torus((8, 8, 8.5)),
    lambda: build_polar_disk(8.9, 16, 1.0),
    lambda: FiberGrid(GridKind.disk_polar, (8, 16.5), (1.0, 2.0 * math.pi)),
], ids=["torus", "torus3d", "disk", "grid"])
def test_a_fractional_node_count_is_rejected_not_truncated(build):
    with pytest.raises(ConstructionError, match="whole numbers"):
        build()


def test_whole_node_counts_of_any_numeric_type_are_accepted():
    assert build_torus((np.int64(8), np.int32(10)))[0].dims == (8, 10)
    assert build_torus((8.0, 9.0, 10.0))[0].dims == (8, 9, 10)
    grid, _ = build_polar_disk(np.int64(8), 16.0, 1.0)
    assert grid.dims == (8, 16)
    assert all(type(n) is int for n in grid.dims)


def test_require_same_rejects_other_grid():
    a, _ = build_torus((16, 16))
    b, _ = build_torus((16, 32))
    with pytest.raises(GridMismatchError, match="field pairing"):
        a.require_same(b, "field pairing")


# ---------------------------------------------------------------------------
# fields


def test_scalar_field_is_immutable_and_copied():
    grid, _ = build_torus((8, 8))
    source = np.zeros(grid.shape)
    f = ScalarField(grid, source)
    source[0, 0] = 7.0
    assert f.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_scalar_field_rejects_non_finite_and_names_the_node():
    grid, _ = build_torus((8, 8))
    bad = np.zeros(grid.shape)
    bad[3, 5] = np.nan
    with pytest.raises(ConstructionError, match=r"3.*5"):
        ScalarField(grid, bad)


def test_from_function_and_constant():
    grid, _ = build_torus((8, 8))
    f = ScalarField.from_function(grid, lambda x1, x2: x1 + 2.0 * x2)
    x1, x2 = grid.meshes()
    np.testing.assert_array_equal(f.values, x1 + 2.0 * x2)
    c = ScalarField.constant(grid, 3.5)
    assert (c.values == 3.5).all()


def test_vector_field_shape_checked():
    grid, _ = build_torus((8, 8))
    with pytest.raises(ConstructionError):
        VectorField(grid, np.zeros(grid.shape + (3,)))


def test_metric_must_be_spd_and_error_names_node():
    grid, _ = build_torus((8, 8))
    mats = np.tile(np.eye(2), grid.shape + (1, 1))
    mats[2, 4] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues -1, 3
    with pytest.raises(ConstructionError, match=r"2.*4"):
        MetricField(grid, mats)


def test_metric_symmetrizes_roundoff():
    grid, _ = build_torus((8, 8))
    mats = np.tile(np.eye(2), grid.shape + (1, 1))
    mats[..., 0, 1] = 1e-14
    met = MetricField(grid, mats)
    np.testing.assert_array_equal(met.mat[..., 0, 1], met.mat[..., 1, 0])


def test_polar_metric_determinant():
    grid, metric = build_polar_disk(12, 16, radius=2.0)
    rho, _ = grid.meshes()
    np.testing.assert_allclose(metric.sqrt_det, rho, rtol=1e-14)


# ---------------------------------------------------------------------------
# calculus on the torus


def test_gradient_error_matches_the_stencil_symbol():
    # centered differences turn sin into sinc-scaled cos; the sup error
    # of the first component is exactly 1 - sinc(step)
    grid, metric = build_torus((64, 64))
    x1, _ = grid.meshes()
    grad = gradient(ScalarField(grid, np.sin(x1)), metric)
    err = np.abs(grad.components[..., 0] - np.cos(x1)).max()
    step = 2.0 * np.pi / 64
    assert err == pytest.approx(1.0 - math.sin(step) / step, rel=1e-9)


def test_laplacian_is_divergence_of_gradient():
    grid, metric = build_torus((16, 16))
    x1, x2 = grid.meshes()
    f = ScalarField(grid, np.sin(x1) * np.cos(2.0 * x2))
    composed = divergence(gradient(f, metric), metric)
    direct = laplace_beltrami(f, metric)
    np.testing.assert_array_equal(direct.values, composed.values)


def test_divergence_theorem_on_closed_fiber():
    grid, metric = build_torus((32, 32))
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = VectorField(grid, rng.standard_normal(grid.shape + (2,)))
        total = integrate(divergence(X, metric), metric)
        assert abs(total) < 1e-12


def test_integrate_is_the_exact_sum_where_partial_sums_leave_the_float_range():
    # fsum raises "intermediate overflow" on these, though the first sum fits
    grid, metric = build_torus((8, 8))
    cell = grid.cell_volume
    alternating = np.zeros(grid.shape)
    alternating[0, :3] = [1e308, 1e308, -1e308]
    assert integrate(ScalarField(grid, alternating), metric) == 1e308 * cell
    huge = ScalarField.constant(grid, 1e308)
    assert integrate(huge, metric) == math.inf
    assert integrate(ScalarField(grid, -huge.values), metric) == -math.inf
    # a tiny entry is not lost beside cancelling huge ones
    alternating[0, 3:5] = [-1e308, 5e-324]
    assert integrate(ScalarField(grid, alternating), metric) == 5e-324 * cell
    # weighted values beyond the float range of both signs, where fsum raises
    # "-inf + inf": their sum is undefined
    scaled = MetricField(grid, 1e10 * metric.mat)
    opposite = np.zeros(grid.shape)
    opposite[0, :2] = [1e300, -1e300]
    with np.errstate(over="ignore"):
        assert math.isnan(integrate(ScalarField(grid, opposite), scaled))


def test_integrate_keeps_every_sum_that_fsum_returns():
    grid, metric = build_hyperbolic_disk(8, 16, 0.875)
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1.0, 1e150, 1e305):
        f = ScalarField(grid, scale * rng.standard_normal(grid.shape))
        expected = math.fsum((f.values * metric.sqrt_det).ravel().tolist()) * grid.cell_volume
        assert integrate(f, metric) == expected


def test_integration_by_parts_on_closed_fiber():
    # <grad f, X> integrates to -<f, div X> in the discrete pairing
    grid, metric = build_torus((32, 32))
    rng = np.random.default_rng(11)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    X = VectorField(grid, rng.standard_normal(grid.shape + (2,)))
    lhs = integrate(ScalarField(grid, inner(gradient(f, metric), X, metric).values), metric)
    rhs = -integrate(ScalarField(grid, f.values * divergence(X, metric).values), metric)
    assert lhs == pytest.approx(rhs, abs=1e-11)


# 2- and 3-tori of 8 to 20 nodes per axis, odd and even counts alike, with
# their axis lengths and the seed of the random metric and fields
_RANDOM_TORI = st.tuples(
    st.lists(st.integers(8, 20), min_size=2, max_size=3),
    st.lists(st.floats(1.0, 10.0), min_size=3, max_size=3),
    st.integers(0, 2**32),
)


def _random_spd_torus(dims, lengths, seed):
    """A torus whose node metrics are ``A A^T + 0.2 I`` for standard normal ``A``.

    Also returns a random scalar field and a random vector field on it.
    """
    grid, _ = build_torus(dims, lengths[:len(dims)])
    d = grid.ndim
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.shape + (d, d))
    metric = MetricField(grid, np.einsum("...ik,...jk->...ij", a, a) + 0.2 * np.eye(d))
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    X = VectorField(grid, rng.standard_normal(grid.shape + (d,)))
    return grid, metric, f, X


@settings(max_examples=40)
@given(_RANDOM_TORI)
def test_divergence_theorem_on_random_spd_metrics(torus):
    # normalized as acceptance criterion 1 normalizes it
    grid, metric, _, X = _random_spd_torus(*torus)
    total = integrate(divergence(X, metric), metric)
    scale = integrate(ScalarField(grid, np.sqrt(norm_sq(X, metric).values)), metric) + 1.0
    assert abs(total) <= 1e-12 * scale


@settings(max_examples=40)
@given(_RANDOM_TORI)
def test_summation_by_parts_on_random_spd_metrics(torus):
    # <grad f, X> integrates to -<f, div X>, relative to the integrals of
    # the absolute values of both integrands
    grid, metric, f, X = _random_spd_torus(*torus)
    pairing = inner(gradient(f, metric), X, metric).values
    f_div = f.values * divergence(X, metric).values
    lhs = integrate(ScalarField(grid, pairing), metric)
    rhs = -integrate(ScalarField(grid, f_div), metric)
    scale = (integrate(ScalarField(grid, np.abs(pairing)), metric)
             + integrate(ScalarField(grid, np.abs(f_div)), metric))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_norm_sq_clamps_roundoff_to_nonnegative():
    grid, metric = build_torus((8, 8))
    X = VectorField(grid, np.zeros(grid.shape + (2,)))
    assert (norm_sq(X, metric).values >= 0.0).all()


# ---------------------------------------------------------------------------
# calculus on the disk


def test_disk_gradient_exact_on_radial_quadratic():
    grid, metric = build_polar_disk(24, 48, radius=1.5)
    rho, _ = grid.meshes()
    grad = gradient(ScalarField(grid, rho**2), metric)
    np.testing.assert_allclose(grad.components[..., 0], 2.0 * rho, atol=1e-13)
    np.testing.assert_allclose(grad.components[..., 1], 0.0, atol=1e-13)


def test_disk_laplacian_exact_on_radial_quadratic():
    # the paired-antipode center closure reproduces Lap(rho^2) = 4
    # through the axis without any special casing
    grid, metric = build_polar_disk(24, 48, radius=1.5)
    rho, _ = grid.meshes()
    lap = laplace_beltrami(ScalarField(grid, rho**2), metric)
    np.testing.assert_allclose(lap.values[grid.interior_mask], 4.0, atol=1e-12)


def test_disk_divergence_theorem_against_boundary_flux():
    # for a radial field X = rho d_rho the divergence integral over the
    # whole disk equals the boundary flux 2 pi R^2 up to quadrature order
    grid, metric = build_polar_disk(48, 96, radius=1.0)
    rho, _ = grid.meshes()
    comp = np.zeros(grid.shape + (2,))
    comp[..., 0] = rho
    total = integrate(ScalarField(grid, divergence(VectorField(grid, comp), metric).values), metric)
    assert total == pytest.approx(2.0 * np.pi, rel=2e-2)


# ---------------------------------------------------------------------------
# curved models


def test_hyperbolic_disk_area():
    # area inside coordinate radius a is 4 pi a^2 / (1 - a^2); a = 1/2
    # gives 4 pi / 3
    exact = 4.0 * np.pi / 3.0
    errors = {}
    for n_r, n_t in ((32, 64), (64, 128)):
        _, metric = build_hyperbolic_disk(n_r, n_t, 0.5)
        errors[n_r] = abs(volume(metric) - exact)
    assert errors[32] < 1e-3
    assert errors[32] / errors[64] > 3.5


def test_hyperbolic_radius_must_stay_inside_unit_disk():
    with pytest.raises(ModelDomainError):
        build_hyperbolic_disk(16, 32, 1.0)
    with pytest.raises(ModelDomainError):
        build_hyperbolic_disk(16, 32, -0.25)


def test_hyperbolic_factor_matches_metric():
    grid, metric = build_hyperbolic_disk(16, 32, 0.5)
    rho, _ = grid.meshes()
    factor = hyperbolic_conformal_factor(grid)
    np.testing.assert_allclose(factor.values, 4.0 / (1.0 - rho**2) ** 2, rtol=1e-14)
    np.testing.assert_allclose(metric.mat[..., 0, 0], factor.values, rtol=1e-14)


def test_lift_to_circle_volume_and_block_structure():
    grid, metric = build_torus((16, 16))
    x1, _ = grid.meshes()
    h = ScalarField(grid, 1.0 + 0.3 * np.cos(x1))
    grid3, metric3, lift = lift_to_circle(grid, metric, 16)
    assert grid3.kind is GridKind.torus3d_lifted
    assert grid3.shape == (16, 16, 16)
    # the circle factor is unit, so the lifted volume is (2 pi)^3 exactly
    assert volume(metric3) == pytest.approx((2.0 * np.pi) ** 3, rel=1e-13)
    lifted = lift(h)
    assert lifted.grid is grid3
    np.testing.assert_array_equal(lifted.values[..., 0], h.values)
    np.testing.assert_array_equal(lifted.values[..., 5], h.values)
    assert np.abs(metric3.mat[..., 0, 2]).max() == 0.0
    np.testing.assert_array_equal(metric3.mat[..., 2, 2], 1.0)


def test_lift_rejects_disk_fiber():
    grid, metric = build_polar_disk(12, 16, radius=1.0)
    with pytest.raises(GridMismatchError):
        lift_to_circle(grid, metric, 16)


# ---------------------------------------------------------------------------
# csv dump


def test_dump_field_csv_round_trips(tmp_path):
    grid, metric = build_polar_disk(8, 10, radius=1.0)
    rho, theta = grid.meshes()
    f = ScalarField(grid, rho * np.cos(theta))
    path = tmp_path / "field.csv"
    dump_field_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x1,x2,value"
    assert len(lines) == 1 + 8 * 10
    i, j, x1, x2, value = lines[1 + 10 * 3 + 4].split(",")
    assert (int(i), int(j)) == (3, 4)
    # coordinate columns carry the native chart: radius and angle
    assert float(x1) == rho[3, 4]
    assert float(x2) == theta[3, 4]
    assert float(value) == f.values[3, 4]


def _dump_field_csv_per_node(f, path):
    """The per-node writer ``dump_field_csv`` replaced; its bytes are the reference."""
    grid = f.grid
    idx_names = ["i", "j", "k"][: grid.ndim]
    coord_names = ["x1", "x2", "x3"][: grid.ndim]
    meshes = grid.meshes()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(idx_names + coord_names + ["value"]) + "\n")
        for idx in np.ndindex(grid.shape):
            cells = [str(i) for i in idx]
            cells += [repr(float(m[idx])) for m in meshes]
            cells.append(repr(float(f.values[idx])))
            fh.write(",".join(cells) + "\n")


def test_dump_field_csv_bytes_match_per_node_writer(tmp_path):
    disk, _ = build_polar_disk(16, 32, radius=0.875)
    rho, theta = disk.meshes()
    # signed zeros on the outer rings, mixed magnitudes inside
    disk_values = np.where(rho < 0.6, np.sin(3.0 * theta) * rho**5 / 3.0, -0.0)
    torus, metric = build_torus((8, 8))
    _, _, lift = lift_to_circle(torus, metric, 8)
    x1, x2 = torus.meshes()
    fields = {"disk": ScalarField(disk, disk_values),
              "lifted": lift(ScalarField(torus, 1e-7 * np.cos(x1) * np.exp(np.sin(x2))))}
    for name, f in fields.items():
        dump_field_csv(f, tmp_path / f"{name}.csv")
        _dump_field_csv_per_node(f, tmp_path / f"{name}_ref.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# prolongation onto a twice finer grid

# coarse tori of 8 to 16 nodes per axis and coarse disks of 8 to 16 rings and
# an even angular count of 8 to 32, with a value and a seed
_COARSE_TORI = st.tuples(st.lists(st.integers(8, 16), min_size=2, max_size=3),
                         st.floats(-1e6, 1e6), st.integers(0, 2**32))
_COARSE_DISKS = st.tuples(st.integers(8, 16), st.integers(4, 16).map(lambda k: 2 * k),
                          st.floats(0.1, 0.99), st.floats(-1e6, 1e6))


def _torus_pair(dims):
    coarse, _ = build_torus(dims, [1.0 + n for n in range(len(dims))])
    fine, _ = build_torus([2 * n for n in dims], [1.0 + n for n in range(len(dims))])
    return coarse, fine


@settings(max_examples=40)
@given(_COARSE_TORI)
def test_prolongation_injects_nested_torus_nodes_and_keeps_constants(torus):
    dims, value, seed = torus
    coarse, fine = _torus_pair(dims)
    assert coarse_dims(fine) == coarse.dims
    assert prolong(ScalarField.constant(coarse, value), fine).values.tobytes() == \
        ScalarField.constant(fine, value).values.tobytes()
    vals = np.random.default_rng(seed).standard_normal(coarse.shape)
    vals[0, 0] = -0.0
    nested = prolong(ScalarField(coarse, vals), fine).values[(slice(None, None, 2),) * len(dims)]
    assert nested.tobytes() == vals.tobytes()


@settings(max_examples=40)
@given(_COARSE_DISKS)
def test_prolongation_on_the_disk_keeps_constants_and_linear_radial_profiles(disk):
    n_r, n_theta, radius, value = disk
    coarse, _ = build_polar_disk(n_r, n_theta, radius)
    fine, _ = build_polar_disk(2 * n_r, 2 * n_theta, radius)
    assert coarse_dims(fine) == coarse.dims
    assert np.array_equal(prolong(ScalarField.constant(coarse, value), fine).values,
                          ScalarField.constant(fine, value).values)
    # x1 = rho cos(theta) is linear in rho along each angle: every free ring
    # at the nested angles reproduces it, the innermost one through the ring
    # theta + pi below it
    for fn in (np.cos, np.sin):
        rho, theta = coarse.meshes()
        lifted = prolong(ScalarField(coarse, rho * fn(theta)), fine).values
        rho, theta = fine.meshes()
        exact = rho * fn(theta)
        np.testing.assert_allclose(lifted[:-1, ::2], exact[:-1, ::2], rtol=0.0,
                                   atol=4 * np.finfo(float).eps * radius)


@pytest.mark.parametrize("kind,dims,half", [
    (GridKind.torus2d, (16, 16), (8, 8)),
    (GridKind.torus3d_lifted, (16, 20, 32), (8, 10, 16)),
    (GridKind.torus2d, (16, 15), None),      # an odd axis
    (GridKind.torus2d, (16, 14), None),      # a half below 8 nodes
    (GridKind.disk_polar, (16, 32), (8, 16)),
    (GridKind.disk_polar, (16, 18), None),   # the halved angular count is odd
])
def test_a_grid_halves_only_into_a_grid_that_exists(kind, dims, half):
    extents = (1.0,) * (len(dims) - 1) + (2.0 * math.pi,)
    grid = FiberGrid(kind, dims, extents)
    assert coarse_dims(grid) == half
    if half is not None:
        FiberGrid(kind, half, extents)


def test_prolongation_refuses_grids_that_do_not_nest():
    coarse, fine = _torus_pair((8, 8))
    with pytest.raises(GridMismatchError, match="does not halve"):
        prolong(ScalarField.constant(coarse, 1.0), build_torus((16, 18))[0])
    with pytest.raises(GridMismatchError, match="does not halve"):
        prolong(ScalarField.constant(fine, 1.0), coarse)
