"""The Newton Jacobian as the exact derivative of the discrete residual.

``_Problem.jacobian`` assembles ``J`` by the chain rule from node
coefficients shifted by the stencil's offsets, onto one sparse pattern per
problem, and scales each row by ``1/sqrt_det``.  The difference matrices
of :func:`pmclab.geometry.partial_matrix` must be the stencils the
residual applies, and ``J v`` must be the limit of centered differences
of the residual: their gap shrinks at second order in the step, on every
row kind (drift, off-diagonal metric, the third axis, the disk's axis
ring and the ring next to its rim).  The entries must be those of the
chain-rule product of the sparse matrices themselves, kept here as the
oracle, and each row must store the columns of that product's pattern,
on the smallest grids too, and the matrices that Newton and the flow
solve must be the ones their formulas name.  The averaged-stencil preconditioner must be the exact
inverse of a circulant matrix on a torus pattern and of an
angle-invariant matrix on a disk pattern, of a random ring-varying disk
stencil too, with row swaps where a ring's diagonal vanishes; a singular
or non-finite stencil gives None without a warning.
"""

import functools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.sparse import bmat, diags, hstack, identity, vstack

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
from pmclab.solver import _factor, _Problem

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


def _drift_torus(n=24):
    # a varying warping (drift rows) over a metric with an off-diagonal part
    grid, _ = build_torus((n, n))
    x1, x2 = grid.meshes()
    mat = np.zeros(grid.shape + (2, 2))
    mat[..., 0, 0] = 1.2 + 0.2 * np.sin(x2)
    mat[..., 1, 1] = 1.0 + 0.2 * np.cos(x1)
    mat[..., 0, 1] = mat[..., 1, 0] = 0.3 * np.sin(x1 + x2)
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(x1) + 0.2 * np.sin(x2))
    wp = WarpedProduct(grid, MetricField(grid, mat), warping)
    prob = _Problem(wp, ScalarField.constant(grid, 0.0))
    return prob, 0.8 * np.sin(x1) + 0.5 * np.cos(2.0 * x2), {"all": slice(None)}


def _lifted_torus(n=12):
    grid, metric = build_torus((n, n, n))
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


def _drift_disk(dims=(16, 32)):
    # a varying warping on a polar disk: drift rows on the axis ring and
    # next to the rim
    grid, metric = build_polar_disk(*dims, 1.5)
    rho, theta = grid.meshes()
    warping = ScalarField(grid, 1.0 + 0.2 * rho * np.cos(theta) + 0.1 * rho**2)
    wp = WarpedProduct(grid, metric, warping)
    prob = _Problem(wp, ScalarField.constant(grid, 0.0))
    u = 0.4 * (rho / 1.5) ** 2 * np.sin(2.0 * theta) + 0.3 * rho * np.sin(theta)
    return prob, u, {"axis": slice(0, 1), "rim": slice(-1, None)}


# the smallest admitted grids last: on the 8x16 disk the across-center
# offsets n/2 +- 2 come closest to a regular angular offset
_FIBERS = pytest.mark.parametrize(
    "build", [_drift_torus, _lifted_torus, _hyperbolic_disk, _drift_disk,
              functools.partial(_drift_torus, 8), functools.partial(_lifted_torus, 8),
              functools.partial(_drift_disk, (8, 16))],
    ids=["drift_torus", "lifted_torus", "hyperbolic_disk", "drift_disk",
         "drift_torus_8", "lifted_torus_8", "drift_disk_8x16"])


def _chain_rule_jacobian(prob, u):
    """The chain-rule product of sparse matrices: ``div @ bmat(m) @ grad`` plus the drift rows."""
    k, grid, d = prob.wp, prob.grid, prob.grid.ndim
    partials = [partial_matrix(grid, axis) for axis in range(d)]
    div = (diags(1.0 / k.sqrt_det.ravel()) @ hstack(partials)).tocsr()[prob.mask]
    grad = vstack(partials, format="csc")[:, prob.mask].tocsr()
    _, gu, _, W = k.tilt(u)
    flux = k.sqrt_det * k.h / W
    bend = k.h2 / W**2
    m = [[diags((flux * (k.inv[a][c] - bend * gu[a] * gu[c])).ravel()) for c in range(d)]
         for a in range(d)]
    jac = div @ (bmat(m, format="csr") @ grad)
    if k.dh is not None:
        pull = sum(k.dh[a] * gu[a] for a in range(d)) * bend
        e = [(sum(k.dh[a] * k.inv[a][c] for a in range(d)) - pull * gu[c]) / W
             for c in range(d)]
        jac = jac + hstack([diags(ec.ravel()) for ec in e], format="csr")[prob.mask] @ grad
    return jac


def _chain_rule_pattern(prob):
    """The chain-rule product's pattern: the products of stored stencil entries and the diagonal."""
    partials = [partial_matrix(prob.grid, axis).astype(bool) for axis in range(prob.grid.ndim)]
    left = sum(p[prob.mask] for p in partials)
    if prob.wp.dh is not None:
        left = left + identity(prob.mask.size, dtype=bool, format="csr")[prob.mask]
    return (left @ sum(p[:, prob.mask] for p in partials)
            + identity(prob.n_dof, dtype=bool)).tocsr()


@_FIBERS
def test_jacobian_matches_the_chain_rule_product(build):
    prob, u, _ = build()
    expected = _chain_rule_jacobian(prob, u).toarray()
    got = prob.jacobian(u).toarray()
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


@_FIBERS
def test_each_row_stores_the_columns_of_the_chain_rule_product(build):
    prob, u, _ = build()
    got, expected = prob.jacobian(u), _chain_rule_pattern(prob)
    for row in range(prob.n_dof):
        stored = got.indices[got.indptr[row]:got.indptr[row + 1]]
        assert stored.size == np.unique(stored).size, row
        columns = expected.indices[expected.indptr[row]:expected.indptr[row + 1]]
        assert set(stored) == set(columns), row


def test_a_hyperbolic_disk_has_the_flat_disk_pattern_and_the_chain_rule_product():
    # the pattern carries no metric: a hyperbolic disk stores the columns of
    # a flat polar disk on an equal grid, and only its entries differ
    grid, metric = build_polar_disk(16, 32, 0.875)
    flat = _Problem(WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0)),
                    ScalarField.constant(grid, 0.0))
    prob, u, _ = _hyperbolic_disk()
    assert prob.grid == grid
    for part in ("indices", "indptr"):
        np.testing.assert_array_equal(getattr(prob._assembly, part), getattr(flat._assembly, part))
    expected = _chain_rule_jacobian(prob, u).toarray()
    got = prob.jacobian(u).toarray()
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize("build", [_drift_torus, _hyperbolic_disk],
                         ids=["drift_torus", "hyperbolic_disk"])
def test_companion_and_flow_matrix_are_their_formulas_bit_for_bit(build, monkeypatch):
    prob, u, _ = build()
    jac = prob.jacobian(u)
    seen = []

    def kept_solve(matrix, rhs, averaged=False):
        seen.append(matrix)
        return np.zeros_like(rhs), 0

    monkeypatch.setattr(prob, "kept_solve", kept_solve)
    prob.linear_step(jac, np.ones(prob.n_dof))
    free = np.ones(prob.n_dof)
    free[prob._assembly.cell] = 0.0
    companion = diags(free) @ jac @ diags(free) + diags(1.0 - free)
    np.testing.assert_array_equal(seen[0].toarray(), companion.toarray())
    dt = 0.0375
    prob.flow_step(jac, dt, np.ones(prob.n_dof))
    np.testing.assert_array_equal(seen[1].toarray(),
                                  (identity(prob.n_dof) - dt * jac).toarray())


def _stencil_keys(prob):
    """Each stored entry's place in the averaged stencil, and the stencil's shape.

    The shape is ``(rings, 2 b + 1, *periodic)``.  Along each periodic axis
    an entry is placed by its offset ``(j - i) mod n``; on a disk also by
    the ring of its row and its radial offset in ``-b..b``.  A torus is one
    ring with ``b`` = 0.
    """
    grid, asm = prob.grid, prob._assembly
    periodic = grid.periodic_axes
    dims = tuple(n if p else n - 1 for n, p in zip(grid.shape, periodic))
    rows = np.unravel_index(np.repeat(np.arange(prob.n_dof), np.diff(asm.indptr)), dims)
    step = np.subtract(np.unravel_index(asm.indices, dims), rows)
    wrapped = [o % n for o, n, p in zip(step, dims, periodic) if p]
    ring, radial, rings, band = 0, 0, 1, 0
    if not grid.closed:
        ring, radial, rings = rows[0], step[0], dims[0]
        band = int(np.abs(radial).max())
    shape = (rings, 2 * band + 1, *(n for n, p in zip(dims, periodic) if p))
    return np.ravel_multi_index((ring, radial + band, *wrapped), shape), shape


@pytest.mark.parametrize("build", [_drift_torus, _lifted_torus], ids=["drift_torus", "torus3d"])
def test_fourier_inverse_undoes_a_circulant_matrix_on_the_pattern(build):
    # entries that depend on their periodic offset alone make a circulant
    # matrix, its own averaged stencil: the Fourier inverse must undo it to
    # rounding, and it must do so for a stencil that is not symmetric
    prob, _, _ = build()
    rng = np.random.default_rng(11)
    stencil = 0.02 * rng.standard_normal(prob.n_dof)
    stencil[0] = 1.0
    data = stencil[_stencil_keys(prob)[0]]
    x = rng.standard_normal(prob.n_dof)
    got = prob._averaged_inverse(data)(prob._on_pattern(data) @ x)
    assert np.abs(got - x).max() <= 1e-13 * np.abs(x).max()


def test_averaged_inverse_undoes_a_theta_invariant_disk_matrix():
    # at zero height with zero rim data the hyperbolic disk's Jacobian does
    # not depend on the angle, so it is its own averaged stencil: one band
    # per angular mode, the across-center pair inside it, and the averaged
    # inverse must undo the matrix to rounding
    grid, metric = build_hyperbolic_disk(16, 32, 0.875)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    prob = _Problem(wp, ScalarField.constant(grid, 0.0))
    jac = prob.jacobian(np.zeros(grid.shape))
    x = np.random.default_rng(12).standard_normal(prob.n_dof)
    got = prob._averaged_inverse(jac.data)(jac @ x)
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


def _disk_stencil_problem(dims, seed):
    # a random stencil on a disk pattern, not symmetric, with a dominant
    # diagonal that differs from ring to ring
    grid, metric = build_hyperbolic_disk(*dims, 0.875)
    prob = _Problem(WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0)),
                    ScalarField.constant(grid, 0.0))
    rng = np.random.default_rng(seed)
    keys, shape = _stencil_keys(prob)
    rings, width, _ = shape
    stencil = 0.02 * rng.standard_normal(shape)
    stencil[:, width // 2, 0] = 1.0 + rng.random(rings)
    return prob, stencil, keys, rng


@pytest.mark.parametrize("dims", [(16, 32), (64, 128)], ids=["16x32", "64x128"])
def test_averaged_inverse_undoes_a_ring_varying_disk_stencil(dims):
    # entries that depend on their ring and their radial and angular
    # offsets alone make a matrix that is its own averaged stencil: a
    # different band matrix for every angular mode, which the averaged
    # inverse must undo to rounding
    prob, stencil, keys, rng = _disk_stencil_problem(dims, 13)
    data = stencil.ravel()[keys]
    x = rng.standard_normal(prob.n_dof)
    got = prob._averaged_inverse(data)(prob._on_pattern(data) @ x)
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


def test_averaged_inverse_swaps_rows_where_a_ring_diagonal_vanishes():
    # ring 0 has no diagonal weight at any angular offset, so every mode's
    # band matrix has a zero first pivot; coupled to ring 1 both ways it
    # stays nonsingular, and a row swap inverts it to rounding
    prob, stencil, keys, rng = _disk_stencil_problem((16, 32), 14)
    band = stencil.shape[1] // 2
    stencil[0, band] = 0.0
    stencil[0, band + 1, 0] = stencil[1, band - 1, 0] = 1.0
    data = stencil.ravel()[keys]
    n_theta = prob.grid.shape[1]
    assert not data[prob._assembly.diagonal[:n_theta]].any()
    x = rng.standard_normal(prob.n_dof)
    got = prob._averaged_inverse(data)(prob._on_pattern(data) @ x)
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("build", [_hyperbolic_disk, _drift_torus],
                         ids=["hyperbolic_disk", "drift_torus"])
def test_a_singular_or_non_finite_averaged_stencil_gives_none(build):
    prob, u, _ = build()
    data = prob.jacobian(u).data
    data[data.size // 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prob._averaged_inverse(np.zeros_like(data)) is None
        assert prob._averaged_inverse(data) is None


def test_jacobians_of_one_problem_share_one_pattern():
    prob, u, _ = _drift_torus()
    first, second = prob.jacobian(u), prob.jacobian(0.5 * u)
    assert not np.array_equal(first.data, second.data)
    assert first.indptr is second.indptr
    # the constructor keeps a view of the pattern's column indices
    assert np.shares_memory(first.indices, second.indices)


def test_kept_factor_has_the_fill_of_the_chain_rule_product():
    # at zero height on a flat torus the cross terms are zeros in the
    # shared pattern, which the product never stores
    grid, metric = build_torus((16, 16))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    prob = _Problem(wp, ScalarField.constant(grid, 0.0))
    zero = np.zeros(grid.shape)
    jac = prob.jacobian(zero)
    assert (jac.data == 0.0).any()
    prob.linear_step(jac, np.ones(prob.n_dof))
    free = np.ones(prob.n_dof)
    free[prob._assembly.cell] = 0.0
    old = _chain_rule_jacobian(prob, zero)
    expected = _factor(diags(free) @ old @ diags(free) + diags(1.0 - free))
    assert prob.lu.L.nnz + prob.lu.U.nnz == expected.L.nnz + expected.U.nnz


@_FIBERS
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


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = os.path.dirname(os.path.dirname(pmclab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def pmclab_main(*args):
        return subprocess.run([sys.executable, "-W", "error", "-m", "pmclab", *args],
                              env=env, capture_output=True, text=True, timeout=60)

    done = pmclab_main("verify", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage: pmclab verify" in done.stdout
    # one solve through __main__, cli.run and sys.exit with every warning an
    # error: Newton's merit would overflow, and the run ends in a report
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fiber": {"kind": "disk", "dims": [8, 16], "R": 0.5},
                                  "H_target": "1e154"}))
    done = pmclab_main("solve", str(config))
    assert (done.returncode, done.stderr) == (3, "")
    report = json.loads(done.stdout, parse_constant=lambda c: pytest.fail(f"not strict: {c}"))
    assert report["solve"]["verdict"] == "max_iter"
