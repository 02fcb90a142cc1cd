"""Closed-form metric invariants against a LAPACK reference.

``MetricField`` computes ``sqrt_det`` and ``inv`` from cofactors and
decides positive definiteness by Sylvester's criterion.  The references
here are batched ``np.linalg`` calls, kept in the tests only, and the
whole-array validation that the per-component one replaced, which must
agree with it bit for bit.
"""

import re
import warnings

import numpy as np
import pytest

from pmclab import (
    ConstructionError,
    MetricField,
    build_polar_disk,
    build_torus,
    hyperbolic_conformal_factor,
)
from pmclab.geometry import _NORMAL_MIN, _cofactors, _node_failure

_GRIDS = {2: (16, 16), 3: (8, 8, 8)}


def _random_spd(dims, seed, lo=0.5, hi=2.0):
    """Node matrices ``Q diag(lam) Q^T`` with random rotations: non-diagonal, condition <= hi/lo."""
    rng = np.random.default_rng(seed)
    d = len(dims)
    q, _ = np.linalg.qr(rng.standard_normal(dims + (d, d)))
    lam = rng.uniform(lo, hi, size=dims + (d,))
    mats = np.einsum("...ik,...k,...jk->...ij", q, lam, q)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def _node_rel(a, ref):
    """Per-node normwise relative difference of matrix fields."""
    return np.abs(a - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
def test_invariants_match_lapack(d, scale):
    grid, _ = build_torus(_GRIDS[d])
    mats = scale * _random_spd(grid.shape, seed=10 * d + 1)
    met = MetricField(grid, mats)
    ref_sqrt_det = np.sqrt(np.linalg.det(met.mat))
    ref_inv = np.linalg.inv(met.mat)
    assert np.abs(met.sqrt_det / ref_sqrt_det - 1.0).max() <= 1e-13
    assert _node_rel(met.inv, ref_inv).max() <= 1e-13
    assert np.abs(met.mat[..., 0, 1]).min() > 0.0  # really non-diagonal


@pytest.mark.parametrize("d", [2, 3])
def test_outputs_read_only_and_inverse_symmetric(d):
    grid, _ = build_torus(_GRIDS[d])
    met = MetricField(grid, _random_spd(grid.shape, seed=d))
    for arr in (met.mat, met.sqrt_det, met.inv):
        assert not arr.flags.writeable
    np.testing.assert_array_equal(met.inv, np.swapaxes(met.inv, -1, -2))


def test_middle_minor_is_checked():
    # m00 = 1 and det = 1 are positive; only the 2x2 leading minor (-1) is not
    grid, _ = build_torus(_GRIDS[3])
    mats = np.tile(np.eye(3), grid.shape + (1, 1))
    mats[3, 5, 6] = np.diag([1.0, -1.0, -1.0])
    with pytest.raises(ConstructionError, match=re.escape("positive definite at node (3, 5, 6)")):
        MetricField(grid, mats)


@pytest.mark.parametrize("d", [2, 3])
def test_rejected_node_is_first_flagged_by_eigvalsh(d):
    grid, _ = build_torus(_GRIDS[d])
    rng = np.random.default_rng(40 + d)
    mats = _random_spd(grid.shape, seed=50 + d)
    # clearly indefinite nodes; the first one has two negative eigenvalues,
    # so in 3-D its det is positive and det alone does not flag it
    flat = mats.reshape(-1, d, d)
    planted = np.sort(rng.choice(flat.shape[0], size=6, replace=False))
    for k, node in enumerate(planted):
        lam = rng.uniform(0.5, 2.0, size=d)
        lam[k % d] = -rng.uniform(0.05, 1.0)
        if k == 0:
            lam[0], lam[1:] = 1.0, -0.4
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        flat[node] = (q * lam) @ q.T
        flat[node] = 0.5 * (flat[node] + flat[node].T)
    ref = np.argwhere(np.linalg.eigvalsh(mats).min(axis=-1) <= 0.0)
    assert len(ref) == 6
    node = tuple(int(i) for i in ref[0])
    with pytest.raises(ConstructionError, match=re.escape(f"positive definite at node {node}")):
        MetricField(grid, mats)


@pytest.mark.parametrize("d, node_mat", [
    (2, 1e200 * np.eye(2)),  # det = 1e400 overflows
    (3, 1e150 * np.eye(3)),  # det = 1e450 overflows
    (3, 1e-120 * np.eye(3)),  # det = 1e-360 underflows to 0
    (2, 1e-160 * np.eye(2)),  # det = 1e-320 is subnormal
    (3, np.diag([1.0, 1e-200, 1e-200])),  # det underflows even with entries scaled to 1
    (2, np.diag([1e-310, 1e300])),  # det = 1e-10 is fine, inv[0, 0] = 1e310 overflows
])
def test_out_of_range_invariants_name_the_node(d, node_mat):
    # positive definite, but the determinant or inverse leaves the normal float range
    grid, _ = build_torus(_GRIDS[d])
    mats = np.tile(np.eye(d), grid.shape + (1, 1))
    node = (1, 2, 3)[:d]
    mats[node] = node_mat
    with pytest.raises(ConstructionError,
                       match=re.escape(f"out of floating-point range at node {node}")):
        MetricField(grid, mats)


@pytest.mark.parametrize("d, node_mat", [
    (2, 1e200 * np.array([[1.0, 2.0], [2.0, 1.0]])),  # minors overflow, det -> -inf
    (3, 1e-120 * np.diag([1.0, -1.0, 1.0])),  # det underflows to -0
    (3, np.diag([1e200, 1e200, -1e-200])),
])
def test_indefinite_node_out_of_range_still_reads_not_positive_definite(d, node_mat):
    grid, _ = build_torus(_GRIDS[d])
    mats = np.tile(np.eye(d), grid.shape + (1, 1))
    node = (4, 0, 7)[:d]
    mats[node] = node_mat
    with pytest.raises(ConstructionError,
                       match=re.escape(f"is not positive definite at node {node}")):
        MetricField(grid, mats)


def test_asymmetry_is_measured_against_its_own_node():
    # a huge node elsewhere must not lend its scale to a lopsided one
    grid, _ = build_torus(_GRIDS[2])
    mats = np.tile(np.eye(2), grid.shape + (1, 1))
    mats[0, 0] = 1e100 * np.eye(2)
    mats[5, 9] = [[1.0, 0.5], [0.1, 1.0]]
    with pytest.raises(ConstructionError,
                       match=re.escape("metric is not symmetric at node (5, 9)")):
        MetricField(grid, mats)


def _whole_array_metric(grid, mat):
    """``MetricField``'s validation as whole-array reductions over the ``(d, d)`` axes.

    Returns ``(mat, sqrt_det, inv)``, or the ``ConstructionError`` message
    for the first bad node.
    """
    d = grid.ndim
    mat = np.asarray(mat, dtype=np.float64)
    if not np.isfinite(mat).all():
        return "metric contains non-finite values"
    skew = np.maximum.reduce([np.abs(mat[..., i, j] - mat[..., j, i])
                              for i in range(d) for j in range(i + 1, d)])
    lopsided = skew > 1e-12 * (1.0 + np.abs(mat).max(axis=(-2, -1)))
    if lopsided.any():
        node = tuple(int(i) for i in np.argwhere(lopsided)[0])
        return f"metric is not symmetric at node {node} (asymmetry {skew[node]:.3e})"
    given, mat = mat, 0.5 * (mat + np.swapaxes(mat, -1, -2))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        cofactors, minors = _cofactors(mat)
        det = minors[-1]
        inv = np.empty_like(mat)
        for (i, j), c in cofactors.items():
            np.divide(c, det, out=inv[..., i, j])
            inv[..., j, i] = inv[..., i, j]
        good = np.logical_and.reduce([minor > 0.0 for minor in minors[:-1]]
                                     + [det >= _NORMAL_MIN, det < np.inf,
                                        np.isfinite(inv).all(axis=(-2, -1))])
    if not good.all():
        node = tuple(int(i) for i in np.argwhere(~good)[0])
        return f"metric {_node_failure(given[node])} at node {node}"
    return mat, np.sqrt(det), inv


def _assert_bitwise_as_whole_array(grid, mats):
    met = MetricField(grid, mats)
    expected = _whole_array_metric(grid, mats)
    for got, ref in zip((met.mat, met.sqrt_det, met.inv), expected):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    return met


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
def test_random_fields_match_the_whole_array_form_bit_for_bit(d, scale):
    grid, _ = build_torus(_GRIDS[d])
    _assert_bitwise_as_whole_array(grid, scale * _random_spd(grid.shape, seed=60 + d))


@pytest.mark.parametrize("d", [2, 3])
def test_input_asymmetric_at_1e_14_is_symmetrized_bit_for_bit(d):
    grid, _ = build_torus(_GRIDS[d])
    mats = _random_spd(grid.shape, seed=70 + d)
    mats[..., 0, 1] *= 1.0 + 1e-14
    mats[..., d - 1, 0] *= 1.0 - 1e-14
    met = _assert_bitwise_as_whole_array(grid, mats)
    assert not np.array_equal(met.mat, mats)
    np.testing.assert_array_equal(met.mat, np.swapaxes(met.mat, -1, -2))


def test_polar_disks_match_the_whole_array_form_bit_for_bit():
    grid, flat = build_polar_disk(32, 64, 0.875)
    hyperbolic = hyperbolic_conformal_factor(grid).values[..., None, None] * flat.mat
    for mats in (np.array(flat.mat), hyperbolic):
        _assert_bitwise_as_whole_array(grid, mats)


def test_symmetrizing_entries_above_half_the_float_max_overflows_as_before():
    # unsymmetrized this node passes (det 1.2e8, inverse finite); 1.2e308 + 1.2e308 does not
    grid, _ = build_torus(_GRIDS[2])
    mats = np.tile(np.eye(2), grid.shape + (1, 1))
    mats[2, 5] = np.diag([1.2e308, 1e-300])
    mats[6, 1] = 1e-160 * np.eye(2)  # fails too, but later in node order
    with pytest.warns(RuntimeWarning, match="overflow"):
        expected = _whole_array_metric(grid, mats)
    assert expected == "metric determinant or inverse is out of floating-point range at node (2, 5)"
    # the refusal is all the caller sees: the symmetrization's overflow does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError, match=f"^{re.escape(expected)}$"):
            MetricField(grid, mats)


@pytest.mark.parametrize("node, verdict", [
    ([[1.5e308, 1e308], [1e308, 1.5e308]], "determinant or inverse is out of floating-point range"),
    ([[1.5e308, -1e308], [-1e308, 1.5e308]], "determinant or inverse is out of floating-point range"),
    ([[1.0, 1e308], [1e308, 1.0]], "is not positive definite"),
], ids=["positive", "positive_twin", "indefinite"])
def test_a_node_whose_symmetrization_overflows_is_judged_without_nan(node, verdict):
    # symmetrized, the first two nodes are all inf, whose minors are NaN; the
    # congruent node is scaled before it is symmetrized, so none is
    node = np.array(node)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _node_failure(node) == verdict
    grid, _ = build_torus(_GRIDS[2])
    mats = np.tile(np.eye(2), grid.shape + (1, 1))
    mats[3, 4] = node
    # nor does the symmetrization's own overflow warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError,
                           match=f"^metric {re.escape(verdict)} at node \\(3, 4\\)$"):
            MetricField(grid, mats)
