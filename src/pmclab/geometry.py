"""Metric-aware finite differences on structured fiber grids.

Two grid families are supported: uniform periodic tori (2-D, plus a 3-D
variant obtained by crossing a 2-D torus with a circle) and polar disks
with cell-centered radial rings and a pinned (Dirichlet) outer ring.

All first derivatives are second order:

* centered differences on periodic axes and in the radial interior,
* a three-point one-sided stencil on the pinned outer ring,
* an across-center pairing on the innermost ring of a disk: the radial
  neighbour of node ``(r0, theta)`` at ``r = -dr/2`` is the node
  ``(r0, theta + pi)``.  Radial fluxes are extended through the center
  with a signed area density, which makes the paired value enter with a
  plus sign for scalars and fluxes alike and keeps the stencil second
  order at the axis.  This requires an even angular node count.

The divergence is assembled in flux form: the density ``sqrt(det sigma)
X^i`` is differenced by the same stencil as a scalar, so on a fully
periodic grid each line sums ``q[i+1] - q[i-1]`` to zero and the volume
integral of a divergence telescopes to zero up to rounding.  Integration
uses exact (fsum) accumulation in a fixed traversal order, so repeated
runs are bit-identical.

The one stencil, :func:`partial_into`, indexes shifted slices of the node
array and writes into a caller-owned array; the wrap of a periodic axis
is the two end slices, so no call copies a rolled array.
:func:`coordinate_partials`, :func:`divergence` and the prepared residual
of :mod:`pmclab.warped` all apply it, and :func:`partial_matrix` is its
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_matrix


class GridMismatchError(ValueError):
    """Raised when fields or metrics from different grids are combined."""


class ConstructionError(ValueError):
    """Raised when a grid, metric, or field violates a structural precondition."""


class ModelDomainError(ValueError):
    """Raised when a request leaves the validity region of a model geometry."""


class GridKind(str, Enum):
    torus2d = "torus2d"
    disk_polar = "disk_polar"
    torus3d_lifted = "torus3d_lifted"


_MIN_NODES_PER_AXIS = 8


@dataclass(frozen=True)
class FiberGrid:
    """Structured node layout of a fiber manifold chart.

    Parameters
    ----------
    kind:
        Grid family.  Tori use coordinates ``x1, x2 (, x3)`` with node
        ``i`` at ``i * extent / n``; disks use cell-centered radii
        ``r_i = (i + 1/2) * R / n_r`` and angles ``theta_j = j * 2pi / n_theta``.
    dims:
        Nodes per axis, each a whole number of at least 8.
    extents:
        Coordinate extent per axis.  For disks this is ``(R, 2pi)``.

    The kind fixes the boundary: tori are periodic on every axis, and a
    disk is periodic in angle with a Dirichlet outer ring (the outermost
    radial ring holds pinned data and is never an unknown).
    """

    kind: GridKind
    dims: tuple[int, ...]
    extents: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if dims != tuple(self.dims):
            raise ConstructionError(f"node counts must be whole numbers, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        expected = {GridKind.torus2d: 2, GridKind.disk_polar: 2, GridKind.torus3d_lifted: 3}
        if len(self.dims) != expected[self.kind]:
            raise ConstructionError(
                f"{self.kind.value} grid needs {expected[self.kind]} axes, got dims {self.dims}"
            )
        if len(self.extents) != len(self.dims):
            raise ConstructionError(
                f"extents {self.extents} do not match dims {self.dims}"
            )
        for n in self.dims:
            if n < _MIN_NODES_PER_AXIS:
                raise ConstructionError(
                    f"need at least {_MIN_NODES_PER_AXIS} nodes per axis, got {n}"
                )
        for e in self.extents:
            if not math.isfinite(e) or e <= 0.0:
                raise ConstructionError(f"axis extents must be positive, got {e}")
        if self.kind is GridKind.disk_polar and self.dims[1] % 2 != 0:
            raise ConstructionError(
                f"the across-center pairing needs an even angular count, got {self.dims[1]}"
            )

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dims

    @property
    def periodic_axes(self) -> tuple[bool, ...]:
        if self.kind is GridKind.disk_polar:
            return (False, True)
        return (True,) * self.ndim

    @property
    def closed(self) -> bool:
        """True when the grid has no boundary (every axis periodic)."""
        return self.kind is not GridKind.disk_polar

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extents, self.dims))

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)

    @cached_property
    def axes(self) -> tuple[NDArray[np.float64], ...]:
        out = []
        for ax, (n, d) in enumerate(zip(self.dims, self.spacings)):
            if self.kind is GridKind.disk_polar and ax == 0:
                out.append((np.arange(n) + 0.5) * d)
            else:
                out.append(np.arange(n) * d)
        for arr in out:
            arr.setflags(write=False)
        return tuple(out)

    def meshes(self) -> tuple[NDArray[np.float64], ...]:
        """Node coordinate arrays of full grid shape, one per axis."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def interior_mask(self) -> NDArray[np.bool_]:
        """True at unknown nodes; False on the pinned ring of a disk."""
        mask = np.ones(self.shape, dtype=bool)
        if self.kind is GridKind.disk_polar:
            mask[-1, :] = False
        mask.setflags(write=False)
        return mask

    def require_same(self, other: "FiberGrid", what: str) -> None:
        if self is not other and self != other:
            raise GridMismatchError(f"{what}: grids differ ({self.kind.value} {self.dims} "
                                    f"vs {other.kind.value} {other.dims})")


class ScalarField:
    """Node values of a real function on a :class:`FiberGrid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: FiberGrid, values: NDArray) -> None:
        vals = np.array(values, dtype=np.float64, order="C")
        if vals.shape != grid.shape:
            raise ConstructionError(
                f"scalar field shape {vals.shape} does not match grid {grid.shape}"
            )
        if not np.isfinite(vals).all():
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise ConstructionError(
                "scalar field contains a non-finite value at node "
                f"{tuple(int(i) for i in bad)}"
            )
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals

    @classmethod
    def constant(cls, grid: FiberGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: FiberGrid, fn: Callable[..., NDArray]) -> "ScalarField":
        return cls(grid, np.broadcast_to(np.asarray(fn(*grid.meshes()), dtype=float), grid.shape))


class VectorField:
    """Contravariant components of a vector field, last axis indexes the component."""

    __slots__ = ("grid", "components")

    def __init__(self, grid: FiberGrid, components: NDArray) -> None:
        comps = np.asarray(components, dtype=np.float64)
        if comps.shape != grid.shape + (grid.ndim,):
            raise ConstructionError(
                f"vector field shape {comps.shape} does not match grid "
                f"{grid.shape} + ({grid.ndim},)"
            )
        if not np.isfinite(comps).all():
            raise ConstructionError("vector field contains non-finite values")
        comps = comps.copy()
        comps.setflags(write=False)
        self.grid = grid
        self.components = comps


def _cofactors(mat: NDArray[np.float64]) -> tuple[dict, tuple]:
    """Cofactors ``C_ij`` (``i <= j``) and leading principal minors of symmetric 2x2 or 3x3 nodes.

    The cofactor matrix of a symmetric matrix is symmetric, so its upper
    triangle is all of it.  The last minor is the determinant, expanded
    along the first row.
    """
    def m(i, j):
        return mat[..., i, j]

    if mat.shape[-1] == 2:
        det = m(0, 0) * m(1, 1) - m(0, 1) * m(0, 1)
        return {(0, 0): m(1, 1), (0, 1): -m(0, 1), (1, 1): m(0, 0)}, (m(0, 0), det)
    c = {(0, 0): m(1, 1) * m(2, 2) - m(1, 2) * m(1, 2),
         (0, 1): m(0, 2) * m(1, 2) - m(0, 1) * m(2, 2),
         (0, 2): m(0, 1) * m(1, 2) - m(0, 2) * m(1, 1),
         (1, 1): m(0, 0) * m(2, 2) - m(0, 2) * m(0, 2),
         (1, 2): m(0, 1) * m(0, 2) - m(0, 0) * m(1, 2),
         (2, 2): m(0, 0) * m(1, 1) - m(0, 1) * m(0, 1)}
    det = m(0, 0) * c[0, 0] + m(0, 1) * c[0, 1] + m(0, 2) * c[0, 2]
    return c, (m(0, 0), c[2, 2], det)


_NORMAL_MIN = np.finfo(np.float64).tiny


def _node_failure(node: NDArray[np.float64]) -> str:
    """Why one input node matrix failed the check of :class:`MetricField`.

    Sylvester's criterion again, on the node congruent to it by a diagonal
    of powers of two that brings its diagonal entries into ``[0.5, 2)`` in
    magnitude, symmetrized after the scaling so that no sum overflows.  A
    congruence keeps the sign of every minor, so a positive definite node
    whose determinant or inverse left the float range is told apart from
    one that is not.  A positive definite node's scaled entries all lie
    below 2 in magnitude, and then no minor can be NaN.
    """
    scale = np.ldexp(1.0, [-(math.frexp(float(a))[1] // 2) for a in np.diagonal(node)])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scaled = scale[:, None] * node * scale[None, :]
        congruent = 0.5 * scaled + 0.5 * scaled.T
        if not (np.abs(congruent) < 2.0).all():
            return "is not positive definite"
        _, minors = _cofactors(congruent)
    if min(minors) > 0.0:
        return "determinant or inverse is out of floating-point range"
    return "is not positive definite"


class MetricField:
    """Node-wise symmetric positive-definite metric with cached derived data.

    ``mat[..., i, j]`` holds sigma_ij; ``inv`` is the contravariant metric
    and ``sqrt_det`` the area/volume density.  Fibers have two or three
    axes, so both come in closed form from whole-array arithmetic on the
    components: the determinant from cofactors, the inverse as the
    adjugate over it (exactly symmetric, since the adjugate of a symmetric
    matrix is).  Positive definiteness is Sylvester's criterion: every
    leading principal minor is positive.

    Every check runs on the component views ``mat[..., i, j]``, with no
    reduction over a node's ``(d, d)`` block: finiteness of the input;
    the asymmetry ``|m_ij - m_ji|``, which is measured against the node's
    largest entry only when some node is asymmetric at all; the
    symmetrization ``0.5 (m_ij + m_ji)``, whose sum may overflow for
    entries beyond half the float range; the minors; and finiteness of
    each inverse component as it is written.
    """

    __slots__ = ("grid", "mat", "sqrt_det", "inv")

    def __init__(self, grid: FiberGrid, mat: NDArray) -> None:
        d = grid.ndim
        mat = np.asarray(mat, dtype=np.float64)
        if mat.shape != grid.shape + (d, d):
            raise ConstructionError(
                f"metric shape {mat.shape} does not match grid {grid.shape} + ({d},{d})"
            )
        if not np.isfinite(mat).all():
            raise ConstructionError("metric contains non-finite values")
        # each node's asymmetry against that node's own largest entry; exactly
        # symmetric input, as every metric built here is, skips the scale
        skew = np.maximum.reduce([np.abs(mat[..., i, j] - mat[..., j, i])
                                  for i in range(d) for j in range(i + 1, d)])
        if skew.any():
            lopsided = skew > 1e-12 * (1.0 + np.abs(mat).max(axis=(-2, -1)))
            if lopsided.any():
                node = tuple(int(i) for i in np.argwhere(lopsided)[0])
                raise ConstructionError(
                    f"metric is not symmetric at node {node} (asymmetry {skew[node]:.3e})")
        # sums and products of large or small entries may leave the float
        # range; the check below names the node
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            sym = np.empty_like(mat)
            for i in range(d):
                for j in range(i, d):
                    sym[..., i, j] = sym[..., j, i] = 0.5 * (mat[..., i, j] + mat[..., j, i])
            given, mat = mat, sym
            cofactors, minors = _cofactors(mat)
            det = minors[-1]
            # a minor that overflowed to nan fails its comparison as well; a
            # subnormal det has lost its relative precision
            good = (det >= _NORMAL_MIN) & (det < np.inf)
            for minor in minors[:-1]:
                good &= minor > 0.0
            inv = np.empty_like(mat)
            for (i, j), c in cofactors.items():
                np.divide(c, det, out=inv[..., i, j])
                good &= np.isfinite(inv[..., i, j])
                inv[..., j, i] = inv[..., i, j]
        if not good.all():
            node = tuple(int(i) for i in np.argwhere(~good)[0])
            raise ConstructionError(f"metric {_node_failure(given[node])} at node {node}")
        sqrt_det = np.sqrt(det)
        for arr in (mat, sqrt_det, inv):
            arr.setflags(write=False)
        self.grid = grid
        self.mat = mat
        self.sqrt_det = sqrt_det
        self.inv = inv


def _flat_metric(grid: FiberGrid) -> MetricField:
    """The flat chart metric: the identity on tori, ``d rho^2 + rho^2 d theta^2`` on disks."""
    mat = np.zeros(grid.shape + (grid.ndim, grid.ndim))
    for i in range(grid.ndim):
        mat[..., i, i] = 1.0
    if grid.kind is GridKind.disk_polar:
        # past the square root of the float range rho^2 overflows; MetricField names the node
        with np.errstate(over="ignore"):
            mat[..., 1, 1] = grid.meshes()[0] ** 2
    return MetricField(grid, mat)


def _require_positive(factor: ScalarField) -> None:
    if factor.values.min() <= 0.0:
        bad = np.argwhere(factor.values <= 0.0)[0]
        raise ConstructionError(
            f"conformal factor must stay positive, offending node {tuple(int(i) for i in bad)}"
        )


def conformal_scale(metric: MetricField, factor: ScalarField) -> MetricField:
    """Scale a metric node-wise by a positive conformal factor."""
    metric.grid.require_same(factor.grid, "conformal_scale")
    _require_positive(factor)
    return MetricField(metric.grid, factor.values[..., None, None] * metric.mat)


def build_torus(dims, extents=None) -> tuple[FiberGrid, MetricField]:
    """Build a periodic torus grid with its flat metric.

    Parameters
    ----------
    dims:
        Two or three node counts; three axes produce the lifted 3-D kind.
    extents:
        Axis lengths, default ``2 pi`` each.

    A conformally flat torus is ``conformal_scale`` of the returned metric.
    """
    dims = tuple(dims)
    if len(dims) not in (2, 3):
        raise ConstructionError(f"torus grids have 2 or 3 axes, got {len(dims)}")
    kind = GridKind.torus2d if len(dims) == 2 else GridKind.torus3d_lifted
    if extents is None:
        extents = (2.0 * math.pi,) * len(dims)
    grid = FiberGrid(kind, dims, tuple(extents))
    return grid, _flat_metric(grid)


def build_polar_disk(n_r: int, n_theta: int, radius: float) -> tuple[FiberGrid, MetricField]:
    """Build a polar disk grid with cell-centered radii, a pinned outer ring and its flat metric."""
    grid = FiberGrid(GridKind.disk_polar, (n_r, n_theta), (float(radius), 2.0 * math.pi))
    return grid, _flat_metric(grid)


def build_hyperbolic_disk(n_r: int, n_theta: int, radius: float) -> tuple[FiberGrid, MetricField]:
    """Build a disk carrying the curvature -1 ball-model metric.

    The flat disk metric scaled by :func:`hyperbolic_conformal_factor`,
    so the model is only valid for ``radius < 1``.
    """
    if not (0.0 < radius < 1.0):
        raise ModelDomainError(
            f"the hyperbolic ball model needs an outer radius in (0, 1), got {radius}"
        )
    grid, flat = build_polar_disk(n_r, n_theta, radius)
    return grid, conformal_scale(flat, hyperbolic_conformal_factor(grid))


def hyperbolic_conformal_factor(grid: FiberGrid) -> ScalarField:
    """Node values of the conformal factor of the curvature -1 ball model."""
    if grid.kind is not GridKind.disk_polar:
        raise GridMismatchError("the ball-model factor lives on disk grids")
    rho = grid.meshes()[0]
    return ScalarField(grid, 4.0 / (1.0 - rho**2) ** 2)


# --------------------------------------------------------------------------
# the difference stencil


def partial_into(values: NDArray[np.float64], grid: FiberGrid, axis: int,
                 out: NDArray[np.float64]) -> NDArray[np.float64]:
    """Second-order derivative of node values along one axis, written into ``out``.

    Works for scalars and for radial flux densities alike: with the signed
    extension of the area density through the disk center, both continue
    across the axis onto the ring ``theta + pi`` with a plus sign.
    """
    if grid.periodic_axes[axis]:
        pre = (slice(None),) * axis
        np.subtract(values[(*pre, slice(2, None))], values[(*pre, slice(None, -2))],
                    out=out[(*pre, slice(1, -1))])
        np.subtract(values[(*pre, 1)], values[(*pre, -1)], out=out[(*pre, 0)])
        np.subtract(values[(*pre, 0)], values[(*pre, -2)], out=out[(*pre, -1)])
    else:
        # disk radial axis; the ring theta + pi lies half a turn away
        half = grid.dims[1] // 2
        np.subtract(values[2:], values[:-2], out=out[1:-1])
        np.subtract(values[1, :half], values[0, half:], out=out[0, :half])
        np.subtract(values[1, half:], values[0, :half], out=out[0, half:])
        out[-1] = 3.0 * values[-1] - 4.0 * values[-2] + values[-3]
    return np.divide(out, 2.0 * grid.spacings[axis], out=out)


def partial_matrix(grid: FiberGrid, axis: int) -> csr_matrix:
    """:func:`partial_into` along one axis as a sparse matrix on flat node indices.

    :func:`flux_divergence` differences each flux density by the same
    stencil (across-center pair and one-sided rim included), so this
    matrix is the linear part of both the gradient and the divergence.
    """
    node = np.arange(math.prod(grid.shape)).reshape(grid.shape)
    plus, minus = np.roll(node, -1, axis), np.roll(node, 1, axis)
    rows, cols, vals = [node, node], [plus, minus], [1.0, -1.0]
    if not grid.periodic_axes[axis]:
        # disk radial axis: below the innermost ring lies the ring theta + pi,
        # and the rim ring closes one-sided
        minus[0] = np.roll(node[0], grid.dims[1] // 2)
        rows, cols = [r[:-1] for r in rows], [c[:-1] for c in cols]
        rows += [node[-1]] * 3
        cols += [node[-1], node[-2], node[-3]]
        vals += [3.0, -4.0, 1.0]
    data = np.concatenate([np.full(r.size, v) for r, v in zip(rows, vals)])
    return csr_matrix((data / (2.0 * grid.spacings[axis]),
                       (np.concatenate([r.ravel() for r in rows]),
                        np.concatenate([c.ravel() for c in cols]))), shape=(node.size,) * 2)


def flux_divergence(q, grid: FiberGrid, sqrt_det: NDArray[np.float64]) -> NDArray[np.float64]:
    """``(1/sqrt(det)) sum_i d_i q_i`` for flux densities ``q_i = sqrt(det) X^i``, one per axis."""
    # summing from zero leaves no -0.0 in the sum, whatever the signs of
    # zero in q; the residual kernel relies on that to match bit for bit
    acc = np.zeros(grid.shape)
    der = np.empty(grid.shape)
    for axis, qi in enumerate(q):
        acc += partial_into(qi, grid, axis, der)
    return np.divide(acc, sqrt_det, out=acc)


def coordinate_partials(f: ScalarField) -> NDArray[np.float64]:
    """Covariant components ``d_i f`` as an array of shape ``grid.shape + (d,)``."""
    grid = f.grid
    out = np.empty(grid.shape + (grid.ndim,))
    for axis in range(grid.ndim):
        partial_into(f.values, grid, axis, out[..., axis])
    return out


def gradient(f: ScalarField, metric: MetricField) -> VectorField:
    """Contravariant gradient ``sigma^{ij} d_j f``."""
    metric.grid.require_same(f.grid, "gradient")
    partials = coordinate_partials(f)
    comps = np.einsum("...ij,...j->...i", metric.inv, partials)
    return VectorField(f.grid, comps)


def divergence(X: VectorField, metric: MetricField) -> ScalarField:
    """Flux-form divergence ``(1/sqrt(det)) d_i (sqrt(det) X^i)``.

    Each node density is differenced by the centered stencil of
    :func:`partial_into`, so summing ``divergence * sqrt(det) * cell`` over
    a closed grid telescopes to zero up to rounding.
    """
    grid = metric.grid
    grid.require_same(X.grid, "divergence")
    q = metric.sqrt_det[..., None] * X.components
    return ScalarField(grid, flux_divergence([q[..., axis] for axis in range(grid.ndim)],
                                             grid, metric.sqrt_det))


def laplace_beltrami(f: ScalarField, metric: MetricField) -> ScalarField:
    """Composition of :func:`divergence` with :func:`gradient`."""
    return divergence(gradient(f, metric), metric)


def inner(X: VectorField, Y: VectorField, metric: MetricField) -> ScalarField:
    """Node-wise pairing ``sigma_ij X^i Y^j``."""
    metric.grid.require_same(X.grid, "inner")
    metric.grid.require_same(Y.grid, "inner")
    vals = np.einsum("...ij,...i,...j->...", metric.mat, X.components, Y.components)
    return ScalarField(metric.grid, vals)


def norm_sq(X: VectorField, metric: MetricField) -> ScalarField:
    """Node-wise squared length; clamped at zero against rounding."""
    vals = inner(X, X, metric).values
    return ScalarField(metric.grid, np.maximum(vals, 0.0))


def _exact_sum(values: list[float]) -> float:
    """The sum of ``values`` rounded once, where ``math.fsum`` raises instead.

    ``fsum`` raises when a partial sum leaves the float range, even if the
    exact sum does not, and when opposite infinities meet (the sum is nan
    here).  Every finite float is a whole multiple of ``2**-1074``, so the
    exact sum is an integer count of that unit; one beyond the float range
    reads as the infinity of its sign.
    """
    specials = [x for x in values if not math.isfinite(x)]
    if specials:
        return sum(specials)
    unit = 1 << 1074
    count = sum(n * (unit // d) for n, d in map(float.as_integer_ratio, values))
    try:
        return count / unit  # correctly rounded
    except OverflowError:
        return math.inf if count > 0 else -math.inf


def integrate(f: ScalarField, metric: MetricField) -> float:
    """Volume integral with density ``sqrt(det sigma)``, exact-accumulation order.

    The weighted values are summed exactly and rounded once (see
    :func:`_exact_sum`), so the integral never raises.
    """
    metric.grid.require_same(f.grid, "integrate")
    with np.errstate(over="ignore"):  # an overflowed product is an infinity to sum
        weighted = (f.values * metric.sqrt_det).ravel().tolist()
    try:
        total = math.fsum(weighted)
    except (OverflowError, ValueError):
        total = _exact_sum(weighted)
    return total * metric.grid.cell_volume


def volume(metric: MetricField) -> float:
    return integrate(ScalarField.constant(metric.grid, 1.0), metric)


def circle_lift_laplacian(f: ScalarField, metric: MetricField, factor: ScalarField) -> ScalarField:
    """Laplace-Beltrami of the circle-invariant lift of ``f`` in ``factor (sigma + d theta^2)``.

    The lift has no circle partials or mixed entries, so on the 2-D torus it is the flux
    ``sqrt(factor) sqrt(det sigma) grad f`` differenced over ``factor^(3/2) sqrt(det sigma)``.
    """
    grid = metric.grid
    if grid.kind is not GridKind.torus2d:
        raise GridMismatchError("only 2-D torus fibers can be crossed with a circle")
    grid.require_same(factor.grid, "circle_lift_laplacian")
    _require_positive(factor)
    w = np.sqrt(factor.values) * metric.sqrt_det
    g = gradient(f, metric).components
    return ScalarField(grid, flux_divergence([w * g[..., 0], w * g[..., 1]], grid, factor.values * w))


def coarse_dims(grid: FiberGrid) -> tuple[int, ...] | None:
    """Dims of ``grid`` with every axis halved, or None when it does not halve.

    Every axis must be even and keep at least 8 nodes; a disk's halved
    angular count must stay even for the across-center pairing.
    """
    half = tuple(n // 2 for n in grid.dims)
    if any(n % 2 for n in grid.dims) or min(half) < _MIN_NODES_PER_AXIS:
        return None
    if grid.kind is GridKind.disk_polar and half[1] % 2:
        return None
    return half


def prolong(coarse: ScalarField, grid: FiberGrid) -> ScalarField:
    """Interpolate a field onto ``grid``, which is twice as fine on every axis.

    A periodic axis keeps the nested nodes and takes the mean of the two
    neighbours at each midpoint.  The cell-centered rings of a disk lie a
    quarter of a coarse spacing from the nearer coarse ring, so each fine
    ring takes 3/4 of the nearer ring and 1/4 of the farther one.  Below
    the innermost ring lies the ring ``theta + pi``, as in
    :func:`partial_into`; beyond the rim the coarse rings are extended
    linearly, so the caller resets the rim to its own data.  Constants come
    out exactly, the nested nodes of a torus bit for bit, and a field
    linear in the radius along each nested angle of a disk to rounding.
    """
    c = coarse.grid
    if (c.kind is not grid.kind or c.extents != grid.extents
            or tuple(2 * n for n in c.dims) != grid.dims):
        raise GridMismatchError(f"prolong: {grid.kind.value} {grid.dims} does not halve "
                                f"to {c.kind.value} {c.dims}")
    vals = coarse.values
    for axis, periodic in enumerate(grid.periodic_axes):
        # near + w (far - near) keeps a constant exact
        if periodic:
            even = vals
            odd = vals + 0.5 * (np.roll(vals, -1, axis) - vals)
        else:
            # disk radial axis: the ghost below ring 0 is ring 0 half a turn away
            below = np.concatenate([np.roll(vals[:1], vals.shape[1] // 2, axis=1), vals[:-1]])
            above = np.concatenate([vals[1:], vals[-1:] + (vals[-1:] - vals[-2:-1])])
            even = vals + 0.25 * (below - vals)
            odd = vals + 0.25 * (above - vals)
        # interleave along the axis: even, odd, even, odd, ...
        vals = np.stack([even, odd], axis=axis + 1).reshape(
            vals.shape[:axis] + (2 * vals.shape[axis],) + vals.shape[axis + 1:])
    return ScalarField(grid, vals)


def dump_field_csv(f: ScalarField, path) -> None:
    """Write one row per node: indices, chart coordinates, value.

    Columns are ``i,j[,k],x1,x2[,x3],value``; the coordinate columns carry
    the grid's native chart (radius and angle on disks).  Values use
    shortest round-trip decimal formatting.  A node's coordinates are its
    axes' entries, so each axis's index cells (``str``) and coordinate
    cells (``repr``) are formatted once, and only the value per node.
    """
    grid = f.grid
    idx_names = ["i", "j", "k"][: grid.ndim]
    coord_names = ["x1", "x2", "x3"][: grid.ndim]
    index = [[f"{n}," for n in range(size)] for size in grid.shape]
    coord = [[f"{x!r}," for x in axis.tolist()] for axis in grid.axes]
    # the cells of the axes after the first, in the node order of np.ndindex
    rest = list(zip(map("".join, product(*index[1:])), map("".join, product(*coord[1:]))))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(idx_names + coord_names + ["value"]) + "\n")
        # one slab along the first axis at a time keeps few strings alive
        for i, (lead, x) in enumerate(zip(index[0], coord[0])):
            fh.write("".join([f"{lead}{j}{x}{y}{v!r}\n"
                              for (j, y), v in zip(rest, f.values[i].ravel().tolist())]))
