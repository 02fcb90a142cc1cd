"""Graphs over a warped-product fiber and their curvature diagnostics.

A product ``P x_h R`` pairs a closed or Dirichlet fiber ``(P, sigma)``
with a positive warping ``h`` on ``P``; the product metric is
``sigma + h^2 dr^2``.  A graph is the slice ``r = u`` of a height function
``u`` on ``P``.  Everything here reduces to fiber calculus:

* tilt factor ``W = sqrt(1 + h^2 |grad u|^2)``,
* prescribed-curvature residual
  ``div(h grad u / W) + sigma(grad h, grad u)/W - n H``,
* downward unit normal split into fiber part ``-(h/W) grad u`` and
  vertical component ``1/(h W)``; the angle function is ``h/W``,
* induced graph metric ``sigma + h^2 du (x) du`` (a rank-one update),
* the vertical Ricci curvature ``-h Lap h`` of the product,
* the closed-fiber compatibility integral whose non-vanishing certifies
  that no exact graph with the requested curvature exists.

Identity checks (height-function identity, conformally scaled Laplacian,
superharmonicity of a solved height) are exposed as residual fields so
their convergence under refinement can be measured.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    ConstructionError,
    FiberGrid,
    GridKind,
    GridMismatchError,
    MetricField,
    ScalarField,
    VectorField,
    conformal_scale,
    coordinate_partials,
    divergence,  # noqa: F401 -- a layer the benchmark tracer wraps under this module
    flux_divergence,
    integrate,
    laplace_beltrami,
    lift_to_circle,
    partial_into,
    volume,
)


# Nodes on the circle by which the identity checks lift a 2-D torus to
# dimension 3.
_LIFT_CIRCLE_NODES = 16


class PreconditionError(ValueError):
    """Raised when a check is invoked on a state outside its contract."""


class WarpedProduct:
    """A fiber grid, its metric, and a positive warping function."""

    __slots__ = ("fiber", "metric", "warping", "h_inf", "h_sup")

    def __init__(self, fiber: FiberGrid, metric: MetricField, warping: ScalarField) -> None:
        metric.grid.require_same(fiber, "warped product")
        fiber.require_same(warping.grid, "warped product")
        h = warping.values
        if h.min() <= 0.0:
            bad = np.argwhere(h <= 0.0)[0]
            raise ConstructionError(
                f"warping must stay positive, offending node {tuple(int(i) for i in bad)}"
            )
        self.fiber = fiber
        self.metric = metric
        self.warping = warping
        self.h_inf = float(h.min())
        self.h_sup = float(h.max())

    @property
    def dimension(self) -> int:
        """Fiber dimension, the ``n`` in the prescribed-curvature equation."""
        return self.fiber.ndim

    @property
    def warping_is_constant(self) -> bool:
        return (self.h_sup - self.h_inf) <= 1e-12 * self.h_sup


def _contract(a, b):
    """``sum_i a_i b_i`` over lists of node arrays (two or three), summed as ``np.einsum`` sums.

    einsum adds the even-index products and the odd-index products
    separately and then the two sums; keeping that order keeps every
    value bit-identical to the einsum forms this replaces.
    """
    sums = [a[0] * b[0], a[1] * b[1]]
    for i in range(2, len(a)):
        sums[i % 2] += a[i] * b[i]
    return sums[0] + sums[1]


class ResidualKernel:
    """The prescribed-curvature residual of one warped product, prepared once.

    Holds ``h``, ``h^2``, the warping partials per axis and the inverse
    metric as one contiguous array per component, so that each evaluation
    is a fixed sequence of whole-array operations on the shared stencils
    of :mod:`pmclab.geometry`.  A solve builds one and evaluates it many
    times; it is not stored on the :class:`WarpedProduct`.
    """

    __slots__ = ("fiber", "dimension", "h", "h2", "dh", "inv", "sqrt_det")

    def __init__(self, wp: WarpedProduct) -> None:
        d = wp.dimension
        self.fiber = wp.fiber
        self.dimension = d
        self.h = wp.warping.values
        self.h2 = self.h**2
        dh = coordinate_partials(wp.warping)
        # a constant warping has partials exactly zero, hence no drift term
        self.dh = [np.ascontiguousarray(dh[..., i]) for i in range(d)] if dh.any() else None
        inv = wp.metric.inv
        self.inv = [[np.ascontiguousarray(inv[..., i, j]) for j in range(d)] for i in range(d)]
        self.sqrt_det = wp.metric.sqrt_det

    def tilt(self, u: np.ndarray):
        """Partials ``d_i u``, gradient ``sigma^{ij} d_j u`` (lists per axis), |grad u|^2 and W."""
        grid = self.fiber
        du = [partial_into(u, grid, axis, np.empty(grid.shape)) for axis in range(grid.ndim)]
        gu = [_contract(row, du) for row in self.inv]
        grad_sq = np.maximum(_contract(du, gu), 0.0)
        W = np.sqrt(1.0 + self.h2 * grad_sq)
        return du, gu, grad_sq, W

    def drift(self, gu, W) -> np.ndarray:
        """The drift term ``sigma(grad h, grad u) / W``."""
        if self.dh is None:
            return np.zeros(self.fiber.shape)
        return _contract(self.dh, gu) / W

    def residual(self, u: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual node values and ``|grad u|^2`` for height and target node values."""
        _, gu, grad_sq, W = self.tilt(u)
        hw = self.h / W
        flux = [self.sqrt_det * (hw * g) for g in gu]
        out = flux_divergence(flux, self.fiber, self.sqrt_det)
        if self.dh is not None:
            out += self.drift(gu, W)
        out -= self.dimension * target
        return out, grad_sq


def _tilt_pieces(wp: WarpedProduct, u: ScalarField):
    """Partials, contravariant gradient (each stacked on a last axis), |grad u|^2 and W."""
    wp.fiber.require_same(u.grid, "graph height")
    du, gu, grad_sq, W = ResidualKernel(wp).tilt(u.values)
    return np.stack(du, axis=-1), np.stack(gu, axis=-1), grad_sq, W


def mean_curvature_residual(wp: WarpedProduct | ResidualKernel, u: ScalarField,
                            target_curvature: ScalarField) -> ScalarField:
    """Residual of the prescribed-mean-curvature equation at every node.

    Zero (on the unknowns) means the graph of ``u`` has mean curvature
    ``target_curvature`` with respect to the downward normal.  Constant
    shifts of ``u`` leave the residual unchanged; on a disk the pinned
    ring is evaluated too but is never an unknown.  Pass the product's
    :class:`ResidualKernel` in place of ``wp`` to evaluate it repeatedly.
    """
    kernel = wp if isinstance(wp, ResidualKernel) else ResidualKernel(wp)
    kernel.fiber.require_same(u.grid, "graph height")
    kernel.fiber.require_same(target_curvature.grid, "target curvature")
    return ScalarField._borrow(kernel.fiber, kernel.residual(u.values, target_curvature.values)[0])


class GraphState:
    """A height function together with its derived graph quantities."""

    __slots__ = ("warped", "height", "residual", "target", "grad_sup")

    def __init__(self, warped: WarpedProduct, height: ScalarField,
                 target: ScalarField) -> None:
        warped.fiber.require_same(height.grid, "graph height")
        warped.fiber.require_same(target.grid, "target curvature")
        values, grad_sq = ResidualKernel(warped).residual(height.values, target.values)
        self.warped = warped
        self.height = height
        self.target = target
        self.residual = ScalarField(warped.fiber, values)
        self.grad_sup = float(np.sqrt(grad_sq.max()))

    def interior_residual_sup(self) -> float:
        mask = self.warped.fiber.interior_mask
        return float(np.abs(self.residual.values[mask]).max())


def unit_normal(wp: WarpedProduct, u: ScalarField
                ) -> tuple[VectorField, ScalarField, ScalarField]:
    """Downward unit normal of the graph.

    Returns the fiber part ``-(h/W) grad u`` (contravariant), the vertical
    component ``1/(h W)``, and the angle function ``h/W``.  The product
    metric makes these unit length: ``sigma(fp, fp) + h^2 vc^2 = 1``.
    """
    du, gu, grad_sq, W = _tilt_pieces(wp, u)
    h = wp.warping.values
    fiber_part = VectorField(wp.fiber, (-h / W)[..., None] * gu)
    vertical = ScalarField(wp.fiber, 1.0 / (h * W))
    angle = ScalarField(wp.fiber, h / W)
    return fiber_part, vertical, angle


def induced_metric(wp: WarpedProduct, u: ScalarField) -> MetricField:
    """Graph metric ``sigma_ij + h^2 (d_i u)(d_j u)`` on the fiber chart."""
    du, _, _, _ = _tilt_pieces(wp, u)
    h2 = wp.warping.values**2
    mat = wp.metric.mat + h2[..., None, None] * (du[..., :, None] * du[..., None, :])
    return MetricField(wp.fiber, mat)


def quasi_isometry_constants(wp: WarpedProduct, u: ScalarField) -> tuple[float, float]:
    """Global eigenvalue range of the graph metric measured against sigma.

    Solved by a batched Cholesky reduction to an ordinary symmetric
    eigenproblem, not by the closed-form rank-one spectrum, so the pinch
    ``1 <= lambda <= 1 + sup(h |grad u|)^2`` is an independent cross-check.
    """
    prime = induced_metric(wp, u)
    L = np.linalg.cholesky(wp.metric.mat)
    T = np.linalg.solve(L, prime.mat)
    A = np.linalg.solve(L, np.swapaxes(T, -1, -2))
    eigs = np.linalg.eigvalsh(A)
    return float(eigs.min()), float(eigs.max())


def check_conformal_laplacian(metric: MetricField, factor: ScalarField,
                              f: ScalarField) -> ScalarField:
    """Residual of the conformal-change rule for the Laplace-Beltrami operator.

    For a metric scaled by ``phi`` in dimension ``d >= 3`` the scaled
    Laplacian of ``f`` equals
    ``(Lap f + ((d-2)/2) sigma(grad f, grad ln phi)) / phi``.  The returned
    field is the difference of the two discretizations; it shrinks at
    second order for smooth data.
    """
    grid = metric.grid
    if grid.ndim < 3:
        raise PreconditionError(
            "the conformal-change rule is dimension sensitive; lift a 2-D fiber "
            "to its circle cross product first (dimension must be >= 3)"
        )
    grid.require_same(factor.grid, "check_conformal_laplacian")
    grid.require_same(f.grid, "check_conformal_laplacian")
    scaled = conformal_scale(metric, factor)
    lhs = laplace_beltrami(f, scaled).values
    log_factor = ScalarField(grid, np.log(factor.values))
    df = coordinate_partials(f)
    dlog = coordinate_partials(log_factor)
    cross = np.einsum("...ij,...i,...j->...", metric.inv, df, dlog)
    d = grid.ndim
    rhs = (laplace_beltrami(f, metric).values + 0.5 * (d - 2) * cross) / factor.values
    return ScalarField(grid, lhs - rhs)


def _require_solved(wp: WarpedProduct, u: ScalarField, target: ScalarField,
                    tol_solve: float, what: str) -> None:
    state = GraphState(wp, u, target)
    sup = state.interior_residual_sup()
    if sup > tol_solve:
        raise PreconditionError(
            f"{what} expects a solved height: residual sup {sup:.3e} exceeds "
            f"tol_solve {tol_solve:.3e}"
        )


def check_height_identity(wp: WarpedProduct, u: ScalarField, target_curvature: ScalarField,
                          tol_solve: float = 1e-8) -> ScalarField:
    """Residual of the solved-graph height identity.

    On a graph with mean curvature ``H`` the height satisfies, in the
    induced metric, ``Lap u + 2 <grad u, grad ln h> = n H / (h W)``.  The
    caller must hand in an approximately solved height (interior residual
    below ``tol_solve``); the returned field converges to zero at second
    order as the grid refines.
    """
    _require_solved(wp, u, target_curvature, tol_solve, "height identity")
    prime = induced_metric(wp, u)
    log_h = ScalarField(wp.fiber, np.log(wp.warping.values))
    du = coordinate_partials(u)
    dlog = coordinate_partials(log_h)
    cross = np.einsum("...ij,...i,...j->...", prime.inv, du, dlog)
    lap = laplace_beltrami(u, prime).values
    _, _, _, W = _tilt_pieces(wp, u)
    # vertical component of the unit normal, NOT the angle function h/W:
    # the h^2 from g(d_r, d_r) cancels against the 1/h^2 in grad tau.
    vertical = 1.0 / (wp.warping.values * W)
    n = wp.dimension
    vals = lap + 2.0 * cross - n * target_curvature.values * vertical
    return ScalarField(wp.fiber, vals)


def check_superharmonic(wp: WarpedProduct, u: ScalarField, target_curvature: ScalarField,
                        tol_solve: float = 1e-8) -> float:
    """Largest value of the conformally scaled graph Laplacian of the height.

    For a solved graph with ``target_curvature <= 0`` the height is
    superharmonic in the induced metric scaled by ``h^4`` (after crossing
    with a circle to reach dimension 3), so the returned maximum should
    not exceed the discretization tolerance.

    Torus fibers are lifted with ``_LIFT_CIRCLE_NODES`` nodes on the circle.
    Dirichlet fibers are handled in two dimensions and therefore require a
    constant warping, for which the conformal factor is a harmless global
    constant; the maximum is then taken over interior nodes only.
    """
    if np.any(target_curvature.values > 0.0):
        bad = np.argwhere(target_curvature.values > 0.0)[0]
        raise PreconditionError(
            "superharmonicity of the height needs target curvature <= 0; "
            f"positive value at node {tuple(int(i) for i in bad)}"
        )
    _require_solved(wp, u, target_curvature, tol_solve, "superharmonic check")
    prime = induced_metric(wp, u)
    if wp.fiber.kind is GridKind.torus2d:
        grid3, prime3, lift = lift_to_circle(wp.fiber, prime, _LIFT_CIRCLE_NODES)
        h3 = lift(wp.warping)
        factor = ScalarField(grid3, h3.values**4)
        scaled = conformal_scale(prime3, factor)
        lap = laplace_beltrami(lift(u), scaled).values
        return float(lap.max())
    if wp.fiber.kind is GridKind.disk_polar:
        if not wp.warping_is_constant:
            raise PreconditionError(
                "on a Dirichlet fiber the check stays two-dimensional and "
                "needs a constant warping (no circle lift for disks)"
            )
        factor = ScalarField(wp.fiber, np.full(wp.fiber.shape, wp.h_sup**4))
        scaled = conformal_scale(prime, factor)
        lap = laplace_beltrami(u, scaled).values
        return float(lap[wp.fiber.interior_mask].max())
    raise PreconditionError(
        f"superharmonic check supports 2-D fibers, got {wp.fiber.kind.value}"
    )


def radial_ricci(wp: WarpedProduct) -> ScalarField:
    """Vertical Ricci curvature ``Ric(d_r, d_r) = -h Lap_sigma h`` of the product.

    A non-constant warping on a closed fiber forces this to take negative
    values somewhere, since ``Lap h`` integrates to zero.
    """
    lap_h = laplace_beltrami(wp.warping, wp.metric).values
    return ScalarField(wp.fiber, -wp.warping.values * lap_h)


def compatibility_integral(wp: WarpedProduct, u: ScalarField,
                           target_curvature: ScalarField) -> float:
    """Closed-fiber integral of ``sigma(grad h, grad u)/W - n H``.

    Exact graphs with curvature ``H`` make this vanish (the divergence
    part integrates away), so a value bounded from zero is a
    non-existence witness.  With constant warping the drift term is
    identically zero and the witness reduces to ``-n * integral(H)`` for
    any height.
    """
    if not wp.fiber.closed:
        raise GridMismatchError(
            "the compatibility witness integrates over a closed fiber; "
            "Dirichlet disks have boundary flux instead"
        )
    wp.fiber.require_same(u.grid, "graph height")
    wp.fiber.require_same(target_curvature.grid, "target curvature")
    kernel = ResidualKernel(wp)
    _, gu, _, W = kernel.tilt(u.values)
    n = wp.dimension
    field = ScalarField(wp.fiber, kernel.drift(gu, W) - n * target_curvature.values)
    return integrate(field, wp.metric)


def obstruction_witness(wp: WarpedProduct, target_curvature: ScalarField) -> float | None:
    """Pre-iteration non-existence witness for constant warping on a closed fiber.

    Returns ``-n * integral(H)`` when the fiber is closed and the warping
    constant (the drift term then vanishes for every height), else None.
    """
    if not wp.fiber.closed or not wp.warping_is_constant:
        return None
    n = wp.dimension
    return -n * integrate(target_curvature, wp.metric)


def obstruction_threshold(wp: WarpedProduct) -> float:
    """Scale below which a compatibility witness is treated as zero."""
    return 1e-9 * max(1.0, wp.dimension * volume(wp.metric))
