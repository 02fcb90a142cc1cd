"""Graphs over a warped-product fiber and their curvature diagnostics.

A product ``P x_h R`` pairs a closed or Dirichlet fiber ``(P, sigma)``
with a positive warping ``h`` on ``P``; the product metric is
``sigma + h^2 dr^2``.  A graph is the slice ``r = u`` of a height function
``u`` on ``P``.  Everything here reduces to fiber calculus:

* tilt factor ``W = sqrt(1 + h^2 |grad u|^2)``,
* prescribed-curvature residual
  ``div(h grad u / W) + sigma(grad h, grad u)/W - n H``, which every
  driver and check evaluates by :meth:`WarpedProduct.residual`,
* downward unit normal split into fiber part ``-(h/W) grad u`` and
  vertical component ``1/(h W)``; the angle function is ``h/W``,
* induced graph metric ``sigma + h^2 du (x) du`` (a rank-one update),
* the vertical Ricci curvature ``-h Lap h`` of the product,
* the closed-fiber compatibility integral whose non-vanishing certifies
  that no exact graph with the requested curvature exists.

Identity checks (height-function identity, conformally scaled Laplacian,
superharmonicity of a solved height) are exposed as residual fields so
their convergence under refinement can be measured.  A check that does
not run on every product and target states its conditions once, in a
``require_*`` guard that raises :class:`PreconditionError`; the check
calls it first, and config parsing calls it before any solve.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    ConstructionError,
    FiberGrid,
    GridKind,
    MetricField,
    ScalarField,
    VectorField,
    circle_lift_laplacian,
    conformal_scale,
    coordinate_partials,
    divergence,  # noqa: F401 -- a layer the benchmark tracer wraps under this module
    flux_divergence,
    integrate,
    laplace_beltrami,
    partial_into,
    volume,
)


class PreconditionError(ValueError):
    """Raised when a check is invoked on a state outside its contract."""


class WarpedProduct:
    """A fiber grid, its metric and a positive warping, prepared once for the residual.

    The constructor keeps what every :meth:`residual` reads: ``h``,
    ``h2``, the warping partials ``dh`` (one array per axis) and the
    inverse metric ``inv`` as strided views ``metric.inv[..., i, j]``.
    ``dh is None`` when the partials are exactly zero, so skipping the
    drift term is bit-identical; that is not :attr:`warping_is_constant`,
    the relative 1e-12 test that the compatibility witness, the Ricci
    check and the superharmonic guard read.
    """

    __slots__ = ("fiber", "metric", "warping", "h_inf", "h_sup", "h", "h2", "dh", "inv",
                 "sqrt_det")

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
        d = fiber.ndim
        self.h = h
        # a huge warping squares to inf, which a solve reports as diverged
        with np.errstate(over="ignore"):
            self.h2 = h**2
        dh = coordinate_partials(warping)
        self.dh = [np.ascontiguousarray(dh[..., i]) for i in range(d)] if dh.any() else None
        self.inv = [[metric.inv[..., i, j] for j in range(d)] for i in range(d)]
        self.sqrt_det = metric.sqrt_det

    @property
    def dimension(self) -> int:
        """Fiber dimension, the ``n`` in the prescribed-curvature equation."""
        return self.fiber.ndim

    @property
    def warping_is_constant(self) -> bool:
        return (self.h_sup - self.h_inf) <= 1e-12 * self.h_sup

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

    def residual(self, u: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Residual node values for height and target node values, and the tilt of :meth:`tilt`.

        Where ``W`` overflows, ``h/W`` flattens the flux to zero; those
        nodes read NaN instead, so that no caller takes them for solved.
        """
        tilt = self.tilt(u)
        _, gu, _, W = tilt
        hw = self.h / W
        flux = [self.sqrt_det * (hw * g) for g in gu]
        out = flux_divergence(flux, self.fiber, self.sqrt_det)
        if self.dh is not None:
            out += self.drift(gu, W)
        out -= self.dimension * target
        if not np.isfinite(W.max()):
            out[~np.isfinite(W)] = np.nan
        return out, tilt


def require_conformal_laplacian(fiber: FiberGrid) -> None:
    """Raise :class:`PreconditionError` on a fiber that :func:`check_conformal_laplacian` refuses.

    The rule needs dimension ``>= 3``; a 2-D torus reaches it by a circle
    lift, which a disk fiber does not have.
    """
    if fiber.kind is GridKind.disk_polar:
        raise PreconditionError("the conformal-change rule needs dimension >= 3, which a 2-D "
                                "fiber reaches by a circle lift, so it needs a torus fiber: "
                                "a disk fiber has no circle lift")


def require_compatibility(fiber: FiberGrid) -> None:
    """Raise :class:`PreconditionError` on a fiber that :func:`compatibility_integral` refuses."""
    if not fiber.closed:
        raise PreconditionError("the compatibility witness integrates over a closed fiber; "
                                "Dirichlet disks have boundary flux instead")


def require_superharmonic(wp: WarpedProduct, target: ScalarField) -> None:
    """Raise :class:`PreconditionError` on data that :func:`check_superharmonic` refuses.

    The height is superharmonic for target curvature ``<= 0`` on the circle
    lift of a 2-D fiber.  A disk has no circle lift, so there the check
    stays two-dimensional and needs a constant warping.
    """
    fiber = wp.fiber
    if fiber.ndim != 2:
        raise PreconditionError("the superharmonic check lifts a 2-D fiber by a circle, "
                                f"got {fiber.kind.value}")
    if np.any(target.values > 0.0):
        bad = np.argwhere(target.values > 0.0)[0]
        raise PreconditionError("superharmonicity of the height needs H_target <= 0 at every "
                                f"node; positive value at node {tuple(int(i) for i in bad)}")
    if fiber.kind is GridKind.disk_polar and not wp.warping_is_constant:
        raise PreconditionError("on a disk the superharmonic check stays two-dimensional and "
                                "needs constant warping (no circle lift for disks)")


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


def mean_curvature_residual(wp: WarpedProduct, u: ScalarField,
                            target_curvature: ScalarField) -> ScalarField:
    """Residual of the prescribed-mean-curvature equation at every node.

    Zero (on the unknowns) means the graph of ``u`` has mean curvature
    ``target_curvature`` with respect to the downward normal.  Constant
    shifts of ``u`` leave the residual unchanged; on a disk the pinned
    ring is evaluated too but is never an unknown.  The grids are checked
    here, then :meth:`WarpedProduct.residual` evaluates on the arrays the
    product prepared once.
    """
    wp.fiber.require_same(u.grid, "graph height")
    wp.fiber.require_same(target_curvature.grid, "target curvature")
    return ScalarField(wp.fiber, wp.residual(u.values, target_curvature.values)[0])


class GraphState:
    """A height and its target with the residual and tilt of one evaluation.

    The constructor checks the grids and evaluates the product's
    :meth:`WarpedProduct.residual` once.  It keeps the tilt: the partials
    ``du`` and the gradient ``gu`` (lists per axis),
    ``grad_sq = |grad u|^2`` and ``W``.  Every graph diagnostic and check
    below reads these, and the product's prepared ``h`` and ``h2``,
    instead of evaluating them again.  The induced
    metric is built on first use and kept as well: ``graph_mat``, its
    read-only node matrices, and ``graph_metric``, the validated
    :class:`MetricField` of them; both are None until then, and a build
    that raised keeps nothing.
    """

    __slots__ = ("warped", "height", "target", "residual",
                 "du", "gu", "grad_sq", "W", "grad_sup", "graph_mat", "graph_metric")

    def __init__(self, warped: WarpedProduct, height: ScalarField,
                 target: ScalarField) -> None:
        warped.fiber.require_same(height.grid, "graph height")
        warped.fiber.require_same(target.grid, "target curvature")
        values, (self.du, self.gu, self.grad_sq, self.W) = warped.residual(
            height.values, target.values)
        self.warped = warped
        self.height = height
        self.target = target
        self.residual = ScalarField(warped.fiber, values)
        self.grad_sup = float(np.sqrt(self.grad_sq.max()))
        self.graph_mat = None
        self.graph_metric = None

    def interior_residual_sup(self) -> float:
        mask = self.warped.fiber.interior_mask
        return float(np.abs(self.residual.values[mask]).max())

    def require_solved(self, tol_solve: float, what: str) -> None:
        """Raise :class:`PreconditionError` unless the interior residual is at most ``tol_solve``."""
        sup = self.interior_residual_sup()
        if sup > tol_solve:
            raise PreconditionError(
                f"{what} expects a solved height: residual sup {sup:.3e} exceeds "
                f"tol_solve {tol_solve:.3e}"
            )


def unit_normal(state: GraphState) -> tuple[VectorField, ScalarField, ScalarField]:
    """Downward unit normal of the graph.

    Returns the fiber part ``-(h/W) grad u`` (contravariant), the vertical
    component ``1/(h W)``, and the angle function ``h/W``.  The product
    metric makes these unit length: ``sigma(fp, fp) + h^2 vc^2 = 1``.
    """
    fiber, h, W = state.warped.fiber, state.warped.h, state.W
    fiber_part = VectorField(fiber, (-h / W)[..., None] * np.stack(state.gu, axis=-1))
    vertical = ScalarField(fiber, 1.0 / (h * W))
    angle = ScalarField(fiber, h / W)
    return fiber_part, vertical, angle


def _graph_metric_mat(state: GraphState) -> np.ndarray:
    """The node matrices ``sigma_ij + h^2 (d_i u)(d_j u)``, a rank-one update of sigma.

    Built once per state, component by component, and kept read-only in
    ``state.graph_mat``.  sigma is exactly symmetric, so the update is too.
    """
    if state.graph_mat is None:
        du, h2, sigma = state.du, state.warped.h2, state.warped.metric.mat
        mat = np.empty_like(sigma)
        for i in range(len(du)):
            for j in range(i, len(du)):
                mat[..., i, j] = mat[..., j, i] = sigma[..., i, j] + h2 * (du[i] * du[j])
        mat.setflags(write=False)
        state.graph_mat = mat
    return state.graph_mat


def induced_metric(state: GraphState) -> MetricField:
    """Graph metric ``sigma_ij + h^2 (d_i u)(d_j u)`` on the fiber chart.

    Validated by :class:`MetricField` once per state and kept in
    ``state.graph_metric``; a node that fails raises
    :class:`ConstructionError` on every call, since nothing is kept.
    """
    if state.graph_metric is None:
        state.graph_metric = MetricField(state.warped.fiber, _graph_metric_mat(state))
    return state.graph_metric


def quasi_isometry_constants(state: GraphState) -> tuple[float, float]:
    """Global eigenvalue range of the graph metric measured against sigma.

    Solved by a Cholesky reduction to an ordinary symmetric eigenproblem,
    not by the closed-form rank-one spectrum, so the pinch
    ``1 <= lambda <= 1 + sup(h |grad u|)^2`` is an independent cross-check.
    On 2-D fibers the reduction and the spectrum are whole-array
    arithmetic: with ``sigma = L L^T`` and ``C = L^-1 A L^-T`` the
    eigenvalues are ``(c11 + c22)/2 +- hypot((c11 - c22)/2, c12)``.  3-D
    fibers take a batched ``np.linalg`` Cholesky, two solves and ``eigvalsh``.
    """
    prime = _graph_metric_mat(state)
    sigma = state.warped.metric.mat
    if state.warped.fiber.ndim == 2:
        l11 = np.sqrt(sigma[..., 0, 0])
        l21 = sigma[..., 1, 0] / l11
        l22 = np.sqrt(sigma[..., 1, 1] - l21 * l21)
        # T = L^-1 A by forward substitution, then C = L^-1 T^T, lower triangle
        t00, t01 = prime[..., 0, 0] / l11, prime[..., 0, 1] / l11
        t10 = (prime[..., 1, 0] - l21 * t00) / l22
        t11 = (prime[..., 1, 1] - l21 * t01) / l22
        c11 = t00 / l11
        c12 = (t01 - l21 * c11) / l22
        c22 = (t11 - l21 * t10 / l11) / l22
        centre, radius = 0.5 * (c11 + c22), np.hypot(0.5 * (c11 - c22), c12)
        return float((centre - radius).min()), float((centre + radius).max())
    L = np.linalg.cholesky(sigma)
    T = np.linalg.solve(L, prime)
    eigs = np.linalg.eigvalsh(np.linalg.solve(L, np.swapaxes(T, -1, -2)))
    return float(eigs.min()), float(eigs.max())


def check_conformal_laplacian(metric: MetricField, factor: ScalarField,
                              f: ScalarField) -> ScalarField:
    """Residual of the conformal-change rule for the Laplace-Beltrami operator.

    For a metric scaled by ``phi`` in dimension ``d >= 3`` the scaled
    Laplacian of ``f`` equals
    ``(Lap f + ((d-2)/2) sigma(grad f, grad ln phi)) / phi``; a 2-D torus stands
    for its circle lift, ``d = 3``.  The returned field is the difference of the
    two discretizations; it shrinks at second order for smooth data.
    """
    grid = metric.grid
    require_conformal_laplacian(grid)
    grid.require_same(factor.grid, "check_conformal_laplacian")
    grid.require_same(f.grid, "check_conformal_laplacian")
    lhs = (circle_lift_laplacian(f, metric, factor) if grid.ndim == 2
           else laplace_beltrami(f, conformal_scale(metric, factor))).values
    log_factor = ScalarField(grid, np.log(factor.values))
    df = coordinate_partials(f)
    dlog = coordinate_partials(log_factor)
    cross = np.einsum("...ij,...i,...j->...", metric.inv, df, dlog)
    rhs = (laplace_beltrami(f, metric).values + 0.5 * cross) / factor.values
    return ScalarField(grid, lhs - rhs)


def check_height_identity(state: GraphState, tol_solve: float = 1e-8) -> ScalarField:
    """Residual of the solved-graph height identity.

    On a graph with mean curvature ``H`` the height satisfies, in the
    induced metric, ``Lap u + 2 <grad u, grad ln h> = n H / (h W)``.  The
    caller must hand in an approximately solved state (interior residual
    below ``tol_solve``); the returned field converges to zero at second
    order as the grid refines.
    """
    state.require_solved(tol_solve, "height identity")
    wp = state.warped
    prime = induced_metric(state)
    dlog = coordinate_partials(ScalarField(wp.fiber, np.log(wp.h)))
    cross = np.einsum("...ij,...i,...j->...", prime.inv, np.stack(state.du, axis=-1), dlog)
    lap = laplace_beltrami(state.height, prime).values
    # vertical component of the unit normal, NOT the angle function h/W:
    # the h^2 from g(d_r, d_r) cancels against the 1/h^2 in grad tau.
    vertical = 1.0 / (wp.h * state.W)
    vals = lap + 2.0 * cross - wp.dimension * state.target.values * vertical
    return ScalarField(wp.fiber, vals)


def check_superharmonic(state: GraphState, tol_solve: float = 1e-8) -> float:
    """Largest value of the conformally scaled graph Laplacian of the height.

    For a solved graph with target curvature ``<= 0`` the height is
    superharmonic in the induced metric scaled by ``h^4`` (after crossing
    with a circle to reach dimension 3), so the returned maximum should
    not exceed the discretization tolerance.

    Torus fibers take the lifted Laplacian of :func:`~pmclab.geometry.circle_lift_laplacian`.
    Dirichlet fibers are handled in two dimensions, where the conformal
    factor of a constant warping is a harmless global constant; the
    maximum is then taken over interior nodes only.  The fiber, warping
    and target must pass :func:`require_superharmonic`.
    """
    wp, u = state.warped, state.height
    require_superharmonic(wp, state.target)
    state.require_solved(tol_solve, "superharmonic check")
    prime = induced_metric(state)
    if wp.fiber.kind is GridKind.torus2d:
        factor = ScalarField(wp.fiber, wp.warping.values**4)
        return float(circle_lift_laplacian(u, prime, factor).values.max())
    # a numpy power overflows to inf, which the field refuses, where a float's raises
    factor = ScalarField(wp.fiber, np.full(wp.fiber.shape, np.float64(wp.h_sup) ** 4))
    lap = laplace_beltrami(u, conformal_scale(prime, factor)).values
    return float(lap[wp.fiber.interior_mask].max())


def radial_ricci(wp: WarpedProduct) -> ScalarField:
    """Vertical Ricci curvature ``Ric(d_r, d_r) = -h Lap_sigma h`` of the product.

    A non-constant warping on a closed fiber forces this to take negative
    values somewhere, since ``Lap h`` integrates to zero.
    """
    lap_h = laplace_beltrami(wp.warping, wp.metric).values
    return ScalarField(wp.fiber, -wp.warping.values * lap_h)


def compatibility_integral(state: GraphState) -> float:
    """Closed-fiber integral of ``sigma(grad h, grad u)/W - n H``.

    Exact graphs with curvature ``H`` make this vanish (the divergence
    part integrates away), so a value bounded from zero is a
    non-existence witness.  With constant warping the drift term is
    identically zero and the witness reduces to ``-n * integral(H)`` for
    any height.
    """
    wp = state.warped
    require_compatibility(wp.fiber)
    drift = wp.drift(state.gu, state.W)
    return integrate(ScalarField(wp.fiber, drift - wp.dimension * state.target.values), wp.metric)


def obstruction_witness(wp: WarpedProduct, target_curvature: ScalarField) -> float | None:
    """Pre-iteration non-existence witness for constant warping on a closed fiber.

    Returns ``-n * integral(H)`` when the fiber is closed, the warping
    constant (the drift term then vanishes for every height) and the value
    beyond :func:`obstruction_threshold`, so that it decides the verdict;
    else None.
    """
    if not wp.fiber.closed or not wp.warping_is_constant:
        return None
    witness = -wp.dimension * integrate(target_curvature, wp.metric)
    return witness if abs(witness) > obstruction_threshold(wp) else None


def obstruction_threshold(wp: WarpedProduct) -> float:
    """Scale below which a compatibility witness is treated as zero."""
    return 1e-9 * max(1.0, wp.dimension * volume(wp.metric))
