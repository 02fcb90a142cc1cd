"""Solvers for the prescribed-curvature equation on a warped-product fiber.

Two drivers share one residual:

* :func:`newton_solve` is damped Newton on the exact sparse Jacobian of
  the discrete residual, assembled once per step by the chain rule from
  the difference matrices of the grid, and a GMRES linear solve
  preconditioned by the sparse LU factor of that Jacobian.  On closed
  fibers the equation only sees the centered differences of ``u``, so
  the constants and the fields alternating in sign along each even axis
  span a known null space; the factor comes from a companion in which
  one grid cell pins those modes, and the gauge (``fix_mean`` or
  ``pin_node``) then fixes the free constant of each step.
  Non-existence is declared before iterating when the warping is
  constant and the compatibility integral cannot vanish, and
  behaviorally when damped steps stagnate at the minimum step length.
* :func:`flow_solve` is explicit parabolic relaxation ``du/dt = F(u)``
  whose equilibria are exactly the solved graphs.  On obstructed problems
  the mean height drifts at a rate fixed by mass balance, which the
  report records.

Dirichlet grids keep their pinned ring as data: packing strips it from
the unknown vector and every update leaves it untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import bmat, csr_matrix, diags, hstack, vstack
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .geometry import ConstructionError, ScalarField, integrate, partial_matrix, volume
from .warped import (
    GraphState,
    PreconditionError,
    ResidualKernel,
    WarpedProduct,
    mean_curvature_residual,
    obstruction_threshold,
    obstruction_witness,
)


class Gauge(str, Enum):
    fix_mean = "fix_mean"
    pin_node = "pin_node"
    none = "none"


class Verdict(str, Enum):
    converged = "converged"
    obstructed = "obstructed"
    diverged = "diverged"
    max_iter = "max_iter"


_MACHINE_EPS = float(np.finfo(np.float64).eps)
# Central differencing balances truncation against rounding near the cube
# root of machine epsilon; this keeps the Jacobian action accurate enough
# that its own error stays below the O(eps^2) comparisons made against it.
_FD_STEP = _MACHINE_EPS ** (1.0 / 3.0)
_STAGNATION_LIMIT = 10
_BLOWUP_FACTOR = 1e6
# Where the flux saturates (h |grad u| >> 1) the Jacobian is nearly
# singular and a Krylov step can come back astronomically long; capping
# its sup norm keeps failing iterates inspectable instead of overflowing.
_STEP_CAP_FACTOR = 20.0
# The LU factor leaves GMRES one or two vectors per solve; a short restart
# keeps the Krylov basis small beside the factor, and max_linear still
# bounds the total count across restarts.
_KRYLOV_RESTART = 20


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and strategy knobs shared by both drivers."""

    tol_abs: float = 1e-10
    max_newton: int = 50
    max_linear: int = 2000
    linear_rtol: float = 1e-8
    armijo_c: float = 1e-4
    min_step: float = 1e-6
    gauge: Gauge = Gauge.fix_mean
    flow_dt_safety: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "gauge", Gauge(self.gauge))
        for name in ("tol_abs", "linear_rtol", "min_step", "flow_dt_safety"):
            if not getattr(self, name) > 0.0:
                raise ConstructionError(f"{name} must be positive")
        if not (0.0 < self.armijo_c < 0.5):
            raise ConstructionError("armijo_c must lie in (0, 0.5)")
        if self.max_newton < 1 or self.max_linear < 1:
            raise ConstructionError("iteration budgets must be at least 1")


@dataclass
class SolveReport:
    """Outcome of one solve: verdict plus convergence diagnostics.

    ``residual_history`` holds sup norms over unknown nodes, starting from
    the initial guess.  ``mean_drift_rate`` is populated by the flow driver
    (zero for Newton): the rate at which the mean height is pushed, with
    the sign chosen so an obstructed ``H > 0`` problem reports a positive
    rate equal to ``n * integral(H) / Vol``.  ``obstruction_witness`` is
    set only when non-existence was declared analytically.
    """

    verdict: Verdict
    iterations: int
    residual_history: list[float]
    u_oscillation: float
    mean_drift_rate: float
    grad_sup: float
    obstruction_witness: float | None = None

    def __post_init__(self) -> None:
        self.verdict = Verdict(self.verdict)

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict.value,
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "u_oscillation": self.u_oscillation,
            "mean_drift_rate": self.mean_drift_rate,
            "grad_sup": self.grad_sup,
        }
        if self.obstruction_witness is not None:
            out["obstruction_witness"] = self.obstruction_witness
        return out


class _ResidualBlewUp(Exception):
    """Internal: a trial residual left the representable range."""


class _Problem:
    """Packing, gauge projection, and guarded residual evaluation."""

    def __init__(self, wp: WarpedProduct, target: ScalarField, opts: SolveOptions):
        wp.fiber.require_same(target.grid, "target curvature")
        self.wp = wp
        self.kernel = ResidualKernel(wp)
        self.target = target
        self.opts = opts
        self.grid = wp.fiber
        self.mask = self.grid.interior_mask.ravel()
        self.n_dof = int(self.mask.sum())
        self.gauge = opts.gauge if self.grid.closed else Gauge.none

    def residual_full(self, u_arr: np.ndarray) -> np.ndarray | None:
        """Residual node values, or None when the iterate is unusable."""
        try:
            # the overflow this probe exists to catch would otherwise warn
            with np.errstate(over="ignore", invalid="ignore"):
                u = ScalarField._borrow(self.grid, u_arr)
                return mean_curvature_residual(self.kernel, u, self.target).values
        except ConstructionError:
            return None

    def pack(self, full: np.ndarray) -> np.ndarray:
        return full.ravel()[self.mask]

    def scatter(self, dof: np.ndarray) -> np.ndarray:
        full = np.zeros(self.grid.shape).ravel()
        full[self.mask] = dof
        return full.reshape(self.grid.shape)

    def project(self, delta: np.ndarray) -> np.ndarray:
        """Fix the part of a step that the residual cannot see.

        On a closed fiber that is the Jacobian's null space (see
        :meth:`_pinned`): the fields constant on each class of nodes that
        share their index parity along the even axes.  Subtracting each
        class mean removes it and leaves a mean-free step, as ``fix_mean``
        asks; ``pin_node`` then shifts the step to vanish at the first node.
        """
        if not self.grid.closed:
            return delta
        split, classes = [], []
        for n in self.grid.shape:
            split += [n // 2, 2] if n % 2 == 0 else [n]
            classes.append(len(split) - (2 if n % 2 == 0 else 1))
        blocks = delta.reshape(split)
        delta = (blocks - blocks.mean(axis=tuple(classes), keepdims=True)).ravel()
        if self.gauge is Gauge.pin_node:
            delta = delta - delta[0]
        return delta

    def jacobian_action(self, u_arr: np.ndarray, dof: np.ndarray,
                        project_out: bool = True) -> np.ndarray:
        vn = float(np.abs(dof).max()) if dof.size else 0.0
        if vn == 0.0:
            return np.zeros_like(dof)
        eps = _FD_STEP * (1.0 + float(np.abs(u_arr).max())) / max(vn, 1e-30)
        step = eps * self.scatter(dof)
        rp = self.residual_full(u_arr + step)
        rm = self.residual_full(u_arr - step)
        if rp is None or rm is None:
            raise _ResidualBlewUp
        out = self.pack(rp - rm) / (2.0 * eps)
        return self.project(out) if project_out else out

    @cached_property
    def _stencils(self) -> tuple[csr_matrix, csr_matrix]:
        """The divergence and gradient stencils of the residual, restricted to unknowns.

        With ``D_a`` the matrix of :func:`partial_matrix` along axis ``a``,
        the first is ``[diag(1/sqrt_det) D_a]_a`` side by side, with only
        the unknown rows kept; the second is ``[D_c]_c`` stacked, with
        only the unknown columns kept.  Every node, the pinned ring too,
        stays in between, where the fluxes live.
        """
        partials = [partial_matrix(self.grid, axis) for axis in range(self.grid.ndim)]
        div = (diags(1.0 / self.kernel.sqrt_det.ravel()) @ hstack(partials)).tocsr()[self.mask]
        grad = vstack(partials, format="csc")[:, self.mask].tocsr()
        return div, grad

    def jacobian(self, u_arr: np.ndarray) -> csr_matrix | None:
        """Sparse Jacobian of the packed residual, or None when an entry is not finite.

        The exact derivative of the discrete residual by the chain rule.
        With ``g = sigma^{-1} D u`` and ``s = sqrt_det``, the derivative of
        the flux ``q_a = s (h/W) g^a`` is ``sum_c diag(m_ac) D_c`` with
        ``m_ac = s (h/W)(sigma^{ac} - h^2 g^a g^c / W^2)``, so
        ``J = diag(1/s) sum_ac D_a diag(m_ac) D_c``, plus
        ``sum_c diag(e_c) D_c`` for the drift of a varying warping, with
        ``e_c = sum_a dh_a (sigma^{ac} / W - h^2 g^a g^c / W^3)``.  Only
        the unknown rows and columns are kept.
        """
        k = self.kernel
        d = self.grid.ndim
        div, grad = self._stencils
        with np.errstate(over="ignore", invalid="ignore"):
            _, gu, _, W = k.tilt(u_arr)
            flux = k.sqrt_det * k.h / W
            bend = k.h2 / W**2
            m = [[diags((flux * (k.inv[a][c] - bend * gu[a] * gu[c])).ravel())
                  for c in range(d)] for a in range(d)]
            jac = div @ (bmat(m, format="csr") @ grad)
            if k.dh is not None:
                pull = sum(k.dh[a] * gu[a] for a in range(d)) * bend
                e = [(sum(k.dh[a] * k.inv[a][c] for a in range(d)) - pull * gu[c]) / W
                     for c in range(d)]
                rows = hstack([diags(ec.ravel()) for ec in e], format="csr")[self.mask]
                jac = jac + rows @ grad
        return jac if np.isfinite(jac.data).all() else None

    @cached_property
    def _pinned(self) -> np.ndarray:
        """Unknowns of the grid cell that pins the Jacobian's null space.

        On a closed fiber centered differences annihilate the constants and
        the fields alternating in sign along each even axis.  Their values
        on the cell at the origin (two nodes along even axes, one along odd
        ones) determine them, so pinning those nodes leaves a nonsingular
        matrix.  Disks have no null space and pin nothing.
        """
        if not self.grid.closed:
            return np.empty(0, dtype=int)
        cell = np.zeros(self.grid.shape, dtype=bool)
        cell[tuple(slice(0, 2 - n % 2) for n in self.grid.shape)] = True
        return np.flatnonzero(self.pack(cell))

    def linear_step(self, jac: csr_matrix, f_dof: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve ``jac @ delta = -f`` with the pinned companion; returns ``(delta, info)``.

        The companion replaces the pinned rows and columns by the identity,
        so its solution vanishes on the pinned cell and meets every other
        row.  GMRES runs on the companion, right-preconditioned by its LU
        factor, to ``linear_rtol`` within ``max_linear`` iterations;
        ``info`` is GMRES's own (0 when converged).
        """
        free = np.ones(self.n_dof)
        free[self._pinned] = 0.0
        companion = (diags(free) @ jac @ diags(free) + diags(1.0 - free)).tocsc()
        # the stencil pattern is symmetric and the operator elliptic, so
        # order on A + A^T and prefer diagonal pivots; left to general row
        # pivoting the same fill takes ten times as long to compute
        lu = splu(companion, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                  options={"SymmetricMode": True})
        A = LinearOperator(companion.shape, matvec=lambda z: companion @ lu.solve(z),
                           dtype=float)
        restart = min(_KRYLOV_RESTART, self.opts.max_linear)
        z, info = gmres(A, -free * f_dof, rtol=self.opts.linear_rtol, atol=0.0,
                        restart=restart, maxiter=-(-self.opts.max_linear // restart))
        return lu.solve(z), info


def _safe_state(wp: WarpedProduct, u_arr: np.ndarray, target: ScalarField
                ) -> tuple[GraphState, float, float]:
    """Terminal state with its height oscillation and gradient sup.

    A finite height can still overflow its derived fields (a near-max
    float spike does).  Divergence must be reported, not raised, so fall
    back to the level zero height and flag the loss with infinite
    diagnostics.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            state = GraphState(wp, ScalarField(wp.fiber, u_arr), target)
            u = state.height.values
            return state, float(u.max() - u.min()), state.grad_sup
    except ConstructionError:
        zero = ScalarField.constant(wp.fiber, 0.0)
        return GraphState(wp, zero, target), math.inf, math.inf


def newton_solve(wp: WarpedProduct, target_curvature: ScalarField, u0: ScalarField,
                 opts: SolveOptions = SolveOptions()) -> tuple[GraphState, SolveReport]:
    """Damped Newton iteration on the prescribed-curvature residual.

    Each step assembles the exact sparse Jacobian (see
    :meth:`_Problem.jacobian`) and solves for the step by GMRES
    preconditioned with the LU factor of its pinned companion (see
    :meth:`_Problem.linear_step`);
    :meth:`_Problem.project` then fixes the step's gauge on closed fibers.  Damping is Armijo
    backtracking on half the squared residual norm.  Verdicts:
    ``converged`` (sup residual at or below ``tol_abs``), ``obstructed``
    (declared from the compatibility witness before iterating, or after
    ten consecutive steps stuck at the minimum step length), ``diverged``
    (non-finite iterate, Jacobian entry or step), ``max_iter`` otherwise, which includes
    a linear solve that misses ``linear_rtol`` within ``max_linear``
    iterations: its step is not taken.  On divergence the
    returned state holds the last representable iterate; if none is, the
    level zero height stands in and the diagnostics read infinite.
    """
    wp.fiber.require_same(u0.grid, "initial height")
    prob = _Problem(wp, target_curvature, opts)

    witness = obstruction_witness(wp, target_curvature)
    if witness is not None and abs(witness) > obstruction_threshold(wp):
        state, osc, gsup = _safe_state(wp, u0.values.copy(), target_curvature)
        history0 = math.inf if math.isinf(osc) else state.interior_residual_sup()
        report = SolveReport(Verdict.obstructed, 0,
                             [history0], osc, 0.0, gsup,
                             obstruction_witness=witness)
        return state, report

    u = u0.values.copy()
    res = prob.residual_full(u)
    if res is None:
        state, osc, gsup = _safe_state(wp, u0.values.copy(), target_curvature)
        return state, SolveReport(Verdict.diverged, 0, [math.inf], osc, 0.0, gsup)
    f_dof = prob.pack(res)
    history = [float(np.abs(f_dof).max())]

    verdict = Verdict.max_iter
    iterations = 0
    stagnation = 0

    if history[0] <= opts.tol_abs:
        verdict = Verdict.converged
    else:
        for _ in range(opts.max_newton):
            jac = prob.jacobian(u)
            if jac is None:
                verdict = Verdict.diverged
                break
            delta, info = prob.linear_step(jac, f_dof)
            if not np.isfinite(delta).all():
                verdict = Verdict.diverged
                break
            if info != 0:
                # an unconverged linear solve gives no Newton step to take
                verdict = Verdict.max_iter
                break
            delta = prob.project(delta)
            cap = _STEP_CAP_FACTOR * (1.0 + float(np.abs(u).max()))
            delta_sup = float(np.abs(delta).max())
            if delta_sup > cap:
                delta *= cap / delta_sup
            j_delta = jac @ delta

            slope = float(f_dof @ j_delta)
            if slope >= 0.0:
                delta = -delta
                slope = -slope
            merit = 0.5 * float(f_dof @ f_dof)

            step = 1.0
            accepted = None
            armijo_ok = False
            while step >= opts.min_step:
                trial = u + step * prob.scatter(delta)
                trial_res = prob.residual_full(trial)
                if trial_res is None:
                    verdict = Verdict.diverged
                    break
                trial_dof = prob.pack(trial_res)
                trial_merit = 0.5 * float(trial_dof @ trial_dof)
                if trial_merit <= merit + opts.armijo_c * step * slope:
                    accepted = (trial, trial_dof)
                    armijo_ok = True
                    break
                if step * 0.5 < opts.min_step and trial_merit < merit:
                    accepted = (trial, trial_dof)
                    break
                step *= 0.5
            if verdict is Verdict.diverged:
                break

            iterations += 1
            if accepted is not None:
                u, f_dof = accepted
            history.append(float(np.abs(f_dof).max()))

            if armijo_ok and step > opts.min_step:
                stagnation = 0
            else:
                stagnation += 1

            if history[-1] <= opts.tol_abs:
                verdict = Verdict.converged
                break
            if stagnation >= _STAGNATION_LIMIT:
                verdict = Verdict.obstructed
                break

    state, osc, gsup = _safe_state(wp, u, target_curvature)
    report = SolveReport(verdict, iterations, history, osc, 0.0, gsup)
    return state, report


def _flow_time_step(wp: WarpedProduct, opts: SolveOptions) -> float:
    """Stability-limited explicit step from the smallest physical spacing."""
    lengths = []
    for ax in range(wp.fiber.ndim):
        sigma_ax = wp.metric.mat[..., ax, ax]
        lengths.append(wp.fiber.spacings[ax] * math.sqrt(float(sigma_ax.min())))
    l_min = min(lengths)
    return opts.flow_dt_safety * l_min**2 * wp.h_inf / (1.0 + wp.h_sup**2)


def _window_start(last: int) -> int:
    """First step of the drift window of a run whose last evaluated step is ``last``."""
    return min(int(0.8 * last), last - 1)


def flow_solve(wp: WarpedProduct, target_curvature: ScalarField, u0: ScalarField,
               opts: SolveOptions = SolveOptions(), t_max: float = 10.0
               ) -> tuple[GraphState, SolveReport]:
    """Explicit relaxation ``du/dt = F(u)`` until ``t_max`` or convergence.

    The recorded ``mean_drift_rate`` is minus the time derivative of the
    mean height averaged over the final fifth of the run; mass balance
    makes it equal ``n * integral(H) / Vol`` on closed fibers with
    constant warping, where the flow cannot settle.  It is computed from
    two exact means, at the window's first and last step: the height is
    kept every ``ceil(n_steps / 64)`` steps, and the window's first height
    is recovered by replaying the steps after the last kept one before it.
    """
    wp.fiber.require_same(u0.grid, "initial height")
    if t_max <= 0.0:
        raise ConstructionError("t_max must be positive")
    prob = _Problem(wp, target_curvature, opts)
    dt = _flow_time_step(wp, opts)
    n_steps = max(1, math.ceil(t_max / dt))
    stride = max(1, -(-n_steps // 512))
    spacing = -(-n_steps // 64)
    closed, interior = wp.fiber.closed, wp.fiber.interior_mask

    def rate(res):
        """``du/dt``: the residual, held at zero on a pinned ring (a closed fiber has none)."""
        return res if closed else np.where(interior, res, 0.0)

    u = u0.values.copy()
    kept = []  # (step, height) pairs; the first one is never after the window start
    latest_start = _window_start(n_steps)  # no run goes past n_steps
    last, u_last = -1, u
    history = []
    verdict = Verdict.max_iter
    steps_taken = 0
    blowup_scale = None

    for k in range(n_steps + 1):
        if k % spacing == 0 and k <= latest_start:
            kept.append((k, u))
            # the run ends at step k - 1 or later, so its window cannot start earlier
            while len(kept) > 1 and kept[1][0] <= _window_start(k - 1):
                del kept[0]
        res = prob.residual_full(u)
        if res is None:
            verdict = Verdict.diverged
            break
        last, u_last = k, u
        du = rate(res)
        sup = float(np.abs(du).max())
        if blowup_scale is None:
            blowup_scale = _BLOWUP_FACTOR * (1.0 + sup)
        if k % stride == 0 or k == n_steps:
            history.append(sup)
        if sup <= opts.tol_abs:
            verdict = Verdict.converged
            break
        if sup > blowup_scale:
            verdict = Verdict.diverged
            break
        if k == n_steps:
            break
        u = u + dt * du
        steps_taken += 1

    if not history:
        history = [math.inf]

    drift = 0.0
    if last >= 1:
        k0 = _window_start(last)
        start, u_start = [pair for pair in kept if pair[0] <= k0][-1]
        for _ in range(start, k0):
            u_start = u_start + dt * rate(prob.residual_full(u_start))
        vol = volume(wp.metric)
        mean_start = integrate(ScalarField(wp.fiber, u_start), wp.metric) / vol
        mean_last = integrate(ScalarField(wp.fiber, u_last), wp.metric) / vol
        drift = -(mean_last - mean_start) / ((last - k0) * dt)

    if not np.isfinite(u).all():
        u = u0.values.copy()
        verdict = Verdict.diverged
    state, osc, gsup = _safe_state(wp, u, target_curvature)
    report = SolveReport(verdict, steps_taken, history, osc, float(drift), gsup)
    return state, report


def maximum_principle_check(state_a: GraphState, state_b: GraphState,
                            tol_solve: float = 1e-6) -> float:
    """Sup distance between two solved states of the same problem.

    Bounded by solver tolerances on Dirichlet problems (discrete
    uniqueness); on closed fibers the gauge constant shows up in the
    returned value and is reported, not treated as an error.
    """
    ga, gb = state_a.warped.fiber, state_b.warped.fiber
    ga.require_same(gb, "maximum principle comparison")
    if not np.array_equal(state_a.warped.warping.values, state_b.warped.warping.values):
        raise PreconditionError("states live over different warpings")
    if not np.array_equal(state_a.target.values, state_b.target.values):
        raise PreconditionError("states target different curvatures")
    if not ga.closed:
        pa = state_a.height.values[~ga.interior_mask]
        pb = state_b.height.values[~gb.interior_mask]
        if not np.allclose(pa, pb, rtol=0.0, atol=1e-12):
            raise PreconditionError("states carry different pinned boundary data")
    for state in (state_a, state_b):
        sup = state.interior_residual_sup()
        if sup > tol_solve:
            raise PreconditionError(
                f"comparison expects solved states: residual sup {sup:.3e} "
                f"exceeds tol_solve {tol_solve:.3e}"
            )
    diff = state_a.height.values - state_b.height.values
    return float(np.abs(diff).max())
