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
* :func:`flow_solve` is the parabolic relaxation ``du/dt = F(u)``, whose
  equilibria are exactly the solved graphs, taken in linearly implicit
  (Rosenbrock-Euler) steps on the same Jacobian, with at most 16 steps
  to ``t_max`` and the residual judging each one.  On obstructed
  problems the mean height drifts at a rate fixed by mass balance, which
  the report records.

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
# Newton's line search: the Armijo sufficient-decrease constant, and the
# shortest step it tries before a step counts as stagnated.
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-6
# GMRES on the preconditioned companion stops at this relative residual,
# within this many iterations in all; with the exact LU factor it takes one.
_LINEAR_RTOL = 1e-8
_MAX_LINEAR = 2000
# The flow's step control: a step is at most t_max / _FLOW_MIN_STEPS, and a
# run ends after _FLOW_MAX_FACTORS factorizations.
_FLOW_MIN_STEPS = 16
_FLOW_MAX_FACTORS = 64
# Where the flux saturates (h |grad u| >> 1) the Jacobian is nearly
# singular and a Krylov step can come back astronomically long; capping
# its sup norm keeps failing iterates inspectable instead of overflowing.
_STEP_CAP_FACTOR = 20.0
# The LU factor leaves GMRES one or two vectors per solve; a short restart
# keeps the Krylov basis small beside the factor, and _MAX_LINEAR still
# bounds the total count across restarts.
_KRYLOV_RESTART = 20


@dataclass(frozen=True)
class SolveOptions:
    """Solve settings: the residual tolerance, Newton's step budget and its gauge.

    ``tol_abs`` ends both drivers; ``max_newton`` and ``gauge`` are read by
    :func:`newton_solve` only.  The line search and the linear solve run
    on module constants.
    """

    tol_abs: float = 1e-10
    max_newton: int = 50
    gauge: Gauge = Gauge.fix_mean

    def __post_init__(self):
        object.__setattr__(self, "gauge", Gauge(self.gauge))
        if not 0.0 < self.tol_abs < math.inf:
            raise ConstructionError("tol_abs must be positive and finite")
        if not 1 <= self.max_newton < math.inf:
            raise ConstructionError("max_newton must be finite and at least 1")


@dataclass
class SolveReport:
    """Outcome of one solve: verdict plus convergence diagnostics.

    ``residual_history`` holds sup norms over unknown nodes, starting from
    the initial guess.  ``mean_drift_rate`` is populated by the flow driver
    (zero for Newton): the rate at which the mean height is pushed, with
    the sign chosen so an obstructed ``H > 0`` problem reports a positive
    rate equal to ``n * integral(H) / Vol``.  ``obstruction_witness`` is
    set only when non-existence was declared analytically.
    ``factorizations`` counts the sparse LU factors the solve built: one
    per Newton step that reached its linear solve, and one per flow
    trial, accepted or rejected.
    """

    verdict: Verdict
    iterations: int
    residual_history: list[float]
    u_oscillation: float
    mean_drift_rate: float
    grad_sup: float
    factorizations: int = 0
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
            "factorizations": self.factorizations,
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
        self.grid = wp.fiber
        self.mask = self.grid.interior_mask.ravel()
        self.n_dof = int(self.mask.sum())
        self.gauge = opts.gauge if self.grid.closed else None  # disks have no free constant

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
        A disk has no null space, so its step is returned as it is and the
        gauge plays no part.
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
        factor, to a relative residual of ``_LINEAR_RTOL`` within
        ``_MAX_LINEAR`` iterations; ``info`` is GMRES's own (0 when
        converged).
        """
        free = np.ones(self.n_dof)
        free[self._pinned] = 0.0
        if self._pinned.size:
            companion = (diags(free) @ jac @ diags(free) + diags(1.0 - free)).tocsc()
        else:
            companion = jac.tocsc()
        lu = _factor(companion)
        A = LinearOperator(companion.shape, matvec=lambda z: companion @ lu.solve(z),
                           dtype=float)
        restart = min(_KRYLOV_RESTART, _MAX_LINEAR)
        z, info = gmres(A, -free * f_dof, rtol=_LINEAR_RTOL, atol=0.0,
                        restart=restart, maxiter=-(-_MAX_LINEAR // restart))
        return lu.solve(z), info


def _factor(matrix):
    """Sparse LU factor of a matrix with the residual's stencil pattern."""
    # the stencil pattern is symmetric and the operator elliptic, so order
    # on A + A^T and prefer diagonal pivots; left to general row pivoting
    # the same fill takes ten times as long to compute
    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                options={"SymmetricMode": True})


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
    a linear solve that does not converge: its step is not taken.  On divergence the
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
    factorizations = 0
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
            factorizations += 1
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
            while step >= _MIN_STEP:
                trial = u + step * prob.scatter(delta)
                trial_res = prob.residual_full(trial)
                if trial_res is None:
                    verdict = Verdict.diverged
                    break
                trial_dof = prob.pack(trial_res)
                trial_merit = 0.5 * float(trial_dof @ trial_dof)
                if trial_merit <= merit + _ARMIJO_C * step * slope:
                    accepted = (trial, trial_dof)
                    armijo_ok = True
                    break
                if step * 0.5 < _MIN_STEP and trial_merit < merit:
                    accepted = (trial, trial_dof)
                    break
                step *= 0.5
            if verdict is Verdict.diverged:
                break

            iterations += 1
            if accepted is not None:
                u, f_dof = accepted
            history.append(float(np.abs(f_dof).max()))

            if armijo_ok and step > _MIN_STEP:
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
    report = SolveReport(verdict, iterations, history, osc, 0.0, gsup, factorizations)
    return state, report


def flow_solve(wp: WarpedProduct, target_curvature: ScalarField, u0: ScalarField,
               opts: SolveOptions = SolveOptions(), t_max: float = 10.0
               ) -> tuple[GraphState, SolveReport]:
    """Linearly implicit relaxation ``du/dt = F(u)`` until ``t_max`` or convergence.

    Each step is Rosenbrock-Euler, ``(I - dt J) delta = dt F(u)`` on the
    unknowns, with the exact Jacobian ``J`` of :meth:`_Problem.jacobian`
    and one LU factor.  A step is at most ``t_max / 16`` and the last one
    ends the run at ``t_max``.  The residual judges each trial: along the
    exact flow ``F`` solves a linear parabolic equation and its sup cannot
    rise, so a trial that raises it beyond its own rounding, is not finite,
    or meets a singular matrix is not taken and ``dt`` halves; after each
    accepted step ``dt`` doubles back toward the maximum.  The run ends
    ``max_iter`` after 64 factorizations.  ``iterations`` counts accepted
    steps, and ``diverged`` means a non-finite start or Jacobian entry.

    The recorded ``mean_drift_rate`` is minus the time derivative of the
    mean height over the final fifth of the accepted steps, from the exact
    means at the window's ends.  On closed fibers with constant warping
    ``sqrt_det^T J = 0``, so every step moves the mean by exactly
    ``dt * mean(F)`` and the rate equals ``n * integral(H) / Vol``.
    """
    wp.fiber.require_same(u0.grid, "initial height")
    if not 0.0 < t_max < math.inf:
        raise ConstructionError("t_max must be positive and finite")
    prob = _Problem(wp, target_curvature, opts)
    vol = volume(wp.metric)
    identity = diags(np.ones(prob.n_dof), format="csr")

    def mean(u):
        return integrate(ScalarField(wp.fiber, u), wp.metric) / vol

    u = u0.values.copy()
    res = prob.residual_full(u)
    if res is None:
        state, osc, gsup = _safe_state(wp, u, target_curvature)
        return state, SolveReport(Verdict.diverged, 0, [math.inf], osc, 0.0, gsup)
    f_dof = prob.pack(res)
    history = [float(np.abs(f_dof).max())]
    # times as fractions of t_max: halving and doubling keep them exact
    times, means = [0.0], [mean(u)]
    span = 1.0 / _FLOW_MIN_STEPS
    verdict = Verdict.max_iter
    jac = None
    factorizations = 0

    for _ in range(_FLOW_MAX_FACTORS):
        if history[-1] <= opts.tol_abs or times[-1] >= 1.0:
            break
        if jac is None:
            jac = prob.jacobian(u)
            if jac is None:
                verdict = Verdict.diverged
                break
            # a rise within the residual's own rounding, about eps |J| |u|, is no rise
            slack = (_MACHINE_EPS * (1.0 + float(np.abs(u).max()))
                     * float(abs(jac).sum(axis=1).max()))
        step = min(span, 1.0 - times[-1])
        dt = step * t_max
        factorizations += 1
        try:  # the factor dies with this expression, before the next one is built
            delta = _factor(identity - dt * jac).solve(dt * f_dof)
        except RuntimeError:  # splu found the matrix singular: reject as not finite
            delta = np.full(prob.n_dof, np.nan)
        trial = u + prob.scatter(delta)
        trial_res = prob.residual_full(trial)
        sup = math.inf if trial_res is None else float(np.abs(prob.pack(trial_res)).max())
        if sup > history[-1] + slack:
            span = 0.5 * step
            continue
        u, f_dof, jac = trial, prob.pack(trial_res), None
        history.append(sup)
        times.append(times[-1] + step)
        means.append(mean(u))
        span = min(2.0 * step, 1.0 / _FLOW_MIN_STEPS)

    if history[-1] <= opts.tol_abs:
        verdict = Verdict.converged
    last = len(times) - 1
    drift = 0.0
    if last >= 1:
        k0 = min(int(0.8 * last), last - 1)
        drift = -(means[last] - means[k0]) / ((times[last] - times[k0]) * t_max)
    state, osc, gsup = _safe_state(wp, u, target_curvature)
    return state, SolveReport(verdict, last, history, osc, drift, gsup, factorizations)


def maximum_principle_check(state_a: GraphState, state_b: GraphState,
                            tol_solve: float = 1e-6) -> float:
    """Sup distance between two solved states of the same problem.

    Bounded by solver tolerances on Dirichlet problems (discrete
    uniqueness); on closed fibers the gauge constant shows up in the
    returned value and is reported, not treated as an error.  The same
    problem means the same grid, metric, warping, target and pinned
    boundary data; any difference raises :class:`PreconditionError`.
    """
    ga, gb = state_a.warped.fiber, state_b.warped.fiber
    ga.require_same(gb, "maximum principle comparison")
    if not np.array_equal(state_a.warped.metric.mat, state_b.warped.metric.mat):
        raise PreconditionError("states live over different metrics")
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
