"""Solvers for the prescribed-curvature equation on a warped-product fiber.

Two drivers share one residual, that of the product, prepared once per product:

* :func:`newton_solve` is damped Newton on the exact sparse Jacobian of
  the discrete residual, the chain-rule product of the difference
  stencils of the grid.  Each entry is a sum of node coefficients read at
  the stencil's offsets, with weights fixed on each ring: a problem
  builds its pattern and weights once, and each step fills the rows of a
  ring class by one matrix product and scales each row by ``1/sqrt_det``.
  Each step is solved by GMRES, preconditioned on the left.  On a disk
  the preconditioner is the exact inverse of the Jacobian's averaged
  stencil: averaged over the angle, the entries give one band matrix in
  the radius per angular mode, inverted by an FFT in angle and one
  LAPACK banded LU with row swaps over all modes at once, so no sparse
  factor is built while that carries the step; a step it leaves unsolved
  is left to a factor.  Every GMRES run stops by the one rule stated in
  :meth:`_Problem._cycled_gmres`.  On closed fibers the equation only
  sees the centered differences of ``u``, so the constants and the
  fields alternating in sign along each even axis span a known null
  space; the step comes from a companion in which one grid cell pins
  those modes, preconditioned by a sparse LU factor kept across steps
  (the factor of an earlier companion first, a new factor only when
  that fails), and is then made free of them, hence mean-free.  The
  companion, like the flow's ``I - dt J``, is an edit
  of the Jacobian's entries on the same pattern.
  Non-existence is declared only on a closed fiber: before iterating
  when the warping is constant and the compatibility integral cannot
  vanish, and behaviorally at the first stalled step (see
  :func:`newton_solve`).  A disk has no such certificate, so a stalled
  step there ends ``max_iter``.
* :func:`flow_solve` is the parabolic relaxation ``du/dt = F(u)``, whose
  equilibria are exactly the solved graphs, taken in linearly implicit
  (Rosenbrock-Euler) steps on the same Jacobian, with at most 16 steps
  to ``t_max`` and the residual judging each one.  Each step is solved
  by the same GMRES as Newton's, on every fiber preconditioned by the
  exact inverse of the averaged stencil of ``I - dt J`` (two FFTs and a
  division on a torus), so a flow builds no factor while that carries
  each step; a step it leaves unsolved takes the kept-factor path.  Each
  step is then corrected along the constants so that on obstructed
  problems the mean height drifts at the rate fixed by mass balance,
  which the report records.

Dirichlet grids keep their pinned ring as data: packing strips it from
the unknown vector and every update leaves it untouched.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .geometry import ConstructionError, FiberGrid, ScalarField, integrate, volume
from .warped import (
    GraphState,
    PreconditionError,
    WarpedProduct,
    mean_curvature_residual,
    obstruction_witness,
)


class Verdict(str, Enum):
    converged = "converged"
    obstructed = "obstructed"
    diverged = "diverged"
    max_iter = "max_iter"


_MACHINE_EPS = float(np.finfo(np.float64).eps)
# Newton's line search: the Armijo sufficient-decrease constant, and the length
# below which it tries no step (newton_solve states when a step stalls).
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-6
# GMRES on Newton's companion or the flow's I - dt J aims at this relative
# residual, measured after the preconditioner, within this many iterations in
# all; _Problem._cycled_gmres states when a run stops short of it.
_LINEAR_RTOL = 1e-8
_MAX_LINEAR = 2000
# The flow's step control: a step is at most t_max / _FLOW_MIN_STEPS, and a
# run ends after _FLOW_MAX_TRIALS trial steps, accepted or rejected.
_FLOW_MIN_STEPS = 16
_FLOW_MAX_TRIALS = 64
# Where the flux saturates (h |grad u| >> 1) the Jacobian is nearly
# singular and a Krylov step can come back astronomically long; capping
# its sup norm keeps failing iterates inspectable instead of overflowing.
_STEP_CAP_FACTOR = 20.0
# A short restart keeps the Krylov basis small beside the preconditioner.
_KRYLOV_RESTART = 20


@dataclass(frozen=True)
class SolveOptions:
    """Solve settings: the residual tolerance and Newton's step budget.

    ``tol_abs`` ends both drivers; ``max_newton`` is read by
    :func:`newton_solve` only.  The line search and the linear solve run
    on module constants.
    """

    tol_abs: float = 1e-10
    max_newton: int = 50

    def __post_init__(self):
        if (isinstance(self.tol_abs, bool) or not isinstance(self.tol_abs, numbers.Real)
                or not 0.0 < self.tol_abs < math.inf):
            raise ConstructionError(f"tol_abs must be positive and finite, got {self.tol_abs!r}")
        if (isinstance(self.max_newton, bool) or not isinstance(self.max_newton, numbers.Integral)
                or self.max_newton < 1):
            raise ConstructionError(f"max_newton must be an integer, at least 1, got "
                                    f"{self.max_newton!r}")


@dataclass
class SolveReport:
    """Outcome of one solve: verdict plus convergence diagnostics.

    ``iterations`` counts the accepted steps, of Newton or of the flow,
    and ``residual_history`` holds the sup norms over unknown nodes of the
    initial guess and of each accepted step.  ``mean_drift_rate`` is set
    by the flow (zero for Newton): the rate at which the mean height is
    pushed, with the sign chosen so an obstructed ``H > 0`` problem
    reports a positive rate equal to ``n * integral(H) / Vol``.
    ``obstruction_witness`` is set only when non-existence was declared
    analytically.  ``obstruction_source`` says how an ``obstructed``
    verdict was reached: ``"witness"`` when the compatibility witness
    decided before iterating, ``"stalled_step"`` at Newton's first stalled
    step (see :func:`newton_solve`); it is unset for every other verdict.
    Only a closed fiber ends ``obstructed``.
    ``factorizations`` counts the sparse LU factors the solve built: one
    for each linear solve, Newton step or flow trial, that neither a
    factor kept from an earlier one nor the inverse of its matrix's
    averaged stencil carried (see :meth:`_Problem.kept_solve`).  Newton
    on a torus factors its first pinned companion; a flow, and Newton on
    a disk, build none while the averaged stencil's inverse carries each
    solve.  ``krylov_iterations`` counts the
    actions of the solved matrix (Newton's companion or the flow's
    ``I - dt J``) that GMRES took, each followed by the preconditioner,
    those of failed cycles and of the residual checks between them too
    (see :meth:`_Problem._cycled_gmres` for when a run restarts).
    """

    verdict: Verdict
    iterations: int
    residual_history: list[float]
    u_oscillation: float
    mean_drift_rate: float
    grad_sup: float
    factorizations: int = 0
    krylov_iterations: int = 0
    obstruction_witness: float | None = None
    obstruction_source: str | None = None

    def __post_init__(self) -> None:
        self.verdict = Verdict(self.verdict)

    def to_json_dict(self) -> dict:
        """The fields in order, the verdict by its value; an unset optional field is left out."""
        out = {name: value for name, value in vars(self).items() if value is not None}
        out["verdict"] = self.verdict.value
        return out


def remove_null_modes(grid: FiberGrid, delta: np.ndarray) -> np.ndarray:
    """Strip from node values (flat or of grid shape) the part the residual cannot see.

    On a closed fiber that is the Jacobian's null space (see
    :class:`_Assembly`): the fields constant on each class of nodes
    that share their index parity along the even axes.  Subtracting each
    class mean removes it and leaves a mean-free result, in the shape of
    ``delta``.  A disk has no null space, so ``delta`` is returned as it is.
    """
    if not grid.closed:
        return delta
    split, classes = [], []
    for n in grid.shape:
        split += [n // 2, 2] if n % 2 == 0 else [n]
        classes.append(len(split) - (2 if n % 2 == 0 else 1))
    blocks = delta.reshape(split)
    return (blocks - blocks.mean(axis=tuple(classes), keepdims=True)).reshape(delta.shape)


class _RingClass(NamedTuple):
    """Consecutive unknown rings whose rows share one table (see :func:`_assemble`).

    Each row stores one entry per ``(ring, *periodic)`` step in ``offsets``,
    the zero step first, at ``span`` in the pattern's ``data``: the reads
    times ``table``, where ``copies`` gather each read, a node coefficient
    at one step from every row, as ``(destination, source)`` index pairs.
    """

    rings: slice
    span: slice
    copies: tuple[tuple[tuple, tuple], ...]
    table: np.ndarray
    offsets: np.ndarray


class _Assembly(NamedTuple):
    """A problem's Jacobian pattern, laid out in ring classes.

    Each row stores its entries in its class's offset order, so its columns
    are not sorted and its first entry, at ``diagonal``, is the diagonal.
    ``pinned`` are the positions of the entries in a pinned row or column,
    and ``cell`` the unknowns of the cell that pins the null space: on a
    closed fiber centered differences annihilate the constants and the
    fields alternating in sign along each even axis, which their values on
    the cell at the origin (two nodes along even axes, one along odd ones)
    determine.  Disks pin nothing.  Every Jacobian of the problem shares
    these arrays, so they are read-only.  ``layout`` is the unknowns'
    ``(rings, *periodic)`` and ``band`` the largest radial offset.
    """

    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray
    pinned: np.ndarray
    cell: np.ndarray
    classes: tuple[_RingClass, ...]
    layout: tuple[int, ...]
    band: int


def _difference_offsets(grid: FiberGrid, axis: int) -> list[tuple[tuple[int, ...], list[float]]]:
    """:func:`pmclab.geometry.partial_into` along ``axis``, as ``(step, weight per node ring)``.

    Steps are ``(ring, *periodic)``: a torus is one ring.  The disk's radial
    difference reaches below ring 0 to ring 0 half a turn away, and closes
    one-sided at the rim.
    """
    w, nodes = 1.0 / (2.0 * grid.spacings[axis]), 1 if grid.closed else grid.shape[0]
    if grid.periodic_axes[axis]:
        unit = tuple(int(k == axis + grid.closed) for k in range(grid.ndim + grid.closed))
        return [(unit, [w] * nodes), (tuple(-k for k in unit), [-w] * nodes)]
    # the weights on ring 0, on the middle rings and on the rim
    weights = {(1, 0): (1, 1, 0), (-1, 0): (0, -1, -4), (0, grid.shape[1] // 2): (-1, 0, 0),
               (0, 0): (0, 0, 3), (-2, 0): (0, 0, 1)}
    return [(step, [w * a, *[w * b] * (nodes - 2), w * c]) for step, (a, b, c) in weights.items()]


def _assemble(grid: FiberGrid, varying: bool) -> _Assembly:
    """The Jacobian's pattern, and for each class of rings the table that fills it.

    :meth:`_Problem.jacobian` writes ``s J`` as ``sum_b L_b diag(x_b) R_b``
    over blocks of node coefficients ``x_b``: ``m_ac`` with ``L = D_a`` and
    ``R = D_c``, then for a varying warping ``s e_c`` with ``L = I`` and
    ``R = D_c``, on the unknown rows and columns.  Every difference
    commutes with the periodic shifts, so the entry at row ``i`` and
    offset ``p + q`` sums ``w_p[i] w_q[i + p] x_b[i + p]`` over the steps
    ``p`` of ``L_b`` and ``q`` of ``R_b``.  The weights change only on the
    first and the last node ring, so the rings beyond the stencil's reach
    from both ends share one table: a torus is one class, a disk five.
    """
    d = grid.ndim
    # the unknowns as (rings, *periodic): a disk's rings but the rim, a torus as one ring
    rings, *periodic = (1, *grid.shape) if grid.closed else (grid.shape[0] - 1, grid.shape[1])
    pairs = list(combinations_with_replacement(range(d), 2))
    partials = [_difference_offsets(grid, axis) for axis in range(d)]
    blocks = [(pairs.index((min(a, c), max(a, c))), partials[a], partials[c])
              for a in range(d) for c in range(d)]
    identity = [((0,) * (1 + len(periodic)), [1.0] * (rings + 1))]  # the drift's left factor
    blocks += [(len(pairs) + c, identity, partials[c]) for c in range(d) if varying]
    # a middle row reads within half the reach of its ring and writes within it,
    # so each ring nearer an end than the reach is a class of its own
    reach = 2 * max([abs(p[0]) for partial in partials for p, w in partial if any(w[1:-1])] or [0])
    bounds = sorted({0, rings, *range(1, reach + 1), *range(rings - reach, rings)})
    # to read x[i + p] into y[i] rotates each periodic axis: two slices where p is not 0
    rotations = {}
    for p, _ in (step for partial in (*partials, identity) for step in partial):
        cuts = [[(slice(None),) * 2] if k % n == 0 else
                [(slice(0, n - k % n), slice(k % n, n)), (slice(n - k % n, n), slice(0, k % n))]
                for k, n in zip(p[1:], periodic)]
        rotations[p[1:]] = [tuple(zip(*pieces)) for pieces in product(*cuts)]
    # each product of two steps: the read (coefficient, p), both weights and the offset p + q
    products = [((coeff, p), left, right, p[0], q[0],
                 (p[0] + q[0], *((a + b) % n for a, b, n in zip(p[1:], q[1:], periodic))))
                for coeff, lefts, rights in blocks
                for (p, left), (q, right) in product(lefts, rights)]
    classes, columns, end = [], [], 0
    for start, stop in zip(bounds, bounds[1:]):
        # the reads and offsets by position, and the weight of each pair
        reads, offsets, weights = {}, {(0,) * (1 + len(periodic)): 0}, {}
        for read, left, right, p, q, offset in products:
            mid = start + p
            if left[start] and 0 <= mid <= rings and right[mid] and 0 <= mid + q < rings:
                key = (reads.setdefault(read, len(reads)), offsets.setdefault(offset, len(offsets)))
                weights[key] = weights.get(key, 0.0) + left[start] * right[mid]
        copies = [((t, slice(None), *dst), (coeff, slice(start + p[0], stop + p[0]), *src))
                  for t, (coeff, p) in enumerate(reads) for dst, src in rotations[p[1:]]]
        table, offsets = np.zeros((len(reads), len(offsets))), np.array(list(offsets))
        for key, weight in weights.items():
            table[key] = weight
        # an entry's column: the number of its ring plus one part per periodic axis
        parts = [(np.arange(start, stop)[:, None] + offsets[:, 0]) * math.prod(periodic)]
        parts += [(np.arange(n)[:, None] + offsets[:, k + 1]) % n * math.prod(periodic[k + 1:])
                  for k, n in enumerate(periodic)]
        columns.append(sum(x.reshape([len(x) if j == k else 1 for j in range(len(parts))] + [-1])
                           for k, x in enumerate(parts)))
        classes.append(_RingClass(slice(start, stop), slice(end, end + columns[-1].size),
                                  tuple(copies), table, offsets))
        end += columns[-1].size
    indices = np.concatenate([c.ravel() for c in columns], dtype=np.int32 if end < 2**31 else int)
    counts = np.concatenate([np.full(c.size // c.shape[-1], c.shape[-1]) for c in columns])
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(indices.dtype)
    # the cell at the origin: two nodes along even axes, one along odd ones
    cell = (np.ravel_multi_index(np.indices([2 - n % 2 for n in grid.shape]), grid.shape).ravel()
            if grid.closed else np.empty(0, dtype=np.intp))
    pinned = np.zeros(counts.size, dtype=bool)
    pinned[cell] = True
    # the entries in a pinned row or column; a disk pins nothing
    pinned = np.flatnonzero(np.repeat(pinned, counts) | pinned[indices]) if cell.size else cell
    asm = _Assembly(indices, indptr, indptr[:-1], pinned, cell, tuple(classes), (rings, *periodic),
                    max(int(np.abs(cls.offsets[:, 0]).max()) for cls in classes))
    for array in asm[:5]:
        array.setflags(write=False)
    return asm


class _Problem:
    """Packing, guarded residual evaluation, the Jacobian's pattern, and the kept factor.

    The pattern (:meth:`_assembly`) is built by :func:`_assemble` on the
    first Jacobian and serves every later one of the problem; the kept
    factor serves the linear solves (:meth:`kept_solve`), which count in
    ``factorizations`` and ``krylov_iterations``.  The residual and the
    Jacobian read the arrays the product ``wp`` prepared, and :func:`_exit`
    reads ``wp``, the ``target`` and both counts.
    """

    def __init__(self, wp: WarpedProduct, target: ScalarField):
        wp.fiber.require_same(target.grid, "target curvature")
        self.wp = wp
        self.target = target
        self.grid = wp.fiber
        self.mask = self.grid.interior_mask.ravel()
        self.n_dof = int(self.mask.sum())
        self.lu = None
        self.factorizations = 0
        self.krylov_iterations = 0

    def residual_full(self, u_arr: np.ndarray) -> np.ndarray | None:
        """Residual node values, or None when the iterate or its residual is not finite."""
        try:
            # the overflow this probe exists to catch would otherwise warn
            with np.errstate(over="ignore", invalid="ignore"):
                u = ScalarField(self.grid, u_arr)
                return mean_curvature_residual(self.wp, u, self.target).values
        except ConstructionError:
            return None

    def start(self, u0: ScalarField) -> tuple[np.ndarray, np.ndarray | None, list[float]]:
        """A copy of the initial height, its packed residual, and the history they open.

        The residual is None and the history ``[inf]`` when the height or
        its residual is not finite: the solve ends ``diverged`` there.
        """
        u = u0.values.copy()
        res = self.residual_full(u)
        if res is None:
            return u, None, [math.inf]
        f_dof = self.pack(res)
        return u, f_dof, [float(np.abs(f_dof).max())]

    def pack(self, full: np.ndarray) -> np.ndarray:
        return full.ravel()[self.mask]

    def scatter(self, dof: np.ndarray) -> np.ndarray:
        full = np.zeros(self.grid.shape).ravel()
        full[self.mask] = dof
        return full.reshape(self.grid.shape)

    @cached_property
    def _assembly(self) -> _Assembly:
        """The pattern of this problem's Jacobians, and the tables that fill it."""
        # a tiny grid spacing multiplies its weights out of range; the Jacobians
        # filled from such tables are not finite, so the solve ends diverged
        with np.errstate(over="ignore", invalid="ignore"):
            return _assemble(self.grid, self.wp.dh is not None)

    def _on_pattern(self, data: np.ndarray) -> csr_matrix:
        """A matrix over the unknowns with ``data`` on the problem's pattern."""
        asm = self._assembly
        return csr_matrix((data, asm.indices, asm.indptr), shape=(self.n_dof, self.n_dof))

    def jacobian(self, u_arr: np.ndarray) -> csr_matrix | None:
        """Sparse Jacobian of the packed residual, or None when an entry is not finite.

        The exact derivative of the discrete residual by the chain rule.
        With ``g = sigma^{-1} D u`` and ``s = sqrt_det``, the derivative of
        the flux ``q_a = s (h/W) g^a`` is ``sum_c diag(m_ac) D_c`` with
        ``m_ac = s (h/W)(sigma^{ac} - h^2 g^a g^c / W^2)``, so
        ``J = diag(1/s) sum_ac D_a diag(m_ac) D_c``, plus
        ``sum_c diag(e_c) D_c`` for the drift of a varying warping, with
        ``e_c = sum_a dh_a (sigma^{ac} / W - h^2 g^a g^c / W^3)``.  Only
        the unknown rows and columns are kept.  Only the coefficients are
        computed here, ``m_ac`` once for ``a <= c`` since ``m_ca`` equals it,
        and ``s e_c``; each ring class of :func:`_assemble` reads them at its
        steps, multiplies them by its table and scales each row by ``1/s``.
        The columns are unsorted and ``indices`` shared read-only (see
        :class:`_Assembly`), so what sorts them in place (``abs``, ``.max()``,
        ``.power``, ``sum_duplicates``) raises ``ValueError`` and changes
        nothing; on ``jac.copy()`` it works.
        """
        wp, asm = self.wp, self._assembly
        d = self.grid.ndim
        pairs = list(combinations_with_replacement(range(d), 2))
        coeffs = np.empty((len(pairs) + d * (wp.dh is not None),) + self.grid.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            _, gu, _, W = wp.tilt(u_arr)
            flux = wp.sqrt_det * wp.h / W
            bend = wp.h2 / W**2
            for out, (a, c) in zip(coeffs, pairs):
                np.multiply(flux, wp.inv[a][c] - bend * gu[a] * gu[c], out=out)
            if wp.dh is not None:
                pull = sum(wp.dh[a] * gu[a] for a in range(d)) * bend
                for out, c in zip(coeffs[len(pairs):], range(d)):
                    np.divide(sum(wp.dh[a] * wp.inv[a][c] for a in range(d)) - pull * gu[c], W,
                              out=out)
                coeffs[len(pairs):] *= wp.sqrt_det
            rings, *periodic = asm.layout
            fields = coeffs.reshape(len(coeffs), -1, *periodic)  # node rings, then periodic
            inv_s = (1.0 / self.pack(wp.sqrt_det)).reshape(rings, -1)
            data = np.empty(asm.indices.size)
            for cls in asm.classes:
                reads = np.empty((len(cls.table), cls.rings.stop - cls.rings.start, *periodic))
                for dst, src in cls.copies:
                    reads[dst] = fields[src]
                block = data[cls.span].reshape(-1, len(cls.offsets))
                np.matmul(reads.reshape(len(reads), -1).T, cls.table, out=block)
                block *= inv_s[cls.rings].reshape(-1, 1)
        return self._on_pattern(data) if np.isfinite(data).all() else None

    def linear_step(self, jac: csr_matrix, f_dof: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve ``jac @ delta = -f`` with the pinned companion; returns ``(delta, info)``.

        The companion replaces the pinned rows and columns by the identity,
        so its solution vanishes on the pinned cell and meets every other
        row.  It is a copy of ``jac``'s entries on the shared pattern with
        the pinned rows and columns zeroed and their diagonal set to 1, and
        is solved by :meth:`kept_solve`.  Where nothing is pinned (a disk)
        the companion is ``jac`` itself, and the solve may try the inverse
        of its averaged stencil first.
        """
        asm = self._assembly
        if not asm.cell.size:
            return self.kept_solve(jac, -f_dof, averaged=True)
        free = np.ones(self.n_dof)
        free[asm.cell] = 0.0
        data = jac.data.copy()
        data[asm.pinned] = 0.0
        data[asm.diagonal[asm.cell]] = 1.0
        return self.kept_solve(self._on_pattern(data), -free * f_dof)

    def flow_step(self, jac: csr_matrix, dt: float, f_dof: np.ndarray) -> np.ndarray:
        """The Rosenbrock-Euler step: ``(I - dt J) delta = dt F``, or NaN when unsolved.

        ``I - dt J`` is ``-dt`` times ``jac``'s entries plus 1 on the
        diagonal, on the shared pattern.  The step comes from
        :meth:`kept_solve`, which may try the inverse of the matrix's
        averaged stencil first, so a flow builds no factor while that
        carries its steps.  Then
        one exact correction along the constants makes its
        ``sqrt_det``-weighted residual vanish to rounding:
        ``delta += (s.r) / (s.(A 1))`` with ``A = I - dt J``, ``s`` the
        packed ``sqrt_det`` and ``r = dt F - A delta``.  On closed fibers
        ``J 1 = 0``, and with constant warping ``s^T A = s^T``, so each
        step moves the weighted mean by ``dt * mean(F)`` to rounding, not
        only to ``_LINEAR_RTOL``.  A singular matrix or a GMRES run that
        stops short gives a step of NaN.
        """
        data = -dt * jac.data
        data[self._assembly.diagonal] += 1.0
        matrix = self._on_pattern(data)
        rhs = dt * f_dof
        delta, info = self.kept_solve(matrix, rhs, averaged=True)
        if info != 0:
            return np.full(self.n_dof, np.nan)
        s = self.pack(self.wp.sqrt_det)
        delta += (s @ (rhs - matrix @ delta)) / (s @ (matrix @ np.ones(self.n_dof)))
        return delta

    def _averaged_inverse(self, data: np.ndarray):
        """The exact inverse of the averaged stencil of ``data`` on the pattern, or None.

        Averaging each offset of a ring class over the rows of one ring
        gives weights ``w[r, o]`` on ring ``r`` and offset ``o``, an operator
        ``x[r] -> sum_o w[r, o] x[r + o_ring][. + o_periodic]`` that
        commutes with every periodic shift.  So each Fourier mode along
        the periodic axes is mapped to itself, through a band matrix in
        the ring index whose entries are ``conj(rfftn(w))``.  On a disk
        those bands, laid out mode after mode, make one block-diagonal band
        matrix, factored once by LAPACK's banded LU with row swaps
        (``zgbtrf``) and applied between two FFTs by one banded solve
        (``zgbtrs``).  On a torus the band is one entry, and the inverse
        is two FFTs and a division.  A singular or non-finite factor, or a
        zero or non-finite entry on a torus, gives None.
        """
        rings, *periodic = self._assembly.layout
        band = self._assembly.band
        # as LAPACK stores a band of kl = ku = b below its b rows of fill: the
        # weight A[r, r + o] of ring r at radial step o at row b - o of column r + o
        stencil = np.zeros((2 * band + 1, rings, *periodic))
        mean = np.full(math.prod(periodic), 1.0 / math.prod(periodic))  # over a ring's rows
        for cls in self._assembly.classes:
            radial, *steps = cls.offsets.T
            rows = np.arange(rings)[cls.rings, None]
            stencil[(band - radial, rows + radial, *steps)] = mean @ data[cls.span].reshape(
                len(rows), len(mean), -1)
        bands = np.conj(np.fft.rfftn(stencil, axes=tuple(range(2, stencil.ndim))))
        modes = bands.shape[2:]
        axes = tuple(range(1, stencil.ndim - 1))
        if band:
            # the columns take the rings of mode 0, then of mode 1, ...
            ab = np.zeros((3 * band + 1, bands[0].size), dtype=complex, order="F")
            ab[band:] = bands.reshape(2 * band + 1, -1, order="F")
            lu, pivots, info = zgbtrf(ab, band, band, overwrite_ab=True)
            if info or not np.isfinite(lu).all():
                return None
        else:
            diagonal = bands[0, 0]
            if not (np.isfinite(diagonal).all() and diagonal.all()):
                return None

        def inverse(z):
            y = np.fft.rfftn(z.reshape(rings, *periodic), axes=axes)
            if band:
                y, _ = zgbtrs(lu, band, band, y.reshape(rings, -1).T.reshape(-1, 1), pivots,
                              overwrite_b=True)
                y = y.reshape(-1, rings).T.reshape(rings, *modes)
            else:
                y /= diagonal
            return np.fft.irfftn(y, s=periodic, axes=axes).ravel()

        return inverse

    def kept_solve(self, matrix, rhs: np.ndarray,
                   averaged: bool = False) -> tuple[np.ndarray, int]:
        """Solve ``matrix @ x = rhs`` on the kept preconditioner; returns ``(x, info)``.

        An LU factor kept from an earlier matrix is tried first.  While no
        factor is kept and the caller asks for it (``averaged``), the
        inverse of the averaged stencil of ``matrix`` is tried instead.
        When the one tried falls short, the factor of ``matrix`` is built
        and kept from then on.  Each is one run of :meth:`_cycled_gmres`,
        under its one stop rule.  ``info`` is the last GMRES run's own (0
        when converged).  A singular matrix gives ``x`` of NaN.
        """
        inverse = self.lu.solve if self.lu is not None else (
            self._averaged_inverse(matrix.data) if averaged else None)
        if inverse is not None:
            x, info = self._cycled_gmres(matrix, rhs, inverse)
            if info == 0:
                return x, info
            self.lu = None  # dropped before its successor is built, not beside it
        self.lu = _factor(matrix)
        self.factorizations += 1
        if self.lu is None:
            return np.full(self.n_dof, np.nan), 0
        return self._cycled_gmres(matrix, rhs, self.lu.solve)

    def _cycled_gmres(self, matrix, rhs: np.ndarray, inverse) -> tuple[np.ndarray, int]:
        """GMRES on ``inverse @ matrix``, restarted while one more cycle could finish.

        The preconditioner is applied on the left, so GMRES measures the
        residual after ``inverse``, which bounds the error in ``x`` by the
        condition of ``inverse @ matrix`` and not that of ``matrix``: an
        averaged stencil's inverse that met the residual of ``matrix``
        alone could leave a disk step wrong by far more than
        ``_LINEAR_RTOL``.  It runs to a relative residual of
        ``_LINEAR_RTOL`` in restart cycles of ``_KRYLOV_RESTART``
        iterations, ``_MAX_LINEAR`` in all.  This is the one stop rule of
        every run, whatever ``inverse`` is: a cycle that falls short is
        followed by another only if one more at its rate would finish,
        that is, if the square of its relative residual is at most
        ``_LINEAR_RTOL`` times the previous cycle's (1 before the first).
        So a slow or stalled run, and one that rounding keeps above
        ``_LINEAR_RTOL``, ends short, and the caller builds a factor or
        refuses the step.  GMRES runs on ``rhs`` scaled by the power of two
        that brings its sup near 1, and the solution is scaled back, so the
        run is that on ``rhs`` itself, bit for bit, while its norms stay in
        the float range; a solution beyond it reads inf.  Each action of
        ``matrix`` counts in ``krylov_iterations``.
        """
        restart = min(_KRYLOV_RESTART, _MAX_LINEAR)
        cycles = -(-_MAX_LINEAR // restart)

        def matvec(z):
            self.krylov_iterations += 1
            return inverse(matrix @ z)

        A = LinearOperator(matrix.shape, matvec=matvec, dtype=float)
        e = math.frexp(float(np.abs(rhs).max()))[1]
        target = inverse(np.ldexp(rhs, -e))
        x, residual = None, 1.0
        for cycle in range(cycles):
            x, info = gmres(A, target, x0=x, rtol=_LINEAR_RTOL, atol=0.0, restart=restart,
                            maxiter=1)
            if info == 0 or cycle == cycles - 1:
                break
            last, residual = residual, np.linalg.norm(target - A @ x) / np.linalg.norm(target)
            if not residual * residual <= _LINEAR_RTOL * last:  # NaN stops it too
                break
        with np.errstate(over="ignore"):  # a solution beyond the float range reads inf
            return np.ldexp(x, e), info


def _factor(matrix):
    """Sparse LU factor of a matrix with the residual's stencil pattern, or None if singular."""
    # the shared pattern stores zeros (the cross terms at a flat start) that
    # the factor would fill; they are dropped from this copy only
    csc = matrix.tocsc(copy=True)
    csc.eliminate_zeros()
    # the stencil pattern is symmetric and the operator elliptic, so order
    # on A + A^T and prefer diagonal pivots; left to general row pivoting
    # the same fill takes ten times as long to compute
    try:
        return splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                    options={"SymmetricMode": True})
    except RuntimeError:  # splu found the matrix exactly singular
        return None


def _exit(prob: _Problem, u_arr: np.ndarray, verdict: Verdict, history: list[float],
          drift: float = 0.0, witness: float | None = None
          ) -> tuple[GraphState | None, SolveReport]:
    """The final state and report of a solve of ``prob`` that ends at height ``u_arr``.

    The product and the target of the state, and the report's
    ``factorizations`` and ``krylov_iterations``, are read from ``prob``.
    A finite height can still overflow its derived fields (a near-max
    float spike does).  Divergence must be reported, not raised, so when
    the height or its residual is not finite the state is None and the
    height oscillation and gradient sup read infinite.  ``iterations`` is
    one less than the length of ``history``.  An ``obstructed`` verdict,
    given on a closed fiber only, came from the witness when ``witness`` is
    set, else from a stalled step.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            state = GraphState(prob.wp, ScalarField(prob.grid, u_arr), prob.target)
            osc, gsup = float(u_arr.max() - u_arr.min()), state.grad_sup
    except ConstructionError:
        state, osc, gsup = None, math.inf, math.inf
    source = (None if verdict is not Verdict.obstructed
              else "stalled_step" if witness is None else "witness")
    return state, SolveReport(verdict, len(history) - 1, history, osc, drift, gsup,
                              prob.factorizations, prob.krylov_iterations, witness, source)


def newton_solve(wp: WarpedProduct, target_curvature: ScalarField, u0: ScalarField,
                 opts: SolveOptions = SolveOptions()) -> tuple[GraphState | None, SolveReport]:
    """Damped Newton iteration on the prescribed-curvature residual.

    Each step assembles the exact sparse Jacobian (see
    :meth:`_Problem.jacobian`) and solves for the step by GMRES on its pinned
    companion (see :meth:`_Problem.linear_step`): on a disk, preconditioned by
    the inverse of the Jacobian's averaged stencil; on a closed fiber, by the
    LU factor of an earlier step's companion while GMRES on it converges (see
    :meth:`_Problem._cycled_gmres`), by its own otherwise.
    :func:`remove_null_modes` then makes the step mean-free on closed fibers.
    Damping is Armijo backtracking on half the squared residual norm, the
    merit, along the step, negated when the merit rises along it: the length
    halves from 1 until a trial meets the sufficient decrease, and that trial
    is taken.  The merit, its slope and each trial's merit are those of the
    residual times ``2**-e``, with ``2**e`` the power of two just above the
    step's sup residual: a power of two scales exactly, so the decisions are
    those of the residual itself wherever its merit does not overflow.  The
    stop rule: a step *stalls* when its slope is zero, or when
    no trial meets Armijo down to the shortest, ``2**-19`` (the last length
    not below ``_MIN_STEP``); the first stalled step ends the solve at the
    height it started from, and adds nothing to the history.  Verdicts:
    ``converged`` (sup residual at or below ``tol_abs``), ``obstructed``
    (on a closed fiber only: from the compatibility witness before
    iterating, or at a stalled step), ``diverged`` (non-finite iterate,
    tilt, Jacobian entry or step, or a singular factor), ``max_iter``
    otherwise, which includes a linear solve that does not converge (its
    step is not taken) and a stalled step on a disk, where no certificate
    of non-existence exists: a rough start can stall there though a graph
    exists.  The witness decides only a constant warping; the stalled step
    serves a varying one, and its report carries no ``obstruction_witness``.
    On divergence the returned state holds the last representable iterate;
    if none is, the state is None and the diagnostics read infinite.
    """
    wp.fiber.require_same(u0.grid, "initial height")
    prob = _Problem(wp, target_curvature)
    u, f_dof, history = prob.start(u0)
    witness = obstruction_witness(wp, target_curvature)
    if witness is not None:
        return _exit(prob, u, Verdict.obstructed, history, witness=witness)
    if f_dof is None:
        return _exit(prob, u, Verdict.diverged, history)

    for _ in range(opts.max_newton):
        if history[-1] <= opts.tol_abs:
            break
        jac = prob.jacobian(u)
        if jac is None:
            return _exit(prob, u, Verdict.diverged, history)
        delta, info = prob.linear_step(jac, f_dof)
        if not np.isfinite(delta).all():
            return _exit(prob, u, Verdict.diverged, history)
        if info != 0:
            # an unconverged linear solve gives no Newton step to take
            return _exit(prob, u, Verdict.max_iter, history)
        delta = remove_null_modes(prob.grid, delta)
        cap = _STEP_CAP_FACTOR * (1.0 + float(np.abs(u).max()))
        delta_sup = float(np.abs(delta).max())
        if delta_sup > cap:
            delta *= cap / delta_sup

        e = math.frexp(history[-1])[1]
        f_scaled = np.ldexp(f_dof, -e)
        slope = math.ldexp(float(f_scaled @ (jac @ delta)), -e)
        if slope > 0.0:
            delta = -delta
            slope = -slope
        merit = 0.5 * float(f_scaled @ f_scaled)

        step = 1.0 if slope != 0.0 else 0.0  # each trial would meet Armijo, with no decrease
        while step >= _MIN_STEP:
            trial = u + step * prob.scatter(delta)
            trial_res = prob.residual_full(trial)
            if trial_res is None:
                return _exit(prob, u, Verdict.diverged, history)
            trial_dof = prob.pack(trial_res)
            with np.errstate(over="ignore"):  # an overflowed trial merit fails Armijo
                trial_scaled = np.ldexp(trial_dof, -e)
                trial_merit = 0.5 * float(trial_scaled @ trial_scaled)
            if trial_merit <= merit + _ARMIJO_C * step * slope:
                u, f_dof = trial, trial_dof
                break
            step *= 0.5
        else:
            # a disk has no certificate of non-existence: its stall is exhaustion
            return _exit(prob, u, Verdict.obstructed if prob.grid.closed else Verdict.max_iter,
                         history)
        history.append(float(np.abs(f_dof).max()))

    return _exit(prob, u, Verdict.converged if history[-1] <= opts.tol_abs else Verdict.max_iter,
                 history)


def flow_solve(wp: WarpedProduct, target_curvature: ScalarField, u0: ScalarField,
               opts: SolveOptions = SolveOptions(), t_max: float = 10.0
               ) -> tuple[GraphState | None, SolveReport]:
    """Linearly implicit relaxation ``du/dt = F(u)`` until ``t_max`` or convergence.

    Each step is Rosenbrock-Euler, ``(I - dt J) delta = dt F(u)`` on the
    unknowns, with the exact Jacobian ``J`` of :meth:`_Problem.jacobian`,
    solved by :meth:`_Problem.flow_step` by GMRES: while no factor is
    kept, on the inverse of the averaged stencil of ``I - dt J``, which
    builds no factor; else on the LU factor kept from an earlier trial
    (see :meth:`_Problem._cycled_gmres`).  A step is at most
    ``t_max / 16`` and the last one ends the run at ``t_max``.  The
    residual judges each trial: along the exact flow ``F`` solves a linear
    parabolic equation and its sup cannot rise, so a trial that raises it
    beyond its own rounding, is not finite, or whose linear solve fails
    (a singular matrix or an unconverged GMRES run) is not taken and
    ``dt`` halves; after each accepted step ``dt`` doubles back toward the
    maximum.  The run ends ``max_iter`` after 64 trials.  ``iterations``
    counts accepted steps, and ``diverged`` means a non-finite start or
    Jacobian entry.
    When the final height or its residual is not finite, the state is None
    and the diagnostics read infinite.

    The recorded ``mean_drift_rate`` is minus the time derivative of the
    mean height over the final fifth of the accepted steps, from the exact
    means at the window's ends.  On closed fibers with constant warping
    ``sqrt_det^T J = 0``, so every step, corrected along the constants,
    moves the mean by ``dt * mean(F)`` to rounding and the rate equals
    ``n * integral(H) / Vol``.
    """
    wp.fiber.require_same(u0.grid, "initial height")
    if not 0.0 < t_max < math.inf:
        raise ConstructionError("t_max must be positive and finite")
    prob = _Problem(wp, target_curvature)
    vol = volume(wp.metric)

    def mean(u):
        return integrate(ScalarField(wp.fiber, u), wp.metric) / vol

    u, f_dof, history = prob.start(u0)
    if f_dof is None:
        return _exit(prob, u, Verdict.diverged, history)
    # times as fractions of t_max: halving and doubling keep them exact
    times, means = [0.0], [mean(u)]
    span = 1.0 / _FLOW_MIN_STEPS
    verdict = Verdict.max_iter
    jac = None

    for _ in range(_FLOW_MAX_TRIALS):
        if history[-1] <= opts.tol_abs or times[-1] >= 1.0:
            break
        if jac is None:
            jac = prob.jacobian(u)
            if jac is None:
                verdict = Verdict.diverged
                break
            # a rise within the residual's own rounding, about eps |J| |u|, is no rise;
            # |J| is the largest row sum of the data, and every row holds its diagonal
            slack = (_MACHINE_EPS * (1.0 + float(np.abs(u).max()))
                     * float(np.add.reduceat(np.abs(jac.data), jac.indptr[:-1]).max()))
        step = min(span, 1.0 - times[-1])
        # a step that could not be solved is not finite, hence rejected
        trial = u + prob.scatter(prob.flow_step(jac, step * t_max, f_dof))
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
    return _exit(prob, u, verdict, history, drift)


def maximum_principle_check(state_a: GraphState, state_b: GraphState,
                            tol_solve: float = 1e-6) -> float:
    """Sup distance between two solved states of the same problem.

    Bounded by solver tolerances on Dirichlet problems (discrete
    uniqueness); on closed fibers the free additive constant shows up in the
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
        state.require_solved(tol_solve, "maximum principle comparison")
    diff = state_a.height.values - state_b.height.values
    return float(np.abs(diff).max())
