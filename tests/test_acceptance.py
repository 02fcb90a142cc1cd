"""Acceptance battery: ten numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every criterion measures against its stated tolerance and
its stated runtime budget on the grid sizes named in the assertions.
Criteria 2, 3, 4 and 9, and the Ricci sign half of criterion 8, read
their numbers from the matching ``pmclab verify`` suite, called inside
the criterion's own timed region, so each budget still covers the work.
Criterion 7 checks the solved hyperbolic-disk gradient profile against
the closed-form leading mode ``0.5 (rho/R)^3 sin(3 theta)``, whose
hyperbolic gradient norm ``1.5 rho^2 / R^3 * (1 - rho^2) / 2`` keeps
its mass at the rim of any truncated ball model; decay below the
mid-disk level only emerges as ``R -> 1``.
"""

import math
import time

import numpy as np

from pmclab import (
    ScalarField,
    SolveOptions,
    VectorField,
    WarpedProduct,
    build_hyperbolic_disk,
    build_torus,
    divergence,
    flow_solve,
    gradient,
    integrate,
    newton_solve,
    norm_sq,
    radial_ricci,
)
from pmclab.scenarios import (
    _suite_conformal_order,
    _suite_height_identity_order,
    _suite_operator_order,
    _suite_quasi_isometry,
    _suite_ricci_sign,
)
from pmclab.solver import _Problem

from difference_action import jacobian_action
from test_ricci_oracle import _oracle_ricci, _warping as _oracle_warping


def _verdict(index: int, label: str, ok: bool, elapsed: float, budget: float,
             detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {index:>2}  {label:<42} {status}  "
          f"[{elapsed:6.2f}s / {budget:.0f}s]  {detail}")


def _warped_torus(n: int):
    grid, metric = build_torus((n, n))
    x1, _ = grid.meshes()
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(x1))
    return WarpedProduct(grid, metric, warping)


def _smooth_start(grid, seed: int) -> ScalarField:
    # low-frequency seeded start; nodal white noise saturates h|grad u|
    # at this spacing and measures the saturation plateau instead of the
    # equation (see the solver tests for the checkerboard null mode)
    rng = np.random.Generator(np.random.PCG64(seed))
    c = rng.uniform(-0.15, 0.15, size=8)
    x1, x2 = grid.meshes()
    vals = (c[0] * np.sin(x1) + c[1] * np.cos(x1)
            + c[2] * np.sin(x2) + c[3] * np.cos(x2)
            + c[4] * np.sin(x1 + x2) + c[5] * np.cos(x1 - x2)
            + c[6] * np.sin(2.0 * x1) + c[7] * np.cos(2.0 * x2))
    return ScalarField(grid, vals)


def test_criterion_01_discrete_divergence_theorem():
    start = time.perf_counter()
    grid, metric = build_torus((64, 64))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        comp = rng.standard_normal(grid.shape + (2,))
        total = abs(integrate(divergence(VectorField(grid, comp), metric), metric))
        length = np.sqrt(np.maximum(
            np.einsum("...ij,...i,...j->...", metric.mat, comp, comp), 0.0))
        scale = integrate(ScalarField(grid, length), metric) + 1.0
        worst = max(worst, total / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(1, "divergence theorem, 100 random fields", ok, elapsed, 5.0,
             f"worst normalized |total div| {worst:.3e} <= 1e-12")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_operator_convergence_order():
    start = time.perf_counter()
    values = _suite_operator_order()["values"]
    g_ratio, l_ratio = values["gradient_ratio"], values["laplacian_ratio"]
    elapsed = time.perf_counter() - start
    ok = g_ratio >= 3.5 and l_ratio >= 3.5 and elapsed < 5.0
    _verdict(2, "gradient/laplacian order, 32^2 to 64^2", ok, elapsed, 5.0,
             f"error ratios gradient {g_ratio:.3f}, laplacian {l_ratio:.3f} >= 3.5")
    assert g_ratio >= 3.5
    assert l_ratio >= 3.5
    assert elapsed < 5.0


def test_criterion_03_height_identity_order_on_solved_states():
    start = time.perf_counter()
    suite = _suite_height_identity_order()
    r32, r64 = suite["values"]["residual_32"], suite["values"]["residual_64"]
    order = suite["orders"]["height_identity"]
    elapsed = time.perf_counter() - start
    ok = 1.7 <= order <= 2.3 and elapsed < 60.0
    _verdict(3, "height identity order, 32^2 to 64^2", ok, elapsed, 60.0,
             f"residuals {r32:.3e} -> {r64:.3e}, order {order:.3f} in [1.7, 2.3]")
    assert 1.7 <= order <= 2.3
    assert elapsed < 60.0


def test_criterion_04_conformal_laplacian_on_lifted_torus():
    # the suite's direct 16^3 and 24^3 tori carry the circle-invariant
    # metric of the lifted 2-torus, so their residuals are the lift's bit for bit
    start = time.perf_counter()
    values = _suite_conformal_order()["values"]
    r16, ratio = values["residual_16"], values["residual_24"] / values["residual_16"]
    elapsed = time.perf_counter() - start
    # second order between 16^3 and 24^3 means a (16/24)^2 = 0.44 drop;
    # 0.6 is that drop with headroom for the subleading terms
    ok = r16 <= 1e-3 and ratio <= 0.6 and elapsed < 60.0
    _verdict(4, "conformal laplacian, 16^3 and 24^3 lift", ok, elapsed, 60.0,
             f"residual 16^3 {r16:.3e} <= 1e-3, refinement drop {ratio:.3f} <= 0.6")
    assert r16 <= 1e-3
    assert ratio <= 0.6
    assert elapsed < 60.0


def test_criterion_05_closed_fiber_solutions_are_level():
    start = time.perf_counter()
    wp = _warped_torus(64)
    zero = ScalarField.constant(wp.fiber, 0.0)
    worst_osc = 0.0
    worst_res = 0.0
    for seed in (101, 202, 303):
        state, report = newton_solve(wp, zero, _smooth_start(wp.fiber, seed),
                                     SolveOptions())
        assert report.verdict == "converged"
        worst_osc = max(worst_osc, report.u_oscillation)
        worst_res = max(worst_res, state.interior_residual_sup())
    elapsed = time.perf_counter() - start
    ok = worst_osc <= 1e-6 and worst_res <= 1e-10 and elapsed < 60.0
    _verdict(5, "level limits from three seeded starts", ok, elapsed, 60.0,
             f"worst oscillation {worst_osc:.3e} <= 1e-6, "
             f"worst residual {worst_res:.3e} <= 1e-10")
    assert worst_osc <= 1e-6
    assert worst_res <= 1e-10
    assert elapsed < 60.0


def test_criterion_06_obstruction_witness_and_drift():
    start = time.perf_counter()
    grid, metric = build_torus((64, 64))
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    target = ScalarField.constant(grid, 0.1)
    u0 = ScalarField.constant(grid, 0.0)

    _, newton_report = newton_solve(wp, target, u0, SolveOptions())
    witness_gap = abs(abs(newton_report.obstruction_witness)
                      - 2.0 * 0.1 * 4.0 * math.pi**2)

    _, flow_report = flow_solve(wp, target, u0, SolveOptions(), t_max=5.0)
    drift = flow_report.mean_drift_rate
    elapsed = time.perf_counter() - start
    ok = (newton_report.verdict == "obstructed" and witness_gap <= 1e-10
          and abs(drift - 0.2) <= 0.1 * 0.2 and elapsed < 120.0)
    _verdict(6, "non-existence witness and mean drift", ok, elapsed, 120.0,
             f"witness gap {witness_gap:.3e} <= 1e-10, drift {drift:.6f} "
             "within 10% of 0.2")
    assert newton_report.verdict == "obstructed"
    assert witness_gap <= 1e-10
    assert abs(drift - 0.2) <= 0.1 * 0.2
    assert flow_report.verdict == "max_iter"
    assert elapsed < 120.0


def test_criterion_07_hyperbolic_disk_counterexample():
    start = time.perf_counter()
    radius = 0.875
    grid, metric = build_hyperbolic_disk(64, 128, radius)
    wp = WarpedProduct(grid, metric, ScalarField.constant(grid, 1.0))
    zero_target = ScalarField.constant(grid, 0.0)

    boundary = 0.5 * np.sin(3.0 * grid.axes[1])
    u0_vals = np.zeros(grid.shape)
    u0_vals[-1, :] = boundary
    state, report = newton_solve(wp, zero_target, ScalarField(grid, u0_vals),
                                 SolveOptions())
    u = state.height.values

    # seeded low-frequency starts, matching the boundary row; nodal white
    # noise saturates h|grad u| near the axis and stagnates honestly
    rho_mesh, theta_mesh = grid.meshes()

    def _disk_start(seed: int) -> ScalarField:
        rng = np.random.Generator(np.random.PCG64(seed))
        vals = np.zeros(grid.shape)
        for m in range(1, 5):
            a, b = rng.uniform(-0.3, 0.3, 2)
            vals += (rho_mesh / radius) ** m * (a * np.sin(m * theta_mesh)
                                                + b * np.cos(m * theta_mesh))
        vals[-1, :] = boundary
        return ScalarField(grid, vals)

    agreement = 0.0
    for seed in (3, 4):
        other, other_report = newton_solve(wp, zero_target, _disk_start(seed),
                                           SolveOptions())
        assert other_report.verdict == "converged"
        agreement = max(agreement, float(np.abs(other.height.values - u).max()))

    bound_low = float(boundary.min()) - 1e-8
    bound_high = float(boundary.max()) + 1e-8
    within_bounds = bound_low <= u.min() and u.max() <= bound_high

    gnorm = np.sqrt(norm_sq(gradient(state.height, metric), metric).values)
    rho = grid.axes[0]
    outer = (rho >= 0.9 * radius) & (rho < rho[-1])  # rim rings, pinned excluded
    mid = np.abs(rho - 0.5 * radius) <= 0.05 * radius
    outer_mean = float(gnorm[outer, :].mean())
    mid_mean = float(gnorm[mid, :].mean())
    ratio = outer_mean / mid_mean
    # the leading mode 0.5 (rho/R)^3 sin(3 theta) is hyperbolic-harmonic
    # (harmonicity is conformally invariant in two dimensions) and its
    # hyperbolic gradient norm does not depend on theta
    mode_gnorm = 1.5 * rho**2 / radius**3 * (1.0 - rho**2) / 2.0
    mode_ratio = float(mode_gnorm[outer].mean() / mode_gnorm[mid].mean())
    profile_gap = abs(ratio / mode_ratio - 1.0)

    elapsed = time.perf_counter() - start
    ok = (report.verdict == "converged" and report.u_oscillation > 0.5
          and within_bounds and math.isfinite(report.grad_sup)
          and agreement <= 1e-8 and profile_gap <= 0.02 and elapsed < 120.0)
    _verdict(7, "bounded non-level hyperbolic-disk graph", ok, elapsed, 120.0,
             f"oscillation {report.u_oscillation:.3f}, starts agree to "
             f"{agreement:.2e}, rim/mid gradient ratio {ratio:.4f} vs "
             f"closed-form mode {mode_ratio:.4f} (gap {profile_gap:.2%} <= 2%)")
    assert report.verdict == "converged"
    assert report.u_oscillation > 0.5
    assert within_bounds
    assert math.isfinite(report.grad_sup)
    assert agreement <= 1e-8
    assert elapsed < 120.0
    # the bounded minimal graph keeps its gradient mass at the rim, as the
    # closed-form mode does; the solved rim/mid ratio must match the mode's
    assert profile_gap <= 0.02, (
        f"rim/mid gradient ratio {ratio:.4f} departs from the closed-form "
        f"mode's {mode_ratio:.4f} by {profile_gap:.2%}"
    )


def test_criterion_08_radial_ricci_sign_and_oracle():
    start = time.perf_counter()
    values = _suite_ricci_sign()["values"]
    ric_min, const_sup = values["ricci_min"], values["constant_warping_sup"]
    oracle = _oracle_ricci(16, _oracle_warping)
    grid16, metric16 = build_torus((16, 16))
    x1, x2 = grid16.meshes()
    wp16 = WarpedProduct(grid16, metric16,
                         ScalarField(grid16, _oracle_warping(x1, x2)))
    formula = radial_ricci(wp16).values
    gap = float(np.abs(oracle[2, 2] - formula[:, :, None]).max())
    # second-order stencils at spacing 2 pi / 16: gap measured at about
    # 0.12 (Delta x)^2, gated with headroom
    gap_gate = 2.5e-2

    elapsed = time.perf_counter() - start
    ok = (ric_min < -1e-3 and const_sup <= 1e-14 and gap <= gap_gate
          and elapsed < 60.0)
    _verdict(8, "radial Ricci sign and curvature oracle", ok, elapsed, 60.0,
             f"min {ric_min:.4f} < -1e-3, constant sup {const_sup:.1e} <= 1e-14, "
             f"oracle gap {gap:.3e} <= {gap_gate:.1e}")
    assert ric_min < -1e-3
    assert const_sup <= 1e-14
    assert gap <= gap_gate
    assert elapsed < 60.0


def test_criterion_09_quasi_isometry_bounds():
    start = time.perf_counter()
    values = _suite_quasi_isometry()["values"]
    worst_min, worst_excess = values["worst_lambda_min"], values["worst_excess_over_bound"]
    elapsed = time.perf_counter() - start
    ok = worst_min >= 1.0 - 1e-12 and worst_excess <= 1e-10 and elapsed < 10.0
    _verdict(9, "quasi-isometry bounds, 20 random pairs", ok, elapsed, 10.0,
             f"worst lambda_min {worst_min:.12f} >= 1-1e-12, "
             f"worst excess {worst_excess:.3e} <= 1e-10")
    assert worst_min >= 1.0 - 1e-12
    assert worst_excess <= 1e-10
    assert elapsed < 10.0


def test_criterion_10_jacobian_action_consistency():
    start = time.perf_counter()
    grid, metric = build_torus((32, 32))
    x1, x2 = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField(grid, 1.0 + 0.3 * np.cos(x1)))
    zero = ScalarField.constant(grid, 0.0)
    prob = _Problem(wp, zero)

    u = 0.8 * np.sin(x1) + 0.5 * np.cos(2.0 * x2)
    v_dof = np.random.default_rng(5).standard_normal(prob.n_dof)
    j_v = jacobian_action(prob, u, v_dof)

    eps_values = (1e-3, 1e-4, 1e-5)
    errors = []
    for eps in eps_values:
        step = eps * prob.scatter(v_dof)
        diff = (prob.residual_full(u + step) - prob.residual_full(u - step)) / (2.0 * eps)
        errors.append(float(np.abs(prob.pack(diff) - j_v).max()))
    slope = float(np.polyfit(np.log10(eps_values), np.log10(errors), 1)[0])
    elapsed = time.perf_counter() - start
    ok = 1.7 <= slope <= 2.3 and elapsed < 10.0
    _verdict(10, "matrix-free jacobian consistency", ok, elapsed, 10.0,
             f"errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e}, "
             f"least-squares order {slope:.3f} in [1.7, 2.3]")
    assert 1.7 <= slope <= 2.3
    assert elapsed < 10.0
