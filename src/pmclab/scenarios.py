"""Config-driven experiment runner.

A scenario is a JSON document naming a fiber grid, a metric, a warping,
a target curvature, initial (and for disks boundary) data, solver
options, and a list of post-solve checks.  :func:`parse_config` validates
everything eagerly (unknown keys, malformed formulas, sign-violating
warpings, and checks that cannot run on the declared fiber are all
rejected before any solve starts) and produces a normalized echo that
round-trips byte-identically through ``json.dumps(sort_keys=True)``.

:func:`run_scenario` solves, runs the requested checks, and packages a
:class:`RunReport` whose JSON form is deterministic for a fixed config
and seed (wall time is the one excluded field).  A small battery of
refinement studies lives in :func:`run_verification_suite`.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .formulas import Formula, FormulaError, parse_random_spec, random_field_values
from .geometry import (
    ConstructionError,
    FiberGrid,
    GridKind,
    MetricField,
    ModelDomainError,
    ScalarField,
    build_hyperbolic_disk,
    build_polar_disk,
    build_torus,
    conformal_scale,
    dump_field_csv,
    gradient,
    laplace_beltrami,
    lift_to_circle,
)
from .solver import Gauge, SolveOptions, SolveReport, Verdict, flow_solve, newton_solve
from .warped import (
    _LIFT_CIRCLE_NODES,
    GraphState,
    PreconditionError,
    WarpedProduct,
    _tilt_pieces,
    check_conformal_laplacian,
    check_height_identity,
    check_superharmonic,
    compatibility_integral,
    mean_curvature_residual,
    obstruction_threshold,
    quasi_isometry_constants,
    radial_ricci,
    unit_normal,
)


class ValidationError(ValueError):
    """Raised for malformed or inconsistent scenario configs."""


CHECK_NAMES = (
    "height_identity",
    "conformal_laplacian",
    "quasi_isometry",
    "ricci_sign",
    "compatibility",
    "superharmonic",
)

_EXPECTATIONS = ("converged", "obstructed")
_TORUS_KINDS = frozenset({"torus", "torus2d", "torus3d_lifted"})
_DISK_KINDS = frozenset({"disk", "disk_polar"})

_HEIGHT_IDENTITY_TOL = 5e-2
_CONFORMAL_CHECK_TOL = 5e-2
_SUPERHARMONIC_TOL = 1e-6
_RICCI_ZERO_TOL = 1e-14
# Largest grid a config or a refinement may ask for: 256 times the 64^2
# grids of the bundled scenarios.
_MAX_NODES = 2**20

# The solver keys each method reads, besides "method".
_METHOD_KEYS = {"newton": ("tol_abs", "max_newton", "gauge"), "flow": ("t_max", "tol_abs")}
# Solver keys that are settings no longer, and what stands in their place.
_RETIRED_SOLVER_KEYS = {
    "flow_dt_safety": "the flow takes linearly implicit steps of at most t_max/16; set t_max",
    "armijo_c": "Newton's line search uses a fixed Armijo constant",
    "min_step": "Newton's line search uses a fixed shortest step",
    "linear_rtol": "Newton's linear solve uses a fixed tolerance",
    "max_linear": "Newton's linear solve uses a fixed iteration budget",
}


def _fiber_env(grid: FiberGrid) -> dict[str, np.ndarray]:
    meshes = grid.meshes()
    if grid.kind is GridKind.disk_polar:
        rho, theta = meshes
        return {
            "rho": rho, "ρ": rho, "theta": theta, "θ": theta,
            "x1": rho * np.cos(theta), "x2": rho * np.sin(theta),
        }
    env = {f"x{i + 1}": m for i, m in enumerate(meshes)}
    return env


def _boundary_env(grid: FiberGrid) -> dict[str, np.ndarray]:
    theta = grid.axes[1]
    return {"theta": theta, "θ": theta}


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in {where}")


def _field_formula(text, coords, where: str) -> Formula:
    if not isinstance(text, str):
        raise ValidationError(f"{where} must be a formula string, got {type(text).__name__}")
    try:
        return Formula(text, coords)
    except FormulaError as e:
        raise ValidationError(f"{where}: {e}") from e


def _as_field(formula: Formula, grid: FiberGrid, env: dict, where: str) -> ScalarField:
    raw = formula.evaluate(env)
    vals = np.broadcast_to(np.asarray(raw, dtype=float), grid.shape)
    if not np.isfinite(vals).all():
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise ValidationError(
            f"{where} evaluates to a non-finite value at node {tuple(int(i) for i in bad)}"
        )
    return ScalarField(grid, np.array(vals))


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: built grid objects plus the normalized echo."""

    warped: WarpedProduct
    target: ScalarField
    initial_spec: tuple
    boundary_values: np.ndarray | None
    method: str
    t_max: float
    solver_opts: SolveOptions
    checks: tuple[str, ...]
    expect: str
    normalized: dict = field(repr=False)

    @property
    def grid(self) -> FiberGrid:
        return self.warped.fiber

    @property
    def metric(self) -> MetricField:
        return self.warped.metric

    def echo_json(self) -> str:
        return json.dumps(self.normalized, sort_keys=True)

    def initial_values(self, seed_override: int | None = None) -> np.ndarray:
        kind = self.initial_spec[0]
        if kind == "random":
            _, seed, amplitude = self.initial_spec
            if seed_override is not None:
                seed = seed_override
            vals = random_field_values(self.grid.shape, seed, amplitude)
        else:
            _, formula = self.initial_spec
            raw = formula.evaluate(_fiber_env(self.grid))
            vals = np.array(np.broadcast_to(np.asarray(raw, dtype=float), self.grid.shape))
        if self.boundary_values is not None:
            vals[-1, :] = self.boundary_values
        return vals


def _check_budget(dims, refine: int = 0) -> None:
    """Reject grids over ``_MAX_NODES`` nodes, after ``refine`` doublings of every axis.

    A negative ``refine`` is rejected too: it would silently run no refinement.
    """
    if refine < 0:
        raise ValidationError(f"refine counts refinement levels and must be >= 0, got {refine}")
    nodes = math.prod(dims)
    # compare exponents, so that a huge refine never forms 2^(refine * d)
    if nodes > _MAX_NODES or (refine > 0 and refine * len(dims)
                              > (_MAX_NODES // nodes).bit_length() - 1):
        what = f"dims {list(dims)}" + (f" refined {refine} times" if refine else "")
        raise ValidationError(f"{what} exceed the budget of {_MAX_NODES} grid nodes")


def _parse_fiber(raw) -> tuple[dict, str]:
    if not isinstance(raw, dict):
        raise ValidationError("fiber must be an object")
    kind = raw.get("kind")
    if not isinstance(kind, str):
        raise ValidationError(f"fiber kind must be a string, got {type(kind).__name__}")
    if kind in _TORUS_KINDS:
        _reject_unknown(raw, ("kind", "dims", "extents"), "fiber")
        dims = raw.get("dims")
        if not (isinstance(dims, list) and len(dims) in (2, 3)
                and all(isinstance(n, int) and not isinstance(n, bool) for n in dims)):
            raise ValidationError("torus fibers need dims: a list of 2 or 3 integers")
        extents = raw.get("extents", [2.0 * math.pi] * len(dims))
        if not (isinstance(extents, list) and len(extents) == len(dims)):
            raise ValidationError("extents must be one positive number per axis")
        return {"kind": "torus2d" if len(dims) == 2 else "torus3d_lifted",
                "dims": list(dims),
                "extents": [_config_number(e, float, "fiber.extents") for e in extents]}, "torus"
    if kind in _DISK_KINDS:
        _reject_unknown(raw, ("kind", "dims", "R"), "fiber")
        dims = raw.get("dims")
        if not (isinstance(dims, list) and len(dims) == 2
                and all(isinstance(n, int) and not isinstance(n, bool) for n in dims)):
            raise ValidationError("disk fibers need dims: [n_r, n_theta]")
        radius = _config_number(raw.get("R"), float, "fiber.R")
        return {"kind": "disk_polar", "dims": list(dims), "R": radius}, "disk"
    raise ValidationError(f"unknown fiber kind {kind!r}")


def _build_geometry(fiber_echo: dict, family: str, metric_text: str):
    dims = fiber_echo["dims"]
    if family == "torus" and metric_text == "hyperbolic":
        raise ValidationError("the hyperbolic metric lives on disk fibers")
    try:
        if metric_text == "hyperbolic":
            return build_hyperbolic_disk(dims[0], dims[1], fiber_echo["R"])
        if family == "torus":
            grid, flat = build_torus(dims, fiber_echo["extents"])
        else:
            grid, flat = build_polar_disk(dims[0], dims[1], fiber_echo["R"])
        if metric_text == "flat":
            return grid, flat
        env = _fiber_env(grid)
        factor = _as_field(_field_formula(metric_text, env.keys(), "metric"), grid, env, "metric")
        return grid, conformal_scale(flat, factor)
    except (ConstructionError, ModelDomainError) as e:
        raise ValidationError(str(e)) from e


def _config_number(value, typ, where: str):
    """``value`` as ``typ``; anything but a finite number of that kind is a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value}")
    if typ is int and int(value) != value:
        raise ValidationError(f"{where} must be an integer")
    try:
        return typ(value)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{where} must be finite, got an integer beyond "
                              "the float range") from None


def _parse_solver(raw) -> tuple[str, float, SolveOptions, dict]:
    if not isinstance(raw, dict):
        raise ValidationError("solver must be an object")
    retired = sorted(set(raw) & _RETIRED_SOLVER_KEYS.keys())
    if retired:
        raise ValidationError(f"{retired[0]} was retired: {_RETIRED_SOLVER_KEYS[retired[0]]}")
    _reject_unknown(raw, {"method"}.union(*_METHOD_KEYS.values()), "solver")
    method = raw.get("method", "newton")
    if method not in ("newton", "flow"):  # compared, not hashed: it may be a list
        raise ValidationError(f"solver method must be newton or flow, got {method!r}")
    foreign = sorted(set(raw) - {"method", *_METHOD_KEYS[method]})
    if foreign:
        other = "flow" if method == "newton" else "newton"
        raise ValidationError(f"{foreign[0]} only applies to the {other} method")
    t_max = _config_number(raw.get("t_max", 10.0), float, "solver.t_max")
    if t_max <= 0:
        raise ValidationError("solver.t_max must be a positive number")
    kwargs = {name: _config_number(raw[name], typ, f"solver.{name}")
              for name, typ in (("tol_abs", float), ("max_newton", int)) if name in raw}
    if "gauge" in raw:
        try:
            kwargs["gauge"] = Gauge(raw["gauge"])
        except ValueError:
            raise ValidationError(f"unknown gauge {raw['gauge']!r}; valid: "
                                  f"{', '.join(g.value for g in Gauge)}") from None
    try:
        opts = SolveOptions(**kwargs)
    except ConstructionError as e:
        raise ValidationError(f"solver options: {e}") from e
    values = {"t_max": t_max, "tol_abs": opts.tol_abs, "max_newton": opts.max_newton,
              "gauge": opts.gauge.value}
    echo = {"method": method, **{key: values[key] for key in _METHOD_KEYS[method]}}
    return method, t_max, opts, echo


def _validate_checks(checks, wp: WarpedProduct, target: ScalarField) -> tuple[str, ...]:
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ValidationError("checks must be a list of check names")
    seen = set()
    for name in checks:
        if name not in CHECK_NAMES:
            raise ValidationError(f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)}")
        if name in seen:
            raise ValidationError(f"check {name!r} requested twice")
        seen.add(name)
    is_disk = wp.fiber.kind is GridKind.disk_polar
    if "conformal_laplacian" in seen and is_disk:
        raise ValidationError("the conformal_laplacian check lifts the fiber by a circle "
                              "and therefore needs a torus fiber")
    if "compatibility" in seen and not wp.fiber.closed:
        raise ValidationError("the compatibility check integrates over a closed fiber")
    if "superharmonic" in seen:
        if np.any(target.values > 0.0):
            raise ValidationError("the superharmonic check needs H_target <= 0 node-wise")
        if is_disk and not wp.warping_is_constant:
            raise ValidationError("on a disk the superharmonic check needs constant warping")
    return tuple(checks)


def parse_config(text: str) -> ScenarioConfig:
    """Validate a JSON scenario document into built grid objects."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e.msg} "
                              f"(line {e.lineno}, column {e.colno})") from e
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(raw, ("fiber", "metric", "warping", "H_target", "initial",
                          "boundary", "solver", "checks", "expect"), "config")
    if "fiber" not in raw:
        raise ValidationError("config needs a fiber section")
    fiber_echo, family = _parse_fiber(raw["fiber"])
    _check_budget(fiber_echo["dims"])

    metric_text = raw.get("metric", "flat")
    if not isinstance(metric_text, str):
        raise ValidationError("metric must be a string")
    grid, metric = _build_geometry(fiber_echo, family, metric_text)
    env = _fiber_env(grid)
    coords = env.keys()

    warping_text = raw.get("warping", "1")
    warping = _as_field(_field_formula(warping_text, coords, "warping"), grid, env, "warping")
    try:
        wp = WarpedProduct(grid, metric, warping)
    except ConstructionError as e:
        raise ValidationError(str(e)) from e

    target_text = raw.get("H_target", "0")
    target = _as_field(_field_formula(target_text, coords, "H_target"), grid, env, "H_target")

    initial_text = raw.get("initial", "0")
    if not isinstance(initial_text, str):
        raise ValidationError("initial must be a formula string or random(seed, amplitude)")
    random_spec = parse_random_spec(initial_text)
    if random_spec is not None:
        # the draw spans 2 * amplitude, which must stay in the float range
        if not math.isfinite(2.0 * random_spec[1]):
            raise ValidationError(f"initial: random amplitude {random_spec[1]} is too large")
        initial_spec = ("random",) + random_spec
    else:
        initial_spec = ("formula", _field_formula(initial_text, coords, "initial"))

    boundary_values = None
    boundary_echo = {}
    if family == "disk":
        boundary_text = raw.get("boundary", "0")
        bform = _field_formula(boundary_text, ("theta", "θ"), "boundary")
        bvals = np.broadcast_to(
            np.asarray(bform.evaluate(_boundary_env(grid)), dtype=float), (grid.dims[1],))
        if not np.isfinite(bvals).all():
            raise ValidationError("boundary data evaluates to a non-finite value")
        boundary_values = np.array(bvals)
        boundary_echo = {"boundary": boundary_text}
    elif "boundary" in raw:
        raise ValidationError("boundary data only applies to disk fibers")

    method, t_max, opts, solver_echo = _parse_solver(raw.get("solver", {}))
    checks = _validate_checks(raw.get("checks", []), wp, target)
    expect = raw.get("expect", "converged")
    if expect not in _EXPECTATIONS:
        raise ValidationError(f"expect must be one of {_EXPECTATIONS}, got {expect!r}")

    normalized = {
        "fiber": fiber_echo,
        "metric": metric_text,
        "warping": warping_text,
        "H_target": target_text,
        "initial": initial_text,
        **boundary_echo,
        "solver": solver_echo,
        "checks": list(checks),
        "expect": expect,
    }
    return ScenarioConfig(wp, target, initial_spec, boundary_values,
                          method, t_max, opts, checks, expect, normalized)


# --------------------------------------------------------------------------
# checks


def _check_tol_solve(opts: SolveOptions) -> float:
    return max(1e-8, 100.0 * opts.tol_abs)


def _quasi_isometry(wp: WarpedProduct, u: ScalarField) -> tuple[float, float, float, bool]:
    """Graph-metric eigenvalue range, its pinch ``1 + sup(h^2 |grad u|^2)``, and whether it holds."""
    lam_min, lam_max = quasi_isometry_constants(wp, u)
    _, _, grad_sq, _ = _tilt_pieces(wp, u)
    bound = 1.0 + float((wp.warping.values**2 * grad_sq).max())
    return lam_min, lam_max, bound, lam_min >= 1.0 - 1e-12 and lam_max <= bound + 1e-10


def _run_check(name: str, state: GraphState, config: ScenarioConfig) -> dict:
    tol_solve = _check_tol_solve(config.solver_opts)
    wp, u, target = state.warped, state.height, state.target
    try:
        if name == "quasi_isometry":
            lam_min, lam_max, bound, ok = _quasi_isometry(wp, u)
            return {"lambda_min": lam_min, "lambda_max": lam_max, "upper_bound": bound,
                    "pass": ok}
        if name == "ricci_sign":
            ric = radial_ricci(wp)
            rmin = float(ric.values.min())
            rmax = float(ric.values.max())
            if wp.warping_is_constant:
                ok = max(abs(rmin), abs(rmax)) <= _RICCI_ZERO_TOL
            else:
                ok = rmin < 0.0
            return {"ricci_min": rmin, "ricci_max": rmax, "pass": ok}
        if name == "compatibility":
            value = compatibility_integral(wp, u, target)
            threshold = obstruction_threshold(wp)
            if config.expect == "obstructed":
                ok = abs(value) > threshold
            else:
                ok = abs(value) <= threshold
            return {"compat_integral": value, "threshold": threshold, "pass": ok}
        if name == "height_identity":
            residual = check_height_identity(wp, u, target, tol_solve=tol_solve)
            sup = float(np.abs(residual.values[wp.fiber.interior_mask]).max())
            return {"height_identity_max_residual": sup,
                    "pass": sup <= _HEIGHT_IDENTITY_TOL}
        if name == "superharmonic":
            violation = check_superharmonic(wp, u, target, tol_solve=tol_solve)
            return {"max_violation": violation, "pass": violation <= _SUPERHARMONIC_TOL}
        # conformal_laplacian: probe the conformal rule on the lifted fiber
        # with the warping itself as test function and factor h^4.
        grid3, metric3, lift = lift_to_circle(wp.fiber, wp.metric, _LIFT_CIRCLE_NODES)
        h3 = lift(wp.warping)
        factor = ScalarField(grid3, h3.values**4)
        residual = check_conformal_laplacian(metric3, factor, h3)
        sup = float(np.abs(residual.values).max())
        return {"conformal_max_residual": sup, "pass": sup <= _CONFORMAL_CHECK_TOL}
    except PreconditionError as e:
        return {"precondition": str(e), "pass": False}


# --------------------------------------------------------------------------
# running


@dataclass
class RunReport:
    """Everything one scenario run produced, JSON-ready."""

    scenario: str | None
    config: dict
    solve: SolveReport
    graph: dict
    checks: dict
    expectation: dict
    refinements: list
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "solve": self.solve.to_json_dict(),
            "graph": self.graph,
            "checks": self.checks,
            "expectation": self.expectation,
            "refinements": self.refinements,
            "wall_time_s": self.wall_time_s,
        }

    def exit_code(self) -> int:
        if self.solve.verdict in (Verdict.diverged, Verdict.max_iter):
            return 3
        if not self.expectation["matched"]:
            return 4
        if any(not c["pass"] for c in self.checks.values()):
            return 4
        return 0


def _solve_config(config: ScenarioConfig, seed_override: int | None
                  ) -> tuple[GraphState, SolveReport]:
    u0 = ScalarField(config.grid, config.initial_values(seed_override))
    if config.method == "flow":
        return flow_solve(config.warped, config.target, u0, config.solver_opts,
                          t_max=config.t_max)
    return newton_solve(config.warped, config.target, u0, config.solver_opts)


def _run_once(config: ScenarioConfig, seed_override: int | None) -> tuple[dict, SolveReport]:
    state, solve_report = _solve_config(config, seed_override)
    _, _, angle = unit_normal(config.warped, state.height)
    graph = {"theta_min": float(angle.values.min()), "theta_max": float(angle.values.max())}
    checks = {name: _run_check(name, state, config) for name in config.checks}
    observed = solve_report.verdict.value
    expectation = {"expected": config.expect, "observed": observed,
                   "matched": observed == config.expect}
    body = {"graph": graph, "checks": checks, "expectation": expectation, "state": state}
    return body, solve_report


def _refined_config(config: ScenarioConfig, factor: int) -> ScenarioConfig:
    scaled = json.loads(config.echo_json())
    scaled["fiber"]["dims"] = [n * factor for n in scaled["fiber"]["dims"]]
    return parse_config(json.dumps(scaled))


def run_scenario(config: ScenarioConfig, *, scenario_name: str | None = None,
                 dump_dir=None, refine: int = 0, seed_override: int | None = None
                 ) -> RunReport:
    """Solve one scenario, run its checks, and assemble the report.

    ``refine`` adds companion runs with every axis doubled per level.
    ``seed_override`` replaces the seed of a ``random(...)`` initial field.
    ``dump_dir`` writes final height and residual fields as CSV.
    """
    _check_budget(config.grid.dims, refine)
    start = time.perf_counter()
    body, solve_report = _run_once(config, seed_override)

    refinements = []
    for level in range(1, refine + 1):
        refined = _refined_config(config, 2**level)
        sub_body, sub_report = _run_once(refined, seed_override)
        refinements.append({
            "dims": refined.normalized["fiber"]["dims"],
            "solve": sub_report.to_json_dict(),
            "graph": sub_body["graph"],
            "checks": sub_body["checks"],
        })

    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        state: GraphState = body["state"]
        dump_field_csv(state.height, os.path.join(dump_dir, "height.csv"))
        dump_field_csv(state.residual, os.path.join(dump_dir, "residual.csv"))

    wall = time.perf_counter() - start
    return RunReport(scenario_name, config.normalized, solve_report, body["graph"],
                     body["checks"], body["expectation"], refinements, wall)


# --------------------------------------------------------------------------
# bundled scenarios


BUILTIN_SCENARIOS: dict[str, dict] = {
    # Closed fiber, bounded non-constant warping, zero target curvature:
    # every start must settle to a constant height.
    "uniqueness_torus": {
        "fiber": {"kind": "torus", "dims": [64, 64]},
        "warping": "1+0.3*cos(x1)",
        "H_target": "0",
        "initial": "0.3*sin(x1)+0.1*cos(x2)",
        "checks": ["height_identity", "quasi_isometry", "compatibility", "superharmonic"],
        "expect": "converged",
    },
    # Constant warping with positive target curvature on a closed fiber:
    # the compatibility integral cannot vanish, so no graph exists.
    "obstruction_torus": {
        "fiber": {"kind": "torus", "dims": [64, 64]},
        "warping": "1",
        "H_target": "0.1",
        "initial": "0",
        "checks": ["compatibility", "ricci_sign"],
        "expect": "obstructed",
    },
    # Bounded non-constant minimal graph over the hyperbolic disk: the
    # closed-fiber uniqueness mechanism genuinely fails off parabolic fibers.
    "hyperbolic_counterexample": {
        "fiber": {"kind": "disk", "dims": [64, 128], "R": 0.875},
        "metric": "hyperbolic",
        "warping": "1",
        "H_target": "0",
        "initial": "0",
        "boundary": "0.5*sin(3*theta)",
        "checks": ["quasi_isometry", "height_identity"],
        "expect": "converged",
    },
    # Non-constant warping forces the vertical Ricci curvature negative
    # somewhere; the zero height is already an exact minimal graph here.
    "ricci_sign": {
        "fiber": {"kind": "torus", "dims": [48, 48]},
        "warping": "1+0.3*cos(x1)",
        "H_target": "0",
        "initial": "0",
        "checks": ["ricci_sign", "quasi_isometry", "compatibility"],
        "expect": "converged",
    },
    # One run exercising every check at once on a modest grid.
    "identities": {
        "fiber": {"kind": "torus", "dims": [32, 32]},
        "warping": "1+0.3*cos(x1)",
        "H_target": "0",
        "initial": "0.2*sin(x1)+0.1*cos(x2)",
        "checks": ["height_identity", "conformal_laplacian", "quasi_isometry",
                   "ricci_sign", "compatibility", "superharmonic"],
        "expect": "converged",
    },
}


def builtin_config(name: str) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ValidationError(
            f"unknown scenario {name!r}; bundled: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        )
    return parse_config(json.dumps(BUILTIN_SCENARIOS[name]))


# --------------------------------------------------------------------------
# verification suite


def _manufactured_state(n: int):
    """Exact discrete solution: fold the residual of a reference height
    into the target curvature, so the pair solves the equation to rounding."""
    grid, metric = build_torus((n, n))
    x1, x2 = grid.meshes()
    warping = ScalarField(grid, 1.0 + 0.3 * np.cos(x1))
    wp = WarpedProduct(grid, metric, warping)
    u = ScalarField(grid, 0.3 * np.sin(x1) + 0.2 * np.cos(x2))
    zero = ScalarField.constant(grid, 0.0)
    target = ScalarField(grid, mean_curvature_residual(wp, u, zero).values / wp.dimension)
    return wp, u, target


def _suite_operator_order() -> dict:
    errs = {}
    for n in (32, 64):
        grid, metric = build_torus((n, n))
        x1, x2 = grid.meshes()
        f = ScalarField(grid, np.sin(x1) + np.cos(2.0 * x2))
        grad = gradient(f, metric)
        exact_grad = np.stack([np.cos(x1), -2.0 * np.sin(2.0 * x2)], axis=-1)
        lap = laplace_beltrami(f, metric)
        exact_lap = -np.sin(x1) - 4.0 * np.cos(2.0 * x2)
        errs[n] = (float(np.abs(grad.components - exact_grad).max()),
                   float(np.abs(lap.values - exact_lap).max()))
    g_ratio = errs[32][0] / errs[64][0]
    l_ratio = errs[32][1] / errs[64][1]
    return {
        "suite": "operator_order",
        "values": {"gradient_error_32": errs[32][0], "gradient_error_64": errs[64][0],
                   "laplacian_error_32": errs[32][1], "laplacian_error_64": errs[64][1],
                   "gradient_ratio": g_ratio, "laplacian_ratio": l_ratio},
        "orders": {"gradient": math.log2(g_ratio), "laplacian": math.log2(l_ratio)},
        "pass": g_ratio >= 3.5 and l_ratio >= 3.5,
    }


def _suite_height_identity_order() -> dict:
    sups = {}
    for n in (32, 64):
        wp, u, target = _manufactured_state(n)
        residual = check_height_identity(wp, u, target, tol_solve=1e-8)
        sups[n] = float(np.abs(residual.values).max())
    order = math.log2(sups[32] / sups[64])
    return {
        "suite": "height_identity_order",
        "values": {"residual_32": sups[32], "residual_64": sups[64]},
        "orders": {"height_identity": order},
        "pass": 1.7 <= order <= 2.3,
    }


def _suite_conformal_order() -> dict:
    sups = {}
    for n in (16, 24):
        grid, metric = build_torus((n, n, n))
        x1, _, x3 = grid.meshes()
        # gentle amplitudes keep the coarse 16^3 residual under the 1e-3 gate
        h = ScalarField(grid, 1.0 + 0.05 * np.cos(x1))
        factor = ScalarField(grid, h.values**4)
        f = ScalarField(grid, 0.1 * np.sin(x1) + 0.05 * np.cos(x3))
        residual = check_conformal_laplacian(metric, factor, f)
        sups[n] = float(np.abs(residual.values).max())
    order = math.log(sups[16] / sups[24]) / math.log(24.0 / 16.0)
    return {
        "suite": "conformal_order",
        "values": {"residual_16": sups[16], "residual_24": sups[24]},
        "orders": {"conformal": order},
        "pass": sups[16] <= 1e-3 and 1.7 <= order <= 2.3,
    }


def _suite_ricci_sign() -> dict:
    grid, metric = build_torus((48, 48))
    x1, _ = grid.meshes()
    wp = WarpedProduct(grid, metric, ScalarField(grid, 1.0 + 0.3 * np.cos(x1)))
    ric = radial_ricci(wp).values
    wp_const = WarpedProduct(grid, metric, ScalarField.constant(grid, 2.0))
    ric_const = radial_ricci(wp_const).values
    ok = ric.min() < 0.0 < ric.max() and np.abs(ric_const).max() <= _RICCI_ZERO_TOL
    return {
        "suite": "ricci_sign",
        "values": {"ricci_min": float(ric.min()), "ricci_max": float(ric.max()),
                   "constant_warping_sup": float(np.abs(ric_const).max())},
        "orders": {},
        "pass": bool(ok),
    }


def _suite_quasi_isometry() -> dict:
    grid, metric = build_torus((32, 32))
    worst_low, worst_high = math.inf, -math.inf
    ok = True
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        u = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.shape))
        h = ScalarField(grid, 0.5 + rng.uniform(0.0, 1.0, grid.shape))
        wp = WarpedProduct(grid, metric, h)
        lam_min, lam_max, bound, within = _quasi_isometry(wp, u)
        worst_low = min(worst_low, lam_min)
        worst_high = max(worst_high, lam_max - bound)
        ok = ok and within
    return {
        "suite": "quasi_isometry",
        "values": {"worst_lambda_min": worst_low, "worst_excess_over_bound": worst_high},
        "orders": {},
        "pass": bool(ok),
    }


def run_verification_suite() -> list[dict]:
    """Refinement studies for the core identities plus sign and bound checks."""
    return [
        _suite_operator_order(),
        _suite_height_identity_order(),
        _suite_conformal_order(),
        _suite_ricci_sign(),
        _suite_quasi_isometry(),
    ]
