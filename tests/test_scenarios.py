"""Config parsing, scenario runs, bundled scenarios, and the CLI.

Exit-code contract: 0 outcome-as-expected with all checks passing,
2 validation problems, 3 divergence or iteration exhaustion, 4 failed
checks or an outcome that contradicts the declared expectation.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmclab import (
    GraphState,
    GridKind,
    ScalarField,
    SolveOptions,
    cli,
    flow_solve,
    geometry,
    newton_solve,
    scenarios,
    solver,
)
from pmclab.cli import main
from pmclab.formulas import (
    _MAX_DEPTH,
    Formula,
    FormulaError,
    evaluate_formula,
    parse_random_spec,
    random_field_values,
)
from pmclab.scenarios import (
    BUILTIN_SCENARIOS,
    CHECK_NAMES,
    ValidationError,
    _check_budget,
    builtin_config,
    parse_config,
    run_scenario,
    run_verification_suite,
)
from test_geometry import _dump_field_csv_per_node

_TOO_DEEP = {
    "parentheses": "(" * 5000 + "1" + ")" * 5000,
    "unary_minus": "-" * 3000 + "1",
    "sum_chain": "+".join(["1"] * 3000),
}


def _cfg(**overrides) -> str:
    base = {"fiber": {"kind": "torus", "dims": [8, 8]}}
    base.update(overrides)
    return json.dumps(base)


def _disk_cfg(**overrides) -> str:
    base = {"fiber": {"kind": "disk", "dims": [8, 16], "R": 0.5}}
    base.update(overrides)
    return json.dumps(base)


def _without_wall_time(report) -> str:
    payload = report.to_json_dict()
    payload.pop("wall_time_s")
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------------
# formula mini-language


def test_formula_precedence_and_power_associativity():
    env = {"x": 2.0}
    assert evaluate_formula("2^3^2", env) == 512.0
    assert evaluate_formula("-x^2", env) == -4.0
    assert evaluate_formula("2*3+4", env) == 10.0
    assert evaluate_formula("x**3", env) == evaluate_formula("x^3", env)
    assert evaluate_formula("ln(e)", env) == pytest.approx(1.0)
    assert evaluate_formula("cos(pi)", env) == pytest.approx(-1.0)


def test_division_by_zero_gives_a_non_finite_value_that_parse_rejects():
    assert evaluate_formula("1/0", {}) == math.inf
    assert math.isnan(evaluate_formula("0/0", {}))
    with pytest.raises(ValidationError, match=r"warping evaluates to a non-finite value"):
        parse_config(_cfg(warping="0/0"))


def test_formula_unknown_symbol_reports_position():
    with pytest.raises(FormulaError, match=r"unknown symbol 'q' at position 4"):
        Formula("sin(q)", ("x1", "x2"))


def test_formula_stray_character_reports_position():
    with pytest.raises(FormulaError, match=r"position 3"):
        Formula("x1 $ 2", ("x1",))


@pytest.mark.parametrize("text, message", [
    ("sin(x1", r"^expected '\)' at position 6$"),
    ("x1 x1", r"^unexpected 'x1' at position 3$"),
    (")", r"^unexpected '\)' at position 0$"),
], ids=["unclosed_call", "trailing_operand", "lone_close"])
def test_formula_syntax_errors_report_their_position(text, message):
    with pytest.raises(FormulaError, match=message):
        Formula(text, ("x1",))


def test_formula_unary_plus_leaves_its_operand():
    x1 = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(evaluate_formula("+x1", {"x1": x1}), x1)
    assert np.array_equal(evaluate_formula("2*+x1^2", {"x1": x1}), 2.0 * x1**2)


def test_formula_missing_environment_value():
    f = Formula("x1+x2", ("x1", "x2"))
    with pytest.raises(FormulaError, match="no value supplied"):
        f.evaluate({"x1": 1.0})


@pytest.mark.parametrize("text", _TOO_DEEP.values(), ids=_TOO_DEEP.keys())
def test_deeply_nested_formula_is_rejected_with_its_position(text):
    with pytest.raises(ValidationError, match=r"warping: formula nests deeper than \d+ "
                                              r"levels at position \d+"):
        parse_config(_cfg(warping=text))


def test_formula_depth_limit_admits_its_own_depth():
    assert evaluate_formula("-" * (_MAX_DEPTH - 1) + "x", {"x": 2.0}) == -2.0
    with pytest.raises(FormulaError, match=f"at position {_MAX_DEPTH}$"):
        Formula("-" * _MAX_DEPTH + "x", ("x",))


def test_random_spec_recognition_and_reproducibility():
    assert parse_random_spec("random(11, 0.25)") == (11, 0.25)
    assert parse_random_spec(" random( 3 , 1e-2 ) ") == (3, 1e-2)
    assert parse_random_spec("random(x, 0.1)") is None
    assert parse_random_spec("sin(x1)") is None
    a = random_field_values((6, 6), 11, 0.25)
    b = random_field_values((6, 6), 11, 0.25)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 0.25


# --------------------------------------------------------------------------
# config validation


def test_minimal_config_fills_defaults_and_echo_round_trips():
    config = parse_config(_cfg())
    n = config.normalized
    assert n["metric"] == "flat"
    assert n["warping"] == "1"
    assert n["H_target"] == "0"
    assert n["initial"] == "0"
    assert n["expect"] == "converged"
    assert n["checks"] == []
    assert n["solver"]["tol_abs"] == 1e-10
    assert n["solver"]["max_newton"] == 50
    echo = config.echo_json()
    assert parse_config(echo).echo_json() == echo


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match=r"unknown key\(s\) \['warpingg'\]"):
        parse_config(_cfg(warpingg="1"))


def test_sign_changing_warping_names_the_offending_node():
    with pytest.raises(ValidationError, match=r"warping must stay positive.*node \(\d+, \d+\)"):
        parse_config(_cfg(warping="cos(x1)"))


def test_formula_errors_carry_context_and_position():
    with pytest.raises(ValidationError, match=r"H_target.*unknown symbol 'q'"):
        parse_config(_cfg(H_target="sin(q)"))


def test_bad_json_reports_line_and_column():
    with pytest.raises(ValidationError, match=r"line 2, column"):
        parse_config('{\n  "fiber": }')


def test_unknown_and_duplicate_checks_rejected():
    with pytest.raises(ValidationError, match="unknown check 'eq7'"):
        parse_config(_cfg(checks=["eq7"]))
    with pytest.raises(ValidationError, match="requested twice"):
        parse_config(_cfg(checks=["ricci_sign", "ricci_sign"]))


def test_boundary_data_rejected_on_closed_fibers():
    with pytest.raises(ValidationError, match="boundary data only applies to disk"):
        parse_config(_cfg(boundary="sin(theta)"))


def test_checks_that_cannot_run_on_the_declared_fiber():
    with pytest.raises(ValidationError, match="torus fiber"):
        parse_config(_disk_cfg(checks=["conformal_laplacian"]))
    with pytest.raises(ValidationError, match="closed fiber"):
        parse_config(_disk_cfg(checks=["compatibility"]))
    with pytest.raises(ValidationError, match="H_target <= 0"):
        parse_config(_cfg(H_target="0.1", checks=["superharmonic"]))
    with pytest.raises(ValidationError, match="constant warping"):
        parse_config(_disk_cfg(warping="1+0.1*x1", checks=["superharmonic"]))


@pytest.mark.parametrize("kind,dims,named", [
    ("torus2d", [8, 8, 8], 2),
    ("torus3d_lifted", [8, 8], 3),
])
def test_a_torus_kind_that_contradicts_its_dims_exits_2(tmp_path, capsys, kind, dims, named):
    text = json.dumps({"fiber": {"kind": kind, "dims": dims}})
    with pytest.raises(ValidationError,
                       match=f"fiber kind '{kind}' needs {named} dims, got {len(dims)}"):
        parse_config(text)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert f"'{kind}' needs {named} dims, got {len(dims)}" in capsys.readouterr().err
    # the plain kind picks by dims, and the echo names the kind it picked
    plain = parse_config(json.dumps({"fiber": {"kind": "torus", "dims": dims}}))
    assert plain.normalized["fiber"]["kind"] == ("torus2d" if len(dims) == 2 else "torus3d_lifted")
    assert parse_config(plain.echo_json()).echo_json() == plain.echo_json()


def test_superharmonic_on_a_3d_torus_exits_2_at_parse(tmp_path, capsys):
    # the check lifts a 2-D fiber by a circle; a 3-D fiber must be refused
    # before the solve, not fail the check after it
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"fiber": {"kind": "torus", "dims": [8, 8, 8]},
                                "checks": ["superharmonic"]}))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "superharmonic" in err and "torus3d_lifted" in err


@pytest.mark.parametrize("warping", ["1", "1+0.1*cos(x1)"])
@pytest.mark.parametrize("h_target", ["0", "-0.1", "0.1"])
@pytest.mark.parametrize("check", CHECK_NAMES)
@pytest.mark.parametrize("fiber", [
    {"kind": "torus", "dims": [8, 8]},
    {"kind": "torus", "dims": [8, 8, 8]},
    {"kind": "disk", "dims": [8, 16], "R": 0.5},
], ids=["torus2d", "torus3d", "disk"])
def test_parse_refuses_a_check_exactly_when_the_check_does(fiber, check, h_target, warping):
    # the check itself runs on a level height that a loose tolerance counts
    # as solved, so all it can refuse is the fiber, warping or target
    product = parse_config(_cfg(fiber=fiber, warping=warping, H_target=h_target))
    state = GraphState(product.warped, ScalarField.constant(product.grid, 0.0), product.target)
    loose = dataclasses.replace(product, solver_opts=SolveOptions(tol_abs=1e3))
    refused_at_run = scenarios._run_check(check, state, loose).get("precondition")
    try:
        parse_config(_cfg(fiber=fiber, warping=warping, H_target=h_target, checks=[check]))
        refused_at_parse = None
    except ValidationError as e:
        refused_at_parse = str(e)
    assert (refused_at_parse is None) == (refused_at_run is None)
    if refused_at_parse is not None:
        assert check in refused_at_parse and refused_at_run in refused_at_parse


@pytest.mark.parametrize("fiber", [
    {"kind": "klein_bottle", "dims": [8, 8]},
    {"kind": "torus", "dims": [8, True]},
    {"kind": "torus", "dims": [8]},
    {"kind": "torus", "dims": [8, 8], "extents": [6.28]},
    {"kind": "disk", "dims": [8, 16]},
    {"kind": "disk", "dims": [8, 16, 4], "R": 0.5},
])
def test_malformed_fiber_sections_rejected(fiber):
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"fiber": fiber}))


def test_hyperbolic_metric_domain_guards():
    with pytest.raises(ValidationError, match="disk fibers"):
        parse_config(_cfg(metric="hyperbolic"))
    bad = {"fiber": {"kind": "disk", "dims": [8, 16], "R": 1.5}, "metric": "hyperbolic"}
    with pytest.raises(ValidationError, match=r"in \(0, 1\)"):
        parse_config(json.dumps(bad))


def test_metric_conformal_factor_must_stay_positive():
    with pytest.raises(ValidationError, match="conformal factor must stay positive"):
        parse_config(_cfg(metric="cos(x1)"))


def test_node_budget_counts_refinement_doublings():
    _check_budget([1024, 1024])
    _check_budget([64, 64], refine=4)
    for dims, refine in (([1024, 1025], 0), ([64, 64], 5), ([8, 8, 8], 10**9)):
        with pytest.raises(ValidationError, match="budget of 1048576 grid nodes"):
            _check_budget(dims, refine)


@pytest.mark.parametrize("fiber", [
    {"kind": "torus", "dims": [2048, 1024]},
    {"kind": "torus", "dims": [10**6, 10**6, 10**6]},
    {"kind": "disk", "dims": [10**6, 10**6], "R": 0.5},
])
def test_grids_over_the_node_budget_are_rejected(fiber):
    with pytest.raises(ValidationError, match="exceed the budget"):
        parse_config(json.dumps({"fiber": fiber}))


@pytest.mark.parametrize("solver,fragment", [
    ({"window": 3}, "unknown key"),
    ({"t_max": 5.0}, "flow method"),
    ({"gauge": "anchor"}, "gauge was retired"),
    ({"max_newton": 2.5}, "must be an integer"),
    ({"tol_abs": -1e-8}, "must be positive"),
    ({"method": "bisection"}, "newton or flow"),
    ({"method": "flow", "t_max": math.nan}, "t_max must be finite"),
    ({"method": "flow", "t_max": math.inf}, "t_max must be finite"),
    ({"max_newton": math.inf}, "max_newton must be finite"),
    ({"max_linear": math.nan}, "max_linear was retired"),
    ({"tol_abs": math.inf}, "tol_abs must be finite"),
    ({"min_step": math.inf}, "min_step was retired"),
    ({"tol_abs": 10**400}, "beyond the float range"),
    ({"gauge": "fix_mean"}, "always mean-free"),
    ({"method": "flow", "max_newton": 5}, "max_newton only applies to the newton method"),
    ({"method": "flow", "gauge": "pin_node"}, "gauge was retired"),
    ({"method": "flow", "armijo_c": 1e-4}, "armijo_c was retired"),
    ({"linear_rtol": 1e-8}, "linear_rtol was retired"),
])
def test_solver_section_validation(solver, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_config(_cfg(solver=solver))


# every number JSON can carry, NaN, +-Infinity and integers far beyond the
# float range among them
_JSON_NUMBERS = st.one_of(st.floats(), st.integers(-(10**400), 10**400))
# each method with the numeric keys it reads
_SOLVER_SECTIONS = st.one_of(*(
    st.fixed_dictionaries({"method": st.just(method)},
                          optional={name: _JSON_NUMBERS for name in names})
    for method, names in (("newton", ("tol_abs", "max_newton")), ("flow", ("t_max", "tol_abs")))
))


@settings(max_examples=300)
@given(_SOLVER_SECTIONS)
def test_solver_numbers_parse_or_raise_validation_error(solver):
    try:
        parse_config(_cfg(solver=solver))
    except ValidationError:
        pass


@pytest.mark.parametrize("solver,keys", [
    ({}, ["max_newton", "method", "tol_abs"]),
    ({"method": "flow"}, ["method", "t_max", "tol_abs"]),
])
def test_solver_echo_holds_only_the_keys_the_method_reads(solver, keys):
    config = parse_config(_cfg(solver=solver))
    assert sorted(config.normalized["solver"]) == keys
    assert parse_config(config.echo_json()).echo_json() == config.echo_json()


# JSON values of every shape: null, booleans, every number JSON can carry,
# strings, and lists and objects of those
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _JSON_NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# sections of each family whose values are mostly well formed, listed twice
# so that they are drawn more often than objects of arbitrary keys and
# values; node counts stay small, so that the sections that parse stay cheap
_LENGTHS = st.floats(0.1, 10.0) | _JSON_NUMBERS


def _node_counts(*axes):
    return st.lists(st.integers(7, 24), min_size=min(axes), max_size=max(axes)) | _JSON_VALUES


_TORUS_SECTIONS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["torus", "torus2d", "torus3d_lifted"]), "dims": _node_counts(2, 3)},
    optional={"extents": st.lists(_LENGTHS, min_size=2, max_size=3) | _JSON_VALUES})
_DISK_SECTIONS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["disk", "disk_polar"]), "dims": _node_counts(2),
     "R": _LENGTHS | _JSON_VALUES})
_FIBER_SECTIONS = st.one_of(
    _TORUS_SECTIONS, _DISK_SECTIONS, _TORUS_SECTIONS, _DISK_SECTIONS,
    st.dictionaries(st.sampled_from(["kind", "dims", "extents", "R"]) | st.text(max_size=4),
                    _JSON_VALUES, max_size=4),
)


@settings(max_examples=300)
@given(_FIBER_SECTIONS, st.sampled_from(["flat", "hyperbolic"]))
def test_fiber_sections_parse_or_raise_validation_error(fiber, metric):
    try:
        parse_config(json.dumps({"fiber": fiber, "metric": metric}))
    except ValidationError:
        pass


# amplitudes as the config writes them: any float's repr, and decimal
# exponents on either side of the float range
_AMPLITUDES = st.floats(min_value=0.0, allow_infinity=False).map(repr) | st.builds(
    "{}e{}".format, st.integers(0, 99), st.integers(-400, 400))


@settings(max_examples=200)
@given(st.integers(0, 2**128), _AMPLITUDES)
def test_random_initial_parses_or_raises_validation_error(seed, amplitude):
    try:
        config = parse_config(_cfg(initial=f"random({seed}, {amplitude})"))
    except ValidationError:
        return
    assert np.isfinite(config.initial_values()).all()


# the formula language in miniature: numbers, constants and a fiber's
# coordinate names, joined by its operators and functions, with and without
# parentheses
def _formulas(names):
    atoms = st.one_of(st.integers(0, 9).map(str), st.floats(0.0, 1e3).map(repr),
                      st.sampled_from(["pi", "e", *names]))
    return st.recursive(atoms, lambda inner: st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*", "/", "^", "**"]), inner),
        st.builds("-{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp", "ln"]), inner),
    ), max_leaves=8)


def _configs(fiber, names, wild):
    """Configs over one fiber: formulas of the grammar and valid check and
    expect values, or, when ``wild``, arbitrary text and arbitrary JSON besides."""
    texts, boundary = _formulas(names), _formulas(("theta", "θ"))
    checks = st.lists(st.sampled_from(CHECK_NAMES), max_size=3, unique=True)
    expect = st.sampled_from(["converged", "obstructed"])
    if wild:
        texts, boundary = texts | st.text(max_size=12), boundary | st.text(max_size=12)
        checks, expect = checks | _JSON_VALUES, expect | _JSON_VALUES
    optional = {
        "metric": st.sampled_from(["flat", "hyperbolic"]) | texts,
        "warping": texts,
        "H_target": texts,
        "initial": st.builds("random({}, {})".format, st.integers(0, 9), _AMPLITUDES) | texts,
        "checks": checks,
        "expect": expect,
    }
    if fiber["kind"] == "disk":
        optional["boundary"] = boundary
    return st.fixed_dictionaries({"fiber": st.just(fiber)}, optional=optional)


_CONFIGS = st.one_of(*(
    _configs(fiber, names, wild) for wild in (False, True) for fiber, names in (
        ({"kind": "torus", "dims": [8, 8]}, ("x1", "x2")),
        ({"kind": "torus", "dims": [8, 8, 8]}, ("x1", "x2", "x3")),
        ({"kind": "disk", "dims": [8, 16], "R": 0.5}, ("rho", "ρ", "theta", "θ", "x1", "x2")),
    )
))


# what a check may still refuse after parse: a height that is not solved,
# or data beyond the float range of the check's arithmetic
_SOLVED_STATE_PRECONDITIONS = ("expects a solved height", "no representable height",
                               "must stay positive", "non-finite value")


@settings(max_examples=150)
@given(_CONFIGS)
@example({"fiber": {"kind": "torus", "dims": [8, 8]}, "warping": "exp(-210.5)",
          "checks": ["conformal_laplacian"]})
def test_formula_and_check_sections_parse_or_raise_and_solve_ends_in_an_exit_code(
        tmp_path_factory, config):
    text = json.dumps(config)
    try:
        parse_config(text)
    except ValidationError:
        return
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "config.json"
    path.write_text(text, encoding="utf-8")
    code = main(["solve", str(path), "--out", str(directory / "report.json")])
    assert code in (0, 2, 3, 4)
    if code == 2:  # the run raised before any report was written
        return
    # parse refused every check that cannot run on the config's fiber,
    # warping or target
    report = json.loads((directory / "report.json").read_text(encoding="ascii"))
    for entry in report["checks"].values():
        if "precondition" in entry:
            assert any(m in entry["precondition"] for m in _SOLVED_STATE_PRECONDITIONS)


@pytest.mark.parametrize("config", [
    {"fiber": {"kind": "disk", "dims": [8, 16], "R": 10**400}},
    {"fiber": {"kind": "torus", "dims": [8, 8], "extents": [10**400, 1]}},
    {"fiber": {"kind": [1], "dims": [8, 8]}},
    {"fiber": {"kind": "torus", "dims": [8, 8]}, "initial": "random(1, 1e308)"},
    {"fiber": {"kind": "torus", "dims": [8, 8], "extents": [True, 1]}},
], ids=["huge_R", "huge_extent", "list_kind", "huge_amplitude", "boolean_extent"])
def test_cli_config_numbers_and_names_exit_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", str(path)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_cli_non_finite_solver_number_exits_2(tmp_path, capsys):
    config = tmp_path / "infinite.json"
    config.write_text('{"fiber": {"kind": "torus", "dims": [8, 8]}, '
                      '"solver": {"max_newton": Infinity}}')
    assert main(["solve", str(config)]) == 2
    assert "max_newton must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["flow", "newton"])
def test_retired_flow_dt_safety_names_its_replacement(method):
    with pytest.raises(ValidationError, match=r"flow_dt_safety was retired: .* set t_max"):
        parse_config(_cfg(solver={"method": method, "flow_dt_safety": 0.2}))


def test_expectation_keyword_validated():
    with pytest.raises(ValidationError, match="expect must be one of"):
        parse_config(_cfg(expect="maybe"))
    # no solve on a disk ends obstructed, so such a config could never pass
    with pytest.raises(ValidationError, match="only applies to closed fibers"):
        parse_config(_disk_cfg(expect="obstructed"))
    assert parse_config(_cfg(expect="obstructed")).expect == "obstructed"


def test_random_initial_seed_and_override():
    config = parse_config(_cfg(initial="random(7, 0.2)"))
    assert np.array_equal(config.initial_values(), config.initial_values())
    overridden = config.initial_values(seed_override=9)
    assert not np.array_equal(overridden, config.initial_values())
    assert np.abs(config.initial_values()).max() <= 0.2


def test_disk_boundary_row_enters_the_initial_field():
    config = parse_config(_disk_cfg(boundary="0.3*sin(2*theta)"))
    theta = config.grid.axes[1]
    assert np.allclose(config.initial_values()[-1], 0.3 * np.sin(2.0 * theta))


# --------------------------------------------------------------------------
# scenario runs


@pytest.mark.parametrize("text", [
    _cfg(**{
        "fiber": {"kind": "torus", "dims": [16, 16]},
        "warping": "1+0.3*cos(x1)",
        "initial": "random(3, 0.2)",
        "solver": {"max_newton": 8},
    }),
    json.dumps(BUILTIN_SCENARIOS["hyperbolic_counterexample"]),
], ids=["random_torus", "hyperbolic_counterexample"])
def test_report_is_deterministic_up_to_wall_time(text):
    # three runs in one process: each problem builds its own Jacobian pattern
    first, second, third = (run_scenario(parse_config(text)) for _ in range(3))
    assert _without_wall_time(first) == _without_wall_time(second) == _without_wall_time(third)
    # the echoed config re-parses to an equivalent config
    echo = json.dumps(first.config)
    assert parse_config(echo).echo_json() == parse_config(text).echo_json()


def test_a_flat_torus_after_a_scaled_one_reports_as_it_does_cold():
    # both metrics on one grid have one Jacobian pattern: the flat run that
    # follows the scaled one must not see that run's metric
    flat = _cfg(fiber={"kind": "torus", "dims": [16, 16]}, warping="1+0.3*cos(x1)",
                initial="0.3*sin(x1)+0.1*cos(x2)")
    scaled = json.loads(flat)
    scaled["metric"] = "1+0.3*sin(x1)*cos(x2)"
    cold = run_scenario(parse_config(flat))
    run_scenario(parse_config(json.dumps(scaled)))
    warm = run_scenario(parse_config(flat))
    assert cold.solve.verdict == "converged"
    assert _without_wall_time(warm) == _without_wall_time(cold)


@pytest.mark.parametrize("name,solver,counts", [
    # 14 accepted steps and 6 rejected trials with no factor: the inverse of
    # each trial matrix's averaged stencil carries it, on the disk as on the
    # obstructed torus's 16 steps.  A flow starts from its formula, with no
    # coarser level
    ("hyperbolic_counterexample", {"method": "flow", "t_max": 40.0}, (14, 0, [])),
    ("obstruction_torus", {"method": "flow", "t_max": 5.0}, (16, 0, [])),
    # newton on a torus factors its pinned companion once per level and
    # reuses that factor while one GMRES cycle suffices; the 8^2 level does
    # the work and every finer level starts from a solution
    ("uniqueness_torus", {}, (0, 0, [([8, 8], "converged", 3, 1), ([16, 16], "converged", 0, 0),
                                     ([32, 32], "converged", 0, 0)])),
    # the witness declares the obstruction before any step, with no coarser level
    ("obstruction_torus", {}, (0, 0, [])),
    # nothing is pinned on the disk: the averaged stencil's inverse carries
    # every newton step of every level, and no level factors
    ("hyperbolic_counterexample", {}, (3, 0, [([8, 16], "converged", 5, 0),
                                              ([16, 32], "converged", 3, 0),
                                              ([32, 64], "converged", 3, 0)])),
])
def test_report_counts_every_factorization(name, solver, counts):
    raw = dict(BUILTIN_SCENARIOS[name], solver=solver, checks=[])
    report = run_scenario(parse_config(json.dumps(raw))).to_json_dict()
    solve = report["solve"]
    *finest, coarse = counts
    assert (solve["iterations"], solve["factorizations"]) == tuple(finest)
    assert [{k: v for k, v in level.items() if k != "krylov_iterations"}
            for level in report["coarse_solves"]] == [
        {"dims": dims, "verdict": verdict, "iterations": iterations,
         "factorizations": factorizations}
        for dims, verdict, iterations, factorizations in coarse]
    assert report["start"] == ("coarse" if coarse and coarse[-1][1] == "converged"
                               else "initial")


def _sequenced(config):
    """The config's own level, solved after every coarser level of its ladder."""
    level = None
    for rung in scenarios._ladder(config, 0):
        level = scenarios._solve_level(rung, None, level)
    return level


def _direct_newton(config):
    """Newton from the config's own initial field, with no coarser level."""
    u0 = ScalarField(config.grid, config.initial_values())
    return newton_solve(config.warped, config.target, u0, config.solver_opts)


@pytest.mark.parametrize("text", [
    json.dumps(BUILTIN_SCENARIOS["hyperbolic_counterexample"]),
    # on a closed fiber Newton keeps the start's parity-class means: the
    # prolonged start must take those of the config's own initial field
    _cfg(fiber={"kind": "torus", "dims": [16, 16]}, warping="1+0.3*cos(x1)",
         initial="random(3, 0.2)"),
], ids=["hyperbolic_counterexample", "random_torus"])
def test_a_sequenced_solve_ends_where_a_direct_one_does(text):
    config = parse_config(text)
    level = _sequenced(config)
    assert level.start == "coarse"
    assert level.report.verdict.value == "converged"
    state, report = _direct_newton(config)
    assert report.verdict.value == "converged"
    assert np.abs(level.state.height.values - state.height.values).max() <= 1e-10


def test_a_kept_factor_that_fails_its_cycle_is_rebuilt(monkeypatch):
    # without the averaged stencil's inverse the disk's first step builds a
    # factor that later ones keep; one Krylov iteration cannot carry a
    # Jacobian on another's factor, so every step refactors and takes the
    # path of a fresh factor per step
    config = scenarios._resized_config(builtin_config("hyperbolic_counterexample"), [16, 32])
    monkeypatch.setattr(solver._Problem, "_averaged_inverse", lambda self, data: None)
    kept = _sequenced(config)
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 1)
    rebuilt = _sequenced(config)
    assert rebuilt.report.factorizations == rebuilt.report.iterations > 1
    assert rebuilt.report.verdict == kept.report.verdict == "converged"
    assert rebuilt.report.iterations == kept.report.iterations
    assert kept.report.factorizations == 1


def test_a_fresh_factor_that_rounding_holds_short_stops_early():
    # the averaged inverse misses the second step, and rounding keeps the
    # factor's run above _LINEAR_RTOL: it stops after the first restart cycle
    # from which one more could not finish, not after _MAX_LINEAR
    # iterations, and the step is refused as before
    report = run_scenario(parse_config(_disk_cfg(initial="2+2**2+2", metric="flat")))
    solve = report.to_json_dict()["solve"]
    assert (solve["verdict"], solve["iterations"], solve["factorizations"]) == ("max_iter", 1, 1)
    assert report.exit_code() == 3
    assert solve["krylov_iterations"] < solver._MAX_LINEAR // 10


@pytest.mark.parametrize("method,factors", [({}, [3, 2]), ({"method": "flow", "t_max": 40.0}, [5])],
                         ids=["newton", "flow"])
def test_a_disk_step_the_averaged_inverse_cannot_carry_builds_a_factor(monkeypatch, method,
                                                                       factors):
    # no bundled disk builds a factor; with four iterations the averaged
    # stencil's inverse carries no disk step, so the first step factors and
    # later ones keep that factor while one four-iteration cycle carries
    # them (newton's 5 and 3 steps on 3 and 2 factors, the flow's 12 on 5),
    # and the run ends where it did
    raw = dict(BUILTIN_SCENARIOS["hyperbolic_counterexample"], solver=method, checks=[])
    config = scenarios._resized_config(parse_config(json.dumps(raw)), [16, 32])

    def levels():
        report = run_scenario(config).to_json_dict()
        return report["coarse_solves"] + [report["solve"]]

    averaged = levels()
    monkeypatch.setattr(solver, "_MAX_LINEAR", 4)
    factored = levels()
    assert [level["factorizations"] for level in averaged] == [0] * len(averaged)
    assert [level["factorizations"] for level in factored] == factors
    assert ([(level["verdict"], level["iterations"]) for level in factored]
            == [(level["verdict"], level["iterations"]) for level in averaged])


def test_a_coarse_level_that_diverges_is_recorded_and_not_used(monkeypatch):
    config = parse_config(_cfg(fiber={"kind": "torus", "dims": [16, 16]}, warping="1",
                               initial="1e307*sin(x1)"))
    starts = []

    def recording_newton(wp, target, u0, opts):
        starts.append(u0.values)
        return newton_solve(wp, target, u0, opts)

    monkeypatch.setattr(scenarios, "newton_solve", recording_newton)
    report = run_scenario(config).to_json_dict()
    assert report["coarse_solves"] == [
        {"dims": [8, 8], "verdict": "diverged", "iterations": 0, "factorizations": 0,
         "krylov_iterations": 0}]
    assert report["start"] == "initial"
    assert [s.shape for s in starts] == [(8, 8), (16, 16)]
    assert np.array_equal(starts[-1], config.initial_values())
    assert report["solve"] == _direct_newton(config)[1].to_json_dict()


def test_a_witnessed_obstruction_parses_one_config(monkeypatch):
    # the witness decides every level alike, so no coarser level is built
    parsed = []
    parse = scenarios.parse_config

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(scenarios, "parse_config", counting_parse)
    report = run_scenario(builtin_config("obstruction_torus"))
    assert report.solve.verdict.value == "obstructed"
    assert (report.start, report.coarse_solves) == ("initial", [])
    assert len(parsed) == 1


def test_a_coarse_level_that_is_not_a_valid_config_is_skipped():
    # disk rings are not nested: this warping vanishes on the innermost ring
    # of the 8x8 disk, but not on any ring of the 16x16 one
    config = parse_config(json.dumps({"fiber": {"kind": "disk", "dims": [16, 16], "R": 1.0},
                                      "warping": "(rho-0.0625)^2"}))
    report = run_scenario(config)
    assert report.solve.verdict.value == "converged"
    assert (report.start, report.coarse_solves) == ("initial", [])


@pytest.mark.parametrize("name", ["identities", "uniqueness_torus"])
def test_circle_lift_checks_build_no_lifted_grid(monkeypatch, name):
    # the superharmonic and conformal checks evaluate the circle lift on the
    # 2-D fiber; a 3-D lift would hold the same values on every circle node
    kinds = []
    build = geometry.MetricField.__init__

    def recording(self, grid, mat):
        kinds.append(grid.kind)
        build(self, grid, mat)

    monkeypatch.setattr(geometry.MetricField, "__init__", recording)
    checks = run_scenario(builtin_config(name)).to_json_dict()["checks"]
    assert checks["superharmonic"]["pass"]
    assert checks.get("conformal_laplacian", {"pass": True})["pass"]
    assert GridKind.torus2d in kinds and GridKind.torus3d_lifted not in kinds


def test_a_3d_torus_takes_the_conformal_check_as_it_is():
    # a 3-D fiber is already in dimension 3: no circle lift, no config error
    report = run_scenario(parse_config(_cfg(fiber={"kind": "torus", "dims": [8, 8, 8]},
                                            warping="1+0.1*cos(x1)",
                                            checks=["conformal_laplacian"])))
    assert report.checks["conformal_laplacian"]["pass"]


def test_refinement_companions_start_from_the_level_before():
    report = run_scenario(builtin_config("identities"), refine=2).to_json_dict()
    below = report["coarse_solves"]
    for k, record in enumerate(report["refinements"]):
        previous = report if k == 0 else report["refinements"][k - 1]
        assert record["start"] == "coarse"
        assert record["coarse_solves"][:-1] == below
        assert record["coarse_solves"][-1] == {
            "dims": [32 * 2**k] * 2, "verdict": previous["solve"]["verdict"],
            "iterations": previous["solve"]["iterations"],
            "factorizations": previous["solve"]["factorizations"],
            "krylov_iterations": previous["solve"]["krylov_iterations"]}
        below = record["coarse_solves"]


def test_a_flow_ladder_starts_every_level_from_initial(monkeypatch):
    calls = []

    def counting_flow(*args, **kwargs):
        calls.append(args[2].grid.dims)
        return flow_solve(*args, **kwargs)

    monkeypatch.setattr(scenarios, "flow_solve", counting_flow)
    config = parse_config(_cfg(fiber={"kind": "torus", "dims": [16, 16]},
                               warping="1+0.3*cos(x1)", initial="0.2*sin(x1)",
                               solver={"method": "flow", "t_max": 1.0}))
    report = run_scenario(config, refine=2).to_json_dict()
    assert calls == [(16, 16), (32, 32), (64, 64)]
    for level in [report, *report["refinements"]]:
        assert (level["start"], level["coarse_solves"]) == ("initial", [])


@pytest.mark.parametrize("method", ["newton", "flow"])
def test_a_lost_height_fails_every_check_and_reads_no_angle(tmp_path, capsys, method):
    # the final height cannot be represented, so the solver hands back a
    # level zero stand-in; no check may pass on it
    config = tmp_path / "run.json"
    config.write_text(_cfg(warping="1+0.3*cos(x1)", initial="1e307*sin(x1)",
                           checks=["height_identity", "quasi_isometry", "compatibility",
                                   "superharmonic"], solver={"method": method}))
    assert main(["solve", str(config)]) == 3
    report = _strict_report(capsys.readouterr().out)
    assert report["solve"]["verdict"] == "diverged"
    assert report["solve"]["grad_sup"] == report["solve"]["u_oscillation"] == "inf"
    assert report["graph"] == {"theta_min": "nan", "theta_max": "nan"}
    assert len(report["checks"]) == 4
    for entry in report["checks"].values():
        assert entry["pass"] is False
        assert "no representable height" in entry["precondition"]


@pytest.mark.parametrize("check", ["conformal_laplacian", "superharmonic"])
def test_a_check_beyond_the_float_range_fails_after_the_solve(tmp_path, capsys, check):
    # h^4 underflows to zero, so the check's conformal factor is not
    # positive; the check fails with a report, not an invalid config
    config = tmp_path / "run.json"
    config.write_text(_cfg(warping="1e-90", checks=[check]))
    assert main(["solve", str(config)]) == 4
    report = _strict_report(capsys.readouterr().out)
    assert report["solve"]["verdict"] == "converged"
    entry = report["checks"][check]
    assert entry["pass"] is False and "must stay positive" in entry["precondition"]


@pytest.mark.parametrize("warping,check", [
    ("1e80", "conformal_laplacian"),
    ("1e-78", "conformal_laplacian"),
    ("1e-78", "superharmonic"),
])
def test_a_check_that_leaves_the_float_range_says_so_without_a_warning(
        tmp_path, capsys, warping, check):
    # h^4 overflows, or the circle lift divides by an underflowed factor;
    # numpy must not warn, and the entry must keep the field's own message
    config = tmp_path / "run.json"
    config.write_text(_cfg(warping=warping, checks=[check]))
    assert main(["solve", str(config)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    entry = _strict_report(captured.out)["checks"][check]
    assert entry["pass"] is False
    assert entry["precondition"].startswith("the check's arithmetic left the float range: ")
    assert "non-finite value" in entry["precondition"]


def test_a_tiny_warping_reads_its_graph_angle_without_overflow(tmp_path, capsys):
    # 1/(h W) overflows for h = 5e-324, but the angle h/W does not
    config = tmp_path / "run.json"
    config.write_text(_cfg(warping="5e-324"))
    assert main(["solve", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = _strict_report(captured.out)
    assert report["solve"]["verdict"] == "converged"
    assert report["graph"] == {"theta_min": 5e-324, "theta_max": 5e-324}


def test_a_lost_height_dumps_no_fields(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(_cfg(warping="1+0.3*cos(x1)", initial="1e307*sin(x1)"))
    fields = tmp_path / "fields"
    assert main(["solve", str(config), "--dump-fields", str(fields)]) == 3
    assert not (fields / "height.csv").exists()
    assert not (fields / "residual.csv").exists()


def test_every_requested_check_appears_exactly_once():
    text = _cfg(**{
        "fiber": {"kind": "torus", "dims": [16, 16]},
        "warping": "2",
        "checks": ["compatibility", "ricci_sign", "quasi_isometry"],
    })
    report = run_scenario(parse_config(text))
    assert sorted(report.checks) == ["compatibility", "quasi_isometry", "ricci_sign"]
    assert all(entry["pass"] for entry in report.checks.values())
    assert report.exit_code() == 0


def test_refinement_companions_double_every_axis():
    report = run_scenario(parse_config(_cfg()), refine=1)
    assert len(report.refinements) == 1
    assert report.refinements[0]["dims"] == [16, 16]
    assert report.refinements[0]["solve"]["verdict"] == "converged"


def test_dump_fields_writes_height_and_residual_csv(tmp_path):
    # one row per node, the pinned rim of the disk too
    for name, text, nodes in (("torus", _cfg(), 8 * 8), ("disk", _disk_cfg(), 8 * 16)):
        run_scenario(parse_config(text), dump_dir=str(tmp_path / name))
        for field in ("height.csv", "residual.csv"):
            lines = (tmp_path / name / field).read_text().splitlines()
            assert lines[0] == "i,j,x1,x2,value"
            assert len(lines) == 1 + nodes


@pytest.mark.parametrize("fiber,boundary,metric", [
    # three newton steps leave interior residuals near 1e-12 and exact zeros
    ({"kind": "disk", "dims": [16, 32], "R": 0.875}, "0.3*sin(4*theta)", "hyperbolic"),
    # the flat start is solved, so the rim keeps the data's signed zeros
    ({"kind": "disk", "dims": [8, 16], "R": 0.5}, "-0*cos(theta)", "flat"),
], ids=["solved", "signed_zeros"])
def test_dumped_fields_match_the_per_node_writer(monkeypatch, tmp_path, fiber, boundary, metric):
    dumped = {}

    def record(f, path):
        dumped[os.path.basename(path)] = f
        geometry.dump_field_csv(f, path)

    monkeypatch.setattr(scenarios, "dump_field_csv", record)
    text = _disk_cfg(fiber=fiber, boundary=boundary, metric=metric)
    report = run_scenario(parse_config(text), dump_dir=str(tmp_path / "run"))
    assert report.to_json_dict()["solve"]["verdict"] == "converged"
    assert sorted(dumped) == ["height.csv", "residual.csv"]
    for name, f in dumped.items():
        _dump_field_csv_per_node(f, tmp_path / name)
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_failed_check_on_an_unsolved_state_reports_and_exits_4():
    # pre-declared obstruction leaves the state unsolved, so a solved-state
    # check degrades to a recorded precondition failure, never a crash
    text = _cfg(H_target="0.1", expect="obstructed", checks=["height_identity"])
    report = run_scenario(parse_config(text))
    assert report.expectation["matched"]
    entry = report.checks["height_identity"]
    assert entry["pass"] is False and "precondition" in entry
    assert report.exit_code() == 4


def test_unknown_bundled_scenario_is_a_validation_error():
    with pytest.raises(ValidationError, match="unknown scenario"):
        builtin_config("nope")
    assert sorted(BUILTIN_SCENARIOS) == [
        "hyperbolic_counterexample", "identities", "obstruction_torus",
        "ricci_sign", "uniqueness_torus",
    ]


def test_verification_suite_passes_with_second_order_rates():
    suite = run_verification_suite()
    assert [entry["suite"] for entry in suite] == [
        "operator_order", "height_identity_order", "conformal_order",
        "ricci_sign", "quasi_isometry",
    ]
    assert all(entry["pass"] for entry in suite)
    for entry in suite:
        for order in entry["orders"].values():
            assert 1.7 <= order <= 2.6


# --------------------------------------------------------------------------
# command line


def test_cli_solve_writes_report_and_exits_zero(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(_cfg(**{
        "fiber": {"kind": "torus", "dims": [16, 16]},
        "warping": "1+0.3*cos(x1)",
        "initial": "0.2*sin(x1)",
        "checks": ["compatibility"],
    }))
    out = tmp_path / "report.json"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["solve"]["verdict"] == "converged"
    assert payload["checks"]["compatibility"]["pass"] is True


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_invalid_json_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"fiber": {"kind": "torus",\n dims = oops}')
    assert main(["solve", str(config)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_deeply_nested_formula_exits_2(tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_text(_cfg(H_target=_TOO_DEEP["parentheses"]))
    assert main(["solve", str(config)]) == 2
    assert "nests deeper than" in capsys.readouterr().err


def test_cli_config_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    # the JSON decoder recurses once per bracket: a config nested deeper
    # than the interpreter's stack is a validation problem, not a crash
    config = tmp_path / "deep.json"
    config.write_text("[" * 100000 + "]" * 100000)
    assert main(["solve", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid config: config nests too deeply to be read as JSON\n"
    with pytest.raises(ValidationError, match="nests too deeply"):
        parse_config('{"fiber": ' + "[" * 100000 + "]" * 100000 + "}")


def test_cli_refinement_over_the_node_budget_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(_cfg())
    assert main(["solve", str(config), "--refine", "8"]) == 2
    assert main(["scenario", "obstruction_torus", "--refine", str(10**9)]) == 2
    err = capsys.readouterr().err
    assert "dims [8, 8] refined 8 times exceed the budget" in err
    assert "dims [64, 64] refined 1000000000 times exceed the budget" in err


def test_negative_refine_is_rejected(tmp_path, capsys):
    with pytest.raises(ValidationError, match="must be >= 0, got -1"):
        _check_budget([8, 8], refine=-1)
    with pytest.raises(ValidationError, match="must be >= 0, got -2"):
        run_scenario(parse_config(_cfg()), refine=-2)
    config = tmp_path / "run.json"
    config.write_text(_cfg())
    assert main(["solve", str(config), "--refine", "-3"]) == 2
    assert main(["scenario", "obstruction_torus", "--refine", "-1"]) == 2
    err = capsys.readouterr().err
    assert "must be >= 0, got -3" in err
    assert "must be >= 0, got -1" in err


def test_negative_seed_is_rejected_before_any_run(monkeypatch):
    # PCG64 takes no negative seed; the run must not start to find that out
    monkeypatch.setattr(scenarios, "_solve_level", lambda *args: pytest.fail("a run started"))
    with pytest.raises(ValidationError, match="non-negative integer, got -1"):
        run_scenario(parse_config(_cfg(initial="random(1, 0.1)")), seed_override=-1)


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(_cfg(initial="random(1, 0.1)"))
    assert main(["solve", str(config), "--seed", "-1"]) == 2
    assert main(["scenario", "obstruction_torus", "--seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -1" in err
    assert "seed must be a non-negative integer, got -5" in err


def _strict_report(text: str) -> dict:
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("initial", ["1e120*sin(x1)", "1e140*sin(x1)"])
def test_cli_singular_newton_factor_ends_diverged(tmp_path, capsys, initial):
    # the tilt stays finite, but the Jacobian's pinned companion is exactly singular
    config = tmp_path / "run.json"
    config.write_text(_cfg(warping="1", H_target="0", initial=initial))
    assert main(["solve", str(config)]) == 3
    solve = _strict_report(capsys.readouterr().out)["solve"]
    assert solve["verdict"] == "diverged"
    assert solve["factorizations"] == 1


@pytest.mark.parametrize("method", ["newton", "flow"])
def test_cli_overflowed_tilt_ends_diverged_without_a_warning(tmp_path, capsys, method):
    # h |grad u| overflows, W is infinite and the flux reads zero: not a solved graph
    config = tmp_path / "run.json"
    config.write_text(_cfg(warping="1", H_target="0", initial="1e160*x1",
                           solver={"method": method}))
    assert main(["solve", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _strict_report(captured.out)["solve"]["verdict"] == "diverged"


@pytest.mark.parametrize("method", ["newton", "flow"])
@pytest.mark.parametrize("overrides", [
    # the Jacobian's stencil tables multiply difference weights 1/(2 dx) past the float range
    {"fiber": {"kind": "torus", "dims": [8, 8], "extents": [1e-160, 1e-160]}},
    # the residual kernel squares the warping past the float range
    {"warping": "1e200*(2+cos(x1))"},
], ids=["tiny_torus", "huge_warping"])
def test_cli_overflowed_set_up_ends_diverged_without_a_warning(tmp_path, capsys, overrides,
                                                               method):
    config = tmp_path / "run.json"
    config.write_text(_cfg(initial="sin(x1)", solver={"method": method}, **overrides))
    assert main(["solve", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _strict_report(captured.out)["solve"]["verdict"] == "diverged"


@pytest.mark.parametrize("overrides,code,verdict", [
    # the witness integrates H = 1e308: its partial sums overflow, and so does the integral
    ({"H_target": "1e308", "expect": "obstructed", "checks": ["compatibility"]},
     4, "obstructed"),
    # the flow's mean height integrates u = 1e308 at its start
    ({"initial": "1e308", "solver": {"method": "flow", "t_max": 1}}, 0, "converged"),
], ids=["witness", "flow_mean"])
def test_cli_an_integral_beyond_the_float_range_ends_in_a_report(tmp_path, capsys, overrides,
                                                                 code, verdict):
    config = tmp_path / "run.json"
    config.write_text(_cfg(**overrides))
    assert main(["solve", str(config)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    solve = _strict_report(captured.out)["solve"]
    assert solve["verdict"] == verdict
    if verdict == "obstructed":
        assert (solve["obstruction_witness"], solve["obstruction_source"]) == ("-inf", "witness")


@pytest.mark.parametrize("config", [
    # Newton's merit and slope square a residual of 2e154
    _disk_cfg(H_target="1e154"),
    # the flow's GMRES right side has a squared norm past the float range
    _cfg(H_target="1e200", solver={"method": "flow", "t_max": 1}),
    # the warping's differences overflow
    _disk_cfg(warping="1e308"),
    # the preconditioned right side overflows unless scaled first, and so does
    # the product of the witness's integral
    _cfg(metric="1e10", H_target="1e300*sin(x1)"),
], ids=["disk_merit", "torus_flow", "disk_warping", "torus_metric"])
def test_cli_data_near_the_float_range_ends_in_a_report_without_a_warning(tmp_path, capsys,
                                                                         config):
    path = tmp_path / "run.json"
    path.write_text(config)
    assert main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    solve = _strict_report(captured.out)["solve"]
    # no overflow passes for a stalled step
    assert solve["verdict"] in ("max_iter", "diverged")


def test_cli_a_disk_superharmonic_check_beyond_the_float_range_says_so(tmp_path, capsys):
    # h_sup^4 overflows: the disk fails the check as the torus does, with a report
    config = tmp_path / "run.json"
    config.write_text(_disk_cfg(warping="1e154", checks=["superharmonic"]))
    assert main(["solve", str(config)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    entry = _strict_report(captured.out)["checks"]["superharmonic"]
    assert entry["pass"] is False
    assert entry["precondition"].startswith("the check's arithmetic left the float range: ")


def test_cli_a_metric_whose_symmetrization_overflows_is_refused_in_one_line(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(_cfg(metric="1e308"))
    assert main(["solve", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid config: metric determinant or inverse is out of "
                            "floating-point range at node (0, 0)\n")


def test_non_finite_initial_formula_is_rejected_at_parse_by_name(tmp_path, capsys):
    with pytest.raises(ValidationError, match=r"initial evaluates to a non-finite value"):
        parse_config(_cfg(initial="ln(x1)"))
    config = tmp_path / "run.json"
    config.write_text(_cfg(initial="ln(x1)"))
    assert main(["solve", str(config)]) == 2
    assert "initial evaluates to a non-finite value at node (0, 0)" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "latin.json"
    config.write_bytes(b'{"fiber": {"kind": "torus", "dims": [8, 8]}, "warping": "1\xff"}')
    assert main(["solve", str(config)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_emit_writes_non_finite_numbers_as_strings(tmp_path):
    out = tmp_path / "report.json"
    cli._emit({"solve": {"grad_sup": math.inf, "u_oscillation": -math.inf,
                         "residual_history": [1.0, math.nan]}}, str(out))

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    assert json.loads(out.read_text(), parse_constant=reject) == {
        "solve": {"grad_sup": "inf", "u_oscillation": "-inf",
                  "residual_history": [1.0, "nan"]},
    }


def test_cli_scenarios_take_no_parallel_flag(capsys):
    # scenarios run one after another; the retired flag is an unknown option
    with pytest.raises(SystemExit) as exit_info:
        main(["scenario", "obstruction_torus", "--parallel"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


def test_cli_unknown_scenario_exits_2(capsys):
    assert main(["scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_every_scenario_name_is_read_before_any_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("a run started"))
    out = tmp_path / "reports.json"
    assert main(["scenario", "obstruction_torus", "nope", "--out", str(out)]) == 2
    assert "invalid scenario: unknown scenario 'nope'" in capsys.readouterr().err
    assert not out.exists()


def _one_line_refusal(capsys, prefix: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("command", [["solve"], ["scenario", "obstruction_torus"], ["verify"]],
                         ids=["solve", "scenario", "verify"])
def test_cli_a_report_path_that_cannot_be_written_exits_2(monkeypatch, tmp_path, capsys,
                                                          command):
    # refused before any solve: neither a scenario nor the battery runs
    _forbid_runs(monkeypatch)
    if command == ["solve"]:
        config = tmp_path / "run.json"
        config.write_text(_cfg())
        command = ["solve", str(config)]
    assert main([*command, "--out", str(tmp_path / "absent" / "report.json")]) == 2
    _one_line_refusal(capsys, "cannot write report: ")
    assert main([*command, "--out", str(tmp_path)]) == 2
    _one_line_refusal(capsys, "cannot write report: ")


@pytest.mark.parametrize("dump,out", [("d", "d"), ("a/b", "a/b"), ("a/b", "a/missing/r.json")],
                         ids=["same", "nested", "nested_missing"])
def test_cli_a_refused_report_path_leaves_no_directory_it_made(monkeypatch, tmp_path, capsys,
                                                             dump, out):
    _forbid_runs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    kept = tmp_path / "kept"
    kept.mkdir()
    for fields in (dump, f"kept/{dump}"):
        report = out if fields == dump else f"kept/{out}"
        assert main(["scenario", "obstruction_torus", "--dump-fields", fields,
                     "--out", report]) == 2
        _one_line_refusal(capsys, "cannot write report: ")
    # only the directory that was there before the runs is left
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]


@pytest.mark.parametrize("names,out", [
    (["obstruction_torus"], "d/height.csv"),
    (["obstruction_torus"], "d/missing/../residual.csv"),
    (["obstruction_torus", "ricci_sign"], "d/ricci_sign/height.csv"),
], ids=["height", "residual", "second_run"])
def test_cli_a_report_over_a_dumped_field_is_refused_before_any_run(monkeypatch, tmp_path,
                                                                    capsys, names, out):
    _forbid_runs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["scenario", *names, "--dump-fields", "d", "--out", out]) == 2
    _one_line_refusal(capsys, "cannot write report: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config,args,refusal", [
    ("c.json", ["--out", "c.json"], "cannot write report: "),
    ("c.json", ["--out", "missing/../c.json"], "cannot write report: "),
    ("c.json", ["--dump-fields", "new/d", "--out", "c.json"], "cannot write report: "),
    ("d/height.csv", ["--dump-fields", "d"], "cannot write fields: "),
    ("d/residual.csv", ["--dump-fields", "./d", "--out", "r.json"], "cannot write fields: "),
], ids=["report", "report_dotdot", "report_beside_a_new_dump", "height", "residual"])
def test_cli_an_output_over_the_config_is_refused_before_any_run(monkeypatch, tmp_path, capsys,
                                                                  config, args, refusal):
    _forbid_runs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / config).write_text(_cfg())
    assert main(["solve", config, *args]) == 2
    _one_line_refusal(capsys, refusal)
    assert (tmp_path / config).read_text() == _cfg()
    # nothing but the config is left: no report, no field, no directory the run made
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == sorted(
        {"d", config})


def test_cli_a_report_elsewhere_in_a_dump_directory_is_written_beside_the_fields(
        monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["scenario", "obstruction_torus", "--dump-fields", "d",
                 "--out", "d/report.json"]) == 0
    for name in ("height.csv", "residual.csv"):
        assert (tmp_path / "d" / name).read_text().startswith("i,j,x1,x2,value\n")
    assert json.loads((tmp_path / "d" / "report.json").read_text())["scenario"] == (
        "obstruction_torus")


def _forbid_runs(monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("a run started"))
    monkeypatch.setattr(cli, "run_verification_suite", lambda: pytest.fail("the battery started"))


@pytest.mark.parametrize("command", [
    ["solve"], ["scenario", "obstruction_torus"], ["scenario", "obstruction_torus", "ricci_sign"]],
    ids=["solve", "scenario", "scenarios"])
def test_cli_fields_that_cannot_be_written_exit_2_and_write_no_report(tmp_path, capsys, command):
    if command == ["solve"]:
        config = tmp_path / "run.json"
        config.write_text(_cfg())
        command = ["solve", str(config)]
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = tmp_path / "report.json"
    assert main([*command, "--dump-fields", str(taken), "--out", str(out)]) == 2
    _one_line_refusal(capsys, "cannot write fields: ")
    assert not out.exists()


def test_cli_a_dump_taken_by_a_file_is_refused_before_any_run_and_makes_no_directory(
        monkeypatch, tmp_path, capsys):
    # the second name's dump is a file: the first name's directory is not made either
    _forbid_runs(monkeypatch)
    fields = tmp_path / "d"
    fields.mkdir()
    (fields / "ricci_sign").write_text("not a directory\n")
    out = tmp_path / "r.json"
    assert main(["scenario", "obstruction_torus", "ricci_sign",
                 "--dump-fields", str(fields), "--out", str(out)]) == 2
    _one_line_refusal(capsys, "cannot write fields: ")
    assert not (fields / "obstruction_torus").exists()
    assert not out.exists()


def test_cli_iteration_exhaustion_exits_3(tmp_path, capsys):
    config = tmp_path / "short.json"
    config.write_text(_cfg(**{
        "fiber": {"kind": "torus", "dims": [16, 16]},
        "warping": "1+0.3*cos(x1)",
        "initial": "0.3*sin(x1)",
        "solver": {"max_newton": 1},
    }))
    out = tmp_path / "report.json"
    assert main(["solve", str(config), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["solve"]["verdict"] == "max_iter"


def test_cli_expectation_mismatch_exits_4(tmp_path):
    config = tmp_path / "mismatch.json"
    config.write_text(_cfg(H_target="0.1", expect="converged"))
    out = tmp_path / "report.json"
    assert main(["solve", str(config), "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert payload["expectation"] == {
        "expected": "converged", "observed": "obstructed", "matched": False,
    }


def test_cli_a_varying_warping_obstructs_by_stagnation_without_a_witness(tmp_path, capsys):
    # the warping varies, so the compatibility witness cannot decide; Newton
    # stagnates at the shortest step on every level of the ladder and says
    # obstructed behaviorally, with no witness in the report
    config = tmp_path / "stalled.json"
    config.write_text(_cfg(**{
        "fiber": {"kind": "torus", "dims": [32, 32]},
        "warping": "1+0.3*cos(x1)",
        "H_target": "0.1",
        "expect": "obstructed",
        "checks": ["compatibility"],
    }))
    out = tmp_path / "report.json"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    coarse = [(level["dims"], level["verdict"], level["iterations"])
              for level in payload["coarse_solves"]]
    assert coarse == [([8, 8], "obstructed", 9), ([16, 16], "obstructed", 5)]
    finest = payload["solve"]
    assert (finest["verdict"], finest["iterations"]) == ("obstructed", 5)
    assert finest["residual_history"][-1] != finest["residual_history"][-2]
    assert "obstruction_witness" not in finest
    assert finest["obstruction_source"] == "stalled_step"
    assert payload["checks"]["compatibility"]["pass"] is True
    assert payload["expectation"]["matched"] is True


def test_cli_a_stalled_step_on_a_disk_ends_max_iter_not_obstructed(tmp_path, capsys):
    # u = 0 solves this disk, yet Newton from the rough start stalls; with no
    # certificate of non-existence on a disk the stall is exhaustion
    config = tmp_path / "rough.json"
    config.write_text(_disk_cfg(initial="random(3, 0.05)"))
    assert main(["solve", str(config)]) == 3
    solve = _strict_report(capsys.readouterr().out)["solve"]
    assert (solve["verdict"], solve["iterations"]) == ("max_iter", 9)
    assert solve["residual_history"][-1] > solve["residual_history"][0]
    assert "obstruction_source" not in solve


def test_cli_scenarios_with_field_dumps(tmp_path):
    out = tmp_path / "reports.json"
    code = main(["scenario", "obstruction_torus", "ricci_sign",
                 "--dump-fields", str(tmp_path / "fields"), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [r["scenario"] for r in payload] == ["obstruction_torus", "ricci_sign"]
    assert abs(payload[0]["solve"]["obstruction_witness"]) == pytest.approx(
        0.1 * 2.0 * 4.0 * math.pi**2)
    assert payload[0]["solve"]["obstruction_source"] == "witness"
    assert "obstruction_source" not in payload[1]["solve"]  # converged
    for name in ("obstruction_torus", "ricci_sign"):
        assert (tmp_path / "fields" / name / "height.csv").exists()


def test_cli_remaining_bundled_scenarios_exit_zero(tmp_path):
    out = tmp_path / "reports.json"
    code = main(["scenario", "uniqueness_torus", "identities",
                 "hyperbolic_counterexample", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    for report in payload:
        assert report["expectation"]["matched"]
        assert all(entry["pass"] for entry in report["checks"].values())
    # the disk counterexample really is non-constant and bounded
    disk = payload[2]
    assert disk["solve"]["u_oscillation"] > 0.5
    assert math.isfinite(disk["solve"]["grad_sup"])


def test_cli_verify_battery_exits_zero(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert all(entry["pass"] for entry in payload)
