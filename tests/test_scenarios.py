"""Config parsing, scenario runs, bundled scenarios, and the CLI.

Exit-code contract: 0 outcome-as-expected with all checks passing,
2 validation problems, 3 divergence or iteration exhaustion, 4 failed
checks or an outcome that contradicts the declared expectation.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmclab import cli
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
    ValidationError,
    _check_budget,
    builtin_config,
    parse_config,
    run_scenario,
    run_verification_suite,
)

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


def test_formula_unknown_symbol_reports_position():
    with pytest.raises(FormulaError, match=r"unknown symbol 'q' at position 4"):
        Formula("sin(q)", ("x1", "x2"))


def test_formula_stray_character_reports_position():
    with pytest.raises(FormulaError, match=r"position 3"):
        Formula("x1 $ 2", ("x1",))


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
    assert n["solver"]["gauge"] == "fix_mean"
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
    ({"gauge": "anchor"}, "unknown gauge"),
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
    ({"gauge": "none"}, "unknown gauge 'none'; valid: fix_mean, pin_node"),
    ({"method": "flow", "max_newton": 5}, "max_newton only applies to the newton method"),
    ({"method": "flow", "gauge": "pin_node"}, "gauge only applies to the newton method"),
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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_SOLVER_SECTIONS)
def test_solver_numbers_parse_or_raise_validation_error(solver):
    try:
        parse_config(_cfg(solver=solver))
    except ValidationError:
        pass


@pytest.mark.parametrize("solver,keys", [
    ({}, ["gauge", "max_newton", "method", "tol_abs"]),
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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**128), _AMPLITUDES)
def test_random_initial_parses_or_raises_validation_error(seed, amplitude):
    try:
        config = parse_config(_cfg(initial=f"random({seed}, {amplitude})"))
    except ValidationError:
        return
    assert np.isfinite(config.initial_values()).all()


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


def test_report_is_deterministic_up_to_wall_time():
    text = _cfg(**{
        "fiber": {"kind": "torus", "dims": [16, 16]},
        "warping": "1+0.3*cos(x1)",
        "initial": "random(3, 0.2)",
        "solver": {"max_newton": 8},
    })
    first = run_scenario(parse_config(text))
    second = run_scenario(parse_config(text))
    assert _without_wall_time(first) == _without_wall_time(second)
    # the echoed config re-parses to an equivalent config
    echo = json.dumps(first.config)
    assert parse_config(echo).echo_json() == parse_config(text).echo_json()


@pytest.mark.parametrize("name,solver,counts", [
    # 14 accepted steps and 6 rejected trials, each trial one LU factor
    ("hyperbolic_counterexample", {"method": "flow", "t_max": 40.0}, (14, 20)),
    ("obstruction_torus", {"method": "flow", "t_max": 5.0}, (16, 16)),
    # newton factors once per step; the witness declares the obstruction
    # before any step
    ("uniqueness_torus", {}, (3, 3)),
    ("obstruction_torus", {}, (0, 0)),
])
def test_report_counts_every_factorization(name, solver, counts):
    raw = dict(BUILTIN_SCENARIOS[name], solver=solver, checks=[])
    solve = run_scenario(parse_config(json.dumps(raw))).to_json_dict()["solve"]
    assert (solve["iterations"], solve["factorizations"]) == counts


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
    run_scenario(parse_config(_cfg()), dump_dir=str(tmp_path))
    height = (tmp_path / "height.csv").read_text().splitlines()
    residual = (tmp_path / "residual.csv").read_text().splitlines()
    assert height[0] == "i,j,x1,x2,value"
    assert len(height) == 1 + 8 * 8
    assert len(residual) == 1 + 8 * 8


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


@pytest.mark.parametrize("cpus,workers", [(2, 2), (8, 3), (None, 1)])
def test_cli_parallel_pool_is_capped_by_the_cpu_count(monkeypatch, tmp_path, cpus, workers):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    out = tmp_path / "reports.json"
    assert main(["scenario", *["obstruction_torus"] * 3, "--parallel", "--out", str(out)]) == 0
    assert sizes == [workers]


def test_cli_unknown_scenario_exits_2(capsys):
    assert main(["scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


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


def test_cli_scenarios_in_parallel_with_field_dumps(tmp_path):
    out = tmp_path / "reports.json"
    code = main(["scenario", "obstruction_torus", "ricci_sign", "--parallel",
                 "--dump-fields", str(tmp_path / "fields"), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [r["scenario"] for r in payload] == ["obstruction_torus", "ricci_sign"]
    assert abs(payload[0]["solve"]["obstruction_witness"]) == pytest.approx(
        0.1 * 2.0 * 4.0 * math.pi**2)
    for name in ("obstruction_torus", "ricci_sign"):
        assert (tmp_path / "fields" / name / "height.csv").exists()


def test_cli_parallel_reports_match_sequential_ones(tmp_path):
    texts = []
    for flags in ([], ["--parallel"]):
        out = tmp_path / f"reports{len(flags)}.json"
        assert main(["scenario", "identities", "ricci_sign", "obstruction_torus",
                     "--refine", "1", *flags, "--out", str(out)]) == 0
        texts.append(re.sub(r'"wall_time_s": [^\n]*', '"wall_time_s"', out.read_text()))
    assert texts[0] == texts[1]


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
