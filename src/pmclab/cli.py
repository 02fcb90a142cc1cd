"""Command-line front end.

Subcommands: ``solve`` runs a JSON config file, ``scenario`` runs one or
more bundled scenarios by name, one after another, every name read before
the first runs, ``verify`` runs the identity/refinement battery.  Reports
are emitted as JSON (stdout or ``--out``).  Exit codes: 0 when the
outcome matched the scenario's expectation and every check passed, 2 for
validation problems (a config file that cannot be read as UTF-8, a config
or formulas nested too deeply, a torus kind that contradicts its dims, a
negative ``--refine`` or ``--seed``, grids or refinements over the node
budget, an unknown option, a report or field dump that cannot be
written), 3 when the solver diverged or ran out of iterations, 4 for
failed checks or a verdict that contradicts the expectation.  Reports are
strict JSON: non-finite numbers are written as the strings ``"inf"``,
``"-inf"`` and ``"nan"``.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .geometry import ConstructionError, GridMismatchError, ModelDomainError
from .formulas import FormulaError
from .scenarios import (
    BUILTIN_SCENARIOS,
    ValidationError,
    builtin_config,
    parse_config,
    run_scenario,
    run_verification_suite,
)

_CONFIG_ERRORS = (ValidationError, FormulaError, ConstructionError,
                  GridMismatchError, ModelDomainError)


def _finite_json(value):
    """``value`` with every non-finite float replaced by ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(_finite_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="REPORT.json", help="write the JSON report here")
    sub.add_argument("--dump-fields", metavar="DIR",
                     help="write final height/residual fields as CSV into DIR")
    sub.add_argument("--refine", type=int, default=0, metavar="K",
                     help="add K companion runs with axis counts doubled per level")
    sub.add_argument("--seed", type=int, default=None, metavar="N",
                     help="override the seed of a random(...) initial field; "
                          "a non-negative integer")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmclab",
        description="Prescribed-mean-curvature graphs over warped-product fibers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run a scenario config file")
    solve.add_argument("config", metavar="CONFIG.json")
    _add_run_flags(solve)

    scenario = subs.add_parser("scenario", help="run bundled scenarios by name")
    scenario.add_argument("names", nargs="+", metavar="NAME",
                          help=f"one of: {', '.join(sorted(BUILTIN_SCENARIOS))}")
    _add_run_flags(scenario)

    verify = subs.add_parser("verify", help="run the identity verification battery")
    verify.add_argument("--out", metavar="REPORT.json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "verify":
        payload = run_verification_suite()
        failing = [entry["suite"] for entry in payload if not entry["pass"]]
        code = 4 if failing else 0
    else:
        if args.command == "solve":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as e:
                print(f"cannot read config: {e}", file=sys.stderr)
                return 2
        kind = "config" if args.command == "solve" else "scenario"
        try:
            # every config is read before the first one runs
            runs = ([(None, parse_config(text))] if args.command == "solve"
                    else [(name, builtin_config(name)) for name in args.names])
            reports = []
            for name, config in runs:
                dump = (os.path.join(args.dump_fields, name)
                        if args.dump_fields is not None and len(runs) > 1 else args.dump_fields)
                reports.append(run_scenario(config, scenario_name=name, dump_dir=dump,
                                            refine=args.refine, seed_override=args.seed))
        except _CONFIG_ERRORS as e:
            print(f"invalid {kind}: {e}", file=sys.stderr)
            return 2
        except OSError as e:
            print(f"cannot write fields: {e}", file=sys.stderr)
            return 2
        payload = reports[0].to_json_dict() if len(reports) == 1 \
            else [r.to_json_dict() for r in reports]
        failing, code = [], max(r.exit_code() for r in reports)

    try:
        _emit(payload, args.out)
    except OSError as e:
        print(f"cannot write report: {e}", file=sys.stderr)
        return 2
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
