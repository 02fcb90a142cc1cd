"""Command-line front end.

Subcommands: ``solve`` runs a JSON config file, ``scenario`` runs one or
more bundled scenarios by name, one after another, ``verify`` runs the
identity/refinement battery.  Every name is read, every field dump
directory made and the report path checked before the first run; a run
refused for its report path removes the directories it made.  Reports
are emitted as JSON (stdout or ``--out``).  Exit codes: 0 when the outcome
matched the scenario's expectation and every check passed, 2 for validation
problems (a config file that cannot be read as UTF-8, a config or formulas
nested too deeply, a torus kind that contradicts its dims, a negative
``--refine`` or ``--seed``, grids or refinements over the node budget, an
unknown option, a report or field dump that cannot be written, a report
path that names a dumped field or the config file, a field dump that would
overwrite the config file), 3 when the solver diverged or ran out of
iterations, 4 for failed checks or a verdict that contradicts the
expectation.  Reports are strict JSON: non-finite numbers are written as
the strings ``"inf"``, ``"-inf"`` and ``"nan"``.  No environment variables
are consulted.
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
    DUMP_FILES,
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
    verify.set_defaults(names=(), dump_fields=None)  # no scenario runs, no field dumps
    return parser


def _make_dirs(path: str) -> list[str]:
    """Make the directory ``path`` and its missing parents; returns those it made."""
    made, head = [], os.path.abspath(path)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    return made


def _report_refusal(out: str, dumped: set[str], config: str | None) -> str | None:
    """Why the report cannot be written to ``out``, or None.

    ``dumped`` holds the real paths of the dumped fields, and ``config``
    is the config file read, if any.
    """
    target = os.path.realpath(out)
    if target in dumped:
        return "would overwrite a dumped field"
    if config is not None and target == os.path.realpath(config):
        return "would overwrite the config"
    out_dir = os.path.dirname(os.path.abspath(out))
    if (os.path.isdir(out) or not os.path.isdir(out_dir)
            or not os.access(out_dir, os.W_OK | os.X_OK)):
        return "is not a writable file path"
    return None


def _refuse(message: str) -> int:
    """Print the one-line ``message`` to stderr; the exit code 2 of a refused run."""
    print(message, file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "solve":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            return _refuse(f"cannot read config: {e}")
    kind = "config" if args.command == "solve" else "scenario"
    try:
        # every config is read, and every output path made or checked, before the first run
        runs = ([(None, parse_config(text))] if args.command == "solve"
                else [(name, builtin_config(name)) for name in args.names])
        dumps = [os.path.join(args.dump_fields, name)
                 if args.dump_fields is not None and len(runs) > 1 else args.dump_fields
                 for name, _ in runs]
        dumped = {os.path.realpath(os.path.join(dump, name))
                  for dump in filter(None, dumps) for name in DUMP_FILES}
        config = args.config if args.command == "solve" else None
        if config is not None and os.path.realpath(config) in dumped:
            return _refuse(f"cannot write fields: {args.dump_fields!r} would overwrite "
                           f"the config")
        # a dump path taken by a file goes first, so that its refusal makes no directory
        made = [path for dump in sorted(filter(None, dumps), key=os.path.isfile, reverse=True)
                for path in _make_dirs(dump)]
        # the dumps are made first: the report may be written into one of them
        refusal = None if args.out is None else _report_refusal(args.out, dumped, config)
        if refusal is not None:
            for path in sorted(made, key=len, reverse=True):  # a child before its parent
                os.rmdir(path)
            return _refuse(f"cannot write report: {args.out!r} {refusal}")
        reports = [run_scenario(config, scenario_name=name, dump_dir=dump,
                                refine=args.refine, seed_override=args.seed)
                   for (name, config), dump in zip(runs, dumps)]
    except _CONFIG_ERRORS as e:
        return _refuse(f"invalid {kind}: {e}")
    except OSError as e:
        return _refuse(f"cannot write fields: {e}")

    if args.command == "verify":
        payload = run_verification_suite()
        failing = [entry["suite"] for entry in payload if not entry["pass"]]
        code = 4 if failing else 0
    else:
        payload = reports[0].to_json_dict() if len(reports) == 1 \
            else [r.to_json_dict() for r in reports]
        failing, code = [], max(r.exit_code() for r in reports)

    try:
        _emit(payload, args.out)
    except OSError as e:
        return _refuse(f"cannot write report: {e}")
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
