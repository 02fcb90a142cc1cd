"""Benchmark: time-to-solution of pmclab on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload newton_hyperbolic_disk --seed 1 --seconds 25 --trace 0

One process runs one workload single-threaded: BLAS and OpenMP pools are
pinned to one thread before numpy loads.  Set-up is timed in several fresh
interpreters that each import ``pmclab`` and build the workload's configs
(``setup_probe.py``).  Ops then run back to back until the next one would
end past ``--seconds``, at least three of them; each op's output goes
through its oracle outside the timed region, and an op whose oracle fails
counts as failed.

``--trace 0`` times ops with no instrumentation and reports the end-to-end
metrics.  Their seconds are medians scaled by the reference kernel of
``calibration.py``, timed between probes and between ops, so that host
speed drift cancels; the raw medians are printed beside them.
``--trace 1`` alternates untraced and traced ops, records spans around the
calls into each layer (``tracing.py``), writes them to ``perfbench/out/``,
and reports per-layer metrics per traced op plus the tracing overhead.
The last line of stdout is the JSON result; the lines before it are for
people.  Exits 2 without a result when the checkout has no ``src/pmclab``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
MIN_OPS = 3
CALIBRATION_SHARE = 0.1


def checkout_ready() -> bool:
    return os.path.isfile(os.path.join(SRC, "pmclab", "__init__.py"))


def import_from_checkout() -> None:
    """Import ``pmclab`` from this checkout's ``src``, never from an installed copy."""
    sys.path.insert(0, SRC)
    import pmclab

    if os.path.dirname(os.path.dirname(os.path.abspath(pmclab.__file__))) != SRC:
        raise ImportError(f"pmclab resolved to {pmclab.__file__}, not to {SRC}")


def measure_setup(workload: str, seed: int, calibration) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh probe processes, each after one timing of the kernel."""
    probe_s, kernel_s = [], []
    for _ in range(SETUP_PROBES):
        kernel_s.append(calibration.seconds())
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        probe_s.append(float(done.stdout.strip().splitlines()[-1]))
    return probe_s, kernel_s


def run_ops(workload, seconds: float, tracer=None, calibration=None):
    """Run ops until the next would end after ``seconds``; trace every second op.

    With a ``calibration``, its kernel is timed before each op and after
    the last, for about a tenth of the op time; returns the ops and the
    kernel times.
    """
    ops, kernel_s = [], []

    def calibrate():
        if calibration is not None:
            passes = 1
            if ops:
                typical = statistics.median(op["seconds"] for op in ops)
                passes = max(1, round(CALIBRATION_SHARE * typical / statistics.median(kernel_s)))
            kernel_s.extend(calibration.seconds() for _ in range(passes))

    start = time.perf_counter()
    while True:
        i = len(ops)
        calibrate()
        traced = tracer is not None and i % 2 == 1
        record = {"op": i, "traced": traced}
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.phase(i):
                    out = workload.op(i)
            else:
                out = workload.op(i)
            record["seconds"] = time.perf_counter() - t0
            record["ok"], record["detail"] = workload.check(i, out)
        except Exception:
            record.setdefault("seconds", time.perf_counter() - t0)
            record["ok"], record["detail"] = False, {"error": traceback.format_exc()}
            traceback.print_exc(file=sys.stderr)
        ops.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(op["seconds"] for op in ops)
        if len(ops) >= MIN_OPS and elapsed + typical > seconds:
            calibrate()
            return ops, kernel_s


def per_layer_metrics(summary: dict, ops: list[dict]) -> dict:
    """Per traced op means of the layer figures, plus set-up parse cost and tracing overhead."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]

    def mean(part: str, name: str) -> float:
        return sum(summary.get(op["op"], {}).get(part, {}).get(name, 0) for op in traced) / len(traced)

    residual_s = mean("incl_s", "warped.residual")
    residual_calls = mean("calls", "warped.residual")
    residual_nodes = mean("attrs", "warped.residual.nodes")
    setup = summary.get("setup", {})
    values = {
        "solver.newton_solve_s": mean("incl_s", "solver.newton_solve"),
        "solver.newton_iters": mean("attrs", "solver.newton_solve.iterations"),
        "solver.linear_solve_s": mean("incl_s", "solver.gmres"),
        "solver.krylov_matvecs": mean("calls", "solver.matvec"),
        "solver.matvec_s": mean("incl_s", "solver.matvec"),
        "solver.krylov_self_s": mean("self_s", "solver.gmres"),
        "solver.flow_solve_s": mean("incl_s", "solver.flow_solve"),
        "solver.flow_steps": mean("attrs", "solver.flow_solve.iterations"),
        "warped.residual_calls": residual_calls,
        "warped.residual_s": residual_s,
        "warped.residual_us_per_call": 1e6 * residual_s / residual_calls if residual_calls else 0.0,
        "warped.residual_mnodes_per_s": residual_nodes / residual_s / 1e6 if residual_s else 0.0,
        "geometry.integrate_calls": mean("calls", "geometry.integrate"),
        "geometry.integrate_s": mean("incl_s", "geometry.integrate"),
        "geometry.divergence_s": mean("incl_s", "geometry.divergence"),
        "geometry.coordinate_partials_s": mean("incl_s", "geometry.coordinate_partials"),
        "warped.check_superharmonic_s": mean("incl_s", "warped.check_superharmonic"),
        "warped.check_conformal_laplacian_s": mean("incl_s", "warped.check_conformal_laplacian"),
        "warped.quasi_isometry_constants_s": mean("incl_s", "warped.quasi_isometry_constants"),
        "warped.check_height_identity_s": mean("incl_s", "warped.check_height_identity"),
        "scenarios.checks_s": mean("incl_s", "scenarios.check"),
        "scenarios.verify_suite_s": mean("incl_s", "scenarios.verify_suite"),
        "scenarios.parse_config_calls": setup.get("calls", {}).get("scenarios.parse_config", 0),
        "scenarios.parse_config_s": setup.get("incl_s", {}).get("scenarios.parse_config", 0.0),
        "cli.main_s": mean("incl_s", "cli.main"),
        "cli.self_s": mean("self_s", "cli.main"),
        "trace.overhead_s": (statistics.median(op["seconds"] for op in traced)
                             - statistics.median(op["seconds"] for op in untraced)),
    }
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not checkout_ready():
        print(f"no pmclab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    import_from_checkout()
    import numpy
    import scipy
    import tracing
    import workloads
    from calibration import REFERENCE_S, Calibration

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]

    if not args.trace:
        calibration = Calibration()
        probe_s, probe_kernel_s = measure_setup(args.workload, args.seed, calibration)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.phase("setup"):
                workload = make(args.seed, workdir)
            ops, _ = run_ops(workload, args.seconds, tracer)
        else:
            workload = make(args.seed, workdir)
            ops, kernel_s = run_ops(workload, args.seconds, calibration=calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"failed_ops_ratio {failed}/{len(ops)} = {failed / len(ops):g}")
    print(f"  context: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}, BLAS/OpenMP threads "
          f"{os.environ['OPENBLAS_NUM_THREADS']}")
    for op in ops:
        print(f"  op {op['op']} {'traced' if op['traced'] else 'untraced'} "
              f"{op['seconds']:.4f} s ok={op['ok']} {json.dumps(op['detail'], sort_keys=True)}")

    if args.trace:
        summary = tracing.summarize(tracer.spans)
        metrics = per_layer_metrics(summary, ops)
        units = {name: "count" if name.endswith(("_calls", "_iters", "_matvecs", "_steps"))
                 else "us" if name.endswith("_us_per_call")
                 else "Mnodes/s" if name.endswith("_mnodes_per_s") else "s"
                 for name in metrics}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": ops,
                       "per_op": summary, "metrics": metrics,
                       "span_fields": ["id", "parent", "op", "name", "t0", "t1", "attrs"],
                       "spans": tracer.spans}, fh)
        for op in ops:
            if op["traced"]:
                calls = summary[op["op"]]["calls"]
                attrs = summary[op["op"]]["attrs"]
                print(f"  op {op['op']} counts: newton_iters "
                      f"{attrs.get('solver.newton_solve.iterations', 0)}, flow_steps "
                      f"{attrs.get('solver.flow_solve.iterations', 0)}, residual_calls "
                      f"{calls.get('warped.residual', 0)}, krylov_matvecs "
                      f"{calls.get('solver.matvec', 0)}")
        print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    else:
        wall_p50 = statistics.median(op["seconds"] for op in ops)
        kernel_p50 = statistics.median(kernel_s)
        probe_p50 = statistics.median(probe_s)
        probe_kernel_p50 = statistics.median(probe_kernel_s)
        metrics = {
            "setup_s": probe_p50 * REFERENCE_S / probe_kernel_p50,
            "op_s_p50": wall_p50 * REFERENCE_S / kernel_p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}
        print(f"  setup_s {metrics['setup_s']:.4f} s = probe p50 {probe_p50:.4f} s "
              f"(n={len(probe_s)}) x reference {REFERENCE_S} s / kernel p50 "
              f"{probe_kernel_p50:.4f} s (n={len(probe_kernel_s)})")
        print(f"  op_s_p50 {metrics['op_s_p50']:.4f} s = wall p50 {wall_p50:.4f} s (n={len(ops)}) "
              f"x reference {REFERENCE_S} s / kernel p50 {kernel_p50:.4f} s (n={len(kernel_s)})")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
