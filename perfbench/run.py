"""Run one benchmark workload against the package in this checkout's `src/`.

    python3 perfbench/run.py --workload synth-contam --seed 1 --seconds 35 --trace 0

One process, one closed-loop client: each call into the package starts after
the previous one returned.  The run sets up (timed in fresh child processes),
warms up, then takes whole rounds of replications for about `--seconds`
seconds and checks every output.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it runs every round twice, untraced and then with
spans around every public function, and reports the per-layer metrics and
the tracing overhead.  Results and spans go to `perfbench/results/`; the
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("synth-contam", "elm-sinc-cv", "synth-large-n")
# BLAS threads for every run, parent and set-up children alike; 1 is within
# any machine's CPU count and keeps the single-client timings steady.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
KINDS = ("vc", "mcc", "ridge")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (used to time set-up in a fresh process)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def import_package():
    """Import mccvc from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "mccvc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'mccvc'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import mccvc

    if Path(mccvc.__file__).resolve().parent != (src / "mccvc").resolve():
        raise SystemExit(f"perfbench: imported mccvc from {mccvc.__file__}, not from {src}")
    return mccvc


def time_setup(args) -> list[float]:
    """Wall time of the workload's set-up in fresh processes: interpreter start,
    importing mccvc, and making the inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def measure(workload, seconds: float, tracer=None):
    """Whole rounds, started only while the last round's length still fits.

    With a tracer, every round runs twice, untraced and then traced, so that
    each traced round has an untraced twin on the same inputs a moment
    before.  Returns (ops, round times) of the untraced and traced rounds.
    """
    ops, times, traced_ops, traced_times = [], [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        ops += workload.run_round(r)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            t1 = time.perf_counter()
            with tracer.installed():
                traced_ops += workload.run_round(r, tracer)
            traced_times.append(time.perf_counter() - t1)
        r += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return ops, times, traced_ops, traced_times


def end_to_end(workload, ops, round_times) -> dict[str, float]:
    """Replications per second, and the mean time of one MCC-VC call.

    The mean, not the median: with a handful of multi-second calls per run
    and a machine whose speed switches between two levels, the median jumps
    between the levels while the mean follows the share of time spent in each.
    """
    vc = [op.seconds for op in ops if op.kind == "vc" and op.error is None]
    return {
        "replications_per_s": len(round_times) * workload.replications_per_round / sum(round_times),
        "vc_call_ms_mean": 1e3 * statistics.fmean(vc or [op.seconds for op in ops if op.kind == "vc"]),
    }


def extras(ops) -> dict:
    """Figures kept in the results file only: each method's median call time,
    the MCC-VC p90 where at least 100 calls were timed, and the mean quality
    of each method (weight RMSE against w*, or test RMSE on the normalized
    scale)."""
    out = {}
    ok = [op for op in ops if op.error is None]

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else None

    for kind in KINDS:
        times = [op.seconds for op in ok if op.kind == kind]
        if times:
            out[f"{kind}_call_ms_p50"] = 1e3 * statistics.median(times)
        if len(times) >= 100:
            out[f"{kind}_call_ms_p90"] = 1e3 * statistics.quantiles(times, n=10)[-1]
        if any(op.case is None for op in ok):
            out[f"{kind}_test_rmse"] = mean(op.quality for op in ok if op.kind == kind)
            continue
        out[f"{kind}_weight_rmse"] = mean(op.quality for op in ok if op.kind == kind)
        for case in sorted({op.case for op in ok}):
            out[f"{kind}_weight_rmse_case{case}"] = mean(
                op.quality for op in ok if op.kind == kind and op.case == case)
    return out


def trace_checks(tracer, ops):
    """Verify the sampled optimize_params and weighted_ridge_step calls."""
    from perfbench import checks

    checked = 0
    for op, errors, grid, sigma, center, objective in tracer.samples["kernels.optimize_params"]:
        error = checks.param_search(errors, grid.sigma_set, grid.center_set, grid.center_rule.value,
                                    sigma, center, objective)
        checked += 1
        if error is not None and ops[op].error is None:
            ops[op].error = "optimize_params: " + error
    for op, H, t, sigma, center, lam, beta_prev, beta_next in tracer.samples["solvers.weighted_ridge_step"]:
        error = checks.ridge_step(H, t, sigma, center, lam, beta_prev, beta_next)
        checked += 1
        if error is not None and ops[op].error is None:
            ops[op].error = "weighted_ridge_step: " + error
    return checked


def environment(mccvc) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mccvc": mccvc.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    mccvc = import_package()
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-s{args.seed}"
    if args.setup_only:
        workload.setup(args.seed, RESULTS / "work" / f"{tag}-setup")
        return 0

    setup_times = time_setup(args)
    workload.setup(args.seed, RESULTS / "work" / tag)
    workload.warm_up()

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(mccvc), "setup_times_s": setup_times}
    if args.trace:
        tracer = Tracer()
        ops, round_times, traced_ops, traced_times = measure(workload, args.seconds, tracer)
        result["samples_checked"] = trace_checks(tracer, traced_ops)
        metrics = tracer.layer_metrics(len(traced_times) * workload.replications_per_round)
        overhead = statistics.median(t / u for t, u in zip(traced_times, round_times))
        metrics["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
        result["untraced_end_to_end"] = end_to_end(workload, ops, round_times)
        result["traced_end_to_end"] = end_to_end(workload, traced_ops, traced_times)
        result["traced_round_times_s"] = traced_times
        ops += traced_ops
        RESULTS.mkdir(parents=True, exist_ok=True)
        with gzip.open(RESULTS / f"{tag}-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        ops, round_times, _, _ = measure(workload, args.seconds)
        metrics = end_to_end(workload, ops, round_times)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f"{op.kind}: {op.error}" for op in ops if op.error is not None]
    problems = workload.final_checks([op for op in ops if op.error is None])
    units = declared_units("end_to_end" if args.trace == 0 else "per_layer")
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: measured metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    result.update({
        "rounds": len(round_times), "round_times_s": round_times,
        "attempted": len(ops), "failed": len(failures), "failures": failures[:20],
        "final_check_problems": problems, "extras": extras(ops), "metrics": metrics,
        "ops": [[op.kind, op.case, op.seconds, op.quality] for op in ops],
    })
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")

    for problem in problems + failures[:5]:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{args.workload:<14} {name:<36} {value:>14.6g} {units[name]}")
    print(f"{args.workload:<14} attempted {len(ops)} failed {len(failures)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json declares of this kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
