"""Run workloads once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload elm-sinc-cv --seeds 101,202,303,404,505
    python3 perfbench/spread.py --workload synth-contam,elm-sinc-cv,synth-large-n --seeds 1

Runs `perfbench/run.py` in turn (never two at once), with the run length of
BENCHMARK.json unless `--seconds` is given, and prints every end-to-end
metric with its unit and the operations attempted and failed of each run.
With two or more seeds it also prints, per metric, the median, the quartiles
from `statistics.quantiles(values, n=4)`, the spread (Q3 - Q1) / median and
that spread as a share of the metric's bound; and the share of failed
operations of every run.  The runs are kept in
`perfbench/results/spread-<workload>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(workload: str, seeds: list[int], seconds: float, spec: dict) -> bool:
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        line["seed"] = seed
        runs.append(line)
        print(f"{workload} seed {seed}: attempted {line['attempted']} failed {line['failed']} "
              f"correct {line['correct']}", flush=True)
        for name, m in line["metrics"].items():
            print(f"    {name:<22} {m['value']:>14.6g} {m['unit']}")

    if len(runs) > 1:
        print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'of bound':>8}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"{m['name']:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{m['bound']:>6} {spread / m['bound']:>8.3f}")
        print("failed shares:", sorted({r["failed"] / r["attempted"] for r in runs}))
    out = ROOT / "perfbench" / "results" / f"spread-{workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return all(r["correct"] and r["failed"] == 0 for r in runs)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = [run_workload(w, seeds, args.seconds, spec) for w in args.workload.split(",")]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
