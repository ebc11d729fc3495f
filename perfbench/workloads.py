"""The benchmark's workloads: inputs made from a seed, one replication per round.

A round takes one replication (a data set, or a train/test split) through
every method, one call after another, and checks each output with
`perfbench.checks`.  The package is reached only through its public
functions (`mccvc.bench`) and its CLI (`mccvc.cli.main`).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mccvc import bench, cli
from mccvc.data import Gaussian, NoiseModel, sample_noise

from . import checks

W_STAR = (1.0, 2.0)


@dataclass
class Op:
    """One timed call into the package and the verdict of its output checks."""

    kind: str  # "ridge", "mcc" or "vc"
    seconds: float
    error: str | None = None  # why the call raised or failed a check
    case: int | None = None
    quality: float | None = None  # weight RMSE, or test RMSE for elm-sinc-cv


def round_seed(seed: int, r: int) -> int:
    """Seed of the data set of round r, apart from every other round and seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


class Synth:
    """The linear contamination experiment: every case's data set through mmse, mcc and mcc-vc.

    Library defaults throughout: w* = (1, 2), lambda' = 1e-4, MCC width 4,
    and the explicit 25 x 101 (sigma, c) grid.
    """

    METHODS = (("ridge", "mmse"), ("mcc", "mcc"), ("vc", "mcc-vc"))

    def __init__(self, n_samples: int, cases: tuple[int, ...]):
        self.n_samples = n_samples
        self.cases = cases
        self.replications_per_round = len(cases)

    def setup(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = bench.SynthBenchConfig(n_samples=self.n_samples, cases=self.cases, w_star=W_STAR)

    def warm_up(self):
        # The cheap methods at full size, so that first-touch costs of
        # N-sized arrays stay out of their few timed calls; MCC-VC small.
        H, t = bench.synth_case_design(2, self.n_samples, self.seed)
        bench.synth_fit("mmse", H, t, self.cfg)
        bench.synth_fit("mcc", H, t, self.cfg)
        bench.synth_fit("mcc-vc", H[:64], t[:64], self.cfg)

    def run_round(self, r: int, tracer=None) -> list[Op]:
        ops = []
        seed = round_seed(self.seed, r)
        for case in self.cases:
            H, t = bench.synth_case_design(case, self.n_samples, seed, W_STAR)
            for kind, method in self.METHODS:
                if tracer is not None:
                    tracer.op += 1
                t0 = time.perf_counter()
                try:
                    beta, result = bench.synth_fit(method, H, t, self.cfg)
                except Exception as exc:  # an operation that raises is counted as failed
                    ops.append(Op(kind, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", case))
                    continue
                seconds = time.perf_counter() - t0
                ops.append(Op(kind, seconds, self.check(H, t, beta, result), case, checks.weight_rmse(beta, W_STAR)))
        return ops

    def check(self, H, t, beta, result) -> str | None:
        lam = self.cfg.lambda_prime
        if result is None:
            return checks.ridge(H, t, lam, beta)
        last = result.trace[-1]
        return checks.fixed_point(H, t, beta, last.sigma, last.center, lam, last.max_delta)

    def final_checks(self, ops: list[Op]) -> list[str]:
        return []


class SynthContam(Synth):
    def __init__(self):
        super().__init__(400, (1, 2, 3, 4))

    def final_checks(self, ops: list[Op]) -> list[str]:
        """Case 2 (inner noise N(3, 1)): mean weight RMSE orders vc < mcc < mmse."""
        mean = {
            kind: float(np.mean([op.quality for op in ops if op.case == 2 and op.kind == kind and op.error is None]))
            for kind in ("ridge", "mcc", "vc")
        }
        if mean["vc"] < mean["mcc"] < mean["ridge"] and mean["vc"] <= 0.10 and mean["ridge"] >= 0.5:
            return []
        return [f"case 2 mean weight RMSE breaks vc < mcc < mmse, vc <= 0.10, mmse >= 0.5: {mean}"]


class SynthLargeN(Synth):
    def __init__(self):
        super().__init__(20000, (2, 4))


class ElmSincCV:
    """Criterion-11 cross-validated ELM selection through `mccvc data-bench`.

    The criterion-11 data set (data seed 7): 1000 rows, X ~ U[-2, 2]^2,
    target sinc(|x|) plus 10% outliers N(0, 1e4) and inner noise N(3, 1),
    written once to a CSV.  Round r makes one single-method data-bench call
    per method with split seed `seed + r`, so the run seed picks the splits,
    the folds and the hidden layers.
    """

    METHODS = (("ridge", "relm"), ("mcc", "elm-mcc"), ("vc", "elm-mcc-vc"))
    DATA_SEED = 7
    ROWS = 1000
    HIDDEN = 50
    FOLDS = 5
    LAMBDAS = (0.0, 1e-6, 1e-4, 1e-2, 1.0)
    MCC_SIGMAS = (0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 2.0)
    VC_SIGMAS = "0.005:0.005:0.25"  # 50 widths, median-of-errors center
    replications_per_round = 1

    @staticmethod
    def dataset(seed: int, rows: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2.0, 2.0, (rows, 2))
        noise = NoiseModel(0.1, Gaussian(3.0, 1.0), Gaussian(0.0, 10000.0))
        y = np.sinc(np.linalg.norm(X, axis=1)) + sample_noise(noise, rows, seed + 1)
        return np.column_stack([X, y])

    def setup(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.values = self.dataset(self.DATA_SEED, self.ROWS)
        self.csv = workdir / "sinc-mixture.csv"
        # repr() round-trips every float, so the CSV holds exactly self.values.
        self.csv.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in self.values))

    def argv(self, method: str, split_seed: int, out: Path) -> list[str]:
        return [
            "data-bench", "--csv", str(self.csv), "--no-header", "--runs", "1",
            "--seed", str(split_seed), "--methods", method, "--out", str(out),
            "--hidden", str(self.HIDDEN), "--folds", str(self.FOLDS),
            "--lambda-grid", ",".join(repr(v) for v in self.LAMBDAS),
            "--mcc-sigma", ",".join(repr(v) for v in self.MCC_SIGMAS),
            "--sigma-grid", self.VC_SIGMAS, "--center-rule", "median",
        ]

    def call(self, method: str, split_seed: int, tracer=None):
        """One in-process CLI call; returns (exit code, seconds, report or None)."""
        out = self.workdir / f"report-{method}.json"
        out.unlink(missing_ok=True)
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(self.argv(method, split_seed, out))
        seconds = time.perf_counter() - t0
        report = None
        if out.is_file():
            if tracer is not None:
                tracer.report_bytes += out.stat().st_size
            report = json.loads(out.read_text())
        return code, seconds, report

    def warm_up(self):
        self.call("relm", self.seed)

    def run_round(self, r: int, tracer=None) -> list[Op]:
        ops = []
        split_seed = self.seed + r
        for kind, method in self.METHODS:
            if tracer is not None:
                tracer.op += 1
            try:
                code, seconds, report = self.call(method, split_seed, tracer)
            except Exception as exc:  # an operation that raises is counted as failed
                ops.append(Op(kind, 0.0, f"{type(exc).__name__}: {exc}"))
                continue
            error, row = self.check(kind, code, report, split_seed)
            ops.append(Op(kind, seconds, error, quality=None if row is None else row["mean_test_rmse"]))
        return ops

    def check(self, kind: str, code: int, report, split_seed: int):
        if code != 0 or report is None:
            return f"data-bench exited {code} (report written: {report is not None})", None
        row = report["datasets"][0]["results"][0]
        if row["runs"] != 1 or row["failures"] != 0:
            return f"data-bench row has runs={row['runs']}, failures={row['failures']}", None
        rmse = row["mean_test_rmse"]
        if not (isinstance(rmse, float) and np.isfinite(rmse) and rmse > 0.0):
            return f"test RMSE {rmse!r} is not a positive finite number", None
        chosen = row["selected"][0]
        if chosen["lambda_prime"] not in self.LAMBDAS:
            return f"selected lambda' {chosen['lambda_prime']!r} is not a candidate", None
        if kind == "mcc" and chosen["sigma"] not in self.MCC_SIGMAS:
            return f"selected width {chosen['sigma']!r} is not a candidate", None
        if kind == "ridge":
            error = checks.relm_row(self.values, split_seed, self.HIDDEN, self.FOLDS, self.LAMBDAS,
                                    chosen["lambda_prime"], rmse)
            if error is not None:
                return error, None
        return None, row

    def final_checks(self, ops: list[Op]) -> list[str]:
        return []


WORKLOADS = {
    "synth-contam": SynthContam,
    "elm-sinc-cv": ElmSincCV,
    "synth-large-n": SynthLargeN,
}
