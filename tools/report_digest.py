"""Print one SHA-256 per CLI report and one per CLI stdout, timings stripped.

Run it against a checkout's package to compare two trees:

    PYTHONPATH=<checkout>/src python3 tools/report_digest.py

It writes a fixed list of `synth-bench`, `data-bench`, `fit` and
`kernel-trace` reports through `mccvc.cli.main` into a temporary directory,
drops every JSON key that contains "time" (wall-clock fields), and prints
`<name> <sha256>` per report, or `<name> exit <code>` for a run that exits
non-zero.  Each run also prints `<name>.stdout <sha256>` of what it printed,
with its --out path written as `<out>` and, for synth-bench, the table's
`mean s` column (a timing) blanked.  Two trees that print the same lines
write the same reports and print the same stdout byte for byte, key order
included.  The `fit` models are also reloaded through
`mccvc.bench.predict_with_model`, and the predictions get a line of their
own.  The data-bench argv of the elm-sinc-cv workload are taken
from `perfbench.workloads.ElmSincCV`, which is only read.  It runs with one
BLAS thread and takes about 1 s on 2 CPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as perfbench and the test suite use: with more, the ELM
# designs' products sum in another order and the reports change.  BLAS reads
# these when numpy first loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Import perfbench from this tree without writing bytecode into it.
sys.dont_write_bytecode = True
sys.path.append(str(Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402

from mccvc import bench, cli  # noqa: E402
from perfbench.workloads import ElmSincCV  # noqa: E402

SPLIT_SEEDS = (42, 43)

SYNTH = {
    "synth-n200": ["--runs", "10", "--samples", "200", "--seed", "5"],
    "synth-sweep": ["--runs", "6", "--samples", "200", "--methods", "mcc,mcc-vc",
                    "--mcc-sigma", "1,4"],
    # A width so far below the residuals that every mcc step has no data term.
    "synth-all-failed": ["--runs", "2", "--samples", "100", "--methods", "mmse,mcc",
                         "--mcc-sigma", "1e-30", "--lambda-prime", "0"],
    "synth-duplicate-methods": ["--runs", "1", "--samples", "100", "--methods", "mcc,mcc"],
    "synth-mean-rule": ["--runs", "2", "--samples", "200", "--methods", "mcc-vc",
                        "--center-rule", "mean"],
    "synth-n20000": ["--runs", "2", "--samples", "20000", "--cases", "2,4",
                     "--methods", "mcc-vc"],
    # The synth-contam setting: every (sigma, c) search has N=400.
    "synth-n400": ["--runs", "5", "--samples", "400", "--cases", "1,2,3,4"],
    # A 0.01 width below 1e-3 of every residual spread: it is clamped to a
    # floor that moves at every (sigma, c) search of a fit.
    "synth-n400-clamped": ["--runs", "2", "--samples", "400", "--cases", "1,2,3,4",
                           "--sigma-grid", "0.01:0.2:4.81"],
    # Nine centers spanning 2 at N=20000: few centers against many errors.
    "synth-n20000-9-centers": ["--runs", "1", "--samples", "20000", "--cases", "2",
                               "--methods", "mcc-vc", "--center-grid", "-1:0.25:1"],
    # Ten centers at N=20000: a count that is not 1 mod 4, so the centers
    # screened first (every 4th and the last) end with a shorter interval.
    "synth-n20000-10-centers": ["--runs", "1", "--samples", "20000", "--cases", "2,4",
                                "--methods", "mcc-vc", "--center-grid", "-1:0.2:0.8"],
    # 24 centers at N=5000 with widths down to 0.02: the narrowest widths'
    # lattices cost more than their unbinned rows, the others bin, so one
    # search screens rows of both kinds.
    "synth-n5000-24-centers": ["--runs", "1", "--samples", "5000", "--cases", "2,4",
                               "--methods", "mcc-vc", "--center-grid", "-4.6:0.4:4.6",
                               "--sigma-grid", "0.02:0.04:0.98"],
}


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if "time" not in k}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(path: Path) -> str:
    report = _strip_timings(json.loads(path.read_text()))
    return _sha(json.dumps(report, indent=2).encode())


def _stdout_digest(text: str, path: Path, synth: bool) -> str:
    lines = text.replace(str(path), "<out>").splitlines()
    if synth:
        # Between the header and the last line, each row ends with the 9-wide
        # `mean s` column, then the 5-wide runs and fail columns.
        lines[1:-1] = [line[:-21] + " " * 9 + line[-12:] for line in lines[1:-1]]
    return _sha("\n".join(lines).encode())


def _run(name: str, argv: list[str], path: Path, digest=_json_digest) -> list[tuple[str, str]]:
    """Run one CLI command that writes `path`; return the lines of its report
    (its digest or `exit <code>`) and of its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(path)])
    return [
        (name, digest(path) if code == 0 else f"exit {code}"),
        (f"{name}.stdout", _stdout_digest(stdout.getvalue(), path, argv[0] == "synth-bench")),
    ]


def _write_csv(path: Path, rows: np.ndarray):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def digests(workdir: Path) -> list[tuple[str, str]]:
    out = []

    for name, flags in SYNTH.items():
        out += _run(name, ["synth-bench", *flags], workdir / f"{name}.json")

    sinc = ElmSincCV()
    sinc.setup(SPLIT_SEEDS[0], workdir / "sinc")
    for seed in SPLIT_SEEDS:
        for _kind, method in sinc.METHODS:
            path = workdir / f"data-{method}-s{seed}.json"
            # The workload argv already hold `--out path`; `_run` repeats it.
            out += _run(f"data-{method}-s{seed}", sinc.argv(method, seed, path), path)
    # Ten folds: np.mean sums 8 or more fold scores pairwise, not left to right.
    path = workdir / "data-elm-mcc-folds10.json"
    argv = sinc.argv("elm-mcc", SPLIT_SEEDS[0], path)
    argv[argv.index("--folds") + 1] = "10"
    out += _run("data-elm-mcc-folds10", argv, path)
    out += _run(
        "data-linear-max-iter-1",
        ["data-bench", "--csv", str(sinc.csv), "--no-header", "--runs", "2", "--folds", "3",
         "--model", "linear", "--max-iter", "1"],
        workdir / "data-linear-max-iter-1.json",
    )

    small = workdir / "small.csv"
    rows = ElmSincCV.dataset(11, 300)
    _write_csv(small, rows)
    fits = {
        "fit-elm": ["--method", "mcc-vc", "--model", "elm", "--hidden", "20", "--seed", "3"],
        "fit-linear-mcc": ["--method", "mcc", "--model", "linear", "--mcc-sigma", "0.5",
                           "--bias-column", "true"],
    }
    for name, flags in fits.items():
        path = workdir / f"{name}.json"
        out += _run(name, ["fit", "--csv", str(small), "--no-header", *flags], path)
        predictions = bench.predict_with_model(json.loads(path.read_text()), rows[:, :-1])
        out.append((f"{name}.predictions", _sha(np.ascontiguousarray(predictions).tobytes())))
    # small.csv as a spreadsheet export writes it, after a UTF-8 byte-order
    # mark: the same model as fit-linear-mcc.
    bom = workdir / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + small.read_bytes())
    out += _run(
        "fit-bom-csv",
        ["fit", "--csv", str(bom), "--no-header", *fits["fit-linear-mcc"]],
        workdir / "fit-bom-csv.json",
    )
    # lambda' = 0 on an ELM design with singular weighted normal equations.
    for method in ("mcc", "mcc-vc"):
        name = f"fit-elm-{method}-lambda0"
        out += _run(
            name,
            ["fit", "--csv", str(small), "--no-header", "--method", method, "--model", "elm",
             "--hidden", "20", "--lambda-prime", "0"],
            workdir / f"{name}.json",
        )
    # Targets 1000 above every center of the default grid: no residual is
    # within reach of any kernel at the first step.
    rng = np.random.default_rng(7)
    inputs = rng.uniform(-2.0, 2.0, (200, 2))
    shifted = workdir / "shifted-target.csv"
    _write_csv(shifted, np.column_stack(
        [inputs, inputs @ [1.0, 2.0] + 1000.0 + rng.normal(0.0, 0.5, 200)]))
    out += _run(
        "fit-shifted-target",
        ["fit", "--csv", str(shifted), "--no-header", "--model", "linear", "--bias-column",
         "true", "--normalize", "false", "--method", "mcc-vc"],
        workdir / "fit-shifted-target.json",
    )
    nan_cell = workdir / "nan-cell.csv"
    nan_cell.write_text("1,0,2\n2,1,4\n3,0,nan\n4,1,9\n")
    out += _run(
        "fit-nan-cell",
        ["fit", "--csv", str(nan_cell), "--no-header", "--model", "linear"],
        workdir / "fit-nan-cell.json",
    )
    # Finite targets whose max - min overflows, so min-max scaling cannot map them.
    huge = workdir / "huge-target.csv"
    _write_csv(huge, np.array([[1.0, 1e308], [2.0, -1e308], [3.0, 1e308], [4.0, -1e308]]))
    out += _run(
        "fit-huge-target",
        ["fit", "--csv", str(huge), "--no-header", "--model", "linear"],
        workdir / "fit-huge-target.json",
    )
    # A finite design whose normal equations H'H overflow.
    huge = workdir / "huge-feature.csv"
    _write_csv(huge, np.array([[1e200, 0.0, 2.0], [2.0, 1.0, 4.0], [3.0, 0.0, 1.0],
                               [4.0, 1.0, 9.0]]))
    out += _run(
        "fit-overflow-design",
        ["fit", "--csv", str(huge), "--no-header", "--model", "linear", "--normalize", "false",
         "--method", "mmse"],
        workdir / "fit-overflow-design.json",
    )
    # Finite normal equations whose solution's ||beta||^2 overflows.
    tiny = workdir / "tiny-feature.csv"
    _write_csv(tiny, np.array([[1e-160, 1.0], [2e-160, 2.0], [3e-160, 3.0], [4e-160, 5.0]]))
    out += _run(
        "fit-overflow-weights",
        ["fit", "--csv", str(tiny), "--no-header", "--model", "linear", "--normalize", "false",
         "--method", "mcc-vc", "--lambda-prime", "0"],
        workdir / "fit-overflow-weights.json",
    )

    # Inputs rejected when the grid or the argv is read.
    rejected = {
        "fit-underflowing-grid": ["fit", "--csv", str(small), "--no-header", "--model", "linear",
                                  "--sigma-grid", "1e-200:1:1"],
        "fit-two-csv": ["fit", "--csv", str(small), "--csv", str(small), "--no-header",
                        "--model", "linear"],
        "kernel-trace-csv-and-case": ["kernel-trace", "--csv", str(small), "--no-header",
                                      "--case", "3"],
        # Flags of the synthetic case, which a CSV source does not use.
        "kernel-trace-csv-with-samples": ["kernel-trace", "--csv", str(small), "--no-header",
                                          "--samples", "7", "--seed", "9", "--iterations", "1"],
        # Two names of one method, which would fit every candidate twice.
        "data-alias-methods": ["data-bench", "--csv", str(sinc.csv), "--no-header",
                               "--methods", "relm,mmse", "--runs", "1"],
    }
    for name, argv in rejected.items():
        out += _run(name, argv, workdir / f"{name}.json")

    for suffix in ("json", "csv"):
        path = workdir / f"kernel-trace.{suffix}"
        digest = _json_digest if suffix == "json" else lambda p: _sha(p.read_bytes())
        out += _run(
            f"kernel-trace-{suffix}",
            ["kernel-trace", "--case", "3", "--samples", "300", "--iterations", "1,2"],
            path, digest,
        )
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        lines = digests(Path(tmp))
    width = max(len(name) for name, _ in lines)
    for name, digest in lines:
        print(f"{name:<{width}} {digest}")


if __name__ == "__main__":
    main()
