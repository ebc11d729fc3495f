"""Command-line interface: benchmarks, single-file fits, and kernel traces.

Each subcommand fills one `bench` config (`SynthBenchConfig`,
`DataBenchConfig`, `FitCmdConfig`, `KernelTraceConfig`): a flag names the
field it sets and takes its default from that dataclass, so the CLI and the
library run the same defaults.  The grid flags replace the config's search
grid.  kernel-trace's data-source flags fill no config: see `_cmd_kernel_trace`.
One parser, built at the first call, serves every call of a process; the
report commands, synth-bench and data-bench, share one write-and-print step.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bench
from .data import TabularDataset, load_csv
from .errors import DataError, SolverError
from .kernels import default_param_grid

PROG = "mccvc"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the documented code 1.
    def error(self, message):
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_range(text: str) -> np.ndarray:
    """Parse 'start:step:end' into an inclusive, evenly spaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:step:end, got {text!r}")
    try:
        start, step, end = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric grid bound in {text!r}") from None
    if not all(math.isfinite(v) for v in (start, step, end)):
        raise argparse.ArgumentTypeError(f"grid {text!r} must have finite bounds")
    if step <= 0 or end < start:
        raise argparse.ArgumentTypeError(f"grid {text!r} must ascend with step > 0")
    steps = (end - start) / step
    # np.arange fails or wraps past 2**60 points; inf `steps` is a count that overflowed.
    if not steps < 2.0**60:
        raise argparse.ArgumentTypeError(f"grid {text!r} has too many points ({steps:g} steps)")
    count = int(round(steps)) + 1
    try:
        # A point past the largest float is inf, which the filter below drops.
        with np.errstate(over="ignore"):
            values = start + step * np.arange(count)
    except MemoryError:
        raise argparse.ArgumentTypeError(f"grid {text!r} has too many points ({count})") from None
    # Keep values up to `end` plus rounding slack, never a step beyond it.
    return values[values <= end + 1e-9 * step]


def _parse_list(cast, kind: str):
    """A flag parser of a comma list of `cast` values, naming `kind` when one fails."""
    def parse(text: str) -> tuple:
        try:
            return tuple(cast(p.strip()) for p in text.split(",") if p.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}: {text!r}") from None
    return parse


def _parse_target(text: str):
    try:
        return int(text)
    except ValueError:
        return text


# kernel-trace's flags of each data source, with the values they take when unset.
_CASE_FLAGS = {"case": 2, "samples": 400, "seed": 42}
_CSV_FLAGS = {"target": -1, "no_header": False}


def _add_loop_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", type=Path, default=None, help="output file path")
    p.add_argument("--max-iter", dest="max_iterations", type=int,
                   help="fixed-point iteration cap (default %(default)s)")
    p.add_argument("--tol", dest="tolerance", type=float,
                   help="stop once a step changes the cost by less than this times "
                        "max(1, |cost|) (default %(default)s)")


def _add_lambda_flag(p: argparse.ArgumentParser):
    # data-bench has none: its candidates come from --lambda-grid.
    p.add_argument("--lambda-prime", type=float,
                   help="regularizer of the fixed-point solvers (default %(default)s)")


def _add_bench_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, help="base seed (default %(default)s)")
    p.add_argument("--runs", type=int, help="Monte Carlo replications (default %(default)s)")


def _add_dataset_flags(p: argparse.ArgumentParser):
    p.add_argument("--csv", type=Path, action="append", required=True,
                   help="input CSV path (repeatable for data-bench)")
    p.add_argument("--target", type=_parse_target, default=-1,
                   help="target column name or 0-based index (default -1, the last)")
    p.add_argument("--no-header", action="store_true",
                   help="treat the first CSV row as data, not column names")
    p.add_argument("--model", choices=["linear", "elm"],
                   help="feature map (default %(default)s)")
    p.add_argument("--hidden", type=int,
                   help="hidden node count for the elm model (default %(default)s)")
    p.add_argument("--bias-column", type=_parse_bool, metavar="BOOL",
                   help="append a constant column to linear features (default %(default)s)")


def _span(values: np.ndarray) -> str:
    return f"{values[0]:g}:{values[1] - values[0]:g}:{values[-1]:g}"


def _grid_field(cls) -> str:
    return "vc_grid" if cls is bench.DataBenchConfig else "grid"


def _take_defaults(p: argparse.ArgumentParser, cls):
    """Add the grid flags, then default every flag to the field of `cls` it
    fills and the grid flags to that config's search grid; an explicit-grid
    rule without --center-grid searches the centers of `default_param_grid()`."""
    default = cls()
    grid = getattr(default, _grid_field(cls))
    centers = default_param_grid().center_set if grid.center_set is None else grid.center_set
    p.add_argument("--sigma-grid", type=_parse_range, default=grid.sigma_set,
                   metavar="START:STEP:END",
                   help=f"kernel width grid (default {_span(grid.sigma_set)})")
    p.add_argument("--center-grid", type=_parse_range, default=centers,
                   metavar="START:STEP:END",
                   help=f"kernel center grid (default {_span(centers)})")
    p.add_argument("--center-rule", choices=["grid", "mean", "median"],
                   default=grid.center_rule.value,
                   help="center selection rule (default %(default)s)")
    p.set_defaults(**vars(default))


def _config(cls, args):
    """Build `cls` from the parsed flags, the grid flags making its search grid
    (`cls` copies each array it takes, so the shared parser's defaults stay)."""
    grid = {
        "sigma_set": args.sigma_grid,
        "center_set": args.center_grid if args.center_rule == "grid" else None,
        "center_rule": args.center_rule,
    }
    return cls.from_dict({**vars(args), _grid_field(cls): grid})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-bench", help="Monte Carlo benchmark on synthetic mixtures")
    _add_bench_flags(p)
    _add_loop_flags(p)
    _add_lambda_flag(p)
    p.add_argument("--methods", type=_parse_list(str, "names"),
                   help="comma list among mmse,mcc,mcc-vc (default %(default)s)")
    p.add_argument("--cases", type=_parse_list(int, "integers"),
                   help="contamination cases to run (default %(default)s)")
    p.add_argument("--samples", dest="n_samples", type=int,
                   help="samples per replication (default %(default)s)")
    p.add_argument("--mcc-sigma", dest="mcc_sigmas", type=_parse_list(float, "floats"),
                   help="fixed kernel width(s) for the zero-center baseline; "
                        "a comma list sweeps one section per width (default %(default)s)")
    _take_defaults(p, bench.SynthBenchConfig)

    p = sub.add_parser("data-bench", help="cross-validated benchmark on CSV datasets")
    _add_bench_flags(p)
    _add_loop_flags(p)
    _add_dataset_flags(p)
    p.add_argument("--methods", type=_parse_list(str, "names"),
                   help="comma list (default %(default)s)")
    p.add_argument("--train-frac", dest="train_fraction", type=float,
                   help="training fraction of each split (default %(default)s)")
    p.add_argument("--folds", type=int,
                   help="cross-validation folds (default %(default)s)")
    p.add_argument("--lambda-grid", type=_parse_list(float, "floats"),
                   help="regularizer candidates (default %(default)s)")
    p.add_argument("--mcc-sigma", dest="mcc_sigma_grid", type=_parse_list(float, "floats"),
                   help="width candidates for the zero-center baseline (default %(default)s)")
    p.add_argument("--norm-scope", choices=["full", "train", "none"],
                   help="min-max normalization scope (default %(default)s)")
    _take_defaults(p, bench.DataBenchConfig)

    p = sub.add_parser("fit", help="fit one method on a CSV and save the model")
    p.add_argument("--seed", type=int, help="base seed (default %(default)s)")
    _add_loop_flags(p)
    _add_lambda_flag(p)
    _add_dataset_flags(p)
    p.add_argument("--method",
                   help="mmse|mcc|mcc-vc (and their elm- aliases; default %(default)s)")
    p.add_argument("--mcc-sigma", type=float,
                   help="fixed kernel width for --method mcc (default %(default)s)")
    p.add_argument("--normalize", type=_parse_bool, metavar="BOOL",
                   help="min-max scale features and target before fitting (default %(default)s)")
    _take_defaults(p, bench.FitCmdConfig)

    p = sub.add_parser("kernel-trace", help="residual histogram vs fitted kernel curves")
    _add_loop_flags(p)
    _add_lambda_flag(p)
    # A data source's flags have no argparse default: see _cmd_kernel_trace.
    case, samples, seed = _CASE_FLAGS.values()
    p.add_argument("--case", type=int, help=f"synthetic contamination case 1-4 (default {case})")
    p.add_argument("--samples", type=int, help=f"synthetic sample count (default {samples})")
    p.add_argument("--seed", type=int, help=f"synthetic-case seed (default {seed})")
    p.add_argument("--csv", type=Path, help="fit a CSV instead of a synthetic case")
    p.add_argument("--target", type=_parse_target, help="CSV target column (default -1, the last)")
    p.add_argument("--no-header", action="store_true", default=None, help="CSV has no header row")
    p.add_argument("--iterations", type=_parse_list(int, "integers"),
                   help="1-based iterations to capture (default %(default)s)")
    p.add_argument("--bins", type=int,
                   help="histogram bin count (default %(default)s)")
    p.add_argument("--hist-range", choices=["robust", "full"],
                   help="clip bins to the inner-noise region or span all residuals "
                        "(default %(default)s)")
    _take_defaults(p, bench.KernelTraceConfig)

    return parser


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_json(obj: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_trace_csv(traces: list[dict], path: Path):
    # Long format: one row per histogram bin and per curve sample.
    lines = ["iteration,kind,x_left,x_right,value"]
    for tr in traces:
        edges, dens = tr["bin_edges"], tr["density"]
        for i, v in enumerate(dens):
            lines.append(f"{tr['iteration']},hist,{edges[i]!r},{edges[i + 1]!r},{v!r}")
        for x, y in zip(tr["curve_x"], tr["curve_y"]):
            lines.append(f"{tr['iteration']},curve,{x!r},{x!r},{y!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt(value, width=9, prec=4):
    if value is None:
        return " " * (width - 3) + "n/a"
    return f"{value:{width}.{prec}f}"


def _print_synth_table(report: dict):
    print(f"{'method':<12} {'case':<14} {'mean rmse':>10} {'std':>9} "
          f"{'mean s':>9} {'runs':>5} {'fail':>5}")
    for row in report["results"]:
        print(
            f"{row['method']:<12} {row['case_label']:<14} "
            f"{_fmt(row['mean_rmse'], 10)} {_fmt(row['std_rmse'])} "
            f"{_fmt(row['mean_time_s'])} {row['runs']:>5} {row['failures']:>5}"
        )


def _print_data_table(report: dict):
    print(f"{'dataset':<16} {'method':<12} {'train rmse':>11} {'std':>9} "
          f"{'test rmse':>10} {'std':>9} {'runs':>5} {'fail':>5}")
    for section in report["datasets"]:
        for row in section["results"]:
            print(
                f"{section['dataset']:<16} {row['method']:<12} "
                f"{_fmt(row['mean_train_rmse'], 11)} {_fmt(row['std_train_rmse'])} "
                f"{_fmt(row['mean_test_rmse'], 10)} {_fmt(row['std_test_rmse'])} "
                f"{row['runs']:>5} {row['failures']:>5}"
            )


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _write_report(report: dict, out, default: str, print_table) -> int:
    """Write a report to `out` or `default`, then print its table and path."""
    out = out or Path(default)
    _write_json(report, out)
    print_table(report)
    print(f"report written to {out}")
    return EXIT_OK


def _cmd_synth_bench(args) -> int:
    report = bench.run_synth_bench(_config(bench.SynthBenchConfig, args))
    return _write_report(report, args.out, "synth-bench.json", _print_synth_table)


def _load_datasets(args) -> list[tuple[str, TabularDataset]]:
    return [
        (p.stem, load_csv(p, has_header=not args.no_header, target_column=args.target))
        for p in args.csv
    ]


def _cmd_data_bench(args) -> int:
    cfg = _config(bench.DataBenchConfig, args)
    report = bench.run_data_bench(_load_datasets(args), cfg)
    return _write_report(report, args.out, "data-bench.json", _print_data_table)


def _cmd_fit(args) -> int:
    if len(args.csv) > 1:
        raise UsageError("fit takes one --csv")
    cfg = _config(bench.FitCmdConfig, args)
    name, data = _load_datasets(args)[0]
    model = bench.run_fit(data, cfg)
    out = args.out or Path("model.json")
    _write_json(model, out)
    print(f"{name}: training rmse {model['training_rmse']:.6g} "
          f"({data.n_rows} rows, method {cfg.method})")
    if model["kernel"] is not None:
        print(f"kernel: sigma*={model['kernel']['sigma']:.4g} "
              f"center*={model['kernel']['center']:.4g}")
    print(f"model written to {out}")
    return EXIT_OK


def _cmd_kernel_trace(args) -> int:
    cfg = _config(bench.KernelTraceConfig, args)
    on_csv = args.csv is not None
    own, other = (_CSV_FLAGS, _CASE_FLAGS) if on_csv else (_CASE_FLAGS, _CSV_FLAGS)
    if stray := [f"--{k}".replace("_", "-") for k in other if getattr(args, k) is not None]:
        rule = "synthetic-case flags cannot go with --csv" if on_csv else "CSV flags need --csv"
        raise UsageError(f"{rule}: {', '.join(stray)}")
    flags = {k: v if (v := getattr(args, k)) is not None else unset for k, unset in own.items()}
    if on_csv:
        data = load_csv(args.csv, has_header=not flags["no_header"], target_column=flags["target"])
        H, targets, source = data.features, data.targets, {"csv": str(args.csv)}
    else:
        H, targets = bench.synth_case_design(*flags.values())
        source = flags

    traces, result = bench.run_kernel_trace(H, targets, cfg)
    out = args.out or Path("kernel-trace.json")
    if out.suffix.lower() == ".csv":
        _write_trace_csv(traces, out)
    else:
        _write_json(
            {
                "command": "kernel-trace",
                "config": cfg.to_dict(),
                "source": source,
                "iterations_run": result.iterations_run,
                "converged": result.converged,
                "traces": traces,
            },
            out,
        )
    for tr in traces:
        print(f"iteration {tr['iteration']}: sigma*={tr['sigma']:.4g} "
              f"center*={tr['center']:.4g} residual median {tr['residual_median']:.4g}")
    print(f"trace written to {out}")
    return EXIT_OK


_COMMANDS = {
    "synth-bench": _cmd_synth_bench,
    "data-bench": _cmd_data_bench,
    "fit": _cmd_fit,
    "kernel-trace": _cmd_kernel_trace,
}


# Flags whose values may begin with a dash (negative grid bounds); argparse
# would otherwise read the value as an option name.
_DASH_VALUE_FLAGS = ("--center-grid", "--sigma-grid")


def _merge_dash_values(argv):
    """Join such a flag and a next token of a dash then a digit or dot as `flag=value`."""
    out = []
    for tok in argv:
        if out and out[-1] in _DASH_VALUE_FLAGS and tok[:1] == "-" and (
                tok[1:2].isdigit() or tok[1:2] == "."):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _merge_dash_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"{PROG}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"{PROG}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
