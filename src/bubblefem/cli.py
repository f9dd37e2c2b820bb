"""Command-line driver: adaptive runs and slope fitting.

``bubblefem run`` executes a benchmark with the configured adaptivity
mode and writes records.csv, config.json and summary.txt into the output
directory.  ``bubblefem slope`` fits a log-log least-squares slope over
the trailing rows of a records CSV.  Flags override values from an
optional JSON config file.  Exit codes: 0 success, 1 configuration
or problem data error, 2 solver failure.
"""

import argparse
import csv
import json
import math
import pathlib
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .adapt import CSV_COLUMNS, ConfigError, LoopConfig, adaptive_loop
from .benchmarks import BENCHMARKS, EXP1_DELTA, get_benchmark
from .forms import ProblemDataError
from .solvers import SolverError


@dataclass
class RunConfig(LoopConfig):
    """Effective configuration of one run (file values merged with flags):
    the loop settings plus the run-level keys."""

    benchmark: str = "exp1"
    delta: float = EXP1_DELTA
    outdir: str = "out"
    window: int = 5

    def validate(self):
        """Check the loop settings and every type in LoopConfig, then the run-level keys."""
        super().validate()
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ConfigError("delta must be finite and positive")
        if self.benchmark != "exp1" and self.delta != EXP1_DELTA:
            raise ConfigError("delta is exp1's layer parameter; no other benchmark takes it")
        if self.window < 2:
            raise ConfigError("window must cover at least two rows")
        if self.mode == "goa" and self.benchmark != "exp2":
            raise ConfigError("goal-oriented mode requires the exp2 benchmark")
        return self


def slope(rows, x_column, y_column, window=RunConfig.window):
    """Least-squares slope of log(y) vs log(x) over the trailing window.

    ``rows`` is a list of dicts (CSV rows); nonpositive, infinite or
    missing (NaN) values are rejected.
    """
    if window < 2:
        raise ValueError("window must cover at least two rows")
    tail = rows[-window:] if len(rows) > window else rows
    if len(tail) < 2:
        raise ValueError("need at least two rows to fit a slope")
    xs, ys = [], []
    for row in tail:
        x, y = float(row[x_column]), float(row[y_column])
        if not (0.0 < x < math.inf and 0.0 < y < math.inf):  # a NaN fails too
            raise ValueError(f"nonpositive, infinite or missing value in {x_column}/{y_column}")
        xs.append(math.log(x))
        ys.append(math.log(y))
    return float(np.polyfit(xs, ys, 1)[0])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summarize(records, config):
    rows = [dict(zip(CSV_COLUMNS, rec.csv_row())) for rec in records]
    lines = [
        f"benchmark: {config.benchmark}  mode: {config.mode}  "
        f"p={config.p} k={config.k} theta={config.resolved_theta():g}",
        f"iterations: {len(records)}  final total DoFs: {records[-1].dofs_total}",
    ]
    for column in ("est_energy", "err_L2_rel", "err_triple", "err_qoi_rel"):
        try:
            s = slope(rows, "dofs_total", column, config.window)
        except (ValueError, KeyError):
            continue
        lines.append(f"slope {column} vs dofs_total (last {config.window}): {s:+.3f}")
    return "\n".join(lines) + "\n"


def run(config):
    """Execute a configured run; returns the process exit code."""
    try:
        config.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    outdir = pathlib.Path(config.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "config.json", "w") as fh:
            json.dump(asdict(config), fh, indent=2)
    except OSError as exc:
        print(f"configuration error: cannot use the output directory: {exc}", file=sys.stderr)
        return 1
    bench = get_benchmark(config.benchmark,
                          delta=config.delta if config.benchmark == "exp1" else None)
    try:
        records = adaptive_loop(bench, config)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except ProblemDataError as exc:
        print(f"problem data error: {exc}", file=sys.stderr)
        return 1
    summary = _summarize(records, config)
    (outdir / "summary.txt").write_text(summary)
    print(summary, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # configuration errors exit with code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


# RunConfig keys that only a --config file sets
FILE_ONLY = ("saturation", "saturation_max_dofs")


def build_parser():
    parser = _Parser(prog="bubblefem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute an adaptive benchmark run")
    runp.add_argument("--config", help="JSON file with RunConfig keys (flags override)")
    choices = {"benchmark": sorted(BENCHMARKS), "mode": LoopConfig.MODES}
    for field in fields(RunConfig):
        if field.name in FILE_ONLY:
            continue
        flag = "--" + field.name.replace("_", "-")
        kind, *_ = typing.get_args(field.type) or (field.type,)  # the type before "| None"
        if kind is bool:
            runp.add_argument(flag, action="store_true", default=None)
        else:
            runp.add_argument(flag, type=kind, choices=choices.get(field.name))

    slopep = sub.add_parser("slope", help="fit a log-log slope from a records CSV")
    slopep.add_argument("csv")
    slopep.add_argument("x_column")
    slopep.add_argument("y_column")
    slopep.add_argument("--window", type=int, default=RunConfig.window)
    return parser


def parse_run_config(args):
    """Merge config-file values and command-line flags into a RunConfig;
    its ``validate`` checks their types."""
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for field in RunConfig.__dataclass_fields__:
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    return RunConfig(**values)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = parse_run_config(args)
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 1
        return run(config)
    if args.command == "slope":
        try:
            value = slope(read_csv(args.csv), args.x_column, args.y_column, args.window)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{value:+.6f}")
        return 0
    return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
