"""Command-line interface: solve, delta-curve, sweep and validate subcommands.

All numeric output is full-precision decimal CSV or JSON; plotting is left to
external tooling.
"""

import argparse
import functools
import json
import sys
from contextlib import nullcontext

import numpy as np

from .errors import (
    BracketExpansionFailedError,
    ProblemFormatError,
    ValidationError,
)
from .probfile import load_problem, load_sweep, sweep_grid
from .solver import delta_rows, expand_bracket, solve, solve_batch

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

# Sweep nodes or delta-curve samples per batched call: large grids and sample
# counts are worked off block by block, so memory stays bounded.
BATCH_ROWS = 4096


def _fmt(x):
    return format(float(x), ".17g")


def _error_name(exc):
    return type(exc).__name__.removesuffix("Error")


def _result_record(result):
    return {
        "y": result.y,
        "time": result.time,
        "v0": list(result.v0),
        "v1": list(result.v1),
        "zeta0": list(result.zeta0),
        "zeta1": list(result.zeta1),
        "iterations": result.iterations,
        "status": result.status,
    }


def cmd_solve(problem_path, trace_path=None, epsilon=None):
    problem = load_problem(problem_path, epsilon_override=epsilon)
    # The trace file is opened before solving, so an unwritable path fails
    # with nothing on stdout.
    trace_file = open(trace_path, "w", encoding="utf-8", newline="") if trace_path else nullcontext()
    with trace_file as fh:
        result, trace = solve(problem)
        sys.stdout.write(json.dumps(_result_record(result), indent=2) + "\n")
        if fh:
            fh.write("k,l,r,y,d,delta_lo,delta_hi\n")
            for row in trace:
                fh.write(
                    f"{row.k},{_fmt(row.l)},{_fmt(row.r)},{_fmt(row.y)},"
                    f"{_fmt(row.d)},{_fmt(row.delta_lo)},{_fmt(row.delta_hi)}\n"
                )
    return EXIT_OK


def cmd_delta_curve(problem_path, n_samples, out_csv, epsilon=None):
    if n_samples < 2:
        raise ValidationError("delta-curve needs at least 2 samples")
    problem = load_problem(problem_path, epsilon_override=epsilon)
    l, r, _ = expand_bracket(problem)
    # Residual sign change: last all-negative sample to first all-positive one.
    root_lo, root_hi = l, None
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,delta_lo,delta_hi\n")
        for start in range(0, n_samples, BATCH_ROWS):
            i = np.arange(start, min(start + BATCH_ROWS, n_samples))
            ys = l + (r - l) * i / (n_samples - 1)
            for y, lo, hi in zip(ys, *delta_rows(problem, ys)):
                fh.write(f"{_fmt(y)},{_fmt(lo)},{_fmt(hi)}\n")
                if root_hi is None:
                    if hi < 0:
                        root_lo = y
                    elif lo > 0:
                        root_hi = y
    bracket = [root_lo, r if root_hi is None else root_hi]
    sys.stdout.write(json.dumps({"root_bracket": bracket}) + "\n")
    return EXIT_OK


def cmd_sweep(sweep_path, out_csv, epsilon=None):
    spec = load_sweep(sweep_path, epsilon_override=epsilon)
    xs, ys = sweep_grid(spec)
    nodes = len(xs) * len(ys)
    successes = 0
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("x1x,x1y,y,time,status,iterations\n")
        for start in range(0, nodes, BATCH_ROWS):
            # Row-major nodes: y varies over rows, x within a row.
            i = np.arange(start, min(start + BATCH_ROWS, nodes))
            block = np.column_stack((xs[i % len(xs)], ys[i // len(xs)]))
            for (x1, y1), result in zip(block, solve_batch(spec, block)):
                if result is None:
                    fh.write(f"{_fmt(x1)},{_fmt(y1)},nan,nan,BracketExpansionFailed,0\n")
                    continue
                fh.write(
                    f"{_fmt(x1)},{_fmt(y1)},{_fmt(result.y)},{_fmt(result.time)},"
                    f"{result.status},{result.iterations}\n"
                )
                successes += 1
    sys.stdout.write(json.dumps({"nodes": nodes, "solved": successes}) + "\n")
    return EXIT_OK if successes > 0 else EXIT_SOLVER


def cmd_validate(problem_path, epsilon=None):
    """Run the same parse and validation as `solve` and report the outcome.

    Parse errors propagate (exit 1 via main); a validation failure is
    reported as one `fail:` line with exit code 2.
    """
    try:
        load_problem(problem_path, epsilon_override=epsilon)
    except ValidationError as exc:
        sys.stdout.write(f"fail: {_error_name(exc)}: {exc}\n")
        return EXIT_VALIDATION
    sys.stdout.write("all checks passed\n")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="elvis",
        description="Time-optimal interface crossings for convex velocity sets.",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None,
        help="override the residual tolerance from the problem file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one problem file")
    p.add_argument("problem")
    p.add_argument("--trace", help="write per-iteration CSV here")

    p = sub.add_parser("delta-curve", help="sample the residual over the bracket")
    p.add_argument("problem")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="solve a grid of targets")
    p.add_argument("spec")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check a problem file against all invariants")
    p.add_argument("problem")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.problem, args.trace, epsilon=args.epsilon)
        if args.command == "delta-curve":
            return cmd_delta_curve(args.problem, args.samples, args.out, epsilon=args.epsilon)
        if args.command == "sweep":
            return cmd_sweep(args.spec, args.out, epsilon=args.epsilon)
        return cmd_validate(args.problem, epsilon=args.epsilon)
    except ProblemFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {_error_name(exc)}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BracketExpansionFailedError as exc:
        print(f"solver error: {_error_name(exc)}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
