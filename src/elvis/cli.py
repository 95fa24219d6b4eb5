"""Command-line interface: solve, delta-curve, sweep and validate subcommands.

All numeric output is full-precision decimal CSV or JSON; plotting is left to
external tooling.
"""

import argparse
import json
import sys

from .errors import (
    BracketExpansionFailedError,
    ProblemFormatError,
    ValidationError,
)
from .probfile import (
    load_problem,
    load_sweep,
    sweep_grid,
    sweep_problem,
)
from .solver import delta, expand_bracket, solve

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


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


def cmd_solve(problem_path, trace_path=None, epsilon=None, out=None):
    out = out if out is not None else sys.stdout
    problem = load_problem(problem_path, epsilon_override=epsilon)
    result, trace = solve(problem)
    out.write(json.dumps(_result_record(result), indent=2) + "\n")
    if trace_path:
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,l,r,y,d,delta_lo,delta_hi\n")
            for row in trace:
                fh.write(
                    f"{row.k},{_fmt(row.l)},{_fmt(row.r)},{_fmt(row.y)},"
                    f"{_fmt(row.d)},{_fmt(row.delta_lo)},{_fmt(row.delta_hi)}\n"
                )
    return EXIT_OK


def cmd_delta_curve(problem_path, n_samples, out_csv, epsilon=None, out=None):
    out = out if out is not None else sys.stdout
    if n_samples < 2:
        raise ValidationError("delta-curve needs at least 2 samples")
    problem = load_problem(problem_path, epsilon_override=epsilon)
    l, r, _ = expand_bracket(problem)
    # Residual sign change: last all-negative sample to first all-positive one.
    root_lo, root_hi = l, None
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,delta_lo,delta_hi\n")
        for i in range(n_samples):
            y = l + (r - l) * i / (n_samples - 1)
            iv = delta(problem, y)
            fh.write(f"{_fmt(y)},{_fmt(iv.lo)},{_fmt(iv.hi)}\n")
            if root_hi is None:
                if iv.hi < 0:
                    root_lo = y
                if iv.lo > 0:
                    root_hi = y
    out.write(json.dumps({"root_bracket": [root_lo, r if root_hi is None else root_hi]}) + "\n")
    return EXIT_OK


def cmd_sweep(sweep_path, out_csv, epsilon=None, out=None):
    out = out if out is not None else sys.stdout
    spec = load_sweep(sweep_path, epsilon_override=epsilon)
    xs, ys = sweep_grid(spec)
    successes = 0
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("x1x,x1y,y,time,status,iterations\n")
        for y1 in ys:
            for x1 in xs:
                problem = sweep_problem(spec, x1, y1)
                try:
                    result, _ = solve(problem)
                except BracketExpansionFailedError:
                    fh.write(f"{_fmt(x1)},{_fmt(y1)},nan,nan,BracketExpansionFailed,0\n")
                    continue
                fh.write(
                    f"{_fmt(x1)},{_fmt(y1)},{_fmt(result.y)},{_fmt(result.time)},"
                    f"{result.status},{result.iterations}\n"
                )
                successes += 1
    out.write(json.dumps({"nodes": len(xs) * len(ys), "solved": successes}) + "\n")
    return EXIT_OK if successes > 0 else EXIT_SOLVER


def cmd_validate(problem_path, epsilon=None, out=None):
    """Run the same parse and validation as `solve` and report the outcome.

    Parse errors propagate (exit 1 via main); a validation failure is
    reported as one `fail:` line with exit code 2.
    """
    out = out if out is not None else sys.stdout
    try:
        load_problem(problem_path, epsilon_override=epsilon)
    except ValidationError as exc:
        out.write(f"fail: {_error_name(exc)}: {exc}\n")
        return EXIT_VALIDATION
    out.write("all checks passed\n")
    return EXIT_OK


def build_parser():
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
