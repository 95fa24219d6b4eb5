"""Print one sha256 per output family of the library and the CLI.

Run it from the repository root and compare its output with the pinned file:

    PYTHONPATH=src python3 tools/digest.py | diff tools/digest.expected -

The first line names the numpy and mpmath versions.  No kernel calls BLAS,
so the output depends only on the source and those versions, not on the
BLAS kernel the CPU selects.  `tools/digest.expected` is this checkout's
output at the versions its first line names; a change that moves an output
bit updates it.  Two checkouts print the same lines exactly when these
outputs are bit-identical (every float by its bytes, every value with its
type name):

- solve_result: every SolveResult field of `solve` on `problem_pool` seeds
  1-10 and 101-110 (270 problems each), or the error a solve raised;
- trace_row: every TraceRow field of those solves' traces;
- expand_bracket: (l, r, expanded) of `expand_bracket` on the same problems;
- solve_batch: every SolveResult field of `solve_batch` over the grids of
  `sweep_specs` seeds 1-10 (None where a node failed);
- sweep_csv: the bytes `elvis sweep` writes for those sweep files;
- oracle: (y*, phi*) of `minimize_objective` on pool seeds 1-10;
- oracle_gate: (y*, phi*) of `minimize_objective` at
  `OracleConfig(golden_tol=1e-14)`, the benchmark gate's configuration, on
  pool seeds 101-110, where more golden steps are decided exactly;
- oracle_shifted: (y*, phi*) of `minimize_objective` on pool seeds 1-3,
  each problem moved by 1e3 and by 1e6 along the interface, where the golden
  steps' float screen bounds are widest relative to phi's variation;
- delta: (lo, hi) of scalar `delta` at every trace row's y of `solve` on
  pool seeds 1-3, so `delta`'s bits are checked apart from the trace's
  `delta_rows`;
- flat_minimum: (lo, hi) of `flat_minimum_interval` on pool seeds 1-3;
- polygon_constants: every constant a validated polygon derives from its
  vertices (`POLYGON_CONSTANTS`), for every polygon of those pools and of
  the sweep files (the sweep 48-gon).

The line solve_batch_vs_solve counts the nodes where `solve_batch` differs
from a per-node `solve` in any field; it is 0 on a correct checkout.  As
`solve`'s finish takes the sets' float path (`gauge_face`) and
`solve_batch`'s the numpy row kernels, it also pins the one to the other's
bits at every node's final y.  It covers the sweep grids, where every node
solves, and, unhashed, five targets per problem of pool seeds 1-3 at
max_iter 200, 3 and 1 (nodes that expand or stop at MaxIterations) and a
batch with a node that fails at an overflowing midpoint and one that fails
in the bracket.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import mpmath
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from elvis import (  # noqa: E402
    Ball,
    OracleConfig,
    Polygon,
    cli,
    flat_minimum_interval,
    make_problem,
    minimize_objective,
    solver,
)
from elvis.probfile import parse_problem, parse_sweep, sweep_grid  # noqa: E402
from perfbench.inputs import problem_pool, sweep_specs  # noqa: E402

POOL_SEEDS = tuple(range(1, 11)) + tuple(range(101, 111))
POOL_SIZE = 270
ORACLE_SEEDS = tuple(range(1, 11))
ORACLE_GATE_SEEDS = tuple(range(101, 111))
ORACLE_GATE = OracleConfig(golden_tol=1e-14)
ORACLE_SHIFTED_SEEDS = (1, 2, 3)
ORACLE_SHIFTS = (1e3, 1e6)
DELTA_SEEDS = (1, 2, 3)
FLAT_MINIMUM_SEEDS = (1, 2, 3)
SWEEP_SEEDS = tuple(range(1, 11))
BATCH_SEEDS = (1, 2, 3)
BATCH_MAX_ITERS = (200, 3, 1)
POLYGON_CONSTANTS = ("vertices", "normals", "offsets", "facet_points", "circumradius",
                     "inner_radius", "kinks", "kink_flanks", "_line_table")


def _feed(h, value):
    """Hash value with its type name; floats and arrays by their bytes."""
    h.update(type(value).__name__.encode())
    if isinstance(value, np.ndarray):
        h.update(str((value.dtype, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(np.float64(value).tobytes())
    else:
        h.update(repr(value).encode())


def _feed_record(h, record):
    if record is None:
        _feed(h, None)
        return
    for field in dataclasses.fields(record):
        h.update(field.name.encode())
        _feed(h, getattr(record, field.name))


def _same(a, b):
    if (a is None) != (b is None):
        return False
    return a is None or all(
        type(getattr(a, f.name)) is type(getattr(b, f.name))
        and np.asarray(getattr(a, f.name)).tobytes() == np.asarray(getattr(b, f.name)).tobytes()
        for f in dataclasses.fields(a))


def _feed_polygons(h, problem):
    """Every constant of the problem's polygons; tuples by repr, which keeps every float."""
    for vset in (problem.F0, problem.F1):
        if isinstance(vset, Polygon):
            for name in POLYGON_CONSTANTS:
                h.update(name.encode())
                _feed(h, getattr(vset, name))


def pool_digests(polygons):
    results, rows, brackets = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for seed in POOL_SEEDS:
        for text in problem_pool(seed, POOL_SIZE):
            problem = parse_problem(text)
            _feed_polygons(polygons, problem)
            try:
                result, trace = solver.solve(problem)
            except solver.BracketExpansionFailedError as exc:
                _feed(results, f"{type(exc).__name__}: {exc}")
            else:
                _feed_record(results, result)
                for row in trace:
                    _feed_record(rows, row)
            try:
                bracket = solver.expand_bracket(problem)
            except solver.BracketExpansionFailedError as exc:
                bracket = f"{type(exc).__name__}: {exc}"
            for value in bracket if isinstance(bracket, tuple) else (bracket,):
                _feed(brackets, value)
    return {"solve_result": results, "trace_row": rows, "expand_bracket": brackets}


def batch_mismatches(problem, targets):
    """solve_batch's results on the targets, and how many differ from per-node solve."""
    results = solver.solve_batch(problem, targets)
    mismatches = 0
    for x1, got in zip(np.asarray(targets, dtype=float), results):
        node = solver.ElvisProblem(problem.x0, x1, problem.F0, problem.F1, problem.epsilon,
                                   problem.max_iter)
        try:
            want = solver.solve(node)[0]
        except solver.BracketExpansionFailedError:
            want = None
        mismatches += not _same(got, want)
    return results, mismatches


def sweep_digests(polygons):
    batch, csv = hashlib.sha256(), hashlib.sha256()
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, csv_path = os.path.join(tmp, "sweep.json"), os.path.join(tmp, "sweep.csv")
        for seed in SWEEP_SEEDS:
            for doc in sweep_specs(seed):
                text = json.dumps(doc)
                spec = parse_sweep(text)
                _feed_polygons(polygons, spec)
                xs, ys = sweep_grid(spec)
                results, count = batch_mismatches(spec, [[x, y] for y in ys for x in xs])
                mismatches += count
                for got in results:
                    _feed_record(batch, got)
                with open(spec_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                with open(os.devnull, "w") as quiet:
                    stdout, sys.stdout = sys.stdout, quiet
                    try:
                        cli.main(["sweep", spec_path, "--out", csv_path])
                    finally:
                        sys.stdout = stdout
                with open(csv_path, "rb") as fh:
                    csv.update(fh.read())
    return {"solve_batch": batch, "sweep_csv": csv}, mismatches


def pool_batch_mismatches():
    """solve_batch against per-node solve, unhashed: five targets per problem of pool seeds
    BATCH_SEEDS, two of them almost above x0, at every max_iter of BATCH_MAX_ITERS, and a
    batch whose first node walks to an overflowing midpoint and whose third one fails in the
    bracket (its offsets could overflow a kernel)."""
    mismatches = 0
    for seed in BATCH_SEEDS:
        for text in problem_pool(seed, POOL_SIZE):
            p = parse_problem(text)
            (x0x, _), (x1x, x1y) = p.x0.tolist(), p.x1.tolist()
            targets = [(x1x, x1y), (x0x, x1y), (x0x + 0.01, 2.0 * x1y), (x1x - 3.0, 0.5 * x1y),
                       (x1x + 3.0, x1y)]
            for max_iter in BATCH_MAX_ITERS:
                mismatches += batch_mismatches(dataclasses.replace(p, max_iter=max_iter), targets)[1]
    overflow = make_problem((0.0, -1.0), (1.7e308, 1.0), Ball(100.0), Ball(1.0))
    targets = [(1.7e308, 1.0), (1.0, 1.0), (sys.float_info.max, 1.0), (-1.0, 2.0)]
    return mismatches + batch_mismatches(overflow, targets)[1]


def oracle_digest(seeds, cfg=None, shifts=(0.0,)):
    """(y*, phi*) on the pools of seeds, each problem moved by every shift along the interface."""
    h = hashlib.sha256()
    for seed in seeds:
        for text in problem_pool(seed, POOL_SIZE):
            p = parse_problem(text)
            for shift in shifts:
                moved = make_problem((p.x0[0] + shift, p.x0[1]), (p.x1[0] + shift, p.x1[1]),
                                     p.F0, p.F1) if shift else p
                for value in minimize_objective(moved, cfg):
                    _feed(h, value)
    return h


def delta_digest(seeds):
    """(lo, hi) of delta at every trace row's y of solve on the pools of seeds."""
    h = hashlib.sha256()
    for seed in seeds:
        for text in problem_pool(seed, POOL_SIZE):
            problem = parse_problem(text)
            try:
                _, trace = solver.solve(problem)
            except solver.BracketExpansionFailedError:
                continue
            for row in trace:
                _feed_record(h, solver.delta(problem, row.y))
    return h


def flat_minimum_digest(seeds):
    """(lo, hi) of flat_minimum_interval on the pools of seeds."""
    h = hashlib.sha256()
    for seed in seeds:
        for text in problem_pool(seed, POOL_SIZE):
            for value in flat_minimum_interval(parse_problem(text)):
                _feed(h, value)
    return h


def main():
    polygons = hashlib.sha256()
    digests = pool_digests(polygons)
    sweeps, mismatches = sweep_digests(polygons)
    mismatches += pool_batch_mismatches()
    digests.update(sweeps)
    digests["oracle"] = oracle_digest(ORACLE_SEEDS)
    digests["oracle_gate"] = oracle_digest(ORACLE_GATE_SEEDS, ORACLE_GATE)
    digests["oracle_shifted"] = oracle_digest(ORACLE_SHIFTED_SEEDS, shifts=ORACLE_SHIFTS)
    digests["delta"] = delta_digest(DELTA_SEEDS)
    digests["flat_minimum"] = flat_minimum_digest(FLAT_MINIMUM_SEEDS)
    digests["polygon_constants"] = polygons
    print(f"versions numpy {np.__version__} mpmath {mpmath.__version__}")
    for name, h in digests.items():
        print(f"{name} {h.hexdigest()}")
    print(f"solve_batch_vs_solve {mismatches}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
