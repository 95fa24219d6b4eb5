"""Print one sha256 per output family of the library and the CLI.

Run it from the repository root of two checkouts and diff the outputs:

    PYTHONPATH=src python3 tools/digest.py > digest.txt

Two checkouts print the same lines exactly when these outputs are
bit-identical (every float by its bytes, every value with its type name):

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

The script reads only names that earlier checkouts have too (the oracle
lines use the public `minimize_objective`, `flat_minimum_interval`,
`OracleConfig` and `make_problem`), so one copy of it compares any two checkouts.

The line solve_batch_vs_solve counts the nodes where `solve_batch` differs
from a per-node `solve` in any field; it is 0 on a correct checkout.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from elvis import (  # noqa: E402
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
                targets = np.array([[x, y] for y in ys for x in xs])
                for x1, got in zip(targets, solver.solve_batch(spec, targets)):
                    _feed_record(batch, got)
                    node = solver.ElvisProblem(spec.x0, x1, spec.F0, spec.F1, spec.epsilon, spec.max_iter)
                    try:
                        want = solver.solve(node)[0]
                    except solver.BracketExpansionFailedError:
                        want = None
                    mismatches += not _same(got, want)
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
    digests.update(sweeps)
    digests["oracle"] = oracle_digest(ORACLE_SEEDS)
    digests["oracle_gate"] = oracle_digest(ORACLE_GATE_SEEDS, ORACLE_GATE)
    digests["oracle_shifted"] = oracle_digest(ORACLE_SHIFTED_SEEDS, shifts=ORACLE_SHIFTS)
    digests["delta"] = delta_digest(DELTA_SEEDS)
    digests["flat_minimum"] = flat_minimum_digest(FLAT_MINIMUM_SEEDS)
    digests["polygon_constants"] = polygons
    for name, h in digests.items():
        print(f"{name} {h.hexdigest()}")
    print(f"solve_batch_vs_solve {mismatches}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
