"""The three workloads: their inputs, timed op, correctness gate and replay.

Each workload class has the same shape:

- the constructor writes the seeded input files;
- ``setup()`` loads the shared inputs (the part ``setup_s`` times);
- ``op(i, tr, root)`` is the timed op; with a tracer it also records spans
  around the library calls it makes;
- ``check(i, out, tr)`` is the untimed correctness gate for one op and
  returns a list of failures (empty when the op is correct);
- ``replay(tr, i, out, root)`` repeats the op's inner calls through the
  layers' public functions, each in a replayed span;
- ``final_failures(tr)`` runs the oracle checks kept outside the timed
  loop and returns the op keys whose answers failed them;
- ``layer_values()`` gives the per-layer counts that come from the inputs
  and answers rather than from spans.
"""

import hashlib
import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout

import numpy as np

from elvis import ElvisError, cli
from elvis.geometry import gauge, normal_face, support, validate
from elvis.oracle import OracleConfig, minimize_objective
from elvis.probfile import load_sweep, parse_problem, sweep_grid, sweep_problem
from elvis.solver import (
    BRACKET_EXPANDED_PREFIX,
    STATUS_CONVERGED,
    STATUS_RESIDUAL_ZERO_IN_FACE,
    crossing_time,
    delta,
    expand_bracket,
    solve,
)

import inputs
from setup_probe import load_shared

# Gate tolerances.  Criterion 4: support(F0, zeta0) = 1 and
# support(F1, -zeta1) = 1 to 1e-9, and |zeta0_x + zeta1_x| <= epsilon.
# Criterion 7: |time - phi*| <= 1e-8 against the brute-force oracle.
SUPPORT_TOL = 1e-9
ORACLE_TOL = 1e-8
# Criterion 4 does not tie the multipliers to the reported y.  The gate also
# asks <zeta0, v0> = gauge(v0) and <-zeta1, v1> = gauge(v1) at that y, which
# makes the certificate complete, so a perturbed y fails it.  The slack
# allows for polygon vertex faces, picked within 1e-9 of the circumradius.
SLACK_TOL = 1e-7
# The oracle configuration criterion 7 uses for its checks.
GATE_ORACLE = OracleConfig(golden_tol=1e-14)

GOOD_STATUSES = tuple(
    prefix + status
    for prefix in ("", BRACKET_EXPANDED_PREFIX)
    for status in (STATUS_CONVERGED, STATUS_RESIDUAL_ZERO_IN_FACE)
)
SWEEP_HEADER = "x1x,x1y,y,time,status,iterations"


def family(vset):
    return type(vset).__name__.lower()


# --- correctness gates -------------------------------------------------------

def certificate_failures(problem, result):
    """Criterion 4's stationarity certificate, tied to the reported y."""
    if result.status not in GOOD_STATUSES:
        return [f"status {result.status}"]
    bad = []
    if abs(support(problem.F0, result.zeta0) - 1.0) > SUPPORT_TOL:
        bad.append("support(F0, zeta0) != 1")
    if abs(support(problem.F1, -result.zeta1) - 1.0) > SUPPORT_TOL:
        bad.append("support(F1, -zeta1) != 1")
    if abs(result.zeta0[0] + result.zeta1[0]) > problem.epsilon:
        bad.append("|zeta0_x + zeta1_x| > epsilon")
    yv = np.array([result.y, 0.0])
    v0, v1 = yv - problem.x0, problem.x1 - yv
    g0, g1 = gauge(problem.F0, v0), gauge(problem.F1, v1)
    if abs(result.time - (g0 + g1)) > 1e-12 * max(1.0, result.time):
        bad.append("time != phi(y)")
    if abs(float(np.dot(result.zeta0, v0)) - g0) > SLACK_TOL * max(1.0, g0):
        bad.append("zeta0 is not a subgradient of gauge_F0 at y")
    if abs(float(np.dot(-result.zeta1, v1)) - g1) > SLACK_TOL * max(1.0, g1):
        bad.append("-zeta1 is not a subgradient of gauge_F1 at y")
    return bad


def oracle_failures(time, phi_star):
    """Criterion 7's rule: the solver's time within 1e-8 of the oracle's minimum."""
    gap = abs(time - phi_star)
    return [] if gap <= ORACLE_TOL else [f"|time - phi*| = {gap:.3g}"]


def sweep_csv_rows(data, nodes):
    """Parse one sweep CSV; returns (rows, failures).

    A correct CSV has the header, one row per grid node, finite y and time,
    and no MaxIterations or BracketExpansionFailed status.
    """
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [], ["bad CSV header"]
    rows, bad = [], []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 6:
            bad.append(f"bad CSV row {line!r}")
            continue
        y, t = float(f[2]), float(f[3])
        if f[4] not in GOOD_STATUSES:
            bad.append(f"node status {f[4]}")
        elif not (math.isfinite(y) and math.isfinite(t)):
            bad.append("non-finite node answer")
        rows.append((y, t, f[4], int(f[5])))
    if len(rows) != nodes:
        bad.append(f"{len(rows)} CSV rows for {nodes} nodes")
    return rows, bad


# --- replay -----------------------------------------------------------------

def replay_validate(tr, sets, parent):
    for vset in sets:
        tr.call(f"geometry.validate.{family(vset)}", parent, validate, vset)


def replay_solve(tr, problem, trace, parent):
    """solve's inner calls: one bracket expansion, then per trace row one
    residual and, on both sides, the normal face and the gauge."""
    tr.call("solver.expand_bracket", parent, expand_bracket, problem)
    f0, f1 = problem.F0, problem.F1
    nf0, nf1 = f"geometry.normal_face.{family(f0)}", f"geometry.normal_face.{family(f1)}"
    g0, g1 = f"geometry.gauge.{family(f0)}", f"geometry.gauge.{family(f1)}"
    for row in trace:
        yv = np.array([row.y, 0.0])
        v0, v1 = yv - problem.x0, problem.x1 - yv
        _, d = tr.call("solver.delta", parent, delta, problem, row.y)
        _, s = tr.call(nf0, d, normal_face, f0, v0)
        tr.call(g0, s, gauge, f0, v0)
        _, s = tr.call(nf1, d, normal_face, f1, v1)
        tr.call(g1, s, gauge, f1, v1)


def replay_oracle(tr, problem, cfg, parent):
    """minimize_objective's inner calls: the bracket, then the grid scan."""
    (l, r, _), _ = tr.call("solver.expand_bracket", parent, expand_bracket, problem)
    if r > l:
        for y in np.linspace(l, r, cfg.grid_points):
            tr.call("solver.crossing_time", parent, crossing_time, problem, y)


def traced_solve(tr, problem, parent=-1):
    s = tr.open("solver.solve", parent)
    result, trace = solve(problem)
    tr.close(s)
    replay_solve(tr, problem, trace, s)
    return result, trace


def gate_oracle_failures(tr, problem, time):
    """Criterion 7's rule against the oracle, traced when a tracer is given."""
    try:
        if tr is None:
            _, phi = minimize_objective(problem, GATE_ORACLE)
        else:
            s = tr.open("oracle.minimize_objective")
            try:
                _, phi = minimize_objective(problem, GATE_ORACLE)
            finally:
                tr.close(s)
            replay_oracle(tr, problem, GATE_ORACLE, s)
    except ElvisError as exc:
        return [f"oracle raised {type(exc).__name__}: {exc}"]
    return oracle_failures(time, phi)


# --- census: what the answers looked like -----------------------------------

class Census:
    """Status and iteration count of each distinct input, in input order."""

    def __init__(self):
        self.records = {}

    def add(self, key, status, iterations):
        self.records.setdefault(key, (status, iterations))

    def layer_values(self):
        statuses = [s for s, _ in self.records.values()]
        its = np.array([n for _, n in self.records.values()], dtype=float)
        out = {
            "solver.iterations_p50": float(np.median(its)),
            "solver.iterations_max": float(its.max()),
            "solver.expanded_frac": sum(s.startswith(BRACKET_EXPANDED_PREFIX)
                                        for s in statuses) / len(statuses),
        }
        for status in GOOD_STATUSES:
            key = status.replace("+", "_")
            out[f"solver.status_count.{key}"] = float(statuses.count(status))
        return out

    def properties(self):
        vals = self.layer_values()
        return {
            "census_size": len(self.records),
            "expanded_frac": vals["solver.expanded_frac"],
            "iterations_p50": vals["solver.iterations_p50"],
            "iterations_max": vals["solver.iterations_max"],
            "status_counts": {s: int(vals[f"solver.status_count.{s.replace('+', '_')}"])
                              for s in GOOD_STATUSES},
        }


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _pool_properties(texts):
    pairs = {}
    verts = []
    for text in texts:
        doc = json.loads(text)
        pair = f"{doc['F0']['kind']}/{doc['F1']['kind']}"
        pairs[pair] = pairs.get(pair, 0) + 1
        verts += inputs.polygon_vertex_counts(text)
    q = np.percentile(verts, [0, 25, 50, 75, 100]).tolist() if verts else []
    return {
        "family_pair_share": {k: v / len(texts) for k, v in sorted(pairs.items())},
        "polygon_vertices_q0_q25_q50_q75_q100": q,
    }


# --- workloads ---------------------------------------------------------------

class SolveMixed:
    """parse_problem + solve on fresh problem texts, the library user's path."""

    name = "solve_mixed"
    op_span = "op.solve_mixed"
    setup_mode = "texts"
    items_per_op = 1
    tail_q = 99
    warmup_ops = 18
    per_input_latency = True
    census_ops = 1000  # the first 1000 ops solve the first 1000 pool problems
    tail_ops = 1000  # at least 10 samples beyond p99

    def __init__(self, seed, workdir, pool=1000, census_ops=None, oracle_checks=18):
        self.pool = inputs.problem_pool(seed, pool)
        self.input_files = [_write_json(workdir / "problems.json", self.pool)]
        if census_ops is not None:
            self.census_ops = self.tail_ops = census_ops
        self.oracle_checks = min(oracle_checks, self.census_ops)
        self.census = Census()
        self.times = {}

    def setup(self):
        self.texts = load_shared(self.setup_mode, self.input_files)

    def key(self, i):
        return i % len(self.texts)

    def op(self, i, tr=None, root=-1):
        text = self.texts[self.key(i)]
        if tr is None:
            problem = parse_problem(text)
            return problem, solve(problem)
        s = tr.open("probfile.parse_problem", root)
        problem = parse_problem(text)
        tr.close(s)
        t = tr.open("solver.solve", root)
        answer = solve(problem)
        tr.close(t)
        self.last_spans = (s, t)
        return problem, answer

    def check(self, i, out, tr=None):
        problem, (result, _) = out
        k = self.key(i)
        if i < self.census_ops:
            self.census.add(k, result.status, result.iterations)
            self.times[k] = result.time
        return certificate_failures(problem, result)

    def replay(self, tr, i, out, root):
        problem, (_, trace) = out
        parse_span, solve_span = self.last_spans
        replay_validate(tr, (problem.F0, problem.F1), parse_span)
        replay_solve(tr, problem, trace, solve_span)

    def final_failures(self, tr=None):
        """Oracle check of a fixed subset: the first problems, two per family pair."""
        bad = {}
        for k in range(self.oracle_checks):
            if k not in self.times:  # its op failed already
                continue
            errs = gate_oracle_failures(tr, parse_problem(self.texts[k]), self.times[k])
            if errs:
                bad[k] = errs
        return bad

    def layer_values(self):
        return self.census.layer_values()

    def properties(self):
        census_texts = [self.texts[k] for k in sorted(self.census.records)]
        return {**_pool_properties(census_texts), **self.census.properties(),
                "pool_size": len(self.texts), "oracle_checked": self.oracle_checks}


class CliSweep:
    """`elvis sweep` run in-process on grids that share x0, F0 and F1."""

    name = "cli_sweep"
    op_span = "cli.sweep"
    setup_mode = "sweeps"
    tail_q = 90
    warmup_ops = 1
    per_input_latency = False  # only 12 grids; every sweep is its own sample
    tail_ops = 100  # at least 10 samples beyond p90

    def __init__(self, seed, workdir, specs=inputs.SWEEP_SPECS, nx=inputs.SWEEP_NX,
                 ny=inputs.SWEEP_NY, tail_ops=None):
        self.docs = inputs.sweep_specs(seed, specs, nx, ny)
        self.input_files = [_write_json(workdir / f"sweep{k}.json", doc)
                            for k, doc in enumerate(self.docs)]
        self.csv = workdir / "sweep.csv"
        self.items_per_op = nx * ny
        self.census_ops = specs  # the first sweep of every grid
        if tail_ops is not None:
            self.tail_ops = tail_ops
        self.census = Census()
        self.first = {}  # grid index -> (sha256, rows) of its first CSV
        self.csv_bytes = []
        self.alloc_peak_kb = None

    def setup(self):
        self.specs = load_shared(self.setup_mode, self.input_files)

    def key(self, i):
        return i % len(self.specs)

    def op(self, i, tr=None, root=-1):
        argv = ["sweep", str(self.input_files[self.key(i)]), "--out", str(self.csv)]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, i, out, tr=None):
        code, stdout = out
        k = self.key(i)
        bad = [] if code == 0 else [f"exit code {code}"]
        summary = json.loads(stdout)
        if summary != {"nodes": self.items_per_op, "solved": self.items_per_op}:
            bad.append(f"sweep summary {summary}")
        data = self.csv.read_bytes()
        self.csv_bytes.append(len(data))
        sha = hashlib.sha256(data).hexdigest()
        if k not in self.first:
            rows, errs = sweep_csv_rows(data, self.items_per_op)
            self.first[k] = (sha, rows)
            for n, (_, _, status, iterations) in enumerate(rows):
                self.census.add((k, n), status, iterations)
            bad += errs
        elif sha != self.first[k][0]:
            bad.append("CSV differs from the first sweep of the same grid")
        return bad

    def replay(self, tr, i, out, root):
        spec, s = tr.call("probfile.load_sweep", root, load_sweep, self.input_files[self.key(i)])
        replay_validate(tr, (spec.F0, spec.F1), s)
        xs, ys = sweep_grid(spec)
        for y1 in ys:
            for x1 in xs:
                problem, _ = tr.call("probfile.sweep_problem", root, sweep_problem, spec, x1, y1)
                (_, trace), s = tr.call("solver.solve", root, solve, problem)
                replay_solve(tr, problem, trace, s)

    def final_failures(self, tr=None):
        """Oracle check of one node per grid, at a different place in each grid."""
        bad = {}
        for k, spec in enumerate(self.specs):
            xs, ys = sweep_grid(spec)
            n = (7 * k + len(xs) // 2) % (len(xs) * len(ys))
            rows = self.first[k][1] if k in self.first else []
            if n >= len(rows):
                bad[k] = ["no CSV row for the oracle-checked node"]
                continue
            node = sweep_problem(spec, xs[n % len(xs)], ys[n // len(xs)])
            errs = gate_oracle_failures(tr, node, rows[n][1])
            if errs:
                bad[k] = errs
        if tr is not None:
            self.alloc_peak_kb = self._alloc_peak_kb()
        return bad

    def _alloc_peak_kb(self):
        """Peak traced allocation of one sweep command, in KiB (untimed)."""
        tracemalloc.start()
        try:
            self.op(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 1024.0

    def layer_values(self):
        out = self.census.layer_values()
        out["cli.sweep.csv_bytes"] = float(np.median(self.csv_bytes))
        if self.alloc_peak_kb is not None:
            out["cli.sweep.alloc_peak_kb"] = self.alloc_peak_kb
        return out

    def properties(self):
        return {
            **self.census.properties(),
            "grids": len(self.docs),
            "nodes_per_grid": self.items_per_op,
            "polygon_vertices": inputs.SWEEP_POLYGON_VERTICES,
            "ellipse_rot": [d["F0"]["rot"] for d in self.docs],
            "csv_sha256": [self.first[k][0] for k in sorted(self.first)],
        }


class OracleVerify:
    """minimize_objective with the default OracleConfig, the verification path."""

    name = "oracle_verify"
    op_span = "oracle.minimize_objective"
    setup_mode = "problems"
    items_per_op = 1
    tail_q = 90
    warmup_ops = 2
    per_input_latency = True
    census_ops = 100  # at least 10 samples beyond p90
    tail_ops = 100

    def __init__(self, seed, workdir, pool=270, census_ops=None):
        self.pool = inputs.problem_pool(seed, pool)
        self.input_files = [_write_json(workdir / "problems.json", self.pool)]
        if census_ops is not None:
            self.census_ops = self.tail_ops = census_ops
        self.cfg = OracleConfig()
        self.census = Census()

    def setup(self):
        self.problems = load_shared(self.setup_mode, self.input_files)

    def key(self, i):
        return i % len(self.problems)

    def op(self, i, tr=None, root=-1):
        return minimize_objective(self.problems[self.key(i)], self.cfg)

    def check(self, i, out, tr=None):
        """Compare with an untimed solve by criterion 7's rule."""
        problem = self.problems[self.key(i)]
        if tr is None:
            result, _ = solve(problem)
        else:
            replay_validate(tr, (problem.F0, problem.F1), -1)
            result, _ = traced_solve(tr, problem)
        if i < self.census_ops:
            self.census.add(self.key(i), result.status, result.iterations)
        bad = [] if result.status in GOOD_STATUSES else [f"solve status {result.status}"]
        return bad + oracle_failures(result.time, out[1])

    def replay(self, tr, i, out, root):
        replay_oracle(tr, self.problems[self.key(i)], self.cfg, root)

    def final_failures(self, tr=None):
        return {}

    def layer_values(self):
        return self.census.layer_values()

    def properties(self):
        census_texts = [self.pool[k] for k in sorted(self.census.records)]
        return {**_pool_properties(census_texts), **self.census.properties(),
                "pool_size": len(self.pool)}


WORKLOADS = {w.name: w for w in (SolveMixed, CliSweep, OracleVerify)}
