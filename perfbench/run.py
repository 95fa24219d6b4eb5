"""elvis benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload solve_mixed --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

  solve_mixed    parse_problem + solve on fresh problems, all 9 family pairs
  cli_sweep      `elvis sweep` in-process on ellipse/48-gon grids
  oracle_verify  minimize_objective, the brute-force verification path

Load is one caller in a closed loop on one thread: each op starts when the
previous one has returned.  The run measures for --seconds, and on until the
workload's minimum op count.  Each op's answer is checked outside the timed
region.

Op times are calibrated: a fixed loop of small numpy and float work is timed
beside every op, and each op's wall time is scaled by CAL_REF_S over that
loop's time.  The result is what the op would take on a machine where the
loop takes exactly CAL_REF_S, which takes out most of the swings in machine
speed that a shared host shows from one minute to the next.  Raw wall-clock
figures are printed beside the calibrated ones.

--trace 0 prints the end-to-end metrics.  --trace 1 records spans around
the library calls, replays each op's inner calls through the layers' public
functions, and prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record of the run, and the
spans of a traced run, go to .perfbench_out/ in the repository root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CAL_REF_S = 250e-6  # the calibration loop's time on the reference machine, by definition
REF_IMPORT_S = 0.15  # the dependency imports' time on the reference machine, by definition
SETUP_RUNS = 9  # set-up processes per run, each paired with a reference process
HARD_LIMIT_S = 110.0  # the op loop never runs longer, whatever the minimum op count

# Coverage probes of a traced run: small instances of the other two workloads,
# which give the per-layer figures of layers the traced workload never calls.
PROBE_SIZES = {
    "solve_mixed": {"pool": 18, "census_ops": 18, "oracle_checks": 2},
    "cli_sweep": {"tail_ops": 1},  # one sweep of each of the 12 grids
    "oracle_verify": {"pool": 3, "census_ops": 3},
}

# The end-to-end metrics under the names the workloads' users know them by.
ALIASES = {
    "solve_mixed": [("solve_us_p50", "us", "op_ms_p50", 1e3),
                    ("solve_us_p99", "us", "op_ms_tail", 1e3),
                    ("solves_per_s", "1/s", "items_per_s", 1.0)],
    "cli_sweep": [("sweep_ms_p50", "ms", "op_ms_p50", 1.0),
                  ("sweep_ms_p90", "ms", "op_ms_tail", 1.0),
                  ("sweep_nodes_per_s", "1/s", "items_per_s", 1.0)],
    "oracle_verify": [("oracle_ms_p50", "ms", "op_ms_p50", 1.0),
                      ("oracle_ms_p90", "ms", "op_ms_tail", 1.0),
                      ("oracle_calls_per_s", "1/s", "items_per_s", 1.0)],
}


def calibrate(n=3):
    """Median seconds of n runs of a fixed loop of small numpy and float work.

    The loop allocates no object the cyclic garbage collector tracks, so it
    never triggers a collection and the program's garbage cannot slow it.
    """
    import numpy as np

    a = np.array([1.0, 2.0])
    times = []
    for _ in range(n):
        t0 = perf_counter()
        s = 0.0
        for _ in range(60):
            b = a * 1.0001 + 0.5
            s += float(np.hypot(b[0], b[1]))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def latency_metrics(wl, seconds, keys):
    """op_ms_p50, op_ms_tail and items_per_s from per-op seconds.

    Where a workload repeats its inputs, an input's latency is the median
    over its ops, and p50 and the tail are taken over inputs, so that a
    momentary stall of the host does not land in the tail.
    """
    if wl.per_input_latency:
        by_key = {}
        for k, s in zip(keys, seconds):
            by_key.setdefault(k, []).append(s)
        lat = [statistics.median(v) for v in by_key.values()]
    else:
        lat = seconds
    return {
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": percentile(lat, wl.tail_q) * 1e3,
        "items_per_s": len(seconds) * wl.items_per_op / sum(seconds),
    }


def measure_setup(wl, runs):
    """setup_s: `import elvis` plus the shared-input load, in fresh processes.

    Set-up is mostly process start, imports and file reads, whose speed does
    not follow the op calibration loop.  So each set-up is paired with a
    fresh process that only imports numpy and mpmath, run right before it,
    and set-up is reported as REF_IMPORT_S times the median of the ratios.
    Returns that, and the raw (set-up, reference) seconds of every pair.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    cmd = probe + [wl.setup_mode, *map(str, wl.input_files)]

    def seconds(argv):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    pairs = []
    for _ in range(runs):
        ref = seconds(probe + ["reference"])
        pairs.append((seconds(cmd), ref))
    return REF_IMPORT_S * statistics.median(s / r for s, r in pairs), pairs


class Loop:
    """Closed-loop runner of one workload's ops: latencies, failures and, when traced, spans."""

    def __init__(self, wl, tr=None):
        self.wl = wl
        self.tr = tr
        self.keys = []  # input key of every op attempted
        self.timed_keys = []  # input key of every op that returned, in step with:
        self.raw = []  # wall seconds; traced runs: the traced executions
        self.cal = []  # calibrated seconds (untraced runs)
        self.plain = []  # traced runs: the same ops run untraced, for the overhead
        self.failures = {}  # op index -> list of failure strings

    def _timed(self, i, tr=None):
        t0 = perf_counter()
        if tr is None:
            out, root = self.wl.op(i), None
        else:
            root = tr.open(self.wl.op_span)
            out = self.wl.op(i, tr, root)
            tr.close(root)
        return perf_counter() - t0, out, root

    def step(self, i, cal_before):
        """Run op i; returns the calibration taken after it (untraced runs)."""
        wl, tr = self.wl, self.tr
        key = wl.key(i)
        self.keys.append(key)
        cal_after = None
        try:
            if tr is None:
                dt, out, _ = self._timed(i)
                cal_after = calibrate()
                self.cal.append(dt * CAL_REF_S / (0.5 * (cal_before + cal_after)))
            else:
                # Each op runs untraced and traced back to back, in alternating
                # order, so the tracing overhead is measured on the same input.
                tr.op_id = i
                if i % 2:
                    plain = self._timed(i)[0]
                dt, out, root = self._timed(i, tr)
                if not i % 2:
                    plain = self._timed(i)[0]
                self.plain.append(plain)
            self.raw.append(dt)
            self.timed_keys.append(key)
            errs = wl.check(i, out, tr)
            if tr is not None and not errs:
                wl.replay(tr, i, out, root)
        except Exception:  # an op that raises is a failed op; keep measuring
            errs = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
        if errs:
            self.failures[i] = errs
        if tr is None:
            return cal_after if cal_after is not None else calibrate()
        return None

    def run(self, seconds, min_ops):
        start = perf_counter()
        cal = calibrate() if self.tr is None else None
        i = 0
        while i < min_ops or perf_counter() - start < seconds:
            if perf_counter() - start > HARD_LIMIT_S:
                break
            cal = self.step(i, cal)
            i += 1
        if self.tr is not None:
            self.tr.op_id = -1  # the oracle checks below belong to no op
        bad_keys = self.wl.final_failures(self.tr)
        for n, key in enumerate(self.keys):
            if key in bad_keys:
                self.failures.setdefault(n, []).extend(bad_keys[key])
        return i

    def latency_metrics(self, seconds):
        """latency_metrics over the ops that returned, whatever their gate verdict."""
        return latency_metrics(self.wl, seconds, self.timed_keys)


def per_layer(wl, tr, probes, loop):
    """Per-layer metrics from the spans; a name the workload never reaches
    takes its figure from the coverage probes."""
    from inputs import FAMILIES
    from tracing import SpanStats

    stats = SpanStats(tr, *(p.tr for p in probes))
    m = {}
    for kind in ("normal_face", "gauge", "validate"):
        for fam in FAMILIES:
            m[f"geometry.{kind}.{fam}.us_p50"] = stats.p50(f"geometry.{kind}.{fam}") * 1e6
    for name in ("solver.delta", "solver.expand_bracket", "solver.crossing_time",
                 "probfile.parse_problem", "probfile.sweep_problem"):
        m[f"{name}.us_p50"] = stats.p50(name) * 1e6
    m["probfile.load_sweep.ms"] = stats.p50("probfile.load_sweep") * 1e3
    m["solver.solve.self_frac"] = stats.self_frac("solver.solve")
    m["oracle.grid_scan_frac"] = stats.child_frac("oracle.minimize_objective",
                                                  "solver.crossing_time")
    m["oracle.refine_frac"] = stats.self_frac("oracle.minimize_objective")
    m["cli.sweep.self_frac"] = stats.self_frac("cli.sweep")
    values = wl.layer_values()
    for p in probes:
        values = {**p.wl.layer_values(), **values}
    m.update(values)

    # Tracing overhead: each op's traced run against its untraced twin.
    traced, plain = loop.raw, loop.plain
    m["trace.slowdown.op_ms_p50"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    m["trace.slowdown.op_ms_tail"] = (percentile(traced, wl.tail_q)
                                      / percentile(plain, wl.tail_q) - 1.0)
    m["trace.slowdown.items_per_s"] = sum(traced) / sum(plain) - 1.0
    return m, {"traced": loop.latency_metrics(traced), "untraced": loop.latency_metrics(plain)}


def env_stamp(seed):
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace, workdir, setup_runs=SETUP_RUNS, sizes=None,
                 probe_sizes=None):
    """Run one workload; returns the full record (the JSON line is record['result'])."""
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir, **(sizes or {}))
    setup_s, setup_pairs = measure_setup(wl, setup_runs)
    wl.setup()
    for i in range(min(wl.census_ops, wl.warmup_ops)):  # warm-up, untimed and unchecked
        wl.op(i)

    tr = Tracer() if trace else None
    loop = Loop(wl, tr)
    ops = loop.run(seconds, wl.census_ops if trace else max(wl.census_ops, wl.tail_ops))

    probes = []
    if trace:
        for other, cls in WORKLOADS.items():
            if other != name:
                pdir = workdir / f"probe_{other}"
                pdir.mkdir()
                pwl = cls(seed, pdir, **(probe_sizes or PROBE_SIZES)[other])
                pwl.setup()
                probe = Loop(pwl, Tracer())
                probe.run(0.0, pwl.census_ops)
                probes.append(probe)

    failed = len(loop.failures)
    probe_failed = sum(len(p.failures) for p in probes)
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "env": env_stamp(seed),
        "inputs": wl.properties(),
        "attempted": ops,
        "failed": failed,
        "failures": {str(i): errs for i, errs in list(loop.failures.items())[:20]},
        "probe_failures": {p.wl.name: list(p.failures.values()) for p in probes if p.failures},
    }
    if trace:
        metrics, e2e = per_layer(wl, tr, probes, loop)
        record["trace_e2e_raw"] = e2e
        record["spans"] = len(tr.name) + sum(len(p.tr.name) for p in probes)
    else:
        metrics = {"setup_s": setup_s, **loop.latency_metrics(loop.cal)}
        record["setup_pairs_s"] = setup_pairs
        record["raw"] = loop.latency_metrics(loop.raw)
    record["metrics"] = metrics
    units = load_units()
    record["result"] = {
        "correct": failed == 0 and probe_failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["_tracers"] = [tr] + [p.tr for p in probes] if trace else []
    return record


def load_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def print_summary(record):
    res = record["result"]
    env = record["env"]
    units = load_units()
    print(f"elvis perfbench: workload {record['workload']}, seed {env['seed']}, "
          f"{record['seconds']} s, trace {record['trace']}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("inputs: " + json.dumps(record["inputs"], sort_keys=True))
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<44} {frac:.6g} ratio ({res['failed']} of {res['attempted']} ops)")
    metrics = record["metrics"]
    if not record["trace"]:
        raw = record["raw"]
        setup_raw = statistics.median(s for s, _ in record["setup_pairs_s"])
        print(f"  {'setup_s':<44} {metrics['setup_s']:.6g} s   (raw {setup_raw:.6g} s)")
        for alias, unit, key, scale in ALIASES[record["workload"]]:
            print(f"  {alias:<44} {metrics[key] * scale:.6g} {unit}   "
                  f"(raw {raw[key] * scale:.6g} {unit}; metric {key})")
    else:
        for k, v in metrics.items():
            print(f"  {k:<44} {v:.6g} {units[k]}")
        for kind, vals in record["trace_e2e_raw"].items():
            print(f"  raw e2e {kind:<9} " + ", ".join(f"{k} {v:.6g}" for k, v in vals.items()))
    for i, errs in record["failures"].items():
        print(f"  FAILED op {i}: {'; '.join(errs)}")
    for name, errs in record["probe_failures"].items():
        print(f"  FAILED probe {name}: {errs}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "elvis" / "__init__.py").is_file():
        print(f"perfbench: no elvis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import elvis

    if Path(elvis.__file__).resolve().parent != SRC / "elvis":
        print(f"perfbench: imported elvis from {elvis.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Spans are kept for the latest traced run of each workload only, so
    # repeated runs do not pile up tens of megabytes.
    for n, tracer in enumerate(record.pop("_tracers")):
        tracer.save(OUT / f"{args.workload}-spans{n}.npz")
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
