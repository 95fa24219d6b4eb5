"""The benchmark's own tests: tiny runs complete, and the gates catch wrong answers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from elvis.probfile import parse_problem  # noqa: E402
from elvis.solver import solve  # noqa: E402

TINY = {
    "solve_mixed": {"pool": 18, "census_ops": 18, "oracle_checks": 2},
    "cli_sweep": {"specs": 2, "nx": 3, "ny": 3, "tail_ops": 2},
    "oracle_verify": {"pool": 3, "census_ops": 3},
}


def bench_names(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_completes(name, trace, tmp_path):
    record = run.run_workload(name, 7, 0.0, trace, tmp_path, setup_runs=1,
                              sizes=TINY[name], probe_sizes=TINY)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = bench_names("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and m["unit"]
    assert record["env"]["seed"] == 7


def test_inputs_follow_the_seed():
    assert inputs.problem_pool(3, 20) == inputs.problem_pool(3, 20)
    assert inputs.problem_pool(3, 20) != inputs.problem_pool(4, 20)
    assert inputs.sweep_specs(3) == inputs.sweep_specs(3)


def _solved(text):
    problem = parse_problem(text)
    result, _ = solve(problem)
    return problem, result


@pytest.mark.parametrize("pair", range(9))
def test_certificate_rejects_a_perturbed_y(pair):
    problem, result = _solved(inputs.problem_pool(5, 9)[pair])
    assert workloads.certificate_failures(problem, result) == []
    wrong = dataclasses.replace(result, y=result.y + 1e-3)
    assert workloads.certificate_failures(problem, wrong)


def test_oracle_rule():
    assert workloads.oracle_failures(1.0, 1.0 + 5e-9) == []
    assert workloads.oracle_failures(1.0, 1.0 + 1e-6)


def test_loop_counts_wrong_answers(tmp_path):
    """Every op fails when the op hands the gate a perturbed y."""

    class Perturbed(workloads.SolveMixed):
        def op(self, i, tr=None, root=-1):
            problem, (result, trace) = super().op(i, tr, root)
            return problem, (dataclasses.replace(result, y=result.y * 1.001 + 1e-3), trace)

    wl = Perturbed(1, tmp_path, **TINY["solve_mixed"])
    wl.setup()
    loop = run.Loop(wl)
    attempted = loop.run(0.0, wl.census_ops)
    assert attempted == wl.census_ops and len(loop.failures) == attempted


@pytest.mark.parametrize("trace", [0, 1])
def test_loop_counts_raising_ops(trace, tmp_path):
    """An op that raises is a failed op, and the loop keeps its timings in step."""

    class Raising(workloads.SolveMixed):
        def op(self, i, tr=None, root=-1):
            if i % 3 == 1:
                raise RuntimeError("deliberate")
            return super().op(i, tr, root)

    wl = Raising(1, tmp_path, **TINY["solve_mixed"])
    wl.setup()
    loop = run.Loop(wl, Tracer() if trace else None)
    attempted = loop.run(0.0, wl.census_ops)
    assert sorted(loop.failures) == list(range(1, attempted, 3))
    assert len(loop.raw) == len(loop.timed_keys) == attempted - len(loop.failures)
    assert len(loop.cal if not trace else loop.plain) == len(loop.raw)


def test_sweep_csv_gate(tmp_path):
    wl = workloads.CliSweep(1, tmp_path, specs=1, nx=3, ny=2)
    wl.setup()
    code, _ = wl.op(0)
    data = wl.csv.read_bytes()
    rows, bad = workloads.sweep_csv_rows(data, 6)
    assert code == 0 and len(rows) == 6 and bad == []
    lines = data.decode().splitlines()
    f = lines[1].split(",")
    f[4] = "MaxIterations"
    broken = "\n".join([lines[0], ",".join(f)] + lines[2:]) + "\n"
    assert workloads.sweep_csv_rows(broken.encode(), 6)[1]
    short = "\n".join(lines[:-1]) + "\n"
    assert workloads.sweep_csv_rows(short.encode(), 6)[1]


def test_exits_nonzero_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
