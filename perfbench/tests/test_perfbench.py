"""Tests of the benchmark itself, each on a tiny configuration.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def shrink(job: dict) -> dict:
    """The same job at a small order or a short simulation."""
    job = json.loads(json.dumps(job))
    argv, spec = job["argv"], job["check"]
    if "--order" in argv:
        order = 4 if spec["type"] == "field" else 5
        argv[argv.index("--order") + 1] = str(order)
        spec["order"] = order
    if "--t-max" in argv:
        argv[argv.index("--t-max") + 1] = "0.5"
        spec["t_max"] = 0.5
    return job


def tiny_jobs(workload: str, seed: int = 11) -> list[dict]:
    return [shrink(j) for j in workloads.make_jobs(workload, seed, 10)[:4]]


def bsharp_output(job: dict, cwd: Path) -> str:
    for rel, text in job["files"].items():
        (cwd / rel).write_text(text)
    proc = subprocess.run([sys.executable, "-m", "bsharp", *job["argv"]], cwd=cwd, env=ENV,
                          capture_output=True, text=True, check=True)
    return proc.stdout


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = json.dumps(workloads.make_jobs(workload, 5, 20), sort_keys=True)
    again = json.dumps(workloads.make_jobs(workload, 5, 20), sort_keys=True)
    other = json.dumps(workloads.make_jobs(workload, 6, 20), sort_keys=True)
    assert first == again
    assert first != other


def test_job_list_length_follows_seconds_only():
    for workload in workloads.WORKLOADS:
        sizes = {len(workloads.make_jobs(workload, s, 20)) for s in range(3)}
        assert sizes == {workloads.job_count(workload, 20)}


# ---------------------------------------------------------------------------
# the checks accept right outputs and reject corrupted ones
# ---------------------------------------------------------------------------

def corrupt_coefficient(output: str) -> str:
    data = json.loads(output)
    key = list(data["coefficients"])[-1]
    data["coefficients"][key] = f"({data['coefficients'][key]}) + 1/7"
    return json.dumps(data)


@pytest.mark.parametrize("workload", ["series_rational", "series_symbolic"])
def test_series_checks_catch_one_corrupt_coefficient(workload, tmp_path):
    for job in tiny_jobs(workload):
        output = bsharp_output(job, tmp_path)
        assert checks.check(job["check"], output) is None, job["argv"]
        assert checks.check(job["check"], corrupt_coefficient(output)) is not None, job["argv"]


def test_midpoint_checksum_is_checked():
    job = workloads.make_jobs("series_rational", 1, 3)[0]
    assert job["argv"][:3] == ["modified-equation", "--tableau", "midpoint"]
    output = json.dumps({
        "kind": "flow", "max_order": 9, "empty": "0",
        "coefficients": {"[0]": "1"},
    })
    assert checks.check(job["check"], output) is not None


def test_field_check_catches_one_corrupt_constant(tmp_path):
    for job in tiny_jobs("field_text"):
        output = bsharp_output(job, tmp_path)
        assert checks.check(job["check"], output) is None, job["argv"]
        # change one printed constant, e.g. "1/24" -> "1/25"
        m = list(re.finditer(r"/(\d+)", output))[-1]
        bad = output[: m.start(1)] + str(int(m.group(1)) + 1) + output[m.end(1):]
        assert checks.check(job["check"], bad) is not None, job["argv"]


def test_simulate_check_catches_one_corrupt_value(tmp_path):
    for job in tiny_jobs("simulate_modified"):
        output = bsharp_output(job, tmp_path)
        assert checks.check(job["check"], output) is None, job["argv"]
        lines = output.splitlines()
        t, *values = lines[-1].split(",")
        values[0] = repr(float(values[0]) + 1e-2)
        bad = "\n".join(lines[:-1] + [",".join([t, *values])]) + "\n"
        assert checks.check(job["check"], bad) is not None, job["argv"]


def test_evaluator_reads_bsharp_syntax():
    from fractions import Fraction as F

    x = F(3, 2)
    assert checks.evaluate("-1/24*(2*x - 1)^2 + x^-1", {"x": x}) == F(-1, 24) * 4 + F(2, 3)
    assert checks.evaluate("1/(8*alpha)", {"alpha": x}) == F(1, 12)
    p = checks._P
    assert checks.evaluate("-x^3 + 2/3", {"x": 5}, p) == checks._mod(F(-125) + F(2, 3))


def test_tensor_contraction_matches_oracle():
    text = workloads.polynomial_system(("x", "y", "z"), 3)
    point = {"x": "1/2", "y": "-2/3", "z": "3/4"}
    # raises if the contraction and the oracle disagree through order 3
    values = checks.elementary_differentials(text, point, 4)
    assert len(values) == 1 + 1 + 2 + 4


# ---------------------------------------------------------------------------
# the traced runs
# ---------------------------------------------------------------------------

def traced_run(jobs: list[dict], tmp_path: Path, monkeypatch) -> list[dict]:
    monkeypatch.setattr(run, "WORK", tmp_path)
    runner = run.Runner(deadline=time.monotonic() + 600)
    for job in jobs:
        for rel, text in job["files"].items():
            (tmp_path / rel).write_text(text)
    out = []
    for job in jobs:
        plain, traced = runner.bsharp(job, "plain"), runner.traced(job)
        assert plain["status"] == traced["status"] == "ok", job["argv"]
        assert traced["output"].read_bytes() == plain["output"].read_bytes(), job["argv"]
        out.append(run.per_layer([(plain, traced)]))
    return out


COUNTS = ("splits.rows", "splits.distinct_rows", "series.zero_skips", "coefficients.ops",
          "odes.tree_builds", "odes.tensor_builds", "expressions.dag_nodes",
          "simulate.field_evals", "trees.count")


def test_traced_counts_repeat_and_output_matches_cli(tmp_path, monkeypatch):
    jobs = [tiny_jobs(w)[1] for w in workloads.WORKLOADS]
    first = traced_run(jobs, tmp_path, monkeypatch)
    again = traced_run(jobs, tmp_path, monkeypatch)
    for a, b in zip(first, again):
        assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    series, symbolic, simulate, field = first
    assert series["splits.rows"] > series["splits.distinct_rows"] > 0
    assert symbolic["coefficients.ops"] > 0
    assert simulate["simulate.field_evals"] > 0 and simulate["expressions.eval_us"] > 0
    assert field["odes.tree_builds"] > 0 and field["expressions.dag_nodes"] > 0
    for layers in first:
        assert set(layers) == set(run.PER_LAYER_UNITS)


def test_spawn_samples_while_the_job_is_stopped(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    runner = run.Runner(deadline=time.monotonic() + 60)
    busy = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.8: pass\nprint('done')"
    pauses = []

    def sample():
        time.sleep(0.2)
        pauses.append(0.2)
        return 1.0

    t0 = time.perf_counter()
    result = runner.spawn([sys.executable, "-c", busy], tmp_path / "busy.out", sample)
    elapsed = time.perf_counter() - t0
    assert result["status"] == "ok"
    assert (tmp_path / "busy.out").read_text() == "done\n"
    assert len(result["samples"]) == len(pauses) >= 2
    # the stopped time is not counted
    assert result["wall_s"] <= elapsed - sum(pauses) + 0.05


def test_spawn_kills_a_job_past_the_run_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    runner = run.Runner(deadline=time.monotonic() + 0.5)
    t0 = time.perf_counter()
    result = runner.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                          tmp_path / "slow.out", lambda: 1.0)
    assert result["status"] == "timeout"
    assert time.perf_counter() - t0 < 10


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field_text", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_declared_metrics_match_the_result_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
