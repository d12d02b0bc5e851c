#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--trace-seeds 1]
                                 [--out perfbench/results/NAME.json]

Runs every workload once per seed, each run in a fresh ``run.py`` process
with the run length from BENCHMARK.json, and prints for every end-to-end
metric its median, quartiles and spread (the distance between the
quartiles over the median) next to the metric's bound.  Seeds listed in
``--trace-seeds`` also get a traced run, whose per-layer metrics are
printed per workload.  ``--out`` writes all of it, with the environment of
the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    record = next(json.loads(l[len("record: "):]) for l in lines if l.startswith("record: "))
    record["result"] = json.loads(lines[-1])
    return record


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary: dict = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in seed_list(args.seeds)]
        ok &= all(r["result"]["correct"] for r in runs)
        summary.setdefault("environment", runs[0]["environment"])
        entry: dict = {
            "seeds": seed_list(args.seeds),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "jobs_per_run": runs[0]["notes"]["jobs"],
            "tail_percentile": runs[0]["notes"]["tail_percentile"],
            "slowdown": summarise([statistics.median(r["slowdown"]) for r in runs]),
            "end_to_end": {},
        }
        print(f"{workload}: {len(runs)} runs, {entry['jobs_per_run']} jobs each, "
              f"{entry['failed']} of {entry['attempted']} failed")
        for name in bounds:
            s = summarise([r["end_to_end"][name] for r in runs])
            entry["end_to_end"][name] = s
            mark = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}"
                  f"  spread {s['spread']:.3f}  bound {bounds[name]}{mark}")
        traced = [run_once(workload, s, seconds, 1) for s in seed_list(args.trace_seeds)]
        if traced:
            ok &= all(r["result"]["correct"] for r in traced)
            entry["per_layer"] = {
                name: statistics.median(r["per_layer"][name] for r in traced)
                for name in traced[0]["per_layer"]
            }
            entry["trace_seeds"] = seed_list(args.trace_seeds)
            for name, value in entry["per_layer"].items():
                print(f"  {name:24s} {value:14.4f}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
