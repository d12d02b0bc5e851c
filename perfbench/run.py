#!/usr/bin/env python3
"""Cold-CLI benchmark of the bsharp pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bsharp checkout.  One client runs the workload's
seeded job list in a closed loop: each job is a fresh ``python -m bsharp``
process, started only after the previous one exited.  Every output is
checked after all jobs ran, outside the timed region.

Between any two spawns the client calibrates: it times four fixed probes
that do not use bsharp (pure-Python loops on Fractions, integers and strings,
and one bare interpreter start) and divides each time by the probe's
reference time.  The mean of those ratios is the machine's slowdown at that
moment.  While a job runs, the client also stops it (SIGSTOP) every
``SAMPLE_PERIOD_S``, runs a short form of the loop probes and lets it go on
(SIGCONT); the stopped time is not counted.  Every end-to-end time is a
spawn's wall time divided by the mean slowdown just before, during and just
after the spawn, i.e. seconds at reference speed.  On a shared host the
speed at which Python runs changes by up to three times within seconds and
stays changed for minutes; the scaling keeps that out of the metrics and
leaves in every change to bsharp.  The raw wall times are on the report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and then through ``traced.py``, and reports the per-layer
metrics, including the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report and a ``record:``
line with the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_SPAWNS = 9
# calibration probe -> its time on the 2-core x86-64 VM when that runs fast
CAL_REFERENCE_S = {"fractions": 0.019, "integers": 0.020, "strings": 0.023, "startup": 0.0375}
CAL_SHARE = 0.5  # share of each loop probe run between two spawns
SAMPLE_PERIOD_S = 0.3  # a running job is stopped for a short calibration this often
SAMPLE_SHARE = 0.25  # share of each loop probe run while a job is stopped
DEADLINE_S = 165.0  # every run must end well inside 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "job_s.p50": "s", "job_s.tail": "s", "batch_s": "s", "peak_rss_mb": "MB",
}

# per-layer metric -> unit; times are totals over the traced job list
PER_LAYER_UNITS = {
    "splits.build_s": "s", "splits.rows": "count", "splits.distinct_rows": "count",
    "splits.useful_ratio": "ratio", "splits.rss_mb": "MB",
    "series.solve_s": "s", "series.zero_skips": "count", "series.skip_ratio": "ratio",
    "series.rss_mb": "MB", "coefficients.ops": "count",
    "coefficients.parse_s": "s", "coefficients.print_s": "s", "cli.load_s": "s", "cli.emit_s": "s",
    "odes.field_s": "s", "odes.tree_builds": "count", "odes.tensor_builds": "count",
    "odes.rss_mb": "MB", "expressions.dag_nodes": "count", "expressions.format_s": "s",
    "simulate.step_s": "s", "simulate.field_evals": "count", "expressions.eval_us": "us",
    "trees.enum_s": "s", "trees.count": "count", "tableaux.weights_s": "s",
    "trace.overhead": "ratio", "trace.untraced_job_s": "s", "trace.traced_job_s": "s",
    "trace.startup_s": "s",
}

# span name -> per-layer time metric (self time, summed over jobs)
SPAN_METRICS = {
    "splits.build": "splits.build_s", "series.solve": "series.solve_s",
    "coefficients.parse": "coefficients.parse_s", "coefficients.print": "coefficients.print_s",
    "cli.load": "cli.load_s", "cli.emit": "cli.emit_s", "odes.field": "odes.field_s",
    "expressions.format": "expressions.format_s", "simulate.run": "simulate.step_s",
    "trees.enum": "trees.enum_s", "tableaux.weights": "tableaux.weights_s",
}
RSS_METRICS = {"splits.build": "splits.rss_mb", "series.solve": "series.rss_mb",
               "odes.field": "odes.rss_mb"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def calibrate(share: float = CAL_SHARE, startup: bool = True) -> float:
    """How slowly this machine runs Python at the moment, apart from bsharp:
    the mean over the probes of their time over their reference time
    (1.0 is the reference speed).  ``share`` of each loop probe is run;
    without ``startup`` no interpreter is started, the short form used
    while a job is stopped."""
    ratios = [_timed(probe, share) / (CAL_REFERENCE_S[name] * share)
              for name, probe in _LOOP_PROBES.items()]
    if startup:
        seconds = _timed(subprocess.run, [sys.executable, "-c", "pass"], check=True)
        ratios.append(seconds / CAL_REFERENCE_S["startup"])
    return statistics.fmean(ratios)


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _fraction_probe(share: float) -> None:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, round(10000 * share) + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i * 7919 % 10007] = i


def _integer_probe(share: float) -> None:
    x, kept = 0, []
    for i in range(round(200000 * share)):
        x = (x * 31 + i) % 1000003
        if i % 8 == 0:
            kept.append(x)
    kept.sort()


def _string_probe(share: float) -> None:
    terms: dict[str, str] = {}
    for i in range(round(40000 * share)):
        key = "v%d*x^%d" % (i % 997, i % 13)
        terms[key] = terms.get(key, "")[:20] + "(%s)" % key
    " + ".join(terms.values())


_LOOP_PROBES = {"fractions": _fraction_probe, "integers": _integer_probe,
                "strings": _string_probe}


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests since boot (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    from bsharp import _kernels, rationals

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bsharp").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "kernel_backend": _kernels.BACKEND,
        "rationals": rationals.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONPATH"] = self.env["PYTHONPATH"].rstrip(os.pathsep)

    def spawn(self, argv: list[str], out_path: Path, sample=None) -> dict:
        """Run one process to completion: wall time, peak RSS, exit status.

        With ``sample``, the process is stopped every ``SAMPLE_PERIOD_S``
        of its run and ``sample()`` is called while it is stopped; the
        results are returned as ``samples`` and the stopped time is left
        out of ``wall_s``.
        """
        if self.deadline <= time.monotonic():
            return {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "status": "skipped: run deadline",
                    "samples": []}
        samples, stopped, timed_out, ended = [], 0.0, False, None
        with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORK, env=self.env)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while ended is None:
                    left = self.deadline - time.monotonic()
                    if left <= 0:
                        proc.kill()
                        timed_out = True
                        break
                    if select.select([pidfd], [], [], min(left, SAMPLE_PERIOD_S))[0]:
                        break  # it ended
                    if sample is None:
                        continue
                    s0 = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if os.WIFSTOPPED(status):
                        samples.append(sample())
                        os.kill(proc.pid, signal.SIGCONT)
                    else:  # it ended before it stopped
                        ended = status, usage
                    stopped += time.perf_counter() - s0
                if ended is None:
                    _, status, usage = os.wait4(proc.pid, 0)
                    ended = status, usage
            finally:
                os.close(pidfd)
                if ended is None:  # an error left the process running or stopped
                    proc.kill()
                    os.waitpid(proc.pid, 0)
            wall = time.perf_counter() - t0 - stopped
        status, usage = ended
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out:
            state = "timeout"
        elif proc.returncode:
            state = f"exit {proc.returncode}"
        else:
            state = "ok"
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024, "status": state, "samples": samples}

    def bsharp(self, job: dict, tag: str, sample=None) -> dict:
        out = WORK / f"{_slug(job['id'])}.{tag}.out"
        result = self.spawn([sys.executable, "-m", "bsharp", *job["argv"]], out, sample)
        result["output"] = out
        return result

    def traced(self, job: dict) -> dict:
        slug = _slug(job["id"])
        job_file = WORK / f"{slug}.job.json"
        job_file.write_text(json.dumps(job))
        out = WORK / f"{slug}.traced.out"
        spans = WORK / f"{slug}.spans.json"
        argv = [sys.executable, str(HERE / "traced.py"), job_file.name, out.name, spans.name]
        result = self.spawn(argv, out.with_suffix(".log"))
        result["output"] = out
        result["spans"] = spans
        return result


def _slug(job_id: str) -> str:
    return job_id.replace("/", "-")


def write_inputs(jobs: list[dict]) -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    for job in jobs:
        for rel, text in job["files"].items():
            (WORK / rel).write_text(text, encoding="utf-8")


def check_outputs(results: list[tuple[dict, dict]]) -> None:
    """Fill in ``failure`` for every (job, result); identical outputs of one
    job are checked once."""
    import checks

    verdicts: dict[tuple[str, str], str | None] = {}
    for job, result in results:
        if result["status"] != "ok":
            result["failure"] = result["status"]
            continue
        data = result["output"].read_bytes()
        key = (job["id"], hashlib.sha256(data).hexdigest())
        if key not in verdicts:
            verdicts[key] = checks.check(job["check"], data.decode("utf-8"))
        result["failure"] = verdicts[key]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at
    least ten samples beyond it.  Below 21 samples no such percentile lies
    above the median, and the slowest sample is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup: list[dict], runs: list[dict]) -> tuple[dict, dict]:
    """Times are the spawns' wall times at reference speed (``ref_s``);
    the same statistics of the raw wall times go into the notes."""
    stats = {}
    for key in ("ref_s", "wall_s"):
        times = [r[key] for r in runs]
        tail_value, tail_pct = tail(times)
        stats[key] = {
            "setup_s": statistics.median(r[key] for r in setup),
            "job_s.p50": statistics.median(times),
            "job_s.tail": tail_value,
            "batch_s": sum(times),
        }
    metrics = {**stats["ref_s"], "peak_rss_mb": max(r["rss_mb"] for r in runs)}
    notes = {"jobs": len(runs), "tail_percentile": tail_pct,
             "jobs_beyond_tail": sum(r["ref_s"] > metrics["job_s.tail"] for r in runs),
             "setup_spawns": len(setup), "raw_wall": stats["wall_s"]}
    return metrics, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Aggregate the traced jobs' spans into per-layer metrics."""
    times = {m: 0.0 for m in SPAN_METRICS.values()}
    rss = {m: 0.0 for m in RSS_METRICS.values()}
    counters: dict[str, int] = {}
    eval_count, eval_s, startup = 0, 0.0, 0.0
    for plain, traced in pairs:
        data = json.loads(traced["spans"].read_text())
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        roots = 0.0
        for i, (name, start, end, parent, rss0, rss1, leaf_s) in enumerate(spans):
            if name in SPAN_METRICS:
                times[SPAN_METRICS[name]] += end - start - child[i] - leaf_s
            if name in RSS_METRICS:
                metric = RSS_METRICS[name]
                rss[metric] = max(rss[metric], (rss1 - rss0) / 1024)
            if parent < 0:
                roots += end - start
        startup += traced["wall_s"] - roots
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
        count, seconds = data["leaves"].get("expressions.eval", (0, 0.0))
        eval_count += count
        eval_s += seconds
    untraced = sum(p["wall_s"] for p, _ in pairs)
    traced_total = sum(t["wall_s"] for _, t in pairs)
    rows = counters.get("splits.rows", 0)
    visited = counters.get("series.rows_visited", 0)
    metrics = {**times, **rss}
    metrics.update({
        "splits.rows": rows,
        "splits.distinct_rows": counters.get("splits.distinct_rows", 0),
        "splits.useful_ratio": counters.get("splits.distinct_rows", 0) / rows if rows else 0.0,
        "series.zero_skips": counters.get("series.zero_skips", 0),
        "series.skip_ratio": counters.get("series.zero_skips", 0) / visited if visited else 0.0,
        "coefficients.ops": counters.get("coefficients.ops", 0),
        "odes.tree_builds": counters.get("odes.tree_builds", 0),
        "odes.tensor_builds": counters.get("odes.tensor_builds", 0),
        "expressions.dag_nodes": counters.get("expressions.dag_nodes", 0),
        "simulate.field_evals": eval_count,
        "expressions.eval_us": 1e6 * eval_s / eval_count if eval_count else 0.0,
        "trees.count": counters.get("trees.count", 0),
        "trace.overhead": traced_total / untraced if untraced else 0.0,
        "trace.untraced_job_s": untraced,
        "trace.traced_job_s": traced_total,
        "trace.startup_s": startup,
    })
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="size of the job list, in seconds of seed-code work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> dict:
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    jobs = workloads.make_jobs(args.workload, args.seed, args.seconds)
    write_inputs(jobs)
    runner = Runner(deadline)
    calibration = [calibrate()]
    steal_start = steal_s()

    def scaled(result: dict) -> dict:
        """Calibrate after a spawn and scale its wall time by the slowdown
        measured before, during and after it."""
        calibration.append(calibrate())
        result["slowdown"] = statistics.fmean([calibration[-2], *result["samples"],
                                               calibration[-1]])
        result["ref_s"] = result["wall_s"] / result["slowdown"]
        return result

    def sample() -> float:
        return calibrate(SAMPLE_SHARE, startup=False)

    trivial = {"id": "setup", "argv": ["trees", "1"], "check": {"type": "trivial"}}
    setup = [scaled(runner.bsharp(trivial, f"setup{i}", sample)) for i in range(SETUP_SPAWNS)]

    checked: list[tuple[dict, dict]] = [(trivial, r) for r in setup]
    plain_runs, pairs = [], []
    for job in jobs:
        plain = scaled(runner.bsharp(job, "plain", sample))
        plain_runs.append(plain)
        checked.append((job, plain))
        if args.trace:
            traced = runner.traced(job)
            checked.append((job, traced))
            pairs.append((plain, traced))
            calibration.append(calibrate())  # the next job's "before" block
    steal_end = steal_s()

    t_check = time.perf_counter()
    check_outputs(checked)
    check_s = time.perf_counter() - t_check
    failures = [(j["id"], r["failure"]) for j, r in checked if r["failure"]]
    metrics, notes = end_to_end(setup, plain_runs)
    notes["check_s"] = check_s
    layers = per_layer([(p, t) for p, t in pairs if t["status"] == "ok"]) if args.trace else {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "slowdown": calibration,
        "steal_s": None if steal_start is None else steal_end - steal_start,
        "end_to_end": metrics, "notes": notes, "per_layer": layers,
        "attempted": len(checked), "failed": len(failures),
        "fail_ratio": len(failures) / len(checked), "failures": failures,
        "jobs": [{"id": j["id"], "argv": j["argv"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                  "ref_s": r.get("ref_s"), "samples": len(r["samples"]), "rss_mb": r["rss_mb"]}
                 for j, r in checked if j is not trivial],
    }


def report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    cal = record["slowdown"]
    print(f"slowdown median {statistics.median(cal):.3f}  min {min(cal):.3f}"
          f"  max {max(cal):.3f}  ({len(cal)} calibrations)"
          f"  steal_s {record['steal_s']}")
    notes = record["notes"]
    raw = notes["raw_wall"]
    for name, value in record["end_to_end"].items():
        extra = ""
        if name in raw:
            extra = f"  (raw wall {raw[name]:.4f})"
        if name == "job_s.tail":
            extra += f"  (p{notes['tail_percentile']:.0f} of {notes['jobs']} jobs)"
        print(f"  {name:24s} {value:12.4f} {END_TO_END_UNITS[name]}{extra}")
    for name, value in record["per_layer"].items():
        print(f"  {name:24s} {value:12.4f} {PER_LAYER_UNITS[name]}")
    print(f"  fail_ratio {record['fail_ratio']:.4f}  ({record['failed']} of {record['attempted']})")
    for job_id, reason in record["failures"]:
        print(f"  FAILED {job_id}: {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bsharp" / "__init__.py").is_file():
        fail(f"no bsharp sources under {ROOT / 'src'}; run from a bsharp checkout")
    if not (ROOT / "tests" / "oracles.py").is_file():
        fail("tests/oracles.py is missing; the output checks need it")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        record = run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report(record)
    print("record: " + json.dumps(record))
    if args.trace:
        wanted, units = record["per_layer"], PER_LAYER_UNITS
    else:
        wanted, units = record["end_to_end"], END_TO_END_UNITS
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
