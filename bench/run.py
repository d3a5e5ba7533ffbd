"""Benchmark of the softsqueeze CLI: plane_scan, refine and pulse_design.

    python3 bench/run.py --workload plane_scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Run from the repository root.  Every workload runs in fresh worker
processes (bench/worker.py) with BLAS and OpenMP pinned to one thread:

- --trace 0: four set-up-only processes and one measuring process.  setup_s
  is the median, over the five, of the time from starting the process to
  the end of its warm-up commands.  The measuring process then runs the
  workload closed-loop for --seconds and reports throughput, per-command
  latency, peak memory and accuracy against the oracles.
- --trace 1: one process runs a fixed set of sessions untraced and then
  traced, and reports the per-layer metrics of BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it summarise the run for a
reader; bench/results/ keeps each run's full record, with its environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5   # including the measuring process
DEADLINE_S = 170.0  # whole run, below the 180 s a run may take

# what work_per_s counts on each workload
WORK_NAMES = {"plane_scan": "scan_nodes_per_s", "refine": "roots_per_s",
              "pulse_design": "pulses_per_s"}


class BenchError(RuntimeError):
    pass


def _child(argv, deadline) -> tuple:
    """Run a worker to completion; (its JSON result, monotonic start time)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + argv, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {argv} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of a git checkout at ROOT, read from its files; else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "softsqueeze")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(worker_env: dict) -> dict:
    return dict({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "threads_pinned": THREAD_VARS,
    }, **worker_env)


def run_workload(name, seed, seconds, trace, spec, deadline) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        res, _ = _child(base, deadline)
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        setups = []  # (measured seconds, reference seconds per measured second)
        for _ in range(SETUP_SAMPLES - 1):
            ready, start = _child(base + ["--setup-only"], deadline)
            setups.append((ready["ready"] - start, ready["speed"]))
        res, start = _child(base, deadline)
        setups.append((res["ready"] - start, res["speed"]))
        values = dict(res["reference"], setup_s=statistics.median(t * f for t, f in setups),
                      max_abs_err=res["max_abs_err"], peak_rss_mb=res["peak_rss_mb"])
        res["measured"]["setup_s"] = statistics.median(t for t, _ in setups)
        res["setup_samples"] = setups
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(res.pop("environment")),
              "metrics": metrics, "worker": res}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def summary(rec) -> list:
    w = rec["worker"]
    failed_frac = w["failed"] / w["attempted"]
    lines = [f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
             f"{w['attempted']} commands checked, {w['failed']} failed "
             f"(failed_frac {failed_frac:g})"]
    if not rec["trace"]:
        lines.append(f"  {w['commands']} timed commands in {w['elapsed_s']:.2f} s, "
                     f"{w['sessions']} sessions; {w['beyond_p90']} samples beyond p90; "
                     f"work_per_s is {WORK_NAMES[rec['workload']]}; "
                     f"{w['run_speed']:.3f} reference s per measured s")
    for name, m in rec["metrics"].items():
        measured = w.get("measured", {}).get(name)
        also = f"   (measured {measured:.6g})" if measured is not None else ""
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}{also}")
    for f in w["failures"][:10]:
        lines.append(f"  FAILED {f}")
    env = rec["environment"]
    lines.append("  env: " + ", ".join(f"{k}={env[k]}" for k in
                                       ("nproc", "cpu_model", "python", "numpy", "scipy",
                                        "git_commit", "src_sha256_16")))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "softsqueeze", "cli.py")):
        print("error: src/softsqueeze not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, seconds, args.trace, spec, deadline))
    except (BenchError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print("\n".join(summary(rec)))
    attempted = sum(r["worker"]["attempted"] for r in records)
    failed = sum(r["worker"]["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
