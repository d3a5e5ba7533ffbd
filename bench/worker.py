"""One workload in one fresh process; started by bench/run.py.

    worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

The process imports the package from src/, runs the workload's warm-up
commands and notes the time (time.monotonic, which the parent shares).
With --setup-only it stops there.  Otherwise:

- trace 0: runs sessions closed-loop, one command at a time, until the
  commands took S reference seconds (below), a whole block of sessions is
  done and at least the workload's minimum command count is timed.
- trace 1: runs a fixed number of sessions untraced, then the same sessions
  again under the span recorder, and compares the outputs byte for byte.

Then, outside any timed region, it runs the reference commands, checks all
outputs against the oracles and prints one JSON object on stdout.

Machine speed on a shared host drifts by 20% and more over tens of seconds,
and scalar Python and small-array numpy slow down together.  So the timed
region runs a fixed calibration kernel (calibrate) every CAL_EVERY_S
seconds on an interval timer: right after the current command, or, once a
command has run for LONG_S, at once, between two of its bytecodes, with the
pass's time taken out of the command's.  Each command's time is also
converted to reference seconds: times CAL_REF_S over the mean time of the
passes from LOCAL_S before the command started to LOCAL_S after it ended.
A change to the package cannot change the kernel.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import Record  # noqa: E402
from softsqueeze import cli  # noqa: E402


CAL_REF_S = 0.010    # pass time of calibrate() that defines a reference second
CAL_EVERY_S = 0.5    # interval between passes
LONG_S = 1.0         # commands longer than this are interrupted for a pass
LOCAL_S = 2.0        # passes this close to a command count for its speed
SETUP_CAL_PASSES = 20


def calibrate() -> float:
    """Time of one pass of a fixed kernel made of the three kinds of work the
    package does: a scalar Python loop (the RK4 loops), numpy on 8-element
    arrays (locus passes) and on 4096-element arrays (scan chunks)."""
    t0 = time.perf_counter()
    x, y, h = 0.0, 1.0, 1e-3
    for _ in range(20000):
        k2 = y - 0.5 * h * x
        x, y = x + h * k2, y - h * (x + 0.5 * h * y)
    for n, reps in ((8, 700), (4096, 200)):
        a = np.ones(n)
        c = np.full(n, 0.5)
        for _ in range(reps):
            a = a + 0.001 * (c * a - a)
            c = c * 0.9999 + 0.0001 * a
    return time.perf_counter() - t0


class Speed:
    """Calibration passes on an interval timer, while entered."""

    def __init__(self):
        self.passes = []
        self.paused = 0.0       # seconds spent in passes
        self.busy_since = None  # start of the running command
        self._owed = 0

    def _pass(self):
        t = calibrate()
        self.passes.append((time.perf_counter(), t))
        self.paused += t

    def _tick(self, signum, frame):
        if self.busy_since is not None and time.perf_counter() - self.busy_since > LONG_S:
            self._pass()
        else:
            self._owed += 1

    def idle(self):
        """Run the passes that fell due during short commands."""
        while self._owed:
            self._owed -= 1
            self._pass()

    def reference(self, rec) -> float:
        """A command's time in reference seconds, from the passes around it."""
        lo, hi = rec.start - LOCAL_S, rec.start + rec.seconds + LOCAL_S
        near = [d for stamp, d in self.passes if lo <= stamp <= hi]
        return rec.seconds * CAL_REF_S / statistics.mean(near or [d for _, d in self.passes])

    def __enter__(self):
        self._pass()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_command(argv, speed=None) -> tuple:
    """(exit code or exception text, stdout, seconds, start time) of one
    in-process call; time spent in calibration passes does not count."""
    out, err = io.StringIO(), io.StringIO()
    paused = speed.paused if speed is not None else 0.0
    t0 = time.perf_counter()
    if speed is not None:
        speed.busy_since = t0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is recorded as a failed command
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if speed is not None:
        speed.busy_since = None
        seconds -= speed.paused - paused
        speed.idle()
    return rc, out.getvalue(), seconds, t0


def run_session(session, records, speed=None):
    stdout = ""
    for cmd in session:
        try:
            argv = cmd.argv(stdout) if callable(cmd.argv) else cmd.argv
        except (ValueError, KeyError, TypeError) as exc:
            records.append(Record(cmd.kind, [], cmd.expect, f"no input: {exc}", "", 0.0,
                                  time.perf_counter()))
            stdout = ""
            continue
        rc, stdout, seconds, start = run_command(argv, speed)
        records.append(Record(cmd.kind, argv, cmd.expect, rc, stdout, seconds, start))


def timed_run(name, stream, seconds, speed):
    """Whole blocks of sessions until their commands took `seconds` in
    reference seconds, so the work done does not follow the machine's speed."""
    records = []
    n_sessions = 0
    block = workloads.BLOCK[name]
    while True:
        for _ in range(block):
            run_session(next(stream), records, speed)
        n_sessions += block
        done = sum(speed.reference(r) for r in records)
        if done >= seconds and len(records) >= workloads.MIN_COMMANDS[name]:
            return records, n_sessions, sum(r.seconds for r in records)


def work_done(name, records, n_sessions) -> float:
    """Units of work delivered: scan nodes, roots, or design sessions."""
    if name == "pulse_design":
        return float(n_sessions)
    done = 0
    for rec in records:
        if rec.rc == 0 and rec.kind in ("scan", "locus"):
            done += max(len(rec.stdout.splitlines()) - 1, 0)
        elif rec.rc == 0 and rec.kind == "dz":
            done += 1
    return float(done)


def percentile(values, share) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    name = args.workload

    for w in workloads.WARMUP[name]:
        rc = run_command(w)[0]
        if rc != 0:
            print(f"warm-up command failed ({rc}): {w}", file=sys.stderr)
            return 1
    ready = time.monotonic()
    setup_speed = CAL_REF_S / statistics.mean(calibrate() for _ in range(SETUP_CAL_PASSES))
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": setup_speed}))
        return 0

    refs = oracles.load_refs()
    stream = workloads.sessions(name, args.seed)
    out = {"ready": ready, "speed": setup_speed}
    if args.trace == 0:
        with Speed() as speed:
            records, n_sessions, elapsed = timed_run(name, stream, args.seconds, speed)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work = work_done(name, records, n_sessions)

        def timings(lat):
            return {"work_per_s": work / sum(lat), "cmd_p50_s": statistics.median(lat),
                    "cmd_p90_s": percentile(lat, 0.9)}

        ref = [speed.reference(r) for r in records]
        out.update({
            "sessions": n_sessions,
            "commands": len(records),
            "elapsed_s": elapsed,
            "work": work,
            "reference": timings(ref),
            "measured": timings([r.seconds for r in records]),
            "beyond_p90": sum(1 for x in ref if x > percentile(ref, 0.9)),
            "run_speed": sum(ref) / elapsed,
            "calibration_passes": len(speed.passes),
        })
        mismatched = 0
    else:
        from spans import SpanRecorder, layer_metrics

        chosen = [next(stream) for _ in range(workloads.TRACE_SESSIONS[name])]
        plain = []
        t0 = time.perf_counter()
        for s in chosen:
            run_session(s, plain)
        untraced = time.perf_counter() - t0
        records = []
        recorder = SpanRecorder()
        t0 = time.perf_counter()
        with recorder:
            for s in chosen:
                run_session(s, records)
        traced = time.perf_counter() - t0
        mismatched = sum(1 for a, b in zip(plain, records)
                         if (a.rc, a.stdout) != (b.rc, b.stdout))
        mismatched += abs(len(plain) - len(records))
        out["layers"] = layer_metrics(recorder.spans)
        out["layers"]["trace.overhead_frac"] = traced / untraced - 1.0
        out["spans"] = len(recorder.spans)
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results", f"spans-{name}-seed{args.seed}.json")
        recorder.write(path)
        out["spans_file"] = os.path.relpath(path, ROOT)

    refs_records = []
    run_session(workloads.reference_commands(name, refs), refs_records)
    seeded = oracles.check_all(records, refs)
    fixed = oracles.check_all(refs_records, refs)
    failures = seeded["failures"] + [f"reference {f}" for f in fixed["failures"]]
    if mismatched:
        failures.append(f"{mismatched} traced outputs differ from untraced ones")
    out.update({
        "failures": failures,
        "max_abs_err": fixed["max_abs_err"],
        "seeded_max_abs_err": seeded["max_abs_err"],
        "oracle_points": seeded["oracle_points"] + fixed["oracle_points"],
        "zone_nodes": seeded["zone_nodes"],
        "zone_skipped": seeded["zone_skipped"],
    })
    import scipy

    out["environment"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    out["attempted"] = len(records) + len(refs_records)
    out["failed"] = min(len(failures), out["attempted"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
