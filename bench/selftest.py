"""Tests of the benchmark itself: input generator, oracles and span recorder.

    python3 -m pytest -q bench/selftest.py      # about a minute

Kept out of the package's test suite so that stays fast.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, layer_metrics  # noqa: E402
from softsqueeze import cli  # noqa: E402


def _first(workload, seed, n=6):
    stream = workloads.sessions(workload, seed)
    return [next(stream) for _ in range(n)]


def _argvs(sessions):
    return [c.argv if isinstance(c.argv, list) else c.kind for s in sessions for c in s]


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _numbers_masked(argv):
    """An argv with every number replaced, leaving flags and structure."""
    masked = []
    for a in argv:
        try:
            json.loads(a)
            masked.append("<json>" if a.startswith("{") else "<n>")
        except ValueError:
            masked.append("<list>" if "," in a else a.split("=")[0])
    return masked


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _argvs(_first(workload, 7)) == _argvs(_first(workload, 7))
    assert _argvs(_first(workload, 7)) != _argvs(_first(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_amount_of_work_does_not_depend_on_seed(workload):
    def shape(seed):
        return [(c.kind, c.expect.get("nodes"), c.expect.get("roots"),
                 _numbers_masked(c.argv) if isinstance(c.argv, list) else None)
                for s in _first(workload, seed) for c in s]

    assert shape(1) == shape(2) == shape(12345)


def test_inputs_stay_in_their_ranges():
    for seed in range(20):
        for s in _first("plane_scan", seed, 3):
            lo0, hi0, lo1, hi1 = map(float, s[0].argv[2].split(","))
            assert 0.9 <= lo0 < hi0 <= 1.9 + 1e-12 and 0.5 <= lo1 < hi1 <= 1.6 + 1e-12
        for s in _first("refine", seed, 2):
            for cmd, (_, lo, hi, width) in zip(s[:2], workloads.LOCI):
                b0 = float(cmd.argv[4].split(",")[0])
                assert lo <= b0 <= hi and b0 + width <= hi + width + 1e-12
            for cmd in s[2::2]:
                b0, b1 = map(float, cmd.argv[3].split(","))
                x0, x1, y0, y1 = workloads.DZ_BOX
                assert x0 <= b0 <= x1 and y0 <= b1 <= y1
        for s in _first("pulse_design", seed):
            e = s[0].expect
            assert all(0.6 <= b <= 3.0 for b in e["bs"]) and 1 <= len(e["bs"]) <= 3
            assert 0.0 <= e["beta0"] <= 0.4
            assert not e["tail"] or e["beta0"] >= workloads.TAIL_BETA0_MIN


def test_pulse_inputs_exit_zero_including_range_edges():
    records = []
    for seed in range(3):
        for s in _first("pulse_design", seed):
            for cmd in s:
                rc, out = _run(cmd.argv)
                records.append(oracles.Record(cmd.kind, cmd.argv, cmd.expect, rc, out, 0.0))
    for bs in ([0.6], [3.0], [0.6, 3.0, 0.6], [3.0, 0.6, 3.0]):
        for beta0, tail in ((0.0, False), (0.4, False), (0.02, True), (0.4, True)):
            argv = ["design", "--b", repr(bs[0]), "--beta0", repr(beta0)]
            if len(bs) > 1:
                argv += ["--chain", ",".join(map(repr, bs[1:]))]
            argv += ["--tail"] if tail else []
            expect = {"bs": bs, "beta0": beta0, "tail": tail,
                      "profile": workloads.pulse_profile(bs, beta0, tail)}
            rc, out = _run(argv)
            records.append(oracles.Record("design", argv, expect, rc, out, 0.0))
    verdict = oracles.check_all(records, oracles.load_refs())
    assert verdict["failures"] == []


def test_refine_inputs_exit_zero_at_range_edges():
    refs = oracles.load_refs()
    records = []
    for entry, lo, hi, width in workloads.LOCI:
        for start in (lo, hi):
            argv = ["scan", "--locus", entry, "--rect", f"{start!r},{start + width!r},0.5,1.6",
                    "--grid", workloads.LOCUS_GRID, "--steps", workloads.REFINE_STEPS]
            rc, out = _run(argv)
            records.append(oracles.Record("locus", argv, {"entry": entry, "roots": 8},
                                          rc, out, 0.0))
    x0, x1, y0, y1 = workloads.DZ_BOX
    for b0, b1 in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
        argv = ["scan", "--double-zero", "--seed", f"{b0!r},{b1!r}",
                "--steps", workloads.REFINE_STEPS]
        rc, out = _run(argv)
        records.append(oracles.Record("dz", argv, {"roots": 1}, rc, out, 0.0))
        argv = workloads.units_argv(out)
        rc, out = _run(argv)
        records.append(oracles.Record("units", argv, {}, rc, out, 0.0))
    assert oracles.check_all(records, refs)["failures"] == []


def test_plane_rectangles_at_box_corners_exit_zero():
    side = workloads.PLANE_SIDE
    for lo0, lo1 in ((0.9, 0.5), (1.9 - side, 1.6 - side)):
        rc, out = _run(["scan", "--rect", f"{lo0},{lo0 + side},{lo1},{lo1 + side}",
                        "--grid", "80,80", "--steps", "50"])
        assert rc == 0 and len(out.splitlines()) == 6401


def test_dop853_oracle_matches_mpmath():
    refs = oracles.load_refs()
    pts = refs["points"]
    u = oracles.one_period([p["beta0"] for p in pts], [p["beta1"] for p in pts])
    for k, p in enumerate(pts):
        assert np.max(np.abs(u[:, k] - p["matrix"])) < 1e-11


def test_mathieu_zones_match_the_trace():
    rng = np.random.default_rng(3)
    b0 = rng.uniform(0.9, 1.9, 60)
    b1 = rng.uniform(0.5, 1.6, 60)
    zone, skip = oracles.mathieu_zones(b0, b1, band=1e-3)
    u = oracles.one_period(b0, b1)
    gamma = u[0] + u[3]
    want = np.where(np.abs(gamma) < 2.0, "I", "III")
    assert np.all((zone == want) | skip)
    assert np.sum(skip) < 5


def test_closed_form_pulse_product():
    maps, total = oracles.pulse_maps({"bs": [2.0, 0.5], "beta0": 0.25, "tail": True})
    m = [np.array(x).reshape(2, 2) for x in maps]
    assert np.allclose(m[2], [[0.0, 2.0], [-0.5, 0.0]])
    assert np.allclose(np.array(total).reshape(2, 2), m[2] @ m[1] @ m[0])


def test_span_recorder_is_transparent_and_restores():
    argv = ["scan", "--locus", "u21", "--rect", "1.2,1.5,0.5,1.6", "--grid", "3,20",
            "--steps", "2000"]
    before = dict(vars(cli))
    plain = _run(argv)
    recorder = SpanRecorder()
    with recorder:
        assert cli.main is not before["main"]
        traced = _run(argv)
    assert traced == plain
    assert vars(cli) == before
    m = layer_metrics(recorder.spans)
    assert m["mathieu.locus_batch_passes"] == 37
    assert m["cli.commands"] == 1 and m["evolution.mathieu_batch_calls"] == 38
    assert m["evolution.batch_node_steps"] == (60 + 37 * 3) * 2000
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = {x["name"] for x in json.load(fh)["per_layer"]}
    assert names == set(m) | {"trace.overhead_frac"}


def test_span_counts_repeat():
    def counts():
        recorder = SpanRecorder()
        with recorder:
            for cmd in _first("pulse_design", 4, 2)[1]:
                _run(cmd.argv)
        m = layer_metrics(recorder.spans)
        return {k: v for k, v in m.items() if not k.endswith("_s") and "per_s" not in k}

    first = counts()
    assert first == counts()
    assert first["evolution.integrate_steps"] > 0 and math.isfinite(first["core.beta_samples"])
