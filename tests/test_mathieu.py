"""Parameter-plane scans, locus tracing, double-zero refinement."""

import io
import math
import re

import numpy as np
import pytest

from softsqueeze import evolution, mathieu
from softsqueeze.cli import main
from softsqueeze.evolution import ZONES, IntegrationError, IntegratorConfig, classify, integrate
from softsqueeze.core import MathieuBeta, SymplecticMatrix2, rotation_matrix
from softsqueeze.mathieu import (
    LOCUS_XTOL,
    ConvergenceError,
    ScanRect,
    default_rect,
    find_double_zero,
    scan_grid,
    trace_locus,
    write_locus_csv,
    write_scan_csv,
)

PI = math.pi
FAST = IntegratorConfig(steps=2500)


def test_rect_validation():
    with pytest.raises(ValueError):
        ScanRect(1.0, 0.5, 0.5, 1.6)
    with pytest.raises(ValueError):
        ScanRect(0.9, 1.9, 1.6, 0.5)
    with pytest.raises(ValueError):
        ScanRect(0.9, 1.9, 0.5, 1.6, n0=1)
    with pytest.raises(ValueError):
        ScanRect(0.9, 1.9, 0.5, 1.6, tau0=2.0, tau1=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(4))
def test_rect_bounds_must_be_finite(bad, k):
    bounds = [0.9, 1.9, 0.5, 1.6]
    bounds[k] = bad
    with pytest.raises(ValueError, match="rectangle bounds must be finite"):
        ScanRect(*bounds)


@pytest.mark.parametrize("n0, n1", [(2**59, 2), (2, 2**59), (2**40, 2**40), (10**26, 2)])
def test_rect_counts_beyond_the_address_space_are_rejected(n0, n1):
    # n0 n1 doubles must fit in 2^63 - 1 bytes, the largest intp
    with pytest.raises(ValueError, match=f"grid counts {n0} x {n1} exceed the address space"):
        ScanRect(0.9, 1.9, 0.5, 1.6, n0=n0, n1=n1)
    ScanRect(0.9, 1.9, 0.5, 1.6, n0=2**59 - 1, n1=2)  # 2^63 - 16 bytes


def test_default_rect_box():
    rect = default_rect(n0=10, n1=10)
    assert (rect.beta0_lo, rect.beta0_hi) == (0.9, 1.9)
    assert (rect.beta1_lo, rect.beta1_hi) == (0.5, 1.6)
    assert rect.tau0 == pytest.approx(PI / 2)
    assert rect.tau1 == pytest.approx(5 * PI / 2)


def test_scan_grid_matches_direct_integration():
    rect = ScanRect(1.0, 1.4, 0.6, 1.0, n0=3, n1=3)
    res = scan_grid(rect, FAST)
    for i in (0, 2):
        for j in (0, 2):
            ref = integrate(MathieuBeta(res.beta0s[i], res.beta1s[j]),
                            rect.tau0, rect.tau1, FAST)
            assert SymplecticMatrix2(res.u11[i, j], res.u12[i, j],
                                     res.u21[i, j], res.u22[i, j]) == ref


def test_scan_grid_zone_structure():
    # the box straddles the tongue: stable cells and squeezing cells coexist
    res = scan_grid(ScanRect(0.9, 1.9, 0.5, 1.6, n0=15, n1=15), FAST)
    zones = set(np.unique(res.zone).tolist())
    assert 3 in zones          # squeezing region present
    assert 1 in zones          # stable region present
    assert not res.failed.any()
    # the scan's vectorised zones are classify's, node by node
    for i, j in np.ndindex(res.zone.shape):
        u = SymplecticMatrix2(res.u11[i, j], res.u12[i, j], res.u21[i, j], res.u22[i, j])
        assert ZONES[res.zone[i, j]] == classify(u).zone


def test_scan_grid_marks_nan_nodes_failed():
    # an infinite interval gives NaN matrices, which fail the determinant
    # gate of the one batch (evolution._gate), so the scan marks them failed
    with np.errstate(invalid="ignore"):
        res = scan_grid(ScanRect(0.9, 1.9, 0.5, 1.6, n0=2, n1=2, tau1=math.inf), FAST)
    assert res.failed.all()
    assert (res.zone == 0).all()
    buf = io.StringIO()
    write_scan_csv(res, buf)
    rows = buf.getvalue().splitlines()[1:]
    assert len(rows) == 4
    assert {row.split(",")[-1] for row in rows} == {"failed"}


def test_scan_grid_zones_flip_across_mathieu_characteristic_curves():
    # With tau = 2z, a = 4 beta0 and q = 4 beta1 the drive is Mathieu's
    # equation (up to the sign of q, which only swaps a_r and b_r for odd r),
    # whose |Gamma| = 2 boundaries are the characteristic values a_r(q),
    # b_r(q) (DLMF 28.2, 28.7), computed by scipy without any of this
    # package's code.  The box reaches the first three tongues b_r < a < a_r and lies
    # between a_0 and b_4, so r = 1..3 decide every node.
    from scipy.special import mathieu_a, mathieu_b

    rect = ScanRect(0.2, 2.6, 0.1, 1.0, n0=25, n1=6)
    res = scan_grid(rect, FAST)
    tongues = set()
    for i, b0 in enumerate(res.beta0s):
        for j, b1 in enumerate(res.beta1s):
            q = 4.0 * b1
            assert mathieu_a(0, q) / 4 < rect.beta0_lo
            assert mathieu_b(4, q) / 4 > rect.beta0_hi
            lows = [mathieu_b(r, q) / 4 for r in (1, 2, 3)]
            highs = [mathieu_a(r, q) / 4 for r in (1, 2, 3)]
            if min(abs(b0 - c) for c in lows + highs) < 1e-6:
                continue
            inside = [r for r, lo, hi in zip((1, 2, 3), lows, highs) if lo < b0 < hi]
            tongues.update(inside)
            assert res.zone[i, j] == (3 if inside else 1), (b0, b1, res.gamma[i, j])
    assert tongues == {1, 2, 3}
    assert (res.zone == 1).any()


def test_scan_grid_row_major_order():
    rect = ScanRect(1.0, 1.2, 0.6, 0.8, n0=2, n1=3)
    res = scan_grid(rect, FAST)
    buf = io.StringIO()
    write_scan_csv(res, buf)
    rows = buf.getvalue().splitlines()[1:]
    assert len(rows) == 6
    b0_seq = [float(r.split(",")[0]) for r in rows]
    assert b0_seq == sorted(b0_seq) and b0_seq[0] < b0_seq[-1]
    # beta0 outer, beta1 inner: the inner index cycles fastest
    assert rows == [
        ",".join(["%.12g" % x for x in (
            res.beta0s[i], res.beta1s[j], res.u11[i, j], res.u12[i, j],
            res.u21[i, j], res.u22[i, j], res.gamma[i, j])] + [ZONES[res.zone[i, j]]])
        for i in range(2) for j in range(3)
    ]


def test_scan_csv_deterministic():
    rect = ScanRect(1.0, 1.3, 0.6, 0.9, n0=4, n1=4)
    bufs = []
    for _ in range(2):
        res = scan_grid(rect, FAST)
        buf = io.StringIO()
        write_scan_csv(res, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    header = bufs[0].splitlines()[0]
    assert header == "beta0,beta1,u11,u12,u21,u22,Gamma,zone"
    assert len(bufs[0].splitlines()) == 1 + 16


def test_constant_strip_u12_zeros_at_half_integer_kappa():
    # with beta1 = 0 the scan row reduces to the rotation oracle:
    # u12 over a 2*pi interval vanishes exactly at kappa = n/2
    for n in (1, 2, 3):
        kappa = n / 2.0
        u = rotation_matrix(kappa, 2 * PI)
        assert abs(u.u12) < 1e-12
    off = rotation_matrix(0.8, 2 * PI)
    assert abs(off.u12) > 0.1


LOCUS_RECT = ScanRect(1.044, 1.064, 0.55, 0.75, n0=3, n1=6)


@pytest.fixture(scope="module")
def u21_locus():
    return trace_locus(LOCUS_RECT, "u21", IntegratorConfig(steps=1500))


def test_trace_locus_refines_to_tolerance(u21_locus):
    assert u21_locus
    for p in u21_locus:
        assert abs(p.residual) <= 1e-8
        assert LOCUS_RECT.beta1_lo <= p.beta1 <= LOCUS_RECT.beta1_hi
    b0s = [p.beta0 for p in u21_locus]
    assert b0s == sorted(b0s)


def test_trace_locus_regression_anchor(u21_locus):
    # frozen crossing of the u21 = 0 branch along beta0 = 1.054
    hits = [p for p in u21_locus if abs(p.beta0 - 1.054) < 1e-9]
    assert hits
    assert hits[0].beta1 == pytest.approx(0.622820469, abs=1e-6)
    assert hits[0].lam == pytest.approx(0.391679, abs=1e-4)


# (entry, beta0, beta1, lambda) at 30 digits from tests/make_locus_references.py
LOCUS_REFERENCES = [
    ("u21", 1.054, 0.62282046921147613985, 0.39167886714826270667),
    ("u12", 1.0, 1.3041361590187686663, 0.06347319850223269277),
]


@pytest.mark.parametrize("entry,beta0,beta1,lam,rect,tol_b1,tol_lam", [
    # the anchor's and the det-identity test's rectangles at 1500 steps,
    # where RK4 puts the points 1.3e-11 and 1.2e-10 off in beta1 and
    # 2.7e-11 and 1.3e-11 off in lambda
    (*LOCUS_REFERENCES[0], LOCUS_RECT, 3e-11, 5e-11),
    (*LOCUS_REFERENCES[1], ScanRect(1.0, 1.1, 1.1, 1.35, n0=2, n1=6), 3e-10, 3e-11),
])
def test_trace_locus_matches_mpmath_references(entry, beta0, beta1, lam, rect,
                                               tol_b1, tol_lam):
    pts = [p for p in trace_locus(rect, entry, IntegratorConfig(steps=1500))
           if p.beta0 == beta0]
    assert len(pts) == 1
    assert abs(pts[0].beta1 - beta1) <= tol_b1
    assert abs(pts[0].lam - lam) <= tol_lam


def test_u12_locus_det_identity():
    # where u12 = 0, det = u11 u22 so lambda * u22 = 1
    rect = ScanRect(1.0, 1.1, 1.1, 1.35, n0=2, n1=6)
    cfg = IntegratorConfig(steps=1500)
    pts = trace_locus(rect, "u12", cfg)
    assert pts
    for p in pts:
        u = integrate(MathieuBeta(p.beta0, p.beta1), rect.tau0, rect.tau1, cfg)
        assert p.lam * u.u22 == pytest.approx(1.0, abs=1e-6)


def test_trace_locus_rejects_unknown_entry():
    with pytest.raises(ValueError):
        trace_locus(default_rect(n0=2, n1=2), "u11", FAST)


def test_trace_locus_empty_when_no_crossing():
    # far inside the stable region u12 keeps one sign along beta1
    rect = ScanRect(0.9, 0.95, 0.5, 0.55, n0=2, n1=4)
    pts = trace_locus(rect, "u12", FAST)
    assert pts == []


def test_locus_csv_format(u21_locus):
    buf = io.StringIO()
    write_locus_csv(u21_locus, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "beta0,beta1,entry,lambda"
    assert len(lines) == 1 + len(u21_locus)
    assert lines[1].split(",")[2] == "u21"


# one crossing on each of 8 beta0 lines, with the refine benchmark's
# rect ends (start + width); on the last two a midpoint fallback for a
# secant on a bracket end stalls, at 19 and 29 passes
REFINE_CFG = IntegratorConfig(steps=2000)
REFINE_LOCI = [
    pytest.param("u12", ScanRect(0.9, 0.9 + 0.15, 0.5, 1.6, n0=8, n1=20), id="u12-0.9"),
    pytest.param("u21", ScanRect(1.0, 1.0 + 0.45, 0.5, 1.6, n0=8, n1=20), id="u21-1.0"),
    pytest.param("u12", ScanRect(0.95, 0.95 + 0.15, 0.5, 1.6, n0=8, n1=20), id="u12-0.95"),
    pytest.param("u21", ScanRect(1.35, 1.35 + 0.45, 0.5, 1.6, n0=8, n1=20), id="u21-1.35"),
]


def _bisection_locus(rect, entry, cfg):
    """(beta0, beta1, lambda) arrays by plain lockstep bisection of the
    scan's sign changes to LOCUS_XTOL, ordered by beta0."""
    col = {"u12": 1, "u21": 2}[entry]
    f = getattr(scan_grid(rect, cfg), entry)
    i, j = np.nonzero((f[:, :-1] < 0.0) != (f[:, 1:] < 0.0))
    b0, lo, hi, flo = rect.beta0_axis()[i], rect.beta1_axis()[j], rect.beta1_axis()[j + 1], f[i, j]
    while np.any(hi - lo > LOCUS_XTOL):
        mid = 0.5 * (lo + hi)
        fm = evolution.mathieu_batch(b0, mid, rect.tau0, rect.tau1, cfg.steps)[col]
        left = (fm < 0.0) == (flo < 0.0)
        lo, flo, hi = np.where(left, mid, lo), np.where(left, fm, flo), np.where(left, hi, mid)
    mid = 0.5 * (lo + hi)
    lam = evolution.mathieu_batch(b0, mid, rect.tau0, rect.tau1, cfg.steps)[0]
    return b0, mid, lam


def _counter(calls, real, nan_at, node, factor):
    """real, appending the node count of each call to calls; call number
    nan_at (0 is the first) returns all four entries at the given node
    times factor."""
    def counted(*args, **kwargs):
        cols = real(*args, **kwargs)
        if len(calls) == nan_at:
            for c in cols:
                c[node] *= factor
        calls.append(np.size(args[0]))
        return cols

    return counted


def _count_batches(monkeypatch, nan_at=None, node=0, factor=np.nan):
    """Count evolution.mathieu_batch calls, through _counter (NaN by
    default)."""
    calls = []
    monkeypatch.setattr(evolution, "mathieu_batch",
                        _counter(calls, evolution.mathieu_batch, nan_at, node, factor))
    return calls


def _count_runs(monkeypatch, nan_at=None, node=0, factor=np.nan):
    """Count the calls of every evolution._MathieuRun, through _counter
    (NaN by default), each run's in turn."""
    calls = []
    real = evolution._MathieuRun
    monkeypatch.setattr(evolution, "_MathieuRun",
                        lambda *args: _counter(calls, real(*args), nan_at, node, factor))
    return calls


@pytest.mark.parametrize("entry,rect", REFINE_LOCI)
def test_trace_locus_takes_few_batch_passes(monkeypatch, entry, rect):
    # every start from the scan's own interpolant is within the window, so
    # one pass of three nodes per bracket closes all 8 and gives their
    # points, where Illinois steps took 6 to 8 passes and a final batch
    calls = _count_batches(monkeypatch)
    pts = trace_locus(rect, entry, REFINE_CFG)
    assert len(pts) == 8
    assert calls == [160, 24]


@pytest.mark.parametrize("entry,rect,steps,most_calls,most_nodes", [
    # the calls and nodes after the scan that plain Illinois passes took:
    # windows from 6-point fits miss by about 1e-9 but leave brackets that
    # narrow, and lines of 4 nodes have no window
    ("u21", LOCUS_RECT, 1500, 9, 25),
    ("u12", ScanRect(1.0, 1.1, 1.1, 1.35, n0=2, n1=6), 1500, 7, 14),
    ("u21", default_rect(n0=6, n1=4), 2000, 10, 44),
])
def test_trace_locus_coarse_grids_take_no_more_work(monkeypatch, entry, rect, steps,
                                                     most_calls, most_nodes):
    calls = _count_batches(monkeypatch)
    assert trace_locus(rect, entry, IntegratorConfig(steps=steps))
    assert calls[0] == rect.n0 * rect.n1
    assert len(calls) - 1 <= most_calls
    assert sum(calls[1:]) <= most_nodes


@pytest.mark.parametrize("factor", [np.nan, 1.0 + 1e-8])
def test_trace_locus_failed_stencil_node_falls_back_to_illinois(monkeypatch, factor):
    # a scan node that fails the gate (NaN, or a det drift of 2e-8 that
    # moves the entry by as little) inside a crossing's stencil but at
    # neither end of its bracket: that line's bracket takes one-node
    # Illinois passes and a final batch, the other 7 still close in the
    # window pass, and the points match bisection
    entry, rect = REFINE_LOCI[0].values
    f = getattr(scan_grid(rect, REFINE_CFG), entry)
    j = int(np.flatnonzero((f[0, :-1] < 0.0) != (f[0, 1:] < 0.0))[0])
    node = (0, j - 3 if j >= 3 else j + 4)
    calls = _count_batches(monkeypatch, nan_at=0, node=node, factor=factor)
    pts = trace_locus(rect, entry, REFINE_CFG)
    assert calls[1] == 7 * 3 + 1 and set(calls[2:]) == {1}
    b0, b1, lam = _bisection_locus(rect, entry, REFINE_CFG)
    assert [p.beta0 for p in pts] == b0.tolist()
    assert np.max(np.abs([p.beta1 for p in pts] - b1)) <= 2e-12
    assert np.max(np.abs([p.lam for p in pts] - lam)) <= 1e-11


@pytest.mark.parametrize("entry,rect", REFINE_LOCI)
def test_trace_locus_agrees_with_bisection(entry, rect):
    pts = trace_locus(rect, entry, REFINE_CFG)
    b0, b1, lam = _bisection_locus(rect, entry, REFINE_CFG)
    assert [p.beta0 for p in pts] == b0.tolist()
    assert np.max(np.abs([p.beta1 for p in pts] - b1)) <= 2e-12
    assert np.max(np.abs([p.lam for p in pts] - lam)) <= 1e-11


# REFINE_LOCI[1] with lines of 6 nodes, whose windows from 6-point fits
# all miss, so every bracket stays open after the first pass
COARSE_LOCUS = ScanRect(1.0, 1.0 + 0.45, 0.5, 1.6, n0=8, n1=6)


def test_trace_locus_raises_when_a_bracket_stays_open(monkeypatch):
    monkeypatch.setattr(mathieu, "LOCUS_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"8 bracket\(s\) .* after 1 passes") as exc:
        trace_locus(COARSE_LOCUS, "u21", REFINE_CFG)
    for b0 in COARSE_LOCUS.beta0_axis().tolist():
        assert f"beta0 = {b0!r} in [" in str(exc.value)


def test_trace_locus_window_pass_counts_as_a_pass(monkeypatch):
    entry, rect = REFINE_LOCI[1].values
    monkeypatch.setattr(mathieu, "LOCUS_MAX_ITER", 1)
    assert len(trace_locus(rect, entry, REFINE_CFG)) == 8
    monkeypatch.setattr(mathieu, "LOCUS_MAX_ITER", 0)
    with pytest.raises(ConvergenceError, match=r"8 bracket\(s\) .* after 0 passes"):
        trace_locus(rect, entry, REFINE_CFG)


@pytest.mark.parametrize("which", ["first pass", "Illinois pass", "final batch"])
def test_trace_locus_gates_every_node(monkeypatch, which):
    # a NaN node fails the determinant gate instead of steering a bracket:
    # the window pass of a bench-shaped locus, or the Illinois pass after
    # it and the final batch of a locus whose windows from 6-point fits miss
    entry, rect = REFINE_LOCI[0].values
    if which != "first pass":
        rect = ScanRect(rect.beta0_lo, rect.beta0_hi, rect.beta1_lo, rect.beta1_hi, n0=8, n1=6)
    calls = _count_batches(monkeypatch)
    trace_locus(rect, entry, REFINE_CFG)
    nan_at = {"first pass": 1, "Illinois pass": 2, "final batch": len(calls) - 1}[which]
    _count_batches(monkeypatch, nan_at=nan_at)
    with pytest.raises(IntegrationError, match=r"locus node \(0\.9, .*determinant drift nan"):
        trace_locus(rect, entry, REFINE_CFG)


@pytest.fixture(scope="module")
def double_zero():
    return find_double_zero((1.217, 0.844))


def test_find_double_zero_from_documented_seed(double_zero):
    res = double_zero
    assert abs(res.u.u12) <= 1e-6
    assert abs(res.u.u21) <= 1e-6
    dist = math.hypot(res.beta0 - 1.217, res.beta1 - 0.844)
    assert dist <= 0.02
    # off-diagonals gone, so the diagonal is a reciprocal pair
    assert res.u.u11 * res.u.u22 == pytest.approx(1.0, abs=1e-6)


def test_find_double_zero_location_regression(double_zero):
    assert double_zero.beta0 == pytest.approx(1.2294897861, abs=1e-6)
    assert double_zero.beta1 == pytest.approx(0.8357090045, abs=1e-6)


# 30 digits from tests/make_locus_references.py, Newton from (1.217, 0.844)
DOUBLE_ZERO_REFERENCE = (1.2294897861163364907, 0.83570900453084672365)


def test_find_double_zero_matches_mpmath_reference(double_zero):
    # at the default 20000 steps RK4 puts it 1.6e-14 and 2.1e-14 off
    assert abs(double_zero.beta0 - DOUBLE_ZERO_REFERENCE[0]) <= 1e-13
    assert abs(double_zero.beta1 - DOUBLE_ZERO_REFERENCE[1]) <= 1e-13


DZ_SEED = (1.2, 0.85)  # in the refine benchmark's box of Newton starts


def test_find_double_zero_runs_each_point_with_its_stencil(monkeypatch):
    # the seed, then each Newton trial, full or halved, in one batch with
    # its four difference nodes: from (1.1, 0.65) the first full step is
    # rejected and its half taken, six calls for five residual checks, all
    # on one plan (V and W of the default interval together, 500 steps)
    plans = []
    real = evolution._rk4_plan
    monkeypatch.setattr(evolution, "_rk4_plan", lambda *args: plans.append(args) or real(*args))
    for seed, iterations, calls_made in [(DZ_SEED, 4, 4), ((1.1, 0.65), 5, 6)]:
        plans.clear()
        calls = _count_runs(monkeypatch)
        res = find_double_zero(seed, REFINE_CFG)
        assert res.iterations == iterations
        assert calls == [5] * calls_made
        assert [(steps, width) for _, _, steps, width in plans] == [(500, 5)]
        # the same double zero; at 2000 steps RK4 puts it within 1.3e-11
        assert abs(res.beta0 - DOUBLE_ZERO_REFERENCE[0]) <= 3e-11
        assert abs(res.beta1 - DOUBLE_ZERO_REFERENCE[1]) <= 3e-11


def test_find_double_zero_that_stops_short_is_a_convergence_error(monkeypatch, capsys):
    monkeypatch.setattr(mathieu, "DZ_MAX_ITER", 2)
    message = r"did not reach \|u12\|,\|u21\| <= 1e-06 in 2 iterations; residual 3\.449e-03"
    with pytest.raises(ConvergenceError, match=message):
        find_double_zero((1.1, 0.65), REFINE_CFG)
    assert main(["scan", "--double-zero", "--seed", "1.1,0.65", "--steps", "2000"]) == 3
    assert re.search(f"numerical failure: {message}", capsys.readouterr().err)


def _constant_entries(beta0, beta1, tau0, tau1, steps):
    # a zone III matrix of unit determinant that no parameter moves
    return tuple(np.full(np.shape(beta0), v) for v in (3.0, 1.0, 1.0, 2.0 / 3.0))


def _stuck_centre(beta0, beta1, tau0, tau1, steps):
    # the difference nodes give the identity Jacobian, but every call's
    # centre node reads u12 = u21 = 0.1, so no Newton trial lowers the residual
    u12, u21 = 0.1 + (beta0 - beta0[0]), 0.1 + (beta1 - beta1[0])
    return np.full_like(beta0, 2.0), u12, u21, (1.0 + u12 * u21) / 2.0


@pytest.mark.parametrize("batch,message", [
    (_constant_entries, r"singular Jacobian at \(1\.2, 0\.85\)"),
    (_stuck_centre, r"no residual decrease at \(1\.2, 0\.85\); last residual 1\.000e-01"),
], ids=["singular-jacobian", "no-decrease"])
def test_find_double_zero_newton_failures_are_convergence_errors(monkeypatch, capsys,
                                                                 batch, message):
    monkeypatch.setattr(evolution, "_MathieuRun", lambda nodes, tau0, tau1, steps: (
        lambda beta0, beta1: batch(beta0, beta1, tau0, tau1, steps)))
    with pytest.raises(ConvergenceError, match=f"^{message}$"):
        find_double_zero((1.2, 0.85), REFINE_CFG)
    assert main(["scan", "--double-zero", "--seed", "1.2,0.85", "--steps", "2000"]) == 3
    assert re.fullmatch(f"numerical failure: {message}\n", capsys.readouterr().err)


@pytest.mark.parametrize("seed,nan_at", [
    # the seed's stencil, which the first Jacobian uses
    pytest.param(DZ_SEED, 0, id="seed"),
    # the last trial's, unused: that trial's residual met DZ_TARGET
    pytest.param(DZ_SEED, -1, id="last-trial"),
    # the stencil of a halved trial, the third call
    pytest.param((1.1, 0.65), 2, id="halved-trial"),
])
def test_find_double_zero_gates_every_node_it_evaluates(monkeypatch, capsys, seed, nan_at):
    # a NaN node fails the determinant gate in the call that evaluates it,
    # whether or not a Jacobian ever uses it
    argv = ["scan", "--double-zero", "--seed", "%r,%r" % seed, "--steps", "2000"]
    nodes = []
    real = evolution._MathieuRun

    def recorded(*args):
        run = real(*args)
        return lambda *b: nodes.append(b) or run(*b)

    monkeypatch.setattr(evolution, "_MathieuRun", recorded)
    find_double_zero(seed, REFINE_CFG)
    b0, b1 = nodes[nan_at]
    message = f"double-zero node ({b0[1]}, {b1[1]}): determinant drift nan"
    if nan_at == 0:
        assert message == f"double-zero node ({1.2 + 1e-6}, 0.85): determinant drift nan"
    nan_at %= len(nodes)
    _count_runs(monkeypatch, nan_at, node=1)
    with pytest.raises(IntegrationError, match=re.escape(message)):
        find_double_zero(seed, REFINE_CFG)
    _count_runs(monkeypatch, nan_at, node=1)
    assert main(argv) == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [(math.nan, 0.85), (1.2, math.inf), (-math.inf, 0.85)])
def test_find_double_zero_rejects_non_finite_seed(monkeypatch, seed):
    # rejected before any integration
    monkeypatch.setattr(evolution, "mathieu_batch", None)
    monkeypatch.setattr(evolution, "_MathieuRun", None)
    with pytest.raises(ValueError, match="double-zero seed must be finite"):
        find_double_zero(seed, FAST)


def test_find_double_zero_rejects_a_reversed_interval(monkeypatch):
    monkeypatch.setattr(evolution, "mathieu_batch", None)
    monkeypatch.setattr(evolution, "_MathieuRun", None)
    with pytest.raises(ValueError, match="^tau interval must be increasing$"):
        find_double_zero((1.217, 0.844), FAST, tau0=1.0, tau1=0.5)


@pytest.mark.parametrize("tau0, tau1, message", [
    (0.0, math.inf, "^tau1 is not finite: inf$"),
    (math.nan, PI, "^tau0 is not finite: nan$"),
    (0.0, math.nan, "^tau1 is not finite: nan$"),
])
def test_find_double_zero_rejects_an_end_that_is_not_finite(monkeypatch, tau0, tau1, message):
    # before any integration; an infinite end used to fail the determinant
    # gate with IntegrationError, and a NaN one read as a reversed interval
    monkeypatch.setattr(evolution, "mathieu_batch", None)
    monkeypatch.setattr(evolution, "_MathieuRun", None)
    with pytest.raises(ValueError, match=message):
        find_double_zero((1.217, 0.844), FAST, tau0=tau0, tau1=tau1)


@pytest.mark.parametrize("tau", [0.0, PI / 2])
def test_find_double_zero_rejects_an_empty_interval(monkeypatch, tau):
    # ScanRect's condition and message: an empty interval would integrate
    # nothing and read the identity as zone II
    monkeypatch.setattr(evolution, "mathieu_batch", None)
    monkeypatch.setattr(evolution, "_MathieuRun", None)
    with pytest.raises(ValueError, match="^tau interval must be increasing$"):
        find_double_zero((1.217, 0.844), FAST, tau0=tau, tau1=tau)
    with pytest.raises(ValueError, match="^tau interval must be increasing$"):
        ScanRect(0.9, 1.9, 0.5, 1.6, tau0=tau, tau1=tau)


def test_find_double_zero_rejects_stable_seed():
    with pytest.raises(ConvergenceError):
        find_double_zero((0.9, 0.5), FAST)


# seeds from which Newton converges to a trivial double zero, where beta1 is
# about 0 and the one-period map is +-identity (trace +-2, zone II): beta0
# = 1 from (1.0, 0.05), beta0 = 1/4 from (0.27, 0.05), and beta0 = 1 from
# the bench seed (1.2, 0.85) on [0, 2pi] after 20 iterations
@pytest.mark.parametrize("seed, interval, beta0", [
    pytest.param((1.0, 0.05), [], 1.0, id="identity"),
    pytest.param((0.27, 0.05), [], 0.25, id="minus-identity"),
    pytest.param((1.2, 0.85), ["--from", "0", "--to", "2pi"], 1.0, id="from-0"),
])
def test_find_double_zero_refuses_an_end_point_outside_zone_iii(capsys, seed, interval,
                                                                 beta0):
    tau = (0.0, 2.0 * PI) if interval else ()
    with pytest.raises(ConvergenceError) as exc:
        find_double_zero(seed, REFINE_CFG, *tau)
    message = str(exc.value)
    end = re.fullmatch(r"end point \((\S+), (\S+)\) is in zone II; double zeros live in "
                       r"zone III \(\|trace\| > 2\)", message)
    assert end
    b0, b1 = map(float, end.groups())
    assert abs(b0 - beta0) < 1e-11 and abs(b1) < 1e-5
    argv = ["scan", "--double-zero", "--seed", "%r,%r" % seed, *interval, "--steps", "2000"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"numerical failure: {message}\n")


def test_max_steps_enforced_by_scan_locus_and_double_zero(monkeypatch):
    monkeypatch.setattr(IntegratorConfig, "max_steps", 2000)
    cfg = IntegratorConfig(steps=3000)
    rect = ScanRect(1.0, 1.1, 1.1, 1.35, n0=2, n1=3)
    with pytest.raises(IntegrationError, match="max_steps"):
        scan_grid(rect, cfg)
    with pytest.raises(IntegrationError, match="max_steps"):
        trace_locus(rect, "u12", cfg)
    with pytest.raises(IntegrationError, match="max_steps"):
        find_double_zero((1.217, 0.844), cfg)
