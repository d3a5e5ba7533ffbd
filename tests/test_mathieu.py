"""Parameter-plane scans, locus tracing, double-zero refinement."""

import io
import math
import re

import numpy as np
import pytest

from softsqueeze import evolution, mathieu
from softsqueeze.cli import main
from softsqueeze.evolution import ZONES, IntegrationError, IntegratorConfig, classify, integrate
from softsqueeze.core import MathieuBeta, rotation_matrix
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
            assert res.matrix_at(i, j) == ref


def test_scan_grid_zone_structure():
    # the box straddles the tongue: stable cells and squeezing cells coexist
    res = scan_grid(ScanRect(0.9, 1.9, 0.5, 1.6, n0=15, n1=15), FAST)
    zones = set(np.unique(res.zone).tolist())
    assert 3 in zones          # squeezing region present
    assert 1 in zones          # stable region present
    assert not res.failed.any()
    # the scan's vectorised zones are classify's, node by node
    for i, j in np.ndindex(res.zone.shape):
        assert ZONES[res.zone[i, j]] == classify(res.matrix_at(i, j)).zone


def test_scan_grid_marks_nan_nodes_failed():
    # an infinite interval gives NaN matrices, which a single integration
    # rejects for determinant drift, so the scan marks them failed
    with np.errstate(invalid="ignore"):
        res = scan_grid(ScanRect(0.9, 1.9, 0.5, 1.6, n0=2, n1=2, tau1=math.inf), FAST)
    assert res.failed.all()
    assert (res.zone == 0).all()
    assert {row[-1] for row in res.iter_rows()} == {"failed"}


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
    rows = list(res.iter_rows())
    assert len(rows) == 6
    b0_seq = [r[0] for r in rows]
    assert b0_seq == sorted(b0_seq)
    # inner index (beta1) cycles fastest
    assert [r[1] for r in rows[:3]] == list(res.beta1s)


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


def _count_batches(monkeypatch, nan_at=None, node=0):
    """Count evolution.mathieu_batch calls; call number nan_at (0 is the
    first) returns NaN entries at the given node."""
    calls = []
    real = evolution.mathieu_batch

    def counted(*args, **kwargs):
        cols = real(*args, **kwargs)
        if len(calls) == nan_at:
            for c in cols:
                c[node] = np.nan
        calls.append(np.size(args[0]))
        return cols

    monkeypatch.setattr(evolution, "mathieu_batch", counted)
    return calls


@pytest.mark.parametrize("entry,rect", REFINE_LOCI)
def test_trace_locus_takes_few_batch_passes(monkeypatch, entry, rect):
    # Illinois steps close every bracket in a handful of passes, where
    # bisection from a 1/19 grid cell to LOCUS_XTOL takes 36
    calls = _count_batches(monkeypatch)
    pts = trace_locus(rect, entry, REFINE_CFG)
    assert len(pts) == 8
    assert calls[0] == 160 and calls[-1] == 8
    assert len(calls) - 1 <= 10  # passes and the final batch, not the scan


@pytest.mark.parametrize("entry,rect", REFINE_LOCI)
def test_trace_locus_agrees_with_bisection(entry, rect):
    pts = trace_locus(rect, entry, REFINE_CFG)
    b0, b1, lam = _bisection_locus(rect, entry, REFINE_CFG)
    assert [p.beta0 for p in pts] == b0.tolist()
    assert np.max(np.abs([p.beta1 for p in pts] - b1)) <= 2e-12
    assert np.max(np.abs([p.lam for p in pts] - lam)) <= 1e-11


def test_trace_locus_raises_when_a_bracket_stays_open(monkeypatch):
    monkeypatch.setattr(mathieu, "LOCUS_MAX_ITER", 1)
    entry, rect = REFINE_LOCI[1].values
    with pytest.raises(ConvergenceError, match=r"8 bracket\(s\) .* after 1 passes") as exc:
        trace_locus(rect, entry, REFINE_CFG)
    for b0 in rect.beta0_axis().tolist():
        assert f"beta0 = {b0!r} in [" in str(exc.value)


@pytest.mark.parametrize("which", ["first pass", "final batch"])
def test_trace_locus_gates_every_node(monkeypatch, which):
    # a NaN node fails the determinant gate instead of steering a bracket
    entry, rect = REFINE_LOCI[0].values
    calls = _count_batches(monkeypatch)
    trace_locus(rect, entry, REFINE_CFG)
    _count_batches(monkeypatch, nan_at=1 if which == "first pass" else len(calls) - 1)
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


DZ_SEED = (1.2, 0.85)  # in the refine benchmark's box of Newton starts


def test_find_double_zero_runs_each_point_with_its_stencil(monkeypatch):
    # the seed, then each full Newton step's trial, in one batch with its
    # four difference nodes: one call per residual check
    calls = _count_batches(monkeypatch)
    res = find_double_zero(DZ_SEED, REFINE_CFG)
    assert res.iterations == 4
    assert calls == [5] * res.iterations


@pytest.mark.parametrize("used", [False, True])
def test_find_double_zero_gates_a_stencil_node_only_when_used(monkeypatch, capsys, used):
    # a NaN stencil node of the last trial, which met DZ_TARGET, changes
    # nothing; the same node of the seed's stencil fails the gate as a
    # node of its own batch did
    argv = ["scan", "--double-zero", "--seed", "1.2,0.85", "--steps", "2000"]
    want = find_double_zero(DZ_SEED, REFINE_CFG)
    assert main(argv) == 0
    want_out = capsys.readouterr().out
    calls = _count_batches(monkeypatch)
    find_double_zero(DZ_SEED, REFINE_CFG)
    nan_at = 0 if used else len(calls) - 1
    if used:
        message = f"double-zero node ({1.2 + 1e-6}, 0.85): determinant drift nan"
        _count_batches(monkeypatch, nan_at, node=1)
        with pytest.raises(IntegrationError, match=re.escape(message)):
            find_double_zero(DZ_SEED, REFINE_CFG)
        _count_batches(monkeypatch, nan_at, node=1)
        assert main(argv) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
    else:
        _count_batches(monkeypatch, nan_at, node=1)
        assert find_double_zero(DZ_SEED, REFINE_CFG) == want
        _count_batches(monkeypatch, nan_at, node=1)
        assert main(argv) == 0
        assert capsys.readouterr().out == want_out


def test_find_double_zero_rejects_stable_seed():
    with pytest.raises(ConvergenceError):
        find_double_zero((0.9, 0.5), FAST)


def test_max_steps_enforced_by_scan_locus_and_double_zero():
    cfg = IntegratorConfig(steps=3000, max_steps=2000)
    rect = ScanRect(1.0, 1.1, 1.1, 1.35, n0=2, n1=3)
    with pytest.raises(IntegrationError, match="max_steps"):
        scan_grid(rect, cfg)
    with pytest.raises(IntegrationError, match="max_steps"):
        trace_locus(rect, "u12", cfg)
    with pytest.raises(IntegrationError, match="max_steps"):
        find_double_zero((1.217, 0.844), cfg)
