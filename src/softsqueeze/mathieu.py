"""Parameter-plane scanning for the driven stiffness beta0 + 2 beta1 cos(tau).

The scan evaluates the evolution matrix over a fixed tau interval at every
node of a (beta0, beta1) grid, classifies each node by its trace, traces the
curves where u12 or u21 vanishes, and refines their intersection: the double
zero where the matrix becomes diag(lambda, 1/lambda), a pure q-p squeeze.

A whole scan and each locus pass are one evolution.mathieu_batch call (a
locus starts from the scan's own interpolant, so a finely gridded one is
its scan and one pass of three nodes per crossing); a double zero builds
one five-node evolution._MathieuRun, which mathieu_batch runs its chunks
on and which holds a single run's plan, and evaluates each point, halved
or not, as one gated call of it.  Every node of a locus pass, a locus final batch or a double zero
is gated in that call.  mathieu_batch chunks its own batch to bound
memory, and a node's result does not depend on the batch it runs in, so
output is bit-identical run to run regardless of how the work is chunked
or scheduled.  Zones follow evolution.zone_codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SymplecticMatrix2, _csv_rows
from . import evolution
from .evolution import DEFAULT_CONFIG, ZONES, IntegratorConfig

HALF_PI = math.pi / 2.0
DEFAULT_INTERVAL = (HALF_PI, 5.0 * HALF_PI)  # [pi/2, 5pi/2]

LOCUS_MAX_ITER = 60  # trace_locus: most passes, the first included, before ConvergenceError
LOCUS_XTOL = 1e-12   # trace_locus: bracket width that ends them
LOCUS_STENCIL = 12   # trace_locus: most scan values of a line that fit a bracket's start
LOCUS_MIN_STENCIL = 6  # trace_locus: fewest; brackets of shorter lines get no start
DZ_FD_STEP = 1e-6    # find_double_zero: central-difference step
DZ_MAX_ITER = 40     # find_double_zero: most Newton iterations
DZ_TARGET = 1e-10    # find_double_zero: max(|u12|, |u21|) that ends them
DZ_ACCEPT = 1e-6     # find_double_zero: max(|u12|, |u21|) it may end on when they run out


class ConvergenceError(RuntimeError):
    """Root refinement failed to converge."""


@dataclass(frozen=True)
class ScanRect:
    """Rectangle and resolution of a (beta0, beta1) scan."""

    beta0_lo: float
    beta0_hi: float
    beta1_lo: float
    beta1_hi: float
    n0: int = 200
    n1: int = 200
    tau0: float = DEFAULT_INTERVAL[0]
    tau1: float = DEFAULT_INTERVAL[1]

    def __post_init__(self):
        bounds = (self.beta0_lo, self.beta0_hi, self.beta1_lo, self.beta1_hi)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"rectangle bounds must be finite, got {bounds}")
        if not (self.beta0_hi > self.beta0_lo and self.beta1_hi > self.beta1_lo):
            raise ValueError("rectangle ranges must be increasing")
        if self.n0 < 2 or self.n1 < 2:
            raise ValueError("grid counts must be at least 2")
        if self.n0 * self.n1 * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"grid counts {self.n0} x {self.n1} exceed the address space")
        if not self.tau1 > self.tau0:
            raise ValueError("tau interval must be increasing")

    def beta0_axis(self) -> np.ndarray:
        return np.linspace(self.beta0_lo, self.beta0_hi, self.n0)

    def beta1_axis(self) -> np.ndarray:
        return np.linspace(self.beta1_lo, self.beta1_hi, self.n1)


# (beta0_lo, beta0_hi, beta1_lo, beta1_hi) of the second squeezing tongue's
# bounding box: default_rect's and the scan command's default --rect
TONGUE_BOX = (0.9, 1.9, 0.5, 1.6)


def default_rect(n0: int = 200, n1: int = 200) -> ScanRect:
    """Bounding box of the second squeezing tongue used throughout,
    TONGUE_BOX: beta0 in [0.9, 1.9], beta1 in [0.5, 1.6]."""
    return ScanRect(*TONGUE_BOX, n0=n0, n1=n1)


@dataclass(frozen=True)
class LocusPoint:
    beta0: float
    beta1: float
    entry: str       # "u12" | "u21"
    residual: float  # entry value at the refined point
    lam: float       # surviving diagonal u11


@dataclass
class ScanResult:
    rect: ScanRect
    beta0s: np.ndarray
    beta1s: np.ndarray
    u11: np.ndarray
    u12: np.ndarray
    u21: np.ndarray
    u22: np.ndarray
    gamma: np.ndarray
    zone: np.ndarray   # int8 codes, see evolution.ZONES
    failed: np.ndarray


def scan_grid(rect: ScanRect, cfg: IntegratorConfig = DEFAULT_CONFIG) -> ScanResult:
    """Evolution matrix and zone at every grid node.

    Nodes that fail the determinant gate (evolution._gate), NaN included,
    are marked failed (zone code 0) instead of aborting the scan: exactly
    the nodes a single integration would reject.  Raises IntegrationError
    before any work if cfg.steps exceeds cfg.max_steps.
    """
    cfg.check_steps(cfg.steps)
    b0_axis = rect.beta0_axis()
    b1_axis = rect.beta1_axis()
    bb0, bb1 = np.meshgrid(b0_axis, b1_axis, indexing="ij")
    u11, u12, u21, u22 = evolution.mathieu_batch(bb0, bb1, rect.tau0, rect.tau1, cfg.steps)
    failed = ~evolution._gate((u11, u12, u21, u22), cfg)[0]
    gamma = u11 + u22
    zone = evolution.zone_codes(gamma)
    zone[failed] = 0
    return ScanResult(
        rect=rect, beta0s=b0_axis, beta1s=b1_axis,
        u11=u11, u12=u12, u21=u21, u22=u22,
        gamma=gamma, zone=zone, failed=failed,
    )


_ENTRY_INDEX = {"u12": 1, "u21": 2}


def trace_locus(rect: ScanRect, entry: str,
                cfg: IntegratorConfig = DEFAULT_CONFIG) -> list:
    """Points where the chosen entry vanishes, refined in beta1.

    Sign changes between unfailed neighbours along each constant-beta0 grid
    line are refined in lockstep passes, each one mathieu_batch call of
    gated nodes.  The first pass evaluates x0 - d, x0 and x0 + d, with d
    just under LOCUS_XTOL / 2 and x0 the root of the scan's own
    interpolant (_stencil_roots): a root in that window closes the bracket
    with x0 as its midpoint, and x0's node gives the point's residual and
    lambda; a root outside it leaves the bracket beyond x0 - d or x0 + d.
    A bracket without a start at least d inside its cell, and every
    bracket still wider than LOCUS_XTOL after the first pass, takes one
    Illinois regula-falsi point per pass (Dowell & Jarratt, BIT 11 (1971)
    168), kept at least 0.4 LOCUS_XTOL inside the bracket so that a secant
    on the root also closes the far side; when the same end moves twice in
    a row the value kept at the other end is halved.  A final batch
    evaluates the midpoints that no window gave.

    Each point is the midpoint of its final bracket, at most LOCUS_XTOL
    wide; results are ordered by beta0 (then beta1).  An empty list simply
    means the locus does not cross the rectangle.  Raises ConvergenceError
    if a bracket is still open after LOCUS_MAX_ITER passes, and
    IntegrationError if a node of a pass or of the final batch fails the
    determinant gate.
    """
    if entry not in _ENTRY_INDEX:
        raise ValueError(f"entry must be 'u12' or 'u21', got {entry!r}")
    col = _ENTRY_INDEX[entry]
    scan = scan_grid(rect, cfg)
    vals = (scan.u12, scan.u21)[col - 1]

    # brackets [beta1_j, beta1_j+1] in row-major order; one that starts on
    # an exact zero collapses to that point
    fa, fb = vals[:, :-1], vals[:, 1:]
    ok = ~(scan.failed[:, :-1] | scan.failed[:, 1:])
    exact = ok & (fa == 0.0)
    change = ((fa < 0.0) & (fb > 0.0)) | ((fa > 0.0) & (fb < 0.0))
    i, j = np.nonzero(exact | (ok & change))
    if i.size == 0:
        return []

    b0 = scan.beta0s[i]
    lo = scan.beta1s[j]
    hi = np.where(exact[i, j], lo, scan.beta1s[j + 1])
    flo, fhi = fa[i, j], fb[i, j]
    moved = np.zeros(i.size, dtype=np.int8)  # end that moved last: -1 lo, 1 hi
    pad, d = 0.4 * LOCUS_XTOL, 0.49 * LOCUS_XTOL  # 2 d, rounded, < LOCUS_XTOL if |beta1| < 256
    start = _stencil_roots(scan.beta1s, vals, scan.failed, i, j)
    window = (start - d > lo) & (start + d < hi)  # False where start is NaN
    done = np.zeros(i.size, dtype=bool)  # point evaluated by its window
    resid, lam = np.empty(i.size), np.empty(i.size)

    def batch(beta0, beta1):
        return evolution.mathieu_batch(beta0, beta1, rect.tau0, rect.tau1, cfg.steps)

    def update(k, x, fx):
        zero = fx == 0.0
        lo_moves = ~zero & ((fx < 0.0) == (flo[k] < 0.0))
        hi_moves = ~zero & ~lo_moves
        # Illinois: an end that moves twice in a row halves the other's value
        fhi[k[lo_moves & (moved[k] == -1)]] *= 0.5
        flo[k[hi_moves & (moved[k] == 1)]] *= 0.5
        lo[k[~hi_moves]] = x[~hi_moves]  # an exact zero closes both ends
        hi[k[~lo_moves]] = x[~lo_moves]
        flo[k[lo_moves]] = fx[lo_moves]
        fhi[k[hi_moves]] = fx[hi_moves]
        moved[k] = np.where(lo_moves, -1, 1)

    for _ in range(LOCUS_MAX_ITER):
        k = np.flatnonzero(hi - lo > LOCUS_XTOL)
        if k.size == 0:
            break
        w, k = k[window[k]], k[~window[k]]
        window[:] = False  # only the first pass has windows
        with np.errstate(all="ignore"):
            x = hi[k] - fhi[k] * (hi[k] - lo[k]) / (fhi[k] - flo[k])
        x = np.where(np.isfinite(x), np.clip(x, lo[k] + pad, hi[k] - pad),
                     0.5 * (lo[k] + hi[k]))
        # a window's nodes: its ends and their midpoint, as mid takes it
        xl, xh = start[w] - d, start[w] + d
        xw = np.stack([xl, 0.5 * (xl + xh), xh], axis=1)
        cols = _gated(batch, np.concatenate([b0[k], np.repeat(b0[w], 3)]),
                      np.concatenate([x, xw.ravel()]), cfg, "locus")
        update(k, x, cols[col][:k.size])
        fl, fm, fh = cols[col][k.size:].reshape(-1, 3).T
        update(w, xl, fl)
        right = hi[w] > xl  # lo moved to xl, so xh splits [xl, hi]
        update(w[right], xh[right], fh[right])
        hit = (lo[w] == xl) & (hi[w] == xh) & ~(xh - xl > LOCUS_XTOL)
        done[w[hit]] = True
        resid[w[hit]], lam[w[hit]] = fm[hit], cols[0][k.size + 1::3][hit]
    k = np.flatnonzero(hi - lo > LOCUS_XTOL)
    if k.size:
        lines = ", ".join(f"beta0 = {a!r} in [{b!r}, {c!r}]" for a, b, c in
                          zip(b0[k].tolist(), lo[k].tolist(), hi[k].tolist()))
        raise ConvergenceError(
            f"{entry} locus: {k.size} bracket(s) still wider than {LOCUS_XTOL:g} "
            f"after {LOCUS_MAX_ITER} passes: {lines}"
        )
    mid = 0.5 * (lo + hi)
    k = np.flatnonzero(~done)
    if k.size:
        final = _gated(batch, b0[k], mid[k], cfg, "locus")
        resid[k], lam[k] = final[col], final[0]
    points = [
        LocusPoint(float(x0), float(x1), entry, float(r), float(u11))
        for x0, x1, r, u11 in zip(b0, mid, resid, lam)
    ]
    points.sort(key=lambda p: (p.beta0, p.beta1))
    return points


def _stencil_roots(x, vals, failed, i, j):
    """Start of each bracket [x_j, x_j+1] on grid line i: the root of the
    polynomial through the LOCUS_STENCIL values of the line nearest the
    cell, or through all of a shorter line's, or NaN where the line has
    fewer than LOCUS_MIN_STENCIL values or a stencil node failed the gate;
    a Newton run that fails gives NaN or a root outside the cell too.

    The roots come from Newton steps on the barycentric form (Berrut &
    Trefethen, SIAM Rev. 46 (2004) 501), started at the cell's secant
    point and run for all brackets at once; grid lines are equispaced, so
    the weights are signed binomial coefficients.
    """
    m = min(LOCUS_STENCIL, x.size)
    if m < LOCUS_MIN_STENCIL:
        return np.full(i.size, np.nan)
    idx = np.clip(j - (m - 2) // 2, 0, x.size - m)[:, None] + np.arange(m)
    xs, fs = x[idx], vals[i[:, None], idx]
    w = np.array([(-1.0) ** n * math.comb(m - 1, n) for n in range(m)])
    with np.errstate(all="ignore"):  # a failed node or a step onto a node gives NaN
        r = x[j + 1] - vals[i, j + 1] * (x[j + 1] - x[j]) / (vals[i, j + 1] - vals[i, j])
        for _ in range(5):  # Newton doubles the secant's 2 to 4 digits each step
            dx = r[:, None] - xs
            c = w / dx
            den = np.sum(c, axis=1)
            p = np.sum(c * fs, axis=1) / den
            r = r - p * den / np.sum(c * (p[:, None] - fs) / dx, axis=1)
    return np.where(failed[i[:, None], idx].any(axis=1), np.nan, r)


def _gated(run, beta0, beta1, cfg: IntegratorConfig, what: str):
    """run(beta0, beta1), the (u11, u12, u21, u22) at the nodes, gated by
    evolution._check_batch."""
    cols = run(beta0, beta1)
    return evolution._check_batch(cols, cfg, lambda n: f"{what} node ({beta0[n]}, {beta1[n]})")


@dataclass(frozen=True)
class DoubleZeroResult:
    beta0: float
    beta1: float
    u: SymplecticMatrix2
    iterations: int


def find_double_zero(
    seed,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    tau0: float = DEFAULT_INTERVAL[0],
    tau1: float = DEFAULT_INTERVAL[1],
) -> DoubleZeroResult:
    """Damped Newton root of (u12, u21) = (0, 0) from a zone III seed.

    The Jacobian is central finite differences with step DZ_FD_STEP in the
    two parameters; steps that do not decrease the residual are halved (up
    to 8 times) before being taken.  Stops once max(|u12|, |u21|) <=
    DZ_TARGET, after at most DZ_MAX_ITER iterations, each a residual check;
    the seed's is the first; one still above DZ_ACCEPT then raises
    ConvergenceError.  Converges to machine-level zeros in a handful of
    iterations for seeds inside the tongue.

    After its input checks and cfg.check_steps it builds one
    evolution._MathieuRun of five nodes.  Each point, the seed and every
    trial, halved or not, is one gated call of it with its four difference
    nodes, whose Jacobian the next step uses if the trial is taken: a
    double zero whose steps are all full takes one call per iteration.  Any
    of the five nodes that fails the determinant gate raises
    IntegrationError.  An interval with an end that is not finite, or with
    tau1 <= tau0, raises ValueError before any integration, the latter as
    ScanRect does.
    """
    evolution._require_finite(tau0=tau0, tau1=tau1)
    if not tau1 > tau0:
        raise ValueError("tau interval must be increasing")
    b0, b1 = float(seed[0]), float(seed[1])
    if not (math.isfinite(b0) and math.isfinite(b1)):
        raise ValueError(f"double-zero seed must be finite, got ({b0}, {b1})")
    cfg.check_steps(cfg.steps)
    h = DZ_FD_STEP
    d0, d1 = np.array([0.0, h, -h, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, h, -h])
    run = evolution._MathieuRun(d0.size, tau0, tau1, cfg.steps)

    def evaluate(x0, x1):
        cols = _gated(run, x0 + d0, x1 + d1, cfg, "double-zero")
        f = np.array(cols[1:3])  # u12 and u21 at the five nodes
        u = SymplecticMatrix2(*(float(c[0]) for c in cols))
        return u, (f[:, 1::2] - f[:, 2::2]) / (2.0 * h)

    u, jac = evaluate(b0, b1)
    zone = ZONES[evolution.zone_codes(u.trace)]
    if zone != "III":
        raise ConvergenceError(
            f"seed ({b0}, {b1}) is in zone {zone}; double zeros live in "
            "zone III (|trace| > 2)"
        )

    def resid(u):
        return max(abs(u.u12), abs(u.u21))

    for it in range(1, DZ_MAX_ITER + 1):
        if resid(u) <= DZ_TARGET:
            break
        try:
            step = np.linalg.solve(jac, [-u.u12, -u.u21])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian at ({b0}, {b1})") from exc
        for k in range(9):
            x0, x1 = b0 + 0.5**k * step[0], b1 + 0.5**k * step[1]
            cand, cand_jac = evaluate(x0, x1)
            if resid(cand) < resid(u):
                break
        else:
            raise ConvergenceError(
                f"no residual decrease at ({b0}, {b1}); last residual "
                f"{resid(u):.3e}"
            )
        b0, b1, u, jac = x0, x1, cand, cand_jac
    if resid(u) > DZ_ACCEPT:
        raise ConvergenceError(
            f"did not reach |u12|,|u21| <= {DZ_ACCEPT:g} in {DZ_MAX_ITER} iterations; "
            f"residual {resid(u):.3e} at ({b0}, {b1})"
        )
    return DoubleZeroResult(beta0=b0, beta1=b1, u=u, iterations=it)


# ---------------------------------------------------------------------------
# CSV emission


def write_scan_csv(result: ScanResult, fileobj):
    """Row-major rows, beta0 outer and beta1 inner, one beta0 line per write."""
    fileobj.write("beta0,beta1,u11,u12,u21,u22,Gamma,zone\n")
    for i, b0 in enumerate(result.beta0s):
        fileobj.write(_csv_rows(
            np.full(result.beta1s.size, b0), result.beta1s, result.u11[i], result.u12[i],
            result.u21[i], result.u22[i], result.gamma[i], np.take(ZONES, result.zone[i])))


def write_locus_csv(points, fileobj):
    fileobj.write("beta0,beta1,entry,lambda\n" + _csv_rows(
        [p.beta0 for p in points], [p.beta1 for p in points],
        [p.entry for p in points], [p.lam for p in points]))
