"""Parameter-plane scanning for the driven stiffness beta0 + 2 beta1 cos(tau).

The scan evaluates the evolution matrix over a fixed tau interval at every
node of a (beta0, beta1) grid, classifies each node by its trace, traces the
curves where u12 or u21 vanishes, and refines their intersection: the double
zero where the matrix becomes diag(lambda, 1/lambda), a pure q-p squeeze.

All node integrations go through evolution.mathieu_batch: a whole scan
and each locus pass are one call, and a double zero evaluates its seed
and each full Newton step together with that point's four-node
difference stencil, one call each, so n full steps take n + 1 calls.
mathieu_batch chunks its own batch to bound memory, and its result for a
node does not depend on the batch it runs in, so output is bit-identical
run to run regardless of how the work is chunked or scheduled.  Zones
follow evolution.zone_codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SymplecticMatrix2, _det_gate
from . import evolution
from .evolution import DEFAULT_CONFIG, ZONES, IntegratorConfig

HALF_PI = math.pi / 2.0
DEFAULT_INTERVAL = (HALF_PI, 5.0 * HALF_PI)  # [pi/2, 5pi/2]

LOCUS_MAX_ITER = 60  # trace_locus: most Illinois passes before ConvergenceError
LOCUS_XTOL = 1e-12   # trace_locus: bracket width that ends them
DZ_FD_STEP = 1e-6    # find_double_zero: central-difference step
DZ_MAX_ITER = 40     # find_double_zero: most Newton iterations
DZ_TARGET = 1e-10    # find_double_zero: max(|u12|, |u21|) that ends them


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
        if not self.tau1 > self.tau0:
            raise ValueError("tau interval must be increasing")

    def beta0_axis(self) -> np.ndarray:
        return np.linspace(self.beta0_lo, self.beta0_hi, self.n0)

    def beta1_axis(self) -> np.ndarray:
        return np.linspace(self.beta1_lo, self.beta1_hi, self.n1)


def default_rect(n0: int = 200, n1: int = 200) -> ScanRect:
    """Bounding box of the second squeezing tongue used throughout:
    beta0 in [0.9, 1.9], beta1 in [0.5, 1.6]."""
    return ScanRect(0.9, 1.9, 0.5, 1.6, n0=n0, n1=n1)


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

    def matrix_at(self, i: int, j: int) -> SymplecticMatrix2:
        return SymplecticMatrix2(
            float(self.u11[i, j]), float(self.u12[i, j]),
            float(self.u21[i, j]), float(self.u22[i, j]),
        )

    def iter_rows(self):
        """Row-major (beta0 outer, beta1 inner) scan rows for emission."""
        for i, b0 in enumerate(self.beta0s):
            for j, b1 in enumerate(self.beta1s):
                yield (
                    float(b0), float(b1),
                    float(self.u11[i, j]), float(self.u12[i, j]),
                    float(self.u21[i, j]), float(self.u22[i, j]),
                    float(self.gamma[i, j]), ZONES[self.zone[i, j]],
                )


def scan_grid(rect: ScanRect, cfg: IntegratorConfig = DEFAULT_CONFIG) -> ScanResult:
    """Evolution matrix and zone at every grid node.

    Nodes that fail _det_gate at cfg.det_tol, NaN included, are marked
    failed (zone code 0) instead of aborting the scan: exactly the nodes a
    single integration would reject.  Raises IntegrationError before any
    work if cfg.steps exceeds cfg.max_steps.
    """
    cfg.check_steps(cfg.steps)
    b0_axis = rect.beta0_axis()
    b1_axis = rect.beta1_axis()
    bb0, bb1 = np.meshgrid(b0_axis, b1_axis, indexing="ij")
    u11, u12, u21, u22 = evolution.mathieu_batch(bb0, bb1, rect.tau0, rect.tau1, cfg.steps)
    # huge finite entries overflow the gate's products; such a node fails
    with np.errstate(over="ignore", invalid="ignore"):
        failed = ~_det_gate(u11, u12, u21, u22, cfg.det_tol)[0]
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
    """Points where the chosen entry vanishes, refined in beta1 by the
    Illinois variant of regula falsi (Dowell & Jarratt, BIT 11 (1971) 168).

    Sign changes between unfailed neighbours along each constant-beta0 grid
    line are refined in lockstep: each pass evaluates one secant point per
    bracket still wider than LOCUS_XTOL, all in one batch, kept at least
    0.4 LOCUS_XTOL inside the bracket so that a secant on the root also
    closes the far side.  When the same end moves twice in a row the value
    kept at the other end is halved.  Each point is the midpoint of its
    final bracket, at most LOCUS_XTOL wide; results are ordered by beta0
    (then beta1).  An empty list simply means the locus does not cross the
    rectangle.  Raises ConvergenceError if a bracket is still open after
    LOCUS_MAX_ITER passes, and IntegrationError if a node fails the
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
    pad = 0.4 * LOCUS_XTOL
    for _ in range(LOCUS_MAX_ITER):
        k = np.flatnonzero(hi - lo > LOCUS_XTOL)
        if k.size == 0:
            break
        with np.errstate(all="ignore"):
            x = hi[k] - fhi[k] * (hi[k] - lo[k]) / (fhi[k] - flo[k])
        x = np.where(np.isfinite(x), np.clip(x, lo[k] + pad, hi[k] - pad),
                     0.5 * (lo[k] + hi[k]))
        fx = _gated_batch(b0[k], x, rect.tau0, rect.tau1, cfg, "locus")[col]
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
    k = np.flatnonzero(hi - lo > LOCUS_XTOL)
    if k.size:
        lines = ", ".join(f"beta0 = {a!r} in [{b!r}, {c!r}]" for a, b, c in
                          zip(b0[k].tolist(), lo[k].tolist(), hi[k].tolist()))
        raise ConvergenceError(
            f"{entry} locus: {k.size} bracket(s) still wider than {LOCUS_XTOL:g} "
            f"after {LOCUS_MAX_ITER} passes: {lines}"
        )
    mid = 0.5 * (lo + hi)
    final = _gated_batch(b0, mid, rect.tau0, rect.tau1, cfg, "locus")
    points = [
        LocusPoint(float(x0), float(x1), entry, float(r), float(lam))
        for x0, x1, r, lam in zip(b0, mid, final[col], final[0])
    ]
    points.sort(key=lambda p: (p.beta0, p.beta1))
    return points


def _gated_batch(beta0, beta1, tau0, tau1, cfg: IntegratorConfig, what: str):
    """mathieu_batch's (u11, u12, u21, u22) at the nodes; the first node
    that fails _det_gate at cfg.det_tol, NaN included, raises
    IntegrationError through evolution._check_det."""
    cols = evolution.mathieu_batch(beta0, beta1, tau0, tau1, cfg.steps)
    with np.errstate(over="ignore", invalid="ignore"):  # as in scan_grid
        ok = _det_gate(*cols, cfg.det_tol)[0]
    if not np.all(ok):
        n = int(np.argmin(ok))
        evolution._check_det([c[n] for c in cols], cfg,
                             f"{what} node ({beta0[n]}, {beta1[n]})")
    return cols


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
    the seed's is the first.  Converges to machine-level zeros in a handful
    of iterations for seeds inside the tongue.

    The seed and each full step's trial run in one mathieu_batch call with
    the four nodes of their own stencil, which the next step uses if the
    trial is taken and the residual is still above DZ_TARGET: a double zero
    whose steps are all full takes one call per iteration.  A halved trial
    runs alone, and its stencil, if taken, in a call of its own.  A node
    raises IntegrationError on determinant drift beyond cfg.det_tol when
    it is used: the seed or a trial at once, a stencil's four nodes in
    order when the Jacobian needs them, never a stencil that goes unused.
    """
    if tau1 < tau0:
        raise ValueError(f"need tau1 >= tau0, got [{tau0}, {tau1}]")
    b0, b1 = float(seed[0]), float(seed[1])
    if not (math.isfinite(b0) and math.isfinite(b1)):
        raise ValueError(f"double-zero seed must be finite, got ({b0}, {b1})")
    cfg.check_steps(cfg.steps)
    h = DZ_FD_STEP

    def stencil(x0, x1):
        return [(x0 + h, x1), (x0 - h, x1), (x0, x1 + h), (x0, x1 - h)]

    def evaluate(nodes):
        x0, x1 = (list(x) for x in zip(*nodes))
        cols = evolution.mathieu_batch(x0, x1, tau0, tau1, cfg.steps)
        return [(a, b, e) for a, b, e in zip(x0, x1, zip(*cols))]

    def gated(node):
        x0, x1, e = node
        return evolution._check_det(e, cfg, f"double-zero node ({x0}, {x1})")

    # a point runs with its stencil, which is gated only once Newton uses it
    node, *around = evaluate([(b0, b1)] + stencil(b0, b1))
    u = gated(node)
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
        up0, um0, up1, um1 = map(gated, around or evaluate(stencil(b0, b1)))
        jac = np.array([
            [(up0.u12 - um0.u12), (up1.u12 - um1.u12)],
            [(up0.u21 - um0.u21), (up1.u21 - um1.u21)],
        ]) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, [-u.u12, -u.u21])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian at ({b0}, {b1})") from exc
        for k in range(9):
            x0, x1 = b0 + 0.5**k * step[0], b1 + 0.5**k * step[1]
            node, *trial_around = evaluate([(x0, x1)] + (stencil(x0, x1) if k == 0 else []))
            cand = gated(node)
            if resid(cand) < resid(u):
                break
        else:
            raise ConvergenceError(
                f"no residual decrease at ({b0}, {b1}); last residual "
                f"{resid(u):.3e}"
            )
        b0, b1, u, around = x0, x1, cand, trial_around
    if resid(u) > 1e-6:
        raise ConvergenceError(
            f"did not reach |u12|,|u21| <= 1e-06 in {DZ_MAX_ITER} iterations; "
            f"residual {resid(u):.3e} at ({b0}, {b1})"
        )
    return DoubleZeroResult(beta0=b0, beta1=b1, u=u, iterations=it)


# ---------------------------------------------------------------------------
# CSV emission


def write_scan_csv(result: ScanResult, fileobj):
    fileobj.write("beta0,beta1,u11,u12,u21,u22,Gamma,zone\n")
    for row in result.iter_rows():
        fileobj.write(
            "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s\n" % row
        )


def write_locus_csv(points, fileobj):
    fileobj.write("beta0,beta1,entry,lambda\n")
    for p in points:
        fileobj.write("%.12g,%.12g,%s,%.12g\n" % (p.beta0, p.beta1, p.entry, p.lam))
