"""Parameter-plane scanning for the driven stiffness beta0 + 2 beta1 cos(tau).

The scan evaluates the evolution matrix over a fixed tau interval at every
node of a (beta0, beta1) grid, classifies each node by its trace, traces the
curves where u12 or u21 vanishes, and refines their intersection: the double
zero where the matrix becomes diag(lambda, 1/lambda), a pure q-p squeeze.

All node integrations go through the batched step-map engine in
evolution.mathieu_batch, whose result for a node does not depend on the
batch it runs in, so output is bit-identical run to run regardless of how
the work is chunked or scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MathieuBeta, SymplecticMatrix2
from . import evolution
from .evolution import DEFAULT_CONFIG, IntegratorConfig

HALF_PI = math.pi / 2.0
DEFAULT_INTERVAL = (HALF_PI, 5.0 * HALF_PI)  # [pi/2, 5pi/2]

_CHUNK = 4096  # nodes per mathieu_batch call; bounds memory, not results

ZONE_NAMES = {0: "failed", 1: "I", 2: "II", 3: "III"}


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
    zone: np.ndarray   # int8 codes, see ZONE_NAMES
    failed: np.ndarray

    def matrix_at(self, i: int, j: int) -> SymplecticMatrix2:
        return SymplecticMatrix2(
            float(self.u11[i, j]), float(self.u12[i, j]),
            float(self.u21[i, j]), float(self.u22[i, j]),
        )

    def report_at(self, i: int, j: int) -> evolution.ZoneReport:
        return evolution.classify(self.matrix_at(i, j))

    def iter_rows(self):
        """Row-major (beta0 outer, beta1 inner) scan rows for emission."""
        for i, b0 in enumerate(self.beta0s):
            for j, b1 in enumerate(self.beta1s):
                yield (
                    float(b0), float(b1),
                    float(self.u11[i, j]), float(self.u12[i, j]),
                    float(self.u21[i, j]), float(self.u22[i, j]),
                    float(self.gamma[i, j]), ZONE_NAMES[int(self.zone[i, j])],
                )


def _entries_batch(beta0_flat, beta1_flat, rect_tau0, rect_tau1, steps):
    """Evolution entries for many parameter pairs, in fixed-size chunks."""
    n = beta0_flat.size
    out = [np.empty(n) for _ in range(4)]
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        res = evolution.mathieu_batch(
            beta0_flat[sl], beta1_flat[sl], rect_tau0, rect_tau1, steps=steps
        )
        for o, r in zip(out, res):
            o[sl] = r
    return out


def scan_grid(rect: ScanRect, cfg: IntegratorConfig = DEFAULT_CONFIG,
              threshold_band: float = 1e-9) -> ScanResult:
    """Evolution matrix and zone at every grid node.

    Nodes whose determinant drifts beyond cfg.det_tol are marked failed
    (zone code 0) instead of aborting the scan.  Raises IntegrationError
    before any work if cfg.steps exceeds cfg.max_steps.
    """
    cfg.check_steps(cfg.steps)
    b0_axis = rect.beta0_axis()
    b1_axis = rect.beta1_axis()
    bb0, bb1 = np.meshgrid(b0_axis, b1_axis, indexing="ij")
    u11, u12, u21, u22 = _entries_batch(
        bb0.ravel(), bb1.ravel(), rect.tau0, rect.tau1, cfg.steps
    )
    shape = bb0.shape
    u11 = u11.reshape(shape)
    u12 = u12.reshape(shape)
    u21 = u21.reshape(shape)
    u22 = u22.reshape(shape)
    det = u11 * u22 - u12 * u21
    failed = np.abs(det - 1.0) > cfg.det_tol
    gamma = u11 + u22
    zone = np.where(
        np.abs(np.abs(gamma) - 2.0) <= threshold_band,
        2,
        np.where(np.abs(gamma) < 2.0, 1, 3),
    ).astype(np.int8)
    zone[failed] = 0
    return ScanResult(
        rect=rect, beta0s=b0_axis, beta1s=b1_axis,
        u11=u11, u12=u12, u21=u21, u22=u22,
        gamma=gamma, zone=zone, failed=failed,
    )


_ENTRY_INDEX = {"u12": 1, "u21": 2}


def trace_locus(rect: ScanRect, entry: str,
                cfg: IntegratorConfig = DEFAULT_CONFIG,
                max_iter: int = 60, xtol: float = 1e-12) -> list:
    """Points where the chosen entry vanishes, refined by bisection in beta1.

    Sign changes are detected along each constant-beta0 grid line and
    refined in lockstep; results are ordered by beta0 (then beta1).  An
    empty list simply means the locus does not cross the rectangle.
    """
    if entry not in _ENTRY_INDEX:
        raise ValueError(f"entry must be 'u12' or 'u21', got {entry!r}")
    col = _ENTRY_INDEX[entry]
    scan = scan_grid(rect, cfg)
    vals = (scan.u12, scan.u21)[col - 1]

    edges_b0 = []
    edges_lo = []
    edges_hi = []
    edges_flo = []
    for i, b0 in enumerate(scan.beta0s):
        row = vals[i]
        for j in range(len(scan.beta1s) - 1):
            if scan.failed[i, j] or scan.failed[i, j + 1]:
                continue
            fa, fb = row[j], row[j + 1]
            if fa == 0.0:
                edges_b0.append(b0)
                edges_lo.append(scan.beta1s[j])
                edges_hi.append(scan.beta1s[j])
                edges_flo.append(fa)
            elif fa * fb < 0.0:
                edges_b0.append(b0)
                edges_lo.append(scan.beta1s[j])
                edges_hi.append(scan.beta1s[j + 1])
                edges_flo.append(fa)
    if not edges_b0:
        return []

    b0 = np.array(edges_b0)
    lo = np.array(edges_lo)
    hi = np.array(edges_hi)
    flo = np.array(edges_flo)
    for _ in range(max_iter):
        width = hi - lo
        if np.all(width <= xtol):
            break
        mid = 0.5 * (lo + hi)
        fm = _entries_batch(b0, mid, rect.tau0, rect.tau1, cfg.steps)[col]
        same = (flo * fm) > 0.0
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    mid = 0.5 * (lo + hi)
    final = _entries_batch(b0, mid, rect.tau0, rect.tau1, cfg.steps)
    residual = final[col]
    lam = final[0]
    points = [
        LocusPoint(float(b0[k]), float(mid[k]), entry,
                   float(residual[k]), float(lam[k]))
        for k in range(len(b0))
    ]
    points.sort(key=lambda p: (p.beta0, p.beta1))
    return points


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
    fd_step: float = 1e-6,
    max_iter: int = 40,
    target: float = 1e-10,
) -> DoubleZeroResult:
    """Damped Newton root of (u12, u21) = (0, 0) from a zone III seed.

    The Jacobian is central finite differences in the two parameters; steps
    that increase the residual are halved (up to 8 times) before being
    taken.  Converges to machine-level zeros in a handful of iterations for
    seeds inside the tongue.
    """
    b0, b1 = float(seed[0]), float(seed[1])

    def entries(x0, x1):
        u = evolution.integrate(MathieuBeta(x0, x1), tau0, tau1, cfg)
        return u

    u = entries(b0, b1)
    rep = evolution.classify(u)
    if rep.zone != "III":
        raise ConvergenceError(
            f"seed ({b0}, {b1}) is in zone {rep.zone}; double zeros live in "
            "zone III (|trace| > 2)"
        )

    def resid(u):
        return max(abs(u.u12), abs(u.u21))

    it = 0
    for it in range(1, max_iter + 1):
        f = np.array([u.u12, u.u21])
        if resid(u) <= target:
            break
        up0 = entries(b0 + fd_step, b1)
        um0 = entries(b0 - fd_step, b1)
        up1 = entries(b0, b1 + fd_step)
        um1 = entries(b0, b1 - fd_step)
        jac = np.array([
            [(up0.u12 - um0.u12), (up1.u12 - um1.u12)],
            [(up0.u21 - um0.u21), (up1.u21 - um1.u21)],
        ]) / (2.0 * fd_step)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian at ({b0}, {b1})") from exc
        scale = 1.0
        best = None
        for _ in range(9):
            cand = entries(b0 + scale * step[0], b1 + scale * step[1])
            if resid(cand) < resid(u):
                best = (b0 + scale * step[0], b1 + scale * step[1], cand)
                break
            scale *= 0.5
        if best is None:
            raise ConvergenceError(
                f"no residual decrease at ({b0}, {b1}); last residual "
                f"{resid(u):.3e}"
            )
        b0, b1, u = best
    if resid(u) > 1e-6:
        raise ConvergenceError(
            f"did not reach |u12|,|u21| <= 1e-06 in {max_iter} iterations; "
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
