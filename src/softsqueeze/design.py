"""Inverse pulse design from a three-frequency ansatz.

The symmetric-interval evolution u(tau, -tau) is fully determined by the
single odd function theta(tau) = u12.  Prescribing

    theta(tau) = a1 sin(tau) + a3 sin(3 tau) + a5 sin(5 tau)

with the three linear conditions

    a1 + 3 a3 + 5 a5 = 2              (theta'(0) = 2, unit determinant at 0)
    a1 - a3 + a5     = b              (theta(pi/2) = b, the target magnitude)
    -a1 + 9 a3 - 25 a5 = -2/b - 2 b beta0   (beta(pi/2) = beta0)

yields a soft stiffness pulse

    beta = -theta''/(2 theta) + ((theta'/2)^2 - 1)/theta^2

on [-pi/2, pi/2] whose evolution matrix is the squeezed Fourier map
[[0, b], [-1/b, 0]].  At zeros of theta the formula is 0/0; provided
theta' = +-2 there (the nonsingularity condition), the limit is
-theta' theta'''/16, which the evaluator switches to below EPS_THETA.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import BetaProfile, CompositeBeta, ConstantBeta, SymplecticMatrix2
from . import evolution
from .evolution import DEFAULT_CONFIG, IntegratorConfig

EPS_THETA = 1e-6          # |theta| below which the analytic limit is used
SLOPE_GUARD = 1e-3        # allowed |theta'| deviation from 2 at a theta zero

HALF_PI = math.pi / 2.0


class SingularityError(ValueError):
    """beta requested at a theta zero that violates the slope condition."""


@dataclass(frozen=True)
class ThetaAnsatz:
    """Coefficients of the three-frequency design function."""

    a1: float
    a3: float
    a5: float
    b: float
    beta0: float

    @classmethod
    def from_targets(cls, b: float, beta0: float) -> "ThetaAnsatz":
        if b == 0.0:
            raise ValueError("target magnitude b must be nonzero")
        mat = np.array([[1.0, 3.0, 5.0], [1.0, -1.0, 1.0], [-1.0, 9.0, -25.0]])
        rhs = np.array([2.0, b, -2.0 / b - 2.0 * b * beta0])
        a1, a3, a5 = np.linalg.solve(mat, rhs)
        return cls(float(a1), float(a3), float(a5), float(b), float(beta0))

    def residuals(self) -> tuple:
        """The three defining conditions, as residuals (all should be ~0)."""
        return (
            self.a1 + 3.0 * self.a3 + 5.0 * self.a5 - 2.0,
            self.a1 - self.a3 + self.a5 - self.b,
            -self.a1 + 9.0 * self.a3 - 25.0 * self.a5 + 2.0 / self.b + 2.0 * self.b * self.beta0,
        )


def _ansatz_derivs(ansatz: ThetaAnsatz, tau) -> tuple:
    """theta and its first three derivatives at tau, sharing one evaluation:
    sin and cos of tau, 3 tau and 5 tau are computed once per sample."""
    a1, a3, a5 = ansatz.a1, ansatz.a3, ansatz.a5
    t = np.asarray(tau, dtype=float)
    t3, t5 = 3.0 * t, 5.0 * t
    s1, s3, s5 = np.sin(t), np.sin(t3), np.sin(t5)
    c1, c3, c5 = np.cos(t), np.cos(t3), np.cos(t5)
    out = (
        a1 * s1 + a3 * s3 + a5 * s5,
        a1 * c1 + 3.0 * a3 * c3 + 5.0 * a5 * c5,
        -(a1 * s1 + 9.0 * a3 * s3 + 25.0 * a5 * s5),
        -(a1 * c1 + 27.0 * a3 * c3 + 125.0 * a5 * c5),
    )
    if np.isscalar(tau) or getattr(tau, "ndim", 1) == 0:
        return tuple(float(x) for x in out)
    return out


def theta_eval(ansatz: ThetaAnsatz, tau, order: int = 0):
    """n-th derivative of theta at tau (n in 0..3); accepts arrays.

    All four derivatives come from one shared evaluation (_ansatz_derivs),
    so each formula is written once.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"derivative order must be 0..3, got {order}")
    return _ansatz_derivs(ansatz, tau)[order]


ThetaLike = Union[ThetaAnsatz, Callable[[float, int], float]]


def _theta_derivs(theta: ThetaLike, tau):
    """(theta, theta', theta'', theta''') at tau.  For an ansatz the four
    share one evaluation of the sines and cosines; a callable is asked once
    per order and sample."""
    if isinstance(theta, ThetaAnsatz):
        return _ansatz_derivs(theta, tau)
    t = np.asarray(tau, dtype=float)
    if t.ndim == 0:
        return tuple(float(theta(float(t), k)) for k in range(4))
    return tuple(
        np.array([theta(float(x), k) for x in t]) for k in range(4)
    )


def beta_from_theta(theta: ThetaLike, tau):
    """Stiffness generated by theta; switches to the series limit near zeros.

    Raises SingularityError if theta vanishes with slope away from +-2.
    """
    th, th1, th2, th3 = _theta_derivs(theta, tau)
    scalar = np.isscalar(tau) or getattr(tau, "ndim", 1) == 0
    th = np.atleast_1d(np.asarray(th, dtype=float))
    th1 = np.atleast_1d(np.asarray(th1, dtype=float))
    th2 = np.atleast_1d(np.asarray(th2, dtype=float))
    th3 = np.atleast_1d(np.asarray(th3, dtype=float))

    small = np.abs(th) < EPS_THETA
    if np.any(small & (np.abs(np.abs(th1) - 2.0) > SLOPE_GUARD)):
        bad = np.atleast_1d(np.asarray(tau, dtype=float))[small][0]
        raise SingularityError(
            f"theta vanishes near tau = {bad!r} with theta' != +-2; "
            "beta is singular there"
        )
    th_safe = np.where(small, 1.0, th)
    regular = -th2 / (2.0 * th_safe) + ((th1 / 2.0) ** 2 - 1.0) / th_safe**2
    limit = -th1 * th3 / 16.0
    out = np.where(small, limit, regular)
    if scalar:
        return float(out[0])
    return out


@dataclass(frozen=True)
class ThetaDerivedBeta(BetaProfile):
    """BetaProfile generated by an ansatz, optionally shifted along tau.

    The native domain is [-pi/2, pi/2]; `offset` translates it so designed
    stages can be laid end to end on a common axis.
    """

    ansatz: ThetaAnsatz
    offset: float = 0.0
    kind = "theta"

    def beta_array(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        self._check_samples(taus)
        return beta_from_theta(self.ansatz, taus - self.offset)

    def domain(self):
        return (-HALF_PI + self.offset, HALF_PI + self.offset)

    def to_json_dict(self) -> dict:
        d = {"kind": "theta", "b": self.ansatz.b, "beta0": self.ansatz.beta0}
        if self.offset:
            d["offset"] = self.offset
        return d


# ---------------------------------------------------------------------------
# Lemma-style validation of a general theta


@dataclass(frozen=True)
class ZeroCheck:
    tau: float
    theta_prime: float
    ok: bool


@dataclass(frozen=True)
class FourierPoint:
    tau: float
    b: float
    beta: float
    beta_prime: float
    beta_prime_zero: bool


@dataclass(frozen=True)
class LemmaReport:
    theta_zeros: tuple
    fourier_points: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_lemma(
    theta: ThetaLike,
    interval=( -HALF_PI, HALF_PI),
    samples: int = 2001,
    slope_tol: float = 1e-6,
) -> LemmaReport:
    """Check the zero-slope conditions of a design function.

    At every zero of theta the slope must be +-2 (otherwise beta is
    singular there); at every zero of theta' the evolution matrix is a
    squeezed Fourier map with magnitude theta(tau), reported together with
    beta and beta' there.  beta'(tau) = 0 exactly where theta''' vanishes.
    """
    lo, hi = float(interval[0]), float(interval[1])
    grid = np.linspace(lo, hi, samples)
    th, th1, _, _ = _theta_derivs(theta, grid)

    def fn(order):
        return lambda x: _theta_derivs(theta, x)[order]

    zeros = _bracket_roots(grid, th, fn(0))
    zero_checks = []
    violations = []
    for z in zeros:
        slope = float(_theta_derivs(theta, z)[1])
        ok = abs(abs(slope) - 2.0) <= slope_tol
        zero_checks.append(ZeroCheck(tau=z, theta_prime=slope, ok=ok))
        if not ok:
            violations.append(
                f"theta zero at tau = {z:.6g} has slope {slope:.6g}, not +-2"
            )

    slope_roots = _bracket_roots(grid, th1, fn(1))
    # endpoints sit on exact theta' zeros for the sin-series designs, but
    # floating cos(k pi/2) is only ~1e-16, so sign-change detection skips
    # them; admit them by absolute size instead
    scale = max(1.0, float(np.max(np.abs(th1))))
    for edge in (lo, hi):
        if abs(float(_theta_derivs(theta, edge)[1])) <= 1e-9 * scale:
            if all(abs(edge - r) > 1e-9 for r in slope_roots):
                slope_roots.append(edge)
    slope_roots.sort()

    fourier = []
    for w in slope_roots:
        d = _theta_derivs(theta, w)
        th_w, th2_w, th3_w = d[0], d[2], d[3]
        if abs(th_w) < EPS_THETA:
            continue  # coincides with a theta zero; covered above
        beta_w = (-0.5 * th2_w * th_w - 1.0) / th_w**2
        beta_prime = -th3_w / (2.0 * th_w)
        fourier.append(
            FourierPoint(
                tau=w,
                b=th_w,
                beta=beta_w,
                beta_prime=beta_prime,
                beta_prime_zero=abs(th3_w) <= slope_tol,
            )
        )

    return LemmaReport(
        theta_zeros=tuple(zero_checks),
        fourier_points=tuple(fourier),
        violations=tuple(violations),
    )


def _bracket_roots(grid, values, f) -> list:
    """Roots of f on the grid: exact hits plus sign changes refined by
    Brent's method (Brent, Algorithms for Minimization Without Derivatives,
    1973, ch. 4), in grid order.

    The refinement is `_brentq`, whose iterates match scipy's `brentq` bit
    for bit, so the roots, and the design output that prints them, do not
    depend on scipy; tests/test_design.py pins this against scipy.
    """
    roots = []
    vals = np.asarray(values, dtype=float)
    head, tail = vals[:-1], vals[1:]
    # signs, not products: a product overflows, or underflows to +-0
    change = ((head < 0.0) & (tail > 0.0)) | ((head > 0.0) & (tail < 0.0))
    for i in np.flatnonzero((head == 0.0) | change):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        else:
            roots.append(_brentq(f, grid[i], grid[i + 1]))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    # merge near-duplicates from adjacent brackets
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-9:
            merged.append(r)
    return merged


BRENT_XTOL = 1e-14
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 100


def _brentq(f, a, b) -> float:
    """A root of f in the sign-changing bracket [a, b] by Brent's method
    (Brent 1973, ch. 4).

    Operation for operation the loop of scipy's compiled `brentq`
    (scipy/optimize/Zeros/brentq.c) at xtol BRENT_XTOL and its default
    rtol and maxiter, so the iterates and the root match scipy's bit for
    bit; tests/test_design.py pins this.  Like scipy it raises ValueError
    for endpoints of one sign or a NaN value of f, and RuntimeError after
    BRENT_MAXITER iterations.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"Brent's method failed to converge after {BRENT_MAXITER} iterations, "
        f"value is {xcur!r}")


# ---------------------------------------------------------------------------
# Pulse assembly and verification


@dataclass(frozen=True)
class ConstantTail:
    beta0: float
    duration: float


@dataclass(frozen=True)
class JoinReport:
    """Continuity of beta and its first two derivatives across a stage join."""

    tau: float
    left: tuple    # (beta, beta', beta'') approaching from the left
    right: tuple
    tol: float = 1e-8

    @property
    def jumps(self) -> tuple:
        return tuple(r - l for l, r in zip(self.left, self.right))

    @property
    def ok(self) -> tuple:
        return tuple(abs(j) <= self.tol for j in self.jumps)


@dataclass(frozen=True)
class DesignedPulse:
    """One or more designed stages, optionally ending in a constant tail."""

    ansatzes: tuple
    tail: Optional[ConstantTail]
    profile: BetaProfile
    interval: tuple
    joins: tuple


def quarter_period(beta0: float) -> float:
    """Duration pi/(2 sqrt(beta0)) turning a constant tail into a squeezed
    Fourier map with magnitude 1/sqrt(beta0)."""
    if beta0 <= 0:
        raise ValueError(f"quarter period needs beta0 > 0, got {beta0}")
    return math.pi / (2.0 * math.sqrt(beta0))


def _edge_derivs(ansatz: ThetaAnsatz) -> tuple:
    """(beta, beta', beta'') at the native stage edge tau = pi/2.

    theta is odd and beta even, so both edges carry the same values.  Using
    the even-order series of beta about the edge avoids cancellation:
    theta' and theta''' vanish there, leaving

        beta   = -theta''/(2 theta) - 1/theta^2
        beta'  = -theta'''/(2 theta)
        beta'' = -theta''''/(2 theta) + (theta''/theta)^2 + 2 theta''/theta^3
    """
    a1, a3, a5 = ansatz.a1, ansatz.a3, ansatz.a5
    th = ansatz.b
    th2 = -(a1 - 9.0 * a3 + 25.0 * a5)
    th3 = -(
        a1 * math.cos(HALF_PI)
        + 27.0 * a3 * math.cos(3.0 * HALF_PI)
        + 125.0 * a5 * math.cos(5.0 * HALF_PI)
    )
    th4 = a1 - 81.0 * a3 + 625.0 * a5
    beta = -th2 / (2.0 * th) - 1.0 / th**2
    beta1 = -th3 / (2.0 * th)
    beta2 = -th4 / (2.0 * th) + (th2 / th) ** 2 + 2.0 * th2 / th**3
    return (beta, beta1, beta2)


def build_chain(
    ansatzes: Sequence[ThetaAnsatz],
    tail: Optional[ConstantTail] = None,
) -> DesignedPulse:
    """Lay designed stages end to end (each spans pi) and append a tail.

    Adjacent stages must agree on the edge stiffness beta0, as must the
    tail; the join report records the actual beta/beta'/beta'' jumps.
    """
    ansatzes = tuple(ansatzes)
    if not ansatzes:
        raise ValueError("need at least one design stage")
    pieces = []
    joins = []
    start = -HALF_PI
    for k, ansatz in enumerate(ansatzes):
        offset = start + HALF_PI
        pieces.append((start, start + math.pi, ThetaDerivedBeta(ansatz, offset=offset)))
        if k > 0:
            prev = ansatzes[k - 1]
            if abs(prev.beta0 - ansatz.beta0) > 1e-12 * max(1.0, abs(ansatz.beta0)):
                raise ValueError(
                    f"stage {k} edge stiffness {ansatz.beta0} does not match "
                    f"previous stage's {prev.beta0}"
                )
            joins.append(
                JoinReport(tau=start, left=_edge_derivs(prev), right=_edge_derivs(ansatz))
            )
        start += math.pi
    if tail is not None:
        last = ansatzes[-1]
        if abs(tail.beta0 - last.beta0) > 1e-12 * max(1.0, abs(tail.beta0)):
            raise ValueError(
                f"tail beta0 = {tail.beta0} does not match the stage edge "
                f"stiffness {last.beta0}"
            )
        if tail.duration <= 0:
            raise ValueError("tail duration must be positive")
        pieces.append((start, start + tail.duration, ConstantBeta(tail.beta0)))
        joins.append(
            JoinReport(tau=start, left=_edge_derivs(last), right=(tail.beta0, 0.0, 0.0))
        )
    profile = CompositeBeta(pieces)
    return DesignedPulse(
        ansatzes=ansatzes,
        tail=tail,
        profile=profile,
        interval=profile.domain(),
        joins=tuple(joins),
    )


@dataclass(frozen=True)
class DesignReport:
    stage_matrices: tuple
    total: SymplecticMatrix2
    lam: Optional[float]
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "stages": [
                [m.u11, m.u12, m.u21, m.u22] for m in self.stage_matrices
            ],
            "total": [self.total.u11, self.total.u12, self.total.u21, self.total.u22],
            "lambda": self.lam,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def verify_design(
    pulse: DesignedPulse,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    tol: float = 1e-6,
) -> DesignReport:
    """Integrate each stage and check it lands on its squeezed Fourier map.

    Every piece is even about its centre: a theta stage about its offset,
    the constant tail everywhere.  So each map is u(tau, -tau) of the piece
    moved to centre 0, built by integrate_symmetric from half the span,
    tau = (t1 - t0) / 2, in ceil(cfg.steps / 2) steps: h stays
    (t1 - t0) / cfg.steps for even steps, and every stage comes out with
    u11 == u22 exactly.  Every theta stage should produce
    [[0, b], [-1/b, 0]] up to tol; a quarter-period tail likewise with
    magnitude 1/sqrt(beta0).  When the total is diagonal the squeeze factor
    lambda = u11 is reported.
    """
    failures = []
    mats = []
    expected_b = []
    pieces = pulse.profile.pieces
    n_theta = len(pulse.ansatzes)
    half = replace(cfg, steps=math.ceil(cfg.steps / 2))
    for k, (t0, t1, prof) in enumerate(pieces):
        centred = ThetaDerivedBeta(pulse.ansatzes[k]) if k < n_theta else prof
        m = evolution.integrate_symmetric(centred, (t1 - t0) / 2.0, half)
        mats.append(m)
        if k < n_theta:
            expected_b.append(pulse.ansatzes[k].b)
        else:
            kappa = math.sqrt(pulse.tail.beta0)
            if abs(pulse.tail.duration - quarter_period(pulse.tail.beta0)) <= 1e-9:
                expected_b.append(1.0 / kappa)
            else:
                expected_b.append(None)
    for k, (m, b) in enumerate(zip(mats, expected_b)):
        if b is None:
            continue
        for name, got, want in (
            ("u11", m.u11, 0.0),
            ("u22", m.u22, 0.0),
            ("u12", m.u12, b),
        ):
            if abs(got - want) > tol:
                failures.append(
                    f"stage {k}: {name} = {got:.3e}, expected {want:.3e} "
                    f"(off by {abs(got - want):.3e})"
                )
    total = mats[0]
    for m in mats[1:]:
        total = m @ total
    lam = None
    if abs(total.u12) <= tol and abs(total.u21) <= tol:
        lam = total.u11
    return DesignReport(
        stage_matrices=tuple(mats),
        total=total,
        lam=lam,
        failures=tuple(failures),
    )
