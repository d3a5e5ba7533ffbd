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
-theta' theta'''/16.

beta is sampled from one sine per sample.  With s = sin(tau), x = s^2 and
z = 1 - 2 x = cos(2 tau), sin(k tau)/s = U_{k-1}(cos tau) = 1 + 2 sum_j
T_j(z) (DLMF 18.5.1-18.5.2) makes P = theta/s, R = -theta''/s and, with
theta'(0) = +-2 taken as exact, Q = theta'/cos(tau) = 2 - x k short
Chebyshev sums in z (ThetaAnsatz.sums).  Then (theta'/2)^2 - 1 =
-x (k (Q + 2) + Q^2)/4, and beta = R/(2 P) - (k (Q + 2) + Q^2)/(4 P^2)
exactly, with no division by x: nothing cancels at the zero at tau = 0,
where P = 2.  Against 40-digit mpmath (tests/make_beta_references.py) it
errs by at most 1.4e-15 relative about tau = 0 and in the interior, and
3.3e-15 near +-pi/2, at four targets about the benchmark's range.  The
other zeros of theta, its side zeros, are zeros of P: a sample with
|theta| < EPS_THETA there takes the limit, and SingularityError is raised
where theta' is not +-2 at a sample that close to any zero.

With s = sin(tau) the multiple-angle formulas (DLMF 4.21(iv)) factor theta =
s (A - B s^2 + C s^4) and theta' = cos(tau) (A - B' s^2 + C' s^4), A = a1 +
3 a3 + 5 a5, so the zeros of both on [-pi/2, pi/2] come in closed form from
two quadratics in s^2 (_unit_roots); no root search is needed.  The
nonsingularity condition at the zeros of theta is decided once per ansatz,
in ThetaAnsatz.zero_checks; ThetaDerivedBeta, beta_from_theta (its zero at
tau = 0) and validate_lemma all read it there.

theta and its derivatives (theta_eval, the lemma, the limit at side zeros)
take one sin and one cos of tau per sample; the 3 tau and 5 tau terms follow
by angle addition (2 tau = tau + tau, then 3 tau = 2 tau + tau and 5 tau =
3 tau + 2 tau), within a few ulps of direct sines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Sequence

import numpy as np

from .core import BetaProfile, CompositeBeta, ConstantBeta, SymplecticMatrix2
from . import evolution
from .evolution import DEFAULT_CONFIG, IntegratorConfig

# |theta| below which a sample's slope is checked (SLOPE_GUARD), and below
# which a sample at a side zero of theta takes the analytic limit
EPS_THETA = 1e-6
SLOPE_TOL = 1e-6  # most ||theta'| - 2| at the closed-form zeros of theta
# most ||theta'| - 2| at a sample within EPS_THETA of any zero, tau = 0
# included (beta_from_theta): theta' there reads up to |theta''| EPS_THETA / 2
# off the zero's slope, so SLOPE_TOL would reject valid zeros
SLOPE_GUARD = 1e-3
VERIFY_TOL = 1e-6       # verify_design: allowed deviation of an entry from its target

HALF_PI = math.pi / 2.0


class SingularityError(ValueError):
    """beta requested at a theta zero that violates the slope condition."""


@dataclass(frozen=True)
class ZeroCheck:
    tau: float
    theta_prime: float
    ok: bool


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

    @property
    def slope0(self) -> float:
        """theta'(0) = a1 + 3 a3 + 5 a5, which the design fixes at 2."""
        return self.a1 + 3.0 * self.a3 + 5.0 * self.a5

    @cached_property
    def sums(self) -> tuple:
        """(P0, P1, P2, R0, R1, R2, K0, K1) with theta/sin(tau) = P0 + P1 z
        + P2 T2, -theta''/sin(tau) = R0 + R1 z + R2 T2 and k = K0 + K1 z, for
        z = cos(2 tau) and T2 = 2 z^2 - 1, from sin(3 tau)/sin(tau) = 1 + 2 z
        and sin(5 tau)/sin(tau) = 1 + 2 z + 2 T2.  a1 is taken as 2 - 3 a3 -
        5 a5 (theta'(0) = 2), which makes theta'/cos(tau) = 2 - sin(tau)^2 k.
        beta does not change with the sign of theta, so an ansatz with
        theta'(0) = -2 is summed as its negative.
        """
        sign = math.copysign(1.0, self.slope0)
        a3, a5 = sign * self.a3, sign * self.a5
        a1 = 2.0 - 3.0 * a3 - 5.0 * a5
        return (a1 + a3 + a5, 2.0 * (a3 + a5), 2.0 * a5,
                a1 + 9.0 * a3 + 25.0 * a5, 2.0 * (9.0 * a3 + 25.0 * a5), 50.0 * a5,
                12.0 * a3 + 20.0 * a5, 40.0 * a5)

    @cached_property
    def side_zeros(self) -> tuple:
        """(tau, theta'(tau)) at the zeros of theta in (0, pi/2]; theta is
        odd, so each -tau is a zero of the same slope.

        theta = s (A - B s^2 + C s^4) with s = sin(tau), A = slope0, B =
        4 a3 + 20 a5 and C = 16 a5, so these zeros are asin(sqrt x) for the
        roots x in (0, 1] of A - B x + C x^2.
        """
        xs = _unit_roots(self.slope0, 4.0 * self.a3 + 20.0 * self.a5, 16.0 * self.a5)
        taus = [math.asin(math.sqrt(x)) for x in xs]
        return tuple((t, theta_eval(self, t, 1)) for t in taus)

    @cached_property
    def zero_checks(self) -> tuple:
        """One ZeroCheck per zero of theta on [-pi/2, pi/2], ascending: 0 and
        +-tau of side_zeros, theta' being even.  ok is the nonsingularity
        condition, theta' = +-2 within SLOPE_TOL (a NaN slope is not ok);
        every check of it reads it from here."""
        slopes = dict([(0.0, self.slope0), *self.side_zeros])
        return tuple(
            ZeroCheck(z, slopes[abs(z)], abs(abs(slopes[abs(z)]) - 2.0) <= SLOPE_TOL)
            for z in _mirrored(slopes)
        )


def _unit_roots(a: float, b: float, c: float) -> list:
    """The roots x in (0, 1] of a - b x + c x^2, ascending and each once.

    With q = (b + sign(b) sqrt(b^2 - 4 a c)) / 2 they are q/c and a/q,
    the forms that do not cancel; c = 0 leaves the one root a/b.
    """
    disc = b * b - 4.0 * a * c
    q = 0.5 * (b + math.copysign(math.sqrt(max(disc, 0.0)), b))
    if disc < 0.0 or q == 0.0:
        return []
    return sorted({x for x in (q / c if c else 0.0, a / q) if 0.0 < x <= 1.0})


def _mirrored(taus) -> list:
    """taus and their negatives, ascending and each once (0.0 stays +0.0)."""
    return sorted({u for t in taus for u in (t, -t)})


def _check_slopes(checks, offset: float = 0.0) -> None:
    """Raise SingularityError at the first of the ZeroChecks that is not ok;
    theta is odd, so it vanishes at offset - |tau| and offset + |tau|."""
    for c in checks:
        if not c.ok:
            z = abs(c.tau)
            where = f"{offset - z!r} and {offset + z!r}" if z else f"{offset + z!r}"
            raise SingularityError(
                f"theta vanishes at tau = {where} with theta' = {c.theta_prime:.6g}, "
                "not +-2; beta is singular there"
            )


def _ansatz_derivs(ansatz: ThetaAnsatz, tau) -> tuple:
    """theta and its first three derivatives at tau, sharing one evaluation:
    one sin and one cos of tau per sample, with the 3 tau and 5 tau terms
    by angle addition."""
    a1, a3, a5 = ansatz.a1, ansatz.a3, ansatz.a5
    t = np.asarray(tau, dtype=float)
    s1, c1 = np.sin(t), np.cos(t)
    s2, c2 = 2.0 * s1 * c1, c1 * c1 - s1 * s1
    s3, c3 = s2 * c1 + c2 * s1, c2 * c1 - s2 * s1
    s5, c5 = s3 * c2 + c3 * s2, c3 * c2 - s3 * s2
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


def beta_from_theta(ansatz: ThetaAnsatz, tau):
    """Stiffness generated by an ansatz, from one sine per sample (module
    docstring); a sample within EPS_THETA of a side zero (|P| < 1, where P
    is 2 at tau = 0) takes the limit -theta' theta'''/16 instead.

    Raises SingularityError if theta vanishes at a sample with slope not
    +-2 within SLOPE_GUARD, or if theta'(0), which the sums take as exact,
    is not +-2 within SLOPE_TOL.
    """
    scalar = np.isscalar(tau) or getattr(tau, "ndim", 1) == 0
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    p0, p1, p2, r0, r1, r2, k0, k1 = ansatz.sums
    s = np.sin(t)
    x = s * s
    z = 1.0 - 2.0 * x
    t2 = 2.0 * z * z - 1.0
    p = p0 + p1 * z + p2 * t2

    small = np.abs(s * p) < EPS_THETA
    any_small = small.any()
    if any_small:
        ts = t[small]
        _, th1, _, th3 = _ansatz_derivs(ansatz, ts)
        if np.any(np.abs(np.abs(th1) - 2.0) > SLOPE_GUARD):
            raise SingularityError(
                f"theta vanishes near tau = {float(ts[0])!r} with theta' != +-2; "
                "beta is singular there"
            )
    _check_slopes([c for c in ansatz.zero_checks if c.tau == 0.0])
    r = r0 + r1 * z + r2 * t2
    k = k0 + k1 * z
    q = 2.0 - x * k
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 on a side zero
        out = r / (2.0 * p) - (k * (q + 2.0) + q * q) / (4.0 * (p * p))
    if any_small:
        out[small] = np.where(np.abs(p[small]) < 1.0, -th1 * th3 / 16.0, out[small])
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
        """beta at taus; raises SingularityError at the first of the ansatz's
        zero_checks that is not ok, wherever the samples fall."""
        taus = np.asarray(taus, dtype=float)
        self._check_samples(taus)
        _check_slopes(self.ansatz.zero_checks, self.offset)
        return beta_from_theta(self.ansatz, taus - self.offset)

    def domain(self):
        return (-HALF_PI + self.offset, HALF_PI + self.offset)

    def to_json_dict(self) -> dict:
        d = {"kind": "theta", "b": self.ansatz.b, "beta0": self.ansatz.beta0}
        if self.offset:
            d["offset"] = self.offset
        return d


# ---------------------------------------------------------------------------
# Lemma-style validation of a designed stage


@dataclass(frozen=True)
class FourierPoint:
    tau: float
    b: float
    beta: float
    beta_prime: float


@dataclass(frozen=True)
class LemmaReport:
    theta_zeros: tuple
    fourier_points: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_lemma(ansatz: ThetaAnsatz) -> LemmaReport:
    """Check the zero-slope conditions of a designed stage on [-pi/2, pi/2].

    theta_zeros is ansatz.zero_checks, the slope rule ThetaDerivedBeta
    enforces, and violations names each check that is not ok (beta is
    singular there).  At every zero of theta' the evolution matrix is a
    squeezed Fourier map with magnitude theta(tau), reported together with
    beta and beta' there.  beta'(tau) = 0 exactly where theta''' vanishes.

    theta' = cos(tau) (A - B s^2 + C s^4) with s = sin(tau), A = slope0,
    B = 12 a3 + 60 a5 and C = 80 a5, so the zeros of theta' are +-pi/2 and
    +-asin(sqrt x) for the roots x in (0, 1] of A - B x + C x^2, a root
    x = 1 being pi/2 again.
    """
    xs = _unit_roots(ansatz.slope0, 12.0 * ansatz.a3 + 60.0 * ansatz.a5, 80.0 * ansatz.a5)
    fourier = []
    for w in _mirrored([HALF_PI, *(math.asin(math.sqrt(x)) for x in xs)]):
        th_w, _, th2_w, th3_w = _ansatz_derivs(ansatz, w)
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
            )
        )

    return LemmaReport(
        theta_zeros=ansatz.zero_checks,
        fourier_points=tuple(fourier),
        violations=tuple(
            f"theta zero at tau = {c.tau:.6g} has slope {c.theta_prime:.6g}, not +-2"
            for c in ansatz.zero_checks if not c.ok
        ),
    )


# ---------------------------------------------------------------------------
# Pulse assembly and verification


@dataclass(frozen=True)
class ConstantTail:
    beta0: float
    duration: float


@dataclass(frozen=True)
class JoinReport:
    """Continuity of beta and its first two derivatives across a stage join."""

    tol: ClassVar[float] = 1e-8  # most |jump| that is ok
    tau: float
    left: tuple    # (beta, beta', beta'') approaching from the left
    right: tuple

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
) -> DesignReport:
    """Integrate each stage and check it lands on its squeezed Fourier map.

    Every piece is even about its centre: a theta stage about its offset,
    the constant tail everywhere.  So each map is u(tau, -tau) of the piece
    moved to centre 0, built by integrate_symmetric with cfg from half the
    span, tau = (t1 - t0) / 2, and every stage comes out with u11 == u22
    exactly.  Each piece is checked as soon as it is built: every theta
    stage should produce [[0, b], [-1/b, 0]] up to VERIFY_TOL; a
    quarter-period tail likewise with magnitude 1/sqrt(beta0).  When the
    total is diagonal the squeeze factor lambda = u11 is reported.
    """
    failures = []
    mats = []
    n_theta = len(pulse.ansatzes)
    for k, (t0, t1, prof) in enumerate(pulse.profile.pieces):
        centred = ThetaDerivedBeta(pulse.ansatzes[k]) if k < n_theta else prof
        m = evolution.integrate_symmetric(centred, (t1 - t0) / 2.0, cfg)
        mats.append(m)
        total = m if k == 0 else m @ total
        if k < n_theta:
            b = pulse.ansatzes[k].b
        elif abs(pulse.tail.duration - quarter_period(pulse.tail.beta0)) <= 1e-9:
            b = 1.0 / math.sqrt(pulse.tail.beta0)
        else:
            continue
        for name, got, want in (("u11", m.u11, 0.0), ("u22", m.u22, 0.0), ("u12", m.u12, b)):
            if abs(got - want) > VERIFY_TOL:
                failures.append(
                    f"stage {k}: {name} = {got:.3e}, expected {want:.3e} "
                    f"(off by {abs(got - want):.3e})"
                )
    lam = None
    if abs(total.u12) <= VERIFY_TOL and abs(total.u21) <= VERIFY_TOL:
        lam = total.u11
    return DesignReport(
        stage_matrices=tuple(mats),
        total=total,
        lam=lam,
        failures=tuple(failures),
    )
