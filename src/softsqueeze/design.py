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
-theta' theta'''/16.  Near a zero the regular formula cancels: a rounding
error of about 1e-16 in theta' becomes about 1e-16/theta^2 in beta.  So an
ansatz's beta is its even Taylor series about its zero at tau = 0, through
tau^6, for |tau| < SERIES_TAU (|theta| below about 1e-2; narrower for the
large coefficients of extreme targets, see ThetaAnsatz.series_tau), with
the coefficients computed once per ansatz and theta'(0) = 2 taken as exact.
Elsewhere the evaluator switches to the limit below |theta| = EPS_THETA and
raises SingularityError where theta' is not +-2 there.

With s = sin(tau) the multiple-angle formulas (DLMF 4.21(iv)) factor theta =
s (A - B s^2 + C s^4) and theta' = cos(tau) (A - B' s^2 + C' s^4), A = a1 +
3 a3 + 5 a5, so the zeros of both on [-pi/2, pi/2] come in closed form from
two quadratics in s^2 (_unit_roots); no root search is needed.

An ansatz is sampled with one sin and one cos of tau per sample; the 3 tau
and 5 tau terms follow by angle addition (2 tau = tau + tau, then 3 tau =
2 tau + tau and 5 tau = 3 tau + 2 tau), within a few ulps of direct sines.
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

# |theta| below which the analytic limit is used, at the zeros of theta
# outside the series window about tau = 0
EPS_THETA = 1e-6
# |tau| below which an ansatz's beta is its Taylor series about 0; just
# outside, the regular formula's cancellation costs a few 1e-12
SERIES_TAU = 5e-3
SLOPE_TOL = 1e-6  # most ||theta'| - 2| at the closed-form zeros of theta
# most ||theta'| - 2| at a sample within EPS_THETA of a zero (beta_from_theta):
# theta' there reads up to |theta''| EPS_THETA / 2 off the zero's slope, so
# SLOPE_TOL would reject valid zeros
SLOPE_GUARD = 1e-3
VERIFY_TOL = 1e-6       # verify_design: allowed deviation of an entry from its target

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

    @property
    def slope0(self) -> float:
        """theta'(0) = a1 + 3 a3 + 5 a5, which the design fixes at 2."""
        return self.a1 + 3.0 * self.a3 + 5.0 * self.a5

    @cached_property
    def beta_series(self) -> tuple:
        """(B0, B2, B4, B6) with beta = B0 + B2 tau^2 + B4 tau^4 + B6 tau^6
        + O(tau^8) about the zero of theta at tau = 0.

        With x = tau^2, theta = tau P(x), theta' = Q(x) and theta'' =
        tau R(x), where theta = sum T_n tau^n over odd n has T_n =
        (-1)^((n-1)/2) sum_k k^n a_k / n!.  Then beta = (N - R P/2) / P^2
        with N = (Q^2/4 - 1)/x.  T_1 = theta'(0) = 2 is taken as exact, so
        the constant term of Q^2/4 - 1 is exactly 0 rather than the rounding
        of a1 + 3 a3 + 5 a5 - 2, which the regular formula divides by
        theta^2.
        """
        terms = ((1, self.a1), (3, self.a3), (5, self.a5))
        tn = [2.0] + [  # T_1, T_3, ..., T_9: the coefficients of P
            (-1.0) ** j * sum(k ** (2 * j + 1) * a for k, a in terms)
            / math.factorial(2 * j + 1)
            for j in range(1, 5)
        ]

        def mul(p, q):  # product of series in x, through x^3
            return [sum(p[i] * q[n - i] for i in range(n + 1)) for n in range(4)]

        q = [(2 * j + 1) * tn[j] for j in range(5)]
        r = [(2 * j + 3) * (2 * j + 2) * tn[j + 1] for j in range(4)]
        nq = [sum(q[i] * q[n + 1 - i] for i in range(n + 2)) / 4.0 for n in range(4)]
        num = [a - 0.5 * b for a, b in zip(nq, mul(r, tn))]
        den = mul(tn, tn)
        out = []
        for n in range(4):
            out.append((num[n] - sum(out[i] * den[n - i] for i in range(n))) / den[0])
        return tuple(out)

    @cached_property
    def series_tau(self) -> float:
        """Half-width of the window about tau = 0 where beta is beta_series.

        On the complex disc |tau| < R = sqrt(6 / (|a1| + 27 |a3| + 125 |a5|))
        theta/tau stays within about 1 of 2, so beta has no pole there and
        the series through tau^6 errs by about (tau/R)^8 relative.  The
        window is SERIES_TAU, narrowed to R/16 (an error of about 1e-11)
        for the large coefficients of extreme targets.
        """
        s = abs(self.a1) + 27.0 * abs(self.a3) + 125.0 * abs(self.a5)
        return min(SERIES_TAU, math.sqrt(6.0 / s) / 16.0)

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


def _check_slopes(zeros, offset: float = 0.0) -> None:
    """Raise SingularityError at the first (tau, theta'(tau)) zero of theta
    in zeros, tau >= 0, whose slope is not +-2 within SLOPE_TOL; theta is
    odd, so it vanishes at offset - tau and offset + tau."""
    for z, slope in zeros:
        if abs(abs(slope) - 2.0) > SLOPE_TOL:
            where = f"{offset - z!r} and {offset + z!r}" if z else f"{offset + z!r}"
            raise SingularityError(
                f"theta vanishes at tau = {where} with theta' = {slope:.6g}, "
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
    """Stiffness generated by an ansatz; switches to the series limit near
    zeros of theta, and to its Taylor series within series_tau of tau = 0.

    Raises SingularityError if theta vanishes at a sample with slope not
    +-2 within SLOPE_GUARD, or if the Taylor series is used and theta'(0)
    is not +-2 within SLOPE_TOL.
    """
    scalar = np.isscalar(tau) or getattr(tau, "ndim", 1) == 0
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    th, th1, th2, th3 = (np.atleast_1d(np.asarray(x, dtype=float))
                         for x in _ansatz_derivs(ansatz, tau))

    small = np.abs(th) < EPS_THETA
    any_small = small.any()
    if any_small:
        if np.any(small & (np.abs(np.abs(th1) - 2.0) > SLOPE_GUARD)):
            bad = float(t[small][0])
            raise SingularityError(
                f"theta vanishes near tau = {bad!r} with theta' != +-2; "
                "beta is singular there"
            )
        th = np.where(small, 1.0, th)
    out = -th2 / (2.0 * th) + ((th1 / 2.0) ** 2 - 1.0) / th**2
    if any_small:
        out = np.where(small, -th1 * th3 / 16.0, out)
    near = np.abs(t) < ansatz.series_tau
    if near.any():
        # the series takes theta'(0) = 2 as exact
        _check_slopes([(0.0, ansatz.slope0)])
        b0, b2, b4, b6 = ansatz.beta_series
        x = t[near] ** 2
        out[near] = b0 + x * (b2 + x * (b4 + x * b6))
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
        """beta at taus; raises SingularityError if theta has a zero in the
        domain whose slope is not +-2 within SLOPE_TOL, wherever the
        samples fall."""
        taus = np.asarray(taus, dtype=float)
        self._check_samples(taus)
        a = self.ansatz
        # outermost zero first
        _check_slopes([*a.side_zeros[::-1], (0.0, a.slope0)], self.offset)
        return beta_from_theta(a, taus - self.offset)

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


def validate_lemma(ansatz: ThetaAnsatz) -> LemmaReport:
    """Check the zero-slope conditions of a designed stage on [-pi/2, pi/2].

    At every zero of theta the slope must be +-2 within SLOPE_TOL, as
    ThetaDerivedBeta requires (otherwise beta is singular there); at every
    zero of theta' the evolution matrix is a squeezed Fourier map with
    magnitude theta(tau), reported together with beta and beta' there.
    beta'(tau) = 0 exactly where theta''' vanishes (flagged within 1e-6).

    The zeros of theta are 0 and +-side_zeros.  theta' = cos(tau) (A - B s^2
    + C s^4) with s = sin(tau), A = slope0, B = 12 a3 + 60 a5 and C = 80 a5,
    so the zeros of theta' are +-pi/2 and +-asin(sqrt x) for the roots x in
    (0, 1] of A - B x + C x^2, a root x = 1 being pi/2 again.
    """
    slopes = dict([(0.0, ansatz.slope0), *ansatz.side_zeros])  # theta' is even
    zero_checks = []
    violations = []
    for z in _mirrored(slopes):
        slope = slopes[abs(z)]
        ok = abs(abs(slope) - 2.0) <= SLOPE_TOL
        zero_checks.append(ZeroCheck(tau=z, theta_prime=slope, ok=ok))
        if not ok:
            violations.append(
                f"theta zero at tau = {z:.6g} has slope {slope:.6g}, not +-2"
            )

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
                beta_prime_zero=abs(th3_w) <= 1e-6,
            )
        )

    return LemmaReport(
        theta_zeros=tuple(zero_checks),
        fourier_points=tuple(fourier),
        violations=tuple(violations),
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
    moved to centre 0, built by integrate_symmetric from half the span,
    tau = (t1 - t0) / 2, in ceil(cfg.steps / 2) steps: h stays
    (t1 - t0) / cfg.steps for even steps, and every stage comes out with
    u11 == u22 exactly.  Every theta stage should produce
    [[0, b], [-1/b, 0]] up to VERIFY_TOL; a quarter-period tail likewise with
    magnitude 1/sqrt(beta0).  When the total is diagonal the squeeze factor
    lambda = u11 is reported.
    """
    failures = []
    mats = []
    expected_b = []
    pieces = pulse.profile.pieces
    n_theta = len(pulse.ansatzes)
    half = IntegratorConfig(math.ceil(cfg.steps / 2))
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
            if abs(got - want) > VERIFY_TOL:
                failures.append(
                    f"stage {k}: {name} = {got:.3e}, expected {want:.3e} "
                    f"(off by {abs(got - want):.3e})"
                )
    total = mats[0]
    for m in mats[1:]:
        total = m @ total
    lam = None
    if abs(total.u12) <= VERIFY_TOL and abs(total.u21) <= VERIFY_TOL:
        lam = total.u11
    return DesignReport(
        stage_matrices=tuple(mats),
        total=total,
        lam=lam,
        failures=tuple(failures),
    )
