"""Gaussian first/second-moment transport.

Linear dynamics carry a Gaussian packet into a Gaussian packet, so the mean
and the 2x2 covariance are the whole story: mean' = u mean and
Sigma' = u Sigma u^T.  det Sigma is preserved by any unit-determinant u,
which is the moment-level expression of unitarity and the main invariant
asserted by the tests.

shadow and congruence transport every row of one integrate_path result at
once, as arrays, with the operations of propagate and apply_to_state in
the same order, so each row is bit for bit the one-matrix result, and the
first row that fails a check raises the ValueError its own call raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DET_ROUNDING, BetaProfile, CanonicalState, SymplecticMatrix2, _csv_rows, _det_gate,
)
from . import evolution
from .evolution import DEFAULT_CONFIG, IntegratorConfig

# Construction-time slack on the uncertainty bound det Sigma >= 1/4.  The
# bound itself holds to 1e-12 for closed-form transports; the looser gate
# here only absorbs the allowed 1e-9 determinant drift of integrated
# matrices, which enters det Sigma squared.  On top of it the gate allows
# the rounding floor DET_ROUNDING (sqq spp + sqp^2), as _det_gate does for
# det u: rounding alone moves det Sigma past any fixed slack once entries
# reach about 1e7, a few periods of a zone III drive.
UNCERTAINTY_SLACK = 1e-8


@dataclass(frozen=True)
class MomentState:
    """Mean (q, p) and covariance (sqq, sqp, spp) of a Gaussian packet.

    bound_slack widens the uncertainty-bound gate for states produced by
    transports that were themselves admitted under a loose determinant
    tolerance; it never alters the stored moments.
    """

    q: float
    p: float
    sqq: float
    sqp: float
    spp: float
    bound_slack: float = field(default=UNCERTAINTY_SLACK, compare=False, repr=False)

    def __post_init__(self):
        vals = (self.q, self.p, self.sqq, self.sqp, self.spp)
        fault = _moment_faults(*vals, self.bound_slack)
        if fault == 1:
            raise ValueError(f"moment state must be finite, got {vals}")
        if fault == 2:
            raise ValueError("covariance diagonal must be nonnegative")
        if fault == 3:
            raise ValueError(
                f"uncertainty bound violated: det Sigma = {self.cov_det!r} < 1/4"
            )

    @property
    def cov_det(self) -> float:
        return self.sqq * self.spp - self.sqp * self.sqp

    @property
    def delta_q(self) -> float:
        return math.sqrt(self.sqq)

    @property
    def delta_p(self) -> float:
        return math.sqrt(self.spp)


@np.errstate(over="ignore", invalid="ignore")
def _moment_faults(q, p, sqq, sqp, spp, slack):
    """MomentState's checks, elementwise over arrays or scalars: 0 where a
    state passes, else its first failing one: 1 a moment not finite, 2 a
    negative variance, 3 det Sigma under 1/4 by more than slack and the
    rounding floor DET_ROUNDING (sqq spp + sqp^2)."""
    square = sqp * sqp
    low = sqq * spp - square < 0.25 - slack - DET_ROUNDING * (sqq * spp + square)
    finite = np.isfinite((q, p, sqq, sqp, spp)).all(axis=0)
    return np.select([~finite, (sqq < 0.0) | (spp < 0.0), low], [1, 2, 3], 0)


def gaussian_init(kappa: float, q0: float = 0.0, p0: float = 0.0) -> MomentState:
    """Minimum-uncertainty Gaussian of width parameter kappa.

    Sigma = diag(1/(2 kappa), kappa/2); kappa = 1 gives the symmetric
    packet with (dq)^2 = (dp)^2 = 1/2.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return MomentState(q=q0, p=p0, sqq=0.5 / kappa, sqp=0.0, spp=0.5 * kappa)


def propagate(u: SymplecticMatrix2, s: MomentState, det_tol: float = 1e-6) -> MomentState:
    """Transport mean and covariance through u.

    det Sigma picks up the factor (det u)^2, so a matrix admitted with
    |det - 1| <= det_tol can push a minimum-uncertainty state below 1/4 by
    about 2 * det_tol * det Sigma; the output state's bound gate is widened
    accordingly rather than silently renormalizing anything.  u must pass
    require_symplectic(det_tol).  One row of _transport.
    """
    moments, slack = _transport(np.array([[u.u11], [u.u12], [u.u21], [u.u22]]), s, det_tol)
    return MomentState(*(float(m[0]) for m in moments), bound_slack=slack)


@np.errstate(over="ignore", invalid="ignore")
def _transport(u, s: MomentState, det_tol: float):
    """propagate's (q, p, sqq, sqp, spp) arrays and bound slack of s through
    each matrix of u, entry rows (u11, u12, u21, u22).  The first matrix
    that fails require_symplectic(det_tol), or its state MomentState's
    checks, raises the ValueError that propagate raises for it alone."""
    u11, u12, u21, u22 = u
    q = u11 * s.q + u12 * s.p
    p = u21 * s.q + u22 * s.p
    # u Sigma u^T written out
    aq = u11 * s.sqq + u12 * s.sqp
    ap = u11 * s.sqp + u12 * s.spp
    bq = u21 * s.sqq + u22 * s.sqp
    bp = u21 * s.sqp + u22 * s.spp
    moments = (q, p, aq * u11 + ap * u12, aq * u21 + ap * u22, bq * u21 + bp * u22)
    slack = max(s.bound_slack, 3.0 * det_tol * max(1.0, s.cov_det))
    bad = ~_det_gate(u11, u12, u21, u22, det_tol)[0] | (_moment_faults(*moments, slack) > 0)
    if bad.any():
        k = int(np.argmax(bad))
        SymplecticMatrix2(*(float(e[k]) for e in u)).require_symplectic(det_tol)
        MomentState(*(float(m[k]) for m in moments), bound_slack=slack)  # raises
    return moments, slack


def delta_q(u: SymplecticMatrix2) -> float:
    """Position spread after u acting on the standard (kappa = 1) Gaussian:
    dq^2 = (u11^2 + u12^2)/2."""
    return math.sqrt(0.5 * (u.u11**2 + u.u12**2))


def backcast_error(lam: float, delta_final):
    """Initial-coordinate error recovered from final errors: delta/|lam|.

    Accepts a scalar or an iterable of error components.
    """
    if lam == 0.0:
        raise ValueError("backcast needs a nonzero squeeze factor")
    if np.isscalar(delta_final):
        return float(delta_final) / abs(lam)
    return tuple(float(d) / abs(lam) for d in delta_final)


@dataclass(frozen=True)
class CongruenceResult:
    taus: np.ndarray
    qs: np.ndarray   # shape (n_tau, n_init)
    ps: np.ndarray


def congruence(
    profile: BetaProfile,
    inits,
    taus,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> CongruenceResult:
    """q(tau) for a family of initial conditions under one pulse.

    The evolution matrices are integrated once along the grid and applied
    to every initial state, so members of the congruence are mutually
    consistent to machine precision.
    """
    inits = [s if isinstance(s, CanonicalState) else CanonicalState(*s) for s in inits]
    if not inits:
        raise ValueError("need at least one initial state")
    u11, u12, u21, u22 = _entries(evolution.integrate_path(profile, taus, cfg))[..., None]
    q0, p0 = np.array([(s.q, s.p) for s in inits]).T
    with np.errstate(over="ignore", invalid="ignore"):
        # evolution.apply_to_state of every state at every grid point
        qs = u11 * q0 + u12 * p0
        ps = u21 * q0 + u22 * p0
    bad = ~(np.isfinite(qs) & np.isfinite(ps))
    if bad.any():
        k = int(np.argmax(bad))
        CanonicalState(float(qs.flat[k]), float(ps.flat[k]))  # raises
    return CongruenceResult(taus=np.asarray([float(t) for t in taus]), qs=qs, ps=ps)


@dataclass(frozen=True)
class ShadowResult:
    """Mean trajectory with its uncertainty band ("shadow")."""

    taus: np.ndarray
    q_mean: np.ndarray
    p_mean: np.ndarray
    dq: np.ndarray
    dp: np.ndarray
    belt_radius: float

    @property
    def max_delta_q(self) -> float:
        return float(self.dq.max())

    @property
    def within_belt(self) -> bool:
        """True if |q| + dq stays inside the display belt."""
        return bool(np.max(np.abs(self.q_mean) + self.dq) < self.belt_radius)


def shadow(
    profile: BetaProfile,
    init: MomentState,
    taus,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    belt_radius: float = 10.0,
) -> ShadowResult:
    """Moment transport along a tau grid: (tau, qbar, pbar, dq, dp), each
    row propagate(u(tau, taus[0]), init, det_tol=1e-4), all rows at once
    (_transport)."""
    mats = evolution.integrate_path(profile, taus, cfg)
    (q, p, sqq, _, spp), _ = _transport(_entries(mats), init, 1e-4)
    return ShadowResult(
        taus=np.asarray([float(t) for t in taus]), q_mean=q, p_mean=p,
        dq=np.sqrt(sqq), dp=np.sqrt(spp), belt_radius=belt_radius,
    )


def _entries(mats) -> np.ndarray:
    """The (4, n) entry rows (u11, u12, u21, u22) of n matrices."""
    return np.array([(u.u11, u.u12, u.u21, u.u22) for u in mats]).T


def write_shadow_csv(result: ShadowResult, fileobj):
    fileobj.write("tau,q_mean,p_mean,delta_q,delta_p\n" + _csv_rows(
        result.taus, result.q_mean, result.p_mean, result.dq, result.dp))


def write_congruence_csv(result: CongruenceResult, fileobj):
    n_tau, n_init = result.qs.shape
    fileobj.write("tau,init_index,q,p\n" + _csv_rows(
        np.repeat(result.taus, n_init), np.tile(np.arange(n_init), n_tau),
        result.qs.ravel(), result.ps.ravel()))
