"""Gaussian first/second-moment transport.

Linear dynamics carry a Gaussian packet into a Gaussian packet, so the mean
and the 2x2 covariance are the whole story: mean' = u mean and
Sigma' = u Sigma u^T.  det Sigma is preserved by any unit-determinant u,
which is the moment-level expression of unitarity and the main invariant
asserted by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DET_ROUNDING, BetaProfile, CanonicalState, SymplecticMatrix2, _csv_rows
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
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"moment state must be finite, got {vals}")
        if self.sqq < 0.0 or self.spp < 0.0:
            raise ValueError("covariance diagonal must be nonnegative")
        det = self.cov_det
        if det < 0.25 - self.bound_slack - DET_ROUNDING * (self.sqq * self.spp + self.sqp**2):
            raise ValueError(
                f"uncertainty bound violated: det Sigma = {det!r} < 1/4"
            )

    @property
    def cov_det(self) -> float:
        return self.sqq * self.spp - self.sqp**2

    @property
    def delta_q(self) -> float:
        return math.sqrt(self.sqq)

    @property
    def delta_p(self) -> float:
        return math.sqrt(self.spp)


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
    accordingly rather than silently renormalizing anything.
    """
    u.require_symplectic(det_tol)
    q = u.u11 * s.q + u.u12 * s.p
    p = u.u21 * s.q + u.u22 * s.p
    # u Sigma u^T written out
    aq = u.u11 * s.sqq + u.u12 * s.sqp
    ap = u.u11 * s.sqp + u.u12 * s.spp
    bq = u.u21 * s.sqq + u.u22 * s.sqp
    bp = u.u21 * s.sqp + u.u22 * s.spp
    slack = max(s.bound_slack, 3.0 * det_tol * max(1.0, s.cov_det))
    return MomentState(
        q=q, p=p,
        sqq=aq * u.u11 + ap * u.u12,
        sqp=aq * u.u21 + ap * u.u22,
        spp=bq * u.u21 + bp * u.u22,
        bound_slack=slack,
    )


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
    mats = evolution.integrate_path(profile, taus, cfg)
    taus = np.asarray([float(t) for t in taus])
    qs = np.empty((len(taus), len(inits)))
    ps = np.empty_like(qs)
    for i, u in enumerate(mats):
        for j, s in enumerate(inits):
            out = evolution.apply_to_state(u, s)
            qs[i, j] = out.q
            ps[i, j] = out.p
    return CongruenceResult(taus=taus, qs=qs, ps=ps)


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
    """Moment transport along a tau grid: (tau, qbar, pbar, dq, dp)."""
    mats = evolution.integrate_path(profile, taus, cfg)
    taus = np.asarray([float(t) for t in taus])
    n = len(taus)
    q_mean = np.empty(n)
    p_mean = np.empty(n)
    dq = np.empty(n)
    dp = np.empty(n)
    for k, u in enumerate(mats):
        s = propagate(u, init, det_tol=1e-4)
        q_mean[k] = s.q
        p_mean[k] = s.p
        dq[k] = s.delta_q
        dp[k] = s.delta_p
    return ShadowResult(
        taus=taus, q_mean=q_mean, p_mean=p_mean, dq=dq, dp=dp,
        belt_radius=belt_radius,
    )


def write_shadow_csv(result: ShadowResult, fileobj):
    fileobj.write("tau,q_mean,p_mean,delta_q,delta_p\n" + _csv_rows(
        result.taus, result.q_mean, result.p_mean, result.dq, result.dp))


def write_congruence_csv(result: CongruenceResult, fileobj):
    n_tau, n_init = result.qs.shape
    fileobj.write("tau,init_index,q,p\n" + _csv_rows(
        np.repeat(result.taus, n_init), np.tile(np.arange(n_init), n_tau),
        result.qs.ravel(), result.ps.ravel()))
