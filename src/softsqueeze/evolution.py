"""Integration of the evolution-matrix ODE and zone classification.

The forward equation du/dtau = L(tau) u, u(tau0, tau0) = 1, with
L(tau) = [[0, 1], [-beta(tau), 0]], is solved by classical fixed-step RK4,
the package's only integrator, written as a step map: on a linear ODE one
RK4 step is the 2x2 polynomial S_k in h and the beta samples at the step's
node, midpoint and end.  Every integration here (integrate, integrate_path,
integrate_symmetric and the batched mathieu_batch) goes through one engine
that builds these maps vectorised and multiplies them in order.

The engine keeps each map in delta form, D_k = S_k - 1, and multiplies by
(1 + a)(1 + b) - 1 = a + b + ab, adding the identity once at the end.  The
entries of D_k are O(h), so no product rounds them against the identity;
multiplying the S_k themselves doubles the error against the 30-digit
references of the tests.  A run of maps is one (2, 2, c, m) array: entry,
entry, column, step, with the steps last so that a pair of neighbouring
maps is a stride-2 slice of long rows; the columns are g intervals, each
on its own linspace grid, times a batch of w.  A merge is five numpy
calls on whole arrays, two products and three sums, each entry being
(a_ij + b_ij) + (a_i0 b_0j + a_i1 b_1j); the merges of the block stack
write into the earlier product in place.

The product is the level-wise pairwise tree over all steps: each level
multiplies neighbours, later step on the left, and an odd last element is
carried up.  The engine walks it in aligned blocks of 2^k steps, sized so
that a block times the batch width stays within a fixed element budget,
which bounds memory for any step count; mathieu_batch splits a batch wider
than the budget into column chunks of that many nodes.  The tree's shape
depends only on the step count, never on the block size or the batch
width, so a node's result is bit-identical alone or inside any batch, and
run to run.  Determinant drift is checked after every run and never
silently corrected.

A run's step is h = (tau1 - tau0) / steps.  The Mathieu drive is even
about every multiple of pi, so integrate and mathieu_batch build a
one-period map from half a period at that step (_one_period).  The
reflection D u^-1 D, D = diag(1, -1), is taken in adjugate form (_reflect),
never divided by det u, so the determinant gate still sees the drift of
every piece; integrate_symmetric builds u(tau, -tau) with it too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .core import BetaProfile, CanonicalState, ConstantBeta, MathieuBeta, SymplecticMatrix2


class IntegrationError(RuntimeError):
    """Raised when an integration cannot meet its accuracy contract."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical settings shared by all integrations.

    There is one integrator, fixed-step RK4; `method` is the class constant
    "rk4", not a setting.
    steps:  fixes the RK4 step h = (tau1 - tau0) / steps of an interval;
            a one-period Mathieu interval integrates half a period at that h.
    max_steps: most RK4 steps one call may take; more raise IntegrationError.
    det_tol: allowed |det - 1| drift of the result; must be positive.
    """

    method: ClassVar[str] = "rk4"
    steps: int = 20000
    max_steps: int = 10_000_000
    det_tol: float = 1e-9

    def __post_init__(self):
        if self.steps <= 0 or self.max_steps <= 0:
            raise ValueError("step counts must be positive")
        if not self.det_tol > 0:
            raise ValueError(f"det_tol must be positive, got {self.det_tol}")

    def check_steps(self, steps: int):
        """Raise IntegrationError if a run of `steps` RK4 steps exceeds max_steps."""
        if steps > self.max_steps:
            raise IntegrationError(
                f"{steps} RK4 steps exceed max_steps = {self.max_steps}"
            )


DEFAULT_CONFIG = IntegratorConfig()


# Zone names by code; code 0 marks a scan node that failed the determinant gate.
ZONES = ("failed", "I", "II", "III")
THRESHOLD_BAND = 1e-9


def zone_codes(gamma, threshold_band: float = THRESHOLD_BAND) -> np.ndarray:
    """Zone code of each trace Gamma: 2 (II) if ||Gamma| - 2| <= threshold_band,
    else 1 (I) if |Gamma| < 2, else 3 (III), NaN included."""
    g = np.abs(gamma)
    return np.where(np.abs(g - 2.0) <= threshold_band, 2, np.where(g < 2.0, 1, 3)).astype(np.int8)


@dataclass(frozen=True)
class ZoneReport:
    """Stability classification of an evolution matrix by its trace."""

    gamma: float
    zone: str  # "I" | "II" | "III"
    lam_plus: complex
    lam_minus: complex
    a_plus: Optional[tuple] = None  # left row eigenvectors, zone III only
    a_minus: Optional[tuple] = None


# ---------------------------------------------------------------------------
# RK4 step-map engine

# Step maps per block times columns, and nodes per mathieu_batch chunk.
# Bounds the engine's working set; results do not depend on it (see the
# module docstring).
_BLOCK_ELEMENTS = 4096


def _grid(t0, t1, steps: int, j0: int, j1: int):
    """Rows j0..j1-1 of np.linspace(t0, t1, 2*steps + 1), as a column per
    interval: the RK4 nodes and midpoints, computed exactly as linspace
    does, so a block's samples equal those of the whole grid."""
    taus = np.arange(j0, j1, dtype=float)[:, None] * ((t1 - t0) / (2 * steps)) + t0
    if j1 == 2 * steps + 1:
        taus[-1] = t1
    return taus


def _step_deltas(b, h):
    """S - 1 for the RK4 step maps, as one (2, 2, w, m) array, where b holds
    beta at the 2m+1 nodes and midpoints of m steps, a row each, in w
    columns:

      d11 = b1 b2 h^4/24 - h^2 (b1/6 + b2/3)
      d12 = h - b2 h^3/6
      d21 = h ((b1 + b3) b2 h^2/12 - (b1 + 4 b2 + b3)/6)
      d22 = b2 b3 h^4/24 - h^2 (b2/3 + b3/6)

    with b1, b2 and b3 at a step's node, midpoint and end.  The arithmetic
    runs along the longer axis of b: a narrow batch's steps, like a wide
    batch's columns, are contiguous.
    """
    if b.shape[0] > b.shape[1]:
        b = np.asfortranarray(b)
    b1, b2, b3 = b[:-1:2], b[1::2], b[2::2]
    h2 = h * h
    r = b2 * (h2 * h2 / 24.0) - h2 / 6.0
    q = b2 * (h2 / 3.0)
    d = np.empty((2, 2) + b2.shape[::-1])
    np.subtract(b1 * r, q, out=d[0, 0].T)
    np.subtract(h, b2 * (h2 * h / 6.0), out=d[0, 1].T)
    np.subtract((b1 + b3) * (b2 * (h2 * h / 12.0) - h / 6.0), b2 * (2.0 * h / 3.0), out=d[1, 0].T)
    np.subtract(b3 * r, q, out=d[1, 1].T)
    return d


def _mul(a, b, out=None, t=None):
    """Matrix product ab of (2, 2, ...) arrays, each entry a_i0 b_0j + a_i1 b_1j.
    out and t are optional scratch arrays of the product's shape."""
    out = np.multiply(a[:, :1], b[:1], out=out)
    out += np.multiply(a[:, 1:], b[1:], out=t)
    return out


def _merge(a, b, out=None, p=None, t=None):
    """Delta form of (1 + a)(1 + b), a + b + ab, with a the later map: each
    entry is (a_ij + b_ij) + (a_i0 b_0j + a_i1 b_1j).  out may be b; p and
    t are optional scratch arrays of b's shape."""
    p = _mul(a, b, p, t)
    out = np.add(a, b, out=out)
    out += p
    return out


def _tree(d):
    """Level-wise pairwise product of the maps along the last axis of d."""
    while d.shape[-1] > 1:
        m = d.shape[-1]
        even = m - m % 2
        merged = _merge(d[..., 1:even:2], d[..., 0:even:2])
        if m != even:
            merged = np.concatenate([merged, d[..., -1:]], axis=-1)
        d = merged
    return d[..., 0]


def _rk4(beta_at, t0, t1, steps: int, width: int) -> np.ndarray:
    """RK4 evolution matrices over g intervals [t0, t1] (scalars, g = 1, or
    arrays) for a batch of width columns each, as a (2, 2, g * width) array
    with the columns of each interval together.

    beta_at maps the (rows, g) taus of _grid to (rows, g * width) betas.
    Full blocks are pushed on a stack whose equal-sized neighbours merge at
    once, and what is left is merged from right to left: together this is
    the level-wise tree over all steps, whatever the block size.  The stack
    merges write into the earlier product, with two scratch arrays.  A block
    samples beta from its first midpoint on; its first node is the previous
    block's last row.
    """
    g = np.size(t0)
    h = (t1 - t0) / steps
    if np.ndim(h):
        h = np.repeat(h, width)
    block = 1 << (max(_BLOCK_ELEMENTS // max(g * width, 1), 1).bit_length() - 1)
    stack = []  # (steps covered, delta product)
    scratch = (np.empty((2, 2, g * width)), np.empty((2, 2, g * width)))
    last = None  # beta at the previous block's end
    for s0 in range(0, steps, block):
        s1 = min(s0 + block, steps)
        b = beta_at(_grid(t0, t1, steps, 2 * s0 + (s0 > 0), 2 * s1 + 1))
        if s0:
            b = np.concatenate([last, b])
        last = b[-1:].copy()
        d = _tree(_step_deltas(b, h))
        del b  # free the samples before the next block takes its own
        n = s1 - s0
        while stack and stack[-1][0] == n:
            n *= 2
            earlier = stack.pop()[1]
            d = _merge(d, earlier, earlier, *scratch)
        stack.append((n, d))
    d = stack.pop()[1]
    while stack:
        earlier = stack.pop()[1]
        d = _merge(d, earlier, earlier, *scratch)
    d[0, 0] += 1.0
    d[1, 1] += 1.0
    return d


def _reflect(u):
    """D u^-1 D for D = diag(1, -1) in adjugate form, [[u22, u12], [u21, u11]],
    as a view of the (2, 2, ...) array u.  It is not divided by det u, so a
    product through it keeps the determinant drift of u."""
    return u[::-1, ::-1].swapaxes(0, 1)


def _one_period(beta_at, t0, t1, steps: int, width: int, out=None) -> np.ndarray:
    """u(t1, t0) over one period t1 = t0 + 2pi of a drive even about every
    multiple of pi, as a (2, 2, width) array, from half a period.

    With c = pi floor(t0/pi), V = u(t0, c), W = u(c + pi, t0) and U = W V,
    periodicity and the reflection about c + pi give
    u(t1, t0) = (V (D U^-1 D)) W.  Each piece takes
    ceil(steps * length / (t1 - t0)) steps, at least 1, so h never exceeds
    (t1 - t0) / steps; a zero-length V is one step of h = 0, the identity.
    Pieces of equal step count run as one engine batch when their columns
    fit the element budget together.  beta_at is as for _rk4.
    """
    c = math.pi * math.floor(t0 / math.pi)
    ends = np.array([c, t0, c + math.pi])
    counts = [max(math.ceil(steps * ((b - a) / (t1 - t0))), 1) for a, b in zip(ends, ends[1:])]
    if counts[0] == counts[1] and 2 * width <= _BLOCK_ELEMENTS:
        vw = _rk4(beta_at, ends[:2], ends[1:], counts[0], width)
        v, w = vw[..., :width], vw[..., width:]
    else:
        v, w = (_rk4(beta_at, a, b, n, width) for a, b, n in zip(ends, ends[1:], counts))
    return _mul(_mul(v, _reflect(_mul(w, v))), w, out)


def _check_det(entries, cfg: IntegratorConfig, what: str) -> SymplecticMatrix2:
    u = SymplecticMatrix2(*map(float, entries))
    drift = abs(u.det - 1.0)
    if not drift <= cfg.det_tol:
        raise IntegrationError(
            f"{what}: determinant drift {drift:.3e} exceeds {cfg.det_tol:.1e}; "
            "refine the step"
        )
    return u


def integrate(
    profile: BetaProfile,
    tau0: float,
    tau1: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> SymplecticMatrix2:
    """Evolution matrix u(tau1, tau0) for q'' + beta(tau) q = 0.

    RK4 with step h = (tau1 - tau0) / cfg.steps; a Mathieu profile over one
    period tau1 - tau0 = 2pi integrates half a period by reflection
    (_one_period), as mathieu_batch does.  Raises IntegrationError before
    sampling beta if cfg.steps exceeds cfg.max_steps.
    """
    if tau1 < tau0:
        raise ValueError(f"need tau1 >= tau0, got [{tau0}, {tau1}]")
    profile.check_interval(tau0, tau1)
    if tau1 == tau0:
        return SymplecticMatrix2.identity()
    cfg.check_steps(cfg.steps)
    if isinstance(profile, MathieuBeta) and tau1 - tau0 == 2.0 * math.pi:
        u = _one_period(profile.beta_array, tau0, tau1, cfg.steps, 1)
    else:
        u = _rk4(profile.beta_array, tau0, tau1, cfg.steps, 1)
    return _check_det(u.ravel(), cfg, f"integrate over [{tau0}, {tau1}]")


def check_symmetry(profile: BetaProfile, tau: float, n: int = 33, tol: float = 1e-9) -> float:
    """Max |beta(s) - beta(-s)| over a sample grid; raises if above tol."""
    s = np.linspace(0.0, tau, n)
    diff = float(np.max(np.abs(profile.beta_array(s) - profile.beta_array(-s))))
    if diff > tol:
        raise ValueError(
            f"profile is not symmetric about 0: max |beta(s) - beta(-s)| = {diff:.3e}"
        )
    return diff


def integrate_symmetric(
    profile: BetaProfile,
    tau: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> SymplecticMatrix2:
    """u(tau, -tau) for beta even in tau, as U D U^-1 D.

    U = u(tau, 0) and D = diag(1, -1), and D U^-1 D is _reflect(U), so the
    result is [[ad + bc, 2ab], [2cd, ad + bc]] for U = [[a, b], [c, d]]:
    equidiagonal, u11 = u22 = theta'(tau)/2 with theta = u12.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    profile.check_interval(-tau, tau)
    check_symmetry(profile, tau)
    if tau == 0.0:
        return SymplecticMatrix2.identity()
    u = integrate(profile, 0.0, tau, cfg).as_array()
    return _check_det(_mul(u, _reflect(u)).ravel(), cfg, f"symmetric integrate to tau = {tau}")


def monodromy(
    profile: BetaProfile,
    tau0: float,
    period: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> SymplecticMatrix2:
    """One-period evolution matrix u(tau0 + period, tau0).

    The profile must actually be periodic with the given period; this is
    verified structurally for constant/Mathieu profiles and by sampling
    otherwise.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    _verify_periodic(profile, tau0, period)
    return integrate(profile, tau0, tau0 + period, cfg)


def _verify_periodic(profile: BetaProfile, tau0: float, period: float, tol: float = 1e-9):
    if isinstance(profile, ConstantBeta):
        return
    if isinstance(profile, MathieuBeta):
        k = period / (2.0 * math.pi)
        if abs(k - round(k)) > 1e-12 or round(k) == 0:
            raise ValueError(
                f"Mathieu profile has period 2*pi; {period} is not a multiple"
            )
        return
    lo, hi = profile.domain()
    if tau0 < lo or tau0 + 2.0 * period > hi:
        raise ValueError(
            "cannot verify periodicity: domain does not cover one extra period"
        )
    s = np.linspace(tau0, tau0 + period, 17)
    diff = float(np.max(np.abs(profile.beta_array(s + period) - profile.beta_array(s))))
    if diff > tol:
        raise ValueError(f"profile not periodic with period {period}: residual {diff:.3e}")


def classify(
    u: SymplecticMatrix2,
    threshold_band: float = THRESHOLD_BAND,
    det_tol: float = 1e-6,
) -> ZoneReport:
    """Zone classification by the trace Gamma.

    zone I   |Gamma| < 2          stable; eigenvalues on the unit circle
    zone II  |Gamma| = 2 (band)   threshold
    zone III |Gamma| > 2          real reciprocal pair, squeezing axes a+-

    In zone III the left row eigenvectors are returned normalized so that
    a+ has unit Euclidean norm with its first nonzero component positive and
    a- is scaled to make the symplectic pairing a+ J a-^T equal 1.
    """
    gamma = u.require_symplectic(det_tol).trace
    zone = ZONES[zone_codes(gamma, threshold_band)]
    if zone == "II":
        lam = 1.0 if gamma > 0 else -1.0
        return ZoneReport(gamma=gamma, zone="II", lam_plus=complex(lam), lam_minus=complex(lam))
    if zone == "I":
        root = cmath.sqrt(complex(gamma * gamma - 4.0))
        lam_p = (gamma + root) / 2.0
        lam_m = (gamma - root) / 2.0
        return ZoneReport(gamma=gamma, zone="I", lam_plus=lam_p, lam_minus=lam_m)
    root = math.sqrt(gamma * gamma - 4.0)
    lam_p = (gamma + root) / 2.0
    lam_m = (gamma - root) / 2.0
    a_p = _left_eigenvector(u, lam_p)
    a_m = _left_eigenvector(u, lam_m)
    a_p, a_m = _normalize_axes(a_p, a_m)
    return ZoneReport(
        gamma=gamma, zone="III",
        lam_plus=complex(lam_p), lam_minus=complex(lam_m),
        a_plus=a_p, a_minus=a_m,
    )


def _left_eigenvector(u: SymplecticMatrix2, lam: float) -> tuple:
    """Row vector a with a u = lam a."""
    cand1 = (u.u21, lam - u.u11)
    cand2 = (lam - u.u22, u.u12)
    n1 = math.hypot(*cand1)
    n2 = math.hypot(*cand2)
    a = cand1 if n1 >= n2 else cand2
    if max(n1, n2) == 0.0:
        # u is lam * identity; any row vector works
        a = (1.0, 0.0)
    return a


def _normalize_axes(a_p: tuple, a_m: tuple) -> tuple:
    # a+ to unit norm, first nonzero component positive
    norm = math.hypot(*a_p)
    a_p = (a_p[0] / norm, a_p[1] / norm)
    lead = a_p[0] if a_p[0] != 0.0 else a_p[1]
    if lead < 0:
        a_p = (-a_p[0], -a_p[1])
    # a- scaled so that a+ J a-^T = 1 with J = [[0, 1], [-1, 0]]
    pairing = a_p[0] * a_m[1] - a_p[1] * a_m[0]
    if pairing == 0.0:
        raise ValueError("degenerate eigenvector pair; cannot normalize axes")
    a_m = (a_m[0] / pairing, a_m[1] / pairing)
    return a_p, a_m


def apply_to_state(u: SymplecticMatrix2, s: CanonicalState) -> CanonicalState:
    """(q', p')^T = u (q, p)^T."""
    return CanonicalState(
        q=u.u11 * s.q + u.u12 * s.p,
        p=u.u21 * s.q + u.u22 * s.p,
    )


def integrate_path(
    profile: BetaProfile,
    taus,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> list:
    """Cumulative matrices u(tau_i, taus[0]) along an increasing grid.

    Each segment gets max(ceil(length / span * cfg.steps), 8) RK4 steps, so
    the whole span uses about cfg.steps.  Segments with the same step count
    run as one batch of the step-map engine, which gives each the matrix
    integrate() gives it alone, bit for bit; each segment's determinant is
    checked and the segments are composed left to right.
    """
    taus = [float(t) for t in taus]
    if len(taus) < 2:
        raise ValueError("need at least two grid points")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be strictly increasing")
    profile.check_interval(taus[0], taus[-1])
    out = [SymplecticMatrix2.identity()]
    for seg in _rk4_segments(profile, taus, cfg):
        out.append(seg @ out[-1])
    return out


def _rk4_segments(profile: BetaProfile, taus: list, cfg: IntegratorConfig) -> list:
    """Checked RK4 matrices of the segments of taus, batched by step count."""
    span = taus[-1] - taus[0]
    lo = np.array(taus[:-1])
    hi = np.array(taus[1:])
    counts = np.maximum(np.ceil((hi - lo) / span * cfg.steps).astype(int), 8)
    cfg.check_steps(int(counts.sum()))
    entries = np.empty((4, lo.size))
    for n in np.unique(counts):
        idx = np.flatnonzero(counts == n)
        entries[:, idx] = _rk4(profile.beta_array, lo[idx], hi[idx], int(n), 1).reshape(4, -1)
    return [
        _check_det(e, cfg, f"integrate over [{a}, {b}]")
        for a, b, e in zip(taus, taus[1:], entries.T)
    ]


def mathieu_batch(
    beta0,
    beta1,
    tau0: float,
    tau1: float,
    steps: int = DEFAULT_CONFIG.steps,
    phase=None,
):
    """RK4 evolution entries for many (beta0, beta1) pairs at once.

    beta = beta0 + 2 beta1 cos(tau), or cos(tau + phase) with optional
    per-case phase shifts, which is how trace-vs-starting-point checks are
    vectorized.  The pairs are the batch axis of the step-map engine, run
    in chunks of at most _BLOCK_ELEMENTS pairs, so memory stays bounded for
    any batch; each entry equals integrate(MathieuBeta(beta0, beta1), tau0,
    tau1) at the same step count bit for bit, whatever the batch size.
    Without phase, a one-period interval tau1 - tau0 = 2pi integrates half
    a period by reflection (_one_period); phase and every other interval
    take the direct run at h = (tau1 - tau0) / steps.

    Returns four arrays (u11, u12, u21, u22) of the broadcast input shape.
    """
    beta0 = np.asarray(beta0, dtype=float)
    beta1 = np.asarray(beta1, dtype=float)
    shape = np.broadcast_shapes(beta0.shape, beta1.shape)
    beta0 = np.broadcast_to(beta0, shape).ravel()
    two_beta1 = 2.0 * np.broadcast_to(beta1, shape).ravel()
    if phase is not None:
        phase = np.broadcast_to(np.asarray(phase, dtype=float), shape).ravel()
    reflect = phase is None and tau1 - tau0 == 2.0 * math.pi
    out = np.empty((2, 2, beta0.size))
    for c0 in range(0, beta0.size, _BLOCK_ELEMENTS):
        c = slice(c0, c0 + _BLOCK_ELEMENTS)
        b0, tb1 = beta0[c], two_beta1[c]
        ph = None if phase is None else phase[c]

        def beta_at(taus):
            taus = taus[..., None]
            return (b0 + tb1 * np.cos(taus if ph is None else taus + ph)).reshape(len(taus), -1)

        if reflect:
            _one_period(beta_at, tau0, tau1, steps, b0.size, out[..., c])
        else:
            out[..., c] = _rk4(beta_at, tau0, tau1, steps, b0.size)
    return tuple(e.reshape(shape) for e in out.reshape(4, -1))
