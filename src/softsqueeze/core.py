"""Value types and closed-form symplectic building blocks.

Everything in this module is exact arithmetic: 2x2 real matrices with unit
determinant, the stiffness profiles beta(tau) that drive the integrators,
and the handful of closed-form evolution matrices (rotations, free motion,
squeezed Fourier maps) used as oracles elsewhere.  No numerical integration
happens here.  A profile samples beta only through its vectorised
beta_array; beta(tau) is one sample of it.

Conventions: the state is the column vector (q, p)^T, so row 1 of a matrix
acts on q and row 2 on p.  In particular u12 = 0 means the final position is
decoupled from the initial momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Determinant tolerance of closed forms, which are exact up to rounding.
ANALYTIC_DET_TOL = 1e-12
# _det_gate's rounding floor per unit of |u11 u22| + |u12 u21|: 4 eps, where
# correct scan and evolve results with large entries drift by up to 1.2 eps.
DET_ROUNDING = 4.0 * float(np.finfo(float).eps)


def _det_gate(u11, u12, u21, u22, tol: float):
    """Determinant gate of 2x2 matrices, elementwise over arrays.

    Returns (ok, drift, floor) with drift = |u11 u22 - u12 u21 - 1| and
    floor = DET_ROUNDING (|u11 u22| + |u12 u21|): rounding alone moves
    a computed determinant by about eps (|u11 u22| + |u12 u21|) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1), so
    with entries in the thousands no step count brings drift under a fixed
    tol.  ok is drift - floor <= tol, which is False for NaN and, as
    inf - inf is NaN, for infinite entries.  A leaf check run once per
    checked matrix, not a layer, so it stays out of the public names that
    bench/spans.py traces.
    """
    uu, vv = u11 * u22, u12 * u21
    drift = abs(uu - vv - 1.0)
    floor = DET_ROUNDING * (abs(uu) + abs(vv))
    return drift - floor <= tol, drift, floor


def _csv_rows(*columns) -> str:
    """One line per row of the equal-length columns, joined: every command's
    CSV rows.  A float column is written %.12g, any other (an index, a
    label) %s.  Private, as _det_gate is, so bench/spans.py does not time
    each call."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    return "".join(map(row.__mod__, zip(*[c.tolist() for c in columns], strict=True)))


@dataclass(frozen=True)
class SymplecticMatrix2:
    """2x2 real evolution matrix; row 1 maps q, row 2 maps p."""

    u11: float
    u12: float
    u21: float
    u22: float

    @property
    def det(self) -> float:
        return self.u11 * self.u22 - self.u12 * self.u21

    @property
    def trace(self) -> float:
        return self.u11 + self.u22

    def require_symplectic(self, tol: float = ANALYTIC_DET_TOL) -> "SymplecticMatrix2":
        """Return self if it passes _det_gate at tol, else raise ValueError."""
        ok, drift, floor = _det_gate(self.u11, self.u12, self.u21, self.u22, tol)
        if not ok:
            raise ValueError(
                f"matrix is not symplectic: |det - 1| = {drift:.3e} exceeds "
                f"{tol:.1e} + rounding floor {floor:.1e}"
            )
        return self

    def __matmul__(self, other: "SymplecticMatrix2") -> "SymplecticMatrix2":
        return SymplecticMatrix2(
            self.u11 * other.u11 + self.u12 * other.u21,
            self.u11 * other.u12 + self.u12 * other.u22,
            self.u21 * other.u11 + self.u22 * other.u21,
            self.u21 * other.u12 + self.u22 * other.u22,
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.u11, self.u12], [self.u21, self.u22]], dtype=float)

    @classmethod
    def from_array(cls, a) -> "SymplecticMatrix2":
        a = np.asarray(a, dtype=float)
        if a.shape != (2, 2):
            raise ValueError(f"expected a 2x2 array, got shape {a.shape}")
        return cls(float(a[0, 0]), float(a[0, 1]), float(a[1, 0]), float(a[1, 1]))

    @classmethod
    def identity(cls) -> "SymplecticMatrix2":
        return cls(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class CanonicalState:
    """Dimensionless canonical pair (q, p)."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError(f"canonical state must be finite, got ({self.q}, {self.p})")


def rotation_matrix(kappa: float, dtau: float) -> SymplecticMatrix2:
    """Evolution over dtau at constant beta = kappa^2 > 0.

    [[cos(k t), sin(k t)/k], [-k sin(k t), cos(k t)]] with k = kappa,
    t = dtau.  Use free_motion for the kappa -> 0 limit.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}; use free_motion for beta = 0")
    ang = kappa * dtau
    c = math.cos(ang)
    s = math.sin(ang)
    return SymplecticMatrix2(c, s / kappa, -kappa * s, c)


def free_motion(dtau: float) -> SymplecticMatrix2:
    """Evolution over dtau at beta = 0: shear [[1, dtau], [0, 1]]."""
    return SymplecticMatrix2(1.0, dtau, 0.0, 1.0)


def squeezed_fourier(b: float) -> SymplecticMatrix2:
    """Traceless exchange map [[0, b], [-1/b, 0]].

    b = 1 is the plain Fourier transform of phase space; general b swaps a
    scaled position for momentum.
    """
    if b == 0.0:
        raise ValueError("squeezed Fourier magnitude b must be nonzero")
    return SymplecticMatrix2(0.0, b, -1.0 / b, 0.0)


def squeeze_compose(kappa1: float, kappa2: float) -> SymplecticMatrix2:
    """Pure squeeze diag(lambda, 1/lambda), lambda = -kappa2/kappa1.

    Equals the product of the two quarter-period rotations F(1/kappa1) and
    F(1/kappa2); the closed form avoids the intermediate roundoff.
    """
    if kappa1 <= 0.0 or kappa2 <= 0.0:
        raise ValueError(f"kappas must be positive, got ({kappa1}, {kappa2})")
    lam = -kappa2 / kappa1
    return SymplecticMatrix2(lam, 0.0, 0.0, 1.0 / lam)


def is_equidiagonal(u: SymplecticMatrix2, tol: float = 1e-10) -> bool:
    """True if |u11 - u22| <= tol."""
    return abs(u.u11 - u.u22) <= tol


def symmetric_product(vs, tol: float = 1e-9) -> SymplecticMatrix2:
    """Toeplitz-symmetric product vn ... v1 v0 v1 ... vn.

    Every factor must itself be equidiagonal; the product of equidiagonal
    symplectic matrices arranged symmetrically is again equidiagonal, which
    is the algebraic backbone of the inverse pulse design.
    """
    vs = list(vs)
    if not vs:
        raise ValueError("symmetric_product needs at least one matrix")
    for i, v in enumerate(vs):
        if not is_equidiagonal(v, tol):
            raise ValueError(
                f"factor {i} is not equidiagonal: |u11 - u22| = {abs(v.u11 - v.u22):.3e}"
            )
    out = vs[0]
    for v in vs[1:]:
        out = v @ out @ v
    return out


# ---------------------------------------------------------------------------
# Stiffness profiles


class BetaProfile:
    """Stiffness beta(tau) for q'' + beta(tau) q = 0.

    Subclasses provide `beta_array`, the one sampler, and a declared
    domain; `beta(tau)` is one sample of it.  Profiles are immutable and
    cheap to share.
    """

    kind = "abstract"

    def beta(self, tau: float) -> float:
        return float(self.beta_array(np.array([tau], dtype=float))[0])

    def beta_array(self, taus) -> np.ndarray:
        raise NotImplementedError

    def domain(self):
        """(lo, hi) interval of validity; infinite for unbounded profiles."""
        return (-math.inf, math.inf)

    def check_interval(self, t0: float, t1: float):
        """Raise ValueError if t0 or t1 lies outside the domain."""
        lo, hi = self.domain()
        # small slack for roundoff at interval ends
        slack = 1e-12 * max(1.0, abs(lo), abs(hi)) if math.isfinite(lo) else 0.0
        for tau in (t0, t1):
            if tau < lo - slack or tau > hi + slack:
                raise ValueError(f"tau = {tau} outside profile domain [{lo}, {hi}]")

    def _check_samples(self, taus: np.ndarray):
        if taus.size:
            self.check_interval(float(taus.min()), float(taus.max()))

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantBeta(BetaProfile):
    value: float
    kind = "constant"

    def beta_array(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        return np.full(taus.shape, self.value)

    def to_json_dict(self) -> dict:
        return {"kind": "constant", "beta": self.value}


@dataclass(frozen=True)
class MathieuBeta(BetaProfile):
    """beta(tau) = beta0 + 2 beta1 cos(tau); 2pi-periodic by construction."""

    beta0: float
    beta1: float
    kind = "mathieu"

    def beta_array(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        return self.beta0 + 2.0 * self.beta1 * np.cos(taus)

    def to_json_dict(self) -> dict:
        return {"kind": "mathieu", "beta0": self.beta0, "beta1": self.beta1}


class SampledBeta(BetaProfile):
    """Spline interpolation through (tau, beta) samples.

    Cubic by default so that beta is twice differentiable, which downstream
    validity checks rely on.
    """

    kind = "sampled"

    def __init__(self, taus, values, order: int = 3):
        from scipy.interpolate import InterpolatedUnivariateSpline

        taus = np.asarray(taus, dtype=float)
        values = np.asarray(values, dtype=float)
        if taus.ndim != 1 or taus.shape != values.shape:
            raise ValueError("sampled profile needs matching 1-d tau and beta arrays")
        if taus.size < order + 1:
            raise ValueError(f"need at least {order + 1} samples for order {order}")
        if np.any(np.diff(taus) <= 0):
            raise ValueError("tau samples must be strictly increasing")
        self.taus = taus
        self.values = values
        self.order = int(order)
        self._spline = InterpolatedUnivariateSpline(taus, values, k=self.order)

    def beta_array(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        self._check_samples(taus)
        return self._spline(taus)

    def domain(self):
        return (float(self.taus[0]), float(self.taus[-1]))

    def to_json_dict(self) -> dict:
        return {
            "kind": "sampled",
            "tau": self.taus.tolist(),
            "beta": self.values.tolist(),
            "order": self.order,
        }


class CompositeBeta(BetaProfile):
    """Piecewise profile over contiguous, non-overlapping intervals.

    pieces: ordered list of (t0, t1, BetaProfile).  A boundary point belongs
    to the earlier piece in beta_array.  The integrators do not sample
    across a join: a run restarts at every join inside it, each part
    sampling its own piece, so a part that starts on a join takes its
    sample there from the later piece (evolution._split).  The pieces of a
    designed pulse agree at their joins to rounding.
    """

    kind = "composite"

    def __init__(self, pieces):
        pieces = [(float(t0), float(t1), prof) for (t0, t1, prof) in pieces]
        if not pieces:
            raise ValueError("composite profile needs at least one piece")
        for t0, t1, _ in pieces:
            if not t1 > t0:
                raise ValueError(f"piece interval [{t0}, {t1}] is not increasing")
        for (_, t1a, _), (t0b, _, _) in zip(pieces, pieces[1:]):
            if abs(t0b - t1a) > 1e-12 * max(1.0, abs(t1a)):
                raise ValueError(
                    f"pieces are not contiguous: gap between {t1a} and {t0b}"
                )
        for t0, t1, prof in pieces:
            prof.check_interval(t0, t1)
        self.pieces = pieces
        self._starts = np.array([t0 for t0, _, _ in pieces])

    def beta_array(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        self._check_samples(taus)
        out = np.empty(taus.shape)
        # boundary points route to the earlier piece
        idx = np.searchsorted(self._starts, taus, side="left") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        for k, (_, _, prof) in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = prof.beta_array(taus[mask])
        return out

    def domain(self):
        return (self.pieces[0][0], self.pieces[-1][1])

    def to_json_dict(self) -> dict:
        return {
            "kind": "composite",
            "pieces": [
                {"from": t0, "to": t1, "profile": prof.to_json_dict()}
                for t0, t1, prof in self.pieces
            ],
        }


def profile_from_dict(d: dict) -> BetaProfile:
    """Build a BetaProfile from its JSON dict form (see profile docs in cli)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("profile JSON must be an object with a 'kind' field")
    kind = d["kind"]

    def finite(key, default=None, convert=float):
        """convert(d[key]), or convert(default) for an absent key if a default
        is given; ValueError unless every number in it is finite."""
        value = convert(d[key] if default is None else d.get(key, default))
        if not np.isfinite(value).all():
            raise ValueError(f"profile JSON for kind '{kind}': '{key}' must be finite")
        return value

    try:
        if kind == "constant":
            return ConstantBeta(finite("beta"))
        if kind == "mathieu":
            return MathieuBeta(finite("beta0"), finite("beta1"))
        if kind == "sampled":
            taus, betas = (finite(key, convert=np.asarray) for key in ("tau", "beta"))
            return SampledBeta(taus, betas, int(d.get("order", 3)))
        if kind == "composite":
            pieces = [
                (p["from"], p["to"], profile_from_dict(p["profile"]))
                for p in d["pieces"]
            ]
            return CompositeBeta(pieces)
        if kind == "theta":
            from .design import ThetaAnsatz, ThetaDerivedBeta

            ansatz = ThetaAnsatz.from_targets(finite("b"), finite("beta0"))
            return ThetaDerivedBeta(ansatz, offset=finite("offset", 0.0))
    except KeyError as exc:
        raise ValueError(f"profile JSON for kind '{kind}' missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"profile JSON for kind '{kind}' has a wrong-type field: {exc}") from exc
    raise ValueError(f"unknown profile kind '{kind}'")


def profile_from_json(text: str) -> BetaProfile:
    import json

    return profile_from_dict(json.loads(text))
