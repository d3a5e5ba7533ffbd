"""Dimensional bridge between the dimensionless designs and the laboratory.

Everything internal is Gaussian CGS; volts and other SI-facing units appear
only at the interface.  The dimensionless reduction uses a particle of mass
m and charge e in a trap of radius r0 with time measured in units of T:

    q_d = q sqrt(m/(hbar T)),  p_d = p sqrt(T/(hbar m)),  tau = t/T.

The drive amplitudes map back through beta0 = e Phi0 T^2/(m r0^2) type
relations; for the oscillating quadrupole at angular rate omega = 1/T these
reduce to the voltage formulas in paul_voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BetaProfile, CanonicalState
from . import evolution
from .evolution import DEFAULT_CONFIG, IntegratorConfig

# CGS constants
C_LIGHT = 2.99792458e10          # cm/s
HBAR = 1.054571817e-27           # erg s
M_PROTON = 1.67262192369e-24     # g
E_CHARGE = 4.80320471e-10        # esu (proton charge)
ESU_PER_COULOMB = 2.99792458e9
STATVOLT_IN_VOLT = 299.792458
ERG_PER_EV = 1.602176634e-12

# Exact power laws in the time scale T for the quantities reported in the
# standard conditions table.
SCALING_EXPONENTS = {
    "q": 0.5,
    "p": -0.5,
    "v": -0.5,
    "Phi": -2.0,
    "B": -1.0,
    "ratio": -1.0,
}


@dataclass(frozen=True)
class PhysicalContext:
    """Particle and trap scales, Gaussian CGS."""

    m: float            # g
    e: float            # esu
    r0: float           # cm
    T: float            # s
    hbar: float = HBAR  # erg s

    def __post_init__(self):
        for name in ("m", "e", "r0", "T", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @classmethod
    def proton(cls, r0: float, T: float) -> "PhysicalContext":
        return cls(m=M_PROTON, e=E_CHARGE, r0=r0, T=T)

    @property
    def length_scale(self) -> float:
        """cm per dimensionless position unit: sqrt(hbar T/m)."""
        return math.sqrt(self.hbar * self.T / self.m)

    @property
    def momentum_scale(self) -> float:
        """g cm/s per dimensionless momentum unit: sqrt(hbar m/T)."""
        return math.sqrt(self.hbar * self.m / self.T)


def to_dimensionless(ctx: PhysicalContext, q: float, p: float, t: float) -> tuple:
    """(q cm, p g cm/s, t s) -> dimensionless (q_d, p_d, tau)."""
    return (q / ctx.length_scale, p / ctx.momentum_scale, t / ctx.T)


def from_dimensionless(ctx: PhysicalContext, q_d: float, p_d: float, tau: float) -> tuple:
    """Inverse of to_dimensionless."""
    return (q_d * ctx.length_scale, p_d * ctx.momentum_scale, tau * ctx.T)


def trap_energy_ev(ctx: PhysicalContext, omega: float) -> float:
    """The voltage scale omega^2 r0^2 m expressed in eV."""
    return omega**2 * ctx.r0**2 * ctx.m / ERG_PER_EV


def paul_voltages(ctx: PhysicalContext, beta0: float, beta1: float, omega: float) -> tuple:
    """Static and drive voltages (volts) realizing (beta0, beta1) at omega.

    Phi0 = beta0 omega^2 r0^2 m/e and Phi1 = 2 beta1 omega^2 r0^2 m/e,
    converted from statvolt.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    base = omega**2 * ctx.r0**2 * ctx.m / ctx.e  # statvolt
    return (
        beta0 * base * STATVOLT_IN_VOLT,
        2.0 * beta1 * base * STATVOLT_IN_VOLT,
    )


def magnetic_amplitude(ctx: PhysicalContext, beta: float) -> float:
    """Solenoid field (gauss) realizing a given beta: B = (2 m c/(e T)) sqrt(beta)."""
    if beta < 0:
        raise ValueError(
            f"magnetic stiffness needs beta >= 0, got {beta}; the squared "
            "Larmor rate cannot be negative"
        )
    return 2.0 * ctx.m * C_LIGHT / (ctx.e * ctx.T) * math.sqrt(beta)


def magnetic_beta(ctx: PhysicalContext, b_gauss: float) -> float:
    """Inverse of magnetic_amplitude: beta = (e T B/(2 m c))^2."""
    return (ctx.e * ctx.T * b_gauss / (2.0 * ctx.m * C_LIGHT)) ** 2


def scaling_table(ctx: PhysicalContext, base: dict, t_ref: float, t_list) -> dict:
    """Laboratory magnitudes across time scales T.

    q, p, v rows come straight from the context scales; Phi, B and the
    radiative ratio scale from caller-supplied base values at t_ref with
    the exact exponents in SCALING_EXPONENTS (their absolute normalization
    is a convention of the source design, not derivable here).
    """
    t_list = [float(t) for t in t_list]
    if not all(math.isfinite(t) and t > 0 for t in (t_ref, *t_list)):
        raise ValueError("time scales must be finite and positive, got "
                         f"t_ref {t_ref}, T {t_list}")
    if not all(map(math.isfinite, base.values())):
        raise ValueError(f"base values must be finite, got {base}")
    out = {"T": t_list, "exponents": dict(SCALING_EXPONENTS)}
    out["q"] = [math.sqrt(ctx.hbar * t / ctx.m) for t in t_list]
    out["p"] = [math.sqrt(ctx.hbar * ctx.m / t) for t in t_list]
    out["v"] = [math.sqrt(ctx.hbar * ctx.m / t) / ctx.m for t in t_list]
    for key in ("Phi", "B", "ratio"):
        if key in base:
            exp = SCALING_EXPONENTS[key]
            out[key] = [base[key] * (t / t_ref) ** exp for t in t_list]
    return out


def sigma_char_default(ctx: PhysicalContext) -> float:
    """Radiative characteristic time 2 e^2/(3 m c^3) for the context particle."""
    return 2.0 * ctx.e**2 / (3.0 * ctx.m * C_LIGHT**3)


def radiative_ratio(
    profile: BetaProfile,
    init: CanonicalState,
    ctx: PhysicalContext,
    sigma_char: Optional[float] = None,
    interval: Optional[tuple] = None,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    n_samples: int = 2001,
) -> float:
    """Time-averaged radiative pollution <|x'''|>/<|x''|> * sigma/T.

    The trajectory is transported along the pulse; the second derivative is
    -beta q from the equation of motion, the third -(beta' q + beta p).
    beta' comes from a central difference on the sample grid, which is
    ample for an order-of-magnitude pollution estimate.
    """
    if sigma_char is None:
        sigma_char = sigma_char_default(ctx)
    if sigma_char < 0:
        raise ValueError("sigma_char must be nonnegative")
    if interval is None:
        lo, hi = profile.domain()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("profile domain is unbounded; pass interval=")
    else:
        lo, hi = float(interval[0]), float(interval[1])
    taus = np.linspace(lo, hi, n_samples)
    mats = evolution.integrate_path(profile, taus, cfg)
    qs = np.array([u.u11 * init.q + u.u12 * init.p for u in mats])
    ps = np.array([u.u21 * init.q + u.u22 * init.p for u in mats])
    betas = profile.beta_array(taus)
    dbetas = np.gradient(betas, taus)
    acc = -betas * qs
    jerk = -(dbetas * qs + betas * ps)
    mean_acc = float(np.mean(np.abs(acc)))
    if mean_acc == 0.0:
        raise ValueError("trajectory has zero acceleration; ratio undefined")
    return sigma_char / ctx.T * float(np.mean(np.abs(jerk))) / mean_acc


def solenoid_coefficient(k: int) -> float:
    """Radial-correction series coefficient 1/(4^k k! (k+1)!), or 0.0 once
    the denominator overflows a float, where the true value underflows."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    try:
        return 1.0 / (4.0**k * math.factorial(k) * math.factorial(k + 1))
    except OverflowError:
        return 0.0


def solenoid_correction(
    b_fn,
    r: float,
    tau: float,
    ctx: PhysicalContext,
    order: int = 1,
) -> float:
    """Field at radius r inside a slowly driven solenoid.

    b_fn(tau, d) must return the d-th tau-derivative of the axis field
    (gauss); derivatives up to 2*order are used:

        B(r, tau) = sum_k c_k (r/(c T))^(2k) d^(2k)B/dtau^(2k),  c_k as in
        solenoid_coefficient.

    The k = 1 term is (1/8)(r/(cT))^2 B''.
    """
    if r < 0 or r > ctx.r0:
        raise ValueError(f"radius {r} outside the solenoid bore [0, {ctx.r0}]")
    if order < 0:
        raise ValueError("order must be nonnegative")
    x = (r / (C_LIGHT * ctx.T)) ** 2
    total = 0.0
    for k in range(order + 1):
        try:
            deriv = float(b_fn(tau, 2 * k))
        except Exception as exc:
            raise ValueError(
                f"field profile cannot supply derivative order {2 * k}: {exc}"
            ) from exc
        total += solenoid_coefficient(k) * x**k * deriv
    return total


def sampled_field(taus, values, spline_order: int = 5):
    """(tau, d) callable built from samples, for solenoid_correction.

    A spline of order 5 supports derivatives up to 4, i.e. corrections to
    order 2; asking beyond that raises.
    """
    from scipy.interpolate import InterpolatedUnivariateSpline

    spline = InterpolatedUnivariateSpline(np.asarray(taus, float),
                                          np.asarray(values, float),
                                          k=spline_order)

    def b_fn(tau, d=0):
        if d > spline_order - 1:
            raise ValueError(
                f"sampled field of spline order {spline_order} cannot give "
                f"derivative {d}"
            )
        return float(spline.derivative(d)(tau)) if d else float(spline(tau))

    return b_fn


def rotating_cylinder_field(omega: float, q_lin: float,
                            standard_convention: bool = False) -> float:
    """Axial field (gauss) of a rotating charged cylinder.

    B = 4 pi omega Q_lin/c with Q_lin the charge per unit axial length
    (esu/cm).  The surface-current derivation differs by 2 pi; pass
    standard_convention=True for B = 2 omega Q_lin/c.
    """
    if omega < 0 or q_lin < 0:
        raise ValueError("omega and Q_lin must be nonnegative")
    if standard_convention:
        return 2.0 * omega * q_lin / C_LIGHT
    return 4.0 * math.pi * omega * q_lin / C_LIGHT
