"""Laboratory-units layer: scale conversions, trap estimates, field series."""

import math

import numpy as np
import pytest

from softsqueeze.core import CanonicalState, ConstantBeta
from softsqueeze.evolution import IntegratorConfig
from softsqueeze.physical import (
    C_LIGHT,
    ESU_PER_COULOMB,
    SCALING_EXPONENTS,
    PhysicalContext,
    from_dimensionless,
    magnetic_amplitude,
    magnetic_beta,
    paul_voltages,
    radiative_ratio,
    rotating_cylinder_field,
    sampled_field,
    scaling_table,
    sigma_char_default,
    solenoid_coefficient,
    solenoid_correction,
    to_dimensionless,
    trap_energy_ev,
)

RNG = np.random.default_rng(4242)
FAST = IntegratorConfig(steps=2000)

PROTON_1S = PhysicalContext.proton(r0=10.0, T=1.0)


# ---------------------------------------------------------------------------
# context and scale conversion


@pytest.mark.parametrize("field", ["m", "e", "r0", "T", "hbar"])
def test_context_rejects_nonpositive(field):
    kwargs = dict(m=1.0, e=1.0, r0=1.0, T=1.0, hbar=1.0)
    kwargs[field] = 0.0
    with pytest.raises(ValueError, match=field):
        PhysicalContext(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["m", "e", "r0", "T", "hbar"])
def test_context_rejects_non_finite(field, value):
    kwargs = dict(m=1.0, e=1.0, r0=1.0, T=1.0, hbar=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PhysicalContext(**kwargs)


@pytest.mark.parametrize("t_ref,t_list,base", [
    (1.0, [math.nan, 1.0], {"Phi": 1.0}),
    (1.0, [math.inf], {}),
    (math.inf, [1.0], {"B": 2.0}),
    (0.0, [1.0], {}),
    (1.0, [1.0, -1.0], {}),
    (1.0, [1.0], {"ratio": math.nan}),
    (1.0, [1.0], {"Phi": -math.inf}),
])
def test_scaling_table_rejects_bad_time_scales_and_base_values(t_ref, t_list, base):
    # no row may be NaN or infinite, and t_ref = inf must not divide to 0
    with pytest.raises(ValueError, match="must be finite"):
        scaling_table(PROTON_1S, base=base, t_ref=t_ref, t_list=t_list)


def test_proton_constructor_fills_particle_constants():
    ctx = PhysicalContext.proton(r0=3.0, T=0.5)
    assert ctx.r0 == 3.0 and ctx.T == 0.5
    assert ctx.m == pytest.approx(1.6726e-24, rel=1e-4)
    assert ctx.e == pytest.approx(4.8032e-10, rel=1e-4)


def test_proton_length_unit_is_a_quarter_millimeter():
    # sqrt(hbar T/m) for a proton at T = 1 s
    assert PROTON_1S.length_scale == pytest.approx(0.025, rel=5e-3)


def test_proton_length_unit_at_millisecond():
    ctx = PhysicalContext.proton(r0=10.0, T=1e-3)
    assert ctx.length_scale == pytest.approx(8e-4, rel=1e-2)


def test_dimensionless_definitions():
    ctx = PhysicalContext(m=2.0, e=1.0, r0=1.0, T=5.0, hbar=3.0)
    q_d, p_d, tau = to_dimensionless(ctx, q=0.7, p=-1.3, t=2.0)
    assert q_d == pytest.approx(0.7 * math.sqrt(2.0 / (3.0 * 5.0)), rel=1e-14)
    assert p_d == pytest.approx(-1.3 * math.sqrt(5.0 / (3.0 * 2.0)), rel=1e-14)
    assert tau == pytest.approx(0.4, rel=1e-14)


def test_dimensionless_round_trip():
    """from_dimensionless inverts to_dimensionless on random magnitudes."""
    for _ in range(200):
        ctx = PhysicalContext(
            m=10.0 ** RNG.uniform(-24, 0),
            e=10.0 ** RNG.uniform(-10, 0),
            r0=10.0 ** RNG.uniform(-1, 2),
            T=10.0 ** RNG.uniform(-3, 2),
        )
        q, p, t = RNG.normal(size=3) * 10.0 ** RNG.uniform(-5, 5)
        q_d, p_d, tau = to_dimensionless(ctx, q, p, t)
        q2, p2, t2 = from_dimensionless(ctx, q_d, p_d, tau)
        assert q2 == pytest.approx(q, rel=1e-12, abs=1e-300)
        assert p2 == pytest.approx(p, rel=1e-12, abs=1e-300)
        assert t2 == pytest.approx(t, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# trap voltages and magnetic amplitudes


def test_trap_energy_scale_for_wide_proton_trap():
    assert trap_energy_ev(PROTON_1S, omega=1e5) == pytest.approx(1.0423, rel=5e-3)


def test_paul_voltages_reference_point():
    """The (1.217, 0.844) drive in a 10 cm trap at 1e5 1/s lands near
    1.27 / 1.76 V."""
    phi0, phi1 = paul_voltages(PROTON_1S, 1.217, 0.844, omega=1e5)
    assert phi0 == pytest.approx(1.268, rel=5e-3)
    assert phi1 == pytest.approx(1.759, rel=5e-3)


def test_paul_voltages_grow_with_trap_radius():
    small = paul_voltages(PROTON_1S, 1.217, 0.844, omega=1e5)
    big_ctx = PhysicalContext.proton(r0=100.0, T=1.0)
    big = paul_voltages(big_ctx, 1.217, 0.844, omega=1e5)
    assert big[0] == pytest.approx(100.0 * small[0], rel=1e-12)
    assert big[1] == pytest.approx(100.0 * small[1], rel=1e-12)


def test_paul_voltages_vanish_with_betas():
    assert paul_voltages(PROTON_1S, 0.0, 0.0, omega=1e5) == (0.0, 0.0)


def test_paul_voltages_reject_nonpositive_omega():
    with pytest.raises(ValueError):
        paul_voltages(PROTON_1S, 1.0, 1.0, omega=0.0)


def test_magnetic_amplitude_zero_stiffness_zero_field():
    assert magnetic_amplitude(PROTON_1S, 0.0) == 0.0


def test_magnetic_amplitude_order_of_magnitude():
    # beta = 0.587 for a proton at T = 1 s sits at the 1.6e-4 G level
    assert magnetic_amplitude(PROTON_1S, 0.587) == pytest.approx(1.6e-4, rel=1e-2)


def test_magnetic_round_trip():
    for beta in (1e-6, 0.25, 0.587, 3.7, 40.0):
        b = magnetic_amplitude(PROTON_1S, beta)
        assert magnetic_beta(PROTON_1S, b) == pytest.approx(beta, rel=1e-12)


def test_magnetic_amplitude_rejects_negative_stiffness():
    with pytest.raises(ValueError, match="beta"):
        magnetic_amplitude(PROTON_1S, -0.1)


# ---------------------------------------------------------------------------
# scaling table


def test_scaling_exponents_frozen():
    assert SCALING_EXPONENTS == {
        "q": 0.5,
        "p": -0.5,
        "v": -0.5,
        "Phi": -2.0,
        "B": -1.0,
        "ratio": -1.0,
    }


def test_scaling_table_reference_columns():
    """Base magnitudes anchored at T = 1 ms propagate to the quoted
    T = 1 s and T = 100 s values."""
    table = scaling_table(
        PROTON_1S,
        base={"Phi": 0.098, "B": 0.16, "ratio": 7.7e-9},
        t_ref=1e-3,
        t_list=[1e-3, 1.0, 100.0],
    )
    assert table["Phi"][0] == pytest.approx(0.098, rel=1e-12)
    assert table["Phi"][1] == pytest.approx(98e-9, rel=1e-12)
    assert table["B"][1] == pytest.approx(160e-6, rel=1e-12)
    assert table["B"][2] == pytest.approx(1.6e-6, rel=1e-12)
    assert table["ratio"][1] == pytest.approx(7.7e-12, rel=1e-12)
    assert table["ratio"][2] == pytest.approx(7.7e-14, rel=1e-12)


def test_scaling_table_exponent_property():
    t_list = [1e-3, 1.0, 100.0]
    table = scaling_table(
        PROTON_1S,
        base={"Phi": 1.0, "B": 1.0, "ratio": 1.0},
        t_ref=1.0,
        t_list=t_list,
    )
    for key, exp in SCALING_EXPONENTS.items():
        col = table[key]
        for i in range(len(t_list) - 1):
            got = math.log(col[i + 1] / col[i]) / math.log(t_list[i + 1] / t_list[i])
            assert got == pytest.approx(exp, abs=1e-12), key


def test_scaling_table_skips_absent_base_rows():
    table = scaling_table(PROTON_1S, base={}, t_ref=1.0, t_list=[1.0, 2.0])
    assert "Phi" not in table and "B" not in table and "ratio" not in table
    assert set(table) == {"T", "exponents", "q", "p", "v"}


def test_scaling_table_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        scaling_table(PROTON_1S, base={}, t_ref=1.0, t_list=[1.0, -2.0])
    with pytest.raises(ValueError):
        scaling_table(PROTON_1S, base={}, t_ref=0.0, t_list=[1.0])


# ---------------------------------------------------------------------------
# radiative pollution estimate


def test_sigma_char_default_is_proton_characteristic_time():
    sigma = sigma_char_default(PROTON_1S)
    expected = 2.0 * PROTON_1S.e**2 / (3.0 * PROTON_1S.m * C_LIGHT**3)
    assert sigma == pytest.approx(expected, rel=1e-15)
    assert 1e-27 < sigma < 1e-26


def test_radiative_ratio_harmonic_orbit():
    """For constant stiffness kappa^2 the jerk/acceleration ratio is kappa,
    so the estimate reduces to sigma * kappa / T."""
    ratio = radiative_ratio(
        ConstantBeta(4.0),
        CanonicalState(1.0, 0.0),
        PROTON_1S,
        sigma_char=1.0,
        interval=(0.0, 2.0 * math.pi),
        cfg=FAST,
    )
    assert ratio == pytest.approx(2.0, rel=5e-3)


def test_radiative_ratio_scales_inversely_with_time():
    slow = PhysicalContext.proton(r0=10.0, T=100.0)
    args = (ConstantBeta(4.0), CanonicalState(1.0, 0.0))
    kwargs = dict(interval=(0.0, 2.0 * math.pi), cfg=FAST)
    r1 = radiative_ratio(*args, PROTON_1S, **kwargs)
    r100 = radiative_ratio(*args, slow, **kwargs)
    assert r1 / r100 == pytest.approx(100.0, rel=1e-12)


def test_radiative_ratio_zero_sigma():
    ratio = radiative_ratio(
        ConstantBeta(1.0),
        CanonicalState(1.0, 0.0),
        PROTON_1S,
        sigma_char=0.0,
        interval=(0.0, 1.0),
        cfg=FAST,
    )
    assert ratio == 0.0


def test_radiative_ratio_rejects_negative_sigma():
    with pytest.raises(ValueError):
        radiative_ratio(
            ConstantBeta(1.0),
            CanonicalState(1.0, 0.0),
            PROTON_1S,
            sigma_char=-1.0,
            interval=(0.0, 1.0),
        )


def test_radiative_ratio_undefined_without_acceleration():
    with pytest.raises(ValueError, match="zero acceleration"):
        radiative_ratio(
            ConstantBeta(0.0),
            CanonicalState(1.0, 0.0),
            PROTON_1S,
            sigma_char=1.0,
            interval=(0.0, 1.0),
            cfg=FAST,
        )


def test_radiative_ratio_requires_interval_on_unbounded_profile():
    with pytest.raises(ValueError, match="unbounded"):
        radiative_ratio(ConstantBeta(1.0), CanonicalState(1.0, 0.0), PROTON_1S)


# ---------------------------------------------------------------------------
# solenoid radial corrections


def test_solenoid_coefficient_closed_form():
    assert solenoid_coefficient(0) == 1.0
    assert solenoid_coefficient(1) == pytest.approx(1.0 / 8.0, rel=1e-15)
    assert solenoid_coefficient(2) == pytest.approx(1.0 / 192.0, rel=1e-15)
    with pytest.raises(ValueError):
        solenoid_coefficient(-1)
    # the denominator overflows a float well before k = 170, where (k+1)!
    # itself stops converting to one; the true value underflows
    assert solenoid_coefficient(169) == 0.0
    assert solenoid_coefficient(170) == 0.0
    assert solenoid_coefficient(400) == 0.0


def test_solenoid_coefficient_recurrence():
    """The closed form satisfies c_{n+1} = c_n / (4 (n+1)(n+2)), which is
    what substituting the series into the wave equation demands."""
    for n in range(6):
        lhs = solenoid_coefficient(n + 1)
        rhs = solenoid_coefficient(n) / (4.0 * (n + 1) * (n + 2))
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_solenoid_constant_field_needs_no_correction():
    b_fn = lambda tau, d: 5.0 if d == 0 else 0.0
    for order in (0, 1, 2, 3):
        got = solenoid_correction(b_fn, r=5.0, tau=0.3, ctx=PROTON_1S, order=order)
        assert got == 5.0


def _cosine_field(amp, rate):
    """d-th derivative of amp*cos(rate*tau) via the quarter-turn phase shift."""
    return lambda tau, d: amp * rate**d * math.cos(rate * tau + d * math.pi / 2.0)


def test_solenoid_first_correction_term():
    amp, rate, tau, r = 2.0, 3.0, 0.4, 5.0
    b_fn = _cosine_field(amp, rate)
    x = (r / (C_LIGHT * PROTON_1S.T)) ** 2
    expected = b_fn(tau, 0) + 0.125 * x * (-amp * rate**2 * math.cos(rate * tau))
    got = solenoid_correction(b_fn, r=r, tau=tau, ctx=PROTON_1S, order=1)
    assert got == pytest.approx(expected, rel=1e-12)


def test_solenoid_second_order_adds_fourth_derivative():
    amp, rate, tau, r = 2.0, 3.0, 0.4, 5.0
    b_fn = _cosine_field(amp, rate)
    x = (r / (C_LIGHT * PROTON_1S.T)) ** 2
    first = solenoid_correction(b_fn, r=r, tau=tau, ctx=PROTON_1S, order=1)
    second = solenoid_correction(b_fn, r=r, tau=tau, ctx=PROTON_1S, order=2)
    k2 = solenoid_coefficient(2) * x**2 * b_fn(tau, 4)
    assert second - first == pytest.approx(k2, rel=1e-10)


def test_solenoid_rejects_radius_outside_bore():
    b_fn = _cosine_field(1.0, 1.0)
    with pytest.raises(ValueError, match="bore"):
        solenoid_correction(b_fn, r=11.0, tau=0.0, ctx=PROTON_1S)
    with pytest.raises(ValueError, match="bore"):
        solenoid_correction(b_fn, r=-1.0, tau=0.0, ctx=PROTON_1S)


def test_solenoid_rejects_negative_order():
    with pytest.raises(ValueError):
        solenoid_correction(_cosine_field(1.0, 1.0), r=1.0, tau=0.0,
                            ctx=PROTON_1S, order=-1)


def test_solenoid_wraps_missing_derivatives():
    def b_fn(tau, d):
        if d >= 2:
            raise RuntimeError("only sampled to first order")
        return 1.0

    with pytest.raises(ValueError, match="derivative order 2"):
        solenoid_correction(b_fn, r=1.0, tau=0.0, ctx=PROTON_1S, order=1)


def test_sampled_field_reproduces_polynomial_derivatives():
    taus = np.linspace(0.0, 2.0, 25)
    b_fn = sampled_field(taus, taus**4)
    assert b_fn(1.0, 0) == pytest.approx(1.0, rel=1e-8)
    assert b_fn(1.0, 2) == pytest.approx(12.0, rel=1e-8)
    assert b_fn(1.0, 4) == pytest.approx(24.0, rel=1e-8)


def test_sampled_field_refuses_excess_derivative():
    taus = np.linspace(0.0, 2.0, 25)
    b_fn = sampled_field(taus, taus**2)
    with pytest.raises(ValueError, match="derivative 5"):
        b_fn(1.0, 5)


def test_sampled_field_in_correction_matches_analytic():
    amp, rate = 1.5, 2.0
    taus = np.linspace(0.0, math.pi, 400)
    sampled = sampled_field(taus, amp * np.cos(rate * taus))
    analytic = _cosine_field(amp, rate)
    for tau in (0.8, 1.6, 2.4):
        got = solenoid_correction(sampled, r=5.0, tau=tau, ctx=PROTON_1S, order=2)
        want = solenoid_correction(analytic, r=5.0, tau=tau, ctx=PROTON_1S, order=2)
        assert got == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# rotating charged cylinder


def test_cylinder_field_literal_convention():
    b = rotating_cylinder_field(1.0, ESU_PER_COULOMB)
    assert b == pytest.approx(4.0 * math.pi / 10.0, rel=1e-12)
    assert b == pytest.approx(1.2556, rel=1e-2)


def test_cylinder_field_standard_convention_differs_by_two_pi():
    lit = rotating_cylinder_field(3.0, 2.0e9)
    std = rotating_cylinder_field(3.0, 2.0e9, standard_convention=True)
    assert lit / std == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_cylinder_field_linearity():
    base = rotating_cylinder_field(1.0, 1.0e9)
    assert rotating_cylinder_field(2.0, 1.0e9) == pytest.approx(2.0 * base, rel=1e-14)
    assert rotating_cylinder_field(1.0, 0.0) == 0.0


def test_cylinder_field_rejects_negative_inputs():
    with pytest.raises(ValueError):
        rotating_cylinder_field(-1.0, 1.0)
    with pytest.raises(ValueError):
        rotating_cylinder_field(1.0, -1.0)
