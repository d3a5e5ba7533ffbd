"""Inverse pulse design: coefficients, beta evaluation, lemma checks,
pulse assembly, verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softsqueeze import design, evolution
from softsqueeze.core import ConstantBeta
from softsqueeze.design import (
    ConstantTail,
    SingularityError,
    ThetaAnsatz,
    ThetaDerivedBeta,
    beta_from_theta,
    build_chain,
    quarter_period,
    theta_eval,
    validate_lemma,
    verify_design,
)
from softsqueeze.evolution import IntegratorConfig, integrate, integrate_symmetric

RNG = np.random.default_rng(3141)
PI = math.pi
HALF_PI = PI / 2
CFG = IntegratorConfig(steps=4000)


# ---------------------------------------------------------------------------
# coefficients


def test_coeffs_closed_form_b2():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    assert a.a1 == pytest.approx(33.0 / 16.0, abs=1e-14)
    assert a.a3 == pytest.approx(1.0 / 32.0, abs=1e-14)
    assert a.a5 == pytest.approx(-1.0 / 32.0, abs=1e-14)


def test_coeffs_closed_form_b_5_3():
    a = ThetaAnsatz.from_targets(5.0 / 3.0, 0.0)
    assert a.a1 == pytest.approx(1.7375, abs=1e-12)
    assert a.a3 == pytest.approx(0.0770833333333, abs=1e-12)
    assert a.a5 == pytest.approx(0.00625, abs=1e-12)


def test_coeffs_match_independent_solve():
    # same 3x3 system solved a second way (explicit inverse via Cramer)
    for _ in range(20):
        b = RNG.uniform(0.1, 10.0) * RNG.choice([-1.0, 1.0])
        beta0 = RNG.uniform(-5.0, 5.0)
        a = ThetaAnsatz.from_targets(b, beta0)
        m = np.array([[1.0, 3.0, 5.0], [1.0, -1.0, 1.0], [-1.0, 9.0, -25.0]])
        rhs = np.array([2.0, b, -2.0 / b - 2.0 * b * beta0])
        det_m = np.linalg.det(m)
        cramer = [
            np.linalg.det(np.column_stack(
                [rhs if k == j else m[:, k] for k in range(3)])) / det_m
            for j in range(3)
        ]
        assert a.a1 == pytest.approx(cramer[0], rel=1e-10)
        assert a.a3 == pytest.approx(cramer[1], rel=1e-10, abs=1e-12)
        assert a.a5 == pytest.approx(cramer[2], rel=1e-10, abs=1e-12)


def test_coeffs_residuals_fig4_parameters():
    a = ThetaAnsatz.from_targets(1.99, 0.28)
    assert max(abs(r) for r in a.residuals()) < 1e-12


def test_coeffs_reject_zero_b():
    with pytest.raises(ValueError):
        ThetaAnsatz.from_targets(0.0, 1.0)


# ---------------------------------------------------------------------------
# theta evaluation


def test_theta_basic_values():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    assert theta_eval(a, 0.0) == 0.0
    assert theta_eval(a, 0.0, 1) == pytest.approx(2.0, abs=1e-14)
    assert theta_eval(a, HALF_PI) == pytest.approx(a.b, abs=1e-14)
    assert theta_eval(a, HALF_PI, 1) == pytest.approx(0.0, abs=1e-14)


def test_theta_third_derivative_at_zero():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    # -(a1 + 27 a3 + 125 a5)
    assert theta_eval(a, 0.0, 3) == pytest.approx(1.0, abs=1e-12)


def test_theta_is_odd():
    a = ThetaAnsatz.from_targets(1.7, 0.3)
    taus = RNG.uniform(0.0, HALF_PI, size=32)
    assert np.allclose(theta_eval(a, taus), -theta_eval(a, -taus), atol=1e-14)


def test_theta_derivative_order_validation():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    with pytest.raises(ValueError):
        theta_eval(a, 0.0, 4)


def test_theta_derivatives_against_finite_differences():
    a = ThetaAnsatz.from_targets(1.3, -0.4)
    h = 1e-5
    for tau in (0.3, 1.0, 1.4):
        for order in (1, 2, 3):
            fd = (theta_eval(a, tau + h, order - 1)
                  - theta_eval(a, tau - h, order - 1)) / (2 * h)
            assert theta_eval(a, tau, order) == pytest.approx(fd, abs=5e-9)


# ---------------------------------------------------------------------------
# beta from theta


def test_beta_edge_value_is_beta0():
    for b, beta0 in ((2.0, 0.0), (1.99, 0.28), (5.0 / 3.0, 0.0), (0.7, -1.1)):
        a = ThetaAnsatz.from_targets(b, beta0)
        assert beta_from_theta(a, HALF_PI) == pytest.approx(beta0, abs=1e-12)


def test_beta_limit_at_origin():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    # theta'(0) = 2, theta'''(0) = 1 so the limit is -2*1/16
    assert beta_from_theta(a, 0.0) == pytest.approx(-0.125, abs=1e-14)


def test_beta_limit_matches_extrapolation_oracle():
    # Richardson in h^2 from regular-branch evaluations approaching 0
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    h = 4e-3
    b_h = beta_from_theta(a, h)
    b_h2 = beta_from_theta(a, h / 2)
    extrap = (4.0 * b_h2 - b_h) / 3.0
    assert extrap == pytest.approx(-0.125, abs=1e-9)


def test_beta_near_zero_continuity():
    a = ThetaAnsatz.from_targets(1.99, 0.28)
    lim = beta_from_theta(a, 0.0)
    for tau in (1e-4, -1e-4):
        assert abs(beta_from_theta(a, tau) - lim) <= 1e-4


def test_beta_is_symmetric():
    a = ThetaAnsatz.from_targets(1.6, 0.2)
    taus = RNG.uniform(0.0, HALF_PI, size=64)
    assert np.allclose(beta_from_theta(a, taus), beta_from_theta(a, -taus),
                       atol=1e-10)


def _direct_ansatz(a1, a3, a5):
    # an ansatz given by its coefficients, with b = theta(pi/2) and beta0 =
    # beta(pi/2) = -theta''(pi/2)/(2 b) - 1/b^2 to match
    b = a1 - a3 + a5
    return ThetaAnsatz(a1, a3, a5, b, (a1 - 9 * a3 + 25 * a5) / (2 * b) - 1 / b**2)


def test_beta_from_pure_sine_is_constant_quarter():
    # theta = 2 sin(tau) is the symmetric-interval u12 of beta = 1/4
    a = _direct_ansatz(2.0, 0.0, 0.0)
    assert a.beta0 == 0.25
    for tau in (0.3, PI / 4, 1.2, 1e-3):
        assert beta_from_theta(a, tau) == pytest.approx(0.25, abs=1e-12)
    u = integrate_symmetric(ConstantBeta(0.25), 1.2, CFG)
    assert u.u12 == pytest.approx(2 * math.sin(1.2), abs=1e-10)


def test_beta_singularity_detected():
    # theta = sin(tau) vanishes at 0 with slope 1: Lemma condition violated;
    # the message prints tau as a plain float, from a scalar or an array
    a = _direct_ansatz(1.0, 0.0, 0.0)
    message = r"^theta vanishes near tau = 1e-08 with theta' != \+-2; beta is singular there$"
    with pytest.raises(SingularityError, match=message):
        beta_from_theta(a, 1e-8)
    with pytest.raises(SingularityError, match=message):
        beta_from_theta(a, np.array([0.5, 1e-8]))


@pytest.mark.parametrize("tau", [1e-3, 4e-3])
def test_bad_slope_at_the_origin_is_singular_inside_the_series_window(tau):
    # the one-sine sums take theta'(0) = 2 as exact, as the Taylor series
    # about 0 once did within 5e-3 of it (for theta = sin(tau) that series
    # gave beta(1e-3) = 0.125, where beta is about -7.5e5), so they must
    # not be used
    a = _direct_ansatz(1.0, 0.0, 0.0)
    assert abs(theta_eval(a, tau)) > design.EPS_THETA
    message = r"^theta vanishes at tau = 0\.0 with theta' = 1, not \+-2; beta is singular there$"
    for x in (tau, -tau, np.array([tau, 0.3])):
        with pytest.raises(SingularityError, match=message):
            beta_from_theta(a, x)
    # a profile rejects it wherever it is sampled, here outside the window
    with pytest.raises(SingularityError, match=message):
        ThetaDerivedBeta(a).beta_array(np.array([0.3]))
    with pytest.raises(SingularityError, match=f"^theta vanishes at tau = {PI!r} with"):
        ThetaDerivedBeta(a, offset=PI).beta_array(np.array([PI + 0.3]))


@pytest.mark.parametrize("b,beta0", [(1.7, 0.2), (-0.879994, 0.64)])
def test_negated_ansatz_has_the_same_beta(b, beta0):
    # beta does not change with the sign of theta, and -theta has theta'(0)
    # = -2, which the slope check accepts; the Taylor series about 0 took
    # +2 for it too and gave beta(1e-3) = -0.7587 for -theta at (1.7, 0.2),
    # where beta is 0.7587
    a = ThetaAnsatz.from_targets(b, beta0)
    neg = ThetaAnsatz(-a.a1, -a.a3, -a.a5, -a.b, a.beta0)
    taus = np.array([0.0, 1e-3, -0.3, 1.0, HALF_PI, *(z for z, _ in a.side_zeros)])
    assert np.array_equal(beta_from_theta(neg, taus), beta_from_theta(a, taus))


def test_beta_on_a_side_zero_takes_the_limit():
    # from_targets(-0.879994, 0.64) has side zeros of slope -2 within
    # SLOPE_TOL; a sample on one, where theta/sin(tau) is about 0, takes
    # -theta' theta'''/16 without a division warning
    a = ThetaAnsatz.from_targets(-0.879994, 0.64)
    ((tau, _),) = a.side_zeros
    assert abs(theta_eval(a, tau)) < design.EPS_THETA
    limit = -theta_eval(a, tau, 1) * theta_eval(a, tau, 3) / 16.0
    assert np.array_equal(beta_from_theta(a, np.array([tau, -tau])), [limit, limit])
    assert beta_from_theta(a, tau) == limit


def test_beta_array_matches_scalar():
    a = ThetaAnsatz.from_targets(1.99, 0.28)
    taus = np.linspace(-HALF_PI, HALF_PI, 41)
    arr = beta_from_theta(a, taus)
    scalars = [beta_from_theta(a, float(t)) for t in taus]
    assert np.allclose(arr, scalars, atol=0.0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(b=st.one_of(st.floats(-5.0, -0.2), st.floats(0.2, 5.0)),
       beta0=st.floats(-1.0, 1.0),
       tau=st.one_of(st.floats(-HALF_PI, HALF_PI), st.floats(-1e-5, 1e-5),
                     st.sampled_from([0.0, HALF_PI, -HALF_PI])))
def test_beta_scalar_and_one_element_array_agree(b, beta0, tau):
    # same bits, or the same SingularityError, on the regular and limit branches
    a = ThetaAnsatz.from_targets(b, beta0)

    def outcome(x):
        try:
            return np.asarray(beta_from_theta(a, x)).tobytes()
        except SingularityError:
            return "singular"

    assert outcome(tau) == outcome(np.array([tau]))


# ---------------------------------------------------------------------------
# beta near the zero of theta at tau = 0 and across the stage: mpmath oracle

# 40-digit mpmath values of beta, printed by tests/make_beta_references.py,
# which re-solves the ansatz in mpmath (so theta'(0) = 2 to 40 digits) and
# shares no code with softsqueeze: (b, beta0, ((tau, beta), ...)).
# BETA_REFERENCES lies about the zero at 0; BETA_WIDE_REFERENCES holds
# interior taus and taus near +-pi/2, and two targets of large coefficients
# at all of these taus
BETA_REFERENCES = [
    (1.7, 0.2, (
        (1e-7, 0.75867647058821363),
        (-1e-7, 0.75867647058821363),
        (1e-6, 0.75867647058605841),
        (-1e-6, 0.75867647058605841),
        (3e-6, 0.75867647056864254),
        (-3e-6, 0.75867647056864254),
        (1e-5, 0.75867647037053704),
        (-1e-5, 0.75867647037053704),
        (1e-4, 0.75867644881840012),
        (-1e-4, 0.75867644881840012),
        (1e-3, 0.75867429360616518),
        (-1e-3, 0.75867429360616518),
        (4.9e-3, 0.75862420206206222),
        (-4.9e-3, 0.75862420206206222),
        (5.1e-3, 0.75861984824225428),
        (-5.1e-3, 0.75861984824225428),
        (0.1, 0.73705418546393531),
        (-0.1, 0.73705418546393531),
        (1.0, -0.072125496740552822),
        (-1.0, -0.072125496740552822),
    )),
    (0.8, 0.05, (
        (1e-7, 2.717499999999933),
        (-1e-7, 2.717499999999933),
        (1e-6, 2.7174999999933159),
        (-1e-6, 2.7174999999933159),
        (3e-6, 2.7174999999398444),
        (-3e-6, 2.7174999999398444),
        (1e-5, 2.7174999993316055),
        (-1e-5, 2.7174999993316055),
        (1e-4, 2.7174999331605617),
        (-1e-4, 2.7174999331605617),
        (1e-3, 2.7174933160499702),
        (-1e-3, 2.7174933160499702),
        (4.9e-3, 2.7173395148904188),
        (-4.9e-3, 2.7173395148904188),
        (5.1e-3, 2.7173261463746916),
        (-5.1e-3, 2.7173261463746916),
        (0.1, 2.6500309905228313),
        (-0.1, 2.6500309905228313),
        (1.0, -4.5533560945901121),
        (-1.0, -4.5533560945901121),
    )),
    (2.9, 0.37, (
        (1e-7, -1.1241293103447461),
        (-1e-7, -1.1241293103447461),
        (1e-6, -1.1241293103366953),
        (-1e-6, -1.1241293103366953),
        (3e-6, -1.1241293102716382),
        (-3e-6, -1.1241293102716382),
        (1e-5, -1.1241293095316138),
        (-1e-5, -1.1241293095316138),
        (1e-4, -1.1241292290234639),
        (-1e-4, -1.1241292290234639),
        (1e-3, -1.1241211782266654),
        (-1e-3, -1.1241211782266654),
        (4.9e-3, -1.1239340683372608),
        (-4.9e-3, -1.1239340683372608),
        (5.1e-3, -1.1239178059019982),
        (-5.1e-3, -1.1239178059019982),
        (0.1, -1.0446113415664378),
        (-0.1, -1.0446113415664378),
        (1.0, 0.72832239083179571),
        (-1.0, 0.72832239083179571),
    )),
    (-1.99, 0.28, (
        (1e-7, 6.1864655778895337),
        (-1e-7, 6.1864655778895337),
        (1e-6, 6.186465577898096),
        (-1e-6, 6.186465577898096),
        (3e-6, 6.186465577967287),
        (-3e-6, 6.186465577967287),
        (1e-5, 6.1864655787543336),
        (-1e-5, 6.1864655787543336),
        (1e-4, 6.1864656643780966),
        (-1e-4, 6.1864656643780966),
        (1e-3, 6.1864742267969233),
        (-1e-3, 6.1864742267969233),
        (4.9e-3, 6.1866732618964754),
        (-4.9e-3, 6.1866732618964754),
        (5.1e-3, 6.1866905639242315),
        (-5.1e-3, 6.1866905639242315),
        (0.1, 6.2774283751795858),
        (-0.1, 6.2774283751795858),
        (1.0, 2.6663033756311834),
        (-1.0, 2.6663033756311834),
    )),
]

BETA_WIDE_REFERENCES = [
    (1.7, 0.2, (
        (0.02, 0.75780591273968178),
        (-0.02, 0.75780591273968178),
        (0.3, 0.57488110605771235),
        (-0.3, 0.57488110605771235),
        (0.7, 0.053403641657979235),
        (-0.7, 0.053403641657979235),
        (1.5707963167948966, 0.19999999999999985),
        (-1.5707963167948966, 0.19999999999999985),
        (1.5707953267948966, 0.19999999999840337),
        (-1.5707953267948966, 0.19999999999840337),
        (1.5706963267948966, 0.19999998403356429),
        (-1.5706963267948966, 0.19999998403356429),
        (1.5607963267948965, 0.19984036224158432),
        (-1.5607963267948965, 0.19984036224158432),
        (1.2707963267948965, 0.077224198865194349),
        (-1.2707963267948965, 0.077224198865194349),
    )),
    (0.8, 0.05, (
        (0.02, 2.7148254176433455),
        (-0.02, 2.7148254176433455),
        (0.3, 2.0641772833379411),
        (-0.3, 2.0641772833379411),
        (0.7, -1.8500413482157011),
        (-0.7, -1.8500413482157011),
        (1.5707963167948966, 0.04999999999999787),
        (-1.5707963167948966, 0.04999999999999787),
        (1.5707953267948966, 0.049999999978673753),
        (-1.5707953267948966, 0.049999999978673753),
        (1.5706963267948966, 0.049999786737499804),
        (-1.5706963267948966, 0.049999786737499804),
        (1.5607963267948965, 0.047867355248241121),
        (-1.5607963267948965, 0.047867355248241121),
        (1.2707963267948965, -1.8241864731235983),
        (-1.2707963267948965, -1.8241864731235983),
    )),
    (2.9, 0.37, (
        (0.02, -1.1208793930492748),
        (-0.02, -1.1208793930492748),
        (0.3, -0.51951139152140024),
        (-0.3, -0.51951139152140024),
        (0.7, 0.57697499550669211),
        (-0.7, 0.57697499550669211),
        (1.5707963167948966, 0.37000000000000021),
        (-1.5707963167948966, 0.37000000000000021),
        (1.5707953267948966, 0.37000000000209589),
        (-1.5707953267948966, 0.37000000000209589),
        (1.5706963267948966, 0.37000002095892707),
        (-1.5706963267948966, 0.37000002095892707),
        (1.5607963267948965, 0.37020955032310234),
        (-1.5607963267948965, 0.37020955032310234),
        (1.2707963267948965, 0.52934324777537097),
        (-1.2707963267948965, 0.52934324777537097),
    )),
    (-1.99, 0.28, (
        (0.02, 6.1899320088577194),
        (-0.02, 6.1899320088577194),
        (0.3, 7.4991990103906344),
        (-0.3, 7.4991990103906344),
        (0.7, 9.0421839750779273),
        (-0.7, 9.0421839750779273),
        (1.5707963167948966, 0.2800000000000012),
        (-1.5707963167948966, 0.2800000000000012),
        (1.5707953267948966, 0.28000000001172068),
        (-1.5707953267948966, 0.28000000001172068),
        (1.5706963267948966, 0.28000011720653454),
        (-1.5706963267948966, 0.28000011720653454),
        (1.5607963267948965, 0.28117182595540281),
        (-1.5607963267948965, 0.28117182595540281),
        (1.2707963267948965, 1.1724755674120984),
        (-1.2707963267948965, 1.1724755674120984),
    )),
    (100, 0, (
        (1e-7, -184.24249999965039),
        (-1e-7, -184.24249999965039),
        (1e-6, -184.24249996503857),
        (-1e-6, -184.24249996503857),
        (3e-6, -184.24249968534713),
        (-3e-6, -184.24249968534713),
        (1e-5, -184.24249650385705),
        (-1e-5, -184.24249650385705),
        (1e-4, -184.2421503862763),
        (-1e-4, -184.2421503862763),
        (1e-3, -184.20754433763882),
        (-1e-3, -184.20754433763882),
        (4.9e-3, -183.40638922666292),
        (-4.9e-3, -183.40638922666292),
        (5.1e-3, -183.33704012011543),
        (-5.1e-3, -183.33704012011543),
        (0.1, -56.754182310088195),
        (-0.1, -56.754182310088195),
        (1.0, 1.8734830690652643),
        (-1.0, 1.8734830690652643),
        (0.02, -171.12697313088364),
        (-0.02, -171.12697313088364),
        (0.3, -4.1853820175793709),
        (-0.3, -4.1853820175793709),
        (0.7, 2.0935501725609714),
        (-0.7, 2.0935501725609714),
        (1.5707963167948966, 0.0000000000000011128900001018581),
        (-1.5707963167948966, 0.0000000000000011128900001018581),
        (1.5707953267948966, 0.000000000011128899999504052),
        (-1.5707953267948966, 0.000000000011128899999504052),
        (1.5706963267948966, 0.00000011128899722299169),
        (-1.5706963267948966, 0.00000011128899722299169),
        (1.5607963267948965, 0.001112612346767366),
        (-1.5607963267948965, 0.001112612346767366),
        (1.2707963267948965, 0.81262909331921031),
        (-1.2707963267948965, 0.81262909331921031),
    )),
    (-1e3, 5, (
        (1e-7, -1871.7507499647875),
        (-1e-7, -1871.7507499647875),
        (1e-6, -1871.7507464787517),
        (-1e-6, -1871.7507464787517),
        (3e-6, -1871.7507183087657),
        (-3e-6, -1871.7507183087657),
        (1e-5, -1871.7503978752273),
        (-1e-5, -1871.7503978752273),
        (1e-4, -1871.7155381034591),
        (-1e-4, -1871.7155381034591),
        (1e-3, -1868.2353585458399),
        (-1e-3, -1868.2353585458399),
        (4.9e-3, -1790.4648081457879),
        (-4.9e-3, -1790.4648081457879),
        (5.1e-3, -1783.9763893357097),
        (-5.1e-3, -1783.9763893357097),
        (0.1, -67.249594968681665),
        (-0.1, -67.249594968681665),
        (1.0, 5319.4475580945634),
        (-1.0, 5319.4475580945634),
        (0.02, -1036.9043495206074),
        (-0.02, -1036.9043495206074),
        (0.3, -0.48714332728573812),
        (-0.3, -0.48714332728573812),
        (0.7, 9.5735786768930297),
        (-0.7, 9.5735786768930297),
        (1.5707963167948966, 5.0000000000000006),
        (-1.5707963167948966, 5.0000000000000006),
        (1.5707953267948966, 5.000000000006262),
        (-1.5707953267948966, 5.000000000006262),
        (1.5706963267948966, 5.0000000626199952),
        (-1.5706963267948966, 5.0000000626199952),
        (1.5607963267948965, 5.0006267238306158),
        (-1.5607963267948965, 5.0006267238306158),
        (1.2707963267948965, 6.2953300988138615),
        (-1.2707963267948965, 6.2953300988138615),
    )),
]

@pytest.mark.parametrize("b,beta0,points", BETA_REFERENCES)
def test_beta_matches_mpmath_near_and_away_from_the_theta_zero(b, beta0, points):
    a = ThetaAnsatz.from_targets(b, beta0)
    taus = np.array([tau for tau, _ in points])
    want = np.array([value for _, value in points])
    assert np.max(np.abs(beta_from_theta(a, taus) - want)) <= 2e-14
    for tau, value in points:
        assert abs(beta_from_theta(a, tau) - value) <= 2e-14


# about 3x the largest error of beta_from_theta at each BETA_WIDE_REFERENCES
# target (2.7e-16, 3.3e-15, 4.4e-16, 3.6e-15, 5.7e-14 and 1.1e-10, the last
# 2.1e-14 of |beta| = 5.3e3)
WIDE_BOUNDS = [1e-15, 1e-14, 1.5e-15, 1e-14, 2e-13, 3e-10]


@pytest.mark.parametrize("b,beta0,points,bound", [
    (*entry, bound) for entry, bound in zip(BETA_WIDE_REFERENCES, WIDE_BOUNDS, strict=True)])
def test_beta_matches_mpmath_across_the_stage(b, beta0, points, bound):
    a = ThetaAnsatz.from_targets(b, beta0)
    taus = np.array([tau for tau, _ in points])
    want = np.array([value for _, value in points])
    assert np.max(np.abs(beta_from_theta(a, taus) - want)) <= bound
    for tau, value in points:
        assert abs(beta_from_theta(a, tau) - value) <= bound


def test_stage_joins_of_the_bench_range_are_continuous():
    # 500 seeded stage pairs of the benchmark's range: beta at the shared
    # edge from both sides, and its target beta0 there, within 1e-14
    rng = np.random.default_rng(2718)
    edges = np.array([HALF_PI, -HALF_PI])
    for _ in range(500):
        b_left, b_right = rng.uniform(0.6, 3.0, size=2)
        beta0 = rng.uniform(0.0, 0.4)
        left = beta_from_theta(ThetaAnsatz.from_targets(b_left, beta0), edges)
        right = beta_from_theta(ThetaAnsatz.from_targets(b_right, beta0), edges)
        assert abs(left[0] - right[1]) <= 1e-14
        assert np.max(np.abs(np.concatenate([left, right]) - beta0)) <= 1e-14


def _direct_theta_derivs(a, tau):
    # theta and its first three derivatives from np.sin(k tau), np.cos(k tau)
    terms = ((1, a.a1), (3, a.a3), (5, a.a5))
    return (
        sum(c * np.sin(k * tau) for k, c in terms),
        sum(c * k * np.cos(k * tau) for k, c in terms),
        -sum(c * k**2 * np.sin(k * tau) for k, c in terms),
        -sum(c * k**3 * np.cos(k * tau) for k, c in terms),
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(b=st.one_of(st.floats(-5.0, -0.2), st.floats(0.2, 5.0)),
       beta0=st.floats(-1.0, 1.0),
       tau=st.floats(-HALF_PI, HALF_PI))
def test_shared_angle_sampler_matches_direct_sines(b, beta0, tau):
    # sin and cos of 3 tau and 5 tau by angle addition agree with direct
    # evaluation to 8 ulps of the order's scale sum_k k^n |a_k|
    a = ThetaAnsatz.from_targets(b, beta0)
    for order, want in enumerate(_direct_theta_derivs(a, tau)):
        scale = abs(a.a1) + 3**order * abs(a.a3) + 5**order * abs(a.a5)
        assert abs(theta_eval(a, tau, order) - want) <= 8 * np.spacing(scale)


@pytest.mark.parametrize("b,beta0", [
    (1.7, 0.2), (0.8, 0.05), (2.9, 0.37), (-1.99, 0.28), (0.6, 0.0), (3.0, 0.4),
])
def test_beta_hands_over_to_its_series_without_a_jump(b, beta0):
    # about tau = 0 beta was a Taylor series for |tau| < 5e-3; the one-sine
    # sums need no window, and show no jump at its old edges
    a = ThetaAnsatz.from_targets(b, beta0)
    edge = 5e-3
    for sign in (1.0, -1.0):
        inside = beta_from_theta(a, sign * np.nextafter(edge, 0.0))
        outside = beta_from_theta(a, sign * edge)
        assert abs(inside - outside) <= 1e-15


@pytest.mark.parametrize("b,beta0", [(100.0, 0.0), (1e-3, 0.0), (-1e3, 5.0)])
def test_series_window_narrows_for_large_coefficients(b, beta0):
    # the Taylor series' window narrowed to sqrt(6 / (|a1| + 27 |a3| +
    # 125 |a5|)) / 16 for these targets; the one-sine sums show no jump at
    # those old edges (BETA_WIDE_REFERENCES checks two of them against mpmath)
    a = ThetaAnsatz.from_targets(b, beta0)
    edge = math.sqrt(6.0 / (abs(a.a1) + 27.0 * abs(a.a3) + 125.0 * abs(a.a5))) / 16.0
    assert edge < 5e-3
    for sign in (1.0, -1.0):
        inside = beta_from_theta(a, sign * np.nextafter(edge, 0.0))
        outside = beta_from_theta(a, sign * edge)
        assert abs(inside - outside) <= 1e-15 * max(1.0, abs(outside))


def test_ansatz_sampled_at_an_off_origin_zero_is_singular():
    # from_targets(0.3, 0) has theta zeros away from 0 whose slopes are not
    # +-2; the sums take only the slope at 0 as exact, so these still raise
    a = ThetaAnsatz.from_targets(0.3, 0.0)
    zero = validate_lemma(a).theta_zeros[0]
    assert zero.tau == pytest.approx(-1.22596, abs=1e-5)
    assert zero.theta_prime == pytest.approx(1.2379, abs=1e-4)
    with pytest.raises(SingularityError):
        ThetaDerivedBeta(a).beta_array(np.array([0.0, zero.tau]))
    with pytest.raises(SingularityError):
        ThetaDerivedBeta(a).beta(zero.tau)


@pytest.mark.parametrize("offset", [0.0, PI])
def test_profile_with_a_singular_side_zero_raises_wherever_it_is_sampled(offset):
    # no sample need fall near the zeros: beta between them is finite but
    # huge, so a profile rejects the ansatz on any sampling, not on creation
    a = ThetaAnsatz.from_targets(0.3, 0.0)
    (_, slope_in), (tau, slope_out) = a.side_zeros
    assert tau == pytest.approx(1.22596, abs=1e-5)
    assert slope_in == pytest.approx(-1.4018, abs=1e-4)
    assert slope_out == pytest.approx(1.2379, abs=1e-4)
    prof = ThetaDerivedBeta(a, offset=offset)
    with pytest.raises(SingularityError, match=f"tau = {offset - tau!r} and {offset + tau!r}"):
        prof.beta_array(np.array([offset + 0.1, offset + 0.2]))
    with pytest.raises(SingularityError):
        prof.beta(offset)
    # the sampler's own check at the zero stays
    with pytest.raises(SingularityError):
        beta_from_theta(a, np.array([0.0, -tau]))


def test_slope_rule_at_the_zeros_is_one_tolerance():
    # from_targets(-0.88, 0.64) has side zeros of slope -2.000006: off by
    # more than SLOPE_TOL, far less than SLOPE_GUARD.  The lemma report and
    # the profile reject them alike, wherever the samples fall
    assert (design.SLOPE_TOL, design.SLOPE_GUARD) == (1e-6, 1e-3)
    a = ThetaAnsatz.from_targets(-0.88, 0.64)
    ((tau, slope),) = a.side_zeros
    assert tau == 0.8410285171305698 and 5e-6 < -2.0 - slope < 7e-6
    rep = validate_lemma(a)
    assert [(z.tau, z.theta_prime, z.ok) for z in rep.theta_zeros] == [
        (-tau, slope, False), (0.0, a.slope0, True), (tau, slope, False)]
    with pytest.raises(SingularityError, match=f"^theta vanishes at tau = {-tau!r} and {tau!r} "
                                               "with theta' = -2.00001, not"):
        ThetaDerivedBeta(a).beta_array(np.array([0.3]))
    # b = -0.879994 moves the slope within SLOPE_TOL of -2: both accept it
    a = ThetaAnsatz.from_targets(-0.879994, 0.64)
    assert abs(a.side_zeros[0][1] + 2.0) < 1e-7 and validate_lemma(a).ok
    assert np.all(np.isfinite(ThetaDerivedBeta(a).beta_array(np.linspace(-HALF_PI, HALF_PI, 9))))


def test_lemma_reports_the_ansatz_zero_checks():
    # the slope rule is decided once per ansatz; the report carries it
    a = ThetaAnsatz.from_targets(-0.88, 0.64)
    assert validate_lemma(a).theta_zeros is a.zero_checks


def test_nan_slope_is_singular():
    # a NaN slope at tau = 0 is not +-2: the profile rejects the ansatz as
    # the lemma report does, where it used to return NaN for beta
    a = ThetaAnsatz(2.0, 0.0, math.nan, 2.0, 0.2)
    with pytest.raises(SingularityError, match="^theta vanishes at tau = 0.0 with theta' = nan"):
        ThetaDerivedBeta(a).beta_array(np.linspace(-1.0, 1.0, 5))
    assert [(z.tau, z.ok) for z in a.zero_checks] == [(0.0, False)]
    assert not validate_lemma(a).ok


@pytest.mark.parametrize("b,beta0", [(0.3, 0.0), (-0.88, 0.64), (-2.0, 0.1), (0.2, 5.0)])
def test_lemma_reads_the_slopes_that_theta_eval_gives(b, beta0):
    # the report's slopes are side_zeros' and slope0, bit for bit theta'
    # evaluated at each zero and its mirror
    a = ThetaAnsatz.from_targets(b, beta0)
    zeros = validate_lemma(a).theta_zeros
    assert len(zeros) == 1 + 2 * len(a.side_zeros) > 1
    assert [z.theta_prime for z in zeros] == [theta_eval(a, z.tau, 1) for z in zeros]


def test_bench_range_ansatzes_have_no_side_zeros():
    # the designs of the benchmark's range sample exactly as before
    for b in np.linspace(0.6, 3.0, 25):
        for beta0 in np.linspace(0.0, 0.4, 9):
            assert ThetaAnsatz.from_targets(float(b), float(beta0)).side_zeros == ()


# ---------------------------------------------------------------------------
# lemma validation


def test_lemma_passes_for_designed_ansatz():
    rep = validate_lemma(ThetaAnsatz.from_targets(2.0, 0.0))
    assert rep.ok
    assert len(rep.theta_zeros) == 1
    z = rep.theta_zeros[0]
    assert z.tau == pytest.approx(0.0, abs=1e-12)
    assert z.theta_prime == pytest.approx(2.0, abs=1e-12)


def test_lemma_reports_edge_fourier_points():
    rep = validate_lemma(ThetaAnsatz.from_targets(1.99, 0.28))
    taus = sorted(f.tau for f in rep.fourier_points)
    assert taus[0] == pytest.approx(-HALF_PI, abs=1e-9)
    assert taus[-1] == pytest.approx(HALF_PI, abs=1e-9)
    edge = [f for f in rep.fourier_points if f.tau > 0][0]
    assert edge.b == pytest.approx(1.99, abs=1e-12)
    assert edge.beta == pytest.approx(0.28, abs=1e-12)


def test_lemma_flags_bad_slope():
    # theta = sin(tau) vanishes at 0 with slope 1
    rep = validate_lemma(_direct_ansatz(1.0, 0.0, 0.0))
    assert not rep.ok
    assert rep.violations == ("theta zero at tau = 0 has slope 1, not +-2",)


# ---------------------------------------------------------------------------
# the lemma's zeros in closed form, against oracles that share no code with it

# no node falls on tau = 0 (an even node count) or on +-pi/2 (3.2e-6 away),
# where theta and theta' vanish; the grid spacing is 5e-5
SCAN = np.linspace(-1.6, 1.6, 64_000)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(b=st.one_of(st.floats(-5.0, -0.2), st.floats(0.2, 5.0)), beta0=st.floats(-3.0, 3.0))
def test_lemma_zeros_match_a_dense_sign_scan(b, beta0):
    # every zero lies in a grid cell over which theta (or theta') changes
    # sign, one zero per cell that meets [-pi/2, pi/2]
    a = ThetaAnsatz.from_targets(b, beta0)
    t = SCAN
    theta = a.a1 * np.sin(t) + a.a3 * np.sin(3 * t) + a.a5 * np.sin(5 * t)
    slope = a.a1 * np.cos(t) + 3 * a.a3 * np.cos(3 * t) + 5 * a.a5 * np.cos(5 * t)
    rep = validate_lemma(a)
    for values, taus in ((theta, [z.tau for z in rep.theta_zeros]),
                         (slope, [f.tau for f in rep.fourier_points])):
        cells = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0.0)
        lo, hi = t[cells], t[cells + 1]
        inside = (lo < HALF_PI) & (hi > -HALF_PI)
        assert len(taus) == np.count_nonzero(inside)
        assert np.all(lo[inside] <= taus) and np.all(taus <= hi[inside])


# 30-digit zeros of theta and of theta' on [-pi/2, pi/2], printed by
# tests/make_beta_references.py from the ansatz re-solved in mpmath:
# (b, beta0, (zeros of theta), (zeros of theta'))
LEMMA_ZERO_REFERENCES = [
    (0.3, 0,
        (-1.2259604367736124251, -0.7477580397129653414, 0.0, 0.7477580397129653414, 1.2259604367736124251,),
        (-1.5707963267948966192, -0.98050751545958812051, -0.35170323383822285434, 0.35170323383822285434, 0.98050751545958812051, 1.5707963267948966192,),
    ),
    (2, 0,
        (0.0,),
        (-1.5707963267948966192, 1.5707963267948966192,),
    ),
    (1.99, 0.28,
        (0.0,),
        (-1.5707963267948966192, 1.5707963267948966192,),
    ),
    (100, 0.1,
        (-7.9237191939733733216e-72,),
        (-1.5707963267948966192, 1.5707963267948966192,),
    ),
    (0.01, 0.2,
        (-1.5607955000200532774, -0.14050578776119240341, -9.0556790788267123675e-72, 0.14050578776119240341, 1.5607955000200532774,),
        (-1.5707963267948966192, -0.89141788180991507511, -0.080587670634374849153, 0.080587670634374849153, 0.89141788180991507511, 1.5707963267948966192,),
    ),
    (2, 100,
        (-1.4699895457651401128, -0.10080678102975650648, 1.9243318042506763781e-70, 0.10080678102975650648, 1.4699895457651401128,),
        (-1.5707963267948966192, -0.88264968945258613232, -0.05800241683299631372, 0.05800241683299631372, 0.88264968945258613232, 1.5707963267948966192,),
    ),
    (1e4, 0.1,
        (-2.1544264220046994593e-66,),
        (-1.5707963267948966192, 1.5707963267948966192,),
    ),
    (2.9, 0.37,
        (0.0,),
        (-1.5707963267948966192, 1.5707963267948966192,),
    ),
    (1.7, 0.2,
        (0.0,),
        (-1.5707963267948966192, 1.5707963267948966192,),
    ),
    (0.8, 0.05,
        (0.0,),
        (-1.5707963267948966192, -0.9378502799974873361, -0.57350947779971129507, 0.57350947779971129507, 0.9378502799974873361, 1.5707963267948966192,),
    ),
    (-2, 0.1,
        (-0.56007954555065814743, 0.0, 0.56007954555065814743,),
        (-1.5707963267948966192, -0.29911205440339109337, 0.29911205440339109337, 1.5707963267948966192,),
    ),
]


@pytest.mark.parametrize("b,beta0,zeros,slope_zeros", LEMMA_ZERO_REFERENCES,
                         ids=[f"{float(r[0])}-{float(r[1])}" for r in LEMMA_ZERO_REFERENCES])
def test_lemma_zeros_match_mpmath(b, beta0, zeros, slope_zeros):
    rep = validate_lemma(ThetaAnsatz.from_targets(b, beta0))
    taus = [z.tau for z in rep.theta_zeros]
    assert len(taus) == len(zeros)
    assert np.max(np.abs(np.array(taus) - zeros)) <= 1e-13
    taus = [f.tau for f in rep.fourier_points]
    assert len(taus) == len(slope_zeros)
    assert np.max(np.abs(np.array(taus) - slope_zeros)) <= 1e-13


@pytest.mark.parametrize("a,b,c,roots", [
    (2.0, 4.0, 0.0, [0.5]),           # c = 0 (a5 = 0): the one root a/b
    (2.0, 0.0, 0.0, []),              # q = 0: a nonzero constant
    (0.0, 0.0, 1.0, []),              # q = 0: the double root x = 0
    (1.0, 4.0, 4.0, [0.5]),           # a double root, listed once
    (2.0, 42.0, 40.0, [0.05, 1.0]),   # a root at x = 1
    (0.0, 1.0, 1.0, [1.0]),           # a root at x = 0 is left out
    (2.0, 1.0, 1.0, []),              # complex roots
    (1.0, -3.0, 2.0, []),             # negative roots
])
def test_unit_roots_edge_cases(a, b, c, roots):
    # the roots in (0, 1] of a - b x + c x^2
    assert design._unit_roots(a, b, c) == roots


def test_unit_roots_small_root_does_not_cancel():
    # 1e-12 - x + x^2: (b - sqrt(b^2 - 4ac)) / (2c) would lose 4 digits
    small, large = design._unit_roots(1e-12, 1.0, 1.0)
    assert small == pytest.approx(1e-12 + 1e-24, rel=1e-15)
    assert large == pytest.approx(1.0 - 1e-12, rel=1e-15)


def test_lemma_zeros_without_a5():
    # a5 = 0 leaves one root per quadratic: theta = sin(3 tau) - sin(tau)
    # = 2 s (1 - 2 s^2) vanishes at 0 and +-pi/4, with slope -2 sqrt(2)
    # there, and theta' = cos(tau) (2 - 12 s^2) at +-pi/2 and s^2 = 1/6
    rep = validate_lemma(_direct_ansatz(-1.0, 1.0, 0.0))
    assert [z.tau for z in rep.theta_zeros] == pytest.approx([-PI / 4, 0.0, PI / 4], abs=1e-15)
    assert rep.theta_zeros[2].theta_prime == pytest.approx(-2 * math.sqrt(2), abs=1e-14)
    assert [z.ok for z in rep.theta_zeros] == [False, True, False]
    w = math.asin(math.sqrt(1 / 6))
    assert [f.tau for f in rep.fourier_points] == pytest.approx(
        [-HALF_PI, -w, w, HALF_PI], abs=1e-15)


def test_lemma_double_zero_of_theta():
    # theta = 2 s (1 - 2 s^2)^2 touches 0 at +-pi/4 with slope 0, so no sign
    # scan sees it; theta' = cos(tau) (2 - 24 s^2 + 40 s^4) vanishes at s^2 =
    # 0.1 and at s^2 = 0.5, where theta does too, so pi/4 is no Fourier point
    a = _direct_ansatz(1.0, -0.5, 0.5)
    rep = validate_lemma(a)
    assert [z.tau for z in rep.theta_zeros] == pytest.approx([-PI / 4, 0.0, PI / 4], abs=1e-15)
    assert [z.ok for z in rep.theta_zeros] == [False, True, False]
    assert abs(rep.theta_zeros[2].theta_prime) <= 1e-14
    w = math.asin(math.sqrt(0.1))
    assert [f.tau for f in rep.fourier_points] == pytest.approx(
        [-HALF_PI, -w, w, HALF_PI], abs=1e-15)
    with pytest.raises(SingularityError):
        ThetaDerivedBeta(a).beta_array(np.array([0.1]))


def test_lemma_slope_root_at_the_edge_is_listed_once():
    # theta''(pi/2) = 0 puts a root of theta''s quadratic, 2 - 42 x + 40 x^2,
    # at x = s^2 = 1, on the zero of cos(tau) at pi/2
    rep = validate_lemma(_direct_ansatz(-3.5, 1.0, 0.5))
    w = math.asin(math.sqrt(0.05))
    taus = [f.tau for f in rep.fourier_points]
    assert taus == pytest.approx([-HALF_PI, -w, w, HALF_PI], abs=1e-15)
    assert taus[0] == -HALF_PI and taus[-1] == HALF_PI


def test_lemma_of_a_pure_sine_has_only_the_trivial_zeros():
    # theta = 2 sin(tau): both quadratics are the constant 2, so q = 0
    rep = validate_lemma(_direct_ansatz(2.0, 0.0, 0.0))
    assert rep.ok
    assert [z.tau for z in rep.theta_zeros] == [0.0]
    edges = [f.tau for f in rep.fourier_points]
    assert edges == [-HALF_PI, HALF_PI]
    assert [f.b for f in rep.fourier_points] == pytest.approx([-2.0, 2.0], abs=1e-15)
    assert [f.beta for f in rep.fourier_points] == pytest.approx([0.25, 0.25], abs=1e-15)


# ---------------------------------------------------------------------------
# pulse assembly


def test_build_pulse_soft_borders():
    pulse = build_chain([ThetaAnsatz.from_targets(2.0, 0.0)])
    assert pulse.interval == (-HALF_PI, HALF_PI)
    assert pulse.profile.beta(HALF_PI) == pytest.approx(0.0, abs=1e-12)
    assert pulse.profile.beta(-HALF_PI) == pytest.approx(0.0, abs=1e-12)
    assert pulse.tail is None and pulse.joins == ()


def test_build_pulse_tail_mismatch_rejected():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    with pytest.raises(ValueError):
        build_chain([a], ConstantTail(beta0=0.5, duration=1.0))


def test_build_chain_stage_mismatch_rejected():
    with pytest.raises(ValueError):
        build_chain([ThetaAnsatz.from_targets(2.0, 0.0),
                     ThetaAnsatz.from_targets(1.5, 0.3)])


def test_build_chain_needs_a_stage():
    with pytest.raises(ValueError, match="need at least one design stage"):
        build_chain([])


def test_quarter_period_values():
    assert quarter_period(0.28) == pytest.approx(5 * PI / (2 * math.sqrt(7)),
                                                 abs=1e-12)
    assert quarter_period(1.0) == pytest.approx(HALF_PI)
    with pytest.raises(ValueError):
        quarter_period(0.0)


def test_build_pulse_with_tail_layout():
    a = ThetaAnsatz.from_targets(1.99, 0.28)
    tail = ConstantTail(beta0=0.28, duration=quarter_period(0.28))
    pulse = build_chain([a], tail)
    lo, hi = pulse.interval
    assert lo == pytest.approx(-HALF_PI)
    assert hi == pytest.approx(HALF_PI + tail.duration)
    assert pulse.profile.beta(HALF_PI + 0.5) == 0.28
    # single join at pi/2
    assert len(pulse.joins) == 1
    join = pulse.joins[0]
    assert join.tau == pytest.approx(HALF_PI)
    # beta and beta' are continuous there; beta'' jumps (reported, not hidden)
    assert abs(join.jumps[0]) <= 1e-12
    assert abs(join.jumps[1]) <= 1e-12
    assert abs(join.jumps[2]) > 0.1
    assert join.ok == (True, True, False)


def test_chain_join_continuity_between_equal_stages():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    pulse = build_chain([a, a])
    assert len(pulse.joins) == 1
    assert all(pulse.joins[0].ok)


def test_designed_profile_json_round_trip():
    from softsqueeze.core import profile_from_dict
    a = ThetaAnsatz.from_targets(1.99, 0.28)
    prof = ThetaDerivedBeta(a, offset=PI)
    again = profile_from_dict(prof.to_json_dict())
    taus = np.linspace(PI - HALF_PI, PI + HALF_PI, 33)
    assert np.allclose(prof.beta_array(taus), again.beta_array(taus), atol=1e-14)


# ---------------------------------------------------------------------------
# verification


def test_verify_single_stage_squeezed_fourier():
    pulse = build_chain([ThetaAnsatz.from_targets(2.0, 0.0)])
    rep = verify_design(pulse, CFG)
    assert rep.ok
    m = rep.stage_matrices[0]
    assert abs(m.u11) <= 1e-6 and abs(m.u22) <= 1e-6
    assert m.u12 == pytest.approx(2.0, abs=1e-6)
    assert m.u21 == pytest.approx(-0.5, abs=1e-6)


def test_verify_two_stage_amplifier():
    b1, b2 = 5.0 / 3.0, 184.0 / 95.0
    pulse = build_chain([ThetaAnsatz.from_targets(b1, 0.0),
                         ThetaAnsatz.from_targets(b2, 0.0)])
    rep = verify_design(pulse, CFG)
    assert rep.ok
    assert rep.lam == pytest.approx(-b2 / b1, abs=1e-6)
    assert rep.lam == pytest.approx(-1.16211, abs=1e-4)
    assert rep.total.u22 == pytest.approx(-b1 / b2, abs=1e-6)


def test_verify_stage_plus_tail_amplifier():
    a = ThetaAnsatz.from_targets(1.99, 0.28)
    pulse = build_chain([a], ConstantTail(0.28, quarter_period(0.28)))
    rep = verify_design(pulse, CFG)
    assert rep.ok
    b2 = 1.0 / math.sqrt(0.28)   # tail acts as squeezed Fourier with 5/sqrt(7)
    assert b2 == pytest.approx(5.0 / math.sqrt(7.0), abs=1e-12)
    assert rep.lam == pytest.approx(-b2 / 1.99, abs=1e-6)
    assert 1.0 / abs(rep.lam) == pytest.approx(1.0530, abs=1e-3)


def test_verify_round_trip_theta_identity():
    # u12(tau, -tau) of the designed profile reproduces theta on a grid
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    prof = ThetaDerivedBeta(a)
    for tau in np.linspace(0.15, HALF_PI, 7):
        u = integrate_symmetric(prof, float(tau), CFG)
        assert u.u12 == pytest.approx(theta_eval(a, float(tau)), abs=1e-6)
        assert u.u11 == pytest.approx(0.5 * theta_eval(a, float(tau), 1),
                                      abs=1e-6)


def test_verify_report_json_shape():
    pulse = build_chain([ThetaAnsatz.from_targets(2.0, 0.0)])
    rep = verify_design(pulse, CFG)
    d = rep.to_json_dict()
    assert d["ok"] is True
    assert d["lambda"] is None  # off-diagonal total has no diagonal squeeze
    assert len(d["stages"]) == 1


def test_verify_flags_non_quarter_tail():
    a = ThetaAnsatz.from_targets(1.99, 0.28)
    pulse = build_chain([a], ConstantTail(0.28, 1.0))
    rep = verify_design(pulse, CFG)
    # stage 1 still checked; the non-quarter tail is exempt from the
    # squeezed-Fourier stage check
    assert rep.ok
    assert len(rep.stage_matrices) == 2


def test_verify_lists_every_entry_that_misses_its_map(monkeypatch):
    # 8 steps per half stage miss the squeezed Fourier map by more than
    # 1e-6; the opened gate lets the stage through to the check
    monkeypatch.setattr(IntegratorConfig, "det_tol", math.inf)
    rep = verify_design(build_chain([ThetaAnsatz.from_targets(2.0, 0.2)]),
                        IntegratorConfig(steps=16))
    assert not rep.ok and rep.lam is None
    assert [f.split(" (")[0] for f in rep.failures] == [
        "stage 0: u11 = 2.127e-06, expected 0.000e+00",
        "stage 0: u22 = 2.127e-06, expected 0.000e+00",
        "stage 0: u12 = 2.000e+00, expected 2.000e+00",
    ]


# verify_design builds each piece from half its span by reflection
REFLECTED = build_chain(
    [ThetaAnsatz.from_targets(b, 0.2) for b in (2.0, 1.2, 0.8)],
    ConstantTail(0.2, quarter_period(0.2)),
)


def test_verify_stages_are_equidiagonal_bit_for_bit():
    rep = verify_design(REFLECTED, CFG)
    assert rep.ok and len(rep.stage_matrices) == 4
    for m in rep.stage_matrices:
        assert m.u11 == m.u22


def test_verify_matches_full_span_integration_at_default_steps():
    # the reflected half span against the full span of the same piece, at
    # the same h; RK4 is not symmetric, so they differ, but only by rounding
    # and the (here small) step error
    rep = verify_design(REFLECTED)
    total = None
    for (t0, t1, prof), m in zip(REFLECTED.profile.pieces, rep.stage_matrices):
        full = integrate(prof, t0, t1)
        assert np.max(np.abs(m.as_array() - full.as_array())) <= 1e-12
        total = full if total is None else full @ total
    assert np.max(np.abs(rep.total.as_array() - total.as_array())) <= 1e-12


def test_verify_odd_steps_take_half_rounded_up_per_piece(monkeypatch):
    # the pulse's cfg goes to integrate_symmetric, which runs each half
    # piece in ceil(2001 / 2) = 1001 steps
    cfg = IntegratorConfig(steps=2001)
    halves = []
    real = evolution.integrate
    monkeypatch.setattr(evolution, "integrate",
                        lambda prof, t0, t1, c: halves.append(c.steps) or real(prof, t0, t1, c))
    rep = verify_design(REFLECTED, cfg)
    assert halves == [1001] * len(REFLECTED.profile.pieces)
    centred = [ThetaDerivedBeta(a) for a in REFLECTED.ansatzes] + [ConstantBeta(0.2)]
    for (t0, t1, _), prof, m in zip(REFLECTED.profile.pieces, centred, rep.stage_matrices):
        assert m == integrate_symmetric(prof, (t1 - t0) / 2.0, cfg)
