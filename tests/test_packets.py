"""Gaussian moment transport, congruences, uncertainty shadows."""

import io
import math

import numpy as np
import pytest

from softsqueeze.core import (
    CanonicalState,
    ConstantBeta,
    SymplecticMatrix2,
    free_motion,
    rotation_matrix,
    squeezed_fourier,
)
from softsqueeze.design import ThetaAnsatz, build_chain
from softsqueeze.evolution import IntegratorConfig
from softsqueeze.packets import (
    MomentState,
    backcast_error,
    congruence,
    delta_q,
    gaussian_init,
    propagate,
    shadow,
    write_congruence_csv,
    write_shadow_csv,
)

RNG = np.random.default_rng(777)
PI = math.pi
CFG = IntegratorConfig(steps=4000)


def random_symplectic(rng):
    a = math.exp(rng.uniform(-1.0, 1.0))
    l = rng.uniform(-2.0, 2.0)
    r = rng.uniform(-2.0, 2.0)
    return (SymplecticMatrix2(1.0, 0.0, l, 1.0)
            @ SymplecticMatrix2(a, 0.0, 0.0, 1.0 / a)
            @ SymplecticMatrix2(1.0, r, 0.0, 1.0))


# ---------------------------------------------------------------------------
# MomentState and gaussian_init


def test_gaussian_init_standard():
    s = gaussian_init(1.0, 1.0, 1.0)
    assert (s.q, s.p) == (1.0, 1.0)
    assert s.sqq == 0.5 and s.spp == 0.5 and s.sqp == 0.0
    assert s.delta_q == pytest.approx(math.sqrt(0.5))


def test_gaussian_init_kappa_scaling():
    s = gaussian_init(2.0)
    assert s.sqq == pytest.approx(0.25)
    assert s.spp == pytest.approx(1.0)


@pytest.mark.parametrize("kappa", [0.1, 0.5, 1.0, 3.0, 10.0])
def test_gaussian_init_minimum_uncertainty(kappa):
    assert gaussian_init(kappa).cov_det == pytest.approx(0.25, abs=1e-15)


def test_gaussian_init_rejects_nonpositive_kappa():
    with pytest.raises(ValueError):
        gaussian_init(0.0)
    with pytest.raises(ValueError):
        gaussian_init(-1.0)


def test_moment_state_uncertainty_bound():
    with pytest.raises(ValueError):
        MomentState(0.0, 0.0, 0.1, 0.0, 0.1)   # det 0.01 < 1/4
    MomentState(0.0, 0.0, 0.5, 0.0, 0.5)       # boundary passes


def test_moment_state_rejects_non_finite():
    with pytest.raises(ValueError):
        MomentState(float("inf"), 0.0, 0.5, 0.0, 0.5)


# ---------------------------------------------------------------------------
# propagate


def test_propagate_identity():
    s = gaussian_init(1.0, 0.3, -0.2)
    assert propagate(SymplecticMatrix2.identity(), s) == s


def test_propagate_squeeze_on_standard_gaussian():
    lam = 2.0
    u = SymplecticMatrix2(lam, 0.0, 0.0, 1.0 / lam)
    out = propagate(u, gaussian_init(1.0))
    assert out.sqq == pytest.approx(lam * lam / 2.0, abs=1e-14)
    assert out.spp == pytest.approx(1.0 / (2.0 * lam * lam), abs=1e-14)
    assert out.sqp == pytest.approx(0.0, abs=1e-15)


def test_propagate_mean_follows_matrix():
    u = rotation_matrix(1.0, 0.7)
    s = gaussian_init(1.0, 1.0, -2.0)
    out = propagate(u, s)
    assert out.q == pytest.approx(u.u11 * 1.0 + u.u12 * -2.0)
    assert out.p == pytest.approx(u.u21 * 1.0 + u.u22 * -2.0)


def test_propagate_matches_matrix_congruence():
    for _ in range(50):
        u = random_symplectic(RNG)
        kappa = math.exp(RNG.uniform(-1.0, 1.0))
        s = gaussian_init(kappa, RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        out = propagate(u, s)
        sigma = np.array([[s.sqq, s.sqp], [s.sqp, s.spp]])
        ref = u.as_array() @ sigma @ u.as_array().T
        assert out.sqq == pytest.approx(ref[0, 0], abs=1e-12)
        assert out.sqp == pytest.approx(ref[0, 1], abs=1e-12)
        assert out.spp == pytest.approx(ref[1, 1], abs=1e-12)


def test_propagate_preserves_cov_det():
    for _ in range(50):
        u = random_symplectic(RNG)
        s = gaussian_init(math.exp(RNG.uniform(-1.0, 1.0)))
        out = propagate(u, s)
        assert abs(out.cov_det - s.cov_det) < 1e-12


def test_propagate_rejects_far_from_symplectic():
    s = gaussian_init(1.0)
    with pytest.raises(ValueError):
        propagate(SymplecticMatrix2(2.0, 0.0, 0.0, 1.0), s)


def test_propagate_on_printed_squeezing_matrix():
    # regression pin: a tabulated squeezing matrix, entered verbatim, sends
    # the standard Gaussian to sqq = (u11^2 + u12^2)/2
    u = SymplecticMatrix2(0.227570, 0.007556, 0.000447, 4.394266)
    out = propagate(u, gaussian_init(1.0), det_tol=1e-3)
    assert out.sqq == pytest.approx(0.0259226, abs=1e-6)


# ---------------------------------------------------------------------------
# delta_q dual route


def test_delta_q_basics():
    assert delta_q(SymplecticMatrix2.identity()) ** 2 == pytest.approx(0.5)
    tau = 1.7
    assert delta_q(free_motion(tau)) ** 2 == pytest.approx(0.5 * (1 + tau * tau))
    b = 2.0
    assert delta_q(squeezed_fourier(b)) ** 2 == pytest.approx(b * b / 2.0)


def test_delta_q_equals_covariance_route():
    for _ in range(100):
        u = random_symplectic(RNG)
        via_moments = propagate(u, gaussian_init(1.0)).sqq
        assert abs(delta_q(u) ** 2 - via_moments) < 1e-12


# ---------------------------------------------------------------------------
# backcast


def test_backcast_scalar_and_vector():
    assert backcast_error(2.0, 1.0) == pytest.approx(0.5)
    assert backcast_error(1.0, 0.37) == pytest.approx(0.37)
    out = backcast_error(-1.16211, [0.1, 0.2])
    assert out[0] == pytest.approx(0.08605, abs=1e-5)
    assert out[1] == pytest.approx(0.17210, abs=1e-5)


def test_backcast_rejects_zero():
    with pytest.raises(ValueError):
        backcast_error(0.0, 1.0)


# ---------------------------------------------------------------------------
# congruence


def test_congruence_origin_is_fixed():
    prof = ConstantBeta(1.0)
    taus = np.linspace(0.0, PI, 9)
    res = congruence(prof, [CanonicalState(0.0, 0.0)], taus, CFG)
    assert np.max(np.abs(res.qs)) == 0.0
    assert np.max(np.abs(res.ps)) == 0.0


def test_congruence_rigid_rotation():
    prof = ConstantBeta(1.0)
    taus = np.array([0.0, PI / 2])
    inits = [CanonicalState(math.cos(w), math.sin(w))
             for w in np.linspace(0, 2 * PI, 8, endpoint=False)]
    res = congruence(prof, inits, taus, CFG)
    radii = np.hypot(res.qs[-1], res.ps[-1])
    assert np.allclose(radii, 1.0, atol=1e-9)


def test_congruence_endpoint_linearity():
    a = ThetaAnsatz.from_targets(2.0, 0.0)
    pulse = build_chain([a])
    taus = np.linspace(-PI / 2, PI / 2, 5)
    s1 = CanonicalState(1.0, -1.0)
    s2 = CanonicalState(-0.4, 0.7)
    s_sum = CanonicalState(2.0 * s1.q + s2.q, 2.0 * s1.p + s2.p)
    res = congruence(pulse.profile, [s1, s2, s_sum], taus, CFG)
    q_end = res.qs[-1]
    p_end = res.ps[-1]
    assert q_end[2] == pytest.approx(2.0 * q_end[0] + q_end[1], abs=1e-8)
    assert p_end[2] == pytest.approx(2.0 * p_end[0] + p_end[1], abs=1e-8)


def test_congruence_csv():
    prof = ConstantBeta(1.0)
    taus = np.array([0.0, 0.5])
    res = congruence(prof, [CanonicalState(1.0, 0.0),
                            CanonicalState(0.0, 1.0)], taus, CFG)
    buf = io.StringIO()
    write_congruence_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tau,init_index,q,p"
    assert len(lines) == 1 + 2 * 2


# ---------------------------------------------------------------------------
# shadow


def test_shadow_rotation_keeps_delta_q():
    taus = np.linspace(0.0, 2 * PI, 21)
    res = shadow(ConstantBeta(1.0), gaussian_init(1.0, 1.0, 0.0), taus, CFG)
    assert np.allclose(res.dq, math.sqrt(0.5), atol=1e-9)
    assert np.allclose(res.dp, math.sqrt(0.5), atol=1e-9)


def test_shadow_free_motion_spreads_monotonically():
    taus = np.linspace(0.0, 3.0, 16)
    res = shadow(ConstantBeta(0.0), gaussian_init(1.0), taus, CFG)
    assert np.all(np.diff(res.dq) > 0)


def test_shadow_belt_flag():
    taus = np.linspace(0.0, 1.0, 5)
    res = shadow(ConstantBeta(1.0), gaussian_init(1.0, 1.0, 0.0), taus, CFG,
                 belt_radius=10.0)
    assert res.within_belt
    tight = shadow(ConstantBeta(1.0), gaussian_init(1.0, 1.0, 0.0), taus, CFG,
                   belt_radius=1.0)
    assert not tight.within_belt


def test_shadow_csv_format():
    taus = np.linspace(0.0, 1.0, 3)
    res = shadow(ConstantBeta(1.0), gaussian_init(1.0), taus, CFG)
    buf = io.StringIO()
    write_shadow_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tau,q_mean,p_mean,delta_q,delta_p"
    assert len(lines) == 4


def test_shadow_two_stage_amplifier_endpoint():
    # shadow across the two-stage amplifier: final dq = |lambda|*sqrt(1/2)
    b1, b2 = 5.0 / 3.0, 184.0 / 95.0
    pulse = build_chain([ThetaAnsatz.from_targets(b1, 0.0),
                         ThetaAnsatz.from_targets(b2, 0.0)])
    taus = np.linspace(-PI / 2, 3 * PI / 2, 33)
    res = shadow(pulse.profile, gaussian_init(1.0, 1.0, 1.0), taus, CFG)
    lam = b2 / b1
    assert res.dq[-1] == pytest.approx(lam * math.sqrt(0.5), abs=1e-3)
    # squeezing is most visible in the middle of the run, not at the ends
    assert res.max_delta_q > res.dq[-1]
    mid = len(taus) // 2
    assert np.argmax(res.dq) not in (0, len(taus) - 1)
    assert res.dq[mid] > res.dq[0]
