"""Integrators, monodromy, zone classification."""

import dataclasses
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest

from softsqueeze import design, evolution
from softsqueeze.cli import parse_angle
from softsqueeze.core import (
    BetaProfile,
    CanonicalState,
    CompositeBeta,
    ConstantBeta,
    MathieuBeta,
    SampledBeta,
    SymplecticMatrix2,
    free_motion,
    rotation_matrix,
    squeezed_fourier,
)
from softsqueeze.design import (
    ConstantTail,
    JoinReport,
    ThetaAnsatz,
    build_chain,
    quarter_period,
    verify_design,
)
from softsqueeze.evolution import (
    DEFAULT_CONFIG,
    IntegrationError,
    IntegratorConfig,
    apply_to_state,
    classify,
    integrate,
    integrate_path,
    integrate_symmetric,
    mathieu_batch,
    monodromy,
)

RNG = np.random.default_rng(8891)
PI = math.pi

FAST = IntegratorConfig(steps=4000)


def entrywise_err(u, v):
    return np.max(np.abs(u.as_array() - v.as_array()))


def test_free_motion_oracle():
    u = integrate(ConstantBeta(0.0), 0.0, 1.0, FAST)
    assert entrywise_err(u, free_motion(1.0)) < 1e-12


def test_rotation_oracle():
    u = integrate(ConstantBeta(1.0), 0.0, PI / 2, FAST)
    assert entrywise_err(u, rotation_matrix(1.0, PI / 2)) < 1e-12


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 3.3])
def test_rotation_oracle_general_kappa(kappa):
    dt = 1.1
    u = integrate(ConstantBeta(kappa * kappa), 0.2, 0.2 + dt, FAST)
    assert entrywise_err(u, rotation_matrix(kappa, dt)) < 1e-11


def test_negative_beta_hyperbolic_oracle():
    # beta = -mu^2: solution in cosh/sinh
    mu, dt = 1.3, 0.8
    u = integrate(ConstantBeta(-mu * mu), 0.0, dt, FAST)
    ref = SymplecticMatrix2(
        math.cosh(mu * dt), math.sinh(mu * dt) / mu,
        mu * math.sinh(mu * dt), math.cosh(mu * dt),
    )
    assert entrywise_err(u, ref) < 1e-11


def test_zero_length_interval_is_identity():
    u = integrate(MathieuBeta(1.0, 0.5), 0.7, 0.7, FAST)
    assert u == SymplecticMatrix2.identity()


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(ConstantBeta(1.0), 1.0, 0.0, FAST)


def test_interval_outside_domain_rejected():
    taus = np.linspace(0.0, 1.0, 33)
    prof = SampledBeta(taus, np.ones_like(taus))
    with pytest.raises(ValueError):
        integrate(prof, 0.0, 2.0, FAST)


def test_det_preserved_on_mathieu():
    u = integrate(MathieuBeta(1.217, 0.844), PI / 2, 5 * PI / 2, DEFAULT_CONFIG)
    assert abs(u.det - 1.0) < 1e-9


def test_semigroup_property():
    prof = MathieuBeta(1.3, 0.7)
    cfg = IntegratorConfig(steps=8000)
    for _ in range(5):
        t0, t1, t2 = np.sort(RNG.uniform(0.0, 2 * PI, size=3))
        whole = integrate(prof, t0, t2, cfg)
        split = integrate(prof, t1, t2, cfg) @ integrate(prof, t0, t1, cfg)
        assert entrywise_err(whole, split) < 1e-7


class _UnsampledBeta(BetaProfile):
    """A profile that fails the test if the integrator samples it."""

    def beta(self, tau):
        raise AssertionError("profile sampled")

    def beta_array(self, taus):
        raise AssertionError("profile sampled")


def test_max_steps_enforced_before_sampling(monkeypatch):
    monkeypatch.setattr(IntegratorConfig, "max_steps", 4000)
    cfg = IntegratorConfig(steps=5000)
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate(_UnsampledBeta(), 0.0, 1.0, cfg)
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate_path(_UnsampledBeta(), [0.0, 0.5, 1.0], cfg)
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate_symmetric(ConstantBeta(1.0), 1.0, cfg)
    at_limit = IntegratorConfig(steps=4000)
    assert integrate(ConstantBeta(1.0), 0.0, 1.0, at_limit).det == pytest.approx(1.0)


def test_each_beta_sample_taken_once(monkeypatch):
    # consecutive blocks share a node, which the engine carries over instead
    # of sampling it again: 5 blocks of at most 8 steps sample 2 * 37 + 1 points
    monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", 4)
    taus = []

    class Counting(BetaProfile):
        def beta_array(self, t):
            taus.extend(np.ravel(t))
            return np.ones(np.shape(t))

    u = integrate(Counting(), 0.0, 1.0, IntegratorConfig(steps=37))
    assert entrywise_err(u, rotation_matrix(1.0, 1.0)) < 1e-7
    assert len(taus) == len(set(taus)) == 2 * 37 + 1


class _ArrayOnlyBeta(BetaProfile):
    """A profile that relies on the base class's beta."""

    def beta_array(self, taus):
        return np.ones(np.shape(taus))


def test_profile_with_beta_array_only():
    prof = _ArrayOnlyBeta()
    assert prof.beta(0.3) == prof.beta_array(np.array([0.3]))[0] == 1.0
    assert type(prof.beta(0.3)) is float
    u = integrate(prof, 0.0, PI / 2, IntegratorConfig(steps=400))
    assert entrywise_err(u, rotation_matrix(1.0, PI / 2)) < 1e-9


def test_integrate_path_max_steps_counts_all_segments(monkeypatch):
    # three segments of ceil(4000 / 3) = 1334 steps: each fits, the sum does not
    taus = np.linspace(0.0, 1.0, 4)
    cfg = IntegratorConfig(steps=4000)
    monkeypatch.setattr(IntegratorConfig, "max_steps", 4000)
    with pytest.raises(IntegrationError, match="4002"):
        integrate_path(_UnsampledBeta(), taus, cfg)
    monkeypatch.setattr(IntegratorConfig, "max_steps", 4002)
    mats = integrate_path(ConstantBeta(1.0), taus, cfg)
    assert entrywise_err(mats[-1], rotation_matrix(1.0, 1.0)) < 1e-12


def test_integrate_path_names_the_first_segment_that_fails_the_gate():
    # 8 RK4 steps of h = 1/8 at beta = 400 (k h = 2.5) drift far from det 1,
    # on both such segments; the first is named
    prof = CompositeBeta([(0.0, 1.0, ConstantBeta(0.0)), (1.0, 2.0, ConstantBeta(400.0)),
                          (2.0, 3.0, ConstantBeta(400.0))])
    with pytest.raises(IntegrationError) as exc:
        integrate_path(prof, [0.0, 1.0, 2.0, 3.0], IntegratorConfig(steps=24))
    assert str(exc.value).startswith("integrate over [1.0, 2.0]: determinant drift ")


def test_det_failure_asks_for_a_finer_step_only_when_the_step_can_help():
    cfg = DEFAULT_CONFIG
    with pytest.raises(IntegrationError, match="refine the step"):
        evolution._check_batch([1.0, 0.0, 0.0, 1.0 + 1e-6], cfg, lambda n: "small")
    # entries of 1e5: the rounding floor, 1.8e-5, dominates det_tol
    with pytest.raises(IntegrationError, match="too large for double precision") as exc:
        evolution._check_batch([1e5, 1e5, 1e5, 1e5 + 1.0], cfg, lambda n: "large")
    assert "refine the step" not in str(exc.value)
    # a non-finite drift: no step count helps either
    with pytest.raises(IntegrationError, match="too large for double precision"):
        evolution._check_batch([1e200, 0.0, 0.0, 1e200], cfg, lambda n: "overflowing")
    with pytest.raises(IntegrationError, match="drift nan .* the entries are not finite"):
        evolution._check_batch([math.nan, 0.0, 0.0, 1.0], cfg, lambda n: "nan")


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(steps=0)
    for knob in ("method", "det_tol", "max_steps"):
        with pytest.raises(TypeError):
            IntegratorConfig(**{knob: 1})
    assert IntegratorConfig.method == DEFAULT_CONFIG.method == "rk4"


def test_tolerances_are_constants_at_their_values():
    # the step count is the one setting; no check takes a tolerance
    assert [f.name for f in dataclasses.fields(IntegratorConfig)] == ["steps"]
    assert [f.name for f in dataclasses.fields(JoinReport)] == ["tau", "left", "right"]
    for fn, params in [(classify, ["u"]), (evolution.zone_codes, ["gamma"]),
                       (evolution.check_symmetry, ["profile", "tau"]),
                       (evolution._verify_periodic, ["profile", "tau0", "period"]),
                       (verify_design, ["pulse", "cfg"])]:
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    assert (IntegratorConfig.det_tol, IntegratorConfig.max_steps) == (1e-9, 10_000_000)
    assert (evolution.THRESHOLD_BAND, evolution.CLASSIFY_DET_TOL, evolution.PROFILE_TOL) == (
        1e-9, 1e-6, 1e-9)
    assert (design.VERIFY_TOL, JoinReport.tol) == (1e-6, 1e-8)


# ---------------------------------------------------------------------------
# symmetric-interval integration


def test_symmetric_tau_zero_is_identity():
    u = integrate_symmetric(ConstantBeta(2.0), 0.0, FAST)
    assert u == SymplecticMatrix2.identity()


def test_symmetric_constant_beta_oracle():
    # u(tau,-tau) for beta = 1 equals a rotation over length 2*tau
    u = integrate_symmetric(ConstantBeta(1.0), PI / 4, FAST)
    assert entrywise_err(u, rotation_matrix(1.0, PI / 2)) < 1e-11


def test_symmetric_matches_direct_integration():
    prof = MathieuBeta(0.9, 0.4)  # even in tau
    for tau in (0.3, 1.0, 2.2):
        u_sym = integrate_symmetric(prof, tau, DEFAULT_CONFIG)
        u_dir = integrate(prof, -tau, tau, DEFAULT_CONFIG)
        assert entrywise_err(u_sym, u_dir) < 1e-8


@pytest.mark.parametrize("steps", [2000, 2001])
def test_symmetric_counts_its_steps_over_the_whole_interval(steps):
    # cfg.steps counts all of [-tau, tau], as in integrate: U = u(tau, 0)
    # runs ceil(steps / 2) of them, and the result is U D U^-1 D
    theta = design.ThetaDerivedBeta(ThetaAnsatz.from_targets(2.0, 0.2))
    for prof, tau in ((MathieuBeta(0.9, 0.4), 1.3), (theta, PI / 2)):
        u = integrate(prof, 0.0, tau, IntegratorConfig(math.ceil(steps / 2)))
        want = u @ SymplecticMatrix2(u.u22, u.u12, u.u21, u.u11)
        assert integrate_symmetric(prof, tau, IntegratorConfig(steps)) == want


def test_symmetric_result_is_equidiagonal():
    u = integrate_symmetric(MathieuBeta(1.1, 0.3), 1.7, DEFAULT_CONFIG)
    assert abs(u.u11 - u.u22) < 1e-10


def test_symmetric_rejects_asymmetric_profile():
    taus = np.linspace(-2.0, 2.0, 201)
    prof = SampledBeta(taus, 1.0 + 0.3 * taus)  # odd part present
    with pytest.raises(ValueError):
        integrate_symmetric(prof, 1.5, FAST)


def test_symmetric_rejects_negative_tau():
    with pytest.raises(ValueError):
        integrate_symmetric(ConstantBeta(1.0), -0.5, FAST)


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_full_rotation_is_identity():
    kappa = 2.0
    u = monodromy(ConstantBeta(kappa * kappa), 0.0, 2 * PI / kappa, FAST)
    assert entrywise_err(u, SymplecticMatrix2.identity()) < 1e-10


def test_monodromy_half_turn_is_minus_identity():
    u = monodromy(ConstantBeta(1.0), 0.0, PI, FAST)
    ref = SymplecticMatrix2(-1.0, 0.0, 0.0, -1.0)
    assert entrywise_err(u, ref) < 1e-11


def test_monodromy_mathieu_equals_interval_matrix():
    prof = MathieuBeta(1.217, 0.844)
    u_m = monodromy(prof, PI / 2, 2 * PI, DEFAULT_CONFIG)
    u_i = integrate(prof, PI / 2, 5 * PI / 2, DEFAULT_CONFIG)
    assert entrywise_err(u_m, u_i) == 0.0


def test_monodromy_rejects_non_period():
    with pytest.raises(ValueError):
        monodromy(MathieuBeta(1.0, 0.5), 0.0, PI, FAST)


def test_monodromy_of_a_sampled_periodic_profile():
    # 33 samples on [0, 4pi] put each of the 17 periodicity probes on a
    # sample, where the spline returns the data
    taus = np.linspace(0.0, 4 * PI, 33)
    prof = SampledBeta(taus, 1.0 + 0.5 * np.cos(taus))
    assert monodromy(prof, 0.0, 2 * PI, FAST) == integrate(prof, 0.0, 2 * PI, FAST)
    with pytest.raises(ValueError, match="profile not periodic with period 3.0: residual"):
        monodromy(prof, 0.0, 3.0, FAST)
    with pytest.raises(ValueError, match="cannot verify periodicity: domain does not cover"):
        monodromy(prof, 1.0, 2 * PI, FAST)
    with pytest.raises(ValueError, match="period must be positive, got 0.0"):
        monodromy(prof, 0.0, 0.0, FAST)


def test_gamma_independent_of_tau0():
    prof = MathieuBeta(1.217, 0.844)
    cfg = IntegratorConfig(steps=20000)
    gammas = [monodromy(prof, t0, 2 * PI, cfg).trace
              for t0 in (0.0, PI / 2, 1.234, 4.0)]
    assert max(gammas) - min(gammas) < 1e-7


# ---------------------------------------------------------------------------
# classification


def test_classify_zone_i_rotation():
    rep = classify(rotation_matrix(1.0, PI / 2))
    assert rep.zone == "I"
    assert abs(rep.gamma) < 1e-15
    assert abs(abs(rep.lam_plus) - 1.0) < 1e-12
    assert rep.a_plus is None and rep.a_minus is None


def test_classify_zone_ii_free_motion():
    rep = classify(free_motion(1.0))
    assert rep.zone == "II"
    assert rep.gamma == 2.0


def test_classify_zone_iii_squeeze():
    lam = 3.0
    rep = classify(SymplecticMatrix2(lam, 0.0, 0.0, 1.0 / lam))
    assert rep.zone == "III"
    assert rep.lam_plus == pytest.approx(lam, abs=1e-12)
    assert rep.lam_minus == pytest.approx(1.0 / lam, abs=1e-12)
    assert abs(rep.lam_plus * rep.lam_minus - 1.0) < 1e-9


def test_classify_zone_iii_axes_pairing():
    # left eigenvectors with symplectic pairing a+ J a-^T = 1
    u = SymplecticMatrix2(2.5, 0.7, 1.1, 0.708)
    u = SymplecticMatrix2(u.u11, u.u12, u.u21, (1 + u.u12 * u.u21) / u.u11)
    rep = classify(u)
    assert rep.zone == "III"
    ap, am = np.asarray(rep.a_plus), np.asarray(rep.a_minus)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert ap @ J @ am == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(ap) == pytest.approx(1.0, abs=1e-12)
    # first nonzero component of a+ is positive
    lead = ap[0] if ap[0] != 0.0 else ap[1]
    assert lead > 0
    # each is a genuine left eigenvector
    assert np.allclose(ap @ u.as_array(), rep.lam_plus.real * ap, atol=1e-9)
    assert np.allclose(am @ u.as_array(), rep.lam_minus.real * am, atol=1e-9)


@pytest.mark.parametrize("delta", [1e-14, -1e-14])
def test_classify_zone_iii_axes_ignore_rounding(delta):
    # a near-diagonal map whose a+ is (0, 1) up to a component of delta /
    # (lam - 1/lam): rounding of that size does not flip the axes
    lam = 3.0
    rep = classify(SymplecticMatrix2(1.0 / lam, 0.0, delta, lam))
    assert rep.zone == "III"
    assert rep.a_plus[1] == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.a_plus[0]) <= 1e-14
    assert rep.a_minus == pytest.approx((-1.0, 0.0), abs=1e-14)


def test_classify_band_width(monkeypatch):
    # build diag(lam, 1/lam) whose trace sits 5e-10 above 2
    gamma = 2.0 + 5e-10
    lam = (gamma + math.sqrt(gamma * gamma - 4.0)) / 2.0
    almost = SymplecticMatrix2(lam, 0.0, 0.0, 1.0 / lam)
    assert classify(almost).zone == "II"
    monkeypatch.setattr(evolution, "THRESHOLD_BAND", 1e-12)
    assert classify(almost).zone == "III"


def test_classify_rejects_non_symplectic():
    with pytest.raises(ValueError):
        classify(SymplecticMatrix2(2.0, 0.0, 0.0, 1.0))


def test_classify_det_tolerance_parameter(monkeypatch):
    # drift 5e-5 is beyond classify's det tolerance of 1e-6, and within 1e-3
    u = SymplecticMatrix2(3.0, 0.0, 0.0, (1.0 + 5e-5) / 3.0)
    with pytest.raises(ValueError):
        classify(u)
    monkeypatch.setattr(evolution, "CLASSIFY_DET_TOL", 1e-3)
    assert classify(u).zone == "III"


# ---------------------------------------------------------------------------
# state transport and path integration


def test_apply_to_state_identity_and_free():
    s = CanonicalState(1.0, 2.0)
    assert apply_to_state(SymplecticMatrix2.identity(), s) == s
    out = apply_to_state(free_motion(1.0), CanonicalState(0.0, 1.0))
    assert (out.q, out.p) == (1.0, 1.0)


def test_apply_to_state_squeeze():
    lam = -1.16211
    u = SymplecticMatrix2(lam, 0.0, 0.0, 1.0 / lam)
    out = apply_to_state(u, CanonicalState(2.0, 3.0))
    assert out.q == pytest.approx(lam * 2.0, abs=1e-12)
    assert out.p == pytest.approx(3.0 / lam, abs=1e-12)


@pytest.mark.parametrize("taus, message", [
    ([0.5], "need at least two grid points"),
    ([0.0, 1.0, 1.0, 2.0], "tau grid must be strictly increasing"),
    # NaN compares false, so it would pass the order check; an infinite
    # span gave every finite segment 8 steps and a determinant failure
    ([0.0, 1.0, math.inf], r"tau grid point 2 is not finite: inf"),
    ([0.0, 1.0, math.nan], r"tau grid point 2 is not finite: nan"),
    ([-math.inf, 0.0, math.nan], r"tau grid point 0 is not finite: -inf"),
])
def test_integrate_path_rejects_a_grid_without_segments(monkeypatch, taus, message):
    # before any work: the engine is never reached
    monkeypatch.setattr(evolution, "_runs", None)
    with pytest.raises(ValueError, match=message):
        integrate_path(ConstantBeta(1.0), taus, FAST)


@pytest.mark.parametrize("tau0, tau1, message", [
    (math.nan, 1.0, "^tau0 is not finite: nan$"),
    (0.0, math.inf, "^tau1 is not finite: inf$"),
    (-math.inf, 0.0, "^tau0 is not finite: -inf$"),
])
def test_integrate_rejects_an_end_that_is_not_finite(monkeypatch, tau0, tau1, message):
    # before any work; it used to run the engine, then fail the determinant
    # gate with IntegrationError because the entries were not finite
    monkeypatch.setattr(evolution, "_runs", None)
    with pytest.raises(ValueError, match=message):
        integrate(ConstantBeta(1.0), tau0, tau1, FAST)


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_integrate_symmetric_rejects_a_tau_that_is_not_finite(monkeypatch, tau):
    # before the symmetry check samples beta on linspace(0, tau), which
    # warned for an infinite tau, and before the engine
    monkeypatch.setattr(evolution, "_runs", None)
    with pytest.raises(ValueError, match=f"^tau is not finite: {tau}$"):
        integrate_symmetric(ConstantBeta(1.0), tau, FAST)


@pytest.mark.parametrize("tau0, period, message", [
    (0.0, math.nan, "^period is not finite: nan$"),
    (0.0, math.inf, "^period is not finite: inf$"),
    (math.nan, PI, "^tau0 is not finite: nan$"),
])
def test_monodromy_rejects_a_value_that_is_not_finite(monkeypatch, tau0, period, message):
    monkeypatch.setattr(evolution, "_runs", None)
    with pytest.raises(ValueError, match=message):
        monodromy(ConstantBeta(1.0), tau0, period, FAST)


def test_integrate_path_consistency():
    prof = MathieuBeta(1.1, 0.6)
    taus = np.linspace(0.0, 2 * PI, 9)
    mats = integrate_path(prof, taus, IntegratorConfig(steps=8000))
    assert len(mats) == len(taus)
    assert mats[0] == SymplecticMatrix2.identity()
    direct = integrate(prof, taus[0], taus[-1], IntegratorConfig(steps=8000))
    assert entrywise_err(mats[-1], direct) < 1e-8


@pytest.mark.parametrize("points", [9, 101])
def test_integrate_path_equals_composed_segments(points):
    # two designed stages and a constant tail; an uneven grid puts the
    # segments into several step-count groups of the batched engine
    pulse = build_chain(
        [ThetaAnsatz.from_targets(2.0, 0.28), ThetaAnsatz.from_targets(1.5, 0.28)],
        ConstantTail(0.28, quarter_period(0.28)),
    )
    lo, hi = pulse.interval
    inner = np.sort(np.random.default_rng(points).uniform(lo, hi, points - 2))
    taus = np.concatenate([[lo], inner, [hi]])
    cfg = IntegratorConfig(steps=3000)
    mats = integrate_path(pulse.profile, taus, cfg)
    acc = SymplecticMatrix2.identity()
    for k, (a, b) in enumerate(zip(taus, taus[1:])):
        n = max(math.ceil((b - a) / (hi - lo) * cfg.steps), 8)
        acc = integrate(pulse.profile, a, b, IntegratorConfig(steps=n)) @ acc
        assert mats[k + 1] == acc


# ---------------------------------------------------------------------------
# composite runs restart at every join


def _pulse(bs, beta0, tail):
    """build_chain of stages (b, beta0), with a quarter-period tail if tail."""
    return build_chain([ThetaAnsatz.from_targets(b, beta0) for b in bs],
                       ConstantTail(beta0, quarter_period(beta0)) if tail else None)


def _closed_form(bs, beta0, tail):
    """The product of a pulse's squeezed Fourier stage and tail maps."""
    total = SymplecticMatrix2.identity()
    for b in [*bs, *([1.0 / math.sqrt(beta0)] if tail else [])]:
        total = squeezed_fourier(b) @ total
    return total


def _rel_err(u, want):
    """Largest entry error of u relative to max(1, largest entry of want)."""
    return entrywise_err(u, want) / max(1.0, np.max(np.abs(want.as_array())))


# Bench-shaped pulses (b's, beta0, tail), steps, and the bound on integrate's
# error against the closed form.  Measured after the splitting at joins:
# 4.4e-14, 1.7e-14, 4.3e-13, 3.9e-13 and 3.8e-9; each bound is about 2.5x
# that.  A single step grid over the whole pulse read 1.3e-12, 2.8e-11,
# 1.1e-11, 2.6e-10 and 1.2e-7, 26x to 1650x more.
CLOSED_FORM_PULSES = [
    ((2.0, 1.5), 0.2, True, 20000, 1e-13),
    ((2.7,), 0.05, True, 20000, 4e-14),
    ((1.1, 2.9, 0.7), 0.3, False, 20000, 1e-12),
    ((2.0, 1.5, 2.5), 0.03, True, 20000, 1e-12),
    ((2.0, 1.5, 2.5), 0.03, True, 2000, 1e-8),
]


@pytest.mark.parametrize("bs,beta0,tail,steps,bound", CLOSED_FORM_PULSES)
def test_designed_pulse_matches_closed_form_product(bs, beta0, tail, steps, bound):
    pulse = _pulse(bs, beta0, tail)
    u = integrate(pulse.profile, *pulse.interval, IntegratorConfig(steps))
    assert _rel_err(u, _closed_form(bs, beta0, tail)) < bound


# u(tau, 0) = [[C, S], [C', S']] of a designed stage about its centre, as
# (tau, C, S, C', S'), from the design lemma at 30 digits: printed by
# tests/make_path_references.py, which shares no code with the package.
PATH_REFERENCES = {
    (2.0, 0.2): (
        (0.1, "0.999120731387765111155666634255", "0.0999705723249418647942872630735", "-0.0176702331036352070192467895813", "0.999111984491585616849305609943"),
        (0.25, "0.99436965650859324940421779526", "0.249519659580748907772172097892", "-0.0462873435688589197978590257022", "0.994047225113871985258699053871"),
        (0.4, "0.985000494237554387462027597238", "0.397891449725888203372729196787", "-0.0795229158089792086252992646502", "0.983104594776776527344933141153"),
        (0.55, "0.9702450325974158395469940167", "0.544065178372588286221214848572", "-0.118043516153950583257056198686", "0.964474541882303604491324321681"),
        (0.7, "0.94938748286200294899168662626", "0.686798368854216849309250609904", "-0.160511698582301282644028759586", "0.937194605251590261066402359096"),
        (0.85, "0.922034407646037620519802959817", "0.824823352281760457881332611857", "-0.204106487398010522224048611992", "0.90197089820663377123469183861"),
        (1.0, "0.8882643641428984563103548133", "0.95711125107084170988655810971", "-0.245548365196725893212586900989", "0.861210837526175995452391160264"),
        (1.15, "0.848610613391722455390248506477", "1.08307450469377530465368549665", "-0.282228190323405998386036325729", "0.818191325441687099196012534164"),
        (1.3, "0.803892876258314995386393543995", "1.20259668099755287941524050646", "-0.313028512633121792461167875725", "0.775666718869444036879573487199"),
        (1.45, "0.754968554182715560636314198302", "1.31584722923355897601556782557", "-0.338542881811399847222831664097", "0.73450646907012701925123602788"),
        (1.5707963267948966, "0.712973538826570010685446173039", "1.40257659722663121761361457601", "-0.356486769413284985697055937003", "0.701288298613315647454178445939"),
    ),
    (1.5, 0.2): (
        (0.1, "0.99422366826199522617429781467", "0.0998081972419880733208924886284", "-0.114805827268436617818970470005", "0.994284755939811730277480026467"),
        (0.25, "0.9650585560926622370623723217", "0.247160066633174933316034000763", "-0.268686218172352104007714076593", "0.967393626551573538681572117458"),
        (0.4, "0.915772971786312993834513261751", "0.389510110035799304425744235282", "-0.379832769938307959952917316575", "0.930417605931424428453337366425"),
        (0.55, "0.853921263206181405997296373571", "0.526743410629296127582947662148", "-0.43525144580160716107866672236", "0.902582242844365775287327250067"),
        (0.7, "0.787902538333473659155001337652", "0.661672568894937071422333895313", "-0.437094752563763954283513089556", "0.902124764979247441436638019633"),
        (0.85, "0.724634498915199842224377764088", "0.799141687030788429026323168517", "-0.402396577991764234881081338739", "0.936234916808229644348354573936"),
        (1.0, "0.667747224570917557993706728417", "0.94375215080641841647462218767", "-0.356316875037241588699467744297", "0.993976700152485665909774618654"),
        (1.15, "0.617176016474565860386275946361", "1.09722324313565254323749524647", "-0.321083755839690686115467870893", "1.04945659392143698882688420378"),
        (1.3, "0.570326792155841174298461742074", "1.25711637815656008042151202753", "-0.307298590399422196652271777364", "1.07603205296512180004419710197"),
        (1.45, "0.524017872354572554063251078344", "1.41798238724715206650169473789", "-0.312607978764084673830225226414", "1.06242061839999801422821210519"),
        (1.5707963267948966, "0.485606902085977937199977580432", "1.5444591021632773092386400749", "-0.323737934723985272304194820044", "1.02963940144218493377141558379"),
    ),
    (0.8, 0.05): (
        (0.1, "0.98649879770950586521464498875", "0.0995510459070034876869206982202", "-0.268301530958454426332626189666", "0.986610733063701327706977926619"),
        (0.25, "0.918413720396688599621158620743", "0.243312867491770431158006453315", "-0.626344167633155224708777087979", "0.922898238247494437394277832703"),
        (0.4, "0.804023082082099126183261556352", "0.375154485374951305114552752667", "-0.876394266346070803177905815693", "0.834822749472811259228575845708"),
        (0.55, "0.663201151637454668100059763108", "0.495402030684364764991299618174", "-0.973367704572831897583260992418", "0.780746024450657258904182279441"),
        (0.7, "0.520405232000605524141367260788", "0.615599703010926199784436870735", "-0.904255153678257563993410306748", "0.851914563282194977525721912663"),
        (0.85, "0.398392862230665403132593801059", "0.762671965460740342900224008563", "-0.707893130543252200081369230743", "1.15491465438460227490921608974"),
        (1.0, "0.309732259908292506718054236691", "0.975724173313191897867621033478", "-0.477746315097449261861335425947", "1.72358982498685713826537700642"),
        (1.15, "0.251960025031386661545702156057", "1.28547069440774978786786070721", "-0.30709871949240412444311157147", "2.40210166563912093880110175299"),
        (1.3, "0.213174624201080283177620421924", "1.6882733720029899787160816", "-0.223107516456543961508926801621", "2.9240512242429422543034228471"),
        (1.45, "0.182032074294453961737955622477", "2.14736450639213446161357842335", "-0.198864438257553776277303253465", "3.14760772750022817213078607695"),
        (1.5707963267948966, "0.158147791931945383333744372491", "2.52927970168644012901851049987", "-0.197684739914931702578411005561", "3.16159962710805023550296778901"),
    ),
    (3.0, 0.4): (
        (0.1, "1.00605880151857568068366944804", "0.100199959079129949484268460122", "0.119861403053290216511886786993", "1.00591546553098886317515529927"),
        (0.25, "1.03578743957045902373217552487", "0.252799791417570293969853860789", "0.26719207454019129932746279902", "1.03066136924280482241438545249"),
        (0.4, "1.08266364927240241668082317722", "0.409323505991322803580263784648", "0.344368602123623863005534595103", "1.05384360539059999983174943401"),
        (0.55, "1.1349747673184909812787692518", "0.567633870333426445472123101236", "0.339863512731046647852308839187", "1.05105247752339416187620709064"),
        (0.7, "1.1810778907319014519886488785", "0.722638476295921169099987459653", "0.264915877968201464732902109558", "1.00877208501736963809154223233"),
        (0.85, "1.21216484163742368938447002927", "0.868341290344124803225088489677", "0.1443989144298691921725087501", "0.928411302674082525265780834981"),
        (1.0, "1.22356703128641012335790533483", "0.999905970161536364592872696504", "0.00712229062765509420005037492479", "0.823102940147847829763164294593"),
        (1.15, "1.21471058459355905889059868948", "1.11493557350293030756294555357", "-0.122324815866889533567660782813", "0.710964177163874897952814326428"),
        (1.3, "1.18800468373789032093453408644", "1.21363457786517942679724192886", "-0.229515604148117986333990728893", "0.607280372309879938958610421907"),
        (1.45, "1.14706920003659842058520507725", "1.29785375040897955316762324709", "-0.312822232287523748949620145321", "0.517843642384762896613783145624"),
        (1.5707963267948966, "1.10585104205636561910565883154", "1.35642138312832956481657648899", "-0.368617014018788505092586725262", "0.452140461042776564056807072211"),
    ),
}


def _stage_row(b, beta0, s):
    """u(s, -pi/2) of the stage (b, beta0) centred at 0, for s = 0 or +-a
    tau of PATH_REFERENCES: U(s) (D U(pi/2) D)^-1, with U(-tau) = D U(tau) D
    and (D U D)^-1 = [[u22, u12], [u21, u11]]."""
    rows = {tau: tuple(map(float, entries)) for tau, *entries in PATH_REFERENCES[(b, beta0)]}
    c, s_, c1, s1 = rows[abs(s)] if s else (1.0, 0.0, 0.0, 1.0)
    sign = -1.0 if s < 0 else 1.0
    e = rows[PI / 2]
    return SymplecticMatrix2(c, sign * s_, sign * c1, s1) @ SymplecticMatrix2(e[3], e[1], e[2], e[0])


def _reference_path(bs, beta0, tail):
    """A grid through a pulse built from PATH_REFERENCES' taus, and the
    reference u(tau, start) at each row.  A later stage leaves out its row at
    -1.45, so each stage join falls at an uneven place inside a segment."""
    pulse = _pulse(bs, beta0, tail)
    taus, want = [pulse.interval[0]], [SymplecticMatrix2.identity()]
    ref_taus = [p[0] for p in PATH_REFERENCES[(bs[0], beta0)][:-1]]
    before = SymplecticMatrix2.identity()
    for k, b in enumerate(bs):
        offset = pulse.profile.pieces[k][2].offset
        local = [-t for t in ref_taus[::-1]][(k > 0):] + [0.0] + ref_taus
        if k == len(bs) - 1 and not tail:
            local.append(PI / 2)
        for s in local:
            taus.append(offset + s)
            want.append(_stage_row(b, beta0, s) @ before)
        before = squeezed_fourier(b) @ before
    if tail:
        t0, t1, _ = pulse.profile.pieces[-1]
        for t in (t1 - t0) * np.array([0.13, 0.31, 0.5, 0.77, 1.0]):
            taus.append(t0 + t)
            want.append(rotation_matrix(math.sqrt(beta0), t) @ before)
    return pulse, taus, want


# Every row of integrate_path at the default steps lies within 2e-13 of the
# lemma's reference.  Measured after the splitting at joins: 7.1e-14 (with
# tail) and 6.8e-14, now 1.1e-14 and 9.3e-15; a single step grid per segment
# read 4.9e-12 and 5.9e-12.
@pytest.mark.parametrize("bs,tail", [((2.0, 1.5), True), ((1.5, 2.0, 1.5), False)])
def test_path_rows_match_the_lemma_reference(bs, tail):
    pulse, taus, want = _reference_path(bs, 0.2, tail)
    mats = integrate_path(pulse.profile, taus)
    assert max(_rel_err(u, w) for u, w in zip(mats, want)) < 2e-13


# Each stage near a corner of the bench range, with and without a tail, and
# a two-stage chain of it, bound about 2.5x the measured 3.8e-13, 3.7e-15
# and 9.1e-14 at (0.8, 0.05) and 8.4e-16, 5.6e-16 and 4.1e-15 at (3.0, 0.4).
# The 3.8e-13 is RK4 truncation in the stage, not a defect: the 7.0-long
# quarter-period tail takes about 69% of the steps, and the error reads
# 9.5e-11, 3.8e-13 and 5.3e-15 at 5000, 20000 and 80000 steps.
@pytest.mark.parametrize("bs,beta0,tail,bound", [
    ((0.8,), 0.05, True, 1e-12),
    ((0.8,), 0.05, False, 1e-14),
    ((0.8, 0.8), 0.05, False, 2.5e-13),
    ((3.0,), 0.4, True, 2e-15),
    ((3.0,), 0.4, False, 1.5e-15),
    ((3.0, 3.0), 0.4, False, 1e-14),
])
def test_corner_path_rows_match_the_lemma_reference(bs, beta0, tail, bound):
    pulse, taus, want = _reference_path(bs, beta0, tail)
    mats = integrate_path(pulse.profile, taus)
    assert max(_rel_err(u, w) for u, w in zip(mats, want)) < bound


def test_reference_stage_lands_on_its_fourier_map():
    # the pasted references themselves: u(pi/2, -pi/2) = [[0, b], [-1/b, 0]]
    for b, beta0 in PATH_REFERENCES:
        assert entrywise_err(_stage_row(b, beta0, PI / 2), squeezed_fourier(b)) < 1e-15


def test_path_segment_across_a_join_is_the_product_of_its_parts():
    # the join at pi/2 falls strictly inside the segment [1.0, 2.5]: the
    # segment is cut there, each part takes its share of the segment's
    # steps and samples its own piece
    pulse = _pulse((2.0, 1.5), 0.2, False)
    (lo, join, first), (_, hi, second) = pulse.profile.pieces
    taus = [lo, 1.0, 2.5, hi]
    cfg = IntegratorConfig(steps=3000)
    mats = integrate_path(pulse.profile, taus, cfg)
    n = max(math.ceil(cfg.steps * ((2.5 - 1.0) / (hi - lo))), 8)
    parts = [(first, 1.0, join), (second, join, 2.5)]
    seg = SymplecticMatrix2.identity()
    for prof, a, b in parts:
        steps = math.ceil(n * ((b - a) / (2.5 - 1.0)))
        seg = integrate(prof, a, b, IntegratorConfig(steps)) @ seg
    assert mats[2] == seg @ mats[1]
    assert mats[2] == integrate(pulse.profile, 1.0, 2.5, IntegratorConfig(n)) @ mats[1]


def test_path_segment_starting_on_a_join_samples_the_later_piece():
    # a pulse whose stages' beta at the join differ in the last bits, by
    # enough to change this segment's matrix
    pulse = _pulse((2.9, 0.7), 0.05, True)
    (lo, join, first), (_, _, second), (_, hi, _) = pulse.profile.pieces
    taus = [lo, join, join + 0.05, hi]
    cfg = IntegratorConfig(steps=3000)
    mats = integrate_path(pulse.profile, taus, cfg)
    n = max(math.ceil(cfg.steps * (0.05 / (hi - lo))), 8)
    assert mats[2] == integrate(second, join, join + 0.05, IntegratorConfig(n)) @ mats[1]
    # CompositeBeta gives the join to the earlier piece; the two agree there
    # to rounding
    assert pulse.profile.beta(join) == first.beta(join) != second.beta(join)
    assert abs(first.beta(join) - second.beta(join)) < 1e-14


# ---------------------------------------------------------------------------
# batched Mathieu kernel


@pytest.fixture
def poisoned_workspace(monkeypatch):
    """Fill every engine workspace with NaN before its run, so that a run
    reading a value it did not write cannot match bit for bit.  Returns
    the sizes asked for."""
    sizes = []
    real = evolution._workspace

    def poisoned(size):
        ws = real(size)
        ws.fill(np.nan)
        sizes.append(size)
        return ws

    monkeypatch.setattr(evolution, "_workspace", poisoned)
    return sizes


@pytest.mark.parametrize("size", [1, 7, 8, 1001, 422400])
def test_workspace_starts_on_a_64_byte_boundary(size):
    # held buffers keep malloc from handing the same address back each time
    held = [evolution._workspace(size) for _ in range(8)]
    for ws in held:
        assert ws.shape == (size,) and ws.dtype == float and ws.flags.c_contiguous
        assert ws.ctypes.data % 64 == 0


def test_mathieu_batch_matches_scalar():
    b0 = np.array([1.054, 1.217, 1.577, 1.774])
    b1 = np.array([0.646, 0.844, 1.231, 1.454])
    u11, u12, u21, u22 = mathieu_batch(b0, b1, PI / 2, 5 * PI / 2, steps=20000)
    for i in range(len(b0)):
        ref = integrate(MathieuBeta(b0[i], b1[i]), PI / 2, 5 * PI / 2,
                        DEFAULT_CONFIG)
        got = SymplecticMatrix2(u11[i], u12[i], u21[i], u22[i])
        assert entrywise_err(got, ref) == 0.0


def test_mathieu_batch_det():
    b0 = RNG.uniform(0.9, 1.9, size=16)
    b1 = RNG.uniform(0.5, 1.6, size=16)
    u11, u12, u21, u22 = mathieu_batch(b0, b1, PI / 2, 5 * PI / 2, steps=20000)
    dets = u11 * u22 - u12 * u21
    assert np.max(np.abs(dets - 1.0)) < 1e-9


def test_mathieu_batch_independent_of_batch_and_block_size(monkeypatch, poisoned_workspace):
    # the product tree depends only on the step count: a node gives the same
    # bits alone, inside a wide batch on either side of a chunk edge (8193
    # nodes split at 4096, 10000 at 5000), and under any block budget
    rng = np.random.default_rng(4096)
    b0 = rng.uniform(0.9, 1.9, size=10000)
    b1 = rng.uniform(0.5, 1.6, size=10000)
    steps = 1001  # odd, so elements are carried up the tree
    for size, nodes in ((10000, (0, 4999, 5000, 9999)), (8193, (4095, 4096, 8192)),
                        (6400, (2303, 4095, 4096, 6399)), (4096, (0, 1234, 4095))):
        wide = mathieu_batch(b0[:size], b1[:size], PI / 2, 5 * PI / 2, steps=steps)
        for k in nodes:
            alone = mathieu_batch(b0[k], b1[k], PI / 2, 5 * PI / 2, steps=steps)
            assert [float(w[k]) for w in wide] == [float(a) for a in alone]
    for budget in (1, 64, 1 << 16):
        monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", budget)
        narrow = mathieu_batch(b0[:8], b1[:8], PI / 2, 5 * PI / 2, steps=steps)
        for w, n in zip(wide, narrow):
            assert np.array_equal(w[:8], n)
    # a batch wider than the budget runs in column chunks, on the reflected
    # one-period path and on the direct run
    for tau1 in (5 * PI / 2, 2.0):
        monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", 1 << 16)
        alone = [mathieu_batch(b0[k], b1[k], PI / 2, tau1, steps=steps) for k in range(11)]
        monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", 4)
        chunked = mathieu_batch(b0[:11], b1[:11], PI / 2, tau1, steps=steps)
        assert [[float(e[k]) for e in chunked] for k in range(11)] == [
            [float(e) for e in a] for a in alone]
    assert poisoned_workspace


@pytest.mark.parametrize("tau0,tau1,plans", [
    (PI / 2, 5 * PI / 2, 1),  # V and W as one run
    (0.0, 2 * PI, 0),         # V, of length 0, takes 1 step and W 1000: two runs,
                              # each planned at its call
    (0.0, 5.0, 1),            # the direct run
], ids=["paired", "unpaired", "direct"])
@pytest.mark.usefixtures("poisoned_workspace")
def test_prepared_mathieu_run_matches_fresh_batches(monkeypatch, tau0, tau1, plans):
    # one _MathieuRun called on three node sets, its held workspaces filled
    # with NaN again before each call, as poisoned_workspace fills a new
    # one: each node matches a fresh mathieu_batch of it alone, bit for bit
    workspaces = []
    real = evolution._workspace
    monkeypatch.setattr(evolution, "_workspace",
                        lambda size: workspaces.append(real(size)) or workspaces[-1])
    run = evolution._MathieuRun(5, tau0, tau1, 2000)
    monkeypatch.setattr(evolution, "_workspace", real)
    assert len(workspaces) == plans
    rng = np.random.default_rng(34)
    for _ in range(3):
        b0, b1 = rng.uniform(0.9, 1.9, 5), rng.uniform(0.5, 1.6, 5)
        for ws in workspaces:
            ws.fill(np.nan)
        got = run(b0, b1)
        assert got.shape == (4, 5)
        for k in range(5):
            alone = mathieu_batch(b0[k], b1[k], tau0, tau1, steps=2000)
            assert [float(e) for e in got[:, k]] == [float(a) for a in alone]


def _run_widths(monkeypatch, nodes, tau1, steps=8):
    """The column counts of the engine runs (_rk4_plan) of a mathieu_batch
    of nodes, each of which it plans and runs once."""
    widths = []
    real = evolution._rk4_plan

    def recorded(t0, t1, steps, width):
        widths.append(np.size(t0) * width)
        return real(t0, t1, steps, width)

    monkeypatch.setattr(evolution, "_rk4_plan", recorded)
    rng = np.random.default_rng(nodes)
    mathieu_batch(rng.uniform(0.9, 1.9, nodes), rng.uniform(0.5, 1.6, nodes), PI / 2, tau1, steps)
    return widths


@pytest.mark.parametrize("nodes,one_period,direct", [
    (6400, [6400] * 2, [6400]),       # an 80x80 scan: one chunk, V and W apart
    (2500, [5000], [2500]),           # V and W as one run
    (40000, [8000] * 10, [8000] * 5),
    (8193, [8192, 4097, 4097], [4096, 4097]),  # chunks of 4096 and 4097
    (4096, [8192], [4096]),
])
def test_run_widths_stay_within_half_the_budget_and_the_budget(monkeypatch, nodes, one_period,
                                                                direct):
    # no engine run is narrower than half the budget unless the batch is,
    # and none is wider than the budget
    budget = evolution._BLOCK_ELEMENTS
    for tau1, expected in ((5 * PI / 2, one_period), (2.0, direct)):
        widths = _run_widths(monkeypatch, nodes, tau1)
        assert widths == expected
        assert all(min(nodes, budget // 2) <= w <= budget for w in widths)


def test_widest_chunk_stays_under_memory_bound():
    # mathieu_batch's docstring: a run of w columns in blocks of n steps, s
    # in all, takes a workspace of at most (8 n + 4) w + 4 w bit_length(s)
    # doubles, and a call holds besides it at most 9 doubles per column of
    # its widest run and 7 per pair.  Over the default interval at 20000
    # steps each piece takes 5000 steps; B pairs run V and W apart, B
    # columns in blocks of one step, (12 + 52 + 9 + 7) B = 80 B doubles,
    # and no call of fewer pairs takes more
    budget = evolution._BLOCK_ELEMENTS
    bound = 8 * (9 * budget + 4 * budget * ((5000).bit_length() + 1) + 9 * budget + 7 * budget)
    for nodes in (budget, 6400, 4096, 2048, 160):
        rng = np.random.default_rng(nodes)
        b0 = rng.uniform(0.9, 1.9, nodes)
        b1 = rng.uniform(0.5, 1.6, nodes)
        tracemalloc.start()
        try:
            mathieu_batch(b0, b1, PI / 2, 5 * PI / 2, steps=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, nodes


def test_one_period_with_unequal_pieces_stays_under_memory_bound():
    # over [1, 1 + 2pi] at 20000 steps V takes 3184 steps and W 6817, so
    # every chunk runs them apart, one workspace at a time, and stays under
    # mathieu_batch's docstring bound of 80 B doubles
    budget = evolution._BLOCK_ELEMENTS
    for nodes in (4096, 2048, 160):
        rng = np.random.default_rng(nodes)
        b0 = rng.uniform(0.9, 1.9, nodes)
        b1 = rng.uniform(0.5, 1.6, nodes)
        tracemalloc.start()
        try:
            mathieu_batch(b0, b1, 1.0, 1.0 + 2 * PI, steps=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 80 * budget, nodes


@pytest.mark.parametrize("width,steps,n", [
    (1, 5000, 5000),     # a one-column run: one block
    (7, 5000, 4096),
    (8, 5000, 2048),
    (48, 500, 500),      # refine's 24-node window pass: one block
    (320, 500, 64),      # refine's 160-node locus scan
    (6400, 5000, 2),     # an 80x80 scan's V and W
    (8192, 5000, 1),     # the widest run
])
def test_block_steps_follow_the_run_width(monkeypatch, poisoned_workspace, width, steps, n):
    # a block holds about 4 B step-columns, and the run's workspace stays
    # within the bound of mathieu_batch's docstring, (8 n + 4) w + 4 w
    # bit_length(steps) doubles, 2 n + 1 more for one column
    budget = evolution._BLOCK_ELEMENTS
    assert budget == 8192
    assert evolution._block_steps(width, steps) == n
    assert (n + 3) * width <= 4 * budget
    blocks = []
    real = evolution._step_deltas

    def recorded(k, b1, *args):
        blocks.append(b1.shape[0])
        return real(k, b1, *args)

    def beta_at(taus, rows):
        rows[...] = 1.0

    monkeypatch.setattr(evolution, "_step_deltas", recorded)
    evolution._rk4(beta_at, 0.0, 1.0, steps, width)
    assert blocks[0] == n and sum(blocks) == steps
    bound = (8 * n + 4) * width + 4 * width * steps.bit_length() + (2 * n + 1) * (width == 1)
    assert len(poisoned_workspace) == 1 and poisoned_workspace[0] <= bound


def test_one_column_theta_run_is_one_block_sampled_in_budget_pieces(monkeypatch,
                                                                    poisoned_workspace):
    # a designed stage at 10000 steps runs as one block of 20001 beta rows,
    # and _sampler hands beta_array at most B + 1 of them per call; the
    # same run at a budget of 4, in 8-step blocks and 5-sample pieces, gives
    # the same bits
    budget = evolution._BLOCK_ELEMENTS
    assert budget == 8192
    profile = design.ThetaDerivedBeta(ThetaAnsatz.from_targets(2.0, 0.3))
    cfg = IntegratorConfig(steps=10000)
    blocks, samples = [], []
    real_deltas, real_beta = evolution._step_deltas, design.ThetaDerivedBeta.beta_array

    def recorded_deltas(k, b1, *args):
        blocks.append(b1.shape[0])
        return real_deltas(k, b1, *args)

    def recorded_beta(self, taus):
        samples.append(np.size(taus))
        return real_beta(self, taus)

    monkeypatch.setattr(evolution, "_step_deltas", recorded_deltas)
    monkeypatch.setattr(design.ThetaDerivedBeta, "beta_array", recorded_beta)
    u = integrate(profile, -PI / 2, PI / 2, cfg)
    assert blocks == [10000]
    assert sum(samples) == 20001 and max(samples) == budget + 1
    monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", 4)
    blocks.clear()
    samples.clear()
    small = integrate(profile, -PI / 2, PI / 2, cfg)
    assert len(blocks) == 1250 and max(samples) == 5
    assert (small.u11, small.u12, small.u21, small.u22) == (u.u11, u.u12, u.u21, u.u22)
    assert poisoned_workspace


@pytest.mark.parametrize("nodes,block,axis", [(160, (2, 2, 64, 320), 2), (8, (2, 2, 16, 500), 3)])
def test_block_layouts_match_single_nodes_at_default_budget(monkeypatch, nodes, block, axis):
    # refine's one-period batches at its 2000 steps and the default budget:
    # 160 nodes run V and W as 64-step blocks of 320 columns, steps first;
    # 8 nodes as one 500-step block of 16 columns, steps last.  A node alone
    # runs 2 columns, steps last; every node matches its run alone
    assert evolution._BLOCK_ELEMENTS == 8192
    rng = np.random.default_rng(nodes)
    b0 = rng.uniform(0.9, 1.9, size=nodes)
    b1 = rng.uniform(0.5, 1.6, size=nodes)
    layouts = set()
    real = evolution._tree

    def recorded(d, axis, *args):
        layouts.add((d.shape, axis))
        return real(d, axis, *args)

    monkeypatch.setattr(evolution, "_tree", recorded)
    batch = mathieu_batch(b0, b1, PI / 2, 5 * PI / 2, steps=2000)
    assert (block, axis) in layouts
    assert all(a == axis for _, a in layouts)
    for k in range(nodes):
        alone = mathieu_batch(b0[k], b1[k], PI / 2, 5 * PI / 2, steps=2000)
        assert [float(e[k]) for e in batch] == [float(a) for a in alone]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_narrow_batches_reuse_their_memory():
    # every block's arrays are views into one workspace per run, so repeated
    # narrow batches fault in no fresh pages; allocating them per block
    # instead, at a budget of 16384, averaged about 660 faults per call
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(5)
    batches = [(rng.uniform(0.9, 1.9, n), rng.uniform(0.5, 1.6, n)) for n in (1, 5, 8, 160)]

    def run():
        for b0, b1 in batches:
            mathieu_batch(b0, b1, PI / 2, 5 * PI / 2, steps=2000)

    run()
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / (20 * len(batches)) < 1.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_designed_pulse_runs_reuse_their_memory():
    # a one-column run of 20000 steps takes a 16384-step block, a workspace
    # of 1.3 MB and beta_array pieces of 8193 samples; repeated runs fault
    # in no fresh pages
    resource = pytest.importorskip("resource")
    profile = design.ThetaDerivedBeta(ThetaAnsatz.from_targets(2.0, 0.3))

    def run():
        integrate(profile, -PI / 2, PI / 2, DEFAULT_CONFIG)

    run()
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 20 < 1.0


@pytest.mark.parametrize("beta0,beta1,tau1", [
    (1e300, 1.0, 1.0),           # the direct run's step maps
    (1.0, 1.0, 1e300),           # the interval
    (1.0, 1e308, 2 * PI),        # 2 beta1, before any step
    (-20000.0, 0.0, 2 * PI),     # V and W fit, their reflected product does not
])
def test_mathieu_overflow_raises(beta0, beta1, tau1):
    # a finite input whose entries overflow raises, without a numpy warning
    with pytest.raises(OverflowError, match="overflow double precision"):
        mathieu_batch(beta0, beta1, 0.0, tau1, steps=200)
    with pytest.raises(OverflowError, match="overflow double precision"):
        integrate(MathieuBeta(beta0, beta1), 0.0, tau1, IntegratorConfig(steps=200))


def test_integrate_overflow_raises_for_any_profile():
    with pytest.raises(OverflowError, match="overflow double precision"):
        integrate(ConstantBeta(1e300), 0.0, 1.0)
    with pytest.raises(OverflowError):
        integrate_path(ConstantBeta(1e300), [0.0, 0.5, 1.0])


# (beta0, beta1) and u(5pi/2, pi/2) from 30-digit mpmath.odefun solutions,
# rounded to double, as written to bench/refs.json by bench/make_refs.py
MPMATH_MATRICES = [
    (1.217, 0.844, (0.22604473084135426, -0.07208895062404311,
                    0.09633799705399115, 4.3931795764092145)),
    (1.217, 1.6, (4.174729922655164, 8.26063879518505,
                  10.398344423145916, 20.81499137847654)),
    (1.9, 0.844, (-0.8781552476700916, 1.1525630169331589,
                  -1.2346941286105584, 0.48176309483261254)),
    (1.9, 1.6, (0.4437078164972663, 6.424932066286183,
                0.08926653394065433, 3.5463234089121087)),
]


def test_mathieu_batch_matches_mpmath_reference():
    # the delta-form product at the default 20000 steps is within 9.6e-14;
    # multiplying the step matrices S_k themselves misses by 1.9e-13
    b0, b1, ref = zip(*MPMATH_MATRICES)
    got = np.array(mathieu_batch(np.array(b0), np.array(b1), PI / 2, 5 * PI / 2)).T
    assert np.max(np.abs(got - np.array(ref))) <= 1.3e-13


# half the default block budget, two budgets that send every merge through
# the block stack, and the default
BUDGETS = [evolution._BLOCK_ELEMENTS // 2, 1, 4, evolution._BLOCK_ELEMENTS]


def _reference_rk4(profile, tau0, tau1, steps):
    """The engine's algorithm in plain Python: RK4 step maps in delta form
    from profile.beta_array samples on the linspace node/midpoint grid,
    multiplied by the level-wise pairwise tree (later step on the left, an
    odd last map carried up), with the identity added at the end."""
    betas = [float(b) for b in profile.beta_array(np.linspace(tau0, tau1, 2 * steps + 1))]
    h = (tau1 - tau0) / steps
    h2 = h * h
    maps = []
    for k in range(steps):
        b1, b2, b3 = betas[2 * k], betas[2 * k + 1], betas[2 * k + 2]
        r = b2 * (h2 * h2 / 24.0) - h2 / 6.0
        q = b2 * (h2 / 3.0)
        maps.append((
            b1 * r - q,
            h - b2 * (h2 * h / 6.0),
            (b1 + b3) * (b2 * (h2 * h / 12.0) - h / 6.0) - b2 * (2.0 * h / 3.0),
            b3 * r - q,
        ))

    def merge(a, b):
        a11, a12, a21, a22 = a
        b11, b12, b21, b22 = b
        return (
            a11 + b11 + (a11 * b11 + a12 * b21),
            a12 + b12 + (a11 * b12 + a12 * b22),
            a21 + b21 + (a21 * b11 + a22 * b21),
            a22 + b22 + (a21 * b12 + a22 * b22),
        )

    while len(maps) > 1:
        merged = [merge(maps[i + 1], maps[i]) for i in range(0, len(maps) - 1, 2)]
        maps = merged + maps[len(merged) * 2:]
    d11, d12, d21, d22 = maps[0]
    return (d11 + 1.0, d12, d21, d22 + 1.0)


def test_run_of_three_block_shapes_matches_plain_python_tree(monkeypatch, poisoned_workspace):
    # 200 columns at 2 * 128 + 99 steps: a first and a full block of 128
    # steps laid out steps last (2 * 128 + 1 > 200), then a last block of 99
    # laid out steps first (2 * 99 + 1 < 200), each shape with views of its
    # own; every column is the plain tree over its samples, bit for bit
    assert evolution._BLOCK_ELEMENTS == 8192
    blocks = []
    real = evolution._step_deltas

    def recorded(k, b1, *args):
        blocks.append((b1.shape, b1.strides[0] == b1.itemsize))
        return real(k, b1, *args)

    monkeypatch.setattr(evolution, "_step_deltas", recorded)
    rng = np.random.default_rng(355)
    b0 = rng.uniform(0.9, 1.9, size=200)
    b1 = rng.uniform(0.5, 1.6, size=200)
    batch = mathieu_batch(b0, b1, 0.25, 6.0, steps=355)
    assert blocks == [((128, 200), True)] * 2 + [((99, 200), False)]
    for k in range(200):
        want = _reference_rk4(MathieuBeta(b0[k], b1[k]), 0.25, 6.0, 355)
        assert tuple(float(e[k]) for e in batch) == want
    assert poisoned_workspace


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("steps", [1, 2, 3, 5, 17])
def test_integrate_matches_plain_python_tree(monkeypatch, poisoned_workspace, steps, budget):
    # bit for bit: the engine's arrays, block stack and in-place merges are
    # the plain level-wise tree over the same beta samples; small block
    # budgets send every merge through the stack.  The interval is not one
    # period, so the direct run takes it.
    monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", budget)
    profile = MathieuBeta(1.217, 0.844)
    monkeypatch.setattr(IntegratorConfig, "det_tol", math.inf)
    u = integrate(profile, 0.25, 6.0, IntegratorConfig(steps=steps))
    assert (u.u11, u.u12, u.u21, u.u22) == _reference_rk4(profile, 0.25, 6.0, steps)
    assert poisoned_workspace


def _reference_one_period(profile, tau0, steps):
    """The reflected one-period map in plain Python: V = u(tau0, c) and
    W = u(c + pi, tau0) from _reference_rk4 with c = pi floor(tau0/pi), each
    at ceil(steps * length / 2pi) steps (at least 1), composed as
    (V (D U^-1 D)) W with U = W V and D U^-1 D = [[u22, u12], [u21, u11]]."""
    c = PI * math.floor(tau0 / PI)

    def piece(a, b):
        return _reference_rk4(profile, a, b, max(math.ceil(steps * ((b - a) / (2 * PI))), 1))

    def mul(a, b):
        a11, a12, a21, a22 = a
        b11, b12, b21, b22 = b
        return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)

    v, w = piece(c, tau0), piece(tau0, c + PI)
    u11, u12, u21, u22 = mul(w, v)
    return mul(mul(v, (u22, u12, u21, u11)), w)


# one-period intervals as parse_angle reads them; tau1 - tau0 == 2pi exactly
ONE_PERIOD = [("pi/2", "5pi/2"), ("0", "2pi"), ("pi/4", "9pi/4"),
              ("-pi/2", "3pi/2"), ("3pi/2", "7pi/2")]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("steps", [1, 3, 17, 40])
@pytest.mark.parametrize("interval", ONE_PERIOD)
def test_one_period_matches_plain_python_reflection(monkeypatch, poisoned_workspace, interval,
                                                   steps, budget):
    # bit for bit, through integrate and a batch: the two half-period pieces
    # are the plain tree, composed by the reflection formula; the budgets run
    # the pieces as one engine batch or as two, in one block or in several
    tau0, tau1 = map(parse_angle, interval)
    assert tau1 - tau0 == 2 * PI
    monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", budget)
    profile = MathieuBeta(1.217, 0.844)
    want = _reference_one_period(profile, tau0, steps)
    monkeypatch.setattr(IntegratorConfig, "det_tol", math.inf)
    u = integrate(profile, tau0, tau1, IntegratorConfig(steps=steps))
    assert (u.u11, u.u12, u.u21, u.u22) == want
    batch = mathieu_batch([1.9, 1.217, 0.5], [1.6, 0.844, 0.1], tau0, tau1, steps)
    assert tuple(float(e[1]) for e in batch) == want
    assert poisoned_workspace


@pytest.mark.parametrize("interval", ONE_PERIOD[1:])
def test_one_period_agrees_with_direct_run(interval):
    # the reflected map against the engine's direct run over the whole
    # period at 20000 steps: entries within 1e-12 and the same zones
    tau0, tau1 = map(parse_angle, interval)
    rng = np.random.default_rng(15)
    b0 = np.concatenate([[m[0] for m in MPMATH_MATRICES], rng.uniform(0.2, 2.6, 12)])
    b1 = np.concatenate([[m[1] for m in MPMATH_MATRICES], rng.uniform(0.1, 1.6, 12)])
    got = np.array(mathieu_batch(b0, b1, tau0, tau1))

    def beta_at(taus, out):
        out[...] = b0 + 2.0 * b1 * np.cos(taus[..., None])

    direct = evolution._rk4(beta_at, tau0, tau1, DEFAULT_CONFIG.steps, b0.size).reshape(4, -1)
    assert np.max(np.abs(got - direct)) <= 1e-12
    assert np.array_equal(evolution.zone_codes(got[0] + got[3]),
                          evolution.zone_codes(direct[0] + direct[3]))
    for k in (0, 5):
        u = integrate(MathieuBeta(b0[k], b1[k]), tau0, tau1)
        assert (u.u11, u.u12, u.u21, u.u22) == tuple(got[:, k])
