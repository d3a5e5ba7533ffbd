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
    # of sampling it again: 19 blocks of at most 2 steps sample 2 * 37 + 1 points
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
])
def test_integrate_path_rejects_a_grid_without_segments(taus, message):
    with pytest.raises(ValueError, match=message):
        integrate_path(ConstantBeta(1.0), taus, FAST)


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


def _run_widths(monkeypatch, nodes, tau1, steps=8):
    """The column counts of the _rk4 runs of a mathieu_batch of nodes."""
    widths = []
    real = evolution._rk4

    def recorded(beta_at, t0, t1, steps, width):
        widths.append(np.size(t0) * width)
        return real(beta_at, t0, t1, steps, width)

    monkeypatch.setattr(evolution, "_rk4", recorded)
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


@pytest.mark.parametrize("width,steps,n", [
    (1, 5000, 4096),     # a one-column run: beta_array pieces of 8193 samples
    (7, 5000, 4096),
    (8, 5000, 2048),
    (48, 500, 500),      # refine's 24-node window pass: one block
    (320, 500, 64),      # refine's 160-node locus scan
    (6400, 5000, 2),     # an 80x80 scan's V and W
    (8192, 5000, 1),     # the widest run
])
def test_block_steps_follow_the_run_width(monkeypatch, poisoned_workspace, width, steps, n):
    # a block holds about 4 B step-columns and at most B / 2 steps, and the
    # run's workspace stays within the bound of mathieu_batch's docstring,
    # (8 n + 4) w + 4 w bit_length(steps) doubles, 2 n + 1 more for one column
    budget = evolution._BLOCK_ELEMENTS
    assert budget == 8192
    assert evolution._block_steps(width, steps) == n
    assert (n + 3) * width <= 4 * budget and n <= budget // 2
    blocks = []
    real = evolution._tree

    def recorded(d, axis, *args):
        blocks.append(d.shape[axis])
        return real(d, axis, *args)

    def beta_at(taus, rows):
        rows[...] = 1.0

    monkeypatch.setattr(evolution, "_tree", recorded)
    evolution._rk4(beta_at, 0.0, 1.0, steps, width)
    assert blocks[0] == n and sum(blocks) == steps
    bound = (8 * n + 4) * width + 4 * width * steps.bit_length() + (2 * n + 1) * (width == 1)
    assert len(poisoned_workspace) == 1 and poisoned_workspace[0] <= bound


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
