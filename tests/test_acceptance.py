"""Acceptance gate: every stated deliverable, checked at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with -s, or in the captured
output of failures) and then asserts, so the suite both documents and enforces
the targets.  Randomized checks draw 1000 cases from a fixed seed.
"""

import math

import numpy as np
import pytest

from softsqueeze import design, evolution, mathieu, packets, physical
from softsqueeze.core import (
    CanonicalState,
    MathieuBeta,
    SymplecticMatrix2,
    rotation_matrix,
)
from softsqueeze.evolution import DEFAULT_CONFIG, IntegratorConfig

TAU0 = math.pi / 2
TAU1 = 5 * math.pi / 2
N_CASES = 1000
SEED = 20260814


def check(label, ok, detail=""):
    line = f"PASS: {label}" if ok else f"FAIL: {label}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# 1. high-precision reference matrices


# Independent targets: the evolution matrix over [pi/2, 5pi/2] at four
# (beta0, beta1) drive points, row-major (u11, u12, u21, u22), solved with
# mpmath.odefun at 30 digits for the exact binary drive values and printed by
# tests/make_reference_matrices.py, which shares no code with the package.
# The u_s entry equals the (1.217, 0.844) point of bench/refs.json.
#
# The paper prints these matrices at the same drive points as
#   u_s (0.227570, 0.007556, 0.000447, 4.394266)
#   u1  (0.3625, 0.0023, -1.1147, 2.7518)
#   u2  (0.1757, 0.0053, 3.5018, 5.7980)
#   u3  (0.2161, 0.0082, 5.4446, 4.8334)
# No reading of the drive reproduces them: against the mpmath matrices they
# miss by up to 0.096, 1.17, 3.40 and 5.36 per entry, and read as transposed
# still by 0.089, 0.051, 0.151 and 0.150, far outside their own stated
# tolerances of 2e-3 (u_s) and 5e-3.  Nearby drive points and other drive
# conventions (ROADMAP item 2) do no better, so they are kept here as a
# record only.
REFERENCE_MATRICES = [
    ("u_s", 1.217, 0.844,
     (0.22604473084135426, -0.072088950624043107, 0.096337997053991157, 4.3931795764092145)),
    ("u1", 1.054, 0.646,
     (0.34305613415918939, -1.163410149636766, 0.053738484113118483, 2.7327309113839722)),
    ("u2", 1.577, 1.231,
     (0.26046873084291394, 3.4070800514735329, 0.15620761472983728, 5.8825174257034073)),
    ("u3", 1.774, 1.454,
     (0.36634326045623636, 5.3635924948014307, 0.15387086644061187, 4.9824872501715121)),
]
# absolute per-entry tolerance; RK4 at the default 20000 steps is within
# 1e-13, while at 1000 steps it misses by 6e-10 to 8e-9 although
# |det - 1| stays below 3e-11 and passes the determinant check
REFERENCE_TOL = 1e-10


def test_reference_matrix_reproduction():
    failures = []
    for name, b0, b1, target in REFERENCE_MATRICES:
        u = evolution.integrate(MathieuBeta(b0, b1), TAU0, TAU1, DEFAULT_CONFIG)
        errs = [abs(got - want)
                for got, want in zip((u.u11, u.u12, u.u21, u.u22), target)]
        if abs(u.det - 1.0) > 1e-9:
            failures.append(f"{name}: |det-1| = {abs(u.det - 1.0):.2e}")
        for entry, err in zip(("u11", "u12", "u21", "u22"), errs):
            if err > REFERENCE_TOL:
                failures.append(f"{name}.{entry}: err {err:.3e} > {REFERENCE_TOL:g}")
    ok = check("tabulated reference matrices", not failures, "; ".join(failures))
    assert ok, "; ".join(failures)


# ---------------------------------------------------------------------------
# 1b. Hill's determinant: the trace of every scan node in closed form
#
# The oracle below integrates nothing and imports nothing from the package.
# With z = tau/2 the drive beta0 + 2 beta1 cos(tau) is Hill's equation
# y'' + (theta0 + 2 theta1 cos 2z) y = 0 with theta0 = 4 beta0 and
# theta1 = 4 beta1, and the one-period trace is
# Gamma = 2 - 4 Delta(0) sin^2(pi sqrt(beta0)), where Delta(0) is the
# tridiagonal Hill determinant with unit diagonal and g_n =
# theta1/(theta0 - 4n^2) beside it in row n (Whittaker & Watson, Modern
# Analysis, section 19.42; Magnus & Winkler, Hill's Equation, 1966; DLMF
# 28.29).  At beta0 = n^2 the formula is 0 * inf.

HILL_N = 60
# Gamma error, relative to max(1, |Gamma|): RK4 at HILL_STEPS misses the
# oracle by at most 1.2e-8 on the box below (the oracle itself agrees with
# 40000-step scans to 8e-11)
HILL_STEPS = 2000
HILL_GAMMA_TOL = 1e-7
HILL_BAND = 1e-6     # nodes this close to |Gamma| = 2 are not zone-checked
HILL_SQUARE_GAP = 1e-3


def hill_gamma(beta0, beta1, n_max=HILL_N, n_tail=100 * HILL_N):
    """One-period trace by Hill's method, elementwise over arrays.

    Delta(0) of the rows n in [-n_max, n_max] comes from the three-term
    recurrence D_k = D_{k-1} - g_k g_{k-1} D_{k-2}; the truncated rows on
    each side multiply it by about 1 - sum_{n > n_max} g_n g_{n-1}, which
    takes the error at the four mpmath points from 4e-6 to 2e-12 at n_max = 60.
    """
    beta0 = np.asarray(beta0, dtype=float)
    th0 = 4.0 * beta0[..., None]
    th1 = 4.0 * np.asarray(beta1, dtype=float)[..., None]
    n = np.arange(-n_max, n_max + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = th1 / (th0 - 4.0 * n * n)
        d_prev = d = np.ones(g.shape[:-1])
        for k in range(1, g.shape[-1]):
            d_prev, d = d, d - g[..., k] * g[..., k - 1] * d_prev
    m = np.arange(n_max, n_max + n_tail)
    gt = th1 / (th0 - 4.0 * m * m)
    tail = 1.0 - np.sum(gt[..., 1:] * gt[..., :-1], axis=-1)
    s = np.sin(np.pi * np.emath.sqrt(beta0))  # imaginary for beta0 < 0
    return 2.0 - 4.0 * d * tail * tail * (s * s).real


def test_hill_oracle_matches_mpmath_traces():
    worst = 0.0
    for _, b0, b1, target in REFERENCE_MATRICES:
        gamma = target[0] + target[3]
        worst = max(worst, abs(float(hill_gamma(b0, b1)) - gamma) / max(1.0, abs(gamma)))
    assert check("Hill-determinant trace matches the mpmath matrices", worst <= 1e-10,
                 f"max relative error {worst:.2e}")


def test_scan_trace_and_zone_match_hill_determinant():
    # beta0 < 0 and the first three tongues (zone III), the stable gaps
    # between them (zone I), and beta1 up to 2.1
    rect = mathieu.ScanRect(-0.5, 3.0, 0.0, 2.1, n0=71, n1=43)
    scan = mathieu.scan_grid(rect, IntegratorConfig(steps=HILL_STEPS))
    b0, b1 = np.meshgrid(scan.beta0s, scan.beta1s, indexing="ij")
    gamma = hill_gamma(b0, b1)
    root = np.sqrt(np.abs(b0))
    near_square = (b0 > -HILL_SQUARE_GAP) & (np.abs(b0 - np.round(root) ** 2) < HILL_SQUARE_GAP)
    checked = ~scan.failed & ~near_square
    err = np.abs(scan.gamma - gamma) / np.maximum(1.0, np.abs(gamma))
    zoned = checked & (np.abs(np.abs(gamma) - 2.0) > HILL_BAND)
    want = np.where(np.abs(gamma) < 2.0, 1, 3)
    mismatches = int(np.sum(scan.zone[zoned] != want[zoned]))
    covered = {1, 3} <= set(want[zoned].tolist()) and b1[zoned].max() >= 2.0
    ok = (err[checked].max() <= HILL_GAMMA_TOL and mismatches == 0 and covered
          and checked.sum() >= 0.9 * checked.size)
    assert check("scan Gamma and zones match Hill's determinant at every node", ok,
                 f"max Gamma error {err[checked].max():.2e}, {mismatches} zone mismatches, "
                 f"{int(checked.sum())} of {checked.size} nodes checked")


# ---------------------------------------------------------------------------
# 2. double-zero refinement


def test_double_zero_refinement():
    res = mathieu.find_double_zero((1.217, 0.844), DEFAULT_CONFIG)
    dist = math.hypot(res.beta0 - 1.217, res.beta1 - 0.844)
    ok = (abs(res.u.u12) <= 1e-6 and abs(res.u.u21) <= 1e-6 and dist <= 0.02)
    assert check(
        "double-zero refinement from (1.217, 0.844)", ok,
        f"|u12|={abs(res.u.u12):.2e} |u21|={abs(res.u.u21):.2e} dist={dist:.4f}",
    )


# ---------------------------------------------------------------------------
# 3-5. designed pulses


def test_single_stage_squeezed_fourier_maps():
    failures = []
    for b in (5.0 / 3.0, 184.0 / 95.0, 2.0):
        pulse = design.build_chain([design.ThetaAnsatz.from_targets(b, 0.0)])
        u = evolution.integrate(pulse.profile, -math.pi / 2, math.pi / 2,
                                DEFAULT_CONFIG)
        for label, err in (("u11", abs(u.u11)), ("u22", abs(u.u22)),
                           ("u12", abs(u.u12 - b))):
            if err > 1e-6:
                failures.append(f"b={b:.4f} {label} err {err:.2e}")
    ok = check("single-stage pulses map to [[0, b], [-1/b, 0]]",
               not failures, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_two_stage_chain_lambda():
    chain = design.build_chain([
        design.ThetaAnsatz.from_targets(5.0 / 3.0, 0.0),
        design.ThetaAnsatz.from_targets(184.0 / 95.0, 0.0),
    ])
    lo, hi = chain.interval
    u = evolution.integrate(chain.profile, lo, hi, DEFAULT_CONFIG)
    lam = u.u11
    ok = (abs(u.u12) <= 1e-6 and abs(u.u21) <= 1e-6
          and abs(lam + 1.16211) <= 1e-4
          and abs(u.u22 - 1.0 / lam) <= 1e-6)
    assert check(
        "two-stage chain gives diag(lambda, 1/lambda), lambda = -1.16211",
        ok, f"lambda={lam:.6f} u12={u.u12:.2e} u21={u.u21:.2e}",
    )


def test_stage_plus_tail_amplification():
    beta0 = 0.28
    pulse = design.build_chain(
        [design.ThetaAnsatz.from_targets(1.99, beta0)],
        design.ConstantTail(beta0, design.quarter_period(beta0)),
    )
    lo, hi = pulse.interval
    u = evolution.integrate(pulse.profile, lo, hi, DEFAULT_CONFIG)
    gain = 1.0 / abs(u.u11)
    ok = abs(u.u12) <= 1e-6 and abs(u.u21) <= 1e-6 and abs(gain - 1.0530) <= 1e-3
    assert check(
        "stage plus quarter-period tail amplifies by 1.0530",
        ok, f"1/|lambda|={gain:.6f} u12={u.u12:.2e} u21={u.u21:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. symmetric-interval integration agreement


def test_symmetric_integration_agreement():
    cfg = IntegratorConfig(steps=2500)
    cases = [
        (MathieuBeta(1.217, 0.844), np.linspace(0.04, 2.0, 50)),
        (design.ThetaDerivedBeta(design.ThetaAnsatz.from_targets(2.0, 0.0)),
         np.linspace(0.03, math.pi / 2, 50)),
    ]
    worst = 0.0
    for profile, grid in cases:
        for tau in grid:
            a = evolution.integrate_symmetric(profile, float(tau), cfg)
            b = evolution.integrate(profile, -float(tau), float(tau), cfg)
            diff = max(abs(a.u11 - b.u11), abs(a.u12 - b.u12),
                       abs(a.u21 - b.u21), abs(a.u22 - b.u22))
            worst = max(worst, diff)
    ok = worst <= 1e-8
    assert check("symmetric-form integration matches [-tau, tau] on 50-point grids",
                 ok, f"max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. randomized property suite (1000 cases each)


@pytest.fixture(scope="module")
def random_monodromies():
    rng = np.random.default_rng(SEED)
    b0 = rng.uniform(0.0, 2.5, N_CASES)
    b1 = rng.uniform(0.0, 1.6, N_CASES)
    u11, u12, u21, u22 = evolution.mathieu_batch(b0, b1, TAU0, TAU1)
    return b0, b1, u11, u12, u21, u22


def test_determinant_preservation(random_monodromies):
    _, _, u11, u12, u21, u22 = random_monodromies
    err = float(np.max(np.abs(u11 * u22 - u12 * u21 - 1.0)))
    ok = err <= 1e-9
    assert check(f"det preserved over {N_CASES} random drives", ok,
                 f"max |det-1| = {err:.2e}")


def test_zone_eigenvalue_structure(random_monodromies):
    """Stable matrices carry unimodular conjugate pairs, unstable ones a
    real reciprocal pair."""
    _, _, u11, u12, u21, u22 = random_monodromies
    n_stable = n_unstable = 0
    worst_stable = worst_unstable = 0.0
    for entries in zip(u11, u12, u21, u22):
        u = SymplecticMatrix2(*(float(x) for x in entries))
        rep = evolution.classify(u)
        if rep.zone == "I":
            n_stable += 1
            worst_stable = max(
                worst_stable,
                abs(abs(complex(rep.lam_plus)) - 1.0),
                abs(abs(complex(rep.lam_minus)) - 1.0),
            )
        elif rep.zone == "III":
            n_unstable += 1
            lp, lm = complex(rep.lam_plus), complex(rep.lam_minus)
            worst_unstable = max(worst_unstable, abs(lp.imag), abs(lm.imag),
                                 abs(lp.real * lm.real - 1.0))
    ok = (n_stable > 50 and n_unstable > 50
          and worst_stable <= 1e-9 and worst_unstable <= 1e-9)
    assert check(
        "zone I unimodular / zone III real reciprocal eigenvalues", ok,
        f"stable n={n_stable} err={worst_stable:.2e}; "
        f"unstable n={n_unstable} err={worst_unstable:.2e}",
    )


def test_trace_independent_of_start(random_monodromies, monkeypatch):
    # each case over its own period [t0, t0 + 2pi], through the reflected
    # path every scan takes.  The starts are distinct multiples of 2^-20 in
    # [0, 2pi), and 2pi is a multiple of 2^-47, so t0 + 2pi is exact and
    # tau1 - tau0 == 2pi holds in floating point; for about 28% of starts
    # drawn uniformly from [0, 2pi) it does not, and those would quietly
    # take the direct run.
    b0, b1, u11, _, _, u22 = random_monodromies
    rng = np.random.default_rng(SEED + 1)
    starts = np.ldexp(rng.choice(int(2.0 * math.pi * 2**20), N_CASES, replace=False), -20)
    reflected = []
    mathieu_run = evolution._MathieuRun

    def recording(nodes, t0, *args):
        run = mathieu_run(nodes, t0, *args)
        if run.reflect:
            reflected.append(t0)
        return run

    monkeypatch.setattr(evolution, "_MathieuRun", recording)
    err = 0.0
    for k, t0 in enumerate(starts):
        t1 = t0 + 2.0 * math.pi
        assert t1 - t0 == 2.0 * math.pi
        v11, _, _, v22 = evolution.mathieu_batch(b0[k], b1[k], t0, t1)
        err = max(err, abs(float(v11 + v22) - (u11[k] + u22[k])))
    assert reflected == list(starts) and len(set(reflected)) == N_CASES
    ok = err <= 1e-7
    assert check("one-period trace independent of starting point", ok,
                 f"max |dGamma| = {err:.2e}")


def test_coefficient_residuals():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(N_CASES):
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        beta0 = rng.uniform(0.0, 1.5)
        a = design.ThetaAnsatz.from_targets(b, beta0)
        worst = max(worst, float(np.max(np.abs(a.residuals()))))
    ok = worst <= 1e-12
    assert check(f"target-system residuals over {N_CASES} random designs", ok,
                 f"max residual {worst:.2e}")


def test_profile_symmetry():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(N_CASES):
        a = design.ThetaAnsatz.from_targets(rng.uniform(0.7, 2.8), rng.uniform(0.0, 0.9))
        prof = design.ThetaDerivedBeta(a)
        taus = rng.uniform(0.0, math.pi / 2, 4)
        worst = max(worst, float(np.max(np.abs(
            prof.beta_array(taus) - prof.beta_array(-taus)))))
    ok = worst <= 1e-10
    assert check(f"designed beta profiles even in tau ({N_CASES} cases)", ok,
                 f"max asymmetry {worst:.2e}")


def test_theta_round_trip():
    """u12 of the symmetric evolution recovers theta itself."""
    rng = np.random.default_rng(SEED + 4)
    cfg = IntegratorConfig(steps=1500)
    worst = 0.0
    for _ in range(N_CASES):
        b = rng.uniform(0.7, 2.8)
        beta0 = rng.uniform(0.0, 0.9)
        tau = rng.uniform(0.05, math.pi / 2)
        a = design.ThetaAnsatz.from_targets(b, beta0)
        prof = design.ThetaDerivedBeta(a)
        u = evolution.integrate_symmetric(prof, tau, cfg)
        worst = max(worst, abs(u.u12 - design.theta_eval(a, tau)))
    ok = worst <= 1e-6
    assert check(f"u12(tau, -tau) returns theta(tau) ({N_CASES} cases)", ok,
                 f"max error {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. moment transport


def _random_symplectic(rng) -> SymplecticMatrix2:
    s = math.exp(rng.uniform(-1.5, 1.5))
    stretch = SymplecticMatrix2(s, 0.0, 0.0, 1.0 / s)
    left = rotation_matrix(1.0, rng.uniform(0.0, 2.0 * math.pi))
    right = rotation_matrix(1.0, rng.uniform(0.0, 2.0 * math.pi))
    return left @ (stretch @ right)


def test_width_dual_route():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(N_CASES):
        u = _random_symplectic(rng)
        direct = packets.delta_q(u)
        via_cov = packets.propagate(u, packets.gaussian_init(1.0)).delta_q
        worst = max(worst, abs(direct - via_cov))
    ok = worst <= 1e-12
    assert check(f"width formula equals covariance propagation ({N_CASES} cases)",
                 ok, f"max diff {worst:.2e}")


def test_covariance_determinant_invariance():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(N_CASES):
        s = packets.gaussian_init(rng.uniform(0.3, 3.0),
                                  rng.normal(), rng.normal())
        out = packets.propagate(_random_symplectic(rng), s)
        worst = max(worst, abs(out.cov_det - s.cov_det))
    ok = worst <= 1e-12
    assert check(f"covariance determinant invariant ({N_CASES} cases)", ok,
                 f"max drift {worst:.2e}")


def test_congruence_endpoints():
    chain = design.build_chain([
        design.ThetaAnsatz.from_targets(5.0 / 3.0, 0.0),
        design.ThetaAnsatz.from_targets(184.0 / 95.0, 0.0),
    ])
    lam = -(184.0 / 95.0) / (5.0 / 3.0)
    lo, hi = chain.interval
    states = [CanonicalState(1.0, 0.0), CanonicalState(-0.3, 0.0),
              CanonicalState(2.2, 0.0)]
    res = packets.congruence(chain.profile, states,
                             np.linspace(lo, hi, 9), DEFAULT_CONFIG)
    errs = [abs(res.qs[-1, i] - lam * st.q) for i, st in enumerate(states)]
    ok = max(errs) <= 1e-4
    assert check("trajectory congruence endpoints land on lambda * q0", ok,
                 f"max endpoint error {max(errs):.2e}")


# ---------------------------------------------------------------------------
# 9. laboratory numbers


def test_trap_numbers():
    ctx = physical.PhysicalContext.proton(r0=10.0, T=1.0)
    energy = physical.trap_energy_ev(ctx, omega=1e5)
    phi0, phi1 = physical.paul_voltages(ctx, 1.217, 0.844, omega=1e5)
    errs = {
        "energy": abs(energy / 1.0423 - 1.0),
        "phi0": abs(phi0 / 1.268 - 1.0),
        "phi1": abs(phi1 / 1.759 - 1.0),
    }
    ok = all(e <= 5e-3 for e in errs.values())
    assert check(
        "proton trap numbers 1.0423 eV / 1.268 V / 1.759 V within 0.5%", ok,
        f"{energy:.4f} eV, {phi0:.4f} V, {phi1:.4f} V",
    )


def test_rotating_cylinder_estimate():
    b = physical.rotating_cylinder_field(1.0, physical.ESU_PER_COULOMB)
    ok = abs(b / 1.2556 - 1.0) <= 1e-2
    assert check("rotating cylinder at 1/s and 1 C/cm gives 1.2556 G within 1%",
                 ok, f"B = {b:.5f} G")


def test_scaling_exponents_exact():
    expected = {"q": 0.5, "p": -0.5, "v": -0.5, "Phi": -2.0, "B": -1.0,
                "ratio": -1.0}
    ctx = physical.PhysicalContext.proton(r0=10.0, T=1.0)
    t_list = [1e-3, 1.0, 100.0]
    table = physical.scaling_table(
        ctx, {"Phi": 1.0, "B": 1.0, "ratio": 1.0}, 1.0, t_list)
    worst = 0.0
    for key, exp in expected.items():
        col = table[key]
        for i in range(len(t_list) - 1):
            got = math.log(col[i + 1] / col[i]) / math.log(t_list[i + 1] / t_list[i])
            worst = max(worst, abs(got - exp))
    ok = physical.SCALING_EXPONENTS == expected and worst <= 1e-12
    assert check("scaling exponents {1/2, -1/2, -1/2, -2, -1, -1} exact", ok,
                 f"max exponent error {worst:.2e}")


def test_correction_series_recurrence():
    worst = 0.0
    for n in range(6):
        lhs = physical.solenoid_coefficient(n + 1)
        rhs = physical.solenoid_coefficient(n) / (4.0 * (n + 1) * (n + 2))
        worst = max(worst, abs(lhs / rhs - 1.0))
    ok = (worst <= 1e-14
          and physical.solenoid_coefficient(1) == 0.125
          and physical.solenoid_coefficient(2) == pytest.approx(1.0 / 192.0,
                                                                rel=1e-15))
    assert check("radial-correction coefficients satisfy the wave-equation "
                 "recurrence for n <= 5", ok, f"max deviation {worst:.2e}")
