"""Matrix algebra, stiffness profiles, and closed-form generators."""

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import softsqueeze
from softsqueeze.core import (
    CanonicalState,
    CompositeBeta,
    ConstantBeta,
    MathieuBeta,
    SampledBeta,
    SymplecticMatrix2,
    _det_gate,
    free_motion,
    is_equidiagonal,
    profile_from_dict,
    profile_from_json,
    rotation_matrix,
    squeeze_compose,
    squeezed_fourier,
    symmetric_product,
)

RNG = np.random.default_rng(20260814)


def random_symplectic(rng):
    # lower * diag * upper triangular factors, det 1 by construction
    a = math.exp(rng.uniform(-1.0, 1.0))
    l = rng.uniform(-2.0, 2.0)
    r = rng.uniform(-2.0, 2.0)
    lower = SymplecticMatrix2(1.0, 0.0, l, 1.0)
    diag = SymplecticMatrix2(a, 0.0, 0.0, 1.0 / a)
    upper = SymplecticMatrix2(1.0, r, 0.0, 1.0)
    return lower @ diag @ upper


def test_det_and_trace():
    u = SymplecticMatrix2(1.0, 2.0, 0.5, 2.0)
    assert u.det == 1.0 * 2.0 - 2.0 * 0.5
    assert u.trace == 3.0


def test_require_symplectic_accepts_and_rejects():
    SymplecticMatrix2.identity().require_symplectic(1e-12)
    bad = SymplecticMatrix2(1.0, 0.0, 0.0, 1.1)
    with pytest.raises(ValueError):
        bad.require_symplectic(1e-9)


def test_det_gate_adds_the_rounding_floor_of_large_entries():
    eps = np.finfo(float).eps
    # 12pi at (1.217, 0.844), correct to 1.7e-15 relative: the drift is
    # rounding, 0.33 eps (|u11 u22| + |u12 u21|), above a tol of 1e-9
    u = (3586.366302107608, 1616.6947521338163, 7955.751842403747, 3586.36630210763)
    ok, drift, floor = _det_gate(*u, 1e-9)
    assert ok and drift == pytest.approx(1.863e-9, rel=1e-3)
    assert floor == pytest.approx(4.0 * eps * (u[0] * u[3] + u[1] * u[2]))
    # a real error of 1e-8 relative in one entry is still rejected
    ok, drift, floor = _det_gate(*u[:3], u[3] * (1.0 + 1e-8), 1e-9)
    assert not ok and drift > 1e-9 + floor
    # small entries: the floor is negligible and tol decides, as before
    assert not _det_gate(1.0, 0.0, 0.0, 1.0 + 2e-9, 1e-9)[0]
    assert _det_gate(1.0, 0.0, 0.0, 1.0 + 5e-10, 1e-9)[0]
    # NaN and infinite entries never pass, even though inf <= inf
    for bad in (math.nan, math.inf):
        assert not _det_gate(bad, 0.0, 0.0, 1.0, 1e-9)[0]
    # elementwise over arrays, as the scan mask uses it
    with np.errstate(invalid="ignore"):
        ok = _det_gate(np.array([1.0, 1.0, math.inf]), 0.0, 0.0, np.array([1.0, 1.1, 1.0]), 1e-9)[0]
    assert ok.tolist() == [True, False, False]
    big = SymplecticMatrix2(*u)
    assert big.require_symplectic(1e-12) is big


def test_matmul_matches_numpy():
    for _ in range(50):
        u = random_symplectic(RNG)
        v = random_symplectic(RNG)
        w = u @ v
        ref = u.as_array() @ v.as_array()
        assert np.allclose(w.as_array(), ref, rtol=0.0, atol=1e-14)
        assert abs(w.det - 1.0) < 1e-12


def test_compose_is_matrix_product():
    u = rotation_matrix(1.0, 0.7)
    v = free_motion(0.3)
    assert np.array_equal((u @ v).as_array(), u.as_array() @ v.as_array())


def test_rotation_matrix_oracle():
    # constant beta = kappa^2 has the explicit sin/cos solution
    kappa, dt = 1.7, 0.9
    u = rotation_matrix(kappa, dt)
    assert u.u11 == pytest.approx(math.cos(kappa * dt), abs=1e-15)
    assert u.u12 == pytest.approx(math.sin(kappa * dt) / kappa, abs=1e-15)
    assert u.u21 == pytest.approx(-kappa * math.sin(kappa * dt), abs=1e-15)
    assert abs(u.det - 1.0) < 1e-15


def test_rotation_quarter_period_is_fourier():
    kappa = 2.0
    u = rotation_matrix(kappa, math.pi / (2 * kappa))
    ref = squeezed_fourier(1.0 / kappa)
    assert np.allclose(u.as_array(), ref.as_array(), atol=1e-15)


def test_rotation_rejects_nonpositive_kappa():
    with pytest.raises(ValueError):
        rotation_matrix(0.0, 1.0)
    with pytest.raises(ValueError):
        rotation_matrix(-1.0, 1.0)


def test_free_motion():
    u = free_motion(2.5)
    assert (u.u11, u.u12, u.u21, u.u22) == (1.0, 2.5, 0.0, 1.0)
    assert is_equidiagonal(u)


def test_squeezed_fourier_shape():
    b = 1.99
    f = squeezed_fourier(b)
    assert (f.u11, f.u22) == (0.0, 0.0)
    assert f.u12 == b
    assert f.u21 == -1.0 / b
    assert abs(f.det - 1.0) < 1e-15
    with pytest.raises(ValueError):
        squeezed_fourier(0.0)


def test_squeeze_compose_of_two_fouriers():
    b1, b2 = 5.0 / 3.0, 184.0 / 95.0
    total = squeezed_fourier(b2) @ squeezed_fourier(b1)
    ref = squeeze_compose(b1, b2)
    assert np.allclose(total.as_array(), ref.as_array(), atol=1e-15)
    assert ref.u11 == pytest.approx(-b2 / b1)
    assert ref.u22 == pytest.approx(-b1 / b2)
    assert ref.u12 == 0.0 and ref.u21 == 0.0


def test_is_equidiagonal_tolerance():
    u = SymplecticMatrix2(1.0, 0.5, 0.0, 1.0 + 5e-11)
    assert is_equidiagonal(u)
    assert not is_equidiagonal(u, tol=1e-12)


def random_equidiagonal(rng):
    c = rng.uniform(-2.0, 2.0)
    u12 = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
    u21 = (c * c - 1.0) / u12
    return SymplecticMatrix2(c, u12, u21, c)


def test_symmetric_product_structure():
    # v_n ... v_1 v_0 v_1 ... v_n of equidiagonal factors stays equidiagonal
    v0 = rotation_matrix(1.0, 0.3)
    v1 = rotation_matrix(2.0, 0.2)
    out = symmetric_product([v0, v1])
    ref = v1 @ v0 @ v1
    assert np.allclose(out.as_array(), ref.as_array(), atol=1e-12)
    assert abs(out.u11 - out.u22) < 1e-10
    assert out.u11 == pytest.approx(0.5 * out.trace)

    for _ in range(100):
        vs = [random_equidiagonal(RNG) for _ in range(RNG.integers(1, 4))]
        w = symmetric_product(vs)
        assert abs(w.u11 - w.u22) < 1e-9
        assert abs(w.det - 1.0) < 1e-9


def test_symmetric_product_single_and_identity():
    v0 = free_motion(1.0)
    assert symmetric_product([v0]) == v0
    ident = SymplecticMatrix2.identity()
    assert symmetric_product([ident, ident, ident]) == ident


def test_symmetric_product_rejects_non_equidiagonal_factor():
    skew = SymplecticMatrix2(2.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        symmetric_product([skew, free_motion(1.0)])
    with pytest.raises(ValueError):
        symmetric_product([free_motion(1.0), skew])


def test_rotation_additivity():
    kappa = 1.3
    u = rotation_matrix(kappa, 0.4) @ rotation_matrix(kappa, 0.9)
    ref = rotation_matrix(kappa, 1.3)
    assert np.allclose(u.as_array(), ref.as_array(), atol=1e-12)


def test_squeeze_compose_identity_with_fouriers():
    k1, k2 = 0.7, 1.9
    lhs = squeeze_compose(k1, k2)
    rhs = squeezed_fourier(1.0 / k1) @ squeezed_fourier(1.0 / k2)
    assert np.allclose(lhs.as_array(), rhs.as_array(), atol=1e-12)


def test_canonical_state_validation():
    s = CanonicalState(1.0, -2.0)
    assert (s.q, s.p) == (1.0, -2.0)
    with pytest.raises(ValueError):
        CanonicalState(float("nan"), 0.0)


# ---------------------------------------------------------------------------
# profiles


def test_constant_profile():
    prof = ConstantBeta(1.7)
    assert prof.beta(0.0) == 1.7
    assert prof.beta(123.4) == 1.7
    taus = np.linspace(-5, 5, 11)
    assert np.all(prof.beta_array(taus) == 1.7)
    lo, hi = prof.domain()
    assert lo == -math.inf and hi == math.inf


def test_mathieu_profile_values():
    prof = MathieuBeta(1.054, 0.646)
    # beta(0) = beta0 + 2*beta1
    assert prof.beta(0.0) == pytest.approx(1.054 + 2 * 0.646, abs=1e-15)
    assert prof.beta(math.pi) == pytest.approx(1.054 - 2 * 0.646, abs=1e-12)
    taus = RNG.uniform(-10, 10, size=64)
    ref = 1.054 + 2 * 0.646 * np.cos(taus)
    assert np.allclose(prof.beta_array(taus), ref, atol=1e-15)


def test_sampled_profile_interpolates():
    taus = np.linspace(0.0, 2.0, 41)
    vals = np.sin(taus) + 2.0
    prof = SampledBeta(taus, vals, order=3)
    probe = np.linspace(0.05, 1.95, 17)
    assert np.allclose(prof.beta_array(probe), np.sin(probe) + 2.0, atol=5e-6)
    with pytest.raises(ValueError):
        prof.beta(2.5)
    with pytest.raises(ValueError, match="need at least 4 samples for order 3"):
        SampledBeta([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])


def test_composite_profile_dispatch_and_boundary():
    pieces = [
        (0.0, 1.0, ConstantBeta(1.0)),
        (1.0, 2.0, ConstantBeta(5.0)),
    ]
    prof = CompositeBeta(pieces)
    assert prof.beta(0.5) == 1.0
    assert prof.beta(1.5) == 5.0
    # interior boundary resolves to the earlier piece
    assert prof.beta(1.0) == 1.0
    assert prof.domain() == (0.0, 2.0)
    arr = prof.beta_array(np.array([0.2, 1.0, 1.8]))
    assert arr.tolist() == [1.0, 1.0, 5.0]


# a piece is a constant of the given value and width, or (value None) a
# designed theta stage (b, beta0), which spans pi
_THETA_SHAPE = st.tuples(st.floats(0.6, 3.0), st.floats(0.0, 0.4))
_PIECE = st.one_of(
    st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 5.0)),
    st.tuples(st.none(), _THETA_SHAPE),
)


def _composite(start, specs) -> CompositeBeta:
    """Pieces laid end to end from `start`, one per _PIECE spec."""
    from softsqueeze.design import ThetaAnsatz, ThetaDerivedBeta

    pieces = []
    t0 = start
    for value, shape in specs:
        if value is None:
            ansatz = ThetaAnsatz.from_targets(*shape)
            pieces.append((t0, t0 + math.pi, ThetaDerivedBeta(ansatz, offset=t0 + math.pi / 2)))
        else:
            pieces.append((t0, t0 + shape, ConstantBeta(value)))
        t0 = pieces[-1][1]
    return CompositeBeta(pieces)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(start=st.floats(-10.0, 10.0), specs=st.lists(_PIECE, min_size=1, max_size=4),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_composite_beta_array_matches_scalar_beta(start, specs, fractions):
    prof = _composite(start, specs)
    pieces = prof.pieces
    lo, hi = prof.domain()
    joins = [t for t, _, _ in pieces[1:]]
    taus = np.array([lo, hi, *joins, *(min(lo + f * (hi - lo), hi) for f in fractions)])
    assert prof.beta_array(taus).tolist() == [prof.beta(float(t)) for t in taus]
    # a boundary point belongs to the earlier piece
    for (_, _, earlier), join in zip(pieces, joins):
        assert prof.beta_array(np.array([join]))[0] == earlier.beta(join)


@pytest.mark.parametrize("make, message", [
    (lambda: SampledBeta([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
     "sampled profile needs matching 1-d tau and beta arrays"),
    (lambda: SampledBeta([0.0, 1.0, 1.0, 2.0], [1.0] * 4), "tau samples must be strictly increasing"),
    (lambda: CompositeBeta([]), "composite profile needs at least one piece"),
    (lambda: CompositeBeta([(1.0, 0.0, ConstantBeta(1.0))]),
     r"piece interval \[1.0, 0.0\] is not increasing"),
])
def test_profile_constructors_name_what_is_wrong(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_composite_requires_contiguity():
    with pytest.raises(ValueError, match="pieces are not contiguous: gap between 1.0 and 1.5"):
        CompositeBeta([(0.0, 1.0, ConstantBeta(1.0)),
                       (1.5, 2.0, ConstantBeta(2.0))])


def test_beta_eval_helper():
    prof = MathieuBeta(1.0, 0.25)
    assert prof.beta(0.0) == pytest.approx(1.5)


def test_domain_check_slack():
    taus = np.linspace(0.0, 1.0, 11)
    prof = SampledBeta(taus, np.ones_like(taus))
    # endpoint plus float-rounding slack is accepted
    prof.beta(1.0 + 1e-13)
    with pytest.raises(ValueError):
        prof.beta(1.0 + 1e-6)


# ---------------------------------------------------------------------------
# JSON round trips


@pytest.mark.parametrize("prof", [
    ConstantBeta(0.28),
    MathieuBeta(1.217, 0.844),
    CompositeBeta([(0.0, 1.0, ConstantBeta(2.0)),
                   (1.0, 3.0, MathieuBeta(1.0, 0.5))]),
])
def test_profile_json_round_trip(prof):
    data = prof.to_json_dict()
    again = profile_from_dict(json.loads(json.dumps(data)))
    taus = np.linspace(*(prof.domain() if math.isfinite(prof.domain()[0])
                         else (-3.0, 3.0)), 37)
    assert np.allclose(prof.beta_array(taus), again.beta_array(taus), atol=1e-12)


def _theta_profile(shape, offset):
    from softsqueeze.design import ThetaAnsatz, ThetaDerivedBeta

    return ThetaDerivedBeta(ThetaAnsatz.from_targets(*shape), offset=offset)


_PROFILE = st.one_of(
    st.builds(ConstantBeta, st.floats(-5.0, 5.0)),
    st.builds(MathieuBeta, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.builds(_theta_profile, _THETA_SHAPE, st.one_of(st.just(0.0), st.floats(-10.0, 10.0))),
    st.builds(_composite, st.floats(-10.0, 10.0), st.lists(_PIECE, min_size=1, max_size=4)),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(prof=_PROFILE, fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_profile_json_round_trip_samples_identical_bits(prof, fractions):
    again = profile_from_dict(json.loads(json.dumps(prof.to_json_dict())))
    lo, hi = prof.domain()
    if not math.isfinite(lo):
        lo, hi = -20.0, 20.0
    taus = np.array([min(lo + f * (hi - lo), hi) for f in fractions])
    assert again.beta_array(taus).tobytes() == prof.beta_array(taus).tobytes()


def test_sampled_json_round_trip():
    taus = np.linspace(0.0, 1.0, 21)
    prof = SampledBeta(taus, np.cos(taus), order=3)
    again = profile_from_json(json.dumps(prof.to_json_dict()))
    probe = np.linspace(0.0, 1.0, 13)
    assert np.allclose(prof.beta_array(probe), again.beta_array(probe), atol=1e-12)


def test_profile_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "quartic", "beta": 1.0})


@pytest.mark.parametrize("data, message", [
    ([1], "profile JSON must be an object with a 'kind' field"),
    ({"kind": "constant"}, "profile JSON for kind 'constant' missing field 'beta'"),
])
def test_profile_from_dict_names_a_missing_kind_or_field(data, message):
    with pytest.raises(ValueError, match=message):
        profile_from_dict(data)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from softsqueeze import *", namespace)
    del namespace["__builtins__"]
    public = {k for k, v in vars(softsqueeze).items()
              if not k.startswith("_") and not inspect.ismodule(v)}
    assert len(set(softsqueeze.__all__)) == len(softsqueeze.__all__)
    assert set(namespace) == public == set(softsqueeze.__all__)
