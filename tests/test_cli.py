"""End-to-end command-line checks, run in process through main(argv)."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import softsqueeze
from softsqueeze import mathieu
from softsqueeze.cli import build_parser, main, parse_angle
from softsqueeze.evolution import DEFAULT_CONFIG
from softsqueeze.physical import C_LIGHT, ESU_PER_COULOMB

MATHIEU_REF = '{"kind": "mathieu", "beta0": 1.217, "beta1": 0.844}'
THETA_B2 = '{"kind": "theta", "b": 2.0, "beta0": 0.0}'
THETA_OFF_BY_6E_6 = '{"kind": "theta", "b": -0.88, "beta0": 0.64}'


def run_json(capsys, argv):
    """Invoke main, expect success, parse the stdout JSON."""
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def run_lines(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# angle parsing


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi/2", math.pi / 2),
        ("5pi/2", 5 * math.pi / 2),
        ("-3pi/4", -3 * math.pi / 4),
        ("2*pi/3", 2 * math.pi / 3),
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("PI/2", math.pi / 2),
        ("0.75", 0.75),
        ("-1e-3", -1e-3),
    ],
)
def test_parse_angle(text, value):
    assert parse_angle(text) == value


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(k=st.integers(1, 1000), n=st.integers(1, 1000),
       x=st.floats(allow_nan=False, allow_infinity=False))
def test_parse_angle_pi_fractions_and_decimals_are_exact(k, n, x):
    assert parse_angle(f"{k}pi/{n}") == k * math.pi / n
    assert parse_angle(f"-{k}*pi/{n}") == -(k * math.pi / n)
    assert parse_angle(repr(x)) == x


def test_parse_angle_rejects_garbage():
    # not an angle, a zero denominator, not finite
    for text in ("half a turn", "pi/0", "3pi/0.0", "inf", "-inf", "nan", "1e400"):
        with pytest.raises(ValueError):
            parse_angle(text)


# ---------------------------------------------------------------------------
# evolve


def test_evolve_quarter_turn_rotation(capsys):
    out = run_json(capsys, [
        "evolve", "--profile", '{"kind": "constant", "beta": 1.0}',
        "--from", "0", "--to", "pi/2", "--steps", "2000",
    ])
    assert out["schema_version"] == 1
    expected = [0.0, 1.0, -1.0, 0.0]
    for got, want in zip(out["matrix"], expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert out["zone"] == "I"
    assert abs(out["det"] - 1.0) <= 1e-9


def test_evolve_reference_drive_is_hyperbolic(capsys):
    out = run_json(capsys, [
        "evolve", "--profile", MATHIEU_REF, "--from", "pi/2", "--to", "5pi/2",
    ])
    assert out["zone"] == "III"
    ref = [0.2260447308413542, -0.07208895062405127,
           0.09633799705399274, 4.393179576409236]
    for got, want in zip(out["matrix"], ref):
        assert got == pytest.approx(want, abs=1e-6)
    assert out["Gamma"] == pytest.approx(4.61922430725059, abs=1e-6)
    assert out["lambda_plus"] > 1.0 > out["lambda_minus"] > 0.0
    assert len(out["a_plus"]) == 2 and len(out["a_minus"]) == 2


def test_evolve_missing_profile_file_is_config_error(capsys):
    assert main(["evolve", "--profile", "/nonexistent/profile.json",
                 "--from", "0", "--to", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_evolve_profile_file_matches_inline_json(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(MATHIEU_REF)
    argv = ["--from", "pi/2", "--to", "5pi/2", "--steps", "400"]
    assert main(["evolve", "--profile", MATHIEU_REF] + argv) == 0
    inline = capsys.readouterr()
    assert main(["evolve", "--profile", str(path)] + argv) == 0
    assert capsys.readouterr() == inline


def test_evolve_unknown_profile_kind_is_config_error():
    assert main(["evolve", "--profile", '{"kind": "quintic"}',
                 "--from", "0", "--to", "1"]) == 2


@pytest.mark.parametrize("profile", [
    '{"kind": "constant", "beta": null}',
    '{"kind": "mathieu", "beta0": [1], "beta1": 0.8}',
    '{"kind": "sampled", "tau": [0, 1, 2, 3], "beta": [1, 1, 1, 1], "order": null}',
    '{"kind": "composite", "pieces": 5}',
    '{"kind": "composite", "pieces": [5]}',
])
def test_evolve_wrong_type_profile_field_is_config_error(capsys, profile):
    assert main(["evolve", "--profile", profile, "--from", "0", "--to", "1"]) == 2
    assert "wrong-type field" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evolve", "--profile", MATHIEU_REF, "--from", "0", "--to", "inf"],
    ["evolve", "--profile", MATHIEU_REF, "--from", "0", "--to", "pi/0"],
    ["scan", "--from", "0", "--to", "inf", "--grid", "2,2"],
    ["scan", "--double-zero", "--seed", "1.217,0.844", "--to", "nan"],
    ["shadow", "--profile", MATHIEU_REF, "--from", "0", "--to", "1e400"],
])
def test_angle_that_is_not_a_number_is_config_error(capsys, argv):
    assert main(argv + ["--steps", "100"]) == 2
    assert "angle/time" in capsys.readouterr().err


def test_evolve_writes_output_file(tmp_path, capsys):
    path = tmp_path / "u.json"
    assert main(["evolve", "--profile", '{"kind": "constant", "beta": 0.25}',
                 "--from", "0", "--to", "pi", "--steps", "2000",
                 "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(path.read_text())
    # half turn at kappa = 1/2: rotation angle pi/2
    assert data["matrix"][0] == pytest.approx(0.0, abs=1e-9)
    assert data["matrix"][1] == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# scan


def test_scan_grid_csv(capsys):
    lines = run_lines(capsys, [
        "scan", "--rect", "1.0,1.2,0.6,0.9", "--grid", "4,5",
        "--steps", "1500",
    ])
    assert lines[0] == "beta0,beta1,u11,u12,u21,u22,Gamma,zone"
    assert len(lines) == 1 + 4 * 5
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    assert first[7] in {"I", "II", "III", "0"}


def test_scan_finds_unstable_zone(capsys):
    lines = run_lines(capsys, [
        "scan", "--grid", "8,8", "--steps", "1200",
    ])
    zones = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert "III" in zones


def test_scan_nodes_too_large_to_gate_fail_without_warnings(capsys):
    # entries near 1e260 overflow the determinant gate's products: every
    # node is marked failed, the scan still exits 0, and no numpy warning
    # reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["scan", "--rect", "-9000,-8999,0,1", "--grid", "2,2",
                     "--steps", "2000"]) == 0
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1 + 4
    assert all(line.endswith(",failed") for line in lines[1:])


def test_scan_locus_csv(capsys):
    lines = run_lines(capsys, [
        "scan", "--locus", "u21", "--rect", "1.044,1.064,0.55,0.75",
        "--grid", "3,6", "--steps", "1500",
    ])
    assert lines[0] == "beta0,beta1,entry,lambda"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    mid = rows[1]
    assert float(mid[0]) == pytest.approx(1.054, abs=1e-12)
    assert float(mid[1]) == pytest.approx(0.622820469, abs=1e-4)
    assert mid[2] == "u21"


def test_scan_locus_bracket_left_open_is_numerical_failure(monkeypatch, capsys):
    monkeypatch.setattr(mathieu, "LOCUS_MAX_ITER", 1)
    code = main(["scan", "--locus", "u21", "--rect", "1.044,1.064,0.55,0.75",
                 "--grid", "3,6", "--steps", "1500"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: u21 locus: 3 bracket(s)")
    assert "beta0 = 1.054 in [" in err and err.count("\n") == 1


def test_scan_locus_on_a_grid_that_fails_the_gate_prints_the_header(capsys):
    # at 200 steps all 8 grid nodes fail the determinant gate; a failed
    # node bounds no bracket and enters no start, so no point is printed
    assert main(["scan", "--locus", "u21", "--rect", "1.2,1.3,0.5,1.6",
                 "--grid", "2,4", "--steps", "200"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("beta0,beta1,entry,lambda\n", "")


def test_scan_double_zero_from_seed(capsys):
    out = run_json(capsys, [
        "scan", "--double-zero", "--seed", "1.217,0.844", "--steps", "4000",
    ])
    assert abs(out["matrix"][1]) <= 1e-6
    assert abs(out["matrix"][2]) <= 1e-6
    assert out["beta0"] == pytest.approx(1.2294897861, abs=1e-4)
    assert out["beta1"] == pytest.approx(0.8357090045, abs=1e-4)
    assert math.hypot(out["beta0"] - 1.217, out["beta1"] - 0.844) < 0.02


@pytest.mark.parametrize("argv", [
    ["evolve", "--profile", MATHIEU_REF, "--from", "pi/2", "--to", "5pi/2"],
    ["scan", "--grid", "2,2"],
    ["scan", "--locus", "u12", "--grid", "2,3"],
    ["scan", "--double-zero", "--seed", "1.217,0.844"],
])
def test_steps_above_max_steps_is_numerical_failure(capsys, argv):
    # the default max_steps is 10_000_000; the check runs before any sampling
    assert main(argv + ["--steps", "10000001"]) == 3
    assert "max_steps" in capsys.readouterr().err


def test_steps_default_comes_from_default_config(monkeypatch, capsys):
    from softsqueeze import cli
    from softsqueeze.evolution import IntegratorConfig

    monkeypatch.setattr(cli, "DEFAULT_CONFIG", IntegratorConfig(steps=1234))
    parser = cli.build_parser()
    args = parser.parse_args(["evolve", "--profile", MATHIEU_REF,
                              "--from", "0", "--to", "1"])
    assert args.steps == 1234
    with pytest.raises(SystemExit):
        parser.parse_args(["evolve", "--help"])
    assert "(default 1234)" in capsys.readouterr().out


def test_scan_double_zero_needs_seed():
    assert main(["scan", "--double-zero"]) == 2


@pytest.mark.parametrize("interval", [["--from", "0", "--to", "0"], ["--from", "pi", "--to", "0"]])
def test_scan_double_zero_over_an_interval_that_does_not_increase_is_usage_error(capsys,
                                                                                interval):
    # as the grid scan: an empty interval would read the identity as zone II
    for mode in (["--double-zero", "--seed", "1.2,0.85"], ["--grid", "2,2"]):
        assert main(["scan", *mode, *interval]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: tau interval must be increasing\n")


def test_scan_double_zero_stable_seed_is_numerical_failure(capsys):
    code = main(["scan", "--double-zero", "--seed", "0.3,0.05",
                 "--steps", "2000"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    # too few steps: the seed node itself fails the determinant gate
    code = main(["scan", "--double-zero", "--seed", "1.217,0.844",
                 "--steps", "60"])
    assert code == 3
    assert "double-zero node (1.217, 0.844): determinant drift" in capsys.readouterr().err


def test_evolve_long_zone_iii_interval_passes_the_rounding_aware_gate(capsys):
    # entries in the thousands: |det - 1| = 1.863e-09 is rounding alone,
    # and the result agrees with M^6 of the one-period map to 1.7e-15
    out = run_json(capsys, [
        "evolve", "--profile", MATHIEU_REF, "--from", "0", "--to", "12pi",
        "--steps", "240000",
    ])
    assert out["zone"] == "III"
    assert out["matrix"][2] == pytest.approx(7955.751842403747, rel=1e-12)


def test_scan_outside_the_second_tongue_has_no_failed_nodes(capsys):
    # 41 of these nodes have entries of 1e4 and more and a drift of 2e-9 to
    # 3e-8 that no step count lowers; they agree with 160000-step runs to
    # 8e-13 relative
    lines = run_lines(capsys, ["scan", "--rect", "0,3,0,8", "--grid", "20,40"])
    assert len(lines) == 1 + 20 * 40
    assert not any(line.endswith(",failed") for line in lines)


# ---------------------------------------------------------------------------
# design


def test_design_single_stage(capsys):
    out = run_json(capsys, [
        "design", "--b", "2", "--beta0", "0", "--steps", "4000",
    ])
    assert out["verification"]["ok"] is True
    stage = out["stages"][0]
    assert stage["a1"] == pytest.approx(33.0 / 16.0, rel=1e-12)
    assert stage["a3"] == pytest.approx(1.0 / 32.0, rel=1e-12)
    assert stage["a5"] == pytest.approx(-1.0 / 32.0, rel=1e-12)
    assert out["lemma"][0]["violations"] == []
    u = out["verification"]["stages"][0]
    assert u[1] == pytest.approx(2.0, abs=1e-6)


def test_design_zero_b_is_config_error(capsys):
    assert main(["design", "--b", "0"]) == 2
    # a zero tail duration too, not a silent quarter period
    assert main(["design", "--b", "1.99", "--beta0", "0.28", "--tail",
                 "--tail-duration", "0"]) == 2
    assert "tail duration must be positive" in capsys.readouterr().err
    # and a quarter-period tail of no stiffness
    assert main(["design", "--b", "2", "--beta0", "0", "--tail"]) == 2
    assert "--tail needs --beta0 > 0" in capsys.readouterr().err


@pytest.mark.parametrize("b,beta0", [("0.3", "0"), ("-2", "0.1"), ("0.2", "5"),
                                     ("-0.88", "0.64")])
def test_design_singular_theta_zero_is_validation_failure(capsys, b, beta0):
    # theta zeros whose slope is not +-2 make beta singular: the report
    # carries the violations and no integration through them is tried
    assert main(["design", "--b", b, "--beta0", beta0]) == 4
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    violations = [v for rep in out["lemma"] for v in rep["violations"]]
    assert violations and all("has slope" in v and "not +-2" in v for v in violations)
    assert out["verification"] is None
    assert "numerical failure" not in captured.err


@pytest.mark.parametrize("command", ["evolve", "shadow"])
def test_profile_with_singular_theta_zeros_is_validation_failure(capsys, command):
    # theta of b = 0.3 vanishes at +-0.748 and +-1.226 with slopes -1.40 and
    # 1.24; no sample lands on them, yet the profile is rejected as design does
    profile = '{"kind": "theta", "b": 0.3, "beta0": 0}'
    code = main([command, "--profile", profile, "--from=-pi/2", "--to=pi/2", "--steps", "2000"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: theta vanishes at tau = -1.22596")
    assert "determinant drift" not in captured.err


@pytest.mark.parametrize("argv", [
    ["evolve", "--profile", THETA_OFF_BY_6E_6, "--from=-pi/2", "--to=pi/2"],
    ["shadow", "--profile", THETA_OFF_BY_6E_6],
    ["design", "--b", "-0.88", "--beta0", "0.64", "--samples-out", "beta.csv"],
], ids=["evolve", "shadow", "design-samples"])
def test_slope_just_off_two_is_a_validation_failure_of_every_command(capsys, tmp_path,
                                                                      monkeypatch, argv):
    # side zeros at +-0.841 with slope -2.000006: off by more than SLOPE_TOL,
    # so the profile is singular for every command, as design reports it
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        "validation error: theta vanishes at tau = -0.8410285171305698 and 0.8410285171305698 "
        "with theta' = -2.00001, not +-2; beta is singular there\n")
    if argv[0] == "design":
        violations = json.loads(captured.out)["lemma"][0]["violations"]
        assert violations == [f"theta zero at tau = {t} has slope -2.00001, not +-2"
                              for t in ("-0.841029", "0.841029")]
        assert not (tmp_path / "beta.csv").exists()
    else:
        assert captured.out == ""


def test_design_two_stage_chain(capsys):
    """Chained 5/3 then 184/95 stages land on the negative-diagonal total."""
    out = run_json(capsys, [
        "design", "--b", repr(5.0 / 3.0), "--chain", repr(184.0 / 95.0),
        "--steps", "4000",
    ])
    assert out["verification"]["lambda"] == pytest.approx(-1.16211, abs=1e-4)
    assert out["verification"]["ok"] is True
    assert len(out["stages"]) == 2
    assert len(out["joins"]) == 1


def test_design_stage_plus_tail_amplification(capsys):
    out = run_json(capsys, [
        "design", "--b", "1.99", "--beta0", "0.28", "--tail",
        "--steps", "4000",
    ])
    lam = out["verification"]["lambda"]
    assert 1.0 / abs(lam) == pytest.approx(1.0530, abs=1e-3)
    assert out["tail"]["duration"] == pytest.approx(
        math.pi / (2.0 * math.sqrt(0.28)), rel=1e-12)


def test_design_samples_csv(tmp_path, capsys):
    samples = tmp_path / "beta.csv"
    assert main(["design", "--b", "2", "--steps", "4000",
                 "--samples", "11", "--samples-out", str(samples),
                 "--output", str(tmp_path / "report.json")]) == 0
    lines = samples.read_text().splitlines()
    assert lines[0] == "tau,beta"
    assert len(lines) == 12
    tau0, beta0 = (float(x) for x in lines[0 + 1].split(","))
    assert tau0 == pytest.approx(-math.pi / 2, abs=1e-9)
    assert beta0 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("samples", ["-3", "0", "1"])
def test_design_too_few_samples_is_config_error_before_output(tmp_path, capsys, samples):
    path = tmp_path / "beta.csv"
    assert main(["design", "--b", "2", "--samples", samples, "--samples-out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --samples must be at least 2, got {samples}\n"
    assert not path.exists()


# ---------------------------------------------------------------------------
# shadow


def test_shadow_defaults_to_profile_domain(capsys):
    lines = run_lines(capsys, [
        "shadow", "--profile", THETA_B2, "--points", "41", "--steps", "2000",
    ])
    assert lines[0] == "tau,q_mean,p_mean,delta_q,delta_p"
    assert len(lines) == 42
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first[0] == pytest.approx(-math.pi / 2, rel=1e-9)
    assert last[0] == pytest.approx(math.pi / 2, rel=1e-9)
    # starts at the standard Gaussian width
    assert first[3] == pytest.approx(math.sqrt(0.5), rel=1e-9)


@pytest.mark.parametrize("to", ["10pi", "40pi"])
def test_shadow_of_a_growing_zone_iii_drive_keeps_its_rows(capsys, to):
    # entries of u grow to about 1e4 (10pi) and 1e16 (40pi); the computed
    # det Sigma, 0.2495 and -0.25 at the last rows, is 1/4 within its
    # rounding floor, so shadow, like evolve, runs to the end
    profile = '{"kind": "mathieu", "beta0": 1.5, "beta1": 1.2}'
    assert main(["evolve", "--profile", profile, "--from", "0", "--to", to]) == 0
    capsys.readouterr()
    lines = run_lines(capsys, ["shadow", "--profile", profile, "--from", "0", "--to", to])
    assert len(lines) == 202 and lines[0] == "tau,q_mean,p_mean,delta_q,delta_p"


def test_shadow_unbounded_profile_needs_interval():
    assert main(["shadow", "--profile", '{"kind": "constant", "beta": 1.0}',
                 "--points", "11"]) == 2


def test_shadow_json_format(capsys):
    out = run_json(capsys, [
        "shadow", "--profile", '{"kind": "constant", "beta": 1.0}',
        "--from", "0", "--to", "pi", "--points", "11",
        "--steps", "2000", "--format", "json",
    ])
    assert len(out["rows"]) == 11
    assert out["within_belt"] is True
    assert out["max_delta_q"] == pytest.approx(math.sqrt(0.5), rel=1e-6)


def test_shadow_congruence_csv(capsys):
    lines = run_lines(capsys, [
        "shadow", "--profile", '{"kind": "constant", "beta": 1.0}',
        "--from", "0", "--to", "pi/2", "--points", "5",
        "--steps", "2000", "--inits", "1,0;0,1;2,-1",
    ])
    assert lines[0] == "tau,init_index,q,p"
    assert len(lines) == 1 + 5 * 3
    # quarter turn maps (1, 0) to (0, -1)
    end_rows = [line.split(",") for line in lines[1:] if float(line.split(",")[0]) == pytest.approx(math.pi / 2)]
    row0 = [r for r in end_rows if r[1] == "0"][0]
    assert float(row0[2]) == pytest.approx(0.0, abs=1e-9)
    assert float(row0[3]) == pytest.approx(-1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# units


def test_units_proton_report(capsys):
    out = run_json(capsys, ["units"])
    assert out["particle"] == "proton"
    assert out["energy_scale_ev"] == pytest.approx(1.0423, rel=5e-3)
    assert out["phi0_volt"] == pytest.approx(1.268, rel=5e-3)
    assert out["phi1_volt"] == pytest.approx(1.759, rel=5e-3)
    assert "omega_note" in out


def test_units_scaling_table(capsys):
    lines = run_lines(capsys, [
        "units", "--table", "--t-list", "0.001,1,100", "--t-ref", "0.001",
        "--base-phi", "0.098",
    ])
    assert lines[0] == "quantity,T=0.001,T=1,T=100"
    phi = [l for l in lines if l.startswith("Phi [V]")][0].split(",")
    assert float(phi[1]) == pytest.approx(0.098, rel=1e-12)
    assert float(phi[2]) == pytest.approx(98e-9, rel=1e-12)
    q = [l for l in lines if l.startswith("q [cm]")][0].split(",")
    assert float(q[2]) == pytest.approx(0.025, rel=5e-3)
    assert not any(l.startswith("B ") for l in lines)


def test_units_custom_particle_needs_mass_and_charge():
    assert main(["units", "--particle", "custom"]) == 2


@pytest.mark.parametrize("flag", ["--beta0", "--beta1"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_units_rejects_non_finite_drive(capsys, flag, value):
    # "-inf" may follow its flag as a separate argument too
    for argv in (["units", f"{flag}={value}"], ["units", flag, value]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} must be finite" in err


@pytest.mark.parametrize("argv,name", [
    (["scan", "--rect", "1,1.1,0.6,inf", "--grid", "2,2", "--steps", "200"], "--rect"),
    (["scan", "--locus", "u12", "--rect", "0.9,1.05,0.5,inf"], "--rect"),
    (["scan", "--double-zero", "--seed", "nan,0.8"], "seed"),
    (["scan", "--double-zero", "--seed", "inf,0.8"], "seed"),
    (["design", "--b", "nan"], "--b"),
    (["design", "--b", "2", "--beta0", "nan"], "--beta0"),
    (["design", "--b", "2", "--beta0", "inf"], "--beta0"),
    (["design", "--b", "2", "--chain", "nan"], "--chain"),
    (["design", "--b", "2", "--chain", "inf"], "--chain"),
    (["design", "--b", "2", "--beta0", "0.5", "--tail", "--tail-duration", "inf"],
     "--tail-duration"),
    (["evolve", "--profile", '{"kind": "constant", "beta": NaN}'], "'beta'"),
    (["evolve", "--profile", '{"kind": "mathieu", "beta0": 1.2, "beta1": Infinity}'],
     "'beta1'"),
    (["evolve", "--profile", '{"kind": "theta", "b": 2, "beta0": 0, "offset": NaN}'],
     "'offset'"),
    (["evolve", "--profile",
      '{"kind": "sampled", "tau": [0, 1, 2, 3, 4], "beta": [1, 1, NaN, 1, 1]}'], "'beta'"),
    (["units", "--r0", "nan"], "r0"),
    (["units", "--table", "--t-list", "nan,1", "--base-phi", "1"], "--t-list"),
    (["units", "--table", "--t-list", "inf"], "--t-list"),
    (["units", "--table", "--t-ref", "inf", "--base-b", "2"], "--t-ref"),
    (["units", "--table", "--base-b", "nan"], "--base-b"),
    (["units", "--table", "--particle", "custom", "--mass", "nan", "--charge", "1"], "--mass"),
    (["units", "--omega", "nan"], "--omega"),
    (["units", "--omega", "inf"], "--omega"),
    (["solenoid", "--amp", "nan"], "--amp"),
    (["solenoid", "--amp", "inf"], "--amp"),
    (["solenoid", "--cylinder", "--qlin", "1C", "--omega", "inf"], "--omega"),
    (["solenoid", "--field-omega", "nan"], "--field-omega"),
    (["solenoid", "--r", "nan"], "--r"),
    (["solenoid", "--tau", "nan"], "--tau"),
    # every float flag, used by the command or not
    (["shadow", "--profile", THETA_B2, "--belt", "nan"], "--belt"),
    (["shadow", "--profile", THETA_B2, "--kappa", "nan"], "--kappa"),
    (["shadow", "--profile", THETA_B2, "--q0", "inf"], "--q0"),
    (["shadow", "--profile", THETA_B2, "--inits", "1,nan"], "--inits"),
    (["solenoid", "--cylinder", "--qlin", "inf"], "--qlin"),
    (["solenoid", "--cylinder", "--qlin", "1e400C"], "--qlin"),
    (["units", "--mass", "nan"], "--mass"),
    # "-inf" and "-nan" may follow their flag as a separate argument
    (["design", "--b", "2", "--beta0", "-nan"], "--beta0"),
    (["solenoid", "--tau", "-Infinity"], "--tau"),
])
def test_non_finite_input_is_a_configuration_error(capsys, argv, name):
    # no step count fixes a NaN or infinite input, so it is not a numerical
    # failure, and no numpy warning reaches stderr ahead of the error line
    if argv[0] == "evolve":
        argv = argv + ["--from", "0", "--to", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert name in err and "finite" in err


def test_unbounded_composite_piece_still_evolves(capsys):
    profile = {"kind": "composite", "pieces": [
        {"from": -math.inf, "to": math.inf, "profile": {"kind": "constant", "beta": 1.0}}]}
    out = run_json(capsys, ["evolve", "--profile", json.dumps(profile),
                            "--from", "0", "--to", "pi/2", "--steps", "200"])
    assert out["zone"] == "I"


@pytest.mark.parametrize("argv", [
    ["units", "--omega", "1e200"],
    ["units", "--r0", "1e300"],
    ["design", "--b", "1e-300"],
    ["evolve", "--profile", '{"kind":"mathieu","beta0":1e300,"beta1":1}', "--from", "0", "--to", "1"],
    ["scan", "--rect", "1,1.1,0.6,0.7", "--grid", "2,2", "--steps", "200", "--from", "0",
     "--to", "1e300"],
    ["units", "--table", "--base-b", "1e300", "--t-list", "1e-10"],
    ["units", "--table", "--base-b", "1", "--t-ref", "1e300", "--t-list", "1e-300"],
])
def test_float_overflow_is_a_configuration_error(capsys, argv):
    # a warning would print on stderr ahead of the one error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("grid, message", [
    ("100000000000000000000000000,2",
     "error: grid counts 100000000000000000000000000 x 2 exceed the address space\n"),
    ("9223372036854775807,2", "error: grid counts 9223372036854775807 x 2 exceed the address space\n"),
    # 2^58 x 2 doubles pass the count check, but the 2 EiB beta0 axis is
    # beyond any address space, so its allocation fails without allocating
    ("288230376151711744,2", "error: Unable to allocate 2.00 EiB"),
])
def test_grid_beyond_the_address_space_is_a_configuration_error(capsys, grid, message):
    assert main(["scan", "--grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1


def test_json_output_never_holds_nan_or_infinity(capsys, tmp_path):
    # a non-finite value anywhere in a report, here finite flags whose
    # results overflow, is a configuration error before anything is
    # written, not a NaN or Infinity token
    path = tmp_path / "report.json"
    for argv in (["units", "--omega", "1e154"],
                 ["solenoid", "--amp", "1e308", "--field-omega", "10"]):
        assert main(argv + ["--output", str(path)]) == 2
        assert "not JSON compliant" in capsys.readouterr().err
        assert not path.exists()
    out = run_json(capsys, ["units"])
    assert all(math.isfinite(v) for v in out.values() if isinstance(v, float))


# ---------------------------------------------------------------------------
# solenoid


def test_solenoid_rotating_cylinder(capsys):
    out = run_json(capsys, ["solenoid", "--cylinder", "--omega", "1",
                            "--qlin", "1C"])
    assert out["B_gauss"] == pytest.approx(4.0 * math.pi / 10.0, rel=1e-12)
    assert out["B_gauss"] == pytest.approx(1.2556, rel=1e-2)
    assert out["q_lin_esu_per_cm"] == pytest.approx(ESU_PER_COULOMB, rel=1e-12)
    assert "literal" in out["convention"]


def test_solenoid_cylinder_standard_convention(capsys):
    lit = run_json(capsys, ["solenoid", "--cylinder", "--omega", "1",
                            "--qlin", "1C"])
    std = run_json(capsys, ["solenoid", "--cylinder", "--omega", "1",
                            "--qlin", "1C", "--standard"])
    assert lit["B_gauss"] / std["B_gauss"] == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_solenoid_cylinder_needs_charge():
    assert main(["solenoid", "--cylinder", "--omega", "1"]) == 2


def test_solenoid_correction_report(capsys):
    out = run_json(capsys, [
        "solenoid", "--amp", "2", "--field-omega", "3", "--r", "5",
        "--tau", "0", "--order", "1",
    ])
    assert out["B_axis_gauss"] == pytest.approx(2.0, rel=1e-12)
    expected = 2.0 + 0.125 * (5.0 / C_LIGHT) ** 2 * (-2.0 * 9.0)
    assert out["B_corrected_gauss"] == pytest.approx(expected, rel=1e-12)
    assert out["coefficients"] == [1.0, 0.125]
    # from k = 170 on (k+1)! exceeds every float; those terms are zero
    out = run_json(capsys, ["solenoid", "--order", "170"])
    assert len(out["coefficients"]) == 171
    assert out["coefficients"][-1] == 0.0
    assert out["B_corrected_gauss"] == pytest.approx(out["B_axis_gauss"], rel=1e-12)


# ---------------------------------------------------------------------------
# plumbing: determinism, config defaults, exit codes


def test_outputs_are_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    argv = ["scan", "--rect", "1.0,1.2,0.6,0.9", "--grid", "5,5",
            "--steps", "1200"]
    for p in paths:
        assert main(argv + ["--output", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    jsons = [tmp_path / "a.json", tmp_path / "b.json"]
    argv = ["evolve", "--profile", MATHIEU_REF, "--from", "pi/2",
            "--to", "5pi/2", "--steps", "3000"]
    for p in jsons:
        assert main(argv + ["--output", str(p)]) == 0
    assert jsons[0].read_bytes() == jsons[1].read_bytes()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 11, "steps": 2000}))
    for form in (["--config", str(cfg)], [f"--config={cfg}"]):
        argv = form + ["shadow", "--profile", '{"kind": "constant", "beta": 1.0}',
                       "--from", "0", "--to", "1"]
        lines = run_lines(capsys, argv)
        assert len(lines) == 12


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 11, "steps": 2000}))
    argv = ["--config", str(cfg), "shadow",
            "--profile", '{"kind": "constant", "beta": 1.0}',
            "--from", "0", "--to", "1", "--points", "5"]
    lines = run_lines(capsys, argv)
    assert len(lines) == 6


def test_config_file_errors(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json"), "units"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["--config", str(bad), "units"]) == 2
    capsys.readouterr()
    # the --config=path form is read too
    bad.write_text(json.dumps({"points": 3, "max_steps": 1}))
    assert main([f"--config={bad}", "shadow", "--profile", THETA_B2]) == 2
    assert "unknown --config key(s): max_steps" in capsys.readouterr().err
    # a value must pass its flag's type and choices
    for key, value, message in (("steps", 2.5, "invalid int value: '2.5'"),
                                ("steps", None, "invalid int value: 'None'"),
                                ("steps", True, "invalid int value: 'True'"),
                                ("format", "xml", "--config key format: invalid choice 'xml'"),
                                ("particle", "electron", "--config key particle:")):
        bad.write_text(json.dumps({key: value}))
        assert main(["--config", str(bad), "shadow", "--profile", THETA_B2]) == 2
        assert message in capsys.readouterr().err


def test_config_value_kinds_are_checked(tmp_path, capsys):
    # list flags parse their config value like a command-line value; a
    # switch takes only a JSON boolean and a string flag only a JSON string
    cfg = tmp_path / "cfg.json"
    for value, argv, message in (
        ({"grid": [2, 2]}, ["scan", "--steps", "200"], "argument --grid:"),
        ({"rect": "1,2,3"}, ["scan", "--steps", "200"], "argument --rect:"),
        ({"tail": "no"}, ["design", "--b", "2", "--beta0", "0.3"], "--config key tail:"),
        ({"tail": 1}, ["design", "--b", "2", "--beta0", "0.3"], "--config key tail:"),
        ({"from": 1.5}, ["scan", "--grid", "2,2"], "--config key from: need a string"),
        ({"output": 7}, ["units"], "--config key output: need a string"),
    ):
        cfg.write_text(json.dumps(value))
        assert main(["--config", str(cfg)] + argv) == 2
        assert message in capsys.readouterr().err
    cfg.write_text(json.dumps({"tail": False, "chain": "1.5", "beta0": 0.3, "steps": 2000}))
    out = run_json(capsys, ["--config", str(cfg), "design", "--b", "2"])
    assert out["tail"] is None and len(out["stages"]) == 2
    cfg.write_text(json.dumps({"rect": "1.0,1.2,0.6,0.8", "grid": "2,3", "steps": 200}))
    assert len(run_lines(capsys, ["--config", str(cfg), "scan"])) == 7


@pytest.mark.parametrize("key,value,argv", [
    ("belt", math.nan, ["shadow", "--profile", THETA_B2]),
    ("kappa", math.inf, ["shadow", "--profile", THETA_B2]),
    ("omega", -math.inf, ["units"]),
    ("mass", math.nan, ["units"]),
    ("qlin", "inf", ["solenoid", "--cylinder"]),
    ("rect", "0.9,1.9,0.5,inf", ["scan"]),
])
def test_config_value_that_is_not_finite_names_its_flag(tmp_path, capsys, key, value, argv):
    # a JSON NaN or Infinity reaches its flag's type as text, and the
    # parsed value meets the same finite rule as a command-line value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["--config", str(cfg)] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: --{key} must be finite, got ")


@pytest.mark.parametrize("argv,flag", [
    (["scan", "--rect", "1,2,3"], "--rect"),
    (["scan", "--rect", "a,b,c,d"], "--rect"),
    (["scan", "--grid", "2,x"], "--grid"),
    (["scan", "--double-zero", "--seed", "1.2"], "--seed"),
    (["design", "--b", "2", "--chain", "1.5,"], "--chain"),
    (["shadow", "--profile", THETA_B2, "--inits", "1,0;0"], "--inits"),
    (["units", "--table", "--t-list", ""], "--t-list"),
])
def test_malformed_list_flag_is_usage_error(capsys, argv, flag):
    assert main(argv) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(flag=st.sampled_from(["--q0", "--p0", "--kappa"]),
       x=st.floats(allow_nan=False, allow_infinity=False))
@example(flag="--p0", x=-1.1e-05)
def test_negative_number_may_follow_its_flag(flag, x):
    args = build_parser().parse_args(["shadow", "--profile", THETA_B2, flag, repr(x)])
    assert repr(getattr(args, flag[2:])) == repr(x)


@pytest.mark.parametrize("argv,dest,value", [
    (["evolve", "--profile", THETA_B2, "--from", "-3pi/4", "--to", "0"], "from", "-3pi/4"),
    (["evolve", "--profile", THETA_B2, "--from", "-pi/2", "--to", "0"], "from", "-pi/2"),
    (["scan", "--double-zero", "--seed", "-1e-3,0.8"], "seed", (-1e-3, 0.8)),
    (["shadow", "--profile", THETA_B2, "--inits", "-1,0;0,1"], "inits", ((-1.0, 0.0), (0.0, 1.0))),
])
def test_negative_angle_or_list_may_follow_its_flag(argv, dest, value):
    assert getattr(build_parser().parse_args(argv), dest) == value


def test_flag_after_flag_is_still_missing_value(capsys):
    assert main(["shadow", "--profile", THETA_B2, "--p0", "-h"]) == 2
    assert "argument --p0: expected one argument" in capsys.readouterr().err


def test_default_parser_is_shared_and_config_does_not_leak(tmp_path, capsys):
    from softsqueeze import cli

    def out(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    argv = ["evolve", "--profile", THETA_B2, "--from=-pi/2", "--to=pi/2"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 300}))
    configured = out(["--config", str(cfg)] + argv)
    plain = out(argv)
    assert plain == out(argv + ["--steps", str(DEFAULT_CONFIG.steps)])
    assert plain != configured
    assert plain == out(argv)
    assert cli._default_parser().parse_args(argv).steps == DEFAULT_CONFIG.steps
    assert cli._default_parser() is cli._default_parser()
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._default_parser()


def test_commands_do_not_import_scipy():
    # scipy.optimize alone costs about half a second of start-up; the pulse
    # design warm-up commands of bench/workloads.py and a small scan must not
    # load any part of scipy
    theta = '{"kind": "theta", "b": 2.0, "beta0": 0.2}'
    argvs = [
        ["design", "--b", "2", "--beta0", "0.2", "--tail"],
        ["shadow", "--profile", theta, "--points", "21"],
        ["shadow", "--profile", theta, "--points", "21", "--inits", "1,0;0,1"],
        ["evolve", "--profile", theta, "--from=-pi/2", "--to=pi/2"],
        ["scan", "--rect", "1.0,1.1,0.6,0.7", "--grid", "4,4", "--steps", "200"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from softsqueeze.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    src = os.path.dirname(os.path.dirname(softsqueeze.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, scipy_modules = json.loads(run.stdout)
    assert codes == [0] * len(argvs)
    assert scipy_modules == []


@pytest.mark.parametrize("key", ["max_steps", "method", "rtol", "handler"])
def test_config_unknown_key_is_config_error(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2000, key: 1}))
    assert main(["--config", str(cfg), "units"]) == 2
    assert f"unknown --config key(s): {key}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,argv", [
    ("profile", '{"kind": "constant", "beta": 1.0}',
     ["evolve", "--profile", MATHIEU_REF, "--from", "0", "--to", "1"]),
    ("profile", '{"kind": "constant", "beta": 1.0}',
     ["shadow", "--profile", THETA_B2, "--points", "5"]),
    ("b", 2.0, ["design", "--b", "2"]),
])
def test_config_key_of_required_flag_is_config_error(tmp_path, capsys, key, value, argv):
    # a default never satisfies a required flag, so the key would be inert
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 200, key: value}))
    assert main(["--config", str(cfg)] + argv) == 2
    err = capsys.readouterr().err
    assert f"--config key(s) of required flags: {key}; give the flag on the command line" in err
    # from/to are required by evolve only; scan and shadow still take them
    cfg.write_text(json.dumps({"steps": 200, "from": "0", "to": "1", "points": 3}))
    argv = ["shadow", "--profile", '{"kind": "constant", "beta": 1.0}']
    assert len(run_lines(capsys, ["--config", str(cfg)] + argv)) == 4


@pytest.mark.parametrize("argv", [
    ["evolve", "--profile", MATHIEU_REF, "--from", "0", "--to", "1"],
    ["scan", "--grid", "2,2"],
    ["design", "--b", "2"],
    ["shadow", "--profile", THETA_B2],
])
def test_removed_integrator_flags_are_usage_errors(capsys, argv):
    for flag, value in (("--method", "rk4"), ("--rtol", "1e-10"), ("--atol", "1e-12")):
        assert main(argv + ["--steps", "200", flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "evolve" in capsys.readouterr().out
