"""Output checks against oracles that share no code with the package.

- mpmath: one-period matrices at fixed drive points, solved at 30 digits by
  bench/make_refs.py and stored in bench/refs.json.
- Mathieu characteristic values: with a = 4 beta0 and q = 4 beta1 the curves
  a_r(q) and b_r(q) of scipy.special bound the zones (DLMF 28.2, 28.7):
  zone III below a_0 and between b_r and a_r, zone I elsewhere.
- scipy's DOP853 at rtol 1e-13: the matrix at each reported locus point and
  double zero, so the vanishing entries can be checked where they were found.
- Closed forms: a designed stage maps to [[0, b], [-1/b, 0]], a
  quarter-period tail of stiffness beta0 to [[0, 1/w], [-w, 0]] with
  w = sqrt(beta0), a pulse to the product of its maps U, Gaussian moments to
  U Sigma U^T and phase points to U (q, p); Paul-trap voltages to
  Phi0 = beta0 omega^2 r0^2 m/e and Phi1 = 2 beta1 omega^2 r0^2 m/e.

check_all() gives each command a verdict; the largest |got - want| over the
numeric comparisons is the benchmark's max_abs_err.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0

# A comparison fails when |got - want| > tol * max(1, |want|).  Results for
# Mathieu profiles (reference points, loci, double zeros) are off by at most
# 1e-9 at --steps 2000.  Results along designed pulses are usually off by
# 1e-11 to 1e-7, but by up to a few 1e-6 when an RK4 sample falls just
# outside EPS_THETA of a zero of theta: beta_from_theta's regular branch
# cancels there, giving beta errors up to ~1e-4 at that one sample.  Their
# tolerance sits above that loss, which max_abs_err and seeded_max_abs_err
# measure instead.
TOL = {"mathieu": 1e-7, "pulse": 1e-4}
TOL_CLASS = {"design": "pulse", "shadow": "pulse", "congruence": "pulse", "evolve": "pulse"}
# scan nodes within this distance in beta0 of a characteristic curve are
# not classified by the oracle
ZONE_BAND = 1e-6
# independent CODATA values (CGS) for the units check
M_PROTON_G = 1.67262192369e-24
E_ESU = 4.803204712570263e-10
VOLT_PER_STATVOLT = 299.792458
ERG_PER_EV = 1.602176634e-12
UNITS_RTOL = 1e-8


class CheckFailed(ValueError):
    pass


@dataclass
class Record:
    """One command as run: what was asked and what came back."""

    kind: str
    argv: list
    expect: dict
    rc: object      # exit code, or the text of an exception the call raised
    stdout: str
    seconds: float
    start: float = 0.0  # time.perf_counter() when the command started


def load_refs() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
    with open(path) as fh:
        return json.load(fh)


def one_period(beta0, beta1) -> np.ndarray:
    """u(5pi/2, pi/2) for beta0 + 2 beta1 cos(tau), shape (4, n), by DOP853."""
    from scipy.integrate import solve_ivp

    b0 = np.asarray(beta0, dtype=float)
    b1 = np.asarray(beta1, dtype=float)
    n = b0.size

    def rhs(t, y):
        beta = b0 + 2.0 * b1 * math.cos(t)
        y = y.reshape(4, n)
        return np.concatenate((y[2], y[3], -beta * y[0], -beta * y[1]))

    y0 = np.concatenate((np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)))
    sol = solve_ivp(rhs, (HALF_PI, 5.0 * HALF_PI), y0, method="DOP853",
                    rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[:, -1].reshape(4, n)


def mathieu_zones(beta0, beta1, band: float = ZONE_BAND):
    """Expected zone ("I"/"III") per node and a mask of nodes too close to a
    characteristic curve to classify."""
    from scipy.special import mathieu_a, mathieu_b

    a = 4.0 * np.asarray(beta0, dtype=float)
    q = 4.0 * np.asarray(beta1, dtype=float)
    top = 5
    curves_a = [mathieu_a(r, q) for r in range(top + 1)]
    curves_b = [mathieu_b(r, q) for r in range(1, top + 1)]
    if np.any(a >= curves_b[-1]):
        raise ValueError("node above the highest characteristic curve computed")
    unstable = a < curves_a[0]
    for r in range(1, top + 1):
        unstable |= (a > curves_b[r - 1]) & (a < curves_a[r])
    dist = np.min(np.abs(np.stack(curves_a + curves_b) - a), axis=0) / 4.0
    return np.where(unstable, "III", "I"), dist < band


# ---------------------------------------------------------------------------
# closed forms


def _mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def pulse_maps(expect: dict) -> tuple:
    """Stage maps in time order, and their product (later maps on the left)."""
    maps = [(0.0, b, -1.0 / b, 0.0) for b in expect["bs"]]
    if expect["tail"]:
        w = math.sqrt(expect["beta0"])
        maps.append((0.0, 1.0 / w, -w, 0.0))
    total = (1.0, 0.0, 0.0, 1.0)
    for m in maps:
        total = _mul(m, total)
    return maps, total


def _csv(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _matrix(label, got, want) -> list:
    return [(f"{label}.{name}", float(g), float(w))
            for name, g, w in zip(("u11", "u12", "u21", "u22"), got, want)]


# ---------------------------------------------------------------------------
# per-kind checks: each returns [(what, got, want)] or raises CheckFailed


def _check_scan(rec, ctx):
    rows = _csv(rec.stdout, "beta0,beta1,u11,u12,u21,u22,Gamma,zone")
    if len(rows) != rec.expect["nodes"]:
        raise CheckFailed(f"{len(rows)} rows, expected {rec.expect['nodes']}")
    b0 = np.array([float(r[0]) for r in rows])
    b1 = np.array([float(r[1]) for r in rows])
    want, skip = mathieu_zones(b0, b1)
    got = np.array([r[7] for r in rows])
    bad = (got != want) & ~skip
    ctx["zone_nodes"] += int(np.sum(~skip))
    ctx["zone_skipped"] += int(np.sum(skip))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CheckFailed(f"{int(bad.sum())} zone codes differ from the Mathieu curves, "
                          f"first at ({b0[k]}, {b1[k]}): {got[k]} != {want[k]}")
    return []


def _check_ref_scan(rec, ctx):
    rows = _csv(rec.stdout, "beta0,beta1,u11,u12,u21,u22,Gamma,zone")
    points = ctx["refs"]["points"]
    if len(rows) != len(points):
        raise CheckFailed(f"{len(rows)} rows, expected {len(points)}")
    out = []
    for k, (row, p) in enumerate(zip(rows, points)):
        if (float(row[0]), float(row[1])) != (p["beta0"], p["beta1"]):
            raise CheckFailed(f"row {k} is at ({row[0]}, {row[1]}), not the reference point")
        out += _matrix(f"ref{k}", row[2:6], p["matrix"])
    return out


def _check_ref_evolve(rec, ctx):
    k = rec.expect["point"]
    got = json.loads(rec.stdout)["matrix"]
    return _matrix(f"ref{k}", got, ctx["refs"]["points"][k]["matrix"])


def _root_points(rec):
    if rec.kind == "dz":
        res = json.loads(rec.stdout)
        return [(float(res["beta0"]), float(res["beta1"]))]
    rows = _csv(rec.stdout, "beta0,beta1,entry,lambda")
    return [(float(r[0]), float(r[1])) for r in rows]


def _check_locus(rec, ctx):
    rows = _csv(rec.stdout, "beta0,beta1,entry,lambda")
    if len(rows) != rec.expect["roots"]:
        raise CheckFailed(f"{len(rows)} locus points, expected {rec.expect['roots']}")
    entry = rec.expect["entry"]
    col = {"u12": 1, "u21": 2}[entry]
    out = []
    for row in rows:
        if row[2] != entry:
            raise CheckFailed(f"row names entry {row[2]!r}, not {entry!r}")
        u = ctx["oracle"][(float(row[0]), float(row[1]))]
        out.append((f"locus {entry} at beta0={row[0]}", u[col], 0.0))
        out.append((f"locus lambda at beta0={row[0]}", float(row[3]), u[0]))
    return out


def _check_dz(rec, ctx):
    res = json.loads(rec.stdout)
    u = ctx["oracle"][(float(res["beta0"]), float(res["beta1"]))]
    return ([("double zero u12", u[1], 0.0), ("double zero u21", u[2], 0.0)]
            + _matrix("double zero", res["matrix"], u))


def _check_units(rec, ctx):
    res = json.loads(rec.stdout)
    omega, r0 = 1e5, 10.0  # the command's defaults
    base = omega**2 * r0**2 * M_PROTON_G / E_ESU * VOLT_PER_STATVOLT
    want = {
        "phi0_volt": res["beta0"] * base,
        "phi1_volt": 2.0 * res["beta1"] * base,
        "energy_scale_ev": omega**2 * r0**2 * M_PROTON_G / ERG_PER_EV,
    }
    for key, w in want.items():
        if not abs(res[key] / w - 1.0) <= UNITS_RTOL:
            raise CheckFailed(f"{key} = {res[key]!r}, closed form {w!r}")
    return []


def _check_design(rec, ctx):
    res = json.loads(rec.stdout)
    maps, total = pulse_maps(rec.expect)
    ver = res["verification"]
    if not ver["ok"] or any(lem["violations"] for lem in res["lemma"]):
        raise CheckFailed(f"design reports failures: {ver['failures']}")
    if len(ver["stages"]) != len(maps):
        raise CheckFailed(f"{len(ver['stages'])} stage matrices, expected {len(maps)}")
    pieces, asked = res["profile"]["pieces"], rec.expect["profile"]["pieces"]
    if len(pieces) != len(asked) or any(
            abs(g["from"] - w["from"]) > 1e-9 or abs(g["to"] - w["to"]) > 1e-9
            or g["profile"]["kind"] != w["profile"]["kind"] for g, w in zip(pieces, asked)):
        raise CheckFailed("emitted profile differs from the requested pulse")
    out = []
    for k, (got, want) in enumerate(zip(ver["stages"], maps)):
        out += _matrix(f"stage{k}", got, want)
    return out + _matrix("total", ver["total"], total)


def _check_shadow(rec, ctx):
    rows = _csv(rec.stdout, "tau,q_mean,p_mean,delta_q,delta_p")
    _, u = pulse_maps(rec.expect)
    e = rec.expect
    sqq, spp = 0.5 / e["kappa"], 0.5 * e["kappa"]
    tau, q, p, dq, dp = (float(x) for x in rows[-1])
    return [
        ("shadow end tau", tau, e["profile"]["pieces"][-1]["to"]),
        ("shadow q_mean", q, u[0] * e["q0"] + u[1] * e["p0"]),
        ("shadow p_mean", p, u[2] * e["q0"] + u[3] * e["p0"]),
        ("shadow delta_q", dq, math.sqrt(u[0] ** 2 * sqq + u[1] ** 2 * spp)),
        ("shadow delta_p", dp, math.sqrt(u[2] ** 2 * sqq + u[3] ** 2 * spp)),
    ]


def _check_congruence(rec, ctx):
    rows = _csv(rec.stdout, "tau,init_index,q,p")
    inits = rec.expect["inits"]
    _, u = pulse_maps(rec.expect)
    out = []
    for row, (q0, p0) in zip(rows[-len(inits):], inits):
        out.append(("congruence q", float(row[2]), u[0] * q0 + u[1] * p0))
        out.append(("congruence p", float(row[3]), u[2] * q0 + u[3] * p0))
    return out


def _check_evolve(rec, ctx):
    res = json.loads(rec.stdout)
    _, u = pulse_maps(rec.expect)
    gamma = u[0] + u[3]
    if abs(abs(gamma) - 2.0) > 1e-6:
        want = "I" if abs(gamma) < 2.0 else "III"
        if res["zone"] != want:
            raise CheckFailed(f"zone {res['zone']}, closed form {want}")
    return _matrix("pulse", res["matrix"], u)


CHECKS = {
    "scan": _check_scan, "ref_scan": _check_ref_scan, "ref_evolve": _check_ref_evolve,
    "locus": _check_locus, "dz": _check_dz, "units": _check_units,
    "design": _check_design, "shadow": _check_shadow,
    "congruence": _check_congruence, "evolve": _check_evolve,
}


def check_all(records, refs) -> dict:
    """Verdicts for a list of Records: failures, max_abs_err and counts."""
    points = set()
    for rec in records:
        if rec.rc == 0 and rec.kind in ("locus", "dz"):
            try:
                points.update(_root_points(rec))
            except (ValueError, KeyError, IndexError, TypeError):
                pass  # the command's own check reports it
    points = sorted(points)
    oracle = {}
    if points:
        u = one_period([p[0] for p in points], [p[1] for p in points])
        oracle = {p: u[:, k] for k, p in enumerate(points)}
    ctx = {"refs": refs, "oracle": oracle, "zone_nodes": 0, "zone_skipped": 0}

    failures = []
    max_err = 0.0
    for i, rec in enumerate(records):
        if rec.rc != 0:
            failures.append(f"#{i} {rec.kind}: exit {rec.rc}")
            continue
        try:
            comparisons = CHECKS[rec.kind](rec, ctx)
        except CheckFailed as exc:
            failures.append(f"#{i} {rec.kind}: {exc}")
            continue
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"#{i} {rec.kind}: unreadable output ({type(exc).__name__}: {exc})")
            continue
        bad = []
        tol = TOL[TOL_CLASS.get(rec.kind, "mathieu")]
        for what, got, want in comparisons:
            err = abs(got - want)
            max_err = max(max_err, err) if not math.isnan(err) else math.inf
            if not err <= tol * max(1.0, abs(want)):
                bad.append(f"{what} = {got!r}, oracle {want!r}")
        if bad:
            failures.append(f"#{i} {rec.kind}: " + "; ".join(bad[:3]))
    return {
        "failures": failures,
        "max_abs_err": max_err,
        "oracle_points": len(points),
        "zone_nodes": ctx["zone_nodes"],
        "zone_skipped": ctx["zone_skipped"],
    }
