"""Seeded command streams for the three benchmark workloads.

Each workload is an endless stream of sessions; a session is a short list
of `softsqueeze` commands run back to back.  The seed picks the numbers in
the commands and nothing else: grid sizes, line counts, step counts and the
shape of each session are the same for every seed, so the amount of work
per session does not depend on it.

plane_scan    one `scan` of a fixed-size 80x80 rectangle placed by the seed
              inside the second-tongue box (6400 nodes: one full 4096-node
              batch chunk and one partial chunk), at the default --steps.
refine        `scan --locus u12` and `scan --locus u21` on 8 seeded beta0
              lines each, then two `scan --double-zero` from seeded starts,
              each followed by `units` at the double zero it found; all at
              --steps 2000.  Every line meets its locus exactly once, so a
              session always yields 8 + 8 + 2 roots.
pulse_design  `design`, `shadow`, `shadow --inits` and `evolve` along one
              seeded pulse.  The stage count (1-3) and the tail cycle with
              period 6 in the session index, so every run of whole cycles
              holds the same mix of pulse shapes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Union

WORKLOADS = ("plane_scan", "refine", "pulse_design")

# plane_scan
PLANE_BOX = (0.9, 1.9, 0.5, 1.6)
PLANE_SIDE = 0.5
PLANE_GRID = 80

# refine
REFINE_STEPS = "2000"
LOCUS_GRID = "8,20"
LOCUS_LINES = 8
# beta0 windows: (entry, lowest start, highest start, width).  On beta1 in
# [0.5, 1.6] the u12 = 0 locus crosses every beta0 line in [0.9, 1.2] once,
# and the u21 = 0 locus every line in [1.0, 1.9].
LOCI = (("u12", 0.9, 1.05, 0.15), ("u21", 1.0, 1.45, 0.45))
# Newton starts: 88% of a 7x11 grid over this box converge in 5 iterations
# (the rest in 4), so the median double-zero command does the same work for
# every seed; over [1.05, 1.35]x[0.7, 1.0] the split is 59% 5 and 36% 6.
DZ_BOX = (1.1, 1.35, 0.775, 0.925)
DZ_PER_SESSION = 2

# pulse_design
PULSE_B = (0.6, 3.0)
PULSE_BETA0 = (0.0, 0.4)
TAIL_BETA0_MIN = 0.02
SHAPES = ((1, False), (2, False), (3, False), (1, True), (2, True), (3, True))
SHADOW_POINTS = 201
CONGRUENCE_POINTS = 101
N_INITS = 3

# A run stops only after a whole block of sessions, and not before it has
# timed MIN_COMMANDS commands (pulse_design: at least 10 beyond its p90).
BLOCK = {"plane_scan": 1, "refine": 1, "pulse_design": len(SHAPES)}
MIN_COMMANDS = {"plane_scan": 1, "refine": 1, "pulse_design": 100}
# sessions in the fixed-work traced run
TRACE_SESSIONS = {"plane_scan": 1, "refine": 1, "pulse_design": len(SHAPES)}

Argv = Union[list, Callable[[str], list]]


@dataclass
class Command:
    """One CLI call.  `argv` may depend on the previous command's stdout."""

    kind: str
    argv: Argv
    expect: dict = field(default_factory=dict)


def _num(x: float) -> float:
    return round(x, 6)


def _plane_session(rng: random.Random) -> list:
    lo0 = _num(rng.uniform(PLANE_BOX[0], PLANE_BOX[1] - PLANE_SIDE))
    lo1 = _num(rng.uniform(PLANE_BOX[2], PLANE_BOX[3] - PLANE_SIDE))
    rect = f"{lo0!r},{lo0 + PLANE_SIDE!r},{lo1!r},{lo1 + PLANE_SIDE!r}"
    grid = f"{PLANE_GRID},{PLANE_GRID}"
    return [Command("scan", ["scan", "--rect", rect, "--grid", grid],
                    {"nodes": PLANE_GRID * PLANE_GRID})]


def units_argv(dz_stdout: str) -> list:
    res = json.loads(dz_stdout)
    return ["units", "--beta0", repr(res["beta0"]), "--beta1", repr(res["beta1"])]


def _refine_session(rng: random.Random) -> list:
    cmds = []
    for entry, start_lo, start_hi, width in LOCI:
        lo = _num(rng.uniform(start_lo, start_hi))
        rect = f"{lo!r},{lo + width!r},0.5,1.6"
        cmds.append(Command("locus", [
            "scan", "--locus", entry, "--rect", rect, "--grid", LOCUS_GRID,
            "--steps", REFINE_STEPS,
        ], {"entry": entry, "roots": LOCUS_LINES}))
    for _ in range(DZ_PER_SESSION):
        seed = (_num(rng.uniform(DZ_BOX[0], DZ_BOX[1])),
                _num(rng.uniform(DZ_BOX[2], DZ_BOX[3])))
        cmds.append(Command("dz", [
            "scan", "--double-zero", "--seed", f"{seed[0]!r},{seed[1]!r}",
            "--steps", REFINE_STEPS,
        ], {"roots": 1}))
        cmds.append(Command("units", units_argv))
    return cmds


def pulse_profile(bs, beta0: float, tail: bool) -> dict:
    """Composite profile JSON of stages laid end to end, each spanning pi,
    plus a quarter-period constant tail."""
    pieces = []
    for k, b in enumerate(bs):
        prof = {"kind": "theta", "b": b, "beta0": beta0}
        if k:
            prof["offset"] = k * math.pi
        pieces.append({"from": -math.pi / 2 + k * math.pi,
                       "to": math.pi / 2 + k * math.pi, "profile": prof})
    if tail:
        start = pieces[-1]["to"]
        pieces.append({"from": start, "to": start + math.pi / (2.0 * math.sqrt(beta0)),
                       "profile": {"kind": "constant", "beta": beta0}})
    return {"kind": "composite", "pieces": pieces}


def _pulse_session(rng: random.Random, index: int) -> list:
    n_stages, tail = SHAPES[index % len(SHAPES)]
    bs = [_num(rng.uniform(*PULSE_B)) for _ in range(n_stages)]
    beta0 = _num(rng.uniform(TAIL_BETA0_MIN if tail else PULSE_BETA0[0], PULSE_BETA0[1]))
    kappa = _num(rng.uniform(0.5, 2.0))
    q0, p0 = _num(rng.uniform(-1, 1)), _num(rng.uniform(-1, 1))
    inits = [(_num(rng.uniform(-2, 2)), _num(rng.uniform(-2, 2))) for _ in range(N_INITS)]
    profile = pulse_profile(bs, beta0, tail)
    text = json.dumps(profile)
    lo, hi = profile["pieces"][0]["from"], profile["pieces"][-1]["to"]
    pulse = {"bs": bs, "beta0": beta0, "tail": tail, "profile": profile}

    design = ["design", "--b", repr(bs[0]), "--beta0", repr(beta0)]
    if n_stages > 1:
        design += ["--chain", ",".join(repr(b) for b in bs[1:])]
    if tail:
        design.append("--tail")
    return [
        Command("design", design, pulse),
        Command("shadow", [
            "shadow", "--profile", text, "--points", str(SHADOW_POINTS),
            "--kappa", repr(kappa), "--q0", repr(q0), "--p0", repr(p0),
        ], dict(pulse, kappa=kappa, q0=q0, p0=p0)),
        Command("congruence", [
            "shadow", "--profile", text, "--points", str(CONGRUENCE_POINTS),
            "--inits=" + ";".join(f"{q!r},{p!r}" for q, p in inits),
        ], dict(pulse, inits=inits)),
        Command("evolve", ["evolve", "--profile", text, f"--from={lo!r}", f"--to={hi!r}"],
                pulse),
    ]


def sessions(workload: str, seed: int):
    """Endless, reproducible stream of sessions (lists of Command)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        if workload == "plane_scan":
            yield _plane_session(rng)
        elif workload == "refine":
            yield _refine_session(rng)
        else:
            yield _pulse_session(rng, index)
        index += 1


# A small fixed command of each kind the workload runs.  A fresh process
# runs these before anything is timed; set-up time ends when they are done.
WARMUP = {
    "plane_scan": [["scan", "--rect", "1.0,1.1,0.6,0.7", "--grid", "4,4", "--steps", "200"]],
    "refine": [
        ["scan", "--locus", "u21", "--rect", "1.2,1.3,0.5,1.6", "--grid", "2,4",
         "--steps", "200"],
        ["scan", "--double-zero", "--seed", "1.2,0.85", "--steps", REFINE_STEPS],
        ["units", "--beta0", "1.2", "--beta1", "0.85"],
    ],
    "pulse_design": [
        ["design", "--b", "2", "--beta0", "0.2", "--tail"],
        ["shadow", "--profile", '{"kind": "theta", "b": 2.0, "beta0": 0.2}', "--points", "21"],
        ["shadow", "--profile", '{"kind": "theta", "b": 2.0, "beta0": 0.2}', "--points", "21",
         "--inits", "1,0;0,1"],
        ["evolve", "--profile", '{"kind": "theta", "b": 2.0, "beta0": 0.2}',
         "--from=-pi/2", "--to=pi/2"],
    ],
}

# Reference commands run after the timed region, on inputs that do not
# depend on the seed, through the same command path and --steps as the
# timed commands: the mpmath drive points of bench/refs.json, plus a fixed
# double zero (refine) and one fixed pulse of every shape (pulse_design).
# max_abs_err is taken over these alone, so it is comparable across runs.
REF_RECT = "1.217,1.9,0.844,1.6"
REF_SEED = 0


def reference_commands(workload: str, refs: dict) -> list:
    steps = ["--steps", REFINE_STEPS] if workload == "refine" else []
    cmds = []
    if workload in ("plane_scan", "refine"):
        cmds.append(Command("ref_scan", ["scan", "--rect", REF_RECT, "--grid", "2,2"] + steps))
    if workload in ("refine", "pulse_design"):
        for k, p in enumerate(refs["points"]):
            profile = json.dumps({"kind": "mathieu", "beta0": p["beta0"], "beta1": p["beta1"]})
            cmds.append(Command("ref_evolve", [
                "evolve", "--profile", profile, "--from", "pi/2", "--to", "5pi/2",
            ] + steps, {"point": k}))
    if workload == "refine":
        cmds.append(Command("dz", ["scan", "--double-zero", "--seed", "1.2,0.85"] + steps,
                            {"roots": 1}))
    if workload == "pulse_design":
        stream = sessions(workload, REF_SEED)
        for _ in range(len(SHAPES)):
            cmds += next(stream)
    return cmds
