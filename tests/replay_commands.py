"""Replay a fixed list of `softsqueeze` commands and print one line per
command: the sha256 of what it wrote, its exit code and its argv.

    python tests/replay_commands.py > replay.txt    # about 15 s
    python tests/replay_commands.py --dump DIR      # the same, and keep stdout
    python tests/replay_commands.py --compare OLD NEW

Run it in two checkouts and diff the two outputs: a line that differs names
a command whose output bytes or exit code changed, so an empty diff shows a
change to be byte-identical on these commands.  --dump DIR also writes
each command's argv, exit code and stdout to DIR/NNN.json, NNN its place in
the list.  --compare reads two such dumps and prints one line per command
whose exit code or stdout differs: how many of its numeric CSV or JSON
fields changed (-0 to 0 included), how many of those only changed sign
(new == -old, a flipped orientation or a signed zero rather than rounding
drift), the largest relative change |new - old| / max(|old|, |new|) and
the largest change |new - old| of the others, and the names of the
changed fields (a CSV column, or a JSON key path with list indices left
out), then a summary.  A change to anything but a number (a zone, a
header, a row count) is reported as a text change.  It exits 1 if any
command differs and 0 if none does, so byte identity on these commands is
its exit status.  The commands are the README's `softsqueeze` lines, the
benchmark's warm-up commands, seeded sessions of its three workloads
(plane_scan, refine and pulse_design, at seed 17), failure cases and, last,
double zeros on each path of a prepared Mathieu run and two searches that
end outside zone III.  Each
runs in-process through cli.main, in a fresh temporary directory, and its
digest covers its stdout, its stderr and every file it wrote there.  The
package is imported from the checkout the script sits in.  The file name
does not match pytest's test_*.py pattern, so it is not collected.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import shlex
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from softsqueeze import cli  # noqa: E402
from test_readme import readme_commands  # noqa: E402

THETA_BAD_SLOPE = '{"kind": "theta", "b": -0.88, "beta0": 0.64}'  # side zeros at slope -2.000006
ZONE_III = '{"kind": "mathieu", "beta0": 1.5, "beta1": 1.2}'
THETA = '{"kind": "theta", "b": 2.0, "beta0": 0.2}'

WARMUPS = [
    ["scan", "--rect", "1.0,1.1,0.6,0.7", "--grid", "4,4", "--steps", "200"],
    ["scan", "--locus", "u21", "--rect", "1.2,1.3,0.5,1.6", "--grid", "2,4", "--steps", "200"],
    ["scan", "--double-zero", "--seed", "1.2,0.85", "--steps", "2000"],
    ["units", "--beta0", "1.2", "--beta1", "0.85"],
    ["design", "--b", "2", "--beta0", "0.2", "--tail"],
    ["shadow", "--profile", THETA, "--points", "21"],
    ["shadow", "--profile", THETA, "--points", "21", "--inits", "1,0;0,1"],
    ["evolve", "--profile", THETA, "--from=-pi/2", "--to=pi/2"],
]

PLANE_RECTS = ["0.934995,1.434995,0.710067,1.210067"]

# refine sessions: (u12 locus rect, u21 locus rect, double-zero seeds)
REFINE = [
    ("0.941156,1.091156,0.5,1.6", "1.278282,1.7282819999999999,0.5,1.6",
     ("1.288771,0.908713", "1.143086,0.876139")),
    ("1.024452,1.1744519999999998,0.5,1.6", "1.236328,1.686328,0.5,1.6",
     ("1.258348,0.820184", "1.195191,0.898264")),
]

# pulse_design sessions: (stage bs, beta0, tail, kappa, q0, p0, inits)
PULSES = [
    ((2.82951,), 0.378258, False, 1.791201, 0.926232, -0.937996,
     "1.02149,-0.450951;-1.602045,-1.913956;-0.33867,-1.027071"),
    ((1.472469, 2.33892), 0.035607, False, 1.228963, -0.62579, 0.313984,
     "-0.545099,1.395363;1.789385,-1.695672;1.68057,0.534006"),
    ((1.660032, 1.202018, 2.946188), 0.25472, False, 1.242377, -0.041024, 0.380075,
     "-1.571911,0.875456;1.13819,-1.302194;0.189668,0.543858"),
    ((2.814749,), 0.079111, True, 1.06796, -0.050784, -0.377035,
     "-1.615472,-0.995924;1.921723,1.319606;0.036018,0.943294"),
    ((1.535008, 2.422077), 0.061056, True, 1.925248, 0.939055, -0.084022,
     "-0.079636,0.794055;-0.606366,0.613467;-1.279397,1.550353"),
    ((1.260396, 1.473908, 1.61449), 0.075832, True, 1.085281, -0.079376, -0.006942,
     "1.924846,1.826719;-0.950796,1.58703;1.39722,-0.96799"),
    ((2.819821,), 0.080709, False, 1.710488, 0.076483, -0.405345,
     "-0.450299,-0.204416;-1.140202,-1.408524;-1.417491,0.387725"),
    ((2.858503, 0.788561), 0.23703, False, 1.768806, -0.532665, 0.290586,
     "-0.945644,0.595892;1.188376,0.317398;-0.517798,0.855026"),
    ((1.389063, 2.696877, 0.953742), 0.196549, False, 1.32962, 0.595279, -0.564805,
     "-1.568099,0.352815;0.292076,-0.533821;0.376487,1.929837"),
    ((2.618573,), 0.178765, True, 1.02521, -0.398101, -0.84949,
     "0.032997,-1.263812;-1.541485,-1.137034;-0.249513,-0.209875"),
    ((1.070849, 2.963204), 0.31793, True, 1.141575, -0.607035, 0.549082,
     "-1.350474,-1.84564;-0.000834,-0.763303;-1.925773,-1.53995"),
    ((1.886673, 2.80485, 2.412612), 0.027323, True, 1.235468, -0.559903, -0.865005,
     "0.94538,0.313501;1.666925,-1.951773;-1.859579,-1.903419"),
]

FAILURES = [
    ["scan", "--steps", "8"],
    ["scan", "--locus", "u12", "--rect", "1.0,1.1,0.5,1.6", "--grid", "4,20", "--steps", "8"],
    ["scan", "--double-zero", "--seed", "1.2,0.85", "--steps", "60"],
    ["design", "--b", "0.25", "--beta0", "1.65"],
    ["design", "--b", "0.3", "--beta0", "0"],
    ["design", "--b", "0", "--beta0", "0.2"],
    ["design", "--b", "-0.88", "--beta0", "0.64"],
    ["design", "--b", "-0.88", "--beta0", "0.64", "--samples-out", "beta.csv"],
    ["evolve", "--profile", THETA_BAD_SLOPE, "--from=-pi/2", "--to=pi/2"],
    ["shadow", "--profile", THETA_BAD_SLOPE],
    ["evolve", "--profile", '{"kind": "constant", "beta": 400}', "--from", "0", "--to", "1",
     "--steps", "8"],
    ["units", "--omega", "1e200"],
] + [[cmd, "--profile", ZONE_III, "--from", "0", "--to", to]
     for cmd in ("evolve", "shadow") for to in ("10pi", "40pi")]

# after the rest, so that the earlier commands keep their numbers: a
# halved Newton trial, then a one-period interval whose half-period pieces
# differ in step count, and an interval that is not one period; then two
# seeds whose searches end on a trivial double zero (the identity and minus
# the identity at beta1 ~ 0), outside zone III
DOUBLE_ZEROS = [
    ["scan", "--double-zero", "--seed", "1.1,0.65", "--steps", "2000"],
    ["scan", "--double-zero", "--seed", "1.2,0.85", "--from", "0", "--to", "2pi",
     "--steps", "2000"],
    ["scan", "--double-zero", "--seed", "1.2,0.85", "--from", "0", "--to", "5",
     "--steps", "2000"],
    ["scan", "--double-zero", "--seed", "1.0,0.05", "--steps", "2000"],
    ["scan", "--double-zero", "--seed", "0.27,0.05", "--steps", "2000"],
]


def pulse_profile(bs, beta0: float, tail: bool) -> str:
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
    return json.dumps({"kind": "composite", "pieces": pieces})


def units_at(dz_stdout: str) -> list:
    res = json.loads(dz_stdout)
    return ["units", "--beta0", repr(res["beta0"]), "--beta1", repr(res["beta1"])]


def commands() -> list:
    """Each command's argv, or a function of the previous command's stdout."""
    cmds = readme_commands() + WARMUPS
    cmds += [["scan", "--rect", rect, "--grid", "80,80"] for rect in PLANE_RECTS]
    for u12, u21, seeds in REFINE:
        for entry, rect in (("u12", u12), ("u21", u21)):
            cmds.append(["scan", "--locus", entry, "--rect", rect, "--grid", "8,20",
                         "--steps", "2000"])
        for seed in seeds:
            cmds += [["scan", "--double-zero", "--seed", seed, "--steps", "2000"], units_at]
    for bs, beta0, tail, kappa, q0, p0, inits in PULSES:
        text = pulse_profile(bs, beta0, tail)
        span = json.loads(text)["pieces"]
        design = ["design", "--b", repr(bs[0]), "--beta0", repr(beta0)]
        design += ["--chain", ",".join(map(repr, bs[1:]))] if bs[1:] else []
        cmds += [
            design + ["--tail"] if tail else design,
            ["shadow", "--profile", text, "--points", "201", "--kappa", repr(kappa),
             "--q0", repr(q0), "--p0", repr(p0)],
            ["shadow", "--profile", text, "--points", "101", "--inits=" + inits],
            ["evolve", "--profile", text, f"--from={span[0]['from']!r}",
             f"--to={span[-1]['to']!r}"],
        ]
    return cmds + FAILURES + DOUBLE_ZEROS


def run(argv: list) -> tuple:
    """(exit code, stdout, sha256 of stdout, stderr and the files written)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            digest = hashlib.sha256()
            for part in (out.getvalue(), err.getvalue()):
                digest.update(part.encode() + b"\0")
            for path in sorted(pathlib.Path(tmp).iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        finally:
            os.chdir(cwd)
    return rc, out.getvalue(), digest.hexdigest()


def fields(stdout: str) -> list:
    """(name, value) of every field of a command's stdout, in order: the
    leaves of a JSON document, else the cells of CSV rows under a header.
    A value is a float where it parses as one, else its text."""
    def number(x):
        try:
            return float(x)
        except (TypeError, ValueError):
            return x

    try:
        doc = json.loads(stdout)
    except ValueError:
        lines = stdout.splitlines()
        header = lines[0].split(",") if lines else []
        return [("header", ",".join(header))] + [
            (header[i] if i < len(header) else f"column {i}", number(cell))
            for line in lines[1:] for i, cell in enumerate(line.split(","))]
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            for key in node:
                walk(node[key], f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for item in node:
                walk(item, path + "[]")
        else:
            out.append((path, number(node) if not isinstance(node, bool) else node))

    walk(doc, "")
    return out


def compare(old_dir: str, new_dir: str) -> int:
    """Print the field-level differences of two --dump directories and
    return the number of commands that differ."""
    old, new = (sorted(pathlib.Path(d).glob("*.json")) for d in (old_dir, new_dir))
    if [p.name for p in old] != [p.name for p in new]:
        sys.exit("the two dumps hold different command lists")
    changed = 0
    for a_path, b_path in zip(old, new):
        a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
        if a["argv"] != b["argv"]:
            sys.exit(f"{a_path.name}: the dumps ran different commands")
        if (a["rc"], a["stdout"]) == (b["rc"], b["stdout"]):
            continue
        changed += 1
        fa, fb = fields(a["stdout"]), fields(b["stdout"])
        numeric = [(na, x, y) for (na, x), (nb, y) in zip(fa, fb)
                   if isinstance(x, float) and isinstance(y, float) and na == nb]
        moved = [(name, x, y) for name, x, y in numeric  # -0 and 0 differ too
                 if (x != y or math.copysign(1.0, x) != math.copysign(1.0, y))
                 and not (math.isnan(x) and math.isnan(y))]
        text = len(fa) != len(fb) or any(
            na != nb or (x != y and not (isinstance(x, float) and isinstance(y, float)))
            for (na, x), (nb, y) in zip(fa, fb))
        drift = [(x, y) for _, x, y in moved if x != -y]
        rel = max((abs(y - x) / max(abs(x), abs(y)) for x, y in drift), default=0.0)
        change = max((abs(y - x) for x, y in drift), default=0.0)
        names = ",".join(dict.fromkeys(name for name, _, _ in moved))
        line = (f"{a_path.stem} rc {a['rc']}->{b['rc']}: {len(moved)} of {len(numeric)} "
                f"numeric fields changed, {len(moved) - len(drift)} sign flips, "
                f"max rel change {rel:.2g}, max change {change:.2g}")
        line += f" ({names})" if names else ""
        line += "; text changed" if text else ""
        argv = shlex.join(a["argv"])
        print(line + ": " + (argv if len(argv) <= 100 else argv[:97] + "..."))
    print(f"{changed} of {len(old)} commands differ")
    return changed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="DIR", help="also write each command's output here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --dump directories; exit 1 if any command differs")
    args = parser.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    stdout = ""
    for index, argv in enumerate(commands()):
        if callable(argv):
            argv = argv(stdout)
        rc, stdout, digest = run(argv)
        print(digest, rc, shlex.join(argv), flush=True)
        if args.dump:
            record = {"argv": argv, "rc": rc, "stdout": stdout}
            pathlib.Path(args.dump, f"{index:03d}.json").write_text(json.dumps(record))


if __name__ == "__main__":
    main()
