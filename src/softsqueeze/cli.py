"""Command-line surface.

Subcommands: evolve, scan, design, shadow, units, solenoid.  All outputs
are deterministic: CSV files carry a single header row naming columns (and
units where they apply) and rows of core._csv_rows, numbers as %.12g; JSON
reports carry schema_version.  Exit codes: 0 success, 2 configuration
error (an input whose result overflows a float, a non-finite number in a
flag or a profile and a MemoryError included), 3 numerical failure, 4
validation failure; `design` exits 4 without integrating the
pulse when a theta zero's slope is not +-2, with "verification": null in
its report, and any command that samples a theta profile with such a zero
(evolve, shadow) exits 4, wherever its samples fall.

Angles and times may be given as decimals or as pi fractions ("pi/2",
"5pi/2", "-3pi/4"), parsed exactly.  Every numeric flag of a subcommand,
on the command line or in --config, must be finite even where it is not
used.  A negative value may follow its flag as a separate argument in any
notation ("--p0 -1.1e-05", "--from -3pi/4", "--inits '-1,0;0,1'", "--beta1
-inf"), not only as "--p0=-1.1e-05".

Profiles are JSON objects passed inline or as a file path:

    {"kind": "constant", "beta": 1.0}
    {"kind": "mathieu", "beta0": 1.217, "beta1": 0.844}
    {"kind": "theta", "b": 2.0, "beta0": 0.0, "offset": 0.0}
    {"kind": "sampled", "tau": [...], "beta": [...], "order": 3}
    {"kind": "composite", "pieces": [{"from": a, "to": b, "profile": {...}}]}

A JSON file of defaults can be supplied with --config (or --config=path);
explicit flags win.  Its keys are flag names ("steps", "tail-duration" or
"tail_duration"); a key that names no flag of any subcommand, a key that only
required flags take ("profile", "b"), or a value that fails its flag's type
or choices, is a configuration error.  List flags (--rect, --grid, --seed,
--chain, --inits, --t-list) take their command-line text; a switch takes a
JSON boolean and any other untyped flag a JSON string.

The one integrator is fixed-step RK4; --steps fixes its step,
h = (to - from) / steps, and a one-period Mathieu interval integrates only
half a period at that step.  `design` verifies each stage and its tail from
half the piece by reflection, in ceil(steps / 2) steps, so h is still
piece / steps for an even count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from contextlib import contextmanager

import numpy as np

from . import design, evolution, mathieu, packets, physical
from .core import _csv_rows, profile_from_json
from .design import SingularityError
from .evolution import DEFAULT_CONFIG, IntegrationError, IntegratorConfig
from .mathieu import ConvergenceError

SCHEMA_VERSION = 1

_PI_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Decimal or exact pi fraction: '1.57', 'pi/2', '-5pi/2', '2*pi/3'; finite."""
    m = _PI_RE.match(text)
    try:
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            coef = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            value = sign * coef * math.pi / den
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse angle/time {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle/time {text!r} is not finite")
    return value


def _require_finite(args):
    """Raise ValueError naming the first flag whose float or tuple value is not finite."""
    for dest, value in vars(args).items():
        if isinstance(value, (float, tuple)) and not np.isfinite(np.asarray(value, float)).all():
            raise ValueError(f"--{dest.replace('_', '-')} must be finite, got {value}")


def _numbers(convert, count=None):
    """argparse type for a comma list of numbers: `count` of them, or one
    or more if count is None."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma list of {convert.__name__} values: {text!r}") from None
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(
                f"need {count} comma-separated values, got {text!r}")
        return values

    return parse


def _pairs(text: str) -> tuple:
    """argparse type for a semicolon list of 'q,p' pairs."""
    pair = _numbers(float, 2)
    return tuple(pair(chunk) for chunk in text.split(";"))


def _load_profile(source: str):
    """The profile of inline JSON, or of the JSON file named by source."""
    source = source.strip()
    if not source.startswith("{"):
        with open(source, "r") as fh:
            source = fh.read()
    return profile_from_json(source)


def _add_integrator_flags(p: argparse.ArgumentParser):
    p.add_argument("--steps", type=int, default=DEFAULT_CONFIG.steps,
                   help=f"RK4 step h = interval / steps (default {DEFAULT_CONFIG.steps}); "
                        "a one-period Mathieu interval integrates half a period at that h")


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _emit_json(obj: dict, path):
    obj = dict(obj)
    obj["schema_version"] = SCHEMA_VERSION
    # NaN and infinities are not JSON: raise ValueError before writing
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _open_out(path) as fh:
        fh.write(text)


def _matrix_entries(u) -> list:
    return [u.u11, u.u12, u.u21, u.u22]


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    profile = _load_profile(args.profile)
    t0 = parse_angle(getattr(args, "from"))
    t1 = parse_angle(args.to)
    cfg = IntegratorConfig(args.steps)
    u = evolution.integrate(profile, t0, t1, cfg)
    rep = evolution.classify(u)
    out = {
        "matrix": _matrix_entries(u),
        "det": u.det,
        "Gamma": rep.gamma,
        "zone": rep.zone,
        "interval": [t0, t1],
    }
    if rep.zone == "III":
        out["lambda_plus"] = rep.lam_plus.real
        out["lambda_minus"] = rep.lam_minus.real
        out["a_plus"] = list(rep.a_plus)
        out["a_minus"] = list(rep.a_minus)
    _emit_json(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# scan


def _parse_rect(args) -> mathieu.ScanRect:
    n0, n1 = args.grid
    return mathieu.ScanRect(
        *args.rect, n0=n0, n1=n1,
        tau0=parse_angle(getattr(args, "from")),
        tau1=parse_angle(args.to),
    )


def cmd_scan(args) -> int:
    cfg = IntegratorConfig(args.steps)
    if args.double_zero:
        if not args.seed:
            raise ValueError("--double-zero needs --seed beta0,beta1")
        b0, b1 = args.seed
        res = mathieu.find_double_zero(
            (b0, b1), cfg,
            tau0=parse_angle(getattr(args, "from")),
            tau1=parse_angle(args.to),
        )
        _emit_json({
            "beta0": res.beta0,
            "beta1": res.beta1,
            "matrix": _matrix_entries(res.u),
            "iterations": res.iterations,
            "seed": [b0, b1],
        }, args.output)
        return 0
    rect = _parse_rect(args)
    if args.locus:
        points = mathieu.trace_locus(rect, args.locus, cfg)
        with _open_out(args.output) as fh:
            mathieu.write_locus_csv(points, fh)
        return 0
    result = mathieu.scan_grid(rect, cfg)
    with _open_out(args.output) as fh:
        mathieu.write_scan_csv(result, fh)
    return 0


# ---------------------------------------------------------------------------
# design


def cmd_design(args) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    bs = [args.b, *(args.chain or ())]
    ansatzes = [design.ThetaAnsatz.from_targets(b, args.beta0) for b in bs]

    lemma_reports = [design.validate_lemma(a) for a in ansatzes]
    tail = None
    if args.tail:
        if args.beta0 <= 0:
            raise ValueError("--tail needs --beta0 > 0 (quarter-period duration)")
        duration = (args.tail_duration if args.tail_duration is not None
                    else design.quarter_period(args.beta0))
        tail = design.ConstantTail(beta0=args.beta0, duration=duration)
    pulse = design.build_chain(ansatzes, tail)
    violations = [v for rep in lemma_reports for v in rep.violations]
    # a theta zero with slope off +-2 makes beta singular there, so
    # integrating the pulse would only fail on determinant drift
    report = None if violations else design.verify_design(pulse, IntegratorConfig(args.steps))

    out = {
        "profile": pulse.profile.to_json_dict(),
        "interval": list(pulse.interval),
        "stages": [
            {"b": a.b, "beta0": a.beta0, "a1": a.a1, "a3": a.a3, "a5": a.a5}
            for a in ansatzes
        ],
        "tail": (
            {"beta0": tail.beta0, "duration": tail.duration} if tail else None
        ),
        "joins": [
            {
                "tau": j.tau,
                "left": list(j.left),
                "right": list(j.right),
                "jumps": list(j.jumps),
                "within_tol": list(j.ok),
            }
            for j in pulse.joins
        ],
        "lemma": [
            {
                "violations": list(rep.violations),
                "fourier_points": [
                    {"tau": f.tau, "b": f.b, "beta": f.beta,
                     "beta_prime": f.beta_prime}
                    for f in rep.fourier_points
                ],
            }
            for rep in lemma_reports
        ],
        "verification": report.to_json_dict() if report else None,
    }
    _emit_json(out, args.output)

    if args.samples_out:
        taus = np.linspace(pulse.interval[0], pulse.interval[1], args.samples)
        betas = pulse.profile.beta_array(taus)
        with _open_out(args.samples_out) as fh:
            fh.write("tau,beta\n" + _csv_rows(taus, betas))

    if violations or not report.ok:
        return 4
    return 0


# ---------------------------------------------------------------------------
# shadow


def cmd_shadow(args) -> int:
    profile = _load_profile(args.profile)
    lo, hi = profile.domain()
    t0 = parse_angle(getattr(args, "from")) if getattr(args, "from") else lo
    t1 = parse_angle(args.to) if args.to else hi
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("profile domain is unbounded; pass --from/--to")
    taus = np.linspace(t0, t1, args.points)
    cfg = IntegratorConfig(args.steps)
    if args.inits:
        result = packets.congruence(profile, args.inits, taus, cfg)
        with _open_out(args.output) as fh:
            packets.write_congruence_csv(result, fh)
        return 0
    init = packets.gaussian_init(args.kappa, args.q0, args.p0)
    result = packets.shadow(profile, init, taus, cfg, belt_radius=args.belt)
    if args.format == "json":
        _emit_json({
            "rows": np.column_stack([result.taus, result.q_mean, result.p_mean,
                                     result.dq, result.dp]).tolist(),
            "max_delta_q": result.max_delta_q,
            "within_belt": result.within_belt,
            "belt_radius": result.belt_radius,
        }, args.output)
    else:
        with _open_out(args.output) as fh:
            packets.write_shadow_csv(result, fh)
    return 0


# ---------------------------------------------------------------------------
# units


def _add_particle_flags(p: argparse.ArgumentParser):
    p.add_argument("--particle", choices=("proton", "custom"), default="proton")
    p.add_argument("--mass", type=float, help="custom particle mass (g)")
    p.add_argument("--charge", type=float, help="custom particle charge (esu)")
    p.add_argument("--r0", type=float, default=10.0, help="trap or bore radius (cm, default 10)")
    p.add_argument("--T", type=float, default=1.0, help="time scale (s, default 1)")


def _context_from_args(args) -> physical.PhysicalContext:
    if args.particle == "proton":
        m, e = physical.M_PROTON, physical.E_CHARGE
    else:
        if args.mass is None or args.charge is None:
            raise ValueError("custom particle needs --mass (g) and --charge (esu)")
        m, e = args.mass, args.charge
    return physical.PhysicalContext(m=m, e=e, r0=args.r0, T=args.T)


def cmd_units(args) -> int:
    ctx = _context_from_args(args)
    if args.table:
        base = {}
        if args.base_phi is not None:
            base["Phi"] = args.base_phi
        if args.base_b is not None:
            base["B"] = args.base_b
        if args.base_ratio is not None:
            base["ratio"] = args.base_ratio
        table = physical.scaling_table(ctx, base, args.t_ref, args.t_list)
        units_of = {"q": "cm", "p": "g cm/s", "v": "cm/s", "Phi": "V", "B": "G", "ratio": "1"}
        keys = [key for key in units_of if key in table]
        with _open_out(args.output) as fh:
            # one row per quantity and one column per T, its header cell T=<T>
            fh.write("quantity" + "".join(",T=" + t for t in _csv_rows(table["T"]).split()) + "\n")
            fh.write(_csv_rows([f"{key} [{units_of[key]}]" for key in keys],
                               *np.array([table[key] for key in keys]).T))
        return 0
    phi0, phi1 = physical.paul_voltages(ctx, args.beta0, args.beta1, args.omega)
    out = {
        "particle": args.particle,
        "r0_cm": ctx.r0,
        "T_s": ctx.T,
        "omega_per_s": args.omega,
        "omega_note": (
            "omega is taken as the cyclic rate matching the quoted radio "
            "wavelength (c/lambda), not 2 pi c/lambda"
        ),
        "energy_scale_ev": physical.trap_energy_ev(ctx, args.omega),
        "beta0": args.beta0,
        "beta1": args.beta1,
        "phi0_volt": phi0,
        "phi1_volt": phi1,
        "length_scale_cm": ctx.length_scale,
        "momentum_scale_g_cm_s": ctx.momentum_scale,
    }
    _emit_json(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# solenoid


def _parse_qlin(text: str) -> float:
    text = text.strip()
    if text.lower().endswith("c"):
        return float(text[:-1]) * physical.ESU_PER_COULOMB
    return float(text)


def cmd_solenoid(args) -> int:
    ctx = _context_from_args(args)
    if args.cylinder:
        if args.qlin is None:
            raise ValueError("--cylinder needs --qlin (charge per cm, e.g. '1C')")
        b = physical.rotating_cylinder_field(
            args.omega, args.qlin, standard_convention=args.standard
        )
        _emit_json({
            "B_gauss": b,
            "omega_per_s": args.omega,
            "q_lin_esu_per_cm": args.qlin,
            "convention": "standard (2 omega Q/c)" if args.standard
                          else "literal (4 pi omega Q/c)",
        }, args.output)
        return 0
    # radial correction of a cosine-driven axis field
    w = args.field_omega

    def b_fn(tau, d=0):
        phase = w * ctx.T * tau + d * math.pi / 2.0
        return args.amp * (w * ctx.T) ** d * math.cos(phase)

    value = physical.solenoid_correction(b_fn, args.r, args.tau, ctx, order=args.order)
    _emit_json({
        "B_corrected_gauss": value,
        "B_axis_gauss": b_fn(args.tau, 0),
        "r_cm": args.r,
        "tau": args.tau,
        "order": args.order,
        "coefficients": [physical.solenoid_coefficient(k) for k in range(args.order + 1)],
    }, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


# Argument strings that are values, not flags: negative numbers in any
# notation ("-1.1e-05", "-.5", "-inf", "-nan"), negative pi fractions
# ("-3pi/4", "-pi/2") and lists that start with one ("-1,2", "-1,0;0,1").
_NEGATIVE_VALUE_RE = re.compile(r"^-(\d|\.\d|\s*\*?\s*pi|inf|nan)", re.IGNORECASE)


def build_parser(defaults: dict = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softsqueeze",
        description="Soft squeezing pulses in time-dependent quadratic traps: "
                    "evolution, stability scans, inverse design, moment "
                    "transport, unit estimates.",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    def add_command(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        subparsers.append(p)
        return p

    p = add_command("evolve", help="integrate the evolution matrix over an interval")
    p.add_argument("--profile", required=True, help="profile JSON (inline or file path)")
    p.add_argument("--from", required=True, help="interval start (decimal or pi fraction)")
    p.add_argument("--to", required=True, help="interval end")
    p.add_argument("--output", help="output path (default stdout)")
    _add_integrator_flags(p)
    p.set_defaults(handler=cmd_evolve)

    p = add_command("scan", help="scan the (beta0, beta1) plane; trace loci; refine double zeros")
    p.add_argument("--rect", type=_numbers(float, 4), default="0.9,1.9,0.5,1.6",
                   help="beta0_lo,beta0_hi,beta1_lo,beta1_hi (default second tongue box)")
    p.add_argument("--grid", type=_numbers(int, 2), default="200,200", help="n0,n1 grid counts")
    p.add_argument("--from", default="pi/2", help="interval start (default pi/2)")
    p.add_argument("--to", default="5pi/2", help="interval end (default 5pi/2)")
    p.add_argument("--locus", choices=("u12", "u21"),
                   help="emit the vanishing locus of this entry instead of the full grid")
    p.add_argument("--double-zero", action="store_true",
                   help="refine the simultaneous zero of u12 and u21 from --seed")
    p.add_argument("--seed", type=_numbers(float, 2), help="beta0,beta1 seed for --double-zero")
    p.add_argument("--output", help="output path (default stdout)")
    _add_integrator_flags(p)
    p.set_defaults(handler=cmd_scan)

    p = add_command("design", help="solve a soft pulse from (b, beta0); verify it")
    p.add_argument("--b", type=float, required=True, help="target squeezed-Fourier magnitude")
    p.add_argument("--beta0", type=float, default=0.0, help="edge stiffness (default 0)")
    p.add_argument("--chain", type=_numbers(float), help="comma list of further stage magnitudes")
    p.add_argument("--tail", action="store_true",
                   help="append a constant-beta0 tail (quarter period by default)")
    p.add_argument("--tail-duration", type=float, default=None)
    p.add_argument("--samples", type=int, default=501, help="rows in the beta samples CSV")
    p.add_argument("--samples-out", help="path for the beta(tau) samples CSV")
    p.add_argument("--output", help="report path (default stdout)")
    _add_integrator_flags(p)
    p.set_defaults(handler=cmd_design)

    p = add_command("shadow", help="moment transport: uncertainty shadow or trajectory congruence")
    p.add_argument("--profile", required=True, help="profile JSON (inline or file path)")
    p.add_argument("--from", default=None, help="grid start (default: profile domain)")
    p.add_argument("--to", default=None, help="grid end")
    p.add_argument("--points", type=int, default=201, help="grid size (default 201)")
    p.add_argument("--kappa", type=float, default=1.0, help="initial Gaussian width")
    p.add_argument("--q0", type=float, default=0.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--inits", type=_pairs, help="semicolon list 'q,p;q,p;...' for a congruence run")
    p.add_argument("--belt", type=float, default=10.0, help="display belt radius")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default stdout)")
    _add_integrator_flags(p)
    p.set_defaults(handler=cmd_shadow)

    p = add_command("units", help="laboratory magnitudes for a context particle")
    _add_particle_flags(p)
    p.add_argument("--omega", type=float, default=1e5,
                   help="drive rate (1/s, default 1e5: the long-radio-wave convention)")
    p.add_argument("--beta0", type=float, default=1.217)
    p.add_argument("--beta1", type=float, default=0.844)
    p.add_argument("--table", action="store_true", help="emit the scaling table CSV")
    p.add_argument("--t-list", type=_numbers(float), default="0.001,1,100",
                   help="table column time scales")
    p.add_argument("--t-ref", type=float, default=1.0, help="reference T for base values")
    p.add_argument("--base-phi", type=float, help="Phi max at t-ref (V)")
    p.add_argument("--base-b", type=float, help="B max at t-ref (G)")
    p.add_argument("--base-ratio", type=float, help="radiative ratio at t-ref")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(handler=cmd_units)

    p = add_command("solenoid", help="solenoid radial corrections / rotating-cylinder field")
    p.add_argument("--cylinder", action="store_true", help="rotating charged cylinder estimate")
    p.add_argument("--omega", type=float, default=1.0, help="rotation rate (1/s)")
    p.add_argument("--qlin", type=_parse_qlin, help="charge per cm of axial length ('1C' or esu)")
    p.add_argument("--standard", action="store_true",
                   help="use the surface-current convention (divides by 2 pi)")
    p.add_argument("--amp", type=float, default=1.0, help="axis field amplitude (G)")
    p.add_argument("--field-omega", type=float, default=1.0,
                   help="axis field angular rate (rad/s)")
    p.add_argument("--r", type=float, default=1.0, help="radius for the correction (cm)")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--order", type=int, default=1, help="highest correction order k")
    _add_particle_flags(p)
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(handler=cmd_solenoid)

    # argparse takes only "-1" and "-1.5" for negative numbers and reads any
    # other negative value as a flag; it has no public hook, so this sets its
    # private matcher (no flag here looks like a negative number)
    for sp in (parser, *subparsers):
        sp._negative_number_matcher = _NEGATIVE_VALUE_RE

    if defaults:
        # a key no subcommand reads would be ignored silently; one file may
        # serve several subcommands, so any subcommand's flag is accepted
        defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
        actions = [a for sp in subparsers for a in sp._actions if a.dest != "help"]
        dests = {a.dest for a in actions}
        unknown = sorted(set(defaults) - dests)
        if unknown:
            parser.error(f"unknown --config key(s): {', '.join(unknown)}")
        # argparse never lets a default satisfy a required flag, so a key
        # that only required flags take would be ignored silently too
        required = sorted(set(defaults) & (dests - {a.dest for a in actions if not a.required}))
        if required:
            parser.error(f"--config key(s) of required flags: {', '.join(required)}; "
                         "give the flag on the command line")
        # a value must pass its flag's own checks: argparse applies the type
        # to a string default, as to a typed value, but never checks choices;
        # a switch takes a JSON boolean and an untyped flag a JSON string
        for a in actions:
            if a.dest not in defaults:
                continue
            value = defaults[a.dest]
            if isinstance(a.default, bool):
                if not isinstance(value, bool):
                    parser.error(f"--config key {a.dest}: need true or false, got {value!r}")
            elif a.type is not None:
                defaults[a.dest] = str(value)
            elif not isinstance(value, str):
                parser.error(f"--config key {a.dest}: need a string, got {value!r}")
            if a.choices and defaults[a.dest] not in a.choices:
                parser.error(f"--config key {a.dest}: invalid choice {defaults[a.dest]!r}")
        # subcommands parse into their own namespace, so the defaults have
        # to reach every subparser, not just the root
        for sp in (parser, *subparsers):
            sp.set_defaults(**defaults)

    return parser


@functools.lru_cache(maxsize=1)
def _default_parser() -> argparse.ArgumentParser:
    """build_parser() without --config defaults, built once per process.
    Parsing does not change a parser, so every main call can share it;
    a --config run builds its own."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _default_parser().parse_args(argv)
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    overrides = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"cannot read --config: {exc}") from exc
            if not isinstance(overrides, dict):
                raise ValueError("--config must hold a JSON object")
            # explicit flags still win: argparse falls back to defaults
            # only for absent flags
            args = build_parser(overrides).parse_args(argv)
        _require_finite(args)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except SingularityError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 4
    except (IntegrationError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, OverflowError, MemoryError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
