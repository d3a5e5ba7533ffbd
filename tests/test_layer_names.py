"""Names that the traced benchmark run reads from the package.

bench/spans.py wraps, from outside, the public functions of each layer by
name and the beta_array defined in each profile class's own __dict__, and
takes counts from some arguments and result fields.  A rename would not
fail a command; it would silently zero a per-layer counter.  This pins
those names without importing the benchmark.
"""

import inspect

import numpy as np

import softsqueeze
from softsqueeze import cli, core, design, evolution, mathieu, packets
from softsqueeze.evolution import IntegratorConfig

# span name -> the arguments the recorder reads from its call
RECORDED = {
    "cli.main": (),
    "cli.build_parser": (),
    "evolution.mathieu_batch": ("beta0", "beta1", "steps"),
    "evolution.integrate": ("cfg",),
    "evolution.integrate_path": (),
    "evolution.classify": (),
    "mathieu.scan_grid": (),
    "mathieu.trace_locus": (),
    "mathieu.find_double_zero": (),
    "mathieu.write_scan_csv": (),
    "mathieu.write_locus_csv": (),
    "design.validate_lemma": (),
    "design.build_chain": (),
    "design.verify_design": (),
    "packets.shadow": (),
    "packets.congruence": (),
    "packets.propagate": (),
    "packets.write_shadow_csv": (),
    "packets.write_congruence_csv": (),
}

PROFILE_CLASSES = {"ConstantBeta", "MathieuBeta", "SampledBeta", "CompositeBeta",
                   "ThetaDerivedBeta"}


def test_names_read_by_the_span_recorder():
    layers = {"cli": cli, "evolution": evolution, "mathieu": mathieu,
              "design": design, "packets": packets}
    for name, args in RECORDED.items():
        layer, attr = name.split(".")
        fn = getattr(layers[layer], attr)
        assert inspect.isfunction(fn) and fn.__module__ == f"softsqueeze.{layer}", name
        assert set(args) <= set(inspect.signature(fn).parameters), name
    assert list(inspect.signature(evolution.mathieu_batch).parameters) == [
        "beta0", "beta1", "tau0", "tau1", "steps"]
    assert IntegratorConfig.method == IntegratorConfig(steps=10).method == "rk4"

    cfg = IntegratorConfig(steps=2000)
    scan = mathieu.scan_grid(mathieu.ScanRect(1.0, 1.2, 0.6, 0.8, n0=2, n1=3), cfg)
    assert scan.failed.shape == (2, 3) and int(np.sum(scan.failed)) == 0
    res = mathieu.find_double_zero((1.217, 0.844), cfg)
    assert isinstance(res.iterations, int) and res.iterations >= 1

    # every profile class of the package samples through its own beta_array
    found, todo = set(), [core.BetaProfile]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith(softsqueeze.__name__ + ".") and cls is not core.BetaProfile:
            found.add(cls.__name__)
            assert "beta_array" in cls.__dict__, cls.__name__
            assert list(inspect.signature(cls.__dict__["beta_array"]).parameters) == [
                "self", "taus"], cls.__name__
    assert found == PROFILE_CLASSES


def test_verify_design_reaches_integrate(monkeypatch):
    # the recorder counts evolution.integrate_steps from the cfg of each
    # evolution.integrate call; verify_design reaches it through
    # integrate_symmetric, once per piece, over half the piece's steps
    seen = []
    integrate = evolution.integrate

    def spy(profile, tau0, tau1, cfg=evolution.DEFAULT_CONFIG):
        seen.append(cfg.steps)
        return integrate(profile, tau0, tau1, cfg)

    monkeypatch.setattr(evolution, "integrate", spy)
    pulse = design.build_chain(
        [design.ThetaAnsatz.from_targets(b, 0.2) for b in (2.0, 1.2)],
        design.ConstantTail(0.2, design.quarter_period(0.2)))
    design.verify_design(pulse, IntegratorConfig(steps=400))
    assert seen == [200, 200, 200]
