"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps, from outside the package, every public function of the
layers cli, core, evolution, mathieu, design, packets and physical, plus the
beta_array method of every stiffness profile class.  Each call becomes a
span: name, start, end, parent span and the id of the CLI command it ran
under.  A few spans also carry counts taken from their arguments or result
(batch nodes and steps, integration steps, tau samples, Newton iterations,
failed scan nodes).  Spans stay in memory until the run ends.  restore()
puts every original function back.

A layer's self time is its spans' time minus the time of their direct
children; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "core", "evolution", "mathieu", "design", "packets", "physical")
BETA_ARRAY = "core.beta_array"


def _cfg_steps(args):
    cfg = args.get("cfg")
    return cfg.steps if cfg is not None and cfg.method == "rk4" else 0


# span name -> function(bound arguments, result) -> counts
COUNTERS = {
    "evolution.mathieu_batch": lambda a, r: {
        "nodes": int(np.broadcast(np.asarray(a["beta0"]), np.asarray(a["beta1"])).size),
        "steps": int(a["steps"]),
    },
    "evolution.integrate": lambda a, r: {"steps": _cfg_steps(a)},
    BETA_ARRAY: lambda a, r: {"samples": int(np.size(a["taus"]))},
    "mathieu.find_double_zero": lambda a, r: {"iterations": int(r.iterations)},
    "mathieu.scan_grid": lambda a, r: {"failed": int(np.sum(r.failed))},
}


class SpanRecorder:
    def __init__(self):
        # [name, start, end, parent index or -1, command id, counts or None]
        self.spans = []
        self._stack = []
        self._patches = []
        self._command = 0

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent == -1 and name == "cli.main":
                self._command += 1
            span = [name, 0.0, 0.0, parent, self._command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layers of the imported package; aliases of a wrapped
        function in any of its modules are replaced too."""
        layers = {layer: sys.modules[f"softsqueeze.{layer}"] for layer in LAYERS}
        modules = [sys.modules["softsqueeze"], *layers.values()]
        wrapped = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])
        todo = [layers["core"].BetaProfile]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "beta_array" in cls.__dict__:
                self._patch(cls, "beta_array", self._wrap(BETA_ARRAY, cls.__dict__["beta_array"]))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path: str):
        keys = ("name", "start", "end", "parent", "command", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_metrics(spans) -> dict:
    """Per-layer metrics (see BENCHMARK.json) from a list of spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    names = [s[0] for s in spans]

    def parent_name(i):
        p = spans[i][3]
        return names[p] if p >= 0 else None

    def pick(pred):
        return [i for i, n in enumerate(names) if pred(n, i)]

    def total(idx, what="dur"):
        if what == "dur":
            return sum(dur[i] for i in idx)
        if what == "self":
            return sum(dur[i] - child[i] for i in idx)
        return sum((spans[i][5] or {}).get(what, 0) for i in idx)

    def named(*wanted):
        return pick(lambda n, i: n in wanted)

    batch = named("evolution.mathieu_batch")
    batch_s = total(batch)
    node_steps = sum(s[5]["nodes"] * s[5]["steps"] for s in (spans[i] for i in batch))
    beta_outer = pick(lambda n, i: n == BETA_ARRAY and parent_name(i) != BETA_ARRAY)
    physical_outer = pick(lambda n, i: n.startswith("physical.")
                          and not (parent_name(i) or "").startswith("physical."))
    return {
        "cli.self_s": total(pick(lambda n, i: n.startswith("cli.")), "self"),
        "cli.build_parser_s": total(named("cli.build_parser")),
        "cli.commands": len(pick(lambda n, i: n == "cli.main" and spans[i][3] == -1)),
        "core.beta_array_s": total(beta_outer),
        "core.beta_samples": total(beta_outer, "samples"),
        "evolution.mathieu_batch_s": batch_s,
        "evolution.mathieu_batch_calls": len(batch),
        "evolution.batch_node_steps": node_steps,
        "evolution.batch_width_mean": total(batch, "nodes") / len(batch) if batch else 0.0,
        "evolution.batch_node_steps_per_s": node_steps / batch_s if batch_s else 0.0,
        "evolution.integrate_s": total(named("evolution.integrate")),
        "evolution.integrate_calls": len(named("evolution.integrate")),
        "evolution.integrate_steps": total(named("evolution.integrate"), "steps"),
        "evolution.integrate_path_s": total(named("evolution.integrate_path")),
        "evolution.integrate_path_calls": len(named("evolution.integrate_path")),
        "evolution.classify_s": total(named("evolution.classify")),
        "mathieu.trace_locus_s": total(named("mathieu.trace_locus")),
        "mathieu.locus_batch_passes": len(pick(
            lambda n, i: n == "evolution.mathieu_batch" and parent_name(i) == "mathieu.trace_locus")),
        "mathieu.find_double_zero_s": total(named("mathieu.find_double_zero")),
        "mathieu.dz_integrations": len(pick(
            lambda n, i: n == "evolution.integrate" and parent_name(i) == "mathieu.find_double_zero")),
        "mathieu.dz_iterations": total(named("mathieu.find_double_zero"), "iterations"),
        "mathieu.scan_grid_self_s": total(named("mathieu.scan_grid"), "self"),
        "mathieu.write_csv_s": total(named("mathieu.write_scan_csv", "mathieu.write_locus_csv")),
        "mathieu.failed_nodes": total(named("mathieu.scan_grid"), "failed"),
        "design.validate_lemma_s": total(named("design.validate_lemma")),
        "design.build_chain_s": total(named("design.build_chain")),
        "design.verify_design_self_s": total(named("design.verify_design"), "self"),
        "packets.shadow_self_s": total(named("packets.shadow"), "self"),
        "packets.congruence_self_s": total(named("packets.congruence"), "self"),
        "packets.propagate_calls": len(named("packets.propagate")),
        "packets.write_csv_s": total(named("packets.write_shadow_csv",
                                           "packets.write_congruence_csv")),
        "physical.s": total(physical_outer),
    }
