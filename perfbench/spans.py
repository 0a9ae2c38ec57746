"""Per-layer spans recorded from outside braidrep.

`Tracer.install` replaces the public functions and methods of the layers
with timing wrappers.  braidrep's modules import functions by name (`cli`
binds most of them, `invariants` binds `lkb` and `rep_apply`), so a
function is replaced under every name that refers to it in every braidrep
module; methods are replaced on their class.  Each call records a span
(layer, parent span, operation, start, end); spans stay in memory and are
written once, by `write`.  Self time is a span's duration minus the time of
its child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (layer name, module, attribute path) of every wrapped callable.
TARGETS = [
    ("ring.mul", "ring", "LaurentPoly.__mul__"),
    ("ring.add", "ring", "LaurentPoly.__add__"),
    ("ring.exact_div", "ring", "LaurentPoly.exact_div"),
    ("ring.gcd", "ring", "poly_gcd"),
    ("ring.ratfunc", "ring", "RatFunc.__init__"),
    ("matrix.mul", "matrix", "RingMatrix.__mul__"),
    ("matrix.det", "matrix", "RingMatrix.det"),
    ("matrix.charpoly", "matrix", "RingMatrix.charpoly"),
    ("matrix.inverse", "matrix", "RingMatrix.inverse"),
    ("reps.build", "reps", "burau"),
    ("reps.build", "reps", "burau_ext"),
    ("reps.build", "reps", "lkb"),
    ("reps.build", "reps", "lkb_ext"),
    ("reps.build", "reps", "exterior_square_burau"),
    ("reps.apply", "reps", "rep_apply"),
    ("reps.verify", "reps", "verify_relations"),
    ("reps.verify", "reps", "verify_group_algebra_relations"),
    ("reps.solve_ext", "reps", "solve_extension_space"),
    ("reps.birman", "reps", "birman_image"),
    ("garside.nf", "garside", "to_normal_form"),
    ("garside.nf_mul", "garside", "nf_mul"),
    ("invariants.charpoly", "invariants", "charpoly_invariant"),
    ("invariants.markov", "invariants", "enumerate_markov_class"),
    ("defects", "defects", "defect"),
    ("tl.rho", "tl", "tl_rho"),
    ("tl.verify", "tl", "verify_tl_relations"),
    ("cli", "cli", "main"),
]

LAYERS = sorted({name for name, _, _ in TARGETS})


class Tracer:
    def __init__(self):
        self.layer_id = {name: k for k, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counts: dict[str, int] = {
            "ring.mul.term_products": 0, "ring.exact_div.quotient_terms": 0,
            "ring.peak_terms": 0, "reps.apply.letters": 0, "reps.verify.relations": 0,
            "garside.nf.letters": 0, "garside.nf.factors": 0,
            "invariants.markov.states": 0, "invariants.markov.polys": 0,
        }
        # Open spans: [span id, time covered by children].
        self._stack: list[list] = []
        self._markov_states: set | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, layer: str, fn, after=None):
        lid = self.layer_id[layer]
        stack, calls, self_s = self._stack, self.calls, self.self_s
        layer_arr, parent_arr, op_arr = self.layer, self.parent, self.op
        start_arr, end_arr = self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start_arr)
            layer_arr.append(lid)
            parent_arr.append(stack[-1][0] if stack else -1)
            op_arr.append(self.current_op)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            start_arr.append(t0)
            end_arr.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end_arr[sid] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[lid] += 1
                self_s[lid] += dur - frame[1]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters read from arguments and results -----------------------------------

    def _after_mul(self, args, result):
        if result is NotImplemented:
            return
        a, b = args[0], args[1]
        nb = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
        c = self.counts
        c["ring.mul.term_products"] += len(a.terms) * nb
        if len(result.terms) > c["ring.peak_terms"]:
            c["ring.peak_terms"] = len(result.terms)

    def _after_exact_div(self, args, result):
        c = self.counts
        c["ring.exact_div.quotient_terms"] += len(result.terms)
        if len(result.terms) > c["ring.peak_terms"]:
            c["ring.peak_terms"] = len(result.terms)

    def _after_apply(self, args, result):
        self.counts["reps.apply.letters"] += len(args[1].letters)

    def _after_verify(self, args, result):
        self.counts["reps.verify.relations"] += len(result.checks)

    def _after_nf(self, args, result):
        self.counts["garside.nf.letters"] += len(args[0].letters)
        self.counts["garside.nf.factors"] += len(result.factors)
        if self._markov_states is not None:
            self._markov_states.add(result)

    def _markov(self, fn):
        inner = self._wrap("invariants.markov", fn, self._after_markov)

        def markov(*args, **kwargs):
            outer = self._markov_states is None
            if outer:
                self._markov_states = set()
            try:
                return inner(*args, **kwargs)
            finally:
                if outer:
                    self.counts["invariants.markov.states"] += len(self._markov_states)
                    self._markov_states = None

        return markov

    def _after_markov(self, args, result):
        self.counts["invariants.markov.polys"] += len(result.witnesses)

    # -- installing the wrappers ----------------------------------------------------

    def install(self, package: str = "braidrep"):
        after = {
            "ring.mul": self._after_mul, "ring.exact_div": self._after_exact_div,
            "reps.apply": self._after_apply, "reps.verify": self._after_verify,
            "garside.nf": self._after_nf,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, mod_name, path in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                homes = [owner]
            else:
                attr = path
                homes = modules
            fn = getattr(owner, attr)
            if layer == "invariants.markov":
                wrapper = self._markov(fn)
            else:
                wrapper = self._wrap(layer, fn, after.get(layer))
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is fn:
                        self._originals.append((home, key, fn))
                        setattr(home, key, wrapper)

    def uninstall(self):
        for home, key, fn in reversed(self._originals):
            setattr(home, key, fn)
        self._originals.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        def calls(layer):
            return self.calls[self.layer_id[layer]]

        def self_s(*layers):
            return sum(self.self_s[self.layer_id[layer]] for layer in layers)

        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for layer in ("ring.mul", "ring.add", "ring.exact_div", "ring.gcd", "ring.ratfunc",
                      "matrix.mul", "matrix.det", "matrix.charpoly", "matrix.inverse",
                      "reps.build", "reps.apply", "reps.solve_ext",
                      "garside.nf", "garside.nf_mul", "invariants.charpoly"):
            out[f"{layer}.calls"] = (calls(layer), "count")
            out[f"{layer}.self_s"] = (self_s(layer), "s")
        for key in ("ring.mul.term_products", "ring.exact_div.quotient_terms", "ring.peak_terms",
                    "reps.apply.letters", "reps.verify.relations",
                    "garside.nf.letters", "garside.nf.factors",
                    "invariants.markov.states", "invariants.markov.polys"):
            out[key] = (c[key], "count")
        states = c["invariants.markov.states"]
        out["invariants.markov.useful_ratio"] = (
            c["invariants.markov.polys"] / states if states else 0.0, "ratio")
        out["reps.verify.self_s"] = (self_s("reps.verify"), "s")
        out["reps.birman.self_s"] = (self_s("reps.birman"), "s")
        out["invariants.markov.self_s"] = (self_s("invariants.markov"), "s")
        out["defects.calls"] = (calls("defects"), "count")
        out["defects.self_s"] = (self_s("defects"), "s")
        out["tl.rho.calls"] = (calls("tl.rho"), "count")
        out["tl.self_s"] = (self_s("tl.rho", "tl.verify"), "s")
        out["cli.calls"] = (calls("cli"), "count")
        out["cli.self_s"] = (self_s("cli"), "s")
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write every span once, as columns, with the layer names."""
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "layers": LAYERS,
                "columns": ["layer", "parent", "op", "start", "end"],
                "layer": list(self.layer),
                "parent": list(self.parent),
                "op": list(self.op),
                "start": [round(x, 7) for x in self.start],
                "end": [round(x, 7) for x in self.end],
            }, fh, separators=(",", ":"))
