"""Outside-in tracing of the p1moduli layers, installed from the benchmark.

Nothing in the package is edited.  ``Tracer.install`` rebinds each public
function named in SPANS in every package module that holds it by name
(``decide`` and ``construct`` each import ``compute_aut``, for example),
and wraps a few methods on ``FieldElem`` and ``Mobius`` with counters.
``uninstall`` puts every original object back.

Spans live in memory with a parent link and the op id of the request
that caused them; ``write_spans`` dumps them as JSON lines at the end.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction

PKG = "p1moduli"

# module -> public functions timed as spans
SPANS = {
    "cli": ("run",),
    "construct": ("gen_counterexample", "hyperelliptic_branch_analysis"),
    "decide": ("decide", "build_p1_model", "verify_certificate"),
    "moduli": ("field_of_moduli", "descent_cocycle", "compression",
               "compressed_divisor", "cocycle_class_to_quaternion"),
    "divisor": ("compute_aut", "pgl2_equivalent"),
    "conic": ("hasse_solvable", "find_point", "parametrize"),
    "intmath": ("factorint",),
    "qfield": ("galois_group", "fixed_subtower", "tower_extend"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in SPANS.items() for f in fns)
LEVELS = range(4)
SAMPLE_STRIDE = 7      # keep every 7th operand of a level ...
SAMPLE_CAP = 256       # ... up to this many


def _module(name: str):
    # the package attribute p1moduli.decide is the function, not the module
    return importlib.import_module(f"{PKG}.{name}")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: Counter = Counter()
        self.op_id = None
        self.mul_samples = {k: [] for k in LEVELS}
        self.inv_samples = {k: [] for k in LEVELS}
        self._undo: list = []
        self.originals: dict = {}

    # -- installation -------------------------------------------------------

    def _rebind_everywhere(self, orig, repl) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PKG or name.startswith(PKG + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    self._undo.append((mod, attr, orig))

    def _patch(self, owner, attr, repl) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, repl)

    def install(self) -> None:
        for mod_name, fns in SPANS.items():
            mod = _module(mod_name)
            for fn in fns:
                orig = getattr(mod, fn)
                self._rebind_everywhere(orig, self._span(f"{mod_name}.{fn}",
                                                         orig))
        projline = _module("projline")
        self._rebind_everywhere(projline.mobius_from_triples,
                                self._triples(projline.mobius_from_triples))
        field_elem = _module("qfield").FieldElem
        self.originals["mul"] = field_elem.__dict__["__mul__"]
        self.originals["inverse"] = field_elem.__dict__["inverse"]
        for attr in ("__mul__", "__rmul__"):
            self._patch(field_elem, attr,
                        self._mul(field_elem.__dict__[attr], field_elem))
        self._patch(field_elem, "inverse",
                    self._unary("inv", field_elem.__dict__["inverse"],
                                self.inv_samples))
        self._patch(field_elem, "sqrt",
                    self._unary("sqrt", field_elem.__dict__["sqrt"], None))
        mobius = projline.Mobius
        self._patch(mobius, "__init__",
                    self._counted("projline.mobius.new",
                                  mobius.__dict__["__init__"]))
        self._patch(mobius, "compose",
                    self._counted("projline.mobius.compose",
                                  mobius.__dict__["compose"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, orig):
        tracer = self

        def span(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            rec = {"id": len(tracer.spans), "op": tracer.op_id, "name": name,
                   "parent": parent["id"] if parent else None,
                   "parent_name": parent["name"] if parent else None,
                   "child_s": 0.0, "triples": 0}
            tracer.spans.append(rec)
            tracer.stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent["child_s"] += rec["end"] - rec["start"]
            if name == "divisor.compute_aut":
                rec["n"] = args[0].degree
                rec["found"] = result.order
            elif name == "divisor.pgl2_equivalent":
                rec["n"] = args[0].degree
            return result

        return span

    def _triples(self, orig):
        tracer = self

        def mobius_from_triples(*args):
            tracer.counts["projline.mobius_from_triples.calls"] += 1
            if tracer.stack:
                tracer.stack[-1]["triples"] += 1
            return orig(*args)

        return mobius_from_triples

    def _mul(self, orig, field_elem):
        counts, samples = self.counts, self.mul_samples

        def mul(x, other):
            level = x.tower.level
            key = f"qfield.mul.L{level}"
            counts[key] += 1
            if (level in samples and type(other) is field_elem
                    and counts[key] % SAMPLE_STRIDE == 0
                    and len(samples[level]) < SAMPLE_CAP):
                samples[level].append((x, other))
            return orig(x, other)

        return mul

    def _unary(self, tag, orig, samples):
        counts = self.counts

        def unary(x):
            level = x.tower.level
            key = f"qfield.{tag}.L{level}"
            counts[key] += 1
            if (samples is not None and level in samples
                    and counts[key] % SAMPLE_STRIDE == 0
                    and len(samples[level]) < SAMPLE_CAP):
                samples[level].append((x,))
            return orig(x)

        return unary

    def _counted(self, key, orig):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return counted

    # -- results ----------------------------------------------------------------

    def metrics(self, ops: int) -> tuple[dict, dict]:
        """Per-op layer metrics, and the base of each ratio."""
        out: dict = {}
        calls, incl, self_s = Counter(), Counter(), Counter()
        for s in self.spans:
            dur = s["end"] - s["start"]
            calls[s["name"]] += 1
            incl[s["name"]] += dur
            self_s[s["name"]] += dur - s["child_s"]
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / ops, "count")
            out[f"{name}.s"] = (incl[name] / ops, "s")
            out[f"{name}.self_s"] = (self_s[name] / ops, "s")
        for tag in ("mul", "inv", "sqrt"):
            for k in LEVELS:
                key = f"qfield.{tag}.L{k}"
                out[key] = (self.counts[key] / ops, "count")
        for key in ("projline.mobius_from_triples.calls",
                    "projline.mobius.new", "projline.mobius.compose"):
            out[key] = (self.counts[key] / ops, "count")

        aut = [s for s in self.spans if s["name"] == "divisor.compute_aut"]
        eqv = [s for s in self.spans if s["name"] == "divisor.pgl2_equivalent"]
        found = sum(s["found"] for s in aut if "found" in s)
        tried = sum(s["triples"] for s in aut)
        scanned = sum(s["triples"] for s in eqv)
        space = sum(s["n"] * (s["n"] - 1) * (s["n"] - 2)
                    for s in eqv if "n" in s)
        gens = calls["construct.gen_counterexample"]
        draws = sum(1 for s in aut
                    if s["parent_name"] == "construct.gen_counterexample")
        out["divisor.aut_hit_ratio"] = (_ratio(found, tried), "ratio")
        out["divisor.equiv_scan_frac"] = (_ratio(scanned, space), "ratio")
        out["construct.draws"] = (_ratio(draws, gens), "count")
        out["construct.accept_ratio"] = (_ratio(gens, draws), "ratio")
        bases = {
            "divisor.aut_hit_ratio": f"|Aut| {found} / triples {tried}",
            "divisor.equiv_scan_frac":
                f"triples {scanned} / n(n-1)(n-2) {space}",
            "construct.draws": f"draws {draws} / generator calls {gens}",
            "construct.accept_ratio": f"generator calls {gens} / draws {draws}",
        }
        return out, bases

    def unit_costs(self, seed: int, budget_s: float = 0.05) -> tuple[dict, dict]:
        """Microseconds per field mul and inverse at each level, timed with
        the unwrapped methods on operands sampled during the traced ops.
        A level the workload never reached is timed on seeded reference
        operands instead, and reported as such."""
        mul, inv = self.originals["mul"], self.originals["inverse"]
        out, source = {}, {}
        for k in LEVELS:
            for tag, fn, samples in (("mul", mul, self.mul_samples[k]),
                                     ("inv", inv, self.inv_samples[k])):
                source[f"qfield.{tag}_us.L{k}"] = \
                    "sampled" if samples else "reference"
                if not samples:
                    samples = _reference_operands(k, seed, tag)
                out[f"qfield.{tag}_us.L{k}"] = \
                    (_time_per_call(fn, samples, budget_s) * 1e6, "us")
        return out, source

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _time_per_call(fn, samples, budget_s) -> float:
    calls, start = 0, time.perf_counter()
    while True:
        for args in samples:
            fn(*args)
        calls += len(samples)
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / calls


def _reference_operands(level: int, seed: int, tag: str) -> list:
    qfield = _module("qfield")
    tower = qfield.multiquadratic_tower([-1, 2, 3][:level])
    rng = random.Random(f"reference:{level}:{seed}")

    def elem():
        while True:
            e = tower.element([Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                               for _ in range(tower.degree)])
            if not e.is_zero():
                return e

    if tag == "mul":
        return [(elem(), elem()) for _ in range(32)]
    return [(elem(),) for _ in range(32)]
