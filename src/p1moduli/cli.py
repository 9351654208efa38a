"""Command-line front end with exact JSON input and output.

Every rational number travels as a string, so nothing is ever coerced
through floats, and reports for the same request and seed are byte
identical. Subcommands: analyze, equivalence, conic, counterexample,
hyperelliptic.

Exit codes: 0 report produced, 2 malformed or out-of-contract input,
3 refusal because the field of moduli is a proper extension of Q,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .conic import (INFINITE_PLACE, PlaceEval, TernaryForm, find_point,
                    hasse_solvable)
from .construct import (CounterexampleSpec, gen_counterexample,
                        hyperelliptic_branch_analysis)
from .decide import (UNSUPPORTED_BASE, Certificate, Verdict, decide,
                     verify_certificate)
from .divisor import Divisor, pgl2_equivalent
from .errors import (BadDegree, DegreeTooSmall, FactorizationTooLarge,
                     GenusTooSmall, HypothesesNotMet, InternalInconsistency,
                     NotGalois, P1ModuliError, RetriesExhausted, SchemaError,
                     SingularForm, SplitSymbol, TangentLine, ZeroRadicand)
from .intmath import TRIAL_BOUND, trial_bound
from .moduli import CompressionResult
from .projline import Mobius, ProjPoint
from .qfield import FieldElem, FieldTower, tower_extend

COMMANDS = ("analyze", "equivalence", "conic", "counterexample",
            "hyperelliptic")

# input-contract violations; everything else escalates to exit code 4
_INPUT_ERRORS = (SchemaError, BadDegree, DegreeTooSmall, SplitSymbol,
                 GenusTooSmall, HypothesesNotMet, SingularForm,
                 FactorizationTooLarge, RetriesExhausted, TangentLine,
                 NotGalois, ZeroRadicand)


# ---------------------------------------------------------------------------
# parsing (JSON -> exact objects); every failure names the offending field
# ---------------------------------------------------------------------------

def _frac(obj, path: str) -> Fraction:
    """A rational from a JSON string or integer, never a float."""
    if isinstance(obj, bool) or isinstance(obj, float):
        raise SchemaError(f"{path}: rationals must be strings or integers")
    if not isinstance(obj, (str, int)):
        raise SchemaError(f"{path}: expected a rational, got {obj!r}")
    try:
        return Fraction(str(obj).strip())
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{path}: not a rational: {obj!r}") from None


def _expect(obj, kind, path: str, label: str):
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise SchemaError(f"{path}: expected {label}")
    return obj


def _int(obj, path: str) -> int:
    q = _frac(obj, path)
    if q.denominator != 1:
        raise SchemaError(f"{path}: expected an integer, got {q}")
    return int(q)


def parse_tower(obj, path: str) -> FieldTower:
    """Rebuild a tower level by level.

    Each entry is either a rational radicand or a coordinate vector over
    the tower built so far. Radicands that are already squares are
    rejected rather than silently collapsed, so levels keep their index.
    """
    _expect(obj, list, path, "a list of tower levels")
    t = FieldTower()
    for i, entry in enumerate(obj):
        here = f"{path}[{i}]"
        if isinstance(entry, list):
            if len(entry) != t.degree:
                raise SchemaError(f"{here}: level {i} radicand needs "
                                  f"{t.degree} coordinates")
            elem = t.element([_frac(c, f"{here}[{j}]")
                              for j, c in enumerate(entry)])
        else:
            elem = t.from_rational(_frac(entry, here))
        if elem.is_zero():
            raise SchemaError(f"{here}: radicand is zero")
        res = tower_extend(t, elem)
        if not res.extended:
            raise SchemaError(f"{here}: radicand is already a square "
                              "in the tower")
        t = res.tower
    return t


def parse_elem(tower: FieldTower, obj, path: str) -> FieldElem:
    _expect(obj, list, path, f"a coordinate vector of length {tower.degree}")
    if len(obj) != tower.degree:
        raise SchemaError(f"{path}: expected {tower.degree} coordinates, "
                          f"got {len(obj)}")
    return tower.element([_frac(c, f"{path}[{j}]")
                          for j, c in enumerate(obj)])


def parse_point(tower: FieldTower, obj, path: str) -> ProjPoint:
    if obj == "infinity":
        return ProjPoint.infinity(tower)
    return ProjPoint.finite(parse_elem(tower, obj, path))


def parse_divisor(obj, path: str,
                  like: Optional[FieldTower] = None) -> Divisor:
    """A divisor, in the tower object ``like`` when its tower equals it."""
    d = _expect(obj, dict, path, "a divisor object")
    if "points" not in d:
        raise SchemaError(f"{path}.points: missing")
    tower = parse_tower(d.get("tower", []), f"{path}.tower")
    tower = like if tower == like else tower
    raw = _expect(d["points"], list, f"{path}.points", "a list of points")
    pts = [parse_point(tower, p, f"{path}.points[{i}]")
           for i, p in enumerate(raw)]
    try:
        return Divisor(pts)
    except ValueError as e:
        raise SchemaError(f"{path}.points: {e}") from None


def parse_form(obj, path: str) -> TernaryForm:
    d = _expect(obj, dict, path, "a form object")
    if "diagonal" in d:
        diag = _expect(d["diagonal"], list, f"{path}.diagonal",
                       "three rationals")
        if len(diag) != 3:
            raise SchemaError(f"{path}.diagonal: expected three entries")
        a, b, c = (_frac(v, f"{path}.diagonal[{i}]")
                   for i, v in enumerate(diag))
        return TernaryForm.diagonal(a, b, c)
    if "gram" not in d:
        raise SchemaError(f"{path}: need either gram or diagonal")
    g = _expect(d["gram"], list, f"{path}.gram", "a 3x3 matrix")
    if len(g) != 3 or any(not isinstance(r, list) or len(r) != 3 for r in g):
        raise SchemaError(f"{path}.gram: expected a 3x3 matrix")
    rows = [[_frac(g[i][j], f"{path}.gram[{i}][{j}]") for j in range(3)]
            for i in range(3)]
    try:
        return TernaryForm(rows)
    except ValueError as e:
        raise SchemaError(f"{path}.gram: {e}") from None


# ---------------------------------------------------------------------------
# serialization (exact objects -> JSON-ready values)
# ---------------------------------------------------------------------------

def frac_str(q) -> str:
    return str(Fraction(q))


def tower_json(t: FieldTower) -> list:
    return [[frac_str(c) for c in level] for level in t.rad_coords]


def elem_json(e: FieldElem) -> list:
    return [str(Fraction(v, e.den)) for v in e.num]


def point_json(p: ProjPoint):
    if p.is_infinity():
        return "infinity"
    return elem_json(p.affine())


def divisor_json(d: Divisor) -> dict:
    return {"tower": tower_json(d.tower),
            "points": [point_json(p) for p in d.points]}


def mobius_json(m: Mobius) -> list:
    a, b, c, d = m.entries()
    return [[elem_json(a), elem_json(b)], [elem_json(c), elem_json(d)]]


def form_json(f: TernaryForm) -> list:
    return [[frac_str(v) for v in row] for row in f.gram]


def place_json(place):
    return place if place == INFINITE_PLACE else int(place)


def evals_json(evals: list[PlaceEval]) -> list:
    return [{"place": place_json(e.place), "symbol": e.symbol}
            for e in evals]


def certificate_json(cert: Optional[Certificate]):
    if cert is None:
        return None
    out: dict = {"kind": cert.kind}
    if cert.kind == "fast_path":
        out["rule"] = cert.rule
        return out
    out["conic"] = form_json(cert.conic)
    if cert.kind == "p1_model":
        out["form"] = [frac_str(c) for c in cert.form]
        out["mobius"] = mobius_json(cert.mobius)
        out["point"] = [frac_str(v) for v in cert.point]
    elif cert.kind == "conic_point":
        out["point"] = [frac_str(v) for v in cert.point]
    elif cert.kind == "conic_model":
        out["failing"] = evals_json(cert.failing)
        out["orbit_degrees"] = list(cert.compressed.degrees)
    elif cert.kind == "obstruction":
        out["failing"] = evals_json(cert.failing)
        out["symbols"] = (None if cert.symbols is None else
                          [[frac_str(a), frac_str(b)]
                           for a, b in cert.symbols])
    else:
        raise InternalInconsistency(f"unknown certificate kind {cert.kind}")
    return out


def _compression_json(comp: CompressionResult) -> dict:
    out: dict = {"quotient_degree": comp.m}
    if comp.conic is not None:
        out["conic"] = form_json(comp.conic)
    else:
        out["conic_over_moduli_field"] = [[elem_json(v) for v in row]
                                          for row in comp.conic_gram_fom]
    return out


def verdict_json(v: Verdict, include_divisor: bool = True) -> dict:
    out = {
        "outcome": v.outcome,
        "degree": v.divisor.degree,
        "aut": {"order": v.aut.order, "class": v.aut_class.label()},
        "field_of_moduli": {"tower": tower_json(v.fom),
                            "is_rationals": v.fom.rationals_only()},
        "notes": list(v.notes),
        "certificate": certificate_json(v.certificate),
    }
    if include_divisor:
        out["divisor"] = divisor_json(v.divisor)
    if v.compression is not None:
        out["compression"] = _compression_json(v.compression)
    if v.compressed is not None:
        out["compressed_orbit_degrees"] = list(v.compressed.degrees)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(payload) -> tuple[dict, int]:
    d = parse_divisor(payload, "$")
    if d.degree < 3:
        raise SchemaError("$.points: need at least three points")
    verdict = decide(d)
    check = verify_certificate(d, verdict)
    if not check:
        raise InternalInconsistency(f"certificate self-check: {check.reason}")
    report = verdict_json(verdict)
    report["certificate_checked"] = True
    code = 3 if verdict.outcome == UNSUPPORTED_BASE else 0
    return report, code


def cmd_equivalence(payload) -> tuple[dict, int]:
    obj = _expect(payload, dict, "$", "an object with first and second")
    for key in ("first", "second"):
        if key not in obj:
            raise SchemaError(f"$.{key}: missing")
    d1 = parse_divisor(obj["first"], "$.first")
    d2 = parse_divisor(obj["second"], "$.second", d1.tower)
    if d1.tower != d2.tower:
        raise SchemaError("$.second.tower: towers do not match")
    witness = pgl2_equivalent(d1, d2)
    out: dict = {"equivalent": witness is not None}
    out["witness"] = None if witness is None else mobius_json(witness)
    return out, 0


def cmd_conic(payload) -> tuple[dict, int]:
    f = parse_form(payload, "$")
    solvable, failing = hasse_solvable(f)
    out: dict = {"solvable": solvable, "failing": evals_json(failing),
                 "point": None}
    if solvable:
        point = find_point(f)
        if point is None:
            raise InternalInconsistency("solvable form without a point")
        out["point"] = [frac_str(v) for v in point]
    return out, 0


def cmd_counterexample(payload, seed: Optional[int],
                       max_retries: int) -> tuple[dict, int]:
    obj = _expect(payload, dict, "$", "an object with a, b, n")
    for key in ("a", "b", "n"):
        if key not in obj:
            raise SchemaError(f"$.{key}: missing")
    a = _int(obj["a"], "$.a")
    b = _int(obj["b"], "$.b")
    n = _int(obj["n"], "$.n")
    if seed is None:
        seed = _int(obj.get("seed", 0), "$.seed")
    try:
        spec = CounterexampleSpec(a, b, n, seed)
    except ValueError as e:
        raise SchemaError(f"$: {e}") from None
    data, verdict = gen_counterexample(spec, max_retries=max_retries)
    section_field = data.p[0].tower
    out = {
        "symbol": [frac_str(a), frac_str(b)],
        "requested_degree": n,
        "seed": seed,
        "conic": form_json(data.conic),
        "section_field": tower_json(section_field),
        "ramification_section": {"p": [elem_json(v) for v in data.p],
                                 "pbar": [elem_json(v) for v in data.pbar]},
        "sections": [{"line": [frac_str(v) for v in line],
                      "points": [[elem_json(v) for v in pt] for pt in pair]}
                     for line, pair in data.sections],
        "deck": mobius_json(data.deck),
        "verdict": verdict_json(verdict),
    }
    return out, 0


def cmd_hyperelliptic(payload) -> tuple[dict, int]:
    obj = _expect(payload, dict, "$", "an object with a branch divisor")
    if "branch" not in obj:
        raise SchemaError("$.branch: missing")
    odd = obj.get("odd_infinity", False)
    if not isinstance(odd, bool):
        raise SchemaError("$.odd_infinity: expected true or false")
    branch = parse_divisor(obj["branch"], "$.branch")
    rep = hyperelliptic_branch_analysis(branch, odd_infinity=odd)
    out = {
        "genus": rep.genus,
        "branch_degree": rep.branch_degree,
        "reduced_aut": rep.aut_class.label(),
        "field_of_moduli": {"tower": tower_json(rep.fom),
                            "is_rationals": rep.fom.rationals_only()},
        "note": rep.note,
        "verdict": verdict_json(rep.verdict),
    }
    return out, 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit(obj, pretty: bool) -> None:
    if pretty:
        text = json.dumps(obj, sort_keys=True, indent=2)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _error(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def _load_payload(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="p1moduli",
        description="Descent analysis for point configurations on the "
                    "projective line over quadratic towers of Q.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", required=True, metavar="FILE",
                   help="JSON payload file, or - for stdin")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed in the payload")
    p.add_argument("--max-retries", type=int, default=40,
                   help="rejection-sampling budget for generators")
    p.add_argument("--factor-bound", type=int, default=TRIAL_BOUND,
                   help="trial-division bound of every factorization")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="compact single-line output (default)")
    fmt.add_argument("--pretty", action="store_true",
                     help="indented output")
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    token = trial_bound.set(args.factor_bound)
    try:
        payload = _load_payload(args.input)
        if args.command == "analyze":
            report, code = cmd_analyze(payload)
        elif args.command == "equivalence":
            report, code = cmd_equivalence(payload)
        elif args.command == "conic":
            report, code = cmd_conic(payload)
        elif args.command == "counterexample":
            report, code = cmd_counterexample(payload, args.seed,
                                              args.max_retries)
        else:
            report, code = cmd_hyperelliptic(payload)
    except _INPUT_ERRORS as e:
        _emit(_error("input", str(e)), args.pretty)
        return 2
    except (P1ModuliError, AssertionError, ValueError) as e:
        _emit(_error("internal", f"{type(e).__name__}: {e}"), args.pretty)
        return 4
    finally:
        trial_bound.reset(token)
    _emit(report, args.pretty)
    return code


def main() -> None:
    sys.exit(run())
