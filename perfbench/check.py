"""Per-op correctness checks that need no stored outputs.

``check(op, code, stdout)`` returns None when the report is correct and a
short reason otherwise.  What is checked follows from how the input was
built (see gen.py): exit codes, verdicts known by construction, witnesses
re-applied to the divisors, and conic points substituted into the form.
The program's own parsers rebuild exact objects from the JSON, so the
checks compare exact values, never floats.
"""

from __future__ import annotations

import json
from fractions import Fraction


def check(op, code: int | None, stdout: str):
    want = op.expect.get("code", 0)
    if code is None:
        return "request ran out of time"
    if code != want:
        return f"exit code {code}, expected {want}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    if not isinstance(report, dict):
        return "report is not an object"
    return CHECKS[op.command](op, report)


def _check_analyze(op, report):
    if report.get("certificate_checked") is not True:
        return "certificate_checked missing"
    if report.get("outcome") != op.expect["outcome"]:
        return f"outcome {report.get('outcome')}, expected " \
               f"{op.expect['outcome']}"
    return None


def _check_hyperelliptic(op, report):
    verdict = report.get("verdict") or {}
    if verdict.get("outcome") != op.expect["outcome"]:
        return f"outcome {verdict.get('outcome')}, expected " \
               f"{op.expect['outcome']}"
    total = len(op.payload["branch"]["points"]) \
        + (1 if op.payload.get("odd_infinity") else 0)
    if report.get("genus") != total // 2 - 1:
        return f"genus {report.get('genus')} for {total} branch points"
    return None


def _check_equivalence(op, report):
    from p1moduli.cli import parse_divisor, parse_elem
    from p1moduli.projline import Mobius

    witness = report.get("witness")
    if report.get("equivalent") is not (witness is not None):
        return "equivalent flag and witness disagree"
    if witness is None:
        if op.expect.get("equivalent"):
            return "planted equivalent pair reported inequivalent"
        return None
    first = parse_divisor(op.payload["first"], "first")
    second = parse_divisor(op.payload["second"], "second")
    tower = first.tower
    try:
        entries = [parse_elem(tower, witness[i][j], "witness")
                   for i in (0, 1) for j in (0, 1)]
        m = Mobius(*entries)
    except (ValueError, TypeError, IndexError) as e:
        return f"witness is not a Mobius map: {e}"
    if first.apply(m) != second:
        return "witness does not carry first onto second"
    return None


def _gram(payload):
    if "diagonal" in payload:
        a, b, c = (Fraction(v) for v in payload["diagonal"])
        return [[a, 0, 0], [0, b, 0], [0, 0, c]]
    return [[Fraction(v) for v in row] for row in payload["gram"]]


def form_value(gram, point) -> Fraction:
    return sum(gram[i][j] * point[i] * point[j]
               for i in range(3) for j in range(3))


def _check_conic(op, report):
    gram = _gram(op.payload)
    planted = op.expect.get("planted_point")
    if planted is not None and form_value(gram, [Fraction(v)
                                                 for v in planted]):
        return "planted point is not on the form"
    failing = report.get("failing")
    if not isinstance(failing, list) or len(failing) % 2:
        return "failing places must be an even-length list"
    if not report.get("solvable"):
        if op.expect.get("solvable"):
            return "planted form reported unsolvable"
        if report.get("point") is not None or not failing:
            return "unsolvable form needs failing places and no point"
        return None
    if failing:
        return "solvable form with failing places"
    point = [Fraction(v) for v in report.get("point") or ()]
    if len(point) != 3 or not any(point):
        return "solvable form without a nonzero point"
    if form_value(gram, point):
        return "reported point is not on the form"
    return None


def _check_counterexample(op, report):
    verdict = report.get("verdict") or {}
    if verdict.get("outcome") != "NotDefined":
        return f"outcome {verdict.get('outcome')}, expected NotDefined"
    if (verdict.get("field_of_moduli") or {}).get("is_rationals") is not True:
        return "field of moduli is not Q"
    if report.get("symbol") != op.expect["symbol"]:
        return f"symbol {report.get('symbol')}"
    if report.get("requested_degree") != op.expect["n"]:
        return f"degree {report.get('requested_degree')}"
    return None


CHECKS = {"analyze": _check_analyze, "hyperelliptic": _check_hyperelliptic,
          "equivalence": _check_equivalence, "conic": _check_conic,
          "counterexample": _check_counterexample}
