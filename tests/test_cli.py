"""JSON round-trips, command dispatch, exit codes, and determinism."""

import importlib
import json
import pkgutil
import shutil
import subprocess
from fractions import Fraction as F

import pytest

import p1moduli
from p1moduli import cli, intmath
from p1moduli.cli import (divisor_json, elem_json, mobius_json,
                          parse_divisor, parse_tower, run, tower_json)
from p1moduli.divisor import Divisor
from p1moduli.projline import Mobius, ProjPoint
from p1moduli.qfield import FieldTower, multiquadratic_tower, tower_extend

QQ = FieldTower()


def fin(tower, value):
    if isinstance(value, (int, F)):
        value = tower.from_rational(F(value))
    return ProjPoint.finite(value)


def rational_payload(*values, infinity=False):
    pts = [[str(F(v))] for v in values]
    if infinity:
        pts.append("infinity")
    return {"tower": [], "points": pts}


def invoke(tmp_path, capsys, command, payload, *flags):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = run([command, "--input", str(path), *flags])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_rational_divisor_round_trip():
    d = Divisor([fin(QQ, v) for v in (0, 1, F(-7, 3))]
                + [ProjPoint.infinity(QQ)])
    blob = divisor_json(d)
    assert parse_divisor(blob, "$") == d
    # canonical bytes: serializing the reparse changes nothing
    assert json.dumps(divisor_json(parse_divisor(blob, "$"))) \
        == json.dumps(blob)


def test_multiquadratic_round_trip():
    t = multiquadratic_tower([2, -3])
    s2 = t.root(0)
    d = Divisor([fin(t, s2 + 1), fin(t, -s2 + 1), fin(t, 4)])
    assert parse_divisor(divisor_json(d), "$") == d


def test_relative_radicand_round_trip():
    # second level adjoins sqrt(3 + sqrt(2)), not a rational radicand
    t1 = multiquadratic_tower([2])
    t2 = tower_extend(t1, t1.root(0) + 3).tower
    blob = tower_json(t2)
    assert parse_tower(blob, "$") == t2
    d = Divisor([fin(t2, t2.root(1)), fin(t2, -t2.root(1)), fin(t2, 1)])
    assert parse_divisor(divisor_json(d), "$") == d


def test_elem_json_prints_each_coordinate():
    t = multiquadratic_tower([-1, 2])
    for coords in ([0, 0, 0, 0], [F(-3, 4), 0, F(5, 6), -2], [F(1, 3)] * 4,
                   [7, F(-1, 2), 0, F(2, 9)], [0, F(-6, 4), 0, 0]):
        e = t.element(coords)
        assert elem_json(e) == [str(c) for c in e.coords]


def test_tower_shorthand_scalars():
    assert parse_tower(["2", 3], "$") == multiquadratic_tower([2, 3])


def test_tower_rejects_square_radicand():
    from p1moduli.errors import SchemaError
    with pytest.raises(SchemaError, match="already a square"):
        parse_tower(["2", "8"], "$")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_triple(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "analyze",
                       rational_payload(0, 1, infinity=True))
    assert code == 0
    assert rep["outcome"] == "DefinedOnP1"
    assert rep["aut"]["order"] == 6
    assert rep["certificate"]["rule"] == "noncyclic"
    assert rep["certificate_checked"] is True


def test_analyze_degree_four(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "analyze",
                       rational_payload(0, 1, 4, infinity=True))
    assert code == 0
    assert rep["outcome"] == "DefinedOnP1"
    assert rep["degree"] == 4


def test_analyze_reports_conic(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "analyze",
                       rational_payload(0, 1, 2, 3, 4, 5))
    assert code == 0
    assert rep["outcome"] == "DefinedOnP1"
    assert rep["compression"]["quotient_degree"] == 2
    assert len(rep["compression"]["conic"]) == 3
    assert rep["certificate"]["kind"] == "p1_model"


def test_analyze_unsupported_base_exit_code(tmp_path, capsys):
    t = multiquadratic_tower([2, 3])
    s2, s3 = t.root(0), t.root(1)
    vals = [s2 * 3, -s2 * 3, s2 / 3, -s2 / 3, s3 + 2, s3 * (-2) + 4]
    d = Divisor([ProjPoint.finite(v) for v in vals])
    code, rep = invoke(tmp_path, capsys, "analyze", divisor_json(d))
    assert code == 3
    assert rep["outcome"] == "UnsupportedBase"
    assert rep["certificate"] is None
    assert not rep["field_of_moduli"]["is_rationals"]
    assert "conic_over_moduli_field" in rep["compression"]


def test_analyze_rejects_zero_denominator(tmp_path, capsys):
    payload = {"tower": [], "points": [["1/0"], ["1"], ["2"]]}
    code, rep = invoke(tmp_path, capsys, "analyze", payload)
    assert code == 2
    assert rep["error"]["code"] == "input"
    assert "points[0]" in rep["error"]["message"]


def test_analyze_rejects_floats(tmp_path, capsys):
    payload = {"tower": [], "points": [[0.5], ["1"], ["2"]]}
    code, rep = invoke(tmp_path, capsys, "analyze", payload)
    assert code == 2
    assert "strings or integers" in rep["error"]["message"]


def test_analyze_rejects_small_degree(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "analyze", rational_payload(0, 1))
    assert code == 2
    assert "three" in rep["error"]["message"]


def test_analyze_rejects_duplicates(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "analyze",
                       rational_payload(0, 1, 1))
    assert code == 2
    assert "distinct" in rep["error"]["message"]


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_equivalence_twisted_pair(tmp_path, capsys):
    d1 = Divisor([fin(QQ, v) for v in (0, 1, 3, 9)])
    m = Mobius.from_rationals(QQ, 2, 1, 1, 1)
    d2 = d1.apply(m)
    payload = {"first": divisor_json(d1), "second": divisor_json(d2)}
    code, rep = invoke(tmp_path, capsys, "equivalence", payload)
    assert code == 0
    assert rep["equivalent"] is True
    entries = [F(c[0]) for row in rep["witness"] for c in row]
    w = Mobius.from_rationals(QQ, *entries)
    assert d1.apply(w) == d2


def test_equivalence_self(tmp_path, capsys):
    blob = divisor_json(Divisor([fin(QQ, v) for v in (0, 1, 5)]))
    code, rep = invoke(tmp_path, capsys, "equivalence",
                       {"first": blob, "second": blob})
    assert code == 0
    assert rep["equivalent"] is True


def test_equivalence_different_degrees(tmp_path, capsys):
    payload = {"first": rational_payload(0, 1, 2),
               "second": rational_payload(0, 1, 2, 3)}
    code, rep = invoke(tmp_path, capsys, "equivalence", payload)
    assert code == 0
    assert rep["equivalent"] is False
    assert rep["witness"] is None


def test_equivalence_two_points(tmp_path, capsys):
    # z -> 3z + 2 maps {0, 1} onto {2, 5}; below three points any two
    # divisors of equal degree are equivalent
    payload = {"first": rational_payload(0, 1),
               "second": rational_payload(2, 5)}
    code, rep = invoke(tmp_path, capsys, "equivalence", payload)
    assert code == 0
    assert rep["equivalent"] is True
    entries = [F(c[0]) for row in rep["witness"] for c in row]
    w = Mobius.from_rationals(QQ, *entries)
    d1 = Divisor([fin(QQ, v) for v in (0, 1)])
    assert d1.apply(w) == Divisor([fin(QQ, v) for v in (2, 5)])


def test_equivalence_tower_mismatch(tmp_path, capsys):
    t = multiquadratic_tower([2])
    d2 = Divisor([fin(t, v) for v in (0, 1, 2)])
    payload = {"first": rational_payload(0, 1, 2),
               "second": divisor_json(d2)}
    code, rep = invoke(tmp_path, capsys, "equivalence", payload)
    assert code == 2
    assert rep["error"]["message"] == "$.second.tower: towers do not match"
    # the second divisor's points are still read before the towers are
    # compared
    payload["second"]["points"].append(payload["second"]["points"][0])
    code, rep = invoke(tmp_path, capsys, "equivalence", payload)
    assert code == 2
    assert rep["error"]["message"].startswith("$.second.points: ")


def test_equivalence_searches_split_primes_of_one_tower(tmp_path, capsys,
                                                        monkeypatch):
    # the second divisor's points are parsed into the first's tower
    # object, so a request finds each split prime once
    t = multiquadratic_tower([-1, 2])
    i, r = t.root(0), t.root(1)
    d1 = Divisor([fin(t, v) for v in (0, 1, 3, i, r, i + r, 2 * i - r)])
    d2 = d1.apply(Mobius.from_rationals(t, 2, 1, 1, 1))
    searched = []
    split_prime = FieldTower.split_prime

    def watched(self, k=0):
        searched.append(self)
        return split_prime(self, k)

    monkeypatch.setattr(FieldTower, "split_prime", watched)
    payload = {"first": divisor_json(d1), "second": divisor_json(d2)}
    code, rep = invoke(tmp_path, capsys, "equivalence", payload)
    assert code == 0 and rep["equivalent"] is True
    assert len(searched) >= 2 and len(set(map(id, searched))) == 1
    assert searched[0] == t and searched[0] is not t


# ---------------------------------------------------------------------------
# conic
# ---------------------------------------------------------------------------

def test_conic_sum_of_squares(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "conic",
                       {"diagonal": ["1", "1", "1"]})
    assert code == 0
    assert rep["solvable"] is False
    places = {e["place"] for e in rep["failing"]}
    assert places == {"infinity", 2}


def test_conic_solvable_with_point(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "conic",
                       {"diagonal": ["1", "-2", "-1"]})
    assert code == 0
    assert rep["solvable"] is True
    x, y, z = (F(v) for v in rep["point"])
    assert x * x - 2 * y * y - z * z == 0
    assert (x, y, z) != (0, 0, 0)


def test_conic_rejects_singular(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "conic",
                       {"diagonal": ["1", "0", "-1"]})
    assert code == 2


def test_conic_rejects_asymmetric_gram(tmp_path, capsys):
    gram = [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    code, rep = invoke(tmp_path, capsys, "conic", {"gram": gram})
    assert code == 2
    assert "symmetric" in rep["error"]["message"]


# ---------------------------------------------------------------------------
# counterexample and hyperelliptic
# ---------------------------------------------------------------------------

def test_counterexample_report(tmp_path, capsys):
    payload = {"a": -1, "b": -1, "n": 8, "seed": 1}
    code, rep = invoke(tmp_path, capsys, "counterexample", payload)
    assert code == 0
    assert rep["verdict"]["outcome"] == "NotDefined"
    assert rep["verdict"]["degree"] == 8
    assert rep["verdict"]["field_of_moduli"]["is_rationals"] is True
    assert rep["symbol"] == ["-1", "-1"]
    assert len(rep["sections"]) == 2
    assert rep["verdict"]["certificate"]["kind"] == "obstruction"


def test_counterexample_byte_determinism(tmp_path, capsys):
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"a": -1, "b": -1, "n": 8, "seed": 1}))
    assert run(["counterexample", "--input", str(path)]) == 0
    first = capsys.readouterr().out
    assert run(["counterexample", "--input", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_counterexample_split_symbol(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "counterexample",
                       {"a": 1, "b": 5, "n": 8})
    assert code == 2
    assert "split" in rep["error"]["message"]


def test_counterexample_odd_degree(tmp_path, capsys):
    code, rep = invoke(tmp_path, capsys, "counterexample",
                       {"a": -1, "b": -1, "n": 9})
    assert code == 2


def test_seed_flag_overrides_payload(tmp_path, capsys):
    payload = {"a": -1, "b": -1, "n": 8, "seed": 7}
    code, rep = invoke(tmp_path, capsys, "counterexample", payload,
                       "--seed", "1")
    assert code == 0
    assert rep["seed"] == 1


def test_hyperelliptic_genus_two(tmp_path, capsys):
    payload = {"branch": rational_payload(0, 1, 2, 3, 4, 5)}
    code, rep = invoke(tmp_path, capsys, "hyperelliptic", payload)
    assert code == 0
    assert rep["genus"] == 2
    assert rep["branch_degree"] == 6
    assert "does not decide" in rep["note"]


def test_hyperelliptic_too_few_points(tmp_path, capsys):
    payload = {"branch": rational_payload(0, 1, 2, 3)}
    code, rep = invoke(tmp_path, capsys, "hyperelliptic", payload)
    assert code == 2


# ---------------------------------------------------------------------------
# transport and formatting
# ---------------------------------------------------------------------------

def factorint_modules():
    """Every p1moduli module that has a factorint attribute."""
    modules = [importlib.import_module(f"p1moduli.{info.name}")
               for info in pkgutil.iter_modules(p1moduli.__path__)]
    return [m for m in modules if hasattr(m, "factorint")]


@pytest.mark.parametrize("command, payload", [
    ("analyze", rational_payload(0, 1, 2, 3, 4, 5)),
    ("conic", {"diagonal": ["1", "1", "-2"]}),
    ("counterexample", {"a": -1, "b": -1, "n": 8, "seed": 1}),
    ("hyperelliptic", {"branch": rational_payload(0, 1, 2, 3, 4, 5)}),
])
def test_factor_bound_reaches_every_factorization(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  payload):
    seen = []
    real = intmath.factorint

    def spy(n):
        seen.append(intmath.trial_bound.get())
        return real(n)

    # derived, so a module that starts or stops factorising is not missed
    for module in factorint_modules():
        monkeypatch.setattr(module, "factorint", spy)
    code, default = invoke(tmp_path, capsys, command, payload)
    assert code == 0 and seen and set(seen) == {intmath.TRIAL_BOUND}
    seen.clear()
    code, bounded = invoke(tmp_path, capsys, command, payload,
                           "--factor-bound", "50")
    assert code == 0 and seen and set(seen) == {50}
    # trial division only bounds effort: the report is the same, and the
    # bound ends with the request
    assert bounded == default
    assert intmath.trial_bound.get() == intmath.TRIAL_BOUND


def test_missing_file(tmp_path, capsys):
    code = run(["analyze", "--input", str(tmp_path / "absent.json")])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep["error"]["code"] == "input"


def test_invalid_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"points": [,]}')
    code = run(["analyze", "--input", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "line 1" in rep["error"]["message"]


def test_stdin_payload(capsys, monkeypatch):
    import io
    blob = json.dumps(rational_payload(0, 1, infinity=True))
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code = run(["analyze", "--input", "-"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["outcome"] == "DefinedOnP1"


def test_stray_value_error_is_internal(tmp_path, capsys, monkeypatch):
    # parsing raises SchemaError; a ValueError past it is a program fault
    def broken(d):
        raise ValueError("misuse inside the pipeline")

    monkeypatch.setattr(cli, "decide", broken)
    code, rep = invoke(tmp_path, capsys, "analyze",
                       rational_payload(0, 1, 2, 3))
    assert code == 4
    assert rep["error"]["code"] == "internal"
    assert "misuse" in rep["error"]["message"]


def test_pretty_and_compact_agree(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(rational_payload(0, 1, 2, infinity=True)))
    assert run(["analyze", "--input", str(path)]) == 0
    compact = capsys.readouterr().out
    assert run(["analyze", "--input", str(path), "--pretty"]) == 0
    pretty = capsys.readouterr().out
    assert compact.count("\n") == 1
    assert pretty.count("\n") > 1
    assert json.loads(compact) == json.loads(pretty)


def test_mutually_exclusive_format_flags(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(rational_payload(0, 1, 2)))
    with pytest.raises(SystemExit):
        run(["analyze", "--input", str(path), "--json", "--pretty"])


def test_main_exits_with_the_run_code(tmp_path, capsys, monkeypatch):
    # the console script calls main(), which reads sys.argv
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"diagonal": ["1", "1", "1"]}))
    monkeypatch.setattr("sys.argv", ["p1moduli", "conic", "--input",
                                     str(path)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["solvable"] is False


@pytest.mark.skipif(shutil.which("p1moduli") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(rational_payload(0, 1, infinity=True)))
    proc = subprocess.run(["p1moduli", "analyze", "--input", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"] == "DefinedOnP1"
