"""The checks catch wrong answers: each is fed a right answer, which must
pass, and a perturbed one, which must fail.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import Checker  # noqa: E402

X = workloads.extatica()


def record(call):
    rec = call.record(call.run())
    rec.update(label=call.label, kind=call.kind)
    return rec


def planted_record():
    ring = X.PolyRing(("x", "y"))
    x, y = ring.variables()
    field = X.VectorField((x * (x - 2 * y + 3), y * (3 * x + y - 1)),
                          X.AFFINE)
    return record(workloads._extactic_call(X, "planted", field, 2,
                                           lines=(0, 1)))


def pencil_record():
    ring = X.PolyRing(("x", "y"))
    x, y = ring.variables()
    field = X.pencil_field(x * x + 2 * y - 1, x + 3 * y).field
    return record(workloads._first_integral_call(X, "vanishing", field, 2))


def cli_record(argv):
    return record(workloads._cli_call(X, "cli", argv))


def test_right_answers_pass():
    checker = Checker(7)
    assert checker.check(planted_record()) == []
    rec = pencil_record()
    assert rec["identically_zero"] and rec["numerator"] is not None
    assert checker.check(rec) == []


def test_changed_coefficient_of_E_fails():
    rec = planted_record()
    bad = copy.deepcopy(rec)
    exps, coeff = bad["E"][0]
    bad["E"][0] = [exps, str(Fraction(coeff) + 1)]
    assert Checker(7).check(bad)


def test_planted_factor_divided_out_fails():
    rec = planted_record()
    bad = copy.deepcopy(rec)
    bad["E"] = [[[e[0] - 1, e[1]], c] for e, c in bad["E"]]
    bad["degree"] -= 1
    fails = Checker(7).check(bad)
    assert any("differs from det" in f for f in fails)


def test_non_integral_pair_fails():
    rec = pencil_record()
    bad = copy.deepcopy(rec)
    terms = {tuple(e): Fraction(c) for e, c in bad["numerator"]}
    terms[(0, 0)] = terms.get((0, 0), 0) + 1     # A + 1 in place of A
    bad["numerator"] = [[list(e), str(c)] for e, c in terms.items() if c]
    fails = Checker(7).check(bad)
    assert "X(A)*B - A*X(B) != 0" in fails


def test_wrong_cofactor_fails():
    rec = planted_record()
    bad = copy.deepcopy(rec)
    bad["lines"][0]["cofactor"] = bad["lines"][1]["cofactor"]
    assert any("wrong cofactor" in f for f in Checker(7).check(bad))

    rec = cli_record(["invariant-check", "--vars", "x,y", "--field",
                      "x*(x - 2*y + 3), y*(3*x + y - 1)", "--curve", "x"])
    assert Checker(7).check(rec) == []
    out = json.loads(rec["stdout"])
    out["cofactor"] = "3*x + y - 1"
    rec["stdout"] = json.dumps(out)
    assert Checker(7).check(rec) == ["X(f) != K*f"]


def test_flipped_bound_verdict_fails():
    rec = cli_record(["bound", "pn", "--d", "2", "--k", "2", "--n", "2",
                      "--count", "7"])
    assert Checker(7).check(rec) == []
    out = json.loads(rec["stdout"])
    out["verdict"] = "forces-first-integral"
    rec["stdout"] = json.dumps(out)
    assert Checker(7).check(rec)
