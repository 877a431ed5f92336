import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extatica
from extatica import bounds
from extatica.cli import MAX_DEGREE, MAX_DEPTH, MAX_NUMBER_CHARS, \
    MAX_TERMS, ParseError, build_parser, main, parse_polynomial, \
    parse_vector_field
from extatica.polyring import PolyRing

from golden_cases import GOLDEN_CASES
from seeded_inputs import random_polynomial

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(args, timeout=300):
    """A child interpreter on `args`, with this checkout's extatica first on
    its path."""
    src = str(pathlib.Path(extatica.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def run_process(argv, timeout=300):
    """`python -m extatica argv` in a child process, so that a traceback
    would show on stderr."""
    return run_python(["-m", "extatica", *argv], timeout=timeout)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0
    assert err == ""
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert out == expected


@pytest.mark.parametrize("name,argv", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_stdout_is_one_json_object(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


@pytest.mark.parametrize("name", ["first_integral_radial",
                                  "first_integral_nonzero"])
def test_first_integral_computes_no_determinant(name, monkeypatch):
    # the module; the package attribute `extatica.extactic` is the function
    # of the same name
    ext = sys.modules["extatica.extactic"]

    def refuse(*args, **kwargs):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(ext, "det_fraction_free", refuse)
    monkeypatch.setattr(ext, "det_modular", refuse)
    code, out, err = run_cli(dict(GOLDEN_CASES)[name])
    assert code == 0 and err == ""
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize("argv,status", [
    (["--vars", "x,y", "--field", "x, y", "--k", "2"], "failed"),
    (["--field-corpus", "planted:2,2,1", "--k", "1"], "extactic-nonzero"),
], ids=["leaf-of-y-over-x", "planted-line"])
def test_first_integral_after_failed_extraction(argv, status, monkeypatch):
    # every probe on x = 0: a leaf of the radial field (integral y/x, no
    # polynomial one), where neither a pair of points nor the interpolated
    # kernel certifies although E = 0, and an invariant line of a planted
    # field, where J is singular although E != 0; the library's determinant
    # decides, and the command computes no extactic of its own
    ext = sys.modules["extatica.extactic"]

    def on_line(rng, nvars):
        return [0] + [rng.randint(-ext._PROBE_RANGE, ext._PROBE_RANGE)
                      for _ in range(nvars - 1)]

    def refuse(*args, **kwargs):
        raise AssertionError("the command called extactic")

    monkeypatch.setattr(ext, "_probe_point", on_line)
    monkeypatch.setattr(sys.modules["extatica.cli"], "extactic", refuse)
    code, out, err = run_cli(["first-integral"] + argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "command": "first-integral", "status": status, "numerator": None,
        "denominator": None, "rank": None}


@pytest.mark.parametrize("flag", [["--engine", "modular"], ["--jobs", "2"]])
def test_first_integral_takes_no_engine_or_jobs(flag):
    # its answer does not depend on either: only `extactic` has them
    with pytest.raises(SystemExit) as exc, \
            contextlib.redirect_stderr(io.StringIO()):
        main(["first-integral", "--vars", "x,y", "--field", "x, y", "--k",
              "1"] + flag)
    assert exc.value.code == 2


def test_parser_is_built_once(monkeypatch):
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _, argv in GOLDEN_CASES + GOLDEN_CASES:
        assert run_cli(argv)[0] == 0
    assert built.count("extatica") == 1


def _flags(**values):
    # "--genus=-1/2": a separate "-1/2" would read as an option
    return [f"--{name.replace('_', '-')}={value}"
            for name, value in values.items() if value is not None]


def _bound_case(formula, draw):
    """(flags, (lhs, rhs, threshold) from the library) for one in-range
    `bound` question."""
    small = st.integers(-20, 20)
    if formula == "pn":
        d, k, n = draw(st.integers(2, 6)), draw(st.integers(1, 6)), \
            draw(st.integers(1, 3))
        count = math.comb(n + k, k) + draw(st.integers(1, 40))
        threshold = bounds.pn_threshold(d, k, n, count)
        return _flags(d=d, k=k, n=n, count=count), (k, threshold, threshold)
    if formula == "gen":
        d, k, count = draw(st.integers(2, 6)), draw(st.integers(1, 8)), \
            draw(st.integers(1, 60))
        genus = draw(st.fractions(-20, 20, max_denominator=4))
        return _flags(d=d, k=k, count=count, genus=genus), (
            2 - 2 * genus, bounds.genus_rhs(d, k, count),
            bounds.genus_threshold(d, k, count))
    if formula == "abelian":
        n, h0 = draw(st.integers(1, 4)), draw(st.integers(0, 20))
        count, deg_f, deg_x = h0 + draw(st.integers(1, 20)), draw(small), \
            draw(st.integers(1, 3))
        deg_d = draw(st.none() | st.integers(0, 40))
        bound = bounds.abelian_bound(h0 * math.factorial(n), n, count, deg_f,
                                     deg_x)
        return _flags(dn=h0 * math.factorial(n), n=n, count=count,
                      deg_f=deg_f, deg_x=deg_x, deg_d=deg_d), (
            deg_d, bound, bound)
    h0 = draw(st.integers(1, 15))
    count = h0 + draw(st.integers(0 if formula == "theorem1" else 1, 20))
    shared = dict(deg_d=draw(st.integers(1, 30)), h0=h0, count=count,
                  deg_f=draw(st.integers(0, 8)), deg_x=draw(st.integers(1, 3)))
    system = dict(h0=h0, n_invariant=count, deg_foliation=shared["deg_f"],
                  deg_variety=shared["deg_x"])
    if formula == "theorem1":
        rep = bounds.invariant_count_check(deg_D=shared["deg_d"], **system)
        threshold = (bounds.poincare_degree_bound(**system) if count > h0
                     else None)
        return _flags(**shared), (rep.lhs, rep.rhs, threshold)
    if formula == "poin":
        bound = bounds.poincare_degree_bound(**system)
        return _flags(**shared), (shared["deg_d"], bound, bound)
    surface = dict(h1=draw(small), h0_k_minus_d=draw(small),
                   k_self=draw(small), k_dot_d=draw(small), chi=draw(small),
                   genus=draw(st.fractions(-20, 20, max_denominator=4)))
    rep = bounds.surface_bound(
        deg_D=shared["deg_d"], **system, h1=surface["h1"],
        h0_k_minus_d=surface["h0_k_minus_d"], k_self=surface["k_self"],
        k_dot_d=surface["k_dot_d"], chi_top=surface["chi"],
        genus=surface["genus"])
    return _flags(**shared, **surface), (rep.lhs, rep.rhs, None)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bound_verdict_is_lhs_above_rhs(data):
    # for all six formulas: the payload holds the library's values, and
    # the verdict forces a first integral exactly when lhs exceeds rhs
    formula = data.draw(st.sampled_from(
        ["theorem1", "poin", "pn", "gen", "cor", "abelian"]))
    flags, values = _bound_case(formula, data.draw)
    code, out, err = run_cli(["bound", formula] + flags)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert list(payload) == ["command", "formula", "lhs", "rhs", "threshold",
                             "verdict"]
    assert (payload["command"], payload["formula"]) == ("bound", formula)
    assert [payload[key] for key in ("lhs", "rhs", "threshold")] == [
        None if v is None else str(Fraction(v)) for v in values]
    lhs, rhs = payload["lhs"], Fraction(payload["rhs"])
    forces = lhs is not None and Fraction(lhs) > rhs
    assert payload["verdict"] == ("forces-first-integral" if forces
                                  else "consistent-with-no-first-integral")


def test_first_integral_of_degree_above_k():
    # E = 0 at k = 1, but the leaves are lines of an elliptic congruence and
    # no pencil of planes over Q holds them: only the minors find the
    # integral, of degree 2
    code, out, err = run_cli([
        "first-integral", "--vars", "x,y,z", "--field",
        "1 + x^2, z + x*y, x*z - y", "--mode", "affine", "--k", "1"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "command": "first-integral", "status": "found",
        "numerator": "x*z - y", "denominator": "y^2 + z^2", "rank": 2}


#: X = (g1 grad f1 - f1 grad g1) x (g2 grad f2 - f2 grad g2) for f1/g1 =
#: (x^2 + yz)/(3xy - 2z^2) and f2/g2 = (5z^2 - 1)/(4yz - 4z^2)
RATIO_FIELD = (
    "-60*x^3*y*z^2 + 80*x^2*z^4 + 60*x*y^2*z^3 - 12*x^3*y + 24*x^3*z "
    "- 16*x^2*z^2 - 12*x*y^2*z - 16*y*z^3 + 16*z^4, "
    "-60*x^2*y^2*z^2 + 80*x*y*z^4 + 60*y^3*z^3 - 12*x^2*y^2 + 24*x^2*y*z "
    "+ 16*x*y*z^2 - 32*x*z^3 + 12*y^3*z - 24*y^2*z^2, "
    "-60*x^2*y*z^3 + 80*x*z^5 + 60*y^2*z^4 + 12*x^2*y*z - 16*x*z^3 "
    "- 12*y^2*z^2")


@pytest.mark.parametrize("command", ["first-integral", "extactic"])
def test_two_pencils_of_degree_2_are_decided_in_seconds(command):
    # two independent integrals of degree 2 at k = 2 (m = 10): no pair of
    # points certifies, the interpolated integral does, and the extactic
    # needs no determinant, whose grid would exceed the memory guard
    start = time.perf_counter()
    code, out, err = run_cli([
        command, "--vars", "x,y,z", "--field", RATIO_FIELD,
        "--mode", "affine", "--k", "2"])
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    answer = json.loads(out)
    if command == "extactic":
        assert answer["identically_zero"] is True
        return
    assert answer["status"] == "found"
    ring = PolyRing(("x", "y", "z"))
    num, den = (parse_polynomial(answer[key], ring)
                for key in ("numerator", "denominator"))
    assert max(num.degree(), den.degree()) == 2


def test_zero_extactic_is_certified_without_a_grid():
    # z/y is a first integral of degree 1, so E = 0 is certified; the
    # modular engine's grid for this jet would exceed the memory guard
    code, out, err = run_cli([
        "extactic", "--vars", "x,y,z", "--field", "x^21*y^21*z^21, y, z",
        "--mode", "affine", "--k", "2", "--engine", "modular"])
    assert code == 0 and err == ""
    answer = json.loads(out)
    assert answer["identically_zero"] and answer["extactic"] == "0"


class TestParser:
    def test_slv_component(self):
        ring = PolyRing(("x", "y", "z"))
        p = parse_polynomial("x*(1/2*y + z)", ring)
        assert str(p) == "1/2*x*y + x*z"

    def test_difference_of_squares(self):
        ring = PolyRing(("x", "y"))
        assert str(parse_polynomial("x^2 - y^2", ring)) == "x^2 - y^2"

    def test_division_only_by_integer_literal(self):
        ring = PolyRing(("x", "y"))
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x/(y)", ring)
        assert exc.value.column == 3

    def test_y_over_two_sugar(self):
        ring = PolyRing(("x", "y"))
        assert parse_polynomial("y/2", ring) == \
            parse_polynomial("1/2*y", ring)

    def test_zero_denominator(self):
        ring = PolyRing(("x",))
        with pytest.raises(ParseError):
            parse_polynomial("1/0", ring)

    def test_unknown_variable(self):
        ring = PolyRing(("x", "y"))
        with pytest.raises(ParseError):
            parse_polynomial("x + t", ring)

    def test_leading_minus(self):
        ring = PolyRing(("x", "y"))
        assert str(parse_polynomial("-3*x + y", ring)) == "-3*x + y"

    def test_trailing_input(self):
        ring = PolyRing(("x",))
        with pytest.raises(ParseError):
            parse_polynomial("x x", ring)

    def test_vector_field_components(self):
        ring = PolyRing(("x", "y", "z"))
        comps = parse_vector_field(
            "x*(1/2*y + z), y*(2*z + x), z*(y - 3*x)", ring)
        assert len(comps) == 3
        assert str(comps[2]) == "-3*x*z + y*z"

    def test_component_count_mismatch(self):
        ring = PolyRing(("x", "y"))
        with pytest.raises(ParseError):
            parse_vector_field("x", ring)

    def test_degree_cap_itself_parses(self):
        ring = PolyRing(("x", "y"))
        p = parse_polynomial(f"(x+y+1)^{MAX_DEGREE}", ring)
        assert p.degree() == MAX_DEGREE
        assert len(p.terms) == 2145

    def test_depth_cap_itself_parses(self):
        ring = PolyRing(("x", "y"))
        nested = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        assert str(parse_polynomial(nested, ring)) == "x"
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}"
                                             " at line 1, column 101"):
            parse_polynomial(f"({nested})", ring)

    @pytest.mark.parametrize("text,numbers", [
        ("(a+b+c+d+1)^32", "the power 32 of 5 terms, of degree 32, may "
                           "have 58905 terms"),
        ("(a+b+c+d+1)^12*(a+b+c+d+1)^12", "a product of 1820 and 1820 "
                                          "terms of degree 24 may have "
                                          "20475 terms"),
    ])
    def test_term_cap(self, text, numbers):
        # inside the degree cap, but refused before the expansion, because
        # the bound min(|A|*|B|, C(n + deg, n)) exceeds the cap
        ring = PolyRing(("a", "b", "c", "d"))
        start = time.perf_counter()
        with pytest.raises(ParseError,
                           match=f"{numbers}, above the cap of {MAX_TERMS}"):
            parse_polynomial(text, ring)
        assert time.perf_counter() - start < 1.0

    def test_monomial_powers_are_not_refused(self):
        # C(3 + 60, 3) = 39,711 > MAX_TERMS, but z^60 has one term
        ring = PolyRing(("x", "y", "z"))
        assert str(parse_polynomial("z^60 + x^30*y^30", ring)) == \
            "x^30*y^30 + z^60"

    def test_coefficients_up_to_the_print_limit_parse(self):
        # the size rule refuses only what Python could not print; 2^14300
        # (4,305 digits) is refused in test_number_past_the_print_limit_is_2
        ring = PolyRing(("x", "y", "z"))
        assert len(str(parse_polynomial("2^14000", ring))) == 4215
        literal = "7" * MAX_NUMBER_CHARS
        assert str(parse_polynomial(f"{literal}*x*y*z", ring)) == \
            f"{literal}*x*y*z"

    def test_a_bound_just_past_the_print_limit_is_judged_on_the_result(
            self):
        # the bound (10^1075)^4 has 4,301 digits, the largest coefficient
        # 6 * (5 * 10^1074)^4 = 3.75 * 10^4299 only 4,300: the result is
        # formed and printed, as a power and as a product
        ring = PolyRing(("x", "y"))
        c = 625 * 10**4296
        expected = str(ring.from_terms({(4 - i, i): math.comb(4, i) * c
                                        for i in range(5)}))
        base = "(5*10^1074*x+5*10^1074*y)"
        for text in (f"{base}^4", "*".join([base] * 4)):
            assert str(parse_polynomial(text, ring)) == expected
        code, out, _ = run_cli(["parse", "--vars", "x,y", f"{base}^4"])
        assert code == 0 and json.loads(out)["canonical"] == expected

    def test_digits_are_those_int_reads(self):
        # Arabic-Indic three is a decimal digit; superscript two is not
        ring = PolyRing(("x",))
        assert str(parse_polynomial("x^\u0663 + \u0663", ring)) == "x^3 + 3"
        for text in ("x+\u00b2", "x^\u00b2"):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(text, ring)
            assert (exc.value.line, exc.value.column) == (1, 3)


def test_round_trip_500_random():
    ring = PolyRing(("x", "y", "z"))
    for trial in range(500):
        p = random_polynomial(3, 4, 9000 + trial)
        assert parse_polynomial(str(p), ring) == p
    assert parse_polynomial("0", ring).is_zero()


def test_parser_never_crashes_on_garbage():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    ring = PolyRing(("x", "y"))

    # powers with every digit, since the size rule bounds their
    # coefficients too, and characters that isdigit, isidentifier or int
    # read differently: superscript two, Arabic-Indic three, the middle dot
    # and a combining acute accent
    @given(st.text(alphabet="xyz0123456789/ *()+-,._q^\u00b2\u0663\u00b7"
                            "\u0301", max_size=24))
    @settings(max_examples=300, deadline=None)
    def check(text):
        try:
            parse_polynomial(text, ring)
        except ParseError:  # any other exception fails the test
            pass

    check()


def test_numpy_loads_only_for_a_modular_determinant():
    # a fresh interpreter: this one has imported numpy for other tests
    cases = dict(GOLDEN_CASES)
    script = f"""
import contextlib, io, sys
import extatica, extatica.cli
def loaded_after(name):
    with contextlib.redirect_stdout(io.StringIO()):
        assert extatica.cli.main({cases!r}[name]) == 0
    return "numpy" in sys.modules
assert "numpy" not in sys.modules
assert not loaded_after("bound_pn")
assert "extatica.modular" not in sys.modules
assert not loaded_after("first_integral_radial")  # certifies, status found
assert "extatica.modular" not in sys.modules
assert not loaded_after("extactic_slv1_k1")  # m = 3, nonzero, Bareiss
assert loaded_after("extactic_slv1_k2_modular")
"""
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_parse_error_is_2(self):
        code, out, err = run_cli(["parse", "--vars", "x,y", "x +* y"])
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    def test_malformed_field_is_2(self):
        code, _, err = run_cli(["extactic", "--vars", "x,y", "--field",
                                "x/(y), y", "--k", "1"])
        assert code == 2 and json.loads(err)["error"]

    def test_unknown_corpus_selector_is_2(self):
        code, _, err = run_cli(["corpus", "nothing:1"])
        assert code == 2

    def test_missing_field_source_is_2(self):
        code, _, err = run_cli(["extactic", "--vars", "x,y", "--k", "1"])
        assert code == 2 and "field" in json.loads(err)["error"]

    def test_zero_field_is_2(self):
        # both commands refuse it up front, with the same error line
        errors = set()
        for command in ("extactic", "first-integral"):
            proc = run_process([command, "--vars", "x,y", "--field", "0,0",
                                "--k", "1"])
            assert proc.returncode == 2 and proc.stdout == ""
            assert "Traceback" not in proc.stderr
            errors.add(proc.stderr)
        assert [json.loads(e) for e in errors] == [
            {"error": "zero field presents no foliation"}]

    @pytest.mark.parametrize("argv,error", [
        (["corpus", "random:100,30,1"], "terms, above the cap"),
        (["extactic", "--field-corpus", "random:9,9,1", "--k", "1"],
         "terms, above the cap"),
        (["corpus", "planted:9,9,1"], "terms, above the cap"),
        (["corpus", "random:2,65,1"], "degree 65 exceeds the cap"),
        (["bound", "pn", "--d", "2", "--k", "3000000", "--n", "3000000",
          "--count", "7"], "C(n+k, k) would have more than"),
        (["bound", "pn", "--d", "2", "--k", "0", "--n", "2", "--count", "7"],
         "need k >= 1 and n >= 1"),
        (["bound", "abelian", "--dn", "4", "--n", "-1", "--count", "9",
          "--deg-f", "2", "--deg-x", "1"], "need n >= 1"),
        (["bound", "abelian", "--dn", "4", "--n", "1000000", "--count", "9",
          "--deg-f", "2", "--deg-x", "1"], "n! would have more than"),
        (["extactic", "--field-corpus", "slv:1", "--k", "1", "--jobs", "0"],
         "jobs must be at least 1"),
    ], ids=["corpus-random", "extactic-random", "corpus-planted",
            "corpus-degree", "pn-huge", "pn-k0", "abelian-n-negative",
            "abelian-huge", "jobs-0"])
    def test_oversized_or_invalid_input_is_2(self, argv, error):
        # refused before the work: each of the first two ran for over 30 s
        # when the selectors had no cap
        proc = run_process(argv, timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and error in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("command", [["parse", "--vars", "x"],
                                         ["extactic", "--vars", "x,y",
                                          "--k", "1", "--field"]],
                             ids=["parse", "field"])
    def test_deep_nesting_is_2(self, command):
        # 300 levels of parentheses ended in a RecursionError traceback
        # before the depth cap
        nested = "(" * 10_000 + "x" + ")" * 10_000
        argv = command + [nested if command[0] == "parse" else nested + ", y"]
        proc = run_process(argv, timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and f"nested deeper than {MAX_DEPTH}" in \
            json.loads(lines[0])["error"]

    @pytest.mark.parametrize("argv,error", [
        (["corpus", "planted:2,1"],
         "expected planted:n,d,seed with three integers, not 'planted:2,1'"),
        (["corpus", "random:2,2"],
         "expected random:n,d,seed with three integers, not 'random:2,2'"),
        (["bound", "gen", "--d", "2", "--k", "1", "--count", "1", "--genus",
          "1/0"], "--genus '1/0' has a zero denominator"),
        (["bound", "abelian", "--dn", "-2", "--n", "2", "--count", "4",
          "--deg-f", "3", "--deg-x", "1"], "need D^n >= 0 (got -2)"),
        (["corpus", "slv:abc"],
         "expected slv:L with a positive integer L, not 'slv:abc'"),
        (["corpus", "slv:"],
         "expected slv:L with a positive integer L, not 'slv:'"),
        (["parse", "--vars", "x\u00b7y", "x\u00b7y"],
         "bad variable list 'x\u00b7y'"),
        (["parse", "--vars", "x\u0301", "x"], "bad variable list 'x\u0301'"),
        (["EXTATICA_MAX_DIM=abc", "extactic", "--vars", "x,y", "--field",
          "x, 2*y", "--k", "1"],
         "expected EXTATICA_MAX_DIM=N with an integer N, not 'abc'"),
    ], ids=["planted-two-numbers", "random-two-numbers", "genus-1/0",
            "abelian-negative-dn", "slv-abc", "slv-empty", "vars-middle-dot",
            "vars-combining-accent", "max-dim-abc"])
    def test_malformed_selector_or_genus_names_the_form(self, argv, error,
                                                        monkeypatch):
        # these printed Python's own messages: "not enough values to unpack
        # (expected 3, got 2)", "Fraction(1, 0)", "n must be a non-negative
        # integer" (from C(D^n/n!, 2)) and "invalid literal for int() with
        # base 10"; the two variable lists passed str.isidentifier and
        # failed only in the scanner ("unexpected character '\u00b7'")
        if argv[0].startswith("EXTATICA_MAX_DIM="):
            monkeypatch.setenv(*argv.pop(0).split("=", 1))
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": error}

    @pytest.mark.parametrize("argv,error", [
        (["bound", "gen", "--d", "2", "--k", "1" + "0" * 2000, "--count", "1",
          "--genus", "0"], "rhs would have more than 4300 digits"),
        (["bound", "theorem1", "--deg-d", "1", "--h0", "9" * 2201, "--count",
          "3", "--deg-f", "3"], "rhs would have more than 4300 digits"),
        (["bound", "poin", "--deg-d", "1", "--h0", "9" * 2201, "--count",
          "1" + "0" * 2201, "--deg-f", "3"],
         "rhs would have more than 4300 digits"),
        (["bound", "cor", "--deg-d", "1", "--h0", "9" * 2201, "--count", "3",
          "--deg-f", "3", "--h1", "0", "--h0-k-minus-d", "0", "--k-self", "9",
          "--k-dot-d", "-3", "--chi", "3", "--genus", "0"],
         "rhs would have more than 4300 digits"),
        (["parse", "--vars", "x", "x + " + "7" * 5000],
         f"a literal of 5000 digits exceeds the cap of {MAX_NUMBER_CHARS} "
         f"at line 1, column 5"),
        (["parse", "--vars", "x", "7^9999999"],
         "the power 9999999 of 1 terms, of degree 0, may have a coefficient "
         "of more than 4300 digits at line 1, column 3"),
        (["parse", "--vars", "x", "2^20000"],
         "the power 20000 of 1 terms, of degree 0, may have a coefficient of "
         "more than 4300 digits at line 1, column 3"),
        (["parse", "--vars", "x", "2^14300"],
         "the power 14300 of 1 terms, of degree 0, may have a coefficient of "
         "more than 4300 digits at line 1, column 3"),
        (["parse", "--vars", "x", f"({'7' * 1000}*x)^5"],
         "the power 5 of 1 terms, of degree 5, may have a coefficient of "
         "more than 4300 digits at line 1, column 1006"),
        (["parse", "--vars", "x", "*".join(["7" * 1000] * 5)],
         "a product of 1 and 1 terms of degree 0 may have a coefficient of "
         "more than 4300 digits at line 1, column 4004"),
        (["parse", "--vars", "x", "9^4506+9^4506"],  # 4,300 digits each
         "a coefficient has more than 4300 digits at line 1, column 14"),
        (["extactic", "--vars", "x,y,z", "--mode", "affine", "--field",
          ", ".join(f"{'9' * 1000}*{a}^2+{b}" for a, b in ("xy", "yz", "zx")),
          "--k", "1"], "extactic would have more than 4300 digits"),
    ], ids=["gen", "theorem1", "poin", "cor", "parse", "parse-7^9999999",
            "parse-2^20000", "parse-2^14300", "parse-literal^5",
            "parse-literal-product", "parse-sum", "extactic"])
    def test_number_past_the_print_limit_is_2(self, argv, error):
        # each printed "Exceeds the limit (4300 digits) for integer string
        # conversion; use sys.set_int_max_str_digits() to increase the
        # limit", after 17 s for 7^9999999; the extactic (m = 4, Bareiss,
        # no height bound) only once it had been computed
        start = time.perf_counter()
        code, out, err = run_cli(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": error}
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("selector", ["random:2,2,7", "random:3,2,1",
                                          "planted:2,2,1"])
    def test_small_generated_fields_are_accepted(self, selector):
        code, out, err = run_cli(["corpus", selector])
        assert code == 0 and err == ""
        assert json.loads(out)["name"] == selector

    def test_hypothesis_not_met_is_3(self):
        code, _, err = run_cli(["bound", "pn", "--d", "2", "--k", "2",
                                "--n", "2", "--count", "3"])
        assert code == 3 and "n_invariant" in json.loads(err)["error"]

    def test_dimension_guard_is_4(self):
        code, _, err = run_cli(["extactic", "--vars", "x,y", "--field",
                                "x, 2*y", "--k", "6"])
        assert code == 4 and "guard" in json.loads(err)["error"]

    @pytest.mark.parametrize("text", ["(x+y+1)^100000",
                                      "(x+y+1)^40*(x+y+1)^40"])
    def test_degree_cap_is_2(self, text):
        code, out, err = run_cli(["parse", "--vars", "x,y", text])
        assert code == 2 and out == ""
        assert "degree" in json.loads(err)["error"]

    def test_term_cap_is_2(self):
        proc = run_process(["parse", "--vars", "a,b,c,d", "(a+b+c+d+1)^32"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "58905 terms" in json.loads(
            lines[0])["error"]

    def test_prime_table_exhaustion_is_4(self):
        # m = 21 is inside the dimension guard, but the height bound needs
        # more bits than the prime table covers
        proc = run_process(["extactic", "--field-corpus", "random:2,2,7",
                            "--k", "5"])
        assert proc.returncode == 4 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "bits" in json.loads(lines[0])["error"]

    def test_grid_memory_guard_is_4(self):
        # m = 10 is inside the dimension guard, but the modular engine's
        # value tensor would need about 628 GiB; refused before any prime.
        # The field has no first integral of degree <= 2, so the probe
        # finds E != 0 and the determinant is attempted.
        proc = run_process(["extactic", "--vars", "x,y,z", "--field",
                            "x^21*y^21*z^21, y + x, z", "--mode", "affine",
                            "--k", "2", "--engine", "modular"])
        assert proc.returncode == 4 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "bytes" in json.loads(lines[0])["error"]

    def test_failed_consistency_check_is_5(self, monkeypatch):
        from extatica import modular
        monkeypatch.setattr(modular, "recheck", lambda *args: False)
        code, out, err = run_cli(["extactic", "--field-corpus", "slv:1",
                                  "--k", "2", "--engine", "modular"])
        assert code == 5 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "re-check" in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("command", ["extactic", "first-integral"])
    @pytest.mark.parametrize("k,m", [(1500, 1127251), (20000, 200030001)])
    def test_dimension_guard_runs_before_the_system_is_built(self, command,
                                                             k, m):
        # C(2 + k, k) is checked before the monomials are enumerated: the
        # first took 12 s to reach exit 4, the second ended in MemoryError
        start = time.perf_counter()
        proc = run_process([command, "--vars", "x,y", "--field", "x,y",
                            "--k", str(k)], timeout=10)
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 4 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and f"dimension {m} exceeds" in json.loads(
            lines[0])["error"]

    @pytest.mark.parametrize("genus", ["1e10000000", "1E5", "2.5e1",
                                       "1" * 1001])
    def test_genus_in_exponent_form_or_too_long_is_2(self, genus):
        # Fraction("1e10000000") built 10^10000000 for 10 s before exit 2
        start = time.perf_counter()
        proc = run_process(["bound", "gen", "--d", "2", "--k", "1",
                            "--count", "1", "--genus", genus], timeout=10)
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "--genus must be" in json.loads(
            lines[0])["error"]

    @pytest.mark.parametrize("genus,lhs", [("3", "-4"), ("--genus=-1/2", "3"),
                                           ("0.25", "3/2"), ("3.", "-4"),
                                           (".5", "1"), ("1_000", "-1998"),
                                           ("1" * 1000, None)])
    def test_genus_forms_accepted(self, genus, lhs):
        flag = [genus] if genus.startswith("--") else ["--genus", genus]
        code, out, err = run_cli(["bound", "gen", "--d", "2", "--k", "1",
                                  "--count", "1", *flag])
        assert code == 0 and err == ""
        assert lhs is None or json.loads(out)["lhs"] == lhs

    def test_env_override_lifts_guard(self, monkeypatch):
        monkeypatch.setenv("EXTATICA_MAX_DIM", "5")
        code, _, _ = run_cli(["extactic", "--vars", "x,y", "--field",
                              "x, 2*y", "--k", "2"])
        assert code == 4
        monkeypatch.setenv("EXTATICA_MAX_DIM", "6")
        code, out, _ = run_cli(["extactic", "--vars", "x,y", "--field",
                                "x, 2*y", "--k", "2"])
        assert code == 0
        assert json.loads(out)["m"] == 6


class TestModeResolution:
    def test_two_variables_default_affine(self):
        code, out, _ = run_cli(["extactic", "--vars", "x,y", "--field",
                                "x, 2*y", "--k", "1"])
        payload = json.loads(out)
        assert payload["mode"] == "affine" and payload["m"] == 3

    def test_three_variables_default_homogeneous(self):
        code, out, _ = run_cli(["extactic", "--field-corpus", "slv:1",
                                "--k", "1"])
        payload = json.loads(out)
        assert payload["mode"] == "homogeneous" and payload["m"] == 3

    def test_explicit_homogeneous(self):
        code, out, _ = run_cli(["extactic", "--vars", "x,y", "--field",
                                "x, 2*y", "--k", "2", "--mode",
                                "homogeneous"])
        payload = json.loads(out)
        assert payload["mode"] == "homogeneous" and payload["m"] == 3

    def test_vars_mismatch_with_corpus(self):
        code, _, err = run_cli(["extactic", "--vars", "a,b,c",
                                "--field-corpus", "slv:1", "--k", "1"])
        assert code == 2

    def test_engine_echoed(self):
        code, out, _ = run_cli(["extactic", "--vars", "x,y", "--field",
                                "x, 2*y", "--k", "1", "--engine", "modular"])
        assert json.loads(out)["engine"] == "modular"

    def test_output_independent_of_jobs(self):
        argv = ["extactic", "--field-corpus", "slv:1", "--k", "2",
                "--engine", "modular"]
        _, one_worker, _ = run_cli(argv + ["--jobs", "1"])
        _, four_workers, _ = run_cli(argv + ["--jobs", "4"])
        assert one_worker == four_workers


#: sha256 of the standard output of the heavy tier's modular determinants,
#: as the fixed-basis Chinese remaindering of earlier versions printed it.
HEAVY_TIER = [
    (["--field-corpus", "random:2,2,1", "--k", "4"],
     "ad4192fb1a084a94bb0133e7fad58b64b0217ea9c0987806b3c5c11254cfdf41"),
    (["--field-corpus", "random:3,2,1", "--mode", "affine", "--k", "2"],
     "9f3bae63872d9dfaa33f64d030092521b127fa5d26584467705117f49969c039"),
    # homogeneous: the grid drops the last variable
    (["--field-corpus", "slv:1", "--k", "4"],
     "b3ef53a4d6c3829e478d3362160becec57ef4aa2f7ea96969c2f3f5b6fcbcda5"),
]


@pytest.mark.slow
@pytest.mark.parametrize("args,digest", HEAVY_TIER,
                         ids=["random-2-2-1-k4", "random-3-2-1-affine-k2",
                              "slv-1-k4"])
def test_heavy_tier_output_is_bit_identical(args, digest):
    # m = 15 with 25 primes, three grid axes, and m = 15 on a homogeneous
    # jet: a few seconds each
    code, out, err = run_cli(["extactic", *args, "--engine", "modular"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
