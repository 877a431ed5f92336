"""Expression parser, command dispatch and JSON output.

Grammar (whitespace insignificant, variables from the declared list)::

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor (('*' factor) | ('/' uint))*
    factor     := atom ('^' uint)*
    atom       := uint | variable | '(' expression ')'
    uint       := digit+                  (at most MAX_NUMBER_CHARS)
    variable   := letter (letter | digit)*   (as is every `--vars` name)

A digit is a decimal digit as `int` reads it (`٣` is 3), a letter any
other word character (`_` and `²` too).  `y/2` is sugar for `1/2*y`;
`x/(y)` is a syntax error.  Parentheses nested deeper than MAX_DEPTH are a
parse error, and so, by one size rule checked before it is formed, is a
product or power whose total degree would exceed MAX_DEGREE, whose
term-count bound exceeds MAX_TERMS, or whose coefficient bound has more
digits than Python prints (`sys.get_int_max_str_digits()`), and so is a
coefficient that long reached by sums or division.  Vector fields are
comma-separated component expressions.

Every command writes exactly one JSON object to stdout and exits 0 once an
answer is produced (whatever the verdict); input and parse errors exit 2,
unmet bound hypotheses exit 3, a size guard tripped (the dimension guard,
the modular engine's grid memory guard, or a height bound beyond the prime
table) exits 4, and an internal consistency check failed (the modular
engine's re-check) exits 5, each with an {"error": ...} object on stderr.
The dimension guard (21) can be lifted with the EXTATICA_MAX_DIM
environment variable.

Each command parses, calls the library once and prints; the parser is built
once per process.  Every `bound` verdict is `bounds.report`'s (forced
exactly when lhs > rhs), and the bounds refuse unprintable binomials and
factorials before computing them.  `_text` refuses any other number or
polynomial too long to print.  `--genus` in exponent form, and `--genus`
or an integer literal above MAX_NUMBER_CHARS, are refused before they are
converted.  The dimension guard runs on C(n + k, k) before a monomial
system is enumerated.  The `random:` and `planted:` corpus selectors obey
MAX_DEGREE and MAX_TERMS.  `first-integral` has no `--engine` or `--jobs`:
its answer depends on neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (BoundReport, HypothesisNotMetError, abelian_bound,
                     genus_rhs, genus_threshold, invariant_count_check,
                     pn_threshold, poincare_degree_bound, report,
                     surface_bound)
from .corpus import (CorpusEntry, hamiltonian, pencil_field,
                     planted_lines_field, random_field, slv)
from .extactic import (ExtacticNotZeroError, ExtractionFailedError,
                       check_dimension, extactic, extract_first_integral,
                       monomial_system, system_dimension)
from .foliation import AFFINE, HOMOGENEOUS, VectorField, check_invariance
from .polyring import (BadPrimeError, ContextError, DimensionGuardError,
                       EngineDisagreementError, PolyRing, Polynomial)

#: Largest total degree a parsed product or power may reach.
MAX_DEGREE = 64

#: Deepest nesting of parentheses parsed: each level costs the recursive
#: descent four frames, well below the interpreter's recursion limit.
MAX_DEPTH = 100

#: Largest term-count bound a parsed product or power may reach.  The
#: degree cap alone does not bound the work with 4 or more variables:
#: (a+b+c+d+1)^32 has 58,905 terms.  (x+y+1)^64 has 2,145.
MAX_TERMS = 10_000

#: Longest `--genus` text and integer literal accepted.  Both are checked,
#: and an exponent form of `--genus` refused, before the conversion:
#: Fraction("1e10000000") would build 10^10000000 first.
MAX_NUMBER_CHARS = 1000


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# scanner / recursive descent parser
# ---------------------------------------------------------------------------

#: A variable name, as the scanner reads it and every `--vars` name must be.
_NAME = re.compile(r"[^\W\d]\w*")

#: One token after optional whitespace: an unsigned integer (the decimal
#: digits int() reads), a name, an operator or any other character.
_TOKEN = re.compile(rf"\s*(?:(?P<number>\d+)|(?P<name>{_NAME.pattern})"
                    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))")


def _position(text: str, index: int) -> tuple:
    """(line, column) of text[index], both 1-based."""
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


def _tokenize(text: str) -> list:
    """(kind, text, index) tuples, an operator its own kind, then "end"."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        token, index = match.group(kind), match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {token!r}",
                             *_position(text, index))
        if kind == "number" and len(token) > MAX_NUMBER_CHARS:
            raise ParseError(f"a literal of {len(token)} digits exceeds the "
                             f"cap of {MAX_NUMBER_CHARS}",
                             *_position(text, index))
        tokens.append((token if kind == "op" else kind, token, index))
    tokens.append(("end", "", len(text)))
    return tokens


def _printable(numbers, power: int = 1, slack: int = 0) -> bool:
    """Whether n^power has at most `slack` digits more than Python prints,
    for every int n in `numbers`.  As 2^(3 limit) < 10^limit < 2^(4 limit),
    a power is formed only when the bit lengths leave its size open."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return True
    limit += slack
    for n in numbers:
        bits = n.bit_length()
        if bits * power > 3 * limit and (
                (bits - 1) * power >= 4 * limit
                or abs(n) ** power >= 10 ** limit):
            return False
    return True


def _measure(poly: Polynomial) -> tuple:
    """(degree, den, height): the total degree (0 for zero), the lcm of the
    denominators, and the sum of |c| * den over the coefficients c."""
    if len(poly.terms) == 1:  # most operands: a term such as c*x^i*y^j
        (exps, c), = poly.terms.items()
        return sum(exps), c.denominator, abs(c.numerator)
    degree, den, height = 0, 1, 0
    for exps, c in poly.terms.items():
        if c.denominator != den:  # rescale what is summed to the new lcm
            lcm = math.lcm(den, c.denominator)
            height, den = height * (lcm // den), lcm
        degree = max(degree, sum(exps))
        height += abs(c.numerator) * (den // c.denominator)
    return degree, den, height


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.tokens = _tokenize(text)[::-1]  # the next token last
        self.ring = ring
        self.depth = 0  # parentheses open around the current position

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, *_position(self.text, index))

    def expect(self, kind: str) -> tuple:
        tok = self.tokens.pop()
        if tok[0] != kind:
            raise self.error(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2])
        return tok

    def parse(self, field: bool) -> list:
        """The whole text: one expression, or a field's components; any
        coefficient printable (a sum or division may grow one too long)."""
        values = [self.parse_expression()]
        while field and self.tokens[-1][0] == ",":
            self.tokens.pop()
            values.append(self.parse_expression())
        kind, token, index = self.tokens[-1]
        if kind != "end":
            raise self.error(f"trailing input {token!r}", index)
        if not _printable(n for v in values for c in v.terms.values()
                          for n in (c.numerator, c.denominator)):
            raise self.error(f"a coefficient has more than "
                             f"{sys.get_int_max_str_digits()} digits", index)
        if field and len(values) != self.ring.nvars:
            raise self.error(f"{len(values)} components for "
                             f"{self.ring.nvars} variables", index)
        return values

    def product(self, index: int, a: Polynomial, b=None,
                n: int = 1) -> Polynomial:
        """a * b, or a^n when b is None, refused before it is formed when
        its total degree would exceed MAX_DEGREE, its term-count bound
        MAX_TERMS, or a coefficient the digits Python prints.  By
        `_measure`, each coefficient of a * b is at most height_a * height_b
        over a divisor of den_a * den_b, and of a^n height_a^n over a
        divisor of den_a^n.  A coefficient bound that overshoots the digits
        Python prints by at most those of MAX_TERMS is cheap to form, so the
        result is formed and its own coefficients judged."""
        degree, den, height = _measure(a)
        if b is not None:
            degree_b, den_b, height_b = _measure(b)
            degree, den, height = (degree + degree_b, den * den_b,
                                   height * height_b)
        degree *= n
        if degree > MAX_DEGREE:
            raise self.error(
                f"total degree {degree} exceeds the cap of {MAX_DEGREE}", index)
        # A^n has at most one term per multiset of n terms of A
        size = len(a.terms)
        terms = (size * len(b.terms) if b is not None
                 else math.comb(size + n - 1, n) if size > 1 else 1)
        if terms > MAX_TERMS:
            terms = min(terms, math.comb(self.ring.nvars + degree, degree))
        if terms > MAX_TERMS:
            reason = f"may have {terms} terms, above the cap of {MAX_TERMS}"
        elif _printable((height, den), n):
            return a ** n if b is None else a * b
        else:
            reason = (f"may have a coefficient of more than "
                      f"{sys.get_int_max_str_digits()} digits")
            if _printable((height, den), n, len(str(MAX_TERMS))):
                value = a ** n if b is None else a * b
                if _printable(m for c in value.terms.values()
                              for m in (c.numerator, c.denominator)):
                    return value
        what = (f"the power {n} of {size} terms, of degree {degree},"
                if b is None else f"a product of {size} and {len(b.terms)} "
                                  f"terms of degree {degree}")
        raise self.error(f"{what} {reason}", index)

    def parse_expression(self) -> Polynomial:
        sign = self.tokens[-1][0]
        if sign in ("+", "-"):
            self.tokens.pop()
        value = self.parse_term()
        if sign == "-":
            value = -value
        while (op := self.tokens[-1][0]) in ("+", "-"):
            self.tokens.pop()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while (op := self.tokens[-1])[0] in ("*", "/"):
            self.tokens.pop()
            if op[0] == "*":
                value = self.product(op[2], value, self.parse_factor())
            else:
                kind, digits, index = self.tokens.pop()
                if kind != "number":
                    raise self.error(
                        "division is only allowed by an integer literal", index)
                if int(digits) == 0:
                    raise self.error("zero denominator", index)
                value = value.scale(Fraction(1, int(digits)))
        return value

    def parse_factor(self) -> Polynomial:
        value = self.parse_atom()
        while self.tokens[-1][0] == "^":
            self.tokens.pop()
            _, digits, index = self.expect("number")
            value = self.product(index, value, n=int(digits))
        return value

    def parse_atom(self) -> Polynomial:
        kind, token, index = self.tokens.pop()
        if kind == "number":
            return self.ring.constant(int(token))
        if kind == "name":
            if token not in self.ring.names:
                raise self.error(f"unknown variable {token!r}", index)
            return self.ring.variable(self.ring.names.index(token))
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_DEPTH}",
                                 index)
            self.depth += 1
            value = self.parse_expression()
            self.depth -= 1
            self.expect(")")
            return value
        raise self.error(f"expected a value, found {token or 'end of input'!r}",
                         index)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse one expression; the whole text must be consumed."""
    return _Parser(text, ring).parse(field=False)[0]


def parse_vector_field(text: str, ring: PolyRing) -> list:
    """Parse a comma-separated component list."""
    return _Parser(text, ring).parse(field=True)


# ---------------------------------------------------------------------------
# command helpers
# ---------------------------------------------------------------------------

def _split_vars(text: str) -> PolyRing:
    names = tuple(v.strip() for v in text.split(","))
    if not all(_NAME.fullmatch(n) for n in names):
        raise ValueError(f"bad variable list {text!r}")
    return PolyRing(names)


def _corpus_entry(selector: str) -> CorpusEntry:
    kind, _, rest = selector.partition(":")
    if kind == "slv":
        try:
            level = int(rest)
        except ValueError:
            raise ValueError(f"expected slv:L with a positive integer L, "
                             f"not {selector!r}") from None
        return slv(level)
    if kind in ("planted", "random"):
        try:
            n, d, seed = (int(v) for v in rest.split(","))
        except ValueError:
            raise ValueError(f"expected {kind}:n,d,seed with three integers, "
                             f"not {selector!r}") from None
        _check_generated_size(n, d)
        if kind == "planted":
            return planted_lines_field(n, d, seed)
        return CorpusEntry(selector, random_field(n, d, seed), ())
    if kind == "hamiltonian":
        ring = PolyRing(("x", "y"))
        return hamiltonian(parse_polynomial(rest, ring))
    if kind == "pencil":
        f_text, _, g_text = rest.partition(":")
        ring = PolyRing(("x", "y"))
        return pencil_field(parse_polynomial(f_text, ring),
                            parse_polynomial(g_text, ring))
    raise ValueError(f"unknown corpus selector {selector!r}")


def _check_generated_size(n: int, d: int) -> None:
    """Refuse, before it is built, a field of n dense components of degree
    d that the parser would refuse: d above MAX_DEGREE, or C(n+d, d) terms
    each, above MAX_TERMS in all.  The generators check negative sizes."""
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} exceeds the cap of {MAX_DEGREE}")
    terms = n * math.comb(n + d, d) if min(n, d) >= 0 else 0
    if terms > MAX_TERMS:
        raise ValueError(f"a field of {n} components of degree {d} may have "
                         f"{terms} terms, above the cap of {MAX_TERMS}")


def _resolve_field(args) -> tuple:
    """(VectorField with mode applied, ring) from --field / --field-corpus."""
    if args.field_corpus:
        field = _corpus_entry(args.field_corpus).field
        if args.vars and _split_vars(args.vars) != field.ring:
            raise ValueError(
                f"--vars {args.vars!r} does not match corpus variables "
                f"{','.join(field.ring.names)!r}")
        if args.mode not in ("auto", field.mode):
            field = VectorField(field.components, args.mode)
        return field, field.ring
    if not args.field:
        raise ValueError("one of --field / --field-corpus is required")
    if not args.vars:
        raise ValueError("--vars is required with --field")
    ring = _split_vars(args.vars)
    comps = parse_vector_field(args.field, ring)
    mode = args.mode
    if mode == "auto":
        # default to a projective reading only when it can present a
        # foliation (3+ variables) and the components allow it
        degs = {c.degree() for c in comps if not c.is_zero()}
        homog = (ring.nvars >= 3
                 and len(degs) == 1
                 and all(c.is_homogeneous() for c in comps)
                 and not all(c.is_zero() for c in comps))
        mode = HOMOGENEOUS if homog else AFFINE
    return VectorField(tuple(comps), mode), ring


def _field_and_system(args) -> tuple:
    """(field, ring, complete monomial system of degree --k) for it; the
    dimension guard runs before the system's monomials are enumerated."""
    field, ring = _resolve_field(args)
    check_dimension(system_dimension(ring.nvars, args.k, field.mode),
                    _max_dim())
    system = monomial_system(ring.nvars, args.k, field.mode, names=ring.names)
    return field, ring, system


def _max_dim() -> Optional[int]:
    raw = os.environ.get("EXTATICA_MAX_DIM")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise ValueError(f"expected EXTATICA_MAX_DIM=N with an integer N, "
                         f"not {raw!r}") from None


def _text(what: str, value) -> Optional[str]:
    """`value` (None, a rational, a polynomial or a vector field) as text,
    refused when a coefficient has more digits than Python prints."""
    if value is None:
        return None
    if isinstance(value, (int, Fraction)):
        rationals = [value]
    else:  # a polynomial, or a vector field of them
        rationals = [c for p in getattr(value, "components", [value])
                     for c in p.terms.values()]
    if not _printable(n for r in rationals
                      for n in (r.numerator, r.denominator)):
        raise ValueError(f"{what} would have more than "
                         f"{sys.get_int_max_str_digits()} digits")
    return str(value)


def _genus(text: str) -> Fraction:
    """`--genus` as a Fraction: any form `Fraction` reads but an exponent
    (an integer, p/q or a decimal), of at most MAX_NUMBER_CHARS
    characters; anything else, or a zero denominator, is a ValueError."""
    if len(text) > MAX_NUMBER_CHARS or "e" in text.lower():
        raise ValueError(
            f"--genus must be an integer, p/q or a decimal of at most "
            f"{MAX_NUMBER_CHARS} characters, not {text[:40]!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--genus {text!r} has a zero denominator") from None


def _emit(payload: dict) -> int:
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    ring = _split_vars(args.vars)
    poly = parse_polynomial(args.text, ring)
    return _emit({
        "command": "parse",
        "vars": ",".join(ring.names),
        "input": args.text,
        "canonical": _text("canonical", poly),
    })


def _cmd_extactic(args) -> int:
    field, ring, system = _field_and_system(args)
    ext = extactic(field, system, engine=args.engine, max_dim=_max_dim(),
                   jobs=args.jobs)
    return _emit({
        "command": "extactic",
        "vars": ",".join(ring.names),
        "field": _text("field", field),
        "mode": field.mode,
        "k": args.k,
        "m": ext.dimension,
        "engine": ext.engine,
        "extactic": _text("extactic", ext.extactic),
        "degree": None if ext.identically_zero else int(ext.degree),
        "degree_bound": ext.degree_bound,
        "identically_zero": ext.identically_zero,
    })


def _cmd_invariant_check(args) -> int:
    field, ring = _resolve_field(args)
    curve = parse_polynomial(args.curve, ring)
    cof = check_invariance(field, curve)
    return _emit({
        "command": "invariant-check",
        "field": _text("field", field),
        "curve": _text("curve", curve),
        "invariant": cof is not None,
        "cofactor": _text("cofactor", cof and cof.polynomial),
    })


def _cmd_first_integral(args) -> int:
    field, _, system = _field_and_system(args)
    fi, status = None, "found"
    try:
        fi = extract_first_integral(field, system, max_dim=_max_dim())
    except ExtacticNotZeroError:
        status = "extactic-nonzero"
    except ExtractionFailedError:  # E = 0 and no certificate
        status = "failed"
    return _emit({
        "command": "first-integral",
        "status": status,
        "numerator": _text("numerator", fi and fi.numerator),
        "denominator": _text("denominator", fi and fi.denominator),
        "rank": None if fi is None else fi.rank,
    })


def _bound_report(args) -> BoundReport:
    """The library's report for one `bound` question."""
    formula = args.formula
    if formula == "pn":
        threshold = pn_threshold(args.d, args.k, args.n, args.count)
        return report(Fraction(args.k), threshold, formula, threshold)
    if formula == "gen":
        return report(2 - 2 * _genus(args.genus),
                      genus_rhs(args.d, args.k, args.count), formula,
                      genus_threshold(args.d, args.k, args.count))
    if formula == "abelian":
        bound = abelian_bound(args.dn, args.n, args.count, args.deg_f,
                              args.deg_x)
        degree = None if args.deg_d is None else Fraction(args.deg_d)
        return report(degree, bound, formula, bound)
    system = dict(h0=args.h0, n_invariant=args.count,
                  deg_foliation=args.deg_f, deg_variety=args.deg_x)
    if formula == "poin":
        bound = poincare_degree_bound(**system)
        return report(Fraction(args.deg_d), bound, formula, bound)
    if formula == "cor":
        return surface_bound(
            deg_D=args.deg_d, **system, h1=args.h1,
            h0_k_minus_d=args.h0_k_minus_d, k_self=args.k_self,
            k_dot_d=args.k_dot_d, chi_top=args.chi, genus=_genus(args.genus))
    return invariant_count_check(deg_D=args.deg_d, **system)


def _cmd_bound(args) -> int:
    rep = _bound_report(args)
    return _emit({
        "command": "bound",
        "formula": rep.formula,
        "lhs": _text("lhs", rep.lhs),
        "rhs": _text("rhs", rep.rhs),
        "threshold": _text("threshold", rep.threshold),
        "verdict": rep.verdict,
    })


def _cmd_corpus(args) -> int:
    entry = _corpus_entry(args.selector)
    return _emit({
        "command": "corpus",
        "name": entry.name,
        "vars": ",".join(entry.field.ring.names),
        "mode": entry.field.mode,
        "field": _text("field", entry.field),
        "facts": [
            {"kind": f.kind, "statement": f.statement, "checked": f.checked}
            for f in entry.facts
        ],
    })


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_field_arguments(sub):
    sub.add_argument("--vars", help="comma-separated variable names")
    sub.add_argument("--field", help="comma-separated component expressions")
    sub.add_argument("--field-corpus",
                     help="corpus selector, e.g. slv:1 or planted:2,1,5")
    sub.add_argument("--mode", choices=["auto", AFFINE, HOMOGENEOUS],
                     default="auto")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="extatica",
        description="exact extactic/invariant-curve/first-integral engine")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="echo the canonical form")
    p.add_argument("--vars", required=True)
    p.add_argument("text")
    p.set_defaults(handler=_cmd_parse)

    p = subs.add_parser("extactic", help="extactic polynomial of a field")
    _add_field_arguments(p)
    p.add_argument("--k", type=int, required=True,
                   help="degree of the monomial linear system")
    p.add_argument("--engine",
                   choices=["auto", "fraction-free", "modular"],
                   default="auto")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_extactic)

    p = subs.add_parser("invariant-check",
                        help="certify an invariant curve and its cofactor")
    _add_field_arguments(p)
    p.add_argument("--curve", required=True)
    p.set_defaults(handler=_cmd_invariant_check)

    p = subs.add_parser("first-integral",
                        help="extract a verified rational first integral")
    _add_field_arguments(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_first_integral)

    p = subs.add_parser("bound", help="evaluate a degree/genus inequality")
    p.set_defaults(handler=_cmd_bound)
    bound_subs = p.add_subparsers(dest="formula", required=True)
    for name in ("theorem1", "poin", "cor"):
        b = bound_subs.add_parser(name)
        b.add_argument("--deg-d", type=int, required=True)
        b.add_argument("--h0", type=int, required=True)
        b.add_argument("--count", type=int, required=True,
                       help="number of invariant divisors in the system")
        b.add_argument("--deg-f", type=int, required=True)
        b.add_argument("--deg-x", type=int, default=1)
    # the surface data of cor, the last of the three
    for flag in ("--h1", "--h0-k-minus-d", "--k-self", "--k-dot-d", "--chi"):
        b.add_argument(flag, type=int, required=True)
    b.add_argument("--genus", required=True)
    b = bound_subs.add_parser("pn")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--count", type=int, required=True)
    b = bound_subs.add_parser("gen")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--genus", required=True)
    b = bound_subs.add_parser("abelian")
    b.add_argument("--dn", type=int, required=True,
                   help="top self-intersection number of the divisor")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--deg-f", type=int, required=True)
    b.add_argument("--deg-x", type=int, required=True)
    b.add_argument("--deg-d", type=int)

    p = subs.add_parser("corpus", help="print a corpus entry with its facts")
    p.add_argument("selector",
                   help="slv:L | planted:n,d,seed | random:n,d,seed | "
                        "hamiltonian:EXPR | pencil:EXPR:EXPR")
    p.set_defaults(handler=_cmd_corpus)
    return parser


def _fail(message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DimensionGuardError, BadPrimeError) as exc:
        return _fail(str(exc), 4)
    except HypothesisNotMetError as exc:
        return _fail(str(exc), 3)
    except EngineDisagreementError as exc:
        return _fail(str(exc), 5)
    except (ParseError, ContextError, ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
