"""Workload inputs and calls.

Every input is generated here from the benchmark seed; extatica only ever
receives the finished fields, systems and argv lists.  A workload is a list
of `Call`s.  `Call.run` is the timed unit: one library decision, or one
in-process `cli.main`.  `Call.record` turns its result into plain JSON (the
input it was asked about and the answer), which `checks.py` verifies without
extatica.

extatica is imported by `extatica()`, called from `build`, so that the
set-up timing covers the import.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import pathlib
import random
import sys
from math import comb
from typing import Callable, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Hamiltonians h whose field (-h_y, h_x) has h as first integral, so the
#: extactic against all cubics (m = 10) vanishes identically.
HAMILTONIANS = (
    {(3, 0): 1, (0, 2): -1},                           # x^3 - y^2
    {(2, 1): 1, (0, 3): 1, (1, 0): 1},                 # x^2*y + y^3 + x
    {(2, 0): 1, (0, 2): 1},                            # x^2 + y^2
    {(3, 0): 1, (1, 1): -2, (0, 2): 1, (1, 0): 1},     # x^3 - 2*x*y + y^2 + x
)

NAMES = ("x", "y", "z")

#: The few single heavy inputs are drawn from this fixed stream, not from the
#: run's seed: one draw of a 10x10 system can need 10, 11 or 12 primes, which
#: would make wall_s depend on the seed.  Groups of like calls, where one
#: draw matters little, come from the run's seed.
FIXED_SEED = 0


# ---------------------------------------------------------------------------
# plain-JSON forms shared with checks.py
# ---------------------------------------------------------------------------

def poly_json(p) -> list:
    """[[exponents, "n/d"], ...] in sorted order: the canonical wire form."""
    return sorted([list(e), str(c)] for e, c in p.terms.items())


def field_json(field) -> dict:
    return {"vars": list(field.ring.names), "mode": field.mode,
            "components": [poly_json(c) for c in field.components]}


def term_text(terms: dict, names) -> str:
    """Input text for the CLI parser, written by the benchmark itself."""
    parts = []
    for exps, c in terms.items():
        factors = [n if k == 1 else f"{n}^{k}"
                   for n, k in zip(names, exps) if k]
        parts.append("*".join([str(c)] + factors))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def exponents(nvars: int, degree: int, homogeneous: bool = False) -> list:
    """Exponent vectors of total degree <= degree (== if homogeneous)."""
    return [e for e in itertools.product(range(degree + 1), repeat=nvars)
            if (sum(e) == degree if homogeneous else sum(e) <= degree)]


def dense_terms(rng: random.Random, nvars: int, degree: int, top: int,
                homogeneous: bool = False) -> dict:
    """Every monomial present, with a nonzero coefficient in [-top, top]:
    the support, and so the cost, does not depend on the seed."""
    return {e: rng.choice((-1, 1)) * rng.randint(1, top)
            for e in exponents(nvars, degree, homogeneous)}


PRIME = (1 << 61) - 1


def _compose(terms: dict, xs: list, ys: list) -> list:
    """sum c * x(t)^i * y(t)^j for power series x, y, truncated, mod PRIME."""
    n = len(xs)

    def mul(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) % PRIME
                for k in range(n)]

    out = [0] * n
    for (i, j), c in terms.items():
        term = [c % PRIME] + [0] * (n - 1)
        for _ in range(i):
            term = mul(term, xs)
        for _ in range(j):
            term = mul(term, ys)
        out = [(a + b) % PRIME for a, b in zip(out, term)]
    return out


def jet_singular_mod_p(comps: list, k: int, rng: random.Random) -> bool:
    """Whether the jet matrix of a 2-variable field (term dicts) against all
    monomials of degree <= k is singular at a random point mod PRIME.

    Entry (i, j) at p is j! times the t^j coefficient of s_i(phi_t(p)),
    phi the flow, so one power-series solve gives the whole matrix.  A
    nonzero extactic is singular there with probability below deg E /
    PRIME, so a draw for which this is True may have a first integral of
    degree <= k.
    """
    basis = exponents(2, k)
    n = len(basis)
    xs = [rng.randrange(PRIME)] + [0] * (n - 1)
    ys = [rng.randrange(PRIME)] + [0] * (n - 1)
    for order in range(1, n):
        px, py = (_compose(c, xs, ys) for c in comps)
        inv = pow(order, PRIME - 2, PRIME)
        xs[order] = px[order - 1] * inv % PRIME
        ys[order] = py[order - 1] * inv % PRIME
    rows = [_compose({e: 1}, xs, ys) for e in basis]   # columns scaled by 1/j!
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return True
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], PRIME - 2, PRIME)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % PRIME
            rows[r] = [(a - f * b) % PRIME for a, b in zip(rows[r], rows[c])]
    return False


class Call(NamedTuple):
    """One timed unit of work plus what its checker needs."""

    label: str
    kind: str
    run: Callable        # () -> result, the timed part
    record: Callable     # result -> JSON-able dict, untimed


# ---------------------------------------------------------------------------
# nonvanishing: extactic(engine="auto") on fields without first integral
# ---------------------------------------------------------------------------

def _extactic_call(X, label, field, k, lines=()):
    """extactic on (field, complete system of degree k).  For planted
    fields the decision also certifies each planted line with
    check_invariance and asks divides_extactic about it."""
    system = X.monomial_system(field.ring.nvars, k, field.mode,
                               names=field.ring.names)
    line_polys = [field.ring.variable(i) for i in lines]

    def run():
        cofs = [X.check_invariance(field, f) for f in line_polys]
        report = X.extactic(field, system, engine="auto", jobs=1)
        divides = [X.divides_extactic(f, report) for f in line_polys]
        return report, cofs, divides

    def record(result):
        report, cofs, divides = result
        return {"field": field_json(field), "k": k,
                "E": poly_json(report.extactic),
                "identically_zero": report.identically_zero,
                "degree": None if report.identically_zero
                else int(report.degree),
                "lines": [{"var": i, "divides": d,
                           "cofactor": None if c is None
                           else poly_json(c.polynomial)}
                          for i, c, d in zip(lines, cofs, divides)]}

    return Call(label, "extactic", run, record)


def nonvanishing(X, seed: int) -> list:
    rng, fixed = random.Random(seed), random.Random(FIXED_SEED)
    ring2 = X.PolyRing(NAMES[:2])
    ring3 = X.PolyRing(NAMES)

    def rfield(ring, degree, top, rng=rng):
        comps = [dense_terms(rng, ring.nvars, degree, top)
                 for _ in range(ring.nvars)]
        return X.VectorField(tuple(map(ring.from_terms, comps)), X.AFFINE)

    def planted(degree, rng=rng):
        """(x*q1, y*q2): the coordinate lines are invariant, cofactors q_i.
        About one draw in 230 has a first integral of degree <= 2 (q1 and
        q2 with equal linear parts, for one) and is drawn again; dense
        random fields showed none in 8000 draws."""
        while True:
            qs = [dense_terms(rng, 2, degree - 1, 5) for _ in range(2)]
            comps = [{(a + 1 - i, b + i): c for (a, b), c in q.items()}
                     for i, q in enumerate(qs)]
            if not jet_singular_mod_p(comps, 2, rng):
                return X.VectorField(tuple(map(ring2.from_terms, comps)),
                                     X.AFFINE)

    # The median call falls inside the group of ten ~70 ms calls (nine
    # random degree-2 fields with coefficients up to 4, which always need
    # three primes, and slv:1): six cheaper planted fields lie below it and
    # seven dearer calls above.
    calls = [_extactic_call(X, f"slv:{ell} k=2", X.slv(ell).field, 2)
             for ell in (1, 2, 3, 4)]
    calls += [_extactic_call(X, f"random 2v d2 k=2 #{i}", rfield(ring2, 2, 4),
                             2) for i in range(9)]
    calls += [_extactic_call(X, f"planted 2v d2 k=2 #{i}", planted(2), 2,
                             lines=(0, 1)) for i in range(6)]
    calls += [
        _extactic_call(X, "random 2v d3 k=2",
                       rfield(ring2, 3, 9, rng=fixed), 2),
        _extactic_call(X, "planted 2v d3 k=2", planted(3, fixed), 2,
                       lines=(0, 1)),
        _extactic_call(X, "random 2v d2 k=3",
                       rfield(ring2, 2, 9, rng=fixed), 3),
        _extactic_call(X, "random 3v affine d1 k=2",
                       rfield(ring3, 1, 9, rng=fixed), 2),
    ]
    return calls


# ---------------------------------------------------------------------------
# vanishing: the first-integral decision on positive controls
# ---------------------------------------------------------------------------

def _first_integral_call(X, label, field, k):
    system = X.monomial_system(2, k, X.AFFINE, names=field.ring.names)

    def run():
        report = X.extactic(field, system, engine="auto", jobs=1)
        if not report.identically_zero:
            return report, None
        return report, X.extract_first_integral(field, system)

    def record(result):
        report, fi = result
        return {"field": field_json(field), "k": k,
                "identically_zero": report.identically_zero,
                "numerator": None if fi is None else poly_json(fi.numerator),
                "denominator": None if fi is None
                else poly_json(fi.denominator),
                "rank": None if fi is None else fi.rank}

    return Call(label, "first-integral", run, record)


def vanishing(X, seed: int) -> list:
    rng = random.Random(seed)
    ring = X.PolyRing(NAMES[:2])
    calls = [_first_integral_call(
        X, f"hamiltonian {i} k=3", X.hamiltonian(ring.from_terms(h)).field, 3)
        for i, h in enumerate(HAMILTONIANS)]
    for i in range(12):
        # a conic and a line: f/g is a first integral of degree 2
        f = ring.from_terms(dense_terms(rng, 2, 2, 9))
        g = ring.from_terms(dense_terms(rng, 2, 1, 9))
        calls.append(_first_integral_call(
            X, f"pencil #{i} k=2", X.pencil_field(f, g).field, 2))
    return calls


# ---------------------------------------------------------------------------
# cli-small: in-process cli.main on small questions
# ---------------------------------------------------------------------------

def golden_cases() -> list:
    """(name, argv) pairs from tests/golden_cases.py of the code under test."""
    path = ROOT / "tests" / "golden_cases.py"
    scope = {}
    exec(compile(path.read_text(), str(path), "exec"), scope)
    return list(scope["GOLDEN_CASES"])


def _cli_call(X, label, argv, golden=None):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = X.cli.main(argv)
            except SystemExit as exc:   # argparse rejects the argv
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def record(result):
        code, out, err = result
        return {"argv": argv, "golden": golden, "code": code,
                "stdout": out, "stderr": err}

    return Call(label, "cli", run, record)


def _bound_argvs(rng: random.Random) -> list:
    """Bound questions whose hypotheses hold, so every one exits 0."""
    out = []
    for _ in range(6):
        d, k, n = rng.randint(2, 5), rng.randint(1, 6), rng.randint(2, 3)
        count = comb(n + k, k) + rng.randint(1, 40)
        out.append(["bound", "pn", "--d", str(d), "--k", str(k), "--n",
                    str(n), "--count", str(count)])
    for _ in range(6):
        out.append(["bound", "gen", "--d", str(rng.randint(2, 6)), "--k",
                    str(rng.randint(1, 8)), "--count", str(rng.randint(1, 60)),
                    "--genus", str(rng.randint(0, 20))])
    for _ in range(6):
        h0 = rng.randint(1, 15)
        out.append(["bound", "theorem1", "--deg-d", str(rng.randint(1, 30)),
                    "--h0", str(h0), "--count", str(h0 + rng.randint(1, 20)),
                    "--deg-f", str(rng.randint(2, 6))])
    for _ in range(6):
        h0 = rng.randint(1, 15)
        out.append(["bound", "poin", "--deg-d", str(rng.randint(1, 30)),
                    "--h0", str(h0), "--count", str(h0 + rng.randint(1, 20)),
                    "--deg-f", str(rng.randint(2, 6))])
    return out


def _parse_argvs(rng: random.Random) -> list:
    out = []
    for _ in range(12):
        a, b = (term_text(dense_terms(rng, 2, rng.randint(1, 2), 9), "xy")
                for _ in range(2))
        text = f"({a})*({b})^{rng.randint(1, 2)} - {rng.randint(1, 9)}/" \
               f"{rng.randint(2, 9)}*x"
        out.append(["parse", "--vars", "x,y", text])
    return out


def _field_text(comps: list, names) -> str:
    return ", ".join(term_text(c, names) for c in comps)


def cli_small(X, seed: int) -> list:
    rng, fixed = random.Random(seed), random.Random(FIXED_SEED)
    calls = [_cli_call(X, f"golden {name}", argv, golden=name)
             for name, argv in golden_cases()]
    # m <= 4 extactic and first-integral questions (auto picks Bareiss)
    for d in (2, 3, 4, 5):
        text = _field_text([dense_terms(rng, 2, d, 9) for _ in range(2)],
                           "xy")
        for cmd in ("extactic", "first-integral"):
            calls.append(_cli_call(X, f"{cmd} 2v d{d} k=1", [
                cmd, "--vars", "x,y", "--field", text, "--k", "1"]))
    text = _field_text([dense_terms(rng, 3, 2, 9, homogeneous=True)
                        for _ in range(3)], "xyz")
    for cmd in ("extactic", "first-integral"):
        calls.append(_cli_call(X, f"{cmd} 3v homogeneous d2 k=1", [
            cmd, "--vars", "x,y,z", "--field", text, "--k", "1"]))
    for d in (2, 3):
        text = _field_text([dense_terms(fixed, 3, d, 9) for _ in range(3)],
                           "xyz")
        calls.append(_cli_call(X, f"extactic 3v affine d{d} k=1", [
            "extactic", "--vars", "x,y,z", "--field", text, "--mode",
            "affine", "--k", "1"]))
    # invariant-check: planted coordinate lines and the slv(1) conic
    for i in range(2):
        qs = [dense_terms(rng, 2, 1, 5) for _ in range(2)]
        text = f"x*({term_text(qs[0], 'xy')}), y*({term_text(qs[1], 'xy')})"
        for line in ("x", "y"):
            calls.append(_cli_call(X, f"invariant-check planted #{i} {line}", [
                "invariant-check", "--vars", "x,y", "--field", text,
                "--curve", line]))
    conic, _ = X.slv1_invariant_conic()
    calls.append(_cli_call(X, "invariant-check slv:1 conic", [
        "invariant-check", "--vars", "x,y,z", "--field-corpus", "slv:1",
        "--curve", term_text(conic.terms, "xyz")]))
    calls += [_cli_call(X, "bound " + argv[1], argv)
              for argv in _bound_argvs(rng)]
    calls += [_cli_call(X, "parse", argv) for argv in _parse_argvs(rng)]
    return calls


WORKLOADS = {"nonvanishing": nonvanishing, "vanishing": vanishing,
             "cli-small": cli_small}


def build(workload: str, seed: int) -> list:
    """Import extatica and build the workload's calls, in an order fixed
    for all seeds that spreads each group of like calls over the round, so
    that the median call samples the whole round, not one stretch of it."""
    calls = WORKLOADS[workload](extatica(), seed)
    random.Random(FIXED_SEED).shuffle(calls)
    return calls


def extatica():
    """The extatica package, with `extatica.cli` loaded.  Calls look names
    up on it when they run, so the wrappers of tracing.py are seen."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("extatica.cli")
    return importlib.import_module("extatica")
