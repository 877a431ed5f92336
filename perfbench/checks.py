"""Independent checks of the workloads' answers.

Everything here is computed with sympy from the plain-JSON records that
worker.py writes; extatica is not imported.  `check(record)` returns a list
of failure messages, empty when the answer is right.  Random evaluation
points come from the run's seed.

What each kind of answer must satisfy:

* nonzero extactic E: E(p) equals the determinant of the jet matrix that
  sympy builds, at random rational points p; deg E is the reported degree
  and at most m*k + (d - 1)*C(m, 2); every planted line divides E, and its
  cofactor K satisfies X(line) = K*line.
* vanishing extactic with first integral A/B: the jet matrix is singular,
  of the reported rank, at random points; X(A)*B - A*X(B) = 0; A/B is not
  constant.
* CLI answers: the same checks on the JSON the command printed;
  invariant-check by X(f) = K*f (or X(f) not divisible by f); bound by the
  verdict agreeing with lhs <= rhs.  parse answers are compared by sympy
  with the input expression, except the golden parse and corpus cases,
  which have no independent oracle and are compared with tests/goldens/.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from fractions import Fraction

from sympy import Symbol, parse_expr
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from workloads import exponents

GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "goldens"
CONSISTENT = "consistent-with-no-first-integral"
FORCES = "forces-first-integral"
POINTS = 2   # random evaluation points per jet-matrix check


class Checker:
    def __init__(self, seed: int):
        self.rng = random.Random(f"checks:{seed}")
        self._rings = {}

    # -- sympy objects --

    def sring(self, names):
        names = tuple(names)
        if names not in self._rings:
            self._rings[names] = ring(",".join(names), QQ)
        return self._rings[names]

    def poly(self, names, terms):
        R = self.sring(names)[0]
        return R.from_dict({tuple(e): QQ(Fraction(c).numerator,
                                         Fraction(c).denominator)
                            for e, c in terms})

    def parse(self, names, text):
        R = self.sring(names)[0]
        local = {n: Symbol(n) for n in names}
        return R.from_expr(parse_expr(text.replace("^", "**"),
                                      local_dict=local))

    def point(self, nvars):
        return [QQ(self.rng.randint(-60, 60), self.rng.randint(1, 60))
                for _ in range(nvars)]

    # -- the mathematics --

    @staticmethod
    def derive(comps, gens, f):
        """X(f) = sum P_i df/dx_i."""
        out = f.ring.zero
        for p, g in zip(comps, gens):
            out += p * f.diff(g)
        return out

    def jet_columns(self, names, comps, k, homogeneous):
        """Columns X^j(s_i), j < m, for the complete monomial system of
        degree k, ordered by degree, then graded-lex with earlier
        variables stronger (the documented basis order; it fixes E's
        sign)."""
        R, *gens = self.sring(names)
        exps = exponents(len(names), k, homogeneous)
        exps.sort(key=lambda e: (sum(e), tuple(-a for a in e)))
        cols = [[R({e: QQ(1)}) for e in exps]]
        for _ in range(len(exps) - 1):
            cols.append([self.derive(comps, gens, f) for f in cols[-1]])
        return cols

    @staticmethod
    def at(cols, pt):
        m = len(cols)
        return DomainMatrix([[cols[j][i](*pt) for j in range(m)]
                             for i in range(m)], (m, m), QQ)

    def cross_identity_holds(self, comps, gens, a, b):
        """X(A)*B - A*X(B) == 0, in Z[x] after clearing denominators."""
        zr = ring(",".join(str(g) for g in gens), ZZ)[0]

        def integral(p):
            return zr.from_dict({e: ZZ(int(c)) for e, c in
                                 p.clear_denoms()[1].items()})

        a, b = integral(a), integral(b)
        zcomps = [integral(p) for p in comps]
        zgens = zr.gens
        return (self.derive(zcomps, zgens, a) * b
                - a * self.derive(zcomps, zgens, b)) == 0

    # -- per-answer checks --

    def check(self, rec) -> list:
        if "error" in rec:
            return []          # a failed call is counted, not checked
        kind = rec["kind"]
        if kind == "extactic":
            return self.check_extactic(rec)
        if kind == "first-integral":
            return self.check_first_integral(rec)
        return self.check_cli(rec)

    def _field(self, field):
        names = field["vars"]
        comps = [self.poly(names, c) for c in field["components"]]
        return names, comps

    def nonzero_extactic(self, names, comps, k, homogeneous, E, degree):
        fails = []
        if E == 0:
            return ["extactic reported nonzero but E = 0"]
        m = math.comb(len(names) + k - (1 if homogeneous else 0), k)
        d = max(max(sum(e) for e in p.itermonoms()) for p in comps if p)
        bound = m * k + (d - 1) * math.comb(m, 2)
        deg = max(sum(e) for e in E.itermonoms())
        if degree != deg:
            fails.append(f"reported degree {degree}, E has degree {deg}")
        if deg > bound:
            fails.append(f"deg E = {deg} exceeds the bound {bound}")
        cols = self.jet_columns(names, comps, k, homogeneous)
        for _ in range(POINTS):
            pt = self.point(len(names))
            if E(*pt) != self.at(cols, pt).det():
                fails.append(f"E({pt}) differs from det J({pt})")
        return fails

    def vanishing(self, names, comps, k, homogeneous, a, b, rank):
        fails = []
        gens = self.sring(names)[1:]
        cols = self.jet_columns(names, comps, k, homogeneous)
        ranks = []
        for _ in range(POINTS):
            dm = self.at(cols, self.point(len(names)))
            ranks.append(dm.rank())
            if dm.det() != 0:
                fails.append("jet matrix nonsingular at a random point")
        if rank is not None and max(ranks) != rank:
            fails.append(f"reported rank {rank}, sampled ranks {ranks}")
        if a == 0 or b == 0:
            return fails + ["zero numerator or denominator"]
        if a * b.LC == b * a.LC:
            fails.append("A/B is constant")
        if not self.cross_identity_holds(comps, gens, a, b):
            fails.append("X(A)*B - A*X(B) != 0")
        return fails

    def check_extactic(self, rec):
        names, comps = self._field(rec["field"])
        homog = rec["field"]["mode"] == "homogeneous"
        E = self.poly(names, rec["E"])
        if rec["identically_zero"]:
            return ["expected a nonzero extactic"]
        fails = self.nonzero_extactic(names, comps, rec["k"], homog, E,
                                      rec["degree"])
        gens = self.sring(names)[1:]
        for line in rec["lines"]:
            g = gens[line["var"]]
            if not line["divides"]:
                fails.append(f"divides_extactic said {g} does not divide E")
            if E.rem(g) != 0:
                fails.append(f"planted line {g} does not divide E")
            if line["cofactor"] is None:
                fails.append(f"planted line {g} not certified invariant")
            else:
                K = self.poly(names, line["cofactor"])
                if self.derive(comps, gens, g) != K * g:
                    fails.append(f"wrong cofactor for {g}")
        return fails

    def check_first_integral(self, rec):
        names, comps = self._field(rec["field"])
        if not rec["identically_zero"] or rec["numerator"] is None:
            return ["expected a vanishing extactic and a first integral"]
        a = self.poly(names, rec["numerator"])
        b = self.poly(names, rec["denominator"])
        return self.vanishing(names, comps, rec["k"], False, a, b,
                              rec["rank"])

    # -- CLI --

    def check_cli(self, rec):
        argv, golden = rec["argv"], rec["golden"]
        if rec["code"] != 0:
            return [f"exit code {rec['code']}: {rec['stderr'].strip()}"]
        cmd = argv[0]
        if golden and cmd in ("parse", "corpus"):
            want = (GOLDENS / f"{golden}.json").read_text()
            return [] if rec["stdout"] == want else [
                f"output differs from tests/goldens/{golden}.json"]
        out = json.loads(rec["stdout"])
        opts = dict(zip(argv[1::2], argv[2::2])) if cmd != "parse" else {}
        if cmd == "parse":
            names = argv[2].split(",")
            if self.parse(names, argv[3]) != self.parse(names,
                                                        out["canonical"]):
                return ["canonical form differs from the input"]
            return []
        if cmd == "bound":
            lhs, rhs = out["lhs"], out["rhs"]
            consistent = lhs is None or Fraction(lhs) <= Fraction(rhs)
            want = CONSISTENT if consistent else FORCES
            return [] if out["verdict"] == want else [
                f"verdict {out['verdict']} with lhs={lhs}, rhs={rhs}"]
        names = (opts.get("--vars") or out.get("vars")).split(",")
        text = opts.get("--field") or out.get("field")
        comps = [self.parse(names, c) for c in text.split(",")]
        mode = opts.get("--mode") or out.get("mode") or _default_mode(comps)
        homog = mode == "homogeneous"
        if cmd == "invariant-check":
            gens = self.sring(names)[1:]
            f = self.parse(names, out["curve"])
            xf = self.derive(comps, gens, f)
            if out["invariant"]:
                K = self.parse(names, out["cofactor"])
                return [] if xf == K * f else ["X(f) != K*f"]
            return [] if xf.rem(f) != 0 else [
                "f reported not invariant, but f divides X(f)"]
        k = int(opts["--k"])
        if cmd == "extactic":
            E = self.parse(names, out["extactic"])
            if out["identically_zero"]:
                if E != 0:
                    return ["identically_zero with a nonzero E"]
                cols = self.jet_columns(names, comps, k, homog)
                return [] if all(
                    self.at(cols, self.point(len(names))).det() == 0
                    for _ in range(POINTS)) else [
                    "E = 0 but the jet matrix is nonsingular"]
            return self.nonzero_extactic(names, comps, k, homog, E,
                                         out["degree"])
        if cmd == "first-integral":
            if out["status"] == "found":
                return self.vanishing(
                    names, comps, k, homog, self.parse(names,
                                                       out["numerator"]),
                    self.parse(names, out["denominator"]), out["rank"])
            if out["status"] == "extactic-nonzero":
                cols = self.jet_columns(names, comps, k, homog)
                return [] if any(
                    self.at(cols, self.point(len(names))).det() != 0
                    for _ in range(POINTS)) else [
                    "extactic-nonzero, but J is singular at every sample"]
            return [f"first-integral status {out['status']}"]
        return [f"no check for command {cmd}"]


def _default_mode(comps) -> str:
    """The CLI's documented reading: homogeneous when there are at least
    three variables and all components are homogeneous of one degree."""
    degs = {sum(e) for p in comps for e in p.itermonoms()}
    return "homogeneous" if len(comps) >= 3 and len(degs) == 1 else "affine"
