#!/usr/bin/env python3
"""Count how `extract_first_integral` certifies E = 0 on families of fields
that have first integrals of degree <= k.

    PYTHONPATH=src python scripts/fallback_sweep.py

Each draw is one field from a fixed seed.  Its outcome is `first_pair`
(the first pair of kernel points certifies), `interpolated` (the
integral interpolated from the point kernels certifies) or `failed`
(no certificate, anything else is raised, or the draw runs past
CAP_SECONDS; `capped` counts those).  The outcome is read by watching
the interpolation, without changing it.  One JSON line per family and k
holds the counts, the degrees max(deg A, deg B) of the interpolated
answers A/B, the exception types of the failures, and the seconds taken.

The families, on the complete affine system of degree k:
  hamiltonian     (-h_y, h_x), deg h <= k, 2 variables, k = 1-3
  pencil          the field of the pencil f/g, deg f, g <= k, 2 variables,
                  k = 1-3
  gradient-cross  grad h1 x grad h2, deg h1, h2 <= 2, 3 variables, k = 2
  planar-lift     (P, Q, 0), deg P, Q <= 2, 3 variables, k = 1-2
  ratio           (g1 grad f1 - f1 grad g1) x (g2 grad f2 - f2 grad g2),
                  deg f_i, g_i <= k, 3 variables, k = 1-2; its first
                  integrals are the functions of f1/g1 and f2/g2
"""

import importlib
import json
import signal
import sys
import time
from collections import Counter
from random import Random

from extatica.corpus import hamiltonian, pencil_field
from extatica.extactic import extract_first_integral, monomial_system
from extatica.foliation import AFFINE, VectorField
from extatica.polyring import PolyRing, monomials_up_to_degree

#: the module: the package attribute `extatica.extactic` is the function
EXT = importlib.import_module("extatica.extactic")

RINGS = {2: PolyRing(("x", "y")), 3: PolyRing(("x", "y", "z"))}


def sparse(rng: Random, nvars: int, degree: int):
    """A polynomial of degree <= `degree` with 1-4 terms and coefficients
    in [-5, 5]."""
    exps = list(monomials_up_to_degree(nvars, degree))
    return RINGS[nvars].from_terms(
        {rng.choice(exps): rng.randint(-5, 5)
         for _ in range(rng.randint(1, 4))})


def gradient(f) -> list:
    return [f.partial_derivative(v) for v in range(3)]


def cross(a, b) -> tuple:
    return tuple(a[(v + 1) % 3] * b[(v + 2) % 3]
                 - a[(v + 2) % 3] * b[(v + 1) % 3] for v in range(3))


def ratio_gradient(f, g) -> list:
    """g grad f - f grad g, normal to the level sets of f/g."""
    return [g * a - f * b for a, b in zip(gradient(f), gradient(g))]


def draw_field(family: str, k: int, rng: Random):
    """One field of the family, or None when the draw is degenerate."""
    if family == "hamiltonian":
        h = sparse(rng, 2, k)
        return None if h.is_constant() else hamiltonian(h).field
    if family == "pencil":
        try:
            return pencil_field(sparse(rng, 2, k), sparse(rng, 2, k)).field
        except ValueError:  # proportional, or a vanishing field
            return None
    if family == "gradient-cross":
        comps = cross(gradient(sparse(rng, 3, 2)), gradient(sparse(rng, 3, 2)))
    elif family == "planar-lift":
        comps = (sparse(rng, 3, 2), sparse(rng, 3, 2), RINGS[3].zero())
    else:
        f1, g1, f2, g2 = (sparse(rng, 3, k) for _ in range(4))
        comps = cross(ratio_gradient(f1, g1), ratio_gradient(f2, g2))
    if all(c.is_zero() for c in comps):
        return None
    return VectorField(comps, AFFINE)


FAMILIES = {  # name: (variables, {k: draws})
    "hamiltonian": (2, {1: 800, 2: 800, 3: 800}),
    "pencil": (2, {1: 800, 2: 800, 3: 800}),
    "gradient-cross": (3, {2: 2400}),
    "planar-lift": (3, {1: 1200, 2: 1200}),
    "ratio": (3, {1: 1000, 2: 200}),
}


#: seconds a draw may run before it counts as failed
CAP_SECONDS = 20.0


class Capped(Exception):
    """A draw ran past its time cap."""


def _alarm(signum, frame):
    raise Capped


class Watch:
    """Notes an interpolation call that returns an integral, passing every
    call through to the original."""

    def __init__(self):
        self.interpolated = False
        interpolate = EXT._interpolated_integral

        def watched(*args):
            result = interpolate(*args)
            self.interpolated = result[0] is not None
            return result

        EXT._interpolated_integral = watched


def outcome(watch: Watch, field, k: int) -> tuple:
    """(outcome, degree of the answer, or the exception's type name)."""
    watch.interpolated = False
    EXT._decision.cache_clear()  # even a draw equal to the last is decided
    system = monomial_system(field.ring.nvars, k, AFFINE)
    signal.setitimer(signal.ITIMER_REAL, CAP_SECONDS)
    try:
        fi = extract_first_integral(field, system)
    except Capped:
        return "capped", "Capped"
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        return "failed", type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    degree = int(max(fi.numerator.degree(), fi.denominator.degree()))
    return ("interpolated" if watch.interpolated else "first_pair"), degree


def sweep(family: str, k: int, draws: int, watch: Watch) -> dict:
    counts, degrees, errors = Counter(), Counter(), Counter()
    start = time.perf_counter()
    for i in range(draws):
        rng = Random(f"{family}:{k}:{i}")
        field = None
        while field is None:
            field = draw_field(family, k, rng)
        result, detail = outcome(watch, field, k)
        counts[result] += 1
        if result == "interpolated":
            degrees[detail] += 1
        elif result in ("failed", "capped"):
            errors[detail] += 1
    return {"family": family, "nvars": FAMILIES[family][0], "k": k,
            "draws": draws,
            **{name: counts[name] for name in
               ("first_pair", "interpolated")},
            "failed": counts["failed"] + counts["capped"],
            "capped": counts["capped"],
            "interpolated_degrees": {str(d): n
                                     for d, n in sorted(degrees.items())},
            "errors": dict(sorted(errors.items())),
            "seconds": round(time.perf_counter() - start, 1)}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    watch = Watch()
    for family, (_, draws) in FAMILIES.items():
        for k, n in draws.items():
            line = sweep(family, k, n, watch)
            sys.stdout.write(json.dumps(line) + "\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
