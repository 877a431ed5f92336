import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from extatica.polyring import PolyRing, monomials_up_to_degree

# the module; the package attribute `extatica.extactic` is the function of
# the same name
_EXTACTIC = importlib.import_module("extatica.extactic")

#: Fixed table of primes just below 2**61: large enough that random integer
#: evaluations essentially never collide.
PRIMES_2_61 = (
    2305843009213693951, 2305843009213693921, 2305843009213693907,
    2305843009213693723, 2305843009213693693, 2305843009213693669,
    2305843009213693613, 2305843009213693561, 2305843009213693549,
    2305843009213693487, 2305843009213693421, 2305843009213693373,
    2305843009213693277, 2305843009213693193, 2305843009213693153,
    2305843009213693133,
)

RING_XY = PolyRing(("x", "y"))
RING_XYZ = PolyRing(("x", "y", "z"))


@pytest.fixture(autouse=True)
def fresh_decision():
    """Empty the slot that keeps the pair just decided, so a test that
    patches the probe points decides its pairs afresh."""
    _EXTACTIC._decision.cache_clear()


def evaluate(f, point):
    """f at a rational point, exactly: the sum of its terms' values."""
    return sum((c * math.prod(Fraction(x) ** k for x, k in zip(point, e))
                for e, c in f.terms.items()), Fraction(0))


def evaluate_mod(f, point, p):
    """f at an integer point modulo a prime p: its exact value, reduced."""
    value = evaluate(f, point)
    return value.numerator * pow(value.denominator, -1, p) % p


def polynomials(ring=RING_XYZ, max_degree=4, max_terms=8, coeff_bound=9,
                nonzero=False):
    """Strategy for sparse polynomials with small integer coefficients."""
    exps = list(monomials_up_to_degree(ring.nvars, max_degree))
    term = st.tuples(st.sampled_from(exps),
                     st.integers(-coeff_bound, coeff_bound))
    def build(pairs):
        return ring.from_terms(dict(pairs))
    strat = st.lists(term, min_size=0, max_size=max_terms).map(build)
    if nonzero:
        strat = strat.filter(lambda p: not p.is_zero())
    return strat


def rational_points(nvars, bound=20):
    coord = st.fractions(
        min_value=Fraction(-bound), max_value=Fraction(bound),
        max_denominator=7)
    return st.tuples(*[coord] * nvars)
