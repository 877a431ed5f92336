"""extatica: exact decision procedures for polynomial foliations.

Computes extactic polynomials of vector fields against linear systems of
divisors, certifies invariant algebraic curves with their cofactors,
extracts verified rational first integrals when the extactic vanishes, and
evaluates the associated degree and genus bounds - all in exact rational
arithmetic.
"""

from .bounds import (BoundReport, HypothesisNotMetError, abelian_bound,
                     genus_rhs, genus_threshold, invariant_count_check,
                     pn_threshold, poincare_degree_bound, surface_bound)
from .corpus import (CorpusEntry, Fact, hamiltonian, invariant_curve_search,
                     pencil_field, planted_lines_field, random_field, slv,
                     slv1_invariant_conic)
from .extactic import (ExtacticReport, FirstIntegral, JetMatrix, LinearSystem,
                       det_fraction_free, det_modular, divides_extactic,
                       extactic, extactic_degree_bound,
                       extract_first_integral, jet_matrix, monomial_system)
from .foliation import (AFFINE, HOMOGENEOUS, Cofactor, VectorField,
                        apply_derivation, check_invariance, foliation_degree)
from .polyring import (NEG_INF, BadPrimeError, ContextError, PolyRing,
                       Polynomial)

__version__ = "0.1.0"
