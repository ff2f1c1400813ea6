"""Exact computations with Lie pseudoalgebras and finite groupoids.

The package builds everything from exact rational arithmetic: multivariate
polynomials with a Groebner engine, presented algebras with morphisms and
derivations, Lie pseudoalgebras on free modules with their restrictions,
twisted sums, morphisms and comorphisms, and finite groupoids with both
map notions, actions, and the matching graph theorems.
"""

__version__ = "0.1.0"
