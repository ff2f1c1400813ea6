"""Exact computations with Lie pseudoalgebras and finite groupoids.

The package builds everything from exact rational arithmetic: multivariate
polynomials with a Groebner engine, presented algebras with morphisms and
derivations, Lie pseudoalgebras on free modules with their restrictions,
twisted sums, morphisms and comorphisms, and finite groupoids with both
map notions, actions, and the matching graph theorems.
"""

from .algebra import AlgebraPres, AlgMorphism, Derivation
from .budget import ResourceCapExceeded
from .groebner import IdealPres, buchberger, normal_form
from .groupoid import (
    FinGroupoid,
    GroupoidAction,
    GrpdComorphism,
    GrpdMorphism,
    action_as_comorphism,
    check_groupoid,
    check_groupoid_action,
    check_grpd_comorphism,
    check_grpd_morphism,
    cyclic_group,
    enumerate_maps,
    find_isomorphism,
    graph_of_map,
    graph_subgroupoid_check,
    induced_groupoid_action,
    make_action_groupoid,
    make_action_groupoid_of_action,
    make_direct_product,
    make_gauge,
    make_pair,
    make_phi_product,
    orbit_condition,
    restrict_groupoid,
)
from .maps import (
    PAComorphism,
    PAMorphism,
    chain_map_check,
    check_pacomorphism,
    check_pamorphism,
    compose_comorphisms,
    compose_morphisms,
    graph,
    graph_subalgebra_check,
    induced_infinitesimal_action,
)
from .poly import MPoly, PolyParseError, parse_poly, poly_to_string
from .pseudoalgebra import (
    PAlg,
    PAElement,
    anchor_apply,
    axioms_check,
    bracket,
    differential,
    make_action,
    make_cotangent_poisson,
    make_der,
    make_klie,
)
from .psisum import (
    DirectSum,
    MixedElement,
    PsiSumCtx,
    direct_sum,
    membership_report,
    psisum_anchor,
    psisum_bracket,
    triple_inclusion_check,
)
from .restriction import ResidueElement, RestrictionCtx, in_lower, in_upper, quotient_bracket
from .verdict import Check, VerdictReport, VerificationError

__version__ = "0.1.0"
