"""Exact computations in Cayley-Dickson loops and their central products."""

from .abstract_loop import (
    AbstractLoop,
    find_isomorphism,
    parse_loop_table,
    random_relabel,
    serialize_loop_table,
    to_table,
    verify_isomorphism,
)
from .analytics import (
    DegreeReport,
    associativity_degree_brute,
    associativity_degree_closed,
    associator_exponent_image,
    b_k_closed,
    commutant,
    commutant_coset_sizes,
    commutativity_degree_brute,
    commutativity_degree_closed,
    commutator_exponent_image,
    generates_group,
    is_di_associative,
    moufang_identity_holds,
    pc_limit_table,
    rank_census_brute,
    rank_census_closed,
    two_factor_commutativity_closed,
)
from .budget import DEFAULT_MAX_ELEMENTS, resolve_max_elements
from .cdloop import CDLoop
from .central_product import (
    CentralProduct,
    ProductElement,
    coset_twist_matrix,
    make_product,
)
from .decompose import (
    Decomposition,
    factor_compatibility,
    infer_parameters,
    match_factors,
    rank_of,
    recover_factors,
)
from .errors import BudgetExceeded, DecompositionError, TableFormatError
from .scalars import Scalar, ScalarGroup, make_scalar_group
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "AbstractLoop",
    "BudgetExceeded",
    "CDLoop",
    "CentralProduct",
    "CheckResult",
    "Decomposition",
    "DecompositionError",
    "DegreeReport",
    "DEFAULT_MAX_ELEMENTS",
    "ProductElement",
    "Scalar",
    "ScalarGroup",
    "TableFormatError",
    "VerifyReport",
    "associativity_degree_brute",
    "associativity_degree_closed",
    "associator_exponent_image",
    "b_k_closed",
    "commutant",
    "commutant_coset_sizes",
    "commutativity_degree_brute",
    "commutativity_degree_closed",
    "commutator_exponent_image",
    "coset_twist_matrix",
    "factor_compatibility",
    "find_isomorphism",
    "generates_group",
    "infer_parameters",
    "is_di_associative",
    "make_product",
    "make_scalar_group",
    "match_factors",
    "moufang_identity_holds",
    "parse_loop_table",
    "pc_limit_table",
    "random_relabel",
    "rank_census_brute",
    "rank_census_closed",
    "rank_of",
    "recover_factors",
    "resolve_max_elements",
    "run_verify",
    "serialize_loop_table",
    "to_table",
    "two_factor_commutativity_closed",
    "verify_isomorphism",
]
