"""Polynomial rings with commuting generalised Hasse-Schmidt operators.

Exact computation over Q: validated coefficient algebras, operator
variables and rankings, sparse polynomial arithmetic, reduction with
verifiable certificates, characteristic-set completion, and a classical
differential oracle reached by projection from the dual numbers.
"""

from .algebra import (
    AlgebraSpec,
    BlockSpec,
    DAlgebra,
    algebra_from_name,
    builtin,
    dump_spec,
    load_spec,
    make_block_spec,
    validate_algebra,
)
from .charset import (
    AutoreducedSet,
    CharSetResult,
    ClosureWitness,
    PrimePresentation,
    charset_complete,
    closure_step_witness,
    compare_autoreduced,
    d_ideal_generators,
    presentation,
    validate_autoreduced,
)
from .classical import (
    DiffPolynomial,
    DiffVar,
    dual_algebra,
    lift_to_dual,
    project_to_differential,
    ritt_reduce,
)
from .errors import DStarError, ExprParseError
from .operators import apply, apply_composition, block_image, parse_operator, rho
from .ordering import (
    CustomRanking,
    DVariable,
    Ranking,
    SequentialRanking,
    apply_slot,
    check_ranking_axioms,
    dickson_minimal,
    ord_delta,
    ord_i,
    parse_variable,
    transform_of,
)
from .parser import parse_generator_file, parse_poly
from .poly import DPolynomial, Monomial, format_poly, rank_compare
from .reduction import (
    DivisorSet,
    ReductionCertificate,
    a_leader,
    is_reduced,
    is_reduced_wrt_set,
    reduce,
    verify_certificate,
)

__version__ = "0.1.0"
