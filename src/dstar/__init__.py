"""Polynomial rings with commuting generalised Hasse-Schmidt operators.

Exact computation over Q: validated coefficient algebras, operator
variables and rankings, sparse polynomial arithmetic, reduction with
verifiable certificates, characteristic-set completion, and a classical
differential oracle reached by projection from the dual numbers.

Importing the package loads none of its modules.  A public name, or a
submodule name such as ``dstar.algebra``, imports its submodule the
first time it is read (PEP 562), so a process compiles only the modules
it uses.
"""

from importlib import import_module as _import_module

# each public name, by the submodule that defines it
_EXPORTS = {
    "algebra": ("AlgebraSpec", "BlockSpec", "DAlgebra", "algebra_from_name", "builtin",
                "dump_spec", "load_spec", "make_block_spec", "validate_algebra"),
    "charset": ("AutoreducedSet", "CharSetResult", "ClosureWitness", "PrimePresentation",
                "charset_complete", "closure_step_witness", "compare_autoreduced",
                "d_ideal_generators", "presentation", "validate_autoreduced"),
    "classical": ("DiffPolynomial", "DiffVar", "dual_algebra", "lift_to_dual",
                  "project_to_differential", "ritt_reduce"),
    "errors": ("DStarError", "ExprParseError"),
    "operators": ("apply", "apply_composition", "block_image", "parse_operator", "rho"),
    "ordering": ("CustomRanking", "DVariable", "Ranking", "SequentialRanking", "apply_slot",
                 "check_ranking_axioms", "dickson_minimal", "ord_delta", "ord_i",
                 "parse_variable", "transform_of"),
    "parser": ("parse_generator_file", "parse_poly"),
    "poly": ("DPolynomial", "Monomial", "format_poly", "rank_compare"),
    "reduction": ("DivisorSet", "ReductionCertificate", "a_leader", "is_reduced",
                  "is_reduced_wrt_set", "reduce", "verify_certificate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:        # importing a submodule binds it here
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
