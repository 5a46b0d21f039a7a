"""Symbolic workbench for Leavitt path algebras of finite directed graphs.

Exact arithmetic on the specialization basis, the associated filtration
order statistic, truncated arithmetic in the graded completion, and
finite-precision verifiers for the decomposition into minimal ideals.
"""

from .algebra import Element, LeavittAlgebra, Monomial, monomial_product
from .completion import (
    TruncatedElement,
    arrival_idempotent,
    equal_mod,
    exact,
    trunc_add,
    trunc_mul,
    truncate,
    vertex_idempotent,
)
from .expr import ParseError, parse, render
from .fields import QQ, ModInt, PrimeField, RationalField, parse_field
from .filtration import INF, min_order, order_of, params_of, product_precision
from .graph import Edge, Graph, Path, format_vertex_set
from .specialization import Specialization, SpecializationReport, construct_regular
from .structure import (
    DecompositionReport,
    Verdict,
    check_central_idempotent,
    check_collapse,
    check_ideal_transfer,
    check_partition,
    check_vertex_idempotent_laws,
    decompose,
    run_suite,
    vertex_recovery,
)

__all__ = [
    "Element",
    "LeavittAlgebra",
    "Monomial",
    "monomial_product",
    "TruncatedElement",
    "arrival_idempotent",
    "equal_mod",
    "exact",
    "trunc_add",
    "trunc_mul",
    "truncate",
    "vertex_idempotent",
    "ParseError",
    "parse",
    "render",
    "QQ",
    "ModInt",
    "PrimeField",
    "RationalField",
    "parse_field",
    "INF",
    "min_order",
    "order_of",
    "params_of",
    "product_precision",
    "Edge",
    "Graph",
    "Path",
    "format_vertex_set",
    "Specialization",
    "SpecializationReport",
    "construct_regular",
    "DecompositionReport",
    "Verdict",
    "check_central_idempotent",
    "check_collapse",
    "check_ideal_transfer",
    "check_partition",
    "check_vertex_idempotent_laws",
    "decompose",
    "run_suite",
    "vertex_recovery",
]

__version__ = "0.1.0"
