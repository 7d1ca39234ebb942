"""Exact Hochschild cohomology of k<X,Y>/(X^a, XY - qYX, Y^a) at a root of unity.

The package builds the algebra and its minimal free bimodule resolution,
computes cohomology dimensions by two independent routes plus a brute-force
tensor-power oracle, realizes products on even classes through explicit
chain-map liftings, and machine-verifies every identity it relies on.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    ConventionError,
    EnvElement,
    FrobeniusData,
    MixedContextError,
    QuantumCompleteIntersection,
    center_basis,
    element_from_text,
    element_to_text,
    env_from_text,
    frobenius_verify,
    nakayama_twist,
    trace_form,
)
from .bar import BarComplex, SizeError
from .cohomology import (
    BasisError,
    Cochain,
    CohomologyClass,
    DimensionTable,
    NotCocycleError,
    delta_matrix,
    dimension_table,
    express,
    hh_dimension_ext,
    hh_dimension_tor,
    hom_differential,
    standard_basis,
)
from .linalg import NotContainedError, SparseMatrix, Subspace, coset_basis
from .resolution import (
    OrderError,
    VariantError,
    beta_element,
    differential,
    structure_element,
    verify_resolution,
)
from .scalars import (
    NoRootError,
    c_sequence,
    cyclotomic_field,
    cyclotomic_polynomial,
    k_sum,
    prime_field,
    prime_field_for,
    rational_field,
    smallest_prime_modulus,
)
from .yoneda import (
    LiftingFamily,
    NonScalarError,
    TableMismatchError,
    build_lifting,
    nilpotency_witness,
    reduced_ring_table,
    relations_check,
    sum_identity_check,
    verify_lifting,
    yoneda_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
