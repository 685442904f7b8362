"""Exact classification machinery for endomorphisms of simple abelian
varieties: fixed-point counts of iterates, growth type, topological entropy
and its algebraic certificates, over exact rational / number-field /
quaternion arithmetic with certified complex enclosures.
"""

from .algnum import AlgebraicNumber, exterior_power, from_rational, root_product
from .classify import (
    EntropyReport,
    GrowthReport,
    SalemReport,
    Spectrum,
    classify_growth,
    entropy,
    is_automorphism,
    is_salem_polynomial,
    rational_eigenvalues,
)
from .enclosures import ComplexEnclosure, isolate_roots, unit_circle_status
from .errors import (
    CrossCheckError,
    DegreeCapExceeded,
    DivisibilityViolation,
    EndoscopeError,
    NonIntegralElement,
    NonSquarefreeInput,
    NotSimpleAlbertType,
    PrecisionExhausted,
    ValidationError,
)
from .factorq import factor, is_irreducible
from .lefschetz import (
    AlbertType,
    EndomorphismSpec,
    admissibility_check,
    companion_oracle,
    fixed_point_table,
    fixed_points_exact,
)
from .numfield import (
    FieldTypeReport,
    NFElement,
    NumberField,
    cm_structure,
    is_totally_real,
    rationals_field,
)
from .qpoly import QPoly, cyclotomic_order, from_ints, resultant
from .quaternion import (
    DefinitenessReport,
    QuatAlgebra,
    QuatElement,
    definiteness,
    hilbert_symbol,
    is_division,
    rational_quaternion_is_division,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
