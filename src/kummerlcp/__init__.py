"""Invariant non-special divisors on Kummer covers and complementary pairs
of evaluation codes over finite fields."""

from .errors import KummerError
from .ffield import FieldSpec, Poly, make_field, nth_roots, poly_analyze
from .curve import (
    CensusResult,
    Divisor,
    InvariantTuple,
    KummerCurve,
    Place,
    RamificationData,
    census,
    completely_split_values,
    ell_invariant,
    invariant_divisor,
    make_curve,
    principal_divisor,
    restrict,
    splitting_type,
)
from .nonspecial import (
    CriterionReport,
    bound_B,
    coeffs_all_ones,
    coeffs_half_double,
    coeffs_half_single,
    coeffs_lambda_two,
    criterion_check,
    enumerate_nonspecial,
)
from .codes import (
    Basis,
    BasisFunction,
    LCPPair,
    LinearCode,
    SpaceElement,
    build_code,
    eval_matrix,
    gf_rank,
    infinity_functional,
    lcp_build_general,
    lcp_build_regime,
    lcp_verify,
    min_distance_exact,
    rr_basis,
)
from .instances import (
    catalog,
    dickson,
    dickson_curve_double,
    dickson_curve_single,
    f49_curve,
    reproduce,
)

__version__ = "0.1.0"
