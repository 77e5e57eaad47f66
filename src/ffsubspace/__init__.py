"""Exact arithmetic over Q(t): heights, Weil functions, Chow expansions,
Hilbert bounds, filtrations, effective constants, and the subspace
inequality checker."""

from .chow import generalized_cross_product, multihomform_to_json
from .filtration import height_sandwich_check, order_by_vanishing
from .function_field import (
    INFINITY,
    Place,
    ProjectivePoint,
    RationalFunction,
    divisor,
    gauss_order_point,
    gauss_order_poly,
    height_elem,
    height_point,
    height_poly_family,
    order_at,
    weil,
    weil_table,
)
from .graded_ideal import (
    IdealGenerators,
    check_subgeneral_position,
    graded_piece,
    has_common_projective_zero,
    hilbert_function,
    nullstellensatz_certificate,
    quotient_monomial_basis,
    reduce_to_quotient_basis,
)
from .harness import Scenario, emit_report, load_scenario, run_check
from .hilbert_bounds import T_lower_bound, power_sum_bounds, ratio_check
from .multipoly import HomogeneousPoly, monomial_basis, parse_poly

__all__ = [
    "INFINITY",
    "HomogeneousPoly",
    "IdealGenerators",
    "Place",
    "ProjectivePoint",
    "RationalFunction",
    "Scenario",
    "T_lower_bound",
    "check_subgeneral_position",
    "divisor",
    "emit_report",
    "gauss_order_point",
    "gauss_order_poly",
    "generalized_cross_product",
    "graded_piece",
    "has_common_projective_zero",
    "height_elem",
    "height_point",
    "height_poly_family",
    "height_sandwich_check",
    "hilbert_function",
    "load_scenario",
    "monomial_basis",
    "multihomform_to_json",
    "nullstellensatz_certificate",
    "order_at",
    "order_by_vanishing",
    "parse_poly",
    "power_sum_bounds",
    "quotient_monomial_basis",
    "ratio_check",
    "reduce_to_quotient_basis",
    "run_check",
    "weil",
    "weil_table",
]

__version__ = "0.1.0"
