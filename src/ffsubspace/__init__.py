"""Exact arithmetic over Q(t): heights, Weil functions, Chow expansions,
Hilbert bounds, filtrations, effective constants, and the subspace
inequality checker."""

from .function_field import (
    INFINITY,
    Place,
    PlaceSet,
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
from .multipoly import HomogeneousPoly, monomial_basis, parse_poly

__all__ = [
    "INFINITY",
    "HomogeneousPoly",
    "IdealGenerators",
    "Place",
    "PlaceSet",
    "ProjectivePoint",
    "RationalFunction",
    "Scenario",
    "check_subgeneral_position",
    "divisor",
    "emit_report",
    "gauss_order_point",
    "gauss_order_poly",
    "graded_piece",
    "has_common_projective_zero",
    "height_elem",
    "height_point",
    "height_poly_family",
    "hilbert_function",
    "load_scenario",
    "monomial_basis",
    "nullstellensatz_certificate",
    "order_at",
    "parse_poly",
    "quotient_monomial_basis",
    "reduce_to_quotient_basis",
    "run_check",
    "weil",
    "weil_table",
]

__version__ = "0.1.0"
