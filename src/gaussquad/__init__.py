"""Gauss-Legendre quadrature rebuilt along the classical route.

The package derives interpolatory and Gaussian quadrature rules from exact
rational arithmetic: node polynomials and moment series are multiplied and
split into polynomial part plus descending tail, weights come out of the
polynomial part, error coefficients out of the tail, and the optimal node
polynomials arise as denominators of continued-fraction convergents of the
moment series.  Decimal floating point at configurable precision enters
only for root extraction and rule application.
"""

from .gausscf import (
    LegendrePair,
    annihilating_node_poly,
    cf_coefficient,
    gauss_rule,
    leading_error_constant,
    legendre_pair,
    weight_polynomial,
)
from .interprule import (
    T01,
    U11,
    ErrorSeries,
    QuadRule,
    apply_rule,
    error_coefficients,
    interpolatory_rule,
    named_integrand,
    newton_cotes,
    node_terms,
    to_convention,
)
from .momseries import (
    SeriesTail,
    cauchy_expansion_of_rule,
    divide_tail_by_poly,
    moment_series_t,
    moment_series_u,
    product_split,
)
from .numerics import (
    DEFAULT_PRECISION,
    format_fixed,
    format_sig,
    hp_ln,
    hp_log10_scaled,
    to_hp,
)
from .ratpoly import RatPoly, mod_inverse_eval
from .rootfind import RootIsolationError

__all__ = [
    "DEFAULT_PRECISION",
    "ErrorSeries",
    "LegendrePair",
    "QuadRule",
    "RatPoly",
    "RootIsolationError",
    "SeriesTail",
    "T01",
    "U11",
    "annihilating_node_poly",
    "apply_rule",
    "cauchy_expansion_of_rule",
    "cf_coefficient",
    "divide_tail_by_poly",
    "error_coefficients",
    "format_fixed",
    "format_sig",
    "gauss_rule",
    "hp_ln",
    "hp_log10_scaled",
    "interpolatory_rule",
    "leading_error_constant",
    "legendre_pair",
    "mod_inverse_eval",
    "moment_series_t",
    "moment_series_u",
    "named_integrand",
    "newton_cotes",
    "node_terms",
    "product_split",
    "to_convention",
    "to_hp",
    "weight_polynomial",
]

__version__ = "0.1.0"
