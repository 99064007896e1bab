"""Solver library for linear nonlocal ODEs f(d/dt) phi = J on t >= 0.

The operator f(d/dt) is defined through the Laplace transform of an
analytic symbol f(s).  Subpackages: symbol parsing and series, special
functions, transform machinery, the solvers, verification oracles, and
a batch CLI.
"""

from .special_functions import gamma_ln, inverse_zeta_bound_check, zeta
from .symbols import (
    AnalyticSymbol,
    DataSequence,
    SymbolSyntaxError,
    build_r_series,
    eval_symbol,
    format_symbol,
    laurent_coefficients,
    parse_symbol,
    taylor_coefficients,
)
from .transforms import (
    BromwichConfig,
    Forcing,
    bromwich_invert,
    builtin_forcing,
    forcing_from_text,
    hardy_norm,
    laplace_forward,
)
from .solver import (
    ClassicalIVP,
    GeneralizedIC,
    HypothesisError,
    PoleSpec,
    ResiduePolynomials,
    Solution,
    assemble_ivp_system,
    find_zeros,
    solve,
    solve_classical_ivp,
    solve_generalized,
    solve_with_poles,
)
from .oracles import (
    AnalyticVectorProfile,
    apply_truncated_series,
    classical_ode_reference,
    exponential_profile,
    residual_check,
)

__all__ = [
    "AnalyticSymbol",
    "AnalyticVectorProfile",
    "BromwichConfig",
    "ClassicalIVP",
    "DataSequence",
    "Forcing",
    "GeneralizedIC",
    "HypothesisError",
    "PoleSpec",
    "ResiduePolynomials",
    "Solution",
    "SymbolSyntaxError",
    "apply_truncated_series",
    "assemble_ivp_system",
    "bromwich_invert",
    "build_r_series",
    "builtin_forcing",
    "classical_ode_reference",
    "eval_symbol",
    "exponential_profile",
    "find_zeros",
    "forcing_from_text",
    "format_symbol",
    "gamma_ln",
    "hardy_norm",
    "inverse_zeta_bound_check",
    "laplace_forward",
    "laurent_coefficients",
    "parse_symbol",
    "residual_check",
    "solve",
    "solve_classical_ivp",
    "solve_generalized",
    "solve_with_poles",
    "taylor_coefficients",
    "zeta",
]
