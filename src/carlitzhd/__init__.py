"""Exact hyperderivative calculus over F_q(theta).

Finite fields, exact polynomial/rational arithmetic, Hasse-derivative jets,
Laurent series in u = 1/(lambda * theta), the period and Omega objects, the
transfer coefficients, eta products, Anderson-Thakur polynomials, period
coordinates of tensor powers by three independent routes, and a verification
suite over all of it.
"""

__version__ = "0.1.0"

from .errors import (
    CarlitzhdError,
    ConstraintViolated,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    InsufficientL,
    NonPrimeCharacteristic,
    NonUnitConstantTerm,
    PoleAtTheta,
    PrecisionExhausted,
    ReducibleModulus,
)
from .gf import Field, FqElem, field_new
from .binomials import binom_mod_p
from .rings import (
    VARS_T,
    VARS_TT,
    Poly,
    RatFunc,
    SJet,
    poly_divexact,
    poly_gcd,
    taylor_shift,
)
from .jets import (
    Jet,
    d_t_jet,
    d_theta_jet,
)
from .useries import (
    INF_PREC,
    TPoly,
    USeries,
    d_theta_useries,
    embed_k,
    hasse_du,
    theta_series,
    useries_agree,
    useries_diff_witness,
)
from .carlitz import (
    CarlitzCtx,
    CheckCell,
    PeriodCoords,
    Report,
    VERIFY_SELECTORS,
    Gamma_poly,
    D_poly,
    L_poly,
    at_poly,
    b_rat,
    carlitz_combinatorics,
    curlyL_poly,
    dtheta_pitilde,
    eta_rat,
    eta_sjet,
    gamma_poly,
    minimal_l,
    omega_theta_eval_jet,
    omega_tpoly,
    pitilde,
    verify_lagrange,
    verify_suite,
    z_via_at,
    z_via_eta,
    z_via_omega,
)

__all__ = [
    "__version__",
    # errors
    "CarlitzhdError", "ConstraintViolated", "DegreeMismatch",
    "DivisionByZero", "FieldMismatch",
    "InsufficientL", "NonPrimeCharacteristic", "NonUnitConstantTerm",
    "PoleAtTheta", "PrecisionExhausted", "ReducibleModulus",
    # gf / binomials
    "Field", "FqElem", "field_new", "binom_mod_p",
    # rings
    "VARS_T", "VARS_TT", "Poly", "RatFunc", "SJet",
    "poly_divexact", "poly_gcd", "taylor_shift",
    # jets
    "Jet", "d_t_jet", "d_theta_jet",
    # useries
    "INF_PREC", "TPoly", "USeries", "d_theta_useries", "embed_k", "hasse_du",
    "theta_series", "useries_agree", "useries_diff_witness",
    # carlitz
    "CarlitzCtx", "CheckCell", "PeriodCoords", "Report", "VERIFY_SELECTORS",
    "Gamma_poly", "D_poly", "L_poly", "at_poly", "b_rat",
    "carlitz_combinatorics", "curlyL_poly", "dtheta_pitilde",
    "eta_rat", "eta_sjet", "gamma_poly", "minimal_l", "omega_theta_eval_jet",
    "omega_tpoly", "pitilde", "verify_lagrange", "verify_suite", "z_via_at",
    "z_via_eta", "z_via_omega",
]
