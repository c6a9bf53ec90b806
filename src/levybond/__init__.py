"""Perpetual convertible-bond stopping game under spectrally positive Levy dynamics.

The package is layered bottom-up:

``model``
    process parameterisation, Laplace exponent, its right inverse, Esscher
    tilts and jump integrals;
``scale``
    q-scale functions by partial-fraction closed forms or certified numeric
    Laplace inversion;
``solver``
    regime classification, optimal thresholds, value function and fit
    diagnostics for the issuer/holder stopping game;
``mc``
    Monte Carlo path engines verifying values, exit identities and the
    saddle-point property;
``cli``
    config-driven command line front end.
"""

from .errors import (
    AccuracyError,
    BracketError,
    ConfigError,
    DivergentExponent,
    DomainError,
    LevyBondError,
    MomentConditionError,
    RegimeError,
    SubordinatorError,
    TruncationWarning,
)
from .model import (
    ExponentialJumps,
    JumpSpec,
    LevyModel,
    NoJumps,
    PathVariation,
    TabulatedDensity,
    bounded_variation_model,
    esscher_tilt,
    exp_growth_rate,
    jump_intensity,
    laplace_exponent,
    meets_discount_condition,
    path_variation,
    phi,
    sample_jump_sizes,
    shifted_jump_integrals,
)
from .scale import (
    Method,
    ScaleEvaluator,
    laplace_selfcheck,
    scale_evaluator,
    tilted_w,
    w,
    w_integrals,
    w_prime,
    z,
)
from .solver import (
    IMMEDIATE_STOP,
    FitKind,
    FitReport,
    GameParams,
    ImmediateStop,
    Regime,
    RegimeSolution,
    a_star,
    c_star,
    call_boundary_value,
    classify,
    exit_expectation,
    fit_report,
    g_function,
    q0,
    q1,
    value,
    value_profile,
)
from .mc import (
    PayoffEstimate,
    SaddleComparison,
    SaddleReport,
    SimConfig,
    estimate_game_value,
    estimate_game_values,
    mc_eligible,
    saddle_check,
    sup_exponential_moment,
    two_sided_exit,
    upcrossing_discount_profile,
    wiener_hopf_check,
)

__version__ = "0.1.0"
