"""Expected hyperbolic volumes of random beta polytopes in the Klein ball.

The closed unit ball carries the Klein model of hyperbolic space:
geodesics are Euclidean segments, convex hulls are the ordinary ones,
and hyperbolic volume is the integral of (1-|x|^2)^(-(d+1)/2).  For n
independent points with beta densities proportional to (1-|x|^2)^beta_i
(beta = -1 meaning uniform on the sphere), this package evaluates the
expected hyperbolic volume and, more generally, expected beta integrals
of the random hull -- by closed-form subset sums where available and by
certified double-exponential quadrature otherwise -- and verifies the
results independently with exact rational arithmetic and Monte-Carlo
geometry oracles.
"""

from .abcore import (
    ParamMultiset,
    a_fn,
    a_ones,
    a_prime,
    a_prime_odd_repeated,
    b_fn,
    b_fn_alt,
    b_ones,
)
from .exact import PiPoly
from .expect import (
    BetaSpec,
    ExpectationResult,
    NotRepresentableError,
    SubsetClass,
    alternating_harmonic_sum,
    enumerate_classes,
    expected_beta_integral,
    expected_hyp_volume,
    ideal_polytope3,
    ideal_polytope3_via_sum,
    ideal_simplex_volume,
    polygon_beta0,
    theta_fn,
)
from .mcsim import (
    DegenerateHullError,
    McEstimate,
    SampleConfig,
    contains,
    hull_d2,
    hull_d3,
    hyp_area_polygon_d2,
    ideal_tetra_volume,
    mc_absorption,
    mc_ideal_polytope3_volume,
    sample_beta_point,
)
from .quad import QuadConfig, QuadratureError, ValueWithError, integrate_finite, integrate_real_line
from .specfun import (
    c_d_beta,
    c_one_dim,
    f_imag,
    f_real,
    gamma_ratio_half,
    harmonic,
    inc_beta,
    lobachevsky,
    log_gamma,
    p_m_poly,
)

__version__ = "0.1.0"
