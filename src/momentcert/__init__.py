"""Certified two-sided bounds comparing moments of sums of independent
random variables to the matching Gaussian moments."""

from .bounds import (
    Assumption,
    BoundReport,
    SequenceSpec,
    bound_even_centered,
    bound_even_symmetric,
    bound_general_p,
    bound_p_2_4,
    check_centered_tail_bounds,
    check_rademacher_moment_ratio,
    check_symmetric_tail_bounds,
    compute_m,
    latala_logconcave_bounds,
    logconcave_radius,
    minimal_C_centered,
    minimal_C_symmetric,
)
from .charfn import (
    CharFunction,
    GridCheckReport,
    IntegralResult,
    check_cosine_bounds,
    check_main_charfn_inequality,
    default_t_grid,
    haagerup_constant,
    haagerup_moment,
)
from .combinatorics import (
    MultiIndex,
    count_no_singleton_compositions,
    count_support_compositions,
    elementary_symmetric,
    enumerate_indices,
    multinomial,
)
from .distmodel import (
    MomentProfile,
    VariableSpec,
    gaussian,
    rademacher,
    spec_from_atoms,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from .exactmoments import (
    gaussian_lp_norm,
    rademacher_abs_moment,
    rademacher_even_moment,
    sum_even_moment,
)
from .oracle import (
    Estimate,
    MCEstimate,
    NoEngine,
    SupportExplosion,
    Verdict,
    estimate_moment,
    exact_discrete_moment,
    mc_moment,
    verify_report,
)

__version__ = "0.1.0"
