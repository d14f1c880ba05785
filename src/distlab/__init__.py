"""distlab: a grid-level laboratory for distortion inequalities,
distribution functions, staircase approximations and superlevel
Sobolev estimates."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    Ball,
    Box,
    Grid,
    MatrixField,
    ScalarField,
    VectorMap,
    build_grid,
    differential,
    gradient,
    integrate,
    jacobian,
    op_norm,
    sample,
    sphere_trace,
    truncate,
)
from .distribution import (  # noqa: F401
    StepDistribution,
    cavalieri_residual,
    neg_power_integral,
    pos_power_integral,
    upper_distribution,
    verify_level_bounds,
)
from .staircase import (  # noqa: F401
    MonotoneFn,
    StaircaseResult,
    staircase_approx,
)
from .sobolev import (  # noqa: F401
    InequalityReport,
    band_bound_check,
    sharp_sobolev_check,
    superlevel_check,
    unit_ball_volume,
)
from .distortion import (  # noqa: F401
    DistortionData,
    DistortionReport,
    jacobian_parts,
    normalize_low_distortion,
    pointwise_distortion,
    residual_defect,
    verify_distortion,
    weighted_zero_integral_check,
    zero_integral_check,
)
from .monotonicity import (  # noqa: F401
    BallExtrema,
    ChainLedger,
    DefectFit,
    ModulusFit,
    awm_defect,
    ball_extrema,
    dyadic_osc_integral,
    essosc_profile,
    fit_defect_law,
    log_power_fit,
    modulus_curve,
    sup_bound_chain,
)
from .gallery import Example, list_examples, make_example  # noqa: F401
from .fieldio import read_field, write_field  # noqa: F401
