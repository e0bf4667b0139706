"""Numerical laboratory for zero-free ("hole") events of random entire Taylor series.

The package evaluates, at desk scale, the exact formulas that govern hole
probabilities of Gaussian Taylor series: the qualifying-index log-sum S(r),
a certified coefficient-confinement lower-bound event, zero counting by the
argument principle with an Aberth-Ehrlich root oracle, the closed-form volume of
product-constrained boxes, circulant covariance log-determinants with their
Vandermonde minor bound, and the saddle-point coefficient asymptotics behind
forced-zero experiments for unimodular coefficients.
"""

__version__ = "0.1.0"

from .coeff_models import (
    CoefficientModel,
    ModelKind,
    peak_index_range,
    s_asymptotic,
    s_of_r,
    s_of_r_detail,
    tail_log_bound,
)
from .sampling import (
    Distribution,
    draw_coeffs,
    draw_rows,
    sample_seed,
    sample_seeds,
    truncation_degree,
    truncation_tail_bound,
)
from .evaluate_zeros import (
    TruncatedSeries,
    ZeroCountError,
    ZeroCountResult,
    count_zeros_disk,
    min_zero_modulus,
    roots_truncated,
)
from .hole_estimators import (
    HoleEstimate,
    OmegaCertificate,
    hole_bracket_report,
    hole_mc,
    omega_certificate,
    omega_conditioned_sample,
    omega_log_prob,
)
from .volume_geometry import (
    VolumeMCResult,
    VolumeQuery,
    volume_exact,
    volume_mc,
    volume_upper_bound,
)
from .covariance_det import (
    CovarianceSpec,
    grid_points,
    logdet_circulant,
    logdet_dense,
    vandermonde_lower_bound,
)
from .hermite_asymptotics import (
    HermiteSeries,
    annulus_escape,
    forced_zero_experiment,
    hermite_coeffs,
    saddle_point_approx,
    saddle_point_log_approx,
)
