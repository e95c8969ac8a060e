"""Outage analysis for OSTBC transmission over multi-cluster scattering
MIMO channels, where the effective channel is a product of i.i.d. complex
Gaussian matrices.

The package computes exact integer moments of the squared Frobenius norm of
the product channel, fits a moment-matched Gamma-Laguerre CDF model, maps it
to outage probability and outage capacity, and validates everything against
a seeded Monte-Carlo simulator.
"""

from .channel import ChannelConfig
from .errors import (
    FitError,
    NumericError,
    ParameterError,
    RayprodError,
    ResourceError,
)
from .gamma_laguerre import GammaLaguerreModel, cdf, cdf_inverse, fit
from .moments import (
    MomentSet,
    closed_form_moment,
    exact_moment,
    leading_order_moment,
    mgf_moments,
    moment_set,
)
from .montecarlo import (
    Ecdf,
    SampleSet,
    load_samples,
    rayleigh_limit_distance,
    sample_frobenius,
    save_samples,
    variance_recursion,
)
from .ostbc import (
    OstbcScheme,
    db_to_linear,
    ostbc_catalog,
    outage_capacity,
    outage_probability,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "Ecdf",
    "FitError",
    "GammaLaguerreModel",
    "MomentSet",
    "NumericError",
    "OstbcScheme",
    "ParameterError",
    "RayprodError",
    "ResourceError",
    "SampleSet",
    "cdf",
    "cdf_inverse",
    "closed_form_moment",
    "db_to_linear",
    "exact_moment",
    "fit",
    "leading_order_moment",
    "load_samples",
    "mgf_moments",
    "moment_set",
    "ostbc_catalog",
    "outage_capacity",
    "outage_probability",
    "rayleigh_limit_distance",
    "sample_frobenius",
    "save_samples",
    "variance_recursion",
]
