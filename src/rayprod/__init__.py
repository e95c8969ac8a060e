"""Outage analysis for OSTBC transmission over multi-cluster scattering
MIMO channels, where the effective channel is a product of i.i.d. complex
Gaussian matrices.

The package computes exact integer moments of the squared Frobenius norm of
the product channel, fits a moment-matched Gamma-Laguerre CDF model, maps it
to outage probability and outage capacity, and validates everything against
a seeded Monte-Carlo simulator.

The simulator's names load :mod:`rayprod.montecarlo`, and with it numpy, on
first use: the moments, the model and the outage maps run on plain floats,
so ``import rayprod`` does not load numpy; no module imports scipy.
"""

from . import channel, errors, gamma_laguerre, moments, ostbc
from .channel import *
from .errors import *
from .gamma_laguerre import *
from .moments import *
from .ostbc import *

__version__ = "0.1.0"

# montecarlo builds its __all__ from this set: importing it here would load numpy
_MONTECARLO = frozenset({
    "Ecdf",
    "SampleSet",
    "load_samples",
    "rayleigh_limit_distance",
    "sample_frobenius",
    "save_samples",
})

__all__ = sorted(_MONTECARLO.union(channel.__all__, errors.__all__, gamma_laguerre.__all__,
                                   moments.__all__, ostbc.__all__))


def __getattr__(name):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
