"""Channel geometry for products of i.i.d. complex Gaussian matrices.

A multi-cluster scattering MIMO link with ``K0`` transmit antennas,
``n - 1`` scattering clusters of sizes ``K1 .. K(n-1)`` and ``Kn`` receive
antennas has the effective channel ``P = H_n @ ... @ H_1`` where ``H_i`` is
``K_i x K_(i-1)`` with i.i.d. unit-variance complex Gaussian entries.  This
module only carries the dimension bookkeeping; the distribution of
``X = ||P||_F**2`` lives in :mod:`rayprod.moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = ["ChannelConfig"]


@dataclass(frozen=True)
class ChannelConfig:
    """Ordered matrix dimensions ``(K0, K1, ..., Kn)`` of the product channel.

    ``dims[0]`` is the transmit dimension, ``dims[-1]`` the receive dimension,
    everything in between is a cluster size.  The nonzero eigenvalue law of
    ``P P^H`` is invariant under permutations of ``dims``, which legitimizes
    the internal canonical rotation used by the moment formulas.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(k) for k in self.dims)
        if dims != tuple(self.dims) and any(k != int(k) for k in self.dims):
            raise ParameterError(f"dims must be integers, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ParameterError("need at least two dimensions (K0, K1)")
        if any(k < 1 for k in dims):
            raise ParameterError(f"all dimensions must be >= 1, got {dims}")

    @property
    def n(self) -> int:
        """Number of matrix factors (``len(dims) - 1``)."""
        return len(self.dims) - 1

    @property
    def k_min(self) -> int:
        return min(self.dims)

    @property
    def canonical_dims(self) -> tuple[int, ...]:
        """Dims rotated so that a minimal dimension comes first."""
        i = self.dims.index(self.k_min)
        return self.dims[i:] + self.dims[:i]

    @property
    def normalization(self) -> int:
        """Channel energy normalization, the product of all dims except ``K0``."""
        return math.prod(self.dims[1:])

    def prefix(self, n: int) -> "ChannelConfig":
        """Sub-channel built from the first ``n`` factors, dims ``(K0, ..., Kn)``."""
        if not 1 <= n <= self.n:
            raise ParameterError(f"prefix length {n} outside 1..{self.n}")
        return ChannelConfig(self.dims[: n + 1])

    def __str__(self) -> str:
        return "[" + ",".join(str(k) for k in self.dims) + "]"
