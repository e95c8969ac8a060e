"""Channel geometry for products of i.i.d. complex Gaussian matrices.

A multi-cluster scattering MIMO link with ``K0`` transmit antennas,
``n - 1`` scattering clusters of sizes ``K1 .. K(n-1)`` and ``Kn`` receive
antennas has the effective channel ``P = H_n @ ... @ H_1`` where ``H_i`` is
``K_i x K_(i-1)`` with i.i.d. unit-variance complex Gaussian entries.  This
module only carries the dimension bookkeeping, and the immutable-record
base that the package's value classes share; the distribution of
``X = ||P||_F**2`` lives in :mod:`rayprod.moments`.
"""

from __future__ import annotations

import math

from .errors import ParameterError

__all__ = ["ChannelConfig"]


class _Record:
    """Immutable record whose fields are its class's ``__slots__``.

    Fields are given by position or by name; ``_defaults`` holds those that
    may be left out, and ``_check`` validates a new record.  Records of one
    class compare and hash by their field tuples, and the ``repr`` reads
    ``Name(field=value, ...)``.  The package imports no :mod:`dataclasses`,
    whose import and per-class code generation cost milliseconds at start-up.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields, name = self.__slots__, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() missing argument {key!r}")
            object.__setattr__(self, key, values[key])
        self._check()

    def _check(self) -> None:
        """Validate the fields; a record with preconditions overrides this."""

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked like a new record."""
        return type(self)(**{key: getattr(self, key) for key in self.__slots__} | changes)

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class ChannelConfig(_Record):
    """Ordered matrix dimensions ``(K0, K1, ..., Kn)`` of the product channel.

    ``dims[0]`` is the transmit dimension, ``dims[-1]`` the receive dimension,
    everything in between is a cluster size.  The nonzero eigenvalue law of
    ``P P^H`` is invariant under permutations of ``dims``, which legitimizes
    the internal canonical rotation used by the moment formulas.
    """

    __slots__ = ("dims",)  # tuple[int, ...]

    def _check(self):
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

    def __str__(self) -> str:
        return "[" + ",".join(str(k) for k in self.dims) + "]"
