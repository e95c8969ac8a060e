"""Channel geometry for products of i.i.d. complex Gaussian matrices.

A multi-cluster scattering MIMO link with ``K0`` transmit antennas,
``n - 1`` scattering clusters of sizes ``K1 .. K(n-1)`` and ``Kn`` receive
antennas has the effective channel ``P = H_n @ ... @ H_1`` where ``H_i`` is
``K_i x K_(i-1)`` with i.i.d. unit-variance complex Gaussian entries.  This
module only carries the dimension bookkeeping, the argument readers that
every public function shares (integers, seeds, scalars or arrays) and the
immutable-record base of the package's value classes; the distribution of
``X = ||P||_F**2`` lives in :mod:`rayprod.moments`.
"""

from __future__ import annotations

import math
import numbers
import operator

from .errors import ParameterError

__all__ = ["ChannelConfig"]


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int, refused unless it is an integral number of at
    least ``low`` (when given): a fractional part, NaN, an infinity or a
    non-number fails.  Integral floats such as ``3.0`` pass."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or (low is not None and number < low):
        bound = "" if low is None else f" >= {low}"
        raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")
    return number


def _check_seed(seed, largest: int = 2**64 - 1) -> int:
    """``seed`` as an int, refused unless an integer in ``[0, largest]``; the
    Philox key and the sample file hold 64 seed bits, hence the default."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if not 0 <= value <= largest:
        raise ParameterError(f"seed must be an integer in [0, {largest}], got {seed!r}")
    return value


def _is_scalar(x) -> bool:
    """Whether ``x`` is a number or a 0-d array, told without numpy."""
    # float first: the check for the numbers ABC costs several times more
    return isinstance(x, (float, numbers.Number)) or getattr(x, "ndim", None) == 0


def _elementwise(func, *args):
    """``func``, which maps lists of floats to a list or a tuple of lists, on
    scalars or arrays.

    With every argument a scalar, ``func`` gets one-element lists and each
    list it returns comes back as its one float.  Otherwise the arguments
    broadcast as float arrays and each list comes back as an array of their
    shape; numpy is imported here only, for array arguments.
    """
    if all(map(_is_scalar, args)):
        out = func(*[[float(a)] for a in args])
        return next(zip(*out)) if type(out) is tuple else out[0]
    import numpy as np

    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    out = func(*(a.ravel().tolist() for a in arrays))
    shape = arrays[0].shape
    if type(out) is tuple:
        return tuple([np.array(column, dtype=float).reshape(shape) for column in out])
    return np.array(out, dtype=float).reshape(shape)


class _Record:
    """Immutable record built from the fields its class lists in ``_fields``.

    Every field is given, by position or by name, and ``_check`` validates
    a new record; it may also set the attributes a class derives from its
    fields, which sit in its ``__slots__`` after them.  Records of one class
    compare and hash by their field tuples, and the ``repr`` reads
    ``Name(field=value, ...)``.  The package imports no :mod:`dataclasses`,
    whose import and per-class code generation cost milliseconds at
    start-up.
    """

    __slots__ = _fields = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = dict(zip(fields, args)) | kwargs
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() missing argument {key!r}")
            object.__setattr__(self, key, values[key])
        self._check()

    def _check(self) -> None:
        """Validate the fields; a record with preconditions overrides this."""

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

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
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ChannelConfig(_Record):
    """Ordered matrix dimensions ``(K0, K1, ..., Kn)`` of the product channel.

    ``dims[0]`` is the transmit dimension, ``dims[-1]`` the receive dimension,
    everything in between is a cluster size.  The nonzero eigenvalue law of
    ``P P^H`` is invariant under permutations of ``dims``, which legitimizes
    the internal canonical rotation used by the moment formulas.
    """

    __slots__ = _fields = ("dims",)  # tuple[int, ...]

    def _check(self):
        dims = tuple(_integer(k, "each dimension", 1) for k in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ParameterError("need at least two dimensions (K0, K1)")

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
