"""Truncated formal power series of logarithmic type.

A series lives at one of two orders:

* ``OrderTag.ZERO`` -- ordinary polynomials.  The basis element lam_a is
  x**a for a >= 0 and vanishes for a < 0.
* ``OrderTag.GENERIC`` -- any fixed nonzero order.  Degrees range over
  all integers, bounded above; every identity implemented here has the
  same coefficients for every nonzero order, so a single tag suffices.

Coefficients are kept in a finite map degree -> Fraction, together with
an *exactness floor*: degrees at or above the floor that are absent are
exactly zero, degrees below the floor were truncated away and are
unknown.  All operations are pure and propagate the floor so that every
retained coefficient is provably exact.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator, Mapping
from enum import Enum
from fractions import Fraction
from types import MappingProxyType

__all__ = ["OrderTag", "LogSeries", "harmonic", "zero_series"]

_TOO_MANY_DIGITS = 10**4300  # the least integer with 4301 digits


class OrderTag(Enum):
    ZERO = "zero"
    GENERIC = "generic"


class Frozen:
    """An immutable value: its fields are the names in ``__slots__``, set
    once by ``__init__`` and then compared, hashed and printed by value,
    as a frozen dataclass's are.  A coefficient map is stored read-only,
    as a ``MappingProxyType``: it hashes as the frozenset of its items and
    prints as a dict.  A coefficient that is a ``Fraction`` is stored as
    the object given, and any other value is converted to one, so values
    share coefficients, and are shared themselves, without a copy.  A
    value with a list or dict field, as ``SeqTable``, is compared and
    printed but not hashable.  The ``dataclasses`` module is not used
    because it imports ``inspect``: about 0.9 MB of resident memory in
    every process that imports logalg."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        values = (frozenset(v.items()) if type(v) is MappingProxyType else v for v in self._values())
        return hash(tuple(values))

    def __repr__(self) -> str:
        shown = (dict(v) if type(v) is MappingProxyType else v for v in self._values())
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, shown))
        return f"{type(self).__name__}({fields})"


class LogSeries(Frozen):
    """A truncated series (see the module docstring).  A ``Fraction``
    coefficient is stored as given; any other value, an int, a bool or a
    ``Fraction`` subclass, is converted with ``Fraction``."""

    __slots__ = ("order", "floor", "coeffs")

    def __init__(self, order: OrderTag, floor: int, coeffs: Mapping[int, Fraction | int] | None = None) -> None:
        clean = {d: c if type(c) is Fraction else Fraction(c) for d, c in (coeffs or {}).items() if c != 0}
        if order is OrderTag.ZERO:
            floor = max(floor, 0)
        low = min(clean, default=floor)  # the clamped floor: an empty map trips no check
        if low < 0 and order is OrderTag.ZERO:
            raise ValueError("polynomial-order series cannot carry negative degrees")
        if low < floor:
            raise ValueError("coefficient below the exactness floor")
        super().__init__(order, floor, MappingProxyType(clean))

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def top_degree(self) -> int | None:
        """Largest degree with a nonzero coefficient, or None for the zero series."""
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, a: int) -> Fraction:
        if a < self.floor:
            raise ValueError(f"degree {a} is below the exactness floor {self.floor}")
        return self.coeffs.get(a, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """(degree, coefficient) pairs in descending degree order."""
        return iter(sorted(self.coeffs.items(), reverse=True))

    # -- vector-space structure --------------------------------------

    def __add__(self, other: "LogSeries") -> "LogSeries":
        if self.order is not other.order:
            raise ValueError("cannot add series of different orders")
        floor = max(self.floor, other.floor)
        out = {d: c for d, c in self.coeffs.items() if d >= floor}
        for d, c in other.coeffs.items():
            if d >= floor:
                out[d] = out.get(d, 0) + c
        return LogSeries(self.order, floor, out)

    def __sub__(self, other: "LogSeries") -> "LogSeries":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "LogSeries":
        c = Fraction(c)
        return LogSeries(self.order, self.floor, {d: c * v for d, v in self.coeffs.items()})

    def __neg__(self) -> "LogSeries":
        return self.scale(-1)

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "LogSeries":
        """Apply D: the coefficient at m becomes roman(m+1) * c_{m+1}.

        At polynomial order the constant term simply dies; at generic
        order D lam_0 = lam_{-1}, the hallmark of the logarithmic algebra.
        """
        return self._d_power(1)

    def antiderivative(self) -> "LogSeries":
        """Apply D**-1.  Only defined at generic order, where D is invertible."""
        return self._d_power(-1)

    def _d_power(self, n: int) -> "LogSeries":
        """D**n, known deep enough that the floor moves by exactly n."""
        from .operators import monomial_op  # operators imports this module

        return monomial_op(n, n + max(self.coeffs, default=self.floor) - self.floor).apply(self)

    def shift(self, z: Fraction | int) -> "LogSeries":
        """Apply the shift E^z = sum_k z^k D^k / k!, known through
        D^(top - floor), so that the floor is preserved.  On the basis,
        E^z lam_a = sum_{k>=0} rc(a,k) z^k lam_{a-k}."""
        from .operators import shift_op  # operators imports this module

        return shift_op(z, max(self.coeffs, default=self.floor) - self.floor).apply(self)

    def eval_functional(self) -> Fraction:
        """The augmentation: the coefficient of lam_0.

        Requires floor <= 0, otherwise the answer would live in the
        truncated-away region.
        """
        if self.floor > 0:
            raise ValueError("floor > 0: the lam_0 coefficient was truncated away")
        return self.coeffs.get(0, Fraction(0))

    def truncate(self, new_floor: int) -> "LogSeries":
        """Raise the exactness floor, dropping coefficients below it; ``self``
        when the floor does not rise, as nothing is dropped."""
        if new_floor <= self.floor:
            return self
        return LogSeries(self.order, new_floor, {d: c for d, c in self.coeffs.items() if d >= new_floor})

    # -- serialization ------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "order": self.order.value,
            "floor": self.floor,
            "coeffs": [[d, str(c)] for d, c in self.items()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj: dict) -> "LogSeries":
        try:
            order = OrderTag(obj["order"])
            coeffs = {exact_int(d): exact_rational(c) for d, c in obj["coeffs"]}
            floor = exact_int(obj["floor"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"malformed series object: {exc}") from exc
        return cls(order, floor, coeffs)

    @classmethod
    def from_json(cls, text: str) -> "LogSeries":
        try:
            _check_digit_runs(text)  # a JSON integer is parsed by int()
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError is one
            raise ValueError(f"invalid series JSON: {exc}") from exc
        return cls.from_obj(obj)


def exact_int(value) -> int:
    """An integer read from a JSON field: an int or an integral float, so
    2.9, 1e400, true and "3" are rejected instead of coerced."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _check_digit_runs(text: str) -> None:
    """Reject a run of more than 4300 digits, which int() and Fraction()
    refuse with Python's own text.  Only a text this long can hold one;
    int() skips the underscores in a run."""
    for run in re.findall(r"\d[\d_]*", text) if len(text) > 4300 else ():
        digits = len(run) - run.count("_")
        if digits > 4300:
            raise ValueError(f"a run of {digits} digits exceeds the limit of 4300 digits")


def exact_rational(value) -> Fraction:
    """A coefficient read from a JSON field: an integer or a rational or
    decimal string.  Floats are rejected: their binary value is inexact.
    Python's int/str conversion stops at 4300 digits, so a string with a
    run of more digits is rejected before it is parsed, an exponent
    beyond +-4300 before 10**e is built, and a numerator or denominator
    of more than 4300 digits, as in "1e4300", once it is built."""
    if type(value) not in (int, str):
        raise ValueError(f"expected an integer or a rational string, got {value!r}")
    if type(value) is str:
        _check_digit_runs(value)
        _, e, exponent = value.lower().partition("e")
        try:
            big = bool(e) and abs(int(exponent)) > 4300
        except ValueError:  # not an integer exponent: Fraction names the string
            big = False
        if big:
            raise ValueError(f"decimal exponent {exponent} exceeds 4300 in magnitude")
    try:
        out = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    if abs(out.numerator) >= _TOO_MANY_DIGITS or out.denominator >= _TOO_MANY_DIGITS:
        raise ValueError("a coefficient's numerator or denominator exceeds 4300 digits")
    return out


def zero_series(order: OrderTag, floor: int) -> LogSeries:
    return LogSeries(order, floor, {})


def harmonic(order: OrderTag, a: int, floor: int) -> LogSeries:
    """The harmonic logarithm lam_a as a one-term series.

    At polynomial order, lam_a = 0 for a < 0.
    """
    if order is OrderTag.ZERO and a < 0:
        return zero_series(order, floor)
    if floor > a:
        raise ValueError(f"floor {floor} lies above the requested degree {a}")
    return LogSeries(order, floor, {a: Fraction(1)})
