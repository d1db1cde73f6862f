"""Exact-rational domain types and the approximation-factor algebra.

Objective vectors, bounds, weights and approximation factors are tuples of
arbitrary-precision rationals (``fractions.Fraction``).  Every comparison in
this package is exact; floats are rejected at the boundary so that no binary
rounding can ever leak into a guarantee check.

All types are immutable values and all operations are pure functions, so
everything here is safe to share freely between threads.  The package's
record classes, here and in the other modules, derive from ``Record``: a
slotted class with a hand-written ``__init__``, so importing the package
generates no code and does not import ``dataclasses``.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, TypeVar, Union

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"\A[+-]?\d+(?:/\d+)?\Z")


class ContractViolation(ValueError):
    """A caller broke a documented precondition."""


class MaximizationUnsupported(ContractViolation):
    """Raised when a solver handle is built on a maximization instance.

    Weighted-sum optima of a maximization problem can be worse than an
    unsupported solution by an arbitrarily large factor in all but one
    objective, so no bounded guarantee exists.  Every algorithm runs through
    a handle, and the handle refuses the instance, so no algorithm silently
    produces a set without a guarantee.
    """


MAXIMIZATION_REJECTION = (
    "maximization instance rejected: supported solutions admit no bounded "
    "weighted-sum approximation guarantee in more than one objective"
)


def check_rational_literal(text: str) -> str:
    """The stripped ``text`` if it is a literal that ``Fraction`` parses.

    The literal is ``"7"`` or ``"num/den"`` with a positive denominator,
    its digits from any script, and each digit run (sign excluded, leading
    zeros counted) is within ``sys.get_int_max_str_digits()``, as ``int()``
    requires.  Anything else raises ContractViolation; no int of more than
    one digit is built.
    """
    value = text.strip() if isinstance(text, str) else None
    if value is None or not _RATIONAL_RE.match(value):
        raise ContractViolation(f"not a rational literal: {text!r}")
    numerator, _, denominator = value.lstrip("+-").partition("/")
    # ``int`` reads decimal digits of any script, so zero can be spelt in
    # any; an ASCII digit left after the leading "0"s settles it at once.
    rest = denominator.lstrip("0")
    if denominator and not (rest and rest.isascii()) and not any(map(int, rest)):
        raise ContractViolation(f"zero denominator: {text!r}")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    for run in (numerator, denominator):
        if limit and len(run) > limit:
            raise ContractViolation(
                f"rational literal too long: Exceeds the limit ({limit} digits) for "
                f"integer string conversion: value has {len(run)} digits; use "
                "sys.set_int_max_str_digits() to increase the limit"
            )
    return value


def parse_rational(text: str) -> Fraction:
    """Parse ``"7"`` or ``"num/den"``; the denominator must be positive.
    The checked literal's digit runs are read by ``int``, so the text is not
    matched a second time, as ``Fraction(text)`` would."""
    numerator, _, denominator = check_rational_literal(text).partition("/")
    return Fraction(int(numerator), int(denominator or 1))


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"n"`` or ``"n/d"`` in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_rationals(values: Iterable[Fraction]) -> list[str]:
    """``format_rational`` of each value, in order."""
    return [format_rational(v) for v in values]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or rational string to a Fraction.

    Floats (and bools) are rejected: exactness is a package-wide invariant.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise ContractViolation(f"exact rational required, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ContractViolation(f"cannot interpret {value!r} as a rational")


def _rational_tuple(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(as_rational(v) for v in values)


class Direction(Enum):
    """Optimization sense of an instance; all objectives share it."""

    MIN = "min"
    MAX = "max"


class Record:
    """Immutable record whose fields are the ``__slots__`` of its classes,
    base first.  Each subclass's ``__init__`` stores them with
    ``object.__setattr__`` and then checks them.  Records are equal when
    their classes and field values are, hash by their field values, print
    as ``Name(field=value, ...)`` and pickle through their constructor.
    ``FrozenInstanceError`` is imported only to be raised, so importing the
    package does not load ``dataclasses``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


_V = TypeVar("_V", bound="_RationalVector")


class _RationalVector(Record):
    """Immutable tuple of exact rationals, ``values``; each subclass adds its
    invariant.  Equality and hashing are per subclass, so a weight vector
    never equals an image with the same values."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        if type(values) is not tuple or not all(type(v) is Fraction for v in values):
            values = _rational_tuple(values)
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls: type[_V], *values: RationalLike) -> _V:
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __getitem__(self, j: int) -> Fraction:
        return self.values[j]


class ObjectiveVector(_RationalVector):
    """Image f(x) of a feasible solution: p >= 2 strictly positive rationals."""

    __slots__ = ()

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        super().__init__(values)
        if len(self.values) < 2:
            raise ContractViolation("objective vectors need p >= 2 components")
        # a Fraction's denominator is positive, so its numerator carries its sign
        if any(v.numerator <= 0 for v in self.values):
            raise ContractViolation("objective values must be strictly positive")


class Bounds(Record):
    """Per-objective rationals with 0 < lower[j] <= upper[j] sandwiching all images."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: tuple[Fraction, ...], upper: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "lower", _rational_tuple(lower))
        object.__setattr__(self, "upper", _rational_tuple(upper))
        if len(self.lower) != len(self.upper):
            raise ContractViolation("bound tuples differ in dimension")
        for lo, hi in zip(self.lower, self.upper):
            if not 0 < lo <= hi:
                raise ContractViolation("bounds require 0 < lower <= upper")

    @property
    def p(self) -> int:
        return len(self.lower)


class WeightVector(_RationalVector):
    """Strictly positive weights of a weighted-sum scalarization."""

    __slots__ = ()

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        super().__init__(values)
        if not self.values:
            raise ContractViolation("empty weight vector")
        if any(w.numerator <= 0 for w in self.values):
            raise ContractViolation("weights must be strictly positive")

    def scalarize(self, image: ObjectiveVector) -> Fraction:
        """Exact weighted sum of an image under this weight vector."""
        if len(image) != len(self.values):
            raise ContractViolation("dimension mismatch")
        return sum((w * v for w, v in zip(self.values, image)), Fraction(0))


class FactorVector(_RationalVector):
    """Componentwise approximation factors, each >= 1."""

    __slots__ = ()

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        super().__init__(values)
        if any(f.numerator < f.denominator for f in self.values):
            raise ContractViolation("approximation factors must be >= 1")

    def excess_sum(self) -> Fraction:
        """Sum of the components that are strictly larger than 1."""
        return sum((f for f in self.values if f > 1), Fraction(0))


class FamilyKind(Enum):
    MULTI_FACTOR = "multifactor"
    UNIFORM = "uniform"


class GuaranteeFamily(Record):
    """Parametric set of factor vectors against which coverage is decided.

    ``bound`` is interpreted per kind:

    * MULTI_FACTOR: the set of all alpha >= 1 with alpha_i <= sigma for at
      least one i and the components above 1 summing to exactly ``bound``.
      The usual parametrization has bound = sigma * p + epsilon; the raw
      constructor admits any positive bound (used by tightness experiments,
      where the bound is a deficit such as p - epsilon).
    * UNIFORM: the single vector (bound, ..., bound).

    The biobjective guarantee of an exact solver, the pair
    {(1, 2 + epsilon), (2 + epsilon, 1)}, is ``multi_factor(1, epsilon, 2)``:
    at sigma = 1 one factor must equal 1, and the other carries the whole
    excess sum.
    """

    __slots__ = ("kind", "p", "sigma", "bound")

    def __init__(self, kind: FamilyKind, p: int, sigma: Fraction, bound: Fraction) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma", as_rational(sigma))
        object.__setattr__(self, "bound", as_rational(bound))
        if self.p < 2:
            raise ContractViolation("guarantee families require p >= 2")
        if self.sigma < 1:
            raise ContractViolation("sigma must be >= 1")
        if self.bound <= 0:
            raise ContractViolation("bound must be positive")

    @classmethod
    def multi_factor(
        cls, sigma: RationalLike, epsilon: RationalLike, p: int
    ) -> "GuaranteeFamily":
        """Family with escape coordinate <= sigma and excess sum sigma*p + epsilon."""
        sigma = as_rational(sigma)
        epsilon = as_rational(epsilon)
        if epsilon <= 0:
            raise ContractViolation("epsilon must be positive; use multi_factor_raw for deficits")
        return cls(FamilyKind.MULTI_FACTOR, p, sigma, sigma * p + epsilon)

    @classmethod
    def multi_factor_raw(
        cls, sigma: RationalLike, sum_bound: RationalLike, p: int
    ) -> "GuaranteeFamily":
        """Multi-factor family with an explicitly supplied excess-sum bound."""
        return cls(FamilyKind.MULTI_FACTOR, p, as_rational(sigma), as_rational(sum_bound))

    @classmethod
    def uniform(cls, sigma: RationalLike, epsilon: RationalLike, p: int) -> "GuaranteeFamily":
        """Single-vector family (sigma*p + epsilon, ..., sigma*p + epsilon)."""
        sigma = as_rational(sigma)
        epsilon = as_rational(epsilon)
        if epsilon <= 0:
            raise ContractViolation("epsilon must be positive; use uniform_raw for deficits")
        return cls(FamilyKind.UNIFORM, p, sigma, sigma * p + epsilon)

    @classmethod
    def uniform_raw(cls, bound: RationalLike, p: int) -> "GuaranteeFamily":
        return cls(FamilyKind.UNIFORM, p, Fraction(1), as_rational(bound))


def factor_vector(
    candidate: ObjectiveVector, target: ObjectiveVector, direction: Direction
) -> FactorVector:
    """Componentwise factors with which ``candidate`` approximates ``target``.

    Ratios below 1 (candidate strictly better in that objective) clip to 1,
    so the result is the unique minimal factor vector.
    """
    if len(candidate) != len(target):
        raise ContractViolation("dimension mismatch")
    one = Fraction(1)
    if direction is Direction.MIN:
        ratios = (c / t for c, t in zip(candidate, target))
    else:
        ratios = (t / c for c, t in zip(candidate, target))
    return FactorVector(tuple(max(one, r) for r in ratios))


def approximates(
    candidate: ObjectiveVector,
    target: ObjectiveVector,
    alpha: FactorVector,
    direction: Direction,
) -> bool:
    """True iff ``candidate`` alpha-approximates ``target``."""
    if len(candidate) != len(target) or len(alpha) != len(target):
        raise ContractViolation("dimension mismatch")
    if direction is Direction.MIN:
        return all(c <= a * t for c, a, t in zip(candidate, alpha, target))
    return all(a * c >= t for c, a, t in zip(candidate, alpha, target))
