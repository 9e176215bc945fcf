"""Signed tropical numbers: exact max-plus arithmetic with a sign bit.

A signed tropical number is a pair (sign, value) with sign in {+1, -1, 0};
sign 0 is the bottom element, written "-inf", and is the only element
without a finite value.  Values are exact rationals.  Multiplication adds
values and multiplies signs; addition is defined only between numbers of
equal sign (or with the bottom element) and keeps the larger value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from typing import Union

from .errors import OppositeSigns


class _MinusInf:
    """Bottom element of the value group: absorbing for +, below every rational."""

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        # only positive scaling arises (squared minor terms)
        if isinstance(other, (int, Fraction)) and other > 0:
            return self
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other):
        return not isinstance(other, _MinusInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _MinusInf)

    def __eq__(self, other):
        return isinstance(other, _MinusInf)

    def __hash__(self):
        return hash(("tropsdp", "-inf"))

    def __repr__(self):
        return "-inf"


#: The unique -inf value; compare with ``is`` or ``==``.
MINUS_INF = _MinusInf()

#: An extended rational: a Fraction or MINUS_INF.
ExtRat = Union[Fraction, _MinusInf]


def is_minus_inf(v: ExtRat) -> bool:
    return isinstance(v, _MinusInf)


def _check_count(n: int, x, what: str = "coordinates") -> None:
    """The one count rule of points and pencils: ValueError unless x holds n
    items, named by what."""
    if len(x) != n:
        raise ValueError(f"expected {n} {what}, got {len(x)}")


def _check_symmetric(rows) -> None:
    """The one symmetry rule of square matrices: ValueError naming the first
    (i, j), i > j in row order, where rows differs from its transpose.  Tuple
    equality with the transpose skips a pair that holds one object twice."""
    rows = tuple(map(tuple, rows))
    if rows != tuple(zip(*rows)):
        i, j = next((i, j) for i in range(len(rows)) for j in range(i) if rows[i][j] != rows[j][i])
        raise ValueError(f"matrix not symmetric at ({i},{j})")


class _Value:
    """Base of the package's immutable value classes: equality (same class
    only), hash, repr "Name(field=value, ...)" and pickling, all by the
    tuple of fields.  A subclass names its fields in __slots__ (in _fields
    if it keeps a __dict__) and its __init__ sets them with
    object.__setattr__; after that, assigning or deleting any attribute
    raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        fields = cls._fields = cls.__dict__.get("__slots__", cls._fields)
        get = attrgetter(*fields) if fields else lambda obj: ()
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(fields) != 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the slots leave no __dict__ to restore: rebuild through __init__
        return type(self), self._values(self)


class SignedTrop(_Value):
    """A signed tropical number (sign, value); sign 0 iff value is -inf."""

    __slots__ = ("sign", "value")

    def __init__(self, sign: int, value: ExtRat):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign!r}")
        if sign == 0:
            if not is_minus_inf(value):
                raise ValueError("the bottom element has no finite value")
        else:
            if not isinstance(value, Fraction):
                raise ValueError(f"finite value must be a Fraction, got {value!r}")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "value", value)

    def __repr__(self):
        return f"SignedTrop({format_signed(self)!r})"


TROP_MINUS_INF = SignedTrop(0, MINUS_INF)


def pos(v) -> SignedTrop:
    """Tropically positive number with the given rational value."""
    return SignedTrop(1, Fraction(v))


def neg(v) -> SignedTrop:
    """Tropically negative number with the given rational value."""
    return SignedTrop(-1, Fraction(v))


def tmul(a: SignedTrop, b: SignedTrop) -> SignedTrop:
    """Tropical multiplication: values add, signs multiply; -inf absorbs."""
    s = a.sign * b.sign
    if s == 0:
        return TROP_MINUS_INF
    return SignedTrop(s, a.value + b.value)


def tadd(a: SignedTrop, b: SignedTrop) -> SignedTrop:
    """Tropical addition, defined only for equal signs; -inf is neutral.

    Raises OppositeSigns on a positive/negative pair: cancellation has no
    single-valued result here, callers must detect vanishing instead.
    """
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.sign != b.sign:
        raise OppositeSigns(f"{format_signed(a)} (+) {format_signed(b)} is undefined")
    return SignedTrop(a.sign, max(a.value, b.value))


def modulus(a: SignedTrop) -> ExtRat:
    """Drop the sign: |a| = |(-)a| = a, |-inf| = -inf."""
    return a.value


def format_signed(a: SignedTrop) -> str:
    """Textual encoding: "-inf", "+p/q" or "-p/q" (sign character mandatory)."""
    if a.sign == 0:
        return "-inf"
    return ("+" if a.sign > 0 else "-") + str(a.value)


# Fraction's grammar without the exponent: Fraction("1e10000000") builds a
# ten-million-digit integer before anything can refuse it.  ASCII digits and
# spaces only: Fraction also reads Unicode digits, so "\u0663" would be 3
_RATIONAL = re.compile(r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+|\d+\.)\s*", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """A rational read from outside text: "p", "p/q" or a decimal, signed.
    Exponent notation, a zero denominator or anything else raises ValueError."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational without exponent: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def parse_signed(text: str) -> SignedTrop:
    """Inverse of format_signed; raises ValueError on malformed input."""
    s = text.strip()
    if s == "-inf":
        return TROP_MINUS_INF
    if not s or s[0] not in "+-":
        raise ValueError(f"missing sign character in tropical number {text!r}")
    try:
        value = parse_rational(s[1:])
    except ValueError as exc:
        raise ValueError(f"bad rational in tropical number {text!r}") from exc
    return SignedTrop(1 if s[0] == "+" else -1, value)
