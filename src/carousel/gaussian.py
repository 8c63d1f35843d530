"""Gaussian rational numbers: the exact coefficient field Q(i).

An element is stored as one reduced integer triple ``(a + b*i) / d`` with
``d > 0`` and ``gcd(a, b, d) = 1``, so every value has exactly one form
and equality is a compare of three integers.  Each operation is a few
integer multiplications and one ``math.gcd``.  The real and imaginary
parts are also available as ``fractions.Fraction`` through ``re`` and
``im``; those build a Fraction per call and are meant for printing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


class GaussianRational:
    """An element (a + b*i)/d of Q(i), immutable, in lowest terms."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        ra, rd = _rational_pair(re)
        ia, id_ = _rational_pair(im)
        d = rd * id_ // gcd(rd, id_)
        _set_a(self, ra * (d // rd))
        _set_b(self, ia * (d // id_))
        _set_d(self, d)

    def __setattr__(self, *args):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_value(cls, x) -> "GaussianRational":
        if type(x) is GaussianRational:
            return x
        a, d = _rational_pair(x)
        return _make(a, 0, d)

    # -- parts ----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == 1 and self.d == 1 and not self.b

    def is_real(self) -> bool:
        return not self.b

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_value(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return from_integers(self.a + other.a, self.b + other.b, d1)
        return from_integers(
            self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_value(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return from_integers(self.a - other.a, self.b - other.b, d1)
        return from_integers(
            self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2
        )

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def __mul__(self, other):
        if type(other) is int:
            return from_integers(self.a * other, self.b * other, self.d)
        if type(other) is not GaussianRational:
            other = GaussianRational.from_value(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return from_integers(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return from_integers(a * d, -b * d, n)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_value(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        d2 = other.d
        return from_integers(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self.d * n
        )

    def __rtruediv__(self, other):
        return GaussianRational.from_value(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.from_value(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.b:
            return str(self.re)
        im = _imag_str(self.im)
        if not self.a:
            return im
        sign = "+" if self.b > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    # the triple must already be in lowest terms with d > 0
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def from_integers(a: int, b: int, d: int = 1) -> GaussianRational:
    """The element (a + b*i)/d for integers a, b and d > 0, reduced."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


def _rational_pair(x) -> tuple:
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build a rational from {type(x).__name__}")


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
