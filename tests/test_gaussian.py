"""Q(i) as one reduced integer triple (a + b*i)/d."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from carousel.gaussian import I, ONE, ZERO, GaussianRational


class PairReference:
    """re + im*i as two Fractions: the textbook arithmetic to compare against."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, x: GaussianRational) -> "PairReference":
        return cls(x.re, x.im)

    def __add__(self, o):
        return PairReference(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return PairReference(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return PairReference(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return PairReference(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        result = PairReference(1)
        for _ in range(abs(n)):
            result = result * base
        return result

    def conjugate(self):
        return PairReference(self.re, -self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return self._imag(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{self._imag(abs(self.im))}"

    @staticmethod
    def _imag(im):
        return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"


def triple(x: GaussianRational) -> tuple:
    return (x.a, x.b, x.d)


def canonical(x: GaussianRational) -> bool:
    return x.d > 0 and gcd(x.a, x.b, x.d) == 1


def agrees(x: GaussianRational, ref: PairReference) -> bool:
    return canonical(x) and (x.re, x.im) == (ref.re, ref.im)


class TestCanonicalForm:
    def test_lowest_terms_with_positive_denominator(self):
        x = GaussianRational(Fraction(2, 4), Fraction(-6, 8))
        assert triple(x) == (2, -3, 4)
        assert triple(GaussianRational(Fraction(-3, 9))) == (-1, 0, 3)
        assert triple(GaussianRational(0, Fraction(5, 10))) == (0, 1, 2)

    def test_zero_is_one_triple(self):
        zeros = [ZERO, GaussianRational(), GaussianRational(0, 0),
                 GaussianRational(Fraction(0, 7)), I - I,
                 GaussianRational(Fraction(1, 3)) * 0,
                 GaussianRational(Fraction(1, 3), 2) - GaussianRational(Fraction(1, 3), 2)]
        assert {triple(z) for z in zeros} == {(0, 0, 1)}

    def test_cancellation_reduces(self):
        x = GaussianRational(Fraction(1, 6), Fraction(1, 6)) + GaussianRational(
            Fraction(1, 3), Fraction(-1, 6)
        )
        assert triple(x) == (1, 0, 2)
        assert triple(GaussianRational(1, 1) * GaussianRational(1, -1) / 4) == (1, 0, 2)

    def test_parts_are_fractions(self):
        x = GaussianRational(Fraction(3, 4), -2)
        assert type(x.re) is Fraction and type(x.im) is Fraction
        assert (x.re, x.im) == (Fraction(3, 4), Fraction(-2))
        assert type(ONE.re) is Fraction and type(ONE.im) is Fraction

    def test_constants(self):
        assert triple(ZERO) == (0, 0, 1)
        assert triple(ONE) == (1, 0, 1)
        assert triple(I) == (0, 1, 1)
        assert I * I == -1

    def test_from_value(self):
        x = GaussianRational(1, 2)
        assert GaussianRational.from_value(x) is x
        assert triple(GaussianRational.from_value(5)) == (5, 0, 1)
        assert triple(GaussianRational.from_value(Fraction(-4, 6))) == (-2, 0, 3)
        with pytest.raises(TypeError):
            GaussianRational.from_value(0.5)
        with pytest.raises(TypeError):
            GaussianRational(0.5)


class TestImmutability:
    @pytest.mark.parametrize("name", ["a", "b", "d", "re", "im", "other"])
    def test_attributes_cannot_be_set(self, name):
        x = GaussianRational(1, 2)
        with pytest.raises(AttributeError):
            setattr(x, name, 3)
        assert triple(x) == (1, 2, 1)

    def test_constants_are_unchanged_by_arithmetic(self):
        y = ONE + I
        y = y * 2
        assert triple(ONE) == (1, 0, 1) and triple(I) == (0, 1, 1)


class TestEqualityAndHash:
    @pytest.mark.parametrize("q", [0, 1, -7, 2**70, Fraction(1, 3), Fraction(-22, 7),
                                   Fraction(2**65 + 1, 2**64)])
    def test_real_values_match_int_and_fraction(self, q):
        x = GaussianRational(q)
        assert x == q and q == x
        assert hash(x) == hash(q)
        assert hash(x) == hash(Fraction(q))
        assert not (x != q)

    def test_non_real_differs_from_its_real_part(self):
        x = GaussianRational(Fraction(1, 2), 1)
        assert x != Fraction(1, 2)
        assert x == GaussianRational(Fraction(2, 4), Fraction(3, 3))
        assert hash(x) == hash(GaussianRational(Fraction(2, 4), Fraction(3, 3)))

    def test_other_types_are_not_equal(self):
        assert GaussianRational(Fraction(1, 2)) != 0.5
        assert GaussianRational(1) != "1"

    def test_usable_as_dict_key_next_to_ints(self):
        table = {GaussianRational(3): "x", Fraction(1, 2): "y"}
        assert table[3] == "x"
        assert table[GaussianRational(Fraction(1, 2))] == "y"


class TestDivisionByZero:
    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            1 / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO ** -1


_RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_GAUSSIAN = st.builds(GaussianRational, _RATIONAL, _RATIONAL)
_OPERAND = st.one_of(_GAUSSIAN, st.integers(-20, 20), _RATIONAL)


def _ref(x) -> PairReference:
    return PairReference.of(x) if isinstance(x, GaussianRational) else PairReference(x)


@seed(7)
@settings(max_examples=300, deadline=None)
@given(_GAUSSIAN, _OPERAND)
def test_ring_operations_match_the_pair_reference(x, y):
    rx, ry = _ref(x), _ref(y)
    assert agrees(x + y, rx + ry)
    assert agrees(y + x, rx + ry)
    assert agrees(x - y, rx - ry)
    assert agrees(y - x, ry - rx)
    assert agrees(x * y, rx * ry)
    assert agrees(y * x, rx * ry)
    assert agrees(-x, PairReference(0) - rx)
    if ry.re or ry.im:
        assert agrees(x / y, rx / ry)
    if rx.re or rx.im:
        assert agrees(y / x, ry / rx)
        assert agrees(x.inverse(), rx.inverse())


@seed(7)
@settings(max_examples=200, deadline=None)
@given(_GAUSSIAN, st.integers(-6, 6))
def test_powers_conjugate_and_str_match_the_pair_reference(x, n):
    rx = PairReference.of(x)
    if n >= 0 or rx.re or rx.im:
        assert agrees(x**n, rx**n)
    assert agrees(x.conjugate(), rx.conjugate())
    assert str(x) == str(rx)
    assert x == GaussianRational(rx.re, rx.im)
    assert hash(x) == hash(GaussianRational(rx.re, rx.im))
