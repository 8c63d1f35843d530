"""Exact polynomial core: parser, calculus, elimination, normal forms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import carousel.poly as poly_mod
from carousel.gaussian import ZERO, GaussianRational
from carousel.poly import (
    MAX_DEGREE,
    ParseError,
    Polynomial,
    PolynomialError,
    divexact,
    linear_change,
    parse_polynomial,
    poly_gcd,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)

XY = ("x", "y")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


_COEFFS = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(min_value=-2, max_value=2),
)
_MONOMIALS = st.builds(
    lambda i, j, c: Polynomial(XY, {(i, j): c}),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    _COEFFS.filter(lambda c: not c.is_zero()),
)


def _polynomials(max_x=3, max_y=3, through_origin=False):
    """Polynomials in x, y with degrees at most max_x and max_y and at most
    four terms; through_origin drops the constant term."""
    exps = st.tuples(
        st.integers(min_value=0, max_value=max_x),
        st.integers(min_value=0, max_value=max_y),
    )
    if through_origin:
        exps = exps.filter(any)
    return st.dictionaries(exps, _COEFFS, max_size=4).map(lambda t: Polynomial(XY, t))


def _sylvester(p, q, var):
    """Test-only reference: the Sylvester determinant of p and q in `var`,
    the deg(p) shifted rows of q first, by cofactor expansion down the
    first column with zero entries skipped."""
    m, n = p.degree(var), q.degree(var)
    zero = Polynomial.zero(p.as_univariate(var)[0].variables)
    qc, pc = q.as_univariate(var)[::-1], p.as_univariate(var)[::-1]
    rows = [[zero] * i + qc + [zero] * (m - 1 - i) for i in range(m)]
    rows += [[zero] * i + pc + [zero] * (n - 1 - i) for i in range(n)]

    def det(rows):
        if not rows:
            return zero + 1
        total = zero
        for i, row in enumerate(rows):
            if not row[0].is_zero():
                minor = det([r[1:] for k, r in enumerate(rows) if k != i])
                total = total + (row[0] * minor).scale((-1) ** i)
        return total

    return det(rows)


# cheaper to draw than _COEFFS (no st.fractions), which matters at 200 examples
_SMALL_COEFFS = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), b),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def _resultant_pairs(draw):
    """(p, q) over ('y',), ('x', 'y') or ('u', 'v', 'y') with deg_y 1-4,
    drawn so that equal degrees, deg p > deg q with both odd, and a
    shared factor all occur."""
    variables = draw(st.sampled_from([("y",), ("x", "y"), ("u", "v", "y")]))

    def poly(deg_y):
        rest = [st.integers(min_value=0, max_value=2)] * (len(variables) - 1)
        exps = st.tuples(*rest, st.integers(min_value=0, max_value=deg_y))
        terms = draw(st.dictionaries(exps, _SMALL_COEFFS, max_size=4))
        lead = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in rest)
        terms[lead + (deg_y,)] = draw(_SMALL_COEFFS.filter(lambda c: not c.is_zero()))
        return Polynomial(variables, terms)

    degrees = st.integers(min_value=1, max_value=4)
    dp, dq = draw(
        st.one_of(
            st.tuples(degrees, degrees),
            st.sampled_from([(1, 1), (2, 2), (3, 3), (4, 4), (3, 1)]),
        )
    )
    if not draw(st.booleans()):
        return poly(dp), poly(dq), False
    shared = poly(1)
    return poly(dp - 1) * shared, poly(dq - 1) * shared, True


class TestParser:
    def test_two_term_reading(self):
        p = P("x^5 - y^2")
        assert p.terms == {
            (5, 0): GaussianRational(1),
            (0, 2): GaussianRational(-1),
        }

    def test_zero_polynomial(self):
        assert P("0").is_zero()

    def test_expansion(self):
        assert P("(x+y)^2 - x*y") == P("x^2 + x*y + y^2")

    def test_rational_and_imaginary_coefficients(self):
        p = P("3/2*x + i*y - (1+2*i)")
        assert p.terms[(1, 0)] == GaussianRational(Fraction(3, 2))
        assert p.terms[(0, 1)] == GaussianRational(0, 1)
        assert p.terms[(0, 0)] == GaussianRational(-1, -2)

    def test_print_parse_roundtrip(self):
        rng = random.Random(7)
        for _ in range(40):
            p = _random_poly(rng, degree=5, terms=6)
            assert P(str(p)) == p

    def test_syntax_error_is_positioned(self):
        with pytest.raises(ParseError) as err:
            P("x^5 - + y")
        assert err.value.position == 6

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            P("x + z")

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            P("x^y")
        with pytest.raises(ParseError):
            P("x^-2")

    def test_degree_bound_refuses_before_expanding(self):
        # the exponent is refused at its own position, unexpanded
        with pytest.raises(ParseError, match="degree above") as err:
            P("x^99999999 + y^2")
        assert err.value.position == 2
        with pytest.raises(ParseError, match="degree above") as err:
            P("(x + y)^100000")
        assert err.value.position == 8
        with pytest.raises(ParseError, match="degree above"):
            P("(x^2)^129")
        with pytest.raises(ParseError, match="degree above") as err:
            P("x^200 * y^57")
        assert err.value.position == 8
        assert P("x^200 * y^56").total_degree() == MAX_DEGREE
        assert P("0 * x^3").is_zero()

    def test_power_matches_repeated_product(self):
        base = P("x - 2*y + i")
        product = P("1")
        for n in range(9):
            assert base**n == product
            product = product * base


class TestDerivative:
    def test_power_rule(self):
        assert P("x^5 - y^2").partial_derivative("y") == P("-2*y")

    def test_constant(self):
        assert P("5").partial_derivative("x").is_zero()

    def test_product_terms(self):
        assert P("x*y^3 + y").partial_derivative("y") == P("3*x*y^2 + 1")

    def test_unknown_variable(self):
        with pytest.raises(PolynomialError):
            P("x").partial_derivative("z")


class TestResultant:
    def test_parabola_against_axis(self):
        # Sylvester determinant with the q-rows listed first gives -x
        r = resultant(P("y^2 - x"), P("y"), "y")
        assert r == P("-x", ("x",))

    def test_two_linear(self):
        r = resultant(P("y - a", ("a", "b", "y")), P("y - b", ("a", "b", "y")), "y")
        assert r == P("b - a", ("a", "b"))

    def test_common_factor_gives_zero(self):
        assert resultant(P("y^2 + 1"), P("y^2 + 1"), "y").is_zero()

    def test_degenerate_degree(self):
        with pytest.raises(PolynomialError):
            resultant(P("x"), P("y"), "y")

    def test_swap_sign(self):
        rng = random.Random(3)
        for _ in range(12):
            p = _random_poly(rng, degree=3, terms=4)
            q = _random_poly(rng, degree=3, terms=4)
            if p.degree("y") < 1 or q.degree("y") < 1:
                continue
            lhs = resultant(p, q, "y")
            rhs = resultant(q, p, "y")
            sign = (-1) ** (p.degree("y") * q.degree("y"))
            assert lhs == rhs.scale(sign)

    def test_degree_gap_after_the_first_step(self):
        # an abnormal pair in y: degrees 6 and 5, then a remainder of degree
        # 3, a gap of 2.  The first step leaves h = x + 1, so the gap step's
        # h = g^2/h differs from g^2, and the next step divides by it
        b = P("(x + 1)*y^5 + x*y + 1")
        a = b * P("y") + P("(x - 2)*y^3 + y^2 + x")
        assert len(poly_mod._prem(a.as_univariate("y"), b.as_univariate("y"))) == 4
        for p, q in ((a, b), (b, a)):
            assert resultant(p, q, "y") == _sylvester(p, q, "y")

    @seed(12)
    @settings(max_examples=200, deadline=None)
    @given(_resultant_pairs())
    def test_matches_sylvester_determinant(self, pair):
        p, q, shared = pair
        r = resultant(p, q, "y")
        assert r == _sylvester(p, q, "y")
        assert r.is_zero() or not shared



@st.composite
def _univariate_products(draw):
    """(p, z): c * z^j * prod g_i^k_i with z one of x, y, c non-real and
    each g_i of degree 1 or 2; the g_i may share factors with each other
    and with z."""
    var = draw(st.sampled_from(XY))
    z = Polynomial.variable(XY, var)
    content = draw(_COEFFS.filter(lambda c: not c.is_real()))
    p = Polynomial.constant(XY, content) * z ** draw(st.integers(min_value=0, max_value=3))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        coeffs = draw(st.lists(_COEFFS, min_size=2, max_size=3).filter(lambda c: not c[-1].is_zero()))
        g = Polynomial(XY, {tuple(k if v == var else 0 for v in XY): c for k, c in enumerate(coeffs)})
        p = p * g ** draw(st.integers(min_value=1, max_value=3))
    return p, var


class TestSquarefree:
    def test_repeated_factor(self):
        assert squarefree_part(P("(v - u^5)^2", ("u", "v"))) == P("u^5 - v", ("u", "v"))

    def test_already_squarefree(self):
        assert squarefree_part(P("v - u^5", ("u", "v"))) == P("u^5 - v", ("u", "v"))

    def test_monomial(self):
        assert squarefree_part(P("u^2*v", ("u", "v"))) == P("u*v", ("u", "v"))

    def test_power_invariance(self):
        rng = random.Random(11)
        for _ in range(8):
            p = _random_poly(rng, degree=3, terms=3)
            if p.is_zero() or p.is_constant():
                continue
            base = squarefree_part(p)
            for k in (1, 2, 3):
                assert squarefree_part(p**k) == base

    def test_decomposition_structure(self):
        p = P("x^2*y^3*(x+y)")
        parts = squarefree_decomposition(p)
        assert [(str(f), k) for f, k in parts] == [("x + y", 1), ("x", 2), ("y", 3)]
        rebuilt = Polynomial.constant(XY, 1)
        for f, k in parts:
            rebuilt = rebuilt * f**k
        assert rebuilt.monic() == p.monic()


    def test_gcd_with_a_gaussian_content(self):
        # gcd(p, p') = (1 + i)*((1 + i)*z + 1) keeps the Gaussian content 1 + i
        parts = squarefree_decomposition(P("((1+i)*z + 1)^2", ("z",)))
        assert [(str(f), k) for f, k in parts] == [("z + (1/2-1/2*i)", 2)]

    @seed(18)
    @settings(max_examples=150, deadline=None)
    @given(_univariate_products().filter(lambda case: not case[0].is_constant()))
    def test_univariate_decomposition(self, case):
        p, var = case
        parts = squarefree_decomposition(p)
        mults = [k for _, k in parts]
        assert mults == sorted(set(mults))
        rebuilt = Polynomial.constant(XY, 1)
        for i, (f, k) in enumerate(parts):
            assert f.leading()[1].is_one()
            assert poly_gcd(f, f.partial_derivative(var)).is_constant()
            assert all(poly_gcd(f, g).is_constant() for g, _ in parts[:i])
            rebuilt = rebuilt * f**k
        assert rebuilt == p.monic()


class TestGcd:
    def test_unlucky_first_sample_points(self):
        # the cofactors agree at y = 0, 1 and -1, so the images there have
        # too high a degree and the interpolation must move past them
        g = P("x^2 + x*y^2 - 3*y + 1")
        d = poly_gcd(g * P("x + y^3 - y"), g * P("x - y^3 + y"))
        assert d == g.monic()

    def test_declared_but_unused_variable(self):
        xyt = ("x", "y", "t")
        p = P("(x - t)*(x + t)", xyt)
        q = P("(x + t)^2", xyt)
        assert poly_gcd(p, q) == P("x + t", xyt)
        assert squarefree_part(p * q) == P("x^2 - t^2", xyt)
        assert squarefree_decomposition(p * q) == [
            (P("x - t", xyt), 1),
            (P("x + t", xyt), 3),
        ]

    def test_three_variables_in_use_are_refused(self):
        xyt = ("x", "y", "t")
        with pytest.raises(PolynomialError, match="more than two variables"):
            poly_gcd(P("x*y + t", xyt), P("x*t + y", xyt))

    def test_monomial_argument(self):
        assert poly_gcd(P("x^3*y + x^2*y^2"), P("x^2*y^5")) == P("x^2*y")
        assert poly_gcd(P("3*x^2*y^5"), P("x^3*y + x^2*y^2")) == P("x^2*y")
        assert poly_gcd(P("x^2*y^5"), P("x + y")) == P("1")
        # every divisor of a monomial is a monomial, in any number of variables
        xyt = ("x", "y", "t")
        p = P("x^3*y*t + x^2*y^2*t^2 + x^4*y^3*t", xyt)
        assert poly_gcd(p, P("x^2*y^5*t^3", xyt)) == P("x^2*y*t", xyt)
        assert poly_gcd(P("2*t^2", xyt), P("x*t^3 + y*t^4", xyt)) == P("t^2", xyt)

    def test_common_factor_in_one_variable_only(self):
        # the images in x at any y are coprime; only the images in y at a
        # fixed x see the common factor y^2 + 1
        p = P("(y^2 + 1)*(x + y)")
        q = P("(y^2 + 1)*(x - y)")
        assert poly_gcd(p, q) == P("y^2 + 1")
        assert poly_gcd(p * P("x - y"), q * P("x + y")) == P("x^2*y^2 + x^2 - y^4 - y^2")

    def test_unlucky_image_at_one(self, monkeypatch):
        # both vanish at the origin, and at y = 1 their images x^2 and x^3
        # share x^2, so the certificate fails and the subresultant
        # sequence of the primitive parts decides
        p = P("x^2 + y^2 - y")
        q = P("x^3 + y^2 - y")
        calls = []
        real = poly_mod.content_primitive
        monkeypatch.setattr(
            poly_mod, "content_primitive", lambda *a: calls.append(a) or real(*a)
        )
        assert poly_gcd(p, q) == P("1")
        assert calls
        g = P("x + 2*y")
        assert poly_gcd(g * p, g * q) == g.monic()

    def test_sequence_step_with_a_degree_gap(self, monkeypatch):
        # the first remainder has degree 3 in x, two below the 5 before
        # it, so the second step has delta = 2 and divides by h^(delta - 1)
        # a scale h that is a polynomial in y, as no leading coefficient in
        # x is constant
        steps = []
        real = poly_mod._prem
        monkeypatch.setattr(
            poly_mod, "_prem", lambda A, B: steps.append((len(A) - 1, len(B) - 1)) or real(A, B)
        )
        g = P("x + y")
        p = g * P("(y^2 + 2)*x^4 + 3*y^2")
        q = g * P("(y - 1)*x^5 + 2*x^4*y + 3*x^2*y^2 + x*y^2")
        assert poly_gcd(p, q) == g.monic()
        assert any(a - b >= 2 for a, b in steps[1:])

    def test_leading_coefficient_vanishing_at_the_first_sample(self):
        # both leading coefficients in x are multiples of y - 1, and at
        # y = 1 the common factor drops to the constant 1 in both images
        h = P("x*y - x + 1")
        assert poly_gcd(h * P("x + 2"), h * P("x - 2")) == h.monic()
        assert poly_gcd(h * P("x*y + 2"), h * P("x*y - 2")) == h.monic()

    def test_coprime_germ_and_derivative_skip_brown(self, monkeypatch):
        # coprime pairs never get past the image test to the sequence
        def refuse(*args):
            raise AssertionError("the subresultant gcd ran on a coprime pair")

        monkeypatch.setattr(poly_mod, "content_primitive", refuse)
        monkeypatch.setattr(poly_mod, "_subresultants", refuse)
        for germ in ("y^2 - x^3 - x^4", "x^4 + x^2*y^2 + y^4", "(y - x^2)^2 - x^5"):
            f = P(germ)
            assert poly_gcd(f, f.partial_derivative("x")) == P("1")
            assert poly_gcd(f.partial_derivative("x"), f.partial_derivative("y")) == P("1")

    @seed(10)
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            _MONOMIALS,
            _polynomials(max_x=0),
            _polynomials(max_y=0),
            _polynomials(through_origin=True),
        ),
        _polynomials(),
        _polynomials(),
    )
    def test_gcd_of_multiples(self, g, a, b):
        assert poly_gcd(g * a, g * b) == (g * poly_gcd(a, b)).monic()

    def test_divexact_raises_on_a_remainder(self):
        with pytest.raises(PolynomialError, match="inexact"):
            divexact(P("x^2 + y"), P("x + y"))
        with pytest.raises(PolynomialError, match="inexact"):
            divexact(P("(x + y)*(x - y) + 1"), P("x - y"))
        assert divexact(P("(x + y)*(x - y)"), P("x - y")) == P("x + y")

    def test_unit_scale_and_division_return_the_operand(self):
        # polynomials are immutable, so a factor of 1 rebuilds nothing
        p = P("x^2 + 3*x*y")
        assert p.scale(1) is p
        assert divexact(p, P("1")) is p
        assert p.scale(-1) == -p


class TestLinearChange:
    def test_identity_change(self):
        out = linear_change(P("x"), P("x"), P("y"))
        assert str(out) == "u"

    def test_hyperbolic_rotation(self):
        out = linear_change(P("x^2 - y^2"), P("x + y"), P("x - y"))
        assert str(out) == "u*w"

    def test_swap(self):
        out = linear_change(P("y"), P("y"), P("x"))
        assert str(out) == "u"

    def test_dependent_forms(self):
        with pytest.raises(PolynomialError):
            linear_change(P("x"), P("x + y"), P("2*x + 2*y"))


class TestOrderAtOrigin:
    def test_m2_germ(self):
        assert P("x^5 - y^2").order_at_origin() == 2

    def test_order_one(self):
        assert P("x + y^3").order_at_origin() == 1

    def test_constant(self):
        assert P("3").order_at_origin() == 0

    def test_zero_errors(self):
        with pytest.raises(PolynomialError):
            P("0").order_at_origin()


class TestRingAxioms:
    def test_associativity_and_distributivity(self):
        rng = random.Random(0)
        for _ in range(25):
            a = _random_poly(rng, degree=6, terms=8)
            b = _random_poly(rng, degree=6, terms=8)
            c = _random_poly(rng, degree=6, terms=8)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_exact_division_roundtrip(self):
        rng = random.Random(5)
        for _ in range(15):
            a = _random_poly(rng, degree=4, terms=5)
            b = _random_poly(rng, degree=4, terms=5)
            if b.is_zero():
                continue
            assert divexact(a * b, b) == a

    def test_gcd_divides_both(self):
        rng = random.Random(9)
        for _ in range(10):
            a = _random_poly(rng, degree=3, terms=3)
            b = _random_poly(rng, degree=3, terms=3)
            g = _random_poly(rng, degree=2, terms=2)
            if a.is_zero() or b.is_zero() or g.is_zero():
                continue
            d = poly_gcd(a * g, b * g)
            ca = divexact(a * g, d)
            cb = divexact(b * g, d)
            if not g.is_constant():
                assert not d.is_constant()
            # greatest: a common factor of the cofactors would have positive
            # degree in some variable and make that resultant vanish
            for v in XY:
                if ca.degree(v) > 0 and cb.degree(v) > 0:
                    assert not resultant(ca, cb, v).is_zero()


def _random_poly(rng, degree, terms):
    out = {}
    for _ in range(rng.randint(0, terms)):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        out[(i, j)] = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.choice((0, 0, 0, rng.randint(-2, 2)))),
        )
    return Polynomial(XY, out)


# -- the stored form: Gaussian-integer numerators over one denominator --------

_WIDTHS = (("x",), XY, ("x", "y", "z"))


@st.composite
def _stored_pairs(draw):
    """Two polynomials over one variable tuple of width 1, 2 or 3, at most
    five terms of degree at most 3 in each variable."""
    variables = draw(st.sampled_from(_WIDTHS))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(variables))

    def poly():
        return Polynomial(variables, draw(st.dictionaries(exps, _COEFFS, max_size=5)))

    return poly(), poly()


def _canonical(p):
    """den > 0, no zero numerator, and gcd(den, every part) = 1."""
    parts = [x for c in p.nums.values() for x in c]
    return (p.den > 0 and all(c != (0, 0) for c in p.nums.values())
            and math.gcd(p.den, *parts) == 1
            and all(len(e) == len(p.variables) for e in p.nums))


def _ref_add(a, b, sign=1):
    """Term-by-term reference on {exps: GaussianRational} dicts."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + c * sign
    return {e: c for e, c in out.items() if not c.is_zero()}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


class TestStoredForm:
    @seed(22)
    @settings(max_examples=150, deadline=None)
    @given(_stored_pairs(), _COEFFS)
    def test_arithmetic_matches_the_term_reference(self, pair, c):
        p, q = pair
        cases = [
            (p + q, _ref_add(p.terms, q.terms)),
            (p - q, _ref_add(p.terms, q.terms, -1)),
            (-p, {e: -v for e, v in p.terms.items()}),
            (p * q, _ref_mul(p.terms, q.terms)),
            (p.scale(c), {e: v * c for e, v in p.terms.items() if not (v * c).is_zero()}),
        ]
        for var in p.variables:
            ref = {}
            for e, v in p.terms.items():
                k = p.variables.index(var)
                if e[k]:
                    ref[e[:k] + (e[k] - 1,) + e[k + 1:]] = v * e[k]
            cases.append((p.partial_derivative(var), ref))
        for got, ref in cases:
            assert _canonical(got)
            assert got.terms == ref

    @seed(23)
    @settings(max_examples=100, deadline=None)
    @given(_polynomials(max_x=2, max_y=2), _polynomials(max_x=1, max_y=1),
           _polynomials(max_x=1, max_y=1))
    def test_substitute_matches_the_term_reference(self, p, qx, qy):
        got = p.substitute({"x": qx, "y": qy})
        ref = {}
        for (i, j), c in p.terms.items():
            term = {(0, 0): c}
            for image, k in ((qx, i), (qy, j)):
                for _ in range(k):
                    term = _ref_mul(term, image.terms)
            ref = _ref_add(ref, term)
        assert _canonical(got)
        assert got.terms == ref

    def test_shift_multiplies_and_divides_by_a_monomial(self):
        p = P("x^2*y + 3/2*y^2 - i*y")
        assert p.shift((1, 0)) == p * P("x")
        assert p.shift((0, -1)) == divexact(p, P("y")) == P("x^2 + 3/2*y - i")
        assert _canonical(p.shift((0, -1)))
        with pytest.raises(PolynomialError, match="inexact"):
            p.shift((-1, 0))

    def test_in_variables_drops_only_variables_that_do_not_occur(self):
        p = P("x^2 - 3/2*i", ("x", "y", "t"))
        assert p.in_variables(("t", "x")) == P("x^2 - 3/2*i", ("t", "x"))
        assert _canonical(p.in_variables(("x",)))
        with pytest.raises(PolynomialError, match="lack 'x'"):
            p.in_variables(("y", "t"))

    def test_substitute_refuses_images_over_different_variables(self):
        # the terms x and y each see only one image, so no product meets both
        p = P("x + y")
        with pytest.raises(PolynomialError, match="variable mismatch"):
            p.substitute({"x": P("u", ("u",)), "y": P("v", ("v",))})
        with pytest.raises(PolynomialError, match="variable mismatch"):
            p.substitute({"x": P("u", ("u", "v")), "y": P("v", ("v", "u"))})

    @seed(24)
    @settings(max_examples=150, deadline=None)
    @given(_stored_pairs())
    def test_exact_division_and_equal_hashes(self, pair):
        p, q = pair
        if not q.is_zero():
            quotient = divexact(p * q, q)
            assert _canonical(quotient)
            assert quotient == p and hash(quotient) == hash(p)
        # equal polynomials built by different routes
        for a, b in (((p + q) - q, p), (q * p, p * q), (p + p, p.scale(2)),
                     (parse_polynomial(str(p), p.variables), p)):
            assert _canonical(a)
            assert a == b and hash(a) == hash(b)
