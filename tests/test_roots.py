"""Certified univariate root solving."""

import cmath
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest

import carousel.roots as roots_mod
from carousel.gaussian import GaussianRational
from carousel.poly import Polynomial, PolynomialError, parse_polynomial
from carousel.roots import (ComplexBall, PrecisionError, aberth_roots,
                            gaussian_to_mpc, solve_numeric, univariate_roots)


def U(text):
    return parse_polynomial(text, ("u",))


def test_fifth_roots_of_unity():
    roots = univariate_roots(U("u^5 - 1"), 128)
    assert len(roots) == 5
    assert all(m == 1 for _, m in roots)
    for ball, _ in roots:
        assert abs(abs(ball.center) - 1) < mpf(2) ** -100
        assert ball.radius < mpf(2) ** -40
    # the balls certify separation: pairwise disjoint
    for i in range(5):
        for j in range(i + 1, 5):
            assert roots[i][0].is_disjoint_from(roots[j][0])


def test_plus_minus_i():
    roots = univariate_roots(U("u^2 + 1"), 128)
    centers = [b.center for b, _ in roots]
    assert abs(centers[0] + 1j) < 1e-30
    assert abs(centers[1] - 1j) < 1e-30


def test_cubic_with_golden_ratio_roots():
    # u^3 - 2u + 1 = (u - 1)(u^2 + u - 1)
    roots = univariate_roots(U("u^3 - 2*u + 1"), 128)
    expected = sorted(
        [1.0, (-1 + 5**0.5) / 2, (-1 - 5**0.5) / 2]
    )
    got = sorted(float(b.center.real) for b, _ in roots)
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-12
    assert all(abs(b.center.imag) < 1e-30 for b, _ in roots)


def test_multiplicities_from_exact_decomposition():
    roots = univariate_roots(U("(u - 1)^3 * (u + 2)"), 128)
    assert [(round(float(b.center.real)), m) for b, m in roots] == [(-2, 1), (1, 3)]


def test_only_balls_of_distinct_factors_are_compared(monkeypatch):
    # two balls of radius 1 at 1 and 2 for every factor: they overlap, but
    # aberth_roots is trusted to have certified one factor's balls apart
    def wide(coeffs, precision):
        return [ComplexBall(c, 1, precision) for c in (1, 2)][: len(coeffs) - 1]

    monkeypatch.setattr(roots_mod, "aberth_roots", wide)
    assert [m for _, m in univariate_roots(U("u^2 - 3*u + 2"), 128)] == [1, 1]
    # the root 0 is a factor of its own, and its ball touches the one at 1
    with pytest.raises(PrecisionError, match="roots of distinct factors overlap"):
        univariate_roots(U("u^3 - 3*u^2 + 2*u"), 128)


def test_root_sum_matches_trace():
    from carousel.roots import gaussian_to_mpc
    from mpmath import mp

    rng = random.Random(2)
    for _ in range(15):
        degree = rng.randint(2, 6)
        coeffs = {
            (k,): GaussianRational(rng.randint(-5, 5), rng.randint(-2, 2))
            for k in range(degree)
        }
        coeffs[(degree,)] = GaussianRational(rng.randint(1, 4))
        p = Polynomial(("u",), coeffs)
        roots = univariate_roots(p, 128)
        with mp.workprec(160):
            total = sum((b.center for b, m in roots for _ in range(m)), mpmath.mpc(0))
            dense = p.dense_coefficients()
            expected = -gaussian_to_mpc(dense[-2] / dense[-1])
            slack = 2 * sum(b.radius for b, _ in roots) + mpf(2) ** -80
            assert abs(total - expected) < slack


def test_deterministic_ordering():
    a = univariate_roots(U("u^4 - u - 1"), 128)
    b = univariate_roots(U("u^4 - u - 1"), 128)
    assert [(str(x.center), m) for x, m in a] == [(str(x.center), m) for x, m in b]
    from carousel.roots import ordering_key

    keys = [ordering_key(x.center)[:2] for x, _ in a]
    assert keys == sorted(keys)


def test_degree_zero_rejected():
    with pytest.raises(PolynomialError):
        univariate_roots(U("3"), 128)


def test_ball_precision_floor():
    with pytest.raises(ValueError):
        ComplexBall(0, 0, 17)


def test_double_start_agrees_with_circle_start(monkeypatch):

    rng = random.Random(3)
    for _ in range(10):
        coeffs = [mpmath.mpc(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(7)]
        seeded = aberth_roots(coeffs, 128)
        with monkeypatch.context() as patch:
            patch.setattr(roots_mod, "_double_start", lambda *args: None)
            circle = aberth_roots(coeffs, 128)
        assert len(seeded) == len(circle) == 6
        for a, b in zip(seeded, circle):
            assert abs(a.center - b.center) <= a.radius + b.radius


def test_cluster_escalates_and_certifies(monkeypatch):

    # (z - 1)^2 - 2^-100: the doubles see a double root at 1
    with mpmath.mp.workprec(256):
        coeffs = [mpmath.mpc(1 - mpf(2) ** -100), mpmath.mpc(-2), mpmath.mpc(1)]
    with pytest.raises(PrecisionError):
        aberth_roots(coeffs, 53)
    tried = []
    real = roots_mod.aberth_roots

    def spy(c, precision, *args):
        tried.append(precision)
        return real(c, precision, *args)

    monkeypatch.setattr(roots_mod, "aberth_roots", spy)
    balls = solve_numeric(coeffs, 53)
    assert tried[0] == 53 and len(tried) > 1
    assert len(balls) == 2 and balls[0].is_disjoint_from(balls[1])
    with mpmath.mp.workprec(256):
        for ball, sign in zip(balls, (-1, 1)):
            assert abs(ball.center - (1 + sign * mpf(2) ** -50)) <= ball.radius


def test_coefficients_beyond_double_range():
    # z^2 - 10^400 overflows doubles, so the circle start is used
    with mpmath.mp.workprec(160):
        coeffs = [mpmath.mpc(-mpf(10) ** 400), mpmath.mpc(0), mpmath.mpc(1)]
    balls = aberth_roots(coeffs, 128)
    assert len(balls) == 2
    with mpmath.mp.workprec(160):
        for ball, sign in zip(balls, (-1, 1)):
            assert abs(ball.center - sign * mpf(10) ** 200) <= ball.radius
            assert ball.radius < mpf(10) ** 160


_GAUSSIAN = st.builds(
    GaussianRational,
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


@seed(20)
@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(_GAUSSIAN, st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=4,
        unique_by=lambda rm: rm[0],
    )
)
def test_one_ball_per_distinct_root(roots_with_mult):
    z = Polynomial.variable(("u",), "u")
    p = Polynomial.constant(("u",), 1)
    for root, mult in roots_with_mult:
        p = p * (z - Polynomial.constant(("u",), root)) ** mult
    found = univariate_roots(p, 128)
    assert len(found) == len(roots_with_mult)
    with mpmath.mp.workprec(160):
        for root, mult in roots_with_mult:
            exact = mpmath.mpc(
                mpf(root.re.numerator) / root.re.denominator,
                mpf(root.im.numerator) / root.im.denominator,
            )
            holding = [m for ball, m in found if abs(ball.center - exact) <= ball.radius]
            assert holding == [mult]


def test_clustered_solve_stops_at_the_rounding_floor(monkeypatch):
    # the base fiber of the diagram of -3*y^5 + 3*x^3*y - 3*x^2 over
    # v = 1/256: two clusters of four roots about 1.5e-5 apart, whose
    # mpmath pass used to run all its sweeps because tol lies below the
    # rounding floor there.  The mpmath pass runs only because the double
    # pass from this exact circle does not converge; the next test holds
    # a cluster that no double start can isolate.
    delta = parse_polynomial(
        "u^15 - 3125/256*u^8 - 3125/192*u^6*v - 3125/384*u^4*v^2"
        " - 3125/1728*u^2*v^3 - 3125/20736*v^4",
        ("u", "v"),
    )
    coeffs = [0] * 16
    for (i, j), c in delta.terms.items():
        coeffs[i] += c.re / 256 ** j
    with mpmath.mp.workprec(160):
        coeffs = [mpmath.mpc(mpf(c.numerator) / c.denominator) for c in coeffs]
    passes = []
    real = roots_mod._aberth_iterate

    def spy(monic, z, *args):
        passes.append((type(z[0]), real(monic, z, *args)))
        return passes[-1][1]

    monkeypatch.setattr(roots_mod, "_aberth_iterate", spy)
    balls = aberth_roots(coeffs, 128)
    # the mpmath pass converged: every root reached the rounding floor
    assert passes[-1] == (mpmath.mpc, True)
    monkeypatch.undo()
    reference = aberth_roots(coeffs, 512)
    assert len(balls) == len(reference) == 15
    with mpmath.mp.workprec(544):
        for ball in balls:
            assert sum(abs(ball.center - r.center) <= ball.radius for r in reference) == 1


def test_cluster_below_double_resolution_needs_the_mpmath_start(monkeypatch):
    # roots 1 and 1 + 2^-70: the monic coefficients rounded to doubles
    # have a double root at 1, so from no start circle do the doubles
    # isolate the pair: the integer certificate refuses each double
    # start, and only the mpmath pass can
    roots = [Fraction(1), Fraction(1) + Fraction(1, 2**70), Fraction(-2)]
    u = Polynomial.variable(("u",), "u")
    p = U("u^2 + 1")
    for r in roots:
        p = p * (u - Polynomial.constant(("u",), r))
    coeffs = p.dense_coefficients()
    ints = roots_mod._gaussian_integers(coeffs)
    n = len(ints) - 1
    for turn in (0, 0.1, 0.25, 0.4):
        unit = [cmath.exp(2j * cmath.pi * (k / n + turn) + 0.4j) for k in range(n)]
        start = roots_mod._double_start(ints, unit)
        assert roots_mod._newton_certificate(ints, start, 128) is None
    passes = []
    real = roots_mod._aberth_iterate

    def spy(monic, z, *args):
        passes.append((type(z[0]), real(monic, z, *args)))
        return passes[-1][1]

    monkeypatch.setattr(roots_mod, "_aberth_iterate", spy)
    balls = aberth_roots(coeffs, 128)
    assert passes[-1] == (mpmath.mpc, True)
    assert len(balls) == 5
    with mpmath.mp.workprec(600):
        exact = [mpmath.mpc(mpf(r.numerator) / r.denominator) for r in roots]
        exact += [mpmath.mpc(0, 1), mpmath.mpc(0, -1)]
        for ball in balls:
            assert ball.radius < mpf(2) ** -100
            assert sum(abs(ball.center - z) <= ball.radius for z in exact) == 1


def test_gaussian_to_mpc_rounds_once():
    # 120-bit numerators over 60-bit denominators at 53 bits: rounding the
    # numerator first and then the quotient misses the nearest double in
    # about a quarter of these; float(Fraction) is correctly rounded
    rng = random.Random(11)
    with mpmath.mp.workprec(53):
        for _ in range(200):
            d = rng.getrandbits(60) | 1 << 59
            re = Fraction(rng.getrandbits(120) | 1 << 119, d)
            im = Fraction(-(rng.getrandbits(120) | 1 << 119), d)
            z = gaussian_to_mpc(GaussianRational(re, im))
            assert (float(z.real), float(z.imag)) == (float(re), float(im))


def _fraction(x):
    """An mpf value as an exact Fraction."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _holds(ball, root):
    """Whether the Gaussian rational `root` lies in `ball`, decided in Fractions."""
    dx = _fraction(ball.center.real) - root.re
    dy = _fraction(ball.center.imag) - root.im
    return dx * dx + dy * dy <= _fraction(ball.radius) ** 2


def _product_coefficients(roots):
    """Dense Q(i) coefficients of prod (u - r), low first."""
    u = Polynomial.variable(("u",), "u")
    p = Polynomial.constant(("u",), 1)
    for r in roots:
        p = p * (u - Polynomial.constant(("u",), r))
    return p, p.dense_coefficients()


def _distinct_roots(rng, degree, denominators):
    roots = set()
    while len(roots) < degree:
        d = rng.choice(denominators)
        roots.add(GaussianRational(Fraction(rng.randint(-2 * d, 2 * d), d),
                                   Fraction(rng.randint(-2 * d, 2 * d), d)))
    return sorted(roots, key=lambda r: (r.re, r.im))


def test_balls_enclose_exact_roots():
    # each root of prod (u - r_k) lies in exactly one ball, checked in
    # Fractions; mpc coefficients are exact only for dyadic roots
    rng = random.Random(5)
    for trial in range(24):
        dyadic = trial % 2 == 0
        denominators = (1, 2, 4, 8) if dyadic else tuple(range(1, 9))
        roots = _distinct_roots(rng, rng.randint(1, 8), denominators)
        p, coeffs = _product_coefficients(roots)
        solves = [
            [ball for ball, _ in univariate_roots(p, 128)],
            aberth_roots(coeffs, 128),
        ]
        if dyadic:
            with mpmath.mp.workprec(256):
                numeric = [mpmath.mpc(mpf(c.a) / c.d, mpf(c.b) / c.d) for c in coeffs]
            assert [GaussianRational(_fraction(z.real), _fraction(z.imag))
                    for z in numeric] == coeffs
            solves.append(aberth_roots(numeric, 128))
        for balls in solves:
            assert len(balls) == len(roots)
            for r in roots:
                assert sum(_holds(ball, r) for ball in balls) == 1
            assert all(ball.radius < mpf(2) ** -100 for ball in balls)


def test_certificate_refuses_two_approximations_of_one_root(monkeypatch):
    # u^2 - 1 from two starts near 1: Newton takes both to the same root,
    # the two disks overlap, and no further start is left
    coeffs = [GaussianRational(-1), GaussianRational(0), GaussianRational(1)]
    near_one = [1 + 2.0 ** -20, 1 - 2.0 ** -20]
    integers = roots_mod._gaussian_integers(coeffs)
    assert roots_mod._newton_certificate(integers, near_one, 128) is None
    monkeypatch.setattr(roots_mod, "_double_start", lambda *args: near_one)
    monkeypatch.setattr(roots_mod, "_mpmath_start", lambda *args: near_one)
    with pytest.raises(PrecisionError):
        aberth_roots(coeffs, 128)


def test_aberth_roots_accepts_gaussian_rationals():
    # 9u^2 + 1 has the roots -i/3 and i/3, which no binary ball center hits
    coeffs = [GaussianRational(1), GaussianRational(0), GaussianRational(9)]
    balls = aberth_roots(coeffs, 128)
    for ball, sign in zip(balls, (-1, 1)):
        assert _holds(ball, GaussianRational(0, Fraction(sign, 3)))
        assert 0 < ball.radius < mpf(2) ** -120


def test_exact_zero_root_is_certified_at_the_first_precision(monkeypatch):
    # Newton steps toward a root at exactly 0 shrink z without end on a
    # relative grid; the grid of the current point rounds z to 0
    tried = []
    real = roots_mod.aberth_roots

    def spy(c, precision):
        tried.append(precision)
        return real(c, precision)

    monkeypatch.setattr(roots_mod, "aberth_roots", spy)
    with mpmath.mp.workprec(160):
        coeffs = [mpmath.mpc(0), mpmath.mpc(0, 0.25), mpmath.mpc(0.96, 0.5)]
    balls = solve_numeric(coeffs, 128)
    assert tried == [128]
    zero = [b for b in balls if b.center == 0]
    assert len(zero) == 1 and zero[0].radius == 0


def test_power_of_the_variable_is_split_off_exactly(monkeypatch):
    # u^3*(u^2 + 1/64): 0 is a triple root, and Aberth sees only u^2 + 1/64
    seen = []
    real = roots_mod.aberth_roots

    def spy(c, precision):
        seen.append(list(c))
        return real(c, precision)

    monkeypatch.setattr(roots_mod, "aberth_roots", spy)
    roots = univariate_roots(U("u^3*(u^2 + 1/64)"), 128)
    # the numerators of u^5 + u^3/64 over its denominator 64
    assert seen == [[(1, 0), (0, 0), (64, 0)]]
    zero = [(b, m) for b, m in roots if b.center == 0]
    assert len(roots) == 3 and len(zero) == 1
    ball, mult = zero[0]
    assert mult == 3 and ball.radius == 0 and ball.precision == 128
    for b, m in roots:
        if b.center != 0:
            assert m == 1 and abs(abs(b.center) - mpf(1) / 8) < mpf(2) ** -100
    seen.clear()
    assert [(b.center, b.radius, m) for b, m in univariate_roots(U("3*u^2"), 128)] == [(0, 0, 2)]
    assert seen == []


def test_disjointness_is_decided_exactly():
    with mpmath.mp.workprec(256):
        a = ComplexBall(mpmath.mpc(0), mpf(1) / 2, 128)
        touching = ComplexBall(mpmath.mpc(1), mpf(1) / 2, 128)
        apart = ComplexBall(mpmath.mpc(1 + mpf(2) ** -200), mpf(1) / 2, 128)
    # at 53 bits the distance 1 + 2^-200 rounds to 1
    assert not a.is_disjoint_from(touching)
    assert a.is_disjoint_from(apart) and apart.is_disjoint_from(a)


def test_ordering_key_rounds_ties_to_even():
    from carousel.roots import ordering_key

    step = mpf(2) ** -40
    keys = [ordering_key(mpmath.mpc(k * step / 2, -k * step / 2))[:2] for k in (1, 3, 5)]
    assert keys == [(0, 0), (2, -2), (2, -2)]


def test_multiple_root_at_zero_is_refused_at_once(monkeypatch):
    # 4*u^3 cannot be certified at any precision: no start is tried
    monkeypatch.setattr(roots_mod, "_double_start", None)
    monkeypatch.setattr(roots_mod, "_mpmath_start", None)
    with pytest.raises(PrecisionError):
        aberth_roots([mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(4)], 128)


# numerators of every sign and size, zero included
_NUMERATOR = st.one_of(st.just(0), st.integers(-(2**200), 2**200))
_DENOMINATOR = st.one_of(st.integers(1, 2**80), st.integers(0, 120).map(lambda k: 1 << k))
_PREC = st.sampled_from([1, 2, 3, 53, 113, 160, 544])


@st.composite
def _rational(draw):
    """(num, den, prec); in about a third of the draws num/den lies
    exactly halfway between two prec-bit numbers."""
    prec = draw(_PREC)
    if not draw(st.integers(0, 2)):
        odd = 1 << prec | draw(st.integers(0, (1 << prec) - 1)) << 1 | 1
        d = draw(st.integers(1, 2**40))
        return draw(st.sampled_from([1, -1])) * odd * d, d << draw(st.integers(0, 90)), prec
    return draw(_NUMERATOR), draw(_DENOMINATOR), prec


@seed(23)
@settings(max_examples=500, deadline=None)
@given(_rational())
def test_integer_quotient_rounds_as_mpmath(case):
    num, den, prec = case
    man, exp = roots_mod._quotient(num, den, prec)
    assert from_man_exp(man, exp) == from_rational(num, den, prec, round_nearest)


_DYADIC_PART = st.builds(from_man_exp, st.one_of(st.just(0), st.integers(-(2**170), 2**170)),
                         st.integers(-300, 40))
_DYADIC_RADIUS = st.builds(from_man_exp, st.integers(0, 2**60), st.integers(-300, 10))


@seed(29)
@settings(max_examples=300, deadline=None)
@given(_DYADIC_PART, _DYADIC_PART, _DYADIC_RADIUS, st.integers(53, 600))
def test_ball_views_are_exact(re, im, r, prec):
    # the parts have up to 171 bits, more than the default working precision
    c, radius = mpmath.mp.make_mpc((re, im)), mpmath.mp.make_mpf(r)
    ball = ComplexBall(c, radius, prec)
    assert ball.center._mpc_ == c._mpc_ and ball.radius._mpf_ == radius._mpf_


@seed(31)
@settings(max_examples=300, deadline=None)
@given(_DYADIC_PART, _DYADIC_PART, _DYADIC_RADIUS, _DYADIC_PART, _DYADIC_PART,
       _DYADIC_RADIUS, st.booleans())
def test_disjointness_agrees_with_fractions(a, b, r, c, d, s, touching):
    first = ComplexBall(mpmath.mp.make_mpc((a, b)), mpmath.mp.make_mpf(r), 128)
    if touching:
        # the second center at distance r + s from the first: 2000 bits
        # hold the sum of these parts exactly
        with mpmath.mp.workprec(2000):
            c, d = (mpmath.mp.make_mpf(a) + mpmath.mp.make_mpf(r) + mpmath.mp.make_mpf(s))._mpf_, b
    second = ComplexBall(mpmath.mp.make_mpc((c, d)), mpmath.mp.make_mpf(s), 128)
    dx = _fraction(second.center.real) - _fraction(first.center.real)
    dy = _fraction(second.center.imag) - _fraction(first.center.imag)
    apart = dx * dx + dy * dy > (_fraction(first.radius) + _fraction(second.radius)) ** 2
    assert first.is_disjoint_from(second) == second.is_disjoint_from(first) == apart
    assert not touching or not apart
