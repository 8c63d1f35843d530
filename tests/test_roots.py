"""Certified univariate root solving."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath import mpf

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
    # rounding floor there
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
