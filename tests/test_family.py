"""Family analysis: critical points, conservation, coalescing."""

import copy
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

import carousel.puiseux as puiseux_mod
from carousel.family import (
    DEFAULT_SAMPLES,
    FamilyError,
    FamilyGerm,
    _at_x,
    _at_y,
    _dyadic,
    _leads_coprime,
    _value_ball,
    _xy_rows,
    coalescing_verdict,
    conservation_check,
    critical_points,
)
from carousel.gaussian import GaussianRational, from_integers
from carousel.poly import (Polynomial, _dense_in, _eliminant, divexact, parse_polynomial,
                           poly_gcd, resultant, squarefree_decomposition)
from carousel.roots import ComplexBall, gaussian_to_mpc

XYT = ("x", "y", "t")


def F(text, **kwargs):
    return FamilyGerm(parse_polynomial(text, XYT), **kwargs)


class TestCriticalPoints:
    def test_cusp_splits_into_two_morse_points(self):
        fam = F("x^3 - y^2 + t*x", search_radius=Fraction(1))
        record = critical_points(fam, Fraction(-3, 4))
        assert record.total_mu == 2
        xs = sorted(float(p.x.center.real) for p in record.points)
        assert abs(xs[0] + 0.5) < 1e-25 and abs(xs[1] - 0.5) < 1e-25
        assert all(float(p.y.center.real) == 0 for p in record.points)
        assert all(p.local_mu == 1 for p in record.points)
        values = sorted(float(p.value.center.real) for p in record.points)
        assert abs(values[0] + 0.25) < 1e-25 and abs(values[1] - 0.25) < 1e-25

    def test_points_ordered_by_rounded_coordinates(self):
        # conjugate pairs share a real part up to rounding noise
        fam = F("x^5 - x*y^3 + t*(x^2 + y^2)")
        record = critical_points(fam, Fraction(1, 64))
        keys = [
            tuple(round(float(part), 9) for z in (p.x.center, p.y.center)
                  for part in (z.real, z.imag))
            for p in record.points
        ]
        assert keys == sorted(keys)

    def test_constant_family_keeps_fat_point(self):
        fam = F("x^3 + y^3")
        record = critical_points(fam, Fraction(1, 8))
        assert len(record.points) == 1
        point = record.points[0]
        assert point.local_mu == 4
        assert abs(point.x.center) < 1e-30 and abs(point.y.center) < 1e-30
        assert point.on_zero_fiber

    def test_shifted_morse_critical_value(self):
        fam = F("x^2 + y^2 + t")
        record = critical_points(fam, Fraction(1, 8))
        assert record.total_mu == 1
        point = record.points[0]
        assert abs(point.value.center - mpmath.mpf(1) / 8) < 1e-30
        assert not point.on_zero_fiber

    def test_zero_parameter_rejected(self):
        fam = F("x^3 - y^2 + t*x")
        with pytest.raises(FamilyError):
            critical_points(fam, 0)

    def test_points_outside_radius_are_flagged(self):
        fam = F("x^3 - y^2 + t*x", search_radius=Fraction(1, 10))
        record = critical_points(fam, Fraction(-3, 4))
        assert record.total_mu == 0
        assert record.points_outside == 2


class TestConservation:
    def test_cusp_family(self):
        report = conservation_check(F("x^3 - y^2 + t*x"))
        assert report.mu_origin == 2
        assert [r.total_mu for r in report.records] == [2, 2, 2]
        assert report.all_conserved

    def test_constant_family(self):
        report = conservation_check(F("x^3 + y^3"))
        assert report.mu_origin == 4
        assert report.all_conserved

    def test_a4_with_cubic_deformation(self):
        report = conservation_check(F("x^5 - y^2 + t*x^3"))
        assert report.mu_origin == 4
        assert [r.total_mu for r in report.records] == [4, 4, 4]
        for record in report.records:
            mus = sorted(p.local_mu for p in record.points)
            assert mus == [1, 1, 2]

    def test_halving_the_samples_changes_nothing(self):
        small = tuple(
            GaussianRational(s.re / 2, s.im / 2) for s in DEFAULT_SAMPLES
        )
        base = conservation_check(F("x^5 - y^2 + t*x^3"))
        halved = conservation_check(F("x^5 - y^2 + t*x^3", t_samples=small))
        assert [r.total_mu for r in base.records] == [
            r.total_mu for r in halved.records
        ]
        assert (
            coalescing_verdict(F("x^5 - y^2 + t*x^3")).status
            == coalescing_verdict(F("x^5 - y^2 + t*x^3", t_samples=small)).status
        )

    def test_non_isolated_origin_rejected(self):
        with pytest.raises(FamilyError):
            F("x^2*y^2 + t*x")

    def test_f0_must_pass_the_reducedness_gate(self):
        # (1 + x)^2 * y has an isolated critical point at the origin, but
        # its repeated unit factor fails the gate that reads mu(f_0)
        for text in ("(1+x)^2*y + t*x", "x^2*y^2 + t*x"):
            with pytest.raises(FamilyError, match=r"^f_0 = .*: germ is not reduced"):
                F(text)

    def test_family_not_vanishing_at_the_origin(self):
        # one entry check: the gate's own, on f_0
        with pytest.raises(FamilyError, match=r"^f_0 = .*: unit germ: f\(0,0\) != 0$"):
            F("1 + x^2 + y^2 + t")

    @pytest.mark.parametrize("text", ("x^3 - y^2 + t*x", "x^5 - x*y^3 + t*(x^2 + y^2)"))
    def test_one_decomposition_of_f0(self, text, monkeypatch):
        # mu(f_0) is computed once, with the family: conservation_check
        # reads it and decomposes f_0 no second time
        real = puiseux_mod.squarefree_decomposition
        germs = []

        def spy(p):
            if p.variables == ("x", "y"):
                germs.append(p)
            return real(p)

        monkeypatch.setattr(puiseux_mod, "squarefree_decomposition", spy)
        family = F(text)
        report = conservation_check(family)
        assert len(germs) == 1
        assert report.mu_origin == family.mu_origin > 0

    def test_copy_rebuilds_the_family(self):
        # mu_origin is not a parameter: a copy is built from F, the
        # samples and the radius, and derives it again
        family = F("x^5 - y^2 + t*x^3", search_radius=Fraction(1, 4))
        duplicate = copy.copy(family)
        assert duplicate == family and duplicate.mu_origin == 4


class TestCoalescing:
    def test_constant_family_consistent(self):
        verdict = coalescing_verdict(F("x^3 + y^3"))
        assert verdict.status == "CONSISTENT"
        assert verdict.hypothesis_holds
        assert verdict.zero_fiber_mu == (4, 4, 4)
        assert verdict.zero_fiber_counts == (1, 1, 1)

    def test_morse_split_not_applicable(self):
        verdict = coalescing_verdict(F("x^3 - y^2 + t*x"))
        assert verdict.status == "NOT_APPLICABLE"
        assert not verdict.hypothesis_holds
        assert verdict.zero_fiber_mu == (0, 0, 0)

    def test_partial_zero_fiber_not_applicable(self):
        verdict = coalescing_verdict(F("x^4 + y^2 + t*x^2"))
        assert verdict.status == "NOT_APPLICABLE"
        assert verdict.mu_origin == 3
        assert verdict.zero_fiber_mu == (1, 1, 1)

    def test_report_reuse(self):
        fam = F("x^3 + y^3")
        report = conservation_check(fam)
        verdict = coalescing_verdict(fam, report)
        assert verdict.mu_origin == report.mu_origin == 4


class TestMixedGradient:
    def test_resultant_route(self):
        fam = F("x^3 + y^3 - 3*x*y + t*x", search_radius=Fraction(4))
        record = critical_points(fam, Fraction(1, 8))
        assert record.total_mu == 4
        assert len(record.points) == 4
        # the perturbed node near the origin plus the perturbed Morse point
        xs = sorted(abs(p.x.center) for p in record.points)
        assert float(xs[0]) < 0.01

    def test_degenerate_slice_detected(self):
        # fine at t = 0 but the gradient degenerates on the slice t = -1
        fam = F("x^2 + y^2 + t*y^2")
        with pytest.raises(FamilyError):
            critical_points(fam, -1)


class TestSeparatedGradient:
    # fx depends on y alone and fy on x alone: the swapped separated system
    def test_both_parameters_in_the_gradient(self):
        fam = F("x*y + t*x + t*y")
        record = critical_points(fam, Fraction(1, 8))
        assert len(record.points) == 1
        point = record.points[0]
        assert point.local_mu == 1
        assert abs(point.x.center + mpmath.mpf(1) / 8) < 1e-30
        assert abs(point.y.center + mpmath.mpf(1) / 8) < 1e-30
        assert conservation_check(fam).all_conserved

    def test_one_parameter_in_the_gradient(self):
        fam = F("x*y + t*y")
        record = critical_points(fam, Fraction(1, 8))
        assert [p.local_mu for p in record.points] == [1]
        assert abs(record.points[0].x.center + mpmath.mpf(1) / 8) < 1e-30
        assert abs(record.points[0].y.center) < 1e-30
        report = conservation_check(fam)
        assert report.mu_origin == 1
        assert report.all_conserved


class TestSingleAttemptSolves:
    def test_clustered_fiber_goes_to_the_shear_without_more_bits(self, monkeypatch):
        # three points over one eliminant root: the gcd(a1, R) gate (see
        # TestLift) sends the frame to the shear, and no solve doubles bits
        import carousel.roots as roots_mod

        tried = []
        real = roots_mod.aberth_roots

        def spy(coeffs, precision):
            tried.append(precision)
            return real(coeffs, precision)

        monkeypatch.setattr(roots_mod, "aberth_roots", spy)
        fam = F("x^2*y + y^4 + t*x*y")
        record = critical_points(fam, GaussianRational(Fraction(-1, 64), Fraction(1, 64)))
        assert tried and set(tried) == {128}
        assert record.total_mu == 5


class TestLift:
    def test_only_the_eliminant_is_solved(self, monkeypatch):
        # above each root of R = Res_y(f_x, f_y) the one common root is
        # -a0/a1, from the last remainder a1*y + a0 of the sequence that
        # gives R: aberth_roots sees the squarefree factors of R and no
        # fiber above its roots
        import carousel.family as family_mod
        import carousel.roots as roots_mod

        seen = []
        real = roots_mod.aberth_roots

        def spy(coeffs, precision):
            seen.append(list(coeffs))
            return real(coeffs, precision)

        monkeypatch.setattr(roots_mod, "aberth_roots", spy)
        # and any solver reference that family holds of its own
        monkeypatch.setattr(family_mod, "aberth_roots", spy, raising=False)
        fam = F("x^5 - x*y^3 + t*(x^2 + y^2)")
        record = critical_points(fam, GRID[0])
        assert [p.local_mu for p in record.points] == [1] * 11
        f = fam.slice(GRID[0])
        R = resultant(f.partial_derivative("x"), f.partial_derivative("y"), "y")
        # the root 0 of R is split off exactly, with no solve
        rest = divexact(R, Polynomial.variable(("x",), "x"))
        assert seen == [_dense_in(g, "x") for g, _ in squarefree_decomposition(rest)]

    def test_a1_sharing_a_root_with_the_eliminant_goes_to_the_shear(self, monkeypatch):
        # f_x = y*(2x + t) ends the sequence: a1 = 2x + t vanishes at the
        # eliminant root -t/2, above which three points lie.  The leading
        # coefficients 2x + t and 4 are coprime, so only the gcd gate
        # refuses this frame
        import carousel.family as family_mod

        shears = []
        real = family_mod._shear

        def spy(f, lam):
            shears.append(lam)
            return real(f, lam)

        monkeypatch.setattr(family_mod, "_shear", spy)
        fam = F("x^2*y + y^4 + t*x*y")
        f = fam.slice(GRID[0])
        p, q = f.partial_derivative("x"), f.partial_derivative("y")
        R, (a0, a1) = _eliminant(p, q, "y")
        assert _leads_coprime(p, q) and a0.is_zero() and a1.degree("x") == 1
        assert not poly_gcd(a1, R).is_constant()
        assert critical_points(fam, GRID[0]).total_mu == 5
        assert shears == [1]


class TestLocalMilnorNumber:
    # at x = 0 the y-leading coefficients of f_x and f_y both vanish, so
    # Res_y(f_x, f_y) also counts a point at infinity there: its
    # multiplicity is not the local Milnor number of the one Morse point
    # at (0, -t), which f_0's mu = 1 says is conserved
    @pytest.mark.parametrize("text", (
        "x*y + x^2*y^2 + x^3 + t*x",
        "x^2*y^3 + (y + t)^2 + x*(y + t) + x^2",
    ))
    def test_morse_point_over_the_common_root_of_the_leading_coefficients(self, text):
        fam = F(text)
        report = conservation_check(fam)
        assert report.mu_origin == 1 and report.all_conserved
        assert coalescing_verdict(fam, report).status == "CONSISTENT"
        xs, ys = (Polynomial.variable(("x", "y"), v) for v in ("x", "y"))
        for t, record in zip(fam.t_samples, report.records):
            [point] = [p for p in record.points if abs(p.x.center) < 1e-30]
            assert abs(point.y.center + gaussian_to_mpc(t)) < 1e-30
            # the gradient translated to (0, -t), with no eliminant
            f = fam.slice(t).substitute({"x": xs, "y": ys - Polynomial.constant(("x", "y"), t)})
            oracle = puiseux_mod.intersection_multiplicity(
                f.partial_derivative("x"), f.partial_derivative("y"))
            assert point.local_mu == oracle == 1


class TestShear:
    # each way into the shear x = x' + lam*y, and mu conserved after it
    @pytest.mark.parametrize("text, mu", (
        ("x*y + x^3 + t*y", 1),  # mixed shapes: f_y has no y
        ("x^2 + y^4 - 2*t*y^2 + x*y^2", 3),  # two Morse points over x = -2t/3
        ("x*y + x^2*y^2 + x^3 + t*x", 1),  # both y-leading coefficients vanish at 0
        ("x*y + x*y^2 + x^3 + t*x", 1),  # f_y = x*(1 + 2y): a1 = 2x, R(0) = 0
    ))
    def test_shear_conserves_mu(self, text, mu, monkeypatch):
        import carousel.family as family_mod

        shears = []
        real = family_mod._shear

        def spy(f, lam):
            shears.append(lam)
            return real(f, lam)

        monkeypatch.setattr(family_mod, "_shear", spy)
        report = conservation_check(F(text))
        assert shears
        assert report.mu_origin == mu and report.all_conserved


# the six families of the benchmark and of the CI family grid
BENCH_FAMILIES = (
    "x^3 - y^2 + t*x",
    "x^5 - y^2 + t*x^3",
    "x^3 + y^3",
    "x^4 + y^2 + t*x^2",
    "x^5 - x*y^3 + t*(x^2 + y^2)",
    "x^2*y + y^4 + t*x*y",
)
# every 10th of the 80 samples t = (a + b*i)/64, |a|, |b| <= 4, t != 0
GRID = [
    GaussianRational(Fraction(a, 64), Fraction(b, 64))
    for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0)
][::10]


class TestEnclosure:
    @pytest.mark.parametrize("text", BENCH_FAMILIES)
    def test_balls_hold_the_512_bit_points(self, text):
        fam = F(text)
        for t in GRID:
            points = critical_points(fam, t).points
            fine = critical_points(fam, t, precision=512).points
            assert len(points) == len(fine)
            for point, ref in zip(points, fine):
                assert point.local_mu == ref.local_mu
                _assert_holds(point, ref)

    def test_sheared_x_ball_holds_the_512_bit_point(self, monkeypatch):
        import carousel.family as family_mod

        shears = []
        real = family_mod._shear

        def spy(f, lam):
            shears.append(lam)
            return real(f, lam)

        monkeypatch.setattr(family_mod, "_shear", spy)
        fam = F("x^2*y + y^4 + t*x*y")
        t = GaussianRational(Fraction(-3, 64), Fraction(-2, 64))
        points = critical_points(fam, t).points
        # three points over one eliminant root, as in TestSingleAttemptSolves,
        # send the frame through the gcd(a1, R) gate to the shear
        # x = x' + lam*y; here one sum of the centers misses the 512-bit
        # point by about a tenth of its radius, so a radius without the
        # radii of x' and y would fail
        assert shears == [1]
        fine = critical_points(fam, t, precision=512).points
        assert len(points) == len(fine) == 5
        for point, ref in zip(points, fine):
            _assert_holds(point, ref)


def _assert_holds(point, ref):
    """The x, y and value balls of `point` hold the centers of `ref`,
    decided exactly: |center - ball.center| <= ball.radius."""
    for name in ("x", "y", "value"):
        ball, center = getattr(point, name), getattr(ref, name).mid
        assert not ball.is_disjoint_from(ComplexBall(center, (0, 0), 53)), name


_PART = st.one_of(st.just(0), st.integers(-(2**70), 2**70))


def _dyadic_point(draw):
    """(a + bi) 2^e as an exact mpc and as a Q(i) value; zero parts and
    exponents of both signs included."""
    a, b, e = draw(_PART), draw(_PART), draw(st.integers(-90, 12))
    z = mp.make_mpc((from_man_exp(a, e), from_man_exp(b, e)))  # exact, not rounded
    exact = GaussianRational(Fraction(a) * Fraction(2) ** e, Fraction(b) * Fraction(2) ** e)
    return z, exact


_COEFF = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.sampled_from([0, 0, Fraction(1, 3), -2, Fraction(5, 8)]),
)


@st.composite
def _polynomial_and_point(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), _COEFF, min_size=1, max_size=8
    ))
    f = Polynomial(("x", "y"), terms)
    if f.is_zero():
        f = Polynomial(("x", "y"), {(1, 2): 3})
    return f, _dyadic_point(draw), _dyadic_point(draw)


def _exact_at(g, x, y):
    return g.eliminate_variable("x", x).eliminate_variable("y", y).constant_term()


@seed(14)
@settings(max_examples=200, deadline=None)
@given(_polynomial_and_point())
def test_integer_evaluator_is_exact(case):
    f, (zx, x), (zy, y) = case
    rows = _xy_rows(f)
    bx, by = ComplexBall(zx, 0, 53), ComplexBall(zy, 0, 53)
    values, ders, unit = _at_x(rows, *_dyadic(bx))
    c, d, u = _dyadic(by)
    unit <<= u * (len(values) - 1)
    v, vx, vy = _at_y(values, ders, c, d, u)
    assert from_integers(*v, unit) == _exact_at(f, x, y)
    assert from_integers(*vx, unit) == _exact_at(f.partial_derivative("x"), x, y)
    assert from_integers(*vy, unit) == _exact_at(f.partial_derivative("y"), x, y)
    ball = _value_ball(_at_x(rows, *_dyadic(bx)), _dyadic(by), [(0, 0)], 128)
    with mp.workprec(160):
        assert ball.center._mpc_ == gaussian_to_mpc(_exact_at(f, x, y))._mpc_
