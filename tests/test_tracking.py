"""Carousel radii, fiber tracking, permutation oracle, verdicts."""

import cmath
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import carousel.tracking as tracking_mod
from carousel.gaussian import GaussianRational
from carousel.polar import diagram_from_defining, select_generic_line
from carousel.poly import Polynomial, parse_polynomial, poly_gcd, squarefree_part
from carousel.report import StageError, analyze_germ
from carousel.roots import ComplexBall, _dyadic_ints, aberth_roots, error_factor, solve_numeric
from carousel.tracking import (
    RadiiError,
    TrackingError,
    carousel_permutation,
    choose_radii,
    fixed_point_verdict,
    predicted_cycle_type,
)

DIAGRAMS = ("v - u^5", "v + u", "v - u^2", "(v - u^2)*(v - u^3)", "v^2 - u^3",
            "(v - u^3)*(v + u^3)", "v - u^2 + u^3")


def D(text):
    return diagram_from_defining(parse_polynomial(text, ("u", "v")))


def _fiber_at(delta, v):
    """Coefficients of Delta(u, v) in u, low first, by Horner in v at mpmath precision."""
    out = []
    for row in delta.as_univariate("u"):
        acc = mpc(0)
        for c in reversed(row.dense_coefficients()):
            acc = acc * v + mpc(mpf(c.a) / c.d, mpf(c.b) / c.d)
        out.append(acc)
    return out


def _ball_inside(inner, outer):
    """|inner.center - outer.center| + inner.radius <= outer.radius, decided exactly."""
    (x, y, r, x2, y2, r2), _ = _dyadic_ints(
        inner.center._mpc_ + (inner.radius._mpf_,) + outer.center._mpc_ + (outer.radius._mpf_,)
    )
    dx, dy = x - x2, y - y2
    return r <= r2 and dx * dx + dy * dy <= (r2 - r) ** 2


class TestChooseRadii:
    def test_quintic_contact(self):
        r = choose_radii(D("v - u^5"), 128)
        assert float(r.eta) < float(r.rho) ** 5
        assert r.validation["fiber_count"] == 5

    def test_quadratic_contact(self):
        r = choose_radii(D("v - u^2"), 128)
        assert float(r.eta) < float(r.rho) ** 2
        assert r.validation["fiber_count"] == 2

    def test_transverse_line(self):
        r = choose_radii(D("v + u"), 128)
        assert float(r.eta) < float(r.rho)
        assert r.validation["fiber_count"] == 1

    def test_far_roots_are_separated(self):
        # Delta(u, 0) = u^2 - u^3 has the far root u = 1; rho must shrink
        r = choose_radii(D("v - u^2 + u^3"), 128)
        assert 2 * float(r.rho) < 1
        assert r.validation["fiber_count"] == 2

    def test_base_separation_recorded(self):
        r = choose_radii(D("v - u^5"), 128)
        assert r.validation["base_min_relative_separation"] > 2.0 ** (-128 / 4)


class TestRoucheCertificate:
    CERTIFIED = DIAGRAMS + ("v - u^2*(1 - u)^4", "(1+i)*v - u^3 + 5*u^4")

    @pytest.mark.parametrize("text", CERTIFIED)
    def test_sampled_fibers_obey_the_certificate(self, text):
        # the certificate covers the whole disc |v| <= eta: sample two circles
        d = D(text)
        radii = choose_radii(d, 128)
        rho, m = radii.rho, d.contact_count
        with mp.workprec(160):
            for scale in (1, mpf(1) / 2):
                for s in range(256):
                    v = scale * radii.eta * mpmath.expjpi(mpf(s) / 128)
                    balls = solve_numeric(_fiber_at(d.defining, v), 128)
                    inside = [b for b in balls if abs(b.center) + b.radius < rho / 2]
                    outside = [b for b in balls if abs(b.center) - b.radius > 2 * rho]
                    assert len(inside) == m, (text, scale, s)
                    assert len(inside) + len(outside) == len(balls), (text, scale, s)

    @pytest.mark.parametrize("text", CERTIFIED)
    def test_rouche_margins_recorded(self, text):
        validation = choose_radii(D(text), 128).validation
        for key in ("rouche_ratio_half_rho", "rouche_ratio_two_rho", "separation_ratio"):
            assert 0 <= validation[key] < 1, key

    def test_separation_certificate_shrinks_eta(self):
        # u^2 = v + 64*v^2: Rouche holds at eta = 1/64, but the two fiber
        # points collide at v = -1/64 on that circle; Disc_u is 4*v*(1 + 64*v)
        d = D("u^2 - v - 64*v^2")
        radii = choose_radii(d, 128)
        assert radii.eta == mpf(1) / 256
        assert radii.validation["separation_ratio"] == 0.25
        perm = carousel_permutation(d, radii)
        assert perm.cycle_type == predicted_cycle_type(d) == (2,)

    def test_margins_of_a_pure_power(self):
        # v - u^5 at rho = 1, eta = 1/64: eta / (1/2)^5 and eta / 2^5
        validation = choose_radii(D("v - u^5"), 128).validation
        assert validation["rouche_ratio_half_rho"] == 0.5
        assert validation["rouche_ratio_two_rho"] == 2.0 ** -11

    def test_one_base_solve_and_no_slice_solve(self, monkeypatch):
        from carousel import roots

        diagram = select_generic_line(parse_polynomial("x^5 - x*y^3", ("x", "y"))).diagram
        calls = {"solve_numeric": 0, "univariate_roots": 0}

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(tracking_mod, "solve_numeric")
        spy(roots, "univariate_roots")
        choose_radii(diagram, 128)
        assert calls == {"solve_numeric": 1, "univariate_roots": 0}

    @pytest.mark.parametrize("text", CERTIFIED)
    def test_base_fiber_is_solved_exactly(self, text, monkeypatch):
        # the solver gets the exact Q(i) coefficients of Delta(u, eta), so the
        # base balls enclose its roots: each holds one 512-bit ball of them
        d = D(text)
        solved = []
        real = tracking_mod.solve_numeric

        def spy(coeffs, precision):
            solved.append(list(coeffs))
            return real(coeffs, precision)

        monkeypatch.setattr(tracking_mod, "solve_numeric", spy)
        radii = choose_radii(d, 128)
        assert all(type(c) is GaussianRational for coeffs in solved for c in coeffs)
        # eta = 4^-(k + j), and the last solve is the accepted one
        exact = d.defining.eliminate_variable("v", Fraction(1, int(1 / radii.eta)))
        assert solved[-1] == exact.dense_coefficients()
        fine = solve_numeric(exact.dense_coefficients(), 512)
        matched = []
        for ball in radii.base_points:
            inside = [i for i, b in enumerate(fine) if _ball_inside(b, ball)]
            assert len(inside) == 1, (text, ball)
            matched += inside
        assert len(set(matched)) == len(radii.base_points) == d.contact_count

    def test_triangle_bound_shrinks_rho(self):
        # Delta(u, 0) = -u^2 (1 - u)^4 has its far root at u = 1, which
        # would allow rho = 1/4; the coefficient bound needs rho = 1/16
        d = D("v - u^2*(1 - u)^4")
        radii = choose_radii(d, 128)
        assert radii.rho == mpf(1) / 16
        perm = carousel_permutation(d, radii)
        assert perm.cycle_type == predicted_cycle_type(d) == (2,)


class TestCarouselPermutation:
    def test_quintic_cycle(self):
        d = D("v - u^5")
        perm = carousel_permutation(d, choose_radii(d, 128))
        assert perm.m == 5
        assert perm.cycle_type == (5,)
        assert perm.fixed_points == ()

    def test_single_transverse_point_is_fixed(self):
        d = D("v + u")
        perm = carousel_permutation(d, choose_radii(d, 128))
        assert perm.m == 1
        assert perm.sigma == (0,)
        assert perm.fixed_points == (0,)

    def test_square_root_swap(self):
        d = D("v - u^2")
        perm = carousel_permutation(d, choose_radii(d, 128))
        assert perm.cycle_type == (2,)
        assert perm.sigma == (1, 0)

    def test_composite_diagram(self):
        d = D("(v - u^2)*(v - u^3)")
        perm = carousel_permutation(d, choose_radii(d, 128))
        assert perm.cycle_type == (2, 3)

    def test_determinism_and_step_doubling(self):
        d = D("(v - u^2)*(v - u^3)")
        radii = choose_radii(d, 128)
        a = carousel_permutation(d, radii)
        b = carousel_permutation(d, radii)
        assert a.sigma == b.sigma
        assert a.steps_used == b.steps_used
        assert a.orbit_traces == b.orbit_traces
        assert [str(x.center) for x in a.base_points] == [
            str(x.center) for x in b.base_points
        ]
        # the points over |v| = eta lie on two circles, so the continuity
        # check refuses some steps: each refusal halves the next step and
        # each acceptance doubles it, more steps than the 18 of a loop
        # that refuses none
        accepted = len(a.orbit_traces[0]) - 1
        assert 18 < accepted < a.steps_used

    @pytest.mark.parametrize("text", ("(v - u^2)*(v - u^3)", "v + u"))
    def test_one_row_pass_per_step(self, text, monkeypatch):
        # Delta's rows are evaluated at most once per step tried, at its
        # end, and once at v = eta: no step evaluates its start again,
        # since an accepted step's values start the next one, and no
        # angle is evaluated twice (the loop's two ends share v = eta)
        d = D(text)
        radii = choose_radii(d, 128)
        values = []
        real = tracking_mod._FiberPolynomial.at_value

        def spy(fiber, v):
            values.append(v)
            return real(fiber, v)

        monkeypatch.setattr(tracking_mod._FiberPolynomial, "at_value", spy)
        perm = carousel_permutation(d, radii)
        assert len(values) <= perm.steps_used + 1
        assert len(values) == len(set(values)) + 1
        assert values[0] == complex(radii.eta) and values.count(values[0]) == 2

    @pytest.mark.parametrize("germ,passes,steps", [
        ("x^5 - x*y^3", 34, 61),
        ("x^4 + x^2*y^2 + y^4", 129, 255),
    ])
    def test_refused_step_ends_are_not_evaluated_again(self, germ, passes, steps, monkeypatch):
        # crawls on the default line: a step refused at theta + 2s, halved
        # to theta + s and accepted, is followed by a step refused at
        # theta + 3s that halves back to theta + 2s, whose rows are kept
        # (one pass per step tried would be 62 and 256 passes)
        values = []
        real = tracking_mod._FiberPolynomial.at_value

        def spy(fiber, v):
            values.append(v)
            return real(fiber, v)

        monkeypatch.setattr(tracking_mod._FiberPolynomial, "at_value", spy)
        result = analyze_germ(germ)
        assert result.permutation.steps_used == steps
        assert len(values) == passes == len(set(values)) + 1

    def test_loop_inverse(self):
        d = D("v - u^5")
        radii = choose_radii(d, 128)
        forward = carousel_permutation(d, radii)
        backward = carousel_permutation(d, radii, direction=-1)
        inverse = [0] * forward.m
        for i, j in enumerate(forward.sigma):
            inverse[j] = i
        assert backward.sigma == tuple(inverse)

    def test_traces_cover_the_loop(self):
        d = D("v - u^2")
        radii = choose_radii(d, 128)
        perm = carousel_permutation(d, radii)
        assert len(perm.orbit_traces) == 2
        # one trace point per accepted step, plus the start
        assert all(len(t) == perm.steps_used + 1 for t in perm.orbit_traces)
        # each trace starts on its base point and ends on its image
        for i, trace in enumerate(perm.orbit_traces):
            for end, index in ((trace[0], i), (trace[-1], perm.sigma[i])):
                center = complex(perm.base_points[index].center)
                assert abs(complex(*end) - center) < 1e-12
        # the tracked points stay inside the fiber disc
        half = float(radii.rho) / 2
        for trace in perm.orbit_traces:
            assert all(re * re + im * im < half * half for re, im in trace)

    def test_minimum_steps_enforced(self):
        # the 1/16-turn cap sets 18 steps even where nothing is refused,
        # and the fixed step count is no longer a parameter
        d = D("v + u")
        radii = choose_radii(d, 128)
        assert carousel_permutation(d, radii).steps_used == 18
        with pytest.raises(TypeError):
            carousel_permutation(d, radii, steps=512)

    def test_step_cap(self, monkeypatch):
        # the cap on steps per loop (2^16) bounds the time of every loop
        assert tracking_mod._MAX_STEPS == 1 << 16
        d = D("v + u")
        radii = choose_radii(d, 128)
        monkeypatch.setattr(tracking_mod, "_MAX_STEPS", 18)
        assert carousel_permutation(d, radii).steps_used == 18
        monkeypatch.setattr(tracking_mod, "_MAX_STEPS", 17)
        with pytest.raises(TrackingError, match="step budget exhausted"):
            carousel_permutation(d, radii)

    def test_clustered_fiber_fails_fast(self):
        # two clusters of four fiber points about 1.5e-5 apart on the
        # default line l = x, which is not transverse: the double corrector
        # cannot separate them, and nothing tracks the loop again
        start = time.perf_counter()
        with pytest.raises(StageError) as info:
            analyze_germ("-3*y^5 + 3*x^3*y - 3*x^2")
        assert time.perf_counter() - start < 5
        assert info.value.stage == "carousel"
        assert type(info.value.error) is TrackingError


class TestAlphaTest:
    # the test runs on complex doubles, as the tracker does, and also on
    # mpmath values, with error bounds that stay in the double range
    @staticmethod
    def _radius(coeffs, z, double):
        if double:
            coeffs = [complex(c) for c in coeffs]
            gamma = error_factor(4 * len(coeffs), 2.0 ** -53)
        else:
            coeffs = [mpc(c) for c in coeffs]
            gamma = error_factor(4 * len(coeffs), mpf(2) ** -160)
        majorants = [abs(c) for c in coeffs]
        return tracking_mod._alpha_radius(coeffs, majorants, z, gamma)

    @pytest.mark.parametrize("double", (True, False))
    def test_accepts_at_a_simple_root(self, double):
        # u^2 - 1 at 0.9: beta = 0.19/1.8, gamma = 1/1.8, alpha ~ 0.059
        with mp.workprec(192):
            z = complex(0.9) if double else mpc("0.9")
            radius = self._radius([-1, 0, 1], z, double)
            assert radius is not None
            assert abs(z - 1) <= radius

    @pytest.mark.parametrize("double", (True, False))
    def test_refuses_next_to_a_near_double_root(self, double):
        # (u - 1)(u - 1 - eps) at 1 + 3*eps: beta = 1.2*eps, gamma = 1/(5*eps)
        eps = mpf(2) ** -20
        with mp.workprec(192):
            coeffs = [1 + eps, -(2 + eps), 1]
            z = 1 + 3 * eps
            assert self._radius(coeffs, complex(z) if double else mpc(z), double) is None
            # within eps/1024 of one root of the pair it passes
            near = 1 + eps / 1024
            assert self._radius(coeffs, complex(near) if double else mpc(near), double)

    def test_refuses_a_prediction_that_is_too_far(self):
        # v - u^2: one step straight from u = 1/4 to the next fiber over a
        # quarter turn is refused, the tangent prediction over 1/64 passes
        d = D("v - u^2")
        fiber = tracking_mod._FiberPolynomial(d.defining, 128)
        eta = 1.0 / 16
        start = [0.25, -0.25]
        here = fiber.at_value(eta)
        for turn, accepted in ((1 / 4, False), (1 / 64, True)):
            there = fiber.at_value(eta * cmath.exp(2j * math.pi * turn))
            predicted = tracking_mod._predict(here, [complex(z) for z in start], there.v)
            assert tracking_mod._alpha_certified(
                there.coeffs, there.majorants, predicted, fiber.gamma_d
            ) is accepted


class TestDoubleKernel:
    def test_unmatched_end_point_is_an_error(self, monkeypatch):
        # a TrackingError from the matching of the end points leaves
        # carousel_permutation at once: the loop is not tracked again
        d = D("v - u^5")
        radii = choose_radii(d, 128)
        calls = []

        def fails(points, end_radii, base):
            calls.append(points)
            raise TrackingError("unmatched")

        monkeypatch.setattr(tracking_mod, "_match_to_base", fails)
        with pytest.raises(TrackingError, match="unmatched"):
            carousel_permutation(d, radii)
        assert len(calls) == 1

    def test_double_balls_enclose_the_roots(self):
        rng = random.Random(11)
        for _ in range(25):
            degree = rng.randint(2, 7)
            terms = {
                (i, j): GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
                for i in range(degree)
                for j in range(3)
            }
            terms[(degree, 0)] = GaussianRational(rng.randint(1, 4))
            delta = Polynomial(("u", "v"), terms)
            fiber = tracking_mod._FiberPolynomial(delta, 256)
            with mp.workprec(288):
                v = mpmath.expjpi(mpf(rng.randint(0, 63)) / 32) / 16
                roots = aberth_roots(_fiber_at(delta, v), 256)
                rho = 4 * (1 + max(abs(b.center) for b in roots))
                starts = [complex(b.center) * (1 + 1e-9j) for b in roots]
                at = fiber.at_value(complex(v))
                result = tracking_mod._refine(fiber, at, at, starts, rho)
                assert result is not None
                for ball, z, radius in zip(roots, *result):
                    assert abs(ball.center - z) <= radius


class TestMatchToBase:
    # base balls of radius 1/8 at -1 and 1
    BASE = (ComplexBall(-1, 0.125, 53), ComplexBall(1, 0.125, 53))

    def test_each_disk_meets_one_ball(self):
        assert tracking_mod._match_to_base([0.95, -1.0], [0.1, 0.01], self.BASE) == [1, 0]
        assert tracking_mod._match_to_base([1j], [1.5], self.BASE[:1]) == [0]

    def test_disk_meeting_two_balls(self):
        with pytest.raises(TrackingError, match="meets 2 base balls"):
            tracking_mod._match_to_base([0.0, 1.0], [0.9, 0.01], self.BASE)

    def test_disk_meeting_none(self):
        # 1 + 0.25 + 0.125 + 2^-40: just clear of the ball at 1
        with pytest.raises(TrackingError, match="meets 0 base balls"):
            tracking_mod._match_to_base([-1.0, 1.375 + 2.0 ** -40], [0.01, 0.25], self.BASE)

    def test_touching_disks_meet(self):
        # |z - 1| = r + 1/8 exactly: closed disks that touch are not disjoint
        assert tracking_mod._match_to_base([-1.0, 1.375], [0.01, 0.25], self.BASE) == [0, 1]

    def test_two_disks_on_one_ball(self):
        with pytest.raises(TrackingError, match="one base ball"):
            tracking_mod._match_to_base([1.0, 1.01], [0.001, 0.001], self.BASE)


class TestPredictedCycleType:
    def test_quintic(self):
        assert predicted_cycle_type(D("v - u^5")) == (5,)

    def test_product(self):
        assert predicted_cycle_type(D("(v - u^2)*(v - u^3)")) == (2, 3)

    def test_transverse(self):
        assert predicted_cycle_type(D("v + u")) == (1,)

    def test_ramified_branch(self):
        # v^2 = u^3: one branch with u-order 2 and v-order 3
        assert predicted_cycle_type(D("v^2 - u^3")) == (3,)

    def test_oracle_equivalence_samples(self):
        for text in ("v - u^5", "v - u^2", "(v - u^2)*(v - u^3)", "v^2 - u^3",
                     "(v - u^3)*(v + u^3)"):
            d = D(text)
            perm = carousel_permutation(d, choose_radii(d, 128))
            assert perm.cycle_type == predicted_cycle_type(d), text


class TestFixedPointVerdict:
    def test_order_two_free(self):
        d = D("v - u^5")
        perm = carousel_permutation(d, choose_radii(d, 128))
        verdict = fixed_point_verdict(perm, 2)
        assert verdict.fixed_point_free and verdict.consistent
        assert verdict.predicted_lefschetz == 0

    def test_order_one_fixed_point_allowed(self):
        d = D("v + u")
        perm = carousel_permutation(d, choose_radii(d, 128))
        verdict = fixed_point_verdict(perm, 1)
        assert not verdict.fixed_point_free
        assert verdict.consistent
        assert verdict.predicted_lefschetz is None

    def test_order_two_with_fixed_point_is_inconsistent(self):
        d = D("v + u")
        perm = carousel_permutation(d, choose_radii(d, 128))
        verdict = fixed_point_verdict(perm, 2)
        assert not verdict.consistent

    def test_empty_diagram_has_no_carousel(self):
        from carousel.polar import cerf_diagram, LinearForm
        from carousel.gaussian import GaussianRational

        diagram = cerf_diagram(
            parse_polynomial("x*y", ("x", "y")),
            LinearForm(GaussianRational(1), GaussianRational(0), 0),
        )
        with pytest.raises(RadiiError):
            choose_radii(diagram, 128)


# every corpus germ takes the 18 steps of a loop without refusals, except
# these two, whose fiber points lie on nearby circles
STEP_BOUNDS = {"x^5 - x*y^3": 64, "x^4 + x^2*y^2 + y^4": 256}


def test_steps_used_on_the_corpus():
    from carousel.corpus import CORPUS, NON_M2

    for germ in CORPUS + NON_M2:
        steps = analyze_germ(germ).permutation.steps_used
        assert steps <= STEP_BOUNDS.get(germ, 18), (germ, steps)


def test_one_base_solve_per_analysis(monkeypatch):
    # choose_radii solves the base fiber and hands it to the tracker
    calls = []
    real = tracking_mod.solve_numeric

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tracking_mod, "solve_numeric", counted)
    result = analyze_germ("x^5 - x*y^3")
    assert len(calls) == 1
    assert result.permutation.cycle_type == result.predicted_cycles


_CONSTANTS = ("1", "-1", "2", "i", "-2*i", "1+i", "3")


@seed(6)
@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_CONSTANTS), st.integers(min_value=1, max_value=4)),
        min_size=1,
        max_size=3,
        unique=True,
    )
)
def test_tracked_cycle_type_of_branch_products(branches):
    # prod (v - c*u^k) over distinct (c, k): each factor is one cycle of length k
    d = D("*".join(f"(v - ({c})*u^{k})" for c, k in branches))
    perm = carousel_permutation(d, choose_radii(d, 128))
    assert perm.cycle_type == predicted_cycle_type(d) == tuple(sorted(k for _, k in branches))


@seed(7)
@settings(max_examples=15, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: 2 <= sum(e) <= 4),
        st.integers(-3, 3).filter(bool),
        min_size=2,
        max_size=4,
    )
)
def test_tracked_cycle_type_of_m2_germs(terms):
    f = Polynomial(("x", "y"), {e: GaussianRational(c) for e, c in terms.items()})
    fx, fy = f.partial_derivative("x"), f.partial_derivative("y")
    # an isolated singularity: squarefree, and the partials share no curve through 0
    assume(squarefree_part(f).total_degree() == f.total_degree())
    assume(not fx.is_zero() and not fy.is_zero())
    g = poly_gcd(fx, fy)
    assume(g.is_constant() or not g.constant_term().is_zero())
    result = analyze_germ(str(f))
    assert result.permutation.cycle_type == result.predicted_cycles
    assert result.permutation.fixed_points == ()
