"""Carousel radii, fiber tracking, permutation oracle, verdicts."""

import random

import mpmath
import pytest
from mpmath import mp, mpf

import carousel.tracking as tracking_mod
from carousel.gaussian import GaussianRational
from carousel.polar import diagram_from_defining, select_generic_line
from carousel.poly import Polynomial, parse_polynomial
from carousel.roots import aberth_roots, solve_numeric
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
        fiber = tracking_mod._FiberPolynomial(d.defining, 128)
        with mp.workprec(160):
            for scale in (1, mpf(1) / 2):
                for s in range(256):
                    v = scale * radii.eta * mpmath.expjpi(mpf(s) / 128)
                    balls = solve_numeric(fiber.at_value(v)[0], 128)
                    inside = [b for b in balls if abs(b.center) + b.radius < rho / 2]
                    outside = [b for b in balls if abs(b.center) - b.radius > 2 * rho]
                    assert len(inside) == m, (text, scale, s)
                    assert len(inside) + len(outside) == len(balls), (text, scale, s)

    @pytest.mark.parametrize("text", CERTIFIED)
    def test_rouche_margins_recorded(self, text):
        validation = choose_radii(D(text), 128).validation
        for key in ("rouche_ratio_half_rho", "rouche_ratio_two_rho"):
            assert 0 <= validation[key] < 1, key

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
        a = carousel_permutation(d, radii, steps=512, precision=128)
        b = carousel_permutation(d, radii, steps=512, precision=128)
        assert a.sigma == b.sigma
        assert [str(x.center) for x in a.base_points] == [
            str(x.center) for x in b.base_points
        ]
        doubled = carousel_permutation(d, radii, steps=1024, precision=128)
        assert doubled.sigma == a.sigma

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
        perm = carousel_permutation(d, radii, steps=128)
        assert len(perm.orbit_traces) == 2
        assert all(len(t) >= 129 for t in perm.orbit_traces)
        # the tracked points stay inside the fiber disc
        half = float(radii.rho) / 2
        for trace in perm.orbit_traces:
            assert all(re * re + im * im < half * half for re, im in trace)

    def test_minimum_steps_enforced(self):
        d = D("v - u^2")
        radii = choose_radii(d, 128)
        with pytest.raises(TrackingError):
            carousel_permutation(d, radii, steps=32)


class TestDoubleKernel:
    @staticmethod
    def _count_mpmath_steps(monkeypatch):
        calls = [0]
        real = tracking_mod._refine_points

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(tracking_mod, "_refine_points", counted)
        return calls

    @pytest.mark.parametrize("text", DIAGRAMS)
    def test_double_and_mpmath_kernels_agree(self, text, monkeypatch):
        d = D(text)
        radii = choose_radii(d, 128)
        calls = self._count_mpmath_steps(monkeypatch)
        fast = carousel_permutation(d, radii)
        # only the end-point polish ran in mpmath
        assert calls[0] == 1
        # a double kernel that refuses every step falls back to mpmath
        monkeypatch.setattr(tracking_mod, "_refine_double", lambda *args: None)
        slow = carousel_permutation(d, radii)
        assert calls[0] > fast.steps_used
        assert slow.sigma == fast.sigma
        assert slow.steps_used == fast.steps_used
        assert [str(b.center) for b in slow.base_points] == [
            str(b.center) for b in fast.base_points
        ]
        assert [len(t) for t in slow.orbit_traces] == [
            len(t) for t in fast.orbit_traces
        ]

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
            fiber = tracking_mod._FiberPolynomial(Polynomial(("u", "v"), terms), 256)
            with mp.workprec(288):
                v = mpmath.expjpi(mpf(rng.randint(0, 63)) / 32) / 16
                roots = aberth_roots(fiber.at_value(v)[0], 256)
                rho = 4 * (1 + max(abs(b.center) for b in roots))
                starts = [complex(b.center) * (1 + 1e-9j) for b in roots]
                result = tracking_mod._refine_double(fiber, v, starts, rho)
                assert result is not None
                for ball, z, radius in zip(roots, *result):
                    assert abs(ball.center - z) <= radius


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
