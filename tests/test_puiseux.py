"""Newton-Puiseux expansion, intersection numbers, Milnor and delta."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from carousel.poly import Polynomial, parse_polynomial
from carousel.puiseux import (
    CommonComponentError,
    PuiseuxError,
    delta_invariant,
    intersection_multiplicity,
    milnor_number,
    newton_polygon,
    puiseux_branches,
)

XY = ("x", "y")


def P(text):
    return parse_polynomial(text, XY)


class TestNewtonPolygon:
    def test_a4(self):
        segs = newton_polygon(P("x^5 - y^2"))
        assert len(segs) == 1
        assert segs[0].start == (0, 2) and segs[0].end == (5, 0)
        assert segs[0].slope == Fraction(-2, 5)
        assert segs[0].lattice_length == 1

    def test_node(self):
        segs = newton_polygon(P("x^2 - y^2"))
        assert len(segs) == 1
        assert segs[0].start == (0, 2) and segs[0].end == (2, 0)
        assert segs[0].lattice_length == 2

    def test_monomial_factor_stays_visible(self):
        segs = newton_polygon(P("y^3 - x^2*y"))
        assert len(segs) == 1
        assert segs[0].start == (0, 3) and segs[0].end == (2, 1)

    def test_two_segments(self):
        segs = newton_polygon(P("y^3 + x*y + x^5"))
        assert [(s.start, s.end) for s in segs] == [((0, 3), (1, 1)), ((1, 1), (5, 0))]
        assert segs[0].slope < segs[1].slope

    def test_unit_germ_rejected(self):
        with pytest.raises(PuiseuxError):
            newton_polygon(P("1 + x"))


class TestBranches:
    def test_a4_single_ramified_branch(self):
        dec = puiseux_branches(P("x^5 - y^2"))
        assert len(dec.branches) == 1
        b = dec.branches[0]
        assert b.ramification_index == 2
        assert b.exponents[0] == 5
        assert abs(b.coefficients[0].center - 1) < 1e-30

    def test_node_two_smooth_branches(self):
        dec = puiseux_branches(P("x^2 - y^2"))
        assert [b.ramification_index for b in dec.branches] == [1, 1]
        leads = sorted(float(b.coefficients[0].center.real) for b in dec.branches)
        assert leads == [-1.0, 1.0]
        assert all(b.exponents[0] == 1 for b in dec.branches)

    def test_tangent_smooth_pair(self):
        dec = puiseux_branches(P("y^2 - x^4"))
        assert [b.ramification_index for b in dec.branches] == [1, 1]
        assert all(b.exponents[0] == 2 for b in dec.branches)

    def test_hidden_a4(self):
        dec = puiseux_branches(P("(y - x^2)^2 - x^5"))
        assert len(dec.branches) == 1
        b = dec.branches[0]
        assert b.ramification_index == 2
        assert b.exponents[:2] == (4, 5)

    def test_axis_branches(self):
        dec = puiseux_branches(P("x*y"))
        assert dec.x_axis_multiplicity == 1
        assert len(dec.branches) == 1 and dec.branches[0].is_axis
        assert dec.branch_count == 2

    def test_irrational_multiple_segment(self):
        # (y^2 - 2x^2)^2 = x^5: two conjugate-pair branches with e = 2
        dec = puiseux_branches(P("(y^2 - 2*x^2)^2 - x^5"))
        assert [b.ramification_index for b in dec.branches] == [2, 2]
        leads = sorted(float(b.coefficients[0].center.real) for b in dec.branches)
        assert abs(leads[0] + math.sqrt(2)) < 1e-25
        assert abs(leads[1] - math.sqrt(2)) < 1e-25

    def test_multiplicities_from_decomposition(self):
        dec = puiseux_branches(P("(x^2 - y^2) * (y - x^2)^2"))
        mults = sorted(dec.multiplicities)
        assert mults == [1, 1, 2]

    def test_branch_count_matches_gcd(self):
        for n in range(2, 7):
            for m in range(2, 7):
                dec = puiseux_branches(P(f"x^{n} - y^{m}"))
                assert dec.branch_count == math.gcd(n, m)

    def test_resubstitution(self):
        # every branch must satisfy its curve to its truncation order; the
        # last germ separates only past order 16, so it is checked to 24
        for text in ("x^5 - y^2", "x^3 - x*y^2", "(y - x^2)^2 - x^5",
                     "(y^2 - 2*x^2)^2 - x^5", "x^2*y + y^4",
                     "(y^2 - x^3)*(y^2 - x^3 - x^10)"):
            f = P(text)
            dec = puiseux_branches(f)
            for b in dec.branches:
                if b.is_axis:
                    continue
                _assert_small_residual(f, b, order=24)

    def test_unit_germ_rejected(self):
        with pytest.raises(PuiseuxError):
            puiseux_branches(P("1 + x + y"))

    def test_truncation_doubles_until_branches_separate(self):
        dec = puiseux_branches(P("(y - x^2 - x^9)*(y - x^2 - 2*x^9)"))
        assert [b.exponents for b in dec.branches] == [(2, 9), (2, 9)]
        assert [b.truncation_order for b in dec.branches] == [16, 16]


def _assert_small_residual(f, branch, order):
    """Compose f(t^e, y(t)) as a truncated series; low coefficients ~ 0."""
    with mp.workprec(200):
        T = order
        y = [mpc(0)] * (T + 1)
        for m_exp, ball in zip(branch.exponents, branch.coefficients):
            if m_exp <= T:
                y[m_exp] = ball.center
        e = branch.ramification_index

        def mul(a, b):
            out = [mpc(0)] * (T + 1)
            for i, ai in enumerate(a):
                if ai == 0:
                    continue
                for j in range(min(T - i, len(b) - 1) + 1):
                    if b[j] != 0:
                        out[i + j] += ai * b[j]
            return out

        maxj = max(j for (_, j) in f.terms)
        pow_y = [mpc(0)] * (T + 1)
        pow_y[0] = mpc(1)
        acc = [mpc(0)] * (T + 1)
        from carousel.roots import gaussian_to_mpc

        by_j = {}
        for (i, j), c in f.terms.items():
            by_j.setdefault(j, []).append((i, gaussian_to_mpc(c)))
        for j in range(maxj + 1):
            for i, c in by_j.get(j, ()):
                shift = e * i
                if shift <= T:
                    for k in range(T + 1 - shift):
                        if pow_y[k] != 0:
                            acc[shift + k] += c * pow_y[k]
            if j < maxj:
                pow_y = mul(pow_y, y)
        scale = max([abs(c) for ball in branch.coefficients for c in [ball.center]] + [mpf(1)])
        for k in range(min(T, branch.truncation_order) + 1):
            assert abs(acc[k]) < mpf(2) ** -80 * scale ** maxj, (k, acc[k])


class TestIntersection:
    def test_transverse_axes(self):
        assert intersection_multiplicity(P("x"), P("y")) == 1

    def test_cusp_against_horizontal(self):
        assert intersection_multiplicity(P("y^2 - x^3"), P("y")) == 3

    def test_cusp_against_vertical(self):
        assert intersection_multiplicity(P("y^2 - x^3"), P("x")) == 2

    def test_symmetry(self):
        rng = random.Random(17)
        count = 0
        while count < 20:
            f = _random_germ(rng)
            g = _random_germ(rng)
            try:
                lhs = intersection_multiplicity(f, g)
                rhs = intersection_multiplicity(g, f)
            except (CommonComponentError, PuiseuxError):
                continue
            assert lhs == rhs
            count += 1

    def test_multiplicativity(self):
        rng = random.Random(23)
        count = 0
        while count < 12:
            f = _random_germ(rng)
            g = _random_germ(rng)
            h = _random_germ(rng)
            try:
                total = intersection_multiplicity(f, g * h)
                parts = intersection_multiplicity(f, g) + intersection_multiplicity(f, h)
            except (CommonComponentError, PuiseuxError):
                continue
            assert total == parts
            count += 1

    def test_common_component_detected(self):
        with pytest.raises(CommonComponentError):
            intersection_multiplicity(P("x*y"), P("x*(x + y)"))


class TestMilnorDelta:
    @pytest.mark.parametrize(
        "germ,mu",
        [("x^2 + y^2", 1), ("x^3 - y^2", 2), ("x^5 - y^2", 4)],
    )
    def test_milnor_examples(self, germ, mu):
        assert milnor_number(P(germ)) == mu

    @pytest.mark.parametrize(
        "germ,delta",
        [("x^5 - y^2", 2), ("x^2 - y^2", 1), ("y - x^2", 0)],
    )
    def test_delta_examples(self, germ, delta):
        assert delta_invariant(P(germ)) == delta

    def test_milnor_relation_on_corpus(self):
        from carousel.corpus import CORPUS

        for germ in CORPUS:
            f = P(germ)
            mu = milnor_number(f)
            r = puiseux_branches(f).branch_count
            delta = delta_invariant(f)
            assert mu == 2 * delta - r + 1

    def test_jacobian_monomial_oracle(self):
        # quasihomogeneous x^a + y^b: mu = (a-1)(b-1), the count of
        # monomials outside the Jacobian ideal (x^(a-1), y^(b-1))
        for a in range(2, 6):
            for b in range(2, 6):
                assert milnor_number(P(f"x^{a} + y^{b}")) == (a - 1) * (b - 1)

    def test_branches_computed_once_per_germ(self, monkeypatch):
        import carousel.polar as polar_mod
        import carousel.puiseux as puiseux_mod
        from carousel.report import analyze_germ

        germ = P("x^2*y + y^4")
        calls = []
        real = puiseux_mod.puiseux_branches

        def counting(f, *args, **kwargs):
            calls.append(f)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(puiseux_mod, "puiseux_branches", counting)
        monkeypatch.setattr(polar_mod, "puiseux_branches", counting)
        assert delta_invariant(germ) == 3
        assert calls == [germ]
        calls.clear()
        result = analyze_germ("x^2*y + y^4")
        assert (result.mu, result.delta, result.branch_count) == (5, 3, 2)
        # the line stage expands the Cerf diagram, never the germ
        assert [f for f in calls if f == germ] == [germ]

    def test_non_isolated_rejected(self):
        with pytest.raises(PuiseuxError):
            milnor_number(P("x^2"))
        with pytest.raises(PuiseuxError):
            milnor_number(P("x^2 * y + x^3"))


def _random_germ(rng):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, 4)
            j = rng.randint(0, 4 - i)
            if i == j == 0:
                continue
            terms[(i, j)] = rng.randint(-3, 3)
        p = Polynomial(XY, {k: v for k, v in terms.items() if v})
        if not p.is_zero():
            return p
