"""Polar curves, Cerf diagrams, line certificates, tangency."""

import random
from fractions import Fraction

import pytest

from carousel.gaussian import GaussianRational
from carousel.polar import (
    CertificateFailure,
    GenericityError,
    LinearForm,
    cerf_diagram,
    diagram_from_defining,
    pick_generic_line,
    polar_curve,
    select_generic_line,
    tangency_report,
)
from carousel.poly import Polynomial, parse_polynomial, poly_gcd, squarefree_part
from carousel.puiseux import (
    PuiseuxError,
    branch_structure,
    delta_invariant,
    intersection_multiplicity,
    milnor_number,
    newton_polygon,
    puiseux_branches,
)

XY = ("x", "y")


def P(text):
    return parse_polynomial(text, XY)


def line(a, b, seed=0):
    return LinearForm(GaussianRational.from_value(a), GaussianRational.from_value(b), seed)


LX = line(1, 0)


class TestPolarCurve:
    def test_a4(self):
        pc = polar_curve(P("x^5 - y^2"), LX)
        assert str(pc.defining) == "y"
        assert pc.removed_factors == ()
        assert not pc.is_empty_at_origin

    def test_node_product(self):
        pc = polar_curve(P("x*y"), LX)
        assert pc.is_empty_at_origin
        assert [str(r) for r in pc.removed_factors] == ["x"]

    def test_hyperbola(self):
        pc = polar_curve(P("x^2 - y^2"), LX)
        assert str(pc.defining) == "y"

    def test_no_shared_component_after_removal(self):
        rng = random.Random(4)
        for _ in range(10):
            f = _random_m2_germ(rng)
            for cand in (line(1, 0), line(0, 1), line(1, 1)):
                try:
                    pc = polar_curve(f, cand)
                except CertificateFailure:
                    continue
                if pc.defining.is_constant():
                    continue
                assert poly_gcd(pc.defining, f).is_constant()


class TestCerfDiagram:
    def test_a4(self):
        d = cerf_diagram(P("x^5 - y^2"), LX)
        assert str(d.defining) == "u^5 - v"
        assert d.leading_exponents == (Fraction(5),)
        assert d.tangent_to_first_axis
        assert d.contact_count == 5

    def test_node(self):
        d = cerf_diagram(P("x^2 - y^2"), LX)
        assert str(d.defining) == "u^2 - v"
        assert d.leading_exponents == (Fraction(2),)
        assert d.contact_count == 2

    def test_smooth_non_m2(self):
        d = cerf_diagram(P("y^2 - x"), LX)
        assert str(d.defining) == "u + v"
        assert d.leading_exponents == (Fraction(1),)
        assert not d.tangent_to_first_axis
        assert d.contact_count == 1

    def test_two_route_contact_count(self):
        for text, l in (("x^3 - x*y^2", line(0, 1)), ("x^2*y + y^4", LX)):
            d = cerf_diagram(P(text), l)
            v = Polynomial.variable(("u", "v"), "v")
            assert d.contact_count == intersection_multiplicity(d.defining, v)
            assert d.contact_count == sum(b.y_order for b in d.branches.branches)

    def test_first_exponent_beyond_start_truncation(self):
        # the first exponent lies past the 8 starting terms: the expansion
        # must double rather than return an empty branch (the axis)
        for text, m in (("v - u^9", 9), ("v^2 - u^19", 19)):
            d = diagram_from_defining(parse_polynomial(text, ("u", "v")))
            assert not any(b.is_axis for b in d.branches.branches)
            assert d.contact_count == m

    def test_repeated_factor_of_delta_dropped(self):
        # the squarefree Delta is the product of its decomposition's
        # factors; an axis factor u still fails the certificate
        uv = ("u", "v")
        d = diagram_from_defining(parse_polynomial("(v - u^3)^2*(v + u^2)", uv))
        assert d == diagram_from_defining(parse_polynomial("(v - u^3)*(v + u^2)", uv))
        assert str(d.defining) == "u^5 + u^3*v - u^2*v - v^2"
        assert d.leading_exponents == (Fraction(2), Fraction(3))
        assert d.contact_count == 5
        with pytest.raises(CertificateFailure):
            diagram_from_defining(parse_polynomial("u*(v - u^2)", uv))

    def test_diagram_squarefree(self):
        for text in ("x^3 - x*y^2", "x^4 + x^2*y^2 + y^4"):
            sel = select_generic_line(P(text), 0)
            delta = sel.diagram.defining
            for var in ("u", "v"):
                assert poly_gcd(delta, delta.partial_derivative(var)).is_constant()


# every entry point that takes a plane-curve germ, and what it reads
GERM_ENTRY_POINTS = {
    "polar_curve": lambda f: polar_curve(f, LX),
    "cerf_diagram": lambda f: cerf_diagram(f, LX),
    "select_generic_line": select_generic_line,
    "pick_generic_line": pick_generic_line,
    "newton_polygon": newton_polygon,
    "branch_structure": branch_structure,
    "puiseux_branches": puiseux_branches,
    "milnor_number": milnor_number,
    "delta_invariant": delta_invariant,
}


@pytest.mark.parametrize("entry", sorted(GERM_ENTRY_POINTS))
@pytest.mark.parametrize(
    "text, variables, message",
    [
        ("1 + x*y", XY, "unit germ: f(0,0) != 0"),
        ("0", XY, "zero germ"),
        ("x^2 - t^3", ("x", "y", "t"), "expected a plane-curve germ in two variables"),
    ],
    ids=["unit", "zero", "three-variables"],
)
def test_one_entry_check_for_germs(entry, text, variables, message):
    with pytest.raises(PuiseuxError) as info:
        GERM_ENTRY_POINTS[entry](parse_polynomial(text, variables))
    assert type(info.value) is PuiseuxError
    assert str(info.value) == message


class TestPickGenericLine:
    def test_a4_seed_zero_accepts_x(self):
        assert str(pick_generic_line(P("x^5 - y^2"), 0)) == "x"

    def test_node_rejects_diagonals(self):
        # x + y and x - y share a component with x^2 - y^2; x passes
        sel = select_generic_line(P("x^2 - y^2"), 0)
        a, b = sel.line.a, sel.line.b
        assert a * a != b * b
        for bad in (line(1, 1), line(1, -1)):
            pc = polar_curve(P("x^2 - y^2"), bad)
            assert pc.removed_factors  # the certificate rejects these

    def test_smooth_germ_accepted(self):
        sel = select_generic_line(P("y^2 - x"), 0)
        assert not sel.diagram.is_empty

    def test_retries_record_failures(self):
        sel = select_generic_line(P("x^3 - x*y^2"), 0)
        assert sel.attempts == 2
        assert len(sel.failures) == 1
        assert "share" in sel.failures[0][1]

    def test_transverse_line_kept_for_a_high_contact_branch(self):
        # Delta(u, v) = v + u^9 for l = x; its branch starts past the 8
        # starting terms of the expansion and must not read as the axis
        from carousel.report import analyze_germ

        result = analyze_germ("y^2 - x^9")
        assert str(result.line) == "x"
        assert result.line_attempts == 1
        assert result.permutation.cycle_type == (9,)
        assert result.diagram.contact_count == result.mu + result.f_order - 1

    def test_exhaustion_reports_certificates(self):
        # squares are not reduced: every line fails before the diagram stage
        with pytest.raises(Exception) as err:
            select_generic_line(P("x^2"), 0)
        assert isinstance(err.value, (GenericityError, Exception))


class TestTangency:
    def test_tangent_consistent(self):
        verdict = tangency_report(cerf_diagram(P("x^5 - y^2"), LX), 2)
        assert verdict.tangent and verdict.consistent
        assert verdict.exponents == (Fraction(5),)

    def test_not_tangent_but_order_one(self):
        verdict = tangency_report(cerf_diagram(P("y^2 - x"), LX), 1)
        assert not verdict.tangent and verdict.consistent

    def test_empty_polar_is_vacuous(self):
        verdict = tangency_report(cerf_diagram(P("x*y"), LX), 2)
        assert verdict.tangent and verdict.consistent and verdict.empty_polar
        assert verdict.note is not None

    def test_inconsistency_flagged(self):
        # a diagram with exponent 1 paired with an order-2 germ is flagged
        diagram = diagram_from_defining(parse_polynomial("u + v", ("u", "v")))
        verdict = tangency_report(diagram, 2)
        assert not verdict.consistent
        assert verdict.status == "INCONSISTENT"


class TestTangencyInvariant:
    def test_twenty_random_m2_germs(self):
        rng = random.Random(2024)
        found = 0
        while found < 20:
            f = _random_m2_germ(rng)
            sel = select_generic_line(f, seed=found)
            if sel.diagram.is_empty:
                found += 1  # vacuous tangency; nothing to assert
                continue
            assert all(a > 1 for a in sel.diagram.leading_exponents), (
                str(f),
                sel.diagram.leading_exponents,
            )
            found += 1

    def test_exponent_invariance_across_lines(self):
        f = P("x^5 - y^2")
        first = select_generic_line(f, 0)
        other = cerf_diagram(f, line(1, 1))
        assert sorted(first.diagram.leading_exponents) == sorted(
            other.leading_exponents
        ) == [Fraction(5)]
        assert first.diagram.contact_count == other.contact_count == 5


def _random_m2_germ(rng):
    """Random germ with order >= 2, degree <= 5, isolated singularity."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 6)):
            d = rng.randint(2, 5)
            i = rng.randint(0, d)
            terms[(i, d - i)] = rng.randint(-3, 3)
        f = Polynomial(XY, {k: v for k, v in terms.items() if v})
        if f.is_zero() or f.order_at_origin() < 2:
            continue
        sf = squarefree_part(f)
        if sf.total_degree() != f.total_degree():
            continue
        fx = f.partial_derivative("x")
        fy = f.partial_derivative("y")
        if fx.is_zero() or fy.is_zero():
            continue
        g = poly_gcd(fx, fy)
        if not g.is_constant() and g.constant_term().is_zero():
            continue
        return f
