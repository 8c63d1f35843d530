"""Newton-Puiseux expansion, intersection numbers, Milnor and delta."""

import math
import random
import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import carousel.puiseux as puiseux_mod
from carousel.gaussian import ONE, ZERO, GaussianRational
from carousel.poly import Polynomial, parse_polynomial, squarefree_part
from carousel.puiseux import (
    CommonComponentError,
    PuiseuxError,
    delta_invariant,
    intersection_multiplicity,
    milnor_number,
    newton_polygon,
    puiseux_branches,
)
from carousel.report import StageError, analyze_germ
from carousel.roots import PrecisionError, gaussian_to_mpc

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
        # two branches of the last germ part at t^17, so its truncation is
        # 32 and it is checked to order 24
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

    def test_truncation_doubles_until_branches_separate(self, monkeypatch):
        # the branches part at x^9, so the one truncation is 16; the tail
        # series are solved once, at that length, never at 8 first
        real = puiseux_mod._tail_series
        budgets = []

        def spy(terms, budget, thresh):
            budgets.append(budget)
            return real(terms, budget, thresh)

        monkeypatch.setattr(puiseux_mod, "_tail_series", spy)
        dec = puiseux_branches(P("(y - x^2 - x^9)*(y - x^2 - 2*x^9)"))
        assert [b.exponents for b in dec.branches] == [(2, 9), (2, 9)]
        assert [b.truncation_order for b in dec.branches] == [16, 16]
        assert budgets == [16, 16]

    def test_root_of_a_negative_mu_does_not_follow_rounding_noise(self):
        # x = mu t^2 with mu exactly -16: the square root of 1/mu is taken
        # at arg pi, so the t^7 coefficients agree across precisions
        f = P("(y^2 - (1+i)*x^2)^2 - x^9")
        low, high = puiseux_branches(f, 128), puiseux_branches(f, 160)
        assert [b.exponents for b in low.branches] == [(2, 7), (2, 7)]
        for a, b in zip(low.branches, high.branches):
            assert a.exponents == b.exponents
            for ca, cb in zip(a.coefficients, b.coefficients):
                assert abs(ca.center - cb.center) < mpf(2) ** -100


# (ramification, first exponent, multiplicity) per branch in order, and the
# truncation, of germs whose branches pass through irrational segment roots
# or whose truncation is set past 8
PINNED_STRUCTURE = {
    "(y^2 - 2*x^2)^2 - x^5": ([(2, 2, 1)] * 2, 8),
    # psi = z^3 - 2, then a linear step over K
    "(y^3 - 2*x^3)^2 - x^7": ([(2, 2, 1)] * 3, 8),
    # a squarefree quadratic segment polynomial over K
    "(y^2 - 3*x^2)^2 + x^5*y": ([(1, 1, 1)] * 4, 8),
    # psi = (z^2 - 2)(z^2 - 3) splits
    "((y^2 - 2*x^2)^2 - x^5)*((y^2 - 3*x^2)^2 - x^7)": ([(2, 2, 1)] * 4, 8),
    "x^3 + y^3 + x^2*y^2": ([(1, 1, 1)] * 3, 8),
    "y^2 - 2*x^2 - x^3": ([(1, 1, 1)] * 2, 8),
    # x = t^4, y = t^8 + t^15: the last characteristic exponent sets 16
    "(y - x^2)^4 - x^15": ([(4, 8, 1)], 16),
    # y = t^3 ends; its sibling's tail starts at t^17, where they part
    "(y^2 - x^3)*(y^2 - x^3 - x^10)": ([(2, 3, 1)] * 2, 32),
}


class TestExactStructure:
    @pytest.mark.parametrize("germ", list(PINNED_STRUCTURE))
    def test_pinned_structure(self, germ):
        dec = puiseux_branches(P(germ))
        structure, truncation = PINNED_STRUCTURE[germ]
        got = [(b.ramification_index, b.exponents[0], m)
               for b, m in zip(dec.branches, dec.multiplicities)]
        assert got == structure
        assert dec.x_axis_multiplicity == 0
        assert [b.truncation_order for b in dec.branches] == [truncation] * len(got)

    def test_zero_divisor_splits_the_modulus(self, monkeypatch):
        # over Q(i)[z]/((z^2 - 2)(z^2 - 3)) some coefficients vanish at
        # the roots of one factor only: the K-level expansion is redone
        # over each factor, and the branches keep their own exponents
        real = puiseux_mod._over
        degrees = []

        def spy(terms, edge, psi, depth):
            degrees.append(psi.degree("z"))
            return real(terms, edge, psi, depth)

        monkeypatch.setattr(puiseux_mod, "_over", spy)
        dec = puiseux_branches(P("((y^2 - 2*x^2)^2 - x^5)*((y^2 - 3*x^2)^2 - x^7)"))
        assert degrees == [4, 2, 2]
        leads = [float(b.coefficients[0].center.real) for b in dec.branches]
        assert [round(c * c) for c in leads] == [3, 2, 2, 3]
        assert [b.exponents[:3] for b in dec.branches] == [
            (2, 5, 8), (2, 3, 4), (2, 3, 4), (2, 5, 8)]

    def test_zero_divisor_at_the_end_of_an_edge_splits(self):
        # below psi = (z^2 - 2)(z^2 - 3) the x^5 term vanishes at +-sqrt 3
        # only, where the last edge of the polygon ends at x^7 instead;
        # no inverse is taken on that edge, so only the test of every
        # coefficient at the node splits psi there
        dec = puiseux_branches(P("((y^2 - 2*x^2)^2 + x^4*(y^2 - 2*x^2) + x^9)"
                                 "*((y^2 - 3*x^2)^2 + x^4*(y^2 - 3*x^2) + x^11)"))
        assert [b.exponents[:3] for b in dec.branches] == [
            (1, 3, 5), (1, 6), (1, 3, 4), (1, 4, 5), (1, 3, 4), (1, 4, 5), (1, 3, 5), (1, 6)]

    # the two germs above whose expansion splits psi, with their exact
    # structure: (ramification, skeleton) per branch
    SPLIT_STRUCTURE = {
        "((y^2 - 2*x^2)^2 - x^5)*((y^2 - 3*x^2)^2 - x^7)":
            [(2, ((2, 0, 1), (3, 0, 2), (4, "tail", 1)))] * 2
            + [(2, ((2, 0, 1), (5, 0, 2), (8, "tail", 1)))] * 2,
        "((y^2 - 2*x^2)^2 + x^4*(y^2 - 2*x^2) + x^9)"
        "*((y^2 - 3*x^2)^2 + x^4*(y^2 - 3*x^2) + x^11)":
            [(1, ((1, 0, 1), (3, 0, 1), (4, "tail", 1)))] * 2
            + [(1, ((1, 0, 1), (4, 1, 1), (5, "tail", 1)))] * 2
            + [(1, ((1, 0, 1), (3, 0, 1), (5, "tail", 1)))] * 2
            + [(1, ((1, 0, 1), (6, 1, 1), (9, "tail", 1)))] * 2,
    }

    @pytest.mark.parametrize("germ", list(SPLIT_STRUCTURE))
    def test_zero_divisors_are_found_by_a_gcd(self, germ, monkeypatch):
        # each coefficient at a node over K is tested by one gcd with psi;
        # the extended Euclid of _inv only inverts units, 7 times in all
        real = puiseux_mod._inv
        callers = []

        def spy(c, psi):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(c, psi)

        monkeypatch.setattr(puiseux_mod, "_inv", spy)
        dec = puiseux_mod.branch_structure(P(germ))
        assert "_expand" not in callers
        assert len(callers) == 7
        assert [(b.ramification_index, b.skeleton) for b in dec.branches] == (
            self.SPLIT_STRUCTURE[germ])
        assert dec.multiplicities == (1,) * len(dec.branches)

    def test_repeated_root_in_the_field_is_a_root(self):
        # over K = Q(sqrt 2) the next segment polynomial is (8w - 1)^2, whose
        # double root lies in K: the expansion goes on over the same psi
        f = P("((y^2 - 2*x^2)^2 - x^5)^2 - x^11")
        dec = puiseux_branches(f)
        assert [b.ramification_index for b in dec.branches] == [2] * 4
        assert dec.multiplicities == (1,) * 4
        assert (milnor_number(f), delta_invariant(f), dec.branch_count) == (65, 34, 4)
        for b in dec.branches:
            _assert_small_residual(f, b, order=8)

    def test_tower_raises(self):
        # over K = Q(sqrt 2) the next segment polynomial is (8w^2 - 3)^2:
        # its roots +-sqrt(6)/4 would need a second extension
        with pytest.raises(PuiseuxError, match="tower"):
            puiseux_branches(P("((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13"))

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
    @pytest.mark.parametrize("germ", [
        "(((y^2 - 2*x^2)^2 - x^5)^2 - x^11)*((y^2 - 2*x^2)^2 - 2*x^5)",
        "((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13",
    ])
    def test_tower_fails_before_mu(self, germ):
        # milnor_number builds the branch structure before the intersection
        # reduction for mu, which ran for minutes on the first germ
        def timeout(*_):
            raise TimeoutError(f"milnor_number({germ}) still running after 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            with pytest.raises(PuiseuxError, match="tower"):
                milnor_number(P(germ))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("germ,want", [
        ("(y^2 - 5*x^2)^2 - x^9", [(2, (2, 7))] * 2),
        ("((y^2 - 2*x^2)^2 + x^4*(y^2 - 2*x^2) + x^9)*((y^2 - 3*x^2)^2 - x^9)",
         [(1, (1, 3, 4)), (1, (1, 4, 5))] * 2 + [(2, (2, 7))] * 2),
    ])
    def test_double_irrational_root_with_a_late_tail(self, germ, want):
        # the double roots +-sqrt 5 and +-sqrt 3 each carry a branch with
        # e = 2 whose tail starts only at t^7; all of them must be found
        f = P(germ)
        dec = puiseux_branches(f)
        assert [(b.ramification_index, b.exponents[:3]) for b in dec.branches] == want
        for b in dec.branches:
            _assert_small_residual(f, b, order=8)


def _shared_fields(dec):
    """What the exact structure and the series must agree on: (e, first
    exponent) per branch in order, the (e, first exponent, multiplicity)
    triples, the x-axis multiplicity, the branch count and the leading
    exponents in order."""
    heads = [(b.ramification_index, None if b.is_axis else b.y_order) for b in dec.branches]
    return (
        heads,
        sorted((e, first or 0, m) for (e, first), m in zip(heads, dec.multiplicities)),
        dec.x_axis_multiplicity,
        dec.branch_count,
        [b.leading_exponent for b in dec.branches if not b.is_axis],
    )


def _census(source):
    """The germs of one census source, each followed by its diagram's Delta."""
    from carousel.corpus import CORPUS, NON_M2
    from carousel.gaussian import GaussianRational
    from carousel.polar import LinearForm, cerf_diagram, select_generic_line
    from test_polar import _random_m2_germ

    if source == "pinned":
        return [P(g) for g in list(PINNED_STRUCTURE) + [
            "(y^2 - 5*x^2)^2 - x^9",
            "((y^2 - 2*x^2)^2 + x^4*(y^2 - 2*x^2) + x^9)*((y^2 - 3*x^2)^2 - x^9)",
            "((y^2 - 2*x^2)^2 + x^4*(y^2 - 2*x^2) + x^9)"
            "*((y^2 - 3*x^2)^2 + x^4*(y^2 - 3*x^2) + x^11)"]]
    out = []
    if source == "corpus":
        germs = [(P(g), None) for g in CORPUS + NON_M2]
    else:
        rng = random.Random(12345)
        line = LinearForm(GaussianRational(3), GaussianRational(2), 0)
        germs = [(_random_m2_germ(rng), line) for _ in range(24)]
    for f, line in germs:
        d = select_generic_line(f).diagram if line is None else cerf_diagram(f, line)
        out += [f] if d.is_empty else [f, d.defining]
    return out


class TestStructureCensus:
    @pytest.mark.parametrize("source,count", [("corpus", 44), ("random", 48), ("pinned", 11)])
    def test_structure_equals_the_series(self, source, count):
        # f and Delta of CORPUS + NON_M2 on the default line, the 24 random
        # germs and their Delta on l = 3x + 2y, and the germs above
        germs = _census(source)
        assert len(germs) == count
        for f in germs:
            structure = puiseux_mod.branch_structure(f)
            assert all(type(b) is puiseux_mod.ExactBranch for b in structure.branches)
            assert _shared_fields(structure) == _shared_fields(puiseux_branches(f)), str(f)


def _exact_tail(terms, order):
    """y(x) mod x^(order + 1) with h(x, y(x)) = 0 and y(0) = 0, in Q(i).

    h = sum c_ij x^i y^j with c_01 != 0; each sweep of
    y <- -(h - c_01 y)(x, y) / c_01 fixes one more order.  Returns the
    nonzero coefficients {k: y_k}.
    """
    c01 = terms[(0, 1)]
    rest = {key: c for key, c in terms.items() if key != (0, 1)}
    maxj = max(j for _, j in terms)
    y = [ZERO] * (order + 1)
    for _ in range(order):
        powers = [[ONE] + [ZERO] * order]
        for _ in range(maxj):
            prev = powers[-1]
            powers.append([
                sum((prev[m] * y[k - m] for m in range(k) if not prev[m].is_zero()), ZERO)
                for k in range(order + 1)
            ])
        val = [ZERO] * (order + 1)
        for (i, j), c in rest.items():
            for k in range(order + 1 - i):
                val[i + k] += c * powers[j][k]
        y = [-v / c01 for v in val]
    return {k: v for k, v in enumerate(y) if not v.is_zero()}


def _assert_tail_matches(got, want, precision):
    assert sorted(got) == sorted(want)
    with mp.workprec(precision + 200):
        for k, v in want.items():
            exact = gaussian_to_mpc(v)
            assert abs(got[k] - exact) <= mpf(2) ** -precision * abs(exact), k


@st.composite
def _smooth_tails(draw):
    """h with Q(i) coefficients, h_y(0,0) != 0 and h(0,0) = 0."""
    c01 = draw(st.sampled_from([ONE, -ONE, GaussianRational(0, 1),
                                GaussianRational(1, -1), GaussianRational(2)]))
    terms = {(0, 1): c01}
    keys = [(i, j) for i in range(5) for j in range(5 - i) if (i, j) not in ((0, 0), (0, 1))]
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=5, unique=True)):
        re, im = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        c = GaussianRational(Fraction(re, draw(st.integers(1, 3))), im)
        if not c.is_zero():
            terms[key] = c
    return terms


class TestTailSeries:
    """`_tail_series`, the series Newton step under every smooth branch tail."""

    @seed(11)
    @settings(max_examples=40, deadline=None)
    @given(terms=_smooth_tails(), precision=st.sampled_from([128, 256]))
    def test_matches_the_exact_series(self, terms, precision):
        with mp.workprec(precision + 64):
            got = puiseux_mod._tail_series(terms, 16, mpf(2) ** -(precision // 2))
        _assert_tail_matches(got, _exact_tail(terms, 16), precision)

    @pytest.mark.parametrize("tiny,scale", [
        (GaussianRational(Fraction(1, 2**200)), 1),
        (GaussianRational(0, Fraction(3, 2**300)), 1),
        (GaussianRational(0, Fraction(3, 2**300)), 2**500),
    ], ids=["2^-200", "3i*2^-300", "3i*2^-300,h*2^500"])
    def test_badly_scaled_h(self, tiny, scale):
        # h_y(0,0) = 2^-200 against a largest coefficient 1: at the
        # unwidened scale h_y(0,0) would keep 24 bits, and 2^-300 would
        # round to 0.  Scaling h by 2^500 leaves y(x) as it is.
        terms = {(0, 1): tiny, (1, 0): -ONE, (0, 2): ONE, (1, 1): ONE}
        want = _exact_tail(terms, 16)
        terms = {key: c * scale for key, c in terms.items()}
        with mp.workprec(128 + 64):
            got = puiseux_mod._tail_series(terms, 16, mpf(2) ** -64)
        _assert_tail_matches(got, want, 128)

    def test_exact_zero_derivative_raises(self):
        with mp.workprec(192), pytest.raises(PrecisionError):
            puiseux_mod._tail_series({(1, 0): ONE, (1, 1): ONE, (0, 2): ONE}, 8,
                                     mpf(2) ** -64)

    @pytest.mark.parametrize("germ", ["y^2 - 2*x^2 - x^3", "(y^2 - 2*x^2)^2 - x^5",
                                      "x^3 + y^3 + x^2*y^2"])
    def test_numeric_terms_agree_with_the_mpmath_routine(self, germ, monkeypatch):
        # tails under an irrational segment root get mpc terms
        real = puiseux_mod._tail_series
        calls = []

        def spy(terms, budget, thresh):
            out = real(terms, budget, thresh)
            calls.append((terms, budget, thresh, mp.prec, out))
            return out

        monkeypatch.setattr(puiseux_mod, "_tail_series", spy)
        puiseux_branches(P(germ), precision=128)
        numeric = [c for c in calls if all(type(v) is mpc for v in c[0].values())]
        assert numeric
        for terms, budget, thresh, prec, out in numeric:
            with mp.workprec(prec):
                want = _mpmath_tail_series(terms, budget, thresh)
            assert sorted(out) == sorted(want)
            for k, v in want.items():
                assert abs(out[k] - v) <= mpf(2) ** -128 * abs(v)


# The mpmath routine that `_tail_series` replaced, kept as the reference
# for numeric (mpc) terms.


def _tps_mul(a, b, T):
    out = [mpc(0)] * (T + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        top = min(T - i, len(b) - 1)
        for j in range(top + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _tps_recip(a, T):
    out = [mpc(0)] * (T + 1)
    inv0 = 1 / a[0]
    out[0] = inv0
    for k in range(1, T + 1):
        acc = mpc(0)
        for m in range(1, min(k, len(a) - 1) + 1):
            if a[m]:
                acc += a[m] * out[k - m]
        out[k] = -acc * inv0
    return out


def _mpmath_tail_series(terms, T, thresh):
    by_j = {}
    for (i, j), c in terms.items():
        by_j.setdefault(j, []).append((i, mpc(c)))
    maxj = max(by_j)
    y = [mpc(0)] * (T + 1)
    correct = 1
    while correct <= T:
        window = min(2 * correct, T)
        pow_y = [mpc(0)] * (window + 1)
        pow_y[0] = mpc(1)
        h_val = [mpc(0)] * (window + 1)
        h_der = [mpc(0)] * (window + 1)
        for j in range(maxj + 1):
            for i, c in by_j.get(j, ()):
                for k in range(window + 1 - i):
                    h_val[i + k] += c * pow_y[k]
            for i, c in by_j.get(j + 1, ()):
                for k in range(window + 1 - i):
                    h_der[i + k] += (j + 1) * c * pow_y[k]
            if j < maxj:
                pow_y = _tps_mul(pow_y, y[: window + 1], window)
        delta = _tps_mul(h_val, _tps_recip(h_der, window), window)
        for k in range(window + 1):
            y[k] = y[k] - delta[k]
        correct = min(2 * correct, window + 1)
    out = {}
    running = mpf(1)
    for k in range(1, T + 1):
        if abs(y[k]) > thresh * running:
            out[k] = y[k]
        running = max(running, abs(y[k]))
    return out


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
        import sys

        import carousel.polar as polar_mod
        from carousel.report import analyze_germ

        germ = P("x^2*y + y^4")
        calls, expansions, numeric = [], [], []
        real_expand = puiseux_mod._expand

        def spy(name, real):
            def recording(f):
                calls.append((name, f))
                return real(f)

            return recording

        def expand(terms, psi=None, depth=0):
            if depth == 0 and terms == dict(germ.terms):
                expansions.append(terms)
            return real_expand(terms, psi, depth)

        def refused(f, *args, **kwargs):
            numeric.append(f)
            raise AssertionError("the series are solved only for a figure")

        # the reducedness gate and the branches read one squarefree
        # decomposition, wherever either module binds the kernels
        for module in (puiseux_mod, polar_mod):
            for name in ("squarefree_decomposition", "squarefree_part"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        monkeypatch.setattr(puiseux_mod, "_expand", expand)
        for name, module in list(sys.modules.items()):
            if name.startswith("carousel") and hasattr(module, "puiseux_branches"):
                monkeypatch.setattr(module, "puiseux_branches", refused)
        assert delta_invariant(germ) == 3
        assert [call for call in calls if call[1] == germ] == [("squarefree_decomposition", germ)]
        assert len(expansions) == 1
        calls.clear()
        expansions.clear()
        result = analyze_germ("x^2*y + y^4")
        assert (result.mu, result.delta, result.branch_count) == (5, 3, 2)
        # the line stage expands the Cerf diagram, never the germ, and
        # no stage solves a series
        assert [call for call in calls if call[1] == germ] == [("squarefree_decomposition", germ)]
        assert len(expansions) == 1
        assert numeric == []
        delta = result.diagram.defining
        calls.clear()
        assert polar_mod.diagram_from_defining(delta) == result.diagram
        assert [call for call in calls if call[1] == delta] == [("squarefree_decomposition", delta)]
        assert not [name for name, _ in calls if name == "squarefree_part"]

    def test_non_isolated_rejected(self):
        with pytest.raises(PuiseuxError):
            milnor_number(P("x^2"))
        with pytest.raises(PuiseuxError):
            milnor_number(P("x^2 * y + x^3"))

    def test_one_entry_message_for_three_variables(self):
        germ = parse_polynomial("x^2 - t^3", ("x", "y", "t"))
        for entry in (milnor_number, puiseux_mod.branch_structure, puiseux_branches):
            with pytest.raises(PuiseuxError) as info:
                entry(germ)
            assert str(info.value) == "expected a plane-curve germ in two variables"

    def test_reduced_gate_matches_squarefree_part(self):
        # the gate reads the multiplicities of one squarefree
        # decomposition; squarefree_part is the reference: f is reduced
        # iff it equals its squarefree part up to a scalar
        rng = random.Random(19)
        units = [P("1 + x"), P("1 - y"), P("2 + x*y"), P("1 + x + y^2")]
        verdicts = []
        for n in range(240):
            f = _random_germ(rng)
            if n % 3 == 1:
                f = _random_germ(rng) ** 2 * f
            elif n % 3 == 2:
                f = rng.choice(units) ** 2 * f
            reduced = f == squarefree_part(f).scale(f.leading()[1])
            try:
                milnor_number(f)
                refused = False
            except PuiseuxError as exc:
                refused = str(exc) == "germ is not reduced (repeated factor)"
            assert refused == (not reduced), str(f)
            verdicts.append(refused)
        assert 100 < sum(verdicts) < 220

    def test_squared_unit_refused_at_invariants(self):
        # every polar of (1 + x)^2*y shares 1 + x with f, so admitting the
        # germ would only move the failure to the line stage
        with pytest.raises(StageError) as info:
            analyze_germ("(1 + x)^2*y")
        assert info.value.stage == "invariants"
        assert str(info.value.error) == "germ is not reduced (repeated factor)"


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
