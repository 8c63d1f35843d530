"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (run with -s to see them) and pins
its tolerance exactly as stated: integer results are compared with zero
tolerance, timed criteria assert their wall-clock budget.
"""

import json
import time

from carousel.corpus import CORPUS, NON_M2
from carousel.family import FamilyGerm, coalescing_verdict, conservation_check
from carousel.homology import (
    IntegerMatrix,
    MarkedDiskComplex,
    h1_of_quotient,
    lefschetz_number,
    rotation_action,
)
from carousel.poly import parse_polynomial
from carousel.puiseux import delta_invariant, milnor_number, puiseux_branches
from carousel.report import analyze_germ
from carousel.tracking import predicted_cycle_type

_PIPELINE_CACHE = {}


def pipeline(germ, precision=128):
    key = (germ, precision)
    if key not in _PIPELINE_CACHE:
        _PIPELINE_CACHE[key] = analyze_germ(germ, precision=precision)
    return _PIPELINE_CACHE[key]


def report_line(number, text):
    print(f"ACCEPTANCE {number:2d}: PASS - {text}")


def test_criterion_01_quotient_paper_values(capsys):
    start = time.perf_counter()
    complex_ = MarkedDiskComplex(4, ((0, 2), (1, 3)))
    h1 = h1_of_quotient(complex_)
    action = rotation_action(complex_, 1, h1)
    assert h1.rank == 2
    assert action.trace() == 0
    assert lefschetz_number(action) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report_line(1, f"quarter-turn quotient: rank 2, trace 0, "
                       f"Lefschetz 1 in {elapsed:.3f}s")


def test_criterion_02_triple_point_model(capsys):
    assert lefschetz_number(IntegerMatrix.identity(2)) == -1
    complex_ = MarkedDiskComplex(4, ((0, 2), (1, 3)))
    identity_action = rotation_action(complex_, 0)
    assert identity_action == IntegerMatrix.identity(2)
    assert lefschetz_number(identity_action) == -1
    with capsys.disabled():
        report_line(2, "identity action on rank-2 H1 gives Lefschetz -1")


def test_criterion_03_delta_invariant(capsys):
    value = delta_invariant(parse_polynomial("x^5 - y^2", ("x", "y")))
    assert value == 2
    with capsys.disabled():
        report_line(3, "delta(x^5 - y^2) = 2")


def test_criterion_04_tangency_on_corpus(capsys):
    start = time.perf_counter()
    from carousel.polar import select_generic_line

    assert len(CORPUS) == 20
    for germ in CORPUS:
        f = parse_polynomial(germ, ("x", "y"))
        assert f.order_at_origin() >= 2
        assert f.total_degree() <= 5
        selection = select_generic_line(f, seed=0)
        assert not selection.diagram.is_empty, germ
        for exponent in selection.diagram.leading_exponents:
            assert exponent > 1, (germ, exponent)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report_line(4, f"all diagram exponents > 1 on the 20-germ corpus "
                       f"in {elapsed:.1f}s")


def test_criterion_05_fixed_point_freeness(capsys):
    start = time.perf_counter()
    for germ in CORPUS:
        result = pipeline(germ)
        assert result.permutation is not None, germ
        assert result.permutation.fixed_points == (), germ
        assert result.fixed_point.consistent, germ
    for germ in NON_M2:
        result = pipeline(germ)
        assert result.tangency.tangent is False, germ
    assert pipeline("y^2 - x").permutation.fixed_points == (0,)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    with capsys.disabled():
        report_line(5, f"carousel fixed-point-free on the corpus; order-1 germs "
                       f"report tangent=false in {elapsed:.1f}s")


def test_criterion_06_oracle_equivalence(capsys):
    checked = 0
    for germ in CORPUS:
        low = pipeline(germ, precision=128)
        high = pipeline(germ, precision=256)
        predicted = predicted_cycle_type(low.diagram)
        assert low.permutation.cycle_type == predicted, germ
        assert high.permutation.cycle_type == predicted, germ
        assert low.permutation.sigma == high.permutation.sigma, germ
        checked += 1
    with capsys.disabled():
        report_line(6, f"numeric cycle types match the exact oracle at 128 and "
                       f"256 bits with identical permutations ({checked} germs)")


def test_criterion_07_milnor_relation(capsys):
    for germ in CORPUS:
        f = parse_polynomial(germ, ("x", "y"))
        mu = milnor_number(f)
        r = puiseux_branches(f).branch_count
        delta = delta_invariant(f)
        assert mu == 2 * delta - r + 1, germ
    # two independent routes for the quasihomogeneous pins
    for germ, expected in (("x^5 - y^2", 4), ("x^3 - y^2", 2), ("x^2 + y^2", 1)):
        f = parse_polynomial(germ, ("x", "y"))
        assert milnor_number(f) == expected
        assert _jacobian_monomial_dimension(f) == expected
    with capsys.disabled():
        report_line(7, "mu = 2*delta - r + 1 on the corpus; intersection and "
                       "monomial-basis routes agree on the pinned germs")


def _jacobian_monomial_dimension(f):
    """dim of C[x,y] / (f_x, f_y) for quasihomogeneous f = a*x^n + b*y^m.

    The Jacobian ideal is monomial: (x^(n-1), y^(m-1)); count the lattice
    points below both corners by direct enumeration (independent of the
    intersection-number machinery).
    """
    fx = f.partial_derivative("x")
    fy = f.partial_derivative("y")
    assert len(fx.terms) == 1 and len(fy.terms) == 1, "pinned germs are binomial"
    (ex_exps,) = fx.terms.keys()
    (ey_exps,) = fy.terms.keys()
    corner_x, corner_y = ex_exps[0], ey_exps[1]
    return sum(1 for i in range(corner_x) for j in range(corner_y))


def test_criterion_08_conservation(capsys):
    start = time.perf_counter()
    xyt = ("x", "y", "t")
    cusp = FamilyGerm(parse_polynomial("x^3 - y^2 + t*x", xyt))
    report = conservation_check(cusp)
    assert report.mu_origin == 2
    assert [r.total_mu for r in report.records] == [2, 2, 2]
    assert coalescing_verdict(cusp, report).status == "NOT_APPLICABLE"

    a4 = FamilyGerm(parse_polynomial("x^5 - y^2 + t*x^3", xyt))
    report = conservation_check(a4)
    assert report.mu_origin == 4
    assert [r.total_mu for r in report.records] == [4, 4, 4]

    constant = FamilyGerm(parse_polynomial("x^3 + y^3", xyt))
    assert coalescing_verdict(constant).status == "CONSISTENT"

    quartic = FamilyGerm(parse_polynomial("x^4 + y^2 + t*x^2", xyt))
    verdict = coalescing_verdict(quartic)
    assert verdict.status == "NOT_APPLICABLE" and verdict.mu_origin == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report_line(8, f"total local Milnor numbers conserved at three samples "
                       f"per family; verdicts as expected in {elapsed:.1f}s")


def test_criterion_09_determinism(tmp_path, capsys):
    from carousel.cli import main

    json_blobs = []
    svg_blobs = []
    for k in range(2):
        path = tmp_path / f"run{k}.svg"
        code = main(["analyze", "--germ", "x^5 - y^2", "--svg", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        payload.pop("timing")
        json_blobs.append(json.dumps(payload, indent=2).encode())
        svg_blobs.append(path.read_bytes())
    assert json_blobs[0] == json_blobs[1]
    assert svg_blobs[0] == svg_blobs[1]
    with capsys.disabled():
        report_line(9, "repeated analyze runs give byte-identical JSON "
                       "(timing stripped) and SVG")


def test_criterion_10_rotation_functoriality(capsys):
    def all_matchings(labels):
        if not labels:
            yield ()
            return
        first = labels[0]
        for i in range(1, len(labels)):
            rest = labels[1:i] + labels[i + 1 :]
            for tail in all_matchings(rest):
                yield ((first, labels[i]),) + tail

    total = 0
    for n in (2, 4, 6, 8):
        for matching in all_matchings(tuple(range(n))):
            complex_ = MarkedDiskComplex(n, matching)
            pairing = set(complex_.pairing)
            shifts = [
                s
                for s in range(n)
                if {
                    tuple(sorted(((a + s) % n, (b + s) % n))) for a, b in pairing
                }
                == pairing
            ]
            h1 = h1_of_quotient(complex_)
            actions = {s: rotation_action(complex_, s, h1) for s in shifts}
            identity = IntegerMatrix.identity(h1.rank)
            for s1 in shifts:
                for s2 in shifts:
                    assert actions[s1] * actions[s2] == actions[(s1 + s2) % n]
            for s in shifts:
                power = identity
                for _ in range(n):
                    power = power * actions[s]
                assert power == identity
            total += 1
    with capsys.disabled():
        report_line(10, f"rotation power law and shift-n identity over "
                        f"{total} matchings up to n = 8")
