"""Quotient-disk homology, rotation action, Lefschetz numbers."""

import random
import signal

import pytest

from carousel.homology import (
    HomologyError,
    IntegerMatrix,
    MarkedDiskComplex,
    h1_of_quotient,
    lefschetz_number,
    rotation_action,
    smith_normal_form,
)


def all_matchings(labels):
    if not labels:
        yield ()
        return
    first = labels[0]
    for i in range(1, len(labels)):
        partner = labels[i]
        rest = labels[1:i] + labels[i + 1 :]
        for rest_matching in all_matchings(rest):
            yield ((first, partner),) + rest_matching


def preserved_shifts(complex_):
    out = []
    pairing = set(complex_.pairing)
    for s in range(complex_.n):
        rotated = {
            tuple(sorted(((a + s) % complex_.n, (b + s) % complex_.n)))
            for a, b in pairing
        }
        if rotated == pairing:
            out.append(s)
    return out


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def smith_within(matrix, kernel=smith_normal_form, seconds=10):
    """kernel(matrix), failing instead of hanging past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return kernel(matrix)
    except TimeoutError:
        pytest.fail(f"{kernel.__name__}({matrix}) ran past {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_smith_form(a, d, u, v):
    """U * A * V = D, D diagonal, and each diagonal entry is >= 0 and
    divides the next (so the zeros come last)."""
    rows, cols = len(a), len(a[0])
    assert matmul(matmul(u, a), v) == d
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[t][t] for t in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for a1, a2 in zip(diag, diag[1:]):
        assert a2 % a1 == 0 if a1 else a2 == 0


def random_matrices(count=500, seed=20):
    """Seeded integer matrices up to 6 x 6 with entries in [-9, 9]."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


class TestSmithNormalForm:
    def test_transform_identity(self):
        rng = random.Random(12)
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            assert_smith_form(a, *smith_normal_form(a))

    def test_divisibility_sweep_terminates(self):
        # adding row 1 to row 0 once per offending entry brought the pivot
        # row back unchanged, and the sweep cycled on this matrix
        a = [[-2, -6, 4], [2, 3, 5]]
        assert_smith_form(a, *smith_within(a))

    def test_random_matrices(self):
        for a in random_matrices():
            assert_smith_form(a, *smith_within(a))

    def test_transforms_carry_their_inverses(self):
        from carousel.homology import _smith

        for a in random_matrices(count=100, seed=21):
            d, u, v, u_inv, v_inv = smith_within(a, _smith)
            assert_smith_form(a, d, u, v)
            assert matmul(u, u_inv) == IntegerMatrix.identity(len(u)).to_lists()
            assert matmul(v, v_inv) == IntegerMatrix.identity(len(v)).to_lists()


class TestH1:
    def test_antipodal_pairs_rank_two(self):
        h1 = h1_of_quotient(MarkedDiskComplex(4, ((0, 2), (1, 3))))
        assert h1.rank == 2
        assert h1.torsion == ()
        # basis chains are cycles: boundary of each is zero
        c = MarkedDiskComplex(4, ((0, 2), (1, 3)))
        d1 = c.boundary_1()
        for chain in h1.basis:
            assert all(
                sum(d1[row][k] * chain[k] for k in range(4)) == 0
                for row in range(len(d1))
            )

    def test_two_points(self):
        assert h1_of_quotient(MarkedDiskComplex(2, ((0, 1),))).rank == 1

    def test_adjacent_pairs(self):
        assert h1_of_quotient(MarkedDiskComplex(4, ((0, 1), (2, 3)))).rank == 2

    def test_rank_is_half_n(self):
        for n in (2, 4, 6, 8):
            for matching in all_matchings(tuple(range(n))):
                h1 = h1_of_quotient(MarkedDiskComplex(n, matching))
                assert h1.rank == n // 2
                assert h1.torsion == ()

    def test_euler_characteristic(self):
        for n in (2, 4, 6, 8):
            c = MarkedDiskComplex(n, tuple((2 * i, 2 * i + 1) for i in range(n // 2)))
            assert c.euler_characteristic() == 1 - n // 2

    def test_invalid_pairing(self):
        with pytest.raises(HomologyError):
            MarkedDiskComplex(4, ((0, 1), (1, 3)))
        with pytest.raises(HomologyError):
            MarkedDiskComplex(3, ((0, 1),))


class TestRotationAction:
    def test_quarter_turn(self):
        c = MarkedDiskComplex(4, ((0, 2), (1, 3)))
        action = rotation_action(c, 1)
        assert action.trace() == 0
        assert action ** 4 == IntegerMatrix.identity(2)
        assert action ** 2 != IntegerMatrix.identity(2)

    def test_zero_shift_is_identity(self):
        for n, matching in ((4, ((0, 2), (1, 3))), (6, ((0, 3), (1, 4), (2, 5)))):
            c = MarkedDiskComplex(n, matching)
            h1 = h1_of_quotient(c)
            assert rotation_action(c, 0, h1) == IntegerMatrix.identity(h1.rank)

    def test_two_points_flip(self):
        c = MarkedDiskComplex(2, ((0, 1),))
        assert rotation_action(c, 1).to_lists() == [[-1]]

    def test_incompatible_rotation_rejected(self):
        c = MarkedDiskComplex(4, ((0, 1), (2, 3)))
        with pytest.raises(HomologyError):
            rotation_action(c, 1)

    def test_half_turn_on_antipodal(self):
        c = MarkedDiskComplex(4, ((0, 2), (1, 3)))
        action = rotation_action(c, 2)
        assert action.trace() == -2
        assert lefschetz_number(action) == 3

    def test_trace_invariant_under_relabeling(self):
        # rotating all labels is a relabeling: trace must not change
        base = MarkedDiskComplex(6, ((0, 3), (1, 4), (2, 5)))
        t0 = rotation_action(base, 1).trace()
        relabeled = MarkedDiskComplex(6, ((1, 4), (2, 5), (0, 3)))
        assert rotation_action(relabeled, 1).trace() == t0

    def test_functoriality_all_matchings(self):
        for n in (2, 4, 6, 8):
            for matching in all_matchings(tuple(range(n))):
                c = MarkedDiskComplex(n, matching)
                shifts = preserved_shifts(c)
                h1 = h1_of_quotient(c)
                actions = {s: rotation_action(c, s, h1) for s in shifts}
                for s1 in shifts:
                    for s2 in shifts:
                        assert actions[s1] * actions[s2] == actions[(s1 + s2) % n]
                identity = IntegerMatrix.identity(h1.rank)
                for s in shifts:
                    power = identity
                    for _ in range(n):
                        power = power * actions[s]
                    assert power == identity


class TestLefschetz:
    def test_quarter_turn_paper_value(self):
        c = MarkedDiskComplex(4, ((0, 2), (1, 3)))
        assert lefschetz_number(rotation_action(c, 1)) == 1

    def test_identity_on_rank_two(self):
        assert lefschetz_number(IntegerMatrix.identity(2)) == -1

    def test_contractible_fiber(self):
        assert lefschetz_number(IntegerMatrix.from_rows([])) == 1

    def test_flip_on_two_points(self):
        c = MarkedDiskComplex(2, ((0, 1),))
        assert lefschetz_number(rotation_action(c, 1)) == 2
