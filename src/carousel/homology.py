"""Integer homology of a disk with boundary-identified marked points.

The model: n marked points on an inner circle, cyclically labeled
0..n-1, glued in pairs by a perfect matching.  The CW structure has the
pair classes as vertices, the n circle arcs as edges and the disk as the
single 2-cell with boundary e_0 + ... + e_(n-1).  H_1 is computed over Z
by Smith normal form; a rigid rotation compatible with the matching acts
on edges by index shift and induces an integer matrix on H_1, whose
trace gives the Lefschetz number 1 - tr.

One integer kernel does all the linear algebra, nothing over Q: a Smith
form that applies each elementary operation to U, V and in inverse to
U^-1, V^-1 (Kannan and Bachem, SIAM J. Comput. 8, 1979), and whose
divisibility sweep adds one offending row to the pivot row once, which
strictly lowers the pivot and so terminates.
"""

from __future__ import annotations

from typing import NamedTuple


class HomologyError(ValueError):
    pass


class IntegerMatrix(NamedTuple):
    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise HomologyError("ragged matrix")
        else:
            width = 0
        return cls(rows=len(rows), cols=width, entries=rows)

    @classmethod
    def identity(cls, n):
        return cls.from_rows(_identity(n))

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise HomologyError("matrix shapes do not compose")
        rows = [
            [
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return IntegerMatrix.from_rows(rows)

    def __pow__(self, n: int) -> "IntegerMatrix":
        if self.rows != self.cols:
            raise HomologyError("power of a non-square matrix")
        result = IntegerMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def trace(self) -> int:
        if self.rows != self.cols:
            raise HomologyError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def to_lists(self):
        return [list(r) for r in self.entries]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _apply(matrix, vector):
    return [sum(x * y for x, y in zip(row, vector)) for row in matrix]


def _smith(matrix):
    """(D, U, V, U^-1, V^-1) with U * A * V = D: each elementary row or
    column operation on A is applied to U or V and in inverse to U^-1 or
    V^-1, so no inverse is ever solved for."""
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, u_inv = _identity(rows), _identity(rows)
    v, v_inv = _identity(cols), _identity(cols)

    def row_op(i, j, k):  # row_i -= k * row_j; col_j of U^-1 += k * col_i
        for m in (a, u):
            m[i] = [x - k * y for x, y in zip(m[i], m[j])]
        for r in u_inv:
            r[j] += k * r[i]

    def col_op(i, j, k):  # col_i -= k * col_j; row_j of V^-1 += k * row_i
        for r in a + v:
            r[i] -= k * r[j]
        v_inv[j] = [x + k * y for x, y in zip(v_inv[j], v_inv[i])]

    def row_swap(i, j):
        for m in (a, u):
            m[i], m[j] = m[j], m[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a + v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    t = 0
    while t < min(rows, cols):
        # pivot: the first entry of least absolute value, row by row
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols)
                   if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        row_swap(t, i)
        col_swap(t, j)
        done = False
        while not done:
            done = True
            for i in range(t + 1, rows):
                if a[i][t] % a[t][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    row_swap(t, i)
                    done = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, cols):
                if a[t][j] % a[t][t] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    col_swap(t, j)
                    done = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
        # divisibility sweep: add the first row with an entry the pivot
        # does not divide to row t, once, and search again; that row t
        # then forces a strictly smaller pivot, so the sweep terminates
        offending = next((i for i in range(t + 1, rows)
                          if any(x % a[t][t] for x in a[i][t + 1 :])), None)
        if offending is not None:
            row_op(t, offending, -1)
            continue
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
            for r in u_inv:
                r[t] = -r[t]
        t += 1
    return a, u, v, u_inv, v_inv


def smith_normal_form(matrix):
    """U * A * V = D diagonal with d_i | d_{i+1}; returns (D, U, V) as lists.

    Integer row and column operations only: the pivot is an entry of least
    absolute value, row t and column t are cleared by Euclidean steps,
    and a pivot that fails to divide the rest of the matrix gets the
    first offending row added to its row once before the pivot search
    starts over.  `_smith` also returns U^-1 and V^-1.
    """
    return _smith(matrix)[:3]


class MarkedDiskComplex(NamedTuple("MarkedDiskComplex", [("n", int), ("pairing", tuple)])):
    """Disk with n cyclic marked points glued along a perfect matching."""

    __slots__ = ()

    def __new__(cls, n: int, pairing):
        if n < 2 or n % 2 != 0:
            raise HomologyError("need an even number of marked points")
        seen = set()
        pairs = []
        for pair in pairing:
            pair = tuple(sorted(int(x) for x in pair))
            if len(pair) != 2 or pair[0] == pair[1]:
                raise HomologyError("pairing must consist of disjoint 2-element pairs")
            for x in pair:
                if x < 0 or x >= n or x in seen:
                    raise HomologyError("pairing is not a perfect matching of 0..n-1")
                seen.add(x)
            pairs.append(pair)
        if len(seen) != n:
            raise HomologyError("pairing is not a perfect matching of 0..n-1")
        return super().__new__(cls, n, tuple(sorted(pairs)))

    def vertex_classes(self):
        """Map label -> class index (one class per pair)."""
        cls = {}
        for idx, (a, b) in enumerate(self.pairing):
            cls[a] = idx
            cls[b] = idx
        return cls

    def boundary_1(self):
        """d1: edges -> vertex classes; edge k runs from point k to k+1 mod n."""
        cls = self.vertex_classes()
        rows = len(self.pairing)
        mat = [[0] * self.n for _ in range(rows)]
        for k in range(self.n):
            mat[cls[(k + 1) % self.n]][k] += 1
            mat[cls[k]][k] -= 1
        return mat

    def euler_characteristic(self) -> int:
        return len(self.pairing) - self.n + 1


class H1Data(NamedTuple):
    rank: int
    basis: tuple  # integer edge-chains, one per free generator
    torsion: tuple
    relation_chain: tuple  # image of the disk cell inside ker d1
    kernel_basis: tuple


def h1_of_quotient(complex_: MarkedDiskComplex) -> H1Data:
    """H1 = ker d1 / im d2 over Z via Smith normal form.

    With U d1 V = D of rank r, the last n - r columns of V are a basis of
    ker d1 and a cycle c has coordinates (V^-1 c)[r:] on it.  The
    one-column Smith form U' x = (g, 0, ..., 0) of the disk boundary's
    coordinates x makes it g times the first column of U'^-1; the
    remaining columns give the H1 basis as integer edge-chains.  Torsion
    is reported (and must be empty for these quotient disks).
    """
    n = complex_.n
    d, _, v, _, v_inv = _smith(complex_.boundary_1())
    rank = sum(1 for t in range(min(len(d), n)) if d[t][t] != 0)
    frame = [row[rank:] for row in v]  # columns: a basis of ker d1
    relation = [1] * n  # d2 of the disk cell
    coords = _apply(v_inv, relation)
    if any(coords[:rank]):
        raise HomologyError("disk boundary is not a cycle (internal error)")
    dd, _, _, uu_inv, _ = _smith([[c] for c in coords[rank:]])
    new_gens = [_apply(frame, col) for col in zip(*uu_inv)]
    d0 = dd[0][0]
    basis = new_gens if d0 == 0 else new_gens[1:]  # d0 == 0 should not happen here
    return H1Data(
        rank=len(basis),
        basis=tuple(tuple(b) for b in basis),
        torsion=(d0,) if d0 > 1 else (),
        relation_chain=tuple(relation),
        kernel_basis=tuple(zip(*frame)),
    )


def rotation_action(
    complex_: MarkedDiskComplex, shift: int, h1: H1Data | None = None
) -> IntegerMatrix:
    """Matrix of the edge shift e_k -> e_(k+shift) on the computed H1 basis.

    The rotated basis chains are solved on the lattice basis B = (relation
    chain, H1 basis) of ker d1 through U B V = D: B y = c iff
    D (V^-1 y) = U c.  The quotient drops the relation coordinate.
    """
    n = complex_.n
    shift = shift % n
    rotated = {tuple(sorted(((a + shift) % n, (b + shift) % n))) for a, b in complex_.pairing}
    if rotated != set(complex_.pairing):
        raise HomologyError("rotation is not compatible with the pairing")
    if h1 is None:
        h1 = h1_of_quotient(complex_)
    lattice = [list(row) for row in zip(h1.relation_chain, *h1.basis)]
    d, u, v = smith_normal_form(lattice)
    pivots = [d[t][t] for t in range(len(v))]
    columns = []
    for chain in h1.basis:
        image = [chain[(k - shift) % n] for k in range(n)]
        w = [x // p if p else 0 for x, p in zip(_apply(u, image), pivots)]
        coords = _apply(v, w)
        if _apply(lattice, coords) != image:
            raise HomologyError("rotated cycle left the kernel lattice (internal)")
        columns.append(coords[1:])  # quotient kills the relation coordinate
    return IntegerMatrix.from_rows(list(zip(*columns)))


def lefschetz_number(action: IntegerMatrix) -> int:
    """1 - trace: the fiber is connected and has no homology above degree 1."""
    return 1 - action.trace()
