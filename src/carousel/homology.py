"""Integer homology of a disk with boundary-identified marked points.

The model: n marked points on an inner circle, cyclically labeled
0..n-1, glued in pairs by a perfect matching.  The CW structure has the
pair classes as vertices, the n circle arcs as edges and the disk as the
single 2-cell with boundary e_0 + ... + e_(n-1).  H_1 is computed over Z
by Smith normal form; a rigid rotation compatible with the matching acts
on edges by index shift and induces an integer matrix on H_1, whose
trace gives the Lefschetz number 1 - tr.
"""

from __future__ import annotations

from fractions import Fraction
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
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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


def smith_normal_form(matrix):
    """U * A * V = D diagonal with d_i | d_{i+1}; returns (D, U, V) as lists."""
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i -= k * row_j
        a[i] = [x - k * y for x, y in zip(a[i], a[j])]
        u[i] = [x - k * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, k):  # col_i -= k * col_j
        for r in range(rows):
            a[r][i] -= k * a[r][j]
        for r in range(cols):
            v[r][i] -= k * v[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
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
        # divisibility sweep
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    u[t] = [x + y for x, y in zip(u[t], u[i])]
                    done = False
        if not done:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


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

    The returned basis consists of integer edge-chains; torsion is
    reported (and must be empty for these quotient disks).
    """
    d1 = complex_.boundary_1()
    n = complex_.n
    d, u, v = smith_normal_form(d1)
    rank = sum(1 for t in range(min(len(d), n)) if d[t][t] != 0)
    kernel = [[v[r][c] for r in range(n)] for c in range(rank, n)]
    relation = [1] * n  # d2 of the disk cell
    coords = _solve_integer(kernel, relation)
    if coords is None:
        raise HomologyError("disk boundary is not a cycle (internal error)")
    # change basis in Z^k so the relation becomes a multiple of one generator
    k = len(kernel)
    dd, uu, _ = smith_normal_form([[c] for c in coords])
    inv_uu = _integer_inverse(uu)
    new_gens = []
    for col in range(k):
        chain = [0] * n
        for row in range(k):
            if inv_uu[row][col]:
                chain = [
                    x + inv_uu[row][col] * y for x, y in zip(chain, kernel[row])
                ]
        new_gens.append(chain)
    d0 = dd[0][0] if dd and dd[0] else 0
    torsion = ()
    if d0 == 0:
        basis = new_gens  # relation was trivial; should not happen here
    elif d0 == 1:
        basis = new_gens[1:]
    else:
        torsion = (d0,)
        basis = new_gens[1:]
    return H1Data(
        rank=len(basis),
        basis=tuple(tuple(b) for b in basis),
        torsion=torsion,
        relation_chain=tuple(relation),
        kernel_basis=tuple(tuple(kb) for kb in kernel),
    )


def _solve_integer(basis_rows, target):
    """Integer coordinates of `target` in the lattice spanned by basis_rows."""
    if not basis_rows:
        return None
    cols = len(target)
    rows = len(basis_rows)
    m = [[Fraction(basis_rows[r][c]) for r in range(rows)] for c in range(cols)]
    rhs = [Fraction(t) for t in target]
    # Gaussian elimination (cols x rows system)
    piv_cols = []
    r = 0
    for c in range(rows):
        piv = next((i for i in range(r, cols) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        rhs[r] = rhs[r] * inv
        for i in range(cols):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        piv_cols.append(c)
        r += 1
    solution = [Fraction(0)] * rows
    for row_idx, c in enumerate(piv_cols):
        solution[c] = rhs[row_idx]
    # consistency + integrality
    for c in range(cols):
        acc = sum(solution[r] * basis_rows[r][c] for r in range(rows))
        if acc != target[c]:
            return None
    if any(s.denominator != 1 for s in solution):
        return None
    return [int(s) for s in solution]


def _integer_inverse(mat):
    """Inverse of a unimodular integer matrix, exact."""
    n = len(mat)
    aug = [
        [Fraction(mat[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise HomologyError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def rotation_action(
    complex_: MarkedDiskComplex, shift: int, h1: H1Data | None = None
) -> IntegerMatrix:
    """Matrix of the edge shift e_k -> e_(k+shift) on the computed H1 basis."""
    n = complex_.n
    shift = shift % n
    rotated = {tuple(sorted(((a + shift) % n, (b + shift) % n))) for a, b in complex_.pairing}
    if rotated != set(complex_.pairing):
        raise HomologyError("rotation is not compatible with the pairing")
    if h1 is None:
        h1 = h1_of_quotient(complex_)
    # generators of Z^k = ker d1: relation chain first, then the H1 basis
    gens = [list(h1.basis[i]) for i in range(h1.rank)]
    relation = list(h1.relation_chain)
    columns = []
    for chain in gens:
        image = [0] * n
        for k, c in enumerate(chain):
            image[(k + shift) % n] += c
        coords = _solve_integer([relation] + gens, image)
        if coords is None:
            raise HomologyError("rotated cycle left the kernel lattice (internal)")
        columns.append(coords[1:])  # quotient kills the relation coordinate
    rows = [[columns[j][i] for j in range(h1.rank)] for i in range(h1.rank)]
    return IntegerMatrix.from_rows(rows)


def lefschetz_number(action: IntegerMatrix) -> int:
    """1 - trace: the fiber is connected and has no homology above degree 1."""
    return 1 - action.trace()
