"""Newton-Puiseux expansion of plane-curve germs and local invariants.

Branches are computed in rational-parametrization style: every edge of
the Newton polygon is followed through a monomial substitution chosen by
a Bezout identity, so each irreducible local component yields exactly one
parametrization t -> (t^e, sum c_k t^(m_k)) with no conjugate duplicates.
Exponents and ramification indices stay exact (they come from the polygon
combinatorics); coefficients are numeric balls.

Local intersection multiplicities are computed exactly by the classical
reduction on restrictions to {y = 0} (order bookkeeping plus row
operations), which needs only field arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .gaussian import GaussianRational, ZERO, ONE
from .poly import (
    Polynomial,
    divexact,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)
from .roots import (MAX_PRECISION, ComplexBall, PrecisionError, aberth_roots,
                    gaussian_to_mpc)


class PuiseuxError(ValueError):
    pass


class CommonComponentError(PuiseuxError):
    """The two curves share a component through the origin."""


class SeparationError(PuiseuxError):
    """Truncation too small to reach a branch's first exponent or to tell
    two branches apart; retry larger."""


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------


class NewtonSegment(NamedTuple):
    """One edge of the lower Newton polygon.

    `slope` is the plain (negative) slope in the exponent plane; the
    branch exponent it encodes is the negative reciprocal -1/slope.
    """

    start: tuple
    end: tuple
    slope: Fraction
    lattice_length: int


def _lower_edges(points) -> list:
    pts = set(points)
    min_i = min(p[0] for p in pts)
    start = min((p for p in pts if p[0] == min_i), key=lambda p: p[1])
    min_j = min(p[1] for p in pts)
    end = min((p for p in pts if p[1] == min_j), key=lambda p: p[0])
    edges = []
    current = start
    while current != end:
        best = None
        best_slope = None
        for p in pts:
            if p[1] >= current[1] or p[0] <= current[0]:
                continue
            slope = Fraction(p[1] - current[1], p[0] - current[0])
            if best is None or slope < best_slope or (
                slope == best_slope and p[0] > best[0]
            ):
                best = p
                best_slope = slope
        if best is None:
            break
        edges.append((current, best))
        current = best
    return edges


def newton_polygon(f: Polynomial) -> list:
    """Lower convex hull segments of the support, ordered by increasing slope."""
    if f.is_zero():
        raise PuiseuxError("zero polynomial has no Newton polygon")
    if len(f.variables) != 2:
        raise PuiseuxError("newton_polygon expects a bivariate germ")
    if not f.constant_term().is_zero():
        raise PuiseuxError("unit germ: f(0,0) != 0")
    segments = []
    for (i0, j0), (i1, j1) in _lower_edges(f.terms.keys()):
        w, h = i1 - i0, j0 - j1
        segments.append(
            NewtonSegment(
                start=(i0, j0),
                end=(i1, j1),
                slope=Fraction(-h, w),
                lattice_length=math.gcd(w, h),
            )
        )
    return segments


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------


class PuiseuxBranch(NamedTuple):
    """One local branch: x = t^e, y = sum coefficients[k] * t^exponents[k].

    An empty exponent list encodes the axis branch y = 0.
    """

    ramification_index: int
    exponents: tuple
    coefficients: tuple
    truncation_order: int

    @property
    def is_axis(self) -> bool:
        return not self.exponents

    @property
    def y_order(self) -> int:
        if self.is_axis:
            raise PuiseuxError("axis branch has no finite y-order")
        return self.exponents[0]

    @property
    def leading_exponent(self) -> Fraction:
        """Exponent a in y ~ c * x^a."""
        return Fraction(self.y_order, self.ramification_index)


class BranchDecomposition(NamedTuple):
    germ: Polynomial
    branches: tuple
    multiplicities: tuple
    x_axis_multiplicity: int = 0

    @property
    def branch_count(self) -> int:
        """Number of local components, the x-axis included."""
        return len(self.branches) + (1 if self.x_axis_multiplicity else 0)


# -- internal expansion machinery -------------------------------------------


class _ExactRing:
    exact = True
    zero = ZERO

    @staticmethod
    def is_zero(c):
        return c.is_zero()

    @staticmethod
    def power(base, k):
        return base**k


class _NumericRing:
    exact = False
    zero = mpc(0)

    def __init__(self, threshold):
        self.threshold = threshold

    def is_zero(self, c):
        return abs(c) <= self.threshold

    @staticmethod
    def power(base, k):
        return base**k


def _binomial_row(j):
    row = [1] * (j + 1)
    for k in range(1, j + 1):
        row[k] = row[k - 1] * (j - k + 1) // k
    return row


def _transform(terms: dict, q: int, p: int, L: int, u: int, v: int, xi, ring):
    """Substitute x -> xi^v x1^q, y -> x1^p (xi^u + y1) and divide by x1^L."""
    out: dict = {}
    xi_pows: dict = {}

    def xp(k):
        if k not in xi_pows:
            xi_pows[k] = ring.power(xi, k)
        return xi_pows[k]

    for (i, j), c in terms.items():
        base = q * i + p * j - L
        binom = _binomial_row(j)
        for k in range(j + 1):
            coeff = c * binom[k] * xp(u * (j - k) + v * i)
            key = (base, k)
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
    cleaned = {key: c for key, c in out.items() if not ring.is_zero(c)}
    cleaned.pop((0, 0), None)  # cancels exactly; numerically only noise remains
    return cleaned


def _to_numeric_terms(terms: dict, ring) -> dict:
    out = {}
    for key, c in terms.items():
        val = gaussian_to_mpc(c) if isinstance(c, GaussianRational) else mpc(c)
        if not ring.is_zero(val):
            out[key] = val
    return out


def _normalize_numeric(terms: dict, ring) -> dict:
    if not terms:
        return terms
    scale = max(abs(c) for c in terms.values())
    if scale == 0:
        return {}
    out = {}
    for key, c in terms.items():
        c = c / scale
        if not ring.is_zero(c):
            out[key] = c
    return out


# truncated power series helpers (dense mpc lists, index = exponent).
# Zero tests use mpc truthiness (mpc_is_nonzero), about ten times cheaper
# than comparing against the int 0.


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
    if not a[0]:
        raise PrecisionError("series reciprocal of a zero constant term")
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


def _tail_series(terms: dict, budget: int, ring) -> dict:
    """Solve h(x, y(x)) = 0 with dh/dy(0,0) != 0 by series Newton iteration.

    The window doubles each round (y correct mod x^m gives y' correct mod
    x^2m), so the quadratic series cost concentrates in the final pass.
    """
    numeric = {}
    for key, c in terms.items():
        numeric[key] = gaussian_to_mpc(c) if isinstance(c, GaussianRational) else mpc(c)
    T = budget
    by_j: dict = {}
    for (i, j), c in numeric.items():
        by_j.setdefault(j, []).append((i, c))
    maxj = max(by_j) if by_j else 0
    y = [mpc(0)] * (T + 1)
    correct = 1  # y agrees with the true series mod x^correct
    while correct <= T:
        window = min(2 * correct, T)
        pow_y = [mpc(0)] * (window + 1)
        pow_y[0] = mpc(1)
        h_val = [mpc(0)] * (window + 1)
        h_der = [mpc(0)] * (window + 1)
        for j in range(maxj + 1):
            if j in by_j:
                for i, c in by_j[j]:
                    if i <= window:
                        for k in range(window + 1 - i):
                            if pow_y[k]:
                                h_val[i + k] += c * pow_y[k]
            if j + 1 in by_j:
                for i, c in by_j[j + 1]:
                    if i <= window:
                        for k in range(window + 1 - i):
                            if pow_y[k]:
                                h_der[i + k] += (j + 1) * c * pow_y[k]
            if j < maxj:
                pow_y = _tps_mul(pow_y, y[: window + 1], window)
        delta = _tps_mul(h_val, _tps_recip(h_der, window), window)
        for k in range(window + 1):
            y[k] = y[k] - delta[k]
        correct = min(2 * correct, window + 1)
    thresh = ring.threshold if not ring.exact else mpf(2) ** (-mp.prec // 2)
    # rounding noise at order k scales with the coefficients seen so far,
    # not with the global maximum (the series may grow geometrically)
    out = {}
    running = mpf(1)
    for k in range(1, T + 1):
        if abs(y[k]) > thresh * running:
            out[k] = y[k]
        running = max(running, abs(y[k]))
    return out


def _y_order_at_zero(terms: dict) -> int | None:
    orders = [j for (i, j) in terms if i == 0]
    return min(orders) if orders else None


def _expand(terms: dict, ring, prec: int, budget: int, memo: dict, depth: int = 0) -> list:
    """Recursive expansion; returns raw branches (e, mu, {m: coeff})."""
    if depth > 32:
        raise PuiseuxError("expansion recursion too deep")
    if not terms:
        raise PuiseuxError("expansion of the zero polynomial")
    branches = []
    # split y-powers: the terminating series lives here
    b = min(j for (_, j) in terms)
    if b > 0:
        if b > 1 and ring.exact:
            raise PuiseuxError("repeated axis factor in a squarefree germ")
        branches.append((1, mpc(1), {}))
        terms = {(i, j - b): c for (i, j), c in terms.items()}
    # split x-powers: no y-solutions in them
    a = min(i for (i, _) in terms)
    if a > 0:
        terms = {(i - a, j): c for (i, j), c in terms.items()}
    if (0, 0) in terms:
        return branches  # unit germ: nothing further through the origin
    if _y_order_at_zero(terms) == 1:
        # the first exponent of y(x) is the order of h(x, 0); past the
        # budget the tail would come back empty and read as the axis.
        # Deeper down an empty tail is legitimate (y^2 = x^3).
        if depth == 0 and min(i for (i, j) in terms if j == 0) > budget:
            raise SeparationError("first exponent beyond the truncation")
        tail_ring = ring if not ring.exact else _NumericRing(mpf(2) ** (-(prec // 2)))
        branches.append((1, mpc(1), _tail_series(terms, budget, tail_ring)))
        return branches
    for q, p, u, v, xi_val, sub, sub_ring in _segment_children(terms, ring, prec, memo):
        inner = _expand(sub, sub_ring, prec, budget, memo, depth + 1)
        for e1, mu1, terms1 in inner:
            e = q * e1
            mu = xi_val**v * mu1**q
            lead = mu1**p * xi_val**u
            shifted = {p * e1: lead}
            for m, c in terms1.items():
                shifted[p * e1 + m] = mu1**p * c
            branches.append((e, mu, shifted))
    return branches


def _segment_children(terms: dict, ring, prec: int, memo: dict) -> list:
    """One Newton-polygon step: (q, p, u, v, xi, transformed terms, their
    ring) per lower edge and root xi of its segment polynomial.

    None of it depends on the series truncation, so `memo`, which lives
    for one `puiseux_branches` call, keeps it by the terms and the
    precision: a retry at a longer truncation reuses the exact
    transforms and segment solves.
    """
    key = (ring.exact, prec, frozenset(terms.items()))
    if key in memo:
        return memo[key]
    children = []
    for (i0, j0), (i1, j1) in _lower_edges(terms.keys()):
        w, h = i1 - i0, j0 - j1
        g = math.gcd(w, h)
        q, p = h // g, w // g
        L = q * i0 + p * j0
        psi = []
        for k in range(g + 1):
            pt = (i1 - k * p, j1 + k * q)
            psi.append(terms.get(pt, ring.zero))
        alpha, beta = _bezout(q, p)
        u, v = alpha, -beta
        for xi, mult, xi_exact in _segment_roots(psi, ring, prec):
            if xi_exact is not None and ring.exact:
                sub_ring = ring
                sub = _transform(terms, q, p, L, u, v, xi_exact, sub_ring)
            else:
                sub_ring = ring if not ring.exact else _NumericRing(
                    mpf(2) ** (-(prec // 2))
                )
                numeric_terms = (
                    terms if not ring.exact else _to_numeric_terms(terms, sub_ring)
                )
                sub = _transform(numeric_terms, q, p, L, u, v, mpc(xi), sub_ring)
                sub = _normalize_numeric(sub, sub_ring)
            xi_val = gaussian_to_mpc(xi_exact) if xi_exact is not None else mpc(xi)
            children.append((q, p, u, v, xi_val, sub, sub_ring))
    memo[key] = children
    return children


def _bezout(q: int, p: int):
    """alpha*q + beta*p = 1 for coprime q, p."""
    old_r, r = q, p
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    if old_r != 1:
        raise PuiseuxError("segment data not coprime")
    return old_s, old_t


def _segment_roots(psi, ring, prec):
    """Roots of the segment polynomial: (value, multiplicity, exact-or-None)."""
    # one solve per call: on PrecisionError puiseux_branches doubles prec
    out = []
    if ring.exact:
        # build an exact univariate polynomial in a scratch variable
        terms = {(k,): c for k, c in enumerate(psi) if not c.is_zero()}
        poly = Polynomial(("z",), terms)
        for factor, mult in squarefree_decomposition(poly):
            d = factor.degree("z")
            if d < 1:
                continue
            coeffs = factor.dense_coefficients()
            if d == 1:
                xi = -(coeffs[0] / coeffs[1])
                out.append((gaussian_to_mpc(xi), mult, xi))
            else:
                for ball in aberth_roots(coeffs, prec):
                    out.append((ball.center, mult, None))
    else:
        coeffs = [mpc(c) for c in psi]
        balls = aberth_roots(coeffs, prec)
        used = [False] * len(balls)
        tol = mpf(2) ** (-(prec // 4))
        scale = max([abs(b.center) for b in balls] + [mpf(1)])
        for i, bi in enumerate(balls):
            if used[i]:
                continue
            cluster = [bi.center]
            used[i] = True
            for j in range(i + 1, len(balls)):
                if not used[j] and abs(balls[j].center - bi.center) < tol * scale:
                    cluster.append(balls[j].center)
                    used[j] = True
            center = sum(cluster) / len(cluster)
            out.append((center, len(cluster), None))
    # drop the root z = 0 (it corresponds to points off this segment)
    return [(xi, m, xe) for xi, m, xe in out if abs(mpc(xi)) != 0]


def _finalize_branch(e, mu, shifted, prec, budget):
    exps = sorted(m for m in shifted)
    if exps and mu != 1:
        nu = mu ** (mpf(-1) / e)
        shifted = {m: c * nu**m for m, c in shifted.items()}
    if exps and exps[0] > budget:
        raise SeparationError("first exponent beyond the truncation")
    exps = [m for m in exps if m <= budget]
    if exps:
        g = e
        for m in exps:
            g = math.gcd(g, m)
        if g != 1:
            raise SeparationError(
                "parametrization looks imprimitive at this truncation"
            )
    radius = lambda c: (abs(c) + 1) * mpf(2) ** (-(prec - 10))
    balls = tuple(ComplexBall(shifted[m], radius(shifted[m]), prec) for m in exps)
    return PuiseuxBranch(
        ramification_index=e,
        exponents=tuple(exps),
        coefficients=balls,
        truncation_order=budget,
    )


def _branch_sort_key(branch: PuiseuxBranch):
    from .roots import ordering_key

    if branch.is_axis:
        return (branch.ramification_index, 0, (0, 0))
    c0 = branch.coefficients[0].center
    return (branch.ramification_index, branch.exponents[0], ordering_key(c0)[:2])


def _check_separation(branches, prec):
    tol = mpf(2) ** (-(prec // 4))
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            b1, b2 = branches[i], branches[j]
            if b1.ramification_index != b2.ramification_index:
                continue
            if b1.exponents != b2.exponents:
                continue
            if b1.is_axis and b2.is_axis:
                raise SeparationError("duplicate axis branch")
            separated = False
            for c1, c2 in zip(b1.coefficients, b2.coefficients):
                scale = max(abs(c1.center), abs(c2.center), mpf(1))
                if abs(c1.center - c2.center) > tol * scale:
                    separated = True
                    break
            if not separated:
                raise SeparationError("branches agree to the computed truncation")


def puiseux_branches(f: Polynomial, precision: int = 128) -> BranchDecomposition:
    """All local branches of f at the origin.

    x-power factors are split off into `x_axis_multiplicity`; a y-power
    factor becomes an explicit axis branch.  Branch multiplicities come
    from the exact squarefree decomposition (all 1 for squarefree f).
    The series start at 8 terms and double, up to 512, until every
    branch keeps its first exponent and the branches separate.
    """
    if f.is_zero():
        raise PuiseuxError("zero germ")
    if len(f.variables) != 2:
        raise PuiseuxError("puiseux_branches expects a bivariate germ")
    if not f.constant_term().is_zero():
        raise PuiseuxError("unit germ: f(0,0) != 0")
    xvar = f.variables[0]
    x_mult = min(e[0] for e in f.terms)
    h = f
    if x_mult:
        xpoly = Polynomial.variable(f.variables, xvar)
        for _ in range(x_mult):
            h = divexact(h, xpoly)
    factors = (
        [(h, 1)]
        if h.is_constant()
        else squarefree_decomposition(h)
    )
    trunc = 8
    prec = precision
    memo: dict = {}  # exact expansion steps, shared by the retries below
    while True:
        try:
            with mp.workprec(prec + 64):
                branches = []
                mults = []
                for factor, k in factors:
                    if factor.is_constant():
                        continue
                    if not factor.constant_term().is_zero():
                        continue  # unit at the origin: no local branches
                    raw = _expand(dict(factor.terms), _ExactRing(), prec, trunc, memo)
                    for e, mu, shifted in raw:
                        branches.append(_finalize_branch(e, mu, shifted, prec, trunc))
                        mults.append(k)
                order = sorted(range(len(branches)), key=lambda i: _branch_sort_key(branches[i]))
                branches = [branches[i] for i in order]
                mults = [mults[i] for i in order]
                _check_separation(branches, prec)
                decomposition = BranchDecomposition(
                    germ=f,
                    branches=tuple(branches),
                    multiplicities=tuple(mults),
                    x_axis_multiplicity=x_mult,
                )
                _check_degree_accounting(f, x_mult, decomposition)
                return decomposition
        except SeparationError:
            if trunc >= 512:
                raise
            trunc *= 2
        except PrecisionError:
            if prec >= MAX_PRECISION:
                raise
            prec = min(MAX_PRECISION, 2 * prec)


def _check_degree_accounting(f, x_mult, decomposition):
    # sum of e_i * mult_i must equal the y-order of f / x^x_mult at x = 0
    d0 = min(j for (i, j) in f.terms if i == x_mult)
    total = sum(
        b.ramification_index * m
        for b, m in zip(decomposition.branches, decomposition.multiplicities)
    )
    if total != d0:
        raise PuiseuxError(
            f"branch accounting failed: sum e_i*m_i = {total}, expected {d0}"
        )


# ---------------------------------------------------------------------------
# intersection multiplicity and the classical invariants
# ---------------------------------------------------------------------------


def _restrict_y0(f: Polynomial):
    """f(x, 0) as a dict exponent -> coefficient (empty when y divides f)."""
    return {i: c for (i, j), c in f.terms.items() if j == 0}


def intersection_multiplicity(f: Polynomial, g: Polynomial) -> int:
    """Local intersection number of the two curves at the origin, exact."""
    if f.is_zero() or g.is_zero():
        raise PuiseuxError("intersection with the zero curve")
    f._check_same(g)
    if len(f.variables) != 2:
        raise PuiseuxError("intersection_multiplicity expects plane curves")
    common = poly_gcd(f, g)
    if not common.is_constant() and common.constant_term().is_zero():
        raise CommonComponentError(
            "curves share a component through the origin (infinite multiplicity)"
        )
    yvar = f.variables[1]
    ypoly = Polynomial.variable(f.variables, yvar)
    total = 0
    F, G = f, g
    guard = 0
    while True:
        guard += 1
        if guard > 100000:
            raise PuiseuxError("intersection reduction failed to terminate")
        if not F.constant_term().is_zero() or not G.constant_term().is_zero():
            return total
        f0 = _restrict_y0(F)
        g0 = _restrict_y0(G)
        if not f0 and not g0:
            raise CommonComponentError("both curves contain the axis y = 0")
        if not f0:
            total += min(g0)
            F = divexact(F, ypoly)
            continue
        if not g0:
            total += min(f0)
            G = divexact(G, ypoly)
            continue
        # ideal-preserving reduction: cancel the top x-degree of the larger
        # restriction; the degree strictly decreases, so this terminates
        r, s = max(f0), max(g0)
        if r > s:
            F, G = G, F
            f0, g0 = g0, f0
            r, s = s, r
        factor = g0[s] / f0[r]
        shift = Polynomial(f.variables, {(s - r, 0): ONE})
        G = G - shift.scale(factor) * F


def milnor_and_branches(f: Polynomial, precision: int = 128) -> tuple:
    """(mu, branch decomposition) of a reduced germ; mu + r - 1 must be even."""
    _require_reduced_isolated(f)
    fx = f.partial_derivative(f.variables[0])
    fy = f.partial_derivative(f.variables[1])
    smooth = not fx.constant_term().is_zero() or not fy.constant_term().is_zero()
    mu = 0 if smooth else intersection_multiplicity(fx, fy)
    branches = puiseux_branches(f, precision=precision)
    r = branches.branch_count
    if (mu + r - 1) % 2 != 0:
        raise PuiseuxError(
            f"Milnor relation violated: mu={mu}, branch count={r} have wrong parity"
        )
    return mu, branches


def milnor_number(f: Polynomial, precision: int = 128) -> int:
    """mu = intersection multiplicity of the two partial derivatives at 0."""
    return milnor_and_branches(f, precision=precision)[0]


def delta_invariant(f: Polynomial, precision: int = 128) -> int:
    """delta = (mu + r - 1) / 2 with r the number of local branches."""
    mu, branches = milnor_and_branches(f, precision=precision)
    return (mu + branches.branch_count - 1) // 2


def _require_reduced_isolated(f: Polynomial):
    # A reduced germ has an isolated critical point: a curve of critical
    # points through 0 lies in {f = 0} and would be a repeated factor.
    if len(f.variables) != 2:
        raise PuiseuxError("expected a plane-curve germ in two variables")
    if f.is_zero():
        raise PuiseuxError("zero germ")
    if not f.constant_term().is_zero():
        raise PuiseuxError("unit germ: f(0,0) != 0")
    sf = squarefree_part(f)
    if sf.total_degree() != f.total_degree() or f != sf.scale(
        f.leading()[1]
    ):
        raise PuiseuxError("germ is not reduced (repeated factor)")
