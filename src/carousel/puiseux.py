"""Newton-Puiseux expansion of plane-curve germs and local invariants.

Branches are computed in rational-parametrization style: every edge of
the Newton polygon is followed through a monomial substitution chosen by
a Bezout identity, so each irreducible local component yields exactly one
parametrization t -> (t^e, sum c_k t^(m_k)) with no conjugate duplicates.
Exponents and ramification indices stay exact (they come from the polygon
combinatorics); coefficients are numeric: each is a ComplexBall whose
radius is a heuristic (see `_finalize_branch`), not a proven enclosure.
The series Newton step under every smooth tail runs on Gaussian
integers at one binary scale (`_tail_series`).

Local intersection multiplicities are computed exactly by the classical
reduction on restrictions to {y = 0} (order bookkeeping plus row
operations), which needs only field arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .gaussian import GaussianRational, ZERO, ONE
from .poly import (
    Polynomial,
    divexact,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)
from .roots import (MAX_PRECISION, ComplexBall, PrecisionError, _dyadic_ints,
                    aberth_roots, gaussian_to_mpc, ordering_key)


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


class _NumericRing:
    exact = False
    zero = mpc(0)

    def __init__(self, threshold):
        self.threshold = threshold

    def is_zero(self, c):
        return abs(c) <= self.threshold


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
            xi_pows[k] = xi**k
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


# truncated power series on Gaussian integers at one binary scale 2^S:
# a series is a pair (real parts, imaginary parts) of int lists, index =
# exponent, and an int n stands for n / 2^S


def _mul_into(acc, a, b, n):
    """acc += a * b mod x^n at full width (scale 2^2S), in place."""
    accr, acci = acc
    ar, ai = a
    nz = [(j, br, bi) for j, (br, bi) in enumerate(zip(*b)) if j < n and (br or bi)]
    for i in range(min(n, len(ar))):
        xr, xi = ar[i], ai[i]
        if xr or xi:
            for j, br, bi in nz:
                if i + j >= n:
                    break
                accr[i + j] += xr * br - xi * bi
                acci[i + j] += xr * bi + xi * br
    return acc


def _shift_back(acc, S):
    """A full-width series rounded back to scale 2^S: one shift per coefficient."""
    half = 1 << (S - 1)
    return tuple([(v + half) >> S for v in part] for part in acc)


def _zeros(n):
    return [0] * n, [0] * n


def _recip(a, n, S):
    """1/a mod x^n; the constant term is 2^2S conj(a_0)/|a_0|^2, rounded."""
    ar, ai = a
    norm = ar[0] * ar[0] + ai[0] * ai[0]
    if not norm:
        raise PrecisionError("series reciprocal of a zero constant term")
    r0r = ((ar[0] << (2 * S + 1)) + norm) // (2 * norm)
    r0i = ((-ai[0] << (2 * S + 1)) + norm) // (2 * norm)
    rr, ri = _zeros(n)
    rr[0], ri[0] = r0r, r0i
    half = 1 << (2 * S - 1)
    for k in range(1, n):
        sr = si = 0
        for m in range(1, k + 1):
            xr, xi = ar[m], ai[m]
            if xr or xi:
                sr += xr * rr[k - m] - xi * ri[k - m]
                si += xr * ri[k - m] + xi * rr[k - m]
        # r_k = -s * r_0 with s at scale 2^2S: one shift by 2S
        rr[k] = -((sr * r0r - si * r0i + half) >> 2 * S)
        ri[k] = -((sr * r0i + si * r0r + half) >> 2 * S)
    return rr, ri


def _fixed(n, k, d):
    """The integer nearest n * 2^k / d, for d > 0."""
    if d == 1:
        return n << k if k >= 0 else (n + (1 << (-k - 1))) >> -k
    if k >= 0:
        n <<= k
    else:
        d <<= -k
    return (2 * n + d) // (2 * d)


def _tail_series(terms: dict, budget: int, thresh) -> dict:
    """Solve h(x, y(x)) = 0 with dh/dy(0,0) != 0 by series Newton iteration.

    The window doubles each round (y correct mod x^m gives y' correct mod
    x^2m), so the quadratic series cost concentrates in the final pass.
    The series are Gaussian integers at one binary scale 2^S.  h is first
    multiplied by a power of two so that its largest coefficient has
    magnitude about 1, which is exact and leaves y(x) unchanged.  S is the
    working precision plus 32 guard bits, widened by -log2|h_y(0,0)| when
    that is small, so a tiny h_y(0,0) keeps its relative accuracy and
    never rounds to 0.  Each coefficient of a product (and of h and h_y)
    is summed at full width and shifted back once, so it carries one
    rounding of 2^-S however many terms it sums.  A coefficient y_k is
    kept when |y_k| > thresh * max(1, |y_j| for j < k): rounding noise
    at order k scales with the coefficients seen so far, not with the
    global maximum (the series may grow geometrically).  Only the kept
    ones become mpc values, rounded once to the working precision.
    """
    exact = {}  # key -> (re, im, e, d): the value (re + i*im) * 2^e / d
    for key, c in terms.items():
        if type(c) is GaussianRational:
            exact[key] = (c.a, c.b, 0, c.d)
        else:
            (re, im), e = _dyadic_ints(c._mpc_)
            exact[key] = (re, im, e, 1)

    def log2(re, im, e, d):  # floor(log2|value|) up to 1
        return max(abs(re), abs(im)).bit_length() + e - d.bit_length()

    sigma = -max(log2(*v) for v in exact.values())
    S = mp.prec + 32 + max(0, -sigma - log2(*exact.get((0, 1), (0, 0, 0, 1))))
    T = budget
    # h_j(x) with h = sum_j h_j(x) y^j, and (j + 1) h_(j+1)(x) for h_y
    cols: dict = {}
    for (i, j), (re, im, e, d) in exact.items():
        if i <= T:
            col = cols.setdefault(j, _zeros(T + 1))
            col[0][i], col[1][i] = _fixed(re, S + sigma + e, d), _fixed(im, S + sigma + e, d)
    dcols = {j - 1: ([j * v for v in re], [j * v for v in im])
             for j, (re, im) in cols.items() if j}
    maxj = max(cols)
    y = _zeros(T + 1)
    correct = 1  # y agrees with the true series mod x^correct
    while correct <= T:
        window = min(2 * correct, T)
        n = window + 1
        pow_y = _zeros(n)
        pow_y[0][0] = 1 << S
        h_val, h_der = _zeros(n), _zeros(n)
        for j in range(maxj + 1):
            if j in cols:
                _mul_into(h_val, cols[j], pow_y, n)
            if j in dcols:
                _mul_into(h_der, dcols[j], pow_y, n)
            if j < maxj:
                pow_y = _shift_back(_mul_into(_zeros(n), pow_y, y, n), S)
        h_val, h_der = _shift_back(h_val, S), _shift_back(h_der, S)
        delta = _shift_back(_mul_into(_zeros(n), h_val, _recip(h_der, n, S), n), S)
        for part, step in zip(y, delta):
            for k in range(n):
                part[k] -= step[k]
        correct = min(2 * correct, n)
    (t,), e = _dyadic_ints((thresh._mpf_,))
    # |y_k|^2 > thresh^2 running^2, all squares at scale 2^2S
    t2 = t * t << max(0, 2 * e)
    out = {}
    running2 = 1 << 2 * S
    for k in range(1, T + 1):
        yr, yi = y[0][k], y[1][k]
        n2 = yr * yr + yi * yi
        if n2 << max(0, -2 * e) > t2 * running2:
            out[k] = mp.make_mpc((from_man_exp(yr, -S, mp.prec, round_nearest),
                                  from_man_exp(yi, -S, mp.prec, round_nearest)))
        running2 = max(running2, n2)
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
        thresh = ring.threshold if not ring.exact else mpf(2) ** (-(prec // 2))
        branches.append((1, mpc(1), _tail_series(terms, budget, thresh)))
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
    """The PuiseuxBranch of one raw expansion (e, mu, {m: c}).

    Each coefficient c becomes a ComplexBall of radius (|c| + 1) *
    2^-(prec - 10).  That radius is a heuristic, about a thousand units of
    the requested precision: no error bound of the segment roots, the
    transforms or the tail series stands behind it, so the ball is not
    proven to hold the true coefficient.
    """
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
