"""Newton-Puiseux expansion of plane-curve germs and local invariants.

Branches are computed in rational-parametrization style: every edge of
the Newton polygon is followed through a monomial substitution chosen by
a Bezout identity, so each irreducible local component yields exactly one
parametrization t -> (t^e, sum c_k t^(m_k)) with no conjugate duplicates.
The branch structure (which branches, their ramification, exponents of
the Newton steps, multiplicity and order) is decided in one exact
recursion over Q(i), and below an irrational segment root of multiplicity
>= 2 over K = Q(i)[z]/(psi), splitting psi by a gcd whenever a zero divisor
turns up (Duval, Compositio Math. 70, 1989; D5, EUROCAL 1985).
`branch_structure` returns that structure alone, and it is all that the
invariants (mu, delta, r) and the Cerf diagram read.  `puiseux_branches`
realizes numbers on top of it: below a simple root the branch is smooth,
and only there do numbers enter, the exact terms evaluated at the
certified roots and the tail series solved once on Gaussian integers
(`_tail_series`).  The coefficients are for display only, ComplexBalls
of heuristic radius (`_finalize_branch`).

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

from .gaussian import GaussianRational, ZERO
from .poly import (
    Polynomial,
    divexact,
    poly_gcd,
    resultant,
    squarefree_decomposition,
)
from .roots import (ComplexBall, PrecisionError, _dyadic_ints, _horner, gaussian_to_mpc,
                    ordering_key, solve_numeric)


class PuiseuxError(ValueError):
    pass


class CommonComponentError(PuiseuxError):
    """The two curves share a component through the origin."""


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
    _require_plane_germ(f)
    segments = []
    for (i0, j0), (i1, j1) in _lower_edges(f.nums):
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


class ExactBranch(NamedTuple):
    """The exact structure of one branch, x = t^e, y = c t^y_order + ...

    `skeleton` is the branch's path of (exponent in t, step tag, q): the
    lead of each Newton step, top first, then the first exponent of an
    exact tail.  Tags tell sibling steps apart.  An empty skeleton
    encodes the axis branch y = 0.
    """

    ramification_index: int
    skeleton: tuple

    @property
    def is_axis(self) -> bool:
        return not self.skeleton

    @property
    def y_order(self) -> int:
        if self.is_axis:
            raise PuiseuxError("axis branch has no finite y-order")
        return self.skeleton[0][0]

    leading_exponent = PuiseuxBranch.leading_exponent


class BranchDecomposition(NamedTuple):
    """The local branches of `germ`: `PuiseuxBranch`es with their series
    (`puiseux_branches`), or `ExactBranch`es (`branch_structure`)."""

    germ: Polynomial
    branches: tuple
    multiplicities: tuple
    x_axis_multiplicity: int = 0

    @property
    def branch_count(self) -> int:
        """Number of local components, the x-axis included."""
        return len(self.branches) + (1 if self.x_axis_multiplicity else 0)


# -- internal expansion machinery -------------------------------------------


class _Split(Exception):
    """A zero divisor of K = Q(i)[z]/(psi) turned up; args[0] is its gcd
    with psi, a proper factor, and the expansion is redone over each part."""


# an element of K is its remainder mod psi, a Polynomial in z
_Z = ("z",)
_ZVAR = Polynomial.variable(_Z, "z")


def _divmod_z(a, b):
    """Quotient and remainder of the polynomials a, b in z."""
    quo, n, lc = Polynomial.zero(_Z), b.degree("z"), b.leading()[1]
    while a.degree("z") >= n:
        t = Polynomial(_Z, {(a.degree("z") - n,): a.leading()[1] / lc})
        quo, a = quo + t, a - t * b
    return quo, a


def _cut(c, psi):
    """c reduced into K = Q(i)[z]/(psi); c itself when psi is None."""
    return c if psi is None else _divmod_z(c, psi)[1]


def _inv(c, psi):
    """1/c in K for a unit c, by the extended Euclidean algorithm; zero
    divisors are found before, by `_split_at`."""
    r0, r1, s0, s1 = psi, c, Polynomial.zero(_Z), Polynomial.constant(_Z, 1)
    while r1.degree("z") > 0:
        quo, rem = _divmod_z(r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, s0 - quo * s1
    return s1.scale(r1.constant_value().inverse())


def _split_at(c, psi):
    """Raise _Split with gcd(psi, c), monic, when c != 0 is a zero divisor
    of K: the split that an extended Euclid of psi and c would end on."""
    g = poly_gcd(psi, c)
    if g.degree("z") > 0:
        raise _Split(g)


def _transform(terms: dict, q: int, p: int, L: int, u: int, v: int, xi, psi=None):
    """Substitute x -> xi^v x1^q, y -> x1^p (xi^u + y1) and divide by x1^L.

    Exact over Q(i) or over K (psi given), where zero terms are dropped,
    or on mpc values.  The (0, 0) term is dropped too: xi is a root of
    the segment polynomial, so it cancels (numerically only noise).  The
    powers of xi are built one from the last, the negative ones from one
    inverse, each reduced mod psi over K.
    """
    lo = min(v * i + min(0, u * j) for i, j in terms)
    hi = max(v * i + max(0, u * j) for i, j in terms)
    up = [xi ** 0]
    for _ in range(hi):
        up.append(_cut(up[-1] * xi, psi))
    down = up[:1]
    if lo < 0:
        inverse = 1 / xi if psi is None else _inv(xi, psi)
        for _ in range(-lo):
            down.append(_cut(down[-1] * inverse, psi))
    out: dict = {}
    for (i, j), c in terms.items():
        base = q * i + p * j - L
        for k in range(j + 1):
            e = u * (j - k) + v * i
            coeff = (up[e] if e >= 0 else down[-e]) * (c * math.comb(j, k))
            key = (base, k)
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
    out.pop((0, 0), None)
    if isinstance(xi, mpc):
        return out
    out = {key: _cut(c, psi) for key, c in out.items()}
    return {key: c for key, c in out.items() if not c.is_zero()}


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
    """Solve h(x, y(x)) = 0 with dh/dy(0,0) != 0 by undetermined coefficients.

    With c = h_y(0,0) and y = sum_(k>=1) y_k x^k, the coefficient of x^k
    in h(x, y) is c y_k plus a sum s_k of the other terms of h, which
    reads y_1 ... y_(k-1) alone, so y_k = -s_k / c fixes one order at a
    time: the x^k coefficients of the powers y^j (j >= 2) first, from
    lower ones, then s_k and y_k.  The series are Gaussian integers at
    one binary scale 2^S, an int n standing for n / 2^S.  h is first
    multiplied by a power of two so that its largest coefficient has
    magnitude about 1, which is exact and leaves y(x) unchanged.  S is
    the working precision plus 32 guard bits, widened by -log2|c| when
    that is small, so a tiny c keeps its relative accuracy and never
    rounds to 0.  Each coefficient of a power and each s_k is summed at
    full width (scale 2^2S); the power's is shifted back once, and y_k
    = -s_k conj(c) / |c|^2 is rounded once, so each carries one rounding
    of 2^-S however many terms it sums.  A coefficient y_k is kept when
    |y_k| > thresh * max(1, |y_j| for j < k): rounding noise at order k
    scales with the coefficients seen so far, not with the global
    maximum (the series may grow geometrically).  Only the kept ones
    become mpc values, rounded once to the working precision.
    """
    if all(j for _, j in terms):
        return {}  # h(x, 0) has no term, so y = 0 exactly
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
    h = [(i, j, _fixed(re, S + sigma + e, d), _fixed(im, S + sigma + e, d))
         for (i, j), (re, im, e, d) in exact.items() if i <= T]
    cr, ci = next(((re, im) for i, j, re, im in h if (i, j) == (0, 1)), (0, 0))
    norm = cr * cr + ci * ci
    if not norm:
        raise PrecisionError("tail series with h_y(0, 0) = 0")
    # pows[j] = (real parts, imaginary parts) of y^j, index = exponent;
    # pows[1] is y, and its x^k coefficient is 0 until y_k is set, so the
    # term c y in the sum s_k adds nothing
    pows = [([1 << S] + [0] * T, [0] * (T + 1))]
    pows += [([0] * (T + 1), [0] * (T + 1)) for _ in range(max(j for _, j, _, _ in h))]
    yr, yi = pows[1]
    half = 1 << (S - 1)
    (t,), e = _dyadic_ints((thresh._mpf_,))
    # |y_k|^2 > thresh^2 running^2, all squares at scale 2^2S
    t2 = t * t << max(0, 2 * e)
    running2 = 1 << 2 * S
    seen = []  # (m, re, im) of each nonzero y_m so far
    out = {}
    for k in range(1, T + 1):
        for j in range(2, min(k, len(pows) - 1) + 1):
            lr, li = pows[j - 1]
            sr = si = 0
            for m, ar, ai in seen:
                sr += ar * lr[k - m] - ai * li[k - m]
                si += ar * li[k - m] + ai * lr[k - m]
            pows[j][0][k], pows[j][1][k] = (sr + half) >> S, (si + half) >> S
        sr = si = 0
        for i, j, ar, ai in h:
            if i <= k:
                br, bi = pows[j][0][k - i], pows[j][1][k - i]
                sr += ar * br - ai * bi
                si += ar * bi + ai * br
        yr[k] = _fixed(-(sr * cr + si * ci), 0, norm)
        yi[k] = _fixed(sr * ci - si * cr, 0, norm)
        n2 = yr[k] * yr[k] + yi[k] * yi[k]
        if n2:
            seen.append((k, yr[k], yi[k]))
        if n2 << max(0, -2 * e) > t2 * running2:
            out[k] = mp.make_mpc((from_man_exp(yr[k], -S, mp.prec, round_nearest),
                                  from_man_exp(yi[k], -S, mp.prec, round_nearest)))
        running2 = max(running2, n2)
    return out


def _expand(terms: dict, psi=None, depth: int = 0) -> list:
    """The exact recursion, over Q(i) or over K = Q(i)[z]/(psi).

    Returns leaves (steps, tail, psi).  `steps` are the Newton steps from
    this node down, each (q, p, L, u, v, xi, key): the edge data, the
    segment root xi in Q(i) or K, and a `key` that tells sibling steps
    apart.  `tail` is the last polynomial, of y-order 1 (a smooth tail),
    or {} when the branch ends in y1 = 0.  When the last step's xi is a
    list, it is a segment polynomial with simple roots, left to
    `_realize`, and `tail` holds the terms that step transforms.  The
    leaf's `psi` is the factor of the modulus it holds over.  Over K,
    `_split_at` first tests each coefficient for a zero divisor.
    """
    if depth > 32:
        raise PuiseuxError("expansion recursion too deep")
    if not terms:
        raise PuiseuxError("expansion of the zero polynomial")
    if psi is not None:
        for c in terms.values():
            _split_at(c, psi)  # every coefficient is a unit of K, or psi splits
    leaves = []
    # split y-powers: the terminating series lives here
    b = min(j for (_, j) in terms)
    if b > 0:
        if b > 1:
            raise PuiseuxError("repeated axis factor in a squarefree germ")
        leaves.append(((), {}, psi))
        terms = {(i, j - b): c for (i, j), c in terms.items()}
    # split x-powers: no y-solutions in them
    a = min(i for (i, _) in terms)
    if a > 0:
        terms = {(i - a, j): c for (i, j), c in terms.items()}
    if (0, 0) in terms:
        return leaves  # unit germ: nothing further through the origin
    if min(j for (i, j) in terms if i == 0) == 1:
        return leaves + [((), terms, psi)]
    for key, (edge, xi, field) in enumerate(_segment_children(terms, psi)):
        if type(xi) is list:
            below = [((), terms, field)]
        elif field is psi:
            below = _expand(_transform(terms, *edge, xi, psi), psi, depth + 1)
        else:
            below = _over(terms, edge, field, depth + 1)
        leaves += [((edge + (xi, key),) + steps, tail, part) for steps, tail, part in below]
    return leaves


def _over(terms: dict, edge: tuple, psi, depth: int) -> list:
    """The leaves below the root z of psi, over K = Q(i)[z]/(psi); when a
    zero divisor splits psi, over each factor instead (D5)."""
    try:
        return _expand(_transform(terms, *edge, _ZVAR, psi), psi, depth)
    except _Split as split:
        g = split.args[0]
        return _over(terms, edge, g, depth) + _over(terms, edge, divexact(psi, g), depth)


def _segment_children(terms: dict, psi) -> list:
    """One exact Newton-polygon step: (edge, xi, field) per lower edge and
    root of its segment polynomial, edge = (q, p, L, u, v).

    Over Q(i) the segment polynomial splits by its squarefree
    decomposition: a linear factor gives its root xi in Q(i), a factor
    psi of multiplicity >= 2 gives xi = z over K = Q(i)[z]/(psi), and one
    of multiplicity 1, with simple roots, is kept as its coefficient list.
    Over K it must be squarefree at every root of psi (a list) or c (w - r)^g
    with xi = r in K; anything else, a tower, raises PuiseuxError.
    """
    zero = ZERO if psi is None else Polynomial.zero(_Z)
    children = []
    for (i0, j0), (i1, j1) in _lower_edges(terms.keys()):
        w, h = i1 - i0, j0 - j1
        g = math.gcd(w, h)
        q, p = h // g, w // g
        alpha, beta = _bezout(q, p)
        edge = (q, p, q * i0 + p * j0, alpha, -beta)
        seg = [terms.get((i1 - k * p, j1 + k * q), zero) for k in range(g + 1)]
        if psi is None:
            poly = Polynomial(_Z, {(k,): c for k, c in enumerate(seg)})
            for factor, mult in squarefree_decomposition(poly):
                c = factor.dense_coefficients()
                xi = -(c[0] / c[1]) if len(c) == 2 else c if mult == 1 else _ZVAR
                children.append((edge, xi, factor if xi is _ZVAR else None))
        else:
            if g > 1:
                s = Polynomial(("w", "z"), {(k, e): c for k, sk in enumerate(seg)
                                            for (e,), c in sk.terms.items()})
                disc = _cut(resultant(s, s.partial_derivative("w"), "w"), psi)
                if not disc.is_zero():
                    _split_at(disc, psi)  # squarefree at every root of psi, or psi splits
                    children.append((edge, seg, psi))
                    continue
            # one root r in K, of multiplicity g at every root of psi?
            r = _cut(-seg[g - 1] * _inv(seg[g], psi).scale(Fraction(1, g)), psi)
            if any(_cut(seg[g] * (-r) ** (g - k), psi).scale(math.comb(g, k)) != seg[k]
                   for k in range(g - 1)):
                raise PuiseuxError("segment polynomial over Q(i)[z]/(psi) is neither squarefree "
                                   "nor a power of a linear factor: a tower of extensions")
            children.append((edge, r, psi))
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


def _realize(leaf: tuple, prec: int):
    """The branches of one leaf as (steps, tail terms).

    Only values enter here: xi and the terms are evaluated at each
    certified root of the leaf's modulus and of a last list xi; a tail
    over Q(i) stays exact.  A step is (q, p, u, v, xi).
    """
    steps, tail, part = leaf
    zetas = [None] if part is None else [
        mpc(b.center) for b in solve_numeric(part.dense_coefficients(), prec)]
    for zeta in zetas:
        at = (lambda c: c) if zeta is None else (lambda c: _num(c, zeta))
        head = [(q, p, u, v, _num(xi, zeta)) for q, p, _, u, v, xi, _ in steps]
        if steps and type(steps[-1][5]) is list:
            q, p, L, u, v, seg, _ = steps[-1]
            terms = {k: _num(c, zeta) for k, c in tail.items()}
            for ball in solve_numeric([at(c) for c in seg], prec):
                w = mpc(ball.center)
                yield head[:-1] + [(q, p, u, v, w)], _transform(terms, q, p, L, u, v, w)
        else:
            yield head, {k: at(c) for k, c in tail.items()}


def _num(c, zeta):
    """An exact value as an mpc: a Q(i) number, or an element of K at zeta."""
    if isinstance(c, Polynomial):
        return _horner([gaussian_to_mpc(a) for a in c.dense_coefficients()], zeta)
    return gaussian_to_mpc(c) if type(c) is GaussianRational else c


def _exact_branches(leaf: tuple) -> list:
    """The ExactBranches of one leaf: one per root of the leaf's modulus
    and, within it, one per root of a last list xi, its step tagged by
    (key, index of the root).  Each step is tagged by its key.

    The roots of psi need no tag: each has multiplicity >= 2, so below it
    lies a ramified step or a parting, later than the root's own step.
    """
    steps, tail, part = leaf
    keys = [step[6] for step in steps]
    if steps and type(steps[-1][5]) is list:
        roots = len(steps[-1][5]) - 1
        paths, first = [keys[:-1] + [(keys[-1], kw)] for kw in range(roots)], None
    else:
        paths, first = [keys], min((i for (i, j) in tail if j == 0), default=None)
    out = []
    for tags in paths:
        e, path = 1, () if first is None else ((first, "tail", 1),)
        for (q, p, *_), tag in zip(reversed(steps), reversed(tags)):
            path = ((p * e, tag, q),) + tuple((p * e + m, t, r) for m, t, r in path)
            e *= q
        out.append(ExactBranch(e, path))
    return out * (1 if part is None else part.degree("z"))


def _truncation(branches: list) -> int:
    """The series truncation: the least 8 * 2^k that reaches each branch's
    first exponent, its last characteristic exponent (the lead of its last
    ramified step, so that the parametrization is primitive) and, for two
    branches of one ramification, the exponent where they part.

    All of these are exact, read off the ExactBranches' skeletons.
    """
    need = 0
    for n, (e, path) in enumerate(branches):
        need = max([need] + [s[0] for s in path[:1]] + [m for m, _, q in path if q > 1])
        for f, other in branches[:n]:
            if f == e:
                need = max(need, _parting(path, other))
    trunc = 8
    while trunc < need:
        trunc *= 2
    return trunc


def _parting(a: list, b: list) -> int:
    """The exponent where two branch paths part: at the first step they
    take differently, or at the first one only the longer takes."""
    for (m, s, _), (n, t, _) in zip(a, b):
        if s != t:
            return min(m, n)
    return max(a, b, key=len)[min(len(a), len(b))][0] if len(a) != len(b) else 0


def _fold(steps: list, series: dict) -> tuple:
    """(e, mu, {m: c}) with x = mu t^e, y = sum c t^m, from the steps (top
    first) and the tail series below the last one."""
    e, mu, shifted = 1, mpc(1), series
    for q, p, u, v, xi in reversed(steps):
        lead = mu**p * xi**u
        shifted = {p * e: lead, **{p * e + m: mu**p * c for m, c in shifted.items()}}
        e, mu = q * e, xi**v * mu**q
    return e, mu, shifted


def _finalize_branch(e, mu, shifted, prec, budget):
    """The PuiseuxBranch of x = mu t^e, y = sum c t^m, made x = t^e and cut
    at `budget`.

    e and the exponents of the Newton steps are exact; the tail's other
    exponents and every coefficient are for display only.  A coefficient
    c becomes a ComplexBall of radius (|c| + 1) * 2^-(prec - 10), a
    heuristic: no error bound of the roots, the transforms or the tail
    series stands behind it, so the ball is not proven to hold c.
    """
    radius = lambda c: (abs(c) + 1) * mpf(2) ** (-(prec - 10))
    if shifted and mu != 1:
        # mu is real when its imaginary part is within the radius, so
        # that arg pi, not the sign of rounding noise, picks the root
        if abs(mu.imag) <= radius(mu):
            mu = mpc(mu.real)
        nu = mu ** (mpf(-1) / e)
        shifted = {m: c * nu**m for m, c in shifted.items()}
    exps = sorted(m for m in shifted if m <= budget)
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
    return (branch.ramification_index, branch.exponents[0],
            ordering_key(branch.coefficients[0])[:2])


def branch_structure(f: Polynomial) -> BranchDecomposition:
    """The exact structure of the local branches of f at the origin.

    One `ExactBranch` per branch (ramification, skeleton and so first
    exponent, axis or not), in `puiseux_branches`' order of ramification
    and first exponent, with the multiplicities of the squarefree
    decomposition and `x_axis_multiplicity`.  No number is computed: a
    leaf that ends in a segment polynomial with simple roots counts
    deg(seg) * deg(psi) branches, one per root.  The degree accounting
    is checked here.
    """
    return _structure(f, *_squarefree_factors(f))[0]


def _require_plane_germ(f: Polynomial) -> None:
    """The entry check of every plane-curve germ, here and in `polar`: two
    variables, not zero, vanishing at the origin; one PuiseuxError with
    one message per failure, whichever entry point is called."""
    if len(f.variables) != 2:
        raise PuiseuxError("expected a plane-curve germ in two variables")
    if f.is_zero():
        raise PuiseuxError("zero germ")
    if not f.constant_term().is_zero():
        raise PuiseuxError("unit germ: f(0,0) != 0")


def _squarefree_factors(f: Polynomial) -> tuple:
    """(x_mult, squarefree_decomposition(f / x^x_mult)) of a germ f in two
    variables through the origin: the one decomposition that the
    reducedness gate and the branch structure both read."""
    _require_plane_germ(f)
    x_mult = min(e[0] for e in f.nums)
    h = f.shift((-x_mult, 0))
    return x_mult, squarefree_decomposition(h)


def _structure(f: Polynomial, x_mult: int, factors: list) -> tuple:
    """(branch_structure(f), parts) from `_squarefree_factors(f)`, with
    parts = [(factor, multiplicity, leaves, ExactBranches in leaf order)]
    per squarefree factor through the origin."""
    # a factor that is a unit at the origin has no local branches
    parts = []
    for g, k in factors:
        if g.constant_term().is_zero():
            leaves = _expand(g.terms)
            parts.append((g, k, leaves, _leaf_branches(leaves)))
    rows = sorted(((b, k) for _, k, _, bs in parts for b in bs),
                  key=lambda row: (row[0].ramification_index,
                                   0 if row[0].is_axis else row[0].y_order))
    decomposition = BranchDecomposition(
        germ=f,
        branches=tuple(b for b, _ in rows),
        multiplicities=tuple(k for _, k in rows),
        x_axis_multiplicity=x_mult,
    )
    _check_degree_accounting(f, x_mult, decomposition)
    return decomposition, parts


def _leaf_branches(leaves: list) -> list:
    return [b for leaf in leaves for b in _exact_branches(leaf)]


def puiseux_branches(f: Polynomial, precision: int = 128) -> BranchDecomposition:
    """All local branches of f at the origin, with their series.

    x-power factors are split off into `x_axis_multiplicity`; a y-power
    factor becomes an explicit axis branch.  Branch multiplicities come
    from the exact squarefree decomposition (all 1 for squarefree f).
    The structure of every branch is exact (`branch_structure`), and
    numbers are realized on top of it.  The series are cut at one
    truncation fixed from the exact skeletons (`_truncation`), read off
    the factors' product, so that branches of distinct factors part
    there too; their coefficients are for display only.
    """
    structure, parts = _structure(f, *_squarefree_factors(f))
    if len(parts) == 1:
        trunc = _truncation(parts[0][3])
    else:
        one = Polynomial.constant(f.variables, 1)
        product = math.prod((g for g, *_ in parts), start=one)
        trunc = _truncation(_leaf_branches(_expand(product.terms)))
    thresh = mpf(2) ** (-(precision // 2))
    branches = []
    mults = []
    with mp.workprec(precision + 64):
        for _, k, leaves, _ in parts:
            for leaf in leaves:
                for steps, tail in _realize(leaf, precision):
                    series = _tail_series(tail, trunc, thresh) if tail else {}
                    branches.append(_finalize_branch(*_fold(steps, series), precision, trunc))
                    mults.append(k)
    order = sorted(range(len(branches)), key=lambda i: _branch_sort_key(branches[i]))
    return BranchDecomposition(
        germ=f,
        branches=tuple(branches[i] for i in order),
        multiplicities=tuple(mults[i] for i in order),
        x_axis_multiplicity=structure.x_axis_multiplicity,
    )


def _check_degree_accounting(f, x_mult, decomposition):
    # sum of e_i * mult_i must equal the y-order of f / x^x_mult at x = 0
    d0 = min(j for (i, j) in f.nums if i == x_mult)
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


def _restrict_y0(f: Polynomial) -> list:
    """The exponents i of the terms x^i of f(x, 0) (empty when y divides f)."""
    return [i for i, j in f.nums if j == 0]


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
            F = F.shift((0, -1))
            continue
        if not g0:
            total += min(f0)
            G = G.shift((0, -1))
            continue
        # ideal-preserving reduction: cancel the top x-degree of the larger
        # restriction; the degree strictly decreases, so this terminates
        r, s = max(f0), max(g0)
        if r > s:
            F, G = G, F
            r, s = s, r
        factor = G.coefficient((s, 0)) / F.coefficient((r, 0))
        G = G - F.shift((s - r, 0)).scale(factor)


def milnor_and_branches(f: Polynomial) -> tuple:
    """(mu, branch_structure(f)) of a reduced germ; mu + r - 1 must be
    even.  Exact: no series is solved.  The reducedness gate comes first
    (`FamilyGerm` reads it through `milnor_number`): f is reduced iff
    x_mult <= 1 and every factor of its one squarefree decomposition,
    units at the origin included, has multiplicity 1.  A reduced germ has
    an isolated critical point, as a curve of critical points through 0
    lies in {f = 0} and would be a repeated factor.  The branch structure
    comes next, before mu: a germ it refuses, a tower of extensions, fails
    there in milliseconds, not after the whole intersection reduction.
    """
    x_mult, factors = _squarefree_factors(f)
    if x_mult > 1 or any(k > 1 for _, k in factors):
        raise PuiseuxError("germ is not reduced (repeated factor)")
    branches = _structure(f, x_mult, factors)[0]
    fx = f.partial_derivative(f.variables[0])
    fy = f.partial_derivative(f.variables[1])
    smooth = not fx.constant_term().is_zero() or not fy.constant_term().is_zero()
    mu = 0 if smooth else intersection_multiplicity(fx, fy)
    r = branches.branch_count
    if (mu + r - 1) % 2 != 0:
        raise PuiseuxError(
            f"Milnor relation violated: mu={mu}, branch count={r} have wrong parity"
        )
    return mu, branches


def milnor_number(f: Polynomial) -> int:
    """mu = intersection multiplicity of the two partial derivatives at 0,
    exact."""
    return milnor_and_branches(f)[0]


def delta_invariant(f: Polynomial) -> int:
    """delta = (mu + r - 1) / 2 with r = `branch_structure(f).branch_count`
    (Milnor, 1968), exact."""
    mu, branches = milnor_and_branches(f)
    return (mu + branches.branch_count - 1) // 2
