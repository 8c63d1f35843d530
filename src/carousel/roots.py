"""Certified complex root solving.

A univariate polynomial with exact Gaussian-rational coefficients is
read for its exact structure first: the power z^k of the variable is
split off, 0 is a root of multiplicity k with a ball of radius 0, and
the rest is split into squarefree factors exactly (a rest a*z^n + b is
squarefree as it stands).  Each factor is then solved by
Aberth-Ehrlich simultaneous iteration in machine doubles; only when the
doubles cannot isolate the roots does the same iteration run in mpmath
from a circle of start points.  The approximations are then polished
and certified in Python integer arithmetic.  A numeric (mpc) coefficient
is an exact dyadic number and a Q(i) coefficient clears to a Gaussian
integer, so p and p' are evaluated exactly at dyadic points by
homogeneous Horner.  Newton steps on Gaussian integers refine each root,
and the certificate is Newton's inclusion disk: some root lies within
n*|p(z)/p'(z)| of any z (Henrici, Applied and Computational Complex
Analysis I, 1974).  Its radius is rounded up with `math.isqrt`, and n
pairwise disjoint disks, compared exactly, hold one root each.
"""

from __future__ import annotations

import cmath
import functools
from math import isqrt, lcm

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_man_exp, from_rational, fzero, mpf_add, round_ceiling,
                          round_nearest)

from .gaussian import GaussianRational
from .poly import Polynomial, PolynomialError, squarefree_decomposition


class PrecisionError(ArithmeticError):
    """Raised when roots could not be certified at the allowed precision."""


# ceiling of every precision-doubling retry, in bits
MAX_PRECISION = 4096

# Aberth sweeps per solve, in doubles and again in mpmath
_MAX_ITERATIONS = 400


class ComplexBall:
    """A complex disk `|z - center| <= radius` at a known bit precision.

    mpmath values are kept as given, never rounded to the working
    precision, so a certified disk stays an enclosure.
    """

    __slots__ = ("center", "radius", "precision")

    def __init__(self, center, radius, precision: int):
        if precision < 53:
            raise ValueError("ball precision must be at least 53 bits")
        self.center = center if isinstance(center, mpc) else mpc(center)
        self.radius = radius if isinstance(radius, mpf) else mpf(radius)
        if not mpmath.isfinite(self.radius) or self.radius < 0:
            raise ValueError("ball radius must be finite and non-negative")
        self.precision = precision

    def is_disjoint_from(self, other: "ComplexBall") -> bool:
        """|center - other.center| > radius + other.radius, decided exactly."""
        (x, y, r, x2, y2, r2), _ = _dyadic_ints(
            self.center._mpc_ + (self.radius._mpf_,)
            + other.center._mpc_ + (other.radius._mpf_,)
        )
        dx, dy = x - x2, y - y2
        return dx * dx + dy * dy > (r + r2) ** 2

    def __repr__(self):
        return f"ComplexBall({self.center}, r={mpmath.nstr(self.radius, 3)})"


def _dyadic_ints(parts):
    """Integers m_k and one exponent e with parts[k] == m_k * 2^e exactly.

    `parts` are raw mpf tuples (sign, mantissa, exponent, bitcount).
    """
    values = []
    for sign, man, exp, _ in parts:
        if not man and exp:
            raise ValueError("not a finite number")
        values.append((-man if sign else man, exp))
    e = min((exp for man, exp in values if man), default=0)
    return [man << (exp - e) if man else 0 for man, exp in values], e


def gaussian_to_mpc(value: GaussianRational) -> mpc:
    """Round an exact Q(i) value to the current working precision.

    Each component is rounded once, to nearest, however wide its
    numerator and denominator are.
    """
    prec = mp.prec
    return mp.make_mpc((
        from_rational(value.a, value.d, prec, round_nearest),
        from_rational(value.b, value.d, prec, round_nearest),
    ))


def ordering_key(z) -> tuple:
    """Sort key by (real, imaginary), quantized to a 2^-40 grid.

    The coarse leading components make the ordering stable across
    different working precisions (mathematically equal values quantize
    identically instead of being ranked by rounding noise); the exact
    values break remaining ties deterministically within a run.  An mpc
    value is read exactly, whatever the working precision.
    """
    z = z if isinstance(z, mpc) else mpc(z)
    re, im = z._mpc_
    return (_grid_index(re), _grid_index(im), z.real, z.imag)


def _grid_index(part):
    """The integer nearest 2^40 times a raw mpf, ties to even, as mpmath.nint."""
    sign, man, exp, _ = part
    shift = exp + 40
    if shift >= 0:
        index = man << shift
    else:
        index = man >> -shift
        rem = man - (index << -shift)
        half = 1 << (-shift - 1)
        if rem > half or (rem == half and index & 1):
            index += 1
    return -index if sign else index


def _horner(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _derivative_coeffs(coeffs):
    return [coeffs[k] * k for k in range(1, len(coeffs))]


def error_factor(ops: int, unit):
    """Twice gamma_ops = ops*u/(1 - ops*u) for unit roundoff `unit`.

    Each complex multiply-add of a Horner step costs at most four units
    (Higham, Accuracy and Stability, Lemma 3.5); the factor 2 absorbs the
    second-order terms and the rounding of the bound itself.
    """
    k = ops * unit
    return 2 * k / (1 - k)


def horner_bound(coeffs, majorants, z, gamma):
    """p(z), p'(z) and running bounds e, e' on their rounding errors.

    `coeffs` are low first and `majorants[k]` >= |coeffs[k]|.  With
    `gamma` = error_factor(ops, u) for the number of rounding steps ops
    behind each value (coefficient conversion and evaluation included),
    |computed p - p| <= e = gamma*M(|z|) and |computed p' - p'| <= e' =
    gamma*M'(|z|), where M is the majorant polynomial (Higham, ch. 5).
    Works unchanged on Python complex and on mpmath mpc values.
    """
    az = abs(z)
    p = dp = m = dm = 0
    for c, a in zip(reversed(coeffs), reversed(majorants)):
        dp = dp * z + p
        p = p * z + c
        dm = dm * az + m
        m = m * az + a
    return p, dp, gamma * m, gamma * dm


def newton_radius(n: int, p, dp, e, de):
    """Radius of a disk around z holding a root of a degree-n polynomial.

    n*(|p| + e)/(|p'| - e') bounds n*|p(z)/p'(z)| for the exact values;
    None when |p'| <= e' and the derivative cannot be bounded away from 0.
    """
    denom = abs(dp) - de
    if not denom > 0:
        return None
    return n * (abs(p) + e) / denom * (1 + 2.0 ** -20)


def _aberth_iterate(monic, z, tol, nudge, gamma=None):
    """Gauss-Seidel Aberth-Ehrlich steps on z in place; True on convergence.

    Converged means that a sweep moved no point by more than `tol`
    (relative).  With `gamma`, a point whose |p(z_i)| is within the
    running rounding bound e_i of `horner_bound` sits at the rounding
    floor and is not moved, and a sweep that moves no point converges.
    """
    n = len(z)
    deriv = _derivative_coeffs(monic)
    majorants = [abs(c) for c in monic]
    for _ in range(_MAX_ITERATIONS):
        moved = 0
        settled = True
        for i in range(n):
            pz = _horner(monic, z[i])
            if gamma is not None and abs(pz) <= gamma * _horner(majorants, abs(z[i])):
                continue
            settled = False
            dz = _horner(deriv, z[i])
            if dz == 0:
                z[i] = z[i] + tol + nudge
                moved = max(moved, abs(tol))
                continue
            newton = pz / dz
            s = 0
            for j in range(n):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = tol
                    s += 1 / diff
            denom = 1 - newton * s
            if denom == 0:
                step = newton
            else:
                step = newton / denom
            z[i] = z[i] - step
            moved = max(moved, abs(step))
        if settled or moved < tol * (1 + max(abs(v) for v in z)):
            return True
    return False


# a few bits above the rounding floor of doubles: well-conditioned roots
# get there, and the integer Newton polish takes them on from there
_DOUBLE_TOL = 2.0 ** -44


def _double_start(coeffs, unit):
    """Aberth approximations in complex doubles from the scaled `unit` circle, or None.

    `coeffs` are Gaussian integers (re, im), low first.  None unless every
    monic coefficient converts to a finite double without underflow and
    the pass converges to finite approximations that the Weierstrass
    radii, rounding error included, already isolate.  A cluster that
    doubles cannot resolve is left to the mpmath start.
    """
    lr, li = coeffs[-1]
    norm = lr * lr + li * li
    monic = []
    for cr, ci in coeffs:
        try:
            d = complex((cr * lr + ci * li) / norm, (ci * lr - cr * li) / norm)
        except OverflowError:
            return None
        if not cmath.isfinite(d) or ((cr or ci) and abs(d) < 2.0 ** -1000):
            return None
        monic.append(d)
    radius = 1 + max(abs(v) for v in monic[:-1])
    z = [radius * w for w in unit]
    if not _aberth_iterate(monic, z, _DOUBLE_TOL, 1e-6):
        return None
    if not all(cmath.isfinite(w) for w in z):
        return None
    if _inclusion_radii(monic, z) is None:
        return None
    return z


def _mpmath_start(coeffs, unit, precision):
    """Aberth approximations at precision + 32 bits from the scaled `unit` circle.

    The pass stops once every |p(z_i)| is within its rounding bound.
    """
    n = len(coeffs) - 1
    with mp.workprec(precision + 32):
        lead = mpc(*coeffs[-1])
        monic = [mpc(cr, ci) / lead for cr, ci in coeffs]
        radius = 1 + max(abs(v) for v in monic[:-1])
        z = [radius * mpc(w) for w in unit]
        tol = mpf(2) ** (-(precision + 16))
        gamma = error_factor(4 * (n + 1), mpf(2) ** (-(precision + 32)))
        _aberth_iterate(monic, z, tol, mpf(10) ** (-6), gamma)
    return z


@functools.lru_cache(maxsize=64)
def _unit_circle(n):
    """Start directions exp(2 pi i k/n + 0.4 i), each rounded once to complex doubles.

    Both starts scale them by the Cauchy bound; the rotation breaks
    symmetric stalls deterministically.
    """
    with mp.workprec(113):
        return tuple(
            complex(mpmath.exp(2j * mpmath.pi * (mpf(k) / n) + 0.4j)) for k in range(n)
        )


def aberth_roots(coeffs, precision: int):
    """All roots of a squarefree polynomial (dense list, low first).

    The coefficients are Q(i) values, Gaussian-integer pairs (re, im), or
    mpc values, which are read exactly (other numbers are converted at
    precision + 32 bits); the balls enclose the roots of that exact
    polynomial.  Returns certified
    ComplexBall list sorted by (re, im) of the centers.  Raises
    PrecisionError when the integer certificate fails after the mpmath
    start, and at once for a multiple root at 0; this is a single
    attempt, solve_numeric is the one that escalates.
    """
    c = _gaussian_integers(coeffs, precision)
    while c and c[-1] == (0, 0):
        c.pop()
    n = len(c) - 1
    if n < 1:
        return []
    if n > 1 and c[0] == c[1] == (0, 0):
        # no certificate separates the copies of a multiple root at 0
        raise PrecisionError("0 is a multiple root; the polynomial is not squarefree")
    unit = _unit_circle(n)
    start = _double_start(c, unit)
    balls = None if start is None else _newton_certificate(c, start, precision)
    if balls is None:
        balls = _newton_certificate(c, _mpmath_start(c, unit, precision), precision)
    if balls is None:
        raise PrecisionError("root disks overlap; raise precision")
    balls.sort(key=lambda b: ordering_key(b.center))
    return balls


def _gaussian_integers(coeffs, precision):
    """Gaussian integers (re, im) proportional to the exact coefficients:
    pairs as they are, Q(i) values times the lcm of their denominators."""
    if all(type(v) is tuple for v in coeffs):
        return list(coeffs)
    if all(type(v) is GaussianRational for v in coeffs):
        den = lcm(*(c.d for c in coeffs))
        return [(c.a * (den // c.d), c.b * (den // c.d)) for c in coeffs]
    parts = ()
    with mp.workprec(precision + 32):
        for v in coeffs:
            parts += (v if isinstance(v, mpc) else mpc(v))._mpc_
    ints, _ = _dyadic_ints(parts)
    return list(zip(ints[::2], ints[1::2]))


def _newton_certificate(coeffs, start, precision):
    """Certified balls around the polished `start` points, or None.

    Each point is polished by `_newton_polish`; the ball around it has
    the inclusion radius n*|p(z)/p'(z)| rounded up, plus the rounding of
    its center to precision + 32 bits.  None unless the n balls are
    pairwise disjoint, when they hold one root each.
    """
    n = len(coeffs) - 1
    wp = precision + 32
    balls = []
    for w in start:
        (x, y), e = _dyadic_ints((w if isinstance(w, mpc) else mpc(w))._mpc_)
        if e > 0:
            x, y, e = x << e, y << e, 0
        polished = _newton_polish(coeffs, x, y, -e, precision)
        if polished is None:
            return None
        x, y, s, p2, d2 = polished
        center = mp.make_mpc((
            from_man_exp(x, -s, wp, round_nearest), from_man_exp(y, -s, wp, round_nearest)
        ))
        # two units of the working precision in |Re| + |Im|: one covers
        # the rounding of the center, one any other rounding of the root
        slack = from_man_exp(abs(x) + abs(y), -(s + wp - 1))
        radius = mpf_add(_inclusion_radius(n, p2, d2, s), slack, 53, round_ceiling)
        balls.append(ComplexBall(center, mp.make_mpf(radius), precision))
    for i in range(n):
        for j in range(i + 1, n):
            if not balls[i].is_disjoint_from(balls[j]):
                return None
    return balls


def _homogeneous_horner(coeffs, x, y, s):
    """D^n p(z) and D^(n-1) p'(z) at z = (x + iy)/D, D = 2^s, as Gaussian integers."""
    n = len(coeffs) - 1
    pr, pi = coeffs[n]
    dr = di = 0
    for k in range(n - 1, -1, -1):
        dr, di = dr * x - di * y + pr, dr * y + di * x + pi
        cr, ci = coeffs[k]
        shift = s * (n - k)
        pr, pi = pr * x - pi * y + (cr << shift), pr * y + pi * x + (ci << shift)
    return pr, pi, dr, di


def _newton_polish(coeffs, x, y, s, precision):
    """Newton steps from z = (x + iy)/2^s until a step is below the grid of z.

    The grid of z is 2^-(precision + 32 + max(0, -log2|z|)), so small
    roots keep their relative accuracy, and each step is rounded to it.
    Returns (x, y, s, |P|^2, |P'|^2) at the last point, with P = 2^(sn) p(z)
    and P' = 2^(s(n-1)) p'(z), or None when p'(z) = 0 or the steps do not
    settle within a few more than the quadratic convergence needs.
    """
    wp = precision + 32
    for _ in range(wp.bit_length() + 2):
        pr, pi, dr, di = _homogeneous_horner(coeffs, x, y, s)
        d2 = dr * dr + di * di
        if not d2:
            return None
        top = max(abs(x), abs(y)).bit_length()
        grid = wp + (max(0, s + 1 - top) if top else 0)
        p2 = pr * pr + pi * pi
        # |p/p'| = |P|/(2^s |P'|) <= 2^-grid
        if p2 << 2 * grid <= d2 << 2 * s:
            return x, y, s, p2, d2
        # z - p/p' = N/(2^s P') = N conj(P')/(2^s |P'|^2), N = Z P' - P
        nr, ni = x * dr - y * di - pr, x * di + y * dr - pi
        ar, ai = nr * dr + ni * di, ni * dr - nr * di
        if grid >= s:
            ar, ai, den = ar << (grid - s), ai << (grid - s), d2
        else:
            den = d2 << (s - grid)
        x = (2 * ar + den) // (2 * den)
        y = (2 * ai + den) // (2 * den)
        s = grid
    return None


def _inclusion_radius(n, p2, d2, s):
    """A raw mpf upper bound of n*sqrt(p2/d2)/2^s with a 31-bit mantissa."""
    num = n * n * p2
    if not num:
        return fzero
    t = 31 + s - (num.bit_length() - d2.bit_length()) // 2
    shift = 2 * (t - s)
    if shift >= 0:
        q = -(-(num << shift) // d2)
    else:
        q = -(-num // (d2 << -shift))
    return from_man_exp(isqrt(q - 1) + 1, -t)


def _inclusion_radii(monic, z):
    """Weierstrass radii n*(|p(z_i)| + e_i)/|prod_j (z_i - z_j)| in doubles, or None.

    e_i bounds the rounding error of p(z_i) in doubles, so the disks
    cover the roots; None unless they are pairwise disjoint.
    """
    n = len(z)
    # rounding of the monic coefficients and of Horner
    gamma = error_factor(4 * (n + 1), 2.0 ** -53)
    majorants = [abs(c) for c in monic]
    radii = []
    for i in range(n):
        prod = 1
        for j in range(n):
            if j != i:
                prod *= z[i] - z[j]
        if prod == 0:
            return None
        bound = gamma * _horner(majorants, abs(z[i]))
        radii.append(n * (abs(_horner(monic, z[i])) + bound) / abs(prod) * (1 + 2.0 ** -20))
    for i in range(n):
        for j in range(i + 1, n):
            if not abs(z[i] - z[j]) > radii[i] + radii[j]:
                return None
    return radii


def _escalate(solve, precision: int):
    """solve(prec) from `precision` up, doubling prec on PrecisionError.

    The one precision ladder of the solver: more bits are tried only
    after a certificate failed, and never beyond MAX_PRECISION.
    """
    prec = precision
    while True:
        try:
            return solve(prec)
        except PrecisionError:
            if prec >= MAX_PRECISION:
                raise
            prec = min(2 * prec, MAX_PRECISION)


def solve_numeric(coeffs, precision: int):
    """Roots of a numeric squarefree polynomial, doubling precision on failure."""
    return _escalate(lambda prec: aberth_roots(coeffs, prec), precision)


def univariate_roots(p: Polynomial, precision: int) -> list:
    """All complex roots with multiplicity of an exact univariate polynomial.

    p = z^k * rest with rest(0) != 0 is split exactly: 0 is a root of
    multiplicity k, the ball of radius 0 that the solver certifies for it.
    A rest a*z^n + b is squarefree as it stands; any other rest is split
    by the exact squarefree decomposition.  So the numeric stage only
    ever isolates simple nonzero roots.  The returned list of
    (ComplexBall, multiplicity) pairs is sorted by root center.
    """
    if p.is_zero():
        raise PolynomialError("cannot solve the zero polynomial")
    if len(p.variables) != 1:
        raise PolynomialError("univariate_roots expects one variable")
    if p.degree(p.variables[0]) < 1:
        raise PolynomialError("polynomial has no roots (degree 0)")
    dense = p.dense_coefficients()
    k = next(j for j, c in enumerate(dense) if not c.is_zero())
    rest = dense[k:]
    if len(rest) == 1:
        factors = []
    elif all(c.is_zero() for c in rest[1:-1]):
        factors = [(rest, 1)]
    else:
        rest = Polynomial(p.variables, {(j,): c for j, c in enumerate(rest)})
        factors = [(f.dense_coefficients(), m) for f, m in squarefree_decomposition(rest)]

    def solve(prec):
        out = [(ComplexBall(0, 0, prec), k)] if k else []
        for coeffs, mult in factors:
            for ball in aberth_roots(coeffs, prec):
                out.append((ball, mult))
        _check_cross_factor(out)
        return out

    out = _escalate(solve, precision)
    out.sort(key=lambda bm: ordering_key(bm[0].center))
    return out


def _check_cross_factor(balls_with_mult):
    for i in range(len(balls_with_mult)):
        for j in range(i + 1, len(balls_with_mult)):
            if not balls_with_mult[i][0].is_disjoint_from(balls_with_mult[j][0]):
                raise PrecisionError("roots of distinct factors overlap")
