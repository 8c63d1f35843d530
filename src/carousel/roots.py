"""Certified complex root solving.

A univariate polynomial with exact Gaussian-rational coefficients is
read for its exact structure first: the power z^k of the variable is
split off, 0 is a root of multiplicity k with a ball of radius 0, and
the rest is split into squarefree factors exactly (a rest a*z^n + b is
squarefree as it stands).  Each factor is then solved by
Aberth-Ehrlich simultaneous iteration in machine doubles.  Those
approximations are only a start: they are polished and certified in
Python integer arithmetic, and only where that one certificate refuses
them does the same iteration run in mpmath from a circle of start
points.  A numeric (mpc) coefficient is an exact dyadic number and a
Q(i) coefficient clears to a Gaussian integer, so p and p' are
evaluated exactly at dyadic points by homogeneous Horner.  Newton
steps on Gaussian integers refine each root, and the certificate is
Newton's inclusion disk: some root lies within n*|p(z)/p'(z)| of any z
(Henrici, Applied and Computational Complex Analysis I, 1974).  Its
radius is rounded up with `math.isqrt`, and n pairwise disjoint disks,
compared exactly, hold one root each.  The balls stay in integers
(`ComplexBall`): each center part is rounded to nearest with
precision + 32 bits, each radius up, and every test on a ball reads
the integers.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from fractions import Fraction
from math import isqrt, lcm

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero

from .gaussian import GaussianRational
from .poly import Polynomial, PolynomialError, _dense_in, squarefree_decomposition


class PrecisionError(ArithmeticError):
    """Raised when roots could not be certified at the allowed precision."""


# ceiling of every precision-doubling retry, in bits
MAX_PRECISION = 4096

# Aberth sweeps per solve, in doubles and again in mpmath
_MAX_ITERATIONS = 400


class ComplexBall:
    """A complex disk `|z - center| <= radius` at a known bit precision.

    Midpoint-radius form in integers (van der Hoeven, "Ball arithmetic",
    2010; Arb): `mid` = (re, im, exp) is the center (re + i*im)*2^exp,
    rounded to nearest, and `rad` = (man, exp) the radius man*2^exp,
    rounded up over that rounding.  Such tuples and int, float, complex,
    mpf or mpc values are read exactly; `center` and `radius` are exact views.
    """

    __slots__ = ("mid", "rad", "precision")

    def __init__(self, center, radius, precision: int):
        if precision < 53:
            raise ValueError("ball precision must be at least 53 bits")
        self.mid = center if type(center) is tuple else _exact_parts(center)
        man, im, exp = (radius[0], 0, radius[1]) if type(radius) is tuple else _exact_parts(radius)
        if im or man < 0:
            raise ValueError("ball radius must be finite and non-negative")
        self.rad = man, exp
        self.precision = precision

    @property
    def center(self):
        return _mpc(self.mid)

    @property
    def radius(self):
        return mp.make_mpf(from_man_exp(*self.rad))

    def is_disjoint_from(self, other: "ComplexBall") -> bool:
        """|center - other.center| > radius + other.radius, decided exactly."""
        return _apart(self.mid, other.mid, self.rad, other.rad)

    def __repr__(self):
        return f"ComplexBall({self.center}, r={mpmath.nstr(self.radius, 3)})"


def _apart(mid, mid2, rad, rad2=(0, 0)):
    """|mid - mid2| > rad + rad2 for centers and (man, exp) radii, on integers."""
    (x, y, e), (x2, y2, e2), (r, f), (r2, f2) = mid, mid2, rad, rad2
    g = min(e, e2, f, f2)
    dx, dy = (x << e - g) - (x2 << e2 - g), (y << e - g) - (y2 << e2 - g)
    r = (r << f - g) + (r2 << f2 - g)
    return dx * dx + dy * dy > r * r


def _exact_parts(z):
    """(re, im, exp) with z == (re + i*im)*2^exp: an int, float, complex,
    mpf or mpc read exactly, anything else through mpc."""
    if isinstance(z, (int, float, complex)):
        if not cmath.isfinite(z):
            raise ValueError("not a finite number")
        (a, p), (b, q) = (v.as_integer_ratio() for v in (z.real, z.imag))
        d = max(p, q)
        return a * (d // p), b * (d // q), 1 - d.bit_length()
    parts = (z._mpf_, fzero) if isinstance(z, mpf) else (z if isinstance(z, mpc) else mpc(z))._mpc_
    (re, im), exp = _dyadic_ints(parts)
    return re, im, exp


def _dyadic_ints(parts):
    """Integers m_k and one exponent e with parts[k] == m_k * 2^e exactly,
    for raw mpf tuples (sign, mantissa, exponent, bitcount)."""
    values = []
    for sign, man, exp, _ in parts:
        if not man and exp:
            raise ValueError("not a finite number")
        values.append((-man if sign else man, exp))
    e = min((exp for man, exp in values if man), default=0)
    return [man << (exp - e) if man else 0 for man, exp in values], e


def _quotient(num, den, prec):
    """num/den, den > 0, rounded to nearest with `prec` bits, ties to even,
    as (man, exp) with man odd or 0: mpmath's from_rational(num, den,
    prec, round_nearest) in integers."""
    if not num:
        return 0, 0
    a = abs(num)
    # a quotient of prec + 2 or prec + 3 bits, and whether it was exact
    shift = prec + 2 - a.bit_length() + den.bit_length()
    if shift >= 0:
        q, r = divmod(a << shift, den)
    else:
        q, r = divmod(a >> -shift, den)
        r = r or a & ((1 << -shift) - 1)
    drop = q.bit_length() - prec
    q = _shift_nearest(q, drop, r)
    zeros = (q & -q).bit_length() - 1
    return (-q if num < 0 else q) >> zeros, drop - shift + zeros


def _shift_nearest(n, k, inexact=0):
    """n/2^k rounded to the nearest integer, ties to even, for n >= 0 and
    k >= 1; `inexact` marks an n already truncated from below."""
    q, low, half = n >> k, n & ((1 << k) - 1), 1 << (k - 1)
    return q + (low > half or (low == half and bool(inexact or q & 1)))


def _rounded_center(re, im, den, prec):
    """The center (re + i*im)/den, each part rounded by `_quotient`."""
    (a, e), (b, f) = _quotient(re, den, prec), _quotient(im, den, prec)
    e, f = (e if a else f), (f if b else e)
    g = min(e, f)
    return a << e - g, b << f - g, g


def _round_up(man, exp, bits=53):
    """(man, exp), man >= 0, rounded up to at most `bits` bits."""
    drop = man.bit_length() - bits
    return (man, exp) if drop <= 0 else (-(-man >> drop), exp + drop)


def _dyadic_sum(*terms):
    """The exact sum of (man, exp) pairs."""
    g = min(f for _, f in terms)
    return sum(m << f - g for m, f in terms), g


def _sqrt_up(n):
    """ceil(sqrt(n)) for n < 2^200; above, an integer over sqrt(n) by at
    most 2^-99 relative, from the leading 200 bits of n."""
    k = max(0, n.bit_length() // 2 - 100)
    m = n >> 2 * k
    r = isqrt(m)
    return r + (r * r != m or m << 2 * k != n) << k


def _mpc(mid):
    """The mpc (re + i*im)*2^exp of a center (re, im, exp), exactly."""
    re, im, exp = mid
    return mp.make_mpc((from_man_exp(re, exp), from_man_exp(im, exp)))


def gaussian_to_mpc(value: GaussianRational) -> mpc:
    """An exact Q(i) value with each part rounded once, to nearest, to the
    working precision, however wide its numerator and denominator are."""
    return _mpc(_rounded_center(value.a, value.b, value.d, mp.prec))


def ordering_key(z) -> tuple:
    """Sort key by (real, imaginary), quantized to a 2^-40 grid, of a
    ComplexBall's center or of a number, read exactly.

    The coarse leading components make the ordering stable across working
    precisions (equal values quantize identically instead of being ranked
    by rounding noise); the exact values break the remaining ties.
    """
    mid = z.mid if isinstance(z, ComplexBall) else _exact_parts(z)
    return _grid_index(mid[0], mid[2]), _grid_index(mid[1], mid[2]), _ExactCenter(mid)


class _ExactCenter(tuple):
    """A center (re, im, exp) compared by its exact value, real part first."""

    __hash__ = None

    def value(self):
        re, im, exp = self
        return Fraction(re) * Fraction(2) ** exp, Fraction(im) * Fraction(2) ** exp

    def __eq__(self, other):
        return self.value() == other.value()

    def __lt__(self, other):
        return self.value() < other.value()


def _grid_index(man, exp):
    """The integer nearest man*2^(exp + 40), ties to even, as mpmath.nint."""
    m, shift = abs(man), exp + 40
    index = m << shift if shift >= 0 else _shift_nearest(m, -shift)
    return -index if man < 0 else index


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


def _aberth_iterate(monic, z, tol, nudge, gamma=None):
    """Gauss-Seidel Aberth-Ehrlich steps on z in place; True on convergence.

    Converged means that a sweep moved no point by more than `tol`
    (relative).  With `gamma`, a point whose |p(z_i)| is within gamma
    times the majorant polynomial at |z_i| (Higham, ch. 5) sits at the
    rounding floor and is not moved; a sweep that moves no point converges.
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
    the pass converges to finite approximations.  These are only a start:
    the integer Newton certificate alone decides, and a cluster that the
    doubles cannot resolve, where it refuses, is left to the mpmath start.
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
    return z if all(cmath.isfinite(w) for w in z) else None


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
    numbers, read exactly by `_exact_parts`; the balls enclose the roots
    of that exact polynomial.  Returns certified ComplexBall list sorted
    by `ordering_key`.  Raises PrecisionError when the integer certificate
    fails after the mpmath start, and at once for a multiple root at 0;
    this is a single attempt, solve_numeric is the one that escalates.
    """
    c = _gaussian_integers(coeffs)
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
    balls.sort(key=ordering_key)
    return balls


def _gaussian_integers(coeffs):
    """Gaussian integers (re, im) proportional to the exact coefficients:
    pairs as they are, Q(i) values times the lcm of their denominators."""
    if all(type(v) is tuple for v in coeffs):
        return list(coeffs)
    if all(type(v) is GaussianRational for v in coeffs):
        den = lcm(*(c.d for c in coeffs))
        return [(c.a * (den // c.d), c.b * (den // c.d)) for c in coeffs]
    parts = [_exact_parts(v) for v in coeffs]
    g = min(e for _, _, e in parts)
    return [(a << e - g, b << e - g) for a, b, e in parts]


def _newton_certificate(coeffs, start, precision):
    """Certified balls around the polished `start` points, or None.

    Each point is polished by `_newton_polish`; the ball around it has
    its center rounded to nearest with precision + 32 bits per part, and
    the inclusion radius n*|p(z)/p'(z)| plus the rounding of that center,
    rounded up to 53 bits.  None unless the n balls are pairwise
    disjoint, when they hold one root each.
    """
    n = len(coeffs) - 1
    wp = precision + 32
    balls = []
    for w in start:
        x, y, e = _exact_parts(w)
        if e > 0:
            x, y, e = x << e, y << e, 0
        polished = _newton_polish(coeffs, x, y, -e, precision)
        if polished is None:
            return None
        x, y, s, p2, d2 = polished
        # two units of the working precision in |Re| + |Im|: one covers
        # the rounding of the center, one any other rounding of the root
        slack = (abs(x) + abs(y), -(s + wp - 1))
        radius = _round_up(*_dyadic_sum(_inclusion_radius(n, p2, d2, s), slack))
        balls.append(ComplexBall(_rounded_center(x, y, 1 << s, wp), radius, precision))
    return balls if _pairwise_disjoint(balls) else None


def _pairwise_disjoint(balls):
    return all(a.is_disjoint_from(b) for a, b in itertools.combinations(balls, 2))


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
    """An upper bound (man, exp) of n*sqrt(p2/d2)/2^s, man of 31 bits."""
    num = n * n * p2
    if not num:
        return 0, 0
    t = 31 + s - (num.bit_length() - d2.bit_length()) // 2
    shift = 2 * (t - s)
    if shift >= 0:
        q = -(-(num << shift) // d2)
    else:
        q = -(-num // (d2 << -shift))
    return isqrt(q - 1) + 1, -t


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
    var = p.variables[0]
    if p.degree(var) < 1:
        raise PolynomialError("polynomial has no roots (degree 0)")
    dense = _dense_in(p, var)
    k = next(j for j, c in enumerate(dense) if c != (0, 0))
    rest = dense[k:]
    if len(rest) == 1:
        factors = []
    elif all(c == (0, 0) for c in rest[1:-1]):
        factors = [(rest, 1)]
    else:
        factors = [(_dense_in(f, var), m) for f, m in squarefree_decomposition(p.shift((-k,)))]

    def solve(prec):
        out = [(ComplexBall((0, 0, 0), (0, 0), prec), k)] if k else []
        for coeffs, mult in factors:
            for ball in aberth_roots(coeffs, prec):
                out.append((ball, mult))
        if not _pairwise_disjoint([ball for ball, _ in out]):
            raise PrecisionError("roots of distinct factors overlap")
        return out

    out = _escalate(solve, precision)
    out.sort(key=lambda bm: ordering_key(bm[0]))
    return out

