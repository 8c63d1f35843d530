"""Certified complex root solving.

Univariate polynomials with exact Gaussian-rational coefficients are
split into squarefree factors exactly, then each factor is solved by
Aberth-Ehrlich simultaneous iteration at a chosen bit precision, started
from a pass of the same iteration in machine doubles.  The a-posteriori
certificate is the Weierstrass-style bound: the disks around the
approximations with radius n*(|p(z)| + e)/|prod(z - z_j)| cover the
roots, where e bounds the rounding error of evaluating p(z), and
pairwise disjoint disks isolate exactly one root each.
"""

from __future__ import annotations

import cmath

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, round_nearest

from .gaussian import GaussianRational
from .poly import Polynomial, PolynomialError


class PrecisionError(ArithmeticError):
    """Raised when roots could not be certified at the allowed precision."""


# ceiling of every precision-doubling retry, in bits
MAX_PRECISION = 4096

# Aberth sweeps per solve, in doubles and again in mpmath
_MAX_ITERATIONS = 400


class ComplexBall:
    """A complex disk `|z - center| <= radius` at a known bit precision."""

    __slots__ = ("center", "radius", "precision")

    def __init__(self, center, radius, precision: int):
        if precision < 53:
            raise ValueError("ball precision must be at least 53 bits")
        self.center = mpc(center)
        self.radius = mpf(radius)
        if not mpmath.isfinite(self.radius) or self.radius < 0:
            raise ValueError("ball radius must be finite and non-negative")
        self.precision = precision

    def is_disjoint_from(self, other: "ComplexBall") -> bool:
        return abs(self.center - other.center) > self.radius + other.radius

    def __repr__(self):
        return f"ComplexBall({self.center}, r={mpmath.nstr(self.radius, 3)})"


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


_ORDER_GRID = 1 << 40


def ordering_key(z) -> tuple:
    """Sort key by (real, imaginary), quantized to a 2^-40 grid.

    The coarse leading components make the ordering stable across
    different working precisions (mathematically equal values quantize
    identically instead of being ranked by rounding noise); the exact
    values break remaining ties deterministically within a run.
    """
    z = mpc(z)
    return (
        int(mpmath.nint(z.real * _ORDER_GRID)),
        int(mpmath.nint(z.imag * _ORDER_GRID)),
        z.real,
        z.imag,
    )


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
# get there, and one mpmath step then reaches full precision
_DOUBLE_TOL = 2.0 ** -44


def _double_start(monic, start):
    """`start` refined by Aberth in complex doubles, or None.

    None unless every coefficient converts to a finite double without
    underflow and the pass converges to finite approximations that the
    Weierstrass radii, rounding error included, already isolate.  A
    cluster that doubles cannot resolve keeps the circle start.
    """
    coeffs = []
    for c in monic:
        d = complex(c)
        if not cmath.isfinite(d) or (c != 0 and abs(d) < 2.0 ** -1000):
            return None
        coeffs.append(d)
    z = [complex(w) for w in start]
    if not _aberth_iterate(coeffs, z, _DOUBLE_TOL, 1e-6):
        return None
    if not all(cmath.isfinite(w) for w in z):
        return None
    if _inclusion_radii(coeffs, z, 2.0 ** -53) is None:
        return None
    return [mpc(w) for w in z]


def aberth_roots(coeffs, precision: int):
    """All roots of a squarefree numeric polynomial (dense mpc list, low first).

    Returns certified ComplexBall list sorted by (re, im) of the centers.
    Raises PrecisionError when the certificates fail to separate roots;
    this is a single attempt, solve_numeric is the one that escalates.
    """
    with mp.workprec(precision + 32):
        c = [mpc(v) for v in coeffs]
        while c and abs(c[-1]) == 0:
            c.pop()
        if len(c) <= 1:
            return []
        n = len(c) - 1
        lead = c[-1]
        monic = [v / lead for v in c]
        if n == 1:
            z = -monic[0]
            return [ComplexBall(z, mpf(2) ** (-precision) * (1 + abs(z)), precision)]
        # initial guesses on a circle scaled by the Cauchy bound,
        # slightly rotated to break symmetric stalls deterministically
        radius = 1 + max(abs(v) for v in monic[:-1])
        z = [
            radius * mpmath.exp(2j * mpmath.pi * (mpf(k) / n) + 0.4j)
            for k in range(n)
        ]
        z = _double_start(monic, z) or z
        tol = mpf(2) ** (-(precision + 16))
        gamma = error_factor(4 * (n + 1), mpf(2) ** (-(precision + 32)))
        _aberth_iterate(monic, z, tol, mpf(10) ** (-6), gamma)
        balls = _certify(monic, z, precision)
        balls.sort(key=lambda b: ordering_key(b.center))
        return balls


def _certify(monic, z, precision):
    radii = _inclusion_radii(monic, z, mpf(2) ** (-(precision + 32)))
    if radii is None:
        raise PrecisionError("root disks overlap; raise precision")
    return [ComplexBall(w, r, precision) for w, r in zip(z, radii)]


def _inclusion_radii(monic, z, unit):
    """Weierstrass radii n*(|p(z_i)| + e_i)/|prod_j (z_i - z_j)|, or None.

    e_i bounds the rounding error of p(z_i) at unit roundoff `unit`, so
    the disks cover the roots; None unless they are pairwise disjoint.
    """
    n = len(z)
    # rounding of the monic coefficients and of Horner
    gamma = error_factor(4 * (n + 1), unit)
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

    Multiplicities come from the exact squarefree decomposition, so the
    numeric stage only ever isolates simple roots.  The returned list of
    (ComplexBall, multiplicity) pairs is sorted by root center.
    """
    from .poly import squarefree_decomposition

    if p.is_zero():
        raise PolynomialError("cannot solve the zero polynomial")
    if len(p.variables) != 1:
        raise PolynomialError("univariate_roots expects one variable")
    if p.degree(p.variables[0]) < 1:
        raise PolynomialError("polynomial has no roots (degree 0)")
    factors = squarefree_decomposition(p)

    def solve(prec):
        with mp.workprec(prec + 32):
            out = []
            for factor, mult in factors:
                if factor.degree(factor.variables[0]) < 1:
                    continue
                coeffs = [gaussian_to_mpc(c) for c in factor.dense_coefficients()]
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
