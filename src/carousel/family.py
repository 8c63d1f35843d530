"""One-parameter families f_t(x, y): critical points, conservation, coalescing.

For each parameter sample the critical points of f_t near the origin are
located by exact elimination (resultants plus certified univariate
solving); local Milnor numbers are read off the exact multiplicity
structure of the eliminant.  The conservation report compares the total
against mu(f_0); the coalescing verdict restricts to the zero fiber and
applies the uniqueness statement only when its hypothesis holds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mp, mpc, mpf

from .gaussian import GaussianRational
from .poly import Polynomial, poly_gcd, resultant
from .puiseux import milnor_number
from .roots import (ComplexBall, PrecisionError, aberth_roots, gaussian_to_mpc,
                    ordering_key, univariate_roots)


class FamilyError(ValueError):
    pass


DEFAULT_SAMPLES = (
    GaussianRational(Fraction(1, 8)),
    GaussianRational(0, Fraction(1, 8)),
    GaussianRational(Fraction(-1, 8)),
)


class FamilyGerm(
    NamedTuple(
        "FamilyGerm",
        [("F", Polynomial), ("t_samples", tuple), ("search_radius", Fraction)],
    )
):
    """F(x, y, t) with f_0 having an isolated critical point at the origin."""

    __slots__ = ()

    def __new__(cls, F: Polynomial, t_samples=DEFAULT_SAMPLES, search_radius=Fraction(1, 2)):
        if len(F.variables) != 3:
            raise FamilyError("family polynomial must use (x, y, t)")
        if not F.constant_term().is_zero():
            raise FamilyError("family does not vanish at the origin")
        samples = tuple(GaussianRational.from_value(s) for s in t_samples)
        if any(s.is_zero() for s in samples):
            raise FamilyError("parameter samples must be nonzero")
        search_radius = Fraction(search_radius)
        if search_radius <= 0:
            raise FamilyError("search radius must be positive")
        self = super().__new__(cls, F, samples, search_radius)
        f0 = self.slice(GaussianRational(0))
        if f0.is_zero():
            raise FamilyError("f_0 vanishes identically")
        fx = f0.partial_derivative("x")
        fy = f0.partial_derivative("y")
        if fx.is_zero() and fy.is_zero():
            raise FamilyError("f_0 is constant")
        if fx.is_zero() or fy.is_zero():
            other = fy if fx.is_zero() else fx
            if other.constant_term().is_zero():
                raise FamilyError("f_0 has a non-isolated critical point")
        else:
            g = poly_gcd(fx, fy)
            if not g.is_constant() and g.constant_term().is_zero():
                raise FamilyError("f_0 has a non-isolated critical point")
        return self

    def slice(self, t_value) -> Polynomial:
        return self.F.eliminate_variable("t", GaussianRational.from_value(t_value))


class CriticalPoint(NamedTuple):
    x: ComplexBall
    y: ComplexBall
    local_mu: int
    value: ComplexBall
    on_zero_fiber: bool
    inside: bool


class CriticalRecord(NamedTuple):
    t: GaussianRational
    points: tuple
    total_mu: int
    points_outside: int


def critical_points(family: FamilyGerm, t_value, precision: int = 128) -> CriticalRecord:
    """All critical points of f_t with modulus below the search radius.

    local_mu comes from the exact multiplicity structure of the
    eliminant; a shear change of coordinates disambiguates grid-aligned
    configurations.
    """
    t_value = GaussianRational.from_value(t_value)
    if t_value.is_zero():
        raise FamilyError("use a nonzero parameter value")
    f = family.slice(t_value)
    fx, fy = f.partial_derivative("x"), f.partial_derivative("y")
    with mp.workprec(precision + 32):
        raw = _system_roots(f, fx, fy, precision)
        numeric = [_numeric_terms(g) for g in (f, fx, fy)]
        radius = mpf(family.search_radius.numerator) / family.search_radius.denominator
        points = []
        outside = 0
        total = 0
        for bx, by, mu in raw:
            modulus = mpmath.sqrt(abs(bx.center) ** 2 + abs(by.center) ** 2)
            inside = modulus < radius
            value = _value_ball(numeric, bx, by, precision)
            on_zero = abs(value.center) <= max(value.radius, mpf(2) ** (-(precision // 2)))
            points.append(
                CriticalPoint(
                    x=bx, y=by, local_mu=mu, value=value, on_zero_fiber=on_zero,
                    inside=inside,
                )
            )
            if inside:
                total += mu
            else:
                outside += 1
        points.sort(key=_point_key)
        return CriticalRecord(
            t=t_value, points=tuple(points), total_mu=total, points_outside=outside
        )


def _point_key(point):
    # quantized coordinates first, so that rounding noise in the centers
    # never decides the order of points that agree to 2^-40
    kx, ky = ordering_key(point.x.center), ordering_key(point.y.center)
    return kx[:2] + ky[:2] + kx[2:] + ky[2:]


def _value_ball(numeric, bx, by, precision):
    """f at the point and a radius over the point's balls; `numeric` holds
    the terms of f, f_x and f_y from `_numeric_terms`."""
    f, fx, fy = numeric
    xs = _powers(bx.center, max(i for i, _, _ in f))
    ys = _powers(by.center, max(j for _, j, _ in f))
    center = _eval_numeric(f, xs, ys)
    gx = abs(_eval_numeric(fx, xs, ys))
    gy = abs(_eval_numeric(fy, xs, ys))
    slack = 2 * (gx + gy + 1) * max(bx.radius, by.radius) + (abs(center) + 1) * mpf(2) ** (
        -(precision - 8)
    )
    return ComplexBall(center, slack, precision)


def _numeric_terms(f):
    """The terms of f as (i, j, coefficient) at the working precision."""
    return [(i, j, gaussian_to_mpc(c)) for (i, j), c in f.terms.items()]


def _powers(z, top):
    out = [mpc(1)]
    for _ in range(top):
        out.append(out[-1] * z)
    return out


def _eval_numeric(terms, xs, ys):
    acc = mpc(0)
    for i, j, c in terms:
        acc += c * xs[i] * ys[j]
    return acc


def _system_roots(f, p, q, precision):
    """Common roots of (p, q) = (df/dx, df/dy) with exact multiplicities."""
    if p.is_zero() or q.is_zero():
        raise FamilyError("degenerate slice: a partial derivative vanishes identically")
    g = poly_gcd(p, q)
    if not g.is_constant():
        raise FamilyError("non-isolated critical locus at this parameter")
    for lam in (0, 1, -1, 2, 3):
        try:
            if lam == 0:
                return _system_roots_plain(p, q, precision)
            sheared = _shear(f, lam)
            roots = _system_roots_plain(
                sheared.partial_derivative("x"),
                sheared.partial_derivative("y"),
                precision,
            )
            out = []
            for bx, by, mu in roots:
                x_orig = bx.center + lam * by.center
                r = bx.radius + abs(lam) * by.radius
                out.append((ComplexBall(x_orig, r, precision), by, mu))
            return out
        except _Ambiguous:
            continue
    raise FamilyError("could not disambiguate the critical configuration")


class _Ambiguous(Exception):
    pass


def _shear(f, lam):
    xs = Polynomial.variable(f.variables, "x")
    ys = Polynomial.variable(f.variables, "y")
    return f.substitute({"x": xs + ys.scale(GaussianRational(lam)), "y": ys})


def _system_roots_plain(p, q, precision):
    px, py = p.degree("x"), p.degree("y")
    qx, qy = q.degree("x"), q.degree("y")
    # pure separated system: exact cross product
    if py == 0 and qx == 0:
        return _cross_product(p, q, precision)
    if px == 0 and qy == 0:
        return _cross_product(q, p, precision)
    if py >= 1 and qy >= 1:
        eliminant = resultant(p, q, "y")
        if eliminant.is_zero():
            raise FamilyError("elimination collapsed: common factor in the gradient")
        return _points_from_eliminant(p, q, eliminant, precision)
    raise _Ambiguous  # mixed degenerate shapes: shear and retry


def _cross_product(p, q, precision):
    xroots = _exact_univariate_roots(p, "x", precision)
    yroots = _exact_univariate_roots(q, "y", precision)
    out = []
    for bx, mx in xroots:
        for by, my in yroots:
            out.append((bx, by, mx * my))
    return out


def _exact_univariate_roots(p, var, precision):
    terms = {}
    idx = 0 if var == "x" else 1
    for exps, c in p.terms.items():
        terms[(exps[idx],)] = c
    uni = Polynomial((var,), terms)
    if uni.degree(var) < 1:
        return []
    return univariate_roots(uni, precision)


def _points_from_eliminant(p, q, eliminant, precision):
    out = []
    for ball, mult in _exact_univariate_roots(eliminant, "x", precision):
        ys = _fiber_point(p, q, ball, precision)
        if len(ys) == 1:
            out.append((ball, ys[0], mult))
        elif len(ys) == 0:
            continue  # spurious eliminant root (leading-coefficient artifact)
        else:
            raise _Ambiguous  # several points share this x: shear separates
    return out


def _fiber_point(p, q, xball, precision):
    """Common y-roots above a fixed x, as certified balls."""
    x0 = xball.center
    tol = mpf(2) ** (-(precision // 3))

    def at_x(poly):
        coeffs = {}
        for (i, j), c in poly.terms.items():
            coeffs[j] = coeffs.get(j, mpc(0)) + gaussian_to_mpc(c) * x0**i
        top = max(coeffs) if coeffs else 0
        return [coeffs.get(k, mpc(0)) for k in range(top + 1)]

    pc = at_x(p)
    qc = at_x(q)
    candidates = []
    for coeffs, other in ((qc, pc), (pc, qc)):
        scale = max([abs(c) for c in coeffs] + [mpf(1)])
        trimmed = list(coeffs)
        while len(trimmed) > 1 and abs(trimmed[-1]) <= scale * mpf(2) ** (-(precision // 2)):
            trimmed.pop()
        if len(trimmed) <= 1:
            continue
        try:
            roots = aberth_roots(trimmed, precision)
        except PrecisionError:
            # a cluster is left to the shear retry, not to more bits
            raise _Ambiguous
        other_scale = max([abs(c) for c in other] + [mpf(1)])
        for b in roots:
            val = mpc(0)
            for c in reversed(other):
                val = val * b.center + c
            if abs(val) <= tol * other_scale:
                candidates.append(b)
        break
    merged = []
    for b in candidates:
        if all(abs(b.center - m.center) > tol for m in merged):
            merged.append(b)
    return merged


class ConservationReport(NamedTuple):
    family: FamilyGerm
    mu_origin: int
    records: tuple
    conserved: tuple
    all_conserved: bool


def conservation_check(family: FamilyGerm, precision: int = 128) -> ConservationReport:
    """Compare the summed local Milnor numbers against mu(f_0) per sample."""
    mu0 = milnor_number(family.slice(GaussianRational(0)), precision=precision)
    records = []
    flags = []
    for t_value in family.t_samples:
        record = critical_points(family, t_value, precision)
        records.append(record)
        flags.append(record.total_mu == mu0)
    return ConservationReport(
        family=family,
        mu_origin=mu0,
        records=tuple(records),
        conserved=tuple(flags),
        all_conserved=all(flags),
    )


class CoalescingVerdict(NamedTuple):
    status: str  # CONSISTENT | VIOLATION | NOT_APPLICABLE
    hypothesis_holds: bool
    zero_fiber_mu: tuple
    zero_fiber_counts: tuple
    mu_origin: int
    note: str


def coalescing_verdict(
    family: FamilyGerm,
    report: ConservationReport | None = None,
    precision: int = 128,
) -> CoalescingVerdict:
    """Uniqueness of the zero-fiber critical point under exact mu-constancy.

    The uniqueness assertion is made only when the zero-fiber Milnor sum
    equals mu(f_0) at every sample; otherwise the verdict is
    NOT_APPLICABLE.  A hypothesis that holds with several zero-fiber
    points is reported as VIOLATION, never repaired.
    """
    if report is None:
        report = conservation_check(family, precision)
    sums = []
    counts = []
    for record in report.records:
        group = [p for p in record.points if p.inside and p.on_zero_fiber]
        sums.append(sum(p.local_mu for p in group))
        counts.append(len(group))
    hypothesis = all(s == report.mu_origin for s in sums)
    if not hypothesis:
        status = "NOT_APPLICABLE"
        note = (
            "zero-fiber Milnor sum differs from mu(f_0) at some sample; "
            "the uniqueness statement does not apply"
        )
    elif all(c == 1 for c in counts):
        status = "CONSISTENT"
        note = "constant zero-fiber Milnor sum and a unique critical point on it"
    else:
        status = "VIOLATION"
        note = (
            "constant zero-fiber Milnor sum but several zero-fiber critical "
            "points: numerical or hypothesis failure, reported as evidence"
        )
    return CoalescingVerdict(
        status=status,
        hypothesis_holds=hypothesis,
        zero_fiber_mu=tuple(sums),
        zero_fiber_counts=tuple(counts),
        mu_origin=report.mu_origin,
        note=note,
    )
