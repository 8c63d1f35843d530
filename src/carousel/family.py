"""One-parameter families f_t(x, y): critical points, conservation, coalescing.

For each parameter sample the critical points of f_t near the origin are
located by exact elimination (resultants plus certified univariate
solving).  A root of R = Res_y(f_x, f_y) carries one point, whose local
Milnor number is the root's multiplicity, where the y-leading
coefficients of f_x and f_y have no common root and the subresultant
sequence of R ends in a1(x) y + a0(x) with gcd(a1, R) = 1: the point is
y = -a0/a1 above the root.  Every other frame goes to the one fallback,
a shear x = x' + lam*y.  Balls are integers (`ComplexBall.mid` and
`rad`), never mpmath: -a0/a1 at a dyadic x center gives the y ball,
carrying the x radius to first order, and f's rows there (homogeneous
Horner) the value ball, each center rounded once to nearest from its
exact value and each radius up.  The conservation report
compares the total against mu(f_0); the coalescing verdict restricts to
the zero fiber and applies the uniqueness statement only when its
hypothesis holds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .gaussian import GaussianRational
from .poly import Polynomial, _dense_in, _eliminant, poly_gcd
from .puiseux import PuiseuxError, milnor_number
from .roots import (ComplexBall, _apart, _dyadic_sum, _homogeneous_horner, _round_up,
                    _rounded_center, _sqrt_up, ordering_key, univariate_roots)


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
        [("F", Polynomial), ("t_samples", tuple), ("search_radius", Fraction),
         ("mu_origin", int)],
    )
):
    """F(x, y, t) whose f_0 passes the reducedness gate of `puiseux`.

    An isolated critical point of f_0 is not enough: `mu_origin` = mu(f_0)
    is computed once, here, by `milnor_number`, whose first step is that
    gate; it refuses a unit germ and a repeated factor, as in (1 + x)^2*y.
    """

    __slots__ = ()

    def __new__(cls, F: Polynomial, t_samples=DEFAULT_SAMPLES, search_radius=Fraction(1, 2)):
        if len(F.variables) != 3:
            raise FamilyError("family polynomial must use (x, y, t)")
        samples = tuple(GaussianRational.from_value(s) for s in t_samples)
        if any(s.is_zero() for s in samples):
            raise FamilyError("parameter samples must be nonzero")
        search_radius = Fraction(search_radius)
        if search_radius <= 0:
            raise FamilyError("search radius must be positive")
        f0 = F.eliminate_variable("t", GaussianRational(0))
        try:
            mu = milnor_number(f0)
        except PuiseuxError as exc:
            raise FamilyError(f"f_0 = {f0}: {exc}") from exc
        return super().__new__(cls, F, samples, search_radius, mu)

    def __getnewargs__(self):
        # copies are rebuilt from the parameters; mu_origin is derived
        return self[:3]

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
    eliminant where it counts the finite points alone; a shear change of
    coordinates disambiguates every other configuration.
    """
    t_value = GaussianRational.from_value(t_value)
    if t_value.is_zero():
        raise FamilyError("use a nonzero parameter value")
    points = [
        CriticalPoint(x=bx, y=by, local_mu=mu, value=value, on_zero_fiber=_on_zero_fiber(value),
                      inside=_inside(_dyadic(bx), _dyadic(by), family.search_radius))
        for bx, by, mu, value in _system_roots(family.slice(t_value), precision)
    ]
    points.sort(key=_point_key)
    return CriticalRecord(
        t=t_value, points=tuple(points),
        total_mu=sum(p.local_mu for p in points if p.inside),
        points_outside=sum(not p.inside for p in points),
    )


def _point_key(point):
    # quantized coordinates first, so that rounding noise in the centers
    # never decides the order of points that agree to 2^-40
    kx, ky = ordering_key(point.x), ordering_key(point.y)
    return kx[:2] + ky[:2] + kx[2:] + ky[2:]


def _dyadic(ball):
    """(a, b, s) with the ball's center (a + bi)/2^s exactly and s >= 0."""
    a, b, e = ball.mid
    return (a << e, b << e, 0) if e > 0 else (a, b, -e)


def _on_zero_fiber(value):
    # |center| <= max(radius, 2^-(precision/2)), on integers
    floor = (1, -(value.precision // 2))
    return not (_apart(value.mid, (0, 0, 0), value.rad) and _apart(value.mid, (0, 0, 0), floor))


def _inside(x, y, radius):
    """|x|^2 + |y|^2 < radius^2 for `_dyadic` points, decided on integers."""
    (a, b, s), (c, d, u) = x, y
    m = max(s, u)
    n2 = (a * a + b * b << 2 * (m - s)) + (c * c + d * d << 2 * (m - u))
    return n2 * radius.denominator**2 < radius.numerator**2 << 2 * m


def _xy_rows(poly):
    """(den, dx, rows): rows[j][i] is den times the coefficient of x^i y^j as
    a Gaussian integer (re, im), den the common denominator, dx the degree in x."""
    rows = [[(0, 0)] for _ in range(poly.degree("y") + 1)]
    for (i, j), c in poly.nums.items():
        rows[j] += [(0, 0)] * (i + 1 - len(rows[j]))
        rows[j][i] = c
    return poly.den, poly.degree("x"), rows


def _at_x(poly_rows, a, b, s):
    """The y-coefficients of p(x_c, y) and p_x(x_c, y) at x_c = (a + bi)/2^s,
    as Gaussian integers: unit = den 2^(s dx) times the exact values.
    Each row is shifted from 2^(s deg row) to that one power of two."""
    den, dx, rows = poly_rows
    values, ders = [], []
    for row in rows:
        shift = s * (dx + 1 - len(row))
        pr, pi, dr, di = _homogeneous_horner(row, a, b, s)
        values.append((pr << shift, pi << shift))
        ders.append((dr << shift + s, di << shift + s))
    return values, ders, den << s * dx


def _at_y(values, ders, c, d, u):
    """p, p_x and p_y at y_c = (c + di)/2^u from the rows of `_at_x`, as
    Gaussian integers: the rows' unit times 2^(u n), n = len(values) - 1."""
    pr, pi, dr, di = _homogeneous_horner(values, c, d, u)
    xr, xi = _homogeneous_horner(ders, c, d, u)[:2]
    return (pr, pi), (xr, xi), (dr << u, di << u)


def _value_ball(at, y, radii, precision):
    """f at the x center of `at`, which is `_at_x` of f's rows there, and
    the `_dyadic` center y, each part rounded once from its exact value,
    with a radius over balls of the largest of the (man, exp) `radii`,
    rounded up."""
    values, ders, unit = at
    unit <<= y[2] * (len(values) - 1)
    v, vx, vy = _at_y(values, ders, *y)
    # 2 (|f_x| + |f_y| + 1) r + (|f| + 1) 2^-(precision - 8), times unit
    # 2^100, each modulus rounded up there
    g = min(8 - precision, *(e for _, e in radii))
    r = max(m << e - g for m, e in radii)
    sx, sy, sv = (_sqrt_up(_norm(w) << 200) for w in (vx, vy, v))
    one = unit << 100
    num = 2 * (sx + sy + one) * r + (sv + one << 8 - precision - g)
    return ComplexBall(_rounded_center(*v, unit, precision + 32),
                       _quotient_up(num, unit, g - 100), precision)


def _quotient_up(num, den, exp, bits=53):
    """An upper bound (man, exp) of num*2^exp/den with `bits` bits or fewer."""
    k = max(0, bits + den.bit_length() - num.bit_length())
    return _round_up(-(-(num << k) // den), exp - k, bits)


def _system_roots(f, precision):
    """(x, y, multiplicity, value) balls of the common roots of f_x and f_y."""
    p, q = _gradient(f)
    if p.is_zero() or q.is_zero():
        raise FamilyError("degenerate slice: a partial derivative vanishes identically")
    if not poly_gcd(p, q).is_constant():
        raise FamilyError("non-isolated critical locus at this parameter")
    for lam in (0, 1, -1, 2, 3):
        frame = _shear(f, lam) if lam else f
        try:
            roots = _system_roots_plain(frame, *(_gradient(frame) if lam else (p, q)), precision)
        except _Ambiguous:
            continue
        if not lam:
            return roots
        out = []
        for bx, by, mu, value in roots:
            # x = x' + lam*y and its radius, exactly; f has the same value
            # at (x, y) as the sheared f at (x', y)
            (a, b, e), (c, d, h) = bx.mid, by.mid
            g = min(e, h)
            x = ((a << e - g) + lam * (c << h - g), (b << e - g) + lam * (d << h - g), g)
            r = _dyadic_sum(bx.rad, (abs(lam) * by.rad[0], by.rad[1]))
            out.append((ComplexBall(x, r, precision), by, mu, value))
        return out
    raise FamilyError("could not disambiguate the critical configuration")


class _Ambiguous(Exception):
    pass


def _gradient(f):
    return f.partial_derivative("x"), f.partial_derivative("y")


def _shear(f, lam):
    xs = Polynomial.variable(f.variables, "x")
    ys = Polynomial.variable(f.variables, "y")
    return f.substitute({"x": xs + ys.scale(GaussianRational(lam)), "y": ys})


def _system_roots_plain(f, p, q, precision):
    """The critical points of f, whose gradient is (p, q), in this frame,
    or _Ambiguous.

    A separated gradient is a cross product.  Otherwise a root of
    R = Res_y(f_x, f_y) of multiplicity mu carries one point of Milnor
    number mu where the y-leading coefficients of f_x and f_y have no
    common root (Fulton, Algebraic Curves, 1969) and the sequence that
    gives R ends in a1 y + a0 = U f_x + V f_y with gcd(a1, R) = 1: by the
    specialization property of subresultants (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, ch. 8) the one point above a
    root x0 is y0 = -a0(x0)/a1(x0).  Anything else is ambiguous.
    """
    rows = _xy_rows(f)
    out = []
    for in_x, in_y in ((p, q), (q, p)):
        if in_x.degree("y") == 0 and in_y.degree("x") == 0:
            ys = _exact_univariate_roots(in_y, "y", precision)
            for bx, mx in _exact_univariate_roots(in_x, "x", precision):
                at = _at_x(rows, *_dyadic(bx))
                out += [(bx, by, mx * my, _value_ball(at, _dyadic(by), (bx.rad, by.rad), precision))
                        for by, my in ys]
            return out
    # the resultant needs both partials of positive degree in y
    if min(p.degree("y"), q.degree("y")) < 1 or not _leads_coprime(p, q):
        raise _Ambiguous
    R, last = _eliminant(p, q, "y")
    if len(last) != 2 or not poly_gcd(last[1], R).is_constant():
        raise _Ambiguous
    for bx, mu in _exact_univariate_roots(R, "x", precision):
        by = _lift(*last, bx, precision)
        at = _at_x(rows, *_dyadic(bx))
        out.append((bx, by, mu, _value_ball(at, _dyadic(by), (bx.rad, by.rad), precision)))
    return out


def _leads_coprime(p, q):
    """Whether the y-leading coefficients of p and q, polynomials in x,
    have no common root: one is a nonzero constant, or their gcd is."""
    leads = []
    for g in (p, q):
        d = g.degree("y")
        lead = {(i, 0): GaussianRational(*c) for (i, j), c in g.nums.items() if j == d}
        if list(lead) == [(0, 0)]:
            return True
        leads.append(Polynomial(g.variables, lead))
    return poly_gcd(*leads).is_constant()


def _exact_univariate_roots(p, var, precision):
    if p.degree(var) < 1:
        return []
    return univariate_roots(p.in_variables((var,)), precision)


def _lift(a0, a1, xball, precision):
    """The y ball of y = -a0/a1 over the x ball, or _Ambiguous where a1
    vanishes at the x center x_c: Y = -a0/a1 is evaluated exactly at x_c,
    each part rounded once to nearest with precision + 32 bits, and the
    radius covers that rounding and |Y'(x_c)| r_x (1 + 2^-20), the
    first-order move of Y over the x ball, rounded up."""
    a, b, s = _dyadic(xball)
    rows = [_dense_in(c, "x") for c in (a0, a1)]
    n = max(map(len, rows))
    # 2^(s(n-1)) times a_k(x_c) and 2^(s(n-2)) times a_k'(x_c)
    (p0r, p0i, d0r, d0i), (p1r, p1i, d1r, d1i) = (
        _homogeneous_horner(r + [(0, 0)] * (n - len(r)), a, b, s) for r in rows)
    n1 = p1r * p1r + p1i * p1i
    if not n1:
        raise _Ambiguous
    # Y = -(P0/den0)/(P1/den1) = -den1 P0 conj(P1)/(den0 |P1|^2)
    den = a0.den * n1
    mid = _rounded_center(-a1.den * (p0r * p1r + p0i * p1i),
                          -a1.den * (p0i * p1r - p0r * p1i), den, precision + 32)
    # two units of precision + 32 bits in |Re| + |Im| cover the rounding
    slack = (abs(mid[0]) + abs(mid[1]), mid[2] - precision - 31)
    # |Y'| = 2^s den1 |D0 P1 - P0 D1|/(den0 |P1|^2), times r_x (1 + 2^-20),
    # rounded up to 100 bits
    w = _norm((d0r * p1r - d0i * p1i - p0r * d1r + p0i * d1i,
               d0r * p1i + d0i * p1r - p0r * d1i - p0i * d1r))
    m, e = xball.rad
    num = _sqrt_up(w << 200) * a1.den * m * ((1 << 20) + 1)
    widen = _quotient_up(num, den, e + s - 120, 100)
    return ComplexBall(mid, _round_up(*_dyadic_sum(slack, widen)), precision)


def _norm(c):
    """|c|^2 of a Gaussian integer (re, im, ...)."""
    return c[0] * c[0] + c[1] * c[1]


class ConservationReport(NamedTuple):
    family: FamilyGerm
    mu_origin: int
    records: tuple
    conserved: tuple
    all_conserved: bool


def conservation_check(family: FamilyGerm, precision: int = 128) -> ConservationReport:
    """Compare the summed local Milnor numbers per sample against mu(f_0),
    `family.mu_origin`, computed once with the family."""
    records = tuple(critical_points(family, t, precision) for t in family.t_samples)
    flags = tuple(record.total_mu == family.mu_origin for record in records)
    return ConservationReport(
        family=family,
        mu_origin=family.mu_origin,
        records=records,
        conserved=flags,
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
    family: FamilyGerm, report: ConservationReport | None = None
) -> CoalescingVerdict:
    """Uniqueness of the zero-fiber critical point under exact mu-constancy.

    The uniqueness assertion is made only when the zero-fiber Milnor sum
    equals mu(f_0) at every sample; otherwise the verdict is
    NOT_APPLICABLE.  A hypothesis that holds with several zero-fiber
    points is reported as VIOLATION, never repaired.
    """
    if report is None:
        report = conservation_check(family)
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
