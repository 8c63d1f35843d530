"""One-parameter families f_t(x, y): critical points, conservation, coalescing.

For each parameter sample the critical points of f_t near the origin are
located by exact elimination (resultants plus certified univariate
solving).  A root of Res_y(f_x, f_y) carries one point, whose local
Milnor number is the root's multiplicity: the eliminant is read only
where the y-leading coefficients of f_x and f_y have no common root, and
every other frame goes to the one fallback, a shear x = x' + lam*y.
Balls are integers (`ComplexBall.mid` and `rad`), never mpmath: one
exact evaluation of f's rows at a dyadic x center (homogeneous Horner)
gives the fibers of f, f_x and f_y, from which the y ball, carrying the
x radius to first order, and the value ball are built, each center
rounded once to nearest and each radius up.  The conservation report
compares the total against mu(f_0); the coalescing verdict restricts to
the zero fiber and applies the uniqueness statement only when its
hypothesis holds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .gaussian import GaussianRational
from .poly import Polynomial, poly_gcd, resultant
from .puiseux import PuiseuxError, milnor_number
from .roots import (ComplexBall, PrecisionError, _apart, _dyadic_sum, _homogeneous_horner,
                    _round_up, _rounded_center, _sqrt_up, aberth_roots, ordering_key,
                    univariate_roots)


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
    p, q = f.partial_derivative("x"), f.partial_derivative("y")
    if p.is_zero() or q.is_zero():
        raise FamilyError("degenerate slice: a partial derivative vanishes identically")
    if not poly_gcd(p, q).is_constant():
        raise FamilyError("non-isolated critical locus at this parameter")
    for lam in (0, 1, -1, 2, 3):
        try:
            roots = _system_roots_plain(_shear(f, lam) if lam else f, precision)
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


def _shear(f, lam):
    xs = Polynomial.variable(f.variables, "x")
    ys = Polynomial.variable(f.variables, "y")
    return f.substitute({"x": xs + ys.scale(GaussianRational(lam)), "y": ys})


def _system_roots_plain(f, precision):
    """The critical points of f in this frame, or _Ambiguous.

    A separated gradient is a cross product.  Otherwise a root of
    Res_y(f_x, f_y) of multiplicity mu carries one point of Milnor number
    mu where the y-leading coefficients of f_x and f_y have no common
    root (Fulton, Algebraic Curves, 1969); anything else is ambiguous.
    """
    p, q = f.partial_derivative("x"), f.partial_derivative("y")
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
    for bx, mu in _exact_univariate_roots(resultant(p, q, "y"), "x", precision):
        at = _at_x(rows, *_dyadic(bx))
        by = _fiber_point(at, bx, precision)
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


def _fiber_point(at, xball, precision):
    """The one common root y above the x center, a certified ball, or _Ambiguous.

    `at` is `_at_x` of f's rows at x_c; their y-derivatives are the
    fibers of f_y and f_xy.  Of the roots of f_y(x_c, y), exactly one
    must pass the filter on f_x.  Its ball is widened by |f_xy/f_yy| times
    the x radius, the first-order move of that root over the x ball.
    """
    values, ders, unit = at
    fy = [(k * a, k * b) for k, (a, b) in enumerate(values)][1:]
    fxy = [(k * a, k * b) for k, (a, b) in enumerate(ders)][1:]
    # |c| <= scale 2^-(precision/2), scale = max(|c_j|, 1), on squared integers
    scale = max(max(map(_norm, fy)), unit * unit)
    trimmed = list(fy)
    while len(trimmed) > 1 and _norm(trimmed[-1]) << 2 * (precision // 2) <= scale:
        trimmed.pop()
    if len(trimmed) <= 1:
        raise _Ambiguous
    # the power of two common to the coefficients moves no root
    v = min(((a | b) & -(a | b)).bit_length() for a, b in trimmed if a or b) - 1
    try:
        roots = aberth_roots([(a >> v, b >> v) for a, b in trimmed], precision)
    except PrecisionError:
        # a cluster is left to the shear retry, not to more bits
        raise _Ambiguous
    scale = max(max(map(_norm, ders)), unit * unit)
    points = []
    for b in roots:
        c, d, u = _dyadic(b)
        # |f_x(y)| <= 2^-(precision/3) max(|f_x,j|, 1), likewise
        h = _norm(_homogeneous_horner(ders, c, d, u))
        if h << 2 * (precision // 3) <= scale << 2 * u * (len(ders) - 1):
            points.append((b, c, d, u))
    if len(points) != 1:
        raise _Ambiguous
    b, c, d, u = points[0]
    _, vx, vy = _at_y(fy, fxy, c, d, u)
    if not _norm(vy):
        raise _Ambiguous
    # |f_xy/f_yy| r_x (1 + 2^-20) = sqrt(|f_xy|^2 |f_yy|^2)/|f_yy|^2 r_x (1 + 2^-20),
    # rounded up to 100 bits
    m, e = xball.rad
    n = _sqrt_up(_norm(vx) * _norm(vy) << 200) * m * ((1 << 20) + 1)
    widen = _quotient_up(n, _norm(vy), e - 120, 100)
    return ComplexBall(b.mid, _round_up(*_dyadic_sum(b.rad, widen)), precision)


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
