"""One-parameter families f_t(x, y): critical points, conservation, coalescing.

For each parameter sample the critical points of f_t near the origin are
located by exact elimination (resultants plus certified univariate
solving); local Milnor numbers are read off the exact multiplicity
structure of the eliminant.  Balls are read and built in integers
(`ComplexBall.mid` and `rad`), never in mpmath: at a dyadic center f,
its gradient and the fiber coefficients are exact Gaussian integers over
one known denominator (homogeneous Horner); a value center is rounded
once to nearest, each radius up, and a y ball carries the x radius to
first order.  The conservation report compares the total against
mu(f_0); the coalescing verdict restricts to the zero fiber and applies
the uniqueness statement only when its hypothesis holds exactly.
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
    eliminant; a shear change of coordinates disambiguates grid-aligned
    configurations.
    """
    t_value = GaussianRational.from_value(t_value)
    if t_value.is_zero():
        raise FamilyError("use a nonzero parameter value")
    f = family.slice(t_value)
    fx, fy = f.partial_derivative("x"), f.partial_derivative("y")
    raw = _system_roots(f, fx, fy, precision)
    rows = _xy_rows(f)
    points = []
    for bx, by, mu in raw:
        x, y = _dyadic(bx), _dyadic(by)
        value = _value_ball(rows, x, y, (bx.rad, by.rad), precision)
        points.append(CriticalPoint(
            x=bx, y=by, local_mu=mu, value=value, on_zero_fiber=_on_zero_fiber(value),
            inside=_inside(x, y, family.search_radius),
        ))
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


def _value_ball(f, x, y, radii, precision):
    """f at the `_dyadic` centers x, y, each part rounded once from its exact
    value, with a radius over balls of the largest of the (man, exp)
    `radii`, rounded up; `f` is `_xy_rows` of f."""
    values, ders, unit = _at_x(f, *x)
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
                sheared.partial_derivative("x"), sheared.partial_derivative("y"), precision
            )
            out = []
            for bx, by, mu in roots:
                # x = x' + lam*y and its radius, exactly
                (a, b, e), (c, d, h) = bx.mid, by.mid
                g = min(e, h)
                x = ((a << e - g) + lam * (c << h - g), (b << e - g) + lam * (d << h - g), g)
                r = _dyadic_sum(bx.rad, (abs(lam) * by.rad[0], by.rad[1]))
                out.append((ComplexBall(x, r, precision), by, mu))
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
    return [(bx, by, mx * my) for bx, mx in xroots for by, my in yroots]


def _exact_univariate_roots(p, var, precision):
    if p.degree(var) < 1:
        return []
    return univariate_roots(p.in_variables((var,)), precision)


def _points_from_eliminant(p, q, eliminant, precision):
    out = []
    rows = _xy_rows(p), _xy_rows(q)
    for ball, mult in _exact_univariate_roots(eliminant, "x", precision):
        ys = _fiber_point(*rows, ball, precision)
        if len(ys) > 1:
            raise _Ambiguous  # several points share this x: shear separates
        # no y: a spurious eliminant root (leading-coefficient artifact)
        out.extend((ball, y, mult) for y in ys)
    return out


def _fiber_point(p, q, xball, precision):
    """Common y-roots above the x center, as certified balls.

    `p` and `q` are `_xy_rows` triples.  The fiber coefficients at the
    center are exact Gaussian integers, so each ball encloses a root of
    q(x_c, y) itself; it is widened by |q_x/q_y| times the x radius, the
    first-order move of that root over the x ball.
    """
    x = _dyadic(xball)
    pc, qc = _at_x(p, *x), _at_x(q, *x)
    candidates = []
    for (coeffs, ders, unit), (other, _, other_unit) in ((qc, pc), (pc, qc)):
        # |c| <= scale 2^-(precision/2), scale = max(|c_j|, 1), on squared integers
        scale = max(max(map(_norm, coeffs)), unit * unit)
        trimmed = list(coeffs)
        while len(trimmed) > 1 and _norm(trimmed[-1]) << 2 * (precision // 2) <= scale:
            trimmed.pop()
        if len(trimmed) <= 1:
            continue
        try:
            roots = aberth_roots(trimmed, precision)
        except PrecisionError:
            # a cluster is left to the shear retry, not to more bits
            raise _Ambiguous
        scale = max(max(map(_norm, other)), other_unit * other_unit)
        for b in roots:
            c, d, u = _dyadic(b)
            # |other(y)| <= 2^-(precision/3) max(|other_j|, 1), likewise
            h = _norm(_homogeneous_horner(other, c, d, u))
            if h << 2 * (precision // 3) <= scale << 2 * u * (len(other) - 1):
                _, qx, qy = _at_y(coeffs, ders, c, d, u)
                if not _norm(qy):
                    raise _Ambiguous
                # |q_x/q_y| r_x (1 + 2^-20) = sqrt(|q_x|^2 |q_y|^2)/|q_y|^2 r_x (1 + 2^-20),
                # rounded up to 100 bits
                m, e = xball.rad
                n = _sqrt_up(_norm(qx) * _norm(qy) << 200) * m * ((1 << 20) + 1)
                widen = _quotient_up(n, _norm(qy), e - 120, 100)
                candidates.append(ComplexBall(
                    b.mid, _round_up(*_dyadic_sum(b.rad, widen)), precision))
        break
    merged = []
    tol = (1, -(precision // 3))
    for b in candidates:
        if all(_apart(b.mid, m.mid, tol) for m in merged):
            merged.append(b)
    return merged


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
