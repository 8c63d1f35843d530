"""Carousel monodromy: track the diagram fiber over the value circle.

The m points of Delta(u, v) = 0 over v = eta*e^(i*theta), theta from 0
to 2*pi, are followed by a predictor / corrector scheme with adaptive
steps.  Each step is a dyadic fraction of a turn: it starts at 1/64,
doubles after an accepted step up to 1/16 and halves after a refusal.
The predictor moves each point along the tangent du/dv = -Delta_v/Delta_u;
a step is accepted only if every predicted point passes Smale's
alpha-test against the new fiber, with pairwise disjoint 2*beta balls,
and Newton's method then gives it a certified inclusion radius, the
corrected points stay unambiguous and none moves more than a quarter of
their separation.  The one corrector, `_refine`, runs in complex
doubles under a running rounding-error bound, and a loop it cannot carry
fails: a step refused at 2^-50 turn, or more than 2^16 steps, raises
TrackingError.  The base fiber comes solved with the radii, from the
exact coefficients of Delta(u, eta), and the loop ends on that same
fiber over v = eta, so nothing is solved or polished again: each end
point's inclusion disk is matched to the one base ball it meets, by
exact disk tests.  The loop closes up to a permutation of the base
fiber; it is checked against the exact cycle type predicted from the
Puiseux branches of Delta.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf

from .polar import CerfDiagram
from .poly import Polynomial, resultant
from .roots import ComplexBall, PrecisionError, error_factor, ordering_key, solve_numeric


# unit roundoff and the normal range of IEEE doubles
_UNIT = 2.0 ** -53
_TINY = sys.float_info.min
_HUGE = sys.float_info.max

# Smale's constant: beta*gamma < _ALPHA_0 makes z an approximate zero,
# whose Newton iterates converge quadratically to a root within 2*beta
_ALPHA_0 = (13 - 3 * math.sqrt(17)) / 4

# step control: angles are integer multiples of 2^-_DEPTH turn; a step of
# 2^-k turn starts at k = _FIRST_STEP, and _LONGEST_STEP <= k <= _DEPTH
_DEPTH = 50
_FIRST_STEP = 6
_LONGEST_STEP = 4
_TURN = 1 << _DEPTH

# tracker steps per loop
_MAX_STEPS = 1 << 16


class TrackingError(RuntimeError):
    pass


class RadiiError(TrackingError):
    """No validated disc pair was found while shrinking."""


class CarouselRadii(NamedTuple):
    """Validated disc radii: fiber disc |u| < rho, value circle |v| = eta.

    `base_points` are the certified fiber points below rho/2 over v = eta,
    solved at `precision`, and `fiber` is Delta in complex doubles for
    the tracker, which solves nothing again.
    """

    rho: mpf
    eta: mpf
    validation: dict
    precision: int
    base_points: tuple
    fiber: "_FiberPolynomial"


class CarouselPermutation(NamedTuple):
    m: int
    base_points: tuple
    sigma: tuple
    cycle_type: tuple
    fixed_points: tuple
    orbit_traces: tuple
    steps_used: int
    precision_used: int


class FixedPointVerdict(NamedTuple):
    fixed_point_free: bool
    consistent: bool
    predicted_lefschetz: int | None
    note: str


class _FiberPolynomial:
    """Delta as a polynomial in u whose coefficients are evaluated at v.

    The coefficient rows are the exact Q(i) coefficients of Delta, each
    part rounded once to a double, with their absolute values as the
    majorants that bound the rounding error of `horner_bound`.
    `at_value` evaluates them at one v, in one pass, for both the
    corrector over v and the predictor from v.
    """

    def __init__(self, delta: Polynomial, precision: int):
        self.coeffs_d = [
            [complex(c.a / c.d, c.b / c.d) for c in cp.dense_coefficients()] or [0j]
            for cp in delta.as_univariate("u")
        ]
        self.majorants_d = [[abs(c) for c in row] for row in self.coeffs_d]
        self.trim_d = math.ldexp(1.0, -(precision // 2))
        # rounding steps behind p and p' and the Taylor coefficients:
        # conversion, Horner in v, then at most 2(n + 1) steps in u
        ops = 4 * (2 * len(self.coeffs_d) + max(map(len, self.coeffs_d)))
        self.gamma_d = error_factor(ops, _UNIT)

    def at_value(self, v: complex) -> "_FiberValue":
        """Delta over v in complex doubles, by one Horner pass in v: the
        coefficients in u and their majorants, trimmed, for the corrector
        over v, and every coefficient (`rows`) with its v-derivative
        (`drows`) for the predictor from v."""
        av = abs(v)
        values = []
        for row, mrow in zip(self.coeffs_d, self.majorants_d):
            c = dc = m = 0
            for a, b in zip(reversed(row), reversed(mrow)):
                dc = dc * v + c
                c = c * v + a
                m = m * av + b
            values.append((c, dc, m))
        rows, drows, majorants = map(list, zip(*values))
        # drop a numerically vanished leading coefficient (root at infinity)
        tol = max([abs(c) for c in rows] + [1]) * self.trim_d
        n = next((k for k in range(len(rows), 1, -1) if not abs(rows[k - 1]) <= tol), 1)
        return _FiberValue(v, rows[:n], majorants[:n], rows, drows)


_FiberValue = NamedTuple("_FiberValue", [("v", complex), ("coeffs", list),
                                         ("majorants", list), ("rows", list), ("drows", list)])


def _predict(here, points, v_to):
    """Each point moved along the tangent du/dv = -Delta_v/Delta_u at v,
    from `here` = `at_value(v)`; a prediction only, which the corrector
    certifies."""
    dv = v_to - here.v
    out = []
    for z in points:
        p = d_u = d_v = 0
        for c, dc in zip(reversed(here.rows), reversed(here.drows)):
            d_u = d_u * z + p
            p = p * z + c
            d_v = d_v * z + dc
        out.append(z if d_u == 0 else z - d_v / d_u * dv)
    return out


def choose_radii(diagram: CerfDiagram, precision: int = 128) -> CarouselRadii:
    """Shrink (rho, eta) geometrically until an exact Rouche certificate holds.

    Write Delta = sum a_ij u^i v^j and m = contact_count, so a = a_m0 is
    the lowest coefficient of Delta(u, 0), and let
    S(r) = sum_{i>m} |a_i0| r^i and B(r, eta) = sum_{j>=1} |a_ij| r^i eta^j,
    with each |a_ij| rounded up to a rational.  rho is the first 4^-k with
    S(2*rho) < |a| (2*rho)^m, so u = 0 is the only root of Delta(u, 0) in
    |u| <= 2*rho.  eta is the first rho*4^-j with S(r) + B(r, eta) < |a| r^m
    at r = rho/2 and r = 2*rho.  Divided by r^m, the left side is a sum of
    powers of r with nonnegative coefficients, convex in log r, so the
    inequality holds on the whole annulus between; by Rouche every fiber
    over |v| <= eta then has exactly m roots in |u| < rho/2 and none in
    rho/2 <= |u| <= 2*rho.  eta must also pass the separation certificate
    of `_separation_bound`: no two points of a fiber over 0 < |v| <= eta
    coincide.  The base fiber over v = eta is solved once, from the exact
    coefficients of Delta(u, eta), so its balls enclose the roots of that
    polynomial itself: its m roots must be pairwise separated relative to
    2^(-precision/4), and they are kept with the radii for the tracker.
    """
    if diagram.is_empty:
        raise RadiiError("empty diagram has no carousel")
    m = diagram.contact_count
    terms = diagram.defining.terms
    lowest_sq = _modulus_sq(terms[(m, 0)])
    # every other term has j >= 1 or i > m, as u^m is the lowest of Delta(u, 0)
    bounds = [(i, j, _modulus_bound(c)) for (i, j), c in terms.items() if (i, j) != (m, 0)]

    def ratio_sq(r, eta):
        """((S(r) + B(r, eta)) / (|a| r^m))^2, exactly."""
        rest = sum(b * r ** i * eta ** j for i, j, b in bounds)
        return rest * rest / (lowest_sq * r ** (2 * m))

    k = next((k for k in range(41) if ratio_sq(Fraction(2, 4 ** k), 0) < 1), None)
    if k is None:
        raise RadiiError("could not isolate the origin in the fiber disc")
    rho = Fraction(1, 4 ** k)
    separation_sq = _separation_bound(diagram.defining)
    with mp.workprec(precision + 32):
        sep_floor = mpf(2) ** (-(precision // 4))
        for j in range(1, 41):
            eta = rho / 4 ** j
            inner, outer = ratio_sq(rho / 2, eta), ratio_sq(2 * rho, eta)
            if inner >= 1 or outer >= 1:
                continue
            separation = separation_sq(eta)
            if separation >= 1:
                continue
            rho_mp, eta_mp = mpf(4) ** (-k), mpf(4) ** (-k - j)
            exact = diagram.defining.eliminate_variable("v", eta)
            try:
                roots = solve_numeric(exact.dense_coefficients(), precision)
            except PrecisionError:
                continue
            base = sorted((b for b in roots if _center_below(b, 2 * k + 1)), key=ordering_key)
            centers = [b.center for b in base]
            seps = [
                abs(a - b) / max(abs(a), abs(b), mpf(1e-30))
                for a, b in itertools.combinations(centers, 2)
            ]
            if len(base) != m or min(seps, default=sep_floor) < sep_floor:
                continue
            validation = {
                "fiber_count": m,
                "base_min_relative_separation": float(min(seps)) if seps else None,
                "rouche_ratio_half_rho": math.sqrt(inner),
                "rouche_ratio_two_rho": math.sqrt(outer),
                "separation_ratio": math.sqrt(separation),
            }
            return CarouselRadii(
                rho=rho_mp,
                eta=eta_mp,
                validation=validation,
                precision=precision,
                base_points=tuple(base),
                fiber=_FiberPolynomial(diagram.defining, precision),
            )
    raise RadiiError(
        "could not validate a value-circle radius (degenerate diagram "
        "or precision too low)"
    )


def _separation_bound(delta: Polynomial):
    """eta -> (sum_{j>k} |d_j| eta^(j-k) / |d_k|)^2, exactly.

    d_j are the coefficients of D(v) = Res_u(Delta, Delta_u), d_k the
    lowest nonzero one.  Below 1 the value proves, term by term, that
    D(v)/v^k has no zero in |v| <= eta, so no two points of a fiber over
    0 < |v| <= eta coincide and a refused tracker step can only have
    been too long.  A Delta of degree below 2 in u has nothing to
    separate.
    """
    if delta.degree("u") < 2:
        return lambda eta: 0
    d = resultant(delta, delta.partial_derivative("u"), "u").dense_coefficients()
    k = next((j for j, c in enumerate(d) if not c.is_zero()), None)
    if k is None:
        raise RadiiError("diagram is not squarefree in u")
    lowest_sq = _modulus_sq(d[k])
    rest = [(j - k, _modulus_bound(c)) for j, c in enumerate(d) if j > k and not c.is_zero()]

    def ratio_sq(eta):
        s = sum(b * eta ** e for e, b in rest)
        return s * s / lowest_sq

    return ratio_sq


def _modulus_sq(c) -> Fraction:
    """|c|^2 exactly."""
    return Fraction(c.a * c.a + c.b * c.b, c.d * c.d)


def _modulus_bound(c) -> Fraction:
    """A rational upper bound of |c|, exact on the axes, else within 2^-32."""
    if not c.a or not c.b:
        return Fraction(abs(c.a or c.b), c.d)
    # |c|^2 = num/den in lowest terms; sqrt(num*den * 2^64) / (den * 2^32)
    num, den = c.a * c.a + c.b * c.b, c.d * c.d
    g = math.gcd(num, den)
    num, den = num // g, den // g
    scaled = (num * den) << 64
    root = math.isqrt(scaled)
    return Fraction(root + (root * root < scaled), den << 32)


def _alpha_radius(coeffs, majorants, z, gamma):
    """2*beta at z if z passes Smale's alpha-test for p, else None.

    The Taylor coefficients t_k = p^(k)(z)/k! come from Horner's Taylor
    shift, and the same passes on the majorants at |z| give M_k, so
    |t_k| <= |computed t_k| + gamma*M_k as in `horner_bound`.  With
    d = |t_1| - gamma*M_1 > 0 these bound beta = |t_0/t_1| and
    gamma_S = max_{k>=2} |t_k/t_1|^(1/(k-1)) from above.  Every error
    bound must be a normal double and every coefficient finite.
    """
    n = len(coeffs) - 1
    if n < 1:
        return None
    az = abs(z)
    t, mt = list(coeffs), list(majorants)
    for k in range(n):
        for i in range(n - 1, k - 1, -1):
            t[i] += z * t[i + 1]
            mt[i] += az * mt[i + 1]
    bounds = []
    for c, a in zip(t, mt):
        err = gamma * a
        if not (_TINY <= err <= _HUGE and cmath.isfinite(c)):
            return None
        bounds.append((abs(c), err))
    (t0, e0), (t1, e1) = bounds[:2]
    den = t1 - e1
    if not den > 0:
        return None
    beta = (t0 + e0) / den
    gamma_s = max(
        (((tk + ek) / den) ** (1.0 / (k - 1)) for k, (tk, ek) in enumerate(bounds) if k >= 2),
        default=0,
    )
    if not beta * gamma_s * (1 + 2.0 ** -20) < _ALPHA_0:
        return None
    return 2 * beta


def _alpha_certified(coeffs, majorants, points, gamma) -> bool:
    """Every point passes the alpha-test and the 2*beta balls are disjoint."""
    radii = []
    for z in points:
        radius = _alpha_radius(coeffs, majorants, z, gamma)
        if radius is None:
            return False
        radii.append(radius)
    return all(
        abs(points[i] - points[j]) > radii[i] + radii[j]
        for i, j in itertools.combinations(range(len(points)), 2)
    )


def _refine(fiber, here, there, points, rho):
    """Predict from `here` and correct over `there`; (points, radii) or None.

    `here` and `there` are `fiber.at_value` at v_from and v_to; the step
    runs in complex doubles.  Newton stops once |p| is within its
    rounding bound e.  The step is refused (None) unless every point gets
    there within 40 iterations with |p'| > e', finite values and normal
    bounds (no underflow).
    """
    coeffs, majorants = there.coeffs, there.majorants
    gamma, half = fiber.gamma_d, float(rho) / 2
    predicted = _predict(here, points, there.v)
    if not _alpha_certified(coeffs, majorants, predicted, gamma):
        return None
    new_pts, new_radii = [], []
    for z in predicted:
        for _ in range(40):
            p, dp, e, de = horner_bound(coeffs, majorants, z, gamma)
            if not (_TINY <= e <= _HUGE and _TINY <= de <= _HUGE
                    and cmath.isfinite(p) and cmath.isfinite(dp)):
                return None
            if abs(dp) <= de:
                return None
            if abs(p) <= e:
                break
            z = z - p / dp
        else:
            return None
        if abs(z) >= half:
            return None
        new_pts.append(z)
        # Newton's inclusion disk: n*(|p| + e)/(|p'| - e') bounds n*|p/p'|
        # for the exact values, so a root lies within it of z
        new_radii.append((len(coeffs) - 1) * (abs(p) + e) / (abs(dp) - de) * (1 + 2.0 ** -20))
    return _checked_move(points, new_pts, new_radii)


def horner_bound(coeffs, majorants, z, gamma):
    """p(z), p'(z) and running bounds e, e' on their rounding errors.

    `coeffs` are low first and `majorants[k]` >= |coeffs[k]|.  With
    `gamma` = error_factor(ops, u) for the number of rounding steps ops
    behind each value (coefficient conversion and evaluation included),
    |computed p - p| <= e = gamma*M(|z|) and |computed p' - p'| <= e' =
    gamma*M'(|z|), where M is the majorant polynomial (Higham, ch. 5).
    """
    az = abs(z)
    p = dp = m = dm = 0
    for c, a in zip(reversed(coeffs), reversed(majorants)):
        dp = dp * z + p
        p = p * z + c
        dm = dm * az + m
        m = m * az + a
    return p, dp, gamma * m, gamma * dm


def _checked_move(points, new_pts, new_radii):
    """Accept corrected points only if unambiguous and continuous."""
    pairs = list(itertools.combinations(range(len(new_pts)), 2))
    seps = [abs(new_pts[i] - new_pts[j]) for i, j in pairs]
    # pairwise separation with the 4x ambiguity margin
    if any(d <= 4 * (new_radii[i] + new_radii[j]) for d, (i, j) in zip(seps, pairs)):
        return None
    # continuity: each point must move much less than the fiber separation
    if seps and max(abs(a - b) for a, b in zip(points, new_pts)) > min(seps) / 4:
        return None
    return new_pts, new_radii


def _track(radii, points, direction):
    """Follow `points` once around |v| = eta with `_refine`.

    Delta's rows are evaluated once per angle: at v = eta and at the end
    of each step tried, where an accepted step's next one starts.  A
    refused step's end is kept until theta passes it, since the halved
    steps after it often end there again.  The first step is
    1/64 turn; an accepted step doubles the next one, up to 1/16 turn, and
    a refusal halves it, down to 2^-50 turn, failing hard beyond
    _MAX_STEPS steps.  Each v is computed at the precision of
    the radii and rounded to doubles once; the last step ends on v = eta
    exactly (expjpi(+-2) is 1), so the end points come certified on the
    base fiber.  Returns the end points, their inclusion radii, the orbit
    traces and the number of steps tried.
    """
    traces = [[(z.real, z.imag)] for z in points]
    used = 0
    theta = 0
    length = _TURN >> _FIRST_STEP
    eta, fiber = radii.eta, radii.fiber
    here = fiber.at_value(complex(eta))
    ahead = {}  # integer angle -> rows there, for refused step ends past theta
    while theta < _TURN:
        step = min(length, _TURN - theta)
        if used >= _MAX_STEPS:
            raise TrackingError("step budget exhausted (matching stayed ambiguous)")
        used += 1
        there = ahead.pop(theta + step, None)
        if there is None:
            with mp.workprec(radii.precision + 32):
                v_to = complex(eta * mpmath.expjpi(mpf(2 * direction * (theta + step)) / _TURN))
            there = fiber.at_value(v_to)
        result = _refine(fiber, here, there, points, radii.rho)
        if result is None:
            if step == 1:
                raise TrackingError("matching ambiguity at maximal resolution")
            ahead[theta + step] = there
            length = step // 2
            continue
        theta += step
        ahead = {angle: value for angle, value in ahead.items() if angle > theta}
        here = there
        length = min(2 * length, _TURN >> _LONGEST_STEP)
        points, end_radii = result
        for trace, z in zip(traces, points):
            trace.append((z.real, z.imag))
    return points, end_radii, traces, used


def carousel_permutation(
    diagram: CerfDiagram,
    radii: CarouselRadii,
    direction: int = 1,
) -> CarouselPermutation:
    """Monodromy permutation of the fiber points over one loop in v.

    Starts from the base fiber solved with `radii` and tracks the loop in
    complex doubles only.  Deterministic: the steps are dyadic fractions
    of a turn chosen by the rule of `_track`.  A loop the doubles cannot
    certify, by a step refused at 2^-50 turn, by more than _MAX_STEPS
    steps or by end points that do not match the base fiber, raises
    TrackingError.  `direction=-1` traverses the loop clockwise and
    yields the inverse permutation.
    """
    if diagram.is_empty:
        raise TrackingError("empty diagram has no carousel")
    if direction not in (1, -1):
        raise TrackingError("direction must be +1 or -1")
    base = radii.base_points
    m = diagram.contact_count
    if len(base) != m:
        raise TrackingError(f"base fiber carries {len(base)} points, expected {m}")
    points, end_radii, traces, used = _track(
        radii, [complex(b.center) for b in base], direction
    )
    sigma = _match_to_base(points, end_radii, base)
    return CarouselPermutation(
        m=m,
        base_points=tuple(base),
        sigma=tuple(sigma),
        cycle_type=_cycle_type(sigma),
        fixed_points=tuple(i for i, j in enumerate(sigma) if i == j),
        orbit_traces=tuple(tuple(t) for t in traces),
        steps_used=used,
        precision_used=radii.precision,
    )


def _center_below(ball, bits):
    """|center| < 2^-bits, decided on the ball's integers."""
    re, im, exp = ball.mid
    shift = 2 * (exp + bits)
    n2 = re * re + im * im
    return n2 < 1 << -shift if shift < 0 else not n2


def _match_to_base(points, radii, base):
    """sigma: each end disk to the one base ball that it meets.

    The disks come from the last step of `_track`, over v = eta, the
    value of the base fiber, and every test is exact
    (`ComplexBall.is_disjoint_from`).  Each end disk D(z, r) holds a
    root of Delta(u, eta), by Newton's inclusion disk.  The corrector
    kept |z| < rho/2 and, for m >= 2, r below a quarter of the distance
    to the nearest other end point (the 4-radii margin of
    `_checked_move`), so r < rho/4 and the disk lies in |u| < 2*rho.
    By the Rouche certificate of `choose_radii` no root lies in
    rho/2 <= |u| <= 2*rho, so the root is one of the m base roots, and
    it lies in its own base ball; a disk that meets only that ball is
    matched to it.  Disjoint end disks hold distinct roots, so sigma is
    a permutation.  For m = 1 nothing bounds r, but a permutation of one
    point is the identity anyway.
    Raises TrackingError unless each disk meets exactly one base ball
    and no two disks meet the same one.
    """
    sigma = []
    for z, r in zip(points, radii):
        disk = ComplexBall(z, r, 53)
        hits = [j for j, ball in enumerate(base) if not disk.is_disjoint_from(ball)]
        if len(hits) != 1:
            raise TrackingError(f"an end point meets {len(hits)} base balls, not one")
        sigma.append(hits[0])
    if len(set(sigma)) != len(sigma):
        raise TrackingError("two tracked points end in one base ball")
    return sigma


def _cycle_type(sigma):
    seen = [False] * len(sigma)
    lengths = []
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def predicted_cycle_type(diagram: CerfDiagram) -> tuple:
    """Exact oracle: each branch contributes one cycle of its v-order."""
    if diagram.is_empty:
        return ()
    return tuple(sorted(b.y_order for b in diagram.branches.branches))


def fixed_point_verdict(perm: CarouselPermutation, f_order: int) -> FixedPointVerdict:
    """Check fixed-point-freeness against what the germ's order demands."""
    free = not perm.fixed_points
    if f_order >= 2:
        consistent = free
        predicted = 0
        note = (
            "order >= 2: the monodromy admits a representative without fixed "
            "points, so its Lefschetz number vanishes"
            if free
            else "order >= 2 but the carousel permutation has fixed points: "
            "numerical or genericity failure"
        )
    else:
        consistent = True
        predicted = None
        note = "order < 2: no fixed-point statement applies"
    return FixedPointVerdict(
        fixed_point_free=free,
        consistent=consistent,
        predicted_lefschetz=predicted,
        note=note,
    )
