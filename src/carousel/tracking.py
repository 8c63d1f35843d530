"""Carousel monodromy: track the diagram fiber over the value circle.

The m points of Delta(u, v) = 0 over v = eta*e^(i*theta), theta from 0
to 2*pi, are followed by a predictor (previous position) / corrector
(Newton refinement with a certified inclusion radius) scheme.  The
corrector runs in complex doubles under a running rounding-error bound;
if a double-precision certificate still fails at the finest step, the
whole loop is tracked again with the mpmath corrector at the requested
precision.  The base fiber, the polish of the end points and the final
matching always run at the requested precision.  The loop closes up to
a permutation of the base fiber; it is checked against the exact cycle
type predicted from the Puiseux branches of Delta.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from .polar import CerfDiagram
from .poly import Polynomial
from .roots import (PrecisionError, error_factor, gaussian_to_mpc,
                    horner_bound, newton_radius, ordering_key, solve_numeric)


# unit roundoff and the normal range of IEEE doubles
_UNIT = 2.0 ** -53
_TINY = sys.float_info.min
_HUGE = sys.float_info.max


class TrackingError(RuntimeError):
    pass


class RadiiError(TrackingError):
    """No validated disc pair was found while shrinking."""


@dataclass(frozen=True)
class CarouselRadii:
    """Validated disc radii: fiber disc |u| < rho, value circle |v| = eta."""

    rho: mpf
    eta: mpf
    validation: dict
    precision: int


@dataclass(frozen=True)
class CarouselPermutation:
    m: int
    base_points: tuple
    sigma: tuple
    cycle_type: tuple
    fixed_points: tuple
    orbit_traces: tuple
    steps_used: int
    precision_used: int


@dataclass(frozen=True)
class FixedPointVerdict:
    fixed_point_free: bool
    consistent: bool
    predicted_lefschetz: int | None
    note: str


class _FiberPolynomial:
    """Delta as a polynomial in u whose coefficients are evaluated at v.

    The coefficient rows are kept at the working precision and in complex
    doubles, each with its absolute values as the majorants that bound
    the rounding error of `horner_bound`.
    """

    def __init__(self, delta: Polynomial, precision: int):
        self.precision = precision
        with mp.workprec(precision + 32):
            coeff_polys = delta.as_univariate("u")
            self.coeffs_v = []
            for cp in coeff_polys:
                dense = [mpc(0)] * (cp.degree("v") + 1 if not cp.is_zero() else 1)
                for exps, c in cp.terms.items():
                    dense[exps[0]] = gaussian_to_mpc(c)
                self.coeffs_v.append(dense)
            self.majorants_v = [[abs(c) for c in row] for row in self.coeffs_v]
            self.trim = mpf(2) ** (-(precision // 2))
            # rounding steps behind p and p': conversion, Horner in v, then
            # Horner in u and its derivative recurrence
            ops = 4 * (2 * len(self.coeffs_v) + max(map(len, self.coeffs_v)))
            self.gamma = error_factor(ops, mpf(2) ** (-(precision + 32)))
        self.degree = len(self.coeffs_v) - 1
        self.coeffs_d = [[complex(c) for c in row] for row in self.coeffs_v]
        self.majorants_d = [[abs(c) for c in row] for row in self.coeffs_d]
        self.trim_d = math.ldexp(1.0, -(precision // 2))
        self.gamma_d = error_factor(ops, _UNIT)

    def at_value(self, v):
        """Coefficients in u at v and their majorants, at working precision."""
        return _evaluate(self.coeffs_v, self.majorants_v, v, self.trim)

    def at_value_double(self, v: complex):
        """Coefficients in u at v and their majorants, in complex doubles."""
        return _evaluate(self.coeffs_d, self.majorants_d, v, self.trim_d)


def _evaluate(rows, majorant_rows, v, trim):
    av = abs(v)
    coeffs = []
    majorants = []
    for row, mrow in zip(rows, majorant_rows):
        acc = m = 0
        for c, a in zip(reversed(row), reversed(mrow)):
            acc = acc * v + c
            m = m * av + a
        coeffs.append(acc)
        majorants.append(m)
    # drop a numerically vanished leading coefficient (root at infinity)
    tol = max([abs(c) for c in coeffs] + [1]) * trim
    while len(coeffs) > 1 and abs(coeffs[-1]) <= tol:
        coeffs.pop()
        majorants.pop()
    return coeffs, majorants


def choose_radii(diagram: CerfDiagram, precision: int = 128) -> CarouselRadii:
    """Shrink (rho, eta) geometrically until every disc condition holds.

    Checks: Delta(u, 0) = 0 has u = 0 as its only root well inside the
    fiber disc; every sampled fiber over |v| = eta carries exactly m
    roots below rho/2 and none in the guard annulus [rho/2, 2*rho]; the
    m base roots are pairwise separated relative to 2^(-precision/4).
    """
    if diagram.is_empty:
        raise RadiiError("empty diagram has no carousel")
    from .roots import univariate_roots

    m = diagram.contact_count
    delta = diagram.defining
    with mp.workprec(precision + 32):
        slice_zero = delta.eliminate_variable("v", 0)
        nonzero_bound = None
        xvar = slice_zero.variables[0]
        reduced = {
            (e[0] - min(k[0] for k in slice_zero.terms),): c
            for e, c in slice_zero.terms.items()
        }
        off_origin = Polynomial((xvar,), reduced)
        if off_origin.degree(xvar) >= 1:
            for ball, _ in univariate_roots(off_origin, precision):
                low = abs(ball.center) - ball.radius
                if nonzero_bound is None or low < nonzero_bound:
                    nonzero_bound = low
        rho = None
        for k in range(41):
            cand = mpf(4) ** (-k)
            if nonzero_bound is None or 2 * cand < nonzero_bound:
                rho = cand
                break
        if rho is None:
            raise RadiiError("could not isolate the origin in the fiber disc")
        fiber = _FiberPolynomial(delta, precision)
        samples = 64
        sep_floor = mpf(2) ** (-(precision // 4))
        eta = None
        validation = {}
        for j in range(1, 41):
            cand = rho * mpf(4) ** (-j)
            ok, info = _validate_eta(fiber, m, rho, cand, samples, sep_floor)
            if ok:
                eta = cand
                validation = info
                break
        if eta is None:
            raise RadiiError(
                "could not validate a value-circle radius (degenerate diagram "
                "or precision too low)"
            )
        validation.update(
            {
                "origin_isolated_below": None
                if nonzero_bound is None
                else float(nonzero_bound),
                "samples": samples,
                "fiber_count": m,
            }
        )
        return CarouselRadii(rho=rho, eta=eta, validation=validation, precision=precision)


def _validate_eta(fiber, m, rho, eta, samples, sep_floor):
    min_sep = None
    for s in range(samples):
        v = eta * mpmath.expjpi(mpf(2 * s) / samples)
        try:
            roots = solve_numeric(fiber.at_value(v)[0], fiber.precision)
        except PrecisionError:
            return False, {}
        near = [b for b in roots if abs(b.center) < rho / 2]
        annulus = [
            b for b in roots if rho / 2 <= abs(b.center) <= 2 * rho
        ]
        if len(near) != m or annulus:
            return False, {}
        if s == 0:
            for i in range(len(near)):
                for j in range(i + 1, len(near)):
                    d = abs(near[i].center - near[j].center)
                    rel = d / max(abs(near[i].center), abs(near[j].center), mpf(1e-30))
                    if min_sep is None or rel < min_sep:
                        min_sep = rel
            if min_sep is not None and min_sep < sep_floor:
                return False, {}
    return True, {
        "base_min_relative_separation": None if min_sep is None else float(min_sep),
    }


def _base_fiber(fiber, radii):
    roots = solve_numeric(fiber.at_value(radii.eta)[0], fiber.precision)
    near = [b for b in roots if abs(b.center) < radii.rho / 2]
    near.sort(key=lambda b: ordering_key(b.center))
    return near


def _refine_points(fiber, v, points, rho, precision):
    """Newton-correct all tracked points over v in mpmath; (points, radii) or None."""
    coeffs, majorants = fiber.at_value(v)
    n = len(coeffs) - 1
    tol = mpf(2) ** (-(precision + 8))
    new_pts = []
    new_radii = []
    for z in points:
        zz = z
        ok = False
        for _ in range(40):
            p, dp, _, _ = horner_bound(coeffs, majorants, zz, fiber.gamma)
            if dp == 0:
                return None
            step = p / dp
            zz = zz - step
            if abs(step) < tol * (1 + abs(zz)):
                ok = True
                break
        radius = newton_radius(n, *horner_bound(coeffs, majorants, zz, fiber.gamma))
        if radius is None:
            return None
        if not ok and radius > mpf(2) ** (-(precision // 2)):
            return None
        if abs(zz) >= rho / 2:
            return None
        new_pts.append(zz)
        new_radii.append(radius)
    return _checked_move(points, new_pts, new_radii)


def _refine_double(fiber, v, points, rho):
    """The corrector of `_refine_points` in complex doubles.

    Newton stops once |p| is within its rounding bound e.  The step is
    refused (None) unless every point gets there within 40 iterations
    with finite values, normal bounds (no underflow) and |p'| > e'.
    """
    coeffs, majorants = fiber.at_value_double(complex(v))
    n = len(coeffs) - 1
    gamma = fiber.gamma_d
    half = float(rho) / 2
    new_pts = []
    new_radii = []
    for z in points:
        for _ in range(40):
            p, dp, e, de = horner_bound(coeffs, majorants, z, gamma)
            if not (_TINY <= e <= _HUGE and _TINY <= de <= _HUGE
                    and cmath.isfinite(p) and cmath.isfinite(dp)):
                return None
            if abs(p) <= e:
                break
            if abs(dp) <= de:
                return None
            z = z - p / dp
        else:
            return None
        radius = newton_radius(n, p, dp, e, de)
        if radius is None or abs(z) >= half:
            return None
        new_pts.append(z)
        new_radii.append(radius)
    return _checked_move(points, new_pts, new_radii)


def _checked_move(points, new_pts, new_radii):
    """Accept corrected points only if unambiguous and continuous."""
    # pairwise separation with the 4x ambiguity margin
    for i in range(len(new_pts)):
        for j in range(i + 1, len(new_pts)):
            if abs(new_pts[i] - new_pts[j]) <= 4 * (new_radii[i] + new_radii[j]):
                return None
    # continuity: each point must move much less than the fiber separation
    if len(new_pts) > 1:
        min_sep = min(
            abs(new_pts[i] - new_pts[j])
            for i in range(len(new_pts))
            for j in range(i + 1, len(new_pts))
        )
        max_move = max(abs(a - b) for a, b in zip(points, new_pts))
        if max_move > min_sep / 4:
            return None
    return new_pts, new_radii


def _track(refine, points, eta, steps, direction):
    """Follow `points` once around |v| = eta with the corrector `refine`.

    `refine(v, points)` returns (points, radii) or None; a refused step
    bisects its angle interval, up to depth 40 and 2^20 steps in all.
    Returns the end points, the orbit traces and the number of steps.
    """
    traces = [[(float(z.real), float(z.imag))] for z in points]
    used = 0
    max_steps = 1 << 20
    for k in range(steps):
        # angle intervals still to cover, the leftmost on top
        pending = [(mpf(k) / steps, mpf(k + 1) / steps, 0)]
        while pending:
            theta_from, theta_to, depth = pending.pop()
            if used > max_steps:
                raise TrackingError("step budget exhausted (matching stayed ambiguous)")
            v = eta * mpmath.expjpi(2 * direction * theta_to)
            used += 1
            result = refine(v, points)
            if result is None:
                if depth > 40:
                    raise TrackingError("matching ambiguity at maximal resolution")
                mid = (theta_from + theta_to) / 2
                pending.append((mid, theta_to, depth + 1))
                pending.append((theta_from, mid, depth + 1))
                continue
            points = result[0]
            for trace, z in zip(traces, points):
                trace.append((float(z.real), float(z.imag)))
    return points, traces, used


def carousel_permutation(
    diagram: CerfDiagram,
    radii: CarouselRadii,
    steps: int = 512,
    precision: int = 128,
    direction: int = 1,
) -> CarouselPermutation:
    """Monodromy permutation of the fiber points over one loop in v.

    Deterministic for fixed (steps, precision); ambiguous corrector steps
    bisect the angle interval locally, failing hard beyond 2^20 steps.
    `direction=-1` traverses the loop clockwise and yields the inverse
    permutation.
    """
    if diagram.is_empty:
        raise TrackingError("empty diagram has no carousel")
    if steps < 64:
        raise TrackingError("need at least 64 steps")
    if direction not in (1, -1):
        raise TrackingError("direction must be +1 or -1")
    with mp.workprec(precision + 32):
        fiber = _FiberPolynomial(diagram.defining, precision)
        base = _base_fiber(fiber, radii)
        m = diagram.contact_count
        if len(base) != m:
            raise TrackingError(
                f"base fiber carries {len(base)} points, expected {m}"
            )
        rho = radii.rho
        end_v = radii.eta * mpmath.expjpi(2 * direction)
        try:
            points, traces, used = _track(
                lambda v, pts: _refine_double(fiber, v, pts, rho),
                [complex(b.center) for b in base],
                radii.eta,
                steps,
                direction,
            )
            polished = _refine_points(
                fiber, end_v, [mpc(z) for z in points], rho, precision
            )
            if polished is None:
                raise TrackingError("end points do not polish at full precision")
            sigma = _match_to_base(polished[0], base, precision)
        except TrackingError:
            points, traces, used = _track(
                lambda v, pts: _refine_points(fiber, v, pts, rho, precision),
                [b.center for b in base],
                radii.eta,
                steps,
                direction,
            )
            sigma = _match_to_base(points, base, precision)
        fixed = tuple(i for i, j in enumerate(sigma) if i == j)
        cycle_type = _cycle_type(sigma)
        return CarouselPermutation(
            m=m,
            base_points=tuple(base),
            sigma=tuple(sigma),
            cycle_type=cycle_type,
            fixed_points=fixed,
            orbit_traces=tuple(tuple(t) for t in traces),
            steps_used=used,
            precision_used=precision,
        )


def _match_to_base(points, base, precision):
    m = len(points)
    sigma = [-1] * m
    taken = [False] * m
    for i, z in enumerate(points):
        dists = sorted(
            (abs(z - base[j].center), j) for j in range(m)
        )
        best_d, best_j = dists[0]
        margin = 4 * (base[best_j].radius + mpf(2) ** (-(precision // 2)))
        if best_d > max(margin, mpf(2) ** (-(precision // 4))):
            raise TrackingError("final point does not land on a base point")
        if len(dists) > 1 and dists[1][0] <= 4 * best_d + margin:
            raise TrackingError("final matching is ambiguous")
        if taken[best_j]:
            raise TrackingError("two tracked points collided (diagram not squarefree?)")
        taken[best_j] = True
        sigma[i] = best_j
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
