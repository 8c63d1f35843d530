"""Relative polar curves, Cerf diagrams and the tangency verdict.

For a germ f(x, y) and a linear form l = a*x + b*y, the polar curve is
the reduced critical locus of the pair map (l, f) with every component
of {f = 0} removed: concretely the squarefree part of the directional
derivative a*f_y - b*f_x.  Its image under (l, f) is the Cerf diagram
Delta(u, v), computed by eliminating the fiber coordinate with an exact
resultant.  Genericity of l is randomized with a-posteriori
certificates; deeper failures surface as tangency inconsistencies and
trigger a redraw.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .gaussian import GaussianRational, ONE
from .poly import (
    Polynomial,
    PolynomialError,
    content_primitive,
    divexact,
    linear_change,
    poly_gcd,
    resultant,
    squarefree_part,
)
from .puiseux import (
    BranchDecomposition,
    PuiseuxError,
    _require_plane_germ,
    _squarefree_factors,
    _structure,
    intersection_multiplicity,
)


class GenericityError(ValueError):
    """No linear form passed the certificates within the retry budget."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class CertificateFailure(ValueError):
    """One candidate line failed one certificate (internal control flow)."""


class LinearForm(NamedTuple):
    """l = a*x + b*y with the seed that produced it."""

    a: GaussianRational
    b: GaussianRational
    seed: int

    def as_polynomial(self, variables=("x", "y")) -> Polynomial:
        variables = tuple(variables)
        return Polynomial(
            variables,
            {(1, 0): self.a, (0, 1): self.b},
        )

    def complement_polynomial(self, variables=("x", "y")) -> Polynomial:
        """Any fixed independent form, used as the fiber coordinate w."""
        variables = tuple(variables)
        if not self.a.is_zero():
            return Polynomial(variables, {(0, 1): ONE})
        return Polynomial(variables, {(1, 0): ONE})

    def __str__(self):
        return str(self.as_polynomial())


class PolarCurve(NamedTuple):
    """Reduced polar curve; `defining` = 1 means it is empty."""

    defining: Polynomial
    removed_factors: tuple

    @property
    def is_empty_at_origin(self) -> bool:
        return self.defining.is_constant() or not self.defining.constant_term().is_zero()


class CerfDiagram(NamedTuple):
    """Squarefree image curve Delta(u, v) with its branch data.

    `branches` is the exact branch structure of Delta
    (`puiseux.branch_structure`): ramification, first exponent and
    skeleton per branch, no series.  `leading_exponents` lists, per
    branch, the rational a with v ~ c * u^a; tangency to the first axis
    {v = 0} reads as a > 1 for every branch.  `contact_count` is the
    intersection number of Delta with {v = 0} at the origin.  A reader
    of the series' coefficients calls `puiseux_branches(defining)`.
    """

    defining: Polynomial
    branches: BranchDecomposition | None
    leading_exponents: tuple
    tangent_to_first_axis: bool
    contact_count: int

    @property
    def is_empty(self) -> bool:
        return self.branches is None


class TangencyVerdict(NamedTuple):
    exponents: tuple
    tangent: bool
    empty_polar: bool
    consistent: bool
    note: str | None

    @property
    def status(self) -> str:
        return "CONSISTENT" if self.consistent else "INCONSISTENT"


EMPTY_POLAR_NOTE = (
    "empty polar curve: the local fibration is a product of the slice "
    "fibration with a disc; no carousel is needed"
)


def polar_curve(f: Polynomial, line: LinearForm) -> PolarCurve:
    """Reduced relative polar curve of f with respect to `line`.

    In rotated coordinates (u, w) with u = l the defining equation is the
    squarefree part of dF/dw; pulled back to (x, y) that is the squarefree
    part of a*f_y - b*f_x.  Components shared with {f = 0} are divided out
    and recorded.
    """
    _require_plane_germ(f)
    if line.a.is_zero() and line.b.is_zero():
        raise PolynomialError("degenerate linear form (0, 0)")
    jac = f.partial_derivative(f.variables[1]).scale(line.a) - f.partial_derivative(
        f.variables[0]
    ).scale(line.b)
    if jac.is_zero():
        raise CertificateFailure("directional derivative vanishes identically")
    if jac.is_constant():
        return PolarCurve(Polynomial.constant(f.variables, 1), ())
    gamma = squarefree_part(jac)
    removed = ()
    shared = poly_gcd(gamma, f)
    if not shared.is_constant():
        gamma = divexact(gamma, shared).monic()
        removed = (shared,)
    if gamma.is_constant():
        gamma = Polynomial.constant(f.variables, 1)
    return PolarCurve(gamma, removed)


def cerf_diagram(f: Polynomial, line: LinearForm) -> CerfDiagram:
    """Cerf diagram of f for `line`: squarefree image of the polar curve."""
    return cerf_diagram_of_polar(f, line, polar_curve(f, line))


def cerf_diagram_of_polar(f: Polynomial, line: LinearForm, polar: PolarCurve) -> CerfDiagram:
    if polar.is_empty_at_origin:
        return CerfDiagram(
            defining=Polynomial.constant(("u", "v"), 1),
            branches=None,
            leading_exponents=(),
            tangent_to_first_axis=True,
            contact_count=0,
        )
    ell_poly = line.as_polynomial(f.variables)
    w_poly = line.complement_polynomial(f.variables)
    F = linear_change(f, ell_poly, w_poly)  # over (u, w)
    G = linear_change(polar.defining, ell_poly, w_poly)
    uwv = ("u", "w", "v")
    F3 = F.in_variables(uwv)
    G3 = G.in_variables(uwv)
    v3 = Polynomial.variable(uwv, "v")
    if G3.degree("w") < 1:
        raise CertificateFailure(
            "polar curve is independent of the fiber coordinate (maps into {u = const})"
        )
    if F3.degree("w") < 1:
        raise CertificateFailure("germ depends only on the chosen line")
    delta_raw = resultant(G3, F3 - v3, "w")
    if delta_raw.is_zero():
        raise CertificateFailure("elimination collapsed (shared component slipped through)")
    if delta_raw.degree("v") < 1:
        raise CertificateFailure("image curve carries no value direction")
    # u | Delta and v | Delta read the same on Delta and on its squarefree part
    _, delta = content_primitive(delta_raw, "v")
    if min(e[1] for e in delta.nums) > 0:
        raise CertificateFailure("a branch of the diagram lies inside {v = 0}")
    if min(e[0] for e in delta.nums) > 0:
        raise CertificateFailure(
            "a branch of the diagram lies inside {u = 0}: restriction to the polar is not finite"
        )
    return diagram_from_defining(delta)


def diagram_from_defining(delta: Polynomial) -> CerfDiagram:
    """Branch data, exponents and contact count for Delta(u, v), made squarefree.

    Exact throughout.  Delta is decomposed once: its squarefree part is
    the product of the monic factors, and its branches are expanded from
    that product as one factor.
    """
    if delta.variables != ("u", "v"):
        delta = delta.in_variables(("u", "v"))
    u_mult, factors = _squarefree_factors(delta)
    if u_mult or min(e[1] for e in delta.nums):
        raise CertificateFailure("diagram has an axis branch")
    delta = math.prod(g for g, _ in factors)
    branches = _structure(delta, 0, [(delta, 1)])[0]
    exponents = tuple(b.leading_exponent for b in branches.branches)
    tangent = all(a > 1 for a in exponents)
    m_from_branches = sum(b.y_order for b in branches.branches)
    v_poly = Polynomial.variable(("u", "v"), "v")
    m_from_intersection = intersection_multiplicity(delta, v_poly)
    if m_from_branches != m_from_intersection:
        raise PuiseuxError(
            f"contact count mismatch: {m_from_branches} from branches, "
            f"{m_from_intersection} from intersection theory"
        )
    return CerfDiagram(
        defining=delta,
        branches=branches,
        leading_exponents=exponents,
        tangent_to_first_axis=tangent,
        contact_count=m_from_branches,
    )


def tangency_report(diagram: CerfDiagram, f_order: int) -> TangencyVerdict:
    """Aggregate the per-branch exponents into the tangency verdict.

    An order >= 2 germ must have a tangent diagram; a violation flags a
    genericity (or numerical) failure and is never silently absorbed.
    """
    if diagram.is_empty:
        return TangencyVerdict(
            exponents=(),
            tangent=True,
            empty_polar=True,
            consistent=True,
            note=EMPTY_POLAR_NOTE,
        )
    tangent = diagram.tangent_to_first_axis
    consistent = tangent or f_order < 2
    return TangencyVerdict(
        exponents=diagram.leading_exponents,
        tangent=tangent,
        empty_polar=False,
        consistent=consistent,
        note=None,
    )


# ---------------------------------------------------------------------------
# randomized choice of the linear form, with certificates
# ---------------------------------------------------------------------------


class LineSelection(NamedTuple):
    line: LinearForm
    polar: PolarCurve
    diagram: CerfDiagram
    attempts: int
    failures: tuple


_MAX_LINE_ATTEMPTS = 32


def _candidate_lines(seed: int):
    fixed = [(1, 0), (0, 1), (1, 1), (1, -1)]
    rng = random.Random(seed)
    seen = set()
    produced = 0
    for a, b in fixed:
        produced += 1
        seen.add((a, b, 0, 0))
        yield GaussianRational(a), GaussianRational(b)
    while produced < _MAX_LINE_ATTEMPTS:
        if produced < 16:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            key = (a, b, 0, 0)
            value = (GaussianRational(a), GaussianRational(b))
        else:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            key = (a, c, b, d)
            value = (GaussianRational(a, c), GaussianRational(b, d))
        if value[0].is_zero() and value[1].is_zero():
            continue
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield value


def select_generic_line(f: Polynomial, seed: int = 0) -> LineSelection:
    """Draw candidate lines until all certificates pass.

    Certificates: the directional derivative is not identically zero and
    its reduced zero set shares no component with f; the elimination
    yields a curve with finite restriction (no branch of the diagram in
    either axis).  For order >= 2 germs a non-tangent diagram also
    triggers a redraw; if every candidate fails only that last check the
    final candidate is returned anyway so the inconsistency stays visible
    in the verdict.
    """
    _require_plane_germ(f)
    f_order = f.order_at_origin()
    failures = []
    last_inconsistent = None
    attempts = 0
    for a, b in _candidate_lines(seed):
        attempts += 1
        line = LinearForm(a=a, b=b, seed=seed)
        try:
            polar = polar_curve(f, line)
            if polar.removed_factors:
                raise CertificateFailure(
                    "polar curve shares a component with the germ"
                )
            diagram = cerf_diagram_of_polar(f, line, polar)
        except CertificateFailure as exc:
            failures.append((str(line), str(exc)))
            continue
        if f_order >= 2 and not diagram.is_empty and not diagram.tangent_to_first_axis:
            failures.append((str(line), "diagram not tangent to the first axis"))
            last_inconsistent = LineSelection(
                line, polar, diagram, attempts, tuple(failures)
            )
            continue
        return LineSelection(line, polar, diagram, attempts, tuple(failures))
    if last_inconsistent is not None:
        return last_inconsistent
    raise GenericityError(
        f"no generic line found in {attempts} attempts: {failures}", failures
    )


def pick_generic_line(f: Polynomial, seed: int = 0) -> LinearForm:
    """The certified linear form alone (see select_generic_line)."""
    return select_generic_line(f, seed).line

