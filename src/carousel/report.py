"""Pipeline orchestration: germ text to a full monodromy report.

Stages: parse -> local invariants (order, mu, delta, branches) -> line
selection with polar curve and Cerf diagram -> carousel tracking ->
verdicts.  Errors carry their stage label; the JSON rendering of the
report is deterministic (insertion-ordered keys, timings segregated in a
separate block).
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .gaussian import GaussianRational
from .polar import (
    CerfDiagram,
    LinearForm,
    LineSelection,
    PolarCurve,
    TangencyVerdict,
    cerf_diagram_of_polar,
    polar_curve,
    select_generic_line,
    tangency_report,
)
from .poly import Polynomial, parse_polynomial
from .puiseux import milnor_and_branches
from .tracking import (
    CarouselPermutation,
    CarouselRadii,
    FixedPointVerdict,
    carousel_permutation,
    choose_radii,
    fixed_point_verdict,
    predicted_cycle_type,
)

GERM_SYMBOLS = ("x", "y", "t", "u", "v", "s")


class StageError(RuntimeError):
    """An analysis stage failed; carries the stage label."""

    def __init__(self, stage: str, error: Exception):
        super().__init__(f"[{stage}] {error}")
        self.stage = stage
        self.error = error


class AnalysisResult(NamedTuple):
    germ_text: str
    variables: tuple
    germ: Polynomial
    f_order: int
    mu: int
    delta: int
    branch_count: int
    line: LinearForm
    line_attempts: int
    line_forced: bool
    polar: PolarCurve
    diagram: CerfDiagram
    tangency: TangencyVerdict
    radii: CarouselRadii | None
    permutation: CarouselPermutation | None
    predicted_cycles: tuple | None
    fixed_point: FixedPointVerdict | None
    timings_ms: dict

    @property
    def in_m_squared(self) -> bool:
        return self.f_order >= 2

    @property
    def inconsistent(self) -> bool:
        if not self.tangency.consistent:
            return True
        if self.fixed_point is not None and not self.fixed_point.consistent:
            return True
        return False


def _stage(timings, label, func, *args, **kwargs):
    start = time.perf_counter()
    try:
        return func(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(label, exc) from exc
    finally:
        timings[label] = round((time.perf_counter() - start) * 1000.0, 3)


def analyze_germ(
    germ_text: str,
    variables=("x", "y"),
    seed: int = 0,
    precision: int = 128,
    forced_line: tuple | None = None,
    progress=None,
) -> AnalysisResult:
    """Run the whole pipeline on one germ."""

    def note(msg):
        if progress is not None:
            progress(msg)

    timings: dict = {}
    variables = tuple(variables)
    for v in variables:
        if v not in GERM_SYMBOLS:
            raise StageError("parse", ValueError(f"symbol {v!r} not in {GERM_SYMBOLS}"))

    note("parsing germ")
    germ = _stage(timings, "parse", parse_polynomial, germ_text, variables)

    note("computing local invariants")

    def invariants():
        order = germ.order_at_origin()
        mu, branches = milnor_and_branches(germ)
        r = branches.branch_count
        delta = (mu + r - 1) // 2
        return order, mu, delta, r

    f_order, mu, delta, r = _stage(timings, "invariants", invariants)

    note("selecting a line and building the diagram")

    def line_stage():
        if forced_line is not None:
            a, b = forced_line
            line = LinearForm(
                a=GaussianRational.from_value(a),
                b=GaussianRational.from_value(b),
                seed=seed,
            )
            polar = polar_curve(germ, line)
            diagram = cerf_diagram_of_polar(germ, line, polar)
            return LineSelection(line, polar, diagram, 1, ()), True
        selection = select_generic_line(germ, seed)
        return selection, False

    selection, forced = _stage(timings, "line", line_stage)
    tangency = tangency_report(selection.diagram, f_order)

    radii = None
    permutation = None
    predicted = None
    fp = None
    if not selection.diagram.is_empty:
        note("validating carousel radii")
        radii = _stage(timings, "radii", choose_radii, selection.diagram, precision)
        note("tracking the fiber loop")
        permutation = _stage(
            timings,
            "carousel",
            carousel_permutation,
            selection.diagram,
            radii,
        )
        predicted = predicted_cycle_type(selection.diagram)
        if tuple(sorted(permutation.cycle_type)) != tuple(sorted(predicted)):
            raise StageError(
                "carousel",
                RuntimeError(
                    f"tracked cycle type {permutation.cycle_type} disagrees with "
                    f"the exact prediction {predicted}"
                ),
            )
        fp = fixed_point_verdict(permutation, f_order)

    return AnalysisResult(
        germ_text=germ_text,
        variables=variables,
        germ=germ,
        f_order=f_order,
        mu=mu,
        delta=delta,
        branch_count=r,
        line=selection.line,
        line_attempts=selection.attempts,
        line_forced=forced,
        polar=selection.polar,
        diagram=selection.diagram,
        tangency=tangency,
        radii=radii,
        permutation=permutation,
        predicted_cycles=predicted,
        fixed_point=fp,
        timings_ms=timings,
    )


def ball_pair(ball):
    """[re, im] of the center as floats; a part within the radius of 0 prints 0.0."""
    return [
        0.0 if abs(part) <= ball.radius else float(part)
        for part in (ball.center.real, ball.center.imag)
    ]


def report_dict(result: AnalysisResult, include_timing: bool = True) -> dict:
    """Deterministic JSON-ready report (timing segregated at the end)."""
    line_block = {
        "a": str(result.line.a),
        "b": str(result.line.b),
        "seed": result.line.seed,
        "attempts": result.line_attempts,
        "forced": result.line_forced,
    }
    polar_block = {
        "defining": str(result.polar.defining),
        "removed_factors": [str(p) for p in result.polar.removed_factors],
        "empty_at_origin": result.polar.is_empty_at_origin,
    }
    cerf_block = {
        "defining": str(result.diagram.defining),
        "exponents": [str(e) for e in result.diagram.leading_exponents],
        "tangent": result.tangency.tangent,
        "contact_count": result.diagram.contact_count,
        "note": result.tangency.note,
    }
    carousel_block = None
    if result.permutation is not None:
        perm = result.permutation
        carousel_block = {
            "m": perm.m,
            "cycle_type": list(perm.cycle_type),
            "predicted_cycle_type": list(result.predicted_cycles),
            "sigma": list(perm.sigma),
            "fixed_points": list(perm.fixed_points),
            "steps": perm.steps_used,
            "precision": perm.precision_used,
            "rho": float(result.radii.rho),
            "eta": float(result.radii.eta),
            "base_points": [ball_pair(b) for b in perm.base_points],
        }
    verdicts: dict = {"tangency": result.tangency.status}
    if result.fixed_point is not None:
        verdicts["fixed_point"] = (
            "CONSISTENT" if result.fixed_point.consistent else "INCONSISTENT"
        )
        verdicts["fixed_point_free"] = result.fixed_point.fixed_point_free
        verdicts["predicted_lefschetz"] = result.fixed_point.predicted_lefschetz
        verdicts["note"] = result.fixed_point.note
    out = {
        "schema": "1",
        "germ": result.germ_text,
        "variables": list(result.variables),
        "f_order": result.f_order,
        "in_m_squared": result.in_m_squared,
        "mu": result.mu,
        "delta": result.delta,
        "branch_count": result.branch_count,
        "stratification": "smooth",
        "line": line_block,
        "polar": polar_block,
        "cerf": cerf_block,
        "carousel": carousel_block,
        "verdicts": verdicts,
    }
    if include_timing:
        out["timing"] = dict(result.timings_ms)
    return out
