"""Polar curves, Cerf diagrams and carousel monodromy of plane-curve germs."""

from .family import (
    CoalescingVerdict,
    ConservationReport,
    CriticalRecord,
    FamilyGerm,
    coalescing_verdict,
    conservation_check,
    critical_points,
)
from .gaussian import GaussianRational
from .homology import (
    IntegerMatrix,
    MarkedDiskComplex,
    h1_of_quotient,
    lefschetz_number,
    rotation_action,
    smith_normal_form,
)
from .polar import (
    CerfDiagram,
    GenericityError,
    LinearForm,
    PolarCurve,
    cerf_diagram,
    diagram_from_defining,
    pick_generic_line,
    polar_curve,
    select_generic_line,
    tangency_report,
)
from .poly import (
    ParseError,
    Polynomial,
    PolynomialError,
    divexact,
    linear_change,
    parse_polynomial,
    poly_gcd,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)
from .puiseux import (
    BranchDecomposition,
    ExactBranch,
    NewtonSegment,
    PuiseuxBranch,
    branch_structure,
    delta_invariant,
    intersection_multiplicity,
    milnor_number,
    newton_polygon,
    puiseux_branches,
)
from .report import AnalysisResult, StageError, analyze_germ, report_dict
from .roots import ComplexBall, PrecisionError, univariate_roots
from .tracking import (
    CarouselPermutation,
    CarouselRadii,
    carousel_permutation,
    choose_radii,
    fixed_point_verdict,
    predicted_cycle_type,
)

__version__ = "0.1.0"
