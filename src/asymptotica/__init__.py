"""Asymptotic lines of plane fields in R^3.

Construct plane fields realizing prescribed finite-type curves as
parabolic-free asymptotic lines, integrate asymptotic lines near a core
curve, and certify hyperbolicity of a closed asymptotic line through the
variational equation of its first-return map.
"""

from . import exprlang, jets
from .curves import Curve, finite_type_symbol, is_starlike_projection
from .planefield import (
    AmbientField,
    circle_example_field,
    gauge_scale,
    integrability_defect,
    normal_curvature,
)
from .tubular import (
    PointClass,
    ReductionSingular,
    TubularChart,
    binary_equation_data,
    chart_data,
    classify,
)
from .construct import (
    ConstructError,
    TubularField,
    build_lac,
    build_t1,
    k1_function,
    realize_t5,
    t1_curve,
)
from .flow import (
    ChartSpectralCache,
    EllipticStop,
    FlowError,
    Path,
    VerticalDirection,
    branch_slopes,
    integrate_asymptotic,
    integrate_batch,
)
from . import monodromy
from .monodromy import (
    MonodromyResult,
    ParabolicOnCurve,
    fd_poincare_derivative,
    variational_matrix,
)
from .surfaces import (
    arnold_k1,
    arnold_surface,
    f_on_curve,
    second_fundamental,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientField",
    "ChartSpectralCache",
    "ConstructError",
    "Curve",
    "EllipticStop",
    "FlowError",
    "MonodromyResult",
    "ParabolicOnCurve",
    "Path",
    "PointClass",
    "ReductionSingular",
    "TubularChart",
    "TubularField",
    "VerticalDirection",
    "arnold_k1",
    "arnold_surface",
    "binary_equation_data",
    "branch_slopes",
    "build_lac",
    "build_t1",
    "chart_data",
    "circle_example_field",
    "classify",
    "exprlang",
    "f_on_curve",
    "fd_poincare_derivative",
    "finite_type_symbol",
    "gauge_scale",
    "integrability_defect",
    "integrate_asymptotic",
    "integrate_batch",
    "is_starlike_projection",
    "jets",
    "k1_function",
    "monodromy",
    "normal_curvature",
    "realize_t5",
    "second_fundamental",
    "t1_curve",
    "variational_matrix",
]
