import inspect

import asymptotica
from asymptotica import flow, monodromy

# The public names, spelled out: adding, renaming or removing one has to
# change this list too, so it never happens by accident.
PUBLIC_NAMES = [
    "AmbientField",
    "ChartSpectralCache",
    "ConstructError",
    "Curve",
    "EllipticStop",
    "FlowError",
    "MonodromyResult",
    "ParabolicOnCurve",
    "ParamSurface",
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
    "finite_type_symbol_numeric",
    "gauge_scale",
    "gaussian_curvature",
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


def test_public_names_are_exactly_the_listed_ones():
    assert asymptotica.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in asymptotica.__all__:
        assert getattr(asymptotica, name) is not None, name


# The parameters of the entry points, spelled out for the same reason: an
# option is added or removed on purpose, together with this list.
PARAMETERS = {
    asymptotica.ChartSpectralCache: ["field", "chart", "period"],
    asymptotica.ParamSurface: ["alpha", "name"],
    asymptotica.TubularChart: ["curve"],
    asymptotica.TubularField: ["curve", "coefficients", "name"],
    asymptotica.arnold_surface: ["m", "n", "samples"],
    asymptotica.branch_slopes: ["e", "f", "g", "prev_p"],
    asymptotica.build_lac: ["curve", "H", "l1"],
    asymptotica.build_t1: [],
    asymptotica.chart_data: ["field", "chart", "x", "y", "z", "order", "program"],
    asymptotica.classify: ["field", "chart", "point"],
    asymptotica.fd_poincare_derivative: ["field", "chart", "period", "h", "cache"],
    asymptotica.finite_type_symbol: ["curve", "x"],
    asymptotica.finite_type_symbol_numeric: ["curve", "x"],
    asymptotica.gauge_scale: ["field", "phi_source"],
    asymptotica.integrate_asymptotic: ["field", "chart", "start", "x1", "rtol", "atol"],
    asymptotica.integrate_batch: ["field", "chart", "starts", "x0", "x1", "rtol", "atol", "cache"],
    asymptotica.normal_curvature: ["field", "p", "dr"],
    asymptotica.realize_t5: ["curve"],
    flow.rk45: ["rhs", "x0", "x1", "y0", "rtol", "atol", "on_accept", "coefficients"],
    monodromy.VariationalCache: ["field", "chart", "period", "chart_cache"],
    monodromy.monodromy: ["field", "chart", "period", "cache"],
}


def test_entry_point_parameters_are_exactly_the_listed_ones():
    for entry, names in PARAMETERS.items():
        assert list(inspect.signature(entry).parameters) == names, entry.__qualname__
