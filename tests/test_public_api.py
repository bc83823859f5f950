import asymptotica

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
    "binary_equation",
    "binary_equation_data",
    "branch_slopes",
    "build_field",
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
    "integrate_surface_asymptotic",
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
