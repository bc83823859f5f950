import json
import math

import pytest

from asymptotica import cli, construct, monodromy, tubular
from asymptotica.curves import Curve


@pytest.fixture(scope="session")
def seeds():
    # $ASYMPTOTICA_SEED as the CLI reads it: a non-negative integer, else 0
    s = cli.default_seed()
    return (s, s + 1, s + 2)


@pytest.fixture(scope="session")
def t1_field():
    return construct.build_t1()


@pytest.fixture(scope="session")
def t1_chart(t1_field):
    return tubular.TubularChart(t1_field.curve)


# ROADMAP item 15's hyperbolic saddle, a field document whose M is the
# constant [[-3, 5], [-1, 2]] (tests/test_saddle.py)
SADDLE = {
    "xi": [
        "y*(x^2*z + y^2*z - x^2 - y^2 - 3*z + 1 + (x^2+y^2-1)/2) + x*(z + (x^2+y^2-1)/2)",
        "-x*(x^2*z + y^2*z - x^2 - y^2 - 3*z + 1 + (x^2+y^2-1)/2) + y*(z + (x^2+y^2-1)/2)",
        "-x^2 - y^2",
    ],
    "curve": "circle",
}


@pytest.fixture(scope="session")
def saddle():
    return cli.resolve_field(json.dumps(SADDLE))


def _rotated(source):
    """source at R^T p, R the rotation by cos = 3/5, sin = 4/5 about the x axis."""
    return source.replace("y", "Y").replace("z", "((-4*y + 3*z)/5)").replace("Y", "((3*y + 4*z)/5)")


@pytest.fixture(scope="session")
def tilted_saddle():
    # the saddle turned by R (the field R xi(R^T p), the circle R gamma) and run at
    # period 3, which does not divide 2 pi: the adapted frame of the tilted circle does
    # not turn with the rotation, so M varies along it; the orbit and its eigenvalues
    # exp(pi (-1 +- sqrt 5)) stay (tests/test_saddle.py)
    xi1, xi2, xi3 = map(_rotated, SADDLE["xi"])
    field = cli.resolve_field(json.dumps({"xi": [xi1, f"(3*({xi2}) - 4*({xi3}))/5", f"(4*({xi2}) + 3*({xi3}))/5"]}))[0]
    curve = Curve.from_expressions(("cos(2*pi*x/3)", "3*sin(2*pi*x/3)/5", "4*sin(2*pi*x/3)/5"), (0.0, 3.0), closed=True)
    return field, tubular.TubularChart(curve)


@pytest.fixture(scope="session")
def t1_monodromy(t1_field, t1_chart):
    return monodromy.monodromy(t1_field, t1_chart, 2.0 * math.pi)
