import json
import math

import pytest

from asymptotica import cli, construct, monodromy, tubular


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


@pytest.fixture(scope="session")
def t1_monodromy(t1_field, t1_chart):
    return monodromy.monodromy(t1_field, t1_chart, 2.0 * math.pi)
