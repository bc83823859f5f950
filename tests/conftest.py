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


@pytest.fixture(scope="session")
def t1_monodromy(t1_field, t1_chart):
    return monodromy.monodromy(t1_field, t1_chart, 2.0 * math.pi)
