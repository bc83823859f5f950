"""A closed-form hyperbolic saddle whose M is not triangular.

The field is circle-example's rotation-invariant family with p = -1,
q = t = 1/2, s = 0: the adapted frame of the unit circle turns with the
point, so M(x) is the constant [[-3, 5], [-1, 2]] and Q = exp(2 pi M)
exactly, with eigenvalues exp(pi (-1 +- sqrt 5)).  The bounds are the
measured deviations times a margin of at least 4.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from asymptotica import monodromy

M = np.array([[-3.0, 5.0], [-1.0, 2.0]])  # the saddle fixture's M (tests/conftest.py)


def test_saddle_variational_matrix_is_constant(saddle):
    # measured 1.8e-15
    xs = np.linspace(0.0, 2 * math.pi, 17)
    assert np.max(np.abs(monodromy.variational_matrix(*saddle, xs) - M)) <= 1e-14


@pytest.mark.parametrize("cache", [None, False])
def test_saddle_q_is_the_matrix_exponential(saddle, cache):
    # measured, relative to max |exp(2 pi M)|: 2.48e-12 cached, 2.48e-12 direct;
    # the large eigenvalue 2.46e-12 and 2.47e-12, the small one (det/large with
    # Liouville's det) 2.45e-12 on both; the trace integral exactly -2 pi on both
    result = monodromy.monodromy(*saddle, 2 * math.pi, cache=cache)
    want = scipy.linalg.expm(2 * math.pi * M)
    assert np.max(np.abs(result.Q - want)) <= 1e-11 * np.max(np.abs(want))
    large = math.exp(math.pi * (math.sqrt(5) - 1))
    assert abs(max(abs(ev) for ev in result.eigenvalues) - large) <= 1e-11 * large
    small = math.exp(-math.pi * (1 + math.sqrt(5)))
    assert abs(min(abs(ev) for ev in result.eigenvalues) - small) <= 1e-11 * small
    assert result.hyperbolic and not result.triangular
    assert abs(result.integrals["trace"] + 2 * math.pi) <= 1e-12
    assert result.stats["det_nonpositive"] == 0
