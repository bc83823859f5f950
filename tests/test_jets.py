import math

import numpy as np
import pytest

from asymptotica import jets
from asymptotica.jets import Jet


def test_variable_seeding():
    x = Jet.variable(2.0, 0, 2, 2)
    assert x.value == 2.0
    assert x.coef[(1, 0)] == 1.0
    assert x.coef.get((0, 1), 0) == 0


def test_product_rule_two_vars():
    x = Jet.variable(2.0, 0, 2, 2)
    y = Jet.variable(3.0, 1, 2, 2)
    p = x * x * y
    assert p.value == 12.0
    assert p.deriv(1, 0) == 12.0  # d/dx x^2 y = 2 x y
    assert p.deriv(0, 1) == 4.0  # d/dy x^2 y = x^2
    assert p.deriv(1, 1) == 4.0  # mixed partial = 2 x
    assert p.deriv(2, 0) == 6.0  # second partial = 2 y


def test_quotient_rule():
    x = Jet.variable(2.0, 0, 1, 3)
    q = 1 / (1 + x)
    # 1/(1+x): derivatives at x=2 are -1/9, 2/27, -6/81
    assert q.value == pytest.approx(1 / 3)
    assert q.deriv(1) == pytest.approx(-1 / 9)
    assert q.deriv(2) == pytest.approx(2 / 27)
    assert q.deriv(3) == pytest.approx(-6 / 81)


def test_chain_rule_sin_of_square():
    x = Jet.variable(0.5, 0, 1, 2)
    s = jets.sin(x * x)
    x0 = 0.5
    assert s.value == pytest.approx(math.sin(x0 * x0))
    assert s.deriv(1) == pytest.approx(2 * x0 * math.cos(x0 * x0))
    assert s.deriv(2) == pytest.approx(
        2 * math.cos(x0 * x0) - 4 * x0 * x0 * math.sin(x0 * x0)
    )


def test_exp_reproduces_itself():
    x = Jet.variable(1.2, 0, 1, 4)
    e = jets.exp(x)
    for k in range(5):
        assert e.deriv(*(k,)) == pytest.approx(math.exp(1.2))


def test_sqrt_derivative():
    x = Jet.variable(4.0, 0, 1, 2)
    r = jets.sqrt(x)
    assert r.value == pytest.approx(2.0)
    assert r.deriv(1) == pytest.approx(0.25)
    assert r.deriv(2) == pytest.approx(-1 / 32)


def test_integer_power_matches_repeated_product():
    x = Jet.variable(1.7, 0, 1, 3)
    assert (x ** 5).coef == pytest.approx((x * x * x * x * x).coef)


def test_negative_power():
    x = Jet.variable(2.0, 0, 1, 2)
    q = x ** -2
    assert q.value == pytest.approx(0.25)
    assert q.deriv(1) == pytest.approx(-2 / 8)


def test_truncation_drops_high_order():
    x = Jet.variable(1.0, 0, 1, 3)
    t = (x * x * x).truncated(2)
    assert t.order == 2
    assert all(sum(k) <= 2 for k in t.coef)


def test_array_valued_jets():
    xs = np.linspace(0.1, 1.0, 7)
    x = Jet.variable(xs, 0, 1, 1)
    s = jets.sin(x) * x
    assert np.allclose(jets.value_of(s), np.sin(xs) * xs)
    assert np.allclose(s.coef[(1,)], np.sin(xs) + xs * np.cos(xs))


def test_seed_mixed_scalars():
    xj, yj, zj = jets.seed((1.0, 2.0, 3.0), 1)
    w = xj * yj + zj
    assert w.value == 5.0
    assert w.deriv(1, 0, 0) == 2.0
    assert w.deriv(0, 1, 0) == 1.0
    assert w.deriv(0, 0, 1) == 1.0


def test_random_products_match_closed_form(seeds):
    # jet of p(x) = (c0 + c1 x)^3 at random points against the polynomial
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(40):
            c0, c1, x0 = rng.uniform(-2, 2, 3)
            x = Jet.variable(x0, 0, 1, 2)
            p = (c0 + c1 * x) ** 3
            base = c0 + c1 * x0
            assert p.value == pytest.approx(base ** 3)
            assert p.deriv(1) == pytest.approx(3 * c1 * base ** 2)
            assert p.deriv(2) == pytest.approx(6 * c1 * c1 * base)
