import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptotica import jets
from asymptotica.exprlang import DomainError, compile_function
from asymptotica.jets import Jet
from asymptotica.spectral import TrigSeries


def test_variable_seeding():
    x = Jet.variable(2.0, 0, 2, 2)
    assert x.value == 2.0
    assert x.coefficient((1, 0)) == 1.0
    assert x.coefficient((0, 1)) == 0


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
    monomials = [(k,) for k in range(4)]
    assert [(x ** 5).coefficient(e) for e in monomials] == pytest.approx(
        [(x * x * x * x * x).coefficient(e) for e in monomials]
    )


def test_negative_power():
    x = Jet.variable(2.0, 0, 1, 2)
    q = x ** -2
    assert q.value == pytest.approx(0.25)
    assert q.deriv(1) == pytest.approx(-2 / 8)


def test_truncation_drops_high_order():
    x = Jet.variable(1.0, 0, 1, 3)
    t = (x * x * x).truncated(2)
    assert t.order == 2
    assert t.coefficient((3,)) == 0
    assert t.coefficient((2,)) == (x * x * x).coefficient((2,))


def test_array_valued_jets():
    xs = np.linspace(0.1, 1.0, 7)
    x = Jet.variable(xs, 0, 1, 1)
    s = jets.sin(x) * x
    assert np.allclose(jets.value_of(s), np.sin(xs) * xs)
    assert np.allclose(s.coefficient((1,)), np.sin(xs) + xs * np.cos(xs))


def test_elementary_functions_on_plain_arrays():
    xs = np.linspace(0.1, 2.0, 9)
    for fn, ref in ((jets.sin, math.sin), (jets.cos, math.cos), (jets.exp, math.exp), (jets.sqrt, math.sqrt)):
        out = fn(xs)
        # numpy for arrays: the values of an array jet through the same function
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, fn(Jet.variable(xs, 0, 1, 2)).value)
        assert np.allclose(out, [ref(x) for x in xs], rtol=1e-15, atol=0)
        # math for floats, bit for bit
        assert type(fn(0.7)) is float and fn(0.7) == ref(0.7)
    with pytest.raises(ValueError):
        jets.sqrt(np.array([1.0, -1e-300]))
    with pytest.raises(DomainError):
        compile_function("sqrt(x)", "x")(np.array([4.0, -1.0]))


def test_numpy_arrays_defer_to_jets():
    xs = np.linspace(0.1, 1.0, 5)
    j = jets.sin(Jet.variable(0.3 * xs, 0, 1, 2))
    for left, right in ((xs + j, j + xs), (xs * j, j * xs)):
        assert type(left) is Jet
        assert all(np.array_equal(left.coefficient((k,)), right.coefficient((k,))) for k in range(3))


def test_seed_mixed_scalars():
    xj, yj, zj = jets.seed((1.0, 2.0, 3.0), 1)
    w = xj * yj + zj
    assert w.value == 5.0
    assert w.deriv(1, 0, 0) == 2.0
    assert w.deriv(0, 1, 0) == 1.0
    assert w.deriv(0, 0, 1) == 1.0


@pytest.mark.parametrize(
    "value, unit",
    [(2.0, float), (np.float64(2.0), float), (np.linspace(0.0, 1.0, 3), float), (2, int), (Fraction(2, 3), int)],
)
def test_variable_unit_takes_the_ring_of_its_value(value, unit):
    x = Jet.variable(value, 0, 1, 2)
    assert type(x.coefficient((1,))) is unit
    # halving a float seed makes a float, never a Fraction (or an object array)
    assert type((x / 2).coefficient((1,))) is (float if unit is float else Fraction)


@pytest.mark.parametrize(
    "values, exact",
    [
        ((1.0, 2.0, 3.0), False),
        ((np.float64(1.0), 2, Fraction(1, 3)), False),
        ((np.linspace(0.0, 1.0, 4), 0, 0), False),
        ((1, 2, 3), True),
        ((Fraction(1, 2), 0, Fraction(-3, 4)), True),
    ],
)
def test_seed_picks_one_ring_per_call(values, exact):
    for i, (s, v) in enumerate(zip(jets.seed(values, 1), values)):
        assert type(s.coefficient(tuple(int(k == i) for k in range(3)))) is (int if exact else float)
        if exact or isinstance(v, np.ndarray):
            assert s.value is v
        else:  # ints and Fractions of a float call become floats
            assert isinstance(s.value, float) and s.value == float(v)


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


# -- products made, immutability, and a naive oracle -------------------------


@pytest.fixture
def products(monkeypatch):
    """A list that gets one entry per call of Jet.__mul__ / __rmul__."""
    calls = []
    multiply = Jet.__mul__

    def counting(a, b):
        calls.append(b)
        return multiply(a, b)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    return calls


@pytest.mark.parametrize("n, made", [(1, 0), (2, 1), (3, 2), (5, 3), (8, 3)])
def test_power_makes_the_fewest_products(products, n, made):
    x = Jet.variable(1.3, 0, 1, 4)
    p = x ** n
    assert len(products) == made
    assert p.coefficient((0,)) == pytest.approx(1.3 ** n)
    assert p.coefficient((1,)) == pytest.approx(n * 1.3 ** (n - 1))


def test_compositions_make_no_unit_products(products):
    x, y, z = jets.seed((0.3, 0.2, 0.1), 2)
    jets.sin(x * y + z)
    assert len(products) == 1 + 3  # x * y, then three in sin
    products.clear()
    jets.exp(Jet.variable(0.4, 0, 1, 4))
    assert len(products) == 7


def _snapshot(j):
    return {e: np.array(j.coefficient(e), copy=True) for e in _monomials(j.nvars, j.order)}


def _unchanged(j, snapshot):
    return all(np.array_equal(j.coefficient(e), c) for e, c in snapshot.items())


@pytest.mark.parametrize("ring", ["float", "array", "exact"])
def test_no_operation_changes_its_operands(ring):
    if ring == "float":
        a0, b0 = 1.5, -0.7
    elif ring == "array":
        a0, b0 = np.array([1.5, 2.0, 0.5]), np.array([-0.7, 0.3, 1.1])
    else:
        a0, b0 = Fraction(3, 2), Fraction(-7, 10)
    x, y = jets.seed((a0, b0), 3)
    a = x * x + y
    b = y * x - x + 2
    before = [_snapshot(j) for j in (x, y, a, b)]
    results = [
        a + b, a - b, a * b, a / b, b + 1, 1 + b, 2 - a, a * 3, 3 * a, a / 3, 3 / a, -a,
        a ** 1, a ** 2, a ** -2, a.partial(0), a.truncated(1), a.nilpotent(),
        a.compose_univariate([a0, b0, a0, b0]),
    ]
    if ring != "exact":
        results += [jets.sin(a), jets.cos(b), jets.exp(a), jets.sqrt(a * a)]
    for r in results:
        r * r + r  # work on the results must not reach back into the operands
    assert all(_unchanged(j, s) for j, s in zip((x, y, a, b), before))


def test_a_coefficient_whose_one_term_is_negative_zero_keeps_its_sign():
    # a coefficient sum starts at its first term, not at 0 (0 + -0.0 is +0.0)
    x = Jet.variable(-0.0, 0, 2, 1)
    a, b = Jet(2, 1, {(0, 0): 1.0}), Jet(2, 1, {(0, 0): 0.5, (0, 1): -0.0})
    product = x * Jet.constant(3.0, 2, 1)  # value: -0.0 * 3.0 alone
    total = a + b  # (0, 1): -0.0 alone
    difference = a - (-b)  # (0, 1): -(0.0) alone
    for c in (product.value, total.coefficient((0, 1)), difference.coefficient((0, 1))):
        assert c == 0 and math.copysign(1.0, c) == -1.0


def _monomials(nvars, order):
    return [e for e in itertools.product(range(order + 1), repeat=nvars) if sum(e) <= order]


def _oracle_mul(a, b, order):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= order:
                out[e] = out.get(e, 0) + ca * cb
    return out


def _oracle_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def _oracle_compose(a, derivs, order):
    """sum_k derivs[k] / k! (a - a(0))^k with powers by repeated products."""
    zero = (0,) * len(next(iter(a)))
    h = {e: c for e, c in a.items() if any(e)}
    out, power = {zero: derivs[0]}, {zero: 1}
    for k in range(1, min(len(derivs), order + 1)):
        power = _oracle_mul(power, h, order)
        out = _oracle_add(out, {e: c * derivs[k] / math.factorial(k) for e, c in power.items()})
    return out


def _oracle_reciprocal(a, order):
    zero = (0,) * len(next(iter(a)))
    a0 = a[zero]
    inverse = Fraction(1) / a0 if isinstance(a0, (int, Fraction)) else 1 / a0
    derivs = [(-1) ** k * math.factorial(k) * inverse ** (k + 1) for k in range(order + 1)]
    return _oracle_compose(a, derivs, order)


def _oracle_pow(a, n, order):
    zero = (0,) * len(next(iter(a)))
    out = {zero: 1}
    for _ in range(abs(n)):
        out = _oracle_mul(out, a, order)
    return _oracle_reciprocal(out, order) if n < 0 else out


def _agrees(jet, want, ring):
    """Exact rings compare equal; float and array coefficients agree to 1e-14
    relative to the largest coefficient of the oracle's result (per point)."""
    exps = _monomials(jet.nvars, jet.order)
    got = [jet.coefficient(e) for e in exps]
    expected = [want.get(e, 0) for e in exps]
    if ring == "exact":
        return got == expected and all(isinstance(c, (int, Fraction)) for c in got)
    got, expected = np.array(np.broadcast_arrays(*got), dtype=float), np.array(np.broadcast_arrays(*expected), dtype=float)
    scale = np.max(np.abs(expected), axis=0)
    return bool(np.all(np.abs(got - expected) <= 1e-14 * scale))


def _random_coefficient(rnd, ring, low=-1.0, high=1.0):
    if ring == "exact":
        return Fraction(rnd.randint(int(low * 8), int(high * 8)), rnd.randint(1, 8))
    if ring == "array":
        return np.array([rnd.uniform(low, high) for _ in range(3)])
    return rnd.uniform(low, high)


def _random_terms(rnd, ring, nvars, order):
    """A sparse coefficient dict in random insertion order, with a value in [1, 2]."""
    exps = _monomials(nvars, order)
    rnd.shuffle(exps)
    terms = {e: _random_coefficient(rnd, ring) for e in exps if any(e) and rnd.random() < 0.5}
    terms[(0,) * nvars] = _random_coefficient(rnd, ring, 1.0, 2.0)
    return terms


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(rnd=st.randoms(use_true_random=False))
def test_kernel_matches_a_naive_product_oracle(rnd):
    nvars, order, ring = rnd.randint(1, 3), rnd.randint(0, 4), rnd.choice(["float", "array", "exact"])
    ta, tb = _random_terms(rnd, ring, nvars, order), _random_terms(rnd, ring, nvars, order)
    a, b = Jet(nvars, order, ta), Jet(nvars, order, tb)
    n = rnd.randint(-3, 6)
    derivs = [_random_coefficient(rnd, ring) for _ in range(order + 1)]
    s = _random_coefficient(rnd, ring, 1.0, 2.0)
    # a numpy array on the left of an operator would broadcast over the jet itself
    left = _random_coefficient(rnd, "float" if ring == "array" else ring, 1.0, 2.0)
    zero = (0,) * nvars
    cases = [
        (a * b, _oracle_mul(ta, tb, order)),
        (a * s, _oracle_mul(ta, {zero: s}, order)),
        (a + b, _oracle_add(ta, tb)),
        (left + a, _oracle_add(ta, {zero: left})),
        (a - b, _oracle_add(ta, tb, -1)),
        (left - a, _oracle_add({zero: left}, ta, -1)),
        (a ** n, _oracle_pow(ta, n, order)),
        (a / b, _oracle_mul(ta, _oracle_reciprocal(tb, order), order)),
        (left / a, _oracle_mul({zero: left}, _oracle_reciprocal(ta, order), order)),
        (a.compose_univariate(derivs), _oracle_compose(ta, derivs, order)),
    ]
    for k, (jet, want) in enumerate(cases):
        assert _agrees(jet, want, ring), (k, nvars, order, ring)


def _bits(j):
    """Each coefficient of j with its type: the bytes of a float or an array, an exact value itself."""
    out = []
    for e in _monomials(j.nvars, j.order):
        c = j.coefficient(e)
        out.append((e, type(c), c if isinstance(c, (int, Fraction)) else np.asarray(c).tobytes()))
    return out


def _linear(terms):
    """The terms of x-degree at most 1 (the first variable's)."""
    return {e: c for e, c in terms.items() if e[0] <= 1}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(rnd=st.randoms(use_true_random=False))
def test_the_table_linear_in_x_matches_the_oracle_restricted_to_it(rnd):
    # products, powers (** 0 included), quotients, compositions, partials and
    # truncations of jets whose first variable has exponent at most 1 agree
    # with the naive oracle restricted to those monomials, stay in a table of
    # that kind, and give the same bits as the full table restricted after
    nvars, order, ring = rnd.randint(1, 3), rnd.randint(0, 4), rnd.choice(["float", "array", "exact"])
    ta, tb = _random_terms(rnd, ring, nvars, order), _random_terms(rnd, ring, nvars, order)
    fa, fb = Jet(nvars, order, ta), Jet(nvars, order, tb)
    a, b = fa.restricted(1), fb.restricted(1)
    table = jets._Monomials(nvars, order, 1)
    assert a._table is table and all(e[0] <= 1 for e in table.exponents)
    ta, tb = _linear(ta), _linear(tb)
    n = rnd.randint(-3, 6)
    derivs = [_random_coefficient(rnd, ring) for _ in range(order + 1)]
    s = _random_coefficient(rnd, ring, 1.0, 2.0)
    cases = [
        (a * b, fa * fb, _oracle_mul(ta, tb, order)),
        (a * s, fa * s, _oracle_mul(ta, {(0,) * nvars: s}, order)),
        (a ** n, fa ** n, _oracle_pow(ta, n, order)),
        (a ** 0, fa ** 0, {(0,) * nvars: 1}),
        (a / b, fa / fb, _oracle_mul(ta, _oracle_reciprocal(tb, order), order)),
        (a._reciprocal(), fa._reciprocal(), _oracle_reciprocal(ta, order)),
        (a.compose_univariate(derivs), fa.compose_univariate(derivs), _oracle_compose(ta, derivs, order)),
    ]
    for k, (jet, full, want) in enumerate(cases):
        assert jet._table is table, k
        assert _agrees(jet, _linear(want), ring), (k, nvars, order, ring)
        assert _bits(jet) == _bits(full.restricted(1)), k
    k = rnd.randint(0, order)
    assert a.truncated(k)._table is jets._Monomials(nvars, k, 1)
    assert _bits(a.truncated(k)) == _bits(fa.truncated(k).restricted(1))
    if order:
        for v in range(nvars):
            d = a.partial(v)
            assert d._table is jets._Monomials(nvars, order - 1, 1)
            # x's partial lowers x-degree 1 to 0; the full table's x^2 terms would fill x-degree 1
            want = fa.partial(v).restricted(0 if v == 0 else 1)
            assert _bits(d.restricted(0 if v == 0 else 1)) == _bits(want), v


def test_the_x_seed_composes_to_first_degree_and_a_y_seed_to_every_order():
    full = jets.seed((0.3, 0.7, -0.2), 4)
    x, y, z = (s.restricted(1) for s in full)
    assert (x.composition_order, y.composition_order, z.composition_order) == (1, 4, 4)
    h = x.nilpotent()
    assert (x * x).composition_order == 1 and not (h * h)._coef
    assert (x + y).composition_order == 4 and full[0].composition_order == 4
    series = TrigSeries([0.5, -1.0, 0.25], [0.0, 0.75, -0.5], 2 * math.pi)
    y_powers, x_powers = [(0, k, 0) for k in range(5)], [(0, 0, 0), (1, 0, 0)]
    for fn in (jets.sin, jets.cos, jets.exp, jets.sqrt, series):
        # every y-derivative to order 4, bit for bit those of the full seed
        got, want = fn(y), fn(full[1])
        assert [got.coefficient(e) for e in y_powers] == [want.coefficient(e) for e in y_powers]
        assert want.coefficient((0, 4, 0)) != 0
        # x's to first order, and none past the cap
        got, want = fn(x), fn(full[0])
        assert [got.coefficient(e) for e in x_powers] == [want.coefficient(e) for e in x_powers]
        assert got.coefficient((2, 0, 0)) == 0 != want.coefficient((2, 0, 0))


def test_a_product_never_forms_a_pair_past_the_cap():
    # a pair past the first variable's cap has no number, like a pair past the order,
    # so a product skips it: x * x forms 3 of its 4 coefficient products
    table = jets._Monomials(3, 3, 1)
    x = jets.seed((0.5, 0.0, 0.0), 3)[0].restricted(1)
    i = table.index[(1, 0, 0)]
    assert table.rows[i][i] is None and table.rows[i][0] == i
    formed = []

    class Counted(float):
        def __mul__(self, other):
            formed.append((float(self), float(other)))
            return float(self) * float(other)

    counted = jets._jet(table, {k: Counted(c) for k, c in x._coef.items()})
    square = counted * counted
    assert sorted(formed) == [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5)]
    assert sorted(square._coef) == [0, 1] and square.coefficient((1, 0, 0)) == 1.0
    # a cap of 0 leaves no pair past it: every pair within the order has its number
    transverse = jets._Monomials(3, 3, 0)
    assert all(
        (k is None) == (sum(a) + sum(b) > 3)
        for a, row in zip(transverse.exponents, transverse.rows)
        for b, k in zip(transverse.exponents, row)
    )


def _shaped_terms(rnd, nvars, order, shapes):
    """A sparse coefficient dict whose coefficients draw their shapes from
    shapes, with a value in [1, 2] of the first shape."""
    def coefficient(shape, low=-1.0, high=1.0):
        return np.array([rnd.uniform(low, high) for _ in range(math.prod(shape))]).reshape(shape)

    terms = {e: coefficient(rnd.choice(shapes)) for e in _monomials(nvars, order) if any(e) and rnd.random() < 0.5}
    terms[(0,) * nvars] = coefficient(shapes[0], 1.0, 2.0)
    return terms


def _row(c, k):
    """Row k of a coefficient of shape (m, n); one of shape (n,) is every row's."""
    return c[k] if c.ndim == 2 else c


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(rnd=st.randoms(use_true_random=False))
def test_mixed_coefficient_shapes_broadcast_row_by_row(rnd):
    # a jet whose value has shape (m, n) and whose other coefficients mix (n,)
    # and (m, n), as a bumped coefficient column of a chart pass does, against
    # one of shape (n,): each row k of a result has the bits of the same
    # operation on row k of the operands, whose coefficients are all (n,)
    nvars, order, m, n = rnd.randint(1, 3), rnd.randint(0, 4), 3, 4
    ta = _shaped_terms(rnd, nvars, order, [(m, n), (n,)])
    tb = _shaped_terms(rnd, nvars, order, [(n,)])
    derivs = [rnd.choice([np.full((m, n), rnd.uniform(-1, 1)), np.full(n, rnd.uniform(-1, 1))]) for _ in range(order + 1)]
    p = rnd.randint(-3, 6)

    def cases(a, b, derivs):
        return [
            a * b, b * a, a + b, b - a, a - b, a / b, b / a, a ** p,
            a.compose_univariate(derivs), b.compose_univariate(derivs),
        ]

    got = cases(Jet(nvars, order, ta), Jet(nvars, order, tb), derivs)
    assert got[0].value.shape == (m, n)
    for k in range(m):
        a = Jet(nvars, order, {e: _row(c, k) for e, c in ta.items()})
        rows = cases(a, Jet(nvars, order, tb), [_row(d, k) for d in derivs])
        for case, (jet, row) in enumerate(zip(got, rows)):
            for e in _monomials(nvars, order):
                c, want = np.asarray(jet.coefficient(e), dtype=float), np.asarray(row.coefficient(e), dtype=float)
                assert np.broadcast_to(c, (m, n))[k].tobytes() == np.broadcast_to(want, (n,)).tobytes(), (case, k, e)
