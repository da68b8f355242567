"""Polynomial scalar fields: parsing, arithmetic, differentiation."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import algebroidlab as al
from algebroidlab.calculus import _mat_dot
from algebroidlab.classes import _cycle_trace
from algebroidlab.fields import (
    MAX_EXPONENT,
    Chart,
    ScalarField,
    _join,
    _split,
    _split_values,
    as_field,
    dot,
    parse_field,
    perm_sign,
)
from algebroidlab.errors import (
    DimensionMismatchError,
    ExponentTooLargeError,
    ExpressionSyntaxError,
    ShapeMismatchError,
    UnknownVariableError,
)

CHART2 = Chart(2)


def test_parse_basic():
    f = parse_field(CHART2, "3*x1^2 - x2 + 1")
    assert f.evaluate((2.0, 5.0)) == 3 * 4 - 5 + 1
    assert f.evaluate((0.0, 0.0)) == 1.0


def test_parse_power_and_product():
    f = parse_field(CHART2, "x1*x2^3")
    assert f.evaluate((2.0, 3.0)) == 2 * 27


def test_parse_leading_minus():
    f = parse_field(CHART2, "-x1 - 2")
    assert f.evaluate((3.0, 0.0)) == -5.0


def test_parse_collects_repeated_monomials():
    f = parse_field(CHART2, "x1*x2 + x2*x1 - 2*x1*x2")
    assert f.is_zero()


def test_parse_rejects_parentheses():
    with pytest.raises(ExpressionSyntaxError):
        parse_field(CHART2, "(x1 + x2)")


def test_parse_float_literal():
    f = parse_field(CHART2, "0.5*x1 + 2.25")
    assert f.evaluate((4.0, 0.0)) == 4.25


def test_parse_syntax_error():
    with pytest.raises(ExpressionSyntaxError):
        parse_field(CHART2, "x1 +* x2")
    with pytest.raises(ExpressionSyntaxError):
        parse_field(CHART2, "(x1")


def test_parse_rejects_non_finite_numbers():
    for text in ("1e999*x1", "1e200*1e200", "1e308 + 1e308"):
        with pytest.raises(ExpressionSyntaxError):
            parse_field(CHART2, text)


def test_as_field_coerces_and_checks():
    assert as_field(CHART2, "x1 + 1") == parse_field(CHART2, "x1 + 1")
    assert as_field(CHART2, 2) == ScalarField.constant(CHART2, 2.0)
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ExpressionSyntaxError):
            as_field(CHART2, bad)
    with pytest.raises(DimensionMismatchError):
        as_field(CHART2, ScalarField.constant(Chart(1), 1.0))
    # numbers of any kind read as float() reads them
    for num in (np.int64(-3), np.float32(0.5), Fraction(1, 4), 2 ** 60 + 1):
        assert as_field(CHART2, num) == ScalarField.constant(CHART2, num)
    # None, bools and other values are refused, naming the entry
    for bad in (None, True, False, np.bool_(True), {}, [1.0], object()):
        with pytest.raises(ExpressionSyntaxError,
                           match="is not a field, expression or number"):
            as_field(CHART2, bad)
    with pytest.raises(ExpressionSyntaxError,
                       match=r"^None is not a field, expression or number$"):
        as_field(CHART2, None)


def test_parse_field_reads_only_text():
    # the str() of another value is not its expression: on a chart with a
    # coordinate named None, None is still not that coordinate
    chart = Chart(2, ("None", "True"))
    for bad in (None, True, 3, 2.5, ["x1"]):
        with pytest.raises(ExpressionSyntaxError,
                           match=r"^%s is not an expression$"
                           % re.escape(repr(bad))):
            parse_field(chart, bad)
    assert parse_field(chart, "None") == ScalarField.coordinate(chart, 0)


def test_perm_sign_is_permutation_matrix_determinant():
    assert perm_sign(()) == 1
    assert perm_sign((7, 2)) == -1
    for perm in itertools.permutations(range(4)):
        assert perm_sign(perm) == round(np.linalg.det(np.eye(4)[list(perm)]))


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse_field(CHART2, "x3 + 1")


def test_custom_labels():
    chart = Chart(2, ("u", "v"))
    f = parse_field(chart, "u^2 + v")
    assert f.evaluate((3.0, 1.0)) == 10.0
    with pytest.raises(UnknownVariableError):
        parse_field(chart, "x1")


def test_partial_derivative():
    f = parse_field(CHART2, "x1^3*x2 + 4*x1")
    fx = f.partial(0)
    assert (fx - parse_field(CHART2, "3*x1^2*x2 + 4")).is_zero()
    fxy = f.partial(0).partial(1)
    assert (fxy - parse_field(CHART2, "3*x1^2")).is_zero()


def test_partials_commute():
    f = parse_field(CHART2, "x1^2*x2^3 - 2*x1*x2")
    a = f.partial(0).partial(1)
    b = f.partial(1).partial(0)
    assert (a - b).is_zero()


def test_constant_and_coordinate():
    c = ScalarField.constant(CHART2, 7.5)
    assert c.is_constant()
    assert c.constant_value() == 7.5
    x = ScalarField.coordinate(CHART2, 1)
    assert x.evaluate((0.0, 4.0)) == 4.0


def test_zero_dimensional_chart():
    chart = Chart(0)
    c = ScalarField.constant(chart, 3.0)
    assert c.evaluate(()) == 3.0
    assert (c * c).evaluate(()) == 9.0


def test_to_string_clean_constants():
    assert str(ScalarField.constant(CHART2, 1.0)) == "1"
    assert str(ScalarField.constant(CHART2, -2.0)) == "-2"
    assert str(ScalarField(CHART2)) == "0"


def test_to_string_round_trip():
    texts = ["x1^2 - 3*x2 + 1", "-x1*x2", "0.25*x2^3 + x1"]
    for text in texts:
        f = parse_field(CHART2, text)
        g = parse_field(CHART2, str(f))
        assert (f - g).is_zero()


def test_check_point_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        CHART2.check_point((1.0,))


def test_check_point_reads_only_numbers(catalog):
    # True is not the coordinate 1, nor "0" the coordinate 0: each is
    # refused where a point is read, as in every field array
    so3 = catalog["so3_action"]
    for bad in ((True, "0", 0), (1.0, np.False_, 0.0), ("1", 0, 0),
                (1.0, None, 0.0), (1.0, [0.0], 0.0)):
        with pytest.raises(DimensionMismatchError,
                           match="^point coordinates must be numbers$"):
            al.anchor_rank_at(so3, bad)
    with pytest.raises(DimensionMismatchError, match="numbers"):
        parse_field(CHART2, "x1").evaluate((1.0, "2"))
    # numpy's and Python's ints, floats and fractions are numbers
    for good in ((1, 0, 0), (np.int32(1), np.float32(0.0), Fraction(0)),
                 np.array([1.0, 0.0, 0.0]), [np.int64(1), 0.0, -0.0]):
        assert CHART2.check_point(good[:2]) == (1.0, 0.0)
        assert al.anchor_rank_at(so3, good) == 2


def test_non_integral_exponents_and_powers_are_rejected():
    with pytest.raises(DimensionMismatchError):
        ScalarField(CHART2, {(1.5, 0): 1.0})
    f = ScalarField(CHART2, {(np.int64(1), np.int32(2)): 3.0, (1.0, 0): 1.0})
    assert list(f.coeffs) == [(1, 2), (1, 0)]
    assert all(type(e) is int for key in f.coeffs for e in key)
    x = ScalarField.coordinate(CHART2, 0)
    assert x ** 2.0 == x ** 2 == x * x
    for bad in (2.5, -1, math.nan, math.inf):
        with pytest.raises(ValueError):
            x ** bad


def test_max_abs_coeff():
    f = parse_field(CHART2, "3*x1 - 7*x2^2 + 2")
    assert f.max_abs_coeff() == 7.0


coeff = st.integers(min_value=-9, max_value=9)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(coeff, min_size=6, max_size=6),
       st.lists(coeff, min_size=6, max_size=6))
def test_product_matches_pointwise(u, v):
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    f = ScalarField(CHART2, {e: float(c) for e, c in zip(exps, u)})
    g = ScalarField(CHART2, {e: float(c) for e, c in zip(exps, v)})
    h = f * g
    for p in [(0.0, 0.0), (1.0, -1.0), (0.5, 2.0), (-1.5, 0.25)]:
        assert math.isclose(h.evaluate(p), f.evaluate(p) * g.evaluate(p),
                            rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(coeff, min_size=6, max_size=6),
       st.lists(coeff, min_size=6, max_size=6))
def test_leibniz_rule(u, v):
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    f = ScalarField(CHART2, {e: float(c) for e, c in zip(exps, u)})
    g = ScalarField(CHART2, {e: float(c) for e, c in zip(exps, v)})
    lhs = (f * g).partial(0)
    rhs = f.partial(0) * g + f * g.partial(0)
    assert (lhs - rhs).is_zero()


# --------------------------------------------------- kernels, property tests
#
# Closed operations build their results without re-validation, so each one
# is checked against the validating constructor, and the fused ``dot`` and
# the field-matrix products against the chained sums they replace. Exact
# coefficients (quarter-integers) make algebraic identities exact; general
# ones include products that underflow to zero and must be dropped.

CHARTS = [Chart(m) for m in range(5)]
exact_coeff = st.integers(min_value=-36, max_value=36).map(lambda k: k / 4)
any_coeff = st.one_of(exact_coeff,
                      st.floats(min_value=-1e3, max_value=1e3),
                      st.sampled_from([1e-170, -3e-170]))


@st.composite
def field_lists(draw, n, coeffs=any_coeff):
    """n fields on one chart of dimension 0 to 3; every other one is built
    on an equal but distinct Chart object."""
    m = draw(st.integers(min_value=0, max_value=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * m)
    return [ScalarField(CHARTS[m] if i % 2 == 0 else Chart(m),
                        draw(st.dictionaries(exps, coeffs, max_size=6)))
            for i in range(n)]


def assert_canonical(h):
    assert h == ScalarField(h.chart, dict(h.coeffs))
    for e, c in h.coeffs.items():
        assert type(e) is tuple and len(e) == h.chart.dimension
        assert all(type(x) is int and x >= 0 for x in e)
        assert type(c) is float and c != 0.0


def bits(f):
    """Coefficients in dict order, bit for bit."""
    return [(e, c.hex()) for e, c in f.coeffs.items()]


def chained(chart, pairs, start=None):
    total = ScalarField(chart) if start is None else start
    for a, b in pairs:
        total = total + a * b
    return total


@st.composite
def field_matrix_pairs(draw):
    """Two n by n field matrices on one chart, n from 1 to 3."""
    n = draw(st.integers(min_value=1, max_value=3))
    entries = draw(field_lists(2 * n * n))
    return (np.array(entries[:n * n], dtype=object).reshape(n, n),
            np.array(entries[n * n:], dtype=object).reshape(n, n))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(field_lists(6), st.integers(min_value=0, max_value=3))
def test_closed_operations_build_canonical_fields(fs, n):
    f, g = fs[:2]
    pairs = list(zip(fs[::2], fs[1::2]))
    results = [f + g, f - g, -f, f * g, f ** n, dot(f.chart, pairs),
               f + 2, 2 - f, 0.5 * f, f * 0]
    results += [f.partial(i) for i in range(f.chart.dimension)]
    for h in results:
        assert_canonical(h)
    assert (f - f).is_zero()
    assert bits(dot(f.chart, pairs)) == bits(chained(f.chart, pairs))
    assert bits(dot(f.chart, [])) == []
    # a start field, and a subtraction as the product with a negated factor
    want = g - fs[2] * fs[3]
    for a, b in pairs:
        want = want + a * b
    got = dot(f.chart, [(-fs[2], fs[3])] + pairs, start=g)
    assert bits(got) == bits(want)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_lists(2, coeffs=exact_coeff))
def test_products_commute_exactly(fs):
    f, g = fs
    assert (f * g - g * f).is_zero()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(field_matrix_pairs())
def test_field_matrix_products_match_chained_sums(mats):
    a, b = mats
    n = a.shape[0]
    chart = a[0, 0].chart
    prod = _mat_dot([(a, b)])
    # several pairs, a scalar factor and a start matrix, in pair order
    c = a[0, 0]
    total = _mat_dot([(a, b), (-b, a), (c, b)], start=b)
    for i in range(n):
        for j in range(n):
            want = chained(chart, [(a[i, k], b[k, j]) for k in range(n)])
            assert bits(prod[i, j]) == bits(want)
            want = chained(chart, [(a[i, k], b[k, j]) for k in range(n)]
                           + [(-b[i, k], a[k, j]) for k in range(n)]
                           + [(c, b[i, j])], start=b[i, j])
            assert bits(total[i, j]) == bits(want)
    assert bits(_cycle_trace([a, b])) == bits((a * b.T).sum())
    # a rectangular product, rows of a times n copies of flattened b
    wide = np.stack([b.reshape(-1)] * n)
    flat = _mat_dot([(a, wide)])
    assert flat.shape == (n, n * n)
    for i, j in np.ndindex(n, n * n):
        want = chained(chart, [(a[i, k], wide[k, j]) for k in range(n)])
        assert bits(flat[i, j]) == bits(want)


# A reference for products, powers and ``dot`` that shares no code with
# them. An exponent above the limit raises when it would be in a result, so
# each case asserts either bit equality with the reference or that error.

def ref_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0.0}


def ref_sum(a, b):
    out = dict(a)
    for e, c in b.items():
        c = out.get(e, 0.0) + c
        if c != 0.0:
            out[e] = c
        elif e in out:
            del out[e]
    return out


def too_large(coeffs):
    return any(x > MAX_EXPONENT for e in coeffs for x in e)


def assert_matches(op, want):
    """op() equals the reference coefficients want bit for bit, in dict
    order, or raises because want holds an exponent past the limit."""
    if want is None:
        with pytest.raises(ExponentTooLargeError):
            op()
    else:
        got = op().coeffs
        assert [(e, tuple(map(type, e)), c.hex()) for e, c in got.items()] \
            == [(e, (int,) * len(e), c.hex()) for e, c in want.items()]


near_limit = st.one_of(st.integers(min_value=0, max_value=2),
                       st.integers(min_value=MAX_EXPONENT // 2 - 1,
                                   max_value=MAX_EXPONENT // 2 + 2))


@st.composite
def near_limit_fields(draw, n):
    """n fields on one chart of dimension 0 to 4, exponents 0-2 or near
    half the limit, so that some sums reach it and some pass it."""
    m = draw(st.integers(min_value=0, max_value=4))
    exps = st.tuples(*[near_limit] * m)
    return [ScalarField(CHARTS[m], draw(st.dictionaries(exps, any_coeff,
                                                         max_size=5)))
            for _ in range(n)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(near_limit_fields(7), st.integers(min_value=0, max_value=3),
       st.booleans())
def test_packed_kernels_match_tuple_reference(fs, n, with_start):
    f, g = fs[:2]
    chart = f.chart
    prod = ref_product(f.coeffs, g.coeffs)
    assert_matches(lambda: f * g, None if too_large(prod) else prod)
    # a power is a chain of products from the constant 1
    power = {(0,) * chart.dimension: 1.0}
    for _ in range(n):
        power = ref_product(power, f.coeffs)
        if too_large(power):
            power = None
            break
    assert_matches(lambda: f ** n, power)
    start = fs[-1] if with_start else None
    pairs = list(zip(fs[:6:2], fs[1:6:2]))
    total = start.coeffs if with_start else {}
    for a, b in pairs:
        total = ref_sum(total, ref_product(a.coeffs, b.coeffs))
    assert_matches(lambda: dot(chart, pairs, start=start),
                   None if too_large(total) else total)


@st.composite
def fields_and_points(draw):
    """A field from field_lists and up to 8 points of its chart, coordinates
    in [-2, 2]."""
    (f,) = draw(field_lists(1))
    m = f.chart.dimension
    n = draw(st.integers(min_value=0, max_value=8))
    coord = st.floats(min_value=-2.0, max_value=2.0)
    rows = draw(st.lists(st.lists(coord, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return f, np.array(rows, dtype=float).reshape(n, m)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fields_and_points())
@example((ScalarField(Chart(0), {(): -2.5}), np.zeros((3, 0))))
@example((parse_field(CHART2, "x1*x2 + 1"), np.zeros((0, 2))))
def test_split_values_match_evaluate(case):
    # the terms are summed in the split's monomial order, and numpy's and
    # the float power may differ in the last bit, so each value is within
    # 1e-13 of the sum of the terms' absolute values (plus an underflow
    # floor)
    f, points = case
    size = ScalarField(f.chart, {e: abs(c) for e, c in f.coeffs.items()})
    got = _split_values(_split(f.chart, np.array([f])), points)
    assert got.shape == (len(points), 1)
    for value, p in zip(got[:, 0], points):
        bound = 1e-13 * size.evaluate(np.abs(p)) + 1e-300
        assert abs(value - f.evaluate(p)) <= bound


def test_dot_rejects_fields_on_other_charts():
    x = ScalarField.coordinate(CHART2, 0)
    with pytest.raises(DimensionMismatchError):
        dot(CHART2, [(x, ScalarField.constant(Chart(1), 1.0))])
    with pytest.raises(DimensionMismatchError):
        dot(CHART2, [(x, x)], start=ScalarField.constant(Chart(1), 1.0))


def test_constructor_rejects_non_finite_coefficients():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ExpressionSyntaxError):
            ScalarField(CHART2, {(1, 0): bad})
        with pytest.raises(ExpressionSyntaxError):
            ScalarField(CHART2, {(0, 0): 1.0, (0, 1): np.float64(bad)})
        with pytest.raises(ExpressionSyntaxError):
            ScalarField.constant(CHART2, bad)
    # arithmetic builds its results unchecked, so it may still overflow
    big = ScalarField(CHART2, {(1, 0): 1e200})
    assert (big * big).coeffs == {(2, 0): math.inf}
    assert math.isnan((big * big - big * big).coeffs[(2, 0)])


def test_arithmetic_rejects_non_finite_numbers():
    x = ScalarField.coordinate(CHART2, 0)
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        for op in (lambda: x + bad, lambda: bad + x, lambda: x - bad,
                   lambda: bad - x, lambda: x * bad, lambda: bad * x):
            with pytest.raises(ExpressionSyntaxError):
                op()


def test_numbers_too_large_for_a_double_are_syntax_errors():
    x = ScalarField.coordinate(CHART2, 0)
    huge = 10 ** 400
    for op in (lambda: x + huge, lambda: huge - x, lambda: x * huge,
               lambda: as_field(CHART2, huge),
               lambda: ScalarField.constant(CHART2, huge),
               lambda: ScalarField(CHART2, {(1, 0): huge})):
        with pytest.raises(ExpressionSyntaxError, match="too large"):
            op()


# ------------------------------------------------------------ exponent limit

def test_exponents_up_to_the_limit_are_accepted():
    assert MAX_EXPONENT == 32767
    top = parse_field(CHART2, "x1^32767*x2^32767")
    assert top.coeffs == {(32767, 32767): 1.0}
    assert ScalarField(CHART2, {(0, 32767): 2.0}).coeffs == {(0, 32767): 2.0}
    f = parse_field(CHART2, "x1^16383 + x2^16384")
    g = parse_field(CHART2, "x1^16384 + x2^16383")
    assert list((f * g).coeffs.items()) == [
        ((32767, 0), 1.0), ((16383, 16383), 1.0), ((16384, 16384), 1.0),
        ((0, 32767), 1.0)]


def test_exponents_above_the_limit_are_rejected():
    with pytest.raises(ExponentTooLargeError):
        ScalarField(CHART2, {(32768, 0): 1.0})
    for text in ("x2^32768", "x1^40000", "x1^20000*x1^20000",
                 "x1^" + "9" * 5000, "x1^0000032768", "x1^32767*x1"):
        with pytest.raises(ExponentTooLargeError):
            parse_field(CHART2, text)
    with pytest.raises(ExponentTooLargeError,
                       match=r"^exponent 32768 is above the limit 32767$"):
        parse_field(CHART2, "x2 + x1^32767*x1")
    assert parse_field(CHART2, "x1^0000032767").coeffs == {(32767, 0): 1.0}


def test_terms_that_cancel_drop_out_of_a_parse():
    for text in ("x1 - x1", "0*x1", "-0*x1", "0", "0*x1^40000",
                 "x1^40000 - x1^40000"):
        assert parse_field(CHART2, text).coeffs == {}
    f = parse_field(CHART2, "x2 + x1 - x2 + 2*x1*x1 - x1 + 3")
    assert list(f.coeffs.items()) == [((2, 0), 2.0), ((0, 0), 3.0)]


def _reference_exponents(exps, m):
    """The exponent check read entry by entry, with no fast path: the
    reference for fields._exponents."""
    try:
        ints = tuple(int(e) for e in exps)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if (ints is None or ints != tuple(exps) or len(ints) != m
            or any(e < 0 for e in ints)):
        raise DimensionMismatchError("bad exponent tuple")
    if max(ints, default=0) > MAX_EXPONENT:
        raise ExponentTooLargeError("exponent above the limit")
    return ints


exponent_entry = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=MAX_EXPONENT - 2, max_value=MAX_EXPONENT + 2),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.booleans(),
    st.integers(min_value=-2, max_value=MAX_EXPONENT + 2).map(np.int64),
    st.integers(min_value=-2, max_value=MAX_EXPONENT + 2).map(float),
    st.sampled_from([0.5, math.nan, math.inf, "1", None]),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.lists(exponent_entry, max_size=4), st.booleans())
def test_exponent_fast_path_matches_the_reference(m, entries, as_tuple):
    from algebroidlab.fields import _exponents

    exps = tuple(entries) if as_tuple else entries
    outcomes = []
    for check in (_exponents, _reference_exponents):
        try:
            got = check(exps, m)
        except (DimensionMismatchError, ExponentTooLargeError) as exc:
            outcomes.append(type(exc))
        else:
            assert type(got) is tuple
            assert all(type(e) is int for e in got)
            outcomes.append(got)
    assert outcomes[0] == outcomes[1]


def test_products_past_the_limit_raise_and_never_carry():
    x = parse_field(CHART2, "x1^20000")
    y = parse_field(CHART2, "x1^16384 + x2")
    for op in (lambda: x * x, lambda: x ** 2, lambda: y * y,
               lambda: dot(CHART2, [(x, x)]),
               lambda: dot(CHART2, [(y, y)], start=x)):
        with pytest.raises(ExponentTooLargeError):
            op()
    # the error is about results: a term that drops out is never decoded
    tiny = parse_field(CHART2, "1e-170*x1^20000")
    assert (tiny * tiny).is_zero()
    assert dot(CHART2, [(x, x), (-x, x)]).is_zero()


def test_split_arrays_past_the_limit_raise_and_never_carry():
    # over a zero anchor and bracket, the curvature of these symbols would
    # hold x1^40000, and its product with x1^30000 x1^70000, not x1^4464*x2
    a = al.build_algebroid(CHART2, 2, np.zeros((2, 2)), np.zeros((2, 2, 2)))
    symbols = np.zeros((2, 2, 2), dtype=object)
    symbols[0, 0, 1] = symbols[1, 1, 0] = "x1^20000"
    conn = al.build_connection(a, "A", symbols)
    with pytest.raises(ExponentTooLargeError,
                       match=r"^exponent 40000 is above the limit 32767$"):
        al.curvature(conn)
    big = ScalarField._of(CHART2, {(40000, 0): 1.0})
    with pytest.raises(ExponentTooLargeError,
                       match=r"^exponent 70000 is above the limit 32767$"):
        big * parse_field(CHART2, "x1^30000")
    # a monomial whose coefficients are all zero is not in any field
    parts = {(0, 0): np.array([1.0, 0.0]), (40000, 0): np.zeros(2)}
    assert [f.coeffs for f in _join(CHART2, parts)] == [{(0, 0): 1.0}, {}]
    parts[40000, 0] = np.array([0.0, 2.0])
    with pytest.raises(ExponentTooLargeError):
        _join(CHART2, parts)


def test_powers_past_the_limit_raise_before_multiplying():
    x = ScalarField.coordinate(CHART2, 0)
    one = ScalarField.constant(CHART2, 1.0)
    # the parser's bound holds for every field, a constant or zero one too
    for f in (x, one, ScalarField(CHART2)):
        for n in (10 ** 400, 40000, 32768, 1e300, np.int64(32768)):
            with pytest.raises(ExponentTooLargeError):
                f ** n
    assert one ** 32767 == one
    assert one ** np.int64(3) == one ** 3.0 == one


# ----------------------------------------------- adversarial expression text

TOKENS = ["x1", "x2", "x3", "x4", "y", "1", "2.5", ".5", "0", "1e3", "1e-320",
          "1e999", "e", "E", "^", "^2", "^x1", "*", "+", "-", " ", "(", ")",
          "_", "3x1"]
expression_text = st.one_of(
    st.text(max_size=24),
    st.lists(st.sampled_from(TOKENS), max_size=14).map("".join))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(expression_text)
def test_parse_round_trips_or_raises_parse_errors(text):
    chart = Chart(3)
    try:
        f = parse_field(chart, text)
    except (ExpressionSyntaxError, UnknownVariableError):
        return
    assert parse_field(chart, f.to_string()) == f


@pytest.mark.parametrize("text, error, msg", [
    # the first fault in the text is raised, wherever a later one is
    ("y + (", UnknownVariableError, "unknown variable 'y' on this chart"),
    ("x1 + ( + y", ExpressionSyntaxError, "cannot read a term (at 3)"),
    ("x1^400000 + y", ExponentTooLargeError,
     "power above the limit 32767 (at 3)"),
    ("y^400000", UnknownVariableError, "unknown variable 'y' on this chart"),
    # a sign, or a '*' after a factor, with nothing to follow it
    ("x1 *  ", ExpressionSyntaxError,
     "term is missing a factor (at end of input)"),
    (" - ", ExpressionSyntaxError,
     "term is missing a factor (at end of input)"),
    ("*", ExpressionSyntaxError, "cannot read a term (at 0)"),
    ("x1^2.5", ExpressionSyntaxError, "cannot read a term (at 4)"),
    ("   ", ExpressionSyntaxError, "empty expression"),
])
def test_parse_raises_the_first_fault(text, error, msg):
    with pytest.raises(error) as exc:
        parse_field(CHART2, text)
    assert str(exc.value) == msg


def test_parse_reads_space_around_every_operator():
    f = parse_field(CHART2, "\t- 2 * x1 ^ 2*x2+ .5e1 ")
    assert list(f.coeffs.items()) == [((2, 1), -2.0), ((0, 0), 5.0)]


# ----------------------------------------------------- field-array coercer

def _coercer_callers():
    """Every builder that coerces nested data through fields._field_array,
    by name; each call takes the data in place of a 3 by 3 (by 3) array of
    fields over the so(3) action chart."""
    a = al.catalog_build("transformation", {
        "dimension": 3,
        "constants": [[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                      [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                      [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]],
        "fields": [["0", "-x3", "x2"], ["x3", "0", "-x1"],
                   ["-x2", "x1", "0"]]})
    zero = np.zeros((3, 3, 3))
    return {
        "anchor": lambda d: al.build_algebroid(a.chart, 3, d, zero),
        "bracket": lambda d: al.build_algebroid(a.chart, 3, a.anchor, d),
        "bundle": lambda d: al.catalog_build("lie_algebra_bundle", {
            "dimension": 3, "rank": 3, "bracket": d}),
        "bivector": lambda d: al.catalog_build("poisson", {
            "dimension": 3, "bivector": d}),
        "connection": lambda d: al.build_connection(a, "A", d),
        "tensor": lambda d: al.TensorSection(a, "A", 1, 1, d),
        "matrix-form": lambda d: al.MatrixForm(a, 1, 3, {(0,): d}),
        "frame-change": lambda d: al.FrameChange(a.chart, d),
    }


@pytest.mark.parametrize("caller", list(_coercer_callers()))
@pytest.mark.parametrize("bad", [
    [["0", "1", "x1"], ["1", "0", "x2"]],
    [[0.0, 0.0, 0.0], [0.0, 0.0], [0.0]],
    [[[0.0] * 3] * 3, [[0.0] * 3] * 2, [[0.0] * 2] * 3],
    [[[0.0] * 3, [0.0] * 2, "0"]] * 3,
    [np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((3, 3))],
    5.0,
], ids=["wrong-shape", "ragged", "ragged-deep", "ragged-leaves",
        "ragged-arrays", "scalar"])
def test_field_array_callers_refuse_bad_shapes(caller, bad):
    # a shape error, never a TypeError or IndexError from the coercion loop
    with pytest.raises(ShapeMismatchError):
        _coercer_callers()[caller](bad)


def test_numeric_arrays_coerce_like_the_per_entry_route():
    from algebroidlab.fields import _field_array

    # R x_D R^7 on a plane chart with a constant anchor: float, int and
    # object arrays of the same numbers give equal coefficient dicts
    r = 8
    rng = np.random.default_rng(np.random.Philox(21))
    c = np.zeros((r, r, r))
    for i in range(1, r):
        c[0, i, i], c[i, 0, i] = i, -i
    anchor = rng.integers(-3, 4, size=(r, 2)) * 0.5
    anchor[0, 0] = -0.0
    chart = Chart(2)
    builds = [al.build_algebroid(chart, r, x, y) for x, y in (
        (anchor, c), (anchor.tolist(), c.astype(np.int64)),
        (anchor.astype(object), c.astype(object)))]
    for a in builds[1:]:
        for name in ("anchor", "bracket"):
            got, want = getattr(a, name), getattr(builds[0], name)
            assert [f.coeffs for f in got.flat] == \
                [f.coeffs for f in want.flat]
    for f in builds[0].bracket.flat:
        for key, v in f.coeffs.items():
            assert type(v) is float and v != 0.0
            assert key == (0, 0) and all(type(x) is int for x in key)
    # ints past 2^53 round as float() rounds them
    big = np.array([2 ** 53 + 1, -(2 ** 62) - 1], dtype=np.int64)
    assert [f.coeffs for f in _field_array(chart, big, (2,), "x")] == \
        [{(0, 0): float(int(v))} for v in big]
    # non-finite or oversized numbers raise what the per-entry route raises
    for bad in (np.inf, -np.inf, np.nan):
        data = np.array([[1.0, bad]])
        msgs = set()
        for d in (data, data.astype(object), data.tolist()):
            with pytest.raises(ExpressionSyntaxError) as exc:
                _field_array(chart, d, (1, 2), "x")
            msgs.add(str(exc.value))
        assert msgs == {"%r is not a finite number" % bad}
    with pytest.raises(ExpressionSyntaxError,
                       match="number too large for a double"):
        _field_array(chart, [1, 10 ** 400], (2,), "x")


def test_field_array_parses_each_text_once_as_the_parser_does(monkeypatch):
    from algebroidlab import fields

    texts = ["0", "x1 - x2", "0", "3*x1^2 + 0.1*x2", "x1 - x2", "0",
             "-0*x1", "0.1*x2 + 0.2*x1 + 1e-300", "0", "x1 - x1",
             "3*x1^2 + 0.1*x2", "-2.5"]
    want = [parse_field(CHART2, t) for t in texts]
    calls = []

    def counted(chart, text):
        calls.append(text)
        return parse_field(chart, text)

    monkeypatch.setattr(fields, "parse_field", counted)
    for data in (texts, np.array(texts, dtype=object).reshape(3, 4),
                 [texts[:6], texts[6:]]):
        calls.clear()
        shape = np.shape(data)
        got = fields._field_array(CHART2, data, shape, "x")
        assert got.shape == shape
        # the same coefficients in the same key order, bit for bit
        assert [repr(list(f.coeffs.items())) for f in got.flat] == \
            [repr(list(g.coeffs.items())) for g in want]
        assert sorted(calls) == sorted(set(texts))
    # the first bad entry after good ones raises what it raises alone
    for bad, error, msg in [
            ("x3 + x1", UnknownVariableError,
             "unknown variable 'x3' on this chart"),
            ("1 +", ExpressionSyntaxError,
             "term is missing a factor (at end of input)"),
            ("x1^40000", ExponentTooLargeError,
             "exponent 40000 is above the limit 32767"),
            ("1e999", ExpressionSyntaxError,
             "coefficient is not a finite number")]:
        data = ["x1", "0", "x1", bad, "2 +", bad]
        with pytest.raises(error) as exc:
            fields._field_array(CHART2, data, (6,), "x")
        assert str(exc.value) == msg
    # numbers, fields and texts mix
    y = ScalarField.coordinate(CHART2, 1)
    mixed = fields._field_array(
        CHART2, [[1, "x1", y], [2.5, "x1", np.float64(0.0)]], (2, 3), "x")
    assert [f.coeffs for f in mixed.flat] == [
        {(0, 0): 1.0}, {(1, 0): 1.0}, {(0, 1): 1.0},
        {(0, 0): 2.5}, {(1, 0): 1.0}, {}]
    assert mixed[0, 2] is y
