"""Polynomial scalar fields: parsing, arithmetic, differentiation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algebroidlab as al
from algebroidlab.fields import (
    Chart,
    ScalarField,
    as_field,
    eval_partial,
    parse_field,
    perm_sign,
)
from algebroidlab.errors import (
    DimensionMismatchError,
    ExpressionSyntaxError,
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


def test_eval_partial():
    # the multi-index lists coordinate directions, repeats allowed
    f = parse_field(CHART2, "x1^2*x2")
    assert eval_partial(f, (0,), (2.0, 3.0)) == 12.0
    assert eval_partial(f, (1,), (2.0, 3.0)) == 4.0
    assert eval_partial(f, (0, 0), (2.0, 3.0)) == 6.0
    assert eval_partial(f, (), (2.0, 3.0)) == 12.0
    c = ScalarField.constant(CHART2, 5.0)
    assert eval_partial(c, (0,), (1.0, 1.0)) == 0.0


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
