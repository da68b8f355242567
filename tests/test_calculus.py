"""Exterior calculus on the algebroid."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algebroidlab as al
from algebroidlab.fields import Chart, ScalarField, parse_field
from algebroidlab.errors import (
    AlgebroidMismatchError,
    DimensionMismatchError,
    ShapeMismatchError,
)
from conftest import (
    build_catalog,
    form_coeff_max,
    form_diff_max,
    random_form,
    rng_for,
)


def test_form_key_normalization(catalog):
    a = catalog["so3_action"]
    f = parse_field(a.chart, "x1 + 2")
    w = al.AForm(a, 2, {(1, 0): f})
    assert (w.coeff((0, 1)) + f).is_zero()
    assert w.coeff((0, 2)).is_zero()
    # repeated index collapses to nothing
    z = al.AForm(a, 2, {(1, 1): f})
    assert not z.coeffs


def test_form_degree_overflow_is_zero(catalog):
    a = catalog["aff1"]
    w = al.AForm(a, 3, {})
    assert not w.coeffs
    with pytest.raises(ShapeMismatchError):
        al.AForm(a, -1, {})


def test_matrix_form_keys_are_read_like_form_keys(catalog):
    a = catalog["so3_action"]
    eye = np.eye(3)
    for make in (al.AForm, lambda a, k, e: al.MatrixForm(a, k, 3, e)):
        with pytest.raises(ShapeMismatchError, match="does not match degree"):
            make(a, 2, {(0,): eye})
        with pytest.raises(ShapeMismatchError, match="nonnegative"):
            make(a, -1, {})
    w = al.MatrixForm(a, 2, 3, {(1, 0): eye, (0, 1): 2 * eye, (2, 2): eye})
    assert list(w.coeffs) == [(0, 1)]
    assert [f.constant_value() for f in w.coeff((1, 0)).flat] \
        == (-eye).ravel().tolist()


def test_form_mixing_algebroids_rejected(catalog):
    u = al.AForm(catalog["sl2"], 1, {(0,): 1.0})
    v = al.AForm(catalog["so3"], 1, {(0,): 1.0})
    with pytest.raises(AlgebroidMismatchError):
        al.wedge(u, v)


def test_d_squared_zero_all_catalog(catalog):
    for name, a in catalog.items():
        rng = rng_for(name)
        for deg in (0, 1, 2):
            w = random_form(a, deg, rng)
            assert form_coeff_max(al.differential(al.differential(w))) < 1e-10, (name, deg)


def test_d_squared_zero_sl3(sl3):
    rng = rng_for("sl3")
    w = random_form(sl3, 2, rng)
    assert form_coeff_max(al.differential(al.differential(w))) < 1e-10


def test_differential_of_function_is_anchor_derivative(catalog):
    a = catalog["so3_action"]
    f = parse_field(a.chart, "x1^2 - x2*x3")
    df = al.differential(al.AForm(a, 0, {(): f}))
    for s in range(a.rank):
        want = a.anchor_row(s).apply(f)
        assert (df.coeff((s,)) - want).is_zero()


def test_graded_derivation_rule(catalog):
    for name, a in catalog.items():
        rng = rng_for(name + "-leibniz")
        for ku, kv in [(0, 1), (1, 1), (1, 2), (2, 1)]:
            u = random_form(a, ku, rng)
            v = random_form(a, kv, rng)
            lhs = al.differential(al.wedge(u, v))
            rhs = al.wedge(al.differential(u), v)
            signed = al.wedge(u, al.differential(v))
            if ku % 2 == 0:
                rhs = rhs + signed
            else:
                rhs = rhs - signed
            assert form_diff_max(lhs, rhs) < 1e-10, (name, ku, kv)


def test_wedge_graded_commutativity(catalog):
    a = catalog["dual_so3"]
    rng = rng_for("wedge")
    for ku, kv in [(1, 1), (1, 2), (2, 1)]:
        u = random_form(a, ku, rng)
        v = random_form(a, kv, rng)
        uv = al.wedge(u, v)
        vu = al.wedge(v, u)
        if (ku * kv) % 2 == 1:
            vu = al.AForm(a, uv.degree,
                          {k: -f for k, f in vu.coeffs.items()})
        assert form_diff_max(uv, vu) == 0.0


def test_chain_map_with_de_rham(catalog):
    for name, a in catalog.items():
        m = a.dimension
        if m == 0:
            continue
        rng = rng_for(name + "-chain")
        for deg in (0, 1, 2):
            coeffs = {}
            for key in itertools.combinations(range(m), deg):
                poly = {exps: float(rng.integers(-3, 4))
                        for exps in itertools.product(range(3), repeat=m)
                        if sum(exps) <= 2}
                coeffs[key] = ScalarField(a.chart, poly)
            w = al.CoordForm(a.chart, deg, coeffs)
            lhs = al.differential(al.anchor_pullback(a, w))
            rhs = al.anchor_pullback(a, al.differential(w))
            assert form_diff_max(lhs, rhs) < 1e-10, (name, deg)


def test_de_rham_squares_to_zero(catalog):
    a = catalog["foliation3"]
    rng = rng_for("derham")
    coeffs = {}
    for key in itertools.combinations(range(3), 1):
        poly = {exps: float(rng.integers(-3, 4))
                for exps in itertools.product(range(3), repeat=3)
                if sum(exps) <= 2}
        coeffs[key] = ScalarField(a.chart, poly)
    w = al.CoordForm(a.chart, 1, coeffs)
    dd = al.differential(al.differential(w))
    assert max((f.max_abs_coeff() for f in dd.coeffs.values()), default=0.0) == 0.0


def test_chart_forms_on_a_point(catalog):
    # the tangent algebroid of a point has rank 0: functions only
    w = al.CoordForm(Chart(0), 0, {(): 2.0})
    assert w.algebroid.rank == 0
    assert al.differential(w).is_zero()
    pulled = al.anchor_pullback(catalog["so3"], w)
    assert pulled.coeff(()).constant_value() == 2.0
    assert al.differential(pulled).is_zero()


def test_chart_forms_pull_back_from_an_equal_chart(catalog):
    a = catalog["so3_action"]
    chart = Chart(3)
    assert chart == a.chart and chart is not a.chart
    w = al.CoordForm(chart, 1, {(0,): parse_field(chart, "x2")})
    pulled = al.anchor_pullback(a, w)
    x2 = parse_field(a.chart, "x2")
    for s in range(3):
        assert (pulled.coeff((s,)) - a.anchor[s][0] * x2).is_zero()


def test_pullback_rejects_forms_of_other_charts(catalog):
    a = catalog["so3_action"]
    for w in (al.CoordForm(Chart(2), 1, {(0,): 1.0}),
              al.CoordForm(Chart(3, ("u", "v", "w")), 1, {(0,): 1.0}),
              al.AForm(a, 1, {(0,): 1.0})):
        with pytest.raises(DimensionMismatchError):
            al.anchor_pullback(a, w)


coeff = st.integers(min_value=-4, max_value=4)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.lists(coeff, min_size=12, max_size=12))
def test_d_squared_zero_property(vals):
    a = test_d_squared_zero_property.algebroid
    coeffs = {}
    i = 0
    for key in itertools.combinations(range(3), 1):
        poly = {}
        for exps in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            poly[exps] = float(vals[i])
            i += 1
        coeffs[key] = ScalarField(a.chart, poly)
    w = al.AForm(a, 1, coeffs)
    assert form_coeff_max(al.differential(al.differential(w))) < 1e-12


test_d_squared_zero_property.algebroid = build_catalog()["so3_action"]
