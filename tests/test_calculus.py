"""Exterior calculus on the algebroid and the dual Poisson structure."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algebroidlab as al
from algebroidlab.calculus import DualChart, fiber_linear
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
            assert form_coeff_max(al.d_A(al.d_A(w))) < 1e-10, (name, deg)


def test_d_squared_zero_sl3(sl3):
    rng = rng_for("sl3")
    w = random_form(sl3, 2, rng)
    assert form_coeff_max(al.d_A(al.d_A(w))) < 1e-10


def test_differential_of_function_is_anchor_derivative(catalog):
    a = catalog["so3_action"]
    f = parse_field(a.chart, "x1^2 - x2*x3")
    df = al.d_A(al.AForm(a, 0, {(): f}))
    for s in range(a.rank):
        want = a.anchor_row(s).apply(f)
        assert (df.coeff((s,)) - want).is_zero()


def test_graded_derivation_rule(catalog):
    for name, a in catalog.items():
        rng = rng_for(name + "-leibniz")
        for ku, kv in [(0, 1), (1, 1), (1, 2), (2, 1)]:
            u = random_form(a, ku, rng)
            v = random_form(a, kv, rng)
            lhs = al.d_A(al.wedge(u, v))
            rhs = al.wedge(al.d_A(u), v)
            signed = al.wedge(u, al.d_A(v))
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
            lhs = al.d_A(al.anchor_pullback(a, w))
            rhs = al.anchor_pullback(a, al.de_rham(w))
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
    dd = al.de_rham(al.de_rham(w))
    assert max((f.max_abs_coeff() for f in dd.coeffs.values()), default=0.0) == 0.0


def test_chart_forms_on_a_point(catalog):
    # the tangent algebroid of a point has rank 0: functions only
    w = al.CoordForm(Chart(0), 0, {(): 2.0})
    assert w.algebroid.rank == 0
    assert al.de_rham(w).is_zero()
    pulled = al.anchor_pullback(catalog["so3"], w)
    assert pulled.coeff(()).constant_value() == 2.0
    assert al.d_A(pulled).is_zero()


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
    assert form_coeff_max(al.d_A(al.d_A(w))) < 1e-12


test_d_squared_zero_property.algebroid = build_catalog()["so3_action"]


def test_dual_chart_labels(catalog):
    a = catalog["so3_action"]
    dual = DualChart(a)
    assert dual.labels == ("x1", "x2", "x3", "xi1", "xi2", "xi3")
    assert dual.base_dimension == 3
    assert dual.fiber_rank == 3


def test_dual_poisson_matrix_blocks(catalog):
    # base-base block zero, base-fiber block the anchor, fiber-fiber the
    # bracket contracted with xi
    a = catalog["dual_aff1"]
    dual, pi = al.dual_poisson_matrix(a)
    m, r = 2, 2
    for i in range(m):
        for j in range(m):
            assert pi[i, j].is_zero()
    anti = 0.0
    for i in range(m + r):
        for j in range(m + r):
            anti = max(anti, (pi[i, j] + pi[j, i]).max_abs_coeff())
    assert anti == 0.0


def test_dual_poisson_of_lie_algebra_matches_catalog(catalog):
    # the fiber block over a point is exactly the linear Lie-Poisson tensor
    aff1 = catalog["aff1"]
    dual, pi = al.dual_poisson_matrix(aff1)
    xi2 = dual.xi(1)
    assert (pi[0, 1] - xi2).is_zero()
    assert (pi[1, 0] + xi2).is_zero()


def test_fiber_linear_bracket_morphism(catalog):
    # {l_alpha, l_beta} = l_[alpha, beta]
    for name in ("aff1", "so3", "so3_action", "dual_so3", "heisenberg"):
        a = catalog[name]
        rng = rng_for(name + "-dual")
        coeffs1 = [float(rng.integers(-2, 3)) for _ in range(a.rank)]
        coeffs2 = [float(rng.integers(-2, 3)) for _ in range(a.rank)]
        alpha = al.Section(a, coeffs1)
        beta = al.Section(a, coeffs2)
        lhs = al.dual_poisson_bracket(a, fiber_linear(a, alpha),
                                      fiber_linear(a, beta))
        rhs = fiber_linear(a, al.bracket_sections(a, alpha, beta))
        assert (lhs - rhs).max_abs_coeff() < 1e-12, name


def test_fiber_linear_on_base_functions(catalog):
    # {l_alpha, f} picks up the anchor derivative of f
    a = catalog["so3_action"]
    dual = DualChart(a)
    alpha = al.Section(a, ["1", "0", "x1"])
    f = parse_field(a.chart, "x2^2 + x3")
    lifted = ScalarField(dual, {e + (0, 0, 0): c for e, c in f.coeffs.items()})
    br = al.dual_poisson_bracket(a, fiber_linear(a, alpha), lifted)
    want_base = al.anchor_apply(a, alpha).apply(f)
    want = ScalarField(dual, {e + (0, 0, 0): c
                              for e, c in want_base.coeffs.items()})
    assert (br - want).max_abs_coeff() < 1e-12


def test_dual_poisson_jacobi(catalog):
    a = catalog["aff1"]
    dual, _pi = al.dual_poisson_matrix(a)
    rng = rng_for("jacobi-dual")

    def rand_poly():
        poly = {}
        for exps in itertools.product(range(3), repeat=2):
            if sum(exps) <= 2:
                poly[exps] = float(rng.integers(-3, 4))
        return ScalarField(dual, poly)

    f, g, h = rand_poly(), rand_poly(), rand_poly()
    br = lambda u, v: al.dual_poisson_bracket(a, u, v)
    total = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
    assert total.max_abs_coeff() < 1e-10


def test_hamiltonian_field_realizes_bracket(catalog):
    a = catalog["dual_aff1"]
    alpha = al.Section(a, ["x1", "1"])
    X = al.hamiltonian_vector_field(a, alpha)
    dual = DualChart(a)
    beta = al.Section(a, ["0", "x2"])
    lb = fiber_linear(a, beta)
    lhs = X.apply(lb)
    rhs = al.dual_poisson_bracket(a, fiber_linear(a, alpha), lb)
    assert (lhs - rhs).max_abs_coeff() < 1e-12


def test_hamiltonian_field_projects_to_anchor(catalog):
    # base components of the hamiltonian field are the anchor image
    a = catalog["so3_action"]
    alpha = al.Section(a, ["1", "x2", "0"])
    X = al.hamiltonian_vector_field(a, alpha)
    v = al.anchor_apply(a, alpha)
    for i in range(a.dimension):
        lifted = ScalarField(X.chart, {e + (0, 0, 0): c
                                       for e, c in v.comps[i].coeffs.items()})
        assert (X.comps[i] - lifted).is_zero()
