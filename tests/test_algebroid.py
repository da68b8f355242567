"""Axioms, catalog families, isotropy, and linearization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import algebroidlab as al
from algebroidlab.fields import Chart, ScalarField, parse_field
from algebroidlab.sampling import _MAX_SIZE, max_abs, seeded_points
from algebroidlab.errors import (
    AlgebroidError,
    AntisymmetryViolationError,
    JacobiViolationError,
    NotABivectorError,
    NotClosedError,
    ShapeMismatchError,
)
from conftest import EPS3, SO3_ACTION_FIELDS, rng_for


def test_validate_all_catalog(catalog):
    for name, a in catalog.items():
        report = al.validate(a, n_samples=50, seed=0)
        assert report.passed, (name, report)
        assert report.anchor_residual < 1e-10
        assert report.jacobi_residual < 1e-10
        assert report.antisymmetry_residual < 1e-10
        assert report.n_points == 50


def test_validate_flags_bracket_perturbation():
    # so(3) over a point with c^{12}_1 shifted by 1e-3; the Jacobi defect
    # is linear in the shift, predicted by the constants jacobiator
    chart = Chart(0)
    c = EPS3.copy()
    c[0, 1, 0] += 1e-3
    c[1, 0, 0] -= 1e-3
    a = al.build_algebroid(chart, 3, [[], [], []], c)
    report = al.validate(a, n_samples=50, seed=0)
    assert not report.passed
    assert not report.jacobi_pass
    assert report.antisymmetry_pass
    predicted = float(np.max(np.abs(al.constants_jacobiator(c))))
    assert 0.9e-3 < predicted < 1.1e-3
    assert 0.9 * predicted <= report.jacobi_residual <= 1.1 * predicted


def test_validate_flags_anchor_perturbation():
    # rotation action with the x1-component of the third generator bumped
    # by x1; the anchor defect fields work out to (-x1, 0, 0) on the pair
    # (1,2), zero on (1,3), and (-x3, 0, -x1) on (2,3)
    chart = Chart(3)
    anchor = [list(row) for row in SO3_ACTION_FIELDS]
    anchor[2][0] = "-x2 + x1"
    a = al.build_algebroid(chart, 3, anchor, -EPS3)
    report = al.validate(a, n_samples=50, seed=0)
    assert not report.passed
    assert not report.anchor_pass
    assert report.jacobi_pass
    pts = seeded_points(50, 3, 0)
    predicted = max(max(abs(p[0]), abs(p[2])) for p in pts)
    assert 0.9 * predicted <= report.anchor_residual <= 1.1 * predicted


def test_max_abs_keeps_nan():
    assert max_abs([]) == 0.0
    assert max_abs([1.0, -3.0, 2.0]) == 3.0
    assert math.isnan(max_abs([1.0, math.nan, 2.0]))


def test_max_abs_of_arrays():
    assert max_abs(np.zeros((0, 3))) == 0.0
    assert max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
    assert math.isnan(max_abs(np.array([[1.0, math.nan], [-5.0, 2.0]])))


def test_validate_fails_on_nan_residual():
    # the anchor commutator overflows to inf - inf, so its defect is NaN
    a = al.load_algebroid(Path(__file__).parent / "data" / "overflow.json")
    report = al.validate(a)
    assert math.isnan(report.anchor_residual)
    assert not report.anchor_pass and not report.passed


def test_catalog_rejects_non_finite_constants():
    for text in ("[[[NaN]]]", "[[[Infinity]]]", "[[[0, 0], [0, NaN]], "
                 "[[0, 0], [0, 0]]]"):
        constants = json.loads(text)
        with pytest.raises(AlgebroidError):
            al.catalog_build("lie_algebra", {"constants": constants})
        with pytest.raises(AlgebroidError):
            al.catalog_build("transformation", {
                "dimension": 1, "constants": constants,
                "fields": [["x1"]] * len(constants)})


def test_structure_constants_above_the_size_limit_are_refused():
    big = np.zeros((_MAX_SIZE + 1,) * 3)
    with pytest.raises(ShapeMismatchError):
        al.catalog_build("lie_algebra", {"constants": big})
    with pytest.raises(ShapeMismatchError):
        al.TransformationData(big, [al.VectorField(Chart(0), [])] * len(big))


def test_validate_at_explicit_points(catalog):
    a = catalog["so3_action"]
    report = al.validate(a, points=[(1.0, 0.0, 0.0), (0.5, -0.5, 2.0)])
    assert report.passed
    assert report.n_points == 2
    assert report.seed is None


def test_build_rejects_symmetric_bracket():
    chart = Chart(0)
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = 1.0
    with pytest.raises(AntisymmetryViolationError):
        al.build_algebroid(chart, 2, [[], []], c)


def test_build_rejects_wrong_anchor_shape():
    chart = Chart(2)
    with pytest.raises(ShapeMismatchError):
        al.build_algebroid(chart, 2, [["x1"]], np.zeros((2, 2, 2)))


NON_JACOBI = np.zeros((3, 3, 3))
NON_JACOBI[0, 1, 1] = 1.0
NON_JACOBI[1, 0, 1] = -1.0
NON_JACOBI[1, 2, 2] = 1.0
NON_JACOBI[2, 1, 2] = -1.0


def test_catalog_rejects_bad_lie_algebra():
    with pytest.raises(JacobiViolationError):
        al.catalog_build("lie_algebra", {"constants": NON_JACOBI})


def test_catalog_rejects_nonantisymmetric_bivector():
    with pytest.raises(NotABivectorError):
        al.catalog_build("poisson", {"dimension": 2,
                                     "bivector": [["0", "x1"], ["x1", "0"]]})


def test_non_poisson_bivector_fails_validation():
    # antisymmetric but not Poisson; the failure surfaces in the Jacobi
    # residual of the induced bracket rather than at build time
    a = al.catalog_build("poisson", {"dimension": 3,
                                     "bivector": [["0", "x1", "0"],
                                                  ["-x1", "0", "x2"],
                                                  ["0", "-x2", "0"]]})
    report = al.validate(a, n_samples=50, seed=0)
    assert not report.jacobi_pass


def test_transformation_rejects_bad_constants():
    with pytest.raises(JacobiViolationError):
        al.catalog_build("transformation", {
            "dimension": 3, "constants": NON_JACOBI.tolist(),
            "fields": SO3_ACTION_FIELDS})


def test_anchor_apply_and_bracket_leibniz(catalog):
    # [alpha, f beta] = f [alpha, beta] + (#alpha f) beta
    a = catalog["so3_action"]
    alpha = al.Section(a, ["1", "x1", "0"])
    beta = al.Section(a, ["x2", "0", "1"])
    f = parse_field(a.chart, "x1*x3 - 2*x2")
    lhs = al.bracket_sections(a, alpha, al.Section(
        a, [f * b for b in beta.coeffs]))
    fbr = al.bracket_sections(a, alpha, beta)
    df = al.anchor_apply(a, alpha).apply(f)
    rhs = al.Section(a, [f * c + df * d
                         for c, d in zip(fbr.coeffs, beta.coeffs)])
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert (u - v).is_zero()


def test_bracket_antisymmetry_of_sections(catalog):
    a = catalog["dual_so3"]
    alpha = al.Section(a, ["x2", "1", "0"])
    beta = al.Section(a, ["0", "x1", "x3"])
    lhs = al.bracket_sections(a, alpha, beta)
    rhs = al.bracket_sections(a, beta, alpha)
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert (u + v).is_zero()


def test_anchor_rank_values(catalog):
    assert al.anchor_rank_at(catalog["tangent2"], (0.3, -1.0)) == 2
    assert al.anchor_rank_at(catalog["foliation3"], (0.0, 0.0, 0.0)) == 2
    assert al.anchor_rank_at(catalog["so3_action"], (0.0, 0.0, 0.0)) == 0
    assert al.anchor_rank_at(catalog["so3_action"], (1.0, 0.0, 0.0)) == 2
    assert al.anchor_rank_at(catalog["scaling"], (0.0,)) == 0
    assert al.anchor_rank_at(catalog["scaling"], (2.0,)) == 1
    assert al.anchor_rank_at(catalog["sl2"], ()) == 0
    assert al.anchor_rank_at(catalog["dual_so3"], (0.0, 0.0, 0.5)) == 2


def test_isotropy_axis_point(catalog):
    a = catalog["so3_action"]
    iso = al.isotropy_at(a, (0.0, 0.0, 1.0))
    assert iso.basis.shape == (3, 1)
    assert np.allclose(np.abs(iso.basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)
    assert iso.constants.shape == (1, 1, 1)
    assert abs(iso.constants[0, 0, 0]) < 1e-12
    assert iso.residual < 1e-12


def test_isotropy_origin_is_whole_algebra(catalog):
    a = catalog["so3_action"]
    iso = al.isotropy_at(a, (0.0, 0.0, 0.0))
    assert iso.basis.shape == (3, 3)
    # kernel basis is the identity here, so the constants come back verbatim
    assert np.allclose(iso.constants, -EPS3, atol=1e-12)


def test_isotropy_rejects_non_subalgebra():
    # engineered raw data: kernel at 0 is span{e2, e3} but [e2, e3] = e1
    chart = Chart(1)
    c = np.zeros((3, 3, 3))
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    a = al.build_algebroid(chart, 3, [["1"], ["x1"], ["x1"]], c)
    with pytest.raises(NotClosedError):
        al.isotropy_at(a, (0.0,))


def test_linearize_rotation_origin(catalog):
    a = catalog["so3_action"]
    data = al.linearize_at(a, (0.0, 0.0, 0.0))
    assert np.allclose(data.constants, -EPS3, atol=1e-12)
    assert len(data.fields) == 3
    # the action fields are already linear, so linearization returns them
    for field, row in zip(data.fields, SO3_ACTION_FIELDS):
        expected = [parse_field(field.chart, text) for text in row]
        for got, want in zip(field.comps, expected):
            assert (got - want).is_zero()


def test_linearize_scaling_origin(catalog):
    data = al.linearize_at(catalog["scaling"], (0.0,))
    assert data.constants.shape == (1, 1, 1)
    assert abs(data.constants[0, 0, 0]) < 1e-12
    comp = data.fields[0].comps[0]
    x = ScalarField.coordinate(data.chart, 0)
    assert (comp - x).is_zero()


def test_linearized_data_is_an_action(catalog):
    # the output feeds straight back into the transformation builder
    data = al.linearize_at(catalog["so3_action"], (0.0, 0.0, 0.0))
    lin = al.catalog_build("transformation", {"data": data})
    assert al.validate(lin, n_samples=20, seed=0).passed


def test_catalog_shortcut_metadata(catalog):
    a = catalog["heisenberg"]
    assert a.metadata["kind"] == "lie_algebra_bundle"
    assert a.dimension == 1
    assert a.rank == 3
    # anchor vanishes identically
    for row in a.anchor:
        for f in row:
            assert f.is_zero()


def test_spec_round_trip(catalog, tmp_path):
    # a saved catalog algebroid reloads with identical residuals
    for name in ("so3_action", "dual_aff1", "heisenberg", "sl2"):
        a = catalog[name]
        path = tmp_path / (name + ".json")
        al.save_algebroid(a, path)
        b = al.load_algebroid(path)
        ra = al.validate(a, n_samples=20, seed=0)
        rb = al.validate(b, n_samples=20, seed=0)
        assert ra.anchor_residual == rb.anchor_residual
        assert ra.jacobi_residual == rb.jacobi_residual
        assert b.rank == a.rank and b.dimension == a.dimension


def test_bundle_metadata_round_trip(catalog):
    # the params a lie_algebra_bundle records (a 1-based entry list) rebuild it
    a = catalog["heisenberg"]
    b = al.catalog_build(a.metadata["kind"], a.metadata["params"])
    assert a.metadata["params"]["bracket"] == [
        {"s": 1, "t": 2, "u": 3, "value": "x1"}]
    assert b.metadata == a.metadata
    assert all(f == g for f, g in zip(a.bracket.flat, b.bracket.flat))


def _heisenberg_dense(p="2 - x1 + 3*x1^2"):
    """[e1, e2] = p(x) e3 over a line as a dense 3 x 3 x 3 nested list."""
    dense = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    dense[0][1][2] = p
    dense[1][0][2] = (-parse_field(Chart(1), p)).to_string()
    return dense


def test_bundle_entry_list_and_dense_list_agree():
    p = "2 - x1 + 3*x1^2"
    listed = al.catalog_build("lie_algebra_bundle", {
        "dimension": 1, "rank": 3,
        "bracket": [{"s": 1, "t": 2, "u": 3, "value": p}]})
    dense = al.catalog_build("lie_algebra_bundle", {
        "dimension": 1, "rank": 3, "bracket": _heisenberg_dense(p)})
    assert dense.metadata == listed.metadata
    assert all(f == g for f, g in zip(dense.bracket.flat, listed.bracket.flat))
    assert al.algebroid_to_dict(dense) == al.algebroid_to_dict(listed)


def test_dense_bundle_bracket_must_be_antisymmetric():
    # c[2,1,3] = -c[1,2,3] + 1 is caught by the build, before Jacobi
    dense = _heisenberg_dense()
    dense[1][0][2] += " + 1"
    with pytest.raises(AntisymmetryViolationError):
        al.catalog_build("lie_algebra_bundle", {
            "dimension": 1, "rank": 3, "bracket": dense})


def test_zero_based_bracket_dict_is_refused():
    with pytest.raises(AlgebroidError):
        al.catalog_build("lie_algebra_bundle", {
            "dimension": 1, "rank": 3, "bracket": {(0, 1, 2): "x1"}})


def test_sl3_constants_are_a_lie_algebra(sl3):
    assert sl3.rank == 8
    jac = al.constants_jacobiator(sl3.bracket_at(()))
    assert np.max(np.abs(jac)) == 0.0


def test_constants_jacobiator_matches_its_definition():
    # the cyclic sum of c[s,t,w] c[w,u,v] over (s, t, u), term by term
    rng = rng_for("jacobiator")
    for r in (1, 3, 7):
        c = rng.standard_normal((r, r, r))
        c = c - c.transpose(1, 0, 2)
        want = (np.einsum("stw,wuv->stuv", c, c)
                + np.einsum("tuw,wsv->stuv", c, c)
                + np.einsum("usw,wtv->stuv", c, c))
        got = al.constants_jacobiator(c)
        assert got.shape == (r, r, r, r)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), r
