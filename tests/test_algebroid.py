"""Axioms, catalog families, isotropy, and linearization."""

import importlib.util
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import algebroidlab as al
from algebroidlab.algebroid import _axiom_defects, _certificate
from algebroidlab.fields import Chart, ScalarField, _join, _split, parse_field
from algebroidlab.sampling import _MAX_SIZE, max_abs, seeded_points
from algebroidlab.errors import (
    AlgebroidError,
    AntisymmetryViolationError,
    DimensionMismatchError,
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


def test_overflowing_constants_fail_jacobi_without_warnings():
    # so(3) scaled by 1e200: the Jacobi products overflow to a NaN defect,
    # which is refused; a numpy RuntimeWarning would fail this test
    with pytest.raises(JacobiViolationError, match="defect nan"):
        al.catalog_build("lie_algebra", {"constants": (1e200 * EPS3).tolist()})


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


def test_lie_algebra_constants_are_antisymmetric_exactly():
    constants = np.zeros((3, 3, 3))
    constants[0, 1, 2] = 1e-13
    with pytest.raises(AntisymmetryViolationError,
                       match=r"^c\[0,1,2\] \+ c\[1,0,2\] is not zero$"):
        al.catalog_build("lie_algebra", {"constants": constants})


def test_transformation_constants_are_antisymmetric_exactly():
    # build_algebroid's exact entry check is the only antisymmetry check
    constants = np.zeros((3, 3, 3))
    constants[0, 1, 2] = 1e-13
    with pytest.raises(AntisymmetryViolationError,
                       match=r"^c\[0,1,2\] \+ c\[1,0,2\] is not zero$"):
        al.catalog_build("transformation", {
            "dimension": 1, "constants": constants, "fields": [["0"]] * 3})


def test_structure_constants_above_the_size_limit_are_refused():
    big = np.zeros((_MAX_SIZE + 1,) * 3)
    with pytest.raises(ShapeMismatchError):
        al.catalog_build("lie_algebra", {"constants": big})
    with pytest.raises(ShapeMismatchError, match="above the limit"):
        al.catalog_build("transformation", {
            "dimension": 0, "constants": big, "fields": [[]] * len(big)})


def test_validate_at_explicit_points(catalog):
    a = catalog["so3_action"]
    report = al.validate(a, points=[(1.0, 0.0, 0.0), (0.5, -0.5, 2.0)])
    assert report.passed
    assert report.n_points == 2
    assert report.seed is None


def test_validate_refuses_non_finite_points(catalog):
    # the defects of so3_action vanish exactly, so a NaN point used to pass
    # with residual 0
    a = catalog["so3_action"]
    for bad in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)):
        with pytest.raises(DimensionMismatchError, match="finite"):
            al.validate(a, points=[(1.0, 0.0, 0.0), bad])


def test_huge_points_are_refused_in_the_error_family():
    # (1e200)^2 overflows a double
    a = al.load_algebroid(Path(__file__).parent / "data" / "overflow.json")
    for call in (lambda: al.validate(a, points=[(0.5,), (1e200,)]),
                 lambda: a.anchor[1][0].evaluate((1e200,)),
                 lambda: al.anchor_rank_at(a, (-1e200,))):
        with pytest.raises(DimensionMismatchError, match="too large"):
            call()
    assert al.validate(a, points=[(0.5,)]).n_points == 1
    # the anchor defect's x1^3 coefficients cancel exactly, so its power,
    # the only one that overflows, is not taken
    square = al.algebroid_from_dict(
        {"dimension": 1, "rank": 2, "anchor": [["x1^2"], ["x1^2"]]})
    assert al.validate(square, points=[(1e200,)]).passed


def test_empty_or_negative_samples_are_refused(catalog):
    # a maximum over no points reads 0 and would pass any check
    a = catalog["so3_action"]
    for n in (0, -3):
        for call in (lambda: seeded_points(n, 3, 0),
                     lambda: al.validate(a, n_samples=n),
                     lambda: al.modular_theorem_check(a, n_points=n)):
            with pytest.raises(ValueError,
                               match="at least one sample point is required"):
                call()
    with pytest.raises(ValueError, match="at least one sample point"):
        al.validate(a, points=[])
    assert seeded_points(1, 3, 0).shape == (1, 3)


def test_build_rejects_symmetric_bracket():
    chart = Chart(0)
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = 1.0
    with pytest.raises(AntisymmetryViolationError):
        al.build_algebroid(chart, 2, [[], []], c)


def test_build_compares_bracket_coefficients():
    # c[1,0,1] = -c[0,1,1] with its monomials stored in the other order
    # passes; one extra monomial, or a nonzero c[1,1,0], is refused
    chart = Chart(1)
    f = ScalarField(chart, {(1,): 2.0, (0,): 1.0})
    reordered = ScalarField(chart, {(0,): -1.0, (1,): -2.0})
    extra = ScalarField(chart, {(0,): -1.0, (1,): -2.0, (2,): 1.0})
    assert list(reordered.coeffs) == list(f.coeffs)[::-1]

    def bracket(entries):
        c = np.full((2, 2, 2), ScalarField(chart), dtype=object)
        for key, g in entries.items():
            c[key] = g
        return c

    anchor = [["0"], ["0"]]
    a = al.build_algebroid(chart, 2, anchor,
                           bracket({(0, 1, 1): f, (1, 0, 1): reordered}))
    assert a.bracket[1, 0, 1] is reordered
    with pytest.raises(AntisymmetryViolationError,
                       match=r"c\[0,1,1\] \+ c\[1,0,1\]"):
        al.build_algebroid(chart, 2, anchor,
                           bracket({(0, 1, 1): f, (1, 0, 1): extra}))
    with pytest.raises(AntisymmetryViolationError,
                       match=r"c\[1,1,0\] \+ c\[1,1,0\]"):
        al.build_algebroid(chart, 2, anchor, bracket({(1, 1, 0): f}))


def test_anchor_is_a_field_array_on_every_build_route(catalog):
    chart = Chart(3)
    routes = dict(catalog)
    routes["explicit"] = al.algebroid_from_dict(json.loads(
        (Path(__file__).parent / "data" / "so3_action.json").read_text()))
    routes["transformed"] = al.transform_algebroid(
        catalog["so3_action"],
        al.FrameChange(chart, [["1", "x1", "0"], ["0", "1", "0"],
                               ["0", "0", "1"]]))
    routes["tangent"] = al.CoordForm(chart, 1, {(0,): 1.0}).algebroid
    for name, a in routes.items():
        assert isinstance(a.anchor, np.ndarray), name
        assert a.anchor.dtype == object, name
        assert a.anchor.shape == (a.rank, a.dimension), name
        assert all(isinstance(f, ScalarField) and f.chart == a.chart
                   for f in a.anchor.flat), name
    assert catalog["sl2"].anchor.shape == (3, 0)
    # over a point there is no anchor entry to evaluate, so only the
    # length check refuses the point
    for at in (catalog["sl2"].anchor_matrix_at, catalog["sl2"].bracket_at):
        with pytest.raises(DimensionMismatchError):
            at((1.0,))


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


def test_anchor_rank_refuses_non_finite_points(catalog):
    # a NaN point used to reach the SVD and raise numpy's LinAlgError
    a = catalog["so3_action"]
    for bad in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)):
        with pytest.raises(DimensionMismatchError, match="finite"):
            al.anchor_rank_at(a, bad)


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
    lin = al.linearize_at(a, (0.0, 0.0, 0.0))
    assert np.allclose(lin.isotropy.constants, -EPS3, atol=1e-12)
    assert lin.algebroid.rank == lin.algebroid.dimension == 3
    assert np.array_equal(lin.algebroid.bracket_at((0.0, 0.0, 0.0)),
                          lin.isotropy.constants)
    # the action fields are already linear, so linearization returns them
    for fields, row in zip(lin.algebroid.anchor, SO3_ACTION_FIELDS):
        for got, text in zip(fields, row):
            assert (got - parse_field(got.chart, text)).is_zero()


def test_linearize_scaling_origin(catalog):
    lin = al.linearize_at(catalog["scaling"], (0.0,))
    assert lin.isotropy.constants.shape == (1, 1, 1)
    assert lin.isotropy.constants[0, 0, 0] == 0.0
    assert lin.algebroid.bracket[0, 0, 0].is_zero()
    x = ScalarField.coordinate(lin.algebroid.chart, 0)
    assert (lin.algebroid.anchor[0, 0] - x).is_zero()


def test_linearized_data_is_an_action(catalog):
    # the linearization is an algebroid that validate takes as it is
    lin = al.linearize_at(catalog["so3_action"], (0.0, 0.0, 0.0))
    assert al.validate(lin.algebroid, n_samples=20, seed=0).passed


def test_linearization_at_a_regular_point_is_an_algebroid(catalog):
    # no isotropy and no normal space: a rank-0 algebroid over a point
    lin = al.linearize_at(catalog["tangent2"], (0.3, 0.1))
    assert (lin.algebroid.rank, lin.algebroid.dimension) == (0, 0)
    assert lin.isotropy.basis.shape == (2, 0)
    assert lin.normal_basis.shape == (2, 0) and lin.jacobi_tol == 1e-12
    assert al.validate(lin.algebroid).passed
    # on the unit sphere of so3_action, rotations about x1 fix (1, 0, 0)
    # and act trivially on the radial direction
    lin = al.linearize_at(catalog["so3_action"], (1.0, 0.0, 0.0))
    a = lin.algebroid
    assert (a.rank, a.dimension) == (1, 1)
    assert np.array_equal(lin.isotropy.basis, [[1.0], [0.0], [0.0]])
    assert np.array_equal(lin.normal_basis, [[1.0], [0.0], [0.0]])
    assert a.anchor[0, 0].is_zero() and a.bracket[0, 0, 0].is_zero()
    assert al.validate(a).passed


def test_linearized_data_after_a_frame_change_is_an_action():
    # after a constant unipotent frame change the isotropy bracket at a
    # generic point carries roundoff; isotropy_at makes its constants
    # exactly antisymmetric, so build_algebroid takes the linearization's
    # anchor and bracket
    a = al.load_algebroid(DATA / "so3_action.json")
    a = al.transform_algebroid(a, al.FrameChange(
        a.chart, [["1", "2", "0"], ["0", "1", "-3"], ["0", "0", "1"]]))
    for p in rng_for("linearize_frame_change").uniform(-1.0, 1.0, (40, 3)):
        lin = al.linearize_at(a, p).algebroid
        c = lin.bracket_at((0.0,) * lin.dimension)
        assert np.array_equal(c, -c.transpose(1, 0, 2))
        lin = al.build_algebroid(lin.chart, lin.rank, lin.anchor, lin.bracket)
        assert al.validate(lin, n_samples=5, seed=0).passed


def test_metadata_is_carried_unread():
    # metadata is never read, so a transformation kind with bad params
    # builds nothing and comes back as given
    meta = {"name": "x", "kind": "transformation",
            "params": {"constants": "bad", "fields": [[None]]},
            "notes": [1, 2.5, True, None]}
    spec = {"dimension": 1, "rank": 1, "anchor": [["x1"]], "metadata": meta}
    a = al.algebroid_from_dict(json.loads(json.dumps(spec)))
    assert a.metadata == meta
    assert al.algebroid_to_dict(a)["metadata"] == meta
    assert al.algebroid_from_dict(al.algebroid_to_dict(a)).metadata == meta


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


def test_constants_jacobiator_is_bit_for_bit_one_matmul_and_cyclic_sum():
    rng = rng_for("jacobiator bits")
    for r in (1, 2, 5, 8):
        c = rng.standard_normal((r, r, r))
        c = c - c.transpose(1, 0, 2)
        p = (c.reshape(r * r, r) @ c.reshape(r, r * r)).reshape((r,) * 4)
        want = p + p.transpose(2, 0, 1, 3)
        want += p.transpose(1, 2, 0, 3)
        assert np.array_equal(al.constants_jacobiator(c), want), r


# ------------------------------------------------ split axiom defect kernel

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def field_defects(a):
    """{(defect, index...): field} of every anchor, Jacobi and antisymmetry
    defect entry, built through bracket_sections, anchor_apply and
    vector_field_bracket: an oracle that shares no code with the kernel."""
    r = a.rank
    frames = a.frame_sections()
    br = [[al.bracket_sections(a, frames[s], frames[t]) for t in range(r)]
          for s in range(r)]
    out = {}
    for s, t in itertools.product(range(r), repeat=2):
        lhs = al.anchor_apply(a, br[s][t])
        rhs = al.vector_field_bracket(a.anchor_row(s), a.anchor_row(t))
        for i, (x, y) in enumerate(zip(lhs.comps, rhs.comps)):
            out["anchor", s, t, i] = x - y
        for u in range(r):
            out["anti", s, t, u] = a.bracket[s, t, u] + a.bracket[t, s, u]
    for s, t, u in itertools.product(range(r), repeat=3):
        j = (al.bracket_sections(a, br[s][t], frames[u])
             + al.bracket_sections(a, br[t][u], frames[s])
             + al.bracket_sections(a, br[u][s], frames[t]))
        for w, f in enumerate(j.coeffs):
            out["jacobi", s, t, u, w] = f
    return out


def kernel_defects(a):
    """The same entries from _axiom_defects, as {key: {monomial: coeff}}."""
    out = {}
    for g, *defects in _axiom_defects(_split(a.chart, a.bracket),
                                      _split(a.chart, a.anchor)):
        for name, d in zip(("anchor", "jacobi", "anti"), defects):
            if d is not None:
                for idx in zip(*np.nonzero(d)):
                    out.setdefault((name,) + idx, {})[g] = float(d[idx])
    return out


def assert_kernel_matches_fields(a, rel=1e-13):
    """Coefficient by coefficient, to rel times the largest oracle
    coefficient (exact on integer data); NaN and inf in the same places.
    Returns the names of the defects that are not identically zero."""
    want = field_defects(a)
    got = kernel_defects(a)
    assert set(got) <= set(want)
    scale = max([1.0] + [abs(v) for f in want.values()
                         for v in f.coeffs.values() if math.isfinite(v)])
    nonzero = set()
    for key, field in want.items():
        coeffs = got.get(key, {})
        monos = sorted(set(coeffs) | set(field.coeffs))
        np.testing.assert_allclose(
            [coeffs.get(e, 0.0) for e in monos],
            [field.coeffs.get(e, 0.0) for e in monos],
            rtol=0, atol=rel * scale, equal_nan=True, err_msg=str(key))
        if field.coeffs:
            nonzero.add(key[0])
    return nonzero


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_axiom_kernel_matches_fields_on_test_data():
    built = []
    for path in sorted(DATA.glob("*.json")):
        if "segments" in json.loads(path.read_text()):
            continue   # an A-path, not an algebroid
        assert_kernel_matches_fields(al.load_algebroid(path))
        built.append(path.name)
    assert len(built) >= 6, built


def test_axiom_kernel_matches_fields_on_workload_families():
    wl = load_workloads()
    gen = wl.philox(7, "poly_symbolic")
    specs = [wl.so3_action_spec(gen), wl.poisson_spec(gen, "aff1"),
             wl.poisson_spec(gen, "sl2"), wl.poisson_spec(gen, "gl2"),
             wl.heisenberg_spec(gen, 1), wl.heisenberg_spec(gen, 2, rank=4),
             wl.heisenberg_spec(gen, 1, rank=4)]
    for spec in specs:
        assert assert_kernel_matches_fields(al.algebroid_from_dict(spec)) \
            <= set(), spec


def test_axiom_kernel_matches_fields_on_each_defect():
    # charts of dimension 2 and 3, each defect nonzero in turn, float data
    chart3 = Chart(3)
    anchor = [list(row) for row in SO3_ACTION_FIELDS]
    anchor[2][0] = "-x2 + 0.3*x1^2"
    bent = al.build_algebroid(chart3, 3, anchor, -EPS3)
    assert assert_kernel_matches_fields(bent) == {"anchor"}

    chart2 = Chart(2)
    bracket = al.algebroid._bracket_from_entries(chart2, 4, [
        {"s": 1, "t": 2, "u": 4, "value": "0.7*x1*x2 - x2^2"},
        {"s": 4, "t": 3, "u": 4, "value": "1.5 + x1"}])
    zero_anchor = np.zeros((4, 2))
    off_jacobi = al.build_algebroid(chart2, 4, zero_anchor, bracket)
    assert assert_kernel_matches_fields(off_jacobi) == {"jacobi"}

    skew = bracket.copy()
    skew[1, 0, 3] = parse_field(chart2, "0.25*x2")
    not_anti = al.LieAlgebroid(chart2, 4, off_jacobi.anchor, skew)
    assert "anti" in assert_kernel_matches_fields(not_anti)

    # a bivector that is not Poisson: the anchor terms of Jacobi count too
    not_poisson = al.catalog_build("poisson", {"dimension": 3, "bivector": [
        ["0", "0.5*x1", "x3^2"], ["-0.5*x1", "0", "x2 - 0.1"],
        ["-x3^2", "0.1 - x2", "0"]]})
    assert assert_kernel_matches_fields(not_poisson) == {"anchor", "jacobi"}

    # linear Poisson structure of so(3) in a random real basis: every
    # defect is roundoff, matched to the oracle's roundoff
    rng = rng_for("axiom kernel float data")
    p = rng.standard_normal((3, 3))
    c = np.einsum("as,bt,stu,uv->abv", p, p, EPS3, np.linalg.inv(p))
    c = 0.5 * (c - c.transpose(1, 0, 2))
    units = [tuple(e) for e in np.eye(3, dtype=int).tolist()]
    biv = [[ScalarField(chart3, dict(zip(units, c[i, j]))) for j in range(3)]
           for i in range(3)]
    assert_kernel_matches_fields(
        al.catalog_build("poisson", {"dimension": 3, "bivector": biv}))


def test_validate_samples_the_field_defects():
    # validate's residuals are the parent route's: the oracle's defect
    # fields on its entries, evaluated at the same points, to roundoff
    chart2, chart3 = Chart(2), Chart(3)
    anchor = [list(row) for row in SO3_ACTION_FIELDS]
    anchor[2][0] = "-x2 + 0.3*x1^2"
    bracket = al.algebroid._bracket_from_entries(chart2, 4, [
        {"s": 1, "t": 2, "u": 4, "value": "0.7*x1*x2 - x2^2"},
        {"s": 4, "t": 3, "u": 4, "value": "1.5 + x1"}])
    skew = bracket.copy()
    skew[1, 0, 3] = parse_field(chart2, "0.25*x2^3")
    cases = [
        al.build_algebroid(chart3, 3, anchor, -EPS3),
        al.LieAlgebroid(chart2, 4, al.build_algebroid(
            chart2, 4, np.zeros((4, 2)), bracket).anchor, skew),
        al.catalog_build("poisson", {"dimension": 3, "bivector": [
            ["0", "0.5*x1", "x3^2"], ["-0.5*x1", "0", "x2 - 0.1"],
            ["-x3^2", "0.1 - x2", "0"]]})]
    for a in cases:
        r = a.rank
        fields = field_defects(a)
        pts = seeded_points(50, a.dimension, 0)
        keys = {
            "anchor": [("anchor", s, t, i) for s, t in
                       itertools.combinations(range(r), 2)
                       for i in range(a.dimension)],
            "jacobi": [("jacobi",) + st + (w,) for st in
                       itertools.combinations(range(r), 3)
                       for w in range(r)],
            "anti": [("anti", s, t, u) for s in range(r)
                     for t in range(s, r) for u in range(r)]}
        want = {name: max_abs(fields[k].evaluate(tuple(p))
                              for k in ks for p in pts)
                for name, ks in keys.items()}
        report = al.validate(a, n_samples=50, seed=0)
        got = {"anchor": report.anchor_residual,
               "jacobi": report.jacobi_residual,
               "anti": report.antisymmetry_residual}
        assert any(want.values())
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-12,
                                              abs=1e-15), name


def bundle(m, entries, rank=4):
    return al.catalog_build("lie_algebra_bundle", {
        "dimension": m, "rank": rank, "bracket": entries})


def test_bundle_certificate_refuses_a_small_jacobi_defect():
    # J(e1, e2, e3) = eps x1 x2 [e4, e3] = eps x1 x2 e4, eps = 1e-6
    with pytest.raises(JacobiViolationError, match="defect 1.000e-06"):
        bundle(2, [{"s": 1, "t": 2, "u": 4, "value": "1e-6*x1*x2"},
                   {"s": 4, "t": 3, "u": 4, "value": "1"}])
    # x1^200 x2^200 is below 1e-12 at all 20 points the build once sampled,
    # so that check passed this bracket; its certificate is 1e-6
    chart = Chart(2)
    entries = [{"s": 1, "t": 2, "u": 4, "value": "1e-6*x1^200*x2^200"},
               {"s": 4, "t": 3, "u": 4, "value": "1"}]
    a = al.build_algebroid(chart, 4, np.zeros((4, 2)),
                           al.algebroid._bracket_from_entries(chart, 4,
                                                              entries))
    sampled = max_abs(max_abs(al.constants_jacobiator(a.bracket_at(p)))
                      for p in seeded_points(20, 2, 0))
    assert 0.0 < sampled <= 1e-10
    with pytest.raises(JacobiViolationError, match="defect 1.000e-06"):
        bundle(2, entries)


def test_bundle_certificate_refuses_overflow_without_warnings():
    # so(3) times 1e200*x1: the x1^2 Jacobi products overflow
    entries = [{"s": s, "t": t, "u": u, "value": "1e200*x1"}
               for s, t, u in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JacobiViolationError,
                           match="defect (nan|inf)"):
            bundle(1, entries, rank=3)


def test_each_kind_keeps_its_jacobi_tolerance():
    # [e1, e2] = 1e-11 e4 and [e4, e3] = e4: J(e1, e2, e3) = 1e-11 e4 is
    # within the 1e-10 of lie_algebra and lie_algebra_bundle and above the
    # 1e-12 of a transformation algebroid's constants
    c = np.zeros((4, 4, 4))
    c[0, 1, 3], c[1, 0, 3] = 1e-11, -1e-11
    c[3, 2, 3], c[2, 3, 3] = 1.0, -1.0
    assert max_abs(al.constants_jacobiator(c)) == 1e-11
    al.catalog_build("lie_algebra", {"constants": c})
    bundle(1, [{"s": 1, "t": 2, "u": 4, "value": 1e-11},
               {"s": 4, "t": 3, "u": 4, "value": 1}])
    with pytest.raises(JacobiViolationError,
                       match=r"^bracket fails Jacobi \(certified defect "
                             r"1\.000e-11\)$"):
        al.catalog_build("transformation", {
            "dimension": 1, "constants": c, "fields": [[0]] * 4})
    # linearize_at allows max(1e-12, 10 x closure residual): the same
    # constants as the isotropy of e2..e5 at 0 are refused, and taken
    # once [e3, e4] leaves the kernel by 1e-10
    c5 = np.zeros((5, 5, 5))
    c5[1:, 1:, 1:] = c
    anchor = [["1"], ["x1"], ["0"], ["0"], ["0"]]
    a = al.build_algebroid(Chart(1), 5, anchor, c5)
    with pytest.raises(JacobiViolationError, match="defect 1.000e-11"):
        al.linearize_at(a, (0.0,))
    c5[2, 3, 0], c5[3, 2, 0] = 1e-10, -1e-10
    lin = al.linearize_at(al.build_algebroid(Chart(1), 5, anchor, c5), (0.0,))
    assert np.array_equal(lin.isotropy.basis, np.eye(5)[:, 1:])
    assert lin.isotropy.residual == 1e-10 and lin.jacobi_tol == 1e-9
    assert np.array_equal(lin.isotropy.constants, c)


def test_certificate_bounds_every_sampled_value():
    rng = rng_for("certificate")
    for m in (1, 2, 3):
        chart = Chart(m)
        monos = [e for e in itertools.product(range(4), repeat=m)
                 if sum(e) <= 3]
        for trial in range(5):
            keys = [monos[i] for i in sorted(rng.choice(
                len(monos), size=min(len(monos), 6), replace=False))]
            parts = {e: rng.standard_normal((2, 3))
                     * (rng.random((2, 3)) < 0.7) for e in keys}
            cert = _certificate(parts.values())
            fields = _join(chart, parts)
            pts = seeded_points(200, m, trial)
            sampled = max_abs(f.evaluate(tuple(p)) for f in fields.flat
                              for p in pts)
            assert sampled <= cert * (1 + 1e-12), (m, trial)
            # at (1, ..., 1) the entry of largest certificate reaches it
            # when its coefficients share a sign
            same = {e: np.abs(x) for e, x in parts.items()}
            ones = (1.0,) * m
            top = max_abs(f.evaluate(ones) for f in _join(chart, same).flat)
            assert top == pytest.approx(_certificate(same.values()),
                                        rel=1e-12)
    assert _certificate([None]) == 0.0
    assert math.isnan(_certificate([np.array([1.0, math.nan])]))


def test_workload_bundles_still_build():
    wl = load_workloads()
    for seed in range(1, 11):
        gen = wl.philox(seed, "poly_symbolic")
        for m, rank in ((1, 3), (2, 4), (1, 4), (2, 3)):
            a = al.algebroid_from_dict(wl.heisenberg_spec(gen, m, rank=rank))
            assert a.rank == rank and a.dimension == m
