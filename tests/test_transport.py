"""A-paths, lifting, parallel transport, holonomy."""

import re
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import algebroidlab as al
from algebroidlab.errors import (
    AlgebroidMismatchError,
    DimensionMismatchError,
    ExpressionSyntaxError,
    NotAFixedPointError,
    NotALoopError,
    NotTangentError,
    ShapeMismatchError,
    ToleranceNotMetError,
)
from algebroidlab.fields import ScalarField
from conftest import EPS3, circle_pieces, random_symbols, rng_for

DATA = Path(__file__).parent / "data"
V = np.array([0.4, -0.3, 0.7])


def bracket_conn(a):
    return al.build_connection(a, "A", a.bracket)


def adjoint_matrix(a, v):
    c = a.bracket_at(tuple(0.0 for _ in range(a.dimension)))
    return np.einsum("s,stu->ut", v, c)


def test_constant_loop_holonomy_is_exponential(catalog):
    # reference solution of dv/dt = -ad_v v over unit time
    a = catalog["so3"]
    conn = bracket_conn(a)
    path = al.constant_path(a, V, ())
    res = al.parallel_transport(conn, path, np.eye(3), n_steps=500)
    assert res.steps == 1000
    exact = expm(-adjoint_matrix(a, V))
    assert np.max(np.abs(res.value - exact)) < 1e-8
    hol = al.holonomy_matrix(conn, path, n_steps=500)
    assert np.array_equal(hol, res.value)


def test_step_halving_reduces_error_fourth_order(catalog):
    a = catalog["so3"]
    conn = bracket_conn(a)
    path = al.constant_path(a, V, ())
    exact = expm(-adjoint_matrix(a, V))
    e50 = np.max(np.abs(al.holonomy_matrix(conn, path, n_steps=25) - exact))
    e100 = np.max(np.abs(al.holonomy_matrix(conn, path, n_steps=50) - exact))
    assert 8.0 <= e50 / e100 <= 32.0


def test_flat_connection_transport_is_exact(catalog):
    a = catalog["so3_action"]
    sym = np.empty((3, 3, 3), dtype=object)
    sym[...] = ScalarField(a.chart)
    conn = al.build_connection(a, "A", sym)
    v0 = np.array([1.0, 2.0, 3.0])
    res = al.parallel_transport(conn, al.constant_path(a, V, (0.0, 0.0, 0.0)),
                                v0, n_steps=8)
    assert np.array_equal(res.value, v0)
    assert res.error == 0.0


def test_fixed_point_holonomy_inverts_transport(catalog):
    a = catalog["so3_action"]
    adp, jacp = al.fixed_point_holonomy(a, V)
    hol = al.holonomy_matrix(bracket_conn(a),
                             al.constant_path(a, V, (0.0, 0.0, 0.0)),
                             n_steps=500)
    assert np.max(np.abs(adp @ hol - np.eye(3))) < 1e-6
    # the linearized base part of a rotation action is orthogonal
    assert np.max(np.abs(jacp @ jacp.T - np.eye(3))) < 1e-12


def test_fixed_point_holonomy_base_part_is_tm_transport(catalog):
    # the TM mate of compatible_connection transports by the base part
    # itself, not by its inverse
    for name, v in (("so3_action", V), ("scaling", [0.7])):
        a = catalog[name]
        _adp, jacp = al.fixed_point_holonomy(a, v)
        origin = tuple(0.0 for _ in range(a.dimension))
        hol = al.holonomy_matrix(al.compatible_connection(a)[1],
                                 al.constant_path(a, v, origin), n_steps=200)
        assert np.max(np.abs(jacp - hol)) < 1e-9, name
        if name == "scaling":
            assert abs(jacp[0, 0] - 2.01375271) < 1e-8


def test_fixed_point_holonomy_matches_scipy_expm(catalog):
    a = catalog["so3_action"]
    rng = rng_for("fixed_point_expm")
    for v in rng.uniform(-1.5, 1.5, (5, 3)):
        adp, jacp = al.fixed_point_holonomy(a, v)
        assert np.max(np.abs(adp - expm(adjoint_matrix(a, v)))) < 1e-13
        # rho_s^i = sum_j EPS3[s, j, i] x_j on so3_action
        jac = np.einsum("s,sji->ij", v, EPS3)
        assert np.max(np.abs(jacp - expm(jac))) < 1e-13
    # a non-diagonalizable action, (x1 + x2) d1 + x2 d2
    jordan = al.catalog_build("transformation", {
        "dimension": 2, "constants": [[[0.0]]], "fields": [["x1 + x2", "x2"]]})
    adp, jacp = al.fixed_point_holonomy(jordan, [1.3])
    assert adp[0, 0] == 1.0
    assert np.max(np.abs(jacp - expm(np.array([[1.3, 1.3], [0.0, 1.3]])))) \
        < 1e-13
    # a point: the base part is 0 x 0
    point = al.catalog_build("transformation", {
        "dimension": 0, "constants": [[[0.0]]], "fields": [[]]})
    adp, jacp = al.fixed_point_holonomy(point, [0.3])
    assert adp[0, 0] == 1.0
    assert jacp.shape == (0, 0)
    assert np.array_equal(jacp, expm(np.zeros((0, 0))))


def test_fixed_point_holonomy_scaling_values(catalog):
    a = catalog["scaling"]
    adp, jacp = al.fixed_point_holonomy(a, [1.0])
    assert adp.shape == (1, 1) and adp[0, 0] == 1.0
    assert abs(jacp[0, 0] - np.e) < 1e-12


def test_fixed_point_holonomy_rejects_moving_origin():
    a = al.catalog_build("transformation", {
        "dimension": 1, "constants": [[[0.0]]], "fields": [["1"]]})
    with pytest.raises(NotAFixedPointError):
        al.fixed_point_holonomy(a, [1.0])


def test_fixed_point_holonomy_of_any_algebroid_at_a_zero_of_the_anchor(
        catalog):
    # only the anchor and bracket at the origin are read: the generic-format
    # file gives the catalog action's pair bit for bit, and a Lie algebra, a
    # linear Poisson structure, a frame change and a bundle work the same
    loaded = al.load_algebroid(DATA / "so3_action.json")
    got = al.fixed_point_holonomy(loaded, V)
    want = al.fixed_point_holonomy(catalog["so3_action"], V)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    transformed = al.transform_algebroid(loaded, al.FrameChange(
        loaded.chart, [["1", "x1", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    bundle = al.catalog_build("lie_algebra_bundle", {
        "dimension": 1, "rank": 2,
        "bracket": [{"s": 1, "t": 2, "u": 2, "value": "1 + x1"}]})
    cases = {"so3_action.json": (loaded, V), "so3": (catalog["so3"], V),
             "dual_so3": (catalog["dual_so3"], V),
             "transformed": (transformed, V), "bundle": (bundle, [0.6, -0.4])}
    for name, (a, v) in cases.items():
        adp, jacp = al.fixed_point_holonomy(a, v)
        assert jacp.shape == (a.dimension, a.dimension), name
        origin = tuple(0.0 for _ in range(a.dimension))
        hol = al.holonomy_matrix(bracket_conn(a),
                                 al.constant_path(a, v, origin), n_steps=500)
        assert np.max(np.abs(adp @ hol - np.eye(a.rank))) < 1e-10, name


def test_fixed_point_holonomy_rejects_non_finite_element(catalog):
    # the Pade exponential of a non-finite matrix is all NaN, with no
    # error of its own, so the element is checked first
    for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ShapeMismatchError):
            al.fixed_point_holonomy(catalog["so3_action"], bad)


def test_fixed_point_holonomy_refuses_overflow_without_warnings(catalog):
    # exp(ad_v) at |v| = 1e200 overflows a double in the squarings
    a = catalog["so3_action"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for big in ([1e200, 0.0, 0.0], [1e308, 1e308, 0.0]):
            with pytest.raises(ShapeMismatchError, match="overflows"):
                al.fixed_point_holonomy(a, big)
    assert caught == []
    adp, jacp = al.fixed_point_holonomy(a, [1e17, 0.0, 0.0])
    assert np.all(np.isfinite(adp)) and np.all(np.isfinite(jacp))


def test_lift_equator_circle(catalog):
    a = catalog["so3_action"]
    lift = al.lift_base_path(a, circle_pieces())
    assert lift.residual < 1e-8
    want = np.array([0.0, 0.0, 2.0 * np.pi])
    dev = max(np.max(np.abs(lift.coeff_at(t) - want))
              for t in np.linspace(0.0, 1.0, 101))
    assert dev < 1e-8
    assert np.max(np.abs(lift.base_at(0.25) - np.array([0.0, 1.0, 0.0]))) < 1e-9
    assert np.max(np.abs(lift.base_at(1.0) - np.array([1.0, 0.0, 0.0]))) < 1e-9


def test_lift_latitude_circle(catalog):
    # z = 0.6 latitude of the unit sphere; varying coefficients need the
    # finer node grid
    a = catalog["so3_action"]
    lift = al.lift_base_path(a, circle_pieces(z0=0.6, radius=0.8), grid=512)
    assert lift.residual < 1e-8


def lift_nodes(a, pieces, grid):
    """The lift's anchor systems b^T x = gamma' at the grid nodes, stacked:
    (nodes, dimension, rank) matrices and (nodes, dimension) velocities."""
    from algebroidlab.fields import _split, _split_values
    from algebroidlab.transport import _horner, _pieces

    nodes = np.linspace(0.0, 1.0, grid + 1)
    bounds, curve = _pieces(pieces, (("base curve", a.dimension),), "pieces")
    points, vel = _horner(curve, bounds[:, 0], nodes)
    b = _split_values(_split(a.chart, a.anchor), points)
    return b.transpose(0, 2, 1), vel


def per_node_lstsq(mats, vel):
    return np.array([np.linalg.lstsq(b, v, rcond=None)[0]
                     for b, v in zip(mats, vel)])


def test_stacked_solve_matches_per_node_lstsq(catalog):
    # seeded latitudes from the benchmark's range, and the equator: the
    # anchor has rank 2 there, and its smallest singular value must sit
    # well under lstsq's cutoff, or the two solves could keep different
    # ranks and move the coefficients along the kernel
    from algebroidlab.transport import _min_norm

    a = catalog["so3_action"]
    cutoff = np.finfo(float).eps * 3
    rng = rng_for("stacked_lift")
    latitudes = [(0.0, 1.0)] + rng.uniform([-0.8, 0.5], [0.8, 1.5],
                                           (20, 2)).tolist()
    for z0, radius in latitudes:
        mats, vel = lift_nodes(a, circle_pieces(z0=z0, radius=radius), 512)
        got = _min_norm(mats, vel)
        want = per_node_lstsq(mats, vel)
        assert np.all(np.linalg.norm(got - want, axis=1)
                      <= 1e-13 * np.linalg.norm(want, axis=1))
        res_got = np.abs(np.einsum("nij,nj->ni", mats, got) - vel)
        res_want = np.abs(np.einsum("nij,nj->ni", mats, want) - vel)
        assert np.max(res_got) <= np.max(res_want) + 1e-14 * np.max(np.abs(vel))
        sv = np.linalg.svd(mats, compute_uv=False)
        assert np.max(sv[:, -1] / sv[:, 0]) <= 0.5 * cutoff
    # a radial curve through the origin: the anchor is zero at t = 1/2,
    # where both solves give zero
    t_chart = al.transport.T_CHART
    radial = [(0.0, 1.0, [al.parse_field(t_chart, g)
                          for g in ("t - 0.5", "0", "0")])]
    mats, vel = lift_nodes(a, radial, 512)
    assert not mats[256].any() and vel[256].any()
    got = _min_norm(mats, vel)
    assert np.array_equal(got[256], np.zeros(3))
    assert np.max(np.abs(got - per_node_lstsq(mats, vel))) <= 1e-15
    origin = al.lift_base_path(a, ["0", "0", "0"], grid=8)
    assert origin.residual == 0.0 and not origin._table.any()
    # the identity anchor of tangent2: both solves give the velocity itself
    t2 = catalog["tangent2"]
    mats, vel = lift_nodes(t2, [(0.0, 1.0, [al.parse_field(t_chart, g)
                                            for g in ("t", "t*t")])], 64)
    assert np.array_equal(_min_norm(mats, vel), vel)
    assert np.array_equal(per_node_lstsq(mats, vel), vel)


def test_lift_refuses_overflow_quietly(capfd):
    # 1e200 * x1 at x1 = 1e200 t overflows: refused before any LAPACK call,
    # with no numpy warning and nothing from LAPACK on stderr
    a = al.load_algebroid(DATA / "overflow.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for base in (["1e200*t"], ["1e308*t + 1e308"]):
            with pytest.raises(ShapeMismatchError, match="overflows a double"):
                al.lift_base_path(a, base)
        # finite nodes, but coefficients 1e10 / 1e-300 past a double: the
        # path check refuses the non-finite residual
        tiny = al.catalog_build("transformation", {
            "dimension": 1, "constants": [[[0.0]]], "fields": [["1e-300"]]})
        with pytest.raises(NotTangentError, match="residual nan"):
            al.lift_base_path(tiny, ["1e10*t"])
    assert caught == []
    assert capfd.readouterr().err == ""


def test_lifted_paths_compose_as_tables(catalog):
    # reverse and concat compose the lift's table rows; the lift has a
    # segment per grid cell, so a clock change needs a single-segment
    # table-only path, the reversed arc
    a = catalog["so3_action"]
    lift = al.lift_base_path(a, circle_pieces(z0=0.6, radius=0.8), grid=512)
    rev = al.reverse_path(lift)
    for t in np.linspace(0.0, 1.0, 41):
        assert np.max(np.abs(rev.base_at(t) - lift.base_at(1.0 - t))) <= 1e-12
    loop = al.concat_paths(lift, rev)
    assert len(loop.segments) == 2 * len(lift.segments) == 1024
    hol = al.holonomy_matrix(bracket_conn(a), loop, n_steps=200)
    assert np.max(np.abs(hol - np.eye(3))) <= 1e-10
    with pytest.raises(ShapeMismatchError):
        al.reparametrize_path(lift, "t*t")
    t2 = catalog["tangent2"]
    conn = al.build_connection(t2, "A", random_symbols(t2, "A", 21, degree=1))
    back = al.reverse_path(plane_arc(t2))
    rep = al.reparametrize_path(back, "t*t")
    v0 = np.array([1.0, -2.0])
    fwd = al.parallel_transport(conn, back, v0, n_steps=400).value
    slow = al.parallel_transport(conn, rep, v0, n_steps=400).value
    assert np.max(np.abs(slow - fwd)) < 1e-9


def test_lift_rejects_radial_path(catalog):
    a = catalog["so3_action"]
    with pytest.raises(NotTangentError):
        al.lift_base_path(a, ["1 + t", "0", "0"])


def test_lift_refuses_bool_piece_bounds(catalog):
    # False and True are not the bounds 0 and 1, as in APath, nor the
    # numbers 0 and 1 among a piece's polynomials
    a = catalog["so3_action"]
    for t0, t1 in ((False, True), (np.False_, np.True_), (0.0, True)):
        with pytest.raises(ShapeMismatchError,
                           match="segment bounds must be numbers"):
            al.lift_base_path(a, [(t0, t1, ["0", "0", "1"])])
    for curve in ([0, 0, True], [0.0, np.True_, 1.0]):
        with pytest.raises(ExpressionSyntaxError,
                           match="True_? is not a field"):
            al.lift_base_path(a, [(0.0, 1.0, curve)])


def test_lift_reads_numpy_number_piece_bounds(catalog):
    # numpy ints and floats bound pieces as Python numbers do; they used to
    # fall through to the single-curve branch and fail there
    a = catalog["so3_action"]
    pieces = circle_pieces(n_seg=8)
    want = al.lift_base_path(a, pieces)
    mixed = [(np.int64(0) if t0 == 0.0 else np.float32(t0),
              np.int64(1) if t1 == 1.0 else np.float64(t1), gs)
             for t0, t1, gs in pieces]
    got = al.lift_base_path(a, mixed)
    assert np.array_equal(got.segments, want.segments)
    assert np.array_equal(got._table, want._table)
    lift = al.lift_base_path(a, [(np.int64(0), 1.0, ["1", "0", "0"])])
    assert lift.residual == 0.0


def test_lift_tangent_algebroid_is_velocity(catalog):
    a = catalog["tangent2"]
    lift = al.lift_base_path(a, ["t", "t*t"])
    assert lift.residual == 0.0
    assert np.max(np.abs(lift.coeff_at(0.5) - np.array([1.0, 1.0]))) < 1e-12
    assert np.array_equal(lift.velocity_at(0.5), lift.coeff_at(0.5))
    assert np.max(np.abs(lift.base_at(1.0) - np.array([1.0, 1.0]))) < 1e-12


def test_equator_holonomy_is_identity(catalog):
    # a full turn generated by the third rotation has period one
    a = catalog["so3_action"]
    lift = al.lift_base_path(a, circle_pieces())
    hol = al.holonomy_matrix(bracket_conn(a), lift, n_steps=200)
    assert np.max(np.abs(hol - np.eye(3))) < 1e-6


def test_constant_path_needs_isotropy_coefficients(catalog):
    a = catalog["so3_action"]
    with pytest.raises(NotTangentError):
        al.constant_path(a, (0.0, 0.0, 2.0 * np.pi), (1.0, 0.0, 0.0))
    with pytest.raises(DimensionMismatchError):
        al.constant_path(a, (2.0 * np.pi, 0.0, 0.0), (np.nan, 0.0, 0.0))
    # True is not the coefficient 1
    with pytest.raises(ExpressionSyntaxError, match="True is not a field"):
        al.constant_path(a, [True, 0, 0], (1.0, 0.0, 0.0))
    path = al.constant_path(a, (2.0 * np.pi, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert path.residual == 0.0
    hol = al.holonomy_matrix(bracket_conn(a), path, n_steps=500)
    assert np.max(np.abs(hol - np.eye(3))) < 1e-8


def plane_arc(a):
    return al.APath(a, [(0.0, 1.0, ["t", "t*t"], ["1", "2*t"])])


def test_reverse_path_inverts_transport(catalog):
    a = catalog["tangent2"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 21, degree=1))
    arc = plane_arc(a)
    rev = al.reverse_path(arc)
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(rev.base_at(t) - arc.base_at(1.0 - t))) < 1e-12
        assert np.max(np.abs(rev.coeff_at(t) + arc.coeff_at(1.0 - t))) < 1e-12
    v0 = np.array([1.0, -2.0])
    fwd = al.parallel_transport(conn, arc, v0, n_steps=400).value
    back = al.parallel_transport(conn, rev, fwd, n_steps=400).value
    assert np.max(np.abs(back - v0)) < 1e-10


def test_concat_roundtrip_holonomy_is_identity(catalog):
    a = catalog["tangent2"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 21, degree=1))
    arc = plane_arc(a)
    loop = al.concat_paths(arc, al.reverse_path(arc))
    assert len(loop.segments) == 2
    hol = al.holonomy_matrix(conn, loop, n_steps=400)
    assert np.max(np.abs(hol - np.eye(2))) < 1e-10


def test_concat_requires_matching_endpoints(catalog):
    a = catalog["tangent2"]
    arc = plane_arc(a)
    with pytest.raises(NotTangentError):
        al.concat_paths(arc, arc)


def test_reparametrize_leaves_transport_alone(catalog):
    a = catalog["tangent2"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 21, degree=1))
    arc = plane_arc(a)
    rep = al.reparametrize_path(arc, "t*t")
    v0 = np.array([1.0, -2.0])
    fwd = al.parallel_transport(conn, arc, v0, n_steps=400).value
    slow = al.parallel_transport(conn, rep, v0, n_steps=400).value
    assert np.max(np.abs(slow - fwd)) < 1e-9


def test_reparametrize_rejects_bad_clocks(catalog):
    a = catalog["tangent2"]
    arc = plane_arc(a)
    with pytest.raises(ShapeMismatchError):
        al.reparametrize_path(arc, "t*t + 1")
    with pytest.raises(ShapeMismatchError):
        al.reparametrize_path(arc, "0.5*t")
    with pytest.raises(ExpressionSyntaxError, match="True is not a field"):
        al.reparametrize_path(arc, True)
    loop = al.concat_paths(arc, al.reverse_path(arc))
    with pytest.raises(ShapeMismatchError):
        al.reparametrize_path(loop, "t*t")


def test_path_segment_validation(catalog):
    a = catalog["tangent2"]
    still = (["0", "0"], ["0", "0"])
    with pytest.raises(ShapeMismatchError):
        al.APath(a, [])
    with pytest.raises(ShapeMismatchError):
        al.APath(a, [(0.0, 0.4, *still), (0.6, 1.0, *still)])
    with pytest.raises(ShapeMismatchError):
        al.APath(a, [(0.2, 1.0, *still)])
    with pytest.raises(ShapeMismatchError):
        al.APath(a, [(0.7, 0.3, *still)])
    with pytest.raises(ShapeMismatchError):
        al.APath(a, [(0.0, 1.0, ["0"], ["0", "0"])])
    with pytest.raises(ShapeMismatchError):
        al.APath(a, [(0.0, 1.0, ["0", "0"], ["0"])])
    # a 3-item segment, and a text that is not a list of polynomials
    for seg in ((0.0, 1.0, ["0", "0"]), (0.0, 1.0, "00", ["0", "0"])):
        with pytest.raises(ShapeMismatchError, match="segments must be"):
            al.APath(a, [seg])
    with pytest.raises(NotTangentError):
        al.APath(a, [(0.0, 0.5, *still), (0.5, 1.0, ["1", "1"], ["0", "0"])])


@pytest.mark.parametrize("pieces, msg", [
    ([(0.0, 0.3), (0.5, 1.0)], "pieces leave a gap or overlap in [0, 1]"),
    ([(0.0, 0.8)], "pieces must cover [0, 1]"),
    ([(0.2, 1.0)], "pieces must cover [0, 1]"),
    ([(0.0, 0.6), (0.4, 1.0)], "pieces leave a gap or overlap in [0, 1]"),
    ([(0.0, 0.5), (0.5, 0.2), (0.2, 1.0)],
     "pieces must end after they start"),
])
def test_lift_refuses_pieces_that_do_not_tile(catalog, pieces, msg):
    # APath refuses the same faults in segment bounds
    a = catalog["tangent2"]
    with pytest.raises(ShapeMismatchError, match=re.escape(msg)):
        al.lift_base_path(a, [(t0, t1, ["t", "0"]) for t0, t1 in pieces])
    with pytest.raises(ShapeMismatchError,
                       match=re.escape(msg.replace("pieces", "segments"))):
        al.APath(a, [(t0, t1, ["t", "0"], ["1", "0"]) for t0, t1 in pieces])


def test_lift_refuses_a_grid_past_the_array_limit(catalog):
    # refused before any node is allocated: a point's lift included, whose
    # anchor stack has no entries
    point = al.CoordForm(al.Chart(0), 0).algebroid
    for a, base in ((catalog["tangent2"], ["t", "0"]), (point, [])):
        with pytest.raises(ShapeMismatchError, match="more than 67108864"):
            al.lift_base_path(a, base, grid=10 ** 15)
    assert al.lift_base_path(point, [], grid=8).segments.shape == (8, 2)


@pytest.mark.parametrize("grid", [float("inf"), float("nan"), 4.9, "64", True],
                         ids=["inf", "nan", "fraction", "text", "bool"])
def test_lift_grid_must_be_an_integer(catalog, grid):
    # refused by name before the array bound, never cut to an int
    with pytest.raises(ShapeMismatchError,
                       match="grid must be an integer, got %s"
                       % re.escape(repr(grid))):
        al.lift_base_path(catalog["tangent2"], ["t", "0"], grid=grid)


def test_lift_grid_may_be_an_integral_float_or_numpy_int(catalog):
    a = catalog["tangent2"]
    want = al.lift_base_path(a, ["t", "t^2"], grid=64)
    for grid in (64.0, np.int64(64), np.float64(64.0)):
        got = al.lift_base_path(a, ["t", "t^2"], grid=grid)
        assert np.array_equal(got.segments, want.segments)
        assert np.array_equal(got._table, want._table)


def test_holonomy_needs_a_loop(catalog):
    a = catalog["tangent2"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 21, degree=1))
    with pytest.raises(NotALoopError):
        al.holonomy_matrix(conn, plane_arc(a))


def test_transport_input_checks(catalog):
    a = catalog["tangent2"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 21, degree=1))
    arc = plane_arc(a)
    with pytest.raises(ShapeMismatchError):
        al.parallel_transport(conn, arc, np.array([1.0, 2.0, 3.0]))
    other = bracket_conn(catalog["so3_action"])
    with pytest.raises(AlgebroidMismatchError):
        al.parallel_transport(other, arc, np.array([1.0, 2.0, 3.0]))


def test_transport_refuses_vectors_of_other_shapes(catalog):
    # a 0-d vector used to raise a bare IndexError, a (q, 2, 2) one a numpy
    # ValueError, and a (q, q, q) one was transported along its second axis
    a = catalog["so3_action"]
    conn = bracket_conn(a)
    path = al.constant_path(a, (0.5, -1.0, 1.0), (1.0, -2.0, 2.0))
    for bad in (np.float64(1.0), np.ones((3, 2, 2)), np.ones((3, 3, 3)),
                np.ones((2, 3))):
        with pytest.raises(ShapeMismatchError, match="not \\(3,\\) or"):
            al.parallel_transport(conn, path, bad)
    frame = al.parallel_transport(conn, path, np.eye(3)).value
    for k in range(3):
        column = al.parallel_transport(conn, path, np.eye(3)[:, k]).value
        assert np.max(np.abs(frame[:, k] - column)) <= 1e-14


def test_transport_refines_to_tolerance(catalog):
    a = catalog["so3_action"]
    conn = bracket_conn(a)
    path = al.constant_path(a, V, (0.0, 0.0, 0.0))
    res = al.parallel_transport(conn, path, np.array([1.0, 0.0, 0.0]),
                                n_steps=10, tol=1e-12)
    assert res.steps == 320
    assert res.error <= 1e-12
    assert res.tol == 1e-12


def test_transport_tolerance_failure_raises(catalog):
    a = catalog["so3_action"]
    conn = bracket_conn(a)
    path = al.constant_path(a, V, (0.0, 0.0, 0.0))
    with pytest.raises(ToleranceNotMetError):
        al.parallel_transport(conn, path, np.array([1.0, 0.0, 0.0]),
                              n_steps=10, tol=1e-30, max_steps=100)
    # a tol above the roundoff that the step limit leaves out of reach
    with pytest.raises(ToleranceNotMetError,
                       match="above tolerance 1.000e-13 at 80 steps"):
        al.parallel_transport(conn, path, np.array([1.0, 0.0, 0.0]),
                              n_steps=10, tol=1e-13, max_steps=100)


def test_transport_rejects_step_counts_out_of_range(catalog):
    # n_steps <= 0 would run one clamped RK4 step twice, so the error
    # estimate would read 0.0 and pass any tol
    a = catalog["so3_action"]
    conn = bracket_conn(a)
    path = al.constant_path(a, [0.3, -0.7, 1.1], (0.0, 0.0, 0.0))
    for n in (0, -3, 10**12):
        with pytest.raises(ValueError):
            al.parallel_transport(conn, path, np.eye(3), n_steps=n, tol=1e-12)
        with pytest.raises(ValueError):
            al.holonomy_matrix(conn, path, n_steps=n)
    with pytest.raises(ValueError):
        al.parallel_transport(conn, path, np.eye(3), n_steps=51, max_steps=100)
    res = al.parallel_transport(conn, path, np.eye(3), n_steps=50,
                                max_steps=100)
    assert res.steps == 100


def test_transport_rejects_bad_tolerances(catalog):
    # a NaN tolerance is never met, so refinement would run to max_steps
    a = catalog["so3_action"]
    conn = bracket_conn(a)
    path = al.constant_path(a, V, (0.0, 0.0, 0.0))
    for tol in (float("nan"), float("inf"), -1.0, -1e-300):
        with pytest.raises(ValueError):
            al.parallel_transport(conn, path, np.eye(3), tol=tol)
        with pytest.raises(ValueError):
            al.holonomy_matrix(conn, path, tol=tol)
    # zero is a tolerance, below the roundoff of any nonzero result:
    # refinement runs, and gives up at the first finer result
    with pytest.raises(ToleranceNotMetError):
        al.parallel_transport(conn, path, np.eye(3), n_steps=4, tol=0.0,
                              max_steps=16)


def test_transport_refuses_non_finite_vectors(catalog):
    # a NaN vector used to refine to max_steps with tol, taking seconds,
    # and to come back as the result, with error nan, without tol
    a = catalog["so3_action"]
    conn = al.compatible_connection(a)[0]
    path = al.constant_path(a, (2.0 * np.pi, 0.0, 0.0), (1.0, 0.0, 0.0))
    start = time.perf_counter()
    for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [[-np.inf] * 3] * 3):
        for tol in (None, 1e-10):
            with pytest.raises(ShapeMismatchError, match="finite"):
                al.parallel_transport(conn, path, bad, tol=tol)
    assert time.perf_counter() - start < 1.0


def test_transport_reads_only_numbers(catalog):
    # numpy read "1" and True as 1.0 in an initial vector or a frame
    a = catalog["so3_action"]
    conn = al.compatible_connection(a)[0]
    path = al.constant_path(a, (2.0 * np.pi, 0.0, 0.0), (1.0, 0.0, 0.0))
    for bad in (["1", True, "0"], [1.0, np.True_, 0.0], [1.0, None, 0.0],
                [[1, 0, 0], [0, True, 0], [0, 0, 1]]):
        with pytest.raises(ShapeMismatchError,
                           match="^initial vector must be numbers$"):
            al.parallel_transport(conn, path, bad)
    frame = [[1, 0, 0], [0, np.int32(1), 0], [0, 0, np.float32(1.0)]]
    want = al.parallel_transport(conn, path, np.eye(3)).value
    assert np.array_equal(al.parallel_transport(conn, path, frame).value, want)


def test_fixed_point_holonomy_reads_only_numbers(catalog):
    a = catalog["so3_action"]
    for bad in (["1", True, "0"], [np.True_, 0.0, 0.0], [0.5, "0", 0.0]):
        with pytest.raises(ShapeMismatchError,
                           match="^algebra element must be numbers$"):
            al.fixed_point_holonomy(a, bad)
    want = al.fixed_point_holonomy(a, [1.0, 0.0, 0.0])
    for good in ([1, 0, 0], np.array([1, 0, 0]), (np.float32(1.0), 0, -0.0)):
        got = al.fixed_point_holonomy(a, good)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_ints_too_large_for_a_double_are_not_finite(catalog):
    # float() of a 400-digit int raises OverflowError, which escaped from
    # each of these readers of numbers
    a = catalog["so3_action"]
    huge = 10 ** 400
    with pytest.raises(DimensionMismatchError,
                       match="^point coordinates must be finite$"):
        al.anchor_rank_at(a, (huge, 0, 0))
    with pytest.raises(ShapeMismatchError,
                       match="^algebra element must be finite$"):
        al.fixed_point_holonomy(a, [huge, 0, 0])
    path = al.constant_path(a, [1, 0, 0], (1, 0, 0))
    with pytest.raises(ShapeMismatchError,
                       match="^initial vector must be finite$"):
        al.parallel_transport(al.compatible_connection(a)[0], path,
                              [huge, 0, 0])
    segment = {"t0": 0, "t1": huge, "gamma": ["1", "0", "0"],
               "coeffs": ["1", "0", "0"]}
    with pytest.raises(ShapeMismatchError,
                       match="^segment bounds must be finite$"):
        al.path_from_dict(a, {"segments": [segment]})


def test_path_segment_bounds_are_numbers(catalog):
    # a text bound such as "0" was read as the number 0
    a = catalog["so3_action"]
    segment = {"t0": 0, "t1": 1, "gamma": ["1", "0", "0"],
               "coeffs": ["1", "0", "0"]}
    assert al.path_from_dict(a, {"segments": [segment]}).segments.tolist() \
        == [[0.0, 1.0]]
    for key, text in (("t0", "0"), ("t1", "1"), ("t1", "1.0")):
        with pytest.raises(ShapeMismatchError,
                           match="^segment bounds must be numbers$"):
            al.path_from_dict(a, {"segments": [{**segment, key: text}]})
    for piece in (("0", 1.0, ["1", "0", "0"]), (0.0, "1", ["1", "0", "0"])):
        with pytest.raises(ShapeMismatchError,
                           match="^segment bounds must be numbers$"):
            al.lift_base_path(a, [piece])


def test_transport_of_huge_vectors_fails_quietly_and_fast(catalog):
    # e^0.7 times 1e308 overflows: refinement stops at the first finer
    # result, with or without tol
    a = catalog["scaling"]
    conn = al.compatible_connection(a)[1]
    path = al.constant_path(a, [0.7], (0.0,))
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for tol in (None, 1e-10):
            with pytest.raises(ToleranceNotMetError,
                               match="overflows a double at 400 steps"):
                al.parallel_transport(conn, path, [1e308], tol=tol)
        # a rotation keeps 1e308 entries finite, but the roundoff of such
        # entries is far above an absolute tol of 1e-10: refinement gives up
        # at the first finer result (it used to run to max_steps; the
        # per-vector recurrence overflowed in its stages, warned, and took
        # seconds)
        so3 = catalog["so3_action"]
        loop = al.constant_path(so3, (2.0 * np.pi, 0.0, 0.0), (1.0, 0.0, 0.0))
        with pytest.raises(ToleranceNotMetError,
                           match=r"tolerance 1\.000e-10 at 400 steps; "
                                 r"the result's roundoff is 2\.2"):
            al.parallel_transport(al.compatible_connection(so3)[0], loop,
                                  np.full(3, 1e308), tol=1e-10)
    assert caught == []
    assert time.perf_counter() - start < 2.0


def test_transport_on_a_rank_zero_bundle(catalog):
    # TM over the point of a Lie algebra: the fiber is {0}
    a = catalog["so3"]
    conn = al.build_connection(a, "TM", np.empty((a.rank, 0, 0)))
    path = al.constant_path(a, V, ())
    assert path.residual == 0.0
    for tol in (None, 1e-10):
        res = al.parallel_transport(conn, path, np.zeros(0), n_steps=7,
                                    tol=tol)
        assert res.value.shape == (0,)
        assert res.steps == 14
        assert res.error == 0.0
    assert al.holonomy_matrix(conn, path).shape == (0, 0)


def test_tangency_check_samples_every_segment(catalog):
    # 512 segments on gamma = (t, 0); only segment 1, [1/512, 2/512], runs
    # at the wrong speed, and no point of the 256-point grid falls in it
    a = catalog["tangent2"]
    n = 512
    doc = {"segments": [{"t0": j / n, "t1": (j + 1) / n, "gamma": ["t", "0"],
                         "coeffs": ["5" if j == 1 else "1", "0"]}
                        for j in range(n)]}
    grid = np.linspace(0.0, 1.0, 256)
    assert not np.any((grid >= 1 / n) & (grid <= 2 / n))
    with pytest.raises(NotTangentError, match="residual 4.000e"):
        al.path_from_dict(a, doc)
    doc["segments"][1]["coeffs"] = ["1", "0"]
    assert al.path_from_dict(a, doc).residual == 0.0


def power_sum(c, t):
    """M(t) summed from the constant term up, the powers of t by repeated
    products: the reference for the kernel's evaluator."""
    total = np.zeros(c.shape[1:])
    power = 1.0
    for d in range(c.shape[0]):
        total = total + power * c[d]
        power *= t
    return total


def per_stage_integrate(path, v0, n_steps, seg_mats):
    """RK4 with M(t) formed afresh at each stage, t advanced by t += h,
    stepping v itself: the reference for the step-map kernel."""
    from algebroidlab.transport import _neg_matrices

    def matrix_at(c, t):
        # the kernel's evaluator, which gives each time the same M in any
        # batch (test_generator_does_not_depend_on_the_batch), so that the
        # stages differ from the kernel's by their order alone
        return -_neg_matrices(c, np.array([t]))[0]

    v = np.array(v0, dtype=float)
    total = 0
    for seg, c in zip(path.segments, seg_mats):
        t0, t1 = seg[0], seg[1]
        n = max(1, int(np.ceil(n_steps * (t1 - t0))))
        h = (t1 - t0) / n
        t = t0
        for _ in range(n):
            m1 = matrix_at(c, t)
            m2 = matrix_at(c, t + 0.5 * h)
            m4 = matrix_at(c, t + h)
            k1 = -(m1 @ v)
            k2 = -(m2 @ (v + 0.5 * h * k1))
            k3 = -(m2 @ (v + 0.5 * h * k2))
            k4 = -(m4 @ (v + h * k3))
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        total += n
    return v, total


def tangent3_loop():
    """Closed cubic loop x0 + (t - t^2)(a + b t) on two segments, with
    coefficients equal to its velocity."""
    a = al.catalog_build("tangent", {"dimension": 3})
    gamma = ["0.25 + 2*t - 5*t^2 + 3*t^3", "-0.5 - t + 3*t^2 - 2*t^3",
             "t - t^2"]
    coeffs = ["2 - 10*t + 9*t^2", "-1 + 6*t - 6*t^2", "1 - 2*t"]
    return a, al.APath(a, [(0.0, 0.5, gamma, coeffs),
                           (0.5, 1.0, gamma, coeffs)])


def test_integrate_matches_per_stage_rk4(catalog):
    from algebroidlab.transport import _integrate, _segment_matrices

    t3, loop = tangent3_loop()
    so3 = catalog["so3_action"]
    point = np.array([1.0, -2.0, 2.0])
    cases = [(t3, loop), (so3, al.constant_path(so3, 0.5 * point, point))]
    for a, path in cases:
        conn = al.build_connection(a, "A", random_symbols(a, "A", 5, degree=1))
        mats = _segment_matrices(conn, path)
        for v0 in (np.eye(conn.q), np.array([0.3, -1.0, 2.0])):
            for n in (1, 7, 16, 100):
                got, steps = _integrate(conn, path, v0, n, mats)
                want, want_steps = per_stage_integrate(path, v0, n, mats)
                assert steps == want_steps
                # the same RK4 arithmetic, reordered into step maps
                assert (np.max(np.abs(got - want))
                        <= 1e-14 * max(1.0, np.max(np.abs(want))))


def test_step_maps_are_one_rk4_step_from_the_identity():
    # one step from I is I + D_0, its chunk padded by zero increments, so
    # the step map itself must match the per-stage step bit for bit
    from algebroidlab.transport import _integrate

    rng = rng_for("step_maps")
    for q in (1, 2, 3, 6):
        conn = SimpleNamespace(q=q)
        for _ in range(40):
            t0 = rng.uniform(0.0, 0.9)
            t1 = rng.uniform(t0 + 1e-3, 1.0)
            path = SimpleNamespace(segments=[(t0, t1)])
            mats = [rng.normal(scale=2.0, size=(3, q, q))]
            got, steps = _integrate(conn, path, np.eye(q), 1, mats)
            want, want_steps = per_stage_integrate(path, np.eye(q), 1, mats)
            assert steps == want_steps == 1
            assert np.array_equal(got, want)


def random_generators(rng, q, degree):
    """A random table of M's t-coefficients, some entries exactly zero."""
    c = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(degree + 1, q, q))
    c[rng.random(c.shape) < 0.2] = 0.0
    return c


def test_generator_does_not_depend_on_the_batch():
    # each time's -M is the same bits alone, in a batch and in any split of
    # it, so the block size cannot change a transport
    from algebroidlab.transport import _neg_matrices

    rng = rng_for("generator_batch")
    for q in (1, 2, 3, 6):
        for degree in (0, 1, 3, 8):
            c = random_generators(rng, q, degree)
            ts = np.sort(rng.uniform(0.0, 1.0, 97))
            whole = _neg_matrices(c, ts)
            assert whole.shape == (97, q, q)
            for i in range(97):
                assert np.array_equal(_neg_matrices(c, ts[i:i + 1])[0],
                                      whole[i])
            split = [_neg_matrices(c, part) for part in np.split(ts, [5, 6, 60])]
            assert np.array_equal(np.concatenate(split), whole)


def test_generator_matches_the_power_sum():
    # the contraction sums the same products as the power sum, within
    # roundoff of the sum of their absolute values
    from algebroidlab.transport import _neg_matrices

    rng = rng_for("generator_power_sum")
    for q in (1, 2, 3, 6):
        for degree in (0, 1, 3, 8):
            c = random_generators(rng, q, degree)
            ts = rng.uniform(0.0, 1.0, 50)
            got = _neg_matrices(c, ts)
            for t, m in zip(ts, got):
                scale = power_sum(np.abs(c), t)
                assert np.all(np.abs(m + power_sum(c, t)) <= 1e-15 * scale)


def per_segment_matrices(conn, path):
    """Per segment, the t-coefficients of M by np.convolve, one chart
    monomial and one frame coefficient at a time: the reference for the
    stacked _segment_matrices."""
    from algebroidlab.fields import _split

    m = conn.algebroid.dimension
    parts = _split(conn.algebroid.chart, conn.symbols)
    # room for the highest monomial's power of gamma times a coefficient
    width = (max(map(sum, parts)) + 1) * (path._table.shape[2] - 1) + 1
    out = []
    for row in path._table:
        gamma, coeffs = row[:m], row[m:]
        mats = np.zeros((width, conn.q, conn.q))
        for exps, sym in parts.items():
            p = np.ones(1)
            for g, e in zip(gamma, exps):
                for _ in range(e):
                    p = np.convolve(p, g)
            for a, gamma_s in zip(coeffs, sym):
                pa = np.convolve(p, a)
                mats[:len(pa)] += pa[:, None, None] * gamma_s.T
        out.append(mats)
    return out


def cubic_then_quadratic():
    """tangent3_loop's cubic loop on [0, 1/2], then a quadratic loop from
    the same point on [1/2, 1], on one table: three segments, the frame
    coefficients jumping at t = 1/2."""
    a, cubic = tangent3_loop()
    quadratic = al.APath(a, [(0.0, 1.0,
                              ["0.25 + t - t^2", "-0.5", "2*t - 2*t^2"],
                              ["1 - 2*t", "0", "2 - 4*t"])])
    return a, al.concat_paths(cubic, quadratic)


def test_segment_matrices_of_a_concatenated_path():
    # symbols with products of coordinates and a square
    from algebroidlab.transport import _segment_matrices

    a, path = cubic_then_quadratic()
    assert len(path.segments) == 3
    symbols = random_symbols(a, "A", 7, degree=1)
    extra = al.parse_field(a.chart, "x1*x2 - 0.5*x3^2 + x1*x2*x3")
    symbols[0, 1, 2] = symbols[0, 1, 2] + extra
    symbols[2, 0, 0] = symbols[2, 0, 0] - extra
    conn = al.build_connection(a, "A", symbols)
    got = _segment_matrices(conn, path)
    want = per_segment_matrices(conn, path)
    assert got.shape[0] == 3 and got.shape[2:] == (3, 3)
    for k in range(3):
        # the reference keeps room above the highest power of t there is
        assert not want[k][got.shape[1]:].any()
        ref = want[k][:got.shape[1]]
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got[k] - ref)) <= 1e-14 * scale
    # M is of degree 5 in t on the quadratic loop and of 10 on the cubic
    # one's segments; the stack pads the quadratic's with exact zeros
    degrees = [np.flatnonzero(x.any(axis=(1, 2))).max() for x in got]
    assert degrees == [10, 10, 5]


def classical_rk4(conn, path, v0, n):
    """Classical RK4 on each vector of v0, n steps a segment, with
    M[u][w](t) = sum_s a_s(t) Gamma[s][w][u](gamma(t)) formed from the
    path's base point and frame coefficients and ScalarField.evaluate
    alone: a reference that reads none of the kernel's tables."""
    def matrix_at(t):
        point = path.base_at(t)
        gamma = np.array([[[f.evaluate(point) for f in row] for row in mat]
                          for mat in conn.symbols])
        return np.einsum("s,swu->uw", path.coeff_at(t), gamma)

    v = np.array(v0, dtype=float)
    for t0, t1 in path.segments:
        # M at every stage time; the segment's last one is read one ulp
        # inside it, where the path evaluates this segment's polynomials
        ts = t0 + (t1 - t0) * np.arange(2 * n + 1) / (2 * n)
        ts[-1] = np.nextafter(t1, t0)
        ms = [matrix_at(t) for t in ts]
        h = (t1 - t0) / n
        for k in range(n):
            m1, m2, m4 = ms[2 * k:2 * k + 3]
            k1 = -(m1 @ v)
            k2 = -(m2 @ (v + 0.5 * h * k1))
            k3 = -(m2 @ (v + 0.5 * h * k2))
            k4 = -(m4 @ (v + h * k3))
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def test_transport_matches_an_independent_rk4():
    # degree-2 symbols along cubic and quadratic base curves give M of
    # degree 8 in t with a jump at t = 1/2; 2,000 steps a segment put the
    # reference's own error below the roundoff of either run (about 1e-12)
    a, path = cubic_then_quadratic()
    conn = al.build_connection(a, "A", random_symbols(a, "A", 13, degree=2))
    v0 = np.column_stack((np.eye(3), [0.3, -1.0, 2.0]))
    res = al.parallel_transport(conn, path, v0, tol=1e-12)
    assert res.error <= 1e-12
    want = classical_rk4(conn, path, v0, 2000)
    assert np.max(np.abs(res.value - want)) <= 1e-11 * np.max(np.abs(want))


def test_constant_generator_transport_is_a_taylor_power(catalog):
    # with M constant every RK4 step is T4(-hM), the degree-4 Taylor
    # polynomial of the exponential
    from algebroidlab.transport import _integrate, _segment_matrices

    a = catalog["so3_action"]
    conn = bracket_conn(a)
    path = al.constant_path(a, V, (0.0, 0.0, 0.0))
    mats = _segment_matrices(conn, path)
    assert mats[0].shape == (1, 3, 3)
    for n in (1, 7, 16, 100, 1000):
        x = -mats[0][0] / n
        taylor = np.eye(3) + x @ (np.eye(3) + x @ (np.eye(3) / 2 + x @ (
            np.eye(3) / 6 + x / 24)))
        want = np.linalg.matrix_power(taylor, n)
        got, steps = _integrate(conn, path, np.eye(3), n, mats)
        assert steps == n
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the refined holonomy is as close to the exponential as its estimate
    res = al.parallel_transport(conn, path, np.eye(3), n_steps=10, tol=1e-12)
    exact = expm(-adjoint_matrix(a, V))
    assert 0.0 < res.error <= 1e-12
    assert np.max(np.abs(res.value - exact)) <= 10.0 * res.error


def test_integrate_blocks_do_not_change_the_result(catalog, monkeypatch):
    from algebroidlab import transport

    a, loop = tangent3_loop()
    conn = al.build_connection(a, "A", random_symbols(a, "A", 5, degree=1))
    mats = transport._segment_matrices(conn, loop)
    whole = transport._integrate(conn, loop, np.eye(3), 50, mats)
    monkeypatch.setattr(transport, "_BLOCK_ENTRIES", 3 * 9)
    blocked = transport._integrate(conn, loop, np.eye(3), 50, mats)
    assert whole[1] == blocked[1]
    assert np.array_equal(whole[0], blocked[0])


def newton_cells(nodes, values):
    """Cubic cells as ScalarFields from the Newton form, built by field
    arithmetic: the reference for the array kernel _cubic_cells."""
    t_chart = al.transport.T_CHART
    grid = len(nodes) - 1
    t_var = ScalarField.coordinate(t_chart, 0)
    cells = []
    for j in range(grid):
        k0 = min(max(j - 1, 0), grid - 3)
        xs = nodes[k0:k0 + 4]
        polys = []
        for s in range(values.shape[1]):
            dd = [float(v) for v in values[k0:k0 + 4, s]]
            for order in range(1, 4):
                for i in range(3, order - 1, -1):
                    dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - order])
            total = ScalarField._scalar(t_chart, dd[0])
            basis = ScalarField.constant(t_chart, 1.0)
            for i in range(1, 4):
                basis = basis * (t_var - float(xs[i - 1]))
                total = total + dd[i] * basis
            polys.append(total)
        cells.append(polys)
    return cells


def test_lift_cells_match_newton_form():
    from algebroidlab.transport import _cubic_cells

    for grid in (4, 5, 64, 512):
        nodes = np.linspace(0.0, 1.0, grid + 1)
        values = np.column_stack([np.cos(2 * np.pi * nodes),
                                  np.sin(2 * np.pi * nodes),
                                  0.3 - nodes + 2.0 * nodes ** 3])
        got = _cubic_cells(nodes, values)
        assert got.shape == (grid, 3, 4)
        for cell, polys in zip(got, newton_cells(nodes, values)):
            for row, poly in zip(cell, polys):
                want = np.zeros(4)
                for e, c in poly.coeffs.items():
                    want[e[0]] = c
                assert np.max(np.abs(row - want)) <= 1e-12
