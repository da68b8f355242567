"""A-paths, lifting, parallel transport, holonomy."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import algebroidlab as al
from algebroidlab.errors import (
    AlgebroidMismatchError,
    NotAFixedPointError,
    NotALoopError,
    NotTangentError,
    ShapeMismatchError,
    ToleranceNotMetError,
)
from algebroidlab.fields import ScalarField
from conftest import EPS3, circle_pieces, random_symbols, rng_for

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


def test_fixed_point_holonomy_needs_transformation_kind(catalog):
    with pytest.raises(ShapeMismatchError):
        al.fixed_point_holonomy(catalog["so3"], V)


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


def test_lift_rejects_radial_path(catalog):
    a = catalog["so3_action"]
    with pytest.raises(NotTangentError):
        al.lift_base_path(a, ["1 + t", "0", "0"])


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
    with pytest.raises(NotTangentError):
        al.APath(a, [(0.0, 0.5, *still), (0.5, 1.0, ["1", "1"], ["0", "0"])])


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
    # zero is a tolerance: refinement runs, and gives up at max_steps
    with pytest.raises(ToleranceNotMetError):
        al.parallel_transport(conn, path, np.eye(3), n_steps=4, tol=0.0,
                              max_steps=16)


def test_transport_on_a_rank_zero_bundle(catalog):
    # TM over the point of a Lie algebra: the fiber is {0}
    a = catalog["so3"]
    conn = al.build_connection(a, "TM", np.empty((a.rank, 0, 0)))
    path = al.constant_path(a, V, ())
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


def per_stage_integrate(path, v0, n_steps, seg_mats):
    """RK4 with M(t) summed afresh at each stage, t advanced by t += h: the
    reference the node-array kernel must match bit for bit."""

    def matrix_at(c, t):
        total = np.zeros(c.shape[1:])
        power = 1.0
        for d in range(c.shape[0]):
            total = total + power * c[d]
            power *= t
        return total

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
                assert np.array_equal(got, want)


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
