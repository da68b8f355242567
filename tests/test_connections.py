"""A-connections: derivatives, torsion, curvature, frame changes."""

import itertools

import numpy as np
import pytest

import algebroidlab as al
from algebroidlab.connections import FrameChange, bundle_rank
from algebroidlab.fields import Chart, ScalarField, parse_field
from algebroidlab.errors import (
    BundleMismatchError,
    DimensionMismatchError,
    NotInvertibleError,
    ShapeMismatchError,
)
from conftest import EPS3, random_section, random_symbols, rng_for


def test_bundle_ranks(catalog):
    a = catalog["so3_action"]
    assert bundle_rank(a, "A") == 3
    assert bundle_rank(a, "TM") == 3
    assert bundle_rank(a, "T*M") == 3
    assert bundle_rank(a, "E") == 6
    assert bundle_rank(catalog["aff1"], "E") == 2


def test_build_connection_shape_check(catalog):
    a = catalog["so3"]
    with pytest.raises(ShapeMismatchError):
        al.build_connection(a, "A", np.zeros((2, 3, 3)))


def test_build_connection_rejects_foreign_chart(catalog):
    a = catalog["so3_action"]
    symbols = np.zeros((3, 3, 3), dtype=object)
    symbols[0, 1, 2] = ScalarField.constant(Chart(2), 1.0)
    with pytest.raises(DimensionMismatchError):
        al.build_connection(a, "A", symbols)


def test_flat_connection_is_directional_derivative(catalog):
    a = catalog["tangent2"]
    conn = al.build_connection(a, "A", np.zeros((2, 2, 2)))
    alpha = al.Section(a, ["1", "x1"])
    beta = al.Section(a, ["x2", "x1*x2"])
    out = al.a_derivative(conn, alpha, beta)
    v = al.anchor_apply(a, alpha)
    for u in range(2):
        assert (out.coeffs[u] - v.apply(beta.coeffs[u])).is_zero()


def test_bracket_connection_is_ad(catalog):
    # constant sections of a Lie algebra: nabla_v w = [v, w]
    a = catalog["so3"]
    conn = al.compatible_connection(a)[0]
    v = al.Section(a, [1.0, 0.0, 0.0])
    w = al.Section(a, [0.0, 1.0, 0.0])
    out = al.a_derivative(conn, v, w)
    got = np.array([c.constant_value() for c in out.coeffs])
    assert np.allclose(got, [0.0, 0.0, 1.0])  # [e1, e2] = e3 in so(3)


def test_a_derivative_leibniz(catalog):
    a = catalog["dual_so3"]
    rng = rng_for("leibniz")
    sym = random_symbols(a, "A", 5, degree=1)
    conn = al.build_connection(a, "A", sym)
    alpha = random_section(a, rng)
    beta = random_section(a, rng)
    f = parse_field(a.chart, "x1*x2 - x3")
    fbeta = al.Section(a, [f * c for c in beta.coeffs])
    lhs = al.a_derivative(conn, alpha, fbeta)
    base = al.a_derivative(conn, alpha, beta)
    df = al.anchor_apply(a, alpha).apply(f)
    for u in range(a.rank):
        want = f * base.coeffs[u] + df * beta.coeffs[u]
        assert (lhs.coeffs[u] - want).max_abs_coeff() < 1e-12


def test_a_derivative_tensorial_in_direction(catalog):
    a = catalog["dual_so3"]
    rng = rng_for("direction")
    conn = al.build_connection(a, "A", random_symbols(a, "A", 6, degree=1))
    alpha = random_section(a, rng)
    beta = random_section(a, rng)
    f = parse_field(a.chart, "x2^2 + 1")
    falpha = al.Section(a, [f * c for c in alpha.coeffs])
    lhs = al.a_derivative(conn, falpha, beta)
    rhs = al.a_derivative(conn, alpha, beta)
    for u in range(a.rank):
        assert (lhs.coeffs[u] - f * rhs.coeffs[u]).max_abs_coeff() < 1e-12


def test_connection_bundle_mismatch(catalog):
    a = catalog["so3_action"]
    conn_tm = al.compatible_connection(a)[1]
    alpha = al.Section(a, ["1", "0", "0"])
    with pytest.raises(BundleMismatchError):
        al.a_derivative(conn_tm, alpha, alpha)


def test_torsion_of_bracket_connection(catalog):
    # Gamma = c gives T^u_(s,t) = c^{st}_u
    a = catalog["so3"]
    conn = al.compatible_connection(a)[0]
    T = al.torsion(conn)
    for s in range(3):
        for t in range(3):
            for u in range(3):
                assert T.comps[u, s, t].constant_value() == EPS3[s, t, u]


def test_torsion_oracle_random_connection(catalog):
    a = catalog["so3_action"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 7, degree=1))
    T = al.torsion(conn)
    frames = a.frame_sections()
    pts = [tuple(p) for p in rng_for("tpts").uniform(-1, 1, (50, 3))]
    worst = 0.0
    for s in range(3):
        for t in range(3):
            op = al.torsion_applied(conn, frames[s], frames[t])
            for p in pts:
                coord = np.array([T.comps[u, s, t].evaluate(p)
                                  for u in range(3)])
                worst = max(worst, float(np.max(np.abs(op.evaluate(p) - coord))))
    assert worst < 1e-9


def test_curvature_oracle_random_connection(catalog):
    a = catalog["so3_action"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 8, degree=1))
    R = al.curvature(conn)
    frames = a.frame_sections()
    pts = [tuple(p) for p in rng_for("rpts").uniform(-1, 1, (50, 3))]
    worst = 0.0
    for s in range(3):
        for t in range(s + 1, 3):
            mat = R.coeff((s, t))
            for u in range(3):
                op = al.curvature_applied(conn, frames[s], frames[t], frames[u])
                for p in pts:
                    coord = np.array([mat[v, u].evaluate(p) for v in range(3)])
                    worst = max(worst,
                                float(np.max(np.abs(op.evaluate(p) - coord))))
    assert worst < 1e-9


def test_curvature_of_ad_vanishes(catalog):
    # Jacobi identity makes the bracket connection flat on a Lie algebra
    for name in ("so3", "sl2", "aff1"):
        conn = al.compatible_connection(catalog[name])[0]
        R = al.curvature(conn)
        for key, mat in R.coeffs.items():
            for f in mat.flat:
                assert f.is_zero(), name


def test_curvature_zero_anchor_bundle(catalog):
    # anchor = 0: curvature of the bracket connection is the Jacobi defect
    a = catalog["heisenberg"]
    conn = al.build_connection(a, "A", a.bracket)
    R = al.curvature(conn)
    for key, mat in R.coeffs.items():
        for f in mat.flat:
            assert f.is_zero()


def test_curvature_dual_aff1_pinned(catalog):
    # bracket connection on the Lie-Poisson plane: the symbols come out
    # constant, so the Jacobi identity flattens it; pinned against the
    # operational oracle at a sample point
    a = catalog["dual_aff1"]
    conn = al.build_connection(a, "A", a.bracket)
    R = al.curvature(conn)
    mat = R.coeff((0, 1))
    p = (0.3, -0.7)
    got = np.array([[mat[i, j].evaluate(p) for j in range(2)]
                    for i in range(2)])
    frames = a.frame_sections()
    want = np.zeros((2, 2))
    for u in range(2):
        op = al.curvature_applied(conn, frames[0], frames[1], frames[u])
        want[:, u] = op.evaluate(p)
    assert np.allclose(got, want, atol=1e-12)
    assert np.max(np.abs(got)) == 0.0


def tensor_apply2(a, tens, beta, gamma):
    out = []
    for u in range(a.rank):
        f = ScalarField(a.chart)
        for s in range(a.rank):
            for t in range(a.rank):
                g = tens.comps[u, s, t]
                if not g.is_zero():
                    f = f + beta.coeffs[s] * gamma.coeffs[t] * g
        out.append(f)
    return al.Section(a, out)


def test_algebraic_bianchi(catalog):
    a = catalog["so3_action"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 11, degree=1))
    rng = rng_for("bianchi1")
    x, y, z = (random_section(a, rng) for _ in range(3))
    T = al.torsion(conn)

    def piece(u, v, w):
        r1 = al.curvature_applied(conn, u, v, w)
        r2 = al.torsion_applied(conn, al.torsion_applied(conn, u, v), w)
        r3 = tensor_apply2(a, al.a_derivative(conn, u, T), v, w)
        return r1 - r2 - r3

    total = piece(x, y, z) + piece(y, z, x) + piece(z, x, y)
    pts = [tuple(p) for p in rng.uniform(-1, 1, (20, 3))]
    worst = max(float(np.max(np.abs(total.evaluate(p)))) for p in pts)
    assert worst < 1e-8


def test_differential_bianchi(catalog):
    a = catalog["so3_action"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 12, degree=1))
    rng = rng_for("bianchi2")
    x, y, z, g = (random_section(a, rng) for _ in range(4))

    def piece(u, v, w):
        r1 = al.a_derivative(conn, u, al.curvature_applied(conn, v, w, g))
        r2 = al.curvature_applied(conn, v, w, al.a_derivative(conn, u, g))
        r3 = al.curvature_applied(conn, al.bracket_sections(a, u, v), w, g)
        return r1 - r2 - r3

    total = piece(x, y, z) + piece(y, z, x) + piece(z, x, y)
    pts = [tuple(p) for p in rng.uniform(-1, 1, (20, 3))]
    worst = max(float(np.max(np.abs(total.evaluate(p)))) for p in pts)
    assert worst < 1e-8


def test_compatible_connection_intertwines_anchor(catalog):
    # #(nabla_alpha beta) = check-nabla_alpha(#beta), exactly as polynomials
    for name, a in catalog.items():
        conn_a, conn_tm = al.compatible_connection(a)
        r, m = a.rank, a.dimension
        for s in range(r):
            for t in range(r):
                for i in range(m):
                    lhs = ScalarField(a.chart)
                    for u in range(r):
                        g = conn_a.symbols[s, t, u]
                        if not g.is_zero():
                            lhs = lhs + g * a.anchor[u][i]
                    rhs = a.anchor_row(s).apply(a.anchor[t][i])
                    for j in range(m):
                        g = conn_tm.symbols[s, j, i]
                        if not g.is_zero():
                            rhs = rhs + g * a.anchor[t][j]
                    assert (lhs - rhs).is_zero(), name


def test_basic_connection_scaling_block(catalog):
    # the conormal block of the scaling action sends dx to dx
    a = catalog["scaling"]
    conn = al.basic_connection(a)
    assert conn.bundle == "E"
    assert conn.q == 2
    assert conn.symbols[0, 1, 1].constant_value() == 1.0


def test_basic_connection_point_algebra_is_ad(catalog):
    a = catalog["so3"]
    conn = al.basic_connection(a)
    assert conn.q == 3
    for s in range(3):
        for t in range(3):
            for u in range(3):
                assert conn.symbols[s, t, u].constant_value() == EPS3[s, t, u]


def test_flat_metric_connection_is_zero(catalog):
    a = catalog["so3_action"]
    conn = al.flat_metric_connection(a)
    assert conn.bundle == "E"
    for g in conn.symbols.flat:
        assert g.is_zero()
    R = al.curvature(conn)
    assert not R.coeffs


def test_frame_change_requires_constant_determinant():
    chart = Chart(2)
    with pytest.raises(NotInvertibleError):
        FrameChange(chart, [["x1", "0"], ["0", "1"]])


def test_frame_change_unipotent_inverse():
    chart = Chart(2)
    change = FrameChange(chart, [["1", "x1"], ["0", "1"]])
    prod = np.empty((2, 2), dtype=object)
    for i in range(2):
        for j in range(2):
            total = ScalarField(chart)
            for k in range(2):
                total = total + change.matrix[i, k] * change.inverse[k, j]
            want = 1.0 if i == j else 0.0
            assert (total - ScalarField.constant(chart, want)).is_zero()


def field_matmul(chart, x, y):
    n = x.shape[0]
    out = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        total = ScalarField(chart)
        for k in range(n):
            total = total + x[i, k] * y[k, j]
        out[i, j] = total
    return out


def test_frame_change_inverse_of_size_ten():
    # unipotent with x1 + (j - i) x2 above the diagonal; a permutation sum
    # over 10! terms per cofactor would take minutes
    chart = Chart(2)
    n = 10
    mat = [["1" if i == j else "x1 + %d*x2" % (j - i) if j > i else "0"
            for j in range(n)] for i in range(n)]
    change = FrameChange(chart, mat)
    assert change.det == 1.0
    prod = field_matmul(chart, change.matrix, change.inverse)
    for i, j in np.ndindex(n, n):
        want = ScalarField.constant(chart, 1.0 if i == j else 0.0)
        assert (prod[i, j] - want).is_zero()


def cofactor_det(chart, rows):
    if not rows:
        return ScalarField.constant(chart, 1.0)
    total = ScalarField(chart)
    for j, head in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = head * cofactor_det(chart, minor)
        total = total - term if j % 2 else total + term
    return total


def test_frame_change_inverse_matches_cofactors():
    # L D U with integer L, D = diag(2, -1, 1, 2) and polynomial unipotent U
    chart = Chart(2)
    parse = lambda t: parse_field(chart, t)
    lower = [["1", "0", "0", "0"], ["2", "1", "0", "0"],
             ["-1", "3", "1", "0"], ["0", "1", "-2", "1"]]
    upper = [["2", "2*x1", "x2", "x1*x2"], ["0", "-1", "x1 + x2", "3"],
             ["0", "0", "1", "x1*x1"], ["0", "0", "0", "2"]]
    mat = field_matmul(chart, np.array([[parse(t) for t in row]
                                        for row in lower], dtype=object),
                       np.array([[parse(t) for t in row]
                                 for row in upper], dtype=object))
    change = FrameChange(chart, mat)
    rows = [list(row) for row in change.matrix]
    det = cofactor_det(chart, rows)
    assert det.is_constant() and det.constant_value() == change.det == -4.0
    for i, j in np.ndindex(4, 4):
        minor = [row[:i] + row[i + 1:] for a, row in enumerate(rows) if a != j]
        want = (-1.0) ** (i + j) / change.det * cofactor_det(chart, minor)
        assert (change.inverse[i, j] - want).is_zero()
    with pytest.raises(NotInvertibleError, match="vanishes"):
        FrameChange(chart, [["1", "2"], ["2", "4"]])


def test_transform_symbols_identity(catalog):
    a = catalog["so3_action"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 13, degree=1))
    change = FrameChange(a.chart, np.eye(3))
    out = al.transform_symbols(conn, change)
    for idx in np.ndindex(3, 3, 3):
        assert (out.symbols[idx] - conn.symbols[idx]).is_zero()


def test_transform_symbols_constant_change_conjugates():
    # on a Lie algebra the anchor term drops and Gamma = c conjugates like
    # structure constants
    a = al.catalog_build("lie_algebra", {"constants": EPS3})
    conn = al.compatible_connection(a)[0]
    mat = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    change = FrameChange(a.chart, mat)
    out = al.transform_symbols(conn, change)
    inv = np.linalg.inv(mat)
    want = np.einsum("ab,cd,bdu,ue->ace", mat, mat, EPS3, inv)
    for idx in np.ndindex(3, 3, 3):
        assert abs(out.symbols[idx].constant_value() - want[idx]) < 1e-12


def test_transform_symbols_equivariance(catalog):
    # derivative computed in the new frame matches the old-frame result
    # pushed through the change
    a = catalog["so3_action"]
    conn = al.build_connection(a, "A", random_symbols(a, "A", 14, degree=1))
    change = FrameChange(a.chart, [["1", "x1", "0"],
                                   ["0", "1", "x3"],
                                   ["0", "0", "1"]])
    a2 = al.transform_algebroid(a, change)
    conn2 = al.build_connection(a2, "A",
                                al.transform_symbols(conn, change).symbols)
    rng = rng_for("equivariance")
    alpha2 = random_section(a2, rng)
    beta2 = random_section(a2, rng)
    # the same sections written in the original frame
    mat = change.matrix
    inv = change.inverse

    def push(section2):
        coeffs = []
        for s in range(3):
            total = ScalarField(a.chart)
            for sp in range(3):
                total = total + section2.coeffs[sp] * mat[sp, s]
            coeffs.append(total)
        return al.Section(a, coeffs)

    old = al.a_derivative(conn, push(alpha2), push(beta2))
    new = al.a_derivative(conn2, alpha2, beta2)
    pts = [tuple(p) for p in rng.uniform(-1, 1, (20, 3))]
    worst = 0.0
    for up in range(3):
        back = ScalarField(a.chart)
        for u in range(3):
            back = back + old.coeffs[u] * inv[u, up]
        for p in pts:
            worst = max(worst, abs(back.evaluate(p) - new.coeffs[up].evaluate(p)))
    assert worst < 1e-9


def test_curvature_oracle_on_bundle_e(catalog):
    # q = 6 bundle slots against r = 3 direction slots, so a mix-up of the
    # two shows. The basic connection of an action is flat; a random
    # degree-1 connection on E is not.
    a = catalog["so3_action"]
    frames = a.frame_sections()
    units = [al.TensorSection(a, "E", 1, 0, row) for row in np.eye(6)]
    pts = [tuple(p) for p in rng_for("epts").uniform(-1, 1, (20, 3))]
    for conn, flat in [(al.basic_connection(a), True),
                       (al.build_connection(a, "E", random_symbols(
                           a, "E", 16, degree=1)), False)]:
        R = al.curvature(conn)
        worst = scale = 0.0
        for s, t in itertools.combinations(range(3), 2):
            mat = R.coeff((s, t))
            for u in range(6):
                op = al.curvature_applied(conn, frames[s], frames[t], units[u])
                for p in pts:
                    want = op.evaluate(p)
                    got = np.array([mat[v, u].evaluate(p) for v in range(6)])
                    worst = max(worst, float(np.max(np.abs(want - got))))
                    scale = max(scale, float(np.max(np.abs(want))))
        assert (scale == 0.0) if flat else (scale > 0.1)
        assert worst < 1e-9
