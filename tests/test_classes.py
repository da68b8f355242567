"""Primary and secondary characteristic classes."""

import itertools
import math

import numpy as np
import pytest

import algebroidlab as al
from algebroidlab import classes
from algebroidlab.calculus import _mat_dot
from algebroidlab.classes import (
    InvariantPolynomial,
    _simplex_moment,
)
from algebroidlab.connections import AConnection, bundle_rank
from algebroidlab.errors import (
    AlgebroidMismatchError,
    BadOrderError,
    ShapeMismatchError,
)
from algebroidlab.fields import Chart, ScalarField, parse_field, perm_sign
from conftest import (
    AFF1_CONSTANTS,
    EPS3,
    SL2_CONSTANTS,
    form_coeff_max,
    form_diff_max,
    random_symbols,
    rng_for,
    sl3_constants,
)

TWO_PI = 2.0 * math.pi


def test_sigma_matches_characteristic_polynomial():
    rng = np.random.default_rng(np.random.Philox(3))
    x = rng.uniform(-1.0, 1.0, size=(5, 5))
    # det(mu I + X/2pi) = mu^5 + sigma_1 mu^4 + sigma_2 mu^3 + ...
    coeffs = np.poly(-x / TWO_PI)
    for k in range(1, 6):
        got = InvariantPolynomial(k, 5).sigma(x)
        assert abs(got - coeffs[k]) < 1e-12


def test_polarization_diagonal_and_symmetry():
    rng = np.random.default_rng(np.random.Philox(4))
    a = rng.uniform(-1.0, 1.0, size=(4, 4))
    b = rng.uniform(-1.0, 1.0, size=(4, 4))
    c = rng.uniform(-1.0, 1.0, size=(4, 4))
    # the diagonal is sigma_k, a coefficient of det(mu I + a/2pi)
    coeffs = np.poly(-a / TWO_PI)
    p2 = InvariantPolynomial(2, 4)
    assert abs(p2(a, a) - coeffs[2]) < 1e-14
    assert abs(p2(a, b) - p2(b, a)) < 1e-14
    # linear in each slot
    assert abs(p2(a + b, c) - p2(a, c) - p2(b, c)) < 1e-13
    assert abs(p2(2.0 * a, b) - 2.0 * p2(a, b)) < 1e-13
    p3 = InvariantPolynomial(3, 4)
    assert abs(p3(a, a, a) - coeffs[3]) < 1e-13
    assert abs(p3(a, b, c) - p3(b, c, a)) < 1e-13


def test_invariant_polynomial_order_bounds():
    with pytest.raises(BadOrderError):
        InvariantPolynomial(0, 3)
    with pytest.raises(BadOrderError):
        InvariantPolynomial(4, 3)
    p = InvariantPolynomial(2, 3)
    with pytest.raises(ShapeMismatchError):
        p(np.eye(3))


def gauss_t_moments(max_d, n_nodes):
    """Moments of t on [0, 1] by Gauss-Legendre quadrature."""
    g, gw = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (g + 1.0)
    return [float(np.sum(0.5 * gw * x ** d)) for d in range(max_d + 1)]


def test_quadrature_moments_exact():
    assert _simplex_moment(()) == 1.0
    assert _simplex_moment((0,)) == 1.0
    for d, want in enumerate(gauss_t_moments(6, 8)):
        assert abs(_simplex_moment((d,)) - want) < 1e-15
    # the triangle s,t >= 0, s+t <= 1 as the image of the unit square
    # under (u, v) -> (u(1-v), uv), Jacobian u
    g, gw = np.polynomial.legendre.leggauss(8)
    u = 0.5 * (g + 1.0)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    w = np.outer(0.5 * gw, 0.5 * gw) * uu
    for i in range(3):
        for j in range(3):
            want = float(np.sum(w * (uu * (1.0 - vv)) ** i * (uu * vv) ** j))
            assert abs(_simplex_moment((i, j)) - want) < 1e-15


def test_chern_weil_k1_is_curvature_trace(catalog):
    a = catalog["so3_action"]
    conn = al.basic_connection(a)
    q = bundle_rank(a, "E")
    form = al.chern_weil(a, conn, InvariantPolynomial(1, q))
    omega = al.curvature(conn)
    for s in range(a.rank):
        for t in range(s + 1, a.rank):
            mat = omega.coeff((s, t))
            tr = mat[0, 0]
            for i in range(1, q):
                tr = tr + mat[i, i]
            want = (1.0 / TWO_PI) * tr
            assert (form.coeff((s, t)) - want).max_abs_coeff() < 1e-12


def test_chern_weil_overflow_and_checks(catalog):
    a = catalog["so3_action"]
    conn = al.basic_connection(a)
    q = bundle_rank(a, "E")
    form = al.chern_weil(a, conn, InvariantPolynomial(2, q))
    assert form.overflow and not form.coeffs and form.degree == 4
    with pytest.raises(AlgebroidMismatchError):
        al.chern_weil(catalog["tangent2"], conn, InvariantPolynomial(1, q))
    with pytest.raises(ShapeMismatchError):
        al.chern_weil(a, conn, InvariantPolynomial(1, 3))


def test_flat_metric_primaries_vanish_exactly(catalog):
    for a in catalog.values():
        conn = al.flat_metric_connection(a)
        form = al.chern_weil(a, conn, InvariantPolynomial(1, conn.q))
        assert form_coeff_max(form) == 0.0


def test_basic_primaries_vanish(catalog):
    # the order-1 class of the canonical connection is a pure boundary
    for a in catalog.values():
        conn = al.basic_connection(a)
        form = al.chern_weil(a, conn, InvariantPolynomial(1, conn.q))
        assert form_coeff_max(form) < 1e-8


@pytest.fixture(scope="module")
def sl3_conns(sl3):
    return tuple(al.build_connection(sl3, "E", random_symbols(sl3, "E", key))
                 for key in (7, 8, 9))


def test_transgression_boundary_identity(sl3, sl3_conns):
    c0, c1, _ = sl3_conns
    for k in (2, 3):
        poly = InvariantPolynomial(k, 8)
        lam = al.transgression_form(c1, c0, poly)
        lhs = al.differential(lam)
        rhs = al.chern_weil(sl3, c1, poly) \
            + (-1.0) * al.chern_weil(sl3, c0, poly)
        assert form_diff_max(lhs, rhs) < 1e-7


def test_triple_boundary_identity(sl3, sl3_conns):
    c0, c1, c2 = sl3_conns
    poly = InvariantPolynomial(3, 8)
    trip = al.secondary_triple(sl3, c2, c1, c0, poly)
    lhs = al.differential(trip)
    rhs = al.transgression_form(c1, c0, poly) \
        + (-1.0) * al.transgression_form(c2, c0, poly) \
        + al.transgression_form(c2, c1, poly)
    assert form_diff_max(lhs, rhs) < 1e-7


def heisenberg_r4():
    """Rank-4 bundle of Lie algebras over a line: [e1, e2] = p(x) e3 with
    p quadratic and [e1, e4] = g(x) e4 with g linear."""
    return al.catalog_build("lie_algebra_bundle", {
        "dimension": 1, "rank": 4,
        "bracket": [{"s": 1, "t": 2, "u": 3, "value": "2 - x1 + 3*x1^2"},
                    {"s": 1, "t": 4, "u": 4, "value": "1 + 2*x1"}]})


def test_transgression_boundary_identity_on_field_matrices():
    # polynomial symbols over a line: the engine runs on field matrices
    a = heisenberg_r4()
    c0, c1 = (al.build_connection(a, "E", random_symbols(a, "E", key, degree=1))
              for key in (11, 12))
    poly = InvariantPolynomial(2, bundle_rank(a, "E"))
    lam = al.transgression_form(c1, c0, poly)
    assert lam.degree == 3 and lam.coeffs
    rhs = al.chern_weil(a, c1, poly) + (-1.0) * al.chern_weil(a, c0, poly)
    assert form_coeff_max(rhs) > 1e-3
    assert form_diff_max(al.differential(lam), rhs) < 1e-7


def test_polynomial_on_field_matrices_evaluates_pointwise():
    chart = Chart(2)
    rng = rng_for("field-matrices")
    mats = []
    for _ in range(3):
        mat = np.empty((4, 4), dtype=object)
        for idx in np.ndindex(4, 4):
            mat[idx] = ScalarField(chart, {
                e: float(rng.uniform(-1.0, 1.0))
                for e in ((0, 0), (1, 0), (0, 1), (1, 1))})
        mats.append(mat)
    p = (0.3, -0.7)
    at_p = [np.array([[f.evaluate(p) for f in row] for row in mat])
            for mat in mats]
    for k in (1, 2, 3):
        poly = InvariantPolynomial(k, 4)
        want = poly(*at_p[:k])
        assert abs(poly(*mats[:k]).evaluate(p) - want) < 1e-12
        assert abs(poly.sigma(mats[k - 1]).evaluate(p)
                   - poly.sigma(at_p[k - 1])) < 1e-12


class TrivialBundleConnection(AConnection):
    """Constant symbols on a trivial bundle of any rank q over the algebroid;
    the class engine reads only the symbols, so q need not be a bundle of
    the catalog."""

    __slots__ = ()

    def __init__(self, algebroid, symbols):
        self.algebroid = algebroid
        self.bundle = "trivial"
        self.q = symbols.shape[1]
        self.symbols = symbols


def constant_connection(algebroid, values):
    sym = np.empty(values.shape, dtype=object)
    for idx in np.ndindex(*values.shape):
        sym[idx] = ScalarField.constant(algebroid.chart, float(values[idx]))
    return TrivialBundleConnection(algebroid, sym)


def direct_sum(c1, c2):
    c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    n1, n2 = c1.shape[0], c2.shape[0]
    out = np.zeros((n1 + n2,) * 3)
    out[:n1, :n1, :n1] = c1
    out[n1:, n1:, n1:] = c2
    return out


def brute_class(constants, omegas, k):
    """Coefficients of the class integrand by the full signed permutation sum.

    omegas[0] is the base connection matrix per frame section, omegas[1:]
    the others; the key sum runs over every permutation of the key, eta_i
    in the first n slots and curvature pairs after them, and divides by the
    2^(k-n) (k-n)! orderings of one perfect matching. The simplex integral
    uses Gauss-Legendre nodes (Duffy map on the triangle).
    """
    c = np.asarray(constants)
    r = c.shape[0]
    n = len(omegas) - 1
    etas = [[w[s] - omegas[0][s] for s in range(r)] for w in omegas[1:]]
    g, gw = np.polynomial.legendre.leggauss(4)
    u, uw = 0.5 * (g + 1.0), 0.5 * gw
    if n == 0:
        nodes = [((), 1.0)]
    elif n == 1:
        nodes = [((x,), w) for x, w in zip(u, uw)]
    else:
        nodes = [((x * (1.0 - y), x * y), wx * wy * x)
                 for x, wx in zip(u, uw) for y, wy in zip(u, uw)]
    poly = InvariantPolynomial(k, omegas[0][0].shape[0])
    degree = 2 * k - n
    scale = 2 ** (k - n) * math.factorial(k - n)
    out = {}
    for key in itertools.combinations(range(r), degree):
        total = 0.0
        for t, weight in nodes:
            w = [omegas[0][s] + sum(ti * e[s] for ti, e in zip(t, etas))
                 for s in range(r)]

            def curv(a, b):
                # over a point: F_ab = [w_a, w_b] - c_ab^u w_u
                return (w[a] @ w[b] - w[b] @ w[a]
                        - sum(c[a, b, x] * w[x] for x in range(r)))
            for perm in itertools.permutations(key):
                mats = [etas[i][perm[i]] for i in range(n)]
                mats += [curv(perm[i], perm[i + 1])
                         for i in range(n, degree, 2)]
                total += weight * perm_sign(perm) * poly(*mats)
        out[key] = total / scale
    return out


def engine_classes(a, conns, k):
    """The engine's form for n = len(conns) - 1: chern_weil of conns[0],
    transgression_form(conns[1], conns[0]) or secondary_triple."""
    poly = InvariantPolynomial(k, conns[0].q)
    if len(conns) == 1:
        return al.chern_weil(a, conns[0], poly)
    if len(conns) == 2:
        return al.transgression_form(conns[1], conns[0], poly)
    return al.secondary_triple(a, conns[2], conns[1], conns[0], poly)


@pytest.mark.parametrize("constants,q", [
    (direct_sum(SL2_CONSTANTS, AFF1_CONSTANTS), 3),
    (direct_sum(EPS3, direct_sum(AFF1_CONSTANTS, np.zeros((1, 1, 1)))), 4)])
def test_engine_matches_permutation_sum_oracle(constants, q):
    # every order and parameter count the engine serves, on connections of
    # a trivial bundle whose rank q differs from the algebra's rank; the
    # algebras are not unimodular, so exact top-degree forms need not vanish
    a = al.catalog_build("lie_algebra", {"constants": constants.tolist()})
    r = a.rank
    rng = rng_for("engine-oracle-%d" % r)
    values = [rng.uniform(-1.0, 1.0, size=(r, q, q)) for _ in range(3)]
    conns = [constant_connection(a, v) for v in values]
    omegas = [[v[s].T for s in range(r)] for v in values]
    cases = [(k, n) for k in (1, 2, 3) for n in (0, 1, 2)
             if n <= k and 2 * k - n <= r and (n < 2 or k % 2)]
    assert len(cases) >= 6
    for k, n in cases:
        form = engine_classes(a, conns[:n + 1], k)
        want = brute_class(constants, omegas[:n + 1], k)
        assert form.degree == 2 * k - n and not form.overflow
        assert max(abs(v) for v in want.values()) > 1e-6, (k, n)
        for key, value in want.items():
            got = form.coeff(key).evaluate(())
            assert abs(got - value) < 1e-12, (k, n, key)


def test_field_route_matches_numeric_route_pointwise():
    # heisenberg_r4 has a zero anchor, so the class forms at a point are
    # those of the Lie algebra there, with the symbols' values there
    a = heisenberg_r4()
    conns = [al.build_connection(a, "E", random_symbols(a, "E", key,
                                                         degree=1))
             for key in (11, 12, 13)]
    for x in (-0.6, 1.3):
        at = al.catalog_build("lie_algebra", {"constants": [
            [[a.bracket[s, t, u].evaluate((x,)) for u in range(a.rank)]
             for t in range(a.rank)] for s in range(a.rank)]})
        point = [constant_connection(at, np.array(
            [[[f.evaluate((x,)) for f in row] for row in g]
             for g in c.symbols])) for c in conns]
        for k, n in ((1, 0), (2, 0), (1, 1), (2, 1), (3, 2)):
            field = engine_classes(a, conns[:n + 1], k)
            numeric = engine_classes(at, point[:n + 1], k)
            assert form_coeff_max(numeric) > 1e-6, (k, n)
            for key in set(field.coeffs) | set(numeric.coeffs):
                got = field.coeff(key).evaluate((x,))
                want = numeric.coeff(key).evaluate(())
                assert abs(got - want) < 1e-12, (k, n, key)


def per_pair_family_curvature(constants, ws):
    """The t_i t_j curvature entries pair by pair, each one chained
    _mat_dot of float products in the field route's order: the reference
    the stacked kernel must match bit for bit."""
    r = constants.shape[0]
    out = {}
    for a, b in itertools.combinations(range(r), 2):
        brackets = [(-constants[a, b, u], u) for u in range(r)
                    if constants[a, b, u] != 0]
        for i, j in itertools.combinations_with_replacement(
                range(len(ws)), 2):
            prods = [(ws[i][a], ws[j][b]), (-ws[j][b], ws[i][a])]
            if i < j:
                prods += [(ws[j][a], ws[i][b]), (-ws[i][b], ws[j][a])]
            if i == 0:
                prods += [(c, ws[j][u]) for c, u in brackets]
            e = [0] * len(ws)
            e[i] += 1
            e[j] += 1
            out.setdefault(tuple(e[1:]), []).append(_mat_dot(prods))
    return {e: np.array(mats) for e, mats in out.items()}


def test_numeric_family_curvature_matches_per_pair_route(monkeypatch):
    from algebroidlab import connections

    # sl(2) + aff(1): most bracket constants are zero
    constants = direct_sum(SL2_CONSTANTS, AFF1_CONSTANTS)
    a = al.catalog_build("lie_algebra", {"constants": constants.tolist()})
    rng = rng_for("stacked-family-curvature")
    q = 3
    ws = [rng.uniform(-1.0, 1.0, size=(a.rank, q, q)) for _ in range(3)]
    for n in (0, 1, 2):
        want = per_pair_family_curvature(constants, ws[:n + 1])
        # 10 pairs: one block, one pair per block, then blocks of three
        # with a short last one
        for block in (classes._BLOCK, q * q, 3 * q * q):
            monkeypatch.setattr(connections, "_BLOCK", block)
            got = connections._family_curvature(a, ws[0], ws[1:n + 1], True)
            assert list(got) == list(want)
            for e in want:
                assert np.array_equal(got[e], want[e]), (n, block, e)
    # an inf in w_4 may reach only the pairs that hold 4 (the one bracket
    # term with u = 4 is in [e_3, e_4]): a zero constant never multiplies it
    ws[0][4, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        got = connections._family_curvature(a, ws[0], [], True)[()]
        want = per_pair_family_curvature(constants, ws[:1])[()]
    assert np.array_equal(got, want, equal_nan=True)
    pairs = list(itertools.combinations(range(a.rank), 2))
    for p, (s, t) in enumerate(pairs):
        assert np.isfinite(got[p]).all() == (4 not in (s, t)), (s, t)


def test_float_wedge_does_not_depend_on_the_block(monkeypatch):
    r, n, k, q = 6, 2, 3, 3
    monos, tpairs = classes._monomials(n, 2 * (k - n))
    rng = rng_for("wedge-blocks")

    def form(j, tail):
        size = len(classes._level(r, n, k, j))
        x = rng.uniform(-1.0, 1.0, size=(size, len(monos)) + tail)
        x[rng.random(x.shape[:2]) < 0.3] = 0.0   # zero blocks are skipped
        return x

    g1, g2 = form(1, (q, q)), form(2, (q, q))
    s1, s2 = form(1, ()), form(2, ())
    cases = [(g1, 1, g1, 1, "mat"), (g2, 2, g1, 1, "mat"),
             (g1, 1, g1, 1, "trace"), (g2, 2, g1, 1, "trace"),
             (s1, 1, s1, 1, "scalar"), (s2, 2, s1, 1, "scalar")]

    def wedges():
        return [classes._wedge(x, y, classes._wedge_table(r, n, k, ja, jb),
                               tpairs, len(classes._level(r, n, k, ja + jb)),
                               kind, None)
                for x, ja, y, jb, kind in cases]

    whole = wedges()
    monkeypatch.setattr(classes, "_BLOCK", q * q)   # one matrix per block
    for got, want in zip(wedges(), whole):
        assert np.abs(want).max() > 0.0
        assert np.array_equal(got, want)


def test_engine_work_is_bounded_before_anything_is_built(sl3, sl3_conns,
                                                         monkeypatch):
    c0, c1, c2 = sl3_conns
    # the level sizes are counted without building the masks
    for r, n, k in ((8, 0, 3), (8, 1, 3), (8, 2, 3), (5, 1, 5), (3, 2, 2)):
        for j in range(1, k + 1):
            assert (classes._level_size(r, n, k, j)
                    == len(classes._level(r, n, k, j)))
    # chern_weil k = 1 on sl(3): 28 frame pairs of 8 by 8 matrices, no
    # wedge tables; the triple at k = 3: G^2 has 140 masks, 6 t-monomials
    cw = InvariantPolynomial(1, 8)
    want = al.chern_weil(sl3, c1, cw)
    monkeypatch.setattr(classes, "_MAX_WORK", 28 * 64)
    assert al.chern_weil(sl3, c1, cw).coeffs == want.coeffs
    monkeypatch.setattr(classes, "_level", None)   # refused before it runs
    monkeypatch.setattr(classes, "_MAX_WORK", 28 * 64 - 1)
    with pytest.raises(ShapeMismatchError, match="above the limit"):
        al.chern_weil(sl3, c1, cw)
    monkeypatch.setattr(classes, "_MAX_WORK", 140 * 6 * 64 - 1)
    with pytest.raises(ShapeMismatchError, match="above the limit"):
        al.secondary_triple(sl3, c2, c1, c0, InvariantPolynomial(3, 8))


def test_transgression_quadrature_insensitive(sl3, sl3_conns, monkeypatch):
    c0, c1, _ = sl3_conns
    poly = InvariantPolynomial(3, 8)
    exact = al.transgression_form(c1, c0, poly)
    moments = gauss_t_moments(2 * (poly.k - 1), 64)
    monkeypatch.setattr(classes, "_simplex_moment",
                        lambda exps: moments[exps[0]])
    a64 = al.transgression_form(c1, c0, poly)
    assert form_diff_max(exact, a64) < 1e-12


def test_secondary_triple_order_checks(sl3, sl3_conns):
    c0, c1, c2 = sl3_conns
    with pytest.raises(BadOrderError):
        al.secondary_triple(sl3, c2, c1, c0, InvariantPolynomial(2, 8))
    out = al.secondary_triple(sl3, c2, c1, c0, InvariantPolynomial(1, 8))
    assert out.degree == 0 and not out.coeffs


def test_m3_vanishes_both_routes(catalog, sl3):
    # rank 3 truncates the degree-5 form, so both routes are zero tensors
    m3 = al.secondary_class(catalog["sl2"], 3)
    assert m3.overflow and not m3.form.coeffs
    v3 = al.lie_algebra_secondary(SL2_CONSTANTS, 3)
    assert v3.shape == (3,) * 5 and np.all(v3 == 0.0)
    # rank 8 leaves room; the value is a genuine cancellation
    m3_full = al.secondary_class(sl3, 3)
    assert not m3_full.overflow
    assert form_coeff_max(m3_full.form) < 1e-12
    assert m3_full.closedness_residual < 1e-8
    v3_full = al.lie_algebra_secondary(sl3_constants(), 3)
    assert np.max(np.abs(v3_full)) < 1e-12


def test_lie_algebra_secondary_values_and_checks():
    v1 = al.lie_algebra_secondary(AFF1_CONSTANTS, 1)
    assert abs(v1[0] - 1.0 / TWO_PI) < 1e-15
    assert v1[1] == 0.0
    with pytest.raises(BadOrderError):
        al.lie_algebra_secondary(AFF1_CONSTANTS, 2)
    with pytest.raises(ShapeMismatchError):
        al.lie_algebra_secondary(np.zeros((2, 3, 2)), 1)


def test_modular_cocycle_values(catalog):
    for name in ("sl2", "so3", "heisenberg"):
        theta = al.modular_cocycle(catalog[name]).form
        worst = max(theta.coeff((s,)).max_abs_coeff()
                    for s in range(catalog[name].rank))
        assert worst < 1e-12
    theta = al.modular_cocycle(catalog["aff1"]).form
    assert theta.coeff((0,)).to_string() == "1"
    assert theta.coeff((1,)).is_zero()
    theta = al.modular_cocycle(catalog["scaling"]).form
    assert theta.coeff((0,)).to_string() == "1"
    # twice the trace of the adjoint on the Lie-Poisson dual
    theta = al.modular_cocycle(catalog["dual_aff1"]).form
    assert theta.coeff((0,)).to_string() == "2"
    assert theta.coeff((1,)).is_zero()


def test_modular_cocycles_are_closed(catalog):
    for a in catalog.values():
        assert al.modular_cocycle(a).closedness_residual < 1e-8


def test_modular_theorem_all_catalog(catalog):
    for a in catalog.values():
        rep = al.modular_theorem_check(a)
        assert rep["max_deviation"] < 1e-8
        assert rep["n_points"] == 20
        assert rep["closedness_residual"] < 1e-8


def test_modular_values_weight_rescale(catalog):
    a = catalog["scaling"]
    plain = al.modular_values(a, (2.0,))
    assert np.allclose(plain, [1.0])
    shifted = al.modular_values(a, (2.0,), weight=parse_field(a.chart, "x1"))
    assert np.allclose(shifted, [2.0])


def test_action_modular_cocycle_over_two_pi(catalog):
    # theta of an action is the bracket trace plus the divergence of the
    # generating fields: zero on so3_action, 1 on the scaling action
    theta = al.modular_cocycle(catalog["so3_action"]).form
    assert max(theta.coeff((s,)).max_abs_coeff() for s in range(3)) < 1e-12
    theta = al.modular_cocycle(catalog["scaling"]).form
    assert abs(theta.coeff((0,)).evaluate((0.7,)) / TWO_PI
               - 1.0 / TWO_PI) < 1e-15


def test_conformal_shift_changes_transgression_by_trace(catalog):
    # adding (anchor derivative of h) times the identity to the symbols
    # moves the order-1 difference form by q d_A h / 2 pi
    a = catalog["so3_action"]
    base = al.basic_connection(a)
    q = bundle_rank(a, "E")
    h = parse_field(a.chart, "x1")
    sym = np.array(base.symbols, dtype=object, copy=True)
    for s in range(a.rank):
        hs = a.anchor_row(s).apply(h)
        for u in range(q):
            sym[s, u, u] = sym[s, u, u] + hs
    shifted = al.build_connection(a, "E", sym)
    lam = al.transgression_form(shifted, base, InvariantPolynomial(1, q))
    for s in range(a.rank):
        want = (q / TWO_PI) * a.anchor_row(s).apply(h)
        assert (lam.coeff((s,)) - want).max_abs_coeff() < 1e-12


def test_secondary_class_api(catalog):
    with pytest.raises(BadOrderError):
        al.secondary_class(catalog["so3"], 2)
    with pytest.raises(BadOrderError):
        al.secondary_class(catalog["so3"], 0)
    m3 = al.secondary_class(catalog["so3"], 3)
    assert m3.overflow and m3.order == 3
    assert m3.form.degree == 5 and not m3.form.coeffs
    m1 = al.secondary_class(catalog["so3_action"], 1)
    assert m1.connections == ("basic", "flat_metric")
    assert not m1.overflow
    assert m1.closedness_residual < 1e-8
