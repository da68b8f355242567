"""End-to-end acceptance checks, one test per shipping criterion.

Each criterion gets a single test so the summary hook can print one
pass/fail line per item. Tolerances here are the shipping thresholds,
not the tighter values the unit suites pin.
"""

import hashlib
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import algebroidlab as al
from algebroidlab.classes import InvariantPolynomial
from algebroidlab.connections import bundle_rank
from algebroidlab.errors import NotTangentError
from algebroidlab.fields import Chart, ScalarField
from algebroidlab.sampling import seeded_points
from conftest import (
    AFF1_CONSTANTS,
    EPS3,
    SL2_CONSTANTS,
    SO3_ACTION_FIELDS,
    circle_pieces,
    form_coeff_max,
    form_diff_max,
    random_form,
    random_section,
    random_symbols,
    rng_for,
    sl3_constants,
)
from oracles import curvature_applied, torsion_applied

DATA = Path(__file__).parent / "data"


def test_criterion_1(catalog):
    # every catalog family validates at 50 seeded points
    for name, a in catalog.items():
        report = al.validate(a, tol=1e-10, n_samples=50, seed=0)
        assert report.passed, name
        assert report.anchor_residual < 1e-10
        assert report.jacobi_residual < 1e-10
        assert report.antisymmetry_residual < 1e-10

    # injected bracket defect, flagged at the predicted magnitude
    c = EPS3.copy()
    c[0, 1, 0] += 1e-3
    c[1, 0, 0] -= 1e-3
    a = al.build_algebroid(Chart(0), 3, [[], [], []], c)
    report = al.validate(a, n_samples=50, seed=0)
    assert not report.passed and not report.jacobi_pass
    predicted = float(np.max(np.abs(al.constants_jacobiator(c))))
    assert 0.9 * predicted <= report.jacobi_residual <= 1.1 * predicted

    # injected anchor defect, flagged at the predicted magnitude
    anchor = [list(row) for row in SO3_ACTION_FIELDS]
    anchor[2][0] = "-x2 + x1"
    a = al.build_algebroid(Chart(3), 3, anchor, -EPS3)
    report = al.validate(a, n_samples=50, seed=0)
    assert not report.passed and not report.anchor_pass
    assert report.jacobi_pass
    pts = seeded_points(50, 3, 0)
    predicted = max(max(abs(p[0]), abs(p[2])) for p in pts)
    assert 0.9 * predicted <= report.anchor_residual <= 1.1 * predicted


def test_criterion_2(catalog):
    for name, a in catalog.items():
        rng = rng_for(name + "-acc2")
        # differential squares to zero on random forms up to degree 2
        for deg in (0, 1, 2):
            w = random_form(a, deg, rng)
            assert form_coeff_max(al.differential(al.differential(w))) < 1e-10, (name, deg)
        # graded derivation rule
        for ku, kv in [(0, 1), (1, 1), (1, 2)]:
            u = random_form(a, ku, rng)
            v = random_form(a, kv, rng)
            lhs = al.differential(al.wedge(u, v))
            rhs = al.wedge(al.differential(u), v)
            signed = al.wedge(u, al.differential(v))
            rhs = rhs + signed if ku % 2 == 0 else rhs - signed
            assert form_diff_max(lhs, rhs) < 1e-10, (name, ku, kv)
        # pullback of chart forms intertwines the differentials
        m = a.dimension
        if m == 0:
            continue
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


def test_criterion_3(catalog):
    a = catalog["so3_action"]
    frames = a.frame_sections()

    conn = al.build_connection(a, "A", random_symbols(a, "A", 7, degree=1))
    T = al.torsion(conn)
    pts = [tuple(p) for p in rng_for("tpts").uniform(-1, 1, (50, 3))]
    worst = 0.0
    for s in range(3):
        for t in range(3):
            op = torsion_applied(conn, frames[s], frames[t])
            for p in pts:
                coord = np.array([T.comps[u, s, t].evaluate(p)
                                  for u in range(3)])
                worst = max(worst,
                            float(np.max(np.abs(op.evaluate(p) - coord))))
    assert worst < 1e-9

    conn = al.build_connection(a, "A", random_symbols(a, "A", 8, degree=1))
    R = al.curvature(conn)
    pts = [tuple(p) for p in rng_for("rpts").uniform(-1, 1, (50, 3))]
    worst = 0.0
    for s in range(3):
        for t in range(s + 1, 3):
            mat = R.coeff((s, t))
            for u in range(3):
                op = curvature_applied(conn, frames[s], frames[t], frames[u])
                for p in pts:
                    coord = np.array([mat[v, u].evaluate(p)
                                      for v in range(3)])
                    worst = max(worst,
                                float(np.max(np.abs(op.evaluate(p) - coord))))
    assert worst < 1e-9

    def tensor_apply2(tens, beta, gamma):
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

    conn = al.build_connection(a, "A", random_symbols(a, "A", 11, degree=1))
    rng = rng_for("bianchi1")
    x, y, z = (random_section(a, rng) for _ in range(3))
    T = al.torsion(conn)

    def alg_piece(u, v, w):
        r1 = curvature_applied(conn, u, v, w)
        r2 = torsion_applied(conn, torsion_applied(conn, u, v), w)
        r3 = tensor_apply2(al.a_derivative(conn, u, T), v, w)
        return r1 - r2 - r3

    total = alg_piece(x, y, z) + alg_piece(y, z, x) + alg_piece(z, x, y)
    pts = [tuple(p) for p in rng.uniform(-1, 1, (20, 3))]
    worst = max(float(np.max(np.abs(total.evaluate(p)))) for p in pts)
    assert worst < 1e-8

    conn = al.build_connection(a, "A", random_symbols(a, "A", 12, degree=1))
    rng = rng_for("bianchi2")
    x, y, z, g = (random_section(a, rng) for _ in range(4))

    def diff_piece(u, v, w):
        r1 = al.a_derivative(conn, u, curvature_applied(conn, v, w, g))
        r2 = curvature_applied(conn, v, w, al.a_derivative(conn, u, g))
        r3 = curvature_applied(conn, al.bracket_sections(a, u, v), w, g)
        return r1 - r2 - r3

    total = diff_piece(x, y, z) + diff_piece(y, z, x) + diff_piece(z, x, y)
    pts = [tuple(p) for p in rng.uniform(-1, 1, (20, 3))]
    worst = max(float(np.max(np.abs(total.evaluate(p)))) for p in pts)
    assert worst < 1e-8

    # the induced base connection intertwines the anchor exactly
    for name, b in catalog.items():
        conn_a, conn_tm = al.compatible_connection(b)
        r, m = b.rank, b.dimension
        for s in range(r):
            for t in range(r):
                for i in range(m):
                    lhs = ScalarField(b.chart)
                    for u in range(r):
                        gsym = conn_a.symbols[s, t, u]
                        if not gsym.is_zero():
                            lhs = lhs + gsym * b.anchor[u][i]
                    rhs = b.anchor_row(s).apply(b.anchor[t][i])
                    for j in range(m):
                        gsym = conn_tm.symbols[s, j, i]
                        if not gsym.is_zero():
                            rhs = rhs + gsym * b.anchor[t][j]
                    assert (lhs - rhs).is_zero(), name


def test_criterion_4(catalog):
    v = np.array([0.4, -0.3, 0.7])

    a = catalog["so3"]
    conn = al.build_connection(a, "A", a.bracket)
    path = al.constant_path(a, v, ())
    res = al.parallel_transport(conn, path, np.eye(3), n_steps=500)
    assert res.steps == 1000
    exact = expm(-np.einsum("s,stu->ut", v, a.bracket_at(())))
    assert np.max(np.abs(res.value - exact)) < 1e-8

    e50 = np.max(np.abs(al.holonomy_matrix(conn, path, n_steps=25) - exact))
    e100 = np.max(np.abs(al.holonomy_matrix(conn, path, n_steps=50) - exact))
    assert 8.0 <= e50 / e100 <= 32.0

    act = catalog["so3_action"]
    adp, _jacp = al.fixed_point_holonomy(act, v)
    hol = al.holonomy_matrix(al.build_connection(act, "A", act.bracket),
                             al.constant_path(act, v, (0.0, 0.0, 0.0)),
                             n_steps=500)
    assert np.max(np.abs(adp @ hol - np.eye(3))) < 1e-6

    with pytest.raises(NotTangentError):
        al.lift_base_path(act, ["1 + t", "0", "0"])
    lat = al.lift_base_path(act, circle_pieces(z0=0.6, radius=0.8), grid=512)
    assert lat.residual < 1e-8


def test_criterion_5(catalog):
    for name, a in catalog.items():
        rep = al.modular_theorem_check(a, n_points=20, seed=0)
        assert rep["max_deviation"] < 1e-8, name


def test_criterion_6(catalog):
    for name in ("sl2", "so3", "heisenberg"):
        theta = al.modular_cocycle(catalog[name]).form
        worst = max(theta.coeff((s,)).max_abs_coeff()
                    for s in range(catalog[name].rank))
        assert worst < 1e-12, name
    theta = al.modular_cocycle(catalog["aff1"]).form
    assert theta.coeff((0,)).to_string() == "1"
    assert theta.coeff((1,)).is_zero()
    theta = al.modular_cocycle(catalog["scaling"]).form
    assert theta.coeff((0,)).to_string() == "1"
    # Lie-Poisson dual carries twice the adjoint trace
    traces = np.einsum("suu->s", np.asarray(AFF1_CONSTANTS, dtype=float))
    theta = al.modular_cocycle(catalog["dual_aff1"]).form
    chart = catalog["dual_aff1"].chart
    for i in range(2):
        want = ScalarField.constant(chart, 2.0 * traces[i])
        assert (theta.coeff((i,)) - want).is_zero()


def test_criterion_7(catalog, sl3):
    # odd-order primary forms of the two canonical connections vanish
    for name, a in catalog.items():
        for conn in (al.basic_connection(a), al.flat_metric_connection(a)):
            form = al.chern_weil(a, conn, InvariantPolynomial(1, conn.q))
            assert form_coeff_max(form) < 1e-8, name
    p3 = InvariantPolynomial(3, bundle_rank(sl3, "E"))
    for conn in (al.basic_connection(sl3), al.flat_metric_connection(sl3)):
        assert form_coeff_max(al.chern_weil(sl3, conn, p3)) < 1e-8

    # representatives are closed
    for name, a in catalog.items():
        assert al.secondary_class(a, 1).closedness_residual < 1e-8, name

    # boundary identities for the transgressions
    c0 = al.build_connection(sl3, "E", random_symbols(sl3, "E", 7))
    c1 = al.build_connection(sl3, "E", random_symbols(sl3, "E", 8))
    c2 = al.build_connection(sl3, "E", random_symbols(sl3, "E", 9))
    for k in (2, 3):
        poly = InvariantPolynomial(k, 8)
        lhs = al.differential(al.transgression_form(c1, c0, poly))
        rhs = al.chern_weil(sl3, c1, poly) \
            + (-1.0) * al.chern_weil(sl3, c0, poly)
        assert form_diff_max(lhs, rhs) < 1e-7, k
    lhs = al.differential(al.secondary_triple(sl3, c2, c1, c0, p3))
    rhs = al.transgression_form(c1, c0, p3) \
        + (-1.0) * al.transgression_form(c2, c0, p3) \
        + al.transgression_form(c2, c1, p3)
    assert form_diff_max(lhs, rhs) < 1e-7

    # order-3 value against the brute-force oracle; rank 3 truncates both
    # routes to the zero tensor and the pinned value is zero
    pinned = 0.0
    m3 = al.secondary_class(catalog["sl2"], 3)
    assert m3.overflow and not m3.form.coeffs
    v3 = al.lie_algebra_secondary(SL2_CONSTANTS, 3)
    assert float(np.max(np.abs(v3))) == pinned
    # on a rank-8 algebra the zero is a genuine cancellation in both routes
    m3_full = al.secondary_class(sl3, 3)
    assert not m3_full.overflow
    assert form_coeff_max(m3_full.form) < 1e-12
    assert m3_full.closedness_residual < 1e-8
    assert np.max(np.abs(al.lie_algebra_secondary(sl3_constants(), 3))) < 1e-12


def test_criterion_8():
    cases = [
        (["validate", "--spec", str(DATA / "so3_action.json"),
          "--samples", "50"], "validate_so3_action.json", 0),
        (["modular", "--spec", str(DATA / "aff1.json")],
         "modular_aff1.json", 0),
        (["validate", "--spec", str(DATA / "broken.json")],
         "validate_broken.json", 2),
    ]
    for argv, golden, want_code in cases:
        cmd = [sys.executable, "-m", "algebroidlab.cli"] + argv + ["--seed", "0"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == want_code
        assert first.stdout == second.stdout
        want = (DATA / "golden" / golden).read_bytes()
        assert first.stdout == want
