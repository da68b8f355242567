"""Shared fixtures: the stock algebroid collection and helpers."""

import itertools
import math
import zlib

import numpy as np
import pytest

import algebroidlab as al
from algebroidlab.fields import Chart, ScalarField
from algebroidlab.sampling import max_abs
from algebroidlab.transport import T_CHART

EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
    EPS3[_i, _j, _k] = _s

AFF1_CONSTANTS = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]

SL2_CONSTANTS = np.zeros((3, 3, 3))
SL2_CONSTANTS[0, 1, 1] = 2.0
SL2_CONSTANTS[1, 0, 1] = -2.0
SL2_CONSTANTS[0, 2, 2] = -2.0
SL2_CONSTANTS[2, 0, 2] = 2.0
SL2_CONSTANTS[1, 2, 0] = 1.0
SL2_CONSTANTS[2, 1, 0] = -1.0

SO3_ACTION_FIELDS = [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]


def build_catalog():
    """One instance of every stock family used by the acceptance suites."""
    cat = {}
    cat["aff1"] = al.catalog_build("lie_algebra", {"constants": AFF1_CONSTANTS})
    cat["sl2"] = al.catalog_build("lie_algebra", {"constants": SL2_CONSTANTS})
    cat["so3"] = al.catalog_build("lie_algebra", {"constants": EPS3})
    cat["tangent2"] = al.catalog_build("tangent", {"dimension": 2})
    chart3 = Chart(3)
    cat["foliation3"] = al.build_algebroid(
        chart3, 2,
        [["1", "0", "0"], ["0", "1", "x3"]],
        np.full((2, 2, 2), ScalarField(chart3), dtype=object))
    cat["dual_aff1"] = al.catalog_build(
        "poisson", {"dimension": 2, "bivector": [["0", "x2"], ["-x2", "0"]]})
    cat["dual_so3"] = al.catalog_build(
        "poisson", {"dimension": 3,
                    "bivector": [["0", "x3", "-x2"],
                                 ["-x3", "0", "x1"],
                                 ["x2", "-x1", "0"]]})
    cat["so3_action"] = al.catalog_build(
        "transformation", {"dimension": 3, "constants": (-EPS3).tolist(),
                           "fields": SO3_ACTION_FIELDS})
    cat["scaling"] = al.catalog_build(
        "transformation", {"dimension": 1, "constants": [[[0.0]]],
                           "fields": [["x1"]]})
    cat["heisenberg"] = al.catalog_build(
        "lie_algebra_bundle", {"dimension": 1, "rank": 3, "bracket": [
            {"s": 1, "t": 2, "u": 3, "value": "x1"}]})
    return cat


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


def sl3_constants():
    """Structure constants of sl(3, R) in an integer basis.

    Basis: h1 = diag(1,-1,0), h2 = diag(0,1,-1), then the six elementary
    off-diagonal matrices E01, E02, E12, E10, E20, E21.
    """
    basis = []
    h1 = np.zeros((3, 3)); h1[0, 0] = 1.0; h1[1, 1] = -1.0
    h2 = np.zeros((3, 3)); h2[1, 1] = 1.0; h2[2, 2] = -1.0
    basis.append(h1)
    basis.append(h2)
    for i, j in [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]:
        e = np.zeros((3, 3))
        e[i, j] = 1.0
        basis.append(e)

    def coords(x):
        d0 = x[0, 0]
        d1 = x[1, 1]
        return np.array([d0, d0 + d1,
                         x[0, 1], x[0, 2], x[1, 2],
                         x[1, 0], x[2, 0], x[2, 1]])

    c = np.zeros((8, 8, 8))
    for s in range(8):
        for t in range(8):
            c[s, t] = coords(basis[s] @ basis[t] - basis[t] @ basis[s])
    return c


@pytest.fixture(scope="session")
def sl3():
    return al.catalog_build("lie_algebra", {"constants": sl3_constants()})


def rng_for(tag):
    """Generator seeded from a tag by CRC-32, the same in every process.

    The builtin hash of a str is salted per process, so it cannot be used.
    """
    return np.random.default_rng(np.random.Philox(zlib.crc32(tag.encode())))


def random_symbols(algebroid, bundle, seed, degree=0):
    """Random polynomial connection symbols of degree 0, 1 or 2, every
    monomial's coefficient uniform in [-1, 1]."""
    rng = np.random.default_rng(np.random.Philox(seed))
    q = al.connections.bundle_rank(algebroid, bundle)
    r = algebroid.rank
    m = algebroid.dimension
    eye = np.eye(m, dtype=int)
    # constant, then linear, then quadratic, so each degree extends the
    # draws of the one below
    monos = [np.zeros(m, dtype=int)] + list(eye[:m if degree >= 1 else 0])
    if degree >= 2:
        monos += [eye[i] + eye[j]
                  for i, j in itertools.combinations_with_replacement(
                      range(m), 2)]
    sym = np.empty((r, q, q), dtype=object)
    for idx in np.ndindex(r, q, q):
        sym[idx] = ScalarField(algebroid.chart, {
            tuple(map(int, e)): float(rng.uniform(-1.0, 1.0)) for e in monos})
    return sym


def random_section(algebroid, rng, degree=1):
    coeffs = []
    m = algebroid.dimension
    for _ in range(algebroid.rank):
        poly = {(0,) * m: float(rng.integers(-2, 3))}
        if degree >= 1:
            for i in range(m):
                e = [0] * m
                e[i] = 1
                poly[tuple(e)] = float(rng.integers(-2, 3))
        coeffs.append(ScalarField(algebroid.chart, poly))
    return al.Section(algebroid, coeffs)


def random_form(algebroid, degree, rng, max_deg=2):
    coeffs = {}
    m = algebroid.dimension
    for key in itertools.combinations(range(algebroid.rank), degree):
        poly = {}
        for exps in itertools.product(range(max_deg + 1), repeat=m):
            if sum(exps) <= max_deg:
                poly[exps] = float(rng.integers(-3, 4))
        coeffs[key] = ScalarField(algebroid.chart, poly)
    return al.AForm(algebroid, degree, coeffs)


def form_sup(form, points):
    """Largest absolute coefficient value over a list of points."""
    return max_abs(f.evaluate(p) for f in form.coeffs.values() for p in points)


def form_coeff_max(form):
    return max_abs(f.max_abs_coeff() for f in form.coeffs.values())


def form_diff_max(u, v):
    zero = ScalarField(u.algebroid.chart)
    return max_abs(
        (u.coeffs.get(k, zero) - v.coeffs.get(k, zero)).max_abs_coeff()
        for k in set(u.coeffs) | set(v.coeffs))


def circle_pieces(n_seg=64, deg=9, z0=0.0, radius=1.0, turns=1.0):
    """Piecewise Taylor polynomials tracking (cos, sin, const) in t."""
    omega = 2.0 * math.pi * turns
    pieces = []
    t_var = ScalarField.coordinate(T_CHART, 0)
    for j in range(n_seg):
        t0 = j / n_seg
        t1 = (j + 1) / n_seg
        tm = 0.5 * (t0 + t1)
        th = omega * tm
        cosf = ScalarField(T_CHART)
        sinf = ScalarField(T_CHART)
        power = ScalarField.constant(T_CHART, 1.0)
        shift = t_var - tm
        for d in range(deg + 1):
            w = radius * omega ** d / math.factorial(d)
            cd = [math.cos(th), -math.sin(th), -math.cos(th), math.sin(th)][d % 4]
            sd = [math.sin(th), math.cos(th), -math.sin(th), -math.cos(th)][d % 4]
            cosf = cosf + (w * cd) * power
            sinf = sinf + (w * sd) * power
            power = power * shift
        pieces.append((t0, t1, [cosf, sinf, ScalarField.constant(T_CHART, z0)]))
    return pieces


CRITERIA = {
    1: "axiom suite",
    2: "differential suite",
    3: "connection oracle suite",
    4: "transport suite",
    5: "modular theorem",
    6: "unimodularity values",
    7: "secondary-class suite",
    8: "CLI golden files",
}


def pytest_terminal_summary(terminalreporter):
    outcomes = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                tail = nodeid.rsplit("test_criterion_", 1)[1]
                num = int(tail.split("[")[0].split("_")[0])
                prev = outcomes.get(num)
                if prev != "failed" and prev != "error":
                    outcomes[num] = status
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        status = outcomes.get(num)
        if status is None:
            continue
        verdict = "PASS" if status == "passed" else status.upper()
        terminalreporter.write_line(
            "criterion %d (%s): %s" % (num, CRITERIA[num], verdict))
