"""A-paths and parallel transport.

A path is a list of segments (t0, t1, gamma, coeffs) in a single global
parameter t running over [0, 1]; gamma gives the base curve components
and coeffs the frame coefficients of the path, all polynomials in t.
Transport integrates dv/dt = -M(t) v with classical RK4, where
M[u][w](t) = sum_s a_s(t) Gamma[s][w][u](gamma(t)); the reported result
always comes from the finer of an N vs 2N Richardson pair.

scipy is imported inside fixed_point_holonomy, its only user: importing
scipy.linalg costs more than the rest of the package together, and no
CLI command needs it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebroidMismatchError,
    NotAFixedPointError,
    NotALoopError,
    NotTangentError,
    ShapeMismatchError,
    ToleranceNotMetError,
)
from .fields import Chart, ScalarField, as_field
from .sampling import max_abs

T_CHART = Chart(1, ("t",))

PATH_TOL = 1e-6
JOINT_TOL = 1e-9
RESIDUAL_GRID = 256


def _coeff_array(f):
    """Dense coefficient array of a 1-variable polynomial, index = degree."""
    deg = max((e[0] for e in f.coeffs), default=0)
    out = np.zeros(deg + 1)
    for e, c in f.coeffs.items():
        out[e[0]] = c
    return out


def _compose1(f, g):
    """f(g(t)) for polynomials in one variable."""
    coeffs = _coeff_array(f)
    out = ScalarField(T_CHART)
    power = ScalarField.constant(T_CHART, 1.0)
    for d, c in enumerate(coeffs):
        if c:
            out = out + c * power
        power = power * g
    return out


def _substitute(field, curves):
    """Evaluate a chart polynomial along 1-parameter polynomial curves."""
    out = ScalarField(T_CHART)
    for exps, c in field.coeffs.items():
        term = ScalarField._scalar(T_CHART, c)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * curves[i]
        out = out + term
    return out


class APath:
    """Piecewise polynomial path in the algebroid over its base curve."""

    __slots__ = ("algebroid", "segments", "starts", "residual")

    def __init__(self, algebroid, segments):
        m = algebroid.dimension
        r = algebroid.rank
        cleaned = []
        for t0, t1, gamma, coeffs in segments:
            t0, t1 = float(t0), float(t1)
            if not t1 > t0:
                raise ShapeMismatchError("segment endpoints out of order")
            gamma = [as_field(T_CHART, g) for g in gamma]
            coeffs = [as_field(T_CHART, a) for a in coeffs]
            if len(gamma) != m:
                raise ShapeMismatchError(
                    "base curve needs %d components, got %d" % (m, len(gamma)))
            if len(coeffs) != r:
                raise ShapeMismatchError(
                    "path needs %d coefficients, got %d" % (r, len(coeffs)))
            cleaned.append((t0, t1, gamma, coeffs))
        cleaned.sort(key=lambda seg: seg[0])
        if not cleaned:
            raise ShapeMismatchError("path needs at least one segment")
        if abs(cleaned[0][0]) > 1e-12 or abs(cleaned[-1][1] - 1.0) > 1e-12:
            raise ShapeMismatchError("segments must cover [0, 1]")
        for a, b in zip(cleaned, cleaned[1:]):
            if abs(a[1] - b[0]) > 1e-12:
                raise ShapeMismatchError("segments leave a gap in [0, 1]")
            left = np.array([g.evaluate((a[1],)) for g in a[2]])
            right = np.array([g.evaluate((b[0],)) for g in b[2]])
            if not max_abs(left - right) <= JOINT_TOL:
                raise NotTangentError("base curve jumps at a segment joint")
        self.algebroid = algebroid
        self.segments = cleaned
        self.starts = [seg[0] for seg in cleaned]
        self.residual = self._tangency_residual()
        if not self.residual <= PATH_TOL:
            raise NotTangentError(
                "path is not tangent to the anchor distribution "
                "(residual %.3e)" % self.residual)

    def _segment_index(self, t):
        i = bisect.bisect_right(self.starts, t) - 1
        return min(max(i, 0), len(self.segments) - 1)

    def base_at(self, t):
        seg = self.segments[self._segment_index(t)]
        return np.array([g.evaluate((t,)) for g in seg[2]])

    def velocity_at(self, t):
        seg = self.segments[self._segment_index(t)]
        return np.array([g.partial(0).evaluate((t,)) for g in seg[2]])

    def coeff_at(self, t):
        seg = self.segments[self._segment_index(t)]
        return np.array([a.evaluate((t,)) for a in seg[3]])

    def _tangency_residual(self):
        m = self.algebroid.dimension
        if m == 0:
            return 0.0
        anchor_at = self.algebroid.anchor_matrix_at
        return max_abs(
            x for t in np.linspace(0.0, 1.0, RESIDUAL_GRID)
            for x in self.coeff_at(t) @ anchor_at(self.base_at(t))
            - self.velocity_at(t))

    def endpoint(self, end=1.0):
        return self.base_at(float(end))


def constant_path(algebroid, coeffs, point):
    """Path sitting at one base point with constant frame coefficients."""
    point = algebroid.chart.check_point(point)
    gamma = [float(x) for x in point]
    return APath(algebroid, [(0.0, 1.0, gamma, [float(c) for c in coeffs])])


def reverse_path(path):
    """Run a path backwards; coefficients flip sign with the time reversal."""
    flip = 1.0 - ScalarField.coordinate(T_CHART, 0)
    segments = []
    for t0, t1, gamma, coeffs in path.segments:
        segments.append((1.0 - t1, 1.0 - t0,
                         [_compose1(g, flip) for g in gamma],
                         [-_compose1(a, flip) for a in coeffs]))
    return APath(path.algebroid, segments)


def concat_paths(first, second):
    """Traverse first then second on a common [0, 1] clock."""
    if first.algebroid is not second.algebroid:
        raise AlgebroidMismatchError("paths over different algebroids")
    if not max_abs(first.base_at(1.0) - second.base_at(0.0)) <= JOINT_TOL:
        raise NotTangentError("second path does not start where the first ends")
    t = ScalarField.coordinate(T_CHART, 0)
    segments = []
    for t0, t1, gamma, coeffs in first.segments:
        g = 2.0 * t
        segments.append((t0 / 2.0, t1 / 2.0,
                         [_compose1(f, g) for f in gamma],
                         [2.0 * _compose1(a, g) for a in coeffs]))
    for t0, t1, gamma, coeffs in second.segments:
        g = 2.0 * t - 1.0
        segments.append(((t0 + 1.0) / 2.0, (t1 + 1.0) / 2.0,
                         [_compose1(f, g) for f in gamma],
                         [2.0 * _compose1(a, g) for a in coeffs]))
    return APath(first.algebroid, segments)


def reparametrize_path(path, phi):
    """Precompose a single-segment path with a polynomial clock change."""
    if len(path.segments) != 1:
        raise ShapeMismatchError(
            "clock changes are supported on single-segment paths")
    phi = as_field(T_CHART, phi)
    if abs(phi.evaluate((0.0,))) > 1e-12 or abs(phi.evaluate((1.0,)) - 1.0) > 1e-12:
        raise ShapeMismatchError("clock change must fix the endpoints")
    rate = phi.partial(0)
    t0, t1, gamma, coeffs = path.segments[0]
    return APath(path.algebroid,
                 [(t0, t1,
                   [_compose1(g, phi) for g in gamma],
                   [rate * _compose1(a, phi) for a in coeffs])])


def lift_base_path(algebroid, base, grid=64):
    """Lift a base curve to an A-path by least squares at grid nodes.

    base is either a list of m polynomials in t covering [0, 1], or a list
    of (t0, t1, [polynomials]) pieces. Coefficients at the nodes are the
    minimum-norm solutions of the anchor system; between nodes they are
    interpolated by a cubic through the four nearest nodes.
    """
    m = algebroid.dimension
    r = algebroid.rank

    def is_piece(x):
        return (isinstance(x, (tuple, list)) and len(x) == 3
                and isinstance(x[0], (int, float)))

    base = list(base)
    if base and all(is_piece(x) for x in base):
        pieces = [(float(t0), float(t1), [as_field(T_CHART, g) for g in gs])
                  for t0, t1, gs in base]
    else:
        pieces = [(0.0, 1.0, [as_field(T_CHART, g) for g in base])]
    pieces.sort(key=lambda seg: seg[0])
    starts = [p[0] for p in pieces]

    def piece_at(t):
        i = bisect.bisect_right(starts, t) - 1
        return pieces[min(max(i, 0), len(pieces) - 1)]

    grid = int(grid)
    if grid < 4:
        raise ShapeMismatchError("grid must have at least 4 cells")
    nodes = np.linspace(0.0, 1.0, grid + 1)
    a_nodes = np.zeros((grid + 1, r))
    for j, t in enumerate(nodes):
        _t0, _t1, gs = piece_at(t)
        p = tuple(g.evaluate((t,)) for g in gs)
        vel = np.array([g.partial(0).evaluate((t,)) for g in gs])
        b = algebroid.anchor_matrix_at(p)
        sol, *_rest = np.linalg.lstsq(b.T, vel, rcond=None)
        a_nodes[j] = sol

    h = 1.0 / grid
    t_var = ScalarField.coordinate(T_CHART, 0)
    base_breaks = {t0 for t0, _t1, _g in pieces} | {1.0}
    cell_polys = []
    for j in range(grid):
        k0 = min(max(j - 1, 0), grid - 3)
        xs = nodes[k0:k0 + 4]
        polys = []
        for s in range(r):
            # Newton form of the cubic through nodes k0..k0+3; divided
            # differences keep the monomial coefficients O(1) so fine grids
            # do not lose the interpolant to cancellation
            dd = [float(v) for v in a_nodes[k0:k0 + 4, s]]
            for order in range(1, 4):
                for i in range(3, order - 1, -1):
                    dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - order])
            total = ScalarField._scalar(T_CHART, dd[0])
            basis = ScalarField.constant(T_CHART, 1.0)
            for i in range(1, 4):
                basis = basis * (t_var - float(xs[i - 1]))
                total = total + dd[i] * basis
            polys.append(total)
        cell_polys.append(polys)

    breaks = sorted(base_breaks | set(nodes))
    breaks = [t for t in breaks if -1e-12 < t < 1.0 + 1e-12]
    segments = []
    for t0, t1 in zip(breaks, breaks[1:]):
        if t1 - t0 < 1e-12:
            continue
        mid = 0.5 * (t0 + t1)
        _p0, _p1, gs = piece_at(mid)
        cell = min(int(mid / h), grid - 1)
        segments.append((t0, t1, gs, cell_polys[cell]))
    return APath(algebroid, segments)


@dataclass
class TransportResult:
    value: np.ndarray
    steps: int
    error: float
    tol: float = None


def _segment_matrices(conn, path):
    """Per segment, dense t-coefficient arrays of the transport matrix."""
    q = conn.q
    out = []
    for _t0, _t1, gamma, coeffs in path.segments:
        entries = np.empty((q, q), dtype=object)
        zero = ScalarField(T_CHART)
        entries[...] = zero
        for s in range(conn.algebroid.rank):
            a_s = coeffs[s]
            if a_s.is_zero():
                continue
            for w in range(q):
                for u in range(q):
                    g = conn.symbols[s, w, u]
                    if g.is_zero():
                        continue
                    entries[u, w] = entries[u, w] + a_s * _substitute(g, gamma)
        deg = 0
        for f in entries.flat:
            deg = max(deg, max((e[0] for e in f.coeffs), default=0))
        c = np.zeros((deg + 1, q, q))
        for u in range(q):
            for w in range(q):
                for e, v in entries[u, w].coeffs.items():
                    c[e[0], u, w] = v
        out.append(c)
    return out


def _matrix_at(c, t):
    total = np.zeros(c.shape[1:])
    power = 1.0
    for d in range(c.shape[0]):
        total = total + power * c[d]
        power *= t
    return total


def _integrate(conn, path, v0, n_steps, seg_mats):
    v = np.array(v0, dtype=float)
    total = 0
    for seg, c in zip(path.segments, seg_mats):
        t0, t1 = seg[0], seg[1]
        n = max(1, math.ceil(n_steps * (t1 - t0)))
        h = (t1 - t0) / n
        t = t0
        for _ in range(n):
            m1 = _matrix_at(c, t)
            m2 = _matrix_at(c, t + 0.5 * h)
            m4 = _matrix_at(c, t + h)
            k1 = -(m1 @ v)
            k2 = -(m2 @ (v + 0.5 * h * k1))
            k3 = -(m2 @ (v + 0.5 * h * k2))
            k4 = -(m4 @ (v + h * k3))
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        total += n
    return v, total


def parallel_transport(conn, path, v0, n_steps=200, tol=None,
                       max_steps=400000):
    """Transport a fiber vector (or matrix of columns) along a path.

    n_steps is the coarse step count over [0, 1]; ValueError unless
    1 <= n_steps and 2 * n_steps <= max_steps.
    """
    if path.algebroid is not conn.algebroid:
        raise AlgebroidMismatchError("path over a different algebroid")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape[0] != conn.q:
        raise ShapeMismatchError(
            "initial vector has length %d, bundle rank is %d"
            % (v0.shape[0], conn.q))
    n = int(n_steps)
    if not (1 <= n and 2 * n <= max_steps):
        raise ValueError("n_steps must be at least 1 and at most %d, got %d"
                         % (max_steps // 2, n))
    seg_mats = _segment_matrices(conn, path)
    coarse, _ = _integrate(conn, path, v0, n, seg_mats)
    while True:
        fine, fine_count = _integrate(conn, path, v0, 2 * n, seg_mats)
        err = float(np.max(np.abs(fine - coarse))) / 15.0
        if tol is None or err <= tol:
            return TransportResult(fine, fine_count, err, tol)
        if 4 * n > max_steps:
            raise ToleranceNotMetError(
                "transport error estimate %.3e above tolerance %.3e "
                "at %d steps" % (err, tol, 2 * n))
        coarse = fine
        n *= 2


def _check_loop(path):
    if not max_abs(path.base_at(0.0) - path.base_at(1.0)) <= JOINT_TOL:
        raise NotALoopError("base path does not close up")


def holonomy_matrix(conn, path, n_steps=200, tol=None):
    """Transport of the whole frame around a loop."""
    _check_loop(path)
    result = parallel_transport(conn, path, np.eye(conn.q),
                                n_steps=n_steps, tol=tol)
    return result.value


def fixed_point_holonomy(algebroid, v):
    """Holonomy of a constant algebra loop at a fixed point of the action.

    Returns the pair (adjoint part, linearized base part), both as matrix
    exponentials, matching the automorphism orientation rather than the
    transport orientation; transport along the same loop inverts them.
    """
    data = algebroid.metadata.get("data")
    if algebroid.metadata.get("kind") != "transformation" or data is None:
        raise ShapeMismatchError(
            "fixed point holonomy needs a transformation algebroid")
    m = algebroid.dimension
    r = algebroid.rank
    v = np.asarray(v, dtype=float)
    if v.shape != (r,):
        raise ShapeMismatchError("algebra element must have length %d" % r)
    if not np.all(np.isfinite(v)):
        raise ShapeMismatchError("algebra element must be finite")
    origin = tuple(0.0 for _ in range(m))
    worst = max_abs(algebroid.anchor_matrix_at(origin).flat)
    if not worst <= 1e-12:
        raise NotAFixedPointError(
            "the origin moves under the action (anchor value %.3e)" % worst)
    c = algebroid.bracket_at(origin)
    ad = np.einsum("s,stu->ut", v, c)
    jac = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            jac[i, j] = sum(v[s] * algebroid.anchor[s][i].partial(j).evaluate(origin)
                            for s in range(r))
    from scipy.linalg import expm

    return expm(ad), expm(jac)
