"""A-paths and parallel transport.

A path is a list of segments (t0, t1, gamma, coeffs) in a single global
parameter t running over [0, 1]; gamma gives the base curve components
and coeffs the frame coefficients of the path, all polynomials in t.
Transport integrates dv/dt = -M(t) v with classical RK4, where
M[u][w](t) = sum_s a_s(t) Gamma[s][w][u](gamma(t)); the reported result
always comes from the finer of an N vs 2N Richardson pair.

Evaluation works on whole arrays of times. A path keeps its segments'
polynomials in one dense coefficient table and evaluates values and
t-derivatives at an array of times by Horner's rule, the segment of each
time found by np.searchsorted; the tangency check evaluates the anchor at
all of its sample points in one ScalarField.evaluate_many call per anchor
entry, and lift_base_path evaluates its nodes and builds its cubic cells
the same way. Transport forms M(t) at all RK4 nodes of a segment (step
starts and midpoints, in blocks) with one power sum, in the same order of
operations as a sum formed one time at a time, so the RK4 recurrence and
its results do not change by a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebroid import _anchor_jacobian
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
# transport matrices formed at once, at most about this many entries
_BLOCK_ENTRIES = 2 ** 16


def _table(rows):
    """Dense coefficient table of equal-length lists of 1-variable
    polynomials: index [list, polynomial, power of t]."""
    deg = max((e[0] for fs in rows for f in fs for e in f.coeffs), default=0)
    out = np.zeros((len(rows), len(rows[0]), deg + 1))
    for i, fs in enumerate(rows):
        for j, f in enumerate(fs):
            for e, c in f.coeffs.items():
                out[i, j, e[0]] = c
    return out


def _segment_of(starts, ts):
    """Index of the last segment starting at or before each time, clipped
    to the segments there are."""
    seg = np.searchsorted(starts, ts, side="right") - 1
    return np.clip(seg, 0, len(starts) - 1)


def _horner(table, starts, ts, seg=None):
    """Values and t-derivatives, each (len(ts), polynomials), of a table of
    piecewise polynomials at the times ts. seg gives each time's row of the
    table; by default _segment_of(starts, ts)."""
    ts = np.asarray(ts, dtype=float)
    if seg is None:
        seg = _segment_of(starts, ts)
    t = ts[:, None]
    val = table[seg, :, -1]
    der = np.zeros_like(val)
    for d in range(table.shape[2] - 2, -1, -1):
        der = der * t + val
        val = val * t + table[seg, :, d]
    return val, der


def _anchor_many(algebroid, points):
    """anchor_matrix_at at each row of points: shape (n, rank, dimension)."""
    out = np.empty((len(points), algebroid.rank, algebroid.dimension))
    for s, row in enumerate(algebroid.anchor):
        for i, f in enumerate(row):
            out[:, s, i] = f.evaluate_many(points)
    return out


def _compose1(f, g):
    """f(g(t)) for polynomials in one variable."""
    coeffs = _table([[f]])[0, 0]
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
    """Piecewise polynomial path in the algebroid over its base curve.

    The base curve and the coefficients of all segments sit in one dense
    table, [segment, gamma then coeffs, power of t], that every evaluation
    reads by Horner's rule at a whole array of times.
    """

    __slots__ = ("algebroid", "segments", "starts", "residual", "_table")

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
        self.algebroid = algebroid
        self.segments = cleaned
        self.starts = np.array([seg[0] for seg in cleaned])
        self._table = _table([seg[2] + seg[3] for seg in cleaned])
        # each segment's base point at its end against the next one's at
        # its start
        joint = np.arange(len(cleaned) - 1)
        left = self._eval([seg[1] for seg in cleaned[:-1]], joint)[0]
        right = self._eval(self.starts[1:], joint + 1)[0]
        jumps = ~np.all(np.abs(left[:, :m] - right[:, :m]) <= JOINT_TOL,
                        axis=1)
        for a, b, jump in zip(cleaned, cleaned[1:], jumps):
            if abs(a[1] - b[0]) > 1e-12:
                raise ShapeMismatchError("segments leave a gap in [0, 1]")
            if jump:
                raise NotTangentError("base curve jumps at a segment joint")
        self.residual = self._tangency_residual()
        if not self.residual <= PATH_TOL:
            raise NotTangentError(
                "path is not tangent to the anchor distribution "
                "(residual %.3e)" % self.residual)

    def _eval(self, ts, seg=None):
        return _horner(self._table, self.starts, ts, seg)

    def base_at(self, t):
        return self._eval([t])[0][0, :self.algebroid.dimension]

    def velocity_at(self, t):
        return self._eval([t])[1][0, :self.algebroid.dimension]

    def coeff_at(self, t):
        return self._eval([t])[0][0, self.algebroid.dimension:]

    def _tangency_residual(self):
        m = self.algebroid.dimension
        if m == 0:
            return 0.0
        # a fixed grid, and every segment's midpoint so that no segment
        # goes unchecked however many there are
        mids = [0.5 * (seg[0] + seg[1]) for seg in self.segments]
        val, der = self._eval(
            np.concatenate((np.linspace(0.0, 1.0, RESIDUAL_GRID), mids)))
        b = _anchor_many(self.algebroid, val[:, :m])
        return max_abs(
            (np.einsum("ns,nsi->ni", val[:, m:], b) - der[:, :m]).ravel())


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


def _cubic_cells(nodes, values):
    """Monomial coefficients, shape (cells, columns of values, 4), of the
    cubic through the four nodes nearest each cell of a grid."""
    grid = len(nodes) - 1
    near = np.clip(np.arange(grid) - 1, 0, grid - 3)[:, None] + np.arange(4)
    xs = nodes[near]
    dd = values[near]
    # Newton form of the cubic through the four nodes; divided differences
    # keep the monomial coefficients O(1) so fine grids do not lose the
    # interpolant to cancellation
    for order in range(1, 4):
        for i in range(3, order - 1, -1):
            dd[:, i] = ((dd[:, i] - dd[:, i - 1])
                        / (xs[:, i] - xs[:, i - order])[:, None])
    basis = np.zeros((grid, 4))
    basis[:, 0] = 1.0
    out = dd[:, 0, :, None] * basis[:, None, :]
    for i in range(1, 4):
        # basis times (t - xs[i - 1])
        shifted = np.concatenate((np.zeros((grid, 1)), basis[:, :-1]), axis=1)
        basis = shifted - xs[:, i - 1, None] * basis
        out = out + dd[:, i, :, None] * basis[:, None, :]
    return out


def lift_base_path(algebroid, base, grid=64):
    """Lift a base curve to an A-path by least squares at grid nodes.

    base is either a list of m polynomials in t covering [0, 1], or a list
    of (t0, t1, [polynomials]) pieces. Coefficients at the nodes are the
    minimum-norm solutions of the anchor system; between nodes they are
    interpolated by a cubic through the four nearest nodes.
    """
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
    for _t0, _t1, gs in pieces:
        if len(gs) != algebroid.dimension:
            raise ShapeMismatchError("base curve needs %d components, got %d"
                                     % (algebroid.dimension, len(gs)))
    starts = [p[0] for p in pieces]
    grid = int(grid)
    if grid < 4:
        raise ShapeMismatchError("grid must have at least 4 cells")
    nodes = np.linspace(0.0, 1.0, grid + 1)
    points, vel = _horner(_table([gs for _t0, _t1, gs in pieces]), starts,
                          nodes)
    a_nodes = np.array([np.linalg.lstsq(b.T, v, rcond=None)[0] for b, v
                        in zip(_anchor_many(algebroid, points), vel)])
    h = 1.0 / grid
    base_breaks = {t0 for t0, _t1, _g in pieces} | {1.0}
    cell_polys = [[ScalarField._of(T_CHART, {(d,): c for d, c
                                             in enumerate(row) if c})
                   for row in cell]
                  for cell in _cubic_cells(nodes, a_nodes).tolist()]

    breaks = sorted(base_breaks | set(nodes))
    breaks = [t for t in breaks if -1e-12 < t < 1.0 + 1e-12]
    spans = [(t0, t1) for t0, t1 in zip(breaks, breaks[1:])
             if t1 - t0 >= 1e-12]
    mids = [0.5 * (t0 + t1) for t0, t1 in spans]
    segments = [(t0, t1, pieces[i][2], cell_polys[min(int(mid / h), grid - 1)])
                for (t0, t1), mid, i
                in zip(spans, mids, _segment_of(starts, mids).tolist())]
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


def _neg_matrices(c, ts):
    """-M(t) at each of the times ts, M(t) summed from the constant term up
    with the powers of t built by repeated products."""
    total = np.zeros((len(ts),) + c.shape[1:])
    power = np.ones(len(ts))
    for cd in c:
        total = total + power[:, None, None] * cd
        power = power * ts
    return -total


def _integrate(conn, path, v0, n_steps, seg_mats):
    v = np.array(v0, dtype=float)
    total = 0
    block = max(1, _BLOCK_ENTRIES // max(1, conn.q ** 2))
    for seg, c in zip(path.segments, seg_mats):
        t0, t1 = seg[0], seg[1]
        n = max(1, math.ceil(n_steps * (t1 - t0)))
        h = (t1 - t0) / n
        half = 0.5 * h
        sixth = h / 6.0
        # step starts by a running sum from t0, each t + h rounded once
        ts = np.full(n + 1, h)
        ts[0] = t0
        ts = np.cumsum(ts)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            ends = _neg_matrices(c, ts[lo:hi + 1])
            mids = _neg_matrices(c, ts[lo:hi] + half)
            for k in range(hi - lo):
                k1 = ends[k] @ v
                k2 = mids[k] @ (v + half * k1)
                k3 = mids[k] @ (v + half * k2)
                k4 = ends[k + 1] @ (v + h * k3)
                v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        total += n
    return v, total


def parallel_transport(conn, path, v0, n_steps=200, tol=None,
                       max_steps=400000):
    """Transport a fiber vector (or matrix of columns) along a path.

    n_steps is the coarse step count over [0, 1]; ValueError unless
    1 <= n_steps and 2 * n_steps <= max_steps, or when tol is given and is
    not a finite number >= 0.
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
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be a finite number >= 0, got %r" % (tol,))
    seg_mats = _segment_matrices(conn, path)
    coarse, _ = _integrate(conn, path, v0, n, seg_mats)
    while True:
        fine, fine_count = _integrate(conn, path, v0, 2 * n, seg_mats)
        err = float(np.max(np.abs(fine - coarse), initial=0.0)) / 15.0
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


def _expm(a):
    """Matrix exponential: the [6/6] Pade approximant of a / 2^s, s the
    least that brings the infinity norm to at most 1/2, squared s times
    (Golub-Van Loan, Matrix Computations, Alg. 11.3.1); exp(0) = I exactly."""
    eye = np.eye(len(a))
    if not len(a):
        return eye
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    s = math.frexp(norm)[1] + 1 if norm > 0.5 else 0
    a = a / 2.0 ** s
    num, den, x, c = eye.copy(), eye.copy(), eye, 1.0
    for k in range(1, 7):
        c *= (7 - k) / (k * (13 - k))
        x = a @ x
        num += c * x
        den += -c * x if k % 2 else c * x
    f = np.linalg.solve(den, num)
    for _ in range(s):
        f = f @ f
    return f


def fixed_point_holonomy(algebroid, v):
    """Holonomy of a constant algebra loop at a fixed point of the action.

    Returns the pair (adjoint part, linearized base part), the matrix
    exponentials of ad_v and of the anchor Jacobian contracted with v.
    Along constant_path(algebroid, v, origin), the A-holonomy of the
    bracket connection is the inverse of the adjoint part, and the
    holonomy of compatible_connection's TM mate equals the base part.
    An element whose exponential overflows a double is refused.
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
    bracket = algebroid.bracket_at(origin)
    jac_s = _anchor_jacobian(algebroid, origin)
    # a large element overflows in the squarings; that is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        ad = np.einsum("s,stu->ut", v, bracket)
        jac = sum((v[s] * jac_s[s] for s in range(r)), np.zeros((m, m)))
        parts = _expm(ad), _expm(jac)
    if not all(np.all(np.isfinite(x)) for x in parts):
        raise ShapeMismatchError(
            "holonomy of this algebra element overflows a double")
    return parts
