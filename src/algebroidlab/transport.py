"""A-paths and parallel transport.

A path is a list of segments (t0, t1, gamma, coeffs) in a single global
parameter t running over [0, 1]; gamma gives the base curve components
and coeffs the frame coefficients of the path, all polynomials in t. Each
polynomial of a segment, lift piece or clock change is a field, expression
text or finite number, all read in one fields._field_array call; a bool,
None or list entry is refused wherever it sits.
Transport integrates dv/dt = -M(t) v with classical RK4, where
M[u][w](t) = sum_s a_s(t) Gamma[s][w][u](gamma(t)); the reported result
always comes from the finer of an N vs 2N Richardson pair.

Evaluation works on whole arrays of times. A path is its segment bounds
and one dense coefficient table of its segments' polynomials, read by
Horner's rule at an array of times, the segment of each time found by
np.searchsorted; the tangency check evaluates the anchor split by chart
monomial at all of its sample points in one fields._split_values call.
Reversing, concatenating and reparametrizing compose the table's rows with
the clock. lift_base_path stays in arrays from its nodes to its path: one
stacked SVD gives every node's minimum-norm solution, with lstsq's rank
cutoff, and the table is indexed out of the base curve's pieces and the
cubic cells through the nodes.

Transport does not step v in Python. The equation is linear, so one RK4
step is a matrix, the stability polynomial of the method at -h M(t)
(Hairer, Norsett & Wanner, Solving ODEs I, IV.2). M's t-coefficients come
from the symbols split by chart monomial, for all segments in one pass
with no field arithmetic. Per block of steps, one contraction with a table
of powers of t gives -M at every RK4 node (step starts and midpoints), and
the RK4 stages applied to v = I give every step map I + D_k in stacked
matmuls. The maps are multiplied in fixed chunks of _CHUNK steps, counted
from the start of the segment, and the chunk products applied to v in
order. This reorders the per-vector RK4 arithmetic, so results move by
roundoff against stepping v itself, but not with the block size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebroid import _anchor_jacobian, _integer
from .errors import (
    AlgebroidMismatchError,
    NotAFixedPointError,
    NotALoopError,
    NotTangentError,
    ShapeMismatchError,
    ToleranceNotMetError,
)
from .fields import Chart, _field_array, _split, _split_values
from .sampling import max_abs

T_CHART = Chart(1, ("t",))

PATH_TOL = 1e-6
JOINT_TOL = 1e-9
RESIDUAL_GRID = 256
# step maps formed at once, at most about this many entries
_BLOCK_ENTRIES = 2 ** 16
# step maps composed into one product before it is applied
_CHUNK = 16
# entries of one array of a lift, the bound of classes' engine arrays
_MAX_LIFT = 1 << 26


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


def _compose1(table, m, g, rate):
    """Table of a path's segments run on the clock g: base curve gamma(g(t))
    and frame coefficients rate(t) a(g(t)), g and rate given by their
    coefficients in t."""
    deg = table.shape[2] - 1
    n = deg * (len(g) - 1) + 1
    # the powers of g by rows, so that f(g(t)) is f @ powers
    powers = np.zeros((deg + 1, n))
    p = np.ones(1)
    for d in range(deg + 1):
        powers[d, :len(p)] = p
        p = np.convolve(p, g)
    f = table @ powers
    out = np.zeros(f.shape[:2] + (n + len(rate) - 1,))
    out[:, :m, :n] = f[:, :m]
    for j, c in enumerate(rate):
        out[:, m:, j:j + n] += c * f[:, m:]
    return out


def _pieces(pieces, lists, what):
    """Bounds, in order of t0, and dense table [piece, polynomial, power of
    t] of (t0, t1, list, ...) pieces, lists giving each list's name and
    length. One fields._field_array call reads every entry, so each distinct
    expression text is parsed once; what names the pieces in errors."""
    sizes = [n for _, n in lists]
    bounds, rows = [], []
    for p in pieces:
        if len(p) != 2 + len(sizes) or [
                len(x) if isinstance(x, (list, tuple, np.ndarray)) else -1
                for x in p[2:]] != sizes:
            raise ShapeMismatchError("%s must be (t0, t1, %s)" % (
                what, ", ".join("%s[%d]" % name_n for name_n in lists)))
        if not {bool, np.bool_}.isdisjoint(map(type, p[:2])):
            raise ShapeMismatchError("segment bounds must be numbers")
        bounds.append((float(p[0]), float(p[1])))
        rows.append([f for x in p[2:] for f in x])
    if not rows:
        raise ShapeMismatchError("no %s given" % what)
    fields = _field_array(T_CHART, rows, (len(rows), sum(sizes)), what)
    parts = _split(T_CHART, fields)
    table = np.zeros(fields.shape + (max(parts)[0] + 1,))
    for (e,), c in parts.items():
        table[..., e] = c
    order = np.argsort([t0 for t0, _ in bounds], kind="stable")
    return np.array(bounds)[order], table[order]


def _check_tiling(bounds, what):
    """Refuse (t0, t1) bounds, in order of t0, that do not tile [0, 1] to
    1e-12: each t1 above its t0, the first t0 at 0, the last t1 at 1 and
    each t1 at the next t0. what names them in the error."""
    t0, t1 = bounds[:, 0], bounds[:, 1]
    if not (t1 > t0).all():
        raise ShapeMismatchError("%s must end after they start" % what)
    if abs(t0[0]) > 1e-12 or abs(t1[-1] - 1.0) > 1e-12:
        raise ShapeMismatchError("%s must cover [0, 1]" % what)
    if not (np.abs(t1[:-1] - t0[1:]) <= 1e-12).all():
        raise ShapeMismatchError(
            "%s leave a gap or overlap in [0, 1]" % what)


class APath:
    """Piecewise polynomial path in the algebroid over its base curve.

    A path is its segment bounds, segments[k] = (t0, t1) in order of t0,
    and one dense table of the segments' polynomials, [segment, gamma then
    coeffs, power of t], that every evaluation reads by Horner's rule at a
    whole array of times. gamma has m and coeffs rank entries, each a field
    on T_CHART, an expression text or a finite number, never a bool.
    """

    __slots__ = ("algebroid", "segments", "residual", "_table")

    def __init__(self, algebroid, segments):
        self._check(algebroid, *_pieces(
            segments, (("gamma", algebroid.dimension),
                       ("coeffs", algebroid.rank)), "segments"))

    @classmethod
    def _of(cls, algebroid, bounds, table):
        """Path from segment bounds in order of t0 and their table, checked
        as the constructor checks the segments it converts."""
        path = object.__new__(cls)
        path._check(algebroid, bounds, table)
        return path

    def _check(self, algebroid, bounds, table):
        _check_tiling(bounds, "segments")
        self.algebroid = algebroid
        self.segments = bounds
        self._table = table
        m = algebroid.dimension
        # an overflow gives a non-finite jump or residual, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            if len(bounds) > 1:
                # each segment's base point at its end against the next
                # one's at its start
                joint = np.arange(len(bounds) - 1)
                left = self._eval(bounds[:-1, 1], joint)[0][:, :m]
                right = self._eval(bounds[1:, 0], joint + 1)[0][:, :m]
                if not (np.abs(left - right) <= JOINT_TOL).all():
                    raise NotTangentError(
                        "base curve jumps at a segment joint")
            self.residual = self._tangency_residual()
        if not self.residual <= PATH_TOL:
            raise NotTangentError(
                "path is not tangent to the anchor distribution "
                "(residual %.3e)" % self.residual)

    def _eval(self, ts, seg=None):
        return _horner(self._table, self.segments[:, 0], ts, seg)

    def base_at(self, t):
        return self._eval([t])[0][0, :self.algebroid.dimension]

    def velocity_at(self, t):
        return self._eval([t])[1][0, :self.algebroid.dimension]

    def coeff_at(self, t):
        return self._eval([t])[0][0, self.algebroid.dimension:]

    def _tangency_residual(self):
        a = self.algebroid
        m = a.dimension
        if m == 0:
            return 0.0
        # a fixed grid, and every segment's midpoint so that no segment
        # goes unchecked however many there are
        mids = 0.5 * (self.segments[:, 0] + self.segments[:, 1])
        val, der = self._eval(
            np.concatenate((np.linspace(0.0, 1.0, RESIDUAL_GRID), mids)))
        b = _split_values(_split(a.chart, a.anchor), val[:, :m])
        return max_abs(
            (np.einsum("ns,nsi->ni", val[:, m:], b) - der[:, :m]).ravel())


def constant_path(algebroid, coeffs, point):
    """Path sitting at one base point with constant frame coefficients."""
    return APath(algebroid,
                 [(0.0, 1.0, algebroid.chart.check_point(point), coeffs)])


def reverse_path(path):
    """Run a path backwards; coefficients flip sign with the time reversal."""
    m = path.algebroid.dimension
    return APath._of(
        path.algebroid, 1.0 - path.segments[::-1, ::-1],
        _compose1(path._table[::-1], m, [1.0, -1.0], [-1.0]))


def concat_paths(first, second):
    """Traverse first then second on a common [0, 1] clock."""
    if first.algebroid is not second.algebroid:
        raise AlgebroidMismatchError("paths over different algebroids")
    m = first.algebroid.dimension
    tables = [_compose1(first._table, m, [0.0, 2.0], [2.0]),
              _compose1(second._table, m, [-1.0, 2.0], [2.0])]
    width = max(x.shape[2] for x in tables)
    table = np.concatenate(
        [np.pad(x, ((0, 0), (0, 0), (0, width - x.shape[2]))) for x in tables])
    bounds = np.concatenate((first.segments / 2.0,
                             (second.segments + 1.0) / 2.0))
    return APath._of(first.algebroid, bounds, table)


def reparametrize_path(path, phi):
    """Precompose a single-segment path with a polynomial clock change."""
    if len(path.segments) != 1:
        raise ShapeMismatchError(
            "clock changes are supported on single-segment paths")
    g = _pieces([(0.0, 1.0, [phi])], (("clock change", 1),),
                "clock changes")[1][0, 0]
    if not (abs(g[0]) <= 1e-12 and abs(sum(g.tolist()) - 1.0) <= 1e-12):
        raise ShapeMismatchError("clock change must fix the endpoints")
    rate = g[1:] * np.arange(1, len(g))
    return APath._of(
        path.algebroid, path.segments,
        _compose1(path._table, path.algebroid.dimension, g, rate))


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


def _min_norm(mats, rhs):
    """Minimum-norm least-squares solutions of mats[n] x = rhs[n] over a
    stack, from one stacked SVD (Golub-Van Loan, Matrix Computations,
    5.5). Singular values at or below eps * max(rows, columns) times the
    largest are dropped, the cutoff of np.linalg.lstsq; a zero matrix drops
    them all and gives x = 0, as lstsq does."""
    n, rows, cols = mats.shape
    if not rows or not cols:
        return np.zeros((n, cols))
    u, s, vt = np.linalg.svd(mats, full_matrices=False)
    keep = s > np.finfo(float).eps * max(rows, cols) * s[:, :1]
    y = np.divide((rhs[:, None, :] @ u)[:, 0], s, out=np.zeros_like(s),
                  where=keep)
    return (y[:, None, :] @ vt)[:, 0]


def lift_base_path(algebroid, base, grid=64):
    """Lift a base curve to an A-path by least squares at grid nodes.

    base is either a list of m polynomials in t covering [0, 1], or a list
    of (t0, t1, [polynomials]) pieces that tile [0, 1], as the segments of
    an APath must; the polynomials are read as a segment's are.
    Coefficients at the nodes are the minimum-norm solutions of the anchor
    system; between nodes they are interpolated by a cubic through the four
    nearest nodes. A grid that is not an integral number of at least 4
    cells, or whose arrays would pass 2^26 entries, is refused before any is
    allocated; a base curve, velocity or anchor value that overflows a
    double at a node is refused.
    """
    def is_piece(x):
        # numpy's ints and floats are Reals; bools of both kinds reach
        # _pieces, which refuses them
        return (isinstance(x, (tuple, list)) and len(x) == 3
                and isinstance(x[0], (numbers.Real, np.bool_)))

    m = algebroid.dimension
    base = list(base)
    if not (base and all(is_piece(x) for x in base)):
        base = [(0.0, 1.0, base)]
    bounds, curve = _pieces(base, (("base curve", m),), "pieces")
    _check_tiling(bounds, "pieces")
    starts = bounds[:, 0]
    grid = _integer(grid, "grid")
    if grid < 4:
        raise ShapeMismatchError("grid must have at least 4 cells")
    # per node: the anchor stack, the path's table and the node itself
    r = algebroid.rank
    if (grid + 1) * max(r * m, (m + r) * max(curve.shape[2], 4), 1) \
            > _MAX_LIFT:
        raise ShapeMismatchError(
            "grid of %d cells needs arrays of more than %d entries"
            % (grid, _MAX_LIFT))
    nodes = np.linspace(0.0, 1.0, grid + 1)
    # an overflow at a node is refused before the SVD; one in the cubic
    # cells leaves a non-finite residual, which the path check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        points, vel = _horner(curve, starts, nodes)
        b = _split_values(_split(algebroid.chart, algebroid.anchor), points)
        if not all(np.isfinite(x).all() for x in (points, vel, b)):
            raise ShapeMismatchError(
                "base curve or the anchor along it overflows a double")
        cells = _cubic_cells(nodes, _min_norm(b.transpose(0, 2, 1), vel))

    breaks = np.unique(np.concatenate((starts, [1.0], nodes)))
    breaks = breaks[(breaks > -1e-12) & (breaks < 1.0 + 1e-12)]
    bounds = np.column_stack((breaks[:-1], breaks[1:]))
    bounds = bounds[bounds[:, 1] - bounds[:, 0] >= 1e-12]
    mids = 0.5 * (bounds[:, 0] + bounds[:, 1])
    # each span's piece of the base curve and cubic cell, one degree for all
    table = np.zeros((len(bounds), m + r, max(curve.shape[2], 4)))
    table[:, :m, :curve.shape[2]] = curve[_segment_of(starts, mids)]
    table[:, m:, :4] = cells[np.minimum((mids * grid).astype(int), grid - 1)]
    return APath._of(algebroid, bounds, table)


@dataclass
class TransportResult:
    value: np.ndarray
    steps: int
    error: float
    tol: float = None


def _polymul(a, b):
    """Row-wise product of stacks of polynomials, in np.convolve's order."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for j in range(a.shape[1]):
        out[:, j:j + b.shape[1]] += a[:, j:j + 1] * b
    return out


def _segment_matrices(conn, path):
    """Dense t-coefficient arrays of the transport matrix, index [segment,
    power of t, u, w], for every segment at once: the symbols split by chart
    monomial, each monomial's coefficients times that monomial's power of
    the base curve, then times the frame coefficients."""
    m = conn.algebroid.dimension
    parts = _split(conn.algebroid.chart, conn.symbols)
    gamma, coeffs = path._table[:, :m], path._table[:, m:]
    width = (gamma.shape[2] - 1) * max(map(sum, parts)) + 1
    # each monomial's power of the base curve, [segment, monomial, power]
    powers = np.zeros((len(gamma), len(parts), width))
    for k, exps in enumerate(parts):
        p = np.ones((len(gamma), 1))
        for i in np.repeat(np.arange(m), exps):
            p = _polymul(p, gamma[:, i])
        powers[:, k, :p.shape[1]] = p
    # the symbols along the path, [segment, power of t, s, u, w]
    along = np.einsum("ned,eswu->ndsuw", powers, [*parts.values()])
    mats = np.zeros((len(gamma), width + coeffs.shape[2] - 1, conn.q, conn.q))
    for j, a in enumerate(coeffs.transpose(2, 0, 1)):
        mats[:, j:j + width] += np.einsum("ns,ndsuw->nduw", a, along)
    degree = max(np.flatnonzero(mats.any(axis=(0, 2, 3))), default=0)
    return mats[:, :degree + 1]


def _neg_matrices(c, ts):
    """-M(t) at each of the times ts: the powers of t by running products,
    contracted with M's t-coefficients from the constant term up."""
    powers = np.ones((len(ts), len(c)))
    powers[:, 1:] = ts[:, None]
    return -np.einsum("nd,duw->nuw", powers.cumprod(axis=1), c)


def _step_maps(ends, mids, h):
    """D_k with I + D_k the RK4 step of dv/dt = -M(t) v from the k-th time:
    ends holds -M at the step starts and the last end, mids -M at the
    midpoints. Each stage is the per-vector stage applied to v = I, so
    I + D_k is bit for bit one step from the identity."""
    eye = np.eye(ends.shape[1])
    half = 0.5 * h
    k1 = ends[:-1]
    k2 = mids @ (eye + half * k1)
    k3 = mids @ (eye + half * k2)
    k4 = ends[1:] @ (eye + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _chunk_products(d):
    """E_j with I + E_j the product of the step maps I + d_k over each run
    of _CHUNK steps, later steps on the left; a short last run is padded
    with zero increments, which leave a product exactly as it is. Pairs
    combine as x + y + y @ x, so the identity is never added in. _CHUNK is
    a power of two."""
    q = d.shape[1]
    pad = -len(d) % _CHUNK
    if pad:
        d = np.concatenate((d, np.zeros((pad, q, q))))
    for _ in range(_CHUNK.bit_length() - 1):
        pairs = d.reshape((len(d) // 2, 2, q, q))
        x, y = pairs[:, 0], pairs[:, 1]
        d = x + y + y @ x
    return d


def _integrate(conn, path, v0, n_steps, seg_mats):
    v = np.array(v0, dtype=float)
    total = 0
    # whole chunks per block, so that blocks do not change the result
    block = _CHUNK * max(1, _BLOCK_ENTRIES // (_CHUNK * max(1, conn.q ** 2)))
    # a non-finite result is refused by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for (t0, t1), c in zip(path.segments, seg_mats):
            n = max(1, math.ceil(n_steps * (t1 - t0)))
            h = (t1 - t0) / n
            # step starts by a running sum from t0, each t + h rounded once
            ts = np.concatenate(([t0], np.full(n, h))).cumsum()
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                d = _step_maps(_neg_matrices(c, ts[lo:hi + 1]),
                               _neg_matrices(c, ts[lo:hi] + 0.5 * h), h)
                for e in _chunk_products(d):
                    v = v + e @ v
            total += n
    return v, total


def parallel_transport(conn, path, v0, n_steps=200, tol=None,
                       max_steps=400000):
    """Transport a fiber vector (or matrix of columns) along a path.

    n_steps is the coarse step count over [0, 1]; ValueError unless
    1 <= n_steps and 2 * n_steps <= max_steps, or when tol is given and is
    not a finite number >= 0. v0 of a shape other than (q,) or (q, k), or
    not finite, is refused with ShapeMismatchError. A result that
    overflows raises ToleranceNotMetError, and so does an estimate above a
    tol that is below the result's roundoff, eps times its largest entry.

    Every RK4 step is formed as a q x q matrix, so a run costs O(q^3) per
    step whatever v0 is: one vector costs as much as a frame of q columns.
    """
    if path.algebroid is not conn.algebroid:
        raise AlgebroidMismatchError("path over a different algebroid")
    v0 = np.asarray(v0, dtype=float)
    if v0.ndim not in (1, 2) or v0.shape[0] != conn.q:
        raise ShapeMismatchError(
            "initial vector has shape %s, not (%d,) or (%d, k)"
            % (v0.shape, conn.q, conn.q))
    if not np.all(np.isfinite(v0)):
        raise ShapeMismatchError("initial vector must be finite")
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
        if not np.all(np.isfinite(fine)):
            raise ToleranceNotMetError(
                "transport overflows a double at %d steps" % fine_count)
        err = float(np.max(np.abs(fine - coarse), initial=0.0)) / 15.0
        if tol is None or err <= tol:
            return TransportResult(fine, fine_count, err, tol)
        # no doubling can be relied on to meet a tol below the roundoff
        floor = np.finfo(float).eps * float(np.max(np.abs(fine), initial=0.0))
        if tol < floor or 4 * n > max_steps:
            raise ToleranceNotMetError(
                "transport error estimate %.3e above tolerance %.3e at %d "
                "steps; the result's roundoff is %.3e"
                % (err, tol, 2 * n, floor))
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
    """Holonomy of a constant loop at the chart origin, a zero of the anchor.

    Returns the pair (adjoint part, linearized base part), the matrix
    exponentials of ad_v and of the anchor Jacobian contracted with v: only
    the anchor and bracket at the origin are read, whatever the spec was.
    Along constant_path(algebroid, v, origin), the A-holonomy of the
    bracket connection is the inverse of the adjoint part, and the
    holonomy of compatible_connection's TM mate equals the base part.
    An element whose exponential overflows a double is refused.
    """
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
