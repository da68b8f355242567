"""Linear connections along algebroid directions.

Symbols are stored as Gamma[s][t][u] with the convention
nabla_{alpha^s} e_t = sum_u Gamma[s][t][u] e_u, where s runs over the
algebroid frame and t, u over the frame of the target bundle. Supported
bundles: the algebroid itself ("A"), the chart tangent ("TM"), its dual
("T*M"), and E = A + T*M ("E").
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .algebroid import Section, anchor_apply, bracket_sections, build_algebroid
from .calculus import MatrixForm, _apply_to_matrix, _mat_dot
from .errors import (
    AlgebroidMismatchError,
    BundleMismatchError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .fields import (
    ScalarField,
    _field_array,
    _join,
    _partials,
    _split,
    _values,
    as_field,
    dot,
)

BUNDLES = ("A", "TM", "T*M", "E")

_BLOCK = 1 << 13   # entries per temporary in the float products


def bundle_rank(algebroid, bundle):
    if bundle == "A":
        return algebroid.rank
    if bundle in ("TM", "T*M"):
        return algebroid.dimension
    if bundle == "E":
        return algebroid.rank + algebroid.dimension
    raise ShapeMismatchError("unknown bundle tag %r" % (bundle,))


class AConnection:
    """Christoffel data for one bundle over one algebroid."""

    __slots__ = ("algebroid", "bundle", "q", "symbols")

    def __init__(self, algebroid, bundle, symbols):
        self.algebroid = algebroid
        self.bundle = bundle
        self.q = bundle_rank(algebroid, bundle)
        self.symbols = symbols

    def __repr__(self):
        return "AConnection(bundle=%s, q=%d)" % (self.bundle, self.q)


def build_connection(algebroid, bundle, symbols):
    """Validate shapes and wrap a symbol tensor as a connection."""
    q = bundle_rank(algebroid, bundle)
    return AConnection(algebroid, bundle, _field_array(
        algebroid.chart, symbols, (algebroid.rank, q, q), "symbols"))


def connection_matrix(conn, section):
    """Matrix of nabla_section on the bundle frame, columns are inputs."""
    if section.algebroid is not conn.algebroid:
        raise AlgebroidMismatchError("section of a different algebroid")
    if not conn.algebroid.rank:   # the tangent algebroid of a point
        return np.empty((0, 0), dtype=object)
    # omega[u, t] = sum_s a_s Gamma[s, t, u]
    return _mat_dot(zip(section.coeffs, conn.symbols.transpose(0, 2, 1)))


class TensorSection:
    """Tensor field over one bundle; upper axes first, then lower axes."""

    __slots__ = ("algebroid", "bundle", "n_upper", "n_lower", "comps")

    def __init__(self, algebroid, bundle, n_upper, n_lower, comps):
        q = bundle_rank(algebroid, bundle)
        out = _field_array(algebroid.chart, comps, (q,) * (n_upper + n_lower),
                           "tensor components")
        self.algebroid = algebroid
        self.bundle = bundle
        self.n_upper = int(n_upper)
        self.n_lower = int(n_lower)
        self.comps = out

    def evaluate(self, p):
        return _values(self.comps, p)

    def __sub__(self, other):
        if (other.algebroid is not self.algebroid
                or other.bundle != self.bundle
                or other.comps.shape != self.comps.shape):
            raise ShapeMismatchError("tensor mismatch")
        return TensorSection(self.algebroid, self.bundle, self.n_upper,
                             self.n_lower, self.comps - other.comps)


def section_tensor(conn, section):
    """View an algebroid section as a rank-1 tensor over bundle A."""
    return TensorSection(conn.algebroid, "A", 1, 0,
                         np.array(section.coeffs, dtype=object))


def a_derivative(conn, alpha, target):
    """Covariant derivative along a section.

    Accepts an algebroid Section (bundle A only) or a TensorSection over
    the connection's bundle. Upper slots receive the symbols positively,
    lower slots with the opposite sign, so that contractions obey the
    Leibniz rule.
    """
    if alpha.algebroid is not conn.algebroid:
        raise AlgebroidMismatchError("direction section of a different algebroid")
    if isinstance(target, Section):
        if conn.bundle != "A":
            raise BundleMismatchError(
                "plain sections live in bundle A, connection is on %s"
                % conn.bundle)
        result = a_derivative(conn, alpha, section_tensor(conn, target))
        return Section(conn.algebroid, list(result.comps))
    if target.algebroid is not conn.algebroid:
        raise AlgebroidMismatchError("tensor over a different algebroid")
    if target.bundle != conn.bundle:
        raise BundleMismatchError(
            "tensor over bundle %s, connection on %s"
            % (target.bundle, conn.bundle))
    direction = anchor_apply(conn.algebroid, alpha)
    omega = connection_matrix(conn, alpha)
    # slot pos of entry idx contracts row idx[pos] of its slot matrix
    slots = [omega] * target.n_upper + [-omega.T] * target.n_lower
    comps = target.comps
    out = np.empty(comps.shape, dtype=object)
    for idx in np.ndindex(*comps.shape):
        out[idx] = dot(conn.algebroid.chart, (
            (w, comps[idx[:pos] + (dummy,) + idx[pos + 1:]])
            for pos, mat in enumerate(slots)
            for dummy, w in enumerate(mat[idx[pos]])),
            start=direction.apply(comps[idx]))
    return TensorSection(conn.algebroid, conn.bundle,
                         target.n_upper, target.n_lower, out)


def torsion(conn):
    """Torsion tensor of a connection on bundle A, via the symbols."""
    if conn.bundle != "A":
        raise BundleMismatchError("torsion needs a connection on bundle A")
    a = conn.algebroid
    gamma = conn.symbols
    # comps[u, s, t] = Gamma[s, t, u] - Gamma[t, s, u] - c[s, t, u]
    comps = (gamma - gamma.transpose(1, 0, 2) - a.bracket).transpose(2, 0, 1)
    return TensorSection(a, "A", 1, 2, comps)


def curvature(conn):
    """Curvature as a matrix-valued 2-form, the Cartan formula on the
    connection matrices of the frame (the n = 0 family of
    _family_curvature)."""
    a = conn.algebroid
    fam = _family_curvature(a, _frame_matrices(conn), [])
    return MatrixForm(a, 2, conn.q, dict(zip(
        itertools.combinations(range(a.rank), 2), _join(a.chart, fam[()]))))


local_curvature = curvature   # kept: perfbench/workloads.py calls it


def _frame_matrices(conn):
    """Frame matrices of nabla split by chart monomial (see _split):
    out[e][s, u, t] is the x^e coefficient of Gamma[s, t, u], so that
    sum_e out[e][s] x^e is connection_matrix(conn, e_s)."""
    return _split(conn.algebroid.chart, conn.symbols.transpose(0, 2, 1))


def _add_into(acc, e, term):
    """acc[e] += term; a first term is stored, not added to zeros, so that
    over a point each sum is the float route's, signed zeros included."""
    if e in acc:
        acc[e] += term
    else:
        acc[e] = term


def _family_curvature(algebroid, omega0, etas):
    """Curvature of omega0 + sum_i t_i eta_i per frame pair, by monomial.

    The Cartan formula F_ab = #a(w_b) - #b(w_a) + [w_a, w_b] - c_ab^u w_u
    of w = sum_i t_i w_i, with t_0 = 1, w_0 = omega0 and w_i = eta_i given
    split by chart monomial (_frame_matrices). Each t_i t_j entry takes all
    pairs a < b at once, in blocks of _BLOCK entries: per pair of chart
    monomials, stacked matmuls of w_ia w_jb - w_jb w_ia (and the same with
    i and j swapped when i < j) land on the sum of the exponents; for
    i = 0 the bracket terms are added only where the constant is nonzero
    (never 0 * inf), and the anchor terms lower the exponent of w by one in
    x_k and scale it by the power. Returns {t exponents: {chart exponents:
    float array}}, t exponents of total degree at most 2, each array one
    (q, q) slice per pair a < b in order, the constant monomial first (a
    (0, q, q) array when the rank is below 2); _join makes fields of a
    split. Over a point the one chart monomial is () and there is no anchor
    term, so each entry is bit-identical to the per-pair float sum.
    """
    ws = [omega0] + list(etas)
    chart = algebroid.chart
    m = chart.dimension
    q = next(iter(omega0.values())).shape[-1]
    pairs = list(itertools.combinations(range(algebroid.rank), 2))
    ia, ib = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    negc = {e: -c for e, c in
            _split(chart, algebroid.bracket[ia, ib]).items()}
    anchor = _split(chart, algebroid.anchor)
    monos = {(i, j): tuple((i == x) + (j == x) for x in range(1, len(ws)))
             for i, j in itertools.combinations_with_replacement(
                 range(len(ws)), 2)}
    out = {t: {(0,) * m: np.zeros((len(pairs), q, q))} for t in monos.values()}
    step = max(1, _BLOCK // (q * q))
    for lo in range(0, len(pairs), step):
        a, b = ia[lo:lo + step], ib[lo:lo + step]
        gathered = [{e: (x[a], x[b]) for e, x in w.items()} for w in ws]
        brackets = []
        for d, c in negc.items():
            cab = c[lo:lo + step]
            brackets += [(d, u, cab[:, u] != 0, cab[:, u, None, None])
                         for u in np.flatnonzero(cab.any(axis=0))]
        # rho_a^k d_k w_jb - rho_b^k d_k w_ja: the x^g term of rho^k times
        # the x^e term of w lands on g + e - 1_k, scaled by e_k
        rho = [(g, k, x[a, k, None, None], x[b, k, None, None])
               for g, x in anchor.items() for k in range(m)
               if x[a, k].any() or x[b, k].any()]
        for (i, j), t in monos.items():
            acc = {}
            for e1, (xa, xb) in gathered[i].items():
                for e2, (ya, yb) in gathered[j].items():
                    term = xa @ yb
                    term -= yb @ xa
                    if i < j:
                        term += ya @ xb
                        term -= xb @ ya
                    _add_into(acc, tuple(map(operator.add, e1, e2)), term)
            if i == 0:
                for d, u, nz, c in brackets:
                    for e, y in ws[j].items():
                        e = tuple(map(operator.add, d, e))
                        if e not in acc:
                            acc[e] = np.zeros((len(a), q, q))
                        acc[e][nz] += c[nz] * y[u]
                for g, k, ra, rb in rho:
                    for e, (ya, yb) in gathered[j].items():
                        if e[k]:
                            d = tuple(map(operator.add, g, e))
                            _add_into(acc, d[:k] + (d[k] - 1,) + d[k + 1:],
                                      (e[k] * ra) * yb - (e[k] * rb) * ya)
            for e, term in acc.items():
                if e not in out[t]:
                    out[t][e] = np.zeros((len(pairs), q, q))
                out[t][e][lo:lo + step] = term
    return out


class FrameChange:
    """Invertible polynomial change of a bundle frame.

    The determinant must be a nonzero constant so the inverse stays
    polynomial (covers constant and unipotent triangular changes).
    """

    __slots__ = ("chart", "size", "matrix", "inverse", "det")

    def __init__(self, chart, matrix):
        # a scalar has no length; its shape () then fails the check
        n = len(matrix) if np.iterable(matrix) else 0
        out = _field_array(chart, matrix, (n, n), "frame change")
        if n == 0:
            raise ShapeMismatchError("empty frame change")
        # Faddeev-LeVerrier, n matrix products: from b = I, m = A b,
        # c = -tr(m) / k and b = m + c I; after step n, det A = (-1)^n c,
        # and adj A = (-1)^(n-1) b from step n - 1
        adj = np.eye(n)
        m = out
        for k in range(1, n + 1):
            c = (-1.0 / k) * sum(m.diagonal(), ScalarField(chart))
            if k == n:
                break
            adj = m.copy()
            for i in range(n):
                adj[i, i] = adj[i, i] + c
            m = _mat_dot([(out, adj)])
        det = c if n % 2 == 0 else -c
        if not det.is_constant():
            raise NotInvertibleError(
                "determinant %s is not constant; inverse would not be "
                "polynomial" % det)
        d = det.constant_value()
        if not abs(d) >= 1e-12:
            raise NotInvertibleError("determinant vanishes")
        scale = (1.0 if n % 2 else -1.0) / d
        inv = np.empty((n, n), dtype=object)
        for i, j in np.ndindex(n, n):
            inv[i, j] = scale * as_field(chart, adj[i, j])
        self.chart = chart
        self.size = n
        self.matrix = out
        self.inverse = inv
        self.det = d


def transform_symbols(conn, change):
    """Rewrite the symbols in a new frame.

    On bundle A the change reindexes both the direction slot and the
    bundle slots; on the other bundles only the bundle frame moves.
    """
    a = conn.algebroid
    if change.size != conn.q:
        raise ShapeMismatchError(
            "frame change size %d does not match bundle rank %d"
            % (change.size, conn.q))
    if change.chart != a.chart:
        raise ShapeMismatchError("frame change lives on a different chart")
    r = a.rank
    q = conn.q
    mat = change.matrix
    inv = change.inverse
    # core_s = #alpha_s(a) + a Gamma_s, then Gamma'_s = core_s a^-1
    out = np.stack([
        _mat_dot([(_mat_dot([(mat, conn.symbols[s])],
                            _apply_to_matrix(a.anchor_row(s), mat)), inv)])
        for s in range(r)])
    if conn.bundle != "A":
        return AConnection(a, conn.bundle, out)
    # on bundle A the direction slot moves too
    final = _mat_dot([(mat, out.reshape(r, q * q))]).reshape(r, q, q)
    return AConnection(a, "A", final)


def transform_algebroid(algebroid, change):
    """Anchor and bracket data of the same algebroid in a new frame."""
    a = algebroid
    if change.size != a.rank or change.chart != a.chart:
        raise ShapeMismatchError("frame change does not fit the algebroid")
    r = a.rank
    mat = change.matrix
    inv = change.inverse
    anchor = _mat_dot([(mat, a.anchor)])
    frames = [Section(a, list(mat[sp, :])) for sp in range(r)]
    pairs = list(itertools.combinations(range(r), 2))
    bracket = np.full((r, r, r), ScalarField(a.chart), dtype=object)
    if pairs:
        brs = np.array([bracket_sections(a, frames[sp], frames[tp]).coeffs
                        for sp, tp in pairs], dtype=object)
        for (sp, tp), row in zip(pairs, _mat_dot([(brs, inv)])):
            bracket[sp, tp] = row
            bracket[tp, sp] = -row
    meta = dict(a.metadata)
    meta.pop("kind", None)
    meta.pop("params", None)
    return build_algebroid(a.chart, r, anchor, bracket, meta or None)


def compatible_connection(algebroid):
    """The bracket connection on A with its anchor-compatible mate on TM.

    The TM symbols are set so that transporting the anchor image of a
    frame section reproduces the anchor of its bracket derivative, which
    makes #(nabla beta) equal nabla-check(#beta) identically.
    """
    a = algebroid
    conn_a = AConnection(a, "A", a.bracket.copy())
    # symbols[s, i, j] = -d_i rho_s^j
    symbols = -_partials(a.anchor, a.dimension).transpose(0, 2, 1)
    return conn_a, AConnection(a, "TM", symbols)


def basic_connection(algebroid):
    """Block connection on E = A + T*M: bracket block plus dual block."""
    a = algebroid
    r = a.rank
    q = r + a.dimension
    symbols = np.full((r, q, q), ScalarField(a.chart), dtype=object)
    symbols[:, :r, :r] = a.bracket
    # symbols[s, r + i, r + j] = d_j rho_s^i
    symbols[:, r:, r:] = _partials(a.anchor, a.dimension)
    return AConnection(a, "E", symbols)


def flat_metric_connection(algebroid):
    """Zero symbols on E; the chart frame is treated as orthonormal."""
    a = algebroid
    q = a.rank + a.dimension
    return AConnection(a, "E", np.full((a.rank, q, q), ScalarField(a.chart),
                                       dtype=object))
