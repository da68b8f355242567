"""Linear connections along algebroid directions.

Symbols are stored as Gamma[s][t][u] with the convention
nabla_{alpha^s} e_t = sum_u Gamma[s][t][u] e_u, where s runs over the
algebroid frame and t, u over the frame of the target bundle. Supported
bundles: the algebroid itself ("A"), the chart tangent ("TM"), its dual
("T*M"), and E = A + T*M ("E").
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebroid import Section, anchor_apply, bracket_sections
from .calculus import MatrixForm, _apply_to_matrix, _mat_dot
from .errors import (
    AlgebroidMismatchError,
    BundleMismatchError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .fields import ScalarField, _field_array, as_field, dot
from .sampling import max_abs

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
    chart = conn.algebroid.chart
    q = conn.q
    omega = np.empty((q, q), dtype=object)
    for u in range(q):
        for t in range(q):
            omega[u, t] = dot(chart, zip(section.coeffs,
                                         conn.symbols[:, t, u]))
    return omega


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
        shape = self.comps.shape
        out = np.zeros(shape)
        for idx in np.ndindex(*shape):
            out[idx] = self.comps[idx].evaluate(p)
        return out

    def max_abs_coeff(self):
        return max_abs(f.max_abs_coeff() for f in self.comps.flat)

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
    q = conn.q
    shape = target.comps.shape
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        total = direction.apply(target.comps[idx])
        for pos in range(target.n_upper):
            for dummy in range(q):
                w = omega[idx[pos], dummy]
                if w.is_zero():
                    continue
                jdx = idx[:pos] + (dummy,) + idx[pos + 1:]
                total = total + w * target.comps[jdx]
        for pos in range(target.n_upper, target.n_upper + target.n_lower):
            for dummy in range(q):
                w = omega[dummy, idx[pos]]
                if w.is_zero():
                    continue
                jdx = idx[:pos] + (dummy,) + idx[pos + 1:]
                total = total - w * target.comps[jdx]
        out[idx] = total
    return TensorSection(conn.algebroid, conn.bundle,
                         target.n_upper, target.n_lower, out)


def torsion(conn):
    """Torsion tensor of a connection on bundle A, via the symbols."""
    if conn.bundle != "A":
        raise BundleMismatchError("torsion needs a connection on bundle A")
    a = conn.algebroid
    r = a.rank
    comps = np.empty((r, r, r), dtype=object)
    for u in range(r):
        for s in range(r):
            for t in range(r):
                comps[u, s, t] = (conn.symbols[s, t, u]
                                  - conn.symbols[t, s, u]
                                  - a.bracket[s, t, u])
    return TensorSection(a, "A", 1, 2, comps)


def torsion_applied(conn, alpha, beta):
    """Torsion evaluated through the derivative operator and the bracket."""
    a = conn.algebroid
    return (a_derivative(conn, alpha, beta)
            - a_derivative(conn, beta, alpha)
            - bracket_sections(a, alpha, beta))


def curvature(conn):
    """Curvature as a matrix-valued 2-form, the Cartan formula on the
    connection matrices of the frame (the n = 0 family of
    _family_curvature)."""
    a = conn.algebroid
    fam = _family_curvature(a, _frame_matrices(conn), [])
    return MatrixForm(a, 2, conn.q, dict(zip(
        itertools.combinations(range(a.rank), 2), fam[()])))


local_curvature = curvature   # kept: perfbench/workloads.py calls it


def curvature_applied(conn, alpha, beta, target):
    """Curvature through second derivatives, usable as an oracle."""
    a = conn.algebroid
    first = a_derivative(conn, beta, target)
    second = a_derivative(conn, alpha, target)
    out = a_derivative(conn, alpha, first)
    out = out - a_derivative(conn, beta, second)
    br = bracket_sections(a, alpha, beta)
    return out - a_derivative(conn, br, target)


def _constant_terms(fields):
    """Constant terms of an array of fields as floats: over a point, their
    values, since evaluate(()) adds the (never zero) stored term to 0.0."""
    return np.fromiter((f.coeffs.get((), 0.0) for f in fields.flat), float,
                       fields.size).reshape(fields.shape)


def _frame_matrices(conn, numeric=False):
    """Frame matrices of nabla, stacked: out[s, u, t] = Gamma[s, t, u].

    out[s] is connection_matrix(conn, e_s), read off the symbols; numeric
    reads the float values of a zero-dimensional chart in one pass.
    """
    symbols = _constant_terms(conn.symbols) if numeric else conn.symbols
    return symbols.transpose(0, 2, 1).copy()


def _family_curvature(algebroid, omega0, etas, numeric=False):
    """Curvature of omega0 + sum_i t_i eta_i per frame pair, by monomial.

    The Cartan formula F_ab = #a(w_b) - #b(w_a) + [w_a, w_b] - c_ab^u w_u
    of w = sum_i t_i w_i, with t_0 = 1, w_0 = omega0 and w_i = eta_i (stacked
    frame matrices), collected by monomial: the t_i t_j entry is one
    _mat_dot of the products w_ia w_jb and -w_jb w_ia (and the same with i
    and j swapped when i < j), plus, for i = 0, the bracket terms of w_j
    from the anchor term. Returns {exponents: array} with one (q, q) slice
    per pair a < b in order, exponents one tuple over t_1..t_n of total
    degree at most 2. numeric (over a point: no anchor term) takes all pairs
    at once, in blocks of _BLOCK entries, as stacked matmuls added in
    _mat_dot's order, so each entry is bit-identical to the per-pair sum.
    """
    ws = [omega0] + list(etas)
    q = omega0.shape[-1]
    pairs = list(itertools.combinations(range(algebroid.rank), 2))
    monos = {(i, j): tuple((i == x) + (j == x) for x in range(1, len(ws)))
             for i, j in itertools.combinations_with_replacement(
                 range(len(ws)), 2)}
    out = {e: np.empty((len(pairs), q, q), dtype=omega0.dtype)
           for e in monos.values()}
    if numeric:
        w = np.array(ws)
        ia, ib = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        negc = -_constant_terms(algebroid.bracket[ia, ib])
        step = max(1, _BLOCK // (q * q))
        for lo in range(0, len(pairs), step):
            a, b, cab = (x[lo:lo + step] for x in (ia, ib, negc))
            # zero constants add nothing (never 0 * inf), as in the field route
            us = np.flatnonzero(cab.any(axis=0))
            for (i, j), e in monos.items():
                wia, wjb = w[i, a], w[j, b]
                acc = wia @ wjb
                acc += (-wjb) @ wia
                if i < j:
                    wja, wib = w[j, a], w[i, b]
                    acc += wja @ wib
                    acc += (-wib) @ wja
                if i == 0:
                    for u in us:
                        nz = cab[:, u] != 0
                        acc[nz] += cab[nz, u, None, None] * w[j, u]
                out[e][lo:lo + step] = acc
        return out
    neg = [-x for x in ws]
    for p, (a, b) in enumerate(pairs):
        brackets = [(-c, u) for u, c in enumerate(algebroid.bracket[a, b])
                    if c.coeffs]
        for (i, j), e in monos.items():
            prods = [(ws[i][a], ws[j][b]), (neg[j][b], ws[i][a])]
            if i < j:
                prods += [(ws[j][a], ws[i][b]), (neg[i][b], ws[j][a])]
            lead = None
            if i == 0:
                prods += [(c, ws[j][u]) for c, u in brackets]
                lead = (_apply_to_matrix(algebroid.anchor_row(a), ws[j][b])
                        - _apply_to_matrix(algebroid.anchor_row(b), ws[j][a]))
            out[e][p] = _mat_dot(prods, lead)
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

    @classmethod
    def identity(cls, chart, n):
        return cls(chart, np.eye(n))


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
    from .algebroid import build_algebroid

    a = algebroid
    if change.size != a.rank or change.chart != a.chart:
        raise ShapeMismatchError("frame change does not fit the algebroid")
    r = a.rank
    mat = change.matrix
    inv = change.inverse
    anchor = _mat_dot([(mat, np.array(a.anchor, dtype=object)
                              .reshape(r, a.dimension))])
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
    return build_algebroid(a.chart, r, anchor.tolist(), bracket, meta or None)


def compatible_connection(algebroid):
    """The bracket connection on A with its anchor-compatible mate on TM.

    The TM symbols are set so that transporting the anchor image of a
    frame section reproduces the anchor of its bracket derivative, which
    makes #(nabla beta) equal nabla-check(#beta) identically.
    """
    a = algebroid
    r = a.rank
    m = a.dimension
    conn_a = AConnection(a, "A", a.bracket.copy())
    symbols = np.empty((r, m, m), dtype=object)
    for s in range(r):
        for i in range(m):
            for j in range(m):
                symbols[s, i, j] = -a.anchor[s][j].partial(i)
    conn_tm = AConnection(a, "TM", symbols)
    return conn_a, conn_tm


def basic_connection(algebroid):
    """Block connection on E = A + T*M: bracket block plus dual block."""
    a = algebroid
    r = a.rank
    m = a.dimension
    q = r + m
    zero = ScalarField(a.chart)
    symbols = np.empty((r, q, q), dtype=object)
    symbols[...] = zero
    for s in range(r):
        for t in range(r):
            for u in range(r):
                symbols[s, t, u] = a.bracket[s, t, u]
        for i in range(m):
            for j in range(m):
                symbols[s, r + i, r + j] = a.anchor[s][i].partial(j)
    return AConnection(a, "E", symbols)


def flat_metric_connection(algebroid):
    """Zero symbols on E; the chart frame is treated as orthonormal."""
    a = algebroid
    q = a.rank + a.dimension
    zero = ScalarField(a.chart)
    symbols = np.empty((a.rank, q, q), dtype=object)
    symbols[...] = zero
    return AConnection(a, "E", symbols)
