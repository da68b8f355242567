"""Lie algebroid structure data on a single chart.

An algebroid is stored as an anchor matrix b[s][i] and a bracket tensor
c[s][t][u] of polynomial fields over a chart, relative to a trivializing
frame of rank r. Axioms are checked by sampling (validate); pointwise
linear algebra (rank, isotropy, linearization) uses numpy.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebroidMismatchError,
    AntisymmetryViolationError,
    DimensionMismatchError,
    JacobiViolationError,
    NotABivectorError,
    NotClosedError,
    ShapeMismatchError,
)
from .fields import (
    Chart,
    ScalarField,
    _field_array,
    as_field,
    dot,
    parse_field,
)
from .sampling import _MAX_SIZE, max_abs, seeded_points

RANK_CUTOFF = 1e-9


class VectorField:
    """Vector field on a chart, one polynomial component per coordinate."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart, comps):
        comps = [as_field(chart, c) for c in comps]
        if len(comps) != chart.dimension:
            raise DimensionMismatchError(
                "vector field needs %d components, got %d"
                % (chart.dimension, len(comps)))
        self.chart = chart
        self.comps = comps

    def apply(self, f):
        """Directional derivative of a scalar field."""
        return dot(self.chart, ((x, f.partial(i))
                                for i, x in enumerate(self.comps)))

    def evaluate(self, p):
        return np.array([c.evaluate(p) for c in self.comps])

    def __repr__(self):
        return "VectorField(%s)" % ", ".join(str(c) for c in self.comps)


def vector_field_bracket(x, y):
    """Commutator [x, y] of two vector fields on the same chart."""
    if x.chart != y.chart:
        raise DimensionMismatchError("vector fields on different charts")
    comps = []
    for i in range(x.chart.dimension):
        term = ScalarField(x.chart)
        for j in range(x.chart.dimension):
            term = term + x.comps[j] * y.comps[i].partial(j)
            term = term - y.comps[j] * x.comps[i].partial(j)
        comps.append(term)
    return VectorField(x.chart, comps)


class Section:
    """Section of the algebroid written in the chart frame."""

    __slots__ = ("algebroid", "coeffs")

    def __init__(self, algebroid, coeffs):
        coeffs = [as_field(algebroid.chart, c) for c in coeffs]
        if len(coeffs) != algebroid.rank:
            raise ShapeMismatchError(
                "section needs %d coefficients, got %d"
                % (algebroid.rank, len(coeffs)))
        self.algebroid = algebroid
        self.coeffs = coeffs

    def __add__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        if other.algebroid is not self.algebroid:
            raise AlgebroidMismatchError("sections of different algebroids")
        return Section(self.algebroid,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __rmul__(self, f):
        return Section(self.algebroid, [f * a for a in self.coeffs])

    __mul__ = __rmul__

    def __neg__(self):
        return Section(self.algebroid, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def evaluate(self, p):
        return np.array([a.evaluate(p) for a in self.coeffs])

    def __repr__(self):
        return "Section(%s)" % ", ".join(str(a) for a in self.coeffs)


class LieAlgebroid:
    """Anchor and bracket structure data over a chart frame.

    Sections, forms, and connections are tied to the instance that created
    them; mixing instances raises AlgebroidMismatchError even if the data
    agree.
    """

    def __init__(self, chart, rank, anchor, bracket, metadata=None):
        self.chart = chart
        self.rank = rank
        self.anchor = anchor      # list of rank rows, each a list of m fields
        self.bracket = bracket    # (r, r, r) object ndarray of fields
        self.metadata = dict(metadata or {})

    @property
    def dimension(self):
        return self.chart.dimension

    def frame_section(self, s):
        coeffs = [0.0] * self.rank
        coeffs[s] = 1.0
        return Section(self, coeffs)

    def frame_sections(self):
        return [self.frame_section(s) for s in range(self.rank)]

    def anchor_row(self, s):
        return VectorField(self.chart, self.anchor[s])

    def anchor_matrix_at(self, p):
        p = self.chart.check_point(p)
        out = np.zeros((self.rank, self.dimension))
        for s in range(self.rank):
            for i in range(self.dimension):
                out[s, i] = self.anchor[s][i].evaluate(p)
        return out

    def bracket_at(self, p):
        p = self.chart.check_point(p)
        r = self.rank
        out = np.zeros((r, r, r))
        for s in range(r):
            for t in range(r):
                for u in range(r):
                    out[s, t, u] = self.bracket[s, t, u].evaluate(p)
        return out

    def __repr__(self):
        return "LieAlgebroid(m=%d, r=%d)" % (self.dimension, self.rank)


def _bounded(n, what):
    """n as an int, refused above _MAX_SIZE before anything is allocated."""
    n = int(n)
    if n > _MAX_SIZE:
        raise ShapeMismatchError("%s %d is above the limit of %d"
                                 % (what, n, _MAX_SIZE))
    return n


def _positive_rank(rank):
    rank = _bounded(rank, "rank")
    if rank < 1:
        raise ShapeMismatchError("rank must be positive")
    return rank


def build_algebroid(chart, rank, anchor, bracket, metadata=None):
    """Assemble an algebroid after shape and antisymmetry checks.

    The Jacobi identity and the anchor-morphism axiom are not verified here;
    use validate for that.
    """
    rank = _positive_rank(rank)
    rows = _field_array(chart, anchor, (rank, chart.dimension), "anchor")
    tensor = _field_array(chart, bracket, (rank,) * 3, "bracket tensor")
    for s in range(rank):
        for t in range(s, rank):
            for u in range(rank):
                total = tensor[s, t, u] + tensor[t, s, u]
                if not total.is_zero():
                    raise AntisymmetryViolationError(
                        "c[%d,%d,%d] + c[%d,%d,%d] is not zero"
                        % (s, t, u, t, s, u))
    return LieAlgebroid(chart, rank, rows.tolist(), tensor, metadata)


def anchor_apply(algebroid, section):
    """Image of a section under the anchor, as a vector field."""
    if section.algebroid is not algebroid:
        raise AlgebroidMismatchError("section of a different algebroid")
    comps = [dot(algebroid.chart,
                 zip(section.coeffs, (row[i] for row in algebroid.anchor)))
             for i in range(algebroid.dimension)]
    return VectorField(algebroid.chart, comps)


def bracket_sections(algebroid, alpha, beta):
    """Bracket of two sections in the chart frame.

    Coefficient u of the result is
    sum_{s,t} a_s b_t c[s,t,u] + (#alpha)(b_u) - (#beta)(a_u),
    the unique extension of the frame bracket by bilinearity and the
    Leibniz rule.
    """
    if alpha.algebroid is not algebroid or beta.algebroid is not algebroid:
        raise AlgebroidMismatchError("sections of a different algebroid")
    xa = anchor_apply(algebroid, alpha)
    xb = anchor_apply(algebroid, beta)
    r = algebroid.rank
    out = []
    for u in range(r):
        total = dot(algebroid.chart,
                    ((alpha.coeffs[s] * beta.coeffs[t], c)
                     for s in range(r) for t in range(r)
                     if not (c := algebroid.bracket[s, t, u]).is_zero()))
        total = total + xa.apply(beta.coeffs[u]) - xb.apply(alpha.coeffs[u])
        out.append(total)
    return Section(algebroid, out)


@dataclass
class ValidationReport:
    anchor_residual: float
    jacobi_residual: float
    antisymmetry_residual: float
    tol: float
    n_points: int
    seed: int | None = None

    @property
    def anchor_pass(self):
        return self.anchor_residual <= self.tol

    @property
    def jacobi_pass(self):
        return self.jacobi_residual <= self.tol

    @property
    def antisymmetry_pass(self):
        return self.antisymmetry_residual <= self.tol

    @property
    def passed(self):
        return self.anchor_pass and self.jacobi_pass and self.antisymmetry_pass


def validate(algebroid, points=None, tol=1e-10, n_samples=50, seed=0):
    """Sample the axiom residuals and report the maxima.

    Checks, at every point: the anchor sends frame brackets to vector-field
    commutators; the cyclic Jacobi sum of bracket_sections on basis triples
    vanishes; the bracket tensor is antisymmetric.
    """
    m = algebroid.dimension
    r = algebroid.rank
    if points is None:
        pts = [tuple(p) for p in seeded_points(n_samples, m, seed)]
    else:
        pts = [algebroid.chart.check_point(p) for p in points]
        seed = None
    if not pts:
        raise ValueError("at least one sample point is required")

    def poly_max(fields_list):
        return max_abs(f.evaluate(p) for f in fields_list
                          if not f.is_zero() for p in pts)

    anti = []
    for s in range(r):
        for t in range(s, r):
            for u in range(r):
                anti.append(algebroid.bracket[s, t, u]
                            + algebroid.bracket[t, s, u])
    antisym_res = poly_max(anti)

    anchor_defects = []
    frames = algebroid.frame_sections()
    for s in range(r):
        for t in range(s + 1, r):
            br = bracket_sections(algebroid, frames[s], frames[t])
            lhs = anchor_apply(algebroid, br)
            rhs = vector_field_bracket(algebroid.anchor_row(s),
                                       algebroid.anchor_row(t))
            anchor_defects.extend(a - b for a, b in zip(lhs.comps, rhs.comps))
    anchor_res = poly_max(anchor_defects)

    jacobi_defects = []
    for s in range(r):
        for t in range(s + 1, r):
            for u in range(t + 1, r):
                j = bracket_sections(
                    algebroid,
                    bracket_sections(algebroid, frames[s], frames[t]),
                    frames[u])
                j = j + bracket_sections(
                    algebroid,
                    bracket_sections(algebroid, frames[t], frames[u]),
                    frames[s])
                j = j + bracket_sections(
                    algebroid,
                    bracket_sections(algebroid, frames[u], frames[s]),
                    frames[t])
                jacobi_defects.extend(j.coeffs)
    jacobi_res = poly_max(jacobi_defects)

    return ValidationReport(anchor_res, jacobi_res, antisym_res,
                            tol, len(pts), seed)


def _rank(sv):
    """Numerical rank from singular values in descending order."""
    if not (sv.size and sv[0] > 0.0):
        return 0
    return int(np.sum(sv > RANK_CUTOFF * sv[0]))


def anchor_rank_at(algebroid, p):
    """Numerical rank of the anchor matrix at a point."""
    b = algebroid.anchor_matrix_at(p)
    return _rank(np.linalg.svd(b, compute_uv=False)) if b.size else 0


IsotropyData = namedtuple("IsotropyData", ["basis", "constants", "residual"])


def _kernel_basis(b):
    """Orthonormal basis of left null space, deterministic sign/order."""
    r = b.shape[0]
    if b.shape[1] == 0:
        return np.eye(r)
    u, sv, _vt = np.linalg.svd(b)
    kernel = u[:, _rank(sv):].copy()
    for a in range(kernel.shape[1]):
        col = kernel[:, a]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            kernel[:, a] = -col
    return kernel


def isotropy_at(algebroid, p, tol=1e-9):
    """Kernel of the anchor at p with its induced Lie algebra structure."""
    p = algebroid.chart.check_point(p)
    b = algebroid.anchor_matrix_at(p)
    kernel = _kernel_basis(b)
    k = kernel.shape[1]
    c_p = algebroid.bracket_at(p)
    # bracket of kernel vectors, expressed back in the kernel basis
    w = np.einsum("sa,tb,stu->abu", kernel, kernel, c_p)
    proj = np.einsum("abu,uc,vc->abv", w, kernel, kernel)
    residual = float(np.max(np.abs(w - proj))) if k else 0.0
    if not residual <= tol:
        raise NotClosedError(
            "kernel bracket leaves the kernel (residual %.3e)" % residual)
    constants = np.einsum("abu,uc->abc", w, kernel)
    return IsotropyData(kernel, constants, residual)


@dataclass
class TransformationData:
    """A Lie algebra action: constants plus one vector field per generator."""

    constants: np.ndarray
    fields: list
    chart: Chart = None
    kernel_basis: np.ndarray = None
    normal_basis: np.ndarray = None
    jacobi_tol: float = 1e-12

    def __post_init__(self):
        self.constants = np.asarray(self.constants, dtype=float)
        n = self.constants.shape[0]
        if self.constants.shape != (n, n, n):
            raise ShapeMismatchError("structure constants must be (n, n, n)")
        if len(self.fields) != n:
            raise ShapeMismatchError(
                "need %d action fields, got %d" % (n, len(self.fields)))
        if self.chart is None:
            self.chart = self.fields[0].chart if self.fields else Chart(0)
        for f in self.fields:
            if f.chart != self.chart:
                raise DimensionMismatchError("action fields on mixed charts")
        _check_constants(self.constants, self.jacobi_tol, self.jacobi_tol)

    @property
    def algebra_dim(self):
        return self.constants.shape[0]


def _check_constants(c, anti_tol, jacobi_tol):
    """Raise unless constant structure data are antisymmetric and Jacobi.

    Non-finite entries give a NaN or infinite defect, which fails too. The
    size is checked first: the Jacobi defect tensor has n**4 entries.
    """
    _bounded(c.shape[0], "rank")
    anti = max_abs(c + np.swapaxes(c, 0, 1))
    if not anti <= anti_tol:
        raise AntisymmetryViolationError(
            "constants not antisymmetric (defect %.3e)" % anti)
    worst = max_abs(constants_jacobiator(c))
    if not worst <= jacobi_tol:
        raise JacobiViolationError(
            "structure constants fail Jacobi (defect %.3e)" % worst)


def constants_jacobiator(c):
    """Cyclic Jacobi defect tensor of constant structure data."""
    c = np.asarray(c, dtype=float)
    r = c.shape[0]
    # p[s, t, u, v] = sum_w c[s, t, w] c[w, u, v], one matrix product
    p = (c.reshape(r * r, r) @ c.reshape(r, r * r)).reshape(r, r, r, r)
    j = p + p.transpose(2, 0, 1, 3)
    j += p.transpose(1, 2, 0, 3)
    return j


def _anchor_jacobian(algebroid, p):
    """Anchor partials d_j rho_s^i at p, an (r, m, m) array [s, i, j]."""
    m = algebroid.dimension
    return np.array([[[f.partial(j).evaluate(p) for j in range(m)]
                      for f in row] for row in algebroid.anchor],
                    dtype=float).reshape(algebroid.rank, m, m)


def linearize_at(algebroid, p, tol=1e-9):
    """Isotropy algebra plus its linearized action on the normal space at p.

    The normal space is the quotient of the chart tangent by the anchor
    image, realized by the coordinate directions that extend the image to a
    full basis (taken in order, orthonormalized). The action matrices are
    the anchor Jacobians of the kernel generators compressed to that
    complement.
    """
    p = algebroid.chart.check_point(p)
    iso = isotropy_at(algebroid, p, tol=tol)
    m = algebroid.dimension
    b = algebroid.anchor_matrix_at(p)
    if m:
        _u, sv, vt = np.linalg.svd(b)
        q = list(vt[:_rank(sv)])
        normal = []
        for i in range(m):
            w = np.zeros(m)
            w[i] = 1.0
            for col in q:
                w = w - np.dot(col, w) * col
            norm = np.linalg.norm(w)
            if norm > 1e-9:
                w = w / norm
                q.append(w)
                normal.append(w)
        normal = np.array(normal).T if normal else np.zeros((m, 0))
    else:
        normal = np.zeros((0, 0))

    n_dim = normal.shape[1]
    k = iso.basis.shape[1]
    jac_s = _anchor_jacobian(algebroid, p)
    jac = sum((iso.basis[s, :, None, None] * jac_s[s]
               for s in range(algebroid.rank)), np.zeros((k, m, m)))
    normal_chart = Chart(n_dim)
    fields = []
    for a in range(k):
        act = normal.T @ jac[a] @ normal if n_dim else np.zeros((0, 0))
        comps = []
        for i in range(n_dim):
            entry = ScalarField(normal_chart)
            for j in range(n_dim):
                entry = entry + act[i, j] * ScalarField.coordinate(normal_chart, j)
            comps.append(entry)
        fields.append(VectorField(normal_chart, comps))
    return TransformationData(iso.constants, fields, chart=normal_chart,
                              kernel_basis=iso.basis, normal_basis=normal,
                              jacobi_tol=max(1e-12, 10 * iso.residual))


def _bracket_from_entries(chart, rank, entries):
    """Bracket tensor from the file format's 1-based entry list.

    Each {"s", "t", "u", "value"} entry sets c[s][t][u] and, unless the
    opposite orientation is listed too, c[t][s][u] = -value. Repeated
    entries add up; listed opposite orientations must agree.
    """
    given = {}
    for entry in entries:
        s, t, u = int(entry["s"]) - 1, int(entry["t"]) - 1, int(entry["u"]) - 1
        for idx in (s, t, u):
            if not 0 <= idx < rank:
                raise ShapeMismatchError(
                    "bracket index out of range in %r" % (entry,))
        f = parse_field(chart, str(entry["value"]))
        if (s, t, u) in given:
            given[(s, t, u)] = given[(s, t, u)] + f
        else:
            given[(s, t, u)] = f

    tensor = np.empty((rank, rank, rank), dtype=object)
    tensor[...] = ScalarField(chart)
    for (s, t, u), f in given.items():
        if (t, s, u) in given:
            if not (f + given[(t, s, u)]).is_zero():
                raise AntisymmetryViolationError(
                    "entries (%d,%d,%d) and (%d,%d,%d) are not opposite"
                    % (s + 1, t + 1, u + 1, t + 1, s + 1, u + 1))
            tensor[s, t, u] = f
        else:
            tensor[s, t, u] = f
            tensor[t, s, u] = -f
    return tensor


def _bracket_entries(algebroid):
    """The file format's 1-based entry list of the bracket, s < t."""
    r = algebroid.rank
    return [{"s": s + 1, "t": t + 1, "u": u + 1, "value": f.to_string()}
            for s in range(r) for t in range(s + 1, r) for u in range(r)
            if not (f := algebroid.bracket[s, t, u]).is_zero()]


def catalog_build(kind, params):
    """Construct one of the stock algebroid families.

    kind is one of lie_algebra, tangent, poisson, transformation,
    lie_algebra_bundle. params is a dict; field entries may be expression
    strings, numbers, or ScalarFields.
    """
    if kind == "lie_algebra":
        constants = np.asarray(params["constants"], dtype=float)
        n = constants.shape[0]
        if constants.shape != (n, n, n):
            raise ShapeMismatchError("constants must be (n, n, n)")
        _check_constants(constants, 1e-12, 1e-10)
        chart = Chart(0)
        anchor = [[] for _ in range(n)]
        meta = {"kind": kind, "params": {"constants": constants.tolist()}}
        return build_algebroid(chart, n, anchor, constants, meta)

    if kind == "tangent":
        m = _bounded(params["dimension"], "dimension")
        chart = Chart(m)
        anchor = [[1.0 if i == s else 0.0 for i in range(m)] for s in range(m)]
        bracket = np.zeros((m, m, m))
        meta = {"kind": kind, "params": {"dimension": m}}
        return build_algebroid(chart, m, anchor, bracket, meta)

    if kind == "poisson":
        m = _bounded(params["dimension"], "dimension")
        chart = Chart(m)
        rows = _field_array(chart, params["bivector"], (m, m), "bivector")
        for i in range(m):
            for j in range(i, m):
                if not (rows[i, j] + rows[j, i]).is_zero():
                    raise NotABivectorError(
                        "bivector entry (%d,%d) breaks antisymmetry" % (i, j))
        bracket = np.empty((m, m, m), dtype=object)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    bracket[i, j, k] = rows[i, j].partial(k)
        meta = {"kind": kind, "params": {
            "dimension": m,
            "bivector": [[f.to_string() for f in row] for row in rows]}}
        return build_algebroid(chart, m, rows, bracket, meta)

    if kind == "transformation":
        data = params.get("data")
        if data is None:
            m = _bounded(params["dimension"], "dimension")
            chart = Chart(m)
            constants = np.asarray(params["constants"], dtype=float)
            fields = [VectorField(chart, row) for row in params["fields"]]
            data = TransformationData(constants, fields, chart=chart)
        chart = data.chart
        anchor = [f.comps for f in data.fields]
        meta = {"kind": kind,
                "params": {
                    "dimension": chart.dimension,
                    "constants": data.constants.tolist(),
                    "fields": [[c.to_string() for c in f.comps]
                               for f in data.fields]},
                "data": data}
        return build_algebroid(chart, data.algebra_dim, anchor,
                               data.constants, meta)

    if kind == "lie_algebra_bundle":
        m = _bounded(params["dimension"], "dimension")
        r = _positive_rank(params["rank"])
        chart = Chart(m)
        bracket = params["bracket"]
        if isinstance(bracket, list) and all(isinstance(e, dict)
                                             for e in bracket):
            bracket = _bracket_from_entries(chart, r, bracket)
        a = build_algebroid(chart, r, [[0.0] * m for _ in range(r)], bracket)
        worst = max_abs(max_abs(constants_jacobiator(a.bracket_at(p)))
                        for p in seeded_points(20, m, 0))
        if not worst <= 1e-10:
            raise JacobiViolationError(
                "bracket fails Jacobi pointwise (defect %.3e)" % worst)
        a.metadata = {"kind": kind, "params": {
            "dimension": m, "rank": r, "bracket": _bracket_entries(a)}}
        return a

    raise ValueError("unknown catalog kind %r" % (kind,))
