"""Lie algebroid structure data on a single chart.

An algebroid is stored as an anchor matrix b[s][i] and a bracket tensor
c[s][t][u] of polynomial fields over a chart, relative to a trivializing
frame of rank r. The axiom defects are exact polynomials, computed on
float arrays split by chart monomial (_axiom_defects); validate samples
them, and the bundle build certifies Jacobi from their coefficients.
Pointwise linear algebra (rank, isotropy, linearization) uses numpy.
"""

from __future__ import annotations

import itertools
import operator
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
    _partials,
    _power_overflow,
    _split,
    _split_values,
    _values,
    as_field,
    dot,
)
from .sampling import _MAX_SIZE, max_abs, seeded_points

RANK_CUTOFF = 1e-9
_SAMPLE_BLOCK = 1 << 20   # sampled residual values held at once by validate


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
        return _values(self.comps, p)

    def __repr__(self):
        return "VectorField(%s)" % ", ".join(str(c) for c in self.comps)


def vector_field_bracket(x, y):
    """Commutator [x, y] of two vector fields on the same chart."""
    if x.chart != y.chart:
        raise DimensionMismatchError("vector fields on different charts")
    # component i sums x_j d_j y_i - y_j d_j x_i over j, in that order
    factors = list(zip(x.comps, [-c for c in y.comps]))
    return VectorField(x.chart, [
        dot(x.chart, (pair for j, (xj, nyj) in enumerate(factors)
                      for pair in ((xj, yi.partial(j)), (nyj, xi.partial(j)))))
        for xi, yi in zip(x.comps, y.comps)])


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
        return _values(self.coeffs, p)

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
        self.anchor = anchor      # (r, m) object ndarray of fields
        self.bracket = bracket    # (r, r, r) object ndarray of fields
        self.metadata = dict(metadata or {})

    @property
    def dimension(self):
        return self.chart.dimension

    def frame_sections(self):
        return [Section(self, row) for row in np.eye(self.rank).tolist()]

    def anchor_row(self, s):
        return VectorField(self.chart, self.anchor[s])

    # check_point first: over a point the anchor has no entries to refuse
    # a point of the wrong length
    def anchor_matrix_at(self, p):
        return _values(self.anchor, self.chart.check_point(p))

    def bracket_at(self, p):
        return _values(self.bracket, self.chart.check_point(p))

    def __repr__(self):
        return "LieAlgebroid(m=%d, r=%d)" % (self.dimension, self.rank)


class _Spec(dict):
    """A spec's mapping; a missing key is an error that names the spec."""

    def __init__(self, data, what):
        super().__init__(data)
        self.what = what

    def __missing__(self, key):
        raise ShapeMismatchError("%s: missing key %r" % (self.what, key))


def _integer(n, what):
    """n as an int, refused unless it is an integral number other than a
    bool."""
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) or
                                   isinstance(n, float) and n.is_integer()):
        raise ShapeMismatchError("%s must be an integer, got %r" % (what, n))
    return int(n)


def _bounded(n, what):
    """_integer(n), refused above _MAX_SIZE before anything is allocated."""
    n = _integer(n, what)
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
    # c[s,t,u] + c[t,s,u] is zero when both have the same monomials and
    # each pair of coefficients sums to exactly 0 (inf + -inf does not)
    for s in range(rank):
        for t in range(s, rank):
            for u in range(rank):
                a, b = tensor[s, t, u].coeffs, tensor[t, s, u].coeffs
                if (a or b) and (a.keys() != b.keys()
                                 or any(a[e] + c for e, c in b.items())):
                    raise AntisymmetryViolationError(
                        "c[%d,%d,%d] + c[%d,%d,%d] is not zero"
                        % (s, t, u, t, s, u))
    return LieAlgebroid(chart, rank, rows, tensor, metadata)


def anchor_apply(algebroid, section):
    """Image of a section under the anchor, as a vector field."""
    if section.algebroid is not algebroid:
        raise AlgebroidMismatchError("section of a different algebroid")
    comps = [dot(algebroid.chart, zip(section.coeffs, algebroid.anchor[:, i]))
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
    """Sample the exact axiom residuals and report the maxima.

    The residuals are the defect polynomials of _axiom_defects: the anchor
    must send frame brackets to vector-field commutators (pairs s < t), the
    cyclic Jacobi sum must vanish (triples s < t < u) and the bracket must
    be antisymmetric (pairs s <= t). Each is evaluated at the points,
    n_samples seeded points in [-1, 1]^m unless given, one chart monomial
    at a time through fields._split_values; a point whose monomial
    overflows a double is refused. The points go in blocks of at most
    _SAMPLE_BLOCK sampled values, one kernel pass per block; over a point
    every sample is the point (), evaluated once.
    """
    chart = algebroid.chart
    m = algebroid.dimension
    r = algebroid.rank
    if points is None:
        points = seeded_points(n_samples, m, seed)
    else:
        seed = None
    pts = np.array([chart.check_point(p) for p in points])   # (n, m)
    n_points = len(pts)
    if not n_points:
        raise ValueError("at least one sample point is required")
    if not m:
        pts = pts[:1]
    c = _split(chart, algebroid.bracket)
    rho = _split(chart, algebroid.anchor)
    triples = np.array(list(itertools.combinations(range(r), 3)),
                       dtype=np.int64).reshape(-1, 3)
    entries = [(np.triu_indices(r, 1), m), (tuple(triples.T), r),
               (np.triu_indices(r), r)]
    size = sum(len(idx[0]) * width for idx, width in entries)
    step = max(1, _SAMPLE_BLOCK // max(1, size))
    maxima = []
    for lo in range(0, len(pts), step):
        block = pts[lo:lo + step]
        values = [np.zeros((len(block), len(idx[0]), width))
                  for idx, width in entries]
        with np.errstate(over="ignore", invalid="ignore"):
            for g, *defects in _axiom_defects(c, rho):
                # a monomial whose coefficients are all exactly zero adds
                # nothing and is not evaluated, so a power that overflows
                # cannot make an exact zero NaN (a NaN coefficient is kept)
                terms = [(v, x) for v, d, (idx, _width)
                         in zip(values, defects, entries)
                         if d is not None and (x := d[idx]).any()]
                if not terms:
                    continue
                mono = _split_values({g: np.ones(())}, block)
                if not np.isfinite(mono).all():
                    raise _power_overflow()
                for v, x in terms:
                    v += np.multiply.outer(mono, x)
        maxima.append([max_abs(v) for v in values])
    anchor_res, jacobi_res, anti_res = (max_abs(col) for col in zip(*maxima))
    return ValidationReport(anchor_res, jacobi_res, anti_res,
                            tol, n_points, seed)


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
Linearization = namedtuple(
    "Linearization", ["algebroid", "isotropy", "normal_basis", "jacobi_tol"])


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
    """Kernel of the anchor at p with its induced Lie algebra structure,
    the constants exactly antisymmetric: c[a, b] averaged with -c[b, a]."""
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
    constants = 0.5 * (constants - constants.transpose(1, 0, 2))
    return IsotropyData(kernel, constants, residual)


def constants_jacobiator(c):
    """Cyclic Jacobi defect tensor of constant structure data, the
    (r, r, r, r) jacobi of _axiom_defects over a point; products that
    overflow give inf or NaN entries, without numpy warnings."""
    c = np.asarray(c, dtype=float)
    ((_g, _anchor, jacobi, _anti),) = _axiom_defects({(): c}, {})
    return jacobi


def _axiom_defects(c, rho):
    """The axiom defects of split structure data, one chart monomial at a
    time.

    c is the bracket and rho the anchor split by chart monomial
    (fields._split): {exponents: (r, r, r) or (r, m) float array}. Yields
    (g, anchor, jacobi, anti) for each monomial g that a defect reaches, in
    sorted order, with the x^g coefficient arrays of

        anchor[s, t, i] = c_st^v rho_v^i - rho_s^k d_k rho_t^i
                          + rho_t^k d_k rho_s^i,
        jacobi[s, t, u, w] = the cyclic sum over (s, t, u) of
                             c_st^v c_vu^w - rho_u^k d_k c_st^w,
        anti[s, t, u] = c_st^u + c_ts^u,

    summed over v and k, or None where a defect has no term. A partial
    lowers one exponent and scales by it (_minus_partials); a product is
    one matmul per pair of monomials, landing on the sum of their
    exponents. Products that overflow give inf or NaN entries, without
    numpy warnings. Besides those partials, only the arrays of one
    monomial are held at a time, each the size of a defect at most. Over
    a point the one monomial is () and rho has no terms, so jacobi is one
    matmul and its cyclic sum.
    """
    r = len(next(iter(c.values())))
    rho = {e: x for e, x in rho.items() if x.any()}
    drho = _minus_partials(rho)
    dc = _minus_partials(c) if rho else {}   # only ever taken against rho
    # per monomial g, the products of the anchor and the Jacobi defect that
    # land on it: ("c", a, b) for c_a times rho_b or c_b, ("d", a, b) for
    # rho_a times -d rho_b or -d c_b (summed over the partials' k)
    lands = {g: ([], []) for g in c}
    for which, name, xs, ys in ((0, "c", c, rho), (0, "d", rho, drho),
                                (1, "c", c, c), (1, "d", rho, dc)):
        for a in xs:
            for b in ys:
                g = tuple(map(operator.add, a, b))
                lands.setdefault(g, ([], []))[which].append((name, a, b))

    def anchor_term(name, a, b):
        if name == "c":
            return (c[a].reshape(r * r, r) @ rho[b]).reshape(r, r, -1)
        # -rho_s^k d_k rho_t^i on [s, t, i], less its swap in s and t
        q = (rho[a] @ drho[b]).reshape(r, r, -1)
        return q - q.transpose(1, 0, 2)

    def jacobi_term(name, a, b):
        if name == "c":
            return (c[a].reshape(r * r, r)
                    @ c[b].reshape(r, r * r)).reshape(r, r, r, r)
        # -rho_u^k d_k c_st^w, laid out on [u, s, t, w]: a cyclic shift
        # of (s, t, u), which the cyclic sum below does not see
        return (rho[a] @ dc[b]).reshape(r, r, r, r)

    for g in sorted(lands):
        anchor_lands, jacobi_lands = lands[g]
        with np.errstate(over="ignore", invalid="ignore"):
            anchor = _sum(anchor_term, anchor_lands)
            jacobi = p = _sum(jacobi_term, jacobi_lands)
            if p is not None:
                jacobi = p + p.transpose(2, 0, 1, 3)
                jacobi += p.transpose(1, 2, 0, 3)
            del p
            anti = c[g] + c[g].transpose(1, 0, 2) if g in c else None
        yield g, anchor, jacobi, anti


def _minus_partials(split):
    """{e: (m, size) array} whose row k holds the x^e coefficients of -d_k
    of a split array, flattened: the x^(e + 1_k) coefficients of the
    array, times -(e_k + 1)."""
    out = {}
    for e, x in split.items():
        for k, n in enumerate(e):
            if n:
                d = e[:k] + (n - 1,) + e[k + 1:]
                if d not in out:
                    out[d] = np.zeros((len(e), x.size))
                out[d][k] = -n * x.ravel()
    return out


def _sum(term, args):
    """Sum of term(*a) over the a in args, the first stored, not added to
    zeros; None if args is empty."""
    total = None
    for a in args:
        if total is None:
            total = term(*a)
        else:
            total += term(*a)
    return total


def _certificate(parts):
    """Largest sum of absolute coefficients over the entries of a split
    array of polynomials (any iterable of its arrays, None for none): on
    [-1, 1]^m it bounds every value the polynomials take, so it is at least
    their maximum over any sample there. NaN if a coefficient is NaN."""
    total = _sum(np.abs, ((x,) for x in parts if x is not None))
    return 0.0 if total is None else max_abs(total)


def _check_jacobi(c, tol):
    """Raise unless the bracket c, split by chart monomial ({(): constants}
    for constant data), satisfies Jacobi over a zero anchor up to tol in
    _certificate of its Jacobi defect polynomials, which bounds the defect
    at every point of [-1, 1]^m. A NaN or infinite defect fails too."""
    worst = _certificate(jacobi for _g, _anchor, jacobi, _anti
                         in _axiom_defects(c, {}))
    if not worst <= tol:
        raise JacobiViolationError(
            "bracket fails Jacobi (certified defect %.3e)" % worst)


def _anchor_jacobian(algebroid, p):
    """Anchor partials d_j rho_s^i at p, an (r, m, m) array [s, i, j]."""
    return _values(_partials(algebroid.anchor, algebroid.dimension), p)


def linearize_at(algebroid, p, tol=1e-9):
    """The isotropy algebra at p acting linearly on the normal space there,
    as a Linearization(algebroid, isotropy, normal_basis, jacobi_tol).

    The normal space is the quotient of the chart tangent by the anchor
    image, realized by the coordinate directions that extend the image to a
    full basis (taken in order, orthonormalized): the columns of
    normal_basis. algebroid is the linear transformation algebroid on
    Chart(normal dimension) whose rank is the isotropy dimension: its
    anchor rows are the anchor Jacobians of the kernel generators
    compressed to that complement, its bracket the isotropy constants; at
    a regular point its rank is 0. isotropy is what isotropy_at(algebroid,
    p, tol) returns. Its constants must satisfy Jacobi up to jacobi_tol =
    max(1e-12, 10 * closure residual).
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
    jacobi_tol = max(1e-12, 10 * iso.residual)
    _check_jacobi({(): iso.constants}, jacobi_tol)
    jac_s = _anchor_jacobian(algebroid, p)
    jac = sum((iso.basis[s, :, None, None] * jac_s[s]
               for s in range(algebroid.rank)), np.zeros((k, m, m)))
    chart = Chart(n_dim)
    # row i of the compressed Jacobian holds the coefficients of the normal
    # coordinates in anchor component i
    units = [tuple(e) for e in np.eye(n_dim, dtype=int).tolist()]
    anchor = np.fromiter(
        (ScalarField(chart, dict(zip(units, row)))
         for a in range(k) for row in normal.T @ jac[a] @ normal),
        object, k * n_dim).reshape(k, n_dim)
    bracket = _field_array(chart, iso.constants, (k,) * 3, "constants")
    return Linearization(LieAlgebroid(chart, k, anchor, bracket), iso,
                         normal, jacobi_tol)


def _bracket_from_entries(chart, rank, entries):
    """Bracket tensor from the file format's 1-based entry list.

    Each {"s", "t", "u", "value"} entry sets c[s][t][u] and, unless the
    opposite orientation is listed too, c[t][s][u] = -value. Repeated
    entries add up; listed opposite orientations must agree.
    """
    given = {}
    for entry in entries:
        entry = _Spec(entry, "bracket entry")
        s, t, u = (_bounded(entry[k], "bracket index " + k) - 1 for k in "stu")
        for idx in (s, t, u):
            if not 0 <= idx < rank:
                raise ShapeMismatchError(
                    "bracket index out of range in %r" % (entry,))
        f = as_field(chart, entry["value"])
        given[s, t, u] = given[s, t, u] + f if (s, t, u) in given else f

    tensor = np.empty((rank, rank, rank), dtype=object)
    tensor[...] = ScalarField(chart)
    for (s, t, u), f in given.items():
        tensor[s, t, u] = f
        if (t, s, u) not in given:
            tensor[t, s, u] = -f
        elif not (f + given[t, s, u]).is_zero():
            raise AntisymmetryViolationError(
                "entries (%d,%d,%d) and (%d,%d,%d) are not opposite"
                % (s + 1, t + 1, u + 1, t + 1, s + 1, u + 1))
    return tensor


def _constants(data):
    """Structure constants as an (n, n, n) float array, n the length of
    data, bounded before anything is allocated. Each entry is read as a
    bracket entry is: a number or a constant expression, over Chart(0)."""
    try:
        n = _bounded(len(data), "rank")
    except TypeError:   # a number or another value without a length
        n = 0
    return _split(Chart(0), _field_array(Chart(0), data, (n,) * 3,
                                         "(n, n, n) constants"))[()]


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
    strings, numbers, or ScalarFields. build_algebroid checks that the
    bracket is exactly antisymmetric; then _check_jacobi refuses a bracket
    whose certified Jacobi defect, the largest sum of absolute coefficients
    over the entries of the defect polynomials, is above 1e-10 for
    lie_algebra and lie_algebra_bundle and 1e-12 for the constants of a
    transformation algebroid, whose anchor validate checks.
    """
    params = _Spec(params, "%s params" % (kind,))
    if kind == "lie_algebra":
        constants = _constants(params["constants"])
        n = len(constants)
        meta = {"kind": kind, "params": {"constants": constants.tolist()}}
        a = build_algebroid(Chart(0), n, [[]] * n, constants, meta)
        _check_jacobi({(): constants}, 1e-10)
        return a

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
        bracket = _partials(rows, m)
        meta = {"kind": kind, "params": {
            "dimension": m,
            "bivector": [[f.to_string() for f in row] for row in rows]}}
        return build_algebroid(chart, m, rows, bracket, meta)

    if kind == "transformation":
        m = _bounded(params["dimension"], "dimension")
        chart = Chart(m)
        constants = _constants(params["constants"])
        n = len(constants)
        rows = _field_array(chart, params["fields"], (n, m), "action fields")
        meta = {"kind": kind, "params": {
            "dimension": m, "constants": constants.tolist(),
            "fields": [[f.to_string() for f in row] for row in rows]}}
        a = build_algebroid(chart, n, rows, constants, meta)
        _check_jacobi({(): constants}, 1e-12)
        return a

    if kind == "lie_algebra_bundle":
        m = _bounded(params["dimension"], "dimension")
        r = _positive_rank(params["rank"])
        chart = Chart(m)
        bracket = params["bracket"]
        if isinstance(bracket, list) and all(isinstance(e, dict)
                                             for e in bracket):
            bracket = _bracket_from_entries(chart, r, bracket)
        a = build_algebroid(chart, r, [[0.0] * m for _ in range(r)], bracket)
        _check_jacobi(_split(chart, a.bracket), 1e-10)
        a.metadata = {"kind": kind, "params": {
            "dimension": m, "rank": r, "bracket": _bracket_entries(a)}}
        return a

    raise ValueError("unknown catalog kind %r" % (kind,))
