"""Characteristic class computations.

Primary forms come from invariant polynomials of the curvature; secondary
forms come from transgression integrals between two (or three) connections
on E = A + T*M. All three are one integral over the n-simplex, n = 0, 1, 2,
of P(eta_1, ..., eta_n, F, ..., F), where eta_i is the difference of
connection i and the base connection and F is the curvature of the family
base + sum_i t_i eta_i. The engine computes it with Quillen's
superconnection trick in the exterior algebra on the frame covectors and one
odd parameter eps_i per eta_i. A matrix-valued form is one float array over
bitmasks of those generators and monomials in t and the chart coordinates,
on a chart as over a point; G = F + sum_i eps_i eta_i is even, so sigma_k(G)
follows from the power sums tr(G^j) by Newton's identities, and its
eps_1...eps_n component gives the integrand, normalized so that the boundary
identities d(transgression) = primary difference hold without stray factors.
The simplex moments of the t-monomials are exact. InvariantPolynomial, the
cycle-trace polarization of sigma_k, stays public and serves as an
independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebroid import _certificate
from .calculus import AForm, _mat_dot, differential
from .connections import (
    _BLOCK,
    _family_curvature,
    basic_connection,
    bundle_rank,
    flat_metric_connection,
)
from .errors import (
    AlgebroidMismatchError,
    BadOrderError,
    ClosednessFailureError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .fields import ScalarField, _join, _split, _split_values, dot, perm_sign
from .sampling import max_abs, seeded_points

TWO_PI = 2.0 * math.pi


def _cycles(perm):
    """Cycles of a permutation of range(n), each starting at its least entry."""
    seen = set()
    out = []
    for start in range(len(perm)):
        i, cycle = start, []
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i]
        if cycle:
            out.append(tuple(cycle))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _cycle_table(k):
    """(sign, cycles) of each permutation of range(k), and all their cycles."""
    perms = tuple((perm_sign(p), _cycles(p))
                  for p in itertools.permutations(range(k)))
    return perms, frozenset(c for _, cycles in perms for c in cycles)


def _cycle_trace(mats):
    """tr(X_1 X_2 ... X_m); the last product is summed inside the trace."""
    if len(mats) == 1:
        return np.trace(mats[0])
    head = functools.reduce(lambda x, y: _mat_dot([(x, y)]), mats[:-1])
    last = mats[-1].T
    if head.dtype == object and last.dtype == object:
        # the terms in C order, as numpy's sum of the product adds them
        return dot(head.flat[0].chart, zip(head.flat, last.flat))
    return (head * last).sum()


class InvariantPolynomial:
    """Polarized elementary symmetric function of matrix eigenvalues.

    sigma_k(X) is the coefficient of mu^(q-k) in det(mu I + X/(2*pi)).
    Its polarization is the cycle-trace sum

        P(X_1, ..., X_k) = (2 pi)^-k / k! * sum over s in S_k of
                           sgn(s) * prod over cycles c of s of
                           tr(prod_{i in c} X_i),

    symmetric, multilinear and Ad-invariant, with sigma(X) = P(X, ..., X).
    Float and field matrices take the same route.
    """

    __slots__ = ("k", "q")

    def __init__(self, k, q):
        k = int(k)
        q = int(q)
        if k < 1 or k > q:
            raise BadOrderError(
                "order must satisfy 1 <= k <= %d, got %d" % (q, k))
        self.k = k
        self.q = q

    def sigma(self, x):
        return self(*(x,) * self.k)

    def __call__(self, *mats):
        if len(mats) != self.k:
            raise ShapeMismatchError(
                "polynomial of order %d needs %d matrices" % (self.k, self.k))
        perms, words = _cycle_table(self.k)
        traces = {c: _cycle_trace([mats[i] for i in c]) for c in words}
        total = 0.0
        for sign, cycles in perms:
            term = math.prod((traces[c] for c in cycles[1:]),
                             start=traces[cycles[0]])
            total = total + term if sign > 0 else total - term
        return (TWO_PI ** -self.k / math.factorial(self.k)) * total


# ------------------------------------------------------------------ engine
#
# The engine works in the exterior algebra on N = r + n generators: the r
# frame covectors, then one odd parameter eps_i per eta_i. A form of grade
# 2j is a float array X[mask, mono, ...] over the masks that _level keeps
# and the monomials mono = c * n_t + t: c indexes the chart monomials of
# level j (_check_work), t the n_t monomials in t (_monomials). The
# trailing axes are (q, q) for a matrix-valued form, none for a scalar one.

_MAX_WORK = 1 << 26   # entries of one engine array, or table steps


@functools.lru_cache(maxsize=None)
def _simplex_moment(exps):
    """Integral of prod_i t_i^e_i over the standard n-simplex, n = len(exps).

    It is prod_i e_i! / (sum_i e_i + n)!: 1 for n = 0, 1/(d+1) on [0, 1]
    and i! j! / (i+j+2)! on the triangle.
    """
    f = math.factorial
    return math.prod(f(e) for e in exps) / f(sum(exps) + len(exps))


@functools.lru_cache(maxsize=None)
def _level(r, n, k, j):
    """Bitmasks of the grade-2j subsets that can reach the top grade 2k.

    Each factor of G holds at most one eps, so a product of j factors that
    the k - j factors still to come can complete to every eps bit holds
    between n - (k - j) and min(j, n) of them; at j = k that is all n. The
    subsets come in lexicographic order.
    """
    lo, hi = max(0, n - k + j), min(j, n)
    return tuple(sum(1 << x for x in c)
                 for c in itertools.combinations(range(r + n), 2 * j)
                 if lo <= sum(x >= r for x in c) <= hi)


def _level_size(r, n, k, j):
    """len(_level(r, n, k, j)), counted without building the masks."""
    return sum(math.comb(r, 2 * j - e) * math.comb(n, e)
               for e in range(max(0, n - k + j), min(j, n) + 1))


def _check_work(r, n, k, q, keys):
    """Refuse an engine run above _MAX_WORK and return the sorted chart
    monomials of each level j <= k: keys, those of G, then the exponent
    sums of j of them. Bounded are the largest array in entries, a power
    G^j (j <= ceil(k/2), (q, q) per mask and monomial) or a scalar form of
    grade up to 2k, and the table steps: per pair of levels ja + jb <= k,
    all of which Newton's identities wedge, the candidates of _wedge (mask
    pairs by chart-monomial pairs by t-monomial pairs), and one per sum
    that builds a level. A level counts one chart monomial until it is
    built, and it is built only while the steps allow.
    """
    sizes = [_level_size(r, n, k, j) for j in range(k + 1)]
    masks = [(sizes[a] * sizes[b], a, b)
             for a in range(1, k) for b in range(1, k - a + 1)]
    t_pairs = math.comb(2 * k, 2 * n)   # degree <= 2(k - n) in 2n variables
    steps = t_pairs * sum(s for s, _, _ in masks)
    charts = [None, sorted(keys)]
    while len(charts) <= k and steps <= _MAX_WORK and (
            steps := steps + len(charts[-1]) * len(keys)) <= _MAX_WORK:
        charts.append(sorted({tuple(map(operator.add, e, f))
                              for e in charts[-1] for f in keys}))
    if len(charts) > k:
        steps += t_pairs * sum(s * (len(charts[a]) * len(charts[b]) - 1)
                               for s, a, b in masks)
    entries = math.comb(2 * k - n, n) * max(
        sizes[j] * (len(charts[j]) if j < len(charts) else 1)
        * (q * q if 2 * j <= k + 1 else 1) for j in range(1, k + 1))
    if max(entries, steps) > _MAX_WORK:
        raise ShapeMismatchError(
            "order %d on rank %d with %d connection(s) needs arrays of %d "
            "entries and %d table steps, above the limit of %d"
            % (k, r, n + 1, entries, steps, _MAX_WORK))
    return charts


@functools.lru_cache(maxsize=None)
def _wedge_table(r, n, k, ja, jb):
    """(ia, ib, io, sign) over the disjoint pairs of a level-ja mask A and a
    level-jb mask B whose union is kept at level ja + jb.

    e^A ^ e^B = sign e^(A | B), sign the parity of the pairs a in A, b in B
    with a > b; io indexes A | B at its level.
    """
    where = {m: i for i, m in enumerate(_level(r, n, k, ja + jb))}
    rows = []
    for ia, a in enumerate(_level(r, n, k, ja)):
        for ib, b in enumerate(_level(r, n, k, jb)):
            io = None if a & b else where.get(a | b)
            if io is not None:
                inversions = sum((a >> y).bit_count()
                                 for y in range(r + n) if b >> y & 1)
                rows.append((ia, ib, io, -1 if inversions & 1 else 1))
    table = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    table.flags.writeable = False   # shared by every caller of the cache
    return tuple(table)


def _sum_pairs(xs, ys, zs):
    """(i, j, l) over the pairs xs[i], ys[j] whose exponent sum is zs[l]."""
    where = {e: i for i, e in enumerate(zs)}
    rows = [(i, j, where[g]) for i, e in enumerate(xs)
            for j, f in enumerate(ys)
            if (g := tuple(map(operator.add, e, f))) in where]
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T


@functools.lru_cache(maxsize=None)
def _monomials(n, top):
    """Monomials in t_1..t_n of degree <= top, the constant first, and the
    pairs (ta, tb, to) of them whose product stays within the degree."""
    monos = tuple(e for e in itertools.product(range(top + 1), repeat=n)
                  if sum(e) <= top)
    table = _sum_pairs(monos, monos, monos)
    table.flags.writeable = False   # shared by every caller of the cache
    return monos, tuple(table)


def _pairs(tpairs, n_t, xa, xb, xo):
    """(pa, pb, po): the t pairs (ta, tb, to) by the pairs of chart
    monomials of xa and xb, landing on their sum in xo, as monomial indices
    c * n_t + t; with one chart monomial, as over a point, the t pairs."""
    if len(xo) == 1:
        return tpairs
    return tuple((c[:, None] * n_t + t).ravel()
                 for c, t in zip(_sum_pairs(xa, xb, xo), tpairs))


def _wedge(x, y, table, pairs, shape, kind):
    """Wedge of two forms through a _wedge_table and the monomial pairs of
    _pairs, into a new form of the given (masks, monomials) shape.

    Adds sign * (x[A, u] kind y[B, v]) at (A | B, uv), where kind is "mat"
    (the matrix product), "trace" (its trace) or "scalar". A trace or
    scalar wedge of a form with itself is summed over A < B and doubled:
    even forms commute, so (A, B) and (B, A) give the same term. Products
    with a zero block are skipped, the rest taken in blocks of _BLOCK.
    """
    fold = kind != "mat" and x is y
    half = table[0] < table[1] if fold else slice(None)
    ia, ib, io, sign = (z[half] for z in table)
    pa, pb, po = pairs
    nzx, nzy = ((z != 0).reshape(z.shape[:2] + (-1,)).any(axis=2)
                for z in (x, y))
    row, pair = np.nonzero(nzx[ia[:, None], pa] & nzy[ib[:, None], pb])
    dest = io[row] * shape[1] + po[pair]
    xs = ia[row] * x.shape[1] + pa[pair]
    ys = ib[row] * y.shape[1] + pb[pair]
    sign = sign[row]
    xf, yf = (z.reshape((-1,) + z.shape[2:]) for z in (x, y))
    tail = x.shape[2:] if kind == "mat" else ()
    out = np.zeros(shape + tail)
    step = max(1, _BLOCK // xf[0].size)
    flat, width = out.reshape(-1), math.prod(tail)
    cols = np.arange(width)
    for lo in range(0, len(dest), step):
        cut = slice(lo, lo + step)
        a, b = xf[xs[cut]], yf[ys[cut]]
        if kind == "mat":
            v = a @ b
        elif kind == "trace":
            v = (a * b.transpose(0, 2, 1)).sum(axis=(1, 2))
        else:
            v = a * b
        v *= sign[cut].reshape((-1,) + (1,) * (v.ndim - 1))
        # numpy's fast 1-D add.at; each entry adds its terms in row order
        np.add.at(flat, (dest[cut, None] * width + cols).ravel(), v.ravel())
    return 2.0 * out if fold else out


def _transgress(algebroid, conn0, conns, poly):
    """Integral over the n-simplex of P(eta_1, ..., eta_n, F, ..., F).

    n = len(conns), eta_i = omega(conns[i]) - omega(conn0), and F is the
    curvature of omega(conn0) + sum_i t_i eta_i, a polynomial in t. With one
    odd generator eps_i per eta_i, G = F + sum_i eps_i eta_i is an even
    matrix-valued 2-form, so sigma_k(G) follows from the power sums
    tr(G^j) by Newton's identities; its eps_1...eps_n component on a sorted
    frame tuple is k! (-1)^(n(n+1)/2) times the coefficient of the form.
    Only masks that can reach that component are kept, t is carried up to
    degree 2(k - n), and each t-monomial is integrated by its exact simplex
    moment. The chart monomials of F and the etas ride on the monomial
    axis, and only the integrated values are joined into fields. The form
    has degree 2k - n; degree above the rank gives the zero form with its
    overflow flag set.
    """
    n, k, r = len(conns), poly.k, algebroid.rank
    degree = 2 * k - n
    if degree > r or k < n:
        out = AForm._of(algebroid, degree, {})
        out.overflow = degree > r
        return out
    # the bound without the chart (over a point, all of it) comes first
    charts = _check_work(r, n, k, poly.q, [(0,) * algebroid.dimension])
    omega0 = conn0._frame_matrices()
    etas = [{e: w.get(e, 0.0) - omega0.get(e, 0.0)
             for e in sorted(w.keys() | omega0.keys())}
            for w in (c._frame_matrices() for c in conns)]
    fam = _family_curvature(algebroid, omega0, etas) if k > n else {}
    if algebroid.dimension:
        charts = _check_work(r, n, k, poly.q,
                             set().union(*fam.values(), *etas))
    monos, tpairs = _monomials(n, 2 * (k - n))
    n_t = len(monos)
    # the block of chart monomial e starts at its index times n_t
    at = {e: i * n_t for i, e in enumerate(charts[1])}
    masks = _level(r, n, k, 1)
    g = np.zeros((len(masks), len(at) * n_t, poly.q, poly.q))
    # the masks below 1 << r are the frame pairs a < b, in order
    frame = [b for b, mask in enumerate(masks) if mask < 1 << r]
    for t, parts in fam.items():
        for e, mats in parts.items():
            g[frame, at[e] + monos.index(t)] = mats
    for b, mask in enumerate(masks):
        s, t = (x for x in range(r + n) if mask >> x & 1)
        if t >= r:
            # eps_i ^ eta_i = -sum_s eta_i[s] e^s ^ eps_i
            for e, w in etas[t - r].items():
                g[b, at[e]] = -w[s]
    tables = {}

    def wedge(x, ja, y, jb, kind):
        if (ja, jb) not in tables:
            tables[ja, jb] = (
                _wedge_table(r, n, k, ja, jb),
                _pairs(tpairs, n_t, charts[ja], charts[jb], charts[ja + jb]),
                (len(_level(r, n, k, ja + jb)), len(charts[ja + jb]) * n_t))
        return _wedge(x, y, *tables[ja, jb], kind)

    # G^j up to j = ceil(k/2), then p_j = tr(G^(j - j//2) ^ G^(j//2))
    powers = [None, g]
    for j in range(2, (k + 1) // 2 + 1):
        powers.append(wedge(powers[-1], j - 1, g, 1, "mat"))
    sums = [None]
    for j in range(1, k + 1):
        if j < len(powers):
            sums.append(np.trace(powers[j], axis1=2, axis2=3))
        else:
            a, b = j - j // 2, j // 2
            sums.append(wedge(powers[a], a, powers[b], b, "trace"))
    # Newton's identities: m e_m = sum_{j=1..m} (-1)^(j-1) e_(m-j) p_j
    elem = [None]
    for m in range(1, k + 1):
        acc = sums[m] if m % 2 else -sums[m]
        for j in range(1, m):
            term = wedge(elem[m - j], m - j, sums[j], j, "scalar")
            acc = acc + term if j % 2 else acc - term
        elem.append(acc if m == 1 else acc * (1.0 / m))
    values = elem[k].reshape(-1, n_t) @ [_simplex_moment(e) for e in monos]
    scale = TWO_PI ** -k / math.factorial(k) * (-1 if n % 4 in (1, 2) else 1)
    values = (scale * values).reshape(-1, len(charts[k]))
    fields = _join(algebroid.chart, dict(zip(charts[k], values.T)))
    return AForm._of(algebroid, degree, {
        tuple(x for x in range(r) if mask >> x & 1): f
        for mask, f in zip(_level(r, n, k, k), fields) if f.coeffs})


def chern_weil(algebroid, conn, poly):
    """Primary characteristic form of order k as a 2k-form.

    It is P(F, ..., F) of the curvature F, computed by the exterior-algebra
    engine of _transgress (the n = 0 case); for k = 1 this is
    tr(F)/(2*pi). If 2k exceeds the rank the zero form is returned with its
    overflow flag set.
    """
    if conn.algebroid is not algebroid:
        raise AlgebroidMismatchError("connection over a different algebroid")
    if poly.q != conn.q:
        raise ShapeMismatchError(
            "polynomial on %d by %d matrices, bundle rank %d"
            % (poly.q, poly.q, conn.q))
    return _transgress(algebroid, conn, (), poly)


def _check_pair(conn1, conn0, poly):
    if conn1.algebroid is not conn0.algebroid:
        raise AlgebroidMismatchError("connections over different algebroids")
    if conn1.bundle != conn0.bundle:
        raise ShapeMismatchError("connections live on different bundles")
    if poly.q != conn1.q:
        raise ShapeMismatchError(
            "polynomial size %d does not match bundle rank %d"
            % (poly.q, conn1.q))


def transgression_form(conn1, conn0, poly):
    """Difference form lambda^{1,0}(P) between two connections.

    Degree 2k-1; its differential equals the difference of the two
    primary forms.
    """
    _check_pair(conn1, conn0, poly)
    return _transgress(conn1.algebroid, conn0, (conn1,), poly)


def secondary_triple(algebroid, conn2, conn1, conn0, poly):
    """Two-parameter transgression between three connections.

    Degree 2k-2; its differential ties together the three pairwise
    transgressions. Zero for k = 1.
    """
    _check_pair(conn2, conn0, poly)
    _check_pair(conn1, conn0, poly)
    if conn2.algebroid is not algebroid:
        raise AlgebroidMismatchError("connections over a different algebroid")
    if poly.k % 2 == 0:
        raise BadOrderError("only odd orders define secondary data")
    return _transgress(algebroid, conn0, (conn1, conn2), poly)


# ------------------------------------------------------------- secondaries

@dataclass
class CocycleSection:
    """Odd-degree form with its construction metadata."""

    form: AForm
    order: int
    closedness_residual: float
    connections: tuple = ()
    overflow: bool = False


def _closedness_residual(form):
    """The certificate of d(form): its largest sum of absolute coefficients,
    which bounds d(form) on [-1, 1]^m; over a point, its largest value."""
    d = differential(form)
    with np.errstate(over="ignore"):
        return _certificate(_split(form.algebroid.chart, np.array(
            list(d.coeffs.values()), dtype=object)).values())


def secondary_class(algebroid, k):
    """Secondary class representative m_k from the canonical connections.
    Above the rank it is the zero form with its overflow flag, and no
    polynomial is built: over the zero bundle over a point, E has rank 0."""
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise BadOrderError("secondary classes need odd positive order")
    if 2 * k - 1 > algebroid.rank:
        form = AForm._of(algebroid, 2 * k - 1, {})
        form.overflow = True
    else:
        form = transgression_form(
            basic_connection(algebroid), flat_metric_connection(algebroid),
            InvariantPolynomial(k, bundle_rank(algebroid, "E")))
    residual = _closedness_residual(form)
    if not residual <= 1e-7:
        raise ClosednessFailureError(
            "secondary class is not closed (residual %.3e)" % residual)
    return CocycleSection(form, k, residual, ("basic", "flat_metric"),
                          overflow=form.overflow)


def modular_cocycle(algebroid):
    """Degree-1 cocycle pairing the bracket trace with the anchor divergence."""
    a = algebroid
    one = ScalarField.constant(a.chart, 1.0)
    entries = {}
    for s in range(a.rank):
        terms = [a.bracket[s, u, u] for u in range(a.rank)] \
            + [a.anchor[s][i].partial(i) for i in range(a.dimension)]
        # times the unit field, dot adds the fields as chained sums would
        entries[(s,)] = dot(a.chart, ((f, one) for f in terms))
    form = AForm(a, 1, entries)
    return CocycleSection(form, 1, _closedness_residual(form), ("basic",))


def modular_values(algebroid, point, weight=None):
    """Modular coefficients at a point, for an optionally rescaled section.

    Rescaling the trivializing volume section by a polynomial shifts each
    coefficient by (anchor derivative of the weight) / weight, so a weight
    that vanishes at the point is refused.
    """
    p = algebroid.chart.check_point(point)
    if weight is not None:
        w = weight.evaluate(p)
        if w == 0.0:
            raise NotInvertibleError("weight vanishes at the point")
    theta = modular_cocycle(algebroid).form
    out = np.zeros(algebroid.rank)
    for s in range(algebroid.rank):
        out[s] = theta.coeff((s,)).evaluate(p)
        if weight is not None:
            out[s] += algebroid.anchor_row(s).apply(weight).evaluate(p) / w
    return out


def modular_theorem_check(algebroid, n_points=20, seed=0):
    """Max deviation between the order-1 secondary class and theta/(2*pi).

    The dict also carries the two compared cocycles, as "m1" and "theta".
    """
    pts = seeded_points(n_points, algebroid.dimension, seed)
    m1 = secondary_class(algebroid, 1)
    theta = modular_cocycle(algebroid)
    pairs = np.array([(m1.form.coeff((s,)), theta.form.coeff((s,)))
                      for s in range(algebroid.rank)]).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _split_values(_split(algebroid.chart, pairs), pts)
        worst = max_abs(v[..., 0] - v[..., 1] / TWO_PI)
    return {"max_deviation": worst,
            "n_points": int(pts.shape[0]),
            "closedness_residual": m1.closedness_residual,
            "m1": m1, "theta": theta}


def lie_algebra_secondary(constants, k):
    """Brute-force odd cocycle values from structure constants alone.

    Alternating sum over all permutations of trace words in the adjoint
    representation, divided by (2*pi)^k. Serves as an independent check
    of the transgression pipeline on algebras over a point.
    """
    c = np.asarray(constants, dtype=float)
    n = c.shape[0]
    if c.shape != (n, n, n):
        raise ShapeMismatchError("constants must be (n, n, n)")
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise BadOrderError("only odd positive orders are defined")
    degree = 2 * k - 1
    out = np.zeros((n,) * degree)
    if degree > n:
        return out
    ad = np.transpose(c, (0, 2, 1))  # ad[s][u, t] = c[s, t, u]
    adbr = np.einsum("abu,uij->abij", c, ad)
    scale = TWO_PI ** -k
    for key in itertools.combinations(range(n), degree):
        total = 0.0
        for perm in itertools.permutations(key):
            prod = ad[perm[0]]
            for pos in range(1, degree, 2):
                prod = prod @ adbr[perm[pos], perm[pos + 1]]
            total += perm_sign(perm) * np.trace(prod)
        value = scale * total
        if value == 0.0:
            continue
        for perm in itertools.permutations(range(degree)):
            idx = tuple(key[j] for j in perm)
            out[idx] = perm_sign(idx) * value
    return out
