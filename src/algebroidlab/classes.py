"""Characteristic class computations.

Primary forms come from invariant polynomials of the curvature; secondary
forms come from transgression integrals between two (or three) connections
on E = A + T*M. Combinatorics run over perfect matchings with signs, which
equals the full signed permutation sum divided by the count of redundant
block rearrangements; with that normalization the boundary identities
d(transgression) = primary difference hold without stray factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    AForm,
    _apply_to_matrix,
    _mat_mul,
    _poly_det,
    differential,
)
from .connections import (
    basic_connection,
    bundle_rank,
    connection_matrix,
    flat_metric_connection,
    local_curvature,
)
from .errors import (
    AlgebroidMismatchError,
    BadOrderError,
    ClosednessFailureError,
    ShapeMismatchError,
)
from .fields import ScalarField, perm_sign
from .sampling import max_abs, seeded_points

TWO_PI = 2.0 * math.pi


class InvariantPolynomial:
    """Polarized elementary symmetric function of matrix eigenvalues.

    sigma_k(X) is the coefficient of mu^(q-k) in det(mu I + X/(2*pi)),
    i.e. the sum of principal k-minors of X/(2*pi). The evaluator is the
    full polarization, symmetric and Ad-invariant.
    """

    __slots__ = ("k", "q", "_rows", "_cols", "_subsets")

    def __init__(self, k, q):
        k = int(k)
        q = int(q)
        if k < 1 or k > q:
            raise BadOrderError(
                "order must satisfy 1 <= k <= %d, got %d" % (q, k))
        self.k = k
        self.q = q
        combos = np.array(list(itertools.combinations(range(q), k)))
        self._rows = combos[:, :, None]
        self._cols = combos[:, None, :]
        subsets = []
        for size in range(1, k + 1):
            sign = (-1) ** (k - size)
            for subset in itertools.combinations(range(k), size):
                subsets.append((subset, float(sign)))
        self._subsets = subsets

    def sigma(self, x):
        if isinstance(x, np.ndarray) and x.dtype != object:
            minors = np.linalg.det(x[self._rows, self._cols])
            return float(minors.sum()) / TWO_PI ** self.k
        chart = x[0, 0].chart
        total = ScalarField(chart)
        for combo in itertools.combinations(range(self.q), self.k):
            rows = [[x[i, j] for j in combo] for i in combo]
            total = total + _poly_det(rows)
        return (TWO_PI ** -self.k) * total

    def __call__(self, *mats):
        if len(mats) != self.k:
            raise ShapeMismatchError(
                "polynomial of order %d needs %d matrices" % (self.k, self.k))
        total = None
        for subset, sign in self._subsets:
            acc = mats[subset[0]]
            for i in subset[1:]:
                acc = acc + mats[i]
            term = sign * self.sigma(acc)
            total = term if total is None else total + term
        return (1.0 / math.factorial(self.k)) * total


def invariant_polynomial(k, q):
    return InvariantPolynomial(k, q)


# ---------------------------------------------------------------- matrices

def _to_numeric(mat):
    out = np.zeros(mat.shape)
    for idx in np.ndindex(*mat.shape):
        out[idx] = mat[idx].evaluate(())
    return out


def _omega_frames(conn, numeric):
    mats = [connection_matrix(conn, e)
            for e in conn.algebroid.frame_sections()]
    if numeric:
        mats = [_to_numeric(m) for m in mats]
    return mats


# ----------------------------------------------------- matching enumeration

def _matchings(items):
    items = list(items)
    if not items:
        yield ()
        return
    x = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _matchings(rest):
            yield ((x, items[i]),) + sub


# --------------------------------------------------------------- primaries

def chern_weil(algebroid, conn, poly):
    """Primary characteristic form of order k as a 2k-form.

    Coefficient on a sorted frame tuple is the signed sum over perfect
    matchings of P applied to the curvature matrices of the pairs; for
    k = 1 this is tr(Omega)/(2*pi). If 2k exceeds the rank the zero form
    is returned with its overflow flag set.
    """
    if conn.algebroid is not algebroid:
        raise AlgebroidMismatchError("connection over a different algebroid")
    if poly.q != conn.q:
        raise ShapeMismatchError(
            "polynomial on %d by %d matrices, bundle rank %d"
            % (poly.q, poly.q, conn.q))
    k = poly.k
    r = algebroid.rank
    if 2 * k > r:
        out = AForm(algebroid, 2 * k)
        out.overflow = True
        return out
    numeric = algebroid.dimension == 0
    omega = local_curvature(conn)
    pair_mats = {}
    for a in range(r):
        for b in range(a + 1, r):
            mat = omega.coeff((a, b))
            pair_mats[(a, b)] = _to_numeric(mat) if numeric else mat
    memo = {}
    entries = {}
    for key in itertools.combinations(range(r), 2 * k):
        total = None
        for matching in _matchings(key):
            seq = tuple(x for pair in matching for x in pair)
            sgn = perm_sign(seq)
            mkey = tuple(sorted(matching))
            if mkey not in memo:
                memo[mkey] = poly(*[pair_mats[p] for p in matching])
            term = sgn * memo[mkey]
            total = term if total is None else total + term
        if total is not None:
            if numeric:
                total = ScalarField.constant(algebroid.chart, total)
            entries[key] = total
    form = AForm(algebroid, 2 * k, entries)
    form.overflow = False
    return form


# ------------------------------------------------------------ transgression

def _family_curvature(algebroid, omega0, etas, numeric):
    """Curvature of omega0 + sum_i s_i eta_i per frame pair, by monomial.

    Returns {(a, b): {exponents: matrix}} where exponents is one tuple per
    parameter with total degree at most 2.
    """
    r = algebroid.rank
    n = len(etas)
    zero_e = (0,) * n

    def unit(i, p=1):
        e = [0] * n
        e[i] = p
        return tuple(e)

    shape = omega0[0].shape
    if numeric:
        zero = np.zeros(shape)
    else:
        zero = np.empty(shape, dtype=object)
        zero[...] = ScalarField(algebroid.chart)

    def d_term(xs, a, b):
        if numeric:
            return zero
        return (_apply_to_matrix(algebroid.anchor_row(a), xs[b])
                - _apply_to_matrix(algebroid.anchor_row(b), xs[a]))

    def c_term(xs, a, b):
        total = zero
        for u in range(r):
            c = algebroid.bracket[a, b, u]
            if not c.is_zero():
                piece = (c.evaluate(()) if numeric else c) * xs[u]
                total = piece if total is zero else total + piece
        return total

    def comm(x, y):
        return _mat_mul(x, y) - _mat_mul(y, x)

    out = {}
    for a in range(r):
        for b in range(a + 1, r):
            mono = {}
            mono[zero_e] = (d_term(omega0, a, b) + comm(omega0[a], omega0[b])
                            - c_term(omega0, a, b))
            for i, eta in enumerate(etas):
                mono[unit(i)] = (d_term(eta, a, b)
                                 + (comm(eta[a], omega0[b])
                                    + comm(omega0[a], eta[b]))
                                 - c_term(eta, a, b))
                mono[unit(i, 2)] = comm(eta[a], eta[b])
                for j in range(i + 1, n):
                    mixed = tuple(x + y for x, y in zip(unit(i), unit(j)))
                    mono[mixed] = (comm(eta[a], etas[j][b])
                                   + comm(etas[j][a], eta[b]))
            out[(a, b)] = mono
    return out


def _t_integrals(max_d):
    """Moments of t on [0, 1]: the integral of t^d is 1/(d+1)."""
    return [1.0 / (d + 1) for d in range(max_d + 1)]


def _simplex_integrals(max_d):
    """Moments of (s, t) over the triangle s,t >= 0, s+t <= 1.

    The integral of s^i t^j over it is i! j! / (i+j+2)!.
    """
    f = math.factorial
    return {(i, j): f(i) * f(j) / f(i + j + 2)
            for i in range(max_d + 1) for j in range(max_d + 1)}


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
    primary forms. The t-integrand is polynomial, so its moments are
    taken in closed form.
    """
    _check_pair(conn1, conn0, poly)
    a = conn1.algebroid
    k = poly.k
    r = a.rank
    if 2 * k - 1 > r:
        out = AForm(a, 2 * k - 1)
        out.overflow = True
        return out
    numeric = a.dimension == 0
    omega1 = _omega_frames(conn1, numeric)
    omega0 = _omega_frames(conn0, numeric)
    eta = [x - y for x, y in zip(omega1, omega0)]
    entries = {}
    if k == 1:
        for s in range(r):
            value = poly(eta[s])
            entries[(s,)] = ScalarField.constant(a.chart, value) \
                if numeric else value
        form = AForm(a, 1, entries)
        form.overflow = False
        return form

    fam = _family_curvature(a, omega0, [eta], numeric)
    tint = _t_integrals(2 * (k - 1))
    memo = {}
    for key in itertools.combinations(range(r), 2 * k - 1):
        total = None
        for i, head in enumerate(key):
            rest = key[:i] + key[i + 1:]
            for matching in _matchings(rest):
                seq = (head,) + tuple(x for pair in matching for x in pair)
                sgn = perm_sign(seq)
                for powers in itertools.product(range(3), repeat=k - 1):
                    weight = float(tint[sum(powers)]) * sgn
                    mkey = (head, tuple(sorted(zip(matching, powers))))
                    if mkey not in memo:
                        mats = [eta[head]] + [fam[p][(d,)] for p, d
                                              in zip(matching, powers)]
                        memo[mkey] = poly(*mats)
                    term = weight * memo[mkey]
                    total = term if total is None else total + term
        if total is not None:
            entries[key] = ScalarField.constant(a.chart, total) \
                if numeric else total
    form = AForm(a, 2 * k - 1, entries)
    form.overflow = False
    return form


def secondary_triple(algebroid, conn2, conn1, conn0, poly):
    """Two-parameter transgression between three connections.

    Degree 2k-2; its differential ties together the three pairwise
    transgressions. Zero for k = 1.
    """
    _check_pair(conn2, conn0, poly)
    _check_pair(conn1, conn0, poly)
    if conn2.algebroid is not algebroid:
        raise AlgebroidMismatchError("connections over a different algebroid")
    k = poly.k
    if k % 2 == 0:
        raise BadOrderError("only odd orders define secondary data")
    r = algebroid.rank
    degree = 2 * k - 2
    if degree > r or k == 1:
        out = AForm(algebroid, degree)
        out.overflow = degree > r
        return out
    numeric = algebroid.dimension == 0
    omega0 = _omega_frames(conn0, numeric)
    eta1 = [x - y for x, y in zip(_omega_frames(conn1, numeric), omega0)]
    eta2 = [x - y for x, y in zip(_omega_frames(conn2, numeric), omega0)]
    fam = _family_curvature(algebroid, omega0, [eta1, eta2], numeric)
    sint = _simplex_integrals(2 * (k - 2))
    slot_monos = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    memo = {}
    entries = {}
    for key in itertools.combinations(range(r), degree):
        total = None
        for head1, head2 in itertools.permutations(key, 2):
            rest = tuple(x for x in key if x != head1 and x != head2)
            for matching in _matchings(rest):
                seq = (head1, head2) + tuple(x for pair in matching
                                             for x in pair)
                sgn = perm_sign(seq)
                for powers in itertools.product(slot_monos, repeat=k - 2):
                    ds = sum(p[0] for p in powers)
                    dt = sum(p[1] for p in powers)
                    weight = sgn * sint[(ds, dt)]
                    mkey = (head1, head2, tuple(sorted(zip(matching, powers))))
                    if mkey not in memo:
                        mats = [eta1[head1], eta2[head2]]
                        mats += [fam[p][e] for p, e in zip(matching, powers)]
                        memo[mkey] = poly(*mats)
                    term = weight * memo[mkey]
                    total = term if total is None else total + term
        if total is not None:
            entries[key] = ScalarField.constant(algebroid.chart, total) \
                if numeric else total
    form = AForm(algebroid, degree, entries)
    form.overflow = False
    return form


# ------------------------------------------------------------- secondaries

@dataclass
class CocycleSection:
    """Odd-degree form with its construction metadata."""

    form: AForm
    order: int
    closedness_residual: float
    connections: tuple = ()
    overflow: bool = False


def _closedness_residual(form, n_points=20, seed=0):
    d = differential(form)
    if not d.coeffs:
        return 0.0
    pts = seeded_points(n_points, form.algebroid.dimension, seed)
    return max_abs(f.evaluate(tuple(p))
                      for f in d.coeffs.values() for p in pts)


def secondary_class(algebroid, k):
    """Secondary class representative m_k from the canonical connections."""
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise BadOrderError("secondary classes need odd positive order")
    q = bundle_rank(algebroid, "E")
    poly = InvariantPolynomial(k, q)
    if 2 * k - 1 > algebroid.rank:
        form = AForm(algebroid, 2 * k - 1)
        form.overflow = True
        return CocycleSection(form, k, 0.0,
                              ("basic", "flat_metric"), overflow=True)
    conn1 = basic_connection(algebroid)
    conn0 = flat_metric_connection(algebroid)
    form = transgression_form(conn1, conn0, poly)
    residual = _closedness_residual(form)
    if not residual <= 1e-7:
        raise ClosednessFailureError(
            "secondary class is not closed (residual %.3e)" % residual)
    return CocycleSection(form, k, residual, ("basic", "flat_metric"))


def modular_cocycle(algebroid):
    """Degree-1 cocycle pairing the bracket trace with the anchor divergence."""
    a = algebroid
    entries = {}
    for s in range(a.rank):
        total = ScalarField(a.chart)
        for u in range(a.rank):
            total = total + a.bracket[s, u, u]
        for i in range(a.dimension):
            total = total + a.anchor[s][i].partial(i)
        entries[(s,)] = total
    form = AForm(a, 1, entries)
    return CocycleSection(form, 1, _closedness_residual(form), ("basic",))


def modular_values(algebroid, point, weight=None):
    """Modular coefficients at a point, for an optionally rescaled section.

    Rescaling the trivializing volume section by a polynomial shifts each
    coefficient by (anchor derivative of the weight) / weight.
    """
    p = algebroid.chart.check_point(point)
    theta = modular_cocycle(algebroid).form
    out = np.zeros(algebroid.rank)
    for s in range(algebroid.rank):
        out[s] = theta.coeff((s,)).evaluate(p)
        if weight is not None:
            w = weight.evaluate(p)
            out[s] += algebroid.anchor_row(s).apply(weight).evaluate(p) / w
    return out


def modular_theorem_check(algebroid, points=None, n_points=20, seed=0):
    """Max deviation between the order-1 secondary class and theta/(2*pi)."""
    if points is None:
        points = seeded_points(n_points, algebroid.dimension, seed)
    pts = np.asarray(points, dtype=float).reshape(
        len(points), algebroid.dimension)
    m1 = secondary_class(algebroid, 1)
    theta = modular_cocycle(algebroid)
    worst = max_abs(m1.form.coeff((s,)).evaluate(tuple(p))
                       - theta.form.coeff((s,)).evaluate(tuple(p)) / TWO_PI
                       for p in pts for s in range(algebroid.rank))
    return {"max_deviation": worst,
            "n_points": int(pts.shape[0]),
            "closedness_residual": m1.closedness_residual}


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


def transformation_m1(data):
    """Order-1 class of an action: bracket trace plus anchor divergence."""
    n = data.algebra_dim
    chart = data.chart
    out = []
    for s in range(n):
        total = ScalarField.constant(chart, float(np.trace(data.constants[s])))
        for i in range(chart.dimension):
            total = total + data.fields[s].comps[i].partial(i)
        out.append((1.0 / TWO_PI) * total)
    return out
