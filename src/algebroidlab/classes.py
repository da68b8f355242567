"""Characteristic class computations.

Primary forms come from invariant polynomials of the curvature; secondary
forms come from transgression integrals between two (or three) connections
on E = A + T*M. All three are one integral over the n-simplex, n = 0, 1, 2,
of P(eta_1, ..., eta_n, F, ..., F), where eta_i is the difference of
connection i and the base connection and F is the curvature of the family
base + sum_i t_i eta_i. P is the cycle-trace polarization of sigma_k, a
signed sum over permutations of products of traces of the matrix words
along their cycles. Combinatorics run over perfect matchings with
signs, which equals the full signed permutation sum divided by the count
of redundant block rearrangements; with that normalization the boundary
identities d(transgression) = primary difference hold without stray
factors. The simplex moments are exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import AForm, _mat_mul, differential
from .connections import (
    _family_curvature,
    _frame_matrices,
    basic_connection,
    bundle_rank,
    flat_metric_connection,
)
from .errors import (
    AlgebroidMismatchError,
    BadOrderError,
    ClosednessFailureError,
    ShapeMismatchError,
)
from .fields import ScalarField, dot, perm_sign
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
    head = functools.reduce(_mat_mul, mats[:-1])
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


def invariant_polynomial(k, q):
    return InvariantPolynomial(k, q)


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


# ------------------------------------------------------------------ engine

@functools.lru_cache(maxsize=None)
def _simplex_moment(exps):
    """Integral of prod_i t_i^e_i over the standard n-simplex, n = len(exps).

    It is prod_i e_i! / (sum_i e_i + n)!: 1 for n = 0, 1/(d+1) on [0, 1]
    and i! j! / (i+j+2)! on the triangle.
    """
    f = math.factorial
    return math.prod(f(e) for e in exps) / f(sum(exps) + len(exps))


def _transgress(algebroid, conn0, conns, poly):
    """Integral over the n-simplex of P(eta_1, ..., eta_n, F, ..., F).

    n = len(conns), eta_i = omega(conns[i]) - omega(conn0), and F is the
    curvature of omega(conn0) + sum_i t_i eta_i. The form has degree
    2k - n: on a sorted frame tuple, the eta_i take ordered heads and the
    other indices are perfectly matched into curvature slots, each slot
    one t-monomial of F; a term weighs its sign times the simplex moment
    of its t-monomial. Degree above the rank gives the zero form with its
    overflow flag set.
    """
    n = len(conns)
    k = poly.k
    r = algebroid.rank
    degree = 2 * k - n
    if degree > r or k < n:
        out = AForm(algebroid, degree)
        out.overflow = degree > r
        return out
    numeric = algebroid.dimension == 0
    omega0 = _frame_matrices(conn0, numeric)
    etas = [[x - y for x, y in zip(_frame_matrices(c, numeric), omega0)]
            for c in conns]
    fam = _family_curvature(algebroid, omega0, etas, numeric) \
        if k > n else None
    monos = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    entries = {}
    for key in itertools.combinations(range(r), degree):
        total = None
        for heads in itertools.permutations(key, n):
            rest = [x for x in key if x not in heads]
            head_mats = [eta[h] for eta, h in zip(etas, heads)]
            for matching in _matchings(rest):
                sgn = perm_sign(heads + tuple(x for pair in matching
                                              for x in pair))
                for powers in itertools.product(monos, repeat=k - n):
                    exps = tuple(sum(p[i] for p in powers) for i in range(n))
                    mats = head_mats + [fam[p][e]
                                        for p, e in zip(matching, powers)]
                    term = sgn * _simplex_moment(exps) * poly(*mats)
                    total = term if total is None else total + term
        entries[key] = ScalarField.constant(algebroid.chart, total) \
            if numeric else total
    form = AForm(algebroid, degree, entries)
    form.overflow = False
    return form


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
    """Max deviation between the order-1 secondary class and theta/(2*pi).

    The dict also carries the two compared cocycles, as "m1" and "theta".
    """
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
