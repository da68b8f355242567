"""Exterior calculus over an algebroid frame.

Forms are stored on strictly increasing index tuples; other orderings are
resolved by sign on lookup. The differential follows the Cartan convention
with no combinatorial prefactor, and the wedge uses the determinant
(shuffle-sum) convention. Chart forms are forms of the chart's tangent
algebroid (unit anchor, zero bracket), so the same differential is the
de Rham one on them, and the same wedge pulls them back by the anchor.
"""

from __future__ import annotations

import bisect
import functools
import itertools

import numpy as np

from .algebroid import LieAlgebroid
from .errors import (
    AlgebroidMismatchError,
    DimensionMismatchError,
    ShapeMismatchError,
)
from .fields import ScalarField, _field_array, as_field, dot, perm_sign


def _normalize_key(key, bound):
    """Sort an index tuple, returning (sorted_key, sign); sign 0 on repeats."""
    key = tuple(int(i) for i in key)
    for i in key:
        if not 0 <= i < bound:
            raise ShapeMismatchError("form index %d out of range" % i)
    if len(set(key)) != len(key):
        return key, 0
    return tuple(sorted(key)), perm_sign(key)


def _read_entries(algebroid, degree, entries, read, is_zero):
    """(degree, coeffs) of a form from its entries {index tuple: value}.

    The degree must be nonnegative, and each key (an int is a 1-tuple) as
    long as it. Keys are sorted with their sign and values read by read;
    a key with a repeated index drops out, values on one sorted key are
    summed, and those that are zero by is_zero are dropped.
    """
    degree = int(degree)
    if degree < 0:
        raise ShapeMismatchError("form degree must be nonnegative")
    coeffs = {}
    for key, value in (entries or {}).items():
        key = (key,) if isinstance(key, int) else tuple(key)
        if len(key) != degree:
            raise ShapeMismatchError(
                "key %r does not match degree %d" % (key, degree))
        skey, sign = _normalize_key(key, algebroid.rank)
        if sign == 0:
            continue
        value = read(value)
        if sign < 0:
            value = -value
        coeffs[skey] = coeffs[skey] + value if skey in coeffs else value
    return degree, {k: v for k, v in coeffs.items() if not is_zero(v)}


class AForm:
    """Antisymmetric multilinear form on sections, in frame components."""

    __slots__ = ("algebroid", "degree", "coeffs", "overflow")

    def __init__(self, algebroid, degree, entries=None):
        self.algebroid = algebroid
        self.overflow = False
        chart = algebroid.chart
        self.degree, self.coeffs = _read_entries(
            algebroid, degree, entries, lambda v: as_field(chart, v),
            ScalarField.is_zero)

    def coeff(self, key):
        """Signed component on an arbitrary index tuple."""
        skey, sign = _normalize_key(tuple(key), self.algebroid.rank)
        if sign == 0 or skey not in self.coeffs:
            return ScalarField(self.algebroid.chart)
        f = self.coeffs[skey]
        return f if sign > 0 else -f

    def _check_mate(self, other):
        if not isinstance(other, AForm):
            raise TypeError("expected an AForm")
        if other.algebroid is not self.algebroid:
            raise AlgebroidMismatchError("forms over different algebroids")

    def __add__(self, other):
        self._check_mate(other)
        if other.degree != self.degree:
            raise ShapeMismatchError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return AForm(self.algebroid, self.degree, out)

    def __neg__(self):
        return AForm(self.algebroid, self.degree,
                     {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        """Multiply by a scalar field or a number."""
        return AForm(self.algebroid, self.degree,
                     {k: f * v for k, v in self.coeffs.items()})

    def __mul__(self, f):
        return self.scale(f)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        body = ", ".join("%r: %s" % (k, v) for k, v in sorted(self.coeffs.items()))
        return "AForm(degree=%d, {%s})" % (self.degree, body)


def differential(form):
    """Exterior derivative of a frame-component form, Cartan convention.

    On a sorted key s_0 < ... < s_k, with ^ marking a dropped index,

        dw(s_0..s_k) = sum_i (-1)^i #s_i(w(..s_i^..))
            + sum_{i<j} (-1)^(i+j) sum_u c[s_i, s_j, u] w(u, ..s_i^..s_j^..).

    Faces are read straight from the sorted keys of form.coeffs: dropping
    indices keeps a key sorted, and putting u at its place p in the sorted
    rest costs (-1)^p; when u is already there the key repeats an index
    and is in no form. Each output coefficient is one fields.dot.
    """
    a = form.algebroid
    r = a.rank
    k = form.degree
    coeffs = form.coeffs
    anchor = [[(b, -b, i) for i, b in enumerate(row) if b.coeffs]
              for row in a.anchor]
    brackets = {}
    out = {}
    for key in itertools.combinations(range(r), k + 1):
        pairs = []
        for i, s in enumerate(key):
            f = coeffs.get(key[:i] + key[i + 1:])
            if f is not None:
                pairs += [(b if i % 2 == 0 else nb, f.partial(x))
                          for b, nb, x in anchor[s]]
        for i, j in itertools.combinations(range(k + 1), 2):
            st = key[i], key[j]
            if st not in brackets:
                brackets[st] = [(u, c, -c) for u in range(r)
                                if (c := a.bracket[st + (u,)]).coeffs]
            rest = key[:i] + key[i + 1:j] + key[j + 1:]
            for u, c, nc in brackets[st]:
                p = bisect.bisect_left(rest, u)
                f = coeffs.get(rest[:p] + (u,) + rest[p:])
                if f is not None:
                    pairs.append((c if (i + j + p) % 2 == 0 else nc, f))
        total = dot(a.chart, pairs)
        if total.coeffs:
            out[key] = total
    d = AForm(a, k + 1)
    d.coeffs = out   # sorted keys and nonzero fields already
    return d


def wedge(p_form, q_form):
    """Wedge product, shuffle-sum convention with unit coefficients."""
    p_form._check_mate(q_form)
    a = p_form.algebroid
    k, l = p_form.degree, q_form.degree
    out = {}
    for key_p, f in p_form.coeffs.items():
        for key_q, g in q_form.coeffs.items():
            joined = key_p + key_q
            skey, sign = _normalize_key(joined, a.rank)
            if sign == 0:
                continue
            term = f * g
            if sign < 0:
                term = -term
            out[skey] = out[skey] + term if skey in out else term
    return AForm(a, k + l, {k_: v for k_, v in out.items() if not v.is_zero()})


@functools.lru_cache(maxsize=None)
def _tangent(chart):
    """The tangent algebroid of a chart: unit anchor, zero bracket.

    One instance per chart (equal charts share it), so that chart forms
    can be compared and pulled back. Any dimension works, zero included.
    """
    m = chart.dimension
    one = ScalarField.constant(chart, 1.0)
    zero = ScalarField(chart)
    anchor = np.where(np.eye(m, dtype=bool), one, zero)
    return LieAlgebroid(chart, m, anchor,
                        np.full((m, m, m), zero, dtype=object))


def CoordForm(chart, degree, entries=None):
    """A differential form on the chart: a form of its tangent algebroid,
    components on coordinate tuples."""
    return AForm(_tangent(chart), degree, entries)


def anchor_pullback(algebroid, form):
    """Pull a chart form back through the anchor: w_I dx^I goes to w_I
    times the wedge, in the order of I, of rho*dx^i = sum_s rho_s^i e^s."""
    if form.algebroid is not _tangent(algebroid.chart):
        raise DimensionMismatchError("form is not a chart form of this chart")
    dx = [AForm(algebroid, 1, dict(enumerate(column)))
          for column in algebroid.anchor.T]
    one = AForm(algebroid, 0, {(): 1.0})
    out = AForm(algebroid, form.degree)
    for key, f in form.coeffs.items():
        out = out + functools.reduce(wedge, [dx[i] for i in key], one).scale(f)
    return out


class MatrixForm:
    """Matrix-valued form; each component is a q by q grid of fields."""

    __slots__ = ("algebroid", "degree", "size", "coeffs")

    def __init__(self, algebroid, degree, size, entries=None):
        self.algebroid = algebroid
        self.size = size = int(size)
        self.degree, self.coeffs = _read_entries(
            algebroid, degree, entries,
            lambda m: _field_array(algebroid.chart, m, (size, size),
                                   "matrix component"),
            _matrix_is_zero)

    def zero_matrix(self):
        zero = ScalarField(self.algebroid.chart)
        return np.full((self.size, self.size), zero, dtype=object)

    def coeff(self, key):
        skey, sign = _normalize_key(tuple(key), self.algebroid.rank)
        if sign == 0 or skey not in self.coeffs:
            return self.zero_matrix()
        mat = self.coeffs[skey]
        return mat if sign > 0 else -mat


def _matrix_is_zero(mat):
    return all(entry.is_zero() for entry in mat.flat)


def _apply_to_matrix(vf, mat):
    """A vector field applied to every entry of a field matrix."""
    out = np.empty(mat.shape, dtype=object)
    for idx in np.ndindex(*mat.shape):
        out[idx] = vf.apply(mat[idx])
    return out


def _mat_dot(pairs, start=None):
    """start plus the sum of x @ y over the pairs (x, y); a scalar x scales y.

    Float arrays are summed by numpy. Field matrices take one fields.dot
    per output entry, over the pairs in order and the inner index within
    each, so an entry is bit-identical to the chained sum of its products.
    """
    pairs = [(x, y, not isinstance(x, np.ndarray)) for x, y in pairs]
    if pairs[0][1].dtype != object:
        for x, y, scalar in pairs:
            term = x * y if scalar else x @ y
            start = term if start is None else start + term
        return start
    x, y, scalar = pairs[0]
    shape = y.shape if scalar else (x.shape[0], y.shape[1])
    out = np.empty(shape, dtype=object)
    if not out.size:
        return out
    chart = (y if start is None else start).flat[0].chart
    for i, j in np.ndindex(*shape):
        out[i, j] = dot(chart, itertools.chain.from_iterable(
            ((x, y[i, j]),) if scalar else zip(x[i], y[:, j])
            for x, y, scalar in pairs),
            start=None if start is None else start[i, j])
    return out
