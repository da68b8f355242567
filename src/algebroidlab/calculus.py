"""Exterior calculus over an algebroid frame and the dual Poisson structure.

Forms are stored on strictly increasing index tuples; other orderings are
resolved by sign on lookup. The differential follows the Cartan convention
with no combinatorial prefactor, and the wedge uses the determinant
(shuffle-sum) convention.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebroid import VectorField
from .errors import (
    AlgebroidMismatchError,
    DimensionMismatchError,
    ShapeMismatchError,
)
from .fields import Chart, ScalarField, as_field, dot, perm_sign
from .sampling import max_abs


def _normalize_key(key, bound):
    """Sort an index tuple, returning (sorted_key, sign); sign 0 on repeats."""
    key = tuple(int(i) for i in key)
    for i in key:
        if not 0 <= i < bound:
            raise ShapeMismatchError("form index %d out of range" % i)
    if len(set(key)) != len(key):
        return key, 0
    return tuple(sorted(key)), perm_sign(key)


def _poly_det(rows):
    """Determinant of a small square matrix of scalar fields."""
    n = len(rows)
    if n == 0:
        return None
    chart = rows[0][0].chart
    total = ScalarField(chart)
    for perm in itertools.permutations(range(n)):
        term = ScalarField.constant(chart, float(perm_sign(perm)))
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


class AForm:
    """Antisymmetric multilinear form on sections, in frame components."""

    __slots__ = ("algebroid", "degree", "coeffs", "overflow")

    def __init__(self, algebroid, degree, entries=None):
        degree = int(degree)
        if degree < 0:
            raise ShapeMismatchError("form degree must be nonnegative")
        self.algebroid = algebroid
        self.degree = degree
        self.overflow = False
        chart = algebroid.chart
        coeffs = {}
        for key, value in (entries or {}).items():
            key = (key,) if isinstance(key, int) else tuple(key)
            if len(key) != degree:
                raise ShapeMismatchError(
                    "key %r does not match degree %d" % (key, degree))
            skey, sign = _normalize_key(key, algebroid.rank)
            if sign == 0:
                continue
            f = as_field(chart, value)
            if sign < 0:
                f = -f
            if skey in coeffs:
                coeffs[skey] = coeffs[skey] + f
            else:
                coeffs[skey] = f
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
        if degree > algebroid.rank and self.coeffs:
            raise ShapeMismatchError("nonzero form of degree above the rank")

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

    def __call__(self, *sections):
        if len(sections) != self.degree:
            raise ShapeMismatchError(
                "form of degree %d applied to %d sections"
                % (self.degree, len(sections)))
        chart = self.algebroid.chart
        if self.degree == 0:
            return self.coeffs.get((), ScalarField(chart))
        for sec in sections:
            if sec.algebroid is not self.algebroid:
                raise AlgebroidMismatchError("section of a different algebroid")
        total = ScalarField(chart)
        for key, f in self.coeffs.items():
            det = _poly_det([[sec.coeffs[s] for s in key] for sec in sections])
            total = total + f * det
        return total

    def is_zero(self):
        return not self.coeffs

    def max_abs_coeff(self):
        return max_abs(v.max_abs_coeff() for v in self.coeffs.values())

    def __repr__(self):
        body = ", ".join("%r: %s" % (k, v) for k, v in sorted(self.coeffs.items()))
        return "AForm(degree=%d, {%s})" % (self.degree, body)


def differential(form):
    """Exterior derivative of a frame-component form, Cartan convention."""
    a = form.algebroid
    r = a.rank
    k = form.degree
    out = {}
    for key in itertools.combinations(range(r), k + 1):
        total = ScalarField(a.chart)
        for i, s in enumerate(key):
            rest = key[:i] + key[i + 1:]
            f = form.coeff(rest)
            if not f.is_zero():
                term = a.anchor_row(s).apply(f)
                total = total + term if i % 2 == 0 else total - term
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(key[x] for x in range(k + 1) if x != i and x != j)
                sign = (-1) ** (i + j)
                for u in range(r):
                    c = a.bracket[key[i], key[j], u]
                    if c.is_zero():
                        continue
                    f = form.coeff((u,) + rest)
                    if f.is_zero():
                        continue
                    term = c * f
                    total = total + term if sign > 0 else total - term
        if not total.is_zero():
            out[key] = total
    return AForm(a, k + 1, out)


d_A = differential


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


class CoordForm:
    """Differential form on the chart, components on coordinate tuples."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart, degree, entries=None):
        degree = int(degree)
        if degree < 0:
            raise ShapeMismatchError("form degree must be nonnegative")
        self.chart = chart
        self.degree = degree
        coeffs = {}
        for key, value in (entries or {}).items():
            key = (key,) if isinstance(key, int) else tuple(key)
            if len(key) != degree:
                raise ShapeMismatchError(
                    "key %r does not match degree %d" % (key, degree))
            skey, sign = _normalize_key(key, chart.dimension)
            if sign == 0:
                continue
            f = as_field(chart, value)
            if sign < 0:
                f = -f
            coeffs[skey] = coeffs[skey] + f if skey in coeffs else f
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    def coeff(self, key):
        skey, sign = _normalize_key(tuple(key), self.chart.dimension)
        if sign == 0 or skey not in self.coeffs:
            return ScalarField(self.chart)
        f = self.coeffs[skey]
        return f if sign > 0 else -f

    def __call__(self, *fields_):
        if len(fields_) != self.degree:
            raise ShapeMismatchError(
                "form of degree %d applied to %d vector fields"
                % (self.degree, len(fields_)))
        if self.degree == 0:
            return self.coeffs.get((), ScalarField(self.chart))
        for x in fields_:
            if x.chart != self.chart:
                raise DimensionMismatchError("vector field on a different chart")
        total = ScalarField(self.chart)
        for key, f in self.coeffs.items():
            det = _poly_det([[x.comps[i] for i in key] for x in fields_])
            total = total + f * det
        return total

    def is_zero(self):
        return not self.coeffs


def de_rham(form):
    """Coordinate exterior derivative, same sign convention as differential."""
    chart = form.chart
    k = form.degree
    out = {}
    for key in itertools.combinations(range(chart.dimension), k + 1):
        total = ScalarField(chart)
        for i, idx in enumerate(key):
            rest = key[:i] + key[i + 1:]
            f = form.coeff(rest)
            if f.is_zero():
                continue
            term = f.partial(idx)
            total = total + term if i % 2 == 0 else total - term
        if not total.is_zero():
            out[key] = total
    return CoordForm(chart, k + 1, out)


def anchor_pullback(algebroid, form):
    """Pull a chart form back to the algebroid through the anchor."""
    if form.chart != algebroid.chart:
        raise DimensionMismatchError("form lives on a different chart")
    k = form.degree
    if k == 0:
        return AForm(algebroid, 0, {(): form.coeff(())})
    rows = [algebroid.anchor_row(s) for s in range(algebroid.rank)]
    out = {}
    for key in itertools.combinations(range(algebroid.rank), k):
        value = form(*[rows[s] for s in key])
        if not value.is_zero():
            out[key] = value
    return AForm(algebroid, k, out)


class MatrixForm:
    """Matrix-valued form; each component is a q by q grid of fields."""

    __slots__ = ("algebroid", "degree", "size", "coeffs")

    def __init__(self, algebroid, degree, size, entries=None):
        self.algebroid = algebroid
        self.degree = int(degree)
        self.size = int(size)
        coeffs = {}
        for key, mat in (entries or {}).items():
            key = (key,) if isinstance(key, int) else tuple(key)
            skey, sign = _normalize_key(key, algebroid.rank)
            if sign == 0:
                continue
            mat = self._as_matrix(mat)
            if sign < 0:
                mat = -mat
            coeffs[skey] = coeffs[skey] + mat if skey in coeffs else mat
        self.coeffs = {k: v for k, v in coeffs.items()
                       if not _matrix_is_zero(v)}

    def _as_matrix(self, mat):
        chart = self.algebroid.chart
        out = np.empty((self.size, self.size), dtype=object)
        arr = np.asarray(mat, dtype=object)
        if arr.shape != (self.size, self.size):
            raise ShapeMismatchError(
                "matrix component must be %d by %d" % (self.size, self.size))
        for idx in np.ndindex(*out.shape):
            out[idx] = as_field(chart, arr[idx])
        return out

    def zero_matrix(self):
        out = np.empty((self.size, self.size), dtype=object)
        out[...] = ScalarField(self.algebroid.chart)
        return out.copy()

    def coeff(self, key):
        skey, sign = _normalize_key(tuple(key), self.algebroid.rank)
        if sign == 0 or skey not in self.coeffs:
            return self.zero_matrix()
        mat = self.coeffs[skey]
        return mat if sign > 0 else -mat

    def __call__(self, *sections):
        if len(sections) != self.degree:
            raise ShapeMismatchError(
                "form of degree %d applied to %d sections"
                % (self.degree, len(sections)))
        total = self.zero_matrix()
        for key, mat in self.coeffs.items():
            det = _poly_det([[sec.coeffs[s] for s in key] for sec in sections])
            total = total + det * mat
        return total

    def entry_form(self, i, j):
        """One matrix slot as a scalar form."""
        return AForm(self.algebroid, self.degree,
                     {k: mat[i, j] for k, mat in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def max_abs_coeff(self):
        return max_abs(entry.max_abs_coeff()
                       for mat in self.coeffs.values() for entry in mat.flat)


def _matrix_is_zero(mat):
    return all(entry.is_zero() for entry in mat.flat)


def _apply_to_matrix(vf, mat):
    """A vector field applied to every entry of a field matrix."""
    out = np.empty(mat.shape, dtype=object)
    for idx in np.ndindex(*mat.shape):
        out[idx] = vf.apply(mat[idx])
    return out


def _mat_mul(a, b):
    """Matrix product; on field matrices, one ``dot`` per entry."""
    if a.dtype != object:
        return a @ b
    n = a.shape[0]
    chart = a[0, 0].chart
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = dot(chart, zip(a[i], b[:, j]))
    return out


class DualChart(Chart):
    """Chart on the dual bundle: base coordinates then fiber coordinates."""

    __slots__ = ("base_dimension", "fiber_rank")

    def __init__(self, algebroid):
        m = algebroid.dimension
        r = algebroid.rank
        fiber = tuple("xi%d" % (s + 1) for s in range(r))
        base = algebroid.chart.labels
        if set(base) & set(fiber):
            raise DimensionMismatchError(
                "chart labels collide with fiber labels")
        super().__init__(m + r, base + fiber)
        self.base_dimension = m
        self.fiber_rank = r

    def xi(self, s):
        return ScalarField.coordinate(self, self.base_dimension + s)


def _lift(dual, f):
    """Reinterpret a base-chart polynomial on the dual chart."""
    r = dual.fiber_rank
    return ScalarField._of(dual,
                           {e + (0,) * r: c for e, c in f.coeffs.items()})


def fiber_linear(algebroid, section):
    """Fiberwise-linear function of a section on the dual chart."""
    if section.algebroid is not algebroid:
        raise AlgebroidMismatchError("section of a different algebroid")
    dual = DualChart(algebroid)
    total = ScalarField(dual)
    for s in range(algebroid.rank):
        total = total + _lift(dual, section.coeffs[s]) * dual.xi(s)
    return total


def dual_poisson_matrix(algebroid):
    """Poisson tensor of the dual bundle in (x, xi) coordinates."""
    m = algebroid.dimension
    r = algebroid.rank
    dual = DualChart(algebroid)
    zero = ScalarField(dual)
    pi = np.empty((m + r, m + r), dtype=object)
    pi[...] = zero
    for s in range(r):
        for i in range(m):
            b = _lift(dual, algebroid.anchor[s][i])
            pi[i, m + s] = -b
            pi[m + s, i] = b
    for s in range(r):
        for t in range(r):
            total = zero
            for u in range(r):
                c = algebroid.bracket[s, t, u]
                if not c.is_zero():
                    total = total + _lift(dual, c) * dual.xi(u)
            pi[m + s, m + t] = total
    return dual, pi


def dual_poisson_bracket(algebroid, f, g):
    """Poisson bracket of two polynomials on the dual chart."""
    dual, pi = dual_poisson_matrix(algebroid)
    if f.chart != dual or g.chart != dual:
        raise DimensionMismatchError("arguments must live on the dual chart")
    n = dual.dimension
    total = ScalarField(dual)
    for i in range(n):
        df = f.partial(i)
        if df.is_zero():
            continue
        for j in range(n):
            if pi[i, j].is_zero():
                continue
            dg = g.partial(j)
            if dg.is_zero():
                continue
            total = total + pi[i, j] * df * dg
    return total


def hamiltonian_vector_field(algebroid, section):
    """Hamiltonian field of a section's fiber-linear function."""
    if section.algebroid is not algebroid:
        raise AlgebroidMismatchError("section of a different algebroid")
    m = algebroid.dimension
    r = algebroid.rank
    dual = DualChart(algebroid)
    comps = []
    for i in range(m):
        total = ScalarField(dual)
        for s in range(r):
            total = total + _lift(dual, section.coeffs[s]) * \
                _lift(dual, algebroid.anchor[s][i])
        comps.append(total)
    for t in range(r):
        total = ScalarField(dual)
        for u in range(r):
            coeff = ScalarField(dual)
            for s in range(r):
                c = algebroid.bracket[s, t, u]
                if not c.is_zero():
                    coeff = coeff + _lift(dual, section.coeffs[s]) * _lift(dual, c)
            for i in range(m):
                b = algebroid.anchor[t][i]
                if not b.is_zero():
                    coeff = coeff - _lift(dual, section.coeffs[u].partial(i)) * \
                        _lift(dual, b)
            total = total + coeff * dual.xi(u)
        comps.append(total)
    return VectorField(dual, comps)
