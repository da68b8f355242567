"""Polynomial scalar fields on a coordinate chart.

A ScalarField is a sparse multivariate polynomial with double coefficients,
keyed by exponent tuples. Evaluation and partial differentiation are exact
(no truncation), which is what makes every downstream identity checkable at
tight tolerances.

Products multiply packed monomials: the exponent tuple (e_1, ..., e_m) is
the integer sum(e_i << 16*(i-1)), so the exponent sum of two monomials is
one integer add. Every exponent is at most MAX_EXPONENT = 32,767, so the sum
of two fits in its 16 bits and never carries into the next variable. A
result that would hold a larger exponent raises ExponentTooLargeError; a
term that drops out (a zero product or an exact cancellation) does not.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExponentTooLargeError,
    ExpressionSyntaxError,
    ShapeMismatchError,
    UnknownVariableError,
)
from .sampling import max_abs


class Chart:
    """A coordinate chart: a dimension and coordinate labels.

    Dimension zero is allowed and models a point; fields on it are constants.
    """

    __slots__ = ("dimension", "labels")

    def __init__(self, dimension, labels=None):
        if dimension < 0:
            raise DimensionMismatchError("chart dimension must be >= 0")
        if labels is None:
            labels = tuple("x%d" % (i + 1) for i in range(dimension))
        else:
            labels = tuple(labels)
        if len(labels) != dimension:
            raise DimensionMismatchError(
                "expected %d labels, got %d" % (dimension, len(labels)))
        if len(set(labels)) != len(labels):
            raise DimensionMismatchError("coordinate labels must be distinct")
        self.dimension = dimension
        self.labels = labels

    def __eq__(self, other):
        return (isinstance(other, Chart)
                and self.dimension == other.dimension
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.dimension, self.labels))

    def __repr__(self):
        return "Chart(%d)" % self.dimension

    def check_point(self, p):
        p = tuple(float(v) for v in p)
        if len(p) != self.dimension:
            raise DimensionMismatchError(
                "point has length %d, chart dimension is %d"
                % (len(p), self.dimension))
        return p


def _fmt(x):
    # shortest round-trip float text, with integer values printed bare
    r = repr(float(x))
    if r.endswith(".0"):
        r = r[:-2]
    return r


MAX_EXPONENT = (1 << 15) - 1
_SHIFT = 16


class _Encoder(dict):
    """Exponent tuple -> packed key, filled on a miss."""

    __slots__ = ()

    def __missing__(self, exps):
        key = self[exps] = sum(e << _SHIFT * i for i, e in enumerate(exps))
        return key


class _Decoder(dict):
    """Packed key -> exponent tuple of one chart dimension, filled on a miss.

    A key is the sum of two packed monomials at most, so each 16-bit field
    holds an exponent below 2^16; one above MAX_EXPONENT is refused here,
    before it is stored and could be summed again.
    """

    __slots__ = ("dimension",)

    def __init__(self, dimension):
        self.dimension = dimension

    def __missing__(self, key):
        exps = tuple(key >> _SHIFT * i & 0xFFFF for i in range(self.dimension))
        if max(exps, default=0) > MAX_EXPONENT:
            raise ExponentTooLargeError(
                "exponent %d is above the limit %d"
                % (max(exps), MAX_EXPONENT))
        self[key] = exps
        return exps


class _Codecs(dict):
    """Chart dimension -> (encoder, decoder), made on first use."""

    def __missing__(self, m):
        codec = self[m] = (_Encoder(), _Decoder(m))
        return codec


_CODECS = _Codecs()


def _exponents(exps, m):
    """exps as a tuple of m ints in [0, MAX_EXPONENT], or an error."""
    try:
        ints = tuple(int(e) for e in exps)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if (ints is None or ints != tuple(exps) or len(ints) != m
            or any(e < 0 for e in ints)):
        raise DimensionMismatchError(
            "bad exponent tuple %r for chart of dimension %d" % (exps, m))
    if max(ints, default=0) > MAX_EXPONENT:
        raise ExponentTooLargeError(
            "exponent %d is above the limit %d" % (max(ints), MAX_EXPONENT))
    return ints


def _product(terms_a, terms_b):
    """Packed-key dict of the product of two packed term lists, zeros not
    yet dropped."""
    out = {}
    get = out.get
    for k1, c1 in terms_a:
        for k2, c2 in terms_b:
            k = k1 + k2
            out[k] = get(k, 0.0) + c1 * c2
    return out


def _accumulate(total, coeffs):
    """Add coeffs into total in place, dropping what cancels exactly.

    Keys keep their order in total, and new keys follow in the order of
    coeffs, as in a sum built by the constructor.
    """
    for e, c in coeffs.items():
        c = total.get(e, 0.0) + c
        if c != 0.0:
            total[e] = c
        elif e in total:
            del total[e]


class ScalarField:
    """Sparse polynomial: dict from exponent tuples to nonzero coefficients.

    The constructor is the one validating entry point: exponents must be
    integers in [0, MAX_EXPONENT], one per chart coordinate, and
    coefficients finite. Results of the closed operations (sums, products,
    negation, powers, partials and ``dot``) are built by ``_of`` without
    re-checking, so arithmetic may still overflow to inf or nan; a number
    in arithmetic must be finite.

    A field's ``coeffs`` must not be mutated after construction: the field
    caches its terms with packed keys on first use in a product.
    """

    __slots__ = ("chart", "coeffs", "_packed")

    def __init__(self, chart, coeffs=None):
        self.chart = chart
        self._packed = None
        clean = {}
        if coeffs:
            m = chart.dimension
            for exps, c in coeffs.items():
                c = _finite(c)
                if c == 0.0:
                    continue
                ints = _exponents(exps, m)
                clean[ints] = clean.get(ints, 0.0) + c
                if clean[ints] == 0.0:
                    del clean[ints]
        self.coeffs = clean

    @classmethod
    def _of(cls, chart, coeffs):
        """Trusted constructor: coeffs maps int tuples of the chart's length
        to nonzero floats, and is stored as given."""
        f = object.__new__(cls)
        f.chart = chart
        f.coeffs = coeffs
        f._packed = None
        return f

    def _terms(self):
        """[(packed key, coefficient), ...] in the order of coeffs, cached."""
        packed = self._packed
        if packed is None:
            encode = _CODECS[self.chart.dimension][0]
            packed = self._packed = [(encode[e], c)
                                     for e, c in self.coeffs.items()]
        return packed

    @classmethod
    def _scalar(cls, chart, value):
        """Trusted constant: value is stored as given, nothing when zero."""
        value = float(value)
        return cls._of(chart, {(0,) * chart.dimension: value} if value else {})

    @classmethod
    def constant(cls, chart, value):
        return cls._scalar(chart, _finite(value))

    @classmethod
    def coordinate(cls, chart, i):
        if not 0 <= i < chart.dimension:
            raise DimensionMismatchError("no coordinate %d on %r" % (i, chart))
        e = [0] * chart.dimension
        e[i] = 1
        return cls(chart, {tuple(e): 1.0})

    # ------------------------------------------------------------------ algebra

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart is not self.chart and other.chart != self.chart:
                raise DimensionMismatchError("fields live on different charts")
            return other
        if isinstance(other, (int, float)):
            return ScalarField._scalar(self.chart, _finite(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        _accumulate(out, other.coeffs)
        return ScalarField._of(self.chart, out)

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._of(self.chart,
                               {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = _product(self._terms(), other._terms())
        decode = _CODECS[self.chart.dimension][1]
        return ScalarField._of(self.chart, {
            decode[k]: c for k, c in out.items() if c != 0.0})

    __rmul__ = __mul__

    def __pow__(self, n):
        # an int is read exactly: float() of a huge one would overflow
        if (not isinstance(n, (int, np.integer))
                and not float(n).is_integer()):
            raise ValueError("power must be an integer, got %r" % (n,))
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        if n > MAX_EXPONENT:   # the parser's bound, before any product
            raise ExponentTooLargeError(
                "power is above the limit %d" % MAX_EXPONENT)
        result = ScalarField.constant(self.chart, 1.0)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, ScalarField)
                and self.chart == other.chart
                and self.coeffs == other.coeffs)

    # ------------------------------------------------------------- calculus

    def partial(self, i):
        if not 0 <= i < self.chart.dimension:
            raise DimensionMismatchError(
                "no coordinate %d on chart of dimension %d"
                % (i, self.chart.dimension))
        # lowering e[i] is one-to-one on the monomials that keep a term, and
        # c * e[i] with e[i] >= 1 is never zero, so nothing merges or drops
        return ScalarField._of(self.chart, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.coeffs.items() if e[i]})

    def evaluate(self, p):
        p = self.chart.check_point(p)
        total = 0.0
        for e, c in self.coeffs.items():
            term = c
            for xi, ei in zip(p, e):
                if ei:
                    term *= xi ** ei
            total += term
        return total

    def evaluate_many(self, points):
        """Values at each row of an (n, dimension) array of points.

        The terms are formed and summed in the order of ``evaluate``; only
        the powers differ, numpy's ``**`` against the float one, so each
        value agrees with ``evaluate`` to a few ulp of the sum of the terms'
        absolute values.
        """
        points = np.asarray(points, dtype=float)
        m = self.chart.dimension
        if points.ndim != 2 or points.shape[1] != m:
            raise DimensionMismatchError(
                "points need shape (n, %d), got %r" % (m, points.shape))
        if not self.coeffs:
            return np.zeros(len(points))
        exps = np.array(list(self.coeffs), dtype=int)
        exps = exps.reshape(len(self.coeffs), m)
        terms = np.outer(list(self.coeffs.values()), np.ones(len(points)))
        for i in range(m):
            terms = terms * points[:, i] ** exps[:, i, None]
        # a running sum is the sequential sum of evaluate's loop
        return np.cumsum(terms, axis=0)[-1]

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return all(sum(e) == 0 for e in self.coeffs)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("field is not constant")
        return self.coeffs.get((0,) * self.chart.dimension, 0.0)

    def max_abs_coeff(self):
        return max_abs(self.coeffs.values())

    # ------------------------------------------------------------- printing

    def to_string(self):
        if not self.coeffs:
            return "0"
        labels = self.chart.labels
        parts = []
        for e, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            factors = []
            for i, ei in enumerate(e):
                if ei == 1:
                    factors.append(labels[i])
                elif ei > 1:
                    factors.append("%s^%d" % (labels[i], ei))
            mag = abs(c)
            if factors and mag == 1.0:
                body = "*".join(factors)
            elif factors:
                body = _fmt(mag) + "*" + "*".join(factors)
            else:
                body = _fmt(mag)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "ScalarField(%s)" % self.to_string()


def dot(chart, pairs, start=None):
    """start (default zero) plus the sum of a * b over the pairs (a, b) of
    fields on chart.

    The sum is built in one dict keyed by packed monomials and decoded once
    at the end: each product is summed per monomial and then added to the
    total in pair order, so the result is bit-identical to
    ``total = total + a * b`` chained from start. Only the monomials of the
    sum are decoded, so a product term past MAX_EXPONENT that cancels in the
    sum raises nothing, where the chained sum would raise.
    """
    total = {}
    if start is not None:
        if start.chart is not chart and start.chart != chart:
            raise DimensionMismatchError("fields live on different charts")
        total.update(start._terms())
    for a, b in pairs:
        if ((a.chart is not chart and a.chart != chart)
                or (b.chart is not chart and b.chart != chart)):
            raise DimensionMismatchError("fields live on different charts")
        if a.coeffs and b.coeffs:
            _accumulate(total, _product(a._terms(), b._terms()))
    decode = _CODECS[chart.dimension][1]
    return ScalarField._of(chart, {decode[k]: c for k, c in total.items()})


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*^]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionSyntaxError(
                "unexpected character %r at position %d" % (text[pos], pos))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def parse_field(chart, text):
    """Parse an expression into a ScalarField.

    Grammar: terms joined by '+'/'-'; a term is '*'-separated factors, each a
    numeric literal or a coordinate name with an optional '^' integer power.
    Whitespace is ignored. Scientific notation is accepted so that printed
    fields re-parse exactly.
    """
    tokens = _tokenize(str(text))
    if not tokens:
        raise ExpressionSyntaxError("empty expression")
    labels = {name: i for i, name in enumerate(chart.labels)}
    m = chart.dimension
    result = {}
    i = 0
    n = len(tokens)

    def fail(msg, tok=None):
        where = tok[2] if tok else "end of input"
        raise ExpressionSyntaxError("%s (at %s)" % (msg, where))

    first = True
    while i < n:
        sign = 1.0
        if tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -1.0
            i += 1
        elif not first:
            fail("expected '+' or '-' between terms", tokens[i])
        first = False
        coeff = sign
        exps = [0] * m
        expect_factor = True
        while i < n:
            if not expect_factor:
                if tokens[i][0] == "op" and tokens[i][1] == "*":
                    i += 1
                    expect_factor = True
                    continue
                break
            if i >= n:
                fail("dangling operator")
            kind, value, _pos = tokens[i]
            if kind == "num":
                coeff *= float(value)
                i += 1
            elif kind == "name":
                if value not in labels:
                    raise UnknownVariableError(
                        "unknown variable %r on this chart" % value)
                power = 1
                i += 1
                if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        fail("'^' must be followed by an integer", tokens[i - 1])
                    ptext = tokens[i][1]
                    if not ptext.isdigit():
                        fail("power must be a non-negative integer", tokens[i])
                    # refuse a long power before int() reads it
                    if len(ptext.lstrip("0")) > len(str(MAX_EXPONENT)):
                        raise ExponentTooLargeError(
                            "power above the limit %d (at %d)"
                            % (MAX_EXPONENT, tokens[i][2]))
                    power = int(ptext)
                    i += 1
                exps[labels[value]] += power
            else:
                fail("unexpected operator %r" % value, tokens[i])
            expect_factor = False
        if expect_factor:
            fail("term is missing a factor")
        key = tuple(exps)
        result[key] = result.get(key, 0.0) + coeff
    if not all(math.isfinite(c) for c in result.values()):
        raise ExpressionSyntaxError("coefficient is not a finite number")
    return ScalarField(chart, result)


def _finite(v):
    """v as a finite float; a number too large for a double is refused
    like an infinite one."""
    try:
        x = float(v)
    except OverflowError:
        raise ExpressionSyntaxError(
            "number too large for a double") from None
    if not math.isfinite(x):
        raise ExpressionSyntaxError("%r is not a finite number" % x)
    return x


def as_field(chart, v):
    """A ScalarField on chart from a field, expression or finite number."""
    if isinstance(v, ScalarField):
        if v.chart != chart:
            raise DimensionMismatchError("field lives on a different chart")
        return v
    if isinstance(v, str):
        return parse_field(chart, v)
    return ScalarField.constant(chart, v)


def _field_array(chart, data, shape, what):
    """Object array of the given shape holding as_field of each entry of
    nested data (lists, arrays, fields, expressions or numbers)."""
    shape = tuple(shape)
    try:
        arr = np.asarray(data, dtype=object)
    except ValueError:   # ragged nesting that numpy refuses outright
        arr = None
    # numpy lays out other ragged nesting as an array holding lists
    if (arr is None or arr.shape != shape or any(
            isinstance(v, (list, tuple, np.ndarray)) for v in arr.flat)):
        raise ShapeMismatchError(
            "%s must have shape %r, one field, expression or number per "
            "entry" % (what, shape))
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = as_field(chart, arr[idx])
    return out


def perm_sign(seq):
    """Sign of the permutation that sorts seq (entries distinct)."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign
