"""Polynomial scalar fields on a coordinate chart.

A ScalarField is a sparse multivariate polynomial with double coefficients,
keyed by exponent tuples. Evaluation and partial differentiation are exact
(no truncation), which is what makes every downstream identity checkable at
tight tolerances.

Every exponent is at most MAX_EXPONENT = 32,767. A field whose kept terms
would hold a larger one raises ExponentTooLargeError, whether it comes from
input, a product or a split array; a term that drops out (a zero product or
an exact cancellation) does not.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import re
import reprlib

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
        p = _numbers(p, "point coordinates", DimensionMismatchError)
        if len(p) != self.dimension:
            raise DimensionMismatchError(
                "point has length %d, chart dimension is %d"
                % (len(p), self.dimension))
        return p


# number types read by one set test, without the abstract numbers.Real one
_NUMBER_TYPES = frozenset((float, int, np.float64, np.int64))


def _numbers(values, what, error):
    """values, an iterable of finite real numbers, as a tuple of floats;
    error("<what> must be numbers") if one is a bool, a text or no real
    number, error("<what> must be finite") if one is inf or NaN."""
    values = tuple(values)
    if not _NUMBER_TYPES.issuperset(map(type, values)) and not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            for v in values):
        raise error("%s must be numbers" % what)
    values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        raise error("%s must be finite" % what)
    return values


def _fmt(x):
    # shortest round-trip float text, with integer values printed bare
    r = repr(float(x))
    if r.endswith(".0"):
        r = r[:-2]
    return r


MAX_EXPONENT = (1 << 15) - 1


def _check_limit(keys):
    """Raise ExponentTooLargeError for the first exponent tuple of keys (a
    collection), in order, that holds an exponent past MAX_EXPONENT."""
    if max(itertools.chain.from_iterable(keys), default=0) > MAX_EXPONENT:
        e = next(e for e in keys if max(e) > MAX_EXPONENT)
        raise ExponentTooLargeError(
            "exponent %d is above the limit %d" % (max(e), MAX_EXPONENT))


def _exponents(exps, m):
    """exps as a tuple of m ints in [0, MAX_EXPONENT], or an error.

    A tuple of m Python ints in range is returned as it is; anything else
    (bools, numpy ints, integral floats, lists) is read and checked below.
    """
    if type(exps) is tuple and len(exps) == m:
        for e in exps:
            if type(e) is not int or not 0 <= e <= MAX_EXPONENT:
                break
        else:
            return exps
    try:
        ints = tuple(int(e) for e in exps)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if (ints is None or ints != tuple(exps) or len(ints) != m
            or any(e < 0 for e in ints)):
        raise DimensionMismatchError(
            "bad exponent tuple %r for chart of dimension %d" % (exps, m))
    _check_limit((ints,))
    return ints


def _product(a, b):
    """Coefficient dict of the product of two coefficient dicts, zeros not
    yet dropped and exponents not yet checked."""
    out = {}
    get = out.get
    add = operator.add
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0.0) + c1 * c2
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

    The constructor and ``parse_field`` are the validating entry points:
    exponents must be integers in [0, MAX_EXPONENT], one per chart
    coordinate, and coefficients finite. The parser checks the terms it
    builds itself and stores them through ``_of``. Results of the closed
    operations (sums, products, negation, powers, partials and ``dot``)
    are built by ``_of`` without re-checking their coefficients, so
    arithmetic may still overflow to inf or nan; a number in arithmetic
    must be finite. Products and ``dot`` check the exponents they keep.

    Fields are immutable: arrays of fields may share one field between
    entries, so a field's ``coeffs`` must not be mutated.
    """

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart, coeffs=None):
        self.chart = chart
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
        return f

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
        out = _product(self.coeffs, other.coeffs)
        out = {e: c for e, c in out.items() if c != 0.0}
        _check_limit(out)
        return ScalarField._of(self.chart, out)

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
        try:
            for e, c in self.coeffs.items():
                term = c
                for xi, ei in zip(p, e):
                    if ei:
                        term *= xi ** ei
                total += term
        except OverflowError:
            raise _power_overflow() from None
        return total

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

    The sum is built in one dict and its exponents are checked once at the
    end: each product is summed per monomial and then added to the total in
    pair order, so the result is bit-identical to ``total = total + a * b``
    chained from start. Only the monomials of the sum are checked, so a
    product term past MAX_EXPONENT that cancels in the sum raises nothing,
    where the chained sum would raise.
    """
    total = {}
    if start is not None:
        if start.chart is not chart and start.chart != chart:
            raise DimensionMismatchError("fields live on different charts")
        total.update(start.coeffs)
    for a, b in pairs:
        if ((a.chart is not chart and a.chart != chart)
                or (b.chart is not chart and b.chart != chart)):
            raise DimensionMismatchError("fields live on different charts")
        if a.coeffs and b.coeffs:
            _accumulate(total, _product(a.coeffs, b.coeffs))
    _check_limit(total)
    return ScalarField._of(chart, total)


# the grammar, built from named pieces: a term is an optional sign, then
# factors joined by '*', each a number or a coordinate name with an optional
# '^' integer power, then space
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_POWER = r"\s*\^\s*(\d+)"
_FACTOR = re.compile(r"(%s)|(%s)(?:%s)?" % (_NUMBER, _NAME, _POWER))
_TERM = re.compile(r"([+-])?\s*(?:{0})(?:\s*\*\s*(?:{0}))*\s*".format(
    _FACTOR.pattern))


def parse_field(chart, text):
    """Parse an expression into a ScalarField.

    Grammar: terms joined by '+'/'-'; a term is '*'-separated factors, each a
    numeric literal or a coordinate name with an optional '^' integer power.
    Whitespace may surround every sign, factor, '*' and '^'. Scientific
    notation is accepted so that printed fields re-parse exactly.

    Terms are read one match at a time from the start of the text, so when a
    text has several faults, the first in the text is raised: "y + (" raises
    UnknownVariableError. The finite check of the coefficients follows the
    whole text, and then the check of the accumulated exponents.
    """
    if not isinstance(text, str):
        raise ExpressionSyntaxError(
            "%s is not an expression" % reprlib.repr(text))
    pos, end = len(text) - len(text.lstrip()), len(text)
    if pos == end:
        raise ExpressionSyntaxError("empty expression")
    labels = {name: i for i, name in enumerate(chart.labels)}
    m = chart.dimension
    result = {}
    while pos < end:
        term = _TERM.match(text, pos)
        # every term after the first needs its sign
        if term is None or result and not term.group(1):
            rest = text[pos:].rstrip()
            if rest in ("+", "-") or rest == "*" and result:
                raise ExpressionSyntaxError(
                    "term is missing a factor (at end of input)")
            raise ExpressionSyntaxError("cannot read a term (at %d)" % pos)
        coeff = -1.0 if term.group(1) == "-" else 1.0
        exps = [0] * m
        for factor in _FACTOR.finditer(text, pos, term.end()):
            number, name, power = factor.groups()
            if number:
                coeff *= float(number)
                continue
            if name not in labels:
                raise UnknownVariableError(
                    "unknown variable %r on this chart" % name)
            # refuse a long power before int() reads it
            if power and len(power.lstrip("0")) > len(str(MAX_EXPONENT)):
                raise ExponentTooLargeError(
                    "power above the limit %d (at %d)"
                    % (MAX_EXPONENT, factor.start(3)))
            exps[labels[name]] += int(power) if power else 1
        key = tuple(exps)
        result[key] = result.get(key, 0.0) + coeff
        pos = term.end()
    if not all(math.isfinite(c) for c in result.values()):
        raise ExpressionSyntaxError("coefficient is not a finite number")
    # the constructor's rules: a term that cancels drops out, and one that
    # stays may not hold an accumulated exponent past the limit
    coeffs = {e: c for e, c in result.items() if c}
    _check_limit(coeffs)
    return ScalarField._of(chart, coeffs)


def _power_overflow():
    """The error for a point with a coordinate power past a double, where
    Python's float ** raises OverflowError."""
    return DimensionMismatchError(
        "point coordinates too large: a power overflows a double")


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
    """A ScalarField on chart from a field, expression or finite number;
    None, a bool or any other value is refused."""
    if isinstance(v, ScalarField):
        if v.chart != chart:
            raise DimensionMismatchError("field lives on a different chart")
        return v
    if isinstance(v, str):
        return parse_field(chart, v)
    # float and int first: they match without the slower abstract check
    if isinstance(v, bool) or not isinstance(v, (float, int, numbers.Real)):
        raise ExpressionSyntaxError(
            "%s is not a field, expression or number" % reprlib.repr(v))
    return ScalarField.constant(chart, v)


def _field_array(chart, data, shape, what):
    """Object array of the given shape holding as_field of each entry of
    nested data (lists, arrays, fields, expressions or numbers).

    Finite integer or float data of the right shape, with no bool among
    them, become constant fields in one pass. Anything else goes entry by
    entry, in C order, through as_field, which raises the errors; each
    distinct expression text is parsed once, its entries sharing one field.
    """
    shape = tuple(shape)
    try:
        arr = np.asarray(data)
    except (ValueError, OverflowError):   # ragged, or an int past a double
        arr = None
    if (arr is not None and arr.dtype.kind in "iuf" and arr.shape == shape
            and np.isfinite(arr).all()
            and (isinstance(data, np.ndarray) or {bool, np.bool_}.isdisjoint(
                map(type, np.asarray(data, object).flat)))):
        key = (0,) * chart.dimension
        zero = ScalarField._of(chart, {})
        return np.fromiter(
            (ScalarField._of(chart, {key: v}) if v else zero
             for v in arr.astype(float).ravel().tolist()),
            object, arr.size).reshape(shape)
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
    parsed = {}

    def coerce(v):
        if isinstance(v, str):
            f = parsed.get(v)
            if f is None:
                f = parsed[v] = parse_field(chart, v)
            return f
        return as_field(chart, v)

    return np.fromiter(map(coerce, arr.flat), object, arr.size).reshape(shape)


def _values(fields, p):
    """Float array of f.evaluate(p) over an array (or list) of fields."""
    fields = np.asarray(fields, dtype=object)
    return np.fromiter((f.evaluate(p) for f in fields.flat), float,
                       fields.size).reshape(fields.shape)


def _partials(fields, m):
    """Object array of the partials of each field of an array, on a new
    last axis: out[..., j] is fields[...].partial(j), j < m."""
    return np.fromiter((f.partial(j) for f in fields.flat for j in range(m)),
                       object, fields.size * m).reshape(fields.shape + (m,))


def _split(chart, fields):
    """{chart exponents: float array of the fields' shape}: the coefficients
    of an array of fields by monomial, so that fields = sum_e out[e] x^e,
    read at points by _split_values. Keys are sorted: the constant monomial
    is first, a zero array when no field has it; over a point, the only one."""
    keys = [(0,) * chart.dimension]
    if chart.dimension:
        keys = sorted(set().union(keys, *(f.coeffs for f in fields.flat)))
    return {e: np.fromiter((f.coeffs.get(e, 0.0) for f in fields.flat), float,
                           fields.size).reshape(fields.shape) for e in keys}


def _split_values(parts, points):
    """Values of a split array (see _split) at each row of an (n, m) array
    of points, shape (n,) + the array's shape: per monomial, in the split's
    order, the product of numpy's powers of its coordinates, outer times
    its coefficients, summed. A power past a double gives inf or NaN."""
    total = 0.0
    for e, c in parts.items():
        mono = np.ones(len(points))
        for i, k in enumerate(e):
            if k:
                mono = mono * points[:, i] ** k
        total = total + np.multiply.outer(mono, c)
    return total


def _join(chart, parts):
    """Inverse of _split: the fields sum_e parts[e] x^e, each built once with
    its exact zeros dropped. A monomial past MAX_EXPONENT that some field
    keeps raises ExponentTooLargeError."""
    _check_limit([e for e, v in parts.items() if v.any()])
    first = next(iter(parts.values()))
    coeffs = [{} for _ in range(first.size)]
    for e, v in parts.items():
        v = v.reshape(-1)
        nz = v.nonzero()[0]
        for i, c in zip(nz.tolist(), v[nz].tolist()):
            coeffs[i][e] = c
    return np.fromiter((ScalarField._of(chart, c) for c in coeffs), object,
                       len(coeffs)).reshape(first.shape)


def perm_sign(seq):
    """Sign of the permutation that sorts seq (entries distinct)."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign
