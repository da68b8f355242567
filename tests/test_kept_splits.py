"""Kept splits: each algebroid splits its anchor and bracket, and each
connection its symbols, once by chart monomial; the arrays are read-only."""

import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import algebroidlab as al
from algebroidlab import fields
from algebroidlab.calculus import AForm, MatrixForm
from algebroidlab.classes import InvariantPolynomial
from algebroidlab.fields import ScalarField, _split
from conftest import random_symbols, sl3_constants

DATA = Path(__file__).parent / "data"
# the path files read with their specs; the rest take a constant path
PATHS = {"so3_action.json": "loop_x.json", "tangent2.json": "loop_plane.json",
         "rank0_plane.json": "constant_plane.json"}
SPECS = sorted(p.name for p in DATA.glob("*.json")
               if p.name not in ("arc_plane.json", "constant_plane.json",
                                 "loop_plane.json", "loop_x.json"))


def conjugated_sl3():
    """sl(3) in the basis e'_a = sum_s p[a, s] e_s, p unit upper
    triangular with ones above the diagonal: integer constants with more
    terms than the standard basis has."""
    p = np.eye(8) + np.eye(8, k=1)
    q = np.round(np.linalg.inv(p))
    c = np.round(np.einsum("as,bt,stu,uv->abv", p, p, sl3_constants(), q))
    return al.catalog_build("lie_algebra", {
        "constants": 0.5 * (c - c.transpose(1, 0, 2))})


def load(name):
    if name == "conjugated_sl3":
        return conjugated_sl3()
    return al.load_algebroid(DATA / name)


def connections(a):
    """The bracket connection and its TM mate, the basic and the flat
    metric connections, and, over a point, two seeded E-connections."""
    conns = [*al.compatible_connection(a), al.basic_connection(a),
             al.flat_metric_connection(a)]
    if not a.dimension:
        conns += [al.build_connection(a, "E", random_symbols(a, "E", seed))
                  for seed in (7, 8)]
    return conns


def path_for(name, a):
    if name in PATHS:
        return al.path_from_dict(
            a, json.loads((DATA / PATHS[name]).read_text()))
    # every other spec's anchor vanishes at the origin
    return al.constant_path(a, [0.5] * a.rank, (0.0,) * a.dimension)


def ops(a, conns, path):
    """The calls that read the kept splits."""
    conn_a, conn_tm, basic, flat, *more = conns
    q = basic.q
    calls = [lambda: al.validate(a)]
    calls += [lambda c=c: al.curvature(c) for c in conns]
    calls += [lambda c=c: al.parallel_transport(c, path, np.eye(c.q))
              for c in (conn_a, conn_tm, basic)]
    for k in range(1, min(q, 3) + 1):
        p = InvariantPolynomial(k, q)
        calls += [lambda p=p: al.chern_weil(a, basic, p),
                  lambda p=p: al.transgression_form(basic, flat, p)]
        if more:
            calls += [lambda p=p: al.chern_weil(a, more[0], p),
                      lambda p=p: al.transgression_form(more[1], more[0], p)]
    if more and q >= 3:
        calls.append(lambda: al.secondary_triple(
            a, more[1], more[0], basic, InvariantPolynomial(3, q)))
    calls.append(lambda: al.secondary_class(a, 1))
    return calls


def run(call):
    """The bits of a call's result, or its error, and the texts of the
    warnings it gave (products on overflow.json overflow)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = bits(call())
        except al.AlgebroidError as exc:
            out = type(exc).__name__, str(exc)
    return out, [str(w.message) for w in caught]


def field_bits(f):
    return tuple((e, float(c).hex()) for e, c in f.coeffs.items())


def bits(x):
    """Every float of a result as hex text, in the result's own order."""
    if isinstance(x, AForm):
        return ("form", x.degree, x.overflow,
                tuple((k, field_bits(f)) for k, f in x.coeffs.items()))
    if isinstance(x, MatrixForm):
        return ("matrix form", x.degree, x.size,
                tuple((k, tuple(map(field_bits, m.flat)))
                      for k, m in x.coeffs.items()))
    if isinstance(x, al.TransportResult):
        return ("transport", x.value.shape, x.value.tobytes(), x.steps,
                float(x.error).hex())
    if isinstance(x, al.CocycleSection):
        return ("cocycle", bits(x.form), float(x.closedness_residual).hex())
    assert isinstance(x, al.ValidationReport)
    return ("report", tuple(float(v).hex() for v in (
        x.anchor_residual, x.jacobi_residual, x.antisymmetry_residual)))


def owner(x):
    """The array that holds x's entries (numpy keeps no chain of views)."""
    return x if x.base is None else x.base


def assert_same_split(got, want):
    assert list(got) == list(want)
    for e, x in want.items():
        assert (got[e].shape, got[e].dtype) == (x.shape, x.dtype)
        assert got[e].tobytes() == x.tobytes(), e


@pytest.fixture
def counted(monkeypatch):
    """The arrays that fields._split reads, in call order."""
    seen = []

    def count(chart, arr):
        seen.append(arr)
        return _split(chart, arr)

    monkeypatch.setattr(fields, "_split", count)
    return seen


@pytest.mark.parametrize("name", ["so3_action.json", "conjugated_sl3"])
def test_each_algebroid_and_connection_is_split_once(name, counted):
    a = load(name)
    conns = connections(a)
    path = path_for(name, a)
    first = [run(call) for call in ops(a, conns, path)]
    assert [run(call) for call in ops(a, conns, path)] == first
    # the anchor, the bracket and each connection's symbols once each, and
    # no array twice (secondary_class splits the connections it makes)
    owners = [owner(x) for x in counted]
    assert len(set(map(id, owners))) == len(owners)
    for arr in [a.anchor, a.bracket] + [c.symbols for c in conns]:
        assert sum(x is owner(arr) for x in owners) == 1


def test_structure_arrays_and_kept_splits_are_read_only():
    a = load("so3_action.json")
    conn = al.basic_connection(a)
    zero = ScalarField(a.chart)
    for arr in (a.anchor, a.bracket, conn.symbols):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = zero
    for split in (a._anchor_split, a._bracket_split, conn._frame_matrices()):
        for x in split.values():
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 1.0
            with pytest.raises(ValueError):
                x += 1.0


@pytest.mark.parametrize("name", SPECS + ["conjugated_sl3"])
def test_kept_splits_match_fresh_splits_bit_for_bit(name):
    a = load(name)
    chart = a.chart
    conns = connections(a)
    path = path_for(name, a)
    kept = [[run(call) for call in ops(a, conns, path)] for _ in range(2)]
    # each op on objects of its own, whose splits are made for it alone
    fresh = []
    for i in range(len(kept[0])):
        b = load(name)
        fresh.append(run(ops(b, connections(b), path_for(name, b))[i]))
    assert kept[0] == kept[1] == fresh
    assert_same_split(a._anchor_split, _split(chart, a.anchor))
    assert_same_split(a._bracket_split, _split(chart, a.bracket))
    for conn in conns:
        assert_same_split(conn._frame_matrices(),
                          _split(chart, conn.symbols.transpose(0, 2, 1)))
    # the family curvature's -c[a, b] over the pairs a < b
    pairs = list(itertools.combinations(range(a.rank), 2))
    ia, ib = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    assert_same_split(
        {e: -x[ia, ib] for e, x in a._bracket_split.items()},
        {e: -x for e, x in _split(chart, a.bracket[ia, ib]).items()})
