"""The benchmark's tracing hooks still find what they wrap.

perfbench/spans.py patches the package from outside: every public layer
function, InvariantPolynomial.__call__ and sigma, APath.__init__ and
transport._integrate. A renamed or moved target breaks install or leaves
its metric at zero without notice, so one short traced op is run here and
every hook is checked to have fired, and to be undone by restore.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

import algebroidlab as al
from algebroidlab import classes, transport

ROOT = Path(__file__).resolve().parents[1]

# the package's functions that the traced op below calls
PACKAGE_FUNCTIONS = ("basic_connection", "chern_weil", "path_from_dict",
                     "reverse_path", "bracket_sections", "parallel_transport",
                     "compatible_connection")


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def layer_functions(spans):
    """(module, name) of every function install wraps in a span."""
    out = []
    for layer in spans.LAYERS:
        mod = importlib.import_module("algebroidlab." + layer)
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((mod, name))
    return out


def test_trace_hooks_fire_and_restore(catalog):
    spans = load_spans()
    targets = layer_functions(spans)
    originals = {(mod.__name__, name): getattr(mod, name)
                 for mod, name in targets}
    # the package binds a name on its first read, and install wraps the
    # names bound by then: read the ones called below first
    package = {name: getattr(al, name) for name in PACKAGE_FUNCTIONS}
    poly_call = vars(al.InvariantPolynomial)["__call__"]
    poly_sigma = vars(al.InvariantPolynomial)["sigma"]
    integrate = transport._integrate

    a = catalog["so3_action"]
    doc = json.loads((ROOT / "tests" / "data" / "loop_x.json").read_text())
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert all(hasattr(getattr(mod, name), "__wrapped__")
                   for mod, name in targets)
        assert all(getattr(al, name).__wrapped__ is package[name]
                   for name in PACKAGE_FUNCTIONS)
        with tracer.op(0):
            conn = al.basic_connection(a)
            poly = al.InvariantPolynomial(1, conn.q)
            al.chern_weil(a, conn, poly)
            poly.sigma(np.eye(conn.q))
            path = al.path_from_dict(a, doc)
            al.reverse_path(path)
            # transport multiplies no fields; a section bracket does
            al.bracket_sections(a, al.Section(a, ["x1", 0, 0]),
                                al.Section(a, [0, "x2", 0]))
            al.parallel_transport(al.compatible_connection(a)[0], path,
                                  np.eye(a.rank), n_steps=8)
    finally:
        restore()

    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"connections.basic_connection", "classes.chern_weil",
            "classes.InvariantPolynomial", "specio.path_from_dict",
            "transport.APath", "transport.parallel_transport"} <= names
    counts = tracer.counts
    assert counts["classes.minor_dets"] > 0
    assert counts["transport.rk4_steps"] > 0
    assert counts["fields.mul_calls"] > 0 and counts["fields.new_calls"] > 0
    metrics = spans.summarize(tracer, 1, 1.0)
    assert metrics["classes.invpoly_calls"] > 0
    # path_from_dict builds its path through APath.__init__; reverse_path
    # composes the table rows and does not
    assert metrics["transport.apath_calls"] == 1

    # restore puts every original back
    assert all(getattr(mod, name) is originals[(mod.__name__, name)]
               for mod, name in targets)
    assert all(getattr(al, name) is package[name]
               for name in PACKAGE_FUNCTIONS)
    assert al.chern_weil is classes.chern_weil
    assert vars(al.InvariantPolynomial)["__call__"] is poly_call
    assert vars(al.InvariantPolynomial)["sigma"] is poly_sigma
    assert transport._integrate is integrate
