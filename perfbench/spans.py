"""Tracing of algebroidlab from outside the package.

``install`` replaces the public functions of each layer module with
wrappers that record one span per call: name, start, end, parent span and
op id. ``ScalarField`` operations are far too many for a span each, so
their wrappers only bump counters and add their time to the innermost open
span; a nested field operation (``__sub__`` calling ``__add__``) is counted
but not timed twice. A layer's self time is the time of its spans minus
their child spans and minus the field time spent directly inside them.

Spans are recorded only inside ``Tracer.op``, so set-up and the untimed
correctness checks leave no trace.

Run as a script, this module is a traced ``algebroidlab.cli`` call: it
imports the CLI, installs the tracer, runs ``cli.main`` on its arguments
and writes the spans to the file named by ``PERFBENCH_TRACE_OUT``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "specio", "algebroid", "calculus", "connections",
          "transport", "classes")

# ScalarField method -> counter it bumps
FIELD_METHODS = {
    "__init__": "fields.new_calls",
    "__add__": "fields.add_calls", "__radd__": "fields.add_calls",
    "__sub__": "fields.add_calls", "__rsub__": "fields.add_calls",
    "__neg__": "fields.add_calls",
    "__mul__": "fields.mul_calls", "__rmul__": "fields.mul_calls",
    "__pow__": "fields.mul_calls",
    "evaluate": "fields.eval_calls",
    "partial": "fields.partial_calls",
}

NAME, START, END, PARENT, OP, FIELDS = range(6)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id, field s]
        self.stack = []
        self.op_id = None
        self.counts = Counter()
        self.fields_s = 0.0
        self._in_field = False

    @contextmanager
    def op(self, op_id):
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = None

    def span(self, name, fn, before=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(self.counts, args)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
        return wrapper

    def field_op(self, key, fn, terms=False):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            counts[key] += 1
            if self._in_field:
                out = fn(*args, **kwargs)
            else:
                self._in_field = True
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self._in_field = False
                    self.fields_s += dt
                    if stack:
                        spans[stack[-1]][FIELDS] += dt
            if terms:
                counts["fields.terms_out"] += len(args[0].coeffs)
            return out
        return wrapper

    def counter(self, fn, count):
        """Wrapper that passes (counts, args, result) to count, no span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.op_id is not None:
                count(self.counts, args, out)
            return out
        return wrapper

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "fields_s": self.fields_s}

    def absorb(self, doc, op_id):
        """Add the dump of a traced child process under op_id."""
        base = len(self.spans)
        for rec in doc["spans"]:
            rec = list(rec)
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else -1
            rec[OP] = op_id
            self.spans.append(rec)
        self.counts.update(doc["counts"])
        self.fields_s += doc["fields_s"]


# ------------------------------------------------------- term counting

def double_factorial(n):
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def chern_weil_terms(counts, args):
    algebroid, _conn, poly = args[:3]
    r, k = algebroid.rank, poly.k
    if 2 * k <= r:
        counts["classes.terms"] += math.comb(r, 2 * k) * double_factorial(2 * k - 1)


def transgression_terms(counts, args):
    conn1, _conn0, poly = args[:3]
    r, k = conn1.algebroid.rank, poly.k
    if 2 * k - 1 > r:
        return
    if k == 1:
        counts["classes.terms"] += r
        return
    counts["classes.terms"] += (math.comb(r, 2 * k - 1) * (2 * k - 1)
                                * double_factorial(2 * k - 3) * 3 ** (k - 1))


def triple_terms(counts, args):
    algebroid, poly = args[0], args[4]
    r, k = algebroid.rank, poly.k
    degree = 2 * k - 2
    if k % 2 == 0 or k == 1 or degree > r:
        return
    counts["classes.terms"] += (math.comb(r, degree) * degree * (degree - 1)
                                * double_factorial(2 * k - 5) * 6 ** (k - 2))


TERMS = {"chern_weil": chern_weil_terms,
         "transgression_form": transgression_terms,
         "secondary_triple": triple_terms}


def count_minors(counts, args, _out):
    poly = args[0]
    counts["classes.minor_dets"] += math.comb(poly.q, poly.k)


def count_rk4(counts, _args, out):
    counts["transport.rk4_steps"] += out[1]
    counts["transport.rk4_passes"] += 1


# ------------------------------------------------------------- install

def install(tracer):
    """Wrap the package's public layer functions; returns an undo callable."""
    import algebroidlab
    from algebroidlab import classes, fields, transport

    mods = [algebroidlab] + [importlib.import_module("algebroidlab." + name)
                             for name in LAYERS + ("fields",)]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    swaps = {}
    for layer in LAYERS:
        mod = importlib.import_module("algebroidlab." + layer)
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or id(obj) in swaps):
                continue
            swaps[id(obj)] = tracer.span("%s.%s" % (layer, name), obj,
                                         TERMS.get(name))
    swaps[id(fields.parse_field)] = tracer.field_op("fields.parse_calls",
                                                    fields.parse_field)
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if id(value) in swaps:
                patch(mod, attr, swaps[id(value)])

    cls = fields.ScalarField
    for method, key in FIELD_METHODS.items():
        patch(cls, method, tracer.field_op(key, vars(cls)[method],
                                           terms=method == "__init__"))
    poly = classes.InvariantPolynomial
    patch(poly, "__call__",
          tracer.span("classes.InvariantPolynomial", poly.__call__))
    patch(poly, "sigma", tracer.counter(poly.sigma, count_minors))
    patch(transport.APath, "__init__",
          tracer.span("transport.APath", transport.APath.__init__))
    patch(transport, "_integrate", tracer.counter(transport._integrate,
                                                  count_rk4))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


# ----------------------------------------------------------- reduction

def summarize(tracer, n_passes, op_wall_s):
    """Per-layer metrics per pass of the op list, from spans and counters."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]
    self_s = Counter()
    calls = Counter()
    inclusive = Counter()
    for i, rec in enumerate(spans):
        name = rec[NAME]
        layer = name.split(".", 1)[0]
        dur = rec[END] - rec[START]
        self_s[layer] += dur - child_s[i] - rec[FIELDS]
        calls[layer] += 1
        calls[name] += 1
        inclusive[name] += dur
    counts = tracer.counts
    per = 1.0 / max(n_passes, 1)
    terms = counts["classes.terms"]
    out = {
        "specio.calls": calls["specio"] * per,
        "specio.self_s": self_s["specio"] * per,
        "algebroid.calls": calls["algebroid"] * per,
        "algebroid.self_s": self_s["algebroid"] * per,
        "calculus.differential_calls": calls["calculus.differential"] * per,
        "calculus.self_s": self_s["calculus"] * per,
        "connections.calls": calls["connections"] * per,
        "connections.self_s": self_s["connections"] * per,
        "fields.self_s": tracer.fields_s * per,
        "transport.apath_calls": calls["transport.APath"] * per,
        "transport.apath_s": inclusive["transport.APath"] * per,
        "transport.transport_calls": calls["transport.parallel_transport"] * per,
        "transport.transport_s": inclusive["transport.parallel_transport"] * per,
        "transport.rk4_steps": counts["transport.rk4_steps"] * per,
        "transport.refinements": (counts["transport.rk4_passes"]
                                  - 2 * calls["transport.parallel_transport"]) * per,
        "transport.lift_s": inclusive["transport.lift_base_path"] * per,
        "classes.invpoly_calls": calls["classes.InvariantPolynomial"] * per,
        "classes.invpoly_s": inclusive["classes.InvariantPolynomial"] * per,
        "classes.minor_dets": counts["classes.minor_dets"] * per,
        "classes.memo_hit_ratio": (1.0 - calls["classes.InvariantPolynomial"]
                                   / terms) if terms else 0.0,
        "classes.self_s": self_s["classes"] * per,
        "transport.self_s": self_s["transport"] * per,
        "cli.self_s": self_s["cli"] * per,
    }
    for key in set(FIELD_METHODS.values()) | {"fields.parse_calls",
                                             "fields.terms_out"}:
        out[key] = counts[key] * per
    layer_total = sum(self_s.values()) + tracer.fields_s
    out["trace.wall_s"] = op_wall_s * per
    out["trace.remainder_s"] = (op_wall_s - layer_total) * per
    out["trace.spans"] = len(spans) * per
    return out


def write_spans(tracer, path):
    """One JSON line per span: name, start, end, parent, op id, field s."""
    with open(path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")


def _traced_cli(argv):
    t0 = perf_counter()
    import algebroidlab.cli as cli
    t1 = perf_counter()
    tracer = Tracer()
    install(tracer)
    tracer.spans.append(["cli.import", t0, t1, -1, 0, 0.0])
    with tracer.op(0):
        code = cli.main(argv)
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
