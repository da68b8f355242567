"""Command-line front end emitting deterministic JSON reports.

Every command reads an algebroid from a JSON file, runs one computation,
and prints a report document to standard output. Reports carry the schema
tag, the command name, a content digest of the input file, and the seed,
so identical inputs produce byte-identical output. Numbers are printed
with 17 significant digits.

Exit codes: 0 on success, 2 when validation fails or a residual is not
finite (the report is still printed, with non-finite numbers as the
strings "nan", "inf" and "-inf") or when a secondary class fails its
closedness check (an error document is printed), 1 on any input or usage
error (a JSON error document is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from .errors import AlgebroidError, BadOrderError, ClosednessFailureError
from .specio import algebroid_from_dict

SCHEMA = "algebroidlab/1"
TWO_PI = 2.0 * math.pi


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _ReportEncoder(json.JSONEncoder):
    """17-significant-digit floats, non-finite ones as strings, numpy arrays
    and scalars as their Python values; the rest as the default encoder."""

    def default(self, o):
        if isinstance(o, (np.ndarray, np.generic)):
            return o.tolist()
        return super().default(o)

    def iterencode(self, o, _one_shot=False):
        markers = {} if self.check_circular else None

        def floatstr(x):
            return format(x, ".17g") if math.isfinite(x) else '"%r"' % x

        make = json.encoder._make_iterencode(
            markers, self.default, json.encoder.encode_basestring_ascii,
            self.indent, floatstr, self.key_separator, self.item_separator,
            self.sort_keys, self.skipkeys, _one_shot)
        return make(o, 0)


def _emit(doc):
    text = json.dumps(doc, cls=_ReportEncoder, sort_keys=True, indent=2)
    sys.stdout.write(text + "\n")


def _read_json(path):
    """The parsed document and the sha256 digest of the file's bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


def _parse_point(text, dimension):
    if text is None or text.strip() == "":
        return (0.0,) * dimension
    return tuple(float(v) for v in text.split(","))


# ------------------------------------------------------------- subcommands
# Each handler imports what it runs, so a call loads only the modules of its
# subcommand. Where no bytecode is cached each call compiles what it loads,
# and the calculus, connection, transport and class modules are most of that.

def _cmd_validate(a, args):
    from .algebroid import validate

    tol = args.tol if args.tol is not None else 1e-10
    report = validate(a, tol=tol, n_samples=args.samples, seed=args.seed)
    results = {
        "pass": report.passed,
        "anchor_pass": report.anchor_pass,
        "jacobi_pass": report.jacobi_pass,
        "antisymmetry_pass": report.antisymmetry_pass,
        "n_points": report.n_points,
    }
    residuals = {
        "anchor": report.anchor_residual,
        "jacobi": report.jacobi_residual,
        "antisymmetry": report.antisymmetry_residual,
    }
    return results, residuals, {"residual": tol}, 0 if report.passed else 2


def _cmd_rank(a, args):
    from .algebroid import anchor_rank_at

    p = _parse_point(args.point, a.dimension)
    rank = anchor_rank_at(a, p)
    return ({"rank": rank, "point": list(p)}, {}, {}, 0)


def _cmd_isotropy(a, args):
    from .algebroid import isotropy_at

    p = _parse_point(args.point, a.dimension)
    tol = args.tol if args.tol is not None else 1e-9
    iso = isotropy_at(a, p, tol=tol)
    basis = [list(iso.basis[:, j]) for j in range(iso.basis.shape[1])]
    results = {
        "dimension": iso.basis.shape[1],
        "basis": basis,
        "constants": iso.constants,
        "point": list(p),
    }
    return results, {"closure": iso.residual}, {"closure": tol}, 0


def _cmd_linearize(a, args):
    from .algebroid import linearize_at

    p = _parse_point(args.point, a.dimension)
    tol = args.tol if args.tol is not None else 1e-9
    data = linearize_at(a, p, tol=tol)
    results = {
        "isotropy_dimension": data.algebra_dim,
        "normal_dimension": data.chart.dimension,
        "constants": data.constants,
        "fields": [[c.to_string() for c in f.comps] for f in data.fields],
        "kernel_basis": data.kernel_basis,
        "normal_basis": data.normal_basis,
        "point": list(p),
    }
    return results, {}, {"jacobi": data.jacobi_tol}, 0


def _entries(names, items):
    """Report entries of the nonzero fields among (index tuple, field)
    items: the 1-based indices under names, and the field's text."""
    return [dict(zip(names, (i + 1 for i in idx)), value=f.to_string())
            for idx, f in items if not f.is_zero()]


def _cmd_differential(a, args):
    from .calculus import AForm, differential
    from .fields import ScalarField

    coords = []
    for i in range(a.dimension):
        f = AForm(a, 0, {(): ScalarField.coordinate(a.chart, i)})
        d = differential(f)
        coords.append([d.coeff((s,)).to_string() for s in range(a.rank)])
    duals = _entries(("u", "s", "t"), (
        ((u,) + key, f) for u in range(a.rank)
        for key, f in sorted(differential(AForm(a, 1, {(u,): 1.0}))
                             .coeffs.items())))
    return ({"coordinates": coords, "frame_duals": duals}, {}, {}, 0)


def _cmd_torsion(a, args):
    from .connections import compatible_connection, torsion

    tens = torsion(compatible_connection(a)[0])
    entries = _entries(("u", "s", "t"), np.ndenumerate(tens.comps))
    return ({"bundle": "A", "entries": entries}, {}, {}, 0)


def _cmd_curvature(a, args):
    from .connections import compatible_connection, curvature

    form = curvature(compatible_connection(a)[0])
    entries = _entries(("alpha", "beta", "row", "col"), (
        (key + idx, f) for key in sorted(form.coeffs)
        for idx, f in np.ndenumerate(form.coeffs[key])))
    return ({"bundle": "A", "entries": entries}, {}, {}, 0)


def _cmd_transport(a, args):
    """transport; holonomy is the same run on a path that must close up."""
    from .connections import compatible_connection
    from .specio import path_from_dict
    from .transport import _check_loop, parallel_transport

    if not args.path:
        raise UsageError("this command needs --path")
    doc, digest = _read_json(args.path)
    path = path_from_dict(a, doc)
    if args.command == "holonomy":
        _check_loop(path)
    conn = compatible_connection(a)[0]
    res = parallel_transport(conn, path, np.eye(conn.q),
                             n_steps=args.steps, tol=args.tol)
    results = {"matrix": res.value, "steps": res.steps,
               "path_digest": digest}
    tolerances = {} if args.tol is None else {"transport": args.tol}
    return results, {"step_halving": res.error}, tolerances, 0


def _cmd_classes(a, args):
    from .classes import secondary_class

    k = args.k if args.k is not None else 1
    if k > 3:
        raise BadOrderError("orders above 3 are not exposed on the "
                            "command line")
    sec = secondary_class(a, k)
    coefficients = []
    for key in sorted(sec.form.coeffs):
        coefficients.append({"key": [i + 1 for i in key],
                             "value": sec.form.coeffs[key].to_string()})
    results = {"k": k, "degree": 2 * k - 1, "overflow": sec.overflow,
               "coefficients": coefficients}
    residuals = {"closedness": sec.closedness_residual}
    return results, residuals, {"closedness": 1e-7}, 0


def _cmd_modular(a, args):
    from .classes import modular_theorem_check

    check = modular_theorem_check(a, n_points=20, seed=args.seed)
    theta, m1 = check["theta"], check["m1"]
    theta_strings = [theta.form.coeff((s,)).to_string()
                     for s in range(a.rank)]
    scaled = [(TWO_PI * m1.form.coeff((s,))).to_string()
              for s in range(a.rank)]
    results = {"theta": theta_strings, "m1_times_2pi": scaled,
               "max_deviation": check["max_deviation"]}
    residuals = {"modular_identity": check["max_deviation"],
                 "theta_closedness": theta.closedness_residual}
    return results, residuals, {"modular_identity": 1e-8}, 0


_FLAGS = {
    "--point": dict(default=None, help="comma-separated chart coordinates"),
    "--samples": dict(type=int, default=50),
    "--tol": dict(type=float, default=None),
    "--k": dict(type=int, default=None),
    "--path": dict(default=None, help="path description file (JSON)"),
    "--steps": dict(type=int, default=200),
}

# each subcommand: its handler and the flags it reads besides --spec and
# --seed; any other flag is a usage error
_COMMANDS = {
    "validate": (_cmd_validate, ("--samples", "--tol")),
    "rank": (_cmd_rank, ("--point",)),
    "isotropy": (_cmd_isotropy, ("--point", "--tol")),
    "linearize": (_cmd_linearize, ("--point", "--tol")),
    "differential": (_cmd_differential, ()),
    "curvature": (_cmd_curvature, ()),
    "torsion": (_cmd_torsion, ()),
    "transport": (_cmd_transport, ("--path", "--steps", "--tol")),
    "holonomy": (_cmd_transport, ("--path", "--steps", "--tol")),
    "classes": (_cmd_classes, ("--k",)),
    "modular": (_cmd_modular, ()),
}


def _build_parser():
    parser = _Parser(prog="algebroidlab",
                     description="algebroid computations on chart data")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True,
                       help="algebroid description file (JSON)")
        p.add_argument("--seed", type=int, default=0)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("no command given")
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
            raise UsageError("--tol must be a finite number >= 0")
        doc, digest = _read_json(args.spec)
        results, residuals, tolerances, code = \
            _COMMANDS[args.command][0](algebroid_from_dict(doc), args)
    except UsageError as exc:
        _emit({"error": "usage: %s" % exc})
        return 1
    except ClosednessFailureError as exc:
        _emit({"error": str(exc)})
        return 2
    except AlgebroidError as exc:
        _emit({"error": str(exc)})
        return 1
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        _emit({"error": "%s: %s" % (type(exc).__name__, exc)})
        return 1
    if not all(math.isfinite(v) for v in residuals.values()):
        code = 2
    _emit({
        "schema": SCHEMA,
        "command": args.command,
        "input_digest": digest,
        "results": results,
        "residuals": residuals,
        "tolerances": tolerances,
        "seed": args.seed,
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
