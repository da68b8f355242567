"""Seeded inputs, timed operations and their checks for each workload.

A workload is built once per process (that is the set-up) and yields one
pass: a fixed list of operations. The runner repeats whole passes, so every
pass does the same work. Each operation has a ``run`` callable, which is
timed, and a ``check`` callable, which gets the result after the clock has
stopped and raises ``CheckFailed`` (or anything else) when the result is
wrong.

Only the seed changes between runs. It changes numbers, never the shape of
the work: the same algebra types, ranks, polynomial degrees and op kinds
appear in the same order for every seed, so timings of two seeds compare.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
REL_TOL = 1e-9          # relative gap allowed between two computed forms


class CheckFailed(Exception):
    """An operation returned a result that fails its correctness check."""


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    """One pass of operations plus a digest of the generated inputs."""

    def __init__(self, name, ops, inputs, cli=None):
        self.name = name
        self.ops = ops
        self.cli = cli
        blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
        self.digest = hashlib.sha256(blob.encode()).hexdigest()


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def philox(seed, tag):
    """Counter-based generator keyed by the run seed and a stream tag."""
    key = np.array([int(seed) % 2**64, zlib.crc32(tag.encode())],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ------------------------------------------------------------ polynomials

def poly_str(terms, labels):
    """Expression text for {exponent tuple: integer or float coefficient}."""
    parts = []
    for exps, c in sorted(terms.items()):
        if c == 0:
            continue
        factors = []
        for lab, e in zip(labels, exps):
            if e == 1:
                factors.append(lab)
            elif e > 1:
                factors.append("%s^%d" % (lab, e))
        mag = abs(c)
        mag_text = repr(int(mag)) if float(mag).is_integer() else repr(float(mag))
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = mag_text + "*" + "*".join(factors)
        else:
            body = mag_text
        sign = "-" if c < 0 else "+"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(" %s %s" % (sign, body))
    return "".join(parts) if parts else "0"


def monomials(m, max_deg):
    return [e for e in itertools.product(range(max_deg + 1), repeat=m)
            if sum(e) <= max_deg]


def nonzero_ints(gen, n, high):
    """n integers with 1 <= |v| <= high and random signs."""
    mags = gen.integers(1, high + 1, size=n)
    signs = gen.choice([-1, 1], size=n)
    return [int(v) for v in mags * signs]


def linear_terms(coeffs, m):
    """{exponents: c} for sum_j coeffs[j] * x_j."""
    out = {}
    for j, c in enumerate(coeffs):
        if c:
            e = [0] * m
            e[j] = 1
            out[tuple(e)] = int(c)
    return out


# -------------------------------------------------------- Lie algebra data

def structure_constants(basis):
    """c[s, t, u] with [B_s, B_t] = sum_u c[s, t, u] B_u for matrix bases."""
    n = len(basis)
    flat = np.array([b.ravel() for b in basis]).T
    c = np.zeros((n, n, n))
    for s in range(n):
        for t in range(n):
            comm = basis[s] @ basis[t] - basis[t] @ basis[s]
            coords, *_ = np.linalg.lstsq(flat, comm.ravel(), rcond=None)
            c[s, t] = np.round(coords)
    return c


def unit(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def sl_basis(n):
    basis = [unit(n, i, i) - unit(n, i + 1, i + 1) for i in range(n - 1)]
    basis += [unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    return basis


def so3_basis():
    return [unit(3, 2, 1) - unit(3, 1, 2), unit(3, 0, 2) - unit(3, 2, 0),
            unit(3, 1, 0) - unit(3, 0, 1)]


def direct_sum(c1, c2):
    n1, n2 = c1.shape[0], c2.shape[0]
    c = np.zeros((n1 + n2,) * 3)
    c[:n1, :n1, :n1] = c1
    c[n1:, n1:, n1:] = c2
    return c


ALGEBRAS = {
    "aff1": structure_constants([unit(2, 0, 0), unit(2, 0, 1)]),
    "so3": structure_constants(so3_basis()),
    "sl2": structure_constants(sl_basis(2)),
    "sl3": structure_constants(sl_basis(3)),
    "gl2": structure_constants([unit(2, i, j) for i in range(2)
                                for j in range(2)]),
}
ALGEBRAS["so3+so3"] = direct_sum(ALGEBRAS["so3"], ALGEBRAS["so3"])
ALGEBRAS["sl2+sl2"] = direct_sum(ALGEBRAS["sl2"], ALGEBRAS["sl2"])


def unimodular(gen, n):
    """Seeded integer matrix of determinant +-1 and its integer inverse.

    A random signed permutation times a fixed unit upper-triangular matrix:
    conjugating by it relabels and flips signs of one fixed conjugate, so
    every seed gives polynomials with the same number of terms."""
    upper = np.eye(n) + np.eye(n, k=1)
    signs = gen.choice([-1.0, 1.0], size=n)
    p = (np.eye(n)[gen.permutation(n)] * signs[:, None]) @ upper
    q = np.round(np.linalg.inv(p))
    if not np.array_equal(p @ q, np.eye(n)):
        raise RuntimeError("unimodular inverse is not integral")
    return p, q


def conjugate_constants(c, p, q):
    """Constants in the basis e'_a = sum_s p[a, s] e_s, exactly antisymmetric."""
    out = np.einsum("as,bt,stu,uv->abv", p, p, c, q)
    out = np.round(out)
    return 0.5 * (out - np.swapaxes(out, 0, 1))


# --------------------------------------------------------- form comparison

def require_same(u, v, what):
    """Coefficient dicts {key: ScalarField} agree to REL_TOL times their scale.

    Forms are compared by coefficients, so forms over two instances of the
    same algebroid (each op builds its own) can be compared."""
    gap, scale = 0.0, 1.0
    for key in set(u) | set(v):
        a, b = u.get(key), v.get(key)
        diff = a if b is None else (-b if a is None else a - b)
        gap = max(gap, diff.max_abs_coeff())
        for f in (a, b):
            if f is not None:
                scale = max(scale, f.max_abs_coeff())
    require(gap <= REL_TOL * scale, "%s: gap %.3e at scale %.3e" % (what, gap, scale))


def negated(coeffs):
    return {key: -f for key, f in coeffs.items()}


def check_m1(al, a, sec):
    """The first modular class is closed and equals theta / 2 pi."""
    require(sec.closedness_residual <= 1e-8, "m1 not closed")
    theta = al.modular_cocycle(a).form.scale(1.0 / TWO_PI)
    require_same(sec.form.coeffs, theta.coeffs, "m1 against modular cocycle")


# ============================================================ cli_batch

GOLDEN = {
    ("validate", "tests/data/so3_action.json"): "validate_so3_action.json",
    ("modular", "tests/data/aff1.json"): "modular_aff1.json",
    ("validate", "tests/data/broken.json"): "validate_broken.json",
}


def so3_action_spec(gen=None):
    """so(3) acting on R^3 by rotations, after a seeded integer linear
    coordinate change y = P x (none without gen); the fields stay linear
    with integer coefficients."""
    p, q = unimodular(gen, 3) if gen is not None else (np.eye(3), np.eye(3))
    labels = ("x1", "x2", "x3")
    fields = []
    for rotation in so3_basis():
        b = p @ rotation @ q
        fields.append([poly_str(linear_terms(b[i], 3), labels)
                       for i in range(3)])
    # linear vector fields bracket with the opposite sign of their matrices
    constants = (-ALGEBRAS["so3"]).tolist()
    return {"kind": "transformation",
            "params": {"dimension": 3, "constants": constants,
                       "fields": fields}}


def poisson_spec(gen, algebra):
    """Linear Poisson structure on the dual of a conjugated Lie algebra."""
    base = ALGEBRAS[algebra]
    n = base.shape[0]
    p, q = unimodular(gen, n)
    c = conjugate_constants(base, p, q)
    labels = tuple("x%d" % (i + 1) for i in range(n))
    biv = [[poly_str(linear_terms(c[i, j], n), labels) for j in range(n)]
           for i in range(n)]
    return {"kind": "poisson", "params": {"dimension": n, "bivector": biv}}


def heisenberg_spec(gen, m, rank=3):
    """Heisenberg-type bundle, [e1, e2] = p(x) e3 with deg p <= 2; at rank 4
    also [e1, e4] = g(x) e4 with g linear, which keeps Jacobi."""
    labels = tuple("x%d" % (i + 1) for i in range(m))
    bracket = [[["0"] * rank for _ in range(rank)] for _ in range(rank)]

    def put(s, t, u, terms):
        bracket[s][t][u] = poly_str(terms, labels)
        bracket[t][s][u] = poly_str({e: -c for e, c in terms.items()}, labels)

    quad = monomials(m, 2)
    put(0, 1, 2, dict(zip(quad, nonzero_ints(gen, len(quad), 3))))
    if rank == 4:
        lin = monomials(m, 1)
        put(0, 3, 3, dict(zip(lin, nonzero_ints(gen, len(lin), 3))))
    return {"kind": "lie_algebra_bundle",
            "params": {"dimension": m, "rank": rank, "bracket": bracket}}


def cli_batch(seed, root, scratch):
    """Round-robin of all subcommands over the repository's test specs and
    seeded generated specs. Every distinct call appears twice per pass, so
    a second call can be compared byte for byte with the first."""
    gen = philox(seed, "cli_batch")
    data = "tests/data"
    spec_dir = Path(scratch) / ("cli-seed%d" % seed)
    spec_dir.mkdir(parents=True, exist_ok=True)

    specs = {
        "so3_conj": so3_action_spec(gen),
        "poisson_sl2": poisson_spec(gen, "sl2"),
        "heis2": heisenberg_spec(gen, 2),
    }
    # an isotropy point on the rotation axis and a generic point
    axis = [float(v) for v in nonzero_ints(gen, 3, 3)]
    generic = [float(v) for v in np.round(gen.uniform(-2.0, 2.0, 3), 3)]
    # a closed polynomial loop on the plane: gamma(0) = gamma(1)
    a, b = nonzero_ints(gen, 2, 3)
    loop = {"segments": [{
        "t0": 0.0, "t1": 1.0,
        "gamma": [poly_str({(1,): a, (2,): -a}, ("t",)),
                  poly_str({(2,): b, (3,): -b}, ("t",))],
        "coeffs": [poly_str({(0,): a, (1,): -2 * a}, ("t",)),
                   poly_str({(1,): 2 * b, (2,): -3 * b}, ("t",))]}]}
    written = {}
    for name, doc in list(specs.items()) + [("loop_gen", loop)]:
        path = spec_dir / (name + ".json")
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path.write_text(text)
        written[name] = os.path.relpath(path, root)
    so3 = data + "/so3_action.json"
    point = lambda p: ",".join(repr(v) for v in p)
    calls = [
        (["validate", "--spec", so3, "--samples", "50"], 0),
        (["rank", "--spec", written["so3_conj"], "--point=" + point(generic)], 0),
        (["isotropy", "--spec", so3, "--point=" + point(axis)], 0),
        (["linearize", "--spec", so3, "--point", "0,0,0"], 0),
        (["differential", "--spec", written["poisson_sl2"]], 0),
        (["curvature", "--spec", written["heis2"]], 0),
        (["torsion", "--spec", written["so3_conj"]], 0),
        (["transport", "--spec", data + "/tangent2.json",
          "--path", data + "/arc_plane.json", "--tol", "1e-10"], 0),
        (["holonomy", "--spec", data + "/tangent2.json",
          "--path", written["loop_gen"], "--steps", "100"], 0),
        (["classes", "--spec", written["so3_conj"], "--k", "1"], 0),
        (["modular", "--spec", data + "/aff1.json"], 0),
        (["validate", "--spec", data + "/broken.json"], 2),
    ]
    for argv, _code in calls:
        if "--seed" not in argv:
            argv += ["--seed", "0"]
    runner = CliRunner(root, scratch, [c[0] for c in calls])
    first = {}
    ops = []
    for _rep in range(2):
        for argv, code in calls:
            ops.append(cli_op(runner, argv, code, first))
    inputs = {"calls": runner.calls,
              "files": {k: (Path(root) / v).read_text()
                        for k, v in sorted(written.items())}}
    return Workload("cli_batch", ops, inputs, cli=runner)


class CliRunner:
    """Runs one CLI call in a fresh interpreter. With a tracer set, the call
    goes through spans.py, which traces it in the child, and the child's
    spans are added to the tracer under the current op."""

    def __init__(self, root, scratch, calls):
        self.root = root
        self.calls = calls
        self.tracer = None
        self.trace_file = Path(scratch) / "cli-child-spans.json"

    def __call__(self, argv):
        if self.tracer is None:
            return subprocess.run(
                [sys.executable, "-m", "algebroidlab.cli"] + argv,
                cwd=self.root, capture_output=True, check=False)
        env = dict(os.environ, PERFBENCH_TRACE_OUT=str(self.trace_file))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("spans.py"))] + argv,
            cwd=self.root, capture_output=True, check=False, env=env)
        self.tracer.absorb(json.loads(self.trace_file.read_text()),
                           self.tracer.op_id)
        return proc


def cli_op(runner, argv, want_code, first):
    key = tuple(argv)
    golden = GOLDEN.get((argv[0], argv[2]))
    root = runner.root

    def run():
        return runner(argv)

    def check(proc):
        require(proc.returncode == want_code,
                "%s exit %d, want %d" % (argv[0], proc.returncode, want_code))
        doc = json.loads(proc.stdout)
        require(doc.get("schema") == "algebroidlab/1", "schema tag missing")
        require(doc.get("command") == argv[0], "wrong command in report")
        if golden is not None:
            want = (Path(root) / "tests/data/golden" / golden).read_bytes()
            require(proc.stdout == want, "golden report differs: " + golden)
        if key in first:
            require(proc.stdout == first[key], "repeat call not byte-identical")
        else:
            first[key] = proc.stdout

    return Op("cli." + argv[0], run, check)


# ====================================================== classes_numeric

def classes_numeric(seed, root, scratch):
    """Conjugates of sl(3) and of rank-6 semisimple algebras over a point,
    each with three seeded constant E-connections kept for the whole run."""
    import algebroidlab as al

    gen = philox(seed, "classes_numeric")
    # 40 ops: the four rank-6 blocks put the median inside their
    # chern_weil and secondary ops, and the 90th percentile four ops from
    # the top, inside the three rank-8 chern_weil ops, away from the edge
    # between them and the three far slower rank-8 ops above
    blocks = ["sl3", "so3+so3", "sl2+sl2", "so3+so3", "sl2+sl2"]
    ops = []
    inputs = []
    for algebra in blocks:
        base = ALGEBRAS[algebra]
        r = base.shape[0]
        p, q = unimodular(gen, r)
        c = conjugate_constants(base, p, q)
        symbols = [gen.uniform(-1.0, 1.0, size=(r, r, r)) for _ in range(3)]
        inputs.append({"algebra": algebra, "constants": c.tolist(),
                       "symbols": [s.tolist() for s in symbols]})
        ops += class_block(al, algebra, c, symbols)
    return Workload("classes_numeric", ops, inputs)


def class_block(al, algebra, constants, symbols):
    a = al.algebroid_from_dict({"kind": "lie_algebra",
                                "params": {"constants": constants.tolist()}})
    c0, c1, c2 = (al.build_connection(a, "E", s) for s in symbols)
    q = c0.q
    poly = al.InvariantPolynomial
    done = {}   # results of earlier ops in this pass
    refs = {}   # check-only references, computed once per run

    def ref(key, fn):
        if key not in refs:
            refs[key] = fn()
        return refs[key]

    def earlier(key, fn):
        return done[key] if key in done else fn()

    ops = []
    for k in (1, 2, 3):
        def run(k=k):
            return al.chern_weil(a, c1, poly(k, q))

        def check(form, k=k):
            done[("cw", k)] = form
            require_same(al.differential(form).coeffs, {},
                         "d of primary form k=%d" % k)
        ops.append(Op("chern_weil.k%d.%s" % (k, algebra), run, check))

    for k in (2, 3):
        def run(k=k):
            return al.transgression_form(c1, c0, poly(k, q))

        def check(form, k=k):
            done[("tf", k)] = form
            cw1 = earlier(("cw", k), lambda: al.chern_weil(a, c1, poly(k, q)))
            cw0 = ref(("cw0", k), lambda: al.chern_weil(a, c0, poly(k, q)))
            require_same(al.differential(form).coeffs, (cw1 - cw0).coeffs,
                         "transgression identity k=%d" % k)
        ops.append(Op("transgression.k%d.%s" % (k, algebra), run, check))

    def run_triple():
        return al.secondary_triple(a, c2, c1, c0, poly(3, q))

    def check_triple(form):
        p3 = poly(3, q)
        t10 = earlier(("tf", 3), lambda: al.transgression_form(c1, c0, p3))
        t20 = ref("t20", lambda: al.transgression_form(c2, c0, p3))
        t21 = ref("t21", lambda: al.transgression_form(c2, c1, p3))
        require_same(al.differential(form).coeffs, (t10 - t20 + t21).coeffs,
                     "triple identity")
    ops.append(Op("triple.k3." + algebra, run_triple, check_triple))

    ops.append(Op("secondary.k1." + algebra,
                  lambda: al.secondary_class(a, 1),
                  lambda sec: check_m1(al, a, sec)))

    def check_m3(sec):
        require(not sec.overflow, "m3 overflowed")
        oracle = ORACLE.time(al.lie_algebra_secondary, constants, 3)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        worst = 0.0
        for key in itertools.combinations(range(a.rank), 5):
            value = sec.form.coeff(key).evaluate(())
            worst = max(worst, abs(value - oracle[key]))
        require(worst <= 1e-9 * scale, "m3 differs from oracle by %.3e" % worst)
    ops.append(Op("secondary.k3." + algebra,
                  lambda: al.secondary_class(a, 3), check_m3))
    return ops


class _Stopwatch:
    """Accumulates the time spent in one check-side callable."""

    def __init__(self):
        self.seconds = 0.0

    def time(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - t0


ORACLE = _Stopwatch()


# ======================================================== poly_symbolic

def poly_symbolic(seed, root, scratch):
    """Four seeded families of polynomial algebroids; every op builds its
    algebroid afresh from the generated description."""
    import algebroidlab as al

    gen = philox(seed, "poly_symbolic")
    # 58 ops. Seven transgressions sit far above the rest: four of rank 3
    # or 4 at 0.6-0.9 s, then the three heisenberg1_r4 ones at about 0.2 s.
    # The 90th percentile falls inside those three, so it is their median
    # over many samples, not the tail of one op's samples at the edge of a
    # group; the three also carry the non-vacuous rank-4 identity.
    cases = [
        ("so3_action", so3_action_spec(gen), None),
        ("poisson_aff1", poisson_spec(gen, "aff1"), None),
        ("poisson_sl2", poisson_spec(gen, "sl2"), None),
        ("poisson_gl2", poisson_spec(gen, "gl2"), None),
        ("heisenberg1", heisenberg_spec(gen, 1), None),
        ("heisenberg2_r4", heisenberg_spec(gen, 2, rank=4), None),
        ("heisenberg1_r4", heisenberg_spec(gen, 1, rank=4), None),
        ("heisenberg1_r4b", heisenberg_spec(gen, 1, rank=4), None),
        ("heisenberg1_r4c", heisenberg_spec(gen, 1, rank=4), None),
        ("tangent3", {"kind": "tangent", "params": {"dimension": 3}},
         unipotent_change(gen, 3)),
    ]
    ops = []
    inputs = []
    for label, spec, change in cases:
        case = symbolic_case(al, gen, label, spec, change)
        inputs.append({"label": label, "spec": spec, "change": change,
                       "forms": case["forms_in"], "symbols": case["sym_in"]})
        ops += case["ops"]
    return Workload("poly_symbolic", ops, inputs)


def unipotent_change(gen, m):
    """Upper unitriangular frame change with degree-1 integer entries."""
    labels = tuple("x%d" % (i + 1) for i in range(m))
    mat = [["1" if i == j else "0" for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            terms = dict(zip(monomials(m, 1), nonzero_ints(gen, m + 1, 2)))
            mat[i][j] = poly_str(terms, labels)
    return mat


def symbolic_case(al, gen, label, spec, change):
    from algebroidlab.fields import ScalarField

    probe = build_symbolic(al, spec, change)
    r, m = probe.rank, probe.dimension
    q = r + m
    forms_in = {}
    for deg in range(min(r, 2) + 1):
        forms_in[deg] = [
            [list(key), [[list(e), int(c)] for e, c in
                         zip(monomials(m, 2),
                             gen.integers(-3, 4, size=len(monomials(m, 2))))]]
            for key in itertools.combinations(range(r), deg)]
    sym_in = [degree1_symbols(gen, r, q, m) for _ in range(2)]
    val_seed = int(gen.integers(0, 2**31))
    refs = {}

    def fresh():
        return build_symbolic(al, spec, change)

    def forms(a):
        out = []
        for deg, entries in forms_in.items():
            coeffs = {tuple(key): ScalarField(a.chart, {tuple(e): c
                                                        for e, c in poly})
                      for key, poly in entries}
            out.append(al.AForm(a, deg, coeffs))
        return out

    def run_validate():
        return al.validate(fresh(), n_samples=50, seed=val_seed)

    def check_validate(rep):
        require(rep.passed, "validate failed: %r" % (rep,))

    def run_dd():
        a = fresh()
        return [al.differential(al.differential(w)) for w in forms(a)]

    def check_dd(dds):
        for dd in dds:
            require_same(dd.coeffs, {}, "d(d(w))")

    def run_curv():
        conn = al.basic_connection(fresh())
        return al.curvature(conn), al.local_curvature(conn)

    def check_curv(pair):
        coord, local = pair
        worst = 0.0
        scale = 1.0
        for key in set(coord.coeffs) | set(local.coeffs):
            x, y = coord.coeff(key), local.coeff(key)
            for i in range(x.shape[0]):
                for j in range(x.shape[1]):
                    worst = max(worst, (x[i, j] - y[i, j]).max_abs_coeff())
                    scale = max(scale, x[i, j].max_abs_coeff())
        require(worst <= 1e-9 * scale, "curvature routes differ by %.3e" % worst)

    def run_modular():
        return al.modular_theorem_check(fresh(), n_points=20, seed=val_seed)

    def check_modular(rep):
        require(rep["max_deviation"] < 1e-8,
                "modular identity off by %.3e" % rep["max_deviation"])

    def run_m1():
        a = fresh()
        return a, al.secondary_class(a, 1)

    def run_tf():
        a = fresh()
        c0, c1 = (symbol_connection(al, a, "E", s) for s in sym_in)
        return al.transgression_form(c1, c0, al.InvariantPolynomial(2, q))

    def tf_refs():
        # d(lambda) = P(c1) - P(c0), which is vacuous below rank 4, and
        # lambda(c0, c1) = -lambda(c1, c0), the same segment run backwards
        if not refs:
            a = fresh()
            c0, c1 = (symbol_connection(al, a, "E", s) for s in sym_in)
            p2 = al.InvariantPolynomial(2, q)
            refs["rhs"] = (al.chern_weil(a, c1, p2)
                           - al.chern_weil(a, c0, p2)).coeffs
            refs["reverse"] = negated(al.transgression_form(c0, c1, p2).coeffs)
        return refs

    def check_tf(form):
        ref = tf_refs()
        require_same(al.differential(form).coeffs, ref["rhs"],
                     "symbolic transgression identity")
        require_same(form.coeffs, ref["reverse"], "transgression reversal")

    ops = [
        Op("validate." + label, run_validate, check_validate),
        Op("dd." + label, run_dd, check_dd),
        Op("curvature." + label, run_curv, check_curv),
        Op("modular." + label, run_modular, check_modular),
        Op("secondary.k1." + label, run_m1, lambda pair: check_m1(al, *pair)),
    ]
    if r >= 3 and label != "poisson_gl2":
        # at rank 4 and dimension 4 one transgression takes about 7 s, which
        # would make this single op most of the pass; the four Heisenberg
        # cases of rank 4 carry the non-vacuous transgression identity
        ops.append(Op("transgression.k2." + label, run_tf, check_tf))
    return {"ops": ops, "forms_in": forms_in, "sym_in": sym_in}


def build_symbolic(al, spec, change):
    a = al.algebroid_from_dict(spec)
    if change is not None:
        a = al.transform_algebroid(a, al.FrameChange(a.chart, change))
    return a


# ====================================================== transport_paths

TRANSPORT_TOL = 1e-10


def transport_paths(seed, root, scratch):
    """Polynomial loops on tangent bundles, isotropy loops and lifted
    latitude circles on the rotation action, with degree-1 connections.

    How many step doublings a transport needs depends steeply on the
    connection and the path, so the loops and connections are drawn once
    from a fixed stream and each seed moves every connection to a seeded
    signed-permutation frame; see ``gauge``. The lifted circle and the
    fixed-point elements are drawn from the seed directly."""
    import algebroidlab as al

    gen = philox(seed, "transport_paths")
    base = philox(0, "transport_paths.base")
    so3 = al.algebroid_from_dict(so3_action_spec())
    tangents = {m: al.algebroid_from_dict({"kind": "tangent",
                                           "params": {"dimension": m}})
                for m in (2, 3)}
    ops = []
    inputs = []
    for m in (2, 3, 2, 3):
        a = tangents[m]
        doc, gamma_at, coeff_at = tangent_loop(base, m)
        sym = gauge(gen, degree1_symbols(base, m, m, m, gamma_at, coeff_at))
        inputs.append({"tangent": m, "path": doc, "symbols": sym})
        ops += path_ops(al, a, doc, symbol_connection(al, a, "A", sym),
                        "tangent%d" % m)
    for at_origin in (False, True):
        if at_origin:
            point = [0.0, 0.0, 0.0]
            v = [float(x) for x in np.round(base.uniform(-1, 1, 3), 3)]
        else:
            point = [float(x) for x in nonzero_ints(base, 3, 1)]
            scale = float(base.choice([-0.5, 0.5]))
            v = [scale * x for x in point]
        doc = {"segments": [{"t0": 0.0, "t1": 1.0,
                             "gamma": [repr(x) for x in point],
                             "coeffs": [repr(x) for x in v]}]}
        sym = gauge(gen, degree1_symbols(base, 3, 3, 3,
                                         lambda t: np.array(point),
                                         lambda t: np.array(v)))
        inputs.append({"isotropy": point, "path": doc, "symbols": sym})
        ops += path_ops(al, so3, doc, symbol_connection(al, so3, "A", sym),
                        "isotropy")
    z0 = float(np.round(gen.uniform(-0.8, 0.8), 3))
    radius = float(np.round(gen.uniform(0.5, 1.5), 3))
    inputs.append({"latitude": [z0, radius]})
    ops.append(lift_op(al, so3, circle_pieces(al, z0, radius)))
    # five of the cheapest ops balance the six path builds below the median
    # against the eight tangent transports and the lift above it, so the
    # median falls among the path builds rather than between two groups
    for _ in range(5):
        v = [float(x) for x in np.round(gen.uniform(-1.5, 1.5, 3), 3)]
        inputs.append({"fixed_point": v})
        ops.append(fixed_point_op(al, so3, np.array(v)))
    return Workload("transport_paths", ops, inputs)


def tangent_loop(gen, m):
    """gamma_i(t) = x0_i + (t - t^2)(a_i + b_i t) on two segments; closed,
    with frame coefficients equal to gamma' (the anchor is the identity).
    Returns the path document and gamma, gamma' as numeric functions."""
    labels = ("t",)
    gamma, coeffs, rows = [], [], []
    for _ in range(m):
        x0 = float(np.round(gen.uniform(-1.0, 1.0), 3))
        a, b = nonzero_ints(gen, 2, 3)
        # (t - t^2)(a + b t) = a t + (b - a) t^2 - b t^3
        row = [x0, a, b - a, -b]
        rows.append(row)
        gamma.append(poly_str(dict(zip([(d,) for d in range(4)], row)), labels))
        coeffs.append(poly_str({(0,): a, (1,): 2 * (b - a), (2,): -3 * b},
                               labels))
    rows = np.array(rows, dtype=float)
    powers = lambda t: np.array([1.0, t, t * t, t ** 3])
    slopes = lambda t: np.array([0.0, 1.0, 2.0 * t, 3.0 * t * t])
    doc = {"segments": [
        {"t0": 0.0, "t1": 0.5, "gamma": gamma, "coeffs": coeffs},
        {"t0": 0.5, "t1": 1.0, "gamma": gamma, "coeffs": coeffs}]}
    return doc, lambda t: rows @ powers(t), lambda t: rows @ slopes(t)


GENERATOR_NORM = 2.0


def degree1_symbols(gen, r, q, m, gamma_at=None, coeff_at=None):
    """Symbol table [s][t][u] = [constant, coefficient of x1, ..., of xm].

    Given a path (base curve and frame coefficients as functions of t), the
    table is scaled so that the transport generator
    M(t)[u, w] = sum_s a_s(t) Gamma[s][w][u](gamma(t)) peaks at Frobenius
    norm GENERATOR_NORM on [0, 1], which keeps each transport to a few step
    doublings at TRANSPORT_TOL."""
    table = gen.uniform(-1.0, 1.0, size=(r, q, q, m + 1))
    if gamma_at is not None:
        peak = 0.0
        for t in np.linspace(0.0, 1.0, 65):
            sym = table @ np.concatenate([[1.0], gamma_at(t)])
            peak = max(peak, np.linalg.norm(np.einsum("s,swu->uw",
                                                      coeff_at(t), sym)))
        table = table * (GENERATOR_NORM / peak)
    return np.round(table, 6).tolist()


def gauge(gen, table):
    """The same connection in a bundle frame permuted and sign-flipped by a
    seeded S: each symbol matrix becomes S Gamma_s S^T, so transport becomes
    S T S^T, with the same step count and the same Richardson error."""
    table = np.array(table)
    q = table.shape[1]
    s = np.eye(q)[gen.permutation(q)] * gen.choice([-1.0, 1.0], size=q)[:, None]
    return np.einsum("vt,stuk,wu->svwk", s, table, s).tolist()


def symbol_connection(al, a, bundle, table):
    """Connection on bundle whose symbols are the degree-1 table."""
    from algebroidlab.fields import ScalarField

    r, m = a.rank, a.dimension
    q = len(table[0])
    linear = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    sym = np.empty((r, q, q), dtype=object)
    for idx in np.ndindex(r, q, q):
        vals = table[idx[0]][idx[1]][idx[2]]
        poly = {(0,) * m: vals[0]}
        poly.update(zip(linear, vals[1:]))
        sym[idx] = ScalarField(a.chart, poly)
    return al.build_connection(a, bundle, sym)


def path_ops(al, a, doc, conn, label):
    path = al.path_from_dict(a, doc)
    eye = np.eye(conn.q)
    refs = {}

    def reverse_transport():
        if "rev" not in refs:
            refs["rev"] = al.parallel_transport(
                conn, al.reverse_path(path), eye, n_steps=16,
                tol=TRANSPORT_TOL).value
        return refs["rev"]

    def check_path(p):
        require(p.residual <= 1e-8, "path residual %.3e" % p.residual)
        gap = float(np.max(np.abs(p.base_at(0.0) - p.base_at(1.0))))
        require(gap <= 1e-12, "loop does not close (%.3e)" % gap)

    def inverts(mat, what):
        gap = float(np.max(np.abs(reverse_transport() @ mat - eye)))
        require(gap <= 1e-8, "%s: reversed path does not invert (%.3e)"
                % (what, gap))

    def check_transport(res):
        require(res.error <= TRANSPORT_TOL, "Richardson error %.3e" % res.error)
        inverts(res.value, "transport")

    return [
        Op("apath." + label, lambda: al.path_from_dict(a, doc), check_path),
        Op("transport." + label,
           lambda: al.parallel_transport(conn, path, eye, n_steps=16,
                                         tol=TRANSPORT_TOL),
           check_transport),
        Op("holonomy." + label,
           lambda: al.holonomy_matrix(conn, path, n_steps=16,
                                      tol=TRANSPORT_TOL),
           lambda mat: inverts(mat, "holonomy")),
    ]


CIRCLE_PIECES = 64
CIRCLE_DEGREE = 9


def circle_pieces(al, z0, radius):
    """Piecewise Taylor polynomials of (r cos 2 pi t, r sin 2 pi t, z0), of
    degree CIRCLE_DEGREE on each of CIRCLE_PIECES equal pieces."""
    from algebroidlab.fields import ScalarField

    chart = al.transport.T_CHART
    t = ScalarField.coordinate(chart, 0)
    omega = TWO_PI
    pieces = []
    for j in range(CIRCLE_PIECES):
        t0, t1 = j / CIRCLE_PIECES, (j + 1) / CIRCLE_PIECES
        tm = 0.5 * (t0 + t1)
        th = omega * tm
        cos_f = ScalarField(chart)
        sin_f = ScalarField(chart)
        power = ScalarField.constant(chart, 1.0)
        for d in range(CIRCLE_DEGREE + 1):
            w = radius * omega ** d / math.factorial(d)
            cos_f = cos_f + (w * math.cos(th + d * math.pi / 2)) * power
            sin_f = sin_f + (w * math.sin(th + d * math.pi / 2)) * power
            power = power * (t - tm)
        pieces.append((t0, t1, [cos_f, sin_f,
                                ScalarField.constant(chart, z0)]))
    return pieces


def lift_op(al, so3, pieces):
    def check(path):
        require(path.residual < 1e-8, "lift residual %.3e" % path.residual)

    return Op("lift.latitude",
              lambda: al.lift_base_path(so3, pieces, grid=512), check)


def fixed_point_op(al, so3, v):
    refs = {}

    def check(pair):
        adp, _jac = pair
        if "hol" not in refs:
            conn = al.build_connection(so3, "A", so3.bracket)
            path = al.constant_path(so3, v, (0.0, 0.0, 0.0))
            refs["hol"] = al.holonomy_matrix(conn, path, n_steps=500)
        gap = float(np.max(np.abs(adp @ refs["hol"] - np.eye(3))))
        require(gap <= 1e-6, "fixed-point holonomy off by %.3e" % gap)

    return Op("fixed_point", lambda: al.fixed_point_holonomy(so3, v), check)


BUILDERS = {
    "cli_batch": cli_batch,
    "classes_numeric": classes_numeric,
    "poly_symbolic": poly_symbolic,
    "transport_paths": transport_paths,
}
