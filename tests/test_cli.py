"""Command-line reports: values, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from algebroidlab import classes
from algebroidlab.cli import main
from algebroidlab.sampling import _MAX_SIZE

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def run_doc(argv):
    code, text = run(argv)
    return code, json.loads(text)


def test_validate_catalog_spec():
    code, doc = run_doc(["validate", "--spec", DATA / "so3_action.json",
                         "--samples", "50"])
    assert code == 0
    assert doc["schema"] == "algebroidlab/1"
    assert doc["command"] == "validate"
    assert doc["seed"] == 0
    assert doc["results"]["pass"] is True
    assert doc["results"]["n_points"] == 50
    assert doc["residuals"] == {"anchor": 0, "antisymmetry": 0, "jacobi": 0}
    assert len(doc["input_digest"]) == 64


def test_validate_flags_broken_bracket():
    code, doc = run_doc(["validate", "--spec", DATA / "broken.json"])
    assert code == 2
    assert doc["results"]["pass"] is False
    assert doc["results"]["jacobi_pass"] is False
    assert doc["results"]["anchor_pass"] is True
    assert doc["results"]["antisymmetry_pass"] is True
    assert abs(doc["residuals"]["jacobi"] - 0.001) < 1e-12


def test_modular_report_values():
    code, doc = run_doc(["modular", "--spec", DATA / "aff1.json"])
    assert code == 0
    assert doc["results"]["theta"] == ["1", "0"]
    assert doc["results"]["m1_times_2pi"] == ["1", "0"]
    assert doc["results"]["max_deviation"] == 0
    assert doc["residuals"]["theta_closedness"] == 0


def test_rank_and_isotropy_at_pole():
    code, doc = run_doc(["rank", "--spec", DATA / "so3_action.json",
                         "--point", "0,0,1"])
    assert code == 0
    assert doc["results"]["rank"] == 2
    code, doc = run_doc(["isotropy", "--spec", DATA / "so3_action.json",
                         "--point", "0,0,1"])
    assert code == 0
    assert doc["results"]["dimension"] == 1
    basis = np.array(doc["results"]["basis"])
    assert np.allclose(np.abs(basis), [[0.0, 0.0, 1.0]], atol=1e-12)
    assert doc["results"]["constants"] == [[[0]]]
    assert doc["residuals"]["closure"] == 0


def test_linearize_at_origin():
    code, doc = run_doc(["linearize", "--spec", DATA / "so3_action.json"])
    assert code == 0
    assert doc["results"]["isotropy_dimension"] == 3
    assert doc["results"]["normal_dimension"] == 3
    c = np.array(doc["results"]["constants"])
    assert c[0, 1, 2] == -1 and c[1, 2, 0] == -1 and c[2, 0, 1] == -1


# the linearize reports at a regular point of tangent2 and at a point of
# so3_action's unit sphere, pinned as text: they do not change with the
# type linearize_at returns
LINEARIZE_TANGENT2_REGULAR = """\
{
  "command": "linearize",
  "input_digest": "ad6cfdc9f6cdff5eff3387bd8791dc6df436f11627baaf4ee777163eed9cc749",
  "residuals": {},
  "results": {
    "constants": [],
    "fields": [],
    "isotropy_dimension": 0,
    "kernel_basis": [
      [],
      []
    ],
    "normal_basis": [
      [],
      []
    ],
    "normal_dimension": 0,
    "point": [
      0.29999999999999999,
      0.10000000000000001
    ]
  },
  "schema": "algebroidlab/1",
  "seed": 0,
  "tolerances": {
    "jacobi": 9.9999999999999998e-13
  }
}
"""
LINEARIZE_SO3_SPHERE = """\
{
  "command": "linearize",
  "input_digest": "aac26f3b086beb170bc5d6c477e265fe86d5c19ec4937449ce4d909155ee6f6c",
  "residuals": {},
  "results": {
    "constants": [
      [
        [
          0
        ]
      ]
    ],
    "fields": [
      [
        "0"
      ]
    ],
    "isotropy_dimension": 1,
    "kernel_basis": [
      [
        1
      ],
      [
        0
      ],
      [
        0
      ]
    ],
    "normal_basis": [
      [
        1
      ],
      [
        0
      ],
      [
        0
      ]
    ],
    "normal_dimension": 1,
    "point": [
      1,
      0,
      0
    ]
  },
  "schema": "algebroidlab/1",
  "seed": 0,
  "tolerances": {
    "jacobi": 9.9999999999999998e-13
  }
}
"""


def test_linearize_reports_at_regular_and_orbit_points():
    for spec, point, want in (
            ("tangent2.json", "0.3,0.1", LINEARIZE_TANGENT2_REGULAR),
            ("so3_action.json", "1,0,0", LINEARIZE_SO3_SPHERE)):
        assert run(["linearize", "--spec", DATA / spec, "--point", point]) \
            == (0, want)


def test_differential_lists_frame_duals():
    code, doc = run_doc(["differential", "--spec", DATA / "aff1.json"])
    assert code == 0
    assert doc["results"]["coordinates"] == []
    assert doc["results"]["frame_duals"] == [
        {"s": 1, "t": 2, "u": 2, "value": "-1"}]


def test_torsion_entries_are_bracket_constants():
    code, doc = run_doc(["torsion", "--spec", DATA / "so3_action.json"])
    assert code == 0
    entries = {(e["s"], e["t"], e["u"]): e["value"]
               for e in doc["results"]["entries"]}
    assert len(entries) == 6
    assert entries[(2, 3, 1)] == "-1" and entries[(3, 2, 1)] == "1"
    assert entries[(1, 2, 3)] == "-1" and entries[(1, 3, 2)] == "1"


def test_curvature_of_bracket_connection_is_flat():
    code, doc = run_doc(["curvature", "--spec", DATA / "so3_action.json"])
    assert code == 0
    assert doc["results"]["entries"] == []


def test_curvature_of_rank_one_has_no_entries(tmp_path):
    spec = tmp_path / "line.json"
    spec.write_text('{"dimension": 1, "rank": 1, "anchor": [["x1"]]}')
    code, doc = run_doc(["curvature", "--spec", spec])
    assert code == 0
    assert doc["results"] == {"bundle": "A", "entries": []}


def test_transport_report_around_isotropy_loop():
    code, doc = run_doc(["transport", "--spec", DATA / "so3_action.json",
                         "--path", DATA / "loop_x.json"])
    assert code == 0
    assert doc["results"]["steps"] == 400
    want = hashlib.sha256((DATA / "loop_x.json").read_bytes()).hexdigest()
    assert doc["results"]["path_digest"] == want
    mat = np.array(doc["results"]["matrix"])
    assert np.max(np.abs(mat - np.eye(3))) < 1e-6
    assert doc["residuals"]["step_halving"] < 1e-6


def test_holonomy_needs_closed_path():
    code, doc = run_doc(["holonomy", "--spec", DATA / "tangent2.json",
                         "--path", DATA / "arc_plane.json"])
    assert code == 1
    assert "close" in doc["error"]
    code, doc = run_doc(["holonomy", "--spec", DATA / "tangent2.json",
                         "--path", DATA / "loop_plane.json"])
    assert code == 0


def test_classes_orders():
    code, doc = run_doc(["classes", "--spec", DATA / "so3_action.json",
                         "--k", "1"])
    assert code == 0
    assert doc["results"]["overflow"] is False
    assert doc["results"]["coefficients"] == []
    assert doc["residuals"]["closedness"] == 0
    code, doc = run_doc(["classes", "--spec", DATA / "so3_action.json",
                         "--k", "3"])
    assert code == 0
    assert doc["results"]["overflow"] is True
    for k in ("2", "4"):
        code, doc = run_doc(["classes", "--spec", DATA / "so3_action.json",
                             "--k", k])
        assert code == 1 and "error" in doc


def test_zero_bundle_over_a_point_runs_every_spec_subcommand():
    # classes and modular refused order 1 on it with exit 1
    spec = DATA / "zero_point.json"
    for cmd in ("validate", "rank", "isotropy", "linearize", "differential",
                "curvature", "torsion", "classes", "modular"):
        code, doc = run_doc([cmd, "--spec", spec])
        assert code == 0, (cmd, doc)
    assert doc["results"] == {"m1_times_2pi": [], "max_deviation": 0,
                              "theta": []}
    code, doc = run_doc(["classes", "--spec", spec])
    assert (doc["results"]["degree"], doc["results"]["overflow"]) == (1, True)


def test_error_documents(tmp_path):
    negative_rank = {
        "spec.json": {"dimension": 1, "rank": -2, "anchor": []},
        "bundle.json": {"kind": "lie_algebra_bundle", "params": {
            "dimension": 1, "rank": -1, "bracket": []}},
    }
    for name, spec in negative_rank.items():
        (tmp_path / name).write_text(json.dumps(spec))
        code, doc = run_doc(["validate", "--spec", tmp_path / name])
        assert code == 1
        assert doc == {"error": "rank must not be negative"}
    # structure constants that are no (n, n, n) array, and metadata that is
    # no JSON object, in generic and catalog documents
    tangent = {"kind": "tangent", "params": {"dimension": 1}}
    generic = {"dimension": 1, "rank": 1, "anchor": [["x1"]]}
    bad_specs = [
        {"kind": "lie_algebra", "params": {"constants": 5}},
        {"kind": "transformation", "params": {
            "dimension": 1, "constants": 5, "fields": [["x1"]]}},
        {"kind": "lie_algebra", "params": {
            "constants": [[[0, 0], [0]], [[0, 0], [0, 0]]]}},
        {"kind": "lie_algebra", "params": {"constants": [[[True]]]}},
        {"kind": "lie_algebra", "params": {"constants": [[["1"]]]}},
    ] + [dict(doc, metadata=meta) for doc in (tangent, generic)
         for meta in (5, "abc", [["a", 1]], None)]
    for i, spec in enumerate(bad_specs):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(json.dumps(spec))
        code, doc = run_doc(["validate", "--spec", path])
        assert code == 1 and set(doc) == {"error"}, (spec, doc)
        if "metadata" in spec:
            assert doc == {"error": "metadata must be a JSON object"}
    cases = [
        ["nonsense", "--spec", DATA / "aff1.json"],
        ["validate", "--spec", DATA / "missing.json"],
        ["validate"],
        [],
        ["transport", "--spec", DATA / "so3_action.json"],
        ["rank", "--spec", DATA / "so3_action.json", "--point", "inf,0,1"],
    ]
    for steps in ("0", "-3", "1000000000000"):
        for command in ("transport", "holonomy"):
            cases.append([command, "--spec", DATA / "so3_action.json",
                          "--path", DATA / "loop_x.json", "--steps", steps])
    # a NaN or negative tolerance is a usage error, not a failed check or a
    # refinement that never stops
    for tol in ("nan", "-1", "inf", "-inf"):
        cases.append(["validate", "--spec", DATA / "so3_action.json",
                      "--tol", tol])
        cases.append(["transport", "--spec", DATA / "so3_action.json",
                      "--path", DATA / "loop_x.json", "--tol", tol])
    for argv in cases:
        code, doc = run_doc(argv)
        assert code == 1
        assert set(doc) == {"error"}


# the flags each subcommand reads besides --spec and --seed, with a value
# each is given below
FLAG_ROWS = {
    "validate": ("--samples", "--tol"),
    "rank": ("--point",),
    "isotropy": ("--point", "--tol"),
    "linearize": ("--point", "--tol"),
    "differential": (),
    "curvature": (),
    "torsion": (),
    "transport": ("--path", "--steps", "--tol"),
    "holonomy": ("--path", "--steps", "--tol"),
    "classes": ("--k",),
    "modular": (),
}
FLAG_VALUES = {"--point": "0,0,1", "--samples": "5", "--tol": "1e-9",
               "--k": "1", "--path": DATA / "loop_x.json", "--steps": "50"}


@pytest.mark.parametrize("command", sorted(FLAG_ROWS))
def test_each_command_accepts_only_the_flags_it_reads(command):
    base = [command, "--spec", DATA / "so3_action.json"]
    if command in ("transport", "holonomy"):
        base += ["--path", DATA / "loop_x.json"]
    row = FLAG_ROWS[command]
    for flag, value in FLAG_VALUES.items():
        code, doc = run_doc(base + [flag, value])
        if flag in row:
            assert code == 0, (flag, doc)
            assert doc["command"] == command
        else:
            assert code == 1
            assert doc == {"error": "usage: unrecognized arguments: %s %s"
                           % (flag, value)}
    code, doc = run_doc(base + ["--seed", "7"])
    assert code == 0 and doc["seed"] == 7


def test_numbers_too_large_for_a_double_are_error_documents(tmp_path):
    # a 401-digit integer overflows float(); each report is an error document
    huge = 10 ** 400
    specs = [
        {"kind": "lie_algebra", "params": {"constants": [[[huge]]]}},
        {"dimension": 1, "rank": 1, "anchor": [[huge]]},
    ]
    for i, spec in enumerate(specs):
        path = tmp_path / ("huge%d.json" % i)
        path.write_text(json.dumps(spec))
        code, doc = run_doc(["validate", "--spec", path])
        assert code == 1 and set(doc) == {"error"}, doc
    path = tmp_path / "huge_path.json"
    path.write_text(json.dumps({"segments": [{
        "t0": huge, "t1": 1, "gamma": ["0", "0", "1"],
        "coeffs": ["0", "0", "0"]}]}))
    code, doc = run_doc(["transport", "--spec", DATA / "so3_action.json",
                         "--path", path])
    assert code == 1 and set(doc) == {"error"}, doc


@pytest.mark.parametrize("entry", [None, True, {}],
                         ids=["null", "true", "object"])
def test_non_number_entries_are_error_documents(tmp_path, entry):
    # a JSON entry is read as a field, an expression or a number, never as
    # the text of its Python value; each report is one error document
    want = {"error": "%s is not a field, expression or number" % (entry,)}
    numeric = [[[0, 0], [0, entry]], [[0, -1], [0, 0]]]
    specs = [
        {"dimension": 1, "rank": 1, "anchor": [[entry]]},
        {"dimension": 1, "rank": 2, "anchor": [["x1"], ["0"]],
         "bracket": [{"s": 1, "t": 2, "u": 2, "value": entry}]},
        {"kind": "poisson", "params": {
            "dimension": 2, "bivector": [["0", entry], ["-x1", "0"]]}},
        {"kind": "transformation", "params": {
            "dimension": 1, "constants": [[[0]]], "fields": [[entry]]}},
        {"kind": "lie_algebra_bundle", "params": {
            "dimension": 1, "rank": 2,
            "bracket": [{"s": 1, "t": 2, "u": 2, "value": entry}]}},
        # among numbers, where true must not be read as 1: the constants
        # are those of aff(1) when it is
        {"dimension": 2, "rank": 1, "anchor": [[0.5, entry]]},
        {"kind": "lie_algebra_bundle", "params": {
            "dimension": 1, "rank": 2, "bracket": numeric}},
        {"kind": "poisson", "params": {
            "dimension": 2, "bivector": [[0, entry], [-1, 0]]}},
        {"kind": "lie_algebra", "params": {"constants": numeric}},
        {"kind": "transformation", "params": {
            "dimension": 1, "constants": numeric,
            "fields": [["0"], ["0"]]}},
    ]
    for i, spec in enumerate(specs):
        path = tmp_path / ("spec%d.json" % i)
        path.write_text(json.dumps(spec))
        code, doc = run_doc(["validate", "--spec", path])
        assert (code, doc) == (1, want), spec
    for key, seg in itertools.product(("gamma", "coeffs"), (
            {"gamma": ["0", "0", "1"], "coeffs": ["0", "0", "0"]},
            {"gamma": [0, 0, 1], "coeffs": [0, 0, 0]})):
        seg = dict(seg, t0=0, t1=1)
        seg[key] = [entry] + seg[key][1:]
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"segments": [seg]}))
        code, doc = run_doc(["transport", "--spec", DATA / "so3_action.json",
                             "--path", path])
        assert (code, doc) == (1, want), seg


@pytest.mark.parametrize("spec, segment, want", [
    ({"dimension": True, "rank": True, "anchor": [["x1"]]}, None,
     "dimension must be an integer, got True"),
    ({"dimension": 1, "rank": True, "anchor": [["x1"]]}, None,
     "rank must be an integer, got True"),
    ({"dimension": 1, "rank": 2.5, "anchor": [["x1"], ["0"]]}, None,
     "rank must be an integer, got 2.5"),
    ({"dimension": "1", "rank": 1, "anchor": [["x1"]]}, None,
     "dimension must be an integer, got '1'"),
    ({"dimension": 1, "rank": 2, "anchor": [["x1"], ["0"]],
      "bracket": [{"s": True, "t": 2, "u": 2, "value": "1"}]}, None,
     "bracket index s must be an integer, got True"),
    ({"kind": "lie_algebra_bundle", "params": {
        "dimension": 1, "rank": 2,
        "bracket": [{"s": 1, "t": 2, "u": 1.5, "value": "1"}]}}, None,
     "bracket index u must be an integer, got 1.5"),
    ({"kind": "tangent", "params": {"dimension": False}}, None,
     "dimension must be an integer, got False"),
    (None, {"t0": False, "t1": True, "gamma": ["0", "0", "1"],
            "coeffs": ["0", "0", "0"]},
     "segment bounds must be numbers"),
], ids=["dimension", "rank", "fraction", "text", "bracket_s", "bracket_u",
        "tangent", "segment"])
def test_bools_and_fractions_are_not_integers(tmp_path, spec, segment, want):
    # JSON true and false are not 1 and 0, and 2.5 is not 2: each report is
    # one error document
    if segment is None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = ["validate", "--spec", tmp_path / "spec.json"]
    else:
        (tmp_path / "path.json").write_text(json.dumps({"segments": [segment]}))
        argv = ["transport", "--spec", DATA / "so3_action.json",
                "--path", tmp_path / "path.json"]
    assert run_doc(argv) == (1, {"error": want})


@pytest.mark.parametrize("spec, want", [
    ({"kind": "lie_algebra"}, "lie_algebra params: missing key 'constants'"),
    ({"kind": "tangent", "params": {}},
     "tangent params: missing key 'dimension'"),
    ({"kind": "poisson"}, "poisson params: missing key 'dimension'"),
    ({"kind": "poisson", "params": {"dimension": 2}},
     "poisson params: missing key 'bivector'"),
    ({"kind": "transformation", "params": {"dimension": 1}},
     "transformation params: missing key 'constants'"),
    ({"kind": "lie_algebra_bundle", "params": {"dimension": 1, "rank": 2}},
     "lie_algebra_bundle params: missing key 'bracket'"),
    ({"rank": 1, "anchor": []}, "algebroid spec: missing key 'dimension'"),
    ({"dimension": 1}, "algebroid spec: missing key 'rank'"),
    ({"dimension": 1, "rank": 2, "anchor": [["x1"], ["0"]],
      "bracket": [{"s": 1, "t": 2, "value": "1"}]},
     "bracket entry: missing key 'u'"),
], ids=["lie_algebra", "tangent", "poisson", "bivector", "transformation",
        "lie_algebra_bundle", "dimension", "rank", "bracket_entry"])
def test_missing_keys_are_named(tmp_path, spec, want):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_doc(["validate", "--spec", path]) == (1, {"error": want})


@pytest.mark.parametrize("doc, want", [
    ({"segment": []}, "path: missing key 'segments'"),
    ({"segments": [{"t0": 0, "gamma": ["0", "0", "1"],
                    "coeffs": ["0", "0", "1"]}]},
     "path segment: missing key 't1'"),
    ({"segments": [{"t0": 0, "t1": 1, "gamma": ["0", "0", "1"]}]},
     "path segment: missing key 'coeffs'"),
], ids=["segments", "t1", "coeffs"])
def test_missing_path_keys_are_named(tmp_path, doc, want):
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    assert run_doc(["transport", "--spec", DATA / "so3_action.json",
                    "--path", path]) == (1, {"error": want})


def test_oversized_input_is_refused_before_allocation(tmp_path):
    # a few bytes of JSON must not ask for a tensor of n**3 fields
    big = _MAX_SIZE + 1
    specs = [
        ({"dimension": 1, "rank": big}, "rank"),
        ({"dimension": big, "rank": 1}, "dimension"),
        ({"kind": "lie_algebra_bundle", "params": {
            "dimension": 1, "rank": big, "bracket": []}}, "rank"),
        ({"kind": "lie_algebra_bundle", "params": {
            "dimension": big, "rank": 1, "bracket": []}}, "dimension"),
        ({"kind": "tangent", "params": {"dimension": big}}, "dimension"),
        ({"kind": "poisson", "params": {
            "dimension": big, "bivector": []}}, "dimension"),
        ({"kind": "transformation", "params": {
            "dimension": big, "constants": [[[0.0]]], "fields": [[]]}},
         "dimension"),
    ]
    tracemalloc.start()
    try:
        for i, (spec, what) in enumerate(specs):
            path = tmp_path / ("spec%d.json" % i)
            path.write_text(json.dumps(spec))
            code, doc = run_doc(["validate", "--spec", path])
            assert code == 1
            assert doc == {"error": "%s %d is above the limit of %d"
                           % (what, big, _MAX_SIZE)}
        for samples in (_MAX_SIZE ** 3 + 1, 10 ** 12):
            code, doc = run_doc(["validate", "--spec", DATA / "aff1.json",
                                 "--samples", samples])
            assert code == 1
            assert doc == {"error": "ValueError: %d sample points is above "
                           "the limit of %d" % (samples, _MAX_SIZE ** 3)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_empty_or_negative_samples_are_error_documents():
    for samples in (0, -5):
        code, doc = run_doc(["validate", "--spec", DATA / "aff1.json",
                             "--samples", samples])
        assert code == 1
        assert doc == {"error": "ValueError: at least one sample point is "
                       "required"}


def test_out_of_range_seed_is_an_error_document():
    for command in ("validate", "modular"):
        for seed in (-1, 2 ** 64):
            code, doc = run_doc([command, "--spec", DATA / "aff1.json",
                                 "--seed", seed])
            assert code == 1
            assert doc == {"error": "ValueError: seed must be in [0, 2**64), "
                           "got %d" % seed}


def test_modular_computes_each_class_once(monkeypatch):
    calls = {"transgression_form": 0, "modular_cocycle": 0}
    for name in calls:
        inner = getattr(classes, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(classes, name, counted)
    code, text = run(["modular", "--spec", DATA / "aff1.json"])
    assert code == 0
    assert calls == {"transgression_form": 1, "modular_cocycle": 1}
    assert text == (GOLDEN / "modular_aff1.json").read_text()


def test_overflowing_constants_are_an_error_document_without_warnings(
        tmp_path):
    # so(3) scaled by 1e200 in a fresh process, where numpy would print its
    # RuntimeWarnings on stderr
    eps = np.zeros((3, 3, 3))
    for s, t, u in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[s, t, u], eps[t, s, u] = 1e200, -1e200
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"kind": "lie_algebra",
                                "params": {"constants": eps.tolist()}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "algebroidlab.cli", "curvature", "--spec",
         str(spec)], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "error": "bracket fails Jacobi (certified defect nan)"}


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone: with scipy unimportable, the CLI and
    # fixed_point_holonomy still work, and no scipy module gets loaded
    code = (
        "import io, sys, contextlib\n"
        "sys.modules['scipy'] = None\n"
        "import algebroidlab as al, algebroidlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = algebroidlab.cli.main(['validate', '--spec', %r])\n"
        "a = al.catalog_build('transformation', {'dimension': 1,"
        " 'constants': [[[0.0]]], 'fields': [['x1']]})\n"
        "jac = al.fixed_point_holonomy(a, [1.0])[1][0, 0]\n"
        "print(sorted(n for n in sys.modules"
        " if n.split('.')[0] == 'scipy' and sys.modules[n] is not None))\n"
        "print(status)\n"
        "print(jac)\n") % str(DATA / "so3_action.json")
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded, status, jac = out.splitlines()
    assert loaded == "[]"
    assert status == "0"
    assert abs(float(jac) - np.e) < 1e-12


def test_non_finite_residual_fails_with_a_document():
    # the anchor commutator overflows to inf - inf, so its defect is NaN
    code, doc = run_doc(["validate", "--spec", DATA / "overflow.json"])
    assert code == 2
    assert doc["results"]["pass"] is False
    assert doc["results"]["anchor_pass"] is False
    assert doc["residuals"]["anchor"] == "nan"
    # the secondary class fails its own closedness check: a failed check,
    # not unusable input
    for command in ("classes", "modular"):
        code, doc = run_doc([command, "--spec", DATA / "overflow.json"])
        assert code == 2
        assert doc == {"error": "secondary class is not closed (residual inf)"}


def test_non_finite_input_is_an_error_document(tmp_path):
    spec = tmp_path / "bad.json"
    for text in ('{"kind": "lie_algebra", "params": {"constants": [[[NaN]]]}}',
                 '{"dimension": 1, "rank": 1, "anchor": [["1e999*x1"]]}'):
        spec.write_text(text)
        code, doc = run_doc(["validate", "--spec", spec])
        assert code == 1 and set(doc) == {"error"}


def test_exponent_above_the_limit_is_an_error_document(tmp_path):
    spec = tmp_path / "big.json"
    spec.write_text('{"dimension": 1, "rank": 1, "anchor": [["x1^40000"]]}')
    for command in ("validate", "modular"):
        code, doc = run_doc([command, "--spec", spec])
        assert code == 1
        assert doc == {"error": "exponent 40000 is above the limit 32767"}


def test_bracket_entry_faults_are_error_documents(tmp_path):
    # listed opposite orientations must agree once repeats are summed, and
    # every index must name a frame section; both spec forms read entries
    def entry(s, t, u, value):
        return {"s": s, "t": t, "u": u, "value": value}

    cases = [
        ([entry(1, 2, 2, "x1"), entry(2, 1, 2, "x1")],
         "entries (1,2,2) and (2,1,2) are not opposite"),
        # the first two agree with the third only before the repeat is added
        ([entry(1, 2, 1, "x1"), entry(1, 2, 1, "1"), entry(2, 1, 1, "-x1")],
         "entries (1,2,1) and (2,1,1) are not opposite"),
        ([entry(1, 3, 1, "1")], "bracket index out of range in {'s': 1, "
         "'t': 3, 'u': 1, 'value': '1'}"),
        ([entry(0, 1, 1, "1")], "bracket index out of range in {'s': 0, "
         "'t': 1, 'u': 1, 'value': '1'}"),
        # repeats that agree once summed are a valid bracket
        ([entry(1, 2, 1, "x1"), entry(1, 2, 1, "1"),
          entry(2, 1, 1, "-x1 - 1")], None),
    ]
    for bracket, error in cases:
        specs = [{"dimension": 1, "rank": 2, "anchor": [["0"], ["0"]],
                  "bracket": bracket},
                 {"kind": "lie_algebra_bundle", "params": {
                     "dimension": 1, "rank": 2, "bracket": bracket}}]
        for spec in specs:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            code, doc = run_doc(["validate", "--spec", path])
            if error is None:
                assert code == 0 and doc["results"]["pass"] is True
            else:
                assert code == 1 and doc == {"error": error}


def test_bundle_spec_with_entry_list(tmp_path):
    spec = tmp_path / "bundle.json"
    spec.write_text(json.dumps({
        "kind": "lie_algebra_bundle",
        "params": {"dimension": 1, "rank": 3, "bracket": [
            {"s": 1, "t": 2, "u": 3, "value": "x1"}]}}))
    code, doc = run_doc(["validate", "--spec", spec])
    assert code == 0 and doc["results"]["pass"] is True


def test_bad_json_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_doc(["validate", "--spec", bad])
    assert code == 1 and "error" in doc


def test_reports_deterministic_in_process():
    sweep = [
        ["validate", "--spec", DATA / "so3_action.json"],
        ["rank", "--spec", DATA / "so3_action.json", "--point", "0,0,1"],
        ["isotropy", "--spec", DATA / "so3_action.json", "--point", "0,0,1"],
        ["linearize", "--spec", DATA / "so3_action.json"],
        ["differential", "--spec", DATA / "aff1.json"],
        ["torsion", "--spec", DATA / "so3_action.json"],
        ["curvature", "--spec", DATA / "so3_action.json"],
        ["transport", "--spec", DATA / "so3_action.json",
         "--path", DATA / "loop_x.json"],
        ["holonomy", "--spec", DATA / "so3_action.json",
         "--path", DATA / "loop_x.json"],
        ["classes", "--spec", DATA / "so3_action.json", "--k", "1"],
        ["modular", "--spec", DATA / "aff1.json"],
    ]
    for argv in sweep:
        code1, text1 = run(argv)
        code2, text2 = run(argv)
        assert code1 == code2
        assert text1 == text2


def test_golden_reports_byte_identical():
    cases = [
        (["validate", "--spec", str(DATA / "so3_action.json"),
          "--samples", "50"], "validate_so3_action.json", 0),
        (["modular", "--spec", str(DATA / "aff1.json")],
         "modular_aff1.json", 0),
        (["validate", "--spec", str(DATA / "broken.json")],
         "validate_broken.json", 2),
        (["transport", "--spec", str(DATA / "so3_action.json"),
          "--path", str(DATA / "loop_x.json"), "--tol", "1e-10"],
         "transport_so3_loop_x.json", 0),
        (["holonomy", "--spec", str(DATA / "tangent2.json"),
          "--path", str(DATA / "loop_plane.json"), "--steps", "100"],
         "holonomy_tangent2_loop_plane.json", 0),
    ]
    # a quadratic Poisson structure that is not unimodular
    quad = str(DATA / "poisson_quad.json")
    cases += [
        (["differential", "--spec", quad], "differential_poisson_quad.json", 0),
        (["curvature", "--spec", quad], "curvature_poisson_quad.json", 0),
        (["torsion", "--spec", quad], "torsion_poisson_quad.json", 0),
        (["classes", "--spec", quad, "--k", "1"],
         "classes_poisson_quad.json", 0),
        (["linearize", "--spec", quad, "--point", "1,0,0"],
         "linearize_poisson_quad.json", 0),
    ]
    for argv, golden, want_code in cases:
        cmd = [sys.executable, "-m", "algebroidlab.cli"] + argv
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == want_code
        assert second.returncode == want_code
        assert first.stdout == second.stdout
        assert first.stdout == (GOLDEN / golden).read_bytes()
