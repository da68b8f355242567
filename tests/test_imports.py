"""What importing the package and running the command line load.

``import algebroidlab`` loads the error types only; every other public
name is imported from its submodule on first use and then bound in the
package. A command line call loads only the modules its subcommand runs.
Each check runs in a fresh interpreter, since this one has loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# the package's public names and where they live
EXPORTS = {
    "algebroid": (
        "IsotropyData LieAlgebroid Linearization Section "
        "ValidationReport VectorField anchor_apply anchor_rank_at "
        "bracket_sections build_algebroid catalog_build constants_jacobiator "
        "isotropy_at linearize_at validate vector_field_bracket"),
    "calculus": "AForm CoordForm MatrixForm anchor_pullback differential wedge",
    "classes": (
        "CocycleSection InvariantPolynomial chern_weil lie_algebra_secondary "
        "modular_cocycle modular_theorem_check modular_values secondary_class "
        "secondary_triple transgression_form"),
    "connections": (
        "AConnection FrameChange TensorSection a_derivative basic_connection "
        "build_connection compatible_connection connection_matrix curvature "
        "flat_metric_connection local_curvature torsion transform_algebroid "
        "transform_symbols"),
    "fields": "Chart ScalarField parse_field",
    "specio": (
        "algebroid_from_dict algebroid_to_dict load_algebroid path_from_dict "
        "save_algebroid"),
    "transport": (
        "APath TransportResult concat_paths constant_path fixed_point_holonomy "
        "holonomy_matrix lift_base_path parallel_transport reparametrize_path "
        "reverse_path"),
}
SUBMODULES = sorted(EXPORTS) + ["cli", "errors", "sampling"]

# what every call loads, and what each subcommand adds to it
BASE = {"algebroid", "cli", "errors", "fields", "sampling", "specio"}
CALCULUS = {"calculus"}
CONNECTIONS = CALCULUS | {"connections"}
ADDS = {
    "validate": set(), "rank": set(), "isotropy": set(), "linearize": set(),
    "differential": CALCULUS,
    "curvature": CONNECTIONS, "torsion": CONNECTIONS,
    "transport": CONNECTIONS | {"transport"},
    "holonomy": CONNECTIONS | {"transport"},
    "classes": CONNECTIONS | {"classes"},
    "modular": CONNECTIONS | {"classes"},
}


def fresh(code, *args):
    """Standard output of code run in a fresh interpreter on src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


LOADED = ("sorted(m.split('.', 1)[1] for m in sys.modules"
          " if m.startswith('algebroidlab.'))")


@pytest.mark.parametrize("command", sorted(ADDS))
def test_each_subcommand_loads_only_its_modules(command):
    argv = ["--spec", str(DATA / "so3_action.json")]
    if command in ("transport", "holonomy"):
        argv += ["--path", str(DATA / "loop_x.json")]
    out = fresh(
        "import contextlib, io, json, sys\n"
        "from algebroidlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, json.loads(report.getvalue())['command'],"
        " %s]))\n" % LOADED, command, *argv)
    code, ran, loaded = json.loads(out)
    assert (code, ran) == (0, command)
    assert set(loaded) <= BASE | ADDS[command], command


@pytest.mark.parametrize("how", ["attribute", "from_import"])
def test_every_public_name_and_submodule_resolves(how):
    names = {name: mod for mod, text in EXPORTS.items()
             for name in text.split()}
    names.update((mod, None) for mod in SUBMODULES)
    out = fresh(
        "import importlib, json, sys\n"
        "import algebroidlab as al\n"
        "names = json.loads(sys.argv[1])\n"
        "listed = dir(al)\n"
        "loaded = %s\n"
        "bad = []\n"
        "for name, mod in names.items():\n"
        "    if sys.argv[2] == 'attribute':\n"
        "        got = getattr(al, name)\n"
        "    else:\n"
        "        exec('from algebroidlab import %%s as got' %% name)\n"
        "    want = importlib.import_module('algebroidlab.' + (mod or name))\n"
        "    if mod:\n"
        "        want = getattr(want, name)\n"
        "    # bound in the package on its first read\n"
        "    if got is not want or vars(al)[name] is not want:\n"
        "        bad.append(name)\n"
        "print(json.dumps([loaded, bad, sorted(set(names) - set(listed))]))\n"
        % LOADED, json.dumps(names), how)
    loaded, bad, unlisted = json.loads(out)
    assert loaded == ["errors"]
    assert bad == []
    assert unlisted == []


def test_submodule_attribute_in_a_fresh_interpreter():
    out = fresh("import algebroidlab as al\n"
                "print(al.transport.T_CHART.dimension)\n"
                "try:\n"
                "    al.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print(exc)\n"
                "print(hasattr(al, 'no_such_name'), 'no_such_name' in dir(al))\n")
    assert out.splitlines() == [
        "1", "module 'algebroidlab' has no attribute 'no_such_name'",
        "False False"]
