"""Self-tests of the benchmark itself (not part of the package test suite).

    python -m pytest perfbench/check_bench.py

They run every workload once, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.BUILDERS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def worker_environment(monkeypatch):
    # CLI children import the package from src/ with one BLAS thread
    for key, value in run.worker_env().items():
        monkeypatch.setenv(key, value)


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic_per_seed(name, tmp_path):
    build = workloads.BUILDERS[name]
    first = build(5, ROOT, tmp_path)
    again = build(5, ROOT, tmp_path)
    other = build(6, ROOT, tmp_path)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert [op.name for op in first.ops] == [op.name for op in other.ops]


def test_cli_batch_covers_every_subcommand_and_golden(tmp_path):
    workload = workloads.BUILDERS["cli_batch"](5, ROOT, tmp_path)
    calls = workload.cli.calls
    assert {argv[0] for argv in calls} == {
        "validate", "rank", "isotropy", "linearize", "differential",
        "curvature", "torsion", "transport", "holonomy", "classes", "modular"}
    assert {(argv[0], argv[2]) for argv in calls} >= set(workloads.GOLDEN)
    # every call runs twice per pass, so repeats can be compared
    assert len(workload.ops) == 2 * len(calls)


@pytest.mark.parametrize("name", NAMES)
def test_minimal_pass_has_no_failed_ops(name, tmp_path):
    workload = workloads.BUILDERS[name](7, ROOT, tmp_path)
    res = worker.run_passes(workload, 0)
    assert res["passes"] == 1
    assert res["attempted"] == len(workload.ops)
    assert res["failed"] == 0


def test_reference_speed_scales_every_time(monkeypatch, tmp_path):
    # the reference loop reads twice its nominal time: the core runs at
    # half speed, so every scaled time is half the measured one
    monkeypatch.setattr(worker, "reference_loop",
                        lambda: 2.0 * worker.REF_LOOP_S)
    workload = workloads.BUILDERS["transport_paths"](7, ROOT, tmp_path)
    res = worker.run_passes(workload, 0)
    assert res["ref_latencies"] == pytest.approx(
        [0.5 * t for t in res["latencies"]])
    assert res["ref_busy_s"] == pytest.approx(0.5 * res["busy_s"])


def test_traced_self_times_reconcile_with_wall_time(tmp_path):
    workload = workloads.BUILDERS["poly_symbolic"](8, ROOT, tmp_path)
    original_init = workloads_field_init()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        res = worker.run_passes(workload, 0, tracer)
    finally:
        restore()
    assert workloads_field_init() is original_init
    assert res["failed"] == 0
    layer = spans.summarize(tracer, res["passes"], res["busy_s"])
    selfs = {k: v for k, v in layer.items() if k.endswith(".self_s")}
    assert set(selfs) == {layer_name + ".self_s" for layer_name
                          in spans.LAYERS + ("fields",)}
    assert all(v >= -1e-6 for v in selfs.values())
    remainder = layer["trace.remainder_s"]
    assert sum(selfs.values()) + remainder == pytest.approx(layer["trace.wall_s"])
    # the remainder is the benchmark's own glue inside the timed ops
    assert 0.0 <= remainder < 0.1 * layer["trace.wall_s"]
    assert layer["calculus.differential_calls"] > 0
    assert layer["fields.new_calls"] > layer["fields.mul_calls"] > 0


def workloads_field_init():
    from algebroidlab.fields import ScalarField
    return ScalarField.__init__


def test_import_time_report_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:       619 |      14189 |         scipy",
        "import time:      1221 |     276266 |       scipy.linalg",
        "import time:      7997 |     284263 |     algebroidlab.transport",
        "import time:       835 |     437677 |   algebroidlab",
        "import time:      5920 |     443597 | algebroidlab.cli",
    ])
    total, scipy = worker.import_times(text)
    assert total == pytest.approx(0.443597)
    assert scipy == pytest.approx(0.276266)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(*args):
    return subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_command_reports_every_declared_metric(trace, section):
    doc = result_line(bench("--workload", "transport_paths", "--seed", "3",
                            "--seconds", "1", "--trace", trace))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    for name in declared:
        assert isinstance(doc["metrics"][name]["value"], float)


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poly_symbolic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
