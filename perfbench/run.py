"""algebroidlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workloads are listed in BENCHMARK.json with the reason each
was chosen; workloads.py builds their inputs, operations and checks.

With ``--trace 0`` the result carries the end-to-end metrics: ops_per_s,
op_p50_s, op_p90_s, setup_s and peak_rss_mb. The four timings are scaled
to a fixed reference speed of the core (see worker.py); the run line keeps
them unscaled too. ``setup_s`` is the median of six fresh set-ups: five
set-up-only processes plus the measuring one.
With ``--trace 1`` it carries the per-layer metrics of a traced run, per
pass over the workload's op list; see spans.py. Failed ops are the ``failed`` count of the result, so the error
rate is ``failed / attempted``.

Each workload runs in a fresh worker process with BLAS and OpenMP limited
to one thread, one op at a time. A run line with the inputs' digest and the
platform is printed before the result and kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_worker(args, extra, deadline):
    """Start worker.py, wait for it, return its JSON document."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawn-time", repr(spawn)], cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker ran past the deadline")
    if proc.returncode != 0:
        raise WorkerError("worker exited with code %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def run_info(args, doc, spec):
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "algebroidlab").glob("*.py")))
    return {
        "workload": args.workload, "why": why[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "input_digest": doc["digest"], "ops_per_pass": doc["ops_per_pass"],
        "passes": doc["passes"], "latency_samples": doc.get("samples"),
        "samples_beyond_p90": doc.get("beyond_p90"),
        "unscaled": doc.get("unscaled"),
        "error_rate": doc["failed"] / doc["attempted"],
        **doc["versions"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: worker_env()[v] for v in THREAD_VARS},
        "git_commit": git_commit(), "src_lines": src_lines,
        "platform": platform.platform(),
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "algebroidlab" / "__init__.py",
              ROOT / "tests" / "data" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print("not a source checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, ["--setup-only"], deadline))
        doc = run_worker(args, [], deadline)
    except (WorkerError, ValueError, KeyError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    metrics = doc["metrics"]
    if not args.trace:
        setups.append(doc)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        doc["unscaled"]["setup_s"] = statistics.median(
            s["setup_unscaled_s"] for s in setups)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print("benchmark failed: no value for " + ", ".join(missing),
              file=sys.stderr)
        return 1
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    info = run_info(args, doc, spec)
    record = ROOT / ".perfbench" / ("run-%s-seed%d-trace%d.json"
                                    % (args.workload, args.seed, args.trace))
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
