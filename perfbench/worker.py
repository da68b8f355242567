"""One workload in one fresh process: set up, run timed passes, check.

Started by run.py. ``--spawn-time`` is the CLOCK_MONOTONIC reading taken by
the parent just before it started this process, so ``setup_s`` runs from
process start to the first timed op: interpreter start, ``import
algebroidlab`` and input generation. The last line of stdout is a JSON
document for run.py.

The end-to-end op timings are given at a fixed reference speed of the core.
On a shared host the core's speed drifts by up to 1.6x, from under a second
to minutes at a time, whatever runs on it. So before every op a fixed
pure-Python loop is timed (outside the op's clock), and each op time is
multiplied by REF_LOOP_S / (the loop's median time around that op);
``setup_s`` likewise, by the loop's median time just after set-up. The
unscaled figures and the loop's median are in the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
REF_LOOP_ITERS = 10000
# about the loop's fastest time on the 2-vCPU x86-64 host (CPython 3) that
# the bounds were set on; its median there under contention was 8.3e-4 s
REF_LOOP_S = 6.0e-4
# the speed at an op is read from the reference loops run before the
# REF_WINDOW + 1 attempts up to it and the REF_WINDOW attempts after it
REF_WINDOW = 3
# set-up is scaled by the median of this many loops run just after it
SETUP_REF_LOOPS = 9


def reference_loop():
    """Wall time of a fixed integer loop that allocates nothing the
    collector tracks, so it leaves the program's state alone."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERS):
        total += i * i
    return time.perf_counter() - t0


def run_passes(workload, seconds, tracer=None):
    """Whole passes over the op list until about ``seconds`` of wall time.

    Another pass starts only while at least half of the previous pass would
    still fit, and the first pass always runs. Each op is timed alone; its
    check runs after the clock stops. A raised exception or a failed check
    counts the op as failed; nothing is retried.

    The reference loop runs before each op, outside its clock. Each op's
    time is also given at the reference speed: multiplied by REF_LOOP_S over
    the median of the reference loops within REF_WINDOW ops of it.
    """
    durations = []   # op time of every attempt
    verified = []    # attempts whose op returned and passed its check
    ref_times = []   # the reference loop before each attempt
    attempted = failed = passes = 0

    def note_failure(op, exc):
        if failed <= 5:
            print("op %s failed: %s: %s" % (op.name, type(exc).__name__, exc),
                  file=sys.stderr)

    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for op in workload.ops:
            ref_times.append(reference_loop())
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    with tracer.op(attempted):
                        result = op.run()
            except Exception as exc:   # any failure of the op is counted
                durations.append(time.perf_counter() - t0)
                failed += 1
                note_failure(op, exc)
                continue
            durations.append(time.perf_counter() - t0)
            try:
                op.check(result)
            except Exception as exc:
                failed += 1
                note_failure(op, exc)
                continue
            verified.append(len(durations) - 1)
        passes += 1
        now = time.perf_counter()
        if now - begin + 0.5 * (now - start) >= seconds:
            break
    scaled = [d * REF_LOOP_S / statistics.median(
                  ref_times[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
              for i, d in enumerate(durations)]
    return {"latencies": [durations[i] for i in verified],
            "busy_s": sum(durations),
            "ref_latencies": [scaled[i] for i in verified],
            "ref_busy_s": sum(scaled), "ref_times": ref_times,
            "attempted": attempted, "failed": failed, "passes": passes}


def end_to_end(latencies, busy_s):
    """Verified ops per busy second and the latency percentiles."""
    lat = np.array(latencies) if latencies else np.zeros(1)
    return {
        "ops_per_s": len(latencies) / busy_s if busy_s > 0 else 0.0,
        "op_p50_s": float(np.percentile(lat, 50)),
        "op_p90_s": float(np.percentile(lat, 90)),
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------ CLI start-up parts

def _median_wall(cmd, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(text):
    """(algebroidlab.cli import s, outermost scipy import s) from the
    ``-X importtime`` report, which lists children before their parent."""
    entries = []
    for line in text.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = scipy = 0
    stack = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        outer = [n for _d, n in stack]
        if name.startswith("algebroidlab") and not any(
                n.startswith("algebroidlab") for n in outer):
            total += cumulative
        if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for n in outer):
            scipy += cumulative
        stack.append((depth, name))
    return total * 1e-6, scipy * 1e-6


STARTUP_REPEATS = 3


def cli_startup():
    """Bare interpreter start and the CLI's import cost, each a median of
    STARTUP_REPEATS fresh processes (the interpreter of two more)."""
    interp = _median_wall([sys.executable, "-c", "pass"], STARTUP_REPEATS + 2)
    imports = []
    for _ in range(STARTUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import algebroidlab.cli"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        imports.append(import_times(proc.stderr))
    return {"cli.interp_s": interp,
            "cli.import_s": statistics.median(i[0] for i in imports),
            "cli.import_scipy_s": statistics.median(i[1] for i in imports)}


def warm_main_s(calls):
    """Median wall time of in-process ``cli.main`` after one warm-up round."""
    import algebroidlab.cli as cli

    times = []
    for rnd in range(2):
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(list(argv))
                dt = time.perf_counter() - t0
            if rnd:
                times.append(dt)
    return statistics.median(times)


# ---------------------------------------------------------------- modes

def measure(workload, seconds):
    """End-to-end metrics at the reference speed, plus the unscaled ones."""
    res = run_passes(workload, seconds)
    metrics = end_to_end(res["ref_latencies"], res["ref_busy_s"])
    metrics["peak_rss_mb"] = peak_rss_mb(children=workload.cli is not None)
    unscaled = dict(end_to_end(res["latencies"], res["busy_s"]),
                    ref_loop_s=statistics.median(res["ref_times"]))
    return res, metrics, unscaled


def merge(a, b):
    if a is None:
        return b
    return {k: a[k] + b[k] for k in b}


def measure_traced(workload, seconds, seed):
    """Alternate untraced and traced passes for about ``seconds`` (at least
    one pair), so drift in machine speed hits both alike; per-layer metrics
    of the traced ones.
    """
    import spans
    from workloads import ORACLE

    cli = workload.cli is not None
    tracer = spans.Tracer()
    plain = traced = None
    oracle_s = 0.0
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        plain = merge(plain, run_passes(workload, 0))
        if cli:
            workload.cli.tracer = tracer
        else:
            restore = spans.install(tracer)
        ORACLE.seconds = 0.0
        traced = merge(traced, run_passes(workload, 0, tracer))
        oracle_s += ORACLE.seconds
        if cli:
            workload.cli.tracer = None
        else:
            restore()
        # as in run_passes: another pair only while half of one still fits
        now = time.perf_counter()
        if now - begin + 0.5 * (now - start) >= seconds:
            break

    plain_e2e = end_to_end(plain["latencies"], plain["busy_s"])
    untraced_rate = plain_e2e["ops_per_s"]
    traced_rate = end_to_end(traced["latencies"],
                             traced["busy_s"])["ops_per_s"]
    layer = {"trace.ops_per_s_untraced": untraced_rate,
             "trace.ops_per_s_traced": traced_rate,
             "trace.overhead": untraced_rate / traced_rate if traced_rate else 0.0,
             "classes.oracle_s": oracle_s / traced["passes"]}
    layer.update(spans.summarize(tracer, traced["passes"], traced["busy_s"]))
    layer.update(cli_startup())
    layer["cli.main_s"] = warm_main_s(workload.cli.calls) if cli else 0.0
    layer["cli.calls"] = float(len(workload.ops)) if cli else 0.0
    # what fresh-process start, import and warm main leave of the median call
    layer["cli.p50_remainder_s"] = (plain_e2e["op_p50_s"]
                                    - layer["cli.interp_s"]
                                    - layer["cli.import_s"]
                                    - layer["cli.main_s"]) if cli else 0.0
    spans.write_spans(tracer, SCRATCH / ("spans-%s-seed%d.jsonl"
                                         % (workload.name, seed)))
    res = merge(plain, traced)
    res["passes"] = [plain["passes"], traced["passes"]]
    return res, layer


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import algebroidlab  # noqa: F401  (set-up includes the package import)
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workload = workloads.BUILDERS[args.workload](args.seed, ROOT, SCRATCH)
    setup_s = time.monotonic() - args.spawn_time
    ref_s = statistics.median(reference_loop()
                              for _ in range(SETUP_REF_LOOPS))
    doc = {"setup_s": setup_s * REF_LOOP_S / ref_s,
           "setup_unscaled_s": setup_s, "digest": workload.digest,
           "ops_per_pass": len(workload.ops),
           "versions": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "scipy": getattr(sys.modules.get("scipy"),
                                         "__version__", None)}}
    if not args.setup_only:
        if args.trace:
            res, metrics = measure_traced(workload, args.seconds, args.seed)
        else:
            res, metrics, doc["unscaled"] = measure(workload, args.seconds)
            metrics["setup_s"] = doc["setup_s"]
            doc["samples"] = len(res["latencies"])
            lat = np.array(res["ref_latencies"])
            doc["beyond_p90"] = int(np.sum(lat > np.percentile(lat, 90)))
        doc.update(metrics=metrics, attempted=res["attempted"],
                   failed=res["failed"], passes=res["passes"])
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
