"""symptower benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates the workload's inputs from the seed, times the set-up in fresh
interpreters, then runs the closed loop in one child process
(``worker.py``) with the BLAS thread count and glibc's malloc thresholds
fixed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it gives the host facts.  See ``perfbench/README.md`` for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import SPAN_METRICS, kernel_metric_names  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# One BLAS thread: a single closed-loop client, and the steadiest timing on
# a shared host.  Never more than nproc.
BLAS_THREADS = 1
# glibc keeps freed memory instead of returning it to the kernel.  At its
# defaults one moser call takes some 300,000 fresh-page faults, whose cost
# moves with the host's memory load: in four paired moser-chart runs on a
# shared 2-core host the defaults were slower every time and their spread
# twice as wide.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "268435456",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
    "MALLOC_TOP_PAD_": "67108864",
}
SETUP_REPEATS = 5
# Every run, build included, must end within 180 s.
DEADLINE_S = 170.0


def layer_metric_names():
    names = ["cli.validate_spec_s", "cli.report_bytes"]
    names += [metric for metric, _, _ in SPAN_METRICS]
    names += ["tower.composite_calls"]
    names += kernel_metric_names()
    names += ["trace.solve_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith("kernel.svd_s."):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def is_count(name: str) -> bool:
    return unit_of(name) != "s"


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update(MALLOC_ENV)
    env.pop("PYTHONPATH", None)
    return env


def time_setup(documents, deadline: float) -> list:
    """Wall time of fresh interpreters importing the CLI and validating."""
    times = []
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)] + [str(d) for d in documents]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("set-up failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
        errors = json.loads(proc.stdout.strip().splitlines()[-1])
        bad = {doc: errs for doc, errs in errors.items() if errs}
        if bad:
            raise SystemExit("benchmark bug: generated documents rejected by validate: %r" % bad)
    return times


def summarize_layers(runs: list) -> tuple[dict, list]:
    """Median times over traced passes; counts must repeat exactly."""
    out, problems = {}, []
    for name in layer_metric_names():
        if name.startswith("trace."):
            continue
        values = [run[name] for run in runs]
        if is_count(name):
            if len(set(values)) != 1:
                problems.append("count %s differs between traced passes: %r" % (name, values))
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "symptower" / "cli.py").is_file():
        print("no symptower sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    runs_dir = ROOT / ".perfbench_runs"
    work = runs_dir / ("%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        documents, passes = generate(args.workload, args.seed, ROOT, work)
        setup = time_setup(documents, deadline)
        job = {
            "root": str(ROOT),
            "documents": [str(d) for d in documents],
            "passes": [[asdict(c) for c in calls] for calls in passes],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "trace_file": str(runs_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))),
        }
        (work / "job.json").write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json"), str(work / "result.json")],
            env=child_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            print("worker failed with exit code %d" % proc.returncode, file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(result["problems"])
    if args.trace:
        layers, count_problems = summarize_layers(result["layers"])
        problems += count_problems
        traced = statistics.median(result["traced_pass_s"])
        layers["trace.solve_s"] = traced
        layers["trace.overhead_s"] = traced - statistics.median(result["pass_s"])
        metrics = {name: {"value": layers[name], "unit": unit_of(name)} for name in layer_metric_names()}
    else:
        metrics = {
            "solve_s": {"value": statistics.median(result["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    for line in problems:
        print("problem: %s" % line, file=sys.stderr)
    host = dict(result["host"], blas_threads_fixed=BLAS_THREADS, malloc_env=MALLOC_ENV,
                pass_s=result["pass_s"], traced_pass_s=result["traced_pass_s"],
                setup_s=setup)
    print("host: %s" % json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
