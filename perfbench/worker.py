"""Closed-loop client: one process calling ``symptower.cli.main`` back to back.

Usage: ``python3 perfbench/worker.py <job.json> <result.json>``.  The job
(written by ``run.py``) names the checkout, the generated documents, the
calls of each pass and the run length.  Passes cycle through the job's
passes and stop before the next one would, at the median pass time so far,
end after the run length.  Only the ``main()`` calls are timed; clearing
report directories, output checks and the byte-identical rerun check run
between them.  A run too short to repeat an input reruns the first one.

With tracing on, every pass repeats the first pass of the job, alternating
untraced and traced, so the per-layer counts repeat exactly and the tracing
overhead is measured on the same input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from tracing import SETUP_SPAN, Tracer  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _report_files(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


class Loop:
    def __init__(self, main):
        self.main = main
        self.first = {}  # call name -> report.json and stdout of its first run
        self.reruns = 0
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def call(self, call, tracer=None) -> tuple[float, int]:
        """Run one CLI call; returns its wall time and the report bytes it
        wrote.  Checks run untimed."""
        out = Path(call["expect"]["output"]) if "output" in call["expect"] else None
        if out is not None and out.exists():
            shutil.rmtree(out)
        buf = io.StringIO()
        idx = tracer.open("call:" + call["name"]) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.main(list(call["argv"]))
        except Exception as exc:  # a crash is a failed call; keep measuring
            code = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(idx)

        self.attempted += 1
        files = _report_files(out) if out is not None else {}
        report = None
        problems = []
        if "report.json" in files:
            try:
                report = json.loads(files["report.json"])
            except ValueError as exc:
                problems.append("unreadable report.json: %s" % exc)
        problems += CHECKS[call["check"]](call["expect"], code, report, buf.getvalue())
        seen = (files.get("report.json"), buf.getvalue())
        if call["name"] not in self.first:
            self.first[call["name"]] = seen
        else:
            self.reruns += 1
            if self.first[call["name"]] != seen:
                problems.append("rerun with the same seed changed report.json or stdout")
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (call["name"], "; ".join(problems)))
        return elapsed, sum(len(b) for b in files.values())

    def one_pass(self, calls, tracer=None) -> tuple[float, int]:
        """Wall time of the pass's calls and the report bytes they wrote."""
        results = [self.call(call, tracer) for call in calls]
        return sum(r[0] for r in results), sum(r[1] for r in results)


def traced_pass(loop: Loop, calls, documents, tracer: Tracer, run: int, cli) -> tuple[float, dict]:
    tracer.begin_run(run)
    tracer.install()
    try:
        idx = tracer.open(SETUP_SPAN)
        for doc in documents:
            cli.validate_spec(doc)
        tracer.close(idx)
        elapsed, written = loop.one_pass(calls, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.run_metrics(run)
    metrics["cli.report_bytes"] = written
    return elapsed, metrics


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    from symptower import cli

    loop = Loop(cli.main)
    passes = job["passes"]
    tracer = Tracer() if job["trace"] else None
    min_passes = 2 if tracer is not None else 1
    untraced, traced, layer_runs = [], [], []
    start = time.perf_counter()
    n = 0
    while True:
        if tracer is None:
            elapsed, _ = loop.one_pass(passes[n % len(passes)])
            untraced.append(elapsed)
        elif n % 2 == 0:
            elapsed, _ = loop.one_pass(passes[0])
            untraced.append(elapsed)
        else:
            elapsed, metrics = traced_pass(loop, passes[0], job["documents"], tracer, n, cli)
            traced.append(elapsed)
            layer_runs.append(metrics)
        n += 1
        predicted = time.perf_counter() - start + statistics.median(untraced + traced)
        if n >= min_passes and predicted > job["seconds"]:
            break
    if loop.reruns == 0:
        loop.one_pass(passes[0])

    result = {
        "host": host_facts(),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems[:20],
        "pass_s": untraced,
        "traced_pass_s": traced,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = layer_runs
        Path(job["trace_file"]).write_text(
            json.dumps({"host": result["host"], "spans": tracer.dump()}) + "\n"
        )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
