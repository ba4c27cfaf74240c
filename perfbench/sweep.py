"""Run the benchmark over several seeds and summarize every metric.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 0-9 [--workloads a,b] [--trace 0|1]
                               [--seconds s] [--out summary.json]

The workloads and run length default to those in ``BENCHMARK.json``.
Runs ``run.py`` once per workload and seed, one run at a time, and prints
(or writes) per workload and metric the ten values, their median, first
and third quartiles and the spread (quartile distance over median), the
statistics the benchmark's bounds are judged by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                        help="comma-separated, from: %s" % ", ".join(WORKLOADS))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, hosts = [], []
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed:\n%s" % (workload, seed, proc.stderr), file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            hosts.append(json.loads(lines[-2].partition(": ")[2]))
            print("%s seed %d: %s" % (workload, seed, json.dumps(result["metrics"])), file=sys.stderr)
        names = runs[0]["metrics"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "host": {k: v for k, v in hosts[0].items() if not k.endswith("pass_s") and k != "setup_s"},
            "metrics": {
                name: dict(summarize([r["metrics"][name]["value"] for r in runs]),
                           unit=runs[0]["metrics"][name]["unit"])
                for name in names
            },
        }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
