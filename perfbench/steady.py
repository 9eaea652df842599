"""Run every workload with several seeds and report how steady it is.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload NAME ...]
                                [--out perfbench/steadiness.json]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

For each workload it runs ``run.py --trace 0`` once per seed (1..runs),
prints every end-to-end metric by name with its unit, and for each metric
the median and the spread: the distance between the first and third
quartile of the runs (``statistics.quantiles(values, n=4)``) as a share of
the median.  With ``--out`` it also runs ``probe_edge_index.py`` three
times and writes the figures, with the Python version, CPU count and CPU
model, as JSON.  ``--runs 1`` is the quick way to see every metric once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE_RUNS = 3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe_edge_index() -> dict:
    runs = []
    for _ in range(PROBE_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe_edge_index.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "job": "h1 X_OCT S3",
        "processes": PROBE_RUNS,
        "first_on_nerve_s": [r["first_on_nerve_s"] for r in runs],
        "after_equal_nerve_s": [s for r in runs for s in r["after_equal_nerve_s"]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            line = "  ".join(f"{n}={m['value']:.4f}{m['unit']}" for n, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {line}  failed={result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for name, vals in values.items():
            median, share = spread(vals)
            rows[name] = {"unit": units[name], "median": median, "spread": share, "values": vals}
            print(f"  {workload:<20} {name:<14} median {median:12.6f} {units[name]:<3} spread {share:.4f}")
        print(f"  {workload:<20} {'failed_share':<14} {failed / attempted:.6f} share ({failed} of {attempted} jobs)")
        summary[workload] = {"runs": args.runs, "failed_share": failed / attempted, "metrics": rows}

    if args.out is not None:
        record = {
            "command": f"python3 perfbench/steady.py --runs {args.runs} --seconds {args.seconds}",
            "environment": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "cpu_model": cpu_model(),
            },
            "workloads": summary,
            "edge_index_probe": probe_edge_index(),
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
