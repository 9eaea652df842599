"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every measurement happens in a fresh child process
(``child.py``) that drives the program only through
``twistcech.cli.main(argv)``, one job after another in a fixed order, by
one caller on one thread.  The seed goes to every job's ``--seed``.

Every time is scaled to the reference speed of ``reference.py``: the
child times a fixed reference loop before and after each job, and the
parent does so around each set-up child, and the time in between is
multiplied by ``REF_S`` over the mean of the two loop times.  A shared
host's speed moves by 20-40% between runs; the scaled times cancel that
and keep the program's own cost.  The unscaled figures are printed too.

``--trace 0`` reports the end-to-end metrics, in seconds at the reference
speed:

* ``setup_s``: from starting a child until ``import twistcech.cli``
  returns in it, the median over several children (after one warm-up
  child that may write bytecode caches);
* ``wall_s`` / ``cpu_s``: wall and process CPU seconds of one pass over the
  job list, the median over the passes of the run;
* ``job_p50_ms`` / ``job_tail_ms``: the median job time, and the job time
  at the workload's fixed tail percentile, the highest that leaves at least
  ten jobs above it in a run of the usual length;
* ``peak_rss_mb``: the measuring child's peak resident set size.

Failed jobs (wrong exit code, wrong report, a crash) go to ``failed``
out of ``attempted``; their share is printed as ``failed_share``.

``--trace 1`` runs one child whose passes alternate between untraced and
traced, and reports the per-layer metrics of ``tracer.py`` plus
``trace.overhead_ratio``, the traced ``wall_s`` over the untraced one.

Lines before the last describe the run for a reader; the last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT, SRC  # noqa: E402
from reference import REF_S, scale, time_reference  # noqa: E402
from tracer import layer_metric_units  # noqa: E402
from workloads import TAIL_PERCENTILE, WORKLOADS  # noqa: E402

CHILD = BENCH_DIR / "child.py"
SETUP_PROBES = 15
DEADLINE_S = 170.0  # the whole run, children included, ends well within 180 s
TAIL_ABOVE = 10


class ChildFailed(RuntimeError):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one child; return its set-up seconds and its JSON result.

    The result is None for a ``--setup-only`` child, which prints none.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    # children import from bytecode caches, as an installed package does;
    # the warm-up child writes them if the checkout has none yet
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *argv], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise ChildFailed("child did not finish importing the package in time")
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        if first != "ready\n":
            proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
            raise ChildFailed(f"child could not import the package (exit {proc.returncode})")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child ran past the run's deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if "--setup-only" in argv:
        return setup, None
    if not lines:
        raise ChildFailed("child printed no result")
    return setup, json.loads(lines[-1])


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Value at ``percentile`` (nearest rank) and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def job_metrics(workload: str, job_ms: list[float]) -> tuple[float, float, list[str]]:
    """Median and tail job time in ms, with notes on how they were taken.

    The median is the median over passes of each pass's median job, so each
    pass counts once; the tail is every job's time at TAIL_PERCENTILE.
    """
    per_pass = len(WORKLOADS[workload])
    passes = [job_ms[i:i + per_pass] for i in range(0, len(job_ms), per_pass)]
    p50 = statistics.median(statistics.median(p) for p in passes)
    percentile = TAIL_PERCENTILE[workload]
    tail_ms, above = tail(job_ms, percentile)
    notes = [
        f"job_p50_ms is the median over {len(passes)} passes of each pass's median job",
        f"job_tail_ms is p{percentile} of the {len(job_ms)} jobs of the run ({above} above it)",
    ]
    if above < TAIL_ABOVE:
        notes.append(f"job_tail_ms has fewer than {TAIL_ABOVE} jobs above it: the run held too few passes")
    return p50, tail_ms, notes


def timed_setup(deadline: float) -> tuple[float, float]:
    """Set-up seconds of one child, scaled and raw."""
    before = time_reference()[0]
    setup = spawn(["--setup-only"], deadline)[0]
    return scale(setup, before, time_reference()[0]), setup


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list[str]]:
    child_args = ["--workload", workload, "--seed", str(seed)]
    spawn(["--setup-only"], deadline)  # warm-up: bytecode caches, file cache
    setups = [timed_setup(deadline) for _ in range(SETUP_PROBES)]
    _, res = spawn([*child_args, "--seconds", str(seconds), "--trace", "0"], deadline)
    p50_ms, tail_ms, notes = job_metrics(workload, res["job_ms"])
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (statistics.median(res["pass_wall_s"]), "s"),
        "cpu_s": (statistics.median(res["pass_cpu_s"]), "s"),
        "job_p50_ms": (p50_ms, "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw_p50_ms, raw_tail_ms, _ = job_metrics(workload, res["raw_job_ms"])
    ref_ms = 1000.0 * statistics.median(res["ref_wall_s"])
    notes[:0] = [
        f"passes {len(res['pass_wall_s'])}, set-up samples {len(setups)}",
        f"reference loop {ref_ms:.2f} ms a run (median of {len(res['ref_wall_s'])}), "
        f"{1000.0 * REF_S:.2f} ms at the reference speed; unscaled: "
        f"setup_s {statistics.median(r for _, r in setups):.6f}, "
        f"wall_s {statistics.median(res['raw_pass_wall_s']):.6f}, "
        f"cpu_s {statistics.median(res['raw_pass_cpu_s']):.6f}, "
        f"job_p50_ms {raw_p50_ms:.3f}, job_tail_ms {raw_tail_ms:.3f}",
    ]
    return metrics, res, notes


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list[str]]:
    _, res = spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"], deadline)
    layers = dict(res["layers"])
    layers["trace.overhead_ratio"] = statistics.median(res["traced_pass_wall_s"]) / statistics.median(res["pass_wall_s"])
    metrics = {name: (layers[name], unit) for name, unit in layer_metric_units().items()}
    notes = [
        f"untraced passes {len(res['pass_wall_s'])}, traced passes {len(res['traced_pass_wall_s'])}, "
        "alternating; layer numbers are per traced pass",
    ]
    for job, row in res["self_s_by_job"].items():
        top = ", ".join(f"{name} {sec:.4f}" for name, sec in list(row.items())[:3])
        notes.append(f"self s a traced pass, {job}: {top}")
    if not layers["cech.enumerate_cocycles.validations"]:
        notes.append("cech.enumerate_cocycles.accept_ratio is 0: no cocycle was validated on this workload")
    if not layers["extensions.second_cohomology.tables"]:
        notes.append("extensions.second_cohomology.accept_ratio is 0: no table was walked on this workload")
    return metrics, res, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twistcech" / "cli.py").is_file():
        print(f"run.py: no package source at {SRC / 'twistcech'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    measure_fn = measure_traced if args.trace else measure
    try:
        metrics, res, notes = measure_fn(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6f} {unit}")
    print(f"  {'failed_share':<48} {failed / attempted:>16.6f} share ({failed} of {attempted} jobs)")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
