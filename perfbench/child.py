"""One measured process: import the package, then run one workload.

Started by ``run.py`` as a fresh interpreter.  Its first line on stdout,
``ready``, is written as soon as ``import twistcech.cli`` returns, so the
parent can time set-up from the moment it started the process.  With
``--setup-only`` it exits there.  Otherwise it runs whole passes over the
workload's fixed job list, in order, until ``--seconds`` have passed
(at least one pass), checks every report, and writes one JSON line with
the samples.  The reference loop of ``reference.py`` runs before the first
job and after every job; each job's wall and CPU time is also given scaled
to the reference speed by the loops around it.  With ``--trace 1`` every
second pass runs under the tracer, and the line adds the traced passes'
times and layer numbers.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import MissingSource, check_imported_from_checkout, use_checkout_src  # noqa: E402

try:
    use_checkout_src()
    import twistcech.cli as cli  # noqa: E402

    check_imported_from_checkout(cli)
except (MissingSource, ImportError) as exc:
    print(f"child: {exc}", file=sys.stderr)
    raise SystemExit(2)
print("ready", flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from oracle import check, load_expected  # noqa: E402
from reference import scale, time_reference  # noqa: E402
from tracer import Tracer, per_layer_metrics, self_time_by_job  # noqa: E402
from workloads import WORKLOADS, argv_for  # noqa: E402


def run_job(argv: list[str]) -> tuple[int, str]:
    """Exit code and report text of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exit_code = cli.main(argv)
    return exit_code, buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        return 0

    jobs = WORKLOADS[args.workload]
    expected = load_expected(args.workload, jobs)
    argvs = [argv_for(job, args.seed) for job in jobs]
    # traced passes alternate with untraced ones, so machine-speed drift
    # reaches both alike and their ratio is the tracer's own cost
    tracer = Tracer() if args.trace else None
    min_passes = 2 if tracer else 1

    # per pass: (traced, wall s, cpu s, raw wall s, raw cpu s); wall and cpu
    # are scaled to the reference speed, job by job
    passes: list[tuple[bool, float, float, float, float]] = []
    job_ms, raw_job_ms, ref_wall_s, failures = [], [], [], []
    attempted = failed = 0
    ref_before = time_reference()
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        wall = cpu = raw_wall = raw_cpu = 0.0
        for job, argv, want in zip(jobs, argvs, expected):
            if traced:
                tracer.job = attempted
            attempted += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                exit_code, text = run_job(argv)
            except Exception:  # a crash is a failed job; the run goes on
                exit_code, text = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - wall0
            cpu_seconds = time.process_time() - cpu0
            ref_after = time_reference()
            scaled = scale(seconds, ref_before[0], ref_after[0])
            wall += scaled
            cpu += scale(cpu_seconds, ref_before[1], ref_after[1])
            raw_wall += seconds
            raw_cpu += cpu_seconds
            ref_wall_s.append(ref_after[0])
            ref_before = ref_after
            if not traced:
                job_ms.append(scaled * 1000.0)
                raw_job_ms.append(seconds * 1000.0)
            # checked outside the timed call, so checking costs no measured time
            problem = text if exit_code is None else check(job, want, exit_code, text, args.seed)
            if problem:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{job.name}: {problem}")
        if traced:
            tracer.uninstall()
        passes.append((traced, wall, cpu, raw_wall, raw_cpu))

    untraced = [p for p in passes if not p[0]]
    result = {
        "pass_wall_s": [p[1] for p in untraced],
        "pass_cpu_s": [p[2] for p in untraced],
        "raw_pass_wall_s": [p[3] for p in untraced],
        "raw_pass_cpu_s": [p[4] for p in untraced],
        "job_ms": job_ms,
        "raw_job_ms": raw_job_ms,
        "ref_wall_s": ref_wall_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_wall = [p[1] for p in passes if p[0]]
        result["traced_pass_wall_s"] = traced_wall
        result["layers"] = per_layer_metrics(tracer, len(traced_wall))
        result["self_s_by_job"] = self_time_by_job(tracer, lambda i: jobs[i % len(jobs)].name, len(traced_wall))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
