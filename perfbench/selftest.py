"""Self-test of the benchmark's own files.

    python3 perfbench/selftest.py

Checks, from the checkout root:

* the committed inputs are what ``gen_inputs.py`` writes;
* ``BENCHMARK.json`` names exactly the workloads of ``workloads.py`` and
  the per-layer metrics the tracer emits, with their units, and
  ``rationale.json`` maps each of those metrics once;
* after ``Tracer.install`` no module namespace, class or default argument
  of the package still reaches an unwrapped traced function;
* one pass of every workload gives byte-identical reports and equal exit
  codes with and without the tracer, and every report passes the oracle.

Takes about 15 s; exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen_inputs  # noqa: E402
from common import BENCH_DIR, ROOT, use_checkout_src  # noqa: E402
from oracle import check, load_expected  # noqa: E402
from tracer import Tracer, layer_metric_units, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, argv_for  # noqa: E402

SEED = 7


def fail(message: str) -> None:
    print(f"selftest: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_pass(cli, workload: str) -> list[tuple[int, str]]:
    outputs = []
    for job in WORKLOADS[workload]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exit_code = cli.main(argv_for(job, SEED))
        outputs.append((exit_code, buf.getvalue()))
    return outputs


def main() -> int:
    use_checkout_src()
    import twistcech.cli as cli

    if gen_inputs.main(["--check"]) != 0:
        fail("inputs are stale; run perfbench/gen_inputs.py")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != layer_metric_units():
        fail("BENCHMARK.json per_layer differs from the tracer's metrics")
    rationale = json.loads((BENCH_DIR / "rationale.json").read_text(encoding="utf-8"))
    mapped = [name for layer in rationale["layers"] for name in layer["metrics"]]
    if sorted(mapped) != sorted(declared):
        fail("rationale.json does not map every per-layer metric exactly once")
    if sorted(rationale["workloads"]) != sorted(WORKLOADS):
        fail("rationale.json does not give a reason for every workload")

    plain = {workload: run_pass(cli, workload) for workload in WORKLOADS}

    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.missed_bindings()
        if missed:
            fail("unwrapped bindings: " + ", ".join(missed))
        traced = {workload: run_pass(cli, workload) for workload in WORKLOADS}
    finally:
        tracer.uninstall()
    emitted = set(per_layer_metrics(tracer, 1)) | {"trace.overhead_ratio"}
    if emitted != set(declared):
        fail("the tracer emits other metrics than it declares")

    for workload, jobs in WORKLOADS.items():
        expected = load_expected(workload, jobs)
        for job, want, untraced_out, traced_out in zip(jobs, expected, plain[workload], traced[workload]):
            if untraced_out != traced_out:
                fail(f"{workload}: {job.name}: the traced report differs from the untraced one")
            problem = check(job, want, *untraced_out, SEED)
            if problem:
                fail(f"{workload}: {job.name}: {problem}")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
