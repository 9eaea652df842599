"""Whether a job's exit code and report are right.

``expected/<workload>.json`` holds, per job, the exit code and report of
the seed commit, written by ``gen_expected.py``.  A job passes when

* its exit code equals the stored one (a budget refusal, exit 3, fails);
* its report equals the stored report once ``job.seed``, the only field
  that depends on the run's seed, is set aside (and it must equal the
  seed passed in), with the inputs directory written as ``{inputs}``;
* its class count equals the independent count of ``workloads.py``, and
  ``verify all`` reports 226 checks, all ``pass``.
"""

from __future__ import annotations

import json
from typing import Optional

from common import EXPECTED, INPUTS
from workloads import VERIFY_CHECKS, Job

INPUTS_TOKEN = "{inputs}"


def expected_path(workload: str):
    return EXPECTED / f"{workload}.json"


def normalize(text: str) -> tuple[dict, Optional[int]]:
    """The report with checkout-specific parts taken out, and its job.seed."""
    # paths reach the report as JSON strings, so match their escaped form
    needle = json.dumps(str(INPUTS))[1:-1]
    report = json.loads(text.replace(needle, INPUTS_TOKEN))
    seed = report.get("job", {}).pop("seed", None)
    return report, seed


def independent_check(job: Job, report: dict) -> Optional[str]:
    """Compare against values that do not come from the program."""
    checks = report.get("checks", [])
    if job.argv[0] == "verify":
        bad = [c["name"] for c in checks if c.get("status") != "pass"]
        if len(checks) != VERIFY_CHECKS or bad:
            return f"verify reported {len(checks)} checks, {len(bad)} not passing"
    if job.count is not None:
        counts = [c.get("count") for c in checks]
        if counts != [job.count]:
            return f"class count {counts} != {job.count}"
    return None


def load_expected(workload: str, jobs: tuple[Job, ...]) -> list[dict]:
    with open(expected_path(workload), encoding="utf-8") as fh:
        stored = json.load(fh)["jobs"]
    if [s["name"] for s in stored] != [j.name for j in jobs]:
        raise ValueError(f"{expected_path(workload)} does not list the jobs of {workload}")
    return stored


def check(job: Job, expected: dict, exit_code: int, text: str, seed: int) -> Optional[str]:
    """None if the job's output is right, else the reason it is not."""
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, expected {expected['exit']}"
    try:
        report, report_seed = normalize(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if report_seed is not None and report_seed != seed:
        return f"report carries seed {report_seed}, run seed {seed}"
    if report != expected["report"]:
        return "report differs from the stored report"
    return independent_check(job, report)
