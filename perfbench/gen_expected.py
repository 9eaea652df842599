"""Record the exit code and report of every benchmark job.

Run once from the checkout root on the commit whose answers are the
reference (the reports must not change afterwards):

    python3 perfbench/gen_expected.py

Each stored report is cross-checked against the independent class counts
in ``workloads.py`` before it is written, so a wrong answer is never
recorded as the expected one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import EXPECTED, use_checkout_src  # noqa: E402
from oracle import expected_path, independent_check, normalize  # noqa: E402
from workloads import WORKLOADS, argv_for  # noqa: E402


def main() -> int:
    use_checkout_src()
    import twistcech.cli as cli

    EXPECTED.mkdir(parents=True, exist_ok=True)
    for workload, jobs in WORKLOADS.items():
        stored = []
        for job in jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                exit_code = cli.main(argv_for(job, 0))
            report, _ = normalize(buf.getvalue())
            problem = independent_check(job, report)
            if exit_code != 0 or problem:
                print(f"{workload}: {job.name}: exit {exit_code}, {problem}", file=sys.stderr)
                return 1
            stored.append({"name": job.name, "exit": exit_code, "report": report})
        # one job per line keeps a later change to one report a one-line diff
        lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in stored)
        text = f'{{"workload": {json.dumps(workload)}, "jobs": [\n{lines}\n]}}\n'
        expected_path(workload).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
