"""Time ``h1 X_OCT S3`` on a newly loaded nerve and after an equal one.

``cech._edge_index`` is an ``lru_cache`` keyed by the whole ``Nerve``.
Every ``h1`` job re-reads its JSON, so a later job on X_OCT hands the cache
an equal but distinct nerve, and each lookup compares the two field by
field.  This probe runs the job three times in one fresh process: the first
run is the first on its nerve, the next two follow an equal nerve.

    python3 perfbench/probe_edge_index.py   # prints one JSON line
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_src  # noqa: E402
from oracle import check, load_expected  # noqa: E402
from workloads import WORKLOADS, argv_for  # noqa: E402

JOB_NAME = "h1 X_OCT S3"
REPEATS = 3


def main() -> int:
    use_checkout_src()
    import twistcech.cli as cli

    jobs = WORKLOADS["h1-ladder"]
    expected = dict(zip((j.name for j in jobs), load_expected("h1-ladder", jobs)))
    job = next(j for j in jobs if j.name == JOB_NAME)
    seconds = []
    for _ in range(REPEATS):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            exit_code = cli.main(argv_for(job, 0))
        seconds.append(time.perf_counter() - start)
        problem = check(job, expected[JOB_NAME], exit_code, buf.getvalue(), 0)
        if problem:
            print(f"probe: {problem}", file=sys.stderr)
            return 1
    print(json.dumps({"first_on_nerve_s": seconds[0], "after_equal_nerve_s": seconds[1:]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
