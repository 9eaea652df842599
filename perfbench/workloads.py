"""The fixed job lists of the two workloads.

A job is one call of ``twistcech.cli.main(argv)``.  Jobs run one after
another in the order listed here, by one caller on one thread.  ``count``
is the number of classes a job must report, taken from a source other than
the program's own enumeration:

* ``h1`` with the trivial action and twist over a free action counts
  |Hom(pi1(X/Gamma), G) / G|.  X_OCT / C2 is RP^2, whose pi1 is C2, so the
  count is the number of conjugacy classes of elements with g^2 = 1.
  X_DODEC / C4 is a circle, so the count is the number of conjugacy
  classes of G.
* ``extensions classify`` with the trivial action counts H^2(Gamma; Z),
  which the universal coefficient theorem gives as
  |Hom(H_2 Gamma, Z)| * |Ext(H_1 Gamma, Z)|; for an order-2 Gamma acting
  through an involution it is the Tate group of the fixed points modulo
  norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from common import INPUTS


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    count: Optional[int] = None  # independent class count, where one exists


def _h1(space: str, gamma: str, g: str, count: int, reduced: bool = False) -> Job:
    space_ref = str(INPUTS / f"{space}.json") if space == "X_OCT" else space
    argv = ("h1", space_ref, str(INPUTS / f"trivial_{gamma}_{g}.json"))
    if reduced:
        argv += ("--reduced",)
    name = f"h1 {space} {g}" + (" --reduced" if reduced else "")
    return Job(name, argv, count)


def _classify(gamma: str, z: str, action: str, count: int) -> Job:
    return Job(f"classify {gamma} {z} {action}", ("extensions", "classify", gamma, z, "--action", action), count)


# conjugacy-class counts of the X_DODEC coefficient groups
_DODEC_CLASSES = (("C2", 2), ("C4", 4), ("C2xC2", 4), ("S3", 3), ("Q8", 5), ("D4", 5), ("C8", 8))

_H1_JOBS = (
    _h1("X_OCT", "C2", "C2", 2),
    _h1("X_OCT", "C2", "C4", 2),
    _h1("X_OCT", "C2", "S3", 2),
    _h1("X_OCT", "C2", "C4", 2, reduced=True),
    *(_h1("X_DODEC", "C4", g, count, reduced) for g, count in _DODEC_CLASSES for reduced in (False, True)),
)
_CLASSIFY_JOBS = (
    _classify("C4", "C3", "trivial", 1),
    _classify("C2xC2", "C3", "trivial", 1),
    _classify("C3", "C8", "trivial", 1),
    _classify("C2xC2", "C2", "trivial", 8),
    _classify("C4", "C2", "trivial", 2),
    _classify("C2", "Q8", "q8_swap", 2),
    _classify("C2", "C8", "inversion", 2),
)

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "verify-grid": (Job("verify all", ("verify", "all")),),
    "h1-ladder": _H1_JOBS,
    "extensions-classify": _CLASSIFY_JOBS,
}

# what ``verify all`` on the default grid must report
VERIFY_CHECKS = 226

# The percentile job_tail_ms is read at, over every job of a run.  Each is
# the highest that still leaves at least ten jobs above it in a run of
# ``run_seconds`` on a 2-vCPU Xeon VM at the seed commit (about 45 passes
# of verify-grid, 7 of h1-ladder, 14 of extensions-classify).  It is fixed,
# not worked out from the run's job count, so that how many passes a run
# holds does not move which of the slowest jobs it lands on: on h1-ladder
# it sits among the X_OCT C4 jobs (the X_OCT/S3 jobs are above it), on
# extensions-classify among the C4 C3 and C2xC2 C3 jobs.
TAIL_PERCENTILE = {"verify-grid": 75, "h1-ladder": 90, "extensions-classify": 85}


def argv_for(job: Job, seed: int) -> list[str]:
    """The job's command line; the run's seed goes to the CLI's --seed."""
    return [*job.argv, "--seed", str(seed)]
