"""Paths shared by the benchmark scripts.

Every script runs from the root of a source checkout and imports the
package from that checkout's ``src`` directory, never from an installed
copy, so the numbers always belong to the code next to the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
EXPECTED = BENCH_DIR / "expected"


class MissingSource(RuntimeError):
    """The checkout holds no package source to benchmark."""


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and check it is there."""
    if not (SRC / "twistcech" / "cli.py").is_file():
        raise MissingSource(f"no package source at {SRC / 'twistcech'}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_imported_from_checkout(module) -> None:
    """Refuse to measure a twistcech imported from anywhere but ``src``."""
    where = Path(module.__file__).resolve()
    if SRC not in where.parents:
        raise MissingSource(f"twistcech was imported from {where}, not from {SRC}")
