"""A fixed reference loop that tells how fast the machine runs right now.

On a shared host the speed of a CPU moves by 20-40% over tens of seconds,
in CPU time as much as in wall time (a busy neighbour on the same core or
cache), so two runs of the same code can differ by more than any change
worth measuring.  The benchmark therefore times this loop right before and
right after every job and scales the job's time by ``REF_S`` over the
loop's time, both measured in the same process, the same way.  A job
timed this way reads the seconds it would take on a machine on which the
loop takes ``REF_S``: the program's own speed, with the machine's
momentary speed divided out.

The loop is benchmark code, not package code, so it is the same on every
commit that is compared.  It is made of what the package spends its time
on -- small method calls, table lookups, frozen-dataclass hashing, tuple
building from generators -- so that a slowdown of the machine slows it
about as much as the package.  It runs with the garbage collector off, so
objects the package keeps alive cannot make the loop slower.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass

# the loop's median wall time on the 2-vCPU Intel Xeon VM the benchmark was
# defined on; scaled times read as seconds on that machine at that speed
REF_S = 0.025
ROUNDS = 400


@dataclass(frozen=True)
class _Cell:
    verts: tuple
    tag: int


class _Group:
    def __init__(self, n: int):
        self.elements = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(self.elements)}
        self.table = [[index[tuple(a[x] for x in b)] for b in self.elements] for a in self.elements]
        self.inv = [index[tuple(sorted(range(n), key=a.__getitem__))] for a in self.elements]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]


_GROUP = _Group(4)
_CELLS = [_Cell((i, (i * 5 + 1) % 40), i % 3) for i in range(40)]


def _value(group: _Group, assign: dict, cell: _Cell) -> int:
    a = assign[cell]
    return group.mul(group.inverse(a), a if cell.tag else group.mul(a, a))


def _loop(rounds: int) -> int:
    group = _GROUP
    acc = 0
    for r in range(rounds):
        assign = {c: (i * 7 + r) % 24 for i, c in enumerate(_CELLS)}
        values = tuple(_value(group, assign, c) for c in _CELLS)
        acc += sum(v for v in values if v) + len(set(values))
        for c in _CELLS:
            acc ^= hash(c) & 0xFF
    return acc


def time_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one reference loop."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _loop(ROUNDS)
        return time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if was_enabled:
            gc.enable()


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the reference speed, from the loop's times around them."""
    return seconds * REF_S / ((ref_before + ref_after) / 2.0)
