"""Shared fixtures."""

import collections
import functools
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls to functions of the package, by name.

    ``count_calls(module, *names)`` wraps each named function in every loaded
    ``twistcech`` module that binds it (``cli.h1_twisted`` is
    ``cech.h1_twisted``), so a call counts whichever module makes it.  It
    returns a dict from name to the number of calls so far; the wrappers are
    removed when the test ends.
    """

    def install(module, *names):
        counts = dict.fromkeys(names, 0)

        def counted(name, real):
            @functools.wraps(real)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in names:
            real = getattr(module, name)
            wrapper = counted(name, real)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "twistcech" and getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, wrapper)
        return counts

    return install


@pytest.fixture
def clock_reads(monkeypatch):
    """A Counter of ``Work.clock`` reads by stage name, over the rest of the test."""
    from twistcech.errors import Work

    reads = collections.Counter()
    real = Work.clock

    def clock(self, stage):
        reads[stage] += 1
        return real(self, stage)

    monkeypatch.setattr(Work, "clock", clock)
    return reads
