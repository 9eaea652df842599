"""Spans and counters around the package's public functions.

The tracer replaces each listed function in every ``twistcech`` module
namespace that binds it (``extensions.center`` is ``groups.center``,
``cli.h1_twisted`` is ``cech.h1_twisted``, and so on), and the listed
methods on their classes.  Nothing inside the package changes.

Two kinds of wrapper:

* a *span* records name, parent span, job id, start and end in flat
  arrays kept in memory; calls, total and self time, per layer and per
  job, are computed from them when the run ends;
* a *counter* only counts calls, keyed by the innermost open span, for
  functions called so often that a span would cost more than the work it
  measures.  Their time shows as the self time of the calling span.

``edge_value`` and ``_edge_index`` stay unwrapped: each call is a dict
lookup, cheaper than any wrapper, and they run millions of times a pass.
``abelian.kernel_generators``, ``abelian.enumerate_subgroup`` and
``nerves.build_cover`` are not traced: no CLI command reaches them, so
they would read 0 on every workload.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Optional

# module -> functions recorded as spans
SPANS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "serialize": ("report_to_json",),
    "fixtures": ("default_grid",),
    "cech": ("enumerate_cocycles", "h1_twisted", "h1_reduced", "abelian_complex", "les_verify", "existence_check"),
    "abelian": ("smith_normal_form",),
    "correspond": ("fiber_over_cover", "grothendieck_fiber", "plain_h1", "descend", "ascend"),
    "nerves": ("quotient", "monodromy"),
    "extensions": ("second_cohomology", "coboundary", "build_twisted_product"),
    "groups": ("center", "find_isomorphism"),
}
# module -> class -> methods recorded as spans
METHOD_SPANS: dict[str, dict[str, tuple[str, ...]]] = {
    "nerves": {"Nerve": ("spanning_forest",)},
    "cech": {"CohomologySet": ("class_of",)},
}
# module -> functions only counted; the predicate says whether a call accepted
COUNTERS: dict[str, dict[str, Optional[Callable]]] = {
    "cech": {"is_twisted_cocycle": lambda result: result[0], "gauge": None, "d1": None},
    "extensions": {"check_cocycle": lambda result: True},  # a rejected table raises
}

ROOT_PARENT = -1


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "twistcech" or name.startswith("twistcech."))
    ]


class Tracer:
    """Owns the wrappers, the span arrays and the counters of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._stack_name: list[int] = [ROOT_PARENT]
        self.job = -1
        # (counter name, parent span name index) -> [calls, accepted]
        self.counts: dict[tuple[str, int], list[int]] = {}
        self.originals: dict[str, object] = {}
        self._patches: Optional[list[tuple[object, str, object, object]]] = None

    # -- wrappers -----------------------------------------------------------

    def _span(self, qualname: str, fn: Callable) -> Callable:
        name_idx = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter
        stack, stack_name = self._stack, self._stack_name
        span_name, span_parent, span_job = self.span_name, self.span_parent, self.span_job
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_idx)
            span_parent.append(stack[-1] if stack else ROOT_PARENT)
            span_job.append(self.job)
            span_end.append(0.0)
            stack.append(idx)
            stack_name.append(name_idx)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
                stack_name.pop()

        return wrapper

    def _counter(self, qualname: str, fn: Callable, accept: Optional[Callable]) -> Callable:
        counts, stack_name = self.counts, self._stack_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (qualname, stack_name[-1])
            cell = counts.get(key)
            if cell is None:
                cell = counts[key] = [0, 0]
            cell[0] += 1
            result = fn(*args, **kwargs)
            if accept is not None and accept(result):
                cell[1] += 1
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        import twistcech.cli  # noqa: F401  (loads every module of the package)

        replacements: dict[int, object] = {}
        for mod_name, funcs in SPANS.items():
            home = sys.modules[f"twistcech.{mod_name}"]
            for fn_name in funcs:
                fn = getattr(home, fn_name)
                qualname = f"{mod_name}.{fn_name}"
                self.originals[qualname] = fn
                replacements[id(fn)] = self._span(qualname, fn)
        for mod_name, funcs in COUNTERS.items():
            home = sys.modules[f"twistcech.{mod_name}"]
            for fn_name, accept in funcs.items():
                fn = getattr(home, fn_name)
                qualname = f"{mod_name}.{fn_name}"
                self.originals[qualname] = fn
                replacements[id(fn)] = self._counter(qualname, fn, accept)
        patches = []
        # self.originals keeps every original alive, so its id is unambiguous
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                if id(value) in replacements:
                    patches.append((mod, attr, value, replacements[id(value)]))
        for mod_name, classes in METHOD_SPANS.items():
            home = sys.modules[f"twistcech.{mod_name}"]
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    qualname = f"{mod_name}.{cls_name}.{meth}"
                    self.originals[qualname] = fn
                    patches.append((cls, meth, fn, self._span(qualname, fn)))
        return patches

    def install(self) -> None:
        """Wrap every listed function in every package namespace binding it.

        The wrappers are made once; installing again after ``uninstall``
        puts the same wrappers back, so spans and counters accumulate.
        """
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def missed_bindings(self) -> list[str]:
        """Places in the package that still reach a traced function unwrapped."""
        wanted = {id(fn): name for name, fn in self.originals.items()}
        missed = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                if id(value) in wanted:
                    missed.append(f"{mod.__name__}.{attr} ({wanted[id(value)]})")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for meth, fn in vars(value).items():
                        if id(fn) in wanted:
                            missed.append(f"{mod.__name__}.{attr}.{meth} ({wanted[id(fn)]})")
                for default in getattr(value, "__defaults__", None) or ():
                    if id(default) in wanted:
                        missed.append(f"default argument of {mod.__name__}.{attr} ({wanted[id(default)]})")
        return missed

    # -- results ------------------------------------------------------------

    def span_table(self) -> dict[tuple[int, str], list]:
        """Per (job id, span name): [calls, total seconds, self seconds]."""
        if self._stack:
            raise RuntimeError("span table asked for while spans are still open")
        n = len(self.span_name)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent != ROOT_PARENT:
                child[parent] += durations[i]
        table: dict[tuple[int, str], list] = {}
        for i in range(n):
            cell = table.setdefault((self.span_job[i], self.names[self.span_name[i]]), [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += durations[i]
            cell[2] += durations[i] - child[i]
        return table

    def counter(self, qualname: str, parent: Optional[str] = None) -> tuple[int, int]:
        """Calls and accepted calls of a counter, all or under one parent span."""
        calls = accepted = 0
        for (name, parent_idx), (c, a) in self.counts.items():
            if name != qualname:
                continue
            if parent is not None and (parent_idx == ROOT_PARENT or self.names[parent_idx] != parent):
                continue
            calls += c
            accepted += a
        return calls, accepted


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer numbers: every span's calls, s and self_s, and the counters."""
    totals = {name: [0, 0.0, 0.0] for name in tracer.names}
    for (_, name), cell in tracer.span_table().items():
        totals[name] = [a + b for a, b in zip(totals[name], cell)]
    out: dict[str, float] = {}
    for name, (calls, total, self_time) in sorted(totals.items()):
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.s"] = total / passes
        out[f"{name}.self_s"] = self_time / passes
    for mod_name, funcs in sorted(COUNTERS.items()):
        for fn_name in sorted(funcs):
            out[f"{mod_name}.{fn_name}.calls"] = tracer.counter(f"{mod_name}.{fn_name}")[0] / passes
    validations, accepted = tracer.counter("cech.is_twisted_cocycle", parent="cech.enumerate_cocycles")
    out["cech.enumerate_cocycles.validations"] = validations / passes
    out["cech.enumerate_cocycles.accepted"] = accepted / passes
    out["cech.enumerate_cocycles.accept_ratio"] = accepted / validations if validations else 0.0
    tables, cocycles = tracer.counter("extensions.check_cocycle", parent="extensions.second_cohomology")
    out["extensions.second_cohomology.tables"] = tables / passes
    out["extensions.second_cohomology.accept_ratio"] = cocycles / tables if tables else 0.0
    return out


def self_time_by_job(tracer: Tracer, job_name: Callable[[int], str], passes: int) -> dict[str, dict[str, float]]:
    """Per job name, each span's self seconds a pass, largest first."""
    by_job: dict[str, dict[str, float]] = {}
    for (job, name), (_, _, self_time) in tracer.span_table().items():
        row = by_job.setdefault(job_name(job), {})
        row[name] = row.get(name, 0.0) + self_time / passes
    return {job: dict(sorted(row.items(), key=lambda kv: -kv[1])) for job, row in by_job.items()}


def layer_metric_units() -> dict[str, str]:
    """Every name ``per_layer_metrics`` emits, with its unit."""
    units: dict[str, str] = {}
    names = [f"{m}.{f}" for m, fs in SPANS.items() for f in fs]
    names += [f"{m}.{c}.{f}" for m, cs in METHOD_SPANS.items() for c, fs in cs.items() for f in fs]
    for name in names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for mod_name, funcs in COUNTERS.items():
        for fn_name in funcs:
            units[f"{mod_name}.{fn_name}.calls"] = "count"
    units["cech.enumerate_cocycles.validations"] = "count"
    units["cech.enumerate_cocycles.accepted"] = "count"
    units["cech.enumerate_cocycles.accept_ratio"] = "ratio"
    units["extensions.second_cohomology.tables"] = "count"
    units["extensions.second_cohomology.accept_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units
