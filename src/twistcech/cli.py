"""Command-line surface.

All mathematics lives in the library modules; the CLI resolves references
(built-in fixture names or JSON paths), orchestrates the requested
computation and emits a deterministic report.

Exit codes: 0 pass, 1 check failure, 2 invalid input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .cech import (
    coefficient_ladder,
    existence_check,
    h1_reduced,
    h1_twisted,
    les_verify,
    system_from_data,
)
from .correspond import (
    GhatCocycleY,
    ascend,
    descend,
    fiber_over_cover,
    grothendieck_fiber,
    plain_h1,
)
from .errors import BudgetExceeded, InputError, TwistError
from .extensions import TwistedData, TwoCocycle, build_twisted_product, second_cohomology
from .fixtures import default_grid, grid_instance, group, named_action
from .groups import automorphisms, conjugacy_classes, find_isomorphism, outer_classes
from .nerves import quotient
from .serialize import (
    report_to_json,
    report_to_tsv,
    resolve_gamma_nerve,
    resolve_group,
    resolve_twisted_data,
)

SCHEMA = "twistcech-report/1"

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class JobConfig:
    command: str
    args: dict
    budget_order: int = 64
    budget_enum: int = 2_000_000
    time_limit: float = 600.0
    fmt: str = "json"
    out: Optional[str] = None
    seed: int = 0


@dataclass
class Report:
    schema: str
    job: dict
    checks: list = field(default_factory=list)

    def add(self, name: str, status: str, **extra) -> None:
        self.checks.append({"name": name, "status": status, **extra})

    @property
    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    def as_dict(self) -> dict:
        return {"schema": self.schema, "job": self.job, "checks": self.checks}


def _emit(report: Report, cfg: JobConfig) -> None:
    payload = report.as_dict()
    text = report_to_json(payload) if cfg.fmt == "json" else report_to_tsv(payload)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_data(ref: str):
    try:
        return grid_instance(ref).data
    except InputError:
        return resolve_twisted_data(ref)


def cmd_group(cfg: JobConfig) -> Report:
    sub = cfg.args["what"]
    g = resolve_group(cfg.args["group"])
    report = Report(SCHEMA, {"command": f"group {sub}", "group": cfg.args["group"]})
    if sub == "info":
        report.add(
            "group info",
            "pass",
            order=g.order,
            abelian=g.is_abelian(),
            element_orders=sorted(g.element_order(x) for x in g.elements()),
        )
    elif sub == "aut":
        auts = automorphisms(g, order_guard=cfg.budget_order)
        outs = outer_classes(g, order_guard=cfg.budget_order)
        report.add("automorphisms", "pass", aut_order=len(auts), outer_classes=len(outs))
    elif sub == "classes":
        classes = conjugacy_classes(g)
        report.add(
            "conjugacy classes",
            "pass",
            count=len(classes),
            sizes=sorted(len(c) for c in classes),
            classes=[list(c) for c in classes],
        )
    return report


def cmd_extensions(cfg: JobConfig) -> Report:
    gamma = resolve_group(cfg.args["gamma"])
    z = resolve_group(cfg.args["z"])
    action = named_action(cfg.args["action"], gamma, z)
    report = Report(
        SCHEMA,
        {"command": "extensions classify", "gamma": cfg.args["gamma"], "z": cfg.args["z"], "action": cfg.args["action"]},
    )
    h2 = second_cohomology(action, guard=cfg.budget_enum)
    catalogue = {name: group(name) for name in ("C2", "C4", "C8", "C2xC2", "S3", "D4", "Q8")}
    rows = []
    for cid, rep in enumerate(h2.representatives):
        data = TwistedData(action, TwoCocycle(action, rep))
        built = build_twisted_product(data)
        iso_name = None
        for name, cand in sorted(catalogue.items()):
            if cand.order == built.group.order and find_isomorphism(built.group, cand, order_guard=cfg.budget_order):
                iso_name = name
                break
        rows.append({"class": cid, "cocycle": [list(r) for r in rep], "product_isomorphic_to": iso_name})
    report.add("extension classes", "pass", count=len(h2), classes=rows)
    return report


def cmd_h1(cfg: JobConfig) -> Report:
    space = resolve_gamma_nerve(cfg.args["space"])
    data = _resolve_data(cfg.args["data"])
    classes = h1_twisted(system_from_data(space, data), budget=cfg.budget_enum)
    if cfg.args.get("reduced"):
        classes = h1_reduced(classes)
    report = Report(
        SCHEMA,
        {"command": "h1", "space": cfg.args["space"], "data": cfg.args["data"], "reduced": bool(cfg.args.get("reduced"))},
    )
    reps = []
    for a, phi in classes.reps:
        reps.append({"a": list(a), "phi": [list(r) for r in phi]})
    report.add("h1 classes", "pass", count=len(classes), representatives=reps)
    return report


def _grid_rows(cfg: JobConfig):
    only = cfg.args.get("only")
    rows = default_grid()
    if only:
        wanted = set(only.split(";"))
        rows = [r for r in rows if r.name in wanted]
        if not rows:
            raise InputError(f"no grid instance matches {only!r}")
    return rows


SUITES = ("les", "correspondence", "roundtrips", "existence")


def cmd_verify(cfg: JobConfig) -> Report:
    """Run the suites row by row on one coefficient ladder per grid row.

    Each suite's checks are collected in its own list and reported in suite
    order, so the report does not depend on the row-major walk.
    """
    suite = cfg.args["suite"]
    report = Report(SCHEMA, {"command": f"verify {suite}", "grid": cfg.args.get("grid", "default-grid"), "seed": cfg.seed})
    rng = random.Random(cfg.seed)
    deadline = time.monotonic() + cfg.time_limit
    fault = cfg.args.get("fault")
    checks: dict[str, list] = {s: [] for s in (SUITES if suite == "all" else (suite,))}

    def add(suite_name: str, name: str, status: str, **extra) -> None:
        checks[suite_name].append({"name": name, "status": status, **extra})

    for inst in _grid_rows(cfg):
        if time.monotonic() > deadline:
            raise BudgetExceeded(f"time limit reached at instance {inst.name}")
        ladder = coefficient_ladder(inst.space, inst.data, budget=cfg.budget_enum)
        free = inst.space.gamma.order != 1 and inst.space.free
        desc = quotient(inst.space) if free and ("correspondence" in checks or "roundtrips" in checks) else None

        if "les" in checks:
            for c in les_verify(ladder, fault=fault).checks:
                add("les", f"les[{inst.name}] {c.name}", c.status, **c.detail)

        if "correspondence" in checks and free:
            h1r = h1_reduced(ladder.h1c)
            prod = build_twisted_product(inst.data)
            fib = fiber_over_cover(desc, prod, budget=cfg.budget_enum)
            status = "pass" if len(h1r) == len(fib) else "fail"
            detail = {"reduced": len(h1r), "fiber": len(fib)}
            if fib:
                base = GhatCocycleY(prod, plain_h1(desc.downstairs, prod.group, budget=cfg.budget_enum).representative(fib[0][0]))
                gro = grothendieck_fiber(base, desc, budget=cfg.budget_enum)
                detail["grothendieck"] = len(gro)
                if len(gro) != len(fib):
                    status = "fail"
            add("correspondence", f"correspondence[{inst.name}] cardinalities", status, **detail)

        if "roundtrips" in checks and free:
            h1 = ladder.h1c
            ok = True
            witness = None
            for cid in rng.sample(range(len(h1)), k=len(h1)):
                x = h1.representative(cid)
                if h1.class_of(ascend(descend(x, desc))) != cid:
                    ok = False
                    witness = cid
                    break
            add("roundtrips", f"roundtrip[{inst.name}] descend-ascend", "pass" if ok else "fail", witness=witness)

        if "existence" in checks:
            res = existence_check(ladder)
            nonempty = len(ladder.h1c) > 0
            add(
                "existence",
                f"existence[{inst.name}] criterion agrees with enumeration",
                "pass" if res.exists == nonempty else "fail",
                criterion=res.exists,
                nonempty=nonempty,
            )

    for found in checks.values():
        report.checks.extend(found)
    return report


# parsing leaves the parser as it was, so one serves every main() call of a
# process; building one per call costs about 1 ms and lets the process's
# resident memory creep up call after call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twistcech", description="Twisted equivariant cohomology for finite groups on nerves")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget-order", type=int, default=64, help="max group order for searches")
        p.add_argument("--budget-enum", type=int, default=2_000_000, help="max enumeration size")
        p.add_argument("--time-limit", type=float, default=600.0, help="soft time limit in seconds")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--out", type=str, default=None, help="write the report to a file")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    p_group = sub.add_parser("group", help="facts about a finite group")
    p_group.add_argument("what", choices=("info", "aut", "classes"))
    p_group.add_argument("group", help="built-in name or JSON path")
    common(p_group)

    p_ext = sub.add_parser("extensions", help="classify central extensions for an action")
    p_ext.add_argument("what", choices=("classify",))
    p_ext.add_argument("gamma", help="acting group (built-in name or JSON path)")
    p_ext.add_argument("z", help="coefficient group (must be abelian)")
    p_ext.add_argument("--action", default="trivial", help="trivial | inversion | q8_swap")
    common(p_ext)

    p_h1 = sub.add_parser("h1", help="twisted cohomology classes over a space")
    p_h1.add_argument("space", help="built-in space name or JSON path")
    p_h1.add_argument("data", help="grid instance name or twisted-data JSON path")
    p_h1.add_argument("--reduced", action="store_true")
    common(p_h1)

    p_ver = sub.add_parser("verify", help="run a verification suite over the grid")
    p_ver.add_argument("suite", choices=SUITES + ("all",))
    p_ver.add_argument("--grid", default="default-grid")
    p_ver.add_argument("--only", default=None, help="semicolon-separated instance names")
    p_ver.add_argument(
        "--fault",
        default=None,
        choices=("flip-gauge",),
        help="deliberate fault injection for harness self-tests",
    )
    common(p_ver)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = JobConfig(
        command=ns.command,
        args={k: v for k, v in vars(ns).items() if k not in ("command", "budget_order", "budget_enum", "time_limit", "format", "out", "seed")},
        budget_order=ns.budget_order,
        budget_enum=ns.budget_enum,
        time_limit=ns.time_limit,
        fmt=ns.format,
        out=ns.out,
        seed=ns.seed,
    )
    handlers = {
        "group": cmd_group,
        "extensions": cmd_extensions,
        "h1": cmd_h1,
        "verify": cmd_verify,
    }
    try:
        report = handlers[cfg.command](cfg)
    except BudgetExceeded as exc:
        report = Report(SCHEMA, {"command": cfg.command})
        report.add("budget", "fail", error=str(exc))
        _emit(report, cfg)
        return EXIT_BUDGET
    except TwistError as exc:
        report = Report(SCHEMA, {"command": cfg.command})
        report.add("input", "fail", error=str(exc), kind=type(exc).__name__, witness=list(getattr(exc, "witness", ())))
        _emit(report, cfg)
        return EXIT_INVALID_INPUT
    _emit(report, cfg)
    return EXIT_CHECK_FAILURE if report.failed else EXIT_PASS


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
