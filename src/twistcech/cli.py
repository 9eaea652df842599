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
from typing import Optional

from . import __version__
from .cech import (
    CechSystem,
    action_ladder,
    existence_check,
    h1_reduced,
    h1_twisted,
    les_verify,
)
from .correspond import (
    GhatCocycleY,
    ascend,
    descend,
    fiber_over_cover,
    grothendieck_fiber,
    plain_system,
)
from .errors import DEFAULT_ENUM_BUDGET, DEFAULT_ORDER_GUARD, BudgetExceeded, InputError, TwistError, Work
from .extensions import build_twisted_product, second_cohomology
from .fixtures import default_grid, grid_instance, group, named_action
from .groups import conjugacy_classes, find_isomorphism, outer_classes
from .nerves import quotient
from .records import field, record
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


@record
class JobConfig:
    command: str
    args: dict
    work: Work
    fmt: str
    out: Optional[str]
    seed: int


@record
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
        outs = outer_classes(g, work=cfg.work)
        report.add("automorphisms", "pass", aut_order=sum(map(len, outs)), outer_classes=len(outs))
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
    h2 = second_cohomology(action, work=cfg.work)
    catalogue = {name: group(name) for name in ("C2", "C4", "C8", "C2xC2", "S3", "D4", "Q8")}
    rows = []
    for cid, rep in enumerate(h2.representatives):
        built = build_twisted_product(rep)
        iso_name = None
        for name, cand in sorted(catalogue.items()):
            if cand.order == built.group.order and find_isomorphism(built.group, cand, work=cfg.work):
                iso_name = name
                break
        rows.append({"class": cid, "cocycle": [list(r) for r in rep.table], "product_isomorphic_to": iso_name})
    report.add("extension classes", "pass", count=len(h2), classes=rows)
    return report


def cmd_h1(cfg: JobConfig) -> Report:
    space = resolve_gamma_nerve(cfg.args["space"])
    data = _resolve_data(cfg.args["data"])
    classes = h1_twisted(CechSystem(space, data), work=cfg.work)
    if cfg.args.get("reduced"):
        classes = h1_reduced(classes, work=cfg.work)
    report = Report(
        SCHEMA,
        {"command": "h1", "space": cfg.args["space"], "data": cfg.args["data"], "reduced": bool(cfg.args.get("reduced"))},
    )
    reps = []
    for x in map(classes.representative, range(len(classes))):
        reps.append({"a": list(x.a), "phi": [list(r) for r in x.phi]})
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

    Rows on one space and action share one action ladder, built at the first
    of them and dropped at the last, wherever they stand in the grid.  Each
    suite's checks are collected in its own list and reported in suite
    order, so the report does not depend on the row-major walk.  A refusal
    names the row it stopped in.
    """
    suite = cfg.args["suite"]
    report = Report(SCHEMA, {"command": f"verify {suite}", "grid": cfg.args.get("grid", "default-grid"), "seed": cfg.seed})
    rng = random.Random(cfg.seed)
    fault = cfg.args.get("fault")
    checks: dict[str, list] = {s: [] for s in (SUITES if suite == "all" else (suite,))}
    rows = _grid_rows(cfg)
    # by value: each row builds its own action
    keys = [(inst.space, inst.data.action) for inst in rows]
    last_row = {key: i for i, key in enumerate(keys)}
    bases: dict = {}
    descents: dict = {}  # the quotient descent of each free space, shared by its rows

    def add(suite_name: str, name: str, status: str, **extra) -> None:
        checks[suite_name].append({"name": name, "status": status, **extra})

    try:
        for i, (inst, key) in enumerate(zip(rows, keys)):
            if key not in bases:
                bases[key] = action_ladder(*key, work=cfg.work)
            ladder = (bases.pop(key) if last_row[key] == i else bases[key]).with_data(inst.data)
            free = inst.space.gamma.order != 1 and inst.space.free
            if free and ("correspondence" in checks or "roundtrips" in checks):
                if inst.space not in descents:
                    descents[inst.space] = quotient(inst.space)
                desc = descents[inst.space]
                # from the upstairs system's own data record, which descend and ascend then match by
                # identity; a trivial twist's ``inst.data`` is an equal but distinct record
                prod = build_twisted_product(ladder.sys_c.data)
                base_sys = plain_system(desc.downstairs, prod.group)

            if "les" in checks:
                for c in les_verify(ladder, fault=fault).checks:
                    add("les", f"les[{inst.name}] {c.name}", c.status, **c.detail)

            if "correspondence" in checks and free:
                h1r = h1_reduced(ladder.h1c, work=cfg.work)
                ph1 = h1_twisted(base_sys, work=cfg.work)
                fib = fiber_over_cover(desc, prod, ph1, work=cfg.work)
                status = "pass" if len(h1r) == len(fib) else "fail"
                detail = {"reduced": len(h1r), "fiber": len(fib)}
                if fib:
                    base = GhatCocycleY(prod, ph1.representative(fib[0]))
                    gro = grothendieck_fiber(base, desc, ph1, work=cfg.work)
                    detail["grothendieck"] = len(gro)
                    if len(gro) != len(fib):
                        status = "fail"
                add("correspondence", f"correspondence[{inst.name}] cardinalities", status, **detail)

            if "roundtrips" in checks and free:
                h1 = ladder.h1c
                ok = True
                witness = None
                for cid in cfg.work.paced(rng.sample(range(len(h1)), k=len(h1)), "roundtrips' descend-ascend"):
                    x = h1.representative(cid)
                    if h1.class_of(ascend(descend(x, desc, prod, base_sys), desc, ladder.sys_c)) != cid:
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
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc}, at grid row {inst.name}") from exc

    for found in checks.values():
        report.checks.extend(found)
    return report


def _count(text: str) -> int:
    """A budget: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """A time limit: a number >= 0, inf included."""
    try:
        value = float(text)
        # NaN compares false with every deadline, so it would never expire
        ok = value >= 0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"must be a number of seconds >= 0, not {text!r}")
    return value


# parsing leaves the parser as it was, so one serves every main() call of a
# process; building one per call costs about 1 ms and lets the process's
# resident memory creep up call after call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twistcech", description="Twisted equivariant cohomology for finite groups on nerves")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget-order", type=_count, default=DEFAULT_ORDER_GUARD, help="max group order for searches")
        p.add_argument("--budget-enum", type=_count, default=DEFAULT_ENUM_BUDGET, help="max steps of each enumeration")
        p.add_argument("--time-limit", type=_seconds, default=600.0, help="time limit in seconds; every enumeration stops with exit 3 past it")
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
    p_ext.add_argument("z", help="coefficient group G, abelian or not: classifies H^2(Gamma; Z(G)) (built-in name or JSON path)")
    p_ext.add_argument("--action", default="trivial", help="trivial | inversion | q8_swap")
    common(p_ext)

    p_h1 = sub.add_parser("h1", help="twisted cohomology classes over a space")
    p_h1.add_argument("space", help="built-in space name or JSON path")
    p_h1.add_argument("data", help="grid instance name or twisted-data JSON path")
    p_h1.add_argument("--reduced", action="store_true")
    common(p_h1)

    p_ver = sub.add_parser("verify", help="run a verification suite over the grid")
    p_ver.add_argument("suite", choices=SUITES + ("all",))
    p_ver.add_argument("--grid", choices=("default-grid",), default="default-grid")
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
        work=Work(ns.budget_enum, ns.budget_order, time.monotonic() + ns.time_limit),
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
