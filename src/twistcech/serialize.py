"""JSON input formats and report serialization.

Formats (all plain JSON):

* group:        {"label": str?, "order": n, "mul": [[int]]}
* twisted data: {"gamma": group-ref, "g": group-ref,
                 "theta": [[int]] per acting element (a permutation of g),
                 "c": [[int]] (|gamma| x |gamma|, central g-element indices)}
* nerve:        {"vertices": n, "simplices": [[int]]} (maximal; closure added)
* gamma nerve:  nerve fields +
                {"gamma": group-ref, "act": [[int]] per-element vertex permutation}
* cocycle:      {"a": {"i,j": int}, "phi": {"t": [int per vertex]}}
* glued cocycle: {"edges": {"i,j": [g, t]}}

A group-ref is either the name of a built-in or a path to a JSON file.
"""

from __future__ import annotations

import json
from pathlib import Path
from .cech import TwistedOneCocycle, make_cocycle, system_from_data
from .errors import InputError
from .extensions import TwistedData, check_cocycle, check_gamma_action, make_twisted_data
from .fixtures import GAMMA_NERVES, GROUPS, NERVES
from .groups import FiniteGroup, validate_group
from .nerves import GammaNerve, Nerve, validate_gamma_nerve, validate_nerve


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def group_from_dict(payload: dict) -> FiniteGroup:
    if "mul" not in payload:
        raise InputError("group JSON needs a 'mul' table")
    mul = payload["mul"]
    order = payload.get("order", len(mul))
    if order != len(mul):
        raise InputError(f"declared order {order} does not match table size {len(mul)}")
    return validate_group(mul, label=payload.get("label"))


def resolve_group(ref: str) -> FiniteGroup:
    if ref in GROUPS:
        return GROUPS[ref]
    return group_from_dict(_load_json(ref))


def nerve_from_dict(payload: dict) -> Nerve:
    return validate_nerve(payload["vertices"], payload.get("simplices", []))


def gamma_nerve_from_dict(payload: dict) -> GammaNerve:
    nerve = nerve_from_dict(payload)
    gamma = resolve_group(payload["gamma"]) if isinstance(payload["gamma"], str) else group_from_dict(payload["gamma"])
    return validate_gamma_nerve(nerve, gamma, payload["act"])


def resolve_gamma_nerve(ref: str) -> GammaNerve:
    if ref in GAMMA_NERVES:
        return GAMMA_NERVES[ref]
    if ref in NERVES:
        from .fixtures import gamma_nerve

        return gamma_nerve(ref)
    return gamma_nerve_from_dict(_load_json(ref))


def twisted_data_from_dict(payload: dict) -> TwistedData:
    gamma = resolve_group(payload["gamma"]) if isinstance(payload["gamma"], str) else group_from_dict(payload["gamma"])
    g = resolve_group(payload["g"]) if isinstance(payload["g"], str) else group_from_dict(payload["g"])
    action = check_gamma_action(gamma, g, payload["theta"])
    if "c" in payload and payload["c"] is not None:
        return TwistedData(action, check_cocycle(action, payload["c"]))
    return make_twisted_data(action)


def resolve_twisted_data(ref: str) -> TwistedData:
    return twisted_data_from_dict(_load_json(ref))


def cocycle_from_dict(space: GammaNerve, data: TwistedData, payload: dict) -> TwistedOneCocycle:
    system = system_from_data(space, data)
    idx = space.nerve.edge_index
    a = [0] * len(space.nerve.edges)
    for key, val in payload.get("a", {}).items():
        u, v = (int(s) for s in key.split(","))
        if (u, v) not in idx:
            raise InputError(f"{key} is not an edge of the nerve")
        a[idx[(u, v)]] = int(val)
    phi = [[0] * space.nerve.n_vertices for _ in data.gamma.elements()]
    for key, row in payload.get("phi", {}).items():
        phi[int(key)] = [int(x) for x in row]
    return make_cocycle(system, a, phi)


def cocycle_to_dict(x: TwistedOneCocycle) -> dict:
    edges = x.system.nerve.edges
    return {
        "a": {f"{u},{v}": x.a[i] for i, (u, v) in enumerate(edges)},
        "phi": {str(t): list(row) for t, row in enumerate(x.phi) if t != 0},
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_tsv(report: dict) -> str:
    lines = []
    for check in report.get("checks", []):
        extras = {k: v for k, v in check.items() if k not in ("name", "status")}
        blob = json.dumps(extras, sort_keys=True) if extras else ""
        lines.append(f"{check['name']}\t{check['status']}\t{blob}")
    return "\n".join(lines) + "\n"
