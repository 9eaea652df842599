"""JSON input formats and report serialization.

Formats (all plain JSON):

* group:        {"label": str?, "order": n, "mul": [[int]]}
* twisted data: {"gamma": group-ref, "g": group-ref,
                 "theta": [[int]] per acting element (a permutation of g),
                 "c": [[int]] (|gamma| x |gamma|, central g-element indices)}
* nerve:        {"vertices": n, "simplices": [[int]]} (maximal; closure added)
* gamma nerve:  nerve fields +
                {"gamma": group-ref, "act": [[int]] per-element vertex permutation}

A group-ref is either the name of a built-in or a path to a JSON file.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import InputError
from .extensions import TwistedData, check_cocycle, check_gamma_action, make_twisted_data
from .fixtures import GAMMA_NERVES, GROUPS, NERVES, gamma_nerve
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


def _field(payload: dict, key: str):
    if not isinstance(payload, dict) or key not in payload:
        raise InputError(f"JSON input needs an object with a {key!r} entry")
    return payload[key]


def _table(payload: dict, key: str) -> list[tuple[int, ...]]:
    """A required table, each row read through ``_entry_ints``."""
    if not isinstance(_field(payload, key), list):
        raise InputError(f"{key!r} must be a list of rows")
    return [_entry_ints(key, row) for row in payload[key]]


def _group_ref(payload: dict, key: str) -> FiniteGroup:
    ref = _field(payload, key)
    return resolve_group(ref) if isinstance(ref, str) else group_from_dict(ref)


def group_from_dict(payload: dict) -> FiniteGroup:
    mul = _table(payload, "mul")
    (order,) = _entry_ints("order", [payload.get("order", len(mul))])
    if order != len(mul):
        raise InputError(f"declared order {order} does not match table size {len(mul)}")
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("entry 'label' is not a string")
    return validate_group(mul, label=label)


def resolve_group(ref: str) -> FiniteGroup:
    if ref in GROUPS:
        return GROUPS[ref]
    return group_from_dict(_load_json(ref))


def nerve_from_dict(payload: dict) -> Nerve:
    (n,) = _entry_ints("vertices", [_field(payload, "vertices")])
    return validate_nerve(n, _table(payload, "simplices") if "simplices" in payload else [])


def gamma_nerve_from_dict(payload: dict) -> GammaNerve:
    return validate_gamma_nerve(nerve_from_dict(payload), _group_ref(payload, "gamma"), _table(payload, "act"))


def resolve_gamma_nerve(ref: str) -> GammaNerve:
    if ref in GAMMA_NERVES or ref in NERVES:
        return gamma_nerve(ref)
    return gamma_nerve_from_dict(_load_json(ref))


def twisted_data_from_dict(payload: dict) -> TwistedData:
    action = check_gamma_action(_group_ref(payload, "gamma"), _group_ref(payload, "g"), _table(payload, "theta"))
    if payload.get("c") is not None:
        return check_cocycle(action, _table(payload, "c"))
    return make_twisted_data(action)


def resolve_twisted_data(ref: str) -> TwistedData:
    return twisted_data_from_dict(_load_json(ref))


def _entry_ints(key: str, parts) -> tuple[int, ...]:
    """The JSON integers of one entry or table row; anything else names its key.

    Strings, floats and booleans are refused, not converted.
    """
    if not isinstance(parts, (list, tuple)) or any(type(x) is not int for x in parts):
        raise InputError(f"entry {key!r} is not made of integers")
    return tuple(parts)


def report_to_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, without the pure-Python encoder ``indent`` selects.

    Lists of ints take one ``join``, strings the C encoder and other leaves ``json.dumps``; a non-str key raises.
    """
    out: list[str] = []
    _write_json(report, "\n", out)
    return "".join(out) + "\n"


def _write_json(obj, pad: str, out: list[str]) -> None:
    inner = pad + "  "  # pad is a newline and the indentation of obj
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(sorted(obj.items())):
            out += ("," if i else "{", inner, encode_basestring_ascii(key), ": ")
            _write_json(value, inner, out)
        out += (pad, "}")
    elif isinstance(obj, (list, tuple)) and obj and all(type(x) is int for x in obj):
        out += ("[", inner, ("," + inner).join(map(str, obj)), pad, "]")
    elif isinstance(obj, (list, tuple)) and obj:
        for i, value in enumerate(obj):
            out += ("," if i else "[", inner)
            _write_json(value, inner, out)
        out += (pad, "]")
    else:
        out.append(json.dumps(obj))


def report_to_tsv(report: dict) -> str:
    lines = []
    for check in report.get("checks", []):
        extras = {k: v for k, v in check.items() if k not in ("name", "status")}
        blob = json.dumps(extras, sort_keys=True) if extras else ""
        lines.append(f"{check['name']}\t{check['status']}\t{blob}")
    return "\n".join(lines) + "\n"
