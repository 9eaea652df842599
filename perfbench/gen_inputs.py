"""Write the benchmark's JSON inputs under ``perfbench/inputs``.

Run from the checkout root:

    python3 perfbench/gen_inputs.py          # (re)write the files
    python3 perfbench/gen_inputs.py --check  # exit 1 if a file differs

Files:

* ``X_OCT.json``: the octahedron (vertices +x, +y, +z, -x, -y, -z as
  0..5) with the antipodal C2 action v -> v + 3 mod 6.  The action is
  free and the quotient is RP^2.
* ``trivial_<GAMMA>_<G>.json``: twisted data with the trivial action of
  GAMMA on G and the trivial twist, one file per ``h1`` coefficient case.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import INPUTS, use_checkout_src  # noqa: E402

# (acting group, coefficient group) for every h1 job of the h1-ladder workload
TWISTED_CASES = (
    ("C2", "C2"),
    ("C2", "C4"),
    ("C2", "S3"),
    ("C4", "C2"),
    ("C4", "C4"),
    ("C4", "C2xC2"),
    ("C4", "S3"),
    ("C4", "Q8"),
    ("C4", "D4"),
    ("C4", "C8"),
)


def x_oct() -> dict:
    # one vertex from each antipodal pair {v, v + 3} spans a face
    faces = [sorted(face) for face in itertools.product((0, 3), (1, 4), (2, 5))]
    return {
        "vertices": 6,
        "simplices": sorted(faces),
        "gamma": "C2",
        "act": [list(range(6)), [(v + 3) % 6 for v in range(6)]],
    }


def trivial_data(gamma_name: str, g_name: str) -> dict:
    from twistcech.fixtures import group

    gamma, g = group(gamma_name), group(g_name)
    return {
        "gamma": gamma_name,
        "g": g_name,
        "theta": [list(range(g.order)) for _ in range(gamma.order)],
        "c": [[0] * gamma.order for _ in range(gamma.order)],
    }


def data_path(gamma_name: str, g_name: str) -> Path:
    return INPUTS / f"trivial_{gamma_name}_{g_name}.json"


def validate(files: dict[Path, dict]) -> None:
    """Load every payload through the library's own validators."""
    from twistcech.nerves import validate_gamma_nerve
    from twistcech.serialize import gamma_nerve_from_dict, twisted_data_from_dict

    oct_payload = files[INPUTS / "X_OCT.json"]
    space = gamma_nerve_from_dict(oct_payload)
    validate_gamma_nerve(space.nerve, space.gamma, space.vact, require_free=True)
    if len(space.nerve.edges) != 12 or len(space.nerve.triangles) != 8:
        raise ValueError("X_OCT must have 12 edges and 8 triangles")
    for path, payload in files.items():
        if path.name.startswith("trivial_"):
            twisted_data_from_dict(payload)


def render() -> dict[Path, str]:
    files = {INPUTS / "X_OCT.json": x_oct()}
    for gamma_name, g_name in TWISTED_CASES:
        files[data_path(gamma_name, g_name)] = trivial_data(gamma_name, g_name)
    validate(files)
    return {path: json.dumps(payload, sort_keys=True) + "\n" for path, payload in files.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args(argv)
    use_checkout_src()
    rendered = render()
    if args.check:
        stale = [p.name for p, text in rendered.items() if not p.is_file() or p.read_text() != text]
        if stale:
            print(f"stale benchmark inputs: {', '.join(stale)}", file=sys.stderr)
            return 1
        return 0
    INPUTS.mkdir(parents=True, exist_ok=True)
    for path, text in rendered.items():
        path.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
