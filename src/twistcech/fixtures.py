"""Built-in groups, actions, nerves and the default verification grid.

The order-8 catalogue groups are constructed independently of the twisted
product (square symmetries as permutations, the literal quaternion table),
so isomorphism tests against built extensions are meaningful.
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .extensions import (
    GammaAction,
    TwistedData,
    check_cocycle,
    check_gamma_action,
    make_twisted_data,
    trivial_action,
)
from .groups import FiniteGroup, cyclic_group, direct_product, permutation_group, validate_group
from .nerves import TRIVIAL_GROUP, GammaNerve, Nerve, trivial_gamma_nerve, validate_gamma_nerve, validate_nerve
from .records import record


def _s3() -> FiniteGroup:
    perms = [tuple(p) for p in itertools.permutations(range(3))]
    return permutation_group(perms, label="S3")


def _d4() -> FiniteGroup:
    rot = (1, 2, 3, 0)
    flip = (3, 2, 1, 0)
    elems = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        p = frontier.pop()
        for q in (rot, flip):
            comp = tuple(p[q[i]] for i in range(4))
            if comp not in elems:
                elems.add(comp)
                frontier.append(comp)
    return permutation_group(sorted(elems), label="D4")


def _q8() -> FiniteGroup:
    # elements 2*axis + sign with axes (1, i, j, k); sign 0 -> +, 1 -> -
    table = {"11": "1", "ii": "-1", "jj": "-1", "kk": "-1",
             "ij": "k", "jk": "i", "ki": "j", "ji": "-k", "kj": "-i", "ik": "-j",
             "1i": "i", "1j": "j", "1k": "k", "i1": "i", "j1": "j", "k1": "k"}
    axes = "1ijk"

    def mul(a: int, b: int) -> int:
        ax_a, sg_a = divmod(a, 2)
        ax_b, sg_b = divmod(b, 2)
        prod = table[axes[ax_a] + axes[ax_b]]
        neg = prod.startswith("-")
        ax = axes.index(prod[-1])
        sign = (sg_a + sg_b + (1 if neg else 0)) % 2
        return 2 * ax + sign

    rows = [[mul(a, b) for b in range(8)] for a in range(8)]
    return validate_group(rows, label="Q8")


GROUPS: dict[str, FiniteGroup] = {}
for _n in (2, 3, 4, 8):
    GROUPS[f"C{_n}"] = cyclic_group(_n, label=f"C{_n}")
GROUPS["C1"] = TRIVIAL_GROUP
GROUPS["C2xC2"] = direct_product(cyclic_group(2), cyclic_group(2), label="C2xC2")
GROUPS["S3"] = _s3()
GROUPS["D4"] = _d4()
GROUPS["Q8"] = _q8()


def group(name: str) -> FiniteGroup:
    if name not in GROUPS:
        raise InputError(f"unknown built-in group {name!r}")
    return GROUPS[name]


def _order_two_action(name: str, gamma: FiniteGroup, g: FiniteGroup, auto: tuple[int, ...]) -> GammaAction:
    """Every nontrivial element of gamma acts by ``auto``: a homomorphism only
    when |gamma| <= 2 or ``auto`` is the identity."""
    ident = tuple(range(g.order))
    if gamma.order > 2 and auto != ident:
        raise InputError(f"{name} needs an acting group of order at most 2; {gamma.label} has order {gamma.order}")
    return check_gamma_action(gamma, g, tuple(auto if t else ident for t in gamma.elements()))


def inversion_action(gamma: FiniteGroup, g: FiniteGroup) -> GammaAction:
    """Each nontrivial element of an order-2 group acts by inversion."""
    if not g.is_abelian():
        raise InputError("inversion is only an automorphism of abelian groups")
    return _order_two_action("inversion", gamma, g, tuple(g.inv))


def q8_swap_action(gamma: FiniteGroup) -> GammaAction:
    """The order-2 outer automorphism of Q8 exchanging i and j (k -> -k)."""
    return _order_two_action("q8_swap", gamma, GROUPS["Q8"], (0, 1, 4, 5, 2, 3, 7, 6))


def named_action(name: str, gamma: FiniteGroup, g: FiniteGroup) -> GammaAction:
    if name == "trivial":
        return trivial_action(gamma, g)
    if name == "inversion":
        return inversion_action(gamma, g)
    if name == "q8_swap":
        if g.label != "Q8":
            raise InputError("q8_swap acts on Q8 only")
        return q8_swap_action(gamma)
    raise InputError(f"unknown built-in action {name!r}")


def c_square_table(gamma: FiniteGroup, value: int) -> list[list[int]]:
    """2-cochain with c(t, t) = value at the order-2 element, else identity."""
    n = gamma.order
    table = [[0] * n for _ in range(n)]
    for t in gamma.elements():
        if gamma.element_order(t) == 2:
            table[t][t] = value
    return table


def c_q_data(action: GammaAction) -> TwistedData:
    """The square-element central twist on C4 under an order-2 action."""
    return check_cocycle(action, c_square_table(action.gamma, 2))


NERVES: dict[str, Nerve] = {
    "Y_TRI": validate_nerve(3, [(0, 1), (1, 2), (0, 2)]),
    "Y_FILLED_TRI": validate_nerve(3, [(0, 1, 2)]),
    "X_HEX_NERVE": validate_nerve(6, [(i, (i + 1) % 6) for i in range(6)]),
    "X_TWO_TRI_NERVE": validate_nerve(6, [(0, 1, 2), (3, 4, 5)]),
    "X_DODEC_NERVE": validate_nerve(12, [(i, (i + 1) % 12) for i in range(12)]),
    "Y_TET": validate_nerve(4, [(0, 1, 2, 3)]),
    # the octahedron: vertices v and v + 3 are antipodal
    "X_OCT_NERVE": validate_nerve(
        6, [(0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 4, 5), (1, 2, 3), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
    ),
}


def nerve(name: str) -> Nerve:
    if name not in NERVES:
        raise InputError(f"unknown built-in nerve {name!r}")
    return NERVES[name]


def _shift_nerve(nerve_name: str, gamma_name: str, step: int) -> GammaNerve:
    """The free cyclic action whose generator shifts every vertex by ``step``."""
    nrv, gamma = NERVES[nerve_name], GROUPS[gamma_name]
    n = nrv.n_vertices
    tables = tuple(tuple((v + step * t) % n for v in range(n)) for t in gamma.elements())
    return validate_gamma_nerve(nrv, gamma, tables, require_free=True)


GAMMA_NERVES: dict[str, GammaNerve] = {
    "X_HEX": _shift_nerve("X_HEX_NERVE", "C2", 3),
    "X_TWO_TRI": _shift_nerve("X_TWO_TRI_NERVE", "C2", 3),
    "X_DODEC": _shift_nerve("X_DODEC_NERVE", "C4", 3),
    # the antipodal flip on the octahedron, a free C2 action with quotient RP^2
    "X_OCT": _shift_nerve("X_OCT_NERVE", "C2", 3),
    "Y_TRI_TRIVC2": trivial_gamma_nerve(NERVES["Y_TRI"], GROUPS["C2"]),
}


def gamma_nerve(name: str) -> GammaNerve:
    if name in GAMMA_NERVES:
        return GAMMA_NERVES[name]
    if name in NERVES:
        return NERVES[name].plain_space
    raise InputError(f"unknown built-in space {name!r}")


@record(frozen=True)
class GridInstance:
    name: str
    space_name: str
    data: TwistedData

    @property
    def space(self) -> GammaNerve:
        return gamma_nerve(self.space_name)


def _c2_data(g_name: str, action_name: str, c_name: str) -> TwistedData:
    action = named_action(action_name, GROUPS["C2"], GROUPS[g_name])
    if c_name == "trivial":
        return make_twisted_data(action)
    # the central square twist: C4 -> 2, Q8 -> -1, C2 -> the generator
    value = {"C4": 2, "Q8": 1, "C2": 1}[g_name]
    return check_cocycle(action, c_square_table(action.gamma, value))


_C2_SPECS = (
    ("C2", "trivial", "trivial"),
    ("C2", "trivial", "square"),
    ("C4", "trivial", "trivial"),
    ("C4", "trivial", "square"),
    ("C4", "inversion", "trivial"),
    ("C4", "inversion", "square"),
    ("S3", "trivial", "trivial"),
    ("Q8", "trivial", "trivial"),
    ("Q8", "trivial", "square"),
    ("Q8", "q8_swap", "trivial"),
    ("Q8", "q8_swap", "square"),
)

# name, space and spec of every row, in grid order
_GRID_ROWS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    *((f"circle/{g_name}", "Y_TRI", (g_name,)) for g_name in ("C2", "C4", "S3", "Q8")),
    *(
        (f"{space_name}/{','.join(spec)}", space_name, spec)
        for space_name in ("X_HEX", "X_TWO_TRI")
        for spec in _C2_SPECS
    ),
)


def _grid_row(name: str, space_name: str, spec: tuple[str, ...]) -> GridInstance:
    if space_name == "Y_TRI":
        data = make_twisted_data(trivial_action(GROUPS["C1"], GROUPS[spec[0]]))
    else:
        data = _c2_data(*spec)
    return GridInstance(name, space_name, data)


def default_grid() -> list[GridInstance]:
    """The standard verification instances, all desk-scale."""
    return [_grid_row(*row) for row in _GRID_ROWS]


def grid_instance(name: str) -> GridInstance:
    """One row of ``default_grid()``, built without the others."""
    for row in _GRID_ROWS:
        if row[0] == name:
            return _grid_row(*row)
    raise InputError(f"unknown grid instance {name!r}")
