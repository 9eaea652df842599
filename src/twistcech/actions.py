"""Twisted actions of a pair (G, Gamma) on finite sets.

A right twisted action is a right G-action together with per-element maps
m -> m . t for t in Gamma subject to

    (i)   m . 1 == m
    (ii)  (m . theta_t(g)) . t == (m . t) . g
    (iii) (m . t1) . t2 == (m . c(t1,t2)) . (t1 t2)

so the Gamma-part is a group action only up to the central twist c.  These
are exactly restrictions of actions of the twisted product group, and both
directions of that dictionary are implemented.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    AxiomI,
    AxiomII,
    AxiomIII,
    CarrierMismatch,
    InputError,
    InternalError,
    NotAGroupAction,
    SubgroupNotInvariant,
)
from .extensions import (
    Recocycling,
    TwistedData,
    TwistedProductGroup,
    build_twisted_product,
    make_twisted_data,
)
from .groups import FiniteGroup, left_cosets, orbit_closures, subgroup_from_elements
from .records import record

Table = tuple[tuple[int, ...], ...]


@record(frozen=True)
class TwistedGSet:
    data: TwistedData
    size: int
    g_act: Table  # g_act[g][m]
    gamma_act: Table  # gamma_act[t][m]
    side: str  # "left" | "right"

    def points(self) -> range:
        return range(self.size)


def _check_plain_action(group: FiniteGroup, size: int, table: Table, side: str) -> None:
    ident = tuple(range(size))
    if table[0] != ident:
        raise NotAGroupAction(0, message="identity fails to act trivially")
    for a in group.elements():
        for b in group.elements():
            # right: m.(ab) == (m.a).b ; left: (ab).m == a.(b.m)
            first, second = (a, b) if side == "right" else (b, a)
            composed = tuple(table[second][table[first][m]] for m in range(size))
            if composed != table[group.mul[a][b]]:
                raise NotAGroupAction(a, b)


def validate_twisted_action(
    data: TwistedData,
    size: int,
    g_act: Sequence[Sequence[int]],
    gamma_act: Sequence[Sequence[int]],
    side: str = "right",
) -> TwistedGSet:
    """Check the three twisted axioms exhaustively and freeze the tables.

    The Gamma-part is deliberately NOT required to be a group action: axiom
    (iii) twists composition by c, and for nontrivial c it cannot be one.
    """
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")
    g, gamma = data.g, data.gamma
    gt = tuple(tuple(int(x) for x in row) for row in g_act)
    tt = tuple(tuple(int(x) for x in row) for row in gamma_act)
    if len(gt) != g.order or any(len(r) != size for r in gt):
        raise InputError("g_act must be |G| x carrier")
    if len(tt) != gamma.order or any(len(r) != size for r in tt):
        raise InputError("gamma_act must be |Gamma| x carrier")
    for row in gt + tt:
        if sorted(row) != list(range(size)):
            raise InputError("action rows must be permutations of the carrier")
    _check_plain_action(g, size, gt, side)

    ident = tuple(range(size))
    if tt[0] != ident:
        raise AxiomI(0)
    for t in gamma.elements():
        for a in g.elements():
            for m in range(size):
                if side == "right":
                    # (m . theta_t(a)) . t == (m . t) . a
                    lhs = tt[t][gt[data.theta(t, a)][m]]
                    rhs = gt[a][tt[t][m]]
                else:
                    # t . (a . m) == theta_t(a) . (t . m)
                    lhs = tt[t][gt[a][m]]
                    rhs = gt[data.theta(t, a)][tt[t][m]]
                if lhs != rhs:
                    raise AxiomII(m, a, t)
    for t1 in gamma.elements():
        for t2 in gamma.elements():
            c12 = data.c(t1, t2)
            t12 = gamma.mul[t1][t2]
            for m in range(size):
                if side == "right":
                    lhs = tt[t2][tt[t1][m]]
                    rhs = tt[t12][gt[c12][m]]
                else:
                    lhs = tt[t1][tt[t2][m]]
                    rhs = gt[c12][tt[t12][m]]
                if lhs != rhs:
                    raise AxiomIII(m, t1, t2)
    return TwistedGSet(data, size, gt, tt, side)


@record(frozen=True)
class GhatSet:
    product: TwistedProductGroup
    size: int
    act: Table  # act[element][m]
    side: str


def to_ghat(m: TwistedGSet, product: Optional[TwistedProductGroup] = None) -> GhatSet:
    """Assemble the twisted action into an action of the twisted product."""
    prod = product or build_twisted_product(m.data)
    n = prod.group.order
    act = []
    for idx in range(n):
        a, t = prod.index_pair(idx)
        if m.side == "right":
            row = tuple(m.gamma_act[t][m.g_act[a][p]] for p in m.points())
        else:
            row = tuple(m.g_act[a][m.gamma_act[t][p]] for p in m.points())
        act.append(row)
    ghat = GhatSet(prod, m.size, tuple(act), m.side)
    _check_plain_action(prod.group, m.size, ghat.act, m.side)
    return ghat


def from_ghat(n: GhatSet) -> TwistedGSet:
    """Restrict a twisted-product action back to its (G, Gamma) parts."""
    prod = n.product
    data = prod.data
    g_act = tuple(n.act[prod.pair_index(a, 0)] for a in data.g.elements())
    gamma_act = tuple(n.act[prod.pair_index(0, t)] for t in data.gamma.elements())
    return validate_twisted_action(data, n.size, g_act, gamma_act, n.side)


def convert_side(m: TwistedGSet) -> TwistedGSet:
    """The companion action on the other side.

    Right from left:  m . g = g^-1 . m,  m . t = c(t^-1,t)^-1 . (t^-1 . m).
    Left from right:  g . m = m . g^-1,  t . m = (m . c(t^-1,t)^-1) . t^-1.
    """
    g, gamma = m.data.g, m.data.gamma
    g_act = tuple(m.g_act[g.inv[a]] for a in g.elements())
    rows = []
    for t in gamma.elements():
        ti = gamma.inv[t]
        z = g.inv[m.data.c(ti, t)]
        if m.side == "left":
            row = tuple(m.g_act[z][m.gamma_act[ti][p]] for p in m.points())
        else:
            row = tuple(m.gamma_act[ti][m.g_act[z][p]] for p in m.points())
        rows.append(row)
    new_side = "right" if m.side == "left" else "left"
    return validate_twisted_action(m.data, m.size, g_act, tuple(rows), new_side)


def is_twisted_equivariant(f: Sequence[int], m: TwistedGSet, n: TwistedGSet) -> bool:
    """True iff f commutes with both the G-maps and the Gamma-maps."""
    if m.data != n.data or m.side != n.side:
        raise CarrierMismatch(message="sets do not share twisted data and side")
    fm = tuple(int(x) for x in f)
    if len(fm) != m.size or any(not 0 <= x < n.size for x in fm):
        raise CarrierMismatch(message="map does not match the carriers")
    for a in m.data.g.elements():
        for p in m.points():
            if fm[m.g_act[a][p]] != n.g_act[a][fm[p]]:
                return False
    for t in m.data.gamma.elements():
        for p in m.points():
            if fm[m.gamma_act[t][p]] != n.gamma_act[t][fm[p]]:
                return False
    return True


def quotient_by_g(m: TwistedGSet) -> tuple[list[tuple[int, ...]], Table, tuple[int, ...]]:
    """Orbits of the G-part with the induced honest Gamma-action.

    Returns (orbits, gamma action on orbit indices, projection table).
    """
    orbits = orbit_closures(m.points(), lambda p: (row[p] for row in m.g_act))
    proj = [0] * m.size
    for i, orb in enumerate(orbits):
        for p in orb:
            proj[p] = i
    rows = []
    for t in m.data.gamma.elements():
        row = []
        for orb in orbits:
            images = {proj[m.gamma_act[t][p]] for p in orb}
            if len(images) != 1:
                raise InternalError("Gamma-action fails to descend to the orbit set")
            row.append(images.pop())
        rows.append(tuple(row))
    k = len(orbits)
    gamma = m.data.gamma
    ident = tuple(range(k))
    if rows[0] != ident:
        raise InternalError("identity fails to act trivially on orbits")
    for a in gamma.elements():
        for b in gamma.elements():
            comp = tuple(rows[b][rows[a][x]] for x in range(k)) if m.side == "right" else tuple(
                rows[a][rows[b][x]] for x in range(k)
            )
            if comp != rows[gamma.mul[a][b]]:
                raise InternalError("quotient Gamma-action fails to be an action")
    return orbits, tuple(rows), tuple(proj)


def homogeneous_space(data: TwistedData, subgroup_elements: Sequence[int]) -> TwistedGSet:
    """Left cosets gH with g1 . (gH) = (g1 g)H and t . (gH) = theta_t(g)H.

    The Gamma-part here is an honest action, so the returned set carries the
    cocycle-free twisting (only theta is used).
    """
    g, gamma = data.g, data.gamma
    sub = subgroup_from_elements(g, subgroup_elements)
    helems = sub.embed
    for t in gamma.elements():
        for h in helems:
            if data.theta(t, h) not in sub.parent_to_sub:
                raise SubgroupNotInvariant(t, h)

    cosets, coset_of = left_cosets(g, helems)
    reps = [cs[0] for cs in cosets]
    k = len(cosets)
    g_rows = tuple(tuple(coset_of[g.mul[a][reps[i]]] for i in range(k)) for a in g.elements())
    t_rows = tuple(tuple(coset_of[data.theta(t, reps[i])] for i in range(k)) for t in gamma.elements())
    return validate_twisted_action(make_twisted_data(data.action), k, g_rows, t_rows, "left")


def transport(m: TwistedGSet, rec: Recocycling) -> TwistedGSet:
    """Re-express a twisted action for the recocycled data.

    For a right action the G-part is unchanged and the new Gamma-part is
    m * t := (m . s(t)) . t; left actions are routed through convert_side.
    """
    if m.data != rec.old:
        raise CarrierMismatch(message="twisted set does not match the recocycling source data")
    if m.side == "left":
        flipped = transport(convert_side(m), rec)
        return convert_side(flipped)
    rows = tuple(
        tuple(m.gamma_act[t][m.g_act[rec.s[t]][p]] for p in m.points())
        for t in m.data.gamma.elements()
    )
    return validate_twisted_action(rec.new, m.size, m.g_act, rows, "right")


def regular_ghat_set(product: TwistedProductGroup, side: str = "right") -> TwistedGSet:
    """The twisted action on the twisted product itself by translation."""
    grp = product.group
    if side == "right":
        act = tuple(tuple(grp.mul[p][x] for p in grp.elements()) for x in grp.elements())
    else:
        act = tuple(tuple(grp.mul[x][p] for p in grp.elements()) for x in grp.elements())
    return from_ghat(GhatSet(product, grp.order, act, side))
