"""Twisted actions of a pair (G, Gamma) on finite sets.

A twisted action is a right G-action together with per-element maps
m -> m . t for t in Gamma subject to

    (i)   m . 1 == m
    (ii)  (m . theta_t(g)) . t == (m . t) . g
    (iii) (m . t1) . t2 == (m . c(t1,t2)) . (t1 t2)

so the Gamma-part is a group action only up to the central twist c.  These
are exactly restrictions of right actions of the twisted product group, and
both directions of that dictionary are implemented.  A left action enters as
m . g := g^-1 . m, as homogeneous_space does.
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
from .groups import FiniteGroup, action_witness, left_cosets, orbit_closures, subgroup_from_elements
from .records import record

Table = tuple[tuple[int, ...], ...]


@record(frozen=True)
class TwistedGSet:
    data: TwistedData
    size: int
    g_act: Table  # g_act[g][m]
    gamma_act: Table  # gamma_act[t][m]

    def points(self) -> range:
        return range(self.size)


def _check_plain_action(group: FiniteGroup, size: int, table: Table) -> None:
    if table[0] != tuple(range(size)):
        raise NotAGroupAction(0, message="identity fails to act trivially")
    witness = action_witness(group, table)
    if witness is not None:
        raise NotAGroupAction(*witness)


def validate_twisted_action(
    data: TwistedData,
    size: int,
    g_act: Sequence[Sequence[int]],
    gamma_act: Sequence[Sequence[int]],
) -> TwistedGSet:
    """Check the three twisted axioms exhaustively and freeze the tables.

    The Gamma-part is deliberately NOT required to be a group action: axiom
    (iii) twists composition by c, and for nontrivial c it cannot be one.
    """
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
    _check_plain_action(g, size, gt)

    if tt[0] != tuple(range(size)):
        raise AxiomI(0)
    for t in gamma.elements():
        for a in g.elements():
            for m in range(size):
                # (m . theta_t(a)) . t == (m . t) . a
                if tt[t][gt[data.theta(t, a)][m]] != gt[a][tt[t][m]]:
                    raise AxiomII(m, a, t)
    for t1 in gamma.elements():
        for t2 in gamma.elements():
            c12 = data.c(t1, t2)
            t12 = gamma.mul[t1][t2]
            for m in range(size):
                # (m . t1) . t2 == (m . c(t1,t2)) . (t1 t2)
                if tt[t2][tt[t1][m]] != tt[t12][gt[c12][m]]:
                    raise AxiomIII(m, t1, t2)
    return TwistedGSet(data, size, gt, tt)


@record(frozen=True)
class GhatSet:
    product: TwistedProductGroup
    size: int
    act: Table  # act[element][m]


def to_ghat(m: TwistedGSet, product: Optional[TwistedProductGroup] = None) -> GhatSet:
    """Assemble the twisted action into a right action of the twisted product: m.(a, t) = (m.a).t."""
    prod = product or build_twisted_product(m.data)
    act = tuple(
        tuple(m.gamma_act[t][m.g_act[a][p]] for p in m.points()) for a, t in map(prod.index_pair, prod.group.elements())
    )
    _check_plain_action(prod.group, m.size, act)
    return GhatSet(prod, m.size, act)


def from_ghat(n: GhatSet) -> TwistedGSet:
    """Restrict a twisted-product action, once its table passes as a right action, back to its (G, Gamma) parts."""
    prod = n.product
    data = prod.data
    _check_plain_action(prod.group, n.size, n.act)
    g_act = tuple(n.act[prod.pair_index(a, 0)] for a in data.g.elements())
    gamma_act = tuple(n.act[prod.pair_index(0, t)] for t in data.gamma.elements())
    return validate_twisted_action(data, n.size, g_act, gamma_act)


def is_twisted_equivariant(f: Sequence[int], m: TwistedGSet, n: TwistedGSet) -> bool:
    """True iff f commutes with both the G-maps and the Gamma-maps."""
    if m.data != n.data:
        raise CarrierMismatch(message="sets do not share twisted data")
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
    table = tuple(rows)
    if table[0] != tuple(range(len(orbits))):
        raise InternalError("identity fails to act trivially on orbits")
    if action_witness(m.data.gamma, table) is not None:
        raise InternalError("quotient Gamma-action fails to be an action")
    return orbits, table, tuple(proj)


def homogeneous_space(data: TwistedData, subgroup_elements: Sequence[int]) -> TwistedGSet:
    """Left cosets gH with (gH) . g1 = (g1^-1 g)H and (gH) . t = theta_t^-1(g)H.

    This is the left action g1 . (gH) = (g1 g)H, t . (gH) = theta_t(g)H,
    entered as m . x := x^-1 . m.  The Gamma-part here is an honest action,
    so the returned set carries the cocycle-free twisting (only theta is used).
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
    g_rows = tuple(tuple(coset_of[g.mul[g.inv[a]][r]] for r in reps) for a in g.elements())
    t_rows = tuple(tuple(coset_of[data.theta_inv(t, r)] for r in reps) for t in gamma.elements())
    return validate_twisted_action(make_twisted_data(data.action), len(reps), g_rows, t_rows)


def transport(m: TwistedGSet, rec: Recocycling) -> TwistedGSet:
    """Re-express a twisted action for the recocycled data.

    The G-part is unchanged and the new Gamma-part is m * t := (m . s(t)) . t.
    """
    if m.data != rec.old:
        raise CarrierMismatch(message="twisted set does not match the recocycling source data")
    rows = tuple(
        tuple(m.gamma_act[t][m.g_act[rec.s[t]][p]] for p in m.points())
        for t in m.data.gamma.elements()
    )
    return validate_twisted_action(rec.new, m.size, m.g_act, rows)


def regular_ghat_set(product: TwistedProductGroup) -> TwistedGSet:
    """The twisted action on the twisted product itself by right translation."""
    grp = product.group
    act = tuple(tuple(grp.mul[p][x] for p in grp.elements()) for x in grp.elements())
    return from_ghat(GhatSet(product, grp.order, act))
