"""Group extensions from twisted 2-cocycles.

A twisting of a finite group G by a finite group Gamma is a pair: an action
theta of Gamma on G by automorphisms, and a normalized 2-cochain c valued in
the centre of G satisfying the twisted cocycle identity

    theta_g0(c(g1,g2)) * c(g0, g1*g2) == c(g0,g1) * c(g0*g1, g2).

The twisted product glues G and Gamma into a group on the set G x Gamma via

    (a, g1) * (b, g2) == (a * theta_g1(b) * c(g1,g2), g1*g2),

and every extension of Gamma by G whose conjugation action lifts to a
homomorphism arises this way.  Cocycle values are stored as G-element
indices constrained to lie in the centre.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

from .abelian import DEFAULT_COORD_GUARD, AbelianComplex, abelian_coordinates
from .errors import (
    BudgetExceeded,
    CocycleNotCentral,
    CocycleViolation,
    CsNotCentral,
    InputError,
    InternalError,
    NotAOneCocycle,
    NotNormalized,
    SectionNotNormalised,
    SubgroupNotInvariant,
    ValueNotCentral,
    Work,
)
from .groups import (
    Automorphism,
    FiniteGroup,
    GroupHom,
    Subgroup,
    center,
    check_automorphism,
    check_elements,
    check_hom,
    is_central,
    is_normal,
    law_witness,
    left_cosets,
    subgroup_from_elements,
)
from .nerves import point_space
from .records import record


@record(frozen=True)
class GammaAction:
    """A homomorphism gamma -> Aut(g), stored as permutation tables."""

    gamma: FiniteGroup
    g: FiniteGroup
    theta: tuple[Automorphism, ...]

    def apply(self, gamma_elem: int, g_elem: int) -> int:
        return self.theta[gamma_elem].map[g_elem]

    def apply_inv(self, gamma_elem: int, g_elem: int) -> int:
        return self.theta[gamma_elem].inverse_map[g_elem]


def check_gamma_action(gamma: FiniteGroup, g: FiniteGroup, tables: Sequence[Sequence[int]]) -> GammaAction:
    if len(tables) != gamma.order:
        raise InputError("need one automorphism table per acting element")
    autos = tuple(check_automorphism(g, t) for t in tables)
    if autos[0].map != tuple(range(g.order)):
        raise InputError("identity must act as the identity automorphism")
    maps = tuple(auto.map for auto in autos)  # the law's sides: theta_a theta_b and theta_ab, for every b
    witness = law_witness(
        gamma, lambda a: (tuple(tuple(map(maps[a].__getitem__, mb)) for mb in maps), tuple(map(maps.__getitem__, gamma.mul[a])))
    )
    if witness is not None:
        raise InputError("theta is not a homomorphism at ({},{})".format(*witness))
    return GammaAction(gamma, g, autos)


def trivial_action(gamma: FiniteGroup, g: FiniteGroup) -> GammaAction:
    """Every element acts by the identity, an automorphism, so the action needs none of ``check_gamma_action``'s checks."""
    ident = tuple(range(g.order))
    return GammaAction(gamma, g, (Automorphism(GroupHom(g, g, ident), ident),) * gamma.order)


@record(frozen=True)
class GammaOneCochain:
    """A map gamma -> Z(G) with a(1) = 1, as G-element indices."""

    values: tuple[int, ...]


@record(frozen=True)
class TwistedData:
    """The twisting (theta, c): an action and a normalized central 2-cocycle table of G-element indices."""

    action: GammaAction
    table: tuple[tuple[int, ...], ...]

    @property
    def gamma(self) -> FiniteGroup:
        return self.action.gamma

    @property
    def g(self) -> FiniteGroup:
        return self.action.g

    def theta(self, gamma_elem: int, g_elem: int) -> int:
        return self.action.apply(gamma_elem, g_elem)

    def theta_inv(self, gamma_elem: int, g_elem: int) -> int:
        return self.action.apply_inv(gamma_elem, g_elem)

    def c(self, g1: int, g2: int) -> int:
        return self.table[g1][g2]

    def is_trivial(self) -> bool:
        return all(v == 0 for row in self.table for v in row)


def check_cocycle(action: GammaAction, table: Sequence[Sequence[int]]) -> TwistedData:
    """Verify normalization, centrality and the twisted cocycle identity."""
    gamma, g = action.gamma, action.g
    rows = tuple(tuple(int(v) for v in row) for row in table)
    if len(rows) != gamma.order or any(len(r) != gamma.order for r in rows):
        raise InputError("cocycle table must be |Gamma| x |Gamma|")
    n = gamma.order
    check_elements(g.order, [v for row in rows for v in row], lambda i: f"c({i // n},{i % n})")
    values = {v for row in rows for v in row}
    central = {v for v in values if is_central(g, v)}
    for g1 in gamma.elements():
        for g2 in gamma.elements():
            if rows[g1][g2] not in central:
                raise ValueNotCentral(g1, g2)
    for x in gamma.elements():
        if rows[x][0] != 0 or rows[0][x] != 0:
            raise NotNormalized(x)
    mul, gmul = g.mul, gamma.mul
    for g0 in gamma.elements():
        theta0, row0 = action.theta[g0].map, rows[g0]
        for g1 in gamma.elements():
            row01 = rows[gmul[g0][g1]]
            for g2 in gamma.elements():
                # theta_g0(c(g1,g2)) * c(g0,g1*g2) == c(g0,g1) * c(g0*g1,g2)
                if mul[theta0[rows[g1][g2]]][row0[gmul[g1][g2]]] != mul[row0[g1]][row01[g2]]:
                    raise CocycleViolation(g0, g1, g2)
    return TwistedData(action, rows)


def make_twisted_data(action: GammaAction) -> TwistedData:
    """The trivial twisting of an action: c is identically 1."""
    n = action.gamma.order
    return TwistedData(action, tuple((0,) * n for _ in range(n)))


def coboundary(action: GammaAction, cochain: GammaOneCochain) -> TwistedData:
    """delta a (g0,g1) = theta_g0(a(g1)) * a(g0 g1)^-1 * a(g0)."""
    gamma, g = action.gamma, action.g
    a = cochain.values
    if len(a) != gamma.order or a[0] != 0:
        raise InputError("1-cochain must assign a(1) = 1 and cover Gamma")
    check_elements(g.order, a, lambda t: f"a({t})")
    if not all(is_central(g, v) for v in a):
        raise InputError("1-cochain values must be central")
    table = tuple(
        tuple(
            g.mul[g.mul[action.apply(g0, a[g1])][g.inv[a[gamma.mul[g0][g1]]]]][a[g0]]
            for g1 in gamma.elements()
        )
        for g0 in gamma.elements()
    )
    return check_cocycle(action, table)


def multiply_cocycles(a: TwistedData, b: TwistedData) -> TwistedData:
    """The pointwise product of the two tables, checked as a cocycle for the action of ``a``."""
    g, n = a.g, a.gamma.order
    return check_cocycle(a.action, [[g.mul[a.table[i][j]][b.table[i][j]] for j in range(n)] for i in range(n)])


@record
class CocycleClassification:
    """H^2 for a fixed action: the least table of each class as check_cocycle's data, and the point complex that labels them."""

    action: GammaAction
    representatives: list[TwistedData]
    complex: AbelianComplex

    def __len__(self) -> int:
        return len(self.representatives)

    def class_of(self, cocycle: TwistedData | Sequence[Sequence[int]]) -> int:
        """The index of the table's B^2 label among the representatives', once check_cocycle passes it."""
        from .cech import cochain_vector

        table = check_cocycle(self.action, cocycle.table if isinstance(cocycle, TwistedData) else cocycle).table
        gamma, back = self.action.gamma, center(self.action.g).parent_to_sub

        def label(c: Sequence[Sequence[int]]) -> tuple[int, ...]:
            # the inverse of table_of: w(t1, t2) = theta_{t2 t1}^-1(c(t2, t1))
            pairs = ((t1, t2) for t1 in gamma.elements() if t1 for t2 in gamma.elements() if t2)
            w = [back[self.action.apply_inv(gamma.mul[t2][t1], c[t2][t1])] for t1, t2 in pairs]
            return self.complex.coboundaries.reduce(cochain_vector(self.complex.coords, w))

        return [label(rep.table) for rep in self.representatives].index(label(table))


def _whole(g: FiniteGroup) -> Subgroup:
    """The group as a subgroup of itself, with the group object kept."""
    return Subgroup(g, g, tuple(g.elements()), {x: x for x in g.elements()})


def restrict_to_subgroup(
    data: TwistedData, sub: Optional[Subgroup] = None, gamma_sub: Optional[Subgroup] = None
) -> Optional[TwistedData]:
    """(theta, c) on a subgroup of G and a subgroup of Gamma, in the subgroups' own indices.

    Each subgroup defaults to the whole group.  Raises
    SubgroupNotInvariant(t, h), t a Gamma index, when some theta_t with t in
    ``gamma_sub`` moves ``sub`` out of itself; returns None when c on
    ``gamma_sub`` takes a value outside ``sub``.
    """
    sub, gamma_sub = sub or _whole(data.g), gamma_sub or _whole(data.gamma)
    back, ts = sub.parent_to_sub, gamma_sub.embed
    tables = []
    for t in ts:
        row = []
        for h in sub.embed:
            img = data.theta(t, h)
            if img not in back:
                raise SubgroupNotInvariant(t, h)
            row.append(back[img])
        tables.append(row)
    ctable = [[data.c(t1, t2) for t2 in ts] for t1 in ts]
    if any(v not in back for row in ctable for v in row):
        return None
    action = check_gamma_action(gamma_sub.group, sub.group, tables)
    return check_cocycle(action, [[back[v] for v in row] for row in ctable])


def second_cohomology(action: GammaAction, *, work: Work = Work()) -> CocycleClassification:
    """Classify central 2-cocycles up to coboundary as the Cech H^2 of a point.

    Over the one-vertex nerve with Gamma acting trivially, ``point_space(gamma)``,
    whose tables and d2 stencil compile once per group object, the Cech complex
    with coefficients Z(G) is the normalized group complex: the (t1, t2)
    slots are the whole of its 2-cochains, the (t1, t2, t3) sites of d2 are
    the cocycle identity and the vertex part of d1 is the group coboundary.
    So its abelian complex gives Z^2 and the B^2 labels of its cosets, and a
    kernel vector w is read as the table c(g1, g2) = theta_{g1 g2}(w(g2, g1)),
    the inverse of the twist target w(t, t2) = theta_{t2 t}^-1(c(t2, t)).
    Every representative is check_cocycle's output.

    Representatives are the lexicographically minimal tables of each coset,
    and class ids ascend with them, so class 0 is B^2, whose least table is
    the identity table; only the Z^2 vectors outside B^2 build a table, each
    entry read through one map per slot.  Refuses (rather than
    sampling) when the 3-cochains have more than DEFAULT_COORD_GUARD
    coordinates, or when |Z^2| exceeds ``work.enum``.
    """
    # cech imports this module at load time
    from .cech import CechSystem, abelian_complex

    gamma = action.gamma
    zsub = center(action.g)
    n_out = (gamma.order - 1) ** 3 * len(abelian_coordinates(zsub.group).moduli)
    if n_out > DEFAULT_COORD_GUARD:
        raise BudgetExceeded(f"3-cochains have {n_out} coordinates, guard {DEFAULT_COORD_GUARD}")
    cx = abelian_complex(CechSystem(point_space(gamma), restrict_to_subgroup(make_twisted_data(action), zsub)))
    if cx.cocycles.size > work.enum:
        raise BudgetExceeded(f"kernel of d2 has {cx.cocycles.size} elements, budget {work.enum}")
    r = len(cx.coords.moduli)
    # per (t1, t2) slot: its table cell and the map from coordinates w to theta_{t2 t1}(w)
    slots = [
        (t2, t1, {vec: action.apply(gamma.mul[t2][t1], zsub.embed[w]) for w, vec in enumerate(cx.coords.vec_of)})
        for t1 in range(1, gamma.order)
        for t2 in range(1, gamma.order)
    ]

    def table_of(vec: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        table = [[0] * gamma.order for _ in gamma.elements()]
        for at, (t2, t1, entry) in enumerate(slots):
            table[t2][t1] = entry[vec[at * r : at * r + r]]
        return tuple(map(tuple, table))

    # the zero table is least of all and lies in B^2, so B^2's vectors build none
    zero = (0,) * len(cx.coboundaries.mods)
    least = {zero: tuple((0,) * gamma.order for _ in gamma.elements())}
    work.clock("second_cohomology's Z^2 listing")
    for listed, vec in enumerate(cx.cocycles.elements()):
        if listed and not listed & 1023:
            work.clock("second_cohomology's Z^2 listing")
        label = cx.coboundaries.reduce(vec)
        if label != zero:
            table = table_of(vec)
            least[label] = min(table, least.get(label, table))
    # both orders are products over the Howell pivots, known before listing
    order = cx.cocycles.size // cx.coboundaries.size
    if len(least) != order:
        raise InternalError(f"H2 class count mismatch: listed {len(least)}, index formula {order}")
    return CocycleClassification(action, [check_cocycle(action, table) for table in sorted(least.values())], cx)


@record(frozen=True)
class TwistedProductGroup:
    """The glued group on G x Gamma with its structural maps.

    Index layout: (g, gamma) -> g * |Gamma| + gamma, so the embedded copy of
    G is {g * |Gamma|} and the normalized section is gamma -> (1, gamma).
    """

    data: TwistedData
    group: FiniteGroup
    embed_g: GroupHom
    proj: GroupHom
    section: tuple[int, ...]

    def pair_index(self, g_elem: int, gamma_elem: int) -> int:
        return g_elem * self.data.gamma.order + gamma_elem

    def index_pair(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.data.gamma.order)


def build_twisted_product(data: TwistedData, label: Optional[str] = None) -> TwistedProductGroup:
    """The group (a, x)(b, y) = (a theta_x(b) c(x, y), xy), with (a, x)^-1 = (theta_x^-1(a^-1 c(x, x^-1)^-1), x^-1).

    ``data`` must be ``check_cocycle``'s output or ``make_twisted_data``'s trivial twist, as it is
    on every path of the package: classify's representatives, verify's ``ladder.sys_c.data``,
    ``sub_product`` through ``restrict_to_subgroup``, ``gamma_hat``, ``correspond`` and ``actions``.
    Then theta is a homomorphism and c a normalized central 2-cocycle, which is the group law with
    (1, 1) at index 0, so the table is written from the formula and not validated again.
    """
    g, gamma = data.g, data.gamma
    nq = gamma.order
    rows, inv = [], []
    for x, (auto, c_x, gamma_x) in enumerate(zip(data.action.theta, data.table, gamma.mul)):
        # block[t] is the row segment of every (b, y) with a theta_x(b) = t: (t c(x, y), xy) for each y
        block = [tuple(t_row[c] * nq + xy for c, xy in zip(c_x, gamma_x)) for t_row in g.mul]
        rows.append([tuple(chain.from_iterable(map(block.__getitem__, map(a_row.__getitem__, auto.map)))) for a_row in g.mul])
        x_inv = gamma.inv[x]
        c_bar = g.inv[c_x[x_inv]]  # c(x, x^-1)^-1
        inv.append([auto.inverse_map[g.mul[a_inv][c_bar]] * nq + x_inv for a_inv in g.inv])
    # rows[x][a] and inv[x][a] belong to (a, x), at index a |Gamma| + x
    grp = FiniteGroup(g.order * nq, tuple(chain.from_iterable(zip(*rows))), tuple(chain.from_iterable(zip(*inv))), label=label)
    embed = GroupHom(g, grp, tuple(a * nq for a in g.elements()))
    proj = GroupHom(grp, gamma, tuple(gamma.elements()) * g.order)
    return TwistedProductGroup(data, grp, embed, proj, tuple(gamma.elements()))


def _checked_hom(source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int], what: str) -> GroupHom:
    """``check_hom`` on a map a theorem makes a homomorphism; a failure is a library bug naming ``what``."""
    try:
        return check_hom(source, target, mapping)
    except InputError as exc:
        raise InternalError(f"{what}: {exc}") from exc


def sub_product(
    big: TwistedProductGroup,
    sub: Optional[Subgroup] = None,
    gamma_sub: Optional[Subgroup] = None,
    label: Optional[str] = None,
) -> tuple[TwistedProductGroup, GroupHom]:
    """The glued product of ``big.data`` restricted to the subgroups, and its inclusion in ``big``.

    ``sub`` and ``gamma_sub`` are as for ``restrict_to_subgroup``; ``label``
    names the small product.  The inclusion sends (a, t) to
    (sub.embed[a], gamma_sub.embed[t]).
    """
    sub, gamma_sub = sub or _whole(big.data.g), gamma_sub or _whole(big.data.gamma)
    restricted = restrict_to_subgroup(big.data, sub, gamma_sub)
    if restricted is None:
        raise InputError("the 2-cocycle takes values outside the subgroup")
    small = build_twisted_product(restricted, label=label)
    mapping = [
        big.pair_index(sub.embed[a], gamma_sub.embed[t]) for a, t in map(small.index_pair, small.group.elements())
    ]
    return small, _checked_hom(small.group, big.group, mapping, "sub-product inclusion")


def gamma_hat(data: TwistedData, label: Optional[str] = None) -> tuple[TwistedProductGroup, GroupHom]:
    """The companion extension of Gamma by Z(G), with its embedding.

    Returns the twisted product over the centre and the embedding of its
    group into the full twisted product, compatible with both projections.
    """
    big = build_twisted_product(data)
    small, embedding = sub_product(big, center(data.g), label=label)
    if any(big.proj.map[embedding.map[a]] != small.proj.map[a] for a in small.group.elements()):
        raise InternalError("gamma-hat embedding does not commute with projections")
    return small, embedding


def cohomologous_iso(data: TwistedData, cochain: GammaOneCochain) -> GroupHom:
    """Isomorphism from the product for c to the product for c * delta(a).

    The underlying map is (g, gamma) -> (g * a(gamma)^-1, gamma); composing
    the isomorphisms for a and for its pointwise inverse gives the identity.
    """
    g = data.g
    delta = coboundary(data.action, cochain)
    src = build_twisted_product(data)
    dst = build_twisted_product(multiply_cocycles(data, delta))
    mapping = [
        dst.pair_index(g.mul[a][g.inv[cochain.values[x]]], x) for a, x in map(src.index_pair, src.group.elements())
    ]
    return _checked_hom(src.group, dst.group, mapping, "map between cohomologous products")


@record(frozen=True)
class ExtractedData:
    """Result of reading (theta, c) off an extension with a chosen section."""

    data: TwistedData
    gamma: FiniteGroup
    normal: Subgroup
    section: tuple[int, ...]
    proj: GroupHom
    identification: GroupHom  # from build_twisted_product(data).group to the input group


def extract_twisted_data(
    ghat: FiniteGroup,
    normal_elements: Sequence[int],
    section: Sequence[int],
) -> ExtractedData:
    """Recover (theta, c) from an extension and a normalised section.

    ``section`` lists one element of ghat per coset of the normal subgroup;
    its order fixes the element order of the constructed quotient group.
    The first entry must be the identity.
    """
    sub = subgroup_from_elements(ghat, normal_elements)
    if not is_normal(ghat, sub.embed):
        raise InputError("the chosen subgroup is not normal")
    sec = tuple(int(x) for x in section)
    if any(not 0 <= x < ghat.order for x in sec):
        raise SectionNotNormalised(message=f"section elements must be indices 0..{ghat.order - 1}")
    if len(sec) * sub.group.order != ghat.order:
        raise SectionNotNormalised(message="section size does not match the number of cosets")
    if sec[0] != 0:
        raise SectionNotNormalised(message="section must send the identity coset to the identity")

    _, coset_index = left_cosets(ghat, sub.embed)
    position = {coset_index[s]: idx for idx, s in enumerate(sec)}
    if len(position) != len(sec):
        raise SectionNotNormalised(message="two section elements lie in the same coset")

    def coset_of(x: int) -> int:
        # the size check and distinct cosets leave no coset without a section element
        return position[coset_index[x]]

    nq = len(sec)
    qmul = tuple(tuple(coset_of(ghat.mul[sec[a]][sec[b]]) for b in range(nq)) for a in range(nq))
    qinv = tuple(coset_of(ghat.inv[sec[a]]) for a in range(nq))
    gamma = FiniteGroup(nq, qmul, qinv, label=None)

    gset = set(sub.embed)
    # the subgroup is normal, so conjugation by each section element maps it to itself
    theta_tables = [[sub.parent_to_sub[ghat.conjugate(s, h)] for h in sub.embed] for s in sec]
    action = check_gamma_action(gamma, sub.group, theta_tables)

    zset = set(center(sub.group).embed)
    ctable = []
    for a in gamma.elements():
        row = []
        for b in gamma.elements():
            defect = ghat.mul[ghat.mul[sec[a]][sec[b]]][ghat.inv[sec[gamma.mul[a][b]]]]
            if defect not in gset:
                raise InternalError("section defect escaped the normal subgroup")
            v = sub.parent_to_sub[defect]
            if v not in zset:
                raise CocycleNotCentral(a, b)
            row.append(v)
        ctable.append(row)
    data = check_cocycle(action, ctable)

    built = build_twisted_product(data)
    mapping = [ghat.mul[sub.embed[a]][sec[x]] for a, x in map(built.index_pair, built.group.elements())]
    ident = _checked_hom(built.group, ghat, mapping, "identification with the twisted product")
    proj = GroupHom(ghat, gamma, tuple(coset_of(x) for x in ghat.elements()))
    return ExtractedData(data, gamma, sub, sec, proj, ident)


@record(frozen=True)
class Recocycling:
    """A change of lift: theta' = Int_s . theta and c' = c * c_s."""

    old: TwistedData
    new: TwistedData
    s: tuple[int, ...]
    c_s: TwistedData


def recocycle(data: TwistedData, s: Sequence[int]) -> Recocycling:
    """Transport the twisting along a map s: Gamma -> G with s(1) = 1."""
    g, gamma = data.g, data.gamma
    sv = tuple(int(x) for x in s)
    if len(sv) != gamma.order or sv[0] != 0:
        raise InputError("recocycling map must cover Gamma with s(1) = 1")
    check_elements(g.order, sv, lambda t: f"s({t})")

    def inner(t: int) -> tuple[int, ...]:
        return tuple(g.conjugate(t, x) for x in g.elements())

    # Int(s_a theta_a(s_b)) == Int(s_ab) is the homomorphism law of Int_s theta; s(1) = 1 makes it hold at a = 1
    witness = law_witness(
        gamma, lambda a: ([inner(g.mul[sv[a]][data.theta(a, sv[b])]) for b in gamma.elements()], [inner(sv[ab]) for ab in gamma.mul[a]])
    )
    if witness is not None:
        raise NotAOneCocycle(*witness)

    zset = set(center(g).embed)
    cs_table = []
    for a in gamma.elements():
        row = []
        for b in gamma.elements():
            v = g.mul[g.mul[sv[a]][data.theta(a, sv[b])]][g.inv[sv[gamma.mul[a][b]]]]
            if v not in zset:
                raise CsNotCentral(a, b)
            row.append(v)
        cs_table.append(row)

    theta_tables = tuple(
        tuple(g.conjugate(sv[x], data.theta(x, e)) for e in g.elements()) for x in gamma.elements()
    )
    new_action = check_gamma_action(gamma, g, theta_tables)
    c_s = check_cocycle(new_action, cs_table)
    # c' = c * c_s pointwise, checked against the new action (central values commute)
    new = multiply_cocycles(c_s, data)
    return Recocycling(data, new, sv, c_s)
