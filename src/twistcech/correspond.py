"""The bridge between twisted cohomology on a cover and plain cohomology below.

For a free quotient X -> Y with descent data (section s, transitions t_ij),
a twisted cocycle upstairs is normalized so its vertex functions vanish at
the section, leaving one coefficient value per Y-edge.  Framed at the first
index and paired with the transitions, these values form a plain cocycle
(h_ij, t_ij) valued in the glued product group: its product law
(a, x)(b, y) = (a theta_x(b) c(x, y), xy) makes the plain cocycle law on
such edges the c-corrected law h_ij theta_{t_ij}(h_jk) c(t_ij, t_jk) == h_ik
(Serre, *Galois Cohomology*, I §5), so ``d1``'s triangle sites check it.
Descent and its inverse are implemented, together with the monodromy
filtration of glued-group classes over a fixed cover and the
conjugation/quotient descriptions of its fibres.
"""

from __future__ import annotations

from typing import Sequence

from .cech import (
    CechSystem,
    CohomologySet,
    TwistedOneCocycle,
    _flat_pair,
    _validated,
    gauge,
    h1_twisted,
    make_cocycle,
    relabel,
)
from .errors import (
    CarrierMismatch,
    Disconnected,
    InputError,
    Work,
)
from .extensions import (
    TwistedData,
    TwistedProductGroup,
    build_twisted_product,
    make_twisted_data,
    sub_product,
    trivial_action,
)
from .groups import FiniteGroup, GroupHom, orbit_closures, subgroup_from_elements
from .nerves import CoverDescent, Nerve, tree_gauge
from .records import record


def plain_system(y: Nerve, coeff: FiniteGroup) -> CechSystem:
    """Untwisted coefficients over a nerve, on its one ``plain_space``: every plain system on ``y`` shares its compiled space."""
    return CechSystem(y.plain_space, make_twisted_data(trivial_action(y.plain_space.gamma, coeff)))


def plain_cocycle(system: CechSystem, values: Sequence[int]) -> TwistedOneCocycle:
    """The validated cocycle of a ``plain_system`` with the given edge values;
    passing one system (often ``h1.system``) for many cocycles compiles it once."""
    phi = (tuple(0 for _ in range(system.nerve.n_vertices)),)
    return make_cocycle(system, tuple(values), phi)


def plain_h1(y: Nerve, coeff: FiniteGroup, *, work: Work = Work()) -> CohomologySet:
    """Gauge classes of ordinary coefficient-group cocycles on a nerve."""
    return h1_twisted(plain_system(y, coeff), work=work)


# ---------------------------------------------------------------------------
# Glued-group cocycles on the base
# ---------------------------------------------------------------------------


@record(frozen=True)
class GhatCocycleY:
    """A plain cocycle on the base valued in the glued product group."""

    product: TwistedProductGroup
    cocycle: TwistedOneCocycle  # over plain_system(y, product.group)

    @property
    def base(self) -> Nerve:
        return self.cocycle.system.nerve

    def edge_pair(self, i: int, j: int) -> tuple[int, int]:
        return self.product.index_pair(self.cocycle.edge_value(i, j))


def _check_plain_system(system: CechSystem, y: Nerve, product: TwistedProductGroup) -> None:
    if system.gamma.order != 1 or system.nerve != y or system.coeff.mul != product.group.mul:
        raise CarrierMismatch(message="not the plain glued-group system of the descent base")


def descend(x: TwistedOneCocycle, descent: CoverDescent, product: TwistedProductGroup, system: CechSystem) -> GhatCocycleY:
    """Read a twisted cocycle upstairs as a glued-group cocycle on the base.

    The cocycle is first gauged so its vertex functions vanish along the
    section; the surviving edge values over each base edge (i, j) are all
    one coefficient element h, and the edge carries (theta_{t_ij}(h), t_ij).
    ``product`` is the glued product of the cocycle's data and ``system``
    the compiled ``plain_system`` of ``product.group`` on the base, where
    the result is checked at ``d1``'s sites.
    """
    space, data = x.system.space, x.system.data
    y = descent.downstairs
    if space is not descent.upstairs and space != descent.upstairs:
        raise CarrierMismatch(message="cocycle lives on a different cover")
    if product.data is not data and product.data != data:
        raise CarrierMismatch(message="product group was built from different twisted data")
    _check_plain_system(system, y, product)
    act, phi = x.system.tables.act, x.phi
    h = [0] * space.nerve.n_vertices
    for s_i in descent.section:
        for t, row in enumerate(act):
            h[row[s_i]] = phi[t][s_i]
    xn = gauge(x, h)
    theta = [auto.map for auto in data.action.theta]
    vals = []
    for (i, j) in y.edges:
        tij = descent.transition(i, j)
        up_val = xn.edge_value(act[tij][descent.section[i]], descent.section[j])
        vals.append(product.pair_index(theta[tij][up_val], tij))
    return GhatCocycleY(product, _validated(system, [*vals, *(0,) * y.n_vertices]))


def ascend(ghat: GhatCocycleY, descent: CoverDescent, system: CechSystem) -> TwistedOneCocycle:
    """Rebuild the twisted cocycle upstairs from a glued-group cocycle on the base.

    Each base edge's value is read as (h_ij, t_ij), and t_ij must be the
    descent's transition.  ``system`` is the compiled upstairs system: the
    cover's upper space with the product's data, as the caller already
    holds it.  Vertex functions are pinned to the canonical values forced
    by vanishing at the section; edge values over a base edge are spread
    along the fibre by the compatibility laws.
    """
    prod = ghat.product
    space, y = descent.upstairs, descent.downstairs
    if ghat.base is not y and ghat.base != y:
        raise CarrierMismatch(message="cocycle base differs from the descent base")
    if (system.space, system.data) != (space, prod.data):
        raise CarrierMismatch(message="system is not the cover's upper space with the cocycle's data")
    tab, c, tmul = system.tables, prod.data.table, system.gamma.mul
    gmul, ginv, theta_inv, act = tab.mul, tab.inv, tab.theta_inv, tab.act
    sheet = [0] * space.nerve.n_vertices
    for s_i in descent.section:
        for t, row in enumerate(act):
            sheet[row[s_i]] = t
    # phi_t on the sheet tp is theta_{tp t}^-1(c(tp, t))
    phi = [[theta_inv[tmul[tp][t]][c[tp][t]] for tp in sheet] for t in range(len(act))]

    edge_pos = space.nerve.edge_index
    a = [0] * len(tab.edges)
    for (i, j), value in zip(y.edges, ghat.cocycle.a):
        h, tij = prod.index_pair(value)
        if tij != descent.transition(i, j):
            raise InputError(f"edge ({i},{j}) does not carry the descent transition")
        b_ij = theta_inv[tij][h]
        for t, row in enumerate(act):
            u, w = act[tmul[tij][t]][descent.section[i]], row[descent.section[j]]
            val = gmul[theta_inv[tmul[tij][t]][c[tij][t]]][theta_inv[t][b_ij]]
            if u < w:
                a[edge_pos[(u, w)]] = val
            else:
                a[edge_pos[(w, u)]] = ginv[val]
    return _validated(system, _flat_pair(a, phi))


def _gamma_part(product: TwistedProductGroup, values: Sequence[int]) -> tuple[int, ...]:
    """The quotient-group part of glued edge values (a cocycle's ``a``, or its key's edge slots)."""
    proj = product.proj.map
    return tuple(proj[v] for v in values)


def fiber_over_cover(
    descent: CoverDescent, product: TwistedProductGroup, h1: CohomologySet, *, work: Work = Work()
) -> list[int]:
    """The ascending ids of the classes of ``h1`` whose induced cover is the given one.

    ``h1`` is ``plain_h1(descent.downstairs, product.group)``, built once by
    the caller and shared with ``grothendieck_fiber``; any other set raises
    ``CarrierMismatch``.  Its representatives are tree-normalized, so a
    class lies over the cover exactly when its representative's
    quotient-group part is a conjugate of the cover's monodromy.
    ``work``'s clock is read before the first class and then every 1024.
    """
    _check_plain_system(h1.system, descent.downstairs, product)
    over = descent.cover_class
    classes = work.paced(range(len(h1)), "fiber_over_cover's class walk")
    return [cid for cid in classes if _gamma_part(product, h1.representative(cid).a) in over]


# ---------------------------------------------------------------------------
# Conjugation-coefficient description of a fibre
# ---------------------------------------------------------------------------


def grothendieck_fiber(
    base: GhatCocycleY,
    descent: CoverDescent,
    h1: CohomologySet,
    *,
    work: Work = Work(),
) -> list[TwistedOneCocycle]:
    """The fibre through a base class as conjugation-twisted classes.

    Cocycles k valued in the coefficient group, with frame changes
    conjugated by the base cocycle g0 (k_ij Ad(g0_ij)(k_jk) == k_ik),
    map onto the fibre by k -> k g0.  Two such classes have the same image
    exactly when a covering transformation of the induced cover carries one
    to the other (Serre, *Galois Cohomology*, I §5.5), so reading the images
    in ``h1`` already divides out the covering transformations and they need
    no pass of their own.  ``h1`` is the plain glued-group H^1 of the base,
    as for ``fiber_over_cover``.

    g0 is the base class's least key, which is tree-normalized, so k -> k g0
    is a bijection, edge by edge, from the tree-normalized twisted cocycles
    onto the tree-normalized glued cocycles whose quotient-group part is
    g0's: k g0 meets the plain law exactly when k meets the twisted one,
    since g0 meets the plain law and Ad(g0_ij) is conjugation inside the
    glued group.  ``h1.lookup`` holds every tree-normalized glued cocycle,
    so the fibre is read off its keys with g0's quotient-group part.
    Returns one representative of ``h1`` per class of the fibre, in class
    order.  ``work``'s clock is read before the first key and then every 1024.
    """
    prod = base.product
    if base.base != descent.downstairs:
        raise CarrierMismatch(message="base cocycle and descent live on different nerves")
    _check_plain_system(h1.system, descent.downstairs, prod)
    m = len(descent.downstairs.edges)
    g0 = h1.reps[h1.class_of(base.cocycle)]
    want = _gamma_part(prod, g0[:m])
    if want not in descent.cover_class:
        raise InputError("base class does not induce the given cover")
    keys = work.paced(h1.lookup.items(), "grothendieck_fiber's walk")
    class_ids = {cid for key, cid in keys if _gamma_part(prod, key[:m]) == want}
    return [h1.representative(cid) for cid in sorted(class_ids)]


# ---------------------------------------------------------------------------
# Monodromy reduction and the normalizer embedding
# ---------------------------------------------------------------------------


@record
class ConnectedReduction:
    monodromy_group: tuple[int, ...]
    sub_product: TwistedProductGroup
    embedding: GroupHom
    reduced: GhatCocycleY
    gauged_original: GhatCocycleY


def connected_reduction(x: GhatCocycleY) -> ConnectedReduction:
    """Reduce a glued-group cocycle to the product over its monodromy group.

    The quotient part is gauged onto the monodromy image via constant-sheet
    gauge elements; the result has values in the subgroup product, and its
    extension along the inclusion recovers the input class.
    """
    prod = x.product
    gamma = prod.data.gamma
    y = x.base
    if not y.is_connected():
        raise Disconnected(message="connected reduction requires a connected base")
    proj = prod.proj.map
    lam = tree_gauge(y, gamma, lambda u, v: proj[x.cocycle.edge_value(u, v)])
    moved = gauge(x.cocycle, [prod.section[t] for t in lam])
    gauged = GhatCocycleY(prod, make_cocycle(x.cocycle.system, moved.a, moved.phi))
    gprime = gamma.closure(_gamma_part(prod, gauged.cocycle.a))

    sub_prod, incl = sub_product(prod, gamma_sub=subgroup_from_elements(gamma, gprime))
    back = {b: a for a, b in enumerate(incl.map)}
    reduced = GhatCocycleY(sub_prod, relabel(gauged.cocycle, back, plain_system(y, sub_prod.group)))
    return ConnectedReduction(gprime, sub_prod, incl, reduced, gauged)


@record
class NormalizerReport:
    normalizer: tuple[int, ...]
    full_monodromy_classes: list[int]
    orbits: list[list[int]]
    extension_class_of: dict[int, int]
    injective: bool
    collisions: list


def normalizer_embedding_check(
    y: Nerve,
    data: TwistedData,
    gamma_prime: Sequence[int],
    *,
    work: Work = Work(),
) -> NormalizerReport:
    """Classes with full monodromy in a subgroup, modulo its normalizer.

    Extension of structure group must identify two subgroup-product classes
    exactly when a normalizer element conjugates one onto the other.
    """
    if not y.is_connected():
        raise Disconnected(message="the monodromy filtration requires a connected base")
    gamma = data.gamma
    gset = sorted(set(int(t) for t in gamma_prime))
    big = build_twisted_product(data)
    sub_prod, incl = sub_product(big, gamma_sub=subgroup_from_elements(gamma, gset))
    normalizer = tuple(
        n
        for n in gamma.elements()
        if all(gamma.conjugate(n, t) in set(gset) for t in gset)
    )

    h1_small = plain_h1(y, sub_prod.group, work=work)
    full = []
    sub_gamma = sub_prod.data.gamma
    for cid in range(len(h1_small)):
        # the representatives are tree-normalized: their values generate the monodromy group
        image = sub_gamma.closure(_gamma_part(sub_prod, h1_small.representative(cid).a))
        if tuple(sorted(gset[t] for t in image)) == tuple(gset):
            full.append(cid)

    h1_big = plain_h1(y, big.group, work=work)
    extended = {cid: relabel(h1_small.representative(cid), incl.map, h1_big.system) for cid in full}
    ext_of = {cid: h1_big.class_of(x) for cid, x in extended.items()}
    back = {b: a for a, b in enumerate(incl.map)}

    def conj_by(n: int, cid: int) -> int:
        u = big.pair_index(0, n)
        moved = gauge(extended[cid], (u,) * y.n_vertices)
        return h1_small.class_of(relabel(moved, back, h1_small.system))

    closures = orbit_closures(full, lambda cid: [conj_by(n, cid) for n in normalizer])
    orbits = [sorted(orbit) for orbit in closures]
    orbit_of = {member: oid for oid, orbit in enumerate(orbits) for member in orbit}

    collisions = []
    for c1 in full:
        for c2 in full:
            if orbit_of[c1] != orbit_of[c2] and ext_of[c1] == ext_of[c2]:
                collisions.append((c1, c2))
            if orbit_of[c1] == orbit_of[c2] and ext_of[c1] != ext_of[c2]:
                collisions.append(("orbit-not-identified", c1, c2))
    return NormalizerReport(
        normalizer, full, orbits, ext_of, not collisions, collisions
    )
