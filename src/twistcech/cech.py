"""Twisted equivariant Cech machinery on finite nerves.

Data over a nerve with a group action is a pair (a, phi): a a 1-cochain on
edges with values in the coefficient group, phi a family of vertex functions
indexed by the acting group with phi[1] = 1.  The pair is a twisted cocycle
when its ``d1`` meets the twist target at every triangle, (t, edge) and
(t1, t2, vertex) site; ``_d1_sites`` states the sites.  Gauge
transformations by vertex functions act on the right; cohomology sets are
gauge orbits, and the reduced variant additionally quotients by pullback
along central covering transformations.

All enumeration is exact: a spanning forest normalizes the edge part, the
remaining freedom is finite and walked completely, and abelian-coefficient
questions (second cohomology, coboundary maps) are answered by the Howell
forms over Z/N of the graphs of d1 and d2: the kernel Z^2 of d2, the image
B^2 of d1, whose coset labels name the classes, and solves of d1.

An abelian cochain is a flat list of coefficient values in one slot order:

    C^1: edges, then (t, v) for t != 1;
    C^2: triangles, then (t, edge), then (t1, t2, v);
    C^3: tetrahedra, then (t, triangle), then (t1, t2, edge), then (t1, t2, t3, v);

with simplices in the nerve's sorted order and t, t1, t2, t3 running over
the nontrivial acting-group elements in index order.  Slots hold values on
sorted simplices; ``d1`` and ``d2`` read a pulled simplex whose vertex order
the action reverses as its sorted slot, inverted.  ``d1`` reads a pair as
one flat list in C^1 order with the identity row last: a on the edges, then
phi_t for t != 1, then phi_1, each row in vertex order.

A twisted cocycle is stored as that flat list, its key: ``bytes`` when the
coefficient group has at most 256 elements, a tuple otherwise.  phi_1 is
identically 1 on every cocycle, so keys rank as the pairs (a, phi) do.
Gauge moves (``CechSystem.gauge_moves``), pullbacks and relabellings act
on keys through compiled tables, and cohomology sets map keys to classes.
A space compiles the tables that read no coefficients once, for every
system on it: vertex action, edge pulls, triangle slots, forest, open
edges, components, roots, the edge sites of ``d1`` and ``d2``'s stencil.
A system adds its group's tables, theta^-1 and the twist targets.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .abelian import (
    DEFAULT_COORD_GUARD,
    AbelianComplex,
    AbelianCoords,
    ZHom,
    abelian_coordinates,
    solve,
)
from .actions import TwistedGSet, homogeneous_space
from .errors import (
    BudgetExceeded,
    TwistError,
    CarrierMismatch,
    ImageCocycleNotCentral,
    InputError,
    InternalError,
    NotEquivariant,
    Work,
)
from .extensions import (
    GammaAction,
    Recocycling,
    TwistedData,
    check_cocycle,
    check_gamma_action,
    make_twisted_data,
    restrict_to_subgroup,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    center,
    check_elements,
    left_cosets,
    orbit_closures,
    subgroup_from_elements,
)
from .nerves import GammaNerve, Nerve, Simplex, forest_functions
from .records import kept, record


@record(frozen=True)
class CechSystem:
    """A coefficient system: a space with an acting group, and the twisting (theta, c) of its values."""

    space: GammaNerve
    data: TwistedData

    def __post_init__(self):
        if self.data.gamma is not self.space.gamma and self.data.gamma.mul != self.space.gamma.mul:
            raise InputError("coefficient action and nerve action use different groups")

    @property
    def gamma(self) -> FiniteGroup:
        return self.space.gamma

    @property
    def nerve(self) -> Nerve:
        return self.space.nerve

    @property
    def coeff(self) -> FiniteGroup:
        return self.data.g

    @cached_property
    def tables(self) -> SystemTables:
        """The system compiled for the cocycle loops, built on first use."""
        return _compile(self)

    @cached_property
    def gauge_moves(self) -> tuple[tuple[tuple[int, int, bytes | tuple[int, ...]], ...], ...]:
        """The constant gauges by a coefficient generator on one component, compiled on first use (see ``_gauge_moves``)."""
        return _gauge_moves(self)

    @property
    def d1_edge_sites(self) -> tuple[D1Site, ...]:
        """The triangle and (t, edge) sites of ``d1``, shared by ``d1_stencil`` and ``root_sites`` of every system on the space."""
        return kept(self.space, "_d1_edge_sites", lambda: tuple(_d1_sites(self)))

    @cached_property
    def d1_stencil(self) -> tuple[D1Site, ...]:
        """The sites of ``d1`` per 2-cochain slot, built on first use (see ``_d1_sites``)."""
        return self.d1_edge_sites + tuple(_d1_sites(self, range(self.nerve.n_vertices)))

    @cached_property
    def root_sites(self) -> tuple[D1Site, ...]:
        """The triangle and edge sites of ``d1`` and its vertex sites at the component roots."""
        return self.d1_edge_sites + tuple(_d1_sites(self, self.tables.roots))

    @property
    def d2_stencil(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The terms of ``d2`` per 3-cochain slot, shared by every system on the space (see ``_d2_stencil``)."""
        return kept(self.space, "_d2_stencil", lambda: _d2_stencil(self))


@record(frozen=True)
class SystemTables:
    """Flat lookup tables of one coefficient system: its own, then (from ``act`` on) those its space shares.

    Edge values are read from the doubled list ``a + [a_e^-1]`` (see
    ``doubled``): slot e < m is a[e] on the sorted edge (u, v), slot m + e
    its inverse on the reversed edge, so every oriented edge is one slot.
    """

    key_type: type  # bytes or tuple
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    theta_inv: tuple[tuple[int, ...], ...]  # theta_inv[t][x] == theta_t^-1(x)
    vertex_sites: tuple[tuple[int, int, int, int], ...]  # (t, t2, t2 t, theta_{t2 t}^-1(c(t2, t)))
    act: tuple[tuple[int, ...], ...]  # act[t][v] == v . t
    edges: tuple[Simplex, ...]
    pull: tuple[tuple[int, ...], ...]  # pull[t][s]: slot of the image of oriented edge s under t
    triangles: tuple[tuple[int, int, int], ...]  # slots of (i, j), (j, x), (i, x)
    components: tuple[tuple[int, ...], ...]  # as ``nerve.components()``; the first vertex is the forest root
    comp_of: tuple[int, ...]  # per vertex, the index of its component
    forest: tuple[tuple[tuple[int, int, int], ...], ...]  # per component, (v, parent, slot parent -> v) parents first
    open_edges: tuple[tuple[int, ...], ...]  # per component, the slots of its edges off the forest
    roots: tuple[int, ...]  # per component, its least vertex, the forest root
    nontrivial: tuple[int, ...]

    def doubled(self, a: Sequence[int]) -> list[int]:
        return [*a, *map(self.inv.__getitem__, a)]


def _compile(system: CechSystem) -> SystemTables:
    data, gmul = system.data, system.gamma.mul
    shared = kept(system.space, "_tables", lambda: _compile_space(system.space))
    pairs = itertools.product(shared["nontrivial"], repeat=2)
    return SystemTables(
        key_type=bytes if data.g.order <= 256 else tuple,
        mul=data.g.mul,
        inv=data.g.inv,
        theta_inv=tuple(auto.inverse_map for auto in data.action.theta),
        vertex_sites=tuple((t, t2, gmul[t2][t], data.theta_inv(gmul[t2][t], data.c(t2, t))) for t, t2 in pairs),
        **shared,
    )


def _compile_space(space: GammaNerve) -> dict:
    nerve = space.nerve
    idx = nerve.edge_index
    m = len(nerve.edges)
    # the slot of each oriented edge in the doubled list
    slot = {**idx, **{(v, u): e + m for (u, v), e in idx.items()}}
    pull = []
    for row in space.vact:
        images = [slot[row[u], row[v]] for (u, v) in nerve.edges]
        pull.append(tuple(images + [s + m if s < m else s - m for s in images]))
    # the forest's (parent, child) arcs come in BFS order, one component after another
    comps, parent, _, arcs = nerve._forest
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    forest: list[list[tuple[int, int, int]]] = [[] for _ in comps]
    for p, v in arcs:
        forest[comp_of[v]].append((v, p, slot[p, v]))
    open_edges: list[list[int]] = [[] for _ in comps]
    for e, (u, v) in enumerate(nerve.edges):
        if u != parent[v] and v != parent[u]:
            open_edges[comp_of[u]].append(e)
    return dict(
        act=space.vact,
        edges=nerve.edges,
        pull=tuple(pull),
        triangles=tuple((idx[(i, j)], idx[(j, x)], idx[(i, x)]) for (i, j, x) in nerve.triangles),
        components=comps,
        comp_of=tuple(comp_of[v] for v in range(nerve.n_vertices)),
        forest=tuple(tuple(f) for f in forest),
        open_edges=tuple(tuple(c) for c in open_edges),
        roots=tuple(comp[0] for comp in comps),
        nontrivial=tuple(t for t in space.gamma.elements() if t != 0),
    )


def _gauge_moves(system: CechSystem) -> tuple:
    """``CechSystem.gauge_moves``: per component and coefficient generator s, the gauge by s there and 1 elsewhere.

    ``gauge`` sends the value y in each key slot to L y R.  A move is held
    as runs (lo, hi, table) of key slots with one (L, R), each translated by
    a table of the key's kind: a 256-byte ``bytes.translate`` table, or a
    tuple.  Moves that fix every key are left out.
    """
    tab, g = system.tables, system.coeff
    mul, inv, identity = g.mul, g.inv, tuple(g.elements())
    table = (lambda values: bytes(values).ljust(256, b"\0")) if tab.key_type is bytes else tuple
    moves = []
    rows = (*tab.nontrivial, 0)
    for ci in range(len(tab.components)):
        # runs of slots of one kind (t, h_{w.t} is s, h_w is s), all inside when connected; edges read as phi_1's row
        pattern = [((0, True, True), len(tab.edges)), *(((t, True, True), len(tab.comp_of)) for t in rows)]
        if len(tab.components) > 1:
            inside = [c == ci for c in tab.comp_of]
            kinds = [(0, inside[u], inside[v]) for u, v in tab.edges]
            kinds += [(t, inside[w], inside[v]) for t in rows for v, w in enumerate(tab.act[t])]
            pattern = [(kind, len(list(same))) for kind, same in itertools.groupby(kinds)]
        for s in g.generating_sequence():
            runs, lo = [], 0
            sides = [((inv[s] if left_in else 0, tab.theta_inv[t][s] if right_in else 0), size) for (t, left_in, right_in), size in pattern]
            for (x, y), same in itertools.groupby(sides, key=lambda side: side[0]):
                hi = lo + sum(size for _, size in same)
                runs.append((lo, hi, tuple(mul[mul[x][z]][y] for z in identity)))
                lo = hi
            if any(values != identity for *_, values in runs):
                moves.append(tuple((lo, hi, table(values)) for lo, hi, values in runs))
    return tuple(moves)


def _moved(key: bytes | tuple[int, ...], runs: Sequence[tuple]) -> bytes | tuple[int, ...]:
    """A key moved by one of ``CechSystem.gauge_moves``."""
    if type(key) is bytes:
        return b"".join([key[lo:hi].translate(table) for lo, hi, table in runs])
    return tuple(table[y] for lo, hi, table in runs for y in key[lo:hi])


@record(frozen=True)
class TwistedOneCocycle:
    """A verified twisted cocycle over a coefficient system, held as its key (see the module docstring).

    ``a`` and ``phi`` are read-only views of the key: ``a`` is aligned with
    the sorted edge list of the nerve and ``phi[t][v]`` is the vertex
    function of the group element t, with phi[1] identically the identity.
    """

    system: CechSystem
    key: bytes | tuple[int, ...]

    @property
    def a(self) -> tuple[int, ...]:
        return tuple(self.key[: len(self.system.nerve.edges)])

    @property
    def phi(self) -> tuple[tuple[int, ...], ...]:
        key, n = self.key, self.system.nerve.n_vertices
        rows = [tuple(key[s : s + n]) for s in range(len(self.system.nerve.edges), len(key), n)]
        return (rows[-1], *rows[:-1])  # the identity row is the key's last

    def edge_value(self, u: int, v: int) -> int:
        return edge_value(self.system, self.key, u, v)


def edge_value(system: CechSystem, a: Sequence[int], u: int, v: int) -> int:
    if u == v:
        return 0
    idx = system.nerve.edge_index
    if u < v:
        return a[idx[(u, v)]]
    return system.coeff.inv[a[idx[(v, u)]]]


def trivial_pair(system: CechSystem) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    row = tuple(0 for _ in range(system.nerve.n_vertices))
    return tuple(0 for _ in system.nerve.edges), tuple(row for _ in system.gamma.elements())


# ---------------------------------------------------------------------------
# d1, cocycle test, gauge actions
# ---------------------------------------------------------------------------


D1Site = tuple[tuple, tuple[tuple[int, int, int], ...], int]  # (key, factors, target)


def _row_starts(tab: SystemTables) -> list[int]:
    """Per t, the slot of phi_{t, 0} in a flat pair: the rows t != 1 follow the edges, the identity row comes last."""
    m, order, n = len(tab.edges), len(tab.act), len(tab.act[0])
    return [m + (t - 1) % order * n for t in range(order)]


def _flat_pair(a: Sequence[int], phi: Sequence[Sequence[int]]) -> list[int]:
    """The pair (a, phi) as one flat list in ``d1``'s slot order."""
    return [*a, *itertools.chain.from_iterable(phi[1:]), *phi[0]]


def _d1_sites(system: CechSystem, vertices: Optional[Sequence[int]] = None, pairs: Optional[set] = None) -> list[D1Site]:
    """The sites of ``d1`` in 2-cochain slot order, each as (key, factors, target).

    ``d1`` reads a pair as one flat list (see the module docstring).  A
    factor (s, t, sign) is theta_t^-1 of the value in slot s, inverted when
    sign is -1; a site's value is the ordered product of its factors, and
    the pair is a twisted cocycle when every site's value is its target.
    For t, t2 != 1 the sites, each with its target and then its key, are

        a_ij a_jx a_ix^-1 == 1                             ("triangle", (i, j, x)),
        phi_{t,i}^-1 a_{i.t, j.t} phi_{t,j} theta_t^-1(a_ij)^-1 == 1
                                                           ("edge", (t, (i, j))),
        phi_{t, v.t2} theta_t^-1(phi_{t2, v}) phi_{t2 t, v}^-1
            == theta_{t2 t}^-1(c(t2, t))                   ("vertex", (t, t2, v)),

    with index translation i -> i.t the nerve action.  Without ``vertices``
    the triangle and edge sites are listed; with them, the vertex sites at
    those vertices only, and given ``pairs``, only those of the listed (t, t2).
    """
    tab = system.tables
    m, act = len(tab.edges), tab.act
    start = _row_starts(tab)
    sites: list[D1Site] = []
    if vertices is None:
        sites += (
            (("triangle", tri), ((ij, 0, 1), (jx, 0, 1), (ix, 0, -1)), 0)
            for tri, (ij, jx, ix) in zip(system.nerve.triangles, tab.triangles)
        )
        for t in tab.nontrivial:
            # a pulled edge in the doubled list (see ``SystemTables``): a reversed one is its sorted slot, inverted
            pulled = [(s, 0, 1) if s < m else (s - m, 0, -1) for s in tab.pull[t][:m]]
            sites += (
                (("edge", (t, edge)), ((start[t] + edge[0], 0, -1), p, (start[t] + edge[1], 0, 1), (e, t, -1)), 0)
                for e, (edge, p) in enumerate(zip(tab.edges, pulled))
            )
        return sites
    sites += (
        (("vertex", (t, t2, v)), ((start[t] + act[t2][v], 0, 1), (start[t2] + v, t, 1), (start[prod] + v, 0, -1)), want)
        for t, t2, prod, want in tab.vertex_sites
        if pairs is None or (t, t2) in pairs
        for v in vertices
    )
    return sites


def _products(tab: SystemTables, stencil: Iterable[Iterable[tuple[int, int, int]]], values: Sequence[int]) -> Iterator[int]:
    """Per stencil slot, the ordered product of its terms (s, t, sign): theta_t^-1(values[s]), inverted when sign is -1."""
    mul, inv, theta_inv = tab.mul, tab.inv, tab.theta_inv
    for terms in stencil:
        acc = 0
        for s, t, sign in terms:
            x = theta_inv[t][values[s]]
            acc = mul[acc][x if sign > 0 else inv[x]]
        yield acc


def d1(system: CechSystem, a: Sequence[int], phi: Sequence[Sequence[int]]) -> list[int]:
    """The values of a candidate pair at the sites of ``system.d1_stencil``: a flat 2-cochain."""
    stencil = (factors for _, factors, _ in system.d1_stencil)
    return list(_products(system.tables, stencil, _flat_pair(a, phi)))


def twist_target(system: CechSystem) -> dict:
    """The required vertex part: (t, t2) -> theta_{t2 t}^-1(c(t2, t))."""
    return {(t, t2): want for t, t2, _, want in system.tables.vertex_sites}


def is_twisted_cocycle(
    system: CechSystem, a: Sequence[int], phi: Sequence[Sequence[int]]
) -> tuple[bool, Optional[tuple]]:
    """Check membership in the twisted cocycle set; witness names the site.

    Sites are checked in slot order (triangles, then (t, edge), then (t1, t2,
    vertex)), and the first violated one is returned as its key and value.

    Vertex sites are read at the component roots only.  Once every edge
    site holds, the defect of the vertex site (t, t2) at a neighbour w of v
    is the defect at v conjugated by a_{v.t2 t, w.t2 t}: expand the three
    phi entries at w along the edge (v, w) by the edge sites of t, t2 and
    t2 t, and theta_t^-1 theta_t2^-1 == theta_{t2 t}^-1 cancels the edge
    values between them.  The target is central, so it holds on a whole
    component when it holds at the root, and fails at every vertex of the
    component otherwise.  Each root is its component's least vertex, so the
    first failing root is the first failing vertex of the full scan, with
    the same value.  The edge sites cover phi_t for t != 1 only; phi_1
    enters the sites with t2 t == 1, so a phi_1 that is not identically the
    identity has every vertex checked.
    """
    witness = _violation(system.tables, _flat_pair(a, phi), system.d1_stencil if any(phi[0]) else system.root_sites)
    return witness is None, witness


def _violation(tab: SystemTables, values: Sequence[int], sites: Iterable[D1Site]) -> Optional[tuple]:
    """The first of ``sites`` (of ``_d1_sites``) that the flat pair ``values`` misses, as its key and value; else None.

    A site's value is ``_products``' over its factors, computed here so that the walk stops at the first miss.
    """
    mul, inv, theta_inv = tab.mul, tab.inv, tab.theta_inv
    for key, factors, want in sites:
        acc = 0
        for s, t, sign in factors:
            x = theta_inv[t][values[s]]
            acc = mul[acc][x if sign > 0 else inv[x]]
        if acc != want:
            return (*key, acc)
    return None


def _validated(system: CechSystem, values: Sequence[int]) -> TwistedOneCocycle:
    """The cocycle of a flat pair in key order, after a range check, the identity row and every ``d1`` site
    (the vertex sites at the roots, see ``is_twisted_cocycle``)."""
    tab = system.tables
    m, n = len(tab.edges), len(tab.act[0])
    check_elements(
        len(tab.inv), values, lambda s: "a[{},{}]".format(*tab.edges[s]) if s < m else f"phi[{((s - m) // n + 1) % len(tab.act)}][{(s - m) % n}]"
    )
    if any(values[len(values) - n :]):
        raise InputError("phi[identity] must be identically the identity")
    witness = _violation(tab, values, system.root_sites)
    if witness is not None:
        raise InputError(f"not a twisted cocycle: violation at {witness}")
    return TwistedOneCocycle(system, tab.key_type(values))


def make_cocycle(system: CechSystem, a: Sequence[int], phi: Sequence[Sequence[int]]) -> TwistedOneCocycle:
    av = tuple(int(x) for x in a)
    pv = tuple(tuple(int(x) for x in row) for row in phi)
    if len(av) != len(system.nerve.edges):
        raise InputError("edge part length does not match the edge list")
    if len(pv) != system.gamma.order or any(len(r) != system.nerve.n_vertices for r in pv):
        raise InputError("phi must be |Gamma| x vertices")
    return _validated(system, _flat_pair(av, pv))


def _translated(key: bytes | tuple[int, ...], table: Sequence[int] | Mapping[int, int], system: CechSystem) -> bytes | tuple[int, ...]:
    """A key with every value replaced by its image in ``table``, as a key of ``system``; not validated."""
    try:
        image = {v: table[v] for v in set(key)}
    except KeyError:
        raise InternalError(f"coefficient table does not cover the value {next(v for v in key if v not in table)}") from None
    if type(key) is bytes and system.tables.key_type is bytes:
        return key.translate(bytes(image.get(v, 0) for v in range(max(key) + 1)).ljust(256, b"\0"))
    return system.tables.key_type(map(image.__getitem__, key))


def relabel(x: TwistedOneCocycle, table: Sequence[int] | Mapping[int, int], system: CechSystem) -> TwistedOneCocycle:
    """The cocycle of ``system`` whose values are the images of x's under ``table``.

    This is the map of H^1 induced by a coefficient homomorphism: ``table``
    (a tuple or dict) is an embedding, a projection, a lift or a subgroup's
    ``parent_to_sub``.  Both systems share the space and so the key layout,
    and the key is translated at once.  The image is validated in ``system``.
    """
    return _validated(system, _translated(x.key, table, system))


def gauge(x: TwistedOneCocycle, h: Sequence[int]) -> TwistedOneCocycle:
    """Right action of a vertex function:
    (a, phi) . h == (h_i^-1 a_ij h_j, h_{i.t}^-1 phi_{t,i} theta_t^-1(h_i)).
    """
    tab = x.system.tables
    mul, inv, key = tab.mul, tab.inv, x.key
    left = [mul[inv[z]] for z in h]  # left[v][y] == h_v^-1 y
    values = [mul[left[u][val]][h[v]] for (u, v), val in zip(tab.edges, key)]
    start, n = _row_starts(tab), len(h)
    for t in (*tab.nontrivial, 0):
        s, th = start[t], tab.theta_inv[t]
        values += [mul[left[w][val]][th[z]] for w, val, z in zip(tab.act[t], key[s : s + n], h)]
    return TwistedOneCocycle(x.system, tab.key_type(values))


def pullback(x: TwistedOneCocycle, lam: int) -> TwistedOneCocycle:
    """Index translation (a, phi) -> (a^lam, phi^lam) along a group element."""
    tab = x.system.tables
    return TwistedOneCocycle(x.system, _pulled(tab, x.key, _pullback_slots(tab, lam)))


def _pullback_slots(tab: SystemTables, lam: int) -> tuple[int, ...]:
    """Per slot of a key pulled back along lam, its slot in the key followed by the inverted edges: an index permutation."""
    m, n, size = len(tab.edges), len(tab.act[0]), len(tab.edges) + len(tab.act) * len(tab.act[0])
    edges = (s if s < m else s + size - m for s in tab.pull[lam][:m])
    return (*edges, *itertools.chain.from_iterable(map(first.__add__, tab.act[lam]) for first in range(m, size, n)))


def _pulled(tab: SystemTables, key: bytes | tuple[int, ...], slots: Sequence[int]) -> bytes | tuple[int, ...]:
    doubled = [*key, *map(tab.inv.__getitem__, key[: len(tab.edges)])]
    return tab.key_type(map(doubled.__getitem__, slots))


# ---------------------------------------------------------------------------
# H^0
# ---------------------------------------------------------------------------


def h0_twisted(system: CechSystem) -> tuple[tuple[int, ...], ...]:
    """The constant gauges that fix the trivial cocycle: h(v . t) == theta_t^-1(h(v)).

    These are the equivariant locally constant functions, as vertex value
    tables; their group law is pointwise.  Constant gauges come in product
    order of their root values, which is also the sorted order of the tables.
    """
    tab = system.tables
    return tuple(
        h
        for h in _constant_gauges(system)
        if all(h[w] == th[x] for act, th in zip(tab.act, tab.theta_inv) for w, x in zip(act, h))
    )


# ---------------------------------------------------------------------------
# H^1 enumeration
# ---------------------------------------------------------------------------


@record
class CohomologySet:
    """Gauge-orbit representatives with a membership map, both on keys.

    ``reps`` are the least keys of the classes, ascending; ``lookup``
    sends every tree-normalized key of a class to its index, so class_of
    sends any cocycle of the same system to its class index, and refuses a
    cocycle of another system with ``CarrierMismatch``.  A cocycle whose key
    is in ``lookup`` is tree-normalized already and is read off directly;
    any other is normalized first.
    """

    system: CechSystem
    reps: list
    lookup: dict

    def __len__(self) -> int:
        return len(self.reps)

    def class_of(self, x: TwistedOneCocycle) -> int:
        if x.system is not self.system and x.system != self.system:
            raise CarrierMismatch(message="cocycle belongs to another system than the H^1 set")
        cid = self.lookup.get(x.key)
        if cid is None:
            cid = self.lookup.get(_tree_normalize(x).key)
        if cid is None:
            raise InputError("cocycle does not belong to any enumerated class")
        return cid

    def representative(self, class_id: int) -> TwistedOneCocycle:
        return TwistedOneCocycle(self.system, self.reps[class_id])


def _tree_normalize(x: TwistedOneCocycle) -> TwistedOneCocycle:
    """Gauge making the spanning-forest edges carry the identity: by h_v = a_pv^-1 h_p from 1 at each root,
    the left frame of ``_frame`` at the identity, read off the key."""
    tab = x.system.tables
    return gauge(x, _frame(tab, tab.doubled(x.key[: len(tab.edges)]), 0)[0])


def _constant_gauges(system: CechSystem) -> list[tuple[int, ...]]:
    """The vertex functions constant on each component, in product order of their values."""
    return [tuple(h) for h in forest_functions(system.nerve, system.coeff.elements(), lambda p, v, x: x)]


def _edge_solutions(tab: SystemTables, work: Work) -> Iterable[list[int]]:
    """Edge values with the forest at the identity and a_ij a_jk == a_ik on triangles.

    Depth-first search with an explicit stack: branch on the first unassigned
    edge in ``nerve.edges`` order, values ascending, and after each assignment
    run the triangles to a fixed point (two known edges fix the third, three
    that disagree prune the branch).  Two solutions first differ at the edge
    some node branched on, so solutions come out in lexicographic order.
    Every child node, pruned or not, counts towards the clock reads of ``work``.
    """
    mul, inv = tab.mul, tab.inv
    m = len(tab.edges)
    touching: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for tri in tab.triangles:
        for e in tri:
            touching[e].append(tri)

    def propagate(a: list[int], changed: list[int]) -> bool:
        while changed:
            for ij, jx, ix in touching[changed.pop()]:
                x, y, z = a[ij], a[jx], a[ix]
                if x < 0:
                    if y >= 0 and z >= 0:
                        a[ij] = mul[z][inv[y]]
                        changed.append(ij)
                elif y < 0:
                    if z >= 0:
                        a[jx] = mul[inv[x]][z]
                        changed.append(jx)
                elif z < 0:
                    a[ix] = mul[x][y]
                    changed.append(ix)
                elif mul[x][y] != z:
                    return False
        return True

    work.clock("enumerate_cocycles' edge search")
    start = [-1] * m
    forest = [s % m for comp in tab.forest for _, _, s in comp]
    for e in forest:
        start[e] = 0
    if not propagate(start, forest):
        return
    stack = [(start, 0)]
    nodes = itertools.count(1)
    while stack:
        a, pos = stack.pop()
        while pos < len(a) and a[pos] >= 0:
            pos += 1
        if pos == len(a):
            yield a
            continue
        for val in reversed(range(len(inv))):
            if not next(nodes) & 1023:
                work.clock("enumerate_cocycles' edge search")
            child = a.copy()
            child[pos] = val
            if propagate(child, [pos]):
                stack.append((child, pos + 1))


def _generator_steps(gamma: FiniteGroup, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """(t, t_prev, g) with t == t_prev g for every non-generator t, t_prev listed first.

    Breadth-first from the identity, so t_prev g is a shortest generator word.
    """
    seen = {0}
    frontier = [0]
    steps = []
    while frontier:
        t = frontier.pop(0)
        for g in gens:
            nxt = gamma.mul[t][g]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                if t != 0:
                    steps.append((nxt, t, g))
    return steps


def _frame(tab: SystemTables, ax: Sequence[int], g: int) -> tuple[list[int], list[int]]:
    """(L, R) with phi_{g,v} == L[v] x R[v] for x the value of phi_g at the root of v's component.

    Along the forest phi_{g,v} = a^g_pv^-1 phi_{g,p} theta_g^-1(a_pv), which makes the forest's sites hold,
    so L[v] is L[p] times a^g_pv^-1 on the left and R[v] is R[p] times theta_g^-1(a_pv) on the right.
    """
    mul, inv = tab.mul, tab.inv
    pull, th = tab.pull[g], tab.theta_inv[g]
    left = [0] * len(tab.act[g])
    right = left.copy()
    for arcs in tab.forest:
        for v, p, s in arcs:
            left[v] = mul[inv[ax[pull[s]]]][left[p]]
            right[v] = mul[right[p]][th[ax[s]]]
    return left, right


def _kept_roots(tab: SystemTables, ax: Sequence[int], g: int, ci: int, frame: tuple[list[int], list[int]]) -> list[int]:
    """The root values x of component ci whose phi_g row L x R of ``_frame`` passes g's edge sites off the forest there.

    The site on the edge (u, v) holds when A x == x B, with A = L_u^-1 a^g_uv L_v and B = R_u theta_g^-1(a_uv) R_v^-1.
    """
    mul, inv = tab.mul, tab.inv
    pull, th = tab.pull[g], tab.theta_inv[g]
    left, right = frame
    kept = range(len(inv))
    for e in tab.open_edges[ci]:
        u, v = tab.edges[e]
        row_a = mul[mul[mul[inv[left[u]]][ax[pull[e]]]][left[v]]]
        b = mul[mul[right[u]][th[ax[e]]]][inv[right[v]]]
        kept = [x for x in kept if row_a[x] == mul[x][b]]
    return list(kept)


def enumerate_cocycles(system: CechSystem, *, work: Work = Work()) -> list[TwistedOneCocycle]:
    """All tree-normalized twisted cocycles.

    The edge part comes from ``_edge_solutions``; per edge solution the free
    coordinates are, per acting-group generator g and nerve component, the
    value x of phi_g at the component root.  phi_g on the component follows
    along the spanning forest, as the frame phi_{g,v} == L_v x R_v of
    ``_frame``, and a root value is kept only when that row passes g's edge
    conditions on the component's edges off the forest (those involve no
    other root).  The product of the kept root values is walked in the
    order of the full product; each candidate's other rows follow from the
    vertex conditions at (g, t_prev) of ``_generator_steps``.

    A candidate is then checked only at the open generator sites: the
    vertex sites (g, t2) with g a generator that define no row.  Every
    other condition holds by construction.  Triangles hold for every edge
    solution, generator edge sites by the forest propagation and the root
    filter, and the step vertex sites because each one defines its row.
    The edge sites of t_prev g follow from those of g and t_prev and the
    step, since theta is an action and c is central.  The vertex sites (t, s) with t no generator
    follow from the generator ones: write t = t1 g with t1 shorter and
    expand phi_t and phi_{s t} by the sites (g, t1) and (g, s t1).  The
    defect at (t, s) becomes phi_{g, v.s t1} theta_g^-1(defect at (t1, s))
    phi_{g, v.s t1}^-1 times central twist factors, and those cancel by
    the cocycle identity of c; induction on the word length of t covers
    every t.  So the list is exactly the tree-normalized slice of the
    cocycle set, ordered by edge part and then by root values.  ``work.enum``
    bounds the candidates walked (edge solutions times kept root choices);
    passing it raises ``BudgetExceeded`` at once.

    Since every edge site holds, the defect at an open site is conjugated
    along each edge, and the central target holds on a component when it
    holds at the root (see ``is_twisted_cocycle``).  So a candidate's rows
    are computed at the roots only, with phi_g read off the frames where
    the steps and sites need it, and the |Gamma| full rows are built only
    for the candidates that pass, in the key buffer that the sites read.
    """
    tab = system.tables
    mul, inv, key_type = tab.mul, tab.inv, tab.key_type
    roots = tab.roots
    n_comps = len(roots)
    gens = system.gamma.generating_sequence()
    target = twist_target(system)
    steps = [(t, t_prev, g, inv[target[(g, t_prev)]]) for t, t_prev, g in _generator_steps(system.gamma, gens)]
    step_sites = {(g, t_prev) for _, t_prev, g, _ in steps}
    open_pairs = {site[:2] for site in tab.vertex_sites if site[0] in gens and site[:2] not in step_sites}
    open_sites = _d1_sites(system, roots, open_pairs)
    n_vertices, comp_of = system.nerve.n_vertices, tab.comp_of
    # a candidate's key is filled where it is read: phi_g at the roots' images r.t, the step rows at the roots
    start = _row_starts(tab)
    values = [0] * (start[0] + n_vertices)  # the identity row, last, stays 1
    m = len(tab.edges)
    reads = sorted({act[r] for act in tab.act for r in roots})
    # per step, phi_{t, r} from phi_{g, r.t_prev} and phi_{t_prev, r}: their slots per root
    root_steps = [
        (tab.theta_inv[g], twist, [(start[t] + r, start[g] + tab.act[t_prev][r], start[t_prev] + r) for r in roots])
        for t, t_prev, g, twist in steps
    ]

    out: list[TwistedOneCocycle] = []
    walked = 0
    for a in _edge_solutions(tab, work):
        values[:m] = a
        ax = tab.doubled(a)
        frames = [_frame(tab, ax, g) for g in gens]
        kept = [_kept_roots(tab, ax, g, ci, frame) for g, frame in zip(gens, frames) for ci in range(n_comps)]
        # (slot of phi_{g,v}, coordinate of v's root value, row of L_v, R_v) per vertex read, per generator
        frame_reads = [
            (start[g] + v, gi * n_comps + comp_of[v], mul[left[v]], right[v])
            for gi, (g, (left, right)) in enumerate(zip(gens, frames))
            for v in reads
        ]
        for combo in itertools.product(*kept):
            walked += 1
            if walked > work.enum:
                raise BudgetExceeded(f"enumeration walked more than {work.enum} candidates (edge solutions x kept root choices)")
            if walked & 1023 == 1:
                work.clock("enumerate_cocycles' root walk")
            for s, k, left_row, right in frame_reads:
                values[s] = mul[left_row[combo[k]]][right]
            for th, twist, slots in root_steps:
                for s, s_g, s_prev in slots:
                    values[s] = mul[mul[values[s_g]][th[values[s_prev]]]][twist]
            if _violation(tab, values, open_sites) is not None:
                continue
            for gi, (g, (left, right)) in enumerate(zip(gens, frames)):
                xs = combo[gi * n_comps : (gi + 1) * n_comps]
                values[start[g] : start[g] + n_vertices] = [mul[mul[lv][xs[ci]]][rv] for lv, ci, rv in zip(left, comp_of, right)]
            # phi_{t_prev g, v} from the vertex condition at (g, t_prev)
            for t, t_prev, g, twist in steps:
                s_g, s_prev, th = start[g], start[t_prev], tab.theta_inv[g]
                values[start[t] : start[t] + n_vertices] = [
                    mul[mul[values[s_g + w]][th[values[s_prev + v]]]][twist] for v, w in enumerate(tab.act[t_prev])
                ]
            out.append(TwistedOneCocycle(system, key_type(values)))
    return out


def h1_twisted(system: CechSystem, *, work: Work = Work()) -> CohomologySet:
    """Gauge classes of twisted cocycles as a cohomology set, numbered by least key.

    Orbits of the tree-normalized cocycles under the gauges constant on each
    component close under the compiled moves of ``CechSystem.gauge_moves``, each
    a generator of the coefficient group on one component and 1 elsewhere.
    Keys are walked in ascending order, so each orbit is met first at its
    least key, and class ids ascend with their representatives.  ``work``'s
    clock is read before the first key is moved and then every 1024.
    """
    keys = sorted(x.key for x in enumerate_cocycles(system, work=work))
    moves, pops = system.gauge_moves, itertools.count()

    def moved(y: bytes | tuple[int, ...]) -> list:
        if not next(pops) & 1023:
            work.clock("h1_twisted's gauge orbits")
        return [_moved(y, runs) for runs in moves]

    orbits = orbit_closures(keys, moved)
    lookup = {key: cid for cid, orbit in enumerate(orbits) for key in orbit}
    if len(lookup) != len(keys):
        sizes = f"{system.nerve.n_vertices} vertices, {len(system.nerve.edges)} edges, |G| = {system.coeff.order}, |Gamma| = {system.gamma.order}"
        raise InternalError(f"a generator gauge leaves the {len(keys)} enumerated cocycles ({sizes})")
    return CohomologySet(system, [orbit[0] for orbit in orbits], lookup)


def h1_reduced(h1: CohomologySet, *, work: Work = Work()) -> CohomologySet:
    """Classes of a twisted H^1 set identified along central covering translations,
    orbits closed under pullback along the generators of the centre.

    ``work``'s clock is read before the first class and then every 1024.
    """
    system, tab = h1.system, h1.system.tables
    z = center(system.gamma)
    pulls = [_pullback_slots(tab, z.embed[s]) for s in z.group.generating_sequence()]

    def translates(cid: int) -> list[int]:
        return [h1.class_of(TwistedOneCocycle(system, _pulled(tab, h1.reps[cid], slots))) for slots in pulls]

    # class ids ascend with their representatives, so walking them in order
    # lists the orbits by their minimal representative
    groups = orbit_closures(work.paced(range(len(h1)), "h1_reduced's pullback orbits"), translates)
    reduced_of = {cid: gid for gid, members in enumerate(groups) for cid in members}
    reps = [h1.reps[min(members)] for members in groups]
    return CohomologySet(system, reps, {s: reduced_of[cid] for s, cid in h1.lookup.items()})


# ---------------------------------------------------------------------------
# Abelian coefficients: coordinates, d2, second cohomology
# ---------------------------------------------------------------------------


def _cochain_sizes(system: CechSystem) -> tuple[int, int, int]:
    """Slot counts of the abelian 1-, 2- and 3-cochains of a system."""
    nerve = system.nerve
    k = system.gamma.order - 1
    m, n = len(nerve.edges), nerve.n_vertices
    return (
        m + k * n,
        len(nerve.triangles) + k * m + k * k * n,
        len(nerve.tetrahedra) + k * len(nerve.triangles) + k * k * m + k**3 * n,
    )


def cochain_vector(coords: AbelianCoords, values: Iterable[int]) -> tuple[int, ...]:
    """The coordinate vector of a flat abelian cochain: each slot's coordinates in turn."""
    return tuple(itertools.chain.from_iterable(map(coords.vec_of.__getitem__, values)))


def cochain_values(coords: AbelianCoords, vec: Sequence[int], count: int) -> list[int]:
    """The flat cochain of ``count`` slots with the given coordinate vector."""
    r = len(coords.moduli)
    return [coords.element(vec[i * r : (i + 1) * r]) for i in range(count)]


def _d2_stencil(system: CechSystem) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The terms of ``d2`` at each 3-cochain slot, in slot order.

    Written additively in the abelian coefficients, a term (s, t, sign) adds
    sign * theta_t^-1(x_s), x_s the value in 2-cochain slot s; a term
    without theta has t = 0, the identity.  With v_t and w_{t1,t2} zero when
    an index is 1, the sites are, in slot order:

        u_ijx + u_ixl - u_ijl - u_jxl                                  on tetrahedra,
        theta_t^-1(u_ijx) + v_t,ij + v_t,jx - u_{i.t, j.t, x.t} - v_t,ix   on (t, triangle),
        v_t,(i.t2 j.t2) + theta_t^-1(v_t2,ij) + w_t,t2,i - v_{t2 t},ij - w_t,t2,j
                                                                       on (t, t2, edge),
        theta_t^-1(w_t2,t3,x) + w_{t, t3 t2},x - w_{t2 t, t3},x - w_{t,t2},x.t3
                                                                       on (t, t2, t3, vertex).
    """
    nerve, gmul, vact = system.nerve, system.gamma.mul, system.space.vact
    tri = {s: k for k, s in enumerate(nerve.triangles)}
    idx = nerve.edge_index
    k, m, n = system.gamma.order - 1, len(nerve.edges), nerve.n_vertices
    v0, w0 = len(tri), len(tri) + k * m
    nontrivial = range(1, k + 1)

    def u(p: int, q: int, r: int, sign: int = 1, t: int = 0) -> tuple[tuple[int, int, int], ...]:
        odd = ((p > q) + (p > r) + (q > r)) % 2
        return ((tri[tuple(sorted((p, q, r)))], t, -sign if odd else sign),)

    def v(t: int, p: int, q: int, sign: int = 1, th: int = 0) -> tuple[tuple[int, int, int], ...]:
        if not t:
            return ()
        return ((v0 + (t - 1) * m + idx[(min(p, q), max(p, q))], th, sign if p < q else -sign),)

    def w(t1: int, t2: int, x: int, sign: int = 1, th: int = 0) -> tuple[tuple[int, int, int], ...]:
        return ((w0 + ((t1 - 1) * k + t2 - 1) * n + x, th, sign),) if t1 and t2 else ()

    sites = [(*u(i, j, x), *u(i, x, l), *u(i, j, l, -1), *u(j, x, l, -1)) for i, j, x, l in nerve.tetrahedra]
    for t in nontrivial:
        row = vact[t]
        sites += (
            (*u(i, j, x, 1, t), *v(t, i, j), *v(t, j, x), *u(row[i], row[j], row[x], -1), *v(t, i, x, -1))
            for i, j, x in nerve.triangles
        )
    for t, t2 in itertools.product(nontrivial, repeat=2):
        row, prod = vact[t2], gmul[t2][t]
        sites += (
            (*v(t, row[i], row[j]), *v(t2, i, j, 1, t), *w(t, t2, i), *v(prod, i, j, -1), *w(t, t2, j, -1))
            for i, j in nerve.edges
        )
    for t, t2, t3 in itertools.product(nontrivial, repeat=3):
        row, t32, t21 = vact[t3], gmul[t3][t2], gmul[t2][t]
        sites += (
            (*w(t2, t3, x, 1, t), *w(t, t32, x), *w(t21, t3, x, -1), *w(t, t2, row[x], -1)) for x in range(n)
        )
    return tuple(sites)


def d2(system: CechSystem, values: Sequence[int]) -> list[int]:
    """The abelian coboundary of a flat 2-cochain (u, v, w), as a flat 3-cochain.

    Each 3-cochain slot is the sum of its terms in ``system.d2_stencil``;
    ``_d2_stencil`` states the sites.
    """
    return list(_products(system.tables, system.d2_stencil, values))


def abelian_complex(system: CechSystem) -> AbelianComplex:
    """d1 and d2 as integer matrices, assembled once per space and coefficient module.

    Vectors are ``cochain_vector``s of flat cochains in the slot order of
    the module docstring.  The rows of both maps are read off their
    stencils, ``d1_stencil`` and ``d2_stencil``: a term (s, t, sign) adds
    sign times the coordinate matrix of theta_t^-1 on the block of slot s.
    The terms of d1 on phi_1's slots add nothing, since abelian 1-cochains
    fix phi_1 = 1.  Refuses when the coefficients are not abelian or the
    2-cochains outgrow the exact-linear-algebra guard; both checks run on
    every call.

    The matrices read only the space, the coefficient table and the
    theta^-1 tables: c enters d1 through the site targets, never through
    its factors.  So the complex is kept on ``system.space``, with its
    Howell forms once they are used, keyed by ``system.coeff.mul`` and
    ``tables.theta_inv`` by value.  Every system on the space with an
    equal module gets the same object; its ``coords`` may name another
    group object with the same table.
    """
    if not system.coeff.is_abelian():
        raise InputError("abelian machinery requires abelian coefficients")
    co = abelian_coordinates(system.coeff)
    sizes = _cochain_sizes(system)
    r = len(co.moduli)
    if sizes[1] * r > DEFAULT_COORD_GUARD:
        raise BudgetExceeded(f"abelian cochain space has {sizes[1] * r} coordinates, guard {DEFAULT_COORD_GUARD}")
    key = (system.coeff.mul, system.tables.theta_inv)
    complexes = kept(system.space, "_abelian_complexes", dict)
    if key not in complexes:
        complexes[key] = _assemble_complex(system, co, sizes)
    return complexes[key]


def _assemble_complex(system: CechSystem, co: AbelianCoords, sizes: tuple[int, int, int]) -> AbelianComplex:
    """The matrices of ``abelian_complex``, read off the stencils in the coordinates ``co``."""
    r = len(co.moduli)
    mods1, mods2, mods3 = (co.moduli * size for size in sizes)
    # coord[t][j]: the coordinates of theta_t^-1 of generator j, column j of its matrix
    coord = [[co.vec_of[th[gen]] for gen in co.generators] for th in system.tables.theta_inv]

    def hom(stencil: Iterable[Iterable[tuple[int, int, int]]], mods_in: tuple[int, ...], mods_out: tuple[int, ...]) -> ZHom:
        rows = []
        for terms in stencil:
            block = [[0] * len(mods_in) for _ in range(r)]
            for s, t, sign in terms:
                if s * r < len(mods_in):
                    for j, col in enumerate(coord[t], s * r):
                        for out_row, x in zip(block, col):
                            out_row[j] += sign * x
            rows += (tuple(x % d for x in out_row) for out_row, d in zip(block, co.moduli))
        return ZHom(tuple(rows), mods_in, mods_out)

    d1_hom = hom((factors for _, factors, _ in system.d1_stencil), mods1, mods2)
    return AbelianComplex(co, d1_hom, hom(system.d2_stencil, mods2, mods3))


# ---------------------------------------------------------------------------
# The coefficient ladder Z -> G -> G/Z and its coboundary maps
# ---------------------------------------------------------------------------


@record
class ActionLadder:
    """Systems for G, its centre and the central quotient over one space and action.

    The ladder Z -> G -> G/Z depends on the action alone: all three systems
    carry the trivial twist, and the quotient system is honestly untwisted
    since central values project to 1.  The space is ``sys_g.space``, the
    action ``sys_g.data.action`` and the quotient ``proj.target``.  The twist
    c enters only through a ``CoefficientLadder`` made by ``with_data``.  The
    cohomology is computed on first use and kept, so every ladder on one
    space and action, whatever its twist, reads the same H^0 and H^1 sets,
    abelian complex, H^1(G/Z) obstructions and checks of ``les_verify`` (all
    but the one at H^1(G/Z)).
    """

    sys_g: CechSystem
    sys_z: CechSystem
    sys_q: CechSystem
    zsub: Subgroup
    proj: GroupHom
    lift_table: tuple[int, ...]  # quotient element -> minimal lift in G; 1 lifts to 1
    work: Work  # the limits of each H^1 enumeration

    def with_data(self, data: TwistedData) -> CoefficientLadder:
        """The ladder of twisted data with this action."""
        if data.action != self.sys_g.data.action:
            raise InputError("twisted data and ladder act differently")
        return CoefficientLadder(self, data)

    @cached_property
    def h0z(self) -> tuple[tuple[int, ...], ...]:
        return h0_twisted(self.sys_z)

    @cached_property
    def h0g(self) -> tuple[tuple[int, ...], ...]:
        return h0_twisted(self.sys_g)

    @cached_property
    def h0q(self) -> tuple[tuple[int, ...], ...]:
        return h0_twisted(self.sys_q)

    @cached_property
    def h1z(self) -> CohomologySet:
        return h1_twisted(self.sys_z, work=self.work)

    @cached_property
    def h1g(self) -> CohomologySet:
        return h1_twisted(self.sys_g, work=self.work)

    @cached_property
    def h1q(self) -> CohomologySet:
        return h1_twisted(self.sys_q, work=self.work)

    @cached_property
    def cx(self) -> AbelianComplex:
        return abelian_complex(self.sys_z)

    @cached_property
    def obstructions(self) -> tuple[tuple[int, ...], ...]:
        """``delta_h1_vector`` of each H^1(G/Z) representative, lifted by ``lift_table``."""
        return tuple(delta_h1_vector(self, self.h1q.representative(cid)) for cid in range(len(self.h1q)))

    @cached_property
    def exactness(self) -> tuple[CheckRecord, ...]:
        """The checks of ``les_verify`` that read no twist, in report order."""
        return _twist_free_checks(self)


@record
class CoefficientLadder:
    """The ladder of one space and twisted data: its action ladder and the twist c.

    Only the twisted G system, its H^1, the distinguished target of the last
    coboundary and the target's preimage in H^1(G/Z) are the ladder's own;
    the twist-free parts are read off ``base``.  With the trivial twist the
    twisted system is ``base.sys_g`` and its H^1 is ``base.h1g``.
    """

    base: ActionLadder
    data: TwistedData

    @cached_property
    def sys_c(self) -> CechSystem:
        """The G system carrying the twist c of the data."""
        return self.base.sys_g if self.data.is_trivial() else CechSystem(self.base.sys_g.space, self.data)

    @cached_property
    def h1c(self) -> CohomologySet:
        return self.base.h1g if self.sys_c is self.base.sys_g else h1_twisted(self.sys_c, work=self.base.work)

    @cached_property
    def target(self) -> tuple[int, ...]:
        """The twist 2-cochain (1, 1, theta^-1(c)) as a centre vector.

        Its slots hold the targets of the twisted system's ``d1`` sites,
        mapped into the centre: 1 at the triangle and edge sites, and the
        twist of ``SystemTables.vertex_sites`` at every vertex.
        """
        cx, back = self.base.cx, self.base.zsub.parent_to_sub
        wants = [back[want] for *_, want in self.sys_c.tables.vertex_sites for _ in range(self.sys_c.nerve.n_vertices)]
        vec = cochain_vector(cx.coords, [0] * (_cochain_sizes(self.sys_c)[1] - len(wants)) + wants)
        if not cx.in_kernel_d2(vec):
            raise InternalError("twist 2-cochain is not d2-closed")
        return vec

    @cached_property
    def preimage(self) -> tuple[int, ...]:
        """The H^1(G/Z) classes, ascending, whose obstruction has the twist's B^2 label."""
        reduce = self.base.cx.coboundaries.reduce
        label = reduce(self.target)
        return tuple(cid for cid, vec in enumerate(self.base.obstructions) if reduce(vec) == label)


def action_ladder(space: GammaNerve, action: GammaAction, *, work: Work = Work()) -> ActionLadder:
    """The ladder Z -> G -> G/Z of an action over a space, nothing computed yet.

    ``work`` limits each H^1 enumeration the ladder makes on first use.
    """
    g = action.g
    zsub = center(g)
    q, proj = g.central_quotient
    data = make_twisted_data(action)

    sys_g = CechSystem(space, data)
    sys_z = CechSystem(space, restrict_to_subgroup(data, zsub))

    q_tables = []
    for t in action.gamma.elements():
        row = [0] * q.order
        for x in g.elements():
            row[proj.map[x]] = proj.map[action.apply(t, x)]
        q_tables.append(tuple(row))
    sys_q = CechSystem(space, make_twisted_data(check_gamma_action(action.gamma, q, q_tables)))

    lift_table = tuple(proj.map.index(qe) for qe in q.elements())
    return ActionLadder(sys_g, sys_z, sys_q, zsub, proj, lift_table, work)


def coefficient_ladder(space: GammaNerve, data: TwistedData, *, work: Work = Work()) -> CoefficientLadder:
    """The ladder of twisted data over a space, on an action ladder of its own.

    Ladders that differ only in the twist can share one ``action_ladder``
    through ``ActionLadder.with_data``.
    """
    return action_ladder(space, data.action, work=work).with_data(data)


def include_z_cocycle(ladder: ActionLadder, x: TwistedOneCocycle) -> TwistedOneCocycle:
    return relabel(x, ladder.zsub.embed, ladder.sys_g)


def project_g_cocycle(ladder: ActionLadder, x: TwistedOneCocycle) -> TwistedOneCocycle:
    return relabel(x, ladder.proj.map, ladder.sys_q)


def act_h1z_by_h0q(
    ladder: ActionLadder,
    x: TwistedOneCocycle,
    qbar: Sequence[int],
) -> TwistedOneCocycle:
    """Right action of an equivariant quotient-valued function on H^1(Z).

    The function is lifted vertex-wise to G, the G-valued gauge formula is
    applied to the centre-valued pair, and the result is read back in the
    centre; the class is independent of the lift.
    """
    h = tuple(ladder.lift_table[v] for v in qbar)
    return relabel(gauge(include_z_cocycle(ladder, x), h), ladder.zsub.parent_to_sub, ladder.sys_z)


def delta_h0(ladder: ActionLadder, qbar: Sequence[int]) -> TwistedOneCocycle:
    """Coboundary of an equivariant quotient-valued function.

    This is its action on the trivial centre-valued class.
    """
    triv = TwistedOneCocycle(ladder.sys_z, ladder.sys_z.tables.key_type(_flat_pair(*trivial_pair(ladder.sys_z))))
    return act_h1z_by_h0q(ladder, triv, qbar)


def delta_h1_vector(
    ladder: ActionLadder,
    x: TwistedOneCocycle,
    *,
    lift: Sequence[int] | Mapping[int, int] | None = None,
    flip: bool = False,
) -> tuple[int, ...]:
    """d1 of a G-valued lift of a quotient cocycle, as a centre 2-cochain vector.

    ``lift`` is a table from quotient to G elements that sends 1 to 1, so
    phi[1] stays normalized; the ladder's ``lift_table`` by default.
    ``flip`` is fault injection for harness self-tests: it inverts each
    lifted edge value, a lift with the wrong handedness.
    """
    y = TwistedOneCocycle(ladder.sys_g, _translated(x.key, lift or ladder.lift_table, ladder.sys_g))
    a, phi = y.a, y.phi
    if flip:
        a = tuple(ladder.sys_g.coeff.inv[v] for v in a)
    back = ladder.zsub.parent_to_sub
    try:
        values = [back[val] for val in d1(ladder.sys_g, a, phi)]
    except KeyError as exc:
        raise InternalError("obstruction of a quotient-cocycle lift escaped the centre") from exc
    vec = cochain_vector(ladder.cx.coords, values)
    if not ladder.cx.in_kernel_d2(vec):
        raise InternalError("lifted obstruction is not d2-closed")
    return vec


def delta_h1(ladder: ActionLadder, x: TwistedOneCocycle, **lift) -> tuple:
    """Second-cohomology class of the obstruction of a quotient-valued cocycle.

    Returned as the B^2 label of the lifted obstruction, ``lift`` passed to
    ``delta_h1_vector``; lift and representative independence are theorems,
    exercised by the sequence verifier.
    """
    return ladder.cx.coboundaries.reduce(delta_h1_vector(ladder, x, **lift))


@record
class CheckRecord:
    name: str
    status: str  # "pass" | "fail"
    detail: dict


@record
class SequenceReport:
    checks: list[CheckRecord]

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def _check(name: str, body: Callable[[], tuple[bool, dict]]) -> CheckRecord:
    """A node's record: its (ok, detail), or a failure with the library error it raised as witness; refusals propagate."""
    try:
        ok, detail = body()
    except BudgetExceeded:
        raise
    except TwistError as exc:
        return CheckRecord(name, "fail", {"error": str(exc)})
    return CheckRecord(name, "pass" if ok else "fail", detail)


def les_verify(ladder: CoefficientLadder, *, fault: Optional[str] = None) -> SequenceReport:
    """Exactness of the seven-term coefficient sequence, orbit-strengthened.

    The sequence is the ladder's: its H^0 and H^1 sets, its abelian complex
    over the centre and its twist target.  At nodes where the previous term
    is a group the check is the sharp one: two classes have equal image
    exactly when the group action identifies them.  A node whose computation
    raises a library error is reported as a failure with the error as
    witness, but a ``BudgetExceeded`` refusal is raised.  Only the node at
    H^1(G/Z) reads the twist, through the ladder's ``preimage``, and is
    checked per call; the other five are the action ladder's
    ``exactness``, checked once for every twist on it.
    ``fault='flip-gauge'`` deliberately mis-hands the lift in ``delta_h1``
    for harness self-tests: its edge values are inverted, so on a
    non-abelian G the lifted obstruction leaves the centre and the
    "delta-preimage of twist class" check fails with that error.  The
    mis-handed labels are the call's own and never reach the ladder.
    """
    base = ladder.base
    checks, h1q = base.exactness, base.h1q

    def node_a7() -> tuple[bool, dict]:
        # delta^-1 of the twist class equals the image of twisted H1(G);
        # with a trivial twist this is exactness at H1(G/Z)
        if fault == "flip-gauge":
            target_label = base.cx.coboundaries.reduce(ladder.target)
            labels = [delta_h1(base, h1q.representative(cid), flip=True) for cid in range(len(h1q))]
            preimage = [cid for cid, label in enumerate(labels) if label == target_label]
        else:
            preimage = list(ladder.preimage)
        h1c = ladder.h1c
        image = {h1q.class_of(project_g_cocycle(base, h1c.representative(cid))) for cid in range(len(h1c))}
        return set(preimage) == image, {
            "preimage": preimage,
            "image": sorted(image),
            "twisted_classes": len(h1c),
        }

    a7 = _check("h1(G/Z): delta-preimage of twist class == image of twisted H1(G)", node_a7)
    return SequenceReport([*checks[:4], a7, *checks[4:]])


def _twist_free_checks(ladder: ActionLadder) -> tuple[CheckRecord, ...]:
    """Exactness at H^0(G), H^0(G/Z), H^1(Z) and H^1(G), then lift independence of ``delta_h1``."""
    h0z, h0g, h0q = ladder.h0z, ladder.h0g, ladder.h0q
    h1z, h1g, h1q = ladder.h1z, ladder.h1g, ladder.h1q

    emb = ladder.zsub.embed
    pr = ladder.proj.map

    def node_h0() -> tuple[bool, dict]:
        img_h0z = {tuple(emb[x] for x in f) for f in h0z}
        ker = {f for f in h0g if all(pr[x] == 0 for x in f)}
        return ker == img_h0z, {"sizes": [len(ker), len(img_h0z)]}

    def node_a4() -> tuple[bool, dict]:
        img_h0g = {tuple(pr[x] for x in f) for f in h0g}
        qmul = ladder.proj.target.mul
        return _fibres_are_orbits(
            h0q,
            lambda f: h1z.class_of(delta_h0(ladder, f)),
            lambda f: [tuple(qmul[x][y] for x, y in zip(gbar, f)) for gbar in img_h0g],
            [len(h0q), len(h1z)],
        )

    def node_a5() -> tuple[bool, dict]:
        def moved(cid: int) -> list[int]:
            rep = h1z.representative(cid)
            return [h1z.class_of(act_h1z_by_h0q(ladder, rep, f)) for f in h0q]

        return _fibres_are_orbits(
            range(len(h1z)),
            lambda cid: h1g.class_of(include_z_cocycle(ladder, h1z.representative(cid))),
            moved,
            [len(h1z), len(h1g)],
        )

    def node_a6() -> tuple[bool, dict]:
        def moved(cid: int) -> list[int]:
            key = h1g.reps[cid]
            return [h1g.class_of(_validated(ladder.sys_g, _times_centre(ladder, z, key))) for z in h1z.reps]

        return _fibres_are_orbits(
            range(len(h1g)),
            lambda cid: h1q.class_of(project_g_cocycle(ladder, h1g.representative(cid))),
            moved,
            [len(h1g), len(h1q)],
        )

    def node_lift() -> tuple[bool, dict]:
        alt = _alternative_lift(ladder)
        reduce = ladder.cx.coboundaries.reduce
        for cid, vec in enumerate(ladder.obstructions):
            if reduce(vec) != delta_h1(ladder, h1q.representative(cid), lift=alt):
                return False, {"witness": cid}
        return True, {}

    return (
        _check("h0: ker(G->G/Z) == im(Z->G)", node_h0),
        _check("h0(G/Z): equal delta iff same H0(G)-orbit", node_a4),
        _check("h1(Z): equal image in H1(G) iff same H0(G/Z)-orbit", node_a5),
        _check("h1(G): fibres over H1(G/Z) are H1(Z)-orbits", node_a6),
        _check("delta_h1 independent of the chosen lift", node_lift),
    )


def _fibres_are_orbits(
    items: Sequence, image: Callable, moves: Callable[..., Iterable], sizes: list[int]
) -> tuple[bool, dict]:
    """Exactness where a group acts on the previous term, as a node's (ok, detail).

    Each item's fibre under ``image`` must be its orbit ``{item, *moves(item)}``,
    ``moves`` giving the item's images under the whole group.  The detail
    is ``sizes`` on success, else the witness (item, orbit, fibre) of the
    first item where they differ.
    """
    label = {x: image(x) for x in items}
    for x in items:
        orbit, fibre = {x, *moves(x)}, {y for y in items if label[y] == label[x]}
        if orbit != fibre:
            return False, {"witness": (x, sorted(orbit), sorted(fibre))}
    return True, {"sizes": sizes}


def _times_centre(ladder: ActionLadder, z: Sequence[int], x: Sequence[int]) -> list[int]:
    """The flat values, slot by slot, of the centre-valued z, included in G, times those of x; both in one slot order."""
    mul, emb = ladder.sys_g.coeff.mul, ladder.zsub.embed
    return [mul[emb[u]][v] for u, v in zip(z, x)]


def _alternative_lift(ladder: ActionLadder) -> list[int]:
    table = list(ladder.lift_table)
    for q_elem in range(1, ladder.proj.target.order):
        others = [x for x in ladder.proj.source.elements() if ladder.proj.map[x] == q_elem and x != table[q_elem]]
        if others:
            table[q_elem] = others[0]
    return table


@record
class ExistenceResult:
    exists: bool
    witness: Optional[TwistedOneCocycle]
    matched_quotient_class: Optional[int]


def existence_check(ladder: CoefficientLadder) -> ExistenceResult:
    """Nonemptiness of the ladder's twisted H^1 via the last coboundary map.

    The twisted set is nonempty exactly when the twist 2-cochain has the B^2
    label of some quotient-valued class's obstruction, that is when the
    ladder's ``preimage`` is nonempty; a witness cocycle is then assembled
    from the lift of its first class and a solve of d1.  The obstructions
    are the action ladder's, shared by every twist on it.
    """
    if not ladder.preimage:
        return ExistenceResult(False, None, None)
    base, cid = ladder.base, ladder.preimage[0]
    cx = base.cx
    diff = tuple((a_ - b_) % m for a_, b_, m in zip(base.obstructions[cid], ladder.target, cx.d1_hom.mods_out))
    correction = solve(cx.d1_hom, diff)
    if correction is None:
        raise InternalError("obstruction shares the twist's B^2 label but differs from it by no coboundary")
    # the lift times the inverse of the correction, included in G
    negated = tuple(-v % m for v, m in zip(correction, cx.d1_hom.mods_in))
    # the abelian 1-cochain is the key without its identity row
    z = cochain_values(cx.coords, negated, _cochain_sizes(base.sys_z)[0])
    lifted = _translated(base.h1q.reps[cid], base.lift_table, base.sys_g)
    witness = _validated(ladder.sys_c, _times_centre(base, z + [0] * ladder.sys_c.nerve.n_vertices, lifted))
    return ExistenceResult(True, witness, cid)


# ---------------------------------------------------------------------------
# Coefficient maps, associated sections, reductions, recocycling transport
# ---------------------------------------------------------------------------


def map_coefficients(
    x: TwistedOneCocycle,
    psi: GroupHom,
    target_action: GammaAction,
) -> TwistedOneCocycle:
    """Push a twisted cocycle along an equivariant coefficient homomorphism."""
    data = x.system.data
    if psi.source.mul != data.g.mul:
        raise CarrierMismatch(message="homomorphism source differs from the coefficient group")
    if psi.target.mul != target_action.g.mul:
        raise CarrierMismatch(message="homomorphism target differs from the group the target action acts on")
    for t in data.gamma.elements():
        for g_elem in data.g.elements():
            if target_action.apply(t, psi.map[g_elem]) != psi.map[data.theta(t, g_elem)]:
                raise NotEquivariant(t, g_elem)
    zset = set(center(psi.target).embed)
    pushed = []
    for t1 in data.gamma.elements():
        row = []
        for t2 in data.gamma.elements():
            val = psi.map[data.c(t1, t2)]
            if val not in zset:
                raise ImageCocycleNotCentral(t1, t2)
            row.append(val)
        pushed.append(tuple(row))
    return relabel(x, psi.map, CechSystem(x.system.space, check_cocycle(target_action, pushed)))


def sections_of_associated(e: TwistedOneCocycle, m: TwistedGSet) -> list[tuple[int, ...]]:
    """Equivariant sections of the associated set bundle of a cocycle.

    A section is one carrier point per vertex subject to the frame-change
    law m_j == m_i . a_ij on edges and the action law m_i . t ==
    m_{i.t} . phi_{t,i} at every vertex.  The data of ``m`` must share the
    group, acting group and action with the cocycle; its own twist may be
    the same one or the trivial one (homogeneous fibres carry no twist).
    """
    system, data = e.system, e.system.data
    md = m.data
    if md.g.mul != data.g.mul or md.gamma.mul != system.gamma.mul:
        raise CarrierMismatch(message="twisted set groups differ from the cocycle system")
    if tuple(a.map for a in md.action.theta) != tuple(a.map for a in data.action.theta):
        raise CarrierMismatch(message="twisted set action differs from the cocycle system")
    if md.table != data.table and not md.is_trivial():
        raise CarrierMismatch(message="twisted set twist is neither the system twist nor trivial")

    nerve = system.nerve
    act, phi = system.space.vact, e.phi
    return [
        tuple(values)
        for values in forest_functions(nerve, range(m.size), lambda p, v, x: m.g_act[e.edge_value(p, v)][x])
        if all(values[v] == m.g_act[e.edge_value(u, v)][values[u]] for (u, v) in nerve.edges)
        and all(
            m.gamma_act[t][values[v]] == m.g_act[phi[t][v]][values[act[t][v]]]
            for t in system.gamma.elements()
            if t != 0
            for v in range(nerve.n_vertices)
        )
    ]


@record
class Reduction:
    """A reduction of a twisted cocycle to a subgroup of the coefficients."""

    section: tuple[int, ...]  # coset index per vertex
    gauge: tuple[int, ...]  # the lift used to align frames
    witness: TwistedOneCocycle  # subgroup-valued cocycle gauge-equivalent to the input


def reductions_to_subgroup(
    e: TwistedOneCocycle, subgroup_elements: Sequence[int]
) -> list[Reduction]:
    """All reductions of structure group to an action-invariant subgroup.

    Reductions are the equivariant sections of the associated coset-space
    bundle; each one yields, by gauging with a coset-wise lift, a cocycle
    with subgroup values.  When the twist takes values outside the subgroup
    no reduction can exist and the empty list is returned.
    """
    system, data = e.system, e.system.data
    g = data.g
    sub = subgroup_from_elements(g, subgroup_elements)
    sub_data = restrict_to_subgroup(data, sub)
    if sub_data is None:
        return []
    sub_system = CechSystem(system.space, sub_data)

    cosets, _ = left_cosets(g, sub.embed)
    sections = sections_of_associated(e, homogeneous_space(data, sub.embed))

    out = []
    for sec in sections:
        lift = tuple(cosets[ci][0] for ci in sec)
        out.append(Reduction(sec, lift, relabel(gauge(e, lift), sub.parent_to_sub, sub_system)))
    return out


def transport_cocycle(e: TwistedOneCocycle, rec: Recocycling) -> TwistedOneCocycle:
    """Re-express a twisted cocycle for a recocycled lift.

    The edge part is unchanged; the vertex functions pick up the inverse
    action of the recocycling map: phi'_{t,i} = phi_{t,i} theta_t^-1(s(t)).
    """
    system, data = e.system, e.system.data
    if rec.old.action.theta != data.action.theta or rec.old.table != data.table:
        raise CarrierMismatch(message="cocycle does not belong to the recocycling source data")
    g = data.g
    phi = tuple(tuple(g.mul[x][data.theta_inv(t, rec.s[t])] for x in row) for t, row in enumerate(e.phi))
    return make_cocycle(CechSystem(system.space, rec.new), e.a, phi)
