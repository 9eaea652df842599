"""Combinatorial good covers: finite nerves, simplicial actions, coverings.

A nerve stores simplices through dimension 3 (quadruple overlaps); every
stored simplex stands for a nonempty *connected* intersection, so locally
constant data over it is a single group element.  Covering-space descent is
only defined when every simplex fibre of the quotient map is a single free
orbit; this is the combinatorial shadow of the cover being trivializable
over each piece.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .errors import (
    Disconnected,
    InputError,
    InternalError,
    NotClosed,
    NotFree,
    NotGoodCover,
    NotSimplicial,
    SectionInvalid,
)
from .groups import FiniteGroup, action_witness, cyclic_group, orbit_closures
from .records import kept, record

MAX_DIM = 3
TRIVIAL_GROUP = cyclic_group(1, label="C1")  # the acting group of every plain space

Simplex = tuple[int, ...]
T = TypeVar("T")


@record(frozen=True)
class Nerve:
    """Simplices by dimension, with per-instance structure computed once.

    ``edge_index``, ``plain_space`` and the components and BFS forest behind
    ``components()``, ``spanning_forest()`` and ``is_connected()`` are built
    on first use and kept on the instance, outside equality and hashing, and
    are handed out as tuples and read-only mappings.
    """

    n_vertices: int
    simplices: tuple[tuple[Simplex, ...], ...]  # by dimension 0..MAX_DIM

    @property
    def edges(self) -> tuple[Simplex, ...]:
        return self.simplices[1]

    @property
    def triangles(self) -> tuple[Simplex, ...]:
        return self.simplices[2]

    @property
    def tetrahedra(self) -> tuple[Simplex, ...]:
        return self.simplices[3]

    @cached_property
    def edge_index(self) -> dict[Simplex, int]:
        """Position of each sorted edge in ``edges``; not part of equality or hash."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def plain_space(self) -> GammaNerve:  # the nerve under the trivial group, the one space of its plain systems
        return trivial_gamma_nerve(self, TRIVIAL_GROUP)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    @cached_property
    def _forest(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], dict[int, Optional[int]], tuple[Simplex, ...], tuple[Simplex, ...]]:
        """Components, BFS parents, tree edges and the (parent, child) arcs in BFS order.

        One search per component, from its minimal vertex, in the order of
        those vertices; the parent dict is only ever handed out read-only.
        """
        adj = self.adjacency()
        parent: dict[int, Optional[int]] = {}
        arcs: list[Simplex] = []
        comps: list[tuple[int, ...]] = []
        for root in range(self.n_vertices):
            if root in parent:
                continue
            parent[root] = None
            queue = [root]
            for x in queue:  # the queue grows while it is read
                for y in adj[x]:
                    if y not in parent:
                        parent[y] = x
                        arcs.append((x, y))
                        queue.append(y)
            comps.append(tuple(sorted(queue)))
        tree = tuple((x, y) if x < y else (y, x) for x, y in arcs)
        return tuple(comps), parent, tree, tuple(arcs)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, each sorted, ordered by minimal vertex."""
        return self._forest[0]

    def is_connected(self) -> bool:
        return len(self._forest[0]) <= 1

    def spanning_forest(self) -> tuple[Mapping[int, Optional[int]], tuple[Simplex, ...]]:
        """BFS parents (per component, rooted at its minimal vertex) and tree edges.

        ``parent`` is filled in BFS order, so iterating it yields every
        parent before its children.
        """
        _, parent, tree, _ = self._forest
        return MappingProxyType(parent), tree


def validate_nerve(n_vertices: int, maximal_simplices: Iterable[Sequence[int]]) -> Nerve:
    """Build a nerve from maximal simplices, computing the downward closure.

    Faces above dimension 3 are ignored; their triangles, edges and vertices
    are still recorded.
    """
    n = int(n_vertices)
    if n <= 0:
        raise InputError("nerve needs at least one vertex")
    by_dim: list[set[Simplex]] = [set() for _ in range(MAX_DIM + 1)]
    for v in range(n):
        by_dim[0].add((v,))
    for raw in maximal_simplices:
        s = tuple(sorted(int(v) for v in raw))
        if len(set(s)) != len(s):
            raise InputError(f"simplex {s} has repeated vertices")
        if any(not 0 <= v < n for v in s):
            raise InputError(f"simplex {s} has a vertex out of range")
        for size in range(1, min(len(s), MAX_DIM + 1) + 1):
            for face in itertools.combinations(s, size):
                by_dim[size - 1].add(face)
    nerve = Nerve(n, tuple(tuple(sorted(by_dim[d])) for d in range(MAX_DIM + 1)))
    _check_closed(nerve)
    return nerve


def _check_closed(nerve: Nerve) -> None:
    for d in range(1, MAX_DIM + 1):
        lower = set(nerve.simplices[d - 1])
        for s in nerve.simplices[d]:
            for face in itertools.combinations(s, d):
                if face not in lower:
                    raise NotClosed(s)


@record(frozen=True)
class GammaNerve:
    """A nerve with a right simplicial action of a finite group.

    vact[t][v] is the image of vertex v under t, with the right-action
    convention v . (t1 t2) == (v . t1) . t2.
    """

    nerve: Nerve
    gamma: FiniteGroup
    vact: tuple[tuple[int, ...], ...]
    free: bool

    def act(self, v: int, gamma_elem: int) -> int:
        return self.vact[gamma_elem][v]

    def act_simplex(self, s: Sequence[int], gamma_elem: int) -> Simplex:
        return tuple(sorted(self.vact[gamma_elem][v] for v in s))

    def vertex_orbits(self) -> list[tuple[int, ...]]:
        """Vertex orbits, each sorted, ordered by minimal vertex."""
        return orbit_closures(range(self.nerve.n_vertices), lambda v: (row[v] for row in self.vact))


def validate_gamma_nerve(
    nerve: Nerve,
    gamma: FiniteGroup,
    vact: Sequence[Sequence[int]],
    *,
    require_free: bool = False,
) -> GammaNerve:
    n = nerve.n_vertices
    tables = tuple(tuple(int(x) for x in row) for row in vact)
    if len(tables) != gamma.order or any(len(t) != n for t in tables):
        raise InputError("need one vertex permutation per group element")
    for t in tables:
        if sorted(t) != list(range(n)):
            raise InputError("action table is not a permutation of the vertices")
    if tables[0] != tuple(range(n)):
        raise InputError("identity must act trivially on vertices")
    witness = action_witness(gamma, tables)
    if witness is not None:
        raise InputError("vertex action fails to be an action at ({},{})".format(*witness))
    # one scan: every image is a simplex, and free means no nontrivial g fixes a vertex or a simplex
    simplex_sets = [set(nerve.simplices[d]) for d in range(MAX_DIM + 1)]
    free = True
    for g in gamma.elements():
        for d in range(MAX_DIM + 1):
            for s in nerve.simplices[d]:
                img = tuple(sorted(tables[g][v] for v in s))
                if img not in simplex_sets[d]:
                    raise NotSimplicial(g, s)
                free = free and (g == 0 or img != s)
    if require_free and not free:
        raise NotFree(message="a nontrivial element fixes a vertex or a simplex")
    return GammaNerve(nerve, gamma, tables, free)


def trivial_gamma_nerve(nerve: Nerve, gamma: FiniteGroup) -> GammaNerve:
    ident = tuple(range(nerve.n_vertices))
    return validate_gamma_nerve(nerve, gamma, tuple(ident for _ in gamma.elements()))


def point_space(gamma: FiniteGroup) -> GammaNerve:
    """The one-vertex nerve under ``gamma``, kept on the group as a nerve keeps its ``plain_space``: the one space of its point systems."""
    return kept(gamma, "_point_space", lambda: trivial_gamma_nerve(validate_nerve(1, []), gamma))


# ---------------------------------------------------------------------------
# Quotients, covers, monodromy
# ---------------------------------------------------------------------------


@record(frozen=True)
class CoverDescent:
    """Descent data for a free quotient X -> Y = X/Gamma.

    ``section`` picks one X-vertex per Y-vertex; ``transitions[(i, j)]`` is
    the unique group element t with {section[i] . t, section[j]} an X-edge.
    The identity t_ii = 1 and the triangle identity t_ij t_jk = t_ik hold on
    the stored simplices.
    """

    upstairs: GammaNerve
    downstairs: Nerve
    section: tuple[int, ...]
    orbit_of: tuple[int, ...]
    transitions: dict[Simplex, int]  # keyed by ordered Y-edge (i, j), both orders

    def transition(self, i: int, j: int) -> int:
        if i == j:
            return 0
        return self.transitions[(i, j)]

    @cached_property
    def cover_class(self) -> frozenset[tuple[int, ...]]:
        """The simultaneous conjugates of ``monodromy(self)``, computed once per descent.

        These are the tree-normalized Gamma-cocycles of the cover's class: on
        a connected base the constant gauges are what is left of the gauge
        group once the tree edges carry the identity, and they conjugate
        every value by one element.
        """
        gamma = self.upstairs.gamma
        mono = monodromy(self)
        return frozenset(tuple(gamma.conjugate(t, v) for v in mono) for t in gamma.elements())


def quotient(x: GammaNerve, section: Optional[Sequence[int]] = None) -> CoverDescent:
    """Orbit nerve of a free action together with its transition cocycle."""
    if not x.free:
        raise NotFree(message="quotient descent requires a free action")
    nerve, gamma = x.nerve, x.gamma
    orbits = x.vertex_orbits()
    orbit_index: dict[int, int] = {}
    for i, orb in enumerate(orbits):
        for v in orb:
            orbit_index[v] = i

    if section is None:
        sec = tuple(orb[0] for orb in orbits)
    else:
        sec = tuple(int(v) for v in section)
        if len(sec) != len(orbits):
            raise SectionInvalid(message="section must pick one vertex per orbit")
        for i, v in enumerate(sec):
            if not 0 <= v < nerve.n_vertices or orbit_index[v] != i:
                raise SectionInvalid(i, v)

    by_dim: list[set[Simplex]] = [set() for _ in range(MAX_DIM + 1)]
    by_dim[0] = {(i,) for i in range(len(orbits))}
    for d in range(1, MAX_DIM + 1):
        for s in nerve.simplices[d]:
            img = tuple(sorted(orbit_index[v] for v in s))
            if len(set(img)) != len(img):
                raise NotGoodCover(s, message=f"simplex {s} collapses in the quotient")
            by_dim[d].add(img)
    y = Nerve(len(orbits), tuple(tuple(sorted(by_dim[d])) for d in range(MAX_DIM + 1)))
    _check_closed(y)

    # each Y-simplex fibre must be one free orbit of X-simplices
    for d in range(1, MAX_DIM + 1):
        fibre: dict[Simplex, list[Simplex]] = {}
        for s in nerve.simplices[d]:
            fibre.setdefault(tuple(sorted(orbit_index[v] for v in s)), []).append(s)
        for ys, lifts in fibre.items():
            if len(lifts) != gamma.order:
                raise NotGoodCover(ys, message=f"fibre of {ys} has {len(lifts)} simplices, expected {gamma.order}")
            orbit = {x.act_simplex(lifts[0], t) for t in gamma.elements()}
            if orbit != set(lifts):
                raise NotGoodCover(ys, message=f"fibre of {ys} is not a single orbit")

    edge_set = set(nerve.edges)
    transitions: dict[Simplex, int] = {}
    for (i, j) in y.edges:
        hits = [t for t in gamma.elements() if tuple(sorted((x.act(sec[i], t), sec[j]))) in edge_set]
        if len(hits) != 1:
            raise NotGoodCover((i, j), message=f"edge ({i},{j}) admits {len(hits)} transition elements")
        transitions[(i, j)] = hits[0]
        back = [t for t in gamma.elements() if tuple(sorted((x.act(sec[j], t), sec[i]))) in edge_set]
        if len(back) != 1 or back[0] != gamma.inv[hits[0]]:
            raise InternalError("transition elements are not mutually inverse")
        transitions[(j, i)] = back[0]
    for (i, j, k) in y.triangles:
        if gamma.mul[transitions[(i, j)]][transitions[(j, k)]] != transitions[(i, k)]:
            raise NotGoodCover((i, j, k), message="transition cocycle identity fails")
    return CoverDescent(x, y, sec, tuple(orbit_index[v] for v in range(nerve.n_vertices)), transitions)


def build_cover(y: Nerve, gamma: FiniteGroup, values: Sequence[int]) -> tuple[GammaNerve, CoverDescent]:
    """The cover classified by a Gamma-valued cocycle on the base.

    ``values`` holds one element per sorted edge (i, j) of ``y``, read on
    the oriented edge i -> j; every triangle i<j<k must satisfy
    v_ij v_jk == v_ik.  Vertices are (v, t) pairs indexed v * |Gamma| + t;
    the group acts by right translation on the second coordinate.  The
    descent section is v -> (v, 1) and its transitions are ``values``.
    """
    vals = tuple(int(v) for v in values)
    if len(vals) != len(y.edges):
        raise InputError("need one group element per base edge")
    if any(not 0 <= v < gamma.order for v in vals):
        raise InputError(f"edge values must lie in 0..{gamma.order - 1}")
    mul, inv = gamma.mul, gamma.inv
    idx = y.edge_index
    for (i, j, k) in y.triangles:
        if mul[vals[idx[(i, j)]]][vals[idx[(j, k)]]] != vals[idx[(i, k)]]:
            raise InputError(f"cocycle law fails on triangle ({i},{j},{k})")
    nq = gamma.order

    def enc(v: int, t: int) -> int:
        return v * nq + t

    maximal: list[Simplex] = []
    for d in range(MAX_DIM, 0, -1):
        for s in y.simplices[d]:
            v0 = s[0]
            # the sheet over v of the lift through (v0, t) solves t = value(v0, v) * t_v
            back = [inv[vals[idx[(v0, v)]]] for v in s[1:]]
            for t in gamma.elements():
                lift = [enc(v0, t), *(enc(v, mul[b][t]) for v, b in zip(s[1:], back))]
                maximal.append(tuple(sorted(lift)))
    cover = validate_nerve(y.n_vertices * nq, maximal)
    tables = tuple(
        tuple(enc(v, mul[t][s]) for v in range(y.n_vertices) for t in gamma.elements())
        for s in gamma.elements()
    )
    gn = validate_gamma_nerve(cover, gamma, tables, require_free=True)
    descent = quotient(gn, section=tuple(enc(v, 0) for v in range(y.n_vertices)))
    return gn, descent


def forest_functions(nerve: Nerve, root_values: Iterable[T], step: Callable[[int, int, T], T]) -> Iterator[list[T]]:
    """The vertex functions spread along the spanning forest from their root values.

    One function per choice of a value from ``root_values`` at each
    component root, components in ``components()`` order and choices in
    ``itertools.product`` order.  Each root holds its chosen value, and
    every other vertex v with BFS parent p holds ``step(p, v, value[p])``,
    parents first.
    """
    comps, _, _, arcs = nerve._forest
    for combo in itertools.product(root_values, repeat=len(comps)):
        values: list = [None] * nerve.n_vertices
        for comp, x in zip(comps, combo):
            values[comp[0]] = x
        for p, v in arcs:
            values[v] = step(p, v, values[p])
        yield values


def tree_gauge(nerve: Nerve, group: FiniteGroup, value: Callable[[int, int], int]) -> list[int]:
    """The frame lam[v] = value(v, parent) lam[parent], the identity at each root.

    ``value(u, v)`` is the group element on the oriented edge u -> v, with
    value(v, u) its inverse.  Gauging by the frame makes every
    spanning-forest edge carry the identity: lam[p]^-1 value(p, v) lam[v] == 1.
    """
    mul = group.mul
    return next(forest_functions(nerve, (0,), lambda p, v, x: mul[value(v, p)][x]))


def monodromy(descent: CoverDescent) -> tuple[int, ...]:
    """The transitions gauged to the identity on the spanning tree.

    One element per base edge, in ``edges`` order: the section is regauged
    by the ``tree_gauge`` frame, so tree edges carry the identity.  On a
    connected base two covers are isomorphic exactly when their
    monodromies are simultaneous conjugates.
    """
    y = descent.downstairs
    if not y.is_connected():
        raise Disconnected(message="monodromy requires a connected base")
    gamma = descent.upstairs.gamma
    mul, inv = gamma.mul, gamma.inv
    lam = tree_gauge(y, gamma, descent.transition)
    return tuple(mul[mul[inv[lam[u]]][descent.transition(u, v)]][lam[v]] for u, v in y.edges)
