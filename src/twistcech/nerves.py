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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

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
from .groups import FiniteGroup

MAX_DIM = 3

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class Nerve:
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

    def has_simplex(self, s: Sequence[int]) -> bool:
        t = tuple(sorted(s))
        d = len(t) - 1
        return 0 <= d <= MAX_DIM and t in set(self.simplices[d])

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def components(self) -> list[tuple[int, ...]]:
        """Connected components, each sorted, ordered by minimal vertex."""
        adj = self.adjacency()
        seen = [False] * self.n_vertices
        out = []
        for v in range(self.n_vertices):
            if seen[v]:
                continue
            comp = []
            stack = [v]
            seen[v] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            out.append(tuple(sorted(comp)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def spanning_forest(self) -> tuple[dict[int, Optional[int]], list[Simplex]]:
        """BFS parents (per component, rooted at its minimal vertex) and tree edges.

        ``parent`` is filled in BFS order, so iterating it yields every
        parent before its children.
        """
        adj = self.adjacency()
        parent: dict[int, Optional[int]] = {}
        tree: list[Simplex] = []
        for comp in self.components():
            root = comp[0]
            parent[root] = None
            queue = [root]
            while queue:
                x = queue.pop(0)
                for y in adj[x]:
                    if y not in parent:
                        parent[y] = x
                        tree.append(tuple(sorted((x, y))))
                        queue.append(y)
        return parent, tree


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


@dataclass(frozen=True)
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
        seen = set()
        orbits = []
        for v in range(self.nerve.n_vertices):
            if v in seen:
                continue
            orb = tuple(sorted({self.vact[t][v] for t in self.gamma.elements()}))
            seen.update(orb)
            orbits.append(orb)
        orbits.sort(key=lambda o: o[0])
        return orbits


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
    for a in gamma.elements():
        for b in gamma.elements():
            composed = tuple(tables[b][tables[a][v]] for v in range(n))
            if composed != tables[gamma.mul[a][b]]:
                raise InputError(f"vertex action fails to be an action at ({a},{b})")
    simplex_sets = [set(nerve.simplices[d]) for d in range(MAX_DIM + 1)]
    for g in gamma.elements():
        for d in range(1, MAX_DIM + 1):
            for s in nerve.simplices[d]:
                img = tuple(sorted(tables[g][v] for v in s))
                if len(set(img)) != len(img) or img not in simplex_sets[d]:
                    raise NotSimplicial(g, s)
    free = _is_free(nerve, gamma, tables)
    if require_free and not free:
        raise NotFree(message="a nontrivial element fixes a vertex or a simplex")
    return GammaNerve(nerve, gamma, tables, free)


def _is_free(nerve: Nerve, gamma: FiniteGroup, tables: Sequence[Sequence[int]]) -> bool:
    for g in gamma.elements():
        if g == 0:
            continue
        if any(tables[g][v] == v for v in range(nerve.n_vertices)):
            return False
        for d in range(1, MAX_DIM + 1):
            for s in nerve.simplices[d]:
                if tuple(sorted(tables[g][v] for v in s)) == s:
                    return False
    return True


def trivial_gamma_nerve(nerve: Nerve, gamma: FiniteGroup) -> GammaNerve:
    ident = tuple(range(nerve.n_vertices))
    return validate_gamma_nerve(nerve, gamma, tuple(ident for _ in gamma.elements()))


# ---------------------------------------------------------------------------
# Edge-path fundamental group
# ---------------------------------------------------------------------------

Word = tuple[int, ...]  # signed generator indices, 1-based: +k / -k


@dataclass(frozen=True)
class Pi1Presentation:
    """Edge-path presentation relative to a BFS spanning tree.

    Generators are the non-tree edges, oriented low -> high vertex; each
    2-simplex (i<j<k) contributes the relation gen(i,j) gen(j,k) gen(k,i).
    Words are tuples of signed 1-based generator indices.
    """

    nerve: Nerve
    basepoint: int
    tree_edges: tuple[Simplex, ...]
    generators: tuple[Simplex, ...]
    relations: tuple[Word, ...]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def edge_letter(self, u: int, v: int) -> Word:
        """The word of the oriented edge u -> v (empty for tree edges)."""
        e = tuple(sorted((u, v)))
        if e in set(self.tree_edges):
            return ()
        idx = self.generators.index(e) + 1
        return (idx,) if u < v else (-idx,)

    def loop_word(self, vertices: Sequence[int]) -> Word:
        """Word of an edge loop given as a vertex sequence (closed)."""
        if vertices[0] != vertices[-1]:
            raise InputError("loop must start and end at the same vertex")
        w: list[int] = []
        for u, v in zip(vertices, vertices[1:]):
            w.extend(self.edge_letter(u, v))
        return free_reduce(tuple(w))


def free_reduce(word: Word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def evaluate_word(group: FiniteGroup, assignment: Sequence[int], word: Word) -> int:
    """Evaluate a signed word left-to-right in the group."""
    acc = 0
    for x in word:
        g = assignment[abs(x) - 1]
        acc = group.mul[acc][g if x > 0 else group.inv[g]]
    return acc


def pi1(nerve: Nerve, basepoint: int = 0) -> Pi1Presentation:
    if not nerve.is_connected():
        raise Disconnected(message="fundamental group requires a connected nerve")
    if not 0 <= basepoint < nerve.n_vertices:
        raise InputError("basepoint out of range")
    _, tree = nerve.spanning_forest()
    tree_set = set(tree)
    gens = tuple(e for e in nerve.edges if e not in tree_set)
    gen_index = {e: k + 1 for k, e in enumerate(gens)}

    def letter(u: int, v: int) -> Word:
        e = tuple(sorted((u, v)))
        if e in tree_set:
            return ()
        k = gen_index[e]
        return (k,) if u < v else (-k,)

    relations = []
    for (i, j, k) in nerve.triangles:
        w = free_reduce(letter(i, j) + letter(j, k) + letter(k, i))
        if w:
            relations.append(w)
    return Pi1Presentation(nerve, basepoint, tuple(tree), gens, tuple(relations))


# ---------------------------------------------------------------------------
# Quotients, covers, monodromy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MonodromyRep:
    """Group elements attached to the fundamental-group generators.

    ``canonical`` is the lexicographically minimal simultaneous conjugate of
    the assignment tuple; it is the isomorphism invariant of the cover.
    """

    gamma: FiniteGroup
    presentation: Pi1Presentation
    assignment: tuple[int, ...]
    image: tuple[int, ...]
    canonical: tuple[int, ...]


def make_monodromy(gamma: FiniteGroup, pres: Pi1Presentation, assignment: Sequence[int]) -> MonodromyRep:
    values = tuple(int(v) for v in assignment)
    if len(values) != pres.rank:
        raise InputError("assignment length differs from generator count")
    for r in pres.relations:
        if evaluate_word(gamma, values, r) != 0:
            raise InputError(f"assignment does not kill the relation {r}")
    image = gamma.closure(values)
    canonical = min(
        tuple(gamma.mul[gamma.inv[t]][gamma.mul[v][t]] for v in values) for t in gamma.elements()
    )
    return MonodromyRep(gamma, pres, values, image, canonical)


def build_cover(y: Nerve, rep: MonodromyRep) -> tuple[GammaNerve, CoverDescent]:
    """The cover classified by a monodromy assignment.

    Vertices are (v, t) pairs indexed v * |Gamma| + t; the group acts by
    right translation on the second coordinate.  The descent section is
    v -> (v, 1) and its transitions realize the tree-normalized cocycle of
    the assignment.
    """
    gamma = rep.gamma
    nq = gamma.order
    pres = rep.presentation
    if pres.nerve != y:
        raise InputError("monodromy presentation belongs to a different nerve")

    def cocycle(u: int, v: int) -> int:
        return evaluate_word(gamma, rep.assignment, pres.edge_letter(u, v))

    def enc(v: int, t: int) -> int:
        return v * nq + t

    maximal: list[Simplex] = []
    for d in range(MAX_DIM, 0, -1):
        for s in y.simplices[d]:
            v0 = s[0]
            for t in gamma.elements():
                lift = [enc(v0, t)]
                for v in s[1:]:
                    # sheet over v: solve t = cocycle(v0, v) * t_v
                    tv = gamma.mul[gamma.inv[cocycle(v0, v)]][t]
                    lift.append(enc(v, tv))
                maximal.append(tuple(sorted(lift)))
    cover = validate_nerve(y.n_vertices * nq, maximal)
    tables = tuple(
        tuple(enc(v, gamma.mul[t][s]) for v in range(y.n_vertices) for t in gamma.elements())
        for s in gamma.elements()
    )
    gn = validate_gamma_nerve(cover, gamma, tables, require_free=True)
    descent = quotient(gn, section=tuple(enc(v, 0) for v in range(y.n_vertices)))
    return gn, descent


def tree_gauge(nerve: Nerve, group: FiniteGroup, value: Callable[[int, int], int]) -> list[int]:
    """The frame lam[v] = value(v, parent) lam[parent], the identity at each root.

    ``value(u, v)`` is the group element on the oriented edge u -> v, with
    value(v, u) its inverse.  Gauging by the frame makes every
    spanning-forest edge carry the identity: lam[p]^-1 value(p, v) lam[v] == 1.
    """
    parent, _ = nerve.spanning_forest()
    lam = [0] * nerve.n_vertices
    for v, p in parent.items():
        if p is not None:
            lam[v] = group.mul[value(v, p)][lam[p]]
    return lam


def tree_monodromy(pres: Pi1Presentation, gamma: FiniteGroup, value: Callable[[int, int], int]) -> MonodromyRep:
    """Monodromy of edge values: the tree-gauged value of each generator edge."""
    lam = tree_gauge(pres.nerve, gamma, value)
    assignment = [gamma.mul[gamma.mul[gamma.inv[lam[u]]][value(u, v)]][lam[v]] for (u, v) in pres.generators]
    return make_monodromy(gamma, pres, assignment)


def monodromy(descent: CoverDescent, basepoint: int = 0) -> MonodromyRep:
    """Monodromy of a cover: transitions read along the spanning tree.

    The section is gauge-normalized along the BFS tree so tree edges carry
    the identity; each non-tree edge then contributes its normalized
    transition as the image of the corresponding generator.
    """
    y = descent.downstairs
    if not y.is_connected():
        raise Disconnected(message="monodromy requires a connected base")
    return tree_monodromy(pi1(y, basepoint), descent.upstairs.gamma, descent.transition)


def equivariant_isomorphism(a: GammaNerve, b: GammaNerve) -> Optional[tuple[int, ...]]:
    """Search for a vertex bijection intertwining the actions and simplices.

    Exact backtracking; intended for desk-scale nerves only.
    """
    if a.gamma.mul != b.gamma.mul or a.nerve.n_vertices != b.nerve.n_vertices:
        return None
    n = a.nerve.n_vertices
    if tuple(len(a.nerve.simplices[d]) for d in range(MAX_DIM + 1)) != tuple(
        len(b.nerve.simplices[d]) for d in range(MAX_DIM + 1)
    ):
        return None
    adj_a = [set(row) for row in a.nerve.adjacency()]
    adj_b = [set(row) for row in b.nerve.adjacency()]
    b_simplices = [set(b.nerve.simplices[d]) for d in range(MAX_DIM + 1)]

    def consistent(mapping: dict[int, int]) -> bool:
        for u, iu in mapping.items():
            for v, iv in mapping.items():
                if (v in adj_a[u]) != (iv in adj_b[iu]):
                    return False
        return True

    def backtrack(mapping: dict[int, int], used: set[int]) -> Optional[dict[int, int]]:
        if len(mapping) == n:
            for d in range(2, MAX_DIM + 1):
                for s in a.nerve.simplices[d]:
                    if tuple(sorted(mapping[v] for v in s)) not in b_simplices[d]:
                        return None
            return mapping
        v = min(x for x in range(n) if x not in mapping)
        for img in range(n):
            if img in used:
                continue
            trial = dict(mapping)
            trial[v] = img
            ok = True
            # close under the action
            stack = [v]
            while stack and ok:
                u = stack.pop()
                for t in a.gamma.elements():
                    src, dst = a.act(u, t), b.act(trial[u], t)
                    prev = trial.get(src)
                    if prev is None:
                        if dst in trial.values():
                            ok = False
                            break
                        trial[src] = dst
                        stack.append(src)
                    elif prev != dst:
                        ok = False
                        break
            if ok and consistent(trial):
                res = backtrack(trial, set(trial.values()))
                if res is not None:
                    return res
        return None

    result = backtrack({}, set())
    if result is None:
        return None
    return tuple(result[v] for v in range(n))
