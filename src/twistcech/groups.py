"""Finite groups as multiplication tables.

Elements are dense integer indices 0..order-1 with the identity pinned to
index 0.  All operations are pure functions on immutable tables, so results
are hashable and reproducible across runs.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BudgetExceeded,
    InputError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    Work,
)
from .records import field, record


@record(frozen=True)
class FiniteGroup:
    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    label: Optional[str] = None
    # permutation old->new applied by validate_group when the identity had
    # to be relocated to index 0; None when the table came in normalized
    relabeling: Optional[tuple[int, ...]] = None

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mul[x][a]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a] for a in self.elements() for b in self.elements())

    def power(self, a: int, n: int) -> int:
        x = 0
        g = a if n >= 0 else self.inv[a]
        for _ in range(abs(n)):
            x = self.mul[x][g]
        return x

    def closure(self, gens: Iterable[int]) -> tuple[int, ...]:
        """Sorted subgroup generated by gens."""
        return _span(self.mul, list(gens))

    def generating_sequence(self) -> tuple[int, ...]:
        """Greedy small generating sequence, deterministic in index order."""
        return self._generating_sequence

    @cached_property
    def _generating_sequence(self) -> tuple[int, ...]:  # kept on the instance, outside equality and hashing
        return _greedy_generators(self.mul)

    @cached_property
    def _center(self) -> Subgroup:  # kept on the instance, as is the central quotient
        return subgroup_from_elements(self, [z for z in self.elements() if is_central(self, z)], f"Z({self.label})" if self.label else None)

    @cached_property
    def central_quotient(self) -> tuple[FiniteGroup, GroupHom]:  # G/Z(G) and the projection, kept likewise
        return quotient_group(self, self._center.embed, label=f"{self.label or 'G'}/Z")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.label or ''} order={self.order})"


@record(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def is_bijective(self) -> bool:
        return len(set(self.map)) == self.source.order == self.target.order


@record(frozen=True)
class Automorphism:
    hom: GroupHom
    inverse_map: tuple[int, ...]

    @property
    def map(self) -> tuple[int, ...]:
        return self.hom.map

    def inverse(self) -> "Automorphism":
        g = self.hom.source
        return Automorphism(GroupHom(g, g, self.inverse_map), self.hom.map)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        m = tuple(self.map[x] for x in other.map)
        mi = tuple(other.inverse_map[x] for x in self.inverse_map)
        g = self.hom.source
        return Automorphism(GroupHom(g, g, m), mi)


def _span(mul: Sequence[Sequence[int]], gens: Sequence[int]) -> tuple[int, ...]:
    """The indices reached from 0 by right multiplications by gens, sorted: in a finite group, the subgroup they generate."""
    return orbit_closures([0], lambda x: (mul[x][s] for s in gens))[0]


def _greedy_generators(mul: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Each index, in order, not in the ``_span`` of earlier ones; no inverses used.

    Then each of them, in order, is dropped when the others still span every index (Q8's -1 is the
    square of the later generators).
    """
    gens: list[int] = []
    reached = {0}
    for g in range(len(mul)):
        if g not in reached:
            gens.append(g)
            reached = set(_span(mul, gens))
    for g in gens[:-1]:  # the last is not reached by the others
        rest = [s for s in gens if s != g]
        if len(_span(mul, rest)) == len(mul):
            gens = rest
    return tuple(gens)


def validate_group(mul: Sequence[Sequence[int]], label: Optional[str] = None) -> FiniteGroup:
    """Check a multiplication table and return a normalized FiniteGroup.

    The identity is relocated to index 0 when necessary; the relabeling
    permutation (old index -> new index) is recorded on the result.
    """
    n = len(mul)
    if n == 0:
        raise InputError("empty multiplication table")
    rows = []
    for i, row in enumerate(mul):
        r = tuple(map(int, row))
        if len(r) != n:
            raise InputError(f"row {i} has length {len(r)}, expected {n}")
        if min(r) < 0 or max(r) >= n:
            x = next(x for x in r if not 0 <= x < n)
            raise InputError(f"entry {x} in row {i} out of range 0..{n - 1}")
        rows.append(r)

    ident = next((e for e in range(n) if all(rows[e][x] == x and rows[x][e] == x for x in range(n))), None)
    if ident is None:
        raise NoIdentity()

    relabeling = None
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = perm[ident], perm[0]
        # perm is an involution: old index -> new index
        relabeling = tuple(perm)
        old_of_new = relabeling  # involution, so it is its own inverse
        rows = [
            tuple(relabeling[rows[old_of_new[a]][old_of_new[b]]] for b in range(n))
            for a in range(n)
        ]

    inv = []
    for x, rx in enumerate(rows):
        found = next((y for y in range(n) if rx[y] == 0 and rows[y][x] == 0), None)
        if found is None:
            raise NoInverse(x)
        inv.append(found)

    # Light's test: the y with (xy)z = x(yz) for all x, z are closed under products
    gens = _greedy_generators(rows)
    for y in gens:
        through = itemgetter(*rows[y])  # x(yz) for every z, read off row x
        if any(rows[rx[y]] != through(rx) for rx in rows):
            # name the least witness of the full scan
            raise NotAssociative(
                *next((x, y, z) for x in range(n) for y in range(n) for z in range(n) if rows[rows[x][y]][z] != rows[x][rows[y][z]])
            )

    group = FiniteGroup(n, tuple(rows), tuple(inv), label=label, relabeling=relabeling)
    group.__dict__["_generating_sequence"] = gens  # in a group they are its generating sequence
    return group


def check_elements(order: int, values: Sequence[int], name: Callable[[int], str]) -> None:
    """Refuse the first of ``values`` that is no element index of a group of order ``order``; ``name(i)`` names values[i]."""
    if values and not 0 <= min(values) <= max(values) < order:
        i = next(i for i, x in enumerate(values) if not 0 <= x < order)
        raise InputError(f"{name(i)} = {values[i]} is out of range for a group of order {order}")


def check_hom(source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]) -> GroupHom:
    m = tuple(map(int, mapping))
    if len(m) != source.order:
        raise InputError("homomorphism table length differs from group order")
    if min(m) < 0 or max(m) >= target.order:
        raise InputError("homomorphism image out of range")
    if m[0] != 0:
        raise InputError("homomorphism does not preserve the identity")
    witness = law_witness(source, lambda a: (tuple(map(m.__getitem__, source.mul[a])), tuple(map(target.mul[m[a]].__getitem__, m))))
    if witness is not None:
        raise InputError("not a homomorphism at ({},{})".format(*witness))
    return GroupHom(source, target, m)


def law_witness(g: FiniteGroup, sides: Callable[[int], tuple[Sequence, Sequence]]) -> Optional[tuple[int, int]]:
    """The least (a, b) of ``g`` where a law fails, or None if it never does.

    ``sides(a)`` gives both sides at every (a, b) as two rows indexed by b; the
    caller has checked the identity.  The a where a law f(ab) = f(a) f(b) holds
    are closed under products, so the law holds when it holds at every
    generator.  When one fails, the least failing a may be a generator the
    sequence dropped as redundant (Q8's -1), so then every a is scanned.
    """
    if all(left == right for left, right in map(sides, g.generating_sequence())):
        return None
    for a in g.elements():  # reaches the failing generator at the latest
        left, right = sides(a)
        if left != right:
            return a, next(b for b, (x, y) in enumerate(zip(left, right)) if x != y)


def action_witness(g: FiniteGroup, table: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
    """The least (a, b) where m.(ab) == (m.a).b fails at some point m of a right action table, or None; table[0] is the identity."""
    return law_witness(g, lambda a: (tuple(map(table.__getitem__, g.mul[a])), tuple(tuple(map(row.__getitem__, table[a])) for row in table)))


def _automorphism(g: FiniteGroup, mapping: Sequence[int]) -> Automorphism:
    """The automorphism with a map table already known to be bijective, with its inverse table."""
    inv = [0] * g.order
    for x, y in enumerate(mapping):
        inv[y] = x
    return Automorphism(GroupHom(g, g, tuple(mapping)), tuple(inv))


def check_automorphism(g: FiniteGroup, mapping: Sequence[int]) -> Automorphism:
    hom = check_hom(g, g, mapping)
    if not hom.is_bijective():
        raise InputError("automorphism table is not a bijection")
    return _automorphism(g, hom.map)


@record(frozen=True)
class Subgroup:
    """A subgroup re-indexed as a FiniteGroup of its own.

    embed[i] is the parent index of subgroup element i; parent_index maps
    back.  Element 0 is always the parent identity.
    """

    group: FiniteGroup
    parent: FiniteGroup
    embed: tuple[int, ...]
    parent_to_sub: dict[int, int] = field(compare=False, default_factory=dict)


def subgroup_from_elements(g: FiniteGroup, elements: Iterable[int], label: Optional[str] = None) -> Subgroup:
    elems = tuple(sorted(set(int(x) for x in elements)))
    index = {e: i for i, e in enumerate(elems)}
    if 0 not in index:
        raise InputError("subgroup must contain the identity")
    for a in elems:
        if g.inv[a] not in index:
            raise InputError(f"subgroup not closed under inversion at {a}")
        for b in elems:
            if g.mul[a][b] not in index:
                raise InputError(f"subgroup not closed under product at ({a},{b})")
    mul = tuple(tuple(index[g.mul[a][b]] for b in elems) for a in elems)
    inv = tuple(index[g.inv[a]] for a in elems)
    sub = FiniteGroup(len(elems), mul, inv, label=label)
    return Subgroup(sub, g, elems, index)


def is_central(g: FiniteGroup, z: int) -> bool:
    """Whether z commutes with every element of g."""
    row = g.mul[z]
    return all(row[x] == g.mul[x][z] for x in g.elements())


def center(g: FiniteGroup) -> Subgroup:
    """The centre {z : zg = gz for all g} with its own table, built once per group object."""
    return g._center


def is_normal(g: FiniteGroup, elements: Iterable[int]) -> bool:
    elems = set(elements)
    return all(g.conjugate(x, h) in elems for x in g.elements() for h in elems)


def left_cosets(g: FiniteGroup, subgroup_elements: Iterable[int]) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """Left cosets xH ordered by minimal element; returns (cosets, coset_of).

    Each coset is the closure of its least element under right
    multiplication by H.
    """
    helems = subgroup_from_elements(g, subgroup_elements).embed
    cosets = orbit_closures(g.elements(), lambda x: (g.mul[x][h] for h in helems))
    return cosets, {x: i for i, cs in enumerate(cosets) for x in cs}


def quotient_group(g: FiniteGroup, normal_elements: Iterable[int], label: Optional[str] = None) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; cosets ordered by minimal element."""
    nset = sorted(set(normal_elements))
    cosets, coset_of = left_cosets(g, nset)  # validates closure
    if not is_normal(g, nset):
        raise InputError("subgroup is not normal")
    reps = [cs[0] for cs in cosets]
    mul = tuple(tuple(coset_of[g.mul[a][b]] for b in reps) for a in reps)
    inv = tuple(coset_of[g.inv[a]] for a in reps)
    q = FiniteGroup(len(cosets), mul, inv, label=label)
    proj = GroupHom(g, q, tuple(coset_of[x] for x in g.elements()))
    return q, proj


def orbit_closures(items: Iterable[int], moves: Callable[[int], Iterable[int]]) -> list[tuple[int, ...]]:
    """Closures of ``items`` under ``moves``, each sorted, in the order of their first item.

    An item already reached from an earlier one starts no closure of its
    own; so when ``items`` ascend, closures are ordered by minimal element.
    """
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for item in items:
        if item in seen:
            continue
        orbit = {item}
        frontier = [item]
        while frontier:
            for nxt in moves(frontier.pop()):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


def conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Orbit partition under conjugation, classes sorted by minimal element."""
    return orbit_closures(g.elements(), lambda x: (g.conjugate(t, x) for t in g.elements()))


def _hom_search(g: FiniteGroup, h: FiniteGroup, *, first_only: bool, work: Work) -> list[GroupHom]:
    """Isomorphisms g -> h of groups of one order, by backtracking over generator images in h-index order.

    Each candidate image and each product closing a partial map is a node,
    counted against ``work.enum``.
    """
    work.clock("hom search")
    gens = g.generating_sequence()
    if not gens:  # trivial group
        return [GroupHom(g, h, (0,))]
    nodes = 0

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > work.enum:
            raise BudgetExceeded(f"hom search budget {work.enum} exhausted")
        if not nodes & 1023:
            work.clock("hom search")

    def extend(partial: dict[int, int], new_src: int, new_img: int) -> Optional[dict[int, int]]:
        """Close a partial homomorphism under products; None on conflict."""
        table = dict(partial)
        if table.get(new_src, new_img) != new_img:
            return None
        table[new_src] = new_img
        frontier = [new_src]
        while frontier:
            x = frontier.pop()
            for y in list(table.keys()):
                spend()
                for (s, t) in ((g.mul[x][y], h.mul[table[x]][table[y]]), (g.mul[y][x], h.mul[table[y]][table[x]])):
                    prev = table.get(s)
                    if prev is None:
                        table[s] = t
                        frontier.append(s)
                    elif prev != t:
                        return None
        return table

    out: list[GroupHom] = []
    orders_h: dict[int, list[int]] = {}
    for x in h.elements():
        orders_h.setdefault(h.element_order(x), []).append(x)

    def backtrack(depth: int, partial: dict[int, int]) -> bool:
        if depth == len(gens):
            if len(partial) != g.order:
                return False
            out.append(GroupHom(g, h, tuple(partial[x] for x in g.elements())))
            return first_only
        src = gens[depth]
        for img in orders_h.get(g.element_order(src), []):
            spend()
            nxt = extend(partial, src, img)
            # injective on every step, so bijective once it covers g
            if nxt is None or len(set(nxt.values())) != len(nxt):
                continue
            if backtrack(depth + 1, nxt):
                return True
        return False

    backtrack(0, {0: 0})
    return out


def automorphisms(g: FiniteGroup, *, work: Work = Work()) -> list[Automorphism]:
    """Complete Aut(G) by generator-image backtracking, sorted by map table."""
    if g.order > work.order:
        raise BudgetExceeded(f"order {g.order} exceeds guard {work.order}")
    homs = _hom_search(g, g, first_only=False, work=work)
    return sorted((_automorphism(g, hom.map) for hom in homs), key=lambda a: a.map)


def inner_automorphisms(g: FiniteGroup) -> list[Automorphism]:
    maps = {tuple(g.conjugate(t, x) for x in g.elements()) for t in g.elements()}
    return [_automorphism(g, m) for m in sorted(maps)]


def outer_classes(g: FiniteGroup, *, work: Work = Work()) -> list[list[Automorphism]]:
    """Coset decomposition of Aut(G) by Int(G), cosets ordered by their least map table.

    The identity is the least automorphism, so its coset comes first.
    """
    auts = automorphisms(g, work=work)
    index = {a.map: i for i, a in enumerate(auts)}
    inner = inner_automorphisms(g)
    orbits = orbit_closures(range(len(auts)), lambda i: (index[b.compose(auts[i]).map] for b in inner))
    return [[auts[i] for i in orbit] for orbit in orbits]


def find_isomorphism(g: FiniteGroup, h: FiniteGroup, *, work: Work = Work()) -> Optional[GroupHom]:
    """First isomorphism in lexicographic generator-image order, or None."""
    if g.order != h.order:
        return None
    if g.order > work.order:
        raise BudgetExceeded(f"order {g.order} exceeds guard {work.order}")
    if sorted(map(g.element_order, g.elements())) != sorted(map(h.element_order, h.elements())):
        return None
    homs = _hom_search(g, h, first_only=True, work=work)
    return homs[0] if homs else None


def direct_product(a: FiniteGroup, b: FiniteGroup, label: Optional[str] = None) -> FiniteGroup:
    """Direct product with index (x, y) -> x * |b| + y."""
    n, m = a.order, b.order

    def enc(x: int, y: int) -> int:
        return x * m + y

    mul = tuple(
        tuple(enc(a.mul[x1][x2], b.mul[y1][y2]) for x2 in range(n) for y2 in range(m))
        for x1 in range(n)
        for y1 in range(m)
    )
    inv = tuple(enc(a.inv[x], b.inv[y]) for x in range(n) for y in range(m))
    return FiniteGroup(n * m, mul, inv, label=label)


def cyclic_group(n: int, label: Optional[str] = None) -> FiniteGroup:
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    return FiniteGroup(n, mul, inv, label=label or f"C{n}")


def permutation_group(perms: Sequence[tuple[int, ...]], label: Optional[str] = None) -> FiniteGroup:
    """Group from a closed list of permutations; identity must be present.

    Elements are indexed by the sorted order of the one-line permutation
    tuples, with the identity relocated to index 0 by validate_group.
    """
    elems = sorted(set(perms))
    index = {p: i for i, p in enumerate(elems)}
    k = len(elems[0])
    mul = []
    for p in elems:
        row = []
        for q in elems:
            comp = tuple(p[q[i]] for i in range(k))
            if comp not in index:
                raise InputError("permutation list is not closed under composition")
            row.append(index[comp])
        mul.append(tuple(row))
    return validate_group(mul, label=label)
