"""Finite groups as multiplication tables.

Elements are dense integer indices 0..order-1 with the identity pinned to
index 0.  All operations are pure functions on immutable tables, so results
are hashable and reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    InputError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    SearchBudgetExceeded,
)

DEFAULT_ORDER_GUARD = 64
DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    label: Optional[str] = None
    # permutation old->new applied by validate_group when the identity had
    # to be relocated to index 0; None when the table came in normalized
    relabeling: Optional[tuple[int, ...]] = None

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

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
        seen = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul[x][g], self.mul[x][self.inv[g]]):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return tuple(sorted(seen))

    def generating_sequence(self) -> tuple[int, ...]:
        """Greedy small generating sequence, deterministic in index order."""
        gens: list[int] = []
        have = {0}
        for x in self.elements():
            if x not in have:
                gens.append(x)
                have = set(self.closure(gens))
                if len(have) == self.order:
                    break
        return tuple(gens)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.label or ''} order={self.order})"


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.target.order != self.source.order:
            raise InputError("composition of homomorphisms with mismatched groups")
        return GroupHom(other.source, self.target, tuple(self.map[x] for x in other.map))

    def is_bijective(self) -> bool:
        return len(set(self.map)) == self.source.order == self.target.order


@dataclass(frozen=True)
class Automorphism:
    hom: GroupHom
    inverse_map: tuple[int, ...]

    @property
    def map(self) -> tuple[int, ...]:
        return self.hom.map

    def __call__(self, x: int) -> int:
        return self.hom.map[x]

    def inverse(self) -> "Automorphism":
        g = self.hom.source
        return Automorphism(GroupHom(g, g, self.inverse_map), self.hom.map)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        m = tuple(self.map[x] for x in other.map)
        mi = tuple(other.inverse_map[x] for x in self.inverse_map)
        g = self.hom.source
        return Automorphism(GroupHom(g, g, m), mi)


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
        r = tuple(int(x) for x in row)
        if len(r) != n:
            raise InputError(f"row {i} has length {len(r)}, expected {n}")
        for x in r:
            if not 0 <= x < n:
                raise InputError(f"entry {x} in row {i} out of range 0..{n - 1}")
        rows.append(r)

    ident = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            ident = e
            break
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
    for x in range(n):
        found = None
        for y in range(n):
            if rows[x][y] == 0 and rows[y][x] == 0:
                found = y
                break
        if found is None:
            raise NoInverse(x)
        inv.append(found)

    for x in range(n):
        rx = rows[x]
        for y in range(n):
            rxy = rows[rx[y]]
            ry = rows[y]
            for z in range(n):
                if rxy[z] != rx[ry[z]]:
                    raise NotAssociative(x, y, z)

    return FiniteGroup(n, tuple(rows), tuple(inv), label=label, relabeling=relabeling)


def check_hom(source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]) -> GroupHom:
    m = tuple(int(x) for x in mapping)
    if len(m) != source.order:
        raise InputError("homomorphism table length differs from group order")
    if any(not 0 <= x < target.order for x in m):
        raise InputError("homomorphism image out of range")
    if m[0] != 0:
        raise InputError("homomorphism does not preserve the identity")
    for a in source.elements():
        for b in source.elements():
            if m[source.mul[a][b]] != target.mul[m[a]][m[b]]:
                raise InputError(f"not a homomorphism at ({a},{b})")
    return GroupHom(source, target, m)


def check_automorphism(g: FiniteGroup, mapping: Sequence[int]) -> Automorphism:
    hom = check_hom(g, g, mapping)
    if not hom.is_bijective():
        raise InputError("automorphism table is not a bijection")
    inv = [0] * g.order
    for x, y in enumerate(hom.map):
        inv[y] = x
    return Automorphism(hom, tuple(inv))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup re-indexed as a FiniteGroup of its own.

    embed[i] is the parent index of subgroup element i; parent_index maps
    back.  Element 0 is always the parent identity.
    """

    group: FiniteGroup
    parent: FiniteGroup
    embed: tuple[int, ...]
    parent_to_sub: dict[int, int] = field(compare=False, hash=False, default_factory=dict)

    def contains(self, parent_elem: int) -> bool:
        return parent_elem in self.parent_to_sub


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
    """The centre {z : zg = gz for all g} with its own table."""
    elems = [z for z in g.elements() if is_central(g, z)]
    lbl = f"Z({g.label})" if g.label else None
    return subgroup_from_elements(g, elems, label=lbl)


def is_normal(g: FiniteGroup, elements: Iterable[int]) -> bool:
    elems = set(elements)
    return all(g.conjugate(x, h) in elems for x in g.elements() for h in elems)


def quotient_group(g: FiniteGroup, normal_elements: Iterable[int], label: Optional[str] = None) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; cosets ordered by minimal element."""
    nset = sorted(set(normal_elements))
    sub = subgroup_from_elements(g, nset)  # validates closure
    if not is_normal(g, nset):
        raise InputError("subgroup is not normal")
    coset_of: dict[int, int] = {}
    cosets: list[tuple[int, ...]] = []
    for x in g.elements():
        if x in coset_of:
            continue
        cs = tuple(sorted(g.mul[x][h] for h in sub.embed))
        for y in cs:
            coset_of[y] = len(cosets)
        cosets.append(cs)
    order = [c[0] for c in cosets]
    rank = {min_elt: i for i, min_elt in enumerate(sorted(order))}
    remap = {old: rank[c[0]] for old, c in enumerate(cosets)}
    coset_of = {x: remap[i] for x, i in coset_of.items()}
    reps = [0] * len(cosets)
    for x in sorted(g.elements(), reverse=True):
        reps[coset_of[x]] = x  # lowest x wins after the reverse sweep
    k = len(cosets)
    mul = tuple(tuple(coset_of[g.mul[reps[a]][reps[b]]] for b in range(k)) for a in range(k))
    inv = tuple(coset_of[g.inv[reps[a]]] for a in range(k))
    q = FiniteGroup(k, mul, inv, label=label)
    proj = GroupHom(g, q, tuple(coset_of[x] for x in g.elements()))
    return q, proj


def conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Orbit partition under conjugation, classes sorted by minimal element."""
    seen = set()
    classes = []
    for x in g.elements():
        if x in seen:
            continue
        orbit = sorted({g.conjugate(t, x) for t in g.elements()})
        seen.update(orbit)
        classes.append(tuple(orbit))
    classes.sort(key=lambda c: c[0])
    return classes


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise SearchBudgetExceeded(f"search budget {self.limit} exhausted")


def _extend_partial_hom(
    g: FiniteGroup,
    h: FiniteGroup,
    partial: dict[int, int],
    new_src: int,
    new_img: int,
    budget: _Budget,
) -> Optional[dict[int, int]]:
    """Close a partial homomorphism under products; None on conflict."""
    table = dict(partial)
    if table.get(new_src, new_img) != new_img:
        return None
    table[new_src] = new_img
    frontier = [new_src]
    while frontier:
        x = frontier.pop()
        for y in list(table.keys()):
            budget.spend()
            for (s, t) in ((g.mul[x][y], h.mul[table[x]][table[y]]), (g.mul[y][x], h.mul[table[y]][table[x]])):
                prev = table.get(s)
                if prev is None:
                    table[s] = t
                    frontier.append(s)
                elif prev != t:
                    return None
    return table


def _hom_search(
    g: FiniteGroup,
    h: FiniteGroup,
    *,
    bijective: bool,
    first_only: bool,
    budget_limit: int,
) -> list[GroupHom]:
    """Backtracking over generator images, lexicographic order in h-indices."""
    gens = g.generating_sequence()
    if not gens:  # trivial group
        hom = GroupHom(g, h, (0,))
        return [hom] if (not bijective or h.order == 1) else []
    budget = _Budget(budget_limit)
    out: list[GroupHom] = []
    orders_h: dict[int, list[int]] = {}
    for x in h.elements():
        orders_h.setdefault(h.element_order(x), []).append(x)

    def backtrack(depth: int, partial: dict[int, int]) -> bool:
        if depth == len(gens):
            if len(partial) != g.order:
                return False
            if bijective and len(set(partial.values())) != g.order:
                return False
            mapping = tuple(partial[x] for x in g.elements())
            out.append(GroupHom(g, h, mapping))
            return first_only
        src = gens[depth]
        o = g.element_order(src)
        cands = [x for x in h.elements() if o % h.element_order(x) == 0]
        if bijective:
            cands = orders_h.get(o, [])
        for img in cands:
            budget.spend()
            nxt = _extend_partial_hom(g, h, partial, src, img, budget)
            if nxt is None:
                continue
            if bijective and len(set(nxt.values())) != len(nxt):
                continue
            if backtrack(depth + 1, nxt):
                return True
        return False

    backtrack(0, {0: 0})
    return out


def automorphisms(
    g: FiniteGroup,
    *,
    order_guard: int = DEFAULT_ORDER_GUARD,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[Automorphism]:
    """Complete Aut(G) by generator-image backtracking, sorted by map table."""
    if g.order > order_guard:
        raise SearchBudgetExceeded(f"order {g.order} exceeds guard {order_guard}")
    homs = _hom_search(g, g, bijective=True, first_only=False, budget_limit=budget)
    auts = []
    for hom in homs:
        inv = [0] * g.order
        for x, y in enumerate(hom.map):
            inv[y] = x
        auts.append(Automorphism(hom, tuple(inv)))
    auts.sort(key=lambda a: a.map)
    return auts


def inner_automorphisms(g: FiniteGroup) -> list[Automorphism]:
    seen = {}
    for t in g.elements():
        m = tuple(g.conjugate(t, x) for x in g.elements())
        if m not in seen:
            inv = [0] * g.order
            for x, y in enumerate(m):
                inv[y] = x
            seen[m] = Automorphism(GroupHom(g, g, m), tuple(inv))
    return [seen[m] for m in sorted(seen)]


def outer_classes(
    g: FiniteGroup,
    *,
    order_guard: int = DEFAULT_ORDER_GUARD,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[list[Automorphism]]:
    """Coset decomposition of Aut(G) by Int(G); identity coset first."""
    auts = automorphisms(g, order_guard=order_guard, budget=budget)
    inner = {a.map for a in inner_automorphisms(g)}
    cosets: list[list[Automorphism]] = []
    assigned: dict[tuple[int, ...], int] = {}
    for a in auts:
        key = None
        for b_map in assigned:
            # same coset iff a . b^-1 is inner
            b = next(x for x in auts if x.map == b_map)
            comp = a.compose(b.inverse()).map
            if comp in inner:
                key = assigned[b_map]
                break
        if key is None:
            assigned[a.map] = len(cosets)
            cosets.append([a])
        else:
            cosets[key].append(a)
    ident = tuple(range(g.order))
    cosets.sort(key=lambda c: (c[0].map != ident, c[0].map))
    return cosets


def find_isomorphism(
    g: FiniteGroup,
    h: FiniteGroup,
    *,
    order_guard: int = DEFAULT_ORDER_GUARD,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[GroupHom]:
    """First isomorphism in lexicographic generator-image order, or None."""
    if g.order != h.order:
        return None
    if max(g.order, h.order) > order_guard:
        raise SearchBudgetExceeded(f"order {max(g.order, h.order)} exceeds guard {order_guard}")
    if sorted(map(g.element_order, g.elements())) != sorted(map(h.element_order, h.elements())):
        return None
    homs = _hom_search(g, h, bijective=True, first_only=True, budget_limit=budget)
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
