"""Twisted equivariant Cech machinery on finite nerves.

Data over a nerve with a group action is a pair (a, phi): a a 1-cochain on
edges with values in the coefficient group, phi a family of vertex functions
indexed by the acting group with phi[1] = 1.  The pair is a twisted cocycle
when

    a_ij a_jk == a_ik                                   on triangles,
    phi_{t,i}^-1 a_{i.t, j.t} phi_{t,j} == theta_t^-1(a_ij)   on edges,
    phi_{t, i.t'} theta_t^-1(phi_{t',i}) phi_{t't, i}^-1
        == theta_{t't}^-1(c(t', t))                     at every vertex,

with index translation i -> i.t the nerve action.  Gauge transformations by
vertex functions act on the right; cohomology sets are gauge orbits, and the
reduced variant additionally quotients by pullback along central covering
transformations.

All enumeration is exact: a spanning forest normalizes the edge part, the
remaining freedom is finite and walked completely, and abelian-coefficient
questions (second cohomology, coboundary maps) are answered with integer
linear algebra from the abelian module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .abelian import (
    DEFAULT_COORD_GUARD,
    AbelianCoords,
    QuotientLabels,
    ZHom,
    abelian_coordinates,
    enumerate_subgroup,
    hom_from_columns,
    kernel_generators,
    quotient_labels,
    solve,
    subgroup_size,
)
from .actions import TwistedGSet, convert_side, homogeneous_space, left_cosets
from .errors import (
    BudgetExceeded,
    TwistError,
    CarrierMismatch,
    ImageCocycleNotCentral,
    InputError,
    InternalError,
    NotCentral,
    NotEquivariant,
)
from .extensions import (
    GammaAction,
    Recocycling,
    TwistedData,
    TwoCocycle,
    check_cocycle,
    check_gamma_action,
    restrict_to_subgroup,
    trivial_cocycle,
)
from .groups import FiniteGroup, GroupHom, Subgroup, center, quotient_group, subgroup_from_elements
from .nerves import GammaNerve, Nerve, Simplex, tree_gauge

DEFAULT_ENUM_BUDGET = 2_000_000


@dataclass(frozen=True)
class CechSystem:
    """A coefficient system: group values twisted by an action and a cocycle."""

    space: GammaNerve
    coeff: FiniteGroup
    action: GammaAction
    twist: TwoCocycle

    def __post_init__(self):
        if self.action.gamma is not self.space.gamma and self.action.gamma.mul != self.space.gamma.mul:
            raise InputError("coefficient action and nerve action use different groups")

    @property
    def gamma(self) -> FiniteGroup:
        return self.space.gamma

    @property
    def nerve(self) -> Nerve:
        return self.space.nerve

    def theta(self, t: int, x: int) -> int:
        return self.action.apply(t, x)

    def theta_inv(self, t: int, x: int) -> int:
        return self.action.apply_inv(t, x)

    def c(self, t1: int, t2: int) -> int:
        return self.twist.table[t1][t2]


def system_from_data(space: GammaNerve, data: TwistedData) -> CechSystem:
    return CechSystem(space, data.g, data.action, data.cocycle)


def system_with_trivial_twist(system: CechSystem) -> CechSystem:
    return replace(system, twist=trivial_cocycle(system.action))


@dataclass(frozen=True)
class TwistedOneCocycle:
    """A verified pair (a, phi) over a coefficient system.

    ``a`` is aligned with the sorted edge list of the nerve; ``phi[t][v]``
    is the vertex function of the group element t, with phi[1] identically
    the identity.
    """

    system: CechSystem
    a: tuple[int, ...]
    phi: tuple[tuple[int, ...], ...]

    def edge_value(self, u: int, v: int) -> int:
        return edge_value(self.system, self.a, u, v)

    def serial(self) -> tuple:
        return (self.a, self.phi)


def edge_value(system: CechSystem, a: Sequence[int], u: int, v: int) -> int:
    if u == v:
        return 0
    idx = system.nerve.edge_index
    if u < v:
        return a[idx[(u, v)]]
    return system.coeff.inv[a[idx[(v, u)]]]


def trivial_phi(system: CechSystem) -> tuple[tuple[int, ...], ...]:
    n = system.nerve.n_vertices
    return tuple(tuple(0 for _ in range(n)) for _ in system.gamma.elements())


def trivial_pair(system: CechSystem) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    return tuple(0 for _ in system.nerve.edges), trivial_phi(system)


# ---------------------------------------------------------------------------
# d1, cocycle test, gauge actions
# ---------------------------------------------------------------------------


def d1(
    system: CechSystem, a: Sequence[int], phi: Sequence[Sequence[int]]
) -> tuple[dict, dict, dict]:
    """The three obstruction components of a candidate pair.

    Returns (triangle part, edge part keyed (t, edge) for t != 1, vertex
    part keyed (t1, t2) for t1, t2 != 1 with one value per vertex).
    """
    k = system.coeff
    gamma = system.gamma
    space = system.space
    mul, inv = k.mul, k.inv

    tri_part = {}
    for (i, j, x) in system.nerve.triangles:
        val = mul[mul[edge_value(system, a, i, j)][edge_value(system, a, j, x)]][
            inv[edge_value(system, a, i, x)]
        ]
        tri_part[(i, j, x)] = val

    edge_part = {}
    for t in gamma.elements():
        if t == 0:
            continue
        for (u, v) in system.nerve.edges:
            pulled = edge_value(system, a, space.act(u, t), space.act(v, t))
            val = mul[mul[mul[inv[phi[t][u]]][pulled]][phi[t][v]]][
                inv[system.theta_inv(t, edge_value(system, a, u, v))]
            ]
            edge_part[(t, (u, v))] = val

    pair_part = {}
    for t in gamma.elements():
        for t2 in gamma.elements():
            if t == 0 or t2 == 0:
                continue
            prod = gamma.mul[t2][t]
            row = []
            for v in range(system.nerve.n_vertices):
                val = mul[mul[phi[t][space.act(v, t2)]][system.theta_inv(t, phi[t2][v])]][
                    inv[phi[prod][v]]
                ]
                row.append(val)
            pair_part[(t, t2)] = tuple(row)
    return tri_part, edge_part, pair_part


def twist_target(system: CechSystem) -> dict:
    """The required vertex part: (t, t2) -> theta_{t2 t}^-1(c(t2, t))."""
    gamma = system.gamma
    out = {}
    for t in gamma.elements():
        for t2 in gamma.elements():
            if t == 0 or t2 == 0:
                continue
            prod = gamma.mul[t2][t]
            out[(t, t2)] = system.theta_inv(prod, system.c(t2, t))
    return out


def is_twisted_cocycle(
    system: CechSystem, a: Sequence[int], phi: Sequence[Sequence[int]]
) -> tuple[bool, Optional[tuple]]:
    """Check membership in the twisted cocycle set; witness names the site."""
    tri_part, edge_part, pair_part = d1(system, a, phi)
    for key, val in tri_part.items():
        if val != 0:
            return False, ("triangle", key, val)
    for key, val in edge_part.items():
        if val != 0:
            return False, ("edge", key, val)
    target = twist_target(system)
    for key, row in pair_part.items():
        want = target[key]
        for v, val in enumerate(row):
            if val != want:
                return False, ("vertex", key + (v,), val)
    return True, None


def make_cocycle(system: CechSystem, a: Sequence[int], phi: Sequence[Sequence[int]]) -> TwistedOneCocycle:
    av = tuple(int(x) for x in a)
    pv = tuple(tuple(int(x) for x in row) for row in phi)
    if len(av) != len(system.nerve.edges):
        raise InputError("edge part length does not match the edge list")
    if len(pv) != system.gamma.order or any(len(r) != system.nerve.n_vertices for r in pv):
        raise InputError("phi must be |Gamma| x vertices")
    if any(x != 0 for x in pv[0]):
        raise InputError("phi[identity] must be identically the identity")
    ok, witness = is_twisted_cocycle(system, av, pv)
    if not ok:
        raise InputError(f"not a twisted cocycle: violation at {witness}")
    return TwistedOneCocycle(system, av, pv)


def gauge(x: TwistedOneCocycle, h: Sequence[int]) -> TwistedOneCocycle:
    """Right action of a vertex function:
    (a, phi) . h == (h_i^-1 a_ij h_j, h_{i.t}^-1 phi_{t,i} theta_t^-1(h_i)).
    """
    system = x.system
    k = system.coeff
    space = system.space
    a2 = tuple(
        k.mul[k.mul[k.inv[h[u]]][x.a[idx]]][h[v]]
        for idx, (u, v) in enumerate(system.nerve.edges)
    )
    phi2 = []
    for t in system.gamma.elements():
        row = tuple(
            k.mul[k.mul[k.inv[h[space.act(v, t)]]][x.phi[t][v]]][system.theta_inv(t, h[v])]
            for v in range(system.nerve.n_vertices)
        )
        phi2.append(row)
    return TwistedOneCocycle(system, a2, tuple(phi2))


def pullback(x: TwistedOneCocycle, lam: int) -> TwistedOneCocycle:
    """Index translation (a, phi) -> (a^lam, phi^lam) along a group element."""
    system = x.system
    space = system.space
    a2 = tuple(
        x.edge_value(space.act(u, lam), space.act(v, lam)) for (u, v) in system.nerve.edges
    )
    phi2 = tuple(
        tuple(x.phi[t][space.act(v, lam)] for v in range(system.nerve.n_vertices))
        for t in system.gamma.elements()
    )
    return TwistedOneCocycle(system, a2, phi2)


def gauge_reduced(x: TwistedOneCocycle, h: Sequence[int], lam: int) -> TwistedOneCocycle:
    """Right action of the pair (h, lam) with lam central in the acting group."""
    gamma = x.system.gamma
    if any(gamma.mul[lam][t] != gamma.mul[t][lam] for t in gamma.elements()):
        raise NotCentral(lam)
    space = x.system.space
    h_lam = tuple(h[space.act(v, lam)] for v in range(x.system.nerve.n_vertices))
    return gauge(pullback(x, lam), h_lam)


# ---------------------------------------------------------------------------
# H^0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class H0Group:
    """Equivariant locally constant functions, with pointwise group law."""

    system: CechSystem
    group: FiniteGroup
    functions: tuple[tuple[int, ...], ...]  # element -> vertex value table

    def index_of(self, func: Sequence[int]) -> int:
        return self.functions.index(tuple(func))


def h0_twisted(system: CechSystem) -> H0Group:
    """Solutions of h(v . t) == theta_t^-1(h(v)), constant on components."""
    space = system.space
    k = system.coeff
    comps = system.nerve.components()
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    comp_act = {
        (ci, t): comp_of[space.act(comps[ci][0], t)]
        for ci in range(len(comps))
        for t in system.gamma.elements()
    }
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for ci in range(len(comps)):
        if ci in seen:
            continue
        orb = sorted({comp_act[(ci, t)] for t in system.gamma.elements()})
        seen.update(orb)
        orbits.append(orb)

    functions = []
    choices = []
    for orb in orbits:
        rep = orb[0]
        stab = [t for t in system.gamma.elements() if comp_act[(rep, t)] == rep]
        fixed = [z for z in k.elements() if all(system.theta_inv(t, z) == z for t in stab)]
        choices.append((rep, fixed))
    for combo in itertools.product(*(fixed for (_, fixed) in choices)):
        values = [0] * system.nerve.n_vertices
        for (rep, _), z in zip(choices, combo):
            for t in system.gamma.elements():
                target = comp_act[(rep, t)]
                val = system.theta_inv(t, z)
                for v in comps[target]:
                    values[v] = val
        functions.append(tuple(values))
    functions = sorted(set(functions))
    index = {f: i for i, f in enumerate(functions)}
    n = len(functions)
    mul = tuple(
        tuple(index[tuple(k.mul[x][y] for x, y in zip(f, g))] for g in functions) for f in functions
    )
    inv = tuple(index[tuple(k.inv[x] for x in f)] for f in functions)
    grp = FiniteGroup(n, mul, inv, label=f"H0({system.coeff.label or '?'})")
    return H0Group(system, grp, tuple(functions))


# ---------------------------------------------------------------------------
# H^1 enumeration
# ---------------------------------------------------------------------------


@dataclass
class CohomologySet:
    """Gauge-orbit representatives with a membership map.

    ``reps`` are canonical serialized cocycles in a stable order; ``lookup``
    sends every tree-normalized serialization of a class to its index, so
    class_of sends any cocycle of the same system to its class index.
    """

    system: CechSystem
    reps: list
    lookup: dict

    def __len__(self) -> int:
        return len(self.reps)

    def class_of(self, x: TwistedOneCocycle) -> int:
        key = _tree_normalize(x).serial()
        if key not in self.lookup:
            raise InputError("cocycle does not belong to any enumerated class")
        return self.lookup[key]

    def representative(self, class_id: int) -> TwistedOneCocycle:
        a, phi = self.reps[class_id]
        return TwistedOneCocycle(self.system, a, phi)


def orbit_closures(items: Iterable[Hashable], moves: Callable[[Hashable], Iterable[Hashable]]) -> list[set]:
    """Closures of ``items`` under ``moves``, in the order of their first item.

    An item already reached from an earlier one starts no closure of its own.
    """
    seen: set = set()
    out: list[set] = []
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
        out.append(orbit)
    return out


def _tree_normalize(x: TwistedOneCocycle) -> TwistedOneCocycle:
    """Gauge making the spanning-forest edges carry the identity."""
    return gauge(x, tree_gauge(x.system.nerve, x.system.coeff, x.edge_value))


def _constant_gauges(system: CechSystem) -> list[tuple[int, ...]]:
    comps = system.nerve.components()
    out = []
    for combo in itertools.product(system.coeff.elements(), repeat=len(comps)):
        values = [0] * system.nerve.n_vertices
        for comp, z in zip(comps, combo):
            for v in comp:
                values[v] = z
        out.append(tuple(values))
    return out


def canonical_form(x: TwistedOneCocycle) -> tuple:
    """Class invariant: minimum serialization over the residual gauge orbit."""
    x0 = _tree_normalize(x)
    return min(gauge(x0, h).serial() for h in _constant_gauges(x.system))


def _central_elements(gamma: FiniteGroup) -> list[int]:
    return [t for t in gamma.elements() if all(gamma.mul[t][s] == gamma.mul[s][t] for s in gamma.elements())]


def _edge_solutions(system: CechSystem, tree: Iterable[Simplex]) -> Iterable[list[int]]:
    """Edge values with the forest at the identity and a_ij a_jk == a_ik on triangles.

    Depth-first search with an explicit stack: branch on the first unassigned
    edge in ``nerve.edges`` order, values ascending, and after each assignment
    run the triangles to a fixed point (two known edges fix the third, three
    that disagree prune the branch).  Two solutions first differ at the edge
    some node branched on, so solutions come out in lexicographic order.
    """
    nerve = system.nerve
    mul, inv = system.coeff.mul, system.coeff.inv
    idx = nerve.edge_index
    touching: list[list[tuple[int, int, int]]] = [[] for _ in nerve.edges]
    for (i, j, x) in nerve.triangles:
        tri = (idx[(i, j)], idx[(j, x)], idx[(i, x)])
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

    start = [-1] * len(nerve.edges)
    forest = [idx[e] for e in tree]
    for e in forest:
        start[e] = 0
    if not propagate(start, forest):
        return
    stack = [(start, 0)]
    while stack:
        a, pos = stack.pop()
        while pos < len(a) and a[pos] >= 0:
            pos += 1
        if pos == len(a):
            yield a
            continue
        for val in reversed(system.coeff.elements()):
            child = a.copy()
            child[pos] = val
            if propagate(child, [pos]):
                stack.append((child, pos + 1))


def enumerate_cocycles(system: CechSystem, *, budget: int = DEFAULT_ENUM_BUDGET) -> list[TwistedOneCocycle]:
    """All tree-normalized twisted cocycles.

    The edge part comes from ``_edge_solutions``; per edge solution the free
    coordinates are, per acting-group generator and nerve component, the
    vertex function at the component root.  Everything else is
    reconstructed and the result validated, so the list is exactly the
    tree-normalized slice of the cocycle set, ordered by edge part and then
    by root values.  ``budget`` bounds the candidates walked (edge solutions
    times root choices); passing it raises ``BudgetExceeded`` at once.
    """
    nerve = system.nerve
    gamma = system.gamma
    k = system.coeff
    space = system.space
    parent, tree = nerve.spanning_forest()
    comps = nerve.components()
    gens = gamma.generating_sequence()
    comp_roots = [c[0] for c in comps]

    # words expressing every group element as a product of generators
    words: dict[int, tuple[int, ...]] = {0: ()}
    frontier = [0]
    while frontier:
        t = frontier.pop(0)
        for g in gens:
            nxt = gamma.mul[t][g]
            if nxt not in words:
                words[nxt] = words[t] + (g,)
                frontier.append(nxt)

    out: list[TwistedOneCocycle] = []
    n_vertices = nerve.n_vertices
    walked = 0
    for a in _edge_solutions(system, tree):
        for phi_combo in itertools.product(k.elements(), repeat=len(gens) * len(comps)):
            walked += 1
            if walked > budget:
                raise BudgetExceeded(f"enumeration walked more than {budget} candidates (edge solutions x root choices)")
            phi_gen: dict[int, list[int]] = {}
            feasible = True
            for gi, g in enumerate(gens):
                row = [0] * n_vertices
                for ci in range(len(comps)):
                    row[comp_roots[ci]] = phi_combo[gi * len(comps) + ci]
                # propagate along the forest: phi_{t,j} = a^t_ij^-1 phi_{t,i} theta_t^-1(a_ij)
                for v, p in parent.items():
                    if p is None:
                        continue
                    pulled = edge_value(system, a, space.act(p, g), space.act(v, g))
                    row[v] = k.mul[k.mul[k.inv[pulled]][row[p]]][
                        system.theta_inv(g, edge_value(system, a, p, v))
                    ]
                phi_gen[g] = row
            # assemble phi for every element along its generator word
            phi_rows: dict[int, list[int]] = {0: [0] * n_vertices}
            for t in sorted(words, key=lambda s: len(words[s])):
                if t in phi_rows:
                    continue
                *prefix, g = words[t]
                t_prev = 0
                for s in prefix:
                    t_prev = gamma.mul[t_prev][s]
                prev_row = phi_rows[t_prev]
                grow = phi_gen[g]
                prod = gamma.mul[t_prev][g]
                if prod != t:
                    feasible = False
                    break
                row = []
                for v in range(n_vertices):
                    # phi_{t_prev g, v} from the vertex condition
                    val = k.mul[
                        k.mul[grow[space.act(v, t_prev)]][system.theta_inv(g, prev_row[v])]
                    ][k.inv[system.theta_inv(prod, system.c(t_prev, g))]]
                    row.append(val)
                phi_rows[t] = row
            if not feasible:
                continue
            phi = tuple(tuple(phi_rows[t]) for t in gamma.elements())
            ok, _ = is_twisted_cocycle(system, a, phi)
            if ok:
                out.append(TwistedOneCocycle(system, tuple(a), phi))
    return out


def h1_twisted(system: CechSystem, *, budget: int = DEFAULT_ENUM_BUDGET) -> CohomologySet:
    """Gauge classes of twisted cocycles as a cohomology set."""
    cocycles = enumerate_cocycles(system, budget=budget)
    gauges = _constant_gauges(system)
    seen: set[tuple] = set()
    orbits: list[set[tuple]] = []
    for x in cocycles:
        if x.serial() in seen:
            continue
        orbit = {gauge(x, h).serial() for h in gauges}
        seen |= orbit
        orbits.append(orbit)
    # class ids follow the minimal serialization of each orbit
    orbits.sort(key=min)
    reps = [min(orbit) for orbit in orbits]
    lookup = {s: cid for cid, orbit in enumerate(orbits) for s in orbit}
    return CohomologySet(system, reps, lookup)


def h1_reduced(h1: CohomologySet) -> CohomologySet:
    """Classes of a twisted H^1 set identified along central covering translations."""
    centrals = _central_elements(h1.system.gamma)

    def translates(cid: int) -> list[int]:
        x = h1.representative(cid)
        return [h1.class_of(pullback(x, lam)) for lam in centrals]

    # class ids ascend with their representatives, so walking them in order
    # lists the orbits by their minimal representative
    groups = orbit_closures(range(len(h1)), translates)
    reduced_of = {cid: gid for gid, members in enumerate(groups) for cid in members}
    reps = [h1.reps[min(members)] for members in groups]
    return CohomologySet(h1.system, reps, {s: reduced_of[cid] for s, cid in h1.lookup.items()})


# ---------------------------------------------------------------------------
# Abelian coefficients: coordinates, d2, second cohomology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZCochainSpace:
    """Coordinates for Z-valued (u, v, w) triples and (a, phi) pairs."""

    system: CechSystem
    coords: AbelianCoords
    # slot layouts: lists of keys in storage order
    pair_keys: tuple  # ("a", edge) and ("phi", t, vertex)
    triple_keys: tuple  # ("u", tri), ("v", t, edge), ("w", t1, t2, vertex)
    out_keys: tuple  # d2 outputs

    def pair_mods(self) -> tuple[int, ...]:
        return tuple(m for _ in self.pair_keys for m in self.coords.moduli)

    def triple_mods(self) -> tuple[int, ...]:
        return tuple(m for _ in self.triple_keys for m in self.coords.moduli)

    def out_mods(self) -> tuple[int, ...]:
        return tuple(m for _ in self.out_keys for m in self.coords.moduli)


def zspace(system: CechSystem) -> ZCochainSpace:
    if not system.coeff.is_abelian():
        raise InputError("abelian machinery requires abelian coefficients")
    coords = abelian_coordinates(system.coeff)
    nerve = system.nerve
    gamma = system.gamma
    nontriv = [t for t in gamma.elements() if t != 0]
    pair_keys = tuple(("a", e) for e in nerve.edges) + tuple(
        ("phi", t, v) for t in nontriv for v in range(nerve.n_vertices)
    )
    triple_keys = (
        tuple(("u", s) for s in nerve.triangles)
        + tuple(("v", t, e) for t in nontriv for e in nerve.edges)
        + tuple(("w", t1, t2, v) for t1 in nontriv for t2 in nontriv for v in range(nerve.n_vertices))
    )
    out_keys = (
        tuple(("c1", s) for s in nerve.tetrahedra)
        + tuple(("c2", t, s) for t in nontriv for s in nerve.triangles)
        + tuple(("c3", t1, t2, e) for t1 in nontriv for t2 in nontriv for e in nerve.edges)
        + tuple(
            ("c4", t1, t2, t3, v)
            for t1 in nontriv
            for t2 in nontriv
            for t3 in nontriv
            for v in range(nerve.n_vertices)
        )
    )
    return ZCochainSpace(system, coords, pair_keys, triple_keys, out_keys)


class ZTriple:
    """Z-valued (u, v, w) with normalized access (identity slots read 0)."""

    def __init__(self, system: CechSystem, u: dict, v: dict, w: dict):
        self.system = system
        self.u = u
        self.v = v
        self.w = w

    def u_get(self, i: int, j: int, k: int) -> int:
        verts = (i, j, k)
        key = tuple(sorted(verts))
        if len(set(verts)) != 3:
            raise InputError("degenerate triangle index")
        val = self.u.get(key, 0)
        if _perm_sign(verts) < 0:
            val = self.system.coeff.inv[val]
        return val

    def v_get(self, t: int, i: int, j: int) -> int:
        if t == 0:
            return 0
        key = (min(i, j), max(i, j))
        val = self.v.get((t, key), 0)
        if i > j:
            val = self.system.coeff.inv[val]
        return val

    def w_get(self, t1: int, t2: int, vertex: int) -> int:
        if t1 == 0 or t2 == 0:
            return 0
        row = self.w.get((t1, t2))
        return 0 if row is None else row[vertex]


def _perm_sign(seq: Sequence[int]) -> int:
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def d2(triple: ZTriple) -> tuple[dict, dict, dict, dict]:
    """The four obstruction components of an abelian (u, v, w) triple."""
    system = triple.system
    k = system.coeff
    gamma = system.gamma
    space = system.space
    mul, inv = k.mul, k.inv
    nontriv = [t for t in gamma.elements() if t != 0]

    c1 = {}
    for (i, j, x, l) in system.nerve.tetrahedra:
        val = mul[
            mul[triple.u_get(i, j, x)][triple.u_get(i, x, l)]
        ][inv[mul[triple.u_get(i, j, l)][triple.u_get(j, x, l)]]]
        c1[(i, j, x, l)] = val

    c2 = {}
    for t in nontriv:
        for (i, j, x) in system.nerve.triangles:
            pulled = triple.u_get(space.act(i, t), space.act(j, t), space.act(x, t))
            val = mul[
                mul[inv[pulled]][system.theta_inv(t, triple.u_get(i, j, x))]
            ][
                mul[mul[triple.v_get(t, i, j)][triple.v_get(t, j, x)]][inv[triple.v_get(t, i, x)]]
            ]
            c2[(t, (i, j, x))] = val

    c3 = {}
    for t in nontriv:
        for t2 in nontriv:
            prod = gamma.mul[t2][t]
            for (i, j) in system.nerve.edges:
                pulled = triple.v_get(t, space.act(i, t2), space.act(j, t2))
                val = mul[
                    mul[mul[pulled][system.theta_inv(t, triple.v_get(t2, i, j))]][
                        inv[triple.v_get(prod, i, j)]
                    ]
                ][mul[triple.w_get(t, t2, i)][inv[triple.w_get(t, t2, j)]]]
                c3[(t, t2, (i, j))] = val

    c4 = {}
    for t in nontriv:
        for t2 in nontriv:
            for t3 in nontriv:
                k32 = gamma.mul[t3][t2]
                k21 = gamma.mul[t2][t]
                row = []
                for v in range(system.nerve.n_vertices):
                    val = mul[
                        mul[system.theta_inv(t, triple.w_get(t2, t3, v))][triple.w_get(t, k32, v)]
                    ][
                        inv[
                            mul[triple.w_get(k21, t3, v)][
                                triple.w_get(t, t2, space.act(v, t3))
                            ]
                        ]
                    ]
                    row.append(val)
                c4[(t, t2, t3)] = tuple(row)
    return c1, c2, c3, c4


def theta_inv_twist_triple(system: CechSystem) -> ZTriple:
    """(1, 1, theta^-1(c)) as an abelian triple (c read in the coefficients)."""
    gamma = system.gamma
    n = system.nerve.n_vertices
    w = {}
    for t in gamma.elements():
        for t2 in gamma.elements():
            if t == 0 or t2 == 0:
                continue
            prod = gamma.mul[t2][t]
            val = system.theta_inv(prod, system.c(t2, t))
            w[(t, t2)] = tuple(val for _ in range(n))
    return ZTriple(system, {}, {}, w)


def triple_to_vector(space_z: ZCochainSpace, triple: ZTriple) -> tuple[int, ...]:
    co = space_z.coords
    out = []
    for key in space_z.triple_keys:
        if key[0] == "u":
            val = triple.u.get(key[1], 0)
        elif key[0] == "v":
            val = triple.v.get((key[1], key[2]), 0)
        else:
            row = triple.w.get((key[1], key[2]))
            val = 0 if row is None else row[key[3]]
        out.extend(co.vec_of[val])
    return tuple(out)


def vector_to_triple(space_z: ZCochainSpace, vec: Sequence[int]) -> ZTriple:
    co = space_z.coords
    r = len(co.moduli)
    u: dict = {}
    v: dict = {}
    w: dict = {}
    n = space_z.system.nerve.n_vertices
    for idx, key in enumerate(space_z.triple_keys):
        val = co.element(vec[idx * r : (idx + 1) * r])
        if key[0] == "u":
            u[key[1]] = val
        elif key[0] == "v":
            v[(key[1], key[2])] = val
        else:
            row = list(w.get((key[1], key[2]), (0,) * n))
            row[key[3]] = val
            w[(key[1], key[2])] = tuple(row)
    return ZTriple(space_z.system, u, v, w)


def d2_out_vector(space_z: ZCochainSpace, parts: tuple[dict, dict, dict, dict]) -> tuple[int, ...]:
    co = space_z.coords
    c1, c2, c3, c4 = parts
    out = []
    for key in space_z.out_keys:
        tag = key[0]
        if tag == "c1":
            val = c1[key[1]]
        elif tag == "c2":
            val = c2[(key[1], key[2])]
        elif tag == "c3":
            val = c3[(key[1], key[2], key[3])]
        else:
            val = c4[(key[1], key[2], key[3])][key[4]]
        out.extend(co.vec_of[val])
    return tuple(out)


def vector_to_pair(space_z: ZCochainSpace, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    co = space_z.coords
    r = len(co.moduli)
    system = space_z.system
    a = [0] * len(system.nerve.edges)
    phi = [[0] * system.nerve.n_vertices for _ in system.gamma.elements()]
    edge_pos = system.nerve.edge_index
    for idx, key in enumerate(space_z.pair_keys):
        val = co.element(vec[idx * r : (idx + 1) * r])
        if key[0] == "a":
            a[edge_pos[key[1]]] = val
        else:
            phi[key[1]][key[2]] = val
    return tuple(a), tuple(tuple(row) for row in phi)


@dataclass
class AbelianComplex:
    """Integer-matrix forms of d1 and d2 over abelian coefficients."""

    space_z: ZCochainSpace
    d1_hom: ZHom
    d2_hom: ZHom

    def d1_vector(self, pair_vec: Sequence[int]) -> tuple[int, ...]:
        return self.d1_hom.apply(pair_vec)

    def in_kernel_d2(self, triple_vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.d2_hom.apply(triple_vec))


def abelian_complex(system: CechSystem, *, coord_guard: int = DEFAULT_COORD_GUARD) -> AbelianComplex:
    """Assemble d1 and d2 as integer matrices by probing unit cochains.

    Both maps are homomorphisms for abelian coefficients, so the columns at
    the coordinate unit vectors determine them.  Refuses when the cochain
    spaces outgrow the exact-linear-algebra guard.
    """
    space_z = zspace(system)
    n_coords = len(space_z.triple_mods())
    if n_coords > coord_guard:
        raise BudgetExceeded(
            f"abelian cochain space has {n_coords} coordinates, guard {coord_guard}"
        )
    co = space_z.coords
    r = len(co.moduli)
    pair_mods = space_z.pair_mods()
    triple_mods = space_z.triple_mods()
    out_mods = space_z.out_mods()
    triv = system_with_trivial_twist(system)

    d1_cols = []
    for idx in range(len(pair_mods)):
        vec = [0] * len(pair_mods)
        vec[idx] = 1
        a, phi = vector_to_pair(space_z, vec)
        tri_part, edge_part, pair_part = d1(triv, a, phi)
        triple = ZTriple(
            system,
            dict(tri_part),
            {key: val for key, val in edge_part.items()},
            {key: row for key, row in pair_part.items()},
        )
        d1_cols.append(triple_to_vector(space_z, triple))
    d1_hom = hom_from_columns(d1_cols, pair_mods, triple_mods)

    d2_cols = []
    for idx in range(len(triple_mods)):
        vec = [0] * len(triple_mods)
        vec[idx] = 1
        triple = vector_to_triple(space_z, vec)
        d2_cols.append(d2_out_vector(space_z, d2(triple)))
    d2_hom = hom_from_columns(d2_cols, triple_mods, out_mods)
    return AbelianComplex(space_z, d1_hom, d2_hom)


@dataclass
class H2Classes:
    """Second cohomology: kernel of d2 modulo the image of abelian d1."""

    complex: AbelianComplex
    labels: object  # QuotientLabels over the triple space
    size: int
    kernel: dict  # every vector of ker d2, in sorted order, to its coset label
    reps: list
    _label_to_id: dict

    def label_of_vector(self, vec: Sequence[int]) -> tuple:
        if not self.complex.in_kernel_d2(vec):
            raise InputError("triple is not in the kernel of d2")
        return self.labels.label(vec)

    def class_id(self, vec: Sequence[int]) -> int:
        return self._label_to_id[self.label_of_vector(vec)]


def h2_classes(system: CechSystem, *, budget: int = DEFAULT_ENUM_BUDGET) -> H2Classes:
    cx = abelian_complex(system)
    triple_mods = cx.space_z.triple_mods()
    labels = h2_coset_labels(cx)
    ker_gens = kernel_generators(cx.d2_hom)
    ker_size = subgroup_size(triple_mods, ker_gens)
    # the label Smith form already has the quotient by B^2 on its diagonal
    b_size = math.prod(triple_mods) // math.prod(labels.diag)
    size = ker_size // b_size
    if ker_size > budget:
        raise BudgetExceeded(f"kernel of d2 has {ker_size} elements, budget {budget}")
    kernel = {vec: labels.label(vec) for vec in enumerate_subgroup(triple_mods, ker_gens, budget=budget)}
    classes: dict[tuple, tuple] = {}
    # vectors come sorted, so the first met of each label is its minimum
    for vec, lab in kernel.items():
        classes.setdefault(lab, vec)
    reps = sorted(classes.values())
    if len(reps) != size:
        raise InternalError(f"H2 class count mismatch: listed {len(reps)}, index formula {size}")
    return H2Classes(cx, labels, size, kernel, reps, {kernel[v]: i for i, v in enumerate(reps)})


def z2_membership(system: CechSystem, triple: ZTriple) -> tuple[bool, Optional[tuple]]:
    """Kernel-of-d2 membership with the first violated component as witness."""
    c1, c2, c3, c4 = d2(triple)
    for tag, part in (("c1", c1), ("c2", c2), ("c3", c3)):
        for key, val in part.items():
            if val != 0:
                return False, (tag, key, val)
    for key, row in c4.items():
        for v, val in enumerate(row):
            if val != 0:
                return False, ("c4", key + (v,), val)
    return True, None


# ---------------------------------------------------------------------------
# The coefficient ladder Z -> G -> G/Z and its coboundary maps
# ---------------------------------------------------------------------------


@dataclass
class CoefficientLadder:
    """Systems for G, its centre and the central quotient over one space.

    The G and Z systems carry the trivial twist (the twisted variant enters
    only through the distinguished target of the last coboundary); the
    quotient system is honestly untwisted since central values project to 1.
    The cohomology of the ladder is computed on first use and kept, so every
    check on one space and data reads the same sets.
    """

    space: GammaNerve
    data: TwistedData
    sys_g: CechSystem
    sys_z: CechSystem
    sys_q: CechSystem
    zsub: Subgroup
    quotient: FiniteGroup
    proj: GroupHom
    lift_table: tuple[int, ...]  # quotient element -> minimal lift in G
    budget: int  # bound on each H^1 enumeration

    def lift(self, q_elem: int) -> int:
        return self.lift_table[q_elem]

    @cached_property
    def sys_c(self) -> CechSystem:
        """The G system carrying the twist c of the data."""
        return system_from_data(self.space, self.data)

    @cached_property
    def h0z(self) -> H0Group:
        return h0_twisted(self.sys_z)

    @cached_property
    def h0g(self) -> H0Group:
        return h0_twisted(self.sys_g)

    @cached_property
    def h0q(self) -> H0Group:
        return h0_twisted(self.sys_q)

    @cached_property
    def h1z(self) -> CohomologySet:
        return h1_twisted(self.sys_z, budget=self.budget)

    @cached_property
    def h1g(self) -> CohomologySet:
        return h1_twisted(self.sys_g, budget=self.budget)

    @cached_property
    def h1q(self) -> CohomologySet:
        return h1_twisted(self.sys_q, budget=self.budget)

    @cached_property
    def h1c(self) -> CohomologySet:
        return h1_twisted(self.sys_c, budget=self.budget)

    @cached_property
    def cx(self) -> AbelianComplex:
        return abelian_complex(self.sys_z)

    @cached_property
    def labels(self) -> QuotientLabels:
        return h2_coset_labels(self.cx)

    @cached_property
    def target(self) -> tuple[int, ...]:
        """The twist triple (1, 1, theta^-1(c)) as a centre triple vector."""
        vec = triple_to_vector(self.cx.space_z, theta_inv_twist_triple(_z_twisted_view(self)))
        if not self.cx.in_kernel_d2(vec):
            raise InternalError("twist triple is not d2-closed")
        return vec


def coefficient_ladder(
    space: GammaNerve, data: TwistedData, *, budget: int = DEFAULT_ENUM_BUDGET
) -> CoefficientLadder:
    """The ladder Z -> G -> G/Z of the data over a space, nothing computed yet.

    ``budget`` bounds each H^1 enumeration the ladder makes on first use.
    """
    g = data.g
    zsub = center(g)
    q, proj = quotient_group(g, zsub.embed, label=f"{g.label or 'G'}/Z")

    sys_g = CechSystem(space, g, data.action, trivial_cocycle(data.action))

    z_action = restrict_to_subgroup(data, zsub).action
    sys_z = CechSystem(space, zsub.group, z_action, trivial_cocycle(z_action))

    q_tables = []
    for t in data.gamma.elements():
        row = [0] * q.order
        for x in g.elements():
            row[proj.map[x]] = proj.map[data.theta(t, x)]
        q_tables.append(tuple(row))
    q_action = check_gamma_action(data.gamma, q, q_tables)
    sys_q = CechSystem(space, q, q_action, trivial_cocycle(q_action))

    lift = [None] * q.order
    for x in g.elements():
        img = proj.map[x]
        if lift[img] is None:
            lift[img] = x
    return CoefficientLadder(space, data, sys_g, sys_z, sys_q, zsub, q, proj, tuple(lift), budget)


def include_z_cocycle(ladder: CoefficientLadder, x: TwistedOneCocycle) -> TwistedOneCocycle:
    emb = ladder.zsub.embed
    a = tuple(emb[v] for v in x.a)
    phi = tuple(tuple(emb[v] for v in row) for row in x.phi)
    return make_cocycle(ladder.sys_g, a, phi)


def project_g_cocycle(ladder: CoefficientLadder, x: TwistedOneCocycle) -> TwistedOneCocycle:
    pr = ladder.proj.map
    a = tuple(pr[v] for v in x.a)
    phi = tuple(tuple(pr[v] for v in row) for row in x.phi)
    return make_cocycle(ladder.sys_q, a, phi)


def _lift_pair(
    ladder: CoefficientLadder,
    x: TwistedOneCocycle,
    lift_choice: Optional[Callable[[int], int]] = None,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A coset-wise lift of a quotient-valued pair to G-valued tables.

    The identity coset lifts to the identity so phi[1] stays normalized.
    """
    pick = lift_choice or ladder.lift
    a = tuple(0 if v == 0 else pick(v) for v in x.a)
    phi = tuple(tuple(0 if v == 0 else pick(v) for v in row) for row in x.phi)
    return a, phi


def act_h1z_by_h0q(
    ladder: CoefficientLadder,
    x: TwistedOneCocycle,
    qbar: Sequence[int],
    *,
    lifts: Optional[Sequence[int]] = None,
    flip: bool = False,
) -> TwistedOneCocycle:
    """Right action of an equivariant quotient-valued function on H^1(Z).

    The function is lifted vertex-wise to G, the G-valued gauge formula is
    applied to the centre-valued pair, and the result is read back in the
    centre; the class is independent of the lift.  ``flip`` is fault
    injection for harness self-tests: it gauges by the pointwise-inverse
    lift, which is the gauge formula with its handedness swapped.
    """
    g = ladder.data.g
    if lifts is None:
        h = tuple(ladder.lift(qbar[v]) for v in range(ladder.space.nerve.n_vertices))
    else:
        h = tuple(lifts)
        for v, lifted in enumerate(h):
            if ladder.proj.map[lifted] != qbar[v]:
                raise InputError("provided lift does not project to the given function")
    if flip:
        h = tuple(g.inv[v] for v in h)
    moved = gauge(include_z_cocycle(ladder, x), h)
    back = ladder.zsub.parent_to_sub
    try:
        az = tuple(back[v] for v in moved.a)
        pz = tuple(tuple(back[v] for v in row) for row in moved.phi)
    except KeyError as exc:
        raise InternalError("gauged centre-valued pair left the centre") from exc
    return make_cocycle(ladder.sys_z, az, pz)


def delta_h0(
    ladder: CoefficientLadder, qbar: Sequence[int], *, lifts: Optional[Sequence[int]] = None, flip: bool = False
) -> TwistedOneCocycle:
    """Coboundary of an equivariant quotient-valued function.

    This is its action on the trivial centre-valued class.
    """
    ta, tphi = trivial_pair(ladder.sys_z)
    triv = TwistedOneCocycle(ladder.sys_z, ta, tphi)
    return act_h1z_by_h0q(ladder, triv, qbar, lifts=lifts, flip=flip)


def delta_h1_vector(
    ladder: CoefficientLadder,
    x: TwistedOneCocycle,
    *,
    lift_choice: Optional[Callable[[int], int]] = None,
    flip: bool = False,
) -> tuple[int, ...]:
    """d1 of a G-valued lift of a quotient cocycle, as a centre triple vector."""
    a, phi = _lift_pair(ladder, x, lift_choice)
    if flip:
        a = tuple(ladder.data.g.inv[v] for v in a)
    tri_part, edge_part, pair_part = d1(ladder.sys_g, a, phi)
    back = ladder.zsub.parent_to_sub
    try:
        u = {key: back[val] for key, val in tri_part.items()}
        v = {key: back[val] for key, val in edge_part.items()}
        w = {key: tuple(back[t] for t in row) for key, row in pair_part.items()}
    except KeyError as exc:
        raise InternalError("obstruction of a quotient-cocycle lift escaped the centre") from exc
    vec = triple_to_vector(ladder.cx.space_z, ZTriple(ladder.sys_z, u, v, w))
    if not ladder.cx.in_kernel_d2(vec):
        raise InternalError("lifted obstruction is not d2-closed")
    return vec


def h2_coset_labels(cx: AbelianComplex) -> QuotientLabels:
    """Stable labels for second-cohomology classes over the centre."""
    b_cols = [tuple(row[j] for row in cx.d1_hom.matrix) for j in range(len(cx.d1_hom.mods_in))]
    return quotient_labels(cx.space_z.triple_mods(), b_cols)


def delta_h1(ladder: CoefficientLadder, x: TwistedOneCocycle) -> tuple:
    """Second-cohomology class of the obstruction of a quotient-valued cocycle.

    Returned as the stable coset label of the lifted obstruction; lift and
    representative independence are theorems, exercised by the sequence
    verifier.
    """
    return ladder.labels.label(delta_h1_vector(ladder, x))


@dataclass
class CheckRecord:
    name: str
    status: str  # "pass" | "fail"
    detail: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, **self.detail}


@dataclass
class SequenceReport:
    checks: list[CheckRecord]

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, name: str, ok: bool, **detail) -> None:
        self.checks.append(CheckRecord(name, "pass" if ok else "fail", detail))


def les_verify(ladder: CoefficientLadder, *, fault: Optional[str] = None) -> SequenceReport:
    """Exactness of the seven-term coefficient sequence, orbit-strengthened.

    The sequence is the ladder's: its H^0 and H^1 sets, its abelian complex
    over the centre and its twist target.  At nodes where the previous term
    is a group the check is the sharp one: two classes have equal image
    exactly when the group action identifies them.  A node whose computation
    raises a library error is reported as a failure with the error as
    witness.  ``fault='flip-gauge'`` deliberately mis-hands the coboundary
    gauge for harness self-tests: it gauges by the pointwise inverse of the
    lift, which is the gauge formula with its handedness swapped.
    """
    flip = fault == "flip-gauge"
    report = SequenceReport([])
    h0z, h0g, h0q = ladder.h0z, ladder.h0g, ladder.h0q
    h1z, h1g, h1q = ladder.h1z, ladder.h1g, ladder.h1q

    emb = ladder.zsub.embed
    pr = ladder.proj.map

    def node(name: str, body) -> None:
        try:
            ok, detail = body()
        except TwistError as exc:
            report.add(name, False, error=str(exc))
            return
        report.add(name, ok, **detail)

    def node_h0() -> tuple[bool, dict]:
        img_h0z = {tuple(emb[x] for x in f) for f in h0z.functions}
        ker = {f for f in h0g.functions if all(pr[x] == 0 for x in f)}
        return ker == img_h0z, {"sizes": [len(ker), len(img_h0z)]}

    node("h0: ker(G->G/Z) == im(Z->G)", node_h0)

    def node_a4() -> tuple[bool, dict]:
        img_h0g = sorted({tuple(pr[x] for x in f) for f in h0g.functions})
        delta_of = {f: h1z.class_of(delta_h0(ladder, f, flip=flip)) for f in h0q.functions}
        for f1 in h0q.functions:
            for f2 in h0q.functions:
                same_delta = delta_of[f1] == delta_of[f2]
                same_orbit = any(
                    f2 == tuple(ladder.quotient.mul[gbar[v]][f1[v]] for v in range(len(f1)))
                    for gbar in img_h0g
                )
                if same_delta != same_orbit:
                    return False, {"witness": (f1, f2, same_delta, same_orbit)}
        return True, {"sizes": [len(h0q.functions), len(h1z)]}

    node("h0(G/Z): equal delta iff same H0(G)-orbit", node_a4)

    def node_a5() -> tuple[bool, dict]:
        to_g_class = {
            cid: h1g.class_of(include_z_cocycle(ladder, h1z.representative(cid)))
            for cid in range(len(h1z))
        }

        def moved(cid: int) -> list[int]:
            rep = h1z.representative(cid)
            return [h1z.class_of(act_h1z_by_h0q(ladder, rep, f, flip=flip)) for f in h0q.functions]

        orbits = orbit_closures(range(len(h1z)), moved)
        orbit_of = {member: oid for oid, orbit in enumerate(orbits) for member in orbit}
        ok = all(
            (to_g_class[c1] == to_g_class[c2]) == (orbit_of[c1] == orbit_of[c2])
            for c1 in range(len(h1z))
            for c2 in range(len(h1z))
        )
        return ok, {"sizes": [len(h1z), len(h1g)]}

    node("h1(Z): equal image in H1(G) iff same H0(G/Z)-orbit", node_a5)

    def node_a6() -> tuple[bool, dict]:
        to_q_class = {
            cid: h1q.class_of(project_g_cocycle(ladder, h1g.representative(cid)))
            for cid in range(len(h1g))
        }
        g = ladder.data.g
        for c1 in range(len(h1g)):
            x1 = h1g.representative(c1)
            reachable = set()
            for zid in range(len(h1z)):
                z = h1z.representative(zid)
                za = tuple(g.mul[emb[u]][v] for u, v in zip(z.a, x1.a))
                zphi = tuple(
                    tuple(g.mul[emb[u]][v] for u, v in zip(zrow, xrow))
                    for zrow, xrow in zip(z.phi, x1.phi)
                )
                reachable.add(h1g.class_of(make_cocycle(ladder.sys_g, za, zphi)))
            fibre = {c2 for c2 in range(len(h1g)) if to_q_class[c2] == to_q_class[c1]}
            if reachable != fibre:
                return False, {"witness": (c1, sorted(reachable), sorted(fibre))}
        return True, {"sizes": [len(h1g), len(h1q)]}

    node("h1(G): fibres over H1(G/Z) are H1(Z)-orbits", node_a6)

    target = ladder.target
    labels = ladder.labels

    def node_a7() -> tuple[bool, dict]:
        # delta^-1 of the twist class equals the image of twisted H1(G);
        # with a trivial twist this is exactness at H1(G/Z)
        target_label = labels.label(target)
        preimage = set()
        for cid in range(len(h1q)):
            vec = delta_h1_vector(ladder, h1q.representative(cid), flip=flip)
            if labels.label(vec) == target_label:
                preimage.add(cid)
        h1c = ladder.h1c
        image = {h1q.class_of(project_g_cocycle(ladder, h1c.representative(cid))) for cid in range(len(h1c))}
        return preimage == image, {
            "preimage": sorted(preimage),
            "image": sorted(image),
            "twisted_classes": len(h1c),
        }

    node("h1(G/Z): delta-preimage of twist class == image of twisted H1(G)", node_a7)

    def node_lift() -> tuple[bool, dict]:
        alt = _alternative_lift(ladder)
        for cid in range(len(h1q)):
            vec1 = delta_h1_vector(ladder, h1q.representative(cid))
            vec2 = delta_h1_vector(ladder, h1q.representative(cid), lift_choice=alt)
            if labels.label(vec1) != labels.label(vec2):
                return False, {"witness": cid}
        return True, {}

    node("delta_h1 independent of the chosen lift", node_lift)
    return report


def _z_twisted_view(ladder: CoefficientLadder) -> CechSystem:
    """The centre system carrying the actual twist of the data."""
    return replace(ladder.sys_z, twist=restrict_to_subgroup(ladder.data, ladder.zsub).cocycle)


def _alternative_lift(ladder: CoefficientLadder) -> Callable[[int], int]:
    table = list(ladder.lift_table)
    for q_elem in range(1, ladder.quotient.order):
        others = [x for x in ladder.data.g.elements() if ladder.proj.map[x] == q_elem and x != table[q_elem]]
        if others:
            table[q_elem] = others[0]
    return lambda q_elem: table[q_elem]


@dataclass
class ExistenceResult:
    exists: bool
    witness: Optional[TwistedOneCocycle]
    matched_quotient_class: Optional[int]


def existence_check(ladder: CoefficientLadder) -> ExistenceResult:
    """Nonemptiness of the ladder's twisted H^1 via the last coboundary map.

    The twisted set is nonempty exactly when the twist triple is the
    obstruction of some quotient-valued class; a witness cocycle is then
    assembled from the matching lift.
    """
    cx = ladder.cx
    target = ladder.target
    h1q = ladder.h1q
    g = ladder.data.g
    emb = ladder.zsub.embed
    for cid in range(len(h1q)):
        x = h1q.representative(cid)
        a, phi = _lift_pair(ladder, x)
        vec = delta_h1_vector(ladder, x)
        diff = tuple((a_ - b_) % m for a_, b_, m in zip(vec, target, cx.d1_hom.mods_out))
        correction = solve(cx.d1_hom, diff)
        if correction is None:
            continue
        za, zphi = vector_to_pair(cx.space_z, correction)
        wa = tuple(g.mul[av][g.inv[emb[zv]]] for av, zv in zip(a, za))
        wphi = tuple(
            tuple(g.mul[pv][g.inv[emb[zv]]] for pv, zv in zip(prow, zrow))
            for prow, zrow in zip(phi, zphi)
        )
        witness = make_cocycle(ladder.sys_c, wa, wphi)
        return ExistenceResult(True, witness, cid)
    return ExistenceResult(False, None, None)


# ---------------------------------------------------------------------------
# Coefficient maps, associated sections, reductions, recocycling transport
# ---------------------------------------------------------------------------


def map_coefficients(
    x: TwistedOneCocycle,
    psi: GroupHom,
    target_action: GammaAction,
) -> TwistedOneCocycle:
    """Push a twisted cocycle along an equivariant coefficient homomorphism."""
    system = x.system
    if psi.source.mul != system.coeff.mul:
        raise CarrierMismatch(message="homomorphism source differs from the coefficient group")
    for t in system.gamma.elements():
        for g_elem in system.coeff.elements():
            if target_action.apply(t, psi.map[g_elem]) != psi.map[system.theta(t, g_elem)]:
                raise NotEquivariant(t, g_elem)
    target = psi.target
    zset = set(center(target).embed)
    pushed = []
    for t1 in system.gamma.elements():
        row = []
        for t2 in system.gamma.elements():
            val = psi.map[system.c(t1, t2)]
            if val not in zset:
                raise ImageCocycleNotCentral(t1, t2)
            row.append(val)
        pushed.append(tuple(row))
    new_twist = check_cocycle(target_action, tuple(pushed))
    new_system = CechSystem(system.space, target, target_action, new_twist)
    a = tuple(psi.map[v] for v in x.a)
    phi = tuple(tuple(psi.map[v] for v in row) for row in x.phi)
    return make_cocycle(new_system, a, phi)


def sections_of_associated(e: TwistedOneCocycle, m: TwistedGSet) -> list[tuple[int, ...]]:
    """Equivariant sections of the associated set bundle of a cocycle.

    A section is one carrier point per vertex subject to the frame-change
    law m_j == m_i . a_ij on edges and the action law m_i . t ==
    m_{i.t} . phi_{t,i} at every vertex.  Left-sided sets are converted to
    their companion right action first.  The data of ``m`` must share the
    group, acting group and action with the cocycle; its own twist may be
    the same one or the trivial one (homogeneous fibres carry no twist).
    """
    system = e.system
    if m.side == "left":
        m = convert_side(m)
    md = m.data
    if md.g.mul != system.coeff.mul or md.gamma.mul != system.gamma.mul:
        raise CarrierMismatch(message="twisted set groups differ from the cocycle system")
    if tuple(a.map for a in md.action.theta) != tuple(a.map for a in system.action.theta):
        raise CarrierMismatch(message="twisted set action differs from the cocycle system")
    if md.cocycle.table != system.twist.table and not md.cocycle.is_trivial():
        raise CarrierMismatch(message="twisted set twist is neither the system twist nor trivial")

    nerve = system.nerve
    space = system.space
    parent, _ = nerve.spanning_forest()
    comps = nerve.components()
    out = []
    for combo in itertools.product(range(m.size), repeat=len(comps)):
        values = [None] * nerve.n_vertices
        for comp, start in zip(comps, combo):
            values[comp[0]] = start
        for v, p in parent.items():
            if p is not None:
                values[v] = m.g_act[e.edge_value(p, v)][values[p]]
        ok = all(
            values[v] == m.g_act[e.edge_value(u, v)][values[u]] for (u, v) in nerve.edges
        )
        if ok:
            for t in system.gamma.elements():
                if t == 0:
                    continue
                for v in range(nerve.n_vertices):
                    lhs = m.gamma_act[t][values[v]]
                    rhs = m.g_act[e.phi[t][v]][values[space.act(v, t)]]
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(tuple(values))
    return out


@dataclass
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
    system = e.system
    g = system.coeff
    sub = subgroup_from_elements(g, subgroup_elements)
    data = TwistedData(system.action, system.twist)
    sub_data = restrict_to_subgroup(data, sub)
    if sub_data is None:
        return []
    sub_system = system_from_data(system.space, sub_data)

    hom_left = homogeneous_space(data, sub.embed)
    coset_set = convert_side(hom_left)
    cosets, _ = left_cosets(g, sub.embed)
    sections = sections_of_associated(e, coset_set)

    out = []
    for sec in sections:
        lift = tuple(cosets[ci][0] for ci in sec)
        moved = gauge(e, lift)
        try:
            wa = tuple(sub.parent_to_sub[v] for v in moved.a)
            wphi = tuple(tuple(sub.parent_to_sub[v] for v in row) for row in moved.phi)
        except KeyError as exc:
            raise InternalError("section gauge failed to land in the subgroup") from exc
        out.append(Reduction(sec, lift, make_cocycle(sub_system, wa, wphi)))
    return out


def transport_cocycle(e: TwistedOneCocycle, rec: Recocycling) -> TwistedOneCocycle:
    """Re-express a twisted cocycle for a recocycled lift.

    The edge part is unchanged; the vertex functions pick up the inverse
    action of the recocycling map: phi'_{t,i} = phi_{t,i} theta_t^-1(s(t)).
    """
    system = e.system
    if rec.old.action.theta != system.action.theta or rec.old.cocycle.table != system.twist.table:
        raise CarrierMismatch(message="cocycle does not belong to the recocycling source data")
    g = system.coeff
    phi = tuple(
        tuple(g.mul[e.phi[t][v]][system.theta_inv(t, rec.s[t])] for v in range(system.nerve.n_vertices))
        for t in system.gamma.elements()
    )
    new_system = system_from_data(system.space, rec.new)
    return make_cocycle(new_system, e.a, phi)
