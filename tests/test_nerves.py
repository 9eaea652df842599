"""Nerves, simplicial actions, covers and monodromy."""

import itertools
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcech.correspond import plain_system
from twistcech.errors import Disconnected, InputError, NotGoodCover, NotSimplicial
from twistcech.fixtures import GAMMA_NERVES, NERVES, gamma_nerve, group, nerve
from twistcech.nerves import (
    MAX_DIM,
    GammaNerve,
    Nerve,
    build_cover,
    forest_functions,
    monodromy,
    quotient,
    validate_gamma_nerve,
    validate_nerve,
)

C2, C4 = group("C2"), group("C4")
Y_TRI = nerve("Y_TRI")
X_HEX = gamma_nerve("X_HEX")


def equivariant_isomorphism(a: GammaNerve, b: GammaNerve) -> Optional[tuple[int, ...]]:
    """Oracle: a vertex bijection intertwining the actions and simplices, or None.

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


def test_validate_nerve_closure():
    n = validate_nerve(3, [(0, 1, 2)])
    assert n.edges == ((0, 1), (0, 2), (1, 2))
    assert n.triangles == ((0, 1, 2),)
    assert Y_TRI.triangles == ()
    assert Y_TRI.is_connected()


def test_validate_nerve_rejects_degenerate():
    with pytest.raises(InputError):
        validate_nerve(3, [(0, 0, 1)])
    with pytest.raises(InputError):
        validate_nerve(2, [(0, 3)])


def test_hex_action_is_free():
    assert X_HEX.free
    assert X_HEX.vertex_orbits() == [(0, 3), (1, 4), (2, 5)]


def test_wrong_period_action_rejected():
    shift2 = tuple((v + 2) % 6 for v in range(6))
    with pytest.raises(InputError):
        validate_gamma_nerve(nerve("X_HEX_NERVE"), C2, (tuple(range(6)), shift2))


def test_non_simplicial_action_rejected():
    y = validate_nerve(4, [(0, 1), (1, 2), (2, 3)])
    perm = (1, 0, 2, 3)
    with pytest.raises(NotSimplicial):
        validate_gamma_nerve(y, C2, (tuple(range(4)), perm))


def test_monodromy_disconnected_raises():
    two = validate_nerve(4, [(0, 1), (2, 3)])
    _, desc = build_cover(two, C2, (1, 0))
    with pytest.raises(Disconnected):
        monodromy(desc)


def test_quotient_hex():
    desc = quotient(X_HEX)
    assert desc.downstairs.n_vertices == 3
    assert desc.downstairs.edges == Y_TRI.edges
    assert desc.section == (0, 1, 2)
    assert desc.transition(0, 1) == 0
    assert desc.transition(1, 2) == 0
    assert desc.transition(0, 2) == 1


def test_quotient_trivial_group():
    from twistcech.nerves import trivial_gamma_nerve

    x = trivial_gamma_nerve(Y_TRI, group("C1"))
    desc = quotient(x)
    assert desc.downstairs == Y_TRI
    assert all(v == 0 for v in desc.transitions.values())


def test_quotient_two_triangles():
    x = gamma_nerve("X_TWO_TRI")
    desc = quotient(x)
    assert desc.downstairs.n_vertices == 3
    assert desc.downstairs.triangles == ((0, 1, 2),)
    assert all(v == 0 for v in desc.transitions.values())


def test_quotient_rejects_small_cycles():
    # the square with the antipodal flip is free but the edge fibres split
    # into two orbits, so no descent data exists
    sq = validate_nerve(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    x = validate_gamma_nerve(sq, C2, (tuple(range(4)), (2, 3, 0, 1)))
    assert x.free
    with pytest.raises(NotGoodCover):
        quotient(x)


def test_monodromy_of_hex():
    # the tree edges (0,1) and (0,2) carry the identity, the closing edge the flip
    desc = quotient(X_HEX)
    assert monodromy(desc) == (0, 0, 1)


def test_monodromy_trivial_cover():
    cover, desc = build_cover(Y_TRI, C2, (0, 0, 0))
    assert len(cover.nerve.components()) == 2  # index of the image
    assert monodromy(desc) == (0, 0, 0)


def test_monodromy_two_triangles_swap():
    desc = quotient(gamma_nerve("X_TWO_TRI"))
    assert monodromy(desc) == (0, 0, 0)
    # cover disconnected exactly because the monodromy is not surjective
    assert len(gamma_nerve("X_TWO_TRI").nerve.components()) == 2


def test_monodromy_gauges_the_transitions_along_the_tree():
    # the section (3, 1, 2) moves the flip onto the tree edge (0, 1)
    desc = quotient(X_HEX, section=(3, 1, 2))
    assert [desc.transition(i, j) for i, j in Y_TRI.edges] == [1, 0, 0]
    assert monodromy(desc) == (0, 0, 1)


def test_build_cover_hex():
    cover, desc = build_cover(Y_TRI, C2, (0, 0, 1))
    assert cover.nerve.n_vertices == 6
    assert len(cover.nerve.components()) == 1
    assert equivariant_isomorphism(cover, X_HEX) is not None


def test_build_cover_c4_generator():
    cover, desc = build_cover(Y_TRI, C4, (0, 0, 1))
    assert cover.nerve.n_vertices == 12
    assert len(cover.nerve.components()) == 1
    assert len(cover.nerve.edges) == 12
    assert equivariant_isomorphism(cover, gamma_nerve("X_DODEC")) is not None


def test_build_cover_components_match_index():
    for image_gen in C4.elements():
        cover, _ = build_cover(Y_TRI, C4, (0, 0, image_gen))
        index = C4.order // len(C4.closure([image_gen]))
        assert len(cover.nerve.components()) == index


def test_build_cover_has_the_given_transitions():
    # values off the tree frame: every edge carries a different element
    for values in ((1, 2, 3), (3, 0, 1), (2, 2, 0)):
        _, desc = build_cover(Y_TRI, C4, values)
        assert tuple(desc.transition(i, j) for i, j in Y_TRI.edges) == values
        assert all(desc.transition(j, i) == C4.inv[desc.transition(i, j)] for i, j in Y_TRI.edges)


def test_cover_quotient_roundtrip():
    for name in ("X_HEX", "X_TWO_TRI", "X_DODEC"):
        x = gamma_nerve(name)
        desc = quotient(x)
        assert x.nerve.n_vertices == x.gamma.order * desc.downstairs.n_vertices
        if desc.downstairs.is_connected():
            rebuilt, _ = build_cover(desc.downstairs, x.gamma, monodromy(desc))
            assert equivariant_isomorphism(rebuilt, x) is not None


def test_monodromy_class_invariant_under_sections():
    # the group is abelian, so the conjugate set of the monodromy is one tuple
    x = X_HEX
    base = quotient(x)
    target = monodromy(base)
    orbits = x.vertex_orbits()
    for choice in itertools.product(*orbits):
        desc = quotient(x, section=choice)
        assert monodromy(desc) == target
    # transitions change by a vertex gauge: cocycle identity still holds
    desc2 = quotient(x, section=(3, 1, 2))
    assert desc2.transitions != base.transitions or desc2.section == base.section


def test_build_cover_checks_the_triangle_law():
    filled = nerve("Y_FILLED_TRI")
    with pytest.raises(InputError, match=r"triangle \(0,1,2\)"):
        build_cover(filled, C2, (0, 0, 1))
    with pytest.raises(InputError):
        build_cover(filled, C2, (0, 1))
    with pytest.raises(InputError, match=r"0\.\.1"):
        build_cover(Y_TRI, C2, (0, 0, 2))
    _, desc = build_cover(filled, C2, (1, 0, 1))
    assert monodromy(desc) == (0, 0, 0)


def _fixture_nerves():
    return [*NERVES.values(), *(x.nerve for x in GAMMA_NERVES.values())]


def reference_forest(n):
    """The uncached search the cached forest replaced: components, then BFS."""
    adj = n.adjacency()
    seen = [False] * n.n_vertices
    comps = []
    for v in range(n.n_vertices):
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
        comps.append(tuple(sorted(comp)))
    parent = {}
    tree = []
    for comp in comps:
        parent[comp[0]] = None
        queue = [comp[0]]
        while queue:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    tree.append(tuple(sorted((x, y))))
                    queue.append(y)
    return comps, parent, tree


def assert_forest_matches_reference(n):
    comps, parent, tree = reference_forest(n)
    got_parent, got_tree = n.spanning_forest()
    assert n.components() == tuple(comps)
    assert list(got_parent.items()) == list(parent.items())  # BFS order too
    assert got_tree == tuple(tree)
    assert n.is_connected() == (len(comps) <= 1)


def test_cached_forest_matches_the_uncached_search():
    assert any(not n.is_connected() for n in _fixture_nerves())  # X_TWO_TRI
    for n in _fixture_nerves():
        assert_forest_matches_reference(n)


@st.composite
def small_nerves(draw):
    n = draw(st.integers(1, 9))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=10))
    return validate_nerve(n, [sorted(f) for f in faces])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_nerves())
def test_cached_forest_matches_the_uncached_search_on_generated_nerves(n):
    assert_forest_matches_reference(n)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_nerves())
def test_compiled_tables_read_the_forest_in_parent_order(n):
    """A system's compiled forest is the BFS parent dict split by component, parents first,
    and its open edges are each component's edges off the forest."""
    tab = plain_system(n, C2).tables
    parent, tree_edges = n.spanning_forest()
    comps = n.components()
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    m = len(n.edges)
    assert tab.components == comps
    assert [list(f) for f in tab.forest] == [
        [(v, p, n.edge_index[(p, v)] if p < v else n.edge_index[(v, p)] + m) for v, p in parent.items() if p is not None and comp_of[v] == ci]
        for ci in range(len(comps))
    ]
    tree = {n.edge_index[edge] for edge in tree_edges}
    assert [list(c) for c in tab.open_edges] == [
        [e for e, (u, _) in enumerate(n.edges) if comp_of[u] == ci and e not in tree] for ci in range(len(comps))
    ]


def test_forest_values_cannot_be_mutated():
    n = validate_nerve(5, [(0, 1, 2), (3, 4)])
    parent, tree = n.spanning_forest()
    comps = n.components()
    with pytest.raises(TypeError):
        parent[4] = 0
    with pytest.raises(TypeError):
        tree[0] = (0, 4)
    with pytest.raises(TypeError):
        comps[0] = (0,)
    assert n.spanning_forest() == ({0: None, 1: 0, 2: 0, 3: None, 4: 3}, ((0, 1), (0, 2), (3, 4)))
    assert n.components() == ((0, 1, 2), (3, 4))
    assert not n.is_connected()


def test_spanning_forest_lists_parents_first():
    assert any(not n.is_connected() for n in _fixture_nerves())  # X_TWO_TRI
    for n in _fixture_nerves():
        parent, _ = n.spanning_forest()
        assert sorted(parent) == list(range(n.n_vertices))
        seen = set()
        for v, p in parent.items():
            assert p is None or p in seen
            seen.add(v)


def assert_forest_functions_follow_the_forest(n, root_values):
    """One function per root choice, in product order, each obeying the step on every forest edge."""
    parent, _ = n.spanning_forest()
    comps = n.components()

    def step(p, v, x):
        return (3 * x + 5 * p + v) % 7

    funcs = list(forest_functions(n, root_values, step))
    assert len(funcs) == len(root_values) ** len(comps)
    assert [tuple(f[c[0]] for c in comps) for f in funcs] == list(itertools.product(root_values, repeat=len(comps)))
    for f in funcs:
        assert all(f[v] == step(p, v, f[p]) for v, p in parent.items() if p is not None)


def test_forest_functions_follow_the_forest():
    assert any(not n.is_connected() for n in _fixture_nerves())  # X_TWO_TRI
    for n in _fixture_nerves():
        for root_values in ((0,), (0, 1, 2), (4, 2)):
            assert_forest_functions_follow_the_forest(n, root_values)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_nerves(), st.lists(st.integers(0, 6), min_size=1, max_size=3))
def test_forest_functions_follow_the_forest_on_generated_nerves(n, root_values):
    assert_forest_functions_follow_the_forest(n, root_values)


def test_edge_index_matches_edges_and_keeps_equality():
    for n in _fixture_nerves():
        fresh = Nerve(n.n_vertices, n.simplices)
        assert fresh == n and hash(fresh) == hash(n)
        assert n.edge_index == {e: i for i, e in enumerate(n.edges)}
        assert fresh == n and hash(fresh) == hash(n)  # one read, one not
        assert fresh.edge_index == n.edge_index
        assert fresh == n and hash(fresh) == hash(n)
