"""Nerves, simplicial actions, fundamental groups, covers and monodromy."""

import itertools

import pytest

from twistcech.errors import Disconnected, InputError, NotGoodCover, NotSimplicial
from twistcech.fixtures import GAMMA_NERVES, NERVES, gamma_nerve, group, nerve
from twistcech.nerves import (
    Nerve,
    build_cover,
    equivariant_isomorphism,
    make_monodromy,
    monodromy,
    pi1,
    quotient,
    validate_gamma_nerve,
    validate_nerve,
)

C2, C4 = group("C2"), group("C4")
Y_TRI = nerve("Y_TRI")
X_HEX = gamma_nerve("X_HEX")


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


def test_pi1_examples():
    p = pi1(Y_TRI)
    assert p.rank == 1 and p.relations == ()
    filled = pi1(nerve("Y_FILLED_TRI"))
    assert filled.rank == 1
    hexp = pi1(nerve("X_HEX_NERVE"))
    assert hexp.rank == 1


def test_pi1_disconnected_raises():
    two = validate_nerve(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        pi1(two)


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
    desc = quotient(X_HEX)
    rep = monodromy(desc)
    assert rep.assignment == (1,)
    assert rep.image == (0, 1)
    assert rep.canonical == (1,)


def test_monodromy_trivial_cover():
    pres = pi1(Y_TRI)
    rep = make_monodromy(C2, pres, (0,))
    cover, desc = build_cover(Y_TRI, rep)
    assert len(cover.nerve.components()) == 2  # index of the image
    rep2 = monodromy(desc)
    assert rep2.assignment == (0,)
    assert rep2.image == (0,)


def test_monodromy_two_triangles_swap():
    desc = quotient(gamma_nerve("X_TWO_TRI"))
    rep = monodromy(desc)
    assert rep.assignment == (0,)
    assert rep.image == (0,)
    # cover disconnected exactly because the monodromy is not surjective
    assert len(gamma_nerve("X_TWO_TRI").nerve.components()) == 2


def test_build_cover_hex():
    pres = pi1(Y_TRI)
    rep = make_monodromy(C2, pres, (1,))
    cover, desc = build_cover(Y_TRI, rep)
    assert cover.nerve.n_vertices == 6
    assert len(cover.nerve.components()) == 1
    assert equivariant_isomorphism(cover, X_HEX) is not None


def test_build_cover_c4_generator():
    pres = pi1(Y_TRI)
    rep = make_monodromy(C4, pres, (1,))
    cover, desc = build_cover(Y_TRI, rep)
    assert cover.nerve.n_vertices == 12
    assert len(cover.nerve.components()) == 1
    assert len(cover.nerve.edges) == 12
    assert equivariant_isomorphism(cover, gamma_nerve("X_DODEC")) is not None


def test_build_cover_components_match_index():
    pres = pi1(Y_TRI)
    for image_gen in C4.elements():
        rep = make_monodromy(C4, pres, (image_gen,))
        cover, _ = build_cover(Y_TRI, rep)
        index = C4.order // len(rep.image)
        assert len(cover.nerve.components()) == index


def test_cover_quotient_roundtrip():
    for name in ("X_HEX", "X_TWO_TRI", "X_DODEC"):
        x = gamma_nerve(name)
        desc = quotient(x)
        assert x.nerve.n_vertices == x.gamma.order * desc.downstairs.n_vertices
        if desc.downstairs.is_connected():
            rep = monodromy(desc)
            rebuilt, _ = build_cover(desc.downstairs, rep)
            assert equivariant_isomorphism(rebuilt, x) is not None


def test_monodromy_class_invariant_under_sections():
    x = X_HEX
    base = quotient(x)
    target = monodromy(base).canonical
    orbits = x.vertex_orbits()
    for choice in itertools.product(*orbits):
        desc = quotient(x, section=choice)
        assert monodromy(desc).canonical == target
    # transitions change by a vertex gauge: cocycle identity still holds
    desc2 = quotient(x, section=(3, 1, 2))
    assert desc2.transitions != base.transitions or desc2.section == base.section


def test_make_monodromy_checks_relations():
    filled = pi1(nerve("Y_FILLED_TRI"))
    with pytest.raises(InputError):
        make_monodromy(C2, filled, (1,))


def _fixture_nerves():
    return [*NERVES.values(), *(x.nerve for x in GAMMA_NERVES.values())]


def test_spanning_forest_lists_parents_first():
    assert any(not n.is_connected() for n in _fixture_nerves())  # X_TWO_TRI
    for n in _fixture_nerves():
        parent, _ = n.spanning_forest()
        assert sorted(parent) == list(range(n.n_vertices))
        seen = set()
        for v, p in parent.items():
            assert p is None or p in seen
            seen.add(v)


def test_edge_index_matches_edges_and_keeps_equality():
    for n in _fixture_nerves():
        fresh = Nerve(n.n_vertices, n.simplices)
        assert fresh == n and hash(fresh) == hash(n)
        assert n.edge_index == {e: i for i, e in enumerate(n.edges)}
        assert fresh == n and hash(fresh) == hash(n)  # one read, one not
        assert fresh.edge_index == n.edge_index
        assert fresh == n and hash(fresh) == hash(n)
