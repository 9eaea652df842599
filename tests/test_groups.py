"""Group-core behaviour: tables, automorphisms, classes, isomorphism search."""

import itertools

import pytest

from twistcech.errors import InputError, NoIdentity, NoInverse, NotAssociative
from twistcech.fixtures import GROUPS, group
from twistcech.groups import (
    automorphisms,
    center,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    find_isomorphism,
    inner_automorphisms,
    is_normal,
    left_cosets,
    orbit_closures,
    outer_classes,
    quotient_group,
    validate_group,
)

C2, C4, C8 = group("C2"), group("C4"), group("C8")
S3, D4, Q8 = group("S3"), group("D4"), group("Q8")
ALL = [C2, C4, C8, group("C2xC2"), S3, D4, Q8]


def test_validate_cyclic_table():
    g = validate_group([[(i + j) % 4 for j in range(4)] for i in range(4)])
    assert g.order == 4
    assert g.identity == 0
    assert g.relabeling is None


def test_validate_relocates_identity():
    # shift C3 so the identity sits at index 1
    perm = [1, 0, 2]
    base = cyclic_group(3)
    mul = [[perm[base.mul[perm[a]][perm[b]]] for b in range(3)] for a in range(3)]
    g = validate_group(mul)
    assert g.relabeling is not None
    assert g.identity == 0
    assert all(g.mul[0][x] == x for x in g.elements())


def test_validate_rejects_non_associative():
    mul = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    mul[1][2] = 1  # break one entry
    with pytest.raises((NotAssociative, NoInverse, NoIdentity)):
        validate_group(mul)
    # a table that is a quasigroup with identity but not associative
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises((NotAssociative, NoInverse)):
        validate_group(bad)


def test_validate_no_identity():
    with pytest.raises(NoIdentity):
        validate_group([[0, 0], [0, 0]])


def test_twisted_product_table_validates_as_q8():
    from twistcech.extensions import build_twisted_product
    from twistcech.fixtures import c_q_data, inversion_action

    data = c_q_data(inversion_action(C2, C4))
    built = build_twisted_product(data)
    revalidated = validate_group([list(r) for r in built.group.mul])
    assert revalidated.order == 8
    assert find_isomorphism(revalidated, Q8) is not None


def test_center_examples():
    assert center(C4).embed == (0, 1, 2, 3)
    assert center(S3).embed == (0,)
    zq8 = center(Q8)
    assert len(zq8.embed) == 2
    assert all(Q8.element_order(z) in (1, 2) for z in zq8.embed)


def test_automorphism_counts():
    assert len(automorphisms(C4)) == 2
    assert len(inner_automorphisms(C4)) == 1
    assert len(automorphisms(S3)) == 6
    assert len(outer_classes(S3)) == 1
    assert len(automorphisms(C8)) == 4


def _outer_classes_by_search(g):
    """Oracle: assign each automorphism to the first coset it meets, then sort the cosets."""
    auts = automorphisms(g)
    inner = {a.map for a in inner_automorphisms(g)}
    cosets = []
    for a in auts:
        # same coset iff a . b^-1 is inner
        home = next((c for c in cosets if a.compose(c[0].inverse()).map in inner), None)
        if home is None:
            cosets.append([a])
        else:
            home.append(a)
    ident = tuple(range(g.order))
    cosets.sort(key=lambda c: (c[0].map != ident, c[0].map))
    return [[a.map for a in c] for c in cosets]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_outer_classes_match_the_coset_search(name):
    g = group(name)
    got = [[a.map for a in c] for c in outer_classes(g)]
    assert got == _outer_classes_by_search(g)
    assert got[0][0] == tuple(range(g.order))
    counts = {"C2xC2": 6, "Q8": 6, "C8": 4, "D4": 2, "S3": 1}
    if name in counts:
        assert len(got) == counts[name]


def test_automorphisms_form_a_group():
    for g in (C4, S3, Q8):
        auts = automorphisms(g)
        maps = {a.map for a in auts}
        for a in auts:
            assert a.inverse().map in maps
            for b in auts:
                assert a.compose(b).map in maps
        inner = {a.map for a in inner_automorphisms(g)}
        # Int is normal in Aut
        for a in auts:
            for i_map in inner:
                i = next(x for x in auts if x.map == i_map)
                assert a.compose(i).compose(a.inverse()).map in inner


def test_conjugacy_classes():
    assert conjugacy_classes(C4) == [(0,), (1,), (2,), (3,)]
    sizes = sorted(len(c) for c in conjugacy_classes(S3))
    assert sizes == [1, 2, 3]
    assert len(conjugacy_classes(D4)) == 5
    for g in ALL:
        direct = {tuple(sorted({g.conjugate(t, x) for t in g.elements()})) for x in g.elements()}
        assert conjugacy_classes(g) == sorted(direct)


def test_orbit_closures_are_sorted_and_ordered_by_first_item():
    # x -> x + 30 mod 60 pairs each x < 30 with x + 30; a set of such a pair
    # need not list it in order
    def moves(x):
        return [(x + 30) % 60]

    assert orbit_closures(range(60), moves) == [(x, x + 30) for x in range(30)]
    assert orbit_closures([33, 5, 3, 35], moves) == [(3, 33), (5, 35)]


def test_class_sizes_divide_order():
    for g in ALL:
        classes = conjugacy_classes(g)
        assert sum(len(c) for c in classes) == g.order
        assert all(g.order % len(c) == 0 for c in classes)


def test_find_isomorphism_identity_and_negative():
    assert find_isomorphism(C4, C4).map == (0, 1, 2, 3)
    assert find_isomorphism(C4, group("C2xC2")) is None
    assert find_isomorphism(D4, Q8) is None


def test_find_isomorphism_symmetric():
    for g, h in itertools.combinations(ALL, 2):
        forward = find_isomorphism(g, h) is not None
        backward = find_isomorphism(h, g) is not None
        assert forward == backward


def test_isomorphism_is_verified_hom():
    iso = find_isomorphism(D4, D4)
    for a in D4.elements():
        for b in D4.elements():
            assert iso.map[D4.mul[a][b]] == D4.mul[iso.map[a]][iso.map[b]]


def test_quotient_group():
    q, proj = quotient_group(Q8, center(Q8).embed)
    assert q.order == 4
    assert find_isomorphism(q, group("C2xC2")) is not None
    for a in Q8.elements():
        for b in Q8.elements():
            assert proj.map[Q8.mul[a][b]] == q.mul[proj.map[a]][proj.map[b]]


def test_left_cosets_and_quotients_against_brute_force():
    # every subgroup generated by two elements of a catalogue group
    normal = 0
    for g in ALL:
        for h in sorted({g.closure(pair) for pair in itertools.combinations(g.elements(), 2)}):
            cosets, coset_of = left_cosets(g, h)
            # disjoint sorted cosets sort as tuples exactly by minimal element
            assert cosets == sorted({tuple(sorted(g.mul[x][y] for y in h)) for x in g.elements()})
            assert coset_of == {x: i for i, cs in enumerate(cosets) for x in cs}
            if is_normal(g, h):
                normal += 1
                q, proj = quotient_group(g, h)
                assert proj.map == tuple(coset_of[x] for x in g.elements())
                for a in g.elements():
                    for b in g.elements():
                        assert proj.map[g.mul[a][b]] == q.mul[proj.map[a]][proj.map[b]]
    assert normal > len(ALL)


def test_direct_product_structure():
    v4 = direct_product(C2, C2)
    assert v4.order == 4
    assert all(v4.element_order(x) <= 2 for x in v4.elements())


def test_associativity_exhaustive_on_fixtures():
    for g in ALL:
        for x in g.elements():
            for y in g.elements():
                for z in g.elements():
                    assert g.mul[g.mul[x][y]][z] == g.mul[x][g.mul[y][z]]
