"""Group-core behaviour: tables, automorphisms, classes, isomorphism search."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcech.errors import BudgetExceeded, InputError, NoIdentity, NoInverse, NotAssociative, Work
from twistcech.extensions import check_gamma_action
from twistcech.fixtures import GROUPS, group
from twistcech.groups import (
    _greedy_generators,
    FiniteGroup,
    GroupHom,
    automorphisms,
    center,
    check_hom,
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


def test_hom_search_spends_one_work_limit(clock_reads):
    c2_cubed = direct_product(group("C2xC2"), C2)
    # Aut(C2^3) = GL(3, 2): 9,233 search nodes, a clock read at the start and at every 1,024th
    assert len(automorphisms(c2_cubed)) == 168
    assert clock_reads == {"hom search": 10}
    with pytest.raises(BudgetExceeded, match="^hom search budget 9232 exhausted$"):
        automorphisms(c2_cubed, work=Work(enum=9232))
    assert len(automorphisms(c2_cubed, work=Work(enum=9233))) == 168
    with pytest.raises(BudgetExceeded, match="^order 8 exceeds guard 7$"):
        find_isomorphism(c2_cubed, c2_cubed, work=Work(order=7))
    with pytest.raises(BudgetExceeded, match="^time limit reached in hom search$"):
        find_isomorphism(D4, D4, work=Work(deadline=0.0))


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


# Full scans of the group laws, as they ran before the checks on generators:
# the oracles that validate_group, check_hom and check_gamma_action must match
# in exception class, message and witness.


def _validate_group_full_scan(mul):
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
    ident = next((e for e in range(n) if all(rows[e][x] == x and rows[x][e] == x for x in range(n))), None)
    if ident is None:
        raise NoIdentity()
    relabeling = None
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        relabeling = tuple(perm)
        rows = [tuple(perm[rows[perm[a]][perm[b]]] for b in range(n)) for a in range(n)]
    inv = []
    for x in range(n):
        y = next((y for y in range(n) if rows[x][y] == 0 and rows[y][x] == 0), None)
        if y is None:
            raise NoInverse(x)
        inv.append(y)
    for x, y, z in itertools.product(range(n), repeat=3):
        if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
            raise NotAssociative(x, y, z)
    return FiniteGroup(n, tuple(rows), tuple(inv), relabeling=relabeling)


def _check_hom_full_scan(source, target, mapping):
    m = tuple(int(x) for x in mapping)
    if len(m) != source.order:
        raise InputError("homomorphism table length differs from group order")
    if any(not 0 <= x < target.order for x in m):
        raise InputError("homomorphism image out of range")
    if m[0] != 0:
        raise InputError("homomorphism does not preserve the identity")
    for a, b in itertools.product(source.elements(), repeat=2):
        if m[source.mul[a][b]] != target.mul[m[a]][m[b]]:
            raise InputError(f"not a homomorphism at ({a},{b})")
    return GroupHom(source, target, m)


def _check_gamma_action_full_scan(gamma, g, tables):
    if len(tables) != gamma.order:
        raise InputError("need one automorphism table per acting element")
    maps = []
    for t in tables:
        hom = _check_hom_full_scan(g, g, t)
        if not hom.is_bijective():
            raise InputError("automorphism table is not a bijection")
        maps.append(hom.map)
    if maps[0] != tuple(range(g.order)):
        raise InputError("identity must act as the identity automorphism")
    for a, b in itertools.product(gamma.elements(), repeat=2):
        if tuple(maps[a][maps[b][x]] for x in g.elements()) != maps[gamma.mul[a][b]]:
            raise InputError(f"theta is not a homomorphism at ({a},{b})")
    return maps


def _closure_with_inverses(g, gens):
    """The sorted subgroup generated by gens, walked by right multiplication by gens and by their inverses."""
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            for y in (g.mul[x][s], g.mul[x][g.inv[s]]):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return tuple(sorted(seen))


def _generating_sequence_by_closure(g):
    """Each element outside the subgroup of the earlier ones, then each of those dropped, in order, when the rest generate g."""
    gens, have = [], {0}
    for x in g.elements():
        if x not in have:
            gens.append(x)
            have = set(_closure_with_inverses(g, gens))
    for x in list(gens):
        rest = [y for y in gens if y != x]
        if len(_closure_with_inverses(g, rest)) == g.order:
            gens = rest
    return tuple(gens)


def _greedy_generators_in_one_walk(mul):
    """The greedy sequence with one walk from 0 that grows as generators are kept, then each dropped when the rest reach every index."""

    def reaches_all(gens):
        reached, seen = [0], {0}
        for x in reached:  # grows while it is read
            for s in gens:
                if mul[x][s] not in seen:
                    seen.add(mul[x][s])
                    reached.append(mul[x][s])
        return len(reached) == len(mul)

    gens, reached, seen = [], [0], [True] + [False] * (len(mul) - 1)
    for g in range(len(mul)):
        if not seen[g]:
            gens.append(g)
            for x in reached:  # grows while it is read; each element meets every generator
                for s in gens:
                    if not seen[mul[x][s]]:
                        seen[mul[x][s]] = True
                        reached.append(mul[x][s])
    for g in gens[:-1]:
        rest = [s for s in gens if s != g]
        if reaches_all(rest):
            gens = rest
    return tuple(gens)


def _power(g, k):
    out = g
    for _ in range(k - 1):
        out = direct_product(out, g)
    return out


# the catalogue, then products up to order 64
SPAN_GROUPS = [
    *(group(name) for name in sorted(GROUPS)),
    direct_product(C4, C4),
    direct_product(S3, C2),
    direct_product(D4, C2),
    _power(C2, 6),
    direct_product(Q8, _power(C2, 3)),
]


@pytest.mark.parametrize("g", SPAN_GROUPS, ids=lambda g: f"order{g.order}-{g.label}")
def test_greedy_generators_match_the_one_walk_and_the_closures(g):
    assert _greedy_generators(g.mul) == _greedy_generators_in_one_walk(g.mul) == _generating_sequence_by_closure(g)
    assert g.closure(g.generating_sequence()) == tuple(g.elements())
    if g.order <= 16:  # every subset of at most two elements
        for gens in itertools.chain.from_iterable(itertools.combinations(g.elements(), k) for k in range(3)):
            assert g.closure(gens) == _closure_with_inverses(g, gens)


def test_greedy_generators_match_the_one_walk_on_loops():
    # validate_group takes the sequence before it knows the table is associative
    for loop in LOOPS:
        assert _greedy_generators(loop) == _greedy_generators_in_one_walk(loop)


def _outcome(check, *args):
    """What a check returns, or the class, message and witness of what it raises."""
    try:
        return check(*args)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


LAW_GROUPS = ("C4", "C2xC2", "S3", "D4", "Q8")
# loops (an identity and two-sided inverses) that are not associative, so that
# a table reaches the associativity stage with every earlier check passed
LOOPS = (
    ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)),
    (
        (0, 1, 2, 3, 4, 5),
        (1, 0, 3, 4, 5, 2),
        (2, 4, 0, 5, 1, 3),
        (3, 5, 1, 0, 2, 4),
        (4, 2, 5, 1, 3, 0),
        (5, 3, 4, 2, 0, 1),
    ),
)


@st.composite
def _perturbed_tables(draw):
    """A group table or a loop, with its indices permuted and one entry maybe changed, at times out of range."""
    table = draw(st.sampled_from([group(name).mul for name in LAW_GROUPS] + list(LOOPS)))
    n = len(table)
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        rows[perm[a]][perm[b]] = perm[table[a][b]]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(-1, n))
    return rows


def test_the_loops_reach_the_associativity_stage():
    for loop in LOOPS:
        assert _outcome(validate_group, loop)[0] is _outcome(_validate_group_full_scan, loop)[0] is NotAssociative


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_perturbed_tables())
def test_validate_group_matches_the_full_scan(rows):
    assert _outcome(validate_group, rows) == _outcome(_validate_group_full_scan, rows)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generating_sequence_matches_the_closure_walk(name):
    g = group(name)
    fresh = FiniteGroup(g.order, g.mul, g.inv)  # not through validate_group
    assert g.generating_sequence() == fresh.generating_sequence() == _generating_sequence_by_closure(g)
    assert validate_group(g.mul).generating_sequence() == _generating_sequence_by_closure(g)
    # no generator is redundant: Q8 = <i, j> without -1
    gens = g.generating_sequence()
    assert all(len(g.closure(gens[:k] + gens[k + 1 :])) < g.order for k in range(len(gens)))
    assert len(gens) == {"C1": 0, "C2xC2": 2, "D4": 2, "Q8": 2, "S3": 2}.get(name, 1)


@st.composite
def _perturbed_homs(draw):
    """An endomorphism of a group (an automorphism or the trivial map) with one image maybe changed, at times out of range."""
    g = group(draw(st.sampled_from(LAW_GROUPS)))
    mapping = list(draw(st.sampled_from([a.map for a in automorphisms(g)] + [(0,) * g.order])))
    if draw(st.booleans()):
        mapping[draw(st.integers(0, g.order - 1))] = draw(st.integers(-1, g.order))
    return g, mapping


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_perturbed_homs())
def test_check_hom_matches_the_full_scan(case):
    g, mapping = case
    assert _outcome(check_hom, g, g, mapping) == _outcome(_check_hom_full_scan, g, g, mapping)


@st.composite
def _perturbed_actions(draw):
    """Tables of an action of Gamma on G, with one automorphism swapped for another or one entry changed.

    The action is trivial, or conjugation when G is Gamma.
    """
    gamma, g = group(draw(st.sampled_from(LAW_GROUPS))), group(draw(st.sampled_from(LAW_GROUPS)))
    by_conjugation = gamma is g and draw(st.booleans())
    tables = [[g.conjugate(t, x) if by_conjugation else x for x in g.elements()] for t in gamma.elements()]
    kind = draw(st.sampled_from(("none", "automorphism", "entry")))
    t = draw(st.integers(0, gamma.order - 1))
    if kind == "automorphism":
        tables[t] = list(draw(st.sampled_from(automorphisms(g))).map)
    elif kind == "entry":
        tables[t][draw(st.integers(0, g.order - 1))] = draw(st.integers(0, g.order - 1))
    return gamma, g, tables


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_perturbed_actions())
def test_check_gamma_action_matches_the_full_scan(case):
    gamma, g, tables = case
    got = _outcome(check_gamma_action, gamma, g, tables)
    want = _outcome(_check_gamma_action_full_scan, gamma, g, tables)
    if isinstance(want, list):  # the action is valid: compare its tables
        got = [auto.map for auto in got.theta]
    assert got == want
