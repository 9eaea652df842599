"""Extension algebra: cocycles, twisted products, classification, recocycling."""

import functools
import itertools
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcech.errors import (
    BudgetExceeded,
    CocycleViolation,
    CsNotCentral,
    InputError,
    NotAOneCocycle,
    NotNormalized,
    SectionNotNormalised,
    ValueNotCentral,
    Work,
)
from twistcech.cech import (
    CechSystem,
    cochain_values,
    cochain_vector,
    twist_target,
)
from twistcech.extensions import (
    GammaOneCochain,
    TwistedData,
    build_twisted_product,
    check_cocycle,
    check_gamma_action,
    cohomologous_iso,
    coboundary,
    extract_twisted_data,
    gamma_hat,
    make_twisted_data,
    multiply_cocycles,
    recocycle,
    restrict_to_subgroup,
    second_cohomology,
    sub_product,
    trivial_action,
)
from twistcech.fixtures import (
    GROUPS,
    c_q_data,
    c_square_table,
    default_grid,
    grid_instance,
    group,
    inversion_action,
    named_action,
)
from twistcech.groups import (
    automorphisms,
    center,
    check_hom,
    direct_product,
    find_isomorphism,
    subgroup_from_elements,
    validate_group,
)
from twistcech.nerves import trivial_gamma_nerve, validate_nerve

C2, C4, C8 = group("C2"), group("C4"), group("C8")
S3, D4, Q8 = group("S3"), group("D4"), group("Q8")
INV = inversion_action(C2, C4)


class OracleH2(NamedTuple):
    cocycles: list  # every normalized 2-cocycle table, sorted
    coboundaries: list
    representatives: list  # the least table of each class
    class_of: dict  # table -> class id, ids ascending with representatives


def brute_force_second_cohomology(action):
    """Oracle: H^2 by walking every normalized 2-cochain table and every 1-cochain."""
    gamma, g = action.gamma, action.g
    zelems = center(g).embed
    n = gamma.order
    free = [(a, b) for a in range(1, n) for b in range(1, n)]
    triples = list(itertools.product(gamma.elements(), repeat=3))
    cocycles = []
    for combo in itertools.product(zelems, repeat=len(free)):
        table = [[0] * n for _ in range(n)]
        for (a, b), v in zip(free, combo):
            table[a][b] = v
        if all(
            g.mul[action.apply(g0, table[g1][g2])][table[g0][gamma.mul[g1][g2]]]
            == g.mul[table[g0][g1]][table[gamma.mul[g0][g1]][g2]]
            for g0, g1, g2 in triples
        ):
            cocycles.append(tuple(tuple(r) for r in table))
    cocycles.sort()
    cobs = sorted(
        {
            coboundary(action, GammaOneCochain((0,) + combo)).table
            for combo in itertools.product(zelems, repeat=n - 1)
        }
    )
    reps, class_of = [], {}
    for c in cocycles:
        if c in class_of:
            continue
        reps.append(c)
        for b in cobs:
            class_of[tuple(tuple(g.mul[c[i][j]][b[i][j]] for j in range(n)) for i in range(n))] = len(reps) - 1
    return OracleH2(cocycles, cobs, reps, class_of)


def assert_matches_oracle(h2):
    """Equal representatives, and the class of every table of Z^2 as the oracle gives it."""
    oracle = brute_force_second_cohomology(h2.action)
    assert h2.representatives == oracle.representatives
    assert all(h2.class_of(table) == oracle.class_of[table] for table in oracle.cocycles)


# the extensions-classify benchmark actions, then smaller cases with a
# non-cyclic Gamma, a non-abelian G or an action that is not trivial
ORACLE_CASES = [
    ("C4", "C3", "trivial"),
    ("C2xC2", "C3", "trivial"),
    ("C3", "C8", "trivial"),
    ("C2xC2", "C2", "trivial"),
    ("C4", "C2", "trivial"),
    ("C2", "Q8", "q8_swap"),
    ("C2", "C8", "inversion"),
    ("C2", "C4", "trivial"),
    ("C2", "C4", "inversion"),
    ("C3", "C2", "trivial"),
    ("C4", "Q8", "trivial"),
    ("C2", "D4", "trivial"),
    ("C2", "C2xC2", "trivial"),
]


def test_check_cocycle_trivial_and_cq():
    assert check_cocycle(INV, [[0, 0], [0, 0]]).is_trivial()
    coc = check_cocycle(INV, [[0, 0], [0, 2]])
    assert coc.c(1, 1) == 2


def test_check_cocycle_not_normalized():
    with pytest.raises(NotNormalized):
        check_cocycle(INV, [[0, 2], [0, 2]])


def test_check_cocycle_value_not_central():
    action = trivial_action(C2, S3)
    with pytest.raises(ValueNotCentral):
        check_cocycle(action, [[0, 0], [0, 1]])


def test_check_cocycle_violation():
    # the C4-action twist forces c(t,t) to be a fixed point of inversion
    with pytest.raises(CocycleViolation):
        check_cocycle(INV, [[0, 0], [0, 1]])


def test_multiply_cocycles_checks_the_product_against_the_first_action():
    # c(1,1) = 1 is a cocycle for the trivial action, but the product value 2 * 1 = 3 is no fixed point of inversion
    other = check_cocycle(trivial_action(C2, C4), [[0, 0], [0, 1]])
    with pytest.raises(CocycleViolation) as err:
        multiply_cocycles(c_q_data(INV), other)
    assert err.value.witness == (1, 1, 1)


def test_coboundary_examples():
    assert coboundary(INV, GammaOneCochain((0, 0))).is_trivial()
    # inversion: da(t,t) = -a(t) + a(t) = 0
    assert coboundary(INV, GammaOneCochain((0, 1))).is_trivial()
    # trivial action: da(t,t) = 2 a(t)
    triv = trivial_action(C2, C4)
    assert coboundary(triv, GammaOneCochain((0, 1))).c(1, 1) == 2


def test_second_cohomology_inversion():
    h2 = second_cohomology(INV)
    assert len(h2) == 2
    assert h2.class_of(make_twisted_data(INV)) != h2.class_of(c_q_data(INV))
    # against the brute-force oracle: every cocycle lands in the oracle's class
    assert_matches_oracle(h2)


@pytest.mark.parametrize("gamma, z, action", ORACLE_CASES)
def test_second_cohomology_matches_full_table_walk(gamma, z, action):
    assert_matches_oracle(second_cohomology(named_action(action, group(gamma), group(z))))


def test_class_of_rejects_a_table_that_is_no_cocycle():
    h2 = second_cohomology(INV)
    # 1 is not fixed by inversion, so c(t, t) = 1 breaks the identity at (t, t, t)
    for cocycle in ([[0, 0], [0, 1]], TwistedData(INV, ((0, 0), (0, 1)))):
        with pytest.raises(CocycleViolation) as exc:
            h2.class_of(cocycle)
        assert isinstance(exc.value, InputError) and exc.value.witness == (1, 1, 1)


@pytest.mark.parametrize(
    "validate, bad, name",
    [
        (lambda bad: check_cocycle(INV, [[0, 0], [0, bad]]), -1, "c(1,1)"),
        (lambda bad: check_cocycle(INV, [[0, 0], [0, bad]]), 99, "c(1,1)"),
        (lambda bad: coboundary(INV, GammaOneCochain((0, bad))), -1, "a(1)"),
        (lambda bad: coboundary(INV, GammaOneCochain((0, bad))), 9, "a(1)"),
        (lambda bad: recocycle(make_twisted_data(INV), (0, bad)), -1, "s(1)"),
        (lambda bad: recocycle(make_twisted_data(INV), (0, bad)), 9, "s(1)"),
    ],
    ids=["c-negative", "c-99", "coboundary-negative", "coboundary-9", "recocycle-negative", "recocycle-9"],
)
def test_validators_refuse_an_element_index_out_of_range(validate, bad, name):
    # refused before anything indexes a table with it
    with pytest.raises(InputError, match=f"^{re.escape(name)} = {bad} is out of range for a group of order 4$"):
        validate(bad)


@pytest.mark.parametrize("gamma, z, order", [("S3", "C2", 2), ("D4", "C2", 8), ("Q8", "C2", 4), ("S3", "C3", 1)])
def test_second_cohomology_orders_match_universal_coefficients(gamma, z, order):
    # trivial action: H^2(Gamma; A) = Hom(H_2 Gamma, A) + Ext(H_1 Gamma, A), with
    # H_1 = C2, C2xC2, C2xC2, C2 and H_2 = 0, C2, 0, 0 for S3, D4, Q8, S3
    h2 = second_cohomology(trivial_action(group(gamma), group(z)))
    assert len(h2) == order
    assert h2.complex.cocycles.size == order * h2.complex.coboundaries.size
    assert [h2.class_of(rep) for rep in h2.representatives] == list(range(order))


def test_second_cohomology_guards():
    with pytest.raises(BudgetExceeded):
        second_cohomology(trivial_action(group("C4"), group("C3")), work=Work(enum=26))
    assert len(second_cohomology(trivial_action(group("C4"), group("C3")), work=Work(enum=27))) == 1
    # (|Gamma| - 1)^3 * r = 7^3 * 2 coordinates is over the coordinate guard
    with pytest.raises(BudgetExceeded):
        second_cohomology(trivial_action(C8, group("C2xC2")))


def test_second_cohomology_reads_the_clock_every_1024_cocycles(clock_reads):
    # C2xC2 acting trivially on C4 x C2: |Z^2| = 2048
    assert len(second_cohomology(trivial_action(group("C2xC2"), direct_product(C4, C2)))) == 64
    assert clock_reads == {"second_cohomology's Z^2 listing": 2}
    with pytest.raises(BudgetExceeded, match="^time limit reached in second_cohomology's Z\\^2 listing$"):
        second_cohomology(trivial_action(C4, C2), work=Work(deadline=0.0))


def test_second_cohomology_trivial_gamma():
    c1 = group("C1")
    h2 = second_cohomology(trivial_action(c1, C4))
    assert len(h2) == 1


def test_second_cohomology_class_invariant_under_coboundaries():
    for action in (INV, trivial_action(C2, C4), trivial_action(C2, C2)):
        h2 = second_cohomology(action)
        zelems = center(action.g).embed
        for table in brute_force_second_cohomology(action).cocycles:
            base = TwistedData(action, table)
            cid = h2.class_of(base)
            for a_val in zelems:
                shifted = multiply_cocycles(base, coboundary(action, GammaOneCochain((0, a_val))))
                assert h2.class_of(shifted) == cid


@pytest.mark.parametrize(
    "gamma, z, action",
    [
        ("C2", "C4", "inversion"),
        ("C2", "C8", "inversion"),
        ("C2", "Q8", "q8_swap"),
        ("C4", "C3", "trivial"),
        ("S3", "C2", "trivial"),
        # S3 acting as Aut(C2xC2), so theta_{g1 g2} and theta_{g2 g1} differ
        ("S3", "C2xC2", "faithful"),
    ],
)
def test_point_kernel_vectors_are_twist_triples(gamma, z, action):
    # second_cohomology reads c(g1, g2) = theta_{g1 g2}(w(g2, g1)) off each
    # kernel vector w of the one-vertex nerve, whose 2-cochains are just the
    # (t1, t2) slots; the twist target of the point twisted by c must give
    # back that same w, and class_of must read back its B^2 label
    if action == "faithful":
        act = next(a for a in _all_actions(gamma, z) if len({auto.map for auto in a.theta}) == group(gamma).order)
    else:
        act = named_action(action, group(gamma), group(z))
    zsub = center(act.g)
    point = trivial_gamma_nerve(validate_nerve(1, []), act.gamma)
    classes = second_cohomology(act)
    mul = act.gamma.mul
    k = act.gamma.order - 1
    cx = classes.complex
    least, label_of = {}, {}
    for vec in cx.cocycles.elements():
        values = cochain_values(cx.coords, vec, k * k)
        w = {(t1, t2): values[(t1 - 1) * k + t2 - 1] for t1 in range(1, k + 1) for t2 in range(1, k + 1)}
        table = tuple(
            tuple(act.apply(mul[g1][g2], zsub.embed[w.get((g2, g1), 0)]) for g2 in act.gamma.elements())
            for g1 in act.gamma.elements()
        )
        twisted = CechSystem(point, restrict_to_subgroup(TwistedData(act, table), zsub))
        assert cochain_vector(cx.coords, twist_target(twisted).values()) == vec
        label_of[table] = cx.coboundaries.reduce(vec)
        least[label_of[table]] = min(table, least.get(label_of[table], table))
    reps = sorted(least.values())
    assert classes.representatives == reps
    assert all(classes.class_of(table) == reps.index(least[label]) for table, label in label_of.items())


@functools.cache
def _all_actions(gamma_name, g_name):
    """Every homomorphism Gamma -> Aut(G), from automorphisms on a generating sequence."""
    gamma, g = group(gamma_name), group(g_name)
    gens = gamma.generating_sequence()
    out = []
    for images in itertools.product(automorphisms(g), repeat=len(gens)):
        theta = {0: tuple(g.elements())}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for s, auto in zip(gens, images):
                y = gamma.mul[x][s]
                if y not in theta:
                    # theta_{x s} = theta_x after theta_s
                    theta[y] = tuple(theta[x][auto.map[e]] for e in g.elements())
                    frontier.append(y)
        try:
            out.append(check_gamma_action(gamma, g, [theta[x] for x in gamma.elements()]))
        except InputError:
            pass  # the images do not satisfy the relations of Gamma
    return out


# (Gamma, G) pairs whose full table walk has at most 4,096 tables
PROPERTY_PAIRS = [
    (gamma, g)
    for gamma in ("C1", "C2", "C3", "C4", "C2xC2")
    for g in sorted(GROUPS)
    if center(group(g)).group.order ** ((group(gamma).order - 1) ** 2) <= 4096
]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from(PROPERTY_PAIRS).flatmap(lambda pair: st.sampled_from(_all_actions(*pair))))
def test_second_cohomology_matches_oracle_on_generated_actions(action):
    assert_matches_oracle(second_cohomology(action))


def test_build_twisted_product_isomorphism_types():
    assert find_isomorphism(build_twisted_product(make_twisted_data(INV)).group, D4) is not None
    assert find_isomorphism(build_twisted_product(c_q_data(INV)).group, Q8) is not None


# the seven classify cases of the benchmark, then D4 C2, Q8 C2 and C2 C4 with the inversion action
CLASSIFY_CASES = [
    ("C4", "C3", "trivial"),
    ("C2xC2", "C3", "trivial"),
    ("C3", "C8", "trivial"),
    ("C2xC2", "C2", "trivial"),
    ("C4", "C2", "trivial"),
    ("C2", "Q8", "q8_swap"),
    ("C2", "C8", "inversion"),
    ("D4", "C2", "trivial"),
    ("Q8", "C2", "trivial"),
    ("C2", "C4", "inversion"),
]


@functools.cache
def _classified(action):
    return second_cohomology(action)


def assert_product_matches_validate_group(data):
    """The product written from its formula is what validate_group makes of its own table."""
    product = build_twisted_product(data)
    built, oracle = product.group, validate_group(product.group.mul)
    assert (built.order, built.mul, built.inv, built.relabeling) == (oracle.order, oracle.mul, oracle.inv, None)
    # the lazy greedy sequence is the generator set of validate_group's associativity test
    assert built.generating_sequence() == oracle.generating_sequence()
    check_hom(data.g, built, product.embed_g.map)
    check_hom(built, data.gamma, product.proj.map)


def test_product_of_each_grid_row_matches_validate_group():
    for inst in default_grid():
        assert_product_matches_validate_group(inst.data)


@pytest.mark.parametrize("gamma, z, action", CLASSIFY_CASES)
def test_product_of_each_h2_representative_matches_validate_group(gamma, z, action):
    h2 = _classified(named_action(action, group(gamma), group(z)))
    for rep in h2.representatives:
        assert_product_matches_validate_group(TwistedData(h2.action, rep))


# the named actions of the classify cases, and every action of the small pairs, some of order 3 or 4
ACTIONS = st.one_of(
    st.sampled_from(CLASSIFY_CASES).map(lambda case: named_action(case[2], group(case[0]), group(case[1]))),
    st.sampled_from(PROPERTY_PAIRS).flatmap(lambda pair: st.sampled_from(_all_actions(*pair))),
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(ACTIONS, st.data())
def test_product_of_a_cohomologous_cocycle_matches_validate_group(action, draws):
    # c = rep * delta(a) for a central 1-cochain a
    n = action.gamma.order
    rep = draws.draw(st.sampled_from(_classified(action).representatives))
    values = draws.draw(st.lists(st.sampled_from(center(action.g).embed), min_size=n - 1, max_size=n - 1))
    delta = coboundary(action, GammaOneCochain((0, *values)))
    assert_product_matches_validate_group(multiply_cocycles(TwistedData(action, rep), delta))


def test_product_inverse_of_section_elements():
    data = c_q_data(INV)
    built = build_twisted_product(data)
    for t in C2.elements():
        ti = C2.inv[t]
        expected = built.pair_index(C4.inv[data.c(ti, t)], ti)
        assert built.group.inv[built.pair_index(0, t)] == expected


def test_projection_section_and_kernel():
    built = build_twisted_product(c_q_data(INV))
    for t in C2.elements():
        assert built.proj.map[built.section[t]] == t
    kernel = {x for x in built.group.elements() if built.proj.map[x] == 0}
    assert kernel == set(built.embed_g.map)
    # the section meets every fibre exactly once
    fibres = {}
    for t in C2.elements():
        fibres.setdefault(built.proj.map[built.section[t]], []).append(t)
    assert all(len(v) == 1 for v in fibres.values())


def test_associativity_iff_cocycle_condition():
    """Every normalized 2-cochain: product table associative iff cocycle holds."""
    zelems = center(C4).embed
    n = C2.order
    for combo in itertools.product(zelems, repeat=(n - 1) * (n - 1)):
        table = [[0] * n for _ in range(n)]
        table[1][1] = combo[0]
        try:
            check_cocycle(INV, table)
            is_cocycle = True
        except CocycleViolation:
            is_cocycle = False
        # build the product table without validation and test associativity
        mul = [[0] * 8 for _ in range(8)]
        for a in C4.elements():
            for x in C2.elements():
                for b in C4.elements():
                    for y in C2.elements():
                        val = C4.mul[C4.mul[a][INV.apply(x, b)]][table[x][y]]
                        mul[a * 2 + x][b * 2 + y] = val * 2 + C2.mul[x][y]
        associative = all(
            mul[mul[i][j]][k] == mul[i][mul[j][k]]
            for i in range(8)
            for j in range(8)
            for k in range(8)
        )
        assert associative == is_cocycle


def test_corrupting_cocycle_entry_breaks_associativity():
    data = c_q_data(INV)
    table = [list(r) for r in data.table]
    table[1][1] = 1  # not a cocycle value for the inversion action
    mul = [[0] * 8 for _ in range(8)]
    for a in C4.elements():
        for x in C2.elements():
            for b in C4.elements():
                for y in C2.elements():
                    val = C4.mul[C4.mul[a][INV.apply(x, b)]][table[x][y]]
                    mul[a * 2 + x][b * 2 + y] = val * 2 + C2.mul[x][y]
    with pytest.raises(InputError):
        validate_group(mul)
    # so check_cocycle, the product builder's precondition, must refuse the table
    with pytest.raises(CocycleViolation):
        check_cocycle(INV, table)


def test_gamma_hat_examples():
    small, embed = gamma_hat(c_q_data(INV))
    assert find_isomorphism(small.group, Q8) is not None
    triv = make_twisted_data(trivial_action(C2, C4))
    small2, _ = gamma_hat(triv)
    from twistcech.groups import cyclic_group, direct_product

    assert find_isomorphism(small2.group, direct_product(C4, C2)) is not None
    # the embedding commutes with both projections on every element
    big = build_twisted_product(c_q_data(INV))
    for x in small.group.elements():
        assert big.proj.map[embed.map[x]] == small.proj.map[x]


def _subgroups(g):
    """Every subgroup generated by at most two elements: all of them for the groups used here."""
    gens = itertools.chain.from_iterable(itertools.combinations(g.elements(), r) for r in (1, 2))
    return [subgroup_from_elements(g, elems) for elems in sorted({g.closure(c) for c in gens})]


def _klein_on_c4():
    """C2xC2 acting on C4 by inversion through its first factor, with the square twist pulled back."""
    klein = group("C2xC2")
    action = check_gamma_action(klein, C4, [range(4), range(4), C4.inv, C4.inv])
    return check_cocycle(action, [[2 if t1 >= 2 and t2 >= 2 else 0 for t2 in range(4)] for t1 in range(4)])


# the Klein group has subgroups {0, 2} and {0, 3}, whose inclusions are not prefixes
SUB_PRODUCT_DATA = [c_q_data(INV), grid_instance("X_HEX/Q8,q8_swap,square").data, _klein_on_c4()]


@pytest.mark.parametrize("data", SUB_PRODUCT_DATA, ids=["C4-inversion-square", "Q8-q8_swap-square", "C4-by-klein"])
def test_sub_product_inclusion_is_the_preimage_of_each_gamma_subgroup(data):
    for gsub in _subgroups(data.gamma):
        for sub in (None, center(data.g)):
            big = build_twisted_product(data)
            small, incl = sub_product(big, sub, gsub)
            g_embed = sub.embed if sub else tuple(data.g.elements())
            assert len(set(incl.map)) == small.group.order
            for x in small.group.elements():
                assert big.proj.map[incl.map[x]] == gsub.embed[small.proj.map[x]]
            for a in small.data.g.elements():
                assert incl.map[small.embed_g.map[a]] == big.embed_g.map[g_embed[a]]
            assert set(incl.map) == {big.pair_index(h, t) for h in g_embed for t in gsub.embed}
            if sub is None:
                assert set(incl.map) == {y for y in big.group.elements() if big.proj.map[y] in gsub.embed}


def test_restrict_to_both_subgroups_is_restricting_in_two_steps():
    for data in [*SUB_PRODUCT_DATA, *(inst.data for inst in default_grid())]:
        zsub = center(data.g)
        for gsub in _subgroups(data.gamma):
            both = restrict_to_subgroup(data, zsub, gsub)
            assert both == restrict_to_subgroup(restrict_to_subgroup(data, zsub), gamma_sub=gsub)
            assert both == restrict_to_subgroup(restrict_to_subgroup(data, gamma_sub=gsub), zsub)
    # the positional call on the centre keeps the whole acting group
    data = c_q_data(INV)
    assert restrict_to_subgroup(data, center(data.g)).gamma is data.gamma


def test_cohomologous_iso():
    # a == 1 gives the identity map
    data = make_twisted_data(INV)
    iso = cohomologous_iso(data, GammaOneCochain((0, 0)))
    assert iso.map == tuple(range(8))
    # a(t) = 2: explicit isomorphism between the two builds
    iso2 = cohomologous_iso(data, GammaOneCochain((0, 2)))
    assert iso2.is_bijective()
    # composing with the pointwise-inverse cochain returns to the start
    delta = coboundary(INV, GammaOneCochain((0, 2)))
    data2 = multiply_cocycles(data, delta)
    inv_cochain = GammaOneCochain((0, C4.inv[2]))
    iso_back = cohomologous_iso(data2, inv_cochain)
    composed = tuple(iso_back.map[iso2.map[x]] for x in range(8))
    assert composed == tuple(range(8))


def test_extract_from_d4():
    # D4 with its rotation subgroup: any reflection section gives inversion, trivial c
    rot = None
    for x in D4.elements():
        if D4.element_order(x) == 4:
            rot = sorted({D4.power(x, k) for k in range(4)})
            break
    reflection = next(y for y in D4.elements() if y not in rot)
    ext = extract_twisted_data(D4, rot, [0, reflection])
    theta = ext.data.action.theta[1].map
    c4sub = ext.data.g
    assert theta == tuple(c4sub.inv)  # conjugation by a reflection inverts rotations
    assert ext.data.is_trivial()


def test_extract_from_q8():
    i_sub = sorted({Q8.power(2, k) for k in range(4)})  # <i>
    j = next(x for x in Q8.elements() if x not in i_sub and Q8.element_order(x) == 4)
    ext = extract_twisted_data(Q8, i_sub, [0, j])
    sub = ext.data.g
    assert ext.data.action.theta[1].map == tuple(sub.inv)
    c_val = ext.data.c(1, 1)
    # j^2 = -1: the defect is the order-2 element of <i>
    assert sub.element_order(c_val) == 2


def test_extract_from_direct_product():
    from twistcech.groups import direct_product

    prod = direct_product(C4, C2)
    g_part = [x for x in prod.elements() if x % 2 == 0]
    section = [0, 1]
    ext = extract_twisted_data(prod, g_part, section)
    assert ext.data.is_trivial()
    assert all(a.map == tuple(range(4)) for a in ext.data.action.theta)


def test_extract_roundtrip_recovers_data():
    for data in (make_twisted_data(INV), c_q_data(INV)):
        built = build_twisted_product(data)
        ext = extract_twisted_data(
            built.group,
            list(built.embed_g.map),
            list(built.section),
        )
        assert ext.data.table == data.table
        assert tuple(a.map for a in ext.data.action.theta) == tuple(a.map for a in data.action.theta)


def test_extract_rejects_bad_sections():
    built = build_twisted_product(make_twisted_data(INV))
    with pytest.raises(SectionNotNormalised):
        extract_twisted_data(built.group, list(built.embed_g.map), [1, built.section[1]])
    # a negative index must not wrap round to the last element
    for bad in (-built.group.order + built.section[1], built.group.order):
        with pytest.raises(SectionNotNormalised, match="indices 0..7"):
            extract_twisted_data(built.group, list(built.embed_g.map), [0, bad])


def test_recocycle_identity_map():
    data = c_q_data(INV)
    rec = recocycle(data, (0, 0))
    assert rec.new.table == data.table
    assert tuple(a.map for a in rec.new.action.theta) == tuple(a.map for a in data.action.theta)


def test_recocycle_s3_transposition():
    data = make_twisted_data(trivial_action(C2, S3))
    transposition = next(x for x in S3.elements() if S3.element_order(x) == 2)
    rec = recocycle(data, (0, transposition))
    assert rec.c_s.is_trivial()  # s(t)^2 == 1
    assert rec.new.action.theta[1].map == tuple(S3.conjugate(transposition, x) for x in S3.elements())


def test_recocycle_rejects_bad_s():
    data = make_twisted_data(trivial_action(C2, S3))
    three_cycle = next(x for x in S3.elements() if S3.element_order(x) == 3)
    with pytest.raises((NotAOneCocycle, CsNotCentral)):
        recocycle(data, (0, three_cycle))


def test_recocycle_abelian_preserves_class():
    h2 = second_cohomology(INV)
    for s_val in C4.elements():
        for data in (make_twisted_data(INV), c_q_data(INV)):
            rec = recocycle(data, (0, s_val))
            # abelian G: Int is trivial, so theta is unchanged and c_s is a coboundary
            assert tuple(a.map for a in rec.new.action.theta) == tuple(a.map for a in INV.theta)
            assert h2.class_of(rec.new) == h2.class_of(data)
