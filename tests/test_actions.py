"""Twisted (G, Gamma)-actions: axioms, dictionary with product actions, transport."""

import itertools
import random

import pytest
from test_extensions import _all_actions, _subgroups

from twistcech.actions import (
    from_ghat,
    homogeneous_space,
    is_twisted_equivariant,
    quotient_by_g,
    regular_ghat_set,
    to_ghat,
    transport,
    validate_twisted_action,
)
from twistcech.errors import AxiomI, AxiomII, AxiomIII, InputError, NotAGroupAction, SubgroupNotInvariant
from twistcech.extensions import build_twisted_product, check_cocycle, make_twisted_data, recocycle, second_cohomology
from twistcech.fixtures import c_q_data, default_grid, group, inversion_action, q8_swap_action
from twistcech.groups import center, left_cosets

C2, C4 = group("C2"), group("C4")
S3, Q8, D4 = group("S3"), group("Q8"), group("D4")
INV = inversion_action(C2, C4)
DATA_TRIV = make_twisted_data(INV)
DATA_CQ = c_q_data(INV)


def theta_of_full_order(gamma_name, g_name):
    """Every action of the cyclic group Gamma on G whose generator acts by an automorphism of order |Gamma|."""
    return [a for a in _all_actions(gamma_name, g_name) if len({auto.map for auto in a.theta}) == group(gamma_name).order]


C3_ON_KLEIN = theta_of_full_order("C3", "C2xC2")[0]  # the product is A4
C4_ON_Q8 = theta_of_full_order("C4", "Q8")[0]
# theta_t^-1 != theta_t: C3 on C2xC2 untwisted, and C4 on Q8 with both classes of H^2(C4; Z(Q8))
NON_INVOLUTIVE = [
    make_twisted_data(C3_ON_KLEIN),
    *(check_cocycle(C4_ON_Q8, rep) for rep in second_cohomology(C4_ON_Q8).representatives),
]
PRODUCTS = [build_twisted_product(data) for data in (DATA_CQ, *NON_INVOLUTIVE)]


def fixture_sets():
    """Twisted sets with carriers of size at most 32, both twists, theta of order 2, 3 and 4."""
    out = []
    for data in (DATA_TRIV, DATA_CQ):
        out.append(regular_ghat_set(build_twisted_product(data)))
        out.append(single_point(data))
    out.append(homogeneous_space(DATA_TRIV, [0, 2]))
    sw = make_twisted_data(q8_swap_action(C2))
    out.append(regular_ghat_set(build_twisted_product(sw)))
    out += [regular_ghat_set(build_twisted_product(data)) for data in NON_INVOLUTIVE]
    out.append(homogeneous_space(NON_INVOLUTIVE[0], [0]))
    out.append(homogeneous_space(NON_INVOLUTIVE[1], center(Q8).embed))
    return out


def single_point(data):
    g_act = tuple((0,) for _ in data.g.elements())
    t_act = tuple((0,) for _ in data.gamma.elements())
    return validate_twisted_action(data, 1, g_act, t_act)


def test_self_right_translation_needs_trivial_twist():
    # carrier G, right G-multiplication, t acting by theta_t^-1: axiom (iii)
    # forces the twist to act trivially, so it validates only without twist
    for data, expect_ok in ((DATA_TRIV, True), (DATA_CQ, False)):
        g = data.g
        g_act = tuple(tuple(g.mul[m][a] for m in g.elements()) for a in g.elements())
        t_act = tuple(tuple(data.theta_inv(t, m) for m in g.elements()) for t in data.gamma.elements())
        if expect_ok:
            validate_twisted_action(data, g.order, g_act, t_act)
        else:
            with pytest.raises(AxiomIII):
                validate_twisted_action(data, g.order, g_act, t_act)


def least_law_failure(group_, table):
    """The least (a, b) with m.(ab) != (m.a).b at some point m, by scanning every pair."""
    pairs = itertools.product(group_.elements(), repeat=2)
    size = len(table[0])
    return next(
        ((a, b) for a, b in pairs if any(table[b][table[a][m]] != table[group_.mul[a][b]][m] for m in range(size))),
        None,
    )


def test_not_a_group_action_names_the_least_failing_pair():
    # one G-row replaced by a random permutation; Q8's -1 is a row that no generator names
    rng = random.Random(37)
    refused = 0
    for m in fixture_sets():
        g = m.data.g
        for _ in range(12):
            rows = list(m.g_act)
            rows[rng.randrange(1, g.order)] = tuple(rng.sample(range(m.size), m.size))
            witness = least_law_failure(g, rows)
            if witness is None:
                continue
            with pytest.raises(NotAGroupAction) as err:
                validate_twisted_action(m.data, m.size, rows, m.gamma_act)
            assert err.value.witness == witness
            refused += 1
    assert refused >= 100


def test_identity_row_that_moves_a_point_is_not_a_group_action():
    m = regular_ghat_set(PRODUCTS[1])
    with pytest.raises(NotAGroupAction) as err:
        validate_twisted_action(m.data, m.size, (m.g_act[1], *m.g_act[1:]), m.gamma_act)
    assert err.value.witness == (0,)


def test_axiom_i_refuses_a_moving_identity_of_gamma():
    m = regular_ghat_set(PRODUCTS[0])
    with pytest.raises(AxiomI) as err:
        validate_twisted_action(m.data, m.size, m.g_act, (m.gamma_act[1], m.gamma_act[1]))
    assert err.value.witness == (0,)


def test_axiom_ii_refuses_a_gamma_part_that_ignores_theta():
    # Gamma acting by the identity on the free A4 carrier: (m.theta_t(a)).t = m.theta_t(a) != m.a = (m.t).a
    m = regular_ghat_set(PRODUCTS[1])
    data = m.data
    ident = tuple(m.points())
    moved = next(a for a in data.g.elements() if data.theta(1, a) != a)
    with pytest.raises(AxiomII) as err:
        validate_twisted_action(data, m.size, m.g_act, (ident,) * data.gamma.order)
    assert err.value.witness == (0, moved, 1)


@pytest.mark.parametrize(
    "part, message",
    [("g", "g_act must be |G| x carrier"), ("gamma", "gamma_act must be |Gamma| x carrier"), ("repeat", "permutations")],
)
def test_validate_refuses_tables_of_the_wrong_shape_or_not_permutations(part, message):
    m = regular_ghat_set(PRODUCTS[0])
    g_act, gamma_act = list(m.g_act), list(m.gamma_act)
    if part == "g":
        g_act.pop()
    elif part == "gamma":
        gamma_act[1] = gamma_act[1][1:]
    else:
        gamma_act[1] = (0,) * m.size
    with pytest.raises(InputError, match=message):
        validate_twisted_action(m.data, m.size, g_act, gamma_act)


def test_regular_product_carrier_is_twisted_for_any_twist():
    for data in (DATA_TRIV, DATA_CQ):
        m = regular_ghat_set(build_twisted_product(data))
        assert m.size == 8


def test_single_point_with_nontrivial_twist():
    m = single_point(DATA_CQ)
    assert m.size == 1


def test_to_ghat_from_ghat_roundtrip():
    for m in fixture_sets():
        n = to_ghat(m)
        back = from_ghat(n)
        assert back.g_act == m.g_act
        assert back.gamma_act == m.gamma_act


def test_to_ghat_of_regular_is_multiplication():
    for prod in PRODUCTS:
        m = regular_ghat_set(prod)
        n = to_ghat(m, prod)
        grp = prod.group
        for x in grp.elements():
            for p in grp.elements():
                assert n.act[x][p] == grp.mul[p][x]


def test_axiom_iii_rewrite_via_translated_twist():
    # twisted actions also satisfy (m.t1).t2 == (m.(t1 t2)).theta_{t1t2}^-1(c)
    for m in fixture_sets():
        data = m.data
        for t1 in data.gamma.elements():
            for t2 in data.gamma.elements():
                t12 = data.gamma.mul[t1][t2]
                z = data.theta_inv(t12, data.c(t1, t2))
                for p in range(m.size):
                    lhs = m.gamma_act[t2][m.gamma_act[t1][p]]
                    rhs = m.g_act[z][m.gamma_act[t12][p]]
                    assert lhs == rhs


def test_equivariance_identity_and_translations():
    for prod in PRODUCTS:
        m = regular_ghat_set(prod)
        grp = prod.group
        ident = tuple(range(m.size))
        assert is_twisted_equivariant(ident, m, m)
        zmembers = set(center(grp).embed)
        for g_elem in grp.elements():
            left = tuple(grp.mul[g_elem][p] for p in range(m.size))
            assert is_twisted_equivariant(left, m, m)  # opposite-side translation
            right = tuple(grp.mul[p][g_elem] for p in range(m.size))
            assert is_twisted_equivariant(right, m, m) == (g_elem in zmembers)


def test_equivariant_iff_product_equivariant():
    for prod in PRODUCTS:
        m = regular_ghat_set(prod)
        n = to_ghat(m, prod)
        grp = prod.group
        for g_elem in grp.elements():
            f = tuple(grp.mul[g_elem][p] for p in range(m.size))
            twisted = is_twisted_equivariant(f, m, m)
            ghat_side = all(f[n.act[x][p]] == n.act[x][f[p]] for x in grp.elements() for p in range(m.size))
            assert twisted == ghat_side


def test_quotient_by_g():
    for prod in PRODUCTS:
        m = regular_ghat_set(prod)
        orbits, rows, proj = quotient_by_g(m)
        # free action: the quotient is the regular Gamma-set, carrier size over group order
        assert len(orbits) == m.size // m.data.g.order == m.data.gamma.order
        # the projection intertwines the Gamma-parts
        for t in m.data.gamma.elements():
            for p in range(m.size):
                assert proj[m.gamma_act[t][p]] == rows[t][proj[p]]
    # G acting transitively gives a single fixed point
    data = DATA_TRIV
    g = data.g
    g_act = tuple(tuple(g.mul[m_][a] for m_ in g.elements()) for a in g.elements())
    t_act = tuple(tuple(data.theta_inv(t, x) for x in g.elements()) for t in data.gamma.elements())
    mm = validate_twisted_action(data, g.order, g_act, t_act)
    orbits2, rows2, _ = quotient_by_g(mm)
    assert len(orbits2) == 1 and rows2 == ((0,), (0,))


def test_homogeneous_space_extremes():
    full = homogeneous_space(DATA_CQ, list(C4.elements()))
    assert full.size == 1
    for data in (DATA_CQ, *NON_INVOLUTIVE):
        g = data.g
        points = homogeneous_space(data, [0])
        assert points.size == g.order
        for x in g.elements():
            for a in g.elements():
                assert points.g_act[a][x] == g.mul[g.inv[a]][x]
            for t in data.gamma.elements():
                assert points.gamma_act[t][x] == data.theta_inv(t, x)


def coset_oracle(data, subgroup_elements):
    """The left coset action g1 . (gH) = (g1 g)H, t . (gH) = theta_t(g)H turned right by
    m . g1 = g1^-1 . m and m . t = t^-1 . m (the coset space carries no twist): (size, g_act, gamma_act)."""
    g, gamma = data.g, data.gamma
    cosets, coset_of = left_cosets(g, subgroup_elements)
    reps = [cs[0] for cs in cosets]
    g_left = [tuple(coset_of[g.mul[a][r]] for r in reps) for a in g.elements()]
    t_left = [tuple(coset_of[data.theta(t, r)] for r in reps) for t in gamma.elements()]
    return len(reps), tuple(g_left[g.inv[a]] for a in g.elements()), tuple(t_left[gamma.inv[t]] for t in gamma.elements())


# the grid's theta are involutions; theta of order 3 and 4 tell theta_t^-1 from theta_t
ORACLE_DATA = [row.data for row in default_grid()] + [
    make_twisted_data(action)
    for pair in (("C3", "C2xC2"), ("C3", "Q8"), ("C4", "Q8"), ("C4", "D4"))
    for action in theta_of_full_order(*pair)
]


def test_homogeneous_space_is_the_left_coset_action_turned_right():
    orders = set()  # of the theta with a proper coset space compared
    for data in ORACLE_DATA:
        for sub in _subgroups(data.g):
            if any(data.theta(t, h) not in sub.parent_to_sub for t in data.gamma.elements() for h in sub.embed):
                with pytest.raises(SubgroupNotInvariant):
                    homogeneous_space(data, sub.embed)
                continue
            m = homogeneous_space(data, sub.embed)
            assert (m.size, m.g_act, m.gamma_act) == coset_oracle(data, sub.embed)
            assert m.data == make_twisted_data(data.action)
            if m.size > 1:
                orders.add(len({auto.map for auto in data.action.theta}))
    assert {3, 4} <= orders


def test_homogeneous_space_invariance_check():
    # D4 swapped by an outer automorphism: pick a reflection subgroup not preserved
    d4 = D4
    outer = None
    from twistcech.groups import automorphisms, inner_automorphisms

    inner = {a.map for a in inner_automorphisms(d4)}
    for a in automorphisms(d4):
        if a.map not in inner and d4.element_order(2) and tuple(a.map[a.map[x]] for x in d4.elements()) == tuple(range(8)):
            outer = a
            break
    assert outer is not None
    from twistcech.extensions import check_gamma_action

    action = check_gamma_action(C2, d4, (tuple(range(8)), outer.map))
    data = make_twisted_data(action)
    reflection = next(x for x in d4.elements() if d4.element_order(x) == 2 and outer.map[x] != x)
    with pytest.raises(SubgroupNotInvariant):
        homogeneous_space(data, [0, reflection])


def test_transport_identity_and_roundtrip():
    # a central map s with s(1)=1 recocycles any data; transport then compensate
    for prod in PRODUCTS:
        data = prod.data
        g, n = data.g, data.gamma.order
        m = regular_ghat_set(prod)
        same = transport(m, recocycle(data, (0,) * n))
        assert same.gamma_act == m.gamma_act
        for s in itertools.product(center(g).embed, repeat=n - 1):
            rec = recocycle(data, (0, *s))
            moved = transport(m, rec)
            rec_back = recocycle(rec.new, (0, *(g.inv[x] for x in s)))
            back = transport(moved, rec_back)
            assert back.gamma_act == m.gamma_act
            assert back.data.table == data.table


def test_transport_functorial_on_equivariant_maps():
    for prod in PRODUCTS:
        data = prod.data
        m = regular_ghat_set(prod)
        rec = recocycle(data, (0, *(center(data.g).embed[-1] for _ in range(data.gamma.order - 1))))
        moved = transport(m, rec)
        grp = prod.group
        for g_elem in grp.elements():
            f = tuple(grp.mul[g_elem][p] for p in range(m.size))
            if is_twisted_equivariant(f, m, m):
                assert is_twisted_equivariant(f, moved, moved)


def test_sections_equivalence_lemma():
    """G-maps from a free product-set are product-equivariant exactly when
    the induced section of the orbit quotient is equivariant below."""
    for data in (DATA_TRIV, DATA_CQ):
        prod = build_twisted_product(data)
        e = regular_ghat_set(prod)  # free, 8 points
        grp = prod.group
        g = data.g
        for m in (single_point(data), homogeneous_space_right(data)):
            # G-maps: determined by images of orbit representatives
            orbits, gamma_rows, proj = quotient_by_g(e)
            reps = [orb[0] for orb in orbits]
            for images in itertools.product(range(m.size), repeat=len(reps)):
                smap = [None] * e.size
                ok = True
                for rep, img in zip(reps, images):
                    for a in g.elements():
                        point = e.g_act[a][rep]
                        val = m.g_act[a][img]
                        if smap[point] is None:
                            smap[point] = val
                        elif smap[point] != val:
                            ok = False
                if not ok or any(v is None for v in smap):
                    continue
                ghat_equivariant = is_twisted_equivariant(tuple(smap), e, m)
                # induced section of (E x M)/G over E/G
                pairs = [(p, smap[p]) for p in range(e.size)]
                orbit_key = {}
                for p in range(e.size):
                    for mm in range(m.size):
                        orb = frozenset(
                            (e.g_act[a][p], m.g_act[a][mm]) for a in g.elements()
                        )
                        orbit_key[(p, mm)] = orb
                section = {proj[p]: orbit_key[(p, smap[p])] for p in range(e.size)}
                equivariant_below = True
                for t in data.gamma.elements():
                    for ob in range(len(orbits)):
                        moved_base = gamma_rows[t][ob]
                        p = orbits[ob][0]
                        moved_pair = orbit_key[(e.gamma_act[t][p], m.gamma_act[t][smap[p]])]
                        if section[moved_base] != moved_pair:
                            equivariant_below = False
                assert ghat_equivariant == equivariant_below


def homogeneous_space_right(data):
    # the twist values {0, 2} lie in the subgroup, so the coset tables also
    # satisfy the twisted axioms for the full data
    m = homogeneous_space(data, [0, 2])
    return validate_twisted_action(data, m.size, m.g_act, m.gamma_act)
