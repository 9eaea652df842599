"""Twisted (G, Gamma)-actions: axioms, dictionary with product actions, transport."""

import itertools

import pytest

from twistcech.actions import (
    convert_side,
    from_ghat,
    homogeneous_space,
    is_twisted_equivariant,
    quotient_by_g,
    regular_ghat_set,
    to_ghat,
    transport,
    validate_twisted_action,
)
from twistcech.errors import AxiomIII, SubgroupNotInvariant
from twistcech.extensions import build_twisted_product, make_twisted_data, recocycle, trivial_action
from twistcech.fixtures import c_q_data, group, inversion_action, q8_swap_action
from twistcech.groups import center

C2, C4 = group("C2"), group("C4")
S3, Q8, D4 = group("S3"), group("Q8"), group("D4")
INV = inversion_action(C2, C4)
DATA_TRIV = make_twisted_data(INV)
DATA_CQ = c_q_data(INV)


def fixture_sets():
    """Twisted sets with carriers of size at most 16, both twists."""
    out = []
    for data in (DATA_TRIV, DATA_CQ):
        prod = build_twisted_product(data)
        out.append(regular_ghat_set(prod, "right"))
        out.append(regular_ghat_set(prod, "left"))
        out.append(single_point(data))
    out.append(homogeneous_space(DATA_TRIV, [0, 2]))
    sw = make_twisted_data(q8_swap_action(C2))
    out.append(regular_ghat_set(build_twisted_product(sw), "right"))
    return out


def single_point(data):
    g_act = tuple((0,) for _ in data.g.elements())
    t_act = tuple((0,) for _ in data.gamma.elements())
    return validate_twisted_action(data, 1, g_act, t_act, "right")


def test_self_right_translation_needs_trivial_twist():
    # carrier G, right G-multiplication, t acting by theta_t^-1: axiom (iii)
    # forces the twist to act trivially, so it validates only without twist
    for data, expect_ok in ((DATA_TRIV, True), (DATA_CQ, False)):
        g = data.g
        g_act = tuple(tuple(g.mul[m][a] for m in g.elements()) for a in g.elements())
        t_act = tuple(tuple(data.theta_inv(t, m) for m in g.elements()) for t in data.gamma.elements())
        if expect_ok:
            validate_twisted_action(data, g.order, g_act, t_act, "right")
        else:
            with pytest.raises(AxiomIII):
                validate_twisted_action(data, g.order, g_act, t_act, "right")


def test_regular_product_carrier_is_twisted_for_any_twist():
    for data in (DATA_TRIV, DATA_CQ):
        m = regular_ghat_set(build_twisted_product(data), "right")
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
        assert back.side == m.side


def test_to_ghat_of_regular_is_multiplication():
    prod = build_twisted_product(DATA_CQ)
    m = regular_ghat_set(prod, "right")
    n = to_ghat(m, prod)
    grp = prod.group
    for x in grp.elements():
        for p in grp.elements():
            assert n.act[x][p] == grp.mul[p][x]


def test_convert_side_involution():
    for m in fixture_sets():
        twice = convert_side(convert_side(m))
        assert twice.g_act == m.g_act
        assert twice.gamma_act == m.gamma_act
        assert twice.side == m.side


def test_convert_side_matches_ghat_flip():
    # converting then assembling equals assembling then the standard flip
    for m in fixture_sets():
        prod = build_twisted_product(m.data)
        flipped = to_ghat(convert_side(m), prod)
        direct = to_ghat(m, prod)
        grp = prod.group
        for x in grp.elements():
            for p in range(m.size):
                assert flipped.act[x][p] == direct.act[grp.inv[x]][p]


def test_axiom_iii_rewrite_via_translated_twist():
    # right actions also satisfy (m.t1).t2 == (m.(t1 t2)).theta_{t1t2}^-1(c)
    for m in fixture_sets():
        if m.side != "right":
            continue
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
    prod = build_twisted_product(DATA_CQ)
    m = regular_ghat_set(prod, "right")
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
    prod = build_twisted_product(DATA_CQ)
    m = regular_ghat_set(prod, "right")
    n = to_ghat(m, prod)
    grp = prod.group
    for g_elem in grp.elements():
        f = tuple(grp.mul[g_elem][p] for p in range(m.size))
        twisted = is_twisted_equivariant(f, m, m)
        ghat_side = all(f[n.act[x][p]] == n.act[x][f[p]] for x in grp.elements() for p in range(m.size))
        assert twisted == ghat_side


def test_quotient_by_g():
    prod = build_twisted_product(DATA_CQ)
    m = regular_ghat_set(prod, "right")
    orbits, rows, proj = quotient_by_g(m)
    assert len(orbits) == 2  # the quotient is the regular Gamma-set
    # G acting transitively gives a single fixed point
    data = DATA_TRIV
    g = data.g
    g_act = tuple(tuple(g.mul[m_][a] for m_ in g.elements()) for a in g.elements())
    t_act = tuple(tuple(data.theta_inv(t, x) for x in g.elements()) for t in data.gamma.elements())
    mm = validate_twisted_action(data, g.order, g_act, t_act, "right")
    orbits2, rows2, _ = quotient_by_g(mm)
    assert len(orbits2) == 1 and rows2 == ((0,), (0,))
    # free action: orbit count is carrier size over group order
    assert len(orbits) == m.size // g.order
    # the projection intertwines the Gamma-parts
    for t in data.gamma.elements():
        for p in range(m.size):
            assert proj[m.gamma_act[t][p]] == rows[t][proj[p]]


def test_homogeneous_space_extremes():
    full = homogeneous_space(DATA_CQ, list(C4.elements()))
    assert full.size == 1
    points = homogeneous_space(DATA_CQ, [0])
    assert points.size == 4
    for t in C2.elements():
        for x in C4.elements():
            assert points.gamma_act[t][x] == DATA_CQ.theta(t, x)


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
    rec0 = recocycle(DATA_CQ, (0, 0))
    m = regular_ghat_set(build_twisted_product(DATA_CQ), "right")
    same = transport(m, rec0)
    assert same.gamma_act == m.gamma_act
    # abelian G: any map s with s(1)=1 recocycles; transport then compensate
    for s_val in C4.elements():
        rec = recocycle(DATA_CQ, (0, s_val))
        moved = transport(m, rec)
        rec_back = recocycle(rec.new, (0, C4.inv[s_val]))
        back = transport(moved, rec_back)
        assert back.gamma_act == m.gamma_act
        assert back.data.table == DATA_CQ.table


def test_transport_functorial_on_equivariant_maps():
    prod = build_twisted_product(DATA_CQ)
    m = regular_ghat_set(prod, "right")
    rec = recocycle(DATA_CQ, (0, 1))
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
        e = regular_ghat_set(prod, "right")  # free, 8 points
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
    m = convert_side(homogeneous_space(data, [0, 2]))
    return validate_twisted_action(data, m.size, m.g_act, m.gamma_act, "right")
