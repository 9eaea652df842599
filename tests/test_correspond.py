"""Base-cover dictionary: descent, glued cocycles, fibres, reductions."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistcech.correspond as correspond
from twistcech.cech import CechSystem, enumerate_cocycles, gauge, h1_reduced, h1_twisted, make_cocycle
from twistcech.correspond import (
    GhatCocycleY,
    ascend,
    connected_reduction,
    descend,
    fiber_over_cover,
    grothendieck_fiber,
    normalizer_embedding_check,
    plain_cocycle,
    plain_h1,
    plain_system,
)
from twistcech.errors import BudgetExceeded, CarrierMismatch, Disconnected, InputError, NotFree, Work
from twistcech.extensions import build_twisted_product, make_twisted_data, trivial_action
from twistcech.fixtures import NERVES, c_q_data, default_grid, gamma_nerve, group, inversion_action, nerve
from twistcech.groups import conjugacy_classes
from twistcech.nerves import build_cover, monodromy, quotient, validate_nerve

C2, C4 = group("C2"), group("C4")
S3, D4, Q8 = group("S3"), group("D4"), group("Q8")
Y_TRI = nerve("Y_TRI")
X_HEX = gamma_nerve("X_HEX")
INV = inversion_action(C2, C4)
DESC = quotient(X_HEX)


def tree_gauged(y, gamma, value):
    """Oracle for the monodromy: the edge values gauged to the identity along the spanning tree.

    ``value(u, v)`` is the element on the oriented edge u -> v.  The tree
    frame is spread here from the BFS parents, not by ``nerves.tree_gauge``.
    """
    mul, inv = gamma.mul, gamma.inv
    parent, _ = y.spanning_forest()
    lam = {}
    for v, p in parent.items():  # parents first
        lam[v] = 0 if p is None else mul[value(v, p)][lam[p]]
    return tuple(mul[mul[inv[lam[u]]][value(u, v)]][lam[v]] for u, v in y.edges)


def least_conjugate(y, gamma, value):
    """Oracle for a cover's class: the least simultaneous conjugate of the tree-gauged values."""
    mul, inv = gamma.mul, gamma.inv
    return min(tuple(mul[inv[t]][mul[x][t]] for x in tree_gauged(y, gamma, value)) for t in gamma.elements())


def gamma_part(product, x):
    """The quotient-group value of each oriented edge of a glued cocycle."""
    return lambda u, v: product.proj.map[x.edge_value(u, v)]


def oracle_fiber(descent, product, h1):
    """The classes of ``h1`` whose quotient part has the cover's least conjugate."""
    y, gamma = descent.downstairs, product.data.gamma
    target = least_conjugate(y, gamma, descent.transition)
    return [cid for cid in range(len(h1)) if least_conjugate(y, gamma, gamma_part(product, h1.representative(cid))) == target]


def walked_fiber(base, h1):
    """Oracle for ``grothendieck_fiber``: walk the coefficient-group values off the spanning tree.

    Every tree-normalized k with k_ij Ad(g0_ij)(k_jk) == k_ik on each
    triangle, for g0 the base cocycle as given (not tree-normalized), is
    mapped to k g0 and read in ``h1``; returns the ascending class ids.
    """
    prod, y = base.product, base.base
    g, pmul, pinv, emb = prod.data.g, prod.group.mul, prod.group.inv, prod.embed_g.map
    idx = y.edge_index
    tree = set(y.spanning_forest()[1])
    free = [idx[e] for e in y.edges if e not in tree]
    g0 = base.cocycle.a
    ads = []
    for b in g0:  # Ad by each base edge value, inside the coefficient group
        pairs = [prod.index_pair(pmul[pmul[b][emb[x]]][pinv[b]]) for x in g.elements()]
        assert all(t == 0 for _, t in pairs)
        ads.append([x for x, _ in pairs])
    triangles = [(idx[(i, j)], idx[(j, k)], idx[(i, k)]) for (i, j, k) in y.triangles]
    k = [0] * len(y.edges)
    class_ids = set()
    for combo in itertools.product(g.elements(), repeat=len(free)):
        for e, val in zip(free, combo):
            k[e] = val
        if all(g.mul[k[ij]][ads[ij][k[jk]]] == k[ik] for ij, jk, ik in triangles):
            class_ids.add(h1.class_of(plain_cocycle(h1.system, [pmul[emb[x]][b] for x, b in zip(k, g0)])))
    return sorted(class_ids)


def glued(product, y, values):
    """The glued-group cocycle on ``y`` with the given edge values."""
    return GhatCocycleY(product, plain_cocycle(plain_system(y, product.group), values))


def ctwisted_violation(descent, data, values):
    """Reference for the c-corrected law on base edge data framed at the first index.

    ``values`` holds one coefficient element h_ij per sorted base edge; the
    law is h_ij theta_{t_ij}(h_jk) c(t_ij, t_jk) == h_ik on every triangle,
    with t the descent's transitions.  Returns the first triangle it fails
    on, or None.
    """
    y, g = descent.downstairs, data.g
    idx = y.edge_index
    for (i, j, k) in y.triangles:
        tij, tjk = descent.transition(i, j), descent.transition(j, k)
        lhs = g.mul[g.mul[values[idx[(i, j)]]][data.theta(tij, values[idx[(j, k)]])]][data.c(tij, tjk)]
        if lhs != values[idx[(i, k)]]:
            return (i, j, k)
    return None


def descended_rows():
    """Per free C2 grid row: the row, its descent, upstairs H^1, glued product and plain base system."""
    for inst in c2_grid():
        desc = quotient(inst.space)
        h1 = h1_twisted(CechSystem(inst.space, inst.data))
        prod = build_twisted_product(inst.data)
        yield inst, desc, h1, prod, plain_system(desc.downstairs, prod.group)


def c2_grid():
    return [
        inst
        for inst in default_grid()
        if inst.space_name in ("X_HEX", "X_TWO_TRI") and inst.space.free
    ]


def test_plain_h1_circle_counts():
    for g in (C4, S3, D4, Q8):
        assert len(plain_h1(Y_TRI, g)) == len(conjugacy_classes(g))


def test_plain_h1_matches_monodromy_classes():
    # over the circle a class is exactly a conjugacy class of monodromies
    h1 = plain_h1(Y_TRI, D4)
    seen = {least_conjugate(Y_TRI, D4, h1.representative(cid).edge_value) for cid in range(len(h1))}
    assert len(seen) == len(h1)


def test_transition_cocycle_monodromy_matches_cover_monodromy():
    rows = 0
    for inst in default_grid():
        if not inst.space.free:
            continue
        desc = quotient(inst.space)
        y = desc.downstairs
        if not y.is_connected():
            continue
        gamma = inst.space.gamma
        transitions = plain_cocycle(plain_system(y, gamma), [desc.transition(i, j) for (i, j) in y.edges])
        assert monodromy(desc) == tree_gauged(y, gamma, transitions.edge_value), inst.name
        rows += 1
    assert rows > 0


def test_induced_gamma_class_trivial_for_kernel_values():
    prod = build_twisted_product(make_twisted_data(INV))
    vals = [prod.embed_g.map[1], prod.embed_g.map[2], 0]
    x = glued(prod, Y_TRI, vals)
    assert least_conjugate(Y_TRI, C2, gamma_part(prod, x.cocycle)) == (0, 0, 0)
    assert connected_reduction(x).monodromy_group == (0,)


def test_induced_gamma_class_reflection_edge():
    prod = build_twisted_product(make_twisted_data(INV))
    vals = [0, 0, prod.pair_index(0, 1)]
    x = glued(prod, Y_TRI, vals)
    ph1 = plain_h1(Y_TRI, prod.group)
    assert ph1.class_of(x.cocycle) in fiber_over_cover(DESC, prod, ph1)
    assert least_conjugate(Y_TRI, C2, gamma_part(prod, x.cocycle)) == least_conjugate(Y_TRI, C2, DESC.transition)


def test_projection_constant_on_gauge_orbits():
    prod = build_twisted_product(make_twisted_data(INV))
    vals = [0, 0, prod.pair_index(1, 1)]
    x = glued(prod, Y_TRI, vals)
    base = least_conjugate(Y_TRI, C2, gamma_part(prod, x.cocycle))
    for g1 in prod.group.elements():
        for g2 in prod.group.elements():
            h = (g1, g2, 0)
            moved = gauge(x.cocycle, h)
            assert least_conjugate(Y_TRI, C2, gamma_part(prod, moved)) == base


def test_descend_ascend_roundtrip_on_classes():
    for inst, desc, h1, prod, base_sys in descended_rows():
        for cid in range(len(h1)):
            x = h1.representative(cid)
            down = descend(x, desc, prod, base_sys)
            up = ascend(down, desc, h1.system)
            assert h1.class_of(up) == cid


def test_descend_ascend_roundtrip_key_for_key():
    # ascend(descend(x)) is x gauged so that its vertex functions vanish along
    # the section, key for key; and the descended cocycle lies over the cover
    classes = 0
    for inst, desc, h1, prod, base_sys in descended_rows():
        space, y = inst.space, desc.downstairs
        target = least_conjugate(y, C2, desc.transition)
        for cid in range(len(h1)):
            x = h1.representative(cid)
            # the vertex at s_i . t takes the gauge phi_t(s_i)
            h = [0] * space.nerve.n_vertices
            for s in desc.section:
                for t in space.gamma.elements():
                    h[space.act(s, t)] = x.phi[t][s]
            framed = gauge(x, h)
            assert all(framed.phi[t][s] == 0 for t in space.gamma.elements() for s in desc.section)
            down = descend(x, desc, prod, base_sys)
            assert least_conjugate(y, C2, gamma_part(prod, down.cocycle)) == target
            assert ascend(down, desc, h1.system).key == framed.key, (inst.name, cid)
            classes += 1
    assert classes == 46


def test_descended_edges_meet_the_c_corrected_law():
    # split into (h_ij, t_ij), the descended edges carry the transitions and
    # G-parts that satisfy the c-corrected law, checked here by its reference
    laws = 0
    for inst, desc, h1, prod, base_sys in descended_rows():
        y = desc.downstairs
        for cid in range(len(h1)):
            down = descend(h1.representative(cid), desc, prod, base_sys)
            pairs = [prod.index_pair(v) for v in down.cocycle.a]
            assert [t for _, t in pairs] == [desc.transition(i, j) for i, j in y.edges]
            assert ctwisted_violation(desc, inst.data, [h for h, _ in pairs]) is None, (inst.name, cid)
            laws += len(y.triangles)
    assert laws > 0


def test_ascend_refuses_a_system_off_the_cover_or_the_data():
    desc = quotient(X_HEX)
    data, other = make_twisted_data(INV), c_q_data(INV)
    system = CechSystem(X_HEX, data)
    prod = build_twisted_product(data)
    down = descend(h1_twisted(system).representative(0), desc, prod, plain_system(desc.downstairs, prod.group))
    assert ascend(down, desc, system).system is system
    # the same space with the central square twist, and the cocycle's data on another cover
    for wrong in (CechSystem(X_HEX, other), CechSystem(gamma_nerve("X_TWO_TRI"), data)):
        with pytest.raises(CarrierMismatch):
            ascend(down, desc, wrong)


def test_ascend_refuses_a_cocycle_on_another_base_or_off_the_transitions():
    data = make_twisted_data(INV)
    system = CechSystem(X_HEX, data)
    prod = build_twisted_product(data)
    y = DESC.downstairs
    down = descend(h1_twisted(system).representative(1), DESC, prod, plain_system(y, prod.group))
    elsewhere = glued(prod, nerve("Y_FILLED_TRI"), [0] * len(nerve("Y_FILLED_TRI").edges))
    with pytest.raises(CarrierMismatch, match="base differs"):
        ascend(elsewhere, DESC, system)
    # X_HEX's base is a hollow triangle, so any edge values are a glued cocycle
    for e, (i, j) in enumerate(y.edges):
        values = list(down.cocycle.a)
        h, t = prod.index_pair(values[e])
        values[e] = prod.pair_index(h, C2.mul[t][1])
        with pytest.raises(InputError, match=rf"^edge \({i},{j}\) does not carry the descent transition$"):
            ascend(glued(prod, y, values), DESC, system)


def test_descend_refuses_a_product_or_base_system_of_other_data():
    data = make_twisted_data(INV)
    system = CechSystem(X_HEX, data)
    x = h1_twisted(system).representative(1)
    y = DESC.downstairs
    prod, other = build_twisted_product(data), build_twisted_product(c_q_data(INV))
    with pytest.raises(CarrierMismatch, match="different twisted data"):
        descend(x, DESC, other, plain_system(y, other.group))
    for wrong in (plain_system(y, other.group), plain_system(nerve("Y_FILLED_TRI"), prod.group), plain_system(y, C4)):
        with pytest.raises(CarrierMismatch, match="plain glued-group system"):
            descend(x, DESC, prod, wrong)
    with pytest.raises(CarrierMismatch, match="different cover"):
        descend(x, quotient(gamma_nerve("X_TWO_TRI")), prod, plain_system(y, prod.group))


def test_descend_the_trivial_pair():
    # the trivial pair descends to zero G-parts and ascends back to itself
    system = CechSystem(X_HEX, make_twisted_data(INV))
    from twistcech.cech import trivial_pair

    x = make_cocycle(system, *trivial_pair(system))
    prod = build_twisted_product(system.data)
    down = descend(x, DESC, prod, plain_system(DESC.downstairs, prod.group))
    assert all(prod.index_pair(v)[0] == 0 for v in down.cocycle.a)
    assert ascend(down, DESC, system).key == x.key


def test_to_ghat_cocycle_trivial_case():
    # the glued-group cocycle of the trivial pair is (0, t_ij) on every edge
    system = CechSystem(X_HEX, make_twisted_data(INV))
    from twistcech.cech import trivial_pair

    x = make_cocycle(system, *trivial_pair(system))
    prod = build_twisted_product(system.data)
    down = descend(x, DESC, prod, plain_system(DESC.downstairs, prod.group))
    for (i, j) in DESC.downstairs.edges:
        assert down.edge_pair(i, j) == (0, DESC.transition(i, j))


def test_downstairs_class_count_matches_upstairs():
    for inst in c2_grid():
        desc = quotient(inst.space)
        system = CechSystem(inst.space, inst.data)
        h1 = h1_twisted(system)
        # enumerate c-twisted base data directly, modulo the twisted gauge
        data = inst.data
        g = data.g
        y = desc.downstairs
        idx = y.edge_index
        parent, tree = y.spanning_forest()
        tree_set = set(tree)
        nontree = [e for e in y.edges if e not in tree_set]
        candidates = []
        for combo in itertools.product(g.elements(), repeat=len(nontree)):
            vals = [0] * len(y.edges)
            for e, v in zip(nontree, combo):
                vals[idx[e]] = v
            if ctwisted_violation(desc, data, vals) is None:
                candidates.append(vals)
        classes = set()
        for cand in candidates:
            orbit = []
            for f0 in g.elements():
                f = _propagate_gauge(desc, data, cand, f0)
                orbit.append(tuple(f))
            classes.add(min(_apply_y_gauge(desc, data, cand, f) for f in orbit))
        assert len(classes) == len(h1)


def _propagate_gauge(desc, data, cand, root_value):
    """Residual gauge after tree normalization: set the root, spread along
    tree edges by f_j = theta_{t_ij}^-1(f_i) where the edge value is 1."""
    y = desc.downstairs
    parent, _ = y.spanning_forest()
    order = sorted(parent, key=lambda v: _pdepth(parent, v))
    f = [0] * y.n_vertices
    for v in order:
        p = parent[v]
        if p is None:
            f[v] = root_value
        else:
            f[v] = data.theta_inv(desc.transition(p, v), f[p])
    return f


def _pdepth(parent, v):
    d = 0
    while parent[v] is not None:
        v = parent[v]
        d += 1
    return d


def _apply_y_gauge(desc, data, cand, f):
    y = desc.downstairs
    g = data.g
    out = []
    for k, (i, j) in enumerate(y.edges):
        tij = desc.transition(i, j)
        out.append(g.mul[g.mul[g.inv[f[i]]][cand[k]]][data.theta(tij, f[j])])
    return tuple(out)


def test_ascend_rejects_mutated_values():
    # X_TWO_TRI's base has a triangle: a changed G-part breaks d1's triangle site there
    system = CechSystem(gamma_nerve("X_TWO_TRI"), c_q_data(INV))
    desc = quotient(gamma_nerve("X_TWO_TRI"))
    prod = build_twisted_product(system.data)
    base_sys = plain_system(desc.downstairs, prod.group)
    down = descend(h1_twisted(system).representative(0), desc, prod, base_sys)
    bad_vals = list(down.cocycle.a)
    h, t = prod.index_pair(bad_vals[0])
    bad_vals[0] = prod.pair_index((h + 1) % 4, t)
    assert ctwisted_violation(desc, system.data, [prod.index_pair(v)[0] for v in bad_vals]) == (0, 1, 2)
    with pytest.raises(InputError, match=r"violation at \('triangle', \(0, 1, 2\)"):
        plain_cocycle(base_sys, bad_vals)


def test_ghat_product_law_reproduces_glue():
    # edgewise, the glued product law is the coefficient product twisted by
    # the action and corrected by the twist of the transitions
    data = c_q_data(INV)
    prod = build_twisted_product(data)
    system = CechSystem(X_HEX, data)
    x = h1_twisted(system).representative(1)
    descend(x, DESC, prod, plain_system(DESC.downstairs, prod.group))  # no triangles over the circle; law below
    data2 = c_q_data(INV)
    sys2 = CechSystem(gamma_nerve("X_TWO_TRI"), data2)
    desc2 = quotient(gamma_nerve("X_TWO_TRI"))
    x2 = h1_twisted(sys2).representative(0)
    prod2 = build_twisted_product(data2)
    gx2 = descend(x2, desc2, prod2, plain_system(desc2.downstairs, prod2.group))
    y2 = desc2.downstairs
    prod2 = gx2.product
    for (i, j, k) in y2.triangles:
        gij = gx2.cocycle.edge_value(i, j)
        gjk = gx2.cocycle.edge_value(j, k)
        gik = gx2.cocycle.edge_value(i, k)
        assert prod2.group.mul[gij][gjk] == gik
        (hij, tij), (hjk, tjk) = prod2.index_pair(gij), prod2.index_pair(gjk)
        expect = (
            data2.g.mul[data2.g.mul[hij][data2.theta(tij, hjk)]][data2.c(tij, tjk)],
            C2.mul[tij][tjk],
        )
        assert prod2.index_pair(gik) == expect


def test_reduced_classes_biject_with_fiber():
    for inst in c2_grid():
        desc = quotient(inst.space)
        system = CechSystem(inst.space, inst.data)
        h1 = h1_twisted(system)
        h1r = h1_reduced(h1)
        prod = build_twisted_product(inst.data)
        ph1 = plain_h1(desc.downstairs, prod.group)
        fib = set(fiber_over_cover(desc, prod, ph1))
        image_by_reduced = {}
        for cid in range(len(h1)):
            x = h1.representative(cid)
            gx = descend(x, desc, prod, ph1.system)
            rid = h1r.class_of(x)
            image_by_reduced.setdefault(rid, set()).add(ph1.class_of(gx.cocycle))
        assert all(len(s) == 1 for s in image_by_reduced.values())
        landed = {next(iter(s)) for s in image_by_reduced.values()}
        assert landed == fib
        assert len(landed) == len(h1r)


def test_fiber_examples():
    # D4 over the circle, nontrivial double cover: the two reflection classes
    prod = build_twisted_product(make_twisted_data(INV))
    fib = fiber_over_cover(DESC, prod, plain_h1(DESC.downstairs, prod.group))
    assert len(fib) == 2
    # Q8 over the circle: the two classes mixing outside the rotation part
    prod_q = build_twisted_product(c_q_data(INV))
    fib_q = fiber_over_cover(DESC, prod_q, plain_h1(DESC.downstairs, prod_q.group))
    assert len(fib_q) == 2
    # trivial target cover: classes reducing to the coefficient subgroup
    two = gamma_nerve("X_TWO_TRI")
    desc2 = quotient(two)
    ph1 = plain_h1(desc2.downstairs, prod.group)
    fib2 = fiber_over_cover(desc2, prod, ph1)
    assert fib2 == oracle_fiber(desc2, prod, ph1) and fib2
    for cid in fib2:
        assert set(gamma_part(prod, ph1.representative(cid))(i, j) for i, j in desc2.downstairs.edges) == {0}


def test_fibers_reject_an_h1_set_of_another_nerve_or_group():
    prod = build_twisted_product(make_twisted_data(INV))
    base = GhatCocycleY(prod, plain_h1(DESC.downstairs, prod.group).representative(0))
    for foreign in (plain_h1(nerve("Y_FILLED_TRI"), prod.group), plain_h1(DESC.downstairs, D4)):
        with pytest.raises(CarrierMismatch):
            fiber_over_cover(DESC, prod, foreign)
        with pytest.raises(CarrierMismatch):
            grothendieck_fiber(base, DESC, foreign)


def test_grothendieck_fiber_refuses_a_base_class_over_another_cover():
    # the identity cocycle induces the trivial cover, not the connected double cover of X_HEX
    prod = build_twisted_product(make_twisted_data(INV))
    ph1 = plain_h1(DESC.downstairs, prod.group)
    with pytest.raises(InputError, match="does not induce the given cover"):
        grothendieck_fiber(glued(prod, DESC.downstairs, [0] * len(DESC.downstairs.edges)), DESC, ph1)


def test_grothendieck_fiber_matches():
    # from every base class of the fibre, on every free grid row, the
    # conjugation-twisted classes land on exactly the fibre's classes, and
    # on the classes the walk over the off-tree edges finds
    rows = 0
    for inst in c2_grid():
        desc = quotient(inst.space)
        prod = build_twisted_product(inst.data)
        ph1 = plain_h1(desc.downstairs, prod.group)
        fib = fiber_over_cover(desc, prod, ph1)
        assert fib == oracle_fiber(desc, prod, ph1), inst.name
        for cid in fib:
            base = GhatCocycleY(prod, ph1.representative(cid))
            assert [ph1.class_of(r) for r in grothendieck_fiber(base, desc, ph1)] == fib, inst.name
            assert walked_fiber(base, ph1) == fib, inst.name
        rows += bool(fib)
    assert rows == len(c2_grid()) == 22


def test_grothendieck_fiber_where_a_triangle_binds_two_free_edges():
    # a filled triangle 123 joined to vertex 0 by three tree edges: its law
    # ties the free edges through Ad(g0), which for S3 and Q8 coefficients
    # differs from Ad(g0)^-1
    y = validate_nerve(4, [(0, 1), (0, 2), (0, 3), (1, 2, 3)])
    assert y.spanning_forest()[1] == ((0, 1), (0, 2), (0, 3))
    cover, desc = build_cover(y, C2, (0, 0, 0, 1, 1, 0))
    for g, size in ((S3, 11), (Q8, 28)):
        data = make_twisted_data(trivial_action(C2, g))
        prod = build_twisted_product(data)
        ph1 = plain_h1(y, prod.group)
        fib = fiber_over_cover(desc, prod, ph1)
        assert fib == oracle_fiber(desc, prod, ph1)
        assert len(fib) == len(h1_reduced(h1_twisted(CechSystem(cover, data)))) == size
        for cid in fib:
            rep = ph1.representative(cid)
            # the base class, as its representative and gauged off the tree
            for x in (rep, gauge(rep, [(5 * v + cid) % prod.group.order for v in range(y.n_vertices)])):
                base = GhatCocycleY(prod, x)
                assert [ph1.class_of(r) for r in grothendieck_fiber(base, desc, ph1)] == walked_fiber(base, ph1) == fib


def test_grothendieck_fiber_on_an_annulus_with_thirteen_off_tree_edges():
    # a triangulated annulus: 12 vertices, 24 edges, 12 triangles, so 13
    # edges off the spanning tree; a walk over them would take |G|^13 steps
    y = validate_nerve(12, [t for i in range(6) for t in ((i, (i + 1) % 6, 6 + i), ((i + 1) % 6, 6 + i, 6 + (i + 1) % 6))])
    assert len(y.edges) - len(y.spanning_forest()[1]) == 13
    cover, desc = build_cover(y, C2, plain_h1(y, C2).representative(1).a)
    # the annulus is a circle up to homotopy: over its connected double
    # cover the fibre is one class per conjugacy class of G
    for g, size in ((Q8, 5), (S3, 3)):
        data = make_twisted_data(trivial_action(C2, g))
        prod = build_twisted_product(data)
        ph1 = plain_h1(y, prod.group)
        fib = fiber_over_cover(desc, prod, ph1)
        assert fib == oracle_fiber(desc, prod, ph1)
        assert len(fib) == len(h1_reduced(h1_twisted(CechSystem(cover, data)))) == len(conjugacy_classes(g)) == size
        for cid in fib:
            base = GhatCocycleY(prod, ph1.representative(cid))
            assert [ph1.class_of(r) for r in grothendieck_fiber(base, desc, ph1)] == fib


def test_grothendieck_fiber_builds_no_cocycle_and_reads_the_clock(count_calls):
    # the fibre is read off the keys ``h1`` already holds: no candidate
    # cocycle is built, and the scan reads the clock
    prod = build_twisted_product(make_twisted_data(INV))
    ph1 = plain_h1(DESC.downstairs, prod.group)
    fib = fiber_over_cover(DESC, prod, ph1)
    base = GhatCocycleY(prod, ph1.representative(fib[0]))
    built = count_calls(correspond, "plain_cocycle")
    assert [ph1.class_of(r) for r in grothendieck_fiber(base, DESC, ph1, work=Work(enum=1))] == fib
    assert built["plain_cocycle"] == 0
    with pytest.raises(BudgetExceeded, match="^time limit reached in grothendieck_fiber's walk$"):
        grothendieck_fiber(base, DESC, ph1, work=Work(deadline=0.0))


def test_induced_gamma_class_matches_the_gamma_system_oracle():
    # oracle: validate the projected values as a cocycle of the plain
    # quotient-group system; the tree-normalized representatives project to
    # tree-normalized values, so the fibre reads them without a gauge
    for inst in c2_grid():
        desc = quotient(inst.space)
        y = desc.downstairs
        prod = build_twisted_product(inst.data)
        gamma = prod.data.gamma
        gamma_system = plain_system(y, gamma)
        ph1 = plain_h1(y, prod.group)
        for cid in range(len(ph1)):
            x = ph1.representative(cid)
            gcoc = plain_cocycle(gamma_system, [prod.proj.map[v] for v in x.a])
            assert tree_gauged(y, gamma, gcoc.edge_value) == gcoc.a, (inst.name, cid)
            assert connected_reduction(GhatCocycleY(prod, x)).monodromy_group == gamma.closure(gcoc.a), (inst.name, cid)
        assert fiber_over_cover(desc, prod, ph1) == oracle_fiber(desc, prod, ph1), inst.name


def test_grothendieck_trivial_cover_degenerates():
    # base with trivial transitions: the description collapses to plain
    # classes modulo the constant quotient-group action
    two = gamma_nerve("X_TWO_TRI")
    desc2 = quotient(two)
    data = make_twisted_data(INV)
    prod = build_twisted_product(data)
    vals = [0] * len(desc2.downstairs.edges)
    base = glued(prod, desc2.downstairs, vals)
    ph1 = plain_h1(desc2.downstairs, prod.group)
    fib = grothendieck_fiber(base, desc2, ph1)
    expected = fiber_over_cover(desc2, prod, ph1)
    assert [ph1.class_of(r) for r in fib] == expected


def test_connected_reduction_cases():
    prod = build_twisted_product(make_twisted_data(INV))
    ph1 = plain_h1(Y_TRI, prod.group)
    # a frame that puts the reflection on both tree edges, so the raw
    # quotient values of a kernel-valued class generate all of C2
    flip = prod.pair_index(0, 1)
    for cid in range(len(ph1)):
        rep = ph1.representative(cid)
        image = C2.closure(tree_gauged(Y_TRI, C2, gamma_part(prod, rep)))
        for z in (rep, gauge(rep, (0, flip, flip))):
            red = connected_reduction(GhatCocycleY(prod, z))
            assert red.monodromy_group == image
            if image == (0,):
                assert red.sub_product.group.order == C4.order
            else:
                assert red.sub_product.group.order == prod.group.order
            # extension along the inclusion recovers the class
            ext = plain_cocycle(ph1.system, tuple(red.embedding.map[v] for v in red.reduced.cocycle.a))
            assert ph1.class_of(ext) == cid


def test_monodromy_readers_refuse_a_disconnected_base():
    # each component's monodromy is defined up to its own conjugation, so no
    # one subgroup or conjugate set stands for the cover
    two = validate_nerve(4, [(0, 1), (2, 3)])
    data = make_twisted_data(INV)
    prod = build_twisted_product(data)
    _, desc = build_cover(two, C2, (1, 0))
    with pytest.raises(Disconnected):
        fiber_over_cover(desc, prod, plain_h1(two, prod.group))
    with pytest.raises(Disconnected):
        connected_reduction(glued(prod, two, (0, 0)))
    with pytest.raises(Disconnected):
        normalizer_embedding_check(two, data, [0, 1])


def test_connected_reduction_compiles_one_system_per_call(count_calls):
    import twistcech.cech as cech

    prod = build_twisted_product(make_twisted_data(INV))
    ph1 = plain_h1(Y_TRI, prod.group)
    assert len(ph1) == 5
    compiled = count_calls(cech, "_compile")
    for cid in range(len(ph1)):
        connected_reduction(GhatCocycleY(prod, ph1.representative(cid)))
    # the gauged cocycle stays in ph1.system; only the subgroup product's system is new
    assert compiled["_compile"] == 5


def test_connected_reduction_builds_only_the_subgroup_product(count_calls):
    import twistcech.extensions as extensions

    prod = build_twisted_product(make_twisted_data(INV))
    ph1 = plain_h1(Y_TRI, prod.group)
    assert len(ph1) == 5
    built = count_calls(extensions, "build_twisted_product")
    for cid in range(len(ph1)):
        connected_reduction(GhatCocycleY(prod, ph1.representative(cid)))
    # the full product is the one passed in; each call builds the product over its monodromy group
    assert built["build_twisted_product"] == 5


def test_normalizer_embedding_full_and_trivial():
    data = make_twisted_data(INV)
    rep_full = normalizer_embedding_check(Y_TRI, data, [0, 1])
    assert rep_full.injective
    assert len(rep_full.full_monodromy_classes) == 2
    rep_triv = normalizer_embedding_check(Y_TRI, data, [0])
    assert rep_triv.injective
    assert len(rep_triv.full_monodromy_classes) == 4  # classes of the circle in C4
    assert len(rep_triv.orbits) == 3  # the inversion action folds 1 with 3


def test_normalizer_embedding_q8():
    data = c_q_data(INV)
    rep = normalizer_embedding_check(Y_TRI, data, [0, 1])
    assert rep.injective


def test_descend_requires_free_action():
    space = gamma_nerve("Y_TRI_TRIVC2")
    data = make_twisted_data(INV)
    system = CechSystem(space, data)
    from twistcech.cech import trivial_pair

    make_cocycle(system, *trivial_pair(system))  # twisted side accepts it
    with pytest.raises(NotFree):
        quotient(space)  # the base-side machinery rejects non-free actions


# connected bases: the built-in nerves and the rank-two wedge of two hollow triangles
COVER_BASES = (
    *(n for n in NERVES.values() if n.is_connected()),
    validate_nerve(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
)
COVER_GROUPS = ("C2", "C4", "S3", "Q8")


def _cover_data(gamma_name):
    """Twisted data over each quotient group: C2 acting trivially, and for C2 the inversion products."""
    gamma = group(gamma_name)
    extra = (make_twisted_data(INV), c_q_data(INV)) if gamma_name == "C2" else ()
    return (make_twisted_data(trivial_action(gamma, C2)), *extra)


@functools.lru_cache(maxsize=None)
def _tree_normalized(base, gamma_name):
    return [x.a for x in enumerate_cocycles(plain_system(COVER_BASES[base], group(gamma_name)))]


@functools.lru_cache(maxsize=None)
def _glued_h1(base, gamma_name, which):
    prod = build_twisted_product(_cover_data(gamma_name)[which])
    return prod, plain_h1(COVER_BASES[base], prod.group)


@st.composite
def generated_covers(draw):
    """A tree-normalized Gamma-cocycle on a connected base, gauged by a random vertex function."""
    base = draw(st.integers(0, len(COVER_BASES) - 1))
    gamma_name = draw(st.sampled_from(COVER_GROUPS))
    y, gamma = COVER_BASES[base], group(gamma_name)
    cocycles = _tree_normalized(base, gamma_name)
    normalized = cocycles[draw(st.integers(0, len(cocycles) - 1))]
    h = draw(st.lists(st.integers(0, gamma.order - 1), min_size=y.n_vertices, max_size=y.n_vertices))
    mul, inv = gamma.mul, gamma.inv
    values = tuple(mul[mul[inv[h[u]]][a]][h[v]] for (u, v), a in zip(y.edges, normalized))
    which = draw(st.integers(0, len(_cover_data(gamma_name)) - 1))
    return base, gamma_name, normalized, values, which


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(generated_covers())
def test_generated_covers_have_their_transitions_monodromy_and_fibre(case):
    base, gamma_name, normalized, values, which = case
    y, gamma = COVER_BASES[base], group(gamma_name)
    cover, built = build_cover(y, gamma, values)
    desc = quotient(cover)
    assert desc.section == built.section
    assert tuple(desc.transition(i, j) for i, j in y.edges) == values
    # the monodromy is tree-normalized and cohomologous to the input, so a simultaneous conjugate
    assert monodromy(desc) in {tuple(gamma.conjugate(t, x) for x in normalized) for t in gamma.elements()}
    assert monodromy(desc) == tree_gauged(y, gamma, desc.transition)
    prod, ph1 = _glued_h1(base, gamma_name, which)
    assert fiber_over_cover(desc, prod, ph1) == oracle_fiber(desc, prod, ph1)
