"""Base-cover dictionary: descent, glued cocycles, fibres, reductions."""

import itertools

import pytest

from twistcech.cech import gauge, h1_reduced, h1_twisted, make_cocycle, system_from_data
from twistcech.correspond import (
    GhatCocycleY,
    ascend,
    check_ctwisted,
    connected_reduction,
    descend,
    fiber_over_cover,
    from_ghat_cocycle,
    ghat_cocycle,
    grothendieck_fiber,
    induced_gamma_class,
    monodromy_of_plain_cocycle,
    normalizer_embedding_check,
    plain_cocycle,
    plain_h1,
    to_ghat_cocycle,
)
from twistcech.errors import InputError, NotFree
from twistcech.extensions import build_twisted_product, make_twisted_data, trivial_action
from twistcech.fixtures import c_q_data, default_grid, gamma_nerve, group, inversion_action, nerve
from twistcech.groups import conjugacy_classes
from twistcech.nerves import monodromy, quotient

C2, C4 = group("C2"), group("C4")
S3, D4, Q8 = group("S3"), group("D4"), group("Q8")
Y_TRI = nerve("Y_TRI")
X_HEX = gamma_nerve("X_HEX")
INV = inversion_action(C2, C4)
DESC = quotient(X_HEX)


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
    seen = set()
    for cid in range(len(h1)):
        rep = h1.representative(cid)
        mono = monodromy_of_plain_cocycle(Y_TRI, D4, rep)
        seen.add(mono.canonical)
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
        transitions = plain_cocycle(y, gamma, [desc.transition(i, j) for (i, j) in y.edges])
        plain = monodromy_of_plain_cocycle(y, gamma, transitions)
        cover = monodromy(desc)
        assert plain.assignment == cover.assignment, inst.name
        assert plain.canonical == cover.canonical, inst.name
        rows += 1
    assert rows > 0


def test_induced_gamma_class_trivial_for_kernel_values():
    prod = build_twisted_product(make_twisted_data(INV))
    vals = [prod.embed_g.map[1], prod.embed_g.map[2], 0]
    x = ghat_cocycle(prod, Y_TRI, vals)
    gcoc, mono = induced_gamma_class(x)
    assert all(v == 0 for v in gcoc.a)
    assert mono.image == (0,)


def test_induced_gamma_class_reflection_edge():
    prod = build_twisted_product(make_twisted_data(INV))
    vals = [0, 0, prod.pair_index(0, 1)]
    x = ghat_cocycle(prod, Y_TRI, vals)
    _, mono = induced_gamma_class(x)
    assert mono.canonical == monodromy(DESC).canonical


def test_projection_constant_on_gauge_orbits():
    prod = build_twisted_product(make_twisted_data(INV))
    vals = [0, 0, prod.pair_index(1, 1)]
    x = ghat_cocycle(prod, Y_TRI, vals)
    base = induced_gamma_class(x)[1].canonical
    for g1 in prod.group.elements():
        for g2 in prod.group.elements():
            h = (g1, g2, 0)
            moved = gauge(x.cocycle, h)
            assert induced_gamma_class(GhatCocycleY(prod, moved))[1].canonical == base


def test_descend_ascend_roundtrip_on_classes():
    for inst in c2_grid():
        desc = quotient(inst.space)
        system = system_from_data(inst.space, inst.data)
        h1 = h1_twisted(system)
        for cid in range(len(h1)):
            x = h1.representative(cid)
            down = descend(x, desc)
            up = ascend(down)
            assert h1.class_of(up) == cid


def test_descend_trivial_cocycle():
    system = system_from_data(X_HEX, make_twisted_data(INV))
    from twistcech.cech import trivial_pair

    x = make_cocycle(system, *trivial_pair(system))
    down = descend(x, DESC)
    assert all(v == 0 for v in down.values)


def test_downstairs_class_count_matches_upstairs():
    for inst in c2_grid():
        desc = quotient(inst.space)
        system = system_from_data(inst.space, inst.data)
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
            try:
                candidates.append(check_ctwisted(desc, data, vals))
            except InputError:
                continue
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
        out.append(g.mul[g.mul[g.inv[f[i]]][cand.values[k]]][data.theta(tij, f[j])])
    return tuple(out)


def test_ascend_rejects_mutated_values():
    system = system_from_data(gamma_nerve("X_TWO_TRI"), c_q_data(INV))
    desc = quotient(gamma_nerve("X_TWO_TRI"))
    h1 = h1_twisted(system)
    down = descend(h1.representative(0), desc)
    bad_vals = list(down.values)
    bad_vals[0] = (bad_vals[0] + 1) % 4
    with pytest.raises(InputError):
        check_ctwisted(desc, down.data, bad_vals)


def test_to_ghat_cocycle_trivial_case():
    system = system_from_data(X_HEX, make_twisted_data(INV))
    from twistcech.cech import trivial_pair

    x = make_cocycle(system, *trivial_pair(system))
    down = descend(x, DESC)
    prod = build_twisted_product(down.data)
    gx = to_ghat_cocycle(down, prod)
    for (i, j) in DESC.downstairs.edges:
        g_part, t_part = gx.edge_pair(i, j)
        assert g_part == 0
        assert t_part == DESC.transition(i, j)


def test_to_ghat_roundtrip_and_cover_class():
    for inst in c2_grid():
        desc = quotient(inst.space)
        system = system_from_data(inst.space, inst.data)
        h1 = h1_twisted(system)
        prod = build_twisted_product(inst.data)
        target = monodromy(desc).canonical
        for cid in range(len(h1)):
            x = h1.representative(cid)
            down = descend(x, desc)
            gx = to_ghat_cocycle(down, prod)
            _, mono = induced_gamma_class(gx)
            assert mono.canonical == target
            back = from_ghat_cocycle(gx, desc)
            assert back.values == down.values
            assert h1.class_of(ascend(back)) == cid


def test_ghat_product_law_reproduces_glue():
    # edgewise, the glued product law is the coefficient product twisted by
    # the action and corrected by the twist of the transitions
    data = c_q_data(INV)
    prod = build_twisted_product(data)
    system = system_from_data(X_HEX, data)
    x = h1_twisted(system).representative(1)
    down = descend(x, DESC)
    to_ghat_cocycle(down, prod)  # no triangles over the circle; law below
    data2 = c_q_data(INV)
    sys2 = system_from_data(gamma_nerve("X_TWO_TRI"), data2)
    desc2 = quotient(gamma_nerve("X_TWO_TRI"))
    x2 = h1_twisted(sys2).representative(0)
    down2 = descend(x2, desc2)
    gx2 = to_ghat_cocycle(down2, build_twisted_product(data2))
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
        system = system_from_data(inst.space, inst.data)
        h1 = h1_twisted(system)
        h1r = h1_reduced(h1)
        prod = build_twisted_product(inst.data)
        ph1 = plain_h1(desc.downstairs, prod.group)
        fib = {cid for cid, _ in fiber_over_cover(desc, prod)}
        image_by_reduced = {}
        for cid in range(len(h1)):
            x = h1.representative(cid)
            gx = to_ghat_cocycle(descend(x, desc), prod)
            rid = h1r.class_of(x)
            image_by_reduced.setdefault(rid, set()).add(ph1.class_of(gx.cocycle))
        assert all(len(s) == 1 for s in image_by_reduced.values())
        landed = {next(iter(s)) for s in image_by_reduced.values()}
        assert landed == fib
        assert len(landed) == len(h1r)


def test_fiber_examples():
    # D4 over the circle, nontrivial double cover: the two reflection classes
    prod = build_twisted_product(make_twisted_data(INV))
    fib = fiber_over_cover(DESC, prod)
    assert len(fib) == 2
    # Q8 over the circle: the two classes mixing outside the rotation part
    prod_q = build_twisted_product(c_q_data(INV))
    fib_q = fiber_over_cover(DESC, prod_q)
    assert len(fib_q) == 2
    # trivial target cover: classes reducing to the coefficient subgroup
    two = gamma_nerve("X_TWO_TRI")
    desc2 = quotient(two)
    fib2 = fiber_over_cover(desc2, prod)
    for cid, mono in fib2:
        assert mono.image == (0,)


def test_grothendieck_fiber_matches():
    for inst in c2_grid():
        desc = quotient(inst.space)
        prod = build_twisted_product(inst.data)
        fib = fiber_over_cover(desc, prod)
        if not fib:
            continue
        ph1 = plain_h1(desc.downstairs, prod.group)
        counts = set()
        for cid, _ in fib:
            base = GhatCocycleY(prod, ph1.representative(cid))
            counts.add(len(grothendieck_fiber(base, desc)))
        assert counts == {len(fib)}


def test_grothendieck_trivial_cover_degenerates():
    # base with trivial transitions: the description collapses to plain
    # classes modulo the constant quotient-group action
    two = gamma_nerve("X_TWO_TRI")
    desc2 = quotient(two)
    data = make_twisted_data(INV)
    prod = build_twisted_product(data)
    vals = [0] * len(desc2.downstairs.edges)
    base = ghat_cocycle(prod, desc2.downstairs, vals)
    fib = grothendieck_fiber(base, desc2)
    expected = fiber_over_cover(desc2, prod)
    assert len(fib) == len(expected)


def test_connected_reduction_cases():
    prod = build_twisted_product(make_twisted_data(INV))
    ph1 = plain_h1(Y_TRI, prod.group)
    for cid in range(len(ph1)):
        x = GhatCocycleY(prod, ph1.representative(cid))
        _, mono = induced_gamma_class(x)
        red = connected_reduction(x)
        assert red.monodromy_group == mono.image
        if mono.image == (0,):
            assert red.sub_product.group.order == C4.order
        else:
            assert red.sub_product.group.order == prod.group.order
        # extension along the inclusion recovers the class
        ext = plain_cocycle(Y_TRI, prod.group, tuple(red.embedding.map[v] for v in red.reduced.cocycle.a))
        assert ph1.class_of(ext) == cid


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
    system = system_from_data(space, data)
    from twistcech.cech import trivial_pair

    make_cocycle(system, *trivial_pair(system))  # twisted side accepts it
    with pytest.raises(NotFree):
        quotient(space)  # the base-side machinery rejects non-free actions
