"""End-to-end exercise with a nonabelian acting group.

With the symmetric group acting, the element-order bookkeeping in the
vertex-compatibility law (products t2*t1 versus t1*t2, pullback indices) no
longer degenerates, so this pins the composition conventions across the
enumerator, descent, gluing and the monodromy filtration.  The central
twist used here is extracted from the dicyclic group of order 12, the
nonsplit central extension of the symmetric group by the order-2 group.
"""

import pytest

from twistcech.cech import CechSystem, gauge, h1_reduced, h1_twisted
from twistcech.correspond import (
    GhatCocycleY,
    ascend,
    descend,
    fiber_over_cover,
    grothendieck_fiber,
    plain_cocycle,
    plain_h1,
)
from twistcech.errors import BudgetExceeded
from twistcech.extensions import (
    build_twisted_product,
    check_cocycle,
    check_gamma_action,
    extract_twisted_data,
    make_twisted_data,
    trivial_action,
)
from twistcech.fixtures import group
from twistcech.groups import center, find_isomorphism, validate_group
from twistcech.nerves import build_cover, monodromy, validate_nerve

S3 = group("S3")


def dicyclic12():
    """<a, b | a^6 = 1, b^2 = a^3, b a b^-1 = a^-1>, elements a^i b^j."""

    def mul(x, y):
        i1, j1 = divmod(x, 2)
        i2, j2 = divmod(y, 2)
        if j1 == 0:
            i, j = (i1 + i2) % 6, j2
        else:
            i, j = (i1 - i2) % 6, (1 + j2) % 2
            if j1 and j2:
                i = (i + 3) % 6  # b^2 = a^3
        return i * 2 + j

    return validate_group([[mul(x, y) for y in range(12)] for x in range(12)], label="Dic3")


def s3_twists():
    """The trivial and the dicyclic central twist of S3 by C2."""
    dic = dicyclic12()
    zc = center(dic)
    assert len(zc.embed) == 2
    seen: dict[frozenset, int] = {}
    section = []
    for x in dic.elements():
        key = frozenset(dic.mul[x][h] for h in zc.embed)
        if key not in seen:
            seen[key] = x
            section.append(x)
    ext = extract_twisted_data(dic, list(zc.embed), section)
    iso = find_isomorphism(ext.gamma, S3)
    assert iso is not None
    back = [0] * 6
    for src, dst in enumerate(iso.map):
        back[dst] = src
    c2 = ext.data.g
    action = check_gamma_action(S3, c2, tuple(ext.data.action.theta[back[t]].map for t in S3.elements()))
    table = tuple(
        tuple(ext.data.c(back[t1], back[t2]) for t2 in S3.elements()) for t1 in S3.elements()
    )
    twisted = check_cocycle(action, table)
    assert not twisted.is_trivial()
    assert find_isomorphism(build_twisted_product(twisted).group, dic) is not None
    return make_twisted_data(trivial_action(S3, c2)), twisted


WEDGE = validate_nerve(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def s3_cover():
    """A free S3-cover of the rank-two wedge, built from a surjection.

    The tree edges (0, v) carry the identity and the two loops, through the
    edges (1, 2) and (3, 4), carry a transposition and a 3-cycle.
    """
    assert WEDGE.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    r = next(x for x in S3.elements() if S3.element_order(x) == 3)
    values = (0, 0, 0, 0, t, r)
    assert S3.closure(values) == tuple(S3.elements())
    cover, descent = build_cover(WEDGE, S3, values)
    assert cover.nerve.n_vertices == 30
    assert len(cover.nerve.components()) == 1
    assert monodromy(descent) == values
    return cover, descent, values


def test_nonabelian_gamma_correspondence():
    cover, descent, values = s3_cover()
    data_triv, data_dic = s3_twists()
    y = descent.downstairs
    # the cover's class in the plain H^1 of the base with S3 values
    gamma_h1 = plain_h1(y, S3)
    target = gamma_h1.class_of(plain_cocycle(gamma_h1.system, values))
    for data in (data_triv, data_dic):
        system = CechSystem(cover, data)
        h1 = h1_twisted(system)
        h1r = h1_reduced(h1)
        assert len(h1r) == len(h1)  # the symmetric group has trivial centre
        prod = build_twisted_product(data)
        ph1 = plain_h1(descent.downstairs, prod.group)
        fib = fiber_over_cover(descent, prod, ph1)
        assert len(fib) == len(h1r)
        # oracle: the classes whose quotient part lies in the cover's S3 class
        projected = [plain_cocycle(gamma_h1.system, [prod.proj.map[v] for v in ph1.representative(cid).a]) for cid in range(len(ph1))]
        assert fib == [cid for cid, z in enumerate(projected) if gamma_h1.class_of(z) == target]
        # from every base class, the conjugation classes land on the fibre
        for cid in fib:
            reps = grothendieck_fiber(GhatCocycleY(prod, ph1.representative(cid)), descent, ph1)
            assert [ph1.class_of(r) for r in reps] == fib
        # a gauge off the tree frame, so that tree edges carry quotient
        # values that are not their own inverses
        frame = [prod.pair_index(0, v % S3.order) for v in range(y.n_vertices)]
        images = set()
        for cid in range(len(h1)):
            x = h1.representative(cid)
            gx = descend(x, descent, prod, ph1.system)
            assert h1.class_of(ascend(gx, descent, h1.system)) == cid
            for z in (gx.cocycle, gauge(gx.cocycle, frame)):
                # the projection is a validated quotient-group cocycle in the cover's class
                gcoc = plain_cocycle(gamma_h1.system, [prod.proj.map[v] for v in z.a])
                assert gamma_h1.class_of(gcoc) == target
            images.add(ph1.class_of(gx.cocycle))
        assert images == set(fib)


def test_nonabelian_gamma_class_counts_against_group_oracle():
    # classes over the wedge with full monodromy = pairs in the glued group
    # mapping onto the two chosen quotient generators, up to conjugation
    cover, descent, values = s3_cover()
    data_triv, data_dic = s3_twists()
    y = descent.downstairs
    for data in (data_triv, data_dic):
        prod = build_twisted_product(data)
        grp = prod.group
        targets = {}
        for g1 in grp.elements():
            for g2 in grp.elements():
                key = (prod.proj.map[g1], prod.proj.map[g2])
                if key != values[4:]:
                    continue
                canon = min(
                    (
                        grp.mul[grp.mul[grp.inv[t]][g1]][t],
                        grp.mul[grp.mul[grp.inv[t]][g2]][t],
                    )
                    for t in grp.elements()
                )
                targets[canon] = True
        fib = fiber_over_cover(descent, prod, plain_h1(y, prod.group))
        assert len(fib) == len(targets)
        system = CechSystem(cover, data)
        assert len(h1_twisted(system)) == len(targets)


def test_nonabelian_gamma_abelian_machinery_refuses():
    cover, _, _ = s3_cover()
    _, data_dic = s3_twists()
    from twistcech.cech import coefficient_ladder, abelian_complex

    ladder = coefficient_ladder(cover, data_dic)
    with pytest.raises(BudgetExceeded):
        abelian_complex(ladder.base.sys_z)
