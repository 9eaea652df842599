"""End-to-end exercise with a nonabelian acting group.

With the symmetric group acting, the element-order bookkeeping in the
vertex-compatibility law (products t2*t1 versus t1*t2, pullback indices) no
longer degenerates, so this pins the composition conventions across the
enumerator, descent, gluing and the monodromy filtration.  The central
twist used here is extracted from the dicyclic group of order 12, the
nonsplit central extension of the symmetric group by the order-2 group.
"""

import pytest

from twistcech.cech import h1_reduced, h1_twisted, system_from_data
from twistcech.correspond import (
    GhatCocycleY,
    ascend,
    descend,
    fiber_over_cover,
    induced_gamma_class,
    plain_h1,
    to_ghat_cocycle,
)
from twistcech.errors import BudgetExceeded
from twistcech.extensions import (
    TwistedData,
    build_twisted_product,
    check_cocycle,
    check_gamma_action,
    extract_twisted_data,
    make_twisted_data,
    trivial_action,
)
from twistcech.fixtures import group
from twistcech.groups import center, find_isomorphism, validate_group
from twistcech.nerves import build_cover, make_monodromy, monodromy, pi1, quotient, validate_nerve

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
    twisted = TwistedData(action, check_cocycle(action, table))
    assert not twisted.cocycle.is_trivial()
    assert find_isomorphism(build_twisted_product(twisted).group, dic) is not None
    return make_twisted_data(trivial_action(S3, c2)), twisted


def s3_cover():
    """A free S3-cover of the rank-two wedge, built from a surjection."""
    y = validate_nerve(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    pres = pi1(y)
    assert pres.rank == 2
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    r = next(x for x in S3.elements() if S3.element_order(x) == 3)
    rep = make_monodromy(S3, pres, (t, r))
    assert rep.image == tuple(S3.elements())
    cover, descent = build_cover(y, rep)
    assert cover.nerve.n_vertices == 30
    assert len(cover.nerve.components()) == 1
    return cover, descent, rep


def test_nonabelian_gamma_correspondence():
    cover, descent, rep = s3_cover()
    data_triv, data_dic = s3_twists()
    for data in (data_triv, data_dic):
        system = system_from_data(cover, data)
        h1 = h1_twisted(system)
        h1r = h1_reduced(h1)
        assert len(h1r) == len(h1)  # the symmetric group has trivial centre
        prod = build_twisted_product(data)
        fib = fiber_over_cover(descent, prod)
        assert len(fib) == len(h1r)
        ph1 = plain_h1(descent.downstairs, prod.group)
        images = set()
        for cid in range(len(h1)):
            x = h1.representative(cid)
            down = descend(x, descent)
            assert h1.class_of(ascend(down)) == cid
            gx = to_ghat_cocycle(down, prod)
            _, mono = induced_gamma_class(gx)
            assert mono.canonical == rep.canonical
            images.add(ph1.class_of(gx.cocycle))
        assert images == {cid for cid, _ in fib}


def test_nonabelian_gamma_class_counts_against_group_oracle():
    # classes over the wedge with full monodromy = pairs in the glued group
    # mapping onto the two chosen quotient generators, up to conjugation
    cover, descent, rep = s3_cover()
    data_triv, data_dic = s3_twists()
    y = descent.downstairs
    for data in (data_triv, data_dic):
        prod = build_twisted_product(data)
        grp = prod.group
        targets = {}
        pres = rep.presentation
        for g1 in grp.elements():
            for g2 in grp.elements():
                key = (prod.proj.map[g1], prod.proj.map[g2])
                if key != tuple(rep.assignment):
                    continue
                canon = min(
                    (
                        grp.mul[grp.mul[grp.inv[t]][g1]][t],
                        grp.mul[grp.mul[grp.inv[t]][g2]][t],
                    )
                    for t in grp.elements()
                )
                targets[canon] = True
        fib = fiber_over_cover(descent, prod)
        assert len(fib) == len(targets)
        system = system_from_data(cover, data)
        assert len(h1_twisted(system)) == len(targets)


def test_nonabelian_gamma_abelian_machinery_refuses():
    cover, _, _ = s3_cover()
    _, data_dic = s3_twists()
    from twistcech.cech import coefficient_ladder, abelian_complex

    ladder = coefficient_ladder(cover, data_dic)
    with pytest.raises(BudgetExceeded):
        abelian_complex(ladder.sys_z)
