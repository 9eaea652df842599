"""Exact integer linear algebra: Smith form, coordinates, kernels, labels."""

import random

import pytest

from twistcech.abelian import (
    ZHom,
    _matmul,
    abelian_coordinates,
    enumerate_subgroup,
    kernel_generators,
    quotient_labels,
    smith_normal_form,
    solve,
    subgroup_size,
)
from twistcech.errors import InputError
from twistcech.groups import cyclic_group, direct_product


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    return sum(
        (-1) ** k * mat[0][k] * _det([row[:k] + row[k + 1 :] for row in mat[1:]])
        for k in range(n)
    )


def test_smith_normal_form_properties():
    rng = random.Random(7)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        u, d, v = smith_normal_form(a)
        assert _matmul(_matmul(u, a), v) == d
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(m, n))]
        for x, y in zip(diag, diag[1:]):
            if x and y:
                assert y % x == 0
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1


def test_abelian_coordinates_are_isomorphisms():
    groups = [
        cyclic_group(1),
        cyclic_group(8),
        cyclic_group(12),
        direct_product(cyclic_group(2), cyclic_group(4)),
        direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2))),
        direct_product(cyclic_group(6), cyclic_group(2)),
    ]
    for grp in groups:
        co = abelian_coordinates(grp)
        size = 1
        for m in co.moduli:
            size *= m
        assert size == grp.order
        for a in grp.elements():
            for b in grp.elements():
                s = tuple((x + y) % m for x, y, m in zip(co.vec_of[a], co.vec_of[b], co.moduli))
                assert co.elem_of[s] == grp.mul[a][b]


def test_kernel_and_solve_against_brute_force():
    rng = random.Random(3)
    for _ in range(50):
        n_in, n_out = rng.randint(1, 3), rng.randint(1, 3)
        mods_in = [rng.choice([2, 3, 4]) for _ in range(n_in)]
        mods_out = [rng.choice([2, 4, 6]) for _ in range(n_out)]
        # a random matrix respecting the moduli: scale rows to land correctly
        matrix = []
        for mo in mods_out:
            row = []
            for mi in mods_in:
                # entry must satisfy entry * mi == 0 mod mo
                step = mo // _gcd(mo, mi)
                row.append(step * rng.randint(0, 3))
            matrix.append(tuple(row))
        hom = ZHom(tuple(matrix), tuple(mods_in), tuple(mods_out))
        domain = list(_all_vectors(mods_in))
        kernel_brute = sorted(v for v in domain if all(x == 0 for x in hom.apply(v)))
        gens = kernel_generators(hom)
        kernel = enumerate_subgroup(mods_in, gens)
        assert kernel == kernel_brute
        for target in _all_vectors(mods_out):
            got = solve(hom, target)
            brute = any(hom.apply(v) == tuple(t % m for t, m in zip(target, mods_out)) for v in domain)
            assert (got is not None) == brute
            if got is not None:
                assert hom.apply(got) == tuple(t % m for t, m in zip(target, mods_out))


def test_kernel_generators_on_wider_maps():
    # mixed moduli and more coordinates than above, against the full domain
    rng = random.Random(11)
    for _ in range(30):
        mods_in = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(1, 4))]
        mods_out = [rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(1, 6))]
        matrix = tuple(
            tuple(mo // _gcd(mo, mi) * rng.randint(-3, 3) for mi in mods_in) for mo in mods_out
        )
        hom = ZHom(matrix, tuple(mods_in), tuple(mods_out))
        kernel_brute = sorted(v for v in _all_vectors(mods_in) if not any(hom.apply(v)))
        gens = kernel_generators(hom)
        assert all(not any(hom.apply(g)) for g in gens)
        assert enumerate_subgroup(mods_in, gens) == kernel_brute
        assert subgroup_size(mods_in, gens) == len(kernel_brute)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _all_vectors(mods):
    import itertools

    return itertools.product(*(range(m) for m in mods))


def test_quotient_labels_and_size():
    mods = (4, 2, 8)
    gens = [(2, 0, 0), (0, 0, 4)]
    size = subgroup_size(mods, gens)
    elems = enumerate_subgroup(mods, gens)
    assert size == len(elems)
    labels = quotient_labels(mods, gens)
    by_label = {}
    for v in _all_vectors(mods):
        by_label.setdefault(labels.label(v), set()).add(v)
    total = 4 * 2 * 8
    assert len(by_label) == total // size
    # each label class is exactly one coset
    sub = set(elems)
    for members in by_label.values():
        base = next(iter(members))
        coset = {tuple((base[i] + g[i]) % mods[i] for i in range(3)) for g in sub}
        assert members == coset


def test_zhom_refuses_a_matrix_that_is_not_a_homomorphism():
    # 1 -> 1 from Z/2 to Z/3 sends 2 to 2, not 0
    with pytest.raises(InputError):
        ZHom(((1,),), (2,), (3,))
    with pytest.raises(InputError):
        ZHom(((0, 0), (0, 1)), (4, 2), (6, 4))
    # 1 -> 3 from Z/2 to Z/6 and x -> 2x from Z/4 to Z/8 are homomorphisms
    assert ZHom(((3, 0), (0, 2)), (2, 4), (6, 8)).apply((1, 3)) == (3, 6)
