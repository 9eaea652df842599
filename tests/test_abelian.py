"""Exact linear algebra over Z/N: the Howell echelon, coordinates, kernels, solves.

The integer Smith form is the reference: the runtime reads every answer
off ``echelon``, and the tests compare it with the Smith-form index and
with brute force.
"""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcech.abelian import (
    ZHom,
    abelian_coordinates,
    echelon,
    image,
    kernel,
    smith_normal_form,
    solve,
)
from twistcech.errors import InputError
from twistcech.groups import cyclic_group, direct_product

MODULI = (2, 3, 4, 6, 8, 9, 12)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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
        assert sorted(kernel(hom).elements()) == kernel_brute
        for target in _all_vectors(mods_out):
            got = solve(hom, target)
            brute = any(hom.apply(v) == tuple(t % m for t, m in zip(target, mods_out)) for v in domain)
            assert (got is not None) == brute
            if got is not None:
                assert hom.apply(got) == tuple(t % m for t, m in zip(target, mods_out))


def test_kernel_on_wider_maps():
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
        ker = kernel(hom)
        gens = [vec for _, _, vec in ker.rows]
        assert all(not any(hom.apply(g)) for g in gens)
        assert sorted(_closure(mods_in, gens)) == kernel_brute
        assert sorted(ker.elements()) == kernel_brute
        assert ker.size == len(kernel_brute)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _all_vectors(mods):
    return itertools.product(*(range(m) for m in mods))


def _closure(mods, gens):
    """The subgroup spanned by the generators, by breadth-first search."""
    zero = tuple(0 for _ in mods)
    gens = [tuple(x % m for x, m in zip(g, mods)) for g in gens]
    seen, frontier = {zero}, [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, mods))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _smith_size(mods, gens):
    """Order of the subgroup by lattice index, from the Smith form of [gens | diag(mods)].

    The subgroup is (L + M Z^n) / M Z^n for the lattice L of the generators
    and M = diag(mods); its order is det(M) / [Z^n : L + M Z^n].
    """
    n = len(mods)
    if n == 0:
        return 1
    mat = [[g[i] for g in gens] + [mods[i] if j == i else 0 for j in range(n)] for i in range(n)]
    _, d, _ = smith_normal_form(mat)
    return math.prod(mods) // math.prod(abs(d[i][i]) for i in range(n))


def _random_hom(rng, mods_in, mods_out, spread=3):
    """A random matrix respecting the moduli: entry * m_in == 0 mod m_out."""
    matrix = tuple(
        tuple(mo // _gcd(mo, mi) * rng.randint(-spread, spread) for mi in mods_in) for mo in mods_out
    )
    return ZHom(matrix, tuple(mods_in), tuple(mods_out))


def _columns(hom):
    return [tuple(row[j] for row in hom.matrix) for j in range(len(hom.mods_in))]


def test_echelon_labels_and_size():
    mods = (4, 2, 8)
    gens = [(2, 0, 0), (0, 0, 4)]
    form = echelon(mods, gens)
    elems = _closure(mods, gens)
    assert form.size == len(elems) == _smith_size(mods, gens)
    assert sorted(form.elements()) == sorted(elems)
    by_label = {}
    for v in _all_vectors(mods):
        by_label.setdefault(form.reduce(v), set()).add(v)
    total = 4 * 2 * 8
    assert len(by_label) == total // form.size
    # each label class is exactly one coset
    for members in by_label.values():
        base = next(iter(members))
        coset = {tuple((base[i] + g[i]) % mods[i] for i in range(3)) for g in elems}
        assert members == coset


def test_echelon_elements_is_an_iterator_from_zero():
    # the Z^2 walk of second_cohomology holds one vector at a time
    for mods, gens in (((4, 2, 8), [(2, 0, 0), (0, 0, 4)]), ((3, 6), [(1, 2)]), ((2, 4), []), ((), [])):
        walk = echelon(mods, gens).elements()
        assert iter(walk) is walk
        assert next(walk) == (0,) * len(mods)


small_mods = st.lists(st.sampled_from(MODULI), min_size=0, max_size=3)


@st.composite
def subgroups(draw, max_gens=4):
    mods = tuple(draw(small_mods))
    gens = draw(st.lists(st.tuples(*(st.integers(0, m - 1) for m in mods)), max_size=max_gens))
    return mods, gens


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(subgroups())
def test_echelon_size_and_cosets_match_the_closure(case):
    mods, gens = case
    form = echelon(mods, gens)
    sub = _closure(mods, gens)
    assert form.size == len(sub)
    assert sorted(form.elements()) == sorted(sub)
    # reduce is constant exactly on cosets, and picks a member of each
    labels = {}
    for v in _all_vectors(mods):
        labels.setdefault(form.reduce(v), set()).add(v)
    assert len(labels) * len(sub) == math.prod(mods)
    for rep, members in labels.items():
        assert rep in members
        assert members == {tuple((a + b) % m for a, b, m in zip(rep, s, mods)) for s in sub}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(subgroups(max_gens=3))
def test_echelon_size_matches_the_smith_oracle(case):
    mods, gens = case
    assert echelon(mods, gens).size == _smith_size(mods, gens)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(small_mods, small_mods, st.randoms(use_true_random=False))
def test_kernel_and_solve_match_brute_force_on_generated_maps(mods_in, mods_out, rng):
    hom = _random_hom(rng, mods_in, mods_out)
    domain = list(_all_vectors(mods_in))
    assert sorted(kernel(hom).elements()) == sorted(v for v in domain if not any(hom.apply(v)))
    reached = {hom.apply(v) for v in domain}
    im = image(hom)
    assert sorted(im.elements()) == sorted(reached)
    columns_form = echelon(mods_out, _columns(hom))
    for _ in range(10):
        y = tuple(rng.randrange(m) for m in mods_out)
        assert im.reduce(y) == columns_form.reduce(y)
    for target in _all_vectors(mods_out):
        got = solve(hom, target)
        assert (got is not None) == (target in reached)
        if got is not None:
            assert hom.apply(got) == target


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(MODULI), min_size=6, max_size=14),
    st.lists(st.sampled_from(MODULI), min_size=6, max_size=14),
    st.randoms(use_true_random=False),
)
def test_kernel_times_image_is_the_domain_on_large_maps(mods_in, mods_out, rng):
    # domains of up to 12^14 elements: no brute force, only the index identity
    hom = _random_hom(rng, mods_in, mods_out, spread=9)
    ker = kernel(hom)
    # both read off the one Howell form of the graph, then checked against the columns
    assert ker.size * image(hom).size == math.prod(mods_in)
    assert image(hom).size == echelon(mods_out, _columns(hom)).size
    assert all(not any(hom.apply(vec)) for _, _, vec in ker.rows)
    x = tuple(rng.randrange(m) for m in mods_in)
    got = solve(hom, hom.apply(x))
    assert got is not None and hom.apply(got) == hom.apply(x)


# Dense integer matrices on which the Smith form's entries grow without bound
FOUND_MATRIX = (
    (-6, 2, -6, 2, 3, 3, 0, 2),
    (4, -6, 3, -6, 4, -6, 4, -6),
    (-6, 0, 2, 4, 0, 0, 3, 0),
    (4, 0, 3, -6, -6, 2, 0, 2),
    (-6, 2, 4, 0, 4, 4, -6, 3),
    (3, 2, 4, -6, 4, -6, 4, 3),
    (0, 4, 4, 4, -6, -6, 4, 3),
    (4, 3, 4, 2, -6, 0, 4, 2),
)


def _stacked_case():
    # the 25 x 34 stack [F | diag(mods)]: F maps Z/24^9 to 25 factors of orders 2, 3, 4 and 8
    rng = random.Random(2024)
    mods_out = tuple(rng.choice((2, 3, 4, 8)) for _ in range(25))
    matrix = tuple(tuple(rng.randint(-9, 9) for _ in range(9)) for _ in range(25))
    return ZHom(matrix, (24,) * 9, mods_out)


@pytest.mark.parametrize(
    "hom",
    [ZHom(FOUND_MATRIX, (24,) * 8, (24,) * 8), ZHom(FOUND_MATRIX, (8,) * 8, (8,) * 8), _stacked_case()],
    ids=["found-8x8-mod-24", "found-8x8-mod-8", "stack-25x34"],
)
def test_echelon_returns_at_once_where_the_smith_form_grows(hom):
    start = time.perf_counter()
    ker = kernel(hom)
    im = echelon(hom.mods_out, _columns(hom))
    rng = random.Random(5)
    for _ in range(20):
        x = tuple(rng.randrange(m) for m in hom.mods_in)
        got = solve(hom, hom.apply(x))
        assert got is not None and hom.apply(got) == hom.apply(x)
    assert time.perf_counter() - start < 0.5
    assert ker.size * im.size == math.prod(hom.mods_in)
    assert all(not any(hom.apply(vec)) for _, _, vec in ker.rows)


def test_zhom_refuses_a_matrix_that_is_not_a_homomorphism():
    # 1 -> 1 from Z/2 to Z/3 sends 2 to 2, not 0
    with pytest.raises(InputError):
        ZHom(((1,),), (2,), (3,))
    with pytest.raises(InputError):
        ZHom(((0, 0), (0, 1)), (4, 2), (6, 4))
    # 1 -> 3 from Z/2 to Z/6 and x -> 2x from Z/4 to Z/8 are homomorphisms
    assert ZHom(((3, 0), (0, 2)), (2, 4), (6, 8)).apply((1, 3)) == (3, 6)
