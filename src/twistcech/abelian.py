"""Exact linear algebra over finite abelian groups.

A finite abelian group is handled as a product of cyclic factors Z/d_1 x
... x Z/d_r; homomorphisms between two such products are integer matrices
acting modulo the target factors.  Kernels, images, solvability and
quotient labels all reduce to Smith normal form over the integers, computed
exactly with Python bigints (the transform matrices are needed, which the
usual library entry points do not expose).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, InputError, InternalError
from .groups import FiniteGroup

Matrix = list[list[int]]

# coordinate bound for the integer-matrix (second-cohomology) machinery;
# beyond it the Smith-form solves stop being desk-scale and the operations
# refuse instead of grinding
DEFAULT_COORD_GUARD = 512


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*mat*V = D diagonal, U and V unimodular."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero |entry| in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # divisibility sweep: pivot must divide the rest of the block
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, a, v


@dataclass(frozen=True)
class AbelianCoords:
    """A coordinate system Z/d_1 x ... x Z/d_r on an abelian FiniteGroup.

    vec_of[g] are the coordinates of element g; elem_of maps coordinate
    tuples back.  The generator list realizes each coordinate axis.
    """

    group: FiniteGroup
    moduli: tuple[int, ...]
    generators: tuple[int, ...]
    vec_of: tuple[tuple[int, ...], ...]
    elem_of: dict[tuple[int, ...], int]

    def element(self, vec: Sequence[int]) -> int:
        key = tuple(x % d for x, d in zip(vec, self.moduli))
        return self.elem_of[key]


def abelian_coordinates(group: FiniteGroup) -> AbelianCoords:
    """Decompose an abelian group into cyclic coordinates by greedy search."""
    if not group.is_abelian():
        raise InputError("coordinates require an abelian group")
    if group.order == 1:
        return AbelianCoords(group, (), (), ((),) * 1, {(): 0})

    elems = sorted(group.elements(), key=lambda x: (-group.element_order(x), x))

    def try_basis(basis: list[int]) -> Optional[dict[tuple[int, ...], int]]:
        mods = [group.element_order(b) for b in basis]
        table: dict[tuple[int, ...], int] = {}
        for combo in itertools.product(*(range(d) for d in mods)):
            acc = 0
            for b, e in zip(basis, combo):
                acc = group.mul[acc][group.power(b, e)]
            if combo and acc in table.values():
                return None
            table[combo] = acc
        if len(table) != group.order or len(set(table.values())) != group.order:
            return None
        return table

    def extend(basis: list[int], covered: int) -> Optional[list[int]]:
        if covered == group.order:
            return basis
        for cand in elems:
            if cand == 0:
                continue
            trial = basis + [cand]
            size = 1
            for b in trial:
                size *= group.element_order(b)
            if size > group.order or group.order % size:
                continue
            if try_basis(trial) is not None or size < group.order:
                # only a full check is conclusive; recurse and verify at the end
                res = extend(trial, size)
                if res is not None and try_basis(res) is not None:
                    return res
        return None

    basis = extend([], 1)
    if basis is None:
        raise InternalError("failed to find a cyclic decomposition")
    table = try_basis(basis)
    assert table is not None
    moduli = tuple(group.element_order(b) for b in basis)
    vec_of_list: list[tuple[int, ...]] = [()] * group.order
    for combo, g in table.items():
        vec_of_list[g] = combo
    return AbelianCoords(group, moduli, tuple(basis), tuple(vec_of_list), {v: g for g, v in enumerate(vec_of_list)})


@dataclass(frozen=True)
class ZHom:
    """A homomorphism prod Z/m_in -> prod Z/m_out given by an integer matrix."""

    matrix: tuple[tuple[int, ...], ...]  # rows indexed by output coordinates
    mods_in: tuple[int, ...]
    mods_out: tuple[int, ...]

    def __post_init__(self):
        # the image of d_j e_j is column j scaled by d_j; it must vanish
        for row, m in zip(self.matrix, self.mods_out):
            if any(x * d % m for x, d in zip(row, self.mods_in)):
                raise InputError("matrix does not define a homomorphism of the given moduli")

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(r * x for r, x in zip(row, vec)) % m for row, m in zip(self.matrix, self.mods_out))


def hom_from_columns(columns: Sequence[Sequence[int]], mods_in: Sequence[int], mods_out: Sequence[int]) -> ZHom:
    rows = tuple(
        tuple(int(columns[j][i]) for j in range(len(mods_in))) for i in range(len(mods_out))
    )
    return ZHom(rows, tuple(mods_in), tuple(mods_out))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def kernel_generators(hom: ZHom) -> list[tuple[int, ...]]:
    """Generators of {x : hom(x) == 0} as a subgroup of the domain.

    Starts from the unit vectors and imposes one output coordinate at a
    time.  Unimodular (extended-gcd) changes of the generating set gather
    that coordinate's values on one pivot generator; the others then vanish
    there, and of the pivot only the multiples by d_out / gcd(value, d_out)
    do.  Vectors stay reduced modulo the domain, so entries never grow.
    """
    mods = hom.mods_in
    n = len(mods)
    gens = [tuple(int(i == j) % d for i, d in enumerate(mods)) for j in range(n)]
    for row, d_out in zip(hom.matrix, hom.mods_out):
        pivot, pivot_val = None, 0
        kept = []
        for x in gens:
            val = sum(r * c for r, c in zip(row, x)) % d_out
            if not val:
                kept.append(x)
            elif pivot is None:
                pivot, pivot_val = x, val
            else:
                g, s, t = _ext_gcd(pivot_val, val)
                p, q = pivot_val // g, val // g
                kept.append(tuple((q * a - p * b) % d for a, b, d in zip(pivot, x, mods)))
                pivot, pivot_val = tuple((s * a + t * b) % d for a, b, d in zip(pivot, x, mods)), g
        if pivot is not None:
            k = d_out // math.gcd(pivot_val, d_out)
            kept.append(tuple(k * a % d for a, d in zip(pivot, mods)))
        gens = [x for x in kept if any(x)]
    return gens


def solve(hom: ZHom, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A particular solution of hom(x) == target, or None."""
    n, m = len(hom.mods_in), len(hom.mods_out)
    t = [int(x) for x in target]
    if m == 0:
        return tuple(0 for _ in range(n))
    if n == 0:
        return () if all(x % d == 0 for x, d in zip(t, hom.mods_out)) else None
    stacked = [list(hom.matrix[i]) + [hom.mods_out[i] if j == i else 0 for j in range(m)] for i in range(m)]
    u, d, v = smith_normal_form(stacked)
    ut = [sum(u[i][k] * t[k] for k in range(m)) for i in range(m)]
    cols = n + m
    y = [0] * cols
    for i in range(m):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if ut[i] != 0:
                return None
        else:
            if ut[i] % di:
                return None
            y[i] = ut[i] // di
    x = [sum(v[i][k] * y[k] for k in range(cols)) for i in range(cols)]
    return tuple(x[i] % hom.mods_in[i] for i in range(n))


def subgroup_size(mods: Sequence[int], generators: Iterable[Sequence[int]]) -> int:
    """Order of the subgroup generated inside prod Z/mods, via lattice index.

    The subgroup is (L + M Z^n) / M Z^n for the lattice L spanned by the
    generators and M = diag(mods); its order is det(M) / [Z^n : L + M Z^n].
    """
    mods = list(mods)
    n = len(mods)
    if n == 0:
        return 1
    cols = [list(g) for g in generators]
    mat = [[cols[k][i] for k in range(len(cols))] + [mods[i] if j == i else 0 for j in range(n)] for i in range(n)]
    _, d, _ = smith_normal_form(mat)
    idx = 1
    for i in range(n):
        if i < len(d[0]) and d[i][i]:
            idx *= abs(d[i][i])
        else:
            return 0  # lattice not full rank: impossible since M has full rank
    total = 1
    for m in mods:
        total *= m
    return total // idx


def enumerate_subgroup(
    mods: Sequence[int],
    generators: Iterable[Sequence[int]],
    *,
    budget: int = 1_000_000,
) -> list[tuple[int, ...]]:
    """All elements generated by the given vectors, BFS, sorted."""
    mods = tuple(mods)
    zero = tuple(0 for _ in mods)
    gens = [tuple(x % m for x, m in zip(g, mods)) for g in generators]
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, mods))
            if nxt not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(f"subgroup enumeration exceeded budget {budget}")
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


@dataclass(frozen=True)
class QuotientLabels:
    """Stable labels for cosets of a subgroup B <= prod Z/mods.

    label(t) is constant exactly on cosets t + B, computed from the Smith
    form of [gens(B) | diag(mods)].
    """

    mods: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]

    def label(self, vec: Sequence[int]) -> tuple[int, ...]:
        out = []
        for row, d in zip(self.u, self.diag):
            # a coordinate with d == 1 is 0 on every vector
            out.append(sum(r * x for r, x in zip(row, vec)) % d if d > 1 else 0)
        return tuple(out)


def quotient_labels(mods: Sequence[int], generators: Iterable[Sequence[int]]) -> QuotientLabels:
    mods = tuple(mods)
    n = len(mods)
    cols = [list(g) for g in generators]
    mat = [[c[i] for c in cols] + [mods[i] if j == i else 0 for j in range(n)] for i in range(n)]
    if not cols:
        mat = [[mods[i] if j == i else 0 for j in range(n)] for i in range(n)]
    u, d, _ = smith_normal_form(mat)
    diag = []
    for i in range(n):
        di = d[i][i] if i < len(d[0]) else 0
        if di == 0:
            raise InternalError("quotient lattice unexpectedly rank-deficient")
        diag.append(abs(di))
    return QuotientLabels(mods, tuple(tuple(r) for r in u), tuple(diag))
