"""Exact linear algebra over finite abelian groups.

A finite abelian group is handled as a product of cyclic factors Z/m_1 x
... x Z/m_r; homomorphisms between two such products are integer matrices
acting modulo the target factors.  Every subgroup question -- order,
elements, canonical coset representatives -- is read off one Howell form
over Z/N, N the lcm of the moduli (J. A. Howell, "Spans in the module
(Z_m)^s", 1986; Storjohann and Mulders, "Fast algorithms for linear algebra
modulo N", 1998).  A homomorphism keeps the Howell form of its graph, from
which its kernel, image and every solve are read.  Entries stay reduced, so
they never grow.

``smith_normal_form`` over the integers stays only as the reference the
tests compare subgroup orders against; no computation here calls it, and
its entries can grow without bound on dense matrices.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError, InternalError
from .groups import FiniteGroup
from .records import kept, record

Matrix = list[list[int]]

# coordinate bound for the integer-matrix (second-cohomology) machinery;
# beyond it assembling the matrices and their Howell forms stops being
# desk-scale and the operations refuse instead of grinding
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


@record(frozen=True)
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
    """Cyclic coordinates of an abelian group, searched once per group object and kept on it."""
    return kept(group, "_coords", lambda: _coordinate_search(group))


def _coordinate_search(group: FiniteGroup) -> AbelianCoords:
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


@record(frozen=True)
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

    @cached_property
    def nonzero(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per output row, the (column, entry) pairs with a nonzero entry."""
        return tuple(tuple((j, r) for j, r in enumerate(row) if r) for row in self.matrix)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(r * vec[j] for j, r in row) % m for row, m in zip(self.nonzero, self.mods_out))

    @cached_property
    def echelon(self) -> Echelon:
        """The Howell form of the graph {(f(x), x)}, output columns first."""
        n = len(self.mods_in)
        graph = ([*(row[j] for row in self.matrix), *(int(i == j) for i in range(n))] for j in range(n))
        return echelon(self.mods_out + self.mods_in, graph)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


@record(frozen=True)
class Echelon:
    """The Howell form of a subgroup B of prod Z/mods.

    Each row (j, h, vec) has vec zero before column j and h, a divisor of
    mods[j], in column j; the columns j strictly increase.  The Howell
    property holds: the elements of B that vanish before column k are
    spanned by the rows with j >= k.  So each element of B is
    sum a_i vec_i for exactly one choice of 0 <= a_i < mods[j_i] / h_i.
    """

    mods: tuple[int, ...]
    rows: tuple[tuple[int, int, tuple[int, ...]], ...]

    @property
    def size(self) -> int:
        return math.prod(self.mods[j] // h for j, h, _ in self.rows)

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The canonical representative of vec + B, every pivot entry below its h.

        Equal exactly for vectors in one coset, so it also labels the coset.
        """
        mods = self.mods
        out = [x % m for x, m in zip(vec, mods)]
        for j, h, row in self.rows:
            q = out[j] // h
            if q:
                out = [(x - q * r) % m for x, r, m in zip(out, row, mods)]
        return tuple(out)

    def elements(self) -> Iterator[tuple[int, ...]]:
        """Every element of B, one at a time, the zero vector first.

        Walks the coefficient range of each row, the last row's fastest.
        """
        mods = self.mods
        zero = (0,) * len(mods)
        multiples = [[tuple(a * r % m for r, m in zip(row, mods)) for a in range(mods[j] // h)] for j, h, row in self.rows]
        for combo in itertools.product(*multiples):
            yield tuple(x % m for x, m in zip(map(sum, zip(zero, *combo)), mods))


def echelon(mods: Sequence[int], generators: Iterable[Sequence[int]]) -> Echelon:
    """The Howell form of the subgroup of prod Z/mods spanned by the generators.

    This is the Howell form over Z/N, N the lcm of the moduli, with
    coordinate i embedded as the multiples of N/mods[i]; the embedding
    commutes with every row operation, so the rows keep the native
    coordinates and entries of column i stay below mods[i].  Column by
    column, unimodular extended-gcd steps gather the column onto one pivot
    row, which is then scaled to h = gcd(pivot, mods[j]).  What the scaling
    leaves and the annihilator multiple (mods[j] / h) * pivot both vanish in
    the column and pass on to the later columns; that is the Howell property.
    """
    mods = tuple(mods)
    pending = [vec for vec in (tuple(x % m for x, m in zip(g, mods)) for g in generators) if any(vec)]
    rows = []
    for j, m in enumerate(mods):

        def combine(a: int, u: tuple[int, ...], b: int, v: tuple[int, ...]) -> tuple[int, ...]:
            # whole rows, not tails: same-length tuples keep the allocator's size classes few
            return tuple([(a * x + b * y) % md for x, y, md in zip(u, v, mods)])

        pivot, rest = None, []
        for vec in pending:
            x = vec[j]
            if not x:
                rest.append(vec)
            elif pivot is None:
                pivot = vec
            elif x % pivot[j] == 0:
                rest.append(combine(1, vec, -(x // pivot[j]), pivot))
            else:
                p = pivot[j]
                g, s, t = _ext_gcd(p, x)
                rest.append(combine(x // g, pivot, -(p // g), vec))
                pivot = combine(s, pivot, t, vec)
        if pivot is not None:
            p = pivot[j]
            h, s, _ = _ext_gcd(p, m)
            if h != p:
                scaled = combine(s, pivot, 0, pivot)
                rest.append(combine(1, pivot, -(p // h), scaled))
                pivot = scaled
            rest.append(combine(m // h, pivot, 0, pivot))
            rows.append((j, h, pivot))
        pending = [vec for vec in rest if any(vec)]
    return Echelon(mods, tuple(rows))


def kernel(hom: ZHom) -> Echelon:
    """ker f, read off the Howell form of the graph of f.

    The graph rows whose pivot lies past the output columns span the graph
    elements (0, x), by the Howell property; on the input columns they are
    the Howell form of the kernel.
    """
    m = len(hom.mods_out)
    return Echelon(hom.mods_in, tuple((j - m, h, vec[m:]) for j, h, vec in hom.echelon.rows if j >= m))


def image(hom: ZHom) -> Echelon:
    """im f: the graph rows whose pivot is an output column, cut to the outputs.

    An image element vanishing before column k lifts to a graph element
    vanishing before column k, which the rows with pivot >= k span; so the
    cut rows are a Howell form of the image.
    """
    m = len(hom.mods_out)
    return Echelon(hom.mods_out, tuple((j, h, vec[:m]) for j, h, vec in hom.echelon.rows if j < m))


def solve(hom: ZHom, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A particular solution of hom(x) == target, or None.

    f(x) = target exactly when (0, -x) lies in the coset (target, 0) + graph;
    reducing (0, -x) never touches its output columns, so the coset's
    canonical representative has zero outputs exactly when a solution exists.
    """
    m = len(hom.mods_out)
    rep = hom.echelon.reduce((*target, *(0 for _ in hom.mods_in)))
    if any(rep[:m]):
        return None
    return tuple(-x % d for x, d in zip(rep[m:], hom.mods_in))


@record(frozen=True)
class AbelianComplex:
    """d1 and d2 as integer matrices on one coordinate system; Z^2 and B^2 are read off their graphs.

    Frozen, since ``cech.abelian_complex`` shares one complex among the systems of a space.
    """

    coords: AbelianCoords
    d1_hom: ZHom
    d2_hom: ZHom

    def in_kernel_d2(self, vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.d2_hom.apply(vec))

    @cached_property
    def cocycles(self) -> Echelon:
        """Z^2, the kernel of d2."""
        return kernel(self.d2_hom)

    @cached_property
    def coboundaries(self) -> Echelon:
        """B^2, the image of d1; ``reduce`` gives each coset's least element, its label."""
        return image(self.d1_hom)
