"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is produced by an independent oracle (raw
enumeration, conjugacy classes, double counting) before the optimized path
is trusted.
"""

import itertools
import subprocess
import sys
import time


from twistcech.actions import from_ghat, homogeneous_space, regular_ghat_set, to_ghat
from twistcech.cech import (
    CechSystem,
    coefficient_ladder,
    existence_check,
    h1_reduced,
    h1_twisted,
    les_verify,
    transport_cocycle,
)
from twistcech.correspond import (
    GhatCocycleY,
    ascend,
    descend,
    fiber_over_cover,
    grothendieck_fiber,
    plain_cocycle,
    plain_h1,
    plain_system,
)
from twistcech.errors import CocycleViolation, InputError
from twistcech.extensions import (
    build_twisted_product,
    check_cocycle,
    make_twisted_data,
    recocycle,
    second_cohomology,
    trivial_action,
)
from twistcech.fixtures import c_q_data, default_grid, gamma_nerve, group, inversion_action, nerve
from twistcech.groups import center, conjugacy_classes, find_isomorphism
from twistcech.nerves import quotient

C2, C4 = group("C2"), group("C4")
S3, D4, Q8 = group("S3"), group("D4"), group("Q8")
INV = inversion_action(C2, C4)
Y_TRI = nerve("Y_TRI")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def _grid():
    return default_grid()


def _free_grid():
    return [inst for inst in _grid() if inst.space.gamma.order > 1 and inst.space.free]


def test_criterion_1_extension_classification():
    start = time.monotonic()
    # oracle: every raw table with c(1,1)=1, filtered by normalization and
    # the cocycle identity evaluated directly, then coboundary cosets
    raw_cocycles = []
    for combo in itertools.product(C4.elements(), repeat=3):
        table = [[0, combo[0]], [combo[1], combo[2]]]
        if table[0][1] or table[1][0]:
            continue  # normalization
        good = True
        for g0 in C2.elements():
            for g1 in C2.elements():
                for g2 in C2.elements():
                    lhs = C4.mul[INV.apply(g0, table[g1][g2])][table[g0][C2.mul[g1][g2]]]
                    rhs = C4.mul[table[g0][g1]][table[C2.mul[g0][g1]][g2]]
                    if lhs != rhs:
                        good = False
        if good:
            raw_cocycles.append(tuple(tuple(r) for r in table))
    coboundaries = set()
    for a1 in C4.elements():
        # delta a (t, t) = theta_t(a(t)) * a(tt)^-1 * a(t) = -a1 + 0 + a1 = 0
        coboundaries.add(((0, 0), (0, (INV.apply(1, a1) + a1) % 4)))
    classes = set()
    for c in raw_cocycles:
        coset = frozenset(
            tuple(tuple(C4.mul[c[i][j]][b[i][j]] for j in range(2)) for i in range(2))
            for b in coboundaries
        )
        classes.add(coset)
    assert len(classes) == 2  # oracle value

    h2 = second_cohomology(INV)
    ok = len(h2) == 2
    iso_names = []
    for rep in h2.representatives:
        built = build_twisted_product(rep)
        for name, cand in (("D4", D4), ("Q8", Q8)):
            if find_isomorphism(built.group, cand):
                iso_names.append(name)
    ok = ok and sorted(iso_names) == ["D4", "Q8"]
    ok = ok and h2.class_of(make_twisted_data(INV)) != h2.class_of(c_q_data(INV))
    triv_cls = h2.class_of(make_twisted_data(INV))
    built_triv = build_twisted_product(h2.representatives[triv_cls])
    ok = ok and find_isomorphism(built_triv.group, D4) is not None
    elapsed = time.monotonic() - start
    _report(1, "extension classification (C2, C4, inversion)", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_associativity_iff_cocycle():
    start = time.monotonic()
    ok = True
    for combo in itertools.product(C4.elements(), repeat=1):
        table = [[0, 0], [0, combo[0]]]
        try:
            check_cocycle(INV, table)
            is_cocycle = True
        except CocycleViolation:
            is_cocycle = False
        mul = [[0] * 8 for _ in range(8)]
        for a in C4.elements():
            for x in C2.elements():
                for b in C4.elements():
                    for y in C2.elements():
                        val = C4.mul[C4.mul[a][INV.apply(x, b)]][table[x][y]]
                        mul[a * 2 + x][b * 2 + y] = val * 2 + C2.mul[x][y]
        associative = all(
            mul[mul[i][j]][k] == mul[i][mul[j][k]]
            for i in range(8)
            for j in range(8)
            for k in range(8)
        )
        if associative != is_cocycle:
            ok = False
    elapsed = time.monotonic() - start
    _report(2, "associativity iff twisted cocycle identity", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_3_circle_sanity():
    start = time.monotonic()
    ok = True
    details = []
    for g in (C4, S3, D4, Q8):
        expected = len(conjugacy_classes(g))  # oracle
        got = len(plain_h1(Y_TRI, g))
        details.append(f"{g.label}:{got}")
        ok = ok and got == expected
    elapsed = time.monotonic() - start
    _report(3, "circle classes equal conjugacy classes", ok and elapsed < 4.0, ",".join(details) + f" {elapsed:.2f}s")


def test_criterion_4_correspondence_cardinalities():
    start = time.monotonic()
    ok = True
    pinned = None
    for inst in _free_grid():
        desc = quotient(inst.space)
        system = CechSystem(inst.space, inst.data)
        n_reduced = len(h1_reduced(h1_twisted(system)))
        prod = build_twisted_product(inst.data)
        ph1 = plain_h1(desc.downstairs, prod.group)
        fib = fiber_over_cover(desc, prod, ph1)
        n_fiber = len(fib)
        if fib:
            base = GhatCocycleY(prod, ph1.representative(fib[0]))
            n_groth = len(grothendieck_fiber(base, desc, ph1))
        else:
            n_groth = 0
        if not (n_reduced == n_fiber == n_groth):
            ok = False
        if inst.name == "X_HEX/C4,inversion,trivial":
            pinned = (n_reduced, n_fiber, n_groth)
    ok = ok and pinned == (2, 2, 2)
    elapsed = time.monotonic() - start
    _report(4, "reduced == fiber == conjugation-description", ok and elapsed < 60.0, f"pinned={pinned} {elapsed:.2f}s")


def test_criterion_5_roundtrips():
    start = time.monotonic()
    ok = True
    for inst in _free_grid():
        desc = quotient(inst.space)
        system = CechSystem(inst.space, inst.data)
        h1 = h1_twisted(system)
        prod = build_twisted_product(inst.data)
        # the cover's class in the plain H^1 of the base with quotient-group values
        y = desc.downstairs
        base_sys = plain_system(y, prod.group)
        gamma_h1 = plain_h1(y, inst.space.gamma)
        target = gamma_h1.class_of(plain_cocycle(gamma_h1.system, [desc.transition(i, j) for i, j in y.edges]))
        for cid in range(len(h1)):
            x = h1.representative(cid)
            gx = descend(x, desc, prod, base_sys)
            if h1.class_of(ascend(gx, desc, h1.system)) != cid:
                ok = False
            projected = plain_cocycle(gamma_h1.system, [prod.proj.map[v] for v in gx.cocycle.a])
            if gamma_h1.class_of(projected) != target:
                ok = False
        # base-side round trip on the glued cocycles with the transitions as
        # Gamma-parts and trivial G-parts on the tree
        idx = y.edge_index
        parent, tree = y.spanning_forest()
        nontree = [e for e in y.edges if e not in set(tree)]
        transitions = [desc.transition(i, j) for i, j in y.edges]
        for combo in itertools.product(inst.data.g.elements(), repeat=len(nontree)):
            vals = [0] * len(y.edges)
            for e, v in zip(nontree, combo):
                vals[idx[e]] = v
            try:
                down = GhatCocycleY(prod, plain_cocycle(base_sys, list(map(prod.pair_index, vals, transitions))))
            except InputError:
                continue
            again = descend(ascend(down, desc, h1.system), desc, prod, base_sys)
            if again.cocycle.key != down.cocycle.key:
                ok = False
    elapsed = time.monotonic() - start
    _report(5, "descend/ascend and glue round trips", ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_6_long_exact_sequence():
    start = time.monotonic()
    ok = True
    for inst in _grid():
        rep = les_verify(coefficient_ladder(inst.space, inst.data))
        if not rep.ok:
            ok = False
    # a deliberately mis-handed coboundary must produce a failing report
    mutated = les_verify(
        coefficient_ladder(gamma_nerve("X_HEX"), make_twisted_data(trivial_action(C2, S3))), fault="flip-gauge"
    )
    ok = ok and not mutated.ok
    elapsed = time.monotonic() - start
    _report(6, "long exact sequence exact at every node", ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_7_existence_criterion():
    start = time.monotonic()
    ok = True
    for inst in _grid():
        res = existence_check(coefficient_ladder(inst.space, inst.data))
        nonempty = len(h1_twisted(CechSystem(inst.space, inst.data))) > 0
        if res.exists != nonempty:
            ok = False
        if res.exists and res.witness is None:
            ok = False
    # the constructed empty instance participates
    space = gamma_nerve("Y_TRI_TRIVC2")
    res = existence_check(coefficient_ladder(space, c_q_data(INV)))
    ok = ok and not res.exists
    elapsed = time.monotonic() - start
    _report(7, "existence criterion agrees with enumeration", ok, f"{elapsed:.2f}s")


def test_criterion_8_action_roundtrips_and_sections_lemma():
    start = time.monotonic()
    ok = True
    fixtures = []
    for data in (make_twisted_data(INV), c_q_data(INV)):
        fixtures.append(regular_ghat_set(build_twisted_product(data)))
    fixtures.append(homogeneous_space(make_twisted_data(INV), [0, 2]))
    for m in fixtures:
        assert m.size <= 16
        n = to_ghat(m)
        back = from_ghat(n)
        if (back.g_act, back.gamma_act) != (m.g_act, m.gamma_act):
            ok = False
    # the sections lemma, enumerated over all coefficient-equivariant maps
    ok = ok and _sections_lemma_holds()
    elapsed = time.monotonic() - start
    _report(8, "action dictionaries and sections lemma", ok and elapsed < 30.0, f"{elapsed:.2f}s")


def _sections_lemma_holds() -> bool:
    from twistcech.actions import is_twisted_equivariant, quotient_by_g, validate_twisted_action

    for data in (make_twisted_data(INV), c_q_data(INV)):
        prod = build_twisted_product(data)
        e = regular_ghat_set(prod)
        g = data.g
        point = validate_twisted_action(data, 1, tuple((0,) for _ in g.elements()), tuple((0,) for _ in C2.elements()))
        targets = [point]
        if all(v in (0, 2) for row in data.table for v in row):
            m = homogeneous_space(data, [0, 2])
            targets.append(validate_twisted_action(data, m.size, m.g_act, m.gamma_act))
        for m in targets:
            assert e.size <= 8 and m.size <= 4
            orbits, gamma_rows, proj = quotient_by_g(e)
            reps = [orb[0] for orb in orbits]
            for images in itertools.product(range(m.size), repeat=len(reps)):
                smap = [None] * e.size
                consistent = True
                for rep, img in zip(reps, images):
                    for a in g.elements():
                        p = e.g_act[a][rep]
                        val = m.g_act[a][img]
                        if smap[p] is None:
                            smap[p] = val
                        elif smap[p] != val:
                            consistent = False
                if not consistent or any(v is None for v in smap):
                    continue
                upstairs = is_twisted_equivariant(tuple(smap), e, m)
                downstairs = _induced_section_equivariant(e, m, smap, orbits, gamma_rows, proj)
                if upstairs != downstairs:
                    return False
    return True


def _induced_section_equivariant(e, m, smap, orbits, gamma_rows, proj):
    g = e.data.g
    orbit_key = {}
    for p in range(e.size):
        for mm in range(m.size):
            orbit_key[(p, mm)] = frozenset((e.g_act[a][p], m.g_act[a][mm]) for a in g.elements())
    section = {proj[p]: orbit_key[(p, smap[p])] for p in range(e.size)}
    for t in e.data.gamma.elements():
        for ob in range(len(orbits)):
            p = orbits[ob][0]
            moved_pair = orbit_key[(e.gamma_act[t][p], m.gamma_act[t][smap[p]])]
            if section[gamma_rows[t][ob]] != moved_pair:
                return False
    return True


def test_criterion_9_recocycling():
    start = time.monotonic()
    ok = True
    for inst in _grid():
        data = inst.data
        g, gamma = data.g, data.gamma
        system = CechSystem(inst.space, data)
        h1 = h1_twisted(system)
        admissible = []
        for combo in itertools.product(g.elements(), repeat=gamma.order - 1):
            s = (0,) + combo
            try:
                admissible.append(recocycle(data, s))
            except InputError:
                continue
        for rec in admissible:
            new_h1 = h1_twisted(CechSystem(inst.space, rec.new))
            if len(new_h1) != len(h1):
                ok = False
                continue
            images = {
                new_h1.class_of(transport_cocycle(h1.representative(cid), rec))
                for cid in range(len(h1))
            }
            if len(images) != len(h1):
                ok = False
    elapsed = time.monotonic() - start
    _report(9, "recocycling gives explicit class bijections", ok and elapsed < 120.0, f"{elapsed:.2f}s")


def test_criterion_10_determinism(tmp_path):
    start = time.monotonic()
    outs = []
    for name in ("r1.json", "r2.json"):
        target = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "twistcech.cli", "verify", "all", "--out", str(target)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(target.read_bytes())
    ok = outs[0] == outs[1]
    elapsed = time.monotonic() - start
    _report(10, "verify reports are byte-identical", ok, f"{elapsed:.2f}s")
