"""CLI surface: reference resolution, report formats, exit codes, determinism."""

import functools
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcech import cech, cli, correspond, extensions, fixtures, groups, nerves
from twistcech.cli import main
from twistcech.errors import InputError
from twistcech.fixtures import gamma_nerve, group
from twistcech.nerves import Nerve
from twistcech.serialize import (
    group_from_dict,
    nerve_from_dict,
    report_to_json,
    twisted_data_from_dict,
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_group_classes_s3(capsys):
    code, out = run_cli(["group", "classes", "S3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["sizes"] == [1, 2, 3]


def test_group_aut_c4(capsys):
    code, out = run_cli(["group", "aut", "C4"], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["aut_order"] == 2


def test_group_aut_over_the_order_guard_exits_3(capsys):
    code, out = run_cli(["group", "aut", "Q8", "--budget-order", "4"], capsys)
    assert code == 3
    check = json.loads(out)["checks"][0]
    assert check["name"] == "budget" and "order 8 exceeds guard 4" in check["error"]


def test_group_info_bad_table(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    table[1][2] = 1
    bad.write_text(json.dumps({"order": 3, "mul": table}))
    code, out = run_cli(["group", "info", str(bad)], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["checks"][0]["status"] == "fail"
    assert payload["checks"][0]["witness"]


def test_extensions_classify(capsys):
    code, out = run_cli(["extensions", "classify", "C2", "C4", "--action", "inversion"], capsys)
    assert code == 0
    rows = json.loads(out)["checks"][0]["classes"]
    assert [r["product_isomorphic_to"] for r in rows] == ["D4", "Q8"]
    code, out = run_cli(["extensions", "classify", "C2", "C2"], capsys)
    rows = json.loads(out)["checks"][0]["classes"]
    assert sorted(r["product_isomorphic_to"] for r in rows) == ["C2xC2", "C4"]


def test_extensions_classify_d4_on_c2(capsys):
    # H^2(D4; C2) has order 8; the catalogue has no group of order 16
    code, out = run_cli(["extensions", "classify", "D4", "C2"], capsys)
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["count"] == 8
    assert [r["product_isomorphic_to"] for r in check["classes"]] == [None] * 8


def test_extensions_classify_budget_exits(capsys):
    # |Z^2| = 27 is over --budget-enum 2
    code, out = run_cli(["extensions", "classify", "C4", "C3", "--budget-enum", "2"], capsys)
    assert code == 3
    assert json.loads(out)["checks"][0]["error"] == "kernel of d2 has 27 elements, budget 2"
    # 7^3 * 2 = 686 coordinates of 3-cochains is over the coordinate guard
    code, out = run_cli(["extensions", "classify", "C8", "C2xC2"], capsys)
    assert code == 3
    assert "coordinates" in json.loads(out)["checks"][0]["error"]


def test_h1_counts(capsys):
    code, out = run_cli(["h1", "X_HEX", "X_HEX/C4,inversion,trivial", "--reduced"], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["count"] == 2
    code, out = run_cli(["h1", "Y_TRI", "circle/S3"], capsys)
    assert json.loads(out)["checks"][0]["count"] == 3


def test_h1_empty_is_pass(capsys):
    code, out = run_cli(["h1", "Y_TRI_TRIVC2", "X_HEX/C4,inversion,square"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["count"] == 0
    assert payload["checks"][0]["status"] == "pass"


def test_verify_only_subset(capsys):
    code, out = run_cli(
        ["verify", "les", "--only", "X_HEX/C4,inversion,square", "--format", "tsv"], capsys
    )
    assert code == 0
    assert "fail" not in out


def test_verify_budget_exit(capsys):
    code, out = run_cli(["verify", "les", "--only", "X_HEX/Q8,q8_swap,square", "--budget-enum", "2"], capsys)
    assert code == 3


def test_h1_budget_exit_names_walked_candidates(capsys):
    # X_OCT with S3 walks one edge solution times six root values
    code, out = run_cli(["h1", "X_OCT", "X_HEX/S3,trivial,trivial", "--budget-enum", "3"], capsys)
    assert code == 3
    check = json.loads(out)["checks"][0]
    assert check["name"] == "budget" and check["status"] == "fail"
    assert "walked more than 3 candidates" in check["error"]
    code, out = run_cli(["h1", "X_OCT", "X_HEX/S3,trivial,trivial"], capsys)
    assert code == 0 and json.loads(out)["checks"][0]["count"] == 2


def test_verify_fault_injection_exit(capsys):
    code, out = run_cli(
        ["verify", "les", "--only", "X_HEX/S3,trivial,trivial", "--fault", "flip-gauge"], capsys
    )
    assert code == 1
    assert "fail" in out
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [(c["name"], c["error"]) for c in failed] == [
        (
            "les[X_HEX/S3,trivial,trivial] h1(G/Z): delta-preimage of twist class == image of twisted H1(G)",
            "obstruction of a quotient-cocycle lift escaped the centre",
        )
    ]


def test_verify_unknown_instance(capsys):
    code, out = run_cli(["verify", "les", "--only", "nope"], capsys)
    assert code == 2


def test_verify_grid_accepts_only_the_default_grid(capsys):
    row = ["--only", "X_HEX/C2,trivial,trivial"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "existence", "--grid", "covers", *row])
    assert exc.value.code == 2
    code, out = run_cli(["verify", "existence", "--grid", "default-grid", *row], capsys)
    assert code == 0 and json.loads(out)["job"]["grid"] == "default-grid"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--budget-enum", "-1"),
        ("--budget-enum", "1.5"),
        ("--budget-order", "-1"),
        ("--time-limit", "-1"),
        ("--time-limit", "nan"),
        ("--time-limit", "abc"),
    ],
)
def test_nonsense_limits_exit_2(capsys, flag, value):
    # parsed as given, a negative budget failed only once used up, and a NaN time limit never expired
    with pytest.raises(SystemExit) as exc:
        main(["verify", "existence", "--only", "X_HEX/C2,trivial,trivial", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_time_limit_may_be_infinite(capsys):
    code, out = run_cli(["verify", "existence", "--only", "X_HEX/C2,trivial,trivial", "--time-limit", "inf"], capsys)
    assert code == 0 and json.loads(out)["checks"][0]["status"] == "pass"


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["h1", "X_HEX", "X_HEX/Q8,q8_swap,square"], "enumerate_cocycles' edge search"),
        (["extensions", "classify", "C2", "C4"], "second_cohomology's Z^2 listing"),
        (["group", "aut", "Q8"], "hom search"),
        (["verify", "les"], "enumerate_cocycles' edge search, at grid row circle/C2"),
    ],
)
def test_time_limit_stops_every_command_in_its_first_loop(capsys, argv, stage):
    code, out = run_cli([*argv, "--time-limit", "0"], capsys)
    assert code == 3
    [check] = json.loads(out)["checks"]
    assert check == {"name": "budget", "status": "fail", "error": f"time limit reached in {stage}"}


def test_time_limit_refuses_before_the_z2_listing_is_built(monkeypatch, capsys):
    # D4 acting trivially on C4 has |Z^2| = 32,768: the clock is read before they are listed
    from twistcech.abelian import Echelon

    def listing(self):
        raise AssertionError("Echelon.elements was called")

    monkeypatch.setattr(Echelon, "elements", listing)
    code, out = run_cli(["extensions", "classify", "D4", "C4", "--time-limit", "0"], capsys)
    assert code == 3
    assert json.loads(out)["checks"][0]["error"] == "time limit reached in second_cohomology's Z^2 listing"


def test_time_limit_stops_the_roundtrips_after_the_row_h1_is_built(monkeypatch, capsys):
    # the clock passes the deadline once the row's H^1 is listed: the descend-ascend loop must read it
    import time

    now, descents = [0.0], []
    real_h1, real_descend = cech.h1_twisted, cli.descend

    def h1_then_late(*args, **kwargs):
        h1 = real_h1(*args, **kwargs)
        now[0] = float("inf")
        return h1

    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    monkeypatch.setattr(cech, "h1_twisted", h1_then_late)
    monkeypatch.setattr(cli, "descend", lambda *args: descents.append(args) or real_descend(*args))
    row = "X_HEX/C4,trivial,square"
    code, out = run_cli(["verify", "roundtrips", "--only", row], capsys)
    assert code == 3 and descents == []
    [check] = json.loads(out)["checks"]
    assert check["error"] == f"time limit reached in roundtrips' descend-ascend, at grid row {row}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extensions", "classify", "C4", "C4", "--action", "inversion"], "inversion needs an acting group of order at most 2; C4 has order 4"),
        (["extensions", "classify", "C4", "Q8", "--action", "q8_swap"], "q8_swap needs an acting group of order at most 2; C4 has order 4"),
    ],
)
def test_named_order_two_actions_refuse_a_larger_acting_group(capsys, argv, message):
    code, out = run_cli(argv, capsys)
    assert code == 2
    [check] = json.loads(out)["checks"]
    assert (check["kind"], check["error"]) == ("InputError", message)


def test_group_aut_over_the_enumeration_budget_exits_3(capsys):
    code, out = run_cli(["group", "aut", "Q8", "--budget-enum", "1"], capsys)
    assert code == 3
    assert json.loads(out)["checks"][0]["error"] == "hom search budget 1 exhausted"


def test_verify_refused_by_the_coordinate_guard_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cech, "DEFAULT_COORD_GUARD", 4)
    code, out = run_cli(["verify", "les", "--only", "X_HEX/Q8,q8_swap,square"], capsys)
    assert code == 3
    error = json.loads(out)["checks"][0]["error"]
    assert error == "abelian cochain space has 12 coordinates, guard 4, at grid row X_HEX/Q8,q8_swap,square"


def test_reports_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for target in (out1, out2):
        code = main(["verify", "all", "--out", str(target), "--seed", "11"])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def _json_dumps_report(report):
    """The report format, as the standard library writes it: the oracle of ``report_to_json``."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    assert report_to_json(value) == _json_dumps_report(value)


@pytest.mark.parametrize(
    "value",
    [
        {"é": ["ü", -3, True, None, (), {}, [[], [0, -1]]], "a": {"b": (1, False)}},
        [0, True, 2],  # a bool among ints leaves the one-join path
        {"x": [10**30, -(10**30)]},
    ],
)
def test_report_writer_matches_json_dumps_on_edge_cases(value):
    assert report_to_json(value) == _json_dumps_report(value)


@pytest.mark.parametrize("value", [{1: "int key"}, {"k": {1, 2}}, [object()]])
def test_report_writer_refuses_non_str_keys_and_unknown_types(value):
    with pytest.raises(TypeError):
        report_to_json(value)


# the commands of CI's hash-seed comparison
CI_COMMANDS = (
    "verify all",
    "verify roundtrips",
    "verify correspondence",
    "extensions classify D4 C2",
    "group aut Q8",
    "verify les --fault flip-gauge",
    "h1 X_HEX X_HEX/Q8,q8_swap,square --reduced",
    "extensions classify C2 C4 --action inversion",
    "extensions classify C2xC2 C2",
    "extensions classify C3 C8",
)


def test_report_writer_matches_json_dumps_on_command_reports(monkeypatch, tmp_path):
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return report_to_json(payload)

    monkeypatch.setattr(cli, "report_to_json", recording)
    out = tmp_path / "report.json"
    for cmd in CI_COMMANDS:
        assert main([*cmd.split(), "--out", str(out)]) == (1 if "--fault" in cmd else 0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mul": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}))
    assert main(["group", "info", str(bad), "--out", str(out)]) == 2
    assert len(payloads) == len(CI_COMMANDS) + 1
    for payload in payloads:
        assert report_to_json(payload) == _json_dumps_report(payload)
    assert out.read_text(encoding="utf-8") == _json_dumps_report(payloads[-1])


def test_verify_all_matches_stored_report(tmp_path):
    # the benchmark's stored output of the default grid; job.seed is the one
    # field that depends on the run's seed, so it is set aside on both sides
    stored_path = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-grid.json"
    stored = json.loads(stored_path.read_text(encoding="utf-8"))["jobs"][0]
    out = tmp_path / "all.json"
    assert main(["verify", "all", "--out", str(out)]) == stored["exit"]
    report = json.loads(out.read_text(encoding="utf-8"))
    report["job"].pop("seed")
    stored["report"]["job"].pop("seed", None)
    assert report == stored["report"]


def test_verify_all_builds_each_row_once(count_calls, tmp_path):
    calls = count_calls(cech, "enumerate_cocycles", "abelian_complex")
    for row, enumerations in (
        # Z, G and G/Z once each, the twisted H^1 read off H^1(G), and the one
        # plain H^1 set of the quotient that the correspondence suite shares;
        # 5 when the trivially twisted H^1 was enumerated again
        ("X_HEX/S3,trivial,trivial", 4),
        # a nontrivial twist makes a system of its own, one more enumeration
        ("X_HEX/Q8,q8_swap,square", 5),
    ):
        calls.update(dict.fromkeys(calls, 0))
        code = main(["verify", "all", "--only", row, "--out", str(tmp_path / "row.json")])
        assert code == 0
        assert calls == {"enumerate_cocycles": enumerations, "abelian_complex": 1}, row


def test_verify_all_work_counts_repeat_on_a_second_call(count_calls, tmp_path):
    calls = count_calls(
        cech,
        "action_ladder",
        "enumerate_cocycles",
        "_compile",
        "abelian_complex",
        "h0_twisted",
        "_fibres_are_orbits",
        "delta_h1_vector",
        "act_h1z_by_h0q",
        "make_cocycle",
        "_validated",
        "_tree_normalize",
        "gauge",
        "pullback",
        "d1",
    )
    trees = count_calls(nerves, "tree_gauge", "quotient")
    assert main(["verify", "all", "--out", str(tmp_path / "all.json")]) == 0
    # one action ladder per distinct space and action of the 26 rows; 26
    # ladders, 126 enumerations and compilations, 26 complexes and 78 H^0
    # sets when each row built its own ladder.  The twist-free checks and
    # the obstructions once per action ladder; 78 fibre checks, 149
    # obstructions and 158 actions on H^1(Z) when every row checked them,
    # and 749 cocycle checks and 808 normalizations when class_of also
    # normalized cocycles that were normalized already.  2,076 gauges and
    # 92 pullbacks when each new H^1 orbit took every constant gauge and
    # H^1 reduced along every central element, not along generators; 1,111
    # gauges when Q8's generating sequence kept the redundant -1.  199 tree
    # gauges when the correspondence fibres gauged every class's quotient
    # part along the tree; the representatives are tree-normalized already.
    # 92 when both fibres of a free row computed the cover's monodromy.
    # 183 d1 calls when the abelian complex probed d1 on unit 1-cochains.
    # 973 gauges and 46 pullbacks when each H^1 generator move was a gauge
    # call and H^1 reduced pulled back through ``pullback``; the moves are
    # compiled translate tables now.  Every cocycle check goes through
    # ``_validated``: 564 of them were ``make_cocycle`` calls when relabel
    # and the centre products rebuilt pairs to validate.  class_of's
    # normalizations were 48 of the 70 ``nerves.tree_gauge`` calls; they
    # read the compiled forest off the key now.  The other 22 were the free
    # rows' monodromies, one per row; the rows on one free space share its
    # descent now, and so the one monodromy behind its cover class.
    # 22 quotient descents when each free row built its own.  115
    # ``make_cocycle`` and 564 ``_validated`` calls when the Grothendieck
    # fibre built and checked one glued cocycle per walked candidate; it
    # reads the plain H^1 set's keys now.  46 ``make_cocycle`` and 495
    # ``_validated`` calls when descend checked its base data by a
    # hand-written c-corrected law and ascend rebuilt tuples to validate;
    # the 46 descents are glued-group cocycles checked at d1's sites now,
    # and both sides validate their flat keys directly.
    first = dict(calls)
    assert dict(trees) == {"tree_gauge": 2, "quotient": 2}
    assert first == {
        "action_ladder": 16,
        "enumerate_cocycles": 80,
        "_compile": 80,
        "abelian_complex": 16,
        "h0_twisted": 48,
        "_fibres_are_orbits": 48,
        "delta_h1_vector": 54,
        "act_h1z_by_h0q": 107,
        "make_cocycle": 0,
        "_validated": 541,
        "_tree_normalize": 48,
        "gauge": 201,
        "pullback": 0,
        "d1": 54,
    }
    # what one main() call keeps for the next is built once per object: the
    # compiled tables of the built-in spaces and of each built-in nerve's
    # plain space, and the centres and central quotients of the built-in
    # groups; every system, ladder, H^1 set and descent is built again
    assert main(["verify", "all", "--out", str(tmp_path / "again.json")]) == 0
    assert {name: calls[name] - first[name] for name in calls} == first
    assert dict(trees) == {"tree_gauge": 4, "quotient": 4}


FRESH_PROCESS = """
import collections, json, sys
from twistcech import abelian, cech, cli
calls = collections.Counter()
for module, name in ((cech, "_compile"), (cech, "_compile_space"), (cli, "quotient"), (abelian, "_coordinate_search")):
    def counted(*args, _real=getattr(module, name), _name=name):
        calls[_name] += 1
        return _real(*args)
    setattr(module, name, counted)
counts = []
for out in sys.argv[2:]:
    calls.clear()
    assert cli.main([*json.loads(sys.argv[1]), "--out", out]) == 0
    counts.append(dict(calls))
print(json.dumps(counts))
"""


def _fresh_process_runs(argv, outs):
    """Run one command once per output path in a fresh interpreter, where no
    earlier test has compiled a built-in space; the calls counted per run."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cmd = [sys.executable, "-c", FRESH_PROCESS, json.dumps(argv), *map(str, outs)]
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout)


def test_a_fresh_process_compiles_each_space_once_and_repeats_its_reports(tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    cold, warm = _fresh_process_runs(["verify", "all"], outs)
    # the spaces of a cold `verify all`: X_HEX, X_TWO_TRI, the plain space of
    # Y_TRI and one plain space per quotient; 8 while each access to a grid
    # row's plain space built a new trivial Gamma-nerve.  A second call in the
    # process compiles only the quotients' plain spaces, whose nerves are new.
    # The coordinates of the four coefficient groups' centres are searched
    # once each and kept on the centres; 16 searches a call, one per abelian
    # complex, when nothing kept them
    assert cold == {"_compile": 80, "_compile_space": 5, "quotient": 2, "_coordinate_search": 4}
    assert warm == {"_compile": 80, "_compile_space": 2, "quotient": 2}
    assert outs[0].read_bytes() == outs[1].read_bytes()
    cold, warm = _fresh_process_runs(["h1", "X_HEX", "X_HEX/Q8,q8_swap,square", "--reduced"], outs)
    assert (cold, warm) == ({"_compile": 1, "_compile_space": 1}, {"_compile": 1})
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_a_fresh_process_compiles_each_point_space_once_and_repeats_its_classification(tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    cold, warm = _fresh_process_runs(["extensions", "classify", "C2xC2", "C2"], outs)
    # Gamma keeps its point space and the centre of C2 its coordinates: one
    # compile and one search in the process, where each call compiled the
    # point and searched the centre's coordinates twice
    assert (cold, warm) == ({"_compile": 1, "_compile_space": 1, "_coordinate_search": 1}, {"_compile": 1})
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_kept_state_does_not_keep_a_group_read_from_a_file_alive(monkeypatch, tmp_path):
    # each call reads a new Gamma; what it keeps must go with it
    gamma_file = tmp_path / "gamma.json"
    gamma_file.write_text(json.dumps({"mul": [list(row) for row in group("C2xC2").mul]}))
    groups, spaces = [], []
    real_resolve, real_point = cli.resolve_group, extensions.point_space

    def resolved(ref):
        found = real_resolve(ref)
        groups.append(weakref.ref(found))
        return found

    def point(gamma):
        space = real_point(gamma)
        spaces.append(weakref.ref(space))
        return space

    monkeypatch.setattr(cli, "resolve_group", resolved)
    monkeypatch.setattr(extensions, "point_space", point)
    reports = []
    for ref in ("C2xC2", str(gamma_file)):
        out = tmp_path / "classify.json"
        assert main(["extensions", "classify", ref, "C2", "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8"))["checks"])
    assert reports[0] == reports[1]
    gc.collect()
    user_gamma, user_space = groups[2], spaces[1]
    assert user_gamma() is None and user_space() is None
    assert groups[0]() is group("C2xC2") and spaces[0]() is not None


def test_verify_all_shares_plain_h1_and_nerve_forests(count_calls, monkeypatch, tmp_path):
    calls = count_calls(cech, "enumerate_cocycles")
    # the searched nerves stay referenced, so no two of them share an id
    searched = []
    inner_forest = vars(Nerve)["_forest"].func

    def counted_forest(self):
        searched.append(self)
        return inner_forest(self)

    forest = functools.cached_property(counted_forest)
    forest.__set_name__(Nerve, "_forest")
    monkeypatch.setattr(Nerve, "_forest", forest)
    assert main(["verify", "all", "--out", str(tmp_path / "all.json")]) == 0
    # 170 with three plain H^1 sets per free row; 126 with one; 80 with one
    # action ladder per space and action and H^1(G) as a trivial twist's H^1
    assert calls["enumerate_cocycles"] == 80
    assert searched and len({id(n) for n in searched}) == len(searched)


def test_verify_all_compile_calls(count_calls, tmp_path):
    calls = count_calls(cech, "_compile")
    assert main(["verify", "all", "--out", str(tmp_path / "all.json")]) == 0
    # 328 when the abelian complex probed d1 on a trivial-twist copy of the
    # centre system, the twist target read a twisted copy of it, and each
    # projected glued cocycle built its own quotient-group system; 216 when
    # ascend compiled the upstairs system again on every roundtrip; 170 when
    # each fibre projected its classes through a quotient-group system; 126
    # when each row built its own ladder
    assert calls["_compile"] <= 80


def test_verify_roundtrips_builds_one_product_and_base_system_per_free_row(count_calls, tmp_path):
    compiled = count_calls(cech, "_compile")
    built = count_calls(extensions, "build_twisted_product")
    trips = count_calls(correspond, "descend", "ascend")
    assert main(["verify", "roundtrips", "--out", str(tmp_path / "rt.json")]) == 0
    # run alone, each of the 22 free rows builds one glued product and one
    # plain base system on it, which all the row's descents share (46 in
    # all); the other 22 compiles are the rows' upstairs systems
    assert {**compiled, **built, **trips} == {"_compile": 44, "build_twisted_product": 22, "descend": 46, "ascend": 46}


def test_glued_products_are_not_validated_again(count_calls, tmp_path):
    # check_cocycle has proved the group law of every product the commands
    # glue; validate_group ran once per glued table, 22 times for verify all
    # and 8 times for classify C2xC2 C2
    validated = count_calls(groups, "validate_group")
    assert main(["verify", "all", "--out", str(tmp_path / "all.json")]) == 0
    assert validated["validate_group"] == 0
    assert main(["extensions", "classify", "C2xC2", "C2", "--out", str(tmp_path / "classify.json")]) == 0
    assert validated["validate_group"] == 0


@pytest.mark.parametrize("gamma", ["D4", "Q8"])
def test_classify_with_order_16_products_matches_stored_report(gamma, tmp_path):
    # neither the catalogue nor the benchmark's stored output covers these
    # order-16 products, so their reports are stored here
    out = tmp_path / "classify.json"
    assert main(["extensions", "classify", gamma, "C2", "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / f"classify_{gamma}_C2.json").read_bytes()


def test_verify_all_row_checks_do_not_depend_on_the_other_rows(tmp_path):
    # twin rows share an action ladder; nothing of one row's twist may reach the other
    assert main(["verify", "all", "--out", str(tmp_path / "all.json")]) == 0
    full = json.loads((tmp_path / "all.json").read_text(encoding="utf-8"))["checks"]
    for row in fixtures.default_grid():
        out = tmp_path / "row.json"
        assert main(["verify", "all", "--only", row.name, "--out", str(out)]) == 0
        alone = json.loads(out.read_text(encoding="utf-8"))["checks"]
        assert alone == [c for c in full if f"[{row.name}]" in c["name"]], row.name


def test_verify_drops_each_action_ladder_after_its_last_row(monkeypatch, tmp_path):
    real_ladder, real_les = cli.action_ladder, cli.les_verify
    built, alive_at = [], []

    def recorded_ladder(space, action, **kwargs):
        ladder = real_ladder(space, action, **kwargs)
        built.append(weakref.ref(ladder))
        return ladder

    def recorded_les(ladder, **kwargs):
        alive_at.append(sum(ref() is not None for ref in built))
        return real_les(ladder, **kwargs)

    # twin rows far apart: the grid's rows interleaved from both ends
    grid = fixtures.default_grid()
    shuffled = [row for pair in zip(grid, grid[::-1]) for row in pair][: len(grid)]
    monkeypatch.setattr(cli, "default_grid", lambda: shuffled)
    monkeypatch.setattr(cli, "action_ladder", recorded_ladder)
    monkeypatch.setattr(cli, "les_verify", recorded_les)
    assert main(["verify", "all", "--out", str(tmp_path / "shuffled.json")]) == 0
    keys = [(row.space_name, row.data.action) for row in shuffled]
    spans = {key: (keys.index(key), len(keys) - 1 - keys[::-1].index(key)) for key in keys}
    assert len(built) == len(spans) == 16
    assert max(last - first for first, last in spans.values()) > 1
    # at each row, exactly the ladders of the keys whose rows it lies between
    assert alive_at == [sum(first <= i <= last for first, last in spans.values()) for i in range(len(keys))]
    assert all(ref() is None for ref in built)

    monkeypatch.setattr(cli, "default_grid", fixtures.default_grid)
    assert main(["verify", "all", "--out", str(tmp_path / "all.json")]) == 0

    def checks(name: str) -> list:
        return sorted(json.dumps(c, sort_keys=True) for c in json.loads((tmp_path / name).read_text(encoding="utf-8"))["checks"])

    assert checks("shuffled.json") == checks("all.json")


def test_no_command_calls_the_smith_form(count_calls, tmp_path):
    import twistcech.abelian as abelian

    calls = count_calls(abelian, "smith_normal_form")
    assert main(["verify", "all", "--out", str(tmp_path / "all.json")]) == 0
    assert main(["extensions", "classify", "D4", "C2", "--out", str(tmp_path / "ext.json")]) == 0
    # kernels, solves and coset labels all come from Howell forms; the Smith
    # form is only the tests' reference
    assert calls == {"smith_normal_form": 0}


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "twistcech.cli", "group", "info", "Q8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"][0]["order"] == 8


def test_serialize_roundtrips(tmp_path):
    g = group("Q8")
    payload = {"label": "Q8", "order": 8, "mul": [list(r) for r in g.mul]}
    loaded = group_from_dict(payload)
    assert loaded.mul == g.mul

    nerve_payload = {"vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]]}
    n = nerve_from_dict(nerve_payload)
    assert n.edges == ((0, 1), (0, 2), (1, 2))

    data_payload = {
        "gamma": "C2",
        "g": "C4",
        "theta": [[0, 1, 2, 3], [0, 3, 2, 1]],
        "c": [[0, 0], [0, 2]],
    }
    data = twisted_data_from_dict(data_payload)
    assert data.c(1, 1) == 2


def test_h1_from_json_files(tmp_path, capsys):
    data_file = tmp_path / "data.json"
    data_file.write_text(
        json.dumps(
            {
                "gamma": "C2",
                "g": "C4",
                "theta": [[0, 1, 2, 3], [0, 3, 2, 1]],
                "c": [[0, 0], [0, 2]],
            }
        )
    )
    space_file = tmp_path / "space.json"
    space_file.write_text(
        json.dumps(
            {
                "vertices": 6,
                "simplices": [[i, (i + 1) % 6] for i in range(6)],
                "gamma": "C2",
                "act": [list(range(6)), [(v + 3) % 6 for v in range(6)]],
            }
        )
    )
    code, out = run_cli(["h1", str(space_file), str(data_file)], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["count"] == 2


def test_serialize_rejects_bad_cocycle():
    # C2 inverting C4: theta_1(c(1,1)) c(1,1) must be c(1,1) c(1,1), so c(1,1) = 1 breaks the identity
    data_payload = {
        "gamma": "C2",
        "g": "C4",
        "theta": [[0, 1, 2, 3], [0, 3, 2, 1]],
        "c": [[0, 0], [0, 1]],
    }
    with pytest.raises(InputError, match="CocycleViolation"):
        twisted_data_from_dict(data_payload)


@pytest.mark.parametrize(
    "argv, payload, error",
    [
        (["group", "info", "IN"], {"mul": 5}, "'mul' must be a list of rows"),
        (["group", "info", "IN"], {"mul": [["a"]]}, "entry 'mul' is not made of integers"),
        # strings, floats and booleans are not read as integers
        (["group", "info", "IN"], {"mul": ["01", "10"]}, "entry 'mul' is not made of integers"),
        (["group", "info", "IN"], {"mul": [[0, 1.9], [1, 0]]}, "entry 'mul' is not made of integers"),
        (["group", "info", "IN"], {"mul": [[0, True], [True, 0]]}, "entry 'mul' is not made of integers"),
        # a label is a string or absent: anything else would also make the group unhashable
        *((["group", "info", "IN"], {"label": label, "mul": [[0, 1], [1, 0]]}, "entry 'label' is not a string")
          for label in (5, ["x"], {"a": 1}, True)),
        (["h1", "IN", "circle/C2"], {"vertices": "x", "gamma": "C2", "act": [[0], [0]]}, "entry 'vertices'"),
        (
            ["h1", "IN", "circle/C2"],
            {"vertices": 3.0, "simplices": [[0, 1], [1, 2], [0, 2]], "gamma": "C2", "act": [[0, 1, 2], [0, 1, 2]]},
            "entry 'vertices' is not made of integers",
        ),
        (["h1", "X_HEX", "IN"], {"gamma": "C2", "g": "C4"}, "needs an object with a 'theta' entry"),
        (["h1", "X_HEX", "IN"], {"gamma": "C2", "g": "C4", "theta": 3}, "'theta' must be a list of rows"),
    ],
    ids=[
        "mul-not-a-table",
        "mul-not-integers",
        "mul-string-rows",
        "mul-float-entry",
        "mul-bool-entries",
        "label-int",
        "label-list",
        "label-dict",
        "label-bool",
        "vertices-not-an-integer",
        "vertices-float",
        "theta-missing",
        "theta-not-a-table",
    ],
)
def test_malformed_json_input_exits_2_with_an_input_check(tmp_path, capsys, argv, payload, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([str(path) if a == "IN" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    check = json.loads(captured.out)["checks"][0]
    assert check["name"] == "input" and check["status"] == "fail" and error in check["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name, bad", [("c_negative_C2_C4.json", -1), ("c_99_C2_C4.json", 99)])
def test_a_twist_value_out_of_range_exits_2_with_an_input_check(capsys, name, bad):
    # no element has a negative index or one past the group's order
    code = main(["h1", "X_HEX", str(Path(__file__).parent / "data" / name)])
    captured = capsys.readouterr()
    assert code == 2
    check = json.loads(captured.out)["checks"][0]
    assert check["name"] == "input" and check["error"] == f"c(1,1) = {bad} is out of range for a group of order 4"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name, kind, error, witness",
    [
        ("space_not_an_action.json", "InputError", "vertex action fails to be an action at (1,1)", []),
        ("space_not_simplicial.json", "NotSimplicial", "NotSimplicial: witness (1, (0, 1))", [1, [0, 1]]),
    ],
)
def test_a_bad_space_exits_2_with_an_input_check(capsys, name, kind, error, witness):
    # the hexagon under C2, once by a 3-cycle table and once by a swap that moves the edge (0,1) off the nerve
    code = main(["h1", str(Path(__file__).parent / "data" / name), "X_HEX/C4,trivial,trivial"])
    captured = capsys.readouterr()
    assert code == 2
    check = json.loads(captured.out)["checks"][0]
    assert (check["name"], check["kind"], check["error"], check["witness"]) == ("input", kind, error, witness)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("payload", [{"label": "Z2"}, {"label": None}, {}], ids=["string", "null", "absent"])
def test_group_file_label_is_a_string_or_absent(tmp_path, capsys, payload):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**payload, "mul": [[0, 1], [1, 0]]}))
    code, out = run_cli(["group", "info", str(path)], capsys)
    assert code == 0 and json.loads(out)["checks"][0]["order"] == 2
    assert group_from_dict(json.loads(path.read_text())).label == payload.get("label")


def _trivial_x_hex_system():
    return cech.CechSystem(
        gamma_nerve("X_HEX"), twisted_data_from_dict({"gamma": "C2", "g": "C4", "theta": [[0, 1, 2, 3]] * 2})
    )


def test_make_cocycle_names_an_out_of_range_slot():
    system = _trivial_x_hex_system()
    a, phi = cech.trivial_pair(system)
    with pytest.raises(InputError, match=r"a\[0,1\] = 4"):
        cech.make_cocycle(system, (4,) + a[1:], phi)
    with pytest.raises(InputError, match="not a twisted cocycle"):
        cech.make_cocycle(system, (1,) + a[1:], phi)


@pytest.mark.parametrize(
    "payload, slot",
    [
        ({"a": {0: 7}}, "a[0,1] = 7"),
        # a negative index must not wrap round to the last element
        ({"a": {0: -1}}, "a[0,1] = -1"),
        ({"phi": {1: {2: -2}}}, "phi[1][2] = -2"),
        ({"phi": {1: {5: 9}}}, "phi[1][5] = 9"),
    ],
)
def test_serialize_rejects_out_of_range_cocycle_entries(payload, slot):
    # payload overrides slots of the trivial pair: {"a": {edge: value}} and {"phi": {t: {vertex: value}}}
    system = _trivial_x_hex_system()
    a, phi = cech.trivial_pair(system)
    a = tuple(payload.get("a", {}).get(e, x) for e, x in enumerate(a))
    rows = payload.get("phi", {})
    phi = tuple(tuple(rows.get(t, {}).get(v, x) for v, x in enumerate(row)) for t, row in enumerate(phi))
    with pytest.raises(InputError, match=re.escape(slot) + " "):
        cech.make_cocycle(system, a, phi)


def test_h1_data_refs_resolve_without_building_the_grid(count_calls):
    rows = fixtures.default_grid()
    calls = count_calls(fixtures, "default_grid", "named_action")
    inputs = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "inputs").glob("trivial_*.json"))
    assert inputs
    for path in inputs:
        data = cli._resolve_data(str(path))
        assert data.gamma.order in (2, 4)
    assert calls == {"default_grid": 0, "named_action": 0}
    # a grid name builds its own row and no other
    for row in rows:
        calls["named_action"] = 0
        assert cli._resolve_data(row.name) == row.data
        assert calls["named_action"] <= 1
    assert calls["default_grid"] == 0
    with pytest.raises(InputError):
        cli._resolve_data("no-such-grid-row-or-file.json")
