import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from singer import cli, gf, hyper


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(argv, capsys, expect=0):
    code, out, _ = run(argv, capsys)
    assert code == expect, out
    return json.loads(out)


def test_classical_plane(capsys):
    obj = payload(["classical", "--q", "3"], capsys)
    assert obj["perfect"] and obj["action_regular"]
    assert obj["plane_certificate"]["order"] == 3
    assert sorted(obj["difference_set"]["elements"]) == sorted(
        obj["difference_set"]["elements"])


def test_classical_higher_dimension(capsys):
    obj = payload(["classical", "--q", "2", "--m", "3"], capsys)
    assert obj["action_regular"]
    assert obj["space"]["points"] == 15
    assert obj["difference_set"]["certified"] is False
    # a prime-power q: PG(3, 4) from the logs of GF(4^4)
    obj = payload(["classical", "--q", "4", "--m", "3"], capsys)
    assert obj["action_regular"] and obj["space"]["points"] == 85
    assert len(obj["space"]["lines"]) == 357


def test_classical_space_stdout_pinned(capsys):
    code, out, _ = run(["classical", "--q", "5", "--m", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c8279716706550e6a1651d5bdb3753957e3b40ed2cdbdf06ed10ddd3f6066f01")


def test_hyper_stdout_pinned(capsys):
    for argv, digest in (
            ("hyper quotient --p 5 --ext 3", "57b3102c515ac00eda4e421484bb7c5f"
             "06ec4a7684972e595d4721a72dc30b27"),
            ("hyper roundtrip --p 4 --ext 3", "a55f43a2d37a3be9b729b31d6a1a0592"
             "1715baf527f7b5cf2e4f4dbeec95a17a"),
            ("hyper quotient --p 3 --ext 2 --generators 2",
             "095eae81bceea17dd63130a3319fb3eed19c153ec06f29788431a0149e972c93"),
            ("hyper kalg --n 12", "9c2613f0a255d003382e68e4abe73d7e"
             "ba07adf05e2783d8867f934f998a14a0"),
            # dense hypersums of more than one machine word
            ("hyper kalg --n 64", "a14019f2308f4a43adaa88f07895ee0b"
             "89b46c97806b959b85e5866fdb09aba5"),
            # sparse hypersums
            ("hyper roundtrip --p 8 --ext 3", "c89c7af56947fa627a1e9a0da3147"
             "42f8c15b19a4ab100176d38ef91522571ee")):
        code, out, _ = run(argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("argv", [
    "hyper quotient --p 2 --ext 20",              # 2^20 orbits of size 1
    "hyper quotient --p 4 --ext 10",              # orbits of size <= 3
    # refused from the generators' orders, before the log tables
    "hyper quotient --p 2 --ext 20 --generators 1",
    "classical --q 100000000000031",              # a prime above 2^20
    "classical --q 3 --m 10000000",               # GF(3^(10^7 + 1))
    "classical --q 2 --m 11",                     # 8.4M incidences
    "classical --q 2 --m 15",                     # 2.1G incidences
    "hyper quotient --p 3 --ext 100000000",       # GF(3^(10^8))
    "hughes --group fieldquot:p=3,n=1,m=100000000 --targets 2",
    "lemma --p 100000000000031 --max 2",          # a prime above 2^20
    "lemma --p 2 --max 4096",                     # 2^8192: 8193 bits
    "lemma --p 1048573 --max 205",                # 8200 bits
    "lemma --p 2 --max 100000",
    # refused before the fiber group is listed: a regular group has one
    # element per point, and these groups have more than the point cap
    "f1 --m 7 --n 1 --S full",                    # 8! permutations
    "f1 --m 8 --n 1 --S full",
    "f1 --m 9 --n 1 --S alt",
    "f1 --m 1008 --n 1 --S affine:1008",          # 1009 * 1008
    "f1 --m 9999 --n 2",                          # the point cap first
    "f1 --m 100000 --chain 1",
])
def test_refusals_past_the_caps_are_fast(argv, capsys):
    t0 = time.perf_counter()
    code, out, err = run(argv.split(), capsys)
    assert time.perf_counter() - t0 < 2
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_classical_bad_order(capsys):
    code, _, err = run(["classical", "--q", "6"], capsys)
    assert code == 1 and "error" in err


def test_hughes_deterministic(capsys):
    args = ["hughes", "--group", "integers", "--targets", "6"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    obj = json.loads(out1)
    assert obj["log_hash"] == json.loads(out2)["log_hash"]
    assert obj["prefixes_certified"] >= 1


def test_hughes_reports_the_furthest_candidate(capsys):
    # stderr names the furthest enumeration position the search reached;
    # it is the least --bound that builds the set, and stdout stays the
    # payload whose sha256 the benchmark records for this command
    argv = ["hughes", "--group", "integers", "--targets", "250"]
    digest = "7607a6824f742d728989fa6faf0db4437c004ac68ed4fe70ae79989d3f8df703"
    for bound, reported in ((None, "(--bound 100000)"),
                            ("42188", "(--bound 42188)")):
        code, out, err = run(argv + (["--bound", bound] if bound else []),
                             capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert f"furthest candidate position 42187 {reported}" in err
    code, out, err = run(argv + ["--bound", "42187"], capsys)
    assert code == 3 and out == "" and "within 42187" in err


def test_hughes_free_group(capsys):
    obj = payload(["hughes", "--group", "free:2", "--targets", "4"], capsys)
    assert obj["difference_set"]["group"] == "free:2"


def test_hughes_free_rank_five_and_the_rank_cap(tmp_path, capsys):
    # generator 4 is named f; when it was e, the identity's name, the
    # log did not replay and the command ended in a traceback
    path = tmp_path / "f5.json"
    obj = payload(["--out", str(path), "hughes", "--group", "free:5",
                   "--targets", "60"], capsys)
    assert any(s.startswith("f") for s in obj["difference_set"]["elements"])
    code, out, _ = run(["--verify-only", str(path)], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["ok"] and rep["log"]["ok"]
    code, out, err = run(["hughes", "--group", "free:26", "--targets", "3"],
                         capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: free rank capped at 25")


def test_hughes_involution_refused(capsys):
    code, _, err = run(["hughes", "--group", "cyclic:4", "--targets", "2"],
                       capsys)
    assert code == 1 and "involution" in err


def test_hughes_bounded_failure(capsys):
    code, _, err = run(["hughes", "--group", "cyclic:7", "--targets", "6",
                        "--bound", "3"], capsys)
    assert code == 3 and "bounded" in err


def test_hyper_krasner(capsys):
    obj = payload(["hyper", "krasner"], capsys)
    assert obj["axioms"]["hyperfield"] is True


def test_hyper_kalg(capsys):
    obj = payload(["hyper", "kalg", "--n", "4"], capsys)
    assert obj["classification"]["case"] == "single-line"
    # n=3 is the documented axiom failure
    code, out, _ = run(["hyper", "kalg", "--n", "3"], capsys)
    assert code == 2
    assert json.loads(out)["axioms"]["axioms"]["associativity"] is False
    code2, _, _ = run(["hyper", "kalg", "--n", "2"], capsys)
    assert code2 == 1


def test_hyper_quotient(capsys):
    obj = payload(["hyper", "quotient", "--p", "3", "--ext", "2"], capsys)
    assert obj["contains_krasner"] == obj["subfield_test"]
    # 4 nonzero classes lie on a single line
    assert obj["classification"]["case"] == "single-line"
    obj3 = payload(["hyper", "quotient", "--p", "3", "--ext", "3"], capsys)
    assert obj3["classification"] == {"case": "field-quotient",
                                      "q": 3, "m": 3}


@pytest.mark.parametrize("cmd", ["quotient", "roundtrip"])
def test_hyper_p_takes_a_prime_power(cmd, capsys):
    for p in ("1", "6"):
        code, out, err = run(["hyper", cmd, "--p", p, "--ext", "3"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {p} is not a prime power\n"
    code, out, err = run(["hyper", cmd, "--p", "2", "--q-deg", "2",
                          "--ext", "3"], capsys)
    assert code == 1 and out == "" and "--q-deg" in err


def test_hyper_roundtrip(capsys):
    obj = payload(["hyper", "roundtrip", "--p", "3", "--ext", "3"], capsys)
    assert obj["roundtrip_exact"] is True
    assert obj["plane_certificate"]["order"] == 3
    # GF(3^m)/GF(3)^x is PG(m-1, 3): one line for m = 2, a solid for m = 4,
    # so only m = 3 carries a plane certificate
    for ext in ("2", "4"):
        obj = payload(["hyper", "roundtrip", "--p", "3", "--ext", ext],
                      capsys)
        assert obj["roundtrip_exact"] is True
        assert obj["axioms"]["hyperfield"] is True
        assert "plane_certificate" not in obj


def test_hyper_checks_axioms_once(capsys, monkeypatch):
    from singer import hyper
    calls = []
    check = hyper.check_axioms
    monkeypatch.setattr(hyper, "check_axioms",
                        lambda T: calls.append(T) or check(T))
    for argv in (["hyper", "kalg", "--n", "5"],
                 ["hyper", "quotient", "--p", "3", "--ext", "3"]):
        calls.clear()
        obj = payload(argv, capsys)
        assert "classification" in obj and len(calls) == 1


def test_hyper_classify_from_file(tmp_path, capsys):
    out = tmp_path / "table.json"
    payload(["--out", str(out), "hyper", "quotient", "--p", "3", "--ext", "3"],
            capsys)
    obj = json.loads(out.read_text())
    table_file = tmp_path / "only_table.json"
    table_file.write_text(json.dumps(obj["table"]))
    res = payload(["hyper", "classify", "--in", str(table_file)], capsys)
    assert res["classification"] == {"case": "field-quotient", "q": 3, "m": 3}


def test_f1_basic(capsys):
    obj = payload(["f1", "--m", "2", "--n", "4"], capsys)
    assert obj["order"] == 12 and obj["regular"]["regular"] is True


def test_f1_general_fiber_groups(capsys):
    obj = payload(["f1", "--m", "2", "--n", "2", "--S", "full"], capsys)
    assert obj["order"] == 6
    obj2 = payload(["f1", "--m", "6", "--n", "3", "--S", "affine:3"], capsys)
    assert obj2["order"] == 21
    code, _, err = run(["f1", "--m", "3", "--n", "2", "--S", "full"], capsys)
    assert code == 1  # stabilizer of S_4 has order 6, not 2


def test_f1_affine_needs_prime_degree(capsys):
    # affine:k acts on the m+1 residues mod m+1, which must be a prime
    obj = payload(["f1", "--m", "1", "--n", "1", "--S", "affine:1"], capsys)
    assert obj["order"] == 2 and obj["regular"]["regular"]
    code, out, err = run(["f1", "--m", "3", "--n", "1", "--S", "affine:1"],
                         capsys)
    assert code == 1 and out == "" and err == "error: 4 is not prime\n"


def test_f1_fiber_spec_ignores_case(capsys):
    cycle = payload(["f1", "--m", "2", "--n", "4", "--S", "cycle"], capsys)
    assert payload(["f1", "--m", "2", "--n", "4"], capsys) == cycle
    assert payload(["f1", "--m", "2", "--n", "4", "--S", "CYCLE"],
                   capsys) == cycle
    for spec in ("affine:x", "affine:"):
        code, _, err = run(["f1", "--m", "4", "--n", "1", "--S", spec],
                           capsys)
        assert code == 1 and err == (
            f"error: --S {spec}: affine:k needs an integer k\n")


def test_f1_chain(capsys):
    obj = payload(["f1", "--m", "2", "--chain", "1,2,4"], capsys)
    assert obj["limit"]["coherent"] is True
    assert [s["order"] for s in obj["limit"]["stages"]] == [3, 6, 12]


def test_f1_usage(capsys):
    code, _, _ = run(["f1", "--m", "2"], capsys)
    assert code == 1


@pytest.mark.parametrize("argv, code, last", [
    ("classical --q 2", 0, "all certificates passed"),
    ("hyper krasner", 0, "axioms passed"),
    ("hyper kalg --n 3", 2, "axiom failure"),
    ("hyper quotient --p 4 --ext 2", 0, "axioms passed"),
    ("hyper roundtrip --p 3 --ext 3", 0,
     "roundtrip exact; all certificates passed"),
    ("f1 --m 2 --n 3", 0, "group of order 9 regular on 9 points"),
    ("f1 --m 2 --chain 1,2", 0, "chain coherent"),
    ("lemma --p 2 --max 5", 0, "all asserted divisibility cases hold"),
])
def test_command_tails(argv, code, last, capsys):
    """Each command emits its payload, then logs one verdict line."""
    got, out, err = run(argv.split(), capsys)
    assert got == code
    assert json.loads(out) and err.splitlines()[-1] == last


def test_lemma(capsys):
    obj = payload(["lemma", "--p", "2", "--max", "8"], capsys)
    assert obj["failures"] == []
    assert all(row["divides"] for row in obj["table"] if row["asserted"])
    assert any(not row["asserted"] for row in obj["table"])
    code, _, _ = run(["lemma", "--p", "4"], capsys)
    assert code == 1


def test_lemma_cap(tmp_path, capsys):
    """The sweep's largest integer, p^(2 max), has at most LEMMA_BITS_CAP
    bits; `--verify-only` on a payload past the cap is refused the same
    way as the command, fast."""
    top = payload(["lemma", "--p", "1048573", "--max", "200"], capsys)
    assert top["failures"] == [] and len(top["table"]) == 1098
    path = tmp_path / "lemma.json"
    for p, m in ((100000000000031, 2), (2, 4096), (1048573, 205),
                 (2, 100000)):
        path.write_text(json.dumps({"p": p, "max": m, "table": [],
                                    "failures": []}))
        t0 = time.perf_counter()
        code, out, err = run(["--verify-only", str(path)], capsys)
        assert time.perf_counter() - t0 < 2
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_lemma_refuses_an_empty_sweep(tmp_path, capsys):
    """`--verify-only` rebuilds a `lemma` payload from (p, max), so a
    payload with max below 1 is refused like the command."""
    path = tmp_path / "lemma.json"
    for top in (0, -5):
        path.write_text(json.dumps({"p": 2, "max": top, "table": [],
                                    "failures": []}))
        code, out, err = run(["--verify-only", str(path)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: max must be >= 1, not {top}\n"


@pytest.mark.parametrize("argv", [
    "classical",                  # --q missing
    "classical --q x",
    "classical --q 3 --bogus",
    "hyper classify",             # --in missing
    "hyper classify --n 7",
    "hyper quotient --p 3 --ext 2 --generators 9",    # not in GF(9)
    "hyper quotient --p 3 --ext 2 --generators -1",
    "f1 --m 3 --chain 0,3",       # was a ZeroDivisionError traceback
    "f1 --m 3 --chain 2,-4",
    "lemma --p 2 --max -5",       # was exit 0 over an empty table
    "lemma --p 2 --max 0",
    "hughes --group integers --targets 3 --bound -1",  # was exit 3
    "hughes --group integers --targets 3 --bound 0",
    "f1 --m 4 --n 1 --S affine:0",    # was a ZeroDivisionError traceback
    "f1 --m 4 --n 1 --S affine:-1",   # was exit 0, as affine:1
    "f1 --m 4 --n 1 --S bogusfull",   # was S_5, then a stabilizer error
    "f1 --m 4 --n 1 --S affine:x",    # was "invalid literal for int()"
    "f1 --m 4 --n 1 --S affine:",
    "hughes --group cyclic:7 --targets 7",   # was exit 3 after the build
    "hughes --group cyclic:1 --targets 1",
])
def test_usage_errors_exit_1(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, message", [
    # was "invalid literal for int() with base 10: ''"
    ("hyper quotient --p 4 --ext 2 --generators ,",
     "--generators ',': need comma-separated integers"),
    ("f1 --m 2 --chain 1,x", "--chain '1,x': need comma-separated integers"),
    # was "bad group spec 'fieldquot:p=2': 'n'"
    ("hughes --group fieldquot:p=2 --targets 2",
     "bad group spec 'fieldquot:p=2': missing n, m"),
    ("hughes --group cyclic:7 --targets 7",
     "cyclic:7 has 6 nonidentity elements, so at most 6 targets, not 7"),
])
def test_usage_errors_name_the_fault(argv, message, capsys):
    code, out, err = run(argv.split(), capsys)
    assert code == 1 and out == "" and err == f"error: {message}\n"


def _readme_commands():
    """(argv, exit code) of each `singer` line in README's CLI block that
    reads or writes no file; the code is the one its comment names, or 0."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        if (argv[:1] != ["singer"]
                or {"--in", "--out", "--verify-only"} & set(argv)):
            continue
        code = re.search(r"exit (\d)", comment)
        yield pytest.param(argv[1:], int(code[1]) if code else 0,
                           id=" ".join(argv[1:]))


@pytest.mark.parametrize("argv,expect", _readme_commands())
def test_readme_commands(argv, expect, capsys):
    assert run(argv, capsys)[0] == expect


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hyper", "classify", "-h"])
    assert exc.value.code == 0
    assert "--in" in capsys.readouterr().out


def test_no_subcommand(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_verify_only_roundtrips(tmp_path, capsys):
    ds_file = tmp_path / "ds.json"
    payload(["--out", str(ds_file), "hughes", "--group", "integers",
             "--targets", "5"], capsys)
    code, out, _ = run(["--verify-only", str(ds_file)], capsys)
    assert code == 0 and json.loads(out)["kind"] == "difference-set"

    plane_file = tmp_path / "plane.json"
    obj = payload(["classical", "--q", "2"], capsys)
    plane_file.write_text(json.dumps(obj["plane"]))
    code, out, _ = run(["--verify-only", str(plane_file)], capsys)
    assert code == 0 and json.loads(out)["kind"] == "plane"

    table_file = tmp_path / "table.json"
    obj = payload(["hyper", "quotient", "--p", "3", "--ext", "2"], capsys)
    table_file.write_text(json.dumps(obj["table"]))
    code, out, _ = run(["--verify-only", str(table_file)], capsys)
    assert code == 0 and json.loads(out)["kind"] == "hypertable"
    # a whole `hyper` payload: its table's axioms and its classification
    # are recomputed and compared with the recorded ones
    obj = payload(["--out", str(table_file), "hyper", "kalg", "--n", "4"],
                  capsys)
    code, out, _ = run(["--verify-only", str(table_file)], capsys)
    assert code == 0 and json.loads(out) == {
        "kind": "hypertable",
        "matches": {"axioms": True, "classification": True}}
    obj["classification"] = {"case": "field-quotient", "q": 2, "m": 2}
    table_file.write_text(json.dumps(obj))
    code, out, _ = run(["--verify-only", str(table_file)], capsys)
    assert code == 2 and json.loads(out)["matches"] == {
        "axioms": True, "classification": False}
    # a `lemma` payload is rebuilt from (p, max) and compared key by key
    obj = payload(["--out", str(table_file), "lemma", "--p", "2"], capsys)
    code, out, _ = run(["--verify-only", str(table_file)], capsys)
    assert code == 0 and json.loads(out) == {
        "kind": "lemma", "matches": {"failures": True, "max": True,
                                     "p": True, "table": True}}
    obj["table"][3]["divides"] = not obj["table"][3]["divides"]
    table_file.write_text(json.dumps(obj))
    code, out, _ = run(["--verify-only", str(table_file)], capsys)
    assert code == 2 and json.loads(out)["matches"]["table"] is False

    # a `classical --m >= 3` payload is rebuilt from its group's (q, m)
    space_file = tmp_path / "space.json"
    for q in ("2", "5", "4"):
        obj = payload(["--out", str(space_file), "classical", "--q", q,
                       "--m", "3"], capsys)
        code, out, _ = run(["--verify-only", str(space_file)], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["kind"] == "singer-space"
        assert rep["matches"] == dict.fromkeys(
            ("action_detail", "action_regular", "difference_set", "space"),
            True)
    v = obj["space"]["points"]

    def other(values):
        return next(x for x in range(v) if x not in values)

    def move_point(o):
        line = o["space"]["lines"][0]
        line[-1] = other(line)

    def move_element(o):
        els = o["difference_set"]["elements"]
        els[-1] = str(other([int(x) for x in els]))

    for edit in (move_point, move_element,
                 lambda o: o.__setitem__("action_regular", False)):
        bad = json.loads(json.dumps(obj))
        edit(bad)
        space_file.write_text(json.dumps(bad))
        code, out, _ = run(["--verify-only", str(space_file)], capsys)
        assert code == 2 and json.loads(out)["kind"] == "singer-space"

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.main(["--verify-only", str(bad)]) == 1
    capsys.readouterr()
    # group operations trust their operands, so malformed elements must be
    # refused where the payload is parsed: exit 1, one line, no traceback
    for group, elements in (("cyclic:7", ["0", "1", "9"]),
                            ("free:2", ["e", "a*a^-1"]),
                            ("integers", ["0", "x"])):
        bad.write_text(json.dumps({"difference_set": {
            "group": group, "elements": elements}}))
        code, out, err = run(["--verify-only", str(bad)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_only_refuses_a_bare_space(tmp_path, capsys):
    # a PG(3, 2) space is no plane: alone it is refused, and its whole
    # `classical` payload is the one that re-checks
    path = tmp_path / "obj.json"
    obj = payload(["--out", str(path), "classical", "--q", "2", "--m", "3"],
                  capsys)
    code, out, _ = run(["--verify-only", str(path)], capsys)
    assert code == 0 and json.loads(out)["kind"] == "singer-space"
    path.write_text(json.dumps(obj["space"]))
    code, out, err = run(["--verify-only", str(path)], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "whole classical payload" in err
    # a bare plane is still judged as a plane
    obj = payload(["classical", "--q", "3"], capsys)
    path.write_text(json.dumps(obj["plane"]))
    code, out, _ = run(["--verify-only", str(path)], capsys)
    assert code == 0 and json.loads(out) == {
        "kind": "plane", "certificate": obj["plane_certificate"]}


def test_verify_only_rechecks_classical_plane(tmp_path, capsys):
    """A whole `classical --m 2` payload is rebuilt from its group's
    (q, m): the set, the plane and every recorded certificate must equal
    the rebuilt ones."""
    path = tmp_path / "plane.json"
    for q in ("2", "3", "4"):
        obj = payload(["--out", str(path), "classical", "--q", q], capsys)
        code, out, _ = run(["--verify-only", str(path)], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["kind"] == "singer-plane"
        assert rep["matches"] == dict.fromkeys(obj, True)
    v = obj["plane"]["points"]

    def move_point(o):
        line = o["plane"]["lines"][0]
        line[-1] = next(x for x in range(v) if x not in line)

    def move_element(o):
        els = o["difference_set"]["elements"]
        els[-1] = str(next(x for x in range(v) if str(x) not in els))

    for edit in (move_point, move_element,
                 lambda o: o.__setitem__("perfect", False),
                 lambda o: o["detail"].__setitem__("k", 4),
                 lambda o: o["plane_certificate"].__setitem__("order", 3),
                 lambda o: o.__setitem__("action_regular", False),
                 lambda o: o["action_detail"].__setitem__("points", 20)):
        bad = json.loads(json.dumps(obj))
        edit(bad)
        path.write_text(json.dumps(bad))
        code, out, _ = run(["--verify-only", str(path)], capsys)
        assert code == 2 and json.loads(out)["kind"] == "singer-plane"
    # only what `classical` emits is certified: the same perfect set and
    # plane in a group that no field quotient names are refused
    obj["difference_set"]["group"] = f"cyclic:{v}"
    path.write_text(json.dumps(obj))
    code, out, err = run(["--verify-only", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == "error: a classical payload needs a fieldquot group\n"


@pytest.mark.parametrize("argv, flip, code", [
    ("classical --q 3", ("perfect",), 0),
    ("classical --q 2 --m 3", ("action_regular",), 0),
    ("hughes --group free:2 --targets 5", None, 0),
    ("hyper krasner", ("axioms", "hyperfield"), 0),
    ("hyper kalg --n 4", ("axioms", "hyperfield"), 0),
    ("hyper quotient --p 3 --ext 2", ("axioms", "hyperfield"), 0),
    ("hyper roundtrip --p 3 --ext 3", ("axioms", "hyperfield"), 0),
    ("hyper classify --in TABLE", ("axioms", "hyperfield"), 0),
    ("lemma --p 2 --max 6", ("table", 0, "divides"), 0),
    # `f1` payloads do not record --S, so they cannot be rebuilt
    ("f1 --m 2 --n 4", None, 1),
])
def test_every_payload_rechecks(argv, flip, code, tmp_path, capsys):
    """Each subcommand's payload, written with --out, re-checks with exit
    0 as emitted and with exit 2 once a recorded boolean certificate is
    flipped."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps(payload(["hyper", "krasner"], capsys)
                                ["table"]))
    path = tmp_path / "payload.json"
    obj = payload(["--out", str(path)]
                  + argv.replace("TABLE", str(table)).split(), capsys)
    got, out, err = run(["--verify-only", str(path)], capsys)
    assert got == code, out
    if code:
        assert out == "" and err == "error: unrecognized payload shape\n"
    if flip:
        target = obj
        for key in flip[:-1]:
            target = target[key]
        assert target[flip[-1]] is True
        target[flip[-1]] = False
        path.write_text(json.dumps(obj))
        assert run(["--verify-only", str(path)], capsys)[0] == 2


def test_verify_only_replays_hughes_log(tmp_path, capsys):
    path = tmp_path / "h.json"
    obj = payload(["--out", str(path), "hughes", "--group", "free:2",
                   "--targets", "30"], capsys)
    code, out, _ = run(["--verify-only", str(path)], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["ok"] and rep["log"]["ok"]
    assert rep["log"]["detail"] == {"prefixes": 30}

    def edited(edit, rehash=False):
        bad = json.loads(json.dumps(obj))
        edit(bad)
        if rehash:
            bad["log_hash"] = hashlib.sha256(json.dumps(
                bad["log"], sort_keys=True).encode()).hexdigest()
        path.write_text(json.dumps(bad))
        code, out, err = run(["--verify-only", str(path)], capsys)
        return code, (json.loads(out) if out else err)

    def swap_targets(p):
        p["log"][3]["target"], p["log"][5]["target"] = (
            p["log"][5]["target"], p["log"][3]["target"])

    code, rep = edited(lambda p: p.__setitem__("log_hash", "0" * 64))
    assert code == 2 and not rep["log"]["ok"]
    code, rep = edited(swap_targets)
    assert code == 2 and "recomputed_log_hash" in rep["log"]["detail"]
    # with the hash recomputed the replay itself must catch the edit
    code, rep = edited(swap_targets, rehash=True)
    assert code == 2 and "target" in rep["log"]["detail"]
    code, rep = edited(lambda p: p["log"][-1]["added"].append("a"),
                       rehash=True)
    assert code == 2 and "replay" in rep["log"]["detail"]
    code, rep = edited(lambda p: p.__setitem__("prefixes_certified", 31))
    assert code == 2 and not rep["log"]["ok"]
    for malformed in ("x", [1], [{"target": "a"}]):
        code, err = edited(lambda p: p.__setitem__("log", malformed))
        assert code == 1 and err.startswith("error:")


def test_verify_only_refuses_a_false_certified_flag(tmp_path, capsys):
    path = tmp_path / "h.json"
    obj = payload(["--out", str(path), "hughes", "--group", "free:2",
                   "--targets", "5"], capsys)
    assert obj["difference_set"]["certified"] is True
    assert run(["--verify-only", str(path)], capsys)[0] == 0
    obj["difference_set"]["certified"] = False
    # the whole payload and the bare difference set
    for tampered in (obj, obj["difference_set"]):
        path.write_text(json.dumps(tampered))
        code, out, _ = run(["--verify-only", str(path)], capsys)
        rep = json.loads(out)
        assert code == 2 and rep["kind"] == "difference-set"
        assert rep["ok"] is True and rep["recorded_certified"] is False
    # a set that fails the re-check may say so
    bad = {"group": "integers", "elements": ["0", "1", "2"],
           "certified": False}
    path.write_text(json.dumps(bad))
    code, out, _ = run(["--verify-only", str(path)], capsys)
    assert code == 2 and "recorded_certified" not in json.loads(out)


def test_out_flag_writes_identical_payload(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = run(["--out", str(out), "classical", "--q", "2"],
                          capsys)
    assert code == 0
    assert out.read_text() == stdout


def test_malformed_payloads_refused(tmp_path, capsys):
    """Shape, type and range errors in a payload: exit 1 and one `error:`
    line, never a traceback."""
    table = payload(["hyper", "kalg", "--n", "4"], capsys)["table"]
    obj = payload(["classical", "--q", "2"], capsys)
    plane, ds = obj["plane"], obj["difference_set"]

    def edited(obj, edit):
        obj = json.loads(json.dumps(obj))
        edit(obj)
        return obj

    cases = [
        edited(table, lambda t: t["mul"][1].pop()),
        edited(table, lambda t: t["mul"][1].__setitem__(1, 99)),
        edited(table, lambda t: t.pop("zero")),
        edited(table, lambda t: t["hyperadd"][1].__setitem__(2, "ab")),
        edited(table, lambda t: t["hyperadd"][1][2].append("a")),
        edited(plane, lambda p: p["lines"][0].__setitem__(0, "0")),
        edited(plane, lambda p: p["lines"][0].__setitem__(0, 0.0)),
        edited(plane, lambda p: p.__setitem__("lines", 5)),
        edited(ds, lambda d: d.__setitem__("elements", 5)),
        {"group": "cyclic:7", "elements": ["3", "3"]},
        {"group": "cyclic:13", "elements": ["0", "1", "3", "9", "9"]},
    ]
    path = tmp_path / "bad.json"
    for obj in cases:
        path.write_text(json.dumps(obj))
        code, out, err = run(["--verify-only", str(path)], capsys)
        assert code == 1 and out == "", obj
        assert err.startswith("error:") and err.count("\n") == 1, err
    # the same checks guard `hyper classify --in`
    path.write_text(json.dumps(cases[0]))
    code, out, err = run(["hyper", "classify", "--in", str(path)], capsys)
    assert code == 1 and err.startswith("error:")


def test_repeated_point_in_a_hypersum_refused(tmp_path, capsys):
    """1 + 1 written [0, 1, 1] in a `krasner` payload is refused at entry,
    not folded into {0, 1} and re-checked as a passing hyperfield."""
    obj = payload(["hyper", "krasner"], capsys)
    obj["table"]["hyperadd"][1][1] = [0, 1, 1]
    path = tmp_path / "krasner.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(["--verify-only", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == "error: repeated point in hypersum [0, 1, 1]\n"


def test_quotient_command_builds_the_table_once(capsys, monkeypatch):
    """classify_extension answers `hyper quotient` from the table's own
    QuotientSpec instead of building the quotient a second time, also
    when --generators names GF(q)^x: specs compare by (F, |G|).  In
    GF(2^6), whose primitive element is 2, GF(4)^x is generated by 2^21."""
    builds = []
    build = hyper.quotient_hyperring
    monkeypatch.setattr(hyper, "quotient_hyperring",
                        lambda Q: builds.append(Q) or build(Q))
    for argv, q, m in (("hyper quotient --p 5 --ext 3", 5, 3),
                       ("hyper quotient --p 2 --ext 6 --generators "
                        f"{gf.GF(2, 6).pow(2, 21)}", 4, 3)):
        builds.clear()
        obj = payload(argv.split(), capsys)
        assert obj["classification"] == {"case": "field-quotient", "q": q,
                                         "m": m}
        assert builds == [hyper.field_quotient_spec(q, m)]


def test_import_loads_only_what_the_commands_run():
    """Every command pays for `import singer.cli` in a fresh interpreter,
    so the import must not load what no command needs: dataclasses
    (which loads inspect), string, fractions (with decimal and numbers),
    or the collineation and survey modules, which only tests run."""
    probe = ("import sys; before = set(sys.modules); import singer.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert "singer.cli" in loaded
    assert not {"dataclasses", "inspect", "string", "fractions", "decimal",
                "numbers", "singer.collineations",
                "singer.survey"} & set(loaded), loaded
