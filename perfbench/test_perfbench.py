"""Tests of the benchmark itself: each checker accepts a real payload and
rejects a corrupted one, and the traced run leaves the program unwrapped.

Run:  python3 -m pytest -q perfbench
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import spans  # noqa: E402
import singer.cli  # noqa: E402
from singer import groups  # noqa: E402


def payload(*argv, rc=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert singer.cli.main(list(argv)) == rc
    return json.loads(out.getvalue())


def corrupt(p, edit):
    q = copy.deepcopy(p)
    edit(q)
    return q


def _swap_element(ds, v):
    last = int(ds["elements"][-1])
    ds["elements"][-1] = str((last + 1) % v)


@pytest.fixture(scope="module")
def plane3():
    return payload("classical", "--q", "3")


def test_classical_plane(plane3):
    assert check.classical(plane3, q=3) is None
    bad = [
        corrupt(plane3, lambda p: _swap_element(p["difference_set"], 13)),
        corrupt(plane3, lambda p: p["plane"]["lines"].pop()),
        corrupt(plane3, lambda p: p["plane"]["lines"][0].__setitem__(
            0, (p["plane"]["lines"][0][0] + 5) % 13)),
        corrupt(plane3, lambda p: p.__setitem__("action_regular", False)),
    ]
    for p in bad:
        assert check.classical(p, q=3) is not None
    assert check.classical(plane3, q=4) is not None


def test_classical_space():
    p = payload("classical", "--q", "2", "--m", "3")
    assert check.classical(p, q=2, m=3) is None
    assert check.classical(corrupt(p, lambda p: p["space"]["lines"].pop()),
                           q=2, m=3) is not None
    assert check.classical(
        corrupt(p, lambda p: _swap_element(p["difference_set"], 15)),
        q=2, m=3) is not None


@pytest.mark.parametrize("group,targets", [("integers", 20), ("free:2", 15)])
def test_hughes(group, targets):
    p = payload("hughes", "--group", group, "--targets", str(targets))
    assert check.hughes(p, group=group, targets=targets) is None

    def change_element(p):
        els = p["difference_set"]["elements"]
        els[-1] = els[1]

    def change_target(p):
        p["log"][-1]["target"] = p["log"][0]["target"]

    bad = [
        corrupt(p, change_element),
        corrupt(p, lambda p: p["log"].pop()),
        corrupt(p, change_target),
        corrupt(p, lambda p: p.__setitem__("log_hash", "0" * 64)),
    ]
    for q in bad:
        assert check.hughes(q, group=group, targets=targets) is not None


def test_free_word_reduction():
    a = check._parse_word("a*b^-1", 2)
    assert check._word_mul(a, check._word_inv(a)) == ()
    with pytest.raises(check.Reject):
        check._parse_word("a*a^-1", 2)


def test_kalg():
    p = payload("hyper", "kalg", "--n", "6")
    assert check.kalg(p, order=6) is None

    def flip_cell(p):
        p["table"]["hyperadd"][2][3] = [0, 2, 3]

    def flip_product(p):
        p["table"]["mul"][2][3] = 2

    for q in (corrupt(p, flip_cell), corrupt(p, flip_product)):
        assert check.kalg(q, order=6) is not None


@pytest.mark.parametrize("sub", ["quotient", "roundtrip"])
def test_quotient_plane(sub):
    p = payload("hyper", sub, "--p", "3", "--ext", "3")
    roundtrip = sub == "roundtrip"
    assert check.quotient_plane(p, order=3, roundtrip=roundtrip) is None

    def drop_from_sum(p):
        cell = p["table"]["hyperadd"][1][2]
        cell.pop()
        p["table"]["hyperadd"][2][1] = list(cell)

    assert check.quotient_plane(corrupt(p, drop_from_sum), order=3,
                                roundtrip=roundtrip) is not None
    assert check.quotient_plane(p, order=4, roundtrip=roundtrip) is not None


def test_axioms_catch_each_failure():
    t = payload("hyper", "kalg", "--n", "6")["table"]
    assert check._run(check._hyperfield_axioms, t) is None
    three = payload("hyper", "kalg", "--n", "3", rc=2)["table"]
    assert "(x+y)+z" in check._run(check._hyperfield_axioms, three)
    field = payload("hyper", "quotient", "--p", "2", "--ext", "3")["table"]
    assert "x + x" in check._run(check._hyperfield_axioms, field)


def test_monomial_and_lemma():
    p = payload("f1", "--m", "2", "--n", "3")
    assert check.f1(p, m=2, n=3) is None
    assert check.f1(corrupt(p, lambda p: p.__setitem__("order", 8)),
                    m=2, n=3) is not None
    c = payload("f1", "--m", "2", "--chain", "1,2,4")
    assert check.f1_chain(c, m=2, chain=[1, 2, 4]) is None
    assert check.f1_chain(
        corrupt(c, lambda p: p["limit"].__setitem__("coherent", False)),
        m=2, chain=[1, 2, 4]) is not None
    lem = payload("lemma", "--p", "2", "--max", "12")
    assert check.lemma(lem, prime=2, top=12) is None

    def flip(p):
        row = p["table"][-1]
        row["divides"] = not row["divides"]

    assert check.lemma(corrupt(lem, flip), prime=2, top=12) is not None


def test_reverified(tmp_path):
    plane = payload("classical", "--q", "3")["plane"]
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane))
    ok = payload("--verify-only", str(path))
    assert check.reverified(ok, kind="plane") is None
    assert check.reverified(ok, kind="difference-set") is not None
    bad = corrupt(ok, lambda p: p["certificate"].__setitem__("ok", False))
    assert check.reverified(bad, kind="plane") is not None


def test_trace_counts_and_unwraps():
    before = spans.snapshot()
    original_mul = groups.Cyclic.__dict__["mul"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert groups.Cyclic.__dict__["mul"] is not original_mul
        payload("classical", "--q", "3")
        payload("hughes", "--group", "integers", "--targets", "10")
    finally:
        tracer.uninstall()
    assert spans.unchanged(before)
    assert groups.Cyclic.__dict__["mul"] is original_mul
    m = tracer.metrics()
    assert set(m) == set(spans.LAYERS) | set(spans.COUNTS)
    for name in ("diffsets.classical_s", "geometry.action_s",
                 "diffsets.hughes_build_s", "cli.emit_s"):
        assert m[name] > 0, name
    # verify_singer_action evaluates the action twice per (g, p) pair
    assert m["geometry.action_images"] == 2 * 13 * 13
    assert m["kernels.line_pairs"] == 13 * 12 // 2
    assert m["diffsets.candidates_scanned"] > 0
    assert m["groups.mul_calls"] > 0 and m["gf.mul_calls"] > 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "monomial", "--seed", "1", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_probe_samples_and_restores():
    import signal
    import time

    import speed
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert probe.probe_s() is not None
    assert probe.probe_s(0, 2) is None
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert speed.scaled(2.0, speed.REFERENCE_S) == 2.0
    assert speed.scaled(2.0, 2 * speed.REFERENCE_S) < 2.0
