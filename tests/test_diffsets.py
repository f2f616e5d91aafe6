import functools
import itertools
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from singer.errors import DomainError, BoundedFailure
from singer.groups import Cyclic, Abelian, Integers, Free, Symmetric
from singer import diffsets as ds, gf


def pds(G, els):
    return ds.PartialDifferenceSet(G, tuple(els))


def test_differences_examples():
    assert ds.differences(pds(Cyclic(7), [0, 1, 3])) == {1, 2, 3, 4, 5, 6}
    assert ds.differences(pds(Integers(), [0])) == set()
    assert ds.differences(pds(Integers(), [0, 1])) == {1, -1}


def test_verify_partial():
    assert ds.verify_partial(pds(Cyclic(7), [0, 1, 3])).ok
    c = ds.verify_partial(pds(Integers(), [0, 1, 2]))
    assert not c.ok and c.detail["difference"] in ("1", "-1")
    assert not ds.verify_partial(pds(Integers(), [0, 1, 3, 5])).ok


def test_verify_perfect():
    assert ds.verify_perfect(pds(Cyclic(7), [0, 1, 3])).ok
    assert ds.verify_perfect(pds(Cyclic(13), [0, 1, 3, 9])).ok
    c = ds.verify_perfect(pds(Cyclic(7), [0, 1, 2]))
    assert not c.ok
    with pytest.raises(DomainError):
        ds.verify_perfect(pds(Integers(), [0, 1]))


PERFECT_GROUPS = [Cyclic(7), Cyclic(13), Cyclic(21), Abelian((3, 3)),
                  Abelian((2, 4)), Symmetric(3), Symmetric(4)]


@st.composite
def finite_subsets(draw):
    G = draw(st.sampled_from(PERFECT_GROUPS))
    els = draw(st.lists(st.sampled_from(list(G.elements())), unique=True,
                        max_size=7))
    return G, tuple(els)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(finite_subsets())
@example((Cyclic(7), (0, 1, 3)))
@example((Cyclic(7), (3, 0, 1)))
@example((Cyclic(7), (0, 1, 2)))
@example((Cyclic(13), (0, 1, 3, 9)))
@example((Cyclic(21), (3, 6, 7, 12, 14)))
@example((Cyclic(21), (0, 1, 2, 3, 4)))
def test_verify_perfect_matches_the_definition(case):
    G, els = case
    cert = ds.verify_perfect(pds(G, els))
    assert (cert.ok, cert.detail) == oracle.verify_perfect(G, els)


@pytest.mark.parametrize("q,k", [(2, 3), (3, 4), (4, 5), (5, 6), (7, 8),
                                 (8, 9), (9, 10)])
def test_classical_singer_planes(q, k):
    G, S = ds.classical_singer(q, 2)
    assert G.order == q * q + q + 1
    assert len(S.elements) == k
    assert S.certified
    assert ds.verify_perfect(S).ok


def test_classical_singer_order_64_is_fast(monkeypatch):
    # the discrete logs of GF(2^18): 2^18 - 1 steps of x -> x*g.  A cache
    # of its own makes the fill part of the time and leaves the shared
    # cache as the other tests find it.  The 2 s bound depends on the host.
    monkeypatch.setattr(gf, "log_tables",
                        functools.lru_cache(gf.log_tables.__wrapped__))
    t0 = time.perf_counter()
    _, S = ds.classical_singer(64, 2)
    cert = ds.verify_perfect(S)
    assert time.perf_counter() - t0 < 2
    assert cert.ok and cert.detail == {"k": 65, "v": 4161}


def test_classical_higher_dim_not_partial():
    G, S = ds.classical_singer(2, 3)
    assert G.order == 15
    assert len(S.elements) == 7
    assert not S.certified
    assert not ds.verify_partial(S).ok  # hyperplane sets have lambda = 3


def test_hughes_step_integers_trace():
    G = Integers()
    state = ds.BuilderState(ds.certify(pds(G, [0])))
    state = ds.hughes_step(state, 1)
    assert state.current.elements == (0, 1)
    state = ds.hughes_step(state, 2)
    assert state.current.elements == (0, 1, 3)   # x=2 collides, x=3 works
    state = ds.hughes_step(state, -1)            # already a difference
    assert state.current.elements == (0, 1, 3)
    assert state.log[-1]["chosen_x"] is None


def test_hughes_step_free():
    F = Free(2)
    state = ds.BuilderState(ds.certify(pds(F, [()])))
    state = ds.hughes_step(state, F.parse("a"))
    assert state.current.elements == ((), F.parse("a"))


def test_hughes_step_rejects_identity_target():
    state = ds.BuilderState(ds.certify(pds(Integers(), [0])))
    with pytest.raises(DomainError):
        ds.hughes_step(state, 0)


def test_elements_validated_at_entry():
    with pytest.raises(DomainError):
        pds(Cyclic(7), [0, 1, 7])
    with pytest.raises(DomainError):
        pds(Free(2), [(), (0, 1)])  # a * a^-1 is not reduced
    with pytest.raises(DomainError, match="repeated"):
        pds(Cyclic(7), [3, 3])
    with pytest.raises(DomainError, match="repeated"):
        pds(Cyclic(13), [0, 1, 3, 9, 9])
    state = ds.BuilderState(ds.certify(pds(Cyclic(7), [0])))
    with pytest.raises(DomainError):
        ds.hughes_step(state, 8)


def test_hughes_build_integers():
    st = ds.hughes_build(Integers(), 4)
    assert st.current.elements == (0, 1, 3)
    assert len(st.log) == 4
    d = ds.differences(st.current)
    for t in (1, -1, 2, -2):
        assert t in d


def test_hughes_build_deterministic():
    a = ds.hughes_build(Integers(), 30)
    b = ds.hughes_build(Integers(), 30)
    assert a.log_hash() == b.log_hash()
    f1 = ds.hughes_build(Free(2), 20)
    f2 = ds.hughes_build(Free(2), 20)
    assert f1.log_hash() == f2.log_hash()


def test_hughes_refusals():
    with pytest.raises(DomainError, match="involution"):
        ds.hughes_build(Cyclic(4), 2)
    with pytest.raises(DomainError, match="involution"):
        ds.hughes_build(Abelian((2, 6)), 2)
    # a bound below 1 admits no candidate for the first target
    for bound in (0, -1):
        with pytest.raises(DomainError, match="search bound"):
            ds.hughes_build(Integers(), 3, bound)


def test_hughes_accepts_odd_cyclic():
    st = ds.hughes_build(Cyclic(7), 2)
    assert ds.verify_partial(st.current).ok


def test_finite_group_bounded_failure_surfaces():
    # consuming more targets than the group can support must not loop
    with pytest.raises((BoundedFailure, DomainError)):
        ds.hughes_build(Cyclic(5), 4)


def test_hughes_log_hash_pinned():
    # the greedy choices of `hughes --group integers --targets 200` and
    # `--group free:2 --targets 100`, fixed as sha256 of the sorted-key log;
    # a speedup of the builder must leave both unchanged
    st = ds.hughes_build(Integers(), 200)
    assert st.log_hash() == ("5673eb8b0b73d87674520cb846770dbc"
                             "c06a2d52320230cb496989c185979e79")
    assert len(st.current.elements) == 78
    st = ds.hughes_build(Free(2), 100)
    assert st.log_hash() == ("4459e27a76a39d9680c99880dabf4380"
                             "e9cbc62cdb68524a70d309d39b9a37d1")
    assert len(st.current.elements) == 49


def test_hughes_log_hash_pinned_at_scale():
    # the greedy choices of `hughes --group free:3 --targets 500` and of the
    # benchmark's `--group integers --targets 250`, fixed before the
    # builder's candidate scan changed
    st = ds.hughes_build(Free(3), 500)
    assert st.log_hash() == ("e72feea90108dd70065db446c8863ce2"
                             "4d20874911c073f281a61dcda10d60ff")
    assert len(st.current.elements) == 259
    st = ds.hughes_build(Integers(), 250)
    assert st.log_hash() == ("951d739423baf6ea37ffcc4b3ec6a234"
                             "31da7829271601148b6ee9d6b6e5bb17")
    assert len(st.current.elements) == 92


def test_replay_chain():
    st = ds.hughes_build(Integers(), 25)
    sizes = ds.replay_chain(st)
    assert len(sizes) == len(st.log)
    assert sizes == sorted(sizes)
    assert sizes[-1] == len(st.current.elements)


# ---------------------------------------------------------------------------
# the builder's shortcuts against the exhaustive checks at small sizes

def build(step, G, num_targets, bound=ds.DEFAULT_SEARCH_BOUND):
    """The state after the first num_targets targets."""
    state = ds.BuilderState(ds.certify(pds(G, [G.identity])))
    for d in G.enumerate(num_targets + 1)[1:]:
        state = step(state, d, bound)
    return state


def outcome(step, G, num_targets, bound=ds.DEFAULT_SEARCH_BOUND):
    try:
        return build(step, G, num_targets, bound).log
    except BoundedFailure as exc:
        return str(exc)


@pytest.mark.parametrize("G,num_targets,bound", [
    (Integers(), 60, ds.DEFAULT_SEARCH_BOUND),
    (Free(2), 40, ds.DEFAULT_SEARCH_BOUND),
    (Cyclic(183), 20, ds.DEFAULT_SEARCH_BOUND),
    (Cyclic(183), 40, ds.DEFAULT_SEARCH_BOUND),   # enumeration exhausted
    (Integers(), 60, 40),                          # search bound reached
])
def test_builder_matches_naive_reference(G, num_targets, bound):
    got = outcome(ds.hughes_step, G, num_targets, bound)
    assert got == outcome(oracle.naive_step, G, num_targets, bound)
    if isinstance(got, list):
        assert got == ds.hughes_build(G, num_targets, bound).log


@pytest.mark.parametrize("G,num_targets", [(Cyclic(183), 40),
                                           (Integers(), 60)])
@pytest.mark.parametrize("bound", [0, 1, 2, 7, 40, 183, 184])
def test_bound_and_exhaustion_match_naive(G, num_targets, bound):
    # which of "within" and "enumeration exhausted" a failed search raises,
    # and at which target, with marked positions counted against the bound
    got = outcome(ds.hughes_step, G, num_targets, bound)
    assert got == outcome(oracle.naive_step, G, num_targets, bound)


def step_outcome(step, state, d, bound):
    try:
        return step(state, d, bound).log
    except BoundedFailure as exc:
        return str(exc)


@pytest.mark.parametrize("G,n", [(Cyclic(183), 12), (Integers(), 20),
                                 (Free(2), 20)])
def test_head_state_under_smaller_bounds(G, n):
    # a failed search changes only the candidates.  A search stopped at its
    # bound keeps the candidate it drew there, and a later search with a
    # smaller bound meets live candidates past that bound.
    head = build(ds.hughes_step, G, n)
    position = {x: i for i, x in enumerate(itertools.islice(G.elements(),
                                                            200))}
    choices = sorted(
        (position[G.parse(oracle.naive_step(head, d).log[-1]["chosen_x"])],
         d) for d in G.enumerate(n + 12)[n + 1:] if d not in head.diffs)
    (p2, d2), (p1, d1) = choices[0], choices[-1]
    assert head.drawn <= p2 < p1
    for d, bound in ((d2, p2), (d1, p1), (d2, p2), (d2, p2 + 1)):
        want = step_outcome(oracle.naive_step, head, d, bound)
        before = (head.current, list(head.log), set(head.diffs),
                  list(head.invs))
        assert step_outcome(ds.hughes_step, head, d, bound) == want
        if isinstance(want, str):
            assert (head.current, head.log, head.diffs, head.invs) == before
    # the last search, one past the chosen position, extends the set
    assert head.current is not before[0]
    assert head.diffs == ds.differences(head.current)


@pytest.mark.parametrize("G", [Free(2), Integers()], ids=str)
def test_extensions_validate_only_their_new_elements(G, monkeypatch):
    # the identity and each target are validated once, at entry; the
    # builder formed each adjoined element itself, so none is validated
    calls = []
    plain = type(G).validate
    monkeypatch.setattr(type(G), "validate",
                        lambda self, a: calls.append(a) or plain(self, a))
    st = ds.hughes_build(G, 40)
    assert len(st.current.elements) > 10
    assert len(calls) == 1 + len(st.log)


def test_chain_carries_the_inverses():
    # after a chain of steps the state holds the inverses of its set, in
    # order
    G = Free(2)
    head = build(ds.hughes_step, G, 40)
    assert len(head.current.elements) > 10
    assert head.invs == [G.inv(s) for s in head.current.elements]


def test_step_updates_its_state_in_place():
    # a step returns the state it was given, and the build lets go of the
    # differences but keeps the inverses of its set
    G = Integers()
    state = ds.BuilderState(ds.certify(pds(G, [0])))
    for d in G.enumerate(8)[1:]:
        assert ds.hughes_step(state, d) is state
    assert len(state.log) == 7
    assert state.current.elements == (0, 1, 3, -5, -9)
    st = ds.hughes_build(G, 30)
    assert st.diffs is None
    assert st.invs == [G.inv(s) for s in st.current.elements]


def test_builder_draws_each_position_once(monkeypatch):
    # the scan draws each enumeration position once over the whole build,
    # and no further than the furthest candidate it adjoins
    plain = Integers.elements
    callers, draws = [], []

    def elements(self):
        call = len(callers)
        callers.append(sys._getframe(1).f_code.co_name)

        def counted():
            for i, x in enumerate(plain(self)):
                draws.append((call, i))
                yield x
        return counted()

    monkeypatch.setattr(Integers, "elements", elements)
    G = Integers()
    st = ds.hughes_build(G, 250)
    steps = {c for c, name in enumerate(callers) if name == "scan"}
    assert len(steps) == 1
    positions = [i for c, i in draws if c in steps]
    assert len(positions) == len(set(positions)) == st.drawn
    chosen = {int(e["chosen_x"]) for e in st.log if e["chosen_x"]}
    furthest = max(2 * abs(x) - (x > 0) for x in chosen)  # 0, 1, -1, 2, ...
    assert st.drawn == furthest + 1 == 42188


# ---------------------------------------------------------------------------
# the difference maps on set operations against the per-product loops

SMALL_GROUPS = [Integers(), Free(2), Free(3), Cyclic(13), Abelian((3, 9))]


def small_sets(G):
    """Every set of one to four of the first eight elements."""
    first = G.enumerate(8)
    return [c for k in range(1, 5) for c in itertools.combinations(first, k)]


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=str)
def test_difference_maps_match_the_loops(G):
    repeated = 0
    for els in small_sets(G):
        S = pds(G, els)
        ref = oracle.differences(G, els)
        assert ds.differences(S) == ref
        assert ds._difference_pairs(S) == oracle.difference_pairs(G, els)
        repeated += len(ref) < len(els) * (len(els) - 1)
    assert repeated > 0  # some of the sets repeat a difference


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=str)
def test_new_differences_match_the_loop(G):
    # the test against D, then `_new_differences`, as `hughes_step` runs
    # them; `seen` starts empty or holds elements that may collide
    zs = G.enumerate(12)
    outcomes = set()
    for els in small_sets(G):
        invs = [G.inv(s) for s in els]
        D = oracle.differences(G, els)
        for z in zs:
            if z in els:
                continue
            for start in (set(), set(zs[1:4])):
                seen_ref, seen = set(start), set(start)
                ok = oracle.new_differences(G, els, invs, D, z, seen_ref)
                fresh = D.isdisjoint(map(G.mul, itertools.repeat(z), invs))
                assert (fresh and ds._new_differences(G, els, invs, z, seen)
                        ) == ok
                if ok:
                    assert seen == seen_ref
                outcomes.add("new" if ok else "seen" if fresh else "in D")
    assert outcomes == {"new", "seen", "in D"}


@pytest.mark.parametrize("G", [Integers(), Free(2)], ids=str)
def test_candidate_verdicts_match_the_loop(G):
    # the head of a 30-target build steps with each of the first 500
    # positions as its one live candidate: the step marks the position
    # exactly when the per-product loop finds that x collides on its own
    head = ds.hughes_build(G, 30)
    S = head.current
    els, invs = S.elements, head.invs
    D = oracle.differences(G, els)
    d = next(t for t in G.elements() if t != G.identity and t not in D)
    marks = []
    for i, x in enumerate(G.enumerate(500)):
        state = ds.BuilderState(S, list(head.log))
        state.diffs, state.invs = set(D), list(invs)
        state.live[i], state.drawn, state.frontier = x, i + 1, iter(())
        try:
            ds.hughes_step(state, d)
            marked = False  # x joined the set
        except BoundedFailure:
            marked = i not in state.live
        assert marked == (x in els or not oracle.new_differences(
            G, els, invs, D, x, set()))
        marks.append(marked)
    assert 0 < sum(marks) < 500


def prefixes_partial(state):
    G = state.current.group
    els = [G.identity]
    for entry in state.log:
        els += [G.parse(s) for s in entry["added"]]
        if not ds.verify_partial(pds(G, els)).ok:
            return False
    return tuple(els) == state.current.elements


def tampered(state, log):
    """The state that `log` records, its set rebuilt from the log."""
    G = state.current.group
    els = [G.identity] + [G.parse(s) for e in log for s in e["added"]]
    return ds.BuilderState(pds(G, els), log)


@pytest.mark.parametrize("G,num_targets", [
    (Integers(), 40), (Free(2), 25), (Cyclic(183), 20)])
def test_replay_chain_agrees_with_every_prefix(G, num_targets):
    st = ds.hughes_build(G, num_targets)
    assert prefixes_partial(st)
    assert ds.replay_chain(st) == [1 + sum(
        len(e["added"]) for e in st.log[:i + 1]) for i in range(len(st.log))]
    assert ds.verify_log(st, st.log_hash()).ok

    # an added element swapped for one that repeats a difference
    log = [dict(e) for e in st.log]
    j = max(i for i, e in enumerate(log) if len(e["added"]) == 2)
    a = G.parse(log[j]["added"][0])
    s1 = st.current.elements[1]
    # z a^-1 = s1 = s1 e^-1 is already a difference
    log[j]["added"] = [log[j]["added"][0], G.canon(G.mul(s1, a))]
    bad = tampered(st, log)
    assert not prefixes_partial(bad)
    with pytest.raises(AssertionError, match="not partial"):
        ds.replay_chain(bad)
    assert not ds.verify_log(bad, bad.log_hash()).ok

    # two entries that add elements, reordered
    i, j = [k for k, e in enumerate(st.log) if e["added"]][1:3]
    log = list(st.log)
    log[i], log[j] = log[j], log[i]
    with pytest.raises(AssertionError, match="does not reproduce"):
        ds.replay_chain(ds.BuilderState(st.current, log))
    # with the set reordered to match, every prefix is still partial, but
    # a target is no longer a difference of the prefix its step built
    bad = tampered(st, log)
    assert prefixes_partial(bad) and ds.replay_chain(bad)
    cert = ds.verify_log(bad, bad.log_hash())
    assert not cert.ok and "target" in cert.detail
    assert not ds.verify_log(st, "0" * 64).ok


def test_step_growth_bound():
    st = ds.BuilderState(ds.certify(pds(Integers(), [0])))
    for d in Integers().enumerate(16)[1:]:
        prev = len(st.current.elements)
        st = ds.hughes_step(st, d)
        assert len(st.current.elements) - prev in (0, 1, 2)
        assert ds.verify_partial(st.current).ok
        assert d in ds.differences(st.current)


def test_json_roundtrip():
    S = ds.certify(pds(Cyclic(7), [0, 1, 3]))
    obj = S.to_json()
    assert obj == {"group": "cyclic:7", "elements": ["0", "1", "3"],
                   "certified": True}
    back = ds.PartialDifferenceSet.from_json(obj)
    assert back.elements == S.elements and back.group == S.group
