from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from singer.errors import DomainError, CapError
from singer import f1, survey
from singer.groups import closure


def test_space_point_counts():
    assert f1.F1Space(2, 1).npoints == 3
    assert f1.F1Space(2, 4).npoints == 12
    assert f1.F1Space(3, 2).npoints == 8
    with pytest.raises(DomainError):
        f1.F1Space(0, 3)
    with pytest.raises(CapError):
        f1.F1Space(10 ** 4, 2)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2),
                                 (2, 5), (4, 2)])
def test_singer_first_regular(m, n):
    A = f1.singer_first(m, n)
    assert A.order == n * (m + 1)
    assert f1.verify_regular(A).ok


def test_verify_regular_rejects_bad_elements():
    A = f1.singer_first(2, 3)
    perm, _ = A.elements[0]
    A.elements[0] = (perm, (3, 3, 3))  # twists are residues mod 3
    with pytest.raises(DomainError):
        f1.verify_regular(A)


def test_singer_first_rejects_nonsharp():
    with pytest.raises(DomainError):
        f1.singer_first(2, 2, f1.full_symmetric_group(3))
    with pytest.raises(DomainError):
        f1.singer_first(3, 2, f1.dihedral_group(4))


def test_perm_helpers():
    assert len(f1.cyclic_shift_group(5)) == 5
    assert len(f1.dihedral_group(5)) == 10
    assert len(f1.alternating_group(4)) == 12
    assert len(f1.full_symmetric_group(4)) == 24
    assert len(f1.affine_group(7, 3)) == 21
    with pytest.raises(DomainError):
        f1.affine_group(7, 4)
    assert f1.is_sharply_transitive(3, f1.cyclic_shift_group(3))
    assert not f1.is_sharply_transitive(3, f1.full_symmetric_group(3))


@pytest.mark.parametrize("degree", range(1, 8))
def test_alternating_group_is_the_even_permutations(degree):
    assert f1.alternating_group(degree) == [
        p for p in permutations(range(degree)) if oracle.is_even(p)]


def test_singer_general_s3():
    A = f1.singer_general(f1.full_symmetric_group(3))
    assert A.space.m == 2 and A.space.n == 2
    assert A.order == 6
    assert f1.verify_regular(A).ok


def test_singer_general_a4():
    A = f1.singer_general(f1.alternating_group(4))
    assert A.space.n == 3 and A.order == 12
    assert f1.verify_regular(A).ok


def test_singer_general_affine():
    A = f1.singer_general(f1.affine_group(7, 3))
    assert A.space.n == 3 and A.space.m == 6 and A.order == 21
    assert f1.verify_regular(A).ok


def test_singer_general_rejections():
    # the point stabilizer of S_4 is S_3, which is not cyclic
    with pytest.raises(DomainError, match="stabilizer"):
        f1.singer_general(f1.full_symmetric_group(4))
    with pytest.raises(DomainError, match="transitive"):
        f1.singer_general([(0, 1, 2), (0, 2, 1)])
    with pytest.raises(DomainError, match="closed"):
        f1.singer_general([(0, 1, 2), (1, 2, 0)])


def test_singer_general_matches_first_for_n1():
    cyc = f1.cyclic_shift_group(4)
    A = f1.singer_general(cyc, n=1)
    B = f1.singer_first(3, 1)
    assert sorted(A.elements) == sorted(B.elements)


def test_wreath_composition_law():
    # monomial multiplication applies the left factor first
    from singer.groups import Monomial
    aut = Monomial(3, 3)
    for a in list(aut.elements())[:40]:
        for b in list(aut.elements())[:40]:
            g = aut.mul(a, b)
            for p in [(0, 0), (1, 2), (2, 1)]:
                assert aut.act(g, p) == aut.act(b, aut.act(a, p))


def test_embed_examples():
    e = f1.embed_singer(2, 2, 4)
    assert e.ok
    assert e.detail["order_from"] == 6 and e.detail["order_to"] == 12
    same = f1.embed_singer(2, 3, 3)
    assert same.ok and all(g == img for g, img in same.group_map.items())
    with pytest.raises(DomainError):
        f1.embed_singer(2, 2, 3)


def test_embedding_lattice_up_to_12():
    for i in range(1, 13):
        for j in range(i, 13):
            if j % i:
                continue
            assert f1.embed_singer(1, i, j).ok, (i, j)


def test_direct_limit_chains():
    out = f1.direct_limit_demo(2, [1, 2, 4, 8])
    assert [s["order"] for s in out["stages"]] == [3, 6, 12, 24]
    assert out["coherent"] and all(s["regular"] for s in out["stages"])
    out2 = f1.direct_limit_demo(2, [1, 2, 6])
    assert [s["order"] for s in out2["stages"]] == [3, 6, 18]
    assert out2["coherent"]
    with pytest.raises(DomainError):
        f1.direct_limit_demo(2, [2, 3])
    with pytest.raises(DomainError):
        f1.direct_limit_demo(2, [])


def test_fiber_stabilizer_cyclic():
    A = f1.singer_first(2, 3)
    assert survey.fiber_stabilizer_cyclic(A.space, A.elements)
    B = f1.singer_general(f1.alternating_group(4))
    assert survey.fiber_stabilizer_cyclic(B.space, B.elements)


def test_survey_small_exhaustive():
    out = survey.regular_subgroup_survey(1, 2)
    assert out["mode"] == "exhaustive" and out["confirmed"]
    assert out["regular_subgroups"] >= 1
    out2 = survey.regular_subgroup_survey(2, 2)
    assert out2["mode"] == "exhaustive" and out2["confirmed"]
    assert not out2["counterexamples"]


def test_survey_structural_gate():
    out = survey.regular_subgroup_survey(3, 6)
    assert out["mode"] == "structural" and out["confirmed"]


# ---------------------------------------------------------------------------
# verify_regular and embed_singer against the exhaustive checks they replace

def reference_verify_regular(action):
    """The exhaustive check: a count matrix over all point pairs, then
    every product of two elements."""
    sp = action.space
    aut = sp.aut
    pidx = {p: k for k, p in enumerate(sp.points)}
    N = sp.npoints
    if len(set(action.elements)) != len(action.elements):
        return False, {"reason": "repeated elements"}
    if action.order != N:
        return False, {"reason": "order != points",
                       "order": action.order, "points": N}
    counts = [[0] * N for _ in range(N)]
    for g in action.elements:
        for k, p in enumerate(sp.points):
            counts[k][pidx[aut.act(g, p)]] += 1
    for a in range(N):
        for b in range(N):
            if counts[a][b] != 1:
                return False, {"reason": "pair with mover count != 1",
                               "pair": [list(sp.points[a]),
                                        list(sp.points[b])],
                               "count": counts[a][b]}
    els = set(action.elements)
    for g in action.elements:
        for h in action.elements:
            if aut.mul(g, h) not in els:
                return False, {"reason": "not closed under composition"}
    return True, {"order": N}


def is_closed(aut, elements):
    els = set(elements)
    return all(aut.mul(g, h) in els for g in els for h in els)


SPACE = f1.F1Space(2, 2)    # 6 points, C_2 wr S_3 of order 48
AUT_ELEMENTS = list(SPACE.aut.elements())
# every subgroup of order 6 is cyclic or S_3, so generated by two elements
ORDER6 = sorted({frozenset(c) for c in (
    closure(SPACE.aut.mul, [a, b], [SPACE.aut.identity])
    for a in AUT_ELEMENTS for b in AUT_ELEMENTS) if len(c) == 6},
    key=sorted)


@st.composite
def order6_sets(draw):
    """A subgroup of order 6, tampered: an element missing, an element
    added, one element swapped for another, or a random 6-set."""
    H = sorted(draw(st.sampled_from(ORDER6)))
    outside = [g for g in AUT_ELEMENTS if g not in H]
    kind = draw(st.sampled_from(
        ["subgroup", "missing", "extra", "swap", "random"]))
    if kind == "missing":
        H.remove(draw(st.sampled_from(H)))
    elif kind == "extra":
        H.append(draw(st.sampled_from(outside)))
    elif kind == "swap":
        H[draw(st.integers(0, 5))] = draw(st.sampled_from(outside))
    elif kind == "random":
        H = draw(st.lists(st.sampled_from(AUT_ELEMENTS), min_size=6,
                          max_size=6, unique=True))
    return draw(st.permutations(H))


def test_order6_subgroups_cover_both_verdicts():
    verdicts = {f1.verify_regular(f1.ActionGroup(SPACE, sorted(H), "t")).ok
                for H in ORDER6}
    assert verdicts == {True, False}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(order6_sets())
def test_verify_regular_matches_exhaustive(elements):
    A = f1.ActionGroup(SPACE, list(elements), "test")
    cert = f1.verify_regular(A)
    ok, detail = reference_verify_regular(A)
    assert cert.ok == ok
    if (detail.get("reason") == "pair with mover count != 1"
            and not is_closed(SPACE.aut, elements)):
        # a set that fails both checks reports the closure first
        assert cert.detail == {"reason": "not closed under composition"}
    else:
        assert cert.detail == detail


def test_verify_regular_pins_reasons():
    aut = SPACE.aut
    # S_3 on the fibers with no twist: closed, orbit of (0, 0) has 3 points
    untwisted = [(p, (0, 0, 0)) for p in f1.full_symmetric_group(3)]
    cert = f1.verify_regular(f1.ActionGroup(SPACE, untwisted, "test"))
    assert cert.detail == {"reason": "pair with mover count != 1",
                           "pair": [[0, 0], [0, 0]], "count": 2}
    # the same set with one element replaced by a fixed-point-free one
    # fails both; the closure is reported first
    broken = untwisted[:-1] + [((1, 2, 0), (1, 0, 0))]
    assert not is_closed(aut, broken)
    assert reference_verify_regular(
        f1.ActionGroup(SPACE, broken, "t"))[1]["reason"] == (
        "pair with mover count != 1")
    cert = f1.verify_regular(f1.ActionGroup(SPACE, broken, "test"))
    assert cert.detail == {"reason": "not closed under composition"}
    # sharply transitive but not a group: every pair has one mover, and
    # both checks report the closure
    latin = [((0, 1, 2), (0, 0, 0)), ((0, 1, 2), (1, 1, 1)),
             ((1, 2, 0), (0, 0, 0)), ((1, 2, 0), (1, 1, 1)),
             ((2, 0, 1), (0, 0, 1)), ((2, 0, 1), (1, 1, 0))]
    A = f1.ActionGroup(SPACE, latin, "test")
    assert reference_verify_regular(A)[1] == f1.verify_regular(A).detail == {
        "reason": "not closed under composition"}


def reference_certify_embedding(Ai, Aj, gmap, pmap):
    """The exhaustive check: every pair of elements, every element on
    every point.  Returns the failure reason, or None."""
    auti, autj = Ai.space.aut, Aj.space.aut
    if len(set(gmap.values())) != len(gmap):
        return "not injective"
    if any(g not in set(Aj.elements) for g in gmap.values()):
        return "image leaves the target group"
    for a in Ai.elements:
        for b in Ai.elements:
            if gmap[auti.mul(a, b)] != autj.mul(gmap[a], gmap[b]):
                return "not a homomorphism"
    for g in Ai.elements:
        for p in Ai.space.points:
            if pmap[auti.act(g, p)] != autj.act(gmap[g], pmap[p]):
                return "not equivariant"
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_embedding_matches_exhaustive(m, i, r, data):
    good = f1.embed_singer(m, i, i * r)
    Ai, Aj = f1.singer_first(m, i), f1.singer_first(m, i * r)
    gmap, pmap = dict(good.group_map), dict(good.point_map)
    # swap the images of two elements, or of two points; a swap along an
    # automorphism still passes, so the reference decides
    target = data.draw(st.sampled_from([{}, gmap, pmap]))
    if target:
        a, b = data.draw(st.permutations(sorted(target)))[:2]
        target[a], target[b] = target[b], target[a]
    cert = f1.certify_embedding(Ai, Aj, gmap, pmap)
    reason = reference_certify_embedding(Ai, Aj, gmap, pmap)
    assert cert.ok == (reason is None)
    assert cert.detail.get("reason") == reason


def test_embedding_swaps_pinned():
    good = f1.embed_singer(2, 2, 4)
    Ai, Aj = f1.singer_first(2, 2), f1.singer_first(2, 4)
    e, g = Ai.elements[0], Ai.elements[1]
    gmap = dict(good.group_map)
    gmap[e], gmap[g] = gmap[g], gmap[e]
    cert = f1.certify_embedding(Ai, Aj, gmap, good.point_map)
    assert cert.detail["reason"] == "not a homomorphism"
    pmap = dict(good.point_map)
    pmap[(0, 0)], pmap[(0, 1)] = pmap[(0, 1)], pmap[(0, 0)]
    cert = f1.certify_embedding(Ai, Aj, good.group_map, pmap)
    assert cert.detail["reason"] == "not equivariant"
