import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from singer.errors import DomainError, CapError
from singer.groups import (Cyclic, Abelian, Integers, Free, Symmetric,
                           Monomial, FieldQuotient, parse_group,
                           has_involution, closure, subgroup_generators,
                           cyclic_generator)

FINITE = [Cyclic(1), Cyclic(7), Cyclic(12), Abelian((3, 9)), Abelian((2, 6)),
          Symmetric(4), Monomial(3, 3), FieldQuotient(2, 1, 3)]
INFINITE = [Integers(), Free(2)]


@pytest.mark.parametrize("G", FINITE, ids=lambda g: g.spec_string())
def test_axioms_finite_exhaustive(G):
    els = list(G.elements())
    assert len(els) == G.order
    assert els[0] == G.identity
    assert len(set(els)) == len(els)
    e = G.identity
    for a in els:
        assert G.mul(a, e) == a == G.mul(e, a)
        assert G.mul(a, G.inv(a)) == e
    # associativity on all triples for small groups, sampled otherwise
    sample = els if G.order <= 30 else els[::max(1, G.order // 12)]
    for a, b, c in itertools.product(sample, repeat=3):
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


@pytest.mark.parametrize("G", INFINITE, ids=lambda g: g.spec_string())
def test_axioms_infinite_prefix(G):
    els = G.enumerate(40)
    assert els[0] == G.identity
    assert len(set(els)) == 40
    for a in els[:12]:
        for b in els[:12]:
            for c in els[:12]:
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
        assert G.mul(a, G.inv(a)) == G.identity


def test_spec_mul_examples():
    assert Cyclic(7).mul(3, 5) == 1
    F = Free(2)
    ab = F.parse("a*b")
    assert F.mul(ab, F.parse("b^-1")) == F.parse("a")
    assert Integers().mul(4, -4) == 0
    assert Cyclic(7).inv(3) == 4
    assert F.inv(ab) == F.parse("b^-1*a^-1")
    S3 = Symmetric(3)
    assert S3.inv((1, 2, 0)) == (2, 0, 1)


def test_enumeration_order():
    assert Cyclic(7).enumerate(3) == [0, 1, 2]
    F = Free(2)
    assert [F.canon(w) for w in F.enumerate(5)] == ["e", "a", "a^-1", "b",
                                                    "b^-1"]
    assert Integers().enumerate(5) == [0, 1, -1, 2, -2]
    with pytest.raises(CapError):
        Cyclic(3).enumerate(4)


def test_free_words_reduced_and_shortlex():
    F = Free(2)
    words = F.enumerate(100)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    for w in words:
        F.validate(w)  # would raise on an unreduced word


def test_free_mul_matches_the_letter_loop():
    # every pair of words of length up to 3: 1 + 4 + 12 + 36 of them
    F = Free(2)
    words = F.enumerate(53)
    assert max(map(len, words)) == 3 and len(F.enumerate(54)[-1]) == 4
    for a, b in itertools.product(words, repeat=2):
        assert F.mul(a, b) == oracle.free_mul(a, b)


@pytest.mark.parametrize("rank", [5, 25])
def test_free_names_roundtrip(rank):
    # the identity and every generator and its inverse; generator 4 is f,
    # because e names the identity
    F = Free(rank)
    words = [()] + [(c,) for c in range(2 * rank)]
    names = [F.canon(w) for w in words]
    assert names[:3] == ["e", "a", "a^-1"] and names[9:11] == ["f", "f^-1"]
    assert len(set(names)) == len(names)
    assert [F.parse(s) for s in names] == words


def test_free_rank_cap_and_unknown_letters():
    with pytest.raises(CapError, match="capped at 25"):
        Free(26)
    with pytest.raises(CapError, match="capped at 25"):
        parse_group("free:26")
    for s in ("a*c", "e*a", "a**b", "ab", "z^-1"):
        with pytest.raises(DomainError, match="unknown letter"):
            Free(2).parse(s)


def test_involutions():
    assert has_involution(Cyclic(7)) == (False, None)
    assert has_involution(Cyclic(4)) == (True, 2)
    assert has_involution(Free(2))[0] is False
    # odd order never has one; even order always does (cyclic case)
    for v in range(1, 501):
        found, w = has_involution(Cyclic(v))
        assert found == (v % 2 == 0)
        if found:
            assert w == v // 2


def test_involution_torsion_free_without_scan(monkeypatch):
    def no_scan(self):
        raise AssertionError("torsion-free groups need no scan")
    for G in (Integers(), Free(2)):
        monkeypatch.setattr(type(G), "elements", no_scan)
        assert has_involution(G) == (False, None)


def test_parse_group():
    for spec in ["cyclic:7", "abelian:3,9", "integers", "free:2",
                 "fieldquot:p=2,n=1,m=3", "symmetric:4", "monomial:3,4"]:
        G = parse_group(spec)
        assert G.spec_string() == spec
    with pytest.raises(DomainError):
        parse_group("lattice:3")
    with pytest.raises(DomainError):
        parse_group("cyclic:x")


def test_fieldquot_order():
    G = parse_group("fieldquot:p=2,n=1,m=3")
    assert G.order == 7
    with pytest.raises(CapError):
        FieldQuotient(2, 21, 1)


def test_monomial_act_consistency():
    M = Monomial(3, 3)
    els = list(M.elements())
    pts = [(i, t) for i in range(3) for t in range(3)]
    for a in els[::7]:
        for b in els[::11]:
            ab = M.mul(a, b)
            for p in pts:
                assert M.act(ab, p) == M.act(b, M.act(a, p))


@pytest.mark.parametrize("M", [Monomial(3, 2), Monomial(2, 3)],
                         ids=lambda g: g.spec_string())
def test_monomial_act_is_right_action_exhaustive(M):
    # act(a*b, p) = act(b, act(a, p)) and act(e, p) = p on every element
    # pair and point: the orbit and generator reductions in f1 rest on it
    els = list(M.elements())
    pts = [(i, t) for i in range(M.m) for t in range(M.n)]
    for p in pts:
        assert M.act(M.identity, p) == p
    for a in els:
        images = {p: M.act(a, p) for p in pts}
        for b in els:
            ab = M.mul(a, b)
            for p in pts:
                assert M.act(ab, p) == M.act(b, images[p])


# ---------------------------------------------------------------------------
# subgroup_generators against the exhaustive |H|^2 closure check

SMALL = {"symmetric:4": Symmetric(4), "monomial:2,3": Monomial(2, 3)}
ELEMENTS = {k: list(G.elements()) for k, G in SMALL.items()}


def exhaustive_is_subgroup(G, H):
    """The reference: a nonempty subset of a finite group is a subgroup
    iff it is closed under the product."""
    members = set(H)
    return bool(members) and all(
        G.mul(a, b) in members for a in members for b in members)


@st.composite
def group_and_subset(draw):
    """A group, and a subgroup of it, the subgroup with one element
    missing or one element added, or a random subset."""
    key = draw(st.sampled_from(sorted(SMALL)))
    G, els = SMALL[key], ELEMENTS[key]
    gens = draw(st.lists(st.sampled_from(els), max_size=3))
    H = sorted(closure(G.mul, gens, [G.identity]))
    kind = draw(st.sampled_from(["subgroup", "missing", "extra", "random"]))
    if kind == "missing" and len(H) > 1:
        H.remove(draw(st.sampled_from(H[1:])))
    elif kind == "extra" and len(H) < len(els):
        H.append(draw(st.sampled_from([g for g in els if g not in H])))
    elif kind == "random":
        H = draw(st.lists(st.sampled_from(els), unique=True))
    return G, draw(st.permutations(H))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(group_and_subset())
def test_subgroup_generators_matches_exhaustive(case):
    G, H = case
    T = subgroup_generators(G.mul, G.identity, H)
    assert (T is not None) == exhaustive_is_subgroup(G, H)
    if T is not None:
        assert set(T) <= set(H)
        assert closure(G.mul, T, [G.identity]) == set(H)


def test_closure_stops_outside():
    S4 = Symmetric(4)
    shift = (1, 2, 3, 0)
    assert len(closure(S4.mul, [shift], [S4.identity])) == 4
    assert closure(S4.mul, [shift], [S4.identity],
                   {S4.identity, shift}) is None
    assert subgroup_generators(S4.mul, S4.identity, [shift]) is None


def test_cyclic_generator():
    C12 = Cyclic(12)
    assert cyclic_generator(C12.mul, 0, list(range(12))) == 1
    assert cyclic_generator(C12.mul, 0, [0, 4, 8]) == 4
    assert cyclic_generator(C12.mul, 0, [0]) == 0
    V = Abelian((2, 2))
    assert cyclic_generator(V.mul, V.identity, list(V.elements())) is None


def test_validate_rejects():
    with pytest.raises(DomainError):
        Cyclic(7).validate(7)
    with pytest.raises(DomainError):
        Free(2).validate((0, 1))  # a * a^-1 is not reduced
    with pytest.raises(DomainError):
        Symmetric(3).validate((0, 0, 1))
