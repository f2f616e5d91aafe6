import hashlib
import json
import random
import time
from functools import reduce
from math import gcd
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from singer.errors import DomainError, CapError
from singer.groups import Cyclic, Abelian, Symmetric, closure
from singer import cli, hyper
from singer import _backend
from singer import gf
from singer import geometry as geo

from oracle import assoc_witness, distrib_witness, monoid_witness


def test_krasner_axioms():
    K = hyper.krasner()
    assert K.add_set(1, 1) == [0, 1]
    assert K.add_set(1, 0) == [1]
    rep = hyper.check_axioms(K)
    assert rep.passed()
    assert all(rep.results[a] for a in rep.AXIOMS)


def test_krasner_mutation_fails():
    K = hyper.krasner()
    K.hyperadd[1][1] = 0b10  # drop 0 from 1 + 1: no negative for 1
    rep = hyper.check_axioms(K)
    assert not rep.passed()
    assert rep.results["unique-negative"] is False


def test_field_as_hypertable():
    # GF(2) with singleton sums is a hyperfield too
    T = hyper.HyperTable(["0", "1"], 0, 1, [[0, 0], [0, 1]],
                         [[0b01, 0b10], [0b10, 0b01]])
    assert hyper.check_axioms(T).passed()
    assert not hyper.is_k_vectorspace(T)


def test_hypertable_validation():
    with pytest.raises(DomainError):
        hyper.HyperTable(["0", "1"], 0, 1, [[0, 0], [0, 1]],
                         [[0b01, 0b10], [0b10, 0]])  # empty sum
    with pytest.raises(CapError):
        hyper.k_algebra(Cyclic(300))
    good = hyper.krasner().to_json()
    for key, value in (("mul", [[0, 0], [0]]), ("mul", [[0, 0], [0, 2]]),
                       ("mul", [[0, 0], [0, True]]), ("zero", "0"),
                       ("hyperadd", [[[0], [1]], [[1], ["0"]]]),
                       ("hyperadd", [[[0], [1]], [[1], 1]]),
                       ("hyperadd", [[[0], [1]], [[1], [0, 1, 1]]]),
                       ("carrier", "01")):
        with pytest.raises(DomainError):
            hyper.HyperTable.from_json(dict(good, **{key: value}))
    with pytest.raises(DomainError):
        hyper.HyperTable.from_json({"carrier": ["0"]})
    # a bad index is reported before a repeat, wherever each sits
    for cell in ([0, 0, 2], [1, 1, "0"], [2, 0, 0]):
        with pytest.raises(DomainError, match="not a list of carrier"):
            hyper.HyperTable.from_json(
                dict(good, hyperadd=[[[0], [1]], [[1], cell]]))
    with pytest.raises(DomainError, match="repeated point"):
        hyper.HyperTable.from_json(
            dict(good, hyperadd=[[[0], [1]], [[1], [1, 0, 1]]]))


def test_k_algebra_c3_values_and_defect():
    T = hyper.k_algebra(Cyclic(3))
    # carrier: 0, identity, g, g^2 at indices 0..3
    assert T.one == 1
    assert T.add_set(1, 2) == [3]       # 1 + g = {g^2}
    assert T.add_set(1, 1) == [0, 1]    # 1 + 1 = {0, 1}
    rep = hyper.check_axioms(T)
    assert rep.results["associativity"] is False
    x, y, z = rep.witnesses["associativity"]
    # confirm the witness by hand
    def hsum(mask, w):
        out = 0
        m = mask
        while m:
            u = (m & -m).bit_length() - 1
            out |= T.hyperadd[u][w]
            m &= m - 1
        return out
    assert hsum(T.hyperadd[x][y], z) != hsum(T.hyperadd[y][z], x)


@pytest.mark.parametrize("n", range(4, 11))
def test_k_algebra_larger_groups(n):
    T = hyper.k_algebra(Cyclic(n))
    assert hyper.check_axioms(T).passed()
    assert hyper.is_k_vectorspace(T)
    gamma = hyper.hyperfield_to_geometry(T)
    assert gamma.nlines == 1 and gamma.npoints == n


def test_k_algebra_rejections():
    with pytest.raises(DomainError):
        hyper.k_algebra(Cyclic(2))
    from singer.groups import Free
    with pytest.raises(DomainError):
        hyper.k_algebra(Free(2))


def test_full_unit_quotient_is_krasner():
    T = hyper.field_quotient_table(4, 1)
    assert T.n == 2
    assert hyper.tables_equal(T, hyper.krasner())
    assert hyper.tables_isomorphic(T, hyper.krasner()) is not None


def test_quotient_f9_mod_f3():
    T = hyper.field_quotient_table(3, 2)
    assert T.n == 5
    assert T.quotient.order == 2
    assert hyper.check_axioms(T).passed()
    assert hyper.is_k_vectorspace(T)
    assert hyper.contains_krasner(T)


def test_quotient_f8_mod_f2_is_the_field():
    T = hyper.field_quotient_table(2, 3)
    assert T.n == 8
    assert hyper.check_axioms(T).passed()
    # trivial unit subgroup: sums are singletons, x + x = {0}
    assert not hyper.is_k_vectorspace(T)
    assert all(len(T.add_set(x, y)) == 1
               for x in range(8) for y in range(8))
    assert hyper.contains_krasner(T)  # {0,1} = GF(2) is a subfield


def test_contains_krasner_vs_subfield():
    F9 = gf.GF(3, 2)
    g = F9.primitive_element()
    squares = hyper.QuotientSpec(F9, (F9.mul(g, g),))
    assert not hyper.subfield_test(squares)
    assert not hyper.contains_krasner(hyper.quotient_hyperring(squares))
    # agreement with the scan of all pairs over every nonzero single
    # generator, so over every cyclic unit subgroup, of small fields
    for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        F = gf.GF(p, n)
        for g in range(1, F.q):
            Q = hyper.QuotientSpec(F, (g,))
            assert hyper.subfield_test(Q) == _subfield_scan(Q) \
                == hyper.contains_krasner(hyper.quotient_hyperring(Q)), (F, g)


def _subfield_scan(Q):
    """Whether {0} u G is closed under the field's sum and product."""
    F = Q.field
    S = {0} | set(_unit_group(F, Q.generators))
    return all(F.add(a, b) in S and F.mul(a, b) in S for a in S for b in S)


def test_subfield_test_time_gate_on_the_full_unit_group(monkeypatch):
    """(3, 2) generates all of GF(2^20)^x: the answer comes from the unit
    order, without the closure or the log tables."""
    def no_tables(F):
        raise AssertionError(f"log tables of {F!r} built")
    monkeypatch.setattr(gf, "log_tables", no_tables)
    start = time.perf_counter()
    Q = hyper.QuotientSpec(gf.GF(2, 20), (3, 2))
    assert hyper.subfield_test(Q)
    assert time.perf_counter() - start < 1


def test_zmod_quotient():
    """Z/m has zero divisors, so its unit quotients are no hyperfields.
    The library builds quotients of fields only; the tests build Z/m's
    from the definition."""
    Z6 = _ZMod(6)
    assert _unit_group(Z6, (5,)) == [1, 5]
    T = _reference_table(Z6, (5,))
    assert T.n == 4  # {0},{1,5},{2,4},{3}
    assert not hyper.check_axioms(T).passed()  # zero divisors
    with pytest.raises(DomainError, match="finite field"):
        hyper.QuotientSpec(("zmod", 6), (5,))


@pytest.mark.parametrize("q,m", [(3, 3), (4, 3)])
def test_roundtrip_exact(q, m):
    T = hyper.field_quotient_table(q, m)
    back = hyper.roundtrip_table(T)
    assert hyper.tables_equal(T, back)
    # one changed product or hypersum breaks the equality
    x, y = 2, 3
    back.mul[x][y] = back.mul[x][y] % (T.n - 1) + 1
    assert not hyper.tables_equal(T, back)
    back = hyper.roundtrip_table(T)
    back.hyperadd[x][y] ^= 1 << 1
    assert not hyper.tables_equal(T, back)
    assert not hyper.tables_equal(T, hyper.krasner())
    # and the geometry really is the projective plane of order q
    gamma = hyper.hyperfield_to_geometry(T)
    cert = geo.verify_plane(gamma)
    assert cert.ok and cert.order == q


def test_geometry_to_hyperfield_rejects_short_lines():
    G = Cyclic(7)
    from singer import diffsets as ds
    S = ds.certify(ds.PartialDifferenceSet(G, (0, 1, 3)))
    fano = geo.plane_from_difference_set(G, S)
    with pytest.raises(DomainError):
        hyper.geometry_to_hyperfield(fano, G, list(G.elements()))


def test_roundtrip_rejects_short_lines():
    # the three-point line of k_algebra(C_3) is no K-vector space line
    with pytest.raises(DomainError, match="4 points"):
        hyper.roundtrip_table(hyper.k_algebra(Cyclic(3)))


def test_geometry_to_hyperfield_rejects_bad_labels():
    gamma = hyper.hyperfield_to_geometry(hyper.field_quotient_table(3, 3))
    G = Cyclic(gamma.npoints)
    labels = list(G.elements())
    labels[-1] = G.order  # not a residue mod 13
    for group, labels in ((G, labels),
                          (Cyclic(26), list(range(13))),  # not closed
                          (G, list(range(12))),           # too few
                          (G, [0] * 13)):                 # repeated
        with pytest.raises(DomainError):
            hyper.geometry_to_hyperfield(gamma, group, labels)


class _ZMod:
    """Z/m with the ring interface of `gf.GF` that the reference reads.
    `hyper.QuotientSpec` takes fields only.  The zero divisors of Z/m make
    orbits of different sizes and tables that fail the axioms, so the axiom
    tests build these quotients here, from the definition."""

    def __init__(self, m):
        self.m = m

    def elements(self):
        return range(self.m)

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return a * b % self.m


def _unit_group(ring, gens):
    """The closure of the generators under the ring's product."""
    return sorted(closure(ring.mul, gens, [1]))


def _quotient_reference(ring, gens):
    """The definition, with |G|^2 sums per pair of orbits: orbits xG,
    sorted, in the order of their least element, xG * yG = xyG and
    xG + yG = {(xg + yh)G : g, h in G}."""
    G = _unit_group(ring, gens)
    orbits, orbit_of = [], {}
    for x in ring.elements():
        if x not in orbit_of:
            orbits.append(sorted({ring.mul(x, g) for g in G}))
            orbit_of.update(dict.fromkeys(orbits[-1], len(orbits) - 1))
    mul = [[orbit_of[ring.mul(a[0], b[0])] for b in orbits]
           for a in orbits]
    hyperadd = [[sum({1 << orbit_of[ring.add(ring.mul(a[0], g),
                                             ring.mul(b[0], h))]
                      for g in G for h in G})
                 for b in orbits] for a in orbits]
    labels = ["{" + ",".join(map(str, orb)) + "}" for orb in orbits]
    return labels, orbit_of[0], orbit_of[1], mul, hyperadd


def _reference_table(ring, gens):
    return hyper.HyperTable(*_quotient_reference(ring, gens))


def _quotient_specs():
    """Every cyclic unit subgroup of GF(q), q <= 32, by one generator; the
    quotients GF(q^m)/GF(q)^x for (q, m) = (3, 2), (4, 2), (3, 3); and
    subgroups given by two generators, whose orders have the lcm |G|."""
    for q in range(2, 33):
        try:
            p, a = gf.factor_prime_power(q)
        except DomainError:
            continue
        F = gf.GF(p, a)
        g = F.primitive_element()
        for d in range(1, q):
            if (q - 1) % d == 0:
                yield hyper.QuotientSpec(F, (F.pow(g, (q - 1) // d),))
    for q, m in ((3, 2), (4, 2), (3, 3)):
        yield hyper.field_quotient_table(q, m).quotient
    F = gf.GF(2, 6)
    g = F.primitive_element()
    yield hyper.QuotientSpec(F, (3, 2))
    # orders 7 and 3: the subgroup of order 21 of GF(64)^x
    yield hyper.QuotientSpec(F, (F.pow(g, 9), F.pow(g, 21)))
    F = gf.GF(5, 2)
    g = F.primitive_element()
    # orders 3 and 4: the subgroup of order 12 of GF(25)^x
    yield hyper.QuotientSpec(F, (F.pow(g, 8), F.pow(g, 6)))


def _zmod_specs():
    """Z/m by the subgroup that each unit u generates, m <= 30."""
    for m in range(2, 31):
        for u in range(1, m):
            if gcd(u, m) == 1:
                yield _ZMod(m), (u,)


def test_unit_order_is_the_closure_size():
    for Q in _quotient_specs():
        assert Q.order == len(_unit_group(Q.field, Q.generators)), Q


def test_specs_compare_by_field_and_unit_order():
    """The quotient depends only on (F, |G|), so specs that name one
    subgroup by different generators are equal, hash alike and give one
    table."""
    F = gf.GF(2, 6)
    g = F.primitive_element()
    Q = hyper.field_quotient_spec(4, 3)
    for gens in ((F.pow(g, 42),), (F.pow(g, 21), F.pow(g, 42), 1)):
        other = hyper.QuotientSpec(F, gens)
        assert other == Q and hash(other) == hash(Q)
        T, U = hyper.quotient_hyperring(Q), hyper.quotient_hyperring(other)
        assert (T.labels, T.mul, T.hyperadd) == (U.labels, U.mul, U.hyperadd)
    assert hyper.QuotientSpec(F, (F.pow(g, 9),)) != Q
    assert hyper.QuotientSpec(gf.GF(2, 3), ()) != hyper.QuotientSpec(F, ())


def test_generator_refusals_build_no_tables(monkeypatch):
    """The generator checks and the carrier cap come before the log
    tables."""
    def no_tables(F):
        raise AssertionError(f"log tables of {F!r} built")
    monkeypatch.setattr(gf, "log_tables", no_tables)
    F = gf.GF(2, 20)
    for gens, error, match in (((1,), CapError, "carrier cap"),
                               ((1, 0), DomainError, "0 is not a unit"),
                               ((F.q,), DomainError, "not an element"),
                               ((-1,), DomainError, "not an element")):
        with pytest.raises(error, match=match):
            hyper.quotient_hyperring(hyper.QuotientSpec(F, gens))


@pytest.mark.parametrize("argv", [
    "hyper quotient --p 2 --ext 20 --generators 3",   # 42 cosets, |G| 25575
    "hyper quotient --p 4 --ext 10 --generators 5",
])
def test_large_unit_groups_are_fast(argv, capsys):
    """Both pass the carrier cap and take about 23M ring additions by
    orbits; from cosets and Zech logarithms each takes about 1 s, log
    tables included, on 2 vCPUs.  The payload is the one the orbit
    builder printed for them."""
    start = time.perf_counter()
    code = cli.main(argv.split())
    elapsed = time.perf_counter() - start
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c683c6251ee65e3de24cddd703af68f44ef86732c41a63546a69ddfcaa38c673")
    assert elapsed < 5


def test_quotient_time_gate_at_the_carrier_cap():
    """GF(2^16) by its subgroup of order 257: d = 255 cosets and n = 256,
    the carrier cap.  The build took 0.7 s and check_axioms 1.0 s on 2
    vCPUs."""
    F = gf.GF(2, 16)
    g = F.primitive_element()
    start = time.perf_counter()
    T = hyper.quotient_hyperring(hyper.QuotientSpec(F, (F.pow(g, 255),)))
    assert T.n == hyper.CARRIER_CAP
    assert hyper.check_axioms(T).passed()
    assert time.perf_counter() - start < 5


def test_quotient_sums_from_one_orbit():
    """quotient_hyperring reads the sums off the cosets and the Zech
    logarithms; it must give the table of the |G|^2 definition."""
    for Q in _quotient_specs():
        T = hyper.quotient_hyperring(Q)
        assert (T.labels, T.zero, T.one, T.mul, T.hyperadd) \
            == _quotient_reference(Q.field, Q.generators), Q


def test_classify_extension():
    assert hyper.classify_extension(hyper.k_algebra(Cyclic(7))) == {
        "case": "single-line", "group_order": 7}
    assert hyper.classify_extension(hyper.field_quotient_table(3, 3)) == {
        "case": "field-quotient", "q": 3, "m": 3}
    deg = hyper.classify_extension(hyper.krasner())
    assert deg["case"] == "field-quotient" and deg["q"] is None
    with pytest.raises(DomainError):
        hyper.classify_extension(hyper.field_quotient_table(2, 3))
    # a failing table still raises when the caller hands in its report
    T = hyper.k_algebra(Cyclic(3))
    with pytest.raises(DomainError, match="not a hyperfield"):
        hyper.classify_extension(T, hyper.check_axioms(T))


def _scan_classification(T):
    """classify_extension by search, for a table that passes the axioms:
    every quotient GF(q^m)/GF(q)^x with q <= 16 and T's point count is
    built and compared with T."""
    if T.n == 2:
        return {"case": "field-quotient", "q": None, "m": 1,
                "note": "degenerate: the base hyperfield itself"}
    gamma = hyper.hyperfield_to_geometry(T)
    if gamma.nlines == 1:
        return {"case": "single-line", "group_order": T.n - 1}
    npts = T.n - 1
    for q in range(2, 17):
        try:
            gf.factor_prime_power(q)
        except DomainError:
            continue
        m = 2
        while (q ** m - 1) // (q - 1) <= npts:
            if (q ** m - 1) // (q - 1) == npts:
                cand = hyper.field_quotient_table(q, m)
                if hyper.tables_isomorphic(T, cand) is not None:
                    return {"case": "field-quotient", "q": q, "m": m}
            m += 1
    return {"case": "plane-other",
            "plane": geo.verify_plane(gamma).to_json()}


@pytest.mark.parametrize("q, m", [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3),
                                  (7, 3), (8, 3), (9, 3)])
def test_classification_matches_the_scan(q, m, monkeypatch):
    """q and m read off the geometry give the scan's answer, on the built
    table, which carries its QuotientSpec, and on its JSON copy, which
    carries none and is compared with tables_isomorphic."""
    T = hyper.field_quotient_table(q, m)
    copy = hyper.HyperTable.from_json(json.loads(json.dumps(T.to_json())))
    assert T.quotient == hyper.field_quotient_spec(q, m)
    assert copy.quotient is None
    scanned = _scan_classification(T)
    assert _scan_classification(copy) == scanned
    compared = []
    isomorphic = hyper.tables_isomorphic
    monkeypatch.setattr(hyper, "tables_isomorphic",
                        lambda *a: compared.append(a[0]) or isomorphic(*a))
    assert hyper.classify_extension(T) == scanned
    assert compared == []
    assert hyper.classify_extension(copy) == scanned
    assert compared == [copy]


def test_classification_matches_the_scan_off_the_quotients():
    for T in [hyper.k_algebra(Cyclic(n)) for n in (4, 7, 30)] + [
            hyper.krasner()]:
        assert hyper.classify_extension(T) == _scan_classification(T)


def test_tables_isomorphic_non_cyclic_units():
    A = hyper.k_algebra(Abelian((2, 2)))
    assert hyper.tables_isomorphic(A, hyper.k_algebra(Cyclic(4))) is None
    # no caller compares two tables whose unit groups are not cyclic
    with pytest.raises(DomainError, match="cyclic"):
        hyper.tables_isomorphic(A, A)


def test_json_roundtrip():
    for T in (hyper.krasner(), hyper.k_algebra(Cyclic(3)),
              hyper.k_algebra(Cyclic(64)), hyper.field_quotient_table(3, 2),
              hyper.field_quotient_table(8, 3),
              _reference_table(_ZMod(12), (5,))):
        obj = T.to_json()
        assert obj["hyperadd"] == [[[k for k in range(T.n) if m >> k & 1]
                                    for m in row] for row in T.hyperadd]
        again = hyper.HyperTable.from_json(json.loads(json.dumps(obj)))
        assert again.labels == T.labels
        assert (again.zero, again.one) == (T.zero, T.one)
        assert again.mul == T.mul and again.hyperadd == T.hyperadd


def _bit_loop(mask, width):
    return [i for i in range(width) if mask >> i & 1]


def _masks(width):
    """Masks below 2^width: any, sparse (a few set bits) and dense (a few
    clear bits)."""
    full = (1 << width) - 1
    few = st.lists(st.integers(0, width - 1), max_size=5).map(
        lambda ks: reduce(or_, (1 << k for k in ks), 0))
    return st.one_of(st.integers(0, full), few, few.map(full.__xor__))


_FULL = (1 << 256) - 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 256).flatmap(
    lambda w: st.tuples(st.just(w), _masks(w))))
@example((256, 1 << 255)).via("bit 255 alone")
@example((256, _FULL)).via("the whole carrier")
@example((256, _FULL ^ 1 << 254)).via("bit 254 clear")
@example((256, 1 | 0b1011 << 252)).via("runs at both ends")
def test_bits_match_the_bit_loop(case):
    width, mask = case
    assert hyper._bits(mask) == _bit_loop(mask, width)


def _geometry_lines_per_pair(T):
    """The reference: the lines of hyperfield_to_geometry with one unpack
    per pair of points, bit by bit."""
    z = T.zero
    points = [x for x in range(T.n) if x != z]
    pidx = {x: i for i, x in enumerate(points)}
    lines = set()
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            mask = T.hyperadd[x][y] | 1 << x | 1 << y
            lines.add(tuple(sorted(pidx[w] for w in _bit_loop(mask, T.n)
                                   if w != z)))
    return sorted(lines)


def _edited_line_tables():
    """K-vector-space tables with one sum x + y = y + x edited so that its
    line is no line of the table: a point added, a point dropped, and zero
    put in it."""
    for T, x, y in ((hyper.field_quotient_table(3, 3), 1, 2),
                    (hyper.field_quotient_table(4, 3), 2, 7)):
        s = T.hyperadd[x][y]
        line = s | 1 << x | 1 << y
        off = next(v for v in range(1, T.n) if not line >> v & 1)
        for edited in (s | 1 << off, s & (s - 1), s | 1 << T.zero):
            E = hyper.HyperTable.from_json(T.to_json())
            E.hyperadd[x][y] = E.hyperadd[y][x] = edited
            yield E


@pytest.mark.parametrize("T", [
    *(hyper.k_algebra(Cyclic(n)) for n in (3, 4, 7, 63, 64, 65)),
    *(hyper.field_quotient_table(q, m)
      for q, m in ((3, 2), (3, 3), (4, 3), (5, 3), (3, 4), (8, 3))),
    *_edited_line_tables()], ids=repr)
def test_geometry_matches_the_per_pair_unpack(T):
    assert hyper.is_k_vectorspace(T)
    assert hyper.hyperfield_to_geometry(T).lines == \
        _geometry_lines_per_pair(T)


def _exhaustive_check_axioms(T):
    """The reference: check_axioms before its reductions, every cubic axiom
    scanned over all triples."""
    n, z, o = T.n, T.zero, T.one
    rep = hyper.AxiomReport()

    def fail(name, witness):
        rep.results[name] = False
        rep.witnesses[name] = witness

    # commutativity of hyperaddition
    rep.results["commutativity"] = True
    for x in range(n):
        for y in range(x + 1, n):
            if T.hyperadd[x][y] != T.hyperadd[y][x]:
                fail("commutativity", (x, y))
                break
        if not rep.results["commutativity"]:
            break

    w = assoc_witness(n, T.hyperadd)
    rep.results["associativity"] = w is None
    if w is not None:
        rep.witnesses["associativity"] = w

    rep.results["neutral-zero"] = all(
        T.hyperadd[x][z] == 1 << x for x in range(n))
    if not rep.results["neutral-zero"]:
        rep.witnesses["neutral-zero"] = tuple(
            x for x in range(n) if T.hyperadd[x][z] != 1 << x)[:1]

    rep.results["unique-negative"] = True
    for x in range(n):
        negs = [y for y in range(n) if T.hyperadd[x][y] >> z & 1]
        if len(negs) != 1:
            fail("unique-negative", (x, tuple(negs)))
            break

    # reversibility: x in y + z  =>  z in x + (-y)
    rep.results["reversibility"] = True
    neg = [None] * n
    for x in range(n):
        negs = [y for y in range(n) if T.hyperadd[x][y] >> z & 1]
        neg[x] = negs[0] if negs else None
    for y in range(n):
        if neg[y] is None:
            continue
        for zz in range(n):
            m = T.hyperadd[y][zz]
            while m:
                x = (m & -m).bit_length() - 1
                if not T.hyperadd[x][neg[y]] >> zz & 1:
                    fail("reversibility", (x, y, zz))
                    m = 0
                    break
                m &= m - 1
            if not rep.results["reversibility"]:
                break
        if not rep.results["reversibility"]:
            break

    w = distrib_witness(n, T.hyperadd, T.mul)
    rep.results["distributivity"] = w is None
    if w is not None:
        rep.witnesses["distributivity"] = w
    # absorbing zero is part of the multiplication contract
    if rep.results["distributivity"]:
        bad = [u for u in range(n)
               if T.mul[u][z] != z or T.mul[z][u] != z]
        if bad:
            fail("distributivity", (bad[0], z, z))

    rep.results["monoid-multiplication"] = True
    for x in range(n):
        if T.mul[x][o] != x or T.mul[o][x] != x:
            fail("monoid-multiplication", (x,))
            break
    if rep.results["monoid-multiplication"]:
        w = monoid_witness(T.mul)
        if w is not None:
            fail("monoid-multiplication", w)

    rep.results["zero-one-distinct"] = z != o

    rep.results["multiplicative-group"] = True
    nonzero = [x for x in range(n) if x != z]
    for x in nonzero:
        row = [T.mul[x][y] for y in nonzero]
        if z in row or sorted(row) != nonzero:
            fail("multiplicative-group", (x,))
            break
    return rep


def _assert_same_report(T):
    got, ref = hyper.check_axioms(T), _exhaustive_check_axioms(T)
    assert (got.results, got.witnesses) == (ref.results, ref.witnesses)
    assert list(got.results) == list(ref.results)
    return got


def _criterion_5_tables():
    yield hyper.krasner()
    for n in range(3, 11):
        yield hyper.k_algebra(Cyclic(n))
    for q, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (5, 3)):
        yield hyper.field_quotient_table(q, m)


def test_reduced_axioms_match_exhaustive():
    """check_axioms proves the cubic axioms from generators; its report
    must be the exhaustive one on the criterion-5 tables, on every
    quotient of _quotient_specs and on the Z/m quotients, m <= 30."""
    for T in _criterion_5_tables():
        _assert_same_report(T)
    for Q in _quotient_specs():
        _assert_same_report(hyper.quotient_hyperring(Q))
    for ring, gens in _zmod_specs():
        _assert_same_report(_reference_table(ring, gens))


_SMALL = [T for T in _criterion_5_tables() if T.n <= 14] + [
    _reference_table(_ZMod(m), (u,))
    for m, u in ((7, 2), (9, 8), (10, 9), (11, 10), (12, 5))]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reduced_axioms_match_exhaustive_on_tampered_tables(data):
    """One changed hypersum, one changed symmetric pair of hypersums, or
    one changed product: every fallback of check_axioms is reached, and
    it must still give the exhaustive report."""
    base = data.draw(st.sampled_from(_SMALL))
    T = hyper.HyperTable.from_json(base.to_json())
    n = T.n
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(("sum", "pair", "product")))
    if kind == "product":
        T.mul[x][y] = data.draw(st.integers(0, n - 1))
    else:
        T.hyperadd[x][y] = data.draw(st.integers(1, (1 << n) - 1))
        if kind == "pair":
            T.hyperadd[y][x] = T.hyperadd[x][y]
    _assert_same_report(T)


def test_passing_tables_skip_the_cubic_scans(monkeypatch):
    def cubic(*args):
        raise AssertionError("cubic scan on a passing table")

    for name in ("assoc_witness", "distrib_witness", "_monoid_witness"):
        monkeypatch.setattr(hyper, name, cubic)
    for T in (hyper.field_quotient_table(8, 3), hyper.k_algebra(Cyclic(30))):
        assert hyper.check_axioms(T).passed()


def test_passing_tables_skip_the_reversibility_check(monkeypatch):
    """The other eight axioms and a commutative product imply
    reversibility, so no passing table the constructors build reaches
    the packed check."""
    def packed(*args):
        raise AssertionError("packed reversibility on a passing table")

    monkeypatch.setattr(hyper._Packed, "reversible", packed)
    T = hyper.field_quotient_table(8, 3)
    for table in (T, hyper.roundtrip_table(T), hyper.k_algebra(Cyclic(30)),
                  *(_boundary_table(*case) for case in _WORD_BOUNDARY)):
        assert hyper.check_axioms(table).passed()


def test_non_commutative_hyperfield_runs_the_reversibility_check(
        monkeypatch):
    """The single-line table on S_3 is a hyperfield whose product is not
    commutative: the packed check runs once, and the report is the
    exhaustive one."""
    G = Symmetric(3)
    els = list(G.elements())
    T = hyper._line_table(els, G.mul, G.identity, list(map(G.canon, els)),
                          [range(len(els))])
    assert T.mul != [list(c) for c in zip(*T.mul)]
    calls = []
    reversible = hyper._Packed.reversible

    def counted(self, negs):
        calls.append(negs)
        return reversible(self, negs)

    monkeypatch.setattr(hyper._Packed, "reversible", counted)
    assert _assert_same_report(T).passed()
    assert len(calls) == 1


@pytest.fixture
def packed_scans(monkeypatch):
    """The cubic hyperaddition scans of the exhaustive reference replaced
    by the packed ones of `_backend`, which test_kernels.py holds to them:
    in pure Python each takes seconds at n = 64.  The reference keeps the
    cubic `monoid_witness`, at most n^3 table lookups."""
    for name in ("assoc_witness", "distrib_witness"):
        monkeypatch.setitem(globals(), name, getattr(_backend, name))


# carriers of 63, 64 and 65 points, where the packed blocks cross a 64-bit
# word, and the quotients GF(q^3)/GF(q)^x with 14, 22 and 74 points
_WORD_BOUNDARY = [("kalg", 62), ("kalg", 63), ("kalg", 64),
                  ("quotient", 3), ("quotient", 4), ("quotient", 8)]


def _boundary_table(kind, size):
    if kind == "kalg":
        return hyper.k_algebra(Cyclic(size))
    return hyper.field_quotient_table(size, 3)


def _no_cubic_scan(*args):
    raise AssertionError("cubic scan on a passing table")


def _copy(T):
    return hyper.HyperTable(T.labels, T.zero, T.one, T.mul, T.hyperadd)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64, 65, 130])
def test_packed_rows_match_their_definitions(n):
    """transpose and images of hyper._Packed against the set definitions,
    on random tables whose sums include the empty and the full set, and
    assoc_failure reading the last row."""
    rng = random.Random(n)
    full = (1 << n) - 1
    add = [[rng.choice((0, full, rng.getrandbits(n))) for _ in range(n)]
           for _ in range(n)]
    f = [rng.choice((0, full, rng.getrandbits(n))) for _ in range(n)]
    packed = hyper._Packed(add)

    def blocks(row):
        assert row & ~packed.low == 0      # nothing outside the blocks
        return [row >> w * packed.width & full for w in range(n)]

    assert blocks(packed.transpose(f)) == [
        sum(1 << x for x in range(n) if f[x] >> c & 1) for c in range(n)]
    for r, image in zip(add, packed.images(f)):
        assert blocks(image) == [
            reduce(or_, (f[s] for s in range(n) if m >> s & 1), 0)
            for m in r]
    if n >= 3:
        # rows 0 and 1 are all {0}, so (1 + y) + w = {0} for every y and
        # w; an empty sum in the last row is the one failure
        add = [[1] * n, [1] * n] + [[full] * n for _ in range(n - 2)]
        assert hyper._Packed(add).assoc_failure(1) is None
        add[-1][-1] = 0
        assert hyper._Packed(add).assoc_failure(1) == (n - 1, n - 1)


@pytest.mark.parametrize("kind, size", _WORD_BOUNDARY)
def test_packed_axioms_match_exhaustive_at_word_boundaries(
        kind, size, packed_scans):
    """The whole report, witnesses included, on the table and on copies
    with one point removed from the sum of the last two points (on both
    sides, then on one side) and with one product changed.  The table
    passes without the cubic scans, so no packed check fails wrongly.  The
    one-sided change leaves reversibility failing for y = n - 1 alone."""
    T = _boundary_table(kind, size)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("assoc_witness", "distrib_witness", "_monoid_witness"):
            mp.setattr(hyper, name, _no_cubic_scan)
        assert hyper.check_axioms(T).passed()
    assert _assert_same_report(T).passed()
    x, y = T.n - 2, T.n - 1
    smaller = T.hyperadd[x][y] & T.hyperadd[x][y] - 1
    both, one, product = _copy(T), _copy(T), _copy(T)
    both.hyperadd[x][y] = both.hyperadd[y][x] = smaller
    one.hyperadd[x][y] = smaller
    product.mul[x][y] = T.mul[x][y] % (T.n - 1) + 1
    for tampered in (both, one, product):
        assert not _assert_same_report(tampered).passed()


@pytest.mark.parametrize("kind, size", _WORD_BOUNDARY)
def test_reversibility_witness_at_word_boundaries(kind, size,
                                                  packed_scans):
    """x + y = {x, y} for distinct nonzero x, y keeps x + x = {0, x}.  The
    first failure of reversibility is (1, 1, g): 1 lies in 1 + g, but g
    is not in 1 + (-1) = {0, 1}.  With a commutative product the other
    axioms imply reversibility (DECISIONS.md), so associativity fails too."""
    T = _boundary_table(kind, size)
    g = 2
    for x in range(1, T.n):
        for y in range(1, T.n):
            if x != y:
                T.hyperadd[x][y] = 1 << x | 1 << y
    rep = _assert_same_report(T)
    assert [a for a in rep.AXIOMS if not rep.results[a]] == [
        "associativity", "reversibility"]
    assert rep.witnesses["reversibility"] == (T.one, T.one, g)


def _table_map_reference(T1, T2, phi):
    """Whether phi carries T1 onto T2, point by point: every product, and
    the image of every point of every sum."""
    n = T1.n
    return all(
        phi[T1.mul[x][y]] == T2.mul[phi[x]][phi[y]]
        and sum({1 << phi[w] for w in T1.add_set(x, y)})
        == T2.hyperadd[phi[x]][phi[y]]
        for x in range(n) for y in range(n))


def _relabeled(T, pi):
    """T with carrier point x renamed pi[x]."""
    n = T.n
    mul = [[0] * n for _ in range(n)]
    add = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mul[pi[x]][pi[y]] = pi[T.mul[x][y]]
            add[pi[x]][pi[y]] = sum(1 << pi[w] for w in T.add_set(x, y))
    return hyper.HyperTable(T.labels, pi[T.zero], pi[T.one], mul, add)


def test_packed_axioms_match_exhaustive_on_relabeled_carriers():
    """No check assumes where zero and one sit: the criterion-5 tables and
    the small Z/m quotients with their carriers shuffled."""
    rng = random.Random(0)
    for T in _SMALL + list(_criterion_5_tables()):
        pi = list(range(T.n))
        rng.shuffle(pi)
        _assert_same_report(_relabeled(T, pi))


def _equal_reference(T1, T2):
    """tables_equal by its definition: T1's zero corresponds to 0 of T2,
    and T1's other points, in order, to 1, 2, ..."""
    old = [T1.zero] + [x for x in range(T1.n) if x != T1.zero]
    return T1.n == T2.n and _table_map_reference(
        T1, T2, [old.index(x) for x in range(T1.n)])


def test_table_maps_match_the_per_point_check(monkeypatch):
    """Every map that tables_equal and tables_isomorphic test gets the
    answer of the per-point check, and so does tables_equal itself: the
    roundtrip table against a quotient with zero at 0 and against a copy
    with zero at 5 (the identity and a shifting correspondence), each
    with one sum or one product changed; a quotient and a relabeled copy,
    the copy with one cell changed, and a relabeling that fixes 0 and 1
    but is no isomorphism."""
    answers = []
    packed_check = hyper._maps_onto

    def checked(packed, T1, T2, phi):
        answers.append(packed_check(packed, T1, T2, phi))
        assert answers[-1] == _table_map_reference(T1, T2, phi)
        return answers[-1]

    monkeypatch.setattr(hyper, "_maps_onto", checked)
    T = hyper.field_quotient_table(3, 3)
    back = hyper.roundtrip_table(T)
    # zero to 5, and the points before it one down: the correspondence of
    # tables_equal undoes the move
    k = 5
    moved = _relabeled(T, [k] + list(range(k)) + list(range(k + 1, T.n)))
    equal = []
    for T1 in (T, moved):
        x, y = T.n - 2, T.n - 1
        assert T1.hyperadd[x][y].bit_count() > 1
        for cell in (None, "sum", "product"):
            edited = _copy(T1)
            if cell == "sum":
                edited.hyperadd[x][y] &= edited.hyperadd[x][y] - 1
            elif cell == "product":
                edited.mul[x][y] = edited.mul[x][y] % (T.n - 1) + 1
            for pair in ((edited, back), (back, edited)):
                equal.append(hyper.tables_equal(*pair))
                assert equal[-1] == _equal_reference(*pair), (cell, pair)
    assert equal[:2] == [True, True] and equal[6:8] == [True, False]
    assert equal.count(True) == 3

    Q = hyper.field_quotient_table(4, 3)
    pi = [0, 1] + list(range(Q.n - 1, 1, -1))
    copy = _relabeled(Q, pi)
    phi = hyper.tables_isomorphic(Q, copy)
    assert phi is not None
    assert _table_map_reference(Q, copy, [phi[x] for x in range(Q.n)])
    packed = hyper._Packed(Q.hyperadd)
    assert hyper._maps_onto(packed, Q, copy, pi)
    swapped = pi[:2] + [pi[3], pi[2]] + pi[4:]
    assert not hyper._maps_onto(packed, Q, copy, swapped)
    # one changed cell, in the row of T2 that the last row of T1 maps to
    x, y = pi[-1], pi[-2]
    for cell in ("sum", "product"):
        changed = _relabeled(Q, pi)
        if cell == "sum":
            changed.hyperadd[x][y] &= changed.hyperadd[x][y] - 1
        else:
            changed.mul[x][y] = changed.mul[x][y] % (Q.n - 1) + 1
        assert not hyper._maps_onto(packed, Q, changed, pi)
        assert hyper.tables_isomorphic(Q, changed) is None
    assert True in answers and False in answers


def test_check_axioms_time_gate():
    """n = 128: 0.14-0.17 s with packed rows and 2.6-3.3 s before them,
    on 2 vCPUs."""
    T = hyper.k_algebra(Cyclic(127))
    start = time.perf_counter()
    assert hyper.check_axioms(T).passed()
    assert time.perf_counter() - start < 2.0


def test_check_axioms_time_gate_at_the_carrier_cap():
    """n = 256, the carrier cap: 1.0-1.6 s with reversibility implied by
    the other axioms, and 2.3-4.4 s when the packed check ran, on 2
    vCPUs."""
    T = hyper.k_algebra(Cyclic(255))
    start = time.perf_counter()
    assert hyper.check_axioms(T).passed()
    assert time.perf_counter() - start < 3.0


def test_check_axioms_fallback_time_gate(packed_scans, monkeypatch):
    """n = 64 with one product changed: the units are no longer a group,
    so the monoid, distributivity and associativity fallbacks all run, and
    the associativity scan reads every x without finding a witness.
    0.4-0.7 s on 2 vCPUs; the same fallback takes 12-13 s at n = 129.  The
    pinned witnesses are those of the cubic scans of `oracle`."""
    T = hyper.k_algebra(Cyclic(63))
    x, y = T.n - 2, T.n - 1
    T.mul[x][y] = T.mul[x][y] % (T.n - 1) + 1
    ran = []
    for name in ("assoc_witness", "distrib_witness", "_monoid_witness"):
        monkeypatch.setattr(hyper, name, lambda *args, name=name,
                            scan=getattr(hyper, name):
                            ran.append(name) or scan(*args))
    start = time.perf_counter()
    rep = hyper.check_axioms(T)
    elapsed = time.perf_counter() - start
    assert sorted(ran) == ["_monoid_witness", "assoc_witness",
                           "distrib_witness"]
    assert rep.witnesses == {"distributivity": (62, 1, 2),
                             "monoid-multiplication": (2, 61, 63),
                             "multiplicative-group": (62,)}
    ref = _exhaustive_check_axioms(T)
    assert (rep.results, rep.witnesses) == (ref.results, ref.witnesses)
    assert elapsed < 2.0
