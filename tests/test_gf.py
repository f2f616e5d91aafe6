import itertools
from array import array

import pytest

from singer.errors import DomainError
from singer import gf


def test_least_irreducible_moduli():
    assert gf.GF(2, 1).modulus == (0, 1)
    assert gf.GF(2, 2).modulus == (1, 1, 1)         # x^2 + x + 1
    assert gf.GF(3, 2).modulus == (1, 0, 1)         # x^2 + 1


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 4),
                                 (5, 1), (7, 1), (2, 6)])
def test_field_axioms(p, n):
    F = gf.GF(p, n)
    els = list(range(F.q))
    sample = els if F.q <= 16 else els[::5]
    for a, b in itertools.product(sample, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        for c in sample:
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(DomainError):
        F.inv(0)


def test_field_op_examples():
    F4 = gf.GF(2, 2)
    w = 2  # the non-scalar element x
    assert F4.mul(w, w) == 3  # x^2 = x + 1
    assert gf.GF(3, 1).inv(2) == 2


def test_primitive_elements():
    assert gf.GF(7, 1).primitive_element() == 3
    assert gf.GF(2, 2).primitive_element() == 2
    assert gf.GF(2, 1).primitive_element() == 1
    F = gf.GF(3, 2)
    g = F.primitive_element()
    assert F.mult_order(g) == 8


def test_primitive_element_is_least_of_full_order():
    # the prime-divisor test against the order walk, on every field of
    # order at most 1000
    for p in range(2, 1001):
        if not gf.is_prime(p):
            continue
        n = 1
        while p ** n <= 1000:
            F = gf.GF(p, n)
            least = next(a for a in range(1, F.q)
                         if F.mult_order(a) == F.q - 1)
            assert F.primitive_element() == least, (p, n)
            n += 1


def stepped_log_tables(F):
    """The tables by the plain loop x -> F.mul(x, g)."""
    g = F.primitive_element()
    exp = array("i", [0]) * (F.q - 1)
    log = array("i", [-1]) * F.q
    x = 1
    for i in range(F.q - 1):
        exp[i] = x
        log[x] = i
        x = F.mul(x, g)
    return g, exp, log


# n = 1; p = 2 at odd and even n; odd p with halves of equal and unequal
# length
STEPPED_CASES = {(2, 1), (7, 1), (2, 9), (2, 12), (3, 7), (5, 4), (23, 3)}


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2),
                                 (7, 1), (2, 9), (2, 12), (3, 7), (5, 4),
                                 (23, 3)])
def test_log_tables(p, n):
    F = gf.GF(p, n)
    g, exp, log = gf.log_tables(F)
    assert g == F.primitive_element()
    assert gf.log_tables(gf.GF(p, n)) is gf.log_tables(F)  # cached
    assert log[0] == -1
    if (p, n) in STEPPED_CASES:
        assert (g, exp, log) == stepped_log_tables(F)
    for i in range(min(F.q - 1, 1000)):
        assert exp[i] == F.pow(g, i) and log[exp[i]] == i
    assert sorted(exp) == list(range(1, F.q))


@pytest.mark.parametrize("p,n", [(2, k) for k in range(1, 13)]
                         + [(3, k) for k in range(1, 8)]
                         + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2)])
def test_frobenius_is_automorphism(p, n):
    F = gf.GF(p, n)
    if F.q > 4096:
        pytest.skip("cap")
    frob = [F.frobenius(a) for a in range(F.q)]
    assert len(set(frob)) == F.q
    for a in range(F.q):
        for b in range(0, F.q, max(1, F.q // 16)):
            assert frob[F.add(a, b)] == F.add(frob[a], frob[b])
            assert frob[F.mul(a, b)] == F.mul(frob[a], frob[b])


def test_roots_in_field():
    F5 = gf.GF(5, 1)
    assert gf.roots_in_field((-1 % 5, -1 % 5, 1), F5) == [3]
    assert gf.roots_in_field((1, 0, 1), gf.GF(3, 1)) == []
    for a in range(5):
        assert gf.roots_in_field(((-a) % 5, 1), F5) == [a]
    with pytest.raises(DomainError):
        gf.roots_in_field((0,), F5)


def test_roots_match_exhaustive_evaluation():
    F = gf.GF(3, 2)
    coeffs = (2, 1, 0, 1)  # x^3 + x + 2 over GF(9)
    roots = set(gf.roots_in_field(coeffs, F))
    for a in range(F.q):
        val = F.eval_poly(coeffs, a)
        assert (val == 0) == (a in roots)


def test_rational_roots():
    from fractions import Fraction
    assert gf.rational_roots((-2, 1)) == [Fraction(2)]
    assert gf.rational_roots((1, 0, 1)) == []
    assert set(gf.rational_roots((0, -1, 1))) == {Fraction(0), Fraction(1)}


def test_singer_divisibility_examples():
    assert gf.singer_divisibility(2, 1, 2) is True    # 7 | 21
    assert gf.singer_divisibility(2, 1, 4) is True    # 7 | 273
    assert gf.singer_divisibility(2, 1, 3) is False   # 7 does not divide 73
    with pytest.raises(DomainError):
        gf.singer_divisibility(2, 2, 3)
    with pytest.raises(DomainError):
        gf.singer_divisibility(4, 1, 2)


def test_divisibility_lemma_sweep():
    from math import gcd
    for p in (2, 3, 5, 7):
        for j in range(1, 13):
            for i in range(1, j + 1):
                if j % i:
                    continue
                if gcd(j // i, 3) == 1:
                    assert gf.singer_divisibility(p, i, j)
