import itertools
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from singer.errors import DomainError
from singer import collineations as col
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
        assert F.add(a, col.neg(F, a)) == 0
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


def poly_product(F, a, b):
    """a*b in F by gf.poly_mul and gf.poly_mod: the reference that reads no
    log table."""
    c = gf.poly_mul(F.to_coeffs(a), F.to_coeffs(b), F.p)
    return F.from_coeffs(gf.poly_mod(c, F.modulus, F.p))


def poly_power(F, a, e):
    """a^e in F, any integer e, by square-and-multiply of `poly_product`."""
    if a:
        e %= F.q - 1
    out = 1
    while e:
        if e & 1:
            out = poly_product(F, out, a)
        a = poly_product(F, a, a)
        e >>= 1
    return out


def digit_add(F, a, b):
    """a+b in F digit by digit mod p."""
    return F.from_coeffs(tuple((x + y) % F.p for x, y in
                               zip(F.to_coeffs(a), F.to_coeffs(b))))


def stepped_log_tables(F):
    """The tables by the plain loop x -> x*g, with polynomial products."""
    g = F.primitive_element()
    exp = array("i", [0]) * (F.q - 1)
    log = array("i", [-1]) * F.q
    x = 1
    for i in range(F.q - 1):
        exp[i] = x
        log[x] = i
        x = poly_product(F, x, g)
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
    x = 1
    for i in range(min(F.q - 1, 1000)):
        assert exp[i] == F.pow(g, i) and log[exp[i]] == i
        assert exp[i] == x
        x = poly_product(F, x, g)
    assert sorted(exp) == list(range(1, F.q))


# every GF(p^n) with n >= 2 and q <= 1024, and the fields of the `planes`
# benchmark workload, GF(2^12) and GF(23^3)
BOOTSTRAP_FIELDS = [(p, n) for p in range(2, 32) if gf.is_prime(p)
                    for n in range(2, 11) if p ** n <= 1024] + [
    (2, 12), (23, 3)]


@pytest.mark.parametrize("p,n", BOOTSTRAP_FIELDS)
def test_bootstrap_matches_the_polynomial_steps(p, n):
    """`primitive_element` against the scan from code 1, and `log_tables`
    against the loop x -> x*g by `F._poly_mul`."""
    F = gf.GF(p, n)
    cofactors = [(F.q - 1) // r for r in gf.prime_divisors(F.q - 1)]
    g = next(a for a in range(1, F.q)
             if all(F._poly_pow(a, c) != 1 for c in cofactors))
    assert F.primitive_element() == g
    exp = array("i", [0]) * (F.q - 1)
    log = array("i", [-1]) * F.q
    x = 1
    for i in range(F.q - 1):
        exp[i] = x
        log[x] = i
        x = F._poly_mul(x, g)
    assert gf.log_tables.__wrapped__(F) == (g, exp, log)    # past the cache


@pytest.mark.parametrize("p,n,a", [(2, 4, 1), (2, 4, 8), (3, 2, 2),
                                   (5, 2, 4), (7, 1, 2)])
def test_log_tables_refuse_a_non_primitive_generator(p, n, a, monkeypatch):
    F = gf.GF(p, n)
    assert F.mult_order(a) < F.q - 1
    monkeypatch.setattr(gf.GF, "primitive_element", lambda self: a)
    with pytest.raises(DomainError, match="does not generate"):
        gf.log_tables.__wrapped__(F)    # past the cache


# every field of order at most 256 with n > 1, and some prime fields
SMALL_FIELDS = [(p, n) for p in range(2, 17) if gf.is_prime(p)
                for n in range(2, 9) if p ** n <= 256] + [
    (2, 1), (3, 1), (7, 1), (251, 1)]


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_table_arithmetic_matches_polynomials(p, n):
    F = gf.GF(p, n)
    q = F.q
    ref = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):
            ref[a][b] = ref[b][a] = poly_product(F, a, b)
    for a in range(q):
        assert [F.mul(a, b) for b in range(q)] == ref[a], a
    assert [F.pow(0, e) for e in range(3)] == [1, 0, 0]
    for a in range(1, q):
        powers = [1]                    # a^0 .. a^(q-2) by the reference
        for _ in range(q - 2):
            powers.append(ref[powers[-1]][a])
        assert [F.pow(a, e) for e in range(-q, 2 * q)] == [
            powers[e % (q - 1)] for e in range(-q, 2 * q)], a
        assert F.inv(a) == powers[q - 2] and ref[a][F.inv(a)] == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_xor_add_matches_digit_loop(n):
    F = gf.GF(2, n)
    for a in range(F.q):
        assert [F.add(a, b) for b in range(F.q)] == [
            digit_add(F, a, b) for b in range(F.q)], a


@pytest.mark.parametrize("p,n", [(2, 12), (3, 7), (5, 4), (23, 3)])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_table_arithmetic_random(p, n, data):
    F = gf.GF(p, n)
    el = st.integers(0, F.q - 1)
    a, b, c = data.draw(el), data.draw(el), data.draw(el)
    e = data.draw(st.integers(-3 * F.q, 3 * F.q))
    assert F.mul(a, b) == poly_product(F, a, b)
    assert F.add(a, b) == digit_add(F, a, b)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a == 0 and e < 0:
        with pytest.raises(DomainError):
            F.pow(a, e)
        return
    assert F.pow(a, e) == poly_power(F, a, e)
    if a:
        assert F.inv(a) == poly_power(F, a, F.q - 2)
        assert poly_product(F, a, F.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(2, k) for k in range(1, 13)]
                         + [(3, k) for k in range(1, 8)]
                         + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2)])
def test_frobenius_is_automorphism(p, n):
    F = gf.GF(p, n)
    if F.q > 4096:
        pytest.skip("cap")
    # the reference a^p by polynomial products, so that the `mul` half
    # tests the log tables against the field's own Frobenius
    frob = [poly_power(F, a, p) for a in range(F.q)]
    assert frob == [col.frobenius(F, a) for a in range(F.q)]
    assert len(set(frob)) == F.q
    for a in range(F.q):
        for b in range(0, F.q, max(1, F.q // 16)):
            assert frob[F.add(a, b)] == F.add(frob[a], frob[b])
            assert frob[F.mul(a, b)] == F.mul(frob[a], frob[b])


def test_roots_in_field():
    F5 = gf.GF(5, 1)
    assert col.roots_in_field((-1 % 5, -1 % 5, 1), F5) == [3]
    assert col.roots_in_field((1, 0, 1), gf.GF(3, 1)) == []
    for a in range(5):
        assert col.roots_in_field(((-a) % 5, 1), F5) == [a]
    with pytest.raises(DomainError):
        col.roots_in_field((0,), F5)


def test_roots_match_exhaustive_evaluation():
    F = gf.GF(3, 2)
    coeffs = (2, 1, 0, 1)  # x^3 + x + 2 over GF(9)
    roots = set(col.roots_in_field(coeffs, F))
    for a in range(F.q):
        val = col.eval_poly(F, coeffs, a)
        assert (val == 0) == (a in roots)


def test_rational_roots():
    from fractions import Fraction
    assert col.rational_roots((-2, 1)) == [Fraction(2)]
    assert col.rational_roots((1, 0, 1)) == []
    assert set(col.rational_roots((0, -1, 1))) == {Fraction(0), Fraction(1)}


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
