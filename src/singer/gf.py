"""Exact arithmetic in GF(p^n) at desk scale.

Field elements are encoded as integers in [0, p^n): the coefficient vector
(c_0, ..., c_{n-1}) of the residue class mod the field's modulus becomes
sum c_i p^i.  That encoding is the enumeration order.  The modulus is the
lexicographically least monic irreducible of its degree, coefficients
compared low-to-high, so fields are reproducible without external tables.

Multiplication, powers and inverses in GF(p^n), n > 1, read the discrete
logs of `log_tables`, which a field loads the first time it needs them:
a*b = exp[(log a + log b) mod (q-1)].  Polynomial products serve only the
bootstrap that builds those tables (`primitive_element` and the fill's
product tables), and prime fields reduce mod p directly.  Addition is XOR
of the codes for p = 2 and a digit loop for odd p (DECISIONS.md, "Field
arithmetic on the log tables").  Negation, Frobenius and polynomial roots
serve only the collineation fixed points, and live in `collineations`.
"""

import itertools
import operator
from array import array
from functools import lru_cache

from .errors import DomainError, CapError

SIZE_CAP = 2 ** 20


@lru_cache
def is_prime(n):
    return n >= 2 and prime_divisors(n) == [n]


def prime_divisors(n):
    """The distinct primes dividing n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def check_field_size(p, n):
    """Raise CapError when p^n, with p > 1 and n >= 1, exceeds SIZE_CAP.

    Call it before the trial division of is_prime.  It never forms a huge
    p^n: a base of at least 2 already exceeds 2^20 at n > 20."""
    if n > 20 or p ** n > SIZE_CAP:
        raise CapError(f"field size {p}^{n} exceeds cap 2^20")


def factor_prime_power(q):
    """Return (p, k) with q = p^k, or raise DomainError.

    Every q here is the order of a field, so a q above the field size cap
    raises CapError before the O(sqrt(q)) trial division."""
    if q < 2:
        raise DomainError(f"{q} is not a prime power")
    if q > SIZE_CAP:
        raise CapError(f"{q} exceeds the field size cap 2^20")
    ps = prime_divisors(q)
    if len(ps) != 1:
        raise DomainError(f"{q} is not a prime power")
    p, k = ps[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


# ---------------------------------------------------------------------------
# polynomials over GF(p): coefficient tuples, low-to-high, no trailing zeros

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    return poly_trim(a)


def poly_is_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    f = poly_trim(f)
    n = len(f) - 1
    if n < 1:
        return False
    if f[0] == 0 and n > 1:
        return False
    for deg in range(1, n // 2 + 1):
        for code in range(p ** deg):
            cs = []
            c = code
            for _ in range(deg):
                cs.append(c % p)
                c //= p
            cand = tuple(cs) + (1,)
            if poly_mod(f, cand, p) == ():
                return False
    return True


@lru_cache(maxsize=None)
def least_irreducible(p, n):
    """Lexicographically least monic irreducible of degree n over GF(p).

    Low-degree coefficients are compared first."""
    if n == 1:
        return (0, 1)
    # itertools.product is lexicographic with the first coordinate most
    # significant; X divides every f with f(0) = 0, so those are skipped
    for lows in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        f = lows + (1,)
        if poly_is_irreducible(f, p):
            return f
    raise DomainError(f"no irreducible of degree {n} over GF({p})")  # unreachable


class GF:
    """GF(p^n) with integer-coded elements."""

    def __init__(self, p, n=1):
        if n < 1:
            raise DomainError("degree must be >= 1")
        if p > 1:
            check_field_size(p, n)
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p, self.n = p, n
        self.q = p ** n
        self.modulus = least_irreducible(p, n)
        self._exp = self._log = None     # log_tables, loaded on first use

    # -- encoding -----------------------------------------------------------
    def to_coeffs(self, a):
        cs = []
        for _ in range(self.n):
            cs.append(a % self.p)
            a //= self.p
        return tuple(cs)

    def from_coeffs(self, cs):
        a = 0
        for c in reversed(list(cs)[: self.n]):
            a = a * self.p + (c % self.p)
        return a

    def validate(self, a):
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise DomainError(f"{a!r} is not an element of GF({self.p}^{self.n})")

    def elements(self):
        return range(self.q)

    # -- arithmetic ----------------------------------------------------------
    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _tables(self):
        """(exp, log) of `log_tables`, kept on the field after the first
        call; n > 1 only."""
        if self._log is None:
            _, self._exp, self._log = log_tables(self)
        return self._exp, self._log

    def mul(self, a, b):
        if self.n == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        exp, log = self._tables()
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise DomainError("inversion of zero")
            return 0 if e else 1
        if self.n == 1:
            return pow(a, e % (self.q - 1), self.p)
        exp, log = self._tables()
        return exp[log[a] * e % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise DomainError("inversion of zero")
        return self.pow(a, -1)

    def _poly_mul(self, a, b):
        """a*b as a polynomial product mod the modulus.  Only the bootstrap
        of the log tables uses it, since the tables need g first."""
        if self.n == 1:
            return (a * b) % self.p
        c = poly_mul(self.to_coeffs(a), self.to_coeffs(b), self.p)
        return self.from_coeffs(poly_mod(c, self.modulus, self.p) + (0,) * self.n)

    def _poly_pow(self, a, e):
        """a^e for 0 <= e by square-and-multiply of `_poly_mul`."""
        out = 1
        while e:
            if e & 1:
                out = self._poly_mul(out, a)
            a = self._poly_mul(a, a)
            e >>= 1
        return out

    def mult_order(self, a):
        """The order of a in F^x: q - 1 divided by each prime r while
        a^(k/r) = 1, by `_poly_pow`, so no log tables are built."""
        if a == 0:
            raise DomainError("order of zero undefined")
        k = self.q - 1
        for r in prime_divisors(k):
            while k % r == 0 and self._poly_pow(a, k // r) == 1:
                k //= r
        return k

    def primitive_element(self):
        """Least element (enumeration order) of multiplicative order q-1:
        the least a with a^((q-1)/r) != 1 for every prime r dividing q-1.
        For n > 1 the scan starts at p: the codes 1..p-1 are the units of
        GF(p), whose orders divide p - 1 < q - 1."""
        cofactors = [(self.q - 1) // r for r in prime_divisors(self.q - 1)]
        for a in range(1 if self.n == 1 else self.p, self.q):
            if all(self._poly_pow(a, c) != 1 for c in cofactors):
                return a
        raise DomainError("no primitive element found")  # unreachable

    def __repr__(self):
        return f"<GF({self.p}^{self.n})>"

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p
                and self.n == other.n and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))


def _span(base, add, p):
    """[sum of c_j base[j] for each code sum of c_j p^j], digit by digit:
    digit j = c is digit j = c - 1 plus base[j], one addition an entry."""
    table = [0]
    for b in base:
        block = table
        for _ in range(p - 1):
            block = [add(x, b) for x in block]
            table += block
    return table


@lru_cache(maxsize=4)
def log_tables(F):
    """(g, exp, log) for the field F, with g its primitive element.

    exp[i] = g^i for 0 <= i < q-1 and log[exp[i]] = i, both indexed by
    element code; log[0] is -1, since 0 has no logarithm.  These are the
    discrete logs behind every Singer indexing: PG(m, q) puts its points at
    the powers of g in GF(q^{m+1}) modulo GF(q)^x.  The arrays are shared
    through the cache, so callers only read them.

    The fill steps x -> x*g without `mul`.  With h = ceil(n/2) and
    P = p^h, the code x = lo + P*hi is the polynomial lo(X) + X^h hi(X), so
    x*g = lo*g + (P*hi)*g: two lookups in tables of p^h and p^(n-h)
    products and one field addition, which is XOR for p = 2
    (DECISIONS.md, "Log tables stepped by a linear map").  Those tables
    are spans of the n products X^j*g, one addition per entry; the
    products are polynomial ones, since `GF.mul` reads these tables.

    `GF.mul`, `pow` and `inv` trust the tables, so the fill proves them:
    after q-1 steps x must be back at 1, and every nonzero code must have
    been reached once.  Otherwise g is not primitive and DomainError is
    raised."""
    g = F.primitive_element()
    p, n = F.p, F.n
    N = F.q - 1
    exp = array("i", [0]) * N
    log = array("i", [-1]) * F.q
    h = (n + 1) // 2
    P = p ** h
    add = operator.xor if p == 2 else F.add
    base = [F._poly_mul(p ** j, g) for j in range(n)]    # X^j * g
    lo_g, hi_g = _span(base[:h], add, p), _span(base[h:], add, p)
    x = 1
    for i in range(N):
        exp[i] = x
        log[x] = i
        x = add(lo_g[x % P], hi_g[x // P])
    # the N writes leave only log[0] at -1 exactly when they reached the N
    # nonzero codes once each
    if x != 1 or log[0] != -1 or log.count(-1) != 1:
        raise DomainError(f"{g} does not generate the units of {F!r}: the "
                          "log tables would have holes")
    return g, exp, log


def singer_divisibility(p, i, j):
    """Whether p^{2i} + p^i + 1 divides p^{2j} + p^j + 1 (requires i | j)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if i < 1 or j < 1:
        raise DomainError("exponents must be >= 1")
    if j % i != 0:
        raise DomainError(f"{i} does not divide {j}")
    a = p ** (2 * i) + p ** i + 1
    b = p ** (2 * j) + p ** j + 1
    return b % a == 0

