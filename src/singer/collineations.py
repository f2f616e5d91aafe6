"""Collineations of PG(k, F) and their fixed points, for F a finite field
or the rationals: the fixed-point lemma behind the results on PG(n, F̄_p)
and PG(2k, R).

A collineation has a fixed point exactly when its matrix has an eigenvalue
in F.  `fixed_points` finds the eigenvalues as roots of the characteristic
polynomial (an exhaustive scan over a finite field, the rational root
theorem over Q) and solves for each eigenspace; `fixed_points_scan` is the
exhaustive oracle.  No command runs this code, so `singer.cli` does not
import it.
"""

import itertools
from fractions import Fraction
from math import lcm

from .errors import DomainError
from .geometry import _normalize, _proj_points
from .gf import poly_trim


class Collineation:
    """Semilinear map x -> A x^sigma of PG(dim-1, F); sigma is a power of
    Frobenius (ignored over the rationals)."""

    def __init__(self, field, matrix, frobenius_power=0):
        self.field = field      # a gf.GF or the string "Q"
        self.A = tuple(tuple(row) for row in matrix)
        self.dim = len(self.A)
        if any(len(r) != self.dim for r in self.A):
            raise DomainError("matrix must be square")
        self.sigma = frobenius_power
        if field == "Q" and frobenius_power:
            raise DomainError("no field automorphisms over the rationals")


def apply_collineation(c, vec):
    F = c.field
    if F == "Q":
        out = [sum(c.A[i][j] * vec[j] for j in range(c.dim))
               for i in range(c.dim)]
        return tuple(out)
    tw = [F.pow(x, F.p ** (c.sigma % F.n) if F.n > 1 else 1) for x in vec] \
        if c.sigma else list(vec)
    out = []
    for i in range(c.dim):
        acc = 0
        for j in range(c.dim):
            acc = F.add(acc, F.mul(c.A[i][j], tw[j]))
        out.append(acc)
    return tuple(out)


class _Rationals:
    """The element operations of `gf.GF` for Q, on exact Fractions, so the
    linear algebra below serves both kinds of field."""

    @staticmethod
    def add(a, b):
        return Fraction(a) + b

    @staticmethod
    def mul(a, b):
        return Fraction(a) * b

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)


RATIONALS = _Rationals()


# ---------------------------------------------------------------------------
# field operations that only this module needs; F is a `gf.GF`, and `neg`
# and `sub` also take RATIONALS

def neg(F, a):
    """-a in F, digit by digit in GF(p^n)."""
    if F is RATIONALS:
        return -Fraction(a)
    p = F.p
    out = 0
    mult = 1
    for _ in range(F.n):
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def sub(F, a, b):
    return F.add(a, neg(F, b))


def frobenius(F, a):
    return F.pow(a, F.p)


def eval_poly(F, coeffs, x):
    """Evaluate a polynomial with integer-coded coefficients at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def roots_in_field(coeffs, F):
    """All roots in F of the polynomial with integer-coded coefficients.

    Exhaustive scan (the field size cap is 2^20); every root is re-verified
    by evaluation."""
    coeffs = tuple(coeffs)
    if not any(coeffs):
        raise DomainError("zero polynomial")
    if len(poly_trim(coeffs)) - 1 < 1:
        raise DomainError("degree must be >= 1")
    return [a for a in F.elements() if eval_poly(F, coeffs, a) == 0]


def rational_roots(coeffs):
    """Roots in Q of a polynomial with Fraction/int coefficients.

    Rational root theorem on the cleared-denominator form; exact arithmetic."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise DomainError("zero polynomial")
    if len(coeffs) - 1 < 1:
        raise DomainError("degree must be >= 1")
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    while ints and ints[0] == 0:
        ints.pop(0)
        # x = 0 is a root of the original iff constant term was 0
    a0 = ints[0]
    an = ints[-1]
    roots = set()
    if coeffs[0] == 0:
        roots.add(Fraction(0))

    def divisors(k):
        k = abs(k)
        out = []
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.append(d)
                out.append(k // d)
            d += 1
        return out

    for r in divisors(a0):
        for s in divisors(an):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                    roots.add(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# linear algebra over F, a `gf.GF` or RATIONALS

def char_poly(F, A):
    """det(xI - A) by cofactor expansion; coefficients low-to-high, in the
    field F (a `gf.GF`, or `RATIONALS`).  Exact for the small dims used
    here."""
    dim = len(A)
    # polynomial entries: tuples of field elements, low-to-high
    def padd(f, g):
        n = max(len(f), len(g))
        return tuple(F.add(f[i] if i < len(f) else 0,
                           g[i] if i < len(g) else 0) for i in range(n))

    def pmul(f, g):
        if not f or not g:
            return ()
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
        return tuple(out)

    def pneg(f):
        return tuple(neg(F, x) for x in f)

    M = [[(neg(F, A[i][j]),) if i != j else (neg(F, A[i][j]), 1)
          for j in range(dim)] for i in range(dim)]

    def det(rows, cols):
        if len(cols) == 1:
            return M[rows[0]][cols[0]]
        acc = ()
        r = rows[0]
        for k, cidx in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(M[r][cidx], minor)
            acc = padd(acc, term if k % 2 == 0 else pneg(term))
        return acc

    poly = det(tuple(range(dim)), tuple(range(dim)))
    return tuple(poly) + (0,) * (dim + 1 - len(poly))


def _nullspace(F, M):
    """Basis of the nullspace of M over F (list of tuples)."""
    rows = [list(r) for r in M]
    dim = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [sub(F, rows[i][j], F.mul(f, rows[r][j]))
                           for j in range(dim)]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(dim) if c not in pivots]
    for fc in free:
        vec = [0] * dim
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = neg(F, rows[i][fc])
        basis.append(tuple(vec))
    return basis


def is_invertible(F, A):
    return len(_nullspace(F, A)) == 0


# ---------------------------------------------------------------------------
# fixed points

def fixed_points(c):
    """Projective fixed points of a collineation.

    Linear case: eigenvalue roots of the characteristic polynomial plus a
    nullspace solve per root.  Semilinear over a finite field and the
    rational case fall back to their natural exhaustive and root-theorem
    routes."""
    F = c.field
    if F == "Q":
        pts = []
        for rho in rational_roots(char_poly(RATIONALS, c.A)):
            M = [[sub(RATIONALS, c.A[i][j], rho if i == j else 0)
                  for j in range(c.dim)] for i in range(c.dim)]
            pts.extend(_nullspace(RATIONALS, M))
        return pts
    if not is_invertible(F, c.A):
        raise DomainError("matrix must be invertible")
    if c.sigma % max(F.n, 1) == 0:
        poly = char_poly(F, c.A)
        pts = set()
        for rho in roots_in_field(poly, F):
            M = [[sub(F, c.A[i][j], rho if i == j else 0)
                  for j in range(c.dim)] for i in range(c.dim)]
            basis = _nullspace(F, M)
            # every projective point of the eigenspace is fixed
            for coeffs in itertools.product(range(F.q), repeat=len(basis)):
                if not any(coeffs):
                    continue
                vec = [0] * c.dim
                for s, b in zip(coeffs, basis):
                    for k in range(c.dim):
                        vec[k] = F.add(vec[k], F.mul(s, b[k]))
                norm = _normalize(F, vec)
                if norm:
                    pts.add(norm)
        return sorted(pts)
    return fixed_points_scan(c)


def fixed_points_scan(c):
    """Exhaustive fixed-point scan over the projective points (oracle)."""
    F = c.field
    pts = []
    for p in _proj_points(F, c.dim):
        img = apply_collineation(c, p)
        if _normalize(F, img) == p:
            pts.append(p)
    return pts
