"""Exhaustive references for the reduced and packed checks of `singer`.

Each function here is the plain definition of what a kernel decides, with
no reduction: the tests hold the kernels to these answers, witnesses
included, at sizes where the references run in a fraction of a second.
The difference maps and the free-word product are here as the
one-product-at-a-time loops that set operations replaced.
"""

from functools import reduce
from operator import or_


def _members(rows):
    """{mask: its set bits, ascending} for every mask in the rows."""
    return {m: [i for i in range(m.bit_length()) if m >> i & 1]
            for row in rows for m in row}


def assoc_witness(n, add_rows):
    """First (x, y, z) with (x+y)+z != x+(y+z), or None: all n^3 triples.

    add_rows[x][y] is the bitmask of x+y; a set-valued sum S + z is the
    union of s + z over the members s of S."""
    members = _members(add_rows)
    cols = [[row[z] for row in add_rows] for z in range(n)]
    for x in range(n):
        rx = add_rows[x]
        for y in range(n):
            for z in range(n):
                left = reduce(or_, map(cols[z].__getitem__,
                                       members[rx[y]]), 0)
                right = reduce(or_, map(rx.__getitem__,
                                        members[add_rows[y][z]]), 0)
                if left != right:
                    return (x, y, z)
    return None


def distrib_witness(n, add_rows, mul):
    """First (u, v, w) with u(v+w) != uv + uw, or None: all n^3 triples.

    mul is an n*n table of element indices (row-major nested lists)."""
    members = _members(add_rows)
    for u in range(n):
        mu = mul[u]
        for v in range(n):
            for w in range(n):
                left = sum({1 << mu[s] for s in members[add_rows[v][w]]})
                if left != add_rows[mu[v]][mu[w]]:
                    return (u, v, w)
    return None


def monoid_witness(mul):
    """First (x, y, z) with (xy)z != x(yz), or None: all n^3 triples."""
    n = len(mul)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    return (x, y, z)
    return None


def line_pair_witness(line_masks, lo, hi):
    """First line pair (i, j, size), in scan order, whose intersection
    size is outside [lo, hi], or None: every pair of lines."""
    L = len(line_masks)
    for i in range(L):
        for j in range(i + 1, L):
            c = bin(line_masks[i] & line_masks[j]).count("1")
            if c < lo or c > hi:
                return (i, j, c)
    return None


def coverage_witness(npoints, line_masks):
    """First point pair p < q on no common line, or None: every pair of
    points against every line."""
    for p in range(npoints):
        for q in range(p + 1, npoints):
            if not any(m >> p & 1 and m >> q & 1 for m in line_masks):
                return (p, q)
    return None


def differences(G, els):
    """{ a b^-1 : a, b in els, a != b }: one product per ordered pair of
    distinct elements."""
    out = set()
    for b in els:
        b_inv = G.inv(b)
        for a in els:
            if a != b:
                out.add(G.mul(a, b_inv))
    return out


def difference_pairs(G, els):
    """{difference: the ordered pairs (a, b), a != b, with a b^-1 equal to
    it, in the order a, then b, runs over els}."""
    out = {}
    for a in els:
        for b in els:
            if a != b:
                out.setdefault(G.mul(a, G.inv(b)), []).append((a, b))
    return out


def new_differences(G, els, invs, diffs, z, seen):
    """The builder's test of adjoining z, one product at a time: False at
    the first z s^-1 in `diffs`, or at the first of z s^-1, s z^-1 already
    in `seen`; else True, with all of them added to `seen`."""
    for s_inv in invs:
        if G.mul(z, s_inv) in diffs:
            return False
    z_inv = G.inv(z)
    for s, s_inv in zip(els, invs):
        for d in (G.mul(z, s_inv), G.mul(s, z_inv)):
            if d in seen:
                return False
            seen.add(d)
    return True


def free_mul(a, b):
    """The product of two reduced free words (tuples of letter codes, code
    c ^ 1 inverse to c), cancelling one letter pair at a time."""
    a = list(a)
    i = 0
    while a and i < len(b) and a[-1] ^ 1 == b[i]:
        a.pop()
        i += 1
    return tuple(a) + b[i:]
