"""Exhaustive references for the reduced and packed checks of `singer`.

Each function here is the plain definition of what a kernel decides, with
no reduction: the tests hold the kernels to these answers, witnesses
included, at sizes where the references run in a fraction of a second.
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
