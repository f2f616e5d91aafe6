"""Pure-Python bitset kernels: the reference versions, and the fallback
when the compiled extension is not built.

All set-valued data arrives as Python integer bitmasks.  The O(c^3)
hyperaddition scans are the fallback of `hyper.check_axioms`, which runs
them only on tables that fail an axiom or a precondition of its reductions
to generators; the O(L^2) line-pair scans serve `verify_plane`.  The
compiled twin in _kernels.c implements the same signatures on uint64
words; singer._backend picks whichever is importable.
"""


def assoc_witness(n, add_rows):
    """First (x, y, z) with (x+y)+z != x+(y+z), or None.

    add_rows[x][y] is the bitmask of x+y; set-valued composition unions
    row lookups over the members of the inner sum."""
    for x in range(n):
        rx = add_rows[x]
        for y in range(n):
            sxy = rx[y]
            for z in range(n):
                left = 0
                m = sxy
                while m:
                    w = (m & -m).bit_length() - 1
                    left |= add_rows[w][z]
                    m &= m - 1
                right = 0
                m = add_rows[y][z]
                while m:
                    w = (m & -m).bit_length() - 1
                    right |= rx[w]
                    m &= m - 1
                if left != right:
                    return (x, y, z)
    return None


def distrib_witness(n, add_rows, mul):
    """First (u, v, w) with u(v+w) != uv + uw, or None.

    mul is an n*n table of element indices (row-major nested lists)."""
    for u in range(n):
        mu = mul[u]
        for v in range(n):
            uv = mu[v]
            for w in range(n):
                left = 0
                m = add_rows[v][w]
                while m:
                    s = (m & -m).bit_length() - 1
                    left |= 1 << mu[s]
                    m &= m - 1
                if left != add_rows[uv][mu[w]]:
                    return (u, v, w)
    return None


def line_pair_witness(line_masks, lo, hi):
    """First line pair (i, j, size) whose intersection size is outside
    [lo, hi], or None."""
    L = len(line_masks)
    for i in range(L):
        li = line_masks[i]
        for j in range(i + 1, L):
            c = (li & line_masks[j]).bit_count()
            if c < lo or c > hi:
                return (i, j, c)
    return None


def coverage_witness(npoints, line_masks):
    """First point pair on no common line, or None."""
    reach = [0] * npoints
    for mask in line_masks:
        m = mask
        while m:
            p = (m & -m).bit_length() - 1
            reach[p] |= mask
            m &= m - 1
    full = (1 << npoints) - 1
    for p in range(npoints):
        missing = full & ~reach[p] & ~(1 << p)
        if missing:
            q = (missing & -missing).bit_length() - 1
            return (p, q)
    return None
