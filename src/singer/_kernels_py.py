"""Pure-Python bitset kernels: the reference versions, and the fallback
when the compiled extension is not built.

All set-valued data arrives as Python integer bitmasks.  The O(c^3)
hyperaddition scans are the fallback of `hyper.check_axioms`, which runs
them only on tables that fail an axiom or a precondition of its reductions
to generators; the line scans serve `verify_plane`.  `line_pair_witness`
first decides "every two lines meet once" from the point stars, in
O(incidences) big-int ORs, and runs its O(L^2) pairwise scan only when
that does not hold.  The compiled twin in _kernels.c implements the same
signatures on uint64 words, with the pairwise scan alone; singer._backend
picks whichever is importable.
"""


from array import array
from functools import reduce
from itertools import accumulate, count
from operator import add, or_


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


def _points(mask):
    """The set bits of a nonnegative mask, ascending, as an iterator.

    Splitting the little-endian binary string at its ones leaves the runs
    of zeros between them, so the t-th one sits at the summed lengths of
    the first t + 1 runs plus t: a few C-level passes over the string
    instead of one big-int step per bit."""
    runs = format(mask, "b")[::-1].split("1")
    runs.pop()
    return map(add, accumulate(map(len, runs)), count())


def lines_meet_once(line_masks):
    """Whether every two of the lines meet in exactly one point, decided
    from the point stars: star(p) is the mask of the lines through p.

    For line i, the sum of |star(p)| over its points p counts each line j
    once per common point, so it is |L_i| + sum over j != i of
    |L_i & L_j|, and the union of those stars is the set of lines that
    meet L_i.  When that union is all L lines, each of the L - 1 terms is
    at least 1, and the sum is |L_i| + L - 1 exactly when each term is 1.
    Every line is checked, so the answer is exhaustive; it costs
    O(incidences) big-int ORs instead of L(L - 1)/2 ANDs.  The one input
    it answers False without a bad pair is a single empty line."""
    L = len(line_masks)
    stars = [0] * max(line_masks, default=0).bit_length()
    flat = array("I")   # the points of every line, line after line
    ends = []
    for j, mask in enumerate(line_masks):
        start = len(flat)
        flat.extend(_points(mask))
        ends.append(len(flat))
        bit = 1 << j
        for p in flat[start:]:
            stars[p] |= bit
    degree = [star.bit_count() for star in stars]
    every_line = (1 << L) - 1
    start = 0
    for end in ends:
        points = flat[start:end]
        if (sum(map(degree.__getitem__, points)) != end - start + L - 1
                or reduce(or_, map(stars.__getitem__, points), 0)
                != every_line):
            return False
        start = end
    return True


def line_pair_witness(line_masks, lo, hi):
    """First line pair (i, j, size) whose intersection size is outside
    [lo, hi], or None.

    When lo <= 1 <= hi and `lines_meet_once` holds, no pair is outside
    and the answer is None.  Otherwise the pairs are scanned in order, so
    the witness is the first pair whichever way the call went."""
    if lo <= 1 <= hi and lines_meet_once(line_masks):
        return None
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
        for p in _points(mask):
            reach[p] |= mask
    full = (1 << npoints) - 1
    for p in range(npoints):
        missing = full & ~reach[p] & ~(1 << p)
        if missing:
            q = (missing & -missing).bit_length() - 1
            return (p, q)
    return None
