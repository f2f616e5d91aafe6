"""The bitset kernels: hyperaddition tables in packed rows, and the line
scans of `verify_plane`.

All set-valued data arrives as Python integer bitmasks.  `_Packed` holds a
hyperaddition table with one integer per row; `hyper.check_axioms` proves
the axioms with it, and when a proof does not apply or fails,
`assoc_witness` and `distrib_witness` find the first witness of the
exhaustive scan over all triples from the same rows (`DECISIONS.md`,
"Witnesses from packed rows; one kernel source").  `line_pair_witness`
first decides "every two lines meet once" from the reach of each point,
in O(incidences) big-int ORs, and runs its O(L^2) pairwise scan only when
that does not hold.  `hyper` imports `geometry`, which imports this
module, so the packed rows live here rather than in `hyper`.
"""


from itertools import accumulate, count, repeat
from operator import add, mul

# the one kernel implementation; perfbench/worker.py records it with each
# round
BACKEND = "python"


class _Packed:
    """A hyperaddition table with each row packed into one integer: block
    w of row s, bits [w·B, w·B + n), holds s + w, with B = n + 1 rounded
    up to whole bytes.  Sums are below 2^n, so no OR, no product of a
    one-bit-per-block integer by a sum and no addition of two sums carries
    into the next block (`DECISIONS.md`, "Hyperfield axioms in packed
    rows")."""

    def __init__(self, add):
        n = self.n = len(add)
        self.add = add
        self.width = -(-(n + 1) // 8) * 8
        self.full = (1 << n) - 1
        self.spread = self.pack([1] * n)              # bit 0 of each block
        self.low = self.full * self.spread            # bits 0..n-1
        self.copies = sum(1 << c * (self.width - 1) for c in range(n))
        self.rows = [self.pack(r) for r in add]

    def pack(self, values):
        """Σ values[w] << (w·B), for n values below 2^n."""
        return int.from_bytes(b"".join(map(
            int.to_bytes, values, repeat(self.width // 8), repeat("little"))),
            "little")

    def transpose(self, values):
        """The packed row whose block c is {x : c in values[x]}: a copy of
        values[x] at every offset c·(B - 1) >= c·n has its bit c at c·B."""
        out = 0
        for x, v in enumerate(values):
            out |= (v * self.copies & self.spread) << x
        return out

    def images(self, f):
        """Each row with every block S replaced by the union of f[s] over s
        in S.  Bit c of the image of S is set iff S meets
        G_c = {s : c in f[s]}, that is iff (S & G_c) + 2^n - 1 has bit n."""
        n, B, spread, low = self.n, self.width, self.spread, self.low
        reach = self.transpose(f)
        masks = [(reach >> c * B & self.full) * spread for c in range(n)]
        high = spread << n
        for row in self.rows:
            out = 0
            for c, g in enumerate(masks):
                out |= ((row & g) + low & high) >> (n - c)
            yield out

    def first_difference(self, lefts, rights):
        """(y, w) for the first y where the packed rows lefts[y] and
        rights[y] differ, and the lowest block w where they do; or None.
        Both may be iterators, read only up to that y."""
        for y, (left, right) in enumerate(zip(lefts, rights)):
            if left != right:
                diff = left ^ right
                return y, ((diff & -diff).bit_length() - 1) // self.width
        return None

    def reversible(self, negs):
        """Whether x in y + w implies w in x + (-y), for every y with a
        negative: row y against the transpose of column -y.  `check_axioms`
        calls it only when the other axioms do not imply reversibility."""
        return not any(
            self.rows[y] & ~self.transpose([r[ns[0]] for r in self.add])
            for y, ns in enumerate(negs) if ns)

    def assoc_failure(self, x):
        """The first (y, w) with (x + y) + w != x + (y + w), or None: the
        OR of the rows of the points of x + y against row y mapped through
        row x.  An identity row x has none, since both sides are y + w."""
        rx = self.add[x]
        if rx == [1 << w for w in range(self.n)]:
            return None

        def lefts():
            for m in rx:
                left = 0
                for s, r in enumerate(self.rows):
                    if m >> s & 1:
                        left |= r
                yield left
        return self.first_difference(lefts(), self.images(rx))

    def carry_failure(self, add2, phi):
        """The first (s, w) with phi(s + w) != phi(s) + phi(w) in add2, or
        None, for phi a list of carrier indices: each row mapped through
        phi against row phi[s] of add2 read in the order phi[w]."""
        return self.first_difference(
            self.images([1 << p for p in phi]),
            (self.pack(map(add2[t].__getitem__, phi)) for t in phi))


def _first_witness(n, failure):
    """(x, *failure(x)) for the first x in range(n) whose failure is not
    None, or None."""
    for x in range(n):
        found = failure(x)
        if found is not None:
            return (x, *found)
    return None


def assoc_witness(n, add_rows):
    """First (x, y, z) with (x+y)+z != x+(y+z), or None: for each x in
    turn, `_Packed.assoc_failure`.  add_rows[x][y] is the bitmask of x+y,
    an n x n table of masks below 2^n."""
    return _first_witness(n, _Packed(add_rows).assoc_failure)


def distrib_witness(n, add_rows, mul):
    """First (u, v, w) with u(v+w) != uv + uw, or None: for each u in
    turn, `_Packed.carry_failure` of row u of the product.  mul is an n*n
    table of element indices in [0, n) (row-major nested lists)."""
    packed = _Packed(add_rows)
    return _first_witness(n, lambda u: packed.carry_failure(add_rows, mul[u]))


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
    in one pass from reach(p), the OR of the lines through p, and deg(p),
    the number of those lines.

    reach(p) is p and the union of L - {p} over the lines L through p, so
    |reach(p)| - 1 <= sum of (|L| - 1) over them, with equality exactly
    when no two of them share a second point.  Summed over the points on
    a line, the two sides are equal exactly when every point's are: that
    is when no two lines meet twice.  Each pair that meets once is then
    counted at its one common point, so all L(L - 1)/2 pairs meet exactly
    when the deg(p)(deg(p) - 1)/2 add up to it.  Every incidence is read,
    so the answer is exhaustive; it costs one big-int OR per incidence
    instead of L(L - 1)/2 ANDs (`DECISIONS.md`, "Line pairs from one
    reach per point")."""
    reach = [0] * max(line_masks, default=0).bit_length()
    degree = [0] * len(reach)
    twice = 0      # sum of |L| (|L| - 1) over the lines
    for mask in line_masks:
        k = mask.bit_count()
        twice += k * (k - 1)
        for p in _points(mask):
            reach[p] |= mask
            degree[p] += 1
    L = len(line_masks)
    on_a_line = len(degree) - degree.count(0)
    return (sum(map(int.bit_count, reach)) - on_a_line == twice
            and sum(map(mul, degree, degree)) - sum(degree) == L * (L - 1))


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
