"""Exhaustive references for the reduced and packed checks of `singer`.

Each function here is the plain definition of what a kernel decides, with
no reduction: the tests hold the kernels to these answers, witnesses
included, at sizes where the references run in a fraction of a second.
The difference maps and the free-word product are here as the
one-product-at-a-time loops that set operations replaced, and the plane
and perfect-set certificates as the searches that their axioms made
redundant.
"""

from functools import reduce
from itertools import combinations
from operator import or_

from singer.diffsets import (BuilderState, PartialDifferenceSet,
                             DEFAULT_SEARCH_BOUND)
from singer.errors import BoundedFailure


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


def verify_plane(npoints, line_masks):
    """`geometry.verify_plane(...).to_json()` from the definition: the pair
    axioms by `line_pair_witness` and `coverage_witness` above, a scan of
    all four-point subsets for one with no three points on a line, then
    uniform line sizes n + 1 and n^2 + n + 1 points."""
    checks = {"two-points-one-line": True, "two-lines-one-point": True,
              "quadrangle-exists": True}

    def failed(check, counterexample):
        if check:
            checks[check] = False
        return {"ok": False, "order": None, "checks": checks,
                "counterexample": counterexample}

    w = line_pair_witness(line_masks, 1, 1)
    if w is not None:
        i, j, c = w
        if c == 0:
            return failed("two-lines-one-point",
                          {"lines": [i, j], "common_points": 0})
        common = line_masks[i] & line_masks[j]
        p, q = [x for x in range(npoints) if common >> x & 1][:2]
        return failed("two-points-one-line",
                      {"points": [p, q], "lines": [i, j]})
    w = coverage_witness(npoints, line_masks)
    if w is not None:
        return failed("two-points-one-line", {"points": list(w), "lines": []})

    def collinear(*pts):
        return any(all(m >> x & 1 for x in pts) for m in line_masks)

    if not any(not any(collinear(*t) for t in combinations(quad, 3))
               for quad in combinations(range(npoints), 4)):
        return failed("quadrangle-exists", {"points": []})
    sizes = sorted({m.bit_count() for m in line_masks})
    if len(sizes) != 1:
        return failed(None, {"line_sizes": sizes})
    n = sizes[0] - 1
    if npoints != n * n + n + 1:
        return failed(None, {"points": npoints, "expected": n * n + n + 1})
    return {"ok": True, "order": n, "checks": checks, "counterexample": None}


def verify_perfect(G, els):
    """(ok, detail) of `diffsets.verify_perfect` from the definition: the
    first difference, in `difference_pairs` order, with two pairs; else
    the first nonidentity element that is no difference; else a bijection
    onto G minus the identity."""
    pairs = difference_pairs(G, els)
    for d, ps in pairs.items():
        if len(ps) > 1:
            return False, {
                "difference": G.canon(d),
                "pairs": [[G.canon(a), G.canon(b)] for a, b in ps[:2]]}
    for g in G.elements():
        if g != G.identity and g not in pairs:
            return False, {"missing": G.canon(g)}
    return True, {"k": len(els), "v": G.order}


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


def naive_step(state, d, bound=DEFAULT_SEARCH_BOUND):
    """`diffsets.hughes_step` without shortcuts, as a new state that leaves
    `state` as it was: the differences of S from scratch, every candidate
    from the identity on, and the extension accepted iff its new
    differences are distinct and new, so that it is partial."""
    S = state.current
    G = S.group
    D = differences(G, S.elements)
    log = state.log + [{"target": G.canon(d), "chosen_x": None, "added": []}]
    if d in D:
        return BuilderState(S, log)
    for n, x in enumerate(G.elements(), 1):
        if n > bound:
            raise BoundedFailure(
                f"no candidate for target {G.canon(d)} within {bound}")
        y = G.mul(G.inv(d), x)
        if x in S.elements or x == y:
            continue
        new_els = [x] if y in S.elements else [x, y]
        T = S.elements + tuple(new_els)
        new = [G.mul(a, G.inv(b)) for a in T for b in T
               if a != b and (a in new_els or b in new_els)]
        if len(set(new)) == len(new) and not set(new) & D:
            assert d in new
            log[-1].update(chosen_x=G.canon(x),
                           added=[G.canon(z) for z in new_els])
            return BuilderState(PartialDifferenceSet(G, T, True), log)
    raise BoundedFailure(
        f"enumeration exhausted before bound for target {G.canon(d)}")


def free_mul(a, b):
    """The product of two reduced free words (tuples of letter codes, code
    c ^ 1 inverse to c), cancelling one letter pair at a time."""
    a = list(a)
    i = 0
    while a and i < len(b) and a[-1] ^ 1 == b[i]:
        a.pop()
        i += 1
    return tuple(a) + b[i:]


def is_even(perm):
    """Whether an image tuple has an even number of inversions."""
    return sum(x > y for x, y in combinations(perm, 2)) % 2 == 0
