"""The kernels of `singer._backend` against the exhaustive references of
`oracle`: the packed-row witness scans and the row-based monoid witness
of `hyper` must return the cubic scans' first witness, and the line
kernels the pairwise scans' answers, on identical inputs."""

import random

import pytest

import oracle
from singer import _backend, diffsets, geometry, hyper
from singer.groups import Cyclic


def random_instance(n, seed, sparse=True):
    rng = random.Random(seed)
    full = (1 << n) - 1
    if sparse:
        rows = [[1 << rng.randrange(n) | 1 << rng.randrange(n)
                 for _ in range(n)] for _ in range(n)]
    else:
        rows = [[rng.randint(1, full) for _ in range(n)] for _ in range(n)]
    mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    return rows, mul


def _assert_scans_agree(n, rows, mul):
    """The three witnesses against the references; returns the
    associativity and distributivity witnesses."""
    found = (_backend.assoc_witness(n, rows),
             _backend.distrib_witness(n, rows, mul))
    assert found == (oracle.assoc_witness(n, rows),
                     oracle.distrib_witness(n, rows, mul))
    assert hyper._monoid_witness(mul) == oracle.monoid_witness(mul)
    return found


# [70-4-False] has dense sums and no associativity witness: both scans read
# every triple
@pytest.mark.parametrize("n,seed,sparse", [(5, 0, True), (9, 1, True),
                                           (16, 2, False), (33, 3, True),
                                           (70, 4, False), (130, 5, True)])
def test_assoc_distrib_parity(n, seed, sparse):
    rows, mul = random_instance(n, seed, sparse)
    _assert_scans_agree(n, rows, mul)


def test_parity_on_associative_table():
    # hyperaddition of the 14-class quotient table passes both scans
    T = hyper.field_quotient_table(3, 3)
    for scans in (_backend, oracle):
        assert scans.assoc_witness(T.n, T.hyperadd) is None
        assert scans.distrib_witness(T.n, T.hyperadd, T.mul) is None
    assert hyper._monoid_witness(T.mul) is None


def _small_tables():
    """Tables of the constructors on 2 to 13 points: hyperfields, whose
    scans find nothing until a cell is changed, and the three-point line
    k_algebra(C_3), which is not associative."""
    yield hyper.krasner()
    for k in range(3, 13):
        yield hyper.k_algebra(Cyclic(k))
    for q, m in ((2, 2), (2, 3), (3, 2), (4, 2)):
        yield hyper.field_quotient_table(q, m)


def _sweep_tables():
    """Random tables on 1 to 13 points (sums sparse, dense, single points,
    or empty and full among random ones) with random products, and the
    small tables of the constructors with one sum or one product changed
    at random, so that witnesses are found past the first x."""
    rng = random.Random(0)
    for _ in range(240):
        n = rng.randint(1, 13)
        full = (1 << n) - 1
        cell = rng.choice((
            lambda: 1 << rng.randrange(n) | 1 << rng.randrange(n),
            lambda: rng.randint(1, full),
            lambda: 1 << rng.randrange(n),
            lambda: rng.choice((0, full, rng.getrandbits(n)))))
        yield (n, [[cell() for _ in range(n)] for _ in range(n)],
               [[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    for T in _small_tables():
        n = T.n
        yield n, T.hyperadd, T.mul
        for k in range(20):
            rows = [list(r) for r in T.hyperadd]
            mul = [list(r) for r in T.mul]
            if k % 2:
                rows[rng.randrange(n)][rng.randrange(n)] = rng.getrandbits(n)
            else:
                mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            yield n, rows, mul


def test_scans_match_the_references_on_small_tables():
    assoc, distrib = set(), set()
    for n, rows, mul in _sweep_tables():
        for firsts, w in zip((assoc, distrib),
                             _assert_scans_agree(n, rows, mul)):
            firsts.add(w and w[0])
    # each scan passes some tables, and finds witnesses past its first x:
    # a changed product moves the first u of distributivity to its row
    assert assoc >= {None, *range(4)}
    assert distrib >= {None, *range(10)}


def random_lines(seed):
    rng = random.Random(seed)
    npts = rng.randrange(5, 80)
    masks = []
    for _ in range(rng.randrange(3, 40)):
        m = 0
        for _ in range(rng.randrange(1, 6)):
            m |= 1 << rng.randrange(npts)
        masks.append(m)
    return npts, masks


LINE_CASES = {seed: random_lines(seed) for seed in range(6)}
# the two lines meet in 4 points, 2 of them past the first 64, so the size
# in the witness (0, 1, 4) is wrong if the count stops early
LINE_CASES["count past one word"] = (
    71, [0b11 | 1 << 64 | 1 << 65, 0b11 | 1 << 64 | 1 << 65 | 1 << 70])
# 100 points leave the last word partly unused; the uncovered pair is (1, 99)
LINE_CASES["partial last word"] = (100, [(1 << 99) - 1, 1 | 1 << 99])


def _plane(gamma):
    return gamma.npoints, list(gamma.masks)


def _planes():
    """Projective planes whose lines meet pairwise once: the Fano plane,
    PG(2, 3) by coordinates, and the Singer developments of order 4 and 5."""
    planes = {"fano": _plane(geometry.pg_space(2, 2)),
              "pg(2,3)": _plane(geometry.pg_space(2, 3))}
    for q in (4, 5):
        G, S = diffsets.classical_singer(q, 2)
        planes[f"singer q={q}"] = _plane(
            geometry.plane_from_difference_set(G, S))
    return planes


def _mutations(npts, masks):
    """Near-planes: line 0 with its least point moved off it, the last
    line dropped, a middle line repeated, and an empty line appended."""
    first = masks[0] & -masks[0]
    off = next(1 << p for p in range(npts) if not masks[0] >> p & 1)
    mid = len(masks) // 2
    return {"point moved": [masks[0] - first + off] + masks[1:],
            "line dropped": masks[:-1],
            "line repeated": masks[:mid + 1] + masks[mid:],
            "empty line": masks + [0]}


# every line's intersections with the others add up to L - 1 = 3, as 2 + 1
# + 0: the sizes alone cannot tell it from a plane, the reach of point 0 can
LINE_CASES["sizes balance"] = (6, [0b010011, 0b100011, 0b011100, 0b101100])
# no pair of lines: the kernel says every pair meets once, and the scan
# finds no pair outside any range
LINE_CASES["one empty line"] = (3, [0])
# two equal one-point lines meet once; two disjoint lines not at all
LINE_CASES["one point twice"] = (3, [0b100, 0b100])
LINE_CASES["parallel"] = (4, [0b0011, 0b1100])

PLANES = _planes()
for name, (npts, masks) in PLANES.items():
    LINE_CASES[name] = (npts, masks)
    for kind, bad in _mutations(npts, masks).items():
        LINE_CASES[f"{name}, {kind}"] = (npts, bad)


@pytest.mark.parametrize("case", LINE_CASES)
def test_line_scan_parity(case):
    npts, masks = LINE_CASES[case]
    for lo, hi in [(1, 1), (0, 1), (0, 2), (0, 0), (2, 2)]:
        assert _backend.line_pair_witness(masks, lo, hi) == \
            oracle.line_pair_witness(masks, lo, hi)
    assert _backend.coverage_witness(npts, masks) == \
        oracle.coverage_witness(npts, masks)


@pytest.mark.parametrize("case", LINE_CASES)
def test_reach_decides_meet_once(case):
    _, masks = LINE_CASES[case]
    assert _backend.lines_meet_once(masks) is (
        oracle.line_pair_witness(masks, 1, 1) is None)


@pytest.mark.parametrize("name", PLANES)
def test_stars_decide_the_planes(name):
    npts, masks = PLANES[name]
    assert _backend.lines_meet_once(masks)
    # 1 is outside [2, 2]: the pairwise scan runs and finds the first pair
    assert _backend.line_pair_witness(masks, 2, 2) == (0, 1, 1)
    for kind, bad in _mutations(npts, masks).items():
        # the lines left after one is dropped still meet pairwise once
        assert _backend.lines_meet_once(bad) is (kind == "line dropped")


def test_stars_need_every_line_met():
    npts, masks = LINE_CASES["sizes balance"]
    assert not _backend.lines_meet_once(masks)
    assert _backend.line_pair_witness(masks, 1, 1) == (0, 1, 2)


def test_points_match_the_bit_loop():
    masks = [0, 1, 2, 1 << 63, 1 << 64, (1 << 64) - 1, 1 << 64 | 1 << 65,
             (1 << 130) - 1 - (1 << 64), 0b1011 << 200]
    for mask in masks:
        assert list(_backend._points(mask)) == [
            p for p in range(mask.bit_length()) if mask >> p & 1]


def test_backend_selected():
    assert _backend.BACKEND == "python"
    w = _backend.assoc_witness(2, [[0b01, 0b10], [0b10, 0b11]])
    assert w is None
