"""Backend parity: the compiled kernels and the pure-Python fallback must
return identical witnesses on identical inputs."""

import random

import pytest

from singer import _kernels_py
from singer import _backend, diffsets, geometry


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


@pytest.mark.parametrize("n,seed,sparse", [(5, 0, True), (9, 1, True),
                                           (16, 2, False), (33, 3, True),
                                           (70, 4, False), (130, 5, True)])
def test_assoc_distrib_parity(compiled, n, seed, sparse):
    rows, mul = random_instance(n, seed, sparse)
    assert compiled.assoc_witness(n, rows) == \
        _kernels_py.assoc_witness(n, rows)
    assert compiled.distrib_witness(n, rows, mul) == \
        _kernels_py.distrib_witness(n, rows, mul)


def test_parity_on_associative_table(compiled):
    # hyperaddition of the 14-class quotient table passes both scans
    from singer import hyper
    T = hyper.field_quotient_table(3, 3)
    assert compiled.assoc_witness(T.n, T.hyperadd) is None
    assert _kernels_py.assoc_witness(T.n, T.hyperadd) is None
    assert compiled.distrib_witness(T.n, T.hyperadd, T.mul) is None
    assert _kernels_py.distrib_witness(T.n, T.hyperadd, T.mul) is None


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
# + 0: the sizes alone cannot tell it from a plane, the union of stars can
LINE_CASES["sizes balance"] = (6, [0b010011, 0b100011, 0b011100, 0b101100])

PLANES = _planes()
for name, (npts, masks) in PLANES.items():
    LINE_CASES[name] = (npts, masks)
    for kind, bad in _mutations(npts, masks).items():
        LINE_CASES[f"{name}, {kind}"] = (npts, bad)


@pytest.mark.parametrize("case", LINE_CASES)
def test_line_scan_parity(compiled, case):
    npts, masks = LINE_CASES[case]
    for lo, hi in [(1, 1), (0, 1), (0, 2), (0, 0), (2, 2)]:
        assert compiled.line_pair_witness(masks, lo, hi) == \
            _kernels_py.line_pair_witness(masks, lo, hi)
    assert compiled.coverage_witness(npts, masks) == \
        _kernels_py.coverage_witness(npts, masks)


@pytest.mark.parametrize("name", PLANES)
def test_stars_decide_the_planes(name):
    npts, masks = PLANES[name]
    assert _kernels_py.lines_meet_once(masks)
    # 1 is outside [2, 2]: the pairwise scan runs and finds the first pair
    assert _kernels_py.line_pair_witness(masks, 2, 2) == (0, 1, 1)
    for kind, bad in _mutations(npts, masks).items():
        # the lines left after one is dropped still meet pairwise once
        assert _kernels_py.lines_meet_once(bad) is (kind == "line dropped")


def test_stars_need_every_line_met():
    npts, masks = LINE_CASES["sizes balance"]
    assert not _kernels_py.lines_meet_once(masks)
    assert _kernels_py.line_pair_witness(masks, 1, 1) == (0, 1, 2)


def test_points_match_the_bit_loop():
    masks = [0, 1, 2, 1 << 63, 1 << 64, (1 << 64) - 1, 1 << 64 | 1 << 65,
             (1 << 130) - 1 - (1 << 64), 0b1011 << 200]
    for mask in masks:
        assert list(_kernels_py._points(mask)) == [
            p for p in range(mask.bit_length()) if mask >> p & 1]


def test_backend_selected():
    assert _backend.BACKEND in ("c", "python")
    w = _backend.assoc_witness(2, [[0b01, 0b10], [0b10, 0b11]])
    assert w is None
