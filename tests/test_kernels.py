"""Backend parity: the compiled kernels and the pure-Python fallback must
return identical witnesses on identical inputs."""

import random

import pytest

from singer import _kernels_py
from singer import _backend


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


@pytest.mark.parametrize("case", LINE_CASES)
def test_line_scan_parity(compiled, case):
    npts, masks = LINE_CASES[case]
    for lo, hi in [(1, 1), (0, 1), (0, 2)]:
        assert compiled.line_pair_witness(masks, lo, hi) == \
            _kernels_py.line_pair_witness(masks, lo, hi)
    assert compiled.coverage_witness(npts, masks) == \
        _kernels_py.coverage_witness(npts, masks)


def test_backend_selected():
    assert _backend.BACKEND in ("c", "python")
    w = _backend.assoc_witness(2, [[0b01, 0b10], [0b10, 0b11]])
    assert w is None
