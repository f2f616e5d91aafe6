"""Compare the compiled kernels against the pure-Python fallback.

Run:  python3 benchmarks/bench_kernels.py [carrier_size]

Times the cubic hyperaddition scans (associativity/distributivity) on a
quotient table and a synthetic associative table, and the line scans on
the plane of order 9 and on that plane with one point of a line moved.  On
the plane the pure-Python line-pair kernel accepts from the point stars;
on the moved one it falls back to the pairwise scan, as the compiled one
always does.  Checks that both backends return identical witnesses.
"""

import os
import sys
import time

# run from a source checkout without installing the package
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from singer import _kernels_py  # noqa: E402
from singer import hyper, geometry, diffsets  # noqa: E402
from singer.groups import Cyclic  # noqa: E402

try:
    from singer import _kernels
except ImportError:
    _kernels = None


def _time(fn, *args, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_pair(name, fn_name, *args):
    py_t, py_out = _time(getattr(_kernels_py, fn_name), *args)
    if _kernels is None:
        print(f"{name:<36} python {py_t * 1e3:9.2f} ms   (no compiled build)")
        return
    c_t, c_out = _time(getattr(_kernels, fn_name), *args)
    assert py_out == c_out, f"{name}: backends disagree ({py_out} vs {c_out})"
    speedup = py_t / c_t if c_t else float("inf")
    print(f"{name:<36} python {py_t * 1e3:9.2f} ms   "
          f"c {c_t * 1e3:9.2f} ms   x{speedup:,.1f}")


def main():
    # single-line group algebra: dense rows, associative, so the scans
    # run to completion instead of stopping at an early witness
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    T = hyper.k_algebra(Cyclic(n - 1))
    bench_pair(f"assoc (group algebra, c={T.n})", "assoc_witness",
               T.n, T.hyperadd)
    bench_pair(f"distrib (group algebra, c={T.n})", "distrib_witness",
               T.n, T.hyperadd, T.mul)

    Q = hyper.field_quotient_table(5, 3)
    bench_pair(f"assoc (quotient, c={Q.n})", "assoc_witness",
               Q.n, Q.hyperadd)
    bench_pair(f"distrib (quotient, c={Q.n})", "distrib_witness",
               Q.n, Q.hyperadd, Q.mul)

    G, pds = diffsets.classical_singer(9, 2)  # plane of order 9: 91 lines
    gamma = geometry.plane_from_difference_set(G, pds)
    bench_pair("line pairs (plane order 9)", "line_pair_witness",
               gamma.masks, 1, 1)
    # line 0 with its least point moved to the least point off it
    m0 = gamma.masks[0]
    off = ~m0 & (m0 + 1)
    moved = [m0 - (m0 & -m0) + off] + gamma.masks[1:]
    bench_pair("line pairs (order 9, point moved)", "line_pair_witness",
               moved, 1, 1)
    bench_pair("coverage (plane order 9)", "coverage_witness",
               gamma.npoints, gamma.masks)


if __name__ == "__main__":
    main()
