"""Kernel backend: the compiled extension `singer._kernels` if it was
built, else the pure-Python reference kernels in `singer._kernels_py`."""

try:
    from . import _kernels as _impl
    BACKEND = "c"
except ImportError:
    from . import _kernels_py as _impl
    BACKEND = "python"

assoc_witness = _impl.assoc_witness
distrib_witness = _impl.distrib_witness
line_pair_witness = _impl.line_pair_witness
coverage_witness = _impl.coverage_witness
