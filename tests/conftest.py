"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext
from setuptools.errors import BaseError, CCompilerError

from singer import _kernels_py


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernels: the importable build if there is one, else
    `_kernels.c` built into a temporary directory.  Skips only when that
    build fails."""
    try:
        from singer import _kernels
        return _kernels
    except ImportError:
        pass
    src = Path(_kernels_py.__file__).with_name("_kernels.c")
    tmp = tmp_path_factory.mktemp("kernels")
    cmd = build_ext(Distribution({"ext_modules": [
        Extension("singer._kernels", [str(src)])]}))
    cmd.build_lib, cmd.build_temp = str(tmp / "lib"), str(tmp / "temp")
    try:
        cmd.ensure_finalized()
        cmd.run()
    except (BaseError, CCompilerError) as exc:
        pytest.skip(f"cannot build the compiled kernels: {exc}")
    spec = importlib.util.spec_from_file_location(
        "singer._kernels", cmd.get_ext_fullpath("singer._kernels"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
