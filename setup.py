from setuptools import Extension, setup

# optional: without a C compiler the package still installs, and
# singer._backend falls back to the pure-Python kernels
setup(ext_modules=[Extension("singer._kernels", ["src/singer/_kernels.c"],
                             optional=True)])
