from setuptools import Extension, setup

# The compiled kernels are an optional speedup: without a C compiler the
# install still succeeds and the package falls back to the pure-Python
# kernels at import time.
setup(ext_modules=[Extension("mfclab._kernels", ["src/mfclab/_kernels.c"], optional=True)])
