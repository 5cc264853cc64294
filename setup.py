from setuptools import Extension, setup

# The compiled kernels (the SISO closed loop, the cart-pendulum dynamics and
# the CSV log's body codec) are an optional speedup: without a C compiler
# the install still succeeds and the package falls back to the pure-Python
# twin at import time.  No compile flag is needed for the same bits as the
# Python twin: _kernels.c forbids fused multiply-adds itself, with a pragma.
setup(
    ext_modules=[
        Extension(
            "mfclab._kernels",
            ["src/mfclab/_kernels.c"],
            optional=True,
        )
    ]
)
