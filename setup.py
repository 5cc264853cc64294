from setuptools import Extension, setup

# The compiled kernels (the SISO closed loop, the cart-pendulum dynamics and
# the CSV log's body codec) are an optional speedup: without a C compiler
# the install still succeeds and the package falls back to the pure-Python
# twin at import time.  -ffp-contract=off (gcc/clang) keeps a*b + c from
# being fused into one multiply-add on FMA targets such as aarch64, which
# would round differently from the Python twin.
setup(
    ext_modules=[
        Extension(
            "mfclab._kernels",
            ["src/mfclab/_kernels.c"],
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        )
    ]
)
