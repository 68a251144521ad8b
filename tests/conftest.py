"""Import cauchylab before any test module imports numpy: cauchylab sets
one OpenBLAS thread before numpy loads it, so the in-process evaluator
calls of the tests run the BLAS setup the command line gets."""

import cauchylab  # noqa: F401
