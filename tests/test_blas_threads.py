"""The suite runs numpy's BLAS on one thread, which ``conftest.py`` sets
before numpy starts: OpenBLAS's spinning threads stall a run that shares its
cores with other work."""

import ctypes
import pathlib

import numpy as np
import pytest


def openblas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None where
    numpy bundles none that exports it."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def test_the_suite_runs_blas_on_one_thread():
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS that reports its thread count")
    assert threads == 1
