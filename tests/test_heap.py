"""Importing ia_lab lets glibc keep freed heap for reuse.

A trial at L=275 allocates and frees about 12 MiB of temporaries. Here a
fresh process allocates and frees 24 MiB in blocks of 1 MiB twice: the
second round must reuse the first round's pages rather than fault in new
ones, as it would if the heap went back to the kernel in between.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHURN = """
import resource
import numpy as np
import ia_lab

def churn():
    blocks = [np.ones(1 << 17) for _ in range(24)]
    del blocks

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not glibc(), reason="the allocator setting applies to glibc only")
def test_freed_heap_is_reused_without_page_faults():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", CHURN], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    # 24 MiB faulted in anew would be about 6000 faults
    assert int(out) < 200
