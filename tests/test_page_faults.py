"""The chunk loops of the sampler and the CSV writer run in scratch
allocated once per call.  With glibc's mmap threshold pinned at 1 MiB, as
the benchmark pins it, temporaries allocated afresh for every chunk went
back to the operating system when freed and were faulted in again by the
next chunk: a warm call took 9k-15k minor page faults where these bounds
allow about 1k."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opkern


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL("libc.so.6"), "mallopt")
    except OSError:
        return False


# Minor page faults over one warm call, the mmap threshold pinned first
MEASURE = """
import ctypes, os, resource, sys
assert ctypes.CDLL("libc.so.6").mallopt(-3, 1 << 20) == 1  # M_MMAP_THRESHOLD
import numpy as np
from opkern import gp, reprcsv, rkhs
from opkern.kernels import make_kernel

if sys.argv[1] == "csv":
    matrix = np.random.default_rng(0).standard_normal((10_000, 20))
    call = lambda: reprcsv.write_csv(os.devnull, ["# header"], matrix)
else:
    kernel = make_kernel("normalized(inner=separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)))")
    ctx = rkhs.make_context(kernel, np.linspace(0, 25, 100)[:, None])
    call = lambda: gp.sample_paths(ctx, 10_000, seed=3)
call()  # the tables, the factor and the heap's first growth
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def warm_faults(what: str) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(opkern.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", MEASURE, what], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


pytestmark = pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")


def test_csv_writer_chunks_fault_no_pages():
    # 200,000 values in 49 chunks
    assert warm_faults("csv") < 1000


def test_sampler_chunks_fault_only_the_output():
    # 10,000 paths at n*d = 200 in 25 chunks; the 16 MB of paths are new
    output_pages = 10_000 * 200 * 8 // os.sysconf("SC_PAGE_SIZE")
    assert warm_faults("sample") < output_pages + 1000
