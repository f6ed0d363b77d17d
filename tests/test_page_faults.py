"""The chunk loops of the sampler and the CSV writer run in scratch
allocated once per call, and certifying a Gram allocates only the arrays it
keeps.  With glibc's mmap threshold pinned at 1 MiB, as the benchmark pins
it, temporaries allocated afresh went back to the operating system when
freed and were faulted in again: a warm CSV write or sampler call took
9k-15k minor page faults where these bounds allow about 1k, and a warm
certify of two n = 130, d = 8 Grams about 6k."""

import ctypes
import json
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


# name: (set-up, call, bound), each Python source run by MEASURE.  The call
# is an expression; its value is ``result``, which the bound may read, with
# ``pages(*arrays)``: the pages of the distinct buffers that hold them.
CASES = {
    # 200,000 values in 49 chunks
    "csv": (
        "matrix = np.random.default_rng(0).standard_normal((10_000, 20))",
        "reprcsv.write_csv(os.devnull, ['# header'], matrix)",
        "1000",
    ),
    # 10,000 paths at n*d = 200 in 25 chunks; the 16 MB of paths are new
    "sample": (
        "ctx = rkhs.make_context(make_kernel('normalized(inner=separable("
        "B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)))'), np.linspace(0, 25, 100)[:, None])",
        "gp.sample_paths(ctx, 10_000, seed=3)",
        "pages(result.paths) + 1000",
    ),
    # make_context -> factorize -> onb_expansion on a Gram with 8 equal
    # channels and on one with 8 distinct channels and a dense basis, at
    # n = 130; what is kept is the channels, the distinct eigenvectors and
    # channel factors, and the expansion's coefficients
    "certify": (
        "rng = np.random.default_rng(7)\n"
        "A = rng.standard_normal((8, 8))\n"
        "B = A @ A.T / 8 + 0.5 * np.eye(8)\n"
        "B = repr((0.5 * (B + B.T)).tolist()).replace(' ', '')\n"
        "texts = ['gauss(sigma=1,ell=1,dim=8)', f'separable(B={B},base=gauss(sigma=1,ell=1))']\n"
        "sites = np.linspace(0, 25, 130)[:, None]\n"
        "def certify(text):\n"
        "    ctx = rkhs.make_context(make_kernel(text), sites)\n"
        "    g = gram.factorize(ctx.gram)\n"
        "    coeffs = rkhs.onb_expansion(ctx, 1e-12)[0].coeffs\n"
        "    return g.channels, g.spectrum.vectors, g._accepted(0), coeffs",
        "[array for text in texts for array in certify(text)]",
        "pages(*result) + 1000",
    ),
}

# Minor page faults over one warm call, the mmap threshold pinned first;
# prints [faults, bound]
MEASURE = """
import ctypes, json, os, resource, sys
assert ctypes.CDLL("libc.so.6").mallopt(-3, 1 << 20) == 1  # M_MMAP_THRESHOLD
import numpy as np
from opkern import gp, gram, reprcsv, rkhs
from opkern.kernels import make_kernel

def pages(*arrays):
    owners = {}
    for array in arrays:
        while array.base is not None:
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values()) // os.sysconf("SC_PAGE_SIZE")

setup, call, bound = json.loads(sys.argv[1])
exec(setup)
eval(call)  # the tables, the factor and the heap's first growth
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = eval(call)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([faults, eval(bound)]))
"""


def warm_faults(case: str) -> tuple[int, int]:
    """(minor faults of one warm call of a CASES entry, its bound), measured
    in a fresh process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(opkern.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", MEASURE, json.dumps(CASES[case])], env=env,
                         capture_output=True, text=True, check=True)
    faults, bound = json.loads(out.stdout)
    return faults, bound


pytestmark = pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")


def test_csv_writer_chunks_fault_no_pages():
    faults, bound = warm_faults("csv")
    assert faults < bound


def test_sampler_chunks_fault_only_the_output():
    faults, bound = warm_faults("sample")
    assert faults < bound


def test_certify_faults_only_what_it_keeps():
    faults, bound = warm_faults("certify")
    assert faults < bound
