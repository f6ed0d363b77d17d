"""Pinned outputs: a SHA-256 digest of each thing the library computes for
every square kernel of the zoo on a few grids and for three raw matrices.
A change meant to keep every output bit for bit runs this unchanged; one
that moves an output shows which.  The digests are the first 16 hex digits
of each output's SHA-256.  They were made with numpy 2.4.6 and its
bundled OpenBLAS 0.3.31 on x86-64; another BLAS may round differently.  Regenerate them only for a change that means to alter
outputs, and say which in its notes:

    PYTHONPATH=src python tests/test_outputs_pinned.py

prints the DRIFTS and PINNED tables to paste over the ones below, and

    PYTHONPATH=src python tests/test_outputs_pinned.py --moved

prints, as a Markdown table of pinned -> now, only the outputs and drifts
that differ from them.

BENCH_PINNED holds the same kind of pins for the Grams the benchmark itself
builds at its seed 7 (``perfbench/workloads.py``), so that keeping the
benchmark's numeric work bit for bit is a test of its own; the printer
prints that table too.
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from opkern.gp import sample_paths
from opkern.gram import GramError, assemble_gram, factorize, gram_to_csv, raw_gram
from opkern.kernels import make_kernel
from opkern.rkhs import RkhsContext, TransformFamily, make_context, verify_identities

from helpers import load_perfbench

# tests/test_gram.py's SQUARE_KERNELS: every square spec of the zoo
SQUARE_KERNELS = [
    "gauss(sigma=1,ell=1,dim=1)",
    "gauss(sigma=2,ell=0.5,dim=3)",
    "diagexp3",
    "separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))",
    "normalized(inner=gauss(sigma=3,ell=1,dim=2))",
    "gauss(sigma=1.5,ell=1,dim=8)",
    "rational2",
    "separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7)))",
    "normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8)))",
    "normalized(inner=normalized(inner=diagexp3))",
]
SITE_COUNTS = (1, 2, 5, 30)


def _raw(kernel: str, n: int, build) -> tuple[str, int, np.ndarray]:
    nd = n * make_kernel(kernel).dim_h
    return kernel, n, build(np.random.default_rng(nd), nd)


def _spd(rng, nd):
    A = rng.standard_normal((nd, nd))
    return A @ A.T + nd * np.eye(nd)


def _low_rank_asymmetric(rng, nd):
    A = rng.standard_normal((nd, 2))
    return A @ A.T + np.eye(nd) + 1e-9 * rng.standard_normal((nd, nd))


# (kernel, n, matrix): PSD raw matrices, so each one's largest |entry| is
# on its diagonal
RAW = {
    "raw-spd": _raw("diagexp3", 2, _spd),
    "raw-ones": _raw("gauss(sigma=1,ell=1,dim=1)", 4, lambda rng, nd: np.ones((nd, nd))),
    "raw-asym": _raw("gauss(sigma=1,ell=1,dim=2)", 3, _low_rank_asymmetric),
}

OUTPUTS = ("G", "factor", "eigenvalues", "vectors", "jitter_used", "gram.csv",
           "sample_paths", "residuals")


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _failure(exc: Exception) -> bytes:
    return f"{type(exc).__name__}: {exc}".encode()


def outputs(kernel, gram) -> dict[str, bytes]:
    """Every pinned output of a Gram of ``kernel``, as bytes; an output
    that raises is its exception's class and message."""
    out = {"G": _bits(gram.data), "eigenvalues": _bits(gram.spectrum.eigenvalues),
           "vectors": _bits(gram.spectrum.vectors)}
    try:
        factorize(gram)
        out["factor"] = _bits(gram.factor)
        out["jitter_used"] = float.hex(gram.jitter_used).encode()
    except ValueError as exc:
        out["factor"] = out["jitter_used"] = _failure(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gram.csv"
        gram_to_csv(gram, path)
        out["gram.csv"] = path.read_bytes()
    ctx = RkhsContext(kernel=kernel, gram=gram)
    try:
        out["sample_paths"] = _bits(sample_paths(ctx, 200, seed=3).paths)
    except ValueError as exc:
        out["sample_paths"] = _failure(exc)
    rng = np.random.default_rng(5)
    fam = TransformFamily(ctx, rng.standard_normal((ctx.n, ctx.d, ctx.d)))
    report = verify_identities(ctx, fam, trials=10, seed=11)
    out["residuals"] = " ".join(f"{name}={float.hex(v)}" for name, v in report.residuals.items()).encode()
    return out


def build(case: str):
    """(kernel, Gram) of a case."""
    if case in RAW:
        text, n, matrix = RAW[case]
        kernel = make_kernel(text)
        gram = raw_gram(kernel, np.linspace(0.0, 3.0, n)[:, None], matrix)
    else:
        text, n = case.rsplit(" n=", 1)
        kernel = make_kernel(text)
        gram = assemble_gram(kernel, np.linspace(0.0, 3.0, int(n))[:, None])
    return kernel, gram


def digests(case: str) -> tuple[str, ...]:
    out = outputs(*build(case))
    return tuple(_digest(out[name]) for name in OUTPUTS)


CASES = [f"{k} n={n}" for k in SQUARE_KERNELS for n in SITE_COUNTS] + list(RAW)

PINNED = {
    'gauss(sigma=1,ell=1,dim=1) n=1': (
        '6c3c396ed6b5c36d', '6c3c396ed6b5c36d', '6c3c396ed6b5c36d', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', 'be61a17aa9432fed', '5b55806fddb55767', 'aacba1ea5642be45',
    ),
    'gauss(sigma=1,ell=1,dim=1) n=2': (
        'cd62862259c700b7', '05abdd90ae6c3567', 'bb8973b1a21d95ce', 'c3b7664aebf8e7b9',
        '9ebe86bf8c4147a0', 'dab2695e305a5f20', 'a2ba334e74b4ef9d', '4ac1edfb6dd79796',
    ),
    'gauss(sigma=1,ell=1,dim=1) n=5': (
        'd0dd69a458dc9992', 'e7a90e794841febf', '997c8436356bcd8e', '8804b693931532e3',
        '9ebe86bf8c4147a0', '331a5ef1aa0518c3', '2cc6f59f333ae1ed', '8efaee92a18c7781',
    ),
    'gauss(sigma=1,ell=1,dim=1) n=30': (
        '7293135a94cc6e04', '10001d9aafdfcdd3', '3fe11ec8eebdb46d', '2bacc5288a16d8fd',
        'ae3c32c6f479fbd9', 'f913c9b906cfdf3f', 'e6774d639e5a8b5c', '1fd9ed30a1e9dfe0',
    ),
    'gauss(sigma=2,ell=0.5,dim=3) n=1': (
        'f53c1c235f97f7e7', '92ff045aa02b2f0b', '2f8d6b9407245a97', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', '6663792db598a80b', '2258ce1d4a78cc58', '890c3845eba17a44',
    ),
    'gauss(sigma=2,ell=0.5,dim=3) n=2': (
        'cf02e8aea938698f', '04564341e5340ab5', '38f9291c2202486a', 'c3b7664aebf8e7b9',
        '9ebe86bf8c4147a0', 'dd80b0fc50fba179', '72666ce4e62c7721', '2f04bff81658dcae',
    ),
    'gauss(sigma=2,ell=0.5,dim=3) n=5': (
        'f0dd47102b674213', '515c7e8e619fcfda', '9a80f0e9aa181481', '92698043167a85f4',
        '9ebe86bf8c4147a0', '77d9b0bc172d1113', '3923c4d9e348c0fd', '56f95d250568f70c',
    ),
    'gauss(sigma=2,ell=0.5,dim=3) n=30': (
        '5ba00c3c7b1874b6', '24b202d6c5399c63', '2157241417a17c11', 'fe31ebc76334794e',
        '3703665fa9ecb3e4', '42926c0b7597e21e', 'c73a22340483b320', '1d7b6d78f606afa7',
    ),
    'diagexp3 n=1': (
        '1332df685c45a61a', '1332df685c45a61a', 'cc143326a2646c60', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', '577c418ad10dc4a4', '96e99adada22c80b', 'f2834ae1ebe6520c',
    ),
    'diagexp3 n=2': (
        'e934eb1099b2a312', '758663e046fff85c', 'd37bf711279d2eb2', '53afdaaa567cb5f6',
        'ae3c32c6f479fbd9', 'c9c6f74bb799fb04', 'a32f4a01a489db01', '229aae5e7dd2dcbb',
    ),
    'diagexp3 n=5': (
        'c2387cbd0938554b', '47ae5e6452e51136', 'caaaf40c190aae60', '8db7f7366d48578d',
        'ae3c32c6f479fbd9', '5862400c14ed5552', '3d42296f28c03713', '0fbb9c4e772f2a72',
    ),
    'diagexp3 n=30': (
        'b5e7df1aa48556aa', 'b429eed9fb26bc11', '9082db61e685ac1f', '5fc07fb833041203',
        'ae3c32c6f479fbd9', 'ece0e512d4cfd64b', '91acbe115338747d', '1b9c819dc519efd4',
    ),
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=1': (
        '4ecf4c1d5f478a3b', '929a08cd32a220d2', '7a206cc43663f2d3', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', '28a059e0266670d3', '1d4243c7f1832d2e', '0a90c47965927629',
    ),
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=2': (
        '7308296422118671', '7bdb0f10b38421b0', 'bc2667f3a3194a79', 'c3b7664aebf8e7b9',
        '9ebe86bf8c4147a0', '87a3ea373a356913', 'ad3cf8c9e67e6a75', 'dfb9833f763ac291',
    ),
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=5': (
        '3b6f526f12c1ca6b', '85a762eaa9e16b1a', '1c229db34dcefcc6', '8804b693931532e3',
        '9ebe86bf8c4147a0', 'f1efdf44c363d9ea', '782bff7b32337fa9', '170fba1596d823a5',
    ),
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=30': (
        'aa171c361e9144bd', '4d8c2ff2eae96132', '10b32ec152ab1f5b', '2bacc5288a16d8fd',
        'f485a22435118691', 'e62d510b7da7149b', '3e97a66c2db58eb5', '019f94eda533e5e5',
    ),
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=1': (
        '7b38b86d9a7e6237', '7b38b86d9a7e6237', '5f07eef034c5a21f', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', '56276023740c09cf', '368d64fc1e9f7c6d', '70844f5d992c0e6d',
    ),
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=2': (
        '921c1e3e3961c199', '58a2eb2fa47fccbc', '3a51604169c83060', 'c3b7664aebf8e7b9',
        '9ebe86bf8c4147a0', '9a6fa14ffca142ca', '035cf4c7039dac0c', 'fa50c32ee06cfe2b',
    ),
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=5': (
        '4251fb47e68a0923', 'a3478a7625cdf219', '3bef005002d62287', '8804b693931532e3',
        '9ebe86bf8c4147a0', 'a8e7236c5e946f94', '78c7616ae647815e', '2dd0117b11659747',
    ),
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=30': (
        '9e3f025212f21e79', '334432ab06c277d8', 'b1f5941528575303', '62dfd1b1365e5229',
        'ae3c32c6f479fbd9', '1a89749af1eca2e2', '25ed677edd5abc7b', '4b141aa2012e80ba',
    ),
    'gauss(sigma=1.5,ell=1,dim=8) n=1': (
        '79f4a123f1cc3b3c', 'a63f993860c074c0', '936eb765090926cc', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', '9f8a7d90fc0b562b', '644e8897a8d64111', '2db743fec42a5b21',
    ),
    'gauss(sigma=1.5,ell=1,dim=8) n=2': (
        '6b820a58b7e23afd', 'a3cf171ab4493794', '9e6182b05aea4c09', 'c3b7664aebf8e7b9',
        '9ebe86bf8c4147a0', 'ff6b9c14be4bd4ef', '318f037495f06c31', '71528995571e7328',
    ),
    'gauss(sigma=1.5,ell=1,dim=8) n=5': (
        'f119200590ed123d', '45b02a0bd3bc07fd', '8a809215cd5a0a20', '0ac4eee2b47c715c',
        '9ebe86bf8c4147a0', 'fa5ce1b4c892a152', '056b22e871ba2c97', '0487964a277a4e3a',
    ),
    'gauss(sigma=1.5,ell=1,dim=8) n=30': (
        '7c2f05ca46e64b73', '1132858f7ff4c7a1', '0cfed757ecc25bfa', 'edbc3daebcae3b0e',
        '35efb3640ad1234b', 'cf1d497d9b851762', 'c96dbbe9809a461e', '47a3b920f2a1a741',
    ),
    'rational2 n=1': (
        '530dac87dfdd0769', '9dc95cc4f67b2216', 'd48b908d1d6ca42c', '5f07eef034c5a21f',
        '1e97cf3416a67d79', 'b3acaadd564c4944', '5478a080c12cb257', 'f4bf9bcac142815a',
    ),
    'rational2 n=2': (
        '29d8068ee352e17b', 'c13466e185699097', '515f3e99a3c84cc7', '4216fbb99724481b',
        'c13466e185699097', '677cfc0dd2b8391e', 'c13466e185699097', 'dac7089d9e608555',
    ),
    'rational2 n=5': (
        '6ec88487066a90f2', 'c13466e185699097', '5f0917374f40a767', '1e0725877128c6c9',
        'c13466e185699097', 'ba2016209a61e6d2', 'c13466e185699097', 'bd2a5a718392c2f0',
    ),
    'rational2 n=30': (
        '5c7e113bfca1a2ba', 'c13466e185699097', 'c05bb0067639a3d4', '672c6e75215a3b2c',
        'c13466e185699097', '4693d21db15a767a', 'c13466e185699097', 'acc3828a0cfdb36b',
    ),
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=1': (
        'b2bcef3c3f068214', '19bf54019fea117d', '98247b1a44b6fc1d', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', '263a6503857e4df6', 'c8a2aa769bd00b3c', '677be0b50adec49f',
    ),
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=2': (
        'b9d8b27747e869bb', '3fc6d0b0a8f709fe', '106aa66c37e5893b', 'c3b7664aebf8e7b9',
        '9ebe86bf8c4147a0', 'eac45bb7e4fbbaa6', '40332d8f150e8146', '10970c19b310311c',
    ),
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=5': (
        'fe970a5bc14b3dc0', 'b2f23b4ffa9f2f80', 'd4a9367c61505bb3', 'fa2ed499c679137f',
        '9ebe86bf8c4147a0', 'df6c2c26f91167d3', 'ae59cf39c0c78f45', '8ec6f178c0d5edf9',
    ),
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=30': (
        'a624be50bce960db', 'f506926f877a2b09', 'edaa2f52d2136851', 'bc6b6eb8e62ae5a6',
        'f485a22435118691', 'c7d602afdb7c1d3c', '7eb9f4e854c75dac', '40529bee97200039',
    ),
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=1': (
        'bd2d63b079b921e1', 'fd272ad1b287d5b8', '5f07eef034c5a21f', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', 'f0cd27341c3ea2a8', 'e711f7aa130dbd24', '383a8bec2c825253',
    ),
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=2': (
        'a0b6677700615273', 'b943ad801311f4a4', '0790f8b56d78eb60', 'c3b7664aebf8e7b9',
        '9ebe86bf8c4147a0', '4da6751856e49e4d', 'e1ee5f560c906d97', 'e1e87626492f48c2',
    ),
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=5': (
        'e0e82002af7db8e6', '18dfe6fca26477b0', '57c0abf14566a36a', '69b2a8f2025a1f47',
        '9ebe86bf8c4147a0', '4583f74c0ff91b7e', '7b7bc87223a5ac29', '7621fcb8e907b7f0',
    ),
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=30': (
        '676fbcabba688a22', '7ca9c282a79e3b73', 'f654b0287bf118ad', '96952f268b2c629c',
        '1e97cf3416a67d79', 'a2bc24cab1f6dd20', '113af90ac319d382', 'b45777bba9f295d0',
    ),
    'normalized(inner=normalized(inner=diagexp3)) n=1': (
        '1332df685c45a61a', '1332df685c45a61a', 'cc143326a2646c60', '6c3c396ed6b5c36d',
        '9ebe86bf8c4147a0', '577c418ad10dc4a4', '96e99adada22c80b', 'f2834ae1ebe6520c',
    ),
    'normalized(inner=normalized(inner=diagexp3)) n=2': (
        'e934eb1099b2a312', '758663e046fff85c', 'd37bf711279d2eb2', '53afdaaa567cb5f6',
        'ae3c32c6f479fbd9', 'c9c6f74bb799fb04', 'a32f4a01a489db01', '229aae5e7dd2dcbb',
    ),
    'normalized(inner=normalized(inner=diagexp3)) n=5': (
        'c2387cbd0938554b', '47ae5e6452e51136', 'caaaf40c190aae60', '8db7f7366d48578d',
        'ae3c32c6f479fbd9', '5862400c14ed5552', '3d42296f28c03713', '0fbb9c4e772f2a72',
    ),
    'normalized(inner=normalized(inner=diagexp3)) n=30': (
        'b5e7df1aa48556aa', 'b429eed9fb26bc11', '9082db61e685ac1f', '5fc07fb833041203',
        'ae3c32c6f479fbd9', 'ece0e512d4cfd64b', '91acbe115338747d', '1b9c819dc519efd4',
    ),
    'raw-spd': (
        '7268a68b6e8ff0f4', '261fe6ff1da1340c', 'b4a2cdd5ff8fa338', '8094c21a4fe83468',
        '9ebe86bf8c4147a0', 'c6a13f74fec06e3f', 'ea412a7d2f27eead', 'b82c95b98df49365',
    ),
    'raw-ones': (
        'dbd8ebb4d3647658', 'd9a82344f92a600d', 'b5dca36e5527f1fc', '30a05229aab0ec92',
        'ae3c32c6f479fbd9', '1ae37e161e17ad2a', '6d63bf4fa7fea562', '628537ce63ddcccb',
    ),
    'raw-asym': (
        '8ad343e40042a72d', 'cc435f994afd918c', '5c952a11e47d0c0a', '7c5c374cc4a34575',
        '9ebe86bf8c4147a0', 'bb753018e0cd097e', 'f2d822c3ef670ce0', '94064236822231ff',
    ),
}


# the cases of kernels with c >= 2 channels, whose drift is the rounding
# bound of their channel sum
DRIFT_CASES = [f"{k} n={n}" for k in SQUARE_KERNELS if make_kernel(k).dim_h > 1 for n in SITE_COUNTS]

DRIFTS = {
    'gauss(sigma=2,ell=0.5,dim=3) n=1': '0x1.e4cccccccccccp-48',
    'gauss(sigma=2,ell=0.5,dim=3) n=2': '0x1.56ce2c90d4639p-47',
    'gauss(sigma=2,ell=0.5,dim=3) n=5': '0x1.24fdde6c09c03p-46',
    'gauss(sigma=2,ell=0.5,dim=3) n=30': '0x1.cf5091fe6a6e3p-44',
    'diagexp3 n=1': '0x1.e4cccccccccccp-50',
    'diagexp3 n=2': '0x1.86474844e3544p-49',
    'diagexp3 n=5': '0x1.a5be57f979928p-48',
    'diagexp3 n=30': '0x1.40600ea87fd35p-45',
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=1': '0x1.63851eb851eb8p-49',
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=2': '0x1.e343f716c1dbap-49',
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=5': '0x1.16a349444488cp-47',
    'separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)) n=30': '0x1.c1bd3325d3056p-45',
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=1': '0x1.028f5c28f5c29p-50',
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=2': '0x1.6dae7eb5ddcdfp-50',
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=5': '0x1.9d3726f42ebddp-49',
    'normalized(inner=gauss(sigma=3,ell=1,dim=2)) n=30': '0x1.4b7887f2a4c6dp-46',
    'gauss(sigma=1.5,ell=1,dim=8) n=1': '0x1.6b99999999999p-46',
    'gauss(sigma=1.5,ell=1,dim=8) n=2': '0x1.011eb117dff4cp-45',
    'gauss(sigma=1.5,ell=1,dim=8) n=5': '0x1.228ac763b0dd6p-44',
    'gauss(sigma=1.5,ell=1,dim=8) n=30': '0x1.d2217f2d37b7ap-42',
    'rational2 n=1': '0x1.028f5c28f5c28p-50',
    'rational2 n=2': '0x1.8ea3f26f7f58cp-50',
    'rational2 n=5': '0x1.a134379606a26p-49',
    'rational2 n=30': '0x1.42febabebb5cbp-46',
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=1': '0x1.3e71d893b6083p-48',
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=2': '0x1.b55fb6093d832p-48',
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=5': '0x1.d9d98b68d3636p-47',
    'separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7))) n=30': '0x1.80b77d1247439p-44',
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=1': '0x1.028f5c28f5c28p-50',
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=2': '0x1.6da8c16e063d5p-50',
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=5': '0x1.b1de401f8830ap-49',
    'normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8))) n=30': '0x1.67ed0645135c1p-46',
    'normalized(inner=normalized(inner=diagexp3)) n=1': '0x1.e4cccccccccccp-50',
    'normalized(inner=normalized(inner=diagexp3)) n=2': '0x1.86474844e3544p-49',
    'normalized(inner=normalized(inner=diagexp3)) n=5': '0x1.a5be57f979928p-48',
    'normalized(inner=normalized(inner=diagexp3)) n=30': '0x1.40600ea87fd35p-45',
}


# case: (workload, the attribute holding its (spec, sites, ...)); every one
# is certified PSD and factored by the benchmark
BENCH_GRAMS = {
    "python_bound gauss n=200": ("python_bound", "gauss"),
    "python_bound diagexp3 n=80": ("python_bound", "diag"),
    "wide_blocks separable n=130": ("wide_blocks", "separable"),
    "wide_blocks gauss(dim=8) n=130": ("wide_blocks", "gauss"),
    "gp_paths library n=100": ("gp_paths", "lib"),
}
BENCH_SEED = 7
BENCH_OUTPUTS = ("G", "factor", "eigenvalues", "vectors", "sample_paths", "jitter_used", "drift",
                 "context_hash")


def bench_pins(case: str, out: Path) -> tuple[str, ...]:
    """BENCH_OUTPUTS of a benchmark Gram: digests of its arrays and of 100
    paths at seed 3, ``float.hex`` of its jitter and drift, and its
    context's ``context_hash``.  ``out`` is the workload's output directory,
    which building a Gram does not write."""
    name, attr = BENCH_GRAMS[case]
    workload = load_perfbench("workloads").WORKLOADS[name](seed=BENCH_SEED, smoke=False, out=out)
    spec, sites = getattr(workload, attr)[:2]
    ctx = make_context(make_kernel(spec), sites)
    gram = factorize(ctx.gram)
    arrays = (gram.data, gram.factor, gram.spectrum.eigenvalues, gram.spectrum.vectors,
              sample_paths(ctx, 100, seed=3).paths)
    return (*(_digest(_bits(a)) for a in arrays),
            float.hex(gram.jitter_used), float.hex(gram.spectrum.drift), ctx.context_hash())


BENCH_PINNED = {
    'python_bound gauss n=200': (
        'd36ef1acff7e2c74', 'b56576092fdb7a03', '149fb079c9200e9d', 'e5a15d6c1af7fce9',
        'ae55443c76fdeb05', '0x1.19799812dea11p-40', '0x0.0p+0', '1a8a94077ae9dcd5',
    ),
    'python_bound diagexp3 n=80': (
        'ef2ea930c7ce4f59', '625909992768bccb', '3d40e9eabc77d1f6', 'bd5ce8711f963c9b',
        'b40ed040479df2bb', '0x1.19799812dea11p-40', '0x1.5d418c76c5374p-44', 'e80d940f13202421',
    ),
    'wide_blocks separable n=130': (
        '9d60a06503b4b108', '28aeb48a4055e117', 'bc68756eb374ae66', 'cda1fc5d9f2368e7',
        '6932ff49d44002b5', '0x1.6ce0f5362cc34p-40', '0x1.0849c528b7dabp-41', '511f24166012e2fd',
    ),
    'wide_blocks gauss(dim=8) n=130': (
        '640bd7b7266ad8d7', 'efae35580a4bd0a8', '7e4b327eab26dfd4', '3c728fe646cff740',
        '822c1549aa2ad257', '0x1.19799812dea11p-40', '0x1.597c209ffd164p-42', 'bb9f66d3e5aa0508',
    ),
    'gp_paths library n=100': (
        '42ffa64bcc79019c', '0e3d14d7bbd583af', 'a278753108519c1a', 'eb35d4f04f582c8d',
        '8ad9f78ff9aba684', '0x1.19799812dea10p-40', '0x1.f7ea8a9a5a62cp-46', 'acf478d54edd244c',
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_keep_their_bits(case):
    moved = [name for name, got, want in zip(OUTPUTS, digests(case), PINNED[case]) if got != want]
    assert not moved, f"{case}: {moved} changed"


def test_pins_cover_every_case():
    assert list(PINNED) == CASES
    assert all(len(v) == len(OUTPUTS) for v in PINNED.values())


@pytest.mark.parametrize("case", DRIFT_CASES)
def test_channel_drift_keeps_its_bound(case):
    assert float.hex(build(case)[1].spectrum.drift) == DRIFTS[case]


def test_pins_cover_every_drift_case():
    assert list(DRIFTS) == DRIFT_CASES


@pytest.mark.parametrize("case", BENCH_GRAMS)
def test_benchmark_grams_keep_their_bits(case, tmp_path):
    moved = [name for name, got, want in zip(BENCH_OUTPUTS, bench_pins(case, tmp_path), BENCH_PINNED[case])
             if got != want]
    assert not moved, f"{case}: {moved} changed"


def test_pins_cover_every_benchmark_gram():
    assert list(BENCH_PINNED) == list(BENCH_GRAMS)
    assert all(len(v) == len(BENCH_OUTPUTS) for v in BENCH_PINNED.values())


class TestMovedOutputs:
    """The outputs that taking a one-channel G as its channel moved, each
    checked on its own; the pins above hold every other output."""

    @pytest.mark.parametrize("case", [f"{SQUARE_KERNELS[0]} n={n}" for n in SITE_COUNTS] + list(RAW))
    def test_one_channel_drift_is_zero(self, case):
        # G is its channel, so no rounding lies between them; the factor's
        # bound is its Cholesky residual alone
        g = factorize(build(case)[1])
        assert g.spectrum.drift == 0.0
        F, eps = g.factor, g.jitter_used
        assert g.factor_residual == np.abs(F @ F.T - (g.data + eps * np.eye(g.size))).max()

    def test_zero_one_channel_keeps_negative_zero(self):
        g = assemble_gram(make_kernel("separable(B=[[-0.0]],base=gauss(sigma=1,ell=1))"),
                          np.linspace(0.0, 3.0, 5)[:, None])
        assert np.all(g.data == 0.0) and np.all(np.signbit(g.data))

    def test_scale_is_the_largest_diagonal_entry(self):
        # max |G_ii|, below max |G_ij| = 3 for this indefinite raw matrix
        g = raw_gram(make_kernel("gauss(sigma=1,ell=1,dim=1)"), [[0.0], [1.0]], [[1.0, 3.0], [3.0, 2.0]])
        assert g.scale == 2.0

    def test_overflowing_one_channel_spectrum_refused(self):
        # every entry of G, its channel, is finite; the sum of its
        # eigenvalues is not
        with pytest.raises(GramError, match="^Gram spectrum overflows$"):
            assemble_gram(make_kernel("gauss(sigma=1e154,ell=1)"), np.linspace(0.0, 1.0, 5)[:, None])


def moved_rows():
    """(case, output, pinned, now) of every digest and drift that differs
    from its pin."""
    for case in CASES:
        for name, got, want in zip(OUTPUTS, digests(case), PINNED[case]):
            if got != want:
                yield case, name, want, got
        if case in DRIFTS:
            got, want = float.hex(build(case)[1].spectrum.drift), DRIFTS[case]
            if got != want:
                yield case, "drift", f"{want} ({float.fromhex(want):.3e})", f"{got} ({float.fromhex(got):.3e})"
    with tempfile.TemporaryDirectory() as tmp:
        for case in BENCH_GRAMS:
            for name, got, want in zip(BENCH_OUTPUTS, bench_pins(case, Path(tmp)), BENCH_PINNED[case]):
                if got != want:
                    yield f"benchmark {case}", name, want, got


def print_pins():
    print("DRIFTS = {")
    for case in DRIFT_CASES:
        print(f"    {case!r}: {float.hex(build(case)[1].spectrum.drift)!r},")
    print("}")
    print("PINNED = {")
    for case in CASES:
        d = digests(case)
        print(f"    {case!r}: (")
        for k in range(0, len(d), 4):
            print("        " + " ".join(f"{h!r}," for h in d[k:k + 4]))
        print("    ),")
    print("}")
    print("BENCH_PINNED = {")
    with tempfile.TemporaryDirectory() as tmp:
        for case in BENCH_GRAMS:
            pins = bench_pins(case, Path(tmp))
            print(f"    {case!r}: (")
            for k in range(0, len(pins), 4):
                print("        " + " ".join(f"{h!r}," for h in pins[k:k + 4]))
            print("    ),")
    print("}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the pinned tables, or what moved from them.")
    parser.add_argument("--moved", action="store_true",
                        help="print only the digests and drifts that differ from the pins")
    if parser.parse_args().moved:
        print("| case | output | pinned | now |\n|---|---|---|---|")
        for row in moved_rows():
            print("| " + " | ".join(f"`{cell}`" for cell in row) + " |")
    else:
        print_pins()
