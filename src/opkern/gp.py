"""Seeded sampling of Hilbert-space-valued Gaussian processes whose
cross-covariances are given by the operator-valued kernel, plus empirical
covariance recovery checks and batch export."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .gram import factorize
from .kernels import read_only
from .reprcsv import write_csv
from .rkhs import RkhsContext

__all__ = [
    "SampleBatch",
    "CovErrorReport",
    "sample_paths",
    "empirical_covariance",
    "covariance_error_report",
    "batch_to_csv",
    "batch_to_binary",
    "batch_from_binary",
]

BINARY_MAGIC = b"OPKGP3"  # stream v3; v1 and v2 files share the layout
_READABLE_MAGICS = (b"OPKGP1", b"OPKGP2", BINARY_MAGIC)
MC_SIGMA_FACTOR = 4.0
# Raw Philox words drawn per chunk of paths: keeps the scratch arrays of
# sample_paths at a few hundred kB whatever the batch size.
CHUNK_WORDS = 1 << 15


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """N seeded zero-mean Gaussian paths over the context sites.

    ``paths`` has shape (N, n, d); path p is L z_p with L the Gram's factor
    (see ``factorize``) and z_p drawn from path p's own counter blocks of
    the Philox stream keyed by ``seed`` (stream v3, see ``sample_paths``).
    Regeneration is bitwise identical, and a larger ``count`` extends a
    smaller one.
    """

    context: RkhsContext
    seed: int
    paths: np.ndarray

    count = property(lambda self: len(self.paths))

    @property
    def target_covariance(self) -> np.ndarray:
        """G + eps*I with the jitter actually used by the factorization."""
        g = self.context.gram
        return g.data + g.jitter_used * np.eye(g.size)


@dataclass(frozen=True, eq=False)
class CovErrorReport:
    """The empirical covariance's largest entry error against its Monte
    Carlo tolerance; it passes when max_abs_err <= mc_tolerance < inf."""

    max_abs_err: float
    per_block_err: np.ndarray  # n x n, max abs error within each block; read-only
    mc_tolerance: float

    pass_ = property(lambda self: self.max_abs_err <= self.mc_tolerance < math.inf)


def _path_words(nd: int) -> int:
    """Raw words per path: nd rounded up to whole 4-word Philox blocks."""
    return -(-nd // 4) * 4


def _uniforms(words: np.ndarray) -> np.ndarray:
    """((x >> 11) + 0.5) * 2**-53: the top 53 bits of each word, centred in
    their cell, so never 0."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _normals(seed: int, first: int, count: int, nd: int) -> np.ndarray:
    """Standard normals of paths first..first+count-1, shape (count, nd).

    Path p owns the raw words [p*w, (p+1)*w) of the stream
    Philox(key=seed), w = nd rounded up to a multiple of 4, so every path
    starts on a counter block.  Each word pair (x, y) gives the Box-Muller
    normals r cos(2 pi v), r sin(2 pi v) with u, v the uniforms of x, y and
    r = sqrt(-2 ln u).  The cosine and sine come from h = tan(pi v) as
    (1 - h^2, 2h) / (1 + h^2): one vectorised tan in place of cos and sin.
    The first nd of the w normals are kept.
    """
    w = _path_words(nd)
    words = np.random.Philox(key=seed, counter=first * w // 4).random_raw(count * w)
    pairs = words.reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log(_uniforms(pairs[:, 0])))
    h = np.tan(np.pi * _uniforms(pairs[:, 1]))
    h2 = h * h
    s = r / (1.0 + h2)
    z = np.empty(pairs.shape)
    np.multiply(1.0 - h2, s, out=z[:, 0])
    np.multiply(2.0 * h, s, out=z[:, 1])
    return z.reshape(count, w)[:, :nd]


def sample_paths(ctx: RkhsContext, count: int, seed: int = 0) -> SampleBatch:
    """Draw ``count`` paths as L z with L L^T = G + eps*I.

    Reads the context Gram's factor through ``factorize`` (raising on
    indefinite matrices).  Stream v3: one Philox stream keyed by ``seed`` in
    [0, 2**64), its own counter blocks per path, Box-Muller normals (see
    ``_normals``), one ``Z @ L.T`` per chunk of about CHUNK_WORDS normals,
    with L the channel factor ``factorize`` gives (the Cholesky factor for
    a one-channel Gram).  Stream v2 drew the same normals but always took
    the dense Cholesky factor.
    Every chunk, the last included, has the full row count: BLAS rounding
    can depend on the row count (one row takes the matrix-vector path),
    and a fixed shape keeps path p independent of ``count``, so a longer
    batch extends a shorter one bitwise.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    seed = int(seed)
    gram = ctx.gram
    L = factorize(gram).factor
    nd = gram.size
    per_chunk = max(1, CHUNK_WORDS // _path_words(nd))
    paths = np.empty((count, nd))
    for start in range(0, count, per_chunk):
        block = _normals(seed, start, per_chunk, nd) @ L.T
        stop = min(start + per_chunk, count)
        paths[start:stop] = block[: stop - start]
    return SampleBatch(ctx, seed, read_only(paths.reshape(count, gram.n, gram.d)))


def empirical_covariance(batch: SampleBatch) -> np.ndarray:
    """Second-moment blocks C[i][j] = mean over paths of f_i f_j^T.

    No mean subtraction: the process is centered by construction.  Returns
    shape (n, n, d, d); summation order is the fixed matmul reduction, so
    results are reproducible.
    """
    n, d = batch.context.n, batch.context.d
    flat = batch.paths.reshape(batch.count, n * d)
    emp = flat.T @ flat / batch.count
    return emp.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def covariance_error_report(batch: SampleBatch) -> CovErrorReport:
    """Compare the empirical covariance against G + eps*I.

    The tolerance is four standard errors of the worst entry:
    4 * max_ij sqrt((T_ii T_jj + T_ij^2) / N) for the target matrix T.  A
    non-finite error or tolerance fails the gate.
    """
    n, d = batch.context.n, batch.context.d
    target = batch.target_covariance
    emp = empirical_covariance(batch).transpose(0, 2, 1, 3).reshape(n * d, n * d)
    err = np.abs(emp - target)
    diag = np.diag(target)
    # T * 2**-e with 2**e above the largest T_ii (T is PSD, so no |T_ij| is
    # larger): no square overflows, and as the scaling is exact, a tolerance
    # that is finite unscaled comes out bitwise the same
    scale = 2.0 ** -max(math.frexp(float(np.abs(diag).max()))[1], 0)
    var = target * scale
    np.square(var, out=var)
    var += np.outer(diag * scale, diag * scale)
    mc_tol = MC_SIGMA_FACTOR * float(np.sqrt(var.max() / batch.count)) / scale
    per_block = err.reshape(n, d, n, d).max(axis=(1, 3))
    max_err = float(err.max())
    return CovErrorReport(max_err, read_only(per_block), mc_tol)


# ---------------------------------------------------------------------------
# Export


def batch_to_csv(batch: SampleBatch, path) -> None:
    """One row per path, n*d columns; header embeds seed and context hash."""
    header = ["# seed", batch.seed, "count", batch.count, "context", batch.context.context_hash()]
    write_csv(path, header, batch.paths.reshape(batch.count, -1))


def batch_to_binary(batch: SampleBatch, path) -> None:
    """Compact layout: magic OPKGP3 (stream v3), little-endian u64 seed,
    u32 N/n/d, then N*n*d float64 values."""
    n, d = batch.context.n, batch.context.d
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QIII", batch.seed, batch.count, n, d))
        fh.write(np.ascontiguousarray(batch.paths, dtype="<f8"))  # no copy if already so


def batch_from_binary(path):
    """Read back (seed, paths) from the binary layout; shape (N, n, d).

    Reads OPKGP3 and the identically laid out OPKGP2 (stream v2) and
    OPKGP1 (stream v1) files.
    """
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic not in _READABLE_MAGICS:
            raise ValueError(f"bad magic {magic!r}")
        header, body = fh.read(20), fh.read()
    if len(header) < 20:
        raise ValueError("truncated batch file")
    seed, count, n, d = struct.unpack("<QIII", header)
    if len(body) != 8 * count * n * d:
        raise ValueError("truncated batch file")
    return seed, np.frombuffer(body, dtype="<f8").reshape(count, n, d)
