"""Seeded sampling of Hilbert-space-valued Gaussian processes whose
cross-covariances are given by the operator-valued kernel, plus empirical
covariance recovery checks and batch export."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .gram import check_integer, check_seed, factorize, site_blocks
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
        return _target_rows(self.context.gram, slice(0, self.context.size))


def _target_rows(gram, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``rows`` of G + eps*I, entry for entry (-0.0 too), with no eye;
    into ``out`` where given."""
    T = np.add(gram.data[rows], 0.0, out=out, order="C")
    T.reshape(-1)[rows.start :: gram.size + 1] += gram.jitter_used
    return T


@dataclass(frozen=True, eq=False)
class CovErrorReport:
    """The empirical covariance's largest entry error against its Monte
    Carlo tolerance; it passes when max_abs_err <= mc_tolerance < inf.

    ``z_max`` is the largest standardized error max_ij |e_ij| / SE_ij, with
    SE_ij^2 = (T_ii T_jj + T_ij^2) / N the variance of an entry of the
    empirical covariance of N samples of target T.  An entry with no
    variance counts 0 if it has no error, else inf.  It is recorded, not
    gated: the gate allows 4 standard errors of the worst entry to every
    entry."""

    max_abs_err: float
    per_block_err: np.ndarray  # n x n, max abs error within each block; read-only
    mc_tolerance: float
    z_max: float

    pass_ = property(lambda self: self.max_abs_err <= self.mc_tolerance < math.inf)


def _box_muller(z: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite the uniforms z, word pairs (x, y) in its rows, with their
    Box-Muller normals; ``scratch`` holds two rows of one entry per pair.

    The steps and their order are those of stream v2: with r =
    sqrt(-2 ln u), h = tan(pi v) and s = r / (1 + h^2), the pair becomes
    ((1 - h^2) s, 2h s): (r cos 2 pi v, r sin 2 pi v) from one vectorised
    tan in place of cos and sin.  ``log`` and ``tan`` read contiguous
    arrays, as they always have, since numpy may take other code paths on
    strided ones.
    """
    x, y = z[:, 0], z[:, 1]
    u, v = scratch
    np.copyto(u, x)
    np.copyto(v, y)
    np.log(u, out=u)
    u *= -2.0
    np.sqrt(u, out=u)  # r
    v *= np.pi
    np.tan(v, out=v)  # h
    np.multiply(v, 2.0, out=y)  # 2h
    v *= v  # h^2
    np.add(v, 1.0, out=x)
    u /= x  # s
    np.subtract(1.0, v, out=v)
    np.multiply(v, u, out=x)
    y *= u


def sample_paths(ctx: RkhsContext, count: int, seed: int = 0) -> SampleBatch:
    """Draw ``count`` paths as L z with L L^T = G + eps*I.

    Reads the context Gram's factor through ``factorize`` (raising on
    indefinite matrices).  Stream v3: one Philox stream keyed by ``seed`` in
    [0, 2**64), its own counter blocks per path, Box-Muller normals, one
    ``Z @ L.T`` per chunk of about CHUNK_WORDS normals, with L the channel
    factor ``factorize`` gives (the Cholesky factor for a one-channel Gram).
    Stream v2 drew the same normals but always took the dense Cholesky
    factor.

    Path p owns the raw words [p*w, (p+1)*w) of the stream, w = nd rounded
    up to a multiple of 4, so every path starts on a counter block.  Each
    word pair gives two Box-Muller normals (see ``_box_muller``), and the
    first nd of the w normals are kept.

    Every chunk, the last included, has the full row count: BLAS rounding
    can depend on the row count (one row takes the matrix-vector path),
    and a fixed shape keeps path p independent of ``count``, so a longer
    batch extends a shorter one bitwise.
    The chunks run in buffers allocated once per call: chunks are
    consecutive runs of the stream, so one generator draws them all, and
    each chunk's product is written straight into its rows of the paths,
    which are allocated for whole chunks; the batch is their first
    ``count`` rows.  Allocated afresh for every chunk, the scratch went
    back to the operating system between chunks and was faulted in again.
    """
    count, seed = check_integer("count", count), check_seed(seed)
    if count < 1:
        raise ValueError("count must be >= 1")
    gram = ctx.gram
    LT = factorize(gram).factor.T
    nd = gram.size
    w = -(-nd // 4) * 4
    per_chunk = max(1, CHUNK_WORDS // w)
    gen = np.random.Generator(np.random.Philox(key=seed))
    z, scratch = np.empty(per_chunk * w), np.empty((2, per_chunk * w // 2))
    Z = z.reshape(per_chunk, w)[:, :nd]
    paths = np.empty((-(-count // per_chunk) * per_chunk, nd))
    for start in range(0, count, per_chunk):
        # gen.random gives (x >> 11) * 2**-53 for each raw word x; adding
        # 2**-54 gives stream v2's uniform ((x >> 11) + 0.5) * 2**-53 bit for
        # bit, as scaling by a power of two commutes with rounding to
        # nearest.  The uniform is never 0.
        gen.random(out=z)
        z += 2.0**-54
        _box_muller(z.reshape(-1, 2), scratch)
        np.matmul(Z, LT, out=paths[start : start + per_chunk])
    return SampleBatch(ctx, seed, read_only(paths[:count].reshape(count, gram.n, gram.d)))


def empirical_covariance(batch: SampleBatch) -> np.ndarray:
    """Second-moment blocks C[i][j] = mean over paths of f_i f_j^T.

    No mean subtraction: the process is centered by construction.  Returns
    shape (n, n, d, d); summation order is the fixed matmul reduction, so
    results are reproducible.
    """
    n, d = batch.context.n, batch.context.d
    flat = batch.paths.reshape(batch.count, n * d)
    emp = flat.T @ flat
    emp /= batch.count
    return emp.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def covariance_error_report(batch: SampleBatch) -> CovErrorReport:
    """Compare the empirical covariance against G + eps*I.

    The tolerance is four standard errors of the worst entry:
    4 * max_ij sqrt((T_ii T_jj + T_ij^2) / N) for the target matrix T.  A
    non-finite error or tolerance fails the gate.  It goes by blocks of
    rows (``site_blocks``), with no n*d x n*d temporary, in three buffers of
    the largest block's size.
    """
    n, d = batch.context.n, batch.context.d
    gram = batch.context.gram
    emp = empirical_covariance(batch).transpose(0, 2, 1, 3).reshape(n * d, n * d)
    diag = gram._diagonal + gram.jitter_used
    # T * 2**-e with 2**e above the largest T_ii (T is PSD, so no |T_ij| is
    # larger): no square overflows, and as the scaling is exact, a tolerance
    # that is finite unscaled comes out bitwise the same
    scale = 2.0 ** -max(math.frexp(float(np.abs(diag).max()))[1], 0)
    diag *= scale
    parts = site_blocks(n, d)
    shape = (max(p.stop - p.start for p in parts) * d, n * d)
    target, err, var, no_err = np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, bool)
    per_block, var_max, z_max = np.empty((n, n)), [], []
    for part in parts:
        rows = slice(part.start * d, part.stop * d)
        k = rows.stop - rows.start
        T, e, v, zero = _target_rows(gram, rows, target[:k]), err[:k], var[:k], no_err[:k]
        np.subtract(emp[rows], T, out=e)
        np.abs(e, out=e)
        per_block[part] = e.reshape(-1, d, n, d).max(axis=(1, 3))
        np.multiply(T, scale, out=v)
        np.square(v, out=v)
        np.multiply(diag[rows, None], diag, out=T)
        v += T
        var_max.append(v.max())
        # |e_ij| / SE_ij is |e_ij| * scale / sqrt(v_ij) * sqrt(N)
        np.sqrt(v, out=v)
        e *= scale
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(e, v, out=v)
        np.equal(e, 0.0, out=zero)
        np.putmask(v, zero, 0.0)
        z_max.append(v.max())
    mc_tol = MC_SIGMA_FACTOR * float(np.sqrt(np.max(var_max) / batch.count)) / scale
    z = float(np.max(z_max)) * math.sqrt(batch.count)
    return CovErrorReport(float(per_block.max()), read_only(per_block), mc_tol, z)


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
