"""Block Gram matrices: assembly, PSD certification, Cholesky with a jitter
ladder, and spectral-decay diagnostics, plus CSV/JSON export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernels import OperatorKernel, as_sites

__all__ = [
    "GramError",
    "IndefiniteMatrixError",
    "SpectrumReport",
    "BlockGram",
    "gram_sites",
    "assemble_gram",
    "raw_gram",
    "psd_check",
    "factorize",
    "spectral_decay_profile",
    "write_csv_rows",
    "gram_to_csv",
    "spectrum_to_json_dict",
    "report_to_json_dict",
]

DEFAULT_SIZE_CAP = 5000
RECON_TOL = 1e-8
PSD_EIG_TOL = 1e-10
DRIFT_TOL = 1e-12
EFFECTIVE_RANK_TOLS = (1e-2, 1e-4, 1e-6, 1e-8)


class GramError(ValueError):
    pass


class IndefiniteMatrixError(GramError):
    """Cholesky failed within the jitter ladder; the matrix is indefinite."""


@dataclass
class SpectrumReport:
    """Symmetric eigendecomposition of a Gram matrix plus decay diagnostics;
    the one decomposition every spectral consumer reads.

    Dense path (``basis`` None): ``eigenvectors`` is (nd, nd) and column k
    belongs to ``eigenvalues[k]``.  Channel path: ``eigenvectors`` is the
    (d, n, n) stack of channel eigenvectors, and ``eigenvalues[k]`` belongs
    to kron(u, basis[:, m]) with u = eigenvectors[m, :, j] and
    (m, j) = divmod(order[k], n).  ``drift`` bounds the distance of the
    Gram's eigenvalues from ``eigenvalues`` (Weyl), and the PSD verdict
    reads ``min_eig - drift``.
    """

    eigenvalues: np.ndarray  # sorted nonincreasing
    lambda_max: float
    min_eig: float
    psd: bool
    effective_rank: dict[float, int]
    trace: float
    eigenvectors: np.ndarray
    basis: np.ndarray | None = None
    order: np.ndarray | None = None
    drift: float = 0.0

    @classmethod
    def _build(cls, eig, vecs, basis=None, order=None, drift=0.0) -> "SpectrumReport":
        lam_max = float(eig[0])
        min_eig = float(eig[-1])
        psd = min_eig - drift >= -PSD_EIG_TOL * max(lam_max, 1.0)
        trace = float(eig.sum())
        eff = {
            tol: effective_rank(eig, tol, trace) for tol in EFFECTIVE_RANK_TOLS
        }
        return cls(eig, lam_max, min_eig, psd, eff, trace, vecs, basis, order, drift)

    @classmethod
    def from_matrix(cls, data: np.ndarray) -> "SpectrumReport":
        """One dense eigh of the Gram."""
        _check_symmetric(data)
        eig, vecs = np.linalg.eigh(data)  # ascending
        return cls._build(eig[::-1], vecs[:, ::-1])

    @classmethod
    def from_channels(
        cls, data: np.ndarray, channels: np.ndarray, basis: np.ndarray
    ) -> "SpectrumReport | None":
        """One stacked eigh of the (d, n, n) channel Grams K_m of a Gram
        G = sum_m K_m (x) q_m q_m^T, q_m = basis[:, m].

        The certificate is tied to G itself: the Frobenius distance of G
        from that sum is the drift.  Returns None when the drift exceeds
        DRIFT_TOL * max(lambda_max, 1), where G is not the channels' sum
        (rounding in a kernel's dense values can put it there, e.g. a
        normalized kernel over an ill-conditioned K(s,s)).
        """
        _check_symmetric(data)
        lam, vecs = np.linalg.eigh(channels)  # (d, n) ascending per channel
        order = np.argsort(-lam.ravel(), kind="stable")
        eig = lam.ravel()[order]
        d, n = lam.shape
        outer = basis.T[:, :, None] * basis.T[:, None, :]  # (m, a, b)
        R = np.tensordot(channels, outer, (0, 0))  # (i, j, a, b)
        R -= data.reshape(n, d, n, d).transpose(0, 2, 1, 3)
        drift = float(np.linalg.norm(R.ravel()))
        if not drift <= DRIFT_TOL * max(float(eig[0]), 1.0):
            return None
        return cls._build(eig, vecs, basis, order, drift)

    def leading_vectors(self, k: int) -> np.ndarray:
        """(k, nd) rows: the unit eigenvectors of eigenvalues[:k]."""
        if self.basis is None:
            return self.eigenvectors[:, :k].T
        d, n, _ = self.eigenvectors.shape
        m, j = np.divmod(self.order[:k], n)
        u = self.eigenvectors[m, :, j]  # (k, n)
        q = self.basis.T[m]  # (k, d)
        return (u[:, :, None] * q[:, None, :]).reshape(k, n * d)


def _check_symmetric(data: np.ndarray) -> None:
    if not np.all(np.isfinite(data)):
        raise GramError("matrix has non-finite entries")
    if not np.array_equal(data, data.T):
        raise GramError("matrix is not symmetric")


def effective_rank(eigenvalues: np.ndarray, tol: float, trace=None) -> int:
    """Smallest k with spectral tail-sum beyond k at most tol * trace."""
    eig = np.asarray(eigenvalues, dtype=float)
    if trace is None:
        trace = float(eig.sum())
    tails = trace - np.cumsum(eig)
    budget = tol * trace
    for k, tail in enumerate(tails, start=1):
        if tail <= budget:
            return k
    return len(eig)


@dataclass
class BlockGram:
    """The n*d x n*d matrix with block (i,j) = K(s_i, s_j).

    ``factor`` (when present) is a square root L of data + jitter_used * I:
    L L^T matches it up to the reconstruction tolerance, and
    ``factor_residual`` is the accepted rung's measure of that distance
    (see ``factorize``).  L is lower triangular on the dense path.
    A kernel Gram with d > 1 also carries its (d, n, n) channel Grams and
    the kernel's basis Q (see ``kernels``), from which ``psd_check``
    certifies it and ``factorize`` factors it; a Gram without them is
    certified and factored from ``data`` alone.
    """

    n: int
    d: int
    sites: np.ndarray  # (n, k): row i is site s_i
    data: np.ndarray
    factor: np.ndarray | None = None
    jitter_used: float = 0.0
    factor_residual: float = 0.0
    spectrum: SpectrumReport | None = None
    channels: np.ndarray | None = None  # (d, n, n): channel m's scalar Gram
    basis: np.ndarray | None = None  # (d, d): column m belongs to channel m

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.data[i * d : (i + 1) * d, j * d : (j + 1) * d]

    @property
    def size(self) -> int:
        return self.n * self.d


def gram_sites(
    kernel: OperatorKernel, sites, size_cap: int = DEFAULT_SIZE_CAP
) -> np.ndarray:
    """The (n, k) site array of a block Gram of ``kernel`` on ``sites``,
    once the kernel is square, the sites are nonempty with equal numbers of
    coordinates, and n*d is within ``size_cap``."""
    if not kernel.is_square:
        raise GramError("block Gram requires a square kernel")
    sites = list(sites)
    if not sites:
        raise GramError("site list must be nonempty")
    n, d = len(sites), kernel.dim_h
    if n * d > size_cap:
        raise GramError(f"Gram size {n * d} exceeds cap {size_cap}")
    return as_sites(sites)


def assemble_gram(
    kernel: OperatorKernel, sites, size_cap: int = DEFAULT_SIZE_CAP
) -> BlockGram:
    """Assemble the block Gram matrix of a square kernel on the given sites.

    All sites must have the same number of coordinates.  The result is
    symmetrized by averaging with its transpose, so it is exactly symmetric
    as ``psd_check`` requires.  For d > 1 the channel Grams come from the
    same squared distances.
    """
    S = gram_sites(kernel, sites, size_cap)
    n, d = len(S), kernel.dim_h
    r2 = kernel.sq_dists(S, S)
    spec = kernel.spec
    G = spec.values(r2).transpose(0, 2, 1, 3).reshape(n * d, n * d)
    G = 0.5 * (G + G.T)
    if d == 1:  # G is its own channel Gram: nothing to split
        return BlockGram(n=n, d=d, sites=S, data=G)
    channels = np.ascontiguousarray(np.moveaxis(spec.channels(r2), -1, 0))
    return BlockGram(n=n, d=d, sites=S, data=G, channels=channels, basis=spec.basis)


def raw_gram(kernel: OperatorKernel, sites, data) -> BlockGram:
    """A Gram of ``kernel``'s shape on ``sites`` holding an externally
    supplied matrix (raw-matrix workflows, fault injection), averaged with
    its transpose.  It has no channels: it is certified and factored from
    the matrix alone."""
    S = gram_sites(kernel, sites)
    n, d = len(S), kernel.dim_h
    raw = np.asarray(data, dtype=float)
    if raw.shape != (n * d, n * d):
        raise GramError(f"raw Gram shape {raw.shape} != expected {(n * d, n * d)}")
    return BlockGram(n=n, d=d, sites=S, data=0.5 * (raw + raw.T))


def psd_check(gram: BlockGram) -> SpectrumReport:
    """Eigendecomposition with a relative PSD certificate; cached.

    The data must be exactly symmetric.  A Gram with channel Grams takes
    d stacked n x n eigensolves; a raw or d = 1 Gram, or one its channels
    do not reproduce, takes one nd x nd eigensolve (see SpectrumReport).  The
    eigenpairs are kept on the report for the orthonormal expansion."""
    report = None
    if gram.channels is not None:
        report = SpectrumReport.from_channels(gram.data, gram.channels, gram.basis)
    if report is None:
        report = SpectrumReport.from_matrix(gram.data)
    gram.spectrum = report
    return report


def _jitter_ladder(gram: BlockGram):
    unit = float(np.trace(gram.data)) / gram.size
    if unit <= 0.0:
        unit = 1.0
    yield 0.0
    eps = 1e-12 * unit
    top = 1e-6 * unit
    while eps <= top * (1 + 1e-15):
        yield eps
        eps *= 10.0


def _jittered_cholesky(A: np.ndarray, eps: float):
    """Cholesky L of A + eps*I, for one (N, N) matrix or a (d, N, N)
    stack, and its residual max |L L^T - (A + eps*I)|."""
    N = A.shape[-1]
    target = A + 0.0  # A + eps*I entry for entry (-0.0 too), no N x N eye
    target.reshape(-1, N * N)[:, :: N + 1] += eps
    L = np.linalg.cholesky(target)
    R = L @ np.swapaxes(L, -1, -2)
    R -= target
    np.abs(R, out=R)
    return L, float(R.max())


def _channel_factor(L: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (nd, nd) factor F[(i,a),(j,m)] = Q[a,m] L_m[i,j] of the stacked
    channel factors L (d, n, n) and the basis Q."""
    d, n, _ = L.shape
    F = L.transpose(1, 2, 0)[:, None] * basis[None, :, None]  # (i, a, j, m)
    return F.reshape(n * d, n * d)


def factorize(gram: BlockGram) -> BlockGram:
    """Factor G + eps*I with a jitter ladder from 0 up to 1e-6 * tr(G)/(nd).

    A Gram certified from its channels (its ``psd_check`` report, run here
    if missing, has a basis) is factored by channel: G + eps*I =
    sum_m (K_m + eps*I) (x) q_m q_m^T, as sum_m q_m q_m^T = I, so a rung is
    one stacked Cholesky L_m of the (d, n, n) channel Grams and the factor
    is F[(i,a),(j,m)] = Q[a,m] L_m[i,j].  The rung is accepted when
    max_m |L_m L_m^T - (K_m + eps*I)| + drift is within the reconstruction
    tolerance; it bounds |F F^T - (G + eps*I)| entrywise, since
    sum_m |Q[a,m] Q[b,m]| <= 1 (Cauchy-Schwarz over the rows of Q).  Any
    other Gram (raw, d = 1, or certified densely) takes one dense Cholesky
    per rung, accepted by its residual; that factor is lower triangular.

    On success stores the factor, the jitter used and the accepted residual
    (or bound); raises IndefiniteMatrixError when the whole ladder fails.
    """
    if gram.spectrum is None and gram.channels is not None:
        psd_check(gram)
    by_channel = gram.spectrum is not None and gram.spectrum.basis is not None
    A, drift = (gram.channels, gram.spectrum.drift) if by_channel else (gram.data, 0.0)
    scale = 1.0 + float(np.abs(gram.data).max())
    for eps in _jitter_ladder(gram):
        try:
            L, residual = _jittered_cholesky(A, eps)
        except np.linalg.LinAlgError:
            continue
        residual += drift
        if residual <= RECON_TOL * scale:
            gram.factor = _channel_factor(L, gram.basis) if by_channel else L
            gram.jitter_used = eps
            gram.factor_residual = residual
            return gram
    raise IndefiniteMatrixError(
        "matrix not factorizable within the jitter ladder (indefinite)"
    )


def spectral_decay_profile(
    kernel: OperatorKernel, site_counts, domain=(0.0, 1.0)
) -> list[SpectrumReport]:
    """Spectra of Grams on nested equispaced grids of increasing size.

    Grids include both endpoints; decay of the spectra as the grid grows is
    the finite-size signature of a compact induced operator.
    """
    counts = [int(c) for c in site_counts]
    if not counts:
        raise GramError("site_counts must be nonempty")
    if any(c < 1 for c in counts):
        raise GramError("site counts must be positive")
    if sorted(counts) != counts:
        raise GramError("site_counts must be increasing")
    if counts[-1] * kernel.dim_h > DEFAULT_SIZE_CAP:
        raise GramError(f"Gram size exceeds cap {DEFAULT_SIZE_CAP}")
    a, b = float(domain[0]), float(domain[1])
    return [
        psd_check(assemble_gram(kernel, np.linspace(a, b, c)[:, None]))
        for c in counts
    ]


# ---------------------------------------------------------------------------
# Export


def write_csv_rows(fh, matrix: np.ndarray) -> None:
    """One CSV line per row of a 2-D float array, each value as repr(float):
    the bytes csv.writer writes for those strings (none needs quoting),
    without its per-value calls.  Rows are converted one at a time, so no
    list of every value is held."""
    fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in matrix)


def gram_to_csv(gram: BlockGram, path) -> None:
    """Row-major CSV with a header row carrying n, d and the site list."""
    with open(path, "w", newline="") as fh:
        sites_repr = ";".join(
            ",".join(repr(float(v)) for v in s) for s in gram.sites
        )
        csv.writer(fh).writerow(["# n", gram.n, "d", gram.d, "sites", sites_repr])
        write_csv_rows(fh, gram.data)


def spectrum_to_json_dict(gram: BlockGram) -> dict:
    """JSON-ready spectrum report for a Gram (runs psd_check if needed)."""
    report = gram.spectrum or psd_check(gram)
    return report_to_json_dict(report, gram.sites, gram.d, gram.jitter_used)


def report_to_json_dict(
    report: SpectrumReport, sites, d: int, jitter_used: float = 0.0
) -> dict:
    """JSON-ready spectrum report of the Gram of a d x d kernel on sites."""
    return {
        "n": len(sites),
        "d": d,
        "sites": [list(map(float, s)) for s in sites],
        "jitter_used": jitter_used,
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "min_eig": report.min_eig,
        "psd": report.psd,
        "effective_rank": {
            repr(tol): k for tol, k in report.effective_rank.items()
        },
    }
