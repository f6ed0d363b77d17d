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
    "assemble_gram",
    "psd_check",
    "factorize",
    "spectral_decay_profile",
    "gram_to_csv",
    "spectrum_to_json_dict",
    "report_to_json_dict",
]

DEFAULT_SIZE_CAP = 5000
RECON_TOL = 1e-8
PSD_EIG_TOL = 1e-10
EFFECTIVE_RANK_TOLS = (1e-2, 1e-4, 1e-6, 1e-8)


class GramError(ValueError):
    pass


class IndefiniteMatrixError(GramError):
    """Cholesky failed within the jitter ladder; the matrix is indefinite."""


@dataclass
class SpectrumReport:
    """Full symmetric eigendecomposition of a Gram matrix plus decay
    diagnostics; the one decomposition every spectral consumer reads."""

    eigenvalues: np.ndarray  # sorted nonincreasing
    lambda_max: float
    min_eig: float
    psd: bool
    effective_rank: dict[float, int]
    trace: float
    eigenvectors: np.ndarray  # column k belongs to eigenvalues[k]

    @classmethod
    def from_matrix(cls, data: np.ndarray) -> "SpectrumReport":
        if not np.all(np.isfinite(data)):
            raise GramError("matrix has non-finite entries")
        if not np.array_equal(data, data.T):
            raise GramError("matrix is not symmetric")
        eig, vecs = np.linalg.eigh(data)  # ascending
        eig, vecs = eig[::-1], vecs[:, ::-1]
        lam_max = float(eig[0])
        min_eig = float(eig[-1])
        psd = min_eig >= -PSD_EIG_TOL * max(lam_max, 1.0)
        trace = float(eig.sum())
        eff = {
            tol: effective_rank(eig, tol, trace) for tol in EFFECTIVE_RANK_TOLS
        }
        return cls(eig, lam_max, min_eig, psd, eff, trace, vecs)


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

    ``factor`` (when present) is lower triangular with
    L L^T = data + jitter_used * I up to the reconstruction tolerance.
    """

    n: int
    d: int
    sites: np.ndarray  # (n, k): row i is site s_i
    data: np.ndarray
    factor: np.ndarray | None = None
    jitter_used: float = 0.0
    spectrum: SpectrumReport | None = None

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.data[i * d : (i + 1) * d, j * d : (j + 1) * d]

    @property
    def size(self) -> int:
        return self.n * self.d


def assemble_gram(
    kernel: OperatorKernel, sites, size_cap: int = DEFAULT_SIZE_CAP
) -> BlockGram:
    """Assemble the block Gram matrix of a square kernel on the given sites.

    All sites must have the same number of coordinates.  The result is
    symmetrized by averaging with its transpose, so it is exactly symmetric
    as ``psd_check`` requires.
    """
    if not kernel.is_square:
        raise GramError("block Gram requires a square kernel")
    sites = list(sites)
    if not sites:
        raise GramError("site list must be nonempty")
    n, d = len(sites), kernel.dim_h
    if n * d > size_cap:
        raise GramError(f"Gram size {n * d} exceeds cap {size_cap}")
    S = as_sites(sites)
    G = kernel.blocks(S, S).transpose(0, 2, 1, 3).reshape(n * d, n * d)
    G = 0.5 * (G + G.T)
    return BlockGram(n=n, d=d, sites=S, data=G)


def psd_check(gram: BlockGram) -> SpectrumReport:
    """Full eigendecomposition with a relative PSD certificate; cached.

    The data must be exactly symmetric; the eigenpairs are kept on the
    report for the orthonormal expansion."""
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


def factorize(gram: BlockGram) -> BlockGram:
    """Cholesky with a jitter ladder from 0 up to 1e-6 * tr(G)/(nd).

    On success stores the lower factor and the jitter actually used; raises
    IndefiniteMatrixError when the whole ladder fails.
    """
    G = gram.data
    scale = 1.0 + float(np.abs(G).max())
    for eps in _jitter_ladder(gram):
        target = G + 0.0  # G + eps*I entry for entry (-0.0 too), no nd x nd eye
        target.flat[:: gram.size + 1] += eps
        try:
            L = np.linalg.cholesky(target)
        except np.linalg.LinAlgError:
            continue
        R = L @ L.T
        R -= target
        np.abs(R, out=R)
        if float(R.max()) <= RECON_TOL * scale:
            gram.factor = L
            gram.jitter_used = eps
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


def gram_to_csv(gram: BlockGram, path) -> None:
    """Row-major CSV with a header row carrying n, d and the site list."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        sites_repr = ";".join(
            ",".join(repr(float(v)) for v in s) for s in gram.sites
        )
        writer.writerow(["# n", gram.n, "d", gram.d, "sites", sites_repr])
        for row in gram.data:
            writer.writerow([repr(float(v)) for v in row])


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
