"""Block Gram matrices: assembly, PSD certification, Cholesky with a jitter
ladder, and spectral-decay diagnostics, plus CSV/JSON export."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .kernels import OperatorKernel, as_sites
from .reprcsv import write_csv_rows

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

    It decomposes the Gram's (c, N, N) channel Grams (c = d, N = n for a
    kernel Gram; c = 1, N = nd for a one-channel Gram): ``eigenvectors`` is
    their stack of eigenvectors, each channel's in nonincreasing order of
    its eigenvalues, and ``eigenvalues[k]`` belongs to kron(u, basis[:, m])
    with u = eigenvectors[m, :, j] and (m, j) = divmod(order[k], N).
    ``drift`` bounds the distance of the Gram's eigenvalues from
    ``eigenvalues`` (Weyl), and the PSD verdict reads ``min_eig - drift``.
    """

    eigenvalues: np.ndarray  # sorted nonincreasing
    lambda_max: float
    min_eig: float
    psd: bool
    effective_rank: dict[float, int]
    trace: float
    eigenvectors: np.ndarray
    basis: np.ndarray
    order: np.ndarray
    drift: float

    @classmethod
    def from_channels(cls, channels, basis, drift: float) -> "SpectrumReport":
        """One stacked eigh of the (c, N, N) channel Grams K_m of a Gram G
        at Frobenius distance ``drift`` from sum_m K_m (x) q_m q_m^T,
        q_m = basis[:, m]."""
        lam, vecs = np.linalg.eigh(channels)  # (c, N) ascending per channel
        lam, vecs = lam[:, ::-1], vecs[..., ::-1]
        order = np.argsort(-lam.ravel(), kind="stable")
        eig = lam.ravel()[order]
        lam_max, min_eig, trace = float(eig[0]), float(eig[-1]), float(eig.sum())
        if not np.isfinite(trace):  # the PSD margin and the ranks scale with it
            raise GramError("Gram spectrum overflows")
        psd = min_eig - drift >= -PSD_EIG_TOL * max(lam_max, 1.0)
        eff = {
            tol: effective_rank(eig, tol, trace) for tol in EFFECTIVE_RANK_TOLS
        }
        return cls(eig, lam_max, min_eig, psd, eff, trace, vecs, basis, order, drift)

    def leading_vectors(self, k: int) -> np.ndarray:
        """(k, nd) rows: the unit eigenvectors of eigenvalues[:k]."""
        c, N, _ = self.eigenvectors.shape
        m, j = np.divmod(self.order[:k], N)
        u = self.eigenvectors[m, :, j]  # (k, N)
        q = self.basis.T[m]  # (k, c)
        return (u[:, :, None] * q[:, None, :]).reshape(k, N * c)


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
    """The n*d x n*d matrix with block (i,j) = K(s_i, s_j), certified when
    it is built and fixed afterwards.

    Every Gram is a channel Gram, data = sum_m K_m (x) q_m q_m^T, with
    (c, N, N) channel Grams K_m and a (c, c) orthogonal basis Q whose column
    q_m belongs to channel m.  Built from channels and basis alone
    (``assemble_gram``), the data is their sum averaged with its transpose;
    built from data alone (``raw_gram``), the data is its own one channel,
    Q = [[1]].  Construction makes the certificate ``spectrum``: the data
    must be finite and exactly symmetric, and channels farther from it than
    DRIFT_TOL * max(lambda_max, 1) (Frobenius: the drift) give way to the
    data as its own channel.  The Gram then takes ``data`` and ``channels``
    as they are and makes them read-only, and only the factor's fields can
    be set: ``factor`` (by ``factorize``) is a square root L of
    data + jitter_used * I, and ``factor_residual`` bounds |L L^T - that|.
    """

    n: int
    d: int
    sites: np.ndarray  # (n, k): row i is site s_i
    data: np.ndarray | None = None
    channels: np.ndarray | None = None  # (c, N, N): channel m's scalar Gram
    basis: np.ndarray | None = None  # (c, c): column m belongs to channel m
    spectrum: SpectrumReport = field(init=False)
    factor: np.ndarray | None = field(default=None, init=False)
    jitter_used: float = field(default=0.0, init=False)
    factor_residual: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.channels is None:
            data = np.asanyarray(self.data, dtype=float)
            _check_symmetric(data)
            channels, basis, drift = data[None], np.ones((1, 1)), 0.0
        else:
            channels, basis = self.channels, self.basis
            data, drift = _sum_and_drift(channels, basis, self.data)
        report = SpectrumReport.from_channels(channels, basis, drift)
        if not drift <= DRIFT_TOL * max(report.lambda_max, 1.0):
            channels, basis = data[None], np.ones((1, 1))
            report = SpectrumReport.from_channels(channels, basis, 0.0)
        data.flags.writeable = channels.flags.writeable = False
        self.data, self.channels, self.basis = data, channels, basis
        self.spectrum = report

    def __setattr__(self, name, value):
        if name not in ("factor", "jitter_used", "factor_residual") and hasattr(self, "spectrum"):
            raise AttributeError(f"a Gram's {name} is fixed once it is built")
        object.__setattr__(self, name, value)

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.data[i * d : (i + 1) * d, j * d : (j + 1) * d]

    @property
    def size(self) -> int:
        return self.n * self.d


def _sum_and_drift(channels, basis, data=None) -> tuple[np.ndarray, float]:
    """Data (None: S averaged with its transpose, into one fresh C-order
    buffer) and its Frobenius distance from the channels' sum S, taken in
    place in S; S is summed from the kernels' (N, N, c) C-order layout."""
    c, N, _ = channels.shape
    S = OperatorKernel.channel_sum(np.ascontiguousarray(np.moveaxis(channels, 0, -1)), basis)
    St = S.transpose(0, 2, 1, 3)  # (i, a, j, b): G's entry order
    if data is None:
        data = np.add(St, St.transpose(2, 3, 0, 1), order="C").reshape(N * c, N * c)
        data *= 0.5
    data = np.asanyarray(data, dtype=float)
    _check_symmetric(data)
    St -= data.reshape(N, c, N, c)
    return data, float(np.linalg.norm(S.ravel()))


def gram_sites(kernel: OperatorKernel, sites) -> np.ndarray:
    """The (n, k) site array of a block Gram of ``kernel`` on ``sites``,
    once the kernel is square, the sites are nonempty with equal numbers of
    coordinates, and n*d is within ``DEFAULT_SIZE_CAP``."""
    if not kernel.is_square:
        raise GramError("block Gram requires a square kernel")
    sites = list(sites)
    if not sites:
        raise GramError("site list must be nonempty")
    n, d = len(sites), kernel.dim_h
    if n * d > DEFAULT_SIZE_CAP:
        raise GramError(f"Gram size {n * d} exceeds cap {DEFAULT_SIZE_CAP}")
    return as_sites(sites)


def assemble_gram(kernel: OperatorKernel, sites) -> BlockGram:
    """Assemble the block Gram matrix of a square kernel on the given sites.

    All sites must have the same number of coordinates.  The kernel's
    closed form gives the (d, n, n) channel Grams once; the Gram builds G
    from them and certifies it (see BlockGram).
    """
    S = gram_sites(kernel, sites)
    spec = kernel.spec
    ch = np.ascontiguousarray(np.moveaxis(spec.channels(kernel.sq_dists(S, S)), -1, 0))
    return BlockGram(n=len(S), d=kernel.dim_h, sites=S, channels=ch, basis=spec.basis)


def raw_gram(kernel: OperatorKernel, sites, data) -> BlockGram:
    """A Gram of ``kernel``'s shape on ``sites`` holding an externally
    supplied matrix (raw-matrix workflows, fault injection), averaged with
    its transpose.  It is its own one channel."""
    S = gram_sites(kernel, sites)
    n, d = len(S), kernel.dim_h
    raw = np.asarray(data, dtype=float)
    if raw.shape != (n * d, n * d):
        raise GramError(f"raw Gram shape {raw.shape} != expected {(n * d, n * d)}")
    return BlockGram(n=n, d=d, sites=S, data=0.5 * (raw + raw.T))


def psd_check(gram: BlockGram) -> SpectrumReport:
    """The Gram's PSD certificate, made once when it was built (see
    BlockGram and SpectrumReport)."""
    return gram.spectrum


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
    """Stacked Cholesky L of A + eps*I for a (c, N, N) stack A, and its
    residual max |L L^T - (A + eps*I)|."""
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
    channel factors L (c, N, N) and the basis Q."""
    c, N, _ = L.shape
    F = L.transpose(1, 2, 0)[:, None] * basis[None, :, None]  # (i, a, j, m)
    return F.reshape(N * c, N * c)


def factorize(gram: BlockGram) -> BlockGram:
    """Factor G + eps*I with a jitter ladder from 0 up to 1e-6 * tr(G)/(nd).

    The Gram is factored by channel: G + eps*I =
    sum_m (K_m + eps*I) (x) q_m q_m^T, as sum_m q_m q_m^T = I, so a rung is
    one stacked Cholesky L_m of the (c, N, N) channel Grams and the factor
    is F[(i,a),(j,m)] = Q[a,m] L_m[i,j].  The rung is accepted when
    max_m |L_m L_m^T - (K_m + eps*I)| + drift is within the reconstruction
    tolerance; it bounds |F F^T - (G + eps*I)| entrywise, since
    sum_m |Q[a,m] Q[b,m]| <= 1 (Cauchy-Schwarz over the rows of Q).  F is
    lower triangular when Q = I, so a one-channel Gram's F is the Cholesky
    factor of G + eps*I and its bound is that factor's residual.

    On success stores the factor, the jitter used and the accepted bound;
    raises IndefiniteMatrixError when the whole ladder fails.
    """
    scale = 1.0 + float(np.abs(gram.data).max())
    for eps in _jitter_ladder(gram):
        try:
            L, residual = _jittered_cholesky(gram.channels, eps)
        except np.linalg.LinAlgError:
            continue
        residual += gram.spectrum.drift
        if residual <= RECON_TOL * scale:
            gram.factor = _channel_factor(L, gram.basis)
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


def gram_to_csv(gram: BlockGram, path) -> None:
    """Row-major CSV with a header row carrying n, d and the site list."""
    with open(path, "w", newline="") as fh:
        sites_repr = ";".join(
            ",".join(repr(float(v)) for v in s) for s in gram.sites
        )
        csv.writer(fh).writerow(["# n", gram.n, "d", gram.d, "sites", sites_repr])
        write_csv_rows(fh, gram.data)


def spectrum_to_json_dict(gram: BlockGram) -> dict:
    """JSON-ready spectrum report for a Gram."""
    return report_to_json_dict(gram.spectrum, gram.sites, gram.d, gram.jitter_used)


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
