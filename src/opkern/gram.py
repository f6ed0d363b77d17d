"""Block Gram matrices: assembly, PSD certification, Cholesky with a jitter
ladder, and spectral-decay diagnostics, plus CSV/JSON export."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .kernels import OperatorKernel, as_sites, read_only
from .reprcsv import write_csv

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
    "gram_to_csv",
    "spectrum_to_json_dict",
    "report_to_json_dict",
]

DEFAULT_SIZE_CAP = 5000
RECON_TOL = 1e-8
PSD_EIG_TOL = 1e-10
DRIFT_TOL = 1e-12
EFFECTIVE_RANK_TOLS = (1e-2, 1e-4, 1e-6, 1e-8)
# entries per row block of a blockwise nd x nd pass: 8 MB of float64 scratch
ROW_BLOCK_ENTRIES = 1 << 20


class GramError(ValueError):
    pass


class IndefiniteMatrixError(GramError):
    """Cholesky failed within the jitter ladder; the matrix is indefinite."""


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Symmetric eigendecomposition of a Gram matrix plus decay diagnostics;
    the one decomposition every spectral consumer reads.  A value: its
    arrays are read-only, and its verdicts are derived from them.

    It decomposes the Gram's (c, N, N) channel Grams (c = d, N = n for a
    kernel Gram; c = 1, N = nd for a one-channel Gram): ``eigenvectors`` is
    their stack of eigenvectors, each channel's in nonincreasing order of
    its eigenvalues, and ``eigenvalues[k]`` belongs to kron(u, basis[:, m])
    with u = eigenvectors[m, :, j] and (m, j) = divmod(order[k], N).
    ``drift`` bounds the distance of the Gram's eigenvalues from
    ``eigenvalues`` (Weyl), and the PSD verdict reads ``min_eig - drift``.
    """

    eigenvalues: np.ndarray  # sorted nonincreasing
    eigenvectors: np.ndarray
    basis: np.ndarray
    order: np.ndarray
    drift: float

    @classmethod
    def from_channels(cls, distinct, basis, drift: float) -> "SpectrumReport":
        """One stacked eigh of the distinct ones among the (c, N, N) channel
        Grams K_m of a Gram G at Frobenius distance ``drift`` from
        sum_m K_m (x) q_m q_m^T, q_m = basis[:, m]; ``distinct`` is their
        (stack, index), as ``_group_channels`` gives it."""
        stack, index = distinct
        lam, vecs = np.linalg.eigh(stack)  # ascending per channel
        lam, vecs = lam[index][:, ::-1], vecs[index][..., ::-1]
        order = np.argsort(-lam.ravel(), kind="stable")
        eig = lam.ravel()[order]
        if not np.isfinite(eig.sum()):  # the PSD margin and the ranks scale with it
            raise GramError("Gram spectrum overflows")
        return cls(*map(read_only, (eig, vecs, basis, order)), drift)

    lambda_max = property(lambda self: float(self.eigenvalues[0]))
    min_eig = property(lambda self: float(self.eigenvalues[-1]))
    trace = property(lambda self: float(self.eigenvalues.sum()))

    @property
    def psd(self) -> bool:
        return self.min_eig - self.drift >= -PSD_EIG_TOL * max(self.lambda_max, 1.0)

    @cached_property
    def effective_rank(self) -> Mapping[float, int]:
        """A read-only mapping: each of EFFECTIVE_RANK_TOLS to its rank."""
        eig, trace = self.eigenvalues, self.trace
        return MappingProxyType(
            {tol: effective_rank(eig, tol, trace) for tol in EFFECTIVE_RANK_TOLS}
        )

    def leading_vectors(self, k: int) -> np.ndarray:
        """(k, nd) rows: the unit eigenvectors of eigenvalues[:k]."""
        c, N, _ = self.eigenvectors.shape
        m, j = np.divmod(self.order[:k], N)
        u = self.eigenvectors[m, :, j]  # (k, N)
        q = self.basis.T[m]  # (k, c)
        return (u[:, :, None] * q[:, None, :]).reshape(k, N * c)


def _max_abs(data: np.ndarray) -> float:
    """max |data[i, j]| (0 when empty) with no temporary; a NaN or an
    infinity carries through and is refused."""
    top = max(float(data.max(initial=0.0)), -float(data.min(initial=0.0)))
    if not math.isfinite(top):
        raise GramError("matrix has non-finite entries")
    return top


def _group_channels(channels: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
    """(stack, index): the distinct matrices of a (c, N, N) stack by exact
    equality, and each channel's position in that stack (result[index]
    expands a result per matrix to one per channel); the stack itself and a
    full slice, a view, when no two are equal."""
    first = [next(j for j in range(m + 1) if j == m or np.array_equal(channels[j], K))
             for m, K in enumerate(channels)]
    keep = sorted(set(first))
    if len(keep) == len(channels):
        return channels, slice(None)
    return channels[keep], np.searchsorted(keep, first)


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


def site_blocks(n: int, d: int) -> list[slice]:
    """Runs of consecutive sites, covering all n, whose rows of an nd x nd
    matrix hold about ROW_BLOCK_ENTRIES entries each (at least one site)."""
    step = max(1, ROW_BLOCK_ENTRIES // (n * d * d))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


@dataclass(frozen=True, eq=False)
class BlockGram:
    """The n*d x n*d matrix with block (i,j) = K(s_i, s_j): a value, certified
    when it is built, whose factor is computed once, when first read.

    Every Gram is a channel Gram, data = sum_m K_m (x) q_m q_m^T, with
    (c, N, N) channel Grams K_m and a (c, c) orthogonal basis Q whose column
    q_m belongs to channel m.  From channels and basis (``assemble_gram``),
    the data is their sum averaged with its transpose, which must lie within
    DRIFT_TOL * max(lambda_max, 1) of the sum (Frobenius: the drift); from
    data alone (``raw_gram``), the data is its own one channel, Q = [[1]].
    The data must be finite and exactly symmetric (an averaged sum is so, as
    IEEE addition commutes), n = len(sites) and d = len(data) / n.  The
    arrays are taken, not copied, and made read-only.  Equal channel Grams
    are decomposed once (``_group_channels``).
    """

    sites: np.ndarray  # (n, k): row i is site s_i
    data: np.ndarray | None = None
    channels: np.ndarray | None = None  # (c, N, N): channel m's scalar Gram
    basis: np.ndarray | None = None  # (c, c): column m belongs to channel m
    n: int = field(init=False)
    d: int = field(init=False)
    size: int = field(init=False)  # n * d
    max_abs: float = field(init=False)  # max |data[i, j]|
    spectrum: SpectrumReport = field(init=False)
    _distinct: tuple = field(init=False, repr=False)  # see _group_channels

    def __post_init__(self):
        given = (self.data is not None, self.channels is not None, self.basis is not None)
        if given == (True, False, False):
            data = np.asanyarray(self.data, dtype=float)
            max_abs = _max_abs(data)
            if not np.array_equal(data, data.T):
                raise GramError("matrix is not symmetric")
            channels, basis, drift = data[None], np.ones((1, 1)), 0.0
        elif given == (False, True, True):
            channels, basis = self.channels, self.basis
            # G is the channels' sum S, taken from the kernels' C-order layout,
            # averaged with its transpose into one fresh C-order buffer; the
            # drift, |S - G| (Frobenius), is taken in place in S
            c, N, _ = channels.shape
            layout = np.ascontiguousarray(np.moveaxis(channels, 0, -1))  # (N, N, c)
            S = OperatorKernel.channel_sum(layout, basis)
            St = S.transpose(0, 2, 1, 3)  # (i, a, j, b): G's entry order
            data = np.add(St, St.transpose(2, 3, 0, 1), order="C").reshape(N * c, N * c)
            data *= 0.5
            max_abs = _max_abs(data)
            St -= data.reshape(N, c, N, c)
            drift = float(np.linalg.norm(S.ravel()))
        else:
            raise GramError("a Gram is built from data alone or from channels and basis")
        sites = np.asarray(self.sites, dtype=float)
        n = len(sites)
        if n == 0 or len(data) % n:
            raise GramError(f"{len(data)} rows do not split into {n} sites")
        distinct = _group_channels(channels)
        report = SpectrumReport.from_channels(distinct, basis, drift)
        if not drift <= DRIFT_TOL * max(report.lambda_max, 1.0):
            raise GramError(f"channels drift {drift:.3e} from the Gram they sum to")
        for array in (sites, data, channels, basis, distinct[0]):
            read_only(array)
        derived = dict(sites=sites, data=data, channels=channels, basis=basis,
                       n=n, d=len(data) // n, size=len(data), max_abs=max_abs,
                       spectrum=report, _distinct=distinct)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.data[i * d : (i + 1) * d, j * d : (j + 1) * d]

    @cached_property
    def _factorization(self) -> tuple[np.ndarray, float, float] | None:
        """(the (c, N, N) channel factors L_m, jitter used, accepted bound),
        or None when the whole ladder fails: see ``factorize``."""
        stack, index = self._distinct
        for eps in _jitter_ladder(self):
            try:
                L, residual = _jittered_cholesky(stack, eps)
            except np.linalg.LinAlgError:
                continue
            residual += self.spectrum.drift
            if residual <= RECON_TOL * (1.0 + self.max_abs):
                return read_only(L[index]), eps, residual
        return None

    def _accepted(self, k: int):
        if self._factorization is None:
            raise IndefiniteMatrixError(
                "matrix not factorizable within the jitter ladder (indefinite)"
            )
        return self._factorization[k]

    # a square root F of data + jitter_used * I, formed on first read, and a
    # bound on |F F^T - that|
    factor = cached_property(lambda self: _channel_factor(self._accepted(0), self.basis))
    jitter_used = property(lambda self: self._accepted(1))
    factor_residual = property(lambda self: self._accepted(2))


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
    return BlockGram(sites=S, channels=ch, basis=spec.basis)


def raw_gram(kernel: OperatorKernel, sites, data) -> BlockGram:
    """A Gram of ``kernel``'s shape on ``sites`` holding an externally
    supplied matrix (raw-matrix workflows, fault injection), averaged with
    its transpose.  It is its own one channel."""
    S = gram_sites(kernel, sites)
    nd = len(S) * kernel.dim_h
    raw = np.asarray(data, dtype=float)
    if raw.shape != (nd, nd):
        raise GramError(f"raw Gram shape {raw.shape} != expected {(nd, nd)}")
    return BlockGram(sites=S, data=0.5 * (raw + raw.T))


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
    target = np.add(A, 0.0, order="C")  # A + eps*I entry for entry (-0.0 too), no eye
    target.reshape(-1, N * N)[:, :: N + 1] += eps
    L = np.linalg.cholesky(target)
    R = L @ np.swapaxes(L, -1, -2)
    R -= target
    np.abs(R, out=R)
    return L, float(R.max())


def _channel_factor(L: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The read-only (nd, nd) factor F[(i,a),(j,m)] = Q[a,m] L_m[i,j] of the
    stacked channel factors L (c, N, N) and the basis Q."""
    c, N, _ = L.shape
    F = np.empty((N, c, N, c))  # (i, a, j, m), C order: the reshape is a view
    np.multiply(L.transpose(1, 2, 0)[:, None], basis[None, :, None], out=F)
    return read_only(F.reshape(N * c, N * c))


def factorize(gram: BlockGram) -> BlockGram:
    """Factor G + eps*I with a jitter ladder from 0 up to 1e-6 * tr(G)/(nd).

    The Gram is factored by channel: G + eps*I =
    sum_m (K_m + eps*I) (x) q_m q_m^T, as sum_m q_m q_m^T = I, so a rung is
    one stacked Cholesky L_m of the distinct channel Grams (equal channels
    share theirs) and the factor is F[(i,a),(j,m)] = Q[a,m] L_m[i,j].  The
    rung is accepted when max_m |L_m L_m^T - (K_m + eps*I)| + drift is
    within the reconstruction tolerance; it bounds |F F^T - (G + eps*I)| entrywise, since
    sum_m |Q[a,m] Q[b,m]| <= 1 (Cauchy-Schwarz over the rows of Q).  F is
    lower triangular when Q = I, so a one-channel Gram's F is the Cholesky
    factor of G + eps*I and its bound is that factor's residual.

    The ladder runs once per Gram, on the first read of its ``factor``,
    ``jitter_used`` or ``factor_residual`` (the accepted bound), and its
    outcome (the L_m; F is formed on the first read of ``factor``) is kept;
    returns the Gram, or raises IndefiniteMatrixError, on every read, when
    the whole ladder failed.
    """
    gram.jitter_used  # runs the ladder on the first read only
    return gram


def check_site_counts(site_counts) -> list[int]:
    """The grid sizes of a decay profile as ints, once they are nonempty,
    positive and strictly increasing."""
    counts = [int(c) for c in site_counts]
    if not counts:
        raise GramError("site_counts must be nonempty")
    if any(c < 1 for c in counts):
        raise GramError("site counts must be positive")
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise GramError("site_counts must be increasing")
    return counts


def spectral_decay_profile(
    kernel: OperatorKernel, site_counts, domain=(0.0, 1.0)
) -> list[SpectrumReport]:
    """Spectra of Grams on nested equispaced grids of increasing size.

    Grids include both endpoints; decay of the spectra as the grid grows is
    the finite-size signature of a compact induced operator.
    """
    counts = check_site_counts(site_counts)
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
    sites_repr = ";".join(",".join(repr(float(v)) for v in s) for s in gram.sites)
    write_csv(path, ["# n", gram.n, "d", gram.d, "sites", sites_repr], gram.data)


def spectrum_to_json_dict(gram: BlockGram) -> dict:
    """JSON-ready spectrum report for a Gram."""
    return report_to_json_dict(gram.spectrum, gram.sites, gram.d)


def report_to_json_dict(report: SpectrumReport, sites, d: int) -> dict:
    """JSON-ready spectrum report of the Gram of a d x d kernel on sites."""
    return {
        "n": len(sites),
        "d": d,
        "sites": [list(map(float, s)) for s in sites],
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "min_eig": report.min_eig,
        "psd": report.psd,
        "effective_rank": {
            repr(tol): k for tol, k in report.effective_rank.items()
        },
    }
