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

    It decomposes the distinct ones among the Gram's (c, N, N) channel
    Grams (c = d, N = n for a kernel Gram; c = 1, N = nd for a one-channel
    Gram): ``vectors`` is the stack of their eigenvectors, each one's in
    nonincreasing order of its eigenvalues (a reversed view of the one
    array ``eigh`` returns), and channel m's are ``vectors[index][m]``.
    ``eigenvectors``, that stack expanded to one per channel, is derived on
    its first read (a view when no two channels are equal), so a Gram with
    repeated channels keeps one copy of each distinct stack.
    ``eigenvalues[k]`` belongs to kron(u, basis[:, m]) with
    u = eigenvectors[m, :, j] and (m, j) = divmod(order[k], N).
    ``drift`` bounds the Frobenius distance of the Gram's data from
    sum_m K_m (x) q_m q_m^T, and so the distance of the Gram's eigenvalues
    from ``eigenvalues`` (Weyl): the PSD verdict reads ``min_eig - drift``.
    It is an a-priori bound on the rounding of that data
    (``_rounding_bound``), fixed before the data is formed and at least
    its measured distance from the channel sum it averages, so the verdict
    is never looser than one on a measured drift; for one channel, which
    is its own data, it is 0.
    """

    eigenvalues: np.ndarray  # sorted nonincreasing
    vectors: np.ndarray  # (distinct, N, N)
    index: np.ndarray | slice  # vectors[index]: one stack per channel
    basis: np.ndarray
    order: np.ndarray
    drift: float

    @classmethod
    def from_channels(cls, distinct, basis, drift: float) -> "SpectrumReport":
        """One stacked eigh of the distinct ones among the (c, N, N) channel
        Grams K_m of a Gram G at Frobenius distance at most ``drift`` from
        sum_m K_m (x) q_m q_m^T, q_m = basis[:, m]; ``distinct`` is their
        (stack, index), as ``_group_channels`` gives it."""
        stack, index = distinct
        lam, vecs = np.linalg.eigh(stack)  # ascending per channel
        lam = lam[index][:, ::-1]
        order = np.argsort(-lam.ravel(), kind="stable")
        eig = lam.ravel()[order]
        if not np.isfinite(eig.sum()):  # the PSD margin and the ranks scale with it
            raise GramError("Gram spectrum overflows")
        return cls(read_only(eig), read_only(vecs[..., ::-1]), index,
                   *map(read_only, (basis, order)), drift)

    lambda_max = property(lambda self: float(self.eigenvalues[0]))
    min_eig = property(lambda self: float(self.eigenvalues[-1]))
    trace = property(lambda self: float(self.eigenvalues.sum()))

    @property
    def psd(self) -> bool:
        return self.min_eig - self.drift >= -PSD_EIG_TOL * max(self.lambda_max, 1.0)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(c, N, N), read-only: channel m's eigenvectors, nonincreasing."""
        return read_only(self.vectors[self.index])

    @cached_property
    def effective_rank(self) -> Mapping[float, int]:
        """A read-only mapping: each of EFFECTIVE_RANK_TOLS to its rank."""
        return MappingProxyType(
            {tol: effective_rank(self.eigenvalues, tol) for tol in EFFECTIVE_RANK_TOLS}
        )

    def leading_vectors(self, k: int) -> np.ndarray:
        """(k, nd) rows, one fresh C-order array and the only (k, nd) one
        made: the unit eigenvectors of eigenvalues[:k], gathered from
        ``vectors`` (``eigenvectors`` is not formed)."""
        c, N = len(self.basis), self.vectors.shape[-1]
        m, j = np.divmod(self.order[:k], N)
        place = np.arange(c)[self.index]  # channel m's stack in vectors
        u = self.vectors[place[m], :, j]  # (k, N)
        q = self.basis.T[m]  # (k, c)
        return (u[:, :, None] * q[:, None, :]).reshape(k, N * c)


def _max_abs(data: np.ndarray) -> float:
    """max |entry| of an array (0 when empty) with no temporary; a NaN or
    an infinity carries through and is refused."""
    top = max(float(data.max(initial=0.0)), -float(data.min(initial=0.0)))
    if not math.isfinite(top):
        raise GramError("matrix has non-finite entries")
    return top


def _group_channels(channels: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
    """(stack, index): the distinct matrices of a (c, N, N) stack by exact
    equality, and each channel's position in that stack (result[index]
    expands a result per matrix to one per channel); the stack itself and a
    full slice, a view, when no two are equal.  Unequal diagonals tell most
    unequal matrices apart at a cost of O(N)."""
    diag = np.diagonal(channels, axis1=1, axis2=2)

    def equal(j: int, m: int) -> bool:
        return np.array_equal(diag[j], diag[m]) and np.array_equal(channels[j], channels[m])

    first = [next(j for j in range(m + 1) if j == m or equal(j, m)) for m in range(len(channels))]
    keep = sorted(set(first))
    if len(keep) == len(channels):
        return channels, slice(None)
    return channels[keep], read_only(np.searchsorted(keep, first))


def effective_rank(eigenvalues: np.ndarray, tol: float) -> int:
    """Smallest k with spectral tail-sum beyond k at most tol * trace."""
    eig = np.asarray(eigenvalues, dtype=float)
    trace = float(eig.sum())
    tails = trace - np.cumsum(eig)
    budget = tol * trace
    for k, tail in enumerate(tails, start=1):
        if tail <= budget:
            return k
    return len(eig)


def check_site_index(owner, i: int) -> None:
    """Refuse a site index outside [0, n) of a Gram or a context."""
    if not 0 <= i < owner.n:
        raise IndexError(f"site index {i} out of range [0, {owner.n})")


def rows_per_block(row_entries: int) -> int:
    """How many rows of ``row_entries`` entries hold about
    ROW_BLOCK_ENTRIES entries (at least one row)."""
    return max(1, ROW_BLOCK_ENTRIES // row_entries)


def site_blocks(n: int, d: int) -> list[slice]:
    """Runs of consecutive sites, covering all n, whose rows of an nd x nd
    matrix hold about ROW_BLOCK_ENTRIES entries each (at least one site)."""
    step = rows_per_block(n * d * d)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _dense(channels: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The read-only G = sum_m K_m (x) q_m q_m^T of (c, N, N) channel Grams:
    their sum S, taken from the kernels' C-order layout, averaged with its
    transpose into one fresh C-order buffer (exactly symmetric, as IEEE
    addition commutes).  One channel, whose orthogonal Q is [[+-1]], is G
    itself: it is returned, not copied."""
    c, N, _ = channels.shape
    if c == 1:
        return read_only(channels[0])
    layout = np.ascontiguousarray(np.moveaxis(channels, 0, -1))  # (N, N, c)
    S = OperatorKernel.channel_sum(layout, basis)
    St = S.transpose(0, 2, 1, 3)  # (i, a, j, b): G's entry order
    data = np.add(St, St.transpose(2, 3, 0, 1), order="C").reshape(N * c, N * c)
    data *= 0.5
    return read_only(data)


def _rounding_bound(stack, index, top: float, QQ: np.ndarray, gamma: float) -> float:
    """A bound on |G - sum_m K_m (x) q_m q_m^T| (Frobenius) for the G that
    ``_dense`` forms, from the distinct channels ``stack[index]``, their
    largest |entry| ``top`` and QQ[a, m] = Q[a, m]^2, in O(c N^2).

    Entry ((i,a),(j,b)) of the channel sum S is a c-term dot product of the
    K_m[i,j] with the rounded products Q[a,m] Q[b,m].  In any order of
    summation it errs by at most gamma_(c+1) sum_m |K_m[i,j] Q[a,m] Q[b,m]|,
    gamma_k = k u / (1 - k u), u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1, with the product's rounding
    as one more step).  S's entries ((i,a),(j,b)) and ((j,b),(i,a)) have the
    same terms, as K_m is symmetric; averaging them is one addition and an
    exact halving, so G's entry errs by at most gamma_(c+2) times that sum,
    and so does its distance from S's (half the two entries' difference,
    plus the addition's rounding).  The triangle inequality over channels,
    with | |K_m| (x) |q_m| |q_m|^T |_F = |K_m|_F |q_m|^2, gives
    gamma_(c+2) sum_m |K_m|_F |q_m|^2.  One channel is G itself, and
    its bound is 0.  ``gamma`` is 1.01 (c + 2) u, which
    covers gamma_(c+2)'s denominator and the rounding of this evaluation;
    the norms are taken of K_m / top, one distinct channel at a time in one
    (N, N) buffer, so no square overflows; and gradual underflow adds at
    most (c + 2) 2^-1074 to an entry, N c (c + 2) 2^-1074 in all.  The
    bound holds |S - G| (Frobenius), each entry of
    G - sum_m K_m (x) q_m q_m^T and the shift of G's eigenvalues (Weyl) too.
    """
    c, N = len(QQ), stack.shape[-1]
    if c == 1:
        return 0.0
    scaled = np.empty((N, N))
    norms = np.empty(len(stack))
    for m, K in enumerate(stack):
        np.divide(K, top or 1.0, out=scaled)
        norms[m] = np.einsum("ij,ij->", scaled, scaled)
    norms = np.sqrt(norms)[index]
    return gamma * top * float(norms @ QQ.sum(axis=0)) + N * c * (c + 2) * 2.0**-1074


@dataclass(frozen=True, eq=False)
class BlockGram:
    """The n*d x n*d matrix with block (i,j) = K(s_i, s_j): a value, certified
    when it is built, whose data and factor are computed once, when first
    read.

    A Gram is built from (c, N, N) channel Grams K_m and a (c, c)
    orthogonal basis Q whose column q_m belongs to channel m; its data is
    G = sum_m K_m (x) q_m q_m^T (``_dense``), formed on its first read.  A
    kernel's Gram has its d channels on N = n sites (``assemble_gram``); a
    raw matrix is its own one channel, Q = [[1]] (``raw_gram``), and so is
    G, at drift 0.  The constructor does channel-sized work only: it checks
    that the channels are finite and exactly symmetric, decomposes them,
    forms diag G = diag(K_m) (Q o Q)^T (the jitter ladder's unit and the
    scale read it) and bounds G's rounding a priori (the drift,
    ``_rounding_bound``).  Only a Gram whose entries could reach the largest
    float forms G at once, to refuse it if one does.  n = len(sites) and
    d = c * N / n.  The arrays are taken, not copied, and made read-only:
    the channels may be any strided view, such as ``assemble_gram``'s
    (d, n, n) view of the spec's (n, n, d) array or a broadcast of one
    channel d times, as ``eigh`` and the Cholesky copy each matrix into
    LAPACK's own buffer.  Equal channel Grams are decomposed and factored
    once (``_group_channels``), and only the distinct stacks are kept: the
    eigenvectors and channel factors of every channel are derived from them
    when read.
    """

    sites: np.ndarray  # (n, k): row i is site s_i
    channels: np.ndarray  # (c, N, N): channel m's scalar Gram
    basis: np.ndarray  # (c, c): column m belongs to channel m
    n: int = field(init=False)
    d: int = field(init=False)
    size: int = field(init=False)  # n * d
    scale: float = field(init=False)  # max |G_ii|: max |G_ij| when G is PSD
    spectrum: SpectrumReport = field(init=False)
    _diagonal: np.ndarray = field(init=False, repr=False)  # G's diagonal
    _distinct: tuple = field(init=False, repr=False)  # see _group_channels

    def __post_init__(self):
        channels, basis = self.channels, self.basis
        distinct = stack, index = _group_channels(channels)
        top, QQ = _max_abs(stack), basis * basis
        if not np.array_equal(stack, stack.transpose(0, 2, 1)):
            raise GramError("channel Grams are not symmetric")
        gamma = 1.01 * (len(basis) + 2) * 2.0**-53
        # G's diagonal, entry (i, a) at i * c + a, with the bits of G's own
        diagonal = (np.ascontiguousarray(np.diagonal(stack, axis1=1, axis2=2)[index].T) @ QQ.T).ravel()
        scale = _max_abs(diagonal)
        drift = _rounding_bound(stack, index, top, QQ, gamma)
        # each entry of S is at most (1 + gamma) top max_a |Q[a, :]|^2
        # (Cauchy-Schwarz over channels); while twice that is below the
        # largest float no entry of G overflows, and past it G is formed
        # now and refused if one does
        if not 2.0 * (1.0 + 2.0 * gamma) * top * QQ.sum(axis=1).max() < np.finfo(float).max:
            _max_abs(self.data)
        sites = np.asarray(self.sites, dtype=float)
        n, size = len(sites), len(channels) * channels.shape[-1]
        if n == 0 or size % n:
            raise GramError(f"{size} rows do not split into {n} sites")
        report = SpectrumReport.from_channels(distinct, basis, drift)
        for array in (sites, channels, basis, diagonal, stack):
            read_only(array)
        derived = dict(sites=sites, n=n, d=size // n, size=size, scale=scale,
                       spectrum=report, _diagonal=diagonal, _distinct=distinct)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # G, formed on first read
    data = cached_property(lambda self: _dense(self.channels, self.basis))

    def block(self, i: int, j: int) -> np.ndarray:
        check_site_index(self, i)
        check_site_index(self, j)
        d = self.d
        return self.data[i * d : (i + 1) * d, j * d : (j + 1) * d]

    @cached_property
    def _factorization(self) -> tuple[np.ndarray, float, float] | None:
        """(the stacked factors L of the distinct channel Grams, jitter
        used, accepted bound), or None when the whole ladder fails: see
        ``factorize``.  Channel m's factor is L[index][m]."""
        stack = self._distinct[0]
        target, scratch = np.empty(stack.shape), np.empty(stack.shape[1:])
        for eps in _jitter_ladder(self):
            try:
                L, residual = _jittered_cholesky(stack, eps, target, scratch)
            except np.linalg.LinAlgError:
                continue
            residual += self.spectrum.drift
            if residual <= RECON_TOL * (1.0 + self.scale):
                return read_only(L), eps, residual
        return None

    def _accepted(self, k: int):
        if self._factorization is None:
            raise IndefiniteMatrixError(
                "matrix not factorizable within the jitter ladder (indefinite)"
            )
        return self._factorization[k]

    # a square root F of data + jitter_used * I, formed on first read from
    # the distinct channel factors, and a bound on |F F^T - that|
    factor = cached_property(
        lambda self: _channel_factor(self._accepted(0)[self._distinct[1]], self.basis))
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
    # a (d, n, n) view of the spec's (n, n, d) channels: nothing is copied
    ch = np.moveaxis(spec.channels(kernel.sq_dists(S, S)), -1, 0)
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
    return BlockGram(sites=S, channels=(0.5 * (raw + raw.T))[None], basis=np.ones((1, 1)))


def psd_check(gram: BlockGram) -> SpectrumReport:
    """The Gram's PSD certificate, made once when it was built (see
    BlockGram and SpectrumReport)."""
    return gram.spectrum


def _jitter_ladder(gram: BlockGram):
    unit = float(gram._diagonal.sum()) / gram.size
    if unit <= 0.0:
        unit = 1.0
    yield 0.0
    eps = 1e-12 * unit
    top = 1e-6 * unit
    while eps <= top * (1 + 1e-15):
        yield eps
        eps *= 10.0


def _jittered_cholesky(A: np.ndarray, eps: float, target: np.ndarray, scratch: np.ndarray):
    """Stacked Cholesky L of A + eps*I for a (c, N, N) stack A, and its
    residual max |L L^T - (A + eps*I)|.  A + eps*I is formed in ``target``,
    a C-order (c, N, N) buffer, and the residual is measured one channel at
    a time in ``scratch``, an (N, N) buffer; both are the caller's, so a
    ladder allocates them once.  L is the one array a rung allocates."""
    N = A.shape[-1]
    np.add(A, 0.0, out=target)  # A + eps*I entry for entry (-0.0 too), no eye
    target.reshape(-1, N * N)[:, :: N + 1] += eps
    L = np.linalg.cholesky(target)
    maxima = np.empty(len(L))  # a NaN carries through to the max
    for m, (Lm, Am) in enumerate(zip(L, target)):
        np.matmul(Lm, Lm.T, out=scratch)
        scratch -= Am
        maxima[m] = np.abs(scratch, out=scratch).max()
    return L, float(maxima.max())


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
    within RECON_TOL * (1 + scale); it bounds |F F^T - (G + eps*I)|
    entrywise, since sum_m |Q[a,m] Q[b,m]| <= 1 (Cauchy-Schwarz over the
    rows of Q) and the drift bounds every entry of G's rounding.  F is
    lower triangular when Q = I, so a one-channel Gram's F is the Cholesky
    factor of G + eps*I and its bound is that factor's residual.  The unit
    tr(G)/(nd) and the scale max|G_ii| are read off the diagonal the Gram
    keeps; the ladder never forms G (see BlockGram).

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
