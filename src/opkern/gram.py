"""Block Gram matrices: assembly, PSD certification, Cholesky with a jitter
ladder, and spectral-decay diagnostics, plus CSV/JSON export."""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .kernels import PSD_EIG_TOL, OperatorKernel, as_sites, read_only
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
EFFECTIVE_RANK_TOLS = (1e-2, 1e-4, 1e-6, 1e-8)
# entries per row block of a blockwise nd x nd pass: 8 MB of float64 scratch
ROW_BLOCK_ENTRIES = 1 << 20
UNIT_ROUNDOFF = 2.0**-53
# a channel joins a proportional class when the bound on its residual from
# the class reference is at most this many units of roundoff times its own
# Frobenius norm: the drift then keeps its order, gamma_(c+2) sum |K_m|_F
PROPORTIONAL_ULPS = 16.0


class GramError(ValueError):
    pass


class IndefiniteMatrixError(GramError):
    """Cholesky failed within the jitter ladder; the matrix is indefinite."""


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Symmetric eigendecomposition of a Gram matrix plus decay diagnostics;
    the one decomposition every spectral consumer reads.  A value: its
    arrays are read-only, and its verdicts are derived from them.

    It decomposes one reference of each proportional class among the
    Gram's (c, N, N) channel Grams (c = d, N = n for a kernel Gram; c = 1,
    N = nd for a one-channel Gram): channel m is r_m R for its class's
    reference R and a ratio r_m > 0 up to a bounded residual
    (``_channel_table``; equal channels share a class with r_m = 1), so its
    eigenvalues are r_m mu(R) and its eigenvectors R's.  ``vectors`` is the
    stack of the references' eigenvectors, each one's in nonincreasing
    order of its eigenvalues (a reversed view of the one array ``eigh``
    returns), and channel m's are ``vectors[index[m]]``.  ``eigenvectors``,
    that stack expanded to one per channel, is derived on its first read
    (``vectors`` itself when every channel is its own class), so a Gram
    with proportional channels keeps one copy of each reference's stack.
    ``eigenvalues[k]`` belongs to kron(u, basis[:, m]) with
    u = eigenvectors[m, :, j] and (m, j) = divmod(order[k], N).
    ``drift`` bounds the distance of the Gram's eigenvalues from
    ``eigenvalues`` (Weyl): the PSD verdict reads ``min_eig - drift``.  It
    is the sum of a-priori bounds, each fixed before G is formed: on the
    Frobenius distance of G from sum_m K_m (x) q_m q_m^T
    (``_rounding_bound``; at least G's measured distance from the channel
    sum it averages, so the verdict is never looser than one on a measured
    drift), on that of sum_m K_m (x) q_m q_m^T from
    sum_m r_m R_m (x) q_m q_m^T (``_proportional_residual``, times |q_m|^2),
    and on the rounding of the products r_m mu (``from_channels``).  One
    channel is its own data and its own class: its drift is 0.
    """

    eigenvalues: np.ndarray  # sorted nonincreasing
    vectors: np.ndarray  # (references, N, N)
    index: np.ndarray  # vectors[index[m]]: channel m's stack
    basis: np.ndarray
    order: np.ndarray
    drift: float

    @classmethod
    def from_channels(cls, references, index, ratio, basis, drift: float) -> "SpectrumReport":
        """One stacked eigh of the class references among the (c, N, N)
        channel Grams K_m of a Gram G whose eigenvalues lie within ``drift``
        of those of sum_m r_m R_m (x) q_m q_m^T, q_m = basis[:, m], with
        R_m = references[index[m]] and r_m = ratio[m] (``_channel_table``).

        Channel m's eigenvalues are the products fl(r_m mu) of R_m's.  Each
        errs by at most u |r_m mu| + 2^-1075 (gradual underflow), and
        |r_m mu| <= |fl(r_m mu)| / (1 - u), so the drift gains
        1.01 u max_k |eigenvalues[k]| + 2^-1074 when some r_m is not 1;
        the 1.01 covers 1 / (1 - u) and this evaluation's own rounding."""
        lam, vecs = np.linalg.eigh(references)  # ascending per channel
        lam = lam[index][:, ::-1] * ratio[:, None]  # r_m > 0 keeps each channel's order
        if np.any(ratio != 1.0):
            drift += 1.01 * UNIT_ROUNDOFF * float(np.abs(lam).max()) + 2.0**-1074
        order = np.argsort(-lam.ravel(), kind="stable")
        eig = lam.ravel()[order]
        if not np.isfinite(eig.sum()):  # the PSD margin and the ranks scale with it
            raise GramError("Gram spectrum overflows")
        return cls(*map(read_only, (eig, vecs[..., ::-1], index, basis, order)), drift)

    lambda_max = property(lambda self: float(self.eigenvalues[0]))
    min_eig = property(lambda self: float(self.eigenvalues[-1]))
    trace = property(lambda self: float(self.eigenvalues.sum()))

    @property
    def psd(self) -> bool:
        return self.min_eig - self.drift >= -PSD_EIG_TOL * max(self.lambda_max, 1.0)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(c, N, N), read-only: channel m's eigenvectors, nonincreasing."""
        if len(self.vectors) == len(self.index):  # every channel its own class
            return self.vectors
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
        m, j = np.divmod(self.order[:k], self.vectors.shape[-1])
        u = self.vectors[self.index[m], :, j]  # (k, N)
        q = self.basis.T[m]  # (k, c)
        return (u[:, :, None] * q[:, None, :]).reshape(k, -1)


def _max_abs(data: np.ndarray) -> float:
    """max |entry| of an array (0 when empty) with no temporary; a NaN or
    an infinity carries through and is refused."""
    top = max(float(data.max(initial=0.0)), -float(data.min(initial=0.0)))
    if not math.isfinite(top):
        raise GramError("matrix has non-finite entries")
    return top


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


def check_integer(name: str, value) -> int:
    """``value`` as an int once it is an integer (a numpy integer is; a
    bool, a float or an array of one is not); a TypeError names ``name``."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None


def check_seed(seed) -> int:
    """``seed`` as an int once it is an integer (``check_integer``) in [0, 2**64)."""
    seed = check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def check_site_index(owner, i: int) -> None:
    """Refuse a site index that is not an integer (``check_integer``) or
    lies outside [0, n) of a Gram or a context."""
    check_integer("site index", i)
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


def _rounding_bound(norms: np.ndarray, top: float, QQ: np.ndarray, gamma: float) -> float:
    """A bound on |G - sum_m K_m (x) q_m q_m^T| (Frobenius) for the G that
    ``_dense`` forms from c >= 2 channel Grams K_m, from their norms
    |K_m|_F / top (one per channel, as ``_channel_table`` records them),
    their largest |entry| ``top`` and QQ[a, m] = Q[a, m]^2, in O(c^2).

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
    gamma_(c+2) sum_m |K_m|_F |q_m|^2.  ``gamma`` is 1.01 (c + 2) u, which
    covers gamma_(c+2)'s denominator and the rounding of this evaluation
    and of the norms; and gradual underflow adds at most (c + 2) 2^-1074 to
    an entry, N c (c + 2) 2^-1074 in all.  The bound holds |S - G|
    (Frobenius), each entry of G - sum_m K_m (x) q_m q_m^T and the shift of
    G's eigenvalues (Weyl) too.  (One channel is G itself, at bound 0.)
    """
    c, N = len(QQ), len(norms)
    return gamma * top * float(norms @ QQ.sum(axis=0)) + N * c * (c + 2) * 2.0**-1074


def _proportional_residual(K, R, r: float, top: float, norm_R: float, scratch) -> float:
    """A bound on |K - r R|_F for (N, N) matrices K and R whose entries are
    at most ``top`` in size, a float r > 0 and norm_R = |R|_F / top, in
    O(N^2) and in ``scratch``, an (N, N) buffer.

    With u = 2^-53 and gradual underflow, the product P = fl(r R) is
    r R (1 + alpha) + eta entrywise, |alpha| <= u, |eta| <= 2^-1075, so
    |P - r R|_F <= u r |R|_F + N 2^-1075.  The difference D = fl(K - P) is
    (K - P)(1 + beta), |beta| <= u (a subnormal difference is exact), and
    D / top is formed with one more relative u and absolute 2^-1075 per
    entry.  The sum s of the squares of D / top, in any order of summation,
    is at least (1 - gamma_(N^2)) times their exact sum (Higham, section
    3.1, the squares' rounding as one more step), less N^2 2^-1075 for
    squares that underflow.  So |D / top|_F <= sqrt(s) (1 + (N^2 / 2 + 2) u
    + O(u^2)) + N 2^-537, and |K - r R|_F is at most
    top (sqrt(s) (1 + (N^2 + 8) u) + 1.01 u r norm_R + N 2^-537)
    + N 2^-1073, the slack covering the 1 / (1 - u) factors, the rounding
    of norm_R and that of this evaluation.  As | E (x) q q^T |_F =
    |E|_F |q|^2, the triangle inequality over channels bounds the Frobenius
    distance of sum_m K_m (x) q_m q_m^T from sum_m r_m R_m (x) q_m q_m^T,
    and so the shift of its eigenvalues (Weyl), by sum_m of these bounds
    times |q_m|^2.
    """
    N = len(K)
    np.multiply(R, r, out=scratch)
    np.subtract(K, scratch, out=scratch)
    scratch /= top
    s = float(np.einsum("ij,ij->", scratch, scratch))
    u = UNIT_ROUNDOFF
    return (top * (math.sqrt(s) * (1.0 + (N * N + 8) * u) + 1.01 * u * r * norm_R + N * 2.0**-537)
            + N * 2.0**-1073)


def _channel_table(channels: np.ndarray, top: float):
    """(stack, references, table): (c, N, N) channel Grams K_m, whose
    largest |entry| is ``top``, grouped in one pass; a K_m that is not
    exactly symmetric is refused.  ``table`` is five read-only arrays with
    one row per channel m: its slot in ``stack`` (the exactly distinct K_m:
    the channels themselves, not copied, when no two are equal), its class
    (the position of its reference R in ``references``: ``stack`` itself
    when no two distinct matrices share a class), r_m, a residual bound b_m,
    and |K_m|_F / top (taken of K_m / top, so that no square overflows; 0
    for one channel, whose drift is 0).

    A channel equal to an earlier one copies that one's row.  Otherwise it
    takes the next slot and joins the first earlier class whose reference R
    has K_m = r_m R up to a bound b_m (``_proportional_residual``) of at
    most PROPORTIONAL_ULPS u |K_m|_F, r_m > 0 one division of the two
    largest diagonal entries; or else it is a class of its own, r_m = 1 and
    b_m = 0.  A matrix whose diagonal has no positive entry, a zero one
    among them, is always its own class, and an overflow on the way (a NaN
    or an infinity) rejects a pair."""
    c, N, _ = channels.shape
    diag = np.diagonal(channels, axis1=1, axis2=2)
    scratch = np.empty((N, N)) if c > 1 else None
    rows, keep, refs = [], [], []  # refs: (channel, largest diagonal entry, norm)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, K in enumerate(channels):
            # unequal diagonals tell most unequal matrices apart in O(N)
            twin = next((rows[j] for j in keep
                         if np.array_equal(diag[j], diag[m]) and np.array_equal(channels[j], K)), None)
            if twin is not None:
                rows.append(twin)
                continue
            if not np.array_equal(K, K.T):
                raise GramError("channel Grams are not symmetric")
            norm, dmax = 0.0, float(diag[m].max())
            if c > 1:
                np.divide(K, top or 1.0, out=scratch)
                norm = math.sqrt(np.einsum("ij,ij->", scratch, scratch))
            row = (len(keep), len(refs), 1.0, 0.0, norm)
            for at, (p, p_dmax, p_norm) in enumerate(refs):
                r = dmax / p_dmax if p_dmax > 0.0 else 0.0
                if 0.0 < r < math.inf:
                    bound = _proportional_residual(K, channels[p], r, top, p_norm, scratch)
                    if bound <= PROPORTIONAL_ULPS * UNIT_ROUNDOFF * top * norm:
                        row = (len(keep), at, r, bound, norm)
                        break
            else:
                refs.append((m, dmax, norm))
            keep.append(m)
            rows.append(row)
    stack = channels[keep] if len(keep) < c else channels
    references = channels[[p for p, _, _ in refs]] if len(refs) < len(keep) else stack
    return stack, references, [read_only(np.array(column)) for column in zip(*rows)]


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
    scale read it) and bounds a priori G's rounding (``_rounding_bound``)
    and the residuals of its proportional classes (the drift, see
    SpectrumReport).  Only a Gram whose entries could reach the largest
    float forms G at once, to refuse it if one does.  n = len(sites) and
    d = c * N / n.  The arrays are taken, not copied, and made read-only:
    the channels may be any strided view, such as ``assemble_gram``'s
    (d, n, n) view of the spec's (n, n, d) array or a broadcast of one
    channel d times, as ``eigh`` and the Cholesky copy each matrix into
    LAPACK's own buffer.  One pass over the channels (``_channel_table``)
    finds the exactly equal ones, factored once, and the proportional ones,
    K_m = r_m R such as a separable kernel's lam_m K, decomposed once: only
    the distinct factors and the references' eigenvectors are kept, and
    every channel's are derived from them when read.  G, the factor and
    what reads them do not depend on the proportional classes.
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
    _distinct: tuple = field(init=False, repr=False)  # (stack, slot): see _channel_table

    def __post_init__(self):
        channels, basis = self.channels, self.basis
        top, QQ = _max_abs(channels), basis * basis
        stack, references, (slot, place, ratio, residual, norms) = _channel_table(channels, top)
        gamma = 1.01 * (len(basis) + 2) * UNIT_ROUNDOFF
        diag = np.diagonal(stack, axis1=1, axis2=2)
        # G's diagonal, entry (i, a) at i * c + a, with the bits of G's own
        diagonal = (np.ascontiguousarray(diag[slot].T) @ QQ.T).ravel()
        scale = _max_abs(diagonal)
        drift = 0.0  # G is its one channel, its own class
        if len(basis) > 1:
            drift = (_rounding_bound(norms, top, QQ, gamma)
                     + (1.0 + gamma) * float(residual @ QQ.sum(axis=0)))
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
        report = SpectrumReport.from_channels(references, place, ratio, basis, drift)
        for array in (sites, channels, basis, diagonal, stack):
            read_only(array)
        derived = dict(sites=sites, n=n, d=size // n, size=size, scale=scale,
                       spectrum=report, _diagonal=diagonal, _distinct=(stack, slot))
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
        ``factorize``.  Channel m's factor is L[slot[m]]."""
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

    @cached_property
    def factor(self) -> np.ndarray:
        """A square root F of data + jitter_used * I, formed on first read
        from the distinct channel factors; ``factor_residual`` bounds
        |F F^T - that|."""
        L, slot = self._accepted(0), self._distinct[1]
        return _channel_factor(L if len(L) == len(slot) else L[slot], self.basis)

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
    """The grid sizes of a decay profile as ints, once they are integers
    (``check_integer``), nonempty, positive and strictly increasing."""
    counts = [check_integer("site count", c) for c in site_counts]
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
    try:
        a, b = map(float, domain)
    except (TypeError, ValueError):
        raise GramError(f"domain must be two numbers, got {domain!r}") from None
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
