import contextlib
import csv
import io
import json
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opkern.gram import (
    DEFAULT_SIZE_CAP,
    PSD_EIG_TOL,
    RECON_TOL,
    BlockGram,
    GramError,
    IndefiniteMatrixError,
    assemble_gram,
    effective_rank,
    factorize,
    gram_to_csv,
    psd_check,
    spectral_decay_profile,
    spectrum_to_json_dict,
    _jitter_ladder,
)
from opkern import gram as gram_mod
from opkern.gp import covariance_error_report, sample_paths
from opkern.kernels import OperatorKernel, make_kernel
from opkern.reprcsv import CHUNK, write_csv_rows
from opkern.rkhs import RkhsContext, make_context, onb_expansion

GAUSS1 = "gauss(sigma=1,ell=1,dim=1)"

# kernels whose Grams are PSD on arbitrary site sets (rational2 is not:
# its antisymmetric component has a zero diagonal but nonzero off-diagonal
# values, so any two sites at distance != 1 produce a negative eigenvalue)
PSD_KERNELS = [
    GAUSS1,
    "gauss(sigma=2,ell=0.5,dim=3)",
    "diagexp3",
    "separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))",
    "normalized(inner=gauss(sigma=3,ell=1,dim=2))",
]


# every square spec of the zoo, nested normalized/separable forms included
SQUARE_KERNELS = PSD_KERNELS + [
    "gauss(sigma=1.5,ell=1,dim=8)",
    "rational2",
    "separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7)))",
    "normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8)))",
    "normalized(inner=normalized(inner=diagexp3))",
]
CHANNEL_KERNELS = [t for t in SQUARE_KERNELS if make_kernel(t).dim_h > 1]
EPS = np.finfo(np.float64).eps


def raw_gram(data):
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    return BlockGram(sites=[np.array([float(i)]) for i in range(n)], data=data)


def dense_eigh(data):
    """Test-local oracle: one dense eigh of the whole matrix, eigenvalues
    nonincreasing, column k of the vectors belonging to eigenvalue k."""
    eig, vecs = np.linalg.eigh(data)
    return eig[::-1], vecs[:, ::-1]


def oracle_psd(eig):
    return eig[-1] >= -PSD_EIG_TOL * max(eig[0], 1.0)


@contextlib.contextmanager
def linalg_shapes(name):
    """Record the argument shape of every np.linalg.<name> call."""
    shapes, real = [], getattr(np.linalg, name)

    def counted(a, *args, **kw):
        shapes.append(np.shape(a))
        return real(a, *args, **kw)

    with mock.patch.object(np.linalg, name, counted):
        yield shapes


def dense_jitter(g):
    """The ladder's rung for g's matrix as its own one channel, a dense
    Cholesky per rung (None: indefinite)."""
    try:
        return factorize(BlockGram(sites=g.sites, data=g.data)).jitter_used
    except IndefiniteMatrixError:
        return None


def distinct_count(channels):
    """The number of distinct matrices in a stack, by exact equality."""
    firsts = []
    for K in channels:
        if not any(np.array_equal(K, F) for F in firsts):
            firsts.append(K)
    return len(firsts)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def every_channel_oracle(g):
    """Test-local oracle: the spectrum and the ladder's outcome with every
    channel Gram decomposed, equal or not, as (eigenvalues, eigenvectors,
    order) and (F, jitter, bound) or None."""
    lam, vecs = np.linalg.eigh(g.channels)
    lam, vecs = lam[:, ::-1], vecs[..., ::-1]
    order = np.argsort(-lam.ravel(), kind="stable")
    spectrum = (lam.ravel()[order], vecs, order)
    c, N, _ = g.channels.shape
    scale = 1.0 + float(np.abs(g.data).max())
    for eps in _jitter_ladder(g):
        target = g.channels + 0.0
        for K in target:
            K[np.diag_indices(N)] += eps
        try:
            L = np.linalg.cholesky(target)
        except np.linalg.LinAlgError:
            continue
        bound = float(np.abs(L @ np.swapaxes(L, -1, -2) - target).max()) + g.spectrum.drift
        if bound <= RECON_TOL * scale:
            F = L.transpose(1, 2, 0)[:, None] * g.basis[None, :, None]
            return spectrum, (F.reshape(c * N, c * N), eps, bound)
    return spectrum, None


@st.composite
def symmetric_matrices(draw):
    """Exactly symmetric n x n matrices, n in 1-12, scaled by 1e-3 to 1e3:
    PSD of any rank (X X^T) or indefinite (A + A^T)."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        X = rng.standard_normal((n, draw(st.integers(1, n))))
        A = X @ X.T
    else:
        A = rng.standard_normal((n, n))
    return scale * 0.5 * (A + A.T)


class TestAssemble:
    def test_diagexp3_two_sites(self):
        g = assemble_gram(make_kernel("diagexp3"), [[0], [1]])
        D = np.diag([1.0, math.exp(-1), math.exp(-1)])
        expected = np.block([[np.eye(3), D], [D, np.eye(3)]])
        np.testing.assert_allclose(g.data, expected)
        assert (g.n, g.d) == (2, 3)

    def test_single_site(self):
        g = assemble_gram(make_kernel(GAUSS1), [[0]])
        np.testing.assert_allclose(g.data, [[1.0]])

    def test_rational2_off_diagonal_block(self):
        g = assemble_gram(make_kernel("rational2"), [[0], [1]])
        np.testing.assert_allclose(g.block(0, 1), 0.5 * np.ones((2, 2)))

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(0)
        sites = rng.uniform(-2, 2, size=(8, 3))
        g = assemble_gram(make_kernel("normalized(inner=diagexp3)"), sites)
        assert np.abs(g.data - g.data.T).max() == 0.0

    def test_size_cap(self, monkeypatch):
        # one site past DEFAULT_SIZE_CAP is rejected before anything is assembled
        def fail(S, T):
            raise AssertionError("kernel Gram assembled")

        monkeypatch.setattr(OperatorKernel, "sq_dists", staticmethod(fail))
        k = make_kernel("gauss(sigma=1,ell=1,dim=3)")
        n = DEFAULT_SIZE_CAP // 3 + 1
        with pytest.raises(GramError, match=f"Gram size {3 * n} exceeds cap {DEFAULT_SIZE_CAP}"):
            assemble_gram(k, [[float(i)] for i in range(n)])

    def test_empty_sites(self):
        with pytest.raises(GramError, match="nonempty"):
            assemble_gram(make_kernel(GAUSS1), [])

    @pytest.mark.parametrize("text", SQUARE_KERNELS)
    def test_closed_form_evaluated_once(self, text):
        # the channels are the one closed-form evaluation: G is their sum
        spec = make_kernel(text).spec
        reads = Counter()

        class Spy:
            def __getattr__(self, name):
                reads[name] += 1
                return getattr(spec, name)

        sites = np.random.default_rng(3).uniform(-2, 2, size=(6, 2))
        g = assemble_gram(OperatorKernel(Spy()), sites)
        assert reads["channels"] == 1 and reads["values"] == 0
        ref = assemble_gram(make_kernel(text), sites)
        assert np.array_equal(g.data, ref.data) and np.array_equal(g.channels, ref.channels)


class TestPsdCheck:
    def test_injected_indefinite(self):
        report = psd_check(raw_gram([[0.0, 1.0], [1.0, 0.0]]))
        assert not report.psd
        assert report.min_eig == pytest.approx(-1.0)

    def test_gaussian_three_sites(self):
        # oracle: explicit 3x3 eigenvalues are all positive
        g = assemble_gram(make_kernel(GAUSS1), [[0], [0.5], [1]])
        oracle = np.linalg.eigvalsh(g.data)
        assert oracle.min() > 0
        assert psd_check(g).psd

    def test_rank_one_all_ones(self):
        report = psd_check(raw_gram(np.ones((3, 3))))
        np.testing.assert_allclose(report.eigenvalues, [3.0, 0.0, 0.0], atol=1e-12)
        assert report.psd

    def test_spectrum_cached(self):
        g = assemble_gram(make_kernel(GAUSS1), [[0], [1]])
        report = psd_check(g)
        assert g.spectrum is report

    @pytest.mark.parametrize("text", PSD_KERNELS)
    def test_psd_certificates_random_sites(self, text):
        k = make_kernel(text)
        rng = np.random.default_rng(42)
        for trial in range(40):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 4))
            sites = rng.uniform(-2, 2, size=(n, m))
            report = psd_check(assemble_gram(k, sites))
            assert report.psd, f"{text} failed PSD at trial {trial}"

    def test_rational2_psd_only_at_unit_distances(self):
        k = make_kernel("rational2")
        assert psd_check(assemble_gram(k, [[0], [1]])).psd
        assert not psd_check(assemble_gram(k, [[0], [0.5]])).psd

    def test_non_finite_rejected(self):
        with pytest.raises(GramError, match="non-finite"):
            psd_check(raw_gram([[np.nan]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_off_diagonal_non_finite_rejected(self, bad):
        with pytest.raises(GramError, match="^matrix has non-finite entries$"):
            psd_check(raw_gram([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("off", [0.4, np.nextafter(0.5, 1.0)])
    def test_asymmetric_rejected(self, off):
        with pytest.raises(GramError, match="not symmetric"):
            psd_check(raw_gram([[1.0, 0.5], [off, 1.0]]))

    @given(data=symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_eigenpairs_match_oracle(self, data):
        report = psd_check(raw_gram(data))
        oracle = np.linalg.eigvalsh(data)[::-1]
        big = max(float(np.abs(oracle).max()), 1.0)
        assert np.all(np.diff(report.eigenvalues) <= 0.0)
        assert np.abs(report.eigenvalues - oracle).max() <= 1e-12 * big
        # a matrix is its own one channel: basis [[1]], one (1, n, n) stack
        assert report.eigenvectors.shape == (1,) + data.shape
        assert np.array_equal(report.basis, [[1.0]])
        V = report.leading_vectors(len(data)).T
        diag = V.T @ data @ V
        assert np.abs(diag - np.diag(report.eigenvalues)).max() <= 1e-10 * big
        assert np.abs(V.T @ V - np.eye(len(data))).max() <= 1e-10


class TestFixedGram:
    """A Gram is certified when it is built, and fixed afterwards."""

    TEXT = "gauss(sigma=1,ell=1,dim=2)"

    def test_replacing_data_after_assembly_refused(self):
        # replacing the data of an assembled Gram once left its factor, and
        # the paths drawn from it, those of the old matrix
        ctx = make_context(make_kernel(self.TEXT), [[0], [1]])
        g = ctx.gram
        with pytest.raises(AttributeError, match="^cannot assign to field 'data'$"):
            g.data = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="read-only"):
            g.data[0, 0] = 1.0
        factorize(g)
        target = g.data + g.jitter_used * np.eye(g.size)
        assert np.abs(g.factor @ g.factor.T - target).max() <= RECON_TOL
        assert covariance_error_report(sample_paths(ctx, 20_000, seed=0)).pass_

    @pytest.mark.parametrize("name", ["n", "d", "sites", "data", "channels", "basis", "spectrum"])
    def test_rebinding_refused(self, name):
        g = assemble_gram(make_kernel(self.TEXT), [[0], [1]])
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(g, name, getattr(g, name))

    def test_arrays_read_only(self):
        g = assemble_gram(make_kernel(self.TEXT), [[0], [1]])
        for array in (g.data, g.channels):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        # an array handed to the constructor is taken as it is, not copied,
        # and cannot be written through afterwards
        data = np.eye(2)
        raw = BlockGram(sites=np.zeros((2, 1)), data=data)
        assert raw.data is data and not raw.channels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            data[0, 0] = 2.0

    @pytest.mark.parametrize("text", SQUARE_KERNELS)
    def test_one_channel_sum_per_assembly(self, text, monkeypatch):
        # G and its drift come from one channel sum; certifying and
        # factoring the Gram add none
        calls = Counter()
        channel_sum = OperatorKernel.channel_sum

        def counted(channels, basis):
            calls["channel_sum"] += 1
            return channel_sum(channels, basis)

        monkeypatch.setattr(OperatorKernel, "channel_sum", staticmethod(counted))
        g = assemble_gram(make_kernel(text), [[0.0], [1.0], [2.5]])
        assert calls["channel_sum"] == 1
        psd_check(g)
        spectrum_to_json_dict(g)
        if g.spectrum.psd:
            factorize(g)
        assert calls["channel_sum"] == 1

    def test_data_alone_is_its_own_channel(self):
        g = gram_mod.raw_gram(make_kernel(self.TEXT), [[0], [1]], np.diag([1.0, 2.0, 3.0, 4.0]))
        assert g.channels.shape == (1, 4, 4) and np.array_equal(g.basis, [[1.0]])
        assert g.spectrum.drift == 0.0 and psd_check(g) is g.spectrum

    @pytest.mark.parametrize("shape", [(3, 3), (4, 5), (4,)])
    def test_raw_gram_shape_checked(self, shape):
        message = rf"^raw Gram shape \({shape[0]},.*\) != expected \(4, 4\)$"
        with pytest.raises(GramError, match=message):
            gram_mod.raw_gram(make_kernel(self.TEXT), [[0], [1]], np.zeros(shape))

    def test_overflowing_spectrum_refused(self):
        # every entry is finite, but the largest eigenvalue is not: a PSD
        # margin scaled by it would pass any matrix
        with pytest.raises(GramError, match="^Gram spectrum overflows$"):
            assemble_gram(make_kernel("gauss(sigma=9e153,ell=1)"), [[0], [0.5], [1]])


class TestChannelPath:
    """psd_check on kernel Grams (stacked channel eigh) against a dense
    eigendecomposition of the same matrix as the oracle."""

    @given(
        text=st.sampled_from(SQUARE_KERNELS),
        n=st.integers(1, 12),
        dim=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        unit=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense(self, text, n, dim, seed, unit):
        rng = np.random.default_rng(seed)
        if unit:  # pairwise distances 0 or 1 (rational2's PSD sets), repeats
            sites = rng.integers(0, 2, size=(n, 1)).astype(float)
        else:
            sites = rng.uniform(-3, 3, size=(n, dim))
        k = make_kernel(text)
        g = assemble_gram(k, sites)
        report = psd_check(g)
        eig, vecs = dense_eigh(g.data)
        big = max(eig[0], 1.0)
        # the kernel's d channels certified it (d = 1: the Gram itself)
        assert report.eigenvectors.shape == (g.d, g.n, g.n)
        assert report.basis is g.basis and g.basis is k.spec.basis
        assert report.drift <= 1e-12 * big
        assert np.all(np.diff(report.eigenvalues) <= 0.0)
        assert np.abs(report.eigenvalues - eig).max() <= 1e-12 * big
        if abs(eig[-1] + PSD_EIG_TOL * big) > 1e-12 * big:
            assert report.psd == oracle_psd(eig)
        if not report.psd:
            return
        ctx = RkhsContext(k, g)
        # G-orthonormal expansion; the defect grows like eps * lam_max / lam
        # over the kept eigenvalues lam, so this check keeps lam >= 1e-4 lam_max
        C = np.array([el.coeffs for el in onb_expansion(ctx, 1e-4)])
        assert np.abs(C @ g.data @ C.T - np.eye(len(C))).max() <= 1e-10
        # criterion 7's reconstruction of G on the full expansion
        V = g.data @ np.array([el.coeffs for el in onb_expansion(ctx, 1e-12)]).T
        assert np.abs(V @ V.T - g.data).max() <= 1e-8
        # the kept eigenspaces equal the dense ones: eigenvalues repeat (8-fold
        # for gauss dim=8), so compare projectors where a clear gap splits
        m = len(C)
        if m == len(eig) or eig[m - 1] - eig[m] >= 1e-4 * big:
            U, W = report.leading_vectors(m), vecs[:, :m].T
            assert np.abs(U.T @ U - W.T @ W).max() <= 1e-8

    def test_leading_vectors_are_eigenvectors(self):
        text = "separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=gauss(sigma=1,ell=1))"
        g = assemble_gram(make_kernel(text), [[0.0], [0.4], [1.5]])
        report = psd_check(g)
        U = report.leading_vectors(g.size)
        big = report.lambda_max
        assert np.abs(U @ U.T - np.eye(g.size)).max() <= 1e-12
        assert np.abs(U @ g.data @ U.T - np.diag(report.eigenvalues)).max() <= 1e-12 * big

    def test_verdict_allows_for_drift(self):
        # the channel spectrum bounds G's only up to the drift (Weyl): a
        # smallest channel eigenvalue just inside the PSD margin fails once
        # the drift could carry G's past it.  The channel is asymmetric by
        # 2 * off in its upper triangle, which eigh does not read: G is
        # [[1, off], [off, lam]] at drift sqrt(2) * off from the channel
        lam = -PSD_EIG_TOL + 1e-13
        for off, psd in [(0.0, True), (5e-13, False)]:
            K = np.array([[[1.0, 2 * off], [0.0, lam]]])
            g = BlockGram(sites=np.zeros((2, 1)), channels=K, basis=np.eye(1))
            report = psd_check(g)
            assert np.array_equal(g.data, [[1.0, off], [off, lam]])
            assert report.basis is not None and report.min_eig == lam
            assert report.drift == pytest.approx(math.sqrt(2) * off)
            assert report.psd is psd
        # a drift past DRIFT_TOL * max(lambda_max, 1) is refused
        K = np.array([[[1.0, 2e-3], [0.0, 1.0]]])
        with pytest.raises(GramError, match="^channels drift 1.414e-03 from the Gram they sum to$"):
            BlockGram(sites=np.zeros((2, 1)), channels=K, basis=np.eye(1))

    def test_replaced_data_is_certified_itself(self):
        # channel Grams cannot come with data they do not match: the data
        # comes alone, as its own one channel
        ref = assemble_gram(make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0], [1]])
        data = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(GramError, match="^a Gram is built from data alone or from channels and basis$"):
            BlockGram(sites=ref.sites, data=data, channels=ref.channels, basis=ref.basis)
        with pytest.raises(GramError, match="^a Gram is built from data alone or from channels"):
            BlockGram(sites=ref.sites, channels=ref.channels)
        g = BlockGram(sites=ref.sites, data=data)
        report = psd_check(g)
        assert g.channels.shape == (1, 4, 4) and np.array_equal(g.channels[0], data)
        assert np.array_equal(report.basis, [[1.0]]) and report.drift == 0.0
        assert not report.psd and report.min_eig == -1.0

    def test_ill_conditioned_normalized_certified_by_channels(self):
        # a normalized kernel's values are built from its closed-form
        # channels, so an ill-conditioned K(s,s) leaves G their sum up to
        # rounding of order eps * lam_max, and the channels certify G PSD
        # (a C^(-1/2) taken from eigh(C) put min_eig at -5.2e-9 at cond 1e8)
        c, s_ = math.cos(0.3), math.sin(0.3)
        Q = np.array([[c, -s_], [s_, c]])
        for small in (1e-6, 1e-8):
            B = Q @ np.diag([1.0, small]) @ Q.T
            B = 0.5 * (B + B.T)
            lit = "[" + ",".join(
                "[" + ",".join(repr(float(v)) for v in row) + "]" for row in B
            ) + "]"
            k = make_kernel(f"normalized(inner=separable(B={lit},base=gauss(sigma=1,ell=1)))")
            g = assemble_gram(k, np.linspace(0.0, 3.0, 40)[:, None])
            report = psd_check(g)
            eig, _ = dense_eigh(g.data)
            big = eig[0]
            assert report.eigenvectors.shape == (2, 40, 40)
            assert report.drift <= 1e-14 * big
            assert np.abs(report.eigenvalues - eig).max() <= 1e-12 * big
            assert report.psd and oracle_psd(eig)


class TestChannelFactor:
    """factorize on kernel Grams with d > 1 (one stacked Cholesky of the
    channel Grams per rung) against the dense ladder on the same matrix."""

    @given(
        text=st.sampled_from(CHANNEL_KERNELS),
        n=st.integers(1, 12),
        dim=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        unit=st.booleans(),
        spread=st.sampled_from([1.0, 0.1, 1e-3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_ladder(self, text, n, dim, seed, unit, spread):
        rng = np.random.default_rng(seed)
        if unit:  # pairwise distances 0 or 1 (rational2's PSD sets), repeats
            sites = rng.integers(0, 2, size=(n, 1)).astype(float)
        else:  # close sites give near-singular Grams that need jitter
            sites = spread * rng.uniform(-3, 3, size=(n, dim))
        g = assemble_gram(make_kernel(text), sites)
        with linalg_shapes("cholesky") as shapes:
            try:
                jitter = factorize(g).jitter_used
            except IndefiniteMatrixError:
                jitter = None
        # the channel path ran: stacked Cholesky calls of the distinct
        # channel Grams only, never an nd x nd one
        assert shapes and set(shapes) == {(distinct_count(g.channels), g.n, g.n)}
        report = g.spectrum
        dense = dense_jitter(g)
        if jitter != dense:
            # Filter: the two ladders round differently, so they may stop on
            # neighbouring rungs (None past the top) where G's smallest
            # eigenvalue is within 10x of the edge between them.  Rung e
            # fails below lam_min = -e; rung 0's edge is lam_min = 0, blurred
            # by the Cholesky's rounding floor nd * eps * lam_max.
            rungs = list(_jitter_ladder(g)) + [None]
            i, j = sorted((rungs.index(jitter), rungs.index(dense)))
            assert j == i + 1
            lam_min, e = report.min_eig, rungs[i]
            floor = g.size * EPS * max(report.lambda_max, 1.0)
            if e == 0.0:
                assert abs(lam_min) <= 10 * floor
            else:
                assert e / 10 <= -lam_min <= 10 * e
        if jitter is None:
            return
        target = g.data + jitter * np.eye(g.size)
        residual = float(np.abs(g.factor @ g.factor.T - target).max())
        scale = 1.0 + float(np.abs(g.data).max())
        assert residual <= RECON_TOL * scale
        # the accepted bound holds the dense residual up to the rounding of
        # the nd-term products that measure it, at most about nd * eps * scale
        assert g.factor_residual >= report.drift
        assert residual <= g.factor_residual + g.size * EPS * scale

    def test_factor_layout(self):
        # F[(i,a),(j,m)] = Q[a,m] L_m[i,j]: lower triangular only when Q = I
        sites = [[0.0], [0.7], [1.9]]
        for text, triangular in [
            ("gauss(sigma=1.5,ell=0.8,dim=2)", True),
            ("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))", False),
        ]:
            g = factorize(assemble_gram(make_kernel(text), sites))
            F = g.factor.reshape(g.n, g.d, g.n, g.d)
            L = np.linalg.cholesky(g.channels)
            assert np.array_equal(F, np.einsum("am,mij->iajm", g.basis, L))
            assert np.array_equal(g.factor, np.tril(g.factor)) is triangular

    def test_wrong_factor_rejected(self):
        # a stacked factor 0.9x too small leaves |L_m L_m^T - K_m| = 0.19 K_m
        cholesky = np.linalg.cholesky
        g = assemble_gram(make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0.0], [1.0], [2.5]])
        with mock.patch.object(np.linalg, "cholesky", lambda a: 0.9 * cholesky(a)):
            with pytest.raises(IndefiniteMatrixError):
                factorize(g)

    def test_runs_psd_check_first(self):
        g = assemble_gram(make_kernel("diagexp3"), [[0.0], [1.0]])
        factorize(g)
        assert g.spectrum is not None and g.spectrum.basis is not None

    def test_dense_certified_gram_takes_dense_ladder(self):
        # a Gram of a channel kernel's shape built from data alone is its
        # own one channel, factored by one dense Cholesky
        ref = assemble_gram(make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0], [1]])
        g = factorize(BlockGram(sites=ref.sites, data=np.diag([1.0, 2.0, 3.0, 4.0])))
        assert (g.n, g.d) == (ref.n, ref.d)
        assert g.channels.shape == (1, 4, 4)
        assert np.array_equal(g.factor, np.diag(np.sqrt([1.0, 2.0, 3.0, 4.0])))


class TestDistinctChannels:
    """Equal channel Grams (gauss(dim=d) has d) are decomposed once, the
    dense factor is formed on its first read, and the outputs keep the bits
    of decomposing every channel."""

    KERNELS = CHANNEL_KERNELS + [
        "gauss(sigma=1,ell=0.6,dim=4)",
        "normalized(inner=gauss(sigma=2,ell=1,dim=3))",
        # eigenvalues 1, 1, 2 of B: two equal channels and one distinct
        "separable(B=[[1,0,0],[0,2,0],[0,0,1]],base=gauss(sigma=1,ell=0.7))",
    ]

    @given(
        text=st.sampled_from(KERNELS),
        n=st.integers(1, 10),
        dim=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1.0, 0.1, 1e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bits_of_every_channel_decomposed(self, text, n, dim, seed, spread):
        sites = spread * np.random.default_rng(seed).uniform(-3, 3, size=(n, dim))
        g = assemble_gram(make_kernel(text), sites)
        # the channel path builds G exactly symmetric and checks it no more
        assert same_bits(g.data, g.data.T)
        assert same_bits(g.max_abs, np.abs(g.data).max())
        spectrum, factored = every_channel_oracle(g)
        report = g.spectrum
        for got, want in zip((report.eigenvalues, report.eigenvectors, report.order), spectrum):
            assert same_bits(got, want)
        if factored is None:
            with pytest.raises(IndefiniteMatrixError):
                factorize(g)
            return
        F, eps, bound = factored
        assert same_bits(factorize(g).jitter_used, eps)
        assert same_bits(g.factor_residual, bound)
        assert same_bits(g.factor, F)

    @pytest.mark.parametrize(
        "text, distinct",
        [
            ("gauss(sigma=1.5,ell=1,dim=8)", 1),
            ("normalized(inner=gauss(sigma=2,ell=1,dim=4))", 1),
            ("separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=gauss(sigma=1,ell=0.7))", 3),
            ("separable(B=[[1,0,0],[0,2,0],[0,0,1]],base=gauss(sigma=1,ell=0.7))", 2),
            ("diagexp3", 3),
        ],
    )
    def test_one_decomposition_per_distinct_channel(self, text, distinct):
        kernel, sites = make_kernel(text), np.linspace(0.0, 3.0, 7)[:, None]
        kernel.blocks(sites, sites)  # fills every cache the spec keeps
        with linalg_shapes("eigh") as eighs, linalg_shapes("cholesky") as choleskys:
            factorize(assemble_gram(kernel, sites)).factor
        assert eighs == [(distinct, 7, 7)]
        assert choleskys and set(choleskys) == {(distinct, 7, 7)}

    def test_factor_formed_on_first_read(self, monkeypatch):
        g = assemble_gram(make_kernel("gauss(sigma=1,ell=0.5,dim=8)"), np.linspace(0, 4, 40)[:, None])
        formed, form = [], gram_mod._channel_factor
        monkeypatch.setattr(gram_mod, "_channel_factor", lambda L, Q: formed.append(1) or form(L, Q))
        tracemalloc.start()
        try:
            factorize(g)
            g.jitter_used, g.factor_residual
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no (nd, nd) float array: 819,200 bytes at nd = 320
        assert not formed and peak < 8 * g.size**2
        F = g.factor
        assert g.factor is F and formed == [1]
        assert F.flags.c_contiguous and not F.flags.writeable

    def test_fortran_order_data_takes_its_jitter(self):
        # rank one: rung 0 fails, and a jittered rung must add its jitter
        # to the diagonal whatever the data's memory layout
        c, f = (factorize(raw_gram(a)) for a in (np.ones((2, 2)), np.asfortranarray(np.ones((2, 2)))))
        assert f.jitter_used == c.jitter_used > 0.0
        assert same_bits(f.factor, c.factor)
        assert same_bits(f.factor_residual, c.factor_residual)


class TestFactorize:
    def test_identity(self):
        g = factorize(raw_gram([[1.0]]))
        np.testing.assert_allclose(g.factor, [[1.0]])
        assert g.jitter_used == 0.0

    def test_rank_one_needs_jitter(self):
        g = raw_gram(np.ones((3, 3)))
        factorize(g)
        assert g.jitter_used > 0.0
        target = g.data + g.jitter_used * np.eye(3)
        # oracle: Cholesky of G + eps I reproduces it
        assert np.abs(g.factor @ g.factor.T - target).max() <= 1e-8 * (
            1 + np.abs(g.data).max()
        )

    def test_indefinite_raises(self):
        with pytest.raises(IndefiniteMatrixError):
            factorize(raw_gram([[0.0, 1.0], [1.0, 0.0]]))

    def test_failed_ladder_is_kept(self):
        # the ladder runs once; every later read raises without a Cholesky
        g = raw_gram([[0.0, 1.0], [1.0, 0.0]])
        reads = [lambda: g.factor, lambda: g.jitter_used, lambda: g.factor_residual,
                 lambda: factorize(g)]
        with linalg_shapes("cholesky") as shapes:
            for read in reads * 2:
                with pytest.raises(IndefiniteMatrixError, match="indefinite"):
                    read()
        assert len(shapes) == 8

    @pytest.mark.parametrize(
        "data", [[[1.0, -0.0], [-0.0, 2.0]], np.ones((3, 3)), [[4.0, 2.0], [2.0, 1.0]]]
    )
    def test_factor_is_cholesky_of_jittered_gram(self, data):
        # bitwise, signed zeros included: sampled paths depend on every bit
        g = factorize(raw_gram(data))
        ref = np.linalg.cholesky(g.data + g.jitter_used * np.eye(g.size))
        assert np.array_equal(g.factor, ref)
        assert np.array_equal(np.signbit(g.factor), np.signbit(ref))

    def test_wrong_factor_rejected(self, monkeypatch):
        # the residual check guards against a factor LAPACK got wrong: a
        # factor 0.9x too small leaves |L L^T - G| = 0.19 G on every rung
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: 0.9 * cholesky(a))
        g = assemble_gram(make_kernel(GAUSS1), [[0.0], [1.0], [2.5]])
        with pytest.raises(IndefiniteMatrixError):
            factorize(g)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(5)
        for text in PSD_KERNELS:
            k = make_kernel(text)
            sites = rng.uniform(-1, 1, size=(5, 1))
            g = factorize(assemble_gram(k, sites))
            target = g.data + g.jitter_used * np.eye(g.size)
            scale = 1 + np.abs(g.data).max()
            assert np.abs(g.factor @ g.factor.T - target).max() <= 1e-8 * scale

    def test_factor_realizes_kernel_blocks(self):
        # with jitter 0, block rows of L reproduce K(s_i, s_j)
        k = make_kernel("gauss(sigma=1.5,ell=0.8,dim=2)")
        sites = [[0.0], [0.7], [1.9]]
        g = factorize(assemble_gram(k, sites))
        assert g.jitter_used == 0.0
        d, scale = g.d, 1 + np.abs(g.data).max()
        for i in range(g.n):
            Li = g.factor[i * d : (i + 1) * d]
            for j in range(g.n):
                Lj = g.factor[j * d : (j + 1) * d]
                blk = k.eval(np.asarray(sites[i], float), np.asarray(sites[j], float))
                assert np.abs(Li @ Lj.T - blk).max() <= 1e-8 * scale


class TestSpectralDecay:
    def test_constant_kernel_rank_one(self):
        k = make_kernel("gauss(sigma=1,ell=1000000,dim=1)")
        reports = spectral_decay_profile(k, [3, 6])
        for n, report in zip([3, 6], reports):
            assert report.eigenvalues[0] == pytest.approx(n, rel=1e-9)
            assert report.effective_rank[1e-6] == 1

    def test_diagexp3_constant_component(self):
        reports = spectral_decay_profile(make_kernel("diagexp3"), [50])
        # component 1 is the constant kernel: contributes a single eigenvalue 50
        assert reports[0].eigenvalues[0] == pytest.approx(50.0, rel=1e-9)

    def test_gaussian_decay(self):
        reports = spectral_decay_profile(make_kernel(GAUSS1), [100])
        ev = reports[0].eigenvalues
        assert ev[9] / ev[0] <= 1e-8

    def test_monotone_spectra_and_trace(self):
        reports = spectral_decay_profile(make_kernel("diagexp3"), [10, 20])
        for report in reports:
            assert np.all(np.diff(report.eigenvalues) <= 0)
            assert report.eigenvalues.sum() == pytest.approx(report.trace, rel=1e-8)

    def test_nested_grid_lambda_max_monotone(self):
        # counts 5, 9, 17 give genuinely nested grids on [0, 1]
        reports = spectral_decay_profile(make_kernel(GAUSS1), [5, 9, 17])
        lams = [r.lambda_max for r in reports]
        assert lams[0] <= lams[1] + 1e-10
        assert lams[1] <= lams[2] + 1e-10

    def test_counts_validation(self):
        with pytest.raises(GramError):
            spectral_decay_profile(make_kernel(GAUSS1), [])
        with pytest.raises(GramError):
            spectral_decay_profile(make_kernel(GAUSS1), [10, 5])

    @pytest.mark.parametrize("counts", [[3, 3], [2, 5, 5]])
    def test_counts_must_not_repeat(self, counts):
        with pytest.raises(GramError, match="^site_counts must be increasing$"):
            spectral_decay_profile(make_kernel(GAUSS1), counts)

    @pytest.mark.parametrize("counts", [[0, 5], [-3], [2, 0]])
    def test_counts_must_be_positive(self, counts):
        with pytest.raises(GramError, match="^site counts must be positive$"):
            spectral_decay_profile(make_kernel(GAUSS1), counts)

    def test_counts_within_cap(self):
        kernel = make_kernel("diagexp3")
        with pytest.raises(GramError, match=f"^Gram size exceeds cap {DEFAULT_SIZE_CAP}$"):
            spectral_decay_profile(kernel, [5, DEFAULT_SIZE_CAP // 3 + 1])


class TestEffectiveRank:
    def test_rank_one(self):
        assert effective_rank(np.array([3.0, 0.0, 0.0]), 1e-6) == 1

    def test_full_rank_needed(self):
        assert effective_rank(np.array([1.0, 1.0, 1.0]), 1e-6) == 3


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        g = assemble_gram(make_kernel("diagexp3"), [[0], [1]])
        path = tmp_path / "gram.csv"
        gram_to_csv(g, path)
        rows = [
            [float(v) for v in line.split(",")]
            for line in path.read_text().splitlines()[1:]
        ]
        np.testing.assert_allclose(np.array(rows), g.data)

    def test_csv_rows_byte_identical_to_csv_writer(self, tmp_path):
        # the per-value csv.writer loop the row writer replaces
        rng = np.random.default_rng(9)
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e300,
                   -1e300, 1e-300, -1e-300, np.inf, -np.inf, np.nan, 1 / 3, 0.1]
        mats = [
            np.concatenate([special, rng.standard_normal(35)]).reshape(5, 10),
            np.array(special).reshape(-1, 1),
            np.array([special]),
            rng.standard_normal((20, 7)) * 10.0 ** rng.integers(-300, 300, (20, 7)),
        ]
        for M in mats:
            old, new = tmp_path / "old.csv", tmp_path / "new.csv"
            with open(old, "w", newline="") as fh:
                writer = csv.writer(fh)
                for row in M:
                    writer.writerow([repr(float(v)) for v in row])
            with open(new, "w", newline="") as fh:
                write_csv_rows(fh, M)
            assert new.read_bytes() == old.read_bytes()

    @staticmethod
    def csv_writer_text(M):
        # the oracle of test_csv_rows_byte_identical_to_csv_writer
        fh = io.StringIO(newline="")
        writer = csv.writer(fh)
        for row in M:
            writer.writerow([repr(float(v)) for v in row])
        return fh.getvalue()

    @staticmethod
    def write_csv_text(M):
        fh = io.StringIO(newline="")
        write_csv_rows(fh, M)
        return fh.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(
        patterns=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
        rows=st.integers(0, 3),
        cols=st.sampled_from([1, 3, 17, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
        view=st.sampled_from(["contiguous", "transposed", "strided", "reversed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_csv_rows_match_csv_writer_on_any_bits(self, patterns, rows, cols, view, seed):
        # arbitrary bit patterns, then random bits, in shapes crossing chunk
        # boundaries (one row can be wider than a chunk) and in views
        bits = np.random.default_rng(seed).integers(0, 2**64, rows * cols, dtype=np.uint64)
        bits[: len(patterns)] = np.array(patterns, dtype=np.uint64)[: rows * cols]
        values = bits.view(np.float64)
        M = {
            "contiguous": lambda: values.reshape(rows, cols),
            "transposed": lambda: values.reshape(cols, rows).T,
            "strided": lambda: np.repeat(values.reshape(rows, cols), 2, axis=1)[:, ::2],
            "reversed": lambda: values.reshape(rows, cols)[::-1, ::-1],
        }[view]()
        assert M.shape == (rows, cols)
        assert self.write_csv_text(M) == self.csv_writer_text(M)

    def test_csv_rows_match_csv_writer_on_edge_values(self):
        p2 = np.ldexp(1.0, np.arange(-1074, 1024))
        p10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
        powers = np.concatenate([p2, p10])
        near = np.concatenate(
            [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
        )
        subnormals = np.arange(1, 1000, dtype=np.uint64).view(np.float64)
        integers = np.array([float(2**53 + i) for i in range(-300, 301)])
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)]
        values = np.concatenate([near, subnormals, integers, special])
        values = np.concatenate([values, -values])
        for M in (values[:, None], np.resize(values, (len(values) // 7 + 1, 7))):
            assert self.write_csv_text(M) == self.csv_writer_text(M)

    def test_csv_rows_match_csv_writer_on_random_values(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(100_000) * 10.0 ** rng.integers(-20, 20, 100_000)
        for M in (bits.reshape(-1, 25), scaled.reshape(-1, 20)):
            assert self.write_csv_text(M) == self.csv_writer_text(M)

    def test_csv_rows_of_chunks_without_digits(self):
        # chunks holding only zeros, nan and inf skip the digit pass
        for M in (np.zeros((2, CHUNK + 3)), np.array([[np.nan, -np.inf, -0.0, np.inf]])):
            assert self.write_csv_text(M) == self.csv_writer_text(M)

    def test_csv_rows_of_empty_rows(self):
        for shape in [(0, 5), (3, 0), (0, 0)]:
            M = np.zeros(shape)
            assert self.write_csv_text(M) == self.csv_writer_text(M)

    def test_json_report_shape(self, tmp_path):
        g = assemble_gram(make_kernel(GAUSS1), [[0], [1]])
        factorize(g)
        payload = spectrum_to_json_dict(g)
        assert payload["n"] == 2 and payload["d"] == 1
        assert payload["psd"] is True
        assert len(payload["eigenvalues"]) == 2
        json.dumps(payload)  # serializable
