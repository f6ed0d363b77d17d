import contextlib
import csv
import io
import json
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
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

from helpers import one_channel_gram

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
    return one_channel_gram([np.array([float(i)]) for i in range(n)], data)


def averaged_channel_sum(channels, basis):
    """Test-local oracle: G as the channel sum S, taken from the kernels'
    C-order layout, averaged with its transpose (the formula every Gram
    once took, one channel included)."""
    c, N, _ = channels.shape
    S = OperatorKernel.channel_sum(np.ascontiguousarray(np.moveaxis(channels, 0, -1)), basis)
    St = S.transpose(0, 2, 1, 3)
    return 0.5 * (St + St.transpose(2, 3, 0, 1)).reshape(N * c, N * c)


# one-channel kernels, a zero B among them: its Gram is all -0.0
ONE_CHANNEL_KERNELS = [
    GAUSS1,
    "gauss(sigma=1e-3,ell=30,dim=1)",
    "separable(B=[[3.5]],base=gauss(sigma=2,ell=0.3))",
    "separable(B=[[-0.0]],base=gauss(sigma=1,ell=1))",
    "normalized(inner=gauss(sigma=7,ell=0.5))",
    "separable(B=[[0.25]],base=normalized(inner=gauss(sigma=2,ell=0.7)))",
]


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
        return factorize(one_channel_gram(g.sites, g.data)).jitter_used
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
    scale = 1.0 + float(np.abs(g.data.diagonal()).max())
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


def class_oracle(channels, index):
    """Test-local oracle: the spectrum of a Gram whose channels share
    proportional classes (read off its report's ``index``), from one eigh
    of the first channel R of each class: channel m's eigenvalues are
    fl(r_m mu(R)), r_m the quotient of the two channels' largest diagonal
    entries (1 for R's equals), and its eigenvectors are R's; as
    (eigenvalues, eigenvectors, order)."""
    c = len(channels)
    place = np.arange(c)[index]
    first = [int(np.flatnonzero(place == p)[0]) for p in range(place.max() + 1)]
    lam, vecs = np.linalg.eigh(np.ascontiguousarray(channels[first]))
    lam, vecs = lam[place][:, ::-1], vecs[place][..., ::-1]
    top = channels.diagonal(axis1=1, axis2=2).max(axis=1)
    R = [first[p] for p in place]
    ratio = [1.0 if np.array_equal(channels[m], channels[R[m]]) else float(top[m]) / float(top[R[m]])
             for m in range(c)]
    lam = lam * np.array(ratio)[:, None]
    order = np.argsort(-lam.ravel(), kind="stable")
    return lam.ravel()[order], vecs, order


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

    @pytest.mark.parametrize("i, j, bad", [(-1, 0, -1), (3, 0, 3), (0, -1, -1), (2, 3, 3)])
    def test_block_index_out_of_range(self, i, j, bad):
        # an index outside [0, n) once sliced an empty (0, 3) block
        g = assemble_gram(make_kernel("diagexp3"), [[0], [1], [2]])
        with pytest.raises(IndexError, match=rf"^site index {bad} out of range \[0, 3\)$"):
            g.block(i, j)

    @pytest.mark.parametrize("bad", [1.0, 0.5, True, np.True_, "1", None, np.array([1]), np.array([1, 2])])
    def test_block_index_not_an_integer(self, bad):
        # a float or an array once ended in numpy's TypeError or ValueError,
        # and True read as 1
        g = assemble_gram(make_kernel("diagexp3"), [[0], [1], [2]])
        for i, j in [(bad, 0), (0, bad)]:
            with pytest.raises(TypeError, match=rf"^site index {re.escape(repr(bad))} is not an integer$"):
                g.block(i, j)

    def test_block_takes_numpy_integers(self):
        g = assemble_gram(make_kernel("diagexp3"), [[0], [1], [2]])
        assert np.array_equal(g.block(np.int64(1), np.uint8(2)), g.block(1, 2))

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
        # and cannot be written through afterwards; one channel is G itself
        channels = np.eye(2)[None]
        raw = BlockGram(sites=np.zeros((2, 1)), channels=channels, basis=np.ones((1, 1)))
        assert raw.channels is channels and np.shares_memory(raw.data, channels)
        with pytest.raises(ValueError, match="read-only"):
            channels[0, 0, 0] = 2.0

    @pytest.mark.parametrize("text", SQUARE_KERNELS)
    def test_one_channel_sum_on_first_read(self, text, monkeypatch):
        # certifying, exporting, printing, factoring and expanding a Gram
        # form no G; its first read takes one channel sum (none for one
        # channel, which is G), and later reads none
        calls = Counter()
        channel_sum = OperatorKernel.channel_sum

        def counted(channels, basis):
            calls["channel_sum"] += 1
            return channel_sum(channels, basis)

        kernel = make_kernel(text)
        monkeypatch.setattr(OperatorKernel, "channel_sum", staticmethod(counted))
        g = assemble_gram(kernel, [[0.0], [1.0], [2.5]])
        psd_check(g)
        spectrum_to_json_dict(g)
        repr(g)
        if g.spectrum.psd:
            factorize(g)
            onb_expansion(RkhsContext(kernel, g), 1e-12)
        assert calls["channel_sum"] == 0
        G = g.data
        sums = int(len(g.channels) > 1)
        assert calls["channel_sum"] == sums
        assert g.data is G and calls["channel_sum"] == sums
        assert same_bits(G, gram_mod._dense(g.channels, g.basis))
        if not sums:
            assert np.shares_memory(G, g.channels)

    @pytest.mark.parametrize("wide", ["gauss", "separable"])
    def test_no_dense_gram_until_read(self, wide):
        # no (nd, nd) float array, 8,652,800 bytes at n = 130, d = 8, through
        # certify -> factorize -> expand, past the expansion's (k, nd) output
        B = np.random.default_rng(0).standard_normal((8, 8))
        B = B @ B.T / 8 + 0.5 * np.eye(8)
        lit = "[" + ",".join("[" + ",".join(map(repr, map(float, row))) + "]" for row in (B + B.T) / 2) + "]"
        text = {"gauss": "gauss(sigma=1,ell=1,dim=8)",
                "separable": f"separable(B={lit},base=gauss(sigma=1,ell=1))"}[wide]
        kernel, sites = make_kernel(text), np.linspace(0.0, 25.0, 130)[:, None]
        kernel.blocks(sites[:1], sites[:1])  # fills every cache the spec keeps
        tracemalloc.start()
        try:
            g = assemble_gram(kernel, sites)
            psd_check(g)
            spectrum_to_json_dict(g)
            factorize(g)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            k = len(onb_expansion(RkhsContext(kernel, g), 1e-12))
            scratch = tracemalloc.get_traced_memory()[1] - held - 8 * k * g.size
        finally:
            tracemalloc.stop()
        assert g.size == 1040 and peak < 8 * g.size**2 and scratch < 8 * g.size**2
        assert "data" not in vars(g)

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

    @given(
        text=st.sampled_from(ONE_CHANNEL_KERNELS),
        n=st.integers(1, 12),
        spread=st.sampled_from([1e-3, 1.0, 40.0]),  # 40: entries underflow
        seed=st.integers(0, 2**32 - 1),
        raw=symmetric_matrices(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_channel_data_is_the_averaged_sum(self, text, n, spread, seed, raw):
        # a one-channel G is its channel: the averaged channel sum, bit for
        # bit, but for the sign of a zero (the sum wrote -0.0 as +0.0)
        sites = spread * np.random.default_rng(seed).uniform(-1, 1, size=(n, 1))
        kernel_gram = assemble_gram(make_kernel(text), sites)
        raw_one = gram_mod.raw_gram(make_kernel(GAUSS1), np.arange(len(raw))[:, None], raw)
        for g in (kernel_gram, raw_one):
            oracle = averaged_channel_sum(g.channels, g.basis)
            negative_zero = (g.data == 0.0) & np.signbit(g.data)
            assert same_bits(np.where(negative_zero, 0.0, g.data), np.where(negative_zero, 0.0, oracle))
            assert np.all(oracle[negative_zero] == 0.0)

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
        # smallest channel eigenvalue inside the PSD margin by less than the
        # drift fails, as G's own could lie past the margin.  The drift of
        # two channels diag(1, lam) on the basis I is the rounding bound
        # 1.01 * 4 * 2^-53 * 2 |K|_F plus 2 * 2 * 4 * 2^-1074, the same for
        # every lam this close to the margin
        def gram(lam):
            K = np.array([[[1.0, 0.0], [0.0, lam]]] * 2)
            return BlockGram(sites=np.zeros((2, 1)), channels=K, basis=np.eye(2))

        drift = gram(-PSD_EIG_TOL).spectrum.drift
        assert drift == 1.01 * 4 * 2.0**-53 * 2.0 + 16 * 2.0**-1074
        for lam, psd in [(-PSD_EIG_TOL + 2 * drift, True), (-PSD_EIG_TOL + drift / 2, False)]:
            report = psd_check(gram(lam))
            assert report.min_eig == lam and report.drift == drift
            assert report.psd is psd
        # channels that are not exactly symmetric are refused
        K = np.array([[[1.0, 2e-16], [0.0, 1.0]]])
        with pytest.raises(GramError, match="^channel Grams are not symmetric$"):
            BlockGram(sites=np.zeros((2, 1)), channels=K, basis=np.eye(1))

    def test_replaced_data_is_certified_itself(self):
        # channel Grams cannot come with data they do not match: data is
        # its own one channel
        ref = assemble_gram(make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0], [1]])
        data = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(TypeError):
            BlockGram(sites=ref.sites, data=data, channels=ref.channels, basis=ref.basis)
        with pytest.raises(TypeError):
            BlockGram(sites=ref.sites, channels=ref.channels)
        g = one_channel_gram(ref.sites, data)
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


class TestRoundingBound:
    """A channel Gram's drift, fixed before G is formed, against G's
    measured distance from its channels."""

    @given(
        c=st.integers(1, 8),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        spread=st.integers(0, 30),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_holds(self, c, n, seed, spread):
        # exactly symmetric channels whose entries span 2 * spread decades
        # and whose scales span 200, and a QR-orthogonal basis
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((c, n, n)) * 10.0 ** rng.uniform(-spread, spread, (c, n, n))
        K = (X + X.transpose(0, 2, 1)) * 10.0 ** rng.uniform(-100, 100, (c, 1, 1))
        Q = np.linalg.qr(rng.standard_normal((c, c)))[0]
        g = BlockGram(sites=np.zeros((n, 1)), channels=K, basis=Q)
        drift, G = g.spectrum.drift, g.data
        # sum_m K_m (x) q_m q_m^T in extended precision
        wide = np.longdouble
        exact = np.einsum("mij,am,bm->iajb", K.astype(wide), Q.astype(wide), Q.astype(wide))
        error = np.sqrt(np.square(G.astype(wide) - exact.reshape(n * c, n * c)).sum())
        assert drift >= error
        # and G's distance from the channel sum S it averages
        layout = np.ascontiguousarray(np.moveaxis(K, 0, -1))
        S = OperatorKernel.channel_sum(layout, Q).transpose(0, 2, 1, 3).reshape(n * c, n * c)
        assert drift >= np.linalg.norm(S - G)


@st.composite
def separable_texts(draw):
    """A separable kernel over a gauss or a normalized gauss base whose B is
    PSD of dim d <= 8: distinct eigenvalues, repeated ones, or some of them
    0 (singular); diagonal, so that eigh gives them exactly, or rotated by a
    random orthogonal matrix; and, where B is nonsingular, possibly wrapped
    in normalized."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["distinct", "repeated", "singular"]))
    lam = rng.uniform(0.1, 10.0, d)
    if kind == "repeated":
        lam = rng.choice(lam[: max(1, d // 2)], d)
    elif kind == "singular":
        lam[rng.random(d) < 0.5] = 0.0
    B = np.diag(lam)
    if draw(st.booleans()):
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        B = Q @ B @ Q.T
        B = 0.5 * (B + B.T)
    base = draw(st.sampled_from(["gauss(sigma=1.3,ell=0.8)", "normalized(inner=gauss(sigma=2,ell=0.7))"]))
    text = f"separable(B={B.tolist()},base={base})"
    if kind != "singular" and draw(st.booleans()):
        text = f"normalized(inner={text})"
    return text


class TestProportionalClasses:
    """A separable kernel's channel Grams lam_m K are one class, decomposed
    once: its spectrum against the channels' own and the dense G's."""

    @given(
        text=separable_texts(),
        n=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1.0, 0.1, 1e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_spectrum_within_drift(self, text, n, seed, spread):
        sites = spread * np.random.default_rng(seed).uniform(-3, 3, size=(n, 1))
        g = assemble_gram(make_kernel(text), sites)
        report, channels = g.spectrum, g.channels
        c, N, _ = channels.shape
        place = np.arange(c)[report.index]
        # the bits of one eigh per class, scaled
        for got, want in zip((report.eigenvalues, report.eigenvectors, report.order),
                             class_oracle(channels, report.index)):
            assert same_bits(got, want)
        # a zero channel is a class of its own (or of equal zero channels)
        for m in range(c):
            if not channels[m].any():
                assert not channels[place == place[m]].any()
        # channels whose diagonals are positive, lam_m > 0, are one class
        if (channels.diagonal(axis1=1, axis2=2).max(axis=1) > 0.0).all():
            assert len(report.vectors) == 1
        # each eigenvalue lies within the drift plus eigh's backward error
        # of the stored channels' own, and of the dense G's
        own = np.sort(np.concatenate([np.linalg.eigvalsh(K) for K in channels]))[::-1]
        big = max(float(np.abs(own).max()), np.finfo(float).tiny)
        assert np.abs(report.eigenvalues - own).max() <= report.drift + 2 * N * EPS * big
        eig = np.linalg.eigvalsh(g.data)[::-1]
        assert np.abs(report.eigenvalues - eig).max() <= report.drift + 2 * g.size * EPS * big
        # and the PSD verdict is the dense oracle's, away from the margin
        margin = PSD_EIG_TOL * max(eig[0], 1.0)
        if abs(eig[-1] + margin) > 1e-12 * max(eig[0], 1.0):
            assert report.psd == oracle_psd(eig)

    @given(
        text=separable_texts(),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1.0, 0.1, 1e-3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_drift_covers_the_classes(self, text, n, seed, spread):
        # what grouping adds to the drift is at least, in exact rational
        # arithmetic, sum_m |K_m - r_m R_m|_F |q_m|^2 plus the largest
        # rounding of a scaled eigenvalue fl(r_m mu)
        kernel = make_kernel(text)
        sites = spread * np.random.default_rng(seed).uniform(-3, 3, size=(n, 1))
        g = assemble_gram(kernel, sites)
        with mock.patch.object(gram_mod, "PROPORTIONAL_ULPS", -1.0):
            ungrouped = assemble_gram(kernel, sites)
        report, channels = g.spectrum, g.channels
        c = len(channels)
        assert len(ungrouped.spectrum.vectors) == distinct_count(channels)
        place = np.arange(c)[report.index]
        first = [int(np.flatnonzero(place == p)[0]) for p in range(place.max() + 1)]
        mu = np.linalg.eigh(np.ascontiguousarray(channels[first]))[0]
        top = channels.diagonal(axis1=1, axis2=2).max(axis=1)
        residual, rounding = Fraction(0), Fraction(0)
        for m in range(c):
            R = channels[first[place[m]]]
            if np.array_equal(channels[m], R):
                continue
            r = Fraction(float(top[m]) / float(top[first[place[m]]]))
            square = sum((Fraction(k) - r * Fraction(x)) ** 2
                         for k, x in zip(channels[m].ravel().tolist(), R.ravel().tolist()))
            q2 = sum(Fraction(x) ** 2 for x in g.basis[:, m].tolist())
            residual += Fraction(math.sqrt(float(square)) * (1 + 4 * EPS)) * q2
            for v in mu[place[m]].tolist():
                rounding = max(rounding, abs(Fraction(float(r) * v) - r * Fraction(v)))
        assert Fraction(report.drift) - Fraction(ungrouped.spectrum.drift) >= residual + rounding

    @given(
        text=st.sampled_from(["rational2", "diagexp3", "normalized(inner=normalized(inner=diagexp3))"]),
        n=st.integers(1, 12),
        dim=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1.0, 0.1, 1e-3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_unlike_channels_never_group(self, text, n, dim, seed, spread):
        # rational2's a - b has a zero diagonal; diagexp3's channels differ
        # at every pair of distinct sites (by more than rounding while
        # e^-r does: sites here are at most 6 sqrt(2) apart)
        sites = spread * np.random.default_rng(seed).uniform(-3, 3, size=(n, dim))
        g = assemble_gram(make_kernel(text), sites)
        assert len(g.spectrum.vectors) == distinct_count(g.channels)
        spectrum, _ = every_channel_oracle(g)
        assert same_bits(g.spectrum.eigenvalues, spectrum[0])


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
        g = factorize(one_channel_gram(ref.sites, np.diag([1.0, 2.0, 3.0, 4.0])))
        assert (g.n, g.d) == (ref.n, ref.d)
        assert g.channels.shape == (1, 4, 4)
        assert np.array_equal(g.factor, np.diag(np.sqrt([1.0, 2.0, 3.0, 4.0])))


class TestDistinctChannels:
    """Equal channel Grams (gauss(dim=d) has d) are factored once and
    proportional ones (a separable kernel's, lam_m K) decomposed once, the
    dense factor is formed on its first read, and the outputs keep the bits
    of decomposing every channel, or every class where channels share one."""

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
        # the scale is max |G_ii|, no larger than max |G_ij|, and equal to it
        # where G is PSD
        assert same_bits(g.scale, np.abs(g.data.diagonal()).max())
        assert g.scale <= np.abs(g.data).max()
        if g.spectrum.min_eig >= 0.0:
            assert same_bits(g.scale, np.abs(g.data).max())
        spectrum, factored = every_channel_oracle(g)
        report = g.spectrum
        if len(report.vectors) < distinct_count(g.channels):  # proportional classes
            spectrum = class_oracle(g.channels, report.index)
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

    @staticmethod
    def decompositions(text, sites):
        """The argument shapes of the eigh and Cholesky calls of certifying
        and factoring a Gram of ``text`` on ``sites``."""
        kernel = make_kernel(text)
        kernel.blocks(sites, sites)  # fills every cache the spec keeps
        with linalg_shapes("eigh") as eighs, linalg_shapes("cholesky") as choleskys:
            factorize(assemble_gram(kernel, sites)).factor
        return eighs, set(choleskys)

    @pytest.mark.parametrize(
        "text, classes, distinct",
        [
            ("gauss(sigma=1.5,ell=1,dim=8)", 1, 1),
            ("normalized(inner=gauss(sigma=2,ell=1,dim=4))", 1, 1),
            ("separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=gauss(sigma=1,ell=0.7))", 1, 3),
            ("separable(B=[[1,0,0],[0,2,0],[0,0,1]],base=gauss(sigma=1,ell=0.7))", 1, 2),
            ("diagexp3", 3, 3),
        ]
        + [(text, 1, make_kernel(text).dim_h) for text in SQUARE_KERNELS if "separable" in text],
    )
    def test_one_decomposition_per_distinct_channel(self, text, classes, distinct):
        # one eigh row per proportional class, one Cholesky row per distinct
        # channel
        eighs, choleskys = self.decompositions(text, np.linspace(0.0, 3.0, 7)[:, None])
        assert eighs == [(classes, 7, 7)]
        assert choleskys == {(distinct, 7, 7)}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_wide_separable_takes_one_eigh(self, seed):
        # the benchmark's wide Gram: an 8 x 8 SPD B, its 8 distinct
        # eigenvalues one class, at n = 130
        A = np.random.default_rng(seed).standard_normal((8, 8))
        B = A @ A.T / 8 + 0.5 * np.eye(8)
        text = f"separable(B={(0.5 * (B + B.T)).tolist()},base=gauss(sigma=1,ell=1))"
        sites = np.linspace(0.0, 25.0, 130)[:, None]
        eighs, choleskys = self.decompositions(text, sites)
        assert eighs == [(1, 130, 130)]
        assert choleskys == {(8, 130, 130)}
        eighs, choleskys = self.decompositions("gauss(sigma=1,ell=1,dim=8)", sites)
        assert eighs == [(1, 130, 130)] and choleskys == {(1, 130, 130)}

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


def copying_formulas(g, kernel, trunc_tol=1e-12):
    """Test-local oracle: the certify path's outputs by the formulas that
    copied: a contiguous (c, N, N) stack of every channel Gram, one eigh of
    every class (``class_oracle``), one stacked Cholesky of all of them, a fresh A + eps*I and a stacked
    L L^T per rung, and the expansion divided into a second C-order array.
    Returns (eigenvectors, channel factors, factor, onb coefficients); the
    factors are None when the ladder fails.  The ladder's rungs, drift and
    scale are read from g."""
    spec, S = kernel.spec, g.sites
    ch = np.ascontiguousarray(np.moveaxis(spec.channels(kernel.sq_dists(S, S)), -1, 0))
    c, N, _ = ch.shape
    eig, vecs, order = class_oracle(ch, g.spectrum.index)
    k = int(np.count_nonzero(eig > trunc_tol * eig[0]))
    m, j = np.divmod(order[:k], N)
    V = (vecs[m, :, j][:, :, None] * g.basis.T[m][:, None, :]).reshape(k, N * c)
    coeffs = np.divide(V, np.sqrt(eig[:k])[:, None], order="C")
    L = F = None
    for eps in _jitter_ladder(g):
        target = np.add(ch, 0.0, order="C")
        target.reshape(-1, N * N)[:, :: N + 1] += eps
        try:
            L = np.linalg.cholesky(target)
        except np.linalg.LinAlgError:
            continue
        R = np.abs(L @ np.swapaxes(L, -1, -2) - target)
        if float(R.max()) + g.spectrum.drift <= RECON_TOL * (1.0 + g.scale):
            F = (L.transpose(1, 2, 0)[:, None] * g.basis[None, :, None]).reshape(c * N, c * N)
            break
        L = None
    return vecs, L, F, coeffs


class TestKeptArraysKeepTheirBits:
    """Certifying keeps only the distinct stacks, takes the channels as a
    view and divides the expansion in place; every output keeps the bits of
    the formulas that copied (``copying_formulas``), -0.0 included."""

    def check(self, kernel, sites):
        g = assemble_gram(kernel, sites)
        vecs, L, F, coeffs = copying_formulas(g, kernel)
        # same_bits compares bytes: -0.0 != 0.0
        assert same_bits(g.spectrum.eigenvectors, vecs)
        got = np.array([el.coeffs for el in onb_expansion(RkhsContext(kernel, g), 1e-12)])
        assert same_bits(got, coeffs)
        if L is None:
            with pytest.raises(IndefiniteMatrixError):
                factorize(g)
            return
        factorize(g)
        assert same_bits(g._accepted(0)[g._distinct[1]], L)
        assert same_bits(g.factor, F)

    @given(
        text=st.sampled_from(TestDistinctChannels.KERNELS),
        n=st.integers(1, 12),
        dim=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1.0, 0.1, 1e-3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_channel_kernels(self, text, n, dim, seed, spread):
        # Q = I with equal channels (gauss, normalized gauss) and distinct
        # ones (diagexp3), dense Q (separable, rational2), and B's repeated
        # eigenvalues: two equal channels and one distinct
        self.check(make_kernel(text), spread * np.random.default_rng(seed).uniform(-3, 3, (n, dim)))

    def test_wide_dense_basis(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8))
        B = A @ A.T / 8 + 0.5 * np.eye(8)
        text = f"separable(B={(0.5 * (B + B.T)).tolist()},base=gauss(sigma=1,ell=1))"
        for kernel in (make_kernel(text), make_kernel("gauss(sigma=1,ell=1,dim=8)")):
            self.check(kernel, np.linspace(0.0, 25.0, 40)[:, None])


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
            with open(new, "wb") as fh:
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
        fh = io.BytesIO()
        write_csv_rows(fh, M)
        return fh.getvalue().decode("ascii")

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
