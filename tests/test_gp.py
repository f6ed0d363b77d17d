import dataclasses
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opkern
from opkern.gp import (
    BINARY_MAGIC,
    CHUNK_WORDS,
    SampleBatch,
    batch_from_binary,
    batch_to_binary,
    batch_to_csv,
    covariance_error_report,
    empirical_covariance,
    sample_paths,
)
from opkern import gram as gram_mod
from opkern.kernels import make_kernel
from opkern.rkhs import make_context, verify_identities

GAUSS1 = "gauss(sigma=1,ell=1,dim=1)"


@pytest.fixture
def two_site_ctx():
    return make_context(make_kernel(GAUSS1), [[0], [1]])


def identity_context(ctx):
    """ctx's kernel and sites with a raw identity Gram: its factor is
    exactly I with no jitter, so each path sample_paths draws on it is its
    normals."""
    return make_context(ctx.kernel, ctx.sites, raw_data=np.eye(ctx.size))


def ref_normals(seed, count, nd):
    """Stream v4's normals of ``count`` paths at n*d = nd, drawn in one
    call: row p is path p's."""
    return np.random.Generator(np.random.SFC64(seed)).standard_normal(count * nd).reshape(count, nd)


class TestSamplePaths:
    def test_determinism_bitwise(self, two_site_ctx):
        b1 = sample_paths(two_site_ctx, 500, seed=42)
        b2 = sample_paths(two_site_ctx, 500, seed=42)
        assert np.array_equal(b1.paths, b2.paths)

    def test_seed_changes_draws(self, two_site_ctx):
        b1 = sample_paths(two_site_ctx, 100, seed=0)
        b2 = sample_paths(two_site_ctx, 100, seed=1)
        assert not np.array_equal(b1.paths, b2.paths)

    def test_single_site_variance(self):
        # chi^2 concentration: sample variance of N(0, 4) at N=1e5 stays
        # within 3% of 4 with overwhelming probability
        ctx = make_context(make_kernel("gauss(sigma=2,ell=1,dim=1)"), [[0]])
        batch = sample_paths(ctx, 100_000, seed=7)
        var = float(np.mean(batch.paths**2))
        assert 4 * 0.97 <= var <= 4 * 1.03

    def test_zero_kernel_near_degenerate(self):
        ctx = make_context(make_kernel("gauss(sigma=1e-9,ell=1,dim=1)"), [[0], [1]])
        batch = sample_paths(ctx, 1000, seed=0)
        assert np.abs(batch.paths).max() <= 1e-3

    def test_count_validation(self, two_site_ctx):
        with pytest.raises(ValueError):
            sample_paths(two_site_ctx, 0, seed=0)

    def test_shape(self, two_site_ctx):
        batch = sample_paths(two_site_ctx, 10, seed=0)
        assert batch.paths.shape == (10, 2, 1)

    def test_prefix_stability(self, two_site_ctx):
        # per-path streams: a longer batch extends a shorter one
        b1 = sample_paths(two_site_ctx, 50, seed=5)
        b2 = sample_paths(two_site_ctx, 100, seed=5)
        assert np.array_equal(b1.paths, b2.paths[:50])

    @pytest.mark.parametrize("name, count, seed", [
        ("seed", 3, 1.5),  # once sampled seed 1, bit for bit
        ("seed", 3, True),
        ("count", True, 0),  # once failed only after sampling
        ("count", 3.0, 0),
        ("count", np.array([3]), 0),
    ])
    def test_not_an_integer(self, two_site_ctx, name, count, seed):
        bad = count if name == "count" else seed
        with pytest.raises(TypeError, match=rf"^{name} {re.escape(repr(bad))} is not an integer$"):
            sample_paths(two_site_ctx, count, seed=seed)

    def test_numpy_integers(self, two_site_ctx):
        batch = sample_paths(two_site_ctx, np.int32(3), seed=np.uint64(2**64 - 1))
        assert batch.seed == 2**64 - 1 and type(batch.seed) is int
        assert np.array_equal(batch.paths, sample_paths(two_site_ctx, 3, seed=2**64 - 1).paths)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("run", [
        lambda ctx, seed: sample_paths(ctx, 3, seed=seed),
        # -1 once ended in numpy's "expected non-negative integer", 2**64 ran
        lambda ctx, seed: verify_identities(ctx, trials=1, seed=seed),
    ], ids=["sample_paths", "verify_identities"])
    def test_seed_range(self, two_site_ctx, run, seed):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            run(two_site_ctx, seed)

    @pytest.mark.parametrize("n,dim", [(2, 1), (20, 3)])
    def test_prefix_stability_across_chunks(self, n, dim):
        # short batches end in a short or one-row chunk; BLAS rounds such
        # products differently unless every chunk has the full shape
        ctx = make_context(
            make_kernel(f"gauss(sigma=1,ell=1,dim={dim})"),
            [[x] for x in np.linspace(0, 3, n)],
        )
        per_chunk = CHUNK_WORDS // (n * dim)
        longest = sample_paths(ctx, 2 * per_chunk + 3, seed=8).paths
        for count in (1, 2, 5, per_chunk - 1, per_chunk + 1):
            batch = sample_paths(ctx, count, seed=8)
            assert np.array_equal(batch.paths, longest[:count])


class TestStreamV2:
    """The chunked sampler against the stream's normals drawn in one call."""

    GOLDEN_SEED0 = [
        -0.5423652285985597,
        -0.7332765023069422,
        -0.29930851727893054,
        0.6866133223417257,
        0.13997342329966622,
        -1.805147413216547,
        -0.7386236164354572,
        -0.9747702608265898,
    ]

    def test_golden_normals_seed0(self):
        # paths 0 and 1 at nd = 4; a tolerance of a few ulp admits libm
        # differences across platforms, not a changed stream
        ctx = identity_context(make_context(make_kernel(GAUSS1), [[0], [1], [2], [3]]))
        z = sample_paths(ctx, 2, seed=0).paths.ravel()
        np.testing.assert_allclose(z, self.GOLDEN_SEED0, rtol=1e-14, atol=0)

    # 5,000 paths of stream v4's normals at n*d = 4, seed 3, as a digest
    IDENTITY_DIGEST = (
        "import hashlib\n"
        "import numpy as np\n"
        "from opkern.gp import sample_paths\n"
        "from opkern.kernels import make_kernel\n"
        "from opkern.rkhs import make_context\n"
        "ctx = make_context(make_kernel('gauss(sigma=1,ell=1,dim=1)'), [[0], [1], [2], [3]], raw_data=np.eye(4))\n"
        "digest = hashlib.sha256(sample_paths(ctx, 5000, seed=3).paths.tobytes()).hexdigest()\n"
    )

    def test_normals_do_not_depend_on_the_cpu_dispatch(self):
        """The paths of a raw identity Gram, its normals, are the same with
        numpy's AVX512 loops disabled in a fresh process.  The test has teeth
        only where numpy dispatches X86_V4: numpy ignores feature names it
        does not dispatch, and both runs then take the same loops."""
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR",
                   PYTHONPATH=str(Path(opkern.__file__).resolve().parent.parent))
        out = subprocess.run([sys.executable, "-c", self.IDENTITY_DIGEST + "print(digest)"], env=env,
                             capture_output=True, text=True, check=True)
        scope = {}
        exec(self.IDENTITY_DIGEST, scope)
        assert out.stdout.strip() == scope["digest"]

    def test_raw_normal_moments(self):
        # 1e6 normals; each bound is five standard errors
        z = ref_normals(0, 1000, 1000).ravel()
        n = z.size
        assert abs(z.mean()) <= 5 / np.sqrt(n)
        assert abs(np.mean(z**2) - 1) <= 5 * np.sqrt(2 / n)
        assert abs(np.mean(z**4) - 3) <= 5 * np.sqrt(96 / n)
        # consecutive normals, which one path's neighbouring entries take,
        # are uncorrelated
        assert abs(np.mean(z[:-1] * z[1:])) <= 5 / np.sqrt(n - 1)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 6),
        dim=st.integers(1, 3),
        offset=st.integers(-1, 2),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_paths_match_per_path_reference(self, n, dim, offset, seed):
        ctx = make_context(
            make_kernel(f"gauss(sigma=1,ell=1,dim={dim})"),
            [[x] for x in np.linspace(0, 2, n)],
        )
        nd = n * dim
        per_chunk = CHUNK_WORDS // nd
        count = per_chunk + offset  # the last chunk is short or one path long
        batch = sample_paths(ctx, count, seed=seed)
        L = ctx.gram.factor
        flat = batch.paths.reshape(count, nd)
        # on an identity Gram the sampler's paths are its normals, bit for bit
        normals = sample_paths(identity_context(ctx), count, seed=seed).paths.reshape(count, nd)
        # the product rounds differently from a matrix-vector product, so
        # paths meet L @ ref within the float64 dot-product error bound
        eps = np.finfo(np.float64).eps
        ref = ref_normals(seed, count, nd)
        for p in {p for p in (0, per_chunk - 1, per_chunk, count - 1) if p < count}:
            z = ref[p]
            assert normals[p].tobytes() == z.tobytes()
            bound = 2 * nd * eps * (np.abs(L) @ np.abs(z))
            assert np.all(np.abs(flat[p] - L @ z) <= bound)


class TestStreamV3Chunks:
    """The chunk loop of sample_paths against its parts, bit for bit."""

    @pytest.mark.parametrize("n,dim", [(7, 1), (13, 3), (1, 2), (100, 2)])
    def test_every_chunk_is_its_normals_times_the_factor(self, n, dim):
        # full chunks, written in place, and a short last chunk, each the
        # next per_chunk * nd normals of the stream
        ctx = make_context(
            make_kernel(f"gauss(sigma=1,ell=1,dim={dim})"),
            [[x] for x in np.linspace(0, 3, n)],
        )
        nd = n * dim
        per_chunk = CHUNK_WORDS // nd
        count = 2 * per_chunk + 5
        paths = sample_paths(ctx, count, seed=11).paths.reshape(count, nd)
        L = ctx.gram.factor
        normals = ref_normals(11, 3 * per_chunk, nd)
        for start in range(0, count, per_chunk):
            stop = min(start + per_chunk, count)
            block = normals[start : start + per_chunk] @ L.T
            assert paths[start:stop].tobytes() == block[: stop - start].tobytes()


class TestEmpiricalCovariance:
    def test_single_path_outer_product(self, two_site_ctx):
        batch = sample_paths(two_site_ctx, 1, seed=3)
        emp = empirical_covariance(batch)
        p = batch.paths[0]
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(emp[i, j], np.outer(p[i], p[j]))

    def test_recovers_target(self, two_site_ctx):
        batch = sample_paths(two_site_ctx, 50_000, seed=0)
        emp = empirical_covariance(batch).reshape(2, 2)
        assert np.abs(emp - batch.target_covariance).max() <= 0.03

    def test_block_layout(self):
        ctx = make_context(make_kernel("diagexp3"), [[0], [1]])
        batch = sample_paths(ctx, 20, seed=1)
        emp = empirical_covariance(batch)
        assert emp.shape == (2, 2, 3, 3)


class TestCovarianceErrorReport:
    def test_passes_at_large_n(self, two_site_ctx):
        report = covariance_error_report(sample_paths(two_site_ctx, 50_000, seed=0))
        assert report.pass_
        assert report.max_abs_err <= report.mc_tolerance

    def test_tiny_sample_well_formed(self, two_site_ctx):
        report = covariance_error_report(sample_paths(two_site_ctx, 2, seed=0))
        assert report.per_block_err.shape == (2, 2)
        assert report.mc_tolerance > 0
        assert report.pass_ == (report.max_abs_err <= report.mc_tolerance)

    def test_mismatched_batch_fails(self, two_site_ctx):
        batch = sample_paths(two_site_ctx, 20_000, seed=0)
        batch = dataclasses.replace(batch, paths=batch.paths * 3.0)  # deliberately wrong scale
        report = covariance_error_report(batch)
        assert not report.pass_

    @pytest.mark.parametrize("entries", [1, 300, None])
    @pytest.mark.parametrize(
        "text,n",
        [("gauss(sigma=1,ell=0.5,dim=8)", 9), ("diagexp3", 7), (GAUSS1, 5),
         ("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))", 1)],
    )
    def test_row_blocks_match_dense_report(self, text, n, entries, monkeypatch):
        # by blocks of 1 site, of a few sites, and in one block, the report
        # keeps the bits of the dense computation over the whole of T
        if entries is not None:
            monkeypatch.setattr(gram_mod, "ROW_BLOCK_ENTRIES", entries)
        batch = sample_paths(make_context(make_kernel(text), np.linspace(0, 2, n)[:, None]), 40, seed=2)
        g, nd = batch.context.gram, batch.context.size
        target = g.data + g.jitter_used * np.eye(nd)
        assert target.tobytes() == batch.target_covariance.tobytes()
        flat = batch.paths.reshape(batch.count, nd)
        err = np.abs(flat.T @ flat / batch.count - target)
        report = covariance_error_report(batch)
        assert report.max_abs_err.hex() == float(err.max()).hex()
        d = batch.context.d
        assert report.per_block_err.tobytes() == err.reshape(n, d, n, d).max(axis=(1, 3)).tobytes()
        diag = np.diag(target)
        scale = 2.0 ** -max(math.frexp(float(np.abs(diag).max()))[1], 0)
        var = (target * scale) ** 2 + np.outer(diag * scale, diag * scale)
        tol = 4.0 * float(np.sqrt(var.max() / batch.count)) / scale
        assert report.mc_tolerance.hex() == tol.hex()

    @pytest.mark.parametrize("entries", [1, 300, None])
    @pytest.mark.parametrize(
        "text,n",
        [("gauss(sigma=1,ell=0.5,dim=8)", 9), ("diagexp3", 7), (GAUSS1, 5),
         ("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))", 1)],
    )
    def test_z_max_matches_dense_standardized_error(self, text, n, entries, monkeypatch):
        # max_ij |e_ij| / SE_ij, SE_ij^2 = (T_ii T_jj + T_ij^2) / N, over
        # the whole of T at once
        if entries is not None:
            monkeypatch.setattr(gram_mod, "ROW_BLOCK_ENTRIES", entries)
        batch = sample_paths(make_context(make_kernel(text), np.linspace(0, 2, n)[:, None]), 40, seed=2)
        T = batch.target_covariance
        flat = batch.paths.reshape(batch.count, -1)
        err = np.abs(flat.T @ flat / batch.count - T)
        se = np.sqrt((np.outer(np.diag(T), np.diag(T)) + T**2) / batch.count)
        report = covariance_error_report(batch)
        assert report.z_max == pytest.approx(float((err / se).max()), rel=1e-13)
        assert report.z_max * report.mc_tolerance >= 4.0 * report.max_abs_err * (1 - 1e-13)

    def test_row_blocks_hold_no_dense_temporary(self, monkeypatch):
        # past the empirical covariance itself, scratch of a few row blocks;
        # G, formed on its first read, is read before the count starts
        monkeypatch.setattr(gram_mod, "ROW_BLOCK_ENTRIES", 4096)
        ctx = make_context(make_kernel("gauss(sigma=1,ell=0.5,dim=8)"), np.linspace(0, 4, 40)[:, None])
        batch = sample_paths(ctx, 20, seed=0)
        ctx.gram.data
        tracemalloc.start()
        try:
            covariance_error_report(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * ctx.size**2

    @staticmethod
    def unscaled_tolerance(batch, target):
        """The 4-SE tolerance of a batch with covariance ``target``, as it
        was formed before it was scaled."""
        diag = np.diag(target)
        with np.errstate(over="ignore"):
            var = np.outer(diag, diag) + target**2
        return 4.0 * float(np.sqrt(var.max() / batch.count))

    @pytest.mark.parametrize("exponent", range(-150, 151, 10))
    def test_mc_tolerance_without_overflow(self, exponent):
        # equal to the unscaled formula wherever that is finite; past
        # |K| ~ 1.3e154 (sigma ~ 1.2e77) equal to it on T * 2**-600, scaled
        # back, where that is finite and it is not
        for mantissa in (1.0, 3.7):
            text = f"gauss(sigma={mantissa!r}e{exponent},ell=1)"
            batch = sample_paths(make_context(make_kernel(text), [[0], [0.5], [1]]), 10, seed=0)
            tol = covariance_error_report(batch).mc_tolerance
            target = batch.target_covariance
            expected = self.unscaled_tolerance(batch, target)
            if not np.isfinite(expected):
                expected = self.unscaled_tolerance(batch, target * 2.0**-600) * 2.0**600
                assert exponent > 70 and np.isfinite(expected)
            assert tol == expected, text

    def test_non_finite_error_or_tolerance_fails(self):
        # |K| = 8.1e307: the one path's second moments overflow, and so does
        # four standard errors at N = 1
        ctx = make_context(make_kernel("gauss(sigma=9e153,ell=1)"), [[0], [0.5]])
        batch = SampleBatch(ctx, 0, np.array([3.0, -1.0]).reshape(1, 2, 1) * 9e153)
        with np.errstate(over="ignore", invalid="ignore"):
            report = covariance_error_report(batch)
        assert report.max_abs_err == report.mc_tolerance == np.inf
        assert not report.pass_

    @pytest.mark.parametrize(
        "text,sites",
        [
            (GAUSS1, [[0], [0.4], [1.0]]),
            ("gauss(sigma=2,ell=0.5,dim=2)", [[0], [1]]),
            ("diagexp3", [[0], [0.7], [1.5]]),
            ("rational2", [[0], [1]]),  # PSD only at unit-distance sites
            ("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))", [[0], [1]]),
            ("normalized(inner=gauss(sigma=3,ell=1,dim=1))", [[0], [0.5], [1.2]]),
            # channel factors with a rotated basis, nested specs, 8 channels,
            # and a near-singular Gram that needs jitter
            ("normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8)))",
             [[0], [0.5], [1.2]]),
            ("separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=normalized(inner=gauss(sigma=2,ell=0.7)))",
             [[0], [0.8]]),
            ("normalized(inner=normalized(inner=diagexp3))", [[0], [0.7]]),
            ("gauss(sigma=1,ell=1,dim=8)", [[0], [0.9]]),
            ("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))", [[0], [1e-5], [2e-5]]),
        ],
    )
    def test_covariance_recovery_across_zoo(self, text, sites):
        ctx = make_context(make_kernel(text), sites)
        report = covariance_error_report(sample_paths(ctx, 50_000, seed=0))
        assert report.pass_

    def test_linear_functional_variance(self, two_site_ctx):
        batch = sample_paths(two_site_ctx, 20_000, seed=1)
        flat = batch.paths.reshape(batch.count, -1)
        T = batch.target_covariance
        rng = np.random.default_rng(0)
        for _ in range(10):
            lam = rng.standard_normal(2)
            target = float(lam @ T @ lam)
            sample_var = float(np.mean((flat @ lam) ** 2))
            band = 4.0 * target * np.sqrt(2.0 / batch.count)
            assert abs(sample_var - target) <= band


class TestExport:
    def test_binary_round_trip(self, two_site_ctx, tmp_path):
        batch = sample_paths(two_site_ctx, 25, seed=9)
        path = tmp_path / "batch.bin"
        batch_to_binary(batch, path)
        seed, paths = batch_from_binary(path)
        assert seed == 9
        np.testing.assert_array_equal(paths, batch.paths)

    def test_binary_magic(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTGP1" + b"\0" * 20)
        with pytest.raises(ValueError, match="magic"):
            batch_from_binary(bad)

    @pytest.mark.parametrize("keep", [-8, -1, 6 + 20, 6 + 19, 6])
    def test_truncated_file_refused(self, two_site_ctx, tmp_path, keep):
        # cut inside the values or inside the header
        path = tmp_path / "batch.bin"
        batch_to_binary(sample_paths(two_site_ctx, 3, seed=0), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="^truncated batch file$"):
            batch_from_binary(path)

    def test_unknown_version_refused(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"OPKGP5" + struct.pack("<QIII", 0, 1, 1, 1) + b"\0" * 8)
        with pytest.raises(ValueError, match="magic"):
            batch_from_binary(bad)

    def test_reads_v1_file(self, tmp_path):
        values = np.arange(6, dtype="<f8")
        path = tmp_path / "v1.bin"
        path.write_bytes(b"OPKGP1" + struct.pack("<QIII", 11, 3, 2, 1) + values.tobytes())
        seed, paths = batch_from_binary(path)
        assert seed == 11
        np.testing.assert_array_equal(paths, values.reshape(3, 2, 1))

    def test_reads_v2_file(self, tmp_path):
        values = np.arange(12, dtype="<f8")
        path = tmp_path / "v2.bin"
        path.write_bytes(b"OPKGP2" + struct.pack("<QIII", 12, 2, 3, 2) + values.tobytes())
        seed, paths = batch_from_binary(path)
        assert seed == 12
        np.testing.assert_array_equal(paths, values.reshape(2, 3, 2))

    def test_reads_v3_file(self, tmp_path):
        values = np.arange(8, dtype="<f8")
        path = tmp_path / "v3.bin"
        path.write_bytes(b"OPKGP3" + struct.pack("<QIII", 13, 4, 1, 2) + values.tobytes())
        seed, paths = batch_from_binary(path)
        assert seed == 13
        np.testing.assert_array_equal(paths, values.reshape(4, 1, 2))

    @staticmethod
    def handmade_batch(layout="c"):
        # no sampling, so the bytes are the same on every host
        ctx = make_context(make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0.0], [1.0], [2.5]])
        paths = ((np.arange(30, dtype=np.float64) - 7.0) / 7.0).reshape(5, 3, 2)
        if layout == "big-endian":
            paths = paths.astype(">f8")
        elif layout == "strided":
            wide = np.zeros((5, 3, 4))
            wide[:, :, ::2] = paths
            paths = wide[:, :, ::2]
        return SampleBatch(context=ctx, seed=2**63 + 5, paths=paths)

    def test_binary_bytes_pinned(self, tmp_path):
        # SHA-256 of the file the earlier writer, paths.astype("<f8").tobytes(),
        # made of this batch, under stream v4's magic (with OPKGP3: ac04119f...)
        path = tmp_path / "batch.bin"
        batch_to_binary(self.handmade_batch(), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "b0dd48344eb88ab795a3449eaa2d6265ad0e333713f967e652f73f1817e751ef"

    @pytest.mark.parametrize("layout", ["c", "big-endian", "strided"])
    def test_binary_bytes_any_layout(self, tmp_path, layout):
        batch = self.handmade_batch(layout)
        path = tmp_path / "batch.bin"
        batch_to_binary(batch, path)
        header = BINARY_MAGIC + struct.pack("<QIII", batch.seed, 5, 3, 2)
        assert path.read_bytes() == header + batch.paths.astype("<f8").tobytes()

    def test_csv_header(self, two_site_ctx, tmp_path):
        batch = sample_paths(two_site_ctx, 3, seed=2)
        path = tmp_path / "batch.csv"
        batch_to_csv(batch, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# seed,2")
        assert len(lines) == 4
