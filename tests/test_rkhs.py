import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opkern import gram as gram_mod
from opkern.gram import BlockGram, GramError, assemble_gram, factorize, raw_gram
from opkern.kernels import OperatorKernel, make_kernel, render_spec
from opkern.rkhs import (
    RkhsContext,
    RkhsElement,
    TransformFamily,
    chain_apply,
    covariance,
    element_to_json_dict,
    evaluate_element,
    feature_adjoint,
    frame_projection,
    inner_product,
    make_context,
    onb_expansion,
    section,
    transformed_adjoint,
    transformed_embed,
    verify_identities,
    zero_element,
)
from opkern.rkhs import _w_chain_matrix

GAUSS1 = "gauss(sigma=1,ell=1,dim=1)"


@pytest.fixture
def gauss_ctx():
    return make_context(make_kernel(GAUSS1), [[0], [1]])


@pytest.fixture
def diagexp_ctx():
    return make_context(make_kernel("diagexp3"), [[0], [1]])


@pytest.fixture
def norm_ctx():
    k = make_kernel("normalized(inner=gauss(sigma=2,ell=1,dim=2))")
    return make_context(k, [[0.0], [0.6], [1.3], [2.1], [3.0]])


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestContext:
    def test_gaussian_two_site_gram(self, gauss_ctx):
        e = math.exp(-0.5)
        np.testing.assert_allclose(gauss_ctx.gram.data, [[1, e], [e, 1]])

    def test_diagexp_gram(self, diagexp_ctx):
        D = np.diag([1.0, math.exp(-1), math.exp(-1)])
        expected = np.block([[np.eye(3), D], [D, np.eye(3)]])
        np.testing.assert_allclose(diagexp_ctx.gram.data, expected)

    def test_indefinite_raw_rejected(self):
        k = make_kernel(GAUSS1)
        with pytest.raises(ValueError, match="not PSD"):
            make_context(k, [[0], [1]], raw_data=[[0.0, 1.0], [1.0, 0.0]])

    def test_indefinite_raw_rejected_under_channel_kernel(self):
        # the raw matrix replaces the kernel Gram whole: the kernel's channel
        # Grams (PSD here) must not certify it
        k = make_kernel("gauss(sigma=1,ell=1,dim=2)")
        raw = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="not PSD"):
            make_context(k, [[0], [1]], raw_data=raw)

    def test_raw_data_evaluates_no_kernel(self, monkeypatch):
        # the raw matrix replaces the Gram whole, so no kernel Gram is built
        def fail(S, T):
            raise AssertionError("kernel Gram assembled")

        monkeypatch.setattr(OperatorKernel, "sq_dists", staticmethod(fail))
        ctx = make_context(make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0], [1]],
                           raw_data=np.eye(4))
        # the raw matrix is its own one channel
        assert np.array_equal(ctx.gram.data, np.eye(4))
        assert ctx.gram.channels.shape == (1, 4, 4) and np.array_equal(ctx.gram.basis, [[1.0]])

    def test_raw_data_symmetrized_exactly(self):
        k = make_kernel(GAUSS1)
        raw = assemble_gram(k, [[0], [1], [2]]).data.copy()
        raw[0, 1] += 1e-3
        ctx = make_context(k, [[0], [1], [2]], raw_data=raw)
        assert np.array_equal(ctx.gram.data, ctx.gram.data.T)

    def test_context_hash_matches_per_site_digest(self):
        # one update over the (n, k) site array equals one update per site,
        # whatever the array's memory layout
        k = make_kernel("gauss(sigma=1,ell=1,dim=2)")
        ctx = make_context(k, [[0.0, 1.0], [0.5, -2.0], [3.0, 0.25]])
        fortran = RkhsContext(k, BlockGram(sites=np.asfortranarray(ctx.sites), data=ctx.gram.data))
        assert fortran.sites.flags.f_contiguous and not fortran.sites.flags.c_contiguous
        h = hashlib.sha256()
        h.update(render_spec(k.spec).encode())
        for s in ctx.sites:
            h.update(s.tobytes())
        h.update(ctx.gram.data.tobytes())
        assert ctx.context_hash() == fortran.context_hash() == h.hexdigest()[:16]

    def test_element_equality_mod_null_space(self):
        # rank-deficient Gram: duplicated site makes sections (0,a), (1,a)
        # identical in the RKHS though their coefficients differ
        ctx = make_context(make_kernel(GAUSS1), [[0], [0]])
        assert section(ctx, 0, [1]).is_equal(section(ctx, 1, [1]))
        assert not section(ctx, 0, [1]).is_equal(zero_element(ctx))


class TestPublicEntryValidation:
    """Inputs are checked where they enter; internal elements are trusted."""

    BAD_VECTORS = [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0], [1.0, 2.0, 3.0], [1.0]]

    @pytest.mark.parametrize("bad", BAD_VECTORS)
    def test_section_rejects(self, norm_ctx, bad):
        with pytest.raises(ValueError):
            section(norm_ctx, 0, bad)

    @pytest.mark.parametrize("bad", BAD_VECTORS)
    def test_transformed_embed_rejects(self, norm_ctx, bad):
        fam = TransformFamily(norm_ctx, [np.eye(2)] * norm_ctx.n)
        with pytest.raises(ValueError):
            transformed_embed(fam, 0, bad)

    @pytest.mark.parametrize("bad", BAD_VECTORS)
    def test_evaluate_element_rejects_direction(self, norm_ctx, bad):
        with pytest.raises(ValueError):
            evaluate_element(zero_element(norm_ctx), [0.5], bad)

    @pytest.mark.parametrize("t", [[np.nan], [np.inf]])
    def test_evaluate_element_rejects_site(self, norm_ctx, t):
        with pytest.raises(ValueError):
            evaluate_element(zero_element(norm_ctx), t, [1.0, 0.0])

    @pytest.mark.parametrize("pos, value", [(0, np.nan), (3, np.inf), (9, -np.inf)])
    def test_element_rejects_nonfinite(self, norm_ctx, pos, value):
        coeffs = np.ones(norm_ctx.size)
        coeffs[pos] = value
        with pytest.raises(ValueError, match="finite"):
            RkhsElement(norm_ctx, coeffs)

    @pytest.mark.parametrize("size", [0, 9, 11])
    def test_element_rejects_length(self, norm_ctx, size):
        with pytest.raises(ValueError, match="length"):
            RkhsElement(norm_ctx, np.ones(size))

    @pytest.mark.parametrize("count", [0, 4, 6])
    def test_family_rejects_transform_count(self, norm_ctx, count):
        with pytest.raises(ValueError, match="^need one transform per site$"):
            TransformFamily(norm_ctx, [np.eye(2)] * count)

    @pytest.mark.parametrize("bad", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [0, 1]], np.eye(3)])
    def test_family_rejects_matrix(self, norm_ctx, bad):
        with pytest.raises(ValueError, match="^transforms must be finite 2x2 matrices$"):
            TransformFamily(norm_ctx, [np.eye(2)] * 4 + [bad])


class TestInnerProduct:
    def test_section_self_product(self, diagexp_ctx):
        x = section(diagexp_ctx, 0, [0, 1, 0])
        assert inner_product(x, x) == pytest.approx(1.0)

    def test_cross_sections(self, gauss_ctx):
        a = section(gauss_ctx, 0, [1])
        b = section(gauss_ctx, 1, [1])
        assert inner_product(a, b) == pytest.approx(math.exp(-0.5))

    def test_zero_element(self, gauss_ctx):
        z = zero_element(gauss_ctx)
        y = RkhsElement(gauss_ctx, [1.0, -2.0])
        assert inner_product(z, y) == 0.0

    def test_context_mismatch(self, gauss_ctx, diagexp_ctx):
        with pytest.raises(ValueError, match="different contexts"):
            inner_product(section(gauss_ctx, 0, [1]), zero_element(diagexp_ctx))

    @pytest.fixture
    def tiny_negative_ctx(self):
        # G = [[1, 1+e], [1+e, 1]] has the eigenvalue -e, within the PSD
        # tolerance, and (1, -1) G (1, -1) = -2e
        e = 1e-13
        raw = [[1.0, 1.0 + e], [1.0 + e, 1.0]]
        return make_context(make_kernel(GAUSS1), [[0], [1]], raw_data=raw)

    def test_tiny_negative_self_product_clamps(self, tiny_negative_ctx):
        x = RkhsElement(tiny_negative_ctx, [1.0, -1.0])
        assert float(x.coeffs @ tiny_negative_ctx.gram.data @ x.coeffs) < 0.0
        assert inner_product(x, x) == 0.0
        assert inner_product(x, RkhsElement(tiny_negative_ctx, [1.0, -1.0])) == 0.0
        assert x.g_norm() == 0.0
        # a tiny negative product of two different elements is not clamped
        assert -1e-12 <= inner_product(x, RkhsElement(tiny_negative_ctx, [2.0, -2.0])) < 0.0

    def test_coefficients_compared_only_where_a_clamp_can_apply(
        self, monkeypatch, gauss_ctx, tiny_negative_ctx
    ):
        calls = []
        real = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *a: calls.append(1) or real(*a))
        x = section(gauss_ctx, 0, [1])
        inner_product(x, x)
        inner_product(x, section(gauss_ctx, 1, [-1]))
        assert calls == []
        y = RkhsElement(tiny_negative_ctx, [1.0, -1.0])
        assert inner_product(y, RkhsElement(tiny_negative_ctx, [1.0, -1.0])) == 0.0
        assert calls == [1]


class TestEvaluateElement:
    def test_section_off_grid(self, gauss_ctx):
        x = section(gauss_ctx, 0, [1])
        assert evaluate_element(x, [1], [1]) == pytest.approx(math.exp(-0.5))

    def test_zero_everywhere(self, diagexp_ctx):
        z = zero_element(diagexp_ctx)
        assert evaluate_element(z, [0.37], [1, 1, 1]) == 0.0

    def test_reproducing_on_grid(self, diagexp_ctx):
        x = section(diagexp_ctx, 1, [0, 1, 0])
        val = evaluate_element(x, [1], [0, 1, 0])
        assert val == pytest.approx(1.0)  # K(s,s)[1,1]

    def test_matches_gram_action_on_grid(self, norm_ctx):
        rng = np.random.default_rng(1)
        x = RkhsElement(norm_ctx, rng.standard_normal(norm_ctx.size))
        gc = norm_ctx.gram.data @ x.coeffs
        for i in range(norm_ctx.n):
            for axis in range(norm_ctx.d):
                e = np.eye(norm_ctx.d)[axis]
                assert evaluate_element(x, norm_ctx.sites[i], e) == pytest.approx(
                    gc[i * norm_ctx.d + axis], rel=1e-12, abs=1e-12
                )


class TestFeatureOperators:
    def test_embed_norm_is_covariance_form(self, diagexp_ctx):
        x = section(diagexp_ctx, 0, [0, 1, 0])
        assert inner_product(x, x) == pytest.approx(1.0)

    def test_embed_zero(self, diagexp_ctx):
        assert section(diagexp_ctx, 1, [0, 0, 0]).g_norm() == 0.0

    def test_isometry_under_normalization(self, norm_ctx):
        a = np.array([0.6, -0.8])
        x = section(norm_ctx, 2, a)
        assert x.g_norm() == pytest.approx(1.0, abs=1e-10)

    def test_adjoint_on_section(self, diagexp_ctx):
        x = section(diagexp_ctx, 1, [0, 1, 0])
        np.testing.assert_allclose(
            feature_adjoint(diagexp_ctx, 0, x), [0, math.exp(-1), 0]
        )

    def test_adjoint_zero(self, diagexp_ctx):
        np.testing.assert_array_equal(
            feature_adjoint(diagexp_ctx, 0, zero_element(diagexp_ctx)), np.zeros(3)
        )

    def test_adjoint_same_site(self, gauss_ctx):
        x = section(gauss_ctx, 0, [1])
        assert feature_adjoint(gauss_ctx, 0, x) == pytest.approx([1.0])

    def test_covariance_values(self):
        ctx = make_context(make_kernel("gauss(sigma=2,ell=1,dim=1)"), [[0]])
        np.testing.assert_allclose(covariance(ctx, 0), [[4.0]])

    def test_covariance_diagexp(self, diagexp_ctx):
        np.testing.assert_allclose(covariance(diagexp_ctx, 0), np.eye(3))

    def test_covariance_rational2(self):
        ctx = make_context(make_kernel("rational2"), [[0], [1]])
        np.testing.assert_allclose(covariance(ctx, 0), np.ones((2, 2)))

    def test_covariance_equals_adjoint_embed_composition(self, norm_ctx):
        d = norm_ctx.d
        for i in range(norm_ctx.n):
            comp = np.column_stack(
                [
                    feature_adjoint(norm_ctx, i, section(norm_ctx, i, e))
                    for e in np.eye(d)
                ]
            )
            assert np.abs(comp - covariance(norm_ctx, i)).max() <= 1e-12

    def test_index_out_of_range(self, gauss_ctx):
        with pytest.raises(IndexError):
            covariance(gauss_ctx, 5)


class TestFrameProjection:
    def test_fixes_own_range_under_normalization(self, norm_ctx):
        x = section(norm_ctx, 1, [1, 0])
        assert frame_projection(norm_ctx, 1, x).g_distance(x) <= 1e-10

    def test_zero(self, diagexp_ctx):
        z = zero_element(diagexp_ctx)
        assert frame_projection(diagexp_ctx, 0, z).g_norm() == 0.0

    def test_section_mapping_oracle(self, diagexp_ctx):
        # dense oracle: coefficients e_0 (x) (G c)_0
        x = section(diagexp_ctx, 1, [0, 1, 0])
        out = frame_projection(diagexp_ctx, 0, x)
        expected = section(diagexp_ctx, 0, [0, math.exp(-1), 0])
        np.testing.assert_allclose(out.coeffs, expected.coeffs)


class TestTransformedFamily:
    def test_identity_transforms_match_feature_embed(self, diagexp_ctx):
        fam = TransformFamily(diagexp_ctx, [np.eye(3)] * 2)
        a = [0.3, -1.0, 0.7]
        np.testing.assert_array_equal(
            transformed_embed(fam, 1, a).coeffs, section(diagexp_ctx, 1, a).coeffs
        )
        x = RkhsElement(diagexp_ctx, np.arange(6.0))
        np.testing.assert_allclose(
            transformed_adjoint(fam, 0, x), feature_adjoint(diagexp_ctx, 0, x)
        )

    def test_zero_transform(self, diagexp_ctx):
        fam = TransformFamily(diagexp_ctx, [np.zeros((3, 3))] * 2)
        assert transformed_embed(fam, 0, [1, 1, 1]).g_norm() == 0.0

    def test_rotation_preserves_norm_scalar_kernel(self):
        ctx = make_context(make_kernel("gauss(sigma=2,ell=1,dim=2)"), [[0], [1]])
        fam = TransformFamily(ctx, [rotation(0.3), rotation(-1.1)])
        a = np.array([0.6, 0.8])  # unit
        w = transformed_embed(fam, 0, a)
        assert inner_product(w, w) == pytest.approx(4.0)  # sigma^2

    def test_adjoint_oracle(self, diagexp_ctx):
        # dense oracle: B^T (G c)_i
        B1 = np.diag([0.0, 1.0, 0.0])
        fam = TransformFamily(diagexp_ctx, [B1, np.eye(3)])
        x = section(diagexp_ctx, 1, [1, 1, 1])
        expected = B1.T @ (diagexp_ctx.gram.data @ x.coeffs)[:3]
        np.testing.assert_allclose(transformed_adjoint(fam, 0, x), expected)
        np.testing.assert_allclose(expected, [0, math.exp(-1), 0])

    def test_w_adjoint_composition_identity(self, norm_ctx):
        rng = np.random.default_rng(11)
        mats = [rng.standard_normal((2, 2)) for _ in range(norm_ctx.n)]
        fam = TransformFamily(norm_ctx, mats)
        b = rng.standard_normal(2)
        i, j = 1, 3
        lhs = transformed_adjoint(fam, i, transformed_embed(fam, j, b))
        rhs = mats[i].T @ norm_ctx.gram.block(i, j) @ mats[j] @ b
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_unitary_flag(self, norm_ctx):
        fam = TransformFamily(norm_ctx, [rotation(i * 0.4) for i in range(5)])
        assert fam.is_unitary()
        fam2 = TransformFamily(norm_ctx, [2 * np.eye(2)] * 5)
        assert not fam2.is_unitary()


class TestChainApply:
    def test_identity_transform_projection_fixes_section(self, norm_ctx):
        fam = TransformFamily(norm_ctx, [np.eye(2)] * norm_ctx.n)
        x = section(norm_ctx, 2, [0.0, 1.0])
        out = chain_apply(fam, [2], x)
        assert out.g_distance(x) <= 1e-10

    def test_idempotent_with_unitary_transforms(self, norm_ctx):
        fam = TransformFamily(norm_ctx, [rotation(i * 0.7) for i in range(5)])
        rng = np.random.default_rng(2)
        x = RkhsElement(norm_ctx, rng.standard_normal(norm_ctx.size))
        once = chain_apply(fam, [3], x)
        twice = chain_apply(fam, [3, 3], x)
        assert twice.g_distance(once) <= 1e-10 * max(x.g_norm(), 1.0)

    def test_matches_dense_matrix_oracle(self):
        # explicit nd x nd factors for each W_i W_i^*
        ctx = make_context(
            make_kernel("gauss(sigma=1,ell=1,dim=2)"), [[0], [0.5], [1.2], [2.0]]
        )
        rng = np.random.default_rng(9)
        mats = [rng.standard_normal((2, 2)) for _ in range(4)]
        fam = TransformFamily(ctx, mats)
        x = RkhsElement(ctx, rng.standard_normal(ctx.size))
        G = ctx.gram.data
        n, d = ctx.n, ctx.d

        def dense(i):
            S = np.zeros((d, n * d))
            S[:, i * d : (i + 1) * d] = np.eye(d)
            return S.T @ mats[i] @ mats[i].T @ S @ G

        out = chain_apply(fam, [0, 2, 1], x)
        expected = dense(0) @ dense(2) @ dense(1) @ x.coeffs
        assert np.abs(out.coeffs - expected).max() <= 1e-10

    def test_empty_indices(self, norm_ctx):
        fam = TransformFamily(norm_ctx, [np.eye(2)] * 5)
        with pytest.raises(ValueError, match="nonempty"):
            chain_apply(fam, [], zero_element(norm_ctx))


class TestOnbExpansion:
    def test_rank_one_constant_kernel(self):
        ctx = make_context(make_kernel("gauss(sigma=1,ell=1000000,dim=1)"), [[0], [0.5], [1]])
        basis = onb_expansion(ctx, 1e-8)
        assert len(basis) == 1
        G = ctx.gram.data
        vals = G @ basis[0].coeffs
        np.testing.assert_allclose(np.outer(vals, vals), G, atol=1e-8)

    def test_gaussian_two_sites(self, gauss_ctx):
        # oracle: 2x2 eigendecomposition reconstructs G exactly
        basis = onb_expansion(gauss_ctx, 1e-12)
        assert len(basis) == 2
        G = gauss_ctx.gram.data
        recon = sum(np.outer(G @ b.coeffs, G @ b.coeffs) for b in basis)
        assert np.abs(recon - G).max() <= 1e-10

    def test_g_orthonormal(self, norm_ctx):
        basis = onb_expansion(norm_ctx, 1e-12)
        G = norm_ctx.gram.data
        U = np.column_stack([b.coeffs for b in basis])
        gram_of_basis = U.T @ G @ U
        assert np.abs(gram_of_basis - np.eye(len(basis))).max() <= 1e-10

    @staticmethod
    def _count_decompositions(monkeypatch, nd):
        """Count nd x nd eigh/eigvalsh/cholesky calls, and every call by
        its name and the shape of its argument."""
        calls, shapes = Counter(), Counter()
        for name in ("eigh", "eigvalsh", "cholesky"):

            def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kw):
                if np.shape(a) == (nd, nd):
                    calls[_name] += 1
                shapes[_name, np.shape(a)] += 1
                return _fn(a, *args, **kw)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls, shapes

    def test_channel_path_decompositions(self, monkeypatch):
        # make_context -> factorize -> onb_expansion: psd_check's one
        # stacked (d, n, n) eigh serves the certificate and the basis, one
        # stacked (d, n, n) Cholesky the factor, and no nd x nd
        # decomposition runs
        sites = np.linspace(0.0, 6.0, 12)[:, None]
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        calls, shapes = self._count_decompositions(monkeypatch, 24)
        ctx = make_context(k, sites)
        factorize(ctx.gram)
        basis = onb_expansion(ctx, 1e-12)
        assert ctx.gram.jitter_used == 0.0
        assert calls == {}
        assert shapes == {("eigh", (2, 12, 12)): 1, ("cholesky", (2, 12, 12)): 1}
        assert len(basis) == 24

    def test_raw_data_path_decompositions(self, monkeypatch):
        # a raw Gram is its own one channel: one (1, nd, nd) eigh and one
        # (1, nd, nd) Cholesky, which give the dense eigh's eigenvalues and
        # the dense Cholesky factor bitwise
        sites = np.linspace(0.0, 6.0, 12)[:, None]
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        raw = assemble_gram(k, sites).data
        eigh, cholesky = np.linalg.eigh, np.linalg.cholesky
        calls, shapes = self._count_decompositions(monkeypatch, 24)
        ctx = make_context(k, sites, raw_data=raw)
        factorize(ctx.gram)
        basis = onb_expansion(ctx, 1e-12)
        g = ctx.gram
        assert g.channels.shape == (1, 24, 24)
        assert calls == {}
        assert shapes == {("eigh", (1, 24, 24)): 1, ("cholesky", (1, 24, 24)): 1}
        assert np.array_equal(g.spectrum.eigenvalues, eigh(g.data)[0][::-1])
        assert np.array_equal(g.factor, cholesky(g.data + g.jitter_used * np.eye(24)))
        assert len(basis) == 24

    def test_elements_share_one_array(self, norm_ctx):
        basis = onb_expansion(norm_ctx, 1e-12)
        rows = basis[0].coeffs.base
        assert rows is not None and rows.flags.c_contiguous
        assert all(b.coeffs.base is rows for b in basis)

    def test_all_truncated(self, gauss_ctx):
        with pytest.raises(ValueError, match="truncated"):
            onb_expansion(gauss_ctx, 2.0)


class TestVerifyIdentities:
    def test_normalized_gaussian_all_pass(self, norm_ctx):
        report = verify_identities(norm_ctx, trials=100, seed=1)
        assert report.all_pass
        assert max(r["max_residual"] for r in report.results.values()) <= 1e-8

    def test_with_transform_family(self, norm_ctx):
        rng = np.random.default_rng(4)
        fam = TransformFamily(
            norm_ctx, [rng.standard_normal((2, 2)) for _ in range(5)]
        )
        report = verify_identities(norm_ctx, fam=fam, trials=60, seed=2)
        assert report.all_pass
        assert "w_chain" in report.results

    def test_unitary_family_projection_identities(self, norm_ctx):
        fam = TransformFamily(norm_ctx, [rotation(i * 0.5) for i in range(5)])
        report = verify_identities(norm_ctx, fam=fam, trials=60, seed=3)
        assert report.all_pass
        assert "w_isometry" in report.results
        assert "w_projection_idempotent" in report.results

    def test_separable_kernel_all_pass(self):
        # K(s,s) = B is not a multiple of I, so the norm bound needs the
        # largest eigenvalue of each covariance, not any other
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        ctx = make_context(k, [[0.0], [0.4], [1.1], [2.0]])
        report = verify_identities(ctx, trials=60, seed=5)
        assert report.all_pass
        assert "norm_bound" in report.results

    def test_covariance_psd_record_matches_per_site_loop(self):
        # a context built around psd_check, with one indefinite diagonal block
        k = make_kernel("rational2")
        sites = [[0.0], [1.0], [3.0]]
        data = assemble_gram(k, sites).data.copy()
        data[2:4, 2:4] = [[1.0, 2.0], [2.0, 1.0]]
        g = raw_gram(k, sites, data)
        ctx = RkhsContext(kernel=k, gram=g)
        worst = 0.0
        for i in range(g.n):
            lam = np.linalg.eigvalsh(g.block(i, i))
            worst = max(worst, max(0.0, -float(lam.min())) / max(float(lam.max()), 1.0))
        record = verify_identities(ctx, trials=5, seed=0).results["covariance_selfadjoint_psd"]
        assert worst == pytest.approx(1.0 / 3.0)
        assert record["max_residual"] == worst
        assert not record["pass"]

    def test_corrupted_gram_caught(self):
        k = make_kernel(GAUSS1)
        g = assemble_gram(k, [[0], [1]])
        corrupted = g.data.copy()
        corrupted[0, 1] += 0.1
        ctx = make_context(k, [[0], [1]], raw_data=corrupted)
        report = verify_identities(ctx, trials=20, seed=0)
        assert not report.results["factorization_consistency"]["pass"]

    @pytest.mark.parametrize("entries", [1, 200, None])
    def test_consistency_by_row_blocks_keeps_its_bits(self, entries, monkeypatch):
        # G against fresh kernel blocks, one block of rows at a time: the
        # same residual as the dense comparison, for blocks of 1 site, of a
        # few sites and of all of them
        if entries is not None:
            monkeypatch.setattr(gram_mod, "ROW_BLOCK_ENTRIES", entries)
        k = make_kernel("separable(B=[[2,1,0],[1,3,1],[0,1,1]],base=gauss(sigma=1,ell=0.7))")
        sites = np.linspace(0.0, 3.0, 11)[:, None]
        raw = assemble_gram(k, sites).data.copy()
        raw[[7, 20], [20, 7]] += 1e-10
        ctx = make_context(k, sites, raw_data=raw)
        blocks = ctx.gram.data.reshape(11, 3, 11, 3).transpose(0, 2, 1, 3)
        dense = np.abs(blocks - k.blocks(ctx.sites, ctx.sites)).max()
        dense /= 1.0 + float(np.abs(ctx.gram.data).max())
        got = verify_identities(ctx, trials=2).residuals["factorization_consistency"]
        assert got.hex() == float(dense).hex() and got > 0.0

    def test_single_site_degenerate(self):
        ctx = make_context(make_kernel(GAUSS1), [[0]])
        report = verify_identities(ctx, trials=10, seed=0)
        assert report.all_pass

    def test_trials_validation(self, gauss_ctx):
        with pytest.raises(ValueError):
            verify_identities(gauss_ctx, trials=0)

    def test_report_serializable(self, norm_ctx):
        import json

        report = verify_identities(norm_ctx, trials=5, seed=0)
        payload = report.to_json_dict()
        json.dumps(payload)
        assert all({"max_residual", "tolerance", "pass"} == set(v) for v in payload.values())

    def test_one_kernel_row_per_trial(self, norm_ctx, monkeypatch):
        # the consistency check's n x n evaluation, one row per trial for
        # every reproducing axis, and four point evaluations per continuity
        # trial; a per-axis evaluation would add (d - 1) * trials
        calls = Counter()
        blocks = OperatorKernel.blocks

        def counted(self, S, T):
            calls["blocks"] += 1
            return blocks(self, S, T)

        monkeypatch.setattr(OperatorKernel, "blocks", counted)
        fam = TransformFamily(norm_ctx, [rotation(i * 0.5) for i in range(5)])
        for trials in (5, 30):
            calls.clear()
            verify_identities(norm_ctx, fam=fam, trials=trials, seed=0)
            assert calls["blocks"] == 1 + trials + 4 * min(trials, 20)

    def test_g_products_grow_with_trials_not_size(self):
        # products with G, or with rows of it, per suite run: a fixed number
        # per trial, whatever n*d is
        class CountingGram(np.ndarray):
            width = 0
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and any(
                    isinstance(v, CountingGram) and v.shape[-1] == CountingGram.width
                    for v in inputs
                ):
                    CountingGram.products += 1
                plain = [np.asarray(v) for v in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        kernel = make_kernel("normalized(inner=gauss(sigma=2,ell=1,dim=2))")
        counts = {}
        for n in (3, 12):
            g = make_context(kernel, [[0.7 * s] for s in range(n)]).gram
            counted = BlockGram(sites=g.sites, data=g.data.view(CountingGram))
            ctx = RkhsContext(kernel=kernel, gram=counted)
            CountingGram.width = ctx.size
            for trials in (2, 4, 6):
                CountingGram.products = 0
                verify_identities(ctx, trials=trials, seed=0)
                counts[n, trials] = CountingGram.products
        assert [counts[3, t] for t in (2, 4, 6)] == [counts[12, t] for t in (2, 4, 6)]
        assert counts[3, 6] - counts[3, 4] == counts[3, 4] - counts[3, 2] > 0

    # float.hex of every residual, computed before the factorization
    # identity was read from each trial's vectors; all but that one must
    # stay bitwise the same
    PINNED = {
        "normalized_unitary": [
            ("factorization_consistency", "0x0.0p+0"),
            ("covariance_selfadjoint_psd", "0x0.0p+0"),
            ("factorization", None),
            ("reproducing", "0x1.b11b9a7d33d78p-54"),
            ("feature_norm", "0x0.0p+0"),
            ("adjoint_relation", "0x1.82c33d8ba412ep-54"),
            ("norm_bound", "0x0.0p+0"),
            ("isometry", "0x0.0p+0"),
            ("projection_idempotent", "0x0.0p+0"),
            ("projection_selfadjoint", "0x1.3366415161c68p-52"),
            ("w_norm", "0x0.0p+0"),
            ("w_adjoint", "0x1.8000000000000p-54"),
            ("w_chain", "0x1.2c3da4efdd948p-52"),
            ("w_isometry", "0x1.0000000000000p-53"),
            ("w_projection_idempotent", "0x1.2053da913ae96p-53"),
            ("continuity_consistency", "0x1.a7390f022ea06p-54"),
        ],
        "separable_random": [
            ("factorization_consistency", "0x0.0p+0"),
            ("covariance_selfadjoint_psd", "0x0.0p+0"),
            ("factorization", None),
            ("reproducing", "0x1.b861197196914p-54"),
            ("feature_norm", "0x1.0b986c1509241p-52"),
            ("adjoint_relation", "0x1.2e406e741215bp-52"),
            ("norm_bound", "0x0.0p+0"),
            ("w_norm", "0x1.559c1a86cd508p-53"),
            ("w_adjoint", "0x1.5555555555556p-50"),
            ("w_chain", "0x1.0898bf087faeep-50"),
            ("continuity_consistency", "0x1.b2af29660c4fcp-53"),
        ],
        "diagexp3": [
            ("factorization_consistency", "0x0.0p+0"),
            ("covariance_selfadjoint_psd", "0x0.0p+0"),
            ("factorization", None),
            ("reproducing", "0x1.0c823c6e4311fp-54"),
            ("feature_norm", "0x0.0p+0"),
            ("adjoint_relation", "0x1.041fe515749f6p-54"),
            ("norm_bound", "0x0.0p+0"),
            ("isometry", "0x0.0p+0"),
            ("projection_idempotent", "0x0.0p+0"),
            ("projection_selfadjoint", "0x1.a4b9999871107p-52"),
            ("continuity_consistency", "0x1.0611a556059e9p-53"),
        ],
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_residuals_bitwise_pinned(self, norm_ctx, case):
        if case == "normalized_unitary":
            fam = TransformFamily(norm_ctx, [rotation(i * 0.5) for i in range(5)])
            report = verify_identities(norm_ctx, fam, trials=12, seed=3)
        elif case == "separable_random":
            k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
            ctx = make_context(k, [[0.0], [0.4], [1.1], [2.0]])
            rng = np.random.default_rng(6)
            fam = TransformFamily(ctx, [rng.standard_normal((2, 2)) for _ in range(4)])
            report = verify_identities(ctx, fam, trials=12, seed=5)
        else:
            ctx = make_context(make_kernel("diagexp3"), [[0.0], [0.5], [1.2]])
            report = verify_identities(ctx, trials=12, seed=7)
        got = [(name, r["max_residual"].hex()) for name, r in report.results.items()]
        assert [name for name, _ in got] == [name for name, _ in self.PINNED[case]]
        for (name, value), (_, pinned) in zip(got, self.PINNED[case]):
            if pinned is not None:
                assert value == pinned, name
        assert 0.0 < report.results["factorization"]["max_residual"] <= 1e-14

    def test_raw_gram_off_the_kernel_fails_factorization(self):
        # one symmetric pair 1e-9 * scale off the kernel: within the
        # consistency check's 1e-8, far outside factorization's 1e-12
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        sites = [[0.0], [0.9], [2.0]]
        raw = assemble_gram(k, sites).data.copy()
        delta = 1e-9 * (1.0 + np.abs(raw).max())
        raw[1, 4] += delta
        raw[4, 1] += delta
        report = verify_identities(make_context(k, sites, raw_data=raw), trials=20, seed=0)
        assert report.results["factorization_consistency"]["pass"]
        assert report.results["factorization"]["max_residual"] > 1e-11
        assert not report.results["factorization"]["pass"]

    def test_nan_residual_sticks_and_fails(self):
        # |K| = 1e200: the G-inner products of frame projections overflow,
        # and the NaN residual fails where max() would drop it
        ctx = make_context(make_kernel("gauss(sigma=1e100,ell=1)"), [[0], [1]])
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_identities(ctx, trials=5)
        record = report.results["norm_bound"]
        assert math.isnan(record["max_residual"]) and record["pass"] is False
        assert not report.all_pass
        # a Gram holding a NaN is refused when it is built
        data = ctx.gram.data.copy()
        data[0, 1] = data[1, 0] = np.nan
        with pytest.raises(GramError, match="non-finite"):
            BlockGram(sites=ctx.sites, data=data)

    @given(
        d=st.sampled_from([1, 2, 3, 8]),
        n=st.integers(1, 12),
        chain=st.lists(st.integers(0, 11), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_w_chain_matrix_matches_dense_selector_product(self, d, n, chain, seed):
        rng = np.random.default_rng(seed)
        nd = n * d
        A = rng.standard_normal((nd, nd))
        ctx = make_context(
            make_kernel(f"gauss(sigma=1,ell=1,dim={d})"),
            [[float(s)] for s in range(n)],
            raw_data=A @ A.T + nd * np.eye(nd),
        )
        fam = TransformFamily(ctx, [rng.standard_normal((d, d)) for _ in range(n)])
        idx = [p % n for p in chain]
        # the dense form: nd x nd selector products, one per chain index,
        # and the same product over absolute values for the error bound
        G = ctx.gram.data
        dense, magnitude = np.eye(nd), np.eye(nd)
        for p in idx:
            S = np.zeros((d, nd))
            S[:, p * d : (p + 1) * d] = np.eye(d)
            B = fam.mats[p]
            selected = S.T @ (B @ B.T) @ S
            dense = dense @ (selected @ G)
            magnitude = magnitude @ (np.abs(selected) @ np.abs(G))
        rows = _w_chain_matrix(fam, idx)
        if d == 1:
            # one nonzero term per entry of each factor: both forms round
            # each product once, so they agree exactly
            assert np.array_equal(rows, dense)
        # otherwise the order in which BLAS sums the d nonzero terms of an
        # nd-long dot product may differ; both forms stay within the
        # forward error bound k * gamma_nd * |P_1| ... |P_k| of the exact
        # product
        bound = 2 * len(idx) * nd * np.finfo(float).eps * magnitude
        assert np.all(np.abs(rows - dense) <= bound)

    def test_deterministic_given_seed(self, norm_ctx):
        r1 = verify_identities(norm_ctx, trials=30, seed=77)
        r2 = verify_identities(norm_ctx, trials=30, seed=77)
        assert r1.to_json_dict() == r2.to_json_dict()


class TestSerialization:
    def test_element_json(self, gauss_ctx):
        x = section(gauss_ctx, 0, [1])
        payload = element_to_json_dict(x)
        assert payload["coeffs"] == [1.0, 0.0]
        assert isinstance(payload["context_hash"], str)
