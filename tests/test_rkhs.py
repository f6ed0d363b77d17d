import hashlib
import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opkern import gram as gram_mod
from opkern.gram import GramError, assemble_gram, factorize, raw_gram
from opkern.kernels import OperatorKernel, continuity_increment, make_kernel, render_spec
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
from opkern.rkhs import _w_chain_strips

from helpers import one_channel_gram

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


def dense_chain(fam, indices):
    """The coefficient-space matrix of (W_{i1} W_{i1}^*) ... (W_{ik} W_{ik}^*)
    as a product of nd x nd selector matrices, and the same product over
    absolute values, for a forward error bound."""
    ctx = fam.context
    n, d, nd = ctx.n, ctx.d, ctx.size
    G = ctx.gram.data
    dense, magnitude = np.eye(nd), np.eye(nd)
    for p in indices:
        S = np.zeros((d, nd))
        S[:, p * d : (p + 1) * d] = np.eye(d)
        B = fam.mats[p]
        selected = S.T @ (B @ B.T) @ S
        dense = dense @ (selected @ G)
        magnitude = magnitude @ (np.abs(selected) @ np.abs(G))
    return dense, magnitude


def rel(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def scalar_suite(ctx, fam=None, trials=100, seed=0x5EED):
    """The identity suite one trial at a time, through the public element
    functions, with the same draws and the same two routes per identity as
    ``verify_identities``: the reference it is checked against.  Returns
    the residuals in the order they were first recorded."""
    rng = np.random.default_rng(seed)
    G = ctx.gram.data
    n, d = ctx.n, ctx.d
    eye = np.eye(d)
    kernel = ctx.kernel
    scale = 1.0 + ctx.gram.scale
    sites = ctx.sites
    res = {}

    def record(name, value):
        cur = res.get(name, 0.0)
        res[name] = value if value > cur or value != value else cur

    blocks = G.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    drift = np.abs(blocks - kernel.blocks(sites, sites)).max()
    record("factorization_consistency", float(drift) / scale)
    normalized, op_norms = True, []
    for i in range(n):
        cov = covariance(ctx, i)
        lam = np.linalg.eigvalsh(cov)
        sym = float(np.abs(cov - cov.T).max()) / scale
        record("covariance_selfadjoint_psd",
               max(sym, max(0.0, -float(lam[0])) / max(float(lam[-1]), 1.0)))
        normalized = normalized and float(np.abs(cov - eye).max()) <= 1e-10
        op_norms.append(float(lam[-1]))
    w_unitary = normalized and fam is not None and all(
        float(np.abs(m.T @ m - eye).max()) <= 1e-10 for m in fam.mats
    )

    for _ in range(trials):
        i = int(rng.integers(n))
        a = rng.standard_normal(d)
        x = RkhsElement(ctx, rng.standard_normal(n * d))
        y = RkhsElement(ctx, rng.standard_normal(n * d))
        xnorm = x.g_norm()
        s = sites[i]
        u = feature_adjoint(ctx, i, x)
        kx = np.array([evaluate_element(x, s, e) for e in eye])
        record("factorization", float(np.abs(u - kx).max()) / scale)
        for e, value in zip(eye, kx):
            record("reproducing", rel(value, inner_product(section(ctx, i, e), x)))
        emb = section(ctx, i, a)
        quad = float(a @ kernel(s, s) @ a)
        record("feature_norm", abs(inner_product(emb, emb) - quad) / (1.0 + abs(quad)))
        record("adjoint_relation", rel(inner_product(emb, x), float(a @ kx)))
        px = frame_projection(ctx, i, x)
        excess = inner_product(x, px) - op_norms[i] * xnorm**2
        record("norm_bound", excess / (1.0 + xnorm**2))
        if normalized:
            anorm = float(np.linalg.norm(a))
            unit = a / anorm if anorm > 0 else a
            unorm = float(np.linalg.norm(unit))
            record("isometry", abs(section(ctx, i, unit).g_norm() - unorm))
            ppx = frame_projection(ctx, i, px)
            record("projection_idempotent", ppx.g_distance(px) / max(xnorm, 1e-300))
            ky = np.array([evaluate_element(y, s, e) for e in eye])
            record("projection_selfadjoint",
                   rel(inner_product(section(ctx, i, kx), y), inner_product(x, section(ctx, i, ky))))
        if fam is not None:
            j = int(rng.integers(n))
            b = rng.standard_normal(d)
            Bi, Bj = fam.mats[i], fam.mats[j]
            wemb = transformed_embed(fam, i, a)
            target = float((Bi @ a) @ kernel(s, s) @ (Bi @ a))
            record("w_norm", abs(inner_product(wemb, wemb) - target) / (1.0 + abs(target)))
            lhs = transformed_adjoint(fam, i, transformed_embed(fam, j, b))
            rhs = Bi.T @ kernel(s, sites[j]) @ Bj @ b
            record("w_adjoint", float(np.abs(lhs - rhs).max()) / scale)
            k = min(int(rng.integers(1, 5)), n * 2)
            idx = [int(rng.integers(n)) for _ in range(k)]
            chained = chain_apply(fam, idx, x)
            mx = dense_chain(fam, idx)[0] @ x.coeffs
            top = float(np.abs(mx).max())
            record("w_chain", float(np.abs(chained.coeffs - mx).max()) / (1.0 + top))
            if w_unitary:
                record("w_isometry", abs(transformed_embed(fam, i, unit).g_norm() - unorm))
                once = chain_apply(fam, [i], x)
                twice = chain_apply(fam, [i, i], x)
                record("w_projection_idempotent", twice.g_distance(once) / max(xnorm, 1e-300))

    for _ in range(min(trials, 20)):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        a = rng.standard_normal(d)
        diff = RkhsElement(ctx, section(ctx, i, a).coeffs - section(ctx, j, a).coeffs)
        rhs = continuity_increment(kernel, sites[i], sites[j], a)
        record("continuity_consistency", rel(inner_product(diff, diff), rhs))
    return res


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
        fortran = RkhsContext(k, one_channel_gram(np.asfortranarray(ctx.sites), ctx.gram.data))
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
    @pytest.mark.parametrize("n", [4, 2])
    def test_distance_across_contexts_refused(self, n):
        # on an equal number of sites g_distance was once 0.0 and is_equal
        # True; on another it ended in numpy's broadcast error
        kernel = make_kernel(GAUSS1)
        x = section(make_context(kernel, np.linspace(0, 1, 4)[:, None]), 0, [1])
        y = section(make_context(kernel, np.linspace(2, 3, n)[:, None]), 0, [1])
        for call in (x.g_distance, x.is_equal):
            with pytest.raises(ValueError, match="^elements belong to different contexts$"):
                call(y)

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

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, np.False_])
    def test_index_not_an_integer(self, diagexp_ctx, bad):
        # section once took True as site 1 and ended a float in numpy's
        # slice TypeError; every caller of the check refuses both
        x = section(diagexp_ctx, 0, [1.0, 0.0, 0.0])
        fam = TransformFamily(diagexp_ctx, np.tile(np.eye(3), (diagexp_ctx.n, 1, 1)))
        calls = [lambda: section(diagexp_ctx, bad, [1.0, 0.0, 0.0]),
                 lambda: feature_adjoint(diagexp_ctx, bad, x),
                 lambda: covariance(diagexp_ctx, bad),
                 lambda: transformed_embed(fam, bad, [1.0, 0.0, 0.0]),
                 lambda: chain_apply(fam, [0, bad], x)]
        for call in calls:
            with pytest.raises(TypeError, match=r"^site index .* is not an integer$"):
                call()

    def test_numpy_integer_index(self, diagexp_ctx):
        a = [1.0, 2.0, 3.0]
        assert np.array_equal(section(diagexp_ctx, np.int32(1), a).coeffs, section(diagexp_ctx, 1, a).coeffs)


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

    @given(
        d=st.sampled_from([1, 2, 3, 8]),
        n=st.integers(1, 12),
        offset=st.sampled_from([-1e-12, 0.0, 1e-12]),
        site=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitary_flag_matches_per_matrix_loop(self, d, n, offset, site, seed):
        # orthogonal transforms but one, scaled so that m^T m - I peaks
        # within 1e-12 of the 1e-10 tolerance: the stacked test decides as
        # the per-matrix loop does
        rng = np.random.default_rng(seed)
        ctx = make_context(make_kernel(f"gauss(sigma=1,ell=1,dim={d})"),
                           [[2.0 * s] for s in range(n)])
        mats = [np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(n)]
        mats[site % n] = mats[site % n] * math.sqrt(1.0 + 1e-10 + offset)
        fam = TransformFamily(ctx, mats)
        eye = np.eye(d)
        loop = all(float(np.abs(m.T @ m - eye).max()) <= 1e-10 for m in fam.mats)
        assert fam.is_unitary() == loop
        assert loop == (offset < 0.0) or offset == 0.0

    def test_family_is_one_stacked_copy(self, norm_ctx):
        mats = np.stack([rotation(0.2 * i) for i in range(5)])
        fam = TransformFamily(norm_ctx, mats)
        assert fam.mats is not mats and np.array_equal(fam.mats, mats)
        assert fam.mats.dtype == float and fam.mats.flags.c_contiguous
        assert not fam.mats.flags.writeable
        ints = TransformFamily(norm_ctx, [[[1, 0], [0, 1]]] * 5)
        assert ints.mats.dtype == float and ints.is_unitary()

    @pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], [["x", 0.0], [0.0, 1.0]], [[1.0, 0.0]]])
    def test_family_keeps_the_per_matrix_errors(self, norm_ctx, bad):
        # a transform the stacked conversion cannot take fails with the
        # error of converting it alone, as before
        try:
            m = np.asarray(bad, dtype=float)
        except ValueError as exc:
            expected = str(exc)
        else:
            assert m.shape != (2, 2)
            expected = "transforms must be finite 2x2 matrices"
        with pytest.raises(ValueError) as info:
            TransformFamily(norm_ctx, [np.eye(2)] * 4 + [bad])
        assert str(info.value) == expected


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
    @pytest.mark.parametrize("tol", [-1e-3, -1e-300, np.nan])
    def test_negative_or_nan_tolerance(self, tol):
        # smallest eigenvalue -7.3e-15: -1e-3 once kept all 40 pairs, 15 of
        # them with NaN coefficients
        ctx = make_context(make_kernel(GAUSS1), np.linspace(0, 1, 40)[:, None])
        assert ctx.gram.spectrum.min_eig < 0.0
        with pytest.raises(ValueError, match=r"^trunc_tol must be >= 0, got "):
            onb_expansion(ctx, tol)
        assert len(onb_expansion(ctx, 0.0)) == np.count_nonzero(ctx.gram.spectrum.eigenvalues > 0.0)

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
        # (1, n, n) eigh of the channels' one proportional class serves the
        # certificate and the basis, one stacked (d, n, n) Cholesky the
        # factor, and no nd x nd decomposition runs
        sites = np.linspace(0.0, 6.0, 12)[:, None]
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        calls, shapes = self._count_decompositions(monkeypatch, 24)
        ctx = make_context(k, sites)
        factorize(ctx.gram)
        basis = onb_expansion(ctx, 1e-12)
        assert ctx.gram.jitter_used == 0.0
        assert calls == {}
        assert shapes == {("eigh", (1, 12, 12)): 1, ("cholesky", (2, 12, 12)): 1}
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

    @pytest.mark.parametrize("name, trials, seed", [("trials", 2.5, 0), ("trials", True, 0), ("seed", 2, 1.5)])
    def test_not_an_integer(self, gauss_ctx, name, trials, seed):
        # trials=2.5 once ended in range's TypeError
        bad = trials if name == "trials" else seed
        with pytest.raises(TypeError, match=rf"^{name} {re.escape(repr(bad))} is not an integer$"):
            verify_identities(gauss_ctx, trials=trials, seed=seed)

    def test_numpy_integer_trials(self, gauss_ctx):
        got = verify_identities(gauss_ctx, trials=np.int64(3), seed=np.uint8(4))
        assert got.residuals == verify_identities(gauss_ctx, trials=3, seed=4).residuals

    def test_report_serializable(self, norm_ctx):
        import json

        report = verify_identities(norm_ctx, trials=5, seed=0)
        payload = report.to_json_dict()
        json.dumps(payload)
        assert all({"max_residual", "tolerance", "pass"} == set(v) for v in payload.values())

    def test_one_kernel_row_evaluation_per_block(self, monkeypatch):
        # the consistency check's one call (n rows in one block of rows),
        # one call for the kernel rows of a whole block of trials, and one
        # pairs call for every continuity trial: the same for 2 trials as
        # for 30, and for n = 3 as for n = 12
        calls = Counter()
        for name in ("blocks", "pairs"):
            method = getattr(OperatorKernel, name)

            def counted(self, S, T, name=name, method=method):
                calls[name] += 1
                return method(self, S, T)

            monkeypatch.setattr(OperatorKernel, name, counted)
        kernel = make_kernel("normalized(inner=gauss(sigma=2,ell=1,dim=2))")
        for n in (3, 12):
            ctx = make_context(kernel, [[0.7 * s] for s in range(n)])
            fam = TransformFamily(ctx, [rotation(i * 0.5) for i in range(n)])
            for trials in (2, 5, 30):
                calls.clear()
                verify_identities(ctx, fam=fam, trials=trials, seed=0)
                assert calls == {"blocks": 2, "pairs": 1}

    def test_two_g_products_per_block_of_trials(self):
        # full products with G per suite run: X G and Y G for each block of
        # trials, whatever the number of trials in it and whatever n*d is;
        # a smaller block makes more of them
        class CountingGram(np.ndarray):
            width = 0
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and any(
                    isinstance(v, CountingGram) and v.shape == (CountingGram.width,) * 2
                    for v in inputs
                ):
                    CountingGram.products += 1
                plain = [np.asarray(v) for v in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        kernel = make_kernel("normalized(inner=gauss(sigma=2,ell=1,dim=2))")
        for n in (3, 12):
            g = make_context(kernel, [[0.7 * s] for s in range(n)]).gram
            counted = one_channel_gram(g.sites, g.data.view(CountingGram))
            ctx = RkhsContext(kernel=kernel, gram=counted)
            fam = TransformFamily(ctx, [rotation(i * 0.5) for i in range(n)])
            CountingGram.width = ctx.size
            for trials in (2, 4, 6):
                CountingGram.products = 0
                verify_identities(ctx, fam, trials=trials, seed=0)
                assert CountingGram.products == 2
            # blocks of one trial each
            with mock.patch.object(gram_mod, "ROW_BLOCK_ENTRIES", 1):
                CountingGram.products = 0
                verify_identities(ctx, fam, trials=6, seed=0)
                assert CountingGram.products == 12

    def test_family_suite_allocates_no_nd_by_nd_array(self):
        # n*d = 2000: with G formed beforehand, the suite's peak allocation
        # stays below one nd x nd float array (its W-chain strips are d x nd)
        n, d = 250, 8
        ctx = make_context(make_kernel(f"gauss(sigma=1,ell=1,dim={d})"),
                           [[0.5 * s] for s in range(n)])
        rng = np.random.default_rng(0)
        fam = TransformFamily(ctx, rng.standard_normal((n, d, d)))
        ctx.gram.data  # formed on first read
        tracemalloc.start()
        try:
            report = verify_identities(ctx, fam, trials=30, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_pass
        assert peak < ctx.size**2 * 8

    # float.hex of every residual.  Where G's blocks equal the kernel's
    # values bit for bit, as on these Grams, a kernel-route identity whose
    # two sides take the same arithmetic reads 0.0 (feature_norm, w_norm,
    # w_adjoint, continuity_consistency); on a Gram off the kernel each
    # of them moves (test_kernel_routes_read_the_kernel)
    PINNED = {
        "normalized_unitary": [
            ("factorization_consistency", "0x0.0p+0"),
            ("covariance_selfadjoint_psd", "0x0.0p+0"),
            ("factorization", "0x1.0000000000000p-52"),
            ("reproducing", "0x1.b11b9a7d33d78p-54"),
            ("feature_norm", "0x0.0p+0"),
            ("adjoint_relation", "0x1.8404aad79aaaep-54"),
            ("norm_bound", "0x0.0p+0"),
            ("isometry", "0x0.0p+0"),
            ("projection_idempotent", "0x0.0p+0"),
            ("projection_selfadjoint", "0x1.aac183ccde604p-55"),
            ("w_norm", "0x0.0p+0"),
            ("w_adjoint", "0x0.0p+0"),
            ("w_chain", "0x1.2c3da4efdd948p-52"),
            ("w_isometry", "0x1.0000000000000p-52"),
            ("w_projection_idempotent", "0x1.02ba93301f8ddp-53"),
            ("continuity_consistency", "0x0.0p+0"),
        ],
        "separable_random": [
            ("factorization_consistency", "0x0.0p+0"),
            ("covariance_selfadjoint_psd", "0x0.0p+0"),
            ("factorization", "0x1.5555555555556p-52"),
            ("reproducing", "0x1.b861197196914p-54"),
            ("feature_norm", "0x0.0p+0"),
            ("adjoint_relation", "0x1.f9fba020c83b5p-54"),
            ("norm_bound", "0x0.0p+0"),
            ("w_norm", "0x0.0p+0"),
            ("w_adjoint", "0x0.0p+0"),
            ("w_chain", "0x1.e87e34360016dp-51"),
            ("continuity_consistency", "0x0.0p+0"),
        ],
        "diagexp3": [
            ("factorization_consistency", "0x0.0p+0"),
            ("covariance_selfadjoint_psd", "0x0.0p+0"),
            ("factorization", "0x1.0000000000000p-54"),
            ("reproducing", "0x1.0c823c6e4311fp-54"),
            ("feature_norm", "0x0.0p+0"),
            ("adjoint_relation", "0x0.0p+0"),
            ("norm_bound", "0x0.0p+0"),
            ("isometry", "0x0.0p+0"),
            ("projection_idempotent", "0x0.0p+0"),
            ("projection_selfadjoint", "0x1.39ba0bf1bf56ap-52"),
            ("continuity_consistency", "0x0.0p+0"),
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
            assert value == pinned, name
        assert report.results["factorization"]["max_residual"] <= 1e-14

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

    def test_kernel_routes_read_the_kernel(self):
        # G moved 1e-9 * scale off the kernel, symmetrically: every identity
        # that sets a G route against the kernel's values moves with it
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        sites = [[0.0], [0.4], [1.1], [2.0]]
        raw = assemble_gram(k, sites).data
        E = np.random.default_rng(1).standard_normal(raw.shape)
        ctx = make_context(k, sites, raw_data=raw + 1e-9 * (E + E.T))
        fam = TransformFamily(ctx, np.random.default_rng(6).standard_normal((4, 2, 2)))
        got = verify_identities(ctx, fam, trials=12, seed=5).residuals
        for name in ("factorization", "reproducing", "feature_norm", "adjoint_relation",
                     "w_norm", "w_adjoint", "continuity_consistency"):
            assert got[name] > 1e-12, name
        assert got["factorization_consistency"] <= 1e-8
        # off the diagonal blocks only, so K(s, s) = I still holds
        norm = make_kernel("normalized(inner=gauss(sigma=2,ell=1,dim=2))")
        sites = [[0.0], [0.6], [1.3], [2.1], [3.0]]
        raw = assemble_gram(norm, sites).data
        E = np.random.default_rng(2).standard_normal(raw.shape)
        E = E + E.T
        for i in range(5):
            E[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
        ctx = make_context(norm, sites, raw_data=raw + 1e-9 * E)
        got = verify_identities(ctx, trials=12, seed=3).residuals
        assert got["projection_selfadjoint"] > 1e-12

    @pytest.mark.parametrize("sites", [[[0.0], [0.6], [1.3], [2.1], [3.0]], [[0.0], [1.0]]])
    def test_family_of_another_context_refused(self, norm_ctx, sites, monkeypatch):
        # the same n, or another: refused before any kernel evaluation,
        # where it once failed late in chain_apply or with an IndexError
        other = make_context(norm_ctx.kernel, sites)
        fam = TransformFamily(other, [rotation(0.3 * i) for i in range(len(sites))])

        def evaluated(*args):
            raise AssertionError("kernel evaluated")

        monkeypatch.setattr(OperatorKernel, "blocks", evaluated)
        with pytest.raises(ValueError, match="^elements belong to different contexts$"):
            verify_identities(norm_ctx, fam, trials=3)

    @given(
        d=st.sampled_from([1, 2, 3, 8]),
        n=st.integers(1, 12),
        kernel=st.sampled_from(["gauss", "separable"]),
        normalized=st.booleans(),
        family=st.sampled_from([None, "unitary", "random"]),
        off_kernel=st.booleans(),
        trials=st.integers(1, 30),
        entries=st.sampled_from([None, 1, 300]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_suite(
        self, d, n, kernel, normalized, family, off_kernel, trials, entries, seed
    ):
        # the batched suite against scalar_suite, the same identities one
        # trial at a time through the element functions, on the same draws;
        # entries = 1 and 300 split the trials into blocks of one and a few
        rng = np.random.default_rng(seed)
        if kernel == "gauss":
            spec = f"gauss(sigma={rng.uniform(0.5, 2.0):.3f},ell=1,dim={d})"
        else:
            R = rng.standard_normal((d, d))
            B = np.round(R @ R.T + d * np.eye(d), 3)
            rows = ",".join("[" + ",".join(map(repr, map(float, r))) + "]" for r in B)
            spec = f"separable(B=[{rows}],base=gauss(sigma=1,ell=1))"
        k = make_kernel(f"normalized(inner={spec})" if normalized else spec)
        sites = np.cumsum(2.0 + rng.uniform(0.0, 1.0, n))[:, None]
        ctx = make_context(k, sites)
        if off_kernel:
            # 1e-9 off the kernel outside the diagonal blocks, so that the
            # kernel-route residuals are large and must agree closely
            E = rng.standard_normal((n * d, n * d))
            E = E + E.T
            for i in range(n):
                E[i * d : (i + 1) * d, i * d : (i + 1) * d] = 0.0
            ctx = make_context(k, sites, raw_data=ctx.gram.data + 1e-9 * E)
        if family == "unitary":
            fam = TransformFamily(ctx, [np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(n)])
        elif family == "random":
            fam = TransformFamily(ctx, rng.standard_normal((n, d, d)))
        else:
            fam = None
        seed = int(rng.integers(2**32))
        want = scalar_suite(ctx, fam, trials, seed)
        with mock.patch.object(gram_mod, "ROW_BLOCK_ENTRIES", entries or gram_mod.ROW_BLOCK_ENTRIES):
            got = verify_identities(ctx, fam, trials, seed).residuals
        assert list(got) == list(want)
        # each residual is a normalized difference of two sides that the
        # two suites sum in different orders, over at most 4 nd terms whose
        # size is a small multiple of d in these contexts (sites 2 ell
        # apart, B_i orthogonal or standard normal): they agree within
        # 64 nd eps (largest gap seen: 9e-15 at nd = 40, against 5.7e-13)
        bound = 64 * n * d * np.finfo(float).eps
        for name, value in want.items():
            assert abs(got[name] - value) <= bound, name

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
            one_channel_gram(ctx.sites, data)

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
        # and the same product over absolute values for the error bound;
        # it is zero outside the d rows of block idx[0], which the strip holds
        dense, magnitude = dense_chain(fam, idx)
        rows = slice(idx[0] * d, (idx[0] + 1) * d)
        assert not np.any(np.delete(dense, np.s_[rows], axis=0))
        dense, magnitude = dense[rows], magnitude[rows]
        strip = _w_chain_strips(fam, np.array([idx]))[0]
        assert strip.shape == (d, nd)
        if d == 1:
            # one nonzero term per entry of each factor: both forms round
            # each product once, so they agree exactly
            assert np.array_equal(strip, dense)
        # otherwise the order in which BLAS sums the d nonzero terms of an
        # nd-long dot product may differ; both forms stay within the
        # forward error bound k * gamma_nd * |P_1| ... |P_k| of the exact
        # product
        bound = 2 * len(idx) * nd * np.finfo(float).eps * magnitude
        assert np.all(np.abs(strip - dense) <= bound)
        # a stack of chains is the stack of their strips
        other = [(p + 1) % n for p in idx]
        both = _w_chain_strips(fam, np.array([idx, other]))
        assert np.array_equal(both[0], strip)
        assert np.array_equal(both[1], _w_chain_strips(fam, np.array([other]))[0])

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
