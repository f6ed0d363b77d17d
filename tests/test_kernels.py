import math
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opkern.gram import assemble_gram
from opkern.kernels import (
    DiagExp3Spec,
    GaussianSpec,
    KernelSpec,
    KernelSpecError,
    NormalizedSpec,
    OperatorKernel,
    Rational2Spec,
    SeparableSpec,
    TwoSpaceSpec,
    SpecDomainError,
    SpecSyntaxError,
    as_site,
    as_sites,
    continuity_increment,
    continuity_increments,
    evaluate,
    induced_scalar,
    make_kernel,
    parse_kernel_spec,
    render_spec,
    two_space_form,
)

ALL_SQUARE_SPECS = [
    "gauss(sigma=1,ell=1,dim=1)",
    "gauss(sigma=2,ell=0.5,dim=3)",
    "diagexp3",
    "rational2",
    "separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))",
    "normalized(inner=gauss(sigma=3,ell=1,dim=2))",
    "normalized(inner=diagexp3)",
]

NESTED_SPECS = [
    "normalized(inner=normalized(inner=diagexp3))",
    "normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8)))",
]
BLOCK_SPECS = ALL_SQUARE_SPECS + NESTED_SPECS + [
    "twospace(M=[[1,2,3],[4,5,6]],base=gauss(sigma=1.5,ell=0.7))",
]


def ref_value(spec, s, t) -> np.ndarray:
    """K(s,t) for one pair from the closed forms, with math.exp and
    math.dist, and a per-site eigh for normalized kernels."""
    r = math.dist(s, t)
    if isinstance(spec, GaussianSpec):
        val = spec.sigma**2 * math.exp(-r * r / (2.0 * spec.ell**2))
        return val * np.eye(spec.dim)
    if isinstance(spec, DiagExp3Spec):
        return np.diag([1.0, math.exp(-r), math.exp(-r * r)])
    if isinstance(spec, Rational2Spec):
        f, g = 1.0 / (1.0 + r), 1.0 / (1.0 + r * r)
        return np.array([[f, g], [g, f]])
    if isinstance(spec, SeparableSpec):
        return ref_value(spec.base, s, t)[0, 0] * np.array(spec.B)
    if isinstance(spec, TwoSpaceSpec):
        return ref_value(spec.base, s, t)[0, 0] * np.array(spec.M)
    assert isinstance(spec, NormalizedSpec)

    def inv_sqrt(site):
        C = ref_value(spec.inner, site, site)
        lam, V = np.linalg.eigh(0.5 * (C + C.T))
        return (V / np.sqrt(lam)) @ V.T

    return inv_sqrt(s) @ ref_value(spec.inner, s, t) @ inv_sqrt(t)


def assert_close_to_ref(got, ref):
    tol = 1e-13 * np.abs(ref) + 1e-14 * (1.0 + np.abs(ref))
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= tol), np.abs(got - ref).max()


@st.composite
def site_arrays(draw):
    """(S, T): site arrays with the same 1-3 coordinates and 1-6 rows each."""
    k = draw(st.integers(1, 3))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    coords = st.floats(-3, 3)
    S = draw(st.lists(coords, min_size=n * k, max_size=n * k))
    T = draw(st.lists(coords, min_size=m * k, max_size=m * k))
    return np.reshape(S, (n, k)), np.reshape(T, (m, k))


class TestBlocks:
    """The vectorised block path against the per-pair closed forms."""

    @given(text=st.sampled_from(BLOCK_SPECS), sites=site_arrays())
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_scalar_reference(self, text, sites):
        S, T = sites
        k = make_kernel(text)
        out = k.blocks(S, T)
        assert out.shape == (len(S), len(T), k.dim_out, k.dim_in)
        for i, s in enumerate(S):
            for j, t in enumerate(T):
                assert_close_to_ref(out[i, j], ref_value(k.spec, s, t))
                assert np.array_equal(k.eval(s, t), k.blocks(s[None], t[None])[0, 0])

    @given(
        text=st.sampled_from(ALL_SQUARE_SPECS + NESTED_SPECS),
        sites=site_arrays(),
    )
    @settings(max_examples=100, deadline=None)
    def test_gram_matches_pairwise_loop(self, text, sites):
        S = sites[0]
        k = make_kernel(text)
        g = assemble_gram(k, S)
        assert np.array_equal(g.data, g.data.T)
        # the per-pair assembly loop, on the reference values
        n, d = len(S), k.dim_h
        G = np.empty((n * d, n * d))
        for i in range(n):
            for j in range(i, n):
                blk = ref_value(k.spec, S[i], S[j])
                G[i * d : (i + 1) * d, j * d : (j + 1) * d] = blk
                G[j * d : (j + 1) * d, i * d : (i + 1) * d] = blk.T
        assert_close_to_ref(g.data, 0.5 * (G + G.T))

    def test_eval_is_a_class_attribute(self):
        # the benchmark's tracer counts calls by patching it on the class
        assert "eval" in vars(OperatorKernel)

    def test_singular_normalized_inner(self):
        k = make_kernel(
            "normalized(inner=separable(B=[[1,0],[0,0]],base=gauss(sigma=1,ell=1)))"
        )
        with pytest.raises(ValueError, match="not invertible"):
            k.blocks(np.zeros((1, 1)), np.ones((2, 1)))


class TestChannels:
    def test_every_square_spec_declares_basis_and_channels(self):
        # they are a square spec's one closed form: no second one (values)
        square = set(typing.get_args(KernelSpec)) - {TwoSpaceSpec}
        for cls in square:
            assert "basis" in dir(cls), cls.__name__
            assert callable(getattr(cls, "channels", None)), cls.__name__
            assert not hasattr(cls, "values"), cls.__name__
        covered = {type(parse_kernel_spec(t)) for t in ALL_SQUARE_SPECS + NESTED_SPECS}
        assert covered == square

    @pytest.mark.parametrize("text", ALL_SQUARE_SPECS + NESTED_SPECS)
    def test_basis_diagonalizes_values(self, text):
        # K(r) = Q diag(channels(r)) Q^T with Q orthogonal, against the closed
        # forms written out in ref_value: sigma^2 exp(-r^2 / 2 ell^2) I,
        # diag(1, e^-r, e^-r^2), [[a,b],[b,a]], base * B, and C^(-1/2) K
        # C^(-1/2) with C^(-1/2) from a dense eigh
        k = make_kernel(text)
        spec = k.spec
        r = np.linspace(0.0, 4.0, 41)
        Q, ch = spec.basis, spec.channels(r.reshape(-1, 1) ** 2)
        d = spec.dim_h
        assert Q.shape == (d, d) and ch.shape == (41, 1, d)
        assert np.abs(Q.T @ Q - np.eye(d)).max() <= 1e-15
        K = k.blocks(np.zeros((1, 1)), r[:, None])[0]
        ref = np.array([ref_value(spec, [0.0], [x]) for x in r])
        assert K.shape == ref.shape == (41, d, d)
        tol = 1e-14 * (1.0 + np.abs(ref).max())
        assert np.abs(K - ref).max() <= tol
        assert np.abs(np.einsum("am,...m,bm->...ab", Q, ch[:, 0], Q) - ref).max() <= tol

    def test_gauss_channels_are_one_broadcast_value(self):
        # d equal channels as a read-only view of one value; the blocks keep
        # the bits of the channels repeated into a C-order array
        k = make_kernel("gauss(sigma=1.5,ell=0.7,dim=4)")
        S = np.linspace(0.0, 3.0, 9)[:, None]
        r2 = k.sq_dists(S, S)
        ch = k.spec.channels(r2)
        assert ch.shape == (9, 9, 4) and ch.strides[-1] == 0 and not ch.flags.writeable
        repeated = np.repeat(ch[..., :1], 4, -1)
        want = OperatorKernel.channel_sum(repeated, k.spec.basis)
        assert np.array_equal(k.blocks(S, S).view(np.uint64), want.view(np.uint64))

    def test_singular_normalized_channels(self):
        spec = parse_kernel_spec(
            "normalized(inner=separable(B=[[1,0],[0,0]],base=gauss(sigma=1,ell=1)))"
        )
        with pytest.raises(ValueError, match="not invertible"):
            spec.channels(np.zeros(2))


class TestParse:
    def test_gaussian_fields(self):
        spec = parse_kernel_spec("gauss(sigma=1,ell=0.5,dim=3)")
        assert spec == GaussianSpec(sigma=1.0, ell=0.5, dim=3)

    def test_diagexp3(self):
        spec = parse_kernel_spec("diagexp3")
        assert spec.dim_h == 3

    def test_sigma_bound(self):
        with pytest.raises(SpecDomainError, match="sigma must be > 0"):
            parse_kernel_spec("gauss(sigma=0,ell=1,dim=1)")

    def test_syntax_error_reports_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_kernel_spec("gauss(sigma=1,,ell=1)")
        assert err.value.pos == 14

    def test_whitespace_insensitive(self):
        a = parse_kernel_spec("gauss( sigma = 1 , ell = 2 , dim = 2 )")
        b = parse_kernel_spec("gauss(sigma=1,ell=2,dim=2)")
        assert a == b

    def test_non_psd_separable_rejected(self):
        with pytest.raises(SpecDomainError, match="positive semi-definite"):
            parse_kernel_spec("separable(B=[[0,1],[1,0]],base=gauss(sigma=1,ell=1))")

    def test_asymmetric_separable_rejected(self):
        with pytest.raises(SpecDomainError, match="symmetric"):
            parse_kernel_spec("separable(B=[[1,1],[0,1]],base=gauss(sigma=1,ell=1))")

    @pytest.mark.parametrize("text", ALL_SQUARE_SPECS)
    def test_round_trip(self, text):
        spec = parse_kernel_spec(text)
        assert parse_kernel_spec(render_spec(spec)) == spec

    def test_canonical_keys_sorted(self):
        spec = parse_kernel_spec("gauss(sigma=1,ell=2,dim=3)")
        assert render_spec(spec) == "gauss(dim=3,ell=2,sigma=1)"

    def test_unknown_kernel(self):
        with pytest.raises(KernelSpecError):
            parse_kernel_spec("matern(nu=1.5)")

    def test_trailing_garbage(self):
        with pytest.raises(SpecSyntaxError):
            parse_kernel_spec("diagexp3 extra")

    def test_gaussian_alias_and_case(self):
        spec = parse_kernel_spec("GAUSSIAN(sigma=+1,ell=2e0)")
        assert spec == GaussianSpec(sigma=1.0, ell=2.0, dim=1)
        assert parse_kernel_spec("diagexp3()") == DiagExp3Spec()

    def test_integral_float_dim(self):
        assert parse_kernel_spec("gauss(sigma=1,ell=1,dim=3.0)").dim == 3

    def test_twospace_dims_from_shape(self):
        spec = parse_kernel_spec("twospace(M=[[1,2,3],[4,5,6]],base=gauss(sigma=1,ell=1))")
        assert (spec.d1, spec.d2, spec.dim_h) == (3, 2, 2)
        assert render_spec(spec) == "twospace(M=[[1,2,3],[4,5,6]],base=gauss(dim=1,ell=1,sigma=1))"
        with pytest.raises(SpecSyntaxError, match="takes no parameter 'd1'"):
            parse_kernel_spec("twospace(M=[[1]],base=gauss(sigma=1,ell=1),d1=1)")

    def test_position_past_leading_whitespace_and_newlines(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_kernel_spec("  gauss(sigma=1,\n,ell=1)")
        assert err.value.pos == 17
        with pytest.raises(SpecSyntaxError) as err:
            parse_kernel_spec(" gauss(sigma=1,\n  ell=x)")
        assert err.value.pos == 22  # the x


NESTED_2000 = "normalized(inner=" * 2000 + "diagexp3" + ")" * 2000
SCALAR = "gauss(sigma=1,ell=1)"

# every text ends in a KernelSpecError, never in another exception
MALFORMED_SPECS = [
    "gauss(sigma=diagexp3,ell=1)",
    "gauss(sigma=[[1]],ell=1)",
    "separable(B=[[1]],base=1)",
    "normalized(inner=2)",
    "twospace(M=[[1]],base=[[2]])",
    NESTED_2000,
    "gauss(sigma=1e200,ell=1)",  # sigma**2 overflows
    "gauss(sigma=1,ell=1e200)",
    "gauss(sigma=1,ell=1e-200)",  # ell**2 underflows to 0
    "gauss(sigma=1e400,ell=1)",
    "gauss(sigma=-1e400,ell=1)",
    "gauss(sigma=1,ell=1,dim=1e400)",
    "gauss(sigma=" + "-" * 5000 + "1,ell=1)",  # RecursionError inside ast
    "gauss(sigma=" + "-" * 100_000 + "1,ell=1)",  # MemoryError inside ast
    "gauss(sigma=1" + "0" * 400 + ",ell=1)",  # OverflowError in float()
    "gauss(sigma=1" + "0" * 4400 + ",ell=1)",  # past the int digit limit
    "gauss(sigma=1\x00,ell=1)",
    "gauss(sigma=--1,ell=1)",
    "gauss(sigma=-+1,ell=1)",
    "gauss(1,1)",
    "gauss(*x)",
    "gauss(**x)",
    "gauss(sigma=1,sigma=2,ell=1)",
    "gauss(sigma=True,ell=1)",
    "gauss(sigma=1,ell=1,dim=False)",
    "gauss(sigma='1',ell=1)",
    "gauss(sigma=1j,ell=1)",
    "gauss(sigma=1+1,ell=1)",
    "gauss(sigma=1,ell=1,dim=2.5)",
    "gauss(sigma=1,ell=1,foo=2)",
    "gauss(sigma=1)",
    "gauss",
    f"separable(B=[1,2],base={SCALAR})",
    f"separable(B=[[1,2],[3]],base={SCALAR})",
    f"separable(B=[[]],base={SCALAR})",
    f"separable(B=[],base={SCALAR})",
    f"separable(B=((1,),),base={SCALAR})",
    f"separable(B=[[1]],base=twospace(M=[[1]],base={SCALAR}))",
    f"twospace(M=[[1]],base=twospace(M=[[1]],base={SCALAR}))",
    "twospace(M=[[1]],base=gauss(sigma=1,ell=1,dim=2))",
    f"normalized(inner=twospace(M=[[1]],base={SCALAR}))",
    "matern(nu=1.5)",
    "x.y(a=1)",
    f"{SCALAR}[0]",
    f"{SCALAR};diagexp3",
    "lambda: diagexp3",
    "diagexp3 extra",
    "",
    "   ",
    "(",
    "gauss(sigma=1,,ell=1)",
]


@pytest.mark.parametrize("text", MALFORMED_SPECS, ids=lambda t: t[:40])
def test_malformed_spec_is_a_kernel_spec_error(text):
    with pytest.raises(KernelSpecError) as err:
        parse_kernel_spec(text)
    assert "\n" not in str(err.value)


# generated spec trees over the whole zoo
def _square(x: float) -> bool:
    return 0.0 < x * x < math.inf


POSITIVE = st.floats(1e-300, 1e300).filter(_square)  # sigma, ell
SIGNED = st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300), st.just(0.0))


@st.composite
def psd_matrices(draw, d=None):
    """A A^T, scaled by 10^k for k in [-300, 300], as a tuple of rows."""
    d = d or draw(st.integers(1, 4))
    A = np.reshape(draw(st.lists(st.floats(-10, 10), min_size=d * d, max_size=d * d)), (d, d))
    B = A @ A.T * 10.0 ** draw(st.integers(-300, 300))
    return tuple(map(tuple, B.tolist()))


SCALAR_SPECS = st.recursive(
    st.builds(GaussianSpec, POSITIVE, POSITIVE),
    lambda inner: st.builds(NormalizedSpec, inner)
    | st.builds(SeparableSpec, psd_matrices(1), inner),
    max_leaves=4,
)
SQUARE_SPECS = st.recursive(
    st.builds(GaussianSpec, POSITIVE, POSITIVE, st.integers(1, 4))
    | st.just(DiagExp3Spec())
    | st.just(Rational2Spec())
    | st.builds(SeparableSpec, psd_matrices(), SCALAR_SPECS),
    lambda inner: st.builds(NormalizedSpec, inner),
    max_leaves=4,
)
RECT_MATRICES = st.integers(1, 3).flatmap(
    lambda cols: st.lists(
        st.lists(SIGNED, min_size=cols, max_size=cols).map(tuple), min_size=1, max_size=3
    ).map(tuple)
)
SPECS = SQUARE_SPECS | st.builds(TwoSpaceSpec, RECT_MATRICES, SCALAR_SPECS)


@given(spec=SPECS)
@settings(max_examples=200, deadline=None)
def test_render_parse_round_trip(spec):
    text = render_spec(spec)
    assert parse_kernel_spec(text) == spec
    assert render_spec(parse_kernel_spec(text)) == text


class TestEvaluate:
    def test_gaussian_at_zero(self):
        k = make_kernel("gauss(sigma=1,ell=1,dim=1)")
        np.testing.assert_allclose(evaluate(k, 0, 0), [[1.0]])

    def test_diagexp3_unit_distance(self):
        k = make_kernel("diagexp3")
        np.testing.assert_allclose(
            evaluate(k, 0, 1), np.diag([1.0, math.exp(-1), math.exp(-1)])
        )

    def test_rational2_unit_distance(self):
        k = make_kernel("rational2")
        np.testing.assert_allclose(evaluate(k, 0, 1), 0.5 * np.ones((2, 2)))

    def test_dimension_mismatch(self):
        k = make_kernel("diagexp3")
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate(k, [0.0], [0.0, 1.0])

    @pytest.mark.parametrize("text", BLOCK_SPECS)
    def test_dimension_mismatch_every_spec(self, text):
        k = make_kernel(text)
        with pytest.raises(ValueError, match="site dimension mismatch"):
            k.blocks(np.zeros((2, 1)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="site dimension mismatch"):
            evaluate(k, [0.0, 1.0], [0.0])
        if k.is_square:
            with pytest.raises(ValueError, match="site dimension mismatch"):
                assemble_gram(k, [[0.0], [1.0, 2.0]])

    @pytest.mark.parametrize("text", ALL_SQUARE_SPECS)
    def test_symmetry_exact(self, text):
        k = make_kernel(text)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s, t = rng.uniform(-2, 2, size=2)
            A = evaluate(k, s, t)
            B = evaluate(k, t, s)
            assert np.abs(A - B.T).max() == 0.0

    def test_normalized_diagonal_is_identity(self):
        k = make_kernel("normalized(inner=gauss(sigma=3,ell=0.7,dim=2))")
        for s in [-1.0, 0.0, 0.3, 2.0]:
            assert np.abs(evaluate(k, s, s) - np.eye(2)).max() <= 1e-10

    def test_separable_value(self):
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        np.testing.assert_allclose(
            evaluate(k, 0, 1),
            math.exp(-0.5) * np.array([[2.0, 1.0], [1.0, 2.0]]),
        )

    def test_purity(self):
        k = make_kernel("normalized(inner=diagexp3)")
        first = evaluate(k, 0.2, 1.1)
        second = evaluate(k, 0.2, 1.1)
        np.testing.assert_array_equal(first, second)


class TestInducedScalar:
    def test_orthogonal_directions_vanish(self):
        k = make_kernel("gauss(sigma=1,ell=1,dim=3)")
        e1 = [1, 0, 0]
        e2 = [0, 1, 0]
        assert induced_scalar(k, 0.3, e1, 1.7, e2) == 0.0

    def test_diagexp3_picks_entry(self):
        k = make_kernel("diagexp3")
        val = induced_scalar(k, 0, [0, 1, 0], 1, [0, 1, 0])
        assert val == pytest.approx(math.exp(-1))

    def test_gaussian_closed_form(self):
        k = make_kernel("gauss(sigma=1,ell=1,dim=1)")
        assert induced_scalar(k, 0, [1], 1, [1]) == pytest.approx(math.exp(-0.5))

    @given(
        s=st.floats(-3, 3),
        t=st.floats(-3, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bilinear_consistency(self, s, t, seed):
        k = make_kernel("diagexp3")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        direct = induced_scalar(k, s, a, t, b)
        expected = float(a @ evaluate(k, s, t) @ b)
        assert direct == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_symmetric_under_swap(self):
        k = make_kernel("rational2")
        a, b = [1.0, -0.5], [0.3, 2.0]
        assert induced_scalar(k, 0.2, a, 1.4, b) == pytest.approx(
            induced_scalar(k, 1.4, b, 0.2, a), rel=1e-14
        )

    @pytest.mark.parametrize("M", ["[[1,2],[3,4]]", "[[1,0],[0,1]]", "[[1,2,3],[4,5,6]]"])
    def test_every_twospace_refused(self, M):
        # twospace is never square, whatever the shape of M
        k = make_kernel(f"twospace(M={M},base=gauss(sigma=1,ell=1))")
        assert not k.is_square
        a, b = np.ones(k.dim_out), np.ones(k.dim_in)
        with pytest.raises(ValueError, match="^induced scalar kernel requires a square kernel$"):
            induced_scalar(k, 0.0, a, 1.0, b)
        with pytest.raises(ValueError, match="^continuity increment requires a square kernel$"):
            continuity_increment(k, 0.0, 1.0, a)


class TestContinuityIncrement:
    def test_zero_at_equal_sites(self):
        for text in ALL_SQUARE_SPECS:
            k = make_kernel(text)
            a = np.ones(k.dim_h)
            assert continuity_increment(k, 0.4, 0.4, a) == 0.0

    def test_gaussian_closed_form(self):
        k = make_kernel("gauss(sigma=1,ell=1,dim=1)")
        val = continuity_increment(k, 0, 1, [1])
        assert val == pytest.approx(2 * (1 - math.exp(-0.5)))

    def test_small_h_taylor_ratio(self):
        # oracle: 2(1 - exp(-x)) with x = h^2/2, ratio to h^2 tends to 1
        k = make_kernel("gauss(sigma=1,ell=1,dim=1)")
        h = 1e-3
        oracle = 2 * (1 - math.exp(-(h**2) / 2))
        val = continuity_increment(k, 0, h, [1])
        assert val == pytest.approx(oracle, rel=1e-10)
        assert abs(val / h**2 - 1.0) < 1e-6

    @given(h=st.floats(1e-6, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_gaussian_modulus_bound(self, h):
        # 2 sigma^2 (1 - exp(-x)) <= 2 sigma^2 x with x = h^2 / (2 ell^2)
        # +1e-15 absorbs cancellation roundoff in 1 - exp(-x) at tiny h
        k = make_kernel("gauss(sigma=1,ell=1,dim=1)")
        assert continuity_increment(k, 0, h, [1]) <= h**2 + 1e-15

    def test_nonnegative_clamp(self):
        k = make_kernel("normalized(inner=gauss(sigma=1,ell=1,dim=2))")
        rng = np.random.default_rng(3)
        for _ in range(50):
            s, t = rng.uniform(-1, 1, 2)
            a = rng.standard_normal(2)
            assert continuity_increment(k, s, t, a) >= 0.0


    @pytest.mark.parametrize("text", ALL_SQUARE_SPECS + NESTED_SPECS)
    def test_batched_increments_match_per_pair_closed_form(self, text):
        # the oracle: a^T (K(s,s) - K(s,t) - K(t,s) + K(t,t)) a from four
        # one-pair evaluations, clamped; equal sites give exactly 0
        k = make_kernel(text)
        d = k.dim_h
        rng = np.random.default_rng(7)
        S, T = rng.uniform(-2, 2, (25, 2)), rng.uniform(-2, 2, (25, 2))
        T[::5] = S[::5]
        A = rng.standard_normal((25, d))
        got = continuity_increments(k, S, T, A)
        for s, t, a, value in zip(S, T, A, got):
            M = k.eval(s, s) - k.eval(s, t) - k.eval(t, s) + k.eval(t, t)
            want = float(a @ M @ a)
            want = 0.0 if -1e-12 <= want < 0.0 else want
            # a^T M a sums d^2 products in another order
            mag = float(np.abs(a) @ np.abs(M) @ np.abs(a)) + 4.0 * np.abs(k.eval(s, s)).max()
            assert abs(value - want) <= 4 * (d * d + 4) * np.finfo(float).eps * mag
        assert np.all(got[::5] == 0.0)

    @pytest.mark.parametrize("rows", [(2, 3, 2), (3, 3, 2), (2, 2, 3)])
    def test_row_counts_must_agree(self, rows):
        # S of 2 rows and T of 3 once ended in numpy's reshape error
        k = make_kernel("gauss(sigma=1,ell=1,dim=2)")
        S, T, A = (np.zeros((m, 2)) for m in rows)
        with pytest.raises(ValueError, match=r"^row counts differ: S has {}, T {}, A {}$".format(*rows)):
            continuity_increments(k, S, T, A)

    @pytest.mark.parametrize("S, T, A, message", [
        # each once ended in a numpy error: einsum's broadcast, concatenate's
        # dimensions and einsum's subscripts
        ((2, 2), (2, 2), (2, 3), r"^H-vectors have shape \(2, 3\), expected \(2, 2\)$"),
        ((2, 1), (2, 2), (2, 2), "^site dimension mismatch: 1 vs 2$"),
        ((2, 2), (2, 2), (2,), r"^H-vectors have shape \(2,\), expected \(2, 2\)$"),
    ])
    def test_shapes_must_agree(self, S, T, A, message):
        k = make_kernel("gauss(sigma=1,ell=1,dim=2)")
        with pytest.raises(ValueError, match=message):
            continuity_increments(k, np.zeros(S), np.zeros(T), np.zeros(A))

    def test_one_dimensional_sites_are_one_coordinate_sites(self):
        # a 1-D S once ended in "tuple index out of range"
        k = make_kernel("gauss(sigma=1,ell=1,dim=2)")
        A = np.array([[1.0, 2.0], [0.5, -1.0]])
        got = continuity_increments(k, np.array([0.0, 1.0]), [0.5, 3.0], A)
        assert got.tobytes() == continuity_increments(k, [[0.0], [1.0]], [[0.5], [3.0]], A).tobytes()

    @pytest.mark.parametrize("S, A, message", [
        # each once returned nan, the site with a numpy RuntimeWarning; the
        # one-pair form refuses both
        ([[0.0], [1.0]], [[1.0, np.nan], [0.5, -1.0]], "^H-vector entries must be finite$"),
        ([[0.0], [np.inf]], [[1.0, 1.0], [1.0, 1.0]], "^site coordinates must be finite$"),
    ], ids=["h-vector", "site"])
    def test_non_finite_inputs_refused(self, S, A, message):
        k = make_kernel("gauss(sigma=1,ell=1,dim=2)")
        with pytest.raises(ValueError, match=message):
            continuity_increments(k, np.array(S), np.ones((2, 1)), np.array(A))

    def test_pairs_are_the_matching_blocks(self):
        k = make_kernel("separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))")
        rng = np.random.default_rng(3)
        S, T = rng.standard_normal((30, 3)), rng.standard_normal((30, 3))
        full = k.blocks(S, T)
        np.testing.assert_allclose(k.pairs(S, T), full[np.arange(30), np.arange(30)],
                                   rtol=0, atol=4 * np.finfo(float).eps * np.abs(full).max())
        with pytest.raises(ValueError, match="^site dimension mismatch: 3 vs 2$"):
            k.pairs(S, T[:, :2])


class TestTwoSpaceForm:
    def test_fully_symmetric_input(self):
        k = make_kernel("twospace(M=[[1,0],[0,1]],base=gauss(sigma=1,ell=1))")
        e1 = [1, 0]
        value, defect = two_space_form(k, 0, e1, e1, 0, e1, e1)
        assert value == pytest.approx(1.0)
        assert defect == pytest.approx(0.0)

    def test_orthogonality(self):
        k = make_kernel("twospace(M=[[1,0],[0,1]],base=gauss(sigma=1,ell=1))")
        value, defect = two_space_form(k, 0, [1, 0], [0, 1], 1, [0, 0], [0, 0])
        assert value == 0.0
        assert defect == 0.0

    def test_direct_evaluation_both_orderings(self):
        # oracle: value = b^T M a, swapped = d^T M c (constant base, so
        # K(s,t) = K(t,s) = M); defect is their absolute difference
        M = np.array([[1.0, 0.0], [0.0, 2.0]])
        k = make_kernel(
            "twospace(M=[[1,0],[0,2]],base=gauss(sigma=1,ell=1000000))"
        )
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        c, d = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        value, defect = two_space_form(k, 0, a, b, 0, c, d)
        assert value == pytest.approx(float(b @ M @ a))
        assert defect == pytest.approx(abs(float(b @ M @ a) - float(d @ M @ c)))

    def test_rectangular_shapes(self):
        k = make_kernel("twospace(M=[[1,2,3],[4,5,6]],base=gauss(sigma=1,ell=1))")
        value, defect = two_space_form(
            k, 0, [1, 0, 0], [1, 0], 0, [0, 1, 0], [0, 1]
        )
        assert value == pytest.approx(1.0)
        assert defect == pytest.approx(abs(1.0 - 5.0))

    def test_requires_twospace(self):
        k = make_kernel("diagexp3")
        with pytest.raises(ValueError, match="twospace"):
            two_space_form(k, 0, [1, 0, 0], [1, 0, 0], 1, [0, 1, 0], [0, 1, 0])


def as_sites_per_site(sites):
    """Test-local oracle: ``as_sites`` one site at a time."""
    rows = [as_site(s) for s in sites]
    for row in rows[1:]:
        if row.size != rows[0].size:
            raise ValueError(f"site dimension mismatch: {rows[0].size} vs {row.size}")
    return np.stack(rows)


def outcome(fn, sites):
    """(result bits, shape) or (exception type, message) of fn(sites)."""
    try:
        out = fn(sites)
    except Exception as exc:  # the oracle's error, whatever it is
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


COORDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**400, 10**400),
    st.booleans(),
    st.none(),  # JSON null
    st.sampled_from(["1.5", "x", ""]),
)
SITE = st.one_of(
    COORDS,  # a scalar site
    st.lists(COORDS, max_size=3),  # a coordinate list, empty included
    st.lists(st.lists(COORDS, max_size=2), max_size=2),  # nested
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3).map(np.array),
)


class TestAsSites:
    @given(st.lists(SITE, max_size=6))
    @settings(max_examples=500, deadline=None)
    def test_matches_per_site_loop(self, sites):
        assert outcome(as_sites, sites) == outcome(as_sites_per_site, sites)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
        st.lists(st.booleans(), min_size=5, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_mixed_scalar_and_one_element_sites(self, values, wrap):
        sites = [[v] if w else v for v, w in zip(values, wrap)]
        assert outcome(as_sites, sites) == outcome(as_sites_per_site, sites)

    @pytest.mark.parametrize(
        "sites, message",
        [
            ([[0.0, 1.0], [2.0]], "site dimension mismatch: 2 vs 1"),
            ([[]], "site must be a nonempty 1-D coordinate sequence"),
            ([[[0.0]], [[1.0]]], "site must be a nonempty 1-D coordinate sequence"),
            ([0.0, float("nan")], "site coordinates must be finite"),
            ([[0.0, float("inf")], [1.0, 2.0]], "site coordinates must be finite"),
        ],
    )
    def test_errors(self, sites, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            as_sites(sites)

    def test_empty(self):
        assert outcome(as_sites, []) == outcome(as_sites_per_site, [])
