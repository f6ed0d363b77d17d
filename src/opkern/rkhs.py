"""Finite-span realization of the RKHS induced by an operator-valued kernel.

A context freezes a (kernel, site list) pair; elements are coefficient
vectors over the kernel sections at those sites, with the Gram matrix
supplying the inner product.  On top of that live the feature operators,
their adjoints, frame projections, transformed families, chain
compositions, the orthonormal (Mercer-style) expansion, and a seeded
identity-verification suite.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .gram import (BlockGram, assemble_gram, check_integer, check_seed, check_site_index,
                   raw_gram, rows_per_block, site_blocks)
from .kernels import (OperatorKernel, as_hvec, as_site, clamp_roundoff, continuity_increments,
                      read_only, render_spec)

__all__ = [
    "RkhsContext",
    "RkhsElement",
    "TransformFamily",
    "IdentityReport",
    "make_context",
    "section",
    "inner_product",
    "evaluate_element",
    "feature_adjoint",
    "covariance",
    "frame_projection",
    "transformed_embed",
    "transformed_adjoint",
    "chain_apply",
    "onb_expansion",
    "verify_identities",
    "element_to_json_dict",
]

NULL_TOL = 1e-10
UNITARY_TOL = 1e-10  # max |M^T M - I| of a unitary transform
DEFAULT_SEED = 0x5EED


@dataclass(frozen=True, eq=False)
class RkhsContext:
    """A kernel and its PSD-certified Gram on the context sites."""

    kernel: OperatorKernel
    gram: BlockGram

    # read from the Gram: sites (n, k), row i is site s_i; n; d; size = n * d
    sites = property(lambda self: self.gram.sites)
    n = property(lambda self: self.gram.n)
    d = property(lambda self: self.gram.d)
    size = property(lambda self: self.gram.size)

    def context_hash(self) -> str:
        h = hashlib.sha256()
        h.update(render_spec(self.kernel.spec).encode())
        h.update(self.sites.tobytes())  # C order: the rows, one after another
        h.update(np.ascontiguousarray(self.gram.data))  # no copy of G
        return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class RkhsElement:
    """A coefficient vector over the kernel sections of one context.

    Equality is modulo the null space of G: two elements agree when their
    G-distance is below NULL_TOL scaled by their G-norms.  The constructor
    copies and validates its coefficients and holds them read-only; elements
    the library builds from read-only arrays it already holds use
    ``_trusted`` instead.
    """

    context: RkhsContext
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float).reshape(-1)
        if coeffs.size != self.context.size:
            raise ValueError(
                f"coefficient length {coeffs.size} != n*d = {self.context.size}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", read_only(coeffs))

    @classmethod
    def _trusted(cls, context: RkhsContext, coeffs: np.ndarray) -> "RkhsElement":
        """An element over a finite, read-only float (n*d,) array, taken
        unchecked."""
        el = object.__new__(cls)
        object.__setattr__(el, "context", context)
        object.__setattr__(el, "coeffs", coeffs)
        return el

    def g_norm(self) -> float:
        return float(np.sqrt(max(inner_product(self, self), 0.0)))

    def g_distance(self, other: "RkhsElement") -> float:
        _same_context(self, other)
        diff = RkhsElement._trusted(self.context, read_only(self.coeffs - other.coeffs))
        return diff.g_norm()

    def is_equal(self, other: "RkhsElement") -> bool:
        tol = NULL_TOL * (1.0 + self.g_norm() + other.g_norm())
        return self.g_distance(other) <= tol


@dataclass(frozen=True, eq=False)
class TransformFamily:
    """One bounded d x d transform per context site: ``mats`` is a read-only
    (n, d, d) copy of the transforms it is given, ``mats[i]`` site i's."""

    context: RkhsContext
    mats: np.ndarray

    def __post_init__(self):
        n, d = self.context.n, self.context.d
        if len(self.mats) != n:
            raise ValueError("need one transform per site")
        try:  # one conversion for the whole family
            mats = np.array(self.mats, dtype=float)
        except (ValueError, TypeError):
            # ragged: each transform converted alone raises its own error
            mats = [np.asarray(m, dtype=float) for m in self.mats]
            mats = np.array(mats) if all(m.shape == (d, d) for m in mats) else None
        if mats is None or mats.shape != (n, d, d) or not np.isfinite(mats).all():
            raise ValueError(f"transforms must be finite {d}x{d} matrices")
        object.__setattr__(self, "mats", read_only(mats))

    def is_unitary(self) -> bool:
        m = self.mats
        defect = np.abs(m.transpose(0, 2, 1) @ m - np.eye(self.context.d))
        return float(defect.max()) <= UNITARY_TOL


def make_context(
    kernel: OperatorKernel, sites, raw_data: np.ndarray | None = None
) -> RkhsContext:
    """Assemble the Gram, which certifies itself, and freeze the context;
    a Gram not certified PSD is refused.

    ``raw_data`` substitutes an externally supplied Gram matrix (for fault
    injection and raw-matrix workflows); it still must pass the PSD check.
    """
    gram = assemble_gram(kernel, sites) if raw_data is None else raw_gram(kernel, sites, raw_data)
    report = gram.spectrum
    if not report.psd:
        raise ValueError(
            f"Gram is not PSD (min_eig = {report.min_eig:.3e}); cannot build context"
        )
    return RkhsContext(kernel=kernel, gram=gram)


def _same_context(x: RkhsElement, y) -> None:
    ctx = y.context if isinstance(y, RkhsElement) else y
    if x.context is not ctx:
        raise ValueError("elements belong to different contexts")


def zero_element(ctx: RkhsContext) -> RkhsElement:
    return RkhsElement(ctx, np.zeros(ctx.size))


def _section(ctx: RkhsContext, i: int, vec: np.ndarray) -> RkhsElement:
    """``section`` for a valid index and a finite length-d vector, unchecked."""
    coeffs = np.zeros(ctx.size)
    coeffs[i * ctx.d : (i + 1) * ctx.d] = vec
    return RkhsElement._trusted(ctx, read_only(coeffs))


def section(ctx: RkhsContext, i: int, a) -> RkhsElement:
    """The kernel section at site i in direction a: coefficients e_i (x) a.
    This is V_i a, the feature embedding of a at site i."""
    check_site_index(ctx, i)
    return _section(ctx, i, as_hvec(a, ctx.d))


def inner_product(x: RkhsElement, y: RkhsElement) -> float:
    """G-inner product x^T G y; tiny negative self-products clamp to 0."""
    _same_context(x, y)
    val = float(x.coeffs @ x.context.gram.data @ y.coeffs)
    clamped = float(clamp_roundoff(val))  # differs from val only in the clamp's range
    return clamped if clamped != val and (x is y or np.array_equal(x.coeffs, y.coeffs)) else val


def _value_at(x: RkhsElement, t: np.ndarray) -> np.ndarray:
    """x(t) = sum_j K(t, s_j) c_j in H, from one fresh kernel row at site t."""
    ctx = x.context
    K = ctx.kernel.blocks(t[None], ctx.sites)[0]
    return np.einsum("jab,jb->a", K, x.coeffs.reshape(ctx.n, ctx.d))


def evaluate_element(x: RkhsElement, t, a) -> float:
    """Pointwise evaluation sum_j a^T K(t, s_j) c_j; t may be off-grid."""
    a = as_hvec(a, x.context.d)
    return float(a @ _value_at(x, as_site(t)))


def feature_adjoint(ctx: RkhsContext, i: int, x: RkhsElement) -> np.ndarray:
    """V_i^* x: block i of G c, an H-vector; on a section (j,b) this is
    K(s_i, s_j) b.  Only the d rows of block i are multiplied."""
    _same_context(x, ctx)
    check_site_index(ctx, i)
    d = ctx.d
    return ctx.gram.data[i * d : (i + 1) * d] @ x.coeffs


def covariance(ctx: RkhsContext, i: int) -> np.ndarray:
    """The covariance operator K(s_i, s_i) on H."""
    return ctx.gram.block(i, i).copy()  # block refuses an index out of range


def frame_projection(ctx: RkhsContext, i: int, x: RkhsElement) -> RkhsElement:
    """V_i V_i^* x: the section at i in direction block i of G c."""
    return _section(ctx, i, feature_adjoint(ctx, i, x))


def transformed_embed(fam: TransformFamily, i: int, a) -> RkhsElement:
    """W_i a = section(i, B_i a)."""
    ctx = fam.context
    check_site_index(ctx, i)
    a = as_hvec(a, ctx.d)
    return _section(ctx, i, fam.mats[i] @ a)


def transformed_adjoint(fam: TransformFamily, i: int, x: RkhsElement) -> np.ndarray:
    """W_i^* x = B_i^T (G c)_i."""
    ctx = fam.context
    _same_context(x, ctx)
    check_site_index(ctx, i)
    return fam.mats[i].T @ feature_adjoint(ctx, i, x)


def chain_apply(fam: TransformFamily, indices, x: RkhsElement) -> RkhsElement:
    """Apply the operator product (W_{i1} W_{i1}^*) ... (W_{ik} W_{ik}^*).

    The factors are composed literally, rightmost first, each one being
    c -> e_i (x) (B_i B_i^T (G c)_i).
    """
    ctx = fam.context
    _same_context(x, ctx)
    idx = list(indices)
    if not idx:
        raise ValueError("index sequence must be nonempty")
    for i in idx:
        check_site_index(ctx, i)
    out = x
    for i in reversed(idx):
        vec = fam.mats[i] @ transformed_adjoint(fam, i, out)
        out = _section(ctx, i, vec)
    return out


def onb_expansion(ctx: RkhsContext, trunc_tol: float) -> list[RkhsElement]:
    """G-orthonormal basis elements from the Gram's certified eigenpairs.

    Eigenpairs (lam, u) with lam > trunc_tol * lam_max yield elements with
    coefficients u / sqrt(lam); the pointwise products of the returned
    family reproduce the induced scalar kernel on grid pairs up to the
    truncated tail.  The elements are the rows of one read-only (k, nd)
    array, the one ``leading_vectors`` fills, divided in place: the
    coefficients are written once.  ``trunc_tol`` must be a number >= 0.
    """
    if not trunc_tol >= 0.0:  # a negative one keeps eigenvalues below 0, NaN none
        raise ValueError(f"trunc_tol must be >= 0, got {trunc_tol!r}")
    report = ctx.gram.spectrum
    lam = report.eigenvalues  # nonincreasing, so the kept pairs lead
    k = int(np.count_nonzero(lam > trunc_tol * report.lambda_max))
    if k == 0:
        raise ValueError("expansion is empty: all eigenvalues truncated")
    coeffs = report.leading_vectors(k)
    coeffs /= np.sqrt(lam[:k])[:, None]
    read_only(coeffs)  # and so its rows
    return [RkhsElement._trusted(ctx, row) for row in coeffs]


# ---------------------------------------------------------------------------
# Identity verification


# the tolerance of each identity's max residual
TOLERANCES = MappingProxyType({
    "factorization_consistency": 1e-8,
    "covariance_selfadjoint_psd": 1e-10,
    "factorization": 1e-12,
    "reproducing": 1e-12,
    "feature_norm": 1e-12,
    "adjoint_relation": 1e-10,
    "norm_bound": 1e-10,
    "isometry": 1e-10,
    "projection_idempotent": 1e-8,
    "projection_selfadjoint": 1e-10,
    "w_norm": 1e-10,
    "w_adjoint": 1e-10,
    "w_chain": 1e-10,
    "w_isometry": 1e-10,
    "w_projection_idempotent": 1e-8,
    "continuity_consistency": 1e-12,
})


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Per-identity max residuals, a read-only mapping in the order the
    suite recorded them; each identity's verdict is derived from its
    residual and its TOLERANCES entry (a NaN fails)."""

    residuals: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "residuals", MappingProxyType(dict(self.residuals)))

    @property
    def results(self) -> dict[str, dict]:
        """A fresh dict: name -> its max residual, tolerance and verdict,
        all Python floats and bools."""
        return {
            name: {"max_residual": value, "tolerance": TOLERANCES[name],
                   "pass": value <= TOLERANCES[name]}
            for name, value in self.residuals.items()
        }

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.results.values())

    def to_json_dict(self) -> dict:
        return self.results

    def table(self) -> str:
        width = max(len(n) for n in self.residuals)
        lines = [
            f"{'identity':<{width}}  {'max residual':>13}  {'tolerance':>10}  status"
        ]
        for name, r in self.results.items():
            status = "pass" if r["pass"] else "FAIL"
            lines.append(
                f"{name:<{width}}  {r['max_residual']:>13.3e}  "
                f"{r['tolerance']:>10.1e}  {status}"
            )
        return "\n".join(lines)


def _w_chain_strips(fam: TransformFamily, chains: np.ndarray) -> np.ndarray:
    """The nonzero rows of the coefficient-space matrix of the product
    (W_{i1} W_{i1}^*) ... (W_{ik} W_{ik}^*), one product per row
    (i1, ..., ik) of the (m, k) index array ``chains``: shape (m, d, nd).
    Built without ``chain_apply``.

    The matrix of W_p W_p^* is zero outside the d rows of block p, where it
    is B_p B_p^T G[rows of p]; so the product is zero outside the d rows of
    block i1, and each further factor multiplies only the d columns of the
    running d x nd strip that meet its rows.  The strip equals those rows
    of the dense selector product up to the order in which BLAS sums the d
    terms of each entry.
    """
    ctx = fam.context
    n, d = ctx.n, ctx.d
    rows = ctx.gram.data.reshape(n, d, ctx.size)  # rows[p]: the d rows of block p
    B = fam.mats

    def factor(p):  # B_p B_p^T G[rows of p], per chain
        return (B[p] @ B[p].transpose(0, 2, 1)) @ rows[p]

    strip = factor(chains[:, 0])
    for p in chains.T[1:]:
        meet = strip.reshape(len(chains), d, n, d)[np.arange(len(chains)), :, p]
        strip = meet @ factor(p)
    return strip


def _rel(lhs, rhs):
    """|lhs - rhs| relative to 1 + |lhs| + |rhs|, elementwise."""
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _quad(u: np.ndarray, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[t]^T M[t] v[t] for stacks of d-vectors and d x d matrices."""
    return np.einsum("ta,tab,tb->t", u, M, v)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[t] . v[t] for two stacks of vectors."""
    return np.einsum("ta,ta->t", u, v)


def _apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M[t] v[t] for stacks of d x d matrices and d-vectors."""
    return np.einsum("tab,tb->ta", M, v)


def _trial_inputs(rng, n: int, d: int, count: int, with_family: bool):
    """``count`` trials' draws in the suite's order, trial by trial: i, then
    a, x, y (one draw of d + 2nd normals), then, with a family, j, b and a
    chain of 1 to 4 indices (at most 2n).  Returns I, the (count, d + 2nd)
    normals, J, the b's and the chains."""
    nd = n * d
    I, J = np.empty(count, dtype=np.intp), np.zeros(count, dtype=np.intp)
    normals, bs = np.empty((count, d + 2 * nd)), np.empty((count, d))
    chains = []
    for t in range(count):
        I[t] = rng.integers(n)
        rng.standard_normal(out=normals[t])
        if with_family:
            J[t] = rng.integers(n)
            rng.standard_normal(out=bs[t])
            k = min(int(rng.integers(1, 5)), n * 2)
            chains.append([int(rng.integers(n)) for _ in range(k)])
    return I, normals, J, bs, chains


def verify_identities(
    ctx: RkhsContext,
    fam: TransformFamily | None = None,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> IdentityReport:
    """Run the identity suite on seeded random inputs.

    Residuals are scale-normalized; failures are reported, never raised.  A
    NaN residual fails.  Normalization-dependent identities (isometry,
    projection laws) run only when K(s,s) = I on the context sites; the
    W-block runs only when a transform family is supplied.

    The trials run a block at a time, as many as keep the block's
    (trials, nd, d) arrays within ``ROW_BLOCK_ENTRIES``: per block, one
    product X G (and, when K(s,s) = I, one Y G) of the stacked x's and y's,
    whose block-i rows give every product of G with a section, and one
    kernel row K(s_i, s_j) for all j per trial, from one ``kernel.blocks`` call.
    """
    trials, seed = check_integer("trials", trials), check_seed(seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if fam is not None:
        _same_context(fam, ctx)
    rng = np.random.default_rng(seed)
    G = ctx.gram.data
    n, d, nd = ctx.n, ctx.d, ctx.size
    eye = np.eye(d)
    kernel = ctx.kernel
    scale = 1.0 + ctx.gram.scale

    res: dict[str, float] = {}

    def record(name: str, values):
        # the running maximum, except that a NaN sticks (max() would drop it)
        value = float(np.max(values))
        cur = res.get(name, 0.0)
        res[name] = value if value > cur or value != value else cur

    # Structural check against fresh kernel evaluations: catches injected
    # Gram corruption that every G-internal identity would miss.  By blocks
    # of rows: no nd x nd temporary.
    blocks = G.reshape(n, d, n, d).transpose(0, 2, 1, 3)  # blocks[i, j] = G_ij

    def gap(part):  # max |G_ij - K(s_i, s_j)| over the part's rows, in K's buffer
        K = kernel.blocks(ctx.sites[part], ctx.sites)
        return np.abs(np.subtract(blocks[part], K, out=K), out=K).max()

    drift = np.max([gap(part) for part in site_blocks(n, d)])
    record("factorization_consistency", float(drift) / scale)

    # the covariances K(s_i, s_i), decomposed once for the PSD record and
    # the operator norms
    cov = blocks[np.arange(n), np.arange(n)]
    normalized = float(np.abs(cov - eye).max()) <= 1e-10
    lam = np.linalg.eigvalsh(cov)  # ascending per site
    sym_defect = np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2)) / scale
    neg = np.maximum(0.0, -lam[:, 0]) / np.maximum(lam[:, -1], 1.0)
    record("covariance_selfadjoint_psd", np.maximum(sym_defect, neg))
    op_norms = lam[:, -1]
    w_unitary = normalized and fam is not None and fam.is_unitary()

    # Each identity compares a G route (the rows of X G and Y G, blocks of
    # G) with a kernel route (the trial's kernel row), or two G routes that
    # reach one quantity through different products.
    step = rows_per_block(nd * d)
    for first in range(0, trials, step):
        T = min(step, trials - first)
        I, normals, J, bs, chains = _trial_inputs(rng, n, d, T, fam is not None)
        A, X, Y = normals[:, :d], normals[:, d : d + nd], normals[:, d + nd :]
        XG = X @ G  # G symmetric: row t is (G x_t)^T
        t = np.arange(T)
        u = XG.reshape(T, n, d)[t, I]  # V_i^* x, block i of G c
        Kr = kernel.blocks(ctx.sites[I], ctx.sites)  # (T, n, d, d): K(s_i, s_j)
        kx = np.einsum("tjab,tjb->ta", Kr, X.reshape(T, n, d))  # V_i^* x, kernel route
        Gii, Kii = blocks[I, I], Kr[t, I]
        xnorm = np.sqrt(np.maximum(_dot(X, XG), 0.0))

        def g_norm(w):  # |section(i, w)|_G
            return np.sqrt(np.maximum(_quad(w, Gii, w), 0.0))

        # factorization: by linearity V_i^* V_j = K(s_i, s_j) for every j
        record("factorization", np.abs(u - kx).max(axis=1) / scale)
        # e . x(s_i) from the kernel row vs <V_i e, x>_G, every axis e
        record("reproducing", _rel(kx, u))
        quad = _quad(A, Kii, A)
        record("feature_norm", abs(clamp_roundoff(_quad(A, Gii, A)) - quad) / (1.0 + abs(quad)))
        record("adjoint_relation", _rel(_dot(A, u), _dot(A, kx)))
        # repaired operator-norm bound on V_i V_i^* x; record's running
        # maximum starts at 0, so only an excess counts
        excess = _dot(u, u) - op_norms[I] * xnorm**2
        record("norm_bound", excess / (1.0 + xnorm**2))

        if normalized:  # as w_unitary implies
            anorm = np.linalg.norm(A, axis=1)
            unit = A / np.where(anorm > 0, anorm, 1.0)[:, None]
            unorm = np.linalg.norm(unit, axis=1)
            floor = np.maximum(xnorm, 1e-300)
            record("isometry", abs(g_norm(unit) - unorm))
            # P_i P_i x = section(i, G_ii u) against P_i x = section(i, u)
            record("projection_idempotent", g_norm(_apply(Gii, u) - u) / floor)
            # <P_i x, y> and <x, P_i y>, each projection from the kernel row
            v = (Y @ G).reshape(T, n, d)[t, I]
            ky = np.einsum("tjab,tjb->ta", Kr, Y.reshape(T, n, d))
            record("projection_selfadjoint", _rel(_dot(kx, v), _dot(u, ky)))

        if fam is not None:
            Bi, Bj = fam.mats[I], fam.mats[J]
            BiT = Bi.transpose(0, 2, 1)
            wa = _apply(Bi, A)
            target = _quad(wa, Kii, wa)
            record("w_norm", abs(clamp_roundoff(_quad(wa, Gii, wa)) - target) / (1.0 + abs(target)))
            wb = _apply(Bj, bs)
            lhs = _apply(BiT, _apply(blocks[I, J], wb))
            rhs = _apply(BiT, _apply(Kr[t, J], wb))
            record("w_adjoint", np.abs(lhs - rhs).max(axis=1) / scale)
            # chain_apply's route, rightmost factor first, against the strip
            # of the product's matrix, one group of equally long chains at a time
            chain_res = np.empty(T)
            lengths = np.array([len(c) for c in chains])
            for k in sorted(set(lengths.tolist())):
                group = np.flatnonzero(lengths == k)
                idx = np.array([chains[g] for g in group])
                vec = XG.reshape(T, n, d)[group, idx[:, -1]]
                for col in range(k - 1, -1, -1):
                    p = idx[:, col]
                    if col < k - 1:
                        vec = _apply(blocks[p, idx[:, col + 1]], vec)
                    vec = _apply(fam.mats[p], np.einsum("tba,tb->ta", fam.mats[p], vec))
                mx = np.einsum("tak,tk->ta", _w_chain_strips(fam, idx), X[group])
                chain_res[group] = np.abs(vec - mx).max(axis=1) / (1.0 + np.abs(mx).max(axis=1))
            record("w_chain", chain_res)
            if w_unitary:
                record("w_isometry", abs(g_norm(_apply(Bi, unit)) - unorm))
                once = _apply(Bi, _apply(BiT, u))
                twice = _apply(Bi, _apply(BiT, _apply(Gii, once)))
                record("w_projection_idempotent", g_norm(twice - once) / floor)

    # continuity: the G-internal increment agrees with the kernel-side one
    count = min(trials, 20)
    I, J, A = np.empty(count, dtype=np.intp), np.empty(count, dtype=np.intp), np.empty((count, d))
    for r in range(count):
        I[r], J[r] = rng.integers(n), rng.integers(n)
        rng.standard_normal(out=A[r])
    M = blocks[I, I] - blocks[I, J] - blocks[J, I] + blocks[J, J]
    lhs = clamp_roundoff(_quad(A, M, A))
    rhs = continuity_increments(kernel, ctx.sites[I], ctx.sites[J], A)
    record("continuity_consistency", _rel(lhs, rhs))

    return IdentityReport(res)


def element_to_json_dict(x: RkhsElement) -> dict:
    return {
        "context_hash": x.context.context_hash(),
        "coeffs": [float(v) for v in x.coeffs],
    }
