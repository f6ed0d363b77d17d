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

from .gram import BlockGram, assemble_gram, raw_gram, site_blocks
from .kernels import OperatorKernel, as_hvec, as_site, continuity_increment, read_only, render_spec

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
        h.update(self.gram.data.tobytes())
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
        d = self.context.d
        if len(self.mats) != self.context.n:
            raise ValueError("need one transform per site")
        mats = [np.asarray(m, dtype=float) for m in self.mats]
        for m in mats:
            if m.shape != (d, d) or not np.all(np.isfinite(m)):
                raise ValueError(f"transforms must be finite {d}x{d} matrices")
        object.__setattr__(self, "mats", read_only(np.array(mats)))

    def is_unitary(self, tol: float = 1e-10) -> bool:
        eye = np.eye(self.context.d)
        return all(
            float(np.abs(m.T @ m - eye).max()) <= tol for m in self.mats
        )


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


def _check_index(ctx: RkhsContext, i: int) -> None:
    if not 0 <= i < ctx.n:
        raise IndexError(f"site index {i} out of range [0, {ctx.n})")


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
    _check_index(ctx, i)
    return _section(ctx, i, as_hvec(a, ctx.d))


def inner_product(x: RkhsElement, y: RkhsElement) -> float:
    """G-inner product x^T G y; tiny negative self-products clamp to 0."""
    _same_context(x, y)
    val = float(x.coeffs @ x.context.gram.data @ y.coeffs)
    if -1e-12 <= val < 0.0 and (x is y or np.array_equal(x.coeffs, y.coeffs)):
        return 0.0
    return val


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
    _check_index(ctx, i)
    d = ctx.d
    return ctx.gram.data[i * d : (i + 1) * d] @ x.coeffs


def covariance(ctx: RkhsContext, i: int) -> np.ndarray:
    """The covariance operator K(s_i, s_i) on H."""
    _check_index(ctx, i)
    return ctx.gram.block(i, i).copy()


def frame_projection(ctx: RkhsContext, i: int, x: RkhsElement) -> RkhsElement:
    """V_i V_i^* x: the section at i in direction block i of G c."""
    return _section(ctx, i, feature_adjoint(ctx, i, x))


def transformed_embed(fam: TransformFamily, i: int, a) -> RkhsElement:
    """W_i a = section(i, B_i a)."""
    ctx = fam.context
    _check_index(ctx, i)
    a = as_hvec(a, ctx.d)
    return _section(ctx, i, fam.mats[i] @ a)


def transformed_adjoint(fam: TransformFamily, i: int, x: RkhsElement) -> np.ndarray:
    """W_i^* x = B_i^T (G c)_i."""
    ctx = fam.context
    _same_context(x, ctx)
    _check_index(ctx, i)
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
        _check_index(ctx, i)
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
    coefficients are written once.
    """
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


def _w_chain_matrix(fam: TransformFamily, indices) -> np.ndarray:
    """The nd x nd coefficient-space matrix of the product
    (W_{i1} W_{i1}^*) ... (W_{ik} W_{ik}^*), built without ``chain_apply``.

    The matrix of W_p W_p^* is zero outside the d rows of block p, where it
    is B_p B_p^T G[rows of p]; so each factor multiplies only the d columns
    of the running product that meet those rows.  This equals the dense
    selector product up to the order in which BLAS sums those d terms.
    """
    ctx = fam.context
    d = ctx.d
    M = np.eye(ctx.size)
    for p in indices:
        rows = slice(p * d, (p + 1) * d)
        B = fam.mats[p]
        M = M[:, rows] @ ((B @ B.T) @ ctx.gram.data[rows])
    return M


def _rel(lhs: float, rhs: float) -> float:
    """|lhs - rhs| relative to 1 + |lhs| + |rhs|."""
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    G = ctx.gram.data
    n, d = ctx.n, ctx.d
    eye = np.eye(d)
    kernel = ctx.kernel
    scale = 1.0 + ctx.gram.scale

    res: dict[str, float] = {}

    def record(name: str, value: float):
        # the running maximum, except that a NaN sticks (max() would drop it)
        cur = res.get(name, 0.0)
        res[name] = value if value > cur or value != value else cur

    # Structural check against fresh kernel evaluations: catches injected
    # Gram corruption that every G-internal identity would miss.  By blocks
    # of rows: no nd x nd temporary.
    blocks = G.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    drift = np.max([
        np.abs(blocks[part] - kernel.blocks(ctx.sites[part], ctx.sites)).max()
        for part in site_blocks(n, d)
    ])
    record("factorization_consistency", float(drift) / scale)

    # the covariances K(s_i, s_i), decomposed once for the PSD record and
    # the operator norms
    cov = blocks[np.arange(n), np.arange(n)]
    normalized = float(np.abs(cov - eye).max()) <= 1e-10
    lam = np.linalg.eigvalsh(cov)  # ascending per site
    sym_defect = np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2)) / scale
    neg = np.maximum(0.0, -lam[:, 0]) / np.maximum(lam[:, -1], 1.0)
    record("covariance_selfadjoint_psd", float(np.maximum(sym_defect, neg).max()))
    op_norms = lam[:, -1].tolist()
    w_unitary = normalized and fam is not None and fam.is_unitary()

    for _ in range(trials):
        i = int(rng.integers(n))
        a = rng.standard_normal(d)
        x = RkhsElement._trusted(ctx, read_only(rng.standard_normal(n * d)))
        y = RkhsElement._trusted(ctx, read_only(rng.standard_normal(n * d)))
        xnorm = x.g_norm()

        # factorization: V_i^* x as block i of G c, against
        # sum_j K(s_i, s_j) c_j from one fresh kernel row at s_i; by
        # linearity this checks V_i^* V_j = K(s_i, s_j) for every j at once
        adj = feature_adjoint(ctx, i, x)
        value = _value_at(x, ctx.sites[i])
        record("factorization", float(np.abs(adj - value).max()) / scale)

        # reproducing property, every axis from the same kernel row
        for e in eye:
            lhs = float(e @ value)
            record("reproducing", _rel(lhs, inner_product(_section(ctx, i, e), x)))

        # feature norm vs covariance quadratic form
        emb = _section(ctx, i, a)
        nrm2 = inner_product(emb, emb)
        quad = float(a @ covariance(ctx, i) @ a)
        record("feature_norm", abs(nrm2 - quad) / (1.0 + abs(quad)))

        record("adjoint_relation", _rel(inner_product(emb, x), float(a @ adj)))

        # repaired operator-norm bound on the frame projection V_i V_i^* x;
        # record's running maximum starts at 0, so only an excess counts
        px = _section(ctx, i, adj)
        excess = inner_product(x, px) - op_norms[i] * xnorm**2
        record("norm_bound", excess / (1.0 + xnorm**2))

        if normalized:
            anorm = float(np.linalg.norm(a))
            unit = a / anorm if anorm > 0 else a  # also w_isometry's direction
            unorm = float(np.linalg.norm(unit))
            record("isometry", abs(_section(ctx, i, unit).g_norm() - unorm))
            ppx = frame_projection(ctx, i, px)
            record("projection_idempotent", ppx.g_distance(px) / max(xnorm, 1e-300))
            py = frame_projection(ctx, i, y)
            record("projection_selfadjoint", _rel(inner_product(px, y), inner_product(x, py)))

        if fam is not None:
            j = int(rng.integers(n))
            b = rng.standard_normal(d)
            Bi, Bj = fam.mats[i], fam.mats[j]
            wemb = transformed_embed(fam, i, a)
            target = float((Bi @ a) @ ctx.gram.block(i, i) @ (Bi @ a))
            record("w_norm", abs(inner_product(wemb, wemb) - target) / (1.0 + abs(target)))
            lhs_v = transformed_adjoint(fam, i, transformed_embed(fam, j, b))
            rhs_v = Bi.T @ ctx.gram.block(i, j) @ Bj @ b
            record("w_adjoint", float(np.abs(lhs_v - rhs_v).max()) / scale)
            k = min(int(rng.integers(1, 5)), n * 2)
            idx = [int(rng.integers(n)) for _ in range(k)]
            chained = chain_apply(fam, idx, x)
            # left-to-right product applied to coeffs: P_{i1} ... P_{ik} c
            mx = _w_chain_matrix(fam, idx) @ x.coeffs
            chain_err = float(np.abs(chained.coeffs - mx).max())
            record("w_chain", chain_err / (1.0 + float(np.abs(mx).max())))
            if w_unitary:
                wu = transformed_embed(fam, i, unit)
                record("w_isometry", abs(wu.g_norm() - unorm))
                once = chain_apply(fam, [i], x)
                twice = chain_apply(fam, [i, i], x)
                record("w_projection_idempotent", twice.g_distance(once) / max(xnorm, 1e-300))

    # continuity: the G-internal increment agrees with the kernel-side one
    for _ in range(min(trials, 20)):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        a = rng.standard_normal(d)
        diff = RkhsElement._trusted(
            ctx, read_only(_section(ctx, i, a).coeffs - _section(ctx, j, a).coeffs)
        )
        lhs = inner_product(diff, diff)
        rhs = continuity_increment(kernel, ctx.sites[i], ctx.sites[j], a)
        record("continuity_consistency", _rel(lhs, rhs))

    return IdentityReport(res)


def element_to_json_dict(x: RkhsElement) -> dict:
    return {
        "context_hash": x.context.context_hash(),
        "coeffs": [float(v) for v in x.coeffs],
    }
