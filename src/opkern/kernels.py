"""Operator-valued kernels: the builtin zoo, the spec mini-grammar, and
pointwise operations (evaluation, induced scalar kernel, continuity
increments, and the two-space diagnostic form).

Sites are 1-D float arrays of domain coordinates; vectors in the ambient
space H are 1-D float arrays of length ``d``; operator values are dense
``d_out x d_in`` float matrices.  All scalars are real.  Every spec is a
closed form in r = |s-t|.

Every square spec is diagonal in one fixed orthogonal basis Q:
K(r) = Q diag(k_1(r), ..., k_d(r)) Q^T.  It declares only Q, in closed form
as ``basis`` (column m belongs to channel m), and the channel values k_m as
``channels(r2)``, which maps an array of squared distances to shape
``r2.shape + (d,)``; ``OperatorKernel.channel_sum`` turns channels into
operator values.  The rectangular ``twospace`` spec's ``values(r2)`` gives
its values, shape ``r2.shape + (d_out, d_in)``, from its base's one channel.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import math
import typing
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "KernelSpecError",
    "SpecSyntaxError",
    "SpecDomainError",
    "GaussianSpec",
    "DiagExp3Spec",
    "Rational2Spec",
    "SeparableSpec",
    "NormalizedSpec",
    "TwoSpaceSpec",
    "KernelSpec",
    "OperatorKernel",
    "parse_kernel_spec",
    "render_spec",
    "make_kernel",
    "as_site",
    "as_sites",
    "as_hvec",
    "evaluate",
    "induced_scalar",
    "continuity_increment",
    "continuity_increments",
    "two_space_form",
]

SYM_TOL = 1e-12
PSD_EIG_TOL = 1e-10  # PSD: least eigenvalue >= -PSD_EIG_TOL * max(lambda_max, 1)
UNITARY_TOL = 1e-10  # max |M^T M - I| of a unitary transform or an orthogonal basis
Matrix = tuple  # row-major tuple of row tuples, kept hashable


class KernelSpecError(ValueError):
    """Base class for kernel-spec parsing and validation failures."""


class SpecSyntaxError(KernelSpecError):
    """Malformed spec text; carries the character position of the fault."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class SpecDomainError(KernelSpecError):
    """Spec parsed but a parameter violates its domain bound."""


def as_site(s) -> np.ndarray:
    """Coerce to a 1-D float coordinate array and check finiteness."""
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("site must be a nonempty 1-D coordinate sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("site coordinates must be finite")
    return arr


def as_hvec(a, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float vector in H; optionally enforce its length."""
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if arr.ndim != 1:
        raise ValueError("H-vector must be 1-D")
    if not np.all(np.isfinite(arr)):
        raise ValueError("H-vector entries must be finite")
    if dim is not None and arr.size != dim:
        raise ValueError(f"H-vector has length {arr.size}, expected {dim}")
    return arr


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only.  Every array a spec caches, ``basis``
    among them, is made so: all Grams of the kernel share it."""
    a.setflags(write=False)
    return a


def check_site_dims(k: int, other: int) -> None:
    """Refuse two sites, or site arrays, of k and ``other`` coordinates."""
    if k != other:
        raise ValueError(f"site dimension mismatch: {k} vs {other}")


def is_orthogonal(M: np.ndarray) -> bool:
    """max |M^T M - I| <= UNITARY_TOL, for a square matrix or a stack of
    them; a NaN fails.  M^T M is the one temporary."""
    M = np.asarray(M, dtype=float)
    D, d = np.swapaxes(M, -1, -2) @ M, M.shape[-1]
    D.reshape(-1, d * d)[:, :: d + 1] -= 1.0
    return bool(np.abs(D, out=D).max() <= UNITARY_TOL)


def clamp_roundoff(v):
    """Self-products x^T M x of a PSD M, roundoff in [-1e-12, 0) clamped to 0."""
    return np.where((-1e-12 <= v) & (v < 0.0), 0.0, v)


def as_sites(sites) -> np.ndarray:
    """Stack a sequence of sites into an (n, k) array; all must have k coords.

    Sites that are all scalars or all equally long coordinate sequences,
    an array among them, are converted by one numpy call; any other input
    takes ``as_site`` one site at a time, which raises its error or the
    dimension mismatch."""
    if not isinstance(sites, np.ndarray):
        sites = list(sites)
    try:
        arr = np.array(sites, dtype=float)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is not None and ((arr.ndim == 1 and len(arr)) or (arr.ndim == 2 and arr.shape[1])):
        if not np.isfinite(arr).all():
            raise ValueError("site coordinates must be finite")
        return arr if arr.ndim == 2 else arr.reshape(-1, 1)
    rows = [as_site(s) for s in sites]
    for row in rows[1:]:
        check_site_dims(rows[0].size, row.size)
    return np.stack(rows)


# ---------------------------------------------------------------------------
# Spec variants


@dataclass(frozen=True)
class GaussianSpec:
    """sigma^2 * exp(-|s-t|^2 / (2 ell^2)) times the d x d identity."""

    sigma: float
    ell: float
    dim: int = 1

    name = "gauss"

    def __post_init__(self):
        if not (self.sigma > 0):
            raise SpecDomainError("sigma must be > 0")
        if not (self.ell > 0):
            raise SpecDomainError("ell must be > 0")
        if self.dim < 1:
            raise SpecDomainError("dim must be >= 1")
        if not (self.sigma * self.sigma < math.inf and 0.0 < self.ell * self.ell < math.inf):
            raise SpecDomainError("sigma**2 must be finite and ell**2 positive and finite")

    @property
    def dim_h(self) -> int:
        return self.dim

    @cached_property
    def basis(self) -> np.ndarray:
        return read_only(np.eye(self.dim))

    def channels(self, r2: np.ndarray) -> np.ndarray:
        """The one channel value repeated d times: a read-only view."""
        # sigma^2 exp(-r2 / (2 ell^2)) bit for bit, in one array, not four
        val = np.asarray(np.divide(r2, -2.0 * self.ell**2))
        np.exp(val, out=val)
        val *= self.sigma**2
        return np.broadcast_to(val[..., None], val.shape + (self.dim,))


@dataclass(frozen=True)
class DiagExp3Spec:
    """Diagonal 3x3 kernel diag(1, exp(-r), exp(-r^2)), r = |s-t|."""

    name = "diagexp3"

    @property
    def dim_h(self) -> int:
        return 3

    @cached_property
    def basis(self) -> np.ndarray:
        return read_only(np.eye(3))

    def channels(self, r2: np.ndarray) -> np.ndarray:
        return np.stack([np.ones(np.shape(r2)), np.exp(-np.sqrt(r2)), np.exp(-r2)], -1)


@dataclass(frozen=True)
class Rational2Spec:
    """2x2 kernel [[1/(1+r), 1/(1+r^2)], [1/(1+r^2), 1/(1+r)]].

    With a = 1/(1+r) and b = 1/(1+r^2) it splits into the scalar kernel
    a+b on (1,1)/sqrt2 and a-b on (1,-1)/sqrt2, so a Gram's spectrum is the
    union of the spectra of the scalar Grams of a+b and a-b.  Since a-b is
    zero at r = 0 but not at r other than 0 or 1, the kernel is PSD exactly
    on site sets whose pairwise distances are all 0 or 1.
    """

    name = "rational2"

    @property
    def dim_h(self) -> int:
        return 2

    @cached_property
    def basis(self) -> np.ndarray:
        return read_only(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))

    def channels(self, r2: np.ndarray) -> np.ndarray:
        a, b = 1.0 / (1.0 + np.sqrt(r2)), 1.0 / (1.0 + r2)
        return np.stack([a + b, a - b], -1)


@dataclass(frozen=True)
class SeparableSpec:
    """base(s,t) * B for a scalar base spec and a fixed symmetric PSD B."""

    B: Matrix
    base: KernelSpec

    name = "separable"

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise SpecDomainError("separable B must be square")
        if not np.all(np.isfinite(B)):
            raise SpecDomainError("separable B must be finite")
        scale = 1.0 + float(np.abs(B).max(initial=0.0))
        if float(np.abs(B - B.T).max()) > SYM_TOL * scale:
            raise SpecDomainError("separable B must be symmetric")
        eigs = self._eigh[0]
        if eigs.min() < -PSD_EIG_TOL * max(eigs.max(), 1.0):
            raise SpecDomainError("separable B must be positive semi-definite")
        _check_scalar_base(self.base, "separable")

    @property
    def dim_h(self) -> int:
        return len(self.B)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        B = np.asarray(self.B, dtype=float)
        lam, Q = np.linalg.eigh(0.5 * (B + B.T))
        return read_only(lam), read_only(Q)

    @property
    def basis(self) -> np.ndarray:
        return self._eigh[1]

    def channels(self, r2: np.ndarray) -> np.ndarray:
        return self.base.channels(r2) * self._eigh[0]


@dataclass(frozen=True)
class NormalizedSpec:
    """C^(-1/2) K(s,t) C^(-1/2) with C = K(s,s) of the inner kernel.

    Every builtin inner kernel is a function of |s-t|, so K(s,s) is the same
    at every site.  C = Q diag(c) Q^T in the inner basis Q, so the channels
    are the inner channels divided by c, their values at distance 0 (cached);
    no C^(-1/2) is formed, whose rounding would grow like cond(C) * eps.
    """

    inner: KernelSpec

    name = "normalized"

    def __post_init__(self):
        if isinstance(self.inner, TwoSpaceSpec):
            raise SpecDomainError("normalized requires a square inner kernel")

    @property
    def dim_h(self) -> int:
        return self.inner.dim_h

    @property
    def basis(self) -> np.ndarray:
        return self.inner.basis

    @cached_property
    def _channels_at_zero(self) -> np.ndarray:
        return read_only(_check_invertible(self.inner.channels(np.zeros(()))))

    def channels(self, r2: np.ndarray) -> np.ndarray:
        return self.inner.channels(r2) / self._channels_at_zero


def _check_invertible(eigval: np.ndarray) -> np.ndarray:
    """The eigenvalues of K(s,s), if they make it invertible."""
    if eigval.min() < 1e-12 * max(eigval.max(), 0.0) or eigval.max() <= 0:
        raise ValueError("normalized kernel: K(s,s) not invertible")
    return eigval


def _check_scalar_base(base: KernelSpec, owner: str) -> None:
    """A base kernel must have one channel: square, of dim 1."""
    if isinstance(base, TwoSpaceSpec) or base.dim_h != 1:
        raise SpecDomainError(f"{owner} base must be a square kernel of dim 1")


@dataclass(frozen=True)
class TwoSpaceSpec:
    """base(s,t) * M with the d2 x d1 matrix M mapping H1 (dim d1) into H2
    (dim d2); both dims are read from M's shape.

    Diagnostic only: the value is rectangular and no positive definiteness
    is claimed or checked.
    """

    M: Matrix
    base: KernelSpec

    name = "twospace"

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.ndim != 2 or M.size == 0:
            raise SpecDomainError("twospace M must be a nonempty matrix")
        if not np.all(np.isfinite(M)):
            raise SpecDomainError("twospace M must be finite")
        _check_scalar_base(self.base, "twospace")

    @property
    def d1(self) -> int:
        return len(self.M[0])

    @property
    def d2(self) -> int:
        return len(self.M)

    @property
    def dim_h(self) -> int:
        # rectangular kernels report the output-space dimension
        return self.d2

    def values(self, r2: np.ndarray) -> np.ndarray:
        return self.base.channels(r2)[..., None] * np.asarray(self.M, dtype=float)


KernelSpec = Union[
    GaussianSpec,
    DiagExp3Spec,
    Rational2Spec,
    SeparableSpec,
    NormalizedSpec,
    TwoSpaceSpec,
]


# ---------------------------------------------------------------------------
# Spec grammar: a spec is a Python call expression ``name(key=value,...)`` or
# a bare ``name``; its keys are the fields of the spec's dataclass.  ``ast``
# parses the text (it evaluates nothing) and ``_build`` reads each keyword
# with the reader for its field's type.


class _Fault(Exception):
    """(message, node): a malformed node, located by ``parse_kernel_spec``."""


def _number(node: ast.expr) -> float:
    """A finite int or float literal with at most one sign, as a float."""
    negative = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    if not (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        raise _Fault("expected a number", node)
    try:
        value = float(node.value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SpecDomainError("parameters must be finite floats")
    return -value if negative else value


def _integer(node: ast.expr) -> int:
    value = _number(node)
    if not value.is_integer():
        raise _Fault("expected an integer", node)
    return int(value)


def _matrix(node: ast.expr) -> Matrix:
    """A row-major ``[[a,b],[c,d]]`` literal: equally long, nonempty rows."""
    rows = node.elts if isinstance(node, ast.List) else []
    if not rows or not all(isinstance(row, ast.List) and row.elts for row in rows):
        raise _Fault("expected a matrix [[a,b],[c,d]]", node)
    rows = tuple(tuple(map(_number, row.elts)) for row in rows)
    if len({len(row) for row in rows}) != 1:
        raise _Fault("matrix rows have unequal lengths", node)
    return rows


def _build(node: ast.expr) -> KernelSpec:
    """The spec of a call ``name(key=value,...)`` or a bare ``name``."""
    call = node if isinstance(node, ast.Call) else ast.Call(node, [], [])
    if not isinstance(call.func, ast.Name):
        raise _Fault("expected a kernel spec", call.func)
    name = call.func.id.lower()
    if name not in _SPECS:
        raise _Fault(f"unknown kernel '{name}'", call.func)
    if call.args:
        raise _Fault("parameters must be given as key=value", call.args[0])
    cls, readers, required = _SPECS[name]
    values: dict = {}
    for kw in call.keywords:
        if kw.arg in values:
            raise _Fault(f"duplicate key '{kw.arg}'", kw)
        if kw.arg not in readers:
            raise _Fault(f"'{name}' takes no parameter '{kw.arg or '**'}'", kw)
        values[kw.arg] = readers[kw.arg](kw.value)
    missing = sorted(required - values.keys())
    if missing:
        raise SpecDomainError(f"missing parameter(s) for '{name}': {missing}")
    return cls(**values)


def _params(cls) -> tuple:
    """(cls, reader per field, required fields): a spec's row of the table."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    readers = {float: _number, int: _integer, Matrix: _matrix, KernelSpec: _build}
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    return cls, {f.name: readers[hints[f.name]] for f in fields}, required


_SPECS = {cls.name: _params(cls) for cls in typing.get_args(KernelSpec)}
_SPECS["gaussian"] = _SPECS["gauss"]


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse spec text like ``gauss(sigma=1,ell=0.5,dim=3)`` into a KernelSpec.

    Whitespace insensitive; nesting allowed for ``separable``/``normalized``/
    ``twospace``; matrices are row-major ``[[a,b],[c,d]]``; numbers are
    Python int or float literals with at most one sign.  Raises
    SpecSyntaxError (with position) on malformed text and SpecDomainError
    on out-of-range parameters.
    """
    body = text.strip()
    lead = len(text) - len(text.lstrip())
    # starts[k]: the position in text of line k + 1 of body
    starts = list(itertools.accumulate((len(ln) + 1 for ln in body.split("\n")), initial=lead))
    try:
        with warnings.catch_warnings():  # a SyntaxWarning becomes a SyntaxError
            warnings.simplefilter("error")
            tree = ast.parse(body, mode="eval")
    except SyntaxError as exc:  # NUL bytes and nesting past the parser's limit too
        pos = starts[(exc.lineno or 1) - 1] + (exc.offset or 1) - 1
        raise SpecSyntaxError(exc.msg, pos) from None
    except (ValueError, RecursionError, MemoryError) as exc:
        raise SpecSyntaxError(f"unparseable spec ({type(exc).__name__})", lead) from None
    try:
        return _build(tree.body)
    except _Fault as fault:
        message, node = fault.args
        raise SpecSyntaxError(message, starts[node.lineno - 1] + node.col_offset) from None


def render_spec(spec: KernelSpec) -> str:
    """Canonical rendering ``name(key=value,...)``: keys sorted, no
    whitespace; the bare name for a spec without parameters."""
    keys = sorted(f.name for f in dataclasses.fields(spec))
    if not keys:
        return spec.name
    return f"{spec.name}({','.join(f'{k}={_render(getattr(spec, k))}' for k in keys)})"


def _render(value) -> str:
    if isinstance(value, tuple):
        return "[" + ",".join(map(_render, value)) + "]"
    if isinstance(value, (int, float)):
        return str(int(value)) if value == int(value) else repr(float(value))
    return render_spec(value)


# ---------------------------------------------------------------------------
# Evaluable kernels


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Evaluable form of a KernelSpec: a value that stores only its spec.

    Every value comes from one path, ``values``: the spec turns squared
    distances into its channels (its values, for ``twospace``) and
    ``channel_sum`` into all blocks at once.  ``blocks`` feeds it the
    pairwise squared distances of two site arrays, ``pairs`` those of their
    matching rows, and ``eval`` is the one-pair case of ``blocks``.
    Evaluation is pure and symmetric (eval(s,t) == eval(t,s)^T) for every
    square builtin variant; every spec is square but ``twospace``, whatever
    the shape of its M.
    """

    spec: KernelSpec

    # the dimension of H, which is the output space's for ``twospace``
    dim_h = dim_out = property(lambda self: self.spec.dim_h)
    dim_in = property(lambda self: self.spec.dim_h if self.is_square else self.spec.d1)
    is_square = property(lambda self: not isinstance(self.spec, TwoSpaceSpec))

    def __call__(self, s, t) -> np.ndarray:
        return self.eval(as_site(s), as_site(t))

    @staticmethod
    def sq_dists(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """|S[i] - T[j]|^2 for (n, k) and (m, k) site arrays, shape (n, m);
        exactly symmetric when S is T."""
        check_site_dims(S.shape[1], T.shape[1])
        diff = S[:, None, :] - T[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    @staticmethod
    def channel_sum(channels: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Q diag(k) Q^T for each row k of a (..., d) channel array, shape
        (..., d, d): one GEMM with the d^2 products Q[a,m] Q[b,m]."""
        d = len(basis)
        P = (basis[:, None, :] * basis[None, :, :]).reshape(d * d, d)
        # C order, as BLAS takes it, even for a spec's broadcast channels
        out = np.ascontiguousarray(channels.reshape(-1, d)) @ P.T
        return out.reshape(channels.shape[:-1] + (d, d))

    def values(self, r2: np.ndarray) -> np.ndarray:
        """K at an array of squared distances, shape r2.shape + (dim_out, dim_in)."""
        if not self.is_square:
            return self.spec.values(r2)
        return self.channel_sum(self.spec.channels(r2), self.spec.basis)

    def blocks(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """K(S[i], T[j]) for (n, k) and (m, k) site arrays, shape
        (n, m, dim_out, dim_in)."""
        return self.values(self.sq_dists(S, T))

    def pairs(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """K(S[m], T[m]) for two (m, k) site arrays, shape (m, dim_out, dim_in)."""
        check_site_dims(S.shape[1], T.shape[1])
        diff = S - T
        return self.values(np.einsum("mk,mk->m", diff, diff))

    def eval(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.blocks(s[None], t[None])[0, 0]


def make_kernel(spec_or_text) -> OperatorKernel:
    """Build an OperatorKernel from a KernelSpec or spec text."""
    spec = parse_kernel_spec(spec_or_text) if isinstance(spec_or_text, str) else spec_or_text
    return OperatorKernel(spec)


# ---------------------------------------------------------------------------
# Pointwise operations


def evaluate(kernel: OperatorKernel, s, t) -> np.ndarray:
    """Return K(s,t) as a dense matrix."""
    return kernel(s, t)


def induced_scalar(kernel: OperatorKernel, s, a, t, b) -> float:
    """The induced scalar kernel value a^T K(s,t) b (square kernels only)."""
    if not kernel.is_square:
        raise ValueError("induced scalar kernel requires a square kernel")
    a = as_hvec(a, kernel.dim_h)
    b = as_hvec(b, kernel.dim_h)
    return float(a @ kernel(s, t) @ b)


def continuity_increment(kernel: OperatorKernel, s, t, a) -> float:
    """Squared increment |V_s a - V_t a|^2 in the induced RKHS: the one-pair
    case of ``continuity_increments``."""
    if not kernel.is_square:
        raise ValueError("continuity increment requires a square kernel")
    S, T = as_site(s)[None], as_site(t)[None]
    return float(continuity_increments(kernel, S, T, as_hvec(a, kernel.dim_h)[None])[0])


def continuity_increments(kernel: OperatorKernel, S, T, A) -> np.ndarray:
    """|V_s a - V_t a|^2 for each row (s, t, a) of two arrays of m sites
    (``as_sites``: a 1-D array is m one-coordinate sites) and an (m, d)
    array of finite H-vectors, shape (m,).

    Computed exactly as a^T (K(s,s) - K(s,t) - K(t,s) + K(t,t)) a, the 4m
    values from one ``pairs`` evaluation, clamped by ``clamp_roundoff``.
    """
    if not kernel.is_square:
        raise ValueError("continuity increment requires a square kernel")
    S, T = as_sites(S), as_sites(T)
    m, d = len(S), kernel.dim_h
    if not m == len(T) == len(A):
        raise ValueError(f"row counts differ: S has {m}, T {len(T)}, A {len(A)}")
    if np.shape(A) != (m, d):
        raise ValueError(f"H-vectors have shape {np.shape(A)}, expected ({m}, {d})")
    as_hvec(np.ravel(A))  # refuses a non-finite entry
    check_site_dims(S.shape[1], T.shape[1])
    K = kernel.pairs(np.concatenate([S, S, T, T]), np.concatenate([S, T, S, T]))
    Kss, Kst, Kts, Ktt = K.reshape(4, m, d, d)
    return clamp_roundoff(np.einsum("ma,mab,mb->m", A, Kss - Kst - Kts + Ktt, A))


def two_space_form(kernel: OperatorKernel, s, a, b, t, c, dvec):
    """Diagnostic bilinear form for the rectangular twospace variant.

    Returns ``(value, hermitian_defect)`` where value = b^T K(s,t) a and the
    defect is |b^T K(s,t) a - d^T K(t,s) c|, i.e. the same form evaluated
    with the two (site, H1-vector, H2-vector) triples swapped.  The (c, d)
    arguments enter only through the swapped evaluation; no positive
    definiteness is claimed.
    """
    if kernel.is_square:
        raise ValueError("two_space_form requires the twospace variant")
    d1, d2 = kernel.dim_in, kernel.dim_out
    a = as_hvec(a, d1)
    b = as_hvec(b, d2)
    c = as_hvec(c, d1)
    dvec = as_hvec(dvec, d2)
    s = as_site(s)
    t = as_site(t)
    value = float(b @ kernel.eval(s, t) @ a)
    swapped = float(dvec @ kernel.eval(t, s) @ c)
    return value, abs(value - swapped)
