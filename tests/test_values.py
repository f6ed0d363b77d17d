"""Every object opkern hands out is a value: a kernel and its spec, a Gram,
its certificate, a context, an element, a transform family, a sample batch
and both reports.  No field can be assigned once they are built, no array
or mapping they hold can be written, and verdicts are derived."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import textwrap

import numpy as np
import pytest

import opkern
from opkern import reprcsv
from opkern.gp import CovErrorReport, SampleBatch, covariance_error_report, sample_paths
from opkern.gram import BlockGram, GramError, SpectrumReport, assemble_gram, factorize
from opkern.kernels import OperatorKernel, make_kernel
from opkern.rkhs import (
    TOLERANCES,
    IdentityReport,
    RkhsContext,
    RkhsElement,
    TransformFamily,
    chain_apply,
    frame_projection,
    make_context,
    onb_expansion,
    section,
    verify_identities,
)

from helpers import one_channel_gram

ZOO = [
    "gauss(sigma=1,ell=1,dim=2)",
    "diagexp3",
    "rational2",
    "separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))",
    "normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8)))",
    "normalized(inner=normalized(inner=diagexp3))",
    "twospace(M=[[1,2,3],[4,5,6]],base=gauss(sigma=1,ell=1))",
]
SITES = np.array([[0.0], [1.0]])  # distance 1: rational2 is PSD on them
SEPARABLE = "separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))"
SQUARE_TWOSPACE = "twospace(M=[[1,2],[3,4]],base=gauss(sigma=1,ell=1))"


def cached_arrays(spec) -> list:
    """Every array that ``spec`` and the specs inside it have cached."""
    found = []
    for value in vars(spec).values():
        if dataclasses.is_dataclass(value):
            found += cached_arrays(value)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                found.append(item)
    return found


def spec_row(text):
    kernel = make_kernel(text)
    kernel.blocks(SITES, SITES)  # fills every cache the spec keeps
    spec = kernel.spec
    arrays = cached_arrays(spec)
    assert arrays or not kernel.is_square
    return spec, [f.name for f in dataclasses.fields(spec)], arrays


def value_rows():
    ctx = make_context(make_kernel(SEPARABLE), [[0.0], [0.5], [1.5]])
    g = factorize(ctx.gram)
    report = g.spectrum
    batch = sample_paths(ctx, 4, seed=0)
    cov = covariance_error_report(batch)
    element = RkhsElement(ctx, np.ones(ctx.size))
    fam = TransformFamily(ctx, [np.eye(2), 2.0 * np.eye(2), np.eye(2)[::-1]])
    identities = verify_identities(ctx, fam, trials=3)
    # elements the library builds from arrays it holds (``_trusted``)
    built = [
        section(ctx, 1, [1.0, 2.0]),
        onb_expansion(ctx, 1e-12)[0],
        frame_projection(ctx, 0, element),
        chain_apply(fam, [0, 2], element),
    ]
    return {
        "BlockGram": (
            g,
            ["sites", "data", "channels", "basis", "n", "d", "spectrum",
             "factor", "jitter_used", "factor_residual"],
            [g.sites, g.data, g.channels, g.basis, g.factor],
        ),
        "SpectrumReport": (
            report,
            ["eigenvalues", "vectors", "index", "eigenvectors", "basis", "order", "drift",
             "lambda_max", "min_eig", "trace", "psd", "effective_rank"],
            [report.eigenvalues, report.vectors, report.eigenvectors, report.basis,
             report.order],
        ),
        "RkhsContext": (ctx, ["kernel", "gram", "sites", "n", "d", "size"], [ctx.sites]),
        "SampleBatch": (batch, ["context", "seed", "paths", "count"], [batch.paths]),
        "OperatorKernel": (
            ctx.kernel, ["spec", "dim_h", "dim_out", "dim_in", "is_square"], [],
        ),
        "RkhsElement": (element, ["context", "coeffs"], [element.coeffs]),
        "RkhsElement._trusted": (
            built[0], ["context", "coeffs"], [el.coeffs for el in built],
        ),
        "TransformFamily": (fam, ["context", "mats"], [fam.mats, fam.mats[1]]),
        "IdentityReport": (identities, ["residuals", "results", "all_pass"], []),
        "CovErrorReport": (
            cov, ["max_abs_err", "per_block_err", "mc_tolerance", "z_max", "pass_"],
            [cov.per_block_err],
        ),
    }


VALUES = ["BlockGram", "SpectrumReport", "RkhsContext", "SampleBatch", "OperatorKernel",
          "RkhsElement", "RkhsElement._trusted", "TransformFamily", "IdentityReport",
          "CovErrorReport"]
ROWS = VALUES + ZOO


def row(name):
    return spec_row(name) if name in ZOO else value_rows()[name]


@pytest.mark.parametrize("name", ROWS)
def test_fields_cannot_be_assigned(name):
    value, names, _ = row(name)
    for attr in names:
        with pytest.raises(AttributeError):
            setattr(value, attr, getattr(value, attr))


@pytest.mark.parametrize("name", ROWS)
def test_arrays_cannot_be_written(name):
    _, _, arrays = row(name)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 7.0


def test_effective_ranks_cannot_be_written():
    report = value_rows()["SpectrumReport"][0]
    with pytest.raises(TypeError):
        report.effective_rank[1e-2] = 0


def test_residuals_and_tolerances_cannot_be_written():
    report = value_rows()["IdentityReport"][0]
    for mapping in (report.residuals, TOLERANCES):
        with pytest.raises(TypeError):
            mapping["factorization"] = 0.0


SETTABLE = {
    BlockGram: ["sites", "channels", "basis"],
    RkhsContext: ["kernel", "gram"],
    SampleBatch: ["context", "seed", "paths"],
    SpectrumReport: ["eigenvalues", "vectors", "index", "basis", "order", "drift"],
    OperatorKernel: ["spec"],
    RkhsElement: ["context", "coeffs"],
    TransformFamily: ["context", "mats"],
    IdentityReport: ["residuals"],
    CovErrorReport: ["max_abs_err", "per_block_err", "mc_tolerance", "z_max"],
}


@pytest.mark.parametrize("cls, settable", SETTABLE.items(), ids=[c.__name__ for c in SETTABLE])
def test_settable_values(cls, settable):
    # the values a constructor takes; every other one is derived from them
    assert [f.name for f in dataclasses.fields(cls) if f.init] == settable


def opkern_classes() -> list[type]:
    """Every class defined at the top level of an opkern module."""
    found = []
    for info in pkgutil.iter_modules(opkern.__path__):
        module = importlib.import_module(f"opkern.{info.name}")
        found += [
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ]
    return found


def holds_state(cls) -> bool:
    """Whether instances of ``cls`` carry fields, or attributes that its own
    methods set on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return bool(vars(cls).get("__annotations__")) or any(
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        for node in ast.walk(tree)
    )


def test_every_stateful_class_is_a_frozen_dataclass():
    # exceptions carry their message; reprcsv's tables are a NamedTuple
    checked = [
        cls for cls in opkern_classes()
        if not issubclass(cls, BaseException) and cls is not reprcsv._Tables
        and holds_state(cls)
    ]
    mutable = [
        cls.__qualname__ for cls in checked
        if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)
    ]
    assert not mutable
    names = {cls.__qualname__ for cls in checked}
    assert set(VALUES) - {"RkhsElement._trusted"} <= names


class TestReproductions:
    """Edits that once left a value disagreeing with itself."""

    def test_factor_rebinding(self):
        g = factorize(make_context(make_kernel(SEPARABLE), SITES).gram)
        with pytest.raises(AttributeError):
            g.factor = np.zeros((4, 4))

    def test_shape_derived_from_data(self):
        # n = 5, d = 2 once came with one site and a 3 x 3 matrix
        one = one_channel_gram(SITES[:1], np.eye(3))
        assert (one.n, one.d, one.size) == (1, 3, 3)
        with pytest.raises(GramError, match="^3 rows do not split into 2 sites$"):
            one_channel_gram(SITES, np.eye(3))
        with pytest.raises(TypeError):
            BlockGram(n=5, d=2, sites=SITES[:1], channels=np.eye(3)[None], basis=np.ones((1, 1)))

    def test_certificate_edit(self):
        report = make_context(make_kernel(SEPARABLE), SITES).gram.spectrum
        with pytest.raises(AttributeError):
            report.psd = False
        with pytest.raises(ValueError, match="read-only"):
            report.eigenvalues[0] = -5.0

    def test_context_sites_follow_the_gram(self):
        ctx = make_context(make_kernel(SEPARABLE), SITES)
        with pytest.raises(AttributeError):
            ctx.sites = np.zeros((2, 1))
        assert ctx.sites is ctx.gram.sites

    def test_spec_basis_edit(self):
        k = make_kernel("gauss(sigma=1,ell=1,dim=2)")
        with pytest.raises(ValueError, match="read-only"):
            k.spec.basis[0, 0] = 7.0

    def test_family_edit(self):
        # a NaN written into a validated family once failed w_norm,
        # w_adjoint and w_chain; the family now holds its own copy
        ctx = make_context(make_kernel("normalized(inner=gauss(sigma=1,ell=1,dim=2))"), SITES)
        mats = [np.eye(2), np.eye(2)]
        fam = TransformFamily(ctx, mats)
        with pytest.raises(ValueError, match="read-only"):
            fam.mats[0][0, 0] = np.nan
        mats[0][0, 0] = np.nan  # the caller's array stays the caller's
        assert fam.mats.shape == (2, 2, 2) and np.array_equal(fam.mats[0], np.eye(2))
        assert verify_identities(ctx, fam, trials=3).all_pass

    def test_element_edit(self):
        ctx = make_context(make_kernel("normalized(inner=gauss(sigma=1,ell=1,dim=2))"), SITES)
        x = section(ctx, 0, [1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            x.coeffs[0] = np.inf
        with pytest.raises(AttributeError):
            x.context = make_context(ctx.kernel, SITES)
        assert np.isfinite(x.g_norm())
        coeffs = np.ones(ctx.size)
        y = RkhsElement(ctx, coeffs)
        coeffs[0] = np.inf  # the constructor copied it, and left it writable
        assert y.coeffs[0] == 1.0 and np.isfinite(y.g_norm())

    def test_verdicts_are_derived(self):
        ctx = make_context(make_kernel(SEPARABLE), SITES)
        cov = covariance_error_report(sample_paths(ctx, 50, seed=1))
        with pytest.raises(AttributeError):
            cov.pass_ = not cov.pass_
        assert cov.pass_ == (cov.max_abs_err <= cov.mc_tolerance)
        report = verify_identities(ctx, trials=3)
        assert report.all_pass
        report.results["factorization"]["pass"] = False  # a fresh dict
        assert report.all_pass and report.results["factorization"]["pass"]
        with pytest.raises(AttributeError):
            report.results = {}

    def test_square_twospace_is_not_square(self):
        # M = [[1,2],[3,4]] once made a twospace kernel count as square, and
        # every Gram of it ended in an AttributeError
        k = make_kernel(SQUARE_TWOSPACE)
        assert not k.is_square and (k.dim_out, k.dim_in) == (2, 2)
        with pytest.raises(GramError, match="^block Gram requires a square kernel$"):
            assemble_gram(k, SITES)
        with pytest.raises(AttributeError):
            k.dim_h = 3
