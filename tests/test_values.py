"""A Gram, its certificate, a context, a sample batch and every kernel spec
are values: no field can be assigned once they are built, and no array
they hold can be written."""

import dataclasses

import numpy as np
import pytest

from opkern.gp import SampleBatch, sample_paths
from opkern.gram import BlockGram, GramError, SpectrumReport, factorize
from opkern.kernels import make_kernel
from opkern.rkhs import RkhsContext, make_context

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


def gram_rows():
    ctx = make_context(make_kernel(SEPARABLE), [[0.0], [0.5], [1.5]])
    g = factorize(ctx.gram)
    report = g.spectrum
    batch = sample_paths(ctx, 4, seed=0)
    return {
        "BlockGram": (
            g,
            ["sites", "data", "channels", "basis", "n", "d", "spectrum",
             "factor", "jitter_used", "factor_residual"],
            [g.sites, g.data, g.channels, g.basis, g.factor],
        ),
        "SpectrumReport": (
            report,
            [f.name for f in dataclasses.fields(report)],
            [report.eigenvalues, report.eigenvectors, report.basis, report.order],
        ),
        "RkhsContext": (ctx, ["kernel", "gram", "sites"], [ctx.sites]),
        "SampleBatch": (batch, ["context", "seed", "paths", "count"], [batch.paths]),
    }


ROWS = ["BlockGram", "SpectrumReport", "RkhsContext", "SampleBatch"] + ZOO


def row(name):
    return spec_row(name) if name in ZOO else gram_rows()[name]


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
    report = gram_rows()["SpectrumReport"][0]
    with pytest.raises(TypeError):
        report.effective_rank[1e-2] = 0


@pytest.mark.parametrize(
    "cls, settable",
    [
        (BlockGram, ["sites", "data", "channels", "basis"]),
        (RkhsContext, ["kernel", "gram"]),
        (SampleBatch, ["context", "seed", "paths"]),
        (SpectrumReport, ["eigenvalues", "lambda_max", "min_eig", "psd", "effective_rank",
                          "trace", "eigenvectors", "basis", "order", "drift"]),
    ],
    ids=["BlockGram", "RkhsContext", "SampleBatch", "SpectrumReport"],
)
def test_settable_values(cls, settable):
    # the values a constructor takes; every other one is derived from them
    assert [f.name for f in dataclasses.fields(cls) if f.init] == settable


class TestReproductions:
    """Edits that once left a value disagreeing with itself."""

    def test_factor_rebinding(self):
        g = factorize(make_context(make_kernel(SEPARABLE), SITES).gram)
        with pytest.raises(AttributeError):
            g.factor = np.zeros((4, 4))

    def test_shape_derived_from_data(self):
        # n = 5, d = 2 once came with one site and a 3 x 3 matrix
        one = BlockGram(sites=SITES[:1], data=np.eye(3))
        assert (one.n, one.d, one.size) == (1, 3, 3)
        with pytest.raises(GramError, match="^3 rows do not split into 2 sites$"):
            BlockGram(sites=SITES, data=np.eye(3))
        with pytest.raises(TypeError):
            BlockGram(n=5, d=2, sites=SITES[:1], data=np.eye(3))

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
