"""The benchmark's tracer patches opkern's public functions by name from
``perfbench/spans.py``; a rename or deletion there must fail tier-1, not
only the benchmark's own self-test.  The benchmark's workloads must also
keep exercising the paths they were chosen for."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from opkern import gram, rkhs
from opkern.kernels import OperatorKernel, make_kernel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    spans = load("spans")
    missing = [
        f"{module.__name__}.{name}"
        for module, names in spans.LAYER_FUNCS.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    missing += [
        f"numpy.linalg.{name}"
        for name in spans.LINALG_FUNCS
        if not callable(getattr(np.linalg, name, None))
    ]
    assert not missing, missing
    assert "eval" in vars(OperatorKernel)


def test_wide_blocks_factors_by_channel(tmp_path, monkeypatch):
    # both specs of wide_blocks (SMOKE sizes) go through the stacked channel
    # Cholesky of their distinct channels (separable: d; gauss(dim=d): one),
    # never an nd x nd one, and stop on the dense ladder's rung
    wl = load("workloads").WideBlocks(seed=0, smoke=True, out=tmp_path)
    n, d = wl.sizes["n"], wl.sizes["d"]
    shapes, cholesky = [], np.linalg.cholesky

    def counted(a, *args, **kw):
        shapes.append(np.shape(a))
        return cholesky(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    for _, task in wl.tasks():
        task()()
    assert len(shapes) >= 2 and set(shapes) == {(d, n, n), (1, n, n)}
    monkeypatch.undo()
    for spec, sites in (wl.separable, wl.gauss):
        g = gram.factorize(rkhs.make_context(make_kernel(spec), sites).gram)
        dense = gram.BlockGram(sites=g.sites, data=g.data)
        assert g.spectrum.basis is not None
        assert g.jitter_used == gram.factorize(dense).jitter_used


@pytest.mark.parametrize("name", ["python_bound", "wide_blocks", "gp_paths"])
def test_smoke_operations_pass_their_checks(tmp_path, name):
    # two operations of every task at SMOKE sizes, the second traced as the
    # benchmark traces every other one: the checks read the Gram's
    # certificate and factor and validate every JSON output, and the
    # tracer's counters read the results of the calls they wrap
    spans, workloads = load("spans"), load("workloads")
    wl = workloads.WORKLOADS[name](seed=0, smoke=True, out=tmp_path)
    tracer = spans.Tracer()
    for op in range(2):
        for _, task in wl.tasks():
            if op == 0:
                check = task()
            else:
                tracer.op = op
                tracer.patch()
                try:
                    check = task()
                finally:
                    tracer.unpatch()
            check()
    metrics = spans.op_metrics(tracer.spans)
    assert set(metrics) <= set(spans.PER_LAYER)
    assert all(np.isfinite(v) and v >= 0 for v in metrics.values())
    assert metrics["gram.factorize.calls"] > 0 and metrics["gram.factorize.rungs"] > 0
