"""The benchmark's tracer patches opkern's public functions by name from
``perfbench/spans.py``; a rename or deletion there must fail tier-1, not
only the benchmark's own self-test."""

import importlib.util
from pathlib import Path

import numpy as np

from opkern.kernels import OperatorKernel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    spans = load_spans()
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
