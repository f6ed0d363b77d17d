"""Helpers shared by the test modules."""

import importlib.util
from pathlib import Path

import numpy as np

from opkern.gram import BlockGram


def one_channel_gram(sites, data) -> BlockGram:
    """A Gram on ``sites`` whose data is ``data`` as it is, neither checked
    against a kernel's shape nor averaged with its transpose (``raw_gram``
    does both): its own one channel, basis [[1]]."""
    return BlockGram(sites=sites, channels=np.asanyarray(data, dtype=float)[None], basis=np.ones((1, 1)))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded from its file (the
    benchmark is no package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
