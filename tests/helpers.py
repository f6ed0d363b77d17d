"""Helpers shared by the test modules."""

import numpy as np

from opkern.gram import BlockGram


def one_channel_gram(sites, data) -> BlockGram:
    """A Gram on ``sites`` whose data is ``data`` as it is, neither checked
    against a kernel's shape nor averaged with its transpose (``raw_gram``
    does both): its own one channel, basis [[1]]."""
    return BlockGram(sites=sites, channels=np.asanyarray(data, dtype=float)[None], basis=np.ones((1, 1)))
