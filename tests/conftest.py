import sys

import numpy as np
import pytest

from qmac import linalg
from qmac.fixtures import identity_unitary, secure_example_unitary, x_block_unitary
from qmac.protocol import TaggingUnitary


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def u_identity():
    return TaggingUnitary(identity_unitary())


@pytest.fixture
def u_xblock():
    return TaggingUnitary(x_block_unitary())


@pytest.fixture
def u_secure():
    return TaggingUnitary(secure_example_unitary())


@pytest.fixture
def m0_svds(monkeypatch):
    """Record each 2x2 matrix the package's SVD routine is called on, in
    every qmac module that holds the routine."""
    seen = []
    svd = linalg._svd

    def counted(a, *args, **kwargs):
        if a.shape[-2:] == (2, 2):
            seen.extend(np.reshape(a, (-1, 2, 2)).copy())
        return svd(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qmac") and getattr(module, "_svd", None) is svd:
            monkeypatch.setattr(module, "_svd", counted)
    return seen
