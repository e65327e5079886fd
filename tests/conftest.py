import pytest

from dcmesh.groups import derive_params

TAG = b"dc-mesh/v1"


@pytest.fixture(scope="session")
def small():
    """The enumeration-friendly group: p=107, q=53, g=4, h=9."""
    return derive_params("test_small", TAG)


@pytest.fixture(scope="session")
def medium():
    """The tree-capable test group (large enough for slot encodings)."""
    return derive_params("test_medium", TAG)


@pytest.fixture(scope="session")
def dlog():
    """The exhaustive discrete log of a desk-scale group: x with base^x = target."""

    def search(params, base, target):
        return next(x for x in range(params.q) if pow(base, x, params.p) == target)

    return search
