"""The package's exported names: each resolves, once, and removed names stay gone."""

import cdloops
from cdloops import CentralProduct, Scalar


def test_every_exported_name_resolves():
    for name in cdloops.__all__:
        assert hasattr(cdloops, name), name


def test_exports_are_listed_once():
    assert len(cdloops.__all__) == len(set(cdloops.__all__))


def test_removed_names_are_gone():
    # scalar algebra is spelled with Scalar's operators; rank is ProductElement.rank
    for name in ("scalar_mul", "scalar_inv"):
        assert not hasattr(cdloops, name)
        assert name not in cdloops.__all__
    assert not hasattr(CentralProduct, "rank")
    assert not hasattr(Scalar, "__neg__")
