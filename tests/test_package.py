"""The package namespace: every public name resolves to its defining module."""

import sys

import pytest

import mmpkit
from mmpkit import toric


def test_star_import_binds_every_name_to_its_home_object():
    namespace = {}
    exec("from mmpkit import *", namespace)
    assert len(mmpkit.__all__) == len(set(mmpkit.__all__)) == 50
    assert set(mmpkit.__all__) <= set(namespace)
    for name in mmpkit.__all__:
        home = namespace[name].__module__
        assert home.startswith("mmpkit."), name
        assert namespace[name] is getattr(sys.modules[home], name), name


def test_dir_lists_the_public_names():
    listing = dir(mmpkit)
    assert "__all__" in listing and "__version__" in listing
    assert set(mmpkit.__all__) <= set(listing)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mmpkit.no_such_name
    with pytest.raises(ImportError):
        exec("from mmpkit import no_such_name", {})


def test_the_home_module_holds_the_only_binding(monkeypatch):
    # nothing is cached in the package, so patching the defining module is seen through it
    assert mmpkit.classify_cone is toric.classify_cone
    assert "classify_cone" not in vars(mmpkit)

    def replacement(cone):
        return None

    monkeypatch.setattr(toric, "classify_cone", replacement)
    assert mmpkit.classify_cone is replacement
