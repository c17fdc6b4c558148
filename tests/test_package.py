"""The package namespace: every public name resolves to its defining module,
and every layer to its module, loaded when first named."""

import json
import subprocess
import sys
from pathlib import Path

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


# reads one layer through the package in a fresh interpreter, then prints the
# mmpkit modules that were loaded and the names the package then holds
FRESH_LAYER_READ = """
import json, sys
import mmpkit
layer = mmpkit.toric
try:
    mmpkit.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
loaded = sorted(n for n in sys.modules if n.startswith("mmpkit"))
held = sorted(set(vars(mmpkit)) & {"toric", *mmpkit.__all__})
print(json.dumps({"same": layer is sys.modules["mmpkit.toric"], "loaded": loaded, "held": held, "missing": missing}))
"""


def test_a_layer_read_loads_that_layer_alone_and_binds_it():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_LAYER_READ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["same"] is True
    # errors and linalg come in as toric's own imports, not through the package
    assert result["loaded"] == ["mmpkit", "mmpkit.errors", "mmpkit.linalg", "mmpkit.toric"]
    # the layer is bound on the package, so later reads skip the hook; no public name is
    assert result["held"] == ["toric"]
    assert "no_such_name" in result["missing"]
