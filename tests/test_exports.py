"""The public names of each layer and of the package."""

import importlib
import types

import pytest

import hardycover

LAYERS = ("groups", "covering", "induction", "cyclic", "hardy", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    mod = importlib.import_module(f"hardycover.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_re_exports_only_layer_names():
    exported = set().union(*(importlib.import_module(f"hardycover.{layer}").__all__ for layer in LAYERS))
    names = [name for name in hardycover.__all__ if not isinstance(getattr(hardycover, name), types.ModuleType)]
    assert [name for name in names if name not in exported] == []
    for name in names:
        layer = importlib.import_module(getattr(hardycover, name).__module__)
        assert getattr(layer, name) is getattr(hardycover, name)
