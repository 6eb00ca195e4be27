"""The package namespace and the library modules' ``__all__`` agree."""

import types

import qlsplit
from qlsplit import diagnostics, model, spectral, splitting, stability

LIBRARY_MODULES = (diagnostics, model, spectral, splitting, stability)


def test_every_module_export_is_reexported():
    for module in LIBRARY_MODULES:
        missing = [name for name in module.__all__ if not hasattr(qlsplit, name)]
        assert not missing, f"{module.__name__} exports {missing} not in qlsplit"
        for name in module.__all__:
            assert getattr(qlsplit, name) is getattr(module, name)


def test_every_public_name_comes_from_a_module_export():
    exported = {name for module in LIBRARY_MODULES for name in module.__all__}
    public = {
        name
        for name, value in vars(qlsplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - exported == set()
