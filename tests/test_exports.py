"""The package's export table: every public name and submodule loads on first use."""

import importlib

import ptscatter


def test_every_public_name_resolves_through_the_lazy_table():
    """Each name of ``__all__`` comes from the submodule the table names, by
    way of the module ``__getattr__``, and ``dir`` lists it."""
    listed = dir(ptscatter)
    assert len(set(ptscatter.__all__)) == sum(len(names) for names in ptscatter._EXPORTS.values())
    for name in ptscatter.__all__:
        module = importlib.import_module(f"ptscatter.{ptscatter._ORIGIN[name]}")
        assert ptscatter.__getattr__(name) is getattr(module, name), name
        assert getattr(ptscatter, name) is getattr(module, name), name
        assert name in listed, name
    for name in ptscatter._MODULES:
        assert ptscatter.__getattr__(name) is importlib.import_module(f"ptscatter.{name}"), name
        assert name in listed, name
