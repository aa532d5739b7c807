"""The package namespace: each public name is its submodule's object."""

import importlib

import pytest

import urnsir


def test_every_public_name_is_the_object_of_its_submodule():
    for name in urnsir.__all__:
        module = importlib.import_module(f"urnsir.{urnsir._MODULE_OF[name]}")
        assert getattr(urnsir, name) is getattr(module, name)
        assert name in vars(urnsir)  # cached after the first lookup


def test_table_lists_each_name_once_from_its_modules_all():
    listed = [name for names in urnsir._EXPORTS.values() for name in names]
    assert sorted(listed) == sorted(set(urnsir.__all__))
    for mod, names in urnsir._EXPORTS.items():
        module_all = importlib.import_module(f"urnsir.{mod}").__all__
        assert set(names) <= set(module_all), mod


def test_dir_lists_every_public_name():
    assert set(urnsir.__all__) <= set(dir(urnsir))
    assert {"__all__", "__version__"} <= set(dir(urnsir))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        urnsir.no_such_name
    assert not hasattr(urnsir, "cli_main")


def test_star_import_and_submodule_imports():
    namespace = {}
    exec("from urnsir import *", namespace)
    assert set(urnsir.__all__) <= set(namespace)
    from urnsir import gillespie, streams

    assert gillespie.simulate is urnsir.simulate
    assert streams.derive_rng is urnsir.derive_rng
    assert urnsir.rk4.rk4 is importlib.import_module("urnsir.rk4").rk4
