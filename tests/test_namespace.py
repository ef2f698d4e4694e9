"""The package namespace: ``import kunzcone`` loads no submodule, and the
first use of a public name loads the submodule that defines it and binds
all of that submodule's names in the package."""

import importlib
import types

import pytest

import kunzcone
from test_cli import fresh_python

# the exports that are neither functions nor classes, so carry no __module__
CONSTANTS = {"APERY": "semigroup", "KUNZ": "semigroup", "SUITES": "sweeps"}


def home(name):
    """The submodule that defines ``name``, found without the package's own table."""
    if name in CONSTANTS:
        return CONSTANTS[name]
    return getattr(kunzcone, name).__module__.removeprefix("kunzcone.")


HOMES = {name: home(name) for name in kunzcone.__all__}


@pytest.fixture
def unbound(monkeypatch):
    """The package with no public name bound yet (each is restored afterwards)."""
    for name in kunzcone.__all__:
        monkeypatch.delitem(vars(kunzcone), name, raising=False)
    return kunzcone


def test_all_is_the_sorted_public_names():
    assert len(kunzcone.__all__) == 56
    assert kunzcone.__all__ == sorted(kunzcone.__all__)
    assert not {"arithmetic", "cone", "errors", "gluing", "linalg", "poset", "semigroup",
                "sweeps", "cli"} & set(kunzcone.__all__)


@pytest.mark.parametrize("name", kunzcone.__all__)
def test_name_is_its_submodules_object(name):
    module = importlib.import_module(f"kunzcone.{HOMES[name]}")
    assert getattr(kunzcone, name) is getattr(module, name)


@pytest.mark.parametrize("name", kunzcone.__all__)
def test_first_use_binds_its_whole_submodule(unbound, name):
    value = getattr(unbound, name)
    bound = {n for n in unbound.__all__ if n in vars(unbound)}
    assert bound == {n for n, h in HOMES.items() if h == HOMES[name]}
    assert vars(unbound)[name] is value


def test_dir_lists_every_public_name(unbound):
    listed = dir(unbound)
    assert set(unbound.__all__) <= set(listed)
    assert listed == sorted(listed)
    assert "__version__" in listed


def test_unknown_name_raises_the_default_error():
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("kunzcone").no_such_name
    with pytest.raises(AttributeError) as got:
        kunzcone.no_such_name
    assert str(got.value) == str(plain.value) == "module 'kunzcone' has no attribute 'no_such_name'"
    assert not hasattr(kunzcone, "_no_such_private_name")


def test_star_import_binds_every_name(unbound):
    namespace = {}
    exec("from kunzcone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == unbound.__all__
    assert all(namespace[n] is getattr(importlib.import_module(f"kunzcone.{h}"), n)
               for n, h in HOMES.items())


def test_import_loads_no_layer_and_a_face_loads_five():
    # a fresh interpreter, -S: no site hooks; the face layers are cone and what it imports
    script = """if True:
        import sys
        import kunzcone
        def loaded():
            return sorted(m for m in sys.modules if m.startswith("kunzcone."))
        print(loaded())
        kunzcone.face_of
        print(loaded())
    """
    assert fresh_python("-S", "-c", script) == (0, (
        "[]\n['kunzcone.cone', 'kunzcone.errors', 'kunzcone.linalg', 'kunzcone.poset', "
        "'kunzcone.semigroup']\n"), "")
