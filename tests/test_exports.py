import importlib
import inspect
import pkgutil
import sys

import jointkern

# every module but __main__, which runs the CLI on import
MODULES = [importlib.import_module(f"jointkern.{m.name}")
           for m in pkgutil.iter_modules(jointkern.__path__) if m.name != "__main__"]


def test_every_exported_name_resolves():
    assert len(MODULES) > 10
    for mod in [jointkern] + MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_every_module_declares_its_public_names():
    for mod in MODULES:
        assert isinstance(mod.__all__, list), mod.__name__


def test_package_namespace_is_the_modules_lists_joined():
    # the CLI stays out of the package namespace; jointkern.weighted is the
    # function, so the modules are read from sys.modules
    library = [m for m in MODULES if m.__name__ != "jointkern.cli"]
    names = [n for m in library for n in m.__all__]
    assert sorted(jointkern.__all__) == sorted(names)
    assert len(set(jointkern.__all__)) == len(jointkern.__all__)
    for mod in library:
        for name in mod.__all__:
            assert getattr(jointkern, name) is getattr(mod, name), f"{mod.__name__}.{name}"
    assert "main" not in jointkern.__all__
    assert jointkern.weighted is sys.modules["jointkern.weighted"].weighted


def test_every_public_function_is_declared():
    missing = [f"{mod.__name__}.{name}" for mod in MODULES
               for name, obj in vars(mod).items()
               if inspect.isfunction(obj) and obj.__module__ == mod.__name__
               and not name.startswith("_") and name not in getattr(mod, "__all__", ())]
    assert not missing
