import importlib
import pkgutil

import jointkern


def test_every_exported_name_resolves():
    # the package's __all__ and each submodule's, where it defines one;
    # __main__ runs the CLI on import
    modules = [jointkern] + [importlib.import_module(f"jointkern.{m.name}")
                             for m in pkgutil.iter_modules(jointkern.__path__)
                             if m.name != "__main__"]
    assert len(modules) > 10
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
