import importlib
import pkgutil

import tvcalc


def test_every_exported_name_resolves():
    # a deleted class or function must not stay behind in an __all__
    modules = [tvcalc] + [importlib.import_module(f"tvcalc.{info.name}")
                          for info in pkgutil.iter_modules(tvcalc.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 7
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
