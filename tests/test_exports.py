"""Every module of the package imports, and every name in its __all__ exists."""

import importlib
import pkgutil

import eaqc


def test_every_public_name_resolves():
    names = ["eaqc"] + [m.name for m in pkgutil.iter_modules(eaqc.__path__, "eaqc.")]
    assert "eaqc.clifford" in names and "eaqc.cli" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing
