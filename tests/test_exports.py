import importlib
import pkgutil

import pytest

import flatobs

MODULES = sorted(info.name for info in pkgutil.iter_modules(flatobs.__path__))


def test_every_module_is_listed():
    assert {"cli", "hodgeci", "idealcalc", "obstruct", "polyring"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # `from flatobs.<module> import *` fails on a name deleted from the module
    # but left in __all__; nothing else imports every listed name
    module = importlib.import_module(f"flatobs.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"duplicate names in flatobs.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"flatobs.{name}.__all__ lists undefined names {missing}"
