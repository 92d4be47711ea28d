"""Executable-documentation tests.

The package docstring's quickstart runs as a test so the documentation
can never silently rot.
"""

from __future__ import annotations

import doctest


def test_package_quickstart_doctest():
    import repro

    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_every_public_module_has_docstring():
    import importlib
    import pkgutil

    import repro

    missing = []
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        mod = importlib.import_module(modinfo.name)
        if not (mod.__doc__ or "").strip():
            missing.append(modinfo.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_callable_in_all_has_docstring():
    import importlib
    import pkgutil

    import repro

    undocumented = []
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        mod = importlib.import_module(modinfo.name)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name, None)
            if callable(obj) and not (getattr(obj, "__doc__", "") or "").strip():
                undocumented.append(f"{modinfo.name}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"
