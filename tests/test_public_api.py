"""Public-API surface guards.

Cheap tests that catch packaging-level regressions: every advertised name
resolves, every public module documents itself, and the version marker is
consistent.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_facade_is_exported(self):
        assert repro.SGraph is not None
        assert repro.SGraphConfig is not None


class TestSubpackages:
    def test_all_modules_importable_and_documented(self):
        packages = ["repro"]
        seen = []
        while packages:
            package_name = packages.pop()
            package = importlib.import_module(package_name)
            assert package.__doc__, f"{package_name} lacks a docstring"
            seen.append(package_name)
            if not hasattr(package, "__path__"):
                continue
            for info in pkgutil.iter_modules(package.__path__):
                child = f"{package_name}.{info.name}"
                module = importlib.import_module(child)
                assert module.__doc__, f"{child} lacks a docstring"
                seen.append(child)
                if info.ispkg:
                    packages.append(child)
        # Sanity: the walk actually covered the library.
        assert len(seen) > 30

    def test_subpackage_all_exports_resolve(self):
        for package_name in ("repro.core", "repro.graph", "repro.streaming",
                             "repro.baselines", "repro.utils"):
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                assert getattr(package, name, None) is not None, (
                    f"{package_name}.{name}"
                )

    def test_error_hierarchy_reachable_from_top(self):
        from repro import ReproError
        from repro.errors import ConfigError

        assert issubclass(ConfigError, ReproError)
