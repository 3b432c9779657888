"""Public-API surface guards.

Cheap tests that catch packaging-level regressions: every advertised name
resolves, every public module documents itself, and the version marker is
consistent.
"""

from __future__ import annotations

import importlib
import inspect
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
                             "repro.baselines"):
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                assert getattr(package, name, None) is not None, (
                    f"{package_name}.{name}"
                )

    def test_error_hierarchy_reachable_from_top(self):
        from repro import ReproError
        from repro.errors import ConfigError

        assert issubclass(ConfigError, ReproError)


def _params(fn) -> set:
    return set(inspect.signature(fn).parameters) - {"self"}


class TestServingOptions:
    """The serving surface takes only the options a caller sets; every
    other knob is a module constant.  An option comes back only with an
    edit here."""

    def test_serve_and_session(self):
        from repro.serving.pool import ServeSession

        surface = {"workers", "transport", "chunk", "delta",
                   "transport_options"}
        assert _params(repro.SGraph.serve) == surface
        assert _params(ServeSession.__init__) == surface | {"sgraph"}

    def test_tcp_transport_and_reader(self):
        from repro.serving.net import NetReader, NetTransport

        # with serve()'s four: 10 settable values
        assert _params(NetTransport.__init__) == {
            "host", "port", "cache_planes", "delta", "retry", "max_backoff",
            "advertise"}
        assert _params(NetReader.__init__) == {
            "address", "cache_planes", "delta", "retry", "max_backoff",
            "degrade"}

    def test_batched_verbs_pool_and_store(self):
        from repro.serving.pool import ServeSession, WorkerPool
        from repro.streaming.versioning import VersionedStore

        assert _params(ServeSession.distance_many) == {
            "source", "targets", "timeout"}
        assert _params(ServeSession.map_distance) == {"pairs", "timeout"}
        assert _params(VersionedStore.subscribe) == {"callback"}
        assert _params(WorkerPool.__init__) == {
            "ctx", "workers", "transport", "policy_value"}
