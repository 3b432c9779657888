"""Every function the perf ledger's tracer patches by name still exists.

``perf/trace.py`` wraps ~30 functions across the layers by module, owner
and attribute name (``_PATCHES``), the engine's search verbs
(``_SEARCHES``) and two pool methods it patches by hand.  A rename in
``src/`` breaks only traced ledger runs, and only at install time, so this
resolves each target exactly as ``Tracer._patch`` does — ``owner.__dict__``
for a class (a patch must land on the class that defines the function, not
on a subclass that inherits it), ``getattr`` for a module — and patches
nothing.
"""

from __future__ import annotations

import importlib

import pytest

from perf import trace


def _resolve(owner, attr: str):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _callable(target) -> bool:
    if isinstance(target, (classmethod, staticmethod)):
        target = target.__func__
    return callable(target)


@pytest.mark.parametrize(
    "module_name, owner_name, attr",
    [(m, o, a) for m, o, a, _name, _layer in trace._PATCHES],
    ids=[f"{o or m}.{a}" for m, o, a, _name, _layer in trace._PATCHES],
)
def test_patch_target_resolves(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    assert _callable(_resolve(owner, attr))


@pytest.mark.parametrize("attr", [attr for attr, _name in trace._SEARCHES])
def test_search_verb_resolves(attr):
    from repro.core.engine import PairwiseEngine

    assert _callable(_resolve(PairwiseEngine, attr))


@pytest.mark.parametrize("owner_name, attr",
                         [("WorkerPool", "gather"), ("ServeSession", "reap")])
def test_pool_hand_patch_resolves(owner_name, attr):
    from repro.serving import pool

    assert _callable(_resolve(getattr(pool, owner_name), attr))
