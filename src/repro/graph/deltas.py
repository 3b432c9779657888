"""Version diffs and structurally shared mappings.

This module is the substrate for O(Δ) snapshots and publishes: instead of
copying a whole adjacency (or a whole hub cost table) every time a version is
frozen, the new version is *derived* from the previous one plus the keys that
actually changed.  It is also the one place that decides what changed
between two versions, on both sides of a publish:

* :class:`LayeredMapping` — an immutable mapping that shares an untouched
  ``base`` mapping with older versions and layers a small ``overrides`` dict
  (plus a ``deleted`` key set) on top.  Lookups stay O(1) because there are
  always exactly two levels: deriving version *n+1* from version *n* merges
  *n*'s override layer with the new changes rather than chaining.  When the
  accumulated override layer grows past a fraction of the base, the derive
  step compacts into a plain dict — so the per-derive cost is O(Δ) amortized
  and never degrades lookups.

* :func:`derive_touched` — the producer side.  A writer records the keys it
  touched since the last freeze in a plain set (the graph's dirty vertices,
  a hub tree's re-settled vertices) and hands them over with the live table;
  the new version takes each touched key's live value, and with
  ``drop_equal`` a key whose value came back to the previous version's is
  left out, so a tree with no net change hands back the identical mapping.

* :func:`changed_keys` — the consumer side.  Given two versions of one
  mapping, the keys whose value object differs: the union of their overlays
  when they share a base (O(Δ)), one C-speed identity scan otherwise.  The
  CSR derive and the dense hub-row derive both patch exactly these keys.

All of it is value-type agnostic: the graph layer stores per-vertex
adjacency dicts as values, the streaming layer stores float costs.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from operator import is_not
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set, Tuple


class _Tombstone:
    """Sentinel marking a deleted key in a change map."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<TOMBSTONE>"


#: change-map value meaning "this key was removed"
TOMBSTONE = _Tombstone()


#: an override lookup's miss (no stored value is this object)
_ABSENT = object()


class LayeredMapping(Mapping):
    """Immutable two-level mapping: shared ``base`` + per-version overlay.

    ``deleted`` must only contain keys present in ``base`` and must be
    disjoint from ``overrides`` — :func:`derive_mapping` maintains both
    invariants; construct through it rather than directly.
    """

    __slots__ = ("_base", "_overrides", "_deleted", "_len")

    def __init__(
        self,
        base: Mapping,
        overrides: Dict[Any, Any],
        deleted: Set[Any],
    ) -> None:
        self._base = base
        self._overrides = overrides
        self._deleted = deleted
        extra = sum(1 for k in overrides if k not in base)
        self._len = len(base) - len(deleted) + extra

    @property
    def base(self) -> Mapping:
        """The shared lower level (tests assert structural sharing on it)."""
        return self._base

    def __repr__(self) -> str:
        return (
            f"LayeredMapping(|base|={len(self._base)}, "
            f"overrides={len(self._overrides)}, deleted={len(self._deleted)})"
        )

    # -- mapping protocol ----------------------------------------------------

    def __getitem__(self, key):
        value = self._overrides.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        if key in self._deleted:
            raise KeyError(key)
        return self._base[key]

    def get(self, key, default=None):
        value = self._overrides.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        if key in self._deleted:
            return default
        return self._base.get(key, default)

    def __contains__(self, key) -> bool:
        if key in self._overrides:
            return True
        if key in self._deleted:
            return False
        return key in self._base

    def __iter__(self) -> Iterator:
        overrides = self._overrides
        deleted = self._deleted
        for key in self._base:
            if key not in deleted and key not in overrides:
                yield key
        yield from overrides

    def __len__(self) -> int:
        return self._len

    def flatten(self) -> dict:
        """Materialize into a plain dict (O(n); used by compaction)."""
        flat = dict(self._base)
        for key in self._deleted:
            del flat[key]
        flat.update(self._overrides)
        return flat


_NO_OVERRIDES: Dict[Any, Any] = {}
_NO_DELETIONS: frozenset = frozenset()


def _layers(mapping: Mapping) -> Tuple[Dict, Any, Mapping]:
    """``(overrides, deleted, base)`` of any mapping; a plain one is its own
    base under an empty overlay."""
    if isinstance(mapping, LayeredMapping):
        return mapping._overrides, mapping._deleted, mapping._base
    return _NO_OVERRIDES, _NO_DELETIONS, mapping


def derive_mapping(
    prev: Mapping,
    changes: Mapping,
    min_compact: int = 64,
    compact_ratio: int = 4,
) -> Mapping:
    """New immutable mapping = ``prev`` + ``changes``, sharing structure.

    ``changes`` maps keys to their new values, or to :data:`TOMBSTONE` for
    removals.  ``prev`` may be a plain dict or a previously derived
    :class:`LayeredMapping`; either way it is never mutated, so older
    versions holding it stay valid.  Cost is O(cumulative changes since the
    underlying base was last compacted), independent of ``len(prev)`` —
    except for the compaction itself, which runs when the overlay exceeds
    ``max(min_compact, len(base) // compact_ratio)`` keys and amortizes to
    O(Δ) per derive.
    """
    if not changes:
        return prev
    prev_overrides, prev_deleted, base = _layers(prev)
    overrides = dict(prev_overrides)
    deleted = set(prev_deleted)
    for key, value in changes.items():
        if value is TOMBSTONE:
            overrides.pop(key, None)
            if key in base:
                deleted.add(key)
        else:
            overrides[key] = value
            deleted.discard(key)
    layered = LayeredMapping(base, overrides, deleted)
    if len(overrides) + len(deleted) > max(min_compact,
                                           len(base) // compact_ratio):
        return layered.flatten()
    return layered


def derive_touched(
    prev: Mapping, live: Mapping, touched: Iterable, drop_equal: bool = False,
) -> Mapping:
    """``prev`` re-derived at the ``touched`` keys of ``live``.

    Each touched key takes its value in ``live``, or a tombstone where
    ``live`` no longer holds it.  With ``drop_equal`` a key whose value
    equals the one in ``prev`` (absent on both sides included) is left out,
    so a writer whose touches all returned to their old values hands back
    ``prev`` itself.  O(touched).
    """
    changes: Dict[Any, Any] = {}
    if drop_equal:
        overrides, deleted, base = _layers(prev)
        for key in touched:
            value = live.get(key, TOMBSTONE)
            old = overrides.get(key, TOMBSTONE)
            if old is TOMBSTONE and key not in deleted:
                old = base.get(key, TOMBSTONE)
            if value != old:
                changes[key] = value
    else:
        for key in touched:
            changes[key] = live.get(key, TOMBSTONE)
    return derive_mapping(prev, changes)


def changed_keys(prev: Mapping, new: Mapping, keys: Sequence) -> List:
    """The keys whose value *object* differs between two versions.

    A key held on one side only is listed too.  Versions are never
    mutated and share a value object until its key is touched, so identity
    is a sound (conservative) equality test.  Two layers over the identical
    base differ in at most the union of their overlays, whichever is newer:
    O(Δ), reading the overlay dicts directly.  Across a compaction (or
    between unrelated mappings) the bases differ, but ``flatten()`` kept the
    value objects, so one C-speed identity scan over ``keys`` finds the
    changes: O(|keys|), and a key outside ``keys`` is not looked at.
    """
    if prev is new:
        return []
    p_over, p_del, p_base = _layers(prev)
    n_over, n_del, n_base = _layers(new)
    if p_base is n_base:
        changed = []
        for key in {*p_over, *p_del, *n_over, *n_del}:
            old = p_over.get(key, TOMBSTONE)
            if old is TOMBSTONE and key not in p_del:
                old = p_base.get(key, TOMBSTONE)
            cur = n_over.get(key, TOMBSTONE)
            if cur is TOMBSTONE and key not in n_del:
                cur = n_base.get(key, TOMBSTONE)
            if old is not cur:
                changed.append(key)
        return changed
    old_of = (prev.flatten() if isinstance(prev, LayeredMapping) else prev).get
    new_of = (new.flatten() if isinstance(new, LayeredMapping) else new).get
    return list(compress(keys, map(is_not, map(old_of, keys), map(new_of, keys))))
