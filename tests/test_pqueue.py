"""IndexedHeap unit + property tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.pqueue import IndexedHeap


class TestBasics:
    def test_empty(self):
        h = IndexedHeap()
        assert len(h) == 0
        assert not h
        assert 3 not in h

    def test_push_pop_single(self):
        h = IndexedHeap()
        assert h.push(7, 1.5)
        assert 7 in h
        assert h.priority(7) == 1.5
        assert h.pop() == (7, 1.5)
        assert not h

    def test_pop_order(self):
        h = IndexedHeap()
        for key, pri in [(1, 3.0), (2, 1.0), (3, 2.0)]:
            h.push(key, pri)
        assert [h.pop()[0] for _ in range(3)] == [2, 3, 1]

    def test_decrease_key(self):
        h = IndexedHeap()
        h.push(1, 5.0)
        h.push(2, 3.0)
        assert h.push(1, 1.0)  # decrease
        assert h.priority(1) == 1.0
        assert h.pop() == (1, 1.0)

    def test_increase_ignored(self):
        h = IndexedHeap()
        h.push(1, 1.0)
        assert not h.push(1, 5.0)
        assert h.priority(1) == 1.0
        assert len(h) == 1

    def test_equal_priority_ignored(self):
        h = IndexedHeap()
        h.push(1, 1.0)
        assert not h.push(1, 1.0)

    def test_peek_does_not_remove(self):
        h = IndexedHeap()
        h.push(5, 2.0)
        assert h.peek() == (5, 2.0)
        assert len(h) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedHeap().pop()

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedHeap().peek()

    def test_remove_present(self):
        h = IndexedHeap()
        for i in range(10):
            h.push(i, float(10 - i))
        assert h.remove(5)
        assert 5 not in h
        popped = [h.pop()[0] for _ in range(len(h))]
        assert 5 not in popped
        assert popped == sorted(popped, key=lambda k: 10 - k)

    def test_remove_absent(self):
        h = IndexedHeap()
        h.push(1, 1.0)
        assert not h.remove(2)
        assert len(h) == 1

    def test_remove_last_element(self):
        h = IndexedHeap()
        h.push(1, 1.0)
        assert h.remove(1)
        assert not h

    def test_clear(self):
        h = IndexedHeap()
        for i in range(5):
            h.push(i, float(i))
        h.clear()
        assert not h
        h.push(1, 1.0)
        assert h.pop() == (1, 1.0)

    def test_clear_retains_backing_storage(self):
        """clear() empties in place — the backing entry list and priority
        dict survive, so external references to a reused heap stay valid."""
        h = IndexedHeap()
        backing_heap, backing_best = h._heap, h._best
        for i in range(100):
            h.push(i, float(i))
        h.clear()
        assert not h
        assert h._heap is backing_heap
        assert h._best is backing_best
        assert backing_heap == [] and backing_best == {}
        for round_ in range(3):
            for i in range(50):
                h.push(i, float((i * 7 + round_) % 50))
            drained = [h.pop()[1] for _ in range(len(h))]
            assert drained == sorted(drained)
            h.clear()
            assert h._heap is backing_heap and h._best is backing_best

    def test_clear_after_partial_drain(self):
        """clear() mid-drain leaves a fully consistent empty heap: stale
        positions are gone and every key can be re-pushed as new."""
        h = IndexedHeap()
        for i in range(20):
            h.push(i, float(i))
        for _ in range(7):  # partial drain, then abandon the search
            h.pop()
        h.remove(15)
        h.clear()
        assert len(h) == 0
        assert 3 not in h and 15 not in h
        assert h.priority(8) is None
        # Every key — popped, removed, or abandoned — re-inserts as new.
        for i in range(20):
            assert h.push(i, float(20 - i))
        assert [h.pop()[0] for _ in range(20)] == list(range(19, -1, -1))

    def test_iter_yields_all(self):
        h = IndexedHeap()
        for i in range(6):
            h.push(i, float(i % 3))
        assert sorted(key for _p, key in h) == list(range(6))

    def test_priority_absent_is_none(self):
        assert IndexedHeap().priority(4) is None


class TestLazyDeletion:
    """What the heapq backing must not let show through."""

    def test_equal_priorities_pop_in_key_order(self):
        h = IndexedHeap()
        for key in (5, 2, 9, 0, 7):
            h.push(key, 1.0)
        h.push(3, 0.5)
        assert [h.pop()[0] for _ in range(6)] == [3, 0, 2, 5, 7, 9]

    def test_len_counts_live_keys_not_stored_entries(self):
        h = IndexedHeap()
        h.push(1, 9.0)
        h.push(2, 8.0)
        for pri in (7.0, 5.0, 3.0):     # three decrease-keys of one key
            assert h.push(1, pri)
        assert len(h._heap) == 5        # superseded entries are still stored
        assert len(h) == 2 and 1 in h and 2 in h
        assert sorted(h) == [(3.0, 1), (8.0, 2)]
        assert h.remove(2)
        assert len(h) == 1 and bool(h)
        assert h.pop() == (1, 3.0)
        assert len(h) == 0 and not h

    def test_peek_never_returns_a_superseded_entry(self):
        h = IndexedHeap()
        h.push(1, 2.0)
        h.push(2, 5.0)
        h.push(3, 4.0)
        h.remove(1)                     # the stored minimum is now stale
        assert h.peek() == (3, 4.0)
        h.push(2, 1.0)
        assert h.peek() == (2, 1.0)
        assert h.pop() == (2, 1.0)
        assert h.peek() == (3, 4.0)     # not key 2's old (5.0, 2) entry
        assert h.pop() == (3, 4.0)
        with pytest.raises(IndexError):
            h.peek()

    def test_repush_after_pop_with_equal_priority_stale_twin_buried(self):
        h = IndexedHeap()
        h.push(1, 5.0)
        h.push(1, 3.0)                  # (5.0, 1) is superseded, stays buried
        h.push(2, 9.0)
        assert h.pop() == (1, 3.0)
        assert 1 not in h
        assert h.push(1, 5.0)           # a live twin of the buried stale entry
        assert h.priority(1) == 5.0 and len(h) == 2
        assert h.pop() == (1, 5.0)      # key 1 pops once …
        assert 1 not in h and len(h) == 1
        assert h.pop() == (2, 9.0)      # … its twin never resurfaces as live
        assert not h
        with pytest.raises(IndexError):
            h.pop()

    def test_backing_list_empties_with_the_last_live_key(self):
        """Stale entries cannot accumulate across reuse: whichever way the
        last live key leaves, the stored entries leave with it."""
        h = IndexedHeap()
        for round_ in range(3):
            for key in range(10):
                h.push(key, 100.0 - round_)
                h.push(key, float(key))         # one stale entry per key
            assert len(h._heap) == 20
            if round_ == 1:
                for key in range(10):
                    h.remove(key)
            else:
                assert [h.pop()[0] for _ in range(10)] == list(range(10))
            assert h._heap == [] and h._best == {}


class TestAgainstHeapq:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(0, 100, allow_nan=False)),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pop_sequence_matches_best_known(self, ops):
        """Popping drains keys in nondecreasing final-priority order, and
        each key's popped priority equals the minimum it was pushed with."""
        h = IndexedHeap()
        best = {}
        for key, pri in ops:
            h.push(key, pri)
            if key not in best or pri < best[key]:
                best[key] = pri
        popped = []
        while h:
            popped.append(h.pop())
        assert {k for k, _ in popped} == set(best)
        priorities = [p for _, p in popped]
        assert priorities == sorted(priorities)
        for key, pri in popped:
            assert pri == best[key]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_push_pop_remove(self, seed):
        rng = random.Random(seed)
        h = IndexedHeap()
        shadow = {}
        for _ in range(300):
            action = rng.random()
            if action < 0.6 or not shadow:
                key = rng.randrange(40)
                pri = rng.uniform(0, 50)
                changed = h.push(key, pri)
                if key not in shadow or pri < shadow[key]:
                    assert changed
                    shadow[key] = pri
                else:
                    assert not changed
            elif action < 0.8:
                key, pri = h.pop()
                assert pri == shadow[key]
                assert shadow[key] == min(shadow.values())
                del shadow[key]
            else:
                key = rng.randrange(40)
                assert h.remove(key) == (key in shadow)
                shadow.pop(key, None)
            assert len(h) == len(shadow)
