"""Epoch-scoped search workspaces: sparse reset, reuse, failure isolation.

Three contracts under test.  The dense loops append an id to the
workspace's journal before the first write of its label, so the journals
enumerate exactly the touched workspace entries.  :class:`SearchWorkspace`
restores pristine state in O(touched) after every verb — including verbs
that raise mid-search — which the O(V) ``is_clean()`` audit checks
directly.  And the engine binds one workspace per plane, so steady-state
queries perform zero O(V) allocations while answering bit-identically to a
fresh-state engine.
"""

from __future__ import annotations

import contextlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.pruning import PruningPolicy
from repro.core.workspace import SearchWorkspace
from repro.errors import ConfigError, QueryError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import grid_graph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

POLICIES = [
    PruningPolicy.NONE,
    PruningPolicy.UPPER_ONLY,
    PruningPolicy.UPPER_AND_LOWER,
]


def _random_graph(seed: int, directed: bool = False, n: int = 70,
                  m: int = 200) -> DynamicGraph:
    rng = random.Random(seed)
    g = DynamicGraph(directed=directed)
    for v in range(n):
        g.add_vertex(v)
    added = 0
    while added < m:
        u, v = rng.randrange(n - 3), rng.randrange(n - 3)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, rng.uniform(0.5, 3.0))
        added += 1
    return g


def _dense_engine(seed: int, policy: PruningPolicy,
                  workspace: SearchWorkspace = None,
                  reuse_workspace: bool = True):
    """A dense-served engine (and its plane) over a random graph."""
    sg = SGraph(graph=_random_graph(seed), config=SGraphConfig(
        num_hubs=6, policy=policy, queries=("distance",), backend="dense",
    ))
    sg._ensure_indexes()
    base = sg._frozen_engine("distance")
    plane = base.dense_plane
    engine = PairwiseEngine(
        base._graph, index=base.index, policy=policy, dense=plane,
        workspace=workspace, reuse_workspace=reuse_workspace,
    )
    return engine, plane


def _stats_tuple(stats):
    return (
        stats.activations,
        stats.pushes,
        stats.relaxations,
        stats.pruned_by_upper_bound,
        stats.pruned_by_lower_bound,
        stats.answered_by_index,
    )


class TestSearchWorkspace:
    def test_first_acquire_is_not_a_hit(self):
        ws = SearchWorkspace()
        assert ws.acquire(10) is False
        ws.release()
        assert ws.acquire(10) is True
        ws.release()
        assert ws.allocations == 1
        assert ws.hits == 1
        assert ws.resets == 2

    def test_resize_reallocates_once(self):
        ws = SearchWorkspace(10)
        assert ws.acquire(10) is False
        ws.release()
        assert ws.acquire(25) is False   # plane grew: rebuild
        ws.release()
        assert ws.acquire(25) is True    # same size: reuse
        ws.release()
        assert ws.allocations == 2
        assert len(ws.g_f) == 25 and len(ws.settled_b) == 25

    def test_release_resets_exactly_the_touched_entries(self):
        ws = SearchWorkspace(100)
        ws.acquire(100)
        for v in (3, 17, 42):
            ws.journal_f.append(v)
            ws.g_f[v] = float(v)
            ws.heap_f.append((float(v), v))
            ws.settled_f[v] = 1
        ws.heap_f.append((1.0, 17))  # a superseding entry: no new journal id
        ws.journal_b.append(99)
        ws.g_b[99] = 0.5
        ws.heap_b.append((0.5, 99))
        touched = ws.release()
        assert touched == 4
        assert ws.touched_reset == 4
        assert ws.is_clean()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_journals_name_exactly_the_written_ids(self, policy):
        """The sparse-reset invariant, observed on real searches: at release
        time each journal names every id whose label, settled mark or
        parent entry was written — exactly those, each once."""
        audited = []

        class AuditingWorkspace(SearchWorkspace):
            def release(self):
                for journal, g, settled, parent in (
                    (self.journal_f, self.g_f, self.settled_f, self.parent_f),
                    (self.journal_b, self.g_b, self.settled_b, self.parent_b),
                ):
                    written = [
                        v for v in range(self.num_vertices)
                        if g[v] != math.inf or settled[v] or parent[v] != -1
                    ]
                    assert sorted(journal) == written
                    audited.append(len(journal))
                return super().release()

        engine, _plane = _dense_engine(47, policy,
                                       workspace=AuditingWorkspace())
        rng = random.Random(11)
        for _ in range(12):
            s, t = rng.sample(range(60), 2)
            engine.best_cost(s, t)
            engine.best_path(s, t)
        engine.one_to_many(0, list(range(1, 30)))
        engine.expand(0, 10, None)
        engine.expand(5, None, 2.5)
        # searches ran (some pairs may be closed by the index before
        # acquiring), and decrease-keys happened without double-journaling
        assert len(audited) >= 6 and max(audited) > 10
        assert engine.workspace.is_clean()

    def test_release_covers_lazy_parent_and_slot_arrays(self):
        # Parents are allocated with the labels (every pairwise search
        # records them); only the one-to-many slot map is lazy.
        ws = SearchWorkspace(50)
        assert len(ws.parent_f) == len(ws.parent_b) == 50
        assert ws.slot is None
        ws.acquire(50)
        slot = ws.ensure_slot()
        ws.journal_f.append(7)
        ws.g_f[7] = 1.0
        ws.parent_f[7] = 3
        ws.journal_b.append(9)
        ws.parent_b[9] = 4
        slot[7] = 0
        ws.release()
        assert ws.parent_f[7] == -1 and ws.parent_b[9] == -1
        slot[7] = -1  # the verb resets slot itself (journal doesn't cover it)
        assert ws.is_clean()
        # a leaked parent entry is caught by the audit
        ws.parent_b[9] = 4
        assert not ws.is_clean()
        ws.parent_b[9] = -1
        # the lazy slot map persists across acquires — allocated once
        parent_f = ws.parent_f
        ws.acquire(50)
        assert ws.slot is slot and ws.parent_f is parent_f
        ws.release()

    def test_stats_row_shape(self):
        ws = SearchWorkspace(5)
        row = ws.stats_row()
        assert row == {
            "workspace_vertices": 5,
            "workspace_allocs": 1,
            "workspace_hits": 0,
            "workspace_resets": 0,
            "touched_reset": 0,
        }


class TestEngineSteadyState:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_allocation_many_queries(self, policy):
        engine, plane = _dense_engine(40, policy)
        rng = random.Random(7)
        n = 60
        for _ in range(30):
            s, t = rng.randrange(n), rng.randrange(n)
            engine.best_cost(s, t)
        row = engine.workspace_stats()
        assert row["workspace_allocs"] == 1
        # every acquire after the first was a reuse hit, and every search
        # that acquired also released
        assert row["workspace_hits"] == row["workspace_resets"] - 1
        assert engine.workspace.is_clean()

    def test_all_verbs_share_one_workspace(self):
        engine, plane = _dense_engine(41, PruningPolicy.UPPER_AND_LOWER)
        engine.best_cost(0, 33)
        engine.one_to_many(0, list(range(1, 20)))
        engine.best_path(2, 44)
        engine.expand(0, 5, None)
        engine.expand(0, None, 2.5)
        row = engine.workspace_stats()
        assert row["workspace_allocs"] == 1
        assert engine.workspace.is_clean()

    def test_reuse_disabled_never_binds(self):
        engine, _plane = _dense_engine(42, PruningPolicy.NONE,
                                       reuse_workspace=False)
        engine.best_cost(0, 33)
        engine.best_cost(0, 33)
        assert engine.workspace is None
        assert engine.workspace_stats()["workspace_allocs"] == 0


class _ExplodingWeights(list):
    """The CSR weight view, raising on its N-th element read.

    The dense loops call no Python-level method a test could patch — the
    queue is ``heapq`` on a plain list — so the fault is injected through
    the data they read: ``weights[k]`` sits in the middle of a relaxation,
    after labels, journal and heap already hold earlier writes.
    """

    def __init__(self, weights, reads_left: int) -> None:
        super().__init__(weights)
        self.reads_left = reads_left

    def __getitem__(self, k):
        if self.reads_left <= 0:
            raise RuntimeError("injected mid-search failure")
        self.reads_left -= 1
        return super().__getitem__(k)


@contextlib.contextmanager
def _weights_that_raise(monkeypatch, csr, after: int):
    """Swap both of ``csr``'s weight views for exploding copies."""
    with monkeypatch.context() as patch:
        for attr in ("out_views", "in_views"):
            views = getattr(csr, attr)
            patch.setattr(csr, attr, (
                views[0], views[1], _ExplodingWeights(views[2], after),
            ))
        yield


class TestFailureIsolation:
    """Satellite: a failed verb can never poison the next query."""

    def test_validation_happens_before_acquire(self):
        engine, _plane = _dense_engine(43, PruningPolicy.UPPER_AND_LOWER)
        engine.best_cost(0, 33)  # bind the workspace
        before = dict(engine.workspace_stats())
        with pytest.raises(QueryError):
            engine.best_cost(0, 10_000)       # absent endpoint
        with pytest.raises(ConfigError):
            engine.best_cost(0, 33, tolerance=-0.5)
        with pytest.raises(QueryError):
            engine.one_to_many(0, [1, 10_000])
        with pytest.raises(QueryError):
            engine.expand(10_000, 5, None)
        # none of the rejected calls acquired (or reset) the workspace
        assert dict(engine.workspace_stats()) == before
        assert engine.workspace.is_clean()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_exception_mid_search_leaves_next_query_bit_identical(
        self, monkeypatch, policy
    ):
        engine, plane = _dense_engine(44, policy)
        # Find a pair the index cannot close, so the search actually pops.
        probe_rng = random.Random(3)
        while True:
            ps, pt = probe_rng.randrange(60), probe_rng.randrange(60)
            if ps == pt:
                continue
            _value, probe_stats = engine.best_cost(ps, pt)
            if probe_stats.activations >= 4:
                break
        with _weights_that_raise(monkeypatch, plane.csr, after=6):
            with pytest.raises(RuntimeError, match="injected"):
                engine.best_cost(ps, pt)

        assert not engine.workspace.in_use
        assert engine.workspace.is_clean()
        fresh, _ = _dense_engine(44, policy)
        for s, t in [(ps, pt), (1, 50), (5, 60), (12, 3)]:
            value, stats = engine.best_cost(s, t)
            ref_value, ref_stats = fresh.best_cost(s, t)
            assert value == ref_value
            assert _stats_tuple(stats) == _stats_tuple(ref_stats)

    def test_exception_mid_one_to_many_resets_slot_map(self, monkeypatch):
        engine, plane = _dense_engine(45, PruningPolicy.NONE)
        targets = list(range(1, 25))
        engine.one_to_many(0, targets)  # bind + allocate the slot map
        with _weights_that_raise(monkeypatch, plane.csr, after=6):
            with pytest.raises(RuntimeError, match="injected"):
                engine.one_to_many(0, targets)

        assert engine.workspace.is_clean()  # covers the slot map too
        fresh, _ = _dense_engine(45, PruningPolicy.NONE)
        values, stats = engine.one_to_many(0, targets)
        ref_values, ref_stats = fresh.one_to_many(0, targets)
        assert values == ref_values
        assert _stats_tuple(stats) == _stats_tuple(ref_stats)


class TestHubTableColumns:
    """DenseHubTables' per-endpoint columns."""

    def _tables(self, seed: int = 46):
        _engine, plane = _dense_engine(seed, PruningPolicy.UPPER_AND_LOWER)
        return plane.tables

    def test_columns_match_direct_extraction(self):
        tables = self._tables()
        for v in (0, 7, 33):
            fwd, bwd = tables.columns_for(v)
            assert fwd == [row[v] for row in tables.fwd_views]
            assert bwd == [row[v] for row in tables.bwd_views]


class TestFirstQueryOfEpoch:
    """The first dense query after a publish reads the frozen plane in place.

    Publishing derives the new epoch's CSR and hub matrices in O(Δ); if the
    first query then copied the plane into Python objects (per-row lists,
    a stacked matrix) it would allocate at least one ``(k, |V|)`` float64
    matrix's worth, so the tracemalloc peak of that query stays under it.
    """

    def test_first_query_allocates_less_than_one_hub_matrix(self):
        side, k = 64, 16
        sg = SGraph(graph=grid_graph(side, side, seed=7), config=SGraphConfig(
            num_hubs=k, queries=("distance",), backend="dense",
        ))
        store = VersionedStore(sg)
        # Near-corner pair: the corners themselves are hubs on a grid, so
        # the index alone would close a corner-to-corner query.
        s, t = 2 * side + 3, side * side - 2 * side - 4
        store.publish().distance(s, t)  # epoch e builds its plane
        sg.add_edge(side + 1, 2 * side + 2, 0.5)
        view = store.publish()
        plane = view.dense_plane()  # the O(Δ) derive, outside the trace
        tracemalloc.start()
        try:
            result = view.distance(s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.activations > 0  # the search loop really ran
        n = plane.csr.num_vertices
        assert n == side * side
        assert peak < k * n * 8
        tables = plane.tables
        assert tables.F.shape == (k, n) and tables.B is tables.F
        for j in range(k):
            assert np.shares_memory(tables.fwd_rows[j], tables.F)
            assert tables.fwd_views[j].obj is tables.fwd_rows[j]

    def test_batched_verb_does_no_whole_graph_bound_work(self):
        # The batched verb prunes with the pairwise kernel's hub probes, so
        # its bound work is O(k) per target: a per-target O(k·|V|) residual
        # row would alone outgrow the budget below.
        side, k = 64, 16
        g = grid_graph(side, side, seed=7)
        sg = SGraph(graph=g, config=SGraphConfig(
            num_hubs=k, queries=("distance",), backend="dense",
        ))
        view = VersionedStore(sg).publish()
        plane = view.dense_plane()
        s = 2 * side + 3
        targets = [r * side + c for r in (20, 40, 60) for c in (5, 30, 55)]
        tracemalloc.start()
        try:
            result = view.distance_many_result(s, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.activations > 0
        assert result.stats.pruned_by_lower_bound > 0
        n = plane.csr.num_vertices
        assert peak < k * n * 8
        ref = SGraph(graph=g, config=SGraphConfig(
            num_hubs=k, queries=("distance",), backend="dict",
        )).distance_many_result(s, targets)
        assert result.values == ref.values
        assert _stats_tuple(result.stats) == _stats_tuple(ref.stats)
