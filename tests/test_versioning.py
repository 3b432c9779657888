"""VersionedStore / FrozenView tests."""

from __future__ import annotations

import math

import pytest

from repro.core.config import SGraphConfig
from repro.core.pairwise import ManyQueryResult, PairwiseVerbs
from repro.errors import ConfigError, SnapshotError
from repro.graph.generators import erdos_renyi_graph, power_law_graph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore
from tests.conftest import reference_dijkstra


@pytest.fixture
def sg():
    graph = power_law_graph(200, 3, seed=5, weight_range=(1.0, 4.0))
    instance = SGraph(
        graph=graph,
        config=SGraphConfig(num_hubs=4, queries=("distance", "hops")),
    )
    instance.rebuild_indexes()
    return instance


class TestPublish:
    def test_view_identity(self, sg):
        store = VersionedStore(sg)
        view = store.publish(label="v1")
        assert view.epoch == sg.epoch
        assert view.label == "v1"
        assert view.num_vertices == sg.num_vertices
        assert "FrozenView" in repr(view)

    def test_same_epoch_dedup(self, sg):
        store = VersionedStore(sg)
        assert store.publish() is store.publish()
        assert len(store) == 1

    def test_capacity_eviction(self, sg):
        store = VersionedStore(sg, capacity=2)
        first = store.publish()
        sg.add_edge(0, 199, 1.0)
        store.publish()
        sg.add_edge(1, 198, 1.0)
        store.publish()
        assert len(store) == 2
        assert first.epoch not in store.epochs()
        with pytest.raises(SnapshotError):
            store.view_at(first.epoch)

    def test_invalid_capacity(self, sg):
        with pytest.raises(ConfigError):
            VersionedStore(sg, capacity=0)

    def test_latest_requires_publish(self, sg):
        store = VersionedStore(sg)
        with pytest.raises(SnapshotError):
            store.latest()
        view = store.publish()
        assert store.latest() is view


class TestIsolation:
    def test_old_view_unaffected_by_churn(self, sg):
        store = VersionedStore(sg)
        verts = sorted(sg.graph.vertices())
        s, t = verts[0], verts[50]
        before = sg.distance(s, t).value
        view = store.publish()
        # Heavy churn after publication.
        sg.add_edge(s, t, 0.5)
        for v in verts[1:20]:
            sg.discard_edge(s, v)
        assert sg.distance(s, t).value == 0.5
        assert view.distance(s, t).value == pytest.approx(before)

    def test_view_matches_oracle_at_publication(self, sg):
        store = VersionedStore(sg)
        frozen_graph = sg.graph.copy()
        view = store.publish()
        sg.add_edge(0, 100, 0.1)  # post-publication change
        verts = sorted(frozen_graph.vertices())
        ref = reference_dijkstra(frozen_graph, verts[0])
        for t in verts[1:20]:
            assert view.distance(verts[0], t).value == pytest.approx(
                ref.get(t, math.inf)
            )

    def test_hops_and_reachable_on_view(self, sg):
        store = VersionedStore(sg)
        view = store.publish()
        verts = sorted(sg.graph.vertices())
        r = view.hop_distance(verts[0], verts[10])
        assert r.epoch == view.epoch
        assert view.reachable(verts[0], verts[10]).value in (0.0, 1.0)

    def test_unconfigured_family_raises(self, sg):
        store = VersionedStore(sg)
        view = store.publish()
        with pytest.raises(ConfigError):
            view.bottleneck(0, 1)

    def test_directed_views(self):
        graph = erdos_renyi_graph(60, 240, seed=7, directed=True,
                                  weight_range=(1.0, 4.0))
        sg = SGraph(graph=graph, config=SGraphConfig(num_hubs=3))
        sg.rebuild_indexes()
        store = VersionedStore(sg)
        view = store.publish()
        verts = sorted(graph.vertices())
        before = [view.distance(verts[0], t).value for t in verts[1:10]]
        for s, d, _w in list(graph.edges())[:30]:
            sg.discard_edge(s, d)
        after = [view.distance(verts[0], t).value for t in verts[1:10]]
        assert before == after


class TestMultiVersionHistory:
    def test_time_travel_sequence(self, sg):
        store = VersionedStore(sg, capacity=8)
        verts = sorted(sg.graph.vertices())
        s, t = verts[0], verts[60]
        history = []
        for step in range(4):
            view = store.publish(label=f"step{step}")
            history.append((view, sg.distance(s, t).value))
            sg.add_edge(s, verts[60 - step], 0.5 + step)
        for view, expected in history:
            assert view.distance(s, t).value == pytest.approx(expected), (
                view.label
            )
        assert store.epochs() == sorted(store.epochs())


# -- one verb surface -----------------------------------------------------------

ALL_FAMILIES = ("distance", "hops", "capacity", "reliability")


def _verb_calls(pairs, far):
    """(verb, args) for every verb, over ``pairs``; ``far`` seeds budgets."""
    calls = {verb: [] for verb in (
        "distance", "hop_distance", "bottleneck", "reliability",
        "shortest_path", "widest_path", "reachable", "within_distance",
        "capacity_at_least", "reliability_at_least", "distance_many",
        "distance_many_result", "nearest", "within")}
    for s, t in pairs:
        for verb in ("distance", "hop_distance", "bottleneck", "reliability",
                     "shortest_path", "widest_path", "reachable"):
            calls[verb].append((s, t))
        calls["distance"].append((s, t, 0.25))
        for budget in (0.5 * far, far, 2.0 * far):
            calls["within_distance"].append((s, t, budget))
        for budget in (0.05, 0.3, 0.9):
            calls["capacity_at_least"].append((s, t, budget))
            calls["reliability_at_least"].append((s, t, budget ** 3))
    targets = [t for _s, t in pairs]
    for s, _t in pairs[:3]:
        calls["distance_many"].append((s, targets))
        calls["distance_many_result"].append((s, targets))
        calls["nearest"].append((s, 7))
        calls["within"].append((s, far))
    return calls


def _answer(out):
    """Everything an answer says: values, path, epoch and the six search
    counters (workspace counters depend on which engine ran before)."""
    if isinstance(out, (dict, list)):
        return out
    stats = out.stats
    counters = (stats.activations, stats.pushes, stats.relaxations,
                stats.pruned_by_upper_bound, stats.pruned_by_lower_bound,
                stats.answered_by_index)
    if isinstance(out, ManyQueryResult):
        return out.kind, out.source, out.values, out.epoch, counters
    return (out.kind, out.source, out.target, out.value, out.path,
            out.epoch, counters)


class TestOneVerbSurface:
    """``SGraph`` and a ``FrozenView`` of its current epoch answer every
    verb identically, whichever plane serves each side."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("backend", ["dict", "dense", "auto"])
    def test_every_verb_matches_the_live_facade(self, backend, directed):
        graph = erdos_renyi_graph(48, 150, seed=11 + directed,
                                  directed=directed, weight_range=(0.05, 1.0))
        sg = SGraph(graph=graph, config=SGraphConfig(
            num_hubs=4, queries=ALL_FAMILIES, backend=backend))
        store = VersionedStore(sg)
        store.publish().distance(0, 1)
        sg.add_edge(0, 47, 0.5)
        sg.discard_edge(*next(iter(graph.edges()))[:2])
        view = store.publish()
        assert view.epoch == sg.epoch
        pairs = [(0, 47), (3, 3), (5, 20), (9, 41), (30, 2), (44, 13)]
        calls = _verb_calls(pairs, far=sg.distance(5, 20).value)
        public = {name for name in vars(PairwiseVerbs)
                  if not name.startswith("_")}
        assert set(calls) == public
        for verb, arg_lists in calls.items():
            for args in arg_lists:
                live = getattr(sg, verb)(*args)
                assert _answer(getattr(view, verb)(*args)) == _answer(live), (
                    verb, args)

    def test_unconfigured_family_raises_on_both(self):
        sg = SGraph(graph=erdos_renyi_graph(30, 80, seed=2,
                                            weight_range=(0.1, 1.0)),
                    config=SGraphConfig(num_hubs=3))
        view = VersionedStore(sg).publish()
        for verb in ("hop_distance", "bottleneck", "reliability",
                     "widest_path"):
            for side in (sg, view):
                with pytest.raises(ConfigError):
                    getattr(side, verb)(0, 1)
        for verb in ("capacity_at_least", "reliability_at_least"):
            for side in (sg, view):
                with pytest.raises(ConfigError):
                    getattr(side, verb)(0, 1, 0.5)

    def test_reachable_uses_the_first_configured_family(self, monkeypatch):
        sg = SGraph(graph=erdos_renyi_graph(30, 80, seed=3,
                                            weight_range=(0.1, 1.0)),
                    config=SGraphConfig(num_hubs=3,
                                        queries=("reliability", "distance")))
        view = VersionedStore(sg).publish()
        asked = []
        for side in (sg, view):
            def spy(family, engine=side._engine):
                asked.append(family)
                return engine(family)

            monkeypatch.setattr(side, "_engine", spy)
        assert (_answer(sg.reachable(0, 29))
                == _answer(view.reachable(0, 29)))
        assert asked == ["reliability", "reliability"]
