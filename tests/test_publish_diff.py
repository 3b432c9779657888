"""What changed between two versions, as the publish path decides it.

A freeze re-reads only the vertices a hub tree touched and keeps a touched
vertex only if its cost differs from the previous frozen table, so a tree
whose churn cancelled out hands back the identical mapping, and the dense
rows derived from the freeze share the previous matrix.  Whatever way the
two frozen versions are related — layers over one base, a compaction
between them, a wholesale rebuild, a newer plane deriving an older
snapshot — the derived dense rows equal rows built from scratch.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.hub_index import DenseHubTables, HubIndex
from repro.graph.deltas import LayeredMapping
from repro.graph.generators import erdos_renyi_graph
from repro.streaming.update import EdgeUpdate
from tests.conftest import apply_and_notify


def _integer_graph(directed: bool, seed: int, n: int = 120, m: int = 360):
    """Integer weights: a repaired cost is the same float however the
    equal-length paths to it are summed."""
    graph = erdos_renyi_graph(n, m, seed=seed, directed=directed)
    rng = random.Random(seed)
    for s, d, _w in list(graph.edges()):
        graph.add_edge(s, d, float(rng.randint(1, 9)))
    return graph


def _tables(index: HubIndex, csr, prev=None):
    fwd, bwd = index.freeze()
    return DenseHubTables.derive(csr, index.hubs, fwd, bwd, prev=prev), fwd, bwd


def _assert_rows_fresh(derived: DenseHubTables, csr, hubs, fwd, bwd) -> None:
    fresh = DenseHubTables.derive(csr, hubs, fwd, bwd, prev=None)
    assert np.array_equal(derived.F, fresh.F)
    assert np.array_equal(derived.B, fresh.B)
    assert (derived.B is derived.F) == (fresh.B is fresh.F)


def _churn(graph, index, rng, steps: int) -> None:
    edges = list(graph.edges())
    for _ in range(steps):
        s, d, _w = rng.choice(edges)
        weight = float(rng.randint(1, 9))
        apply_and_notify(graph, EdgeUpdate.insert(s, d, weight), index)


@pytest.mark.parametrize("directed", [False, True])
def test_noop_round_trip_hands_back_the_identical_tables(directed):
    graph = _integer_graph(directed, seed=7)
    index = HubIndex.build(graph, num_hubs=4)
    hubs = index.hubs
    csr1 = graph.snapshot().to_csr()
    dense1, fwd1, bwd1 = _tables(index, csr1)
    # A tight edge whose deletion really moves some tree's costs.
    for s, d, w in sorted(graph.edges()):
        graph.remove_edge(s, d)
        index.notify_edge_deleted(s, d, w)
        moved = index.settled_last_update
        graph.add_edge(s, d, w)
        index.notify_edge_inserted(s, d, w)
        if moved:
            break
    else:
        pytest.fail("no edge of the graph is tight for any hub tree")
    csr2 = graph.snapshot().to_csr(reuse=csr1)
    assert csr2.same_id_space(csr1)
    dense2, fwd2, bwd2 = _tables(index, csr2, prev=dense1)
    for h in hubs:
        assert index.forward_tree(h).costs() == dict(fwd1[h])
        assert fwd2[h] is fwd1[h]
        if directed:
            assert index.backward_tree(h).costs() == dict(bwd1[h])
            assert bwd2[h] is bwd1[h]
    assert dense2.F is dense1.F
    assert dense2.B is dense1.B


@pytest.mark.parametrize("directed", [False, True])
def test_derived_rows_equal_fresh_rows(directed):
    rng = random.Random(11)
    graph = _integer_graph(directed, seed=3)
    index = HubIndex.build(graph, num_hubs=4)
    hubs = index.hubs
    csr1 = graph.snapshot().to_csr()
    dense1, fwd1, bwd1 = _tables(index, csr1)

    # A little churn: the freeze layers over the first tables.
    _churn(graph, index, rng, steps=3)
    csr2 = graph.snapshot().to_csr(reuse=csr1)
    dense2, fwd2, bwd2 = _tables(index, csr2, prev=dense1)
    _assert_rows_fresh(dense2, csr2, hubs, fwd2, bwd2)
    assert any(isinstance(fwd2[h], LayeredMapping) for h in hubs)

    # Heavy churn: more than max(64, |V|/4) touched vertices per tree
    # compacts the layers into fresh plain dicts.
    _churn(graph, index, rng, steps=400)
    csr3 = graph.snapshot().to_csr(reuse=csr2)
    dense3, fwd3, bwd3 = _tables(index, csr3, prev=dense2)
    _assert_rows_fresh(dense3, csr3, hubs, fwd3, bwd3)
    compacted = [h for h in hubs
                 if type(fwd3[h]) is dict and fwd3[h] is not fwd1[h]]
    assert compacted, "no hub table compacted"

    # A wholesale rebuild of one tree: its next freeze is a full copy.
    _churn(graph, index, rng, steps=3)
    index.forward_tree(hubs[0]).rebuild()
    csr4 = graph.snapshot().to_csr(reuse=csr3)
    dense4, fwd4, bwd4 = _tables(index, csr4, prev=dense3)
    _assert_rows_fresh(dense4, csr4, hubs, fwd4, bwd4)
    assert type(fwd4[hubs[0]]) is dict and fwd4[hubs[0]] is not fwd3[hubs[0]]

    # From the newest plane back to the oldest snapshot.
    assert csr1.same_id_space(csr4)
    back = DenseHubTables.derive(csr1, hubs, fwd1, bwd1, prev=dense4)
    _assert_rows_fresh(back, csr1, hubs, fwd1, bwd1)
    assert np.array_equal(back.F, dense1.F)
    assert np.array_equal(back.B, dense1.B)
