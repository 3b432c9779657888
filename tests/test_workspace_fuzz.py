"""Fuzz: interleaved dense verbs on reused workspaces vs fresh replays.

The strongest correctness claim the workspace makes is *invisibility*: a
single engine answering an arbitrary interleaving of every dense verb —
``best_cost``, ``one_to_many``, ``best_path``, ``nearest``/``within``
expansion — over a long run and across several published epochs must be
bit-identical, in values AND search counters, to replaying each query on
an engine that rebuilds its state from scratch every call.  Any entry a
verb failed to sparse-reset would eventually surface here as a wrong
label, a phantom settled mark, or a perturbed counter.

The same interleaving also runs on tie-heavy weights — small integers and
dyadic rationals, whose sums are exact — where it must additionally match
the dict plane's replay in values, paths and counters: with most queue
priorities tied, any change in what order the dense loops read their data
in shows up as a different tie break.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import SGraphConfig
from repro.core.engine import PairwiseEngine
from repro.core.pruning import PruningPolicy
from repro.graph.dynamic_graph import DynamicGraph
from repro.sgraph import SGraph
from repro.streaming.versioning import VersionedStore

POLICIES = [
    PruningPolicy.NONE,
    PruningPolicy.UPPER_ONLY,
    PruningPolicy.UPPER_AND_LOWER,
]

N = 64

#: tie-heavy weight draws (seed graph and churn alike)
TIE_DRAWS = {
    "small-int": lambda rng: rng.choice((1.0, 1.0, 1.0, 2.0, 3.0)),
    "dyadic": lambda rng: rng.randrange(2, 25) / 8,
}


def _seed_graph(seed: int, draw) -> DynamicGraph:
    rng = random.Random(seed)
    g = DynamicGraph(directed=False)
    for v in range(N):
        g.add_vertex(v)
    added = 0
    while added < 170:
        u, v = rng.randrange(N), rng.randrange(N)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, draw(rng))
        added += 1
    return g


def _stats_tuple(stats):
    return (
        stats.activations,
        stats.pushes,
        stats.relaxations,
        stats.pruned_by_upper_bound,
        stats.pruned_by_lower_bound,
        stats.answered_by_index,
    )


def _random_verb(rng):
    """One (verb-name, args) draw from the five dense verbs."""
    roll = rng.random()
    s = rng.randrange(N)
    if roll < 0.35:
        return "best_cost", (s, rng.randrange(N))
    if roll < 0.55:
        k = rng.randrange(2, 9)
        return "one_to_many", (s, [rng.randrange(N) for _ in range(k)])
    if roll < 0.75:
        return "best_path", (s, rng.randrange(N))
    if roll < 0.88:
        return "nearest", (s, rng.randrange(1, 8))
    return "within", (s, rng.uniform(0.5, 4.0))


def _run_verb(engine: PairwiseEngine, verb: str, args):
    """Execute one verb, normalizing to (comparable-value, stats-or-None)."""
    if verb == "best_cost":
        value, stats = engine.best_cost(*args)
        return value, _stats_tuple(stats)
    if verb == "one_to_many":
        values, stats = engine.one_to_many(*args)
        return values, _stats_tuple(stats)
    if verb == "best_path":
        value, path, stats = engine.best_path(*args)
        return (value, path), _stats_tuple(stats)
    if verb == "nearest":
        return engine.expand(args[0], args[1], None), None
    assert verb == "within"
    return engine.expand(args[0], None, args[1]), None


def _interleave_and_replay(policy, rng, seed_draw, churn_draw,
                           dict_parity: bool = False) -> None:
    sg = SGraph(graph=_seed_graph(77, seed_draw), config=SGraphConfig(
        num_hubs=6, policy=policy, queries=("distance",), backend="dense",
    ))
    store = VersionedStore(sg, capacity=4)

    views = [store.publish()]
    for _round in range(2):
        # churn a few edges, then publish the next epoch
        for _ in range(6):
            u, v = rng.randrange(N), rng.randrange(N)
            if u == v:
                continue
            if sg.graph.has_edge(u, v) and rng.random() < 0.4:
                sg.remove_edge(u, v)
            else:
                sg.add_edge(u, v, churn_draw(rng))
        views.append(store.publish())
    assert len({v.epoch for v in views}) >= 3

    # Interleave verbs over all three epochs on the views' *reused* engines.
    trace = []
    for _step in range(240):
        view = rng.choice(views)
        verb, args = _random_verb(rng)
        result = _run_verb(view.engine("distance"), verb, args)
        trace.append((view, verb, args, result))

    # Every engine kept one workspace for the whole interleaving...
    for view in views:
        row = view.engine("distance").workspace_stats()
        assert row["workspace_allocs"] == 1
        assert view.engine("distance").workspace.is_clean()

    # ...and every recorded answer replays bit-identically on a fresh-state
    # reference engine (one per epoch, fresh O(V) arrays per query).
    references = {
        view.epoch: PairwiseEngine(
            view.engine("distance")._graph,
            index=view.engine("distance").index,
            policy=policy,
            dense=view.engine("distance").dense_plane,
            reuse_workspace=False,
        )
        for view in views
    }
    for view, verb, args, result in trace:
        assert _run_verb(references[view.epoch], verb, args) == result, (
            f"epoch {view.epoch}: {verb}{args} diverged from fresh replay"
        )
    if not dict_parity:
        return
    dict_engines = {
        view.epoch: PairwiseEngine(
            view.snapshot, index=view.engine("distance").index, policy=policy,
        )
        for view in views
    }
    for view, verb, args, result in trace:
        assert _run_verb(dict_engines[view.epoch], verb, args) == result, (
            f"epoch {view.epoch}: {verb}{args} diverged from the dict plane"
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_interleaved_verbs_across_epochs_match_fresh_replays(policy):
    _interleave_and_replay(
        policy, random.Random(1000 + POLICIES.index(policy)),
        seed_draw=lambda rng: rng.uniform(0.5, 3.0),
        churn_draw=lambda rng: rng.uniform(0.3, 2.5),
    )


@pytest.mark.parametrize("draw", sorted(TIE_DRAWS))
@pytest.mark.parametrize("policy", POLICIES)
def test_tied_weights_match_fresh_and_dict_replays(policy, draw):
    _interleave_and_replay(
        policy, random.Random(2000 + POLICIES.index(policy) + 10 * len(draw)),
        seed_draw=TIE_DRAWS[draw], churn_draw=TIE_DRAWS[draw],
        dict_parity=True,
    )
