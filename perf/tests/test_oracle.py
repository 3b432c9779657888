"""The oracle is only worth something if it is right and if it can say no."""

import random

from perf import inputs
from perf.oracle import INF, Mirror, replay


def _random_graph(seed, n=60, m=110):
    rng = random.Random(seed)
    edges = {}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges[(min(u, v), max(u, v))] = rng.randrange(1, 40) / 8.0
    return n, [(u, v, w) for (u, v), w in edges.items()]


def test_bidirectional_distance_equals_plain_dijkstra():
    for seed in range(8):
        n, edges = _random_graph(seed)
        mirror = Mirror(n, edges)
        rng = random.Random(seed)
        for _ in range(60):
            s, t = rng.randrange(n), rng.randrange(n)
            assert mirror.distance(s, t) == mirror.dijkstra(s).get(t, INF)


def test_unreachable_is_infinite():
    mirror = Mirror(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert mirror.distance(0, 3) == INF
    assert mirror.distance(2, 2) == 0.0


def test_path_cost_walks_edges():
    mirror = Mirror(3, [(0, 1, 1.5), (1, 2, 2.25)])
    assert mirror.path_cost([0, 1, 2]) == 3.75
    assert mirror.path_cost([0, 2]) == INF


def _ops_and_truth():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 5.0)]
    ops = [
        ("distance", 0, 3),
        ("update", ("+", 0, 3, 2.0)),
        ("distance", 0, 3),
        ("round", (("-", 1, 2),), (0, 2)),
        ("path", 0, 2),
        ("many", 0, (1, 2, 3)),
        ("nearest", 0, 2),
    ]
    answers = [
        (3.0, 10),
        None,
        (2.0, 12),
        ((3.0, 13), ()),
        ((3.0, (0, 3, 2)), 13),
        (((1, 1.0), (2, 3.0), (3, 2.0)), 13),
        (((1, 1.0), (3, 2.0)), 13),
    ]
    return edges, ops, answers


def test_replay_accepts_right_answers():
    edges, ops, answers = _ops_and_truth()
    assert replay(4, edges, ops, answers, reads_published=False) == []


def test_replay_rejects_a_wrong_value():
    edges, ops, answers = _ops_and_truth()
    answers[2] = (3.0, 12)                  # the value from before the update
    errors = replay(4, edges, ops, answers, reads_published=False)
    assert [i for i, _e in errors] == [2]


def test_replay_rejects_a_stale_epoch_even_if_the_value_matches():
    edges, ops, answers = _ops_and_truth()
    answers[4] = ((3.0, (0, 3, 2)), 12)     # right cost, but stamped epoch 12
    errors = replay(4, edges, ops, answers, reads_published=False)
    assert [i for i, _e in errors] == [4]


def test_replay_rejects_a_path_that_does_not_exist():
    edges, ops, answers = _ops_and_truth()
    answers[4] = ((3.0, (0, 1, 2)), 13)     # edge 1-2 was deleted
    errors = replay(4, edges, ops, answers, reads_published=False)
    assert [i for i, _e in errors] == [4]


def test_published_reads_do_not_see_unpublished_updates():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
    ops = [
        ("distance", 0, 2),
        ("update", ("+", 0, 2, 1.0)),
        ("distance", 0, 2),                 # still the published state
        ("round", (), (0, 2)),              # publishes the single update
        ("distance", 0, 2),
    ]
    answers = [(2.0, 1), None, (2.0, 1), ((1.0, 3), ()), (1.0, 3)]
    assert replay(3, edges, ops, answers, reads_published=True) == []
    answers[2] = (1.0, 1)
    assert [i for i, _e in replay(3, edges, ops, answers, True)] == [2]


def test_stale_probe_must_match_the_old_state():
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    ops = [("distance", 0, 2), ("round", (("+", 0, 2, 0.5),), (0, 2))]
    good = [(2.0, 1), ((0.5, 2), ((2.0, 1),))]
    assert replay(3, edges, ops, good, reads_published=True) == []
    bad = [(2.0, 1), ((0.5, 2), ((0.5, 1),))]
    assert [i for i, _e in replay(3, edges, ops, bad, True)] == [1]


def test_noop_update_starts_no_new_state():
    edges = [(0, 1, 1.0)]
    ops = [("distance", 0, 1), ("update", ("+", 0, 1, 1.0)), ("distance", 0, 1)]
    answers = [(1.0, 4), None, (1.0, 4)]
    assert replay(2, edges, ops, answers, reads_published=False) == []


def test_oracle_agrees_with_generated_grid():
    edges = inputs.grid_edges(inputs.stream(1, "g"), 8)
    mirror = Mirror(64, edges)
    full = mirror.dijkstra(0)
    assert len(full) == 64
    assert all(mirror.distance(0, t) == full[t] for t in range(0, 64, 7))
