"""Input generators: deterministic in the seed, and what they promise."""

from perf import inputs
from perf.oracle import Mirror


def _grid(seed, side=12):
    edges = inputs.grid_edges(inputs.stream(seed, "grid"), side)
    return edges, inputs.adjacency(side * side, edges)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in (
        lambda s: inputs.grid_edges(inputs.stream(s, "g"), 16),
        lambda s: inputs.power_law_edges(inputs.stream(s, "p"), 300, 4),
    ):
        assert make(5) == make(5)
        assert make(5) != make(6)
    edges, adj = _grid(1)
    pool = inputs.largest_component(adj)
    for make in (
        lambda s: inputs.far_pairs(inputs.stream(s, "q"), adj, pool, 50),
        lambda s: inputs.sliding_window(
            *inputs.sliding_log(inputs.stream(s, "log"), 144, edges, 40), 60),
        lambda s: inputs.reweights(inputs.stream(s, "r"), edges, 40),
        lambda s: inputs.slack_raises(inputs.stream(s, "s"), adj,
                                      [(u, v) for u, v, _w in edges], 40),
    ):
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_streams_are_independent_per_purpose():
    a = inputs.stream(1, "x").random()
    assert a == inputs.stream(1, "x").random()
    assert a != inputs.stream(1, "y").random()
    assert a != inputs.stream(2, "x").random()


def test_digest_is_stable_and_sensitive():
    assert inputs.digest("w", 1, [(0, 1, 2.0)]) == inputs.digest("w", 1, [(0, 1, 2.0)])
    assert inputs.digest("w", 1, [(0, 1, 2.0)]) != inputs.digest("w", 1, [(0, 1, 2.5)])


def test_weights_are_dyadic_so_sums_are_exact():
    edges, _adj = _grid(2)
    assert all((w * 128.0).is_integer() for _u, _v, w in edges)
    weights = [w for _u, _v, w in edges]
    assert sum(weights) == sum(reversed(weights))


def test_far_pairs_are_two_hops_apart_with_distinct_sources():
    _edges, adj = _grid(3)
    pool = inputs.largest_component(adj)
    pairs = inputs.far_pairs(inputs.stream(3, "q"), adj, pool, 100)
    assert len(pairs) == 100
    assert all(s != t and t not in adj[s] for s, t in pairs)
    assert len({s for s, _t in pairs}) == 100


def test_sliding_window_keeps_edge_count_and_never_repeats():
    edges = inputs.power_law_edges(inputs.stream(4, "p"), 200, 3)
    live = {(min(u, v), max(u, v)) for u, v, _w in edges}
    size = len(live)
    fresh, ages = inputs.sliding_log(inputs.stream(4, "log"), 200, edges, 170)
    assert sorted(ages) == sorted(edges) and ages != list(edges)
    seen_inserts = set()
    for i, update in enumerate(inputs.sliding_window(fresh, ages, 300)):
        key = (min(update[1], update[2]), max(update[1], update[2]))
        if update[0] == "+":
            assert key not in live and key not in seen_inserts
            seen_inserts.add(key)
            live.add(key)
        else:
            assert key in live
            live.remove(key)
        if i % 2 == 1:
            assert len(live) == size


def test_reweights_always_change_the_weight():
    edges, _adj = _grid(5)
    current = {(u, v): w for u, v, w in edges}
    for _k, u, v, w in inputs.reweights(inputs.stream(5, "r"), edges, 200):
        assert current[(u, v)] != w
        current[(u, v)] = w


def test_raising_a_slack_edge_changes_no_distance():
    edges, adj = _grid(6, side=10)
    raises = inputs.slack_raises(inputs.stream(6, "s"), adj,
                                 [(u, v) for u, v, _w in edges], 25)
    mirror = Mirror(100, edges)
    before = [mirror.dijkstra(s) for s in (0, 37, 99)]
    for update in raises:
        assert update[3] > adj[update[1]][update[2]]
        mirror.apply(update)
    assert [mirror.dijkstra(s) for s in (0, 37, 99)] == before


def test_grid_window_stays_inside_its_block():
    edges, _adj = _grid(7, side=20)
    window = inputs.grid_window(inputs.stream(7, "w"), 20, edges, 5)
    rows = {u // 20 for u, _v in window}
    cols = {u % 20 for u, _v in window}
    assert window and max(rows) - min(rows) < 5 and max(cols) - min(cols) < 5
