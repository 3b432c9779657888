"""Persistence: save and restore an :class:`~repro.SGraph` with its indexes.

Layout of a saved instance (a directory)::

    <dir>/graph.edges   # whitespace edge list (repro.graph.io format)
    <dir>/meta.json     # format version, config, hubs + verdict per family
    <dir>/tables.json   # per-family, per-hub cost tables

The format is plain text/JSON — no pickling — so saved instances are safe
to exchange.  Vertex ids must be integers (the edge-list format's
constraint); the loader verifies table shape against the graph and can
optionally re-verify table *contents* against a fresh rebuild.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.core.config import FAMILIES, SGraphConfig
from repro.core.hub_index import HubIndex
from repro.core.pruning import PruningPolicy
from repro.errors import ReproError
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.views import UnitWeightView
from repro.sgraph import SGraph

FORMAT_VERSION = 1


class PersistError(ReproError):
    """A save/load operation failed or the on-disk state is inconsistent."""


def _encode_table(table: Dict[int, float]) -> Dict[str, float]:
    return {str(v): c for v, c in table.items()}


def _decode_table(table: Dict[str, float]) -> Dict[int, float]:
    return {int(v): c for v, c in table.items()}


def save_sgraph(sg: SGraph, directory: Union[str, Path]) -> None:
    """Persist the graph, configuration, and every built index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for v in sg.graph.vertices():
        if not isinstance(v, int):
            raise PersistError(
                f"persistence requires integer vertex ids; found {v!r}"
            )
    write_edge_list(sg.graph, directory / "graph.edges")

    cfg = sg.config
    families: Dict[str, dict] = {}
    tables: Dict[str, dict] = {}
    for family in cfg.queries:
        try:
            index = sg.index_for(family)
        except ReproError:
            continue
        index.refresh()
        families[family] = {"hubs": index.hubs,
                            "large_diameter": index.large_diameter}
        fwd = {}
        bwd = {}
        for h in index.hubs:
            fwd_tree = index.forward_tree(h)
            fwd[str(h)] = _encode_table(fwd_tree.raw_cost_table())
            bwd_tree = index.backward_tree(h)
            if bwd_tree is not fwd_tree:
                bwd[str(h)] = _encode_table(bwd_tree.raw_cost_table())
        tables[family] = {"forward": fwd, "backward": bwd}

    meta = {
        "format_version": FORMAT_VERSION,
        "directed": sg.graph.directed,
        "config": {
            "num_hubs": cfg.num_hubs,
            "hub_strategy": cfg.hub_strategy,
            "policy": cfg.policy.value,
            "queries": list(cfg.queries),
            "seed": cfg.seed,
            "backend": cfg.backend,
        },
        "families": families,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    (directory / "tables.json").write_text(json.dumps(tables))


def load_sgraph(directory: Union[str, Path], verify: bool = False) -> SGraph:
    """Restore a saved instance.

    With ``verify=True`` every restored cost table is checked against a
    fresh rebuild (slow but airtight); otherwise only structural shape is
    validated.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise PersistError(f"{directory} does not contain a saved SGraph")
    meta = json.loads(meta_path.read_text())
    if meta.get("format_version") != FORMAT_VERSION:
        raise PersistError(
            f"unsupported format version {meta.get('format_version')!r}"
        )
    graph = read_edge_list(directory / "graph.edges")
    if graph.directed != meta["directed"]:
        raise PersistError("edge-list header disagrees with metadata")
    cfg_raw = meta["config"]
    config = SGraphConfig(
        num_hubs=cfg_raw["num_hubs"],
        hub_strategy=cfg_raw["hub_strategy"],
        policy=PruningPolicy.parse(cfg_raw["policy"]),
        queries=tuple(cfg_raw["queries"]),
        seed=cfg_raw["seed"],
        # Absent in saves made before the serving-plane split.
        backend=cfg_raw.get("backend", "auto"),
    )
    sg = SGraph(graph=graph, config=config)

    tables = json.loads((directory / "tables.json").read_text())
    indexes: Dict[str, HubIndex] = {}
    for family, info in meta["families"].items():
        hubs = info["hubs"]
        spec = FAMILIES[family]
        semiring = spec.semiring
        family_graph = UnitWeightView(graph) if spec.unit_weights else graph
        raw = tables.get(family)
        if raw is None:
            raise PersistError(f"tables.json missing family {family!r}")
        fwd = {int(h): _decode_table(t) for h, t in raw["forward"].items()}
        bwd = {int(h): _decode_table(t) for h, t in raw["backward"].items()}
        for h in hubs:
            if h not in fwd:
                raise PersistError(f"family {family!r} missing hub {h} table")
            if not graph.has_vertex(h):
                raise PersistError(f"hub {h} not present in restored graph")
        index = HubIndex.from_tables(
            family_graph, hubs, semiring, fwd,
            backward_tables=bwd if graph.directed else None,
            # Absent in saves made before the verdict was recorded: None
            # recomputes it from the restored graph.
            large_diameter=info.get("large_diameter"),
        )
        if verify:
            _verify_index(index, family_graph, hubs, semiring)
        indexes[family] = index
    if indexes:
        sg.adopt_indexes(indexes)
    # An empty save (no indexes were ever built, e.g. empty graph) restores
    # to a facade that will build lazily on first query.
    return sg


def _verify_index(index: HubIndex, graph, hubs, semiring) -> None:
    from repro.streaming.incremental_sssp import IncrementalBestPath

    for h in hubs:
        fresh = IncrementalBestPath(graph, h, semiring, direction="forward")
        if index.forward_tree(h).raw_cost_table() != fresh.costs():
            raise PersistError(f"restored forward table for hub {h} is stale")
        if graph.directed:
            fresh_b = IncrementalBestPath(graph, h, semiring,
                                          direction="backward")
            if index.backward_tree(h).raw_cost_table() != fresh_b.costs():
                raise PersistError(
                    f"restored backward table for hub {h} is stale"
                )
