"""Bundled inputs.

`sample_snapshot` reads the paper's Table 1 sample (data/table1.tsv, CLI
preset table1) and `dynamics_events` its Table 2 arrival script
(data/table2_events.jsonl). `scale_pairs` builds a deterministic connected
graph of arbitrary size for throughput runs.
"""

from __future__ import annotations

import random
from pathlib import Path

from . import io
from .errors import ConfigInvalid, check_int
from .graph import AttributeSchema, Edge, GraphSnapshot, Pair, UpdateEvent


def bundled_path(name: str) -> Path:
    """Path of a file shipped with the package (data/ directory)."""
    path = Path(__file__).parent / "data" / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled file {name!r}")
    return path


def sample_snapshot() -> GraphSnapshot:
    """The 15-node, 28-edge, three-attribute sample as a version-0 snapshot."""
    return io.parse_edge_list(str(bundled_path("table1.tsv")))[0]


def dynamics_events() -> tuple[UpdateEvent, ...]:
    """The sample's two-phase arrival script. Phase 1 (tick 2500): node X
    arrives and wires to all of {6,7,8,9} with first-attribute weight 10,
    out-weighing every resident. Phase 2 (tick 3500): node Y arrives and
    wires to {6,7,8,9,X} with weight 20, while X's edges to 6 and 7 drop to
    weight 1. On the first-attribute view the {6..9} community's most active
    node goes X, then Y."""
    return tuple(io.parse_event_stream(str(bundled_path("table2_events.jsonl"))))


def assign_random_weights(
    snapshot: GraphSnapshot,
    arity: int = 1,
    low: int = 1,
    high: int = 5,
    seed: int = 0,
) -> GraphSnapshot:
    """Re-roll every edge's weights: `arity` uniform integers in [low, high].

    Attribute names become w1..wN. Draw order is sorted pair order, so a
    given seed always decorates a given graph the same way.
    """
    for name, v in (("arity", arity), ("low", low), ("high", high), ("seed", seed)):
        check_int(name, v)
    if arity < 1:
        raise ConfigInvalid(f"arity must be >= 1, got {arity}")
    if not 1 <= low <= high:
        raise ConfigInvalid(f"need 1 <= low <= high, got {low}..{high}")
    rng = random.Random(seed)
    schema = AttributeSchema(tuple(f"w{k + 1}" for k in range(arity)))
    edges = [
        Edge(a, b, tuple(rng.randint(low, high) for _ in range(arity)))
        for (a, b) in sorted(snapshot.edges)
    ]
    return GraphSnapshot.build(schema, edges, extra_nodes=snapshot.nodes)


def scale_pairs(nodes: int = 6301, edges: int = 20777, seed: int = 0) -> list[Pair]:
    """Deterministic connected graph: random spanning tree plus random extras.

    Node ids are 1..nodes; the result has exactly `edges` unique undirected
    pairs. Meant to be written as a bare two-column edge list and decorated
    with random weights afterwards.
    """
    for name, v in (("nodes", nodes), ("edges", edges), ("seed", seed)):
        check_int(name, v)
    if nodes < 2:
        raise ConfigInvalid(f"need at least 2 nodes, got {nodes}")
    if edges < nodes - 1:
        raise ConfigInvalid(f"{edges} edges cannot connect {nodes} nodes")
    if edges > nodes * (nodes - 1) // 2:
        raise ConfigInvalid(f"{edges} edges exceed the simple-graph maximum for {nodes} nodes")
    rng = random.Random(seed)
    pairs: list[Pair] = []
    seen: set[Pair] = set()
    for i in range(2, nodes + 1):  # attach each node to a random earlier one
        a = rng.randint(1, i - 1)
        key = (a, i)
        pairs.append(key)
        seen.add(key)
    while len(pairs) < edges:
        a = rng.randint(1, nodes)
        b = rng.randint(1, nodes)
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen:
            continue
        pairs.append(key)
        seen.add(key)
    return pairs
