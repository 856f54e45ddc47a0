"""Seeded input generators for the benchmark workloads.

Everything here is plain Python with no import of the program under test:
the inputs are written as the edge-list TSV and event-stream JSONL formats
of docs/formats.md and reach the program only through its CLI.

Planted-partition graphs follow Condon & Karp (2001): fixed-size
communities, each a ring plus random chords (so every community is
connected), and sparse inter-community edges. Intra-community weights are
heavier than inter-community ones, so the planted partition scores far
above the one-cluster partition under the program's fitness.
"""

from __future__ import annotations

import json
import os
import random

ATTR = "msgs"


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def planted_graph(
    rng: random.Random,
    communities: int,
    size: int,
    chords: int,
    extra_inter: int,
    intra_w: tuple[int, int] = (3, 6),
    inter_w: tuple[int, int] = (1, 2),
) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
    """Planted-partition graph: (edge -> weight, node -> community).

    Each community is a ring plus `chords` random chords. Communities are
    linked in a chain, community c to c - 1 by one edge between random
    members (so the graph is connected), plus `extra_inter` random
    inter-community edges. Node ids 1..communities*size are shuffled before
    being dealt into communities, so id order says nothing about membership.

    The chain keeps the NMI of a GA run against the planted partition steady
    across seeds. On the planted-static graph (p_init 0.5, 20 iterations)
    that NMI spread 7% (interquartile range over median, seeds 1-8) with a
    random spanning tree plus 125 extra links, and under 1% with the chain.
    """
    ids = list(range(1, communities * size + 1))
    rng.shuffle(ids)
    edges: dict[tuple[int, int], int] = {}
    truth: dict[int, int] = {}
    blocks = []
    for c in range(communities):
        members = ids[c * size:(c + 1) * size]
        blocks.append(members)
        for node in members:
            truth[node] = c
        for i in range(size):
            edges[_pair(members[i], members[(i + 1) % size])] = rng.randint(*intra_w)
        added = 0
        while added < chords:
            key = _pair(*rng.sample(members, 2))
            if key not in edges:
                edges[key] = rng.randint(*intra_w)
                added += 1
    links = [(c, c - 1) for c in range(1, communities)]
    while len(links) < communities - 1 + extra_inter:
        links.append(tuple(rng.sample(range(communities), 2)))
    for ca, cb in links:
        while True:
            key = _pair(rng.choice(blocks[ca]), rng.choice(blocks[cb]))
            if key not in edges:
                edges[key] = rng.randint(*inter_w)
                break
    return edges, truth


def random_small_graph(rng: random.Random, n: int,
                       density: float = 0.5) -> dict[tuple[int, int], int]:
    """Connected random graph on nodes 1..n with round(density * n(n-1)/2)
    edges: a random spanning tree plus uniformly drawn extra pairs; weights
    uniform in 1..5. The edge count is fixed so the work does not vary with
    the seed."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges: dict[tuple[int, int], int] = {}
    for i in range(1, n):
        edges[_pair(order[i], rng.choice(order[:i]))] = rng.randint(1, 5)
    rest = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in edges]
    for key in rng.sample(rest, round(density * n * (n - 1) / 2) - (n - 1)):
        edges[key] = rng.randint(1, 5)
    return edges


def stream_events(
    rng: random.Random,
    edges: dict[tuple[int, int], int],
    truth: dict[int, int],
    batches: int,
    first_tick: int,
    gap: int,
    weight_batch: int = 5,
    structural_every: int = 5,
) -> tuple[list[dict], list[str]]:
    """Event batches at ticks first_tick + k*gap; (events, batch kinds).

    Most batches re-weight `weight_batch` existing edges to a positive value,
    which leaves every edge active in the view. Every `structural_every`-th
    batch is structural instead, cycling through: a node arrives and links
    to three members of one community; two edges are removed; two edges are
    zeroed by update_weight. `edges` and `truth` are updated in place to the
    state after the last event, so callers can score the final view.
    """
    members: dict[int, list[int]] = {}
    for node, c in truth.items():
        members.setdefault(c, []).append(node)
    for c in members:
        members[c].sort()
    degree: dict[int, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    next_id = max(truth) + 1
    structural = ("add_node", "remove_edge", "zero_weight")
    events: list[dict] = []
    kinds: list[str] = []

    def droppable() -> tuple[int, int]:
        # keep every node at degree >= 2 so no node is stranded
        while True:
            key = _sample_key(rng, edges)
            if degree[key[0]] > 2 and degree[key[1]] > 2:
                return key

    for k in range(batches):
        tick = first_tick + k * gap
        if k % structural_every == structural_every - 1:
            kind = structural[(k // structural_every) % len(structural)]
        else:
            kind = "weights"
        kinds.append(kind)
        if kind == "weights":
            for _ in range(weight_batch):
                a, b = _sample_key(rng, edges)
                value = rng.randint(1, 6)
                edges[(a, b)] = value
                events.append({"tick": tick, "kind": "update_weight", "a": a, "b": b,
                               "attr": ATTR, "value": value})
        elif kind == "add_node":
            node = next_id
            next_id += 1
            c = rng.randrange(len(members))
            events.append({"tick": tick, "kind": "add_node", "node": node})
            truth[node] = c
            degree[node] = 0
            for other in rng.sample(members[c], 3):
                w = rng.randint(3, 6)
                edges[_pair(node, other)] = w
                degree[node] += 1
                degree[other] += 1
                events.append({"tick": tick, "kind": "add_edge", "a": node, "b": other,
                               "weights": [w]})
            members[c].append(node)
        else:
            for _ in range(2):
                a, b = droppable()
                del edges[(a, b)]
                degree[a] -= 1
                degree[b] -= 1
                if kind == "remove_edge":
                    events.append({"tick": tick, "kind": "remove_edge", "a": a, "b": b})
                else:
                    events.append({"tick": tick, "kind": "update_weight", "a": a, "b": b,
                                   "attr": ATTR, "value": 0})
    return events, kinds


def _sample_key(rng: random.Random, edges: dict) -> tuple[int, int]:
    # dict order is insertion order, which is itself seeded, so this is
    # deterministic; rebuilding the key list per draw keeps it simple
    return list(edges)[rng.randrange(len(edges))]


def edge_list_text(edges: dict[tuple[int, int], int]) -> str:
    rows = [f"node_a\tnode_b\t{ATTR}"]
    rows += [f"{a}\t{b}\t{w}" for (a, b), w in sorted(edges.items())]
    return "\n".join(rows) + "\n"


def events_text(events: list[dict]) -> str:
    return "".join(json.dumps(e) + "\n" for e in events)


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ----------------------------------------------------------------- workloads
#
# Each builder writes its inputs into `out` and returns a manifest: the file
# names plus what the checker and the NMI need (truth, event batches).

STATIC = {"communities": 500, "size": 10, "chords": 28, "extra_inter": 0}
STREAM = {"communities": 100, "size": 10, "chords": 28, "extra_inter": 0}
STREAM_BATCHES = {"batches": 30, "first_tick": 3, "gap": 3}
SMALL_GRAPH_SIZES = (6, 7, 8, 9)


def build_planted_static(seed: int, out: str) -> dict:
    rng = random.Random(f"planted-static/{seed}")
    edges, truth = planted_graph(rng, **STATIC)
    write(os.path.join(out, "graph.tsv"), edge_list_text(edges))
    return {"graph": "graph.tsv", "truth": _truth_list(truth)}


def build_planted_stream(seed: int, out: str) -> dict:
    rng = random.Random(f"planted-stream/{seed}")
    edges, truth = planted_graph(rng, **STREAM)
    write(os.path.join(out, "graph.tsv"), edge_list_text(edges))
    events, kinds = stream_events(rng, edges, truth, **STREAM_BATCHES)
    write(os.path.join(out, "events.jsonl"), events_text(events))
    return {"graph": "graph.tsv", "truth": _truth_list(truth), "events": "events.jsonl",
            "batch_kinds": kinds}


def build_small_exact(seed: int, out: str) -> dict:
    rng = random.Random(f"small-exact/{seed}")
    graphs = []
    for i, n in enumerate(SMALL_GRAPH_SIZES):
        name = f"small{i}.tsv"
        write(os.path.join(out, name), edge_list_text(random_small_graph(rng, n)))
        graphs.append(name)
    return {"small_graphs": graphs}


def _truth_list(truth: dict[int, int]) -> list[list[int]]:
    return sorted([node, c] for node, c in truth.items())

