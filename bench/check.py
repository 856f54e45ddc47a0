"""Output checker, written apart from the program under test.

Nothing here imports noaga. The checker reads the program's output files
and recomputes what they claim from the inputs alone: the view (by replaying
the event stream onto its own edge dict), each fitness total from the
formula, cluster coverage and connectivity, every Node of Attraction, the
checkpoint invariants and the evaluation accounting. `nmi` scores a
partition against known communities (Danon et al. 2005).

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
from collections import Counter

REL_TOL = 1e-9

Pair = tuple[int, int]


# ---------------------------------------------------------------- inputs


def read_edge_list(path: str) -> tuple[tuple[str, ...], dict[Pair, tuple[int, ...]]]:
    """Headered TSV -> (attribute names, pair -> weight vector)."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]
    header, body = rows[0], rows[1:]
    attrs = tuple(header[2:])
    edges = {}
    for row in body:
        a, b = int(row[0]), int(row[1])
        edges[(min(a, b), max(a, b))] = tuple(int(w) for w in row[2:])
    return attrs, edges


def read_events(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_jsonl(path: str) -> tuple[dict, list[dict]]:
    """Header-line JSONL log -> (header, records)."""
    with open(path, encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh if line.strip()]
    return objs[0]["header"], objs[1:]


class Graph:
    """The checker's own graph state: node set plus pair -> weight vector."""

    def __init__(self, attrs: tuple[str, ...], edges: dict[Pair, tuple[int, ...]]):
        self.attrs = attrs
        self.edges = dict(edges)
        self.nodes = {n for pair in edges for n in pair}

    def apply(self, ev: dict) -> None:
        """Apply one event (integer node labels only)."""
        kind = ev["kind"]
        if kind == "add_node":
            self.nodes.add(int(ev["node"]))
            return
        a, b = int(ev["a"]), int(ev["b"])
        key = (min(a, b), max(a, b))
        if kind == "add_edge":
            self.edges[key] = tuple(ev["weights"])
        elif kind == "remove_edge":
            del self.edges[key]
        elif kind == "update_weight":
            vec = list(self.edges[key])
            vec[self.attrs.index(ev["attr"])] = int(ev["value"])
            if any(vec):
                self.edges[key] = tuple(vec)
            else:
                del self.edges[key]
        else:
            raise ValueError(f"unknown event kind {kind!r}")


class View:
    """Projection of a Graph onto some attributes, summed.

    Active nodes: endpoints of edges with positive aggregate, plus nodes
    with no edge at all in the graph.
    """

    def __init__(self, graph: Graph, attrs: tuple[str, ...]):
        ix = [graph.attrs.index(a) for a in attrs]
        self.weights: dict[Pair, int] = {}
        touched = set()
        for pair, vec in graph.edges.items():
            touched.update(pair)
            w = sum(vec[i] for i in ix)
            if w > 0:
                self.weights[pair] = w
        active = {n for pair in self.weights for n in pair}
        self.nodes = active | (graph.nodes - touched)
        self.adj: dict[int, list[tuple[int, int]]] = {n: [] for n in self.nodes}
        for (a, b), w in self.weights.items():
            self.adj[a].append((b, w))
            self.adj[b].append((a, w))
        self.total_weight = sum(self.weights.values())


def views_by_tick(graph: Graph, events: list[dict], attrs: tuple[str, ...],
                  ticks) -> dict[int, View]:
    """View after every event with tick <= t, for each requested t."""
    out = {}
    i = 0
    for t in sorted(set(ticks)):
        while i < len(events) and events[i]["tick"] <= t:
            graph.apply(events[i])
            i += 1
        out[t] = View(graph, attrs)
    return out


# ----------------------------------------------------------- recomputation


def parts_within(cluster, view: View) -> list[int]:
    """Sizes of the connected parts of a cluster, using intra edges only."""
    inside = set(cluster)
    seen: set[int] = set()
    sizes = []
    for start in cluster:
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            node = stack.pop()
            size += 1
            for other, _ in view.adj[node]:
                if other in inside and other not in seen:
                    seen.add(other)
                    stack.append(other)
        sizes.append(size)
    return sizes


def fitness(clusters, view: View, lambda_cut=2.5, mu_small=0.5, sigma_small=2) -> dict:
    """Recompute the program's fitness terms from the formula:
    total = closeness_mean - lambda_cut * cut_fraction - mu_small * small / k."""
    member = {n: ci for ci, c in enumerate(clusters) for n in c}
    ties = [0] * len(clusters)
    intra_weight = 0
    for (a, b), w in view.weights.items():
        if member[a] == member[b]:
            ties[member[a]] += 1
            intra_weight += w
    covered = sum(len(c) for c in clusters)
    weighted = sum(2.0 * ties[ci] / (len(c) - 1) for ci, c in enumerate(clusters) if len(c) > 1)
    closeness_mean = weighted / covered
    tw = view.total_weight
    cut = (tw - intra_weight) / tw if tw > 0 else 0.0
    small = sum(1 for c in clusters for s in parts_within(c, view) if s < sigma_small)
    total = closeness_mean - lambda_cut * cut - mu_small * (small / len(clusters))
    return {"total": total, "closeness_mean": closeness_mean, "cut_fraction": cut,
            "small_count": small}


def find_noa(cluster, view: View) -> int:
    """Most intra ties, then most intra weight, then smallest id."""
    inside = set(cluster)
    best = None
    for node in cluster:
        ties = weight = 0
        for other, w in view.adj[node]:
            if other in inside:
                ties += 1
                weight += w
        key = (ties, weight, -node)
        if best is None or key > best[0]:
            best = (key, node)
    return best[1]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ------------------------------------------------------------------ checks


def check_partition(obj: dict, view: View, params: dict, *, connected: bool) -> list[str]:
    """Partition JSON against a view: coverage, disjointness, connectivity
    (edge-removal only), closeness, NoA and the recomputed fitness."""
    problems = []
    clusters = [tuple(c["members"]) for c in obj["clusters"]]
    seen: set[int] = set()
    for c in clusters:
        if not c:
            problems.append("empty cluster")
        overlap = seen.intersection(c)
        if overlap:
            problems.append(f"clusters overlap on {sorted(overlap)[:5]}")
        seen.update(c)
    if seen != view.nodes:
        missing, extra = view.nodes - seen, seen - view.nodes
        problems.append(f"coverage: {len(missing)} active nodes missing, {len(extra)} foreign")
        return problems
    for ci, c in enumerate(clusters):
        if connected and len(parts_within(c, view)) != 1:
            problems.append(f"cluster {ci} is not connected in the view")
        cl = obj["clusters"][ci]
        if cl["noa"] != find_noa(c, view):
            problems.append(f"cluster {ci}: NoA {cl['noa']}, expected {find_noa(c, view)}")
        inside = set(c)
        ties = sum(1 for n in c for o, _ in view.adj[n] if o in inside)
        expect = 0.0 if len(c) == 1 else ties / (len(c) * (len(c) - 1))
        if not close(cl["closeness"], expect):
            problems.append(f"cluster {ci}: closeness {cl['closeness']}, expected {expect}")
    want = fitness(clusters, view, **params)
    got = obj["fitness"]
    for key in ("total", "closeness_mean", "cut_fraction"):
        if not close(got[key], want[key]):
            problems.append(f"fitness {key} {got[key]!r}, recomputed {want[key]!r}")
    if got["small_count"] != want["small_count"]:
        problems.append(f"small_count {got['small_count']}, recomputed {want['small_count']}")
    return problems


def check_checkpoints(records: list[dict], *, population: int, iterations: int,
                      batches: int, version: int) -> list[str]:
    """best_total never falls between events; the last record accounts for
    the whole budget: population + 2*iterations + (population+1)*batches."""
    problems = []
    for prev, cur in zip(records, records[1:]):
        same_view = cur["snapshot_version"] == prev["snapshot_version"]
        if same_view and cur["best_total"] < prev["best_total"]:
            problems.append(f"best_total fell at iteration {cur['iteration']} "
                            "with no event between")
        if cur["iteration"] <= prev["iteration"]:
            problems.append(f"checkpoint iterations not increasing at {cur['iteration']}")
    last = records[-1]
    if last["iteration"] != iterations:
        problems.append(f"ran {last['iteration']} iterations, budget covers {iterations}")
    expect = population + 2 * last["iteration"] + (population + 1) * batches
    if last["evaluations"] != expect:
        problems.append(f"{last['evaluations']} evaluations, accounting gives {expect}")
    if last["snapshot_version"] != version:
        problems.append(f"final snapshot version {last['snapshot_version']}, "
                        f"{version} events in the stream (unapplied events)")
    return problems


def check_noa_log(records: list[dict], views: dict[int, View]) -> list[str]:
    """Each observation (the records of one tick whose members add up to the
    view of that tick) covers that view exactly; each record's NoA, intra
    edge count and intra weight are right."""
    problems = [] if records else ["NoA log is empty"]
    group: list[int] = []
    for rec in records:
        tick = rec["tick"]
        view = views[tick]
        members = rec["members"]
        if not set(members) <= view.nodes:
            problems.append(f"tick {tick}: NoA record names inactive nodes")
            continue
        noa = find_noa(members, view)
        if rec["noa"] != noa:
            problems.append(f"tick {tick}: NoA {rec['noa']}, expected {noa}")
        inside = set(members)
        pairs = [p for p in view.weights if p[0] in inside and p[1] in inside]
        if rec["edges"] != len(pairs) or rec["weight"] != sum(view.weights[p] for p in pairs):
            problems.append(f"tick {tick}: intra edges/weight do not match the view")
        group += members
        if len(group) >= len(view.nodes):
            if len(group) != len(view.nodes) or set(group) != view.nodes:
                problems.append(f"NoA observation at tick {tick} does not cover the view")
            group = []
    if group:
        problems.append("NoA log ends inside an observation")
    return problems


def check_dot(text: str, obj: dict, view: View) -> list[str]:
    """The DOT rendering has one box per cluster and every active edge once."""
    problems = []
    boxes = text.count("subgraph cluster_")
    if boxes != len(obj["clusters"]):
        problems.append(f"DOT has {boxes} cluster boxes, partition has {len(obj['clusters'])}")
    edge_lines = sum(1 for line in text.splitlines() if " -- " in line)
    if edge_lines != len(view.weights):
        problems.append(f"DOT has {edge_lines} edges, view has {len(view.weights)}")
    return problems


def check_oracle_bound(oracle_total: float, ga_totals: list[float]) -> list[str]:
    return [f"GA total {t!r} beats the oracle optimum {oracle_total!r}"
            for t in ga_totals if t > oracle_total and not close(t, oracle_total)]


# --------------------------------------------------------------------- NMI


def entropy(counts) -> float:
    n = sum(counts)
    return -sum(c / n * math.log(c / n) for c in counts if c)


def nmi(a: dict[int, int], b: dict[int, int]) -> float:
    """Normalized mutual information 2*I(A;B) / (H(A) + H(B)) over the
    nodes both labelings cover. Two single-cluster labelings count as
    identical (1.0)."""
    nodes = a.keys() & b.keys()
    joint = Counter((a[n], b[n]) for n in nodes)
    ca = Counter(a[n] for n in nodes)
    cb = Counter(b[n] for n in nodes)
    ha, hb = entropy(ca.values()), entropy(cb.values())
    if ha + hb == 0:
        return 1.0
    hab = entropy(joint.values())
    return 2.0 * (ha + hb - hab) / (ha + hb)


def labels(clusters) -> dict[int, int]:
    return {n: ci for ci, c in enumerate(clusters) for n in c}
