"""Versioned multi-attribute weighted graph model.

A snapshot is immutable, its mappings read-only proxies; applying an update
event yields a successor with version + 1. An attribute view projects a
snapshot onto a subset of attributes and aggregates each edge's weight vector
into one number; an edge is active in the view iff that aggregate is
positive. Views precompute their sorted edge list and endpoint index arrays
so clustering code can treat them as read-only.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress, islice
from operator import eq, itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ConfigInvalid,
    DuplicateEdge,
    DuplicateNode,
    EmptyCluster,
    ForeignEdge,
    UnknownEdge,
    UnknownNode,
    check_int,
    clip_repr,
)

Pair = tuple[int, int]
Label = int | str


def edge_key(a: int, b: int) -> Pair:
    """Normalized (low, high) form of an undirected pair. Self-loops are invalid."""
    if a == b:
        raise ValueError(f"self-loop on node {a}")
    return (a, b) if a < b else (b, a)


def is_digits(text: str) -> bool:
    """True for a nonempty run of ASCII digits. `str.isdigit` alone also
    accepts characters such as '²' that `int` rejects."""
    return text.isascii() and text.isdigit()


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered, unique attribute names; every edge carries one weight per name."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ConfigInvalid("schema needs at least one attribute")
        if len(set(self.names)) != len(self.names):
            raise ConfigInvalid("attribute names must be unique")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigInvalid(f"unknown attribute {clip_repr(name)}") from None


@dataclass(frozen=True)
class Edge:
    """Undirected weighted edge; endpoints normalize to a < b on construction."""

    a: int
    b: int
    weights: tuple[int, ...]

    def __post_init__(self):
        lo, hi = edge_key(self.a, self.b)
        object.__setattr__(self, "a", lo)
        object.__setattr__(self, "b", hi)
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if any(w < 0 for w in self.weights):
            raise ValueError(f"negative weight on edge {(lo, hi)}")
        # all-zero weight vectors mean "no edge"; reject rather than store
        if not any(self.weights):
            raise ValueError(f"edge {(lo, hi)} needs at least one positive weight")

    @property
    def key(self) -> Pair:
        return (self.a, self.b)


class EventKind(str, Enum):
    ADD_NODE = "add_node"
    ADD_EDGE = "add_edge"
    UPDATE_WEIGHT = "update_weight"
    REMOVE_EDGE = "remove_edge"


@dataclass(frozen=True)
class UpdateEvent:
    """One change to the graph at a given tick.

    Nodes are referenced by label: plain ints (or all-digit strings) are node
    ids, any other string goes through the snapshot's name table. Unused
    fields stay None; the factory classmethods fill in the right ones. The
    tick and every weight must be integers (ConfigInvalid otherwise).
    """

    tick: int
    kind: EventKind
    node: Label | None = None
    a: Label | None = None
    b: Label | None = None
    weights: tuple[int, ...] | None = None
    attr: str | None = None
    value: int | None = None

    def __post_init__(self):
        check_int("tick", self.tick)

    @classmethod
    def add_node(cls, tick: int, node: Label) -> "UpdateEvent":
        return cls(tick, EventKind.ADD_NODE, node=node)

    @classmethod
    def add_edge(cls, tick: int, a: Label, b: Label, weights: Sequence[int]) -> "UpdateEvent":
        weights = tuple(weights)
        for w in weights:
            check_int("weight", w)
        return cls(tick, EventKind.ADD_EDGE, a=a, b=b, weights=weights)

    @classmethod
    def update_weight(cls, tick: int, a: Label, b: Label, attr: str, value: int) -> "UpdateEvent":
        check_int("value", value)
        return cls(tick, EventKind.UPDATE_WEIGHT, a=a, b=b, attr=attr, value=value)

    @classmethod
    def remove_edge(cls, tick: int, a: Label, b: Label) -> "UpdateEvent":
        return cls(tick, EventKind.REMOVE_EDGE, a=a, b=b)


@dataclass(frozen=True)
class AppliedEvent:
    """An event plus what it actually did: resolved ids and before/after weights.

    Raw events do not carry previous weights, so anything that needs to know
    whether a weight went up (merge-signal detection) consumes these instead.
    """

    event: UpdateEvent
    node: int | None = None
    pair: Pair | None = None
    old_weights: tuple[int, ...] | None = None
    new_weights: tuple[int, ...] | None = None

    @property
    def tick(self) -> int:
        return self.event.tick


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """Immutable graph state: node set, edge weight vectors, name table, version.

    `names` maps non-numeric external labels to ids; numeric labels are their
    own ids and are not stored. `node_ticks` records the tick of each node
    an event added, which rendering uses to mark arrivals; the nodes of the
    version-0 snapshot have no entry. The mappings `build` and `apply` make
    are read-only proxies, shared by successors that leave them unchanged.
    """

    schema: AttributeSchema
    nodes: frozenset[int]
    edges: Mapping[Pair, tuple[int, ...]]
    names: Mapping[str, int] = field(default_factory=lambda: MappingProxyType({}))
    node_ticks: Mapping[int, int] = field(default_factory=lambda: MappingProxyType({}))
    version: int = 0
    tick: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_labels_by_id", {v: k for k, v in self.names.items()})

    @classmethod
    def build(
        cls,
        schema: AttributeSchema,
        edges: Iterable[Edge],
        extra_nodes: Iterable[int] = (),
    ) -> "GraphSnapshot":
        """Version-0 snapshot from an edge collection plus optional isolated
        nodes. Checks each edge's arity and that no pair repeats, then hands
        the edge dict to `from_checked`, the one version-0 constructor."""
        edict: dict[Pair, tuple[int, ...]] = {}
        for e in edges:
            if len(e.weights) != schema.arity:
                raise ConfigInvalid(
                    f"edge {e.key} has {len(e.weights)} weights, schema arity is {schema.arity}"
                )
            if e.key in edict:
                raise DuplicateEdge(f"duplicate edge {e.key}")
            edict[e.key] = e.weights
        return cls.from_checked(schema, edict, extra_nodes)

    @classmethod
    def from_checked(
        cls,
        schema: AttributeSchema,
        edges: dict[Pair, tuple[int, ...]],
        extra_nodes: Iterable[int] = (),
    ) -> "GraphSnapshot":
        """Version-0 snapshot that takes over `edges` as it is: the caller
        has checked that every key is a normalized pair (low, high) and
        every value a tuple of `schema.arity` non-negative ints, not all
        zero. The nodes are the edges' endpoints plus `extra_nodes`, and no
        node has a name or a tick."""
        nodes = frozenset(chain.from_iterable(edges)).union(extra_nodes)
        return cls(schema=schema, nodes=nodes, edges=MappingProxyType(edges))

    @staticmethod
    def _label_id(label: Label) -> int | None:
        """The node id a label spells: an int (not a bool) or a string of
        ASCII digits. None for any other string, which is a name; UnknownNode
        for a label of any other type."""
        if isinstance(label, int) and not isinstance(label, bool):
            return label
        if isinstance(label, str):
            return int(label) if is_digits(label) else None
        raise UnknownNode(f"bad label {clip_repr(label)}")

    def resolve(self, label: Label) -> int:
        """Label to node id; raises UnknownNode when it names nothing."""
        nid = self._label_id(label)
        if nid is None:
            if label not in self.names:
                raise UnknownNode(f"unknown label {clip_repr(label)}")
            return self.names[label]
        if nid not in self.nodes:
            raise UnknownNode(f"unknown node {nid}")
        return nid

    def label_of(self, node: int) -> str:
        """External label for a node id; ids without a stored label print as digits."""
        return self._labels_by_id.get(node, str(node))

    def apply(self, event: UpdateEvent) -> "GraphSnapshot":
        return self.apply_traced(event)[0]

    def apply_traced(self, event: UpdateEvent) -> tuple["GraphSnapshot", AppliedEvent]:
        """Apply one event; returns the successor and a trace with old weights.

        Ticks may repeat but never go backwards. An update that zeroes every
        weight on an edge drops the edge, same as removal.
        """
        if event.tick < self.tick:
            raise ValueError(
                f"tick went backwards: event {event.tick}, snapshot at {self.tick}"
            )
        if event.kind is EventKind.ADD_NODE:
            return self._apply_add_node(event)
        if event.kind is EventKind.ADD_EDGE:
            return self._apply_add_edge(event)
        if event.kind is EventKind.UPDATE_WEIGHT:
            return self._apply_update_weight(event)
        if event.kind is EventKind.REMOVE_EDGE:
            return self._apply_remove_edge(event)
        raise ValueError(f"unknown event kind {event.kind!r}")

    def _successor(self, *, nodes=None, edges=None, names=None, node_ticks=None, tick):
        return GraphSnapshot(
            schema=self.schema,
            nodes=self.nodes if nodes is None else nodes,
            edges=self.edges if edges is None else edges,
            names=self.names if names is None else names,
            node_ticks=self.node_ticks if node_ticks is None else node_ticks,
            version=self.version + 1,
            tick=tick,
        )

    def _apply_add_node(self, event):
        label = event.node
        names = self.names
        nid = self._label_id(label)
        if nid is None:
            if label in self.names:
                raise DuplicateNode(f"label {clip_repr(label)} already exists")
            # fresh labels get the next free id, so "X" on a 15-node graph is 16
            nid = max(self.nodes) + 1 if self.nodes else 0
            names = MappingProxyType({**self.names, label: nid})
        elif nid < 0:
            raise ValueError(f"negative node id {nid}")
        elif nid in self.nodes:
            raise DuplicateNode(f"node {nid} already exists")
        snap = self._successor(
            nodes=self.nodes | {nid},
            names=names,
            node_ticks=MappingProxyType({**self.node_ticks, nid: event.tick}),
            tick=event.tick,
        )
        return snap, AppliedEvent(event, node=nid)

    def _apply_add_edge(self, event):
        key = edge_key(self.resolve(event.a), self.resolve(event.b))
        if key in self.edges:
            raise DuplicateEdge(f"edge {key} already exists")
        w = Edge(key[0], key[1], event.weights).weights
        if len(w) != self.schema.arity:
            raise ConfigInvalid(
                f"edge {key} has {len(w)} weights, schema arity is {self.schema.arity}"
            )
        edges = self.edges.copy()
        edges[key] = w
        snap = self._successor(edges=MappingProxyType(edges), tick=event.tick)
        return snap, AppliedEvent(event, pair=key, new_weights=w)

    def _apply_update_weight(self, event):
        key = edge_key(self.resolve(event.a), self.resolve(event.b))
        old = self.edges.get(key)
        if old is None:
            raise UnknownEdge(f"no edge {key}")
        idx = self.schema.index(event.attr)
        value = int(event.value)
        if value < 0:
            raise ValueError(f"negative weight {value} for edge {key}")
        new = old[:idx] + (value,) + old[idx + 1 :]
        edges = self.edges.copy()
        if any(new):
            edges[key] = new
        else:
            del edges[key]
        snap = self._successor(edges=MappingProxyType(edges), tick=event.tick)
        return snap, AppliedEvent(event, pair=key, old_weights=old, new_weights=new)

    def _apply_remove_edge(self, event):
        key = edge_key(self.resolve(event.a), self.resolve(event.b))
        old = self.edges.get(key)
        if old is None:
            raise UnknownEdge(f"no edge {key}")
        edges = self.edges.copy()
        del edges[key]
        snap = self._successor(edges=MappingProxyType(edges), tick=event.tick)
        return snap, AppliedEvent(event, pair=key, old_weights=old)


class AttributeView:
    """Read-only projection of a snapshot onto some attributes.

    Active nodes are the endpoints of active edges plus nodes that have no
    edges at all in the snapshot (just-added isolates). Nodes whose every
    incident edge is zero under the chosen attributes are not in the view.
    `weigh(vec)` aggregates a snapshot weight vector into this view's edge
    weight; the edge is active iff that is positive. `successor` moves the
    view across a batch of events: it decides whether the batch is
    weight-only, patches or rebuilds the view, and measures what the batch
    did to the active edges.

    Two lookup tables are built on their first read, never while a view is
    built, so a run pays only for the ones it reads: `pair_index`, read by
    edge-removal decode and carry-over and by `weight_of`; and
    `neighbours`, read by the locus operators. The successor of a
    weight-only batch shares each table that is built by then.
    """

    def __init__(
        self,
        base: GraphSnapshot,
        attrs: Sequence[str] | None = None,
        aggregation: str = "sum",
    ):
        if aggregation not in ("sum", "max"):
            raise ConfigInvalid(f"aggregation must be sum or max, got {clip_repr(aggregation)}")
        names = base.schema.names
        chosen = tuple(attrs) if attrs is not None else names
        if not chosen:
            raise ConfigInvalid("view needs at least one attribute")
        if len(set(chosen)) != len(chosen):
            raise ConfigInvalid("duplicate attribute in view")
        for a in chosen:
            if a not in names:
                raise ConfigInvalid(f"unknown attribute {clip_repr(a)}")
        self.base = base
        self.attrs = chosen
        self.aggregation = aggregation
        self.version = base.version

        combine = max if aggregation == "max" else sum
        pick = itemgetter(*(names.index(a) for a in chosen))
        self.weigh = weigh = pick if len(chosen) == 1 else lambda vec: combine(pick(vec))
        # keys sort as the (key, vector) items do, without an item per edge
        edges = base.edges
        pairs = sorted(edges)
        weights = list(map(weigh, [edges[key] for key in pairs]))
        # weights are non-negative ints, so an edge is active iff its
        # weight is truthy; with no zero weight every edge is active
        if 0 in weights:
            pairs = list(compress(pairs, weights))
            weights = list(filter(None, weights))
        self.pairs: tuple[Pair, ...] = tuple(pairs)
        self.weights: tuple[int, ...] = tuple(weights)
        self.total_weight = sum(weights)
        # active nodes are the snapshot's nodes less those whose every edge
        # is inactive here; with no inactive edge that is all of them
        nodes = base.nodes
        if len(pairs) != len(edges):
            nodes = nodes.difference(chain.from_iterable(edges)).union(
                chain.from_iterable(pairs)
            )
        self.nodes: tuple[int, ...] = tuple(sorted(nodes))
        self.node_index = node_index = {n: i for i, n in enumerate(self.nodes)}
        # endpoint index arrays, the decode hot path walks these
        self.ea: tuple[int, ...] = tuple([node_index[a] for a, _ in pairs])
        self.eb: tuple[int, ...] = tuple([node_index[b] for _, b in pairs])

    def successor(
        self, base: GraphSnapshot, applied: Sequence[AppliedEvent]
    ) -> "tuple[AttributeView, list[tuple[int, int, int, int]] | None, bool]":
        """The view of `base` on this view's attributes, what the batch
        `applied` (the events that took this view's snapshot to `base`) did
        to its active edges, and whether that batch was weight-only.

        The batch is weight-only when every event is an update_weight whose
        edge stays in `base` and is active there exactly when it is active
        here. It leaves the node and edge sets as they are, so it cannot
        change a decoded partition, and its view is a copy of this one that
        shares the edge and node tables and each lookup table built by
        then. Any other batch gets a full build.

        The changes are one (endpoint index, endpoint index, tie change,
        weight change) per touched pair whose aggregated weight moved, in
        pair order and the new view's indices. The tie change is +1 for an
        edge that became active, -1 for one that left, 0 for one
        re-weighted. None unless the new node order starts with this
        view's, so that this view's node indices hold there too."""
        weight_only = all(a.event.kind is EventKind.UPDATE_WEIGHT for a in applied)
        pairs, weights, edges = self.pairs, self.weights, base.edges
        moved = []
        for pair in sorted({a.pair for a in applied if a.pair is not None}):
            i = bisect_left(pairs, pair)
            old = weights[i] if i < len(pairs) and pairs[i] == pair else 0
            vec = edges.get(pair)
            new = 0 if vec is None else self.weigh(vec)
            if vec is None or (new > 0) != (old > 0):
                weight_only = False
            if new != old:
                moved.append((pair, i, old, new))
        if weight_only:
            view = copy.copy(self)
            view.base = base
            view.version = base.version
            if moved:
                patched = list(weights)
                for _, i, old, new in moved:
                    patched[i] = new
                    view.total_weight += new - old
                view.weights = tuple(patched)
        else:
            view = AttributeView(base, self.attrs, self.aggregation)
            if view.nodes[:len(self.nodes)] != self.nodes:
                return view, None, False
        index = view.node_index
        changes = [(index[a], index[b], (new > 0) - (old > 0), new - old)
                   for (a, b), _, old, new in moved]
        return view, changes, weight_only

    @cached_property
    def pair_index(self) -> dict[Pair, int]:
        """The index of each active edge in `pairs`, built on the first read."""
        return {p: i for i, p in enumerate(self.pairs)}

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """The node ids adjacent to each active node, in view order, each
        ascending; an isolate's entry is the node itself. Built on the first
        read, which only the locus operators make, so building a view does
        not pay for it. The successor of a weight-only batch, whose edge set
        is this view's, shares the table once it is built."""
        adjacent: list[list[int]] = [[] for _ in self.nodes]
        for (a, b), ia, ib in zip(self.pairs, self.ea, self.eb):
            adjacent[ia].append(b)
            adjacent[ib].append(a)
        return tuple(tuple(nbrs) if nbrs else (node,) for nbrs, node in zip(adjacent, self.nodes))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def weight_of(self, a: int, b: int) -> int:
        """Aggregated weight of an active edge; ForeignEdge if not active
        here, as for a self-loop or an endpoint that is not an int node id."""
        if not (type(a) is int and type(b) is int):  # bool is not a node id
            raise ForeignEdge(f"edge {clip_repr((a, b))} is not a pair of int node ids")
        key = (a, b) if a < b else (b, a)
        idx = self.pair_index.get(key)
        if idx is None:
            raise ForeignEdge(f"edge {key} is not active in this view")
        return self.weights[idx]


@dataclass(frozen=True)
class Partition:
    """Disjoint clusters covering a view's active nodes.

    Clusters are sorted tuples ordered by smallest member, so equal
    partitions compare equal.
    """

    clusters: tuple[tuple[int, ...], ...]
    attrs: tuple[str, ...]
    source_version: int

    def __post_init__(self):
        normalized = tuple(sorted(tuple(sorted(c)) for c in self.clusters))
        object.__setattr__(self, "clusters", normalized)
        object.__setattr__(self, "attrs", tuple(self.attrs))
        if not all(normalized):
            raise EmptyCluster("empty cluster in partition")
        # disjoint iff no member repeats in the sorted run of all members; a
        # set of them takes several times this list's memory, and a run
        # builds its result's partition near its memory peak
        members = sorted(chain.from_iterable(normalized))
        if any(map(eq, members, islice(members, 1, None))):
            raise ValueError("clusters are not disjoint")

    @classmethod
    def from_labels(cls, view: AttributeView, labels: Sequence[int]) -> "Partition":
        """Partition of the view's active nodes from one cluster label per
        node, in view order, labels numbered 0..k-1."""
        clusters: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
        for node, label in zip(view.nodes, labels):
            clusters[label].append(node)
        return cls(tuple(map(tuple, clusters)), view.attrs, view.version)

    @property
    def node_count(self) -> int:
        return sum(len(c) for c in self.clusters)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def members(self) -> Iterator[int]:
        for cluster in self.clusters:
            yield from cluster

    def labels(self, view: AttributeView) -> list[int]:
        """Cluster index of each of the view's active nodes, in view order;
        -1 marks a node the partition leaves out. UnknownNode for a member
        that is not active in the view."""
        node_index = view.node_index
        labels = [-1] * len(view.nodes)
        for ci, cluster in enumerate(self.clusters):
            for node in cluster:
                ix = node_index.get(node)
                if ix is None:
                    raise UnknownNode(f"node {node} is not active in this view")
                labels[ix] = ci
        return labels

    def membership(self) -> dict[int, int]:
        """node -> cluster index."""
        out: dict[int, int] = {}
        for i, cluster in enumerate(self.clusters):
            for n in cluster:
                out[n] = i
        return out


def component_labels(n: int, links: Iterable[tuple[int, int]]) -> list[int]:
    """Component label of each of `n` nodes, numbered by view index, over
    the index pairs `links`. Components are numbered 0, 1, ... by smallest
    node, which is the cluster order of the matching Partition."""
    # union-find with path halving where the smaller root wins: every link
    # points to a smaller index, so relabelling in place in index order
    # always finds a node's parent already labelled
    parent = list(range(n))
    for a, b in links:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    count = 0
    for x, p in enumerate(parent):
        if p == x:
            parent[x] = count
            count += 1
        else:
            parent[x] = parent[p]
    return parent


def part_labels(view: AttributeView, labels: Sequence[int]) -> list[int]:
    """Labels of the connected parts of each cluster: components over the
    edges whose endpoints share a cluster label."""
    inside = [labels[a] == labels[b] for a, b in zip(view.ea, view.eb)]
    return component_labels(len(view.nodes), compress(zip(view.ea, view.eb), inside))

