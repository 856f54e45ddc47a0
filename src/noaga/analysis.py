"""Cluster analysis on top of partitions: Node-of-Attraction tracking,
linkage nodes, partition overlays, and merge signals.

The NoA of a cluster is its most active member: most intra-cluster ties,
ties broken by larger intra-cluster weight, then by smallest id. Tracking
NoAs across a run gives a stable handle on "the same community" while
membership churns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterable, Sequence

from .errors import ConfigInvalid, check_version, clip_repr
from .graph import (
    AppliedEvent,
    AttributeView,
    EventKind,
    Pair,
    Partition,
)


@dataclass(frozen=True)
class NoARecord:
    """One cluster observed at one tick: members, NoA, intra edge stats."""

    tick: int
    attrs: tuple[str, ...]
    members: tuple[int, ...]
    noa: int
    edge_count: int
    total_weight: int


@dataclass(frozen=True)
class LinkageEntry:
    """A node with at least one edge leaving its cluster."""

    node: int
    cluster: int
    foreign_clusters: tuple[int, ...]
    bridge_edges: tuple[Pair, ...]


@dataclass(frozen=True)
class LinkageReport:
    nodes: tuple[int, ...]
    entries: tuple[LinkageEntry, ...]


@dataclass(frozen=True)
class OverlayCell:
    """Nonempty intersection of cluster a_index of one partition with
    cluster b_index of the other."""

    a_index: int
    b_index: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class OverlayReport:
    """Cross-tabulation of two partitions over the union of their nodes.

    overlap_nodes are members of cells where neither cluster contains the
    other, i.e. nodes whose community genuinely differs between the two.
    """

    cells: tuple[OverlayCell, ...]
    overlap_nodes: tuple[int, ...]


@dataclass(frozen=True)
class MergeSignal:
    """Members of source_cluster began interacting with target_cluster's NoA."""

    source_cluster: int
    target_cluster: int
    target_noa: int
    witnesses: tuple[int, ...]
    strength: int
    window: tuple[int, int]


class Tally:
    """The counts behind the NoA records of one clustering of a view: each
    active node's intra-cluster ties and weight, and each cluster's members
    (ascending ids), intra edge count, intra weight and NoA.

    The NoA of a cluster is its most intra-active member; ties fall to intra
    weight, then smallest id. `_noa` is the one place that rule is applied.
    Member indices are looked up per cluster when needed and not kept: a
    list of them per cluster raised planted-static's peak RSS by 0.4 MB.
    A run keeps the tally of its elite between observations and `retally`
    patches it when only edge weights moved (`reweigh`)."""

    def __init__(self, view: AttributeView, labels: Sequence[int],
                 clusters: tuple[tuple[int, ...], ...] | None = None):
        """Count `labels`, the cluster index of each of the view's active
        nodes in view order, -1 for a node outside the clustering, in one
        pass over the view's edges. `clusters` are the members of each
        index; None makes them from `labels`, which must then cover every
        node."""
        if clusters is None:
            grouped: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
            for node, label in zip(view.nodes, labels):
                grouped[label].append(node)
            clusters = tuple(map(tuple, grouped))
        self.view = view
        self.labels = labels
        self.clusters = clusters
        # per node: (intra ties, intra weight), the NoA key
        self.ties = ties = [0] * len(labels)
        self.weight = weight = [0] * len(labels)
        for a, b, w in zip(view.ea, view.eb, view.weights):
            if labels[a] == labels[b]:  # nodes outside the clustering are never read
                ties[a] += 1
                ties[b] += 1
                weight[a] += w
                weight[b] += w
        self.edges: list[int] = []
        self.weights: list[int] = []
        self.noas: list[int] = []
        for cluster in clusters:
            ixs = self._indices(cluster)
            # each intra edge is counted from both ends
            self.edges.append(sum(ties[i] for i in ixs) // 2)
            self.weights.append(sum(weight[i] for i in ixs) // 2)
            self.noas.append(self._noa(cluster, ixs))

    def _indices(self, cluster: tuple[int, ...]) -> list[int]:
        """The view index of each member; built when needed, not kept."""
        node_index = self.view.node_index
        return [node_index[node] for node in cluster]

    def _noa(self, cluster: tuple[int, ...], ixs: list[int]) -> int:
        """The NoA of `cluster`, whose members have the view indices `ixs`,
        from the per-node counts."""
        ties, weight = self.ties, self.weight
        # members ascend, and max keeps the first of equal keys: smallest id
        return max(zip(cluster, ixs), key=lambda m: (ties[m[1]], weight[m[1]]))[0]

    def reweigh(self, view: AttributeView) -> None:
        """Move the tally to `view`, which has this tally's nodes and edges
        (its `nodes` and `pairs` are this view's) and may differ in their
        weights alone: patch the weights that moved, and pick again the NoA
        of each cluster whose intra weight one of them moved."""
        old, new = self.view.weights, view.weights
        self.view = view
        if new is old:
            return
        labels, weight = self.labels, self.weight
        touched = set()
        for i in compress(count(), map(ne, old, new)):
            a, b = view.ea[i], view.eb[i]
            c = labels[a]
            if c == labels[b] and c >= 0:
                delta = new[i] - old[i]
                weight[a] += delta
                weight[b] += delta
                self.weights[c] += delta
                touched.add(c)
        for c in touched:
            cluster = self.clusters[c]
            self.noas[c] = self._noa(cluster, self._indices(cluster))

    def records(self, tick: int) -> tuple[NoARecord, ...]:
        """One record per cluster, in cluster order; they share the member
        tuples of the tally."""
        attrs = self.view.attrs
        return tuple(
            NoARecord(tick, attrs, members, noa, edges, weight)
            for members, noa, edges, weight in zip(self.clusters, self.noas, self.edges,
                                                   self.weights)
        )


def retally(kept: Tally | None, view: AttributeView, labels: Sequence[int]) -> Tally:
    """The tally of `labels`, which cover the view's active nodes, at
    `view`: `kept` moved to `view` (`Tally.reweigh`) when it counted equal
    labels over the same nodes and edges, else a new count. Edgeless views
    share the empty `pairs` whatever their nodes, so both are compared."""
    if (kept is not None and kept.view.nodes is view.nodes and kept.view.pairs is view.pairs
            and kept.labels == labels):
        kept.reweigh(view)
        return kept
    return Tally(view, labels)


def _tally(partition: Partition, view: AttributeView) -> Tally:
    """The tally of a partition of `view`'s active nodes, or some of them."""
    check_version("partition", partition.source_version, view.version)
    return Tally(view, partition.labels(view), partition.clusters)


def cluster_stats(partition: Partition, view: AttributeView) -> list[tuple[int, int, int]]:
    """(intra edge count, intra weight, NoA) of every cluster, in cluster
    order, from one pass over the view's edges (`Tally`).

    The NoA is the most intra-active member; ties fall to intra weight, then
    smallest id. Members must be active in the view (UnknownNode otherwise);
    the partition need not cover every active node.
    """
    tally = _tally(partition, view)
    return list(zip(tally.edges, tally.weights, tally.noas))


def find_noa(cluster: Iterable[int], view: AttributeView) -> int:
    """Most intra-active member; ties fall to intra weight, then smallest id.
    EmptyCluster for no members, ValueError for a member listed twice."""
    return cluster_stats(Partition((tuple(cluster),), view.attrs, view.version), view)[0][2]


def noa_records(partition: Partition, view: AttributeView, tick: int) -> tuple[NoARecord, ...]:
    """One record per cluster, in cluster order."""
    return _tally(partition, view).records(tick)


def linkage_nodes(partition: Partition, view: AttributeView) -> LinkageReport:
    """Nodes incident to at least one inter-cluster edge. The partition need
    not cover every active node: an edge with an endpoint outside it is
    skipped."""
    check_version("partition", partition.source_version, view.version)
    member = partition.membership()
    foreign: dict[int, set[int]] = {}
    bridges: dict[int, list[Pair]] = {}
    for a, b in view.pairs:
        ca, cb = member.get(a), member.get(b)
        if ca is None or cb is None or ca == cb:
            continue
        foreign.setdefault(a, set()).add(cb)
        bridges.setdefault(a, []).append((a, b))
        foreign.setdefault(b, set()).add(ca)
        bridges.setdefault(b, []).append((a, b))
    entries = tuple(
        LinkageEntry(
            node=node,
            cluster=member[node],
            foreign_clusters=tuple(sorted(foreign[node])),
            bridge_edges=tuple(sorted(bridges[node])),
        )
        for node in sorted(foreign)
    )
    return LinkageReport(nodes=tuple(sorted(foreign)), entries=entries)


def overlay(pa: Partition, pb: Partition) -> OverlayReport:
    """Cross-tabulate two partitions.

    Nodes present on only one side count as singleton clusters on the other,
    so the report always covers the union. Cells are ordered by
    (a_index, b_index).
    """
    nodes_a = set(pa.members())
    nodes_b = set(pb.members())
    clusters_a = list(pa.clusters) + [(n,) for n in sorted(nodes_b - nodes_a)]
    clusters_b = list(pb.clusters) + [(n,) for n in sorted(nodes_a - nodes_b)]
    in_b: dict[int, int] = {}
    for j, cluster in enumerate(clusters_b):
        for n in cluster:
            in_b[n] = j
    cells: list[OverlayCell] = []
    overlap: set[int] = set()
    for i, cluster in enumerate(clusters_a):
        hits: dict[int, list[int]] = {}
        for n in cluster:
            hits.setdefault(in_b[n], []).append(n)
        set_a = set(cluster)
        for j in sorted(hits):
            members = tuple(sorted(hits[j]))
            cells.append(OverlayCell(i, j, members))
            set_b = set(clusters_b[j])
            if not (set_a <= set_b or set_b <= set_a):
                overlap.update(members)
    return OverlayReport(cells=tuple(cells), overlap_nodes=tuple(sorted(overlap)))


def merge_signals(
    history: Sequence[NoARecord],
    applied_events: Sequence[AppliedEvent],
    partition: Partition,
    view: AttributeView,
    *,
    theta: int = 2,
    window: int = 1000,
) -> tuple[MergeSignal, ...]:
    """Detect clusters leaning toward a merge.

    A witness is a member of one cluster who, inside the tick window ending
    at the view's snapshot tick, gained a new edge to another cluster's NoA
    or had an existing one increase in aggregated weight (decreases never
    count). A signal fires when a source cluster has >= theta distinct
    witnesses toward the same target.

    The target NoA comes from the most recent history record whose member
    set matches the cluster, falling back to a fresh computation.
    """
    for name, v in (("theta", theta), ("window", window)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ConfigInvalid(f"{name} must be an integer >= 1, got {clip_repr(v)}")
    check_version("partition", partition.source_version, view.version)

    now = view.base.tick
    lo = now - window + 1
    member = partition.membership()

    recorded: dict[tuple[int, ...], int] = {}
    for rec in history:  # later records win: iterate in order
        if rec.attrs == view.attrs:
            recorded[rec.members] = rec.noa
    noas = [recorded.get(cluster) for cluster in partition.clusters]
    if None in noas:
        stats = cluster_stats(partition, view)
        noas = [noa if noa is not None else s[2] for noa, s in zip(noas, stats)]

    def agg(vec: tuple[int, ...] | None) -> int:
        return 0 if vec is None else view.weigh(vec)

    witnesses: dict[tuple[int, int], set[int]] = {}
    for ap in applied_events:
        if ap.tick < lo or ap.pair is None:
            continue
        kind = ap.event.kind
        if kind is EventKind.ADD_EDGE:
            increased = agg(ap.new_weights) > 0
        elif kind is EventKind.UPDATE_WEIGHT:
            increased = agg(ap.new_weights) > agg(ap.old_weights)
        else:
            increased = False
        if not increased:
            continue
        a, b = ap.pair
        for actor, touched in ((a, b), (b, a)):
            ca = member.get(actor)
            cb = member.get(touched)
            if ca is None or cb is None or ca == cb:
                continue
            if noas[cb] == touched:
                witnesses.setdefault((ca, cb), set()).add(actor)

    signals = []
    for (src, tgt) in sorted(witnesses):
        who = tuple(sorted(witnesses[(src, tgt)]))
        if len(who) >= theta:
            signals.append(
                MergeSignal(
                    source_cluster=src,
                    target_cluster=tgt,
                    target_noa=noas[tgt],
                    witnesses=who,
                    strength=len(who),
                    window=(lo, now),
                )
            )
    return tuple(signals)
