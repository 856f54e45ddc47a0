"""Cluster analysis on top of partitions: Node-of-Attraction tracking,
linkage nodes, partition overlays, and merge signals.

The NoA of a cluster is its most active member: most intra-cluster ties,
ties broken by larger intra-cluster weight, then by smallest id. Tracking
NoAs across a run gives a stable handle on "the same community" while
membership churns.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def cluster_stats(partition: Partition, view: AttributeView) -> list[tuple[int, int, int]]:
    """(intra edge count, intra weight, NoA) of every cluster, in cluster
    order, from one pass over the view's edges.

    The NoA is the most intra-active member; ties fall to intra weight, then
    smallest id. Members must be active in the view (UnknownNode otherwise);
    the partition need not cover every active node.
    """
    check_version("partition", partition.source_version, view.version)
    labels = partition.labels(view)
    node_index = view.node_index
    # per node: (intra ties, intra weight), the NoA key
    ties = [0] * len(labels)
    weight = [0] * len(labels)
    for a, b, w in zip(view.ea, view.eb, view.weights):
        if labels[a] == labels[b]:  # nodes outside the partition are never read
            ties[a] += 1
            ties[b] += 1
            weight[a] += w
            weight[b] += w
    out = []
    for cluster in partition.clusters:
        ixs = [node_index[node] for node in cluster]
        # members ascend, and max keeps the first of equal keys: smallest id
        noa = max(zip(cluster, ixs), key=lambda m: (ties[m[1]], weight[m[1]]))[0]
        # each intra edge is counted from both ends
        out.append((sum(ties[i] for i in ixs) // 2, sum(weight[i] for i in ixs) // 2, noa))
    return out


def find_noa(cluster: Iterable[int], view: AttributeView) -> int:
    """Most intra-active member; ties fall to intra weight, then smallest id.
    EmptyCluster for no members, ValueError for a member listed twice."""
    return cluster_stats(Partition((tuple(cluster),), view.attrs, view.version), view)[0][2]


def noa_records(partition: Partition, view: AttributeView, tick: int) -> tuple[NoARecord, ...]:
    """One record per cluster, in cluster order."""
    return tuple(
        NoARecord(
            tick=tick,
            attrs=view.attrs,
            members=cluster,
            noa=noa,
            edge_count=edges,
            total_weight=weight,
        )
        for cluster, (edges, weight, noa) in zip(
            partition.clusters, cluster_stats(partition, view)
        )
    )


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
