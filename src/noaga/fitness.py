"""Partition quality scoring.

total = closeness_mean - LAMBDA_CUT * cut_fraction - MU_SMALL * small_share

with the fixed weights LAMBDA_CUT = 2.5 and MU_SMALL = 0.5; no option
sets them.

closeness(C) is the intra-cluster tie density 2*T/(|C|*(|C|-1)) where T
counts active edges inside C; singletons score 0. closeness_mean is the
size-weighted mean over clusters, so it rewards covering many nodes with
dense clusters rather than farming tiny dense ones. cut_fraction is the
share of aggregated edge weight crossing clusters, which is where weights
(not just tie counts) enter. small_share penalizes fragments: it counts
connected parts below SIGMA_SMALL = 2 nodes, so a stray node is penalized
the same whether it sits alone or is glued onto an unrelated cluster.

The formula lives only in the count functions `closeness_mean`,
`cut_fraction`, `small_count` and `total`. `score_terms` counts the labels
the GA decodes to and also returns the cluster count, the intra-cluster
weight and each cluster's intra tie count: `rescore` updates a score from
them when only edge weights change, and `delta_terms` when a batch adds
nodes or changes edges but leaves connected clusters as they were.
`fitness`, the reference scorer of a Partition, goes through `score_terms`;
the exhaustive oracle scores its own counts through the count functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyPartition, check_version
from .graph import AttributeView, Partition, part_labels

LAMBDA_CUT = 2.5
MU_SMALL = 0.5
SIGMA_SMALL = 2


@dataclass(frozen=True)
class FitnessValue:
    """Scored partition: total plus its three components, for logging."""

    total: float
    closeness_mean: float
    cut_fraction: float
    small_count: int


def density(edges: int, size: int) -> float:
    """Tie density of `size` members with `edges` ties among them, in
    [0, 1]; singletons score 0."""
    return 2 * edges / (size * (size - 1)) if size > 1 else 0.0


def fitness(partition: Partition, view: AttributeView) -> FitnessValue:
    """Score a partition against the view it was built from.

    The partition must carry the view's snapshot version (StaleSnapshot
    otherwise) and must cover the view's active nodes exactly.
    """
    check_version("partition", partition.source_version, view.version)
    if not partition.clusters:
        raise EmptyPartition("fitness of a partition with no clusters")
    labels = partition.labels(view)
    if -1 in labels:
        n = len(labels)
        raise ValueError(f"partition covers {n - labels.count(-1)} of {n} active nodes")
    return score_terms(labels, part_labels(view, labels), view)[0]


def label_sizes(labels: Sequence[int]) -> list[int]:
    """Number of nodes with each label 0..max(labels)."""
    sizes = [0] * (max(labels) + 1)
    for label in labels:
        sizes[label] += 1
    return sizes


def closeness_mean(sizes: Sequence[int], ties_in: Sequence[int], k: int, n: int) -> float:
    """Size-weighted mean closeness over n nodes of clusters 0..k-1 with
    these sizes and intra-cluster tie counts, summed in cluster order."""
    weighted = 0.0
    for ci in range(k):
        s = sizes[ci]
        if s > 1:
            # size * density telescopes to 2T/(s-1)
            weighted += 2.0 * ties_in[ci] / (s - 1)
    return weighted / n


def cut_fraction(weight_in: int, total_weight: int) -> float:
    """Share of the total weight that crosses clusters; 0 with no weight."""
    return (total_weight - weight_in) / total_weight if total_weight > 0 else 0.0


def small_count(part_sizes: Iterable[int]) -> int:
    """Connected parts below SIGMA_SMALL nodes, from the part sizes."""
    return sum(1 for s in part_sizes if s < SIGMA_SMALL)


def total(mean: float, cut: float, small: int, k: int) -> float:
    """Total of k clusters. With small = 0 it is exactly mean - LAMBDA_CUT *
    cut, as x - 0.0 == x; a small count subtracts a y >= 0 from that, and
    fl(x - y) <= x, so the total with small = 0 bounds every other."""
    return mean - LAMBDA_CUT * cut - MU_SMALL * (small / k)


def score_terms(
    labels: Sequence[int], parts: Sequence[int], view: AttributeView
) -> tuple[FitnessValue, int, int, list[int]]:
    """Score a cluster label and a part label (connected part of its cluster)
    per active node, in view order, and return the value with the integer
    terms the edge weights enter through: the cluster count k, the
    intra-cluster aggregated weight and the intra tie count of each
    cluster. k, the weight and the value are all `rescore` needs after a
    weight-only change; `delta_terms` also reads the tie counts. Clusters
    are numbered 0..k-1 in Partition order, which fixes the order closeness
    is summed in."""
    if not labels:
        raise EmptyPartition("fitness of a partition with no clusters")
    sizes = label_sizes(labels)
    k = len(sizes)
    ties_in = [0] * k
    weight_in = 0
    for a, b, w in zip(view.ea, view.eb, view.weights):
        ca = labels[a]
        if ca == labels[b]:
            ties_in[ca] += 1
            weight_in += w

    # edge-removal clusters are their own parts: decode hands the same list
    small = small_count(sizes if parts is labels else label_sizes(parts))
    mean = closeness_mean(sizes, ties_in, k, len(labels))
    return _value(mean, small, k, weight_in, view.total_weight), k, weight_in, ties_in


def delta_terms(
    labels: Sequence[int],
    ties_in: Sequence[int],
    weight_in: int,
    changes: Iterable[tuple[int, int, int, int]],
    view: AttributeView,
) -> tuple[FitnessValue, int, int, list[int]]:
    """`score_terms` of connected clusters `labels` at `view`, counted from
    the tie counts `ties_in` and the intra weight they had at the view
    before a batch: the clusters kept their members there, and a cluster
    past those counts is new and has no ties. `changes`, one (endpoint
    index, endpoint index, tie change, weight change) per edge the batch
    moved (`AttributeView.edge_changes`), move the counts of the edges
    inside a cluster. Equal to a full score."""
    sizes = label_sizes(labels)
    k = len(sizes)
    ties_in = [*ties_in, *[0] * (k - len(ties_in))]
    for a, b, tie, weight in changes:
        c = labels[a]
        if c == labels[b]:
            ties_in[c] += tie
            weight_in += weight
    mean = closeness_mean(sizes, ties_in, k, len(labels))
    value = _value(mean, small_count(sizes), k, weight_in, view.total_weight)
    return value, k, weight_in, ties_in


def rescore(value: FitnessValue, k: int, weight_in: int, total_weight: int) -> FitnessValue:
    """Score of the same clusters after edge weights changed but not which
    edges are active: closeness and the small parts carry over, the cut
    takes the new intra-cluster and total weight. Equal to a full score."""
    return _value(value.closeness_mean, value.small_count, k, weight_in, total_weight)


def _value(mean: float, small: int, k: int, weight_in: int, total_weight: int) -> FitnessValue:
    """The value of k clusters from their counts, for every scorer and the oracle."""
    cut = cut_fraction(weight_in, total_weight)
    return FitnessValue(total(mean, cut, small, k), mean, cut, small)
