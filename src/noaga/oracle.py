"""Exhaustive partition search for small views.

Enumerates every set partition of the active nodes as a restricted-growth
string: a cluster label per node, numbered in Partition cluster order, so
it is scored as it is and only a candidate that can win becomes a
Partition. Bell numbers grow fast (Bell(10) = 115,975), so a hard node cap
protects callers; anything bigger raises TooLarge. This is the ground
truth the GA is checked against.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ConfigInvalid, TooLarge
from .fitness import FitnessParams, FitnessValue, score
from .graph import AttributeView, Partition, part_labels

DEFAULT_N_MAX = 10


def bell_number(n: int) -> int:
    """Number of set partitions of n elements, via the Bell triangle."""
    if n < 0:
        raise ValueError(f"bell_number of {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def enumerate_labels(n: int, *, n_max: int = DEFAULT_N_MAX) -> Iterator[tuple[int, ...]]:
    """All set partitions of n elements as restricted-growth label tuples.

    The first is all zeros (one cluster), the last is 0..n-1 (all
    singletons).
    """
    if n == 0:
        raise ValueError("no nodes to partition")
    if n_max < 0:
        raise ConfigInvalid(f"n_max must be >= 0, got {n_max}")
    if n > n_max:
        raise TooLarge(
            f"{n} nodes exceeds the enumeration cap {n_max} "
            f"(Bell({n_max}) = {bell_number(n_max)})"
        )
    rgs = [0] * n
    while True:
        yield tuple(rgs)
        # odometer: bump the rightmost digit allowed to grow, zero the rest
        for i in range(n - 1, 0, -1):
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
        else:
            return


def optimal_partition(
    view: AttributeView,
    params: FitnessParams | None = None,
    n_max: int = DEFAULT_N_MAX,
) -> tuple[Partition, FitnessValue]:
    """Brute-force best partition of the view's active nodes.

    Exact ties fall to fewer clusters, then lexicographic cluster order, so
    the answer is unique and stable.
    """
    if params is None:
        params = FitnessParams()
    if view.node_count == 0:
        raise ConfigInvalid("cannot run on an empty view")
    best: Partition | None = None
    best_value: FitnessValue | None = None
    for labels in enumerate_labels(view.node_count, n_max=n_max):
        value = score(labels, part_labels(view, labels), view, params)
        if best_value is not None and value.total < best_value.total:
            continue
        part = Partition.from_labels(view, labels)
        if (
            best is None
            or value.total > best_value.total
            or (part.cluster_count, part.clusters) < (best.cluster_count, best.clusters)
        ):
            best, best_value = part, value
    return best, best_value
