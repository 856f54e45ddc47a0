"""Exhaustive partition search for small views.

A depth-first search gives the active nodes cluster labels in view order,
in restricted-growth order: clusters are numbered as in Partition order,
and every set partition is reached exactly once, as a leaf. Each step keeps
the cluster sizes, intra-cluster tie counts and intra-cluster weight up to
date from the edges to earlier nodes only, and a leaf scores them through
fitness's own count functions, at its fixed weights, so every float is the
one `score_terms` gives. The total with no small part bounds a leaf's
total, so a leaf whose bound is below the best total is skipped; only the
rest have their parts labelled, and only one that can win becomes a
Partition.
Bell numbers grow fast (Bell(10) = 115,975), so a cap of 10 nodes by
default protects callers; anything bigger raises TooLarge. This is the
ground truth the GA is checked against.
"""

from __future__ import annotations

from .errors import ConfigInvalid, TooLarge, check_int
from .fitness import (FitnessValue, _value, closeness_mean, cut_fraction, label_sizes,
                      small_count, total)
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


def optimal_partition(
    view: AttributeView, *, n_max: int = DEFAULT_N_MAX
) -> tuple[Partition, FitnessValue]:
    """Best partition of the view's active nodes, by exhaustive search.

    Exact ties fall to fewer clusters, then lexicographic cluster order, so
    the answer is unique and stable.
    """
    n = view.node_count
    if n == 0:
        raise ConfigInvalid("cannot run on an empty view")
    check_int("n_max", n_max)
    if n_max < 0:
        raise ConfigInvalid(f"n_max must be >= 0, got {n_max}")
    if n > n_max:
        raise TooLarge(
            f"{n} nodes exceeds the enumeration cap {n_max} "
            f"(Bell({n_max}) = {bell_number(n_max)})"
        )
    # view pairs are (low, high) and view order is ascending, so eb is the
    # later endpoint: each edge is listed once, at the node placed last
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, w in zip(view.ea, view.eb, view.weights):
        earlier[b].append((a, w))
    total_weight = view.total_weight
    labels = [0] * n
    sizes = [0] * n
    ties_in = [0] * n
    weight_in = 0
    best: Partition | None = None
    best_value: FitnessValue | None = None

    def leaf(k: int) -> None:
        nonlocal best, best_value
        mean = closeness_mean(sizes, ties_in, k, n)
        cut = cut_fraction(weight_in, total_weight)
        # the total with no small part bounds the leaf's total
        if best_value is not None and total(mean, cut, 0, k) < best_value.total:
            return
        small = small_count(label_sizes(part_labels(view, labels)))
        value = _value(mean, small, k, weight_in, total_weight)
        if best_value is not None and value.total < best_value.total:
            return
        part = Partition.from_labels(view, labels)
        if (
            best is None
            or value.total > best_value.total
            or (part.cluster_count, part.clusters) < (best.cluster_count, best.clusters)
        ):
            best, best_value = part, value

    def place(i: int, k: int) -> None:
        """Label node i and every later node; labels 0..k-1 are in use."""
        nonlocal weight_in
        if i == n:
            leaf(k)
            return
        nbrs = earlier[i]
        for c in range(k + 1):
            labels[i] = c
            ties = weight = 0
            for j, w in nbrs:
                if labels[j] == c:
                    ties += 1
                    weight += w
            sizes[c] += 1
            ties_in[c] += ties
            weight_in += weight
            place(i + 1, k + 1 if c == k else k)
            sizes[c] -= 1
            ties_in[c] -= ties
            weight_in -= weight

    place(0, 0)
    return best, best_value
