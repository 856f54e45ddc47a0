"""Chromosome encodings for partition search.

Two schemes. The edge-removal list (default) holds candidate edges to delete;
decoding takes connected components of the view minus those edges, so any
all-connected partition is expressible. The separator chromosome holds a
group count k and k-1 cut positions over the id-ascending node order, giving
contiguous runs; it is cheap but can only express interval partitions.

Repair turns arbitrary gene material into canonical form and is idempotent.
Decoding insists on repaired input and raises UnrepairedChromosome otherwise.
It yields one cluster label per active node, which the GA scores directly;
`decode` wraps them in a Partition where one is needed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Union

from .errors import ConfigInvalid, UnrepairedChromosome
from .graph import AttributeView, Pair, Partition, component_labels, part_labels

EDGE_REMOVAL = "edge-removal"
SEPARATOR = "separator"
SCHEMES = (EDGE_REMOVAL, SEPARATOR)


@dataclass(frozen=True)
class EdgeRemovalChromosome:
    """Variable-length list of edges to delete from the view.

    Order is genetic material (crossover cuts by position), so repair keeps
    first occurrences in place instead of sorting.
    """

    removed: tuple[Pair, ...]

    def __len__(self) -> int:
        return len(self.removed)


@dataclass(frozen=True)
class SeparatorChromosome:
    """Group count k plus k-1 cut positions over the id-ascending node order."""

    k: int
    separators: tuple[int, ...]


Chromosome = Union[EdgeRemovalChromosome, SeparatorChromosome]


def repair_edge_removal(
    chrom: EdgeRemovalChromosome, view: AttributeView
) -> EdgeRemovalChromosome:
    """Normalize pairs, drop edges not active in the view, dedupe keeping the
    first occurrence. Idempotent."""
    seen: set[Pair] = set()
    out: list[Pair] = []
    for a, b in chrom.removed:
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen or key not in view.pair_index:
            continue
        seen.add(key)
        out.append(key)
    return EdgeRemovalChromosome(tuple(out))


def decode_edge_removal(chrom: EdgeRemovalChromosome, view: AttributeView) -> list[int]:
    """Component labels of the view after removing the listed edges."""
    keep = [True] * len(view.pairs)
    for pair in chrom.removed:
        idx = view.pair_index.get(pair)
        if idx is None:
            raise UnrepairedChromosome(f"edge {pair} is not active in this view")
        if not keep[idx]:
            raise UnrepairedChromosome(f"duplicate edge {pair}")
        keep[idx] = False
    return component_labels(view, keep)


def repair_separator(chrom: SeparatorChromosome, node_count: int) -> SeparatorChromosome:
    """Clamp separators into [1, n-1], sort, dedupe, and recompute k. Idempotent."""
    n = node_count
    if n <= 1:
        return SeparatorChromosome(1, ())
    seps = sorted({min(max(int(s), 1), n - 1) for s in chrom.separators})
    return SeparatorChromosome(len(seps) + 1, tuple(seps))


def decode_separator(chrom: SeparatorChromosome, view: AttributeView) -> list[int]:
    """Interval labels: cut the id-ascending active node order at the separators."""
    n = view.node_count
    seps = chrom.separators
    if chrom.k != len(seps) + 1:
        raise UnrepairedChromosome(f"k={chrom.k} does not match {len(seps)} separators")
    prev = 0
    for s in seps:
        if not (1 <= s <= n - 1) or s <= prev:
            raise UnrepairedChromosome(f"separators {seps} not strictly increasing in [1, {n - 1}]")
        prev = s
    return [bisect_right(seps, i) for i in range(n)]


def random_edge_removal(
    view: AttributeView, rng: random.Random, p_init: float = 0.1
) -> EdgeRemovalChromosome:
    """Each active edge joins the removal list independently with prob p_init."""
    return EdgeRemovalChromosome(tuple(p for p in view.pairs if rng.random() < p_init))


def random_separator(
    view: AttributeView, rng: random.Random, k_max: int = 32
) -> SeparatorChromosome:
    """k uniform in [1, min(k_max, n)], separators a sorted distinct sample."""
    n = view.node_count
    if n <= 1:
        return SeparatorChromosome(1, ())
    k = rng.randint(1, min(k_max, n))
    seps = sorted(rng.sample(range(1, n), k - 1))
    return SeparatorChromosome(k, tuple(seps))


def random_chromosome(
    view: AttributeView,
    scheme: str,
    rng: random.Random,
    *,
    p_init: float = 0.1,
    k_max: int = 32,
) -> Chromosome:
    if scheme == EDGE_REMOVAL:
        return random_edge_removal(view, rng, p_init)
    if scheme == SEPARATOR:
        return random_separator(view, rng, k_max)
    raise ConfigInvalid(f"unknown scheme {scheme!r}")


def repair(chrom: Chromosome, view: AttributeView) -> Chromosome:
    if isinstance(chrom, EdgeRemovalChromosome):
        return repair_edge_removal(chrom, view)
    if isinstance(chrom, SeparatorChromosome):
        return repair_separator(chrom, view.node_count)
    raise ConfigInvalid(f"not a chromosome: {chrom!r}")


def carry_over(chrom: Chromosome, view: AttributeView, gone: AbstractSet[Pair]) -> Chromosome:
    """A chromosome canonical for the previous view of a run, made canonical
    for `view`, where `gone` holds the previous view's pairs that are not
    active in `view`. Edge-removal genes lose the pairs in `gone` and the
    chromosome is returned as it is when none of them is listed; separators
    go through `repair_separator`. Equal to `repair` on such input."""
    if isinstance(chrom, EdgeRemovalChromosome):
        if gone.isdisjoint(chrom.removed):
            return chrom
        return EdgeRemovalChromosome(tuple(p for p in chrom.removed if p not in gone))
    if isinstance(chrom, SeparatorChromosome):
        return repair_separator(chrom, view.node_count)
    raise ConfigInvalid(f"not a chromosome: {chrom!r}")


def decode_labels(chrom: Chromosome, view: AttributeView) -> tuple[list[int], list[int]]:
    """Cluster labels and part labels (the connected parts of the clusters).
    Edge-removal clusters are components, so they are their own parts."""
    if isinstance(chrom, EdgeRemovalChromosome):
        labels = decode_edge_removal(chrom, view)
        return labels, labels
    if isinstance(chrom, SeparatorChromosome):
        labels = decode_separator(chrom, view)
        return labels, part_labels(view, labels)
    raise ConfigInvalid(f"not a chromosome: {chrom!r}")


def decode(chrom: Chromosome, view: AttributeView) -> Partition:
    return Partition.from_labels(view, decode_labels(chrom, view)[0])
