"""Chromosome encodings for partition search.

Each encoding is one `Scheme` record in `SCHEME_TABLE`, and `SCHEMES` lists
their names. A record holds the operators of one chromosome type (random,
crossover, mutate, decode to labels, carry_over to a run's next view) and
whether its clusters are connected. The record is the only way to an
operator: the engine and every other caller look it up by scheme name,
never by a chromosome's type, so a new encoding is one record plus its
operators, which sit next to its chromosome type.

The locus chromosome (default; Park & Song 1998, as in GA-Net) gives each
node one gene naming a neighbour it links to; decoding takes the connected
components of those links, so any all-connected partition is expressible,
and its operators walk one gene per node. The edge-removal list holds
edges to delete; decoding takes the connected components of the view minus
those edges, which expresses the same partitions with one gene per
removed edge. The separator chromosome holds a group count k and k-1
cut positions over the id-ascending node order: contiguous runs, cheap but
only interval partitions; a random one has at most `K_MAX` groups. The
operators make canonical chromosomes from canonical ones, and decoding
raises UnrepairedChromosome on anything else; the separator operators get
there through `repair_separator`, which makes any separator gene material
canonical and is idempotent.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Union

from .errors import UnrepairedChromosome
from .graph import AttributeView, Pair, component_labels

EDGE_REMOVAL = "edge-removal"
SEPARATOR = "separator"
LOCUS = "locus"
K_MAX = 32  # most groups a random separator chromosome starts with


@dataclass(frozen=True)
class EdgeRemovalChromosome:
    """Variable-length list of edges to delete from the view.

    Canonical: distinct (low, high) pairs active in the view. Order is
    genetic material (crossover cuts by position), so the operators keep
    first occurrences in place instead of sorting.
    """

    removed: tuple[Pair, ...]

    def __len__(self) -> int:
        return len(self.removed)


def random_edge_removal(
    view: AttributeView, rng: random.Random, p_init: float
) -> EdgeRemovalChromosome:
    """Each active edge joins the removal list independently with prob p_init."""
    return EdgeRemovalChromosome(tuple(p for p in view.pairs if rng.random() < p_init))


def single_point_crossover(
    p1: EdgeRemovalChromosome, p2: EdgeRemovalChromosome, view: AttributeView, rng: random.Random
) -> tuple[EdgeRemovalChromosome, EdgeRemovalChromosome]:
    """Splice prefix of one parent onto suffix of the other.

    Cut points are drawn independently per parent (a shared index is
    undefined when lengths differ). Parents must be canonical for `view`;
    a child keeps the first occurrence of a repeated edge.
    """
    r1, r2 = p1.removed, p2.removed
    cut1 = rng.randint(0, len(r1))
    cut2 = rng.randint(0, len(r2))
    return (
        EdgeRemovalChromosome(tuple(dict.fromkeys(r1[:cut1] + r2[cut2:]))),
        EdgeRemovalChromosome(tuple(dict.fromkeys(r2[:cut2] + r1[cut1:]))),
    )


def _draw_unlisted(view: AttributeView, listed: set, rng: random.Random):
    """Random active edge not already in the list; None after 8 misses.

    Rejection sampling keeps this O(1) on big graphs; with the usual short
    removal lists a miss is rare, and a None simply skips the insertion.
    """
    pairs = view.pairs
    if not pairs:
        return None
    for _ in range(8):
        p = pairs[rng.randrange(len(pairs))]
        if p not in listed:
            return p
    return None


def mutate_edge_removal(
    chrom: EdgeRemovalChromosome, view: AttributeView, rate: float, rng: random.Random
) -> EdgeRemovalChromosome:
    """Not repaired: decode rejects the mutant of a non-canonical parent."""
    # kept genes are distinct and never drawn, so only a draw can repeat one
    listed = set(chrom.removed)
    drawn: set = set()
    out: list = []
    for gene in chrom.removed:
        if rng.random() < rate:
            if rng.random() < 0.5:
                continue  # drop the removal
            repl = _draw_unlisted(view, listed, rng)
            if repl is None:
                out.append(gene)
            elif repl not in drawn:
                drawn.add(repl)
                out.append(repl)
        else:
            out.append(gene)
    # growth move: without it the empty chromosome would be absorbing
    if rng.random() < rate:
        extra = _draw_unlisted(view, listed, rng)
        if extra is not None and extra not in drawn:
            out.append(extra)
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
    return component_labels(len(view.nodes), compress(zip(view.ea, view.eb), keep))


def carry_over_edge_removal(
    chrom: EdgeRemovalChromosome, view: AttributeView, rng: random.Random
) -> EdgeRemovalChromosome:
    """Drop the genes not active in `view`; the chromosome itself when all
    are. Draws nothing."""
    active = view.pair_index
    if all(map(active.__contains__, chrom.removed)):
        return chrom
    return EdgeRemovalChromosome(tuple(p for p in chrom.removed if p in active))


@dataclass(frozen=True)
class LocusChromosome:
    """One gene per active node: `links[i]` is the node id that node
    `nodes[i]` links to, a neighbour in the view, or the node itself when
    it is an isolate. `nodes` is the node order of the view the genes were
    made for, the view's own `nodes` tuple, so genes stay attached to their
    node ids when a later view adds or drops nodes."""

    nodes: tuple[int, ...]
    links: tuple[int, ...]


def random_locus(view: AttributeView, rng: random.Random, p_init: float) -> LocusChromosome:
    """Each node links to a uniformly drawn neighbour."""
    return LocusChromosome(view.nodes, tuple(map(rng.choice, view.neighbours)))


def uniform_crossover(
    p1: LocusChromosome, p2: LocusChromosome, view: AttributeView, rng: random.Random
) -> tuple[LocusChromosome, LocusChromosome]:
    """Swap each gene between the parents with probability 0.5, one random
    bit per gene."""
    g1, g2 = p1.links, p2.links
    swaps = format(rng.getrandbits(len(g1)), f"0{len(g1)}b")
    return (
        LocusChromosome(p1.nodes, tuple(b if s == "1" else a for a, b, s in zip(g1, g2, swaps))),
        LocusChromosome(p2.nodes, tuple(a if s == "1" else b for a, b, s in zip(g1, g2, swaps))),
    )


def mutate_locus(
    chrom: LocusChromosome, view: AttributeView, rate: float, rng: random.Random
) -> LocusChromosome:
    """Each gene, with probability `rate`, links to a uniformly drawn
    neighbour. Not repaired: decode rejects the mutant of a non-canonical
    parent."""
    draw, choice = rng.random, rng.choice
    return LocusChromosome(chrom.nodes, tuple(
        choice(nbrs) if draw() < rate else gene
        for gene, nbrs in zip(chrom.links, view.neighbours)
    ))


def decode_locus(chrom: LocusChromosome, view: AttributeView) -> list[int]:
    """Component labels of the view's nodes over the links the genes name."""
    table = view.neighbours
    if chrom.nodes is not view.nodes and chrom.nodes != view.nodes:
        raise UnrepairedChromosome("genes follow another view's node order")
    if len(chrom.links) != len(table) or not all(map(tuple.__contains__, table, chrom.links)):
        raise UnrepairedChromosome("a gene names no neighbour of its node")
    index = view.node_index
    return component_labels(len(table), enumerate(map(index.__getitem__, chrom.links)))


def carry_over_locus(
    chrom: LocusChromosome, view: AttributeView, rng: random.Random
) -> LocusChromosome:
    """The genes on `view`'s node order: keep each gene whose link is still
    a neighbour there (an isolate: itself); draw a neighbour for one whose
    link left and for a node new to the view."""
    given = dict(zip(chrom.nodes, chrom.links))
    return LocusChromosome(view.nodes, tuple(
        gene if gene in nbrs else rng.choice(nbrs)
        for gene, nbrs in zip(map(given.get, view.nodes), view.neighbours)
    ))


@dataclass(frozen=True)
class SeparatorChromosome:
    """Group count k plus k-1 cut positions over the id-ascending node order."""

    k: int
    separators: tuple[int, ...]


def random_separator(
    view: AttributeView, rng: random.Random, p_init: float
) -> SeparatorChromosome:
    """k uniform in [1, min(K_MAX, n)], separators a sorted distinct sample."""
    n = view.node_count
    if n <= 1:
        return SeparatorChromosome(1, ())
    k = rng.randint(1, min(K_MAX, n))
    seps = sorted(rng.sample(range(1, n), k - 1))
    return SeparatorChromosome(k, tuple(seps))


def repair_separator(chrom: SeparatorChromosome, view: AttributeView) -> SeparatorChromosome:
    """Clamp separators into [1, n-1], sort, dedupe, and recompute k. Idempotent."""
    n = view.node_count
    if n <= 1:
        return SeparatorChromosome(1, ())
    seps = sorted({min(max(int(s), 1), n - 1) for s in chrom.separators})
    return SeparatorChromosome(len(seps) + 1, tuple(seps))


def swap_crossover(
    p1: SeparatorChromosome, p2: SeparatorChromosome, view: AttributeView, rng: random.Random
) -> tuple[SeparatorChromosome, SeparatorChromosome]:
    """Swap the k fields with p=0.5 and each aligned separator with p=0.5.

    Repair then reconciles k with the separator count, so a lone k swap is
    absorbed; the separator exchanges carry the genetic material.
    """
    k1, k2 = p1.k, p2.k
    s1, s2 = list(p1.separators), list(p2.separators)
    if rng.random() < 0.5:
        k1, k2 = k2, k1
    for i in range(min(len(s1), len(s2))):
        if rng.random() < 0.5:
            s1[i], s2[i] = s2[i], s1[i]
    return (
        repair_separator(SeparatorChromosome(k1, tuple(s1)), view),
        repair_separator(SeparatorChromosome(k2, tuple(s2)), view),
    )


def mutate_separator(
    chrom: SeparatorChromosome, view: AttributeView, rate: float, rng: random.Random
) -> SeparatorChromosome:
    n = view.node_count
    if n <= 1:
        return SeparatorChromosome(1, ())
    seps = [rng.randint(1, n - 1) if rng.random() < rate else s for s in chrom.separators]
    if rng.random() < rate:  # k + 1: draw one more cut
        if len(seps) < n - 1:
            seps.append(rng.randint(1, n - 1))
    if rng.random() < rate:  # k - 1: drop a random cut
        if seps:
            seps.pop(rng.randrange(len(seps)))
    return repair_separator(SeparatorChromosome(len(seps) + 1, tuple(seps)), view)


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


def carry_over_separator(
    chrom: SeparatorChromosome, view: AttributeView, rng: random.Random
) -> SeparatorChromosome:
    """`repair_separator`; draws nothing."""
    return repair_separator(chrom, view)


Chromosome = Union[EdgeRemovalChromosome, LocusChromosome, SeparatorChromosome]


@dataclass(frozen=True)
class Scheme:
    """One encoding: the operators of its chromosome type, which all but
    `random` apply to canonical chromosomes only. `carry_over`
    makes a chromosome canonical for the run's previous view canonical for
    the new one; it may draw from the run's RNG.
    `connected`: decoded clusters are connected, so they are their own parts."""

    random: Callable[..., Chromosome]  # (view, rng, p_init): edge-removal's alone uses p_init
    crossover: Callable[..., tuple[Chromosome, Chromosome]]  # (p1, p2, view, rng)
    mutate: Callable[..., Chromosome]  # (chrom, view, rate, rng)
    decode: Callable[..., list[int]]  # (chrom, view): a label per active node, in view order
    carry_over: Callable[..., Chromosome]  # (chrom, view, rng)
    connected: bool


SCHEME_TABLE: dict[str, Scheme] = {
    EDGE_REMOVAL: Scheme(
        random_edge_removal, single_point_crossover, mutate_edge_removal,
        decode_edge_removal, carry_over_edge_removal, connected=True,
    ),
    SEPARATOR: Scheme(
        random_separator, swap_crossover, mutate_separator,
        decode_separator, carry_over_separator, connected=False,
    ),
    LOCUS: Scheme(
        random_locus, uniform_crossover, mutate_locus,
        decode_locus, carry_over_locus, connected=True,
    ),
}
SCHEMES = tuple(SCHEME_TABLE)
