"""Chromosome repair and decode for both encoding schemes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    EDGE_REMOVAL,
    SEPARATOR,
    AttributeSchema,
    AttributeView,
    EdgeRemovalChromosome,
    GraphSnapshot,
    Partition,
    SeparatorChromosome,
    UnrepairedChromosome,
    decode,
    random_chromosome,
    repair,
)
from noaga.encoding import (
    decode_edge_removal,
    decode_separator,
    random_edge_removal,
    random_separator,
    repair_edge_removal,
    repair_separator,
)
from noaga.errors import ConfigInvalid

from conftest import EMAILS_TARGET


def test_repair_edge_removal_dedupes_keeping_first(emails):
    chrom = EdgeRemovalChromosome(((7, 4), (1, 2), (4, 7), (99, 100), (5, 5), (5, 6)))
    fixed = repair_edge_removal(chrom, emails)
    assert fixed.removed == ((4, 7), (1, 2), (5, 6))
    assert repair_edge_removal(fixed, emails) == fixed
    assert len(fixed) == 3


def test_decode_edge_removal_targets(emails):
    chrom = EdgeRemovalChromosome(((4, 7), (5, 6), (8, 14), (6, 10)))
    part = Partition.from_labels(emails, decode_edge_removal(chrom, emails))
    assert part.clusters == EMAILS_TARGET


def test_decode_edge_removal_rejects_unrepaired(emails):
    with pytest.raises(UnrepairedChromosome):
        decode_edge_removal(EdgeRemovalChromosome(((1, 14),)), emails)
    with pytest.raises(UnrepairedChromosome):
        decode_edge_removal(EdgeRemovalChromosome(((1, 2), (1, 2))), emails)


def test_repair_separator_clamps_sorts_dedupes():
    fixed = repair_separator(SeparatorChromosome(5, (2, 2, 9, 0)), node_count=6)
    assert fixed == SeparatorChromosome(4, (1, 2, 5))
    assert repair_separator(fixed, 6) == fixed


def test_repair_separator_tiny_views():
    assert repair_separator(SeparatorChromosome(9, (3, 4)), 1) == SeparatorChromosome(1, ())
    assert repair_separator(SeparatorChromosome(9, (3, 4)), 0) == SeparatorChromosome(1, ())


def test_decode_separator_slices_node_order(emails):
    assert decode_separator(SeparatorChromosome(3, (5, 9)), emails) == [0] * 5 + [1] * 4 + [2] * 6
    assert decode(SeparatorChromosome(3, (5, 9)), emails).clusters == EMAILS_TARGET
    whole = decode(SeparatorChromosome(1, ()), emails)
    assert whole.clusters == (tuple(range(1, 16)),)


def test_decode_separator_rejects_unrepaired(emails):
    with pytest.raises(UnrepairedChromosome):
        decode_separator(SeparatorChromosome(3, (5,)), emails)
    with pytest.raises(UnrepairedChromosome):
        decode_separator(SeparatorChromosome(3, (9, 5)), emails)
    with pytest.raises(UnrepairedChromosome):
        decode_separator(SeparatorChromosome(3, (5, 15)), emails)
    with pytest.raises(UnrepairedChromosome):
        decode_separator(SeparatorChromosome(2, (0,)), emails)
    empty = AttributeView(GraphSnapshot.build(AttributeSchema(("w1",)), []))
    assert decode(SeparatorChromosome(1, ()), empty).clusters == ()
    with pytest.raises(UnrepairedChromosome):
        decode_separator(SeparatorChromosome(2, (1,)), empty)


def test_random_edge_removal_probabilities(emails):
    rng = random.Random(1)
    sizes = [len(random_edge_removal(emails, rng, p_init=0.1)) for _ in range(400)]
    mean = sum(sizes) / len(sizes)
    assert 2.0 < mean < 3.6  # expected 2.8 on 28 edges
    assert len(random_edge_removal(emails, rng, p_init=0.0)) == 0
    assert len(random_edge_removal(emails, rng, p_init=1.0)) == 28


def test_random_separator_bounds(emails):
    rng = random.Random(2)
    for _ in range(200):
        chrom = random_separator(emails, rng, k_max=6)
        assert 1 <= chrom.k <= 6
        assert chrom.k == len(chrom.separators) + 1
        decode_separator(chrom, emails)  # already canonical


def test_dispatchers(emails):
    rng = random.Random(3)
    er = random_chromosome(emails, EDGE_REMOVAL, rng)
    assert isinstance(er, EdgeRemovalChromosome)
    sep = random_chromosome(emails, SEPARATOR, rng)
    assert isinstance(sep, SeparatorChromosome)
    assert repair(er, emails) == er
    assert repair(sep, emails) == sep
    decode(er, emails)
    decode(sep, emails)
    with pytest.raises(ConfigInvalid):
        random_chromosome(emails, "bitmask", rng)
    with pytest.raises(ConfigInvalid):
        repair("junk", emails)
    with pytest.raises(ConfigInvalid):
        decode("junk", emails)


pair_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40
).map(tuple)


@settings(max_examples=120, deadline=None)
@given(pair_lists)
def test_repair_then_decode_always_valid(emails, pairs):
    fixed = repair(EdgeRemovalChromosome(pairs), emails)
    assert repair(fixed, emails) == fixed
    part = decode(fixed, emails)
    assert sorted(part.members()) == list(emails.nodes)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 64), st.lists(st.integers(-5, 25), max_size=10))
def test_separator_repair_always_decodable(emails, k, seps):
    fixed = repair(SeparatorChromosome(k, tuple(seps)), emails)
    assert repair(fixed, emails) == fixed
    part = decode(fixed, emails)
    assert sorted(part.members()) == list(emails.nodes)
    assert part.cluster_count == fixed.k
