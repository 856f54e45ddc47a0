"""Chromosome repair and decode for each encoding scheme, and the scheme
table every encoding choice goes through."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    EDGE_REMOVAL,
    LOCUS,
    SEPARATOR,
    AttributeSchema,
    AttributeView,
    Edge,
    EdgeRemovalChromosome,
    GraphSnapshot,
    LocusChromosome,
    Partition,
    SeparatorChromosome,
    UnrepairedChromosome,
    engine,
)
from noaga.encoding import (
    K_MAX,
    SCHEME_TABLE,
    SCHEMES,
    carry_over_locus,
    decode_edge_removal,
    decode_locus,
    decode_separator,
    random_edge_removal,
    random_separator,
    repair_separator,
)
from noaga.graph import part_labels

from conftest import (
    EMAILS_TARGET,
    REPAIRS,
    TABLE1_VIEWS,
    canonical,
    repair_edge_removal,
    small_views,
    structural_batches,
    to_partition,
)

ER = SCHEME_TABLE[EDGE_REMOVAL]
SEP = SCHEME_TABLE[SEPARATOR]
LOC = SCHEME_TABLE[LOCUS]

views = st.one_of(st.sampled_from(TABLE1_VIEWS), small_views())


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
    whole = to_partition(ER, EdgeRemovalChromosome(()), emails)
    assert whole == Partition((tuple(range(1, 16)),), ("emails",), 0)


def test_decode_edge_removal_rejects_unrepaired(emails):
    with pytest.raises(UnrepairedChromosome):
        decode_edge_removal(EdgeRemovalChromosome(((1, 14),)), emails)
    with pytest.raises(UnrepairedChromosome):
        decode_edge_removal(EdgeRemovalChromosome(((1, 2), (1, 2))), emails)


def _links_within(view, clusters):
    """Locus genes linking each node to its smallest neighbour in its cluster."""
    home = {node: set(cluster) for cluster in clusters for node in cluster}
    links = tuple(
        min((m for m in nbrs if m in home[node]), default=node)
        for node, nbrs in zip(view.nodes, view.neighbours)
    )
    return LocusChromosome(view.nodes, links)


def test_decode_locus_targets(emails):
    chrom = _links_within(emails, EMAILS_TARGET)
    assert to_partition(LOC, chrom, emails).clusters == EMAILS_TARGET
    assert decode_locus(chrom, emails) == [0] * 5 + [1] * 4 + [2] * 6


def test_decode_locus_rejects_unrepaired(emails):
    links = _links_within(emails, EMAILS_TARGET).links
    for bad in (
        LocusChromosome(emails.nodes, (14,) + links[1:]),  # 1 has no tie to 14
        LocusChromosome(emails.nodes, (1,) + links[1:]),  # 1 is no isolate
        LocusChromosome(emails.nodes, links[:-1]),
        LocusChromosome(emails.nodes[::-1], links[::-1]),
    ):
        assert not canonical(LOCUS, bad, emails)
        with pytest.raises(UnrepairedChromosome):
            decode_locus(bad, emails)


def test_carry_over_locus_keeps_links_and_relinks_the_rest(emails):
    # 1 -> 14 is no tie, node 99 is not in the view, nodes 3.. have no gene
    raw = LocusChromosome((2, 1, 99), (3, 14, 1))
    fixed = carry_over_locus(raw, emails, random.Random(7))
    assert fixed.nodes is emails.nodes
    drawn = random.Random(7)
    assert fixed.links == tuple(
        3 if i == 1 else drawn.choice(nbrs) for i, nbrs in enumerate(emails.neighbours)
    )
    rng = random.Random(7)
    assert carry_over_locus(fixed, emails, rng) == fixed
    assert rng.getstate() == random.Random(7).getstate()


def test_isolates_link_to_themselves():
    schema = AttributeSchema(("w1",))
    view = AttributeView(GraphSnapshot.build(schema, [Edge(1, 2, (1,))], extra_nodes=[3]))
    assert view.neighbours == ((2,), (1,), (3,))
    chrom = LOC.random(view, random.Random(0), 0.1)
    assert chrom == LocusChromosome((1, 2, 3), (2, 1, 3))
    assert LOC.mutate(chrom, view, 1.0, random.Random(1)) == chrom
    assert decode_locus(chrom, view) == [0, 0, 1]


@settings(max_examples=100, deadline=None)
@given(view=views, seed=st.integers(0, 2**32))
def test_uniform_crossover_deals_each_gene_to_one_child(view, seed):
    rng = random.Random(seed)
    p1, p2 = LOC.random(view, rng, 0.1), LOC.random(view, rng, 0.1)
    c1, c2 = LOC.crossover(p1, p2, view, rng)
    assert c1.nodes == c2.nodes == view.nodes
    for genes in zip(p1.links, p2.links, c1.links, c2.links):
        assert genes[2:] in (genes[:2], genes[1::-1])


def test_repair_separator_clamps_sorts_dedupes(two_triangle):
    assert two_triangle.node_count == 6
    fixed = repair_separator(SeparatorChromosome(5, (2, 2, 9, 0)), two_triangle)
    assert fixed == SeparatorChromosome(4, (1, 2, 5))
    assert repair_separator(fixed, two_triangle) == fixed


def test_repair_separator_tiny_views():
    schema = AttributeSchema(("w1",))
    for n in (1, 0):
        view = AttributeView(GraphSnapshot.build(schema, [], extra_nodes=range(n)))
        assert view.node_count == n
        assert repair_separator(SeparatorChromosome(9, (3, 4)), view) == SeparatorChromosome(1, ())


def test_decode_separator_slices_node_order(emails):
    assert decode_separator(SeparatorChromosome(3, (5, 9)), emails) == [0] * 5 + [1] * 4 + [2] * 6
    assert to_partition(SEP, SeparatorChromosome(3, (5, 9)), emails).clusters == EMAILS_TARGET
    whole = to_partition(SEP, SeparatorChromosome(1, ()), emails)
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
    assert to_partition(SEP, SeparatorChromosome(1, ()), empty).clusters == ()
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
        chrom = random_separator(emails, rng, 0.1)
        assert 1 <= chrom.k <= min(K_MAX, emails.node_count)
        assert chrom.k == len(chrom.separators) + 1
        decode_separator(chrom, emails)  # already canonical


pair_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40
).map(tuple)


@settings(max_examples=120, deadline=None)
@given(pair_lists)
def test_repair_then_decode_always_valid(emails, pairs):
    fixed = repair_edge_removal(EdgeRemovalChromosome(pairs), emails)
    assert repair_edge_removal(fixed, emails) == fixed
    part = to_partition(ER, fixed, emails)
    assert sorted(part.members()) == list(emails.nodes)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 64), st.lists(st.integers(-5, 25), max_size=10))
def test_separator_repair_always_decodable(emails, k, seps):
    fixed = repair_separator(SeparatorChromosome(k, tuple(seps)), emails)
    assert repair_separator(fixed, emails) == fixed
    part = to_partition(SEP, fixed, emails)
    assert sorted(part.members()) == list(emails.nodes)
    assert part.cluster_count == fixed.k


CHROMOSOME_TYPES = {"EdgeRemovalChromosome", "SeparatorChromosome"}
SCHEME_NAMES = {"EDGE_REMOVAL", "SEPARATOR", EDGE_REMOVAL, SEPARATOR}


def _names(node, wanted):
    """Whether a name, attribute or string constant in `wanted` occurs in `node`."""
    return any(
        (isinstance(n, ast.Name) and n.id in wanted)
        or (isinstance(n, ast.Attribute) and n.attr in wanted)
        or (isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in wanted)
        for n in ast.walk(node)
    )


def _exempt(tree):
    """The nodes of the scheme table and of GAConfig.__post_init__."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "SCHEME_TABLE" for t in targets):
                roots.append(node)
        elif isinstance(node, ast.ClassDef) and node.name == "GAConfig":
            roots += [f for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
    return {id(n) for root in roots for n in ast.walk(root)}


def test_encoding_choice_lives_in_the_table():
    # an encoding is picked only through its record, so a new one touches
    # one table entry, not every operation that handles a chromosome
    found = []
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = _exempt(tree)
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and _names(node.args[1], CHROMOSOME_TYPES)):
                found.append(f"{path.name}:{node.lineno}: isinstance on a chromosome type")
            if isinstance(node, ast.Compare) and any(
                _names(operand, SCHEME_NAMES) for operand in (node.left, *node.comparators)
            ):
                found.append(f"{path.name}:{node.lineno}: comparison with a scheme name")
        # a type() result may only be tested with `is`, never used as a key
        tested = {id(n.left) for n in ast.walk(tree)
                  if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.Is)}
        found += [
            f"{path.name}:{node.lineno}: type() used as a lookup key"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type" and id(node) not in tested
        ]
    assert found == []


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=100, deadline=None)
@given(view=views, p_init=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(0, 2**32),
       data=st.data())
def test_scheme_records_keep_chromosomes_canonical(name, view, p_init, seed, data):
    # every record's operators, checked through the table: a new record
    # gets these checks without new test code
    scheme = SCHEME_TABLE[name]
    rng = random.Random(seed)
    p1, p2 = (scheme.random(view, rng, p_init) for _ in range(2))
    made = [p1, p2, *scheme.crossover(p1, p2, view, rng)]
    made += [scheme.mutate(chrom, view, rate, rng) for chrom in made for rate in (0.0, 0.1, 1.0)]
    for chrom in made:
        assert canonical(name, chrom, view)
        labels = scheme.decode(chrom, view)
        assert len(labels) == view.node_count
        if scheme.connected:
            assert part_labels(view, labels) == labels
    snapshot = view.base
    for ev in data.draw(structural_batches(view)):
        snapshot = snapshot.apply(ev)
    new = AttributeView(snapshot, view.attrs, view.aggregation)
    for chrom in made:
        drawn = rng.getstate()
        carried = scheme.carry_over(chrom, new, rng)
        assert canonical(name, carried, new)
        if name in REPAIRS and rng.getstate() == drawn:
            # a carry-over that draws nothing is the repair
            assert carried == REPAIRS[name](chrom, new)
