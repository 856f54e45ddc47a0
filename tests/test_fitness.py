"""Fitness scoring: closeness, cut fraction, small-part penalty."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noaga
from noaga import (
    AttributeSchema,
    AttributeView,
    Edge,
    EmptyPartition,
    FitnessValue,
    GraphSnapshot,
    LocusChromosome,
    Partition,
    SeparatorChromosome,
    StaleSnapshot,
    UnknownNode,
    fitness,
)
from noaga.analysis import cluster_stats
from noaga.encoding import SCHEME_TABLE
from noaga.fitness import density, score_terms
from noaga.graph import part_labels

from conftest import (
    COMMENTS_TARGET,
    COMMENTS_TOTAL,
    EMAILS_TARGET,
    EMAILS_TOTAL,
    POSTS_TARGET,
    POSTS_TOTAL,
    TABLE1_VIEWS,
    canonical_of,
    components,
    raw_chromosomes,
    small_views,
)


def triangle_view(w=4):
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [Edge(a, b, (w,)) for a, b in [(1, 2), (1, 3), (2, 3)]])
    return AttributeView(snap)


def test_closeness_values(emails):
    # each cluster's closeness as the partition file gets it: the density
    # of the intra-cluster tie count cluster_stats gives
    def closeness(*clusters):
        part = Partition(clusters, emails.attrs, emails.version)
        return [density(edges, len(c)) for c, (edges, _, _) in
                zip(part.clusters, cluster_stats(part, emails))]

    assert closeness((1, 2, 3, 4, 5), (6, 7, 8, 9)) == [0.8, 1.0]
    assert closeness((1,), (2, 14)) == [0.0, 0.0]


def test_triangle_one_cluster_is_perfect():
    view = triangle_view()
    value = fitness(Partition(((1, 2, 3),), ("w1",), 0), view)
    assert value == FitnessValue(1.0, 1.0, 0.0, 0)


def test_triangle_split_pays_cut_and_small():
    view = triangle_view()
    value = fitness(Partition(((1, 2), (3,)), ("w1",), 0), view)
    # closeness_mean 2/3, cut 8/12, one small part in two clusters
    assert value.closeness_mean == pytest.approx(2 / 3)
    assert value.cut_fraction == pytest.approx(2 / 3)
    assert value.small_count == 1
    assert value.total == pytest.approx(-1.25)


def test_frozen_totals(emails, posts, comments):
    for view, target, expect in (
        (emails, EMAILS_TARGET, EMAILS_TOTAL),
        (posts, POSTS_TARGET, POSTS_TOTAL),
        (comments, COMMENTS_TARGET, COMMENTS_TOTAL),
    ):
        value = fitness(Partition(target, view.attrs, 0), view)
        assert value.total == expect
        assert value.small_count == 0


def test_total_invariant_under_weight_scaling(sample, emails):
    scaled = GraphSnapshot.build(
        sample.schema,
        [Edge(a, b, tuple(7 * x for x in w)) for (a, b), w in sample.edges.items()],
    )
    sview = AttributeView(scaled, ("emails",))
    base = fitness(Partition(EMAILS_TARGET, ("emails",), 0), emails)
    big = fitness(Partition(EMAILS_TARGET, ("emails",), 0), sview)
    assert big == base


def test_version_mismatch_raises(emails):
    stale = Partition(EMAILS_TARGET, ("emails",), source_version=3)
    with pytest.raises(StaleSnapshot):
        fitness(stale, emails)


def test_empty_partition_raises(emails):
    bad = Partition((), ("emails",), 0)
    with pytest.raises(EmptyPartition):
        fitness(bad, emails)


def test_partial_cover_raises(emails):
    with pytest.raises(ValueError):
        fitness(Partition(((1, 2, 3),), ("emails",), 0), emails)
    with pytest.raises(UnknownNode):
        fitness(Partition((tuple(range(1, 16)) + (99,),), ("emails",), 0), emails)


def test_edgeless_view_scores_small_penalty_only():
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [], extra_nodes=[1, 2, 3])
    view = AttributeView(snap)
    value = fitness(Partition(((1,), (2,), (3,)), ("w1",), 0), view)
    assert value.closeness_mean == 0.0
    assert value.cut_fraction == 0.0
    assert value.small_count == 3
    assert value.total == -0.5


def test_small_penalty_counts_parts_not_clusters():
    # 1-2 linked, 3 isolated: gluing 3 into the pair still leaves a small part
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [Edge(1, 2, (1,))], extra_nodes=[3])
    view = AttributeView(snap)
    glued = fitness(Partition(((1, 2, 3),), ("w1",), 0), view)
    assert glued.small_count == 1
    apart = fitness(Partition(((1, 2), (3,)), ("w1",), 0), view)
    assert apart.small_count == 1
    # parting it off is strictly better: same penalty, better closeness
    assert apart.total > glued.total


def _reference_clusters(chrom, view):
    """Clusters worked out without the label code: node-order slices for a
    separator chromosome, a graph search over the kept edges for edge
    removal and over the gene links for locus."""
    if isinstance(chrom, SeparatorChromosome):
        bounds = (0, *chrom.separators, view.node_count)
        return [view.nodes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if isinstance(chrom, LocusChromosome):
        links = zip(chrom.nodes, chrom.links)
    else:
        removed = set(chrom.removed)
        links = (pair for pair in view.pairs if pair not in removed)
    adj = {n: set() for n in view.nodes}
    for a, b in links:
        adj[a].add(b)
        adj[b].add(a)
    seen, clusters = set(), []
    for start in view.nodes:
        if start in seen:
            continue
        seen.add(start)
        stack, cluster = [start], []
        while stack:
            node = stack.pop()
            cluster.append(node)
            fresh = [m for m in adj[node] if m not in seen]
            seen.update(fresh)
            stack += fresh
        clusters.append(cluster)
    return clusters


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(TABLE1_VIEWS), small_views()),
    raw_chromosomes,
)
def test_label_score_matches_reference(view, raw):
    # the GA scores labels; the reference path decodes a Partition and scores that
    name, raw = raw
    record = SCHEME_TABLE[name]
    chrom = canonical_of(name, raw, view)
    labels = record.decode(chrom, view)
    parts = labels if record.connected else part_labels(view, labels)
    part = Partition.from_labels(view, labels)
    assert part == Partition(_reference_clusters(chrom, view), view.attrs, view.version)
    # clusters are numbered by smallest member, the Partition's own order
    assert list(dict.fromkeys(labels)) == list(range(part.cluster_count))
    assert score_terms(labels, parts, view)[0] == fitness(part, view)


def test_component_ranges(emails):
    # every split of the sample stays within the algebraic bounds
    import itertools

    for removal in itertools.combinations([(4, 7), (5, 6), (8, 14), (6, 10), (1, 2)], 2):
        part = components(emails, removal)
        v = fitness(part, emails)
        assert 0.0 <= v.closeness_mean <= 1.0
        assert 0.0 <= v.cut_fraction <= 1.0
        assert v.total <= 1.0


WEIGHTS = ("LAMBDA_CUT", "MU_SMALL", "SIGMA_SMALL")


def _echoes(tree: ast.Module) -> set[int]:
    """ids of the weight names that are dict values under their own
    lowercase name, as in a meta block's "lambda_cut": LAMBDA_CUT."""
    return {
        id(value)
        for d in ast.walk(tree) if isinstance(d, ast.Dict)
        for key, value in zip(d.keys, d.values)
        if isinstance(value, ast.Name) and value.id in WEIGHTS
        and isinstance(key, ast.Constant) and key.value == value.id.lower()
    }


def test_scoring_rules_live_in_one_place():
    # the formula's weights are read only where the formula is written, and
    # the CLI only echoes them into meta, so the oracle cannot drift from
    # fitness; every stale check goes through one helper
    weights, stale = [], []
    for path in sorted(Path(noaga.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        if path.name == "cli.py":
            echoes = _echoes(tree)
            weights += [
                f"cli.py:{node.lineno}: {node.id}" for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in WEIGHTS and id(node) not in echoes
            ]
        elif path.name != "fitness.py":
            weights += [f"{path.name}: {w}" for name in WEIGHTS for w in (name, name.lower())
                        if w in text]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "StaleSnapshot":
                    stale.append(f"{path.name}:{node.lineno}")
    assert weights == []
    assert len(stale) == 1, stale
