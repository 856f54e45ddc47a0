"""Fitness scoring: closeness, cut fraction, small-part penalty."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    ConfigInvalid,
    Edge,
    EmptyPartition,
    FitnessParams,
    FitnessValue,
    GraphSnapshot,
    Partition,
    SeparatorChromosome,
    StaleSnapshot,
    UnknownNode,
    closeness,
    connected_components,
    encoding,
    fitness,
)
from noaga.errors import EmptyCluster
from noaga.fitness import score

from conftest import (
    COMMENTS_TARGET,
    COMMENTS_TOTAL,
    EMAILS_TARGET,
    EMAILS_TOTAL,
    POSTS_TARGET,
    POSTS_TOTAL,
    TABLE1_VIEWS,
    raw_chromosomes,
    small_views,
)


def triangle_view(w=4):
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [Edge(a, b, (w,)) for a, b in [(1, 2), (1, 3), (2, 3)]])
    return AttributeView(snap)


def test_params_validation():
    p = FitnessParams()
    assert (p.lambda_cut, p.mu_small, p.sigma_small) == (2.5, 0.5, 2)
    with pytest.raises(ConfigInvalid):
        FitnessParams(lambda_cut=-1)
    with pytest.raises(ConfigInvalid):
        FitnessParams(mu_small=float("nan"))
    with pytest.raises(ConfigInvalid):
        FitnessParams(lambda_cut=float("inf"))
    with pytest.raises(ConfigInvalid):
        FitnessParams(sigma_small=-2)


def test_closeness_values(emails):
    assert closeness((1, 2, 3, 4, 5), emails) == 0.8
    assert closeness((6, 7, 8, 9), emails) == 1.0
    assert closeness((1,), emails) == 0.0
    assert closeness((1, 14), emails) == 0.0
    with pytest.raises(EmptyCluster):
        closeness((), emails)
    with pytest.raises(UnknownNode):
        closeness((1, 99), emails)


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
    separator chromosome, a graph search for edge removal."""
    if isinstance(chrom, SeparatorChromosome):
        bounds = (0, *chrom.separators, view.node_count)
        return [view.nodes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    removed = set(chrom.removed)
    adj = {n: [] for n in view.nodes}
    for a, b in view.pairs:
        if (a, b) not in removed:
            adj[a].append(b)
            adj[b].append(a)
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
    st.builds(FitnessParams, st.sampled_from([0.0, 2.5]), st.sampled_from([0.0, 0.5]),
              st.integers(0, 4)),
)
def test_label_score_matches_reference(view, raw, params):
    # the GA scores labels; the reference path decodes a Partition and scores that
    chrom = encoding.repair(raw, view)
    labels, parts = encoding.decode_labels(chrom, view)
    part = encoding.decode(chrom, view)
    assert part == Partition(_reference_clusters(chrom, view), view.attrs, view.version)
    # clusters are numbered by smallest member, the Partition's own order
    assert list(dict.fromkeys(labels)) == list(range(part.cluster_count))
    assert score(labels, parts, view, params) == fitness(part, view, params)


def test_component_ranges(emails):
    # every split of the sample stays within the algebraic bounds
    import itertools

    for removal in itertools.combinations([(4, 7), (5, 6), (8, 14), (6, 10), (1, 2)], 2):
        part = connected_components(emails, removal)
        v = fitness(part, emails)
        assert 0.0 <= v.closeness_mean <= 1.0
        assert 0.0 <= v.cut_fraction <= 1.0
        assert v.total <= 1.0
