"""Exhaustive partition enumeration and brute-force optimum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    Edge,
    FitnessParams,
    GraphSnapshot,
    Partition,
    TooLarge,
    bell_number,
    enumerate_labels,
    fitness,
    optimal_partition,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_bell_numbers():
    assert [bell_number(n) for n in range(11)] == BELL
    with pytest.raises(ValueError):
        bell_number(-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_is_complete_and_distinct(n):
    labels = list(enumerate_labels(n))
    assert len(labels) == BELL[n]
    assert len(set(labels)) == BELL[n]
    assert labels[0] == (0,) * n
    assert labels[-1] == tuple(range(n))
    for rgs in labels:
        # restricted growth: each label is at most one above every label before it
        assert rgs[0] == 0
        assert all(rgs[i] <= max(rgs[:i]) + 1 for i in range(1, n))


def test_enumeration_caps():
    with pytest.raises(TooLarge):
        next(enumerate_labels(11))
    with pytest.raises(TooLarge):
        next(enumerate_labels(4, n_max=3))
    with pytest.raises(ValueError):
        next(enumerate_labels(0))


def _reference_optimum(view, params):
    """Every candidate built as a Partition and scored with the reference
    `fitness`; ties go to fewer clusters, then lexicographic clusters."""
    best = None
    for labels in enumerate_labels(view.node_count):
        clusters = [[] for _ in range(max(labels) + 1)]
        for node, label in zip(view.nodes, labels):
            clusters[label].append(node)
        part = Partition(clusters, view.attrs, view.version)
        value = fitness(part, view, params)
        key = (-value.total, part.cluster_count, part.clusters)
        if best is None or key < best[0]:
            best = (key, part, value)
    return best[1], best[2]


def _view(n, rows):
    edges = [Edge(a, b, (w,)) for a, b, w in rows]
    snap = GraphSnapshot.build(AttributeSchema(("w1",)), edges, extra_nodes=range(1, n + 1))
    return AttributeView(snap)


@st.composite
def connected_views(draw):
    """Random connected graphs of up to 7 nodes: a random tree plus chords."""
    n = draw(st.integers(1, 7))
    tree = {(draw(st.integers(1, b - 1)), b) for b in range(2, n + 1)}
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chords = set(draw(st.lists(st.sampled_from(pairs), max_size=6))) if pairs else set()
    return _view(n, [(a, b, draw(st.integers(1, 5))) for a, b in sorted(tree | chords)])


PARAMS = st.builds(
    FitnessParams, st.sampled_from([0.0, 2.5]), st.sampled_from([0.0, 0.5]), st.integers(0, 3)
)


@settings(max_examples=60, deadline=None)
@given(connected_views(), PARAMS)
def test_label_optimum_matches_reference(view, params):
    assert optimal_partition(view, params) == _reference_optimum(view, params)


@pytest.mark.parametrize(
    "view, params",
    [
        # edgeless, nothing small: all 52 candidates score 0, one cluster wins
        (_view(5, []), FitnessParams(2.5, 0.5, 0)),
        # K6 minus (3, 4), closeness only: every split into two cliques
        # ties; {1,2,3,5},{4,6} comes first in enumeration order, but
        # {1,2,3},{4,5,6} is lexicographically first
        (
            _view(6, [(a, b, 2) for a in range(1, 7) for b in range(a + 1, 7) if (a, b) != (3, 4)]),
            FitnessParams(0.0, 0.0, 2),
        ),
    ],
    ids=["edgeless", "k6-minus-edge"],
)
def test_tied_optimum_matches_reference(view, params):
    part, value = optimal_partition(view, params)
    assert (part, value) == _reference_optimum(view, params)
    ties = [
        labels
        for labels in enumerate_labels(view.node_count)
        if fitness(Partition.from_labels(view, labels), view, params).total == value.total
    ]
    assert len(ties) > 1


def test_two_triangle_optimum(two_triangle):
    part, value = optimal_partition(two_triangle)
    assert part.clusters == ((1, 2, 3), (4, 5, 6))
    assert value.total == pytest.approx(0.9)
    assert value.closeness_mean == 1.0
    assert value.cut_fraction == pytest.approx(1 / 25)
    assert value.small_count == 0


def test_optimum_is_deterministic(two_triangle):
    a = optimal_partition(two_triangle)
    b = optimal_partition(two_triangle)
    assert a == b


def test_optimum_respects_cap(emails):
    with pytest.raises(TooLarge):
        optimal_partition(emails)
