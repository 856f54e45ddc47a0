"""Exhaustive partition enumeration and brute-force optimum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    ConfigInvalid,
    Edge,
    GraphSnapshot,
    Partition,
    TooLarge,
    bell_number,
    fitness,
    optimal_partition,
)
from noaga import oracle
from noaga.fitness import LAMBDA_CUT
from noaga.graph import part_labels

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def enumerate_labels(n):
    """All set partitions of n >= 1 elements as restricted-growth label
    tuples, by odometer: the brute-force reference for the oracle's
    depth-first search. The first is all zeros (one cluster), the last is
    0..n-1 (all singletons)."""
    rgs = [0] * n
    while True:
        yield tuple(rgs)
        # bump the rightmost digit allowed to grow, zero the rest
        for i in range(n - 1, 0, -1):
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
        else:
            return


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


def _reference_optimum(view):
    """Every candidate built as a Partition and scored with the reference
    `fitness`; ties go to fewer clusters, then lexicographic clusters. Also
    counts the candidates that can still win when reached in enumeration
    order: those whose closeness_mean - LAMBDA_CUT * cut_fraction is not
    below the best total before them."""
    best = None
    can_win = 0
    for labels in enumerate_labels(view.node_count):
        clusters = [[] for _ in range(max(labels) + 1)]
        for node, label in zip(view.nodes, labels):
            clusters[label].append(node)
        part = Partition(clusters, view.attrs, view.version)
        value = fitness(part, view)
        bound = value.closeness_mean - LAMBDA_CUT * value.cut_fraction
        if best is None or bound >= best[2].total:
            can_win += 1
        key = (-value.total, part.cluster_count, part.clusters)
        if best is None or key < best[0]:
            best = (key, part, value)
    return best[1], best[2], can_win


def _optimum_and_scores(view):
    """`optimal_partition`, plus how many candidates it scored in full: only
    a candidate that can still win has its parts labelled for the small
    count, so the part labelling is what is counted, not the bound."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "part_labels", lambda *a: calls.append(1) or part_labels(*a))
        part, value = optimal_partition(view)
    return part, value, len(calls)


def _view(n, rows):
    edges = [Edge(a, b, (w,)) for a, b, w in rows]
    snap = GraphSnapshot.build(AttributeSchema(("w1",)), edges, extra_nodes=range(1, n + 1))
    return AttributeView(snap)


@st.composite
def oracle_views(draw):
    """Random graphs of up to 8 nodes: a random forest plus chords, so some
    are not connected and some have isolated nodes. Weights often come from
    a narrow set, so that ties come up often. The draws lean to 7 or 8
    nodes, where most of the search is."""
    n = draw(st.integers(1, 8) | st.integers(7, 8))
    forest = {(draw(st.integers(1, b - 1)), b) for b in range(2, n + 1) if draw(st.booleans())}
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chords = set(draw(st.lists(st.sampled_from(pairs), max_size=8))) if pairs else set()
    weights = draw(st.sampled_from([st.just(1), st.sampled_from([1, 2]), st.integers(1, 5)]))
    return _view(n, [(a, b, draw(weights)) for a, b in sorted(forest | chords)])


@settings(max_examples=60, deadline=None)
@given(oracle_views())
def test_label_optimum_matches_reference(view):
    assert _optimum_and_scores(view) == _reference_optimum(view)


@pytest.mark.parametrize(
    "view, winner",
    [
        # two weight-3 triangles and node 7 tied to 3 and 4 by weight 1:
        # {1,2,3,7},{4,5,6} ties {1,2,3},{4,5,6,7} and comes first in
        # enumeration order, but the second is lexicographically first
        (
            _view(7, [(1, 2, 3), (1, 3, 3), (2, 3, 3), (4, 5, 3), (4, 6, 3), (5, 6, 3),
                      (3, 7, 1), (4, 7, 1)]),
            ((1, 2, 3), (4, 5, 6, 7)),
        ),
        # the path 3-1-4-2: one cluster ties {1,3},{2,4}, and fewer clusters win
        (_view(4, [(1, 3, 2), (1, 4, 1), (2, 4, 2)]), ((1, 2, 3, 4),)),
    ],
    ids=["bridged-triangles", "path"],
)
def test_tied_optimum_matches_reference(view, winner):
    part, value, scored = _optimum_and_scores(view)
    assert (part, value, scored) == _reference_optimum(view)
    assert part.clusters == winner
    ties = [
        labels
        for labels in enumerate_labels(view.node_count)
        if fitness(Partition.from_labels(view, labels), view).total == value.total
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


def test_optimum_respects_cap(emails, two_triangle):
    with pytest.raises(TooLarge):
        optimal_partition(emails)
    with pytest.raises(TooLarge):
        optimal_partition(two_triangle, n_max=5)
    with pytest.raises(ConfigInvalid):
        optimal_partition(two_triangle, n_max=-1)
