"""NoA selection, linkage nodes, overlays, merge signals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    Edge,
    GraphSnapshot,
    MergeSignal,
    NoARecord,
    OverlayCell,
    Partition,
    StaleSnapshot,
    UpdateEvent,
    UnknownNode,
    find_noa,
    linkage_nodes,
    merge_signals,
    noa_records,
    overlay,
)
from noaga.analysis import cluster_stats, retally
from noaga.errors import ConfigInvalid, EmptyCluster

from conftest import EMAILS_TARGET, POSTS_TARGET, REWEIGHT_VIEWS, reweight_batches


def test_find_noa_frozen(emails, posts, comments):
    assert find_noa((1, 2, 3, 4, 5), emails) == 1
    assert find_noa((6, 7, 8, 9), emails) == 6  # full tie, smallest id wins
    assert find_noa((10, 11, 12, 13, 14, 15), emails) == 14
    assert find_noa(range(1, 10), posts) == 6
    assert find_noa((10, 11, 12, 13, 14, 15), posts) == 14
    assert find_noa((1, 2, 3, 4, 5), comments) == 1
    assert find_noa(range(6, 16), comments) == 14
    assert find_noa((7,), emails) == 7
    with pytest.raises(EmptyCluster):
        find_noa((), emails)
    with pytest.raises(UnknownNode):
        find_noa((1, 99), emails)
    # a repeated member is an error, not an extra vote for that member
    with pytest.raises(ValueError):
        find_noa((15, 14, 15), emails)


def test_cluster_stats_frozen(emails):
    def stats(*clusters):
        return cluster_stats(Partition(clusters, emails.attrs, emails.version), emails)

    assert stats(*EMAILS_TARGET) == [(8, 28, 1), (6, 23, 6), (10, 35, 14)]
    # a member's intra ties and weight are what the cluster loses without it
    team = (10, 11, 12, 13, 14, 15)
    (edges, weight, noa), = stats(team)
    (edges_less, weight_less, _), = stats(tuple(n for n in team if n != 14))
    assert noa == 14 and (edges - edges_less, weight - weight_less) == (5, 19)
    (edges, weight, noa), = stats(emails.nodes)
    assert (edges, weight, noa) == (28, 91, 14)
    (edges_less, weight_less, _), = stats(emails.nodes[1:])
    assert (edges - edges_less, weight - weight_less) == (4, 15)
    (edges_less, weight_less, _), = stats(emails.nodes[:-1])
    assert (edges - edges_less, weight - weight_less) == (1, 3)
    # the partition need not cover the view
    assert stats((7,), (14, 15)) == [(0, 0, 7), (1, 3, 14)]
    with pytest.raises(UnknownNode):
        stats((1, 99))
    with pytest.raises(StaleSnapshot):
        cluster_stats(Partition(EMAILS_TARGET, ("emails",), 9), emails)


def test_noa_records_fields(emails):
    part = Partition(EMAILS_TARGET, ("emails",), 0)
    recs = noa_records(part, emails, tick=42)
    assert [r.noa for r in recs] == [1, 6, 14]
    mid = recs[1]
    assert mid == NoARecord(42, ("emails",), (6, 7, 8, 9), 6, 6, 23)
    assert recs[0].edge_count == 8
    assert recs[0].total_weight == 28


def test_noa_records_version_check(emails):
    part = Partition(EMAILS_TARGET, ("emails",), 9)
    with pytest.raises(StaleSnapshot):
        noa_records(part, emails, tick=0)


def _reweighted(view, batch):
    """The view after `batch` by `AttributeView.successor`, or None when
    the batch is not weight-only."""
    snapshot, applied = view.base, []
    for ev in batch:
        snapshot, done = snapshot.apply_traced(ev)
        applied.append(done)
    patched, _, weight_only = view.successor(snapshot, applied)
    return patched if weight_only else None


def _cycle_view():
    """The 4-cycle 1-2-4-3-1 with weight 1 on every edge, and the edge (5, 6)."""
    edges = [Edge(a, b, (1,)) for a, b in [(1, 2), (1, 3), (2, 4), (3, 4), (5, 6)]]
    return AttributeView(GraphSnapshot.build(AttributeSchema(("w",)), edges))


def test_a_patched_tally_moves_the_noa_as_a_full_count_does():
    view = _cycle_view()
    labels = [0, 0, 0, 0, 1, 1]
    tally = retally(None, view, labels)
    # every member of the cycle has 2 ties and weight 2: the smallest id wins
    assert tally.noas == [1, 5]
    steps = [
        # 3 and 4 tie on ties and on weight 6, and the NoA moves to the smaller
        ([UpdateEvent.update_weight(1, 3, 4, "w", 5)], [3, 5]),
        # 4 now leads on weight alone: 14 against 2's 10 and 3's 6
        ([UpdateEvent.update_weight(2, 2, 4, "w", 9)], [4, 5]),
        # every weight back to 1, and the tie falls to the smallest id again;
        # the edge outside the cycle moves the other cluster's weight only
        ([UpdateEvent.update_weight(3, 3, 4, "w", 1), UpdateEvent.update_weight(3, 2, 4, "w", 1),
          UpdateEvent.update_weight(3, 5, 6, "w", 4)], [1, 5]),
    ]
    for tick, (batch, noas) in enumerate(steps, start=1):
        view = _reweighted(view, batch)
        assert retally(tally, view, labels) is tally
        assert tally.noas == noas
        want = noa_records(Partition.from_labels(view, labels), view, tick)
        assert tally.records(tick) == want
    assert [r.total_weight for r in tally.records(4)] == [4, 4]


@settings(max_examples=150, deadline=None)
@given(REWEIGHT_VIEWS, st.data())
def test_a_patched_tally_equals_a_full_count(view, data):
    if view.node_count == 0:
        return
    # clusters numbered by smallest member, as the GA's labels are
    drawn = data.draw(st.lists(st.integers(0, 3), min_size=view.node_count,
                               max_size=view.node_count))
    order = {}
    labels = [order.setdefault(c, len(order)) for c in drawn]
    tally = retally(None, view, labels)
    for tick in range(1, 4):
        view = _reweighted(view, data.draw(reweight_batches(view)))
        if view is None:
            return
        kept = retally(tally, view, labels)
        assert kept is tally
        assert kept.records(tick) == noa_records(Partition.from_labels(view, labels), view, tick)
        # its records share the member tuples of the first count
        assert all(a.members is b.members for a, b in zip(kept.records(tick), tally.records(0)))


def test_a_tally_counts_afresh_for_other_labels_or_other_edges():
    view = _cycle_view()
    labels = [0, 0, 0, 0, 1, 1]
    tally = retally(None, view, labels)
    assert retally(tally, view, labels) is tally
    assert retally(tally, view, [0, 0, 1, 1, 2, 2]) is not tally
    rebuilt = AttributeView(view.base, view.attrs, view.aggregation)
    assert retally(tally, rebuilt, labels) is not tally


def test_a_tally_counts_afresh_for_an_edgeless_view_of_other_nodes():
    # edgeless views share the empty `pairs` tuple whatever their nodes
    schema = AttributeSchema(("a",))
    first = AttributeView(GraphSnapshot.build(schema, [], extra_nodes=[5, 6]))
    second = AttributeView(GraphSnapshot.build(schema, [], extra_nodes=[7, 8]))
    assert first.pairs is second.pairs
    tally = retally(None, first, [0, 1])
    moved = retally(tally, second, [0, 1])
    assert moved is not tally and moved.noas == [7, 8]
    assert moved.records(1) == noa_records(Partition.from_labels(second, [0, 1]), second, 1)


def test_linkage_nodes_frozen(emails):
    part = Partition(EMAILS_TARGET, ("emails",), 0)
    report = linkage_nodes(part, emails)
    assert report.nodes == (4, 5, 6, 7, 8, 10, 14)
    by_node = {e.node: e for e in report.entries}
    assert by_node[4].cluster == 0
    assert by_node[4].foreign_clusters == (1,)
    assert by_node[4].bridge_edges == ((4, 7),)
    assert by_node[6].foreign_clusters == (0, 2)
    assert by_node[6].bridge_edges == ((5, 6), (6, 10))
    assert by_node[14].cluster == 2
    assert by_node[14].foreign_clusters == (1,)


def test_linkage_nodes_empty_when_one_cluster(emails):
    part = Partition((tuple(range(1, 16)),), ("emails",), 0)
    report = linkage_nodes(part, emails)
    assert report.nodes == ()
    assert report.entries == ()


def test_linkage_nodes_skips_edges_leaving_a_partial_partition(emails):
    # 10..15 are left out: (6, 10) and (8, 14) have an endpoint outside
    part = Partition(((1, 2, 3, 4, 5), (6, 7, 8, 9)), ("emails",), 0)
    report = linkage_nodes(part, emails)
    assert report.nodes == (4, 5, 6, 7)
    by_node = {e.node: e for e in report.entries}
    assert by_node[6].cluster == 1
    assert by_node[6].foreign_clusters == (0,)
    assert by_node[6].bridge_edges == ((5, 6),)
    assert linkage_nodes(Partition(((1, 2, 3),), ("emails",), 0), emails).nodes == ()


def test_linkage_version_check(emails):
    with pytest.raises(StaleSnapshot):
        linkage_nodes(Partition(EMAILS_TARGET, ("emails",), 3), emails)


def test_overlay_nested_clusters_have_no_overlap():
    pa = Partition(EMAILS_TARGET, ("emails",), 0)
    pb = Partition(POSTS_TARGET, ("posts",), 0)
    report = overlay(pa, pb)
    assert report.cells == (
        OverlayCell(0, 0, tuple(range(1, 6))),
        OverlayCell(1, 0, (6, 7, 8, 9)),
        OverlayCell(2, 1, tuple(range(10, 16))),
    )
    assert report.overlap_nodes == ()


def test_overlay_crossing_clusters():
    pa = Partition(((1, 2), (3, 4)), ("w1",), 0)
    pb = Partition(((1, 3), (2, 4)), ("w1",), 0)
    report = overlay(pa, pb)
    assert report.cells == (
        OverlayCell(0, 0, (1,)),
        OverlayCell(0, 1, (2,)),
        OverlayCell(1, 0, (3,)),
        OverlayCell(1, 1, (4,)),
    )
    assert report.overlap_nodes == (1, 2, 3, 4)


def test_overlay_pads_one_sided_nodes():
    pa = Partition(((1, 2, 5),), ("w1",), 0)
    pb = Partition(((1, 2),), ("w1",), 1)
    report = overlay(pa, pb)
    # 5 exists only on the a side, so b gets a synthetic singleton for it;
    # the singleton is contained in the a cluster, so it is not a conflict
    assert OverlayCell(0, 1, (5,)) in report.cells
    assert report.overlap_nodes == ()


def merge_fixture():
    """Two triangles; events then wire members of cluster 0 to node 4."""
    schema = AttributeSchema(("w1",))
    rows = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    snap = GraphSnapshot.build(schema, [Edge(a, b, (4,)) for a, b in rows])
    applied = []
    for ev in (
        UpdateEvent.add_edge(990, 1, 4, (1,)),
        UpdateEvent.add_edge(995, 2, 4, (2,)),
    ):
        snap, ap = snap.apply_traced(ev)
        applied.append(ap)
    view = AttributeView(snap)
    part = Partition(((1, 2, 3), (4, 5, 6)), ("w1",), view.version)
    return view, part, applied


def test_merge_signal_fires_at_theta():
    view, part, applied = merge_fixture()
    signals = merge_signals([], applied, part, view, theta=2, window=1000)
    assert signals == (
        MergeSignal(
            source_cluster=0,
            target_cluster=1,
            target_noa=4,
            witnesses=(1, 2),
            strength=2,
            window=(view.base.tick - 999, view.base.tick),
        ),
    )
    assert merge_signals([], applied, part, view, theta=3) == ()


def test_merge_signal_window_excludes_old_events():
    view, part, applied = merge_fixture()
    # second event is at tick 995, snapshot sits at 995: window of 3 covers
    # ticks 993..995, so the tick-990 witness drops and theta=2 cannot fire
    assert merge_signals([], applied, part, view, theta=2, window=3) == ()
    only_new = merge_signals([], applied, part, view, theta=1, window=3)
    assert len(only_new) == 1
    assert only_new[0].witnesses == (2,)


def test_merge_signal_ignores_decreases_and_removals():
    view, part, applied = merge_fixture()
    snap = view.base
    extra = []
    for ev in (
        UpdateEvent.update_weight(996, 1, 4, "w1", 0),  # drop: not an increase
        UpdateEvent.remove_edge(997, 2, 4),
    ):
        snap, ap = snap.apply_traced(ev)
        extra.append(ap)
    view2 = AttributeView(snap)
    part2 = Partition(part.clusters, ("w1",), view2.version)
    assert merge_signals([], extra, part2, view2, theta=1) == ()


def test_merge_signal_weight_increase_counts():
    schema = AttributeSchema(("w1",))
    rows = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    edges = [Edge(a, b, (4,)) for a, b in rows] + [Edge(1, 4, (1,)), Edge(2, 4, (1,))]
    snap = GraphSnapshot.build(schema, edges)
    applied = []
    for ev in (
        UpdateEvent.update_weight(10, 1, 4, "w1", 5),
        UpdateEvent.update_weight(11, 2, 4, "w1", 9),
    ):
        snap, ap = snap.apply_traced(ev)
        applied.append(ap)
    view = AttributeView(snap)
    part = Partition(((1, 2, 3), (4, 5, 6)), ("w1",), view.version)
    (signal,) = merge_signals([], applied, part, view, theta=2)
    assert signal.witnesses == (1, 2)
    assert signal.target_noa == 4


def test_merge_signal_prefers_history_noa():
    view, part, applied = merge_fixture()
    fake = NoARecord(900, ("w1",), (4, 5, 6), noa=6, edge_count=3, total_weight=12)
    # history says the target's NoA is 6, so edges toward 4 no longer count
    assert merge_signals([fake], applied, part, view, theta=2) == ()
    stale = NoARecord(800, ("posts",), (4, 5, 6), noa=6, edge_count=3, total_weight=12)
    # records for other attribute sets are ignored, so the fresh NoA (4) is used
    signals = merge_signals([stale], applied, part, view, theta=2)
    assert any(s.source_cluster == 0 and s.target_noa == 4 for s in signals)


def test_merge_signal_validation(emails):
    part = Partition(EMAILS_TARGET, ("emails",), 0)
    with pytest.raises(ConfigInvalid):
        merge_signals([], [], part, emails, theta=0)
    with pytest.raises(ConfigInvalid):
        merge_signals([], [], part, emails, window=0)
    with pytest.raises(StaleSnapshot):
        merge_signals([], [], Partition(EMAILS_TARGET, ("emails",), 4), emails)
    assert merge_signals([], [], part, emails) == ()
