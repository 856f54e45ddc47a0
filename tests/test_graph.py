"""Graph model: snapshots, events, views, components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    ConfigInvalid,
    DuplicateEdge,
    DuplicateNode,
    Edge,
    ForeignEdge,
    GraphSnapshot,
    Partition,
    UnknownEdge,
    UnknownNode,
    UpdateEvent,
    edge_key,
)
from noaga.analysis import cluster_stats
from noaga.errors import EmptyCluster

from conftest import (
    EMAILS_TARGET,
    REWEIGHT_VIEWS,
    components,
    reweight_batches,
    structural_batches,
)


def test_edge_key_normalizes():
    assert edge_key(7, 3) == (3, 7)
    assert edge_key(3, 7) == (3, 7)


def test_edge_key_rejects_self_loop():
    with pytest.raises(ValueError):
        edge_key(4, 4)


def test_schema_validation():
    with pytest.raises(ConfigInvalid):
        AttributeSchema(())
    with pytest.raises(ConfigInvalid):
        AttributeSchema(("a", "a"))
    s = AttributeSchema(("emails", "posts"))
    assert s.arity == 2
    assert s.index("posts") == 1
    with pytest.raises(ConfigInvalid):
        s.index("missing")


def test_edge_normalizes_and_validates():
    e = Edge(9, 2, (1, 0))
    assert (e.a, e.b) == (2, 9)
    assert e.key == (2, 9)
    with pytest.raises(ValueError):
        Edge(1, 2, (-1, 3))
    with pytest.raises(ValueError):
        Edge(1, 2, (0, 0))
    with pytest.raises(ValueError):
        Edge(5, 5, (1,))


def test_build_rejects_duplicates_and_bad_arity():
    schema = AttributeSchema(("w1",))
    with pytest.raises(DuplicateEdge):
        GraphSnapshot.build(schema, [Edge(1, 2, (1,)), Edge(2, 1, (3,))])
    with pytest.raises(ConfigInvalid):
        GraphSnapshot.build(schema, [Edge(1, 2, (1, 2))])


def test_sample_shape(sample):
    assert len(sample.nodes) == 15
    assert len(sample.edges) == 28
    assert sample.schema.names == ("emails", "posts", "comments")
    assert sample.version == 0


def test_resolve_labels(sample):
    assert sample.resolve(3) == 3
    assert sample.resolve("3") == 3
    with pytest.raises(UnknownNode):
        sample.resolve(99)
    with pytest.raises(UnknownNode):
        sample.resolve("nobody")
    with pytest.raises(UnknownNode):
        sample.resolve(True)
    # only ASCII digits are ids: '²' passes str.isdigit but is a name
    with pytest.raises(UnknownNode):
        sample.resolve("²")
    assert sample.apply(UpdateEvent.add_node(1, "²")).resolve("²") == 16


def test_add_node_fresh_label_gets_next_id(sample):
    snap = sample.apply(UpdateEvent.add_node(2500, "X"))
    assert snap.resolve("X") == 16
    assert snap.label_of(16) == "X"
    assert snap.version == 1
    assert snap.tick == 2500
    assert snap.node_ticks[16] == 2500
    # numeric labels are their own id
    snap2 = snap.apply(UpdateEvent.add_node(2500, 40))
    assert snap2.resolve(40) == 40
    assert snap2.label_of(40) == "40"


def test_add_node_duplicates_rejected(sample):
    with pytest.raises(DuplicateNode):
        sample.apply(UpdateEvent.add_node(1, 5))
    named = sample.apply(UpdateEvent.add_node(1, "X"))
    with pytest.raises(DuplicateNode):
        named.apply(UpdateEvent.add_node(2, "X"))


@pytest.mark.parametrize("label", [True, False, 2.5, None], ids=repr)
def test_add_node_reads_labels_as_resolve_does(sample, label):
    # one label rule: a bool is not an id, and a float or None is no label,
    # whether the label names a node or adds one
    with pytest.raises(UnknownNode, match="bad label"):
        sample.resolve(label)
    with pytest.raises(UnknownNode, match="bad label"):
        sample.apply(UpdateEvent.add_node(1, label))


def test_tick_never_goes_backwards(sample):
    snap = sample.apply(UpdateEvent.add_node(10, "X"))
    with pytest.raises(ValueError):
        snap.apply(UpdateEvent.add_node(9, "Y"))
    # equal ticks are fine
    snap.apply(UpdateEvent.add_node(10, "Y"))


def test_add_edge(sample):
    snap = sample.apply(UpdateEvent.add_edge(5, 15, 1, (2, 0, 0)))
    assert snap.edges[(1, 15)] == (2, 0, 0)
    assert snap.version == 1
    with pytest.raises(DuplicateEdge):
        snap.apply(UpdateEvent.add_edge(6, 15, 1, (1, 1, 1)))
    with pytest.raises(UnknownNode):
        sample.apply(UpdateEvent.add_edge(5, 1, 99, (1, 1, 1)))
    with pytest.raises(ConfigInvalid):
        sample.apply(UpdateEvent.add_edge(5, 2, 15, (1,)))
    with pytest.raises(ValueError):
        sample.apply(UpdateEvent.add_edge(5, 2, 15, (0, 0, 0)))


def test_update_weight(sample):
    snap = sample.apply(UpdateEvent.update_weight(7, 1, 2, "emails", 9))
    assert snap.edges[(1, 2)] == (9, 4, 4)
    with pytest.raises(UnknownEdge):
        sample.apply(UpdateEvent.update_weight(7, 1, 14, "emails", 9))
    with pytest.raises(ConfigInvalid):
        sample.apply(UpdateEvent.update_weight(7, 1, 2, "faxes", 9))
    with pytest.raises(ValueError):
        sample.apply(UpdateEvent.update_weight(7, 1, 2, "emails", -1))


def test_update_zeroing_all_weights_drops_edge():
    schema = AttributeSchema(("w1", "w2"))
    snap = GraphSnapshot.build(schema, [Edge(1, 2, (3, 0)), Edge(2, 3, (1, 1))])
    snap = snap.apply(UpdateEvent.update_weight(1, 1, 2, "w1", 0))
    assert (1, 2) not in snap.edges
    # the endpoints stay in the node set
    assert snap.nodes == frozenset({1, 2, 3})


def test_remove_edge_isolates_leaf(sample):
    snap = sample.apply(UpdateEvent.remove_edge(100, 14, 15))
    assert (14, 15) not in snap.edges
    # 15 keeps existing but is edgeless, so every view shows it as a singleton
    view = AttributeView(snap, ("emails",))
    assert 15 in view.node_index
    assert all(15 not in pair for pair in view.pairs)
    part = components(view)
    assert (15,) in part.clusters
    with pytest.raises(UnknownEdge):
        snap.apply(UpdateEvent.remove_edge(101, 14, 15))


def test_apply_traced_reports_old_and_new(sample):
    snap, applied = sample.apply_traced(UpdateEvent.update_weight(3, 6, 7, "emails", 1))
    assert applied.pair == (6, 7)
    assert applied.old_weights == (5, 4, 3)
    assert applied.new_weights == (1, 4, 3)
    assert applied.tick == 3
    assert snap.edges[(6, 7)] == (1, 4, 3)


def test_snapshot_mappings_are_read_only(sample):
    snaps = [sample]
    for ev in (
        UpdateEvent.add_node(1, "X"),
        UpdateEvent.add_edge(2, "X", 1, (1, 1, 1)),
        UpdateEvent.update_weight(3, 1, 2, "emails", 9),
        UpdateEvent.remove_edge(4, 1, 3),
    ):
        snaps.append(snaps[-1].apply(ev))
    bare = GraphSnapshot(sample.schema, frozenset(), {})
    mappings = [(bare.names, "X", 16), (bare.node_ticks, 1, 0)]
    for s in snaps:
        mappings += [(s.edges, (1, 2), (1, 1, 1)), (s.names, "X", 16), (s.node_ticks, 1, 0)]
    for mapping, key, value in mappings:
        with pytest.raises(TypeError):
            mapping[key] = value
        with pytest.raises(TypeError):
            del mapping[key]
    # a successor shares what its event leaves unchanged, as it is
    assert snaps[4].names is snaps[2].names and snaps[4].node_ticks is snaps[2].node_ticks
    assert snaps[1].edges is sample.edges
    assert sample.edges[(1, 2)] == (4, 4, 4) and snaps[4].edges[(1, 2)] == (9, 4, 4)


def _view_fields(view):
    return (
        view.pairs, view.weights, view.total_weight, view.nodes, view.node_index,
        view.pair_index, view.ea, view.eb, view.version, view.attrs, view.aggregation,
    )


def _label_partition(view, labels):
    """Partition of the nodes labelled 0.. by their labels; nodes labelled
    -1 are left out."""
    clusters = [
        tuple(n for n, label in zip(view.nodes, labels) if label == c)
        for c in set(labels) - {-1}
    ]
    return Partition(clusters, view.attrs, view.version)


def _reference_stats(partition, view):
    """`cluster_stats` by brute force over the view's active pairs."""
    out = []
    for cluster in partition.clusters:
        inside = [
            (pair, w) for pair, w in zip(view.pairs, view.weights)
            if pair[0] in cluster and pair[1] in cluster
        ]

        def key(node):
            return (sum(node in p for p, _ in inside), sum(w for p, w in inside if node in p))

        top = max(map(key, cluster))
        noa = min(n for n in cluster if key(n) == top)
        out.append((len(inside), sum(w for _, w in inside), noa))
    return out


def _apply_traced(snapshot, batch):
    """The snapshot `batch` leads to from `snapshot`, and its applied events."""
    applied = []
    for ev in batch:
        snapshot, done = snapshot.apply_traced(ev)
        applied.append(done)
    return snapshot, applied


@settings(max_examples=400, deadline=None)
@given(REWEIGHT_VIEWS, st.data())
def test_reweighted_view_equals_a_fresh_build(view, data):
    snap, applied = _apply_traced(view.base, data.draw(reweight_batches(view)))
    fresh = AttributeView(snap, view.attrs, view.aggregation)
    touched = {a.pair for a in applied}
    # weight-only: every touched edge stays in the snapshot, and active in
    # the view exactly when it was
    weight_only = all(
        k in snap.edges and (k in fresh.pair_index) == (k in view.pair_index) for k in touched
    )
    patched, changes, patched_only = view.successor(snap, applied)
    assert patched_only == weight_only
    if weight_only:
        assert _view_fields(patched) == _view_fields(fresh)
        # one change per active edge whose aggregated weight moved, by as much
        moved = [i for i in range(view.edge_count) if fresh.weights[i] != view.weights[i]]
        assert sorted(changes) == sorted(
            (view.ea[i], view.eb[i], 0, fresh.weights[i] - view.weights[i]) for i in moved
        )
        labels = data.draw(st.lists(
            st.integers(-1, 3), min_size=fresh.node_count, max_size=fresh.node_count
        ))
        part = _label_partition(fresh, labels)
        assert cluster_stats(part, patched) == cluster_stats(part, fresh)
        assert patched.base is snap
        # the edge and node tables are shared, not rebuilt
        assert patched.pairs is view.pairs and patched.node_index is view.node_index


@settings(max_examples=200, deadline=None)
@given(REWEIGHT_VIEWS, st.data())
def test_neighbour_table_is_built_on_first_read_and_shared_by_reweighted_views(view, data):
    view = AttributeView(view.base, view.attrs, view.aggregation)
    # building a view builds neither lookup table
    assert "neighbours" not in vars(view) and "pair_index" not in vars(view)
    snap, applied = _apply_traced(view.base, data.draw(reweight_batches(view)))
    # nor does moving one across a batch, which bisects the sorted pairs
    view = AttributeView(view.base, view.attrs, view.aggregation)
    unbuilt = view.successor(snap, applied)[0]
    assert not {"neighbours", "pair_index"} & (vars(view).keys() | vars(unbuilt).keys())
    want = {node: [] for node in view.nodes}
    for a, b in view.pairs:
        want[a].append(b)
        want[b].append(a)
    assert view.neighbours == tuple(tuple(sorted(want[n])) or (n,) for n in view.nodes)
    # a weight-only successor shares each table built by then
    patched, _, weight_only = view.successor(snap, applied)
    if weight_only:
        assert patched.neighbours is view.neighbours
        index = view.pair_index
        assert view.successor(snap, applied)[0].pair_index is index
    if len(view.nodes) > 1:
        # a structural change builds a view with its own table
        a, b = view.nodes[0], view.nodes[-1]
        edited = snap.apply(UpdateEvent.remove_edge(2, a, b) if (a, b) in snap.edges
                            else UpdateEvent.add_edge(2, a, b, (1,) * snap.schema.arity))
        rebuilt = AttributeView(edited, view.attrs, view.aggregation)
        assert "neighbours" not in vars(rebuilt)
        assert rebuilt.neighbours is not view.neighbours


def _a_view():
    """View on attribute a of a graph where (3, 4) and (5, 6) are inactive
    in the view, 6 has no other edge, so it is not in the view, and 7 is an
    isolate, so it is."""
    edges = [Edge(1, 2, (3, 1)), Edge(2, 3, (2, 0)), Edge(3, 4, (0, 5)), Edge(1, 4, (1, 1)),
             Edge(5, 6, (0, 2)), Edge(4, 5, (2, 2))]
    snapshot = GraphSnapshot.build(AttributeSchema(("a", "b")), edges, extra_nodes=[7])
    return AttributeView(snapshot, ("a",))


def _reweigh(view, *events):
    """What `successor` makes of `events` applied to the view's snapshot,
    and the fresh build of the snapshot they lead to."""
    snap, applied = _apply_traced(view.base, events)
    return view.successor(snap, applied), AttributeView(snap, view.attrs, view.aggregation)


@pytest.mark.parametrize("other", [
    UpdateEvent.add_node(1, 9),
    # inactive in the view, yet it takes the isolate 7 out of it
    UpdateEvent.add_edge(1, 1, 7, (0, 1)),
    UpdateEvent.remove_edge(1, 4, 5),
], ids=lambda ev: ev.kind.value)
def test_a_batch_that_mixes_in_another_kind_is_not_weight_only(other):
    view = _a_view()
    update = UpdateEvent.update_weight(1, 1, 2, "a", 5)
    for batch in ([update, other], [other, update]):
        (moved, _, weight_only), fresh = _reweigh(view, *batch)
        assert not weight_only and _view_fields(moved) == _view_fields(fresh)


def test_reweighting_an_edge_that_stays_inactive_changes_no_weight():
    view = _a_view()
    (patched, changes, weight_only), fresh = _reweigh(view,
                                                      UpdateEvent.update_weight(1, 3, 4, "b", 9))
    assert weight_only and changes == [] and _view_fields(patched) == _view_fields(fresh)


def test_zeroing_the_last_weight_of_an_inactive_edge_is_not_weight_only():
    # the edge leaves the snapshot, and 6, with no edge left, becomes an
    # active isolate: the node set changes
    view = _a_view()
    (_, _, weight_only), fresh = _reweigh(view, UpdateEvent.update_weight(1, 5, 6, "b", 0))
    assert not weight_only
    assert 6 not in view.nodes and set(fresh.nodes) == {*view.nodes, 6}


def test_two_updates_to_one_edge_give_one_net_change():
    view = _a_view()
    i = view.pair_index[(1, 2)]
    (patched, changes, weight_only), fresh = _reweigh(view,
                                                      UpdateEvent.update_weight(1, 1, 2, "a", 5),
                                                      UpdateEvent.update_weight(1, 1, 2, "a", 7))
    assert weight_only and changes == [(view.ea[i], view.eb[i], 0, 4)]
    assert _view_fields(patched) == _view_fields(fresh)
    assert patched.total_weight == view.total_weight + 4


def test_an_update_outside_the_view_changes_no_weight():
    view = _a_view()
    (patched, changes, weight_only), fresh = _reweigh(view,
                                                      UpdateEvent.update_weight(1, 1, 2, "b", 9))
    assert weight_only and changes == [] and _view_fields(patched) == _view_fields(fresh)
    assert patched.weights is view.weights


def test_endpoint_arrays_are_tuples_shared_by_a_reweighted_successor(emails):
    (patched, _, _), _ = _reweigh(emails, UpdateEvent.update_weight(1, 1, 2, "emails", 9))
    for name in ("ea", "eb"):
        assert type(getattr(emails, name)) is tuple
        assert getattr(patched, name) is getattr(emails, name)


def _check_successor(view, batch):
    """`successor` across `batch` against a fresh build of the snapshot it
    leads to: the same fields, one change per pair whose weight moved (a
    diff of the two views' weights by pair), and the weight-only rule."""
    snap, applied = _apply_traced(view.base, batch)
    fresh = AttributeView(snap, view.attrs, view.aggregation)
    got, changes, weight_only = view.successor(snap, applied)
    assert _view_fields(got) == _view_fields(fresh)
    assert got.base is snap
    old, new = dict(zip(view.pairs, view.weights)), dict(zip(fresh.pairs, fresh.weights))
    if fresh.nodes[:view.node_count] != view.nodes:
        assert changes is None
    else:
        index, diff = fresh.node_index, []
        for a, b in sorted(old.keys() | new.keys()):
            was, now = old.get((a, b), 0), new.get((a, b), 0)
            if now != was:
                diff.append((index[a], index[b], (now > 0) - (was > 0), now - was))
        assert changes == diff
    # every event re-weights an edge that stays in the snapshot, active
    # here exactly when it was active before
    assert weight_only == all(
        a.event.kind.value == "update_weight" and a.pair in snap.edges
        and (a.pair in old) == (a.pair in new) for a in applied
    )
    return got, changes, weight_only


@settings(max_examples=400, deadline=None)
@given(REWEIGHT_VIEWS, st.data())
def test_successor_equals_a_fresh_build_and_a_diff_by_pair(view, data):
    batches = st.one_of(reweight_batches(view), structural_batches(view))
    batch = data.draw(batches)
    if data.draw(st.booleans()):
        # a second batch of either kind on the view the first leads to
        mid = AttributeView(_apply_traced(view.base, batch)[0], view.attrs, view.aggregation)
        batch += data.draw(st.one_of(reweight_batches(mid), structural_batches(mid)))
    _check_successor(view, batch)


def test_adding_a_node_to_an_edgeless_view_is_not_weight_only():
    # both views have the empty `pairs`, yet the node set changed
    view = AttributeView(GraphSnapshot.build(AttributeSchema(("a",)), [], extra_nodes=[1, 2]))
    moved, changes, weight_only = _check_successor(view, [UpdateEvent.add_node(1, 3)])
    assert not weight_only and changes == []
    assert moved.pairs is view.pairs and moved.nodes == (1, 2, 3)


def test_the_successor_of_an_update_to_an_edge_that_stays_inactive_is_weight_only():
    view = _a_view()
    update = UpdateEvent.update_weight(1, 3, 4, "b", 9)
    moved, changes, weight_only = _check_successor(view, [update])
    assert weight_only and changes == [] and moved.weights is view.weights


def _reference_view_fields(snapshot, attrs, aggregation):
    """`_view_fields` of the view, projected edge by edge from the snapshot."""
    names = snapshot.schema.names
    combine = max if aggregation == "max" else sum
    weight = {k: combine(vec[names.index(a)] for a in attrs) for k, vec in snapshot.edges.items()}
    pairs = tuple(sorted(k for k, w in weight.items() if w > 0))
    touched = {n for k in snapshot.edges for n in k}
    nodes = tuple(sorted({n for k in pairs for n in k} | (snapshot.nodes - touched)))
    node_index = {n: i for i, n in enumerate(nodes)}
    return (
        pairs, tuple(weight[k] for k in pairs), sum(weight[k] for k in pairs), nodes,
        node_index, {k: i for i, k in enumerate(pairs)}, tuple(node_index[a] for a, _ in pairs),
        tuple(node_index[b] for _, b in pairs), snapshot.version, tuple(attrs), aggregation,
    )


@st.composite
def projections(draw):
    """A snapshot of up to 10 nodes, some isolated, with one to three
    attributes (weights 0..3, not all 0 on an edge), and a view on some of
    them in any order, by sum or max: edges can be inactive in the view and
    nodes can have only inactive edges."""
    names = ("a", "b", "c")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)).filter(any)
    edges = [Edge(b, a, draw(weights)) for a, b in chosen]
    snapshot = GraphSnapshot.build(AttributeSchema(names), edges, extra_nodes=range(n + 2))
    attrs = draw(st.permutations(names).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))
    ))
    return snapshot, attrs, draw(st.sampled_from(("sum", "max")))


@settings(max_examples=300, deadline=None)
@given(projections())
def test_view_equals_a_reference_projection(projection):
    snapshot, attrs, aggregation = projection
    view = AttributeView(snapshot, attrs, aggregation)
    assert _view_fields(view) == _reference_view_fields(snapshot, attrs, aggregation)


@settings(max_examples=300, deadline=None)
@given(projections(), st.data())
def test_cluster_stats_equal_a_brute_force_count(projection, data):
    view = AttributeView(*projection)
    labels = data.draw(st.lists(
        st.integers(-1, 3), min_size=view.node_count, max_size=view.node_count
    ))
    part = _label_partition(view, labels)
    assert cluster_stats(part, view) == _reference_stats(part, view)


def test_view_basicstats(emails, posts, comments):
    assert emails.edge_count == posts.edge_count == comments.edge_count == 28
    assert emails.node_count == 15
    assert emails.total_weight == 91
    assert posts.total_weight == 161
    assert comments.total_weight == 163
    assert emails.nodes == tuple(range(1, 16))


def test_view_validates_attrs(sample):
    with pytest.raises(ConfigInvalid):
        AttributeView(sample, ("emails", "emails"))
    with pytest.raises(ConfigInvalid):
        AttributeView(sample, ("faxes",))
    with pytest.raises(ConfigInvalid):
        AttributeView(sample, ())
    with pytest.raises(ConfigInvalid):
        AttributeView(sample, ("emails",), aggregation="median")


def test_view_aggregation_sum_vs_max(sample):
    both = AttributeView(sample, ("emails", "posts"), aggregation="sum")
    peak = AttributeView(sample, ("emails", "posts"), aggregation="max")
    assert both.weight_of(1, 2) == 8
    assert peak.weight_of(1, 2) == 4
    assert both.weight_of(4, 7) == 30
    assert peak.weight_of(4, 7) == 29


def test_view_excludes_zero_weight_edges_and_their_orphans():
    schema = AttributeSchema(("w1", "w2"))
    snap = GraphSnapshot.build(schema, [Edge(1, 2, (3, 0)), Edge(3, 4, (0, 2))])
    view = AttributeView(snap, ("w1",))
    assert view.pairs == ((1, 2),)
    # 3 and 4 have edges in the snapshot, just none active here: not in view
    assert view.nodes == (1, 2)
    assert 3 not in view.node_index


def test_view_includes_snapshot_isolates():
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [Edge(1, 2, (1,))], extra_nodes=[7])
    view = AttributeView(snap)
    assert view.nodes == (1, 2, 7)
    assert (7,) in components(view).clusters


def test_weight_of_foreign_edge(emails):
    with pytest.raises(ForeignEdge):
        emails.weight_of(1, 14)


def test_partition_normalization_and_validation(emails):
    p = Partition(((9, 6, 8, 7), (15, 14, 13, 12, 11, 10), (3, 1, 2, 5, 4)), ("emails",), 0)
    assert p.clusters == EMAILS_TARGET
    assert p.cluster_count == 3
    assert p.node_count == 15
    assert p.membership()[6] == 1
    assert list(p.members()) == list(range(1, 16))
    with pytest.raises(EmptyCluster):
        Partition(((1, 2), ()), ("emails",), 0)
    with pytest.raises(ValueError):
        Partition(((1, 2), (2, 3)), ("emails",), 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_component_count_bounded_by_removals(emails, data):
    pool = list(emails.pairs)
    removed = data.draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    part = components(emails, removed)
    assert part.cluster_count <= 1 + len(removed)
    assert sorted(part.members()) == list(emails.nodes)
