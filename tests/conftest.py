import random

import pytest
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    Edge,
    EdgeRemovalChromosome,
    GraphSnapshot,
    LocusChromosome,
    Partition,
    SeparatorChromosome,
    UpdateEvent,
    datasets,
)
from noaga.encoding import EDGE_REMOVAL, LOCUS, SCHEME_TABLE, SEPARATOR, repair_separator

# the communities the bundled sample resolves to, per attribute
EMAILS_TARGET = ((1, 2, 3, 4, 5), (6, 7, 8, 9), (10, 11, 12, 13, 14, 15))
POSTS_TARGET = ((1, 2, 3, 4, 5, 6, 7, 8, 9), (10, 11, 12, 13, 14, 15))
COMMENTS_TARGET = ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11, 12, 13, 14, 15))

# frozen fitness totals of those targets under default params
EMAILS_TOTAL = 0.6626373626373627
POSTS_TOTAL = 0.5022774327122154
COMMENTS_TOTAL = 0.5026584867075664


def to_partition(record, chrom, view):
    """The Partition a scheme record decodes `chrom` to."""
    return Partition.from_labels(view, record.decode(chrom, view))


def repair_edge_removal(chrom, view):
    """Reference repair of edge-removal gene material: normalize pairs, drop
    edges not active in the view, dedupe keeping the first occurrence.
    Idempotent."""
    seen = set()
    out = []
    for a, b in chrom.removed:
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen or key not in view.pair_index:
            continue
        seen.add(key)
        out.append(key)
    return EdgeRemovalChromosome(tuple(out))


# scheme name -> the repair (chrom, view) that turns any of its gene
# material into a canonical chromosome; the locus scheme has none
REPAIRS = {EDGE_REMOVAL: repair_edge_removal, SEPARATOR: repair_separator}


def canonical(name, chrom, view):
    """Whether `chrom` is canonical for `view` under scheme `name`, as every
    operator but `random` needs it: a locus chromosome has one gene per
    active node, in view order, naming a neighbour (an isolate: itself);
    any other is its own repair."""
    if name == LOCUS:
        return chrom.nodes == view.nodes and len(chrom.links) == view.node_count and all(
            map(tuple.__contains__, view.neighbours, chrom.links)
        )
    return REPAIRS[name](chrom, view) == chrom


def components(view, removed=()):
    """Connected components of the view less the `removed` active edges,
    by decoding them as an edge-removal chromosome."""
    return to_partition(SCHEME_TABLE[EDGE_REMOVAL], EdgeRemovalChromosome(tuple(removed)), view)


@pytest.fixture(scope="session")
def sample():
    return datasets.sample_snapshot()


@pytest.fixture(scope="session")
def emails(sample):
    return AttributeView(sample, ("emails",))


@pytest.fixture(scope="session")
def posts(sample):
    return AttributeView(sample, ("posts",))


@pytest.fixture(scope="session")
def comments(sample):
    return AttributeView(sample, ("comments",))


def two_triangle_snapshot():
    """Triangles {1,2,3} and {4,5,6} with weight 4, bridged by (3,4) weight 1."""
    schema = AttributeSchema(("w1",))
    rows = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    edges = [Edge(a, b, (4,)) for a, b in rows] + [Edge(3, 4, (1,))]
    return GraphSnapshot.build(schema, edges)


@pytest.fixture()
def two_triangle():
    return AttributeView(two_triangle_snapshot())


def _table1_views():
    sample = datasets.sample_snapshot()
    views = [AttributeView(sample, (attr,)) for attr in sample.schema.names]
    return views + [AttributeView(sample), AttributeView(sample, ("emails", "posts"), "max")]


TABLE1_VIEWS = _table1_views()


@st.composite
def small_views(draw):
    """Random graphs of up to 9 nodes, some isolated, with weights 1..5."""
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [Edge(a, b, (draw(st.integers(1, 5)),)) for a, b in chosen]
    snap = GraphSnapshot.build(AttributeSchema(("w1",)), edges, extra_nodes=range(n))
    return AttributeView(snap)


@st.composite
def multi_attr_views(draw):
    """Random graphs of up to 8 nodes with attributes a and b (weights 0..3,
    never both 0), viewed on one attribute or on both by sum or max. On one
    attribute, edges whose weight there is 0 are inactive, and a node with
    only such edges is not in the view."""
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for a, b in chosen:
        wa = draw(st.sampled_from((0, 0, 1, 2, 3)))
        wb = draw(st.sampled_from((1, 2, 3) if wa == 0 else (0, 0, 1, 2, 3)))
        edges.append(Edge(a, b, (wa, wb)))
    snap = GraphSnapshot.build(AttributeSchema(("a", "b")), edges, extra_nodes=range(n))
    attrs, aggregation = draw(st.sampled_from([
        (("a",), "sum"), (("b",), "max"), (("a", "b"), "sum"), (("a", "b"), "max"),
    ]))
    return AttributeView(snap, attrs, aggregation)


@st.composite
def reweight_batches(draw, view):
    """One to five update_weight events on the edges of the view's snapshot:
    often the previous event's edge again or an edge inactive in the view,
    often the value the weight already has, sometimes 0, which can zero an
    edge in the view or drop it from the snapshot."""
    snapshot = view.base
    names = snapshot.schema.names
    edges = dict(snapshot.edges)
    batch = []
    key = None
    for _ in range(draw(st.integers(1, 5))):
        if not edges:
            break
        if key not in edges or draw(st.booleans()):
            inactive = sorted(k for k in edges if k not in view.pair_index)
            pool = inactive if inactive and draw(st.booleans()) else sorted(edges)
            key = draw(st.sampled_from(pool))
        i = draw(st.integers(0, len(names) - 1))
        value = draw(st.sampled_from([edges[key][i], *range(8)]))
        batch.append(UpdateEvent.update_weight(1, *key, names[i], value))
        vec = edges[key][:i] + (value,) + edges[key][i + 1:]
        if any(vec):
            edges[key] = vec
        else:
            del edges[key]
    return batch


@st.composite
def structural_batches(draw, view):
    """One to four events that change the snapshot's edge or node set:
    edges removed or given a zero weight (on a multi-attribute view that
    can leave them in the snapshot but inactive in the view), edges added
    between existing nodes, and new isolated nodes."""
    snapshot = view.base
    names = snapshot.schema.names
    nodes = sorted(snapshot.nodes)
    edges = dict(snapshot.edges)
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("remove", "zero", "add", "node")))
        free = [(a, b) for a in nodes for b in nodes if a < b and (a, b) not in edges]
        if kind in ("remove", "zero") and edges:
            key = draw(st.sampled_from(sorted(edges)))
            if kind == "remove":
                batch.append(UpdateEvent.remove_edge(1, *key))
                del edges[key]
                continue
            i = draw(st.integers(0, len(names) - 1))
            batch.append(UpdateEvent.update_weight(1, *key, names[i], 0))
            vec = edges[key][:i] + (0,) + edges[key][i + 1:]
            if any(vec):
                edges[key] = vec
            else:
                del edges[key]
        elif kind == "add" and free:
            key = draw(st.sampled_from(free))
            weights = draw(st.lists(st.integers(0, 3), min_size=len(names),
                                    max_size=len(names)).filter(any))
            batch.append(UpdateEvent.add_edge(1, *key, weights))
            edges[key] = tuple(weights)
        else:
            node = max(nodes, default=-1) + 1
            batch.append(UpdateEvent.add_node(1, node))
            nodes.append(node)
    return batch


# views for weight-only batches, multi-attribute ones twice over: only
# they have edges inactive in the view
REWEIGHT_VIEWS = st.one_of(
    st.sampled_from(TABLE1_VIEWS), small_views(), multi_attr_views(), multi_attr_views()
)


# (scheme name, gene material that may need repair)
raw_chromosomes = st.one_of(
    st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=30).map(
        lambda pairs: (EDGE_REMOVAL, EdgeRemovalChromosome(tuple(pairs)))
    ),
    st.builds(
        lambda k, seps: (SEPARATOR, SeparatorChromosome(k, tuple(seps))),
        st.integers(1, 20),
        st.lists(st.integers(-3, 19), max_size=12),
    ),
    # (node, gene) pairs: repeated, missing and foreign nodes, genes that
    # name no neighbour
    st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=40).map(
        lambda genes: (LOCUS, LocusChromosome(*map(tuple, zip(*genes))) if genes
                       else LocusChromosome((), ()))
    ),
)


def canonical_of(name, raw, view):
    """A canonical chromosome for `view` from gene material `raw` of scheme
    `name`: its repair, or for locus its carry-over, which keeps each gene
    that names a neighbour and draws the others from a fixed seed."""
    if name == LOCUS:
        return SCHEME_TABLE[LOCUS].carry_over(raw, view, random.Random(0))
    return REPAIRS[name](raw, view)
