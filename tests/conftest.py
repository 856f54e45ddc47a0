import pytest
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    Edge,
    EdgeRemovalChromosome,
    GraphSnapshot,
    SeparatorChromosome,
    datasets,
)

# the communities the bundled sample resolves to, per attribute
EMAILS_TARGET = ((1, 2, 3, 4, 5), (6, 7, 8, 9), (10, 11, 12, 13, 14, 15))
POSTS_TARGET = ((1, 2, 3, 4, 5, 6, 7, 8, 9), (10, 11, 12, 13, 14, 15))
COMMENTS_TARGET = ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11, 12, 13, 14, 15))

# frozen fitness totals of those targets under default params
EMAILS_TOTAL = 0.6626373626373627
POSTS_TOTAL = 0.5022774327122154
COMMENTS_TOTAL = 0.5026584867075664


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


raw_chromosomes = st.one_of(
    st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=30).map(
        lambda pairs: EdgeRemovalChromosome(tuple(pairs))
    ),
    st.builds(
        lambda k, seps: SeparatorChromosome(k, tuple(seps)),
        st.integers(1, 20),
        st.lists(st.integers(-3, 19), max_size=12),
    ),
)
