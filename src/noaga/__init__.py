"""Community detection on multi-attribute weighted graphs.

A steady-state genetic algorithm searches for low-cut, high-density
partitions of an attribute view; each cluster is summarized by its Node of
Attraction (most intra-active member). Graphs are immutable versioned
snapshots, so a stream of update events can be applied mid-run and the
engine adapts while tracking how NoAs move.

Quick start::

    from noaga import AttributeView, GAConfig, datasets, run

    snap = datasets.sample_snapshot()
    view = AttributeView(snap, attrs=("emails",))
    result = run(view, GAConfig(seed=3))
    for cluster in result.partition.clusters:
        print(cluster)
"""

__version__ = "0.1.0"

from .analysis import (
    LinkageEntry,
    LinkageReport,
    MergeSignal,
    NoARecord,
    OverlayCell,
    OverlayReport,
    find_noa,
    linkage_nodes,
    merge_signals,
    noa_records,
    overlay,
)
from .encoding import (
    EDGE_REMOVAL,
    SCHEMES,
    SEPARATOR,
    EdgeRemovalChromosome,
    SeparatorChromosome,
    decode,
    random_chromosome,
    repair,
)
from .errors import (
    ConfigInvalid,
    DuplicateEdge,
    DuplicateNode,
    EmptyCluster,
    EmptyPartition,
    EventError,
    Exhausted,
    ForeignEdge,
    NoagaError,
    ParseError,
    StaleSnapshot,
    TooLarge,
    UnknownEdge,
    UnknownNode,
    UnrepairedChromosome,
)
from .engine import (
    Checkpoint,
    GAConfig,
    GAState,
    Individual,
    RunResult,
    apply_events,
    binary_tournament,
    init_population,
    mutate,
    run,
    single_point_crossover,
    snapshot_best,
    step,
    swap_crossover,
)
from .fitness import FitnessParams, FitnessValue, closeness, fitness
from .graph import (
    AppliedEvent,
    AttributeSchema,
    AttributeView,
    Edge,
    EventKind,
    GraphSnapshot,
    Partition,
    UpdateEvent,
    connected_components,
    edge_key,
)
from .oracle import bell_number, enumerate_labels, optimal_partition

from . import datasets, errors, io  # noqa: E402  (namespace re-exports)
