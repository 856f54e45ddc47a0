"""Steady-state GA over partition chromosomes, with mid-run graph updates.

One evaluation = decode + score of one chromosome, or one of the cheaper
stand-ins below, and the budget is counted in evaluations: initialization
costs population_size, every step costs 2, and each event batch costs
population_size + 1 re-evaluations (whole population plus the elite, all
against the new snapshot).

The engine reaches a chromosome only through the `encoding.Scheme` record
of the run's scheme, looked up by name once per run state: it makes,
crosses, mutates, decodes and carries chromosomes over with the record's
operators, which keep them canonical.

An evaluation takes one of four paths, and each counts as one:

- decode and score: the chromosome is decoded against the live view and
  its labels scored (`fitness.score_terms`);
- memo hit: the decoded labels are in the run state's score memo, which
  skips scoring;
- weight-only rescore: after a weight-only batch (`AttributeView.reweighted`
  defines it), which cannot change a decoded partition, each member is
  re-scored from the cluster labels, cluster count and intra-cluster weight
  cached when it was scored (`fitness.rescore`), without a decode;
- structural delta: after any other batch every member is carried over to
  the new view, and under a scheme with `extend` (locus) a member whose
  genes all survive, on a view whose node order starts with the old one,
  keeps its clusters: its labels are extended to the new nodes and it is
  re-scored from its cached labels and per-cluster tie counts plus the
  batch's edge changes (`AttributeView.edge_changes`,
  `fitness.delta_terms`), without a decode. Every other member is decoded.

The memo serves the decode and delta paths: many chromosomes decode to one
partition, a child equal to a parent decodes to the parent's, and a
converged population keeps producing partitions it has scored. It maps
packed labels (`pack_labels`: 4 bytes per node) to themselves and the
score, cluster count, intra-cluster weight and packed tie counts they were
scored to at the live view; it holds at most population_size entries,
dropping the oldest on insert, and is cleared whenever the view is
replaced, so no entry outlives its view version. A hit hands the member the
memo's own key. The worst member is looked up again only after the
population changed.

A run records the elite's NoAs after every batch and at every checkpoint
from a tally (`analysis.Tally`) it keeps between observations: one that
counted the same labels over the same edges is patched with the weights
that moved, and any other observation counts afresh. The run builds a
Partition only for its result.

Every random draw comes from one seeded RNG on the serial loop, so equal
seed, input, and events replay bit-identical runs.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import analysis
from .encoding import LOCUS, SCHEME_TABLE, SCHEMES, Chromosome, Scheme
from .errors import (ConfigInvalid, EventError, Exhausted, NoagaError, check_int, check_version,
                     clip_repr)
from .fitness import FitnessValue, delta_terms, rescore, score_terms
from .graph import AppliedEvent, AttributeView, Partition, UpdateEvent, part_labels


@dataclass(frozen=True)
class GAConfig:
    """Run parameters; the command line reads its defaults from these. The
    projection (attributes and aggregation) is the one of the view the run
    is handed."""

    population_size: int = 100
    max_evaluations: int = 10_000
    crossover_rate: float = 0.85
    mutation_rate: float = 0.1
    scheme: str = LOCUS
    checkpoint_every: int = 100
    seed: int = 0
    p_init: float = 0.1

    def __post_init__(self):
        for name in ("population_size", "max_evaluations", "checkpoint_every", "seed"):
            check_int(name, getattr(self, name))
        if self.population_size < 2:
            raise ConfigInvalid(f"population_size must be >= 2, got {self.population_size}")
        if self.max_evaluations < self.population_size:
            raise ConfigInvalid(
                "max_evaluations must cover initialization "
                f"({self.max_evaluations} < population {self.population_size})"
            )
        for name in ("crossover_rate", "mutation_rate", "p_init"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0.0 <= v <= 1.0:
                raise ConfigInvalid(f"{name} must be in [0, 1], got {clip_repr(v)}")
        if self.scheme not in SCHEMES:
            raise ConfigInvalid(f"scheme must be one of {SCHEMES}, got {clip_repr(self.scheme)}")
        if self.checkpoint_every < 1:
            raise ConfigInvalid(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")


@dataclass
class Individual:
    """Chromosome with its cached score and the snapshot version it was
    scored against, plus what a batch re-scores it from: the cluster label
    of each active node in view order, the cluster count k, the
    intra-cluster aggregated weight and the intra tie count of each
    cluster. The cache is valid only at that version. `labels` is packed
    (`pack_labels`) and is the key of the score memo entry the member was
    scored from, so members scored from one entry share one copy;
    `unpack_labels` reads it back. `ties` is packed the same way."""

    chromosome: Chromosome
    value: FitnessValue
    version: int
    labels: bytes
    k: int
    weight_in: int
    ties: bytes


@dataclass(frozen=True)
class Checkpoint:
    """Periodic extract of the best-so-far solution, cheap enough to stream."""

    iteration: int
    evaluations: int
    snapshot_version: int
    best_total: float
    cluster_count: int
    cluster_sizes: tuple[int, ...]


@dataclass
class GAState:
    """Live run state; mutated in place by step() and event application.

    `best` is the elite itself, never a copy: no Individual changes once made.

    `memo` maps the packed labels of each partition scored at the live view,
    oldest first, to (those labels, value, k, weight_in, packed ties);
    `_memoised` fills it and keeps at most config.population_size entries,
    and `apply_events` clears it with every view it installs."""

    view: AttributeView
    config: GAConfig
    rng: random.Random
    population: list[Individual]
    best: Individual | None = None
    evaluations: int = 0
    iteration: int = 0
    applied: list[AppliedEvent] = field(default_factory=list)
    # index of the first member with the lowest total; None once the
    # population has changed since it was found
    worst: int | None = None
    # the record of config.scheme: the engine's only way to a chromosome
    scheme: Scheme = field(init=False, repr=False)
    memo: dict[bytes, tuple[bytes, FitnessValue, int, int, bytes]] = field(init=False, repr=False)

    def __post_init__(self):
        self.scheme = SCHEME_TABLE[self.config.scheme]
        self.memo = {}


def pack_labels(labels: Sequence[int]) -> bytes:
    """Cluster labels as 4 bytes each, in native byte order: half the size
    of a tuple's pointers, and no int object per label."""
    # struct, not array: a run already loads struct's module, and loading
    # array's shared library raises a small run's peak RSS by about 80 KB
    return struct.pack(f"{len(labels)}I", *labels)


def unpack_labels(labels: bytes) -> memoryview:
    """The cluster labels `pack_labels` packed, read in place."""
    return memoryview(labels).cast("I")


def _evaluate(state: GAState, chrom: Chromosome) -> Individual:
    """Decode a canonical chromosome to labels against the live view and
    take them and their score from the memo, or score them and memoise the
    result. Costs one evaluation either way."""
    view = state.view
    decoded = state.scheme.decode(chrom, view)

    def score():
        parts = decoded if state.scheme.connected else part_labels(view, decoded)
        return score_terms(decoded, parts, view)

    return _memoised(state, chrom, decoded, score)


def _memoised(
    state: GAState, chrom: Chromosome, decoded: list[int],
    score: Callable[[], tuple[FitnessValue, int, int, list[int]]],
) -> Individual:
    """The member of `chrom`, which has the cluster labels `decoded` at the
    live view: its labels and score from the memo entry of those labels,
    or from `score()`, the (value, k, weight_in, ties) of `decoded`, which
    is then memoised. Costs one evaluation either way."""
    labels = pack_labels(decoded)
    memo = state.memo
    scored = memo.get(labels)
    if scored is None:
        value, k, weight_in, ties = score()
        scored = (labels, value, k, weight_in, pack_labels(ties))
        if len(memo) >= state.config.population_size:
            del memo[next(iter(memo))]
        memo[labels] = scored
    state.evaluations += 1
    labels, value, k, weight_in, ties = scored
    return Individual(chrom, value, state.view.version, labels, k, weight_in, ties)


def _rescore(
    state: GAState, ind: Individual, version: int, deltas: list[tuple[int, int, int]]
) -> Individual:
    """Re-score an individual scored at `version` after a weight-only batch:
    each of the batch's weight changes (`AttributeView.reweighted`) on an
    edge inside one of its clusters moves its intra-cluster weight. Costs
    one evaluation."""
    check_version("individual", ind.version, version)
    labels = unpack_labels(ind.labels)
    weight_in = ind.weight_in
    for a, b, delta in deltas:
        if labels[a] == labels[b]:
            weight_in += delta
    view = state.view
    value = rescore(ind.value, ind.k, weight_in, view.total_weight)
    state.evaluations += 1
    return Individual(ind.chromosome, value, view.version, ind.labels, ind.k, weight_in, ind.ties)


def _regroup(
    state: GAState, ind: Individual, version: int, carried: Chromosome,
    changes: list[tuple[int, int, int, int]],
) -> Individual:
    """The member of `carried`, `ind`'s chromosome carried over to the live
    view after a structural batch, when that view's node order starts with
    the order of the view of `version`, at which `ind` was scored. When the
    scheme can `extend` `ind`'s labels to `carried`, they are re-scored
    from `ind`'s tie counts and intra-cluster weight plus the batch's edge
    `changes` (`AttributeView.edge_changes`); otherwise `carried` is
    decoded and scored. Costs one evaluation."""
    check_version("individual", ind.version, version)
    view = state.view
    decoded = state.scheme.extend(ind.chromosome, unpack_labels(ind.labels), carried, view)
    if decoded is None:
        return _evaluate(state, carried)
    return _memoised(state, carried, decoded, lambda: delta_terms(
        decoded, unpack_labels(ind.ties), ind.weight_in, changes, view))


def init_population(view: AttributeView, config: GAConfig) -> GAState:
    """Seeded random population, every member evaluated once."""
    if view.node_count == 0:
        raise ConfigInvalid("cannot run on an empty view")
    state = GAState(view, config, random.Random(config.seed), [])
    for _ in range(config.population_size):
        chrom = state.scheme.random(view, state.rng, config.p_init)
        state.population.append(_evaluate(state, chrom))
    # max keeps the first of equal totals
    state.best = max(state.population, key=lambda ind: ind.value.total)
    return state


def binary_tournament(state: GAState) -> Individual:
    """Two uniform draws with replacement; higher total wins, exact tie goes
    to the first drawn."""
    pop = state.population
    first = pop[state.rng.randrange(len(pop))]
    second = pop[state.rng.randrange(len(pop))]
    return second if second.value.total > first.value.total else first


def _worst_index(population: list[Individual]) -> int:
    worst = 0
    for i in range(1, len(population)):
        if population[i].value.total < population[worst].value.total:
            worst = i
    return worst


def step(state: GAState) -> GAState:
    """One steady-state iteration: two tournaments, crossover, mutation, two
    evaluations, strict-improvement replacement of the current worst."""
    cfg = state.config
    if state.evaluations + 2 > cfg.max_evaluations:
        raise Exhausted(
            f"{state.evaluations} of {cfg.max_evaluations} evaluations used; "
            "a step needs 2"
        )
    rng = state.rng
    p1 = binary_tournament(state)
    p2 = binary_tournament(state)
    scheme = state.scheme
    if rng.random() < cfg.crossover_rate:
        c1, c2 = scheme.crossover(p1.chromosome, p2.chromosome, state.view, rng)
    else:
        c1, c2 = p1.chromosome, p2.chromosome
    for chrom in (c1, c2):
        child = _evaluate(state, scheme.mutate(chrom, state.view, cfg.mutation_rate, rng))
        if state.worst is None:
            state.worst = _worst_index(state.population)
        if child.value.total > state.population[state.worst].value.total:
            state.population[state.worst] = child
            state.worst = None
        if child.value.total > state.best.value.total:
            state.best = child
    state.iteration += 1
    return state


def _event_list(events: Iterable[UpdateEvent]) -> list[UpdateEvent]:
    """`events` as a list; ConfigInvalid for an element that is no UpdateEvent."""
    events = list(events)
    for ev in events:
        if not isinstance(ev, UpdateEvent):
            raise ConfigInvalid(f"events must be UpdateEvents, got {clip_repr(ev)}")
    return events


def apply_events(state: GAState, batch: Iterable[UpdateEvent]) -> None:
    """Apply a batch of events, move the view to the new snapshot and
    re-score the population and the elite against it (population_size + 1
    evaluations), then max-merge the elite with the population, since an
    event can demote it.

    A weight-only batch (`AttributeView.reweighted`) patches the view and
    re-scores each individual from its cached labels, cluster count and
    intra-cluster weight. Any other batch rebuilds the view, carries each
    chromosome over to it with the scheme's `carry_over` and re-evaluates
    every individual: by the structural delta (`_regroup`) under a scheme
    with `extend` when the new node order starts with the old one, by a
    decode otherwise.

    An element that is no UpdateEvent raises ConfigInvalid; an event that
    cannot be applied, or a batch that leaves the view with no active nodes,
    raises EventError. Either comes before the run state changes.
    """
    batch = _event_list(batch)
    snapshot = state.view.base
    done: list[AppliedEvent] = []
    for ev in batch:
        try:
            snapshot, applied = snapshot.apply_traced(ev)
        except (NoagaError, ValueError) as exc:
            raise EventError(ev.tick, str(exc)) from exc
        done.append(applied)
    old = state.view
    patched = old.reweighted(snapshot, done)
    if patched is None:
        # the run stays on the attrs/aggregation of the view it started from
        view = AttributeView(snapshot, old.attrs, old.aggregation)
        if view.node_count == 0:
            raise EventError(batch[-1].tick, "the batch leaves the view with no active nodes")
        carry_over, rng = state.scheme.carry_over, state.rng
        changes = old.edge_changes(view, done) if state.scheme.extend else None

        def renew(ind: Individual) -> Individual:
            carried = carry_over(ind.chromosome, view, rng)
            if changes is None:
                return _evaluate(state, carried)
            return _regroup(state, ind, old.version, carried, changes)
    else:
        view, changes = patched

        def renew(ind: Individual) -> Individual:
            return _rescore(state, ind, old.version, changes)
    state.applied.extend(done)
    state.view = view
    # memo entries hold scores at the old view
    state.memo.clear()
    state.worst = None
    state.population[:] = [renew(ind) for ind in state.population]
    state.best = renew(state.best)
    for ind in state.population:
        if ind.value.total > state.best.value.total:
            state.best = ind


def snapshot_best(state: GAState) -> tuple[Partition, FitnessValue]:
    """The elite's partition of the live view, from the labels cached when
    it was scored, without touching the run."""
    best = state.best
    check_version("elite", best.version, state.view.version)
    return Partition.from_labels(state.view, unpack_labels(best.labels)), best.value


@dataclass
class RunResult:
    partition: Partition
    value: FitnessValue
    checkpoints: list[Checkpoint]
    noa_history: list[analysis.NoARecord]
    state: GAState
    unapplied_ticks: tuple[int, ...] = ()

    @property
    def final_records(self) -> list[analysis.NoARecord]:
        """The NoA records of `partition`, one per cluster: those of the
        run's last observation, which is always of the final elite at the
        final view."""
        return self.noa_history[-self.partition.cluster_count:]


def run(
    view: AttributeView,
    config: GAConfig,
    events: Iterable[UpdateEvent] = (),
) -> RunResult:
    """Full GA run with optional mid-run update events.

    An event with tick t applies before iteration t (ticks share the
    iteration axis). Checkpoints are emitted every checkpoint_every
    iterations plus once at termination when the final iteration is
    off-cadence; NoA records are appended at every checkpoint and after
    every event batch. Events the budget can no longer afford are returned
    as unapplied_ticks rather than half-applied. The result's partition
    and value are those of the last observation.
    """
    queue = _event_list(events)
    for prev, nxt in zip(queue, queue[1:]):
        if nxt.tick < prev.tick:
            raise EventError(nxt.tick, f"ticks must be non-decreasing (after {prev.tick})")
    state = init_population(view, config)
    checkpoints: list[Checkpoint] = []
    history: list[analysis.NoARecord] = []
    qi = 0
    last_checkpoint = -1
    tally: analysis.Tally | None = None

    def observe(tick: int, checkpoint: bool) -> None:
        """Record the elite's NoAs at `tick`, after a checkpoint if asked,
        from the tally of the elite's cached labels at the live view."""
        nonlocal tally
        best, live = state.best, state.view
        check_version("elite", best.version, live.version)
        tally = analysis.retally(tally, live, unpack_labels(best.labels))
        if checkpoint:
            sizes = tuple(map(len, tally.clusters))
            checkpoints.append(Checkpoint(state.iteration, state.evaluations, live.version,
                                          best.value.total, len(sizes), sizes))
        history.extend(tally.records(tick))

    while True:
        due = []
        while qi + len(due) < len(queue) and queue[qi + len(due)].tick <= state.iteration + 1:
            due.append(queue[qi + len(due)])
        if due:
            batch_cost = config.population_size + 1
            if state.evaluations + batch_cost + 2 > config.max_evaluations:
                break
            apply_events(state, due)
            qi += len(due)
            observe(state.view.base.tick, checkpoint=False)
        if state.evaluations + 2 > config.max_evaluations:
            break
        step(state)
        if state.iteration % config.checkpoint_every == 0:
            observe(state.iteration, checkpoint=True)
            last_checkpoint = state.iteration
    if state.iteration != last_checkpoint:
        observe(state.iteration, checkpoint=True)
    # every exit above follows an observation of the final elite and view,
    # so this is the partition of the last records
    partition, value = snapshot_best(state)
    unapplied = tuple(ev.tick for ev in queue[qi:])
    return RunResult(partition, value, checkpoints, history, state, unapplied)
