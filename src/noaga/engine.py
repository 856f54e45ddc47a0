"""Steady-state GA over partition chromosomes, with mid-run graph updates.

One evaluation = decode + score of one chromosome, and the budget is
counted in evaluations: initialization costs population_size, every step
costs 2, and each event batch costs population_size + 1 re-evaluations
(whole population plus the elite, all against the new snapshot).

Chromosomes are repaired only where they are made (crossover, mutation;
random ones are canonical) or where the view changes (an event batch).

Every random draw comes from one seeded RNG on the serial loop, so equal
seed, input, and events replay bit-identical runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from . import analysis, encoding
from .encoding import (
    EDGE_REMOVAL,
    SCHEMES,
    Chromosome,
    EdgeRemovalChromosome,
    SeparatorChromosome,
)
from .errors import ConfigInvalid, EventError, Exhausted, NoagaError
from .fitness import FitnessParams, FitnessValue, score
from .graph import (
    AppliedEvent,
    AttributeView,
    Partition,
    UpdateEvent,
)


@dataclass(frozen=True)
class GAConfig:
    """Run parameters. The projection (attributes and aggregation) is the
    one of the view the run is handed."""

    population_size: int = 100
    max_evaluations: int = 10_000
    crossover_rate: float = 0.85
    mutation_rate: float = 0.1
    scheme: str = EDGE_REMOVAL
    checkpoint_every: int = 100
    seed: int = 0
    p_init: float = 0.1
    k_max: int = 32
    fitness_params: FitnessParams = field(default_factory=FitnessParams)

    def __post_init__(self):
        for name in ("population_size", "max_evaluations", "checkpoint_every", "k_max", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigInvalid(f"{name} must be an integer, got {v!r}")
        if self.population_size < 2:
            raise ConfigInvalid(f"population_size must be >= 2, got {self.population_size}")
        if self.max_evaluations < self.population_size:
            raise ConfigInvalid(
                "max_evaluations must cover initialization "
                f"({self.max_evaluations} < population {self.population_size})"
            )
        for name in ("crossover_rate", "mutation_rate", "p_init"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigInvalid(f"{name} must be in [0, 1], got {v!r}")
        if self.scheme not in SCHEMES:
            raise ConfigInvalid(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.checkpoint_every < 1:
            raise ConfigInvalid(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.k_max < 1:
            raise ConfigInvalid(f"k_max must be >= 1, got {self.k_max}")


@dataclass
class Individual:
    """Chromosome with its cached score and the snapshot version it was
    scored against. The cache is valid only at that version."""

    chromosome: Chromosome
    value: FitnessValue
    version: int


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
    """Live run state; mutated in place by step() and event application."""

    view: AttributeView
    config: GAConfig
    rng: random.Random
    population: list[Individual]
    best: Individual | None = None
    evaluations: int = 0
    iteration: int = 0
    applied: list[AppliedEvent] = field(default_factory=list)


def _evaluate(state: GAState, chrom: Chromosome) -> Individual:
    """Decode a repaired chromosome to labels against the live view, score.
    Costs one evaluation."""
    labels, parts = encoding.decode_labels(chrom, state.view)
    value = score(labels, parts, state.view, state.config.fitness_params)
    state.evaluations += 1
    return Individual(chrom, value, state.view.version)


def init_population(view: AttributeView, config: GAConfig) -> GAState:
    """Seeded random population, every member evaluated once."""
    if view.node_count == 0:
        raise ConfigInvalid("cannot run on an empty view")
    state = GAState(view, config, random.Random(config.seed), [])
    for _ in range(config.population_size):
        chrom = encoding.random_chromosome(
            view, config.scheme, state.rng, p_init=config.p_init, k_max=config.k_max
        )
        state.population.append(_evaluate(state, chrom))
    best = state.population[0]
    for ind in state.population[1:]:
        if ind.value.total > best.value.total:
            best = ind
    state.best = Individual(best.chromosome, best.value, best.version)
    return state


def binary_tournament(state: GAState) -> Individual:
    """Two uniform draws with replacement; higher total wins, exact tie goes
    to the first drawn."""
    pop = state.population
    first = pop[state.rng.randrange(len(pop))]
    second = pop[state.rng.randrange(len(pop))]
    return second if second.value.total > first.value.total else first


def single_point_crossover(
    p1: EdgeRemovalChromosome,
    p2: EdgeRemovalChromosome,
    view: AttributeView,
    rng: random.Random,
) -> tuple[EdgeRemovalChromosome, EdgeRemovalChromosome]:
    """Splice prefix of one parent onto suffix of the other.

    Cut points are drawn independently per parent (a shared index is
    undefined when lengths differ). Children come back repaired.
    """
    r1, r2 = p1.removed, p2.removed
    cut1 = rng.randint(0, len(r1))
    cut2 = rng.randint(0, len(r2))
    child1 = EdgeRemovalChromosome(r1[:cut1] + r2[cut2:])
    child2 = EdgeRemovalChromosome(r2[:cut2] + r1[cut1:])
    return (
        encoding.repair_edge_removal(child1, view),
        encoding.repair_edge_removal(child2, view),
    )


def swap_crossover(
    p1: SeparatorChromosome,
    p2: SeparatorChromosome,
    node_count: int,
    rng: random.Random,
) -> tuple[SeparatorChromosome, SeparatorChromosome]:
    """Swap the k fields with p=0.5 and each aligned separator with p=0.5.

    Repair then reconciles k with the separator count, so a lone k swap is
    absorbed; the separator exchanges carry the genetic material.
    """
    k1, k2 = p1.k, p2.k
    s1, s2 = list(p1.separators), list(p2.separators)
    if rng.random() < 0.5:
        k1, k2 = k2, k1
    for i in range(min(len(s1), len(s2))):
        if rng.random() < 0.5:
            s1[i], s2[i] = s2[i], s1[i]
    return (
        encoding.repair_separator(SeparatorChromosome(k1, tuple(s1)), node_count),
        encoding.repair_separator(SeparatorChromosome(k2, tuple(s2)), node_count),
    )


def _draw_unlisted(view: AttributeView, listed: set, rng: random.Random, tries: int = 8):
    """Random active edge not already in the list; None when unlucky.

    Rejection sampling keeps this O(1) on big graphs; with the usual short
    removal lists a miss is rare, and a None simply skips the insertion.
    """
    pairs = view.pairs
    if not pairs:
        return None
    for _ in range(tries):
        p = pairs[rng.randrange(len(pairs))]
        if p not in listed:
            return p
    return None


def _mutate_edge_removal(
    chrom: EdgeRemovalChromosome,
    view: AttributeView,
    rate: float,
    rng: random.Random,
) -> EdgeRemovalChromosome:
    listed = set(chrom.removed)
    out: list = []
    for gene in chrom.removed:
        if rng.random() < rate:
            if rng.random() < 0.5:
                continue  # drop the removal
            repl = _draw_unlisted(view, listed, rng)
            out.append(repl if repl is not None else gene)
        else:
            out.append(gene)
    # growth move: without it the empty chromosome would be absorbing
    if rng.random() < rate:
        extra = _draw_unlisted(view, listed, rng)
        if extra is not None:
            out.append(extra)
    return encoding.repair_edge_removal(EdgeRemovalChromosome(tuple(out)), view)


def _mutate_separator(
    chrom: SeparatorChromosome,
    view: AttributeView,
    rate: float,
    rng: random.Random,
) -> SeparatorChromosome:
    n = view.node_count
    if n <= 1:
        return SeparatorChromosome(1, ())
    seps = [
        rng.randint(1, n - 1) if rng.random() < rate else s for s in chrom.separators
    ]
    if rng.random() < rate:  # k + 1: draw one more cut
        if len(seps) < n - 1:
            seps.append(rng.randint(1, n - 1))
    if rng.random() < rate:  # k - 1: drop a random cut
        if seps:
            seps.pop(rng.randrange(len(seps)))
    return encoding.repair_separator(
        SeparatorChromosome(len(seps) + 1, tuple(seps)), n
    )


def mutate(
    chrom: Chromosome, view: AttributeView, rate: float, rng: random.Random
) -> Chromosome:
    """Per-gene mutation at the given rate; the result is repaired."""
    if isinstance(chrom, EdgeRemovalChromosome):
        return _mutate_edge_removal(chrom, view, rate, rng)
    if isinstance(chrom, SeparatorChromosome):
        return _mutate_separator(chrom, view, rate, rng)
    raise ConfigInvalid(f"not a chromosome: {chrom!r}")


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
    if rng.random() < cfg.crossover_rate:
        if cfg.scheme == EDGE_REMOVAL:
            c1, c2 = single_point_crossover(p1.chromosome, p2.chromosome, state.view, rng)
        else:
            c1, c2 = swap_crossover(
                p1.chromosome, p2.chromosome, state.view.node_count, rng
            )
    else:
        c1, c2 = p1.chromosome, p2.chromosome
    for chrom in (c1, c2):
        child = _evaluate(state, mutate(chrom, state.view, cfg.mutation_rate, rng))
        worst = _worst_index(state.population)
        if child.value.total > state.population[worst].value.total:
            state.population[worst] = child
        if child.value.total > state.best.value.total:
            state.best = Individual(child.chromosome, child.value, child.version)
    state.iteration += 1
    return state


def apply_events(state: GAState, batch: Sequence[UpdateEvent]) -> None:
    """Apply a batch of events, rebuild the view, re-score everything.

    Every individual is re-repaired and re-evaluated against the new
    snapshot (those count against the budget), then the elite is re-scored
    and max-merged with the population, since an event can demote it.
    """
    snapshot = state.view.base
    for ev in batch:
        try:
            snapshot, applied = snapshot.apply_traced(ev)
        except (NoagaError, ValueError) as exc:
            raise EventError(ev.tick, str(exc)) from exc
        state.applied.append(applied)
    # the run stays on the attrs/aggregation of the view it started from
    state.view = AttributeView(snapshot, state.view.attrs, state.view.aggregation)
    for i, ind in enumerate(state.population):
        state.population[i] = _evaluate(state, encoding.repair(ind.chromosome, state.view))
    state.best = _evaluate(state, encoding.repair(state.best.chromosome, state.view))
    for ind in state.population:
        if ind.value.total > state.best.value.total:
            state.best = Individual(ind.chromosome, ind.value, ind.version)


def snapshot_best(state: GAState) -> tuple[Partition, FitnessValue]:
    """Decode the elite against the live snapshot without touching the run."""
    return encoding.decode(state.best.chromosome, state.view), state.best.value


@dataclass
class RunResult:
    partition: Partition
    value: FitnessValue
    checkpoints: list[Checkpoint]
    noa_history: list[analysis.NoARecord]
    state: GAState
    unapplied_ticks: tuple[int, ...] = ()


def _make_checkpoint(state: GAState, partition: Partition) -> Checkpoint:
    return Checkpoint(
        iteration=state.iteration,
        evaluations=state.evaluations,
        snapshot_version=state.view.version,
        best_total=state.best.value.total,
        cluster_count=partition.cluster_count,
        cluster_sizes=tuple(len(c) for c in partition.clusters),
    )


def run(
    view: AttributeView,
    config: GAConfig,
    events: Sequence[UpdateEvent] = (),
) -> RunResult:
    """Full GA run with optional mid-run update events.

    An event with tick t applies before iteration t (ticks share the
    iteration axis). Checkpoints are emitted every checkpoint_every
    iterations plus once at termination when the final iteration is
    off-cadence; NoA records are appended at every checkpoint and after
    every event batch. Events the budget can no longer afford are returned
    as unapplied_ticks rather than half-applied.
    """
    for prev, nxt in zip(events, events[1:]):
        if nxt.tick < prev.tick:
            raise EventError(nxt.tick, f"ticks must be non-decreasing (after {prev.tick})")
    state = init_population(view, config)
    checkpoints: list[Checkpoint] = []
    history: list[analysis.NoARecord] = []
    queue = list(events)
    qi = 0
    last_checkpoint = -1
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
            part, _ = snapshot_best(state)
            history.extend(analysis.noa_records(part, state.view, state.view.base.tick))
        if state.evaluations + 2 > config.max_evaluations:
            break
        step(state)
        if state.iteration % config.checkpoint_every == 0:
            part, _ = snapshot_best(state)
            checkpoints.append(_make_checkpoint(state, part))
            history.extend(analysis.noa_records(part, state.view, state.iteration))
            last_checkpoint = state.iteration
    if state.iteration != last_checkpoint:
        part, _ = snapshot_best(state)
        checkpoints.append(_make_checkpoint(state, part))
        history.extend(analysis.noa_records(part, state.view, state.iteration))
    partition, value = snapshot_best(state)
    unapplied = tuple(ev.tick for ev in queue[qi:])
    return RunResult(partition, value, checkpoints, history, state, unapplied)
