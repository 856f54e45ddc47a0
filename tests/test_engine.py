"""Steady-state GA: operators, budget accounting, event handling."""

import ast
import random
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noaga import (
    EDGE_REMOVAL,
    SCHEMES,
    AttributeSchema,
    AttributeView,
    ConfigInvalid,
    Edge,
    EdgeRemovalChromosome,
    EventError,
    Exhausted,
    FitnessValue,
    GAConfig,
    GraphSnapshot,
    Individual,
    LocusChromosome,
    SeparatorChromosome,
    StaleSnapshot,
    UnrepairedChromosome,
    UpdateEvent,
    binary_tournament,
    init_population,
    run,
    single_point_crossover,
    snapshot_best,
    step,
    swap_crossover,
    uniform_crossover,
)
from noaga import analysis, encoding, engine
from noaga.encoding import (LOCUS, SCHEME_TABLE, SEPARATOR, Scheme, _draw_unlisted,
                            repair_separator)
from noaga.engine import (GAState, _evaluate, _worst_index, apply_events, pack_labels,
                          unpack_labels)
from noaga.fitness import score_terms
from noaga.graph import part_labels

from conftest import (
    REPAIRS,
    REWEIGHT_VIEWS,
    TABLE1_VIEWS,
    canonical,
    multi_attr_views,
    repair_edge_removal,
    reweight_batches,
    small_views,
    structural_batches,
    to_partition,
)


def triangle_view():
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [Edge(a, b, (4,)) for a, b in [(1, 2), (1, 3), (2, 3)]])
    return AttributeView(snap)


class ScriptRng:
    """Replays scripted draws so operator examples are exact."""

    def __init__(self, ints=(), floats=()):
        self.ints = list(ints)
        self.floats = list(floats)

    def randint(self, a, b):
        v = self.ints.pop(0)
        assert a <= v <= b
        return v

    def random(self):
        return self.floats.pop(0)


def fake_state(totals, view, seed=0):
    config = GAConfig(population_size=max(2, len(totals)), seed=seed, scheme=EDGE_REMOVAL)
    # one cluster of every node, as the empty removal list decodes to
    pop = [
        Individual(
            EdgeRemovalChromosome(()), FitnessValue(t, 0.0, 0.0, 0), 0,
            [0] * view.node_count, 1, view.total_weight, pack_labels([view.edge_count]),
        )
        for t in totals
    ]
    return GAState(view, config, random.Random(seed), pop)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        GAConfig(population_size=1)
    with pytest.raises(ConfigInvalid):
        GAConfig(population_size=10, max_evaluations=9)
    with pytest.raises(ConfigInvalid):
        GAConfig(crossover_rate=1.5)
    with pytest.raises(ConfigInvalid):
        GAConfig(mutation_rate=-0.1)
    with pytest.raises(ConfigInvalid):
        GAConfig(scheme="bitmask")
    with pytest.raises(ConfigInvalid):
        GAConfig(checkpoint_every=0)
    for bad in (
        {"population_size": 2.5},
        {"population_size": True},
        {"max_evaluations": 100.5},
        {"checkpoint_every": 2.0},
        {"seed": 1.0},
        {"seed": False},
    ):
        with pytest.raises(ConfigInvalid):
            GAConfig(**bad)


def test_init_population_counts_and_best(emails):
    config = GAConfig(population_size=12, max_evaluations=100, seed=5)
    state = init_population(emails, config)
    assert len(state.population) == 12
    assert state.evaluations == 12
    assert state.iteration == 0
    assert state.best.value.total == max(i.value.total for i in state.population)
    # the elite is the best member itself, not a copy of it
    assert any(state.best is ind for ind in state.population)


def test_init_population_deterministic(emails):
    config = GAConfig(population_size=8, max_evaluations=100, seed=7)
    a = init_population(emails, config)
    b = init_population(emails, config)
    assert [i.chromosome for i in a.population] == [i.chromosome for i in b.population]
    assert [i.value for i in a.population] == [i.value for i in b.population]


def test_init_population_rejects_empty_view():
    schema = AttributeSchema(("w1",))
    empty = AttributeView(GraphSnapshot.build(schema, []))
    with pytest.raises(ConfigInvalid):
        init_population(empty, GAConfig())


def test_tournament_favors_fitter(emails):
    state = fake_state([1.0, 4.0], emails, seed=11)
    wins = sum(binary_tournament(state).value.total == 4.0 for _ in range(10_000))
    # P(stronger wins) = 3/4 with two uniform draws
    assert 0.72 <= wins / 10_000 <= 0.78


def test_tournament_uniform_on_ties(emails):
    state = fake_state([2.0, 2.0, 2.0, 2.0], emails, seed=13)
    counts = [0, 0, 0, 0]
    for _ in range(10_000):
        winner = binary_tournament(state)
        # dataclass equality would collapse the equal members: match by identity
        idx = next(i for i, ind in enumerate(state.population) if ind is winner)
        counts[idx] += 1
    chi2 = sum((c - 2500) ** 2 / 2500 for c in counts)
    assert chi2 < 16.27  # 99.9% quantile, 3 degrees of freedom


def test_tournament_singleton_population(emails):
    state = fake_state([3.0], emails)
    assert binary_tournament(state).value.total == 3.0


def test_single_point_crossover_example():
    view = triangle_view()
    p1 = EdgeRemovalChromosome(((1, 2),))
    p2 = EdgeRemovalChromosome(((1, 2), (2, 3)))
    c1, c2 = single_point_crossover(p1, p2, view, ScriptRng(ints=[1, 0]))
    # prefix (1,2) + whole of p2 duplicates (1,2); repair drops the duplicate
    assert c1.removed == ((1, 2), (2, 3))
    assert c2.removed == ()


def test_single_point_crossover_equal_cuts_identity():
    view = triangle_view()
    p = EdgeRemovalChromosome(((1, 2), (2, 3)))
    c1, c2 = single_point_crossover(p, p, view, ScriptRng(ints=[1, 1]))
    assert c1 == p
    assert c2 == p


def test_swap_crossover_example(emails):
    p1 = SeparatorChromosome(3, (2, 4))
    p2 = SeparatorChromosome(2, (5,))
    rng = ScriptRng(floats=[0.9, 0.3])  # keep k fields, swap separator 0
    c1, c2 = swap_crossover(p1, p2, emails, rng)
    assert c1 == SeparatorChromosome(3, (4, 5))
    assert c2 == SeparatorChromosome(2, (2,))


def test_swap_crossover_identical_parents(emails):
    rng = random.Random(21)
    p = SeparatorChromosome(4, (3, 7, 11))
    for _ in range(20):
        c1, c2 = swap_crossover(p, p, emails, rng)
        assert c1 == p
        assert c2 == p


ER = SCHEME_TABLE[EDGE_REMOVAL]
SEP = SCHEME_TABLE[SEPARATOR]


def test_mutate_rate_zero_is_identity(emails):
    rng = random.Random(31)
    er = repair_edge_removal(EdgeRemovalChromosome(((4, 7), (5, 6))), emails)
    assert ER.mutate(er, emails, 0.0, rng) == er
    sep = SeparatorChromosome(3, (5, 9))
    assert SEP.mutate(sep, emails, 0.0, rng) == sep


def test_mutate_grows_empty_chromosome(emails):
    rng = random.Random(41)
    out = ER.mutate(EdgeRemovalChromosome(()), emails, 1.0, rng)
    assert len(out) == 1
    assert out.removed[0] in emails.pair_index


def test_mutate_outputs_always_decodable(emails):
    rng = random.Random(51)
    er = EdgeRemovalChromosome(((4, 7), (5, 6), (8, 14)))
    sep = SeparatorChromosome(4, (3, 8, 12))
    for _ in range(200):
        er = ER.mutate(er, emails, 0.5, rng)
        sep = SEP.mutate(sep, emails, 0.5, rng)
        ER.decode(er, emails)
        SEP.decode(sep, emails)
        assert sep.k == len(sep.separators) + 1


def test_step_costs_two_evaluations(emails):
    config = GAConfig(population_size=6, max_evaluations=100, seed=3)
    state = init_population(emails, config)
    step(state)
    assert state.evaluations == 8
    assert state.iteration == 1
    assert len(state.population) == 6


def test_step_raises_when_budget_spent(emails):
    config = GAConfig(population_size=6, max_evaluations=7, seed=3)
    state = init_population(emails, config)
    with pytest.raises(Exhausted):
        step(state)


def test_step_replacement_is_strict_improvement(emails):
    # clones only: worst can rise, best and everyone above the worst persist
    config = GAConfig(
        population_size=10, max_evaluations=400, crossover_rate=0.0,
        mutation_rate=0.0, seed=17,
    )
    state = init_population(emails, config)
    best0 = state.best.value.total
    for _ in range(50):
        before = sorted(i.value.total for i in state.population)
        step(state)
        after = sorted(i.value.total for i in state.population)
        assert min(after) >= min(before)
        assert after[-1] == before[-1]
    assert state.best.value.total == best0


def test_step_deterministic(emails):
    config = GAConfig(population_size=8, max_evaluations=200, seed=23)
    a = init_population(emails, config)
    b = init_population(emails, config)
    for _ in range(30):
        step(a)
        step(b)
    assert [i.value for i in a.population] == [i.value for i in b.population]
    assert a.best.value == b.best.value


def test_run_finds_two_triangle_optimum(two_triangle):
    config = GAConfig(population_size=20, max_evaluations=1000, seed=3, checkpoint_every=250)
    result = run(two_triangle, config)
    assert result.partition.clusters == ((1, 2, 3), (4, 5, 6))
    assert result.value.total == pytest.approx(0.9)
    assert result.unapplied_ticks == ()


def test_run_checkpoint_cadence_exact(emails):
    config = GAConfig(
        population_size=10, max_evaluations=10 + 2 * 1000, seed=1, checkpoint_every=100
    )
    result = run(emails, config)
    assert [c.iteration for c in result.checkpoints] == list(range(100, 1001, 100))
    assert result.state.evaluations == config.max_evaluations
    totals = [c.best_total for c in result.checkpoints]
    assert totals == sorted(totals)


def test_run_checkpoint_off_cadence_appends_final(emails):
    config = GAConfig(
        population_size=10, max_evaluations=10 + 2 * 250, seed=1, checkpoint_every=100
    )
    result = run(emails, config)
    assert [c.iteration for c in result.checkpoints] == [100, 200, 250]


def test_run_odd_budget_leaves_one_evaluation(emails):
    config = GAConfig(population_size=10, max_evaluations=15, seed=2)
    result = run(emails, config)
    assert result.state.evaluations == 14
    assert result.state.iteration == 2
    assert [c.iteration for c in result.checkpoints] == [2]


def test_apply_events_reevaluates_everything(two_triangle):
    config = GAConfig(population_size=4, max_evaluations=100, seed=5)
    state = init_population(two_triangle, config)
    apply_events(state, [UpdateEvent.add_edge(1, 1, 4, (1,))])
    assert state.evaluations == 4 + 4 + 1
    assert state.view.version == 1
    assert all(ind.version == 1 for ind in state.population)
    assert state.best.version == 1
    assert state.best.value.total == max(i.value.total for i in state.population)
    assert len(state.applied) == 1
    assert state.applied[0].pair == (1, 4)


def test_apply_events_wraps_errors_with_tick(two_triangle):
    config = GAConfig(population_size=4, max_evaluations=100, seed=5)
    state = init_population(two_triangle, config)
    with pytest.raises(EventError) as info:
        apply_events(state, [UpdateEvent.add_node(7, 50), UpdateEvent.add_edge(7, 99, 100, (1,))])
    assert info.value.tick == 7
    assert "99" in str(info.value)
    # the batch is refused whole: the event before the bad one is not kept
    assert state.applied == [] and state.view is two_triangle


def test_run_rejects_decreasing_ticks(two_triangle):
    events = [UpdateEvent.add_node(5, "X"), UpdateEvent.add_node(3, "Y")]
    with pytest.raises(EventError) as info:
        run(two_triangle, GAConfig(population_size=4, max_evaluations=50), events)
    assert info.value.tick == 3


def test_run_applies_event_before_its_tick(two_triangle):
    config = GAConfig(
        population_size=10, max_evaluations=200, seed=9, checkpoint_every=5
    )
    events = [UpdateEvent.add_edge(3, 1, 4, (1,))]
    result = run(two_triangle, config, events)
    assert result.unapplied_ticks == ()
    # batch lands after iteration 2: init 10 + 2 steps (4) + batch (11) + 3 steps (6)
    first = result.checkpoints[0]
    assert first.iteration == 5
    assert first.evaluations == 31
    assert first.snapshot_version == 1
    batch_records = [r for r in result.noa_history if r.tick == 3]
    assert batch_records and all(r.attrs == ("w1",) for r in batch_records)


def test_run_tick_zero_applies_before_first_step(two_triangle):
    config = GAConfig(population_size=10, max_evaluations=100, seed=9)
    result = run(two_triangle, config, [UpdateEvent.add_node(0, "Z")])
    assert result.noa_history[0].tick == 0
    assert (7,) in result.partition.clusters  # fresh node decodes as a singleton


def test_run_reports_unaffordable_events(two_triangle):
    config = GAConfig(population_size=10, max_evaluations=22, seed=2)
    result = run(two_triangle, config, [UpdateEvent.add_node(5, "Z")])
    assert result.unapplied_ticks == (5,)
    assert result.state.evaluations == 18
    assert result.state.iteration == 4
    assert result.state.view.version == 0


def test_run_survives_edge_removal(two_triangle):
    config = GAConfig(population_size=10, max_evaluations=300, seed=4)
    result = run(two_triangle, config, [UpdateEvent.remove_edge(2, 3, 4)])
    assert result.partition.clusters == ((1, 2, 3), (4, 5, 6))
    assert result.value.total == 1.0
    for ind in result.state.population:
        result.state.scheme.decode(ind.chromosome, result.state.view)  # must not raise


def test_run_keeps_view_projection_across_events(sample):
    # an event must not widen a single-attribute view back to all attributes
    view = AttributeView(sample, ("emails",))
    config = GAConfig(population_size=10, max_evaluations=120, seed=1)
    events = [UpdateEvent.add_edge(2, 1, 14, (0, 9, 0))]  # posts-only edge
    result = run(view, config, events)
    live = result.state.view
    assert live.attrs == ("emails",)
    assert (1, 14) not in live.pair_index
    assert live.version == 1


def test_run_deterministic_replay(emails):
    config = GAConfig(population_size=10, max_evaluations=400, seed=6)
    a = run(emails, config)
    b = run(emails, config)
    assert a.partition == b.partition
    assert a.value == b.value
    assert a.checkpoints == b.checkpoints
    assert a.noa_history == b.noa_history


def test_snapshot_best_is_stable(emails):
    config = GAConfig(population_size=6, max_evaluations=60, seed=8)
    state = init_population(emails, config)
    p1, v1 = snapshot_best(state)
    p2, v2 = snapshot_best(state)
    assert p1 == p2
    assert v1 == v2
    assert v1.total == state.best.value.total


views = st.one_of(st.sampled_from(TABLE1_VIEWS), small_views())


@settings(max_examples=200, deadline=None)
@given(views, st.sampled_from(SCHEMES), st.sampled_from([0.1, 0.5, 1.0]), st.integers(0, 2**32))
def test_operators_make_canonical_chromosomes(view, scheme, p_init, seed):
    # the engine scores what the operators make without repairing it again
    rng = random.Random(seed)
    record = SCHEME_TABLE[scheme]
    p1, p2 = (record.random(view, rng, p_init) for _ in range(2))
    children = record.crossover(p1, p2, view, rng)
    for chrom in (p1, p2, *children):
        assert canonical(scheme, chrom, view)
        assert canonical(scheme, record.mutate(chrom, view, 0.5, rng), view)


def _replay(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _repaired_raw_mutant(chrom, view, rate, rng):
    """The edge-removal mutation as a raw gene list, repaired afterwards."""
    listed = set(chrom.removed)
    out = []
    for gene in chrom.removed:
        if rng.random() < rate:
            if rng.random() < 0.5:
                continue
            repl = _draw_unlisted(view, listed, rng)
            out.append(repl if repl is not None else gene)
        else:
            out.append(gene)
    if rng.random() < rate:
        extra = _draw_unlisted(view, listed, rng)
        if extra is not None:
            out.append(extra)
    return repair_edge_removal(EdgeRemovalChromosome(tuple(out)), view)


@settings(max_examples=300, deadline=None)
@given(views, st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from([0.1, 0.5, 1.0]),
       st.integers(0, 2**32))
def test_edge_removal_operators_equal_repair_of_the_raw_genes(view, p_init, rate, seed):
    # canonical parents: dropping repeats alone gives what repair would give
    rng = random.Random(seed)
    p1, p2 = (encoding.random_edge_removal(view, rng, p_init) for _ in range(2))
    twin = _replay(rng)
    children = single_point_crossover(p1, p2, view, rng)
    r1, r2 = p1.removed, p2.removed
    cut1, cut2 = twin.randint(0, len(r1)), twin.randint(0, len(r2))
    splices = (r1[:cut1] + r2[cut2:], r2[:cut2] + r1[cut1:])
    for child, splice in zip(children, splices):
        assert child == repair_edge_removal(EdgeRemovalChromosome(splice), view)
    for chrom in (p1, p2, *children):
        twin = _replay(rng)
        assert ER.mutate(chrom, view, rate, rng) == _repaired_raw_mutant(chrom, view, rate, twin)
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("removed", [((4, 7), (5, 6), (4, 7)), ((7, 4),), ((1, 15),)])
def test_mutation_passes_a_non_canonical_chromosome_to_decode(emails, removed):
    # a duplicate, a reversed pair, a pair that is no edge of the view
    chrom = EdgeRemovalChromosome(removed)
    assert not canonical(EDGE_REMOVAL, chrom, emails)
    state = init_population(emails, GAConfig(population_size=2, max_evaluations=10,
                                             scheme=EDGE_REMOVAL))
    mutant = ER.mutate(chrom, emails, 0.0, state.rng)
    assert mutant == chrom
    with pytest.raises(UnrepairedChromosome):
        _evaluate(state, mutant)
    assert state.evaluations == 2


@settings(max_examples=100, deadline=None)
@given(views, st.sampled_from(SCHEMES), st.integers(0, 2**32), st.data())
def test_apply_events_repairs_for_the_new_view(view, scheme, seed, data):
    if not view.pairs:
        return
    a, b = data.draw(st.sampled_from(view.pairs))
    config = GAConfig(population_size=6, max_evaluations=100, scheme=scheme, p_init=0.5, seed=seed)
    state = init_population(view, config)
    apply_events(state, [UpdateEvent.remove_edge(1, a, b)])
    assert (a, b) not in state.view.pair_index
    for ind in (*state.population, state.best):
        assert canonical(scheme, ind.chromosome, state.view)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_views(), multi_attr_views()), st.sampled_from(SCHEMES),
       st.integers(0, 2**32), st.data())
def test_structural_batches_drop_only_the_genes_that_left_the_view(view, scheme, seed, data):
    if view.node_count == 0:
        return
    config = GAConfig(population_size=6, max_evaluations=100, scheme=scheme, p_init=0.5, seed=seed)
    state = init_population(view, config)
    old = [ind.chromosome for ind in (*state.population, state.best)]
    try:
        apply_events(state, data.draw(structural_batches(view)))
    except EventError as exc:
        assert "no active nodes" in str(exc)
        return
    new = state.view
    for before, ind in zip(old, state.population):
        after = ind.chromosome
        if isinstance(before, EdgeRemovalChromosome):
            assert after == repair_edge_removal(before, new)
            if set(before.removed) <= new.pair_index.keys():
                assert after is before  # nothing left the view: kept, not copied
        elif isinstance(before, LocusChromosome):
            assert _carried_over(before, after, new)
        else:
            assert after == repair_separator(before, new)
    # the elite is the old elite carried over, unless a member now beats it
    elite, members = state.best.chromosome, [ind.chromosome for ind in state.population]
    if scheme == LOCUS:
        assert _carried_over(old[-1], elite, new) or elite in members
    else:
        assert elite in (REPAIRS[scheme](old[-1], new), *members)


def _neighbour_sets(view):
    """Each active node's neighbours, from the view's edge list alone; an
    isolate's is the node itself."""
    nbrs = {node: set() for node in view.nodes}
    for a, b in view.pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return {node: found or {node} for node, found in nbrs.items()}


def _carried_over(before, after, view):
    """Whether locus chromosome `after` is `before` carried over to `view`:
    one gene per active node naming a neighbour (an isolate: itself), and
    each node's old gene kept when its link is still in the view."""
    nbrs = _neighbour_sets(view)
    old = dict(zip(before.nodes, before.links))
    return after.nodes == view.nodes and all(
        gene in nbrs[node] and (gene == old.get(node) or old.get(node) not in nbrs[node])
        for node, gene in zip(after.nodes, after.links)
    )


@settings(max_examples=100, deadline=None)
@given(REWEIGHT_VIEWS, st.integers(0, 2**32), st.data())
def test_locus_genes_follow_the_live_view_through_every_batch(view, seed, data):
    # a structural batch gives the run a view with its own neighbour table,
    # and every gene names a neighbour there; a weight-only batch keeps
    # every chromosome as it is
    if view.node_count == 0:
        return
    config = GAConfig(population_size=6, max_evaluations=400, scheme=LOCUS, seed=seed)
    state = init_population(view, config)
    for _ in range(3):
        step(state)
        old = state.view
        before = [ind.chromosome for ind in (*state.population, state.best)]
        batch = data.draw(st.one_of(reweight_batches(old), structural_batches(old)))
        snapshot = old.base
        for ev in batch:
            snapshot = snapshot.apply(ev)
        fresh = AttributeView(snapshot, view.attrs, view.aggregation)
        try:
            apply_events(state, batch)
        except EventError:
            assert fresh.node_count == 0
            return
        assert state.view.neighbours == fresh.neighbours
        nbrs = _neighbour_sets(fresh)
        after = [ind.chromosome for ind in (*state.population, state.best)]
        for chrom in after:
            assert chrom.nodes == fresh.nodes
            assert all(gene in nbrs[node] for node, gene in zip(chrom.nodes, chrom.links))
        if (fresh.nodes, fresh.pairs) == (old.nodes, old.pairs):
            assert after[:-1] == before[:-1]  # the elite may give way to a member
            assert after[-1] in before


@settings(max_examples=100, deadline=None)
@given(views, st.sampled_from(SCHEMES))
def test_snapshot_best_is_the_elite_decode_and_rejects_a_stale_elite(view, scheme):
    state = init_population(view, GAConfig(population_size=2, max_evaluations=10, scheme=scheme))
    want = to_partition(state.scheme, state.best.chromosome, view)
    assert snapshot_best(state) == (want, state.best.value)
    state.best = replace(state.best, version=state.best.version + 1)
    with pytest.raises(StaleSnapshot):
        snapshot_best(state)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_snapshot_best_decodes_nothing(two_triangle, scheme):
    # checkpoints, NoA observations after batches and the result all take
    # the elite's partition from its cached labels
    config = GAConfig(population_size=6, max_evaluations=300, seed=5, checkpoint_every=7,
                      scheme=scheme)
    events = [
        UpdateEvent.add_edge(4, 1, 4, (2,)),
        UpdateEvent.update_weight(11, 1, 2, "w1", 9),
        UpdateEvent.add_node(11, "Z"),
        UpdateEvent.remove_edge(20, 3, 4),
    ]
    want = run(two_triangle, config, events)
    inside = []

    def only_outside(decode):
        def guarded(*args):
            if inside:
                raise AssertionError("snapshot_best decoded a chromosome")
            return decode(*args)
        return guarded

    def flagged(state):
        inside.append(1)
        try:
            return snapshot_best(state)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as mp:
        record = encoding.SCHEME_TABLE[scheme]
        mp.setitem(encoding.SCHEME_TABLE, scheme,
                   replace(record, decode=only_outside(record.decode)))
        mp.setattr(engine, "snapshot_best", flagged)
        got = run(two_triangle, config, events)
    assert got.state.view.version == 4 and len(got.checkpoints) > 3
    assert (got.partition, got.value, got.checkpoints, got.noa_history, got.unapplied_ticks) == (
        want.partition, want.value, want.checkpoints, want.noa_history, want.unapplied_ticks
    )
    assert _run_state(got.state) == _run_state(want.state)


def _counting_decodes(mp, state):
    """Make the run's scheme record count its decodes into the returned list."""
    calls = []
    decode = state.scheme.decode
    counted = replace(state.scheme, decode=lambda *a: calls.append(1) or decode(*a))
    mp.setattr(state, "scheme", counted)
    return calls


def _apply_counting_decodes(state, batch, *, full=False):
    """apply_events, returning how many chromosomes it decoded; `full`
    forces the rebuild path, as if no batch were weight-only."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_decodes(mp, state)
        if full:
            mp.setattr(AttributeView, "reweighted", lambda *a: None)
        apply_events(state, batch)
    return len(calls)


def _run_state(state):
    return (
        [(i.chromosome, i.value, i.version, i.labels, i.k, i.weight_in, i.ties)
         for i in state.population],
        (state.best.chromosome, state.best.value, state.best.version, state.best.labels,
         state.best.k, state.best.weight_in, state.best.ties),
        state.evaluations, state.iteration, state.rng.getstate(), list(state.applied),
        state.view.pairs, state.view.weights, state.view.total_weight, state.view.nodes,
    )


def _outcome(state, batch, *, full=False):
    """`_apply_counting_decodes`, or the message of the EventError it raised."""
    try:
        return _apply_counting_decodes(state, batch, full=full)
    except EventError as exc:
        return str(exc)


class _ScriptedData:
    """Stands in for `st.data()` in an @example: hands out fixed draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def draw(self, strategy):
        return self.draws.pop(0)


def _emptied_view():
    """View on a: (0, 1) is its only active edge and (1, 2) carries only b,
    so zeroing (0, 1) on a leaves the view with no active nodes while both
    edges stay in the snapshot."""
    schema = AttributeSchema(("a", "b"))
    edges = [Edge(0, 1, (3, 1)), Edge(1, 2, (0, 2))]
    return AttributeView(GraphSnapshot.build(schema, edges), ("a",))


EMPTYING = [UpdateEvent.update_weight(1, 0, 1, "a", 0)]


@settings(max_examples=150, deadline=None)
@given(REWEIGHT_VIEWS, st.sampled_from(SCHEMES), st.integers(0, 2**32), st.data())
@example(_emptied_view(), EDGE_REMOVAL, 0,
         _ScriptedData(EMPTYING, [UpdateEvent.update_weight(1, 0, 1, "a", 5)], EMPTYING))
def test_weight_only_batches_rescore_like_a_full_rebuild(view, scheme, seed, data):
    if view.node_count == 0:
        return
    config = GAConfig(population_size=6, max_evaluations=400, scheme=scheme, p_init=0.5, seed=seed)
    fast, full = init_population(view, config), init_population(view, config)
    for _ in range(3):
        before = fast.view
        kept = _run_state(fast)
        batch = data.draw(reweight_batches(before))
        snapshot = before.base
        for ev in batch:
            snapshot = snapshot.apply(ev)
        after = AttributeView(snapshot, view.attrs, view.aggregation)
        structural = _structural_decodes(full, after) if after.node_count else None
        decoded = _outcome(fast, batch)
        rebuilt = _outcome(full, batch, full=True)
        if after.node_count == 0:
            # both paths refuse a batch that empties the view, and neither moves the run
            assert decoded == rebuilt
            assert rebuilt.startswith("event at tick 1: ")
            assert _run_state(fast) == _run_state(full) == kept
            continue
        # the forced rebuild decodes every member that cannot keep its
        # clusters: under locus none, when the edge set stayed
        assert rebuilt == structural
        touched = {(min(ev.a, ev.b), max(ev.a, ev.b)) for ev in batch}
        weight_only = all(
            k in after.base.edges and (k in after.pair_index) == (k in before.pair_index)
            for k in touched
        )
        if weight_only and scheme == LOCUS:
            assert structural == 0
        # a weight-only batch decodes nothing, any other as the rebuild does
        assert decoded == (0 if weight_only else structural)
        assert fast.view.nodes == after.nodes and fast.view.pairs == after.pairs
        assert _run_state(fast) == _run_state(full)
        for _ in range(3):
            step(fast)
            step(full)
        assert _run_state(fast) == _run_state(full)
    assert snapshot_best(fast) == snapshot_best(full)


def _inactive_edge_view():
    """View on a: (2, 3) is inactive there, so 3, with no other edge, is
    not in the view; (1, 4) is active on a and also carries b."""
    schema = AttributeSchema(("a", "b"))
    edges = [Edge(1, 2, (3, 0)), Edge(2, 3, (0, 2)), Edge(1, 4, (2, 2)), Edge(2, 4, (1, 0))]
    return AttributeView(GraphSnapshot.build(schema, edges), ("a",))


def _genes_on(members, pair):
    """How many of the locus `members` have a gene on the edge `pair`."""
    a, b = pair
    count = 0
    for m in members:
        genes = dict(zip(m.chromosome.nodes, m.chromosome.links))
        count += genes.get(a) == b or genes.get(b) == a
    return count


def _keeps_clusters(before, carried, old, new):
    """The rule of the structural delta, stated over the views: `before`,
    canonical for `old`, keeps its clusters as `carried` on `new` when
    `new`'s node order starts with `old`'s, carry-over kept every gene,
    and each new node links to itself or an earlier node."""
    n = old.node_count
    if new.nodes[:n] != old.nodes or carried.links[:n] != before.links:
        return False
    return all(new.node_index[gene] <= i for i, gene in enumerate(carried.links) if i >= n)


def _carried_members(state, new):
    """The chromosomes a structural batch to `new` carries the population
    and then the elite over to, from a copy of the run's RNG."""
    rng = random.Random()
    rng.setstate(state.rng.getstate())
    return [state.scheme.carry_over(m.chromosome, new, rng)
            for m in (*state.population, state.best)]


def _structural_decodes(state, new):
    """How many decodes a structural batch to `new` costs: every member
    under a scheme without the delta, else each that does not keep its
    clusters."""
    members = (*state.population, state.best)
    if state.scheme.extend is None:
        return len(members)
    return sum(not _keeps_clusters(m.chromosome, carried, state.view, new)
               for m, carried in zip(members, _carried_members(state, new)))


@pytest.mark.parametrize(
    "batch, lost, decodes",
    [
        ([UpdateEvent.add_node(1, 9)], None, 0),
        ([UpdateEvent.add_edge(1, 1, 3, (1, 0))], None, 5),
        ([UpdateEvent.remove_edge(1, 2, 4)], (2, 4), 4),
        ([UpdateEvent.update_weight(1, 1, 4, "a", 0)], (1, 4), 2),
        ([UpdateEvent.update_weight(1, 2, 3, "a", 5)], None, 5),
        ([UpdateEvent.update_weight(1, 2, 3, "b", 0)], None, 5),
        ([UpdateEvent.update_weight(1, 1, 2, "a", 7), UpdateEvent.update_weight(1, 2, 3, "b", 0)],
         None, 5),
    ],
    ids=["add-node", "add-edge", "remove-edge", "zero-in-view", "revive-in-view",
         "zero-all-of-inactive", "weight-then-structural"],
)
def test_structural_batches_decode_only_the_members_that_lose_their_clusters(
    batch, lost, decodes
):
    # a locus member keeps its clusters when every gene survives on a view
    # that appends nodes: a new isolate decodes no one, an edge leaving the
    # view decodes the members with a gene on it (the `lost` pair), and node
    # 3 entering the view mid-order (add-edge, revive, and zeroing the
    # inactive edge, which isolates 3) decodes everyone
    view = _inactive_edge_view()
    state = init_population(view, GAConfig(population_size=4, max_evaluations=100, seed=3))
    if lost is not None:
        assert _genes_on((*state.population, state.best), lost) == decodes
    assert _apply_counting_decodes(state, batch) == decodes
    fresh = AttributeView(state.view.base, ("a",))
    assert state.view.nodes == fresh.nodes and state.view.pairs == fresh.pairs
    assert state.evaluations == 4 + 4 + 1
    for ind in (*state.population, state.best):
        assert ind.labels == pack_labels(state.scheme.decode(ind.chromosome, fresh))


def test_zeroing_an_inactive_edge_isolates_its_endpoint():
    # the snapshot drops the edge, so 3 has no edge at all and is active
    view = _inactive_edge_view()
    assert 3 not in view.node_index
    state = init_population(view, GAConfig(population_size=4, max_evaluations=100, seed=1))
    apply_events(state, [UpdateEvent.update_weight(1, 2, 3, "b", 0)])
    assert state.view.nodes == (1, 2, 3, 4)
    assert (3,) in snapshot_best(state)[0].clusters


def test_weight_only_batch_rejects_a_stale_individual():
    view = _inactive_edge_view()
    state = init_population(view, GAConfig(population_size=4, max_evaluations=100, seed=1))
    state.population[2] = replace(state.population[2], version=7)
    with pytest.raises(StaleSnapshot):
        apply_events(state, [UpdateEvent.update_weight(1, 1, 2, "a", 7)])


def test_structural_batch_rejects_a_stale_individual():
    # the structural delta reads a member's cached labels and ties, so a
    # member scored at another version is refused, as by a weight-only batch
    view = _inactive_edge_view()
    state = init_population(view, GAConfig(population_size=4, max_evaluations=100, seed=1))
    state.population[2] = replace(state.population[2], version=7)
    with pytest.raises(StaleSnapshot):
        apply_events(state, [UpdateEvent.add_node(1, 9)])


@st.composite
def mixed_structural_batches(draw, view):
    """A structural batch (`structural_batches`: new nodes with the largest
    ids, added, removed and zeroed edges), alone or before or after a
    weight-only one (`reweight_batches`)."""
    order = draw(st.sampled_from(["structural", "then-weights", "weights-then"]))
    first = draw(reweight_batches(view) if order == "weights-then" else structural_batches(view))
    if order == "structural":
        return first
    snapshot = view.base
    for ev in first:
        snapshot = snapshot.apply(ev)
    mid = AttributeView(snapshot, view.attrs, view.aggregation)
    then = reweight_batches(mid) if order == "then-weights" else structural_batches(mid)
    return first + draw(then)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_views(), multi_attr_views()), st.integers(0, 2**32), st.data())
def test_the_structural_delta_equals_a_fresh_decode_and_score(view, seed, data):
    if view.node_count == 0:
        return
    config = GAConfig(population_size=6, max_evaluations=400, mutation_rate=0.3, seed=seed)
    state = init_population(view, config)
    for _ in range(3):
        for _ in range(3):
            step(state)
        old = state.view
        batch = data.draw(mixed_structural_batches(old))
        snapshot = old.base
        for ev in batch:
            snapshot = snapshot.apply(ev)
        new = AttributeView(snapshot, view.attrs, view.aggregation)
        if new.node_count == 0:
            return
        members = (*state.population, state.best)
        carried = _carried_members(state, new)
        keeps = [_keeps_clusters(m.chromosome, c, old, new) for m, c in zip(members, carried)]
        extended = []
        with pytest.MonkeyPatch.context() as mp:
            decodes = _counting_decodes(mp, state)
            extend = state.scheme.extend
            mp.setattr(state, "scheme", replace(
                state.scheme, extend=lambda *a: extended.append(extend(*a)) or extended[-1]))
            apply_events(state, batch)
        if state.view.nodes is old.nodes:
            # zeroing an attribute outside the view can leave a batch weight-only
            assert decodes == extended == []
        else:
            # the members that keep their clusters take the delta, the rest decode
            assert len(decodes) == keeps.count(False)
            assert sum(labels is not None for labels in extended) == keeps.count(True)
            assert [ind.chromosome for ind in state.population] == carried[:-1]
        for ind in {id(ind): ind for ind in (*state.population, state.best)}.values():
            labels = state.scheme.decode(ind.chromosome, new)
            value, k, weight_in, ties = score_terms(labels, labels, new)
            assert (ind.value, ind.labels, ind.k, ind.weight_in, ind.ties) == (
                value, pack_labels(labels), k, weight_in, pack_labels(ties))
            assert ind.version == new.version


def test_a_run_with_every_observation_counted_afresh_is_the_same_run(emails):
    # the kept tally is patched only where a full count gives the same records
    config = GAConfig(population_size=10, max_evaluations=800, checkpoint_every=20, seed=4)
    events = _table1_stream(emails)
    want = run(emails, config, events)
    with pytest.MonkeyPatch.context() as mp:
        passes = []
        mp.setattr(engine.analysis, "retally",
                   lambda kept, view, labels: passes.append(1) or analysis.Tally(view, labels))
        got = run(emails, config, events)
    # one observation after each batch and one at each checkpoint
    assert want.state.view.version == len(events)
    assert len(passes) == len(events) + len(want.checkpoints)
    assert (got.partition, got.value, got.checkpoints, got.noa_history, got.unapplied_ticks) == (
        want.partition, want.value, want.checkpoints, want.noa_history, want.unapplied_ticks
    )


def _fresh_terms(state, labels):
    """`score_terms` of decoded labels at the live view, without the memo."""
    view = state.view
    parts = labels if state.scheme.connected else part_labels(view, labels)
    return score_terms(labels, parts, view)


def _scored_afresh(state, chrom):
    """`_evaluate` without the score memo: decode against the live view and
    score, one evaluation."""
    labels = state.scheme.decode(chrom, state.view)
    value, k, weight_in, ties = _fresh_terms(state, labels)
    state.evaluations += 1
    return Individual(chrom, value, state.view.version, pack_labels(labels), k, weight_in,
                      pack_labels(ties))


REFERENCE_CROSSOVER = {
    EDGE_REMOVAL: single_point_crossover, SEPARATOR: swap_crossover, LOCUS: uniform_crossover,
}


def _reference_step(state):
    """`step` without score memo or a kept worst index: every child is
    decoded and scored, and the worst member is looked up before every
    replacement test."""
    cfg, rng = state.config, state.rng
    p1 = binary_tournament(state)
    p2 = binary_tournament(state)
    if rng.random() < cfg.crossover_rate:
        crossover = REFERENCE_CROSSOVER[cfg.scheme]
        c1, c2 = crossover(p1.chromosome, p2.chromosome, state.view, rng)
    else:
        c1, c2 = p1.chromosome, p2.chromosome
    for chrom in (c1, c2):
        child = _scored_afresh(
            state, state.scheme.mutate(chrom, state.view, cfg.mutation_rate, rng)
        )
        worst = _worst_index(state.population)
        if child.value.total > state.population[worst].value.total:
            state.population[worst] = child
        if child.value.total > state.best.value.total:
            state.best = replace(child)
    state.iteration += 1


def event_batches(view):
    """A weight-only or structural batch: re-weights (`reweight_batches`),
    a new node, a removed edge, or an edge added between two nodes."""
    nodes = sorted(view.base.nodes)
    free = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
            if (a, b) not in view.base.edges]
    weights = (2,) * view.base.schema.arity
    batches = [reweight_batches(view), st.just([UpdateEvent.add_node(1, "new")])]
    if view.pairs:
        batches.append(st.sampled_from(view.pairs).map(lambda p: [UpdateEvent.remove_edge(1, *p)]))
    if free:
        batches.append(st.sampled_from(free).map(lambda p: [UpdateEvent.add_edge(1, *p, weights)]))
    return st.one_of(batches)


@settings(max_examples=150, deadline=None)
@given(views, st.sampled_from(SCHEMES), st.sampled_from([0.0, 0.1, 0.85]),
       st.sampled_from([0.0, 0.1, 0.85]), st.integers(0, 2**32), st.data())
def test_step_equals_scoring_every_child(view, scheme, crossover, mutation, seed, data):
    # a memoised partition takes its memo entry, a child equal to a parent
    # among them, and the worst member is looked up only after the
    # population changed: same run as scoring every child afresh
    config = GAConfig(population_size=6, max_evaluations=400, crossover_rate=crossover,
                      mutation_rate=mutation, scheme=scheme, p_init=0.5, seed=seed)
    fast, slow = init_population(view, config), init_population(view, config)
    batch = data.draw(event_batches(view))
    for phase in range(2):
        for _ in range(12):
            step(fast)
            _reference_step(slow)
            assert _run_state(fast) == _run_state(slow)
        if phase == 0:
            try:
                apply_events(slow, batch)
            except EventError:
                with pytest.raises(EventError):
                    apply_events(fast, batch)
            else:
                apply_events(fast, batch)
            assert _run_state(fast) == _run_state(slow)


class _NeverHits(dict):
    """A score memo that stores every entry and never returns one."""

    def get(self, key, default=None):
        return None


def _memo_never_hits(mp):
    """Give every run state made under `mp` a memo that never hits."""
    post_init = GAState.__post_init__

    def patched(self):
        post_init(self)
        self.memo = _NeverHits()

    mp.setattr(GAState, "__post_init__", patched)


def _counting_scores(mp):
    """Count the engine's score_terms calls into the returned list."""
    calls = []
    mp.setattr(engine, "score_terms", lambda *a: calls.append(1) or score_terms(*a))
    return calls


@pytest.mark.parametrize("scheme", SCHEMES)
def test_clone_steps_score_nothing(emails, scheme):
    # with no crossover and no mutation every child equals a parent: it is
    # decoded like any child, lands on its parent's memo entry and is
    # charged one evaluation without being scored
    config = GAConfig(population_size=6, max_evaluations=100, crossover_rate=0.0,
                      mutation_rate=0.0, scheme=scheme, p_init=0.5, seed=3)
    state = init_population(emails, config)
    with pytest.MonkeyPatch.context() as mp:
        decodes = _counting_decodes(mp, state)
        scores = _counting_scores(mp)
        for i in range(1, 21):
            step(state)
            assert state.evaluations == 6 + 2 * i
    assert len(decodes) == 40
    assert scores == []


def _table1_stream(view):
    """Weight-only batches at ticks 40 and 140, structural ones at 90, 190
    and 240, on `view`'s edges."""
    p = view.pairs
    weights = (3,) * view.base.schema.arity
    return [
        UpdateEvent.update_weight(40, *p[0], view.attrs[0], 9),
        UpdateEvent.remove_edge(90, *p[3]),
        UpdateEvent.update_weight(140, *p[5], view.attrs[0], 1),
        UpdateEvent.add_node(190, "new"),
        UpdateEvent.add_edge(240, "new", p[1][0], weights),
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("stream", [False, True], ids=["static", "stream"])
def test_a_memo_that_never_hits_gives_the_same_run(emails, scheme, stream):
    # the memo only saves scoring: scoring every partition afresh ends in
    # the same result and run state, across weight-only and structural batches
    config = GAConfig(population_size=10, max_evaluations=800, checkpoint_every=50,
                      scheme=scheme, p_init=0.3, seed=4)
    events = _table1_stream(emails) if stream else ()
    with pytest.MonkeyPatch.context() as mp:
        memo_scores = _counting_scores(mp)
        want = run(emails, config, events)
    with pytest.MonkeyPatch.context() as mp:
        fresh_scores = _counting_scores(mp)
        _memo_never_hits(mp)
        got = run(emails, config, events)
    assert want.state.view.version == len(events) and not want.unapplied_ticks
    assert (got.partition, got.value, got.checkpoints, got.noa_history, got.unapplied_ticks) == (
        want.partition, want.value, want.checkpoints, want.noa_history, want.unapplied_ticks
    )
    assert _run_state(got.state) == _run_state(want.state)
    assert len(memo_scores) < len(fresh_scores)


def _assert_memo_is_fresh(state):
    """Every memo entry is the score of its labels at the live view."""
    for labels, scored in state.memo.items():
        assert scored[0] is labels
        value, k, weight_in, ties = _fresh_terms(state, unpack_labels(labels).tolist())
        assert scored[1:] == (value, k, weight_in, pack_labels(ties))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_memo_holds_at_most_population_size_entries(emails, scheme):
    config = GAConfig(population_size=6, max_evaluations=1000, scheme=scheme, p_init=0.5,
                      mutation_rate=0.5, seed=2)
    state = init_population(emails, config)
    sizes = [len(state.memo)]
    batches = {60: _table1_stream(emails)[:1], 120: _table1_stream(emails)[1:2]}
    for i in range(180):
        if i in batches:
            apply_events(state, batches[i])
            sizes.append(len(state.memo))
            _assert_memo_is_fresh(state)
        step(state)
        sizes.append(len(state.memo))
        _assert_memo_is_fresh(state)
    assert max(sizes) == config.population_size


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_weight_only_batch_leaves_no_memoised_score_behind(emails, scheme):
    config = GAConfig(population_size=6, max_evaluations=100, scheme=scheme, p_init=0.5, seed=1)
    state = init_population(emails, config)
    view = state.view
    # a member and an edge inside one of its clusters, whose weight the batch moves
    ind, i = next((ind, i) for ind in state.population
                  for labels in [unpack_labels(ind.labels)] for i in range(len(view.pairs))
                  if labels[view.ea[i]] == labels[view.eb[i]])
    apply_events(state, [UpdateEvent.update_weight(1, *view.pairs[i], "emails",
                                                   view.weights[i] + 5)])
    assert state.view.version == 1 and state.view.pairs == view.pairs
    got = _evaluate(state, ind.chromosome)
    want = _scored_afresh(state, ind.chromosome)
    assert (got.value, got.k, got.weight_in) == (want.value, want.k, want.weight_in)
    assert got.weight_in == ind.weight_in + 5 and got.value != ind.value


def _fresh_view(view):
    """A new build of `view`, whose lookup tables no other test has read."""
    return AttributeView(view.base, view.attrs, view.aggregation)


def _counting_pair_index_builds(mp):
    """Record each view whose `pair_index` is built into the returned list."""
    builds = []
    build = AttributeView.pair_index.func
    counted = cached_property(lambda view: builds.append(view) or build(view))
    counted.__set_name__(AttributeView, "pair_index")
    mp.setattr(AttributeView, "pair_index", counted)
    return builds


def test_a_locus_run_never_builds_the_pair_index(emails):
    view = _fresh_view(emails)
    result = run(view, GAConfig(population_size=10, max_evaluations=300, seed=2))
    assert result.state.scheme is SCHEME_TABLE[LOCUS] and result.state.view is view
    assert "pair_index" not in vars(view)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_weight_only_batch_shares_the_pair_index_and_a_structural_one_builds_its_own(
    emails, scheme
):
    config = GAConfig(population_size=6, max_evaluations=200, scheme=scheme, p_init=0.5, seed=1)
    with pytest.MonkeyPatch.context() as mp:
        builds = _counting_pair_index_builds(mp)
        view = _fresh_view(emails)
        state = init_population(view, config)
        weight_only, structural = _table1_stream(view)[:2]
        apply_events(state, [weight_only])
        assert state.view is not view and state.view.pairs is view.pairs
        assert builds == [view] and state.view.pair_index is view.pair_index
        apply_events(state, [structural])
        rebuilt = state.view
        # only edge-removal's carry-over reads the new view's table
        assert ("pair_index" in vars(rebuilt)) == (scheme == EDGE_REMOVAL)
        assert rebuilt.pair_index == {p: i for i, p in enumerate(rebuilt.pairs)}
        assert builds == [view, rebuilt]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_labels_and_memo_keys_are_packed_decodes(emails, scheme):
    config = GAConfig(population_size=6, max_evaluations=400, scheme=scheme, p_init=0.5,
                      mutation_rate=0.3, seed=5)
    state = init_population(emails, config)

    def assert_packed():
        n = state.view.node_count
        for ind in [*state.population, state.best]:
            assert type(ind.labels) is bytes and len(ind.labels) == 4 * n
            assert unpack_labels(ind.labels).tolist() == state.scheme.decode(ind.chromosome,
                                                                              state.view)
        for key in state.memo:
            assert type(key) is bytes and len(key) == 4 * n
            labels = unpack_labels(key).tolist()
            assert sorted(set(labels)) == list(range(max(labels) + 1))

    batches = {20: _table1_stream(emails)[:1], 40: _table1_stream(emails)[1:2]}
    for i in range(60):
        if i in batches:
            apply_events(state, batches[i])
            assert_packed()
        step(state)
        assert_packed()


def test_members_with_equal_labels_share_one_labels_object(emails):
    # a memo hit hands the member the memo's own key, so a converged
    # population holds one copy of each partition's labels
    result = run(emails, GAConfig(population_size=20, max_evaluations=2000, seed=1))
    members = result.state.population
    distinct = {ind.labels for ind in members}
    assert len({id(ind.labels) for ind in members}) == len(distinct) < len(members)


def test_run_takes_events_from_any_iterable(two_triangle):
    config = GAConfig(population_size=4, max_evaluations=60, checkpoint_every=5, seed=2)
    events = [UpdateEvent.remove_edge(3, 3, 4), UpdateEvent.add_edge(6, 1, 4, (2,))]
    want = run(two_triangle, config, events)
    got = run(two_triangle, config, iter(events))
    assert not want.unapplied_ticks and want.state.view.version == 2
    assert (got.partition, got.value, got.checkpoints, got.noa_history) == (
        want.partition, want.value, want.checkpoints, want.noa_history
    )
    assert _run_state(got.state) == _run_state(want.state)


@pytest.mark.parametrize("batch", [[1], [UpdateEvent.remove_edge(1, 3, 4), "remove"]],
                         ids=["int", "str-after-event"])
def test_apply_events_rejects_a_non_event_before_changing_the_run(two_triangle, batch):
    state = init_population(two_triangle, GAConfig(population_size=4, max_evaluations=60))
    before = _run_state(state)
    view, memo = state.view, dict(state.memo)
    with pytest.raises(ConfigInvalid):
        apply_events(state, batch)
    assert _run_state(state) == before
    assert state.view is view and state.memo == memo


def test_the_weight_only_test_lives_in_the_view():
    # `AttributeView.reweighted` alone decides whether a batch is weight-only
    # and what it changes; the engine neither tests event kinds nor looks
    # edges up again
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    named = [f"engine.py:{node.lineno}: {name}" for node in ast.walk(tree)
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))
             if name in ("EventKind", "pair_index")]
    assert named == []


def test_every_scheme_field_and_config_knob_is_read_by_the_engine():
    # a record field or knob that only tests read is dead weight: each must
    # be read as an attribute in engine.py outside GAConfig, whose
    # validation alone does not count as a use
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "GAConfig")
    own = {id(node) for node in ast.walk(config)}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in own}
    unread = [f"{cls.__name__}.{f.name}" for cls in (Scheme, GAConfig) for f in fields(cls)
              if f.name not in read]
    assert unread == []
