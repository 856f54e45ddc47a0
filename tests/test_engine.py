"""Steady-state GA: operators, budget accounting, event handling."""

import random

import pytest
from hypothesis import given, settings
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
    SeparatorChromosome,
    UnrepairedChromosome,
    UpdateEvent,
    binary_tournament,
    init_population,
    mutate,
    run,
    single_point_crossover,
    snapshot_best,
    step,
    swap_crossover,
)
from noaga import encoding
from noaga.engine import GAState, apply_events

from conftest import TABLE1_VIEWS, raw_chromosomes, small_views


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
    config = GAConfig(population_size=max(2, len(totals)), seed=seed)
    pop = [
        Individual(EdgeRemovalChromosome(()), FitnessValue(t, 0.0, 0.0, 0), 0)
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
    with pytest.raises(ConfigInvalid):
        GAConfig(k_max=0)
    for bad in (
        {"population_size": 2.5},
        {"population_size": True},
        {"max_evaluations": 100.5},
        {"checkpoint_every": 2.0},
        {"k_max": 1.5},
        {"k_max": True},
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
    # the elite is a copy, not an alias into the population
    assert all(state.best is not ind for ind in state.population)


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
    c1, c2 = swap_crossover(p1, p2, emails.node_count, rng)
    assert c1 == SeparatorChromosome(3, (4, 5))
    assert c2 == SeparatorChromosome(2, (2,))


def test_swap_crossover_identical_parents(emails):
    rng = random.Random(21)
    p = SeparatorChromosome(4, (3, 7, 11))
    for _ in range(20):
        c1, c2 = swap_crossover(p, p, emails.node_count, rng)
        assert c1 == p
        assert c2 == p


def test_mutate_rate_zero_is_identity(emails):
    rng = random.Random(31)
    er = encoding.repair(EdgeRemovalChromosome(((4, 7), (5, 6))), emails)
    assert mutate(er, emails, 0.0, rng) == er
    sep = SeparatorChromosome(3, (5, 9))
    assert mutate(sep, emails, 0.0, rng) == sep


def test_mutate_grows_empty_chromosome(emails):
    rng = random.Random(41)
    out = mutate(EdgeRemovalChromosome(()), emails, 1.0, rng)
    assert len(out) == 1
    assert out.removed[0] in emails.pair_index


def test_mutate_outputs_always_decodable(emails):
    rng = random.Random(51)
    er = EdgeRemovalChromosome(((4, 7), (5, 6), (8, 14)))
    sep = SeparatorChromosome(4, (3, 8, 12))
    for _ in range(200):
        er = mutate(er, emails, 0.5, rng)
        sep = mutate(sep, emails, 0.5, rng)
        encoding.decode(er, emails)
        encoding.decode(sep, emails)
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
        apply_events(state, [UpdateEvent.add_edge(7, 99, 100, (1,))])
    assert info.value.tick == 7
    assert "99" in str(info.value)


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
        encoding.decode(ind.chromosome, result.state.view)  # must not raise


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


def _canonical(chrom, view):
    return encoding.repair(chrom, view) == chrom


views = st.one_of(st.sampled_from(TABLE1_VIEWS), small_views())


@settings(max_examples=200, deadline=None)
@given(views, st.sampled_from(SCHEMES), st.sampled_from([0.1, 0.5, 1.0]), st.integers(0, 2**32))
def test_operators_make_canonical_chromosomes(view, scheme, p_init, seed):
    # the engine scores what the operators make without repairing it again
    rng = random.Random(seed)
    p1, p2 = (
        encoding.random_chromosome(view, scheme, rng, p_init=p_init, k_max=8) for _ in range(2)
    )
    if scheme == EDGE_REMOVAL:
        children = single_point_crossover(p1, p2, view, rng)
    else:
        children = swap_crossover(p1, p2, view.node_count, rng)
    for chrom in (p1, p2, *children):
        assert _canonical(chrom, view)
        assert _canonical(mutate(chrom, view, 0.5, rng), view)


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
        assert _canonical(ind.chromosome, state.view)


@settings(max_examples=200, deadline=None)
@given(views, raw_chromosomes)
def test_snapshot_best_rejects_an_unrepaired_elite(view, raw):
    state = init_population(view, GAConfig(population_size=2, max_evaluations=10))
    state.best = Individual(raw, state.best.value, state.best.version)
    if _canonical(raw, view):
        assert snapshot_best(state)[0] == encoding.decode(raw, view)
    else:
        with pytest.raises(UnrepairedChromosome):
            snapshot_best(state)
