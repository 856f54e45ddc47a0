"""Tests of the benchmark's output checker and generators.

    python3 -m pytest bench/test_check.py

The checker must reject wrong outputs: a wrong total, a disconnected
cluster, a wrong NoA, a falling best_total, a broken budget and an oracle
beaten by the GA. NMI is checked on hand-worked cases.
"""

import copy
import math
import random

import pytest

import check
import gen

# two triangles {1,2,3} and {4,5,6} (weight 4) joined by (3,4) (weight 1)
EDGES = {(1, 2): (4,), (1, 3): (4,), (2, 3): (4,),
         (4, 5): (4,), (4, 6): (4,), (5, 6): (4,), (3, 4): (1,)}
PARAMS = {"lambda_cut": 2.5, "mu_small": 0.5, "sigma_small": 2}


def view():
    return check.View(check.Graph(("w",), EDGES), ("w",))


def partition_obj(clusters, v):
    """A partition JSON as the program writes it, with correct figures."""
    f = check.fitness(clusters, v, **PARAMS)
    out = []
    for c in clusters:
        inside = set(c)
        ties = sum(1 for n in c for o, _ in v.adj[n] if o in inside)
        out.append({"members": list(c), "noa": check.find_noa(c, v),
                    "closeness": 0.0 if len(c) == 1 else ties / (len(c) * (len(c) - 1))})
    return {"clusters": out, "fitness": f}


def test_correct_partition_passes():
    v = view()
    assert check.check_partition(partition_obj([(1, 2, 3), (4, 5, 6)], v), v, PARAMS,
                                 connected=True) == []


def test_hand_worked_total():
    # closeness 1 in both triangles; cut weight 1 of 25
    f = check.fitness([(1, 2, 3), (4, 5, 6)], view(), **PARAMS)
    assert f["closeness_mean"] == 1.0
    assert f["cut_fraction"] == pytest.approx(1 / 25)
    assert f["total"] == pytest.approx(1.0 - 2.5 / 25)


def test_rejects_wrong_total():
    v = view()
    obj = partition_obj([(1, 2, 3), (4, 5, 6)], v)
    obj["fitness"]["total"] += 1e-6
    problems = check.check_partition(obj, v, PARAMS, connected=True)
    assert any("fitness total" in p for p in problems)


def test_rejects_disconnected_cluster():
    v = view()
    obj = partition_obj([(1, 2, 5), (3, 4, 6)], v)
    problems = check.check_partition(obj, v, PARAMS, connected=True)
    assert any("not connected" in p for p in problems)
    # the same clusters are legal where the encoding allows them
    assert check.check_partition(obj, v, PARAMS, connected=False) == []


def test_rejects_wrong_noa():
    v = view()
    obj = partition_obj([(1, 2, 3), (4, 5, 6)], v)
    assert obj["clusters"][0]["noa"] == 1  # all tie on 2 ties, weight 8: smallest id
    obj["clusters"][0]["noa"] = 2
    problems = check.check_partition(obj, v, PARAMS, connected=True)
    assert any("NoA" in p for p in problems)


def test_noa_tie_breaks():
    # ties first, then intra weight, then smallest id
    edges = {(1, 2): (1,), (1, 3): (1,), (2, 3): (5,)}
    v = check.View(check.Graph(("w",), edges), ("w",))
    assert check.find_noa((1, 2, 3), v) == 2  # 2 and 3 tie on ties and weight 6
    assert check.find_noa((1, 2), v) == 1


def test_rejects_bad_coverage_and_overlap():
    v = view()
    obj = partition_obj([(1, 2, 3), (4, 5, 6)], v)
    obj["clusters"][1]["members"] = [3, 4, 5, 6]
    problems = check.check_partition(obj, v, PARAMS, connected=True)
    assert any("overlap" in p for p in problems)
    obj["clusters"][1]["members"] = [4, 5]
    assert any("coverage" in p for p in check.check_partition(obj, v, PARAMS, connected=True))


def test_small_count_counts_parts_inside_clusters():
    # {1,2,3,6}: 6 is a stray part of size 1 inside the cluster
    f = check.fitness([(1, 2, 3, 6), (4, 5)], view(), **PARAMS)
    assert f["small_count"] == 1


CHECKPOINTS = [
    {"iteration": 100, "evaluations": 220, "snapshot_version": 0, "best_total": 0.5},
    {"iteration": 150, "evaluations": 20 + 300 + 21, "snapshot_version": 1, "best_total": 0.4},
    {"iteration": 200, "evaluations": 20 + 400 + 21, "snapshot_version": 1, "best_total": 0.45},
]


def test_checkpoints_pass():
    assert check.check_checkpoints(CHECKPOINTS, population=20, iterations=200, batches=1,
                                   version=1) == []


def test_rejects_best_total_falling_without_event():
    records = copy.deepcopy(CHECKPOINTS)
    records[2]["best_total"] = 0.3
    assert any("fell" in p for p in check.check_checkpoints(
        records, population=20, iterations=200, batches=1, version=1))


def test_rejects_budget_and_unapplied_events():
    problems = check.check_checkpoints(CHECKPOINTS, population=20, iterations=200, batches=2,
                                       version=2)
    assert any("accounting" in p for p in problems)
    assert any("unapplied" in p for p in problems)


def test_noa_log_replays_events():
    graph = check.Graph(("w",), EDGES)
    events = [{"tick": 5, "kind": "update_weight", "a": 3, "b": 4, "attr": "w", "value": 0}]
    views = check.views_by_tick(graph, events, ("w",), [1, 5])
    assert (3, 4) in views[1].weights and (3, 4) not in views[5].weights
    records = [
        {"tick": 1, "members": [1, 2, 3, 4, 5, 6], "noa": 3, "edges": 7, "weight": 25},
        {"tick": 5, "members": [1, 2, 3], "noa": 1, "edges": 3, "weight": 12},
        {"tick": 5, "members": [4, 5, 6], "noa": 4, "edges": 3, "weight": 12},
    ]
    assert check.check_noa_log(records, views) == []
    records[1]["noa"] = 2
    assert any("NoA" in p for p in check.check_noa_log(records, views))
    del records[2]
    assert any("ends inside" in p for p in check.check_noa_log(records, views))


def test_oracle_bound():
    assert check.check_oracle_bound(0.5, [0.5, 0.4]) == []
    assert check.check_oracle_bound(0.5, [0.51]) != []


def test_nmi_identical_is_one():
    a = check.labels([(1, 2, 3), (4, 5), (6,)])
    b = check.labels([(6,), (4, 5), (1, 2, 3)])  # cluster order and ids do not matter
    assert check.nmi(a, b) == pytest.approx(1.0)


def test_nmi_independent_is_zero():
    a = check.labels([(1, 2), (3, 4)])
    b = check.labels([(1, 3), (2, 4)])
    assert check.nmi(a, b) == pytest.approx(0.0, abs=1e-12)
    # one cluster carries no information about any split
    assert check.nmi(check.labels([(1, 2, 3, 4)]), a) == 0.0


def test_nmi_hand_worked():
    # A = {1,2},{3,4}; B = {1,2,3},{4}: H(A) = ln 2, I = H(A) - H(A|B)
    a = check.labels([(1, 2), (3, 4)])
    b = check.labels([(1, 2, 3), (4,)])
    ha = math.log(2)
    hb = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    hab = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
    assert check.nmi(a, b) == pytest.approx(2 * (ha + hb - hab) / (ha + hb))


def test_generator_is_seeded_and_planted_beats_one_cluster():
    edges, truth = gen.planted_graph(random.Random(3), communities=20, size=10, chords=28,
                                     extra_inter=5)
    again, _ = gen.planted_graph(random.Random(3), communities=20, size=10, chords=28,
                                 extra_inter=5)
    assert edges == again
    assert len(edges) == 20 * 38 + 19 + 5
    v = check.View(check.Graph(("w",), {k: (w,) for k, w in edges.items()}), ("w",))
    groups = {}
    for node, c in truth.items():
        groups.setdefault(c, []).append(node)
    planted = check.fitness(list(groups.values()), v, **PARAMS)["total"]
    single = check.fitness([sorted(v.nodes)], v, **PARAMS)["total"]
    assert planted > single


def test_stream_events_replay_to_the_reported_final_state():
    rng = random.Random(0)
    edges, truth = gen.planted_graph(rng, communities=10, size=10, chords=28, extra_inter=3)
    graph = check.Graph(("msgs",), {k: (w,) for k, w in edges.items()})
    events, kinds = gen.stream_events(rng, edges, truth, batches=10, first_tick=5, gap=5)
    for ev in events:
        graph.apply(ev)
    assert graph.edges == {k: (w,) for k, w in edges.items()}
    assert kinds.count("weights") == 8 and "add_node" in kinds and "remove_edge" in kinds
    assert set(truth) == graph.nodes
