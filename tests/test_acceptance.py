"""Acceptance gate: one test per shipped behavioral guarantee.

Each test exercises the public surface (CLI or library API) end to end and
asserts the stated tolerance, so `pytest -v tests/test_acceptance.py` prints
one pass/fail line per criterion.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from noaga import (
    AttributeSchema,
    AttributeView,
    ConfigInvalid,
    Edge,
    EdgeRemovalChromosome,
    ForeignEdge,
    GAConfig,
    GraphSnapshot,
    Partition,
    SeparatorChromosome,
    StaleSnapshot,
    UpdateEvent,
    datasets,
    fitness,
    io,
    linkage_nodes,
    merge_signals,
    optimal_partition,
    run,
)
from noaga.cli import main
from noaga.encoding import EDGE_REMOVAL, LOCUS, SCHEME_TABLE, SEPARATOR, repair_separator

from conftest import (COMMENTS_TARGET, EMAILS_TARGET, POSTS_TARGET, repair_edge_removal,
                      to_partition)


@pytest.fixture(scope="module")
def table1(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "table1.tsv"
    assert main(["gen", "--preset", "table1", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def events_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "events.jsonl"
    assert main(["gen", "--preset", "table2-events", "-o", str(path)]) == 0
    return str(path)


def cluster_sweep(table1, tmp_path, attr, target, noas):
    """Run `cluster` for seeds 0..9; return how many land on the target."""
    hits = 0
    for seed in range(10):
        out = tmp_path / f"{attr}-{seed}.json"
        started = time.perf_counter()
        code = main([
            "cluster", "-i", table1, "--attr", attr,
            "--seed", str(seed), "-o", str(out),
        ])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 30.0, f"seed {seed} took {elapsed:.1f}s"
        obj = json.loads(out.read_text())
        clusters = tuple(tuple(c["members"]) for c in obj["clusters"])
        if clusters == target:
            assert [c["noa"] for c in obj["clusters"]] == noas
            hits += 1
    return hits


def test_ac1_emails_partition_consensus(table1, tmp_path):
    hits = cluster_sweep(table1, tmp_path, "emails", EMAILS_TARGET, [1, 6, 14])
    assert hits >= 9, f"only {hits}/10 seeds found the email communities"


def test_ac2_posts_partition_consensus(table1, tmp_path):
    hits = cluster_sweep(table1, tmp_path, "posts", POSTS_TARGET, [6, 14])
    assert hits >= 9, f"only {hits}/10 seeds found the post communities"


def test_ac3_comments_partition_consensus(table1, tmp_path):
    hits = cluster_sweep(table1, tmp_path, "comments", COMMENTS_TARGET, [1, 14])
    assert hits >= 9, f"only {hits}/10 seeds found the comment communities"


def test_ac4_dynamic_arrivals_track_noa(table1, events_file, tmp_path):
    out = tmp_path / "stream.json"
    noa_log = tmp_path / "stream.noa.jsonl"
    started = time.perf_counter()
    code = main([
        "stream", "-i", table1, "--events", events_file, "--attr", "emails",
        "--seed", "3", "-o", str(out), "--noa-log", str(noa_log),
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 60.0, f"stream run took {elapsed:.1f}s"

    _, records = io.read_noa_log(str(noa_log))
    before = [r for r in records if r.tick < 2500 and r.members == (6, 7, 8, 9)]
    middle = [r for r in records if 2500 <= r.tick < 3500 and 16 in r.members]
    after = [r for r in records if r.tick >= 3500 and 17 in r.members]
    assert before and middle and after

    # the clique starts on its smallest member, adopts X on arrival, then Y
    assert all(r.noa == 6 for r in before)
    assert all(r.members == (6, 7, 8, 9, 16) and r.noa == 16 for r in middle)
    assert all(r.noa == 17 for r in after)
    assert all({6, 7, 8, 9, 16, 17} <= set(r.members) for r in after)

    obj = json.loads(out.read_text())
    clusters = tuple(tuple(c["members"]) for c in obj["clusters"])
    assert clusters == (
        (1, 2, 3, 4, 5),
        (6, 7, 8, 9, 16, 17),
        (10, 11, 12, 13, 14, 15),
    )


def random_graph(case: int) -> AttributeView:
    rng = random.Random(1000 + case)
    n = rng.randint(3, 8)
    p = rng.uniform(0.3, 0.9)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = [pair for pair in pairs if rng.random() < p]
    if not chosen:
        chosen = [rng.choice(pairs)]
    edges = [Edge(a, b, (rng.randint(1, 9),)) for a, b in chosen]
    snap = GraphSnapshot.build(AttributeSchema(("w1",)), edges)
    return AttributeView(snap)


def test_ac5_matches_bruteforce_optimum():
    started = time.perf_counter()
    hits = 0
    for case in range(50):
        view = random_graph(case)
        result = run(view, GAConfig(seed=case, scheme=EDGE_REMOVAL))
        _, best = optimal_partition(view)
        if abs(result.value.total - best.total) <= 1e-9:
            hits += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"oracle comparison took {elapsed:.1f}s"
    assert hits >= 48, f"GA matched the brute-force optimum on {hits}/50 graphs"


def test_locus_matches_bruteforce_optimum():
    # ac5 for the default encoding; ac5 itself keeps edge removal checked
    hits = 0
    for case in range(50):
        view = random_graph(case)
        result = run(view, GAConfig(seed=case, scheme=LOCUS))
        _, best = optimal_partition(view)
        hits += abs(result.value.total - best.total) <= 1e-9
    assert hits >= 48, f"GA matched the brute-force optimum on {hits}/50 graphs"


def planted_communities(rng, communities, size, chords, extra_inter):
    """Edge list TSV text of a planted-partition graph and its communities:
    each community a ring of `size` shuffled node ids plus `chords` random
    chords, weights 3..6; one edge from each community to the one before,
    plus `extra_inter` more between random community pairs, weights 1..2."""
    ids = list(range(1, communities * size + 1))
    rng.shuffle(ids)
    blocks = [ids[c * size:(c + 1) * size] for c in range(communities)]
    edges = {}
    for members in blocks:
        for i in range(size):
            edges[tuple(sorted((members[i], members[(i + 1) % size])))] = rng.randint(3, 6)
        added = 0
        while added < chords:
            key = tuple(sorted(rng.sample(members, 2)))
            if key not in edges:
                edges[key] = rng.randint(3, 6)
                added += 1
    links = [(c, c - 1) for c in range(1, communities)]
    while len(links) < communities - 1 + extra_inter:
        links.append(tuple(rng.sample(range(communities), 2)))
    for ca, cb in links:
        while True:
            key = tuple(sorted((rng.choice(blocks[ca]), rng.choice(blocks[cb]))))
            if key not in edges:
                edges[key] = rng.randint(1, 2)
                break
    rows = "".join(f"{a}\t{b}\t{w}\n" for (a, b), w in sorted(edges.items()))
    return "node_a\tnode_b\tw\n" + rows, tuple(tuple(sorted(b)) for b in blocks)


def test_default_run_reaches_the_planted_communities(tmp_path):
    # five planted 8-node communities: a run at default settings reaches
    # the planted partition and its total
    text, blocks = planted_communities(random.Random(0), 5, 8, 8, 10)
    graph, out = tmp_path / "planted.tsv", tmp_path / "planted.json"
    graph.write_text(text)
    snapshot, _ = io.parse_edge_list(str(graph))
    view = AttributeView(snapshot)
    assert view.edge_count == 94
    planted = fitness(Partition(blocks, view.attrs, view.version), view)
    assert planted.total == pytest.approx(0.4481, abs=5e-5)
    assert main(["cluster", "-i", str(graph), "--seed", "0", "--iterations", "1000",
                 "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert sorted(tuple(c["members"]) for c in obj["clusters"]) == sorted(blocks)
    assert obj["fitness"]["total"] == planted.total


def test_ac6_scale_run_checkpoints(tmp_path):
    bare = tmp_path / "scale-bare.tsv"
    weighted = tmp_path / "scale.tsv"
    out = tmp_path / "scale.json"
    log = tmp_path / "scale.ck.jsonl"
    assert main(["gen", "--preset", "scale", "-o", str(bare)]) == 0
    assert main(["assign-weights", "-i", str(bare), "-o", str(weighted),
                 "--seed", "0"]) == 0
    snap, _ = io.parse_edge_list(str(weighted))
    assert len(snap.edges) == 20777

    started = time.perf_counter()
    code = main([
        "cluster", "-i", str(weighted), "--seed", "0",
        "--iterations", "1000", "--checkpoint-every", "100",
        "-o", str(out), "--checkpoint-log", str(log),
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 600.0, f"scale run took {elapsed:.1f}s"

    lines = (tmp_path / "scale.ck.jsonl").read_text().splitlines()
    records = [json.loads(ln) for ln in lines[1:]]
    assert len(records) == 10, f"expected exactly 10 checkpoints, got {len(records)}"
    assert [r["iteration"] for r in records] == list(range(100, 1001, 100))
    totals = [r["best_total"] for r in records]
    assert totals == sorted(totals), "best total must never decrease"


def test_ac7_event_invalidates_scores(two_triangle):
    part = Partition(((1, 2, 3), (4, 5, 6)), ("w1",), 0)
    before = fitness(part, two_triangle)
    snap = two_triangle.base.apply(UpdateEvent.update_weight(1, 3, 4, "w1", 11))
    view = AttributeView(snap)
    with pytest.raises(StaleSnapshot):
        fitness(part, view)  # stale partitions never score silently
    rescored = fitness(Partition(part.clusters, ("w1",), view.version), view)
    assert rescored.total != before.total
    assert rescored.cut_fraction == pytest.approx(11 / 35)


def test_ac8_random_chromosomes_decode_valid(emails):
    rng = random.Random(99)
    active = list(emails.nodes)
    er, sep = SCHEME_TABLE[EDGE_REMOVAL], SCHEME_TABLE[SEPARATOR]
    for _ in range(10_000):
        raw = EdgeRemovalChromosome(
            tuple(
                (rng.randint(0, 16), rng.randint(0, 16))
                for _ in range(rng.randint(0, 12))
            )
        )
        fixed = repair_edge_removal(raw, emails)
        assert repair_edge_removal(fixed, emails) == fixed
        part = to_partition(er, fixed, emails)
        assert sorted(part.members()) == active
    for _ in range(10_000):
        raw = SeparatorChromosome(
            rng.randint(1, 40),
            tuple(rng.randint(-3, 20) for _ in range(rng.randint(0, 8))),
        )
        fixed = repair_separator(raw, emails)
        assert repair_separator(fixed, emails) == fixed
        part = to_partition(sep, fixed, emails)
        assert sorted(part.members()) == active
        assert part.cluster_count == fixed.k

    report = linkage_nodes(Partition(EMAILS_TARGET, ("emails",), 0), emails)
    assert report.nodes == (4, 5, 6, 7, 8, 10, 14)


def _merge_signals(view, **kwargs):
    part = Partition(EMAILS_TARGET, view.attrs, view.version)
    return merge_signals([], [], part, view, **kwargs)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda view: GAConfig(crossover_rate="x"), ConfigInvalid),
        (lambda view: view.weight_of(1, 1), ForeignEdge),
        (lambda view: view.weight_of("a", 1), ForeignEdge),
        (lambda view: view.weight_of(True, 2), ForeignEdge),
        (lambda view: view.weight_of(1.0, 2), ForeignEdge),
        (lambda view: _merge_signals(view, theta="x"), ConfigInvalid),
        (lambda view: _merge_signals(view, window="x"), ConfigInvalid),
        (lambda view: _merge_signals(view, theta=2.5), ConfigInvalid),
        (lambda view: _merge_signals(view, window=True), ConfigInvalid),
        (lambda view: optimal_partition(view, n_max="20"), ConfigInvalid),
        (lambda view: datasets.assign_random_weights(view.base, arity="2"), ConfigInvalid),
        (lambda view: datasets.assign_random_weights(view.base, low=1.5, high=3), ConfigInvalid),
        (lambda view: datasets.scale_pairs("10", 20), ConfigInvalid),
        (lambda view: datasets.scale_pairs(10.5, 20), ConfigInvalid),
        (lambda view: UpdateEvent.add_edge(1, 1, 2, [1.5]), ConfigInvalid),
        (lambda view: UpdateEvent.add_edge(1, 1, 2, ["x"]), ConfigInvalid),
        (lambda view: UpdateEvent.update_weight(1, 1, 2, "emails", 2.7), ConfigInvalid),
        (lambda view: view.base.apply(UpdateEvent.add_node("x", "Q")), ConfigInvalid),
        (lambda view: run(view, GAConfig(population_size=4, max_evaluations=20), [1, 2]),
         ConfigInvalid),
    ],
    ids=[
        "crossover-rate-str", "weight-of-self-loop", "weight-of-str", "weight-of-bool",
        "weight-of-float", "theta-str", "window-str", "theta-float", "window-bool", "n-max-str",
        "arity-str", "low-float", "nodes-str", "nodes-float", "edge-weight-float",
        "edge-weight-str", "update-value-float", "tick-str", "run-events-int",
    ],
)
def test_wrong_typed_library_input_raises_a_noaga_error(emails, call, error):
    # bad input ends in a NoagaError, never a TypeError or a silent change
    with pytest.raises(error):
        call(emails)


def test_ac9_byte_identical_replay(table1, tmp_path):
    for name in ("first", "second"):
        assert main([
            "cluster", "-i", table1, "--attr", "emails", "--seed", "3",
            "-o", str(tmp_path / f"{name}.json"),
            "--dot", str(tmp_path / f"{name}.dot"),
            "--checkpoint-log", str(tmp_path / f"{name}.ck.jsonl"),
            "--noa-log", str(tmp_path / f"{name}.noa.jsonl"),
        ]) == 0
    for suffix in (".json", ".dot", ".ck.jsonl", ".noa.jsonl"):
        a = (tmp_path / f"first{suffix}").read_bytes()
        b = (tmp_path / f"second{suffix}").read_bytes()
        assert a == b, f"{suffix} outputs differ between identical runs"


def test_golden_digests_hold_under_another_hash_seed(tmp_path):
    # set and dict iteration over str keys follows the hash seed; no output
    # may, so the golden check must pass in a process seeded differently
    golden = Path(__file__).with_name("test_golden.py")
    env = {
        **os.environ,
        "PYTHONHASHSEED": "777",
        "PYTHONPATH": os.path.dirname(os.path.dirname(io.__file__)),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "run"), str(golden)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# runs every golden case in a child with no pytest: a stub stands in for the
# fixture decorator and for `pytest.mark`, each of whose attributes is a
# decorator factory that hands the function back, and the child prints the
# digests it got as JSON
GOLDEN_CHILD = """
import json, sys, types
from pathlib import Path
class Mark:
    def __getattr__(self, name):
        return lambda *args, **kwargs: lambda f: f
sys.modules["pytest"] = types.SimpleNamespace(fixture=lambda **kw: lambda f: f, mark=Mark())
sys.path.insert(0, sys.argv[1])
import test_golden as g
root = Path(sys.argv[2])
factory = types.SimpleNamespace(mktemp=lambda name: (root / name).mkdir() or root / name)
inputs = g.inputs(factory)
print(json.dumps({name: g._run(root / name, argv) for name, argv in g._runs(inputs)}))
"""


def _interpreter(minor):
    """A working CPython 3.<minor>: python3.<minor> on PATH, else one in
    pyenv's versions directory; None if there is none."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates = [shutil.which(f"python3.{minor}"),
                  *sorted(map(str, versions.glob(f"3.{minor}.*/bin/python3")))]
    for exe in filter(None, candidates):
        probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                               capture_output=True, text=True)
        if probe.returncode == 0 and probe.stdout.strip() == str(minor):
            return exe
    return None


@pytest.mark.parametrize("minor", range(10, 15), ids=lambda m: f"3.{m}")
def test_golden_digests_hold_on_every_installed_python(minor, tmp_path):
    # pyproject.toml promises 3.10 and later; each must write the same bytes
    if minor == sys.version_info.minor:
        pytest.skip("the running interpreter checks the digests in test_golden.py")
    exe = _interpreter(minor)
    if exe is None:
        pytest.skip(f"no Python 3.{minor} installed")
    from test_golden import GOLDEN

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(io.__file__))}
    proc = subprocess.run(
        [exe, "-c", GOLDEN_CHILD, str(Path(__file__).parent), str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN


CLI_CHILD = "import sys; from noaga.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("minor", range(10, 15), ids=lambda m: f"3.{m}")
def test_json_nesting_limit_is_the_same_on_every_installed_python(minor, tmp_path):
    # json decodes to a depth that differs per interpreter; the readers'
    # own limit must refuse the same lines everywhere, with the same message
    exe = sys.executable if minor == sys.version_info.minor else _interpreter(minor)
    if exe is None:
        pytest.skip(f"no Python 3.{minor} installed")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(io.__file__))}
    events, out = tmp_path / "events.jsonl", tmp_path / "out.json"

    def stream(lists):
        """Exit code and stderr of `stream` on one add_node whose label
        nests `lists` lists inside the event object (itself level 1)."""
        events.write_text('{"tick": 1, "kind": "add_node", "node": '
                          + "[" * lists + "]" * lists + "}\n", encoding="utf-8")
        proc = subprocess.run(
            [exe, "-c", CLI_CHILD, "stream", "-i", str(datasets.bundled_path("table1.tsv")),
             "--events", str(events), "--seed", "1", "-o", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert not out.exists()
        return proc.returncode, proc.stderr

    # one level past the limit: the JSON is refused
    assert stream(io.MAX_JSON_DEPTH) == (2, "noaga: error: line 1: bad JSON: nested too deeply\n")
    # at the limit the JSON reads, and the label itself is refused
    code, err = stream(io.MAX_JSON_DEPTH - 1)
    assert code == 2
    assert err.startswith("noaga: error: line 1: bad event: node label must be an integer or string")
