"""Benchmark for noaga: three seeded workloads through the `noaga` CLI.

    python3 bench/run.py --workload planted-static --seed 0 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src and run
only through `noaga.cli.main`, one fresh worker process per round, so each
round pays the same process start and its peak memory is its own. Inputs
are generated from --seed before any worker starts. Rounds repeat until
--seconds have passed; every round runs the same CLI invocations, and each
invocation is one attempted operation. A round that crashes its worker or
runs past the run's time limit counts all its invocations as failed and
ends the run.

The first round's outputs are checked in full by bench/check.py (which does
not import the program); every later round must reproduce them byte for
byte. When a check fails, the work directory (inputs and outputs) is kept
under bench/work/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (run_s, setup_s, peak_rss_mb, nmi); with --trace 1
untraced and traced rounds alternate and the metrics are the per-layer ones
plus trace.overhead_s and trace.coverage. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import gen
from layers import UNITS as LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
ATTR = gen.ATTR

# GA settings per workload; budgets are fixed so every round does equal work
STATIC_GA = {"population": 20, "iterations": 20, "p_init": 0.5}
STREAM_GA = {"population": 10, "checkpoint_every": 50, "p_init": 0.5}
SMALL_GA = {"population": 40, "iterations": 400}
# GA runs per attribute on table1, with fixed GA seeds 0, 1, 2, ... so the
# mean NMI is the same on every run of the same code and moves only when a
# change alters the search; edge-removal misses now and then, so it gets
# more runs than separator
TABLE1_SEEDS = {"edge-removal": 6, "separator": 2}
SMALL_ORACLE_GA = {"population": 20, "iterations": 200}
SCHEMES = ("edge-removal", "separator")
# every round must end this long after the run starts, so that generating,
# checking and the last round fit in a run's 180 s
ROUNDS_LIMIT_S = 150

# known communities of the bundled table1 sample, per attribute
TABLE1_TRUTH = {
    "emails": ((1, 2, 3, 4, 5), (6, 7, 8, 9), (10, 11, 12, 13, 14, 15)),
    "posts": ((1, 2, 3, 4, 5, 6, 7, 8, 9), (10, 11, 12, 13, 14, 15)),
    "comments": ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
}
PARAMS = {"lambda_cut": 2.5, "mu_small": 0.5, "sigma_small": 2}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "nmi": "1"}


class Workload:
    """Inputs, CLI invocations and checks of one workload at one seed."""

    setup_reps = 2

    def __init__(self, seed: int, work: str, root: str):
        self.seed = seed
        self.work = work
        self.root = root
        self.inputs = os.path.join(work, "in")
        self.outputs = os.path.join(work, "out")
        os.makedirs(self.inputs)
        os.makedirs(self.outputs)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def run_flags(self, name: str) -> list[str]:
        out = self.path("out", name)
        return ["-o", out + ".json", "--dot", out + ".dot",
                "--checkpoint-log", out + ".ck.jsonl", "--noa-log", out + ".noa.jsonl"]


class PlantedStatic(Workload):
    def __init__(self, seed, work, root):
        super().__init__(seed, work, root)
        self.manifest = gen.build_planted_static(seed, self.inputs)
        self.graph = self.path("in", self.manifest["graph"])

    def ops(self) -> list[list[str]]:
        ga = STATIC_GA
        return [["cluster", "-i", self.graph, "--attr", ATTR, "--seed", str(self.seed),
                 "--population-size", str(ga["population"]),
                 "--iterations", str(ga["iterations"]), "--p-init", str(ga["p_init"])]
                + self.run_flags("static")]

    def setup(self) -> list[dict]:
        return [{"graph": self.graph, "views": [[ATTR]]}]

    def check(self) -> tuple[list[str], dict]:
        attrs, edges = check.read_edge_list(self.graph)
        _, noa_records = check.read_jsonl(self.path("out", "static.noa.jsonl"))
        # no events: the view is the same at every tick
        views = check.views_by_tick(check.Graph(attrs, edges), [], (ATTR,),
                                    {0} | {r["tick"] for r in noa_records})
        view = views[0]
        problems = _check_run(self.path("out", "static"), view, views, connected=True,
                              population=STATIC_GA["population"],
                              iterations=STATIC_GA["iterations"], batches=0, version=0)
        found, quality = _planted(self.path("out", "static.json"), view, self.manifest)
        return problems + found, quality


class PlantedStream(Workload):
    def __init__(self, seed, work, root):
        super().__init__(seed, work, root)
        self.manifest = gen.build_planted_stream(seed, self.inputs)
        self.graph = self.path("in", self.manifest["graph"])
        self.events = self.path("in", self.manifest["events"])
        batches = gen.STREAM_BATCHES
        self.batches = batches["batches"]
        last_tick = batches["first_tick"] + (batches["batches"] - 1) * batches["gap"]
        self.iterations = last_tick + batches["gap"]
        p = STREAM_GA["population"]
        self.budget = p + 2 * self.iterations + (p + 1) * self.batches

    def ops(self) -> list[list[str]]:
        return [["stream", "-i", self.graph, "--events", self.events, "--attr", ATTR,
                 "--seed", str(self.seed), "--population-size", str(STREAM_GA["population"]),
                 "--max-evaluations", str(self.budget), "--p-init", str(STREAM_GA["p_init"]),
                 "--checkpoint-every", str(STREAM_GA["checkpoint_every"])]
                + self.run_flags("stream")]

    def setup(self) -> list[dict]:
        return [{"graph": self.graph, "events": self.events, "views": [[ATTR]]}]

    def check(self) -> tuple[list[str], dict]:
        attrs, edges = check.read_edge_list(self.graph)
        events = check.read_events(self.events)
        _, noa_records = check.read_jsonl(self.path("out", "stream.noa.jsonl"))
        ticks = {r["tick"] for r in noa_records} | {events[-1]["tick"]}
        views = check.views_by_tick(check.Graph(attrs, edges), events, (ATTR,), ticks)
        final = views[max(ticks)]
        problems = _check_run(self.path("out", "stream"), final, views, connected=True,
                              population=STREAM_GA["population"], iterations=self.iterations,
                              batches=self.batches, version=len(events))
        found, quality = _planted(self.path("out", "stream.json"), final, self.manifest)
        return problems + found, quality


class SmallExact(Workload):
    setup_reps = 20

    def __init__(self, seed, work, root):
        super().__init__(seed, work, root)
        self.manifest = gen.build_small_exact(seed, self.inputs)
        self.table1 = self.path("in", "table1.tsv")
        shutil.copyfile(os.path.join(root, "src", "noaga", "data", "table1.tsv"), self.table1)
        self.small = [self.path("in", name) for name in self.manifest["small_graphs"]]

    def table1_runs(self):
        index = 0
        for scheme, seeds in TABLE1_SEEDS.items():
            for attr in TABLE1_TRUTH:
                for k in range(seeds):
                    yield attr, scheme, index, f"t1-{attr}-{scheme}-{k}"
                    index += 1

    def small_runs(self):
        for i, graph in enumerate(self.small):
            for scheme in SCHEMES:
                yield i, graph, scheme, f"g{i}-{scheme}"

    def ops(self) -> list[list[str]]:
        ops = []
        for attr, scheme, ga_seed, name in self.table1_runs():
            ops.append(["cluster", "-i", self.table1, "--attr", attr, "--scheme", scheme,
                        "--seed", str(ga_seed), "--population-size", str(SMALL_GA["population"]),
                        "--iterations", str(SMALL_GA["iterations"]),
                        "-o", self.path("out", name + ".json"),
                        "--checkpoint-log", self.path("out", name + ".ck.jsonl")])
        for i, graph in enumerate(self.small):
            ops.append(["oracle", "-i", graph, "-o", self.path("out", f"oracle{i}.json")])
        for i, graph, scheme, name in self.small_runs():
            ops.append(["cluster", "-i", graph, "--scheme", scheme, "--seed", str(self.seed),
                        "--population-size", str(SMALL_ORACLE_GA["population"]),
                        "--iterations", str(SMALL_ORACLE_GA["iterations"]),
                        "-o", self.path("out", name + ".json"),
                        "--checkpoint-log", self.path("out", name + ".ck.jsonl")])
        return ops

    def setup(self) -> list[dict]:
        specs = [{"graph": self.table1, "views": [[a] for a in TABLE1_TRUTH]}]
        return specs + [{"graph": g, "views": [None]} for g in self.small]

    def check(self) -> tuple[list[str], dict]:
        problems: list[str] = []
        attrs, edges = check.read_edge_list(self.table1)
        graph = check.Graph(attrs, edges)
        scores = []
        for attr, scheme, _, name in self.table1_runs():
            view = check.View(graph, (attr,))
            problems += _check_run(self.path("out", name), view, None,
                                   connected=scheme == "edge-removal",
                                   population=SMALL_GA["population"],
                                   iterations=SMALL_GA["iterations"], batches=0, version=0)
            part = _load(self.path("out", name + ".json"))
            scores.append(check.nmi(check.labels(c["members"] for c in part["clusters"]),
                                    check.labels(TABLE1_TRUTH[attr])))
        for i, path in enumerate(self.small):
            g_attrs, g_edges = check.read_edge_list(path)
            view = check.View(check.Graph(g_attrs, g_edges), g_attrs)
            opt = _load(self.path("out", f"oracle{i}.json"))
            problems += check.check_partition(opt, view, PARAMS, connected=False)
            totals = []
            for j, _, scheme, name in self.small_runs():
                if j == i:
                    problems += _check_run(self.path("out", name), view, None,
                                           connected=scheme == "edge-removal",
                                           population=SMALL_ORACLE_GA["population"],
                                           iterations=SMALL_ORACLE_GA["iterations"],
                                           batches=0, version=0)
                    totals.append(_load(self.path("out", name + ".json"))["fitness"]["total"])
            problems += check.check_oracle_bound(opt["fitness"]["total"], totals)
        hits = sum(1 for x in scores if x > 1 - 1e-9)
        return problems, {"nmi": statistics.fmean(scores), "hits": hits}


WORKLOADS = {"planted-static": PlantedStatic, "planted-stream": PlantedStream,
             "small-exact": SmallExact}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_run(stem: str, view, views, *, connected: bool, population: int,
               iterations: int, batches: int, version: int) -> list[str]:
    """Check one cluster/stream run's outputs (stem.json plus whichever of
    the checkpoint log, NoA log and DOT exist)."""
    part = _load(stem + ".json")
    problems = check.check_partition(part, view, PARAMS, connected=connected)
    _, records = check.read_jsonl(stem + ".ck.jsonl")
    problems += check.check_checkpoints(records, population=population, iterations=iterations,
                                        batches=batches, version=version)
    if records[-1]["best_total"] != part["fitness"]["total"]:
        problems.append("final checkpoint best_total differs from the partition total")
    if os.path.exists(stem + ".noa.jsonl"):
        _, noa = check.read_jsonl(stem + ".noa.jsonl")
        problems += check.check_noa_log(noa, views)
    if os.path.exists(stem + ".dot"):
        with open(stem + ".dot", encoding="utf-8") as fh:
            problems += check.check_dot(fh.read(), part, view)
    return [f"{os.path.basename(stem)}: {p}" for p in problems]


def _planted(path: str, view, manifest: dict) -> tuple[list[str], dict]:
    """Score a partition file against the planted truth (NMI), and check
    that the planted partition outscores the one-cluster partition."""
    truth = dict(map(tuple, manifest["truth"]))
    groups: dict[int, list[int]] = {}
    for node in sorted(view.nodes):
        groups.setdefault(truth[node], []).append(node)
    planted = check.fitness(list(groups.values()), view, **PARAMS)["total"]
    single = check.fitness([sorted(view.nodes)], view, **PARAMS)["total"]
    part = _load(path)
    quality = {"nmi": check.nmi(check.labels(c["members"] for c in part["clusters"]), truth),
               "best_total": part["fitness"]["total"], "clusters": len(part["clusters"]),
               "planted_total": planted, "one_cluster_total": single}
    if planted > single:
        return [], quality
    return [f"planted partition scores {planted}, one cluster {single}"], quality


def _digest(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class RoundFailed(Exception):
    pass


def _round(plan: dict, work: str, timeout: float) -> dict:
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        proc = subprocess.run([sys.executable, WORKER, plan_path, result_path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round still running after {timeout:.0f} s; stopped") from None
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return _load(result_path)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q = statistics.quantiles(values, n=4)
    return f"{(q[2] - q[0]) / statistics.median(values):.3f}"


def main() -> int:
    parser = argparse.ArgumentParser(description="noaga benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "noaga", "cli.py")):
        print(f"bench: no program source at {src}; run from the repository root",
              file=sys.stderr)
        return 2

    work = os.path.join(HERE, "work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    code = _run(args, root, src, work)
    if code == 0:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"bench: inputs and outputs kept in {work}", file=sys.stderr)
    return code


def _run(args, root: str, src: str, work: str) -> int:
    rounds_end = time.monotonic() + ROUNDS_LIMIT_S
    workload = WORKLOADS[args.workload](args.seed, work, root)
    spans_dir = os.path.join(HERE, "out")
    os.makedirs(spans_dir, exist_ok=True)
    ops = workload.ops()
    plan = {"src": src, "ops": ops, "setup": workload.setup(),
            "setup_reps": 0 if args.trace else workload.setup_reps, "trace": False,
            "spans": os.path.join(spans_dir, f"spans-{args.workload}-s{args.seed}.tsv")}

    attempted = failed = 0
    problems: list[str] = []
    reference = None
    quality: dict = {}
    plain, traced = [], []
    missing: set[str] = set()
    deadline = time.monotonic() + args.seconds
    index = 0
    while index == 0 or time.monotonic() < deadline or (args.trace and not traced):
        plan["trace"] = bool(args.trace) and index % 2 == 1
        try:
            result = _round(plan, work, max(1.0, rounds_end - time.monotonic()))
        except RoundFailed as exc:
            attempted += len(ops)
            failed += len(ops)
            problems.append(f"round {index}: {exc}")
            break
        attempted += len(result["ops"])
        bad = [op for op in result["ops"] if op["code"] != 0]
        failed += len(bad)
        for op in bad:
            problems.append(f"exit {op['code']}: {op['stderr'].strip()[-300:]}")
        for op in result["ops"]:
            if "not applied" in op["stderr"]:
                problems.append("an event was left unapplied")
        digest = _digest(workload.outputs)
        if reference is None:
            reference = digest
            try:
                found, quality = workload.check()
            except Exception as exc:  # outputs the checker cannot read are wrong outputs
                found = [f"outputs unreadable: {exc!r}"]
            problems += found
        elif digest != reference:
            problems.append(f"round {index} outputs differ from round 0")
        missing.update(result.get("missing", ()))
        (traced if plan["trace"] else plain).append(result)
        index += 1

    correct = not problems
    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    if missing:
        print(f"bench: not traced: {', '.join(sorted(missing))}", file=sys.stderr)

    metrics: dict = {}
    if args.trace and plain and traced:
        metrics = _layer_metrics(plain, traced)
    elif not args.trace and plain:
        round_s = [r["round_s"] for r in plain]
        setup = [s for r in plain for s in r["setup_s"]]
        values = {
            "run_s": statistics.median(round_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in plain),
            "nmi": quality.get("nmi"),
        }
        # a figure the failed checks could not give is left out
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items() if v is not None}
        print(f"bench: {args.workload} seed {args.seed}: {len(plain)} rounds, "
              f"run_s spread {_spread(round_s)}, {len(setup)} set-ups, {quality}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Median of each per-layer figure over the traced rounds, plus the
    tracing overhead and the share of untraced run time the spans cover."""
    untraced_s = statistics.median(r["round_s"] for r in plain)
    traced_s = statistics.median(r["round_s"] for r in traced)
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    uncovered = statistics.median(r["round_s"] - r["layers"]["covered_s"] for r in traced)
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["trace.coverage"] = {"value": (untraced_s - uncovered) / untraced_s, "unit": "1"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
