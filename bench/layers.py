"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions of each noaga module at the
places callers look them up (several modules import names directly, so a
wrapper on the defining module alone would miss those calls). Each call
becomes a span [name, parent, start_ns, end_ns] kept in memory; a few
wrappers also count work (accepted children, re-score evaluations, bytes
written, NoA records). `layer_metrics` turns one round's spans and counters
into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time

# span name -> (module attribute paths to patch). The first path is the
# defining module; the others are modules that imported the name directly.
FUNCTIONS = {
    "io.parse_edge_list": ("io",),
    "io.parse_event_stream": ("io",),
    "io.sha256_of": ("io",),
    "io.write_partition_json": ("io",),
    "io.partition_json_text": ("io",),
    "io.write_dot": ("io",),
    "io.write_checkpoint_log": ("io",),
    "io.write_noa_log": ("io",),
    "io.atomic_write_text": ("io",),
    "graph.connected_components": ("graph", "encoding"),
    "encoding.repair": ("encoding",),
    "encoding.repair_edge_removal": ("encoding",),
    "encoding.repair_separator": ("encoding",),
    "encoding.decode": ("encoding",),
    "fitness.fitness": ("fitness", "engine", "oracle"),
    "engine.init_population": ("engine",),
    "engine.step": ("engine",),
    "engine.apply_events": ("engine",),
    "engine.snapshot_best": ("engine",),
    "analysis.append_noa_history": ("analysis", "engine"),
    "analysis.noa_records": ("analysis",),
    "analysis.find_noa": ("analysis", "cli"),
    "oracle.optimal_partition": ("oracle", "cli"),
}
# methods wrapped on their class, which every caller shares
METHODS = {
    "graph.view_build": ("graph", "AttributeView", "__init__"),
    "graph.apply_traced": ("graph", "GraphSnapshot", "apply_traced"),
}

# per-layer metric -> unit, in report order
UNITS = {
    "io.parse_s": "s", "io.write_s": "s", "io.bytes_written": "bytes",
    "graph.view_build_s": "s", "graph.view_builds": "count",
    "graph.apply_s": "s", "graph.events_applied": "count",
    "graph.components_s": "s", "graph.components_calls": "count",
    "graph.components_ms_p50": "ms", "graph.components_ms_p99": "ms",
    "encoding.repair_s": "s", "encoding.repair_calls": "count", "encoding.decode_self_s": "s",
    "fitness.score_s": "s", "fitness.score_calls": "count",
    "fitness.score_ms_p50": "ms", "fitness.score_ms_p99": "ms",
    "engine.init_s": "s", "engine.step_self_s": "s", "engine.steps": "count",
    "engine.children": "count", "engine.accepted": "count", "engine.accept_ratio": "1",
    "engine.rescore_self_s": "s", "engine.rescore_evals": "count",
    "engine.rescore_weight_only_evals": "count", "engine.rescore_weight_only_s": "s",
    "engine.batch_ms_p50": "ms",
    "analysis.noa_s": "s", "analysis.noa_records": "count",
    "oracle.enumerate_s": "s", "oracle.partitions": "count",
}

WRITERS = {"io.write_partition_json", "io.partition_json_text", "io.write_dot",
           "io.write_checkpoint_log", "io.write_noa_log", "io.atomic_write_text"}
PARSERS = {"io.parse_edge_list", "io.parse_event_stream"}
REPAIRS = {"encoding.repair", "encoding.repair_edge_removal", "encoding.repair_separator"}
ANALYSIS = {"analysis.append_noa_history", "analysis.noa_records", "analysis.find_noa"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts = {"accepted": 0, "rescore_evals": 0, "rescore_weight_only_evals": 0,
                       "bytes_written": 0, "noa_records": 0}
        self.missing: list[str] = []
        self.weight_only: list[int] = []  # indices of weight-only apply_events spans

    def _wrap(self, name: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hooks = [before, after]

        def guarded(hook, *args, **kwargs):
            # the hooks read program internals; one that no longer fits is
            # dropped, with its counters, rather than failing the call
            try:
                return hook(*args, **kwargs)
            except Exception:
                hooks[:] = [None, None]
                self.missing.append(f"{name} counters")
                return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = guarded(hooks[0], *args, **kwargs) if hooks[0] else None
            rec = [name_id, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hooks[1]:
                guarded(hooks[1], token, result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function of the importable `noaga` package.

        A function the program no longer has is listed in `missing` and its
        layer reads zero; a counting hook that fails on the program's objects
        is listed there too and its counters stop. Neither fails the run."""
        import importlib

        modules = {m: importlib.import_module(f"noaga.{m}") for m in
                   ("io", "graph", "encoding", "fitness", "engine", "analysis", "oracle", "cli")}
        hooks = self._hooks()
        for name, places in FUNCTIONS.items():
            attr = name.split(".", 1)[1]
            original = getattr(modules[places[0]], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original, *hooks.get(name, (None, None)))
            for place in places:
                if getattr(modules[place], attr, None) is original:
                    setattr(modules[place], attr, wrapped)
        for name, (module, cls, method) in METHODS.items():
            klass = getattr(modules[module], cls, None)
            if klass is None or not hasattr(klass, method):
                self.missing.append(name)
                continue
            setattr(klass, method, self._wrap(name, getattr(klass, method)))

    def _hooks(self):
        counts = self.counts

        def step_before(state):
            return set(map(id, state.population))

        def step_after(before_ids, _result, state):
            counts["accepted"] += sum(1 for ind in state.population if id(ind) not in before_ids)

        def apply_before(state, batch):
            # the span about to open gets index len(spans)
            return state.evaluations, _weight_only(state.view, batch), len(self.spans)

        def apply_after(token, _result, state, batch):
            start, weight_only, span = token
            counts["rescore_evals"] += state.evaluations - start
            if weight_only:
                counts["rescore_weight_only_evals"] += state.evaluations - start
                self.weight_only.append(span)

        def write_after(_token, _result, path, text):
            counts["bytes_written"] += len(text.encode("utf-8"))

        def records_after(_token, result, *args):
            counts["noa_records"] += len(result)

        return {
            "engine.step": (step_before, step_after),
            "engine.apply_events": (apply_before, apply_after),
            "io.atomic_write_text": (None, write_after),
            "analysis.noa_records": (None, records_after),
        }

    def dump(self, path: str) -> None:
        """Write the spans as TSV: name, parent index, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            for name_id, parent, start, end in self.spans:
                fh.write(f"{self.names[name_id]}\t{parent}\t{start}\t{end}\n")


def _weight_only(view, batch) -> bool:
    """True when every event re-weights an edge that stays active in the
    view, so no decoded partition can change. Each update is judged against
    the edge's weights before the batch."""
    names = view.base.schema.names
    ix = [names.index(x) for x in view.attrs]
    combine = max if view.aggregation == "max" else sum
    for ev in batch:
        if ev.kind.value != "update_weight":
            return False
        a, b = view.base.resolve(ev.a), view.base.resolve(ev.b)
        key = (min(a, b), max(a, b))
        if key not in view.pair_index:
            return False
        vec = list(view.base.edges[key])
        vec[names.index(ev.attr)] = ev.value
        if combine(vec[i] for i in ix) <= 0:
            return False
    return True


# ------------------------------------------------------------------ metrics


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round, plus `covered_s`: the time
    inside top-level spans."""
    names, spans, counts = tracer.names, tracer.spans, tracer.counts
    dur = [(end - start) / 1e9 for _, _, start, end in spans]
    name = [names[s[0]] for s in spans]
    child = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, (_, parent, _, _) in enumerate(spans):
        by_name.setdefault(name[i], []).append(i)
        if parent >= 0:
            child[parent] += dur[i]

    def of(span_name: str) -> list[int]:
        return by_name.get(span_name, [])

    def outer(group: set[str]) -> list[int]:
        # spans of the group not nested directly in another span of the group
        return [i for g in group for i in of(g)
                if spans[i][1] < 0 or name[spans[i][1]] not in group]

    def total(idx) -> float:
        return sum(dur[i] for i in idx)

    def self_time(idx) -> float:
        return sum(dur[i] - child[i] for i in idx)

    def ms(idx, q: float) -> float:
        return 1e3 * _pct([dur[i] for i in idx], q)

    comps, scores = of("graph.connected_components"), of("fitness.fitness")
    steps, batches = of("engine.step"), of("engine.apply_events")
    oracle = set(of("oracle.optimal_partition"))
    children = 2 * len(steps)
    return {
        "io.parse_s": total(outer(PARSERS)),
        "io.write_s": total(outer(WRITERS)),
        "io.bytes_written": counts["bytes_written"],
        "graph.view_build_s": total(of("graph.view_build")),
        "graph.view_builds": len(of("graph.view_build")),
        "graph.apply_s": total(of("graph.apply_traced")),
        "graph.events_applied": len(of("graph.apply_traced")),
        "graph.components_s": total(comps),
        "graph.components_calls": len(comps),
        "graph.components_ms_p50": ms(comps, 0.5),
        "graph.components_ms_p99": ms(comps, 0.99),
        "encoding.repair_s": total(outer(REPAIRS)),
        "encoding.repair_calls": len(outer(REPAIRS)),
        "encoding.decode_self_s": self_time(of("encoding.decode")),
        "fitness.score_s": total(scores),
        "fitness.score_calls": len(scores),
        "fitness.score_ms_p50": ms(scores, 0.5),
        "fitness.score_ms_p99": ms(scores, 0.99),
        "engine.init_s": total(of("engine.init_population")),
        "engine.step_self_s": self_time(steps),
        "engine.steps": len(steps),
        "engine.children": children,
        "engine.accepted": counts["accepted"],
        "engine.accept_ratio": counts["accepted"] / children if children else 0.0,
        "engine.rescore_self_s": self_time(batches),
        "engine.rescore_evals": counts["rescore_evals"],
        "engine.rescore_weight_only_evals": counts["rescore_weight_only_evals"],
        "engine.rescore_weight_only_s": total(tracer.weight_only),
        "engine.batch_ms_p50": ms(batches, 0.5),
        "analysis.noa_s": total(outer(ANALYSIS)),
        "analysis.noa_records": counts["noa_records"],
        "oracle.enumerate_s": total(oracle),
        "oracle.partitions": sum(1 for i in scores if spans[i][1] in oracle),
        "covered_s": total(i for i, s in enumerate(spans) if s[1] < 0),
    }
