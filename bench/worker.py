"""One benchmark round in a fresh process.

    python3 bench/worker.py PLAN.json RESULT.json

The plan names the program's source directory, the CLI invocations of one
round, the inputs to set up afterwards, and whether to trace. The worker
imports noaga from that source directory only, runs every invocation
through `noaga.cli.main` (timing the whole round), records its own peak
resident memory, then times the set-up repetitions: parsing the inputs and
building each attribute view. With tracing on, it installs the layer
wrappers first, skips the set-up repetitions, and writes its spans out at
the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import noaga.cli

    if not os.path.realpath(noaga.cli.__file__).startswith(os.path.realpath(plan["src"]) + os.sep):
        raise SystemExit(f"noaga imported from {noaga.cli.__file__}, not {plan['src']}")

    tracer = None
    if plan["trace"]:
        from layers import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    ops = []
    started = time.perf_counter()
    for argv in plan["ops"]:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = noaga.cli.main(argv)
            except Exception:  # a crash is one failed operation, not a lost round
                traceback.print_exc()
                code = -1
        ops.append({"code": code, "s": time.perf_counter() - t0, "stderr": err.getvalue()})
    round_s = time.perf_counter() - started
    rss_kb = _peak_rss_kb()

    result = {"ops": ops, "round_s": round_s, "rss_kb": rss_kb, "setup_s": []}
    if tracer is None:
        result["setup_s"] = [_setup_once(plan["setup"]) for _ in range(plan["setup_reps"])]
    else:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["missing"] = tracer.missing
        tracer.dump(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _peak_rss_kb() -> int:
    """Peak resident memory of this process since it started the worker.

    Not `getrusage().ru_maxrss`: Linux keeps that figure across exec, so in
    a process forked from the benchmark it starts at the benchmark's own
    size at the fork. `VmHWM` belongs to the address space exec created.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _setup_once(specs: list[dict]) -> float:
    """Everything before a run's first evaluation, for every input of the
    workload: parse the edge list (and event stream), build each view."""
    from noaga import AttributeView
    from noaga import io as nio

    started = time.perf_counter()
    for spec in specs:
        snapshot, _ = nio.parse_edge_list(spec["graph"])
        if spec.get("events"):
            nio.parse_event_stream(spec["events"])
        for attrs in spec["views"]:
            AttributeView(snapshot, attrs)
    return time.perf_counter() - started


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
