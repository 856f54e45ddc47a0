"""Command-line front end over the library.

Exit codes: 0 success, 1 usage error (bad flags or combinations), 2 data
error (unparsable input, missing entities, enumeration cap, event failures).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import datasets, io
from .analysis import noa_records, overlay
from .encoding import K_MAX, SCHEMES
from .engine import GAConfig, run
from .errors import ConfigInvalid, NoagaError
from .fitness import LAMBDA_CUT, MU_SMALL, SIGMA_SMALL, density
from .graph import AttributeView
from .oracle import DEFAULT_N_MAX, optimal_partition

PRESETS = ("table1", "table2-events", "scale")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_view_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, help="edge-list TSV")
    p.add_argument(
        "--attr",
        action="append",
        help="attribute to include in the view; repeat for several (default: all)",
    )
    p.add_argument("--agg", choices=("sum", "max"), default="sum",
                   help="aggregation over the chosen attributes")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="RNG seed (runs replay exactly)")
    p.add_argument("--population-size", type=int, default=GAConfig.population_size)
    p.add_argument("--max-evaluations", type=int, default=None,
                   help=f"evaluation budget (default {GAConfig.max_evaluations})")
    p.add_argument("--iterations", type=int, default=None,
                   help="budget sugar: population-size + 2*iterations evaluations")
    p.add_argument("--crossover-rate", type=float, default=GAConfig.crossover_rate)
    p.add_argument("--mutation-rate", type=float, default=GAConfig.mutation_rate)
    p.add_argument("--scheme", choices=SCHEMES, default=GAConfig.scheme,
                   help="chromosome encoding (default: %(default)s)")
    p.add_argument("--checkpoint-every", type=int, default=GAConfig.checkpoint_every)
    p.add_argument("--p-init", type=float, default=GAConfig.p_init,
                   help="edge-removal only: initial inclusion probability per edge")
    p.add_argument("-o", "--output", required=True, help="partition JSON path")
    p.add_argument("--dot", help="also write a Graphviz rendering here")
    p.add_argument("--checkpoint-log", help="JSONL checkpoint log path")
    p.add_argument("--noa-log", help="JSONL NoA log path")


def _config(args: argparse.Namespace) -> GAConfig:
    if args.max_evaluations is not None and args.iterations is not None:
        raise ConfigInvalid("--max-evaluations and --iterations are mutually exclusive")
    max_evaluations = args.max_evaluations
    if args.iterations is not None:
        if args.iterations < 0:
            raise ConfigInvalid(f"--iterations must be >= 0, got {args.iterations}")
        max_evaluations = args.population_size + 2 * args.iterations
    if max_evaluations is None:
        max_evaluations = GAConfig.max_evaluations
    return GAConfig(
        population_size=args.population_size,
        max_evaluations=max_evaluations,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        scheme=args.scheme,
        checkpoint_every=args.checkpoint_every,
        seed=args.seed,
        p_init=args.p_init,
    )


def _run_meta(args: argparse.Namespace, config: GAConfig, view: AttributeView) -> dict:
    meta = {
        "tool": io.TOOL,
        "seed": config.seed,
        "input_sha256": io.sha256_of(args.input),
        "attrs": list(view.attrs),
        "aggregation": view.aggregation,
        "scheme": config.scheme,
        "population_size": config.population_size,
        "max_evaluations": config.max_evaluations,
        "crossover_rate": config.crossover_rate,
        "mutation_rate": config.mutation_rate,
        "checkpoint_every": config.checkpoint_every,
        "p_init": config.p_init,
        "k_max": K_MAX,
        "lambda_cut": LAMBDA_CUT,
        "mu_small": MU_SMALL,
        "sigma_small": SIGMA_SMALL,
    }
    if getattr(args, "events", None):
        meta["events_sha256"] = io.sha256_of(args.events)
    return meta


def _noas_and_closeness(records) -> tuple[list[int], list[float]]:
    """Each cluster's NoA and closeness, from its NoA record."""
    return [r.noa for r in records], [density(r.edge_count, len(r.members)) for r in records]


def _finish_run(args, config, result) -> int:
    view = result.state.view
    noas, closeness = _noas_and_closeness(result.final_records)
    meta = _run_meta(args, config, view)
    io.write_partition_json(result.partition, result.value, noas, closeness, meta, args.output)
    if args.dot:
        comment = f"{io.TOOL} seed={config.seed} input=sha256:{meta['input_sha256']}"
        io.write_dot(result.partition, view, args.dot, noa_nodes=noas, meta_comment=comment)
    if args.checkpoint_log:
        io.write_checkpoint_log(result.checkpoints, meta, args.checkpoint_log)
    if args.noa_log:
        io.write_noa_log(result.noa_history, meta, args.noa_log)
    for tick in result.unapplied_ticks:
        print(f"noaga: warning: event at tick {tick} not applied (budget spent)",
              file=sys.stderr)
    state = result.state
    print(
        f"noaga: {state.iteration} iterations, {state.evaluations} evaluations, "
        f"best total {result.value.total:.6f}, {result.partition.cluster_count} clusters",
        file=sys.stderr,
    )
    return 0


def _cmd_run(args) -> int:
    """`cluster`, and `stream` when the subcommand takes --events."""
    snapshot, _ = io.parse_edge_list(args.input)
    events = io.parse_event_stream(args.events) if "events" in args else ()
    config = _config(args)
    view = AttributeView(snapshot, args.attr, args.agg)
    result = run(view, config, events)
    return _finish_run(args, config, result)


def _cmd_oracle(args) -> int:
    snapshot, _ = io.parse_edge_list(args.input)
    view = AttributeView(snapshot, args.attr, args.agg)
    partition, value = optimal_partition(view, n_max=args.n_max)
    noas, closeness = _noas_and_closeness(noa_records(partition, view, 0))
    meta = {
        "tool": io.TOOL,
        "input_sha256": io.sha256_of(args.input),
        "attrs": list(view.attrs),
        "aggregation": view.aggregation,
        "n_max": args.n_max,
        "lambda_cut": LAMBDA_CUT,
        "mu_small": MU_SMALL,
        "sigma_small": SIGMA_SMALL,
    }
    if args.output:
        io.write_partition_json(partition, value, noas, closeness, meta, args.output)
    else:
        sys.stdout.write(io.partition_json_text(partition, value, noas, closeness, meta))
    return 0


def _cmd_gen(args) -> int:
    if args.preset == "table1":
        io.write_edge_list(datasets.sample_snapshot(), args.output)
    elif args.preset == "table2-events":
        io.write_event_stream(datasets.dynamics_events(), args.output)
    else:
        pairs = datasets.scale_pairs(args.nodes, args.edges, args.seed)
        io.write_bare_edge_list(pairs, args.output)
    return 0


def _cmd_assign_weights(args) -> int:
    snapshot, _ = io.parse_edge_list(args.input)
    decorated = datasets.assign_random_weights(
        snapshot, arity=args.arity, low=args.low, high=args.high, seed=args.seed
    )
    io.write_edge_list(decorated, args.output)
    return 0


def _cmd_overlay(args) -> int:
    _, pa = io.read_partition_json(args.a)
    _, pb = io.read_partition_json(args.b)
    report = overlay(pa, pb)
    obj = {
        "cells": [
            {"a": c.a_index, "b": c.b_index, "members": list(c.members)}
            for c in report.cells
        ],
        "overlap_nodes": list(report.overlap_nodes),
    }
    text = json.dumps(obj, indent=2) + "\n"
    if args.output:
        io.atomic_write_chunks(args.output, (text,))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_noa_log(args) -> int:
    if args.tail is not None and args.tail < 0:
        raise ConfigInvalid(f"--tail must be >= 0, got {args.tail}")
    _, records = io.read_noa_log(args.input)
    if args.member is not None:
        records = [r for r in records if args.member in r.members]
    if args.tail is not None:
        records = records[-args.tail:] if args.tail else []
    for r in records:
        members = ",".join(str(m) for m in r.members)
        print(
            f"tick {r.tick:>8}  attrs={'+'.join(r.attrs)}  noa={r.noa}  "
            f"edges={r.edge_count}  weight={r.total_weight}  members={{{members}}}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noaga", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("cluster", help="partition an edge list with the GA")
    _add_view_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("stream", help="cluster while applying an update-event stream")
    _add_view_flags(p)
    p.add_argument("--events", required=True, help="event-stream JSONL")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("oracle", help="exact best partition by enumeration (small graphs)")
    _add_view_flags(p)
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX,
                   help="refuse views with more nodes than this")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="write a bundled dataset")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--nodes", type=int, default=6301, help="scale preset: node count")
    p.add_argument("--edges", type=int, default=20777, help="scale preset: edge count")
    p.add_argument("--seed", type=int, default=0, help="scale preset: RNG seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("assign-weights", help="re-roll edge weights uniformly")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--arity", type=int, default=1, help="number of attributes to emit")
    p.add_argument("--low", type=int, default=1)
    p.add_argument("--high", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_assign_weights)

    p = sub.add_parser("overlay", help="cross-tabulate two partition files")
    p.add_argument("-a", required=True, help="first partition JSON")
    p.add_argument("-b", required=True, help="second partition JSON")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_overlay)

    p = sub.add_parser("noa-log", help="print a NoA log as a readable timeline")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--member", type=int, help="only clusters containing this node")
    p.add_argument("--tail", type=int, help="only the last N records")
    p.set_defaults(func=_cmd_noa_log)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use. Each parse fills a fresh
    Namespace, so calls in one process do not share arguments."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"noaga: error: {exc}", file=sys.stderr)
        return 1
    except NoagaError as exc:
        print(f"noaga: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"noaga: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
