"""File formats: edge-list TSV, event-stream JSONL, partition JSON,
checkpoint/NoA JSONL logs, and Graphviz DOT export.

All writers are atomic (temp file + rename) and byte-deterministic for equal
inputs: iteration orders are sorted or fixed, floats go through repr, and no
timestamps or process ids appear anywhere. Field names are documented in
docs/formats.md and are part of the public contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Iterable, Sequence

from .analysis import NoARecord
from .engine import Checkpoint
from .errors import DuplicateEdge, ParseError
from .fitness import FitnessValue, closeness
from .graph import (
    AttributeSchema,
    AttributeView,
    Edge,
    EventKind,
    GraphSnapshot,
    Pair,
    Partition,
    UpdateEvent,
    is_digits,
)

TOOL = "noaga 0.1.0"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------- edge lists

BARE_ATTRS = ("w1",)  # schema given to headerless two-column files


def parse_edge_list(path: str) -> tuple[GraphSnapshot, AttributeSchema]:
    """Read a TSV edge list into a version-0 snapshot.

    With a header (`node_a<TAB>node_b<TAB><attr>...`) every row carries one
    non-negative integer weight per attribute. A headerless file must have
    exactly two columns per row and is read as arity 1 with weight 1 on
    every edge. '#' lines and blank lines are skipped.
    """
    schema: AttributeSchema | None = None
    bare = False
    edges: dict[Pair, tuple[int, ...]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if schema is None and not bare:
                if all(is_digits(f.strip()) for f in fields):
                    bare = True  # headerless: fall through and parse as a row
                else:
                    if len(fields) < 3:
                        raise ParseError(lineno, "header needs node_a, node_b and at least one attribute")
                    if fields[0] != "node_a" or fields[1] != "node_b":
                        raise ParseError(lineno, f"header must start with node_a<TAB>node_b, got {fields[:2]}")
                    names = tuple(f.strip() for f in fields[2:])
                    if any(not n for n in names) or len(set(names)) != len(names):
                        raise ParseError(lineno, f"attribute names must be unique and non-empty: {names}")
                    schema = AttributeSchema(names)
                    continue
            if bare:
                if len(fields) != 2:
                    raise ParseError(lineno, f"headerless rows must have 2 columns, got {len(fields)}")
                expected = 2
            else:
                expected = 2 + schema.arity
                if len(fields) != expected:
                    raise ParseError(lineno, f"expected {expected} columns, got {len(fields)}")
            values = []
            for f in fields:
                f = f.strip()
                if not (f.isdigit() and f.isascii()):  # is_digits, inlined in this hot loop
                    raise ParseError(lineno, f"not a non-negative integer: {f!r}")
                values.append(int(f))
            a, b = values[0], values[1]
            if a == b:
                raise ParseError(lineno, f"self-loop on node {a}")
            weights = tuple(values[2:]) if not bare else (1,)
            if not any(weights):
                raise ParseError(lineno, f"edge ({a}, {b}) has all-zero weights")
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise DuplicateEdge(f"line {lineno}: duplicate edge {key}")
            edges[key] = weights
    if bare:
        schema = AttributeSchema(BARE_ATTRS)
    if schema is None:
        raise ParseError(1, "empty edge list (no header, no rows)")
    snapshot = GraphSnapshot.build(
        schema, [Edge(a, b, w) for (a, b), w in edges.items()]
    )
    return snapshot, schema


def edge_list_text(snapshot: GraphSnapshot) -> str:
    """Render a snapshot as header + rows sorted by pair."""
    names = snapshot.schema.names
    out = ["node_a\tnode_b\t" + "\t".join(names)]
    for (a, b) in sorted(snapshot.edges):
        weights = snapshot.edges[(a, b)]
        out.append(f"{a}\t{b}\t" + "\t".join(str(w) for w in weights))
    return "\n".join(out) + "\n"


def write_edge_list(snapshot: GraphSnapshot, path: str) -> None:
    atomic_write_text(path, edge_list_text(snapshot))


def bare_edge_list_text(pairs: Iterable[Pair]) -> str:
    """Two-column headerless rows, in the given order."""
    return "".join(f"{a}\t{b}\n" for a, b in pairs)


# -------------------------------------------------------------- event streams


def parse_event_stream(path: str) -> list[UpdateEvent]:
    """Read one JSON event per line; see docs/formats.md for the payloads.

    Ticks must be non-decreasing; '#' lines and blank lines are skipped.
    """
    events: list[UpdateEvent] = []
    last_tick: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"bad JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(lineno, "event must be a JSON object")
            try:
                event = _event_from_obj(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(lineno, f"bad event: {exc}") from exc
            if last_tick is not None and event.tick < last_tick:
                raise ParseError(lineno, f"tick {event.tick} after {last_tick} (must be non-decreasing)")
            last_tick = event.tick
            events.append(event)
    return events


def _require(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key]


def _label(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"node label must be an integer or string, got {value!r}")
    return value


def _event_from_obj(obj: dict) -> UpdateEvent:
    tick = _require(obj, "tick")
    if not isinstance(tick, int) or isinstance(tick, bool) or tick < 0:
        raise ValueError(f"tick must be a non-negative integer, got {tick!r}")
    kind = _require(obj, "kind")
    if kind == EventKind.ADD_NODE.value:
        return UpdateEvent.add_node(tick, _label(_require(obj, "node")))
    if kind == EventKind.ADD_EDGE.value:
        weights = _require(obj, "weights")
        if not isinstance(weights, list) or not all(
            isinstance(w, int) and not isinstance(w, bool) and w >= 0 for w in weights
        ):
            raise ValueError(f"weights must be a list of non-negative integers, got {weights!r}")
        return UpdateEvent.add_edge(
            tick, _label(_require(obj, "a")), _label(_require(obj, "b")), weights
        )
    if kind == EventKind.UPDATE_WEIGHT.value:
        value = _require(obj, "value")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"value must be a non-negative integer, got {value!r}")
        attr = _require(obj, "attr")
        if not isinstance(attr, str):
            raise ValueError(f"attr must be a string, got {attr!r}")
        return UpdateEvent.update_weight(
            tick, _label(_require(obj, "a")), _label(_require(obj, "b")), attr, value
        )
    if kind == EventKind.REMOVE_EDGE.value:
        return UpdateEvent.remove_edge(
            tick, _label(_require(obj, "a")), _label(_require(obj, "b"))
        )
    raise ValueError(f"unknown kind {kind!r}")


def _event_to_obj(event: UpdateEvent) -> dict:
    obj: dict = {"tick": event.tick, "kind": event.kind.value}
    if event.kind is EventKind.ADD_NODE:
        obj["node"] = event.node
    else:
        obj["a"] = event.a
        obj["b"] = event.b
    if event.kind is EventKind.ADD_EDGE:
        obj["weights"] = list(event.weights)
    if event.kind is EventKind.UPDATE_WEIGHT:
        obj["attr"] = event.attr
        obj["value"] = event.value
    return obj


def event_stream_text(events: Sequence[UpdateEvent]) -> str:
    return "".join(json.dumps(_event_to_obj(e)) + "\n" for e in events)


def write_event_stream(events: Sequence[UpdateEvent], path: str) -> None:
    atomic_write_text(path, event_stream_text(events))


# ------------------------------------------------------------ partition JSON


def partition_json_text(
    partition: Partition,
    view: AttributeView,
    value: FitnessValue,
    noas: Sequence[int],
    meta: dict,
) -> str:
    clusters = []
    for i, cluster in enumerate(partition.clusters):
        clusters.append(
            {
                "members": list(cluster),
                "noa": noas[i],
                "closeness": closeness(cluster, view),
            }
        )
    obj = {
        "meta": meta,
        "version": partition.source_version,
        "attrs": list(partition.attrs),
        "clusters": clusters,
        "fitness": {
            "total": value.total,
            "closeness_mean": value.closeness_mean,
            "cut_fraction": value.cut_fraction,
            "small_count": value.small_count,
        },
    }
    return json.dumps(obj, indent=2) + "\n"


def write_partition_json(
    partition: Partition,
    view: AttributeView,
    value: FitnessValue,
    noas: Sequence[int],
    meta: dict,
    path: str,
) -> None:
    atomic_write_text(path, partition_json_text(partition, view, value, noas, meta))


def read_partition_json(path: str) -> tuple[dict, Partition]:
    """Load the meta block and the partition (members only) back."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"bad JSON: {exc.msg}") from exc
    try:
        clusters = tuple(tuple(c["members"]) for c in obj["clusters"])
        if not all(type(m) is int for c in clusters for m in c):
            raise ValueError("cluster members must be integers")
        partition = Partition(
            clusters=clusters,
            attrs=tuple(obj.get("attrs", ())),
            source_version=int(obj.get("version", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"not a partition file: {exc}") from exc
    return obj.get("meta", {}), partition


# ------------------------------------------------------------------ JSONL logs


def checkpoint_log_text(checkpoints: Sequence[Checkpoint], meta: dict) -> str:
    lines = [json.dumps({"header": meta})]
    for c in checkpoints:
        lines.append(
            json.dumps(
                {
                    "iteration": c.iteration,
                    "evaluations": c.evaluations,
                    "snapshot_version": c.snapshot_version,
                    "best_total": c.best_total,
                    "cluster_count": c.cluster_count,
                    "cluster_sizes": list(c.cluster_sizes),
                }
            )
        )
    return "\n".join(lines) + "\n"


def write_checkpoint_log(checkpoints: Sequence[Checkpoint], meta: dict, path: str) -> None:
    atomic_write_text(path, checkpoint_log_text(checkpoints, meta))


def noa_log_text(records: Sequence[NoARecord], meta: dict) -> str:
    lines = [json.dumps({"header": meta})]
    for r in records:
        lines.append(
            json.dumps(
                {
                    "tick": r.tick,
                    "attrs": list(r.attrs),
                    "members": list(r.members),
                    "noa": r.noa,
                    "edges": r.edge_count,
                    "weight": r.total_weight,
                }
            )
        )
    return "\n".join(lines) + "\n"


def write_noa_log(records: Sequence[NoARecord], meta: dict, path: str) -> None:
    atomic_write_text(path, noa_log_text(records, meta))


def read_noa_log(path: str) -> tuple[dict, list[NoARecord]]:
    meta: dict = {}
    records: list[NoARecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"bad JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(lineno, "record must be a JSON object")
            if "header" in obj:
                meta = obj["header"]
                continue
            try:
                tick, noa, edges, weight = (obj[k] for k in ("tick", "noa", "edges", "weight"))
                attrs, members = obj["attrs"], obj["members"]
            except KeyError as exc:
                raise ParseError(lineno, f"bad record: missing {exc}") from exc
            if not (
                all(type(v) is int for v in (tick, noa, edges, weight))
                and type(attrs) is list
                and all(type(a) is str for a in attrs)
                and type(members) is list
                and all(type(m) is int for m in members)
            ):
                raise ParseError(
                    lineno,
                    "bad record: tick, noa, edges and weight must be integers, "
                    "attrs a list of strings and members a list of integers",
                )
            records.append(NoARecord(tick, tuple(attrs), tuple(members), noa, edges, weight))
    return meta, records


# ------------------------------------------------------------------------ DOT


def dot_text(
    partition: Partition,
    view: AttributeView,
    *,
    noa_nodes: Iterable[int] = (),
    new_since: int | None = None,
    meta_comment: str = "",
) -> str:
    """Graphviz rendering: one subgraph box per cluster.

    NoA nodes are red; nodes that joined after `new_since` are blue (red
    wins when both apply). Edge labels carry the aggregated weight.
    """
    snapshot = view.base
    reds = set(noa_nodes)
    lines = []
    if meta_comment:
        lines.append(f"// {meta_comment}")
    lines.append("graph clusters {")
    lines.append("  node [shape=circle];")
    for i, cluster in enumerate(partition.clusters):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="cluster {i}";')
        for node in cluster:
            attrs = []
            if node in reds:
                attrs.append("color=red")
            elif new_since is not None and snapshot.node_ticks.get(node, 0) > new_since:
                attrs.append("color=blue")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f'    "{snapshot.label_of(node)}"{suffix};')
        lines.append("  }")
    for (a, b), w in zip(view.pairs, view.weights):
        lines.append(
            f'  "{snapshot.label_of(a)}" -- "{snapshot.label_of(b)}" [label={w}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(
    partition: Partition,
    view: AttributeView,
    path: str,
    *,
    noa_nodes: Iterable[int] = (),
    new_since: int | None = None,
    meta_comment: str = "",
) -> None:
    atomic_write_text(
        path,
        dot_text(
            partition,
            view,
            noa_nodes=noa_nodes,
            new_since=new_since,
            meta_comment=meta_comment,
        ),
    )
