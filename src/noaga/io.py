"""File formats: edge-list TSV, event-stream JSONL, partition JSON,
checkpoint/NoA JSONL logs, and Graphviz DOT export.

Each format has one writer, and each writer hands its lines or chunks to
`atomic_write_chunks`, the one function that writes a file: a temp file in
the target's directory, renamed over the target. No file is rendered whole
first; `partition_json_text`, which `noaga oracle` prints, joins the chunks
the partition JSON writer streams. Writers are byte-deterministic for equal
inputs: iteration orders are sorted or fixed, floats go through repr, and
no timestamps or process ids appear anywhere. Field names are documented
in docs/formats.md and are part of the public contract. The edge-list
parser keeps one int per distinct field text and one tuple per distinct
weight vector, so each node id is one object however many rows name it.
A data row whose id texts and weight columns (as one text) were accepted
in earlier rows, its weight vector on at least two of them, is added after
one dict lookup per field and the self-loop and repeat tests; every other
line is checked field by field, so each error names the same line with
the same message whichever way a row is read.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence, TextIO

# CPython's own SHA-256; hashlib's would load OpenSSL's libcrypto (about
# 3.7 MB of resident memory) into every run only to hash its inputs
try:
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256  # a build with neither

from .analysis import NoARecord
from .engine import Checkpoint
from .errors import DuplicateEdge, ParseError, clip_repr
from .fitness import FitnessValue
from .graph import (
    AttributeSchema,
    AttributeView,
    EventKind,
    GraphSnapshot,
    Pair,
    Partition,
    UpdateEvent,
    is_digits,
)

TOOL = "noaga 0.1.0"


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write each text chunk into a temp file in the same directory as it
    comes, then rename the file over `path`. The file gets the mode a new
    `open(path, "w")` would give it, 0o666 less the umask, also when it
    replaces one. Whatever goes wrong, also inside `chunks`, the temp file
    is removed and `path` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def _read_text(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading. Bytes that are not UTF-8 raise
    ParseError naming their line, not UnicodeDecodeError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the decoder works in chunks, so find the bad byte's line anew
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ParseError(line, f"not UTF-8 text: {exc.reason}") from None
            raise


def sha256_of(path: str) -> str:
    """Lowercase hex SHA-256 of the file's raw bytes.

    Hashed by CPython's built-in module, not OpenSSL, so that a run loads
    no libcrypto. That is slower per byte (about 130 against 1,000 MB/s on
    a 2-core Intel Xeon VM): a 225 KB input takes about 1.6 ms instead of
    0.2 ms, far less than parsing the same file."""
    digest = _sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------- edge lists

BARE_ATTRS = ("w1",)  # schema given to headerless two-column files


def _long_int(lineno: int) -> ParseError:
    """The error for an integer past the int-string limit of int() and json."""
    return ParseError(lineno, f"integer longer than {sys.get_int_max_str_digits()} digits")


def parse_edge_list(path: str) -> tuple[GraphSnapshot, AttributeSchema]:
    """Read a TSV edge list into a version-0 snapshot.

    With a header (`node_a<TAB>node_b<TAB><attr>...`) every row carries one
    non-negative integer weight per attribute. A headerless file must have
    exactly two columns per row and is read as arity 1 with weight 1 on
    every edge. '#' lines and blank lines are skipped.

    The row loop checks all that `Edge` and `GraphSnapshot.build` check
    (column count, digits, self-loop, all-zero weights, repeated pair), so
    no `Edge` is built: the loop's edge dict, in file order, goes straight
    to `GraphSnapshot.from_checked`, the one version-0 constructor.

    A headered data row takes a cached path when each of its two id texts
    was accepted before and its tail (all after the second tab, newline
    included) is the tail of an earlier row that passed every check: such
    a tail already has the right column count, digits only and a weight
    vector that is not all zeros. A tail is kept only from a row whose
    weight vector an even earlier row had, so a file of mostly distinct
    vectors keeps no text per row. The row is then added after one lookup
    per field, the self-loop test and the repeat test. A row that fails
    either test, and every other line (header, blank or '#' line, a row
    with a text seen for the first time, a malformed row), takes the full
    checks, so every ParseError and DuplicateEdge names the same line with
    the same message as without the cache.
    """
    schema: AttributeSchema | None = None
    bare = False
    edges: dict[Pair, tuple[int, ...]] = {}
    # one int per distinct field text (stripped or not) and one tuple per
    # distinct weight vector, so each node id is one object however many
    # rows name it; a text is checked only the first time it is seen
    ints: dict[str, int] = {}
    vectors: dict[tuple[int, ...], tuple[int, ...]] = {}
    # the weight vector of the tail (all after the second tab) of headered
    # rows that passed every check
    tails: dict[str, tuple[int, ...]] = {}
    with _read_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            # the cached-row path; a row that fails its self-loop or repeat
            # test takes the checks below, which raise the error
            parts = raw.split("\t", 2)
            if len(parts) == 3:
                weights = tails.get(parts[2])
                if weights is not None:
                    a = ints.get(parts[0])
                    b = ints.get(parts[1])
                    if a is not None and b is not None and a != b:
                        key = (a, b) if a < b else (b, a)
                        if key not in edges:
                            edges[key] = weights
                            continue
            line = raw.rstrip("\r\n")
            text = line.lstrip()
            if not text or text[0] == "#":
                continue
            fields = line.split("\t")
            if schema is None and not bare:
                if all(is_digits(f.strip()) for f in fields):
                    bare = True  # headerless: fall through and parse as a row
                else:
                    if len(fields) < 3:
                        raise ParseError(lineno, "header needs node_a, node_b and at least one attribute")
                    if fields[0] != "node_a" or fields[1] != "node_b":
                        raise ParseError(lineno, f"header must start with node_a<TAB>node_b, got {clip_repr(fields[:2])}")
                    names = tuple(f.strip() for f in fields[2:])
                    if any(not n for n in names) or len(set(names)) != len(names):
                        raise ParseError(lineno, f"attribute names must be unique and non-empty: {clip_repr(names)}")
                    schema = AttributeSchema(names)
                    expected = 2 + schema.arity
                    continue
            if bare:
                if len(fields) != 2:
                    raise ParseError(lineno, f"headerless rows must have 2 columns, got {len(fields)}")
            elif len(fields) != expected:
                raise ParseError(lineno, f"expected {expected} columns, got {len(fields)}")
            values = []
            for f in fields:
                v = ints.get(f)
                if v is None:
                    s = f.strip()
                    if not is_digits(s):
                        raise ParseError(lineno, f"not a non-negative integer: {clip_repr(s)}")
                    try:
                        v = ints[f] = ints.setdefault(s, int(s))
                    except ValueError:
                        raise _long_int(lineno) from None
                values.append(v)
            a, b = values[0], values[1]
            if a == b:
                raise ParseError(lineno, f"self-loop on node {a}")
            if bare:
                weights = vector = (1,)
            else:
                vector = tuple(values[2:])
                if not any(vector):
                    raise ParseError(lineno, f"edge ({a}, {b}) has all-zero weights")
                weights = vectors.setdefault(vector, vector)
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise DuplicateEdge(f"line {lineno}: duplicate edge {key}")
            edges[key] = weights
            # only the tail of a vector seen on an earlier row is kept, so a
            # file whose vectors are mostly distinct holds no text per row
            if weights is not vector:
                tails[parts[2]] = weights
    if bare:
        schema = AttributeSchema(BARE_ATTRS)
    if schema is None:
        raise ParseError(1, "empty edge list (no header, no rows)")
    return GraphSnapshot.from_checked(schema, edges), schema


def _edge_list_lines(snapshot: GraphSnapshot) -> Iterator[str]:
    yield "node_a\tnode_b\t" + "\t".join(snapshot.schema.names) + "\n"
    edges = snapshot.edges
    for a, b in sorted(edges):
        yield f"{a}\t{b}\t" + "\t".join(map(str, edges[a, b])) + "\n"


def write_edge_list(snapshot: GraphSnapshot, path: str) -> None:
    """A snapshot as header + rows sorted by pair."""
    atomic_write_chunks(path, _edge_list_lines(snapshot))


def write_bare_edge_list(pairs: Iterable[Pair], path: str) -> None:
    """Two-column headerless rows, in the given order."""
    atomic_write_chunks(path, (f"{a}\t{b}\n" for a, b in pairs))


# -------------------------------------------------------------- event streams


MAX_JSON_DEPTH = 100  # the readers' own limit: json's differs per interpreter


def _json_line(text: str, lineno: int):
    """Decode JSON text that starts on line `lineno`. Malformed JSON, JSON
    nested past MAX_JSON_DEPTH (reported at `lineno`) and an integer past the
    int-string limit are each a ParseError naming its line."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        line = lineno + exc.lineno - 1
        raise ParseError(line, f"bad JSON: {exc.msg} (column {exc.colno})") from exc
    except RecursionError:
        raise ParseError(lineno, "bad JSON: nested too deeply") from None
    except ValueError:  # json converts each integer with int()
        limit = sys.get_int_max_str_digits()
        # JSON strings and numbers; a string is matched whole, so its digits are skipped
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?', text)
        at = next((m.start() for m in tokens if m[1] and len(m[1]) > limit and not (m[2] or m[3])), 0)
        raise _long_int(lineno + text.count("\n", 0, at)) from None
    # a stack, not recursion: json may decode deeper than recursion can walk
    stack = [(value, 1)] if isinstance(value, (list, dict)) else []
    while stack:
        item, depth = stack.pop()
        if depth > MAX_JSON_DEPTH:
            raise ParseError(lineno, "bad JSON: nested too deeply")
        children = item.values() if isinstance(item, dict) else item
        stack.extend((c, depth + 1) for c in children if isinstance(c, (list, dict)))
    return value


def parse_event_stream(path: str) -> list[UpdateEvent]:
    """Read one JSON event per line; see docs/formats.md for the payloads.

    Ticks must be non-decreasing; '#' lines and blank lines are skipped.
    """
    events: list[UpdateEvent] = []
    last_tick: int | None = None
    with _read_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            obj = _json_line(line, lineno)
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
        raise ValueError(f"node label must be an integer or string, got {clip_repr(value)}")
    if isinstance(value, str):
        if len(value) > sys.get_int_max_str_digits() and is_digits(value):
            raise ValueError(f"node id longer than {sys.get_int_max_str_digits()} digits")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            # a JSON-escaped lone surrogate: no writer could encode the label
            raise ValueError(f"node label is not valid Unicode text: {clip_repr(value)}") from None
    return value


def _event_from_obj(obj: dict) -> UpdateEvent:
    tick = _require(obj, "tick")
    if not (type(tick) is int and tick >= 0):
        raise ValueError(f"tick must be a non-negative integer, got {clip_repr(tick)}")
    kind = _require(obj, "kind")
    if kind == EventKind.ADD_NODE.value:
        return UpdateEvent.add_node(tick, _label(_require(obj, "node")))
    if kind == EventKind.ADD_EDGE.value:
        weights = _require(obj, "weights")
        if not (type(weights) is list and all(type(w) is int and w >= 0 for w in weights)):
            raise ValueError(f"weights must be a list of non-negative integers, got {clip_repr(weights)}")
        return UpdateEvent.add_edge(
            tick, _label(_require(obj, "a")), _label(_require(obj, "b")), weights
        )
    if kind == EventKind.UPDATE_WEIGHT.value:
        value = _require(obj, "value")
        if not (type(value) is int and value >= 0):
            raise ValueError(f"value must be a non-negative integer, got {clip_repr(value)}")
        attr = _require(obj, "attr")
        if not isinstance(attr, str):
            raise ValueError(f"attr must be a string, got {clip_repr(attr)}")
        return UpdateEvent.update_weight(
            tick, _label(_require(obj, "a")), _label(_require(obj, "b")), attr, value
        )
    if kind == EventKind.REMOVE_EDGE.value:
        return UpdateEvent.remove_edge(
            tick, _label(_require(obj, "a")), _label(_require(obj, "b"))
        )
    raise ValueError(f"unknown kind {clip_repr(kind)}")


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


def write_event_stream(events: Iterable[UpdateEvent], path: str) -> None:
    atomic_write_chunks(path, (json.dumps(_event_to_obj(e)) + "\n" for e in events))


# ------------------------------------------------------------ partition JSON


def _partition_json_chunks(
    partition: Partition,
    value: FitnessValue,
    noas: Sequence[int],
    closeness: Sequence[float],
    meta: dict,
) -> Iterator[str]:
    """The partition file: each cluster with its NoA and closeness (given in
    cluster order), the fitness and the run's meta block, in the chunks of
    `iterencode`. They join to `json.dumps(obj, indent=2) + "\n"`, which
    runs the same encoder; a cluster's members tuple encodes as a list."""
    clusters = [
        {"members": cluster, "noa": noa, "closeness": dens}
        for cluster, noa, dens in zip(partition.clusters, noas, closeness)
    ]
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
    yield from json.JSONEncoder(indent=2).iterencode(obj)
    yield "\n"


def partition_json_text(
    partition: Partition,
    value: FitnessValue,
    noas: Sequence[int],
    closeness: Sequence[float],
    meta: dict,
) -> str:
    """The partition file `write_partition_json` writes, as one string."""
    return "".join(_partition_json_chunks(partition, value, noas, closeness, meta))


def write_partition_json(
    partition: Partition,
    value: FitnessValue,
    noas: Sequence[int],
    closeness: Sequence[float],
    meta: dict,
    path: str,
) -> None:
    atomic_write_chunks(path, _partition_json_chunks(partition, value, noas, closeness, meta))


def read_partition_json(path: str) -> tuple[dict, Partition]:
    """Load the meta block and the partition (members only) back. `clusters`
    must be a list of objects whose `members` are lists of integers (a
    boolean is not), `version` an integer, `attrs` a list of strings and
    `meta` an object; ParseError otherwise."""
    with _read_text(path) as fh:
        obj = _json_line(fh.read(), 1)
    try:
        listed = obj["clusters"]
        clusters = tuple(c["members"] for c in listed)
        if not (type(listed) is list and all(type(c) is list for c in clusters)
                and all(type(m) is int for c in clusters for m in c)):
            raise ValueError("clusters must be a list of member lists of integers")
        meta, attrs, version = obj.get("meta", {}), obj.get("attrs", []), obj.get("version", 0)
        if not (type(version) is int and type(meta) is dict
                and type(attrs) is list and all(type(a) is str for a in attrs)):
            raise ValueError("version must be an integer, attrs a list of strings "
                             "and meta an object")
        partition = Partition(tuple(map(tuple, clusters)), tuple(attrs), version)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"not a partition file: {exc}") from exc
    return meta, partition


# ------------------------------------------------------------------ JSONL logs


def _jsonl(meta: dict, objs: Iterable[dict]) -> Iterator[str]:
    """A JSONL log: the header line, then one JSON object per line."""
    yield json.dumps({"header": meta}) + "\n"
    for obj in objs:
        yield json.dumps(obj) + "\n"


def write_checkpoint_log(checkpoints: Iterable[Checkpoint], meta: dict, path: str) -> None:
    atomic_write_chunks(path, _jsonl(meta, (
        {"iteration": c.iteration, "evaluations": c.evaluations,
         "snapshot_version": c.snapshot_version, "best_total": c.best_total,
         "cluster_count": c.cluster_count, "cluster_sizes": list(c.cluster_sizes)}
        for c in checkpoints
    )))


def write_noa_log(records: Iterable[NoARecord], meta: dict, path: str) -> None:
    """The records as a JSONL log under a header line, each record's line
    the one `json.dumps` makes of its fields, which are ints (a field of
    another type is written with `str`, and `read_noa_log` rejects it). A
    run's consecutive observations repeat most of their (attrs, members)
    pairs, so a pair met at this record's tick or the tick before is not
    encoded again; keeping those two ticks' pairs alone bounds the memory."""

    def lines() -> Iterator[str]:
        yield json.dumps({"header": meta}) + "\n"
        tick, seen, before = None, {}, {}
        for r in records:
            if r.tick != tick:
                tick, seen, before = r.tick, {}, seen
            key = (r.attrs, r.members)
            seen[key] = pair = seen.get(key) or before.get(key) or json.dumps(
                {"attrs": list(r.attrs), "members": list(r.members)})[1:-1]
            yield '{"tick": %s, %s, "noa": %s, "edges": %s, "weight": %s}\n' % (
                r.tick, pair, r.noa, r.edge_count, r.total_weight)

    atomic_write_chunks(path, lines())


def read_noa_log(path: str) -> tuple[dict, list[NoARecord]]:
    """The header's meta block ({} with no header) and the records of a NoA
    log. ParseError at the line of a header that is not a JSON object or
    not the first line, and of a malformed record."""
    meta: dict = {}
    records: list[NoARecord] = []
    seen = False
    with _read_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            obj = _json_line(line, lineno)
            if not isinstance(obj, dict):
                raise ParseError(lineno, "record must be a JSON object")
            first, seen = not seen, True
            if "header" in obj:
                if not first:
                    raise ParseError(lineno, "the header must be the first line")
                meta = obj["header"]
                if not isinstance(meta, dict):
                    raise ParseError(lineno, "header must be a JSON object")
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


def _dot_id(label: str) -> str:
    """A double-quoted DOT ID: backslash, quote and newline escaped, so
    undoing those three escapes gives the label back."""
    text = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _dot_lines(
    partition: Partition,
    view: AttributeView,
    noa_nodes: Iterable[int],
    meta_comment: str,
) -> Iterator[str]:
    snapshot = view.base
    reds = set(noa_nodes)
    # quoted once per node in view order, not once per edge end
    ids = [_dot_id(snapshot.label_of(node)) for node in view.nodes]
    index = view.node_index
    if meta_comment:
        yield f"// {meta_comment}\n"
    yield "graph clusters {\n"
    yield "  node [shape=circle];\n"
    for i, cluster in enumerate(partition.clusters):
        yield f"  subgraph cluster_{i} {{\n"
        yield f'    label="cluster {i}";\n'
        for node in cluster:
            attrs = []
            if node in reds:
                attrs.append("color=red")
            elif node in snapshot.node_ticks:
                attrs.append("color=blue")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            quoted = ids[index[node]] if node in index else _dot_id(snapshot.label_of(node))
            yield f"    {quoted}{suffix};\n"
        yield "  }\n"
    for a, b, w in zip(view.ea, view.eb, view.weights):
        yield f"  {ids[a]} -- {ids[b]} [label={w}];\n"
    yield "}\n"


def write_dot(
    partition: Partition,
    view: AttributeView,
    path: str,
    *,
    noa_nodes: Iterable[int] = (),
    meta_comment: str = "",
) -> None:
    """Graphviz rendering: one subgraph box per cluster.

    NoA nodes are red; nodes an event added, at any tick, are blue (red
    wins when both apply). Edge labels carry the aggregated weight.
    """
    atomic_write_chunks(path, _dot_lines(partition, view, noa_nodes, meta_comment))
