"""File formats: edge lists, event streams, partition JSON, logs, DOT."""

import ast
import fnmatch
import hashlib
import json
import os
import random
import stat
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noaga import (
    AttributeSchema,
    AttributeView,
    DuplicateEdge,
    Edge,
    EventKind,
    GraphSnapshot,
    ParseError,
    Partition,
    UpdateEvent,
    datasets,
    fitness,
    io,
)
from noaga.analysis import NoARecord, cluster_stats, find_noa, noa_records
from noaga.engine import Checkpoint
from noaga.fitness import FitnessValue, density

from conftest import EMAILS_TARGET


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_bundled_edge_list_pins_table1():
    snap, schema = io.parse_edge_list(str(datasets.bundled_path("table1.tsv")))
    assert schema.names == ("emails", "posts", "comments")
    assert snap.nodes == frozenset(range(1, 16))
    assert len(snap.edges) == 28


def test_bundled_event_stream_pins_table2():
    events = io.parse_event_stream(str(datasets.bundled_path("table2_events.jsonl")))
    assert [e.tick for e in events] == [2500] * 5 + [3500] * 8
    assert [e.node for e in events if e.kind is EventKind.ADD_NODE] == ["X", "Y"]


def test_bundled_data_is_packaged():
    # sample_snapshot and dynamics_events read these files at run time, so
    # an installed package must ship every one of them
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["noaga"]
    package = root / "src" / "noaga"
    shipped = [p.relative_to(package).as_posix() for p in (package / "data").rglob("*") if p.is_file()]
    assert shipped
    assert [f for f in shipped if not any(fnmatch.fnmatch(f, g) for g in globs)] == []


def test_edge_list_round_trip(sample, tmp_path):
    path = str(tmp_path / "roundtrip.tsv")
    io.write_edge_list(sample, path)
    snap, schema = io.parse_edge_list(path)
    assert schema == sample.schema
    assert snap.nodes == sample.nodes
    assert dict(snap.edges) == dict(sample.edges)
    # equal input renders equal bytes
    io.write_edge_list(snap, str(tmp_path / "again.tsv"))
    assert (tmp_path / "again.tsv").read_bytes() == (tmp_path / "roundtrip.tsv").read_bytes()


def test_edge_list_rows_sorted_by_pair(sample, tmp_path):
    io.write_edge_list(sample, str(tmp_path / "sorted.tsv"))
    lines = (tmp_path / "sorted.tsv").read_text().splitlines()
    pairs = [tuple(map(int, ln.split("\t")[:2])) for ln in lines[1:]]
    assert pairs == sorted(pairs)


def test_parse_bare_edge_list(tmp_path):
    path = write(tmp_path, "bare.tsv", "1\t2\n2\t3\n\n# comment\n3\t1\n")
    snap, schema = io.parse_edge_list(path)
    assert schema.names == ("w1",)
    assert dict(snap.edges) == {(1, 2): (1,), (2, 3): (1,), (1, 3): (1,)}


def test_parse_skips_comments_and_blanks(tmp_path):
    text = "# leading\n\nnode_a\tnode_b\tw1\n# mid\n1\t2\t5\n\n"
    snap, _ = io.parse_edge_list(write(tmp_path, "c.tsv", text))
    assert dict(snap.edges) == {(1, 2): (5,)}


@pytest.mark.parametrize(
    "text, line",
    [
        ("node_a\tnode_b\n", 1),  # header without attributes
        ("first\tsecond\tw1\n", 1),  # wrong leading header fields
        ("node_a\tnode_b\tw1\tw1\n", 1),  # duplicate attribute
        ("node_a\tnode_b\tw1\n1\t2\n", 2),  # short row
        ("node_a\tnode_b\tw1\n1\t2\t-3\n", 2),  # negative weight
        ("node_a\tnode_b\tw1\n1\tx\t3\n", 2),  # non-integer id
        ("node_a\tnode_b\tw1\n1\t2\t\u00b2\n", 2),  # non-ASCII digit
        ("1\t\u00b2\n", 1),  # non-ASCII digit makes a bad header, not a bare row
        ("node_a\tnode_b\tw1\n4\t4\t3\n", 2),  # self-loop
        ("node_a\tnode_b\tw1\n1\t2\t0\n", 2),  # all-zero weights
        ("1\t2\n3\t4\t5\n", 2),  # bare rows must have 2 columns
        ("", 1),  # empty file
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = write(tmp_path, "bad.tsv", text)
    with pytest.raises(ParseError) as info:
        io.parse_edge_list(path)
    assert info.value.line == line


def test_parse_duplicate_edge(tmp_path):
    path = write(tmp_path, "dup.tsv", "node_a\tnode_b\tw1\n1\t2\t3\n2\t1\t4\n")
    with pytest.raises(DuplicateEdge) as info:
        io.parse_edge_list(path)
    assert "line 3" in str(info.value)


def test_parse_shares_node_ids_and_weight_vectors(tmp_path):
    text = "node_a\tnode_b\tw1\tw2\n300\t1000\t5\t2\n2000\t 300 \t5\t2\n1000\t2000\t1\t7\n"
    snap, _ = io.parse_edge_list(write(tmp_path, "shared.tsv", text))
    (k1, w1), (k2, w2), _ = snap.edges.items()
    assert (k1, k2, w1, w2) == ((300, 1000), (300, 2000), (5, 2), (5, 2))
    assert k1[0] is k2[0]  # one int for node 300, padded or not
    assert w1 is w2  # one tuple for the weight vector (5, 2)


@st.composite
def edge_list_files(draw):
    """A valid edge list as a hand-edited file might hold it: with a header
    or bare, '#' and blank lines anywhere, LF or CRLF endings, fields padded
    with spaces and pairs written high-low. Returns the file's lines, its
    line ending, its schema, its rows (a, b, weights) in file order and the
    index in `lines` of each row."""
    bare = draw(st.booleans())
    names = ("w1",) if bare else tuple(
        draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    )
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    lines, rows, row_lines = [], [], []

    def pad(field):
        return draw(st.sampled_from([field, f" {field}", f"{field}  ", f" {field} "]))

    def noise():
        lines.extend(draw(st.lists(
            st.sampled_from(["", "  ", " \t ", "# note", "  #\tindented note"]), max_size=2
        )))

    noise()
    if not bare:
        lines.append("node_a\tnode_b\t" + "\t".join(pad(name) for name in names))
        noise()
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        weights = (1,) if bare else tuple(draw(
            st.lists(st.integers(0, 9), min_size=len(names), max_size=len(names)).filter(any)
        ))
        fields = (a, b) if bare else (a, b, *weights)
        row_lines.append(len(lines))
        lines.append("\t".join(pad(str(f)) for f in fields))
        rows.append((a, b, weights))
        noise()
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return lines, eol, AttributeSchema(names), rows, row_lines


def _parse_lines(lines, eol):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.tsv")
        with open(path, "wb") as fh:
            fh.write((eol.join(lines) + eol).encode("utf-8"))
        return io.parse_edge_list(path)


@settings(max_examples=200, deadline=None)
@given(edge_list_files())
def test_parse_equals_build_over_the_rows(file):
    lines, eol, schema, rows, _ = file
    snap, got_schema = _parse_lines(lines, eol)
    want = GraphSnapshot.build(schema, [Edge(a, b, w) for a, b, w in rows])
    assert got_schema == snap.schema == want.schema == schema
    assert snap.nodes == want.nodes
    assert snap.node_ticks == want.node_ticks
    assert list(snap.edges.items()) == list(want.edges.items())  # file order
    assert (dict(snap.names), snap.version, snap.tick) == (dict(want.names), 0, 0)


BAD_FIELDS = ["x", "-3", "+3", "\u00b2", "\u0663", "1_0", "3.0", "", " "]


@settings(max_examples=200, deadline=None)
@given(edge_list_files(), st.data())
def test_each_malformed_row_kind_fails_at_its_line(file, data):
    lines, eol, schema, rows, row_lines = file
    # after the first row, so the file is already known to be bare or not
    at = data.draw(st.integers(row_lines[0] + 1, len(lines)))
    line = at + 1
    bare = schema.names == io.BARE_ATTRS
    arity = schema.arity
    kinds = ["columns", "field", "self-loop", "duplicate"] + ([] if bare else ["zero"])
    kind = data.draw(st.sampled_from(kinds))
    a, b = data.draw(st.sampled_from([(0, 1), (1, 0), (3, 7)]))
    weights = [] if bare else [1] * arity
    if kind == "columns":
        width = data.draw(st.sampled_from([1, 3] if bare else [arity + 1, arity + 3]))
        fields = ["5"] * width
        message = (f"headerless rows must have 2 columns, got {width}" if bare
                   else f"expected {arity + 2} columns, got {width}")
    elif kind == "field":
        fields = [str(a), str(b), *map(str, weights)]
        i = data.draw(st.integers(0, len(fields) - 1))
        fields[i] = data.draw(st.sampled_from(BAD_FIELDS))
        message = f"not a non-negative integer: {fields[i].strip()!r}"
    elif kind == "self-loop":
        fields = [str(a), str(a), *map(str, weights)]
        message = f"self-loop on node {a}"
    elif kind == "zero":
        fields = [str(a), str(b), *["0"] * arity]
        message = f"edge ({a}, {b}) has all-zero weights"
    else:
        a, b, _ = data.draw(st.sampled_from([r for r, i in zip(rows, row_lines) if i < at]))
        if data.draw(st.booleans()):
            a, b = b, a
        fields = [str(a), str(b), *map(str, weights)]
        message = None
    lines = [*lines[:at], "\t".join(fields), *lines[at:]]
    if message is None:  # a repeated pair
        with pytest.raises(DuplicateEdge) as info:
            _parse_lines(lines, eol)
        assert str(info.value) == f"line {line}: duplicate edge {(min(a, b), max(a, b))}"
    else:
        with pytest.raises(ParseError) as info:
            _parse_lines(lines, eol)
        assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")


# Valid rows that put the id texts 0-3 in the parser's tables and cache the
# tails of rows 2 and 4, whose weight vectors repeat those of rows 1 and 3,
# so that a last row made only of those texts can take the cached-row path.
SEEN_ROWS = {
    1: ("node_a\tnode_b\tw\n", "0\t1\t2\n", "1\t2\t2\n", "2\t3\t3\n", "1\t3\t3\n"),
    3: ("node_a\tnode_b\tx\ty\tz\n", "0\t1\t2\t0\t1\n", "1\t2\t2\t0\t1\n",
        "2\t3\t0\t0\t3\n", "1\t3\t0\t0\t3\n"),
}
SEEN_EDGES = {
    1: [(0, 1, (2,)), (1, 2, (2,)), (2, 3, (3,)), (1, 3, (3,))],
    3: [(0, 1, (2, 0, 1)), (1, 2, (2, 0, 1)), (2, 3, (0, 0, 3)), (1, 3, (0, 0, 3))],
}


@pytest.mark.parametrize(
    "arity, row, error, message",
    [
        (1, "2\t1\t3\n", DuplicateEdge, "duplicate edge (1, 2)"),  # repeat, high-low
        (3, "3\t2\t2\t0\t1\n", DuplicateEdge, "duplicate edge (2, 3)"),
        (1, "3\t3\t2\n", ParseError, "self-loop on node 3"),
        (3, "3\t3\t2\t0\t1\n", ParseError, "self-loop on node 3"),
        (1, "0\t3\t0\n", ParseError, "edge (0, 3) has all-zero weights"),
        (3, "0\t3\t0\t0\t0\n", ParseError, "edge (0, 3) has all-zero weights"),
        (1, "0\t2\t2\t3\n", ParseError, "expected 3 columns, got 4"),
        (1, "0\t2\n", ParseError, "expected 3 columns, got 2"),
        (3, "0\t2\t2\t0\t1\t1\n", ParseError, "expected 5 columns, got 6"),
        (3, "0\t2\t2\t0\n", ParseError, "expected 5 columns, got 4"),
        (1, "2\t1\t3", DuplicateEdge, "duplicate edge (1, 2)"),  # no newline
        (3, "0\t3\t0\t0\t0", ParseError, "edge (0, 3) has all-zero weights"),
    ],
)
def test_a_bad_row_of_seen_texts_fails_at_its_line(tmp_path, arity, row, error, message):
    path = write(tmp_path, "seen.tsv", "".join(SEEN_ROWS[arity]) + row)
    with pytest.raises(error) as info:
        io.parse_edge_list(path)
    assert str(info.value) == f"line 6: {message}"


@pytest.mark.parametrize("arity", [1, 3])
@pytest.mark.parametrize(
    "row, added",
    [
        ("#0\t2\t2\t0\t1\n", None),
        ("  #0\t2\t2\t0\t1\n", None),
        ("0\t2\t2\t0\t1", (0, 2)),  # last row, no newline
        ("3\t0\t2\t0\t1\n", (0, 3)),  # high-low
    ],
)
def test_a_good_row_of_seen_texts_parses_as_the_checked_rows(tmp_path, arity, row, added):
    if arity == 1:
        row = row.replace("\t2\t0\t1", "\t2")
    path = write(tmp_path, "seen.tsv", "".join(SEEN_ROWS[arity]) + row)
    snap, schema = io.parse_edge_list(path)
    rows = SEEN_EDGES[arity] + ([] if added is None else [(*added, SEEN_EDGES[arity][0][2])])
    want = GraphSnapshot.build(schema, [Edge(a, b, w) for a, b, w in rows])
    assert list(snap.edges.items()) == list(want.edges.items())
    assert snap.nodes == want.nodes


def test_both_row_paths_share_ids_and_weight_vectors(tmp_path):
    # rows 1 and 2 name new texts and are checked field by field; rows 3 and
    # 4 name only seen texts (" 4000 " padded as before) and take the cached path
    text = ("node_a\tnode_b\tw\n1000\t2000\t500\n3000\t 4000 \t500\n"
            "2000\t3000\t500\n 4000 \t1000\t500\n")
    snap, _ = io.parse_edge_list(write(tmp_path, "paths.tsv", text))
    (k12, w12), (k34, w34), (k23, w23), (k14, w14) = snap.edges.items()
    assert (k12, k34, k23, k14) == ((1000, 2000), (3000, 4000), (2000, 3000), (1000, 4000))
    assert k12[1] is k23[0] and k23[1] is k34[0]
    assert k12[0] is k14[0] and k34[1] is k14[1]
    assert w12 == (500,) and w12 is w23 is w34 is w14


@pytest.mark.parametrize("arity", [1, 3])
def test_parse_equals_build_at_scale(tmp_path, arity):
    """About 20,000 seeded rows with padded fields and pairs written high-low.
    Weights are drawn from a few vectors, so about half of the rows take the
    cached-row path and the rest are checked field by field."""
    rng = random.Random(arity)
    nodes = 5000
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 20_000:
        a, b = rng.sample(range(nodes), 2)
        pairs.add((min(a, b), max(a, b)))
    forms = ["{}", "{}", "{}", " {}", "{} ", " {}  "]
    names = ["x", "y", "z"][:arity]
    lines = ["node_a\tnode_b\t" + "\t".join(names)]
    rows = []
    for a, b in sorted(pairs, key=lambda p: rng.random()):
        if rng.random() < 0.5:
            a, b = b, a
        weights = (0,) * arity
        while not any(weights):
            weights = tuple(rng.randrange(4) for _ in names)
        fields = [rng.choice(forms).format(a), rng.choice(forms).format(b)]
        fields += [f" {w} " if rng.random() < 0.02 else str(w) for w in weights]
        lines.append("\t".join(fields))
        rows.append((a, b, weights))
        if rng.random() < 0.01:
            lines.append(rng.choice(["", "# note", "  #\tindented note"]))
    snap, schema = io.parse_edge_list(write(tmp_path, "scale.tsv", "\n".join(lines) + "\n"))
    want = GraphSnapshot.build(AttributeSchema(tuple(names)), [Edge(a, b, w) for a, b, w in rows])
    assert schema == want.schema
    assert snap.nodes == want.nodes
    assert list(snap.edges.items()) == list(want.edges.items())  # file order


def test_event_stream_round_trip(tmp_path):
    events = datasets.dynamics_events()
    path = str(tmp_path / "events.jsonl")
    io.write_event_stream(events, path)
    assert tuple(io.parse_event_stream(path)) == events


def test_event_stream_skips_comments(tmp_path):
    text = '# note\n\n{"tick": 1, "kind": "add_node", "node": "X"}\n'
    events = io.parse_event_stream(write(tmp_path, "e.jsonl", text))
    assert events == [UpdateEvent.add_node(1, "X")]


@pytest.mark.parametrize(
    "text, line",
    [
        ("{not json}\n", 1),
        ('["tick"]\n', 1),
        ('{"tick": 1, "kind": "explode"}\n', 1),
        ('{"kind": "add_node", "node": 3}\n', 1),
        ('{"tick": -1, "kind": "add_node", "node": 3}\n', 1),
        ('{"tick": 1, "kind": "add_edge", "a": 1, "b": 2}\n', 1),
        ('{"tick": 1, "kind": "add_edge", "a": 1, "b": 2, "weights": [1, -2]}\n', 1),
        ('{"tick": 1, "kind": "update_weight", "a": 1, "b": 2, "attr": 5, "value": 1}\n', 1),
        ('{"tick": 1, "kind": "update_weight", "a": 1, "b": 2, "attr": "w1", "value": true}\n', 1),
        ('{"tick": 1, "kind": "add_node", "node": null}\n', 1),
        (
            '{"tick": 1, "kind": "add_node", "node": "X"}\n'
            '{"tick": 1, "kind": "add_edge", "a": "\\udcff", "b": 1, "weights": [2]}\n',
            2,
        ),
        (
            '{"tick": 5, "kind": "add_node", "node": 1}\n'
            '{"tick": 4, "kind": "add_node", "node": 2}\n',
            2,
        ),
    ],
)
def test_event_stream_errors_carry_line_numbers(tmp_path, text, line):
    path = write(tmp_path, "bad.jsonl", text)
    with pytest.raises(ParseError) as info:
        io.parse_event_stream(path)
    assert info.value.line == line


def test_partition_json_round_trip(emails, tmp_path):
    part = Partition(EMAILS_TARGET, ("emails",), 0)
    value = fitness(part, emails)
    noas = [find_noa(c, emails) for c in part.clusters]
    dens = [density(s[0], len(c)) for c, s in zip(part.clusters, cluster_stats(part, emails))]
    meta = {"tool": io.TOOL, "seed": 3}
    path = str(tmp_path / "part.json")
    io.write_partition_json(part, value, noas, dens, meta, path)
    got_meta, got = io.read_partition_json(path)
    assert got_meta == meta
    assert got == part
    text = (tmp_path / "part.json").read_text()
    assert '"noa": 6' in text and '"closeness": 0.8' in text
    assert f'"total": {value.total!r}' in text


def _reference_partition_json(part, value, noas, dens, meta):
    """The partition file as one `json.dumps` renders it, per docs/formats.md."""
    obj = {
        "meta": meta,
        "version": part.source_version,
        "attrs": list(part.attrs),
        "clusters": [{"members": list(c), "noa": noa, "closeness": d}
                     for c, noa, d in zip(part.clusters, noas, dens)],
        "fitness": {"total": value.total, "closeness_mean": value.closeness_mean,
                    "cut_fraction": value.cut_fraction, "small_count": value.small_count},
    }
    return json.dumps(obj, indent=2) + "\n"


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def partition_files(draw):
    """A partition over distinct node ids with a NoA and a closeness per
    cluster, a fitness value and a meta block, all of any text."""
    nodes = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=30, unique=True))
    labels = draw(st.lists(st.integers(0, 4), min_size=len(nodes), max_size=len(nodes)))
    clusters = [tuple(n for n, label in zip(nodes, labels) if label == c) for c in set(labels)]
    attrs = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    part = Partition(clusters, attrs, draw(st.integers(0, 10**6)))
    noas = [draw(st.sampled_from(c)) for c in part.clusters]
    dens = [draw(UNIT) for _ in part.clusters]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    value = FitnessValue(draw(finite), draw(UNIT), draw(UNIT), draw(st.integers(0, 30)))
    meta = draw(st.dictionaries(TEXT, st.one_of(TEXT, st.integers(), finite,
                                                st.lists(TEXT, max_size=3)), max_size=6))
    return part, value, noas, dens, meta


@settings(max_examples=200, deadline=None)
@given(partition_files())
def test_streamed_partition_json_is_one_dumps_call(file):
    want = _reference_partition_json(*file).encode("utf-8")
    assert io.partition_json_text(*file).encode("utf-8") == want
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "part.json")
        io.write_partition_json(*file, path)
        with open(path, "rb") as fh:
            assert fh.read() == want


def test_read_partition_json_errors(tmp_path):
    with pytest.raises(ParseError):
        io.read_partition_json(write(tmp_path, "x.json", "not json"))
    with pytest.raises(ParseError):
        io.read_partition_json(write(tmp_path, "y.json", '{"clusters": [{"m": 1}]}'))
    for members in ('["a", "b"]', "[1.5]", "[true]", '"12"', "3"):
        text = '{"clusters": [{"members": %s}]}' % members
        with pytest.raises(ParseError):
            io.read_partition_json(write(tmp_path, "z.json", text))
    fields = ('"version": 2.7', '"version": true', '"version": "3"', '"attrs": "emails"',
              '"attrs": [1, null]', '"meta": [1]', '"meta": "seed 3"')
    texts = ['{"clusters": [{"members": [1]}], %s}' % field for field in fields]
    for text in texts + ['{"clusters": ""}', '{"clusters": {}}']:
        with pytest.raises(ParseError, match="^line 1: not a partition file: "):
            io.read_partition_json(write(tmp_path, "f.json", text))


def test_checkpoint_log_format(tmp_path):
    cps = [
        Checkpoint(100, 300, 0, 0.5, 3, (5, 4, 6)),
        Checkpoint(200, 500, 1, 0.75, 3, (5, 4, 6)),
    ]
    path = str(tmp_path / "ck.jsonl")
    io.write_checkpoint_log(cps, {"seed": 1}, path)
    lines = (tmp_path / "ck.jsonl").read_text().splitlines()
    assert lines[0] == '{"header": {"seed": 1}}'
    assert len(lines) == 3
    import json

    rec = json.loads(lines[1])
    assert rec == {
        "iteration": 100,
        "evaluations": 300,
        "snapshot_version": 0,
        "best_total": 0.5,
        "cluster_count": 3,
        "cluster_sizes": [5, 4, 6],
    }


def test_noa_log_round_trip(emails, tmp_path):
    part = Partition(EMAILS_TARGET, ("emails",), 0)
    records = noa_records(part, emails, tick=100)
    path = str(tmp_path / "noa.jsonl")
    io.write_noa_log(records, {"seed": 9}, path)
    meta, got = io.read_noa_log(path)
    assert meta == {"seed": 9}
    assert tuple(got) == records
    lines = (tmp_path / "noa.jsonl").read_text().splitlines()
    assert '"edges": 6' in lines[2] and '"weight": 23' in lines[2]


def test_noa_log_lines_are_what_json_makes_of_each_record(tmp_path):
    # a pair met at the tick before or at the same tick is not encoded
    # again, one met earlier is, and equal members under other attrs are
    # another pair
    members = (1, 2, 3)
    attrs = ("emails", "posts\u00e9", 'a"b')
    records = [NoARecord(0, attrs, members, 1, 2, 3),
               NoARecord(0, attrs, (4, 5), 4, 1, 1),
               NoARecord(5, attrs, members, 2, 2, 9),
               NoARecord(6, attrs, (4, 5), 4, 1, 1),
               NoARecord(6, attrs, members, 2, 2, 9),
               NoARecord(7, ("w",), (4, 5), 4, 0, -1)]
    path = str(tmp_path / "noa.jsonl")
    io.write_noa_log(records, {"seed": 1}, path)
    want = [{"header": {"seed": 1}}] + [
        {"tick": r.tick, "attrs": list(r.attrs), "members": list(r.members), "noa": r.noa,
         "edges": r.edge_count, "weight": r.total_weight} for r in records
    ]
    assert Path(path).read_text(encoding="utf-8") == "".join(json.dumps(o) + "\n" for o in want)
    # a field that is no int is written, but the reader refuses it
    for noa in (True, 2.5):
        io.write_noa_log([NoARecord(0, ("w",), (1,), noa, 0, 0)], {}, path)
        with pytest.raises(ParseError):
            io.read_noa_log(path)


@pytest.mark.parametrize("line", ["5", "[1, 2]", '"header"', "null"])
def test_read_noa_log_rejects_non_object_lines(tmp_path, line):
    path = write(tmp_path, "noa.jsonl", '{"header": {}}\n' + line + "\n")
    with pytest.raises(ParseError) as info:
        io.read_noa_log(path)
    assert info.value.line == 2


NOA_RECORD = '{"tick": 1, "attrs": ["w1"], "members": [1], "noa": 1, "edges": 0, "weight": 0}\n'


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"header": 5}\n', 1),
        ('{"header": [1]}\n' + NOA_RECORD, 1),
        ('{"header": null}\n', 1),
        ('{"header": {}}\n{"header": {"seed": 2}}\n', 2),
        (NOA_RECORD + '{"header": {"seed": 2}}\n', 2),
    ],
    ids=["int", "list", "null", "second-header", "header-after-record"],
)
def test_read_noa_log_rejects_a_bad_header(tmp_path, text, line):
    path = write(tmp_path, "noa.jsonl", text)
    with pytest.raises(ParseError) as info:
        io.read_noa_log(path)
    assert info.value.line == line


def test_read_noa_log_takes_a_missing_header_as_empty_meta(tmp_path):
    path = write(tmp_path, "noa.jsonl", "\n" + NOA_RECORD)
    meta, records = io.read_noa_log(path)
    assert meta == {} and [r.tick for r in records] == [1]


def test_dot_output_golden(tmp_path):
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [Edge(1, 2, (3,)), Edge(2, 3, (1,))])
    snap = snap.apply(UpdateEvent.add_node(50, "X"))  # gets id 4
    view = AttributeView(snap)
    part = Partition(((1, 2), (3,), (4,)), ("w1",), 1)
    path = tmp_path / "g.dot"
    io.write_dot(part, view, str(path), noa_nodes=[1], meta_comment="demo")
    assert path.read_bytes().decode() == (
        "// demo\n"
        "graph clusters {\n"
        "  node [shape=circle];\n"
        "  subgraph cluster_0 {\n"
        '    label="cluster 0";\n'
        '    "1" [color=red];\n'
        '    "2";\n'
        "  }\n"
        "  subgraph cluster_1 {\n"
        '    label="cluster 1";\n'
        '    "3";\n'
        "  }\n"
        "  subgraph cluster_2 {\n"
        '    label="cluster 2";\n'
        '    "X" [color=blue];\n'
        "  }\n"
        '  "1" -- "2" [label=3];\n'
        '  "2" -- "3" [label=1];\n'
        "}\n"
    )


def test_dot_red_beats_blue(tmp_path):
    schema = AttributeSchema(("w1",))
    snap = GraphSnapshot.build(schema, [Edge(1, 2, (3,))])
    snap = snap.apply(UpdateEvent.add_node(9, "Y"))  # gets id 3
    view = AttributeView(snap)
    part = Partition(((1, 2), (3,)), ("w1",), 1)
    io.write_dot(part, view, str(tmp_path / "g.dot"), noa_nodes=[3])
    text = (tmp_path / "g.dot").read_text()
    assert '"Y" [color=red];' in text
    assert "blue" not in text


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    io.atomic_write_chunks(str(path), ["payload\n"])
    assert path.read_text() == "payload\n"
    io.atomic_write_chunks(str(path), ["replaced\n"])
    assert path.read_text() == "replaced\n"

    def failing():
        yield "line 1\n"
        yield "line 2\n"
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        io.atomic_write_chunks(str(path), failing())
    assert path.read_text() == "replaced\n"
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    assert leftovers == []


def test_write_dot_never_holds_the_whole_text(tmp_path):
    # streamed line by line (the partition JSON chunk by chunk), the traced
    # peak stays below the file's size (twice it for the edge list, whose
    # rows are sorted first); joining the text first would take that much on
    # its own
    snap = GraphSnapshot.from_checked(
        AttributeSchema(("w1",)), {pair: (1,) for pair in datasets.scale_pairs()}
    )
    view = AttributeView(snap)
    part = Partition((view.nodes,), view.attrs, view.version)
    writers = [
        ("scale.dot", 1, lambda path: io.write_dot(part, view, path, noa_nodes=[1])),
        ("scale.tsv", 2, lambda path: io.write_edge_list(snap, path)),
        ("scale.json", 1, lambda path: io.write_partition_json(
            part, FitnessValue(0.5, 0.75, 0.1, 0), [1], [0.25], {"tool": io.TOOL}, path)),
    ]
    for name, bound, write_file in writers:
        path = tmp_path / name
        tracemalloc.start()
        try:
            write_file(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * path.stat().st_size, name


def test_output_files_get_the_umask_mode(tmp_path):
    # as a new open(path, "w") would: 0o666 less the umask, also when the
    # file replaces one with another mode
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    os.chmod(path, 0o600)
    old = os.umask(0o022)
    try:
        io.atomic_write_chunks(str(path), ["new\n"])
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        os.umask(0o077)
        io.atomic_write_chunks(str(path), ["newer\n"])
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
    finally:
        os.umask(old)


# calls that write or rename a file, by dotted name or by method name
FILE_WRITES = {"os.fdopen", "os.open", "os.replace", "os.rename", "tempfile.mkstemp",
               "tempfile.NamedTemporaryFile"}
PATH_WRITES = {"write_text", "write_bytes"}


def _dotted(func):
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return func.id if isinstance(func, ast.Name) else ""


def _opens_for_writing(call):
    """Whether a call of the builtin `open` may write: a mode that is not a
    constant is taken to write."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def test_only_atomic_write_chunks_writes_files():
    # every writer goes through the one atomic writer, so no output can be
    # left half-written or get another mode
    found = []
    for path in sorted(Path(io.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(n) for f in ast.walk(tree) if path.name == "io.py"
                  and isinstance(f, ast.FunctionDef) and f.name == "atomic_write_chunks"
                  for n in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            name = _dotted(node.func)
            if (name in FILE_WRITES or (name == "open" and _opens_for_writing(node))
                    or (isinstance(node.func, ast.Attribute) and node.func.attr in PATH_WRITES)):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert found == []


def test_sha256_of(tmp_path):
    path = write(tmp_path, "h.txt", "abc")
    assert io.sha256_of(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    # an empty file, and one that spans four 64 KiB reads
    for name, data in (("empty", b""), ("big", random.Random(0).randbytes(200 * 1024))):
        path = tmp_path / name
        path.write_bytes(data)
        assert io.sha256_of(str(path)) == hashlib.sha256(data).hexdigest()
