"""Command-line interface: subcommands, formats on disk, exit codes."""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noaga
from noaga import analysis, cli, datasets, io
from noaga.cli import _config, build_parser, main
from noaga.engine import GAConfig
from noaga.graph import AttributeView, Partition

from conftest import components


@pytest.fixture()
def table1(tmp_path):
    path = str(tmp_path / "table1.tsv")
    assert main(["gen", "--preset", "table1", "-o", path]) == 0
    return path


def test_gen_table1_matches_bundled(table1, tmp_path):
    bundled = datasets.bundled_path("table1.tsv").read_bytes()
    assert (tmp_path / "table1.tsv").read_bytes() == bundled
    snap, schema = io.parse_edge_list(table1)
    assert schema.names == ("emails", "posts", "comments")
    assert dict(snap.edges) == dict(datasets.sample_snapshot().edges)


def test_gen_table2_events_matches_bundled(tmp_path):
    path = str(tmp_path / "events.jsonl")
    assert main(["gen", "--preset", "table2-events", "-o", path]) == 0
    bundled = datasets.bundled_path("table2_events.jsonl").read_bytes()
    assert (tmp_path / "events.jsonl").read_bytes() == bundled


def test_gen_scale_preset(tmp_path):
    path = str(tmp_path / "scale.tsv")
    code = main(["gen", "--preset", "scale", "--nodes", "60", "--edges", "150",
                 "--seed", "4", "-o", path])
    assert code == 0
    lines = (tmp_path / "scale.tsv").read_text().splitlines()
    assert len(lines) == 150
    snap, schema = io.parse_edge_list(path)
    assert schema.names == ("w1",)
    assert len(snap.nodes) == 60
    assert len(snap.edges) == 150
    # the generator builds a spanning tree first, so one component
    part = components(AttributeView(snap))
    assert part.cluster_count == 1


def test_cluster_end_to_end(table1, tmp_path, capsys):
    out = str(tmp_path / "part.json")
    dot = str(tmp_path / "part.dot")
    ck = str(tmp_path / "ck.jsonl")
    noa = str(tmp_path / "noa.jsonl")
    code = main([
        "cluster", "-i", table1, "--attr", "emails", "--seed", "3",
        "--population-size", "40", "--iterations", "400", "--checkpoint-every", "100",
        "-o", out, "--dot", dot, "--checkpoint-log", ck, "--noa-log", noa,
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "best total" in err

    meta, part = io.read_partition_json(out)
    assert sorted(part.members()) == list(range(1, 16))
    assert meta["seed"] == 3
    assert meta["attrs"] == ["emails"]
    assert meta["input_sha256"] == io.sha256_of(table1)
    assert meta["scheme"] == noaga.GAConfig().scheme  # the CLI keeps the library's default

    obj = json.loads((tmp_path / "part.json").read_text())
    assert len(obj["clusters"]) == part.cluster_count
    for cluster in obj["clusters"]:
        assert cluster["noa"] in cluster["members"]
        assert 0.0 <= cluster["closeness"] <= 1.0
    assert isinstance(obj["fitness"]["total"], float)

    lines = (tmp_path / "ck.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["header"]["seed"] == 3
    assert [json.loads(ln)["iteration"] for ln in lines[1:]] == [100, 200, 300, 400]

    _, records = io.read_noa_log(noa)
    assert records and records[-1].attrs == ("emails",)

    dot_body = (tmp_path / "part.dot").read_text()
    assert dot_body.startswith("// noaga 0.1.0 seed=3")
    assert "[color=red];" in dot_body


def test_cluster_is_byte_deterministic(table1, tmp_path):
    for name in ("a", "b"):
        assert main([
            "cluster", "-i", table1, "--attr", "emails", "--seed", "7",
            "--population-size", "30", "--iterations", "200",
            "-o", str(tmp_path / f"{name}.json"),
            "--checkpoint-log", str(tmp_path / f"{name}.ck.jsonl"),
            "--noa-log", str(tmp_path / f"{name}.noa.jsonl"),
        ]) == 0
    for suffix in (".json", ".ck.jsonl", ".noa.jsonl"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_calls_in_one_process_share_no_arguments(table1, tmp_path):
    """`main` reuses one parser: a run without --attr after one with it
    still clusters the default view, and both write what separate
    processes write."""
    runs = {
        "emails": ["cluster", "-i", table1, "--attr", "emails", "--seed", "5",
                   "--population-size", "20", "--iterations", "100"],
        "all": ["cluster", "-i", table1, "--seed", "5",
                "--population-size", "20", "--iterations", "100"],
    }
    for name, argv in runs.items():
        assert main([*argv, "-o", str(tmp_path / f"{name}.json")]) == 0
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(noaga.__file__))}
    for name, argv in runs.items():
        subprocess.run(
            [sys.executable, "-m", "noaga.cli", *argv, "-o", str(tmp_path / f"{name}.alone.json")],
            env=env, check=True, capture_output=True,
        )
        assert (tmp_path / f"{name}.json").read_bytes() == (
            tmp_path / f"{name}.alone.json").read_bytes()
    attrs = json.loads((tmp_path / "all.json").read_text())["attrs"]
    assert attrs == ["emails", "posts", "comments"]


# runs in a fresh interpreter: the modules present at its start, then the
# ones a whole `cluster` run adds, so an import moved into a function counts
FOOTPRINT_SCRIPT = """
import sys
before = set(sys.modules)
from noaga.cli import main
assert main(["cluster", "-i", sys.argv[1], "--seed", "0", "--iterations", "5",
             "-o", sys.argv[2]]) == 0
print("_hashlib" in before, "_hashlib" in set(sys.modules) - before)
"""


def test_a_run_loads_no_openssl(table1, tmp_path):
    """Hashing the input goes through CPython's built-in SHA-256, so a
    run never imports `_hashlib` and with it OpenSSL's libcrypto."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(noaga.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, table1, str(tmp_path / "out.json")],
        env=env, check=True, capture_output=True, text=True,
    )
    assert proc.stdout == "False False\n"


def test_stream_reports_unknown_label(table1, tmp_path, capsys):
    events = tmp_path / "bad.jsonl"
    events.write_text('{"tick": 7, "kind": "add_edge", "a": "Q", "b": 3, "weights": [1, 0, 0]}\n')
    out = str(tmp_path / "part.json")
    code = main([
        "stream", "-i", table1, "--events", str(events), "--seed", "1",
        "--population-size", "10", "--iterations", "50", "-o", out,
    ])
    assert code == 2
    assert "tick 7" in capsys.readouterr().err


def test_stream_dot_marks_every_added_node_blue(table1, tmp_path):
    # a node an event adds is blue whatever its tick, tick 0 included; each
    # hangs off one input node, so it is no NoA (which would be red)
    events = tmp_path / "events.jsonl"
    events.write_text("".join(
        f'{{"tick": {t}, "kind": "add_node", "node": "Z{t}"}}\n'
        f'{{"tick": {t}, "kind": "add_edge", "a": "Z{t}", "b": {b}, "weights": [1, 0, 0]}}\n'
        for t, b in ((0, 1), (5, 2))
    ))
    dot = tmp_path / "part.dot"
    assert main([
        "stream", "-i", table1, "--events", str(events), "--seed", "1",
        "--population-size", "10", "--iterations", "50",
        "-o", str(tmp_path / "part.json"), "--dot", str(dot),
    ]) == 0
    text = dot.read_text()
    assert '"Z0" [color=blue];' in text and '"Z5" [color=blue];' in text
    # the input nodes are never blue
    assert text.count("color=blue") == 2


def test_stream_refuses_a_batch_that_empties_the_view(tmp_path, capsys):
    # (1, 2) carries only b, so zeroing (0, 1) on a leaves no node in the view
    src = tmp_path / "g.tsv"
    src.write_text("node_a\tnode_b\ta\tb\n0\t1\t3\t1\n1\t2\t0\t2\n")
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"tick": 1, "kind": "update_weight", "a": 0, "b": 1, "attr": "a", "value": 0}\n'
    )
    out = tmp_path / "part.json"
    code = main(["stream", "-i", str(src), "--events", str(events), "--attr", "a",
                 "--seed", "0", "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "noaga: error: event at tick 1: the batch leaves the view with no active nodes"
    ]
    assert not out.exists()


def test_stream_refuses_a_label_that_is_not_unicode_text(tmp_path, capsys):
    # JSON accepts an escaped lone surrogate, which no writer can encode as UTF-8
    src = tmp_path / "g.tsv"
    src.write_text("node_a\tnode_b\tw\n1\t2\t3\n2\t3\t1\n")
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"tick": 1, "kind": "add_node", "node": "\\udcff"}\n'
        '{"tick": 1, "kind": "add_edge", "a": "\\udcff", "b": 1, "weights": [2]}\n'
    )
    out, dot = tmp_path / "part.json", tmp_path / "part.dot"
    code = main(["stream", "-i", str(src), "--events", str(events), "--seed", "0",
                 "-o", str(out), "--dot", str(dot)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("noaga: error: line 1: ")
    assert not out.exists() and not dot.exists()


def test_dot_ids_escape_quotes_backslashes_and_newlines(tmp_path):
    src = tmp_path / "g.tsv"
    src.write_text("node_a\tnode_b\tw\n1\t2\t3\n2\t3\t1\n")
    labels = ['a"b', "c\\", "e\nf"]
    events = tmp_path / "events.jsonl"
    events.write_text("".join(
        json.dumps({"tick": 1, "kind": "add_node", "node": label}) + "\n"
        + json.dumps({"tick": 1, "kind": "add_edge", "a": label, "b": 1, "weights": [2]}) + "\n"
        for label in labels
    ))
    dot = tmp_path / "part.dot"
    assert main(["stream", "-i", str(src), "--events", str(events), "--seed", "0",
                 "-o", str(tmp_path / "part.json"), "--dot", str(dot)]) == 0
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    ids, edges = set(), []
    for line in dot.read_text().splitlines():
        if line.lstrip().startswith(("//", "label=")):
            continue
        assert '"' not in quoted.sub("", line)  # every quote opens or closes an ID
        found = [re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), q)
                 for q in quoted.findall(line)]
        ids.update(found)
        if " -- " in line:
            edges.append(tuple(found))
    assert ids == {"1", "2", "3", *labels}
    assert sorted(edges) == sorted([("1", "2"), ("2", "3")] + [("1", label) for label in labels])


def test_oracle_exceeds_cap(table1, tmp_path, capsys):
    code = main(["oracle", "-i", table1, "--attr", "emails"])
    assert code == 2
    assert "exceeds the enumeration cap" in capsys.readouterr().err


def test_oracle_rejects_a_negative_cap(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text("node_a\tnode_b\tw1\n1\t2\t1\n2\t3\t1\n")
    assert main(["oracle", "-i", str(src), "--n-max", "-1"]) == 1
    assert capsys.readouterr().err == "noaga: error: n_max must be >= 0, got -1\n"
    assert main(["oracle", "-i", str(src), "--n-max", "0"]) == 2
    assert "exceeds the enumeration cap 0 (Bell(0) = 1)" in capsys.readouterr().err


def test_oracle_small_graph_stdout(tmp_path, capsys):
    src = tmp_path / "twotri.tsv"
    src.write_text(
        "node_a\tnode_b\tw1\n"
        "1\t2\t4\n1\t3\t4\n2\t3\t4\n4\t5\t4\n4\t6\t4\n5\t6\t4\n3\t4\t1\n"
    )
    assert main(["oracle", "-i", str(src)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [c["members"] for c in obj["clusters"]] == [[1, 2, 3], [4, 5, 6]]
    assert obj["fitness"]["total"] == pytest.approx(0.9)
    assert obj["meta"]["n_max"] == 10


def test_oracle_prints_the_bytes_it_writes(tmp_path, capsys):
    src = tmp_path / "twotri.tsv"
    src.write_text(
        "node_a\tnode_b\tcourriel\u00e9\t\u8a55\u8ad6\n"
        "1\t2\t4\t1\n1\t3\t4\t0\n2\t3\t4\t2\n4\t5\t4\t1\n3\t4\t1\t3\n",
        encoding="utf-8",
    )
    out = tmp_path / "oracle.json"
    assert main(["oracle", "-i", str(src)]) == 0
    printed = capsys.readouterr().out
    assert main(["oracle", "-i", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == printed.encode("utf-8")
    assert json.loads(printed)["attrs"] == ["courriel\u00e9", "\u8a55\u8ad6"]


def test_a_cluster_run_analyses_its_final_partition_once(table1, tmp_path, monkeypatch):
    # the partition, NoAs and closeness written come from the run's last
    # observation; with no checkpoint before the end that is the only one,
    # and its tally is the only pass over the edges for NoAs
    passes, builds = [], []
    count = analysis.Tally.__init__
    monkeypatch.setattr(analysis.Tally, "__init__",
                        lambda self, *a: passes.append(1) or count(self, *a))
    from_labels = Partition.from_labels.__func__
    monkeypatch.setattr(Partition, "from_labels",
                        classmethod(lambda cls, *a: builds.append(1) or from_labels(cls, *a)))
    out, dot = str(tmp_path / "part.json"), str(tmp_path / "part.dot")
    assert main(["cluster", "-i", table1, "--seed", "3", "--iterations", "50",
                 "--checkpoint-every", "100", "-o", out, "--dot", dot]) == 0
    assert (len(passes), len(builds)) == (1, 1)
    assert "[color=red];" in (tmp_path / "part.dot").read_text()


@pytest.mark.parametrize(
    "text, attr",
    [
        ("node_a\tnode_b\tw1\n", []),
        ("node_a\tnode_b\tw1\tw2\n1\t2\t3\t0\n2\t3\t1\t0\n", ["--attr", "w2"]),
    ],
    ids=["header-only", "zero-attr"],
)
def test_oracle_empty_view_is_a_config_error(tmp_path, capsys, text, attr):
    src = tmp_path / "g.tsv"
    src.write_text(text)
    out = str(tmp_path / "p.json")
    for argv in (["oracle"], ["cluster", "--seed", "1", "-o", out]):
        assert main([*argv, "-i", str(src), *attr]) == 1
        assert capsys.readouterr().err == "noaga: error: cannot run on an empty view\n"


def test_assign_weights(tmp_path):
    src = tmp_path / "bare.tsv"
    src.write_text("1\t2\n2\t3\n1\t3\n")
    out1 = str(tmp_path / "w1.tsv")
    out2 = str(tmp_path / "w2.tsv")
    assert main(["assign-weights", "-i", str(src), "-o", out1,
                 "--arity", "2", "--low", "2", "--high", "6", "--seed", "9"]) == 0
    assert main(["assign-weights", "-i", str(src), "-o", out2,
                 "--arity", "2", "--low", "2", "--high", "6", "--seed", "9"]) == 0
    assert (tmp_path / "w1.tsv").read_bytes() == (tmp_path / "w2.tsv").read_bytes()
    snap, schema = io.parse_edge_list(out1)
    assert schema.names == ("w1", "w2")
    assert len(snap.edges) == 3
    for weights in snap.edges.values():
        assert all(2 <= w <= 6 for w in weights)


def test_overlay_command(tmp_path, capsys):
    def write_partition(name, clusters):
        obj = {"meta": {}, "version": 0, "attrs": ["w1"],
               "clusters": [{"members": list(c), "noa": c[0], "closeness": 0.0}
                            for c in clusters],
               "fitness": {"total": 0, "closeness_mean": 0, "cut_fraction": 0,
                           "small_count": 0}}
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    pa = write_partition("a.json", [(1, 2), (3, 4)])
    pb = write_partition("b.json", [(1, 3), (2, 4)])
    assert main(["overlay", "-a", pa, "-b", pb]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["overlap_nodes"] == [1, 2, 3, 4]
    assert {"a": 0, "b": 0, "members": [1]} in obj["cells"]


def test_noa_log_command(tmp_path, capsys):
    from noaga.analysis import NoARecord

    records = [
        NoARecord(0, ("w1",), (1, 2), 1, 1, 4),
        NoARecord(5, ("w1",), (3, 4), 3, 1, 2),
        NoARecord(9, ("w1",), (1, 2, 5), 1, 2, 6),
    ]
    path = str(tmp_path / "noa.jsonl")
    io.write_noa_log(records, {}, path)

    assert main(["noa-log", "-i", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3

    assert main(["noa-log", "-i", path, "--member", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "members={1,2,5}" in out

    assert main(["noa-log", "-i", path, "--tail", "1"]) == 0
    assert "tick        9" in capsys.readouterr().out


def test_noa_log_tail_bounds(tmp_path, capsys):
    from noaga.analysis import NoARecord

    path = str(tmp_path / "noa.jsonl")
    io.write_noa_log([NoARecord(0, ("w1",), (1, 2), 1, 1, 4)], {}, path)
    assert main(["noa-log", "-i", path, "--tail", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["noa-log", "-i", path, "--tail", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 1
    assert main(["noa-log", "-i", path, "--tail", "-1"]) == 1
    assert capsys.readouterr().err.startswith("noaga: error: --tail")


def _noa_log(**field):
    """A NoA log whose one record has `field` in place of a valid value."""
    record = {"tick": 1, "attrs": ["w1"], "members": [1, 2], "noa": 1, "edges": 1, "weight": 4}
    return '{"header": {}}\n' + json.dumps({**record, **field}) + "\n"


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("g.tsv", "node_a\tnode_b\tw1\n1\t2\t\u00b2\n",
         ["cluster", "-i", "{bad}", "--seed", "1", "-o", "{out}"]),
        ("g.tsv", "1\t\u00b2\n", ["oracle", "-i", "{bad}"]),
        ("noa.jsonl", '{"header": {}}\n5\n', ["noa-log", "-i", "{bad}"]),
        ("p.json", '{"clusters": [{"members": ["a"]}]}', ["overlay", "-a", "{bad}", "-b", "{bad}"]),
        *(
            ("noa.jsonl", _noa_log(**field), ["noa-log", "-i", "{bad}"])
            for field in (
                {"tick": {}}, {"tick": True}, {"noa": "1"}, {"edges": 1.5}, {"weight": None},
                {"attrs": "w1"}, {"attrs": [1]}, {"members": {}}, {"members": ["1"]},
                {"members": [True]},
            )
        ),
    ],
)
def test_malformed_input_is_a_data_error(tmp_path, capsys, name, text, argv):
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    argv = [a.format(bad=bad, out=tmp_path / "out.json") for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("noaga: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["stream", "-i", "{table1}", "--events", "{deep}", "--seed", "1", "-o", "{out}"],
        ["noa-log", "-i", "{deep}"],
        ["overlay", "-a", "{deep}", "-b", "{deep}"],
    ],
    ids=["stream-events", "noa-log", "overlay"],
)
def test_deeply_nested_json_is_a_data_error(tmp_path, capsys, table1, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [a.format(table1=table1, deep=deep, out=out) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == "noaga: error: line 1: bad JSON: nested too deeply\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        # 200,000 weights, the last one negative
        json.dumps({"tick": 1, "kind": "add_edge", "a": 1, "b": 2,
                    "weights": [1] * 199_999 + [-1]}),
        # a node label nested 60 lists deep: under the JSON nesting limit,
        # and its 120-character repr still needs clipping
        '{"tick": 1, "kind": "add_node", "node": ' + "[" * 60 + "]" * 60 + "}",
    ],
    ids=["long-weights", "deep-label"],
)
def test_rejected_value_is_clipped_in_the_message(tmp_path, capsys, table1, line):
    events = tmp_path / "events.jsonl"
    events.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["stream", "-i", table1, "--events", str(events), "--seed", "1",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    # the value itself is rejected (not the JSON), and only its head is shown
    assert err.startswith("noaga: error: line 1: bad event: ")
    assert err.endswith("…\n") and err.count("\n") == 1 and len(err) < 200
    assert not out.exists()


LONG = "9" * 5000  # past the interpreter's default int-string limit of 4,300 digits


@pytest.mark.parametrize(
    "name, text, argv, line",
    [
        ("edges.tsv", f"node_a\tnode_b\tw1\n1\t2\t1\n{LONG}\t3\t1\n",
         ["cluster", "-i", "{bad}", "--seed", "1", "-o", "{out}"], 3),
        ("events.jsonl", f'{{"tick": 1, "kind": "add_node", "node": 90}}\n'
                         f'{{"tick": {LONG}, "kind": "add_node", "node": 91}}\n',
         ["stream", "-i", "{table1}", "--events", "{bad}", "--seed", "1", "-o", "{out}"], 2),
        ("part.json", f'{{\n  "clusters": [\n    {{"members": [1, {LONG}]}}\n  ]\n}}\n',
         ["overlay", "-a", "{bad}", "-b", "{bad}", "-o", "{out}"], 3),
        # digits inside a string are no integer, so the member's line is named
        ("part.json", f'{{"meta": {{"note": "{LONG}"}},\n  "clusters": [\n'
                      f'    {{"members": [1, {LONG}]}}\n  ]\n}}\n',
         ["overlay", "-a", "{bad}", "-b", "{bad}", "-o", "{out}"], 3),
        ("noa.jsonl", '{"header": {}}\n'
                      f'{{"tick": {LONG}, "attrs": ["w1"], "members": [1], "noa": 1, '
                      '"edges": 0, "weight": 0}\n',
         ["noa-log", "-i", "{bad}"], 2),
    ],
    ids=["edge-list", "event-stream", "partition-json", "partition-json-meta-string",
         "noa-log"],
)
def test_huge_integer_is_a_data_error(tmp_path, capsys, table1, name, text, argv, line):
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [a.format(table1=table1, bad=bad, out=out) for a in argv]
    assert main(argv) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == (
        f"noaga: error: line {line}: integer longer than {limit} digits\n"
    )
    assert not out.exists()


def test_huge_digit_string_label_is_a_data_error(tmp_path, capsys, table1):
    # a digit string names a node id; one int() cannot convert is refused
    # while the events are read, before the GA runs
    events = tmp_path / "events.jsonl"
    events.write_text(f'{{"tick": 1, "kind": "add_node", "node": "{LONG}"}}\n', encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["stream", "-i", table1, "--events", str(events), "--seed", "1",
                 "-o", str(out)]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == (
        f"noaga: error: line 1: bad event: node id longer than {limit} digits\n"
    )
    assert not out.exists()


def test_usage_errors_exit_1(tmp_path, table1):
    out = str(tmp_path / "x.json")
    assert main([]) == 1
    assert main(["cluster", "-i", table1, "-o", out]) == 1  # missing --seed
    assert main(["cluster", "-i", table1, "--seed", "1", "-o", out,
                 "--iterations", "5", "--max-evaluations", "50"]) == 1
    assert main(["cluster", "-i", table1, "--seed", "1", "-o", out,
                 "--attr", "faxes", "--iterations", "5"]) == 1
    assert main(["gen", "--preset", "bogus", "-o", out]) == 1


RUN_COMMANDS = ("cluster", "stream", "oracle")


@pytest.mark.parametrize(
    "command, flag",
    # the separator's group cap is the constant encoding.K_MAX and the fitness
    # weights are constants of fitness, not flags
    [(c, "--k-max 8") for c in ("cluster", "stream")]
    + [(c, f) for f in ("--lambda-cut 1", "--mu-small 0", "--sigma-small 3")
       for c in RUN_COMMANDS],
)
def test_constant_settings_are_no_flags(tmp_path, table1, capsys, command, flag):
    out = tmp_path / "x.json"
    argv = [command, "-i", table1, "-o", str(out), *flag.split()]
    if command != "oracle":
        argv += ["--seed", "1"]
    if command == "stream":
        argv += ["--events", str(tmp_path / "events.jsonl")]
    assert main(argv) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["cluster", "-i", "in.tsv", "--seed", "4", "-o", "out.json"])
    assert _config(args) == GAConfig(seed=4)


def _is_number_literal(node: ast.expr) -> bool:
    """An expression of numeric constants only, such as 100, -1 or 10_000 * 2."""
    parts = list(ast.walk(node))
    return any(isinstance(n, ast.Constant) for n in parts) and all(
        isinstance(n, (ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator))
        or (isinstance(n, ast.Constant) and type(n.value) in (int, float))
        for n in parts
    )


def _flag_calls(tree: ast.Module) -> dict[str, list[ast.Call]]:
    """The add_argument calls of each subcommand in cli.py: those written in
    `build_parser` after the command's `add_parser`, and those in the module's
    functions that `build_parser` calls there."""
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def called(node, name):
        return isinstance(node, ast.Call) and name == (
            node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", None))

    calls: dict[str, list[ast.Call]] = {}
    command = None
    for stmt in functions["build_parser"].body:
        for node in ast.walk(stmt):
            if called(node, "add_parser"):
                command = node.args[0].value
                calls[command] = []
            elif called(node, "add_argument") and command:
                calls[command].append(node)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                body = functions[node.func.id]
                calls[command] += [n for n in ast.walk(body) if called(n, "add_argument")]
    return calls


def test_run_setting_defaults_are_read_from_the_library():
    # a number written as a flag default is a second copy of a GAConfig
    # default, free to drift from the library's
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = _flag_calls(tree)
    assert all(calls.get(command) for command in RUN_COMMANDS)
    found = [
        f"{command} {call.args[0].value}: default={ast.unparse(kw.value)}"
        for command in RUN_COMMANDS for call in calls[command] for kw in call.keywords
        if kw.arg == "default" and _is_number_literal(kw.value)
    ]
    assert found == []


VIEW_FLAGS = ["--agg", "--attr", "--input"]
RUN_FLAGS = VIEW_FLAGS + [
    "--checkpoint-every", "--checkpoint-log", "--crossover-rate", "--dot", "--iterations",
    "--max-evaluations", "--mutation-rate", "--noa-log", "--output", "--p-init",
    "--population-size", "--scheme", "--seed",
]


def test_run_commands_have_exactly_these_flags():
    # every flag is a setting a user can reach, so a new one is declared here
    # in the same change that adds it
    calls = _flag_calls(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
    flags = {command: sorted(call.args[-1].value for call in calls[command])
             for command in RUN_COMMANDS}
    assert flags == {
        "cluster": sorted(RUN_FLAGS),
        "stream": sorted(RUN_FLAGS + ["--events"]),
        "oracle": sorted(VIEW_FLAGS + ["--n-max", "--output"]),
    }


def test_data_errors_exit_2(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["cluster", "-i", str(tmp_path / "missing.tsv"),
                 "--seed", "1", "-o", out]) == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("node_a\tnode_b\tw1\n1\t1\t3\n")
    assert main(["cluster", "-i", str(bad), "--seed", "1", "-o", out]) == 2


FUZZ_TSV = (
    b"node_a\tnode_b\ta\tb\n"
    b"1\t2\t3\t1\n2\t3\t2\t0\n1\t3\t1\t2\n4\t5\t2\t2\n5\t6\t1\t0\n3\t4\t0\t1\n"
)
FUZZ_EVENTS = (
    b'{"tick": 1, "kind": "add_node", "node": "X"}\n'
    b'{"tick": 1, "kind": "add_edge", "a": "X", "b": 2, "weights": [2, 0]}\n'
    b'{"tick": 3, "kind": "update_weight", "a": 1, "b": 2, "attr": "a", "value": 0}\n'
    b'{"tick": 4, "kind": "remove_edge", "a": 4, "b": 5}\n'
)
# bytes that mean something to one of the parsers, and some that mean nothing
FUZZ_TOKENS = [
    b"0", b"1", b"2", b"3", b"5", b"7", b"10", b"-1", b"99999999999999999999", b"1.5",
    b"\t", b"\n", b"\r", b" ", b"#", b'"', b"{", b"}", b"[", b"]", b",", b":", b"null",
    b"true", b'"x"', b"\x00", b"\xff", b"\xc2\xb2",
]
FUZZ_ARGV = [
    ["cluster", "-i", "{tsv}", "--attr", "a", "--seed", "0", "--population-size", "4",
     "--iterations", "20", "-o", "{out}"],
    ["stream", "-i", "{tsv}", "--events", "{events}", "--attr", "a", "--seed", "0",
     "--population-size", "4", "--iterations", "20", "-o", "{out}"],
    ["oracle", "-i", "{tsv}", "-o", "{out}"],
]


def _mutated(base):
    """`base` with up to three edits, each cutting up to two bytes at one
    place and inserting a token there."""
    edit = st.tuples(
        st.sampled_from(range(len(base) + 1)), st.integers(0, 2), st.sampled_from(FUZZ_TOKENS)
    )

    def apply(edits):
        data = base
        for at, cut, insert in edits:
            at = min(at, len(data))
            data = data[:at] + insert + data[at + cut:]
        return data

    return st.lists(edit, max_size=3).map(apply)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.tuples(_mutated(FUZZ_TSV), st.just(FUZZ_EVENTS)),
        st.tuples(st.just(FUZZ_TSV), _mutated(FUZZ_EVENTS)),
        st.tuples(_mutated(FUZZ_TSV), _mutated(FUZZ_EVENTS)),
    )
)
@example((FUZZ_TSV.replace(b"3\t1\n", b"\xff\t1\n", 1), FUZZ_EVENTS))
@example((FUZZ_TSV, FUZZ_EVENTS.replace(b'"X"', b'"\xff"', 1)))
@example((FUZZ_TSV, FUZZ_EVENTS.replace(b'"X"', b'"\\udcff"')))
def test_mutated_inputs_end_in_a_documented_exit(files):
    """cluster, stream and oracle on damaged input files: exit 0, 1 or 2,
    never a traceback, and a failed run says why and writes no output."""
    tsv, events = files
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("tsv", "events", "out")}
        for name, data in (("tsv", tsv), ("events", events)):
            with open(paths[name], "wb") as fh:
                fh.write(data)
        for argv in FUZZ_ARGV:
            err = StringIO()
            with redirect_stderr(err), redirect_stdout(StringIO()):
                code = main([arg.format(**paths) for arg in argv])
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2), (argv[0], lines)
            assert not any("Traceback" in line for line in lines), (argv[0], lines)
            if code:
                assert any(line.startswith("noaga: error: ") for line in lines), (argv[0], lines)
                assert not os.path.exists(paths["out"]), argv[0]
            elif os.path.exists(paths["out"]):
                os.unlink(paths["out"])
