"""Command-line interface: subcommands, formats on disk, exit codes."""

import json

import pytest

from noaga import connected_components, datasets, io
from noaga.cli import main
from noaga.graph import AttributeView


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
    part = connected_components(AttributeView(snap))
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


def test_oracle_exceeds_cap(table1, tmp_path, capsys):
    code = main(["oracle", "-i", table1, "--attr", "emails"])
    assert code == 2
    assert "exceeds the enumeration cap" in capsys.readouterr().err


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


def test_usage_errors_exit_1(tmp_path, table1):
    out = str(tmp_path / "x.json")
    assert main([]) == 1
    assert main(["cluster", "-i", table1, "-o", out]) == 1  # missing --seed
    assert main(["cluster", "-i", table1, "--seed", "1", "-o", out,
                 "--iterations", "5", "--max-evaluations", "50"]) == 1
    assert main(["cluster", "-i", table1, "--seed", "1", "-o", out,
                 "--attr", "faxes", "--iterations", "5"]) == 1
    assert main(["gen", "--preset", "bogus", "-o", out]) == 1


def test_data_errors_exit_2(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["cluster", "-i", str(tmp_path / "missing.tsv"),
                 "--seed", "1", "-o", out]) == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("node_a\tnode_b\tw1\n1\t1\t3\n")
    assert main(["cluster", "-i", str(bad), "--seed", "1", "-o", out]) == 2
