"""Golden digests: every file the CLI writes, pinned byte for byte.

Each run below writes its outputs into a fresh directory and the SHA-256 of
every file must match the literal recorded here. A refactor that keeps the
outputs byte-identical leaves this test green; a change to a file format
made on purpose updates the literals by hand, in the same change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from noaga.cli import main

ORACLE_GRAPH = (
    "node_a\tnode_b\tcalls\ttexts\n"
    "1\t2\t3\t0\n1\t3\t2\t1\n2\t3\t0\t4\n3\t4\t1\t0\n"
    "4\t5\t2\t2\n4\t6\t0\t3\n5\t6\t4\t1\n6\t7\t1\t0\n7\t8\t3\t3\n"
)


def _update(tick, a, b, attr, value):
    return {"tick": tick, "kind": "update_weight", "a": a, "b": b, "attr": attr, "value": value}


# weight-only batches (repeated updates to one edge, an unchanged aggregate,
# an attribute outside the view, an edge inactive in the view) around
# structural ones: an edge zeroed in the emails view, an added edge, an
# edge whose every weight goes to zero
WEIGHT_EVENTS = "".join(json.dumps(ev) + "\n" for ev in (
    _update(200, 1, 2, "emails", 9), _update(200, 6, 7, "emails", 1),
    _update(200, 10, 14, "emails", 2),
    _update(400, 4, 7, "emails", 6), _update(400, 4, 7, "emails", 2),
    _update(400, 1, 3, "posts", 7),
    _update(600, 8, 14, "emails", 2),
    _update(800, 6, 10, "emails", 0),
    _update(1000, 6, 10, "comments", 30),
    {"tick": 1200, "kind": "add_edge", "a": 3, "b": 9, "weights": [2, 2, 2]},
    _update(1400, 3, 9, "emails", 5), _update(1400, 11, 13, "emails", 7),
    _update(1400, 5, 6, "posts", 3),
    _update(1600, 6, 10, "posts", 0), _update(1600, 6, 10, "comments", 0),
    _update(1800, 1, 5, "emails", 1), _update(1800, 12, 14, "posts", 9),
))



def messy_table1(text):
    """The table1 rows as a hand-edited file might hold them: CRLF endings,
    comments and blank lines, space-padded fields, reversed pairs, and two
    more edges that are zero in emails, one to a node with no other edge."""
    header, *rows = text.splitlines()
    name_a, name_b, *names = header.split("\t")
    out = ["# table1, edited by hand", "\t".join([name_a, name_b, *(f" {n}" for n in names)]), ""]
    for i, row in enumerate([*rows, "3\t9\t0\t1\t1", "15\t16\t0\t2\t0"]):
        a, b, *weights = row.split("\t")
        if i % 3 == 0:
            a, b = b, a
        if i % 4 == 1:
            a, weights = f" {a}", [f" {w} " for w in weights]
        out.append("\t".join([a, b, *weights]))
        if i % 7 == 6:
            out += ["", "   ", "  # a comment between rows"]
    return "\r\n".join(out) + "\r\n"


# A 301-node planted graph that a run does not solve in its budget, so its
# checkpoints follow the search, and 15 event batches for it: the 5th, 10th
# and 15th add a node, remove edges and zero edges, the others re-weight
# edges. Written by
# bench/gen.py: rng = random.Random("golden/planted-hard");
# planted_graph(rng, communities=30, size=10, chords=15, extra_inter=90,
# intra_w=(1, 6), inter_w=(1, 6)) for the graph, then
# stream_events(rng, edges, truth, batches=15, first_tick=15, gap=15).
PLANTED_HARD = Path(__file__).with_name("data") / "planted-hard.tsv"
PLANTED_HARD_EVENTS = PLANTED_HARD.with_name("planted-hard-events.jsonl")
HARD_FLAGS = ["--seed", "1", "--population-size", "20", "--checkpoint-every", "50"]
GA_FLAGS = ["--population-size", "30", "--iterations", "300", "--checkpoint-every", "100"]
# half the edges listed at first and nearly every gene mutated: crossover
# splices repeat edges and replacement draws collide
DUPLICATE_FLAGS = ["--p-init", "0.5", "--mutation-rate", "0.9", "--population-size", "12",
                   "--iterations", "300", "--checkpoint-every", "100"]
STREAM_FLAGS = ["--population-size", "20", "--iterations", "4000", "--checkpoint-every", "500"]
# little crossover and mutation: most children equal a parent; at seed 1
# the elite still improves between checkpoints
REUSE_FLAGS = ["--crossover-rate", "0.2", "--mutation-rate", "0.02"]
OUTPUTS = (("part.json", "-o"), ("part.dot", "--dot"),
           ("ck.jsonl", "--checkpoint-log"), ("noa.jsonl", "--noa-log"))

GOLDEN = {
    "cluster-emails-edge-removal": {
        "ck.jsonl": "288eac24dc25d55100834a708731ee993d14721255ca23157e07f98d34cb2c22",
        "noa.jsonl": "8dc9291e8e0d1eb6c8df24f2c6b151fb0b5957d33659d57ad7d21c51042868ad",
        "part.dot": "781d36729b71e7542c905956428dda9b34b6ad7d0c49398e0517b6b559324bc0",
        "part.json": "abdf6897500934985c38960b654ddfe113cf6f689bc334225d1b18c3e2eead73",
    },
    "cluster-emails-separator": {
        "ck.jsonl": "1dc6d83892a08c5fa3e16777b256820472aa116687e518fd7a56c487302d2d4e",
        "noa.jsonl": "0d11c2078fc130f6ecbce283d94ae10947f12fb25820e4a250251fa6000a3ebc",
        "part.dot": "4fa1b2cc6535e7c675b6a7bbe6cbaeee335d5f2368b1fd316835f3997021aaf3",
        "part.json": "65554c0dfe2b26025aeae740227f6a565d25c80f0cb258a992748eda8ebd2ddb",
    },
    "cluster-emails-locus": {
        "ck.jsonl": "92e812bbb70ba87c7e2ee9fa708081d8612683fe32f9d349e0fc351568588818",
        "noa.jsonl": "2a971432f1c0718b8cc2f33b7c1175701dfe0db656637411c5a5ffc6ee51e4c8",
        "part.dot": "f545cdeb00d1297298cac496986ea50024068dedcde3c5ae9c7a4f1dee44938e",
        "part.json": "2af8de9ce86ed973681a693efe4ed9494e562815ddde80307562311995801e77",
    },
    "cluster-posts-edge-removal": {
        "ck.jsonl": "76dea421d3ecce70a60a1dbc6b448e53624fd713d5b96b27dd0528a91e3d40a7",
        "noa.jsonl": "7d04815b0be95c5d528862041f45972336193038ae246afbd7026f6560b19fc4",
        "part.dot": "088c550c8c1317f4a6a8984ef850c58e0d49fbda7428593087c7ea125f0675a9",
        "part.json": "1ea557f2443fcf70a6b6ae696a19fdbcc32f9c650cf6ab2c0ec1632631613907",
    },
    "cluster-posts-separator": {
        "ck.jsonl": "94d40b3128b0936972f7d18458f652ea523d714e75cc7c8044d2490d81a34a27",
        "noa.jsonl": "08805386b878458cbb2228f764840c63b65b2fa5e95623b3885fd19d1a55783d",
        "part.dot": "3de31e7fd0bd88ee4159d18c378f9b5c78a34d24a908708d00e10c946c9eee77",
        "part.json": "e49835091a4d37b3e616748f2036cf2e321184adb3f2f070c54510bf4367fdf8",
    },
    "cluster-posts-locus": {
        "ck.jsonl": "46dc97e20c0dc49822b93ad345c52218c14a98d556dbe31f2962d09e2631a61a",
        "noa.jsonl": "f6ce31dbdd730e65dd7573ac32271b7d9b20efd5a98c8225472dbe645872f785",
        "part.dot": "088c550c8c1317f4a6a8984ef850c58e0d49fbda7428593087c7ea125f0675a9",
        "part.json": "93ab33606ca7ddf184e32b0f707731348c2024c41ac72cec114f2dc453186120",
    },
    "cluster-comments-edge-removal": {
        "ck.jsonl": "b7eee1d8922f7076691fb8cde4c9ca000c383b91e7ce14d041ae305b1c31d17b",
        "noa.jsonl": "56568effbcd19127ba86b3c1f9cd0b038e6ab2ae24f8a32f851f58a1f82d5e9d",
        "part.dot": "ada4d4b53e4f195a971d652d78cbb9847dc55e93a91a94be58e3ccf313e81bf8",
        "part.json": "d444f081b614a86953f04e1a943ea783b028fe2f9e671a0057ef17d1d3ee11f6",
    },
    "cluster-comments-separator": {
        "ck.jsonl": "db54556dcc4f6ee4920a6431da0baa5f51ed85dac6356d8dd0a348066f1782ee",
        "noa.jsonl": "5e9944e731aa5406dcb856ad6fbc992a2f32c76d5ddad5bb0bc033e09f68b9f8",
        "part.dot": "5ad296df1988d8eeffcb6d7a272ee58fbeee51bf615119affd587a9038630e71",
        "part.json": "59bfc1305bbe51351091bd5b262587b85408474fef58570c68b310c0226e3b0d",
    },
    "cluster-comments-locus": {
        "ck.jsonl": "47ea9a4baebece9e82afc3b952a0e23169c6e2694444dbdb869c0c46417d55cf",
        "noa.jsonl": "064d622125bec2c672b61ffbbfeaedfd77d2a1bc3f40b7844e509d5074f53e32",
        "part.dot": "ada4d4b53e4f195a971d652d78cbb9847dc55e93a91a94be58e3ccf313e81bf8",
        "part.json": "d3e3149b79b21a116f1374e9541606a9ef9977a4c78d82c86dd49ee853f19a8d",
    },
    "cluster-duplicates-emails-edge-removal": {
        "ck.jsonl": "bed9d66a35fe3ec7acadb34293a87ac8409da0de4581069be12d02e16724b949",
        "noa.jsonl": "fe6bc5ea543382a3e712d5ed9432c717f8a9ebfaa9f76b3c7b895e4186e99720",
        "part.dot": "c02f3928a298c001c8e19fbc9f2731b19f60b48069a83e0589c2b07c25357138",
        "part.json": "c87795fa1a7eace4547ca60e6017990e8e4589f356aada54435d9ae1025b5d01",
    },
    "cluster-duplicates-posts-edge-removal": {
        "ck.jsonl": "fcad53869ea14b0811c2b3e0e6b781d0b69d4e9b80caa57c520aded6382f9da2",
        "noa.jsonl": "41f98e3448f0cc6e79d1d59a7484d97502e5525c5acaf889b84be70e89ae6a74",
        "part.dot": "088c550c8c1317f4a6a8984ef850c58e0d49fbda7428593087c7ea125f0675a9",
        "part.json": "62b0a3223ffb70a7f43612343d0fc6b52ea2639c09f952bfa41e113dfae63bb9",
    },
    "cluster-all-sum": {
        "ck.jsonl": "d06ab97589889c9e9a532859c7d3125720e8cd8972c159677e97b08a50a976b6",
        "noa.jsonl": "7dd4e5eb38def9782465e2dd41de43566ea5dbd06566bf9186451a33be55b313",
        "part.dot": "e2f0bb387d12cbc28e5c2c8513e272bc7361969193960effa63f18bb851cb8d0",
        "part.json": "9d2fc0e8def058f04e7743c422ca754730a24e2ebbe8cf2354e09990589a7f31",
    },
    "cluster-emails+posts-max": {
        "ck.jsonl": "0f9d13e8aa35e6c83d145f0c3c29c2554f5aaa87569a0986b9a934dbcea818a7",
        "noa.jsonl": "5a8d3181fd7f0efb3c864bd963a616fa8dffacceb01b87917ca74e6bb39e4d20",
        "part.dot": "5c12c812522e549801b51f84697a10a1a576258e09be22fdee86165b5084a638",
        "part.json": "5f543c31a731fcdd973e2f6ac26abe9a3d14e580ab00992cf9391ac4f78605fa",
    },
    "cluster-reuse-emails-separator": {
        "ck.jsonl": "375a6e31107d487bf9257a628284a14f6d6259e265241aed2a2dccf5858fc7d5",
        "noa.jsonl": "5a5db0a776ba33bdddd68cf7dcd44d08c246f0e9fc27852491e23d4ebed584d0",
        "part.dot": "9e1ed0e9540679a21adc53479b6bbe7a0164201a011525d5429d8f1c7f071f6e",
        "part.json": "423e16b175d723031ae1656cc958b59ae356e8f96ffe2d707d5d828697e3990f",
    },
    "stream-edge-removal": {
        "ck.jsonl": "91e923a52aa7bdd267ba0b05dc47f8f62352a913985c010a0a60abf2f111d212",
        "noa.jsonl": "bdeb66d7e8e907bdb9a0cdc3711b6687188fa67145b6db0dfe1022c10681d8e5",
        "part.dot": "ded72cdef54643b7274a49b6a784d5182f9d42ec3382f9ee5cca8a647ca581c3",
        "part.json": "1d5eca974de60664d900b7f781d41bd947d942c3b0388ba0b60ac72a4efc96e0",
    },
    "stream-separator": {
        "ck.jsonl": "1918bdeccb827b2f61a38485733454cc1f6bf046e5234e5b604874a1859a09ad",
        "noa.jsonl": "4b779489f2d445530b5e0d317ce0a6e252535ef2d97090b87a062ddcf3f48ba4",
        "part.dot": "ded72cdef54643b7274a49b6a784d5182f9d42ec3382f9ee5cca8a647ca581c3",
        "part.json": "f33d122ff078e5b50ec0bd21bdf0cdd733b132eacbd32f47813aecff41d712a6",
    },
    "stream-locus": {
        "ck.jsonl": "c247ae4723454d3292fd1ae7e625b092b61befe90663d973a26b20b747b263a1",
        "noa.jsonl": "d3f572d4b14de6cae109c449268198fb244842040bb836347690c5a19c176ced",
        "part.dot": "40735399c47c9edd0d329d1173f5067fdfe708ebbdea97e88f1ae2365341c28d",
        "part.json": "02bb3af881742d3e835eefb10128b3f5b52eacb0267fa2464110ef47a5b0d5c9",
    },
    "stream-weights-emails-edge-removal": {
        "ck.jsonl": "f253c3f8bb8272713494fc8886112b36659e38d910a7735655c6b5d068befe0b",
        "noa.jsonl": "04016ea07c1bd7ee42809ed78f876e461c83d0f7e07a234372c206d162bd6b21",
        "part.dot": "7eef7269b9f439e98ef433f2df1f818f57c2320f3fab67e3a433423d3367c98c",
        "part.json": "7c3c2765a5a874557ae1d215d61bada655a67e7c5bf4e3e6272783d552077df6",
    },
    "stream-weights-emails-separator": {
        "ck.jsonl": "ea71771735e24bbed965777522618176b0642165a9e7e7eba927a2b02426eca0",
        "noa.jsonl": "29d6435f8fd404331b751963cc12e3c5b3044d40c5ff2f91a95fff3890678ba8",
        "part.dot": "055acd90c51d68e2e00f4073d88f4ccd906e22b9f76b186f85097434075cde6f",
        "part.json": "2fcc488e9df5b4a46061a746a4dd8972e928a61f03dafe6123ec600c2fe0250b",
    },
    "stream-weights-emails-locus": {
        "ck.jsonl": "50dbda64dcb2075b0b245f8ecd5a9e5ae24e60a2f14386b7b21d15678a0e18d8",
        "noa.jsonl": "52f7414c503ca01f15ec78fd914aff4592d791b714e95f7d720355a44cb9f117",
        "part.dot": "055acd90c51d68e2e00f4073d88f4ccd906e22b9f76b186f85097434075cde6f",
        "part.json": "08c428cce9dea4087b9c3dd439010a02404f02f1be0850a68c38c70488088097",
    },
    "stream-weights-emails+posts-max-edge-removal": {
        "ck.jsonl": "13a90f99d5eae0c0efd5e373b942879238f55ba873104d6205f9a5a1d81f9356",
        "noa.jsonl": "15ae43c341a7141878031fb5ffc6d94e12e290f911e9fbd8508647b13b4aff6e",
        "part.dot": "2daaa393636c43192ddc39a2dae3992325c57371d740351ef8c8179ba5413327",
        "part.json": "c8a6600cd7a315c5c278b54c43948693453ab7f2c74e62e5c53c2ba994b98ba9",
    },
    "stream-weights-emails+posts-max-separator": {
        "ck.jsonl": "c20bc526e3381e74320761f9f15405243999a0e1d4d24eb8421573c3ea67a4db",
        "noa.jsonl": "8cd6d224e850bd7e788469b98ccb5dae27f20c0a63ef27e5a1e2922f73e53e92",
        "part.dot": "2daaa393636c43192ddc39a2dae3992325c57371d740351ef8c8179ba5413327",
        "part.json": "e8fd4019bccc320d01971f643af5c82058265b7acf914fb1218d60fcb37c76a7",
    },
    "stream-weights-emails+posts-max-locus": {
        "ck.jsonl": "eaa6eaf9478f869c5123694c18ee1497fe8150b023a60f71e2c081191183badf",
        "noa.jsonl": "82e676b845fc68ece90de8e3613ff572c30cced9498071e39812bdcf64d74689",
        "part.dot": "2daaa393636c43192ddc39a2dae3992325c57371d740351ef8c8179ba5413327",
        "part.json": "0e1de78874a5b311187aedf0d1660851fc245d1d0c69d576793966a17fae5c19",
    },
    "stream-reuse-edge-removal": {
        "ck.jsonl": "0adfd18657106bae066ea8ce06bee91e9a2eb4c42c31005454d215392c9e8f35",
        "noa.jsonl": "52dcadbe2df99752ea8e26f3a92c8b4e277f8703dc6eac1002a75186c83b675e",
        "part.dot": "ded72cdef54643b7274a49b6a784d5182f9d42ec3382f9ee5cca8a647ca581c3",
        "part.json": "c0bf353e64bf2609f2273e09546eb323270081619d9b7998f3c2f48d80492a62",
    },
    "cluster-messy-emails-edge-removal": {
        "ck.jsonl": "fed3ecac143b77fc762c9bee2dd81755335cf627fef747396417a10e2c9315fe",
        "noa.jsonl": "b85fe465ccbd57c2f2e231367fe2c7f2b4108388488f4eb4f440c147419420c4",
        "part.dot": "a3a44911b153b4e76d425c1b778b7bb3e35f3e4c02007de95151440237c182a5",
        "part.json": "9af4bf4e4fd42207da78afec5d7c2e815dfccc3f9b3475c6f33117e4509e052b",
    },
    "oracle-max": {
        "part.json": "e053e876e069de9aa8d8c89be0334176fb8b80b4c0be054bca68060287c56127",
    },
    "cluster-planted-hard": {
        "ck.jsonl": "80a9e6b296164936294907a6a80b4ba4ccac2196110610b5345735839599a607",
        "noa.jsonl": "7ec145c81f0741509700f57a23a1c794df3108ecfaeec4865da7916d825efee9",
        "part.dot": "0d9657eb60cc678ede4db2158d85f1bcad1f586005b6fedfa4a0b0bff58c862b",
        "part.json": "5e6b22a0e89a04a7b85c1e68f27b98f0dbf40915f592945622aa4a218919a8a0",
    },
    "stream-planted-hard": {
        "ck.jsonl": "6201fd8bdf4267d4d2fd0f30612883518e70b4812e74dffe972ec7005e5d9308",
        "noa.jsonl": "9b59943c07a1ced3cd1a20e7bde8e0e9308a25f18ea100f93ca803906a13f00a",
        "part.dot": "a5fbe985c3067fa93878db7e230973595f6d33023aca03fff9601ec6d84a0ddc",
        "part.json": "5472fde198c6af7c93dd81ee8b556edf51590307cea9f75b4d3ad8fed8a724dd",
    },
}


def _run(tmp_path, argv):
    """Run one CLI command writing every output it has; returns name -> digest."""
    tmp_path.mkdir()
    argv = list(argv)
    if argv[0] == "oracle":
        argv += ["-o", str(tmp_path / "part.json")]
    else:
        for name, flag in OUTPUTS:
            argv += [flag, str(tmp_path / name)]
    assert main(argv) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }


def _runs(inputs):
    table1, events, weights, graph, messy = inputs
    for attr in ("emails", "posts", "comments"):
        for scheme, seed in (("edge-removal", "3"), ("separator", "5"), ("locus", "3")):
            yield f"cluster-{attr}-{scheme}", [
                "cluster", "-i", table1, "--attr", attr, "--scheme", scheme,
                "--seed", seed, *GA_FLAGS,
            ]
    for attr in ("emails", "posts"):
        yield f"cluster-duplicates-{attr}-edge-removal", [
            "cluster", "-i", table1, "--attr", attr, "--scheme", "edge-removal",
            "--seed", "3", *DUPLICATE_FLAGS,
        ]
    # these two run the default scheme
    yield "cluster-all-sum", ["cluster", "-i", table1, "--seed", "2", *GA_FLAGS]
    yield "cluster-emails+posts-max", [
        "cluster", "-i", table1, "--attr", "emails", "--attr", "posts", "--agg", "max",
        "--seed", "2", *GA_FLAGS,
    ]
    yield "cluster-reuse-emails-separator", [
        "cluster", "-i", table1, "--attr", "emails", "--scheme", "separator",
        "--seed", "1", *REUSE_FLAGS, *GA_FLAGS,
    ]
    for scheme in ("edge-removal", "separator", "locus"):
        yield f"stream-{scheme}", [
            "stream", "-i", table1, "--events", events, "--attr", "emails",
            "--scheme", scheme, "--seed", "3", *STREAM_FLAGS,
        ]
    for view, flags in (
        ("emails", ["--attr", "emails"]),
        ("emails+posts-max", ["--attr", "emails", "--attr", "posts", "--agg", "max"]),
    ):
        for scheme in ("edge-removal", "separator", "locus"):
            yield f"stream-weights-{view}-{scheme}", [
                "stream", "-i", table1, "--events", weights, *flags,
                "--scheme", scheme, "--seed", "4", *STREAM_FLAGS,
            ]
    # clones and light mutants between event batches, which reset the worst member
    yield "stream-reuse-edge-removal", [
        "stream", "-i", table1, "--events", events, "--attr", "emails",
        "--scheme", "edge-removal", "--seed", "3", "--crossover-rate", "0",
        "--mutation-rate", "0.05", *STREAM_FLAGS,
    ]
    yield "cluster-messy-emails-edge-removal", [
        "cluster", "-i", messy, "--attr", "emails", "--scheme", "edge-removal",
        "--seed", "3", *GA_FLAGS,
    ]
    yield "oracle-max", ["oracle", "-i", graph, "--agg", "max"]
    yield "cluster-planted-hard", [
        "cluster", "-i", str(PLANTED_HARD), "--iterations", "300", *HARD_FLAGS,
    ]
    yield "stream-planted-hard", [
        "stream", "-i", str(PLANTED_HARD), "--events", str(PLANTED_HARD_EVENTS),
        "--max-evaluations", "1000", *HARD_FLAGS,
    ]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    table1, events, weights, graph, messy = (
        str(root / n)
        for n in ("table1.tsv", "events.jsonl", "weights.jsonl", "g.tsv", "messy.tsv")
    )
    assert main(["gen", "--preset", "table1", "-o", table1]) == 0
    assert main(["gen", "--preset", "table2-events", "-o", events]) == 0
    (root / "weights.jsonl").write_text(WEIGHT_EVENTS)
    (root / "g.tsv").write_text(ORACLE_GRAPH)
    (root / "messy.tsv").write_bytes(messy_table1((root / "table1.tsv").read_text()).encode())
    return table1, events, weights, graph, messy


def test_cli_outputs_match_golden_digests(inputs, tmp_path):
    got = {name: _run(tmp_path / name, argv) for name, argv in _runs(inputs)}
    assert got == GOLDEN


def test_the_planted_hard_cases_stop_before_convergence(inputs, tmp_path):
    # a case whose elite still improves between checkpoints pins the search
    # itself, not only the optimum it converges to
    runs = dict(_runs(inputs))
    for name in ("cluster-planted-hard", "stream-planted-hard"):
        _run(tmp_path / name, runs[name])
        lines = (tmp_path / name / "ck.jsonl").read_text().splitlines()
        totals = [row["best_total"] for row in map(json.loads, lines) if "best_total" in row]
        assert sum(b > a for a, b in zip(totals, totals[1:])) >= 2, (name, totals)
