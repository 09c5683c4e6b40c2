"""The behaviour oracle: ``update`` writes the same bytes as before.

A change that only restructures code must keep ``kg.nt``,
``mappings.tsv``, ``stats.tsv`` and every part file (one ``.nt`` per
source and bridge) byte-identical on the bundled fixtures and on the
benchmark's input sets (``perfbench/synth.py``, seeds 1 and 7, bench
scale), and the first three on seed 1 at ten times the bench counts. A
change that means to alter the output updates the pinned digests and
says why.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import FIXTURES, run_cli
from ecokg import ntriples, query
from ecokg.ns import default_prefix_map

SYNTH = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"

EXPECTED = {
    "fixtures": {
        "kg.nt": "80a01b8d2824c501d5396e150536dc013aa4892c581cf7e08b1cd3b7353c36fe",
        "mappings.tsv": "6ec8a68ef74f1be012057efd88d33d43f0355c22e1c6fd859b79f40b5b2bb0bb",
        "stats.tsv": "daceeeba52b36d9edd6ba4de00a96a47ce6872d1937f9290bb5c39b02c72d2b2",
        "ecotox.nt": "bf915c65dfc3bcb02f4cd2f1ed8d46dcec05b0fdb6e9d6437550c4f89e0e4f21",
        "ncbi.nt": "f060528b50f44c38aba1bf7aafb82ed2f2a17129dae29f323bfa803e0361f822",
        "sameas_cas.nt": "b922a4c252334c94a597517dc330ee13743eadc211b4f5994f318a5d5e2fa099",
        "sameas_ncbi.nt": "763f052d4b98fdf981aec1e7ffb5478a5ffeedeeada18c98f9ff3585e490e2e2",
        "traits.nt": "943bd7b6fc759a11263dafa501a6e5dd55fcba537e685a9d926671bb8497e978",
        "units.nt": "c0d555065dc0f5b60bfcb9cb46050ae73e60bff4a8c1effab57c542f194b824d",
    },
    "bench_seed1": {
        "kg.nt": "3ae21050214391d7c04412006c59017ae0b3750783dd0b50eea722d518c76ab9",
        "mappings.tsv": "8dffdf5a01b183d80d220f6d11ef843e44e37939b87a422fce40c28668e84e49",
        "stats.tsv": "6aac174615c29066396a3193cc7a886014196f97116d7cc0700dfb702078610f",
        "ecotox.nt": "91c13a1c622030127bdd5bdc85c3519303afd98bbcc60c3fad1da4817ec25ec1",
        "ncbi.nt": "cc8bcbb2ff21d3f6c1361c71386c32c9153abc15206240f499c17048aae4acca",
        "sameas_cas.nt": "68592b16ad13d57a4b5b498bc45a67f9016a3c105e4fcce3d97c0feb57094ced",
        "sameas_ncbi.nt": "0a6dbcf1469ca49da6414da1ef1afc014e750b413af967627edcd6755e40ea72",
        "traits.nt": "7adf34640e841477c2f5a93bbe099454b1076b0b626a3f008c00fb5b07772664",
        "units.nt": "c0d555065dc0f5b60bfcb9cb46050ae73e60bff4a8c1effab57c542f194b824d",
    },
    "bench_seed7": {
        "kg.nt": "94999c79aafb4a77723fb39d7a225321c0f45c3dccf4120671616eae7a2d1250",
        "mappings.tsv": "905ee91605c7a75deee4f7bb2ea50b998d81666a1b2b3b6e99b468fc32cc9a70",
        "stats.tsv": "e67a6861ba4a03cfec689f8b6be452faef4f0f4a72f95c6d88933fe390e6f58f",
        "ecotox.nt": "f6108b7c2a9b92e022af8e0b510399b2a66301fe47e71cf75b668358d02e1ba4",
        "ncbi.nt": "baa920f0e2a02750ab7127278a708b7b5bbbf5b6c018156d9aa1544aafd69fc8",
        "sameas_cas.nt": "eb1764c32de65eac964061063b59a935a0df232591ed822099b5f7a3d4f4436e",
        "sameas_ncbi.nt": "0b219772262a0a52173c9c1f54b59ee332f12e659b2929043880a7febcb07559",
        "traits.nt": "7a8273760aaf4f91e082dfa2c3477eacbc8665f474f677eb8c6ef1541fdfcf58",
        "units.nt": "c0d555065dc0f5b60bfcb9cb46050ae73e60bff4a8c1effab57c542f194b824d",
    },
}


# Bench seed 1 with every count times 10 (kingdoms and shares unchanged).
# Alignment there weighs 8,621 form pairs of 3,642 blocked pairs, against
# 242 of 143 at bench scale, so these pin its scores and ties far harder.
EXPECTED_X10 = {
    "kg.nt": "268689ef1a4687f24df22abe2c115685297be5efba467554c8a193996f742f8b",
    "mappings.tsv": "e592e9f39c5ab07552badb73f3640ae737bdb96e48c61c59cfdc623daeb5938b",
    "stats.tsv": "5c64876066e3753da2ee4ecbfe103572cf6642e9bdbc3f347c456c1250518238",
}


def _load_synth():
    spec = importlib.util.spec_from_file_location("_oracle_synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth


def _generate_bench_inputs(seed: int, out: Path) -> Path:
    _load_synth().generate(seed, out, "bench")
    return out / "config.json"


def _update_digests(config: Path, out: Path, names) -> dict[str, str]:
    assert run_cli("--config", str(config), "update", "--out", str(out)) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("inputs", sorted(EXPECTED))
def test_update_output_digests(tmp_path, inputs):
    if inputs == "fixtures":
        config = FIXTURES / "config.json"
    else:
        seed = int(inputs.removeprefix("bench_seed"))
        config = _generate_bench_inputs(seed, tmp_path / "inputs")
    assert _update_digests(config, tmp_path / "out", EXPECTED[inputs]) == EXPECTED[inputs]


def _generate_x10_inputs(out: Path, monkeypatch) -> Path:
    synth = _load_synth()
    x10 = {key: value if key == "kingdoms" or isinstance(value, float) else value * 10
           for key, value in synth.SCALES["bench"].items()}
    monkeypatch.setitem(synth.SCALES, "x10", x10)
    synth.generate(1, out, "x10")
    return out / "config.json"


def test_update_output_digests_x10(tmp_path, monkeypatch):
    config = _generate_x10_inputs(tmp_path / "inputs", monkeypatch)
    assert _update_digests(config, tmp_path / "out", EXPECTED_X10) == EXPECTED_X10


# ``ecokg query`` stdout on the bench seed-1 graph: the three-pattern
# LC50 select anchored on the chemical with the most LC50 results, the
# same select unanchored, and a construct over the same join.
ET = "https://cfpub.epa.gov/ecotox/"
LC50_JOIN = "?t et:compound {chemical} .\n?t et:hasResult ?r .\n?r et:endpoint et:LC50 .\n"
QUERIES = {
    "anchored_select": (
        "select ?r\n" + LC50_JOIN.format(chemical=f"<{ET}chemical/893535541>"),
        "9dac86413486ddef6a909e93326a1aeda23db56bd35196cc522d1bf45ac391c9",
    ),
    "unanchored_select": (
        "select ?c ?r\n" + LC50_JOIN.format(chemical="?c"),
        "bf631ca6afec172b7822cf12b5a7c107d573e1125b97cc44badb827b2185bb44",
    ),
    "construct": (
        "construct\n?c et:lc50Result ?r .\nwhere\n" + LC50_JOIN.format(chemical="?c"),
        "1945fbc23c44981c4555479162eb1f13a4d9b1f95640f2547e58e2d81e8ad38a",
    ),
}


def test_query_output_digests(tmp_path, capsys):
    config = _generate_bench_inputs(1, tmp_path / "inputs")
    out = tmp_path / "out"
    assert run_cli("--config", str(config), "update", "--out", str(out)) == 0
    capsys.readouterr()
    digests = {}
    for name, (text, _) in QUERIES.items():
        query_file = tmp_path / f"{name}.txt"
        query_file.write_text(text, encoding="utf-8")
        assert run_cli("query", "--graph", str(out / "kg.nt"), "--query", str(query_file)) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == {name: digest for name, (_, digest) in QUERIES.items()}


# ``fuzzy_lookup`` on the frozen bench seed-1 graph, for every lookup
# probe of the generator's truth file: per k, the sha256 of the hits
# rendered as ``ecokg lookup`` prints them, probe after probe.
LOOKUP_DIGESTS = {
    1: "b9a4f99612bb7ecc2935bd8ad990684f5d98262276e9f839ef05d83477b59332",
    5: "42f1e4f8997950459f5478ad460a8a645c9946e27748ead1532c90441edd3f59",
}


def _lookup_digest(store, probes, k: int, render) -> str:
    """sha256 of ``render(key, score)`` over the top-k hits of every probe."""
    text = "".join(render(key, score) for probe in probes for key, score in query.fuzzy_lookup(store, probe["name"], k))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bench_lookup_inputs(root: Path, seed: int):
    """Bench seed ``seed``'s frozen ``update`` graph and its truth file's lookup probes."""
    config = _generate_bench_inputs(seed, root / "inputs")
    assert run_cli("--config", str(config), "update", "--out", str(root / "out")) == 0
    store = ntriples.parse((root / "out" / "kg.nt").read_text(encoding="utf-8"), default_prefix_map())
    store.freeze()
    return store, json.loads((root / "inputs" / "truth.json").read_text(encoding="utf-8"))["lookup_probes"]


def test_lookup_output_digests(tmp_path):
    store, probes = _bench_lookup_inputs(tmp_path, 1)
    digests = {k: _lookup_digest(store, probes, k, lambda key, score: f"{key}\t{score:.6f}\n") for k in LOOKUP_DIGESTS}
    assert digests == LOOKUP_DIGESTS


# The same at k = 20 on bench seeds 1 and 7, with each score written by
# ``repr``, so that a change in its last bit fails too.
LOOKUP_REPR_DIGESTS = {
    1: "de7f8c0e4a565486357d57c942421fb41dcda38b383225de7158870fda0cc5a5",
    7: "52a3dfcc18ff73fcc7e774ca32bd636570ba2c68625a1bfb3a9c30724d0dc847",
}


@pytest.mark.parametrize("seed", sorted(LOOKUP_REPR_DIGESTS))
def test_lookup_exact_score_digests(tmp_path, seed):
    store, probes = _bench_lookup_inputs(tmp_path, seed)
    assert _lookup_digest(store, probes, 20, lambda key, score: f"{key}\t{score!r}\n") == LOOKUP_REPR_DIGESTS[seed]


@pytest.fixture(scope="module")
def bench_seed1(tmp_path_factory) -> Path:
    """Bench seed 1's inputs and ``update`` outputs, built once for the tests below."""
    root = tmp_path_factory.mktemp("bench_seed1")
    config = _generate_bench_inputs(1, root / "inputs")
    assert run_cli("--config", str(config), "update", "--out", str(root / "out")) == 0
    return root


def _query_digest(graph: Path, text: str, query_file: Path, capsys, *flags: str) -> str:
    """sha256 of ``ecokg query`` stdout for ``text``."""
    query_file.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("query", "--graph", str(graph), "--query", str(query_file), *flags) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_explain_leaves_query_stdout_unchanged(bench_seed1, tmp_path, capsys):
    graph = bench_seed1 / "out" / "kg.nt"
    for name, (text, digest) in QUERIES.items():
        query_file = tmp_path / f"{name}.txt"
        assert _query_digest(graph, text, query_file, capsys) == digest
        assert _query_digest(graph, text, query_file, capsys, "--explain") == digest


def test_explain_prints_one_plan_line_per_step(bench_seed1, tmp_path, capsys):
    query_file = tmp_path / "anchored.txt"
    query_file.write_text(QUERIES["anchored_select"][0], encoding="utf-8")
    argv = ("query", "--graph", str(bench_seed1 / "out" / "kg.nt"), "--query", str(query_file))
    assert run_cli(*argv) == 0
    assert "plan\t" not in capsys.readouterr().err
    assert run_cli(*argv, "--explain") == 0
    captured = capsys.readouterr()
    plan = [line.split("\t") for line in captured.err.splitlines() if line.startswith("plan\t")]
    # the chemical's tests, their results, and the LC50 ones among those
    assert [fields[1] for fields in plan] == [
        f"?t <{ET}compound> <{ET}chemical/893535541> .",
        f"?t <{ET}hasResult> ?r .",
        f"?r <{ET}endpoint> <{ET}LC50> .",
    ]
    assert [fields[2].startswith("estimate=") for fields in plan] == [True] * 3
    assert plan[-1][3] == f"rows={len(captured.out.splitlines()) - 1}"


# The anchored LC50 select of the query bench for every chemical of bench
# seed 1's truth file (sorted), and the unanchored select of ``QUERIES``
# at ten times the bench counts: the sha256 of the rows as ``ecokg
# query`` prints them, header first, query after query.
LC50_SELECT = "select ?r\n?t et:compound <{chemical}>\n?t et:hasResult ?r\n?r et:endpoint et:LC50\n"
ANCHORED_LC50_DIGEST = "7789ee025d520d21df373180378bd4b1f5f799384ab174e1214a2906b2862a3f"
UNANCHORED_SELECT_X10_DIGEST = "1fe150c162759003c2cca4d358d885cb032e202fc4afedaf160306fe8af85dba"


def test_anchored_lc50_select_digest(bench_seed1):
    prefixes = default_prefix_map()
    store = ntriples.parse((bench_seed1 / "out" / "kg.nt").read_text(encoding="utf-8"), prefixes)
    store.freeze()
    truth = json.loads((bench_seed1 / "inputs" / "truth.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for chemical in sorted(truth["lc50"]):
        parsed = query.parse_query(LC50_SELECT.format(chemical=chemical), prefixes)
        rows = query.run_query(store, parsed)
        assert sorted(row[0].value for row in rows) == sorted(truth["lc50"][chemical])
        lines = ["\t".join(f"?{name}" for name in parsed.projection)]
        lines += ["\t".join(term.ntriples() for term in row) for row in rows]
        digest.update("".join(line + "\n" for line in lines).encode("utf-8"))
    assert digest.hexdigest() == ANCHORED_LC50_DIGEST


def test_unanchored_select_digest_x10(tmp_path, monkeypatch, capsys):
    config = _generate_x10_inputs(tmp_path / "inputs", monkeypatch)
    out = tmp_path / "out"
    assert run_cli("--config", str(config), "update", "--out", str(out)) == 0
    text = QUERIES["unanchored_select"][0]
    assert _query_digest(out / "kg.nt", text, tmp_path / "q.txt", capsys) == UNANCHORED_SELECT_X10_DIGEST
