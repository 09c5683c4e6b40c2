"""Tests for the benchmark's generator, sidecar and metric helpers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import synth

ROOT = Path(__file__).resolve().parent.parent
_SPLITTERS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r"


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _dmp(path: Path) -> list[list[str]]:
    return [line[:-2].split("\t|\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _table(path: Path) -> list[dict[str, str]]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return [dict(zip(header.split("|"), row.split("|"))) for row in rows]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    truth = synth.generate(synth.DEV_SEED, out, "test")
    return out, truth


def test_same_seed_same_bytes(tmp_path):
    synth.generate(3, tmp_path / "a", "test")
    synth.generate(3, tmp_path / "b", "test")
    synth.generate(4, tmp_path / "c", "test")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_output_does_not_depend_on_hash_seed(tmp_path):
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "synth.py"), "--seed", "5", "--scale", "test",
             "--out", str(tmp_path / hash_seed)],
            check=True, env=env, capture_output=True,
        )
    assert _files(tmp_path / "0") == _files(tmp_path / "1")


def test_no_line_separators_but_newline(generated):
    out, _ = generated
    for name, data in _files(out).items():
        text = data.decode("utf-8")
        assert not any(ch in text for ch in _SPLITTERS), name


def test_species_pairs_match_the_dumps(generated):
    out, truth = generated
    nodes = {int(row[0]): row for row in _dmp(out / "ncbi" / "nodes.dmp")}
    scientific = {int(row[0]): row[1] for row in _dmp(out / "ncbi" / "names.dmp")
                  if row[3] == "scientific name"}
    species = {row["species_number"]: row for row in _table(out / "ecotox" / "species.txt")}
    assert len(truth["species_pairs"]) == len(species)
    for et_iri, ncbi_iri in truth["species_pairs"]:
        row = species[et_iri.rsplit("/", 1)[1]]
        taxon = int(ncbi_iri.rsplit("/", 1)[1])
        assert nodes[taxon][2] == "species"
        assert scientific[taxon] == f"{row['genus']} {row['species']}"


def test_ancestor_chains_follow_nodes(generated):
    out, truth = generated
    parent = {int(row[0]): int(row[1]) for row in _dmp(out / "ncbi" / "nodes.dmp")}
    for leaf, chain in truth["ancestors"].items():
        node = int(leaf.rsplit("/", 1)[1])
        for ancestor in chain:
            node = parent[node]
            assert ancestor == f"{synth.NCBI}taxon/{node}"
        assert node == 1 and parent[1] == 1


def test_lc50_sets_match_the_tables(generated):
    out, truth = generated
    test_cas = {row["test_id"]: row["test_cas"] for row in _table(out / "ecotox" / "tests.txt")}
    expected: dict[str, list[str]] = {iri: [] for iri in truth["lc50"]}
    for row in _table(out / "ecotox" / "results.txt"):
        if row["endpoint"].rstrip("/*") == "LC50":
            chemical = f"{synth.ET}chemical/{test_cas[row['test_id']].replace('-', '')}"
            expected[chemical].append(f"{synth.ET}result/{row['result_id']}")
    assert {k: sorted(v) for k, v in expected.items()} == truth["lc50"]
    assert any(truth["lc50"].values())
    tests = {iri: 0 for iri in truth["lc50"]}
    for cas in test_cas.values():
        tests[f"{synth.ET}chemical/{cas.replace('-', '')}"] += 1
    assert tests == truth["tests"]


def test_cas_numbers_mostly_valid(generated):
    out, _ = generated
    rows = _table(out / "ecotox" / "chemicals.txt")
    valid = [synth.cas_check_digit(r["cas_number"][:-2].replace("-", "")) == int(r["cas_number"][-1])
             for r in rows]
    assert sum(valid) >= 0.9 * len(rows)
    pairs = (out / "pairs_cas.tsv").read_text(encoding="utf-8").splitlines()
    assert [p.split("\t")[0] for p in pairs] == [r["cas_number"] for r in rows]


def test_lineage_keys_distinct_across_ranks(generated):
    out, _ = generated
    keys: dict[str, str] = {}
    for row in _table(out / "ecotox" / "species.txt"):
        for level in synth.ECOTOX_LEVELS:
            key = synth._key(row[level])
            assert keys.setdefault(key, level) == level, (key, level)


def test_pair_table_covers_every_taxon(generated):
    out, _ = generated
    taxa = [row[0] for row in _dmp(out / "ncbi" / "nodes.dmp")]
    pairs = (out / "pairs_ncbi.tsv").read_text(encoding="utf-8").splitlines()
    assert [p.split("\t")[0] for p in pairs] == taxa


def test_lookup_probes_name_known_entities(generated):
    _, truth = generated
    leaves = {et for et, _ in truth["species_pairs"]}
    for probe in truth["lookup_probes"]:
        assert probe["expected"][0] in leaves
    assert {p["noisy"] for p in truth["lookup_probes"]} == {True, False}
    assert {p["kind"] for p in truth["lookup_probes"]} == {"latin", "common"}


def test_op_sequence_blocks_use_each_input_once(generated):
    _, truth = generated
    ops, expected = run.op_sequence(9, truth)
    assert len(ops) == len(expected) and len(ops) % 4 == 0
    for i in range(0, len(ops), 4):
        assert sorted(kind for kind, _ in ops[i:i + 4]) == sorted(run.OP_KINDS)
    for kind in run.OP_KINDS:
        args = [arg for k, arg in ops if k == kind]
        assert len(args) == len(set(args))
    assert run.op_sequence(9, truth) == (ops, expected)


def _measured_costs(seed: int, out: Path) -> tuple[list, list]:
    """Sorted test counts of the measured chemicals and lengths of the measured probes."""
    truth = synth.generate(seed, out, run.SCALE)
    ops, _ = run.op_sequence(seed, truth)
    measured = ops[run.SLICES * len(run.OP_KINDS):]
    return (sorted(truth["tests"][arg] for kind, arg in measured if kind == "select"),
            sorted(len(arg) for kind, arg in measured if kind == "lookup"))


def test_measured_inputs_cost_the_same_for_every_seed(tmp_path):
    wanted = sorted(n for n, count in run.LOOKUP_LENGTHS.items() for _ in range(count))
    assert len(wanted) == run.SLICES * run.SLICE_BLOCKS
    reference, _ = _measured_costs(synth.DEV_SEED, tmp_path / "dev")
    for seed in (synth.HELD_OUT_SEED, 101, 102):
        tests, lengths = _measured_costs(seed, tmp_path / str(seed))
        assert tests == reference
        assert len(lengths) == len(wanted)
        # the pool may lack a rare tail length; the median and p90 must match
        assert lengths[49] == wanted[49] and lengths[89] == wanted[89]
        assert sum(abs(a - b) for a, b in zip(lengths, wanted)) <= 10


@pytest.mark.parametrize("seed", [synth.DEV_SEED, synth.HELD_OUT_SEED, 101])
def test_bench_sequence_holds_every_slice(tmp_path, seed):
    truth = synth.generate(seed, tmp_path, run.SCALE)
    ops, _ = run.op_sequence(seed, truth)
    plan = run.slice_plan(len(ops) // len(run.OP_KINDS), run.SLICE_BLOCKS)
    used = [w for w, _ in plan]
    for _, first in plan:
        used += range(first, first + run.SLICE_BLOCKS)
    assert len(used) == len(set(used)) == run.SLICES * (1 + run.SLICE_BLOCKS)
    assert max(used) < len(ops) // len(run.OP_KINDS)


def test_slice_plan_refuses_a_short_sequence():
    assert run.slice_plan(run.SLICES * 3, 2)[-1] == (run.SLICES - 1, run.SLICES + 2 * (run.SLICES - 1))
    with pytest.raises(ValueError):
        run.slice_plan(run.SLICES * 3 - 1, 2)


def test_session_refuses_to_read_past_the_sequence(tmp_path):
    ops = [["path", "x"], ["lineage", "x"], ["select", "x"], ["lookup", "x"]] * 3
    for warmup, slices in ((3, []), (0, [[2, ["path"]]]), (0, [[0, run.OP_KINDS], [2, ["lookup"]]])):
        job = {"graph": str(tmp_path / "missing.nt"), "ops": ops, "warmup_block": warmup,
               "blocks": 2, "slices": slices, "trace": False}
        (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "query_session.py"),
             str(tmp_path / "job.json"), str(tmp_path / "result.json")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 0 and "reads past" in proc.stderr
        assert not (tmp_path / "result.json").exists()


def test_answer_checks():
    assert run.answer_ok("lookup", ["a", "b"], ["x", "b"])
    assert not run.answer_ok("lookup", ["a"], ["x"])
    assert run.answer_ok("select", ["b", "a"], ["a", "b"])
    assert not run.answer_ok("select", ["a", "a"], ["a"])
    assert not run.answer_ok("lineage", "KeyError: boom", ["a"])


def test_self_time_subtracts_direct_children():
    spans = [[0, None, "r", "cli.update", 0.0, 10.0],
             [1, 0, "r", "cli.stage.align", 1.0, 4.0],
             [2, 1, "r", "ntriples.parse", 1.5, 3.5],
             [3, 0, "r", "ntriples.parse", 5.0, 6.0]]
    # ids restart in every process
    total, self_time, calls = run.summarize_spans([{"spans": spans}, {"spans": spans}])
    assert total["cli.update"] == 20.0 and calls["ntriples.parse"] == 4
    assert self_time["cli.update"] == 2 * (10.0 - 3.0 - 1.0)
    assert self_time["cli.stage.align"] == 2 * 1.0
    assert run.update_self_time([{"spans": spans}]) == 7.0
    assert run.p90(list(range(1, 101))) == 90


def test_tracer_restores_functions_and_records_spans():
    sys.path.insert(0, str(ROOT / "src"))
    from ecokg import ntriples
    from ecokg.graph import TripleStore
    import tracer

    original_parse, original_add = ntriples.parse, TripleStore.add
    t = tracer.Tracer()
    t.install()
    try:
        store = ntriples.parse("<http://a> <http://p> <http://b> .\n")
        assert len(store) == 1
    finally:
        t.uninstall()
    assert ntriples.parse is original_parse and TripleStore.add is original_add
    assert [span[3] for span in t.spans] == ["ntriples.parse"]
    assert t.counts["graph.add.calls"] == 1 and t.counts["ntriples.parse.lines"] == 1


def test_speed_factor_averages_the_bracketing_samples():
    import speed

    s = speed.Speed()
    s.times, s.factors = [1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 0.9, 0.6]
    assert s.factor(1.5, 1.8) == pytest.approx(0.75)  # samples at 1.0 and 2.0
    assert s.factor(1.5, 3.5) == pytest.approx(0.75)  # 1.0 through 4.0
    assert s.factor(2.0, 3.0) == pytest.approx(0.95)  # a sample at an end brackets it
    for start, end in ((0.5, 1.5), (3.5, 4.5)):
        with pytest.raises(ValueError):
            s.factor(start, end)
    s = speed.Speed()
    s.sample()
    s.sample()
    assert len(s.factors) == 2 and all(f > 0 for f in s.factors) and s.spent > 0
