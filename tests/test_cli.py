"""Command-line behavior: exit codes, error lines, summaries, artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecokg import align, cli, ntriples, units
from ecokg.graph import PrefixMap
from ecokg.ns import ET, NCBI

import helpers
from conftest import FIXTURES, read_summary, run_cli


def cfg_args(*rest):
    return ("--config", str(FIXTURES / "config.json"), *rest)


def error_line(capsys):
    out = capsys.readouterr().out
    line = out.strip().splitlines()[-1]
    fields = line.split("\t")
    assert fields[0] == "error" and len(fields) == 3
    return fields[1], fields[2]


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        code = run_cli(*cfg_args("ingest-ncbi", "--out", str(tmp_path)))
        assert code == 0

    def test_missing_input_is_two(self, tmp_path, capsys):
        code = run_cli(
            *cfg_args(
                "ingest-ncbi",
                "--nodes", str(tmp_path / "absent.dmp"),
                "--out", str(tmp_path),
            )
        )
        assert code == 2
        cls, _ = error_line(capsys)
        assert cls == "FileNotFoundError"

    def test_malformed_input_is_two(self, tmp_path, capsys):
        bad = tmp_path / "nodes.dmp"
        bad.write_text("1\t|\tno-terminator\n")
        code = run_cli(
            *cfg_args("ingest-ncbi", "--nodes", str(bad), "--out", str(tmp_path))
        )
        assert code == 2
        cls, _ = error_line(capsys)
        assert cls == "DmpFormatError"

    def test_validation_failure_is_three(self, tmp_path, capsys):
        dangling = tmp_path / "nodes.dmp"
        dangling.write_text(
            "1\t|\t1\t|\tno rank\t|\t\t|\t8\t|\n"
            "5\t|\t404\t|\tspecies\t|\t\t|\t1\t|\n"
        )
        code = run_cli(
            *cfg_args("ingest-ncbi", "--nodes", str(dangling), "--out", str(tmp_path))
        )
        assert code == 3
        cls, msg = error_line(capsys)
        assert cls == "DanglingParentError"
        assert "404" in msg

    def test_internal_failure_is_four(self, tmp_path, capsys, monkeypatch):
        def explode(args, cfg):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli._COMMANDS, "units", explode)
        code = run_cli(*cfg_args("units", "--out", str(tmp_path)))
        assert code == 4
        cls, msg = error_line(capsys)
        assert cls == "RuntimeError" and msg == "wires crossed"

    def test_bad_config_json_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        code = run_cli("--config", str(cfg), "units", "--out", str(tmp_path))
        assert code == 2
        cls, _ = error_line(capsys)
        assert cls == "JSONDecodeError"

    def test_unknown_entity_is_three(self, pipeline_dir, capsys):
        code = run_cli(
            *cfg_args(
                "lineage",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--taxon", "et:taxon/does-not-exist",
            )
        )
        assert code == 3
        cls, _ = error_line(capsys)
        assert cls == "UnknownEntityError"

    def test_query_syntax_error_is_two(self, pipeline_dir, tmp_path, capsys):
        bad = tmp_path / "q.rq"
        bad.write_text("?s nosuchprefix:p ?o .\n")
        code = run_cli(
            *cfg_args("query", "--graph", str(pipeline_dir / "kg.nt"), "--query", str(bad))
        )
        assert code == 2
        cls, _ = error_line(capsys)
        assert cls == "QuerySyntaxError"


class TestSummaries:
    def test_directory_summary_shape(self, tmp_path):
        assert run_cli(*cfg_args("units", "--out", str(tmp_path))) == 0
        summary = read_summary(tmp_path, "units")
        assert summary["command"] == "units"
        assert summary["outputs"] == ["units.nt"]
        assert summary["counts"]["units"] == 5
        assert isinstance(summary["seconds"], float)

    def test_file_summary_beside_output(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "hits.tsv"
        code = run_cli(
            *cfg_args(
                "lookup",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--name", "daphnia magna",
                "--out", str(out),
            )
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "hits.tsv.summary.json").read_text())
        assert sidecar["command"] == "lookup"
        assert sidecar["outputs"] == [str(out)]

    def test_update_summary_collects_steps(self, pipeline_dir):
        summary = read_summary(pipeline_dir, "update")
        for step in ("ingest-ncbi", "units", "ingest-ecotox", "ingest-traits",
                     "align", "bridge-ncbi", "bridge-cas", "export", "checks", "stats"):
            assert step in summary["counts"], step
        assert summary["counts"]["checks"] == {"cycles": 0, "disjointness_violations": 0}


class TestPipelineArtifacts:
    def test_parts_and_merge_present(self, pipeline_dir):
        for name in ("ncbi.nt", "units.nt", "ecotox.nt", "traits.nt",
                     "sameas_ncbi.nt", "sameas_cas.nt", "mappings.tsv",
                     "kg.nt", "stats.tsv", "stats.txt"):
            assert (pipeline_dir / name).exists(), name

    def test_kg_contains_every_part(self, pipeline_dir, prefixes):
        kg = ntriples.parse((pipeline_dir / "kg.nt").read_text(), prefixes)
        for name in ("ncbi.nt", "units.nt", "ecotox.nt", "traits.nt",
                     "sameas_ncbi.nt", "sameas_cas.nt"):
            part = ntriples.parse((pipeline_dir / name).read_text(), prefixes)
            for t in part:
                assert t in kg, f"{name}: {t.ntriples()}"

    def test_mappings_enter_kg_as_sameas(self, pipeline_dir, prefixes):
        kg = ntriples.parse((pipeline_dir / "kg.nt").read_text(), prefixes)
        mappings = align.read_mappings((pipeline_dir / "mappings.tsv").read_text())
        from ecokg.graph import Triple, iri
        from ecokg.ns import OWL_SAMEAS

        for m in mappings:
            assert Triple(iri(m.source), OWL_SAMEAS, iri(m.target)) in kg

    def test_update_twice_byte_identical(self, tmp_path):
        out = tmp_path / "round"
        out.mkdir()

        def snapshot():
            return {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if not p.name.endswith(".summary.json")
            }

        assert run_cli(*cfg_args("update", "--out", str(out))) == 0
        first = snapshot()
        assert run_cli(*cfg_args("update", "--out", str(out))) == 0
        assert snapshot() == first
        assert len(first) >= 10


class TestUpdateInMemory:
    PARTS = ["ncbi.nt", "units.nt", "ecotox.nt", "traits.nt", "sameas_ncbi.nt", "sameas_cas.nt"]

    def test_update_reads_nothing_back_and_writes_each_part_once(self, tmp_path, monkeypatch):
        parsed, written = [], []
        real_parse, real_write = ntriples.parse, ntriples.write_file

        def counting_parse(text, prefixes=None):
            parsed.append(len(text))
            return real_parse(text, prefixes)

        def counting_write(store, path):
            written.append(Path(path).name)
            real_write(store, path)

        monkeypatch.setattr(ntriples, "parse", counting_parse)
        monkeypatch.setattr(ntriples, "write_file", counting_write)
        assert run_cli(*cfg_args("update", "--out", str(tmp_path))) == 0
        assert parsed == []
        assert sorted(written) == sorted(self.PARTS + ["kg.nt"])

    def test_update_merges_only_the_parts_it_built(self, tmp_path):
        stray = (
            "<http://example.org/stray> <http://www.w3.org/2002/07/owl#sameAs> "
            "<http://example.org/other> .\n"
        )
        (tmp_path / "sameas_verbatim.nt").write_text(stray)
        assert run_cli(*cfg_args("update", "--out", str(tmp_path))) == 0
        assert stray not in (tmp_path / "kg.nt").read_text()
        # ecotox.nt is the largest part, so it is the merge base; the
        # parts are disjoint, so every part counts its own size
        assert read_summary(tmp_path, "update")["counts"]["export"] == {
            "ncbi.nt": 93, "units.nt": 40, "ecotox.nt": 200, "traits.nt": 7,
            "sameas_ncbi.nt": 1, "sameas_cas.nt": 1, "mappings_sameas": 11,
            "total_triples": 353,
        }
        # the standalone export still merges every part file it finds
        assert run_cli(*cfg_args("export", "--out", str(tmp_path))) == 0
        assert stray in (tmp_path / "kg.nt").read_text()

    def test_align_source_config_key_still_read(self, tmp_path):
        source = tmp_path / "source.nt"
        source.write_text(
            f'<{ET}taxon/probe> <http://www.w3.org/2000/01/rdf-schema#label> "Daphnia magna" .\n'
        )
        config = json.loads((FIXTURES / "config.json").read_text())
        config = {k: str(FIXTURES / v) if isinstance(v, str) else v for k, v in config.items()}
        config["align_source"] = str(source)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        assert read_summary(out, "update")["counts"]["align"]["source_entities"] == 1
        rows = [line.split("\t")[:2] for line in (out / "mappings.tsv").read_text().splitlines()]
        assert rows == [[f"{ET}taxon/probe", f"{NCBI}taxon/35525"]]

    def test_failed_out_write_keeps_previous_file(self, pipeline_dir, tmp_path, monkeypatch):
        out = tmp_path / "hits.tsv"
        argv = cfg_args("lookup", "--graph", str(pipeline_dir / "kg.nt"),
                        "--name", "daphnia magna", "--out", str(out))
        assert run_cli(*argv) == 0
        previous = out.read_text()
        helpers.fail_writes_in(monkeypatch, tmp_path)
        assert run_cli(*argv) == 2
        monkeypatch.undo()
        assert out.read_text() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hits.tsv", "hits.tsv.summary.json"]


class TestUpdateRegressions:
    def copy_config(self, tmp_path) -> Path:
        config = json.loads((FIXTURES / "config.json").read_text())
        config = {k: str(FIXTURES / v) if isinstance(v, str) else v for k, v in config.items()}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def with_species_rows(self, tmp_path, rows: str) -> Path:
        species = tmp_path / "species.txt"
        species.write_text((FIXTURES / "ecotox" / "species.txt").read_text() + rows)
        config_path = self.copy_config(tmp_path)
        config = json.loads(config_path.read_text())
        config["species"] = str(species)
        config_path.write_text(json.dumps(config))
        return config_path

    def test_update_summary_counts_lineage_merges(self, tmp_path, pipeline_dir):
        assert read_summary(pipeline_dir, "update")["counts"]["ingest-ecotox"]["lineage_merges"] == 0
        config_path = self.with_species_rows(
            tmp_path,
            "4243|Hydra|Hydra vulgaris|Animalia|Cnidaria|Hydrozoa|Anthoathecata|Hydridae|Hydra|vulgaris|Invertebrates\n"
            "4244|Beet|Beta vulgaris|Plantae|Tracheophyta|Magnoliopsida|Caryophyllales|Amaranthaceae|Beta|vulgaris|Plants\n",
        )
        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        counts = read_summary(out, "update")["counts"]["ingest-ecotox"]
        assert counts["lineage_merges"] == 1
        assert counts["species_rows"] == 9

    def test_tautonym_species_builds(self, tmp_path):
        # Genus Bufo and species bufo share the node et:taxon/bufo; a
        # subClassOf self-loop there used to fail the cycle scan (exit 3).
        config_path = self.with_species_rows(
            tmp_path,
            "4242|Common Toad|Bufo bufo|Animalia|Chordata|Amphibia|Anura|Bufonidae|Bufo|bufo|Amphibians\n",
        )
        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        kg = (out / "kg.nt").read_text()
        bufo = f"<{ET}taxon/bufo>"
        assert f"<{ET}taxon/4242> <http://www.w3.org/2000/01/rdf-schema#subClassOf> {bufo} .\n" in kg
        assert f"{bufo} <http://www.w3.org/2000/01/rdf-schema#subClassOf> {bufo}" not in kg

    def test_update_loads_units_registry_once(self, tmp_path, monkeypatch):
        calls = []
        real = units.load_registry

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(units, "load_registry", counting)
        assert run_cli(*cfg_args("update", "--out", str(tmp_path / "update"))) == 0
        assert len(calls) == 1
        # the standalone stage still reads units.tsv itself
        assert run_cli(*cfg_args("ingest-ecotox", "--out", str(tmp_path / "ecotox"))) == 0
        assert len(calls) == 2
        assert (tmp_path / "ecotox" / "ecotox.nt").read_bytes() == (
            tmp_path / "update" / "ecotox.nt"
        ).read_bytes()

    def test_update_summary_reports_alignment_funnel(self, pipeline_dir):
        counts = read_summary(pipeline_dir, "update")["counts"]["align"]
        for key in ("source_entities", "target_entities", "mappings", "blocked_pairs",
                    "form_pairs", "length_pruned", "scored", "ties_broken"):
            assert isinstance(counts[key], int), key
        assert counts["form_pairs"] == counts["length_pruned"] + counts["scored"]
        assert counts["form_pairs"] >= counts["blocked_pairs"] >= counts["mappings"]
        mappings = align.read_mappings((pipeline_dir / "mappings.tsv").read_text())
        assert counts["mappings"] == len(mappings)


class TestAlignmentCommands:
    def test_eval_mappings_matches_library(self, pipeline_dir, capsys):
        code = run_cli(
            *cfg_args(
                "eval-mappings",
                "--mappings", str(pipeline_dir / "mappings.tsv"),
                "--reference", str(FIXTURES / "mappings" / "reference.tsv"),
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        computed = align.read_mappings((pipeline_dir / "mappings.tsv").read_text())
        reference = align.read_mappings(
            (FIXTURES / "mappings" / "reference.tsv").read_text()
        )
        assert float(lines["recall"]) == pytest.approx(
            align.evaluate(computed, reference), abs=1e-6
        )
        assert int(lines["disagreement"]) == align.disagreement(computed, reference)

    def test_reference_pairs_all_recovered(self, pipeline_dir):
        computed = align.read_mappings((pipeline_dir / "mappings.tsv").read_text())
        reference = align.read_mappings(
            (FIXTURES / "mappings" / "reference.tsv").read_text()
        )
        assert align.evaluate(computed, reference) == 1.0

    def test_threshold_flag_overrides_config(self, tmp_path, pipeline_dir):
        # an impossible threshold yields zero mappings
        code = run_cli(
            *cfg_args(
                "align",
                "--source", str(pipeline_dir / "ecotox.nt"),
                "--target", str(pipeline_dir / "ncbi.nt"),
                "--threshold", "1.01",
                "--out", str(tmp_path),
            )
        )
        assert code == 0
        body = (tmp_path / "mappings.tsv").read_text()
        rows = [ln for ln in body.splitlines() if ln and not ln.startswith("#")]
        assert rows == []


class TestBridgeExport:
    def test_bridge_emits_expected_link(self, tmp_path, prefixes):
        code = run_cli(
            *cfg_args(
                "bridge",
                "--pairs", str(FIXTURES / "pairs" / "wd_ncbi.tsv"),
                "--rewrite", "ncbi",
                "--out", str(tmp_path),
            )
        )
        assert code == 0
        body = (tmp_path / "sameas_ncbi.nt").read_text()
        assert (
            "<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/311871> "
            "<http://www.w3.org/2002/07/owl#sameAs> "
            "<http://www.wikidata.org/entity/Q13828695> ." in body
        )

    def test_export_explicit_graphs(self, pipeline_dir, tmp_path):
        code = run_cli(
            *cfg_args(
                "export",
                "--graphs",
                str(pipeline_dir / "units.nt"),
                str(pipeline_dir / "traits.nt"),
                "--out", str(tmp_path),
            )
        )
        assert code == 0
        summary = read_summary(tmp_path, "export")
        merged_total = summary["counts"]["total_triples"]
        a = len((pipeline_dir / "units.nt").read_text().splitlines())
        b = len((pipeline_dir / "traits.nt").read_text().splitlines())
        assert merged_total == a + b  # disjoint parts, no overlap

    def test_export_merges_into_the_largest_part(self, tmp_path):
        def line(i):
            return f"<http://example.org/s{i}> <http://example.org/p> <http://example.org/o{i}> .\n"

        graphs = {"small.nt": [0, 1, 2], "large.nt": [1, 2, 3, 4, 5], "tail.nt": [5, 6]}
        for name, ids in graphs.items():
            (tmp_path / name).write_text("".join(line(i) for i in ids))
        out = tmp_path / "out"
        code = run_cli(*cfg_args("export", "--graphs", *(str(tmp_path / n) for n in graphs),
                                 "--out", str(out)))
        assert code == 0
        assert (out / "kg.nt").read_text() == "".join(sorted(line(i) for i in range(7)))
        # the base counts its size before any other part goes in; every
        # other part, in the given order, counts the triples it adds
        assert read_summary(out, "export")["counts"] == {
            "small.nt": 1, "large.nt": 5, "tail.nt": 1, "total_triples": 7,
        }

    def test_export_nothing_found_is_input_error(self, tmp_path, capsys):
        code = run_cli(*cfg_args("export", "--out", str(tmp_path)))
        assert code == 2
        cls, _ = error_line(capsys)
        assert cls == "ValueError"


class TestQueryCommands:
    def test_select_tsv(self, pipeline_dir, tmp_path, capsys):
        q = tmp_path / "tests.rq"
        q.write_text("select ?t\n?t a et:Test .\n")
        code = run_cli(
            *cfg_args("query", "--graph", str(pipeline_dir / "kg.nt"), "--query", str(q))
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "?t"
        assert len(lines) == 4  # header + three experiments

    def test_construct_ntriples(self, pipeline_dir, tmp_path, capsys):
        q = tmp_path / "c.rq"
        q.write_text(
            "construct\n?s <http://example.org/tested> ?c .\nwhere\n"
            "?t et:species ?s .\n?t et:compound ?c .\n"
        )
        code = run_cli(
            *cfg_args("query", "--graph", str(pipeline_dir / "kg.nt"), "--query", str(q))
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            assert line.endswith(" .")
            assert "<http://example.org/tested>" in line

    def test_path_command_sorted_pairs(self, pipeline_dir, capsys):
        code = run_cli(
            *cfg_args(
                "path",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--expr", "rdfs:subClassOf{1,2}",
                "--start", "ncbi:taxon/687295",
            )
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines == sorted(lines)
        assert all(ln.split("\t")[0].endswith("taxon/687295>") for ln in lines)

    def test_lookup_ranked_output(self, pipeline_dir, capsys):
        code = run_cli(
            *cfg_args(
                "lookup",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--name", "daphnia magna",
                "-k", "3",
            )
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        first_iri, first_score = lines[0].split("\t")
        assert first_iri == "https://www.ncbi.nlm.nih.gov/taxonomy/taxon/35525"
        assert first_score == "1.000000"
        scores = [float(ln.split("\t")[1]) for ln in lines]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_lookup_k_below_one_is_two(self, pipeline_dir, capsys, monkeypatch, k):
        parsed = []
        real_parse = ntriples.parse

        def counting_parse(text, prefixes=None):
            parsed.append(len(text))
            return real_parse(text, prefixes)

        monkeypatch.setattr(ntriples, "parse", counting_parse)
        code = run_cli(
            *cfg_args("lookup", "--graph", str(pipeline_dir / "kg.nt"),
                      "--name", "daphnia magna", "-k", k)
        )
        assert code == 2
        assert error_line(capsys) == ("ValueError", f"k must be at least 1, got {k}")
        assert parsed == []  # rejected before the graph is read

    def test_lineage_compacted(self, pipeline_dir, capsys):
        code = run_cli(
            *cfg_args(
                "lineage",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--taxon", "et:taxon/34010",
            )
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "et:taxon/hirta"
        assert lines[-1] == "et:taxon/animalia"


class TestStatsCommand:
    def test_coverage_needs_all_three_counts(self, pipeline_dir, tmp_path, capsys):
        code = run_cli(
            *cfg_args(
                "stats",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--tests", "3", "--compounds", "3",
                "--out", str(tmp_path),
            )
        )
        assert code == 0
        assert "coverage" not in (tmp_path / "stats.tsv").read_text()

    def test_coverage_row_when_given(self, pipeline_dir, tmp_path):
        code = run_cli(
            *cfg_args(
                "stats",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--tests", "940000", "--compounds", "12000", "--species", "13000",
                "--out", str(tmp_path),
            )
        )
        assert code == 0
        body = (tmp_path / "stats.tsv").read_text()
        assert "coverage_percent\t0.6026" in body

    def test_report_files_agree_with_stdout(self, pipeline_dir, tmp_path, capsys):
        code = run_cli(
            *cfg_args(
                "stats",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--out", str(tmp_path),
            )
        )
        assert code == 0
        assert capsys.readouterr().out == (tmp_path / "stats.txt").read_text()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "ecokg", "--help"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ecokg")
