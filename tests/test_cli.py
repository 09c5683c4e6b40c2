"""Command-line behavior: exit codes, error lines, summaries, artifacts."""

import argparse
import contextlib
import io
import json
import logging
import os
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecokg import align, checks, cli, dmp, ecotox, graph, idmap, ntriples, query, stats, traits, units
from ecokg.graph import FrozenStoreError, PrefixMap, UnknownPrefixError
from ecokg.ns import ET, NCBI, RDF_TYPE, default_prefix_map

import helpers
from conftest import FIXTURES, read_summary, run_cli
from test_output_oracle import _generate_bench_inputs


# Terms whose texts share a prefix, in each kind a term can take
PREFIX_SUBJECTS = ("<http://x.org/a>", "<http://x.org/a/b>", "_:b", "_:b1")
PREFIX_OBJECTS = PREFIX_SUBJECTS + ('"x"', '"x"@en', '"x"^^<http://x.org/dt>')
PREFIX_PREDICATES = ("<http://x.org/p>", "<http://x.org/q>")
PREFIX_PATHS = (
    "<http://x.org/p>",
    "^<http://x.org/p>",
    "<http://x.org/p>|<http://x.org/q>",
    "<http://x.org/p>/^<http://x.org/q>",
    "(<http://x.org/p>|^<http://x.org/q>){0,2}",
)


def cfg_args(*rest):
    return ("--config", str(FIXTURES / "config.json"), *rest)


def error_line(capsys):
    out = capsys.readouterr().out
    line = out.strip().splitlines()[-1]
    fields = line.split("\t")
    assert fields[0] == "error" and len(fields) == 3
    return fields[1], fields[2]


# One instance of every error class that exits 3: the input is well
# formed but fails a semantic check.
VALIDATION_FAILURES = [
    dmp.DanglingParentError([404]),
    dmp.DuplicateDivisionError("division 3 defined twice"),
    graph.DuplicateKeyError("tests: duplicate test_id: ['001']"),
    ecotox.EmptyLineageError("no lineage level"),
    ecotox.UnresolvedParentError("no parent node"),
    ecotox.OrphanResultError(["t9"]),
    ecotox.UnknownReferenceError(["species 9"]),
    traits.UnresolvedGlossaryError(["size"]),
    units.DuplicateUnitError("mg/L twice"),
    units.DimensionMismatchError("mass vs length"),
    align.EmptyReferenceError("no reference mappings"),
    checks.IntegrityError("1 cycles"),
    idmap.InvalidCasError("invalid CAS number"),
    idmap.InvalidNcbiIdError("invalid NCBI taxon id"),
    query.UnboundProjectionError("?x not in pattern"),
    query.UnboundTemplateError("?y not in pattern"),
    query.UnknownEntityError("unknown taxon"),
    stats.EmptyGraphError("empty graph"),
    FrozenStoreError("store is frozen"),
]

# ... and of every error class that exits 2: unreadable or malformed input,
# including a plain ValueError or OSError.
INPUT_FAILURES = [
    OSError("disk gone"),
    FileNotFoundError(2, "No such file or directory"),
    json.JSONDecodeError("Expecting value", "{", 1),
    ntriples.NTriplesParseError("missing object", 3),
    dmp.DmpFormatError("nodes.dmp line 1: missing terminator"),
    query.PathSyntaxError("unbalanced parenthesis"),
    query.QuerySyntaxError("missing object"),
    UnknownPrefixError("unknown prefix: 'zz'"),
    ValueError("bad value"),
]


def exit_code_raising(exc, tmp_path, monkeypatch) -> int:
    """Exit code of ``main`` when a command raises ``exc``."""
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "units", fail)
    return run_cli(*cfg_args("units", "--out", str(tmp_path)))


class TestExitCodes:
    @pytest.mark.parametrize("exc", VALIDATION_FAILURES, ids=lambda exc: type(exc).__name__)
    def test_validation_error_classes_are_three(self, tmp_path, capsys, monkeypatch, exc):
        assert exit_code_raising(exc, tmp_path, monkeypatch) == 3
        assert error_line(capsys)[0] == type(exc).__name__

    @pytest.mark.parametrize("exc", INPUT_FAILURES, ids=lambda exc: type(exc).__name__)
    def test_input_error_classes_are_two(self, tmp_path, capsys, monkeypatch, exc):
        assert exit_code_raising(exc, tmp_path, monkeypatch) == 2
        assert error_line(capsys)[0] == type(exc).__name__

    def test_any_validation_error_subclass_is_three(self, tmp_path, capsys, monkeypatch):
        class NewCheckError(graph.ValidationError):
            pass

        assert exit_code_raising(NewCheckError("new check failed"), tmp_path, monkeypatch) == 3
        assert error_line(capsys) == ("NewCheckError", "new check failed")

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

    @pytest.mark.parametrize("argv", [
        ("ingest-ncbi", "--nodes"),
        ("units", "--units"),
        ("ingest-ecotox", "--species"),
        ("ingest-traits", "--glossary"),
        ("bridge", "--rewrite", "ncbi", "--pairs"),
        ("export", "--graphs"),
    ], ids=lambda argv: argv[0])
    def test_failed_stage_makes_no_output_directory(self, tmp_path, capsys, argv):
        # each stage made --out before it read its input
        out = tmp_path / "out"
        assert run_cli(*cfg_args(*argv, str(tmp_path / "absent"), "--out", str(out))) == 2
        assert error_line(capsys)[0] == "FileNotFoundError"
        assert not out.exists()

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
        def explode(args):
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

    def test_config_that_is_no_object_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[]")
        assert run_cli("--config", str(cfg), "units", "--out", str(tmp_path)) == 2
        assert error_line(capsys) == ("ValueError", "config must be a JSON object")

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

    @pytest.mark.parametrize(("text", "message"), [
        ("?s nosuchprefix:p ?o .\n", "line 1: unknown prefix: 'nosuchprefix'"),
        ("?s <a b> ?o .\n", "line 1: invalid IRI: 'a b'"),
    ], ids=["unknown-prefix", "invalid-iri"])
    def test_query_syntax_error_is_two(self, pipeline_dir, tmp_path, capsys, text, message):
        bad = tmp_path / "q.rq"
        bad.write_text(text)
        code = run_cli(
            *cfg_args("query", "--graph", str(pipeline_dir / "kg.nt"), "--query", str(bad))
        )
        assert code == 2
        assert error_line(capsys) == ("QuerySyntaxError", message)

    @pytest.mark.parametrize("expr", [
        "(" * 2000 + "rdfs:subClassOf" + ")" * 2000,
        "^" * 2000 + "rdfs:subClassOf",
        "/".join(["rdfs:subClassOf"] * 3000),
    ], ids=["groups", "inverses", "sequence"])
    def test_too_deep_path_is_two(self, pipeline_dir, capsys, expr):
        code = run_cli(
            *cfg_args("path", "--graph", str(pipeline_dir / "kg.nt"), "--expr", expr)
        )
        assert code == 2
        cls, message = error_line(capsys)
        assert cls == "PathSyntaxError"
        assert message.endswith(f"path nested more than {query.MAX_PATH_DEPTH} levels deep")


# Every subcommand's option strings (besides -h/--help).
CLI_OPTIONS = {
    "ingest-ncbi": {"--prefixes", "--out", "--nodes", "--names", "--divisions"},
    "ingest-ecotox": {"--prefixes", "--out", "--species", "--chemicals", "--tests", "--results", "--units"},
    "ingest-traits": {"--prefixes", "--out", "--traits", "--glossary"},
    "units": {"--prefixes", "--out", "--units"},
    "align": {"--prefixes", "--out", "--source", "--target", "--source-ns", "--target-ns",
              "--threshold", "--stopwords"},
    "eval-mappings": {"--prefixes", "--out", "--mappings", "--reference"},
    "bridge": {"--prefixes", "--out", "--pairs", "--rewrite"},
    "export": {"--prefixes", "--out", "--graphs", "--mappings"},
    "query": {"--prefixes", "--out", "--graph", "--query", "--explain"},
    "path": {"--prefixes", "--out", "--graph", "--expr", "--start"},
    "lookup": {"--prefixes", "--out", "--graph", "--name", "-k"},
    "lineage": {"--prefixes", "--out", "--graph", "--taxon"},
    "stats": {"--prefixes", "--out", "--graph", "--tests", "--compounds", "--species"},
    "update": {"--prefixes", "--out", "--nodes", "--names", "--divisions", "--species",
               "--chemicals", "--tests", "--results", "--traits", "--glossary", "--units"},
}

INGEST_STAGES = ("ingest-ncbi", "ingest-ecotox", "ingest-traits", "units")


def subcommand_actions() -> dict[str, list[argparse.Action]]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }


def subcommand_options() -> dict[str, set[str]]:
    return {
        name: {opt for action in actions for opt in action.option_strings}
        for name, actions in subcommand_actions().items()
    }


class TestParserSurface:
    def test_subcommand_options(self):
        assert subcommand_options() == CLI_OPTIONS

    def test_update_takes_the_ingest_stages_flags(self):
        options = subcommand_options()
        ingest = set().union(*(options[name] for name in INGEST_STAGES))
        assert options["update"] == ingest | {"--prefixes", "--out"}

    def test_ingest_file_flags_are_optional_paths(self):
        actions = subcommand_actions()
        for name in (*INGEST_STAGES, "update"):
            for action in actions[name]:
                (flag,) = action.option_strings
                assert action.dest == flag[2:]
                assert (action.default, action.type, action.nargs, action.required) == (
                    None, None, None, False
                ), (name, flag)

    @pytest.mark.parametrize(("flag", "value"), [
        ("-k", "٣"), ("-k", "1_0"), ("--tests", "9_4٠"), ("--compounds", "٢"), ("--species", "٢"),
        ("--threshold", "٠.٨"), ("--threshold", "0_8"),
    ])
    def test_number_flags_take_ascii_digits_only(self, pipeline_dir, tmp_path, capsys, flag, value):
        # int() and float() read these as 3, 10, 940, 2, 2, 0.8 and 0.8, and each run exited 0
        argv = {
            "-k": ["lookup", "--graph", str(pipeline_dir / "kg.nt"), "--name", "daphnia magna"],
            "--threshold": ["align", "--source", str(pipeline_dir / "ecotox.nt"),
                            "--target", str(pipeline_dir / "ncbi.nt"), "--out", str(tmp_path)],
        }.get(flag, ["stats", "--graph", str(pipeline_dir / "kg.nt"), "--out", str(tmp_path),
                     "--tests", "3", "--compounds", "2", "--species", "2"])
        with pytest.raises(SystemExit) as exit_:
            run_cli(*cfg_args(*argv, flag, value))
        assert exit_.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def fixture_config(tmp_path, **changes) -> Path:
    """The fixture config with absolute paths and ``changes``, written into ``tmp_path``."""
    config = json.loads((FIXTURES / "config.json").read_text())
    config = {k: str(FIXTURES / v) if isinstance(v, str) else v for k, v in config.items()}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, **changes}))
    return path


class TestConfigKeys:
    # these used to escape as a TypeError (exit 4) from the stage that read them
    @pytest.mark.parametrize(("command", "key", "value", "error"), [
        ("units", "units", 5, "config key units must be a path string, got 5"),
        ("update", "threshold", [0.8], "config key threshold must be a number, got [0.8]"),
        ("update", "threshold", True, "config key threshold must be a number, got True"),
        ("update", "threshold", "٠.٨", "config key threshold must be a number, got '٠.٨'"),
        ("update", "threshold", "0_8", "config key threshold must be a number, got '0_8'"),
    ], ids=["path-key", "threshold", "threshold-bool", "threshold-arabic-indic", "threshold-underscore"])
    def test_malformed_value_is_two_and_names_the_key(self, tmp_path, capsys, command, key, value, error):
        config = fixture_config(tmp_path, **{key: value})
        assert run_cli("--config", str(config), command, "--out", str(tmp_path / "out")) == 2
        assert error_line(capsys) == ("ValueError", error)

    def test_unknown_key_logs_one_warning(self, tmp_path, caplog):
        config = fixture_config(tmp_path, treshold=0.5)
        assert run_cli("--config", str(config), "units", "--out", str(tmp_path)) == 0
        assert [r.getMessage() for r in caplog.records] == ["config: unknown key 'treshold' ignored"]
        assert read_summary(tmp_path, "units")["warnings"] == 1

    @pytest.mark.parametrize("argv", [
        ("lookup", "--name", "daphnia magna"),
        ("query", "--query", "{query}"),
    ], ids=["lookup", "query"])
    def test_report_out_file_never_takes_out_dir(self, pipeline_dir, tmp_path, argv):
        query_file = tmp_path / "tests.rq"
        query_file.write_text("select ?t\n?t a et:Test .\n")
        argv = [str(query_file) if arg == "{query}" else arg for arg in argv]
        config = fixture_config(tmp_path, out_dir=str(tmp_path / "out_dir"))
        out = tmp_path / "report.txt"
        assert run_cli("--config", str(config), *argv, "--graph", str(pipeline_dir / "kg.nt"),
                       "--out", str(out)) == 0
        assert out.exists() and (tmp_path / "report.txt.summary.json").exists()
        assert not (tmp_path / "out_dir").exists()

    def test_eval_mappings_reads_no_prefix_table(self, pipeline_dir, tmp_path):
        assert run_cli(
            "eval-mappings", "--prefixes", str(tmp_path / "absent.tsv"),
            "--mappings", str(pipeline_dir / "mappings.tsv"),
            "--reference", str(FIXTURES / "mappings" / "reference.tsv"),
        ) == 0


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
        store = ntriples.parse((pipeline_dir / "kg.nt").read_text(), default_prefix_map())
        funnel = {}
        hits = query.fuzzy_lookup(store, "daphnia magna", 5, funnel)
        assert sidecar["counts"] == {"hits": len(hits), **funnel}
        assert funnel["passes"] >= 1 and funnel["lanes"] >= funnel["passes"]
        assert sidecar["warnings"] == 0

    def test_update_summary_counts_the_warnings_on_stderr(self, tmp_path):
        config = _generate_bench_inputs(1, tmp_path / "inputs")
        out = tmp_path / "out"
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "ecokg", "--config", str(config), "update", "--out", str(out)],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        warned = [line for line in done.stderr.splitlines() if line.startswith("WARNING ")]
        # three chemicals with a bad CAS checksum: kept by ingest-ecotox,
        # then refused by bridge-cas
        assert [line.split(":")[0] for line in warned] == (
            ["WARNING invalid CAS number kept"] * 3 + ["WARNING bridge"] * 3
        )
        assert read_summary(out, "update")["warnings"] == len(warned) == 6

    def test_warning_counter_is_removed_after_each_run(self, tmp_path):
        root = logging.getLogger()
        handlers = list(root.handlers)
        assert run_cli(*cfg_args("units", "--out", str(tmp_path))) == 0
        assert run_cli(*cfg_args("stats", "--graph", str(tmp_path / "missing.nt"))) == cli.EXIT_INPUT
        assert root.handlers == handlers
        assert read_summary(tmp_path, "units")["warnings"] == 0

    def test_summaries_report_peak_rss(self, pipeline_dir, tmp_path):
        peak = read_summary(pipeline_dir, "update")["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0
        assert run_cli(*cfg_args("units", "--out", str(tmp_path))) == 0
        assert read_summary(tmp_path, "units")["peak_rss_mb"] > 0

    def test_peak_rss_reads_vmhwm(self, tmp_path):
        status = tmp_path / "status"
        status.write_text("Name:\tpython3\nVmPeak:\t  99999 kB\nVmHWM:\t   24576 kB\nVmRSS:\t   20480 kB\n")
        assert cli._peak_rss_mb(str(status)) == 24.0

    def test_peak_rss_falls_back_to_ru_maxrss(self, tmp_path):
        def ru_maxrss_mb():
            return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

        no_vmhwm = tmp_path / "status"
        no_vmhwm.write_text("Name:\tpython3\n")
        for status in (tmp_path / "absent", no_vmhwm):
            before = ru_maxrss_mb()
            assert before <= cli._peak_rss_mb(str(status)) <= ru_maxrss_mb()

    def test_update_summary_collects_steps(self, pipeline_dir):
        summary = read_summary(pipeline_dir, "update")
        assert set(summary["counts"]) == {"ingest-ncbi", "units", "ingest-ecotox", "ingest-traits",
                                          "align", "bridge-ncbi", "bridge-cas", "export", "checks", "stats"}
        assert summary["counts"]["checks"] == {"cycles": 0, "disjointness_violations": 0}
        part_files = ["ncbi.nt", "units.nt", "ecotox.nt", "traits.nt", "sameas_ncbi.nt", "sameas_cas.nt"]
        assert summary["outputs"] == sorted(part_files + ["mappings.tsv", "kg.nt", "stats.tsv", "stats.txt"])
        assert set(summary["counts"]["export"]) == {*part_files, "mappings_sameas", "total_triples"}


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

    def test_standalone_stages_rebuild_the_update_bytes(self, pipeline_dir, tmp_path):
        out = str(tmp_path)
        kg = ntriples.parse((pipeline_dir / "kg.nt").read_text(), default_prefix_map())
        # the coverage counts update hands its stats stage
        tests, compounds, species = (
            str(len(kg.subjects(RDF_TYPE, type_term)))
            for type_term in (ecotox.TEST_TYPE, ecotox.CHEMICAL_TYPE, ecotox.TAXON_TYPE)
        )
        for argv in (
            ("ingest-ncbi",), ("units",), ("ingest-ecotox",), ("ingest-traits",), ("align",),
            ("bridge", "--rewrite", "ncbi", "--pairs", str(FIXTURES / "pairs" / "wd_ncbi.tsv")),
            ("bridge", "--rewrite", "cas", "--pairs", str(FIXTURES / "pairs" / "wd_cas.tsv")),
            ("export", "--mappings", str(tmp_path / "mappings.tsv")),
            ("stats", "--tests", tests, "--compounds", compounds, "--species", species),
        ):
            assert run_cli(*cfg_args(*argv, "--out", out)) == 0, argv
        for name in (*self.PARTS, "mappings.tsv", "kg.nt", "stats.tsv"):
            assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes(), name

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

    def with_rows(self, tmp_path, table: str, rows: str) -> Path:
        """A config whose ECOTOX ``table`` (species, chemicals) has ``rows`` appended."""
        path = tmp_path / f"{table}.txt"
        path.write_text((FIXTURES / "ecotox" / f"{table}.txt").read_text() + rows)
        config_path = self.copy_config(tmp_path)
        config = json.loads(config_path.read_text())
        config[table] = str(path)
        config_path.write_text(json.dumps(config))
        return config_path

    def test_update_summary_counts_lineage_merges(self, tmp_path, pipeline_dir):
        assert read_summary(pipeline_dir, "update")["counts"]["ingest-ecotox"]["lineage_merges"] == 0
        config_path = self.with_rows(
            tmp_path,
            "species",
            "4243|Hydra|Hydra vulgaris|Animalia|Cnidaria|Hydrozoa|Anthoathecata|Hydridae|Hydra|vulgaris|Invertebrates\n"
            "4244|Beet|Beta vulgaris|Plantae|Tracheophyta|Magnoliopsida|Caryophyllales|Amaranthaceae|Beta|vulgaris|Plants\n",
        )
        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        counts = read_summary(out, "update")["counts"]["ingest-ecotox"]
        assert counts["lineage_merges"] == 1
        assert counts["species_rows"] == 9

    def test_update_summary_counts_invalid_cas_kept(self, tmp_path, pipeline_dir, caplog):
        built = read_summary(pipeline_dir, "update")["counts"]["ingest-ecotox"]
        assert built["invalid_cas_kept"] == 0
        config_path = self.with_rows(tmp_path, "chemicals", "877-43-1|Bad checksum|Organics\n")
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="ecokg.ecotox"):
            assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        counts = read_summary(out, "update")["counts"]["ingest-ecotox"]
        assert counts["invalid_cas_kept"] == 1
        assert counts["chemical_rows"] == 4
        kept = [r for r in caplog.records if r.getMessage().startswith("invalid CAS number kept")]
        assert len(kept) == counts["invalid_cas_kept"]

    def test_missing_cas_number_is_an_input_error(self, tmp_path, capsys):
        # "" and "--" both minted <.../ecotox/chemical/>: two chemicals of
        # different groups merged into a false disjointness violation (exit 3)
        rows = "|Unnamed salt|Organics\n--|Unnamed ester|Esters\n"
        config_path = self.with_rows(tmp_path, "chemicals", rows)
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 2
        error = "chemicals line 5: chemical 'Unnamed salt': missing cas_number"
        assert error_line(capsys) == ("ValueError", error)

    def with_second_line(self, tmp_path, key: str, row: str) -> Path:
        """A config whose input ``key`` has ``row`` inserted as its second line."""
        config_path = self.copy_config(tmp_path)
        config = json.loads(config_path.read_text())
        source = Path(config[key])
        first, rest = source.read_text().split("\n", 1)
        path = tmp_path / source.name
        path.write_text(f"{first}\n{row}\n{rest}")
        config[key] = str(path)
        config_path.write_text(json.dumps(config))
        return config_path

    @pytest.mark.parametrize(("key", "row", "error"), [
        ("chemicals", "50-00-0|Formaldehyde", ("ValueError", "chemicals line 2: expected 3 fields, got 2")),
        ("ncbi_names", "5\t|\tleaf\t|", ("DmpFormatError", "names.dmp line 2: expected at least 4 fields, got 2")),
        ("traits", "ncbi:taxon/35525\teol:habitat\tENVO:00000873\tbogus",
         ("ValueError", "trait table line 2: unknown trait value kind: 'bogus'")),
        ("traits", "nope:taxon/35525\teol:habitat\tENVO:00000873\tiri",
         ("UnknownPrefixError", "trait table line 2: unknown prefix: 'nope'")),
        ("traits", "ncbi:taxon/35525\teol:habitat\tnope:x\tiri",
         ("UnknownPrefixError", "trait table line 2: unknown prefix: 'nope'")),
        ("glossary", "Brugge\tnope:Brugge", ("UnknownPrefixError", "glossary line 2: unknown prefix: 'nope'")),
        ("units", "nope:Gram\tGram\tg\t1.0\t0.0\tmass\tg",
         ("UnknownPrefixError", "units table line 2: unknown prefix: 'nope'")),
        ("prefixes", "ex\tnot an iri", ("ValueError", "prefix table line 2: invalid namespace IRI: 'not an iri'")),
        ("species", "x|--|Daphnia hirta|Animalia|Arthropoda|Branchiopoda|Diplostraca|Daphniidae|Daphnia|hirta|"
                    "Crustaceans", ("ValueError", "species line 2: bad species_number: 'x'")),
        ("chemicals", "--|Unnamed salt|Organics",
         ("ValueError", "chemicals line 2: chemical 'Unnamed salt': missing cas_number")),
        ("tests", "1a|100|115-86-6|26812|adult", ("ValueError", "tests line 2: bad test_id: '1a'")),
        ("results", "r7|001|LC50|400|mg/L|ACUTE", ("ValueError", "results line 2: bad result_id: 'r7'")),
        # a bad row that also repeats a key: each row is checked as it is read, before the keys are compared
        ("prefixes", "rdfs\tnot an iri",
         ("ValueError", "prefix table line 2: invalid namespace IRI: 'not an iri'")),
        ("glossary", "Oostende\tnope:Brugge", ("UnknownPrefixError", "glossary line 2: unknown prefix: 'nope'")),
    ], ids=["ecotox", "dmp", "trait-kind", "trait-curie", "trait-iri-value", "glossary-target", "unit-id",
            "prefix-namespace", "species-key", "chemicals-key", "tests-key", "results-key", "prefix-before-repeat",
            "glossary-before-repeat"])
    def test_row_errors_name_their_input(self, tmp_path, capsys, key, row, error):
        # seven input tables feed update; "line 2: ..." alone did not say which was bad,
        # and the checks of a row's cells named neither table nor line
        config_path = self.with_second_line(tmp_path, key, row)
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 2
        assert error_line(capsys) == error

    @pytest.mark.parametrize(("key", "row", "error"), [
        ("species", "5156|Zebrafish|Danio rerio|Animalia|Chordata|Actinopterygii|Cypriniformes|"
                    "Cyprinidae|Danio|rerio|Fish", "species: duplicate species_number: ['5156']"),
        ("chemicals", "79-06-1|Acrylamide|Organics", "chemicals: duplicate cas_number: ['79-06-1']"),
        ("tests", "001|100|115-86-6|5156|adult", "tests: duplicate test_id: ['001']"),
        ("results", "55501|001|LC50|12.5|mg/L|ACUTE", "results: duplicate result_id: ['55501']"),
        ("ncbi_nodes", "6669\t|\t1\t|\tgenus\t|\t\t|\t1\t|", "nodes.dmp: duplicate taxon id: [6669]"),
    ], ids=["species", "chemicals", "tests", "results", "nodes.dmp"])
    def test_repeated_key_exits_three(self, tmp_path, capsys, key, row, error):
        # test 001 repeated under another species got two et:species objects, exit 0
        config_path = self.with_second_line(tmp_path, key, row)
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 3
        assert error_line(capsys) == ("DuplicateKeyError", error)

    @pytest.mark.parametrize(("key", "row", "error"), [
        ("prefixes", "rdfs\thttp://example.org/other#", "prefix table: duplicate prefix: ['rdfs']"),
        ("glossary", "Oostende\tworms:Brugge", "glossary: duplicate term: ['Oostende']"),
    ], ids=["prefixes", "glossary"])
    def test_repeated_prefix_or_glossary_term_exits_three(self, tmp_path, capsys, key, row, error):
        # the last row won: rdfs:label expanded into the other namespace, Oostende mapped to Brugge
        config_path = self.with_second_line(tmp_path, key, row)
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 3
        assert error_line(capsys) == ("DuplicateKeyError", error)

    def test_header_that_names_a_column_twice_exits_two(self, tmp_path, capsys):
        # the second genus column replaced the first: Danio rerio's genus cell read "rerio"
        out = tmp_path / "out"
        assert run_cli(*cfg_args("update", "--out", str(out))) == 0
        good = {p.name: p.read_bytes() for p in out.iterdir()}
        species = tmp_path / "species.txt"
        text = (FIXTURES / "ecotox" / "species.txt").read_text()
        species.write_text(text.replace("|species|", "|genus|", 1))
        config_path = fixture_config(tmp_path, species=str(species))
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 2
        assert error_line(capsys) == ("ValueError", "species: duplicate column: ['genus']")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == good

    def test_repeated_division_id_exits_three(self, tmp_path, capsys):
        config_path = self.with_second_line(tmp_path, "ncbi_divisions", "4\t|\tPLN\t|\tPlants\t|")
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 3
        assert error_line(capsys) == ("DuplicateDivisionError", "division.dmp: duplicate division id: [4]")

    @pytest.mark.parametrize("groups", [("Organics", "Organics"), ("Organics", "Esters")],
                             ids=["same", "other"])
    def test_cas_cells_that_mint_one_iri_exit_three(self, tmp_path, capsys, groups):
        # both minted et:chemical/50000, which took both labels (exit 0), or with two
        # groups failed the disjointness scan as an IntegrityError
        rows = f"50-00-0|Formaldehyde|{groups[0]}\n50000|Formalin|{groups[1]}\n"
        config_path = self.with_rows(tmp_path, "chemicals", rows)
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 3
        assert error_line(capsys) == ("DuplicateKeyError", "chemicals: duplicate chemical IRI: "
                                      "[('https://cfpub.epa.gov/ecotox/chemical/50000', "
                                      "'cas_number 50-00-0', 'cas_number 50000')]")

    def test_lineage_cell_that_mints_a_species_leaf_exits_three(self, tmp_path, capsys):
        # family 5156 keyed et:taxon/5156, species 5156's leaf, which gained the
        # label "5156" and a second parent (exit 0)
        row = "99|--|Fakeus fakeus|Animalia|Chordata|Actinopterygii|Cypriniformes|5156|Fakeus|fakeus|Fish\n"
        config_path = self.with_rows(tmp_path, "species", row)
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 3
        assert error_line(capsys) == ("DuplicateKeyError", "species: duplicate taxon IRI: "
                                      "[('https://cfpub.epa.gov/ecotox/taxon/5156', "
                                      "'family 5156', 'species_number 5156')]")

    @pytest.mark.parametrize("emptied", ["chemicals", "species"])
    def test_update_without_chemicals_or_species_leaves_out_coverage(self, tmp_path, emptied):
        # coverage over no pairs raised "counts must be positive" and discarded the run (exit 2)
        config_path = self.copy_config(tmp_path)
        config = json.loads(config_path.read_text())
        for table in (emptied, "tests", "results"):
            path = tmp_path / f"{table}.txt"
            path.write_text((FIXTURES / "ecotox" / f"{table}.txt").read_text().split("\n", 1)[0] + "\n")
            config[table] = str(path)
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        report = (out / "stats.tsv").read_text()
        assert report.startswith("triples\t") and "coverage_percent" not in report

    def with_cycle(self, tmp_path) -> Path:
        """A config whose NCBI nodes add two taxa that are each other's parent."""
        nodes = tmp_path / "nodes.dmp"
        nodes.write_text(
            (FIXTURES / "ncbi" / "nodes.dmp").read_text()
            + "900001\t|\t900002\t|\tspecies\t|\t\t|\t1\t|\n"
            + "900002\t|\t900001\t|\tgenus\t|\t\t|\t1\t|\n"
        )
        config_path = self.copy_config(tmp_path)
        config = json.loads(config_path.read_text())
        config["ncbi_nodes"] = str(nodes)
        config_path.write_text(json.dumps(config))
        return config_path

    def test_subclass_cycle_exits_three(self, tmp_path, capsys):
        config_path = self.with_cycle(tmp_path)
        assert run_cli("--config", str(config_path), "update", "--out", str(tmp_path / "out")) == 3
        assert error_line(capsys) == (
            "IntegrityError",
            "exported graph failed consistency scans: 1 cycles, 0 disjointness violations",
        )

    @pytest.mark.parametrize(("align_raises", "code"), [(False, 3), (True, 4)],
                             ids=["cycle", "align-error"])
    def test_failed_update_keeps_the_previous_run(self, tmp_path, monkeypatch, align_raises, code):
        out = tmp_path / "out"
        # a staging directory left behind by a killed run
        (out / ".update-staging").mkdir(parents=True)
        (out / ".update-staging" / "kg.nt").write_text("stale\n")
        assert run_cli(*cfg_args("update", "--out", str(out))) == 0

        def entries():
            return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}

        good = entries()
        assert ".update-staging" not in good
        config_path = self.with_cycle(tmp_path)  # whose ncbi.nt differs from the good run's
        if align_raises:
            def boom(*args, **kwargs):
                raise RuntimeError("alignment failed")

            monkeypatch.setattr(align, "align_lexical", boom)
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == code
        assert entries() == good

    def test_tautonym_species_builds(self, tmp_path):
        # Genus Bufo and species bufo share the node et:taxon/bufo; a
        # subClassOf self-loop there used to fail the cycle scan (exit 3).
        config_path = self.with_rows(
            tmp_path,
            "species",
            "4242|Common Toad|Bufo bufo|Animalia|Chordata|Amphibia|Anura|Bufonidae|Bufo|bufo|Amphibians\n",
        )
        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        kg = (out / "kg.nt").read_text()
        bufo = f"<{ET}taxon/bufo>"
        assert f"<{ET}taxon/4242> <http://www.w3.org/2000/01/rdf-schema#subClassOf> {bufo} .\n" in kg
        assert f"{bufo} <http://www.w3.org/2000/01/rdf-schema#subClassOf> {bufo}" not in kg

    def test_lone_carriage_return_stays_inside_a_cell(self, tmp_path):
        # inputs are read without newline translation, as the library
        # readers take them: a lone \r is cell content, not a line break
        config_path = self.with_rows(tmp_path, "chemicals", "64-17-5|Ethyl\ralcohol|Organics\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "update", "--out", str(out)) == 0
        assert read_summary(out, "update")["counts"]["ingest-ecotox"]["chemical_rows"] == 4
        assert '"Ethyl\\ralcohol"' in (out / "kg.nt").read_text()

    def test_crlf_inputs_build_the_same_graph(self, tmp_path, pipeline_dir):
        crlf = tmp_path / "crlf"
        for path in FIXTURES.rglob("*"):
            if path.is_file():
                target = crlf / path.relative_to(FIXTURES)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        out = tmp_path / "out"
        assert run_cli("--config", str(crlf / "config.json"), "update", "--out", str(out)) == 0
        for name in ("kg.nt", "mappings.tsv", "stats.tsv"):
            assert (out / name).read_bytes() == (pipeline_dir / name).read_bytes(), name

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
        for key in ("source_entities", "target_entities", "mappings", "exact_sources",
                    "distinct_tokens", "blocked_pairs", "form_pairs", "length_pruned", "scored",
                    "ties_broken"):
            assert isinstance(counts[key], int), key
        assert counts["form_pairs"] == counts["length_pruned"] + counts["scored"]
        assert counts["form_pairs"] >= counts["blocked_pairs"]
        assert counts["blocked_pairs"] + counts["exact_sources"] >= counts["mappings"]
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

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_nan_threshold_is_an_input_error(self, tmp_path, pipeline_dir, capsys, where):
        # NaN compares false with every score, so it used to keep every
        # source's best target whatever its score
        argv = ["align", "--source", str(pipeline_dir / "ecotox.nt"),
                "--target", str(pipeline_dir / "ncbi.nt"), "--out", str(tmp_path / "out")]
        config = json.loads((FIXTURES / "config.json").read_text())
        config = {k: str(FIXTURES / v) if isinstance(v, str) else v for k, v in config.items()}
        if where == "flag":
            argv += ["--threshold", "nan"]
        else:
            config["threshold"] = float("nan")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert run_cli("--config", str(config_path), *argv) == 2
        assert error_line(capsys) == ("ValueError", "alignment threshold must be a number, got nan")
        assert not (tmp_path / "out" / "mappings.tsv").exists()

    @pytest.mark.parametrize("bad", ["--source", "--target"])
    def test_graph_parse_error_names_its_file(self, tmp_path, pipeline_dir, capsys, bad):
        # "line 2: ..." alone did not say which of the two graphs was bad
        path = tmp_path / "b.nt"
        path.write_text('<http://x.org/a> <http://x.org/p> "a" .\n<http://x.org/b> <http://x.org/p> 7 .\n')
        graphs = {"--source": pipeline_dir / "ecotox.nt", "--target": pipeline_dir / "ncbi.nt", bad: path}
        argv = [str(arg) for flag_and_path in graphs.items() for arg in flag_and_path]
        assert run_cli(*cfg_args("align", *argv, "--out", str(tmp_path / "out"))) == 2
        error = f"{path} line 2: object must be an IRI, literal, or blank node"
        assert error_line(capsys) == ("NTriplesParseError", error)

    def test_stop_words_split_at_newline_only(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes("The\r\n# comment\r\nfoo\u2028bar\n\x0cbaz\n".encode())
        stop_words = cli._load_stop_words(str(path))
        assert stop_words == {"the", "foo\u2028bar", "baz"}


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

    def test_export_graphs_sharing_a_file_name_is_input_error(self, tmp_path, capsys):
        # each part's count is keyed by its file name, so one would be lost
        for folder, ids in (("a", [0, 1]), ("b", [2])):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "part.nt").write_text("".join(
                f"<http://example.org/s{i}> <http://example.org/p> <http://example.org/o> .\n" for i in ids))
        out = tmp_path / "out"
        code = run_cli(*cfg_args("export", "--graphs", str(tmp_path / "a" / "part.nt"),
                                 str(tmp_path / "b" / "part.nt"), "--out", str(out)))
        assert code == 2
        assert error_line(capsys) == ("ValueError", "two graph files share the name 'part.nt', which keys their counts")
        assert not (out / "kg.nt").exists()

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

    def test_summary_and_explain_give_rows_per_join_step(self, pipeline_dir, tmp_path, capsys):
        q = tmp_path / "tests.rq"
        q.write_text("select ?t ?c\n?t et:compound ?c .\n?t a et:Test .\n")
        out = tmp_path / "rows.tsv"
        argv = cfg_args("query", "--graph", str(pipeline_dir / "kg.nt"), "--query", str(q), "--out", str(out))
        assert run_cli(*argv, "--explain") == 0
        captured = capsys.readouterr()
        # the typed pattern binds ?t first; every test has one compound
        assert captured.err.splitlines() == [
            f"plan\t?t <{RDF_TYPE.value}> <{ET}Test> .\testimate=3\trows=3",
            f"plan\t?t <{ET}compound> ?c .\testimate=3\trows=3",
        ]
        summary = json.loads((tmp_path / "rows.tsv.summary.json").read_text())
        assert summary["counts"] == {"rows": 3, "step_rows": [3, 3]}
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == captured.out

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

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(PREFIX_SUBJECTS), st.sampled_from(PREFIX_PREDICATES),
                           st.sampled_from(PREFIX_OBJECTS)), min_size=1, max_size=12),
        st.sampled_from(PREFIX_PATHS),
        st.sampled_from((None, "http://x.org/a", "http://x.org/a/b")),
    )
    @example(
        [("<http://x.org/a>", "<http://x.org/p>", "<http://x.org/a/b>"),
         ("<http://x.org/a/b>", "<http://x.org/p>", "_:b1"), ("<http://x.org/a/b>", "<http://x.org/p>", "_:b"),
         ("_:b1", "<http://x.org/p>", '"x"@en'), ("_:b", "<http://x.org/p>", '"x"^^<http://x.org/dt>'),
         ("_:b", "<http://x.org/p>", '"x"')],
        "<http://x.org/p>{0,}", None,
    )
    def test_path_command_sorts_pairs_whose_texts_share_a_prefix(self, triples, expr, start):
        # one term's text starts another's, as "_:b" does "_:b1"; the lines
        # still come in (start, end) text order
        prefixes = default_prefix_map()
        with tempfile.TemporaryDirectory() as tmp:
            graph_file = Path(tmp) / "g.nt"
            graph_file.write_text("".join(f"{s} {p} {o} .\n" for s, p, o in triples), encoding="utf-8")
            argv = ["path", "--graph", str(graph_file), "--expr", expr] + (["--start", start] if start else [])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run_cli(*argv) == 0
            store = ntriples.parse(graph_file.read_text(encoding="utf-8"), prefixes)
        start_term = None if start is None else graph.iri(start)
        pairs = query.eval_path(store, query.parse_path(expr, prefixes), start_term)
        pairs = sorted(pairs, key=lambda pair: (pair[0].ntriples(), pair[1].ntriples()))
        assert out.getvalue() == "".join(f"{a.ntriples()}\t{b.ntriples()}\n" for a, b in pairs)

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

    # Each read command checks its request before it reads the graph,
    # which here does not exist.
    @pytest.mark.parametrize(("argv", "error"), [
        (("query", "--query", "{bad_query}"), ("QuerySyntaxError", "line 1: invalid IRI: 'a b'")),
        (("path", "--expr", "(("), ("PathSyntaxError", "position 2: expected a predicate atom")),
        (("path", "--expr", "rdfs:subClassOf", "--start", "zz:x"), ("UnknownPrefixError", "unknown prefix: 'zz'")),
        (("lineage", "--taxon", "zz:x"), ("UnknownPrefixError", "unknown prefix: 'zz'")),
        (("lookup", "--name", "daphnia", "-k", "0"), ("ValueError", "k must be at least 1, got 0")),
    ], ids=["query", "path-expr", "path-start", "lineage-taxon", "lookup-k"])
    def test_bad_request_fails_before_the_graph_is_read(self, tmp_path, capsys, argv, error):
        bad_query = tmp_path / "bad.rq"
        bad_query.write_text("?s <a b> ?o .\n")
        argv = [str(bad_query) if arg == "{bad_query}" else arg for arg in argv]
        assert run_cli(*cfg_args(*argv, "--graph", str(tmp_path / "absent.nt"))) == 2
        assert error_line(capsys) == error

    @pytest.mark.parametrize(("argv", "count"), [
        (("query", "--query", "{query}"), "rows"),
        (("path", "--expr", "rdfs:subClassOf{1,2}", "--start", "ncbi:taxon/687295"), "pairs"),
        (("lookup", "--name", "daphnia magna", "-k", "3"), "hits"),
        (("lineage", "--taxon", "et:taxon/34010"), "ancestors"),
    ], ids=["query", "path", "lookup", "lineage"])
    def test_out_file_holds_stdout(self, pipeline_dir, tmp_path, capsys, argv, count):
        query_file = tmp_path / "tests.rq"
        query_file.write_text("select ?t\n?t a et:Test .\n")
        out = tmp_path / "report.txt"
        argv = [str(query_file) if arg == "{query}" else arg for arg in argv]
        assert run_cli(*cfg_args(*argv, "--graph", str(pipeline_dir / "kg.nt"), "--out", str(out))) == 0
        stdout = capsys.readouterr().out
        assert stdout and out.read_text() == stdout
        summary = json.loads((tmp_path / "report.txt.summary.json").read_text())
        assert (summary["command"], summary["outputs"]) == (argv[0], [str(out)])
        assert summary["counts"][count] == len(stdout.splitlines()) - (argv[0] == "query")

    @pytest.mark.parametrize("marked", ["prefixes.tsv", "kg.nt"])
    def test_leading_byte_order_mark_is_dropped(self, pipeline_dir, tmp_path, capsys, marked):
        plain = {"prefixes.tsv": FIXTURES / "prefixes.tsv", "kg.nt": pipeline_dir / "kg.nt"}
        (tmp_path / marked).write_bytes("\ufeff".encode() + plain[marked].read_bytes())
        query_file = tmp_path / "types.rq"
        query_file.write_text("select ?s ?t\n?s rdf:type ?t .\n")

        def answers(files):
            argv = ("--prefixes", str(files["prefixes.tsv"]), "--graph", str(files["kg.nt"]))
            assert run_cli("query", *argv, "--query", str(query_file)) == 0
            return capsys.readouterr().out

        expected = answers(plain)
        assert expected.count("\n") > 1
        assert answers({**plain, marked: tmp_path / marked}) == expected

    def test_lone_surrogate_literal_is_written_escaped(self, tmp_path, capsys):
        graph = tmp_path / "g.nt"
        graph.write_text('<http://x.org/s> <http://x.org/p> "x\\uD800y" .\n')
        query_file = tmp_path / "q.rq"
        query_file.write_text("select ?o\n?s <http://x.org/p> ?o .\n")
        out = tmp_path / "rows.tsv"
        assert run_cli("query", "--graph", str(graph), "--query", str(query_file), "--out", str(out)) == 0
        assert out.read_text() == capsys.readouterr().out == '?o\n"x\\uD800y"\n'


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

    def test_negative_test_count_is_input_error(self, pipeline_dir, tmp_path, capsys):
        code = run_cli(
            *cfg_args(
                "stats",
                "--graph", str(pipeline_dir / "kg.nt"),
                "--tests", "-5", "--compounds", "2", "--species", "2",
                "--out", str(tmp_path),
            )
        )
        assert code == 2
        assert error_line(capsys) == ("ValueError", "test count must not be negative")
        assert not (tmp_path / "stats.tsv").exists()

    @pytest.mark.parametrize("zero", ["--compounds", "--species"])
    def test_zero_given_count_is_input_error(self, pipeline_dir, tmp_path, capsys, zero):
        counts = {"--tests": "3", "--compounds": "2", "--species": "2", zero: "0"}
        code = run_cli(
            *cfg_args(
                "stats",
                "--graph", str(pipeline_dir / "kg.nt"),
                *[item for pair in counts.items() for item in pair],
                "--out", str(tmp_path),
            )
        )
        assert code == 2
        assert error_line(capsys) == ("ValueError", "compound and species counts must be positive")

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


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("ecokg ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    flags = {key.strip().strip("`"): flag.strip().strip("`") for key, flag in rows}
    assert len(flags) == len(rows)
    assert set(flags) == set(cli._CONFIG_KEYS.values())
    options = set().union(*subcommand_options().values())
    for dest, key in cli._CONFIG_KEYS.items():
        flag = "--" + dest.replace("_", "-")
        # a key with no flag of its name is read only through the config
        assert flags[key] == (flag if flag in options else "none"), key


def test_readme_library_example_runs(pipeline_dir, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library in five lines", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "build").mkdir()
    shutil.copyfile(pipeline_dir / "kg.nt", tmp_path / "build" / "kg.nt")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    expand = scope["store"].prefixes.expand
    assert scope["ancestors"] == [expand("ncbi:taxon/1").value, expand("ncbi:taxon/513583").value]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "ecokg", "--help"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ecokg")
