"""The bench tracer still sees the pattern-query path and every `update` stage.

``perfbench/tracer.py`` replaces module attributes such as
``query.solve`` with wrappers. A ``select`` that stopped calling
``solve`` through its module would leave the ``query.solve`` span and
its result count empty, and the per-layer view of the ``query``
workload blind.
"""

import importlib.util
import json
from pathlib import Path

from conftest import run_cli
from ecokg import ntriples, query
from ecokg.ns import default_prefix_map
from test_output_oracle import _generate_bench_inputs

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# the anchored three-pattern select the query bench runs
LC50_SELECT = "select ?r\n?t et:compound <{chemical}>\n?t et:hasResult ?r\n?r et:endpoint et:LC50\n"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("_reach_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_select_runs_inside_a_traced_solve_span(tmp_path):
    config = _generate_bench_inputs(1, tmp_path / "inputs")
    assert run_cli("--config", str(config), "update", "--out", str(tmp_path / "out")) == 0
    prefixes = default_prefix_map()
    store = ntriples.parse((tmp_path / "out" / "kg.nt").read_text(encoding="utf-8"), prefixes)
    store.freeze()
    truth = json.loads((tmp_path / "inputs" / "truth.json").read_text(encoding="utf-8"))
    chemical, results = max(truth["lc50"].items(), key=lambda item: len(item[1]))
    tracer = _tracer_class()()
    tracer.install()
    try:
        parsed = query.parse_query(LC50_SELECT.format(chemical=chemical), prefixes)
        rows = query.select(store, parsed.patterns, list(parsed.projection))
    finally:
        tracer.uninstall()
    assert sorted(row[0].value for row in rows) == sorted(results)
    spans = {span[3]: span for span in tracer.spans}
    assert spans["query.solve"][1] == spans["query.select"][0]  # solve's parent is select
    assert tracer.counts["query.solve.results"] == len(rows) > 1


# every stage span a traced `update` reports, as perfbench/tracer.py names them
UPDATE_STAGES = ("ingest-ncbi", "units", "ingest-ecotox", "ingest-traits", "align",
                 "bridge-ncbi", "bridge-cas", "export", "stats")


def test_update_runs_every_stage_inside_a_traced_span(tmp_path):
    # the tracer wraps cli's stage functions by name and reads the
    # bridge's args[0].rewrite; a stage called another way goes unseen
    config = _generate_bench_inputs(1, tmp_path / "inputs")
    tracer = _tracer_class()()
    tracer.install()
    try:
        assert run_cli("--config", str(config), "update", "--out", str(tmp_path / "out")) == 0
    finally:
        tracer.uninstall()
    names = [span[3] for span in tracer.spans]
    assert names.count("cli.update") == 1
    assert {f"cli.stage.{stage}" for stage in UPDATE_STAGES} <= set(names)
    update_id = next(span[0] for span in tracer.spans if span[3] == "cli.update")
    stage_parents = {span[1] for span in tracer.spans if span[3].startswith("cli.stage.")}
    assert stage_parents == {update_id}
