"""The bench tracer still sees the pattern-query path.

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
