"""What a stage's triple counts in ``update.summary.json`` mean.

A stage's triple counts are the triples it added to its part graph:
an ingest stage's per-kind counts add up to its total, each total is
the line count of the part file it wrote (N-Triples holds one triple a
line), and the counts ``export`` gives each part and the mappings add
up to the lines of ``kg.nt``.
"""

import pytest

from conftest import read_summary, run_cli
from test_output_oracle import _generate_bench_inputs


@pytest.fixture(scope="module", params=["fixtures", "bench_seed1"])
def update_dir(request, tmp_path_factory):
    if request.param == "fixtures":
        return request.getfixturevalue("pipeline_dir")
    root = tmp_path_factory.mktemp(request.param)
    config = _generate_bench_inputs(1, root / "inputs")
    assert run_cli("--config", str(config), "update", "--out", str(root / "out")) == 0
    return root / "out"


def _stage(out, step: str) -> dict:
    return read_summary(out, "update")["counts"][step]


def _lines(path) -> int:
    return path.read_bytes().count(b"\n")


def test_ncbi_kinds_add_up_to_its_part(update_dir):
    counts = _stage(update_dir, "ingest-ncbi")
    kinds = counts["hierarchy_triples"] + counts["name_triples"] + counts["division_triples"]
    assert kinds == counts["total_triples"] == _lines(update_dir / "ncbi.nt")


def test_ecotox_kinds_add_up_to_its_part(update_dir):
    counts = _stage(update_dir, "ingest-ecotox")
    kinds = counts["species_triples"] + counts["chemical_triples"] + counts["effect_triples"]
    assert kinds == counts["total_triples"] == _lines(update_dir / "ecotox.nt")


@pytest.mark.parametrize(("step", "part"), [("units", "units.nt"), ("ingest-traits", "traits.nt")])
def test_single_kind_stage_counts_its_part(update_dir, step, part):
    assert _stage(update_dir, step)["triples"] == _lines(update_dir / part)


def test_each_bridge_counts_its_part(update_dir):
    steps = read_summary(update_dir, "update")["counts"]
    bridges = [step for step in steps if step.startswith("bridge-")]
    assert sorted(bridges) == ["bridge-cas", "bridge-ncbi"]
    for step in bridges:
        part = update_dir / f"sameas_{step.removeprefix('bridge-')}.nt"
        assert steps[step]["triples"] == _lines(part), step


def test_export_counts_add_up_to_kg(update_dir):
    counts = dict(_stage(update_dir, "export"))
    total = counts.pop("total_triples")
    assert sum(counts.values()) == total == _lines(update_dir / "kg.nt")
