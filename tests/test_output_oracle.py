"""The behaviour oracle: ``update`` writes the same bytes as before.

A change that only restructures code must keep ``kg.nt``,
``mappings.tsv`` and ``stats.tsv`` byte-identical on the bundled
fixtures and on the benchmark's dev input set (``perfbench/synth.py``,
seed 1, bench scale). A change that means to alter the output updates
the pinned digests and says why.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from conftest import FIXTURES, run_cli

SYNTH = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"

EXPECTED = {
    "fixtures": {
        "kg.nt": "80a01b8d2824c501d5396e150536dc013aa4892c581cf7e08b1cd3b7353c36fe",
        "mappings.tsv": "6ec8a68ef74f1be012057efd88d33d43f0355c22e1c6fd859b79f40b5b2bb0bb",
        "stats.tsv": "daceeeba52b36d9edd6ba4de00a96a47ce6872d1937f9290bb5c39b02c72d2b2",
    },
    "bench_seed1": {
        "kg.nt": "3ae21050214391d7c04412006c59017ae0b3750783dd0b50eea722d518c76ab9",
        "mappings.tsv": "8dffdf5a01b183d80d220f6d11ef843e44e37939b87a422fce40c28668e84e49",
        "stats.tsv": "6aac174615c29066396a3193cc7a886014196f97116d7cc0700dfb702078610f",
    },
}


def _generate_bench_inputs(out: Path) -> Path:
    spec = importlib.util.spec_from_file_location("_oracle_synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    synth.generate(1, out, "bench")
    return out / "config.json"


@pytest.mark.parametrize("inputs", sorted(EXPECTED))
def test_update_output_digests(tmp_path, inputs):
    if inputs == "fixtures":
        config = FIXTURES / "config.json"
    else:
        config = _generate_bench_inputs(tmp_path / "inputs")
    out = tmp_path / "out"
    assert run_cli("--config", str(config), "update", "--out", str(out)) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in EXPECTED[inputs]}
    assert digests == EXPECTED[inputs]
