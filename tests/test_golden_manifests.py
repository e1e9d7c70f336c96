"""Pinned manifest digests for a sweep of run configurations.

manifest.json hashes every file of a run directory, so the SHA-256 of
manifest.json pins the bytes of the whole directory.  A refactor that
keeps every digest in golden_manifests.json keeps the output.

The digests change only with an intended change of the emitted files;
print the new table with ``PYTHONPATH=src python -m tests.test_golden_manifests``
and say in the change log why the bytes moved.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pgfold.circulant import divisors, expand_circulant
from pgfold.emit import write_run_directory
from pgfold.folding import PIPELINE_LEVELS, FoldPlan, pad_dummy_offset
from pgfold.projective import PgParams, build_pg_graph

GOLDEN_PATH = Path(__file__).with_name("golden_manifests.json")
ALL_FORMATS = ("csv", "json", "hdl")


def _configs() -> dict[str, tuple]:
    """Config id -> (geometry, alpha, q, design option, level, T, delta, formats)."""
    configs = {}
    for q in divisors(15):
        for option in (1, 2):
            for level in PIPELINE_LEVELS:
                if level == "graph" and option != 2:
                    continue
                configs[f"J15-q{q}-o{option}-{level}"] = (
                    (3, 2, 1), None, q, option, level, 1, 1, ALL_FORMATS
                )
    configs["J15-q3-o2-graph-T3-d2"] = ((3, 2, 1), None, 3, 2, "graph", 3, 2, ALL_FORMATS)
    for q in (2, 7):
        configs[f"J13to14-q{q}-o1-none"] = ((2, 3, 1), 1, q, 1, "none", 1, 1, ALL_FORMATS)
        configs[f"J13to14-q{q}-o2-graph"] = ((2, 3, 1), 1, q, 2, "graph", 1, 1, ALL_FORMATS)
    configs["J91-q7-o1-none-hdl"] = ((2, 3, 2), None, 7, 1, "none", 1, 1, ALL_FORMATS)
    # P(3, GF(3)) folded by 2 has 11 switch ports: two-digit port names.
    configs["J40-q2-o1-none-hdl"] = ((3, 3, 1), None, 2, 1, "none", 1, 1, ALL_FORMATS)
    return configs


CONFIGS = _configs()


def manifest_digest(config: tuple, out_dir: Path) -> str:
    geometry, alpha, q, option, level, T, delta, formats = config
    graph = build_pg_graph(PgParams(*geometry))
    if alpha is not None:
        graph = expand_circulant(graph, alpha)
    graph = pad_dummy_offset(graph)
    plan = FoldPlan.for_graph(
        graph, q, design_option=option, T=T, delta=delta, pipeline_level=level
    )
    write_run_directory(out_dir, graph, plan, formats)
    return hashlib.sha256((out_dir / "manifest.json").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_table_covers_every_config(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("config_id", sorted(CONFIGS))
def test_manifest_digest_unchanged(config_id, golden, tmp_path):
    assert manifest_digest(CONFIGS[config_id], tmp_path / "run") == golden[config_id]


def _print_table() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        for config_id in sorted(CONFIGS):
            out = Path(scratch) / config_id
            table[config_id] = manifest_digest(CONFIGS[config_id], out)
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _print_table()
