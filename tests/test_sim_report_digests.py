"""Pinned simulator reports of fault-injected run directories.

The golden manifests pin passing replays; this table pins failing ones.
Each case copies a J=15 run directory (design option 1, or option 2 with
graph-level pipelining), applies one or two field edits to timing.json, a
write LUT or a switch LUT, replays it for 1-4 iterations and compares the
SHA-256 of the sorted-key JSON report.  The report holds the conflict and
misroute messages in the order the replay raised them, so a faster replay
that keeps every digest keeps the whole audit, message order included.

The edits were drawn with ``random.Random(4)``; only those whose replay
returns a failing report (rather than raising or passing) were kept, and
they are stored explicitly in golden_sim_reports.json.  Print a fresh table with
``PYTHONPATH=src python -m tests.test_sim_report_digests``.

golden_dataflow_verdicts.json pins, per case, the SHA-256 of the sorted-key
JSON of ``check_dataflow_equivalence``'s verdict on the same replay and its
number of failures, so the dataflow audit keeps its messages and their
order too.  Print a fresh table with
``PYTHONPATH=src python -m tests.test_sim_report_digests --verdicts``.
"""

import csv
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from pgfold.circulant import CirculantBipartiteGraph
from pgfold.emit import write_run_directory
from pgfold.folding import FoldPlan, pad_dummy_offset
from pgfold.simulator import check_dataflow_equivalence, simulate

GOLDEN_PATH = Path(__file__).with_name("golden_sim_reports.json")
VERDICTS_PATH = Path(__file__).with_name("golden_dataflow_verdicts.json")
OFFSETS_15 = (0, 1, 2, 4, 5, 8, 10)
BASES = {
    "opt1": {},
    "opt2-graph": {"design_option": 2, "delta": 2, "pipeline_level": "graph"},
}
SWITCH_LUTS = [
    f"lut_{instance}_{kind}.csv"
    for instance in ("row_reads", "col_reads")
    for kind in ("in", "out")
]


def build_base(out_dir: Path, base: str) -> Path:
    graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
    plan = FoldPlan.for_graph(graph, 3, **BASES[base])
    write_run_directory(out_dir, graph, plan, ("csv", "json"))
    return out_dir


def apply_edit(run_dir: Path, edit: dict) -> None:
    path = run_dir / edit["file"]
    if edit["file"] == "timing.json":
        timing = json.loads(path.read_text(encoding="utf-8"))
        if "index" in edit:
            timing[edit["field"]][edit["index"]] = edit["value"]
        else:
            timing[edit["field"]] = edit["value"]
        path.write_text(json.dumps(timing), encoding="utf-8")
        return
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    rows[edit["row"]][header.index(edit["field"])] = str(edit["value"])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    return _digest(report.to_json_dict())


def verdict_pin(verdict: dict) -> dict:
    return {"failures": len(verdict["failures"]), "sha256": _digest(verdict)}


def replay_case(case: dict, base_dir: Path, run_dir: Path):
    """The report of ``case``'s edits applied to a copy of ``base_dir``."""
    shutil.copytree(base_dir, run_dir)
    for edit in case["edits"]:
        apply_edit(run_dir, edit)
    return simulate(run_dir, case["iterations"])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def verdicts():
    return json.loads(VERDICTS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def base_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("digest-bases")
    return {base: build_base(root / base, base) for base in BASES}


def test_table_holds_failing_reports_of_both_bases(golden):
    assert len(golden) >= 25
    assert {case["base"] for case in golden.values()} == set(BASES)
    assert {case["iterations"] for case in golden.values()} == {1, 2, 3, 4}


@pytest.mark.parametrize(
    "case_id", sorted(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")))
)
def test_fault_injected_report_digest_unchanged(case_id, golden, base_runs, tmp_path):
    case = golden[case_id]
    report = replay_case(case, base_runs[case["base"]], tmp_path / "run")
    assert not report.ok
    assert report_digest(report) == case["sha256"]


def test_verdict_table_covers_every_case(golden, verdicts):
    assert verdicts.keys() == golden.keys()
    assert sum(pin["failures"] > 0 for pin in verdicts.values()) == 34


@pytest.mark.parametrize(
    "case_id", sorted(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")))
)
def test_fault_injected_dataflow_verdict_unchanged(
    case_id, golden, verdicts, base_runs, tmp_path
):
    case = golden[case_id]
    run_dir = tmp_path / "run"
    report = replay_case(case, base_runs[case["base"]], run_dir)
    verdict = check_dataflow_equivalence(report, run_dir)
    assert not verdict["ok"]
    assert verdict_pin(verdict) == verdicts[case_id]


# ---------------------------------------------------------------------------
# table generation


def _random_edit(rng: random.Random, run_dir: Path, kind: str) -> dict:
    timing = json.loads((run_dir / "timing.json").read_text(encoding="utf-8"))
    slots = len(timing["read_cycles"])
    if kind == "timing":
        field = rng.choice(["read_cycles", "write_cycles", "side_span"])
        if field == "side_span":
            return {"file": "timing.json", "field": field, "value": rng.randint(-40, 40)}
        return {
            "file": "timing.json",
            "field": field,
            "index": rng.randrange(slots),
            "value": rng.randint(-60, 60),
        }
    if kind == "write_lut":
        name = f"write_lut_{rng.choice(['row', 'col'])}.csv"
        plan = json.loads((run_dir / "plan.json").read_text(encoding="utf-8"))
        layout = json.loads((run_dir / "layout.json").read_text(encoding="utf-8"))
        domains = {
            "pmu": plan["units_per_side"],
            "slot": slots,
            "port": 2,
            "address": layout["capacity"],
            "producer_real": 2,
        }
        field = rng.choice(sorted(domains))
        value = rng.randrange(domains[field])
    else:
        name = rng.choice(SWITCH_LUTS)
        instance = name.split("_", 1)[1].rsplit("_", 1)[0]
        netlist = json.loads((run_dir / "netlist.json").read_text(encoding="utf-8"))
        field = rng.choice(["port0", "port1"])
        value = rng.randint(0, netlist["annotations"]["instances"][instance]["rho_hat"])
    with (run_dir / name).open(newline="", encoding="utf-8") as handle:
        row_count = sum(1 for _ in handle) - 1
    return {"file": name, "row": rng.randint(1, row_count), "field": field, "value": value}


def _print_table(candidates: int = 60) -> None:
    rng = random.Random(4)
    kinds = ["timing", "write_lut", "switch_lut"]
    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        bases = {base: build_base(root / base, base) for base in BASES}
        for number in range(candidates):
            base = sorted(BASES)[number % 2]
            kind = kinds[(number // 2) % 3]
            edits = [
                _random_edit(rng, bases[base], kind) for _ in range(rng.randint(1, 2))
            ]
            iterations = rng.randint(1, 4)
            run_dir = root / f"case{number}"
            shutil.copytree(bases[base], run_dir)
            for edit in edits:
                apply_edit(run_dir, edit)
            try:
                report = simulate(run_dir, iterations)
            except (IndexError, KeyError, ValueError):
                continue
            if report.ok:
                continue
            table[f"{number:02d}-{base}-{kind}"] = {
                "base": base,
                "edits": edits,
                "iterations": iterations,
                "sha256": report_digest(report),
            }
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _print_verdicts() -> None:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        bases = {base: build_base(root / base, base) for base in BASES}
        for case_id, case in sorted(golden.items()):
            run_dir = root / case_id
            report = replay_case(case, bases[case["base"]], run_dir)
            table[case_id] = verdict_pin(check_dataflow_equivalence(report, run_dir))
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--verdicts"]:
        _print_verdicts()
    else:
        _print_table()
