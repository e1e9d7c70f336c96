"""Pinned simulator reports of fault-injected run directories.

The golden manifests pin passing replays; this table pins failing ones.
Each case copies a J=15 run directory (design option 1, or option 2 with
graph-level pipelining), applies one or two field edits to timing.json, a
write LUT or a switch LUT, replays it for 1-4 iterations and compares the
SHA-256 of the sorted-key JSON report.  A write LUT's runs are edited as
one row per write, unit by unit, and written back as runs.  The report holds the conflict and
misroute messages in the order the replay raised them, so a faster replay
that keeps every digest keeps the whole audit, message order included.

The edits were drawn with ``random.Random(4)``; only those whose replay
returns a failing report (rather than raising or passing) were kept, and
they are stored explicitly in golden_sim_reports.json.  The switch-table
edits were drawn when each instance had an out and an in table, and were
then mapped onto the instance's one table, which both switch sets run.
Print a fresh table with
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
SWITCH_LUTS = [f"lut_{instance}.csv" for instance in ("row_reads", "col_reads")]


def build_base(out_dir: Path, base: str) -> Path:
    graph = pad_dummy_offset(CirculantBipartiteGraph.plain(15, OFFSETS_15))
    plan = FoldPlan.for_graph(graph, 3, **BASES[base])
    write_run_directory(out_dir, graph, plan, ("csv", "json"))
    return out_dir


def apply_edits(run_dir: Path, edits: list[dict]) -> None:
    """Apply ``edits`` in order.  A write LUT is edited as one row per
    write (``write_rows``) and written back as runs after the last edit."""
    writes = {}  # write LUT name -> its rows of one write each
    for edit in edits:
        path = run_dir / edit["file"]
        if edit["file"] == "timing.json":
            timing = json.loads(path.read_text(encoding="utf-8"))
            if "index" in edit:
                timing[edit["field"]][edit["index"]] = edit["value"]
            else:
                timing[edit["field"]] = edit["value"]
            path.write_text(json.dumps(timing), encoding="utf-8")
            continue
        if edit["file"].startswith("write_lut_"):
            if edit["file"] not in writes:
                writes[edit["file"]] = write_rows(run_dir, edit["file"])
            rows = writes[edit["file"]]
        else:
            with path.open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
        rows[edit["row"]][rows[0].index(edit["field"])] = str(edit["value"])
        if not edit["file"].startswith("write_lut_"):
            write_csv(path, rows)
    for name, rows in writes.items():
        write_csv(run_dir / name, write_runs(rows))


def write_csv(path: Path, rows: list[list]) -> None:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


WRITE_HEADER = ["pmu", "index", "slot", "port", "address", "real", "producer_real"]


def write_rows(run_dir: Path, name: str) -> list[list]:
    """The runs of write LUT ``name`` as one row per write, in the table's
    edit coordinates: a row per unit, slot and port, unit by unit, under
    ``WRITE_HEADER``.  A producer is real when k · F + unit < real J for
    its slot's fold k; ``real`` is not read and stays 1."""
    units = json.loads((run_dir / "plan.json").read_text(encoding="utf-8"))["units_per_side"]
    real_order = json.loads((run_dir / "graph.json").read_text(encoding="utf-8"))["real_J"]
    slots = run_slots(run_dir)
    address = {}
    with (run_dir / name).open(newline="", encoding="utf-8") as handle:
        for run in csv.DictReader(handle):
            slot, pmu, port = int(run["slot"]), int(run["pmu"]), int(run["port"])
            for unit in range(pmu, pmu + int(run["units"])):
                address[(unit, slot, port)] = int(run["address"])
    rows = [WRITE_HEADER]
    for pmu in range(units):
        for slot, (_, k) in enumerate(slots):
            for port in (0, 1):
                index = 2 * slot + port
                real = int(k * units + pmu < real_order)
                rows.append([pmu, index, slot, port, address[(pmu, slot, port)], 1, real])
    return rows


def run_slots(run_dir: Path) -> list[tuple[int, int]]:
    """The (pattern, fold) of each slot of a run: graph.json's gamma
    offsets pair into P = ceil(gamma/2) patterns, which plan.json's design
    option runs pattern-major (1) or fold-major (2) over its q folds."""
    gamma = json.loads((run_dir / "graph.json").read_text(encoding="utf-8"))["gamma"]
    plan = json.loads((run_dir / "plan.json").read_text(encoding="utf-8"))
    patterns, folds = range((gamma + 1) // 2), range(plan["q"])
    if plan["design_option"] == 1:
        return [(l, k) for l in patterns for k in folds]
    return [(l, k) for k in folds for l in patterns]


def write_runs(rows: list[list]) -> list[list]:
    """Rows of one write each, under ``WRITE_HEADER``, as a write LUT's
    runs: the writes of real producers, stably by slot, port and unit,
    each run the longest stretch of consecutive units of one address."""
    writes = sorted(
        ([int(row[2]), int(row[3]), int(row[0]), int(row[4])] for row in rows[1:] if int(row[6])),
        key=lambda write: write[:3],
    )
    runs = [["slot", "pmu", "units", "port", "address"]]
    for slot, port, pmu, address in writes:
        last = runs[-1]
        if last[0] == slot and last[3] == port and last[4] == address and last[1] + last[2] == pmu:
            last[2] += 1
        else:
            runs.append([slot, pmu, 1, port, address])
    return runs


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    return _digest(report.to_json_dict())


def verdict_pin(verdict: dict) -> dict:
    return {"failures": len(verdict["failures"]), "sha256": _digest(verdict)}


def replay_case(case: dict, base_dir: Path, run_dir: Path):
    """The report of ``case``'s edits applied to a copy of ``base_dir``."""
    shutil.copytree(base_dir, run_dir)
    apply_edits(run_dir, case["edits"])
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


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("kind", ["timing", "write_lut", "switch_lut"])
def test_table_generator_draws_and_applies_each_kind(base, kind, base_runs, tmp_path):
    # The generator runs only as a script; this keeps it drawing edits from
    # the files a run holds.
    edit = _random_edit(random.Random(4), base_runs[base], kind)
    assert edit["file"] in {"timing.json", "write_lut_row.csv", "write_lut_col.csv", *SWITCH_LUTS}
    if edit["field"] == "address":
        assert 0 <= edit["value"] < 24  # two cells per slot of 12
    if kind == "switch_lut":
        # Up to the invalid code: 5 row_reads families, 6 col_reads ones.
        assert 0 <= edit["value"] <= {"lut_row_reads.csv": 5, "lut_col_reads.csv": 6}[edit["file"]]
    run_dir = tmp_path / "run"
    shutil.copytree(base_runs[base], run_dir)
    apply_edits(run_dir, [edit])
    try:
        simulate(run_dir, 1)
    except (IndexError, KeyError, ValueError):
        pass  # the generator keeps only the edits whose replay reports


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
    """One edit of ``kind``, timing, write_lut or switch_lut, drawn from
    the run in ``run_dir``: a write goes to a slot, unit, port and one of
    the memory's two cells per slot, and a switch code is one of the
    instance's codes, up to its invalid code, the count of its wire
    families."""
    slots = len(run_slots(run_dir))
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
        domains = {
            "pmu": plan["units_per_side"],
            "slot": slots,
            "port": 2,
            "address": 2 * slots,
            "producer_real": 2,
        }
        field = rng.choice(sorted(domains))
        value = rng.randrange(domains[field])
    else:
        name = rng.choice(SWITCH_LUTS)
        instance = name.removeprefix("lut_").removesuffix(".csv")
        netlist = json.loads((run_dir / "netlist.json").read_text(encoding="utf-8"))
        families = netlist["wire_families"]
        field = rng.choice(["port0", "port1"])
        value = rng.randint(0, sum(family["instance"] == instance for family in families))
    if kind == "write_lut":
        row_count = len(write_rows(run_dir, name)) - 1
    else:
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
            apply_edits(run_dir, edits)
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
