"""Cycle-accurate token simulator of an emitted folded architecture.

This module deliberately reimplements the access semantics from the files
a run directory contains (graph, fold sequences, write LUTs, switch
tables, netlist, timing) rather than reusing the synthesis code, so a
passing simulation also validates the file formats and their mutual
consistency.

One iteration is a row compute half followed by a col compute half.  Row
units read the column-side memories through the row_reads interconnect,
then write results into their collocated row-side memories; the col half
mirrors this.  Column memories are preloaded once so the first row half
has data.  Every memory, wire, and switch port access is checked for
exclusive use per cycle, every delivered token for reaching exactly the
consumer the graph prescribes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SimulationStructureError",
    "SimReport",
    "simulate",
    "check_dataflow_equivalence",
    "measure_throughput",
    "summarize",
]


class SimulationStructureError(ValueError):
    """Emitted artifacts are mutually inconsistent; message names the locus."""


# ---------------------------------------------------------------------------
# independent file readers


def _read_json(run_dir: Path, name: str) -> dict:
    path = run_dir / name
    if not path.is_file():
        raise SimulationStructureError(f"missing artifact {name}")
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(run_dir: Path, name: str) -> list[dict]:
    path = run_dir / name
    if not path.is_file():
        raise SimulationStructureError(f"missing artifact {name}")
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@dataclass
class _Inputs:
    order: int
    real_order: int
    base_offsets: list[int]
    real_base_offsets: frozenset[int]
    q: int
    units: int
    design_option: int
    pipeline_level: str
    capacity: int
    slots: dict[str, list[tuple[int, int]]]
    pattern_count: dict[str, int]
    read_cycles: list[int]
    write_cycles: list[int]
    side_span: int
    half_length: int
    full_iteration: int
    out_rows: dict[str, list[tuple[int, int]]]
    in_rows: dict[str, list[tuple[int, int]]]
    invalid: dict[str, int]
    wire_by_src: dict[tuple[str, int], tuple[str, str, int]]
    writes_by_slot: dict[str, dict[int, list[dict]]]
    reader_offsets: dict[str, list[int]]


def _load(run_dir: Path) -> _Inputs:
    graph = _read_json(run_dir, "graph.json")
    plan = _read_json(run_dir, "plan.json")
    layout = _read_json(run_dir, "layout.json")
    timing = _read_json(run_dir, "timing.json")
    netlist = _read_json(run_dir, "netlist.json")
    order = graph["J"]
    col_offsets = sorted((-d) % order for d in graph["base_offsets"])
    slots = {}
    pattern_count = {}
    for side in ("row", "col"):
        fold = _read_json(run_dir, f"fold_{side}.json")
        slots[side] = [tuple(s) for s in fold["slots"]]
        pattern_count[side] = len(fold["patterns"])
        if fold["F"] != plan["units_per_side"]:
            raise SimulationStructureError(
                f"fold_{side}.json unit count disagrees with plan.json"
            )
    if pattern_count["row"] != pattern_count["col"]:
        raise SimulationStructureError("sides disagree on pattern count")
    if len(timing["read_cycles"]) != len(slots["row"]):
        raise SimulationStructureError("timing slot count disagrees with fold slots")
    out_rows = {}
    in_rows = {}
    invalid = {}
    for instance in ("row_reads", "col_reads"):
        ann = netlist["annotations"]["instances"][instance]
        invalid[instance] = ann["rho_hat"]
        for kind, store in (("out", out_rows), ("in", in_rows)):
            rows = _read_csv(run_dir, f"lut_{instance}_{kind}.csv")
            store[instance] = [
                (int(r["port0"]), int(r["port1"]))
                for r in sorted(rows, key=lambda r: int(r["slot"]))
            ]
            if len(store[instance]) != pattern_count["row"]:
                raise SimulationStructureError(
                    f"lut_{instance}_{kind}.csv row count != pattern count"
                )
    # source port -> (wire name, destination switch id, destination unit)
    wire_by_src = {}
    for wire in netlist["wires"]:
        dst = wire["dst"][0]
        wire_by_src[(wire["src"][0], wire["src"][1])] = (
            wire["name"],
            dst,
            int(dst.rsplit("_", 1)[1]),
        )
    writes_by_slot: dict[str, dict[int, list[dict]]] = {}
    for side in ("row", "col"):
        rows = _read_csv(run_dir, f"write_lut_{side}.csv")
        per_slot: dict[int, list[dict]] = {}
        for r in rows:
            entry = {
                "pmu": int(r["pmu"]),
                "slot": int(r["slot"]),
                "port": int(r["port"]),
                "address": int(r["address"]),
                "real": bool(int(r["real"])),
                "producer_real": bool(int(r["producer_real"])),
            }
            if entry["address"] >= layout["capacity"]:
                raise SimulationStructureError(
                    f"write_lut_{side}.csv address {entry['address']} "
                    f"outside capacity {layout['capacity']}"
                )
            per_slot.setdefault(entry["slot"], []).append(entry)
        writes_by_slot[side] = per_slot
    return _Inputs(
        order=order,
        real_order=graph["real_J"],
        base_offsets=list(graph["base_offsets"]),
        real_base_offsets=frozenset(graph["real_base_offsets"]),
        q=plan["q"],
        units=plan["units_per_side"],
        design_option=plan["design_option"],
        pipeline_level=plan["pipeline_level"],
        capacity=layout["capacity"],
        slots=slots,
        pattern_count=pattern_count,
        read_cycles=list(timing["read_cycles"]),
        write_cycles=list(timing["write_cycles"]),
        side_span=timing["side_span"],
        half_length=timing["half_length"],
        full_iteration=timing["full_iteration"],
        out_rows=out_rows,
        in_rows=in_rows,
        invalid=invalid,
        wire_by_src=wire_by_src,
        writes_by_slot=writes_by_slot,
        reader_offsets={"row": list(graph["base_offsets"]), "col": col_offsets},
    )


# ---------------------------------------------------------------------------
# report


@dataclass
class SimReport:
    iterations: int
    conflicts: list[str] = field(default_factory=list)
    misroutes: list[str] = field(default_factory=list)
    file_mismatches: list[str] = field(default_factory=list)
    ppu_busy: dict = field(default_factory=dict)
    ppu_slots: int = 0
    pmu_port_reads: dict = field(default_factory=dict)
    pmu_port_slots: int = 0
    real_tokens: dict = field(default_factory=dict)
    measured_half: dict = field(default_factory=dict)
    measured_full: int = 0
    delivered: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.conflicts or self.misroutes or self.file_mismatches)

    def ppu_busy_ratio(self, side: str) -> float:
        return self.ppu_busy[side] / self.ppu_slots if self.ppu_slots else 0.0

    def pmu_port_utilization(self, pmu_side: str) -> float:
        if not self.pmu_port_slots:
            return 0.0
        return self.pmu_port_reads[pmu_side] / self.pmu_port_slots

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "iterations": self.iterations,
            "ok": self.ok,
            "conflicts": list(self.conflicts),
            "misroutes": list(self.misroutes),
            "file_mismatches": list(self.file_mismatches),
            "ppu_busy": dict(self.ppu_busy),
            "ppu_slots": self.ppu_slots,
            "ppu_busy_ratio": {
                side: self.ppu_busy_ratio(side) for side in ("row", "col")
            },
            "pmu_port_reads": dict(self.pmu_port_reads),
            "pmu_port_slots": self.pmu_port_slots,
            "pmu_port_utilization": {
                side: self.pmu_port_utilization(side) for side in ("row", "col")
            },
            "real_tokens": dict(self.real_tokens),
            "measured_half": dict(self.measured_half),
            "measured_full": self.measured_full,
        }


def summarize(report: SimReport) -> str:
    lines = [
        f"iterations: {report.iterations}",
        f"status: {'pass' if report.ok else 'FAIL'}",
        f"conflicts: {len(report.conflicts)}",
        f"misroutes: {len(report.misroutes)}",
        f"file mismatches: {len(report.file_mismatches)}",
        f"measured half (row/col): "
        f"{report.measured_half.get('row')}/{report.measured_half.get('col')}",
        f"measured full iteration: {report.measured_full}",
    ]
    for side in ("row", "col"):
        lines.append(
            f"{side} unit busy ratio: {report.ppu_busy_ratio(side):.4f}; "
            f"{side} memory port utilization: "
            f"{report.pmu_port_utilization(side):.4f}; "
            f"real tokens to {side} consumers: {report.real_tokens.get(side)}"
        )
    for item in (report.conflicts + report.misroutes + report.file_mismatches)[:20]:
        lines.append(f"  detail: {item}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# core simulation


def _is_real_edge(inputs: _Inputs, row: int, col: int) -> bool:
    if row >= inputs.real_order or col >= inputs.real_order:
        return False
    return (col - row) % inputs.real_order in inputs.real_base_offsets


def _edge_real_for_reader(inputs: _Inputs, side: str, lpu: int, producer: int) -> bool:
    if side == "row":
        return _is_real_edge(inputs, lpu, producer)
    return _is_real_edge(inputs, producer, lpu)


def simulate(run_dir: str | Path, iterations: int = 1) -> SimReport:
    """Replay the emitted schedules cycle-accurately and audit them.

    Checks per cycle: each memory port serves at most one access, each
    wire carries at most one datum, each switch port is selected at most
    once (the input set one cycle staggered).  Checks per delivery: the
    token that arrives is the one the graph prescribes for that consumer
    and rank.  Also compares all observed memory traffic of the first
    iteration with the emitted access trace files.
    """
    run_dir = Path(run_dir)
    inputs = _load(run_dir)
    units = inputs.units
    report = SimReport(iterations=iterations)
    mem: dict[str, list[dict]] = {
        side: [dict() for _ in range(units)] for side in ("row", "col")
    }
    slot_count = len(inputs.slots["row"])
    report.ppu_slots = units * slot_count * iterations
    report.pmu_port_slots = 2 * units * slot_count * iterations
    report.ppu_busy = {"row": 0, "col": 0}
    report.pmu_port_reads = {"row": 0, "col": 0}
    report.real_tokens = {"row": 0, "col": 0}
    observed: dict[str, list[tuple[int, int, int, int, str]]] = {"row": [], "col": []}
    port_use: set = set()
    wire_use: set = set()
    switch_use: set = set()
    # Use keys end in their cycle.  Every event of a half lies at or above
    # its floor: the half's base plus the lowest offset in timing.json, or
    # the base itself.  Floors move monotonically with side_span, so a key
    # below the current floor can never be hit again (with side_span < 0 no
    # key is ever below one) and is forgotten.
    reach = min(
        0, min(inputs.read_cycles, default=0), min(inputs.write_cycles, default=0)
    )

    def apply_writes(side: str, iteration: int, base: int, record: bool) -> None:
        offsets = inputs.reader_offsets[side]
        for slot, entries in sorted(inputs.writes_by_slot[side].items()):
            l, k = inputs.slots[side][slot]
            cycle = base + inputs.write_cycles[slot]
            for e in entries:
                if not e["producer_real"]:
                    continue
                producer = k * units + e["pmu"]
                t = 2 * l + e["port"]
                if t >= len(offsets):
                    token = None  # sentinel: reserved-cell filler
                else:
                    token = (side, producer, t, iteration)
                key = (side, e["pmu"], e["port"], cycle)
                if key in port_use:
                    report.conflicts.append(
                        f"pmu port double access: side {side} pmu {e['pmu']} "
                        f"port {e['port']} cycle {cycle}"
                    )
                port_use.add(key)
                mem[side][e["pmu"]][e["address"]] = token
                if record:
                    observed[side].append(
                        (cycle, e["pmu"], e["port"], e["address"], "W")
                    )

    def run_half(reading: str, iteration: int, half_index: int) -> None:
        producing = "col" if reading == "row" else "row"
        instance = f"{reading}_reads"
        base = (iteration * 2 + half_index) * inputs.side_span
        rel_base = half_index * inputs.side_span
        record = iteration == 0
        for use in (port_use, wire_use, switch_use):
            use.difference_update([key for key in use if key[-1] < base + reach])
        cons_offsets = inputs.reader_offsets[reading]
        prod_offsets = inputs.reader_offsets[producing]
        delivered_side = report.delivered[iteration][reading]
        for slot, (l, k) in enumerate(inputs.slots[reading]):
            cycle = base + inputs.read_cycles[slot]
            rel_cycle = rel_base + inputs.read_cycles[slot]
            out_row = inputs.out_rows[instance][l]
            in_row = inputs.in_rows[instance][l]
            invalid = inputs.invalid[instance]
            # Memory-side switches drive their wires.
            driven: dict[tuple[str, int], tuple] = {}
            active_readers = set()
            for i in range(units):
                if k * units + i < inputs.real_order:
                    active_readers.add(i)
                    report.ppu_busy[reading] += 1
            for m in range(units):
                for b, code in enumerate(out_row):
                    if code == invalid:
                        continue
                    src = (f"{instance}_out_{m}", code)
                    wire = inputs.wire_by_src.get(src)
                    if wire is None:
                        raise SimulationStructureError(
                            f"switch table references missing wire at "
                            f"{instance} out switch {m} port {code} (pattern {l})"
                        )
                    wire_name, dst, dst_unit = wire
                    if dst_unit not in active_readers:
                        continue
                    switch_key = (instance, "out", m, code, cycle)
                    if switch_key in switch_use:
                        report.conflicts.append(
                            f"switch port double select: {instance} out {m} "
                            f"port {code} cycle {cycle}"
                        )
                    switch_use.add(switch_key)
                    wire_key = (wire_name, cycle)
                    if wire_key in wire_use:
                        report.conflicts.append(
                            f"wire double drive: {wire_name} cycle {cycle}"
                        )
                    wire_use.add(wire_key)
                    address = 2 * slot + b
                    port_key = (producing, m, b, cycle)
                    if port_key in port_use:
                        report.conflicts.append(
                            f"pmu port double access: side {producing} pmu {m} "
                            f"port {b} cycle {cycle}"
                        )
                    port_use.add(port_key)
                    report.pmu_port_reads[producing] += 1
                    if record:
                        observed[producing].append((rel_cycle, m, b, address, "R"))
                    driven[(dst, code)] = mem[producing][m].get(address)
            # Unit-side switches select, one cycle staggered.
            for i in sorted(active_readers):
                lpu = k * units + i
                in_id = f"{instance}_in_{i}"
                for b, code in enumerate(in_row):
                    if code == invalid:
                        continue
                    switch_key = (instance, "in", i, code, cycle + 1)
                    if switch_key in switch_use:
                        report.conflicts.append(
                            f"switch port double select: {instance} in {i} "
                            f"port {code} cycle {cycle + 1}"
                        )
                    switch_use.add(switch_key)
                    token = driven.get((in_id, code))
                    rank = 2 * l + b
                    producer = (lpu + cons_offsets[rank]) % inputs.order
                    real = _edge_real_for_reader(inputs, reading, lpu, producer)
                    if token is None:
                        if real:
                            report.misroutes.append(
                                f"missing token: {reading} consumer {lpu} "
                                f"rank {rank} expected producer {producer}"
                            )
                        continue
                    tok_side, tok_producer, tok_edge, _ = token
                    tok_consumer = (
                        tok_producer + prod_offsets[tok_edge]
                    ) % inputs.order
                    if tok_side != producing or tok_consumer != lpu or (
                        tok_producer != producer
                    ):
                        if real:
                            report.misroutes.append(
                                f"misrouted token: {reading} consumer {lpu} "
                                f"rank {rank} expected producer {producer}, "
                                f"got producer {tok_producer} edge {tok_edge}"
                            )
                        continue
                    if real:
                        report.real_tokens[reading] += 1
                        delivered_side.setdefault(lpu, []).append(
                            (rank, producer, tok_edge)
                        )
        apply_writes(reading, iteration, base, record)

    # Preload the column memories so the first row half has data.
    apply_writes("col", -1, -2 * inputs.side_span, record=False)
    for iteration in range(iterations):
        report.delivered.append({"row": {}, "col": {}})
        run_half("row", iteration, 0)
        run_half("col", iteration, 1)

    # Measured lengths per the pipeline level's completion criterion: a
    # half is done when its last operand fetch retires, except with
    # graph-level pipelining where the last write marks completion.
    if inputs.pipeline_level == "graph":
        finish = max(inputs.write_cycles) + 1
    else:
        finish = max(inputs.read_cycles) + 1
    report.measured_half = {"row": finish, "col": finish}
    report.measured_full = 2 * inputs.side_span
    for side in ("row", "col"):
        trace_name = f"access_trace_{side}.csv"
        expected_rows = [
            (int(r["cycle"]), int(r["pmu"]), int(r["port"]), int(r["address"]), r["rw"])
            for r in _read_csv(run_dir, trace_name)
        ]
        got = sorted(observed[side])
        if got != sorted(expected_rows):
            missing = set(expected_rows) - set(got)
            extra = set(got) - set(expected_rows)
            sample = sorted(missing | extra)[:3]
            report.file_mismatches.append(
                f"{trace_name} disagrees with simulated traffic "
                f"({len(missing)} missing, {len(extra)} extra, sample {sample})"
            )
    return report


def check_dataflow_equivalence(report: SimReport, run_dir: str | Path) -> dict:
    """Did every real consumer receive exactly its incident real tokens,
    each exactly once, in folded-sequence order?"""
    run_dir = Path(run_dir)
    graph = _read_json(run_dir, "graph.json")
    order = graph["J"]
    real_order = graph["real_J"]
    real_offsets = set(graph["real_base_offsets"])
    failures: list[str] = []
    if not report.delivered:
        return {"ok": False, "failures": ["no iterations simulated"]}
    col_offsets = sorted((-d) % order for d in graph["base_offsets"])
    reader_offsets = {"row": list(graph["base_offsets"]), "col": col_offsets}
    for side in ("row", "col"):
        offsets = reader_offsets[side]
        for iteration, delivered in enumerate(report.delivered):
            got = delivered[side]
            for consumer in range(real_order):
                expected = set()
                for rank, d in enumerate(offsets):
                    producer = (consumer + d) % order
                    if side == "row":
                        real = (
                            producer < real_order
                            and (producer - consumer) % real_order in real_offsets
                        )
                    else:
                        real = (
                            producer < real_order
                            and (consumer - producer) % real_order in real_offsets
                        )
                    if real:
                        expected.add((rank, producer))
                received = got.get(consumer, [])
                pairs = [(rank, producer) for rank, producer, _ in received]
                if sorted(pairs) != sorted(set(pairs)):
                    failures.append(
                        f"iteration {iteration}: duplicate delivery to "
                        f"{side} consumer {consumer}"
                    )
                if set(pairs) != expected:
                    missing = expected - set(pairs)
                    surplus = set(pairs) - expected
                    failures.append(
                        f"iteration {iteration}: {side} consumer {consumer} "
                        f"missing {sorted(missing)} unexpected {sorted(surplus)}"
                    )
                ranks = [rank for rank, _ in pairs]
                if ranks != sorted(ranks):
                    failures.append(
                        f"iteration {iteration}: {side} consumer {consumer} "
                        f"received ranks out of schedule order"
                    )
    return {"ok": not failures and report.ok, "failures": failures}


def measure_throughput(folded: SimReport, unfolded: SimReport, q: int) -> dict:
    """Folded-to-unfolded cycle ratio with the fold-factor bound check."""
    ratio = folded.measured_full / unfolded.measured_full
    return {
        "folded_cycles": folded.measured_full,
        "unfolded_cycles": unfolded.measured_full,
        "ratio": ratio,
        "bound": q,
        "ok": folded.measured_full <= q * unfolded.measured_full,
    }
