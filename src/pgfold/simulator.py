"""Cycle-accurate token simulator of an emitted folded architecture.

This module deliberately reimplements the access semantics from the files
a run directory contains (graph, fold sequences, write LUTs, switch
tables, netlist, timing) rather than reusing the synthesis code, so a
passing simulation also validates the file formats and their mutual
consistency.  The files come from a read-only ``name → text`` mapping:
an in-memory render, or a run directory through ``RunDirectory``, which
lists the files once and reads and decodes each only when it is looked up.

One iteration is a row compute half followed by a col compute half.  Row
units read the column-side memories through the row_reads interconnect,
then write results into their collocated row-side memories; the col half
mirrors this.  Column memories are preloaded once so the first row half
has data.  Every memory, wire, and switch port access is checked for
exclusive use per cycle, every delivered token for being the one its
consumer and rank prescribe.

The replay runs in three steps.  Load reads each file once and rejects
text that is not UTF-8, JSON that does not parse, a JSON field of the
wrong type and out-of-range table values with their file, row and field.
Compile turns each side's read half and write half into a plan, once per
call: integer ids of the switch ports, wires and memory ports each slot
claims, the memory cell that feeds each unit-side switch port, and the
consumer, rank and expected producer of each real delivery.  Replay then
runs every half of every iteration at its absolute cycles, checking each
claim against the ids already used in that cycle and each delivery
against the token its cell holds; messages are built only for a conflict
or a misroute.

What each consumer received is kept as a loss census rather than a list
of tokens: every half makes the same compiled deliveries in every
iteration, so the report keeps each side's deliveries once and, per
iteration, only the indices of those that did not arrive intact.  A
passing run keeps nothing per iteration, and the replay's memory does not
grow with the iteration count.  ``check_dataflow_equivalence`` checks
each distinct loss set once against the incidence it derives from
graph.json.
"""

from __future__ import annotations

import csv
import json
import re
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from .circulant import is_int, json_int, json_ints, json_value

__all__ = [
    "RunDirectory",
    "SimulationStructureError",
    "read_json",
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


class RunDirectory(Mapping):
    """A run directory as a read-only ``name → text`` mapping.  Its files are
    listed once; each is read and decoded only when looked up, and bytes that
    are not UTF-8 raise SimulationStructureError naming the file."""

    def __init__(self, root: str | Path) -> None:
        root = Path(root)
        paths = (path for path in sorted(root.rglob("*")) if path.is_file())
        self._paths = {path.relative_to(root).as_posix(): path for path in paths}

    def __getitem__(self, name: str) -> str:
        try:
            return self._paths[name].read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SimulationStructureError(
                f"{name}: not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def _source(files: Mapping[str, str] | str | Path) -> Mapping[str, str]:
    return files if isinstance(files, Mapping) else RunDirectory(files)


def _text(files: Mapping[str, str], name: str) -> str:
    if name not in files:
        raise SimulationStructureError(f"missing artifact {name}")
    return files[name]


def read_json(files: Mapping[str, str], name: str) -> object:
    """The parsed JSON of file ``name``; text that does not parse raises
    ``SimulationStructureError("<name>: not JSON ...")``."""
    try:
        return json.loads(_text(files, name))
    except json.JSONDecodeError as exc:
        raise SimulationStructureError(f"{name}: not JSON ({exc})") from None


def _json_list(data: object, key: str) -> list:
    value = json_value(data, key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _field(name: str, data: object, key: str, read=json_int):
    """``read(data, key)`` of file ``name``'s JSON; a missing key or a value
    of the wrong type raises ``SimulationStructureError("<name>: <key> ...")``."""
    try:
        return read(data, key)
    except ValueError as exc:
        raise SimulationStructureError(f"{name}: {exc}") from None


def _read_csv(
    files: Mapping[str, str], name: str, ints: tuple[str, ...], texts: tuple[str, ...] = ()
) -> list[tuple[int, tuple]]:
    """(line, values) of each record: the ``ints`` columns as integers, then
    the ``texts`` columns as strings.

    A missing column, a short row, a cell that is not an integer or a line
    the CSV reader rejects raises
    ``SimulationStructureError("file:line:field ...")``; the header is line 1.
    """
    fields = ints + texts
    lines = re.finditer(r".*\n|.+", _text(files, name))  # one at a time, no copy
    reader = csv.reader(map(re.Match.group, lines))
    records = []
    try:
        header = {column: index for index, column in enumerate(next(reader, []))}
        for column in fields:
            if column not in header:
                raise SimulationStructureError(f"{name}:1:{column} column missing")
        pick = itemgetter(*(header[column] for column in fields))
        width = len(ints)
        for row in reader:
            if not row:
                continue  # a blank line holds no record
            try:
                cells = pick(row)
                values = (*map(int, cells[:width]), *cells[width:])
            except (IndexError, ValueError):
                raise SimulationStructureError(
                    _bad_cell(name, reader.line_num, row, fields, header, width)
                ) from None
            records.append((reader.line_num, values))
    except csv.Error as exc:
        raise SimulationStructureError(f"{name}:{reader.line_num}: {exc}") from None
    return records


def _bad_cell(name: str, line: int, row: list, fields, header: dict, width: int) -> str:
    """Locus of the first missing cell, or of the first of the ``width``
    integer cells that does not parse."""
    for position, column in enumerate(fields):
        index = header[column]
        if index >= len(row):
            return f"{name}:{line}:{column} missing"
        if position < width:
            try:
                int(row[index])
            except ValueError:
                return f"{name}:{line}:{column} {row[index]!r} is not an integer"
    return f"{name}:{line}: unreadable row"


def _outside(
    name: str, entry: int | str, column: str, value: int, low: int, high: int
) -> None:
    if not low <= value < high:
        raise SimulationStructureError(
            f"{name}:{entry}:{column} {value} outside [{low}, {high})"
        )


@dataclass
class _Inputs:
    order: int
    real_order: int
    real_base_offsets: frozenset[int]
    units: int
    pipeline_level: str
    slots: dict[str, list[tuple[int, int]]]
    read_cycles: list[int]
    write_cycles: list[int]
    side_span: int
    out_rows: dict[str, list[tuple[int, int]]]
    in_rows: dict[str, list[tuple[int, int]]]
    invalid: dict[str, int]
    wire_by_src: dict[tuple[str, int], tuple[str, str, int]]
    # (slot, pmu, port, address, producer_real) in replay order: by slot,
    # then file order
    writes: dict[str, list[tuple[int, int, int, int, int]]]
    reader_offsets: dict[str, list[int]]


_PIPELINE_LEVELS = ("none", "writeback", "node", "graph")


def _json_level(data: object, key: str) -> str:
    value = json_value(data, key)
    if value not in _PIPELINE_LEVELS:
        raise ValueError(
            f"{key} must be one of {', '.join(_PIPELINE_LEVELS)}, got {value!r}"
        )
    return value


def _graph_fields(graph: object) -> tuple[int, tuple, int, tuple]:
    """J, base offsets, real J and real base offsets of graph.json."""
    order = _field("graph.json", graph, "J")
    if order < 1:
        raise SimulationStructureError(f"graph.json: J must be positive, got {order}")
    return (
        order,
        _field("graph.json", graph, "base_offsets", json_ints),
        _field("graph.json", graph, "real_J"),
        _field("graph.json", graph, "real_base_offsets", json_ints),
    )


def _reader_offsets(order: int, base_offsets: tuple[int, ...]) -> dict[str, list[int]]:
    """Each side's reader offsets by rank: row consumer i reads column
    i + d for each base offset d in file order, column consumer j reads
    row j + e for each e = -d mod J in ascending order."""
    return {"row": list(base_offsets), "col": sorted((-d) % order for d in base_offsets)}


def _is_real_edge(
    real_order: int, real_offsets: Set[int], side: str, consumer: int, producer: int
) -> bool:
    """Is the edge between a ``side`` consumer and its producer one of the
    unexpanded graph's?"""
    row, col = (consumer, producer) if side == "row" else (producer, consumer)
    if row >= real_order or col >= real_order:
        return False
    return (col - row) % real_order in real_offsets


def _load(files: Mapping[str, str]) -> _Inputs:
    docs = {
        name: read_json(files, f"{name}.json")
        for name in ("graph", "plan", "layout", "timing", "netlist")
    }
    order, base_offsets, real_order, real_base_offsets = _graph_fields(docs["graph"])
    plan, timing, netlist = docs["plan"], docs["timing"], docs["netlist"]
    units = _field("plan.json", plan, "units_per_side")
    folds = _field("plan.json", plan, "q")
    if order != folds * units:
        raise SimulationStructureError(
            f"graph.json: J {order} disagrees with plan.json: "
            f"q × units_per_side = {folds} × {units} = {folds * units}"
        )
    pipeline_level = _field("plan.json", plan, "pipeline_level", _json_level)
    capacity = _field("layout.json", docs["layout"], "capacity")
    cycles = {
        key: list(_field("timing.json", timing, key, json_ints))
        for key in ("read_cycles", "write_cycles")
    }
    side_span = _field("timing.json", timing, "side_span")
    slots = {}
    pattern_count = {}
    for side in ("row", "col"):
        name = f"fold_{side}.json"
        fold = read_json(files, name)
        pattern_count[side] = len(_field(name, fold, "patterns", _json_list))
        if _field(name, fold, "F") != units:
            raise SimulationStructureError(
                f"{name} unit count disagrees with plan.json"
            )
        # A slot (l, k) runs pattern l for fold k.
        for index, slot in enumerate(_field(name, fold, "slots", _json_list)):
            entry = f"slots[{index}]"
            if not (
                isinstance(slot, list)
                and len(slot) == 2
                and all(type(value) is int for value in slot)
            ):
                raise SimulationStructureError(
                    f"{name}:{entry} {slot!r} is not a (pattern, fold) pair of integers"
                )
            _outside(name, entry, "pattern", slot[0], 0, pattern_count[side])
            _outside(name, entry, "fold", slot[1], 0, folds)
        slots[side] = [tuple(slot) for slot in fold["slots"]]
    if pattern_count["row"] != pattern_count["col"]:
        raise SimulationStructureError("sides disagree on pattern count")
    slot_count = len(slots["row"])
    for key, values in cycles.items():
        if len(values) != slot_count:
            raise SimulationStructureError(
                f"timing slot count disagrees with fold slots ({key})"
            )
    ranks = len(base_offsets)
    instances = netlist
    for key in ("annotations", "instances"):
        instances = _field("netlist.json", instances, key, json_value)
    out_rows = {}
    in_rows = {}
    invalid = {}
    for instance in ("row_reads", "col_reads"):
        annotation = _field("netlist.json", instances, instance, json_value)
        invalid[instance] = _field(f"netlist.json:{instance}", annotation, "rho_hat")
        for kind, store in (("out", out_rows), ("in", in_rows)):
            name = f"lut_{instance}_{kind}.csv"
            records = _read_csv(files, name, ("slot", "port0", "port1"))
            records.sort(key=lambda record: record[1][0])
            if len(records) != pattern_count["row"]:
                raise SimulationStructureError(f"{name} row count != pattern count")
            store[instance] = [(port0, port1) for _, (_, port0, port1) in records]
            if kind == "out":
                continue
            # Ranks past the reader offsets are the padded sentinel port,
            # which only the unused code may select.
            for pattern, (line, (_, *codes)) in enumerate(records):
                for b, code in enumerate(codes):
                    if 2 * pattern + b >= ranks and code != invalid[instance]:
                        raise SimulationStructureError(
                            f"{name}:{line}:port{b} code {code} selects rank "
                            f"{2 * pattern + b}, past the {ranks} reader offsets "
                            f"(only {invalid[instance]} may)"
                        )
    # source port -> (wire name, destination switch id, destination unit)
    wire_by_src = {}
    for index, wire in enumerate(_field("netlist.json", netlist, "wires", _json_list)):
        if not isinstance(wire, dict):
            raise SimulationStructureError(f"netlist.json:wires[{index}] is not an object")
        for key in ("src", "dst"):
            end = wire.get(key)
            if not (
                isinstance(end, list)
                and len(end) == 2
                and isinstance(end[0], str)
                and is_int(end[1])
            ):
                raise SimulationStructureError(
                    f"netlist.json:wires[{index}]:{key} {end!r} is not a (switch, port) pair"
                )
        wire_name = wire.get("name")
        if not isinstance(wire_name, str):
            raise SimulationStructureError(
                f"netlist.json:wires[{index}]:name {wire_name!r} is not a string"
            )
        dst = wire["dst"][0]
        try:
            dst_unit = int(dst.rpartition("_")[2])
        except ValueError:
            raise SimulationStructureError(
                f"netlist.json:wires[{index}]:dst {dst!r} does not end in a unit number"
            ) from None
        wire_by_src[tuple(wire["src"])] = (wire_name, dst, dst_unit)
    writes = {}
    for side in ("row", "col"):
        name = f"write_lut_{side}.csv"
        records = _read_csv(
            files, name, ("slot", "pmu", "port", "address", "producer_real")
        )
        for line, (slot, pmu, port, address, _) in records:
            _outside(name, line, "pmu", pmu, 0, units)
            _outside(name, line, "port", port, 0, 2)
            _outside(name, line, "slot", slot, 0, slot_count)
            if not 0 <= address < capacity:
                raise SimulationStructureError(
                    f"{name}:{line}:address {address} outside capacity {capacity}"
                )
        writes[side] = sorted((values for _, values in records), key=lambda w: w[0])
    return _Inputs(
        order=order,
        real_order=real_order,
        real_base_offsets=frozenset(real_base_offsets),
        units=units,
        pipeline_level=pipeline_level,
        slots=slots,
        read_cycles=cycles["read_cycles"],
        write_cycles=cycles["write_cycles"],
        side_span=side_span,
        out_rows=out_rows,
        in_rows=in_rows,
        invalid=invalid,
        wire_by_src=wire_by_src,
        writes=writes,
        reader_offsets=_reader_offsets(order, base_offsets),
    )


# ---------------------------------------------------------------------------
# report


@dataclass
class SimReport:
    """Verdicts, counters and measured lengths of one replay, plus its loss
    census.  ``to_json_dict`` is what sim_report.json stores; the census
    (``deliveries`` and ``lost``) is read by ``check_dataflow_equivalence``
    and is not stored."""

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
    # The loss census.  Each side's real deliveries as (consumer, rank,
    # expected producer), compiled once and made in this order every
    # iteration; per side, iteration -> indices of the deliveries that did
    # not arrive intact.  An iteration that lost none is absent, so a
    # passing run keeps nothing per iteration.
    deliveries: dict = field(default_factory=dict)
    lost: dict = field(default_factory=dict)

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
# compile


@dataclass
class _Half:
    """One side's read half and write half, compiled once from the files.

    Claims are (cycle offset from the half's base, resource ids, ids all
    distinct) in event order.  A cell indexes the flat memory of a side:
    one entry per (unit, address) that side's write LUT fills, plus a last
    entry that is never written.  A token is (producer · J + consumer,
    producer, edge rank).
    """

    reading: str
    producing: str
    read_claims: list[tuple[int, tuple[int, ...], bool]] = field(default_factory=list)
    # (cell, token key it must hold, consumer, rank, expected producer)
    deliveries: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    busy: int = 0
    port_reads: int = 0
    cells: int = 0  # written cells of the reading side's memory
    write_claims: list[tuple[int, tuple[int, ...], bool]] = field(default_factory=list)
    # (cell, token), with None for the sentinel rank's filler
    writes: list[tuple[int, tuple | None]] = field(default_factory=list)
    # first-iteration access trace rows of the producing and the reading side
    read_trace: list[tuple] = field(default_factory=list)
    write_trace: list[tuple] = field(default_factory=list)


def _ids(ids: list[int]) -> tuple[tuple[int, ...], bool]:
    """The ids of a claim, and whether they are all distinct."""
    return tuple(ids), len(set(ids)) == len(ids)


def _compile(inputs: _Inputs) -> tuple[dict[str, _Half], list[tuple]]:
    """Both halves, and the key of each resource id."""
    ids: dict[tuple, int] = {}

    def rid(key: tuple) -> int:
        return ids.setdefault(key, len(ids))

    halves = {"row": _Half("row", "col"), "col": _Half("col", "row")}
    cells = {
        side: _compile_writes(inputs, half, half_index * inputs.side_span, rid)
        for half_index, (side, half) in enumerate(halves.items())
    }
    for half_index, half in enumerate(halves.values()):
        _compile_reads(inputs, half, half_index * inputs.side_span, cells[half.producing], rid)
    return halves, list(ids)


def _compile_writes(inputs: _Inputs, half: _Half, rel_base: int, rid) -> dict:
    """Fill the write half; return the side's cell of each (unit, address)."""
    units, order = inputs.units, inputs.order
    offsets = inputs.reader_offsets[half.reading]
    cells: dict[tuple[int, int], int] = {}
    groups: dict[int, list[int]] = {}
    for slot, pmu, port, address, producer_real in inputs.writes[half.reading]:
        if not producer_real:
            continue
        l, k = inputs.slots[half.reading][slot]
        producer = k * units + pmu
        t = 2 * l + port
        token = None  # sentinel: reserved-cell filler
        if t < len(offsets):
            token = (producer * order + (producer + offsets[t]) % order, producer, t)
        groups.setdefault(slot, []).append(rid(("port", half.reading, pmu, port)))
        cell = cells.setdefault((pmu, address), len(cells))
        half.writes.append((cell, token))
        cycle = rel_base + inputs.write_cycles[slot]
        half.write_trace.append((cycle, pmu, port, address, "W"))
    half.write_claims = [
        (inputs.write_cycles[slot], *_ids(group)) for slot, group in groups.items()
    ]
    half.cells = len(cells)
    return cells


def _compile_reads(inputs: _Inputs, half: _Half, rel_base: int, cells: dict, rid) -> None:
    instance = f"{half.reading}_reads"
    units, order = inputs.units, inputs.order
    blank = len(cells)
    cons_offsets = inputs.reader_offsets[half.reading]
    patterns: dict[tuple[int, int], tuple] = {}
    for slot, (l, k) in enumerate(inputs.slots[half.reading]):
        offset = inputs.read_cycles[slot]
        active = max(0, min(units, inputs.real_order - k * units))
        pattern = patterns.get((l, active))
        if pattern is None:
            pattern = patterns[(l, active)] = _compile_pattern(
                inputs, instance, half.producing, l, active, rid
            )
        out_claims, drives, in_claims, selects = pattern
        half.read_claims += ((offset, *out_claims), (offset + 1, *in_claims))
        half.busy += active
        half.port_reads += len(drives)
        # Per unit-side switch port the last drive of the slot wins.
        driven: dict[tuple[str, int], int] = {}
        for m, b, dst, code in drives:
            address = 2 * slot + b
            half.read_trace.append((rel_base + offset, m, b, address, "R"))
            driven[(dst, code)] = cells.get((m, address), blank)
        for i, b, code, in_id in selects:
            lpu = k * units + i
            rank = 2 * l + b
            producer = (lpu + cons_offsets[rank]) % order
            if _is_real_edge(
                inputs.real_order, inputs.real_base_offsets, half.reading, lpu, producer
            ):
                cell = driven.get((in_id, code), blank)
                half.deliveries.append((cell, producer * order + lpu, lpu, rank, producer))


def _compile_pattern(
    inputs: _Inputs, instance: str, producing: str, l: int, active: int, rid
) -> tuple:
    """Claims, drives and selects of pattern ``l`` with units [0, active)
    busy, shared by every slot that runs it."""
    invalid = inputs.invalid[instance]
    # Memory-side switches drive their wires.
    out_ids = []
    drives = []
    for m in range(inputs.units):
        for b, code in enumerate(inputs.out_rows[instance][l]):
            if code == invalid:
                continue
            wire = inputs.wire_by_src.get((f"{instance}_out_{m}", code))
            if wire is None:
                raise SimulationStructureError(
                    f"switch table references missing wire at "
                    f"{instance} out switch {m} port {code} (pattern {l})"
                )
            wire_name, dst, dst_unit = wire
            if not 0 <= dst_unit < active:
                continue
            out_ids += (
                rid(("switch", instance, "out", m, code)),
                rid(("wire", wire_name)),
                rid(("port", producing, m, b)),
            )
            drives.append((m, b, dst, code))
    # Unit-side switches select, one cycle staggered.
    in_ids = []
    selects = []
    for i in range(active):
        for b, code in enumerate(inputs.in_rows[instance][l]):
            if code == invalid:
                continue
            in_ids.append(rid(("switch", instance, "in", i, code)))
            selects.append((i, b, code, f"{instance}_in_{i}"))
    return _ids(out_ids), drives, _ids(in_ids), selects


# ---------------------------------------------------------------------------
# replay


def _conflict(key: tuple, cycle: int) -> str:
    if key[0] == "port":
        _, side, pmu, port = key
        return f"pmu port double access: side {side} pmu {pmu} port {port} cycle {cycle}"
    if key[0] == "wire":
        return f"wire double drive: {key[1]} cycle {cycle}"
    _, instance, direction, unit, code = key
    return (
        f"switch port double select: {instance} {direction} {unit} "
        f"port {code} cycle {cycle}"
    )


def _claim(claims, base: int, use: dict[int, set[int]], keys: list, conflicts: list) -> None:
    for offset, ids, distinct in claims:
        cycle = base + offset
        used = use.get(cycle)
        if used is None:
            used = use[cycle] = set()
        if distinct and used.isdisjoint(ids):
            used.update(ids)
            continue
        for rid in ids:
            if rid in used:
                conflicts.append(_conflict(keys[rid], cycle))
            used.add(rid)


def _deliver(half: _Half, memory: list, misroutes: list) -> tuple[int, ...]:
    """Check each real delivery against the token its cell holds; return
    the indices of those that did not arrive intact."""
    lost = []
    for index, (cell, key, consumer, rank, producer) in enumerate(half.deliveries):
        token = memory[cell]
        if token is None:
            misroutes.append(
                f"missing token: {half.reading} consumer {consumer} "
                f"rank {rank} expected producer {producer}"
            )
        elif token[0] != key:
            misroutes.append(
                f"misrouted token: {half.reading} consumer {consumer} "
                f"rank {rank} expected producer {producer}, "
                f"got producer {token[1]} edge {token[2]}"
            )
        else:
            continue
        lost.append(index)
    return tuple(lost)


def simulate(files: Mapping[str, str] | str | Path, iterations: int = 1) -> SimReport:
    """Replay the emitted schedules cycle-accurately and audit them.

    ``files`` maps run-directory names to file text; a path stands for the
    run directory there.

    Checks per cycle: each memory port serves at most one access, each
    wire carries at most one datum, each switch port is selected at most
    once (the input set one cycle staggered).  Checks per delivery: the
    token that arrives is the one the graph prescribes for that consumer
    and rank.  Also compares all observed memory traffic of the first
    iteration with the emitted access trace files.
    """
    files = _source(files)
    inputs = _load(files)
    halves, keys = _compile(inputs)
    units = inputs.units
    report = SimReport(iterations=iterations)
    memory = {side: [None] * (half.cells + 1) for side, half in halves.items()}
    slot_count = len(inputs.slots["row"])
    report.ppu_slots = units * slot_count * iterations
    report.pmu_port_slots = 2 * units * slot_count * iterations
    report.ppu_busy = {"row": 0, "col": 0}
    report.pmu_port_reads = {"row": 0, "col": 0}
    report.real_tokens = {"row": 0, "col": 0}
    report.deliveries = {
        side: [delivery[2:] for delivery in half.deliveries]
        for side, half in halves.items()
    }
    report.lost = {"row": {}, "col": {}}
    # cycle -> ids of the switch ports, wires and memory ports it has used.
    # Every event of a half lies at or above its floor: the half's base
    # plus the lowest offset in timing.json, or the base itself.  Floors
    # move monotonically with side_span, so a cycle below the current floor
    # can never be hit again (with side_span < 0 none is ever below one)
    # and is forgotten.
    use: dict[int, set[int]] = {}
    reach = min(
        0, min(inputs.read_cycles, default=0), min(inputs.write_cycles, default=0)
    )

    def write(half: _Half, base: int) -> None:
        _claim(half.write_claims, base, use, keys, report.conflicts)
        cells = memory[half.reading]
        for cell, token in half.writes:
            cells[cell] = token

    # Preload the column memories so the first row half has data.
    write(halves["col"], -2 * inputs.side_span)
    for iteration in range(iterations):
        for half_index, half in enumerate(halves.values()):
            base = (iteration * 2 + half_index) * inputs.side_span
            for cycle in [cycle for cycle in use if cycle < base + reach]:
                del use[cycle]
            _claim(half.read_claims, base, use, keys, report.conflicts)
            report.ppu_busy[half.reading] += half.busy
            report.pmu_port_reads[half.producing] += half.port_reads
            lost = _deliver(half, memory[half.producing], report.misroutes)
            if lost:
                report.lost[half.reading][iteration] = lost
            report.real_tokens[half.reading] += len(half.deliveries) - len(lost)
            write(half, base)

    # Measured lengths per the pipeline level's completion criterion: a
    # half is done when its last operand fetch retires, except with
    # graph-level pipelining where the last write marks completion.
    if inputs.pipeline_level == "graph":
        finish = max(inputs.write_cycles) + 1
    else:
        finish = max(inputs.read_cycles) + 1
    report.measured_half = {"row": finish, "col": finish}
    report.measured_full = 2 * inputs.side_span
    observed = {"row": [], "col": []}
    if iterations > 0:
        for half in halves.values():
            observed[half.producing] += half.read_trace
            observed[half.reading] += half.write_trace
    for side in ("row", "col"):
        trace_name = f"access_trace_{side}.csv"
        expected_rows = [
            values
            for _, values in _read_csv(
                files, trace_name, ("cycle", "pmu", "port", "address"), ("rw",)
            )
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


def check_dataflow_equivalence(
    report: SimReport, files: Mapping[str, str] | str | Path
) -> dict:
    """Did every real consumer receive exactly its incident real tokens,
    each exactly once, in folded-sequence order?  ``files`` is the source
    ``simulate`` replayed.

    What a consumer received in an iteration is its share of the side's
    compiled deliveries minus those the census lists as lost, so each
    distinct loss set is checked once and its failures are repeated, with
    their ``iteration i:`` prefix, for every iteration that had it.
    """
    order, base_offsets, real_order, real_offsets = _graph_fields(
        read_json(_source(files), "graph.json")
    )
    real_offsets = set(real_offsets)
    failures: list[str] = []
    if report.iterations < 1:
        return {"ok": False, "failures": ["no iterations simulated"]}
    reader_offsets = _reader_offsets(order, base_offsets)
    for side in ("row", "col"):
        expected = []
        for consumer in range(real_order):
            incident = set()
            for rank, d in enumerate(reader_offsets[side]):
                producer = (consumer + d) % order
                if _is_real_edge(real_order, real_offsets, side, consumer, producer):
                    incident.add((rank, producer))
            expected.append(incident)
        # consumer -> (index, rank, producer) of its deliveries, in order
        received: dict[int, list[tuple[int, int, int]]] = {}
        for index, (consumer, rank, producer) in enumerate(report.deliveries[side]):
            received.setdefault(consumer, []).append((index, rank, producer))
        lost = report.lost[side]
        verdicts = {
            indices: _received_failures(side, expected, received, set(indices))
            for indices in {(), *lost.values()}
        }
        # An iteration absent from the census lost nothing; unless that
        # itself fails, only the iterations with losses can fail.
        for iteration in range(report.iterations) if verdicts[()] else sorted(lost):
            failures += (
                f"iteration {iteration}: {failure}"
                for failure in verdicts[lost.get(iteration, ())]
            )
    return {"ok": not failures and report.ok, "failures": failures}


def _received_failures(
    side: str, expected: list[set], received: dict, lost: set[int]
) -> list[str]:
    """The dataflow failures of one iteration of ``side`` that lost the
    deliveries ``lost``, without the iteration prefix."""
    failures = []
    for consumer, incident in enumerate(expected):
        pairs = [
            (rank, producer)
            for index, rank, producer in received.get(consumer, ())
            if index not in lost
        ]
        if sorted(pairs) != sorted(set(pairs)):
            failures.append(f"duplicate delivery to {side} consumer {consumer}")
        if set(pairs) != incident:
            missing = incident - set(pairs)
            surplus = set(pairs) - incident
            failures.append(
                f"{side} consumer {consumer} "
                f"missing {sorted(missing)} unexpected {sorted(surplus)}"
            )
        ranks = [rank for rank, _ in pairs]
        if ranks != sorted(ranks):
            failures.append(
                f"{side} consumer {consumer} received ranks out of schedule order"
            )
    return failures


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
