"""Cycle-accurate token simulator of an emitted folded architecture.

This module deliberately reimplements the access semantics from the files
of a run (graph, fold sequences, write LUTs, switch tables, netlist,
timing) rather than reusing the synthesis code, so a passing simulation
also validates the file formats and their mutual consistency.  The files
come from a read-only ``name → text`` mapping: an in-memory render, or a
run directory through ``RunDirectory``, which reads and decodes each file
only when looked up.

One iteration is a row compute half, in which row units read the column
memories through the row_reads interconnect and write their collocated
row memories, then the mirrored col half; the column memories are
preloaded.  Every memory, wire and switch port access is checked for
exclusive use per cycle, every delivered token for being the one its
consumer and rank prescribe.

Load reads each file once and names the file, row and field of any
fault.  netlist.json lists one wire family per switch port code of an
instance: the F wires from each out switch m to in switch (m - delta)
mod F, delta the family's folded offset, so each wire's destination and
id are computed from its out switch and code (``families`` checks each
family and the annotations they determine).  Each write LUT row is a run
of units writing one address, expanded into codes by integer arithmetic;
which producers are real follows from graph.json's real J.  With HDL,
each array of hdl/folded_luts.vhd is compared integer by integer with
the LUT file column it is named after, the write LUTs' runs expanded;
hdl/top.vhd is not read.  Compile turns each half into a plan: the
resource ids each slot claims, the cell that feeds each unit-side switch
port, and the cell, expected key and rank of each real delivery.
Resource ids are computed, not tabulated, and every per-event fact
(claim id, write, token, delivery, memory access) is one entry of an
``array('q')`` column, or of a 32-bit one for claim ids that fit, so the
plan holds no object per event.  The first iteration's traffic depends
on the plan alone and is compared with each side's access trace file
before the replay: a file whose text is the runs of the sorted access
codes, rendered, holds exactly the observed accesses; any other is
parsed, its runs expanded, and compared as a multiset.  Replay runs
every half of every iteration at its absolute cycles; messages are
decoded from ids and tokens only for a conflict, a misroute or a trace
mismatch.

What each consumer received is kept as a loss census: the report keeps
each side's compiled deliveries once, as columns, and per iteration only
the indices of those that did not arrive intact, so the replay's memory
does not grow with the iteration count.  ``check_dataflow_equivalence``
checks each distinct loss set once against the incidence of graph.json.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Set
from dataclasses import dataclass, field
from itertools import chain, count, islice
from operator import itemgetter, le
from pathlib import Path

from .circulant import json_int, json_ints, json_value

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
    """File ``name``'s text."""
    if name not in files:
        raise SimulationStructureError(f"missing artifact {name}")
    return files[name]


def read_json(files: Mapping[str, str], name: str) -> object:
    """The parsed JSON of file ``name``; text that does not parse raises
    ``SimulationStructureError("<name>: not JSON ...")``."""
    return _parse_json(name, _text(files, name))


def _parse_json(name: str, text: str) -> object:
    try:
        return json.loads(text)
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
) -> Iterator[tuple[int, tuple]]:
    """(line, values) of each record, one at a time: the ``ints`` columns
    as integers, then the ``texts`` columns as strings.

    A missing column, a short row, a cell that is not an integer or a line
    the CSV reader rejects raises
    ``SimulationStructureError("file:line:field ...")``; the header is line 1.
    """
    fields = ints + texts
    reader = csv.reader(map(re.Match.group, re.finditer(r".*\n|.+", _text(files, name))))
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
            yield reader.line_num, values
    except csv.Error as exc:
        raise SimulationStructureError(f"{name}:{reader.line_num}: {exc}") from None


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
    capacity: int
    pipeline_level: str
    slots: dict[str, list[tuple[int, int]]]
    read_cycles: list[int]
    write_cycles: list[int]
    side_span: int
    out_rows: dict[str, list[tuple[int, int]]]
    in_rows: dict[str, list[tuple[int, int]]]
    invalid: dict[str, int]
    # Per instance, port code -> the folded offset of its wire family
    wire_offsets: dict[str, dict[int, int]]
    # Per side, per slot, the real producers' writes by unit and port as a
    # column, each (pmu · capacity + address) · 2 + port
    writes: dict[str, list[array]]
    reader_offsets: dict[str, list[int]]
    # Where hdl/folded_luts.vhd disagrees with the LUT files it mirrors
    rom_mismatches: list[str]


_INSTANCES = ("row_reads", "col_reads")
_SIDES = {"row": "col", "col": "row"}  # a half's reading side -> the side whose memories it reads


_PIPELINE_LEVELS = ("none", "writeback", "node", "graph")


def _json_level(data: object, key: str) -> str:
    value = json_value(data, key)
    if value not in _PIPELINE_LEVELS:
        raise ValueError(
            f"{key} must be one of {', '.join(_PIPELINE_LEVELS)}, got {value!r}"
        )
    return value


def _graph_fields(graph: object) -> tuple[int, tuple, int, tuple]:
    """J, base offsets, real J in [2, J] and real base offsets in
    [0, real J) of graph.json."""
    order = _field("graph.json", graph, "J")
    if order < 1:
        raise SimulationStructureError(f"graph.json: J must be positive, got {order}")
    real_order = _field("graph.json", graph, "real_J")
    if not 2 <= real_order <= order:
        raise SimulationStructureError(f"graph.json: real_J {real_order} outside [2, {order}]")
    real_offsets = _field("graph.json", graph, "real_base_offsets", json_ints)
    for index, offset in enumerate(real_offsets):
        _outside("graph.json", f"real_base_offsets[{index}]", "offset", offset, 0, real_order)
    return order, _field("graph.json", graph, "base_offsets", json_ints), real_order, real_offsets


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
    plan, timing, netlist = docs["plan"], docs["timing"], docs["netlist"]
    order, base_offsets, real_order, real_base_offsets = _graph_fields(docs["graph"])
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
    if len(slots["col"]) != slot_count:
        raise SimulationStructureError(
            f"fold_col.json: {len(slots['col'])} slots, but fold_row.json has {slot_count}"
        )
    for key, values in cycles.items():
        if len(values) != slot_count:
            raise SimulationStructureError(
                f"timing slot count disagrees with fold slots ({key})"
            )
    ranks = len(base_offsets)
    # Imported here, so that commands that replay nothing do not compile it.
    from .families import read_netlist

    invalid, wire_offsets = read_netlist(netlist, units)
    out_rows = {}
    in_rows = {}
    roms = _read_roms(files)
    rom_mismatches = []
    for instance in _INSTANCES:
        for kind, store in (("out", out_rows), ("in", in_rows)):
            name = f"lut_{instance}_{kind}.csv"
            # Pattern l's row is the one of slot l: each slot in range, once.
            records: list = [None] * pattern_count["row"]
            for line, values in _read_csv(files, name, ("slot", "port0", "port1")):
                slot = values[0]
                _outside(name, line, "slot", slot, 0, len(records))
                if records[slot] is not None:
                    raise SimulationStructureError(
                        f"{name}:{line}:slot {slot} repeats line {records[slot][0]}"
                    )
                records[slot] = line, values
            if None in records:
                raise SimulationStructureError(
                    f"{name}: slot {records.index(None)} missing, "
                    f"one row per pattern of {len(records)}"
                )
            store[instance] = [(port0, port1) for _, (_, port0, port1) in records]
            if roms is not None:
                for b in (0, 1):
                    rom_mismatches += _rom_mismatch(
                        roms,
                        f"lut_{instance}_{kind}_port{b}",
                        f"{name} port{b}",
                        [row[b] for row in store[instance]],
                    )
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
    # Each write, token, delivery and access is one signed 64-bit integer.
    latest = abs(side_span) + max(map(abs, sum(cycles.values(), [])), default=0)
    span = max(capacity, 2 * slot_count, 1)
    if max(order * order * ranks, (latest + 1) * units * 4 * span) >= 2**63:
        raise SimulationStructureError(
            f"timing.json, layout.json: cycles up to {latest}, capacity {capacity} "
            f"and J {order} are too large to replay"
        )
    writes = {}
    for side in ("row", "col"):
        writes[side], mismatches = _read_write_lut(
            files, side, slots[side], units, capacity, real_order, roms
        )
        rom_mismatches += mismatches
    return _Inputs(
        order=order,
        real_order=real_order,
        real_base_offsets=frozenset(real_base_offsets),
        units=units,
        capacity=capacity,
        pipeline_level=pipeline_level,
        slots=slots,
        read_cycles=cycles["read_cycles"],
        write_cycles=cycles["write_cycles"],
        side_span=side_span,
        out_rows=out_rows,
        in_rows=in_rows,
        invalid=invalid,
        wire_offsets=wire_offsets,
        writes=writes,
        reader_offsets=_reader_offsets(order, base_offsets),
        rom_mismatches=rom_mismatches,
    )


def _read_write_lut(
    files: Mapping[str, str],
    side: str,
    slots: list[tuple[int, int]],
    units: int,
    capacity: int,
    real_order: int,
    roms: dict[str, array] | None,
) -> tuple[list[array], list[str]]:
    """Per slot, the real producers' writes of write_lut_<side>.csv as a
    column of codes (pmu · capacity + address) · 2 + port, by unit and
    port, and where ``roms`` disagrees with the runs' addresses.  A row
    (slot, pmu, units, port, address) stands for units pmu to pmu + units
    - 1 writing ``address`` on ``port`` in ``slot``; unit m of fold k is a
    real producer when k · F + m < real J.  The ROM holds an address per
    unit, slot and port, unit by unit, compared as -1 where no run writes."""
    name = f"write_lut_{side}.csv"
    slot_count, step, stride = len(slots), 2 * capacity, 2 * len(slots)
    # Each slot's writes at their places 2 · unit + port, -1 where none
    by_slot = [
        array("q", [-1]) * (2 * max(0, min(units, real_order - k * units))) for _, k in slots
    ]
    placed = [0] * slot_count
    addresses = array("q", [-1]) * (units * stride) if roms is not None else None
    columns = ("slot", "pmu", "units", "port", "address")
    for line, (slot, pmu, count, port, address) in _read_csv(files, name, columns):
        _outside(name, line, "slot", slot, 0, slot_count)
        _outside(name, line, "port", port, 0, 2)
        _outside(name, line, "pmu", pmu, 0, units)
        _outside(name, line, "units", count, 1, units - pmu + 1)
        if not 0 <= address < capacity:
            bounds = f"address {address} outside capacity {capacity}"
            raise SimulationStructureError(f"{name}:{line}:{bounds}")
        if addresses is not None:
            start = pmu * stride + 2 * slot + port
            addresses[start : start + count * stride : stride] = array("q", [address]) * count
        stop = min(pmu + count, len(by_slot[slot]) // 2)
        if pmu < stop:
            code = (pmu * capacity + address) * 2 + port
            writes = range(code, code + (stop - pmu) * step, step)
            by_slot[slot][2 * pmu + port : 2 * stop : 2] = array("q", writes)
            placed[slot] += stop - pmu
    # A slot whose runs leave a place empty or fill one twice has its
    # writes read again and sorted by place.
    places = {s: [] for s, writes in enumerate(by_slot) if placed[s] > len(writes) or -1 in writes}
    if places:
        for _, (slot, pmu, count, port, address) in _read_csv(files, name, columns):
            stop = min(pmu + count, len(by_slot[slot]) // 2) if slot in places else pmu
            for unit in range(pmu, stop):
                places[slot].append((2 * unit + port, (unit * capacity + address) * 2 + port))
        for slot, writes in places.items():
            by_slot[slot] = array("q", map(itemgetter(1), sorted(writes)))
    if roms is None:
        return by_slot, []
    return by_slot, _rom_mismatch(roms, f"write_lut_{side}", f"{name} address", addresses)


# The ROM package of a run with HDL: one integer array per LUT file
_ROM_FILE = "hdl/folded_luts.vhd"
_ROM_NAMES = ("write_lut_row", "write_lut_col") + tuple(
    f"lut_{instance}_{kind}_port{b}"
    for instance in _INSTANCES
    for kind in ("out", "in")
    for b in (0, 1)
)
_ROM_CONSTANT = re.compile(r"\bCONSTANT\s+(\w+)([^;]*);")
_ROM_DECLARATION = re.compile(
    r"\s*:\s*integer_rom\(0 TO (\d+)\)\s*:=\s*\((?:\s*0\s*=>)?(.*)\)\s*", re.DOTALL
)
_ROM_VALUE = re.compile(r"-?\d{1,18}")


def _read_roms(files: Mapping[str, str]) -> dict[str, array] | None:
    """The arrays of the ROM package by name, or None for a run without
    HDL.  Each must read ``CONSTANT <name> : integer_rom(0 TO <n - 1>) :=
    (<n integers>);``, with ``(0 => <integer>)`` for one integer.  A
    missing package, a constant that does not parse or holds another
    count, and a missing or unknown name raise SimulationStructureError."""
    if not any(name.startswith("hdl/") for name in files):
        return None
    if _ROM_FILE not in files:
        raise SimulationStructureError(f"{_ROM_FILE}: absent, but the run has hdl/ files")
    roms = {}
    for match in _ROM_CONSTANT.finditer(files[_ROM_FILE]):
        name, declaration = match.groups()
        where = f"{_ROM_FILE}: constant {name}"
        parsed = _ROM_DECLARATION.fullmatch(declaration)
        if parsed is None:
            raise SimulationStructureError(f"{where} is not an integer_rom(0 TO n) aggregate")
        if name not in _ROM_NAMES or name in roms:
            raise SimulationStructureError(f"{where} is not one LUT of the run")
        top = int(parsed[1])
        values = array("q")
        for index, cell in enumerate(parsed[2].split(",")):
            if _ROM_VALUE.fullmatch(cell.strip()) is None:
                raise SimulationStructureError(
                    f"{where}({index}) {cell.strip()!r} is not an integer"
                )
            values.append(int(cell))
        if len(values) != top + 1:
            raise SimulationStructureError(
                f"{where} declares {top + 1} values but holds {len(values)}"
            )
        roms[name] = values
    for name in _ROM_NAMES:
        if name not in roms:
            raise SimulationStructureError(f"{_ROM_FILE}: constant {name} missing")
    return roms


def _rom_mismatch(roms: dict[str, array], name: str, twin: str, values) -> list[str]:
    """ROM array ``name`` against ``values``, the column ``twin`` of its
    LUT file: one message for any difference, naming the first."""
    rom = roms[name]
    if len(rom) != len(values):
        return [f"{_ROM_FILE}: {name} holds {len(rom)} values, {twin} {len(values)}"]
    differ = [index for index, (a, b) in enumerate(zip(rom, values)) if a != b]
    if not differ:
        return []
    index = differ[0]
    return [
        f"{_ROM_FILE}: {name}({index}) = {rom[index]}, but {twin}({index}) = "
        f"{values[index]} ({len(differ)} of {len(rom)} values differ)"
    ]


# ---------------------------------------------------------------------------
# report


@dataclass
class SimReport:
    """Verdicts, counters and measured lengths of one replay, plus its loss
    census.  ``to_json_dict`` is what sim_report.json stores; the census
    (``deliveries`` and ``lost``) is read by ``check_dataflow_equivalence``
    and is not stored.  The census holds each side's deliveries as two
    ``array('q')`` columns, not an object per delivery."""

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
    # The loss census.  Each side's real deliveries as the columns (keys,
    # ranks), compiled once and made in this order every iteration; a key
    # is expected producer · J + consumer.  Per side, iteration -> indices
    # of the deliveries that did not arrive intact.  An iteration that
    # lost none is absent, so a passing run keeps nothing per iteration.
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


class _Resources:
    """Integer ids of the wires, memory ports and switch ports a replay
    claims, computed rather than tabulated, and the text of each for a
    conflict message.

    The wires come first: wire ``<instance>_w_<m>_<code>`` has id
    (code · 2 + instance) · F + m, instance 0 for row_reads and 1 for
    col_reads.  Then follow consecutive ranges: the memory ports by (side,
    unit, port); then, for each instance and direction, the switch ports by
    (unit, code), the code range spanning the lowest to the highest code of
    that switch table.  Every id fits an ``array('q')`` column.
    """

    def __init__(self, inputs: _Inputs) -> None:
        self.units = max(inputs.units, 0)
        codes = max(max(ports, default=-1) for ports in inputs.wire_offsets.values()) + 1
        self.port_base = 2 * codes * self.units
        if self.port_base >= 2**63:
            raise SimulationStructureError(
                f"netlist.json: port codes up to {codes - 1} are too many to replay"
            )
        base = self.port_base + 4 * self.units
        # (instance, direction) -> (first id, lowest code, codes per unit)
        self.switches: dict[tuple[str, str], tuple[int, int, int]] = {}
        for instance in _INSTANCES:
            for direction, rows in (("out", inputs.out_rows), ("in", inputs.in_rows)):
                codes = [code for row in rows[instance] for code in row]
                low = min(codes, default=0)
                width = max(codes, default=low - 1) - low + 1
                self.switches[(instance, direction)] = (base, low, width)
                base += self.units * width
                if base >= 2**63:
                    raise SimulationStructureError(
                        f"lut_{instance}_{direction}.csv: codes {low} to "
                        f"{low + width - 1} are too many to replay"
                    )

    def port(self, side: str, pmu: int, port: int) -> int:
        return self.port_base + ((side == "col") * self.units + pmu) * 2 + port

    def switch(self, instance: str, direction: str, unit: int, code: int) -> int:
        """The id of port ``code`` of switch ``unit``, or -1 when the
        switch table holds no such code."""
        base, low, width = self.switches[(instance, direction)]
        if not low <= code < low + width:
            return -1
        return base + unit * width + code - low

    def conflict(self, rid: int, cycle: int) -> str:
        if rid < self.port_base:
            code, unit = divmod(rid, self.units)
            code, instance = divmod(code, 2)
            return f"wire double drive: {_INSTANCES[instance]}_w_{unit}_{code} cycle {cycle}"
        if rid < self.port_base + 4 * self.units:
            side, rest = divmod(rid - self.port_base, 2 * self.units)
            pmu, port = divmod(rest, 2)
            return (
                f"pmu port double access: side {('row', 'col')[side]} "
                f"pmu {pmu} port {port} cycle {cycle}"
            )
        for (instance, direction), (base, low, width) in self.switches.items():
            if rid < base + self.units * width:
                unit, code = divmod(rid - base, width)
                return (
                    f"switch port double select: {instance} {direction} {unit} "
                    f"port {code + low} cycle {cycle}"
                )
        raise ValueError(f"resource id {rid} out of range")


class _Trace:
    """Codes an access (cycle, pmu, port, address, rw) as one integer, so
    that a trace is a column of integers, and the codes' order is the
    accesses' order by cycle, port, address, rw and pmu.  The unit is the
    last digit, so units pmu, pmu + 1, ... making one access have
    consecutive codes: a run, which is one row of a trace file.  Accesses
    with a pmu in [0, units), port 0 or 1, an address in [0, span) and rw
    "R" or "W" have a code, which covers every access the replay makes; no
    other access does.  The compile codes its own accesses inline,
    unchecked."""

    HEADER = "cycle,pmu,units,port,address,rw\n"

    def __init__(self, units: int, span: int) -> None:
        self.units = max(units, 1)
        self.span = max(span, 1)

    def code(self, cycle: int, pmu: int, port: int, address: int, rw: str) -> int | None:
        if not (
            0 <= pmu < self.units
            and port in (0, 1)
            and 0 <= address < self.span
            and rw in ("R", "W")
        ):
            return None
        return (((cycle * 2 + port) * self.span + address) * 2 + (rw == "W")) * self.units + pmu

    def row(self, code: int) -> tuple[int, int, int, int, str]:
        code, pmu = divmod(code, self.units)
        code, write = divmod(code, 2)
        code, address = divmod(code, self.span)
        cycle, port = divmod(code, 2)
        return cycle, pmu, port, address, "RW"[write]

    def render(self, codes: Iterable[int]) -> str:
        """The trace file of ``codes``, in code order: the header, then one
        row (cycle, pmu, units, port, address, rw) per maximal run."""
        lines, units = [self.HEADER], self.units
        first = last = None
        for code in chain(codes, [None]):
            if first is not None:
                if code == last + 1 and code % units:
                    last = code
                    continue
                cycle, pmu, port, address, rw = self.row(first)
                lines.append(f"{cycle},{pmu},{last - first + 1},{port},{address},{rw}\n")
            first = last = code
        return "".join(lines)


def _column() -> array:
    return array("q")


@dataclass
class _Half:
    """One side's read half and write half, compiled once from the files.

    Claims are (cycle offset from the half's base, resource ids, ids all
    distinct, lowest id, highest id) in event order.  A cell indexes the
    flat memory of a side: one entry per (unit, address) that side's write
    LUT fills and a read can reach, plus a last entry that is never
    written.  A token is one integer, (producer · J + consumer) · ranks +
    edge rank, and -1 stands
    for no token: a delivery to consumer c from producer p expects a token
    whose // ranks is its key p · J + c.  Claim ids (32-bit where they fit),
    deliveries and tokens are columns, so the plan holds no object per event.
    """

    reading: str
    producing: str
    order: int
    ranks: int
    read_claims: list[tuple[int, array, bool, int, int]] = field(default_factory=list)
    # The real deliveries, in the order they are made: the cell each reads,
    # its key and its rank.
    cells: array = field(default_factory=_column)
    keys: array = field(default_factory=_column)
    delivery_ranks: array = field(default_factory=_column)
    busy: int = 0
    port_reads: int = 0
    write_claims: list[tuple[int, array, bool, int, int]] = field(default_factory=list)
    # The token each written cell of the reading side's memory holds after
    # the write half (its last write); -1 for the sentinel rank's filler.
    tokens: array = field(default_factory=_column)


def _ids(ids: list[int]) -> tuple[array, bool, int, int]:
    """The ids of a claim as a column, of 32-bit entries where they fit,
    whether they are all distinct, and the lowest and highest."""
    unique = set(ids)
    low, high = min(unique, default=0), max(unique, default=-1)
    typecode = "i" if -(2**31) <= low and high < 2**31 else "q"
    return array(typecode, ids), len(unique) == len(ids), low, high


def _compile(inputs: _Inputs) -> tuple[dict[str, _Half], _Resources, _Trace, dict[str, tuple]]:
    """Both halves, their resource ids, and the first iteration's access
    trace of each side's memory as access codes: the row half's, then the
    col half's, each slot's in code order."""
    resources = _Resources(inputs)
    ranks = len(inputs.reader_offsets["row"])
    slot_count = len(inputs.slots["row"])
    trace = _Trace(inputs.units, max(inputs.capacity, 2 * slot_count))
    # A memory's cells are indexed by pmu · depth + address: the reads
    # address [0, 2 · slots), and only below the capacity, so a cell at or
    # past the depth is never read and is not kept.
    depth = max(0, min(inputs.capacity, 2 * slot_count))
    # memory side -> the codes of the row half's and the col half's accesses
    observed = {side: (array("q"), array("q")) for side in ("row", "col")}
    halves = {side: _Half(side, other, inputs.order, ranks) for side, other in _SIDES.items()}
    cell_index = {}
    for half_index, (side, half) in enumerate(halves.items()):
        rel_base, seen = half_index * inputs.side_span, observed[side][half_index]
        cell_index[side] = _compile_writes(inputs, half, rel_base, depth, resources, trace, seen)
    for half_index, half in enumerate(halves.values()):
        rel_base, seen = half_index * inputs.side_span, observed[half.producing][half_index]
        index, blank = cell_index[half.producing], len(halves[half.producing].tokens)
        _compile_reads(inputs, half, rel_base, index, depth, blank, resources, trace, seen)
    del cell_index, index
    return halves, resources, trace, observed


def _compile_writes(
    inputs: _Inputs,
    half: _Half,
    rel_base: int,
    depth: int,
    resources: _Resources,
    trace: _Trace,
    seen: array,
) -> array:
    """Fill the write half, each slot's access codes into ``seen`` sorted;
    return the side's cell of each pmu · depth + address, or -1."""
    units, order, capacity = inputs.units, inputs.order, inputs.capacity
    width, span = trace.units, trace.span
    offsets = inputs.reader_offsets[half.reading]
    index = array("q", [-1]) * (max(units, 0) * depth)
    tokens = half.tokens
    for slot, writes in enumerate(inputs.writes.pop(half.reading)):  # read once
        if not writes:
            continue
        l, k = inputs.slots[half.reading][slot]
        cycle = inputs.write_cycles[slot]
        top = (rel_base + cycle) * 2
        group, codes = [], []
        for write in writes:
            place, port = divmod(write, 2)
            pmu, address = divmod(place, capacity)
            producer = k * units + pmu
            t = 2 * l + port
            token = -1  # sentinel: reserved-cell filler
            if t < half.ranks:
                consumer = (producer + offsets[t]) % order
                token = (producer * order + consumer) * half.ranks + t
            group.append(resources.port(half.reading, pmu, port))
            codes.append((((top + port) * span + address) * 2 + 1) * width + pmu)
            if address < depth:
                spot = pmu * depth + address
                cell = index[spot]
                if cell < 0:
                    index[spot] = len(tokens)
                    tokens.append(token)
                else:
                    tokens[cell] = token
        seen.extend(sorted(codes))
        half.write_claims.append((cycle, *_ids(group)))
    return index


def _compile_reads(
    inputs: _Inputs,
    half: _Half,
    rel_base: int,
    index: array,
    depth: int,
    blank: int,
    resources: _Resources,
    trace: _Trace,
    seen: array,
) -> None:
    """Fill the read half from the producing side's cell ``index``, each
    slot's access codes into ``seen`` by port and unit; a read of no
    written cell reads cell ``blank``, which is never written."""
    instance = f"{half.reading}_reads"
    units, order = inputs.units, inputs.order
    width, span = trace.units, trace.span
    cons_offsets = inputs.reader_offsets[half.reading]
    cells, keys, delivery_ranks = half.cells, half.keys, half.delivery_ranks
    # A slot runs pattern l on units [0, active); a pattern is kept until its last slot.
    slots = inputs.slots[half.reading]
    runs = [(l, max(0, min(units, inputs.real_order - k * units))) for l, k in slots]
    uses = Counter(runs)
    patterns: dict[tuple[int, int], tuple] = {}
    for slot, ((l, k), (_, active)) in enumerate(zip(slots, runs)):
        offset = inputs.read_cycles[slot]
        pattern = patterns.pop((l, active), None) or _compile_pattern(
            inputs, resources, instance, half.producing, l, active
        )
        uses[(l, active)] -= 1
        if uses[(l, active)]:
            patterns[(l, active)] = pattern
        out_claims, drives, in_claims, selects = pattern
        half.read_claims += ((offset, *out_claims), (offset + 1, *in_claims))
        half.busy += active
        half.port_reads += len(drives[0])
        for b in (0, 1):
            low = (((rel_base + offset) * 2 + b) * span + 2 * slot + b) * 2 * width
            seen.extend([low + m for m, port in zip(drives[0], drives[1]) if port == b])
        # Per unit-side switch port the last drive of the slot wins.
        driven: dict[int, int] = {}
        for m, b, target in zip(*drives):
            address = 2 * slot + b
            if target >= 0:
                cell = index[m * depth + address] if address < depth else -1
                driven[target] = blank if cell < 0 else cell
        for i, b, in_id in zip(*selects, in_claims[0]):
            lpu = k * units + i
            rank = 2 * l + b
            producer = (lpu + cons_offsets[rank]) % order
            if _is_real_edge(
                inputs.real_order, inputs.real_base_offsets, half.reading, lpu, producer
            ):
                cells.append(driven.get(in_id, blank))
                keys.append(producer * order + lpu)
                delivery_ranks.append(rank)


def _compile_pattern(
    inputs: _Inputs, resources: _Resources, instance: str, producing: str, l: int, active: int
) -> tuple:
    """Claims, drives and selects of pattern ``l`` with units [0, active)
    busy, shared by every slot that runs it, as ``array('q')`` columns: a
    drive is (memory unit, port, unit-side switch port it feeds or -1), a
    select (unit, rank within the pattern) with the in-claim's id."""
    invalid = inputs.invalid[instance]
    offsets = inputs.wire_offsets[instance]
    index = _INSTANCES.index(instance)
    # Memory-side switches drive their wires.
    out_ids, drives = [], (array("q"), array("q"), array("q"))
    for m in range(inputs.units):
        for b, code in enumerate(inputs.out_rows[instance][l]):
            if code == invalid:
                continue
            delta = offsets.get(code)
            if delta is None:
                raise SimulationStructureError(
                    f"switch table references missing wire at "
                    f"{instance} out switch {m} port {code} (pattern {l})"
                )
            dst_unit = (m - delta) % inputs.units
            if dst_unit >= active:
                continue
            out_switch = resources.switch(instance, "out", m, code)
            wire_id = (code * 2 + index) * inputs.units + m
            out_ids += (out_switch, wire_id, resources.port(producing, m, b))
            drives[0].append(m)
            drives[1].append(b)
            drives[2].append(resources.switch(instance, "in", dst_unit, code))
    # Unit-side switches select, one cycle staggered.
    in_ids, selects = [], (array("q"), array("q"))
    for i in range(active):
        for b, code in enumerate(inputs.in_rows[instance][l]):
            if code == invalid:
                continue
            in_ids.append(resources.switch(instance, "in", i, code))
            selects[0].append(i)
            selects[1].append(b)
    return _ids(out_ids), drives, _ids(in_ids), selects


# ---------------------------------------------------------------------------
# replay


def _claim(
    claims, base: int, use: dict[int, list], resources: _Resources, conflicts: list
) -> None:
    """Claim the ids of each claim in its cycle.  A cycle keeps the id columns
    claimed in it with their id ranges, not a set of their ids, which would
    cost tens of bytes per id; only claims whose ranges meet are compared."""
    for offset, ids, distinct, low, high in claims:
        cycle = base + offset
        held = use.setdefault(cycle, [])
        meets = [other for other, first, last in held if first <= high and low <= last]
        if distinct and (not meets or set(ids).isdisjoint(chain.from_iterable(meets))):
            held.append((ids, low, high))
            continue
        used = set().union(*(other for other, _, _ in held))
        for rid in ids:
            if rid in used:
                conflicts.append(resources.conflict(rid, cycle))
            used.add(rid)
        held.append((ids, low, high))


def _deliver(half: _Half, memory: array, misroutes: list) -> tuple[int, ...]:
    """Check each real delivery against the token its cell holds; return
    the indices of those that did not arrive intact."""
    ranks, order = half.ranks, half.order
    lost = [
        index
        for index, cell, key in zip(count(), half.cells, half.keys)
        if memory[cell] // ranks != key  # no token, -1, has key -1
    ]
    for index in lost:
        producer, consumer = divmod(half.keys[index], order)
        token = memory[half.cells[index]]
        delivery = (
            f"{half.reading} consumer {consumer} "
            f"rank {half.delivery_ranks[index]} expected producer {producer}"
        )
        misroutes.append(
            f"missing token: {delivery}"
            if token < 0
            else f"misrouted token: {delivery}, "
            f"got producer {token // ranks // order} edge {token % ranks}"
        )
    return tuple(lost)


def _check_trace(
    files: Mapping[str, str], side: str, trace: _Trace, observed: tuple[array, ...]
) -> str | None:
    """Compare ``side``'s access trace file with the observed access codes,
    the columns of ``observed`` one after another, as multisets; return
    the mismatch, if any.

    A file whose text is the codes' own rendering, the header and then
    their runs in code order, holds exactly the observed accesses.  Only
    any other file is parsed, each run expanded into its accesses, and
    compared access by access."""
    name = f"access_trace_{side}.csv"
    if not all(map(le, chain(*observed), islice(chain(*observed), 1, None))):
        observed = (array("q", sorted(chain(*observed))),)
    if _text(files, name) == trace.render(chain(*observed)):
        return None
    counts = Counter(chain(*observed))
    unmatched = sum(map(len, observed))
    for _, code in _trace_accesses(files, name, trace):
        count = counts.get(code)
        if not count:
            break
        counts[code] = count - 1
        unmatched -= 1
    else:
        if not unmatched:
            return None
    # Described as sets: an access that only occurs more often on one side
    # is neither missing nor extra.
    expected = {values for values, _ in _trace_accesses(files, name, trace)}
    got = {trace.row(code) for code in counts}
    missing = expected - got
    extra = got - expected
    sample = sorted(missing | extra)[:3]
    return (
        f"{name} disagrees with simulated traffic "
        f"({len(missing)} missing, {len(extra)} extra, sample {sample})"
    )


def _trace_accesses(
    files: Mapping[str, str], name: str, trace: _Trace
) -> Iterator[tuple[tuple, int | None]]:
    """Each access of the runs of trace file ``name``: its (cycle, pmu,
    port, address, rw) and its code, or None.  A run of fewer than one or
    more than all the units fails with its locus."""
    columns = ("cycle", "pmu", "units", "port", "address"), ("rw",)
    for line, (cycle, pmu, units, *access) in _read_csv(files, name, *columns):
        if not 1 <= units <= trace.units:
            raise SimulationStructureError(
                f"{name}:{line}:units {units} outside [1, {trace.units}]"
            )
        for unit in range(pmu, pmu + units):
            values = (cycle, unit, *access)
            yield values, trace.code(*values)


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
    halves, resources, trace, observed = _compile(inputs)
    units, side_span = inputs.units, inputs.side_span
    report = SimReport(iterations=iterations, file_mismatches=inputs.rom_mismatches)
    read_cycles, write_cycles = inputs.read_cycles, inputs.write_cycles
    slot_count = len(inputs.slots["row"])
    pipeline_level = inputs.pipeline_level
    del inputs  # the load-only indexes
    # The first iteration's traffic depends on the compiled plan alone, so
    # it is checked before the replay and not kept through it.
    for side in ("row", "col"):
        mismatch = _check_trace(files, side, trace, observed[side] if iterations > 0 else ())
        if mismatch is not None:
            report.file_mismatches.append(mismatch)
    del observed
    memory = {side: array("q", [-1]) * (len(half.tokens) + 1) for side, half in halves.items()}
    report.ppu_slots = units * slot_count * iterations
    report.pmu_port_slots = 2 * units * slot_count * iterations
    report.ppu_busy = {"row": 0, "col": 0}
    report.pmu_port_reads = {"row": 0, "col": 0}
    report.real_tokens = {"row": 0, "col": 0}
    report.deliveries = {side: (half.keys, half.delivery_ranks) for side, half in halves.items()}
    report.lost = {"row": {}, "col": {}}
    # cycle -> the id tuples of the switch ports, wires and memory ports it
    # has used.  Every event of a half lies at or above its floor: the
    # half's base plus the lowest offset in timing.json, or the base
    # itself.  Floors move monotonically with side_span, so a cycle below
    # the current floor can never be hit again (with side_span < 0 none is
    # ever below one) and is forgotten.
    use: dict[int, list] = {}
    reach = min(0, min(read_cycles, default=0), min(write_cycles, default=0))

    def write(half: _Half, base: int) -> None:
        _claim(half.write_claims, base, use, resources, report.conflicts)
        memory[half.reading][: len(half.tokens)] = half.tokens

    # Preload the column memories so the first row half has data.
    write(halves["col"], -2 * side_span)
    for iteration in range(iterations):
        for half_index, half in enumerate(halves.values()):
            base = (iteration * 2 + half_index) * side_span
            for cycle in [cycle for cycle in use if cycle < base + reach]:
                del use[cycle]
            _claim(half.read_claims, base, use, resources, report.conflicts)
            report.ppu_busy[half.reading] += half.busy
            report.pmu_port_reads[half.producing] += half.port_reads
            lost = _deliver(half, memory[half.producing], report.misroutes)
            if lost:
                report.lost[half.reading][iteration] = lost
            report.real_tokens[half.reading] += len(half.keys) - len(lost)
            write(half, base)

    # Measured lengths per the pipeline level's completion criterion: a
    # half is done when its last operand fetch retires, except with
    # graph-level pipelining where the last write marks completion.
    if pipeline_level == "graph":
        finish = max(write_cycles) + 1
    else:
        finish = max(read_cycles) + 1
    report.measured_half = {"row": finish, "col": finish}
    report.measured_full = 2 * side_span
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
        keys, ranks = report.deliveries[side]
        # consumer -> the indices of its deliveries, in the order made
        received = [array("q") for _ in range(max(order, real_order))]
        for index, key in enumerate(keys):
            received[key % order].append(index)
        lost = report.lost[side]
        dropped = {indices: set(indices) for indices in {(), *lost.values()}}
        verdicts = {indices: [] for indices in dropped}
        for consumer in range(real_order):
            incident = set()
            for rank, d in enumerate(reader_offsets[side]):
                producer = (consumer + d) % order
                if _is_real_edge(real_order, real_offsets, side, consumer, producer):
                    incident.add((rank, producer))
            for indices, failed in verdicts.items():
                pairs = [
                    (ranks[index], keys[index] // order)
                    for index in received[consumer]
                    if index not in dropped[indices]
                ]
                failed += _consumer_failures(side, consumer, incident, pairs)
        # An iteration absent from the census lost nothing; unless that
        # itself fails, only the iterations with losses can fail.
        for iteration in range(report.iterations) if verdicts[()] else sorted(lost):
            failures += (
                f"iteration {iteration}: {failure}"
                for failure in verdicts[lost.get(iteration, ())]
            )
    return {"ok": not failures and report.ok, "failures": failures}


def _consumer_failures(
    side: str, consumer: int, incident: set, pairs: list[tuple[int, int]]
) -> list[str]:
    """The dataflow failures of one consumer of ``side`` in one iteration,
    without the iteration prefix: it received the (rank, producer) ``pairs``
    in this order, and ``incident`` are its edges."""
    failures = []
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
        failures.append(f"{side} consumer {consumer} received ranks out of schedule order")
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
