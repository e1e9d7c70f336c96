"""Cycle-accurate token simulator of an emitted folded architecture.

This module deliberately reimplements the access semantics from the files
of a run (graph, plan, write LUTs, switch tables, netlist, timing)
rather than reusing the synthesis code, so a passing simulation also
validates the file formats and their mutual consistency.  The files
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
mod F; the codes are [0, rho_hat), and rho_hat, the family count, is the
invalid code no wire carries.  Each instance has one switch table,
lut_<instance>.csv: its out switches select a pattern's codes and its
in switches the same codes one cycle later, each reading the last port
that drives its code.  The slots are derived, not read: graph.json's γ
offsets pair into P = ⌈γ/2⌉ patterns, and plan.json's design option
runs them pattern-major (1) or fold-major (2) over the q folds.  A
memory holds two cells per slot, which bound the write LUTs' addresses.
Each write LUT row is a run of units writing one address; which
producers are real follows from graph.json's real J.  With HDL, each
array of hdl/folded_luts.vhd is compared integer by integer with the LUT
file column it is named after, and the in switch wiring of each
instance's FOR GENERATE in hdl/top.vhd with the wire families.
``families`` reads the wire families, the write LUTs, the ROM package
and the top level.

Compile turns each half into a plan, run by run and pattern by pattern:
a write run's tokens, cells and claimed memory ports are arithmetic in
the unit, and the units that drive a wire family form at most two ranges,
so the tokens, the deliveries (cell, expected key, rank) and the access
runs of the first iteration's trace are filled from ranges into
``array('q')`` columns.  A half's claims are checked against one another
once, as unit ranges; only those at a cycle where they conflict, or that
another half can reach, are claimed again in every iteration, as id
columns.  The access trace files are compared with the observed runs
before the replay: a file whose text is their rendering holds exactly
the observed accesses; any other is parsed and compared as a multiset.
Messages are decoded from ids and tokens only for a conflict, a misroute
or a trace mismatch.

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
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
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
    pipeline_level: str
    # Per slot, the (pattern, fold) both halves run in it
    slots: list[tuple[int, int]]
    read_cycles: list[int]
    write_cycles: list[int]
    side_span: int
    # Per instance, the codes (port0, port1) of each pattern, which its out
    # switches select and, a cycle later, its in switches
    switch_rows: dict[str, list[tuple[int, int]]]
    # Per instance, port code -> the folded offset of its wire family; the
    # codes are [0, families), and the family count is the invalid code
    wire_offsets: dict[str, dict[int, int]]
    # Per side, per slot, the real producers' write runs (port, first unit,
    # stop unit, address) as one column
    writes: dict[str, list[array]]
    reader_offsets: dict[str, list[int]]
    # Where hdl/folded_luts.vhd disagrees with the LUT files it mirrors, and
    # hdl/top.vhd with netlist.json's families
    hdl_mismatches: list[str]


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


def _json_option(data: object, key: str) -> int:
    value = json_int(data, key)
    if value not in (1, 2):
        raise ValueError(f"{key} must be 1 or 2, got {value}")
    return value


def _graph_fields(graph: object) -> tuple[int, tuple, int, tuple]:
    """J, base offsets, real J in [2, J] and real base offsets in
    [0, real J) of graph.json; its gamma must be the count of base
    offsets."""
    order = _field("graph.json", graph, "J")
    if order < 1:
        raise SimulationStructureError(f"graph.json: J must be positive, got {order}")
    base_offsets = _field("graph.json", graph, "base_offsets", json_ints)
    gamma = _field("graph.json", graph, "gamma")
    if gamma != len(base_offsets):
        raise SimulationStructureError(
            f"graph.json: gamma {gamma} is not the {len(base_offsets)} base offsets"
        )
    real_order = _field("graph.json", graph, "real_J")
    if not 2 <= real_order <= order:
        raise SimulationStructureError(f"graph.json: real_J {real_order} outside [2, {order}]")
    real_offsets = _field("graph.json", graph, "real_base_offsets", json_ints)
    for index, offset in enumerate(real_offsets):
        _outside("graph.json", f"real_base_offsets[{index}]", "offset", offset, 0, real_order)
    return order, base_offsets, real_order, real_offsets


def _reader_offsets(order: int, base_offsets: tuple[int, ...]) -> dict[str, list[int]]:
    """Each side's reader offsets by rank: row consumer i reads column
    i + d for each base offset d in file order, column consumer j reads
    row j + e for each e = -d mod J in ascending order."""
    return {"row": list(base_offsets), "col": sorted((-d) % order for d in base_offsets)}


def _real_masks(
    order: int, real_order: int, real_offsets: Set[int], side: str, offsets: list[int]
) -> list[bytearray]:
    """Per reader offset d, whether the edge of each ``side`` consumer c in
    [0, real J) to producer (c + d) mod J is one of the unexpanded graph's.
    Both ends must lie below real J, and col - row mod real J must be a
    real offset; that difference is the same for every consumer until the
    producer wraps past J, so each mask is filled run by run."""
    masks, sign = [], 1 if side == "row" else -1
    for d in offsets:
        masks.append(bytearray(real_order))
        first, producer = 0, d % order
        while first < real_order:
            wrap = min(real_order, first + order - producer)
            end = min(wrap, first + real_order - producer)
            if first < end and (producer - first) * sign % real_order in real_offsets:
                masks[-1][first:end] = b"\x01" * (end - first)
            first, producer = wrap, 0
    return masks


def _load(files: Mapping[str, str]) -> _Inputs:
    docs = {
        name: read_json(files, f"{name}.json")
        for name in ("graph", "plan", "timing", "netlist")
    }
    plan, timing, netlist = docs["plan"], docs["timing"], docs["netlist"]
    order, base_offsets, real_order, real_base_offsets = _graph_fields(docs["graph"])
    units = _field("plan.json", plan, "units_per_side")
    folds = _field("plan.json", plan, "q")
    if folds < 1:
        raise SimulationStructureError(f"plan.json: q must be positive, got {folds}")
    if order != folds * units:
        raise SimulationStructureError(
            f"graph.json: J {order} disagrees with plan.json: "
            f"q × units_per_side = {folds} × {units} = {folds * units}"
        )
    design_option = _field("plan.json", plan, "design_option", _json_option)
    pipeline_level = _field("plan.json", plan, "pipeline_level", _json_level)
    cycles = {
        key: list(_field("timing.json", timing, key, json_ints))
        for key in ("read_cycles", "write_cycles")
    }
    side_span = _field("timing.json", timing, "side_span")
    # P = ⌈γ/2⌉ patterns pair the reader offsets, and slot s runs pattern l
    # for fold k: (s // q, s mod q) under option 1, (s mod P, s // P) under
    # option 2.  The timing lists bound the slot count.
    patterns = (len(base_offsets) + 1) // 2
    slot_count = patterns * folds
    for key, values in cycles.items():
        if len(values) != slot_count:
            raise SimulationStructureError(
                f"timing.json: {key} has {len(values)} entries, not P · q = "
                f"{patterns} · {folds} = {slot_count}"
            )
    if design_option == 1:
        slots = [(l, k) for l in range(patterns) for k in range(folds)]
    else:
        slots = [(l, k) for k in range(folds) for l in range(patterns)]
    ranks = len(base_offsets)
    # Imported here, so that commands that replay nothing do not compile it.
    from .families import read_netlist, read_roms, read_write_lut, rom_mismatch, top_mismatch

    wire_offsets = read_netlist(netlist, units)
    switch_rows = {}
    for instance in _INSTANCES:
        name, invalid = f"lut_{instance}.csv", len(wire_offsets[instance])
        # Pattern l's row is the one of slot l: each slot in range, once.
        records: list = [None] * patterns
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
        switch_rows[instance] = [(port0, port1) for _, (_, port0, port1) in records]
        # Ranks past the reader offsets are the padded sentinel port,
        # which only the unused code may select.
        for pattern, (line, (_, *codes)) in enumerate(records):
            for b, code in enumerate(codes):
                if 2 * pattern + b >= ranks and code != invalid:
                    raise SimulationStructureError(
                        f"{name}:{line}:port{b} code {code} selects rank "
                        f"{2 * pattern + b}, past the {ranks} reader offsets "
                        f"(only {invalid} may)"
                    )
    roms = read_roms(files)
    hdl_mismatches = []
    if roms is not None:
        hdl_mismatches = top_mismatch(files, units, wire_offsets)
        for instance, rows in switch_rows.items():
            for b in (0, 1):
                array_name, twin = f"lut_{instance}_port{b}", f"lut_{instance}.csv port{b}"
                hdl_mismatches += rom_mismatch(roms, array_name, twin, [row[b] for row in rows])
    # Each write, token, delivery and access is one signed 64-bit integer.
    latest = abs(side_span) + max(map(abs, sum(cycles.values(), [])), default=0)
    span = max(2 * slot_count, 1)
    if max(order * order * ranks, (latest + 1) * units * 4 * span) >= 2**63:
        raise SimulationStructureError(
            f"timing.json: cycles up to {latest}, {slot_count} slots "
            f"and J {order} are too large to replay"
        )
    writes = {}
    for side in ("row", "col"):
        writes[side], addresses = read_write_lut(
            files, side, slots, units, real_order, roms is not None
        )
        if roms is not None:
            name = f"write_lut_{side}"
            hdl_mismatches += rom_mismatch(roms, name, f"{name}.csv address", addresses)
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
        switch_rows=switch_rows,
        wire_offsets=wire_offsets,
        writes=writes,
        reader_offsets=_reader_offsets(order, base_offsets),
        hdl_mismatches=hdl_mismatches,
    )


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
    the instance's switch table.  Every id fits an ``array('q')`` column.
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
            codes = [code for row in inputs.switch_rows[instance] for code in row]
            low = min(codes, default=0)
            width = max(codes, default=low - 1) - low + 1
            for direction in ("out", "in"):
                self.switches[(instance, direction)] = (base, low, width)
                base += self.units * width
            if base >= 2**63:
                raise SimulationStructureError(
                    f"lut_{instance}.csv: codes {low} to {low + width - 1} are too many to replay"
                )

    def ports(self, side: str) -> int:
        """The id of port 0 of ``side``'s memory unit 0; port b of unit m
        adds 2 · m + b."""
        return self.port_base + (side == "col") * 2 * self.units

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
    that the codes' order is the accesses' order by cycle, port, address,
    rw and pmu.  The unit is the last digit, so units pmu, pmu + 1, ...
    making one access have consecutive codes: a run, which is one row of a
    trace file, and which the compile keeps as one integer, first code ·
    (units + 1) + units.  Accesses with a pmu in [0, units), port 0 or 1,
    an address in [0, span) and rw "R" or "W" have a code, which covers
    every access the replay makes; no other access does."""

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

    def render(self, runs: Iterable[int]) -> str:
        """The trace file of the sorted ``runs``: the header, then one row
        (cycle, pmu, units, port, address, rw) per maximal run."""
        lines, units = [self.HEADER], self.units
        first = last = None
        for start, length in chain(map(divmod, runs, repeat(units + 1)), [(None, 0)]):
            if first is not None:
                if start == last and start % units:
                    last += length
                    continue
                cycle, pmu, port, address, rw = self.row(first)
                lines.append(f"{cycle},{pmu},{last - first},{port},{address},{rw}\n")
            first, last = start, (start or 0) + length
        return "".join(lines)


def _column() -> array:
    return array("q")


@dataclass
class _Half:
    """One side's read half and write half, compiled once from the files,
    run by run and pattern by pattern.

    A cell indexes the flat memory of a side, pmu · depth + address, then a
    blank cell that is never written.  A token is one integer, (producer ·
    J + consumer) · ranks + edge rank, and -1 stands for no token: a
    delivery to consumer c from producer p expects a token whose // ranks
    is its key p · J + c.  Deliveries and tokens are columns.  Claims are
    (cycle offset from the half's base, ids, ids all distinct, lowest id,
    highest id), 32-bit ids where they fit, and only those that the replay
    must claim in every iteration.
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
    # The token each cell of the reading side's memory holds after the
    # write half (its last write), -1 for none or the sentinel rank's filler
    tokens: array = field(default_factory=_column)
    # The producing half's tokens, and what the deliveries lose reading them
    source: array = field(default_factory=_column)
    arrived: tuple | None = None


def _ids(ids: list[int]) -> tuple[array, bool, int, int]:
    """The ids of a claim as a column, of 32-bit entries where they fit,
    whether they are all distinct, and the lowest and highest."""
    unique = set(ids)
    low, high = min(unique, default=0), max(unique, default=-1)
    typecode = "i" if -(2**31) <= low and high < 2**31 else "q"
    return array(typecode, ids), len(unique) == len(ids), low, high


def _interleave(first, second):
    """The entries of the equally long arrays ``first`` and ``second`` in turn."""
    merged = first * 2
    merged[::2], merged[1::2] = first, second
    return merged


def _compile(inputs: _Inputs) -> tuple[dict[str, _Half], _Resources, _Trace, dict[str, list]]:
    """Both halves, their resource ids, and the first iteration's access
    runs of each side's memory."""
    resources = _Resources(inputs)
    # A memory's cells are indexed by pmu · depth + address: two per slot,
    # which the reads address as [0, 2 · slots) and the writes as well.
    depth = 2 * len(inputs.slots)
    trace = _Trace(inputs.units, depth)
    observed: dict[str, list] = {"row": [], "col": []}
    ranks = len(inputs.reader_offsets["row"])
    halves = {side: _Half(side, other, inputs.order, ranks) for side, other in _SIDES.items()}
    # Each claim of either half lies in [low, high] of its base.
    cycles = inputs.read_cycles + inputs.write_cycles
    high = max(max(cycles, default=0), max(inputs.read_cycles, default=-1) + 1)
    reach = min(cycles, default=0), high, abs(inputs.side_span)
    for half_index, half in enumerate(halves.values()):
        rel_base = half_index * inputs.side_span
        writes = _compile_writes(inputs, half, rel_base, depth, trace, observed)
        reads = _compile_reads(inputs, half, rel_base, depth, trace, observed)
        _keep_claims(half, reads, writes, resources, reach)
    for half in halves.values():
        half.source = halves[half.producing].tokens
    return halves, resources, trace, observed


def _compile_writes(
    inputs: _Inputs, half: _Half, rel_base: int, depth: int, trace: _Trace, observed: dict
) -> list[tuple]:
    """Fill the write half's tokens run by run, each run's accesses into
    ``observed``; return each writing slot's (offset, runs, whether two of
    its runs write one place)."""
    units, order, ranks, width = inputs.units, inputs.order, half.ranks, trace.units
    offsets, slots = inputs.reader_offsets[half.reading], inputs.slots
    step = (order + 1) * ranks
    half.tokens = tokens = array("q", [-1]) * (units * depth + 1)
    seen, claims = observed[half.reading], []
    for slot, runs in enumerate(inputs.writes.pop(half.reading)):  # read once
        (l, k), cycle, last, clash = slots[slot], inputs.write_cycles[slot], (-1, 0), False
        # By port, then unit: where a unit's two ports write one cell, the
        # token of port 1 is the last, and runs on one port that overlap
        # claim a memory port twice.
        for port, pmu, stop, address in sorted(zip(*[iter(runs)] * 4)):
            clash, last = clash or (port, pmu) < last, (port, stop)
            first = ((((rel_base + cycle) * 2 + port) * trace.span + address) * 2 + 1) * width
            seen.append((first + pmu) * (width + 1) + stop - pmu)
            # Unit m's producer k · F + m feeds consumer d_t further mod J: the
            # token rises a step a unit until the consumer wraps.  A sentinel
            # write fills its cell with no token.
            t, producer, values = 2 * l + port, k * units + pmu, repeat(-1)
            if t < ranks:
                consumer = (producer + offsets[t]) % order
                token = (producer * order + consumer) * ranks + t
                wrap = token + (order - consumer) * step
                values = chain(range(token, wrap, step), count(wrap - order * ranks, step))
            cells = range(pmu * depth + address, stop * depth, depth)
            any(map(tokens.__setitem__, cells, values))
        if runs:
            claims.append((cycle, runs, clash))
    return claims


def _compile_reads(
    inputs: _Inputs, half: _Half, rel_base: int, depth: int, trace: _Trace, observed: dict
) -> list[tuple]:
    """Fill the read half's deliveries, each drive's accesses into
    ``observed``; return each slot's (offset, pattern).

    Unit i of a slot that selects code c on port b receives the cell at
    address 2 · slot + b' of unit (i + δ) mod F, b' the last port whose
    out code is c and δ its family's offset.  Its cell and key are
    arithmetic in i until the unit or the producer wraps.  Deliveries are
    made unit by unit, port by port, so each port's are gathered as a lane,
    and the two lanes interleaved where the edge is real."""
    instance, units, order = f"{half.reading}_reads", inputs.units, inputs.order
    width, offsets = trace.units, inputs.reader_offsets[half.reading]
    real = _real_masks(order, inputs.real_order, inputs.real_base_offsets, half.reading, offsets)
    blank, seen, claims, patterns = units * depth, observed[half.producing], [], {}
    # Per port, the cells and keys of its deliveries, and whether real;
    # their ranks, port by port
    lanes = (array("q"), array("q"), bytearray()), (array("q"), array("q"), bytearray())
    ranks = array("q")
    for slot, (l, k) in enumerate(inputs.slots):
        active, lpu = max(0, min(units, inputs.real_order - k * units)), k * units
        pattern = patterns.get((l, active))
        if pattern is None:
            pattern = patterns[(l, active)] = _pattern(inputs, instance, l, active)
        offset = inputs.read_cycles[slot]
        claims.append((offset, pattern))
        half.busy += active
        half.port_reads += active * len(pattern[1])
        for b, _, ranges in pattern[1]:
            first = (((rel_base + offset) * 2 + b) * trace.span + 2 * slot + b) * 2 * width
            seen += [(first + m) * (width + 1) + stop - m for m, stop in ranges]
        ranks += pattern[4] * active
        for (cells, keys, real_edges), (rank, source, delta) in zip(lanes, pattern[2]):
            if source is not None:
                address = 2 * slot + source
                cell = delta * depth + address
                values = chain(range(cell, blank, depth), count(address, depth))
                cells.extend(islice(values, active))
            else:
                cells += array("q", [blank]) * active
            d = offsets[rank] if rank is not None else 0
            key = (lpu + d) % order * order + lpu
            wrap = key + (order - (lpu + d) % order) * (order + 1)
            values = chain(range(key, wrap, order + 1), count(wrap - order**2, order + 1))
            keys.extend(islice(values, active))
            real_edges += real[rank][lpu : lpu + active] if rank is not None else bytes(active)
    (cells, keys, real_edges), (other_cells, other_keys, other_real_edges) = lanes
    keep = _interleave(real_edges, other_real_edges)
    half.delivery_ranks = array("q", compress(ranks, keep))
    half.cells = array("q", compress(_interleave(cells, other_cells), keep))
    del cells[:], other_cells[:]
    half.keys = array("q", compress(_interleave(keys, other_keys), keep))
    return claims


def _pattern(inputs: _Inputs, instance: str, l: int, active: int) -> tuple:
    """Pattern ``l`` with units [0, active) busy, shared by every slot that
    runs it: ``active``; its drives (port, code, ranges of the units that
    drive it); per port, its select (rank, the last port driving the
    selected code, that code's offset), all None where it selects
    nothing; its codes; a unit's ranks, 0 where none; and whether its out
    and in claims name an id twice.  The out and the in
    switches select the same codes.  Wire family (code, δ) carries out
    switch m's port to in switch (m - δ) mod F, so the units that drive
    the busy units are those rotated by δ."""
    families = inputs.wire_offsets[instance]
    invalid, codes = len(families), inputs.switch_rows[instance][l]
    drives, selects, units = [], [], inputs.units
    for b, code in enumerate(codes):
        if code != invalid and code not in families:
            raise SimulationStructureError(
                f"switch table references missing wire at "
                f"{instance} out switch 0 port {code} (pattern {l})"
            )
        if code != invalid:
            delta = families[code]
            ranges = ((delta, min(units, delta + active)), (0, delta + active - units))
            drives.append((b, code, [(m, stop) for m, stop in ranges if m < stop]))
    for b, code in enumerate(codes):
        sources = [None] + [port for port, out, _ in drives if out == code]
        select = 2 * l + b, sources[-1], families.get(code)
        selects.append(select if code != invalid else (None,) * 3)
    # Two ports of one code drive, or select, each of its ids twice: both
    # switches or neither, as every out code but the invalid one is a family.
    valid = [code for code in codes if code != invalid]
    twice = active > 0 and len(set(valid)) < len(valid)
    ranks = array("q", [rank or 0 for rank, _, _ in selects])
    return active, drives, selects, codes, ranks, twice


def _keep_claims(
    half: _Half, reads: list, writes: list, resources: _Resources, reach: tuple[int, int, int]
) -> None:
    """Keep, as id columns in event order, the claims that the replay must
    make in every iteration: those at an offset where the half's own claims
    can conflict, or that another half can reach.

    Claims of different kinds (out switch port and wire, memory port read,
    in switch port, memory port written) share no id.  So a claim conflicts
    with itself where its pattern drives or selects a code on both ports or
    its runs on one port overlap, and with another only at an offset two
    slots share.  Every half's claims lie in [low, high] of its base, and
    bases are whole side spans apart, so only an offset less than a span
    from both ends is out of every other half's reach.  The ids of a kept
    claim are listed one by one, as the replay claims them one by one."""
    low, high, span = reach
    offsets = Counter(offset for offset, _ in reads)
    cycles = Counter(cycle for cycle, _, _ in writes)
    recurring = {cycle for cycle, _, clash in writes if clash or cycles[cycle] > 1}
    for offset, (*_, twice) in reads:
        if twice or offsets[offset] > 1:
            recurring.update((offset, offset + 1))
    if high - low >= span:
        every = chain(offsets, (offset + 1 for offset in offsets), cycles)
        recurring.update(o for o in every if max(o - low, high - o) >= span)
    instance, units = f"{half.reading}_reads", resources.units
    wires, ports = _INSTANCES.index(instance), resources.ports(half.producing)
    (out_base, out_low, out_width), (in_base, in_low, in_width) = (
        resources.switches[(instance, direction)] for direction in ("out", "in")
    )
    for offset, (active, drives, selects, codes, *_) in reads:
        if offset in recurring:  # per driving unit and port: out switch, wire, memory port
            ids = [
                rid
                for m in range(units)
                for b, code, ranges in drives
                if any(start <= m < stop for start, stop in ranges)
                for rid in (
                    out_base + m * out_width + code - out_low,
                    (code * 2 + wires) * units + m,
                    ports + 2 * m + b,
                )
            ]
            half.read_claims.append((offset, *_ids(ids)))
        if offset + 1 in recurring:  # per busy unit and selecting port: in switch
            selected = [code for code, (rank, _, _) in zip(codes, selects) if rank is not None]
            ids = [in_base + i * in_width + c - in_low for i in range(active) for c in selected]
            half.read_claims.append((offset + 1, *_ids(ids)))
    ports = resources.ports(half.reading)
    for cycle, runs, _ in writes:
        if cycle in recurring:  # by place 2 · unit + port
            places = (range(2 * a + p, 2 * z, 2) for p, a, z, _ in zip(*[iter(runs)] * 4))
            places = chain.from_iterable(places)
            half.write_claims.append((cycle, *_ids([ports + place for place in sorted(places)])))


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
    the indices of those that did not arrive intact.  A memory as the
    producing half wrote it gives the same outcome every time, found once."""
    written = memory == half.source
    if written and half.arrived is not None:
        lost, messages = half.arrived
    else:
        ranks, order = half.ranks, half.order
        lost = tuple(
            index
            for index, cell, key in zip(count(), half.cells, half.keys)
            if memory[cell] // ranks != key  # no token, -1, has key -1
        )
        messages = []
        for index in lost:
            producer, consumer = divmod(half.keys[index], order)
            token = memory[half.cells[index]]
            delivery = (
                f"{half.reading} consumer {consumer} "
                f"rank {half.delivery_ranks[index]} expected producer {producer}"
            )
            messages.append(
                f"missing token: {delivery}"
                if token < 0
                else f"misrouted token: {delivery}, "
                f"got producer {token // ranks // order} edge {token % ranks}"
            )
        if written:
            half.arrived = lost, messages
    misroutes += messages
    return lost


def _check_trace(
    files: Mapping[str, str], side: str, trace: _Trace, observed: list[int]
) -> str | None:
    """Compare ``side``'s access trace file with the observed accesses, the
    runs of ``observed`` as ``_Trace.render`` reads them, as multisets;
    return the mismatch, if any.

    A file whose text is the runs' own rendering, the header and then the
    maximal runs in code order, holds exactly the observed accesses.  Only
    any other file is parsed, each run expanded into its accesses, and
    compared access by access."""
    name = f"access_trace_{side}.csv"
    observed = sorted(observed)
    if _text(files, name) == trace.render(observed):
        return None
    runs = map(divmod, observed, repeat(trace.units + 1))
    codes = [code for first, n in runs for code in range(first, first + n)]
    counts, unmatched = Counter(codes), len(codes)
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
    report = SimReport(iterations=iterations, file_mismatches=inputs.hdl_mismatches)
    read_cycles, write_cycles = inputs.read_cycles, inputs.write_cycles
    slot_count = len(inputs.slots)
    pipeline_level = inputs.pipeline_level
    del inputs  # the load-only indexes
    # The first iteration's traffic depends on the compiled plan alone, so
    # it is checked before the replay and not kept through it.
    for side in ("row", "col"):
        mismatch = _check_trace(files, side, trace, observed[side] if iterations > 0 else [])
        if mismatch is not None:
            report.file_mismatches.append(mismatch)
    del observed
    memory = {side: array("q", [-1]) * len(half.tokens) for side, half in halves.items()}
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
        memory[half.reading][:] = half.tokens

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
    their ``iteration i:`` prefix, for every iteration that had it.  Which
    consumers an offset's edges reach is read from its runs of real edges.
    """
    order, base_offsets, real_order, real_offsets = _graph_fields(
        read_json(_source(files), "graph.json")
    )
    real_offsets = set(real_offsets)
    failures: list[str] = []
    if report.iterations < 1:
        return {"ok": False, "failures": ["no iterations simulated"]}
    for side in ("row", "col"):
        keys, ranks = report.deliveries[side]
        # Per rank, its offset and whether each consumer's edge of it is real
        offsets = _reader_offsets(order, base_offsets)[side]
        incident = list(zip(offsets, _real_masks(order, real_order, real_offsets, side, offsets)))
        # Each delivery as the code key · width + rank, by consumer in the
        # order made (the load lets no delivery's rank reach width), against
        # each consumer's real edges in rank order.  When they are equal,
        # only a consumer whose delivery the census drops can fail.
        width = len(offsets)
        codes = [array("q") for _ in range(order)]
        for key, rank in zip(keys, ranks):
            codes[key % order].append(key * width + rank)
        edges, keep = array("q", [0]) * (width * real_order), bytearray(width * real_order)
        step = (order + 1) * width
        for rank, (d, real) in enumerate(incident):
            code = (d % order) * order * width + rank
            wrap = code + (order - d % order) * step
            values = chain(range(code, wrap, step), count(wrap - order**2 * width, step))
            edges[rank::width], keep[rank::width] = array("q", islice(values, real_order)), real
        made = array("q", chain.from_iterable(codes[:real_order]))
        clean = array("q", compress(edges, keep)) == made
        lost = report.lost[side]
        if lost or not clean:
            # consumer -> the indices of its deliveries, in the order made
            received = [array("q") for _ in range(order)]
            for index, key in enumerate(keys):
                received[key % order].append(index)
        verdicts = {}
        for indices in {(), *lost.values()}:
            dropped, verdicts[indices] = set(indices), []
            suspects = sorted({keys[index] % order for index in indices})
            for consumer in suspects if clean else range(real_order):
                pairs = [
                    (ranks[index], keys[index] // order)
                    for index in received[consumer]
                    if index not in dropped
                ]
                expected = {
                    (rank, (consumer + d) % order)
                    for rank, (d, real) in enumerate(incident)
                    if real[consumer]
                }
                verdicts[indices] += _consumer_failures(side, consumer, expected, pairs)
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
