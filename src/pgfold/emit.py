"""Serialization of every synthesis artifact.

Human-readable tables go out as CSV, machine artifacts as JSON with sorted
keys, and the hardware skeleton as VHDL-style text: memory units with a
counter read path and a LUT write path, switches with embedded
port-selection tables, and a structural top level wiring F units per side.
Everything is rendered from the graph, the fold plan and a subset of
``FORMATS``.  Data ports are ``DATA_WIDTH`` bits; the unit-id and address
widths are the fewest bits that index F units and a memory's capacity.
Each entity's ports are declared once and rendered into both its ENTITY
clause and its COMPONENT declaration in top.vhd.  All output is
deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import Counter
from itertools import islice
from pathlib import Path

from .circulant import CirculantBipartiteGraph, SelfCheckError
from .folding import FoldPlan, FoldedSequence, generate_folded_sequence
from .schedule import (
    MemoryLayout,
    Netlist,
    SwitchLUT,
    TimingPlan,
    WriteSchedule,
    build_netlist,
    full_timing,
    layout_addresses,
    other_side,
    resource_report,
    switch_luts,
    write_schedule,
)

__all__ = [
    "FORMATS",
    "format_schedule_cell",
    "emit_schedule_table",
    "parse_schedule_table",
    "decode_schedule_cell",
    "emit_netlist_json",
    "emit_graph_json",
    "emit_incidence_csv",
    "emit_switch_lut_csv",
    "emit_read_counter_params",
    "emit_write_lut_csv",
    "emit_access_trace",
    "emit_hdl",
    "check_hdl",
    "render_run_files",
    "emit_manifest_json",
    "write_run_directory",
    "sha256_text",
]


_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _json_text(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, joined a few
    thousand chunks at a time.  With ``indent`` the encoder yields one
    small string per token and ``dumps`` holds all of them before joining:
    about 800k strings for the 5.7 MB netlist of a J = 308 unfolded run."""
    chunks = _JSON_ENCODER.iterencode(data)
    pieces = []
    while piece := "".join(islice(chunks, 4096)):
        pieces.append(piece)
    pieces.append("\n")
    return "".join(pieces)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Artifact families a run can emit, in emission order.
FORMATS = ("csv", "json", "hdl")


# ---------------------------------------------------------------------------
# schedule table (CSV)


def format_schedule_cell(pu: int, first: int, second: int | None) -> str:
    if second is None:
        return f"[PU{pu} : MU{first}, D ]"
    return f"[PU{pu} : MU{first}, MU{second} ]"


_CELL_RE = re.compile(r"^\[PU(\d+) : MU(\d+), (?:MU(\d+)|D) \]$")


def decode_schedule_cell(cell: str) -> tuple[int, int, int | None]:
    match = _CELL_RE.match(cell)
    if match is None:
        raise ValueError(f"malformed schedule cell {cell!r}")
    pu, first, second = match.groups()
    return int(pu), int(first), None if second is None else int(second)


def emit_schedule_table(sequence: FoldedSequence) -> str:
    """Grid of one side's access schedule, one row per slot.

    A banner row opens each group: the q slots of one pattern under design
    option 1, the patterns of one fold under option 2.  Cells read
    "[PUi : MUa, MUb ]" with "D" in place of the dummy access.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    group_size = sequence.q if sequence.design_option == 1 else sequence.pattern_count
    for slot, (l, k) in enumerate(sequence.slots):
        if slot % group_size == 0:
            if sequence.design_option == 1:
                writer.writerow([f"Full Perfect Access Pattern {l}"])
            else:
                writer.writerow([f"Fold {k}"])
        cells = [
            format_schedule_cell(a["ppu"], a["pmus"][0], a["pmus"][1])
            for a in sequence.accesses(slot)
        ]
        writer.writerow([str(slot)] + cells)
    return buffer.getvalue()


def parse_schedule_table(text: str) -> dict:
    """Inverse of emit_schedule_table: banners plus decoded data rows."""
    banners: list[tuple[int, str]] = []
    rows: list[tuple[int, list[tuple[int, int, int | None]]]] = []
    for record in csv.reader(io.StringIO(text)):
        if not record:
            continue
        if len(record) == 1:
            banners.append((len(rows), record[0]))
            continue
        slot = int(record[0])
        rows.append((slot, [decode_schedule_cell(cell) for cell in record[1:]]))
    return {"banners": banners, "rows": rows}


# ---------------------------------------------------------------------------
# flat artifacts


def emit_netlist_json(netlist: Netlist) -> str:
    return _json_text(netlist.to_json_dict())


def emit_graph_json(graph: CirculantBipartiteGraph) -> str:
    return _json_text(graph.to_json_dict())


def emit_incidence_csv(graph: CirculantBipartiteGraph) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["node"] + [f"edge{t}" for t in range(graph.degree)])
    for i in range(graph.order):
        writer.writerow([i] + graph.incidence_row(i))
    return buffer.getvalue()


def emit_switch_lut_csv(lut: SwitchLUT) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["slot", "port0", "port1"])
    for slot, a, b in lut.to_rows():
        writer.writerow([slot, a, b])
    return buffer.getvalue()


def emit_read_counter_params(layout: MemoryLayout, graph: CirculantBipartiteGraph) -> str:
    """Read addressing is one shared counter: start 0, stride 1, wrap at
    capacity; the sentinel pattern gates the second port instead of
    disturbing the count."""
    return _json_text(
        {
            "format_version": 1,
            "start": 0,
            "stride": 1,
            "wrap": layout.capacity,
            "ports_per_slot": 2,
            "reserved_addresses": layout.reserved_addresses(graph.degree),
        }
    )


def emit_write_lut_csv(schedule: WriteSchedule) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["pmu", "index", "slot", "port", "address", "real", "producer_real"])
    per_pmu = schedule.per_pmu()
    for pmu in sorted(per_pmu):
        for index, e in enumerate(per_pmu[pmu]):
            writer.writerow(
                [
                    pmu,
                    index,
                    e.slot,
                    e.port,
                    e.address,
                    int(e.real),
                    int(e.producer_real),
                ]
            )
    return buffer.getvalue()


def emit_access_trace(
    pmu_side: str,
    graph: CirculantBipartiteGraph,
    plan: FoldPlan,
    timing: TimingPlan,
    sequences: dict[str, FoldedSequence],
    write_schedules: dict[str, WriteSchedule],
) -> str:
    """Every memory transaction touching one side's memory units.

    Reads come from the opposite side's compute half at counter addresses
    2*slot and 2*slot+1; writes come from this side's own half at the
    scheduled LUT addresses.  Idle dummy-node slots produce no traffic.
    """
    reader = other_side(pmu_side)
    sequence = sequences[reader]
    read_base = 0 if reader == "row" else timing.side_span
    write_base = 0 if pmu_side == "row" else timing.side_span
    rows: list[tuple[int, int, int, int, str]] = []
    for slot in range(sequence.slot_count):
        cycle = read_base + timing.read_cycles[slot]
        for access in sequence.accesses(slot):
            if access["lpu"] >= graph.real_order:
                continue
            p0, p1 = access["pmus"]
            rows.append((cycle, p0, 0, 2 * slot, "R"))
            if p1 is not None:
                rows.append((cycle, p1, 1, 2 * slot + 1, "R"))
    for e in write_schedules[pmu_side].entries:
        if not e.producer_real:
            continue
        cycle = write_base + timing.write_cycles[e.slot]
        rows.append((cycle, e.pmu, e.port, e.address, "W"))
    rows.sort()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["cycle", "pmu", "port", "address", "rw"])
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# HDL skeleton

# Word width of every data port and memory cell.
DATA_WIDTH = 8

# A port of an emitted entity: (name, mode, sizing generic).  A port with
# no generic is one STD_LOGIC; otherwise it is a vector of that width.
Port = tuple[str, str, str | None]

_CONTROL_PORTS: list[Port] = [(name, "IN", None) for name in ("clock", "reset", "enable")]


def _data_ports(prefix: str, mode: str, count: int) -> list[Port]:
    return [(f"{prefix}{j}", mode, "data_width") for j in range(count)]


_MEMORY_UNIT_PORTS: list[Port] = [
    *_CONTROL_PORTS,
    ("mu_id", "IN", "mu_width"),
    ("rw0", "IN", None),
    ("rw1", "IN", None),
    *_data_ports("data_in", "IN", 2),
    *_data_ports("data_out", "OUT", 2),
]
_PROCESSING_UNIT_PORTS: list[Port] = [
    *_CONTROL_PORTS,
    *_data_ports("data_in", "IN", 2),
    *_data_ports("data_out", "OUT", 2),
]


def _switch_ports(lut: SwitchLUT) -> list[Port]:
    """A memory-side switch fans two memory ports out to the wires; a
    unit-side switch selects two unit operands from them."""
    inputs, outputs = (2, lut.port_count) if lut.kind == "pmu_out" else (lut.port_count, 2)
    return [
        *_CONTROL_PORTS,
        *_data_ports("in", "IN", inputs),
        *_data_ports("out", "OUT", outputs),
    ]


def _port_list(ports: list[Port], widths: dict[str, int] | None = None) -> str:
    """The body of a PORT clause.  An ENTITY's (no ``widths``) aligns the
    names and sizes each vector by its generic; a COMPONENT's in top.vhd
    gives each vector's width as a number from ``widths``."""
    lines = []
    for name, mode, generic in ports:
        if generic is None:
            kind = "STD_LOGIC"
        elif widths is None:
            kind = f"STD_LOGIC_VECTOR({generic}-1 DOWNTO 0)"
        else:
            kind = f"STD_LOGIC_VECTOR({widths[generic] - 1} DOWNTO 0)"
        if widths is None:
            lines.append(f"    {name:<9} : {mode} {kind}")
        else:
            lines.append(f"      {name} : {mode} {kind}")
    return ";\n".join(lines)


def _width(count: int) -> int:
    """Bits that index ``count`` values: the unit id of F units, the
    address of a memory of that capacity."""
    return max(1, (count - 1).bit_length())


def _vhdl_int_array(values: list[int], per_line: int = 12) -> str:
    if len(values) == 1:
        return f"(0 => {values[0]})"
    chunks = []
    for start in range(0, len(values), per_line):
        chunks.append(", ".join(str(v) for v in values[start : start + per_line]))
    body = ",\n    ".join(chunks)
    return f"(\n    {body}\n  )"


def _memory_unit_vhdl(
    side: str, schedule: WriteSchedule, layout: MemoryLayout, units_per_side: int
) -> str:
    name = f"memory_unit_{side}"
    per_pmu = schedule.per_pmu()
    steps = len(per_pmu[0])
    flat: list[int] = []
    for pmu in range(units_per_side):
        flat.extend(e.address for e in per_pmu[pmu])
    lut_text = _vhdl_int_array(flat)
    return f"""-- Dual-port memory unit of the {side} side.
-- Read addressing is a plain counter stepping two cells per slot; write
-- addressing replays a per-unit LUT selected by the unit id.
LIBRARY ieee;
USE ieee.std_logic_1164.ALL;
USE ieee.numeric_std.ALL;

ENTITY {name} IS
  GENERIC (
    data_width : INTEGER := {DATA_WIDTH};
    addr_width : INTEGER := {_width(layout.capacity)};
    mu_width   : INTEGER := {_width(units_per_side)};
    depth      : INTEGER := {layout.capacity}
  );
  PORT (
{_port_list(_MEMORY_UNIT_PORTS)}
  );
END {name};

ARCHITECTURE behavioral OF {name} IS
  TYPE memory_array IS ARRAY (0 TO depth-1) OF STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
  TYPE write_lut_array IS ARRAY (0 TO {units_per_side * steps - 1}) OF INTEGER;
  CONSTANT steps_per_unit : INTEGER := {steps};
  CONSTANT write_lut : write_lut_array := {lut_text};
  SIGNAL storage      : memory_array;
  SIGNAL slot_counter : INTEGER RANGE 0 TO depth/2 - 1;
  SIGNAL write_step   : INTEGER RANGE 0 TO steps_per_unit - 1;
BEGIN
  access_process : PROCESS (clock)
    VARIABLE lut_base : INTEGER;
  BEGIN
    IF rising_edge(clock) THEN
      IF reset = '1' THEN
        slot_counter <= 0;
        write_step <= 0;
      ELSIF enable = '1' THEN
        lut_base := TO_INTEGER(UNSIGNED(mu_id)) * steps_per_unit;
        IF rw0 = '0' THEN
          data_out0 <= storage(2 * slot_counter);
        ELSE
          storage(write_lut(lut_base + write_step)) <= data_in0;
        END IF;
        IF rw1 = '0' THEN
          data_out1 <= storage(2 * slot_counter + 1);
        ELSE
          storage(write_lut(lut_base + write_step + 1)) <= data_in1;
        END IF;
        IF rw0 = '0' THEN
          IF slot_counter = depth/2 - 1 THEN
            slot_counter <= 0;
          ELSE
            slot_counter <= slot_counter + 1;
          END IF;
        ELSE
          IF write_step >= steps_per_unit - 2 THEN
            write_step <= 0;
          ELSE
            write_step <= write_step + 2;
          END IF;
        END IF;
      END IF;
    END IF;
  END PROCESS access_process;
END behavioral;
"""


def _switch_vhdl(lut: SwitchLUT) -> str:
    name = f"switch_{lut.instance}_{'out' if lut.kind == 'pmu_out' else 'in'}"
    ports = lut.port_count
    rows = lut.rows
    lut0 = _vhdl_int_array([a for a, _ in rows])
    lut1 = _vhdl_int_array([b for _, b in rows])
    if lut.kind == "pmu_out":
        body = "\n".join(
            f"""      IF port0_lut(step) = {j} THEN
        out{j} <= in0;
      ELSIF port1_lut(step) = {j} THEN
        out{j} <= in1;
      END IF;"""
            for j in range(ports)
        )
    else:
        body = "\n".join(
            f"""      IF port{b}_lut(step) = {j} THEN
        out{b} <= in{j};
      END IF;"""
            for b in (0, 1)
            for j in range(ports)
        )
    return f"""-- Port-selection switch for the {lut.instance} interconnect
-- ({'memory output side' if lut.kind == 'pmu_out' else 'unit input side'}).
-- The selection table has one row per access pattern; the invalid code
-- {lut.invalid_code} leaves every routed port untouched (tristate).
LIBRARY ieee;
USE ieee.std_logic_1164.ALL;
USE ieee.numeric_std.ALL;

ENTITY {name} IS
  GENERIC (
    data_width : INTEGER := {DATA_WIDTH}
  );
  PORT (
{_port_list(_switch_ports(lut))}
  );
END {name};

ARCHITECTURE behavioral OF {name} IS
  TYPE lut_array IS ARRAY (0 TO {len(rows) - 1}) OF INTEGER;
  CONSTANT port0_lut : lut_array := {lut0};
  CONSTANT port1_lut : lut_array := {lut1};
  SIGNAL step : INTEGER RANGE 0 TO {len(rows) - 1};
BEGIN
  route_process : PROCESS (clock)
  BEGIN
    IF rising_edge(clock) THEN
      IF reset = '1' THEN
        step <= 0;
      ELSIF enable = '1' THEN
{body}
        IF step = {len(rows) - 1} THEN
          step <= 0;
        ELSE
          step <= step + 1;
        END IF;
      END IF;
    END IF;
  END PROCESS route_process;
END behavioral;
"""


def _processing_unit_vhdl() -> str:
    return f"""-- Processing unit shell: the datapath body is application-defined;
-- this skeleton fixes the scheduling interface only.
LIBRARY ieee;
USE ieee.std_logic_1164.ALL;

ENTITY processing_unit IS
  GENERIC (
    data_width : INTEGER := {DATA_WIDTH}
  );
  PORT (
{_port_list(_PROCESSING_UNIT_PORTS)}
  );
END processing_unit;

ARCHITECTURE behavioral OF processing_unit IS
  SIGNAL hold0 : STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
  SIGNAL hold1 : STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
BEGIN
  body_process : PROCESS (clock)
  BEGIN
    IF rising_edge(clock) THEN
      IF reset = '1' THEN
        hold0 <= (OTHERS => '0');
        hold1 <= (OTHERS => '0');
      ELSIF enable = '1' THEN
        hold0 <= data_in0;
        hold1 <= data_in1;
        data_out0 <= hold0;
        data_out1 <= hold1;
      END IF;
    END IF;
  END PROCESS body_process;
END behavioral;
"""


def _top_vhdl(
    plan: FoldPlan, netlist: Netlist, luts: dict[str, dict[str, SwitchLUT]]
) -> str:
    f_units = plan.units_per_side
    mu_width = _width(f_units)
    components = {f"memory_unit_{side}": _MEMORY_UNIT_PORTS for side in ("row", "col")}
    components["processing_unit"] = _PROCESSING_UNIT_PORTS
    for instance in ("row_reads", "col_reads"):
        for kind in ("out", "in"):
            components[f"switch_{instance}_{kind}"] = _switch_ports(luts[instance][kind])
    widths = {"data_width": DATA_WIDTH, "mu_width": mu_width}
    decls = [
        f"""  COMPONENT {entity} IS
    PORT (
{_port_list(ports, widths)}
    );
  END COMPONENT;"""
        for entity, ports in components.items()
    ]

    # The local channels of unit i on a side: "write" carries its outputs
    # into the collocated memory, "read" that memory's outputs into the
    # interconnect, and "operand" the unit-side switch outputs into it.
    def channel(side: str, name: str, i: int) -> list[str]:
        return [f"{side}_{name}_{i}_{b}" for b in (0, 1)]

    signals = [
        signal
        for side in ("row", "col")
        for i in range(f_units)
        for name in ("write", "read", "operand")
        for signal in channel(side, name, i)
    ]
    wire_names: dict[tuple[str, int], str] = {}
    for wire in netlist.wires:
        signals.append(wire["name"])
        wire_names[tuple(wire["src"])] = wire_names[tuple(wire["dst"])] = wire["name"]

    insts: list[str] = []

    def port_map(label: str, component: str, actuals: list[str]) -> None:
        """Instance ``label`` with ``actuals`` bound, in order, to the
        component's ports after the three control inputs."""
        formals = [name for name, _, _ in components[component]]
        actuals = ["clock", "reset", "enable", *actuals]
        joined = ",\n    ".join(
            f"{formal} => {actual}" for formal, actual in zip(formals, actuals, strict=True)
        )
        insts.append(f"  {label} : {component} PORT MAP (\n    {joined}\n  );")

    for side in ("row", "col"):
        for i in range(f_units):
            mu_id = f"STD_LOGIC_VECTOR(TO_UNSIGNED({i}, {mu_width}))"
            write, operand = channel(side, "write", i), channel(side, "operand", i)
            memory = [mu_id, "enable", "enable", *write, *channel(side, "read", i)]
            port_map(f"{side}_pmu_{i}", f"memory_unit_{side}", memory)
            port_map(f"{side}_ppu_{i}", "processing_unit", [*operand, *write])
    for instance in ("row_reads", "col_reads"):
        reading = instance.split("_")[0]
        codes = range(luts[instance]["out"].port_count)
        for m in range(f_units):
            out_wires = [wire_names[(f"{instance}_out_{m}", j)] for j in codes]
            in_wires = [wire_names[(f"{instance}_in_{m}", j)] for j in codes]
            read = channel(other_side(reading), "read", m)
            operand = channel(reading, "operand", m)
            port_map(f"{instance}_out_{m}", f"switch_{instance}_out", [*read, *out_wires])
            port_map(f"{instance}_in_{m}", f"switch_{instance}_in", [*in_wires, *operand])

    decl_text = "\n".join(decls)
    vec = f"STD_LOGIC_VECTOR({DATA_WIDTH - 1} DOWNTO 0)"
    signal_text = "\n".join(f"  SIGNAL {name} : {vec};" for name in signals)
    inst_text = "\n".join(insts)
    return f"""-- Structural top level: {f_units} processing and {f_units} memory units
-- per side plus the two static interconnect instances.
LIBRARY ieee;
USE ieee.std_logic_1164.ALL;
USE ieee.numeric_std.ALL;

ENTITY folded_top IS
  PORT (
    clock  : IN STD_LOGIC;
    reset  : IN STD_LOGIC;
    enable : IN STD_LOGIC
  );
END folded_top;

ARCHITECTURE structural OF folded_top IS
{decl_text}
{signal_text}
BEGIN
{inst_text}
END structural;
"""


def emit_hdl(
    plan: FoldPlan,
    netlist: Netlist,
    luts: dict[str, dict[str, SwitchLUT]],
    write_schedules: dict[str, WriteSchedule],
    layout: MemoryLayout,
) -> dict[str, str]:
    """All HDL skeleton files, keyed by file name."""
    files: dict[str, str] = {}
    for side in ("row", "col"):
        files[f"memory_unit_{side}.vhd"] = _memory_unit_vhdl(
            side, write_schedules[side], layout, plan.units_per_side
        )
    files["processing_unit.vhd"] = _processing_unit_vhdl()
    for instance in ("row_reads", "col_reads"):
        for kind in ("out", "in"):
            files[f"switch_{instance}_{kind}.vhd"] = _switch_vhdl(luts[instance][kind])
    files["top.vhd"] = _top_vhdl(plan, netlist, luts)
    return files


_ENTITY_RE = re.compile(r"^ENTITY (\w+) IS$", re.MULTILINE)
_END_ENTITY_RE = re.compile(r"^END (\w+);$", re.MULTILINE)
_ARCH_RE = re.compile(r"^ARCHITECTURE (\w+) OF (\w+) IS$", re.MULTILINE)
_SIGNAL_RE = re.compile(r"^\s*SIGNAL (\w+)\s*:", re.MULTILINE)
_INSTANCE_RE = re.compile(r"^\s*(\w+) : (\w+) PORT MAP", re.MULTILINE)
_IDENTIFIER_RE = re.compile(r"\w+")


def check_hdl(files: dict[str, str]) -> list[str]:
    """Lexical well-formedness of the emitted HDL set.

    Checks entity/end balance, architecture attribution, that every
    declared signal is referenced beyond its declaration, and that every
    instantiated component has an emitted entity.  The signal check makes
    one pass per file: it tokenises the file once, and a signal's uses are
    the identifier tokens equal to its name, so a name that only occurs
    inside a longer identifier is not a use.
    """
    problems: list[str] = []
    entities: set[str] = set()
    for name, text in files.items():
        entities.update(_ENTITY_RE.findall(text))
    for name, text in files.items():
        declared = _ENTITY_RE.findall(text)
        ends = _END_ENTITY_RE.findall(text)
        for entity in declared:
            if entity not in ends:
                problems.append(f"{name}: entity {entity} has no matching end")
        for arch, of_entity in _ARCH_RE.findall(text):
            if of_entity not in declared:
                problems.append(
                    f"{name}: architecture {arch} targets unknown entity {of_entity}"
                )
            if arch not in ends:
                problems.append(f"{name}: architecture {arch} has no matching end")
        tokens = Counter(_IDENTIFIER_RE.findall(text))
        for sig in _SIGNAL_RE.findall(text):
            if tokens[sig] < 2:
                problems.append(f"{name}: signal {sig} declared but never used")
        for label, component in _INSTANCE_RE.findall(text):
            if component not in entities:
                problems.append(
                    f"{name}: instance {label} references missing component {component}"
                )
    return problems


# ---------------------------------------------------------------------------
# run directory


def render_run_files(
    graph: CirculantBipartiteGraph,
    plan: FoldPlan,
    formats: tuple[str, ...] = FORMATS,
) -> dict[str, str]:
    """Every artifact of one synthesis run in the selected ``formats``,
    keyed by its path in the run directory: the graph, folded sequences,
    schedule tables, memory layout and address files, switch tables,
    netlist, timing, access traces, resource report and the HDL, which
    must pass ``check_hdl``.  Nothing is written.
    """
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(f"unknown emission format {fmt!r}")
    sequences = {
        side: generate_folded_sequence(graph, plan, side) for side in ("row", "col")
    }
    schedules = {side: write_schedule(graph, plan, side) for side in ("row", "col")}
    luts = switch_luts(graph, plan)
    netlist = build_netlist(graph, plan)
    layout = layout_addresses(plan, graph)
    timing = full_timing(graph, plan)
    files: dict[str, str] = {}
    if "json" in formats:
        files["graph.json"] = emit_graph_json(graph)
        files["plan.json"] = _json_text(plan.to_json_dict())
        for side in ("row", "col"):
            files[f"fold_{side}.json"] = _json_text(sequences[side].to_json_dict())
        files["layout.json"] = _json_text(
            {
                **layout.to_json_dict(),
                "reserved_addresses": layout.reserved_addresses(graph.degree),
            }
        )
        files["netlist.json"] = emit_netlist_json(netlist)
        files["timing.json"] = _json_text(timing.to_json_dict())
        files["read_counter_params.json"] = emit_read_counter_params(layout, graph)
        files["resource_report.json"] = _json_text(resource_report(graph, plan))
    if "csv" in formats:
        files["incidence.csv"] = emit_incidence_csv(graph)
        for side in ("row", "col"):
            files[f"schedule_table_{side}.csv"] = emit_schedule_table(sequences[side])
            files[f"write_lut_{side}.csv"] = emit_write_lut_csv(schedules[side])
            files[f"access_trace_{side}.csv"] = emit_access_trace(
                side, graph, plan, timing, sequences, schedules
            )
        for instance in ("row_reads", "col_reads"):
            for kind in ("out", "in"):
                files[f"lut_{instance}_{kind}.csv"] = emit_switch_lut_csv(
                    luts[instance][kind]
                )
    if "hdl" in formats:
        hdl = emit_hdl(plan, netlist, luts, schedules, layout)
        problems = check_hdl(hdl)
        if problems:
            raise SelfCheckError("HDL self-check failed: " + "; ".join(problems))
        for name, text in hdl.items():
            files[f"hdl/{name}"] = text
    return files


def emit_manifest_json(files: dict[str, str]) -> str:
    """manifest.json of a run: the SHA-256 of each file's text, by name."""
    digests = {name: sha256_text(files[name]) for name in sorted(files)}
    return _json_text({"format_version": 1, "files": digests})


def write_run_directory(
    out_dir: str | Path,
    graph: CirculantBipartiteGraph,
    plan: FoldPlan,
    formats: tuple[str, ...] = FORMATS,
) -> dict:
    """Write the rendered artifacts of one synthesis run and manifest.json
    hashing all of them.  Returns the manifest dict.
    """
    files = render_run_files(graph, plan, formats)
    files["manifest.json"] = emit_manifest_json(files)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return json.loads(files["manifest.json"])
