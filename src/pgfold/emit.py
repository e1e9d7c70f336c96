"""Serialization of every synthesis artifact.

Human-readable tables go out as CSV, machine artifacts as JSON with sorted
keys, and the hardware skeleton as VHDL-style text: memory units with a
counter read path and a LUT write path, switches with embedded
port-selection tables, and a structural top level wiring F units per side.
All output is deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import Counter
from dataclasses import dataclass
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
    "EmissionConfig",
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


@dataclass(frozen=True)
class EmissionConfig:
    """Word widths and format selection for emitted artifacts.

    Field widths left as None are derived from the architecture: the unit
    id needs ceil(log2 F) bits and an address ceil(log2 capacity) bits.
    Explicit widths narrower than required are a configuration error.
    """

    data_width: int = 8
    mu_width: int | None = None
    addr_width: int | None = None
    formats: tuple[str, ...] = ("csv", "json", "hdl")

    def __post_init__(self) -> None:
        if self.data_width < 1:
            raise ValueError("data width must be >= 1")
        for fmt in self.formats:
            if fmt not in ("csv", "json", "hdl"):
                raise ValueError(f"unknown emission format {fmt!r}")

    def resolved_mu_width(self, units_per_side: int) -> int:
        needed = max(1, (units_per_side - 1).bit_length())
        if self.mu_width is None:
            return needed
        if self.mu_width < needed:
            raise ValueError(
                f"unit id width overflow: {units_per_side} units need "
                f"{needed} bits, configured {self.mu_width}"
            )
        return self.mu_width

    def resolved_addr_width(self, capacity: int) -> int:
        needed = max(1, (capacity - 1).bit_length())
        if self.addr_width is None:
            return needed
        if self.addr_width < needed:
            raise ValueError(
                f"address width overflow: capacity {capacity} needs "
                f"{needed} bits, configured {self.addr_width}"
            )
        return self.addr_width


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


def _vhdl_int_array(values: list[int], per_line: int = 12) -> str:
    if len(values) == 1:
        return f"(0 => {values[0]})"
    chunks = []
    for start in range(0, len(values), per_line):
        chunks.append(", ".join(str(v) for v in values[start : start + per_line]))
    body = ",\n    ".join(chunks)
    return f"(\n    {body}\n  )"


def _memory_unit_vhdl(
    side: str,
    schedule: WriteSchedule,
    layout: MemoryLayout,
    units_per_side: int,
    config: EmissionConfig,
) -> str:
    name = f"memory_unit_{side}"
    mu_width = config.resolved_mu_width(units_per_side)
    addr_width = config.resolved_addr_width(layout.capacity)
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
    data_width : INTEGER := {config.data_width};
    addr_width : INTEGER := {addr_width};
    mu_width   : INTEGER := {mu_width};
    depth      : INTEGER := {layout.capacity}
  );
  PORT (
    clock     : IN STD_LOGIC;
    reset     : IN STD_LOGIC;
    enable    : IN STD_LOGIC;
    mu_id     : IN STD_LOGIC_VECTOR(mu_width-1 DOWNTO 0);
    rw0       : IN STD_LOGIC;
    rw1       : IN STD_LOGIC;
    data_in0  : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
    data_in1  : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
    data_out0 : OUT STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
    data_out1 : OUT STD_LOGIC_VECTOR(data_width-1 DOWNTO 0)
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


def _switch_vhdl(lut: SwitchLUT, config: EmissionConfig) -> str:
    name = f"switch_{lut.instance}_{'out' if lut.kind == 'pmu_out' else 'in'}"
    ports = lut.port_count
    rows = lut.rows
    lut0 = _vhdl_int_array([a for a, _ in rows])
    lut1 = _vhdl_int_array([b for _, b in rows])
    if lut.kind == "pmu_out":
        data_ports = "\n".join(
            [
                "    in0       : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);",
                "    in1       : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);",
            ]
            + [
                f"    out{j}      : OUT STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);"
                for j in range(ports)
            ]
        ).rstrip(";")
        body = "\n".join(
            f"""      IF port0_lut(step) = {j} THEN
        out{j} <= in0;
      ELSIF port1_lut(step) = {j} THEN
        out{j} <= in1;
      END IF;"""
            for j in range(ports)
        )
    else:
        data_ports = "\n".join(
            [
                f"    in{j}       : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);"
                for j in range(ports)
            ]
            + [
                "    out0      : OUT STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);",
                "    out1      : OUT STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);",
            ]
        ).rstrip(";")
        select0 = "\n".join(
            f"""      IF port0_lut(step) = {j} THEN
        out0 <= in{j};
      END IF;"""
            for j in range(ports)
        )
        select1 = "\n".join(
            f"""      IF port1_lut(step) = {j} THEN
        out1 <= in{j};
      END IF;"""
            for j in range(ports)
        )
        body = select0 + "\n" + select1
    return f"""-- Port-selection switch for the {lut.instance} interconnect
-- ({'memory output side' if lut.kind == 'pmu_out' else 'unit input side'}).
-- The selection table has one row per access pattern; the invalid code
-- {lut.invalid_code} leaves every routed port untouched (tristate).
LIBRARY ieee;
USE ieee.std_logic_1164.ALL;
USE ieee.numeric_std.ALL;

ENTITY {name} IS
  GENERIC (
    data_width : INTEGER := {config.data_width}
  );
  PORT (
    clock     : IN STD_LOGIC;
    reset     : IN STD_LOGIC;
    enable    : IN STD_LOGIC;
{data_ports}
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


def _processing_unit_vhdl(config: EmissionConfig) -> str:
    return f"""-- Processing unit shell: the datapath body is application-defined;
-- this skeleton fixes the scheduling interface only.
LIBRARY ieee;
USE ieee.std_logic_1164.ALL;

ENTITY processing_unit IS
  GENERIC (
    data_width : INTEGER := {config.data_width}
  );
  PORT (
    clock     : IN STD_LOGIC;
    reset     : IN STD_LOGIC;
    enable    : IN STD_LOGIC;
    data_in0  : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
    data_in1  : IN STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
    data_out0 : OUT STD_LOGIC_VECTOR(data_width-1 DOWNTO 0);
    data_out1 : OUT STD_LOGIC_VECTOR(data_width-1 DOWNTO 0)
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


def _component_decl(entity_name: str, port_lines: list[str]) -> str:
    ports = ";\n".join("      " + line for line in port_lines)
    return f"""  COMPONENT {entity_name} IS
    PORT (
{ports}
    );
  END COMPONENT;"""


def _top_vhdl(
    graph: CirculantBipartiteGraph,
    plan: FoldPlan,
    netlist: Netlist,
    luts: dict[str, dict[str, SwitchLUT]],
    config: EmissionConfig,
) -> str:
    f_units = plan.units_per_side
    mu_width = config.resolved_mu_width(f_units)
    dw = config.data_width
    vec = f"STD_LOGIC_VECTOR({dw - 1} DOWNTO 0)"
    decls: list[str] = []
    mu_ports = [
        "clock : IN STD_LOGIC",
        "reset : IN STD_LOGIC",
        "enable : IN STD_LOGIC",
        f"mu_id : IN STD_LOGIC_VECTOR({mu_width - 1} DOWNTO 0)",
        "rw0 : IN STD_LOGIC",
        "rw1 : IN STD_LOGIC",
        f"data_in0 : IN {vec}",
        f"data_in1 : IN {vec}",
        f"data_out0 : OUT {vec}",
        f"data_out1 : OUT {vec}",
    ]
    pu_ports = [
        "clock : IN STD_LOGIC",
        "reset : IN STD_LOGIC",
        "enable : IN STD_LOGIC",
        f"data_in0 : IN {vec}",
        f"data_in1 : IN {vec}",
        f"data_out0 : OUT {vec}",
        f"data_out1 : OUT {vec}",
    ]
    for side in ("row", "col"):
        decls.append(_component_decl(f"memory_unit_{side}", mu_ports))
    decls.append(_component_decl("processing_unit", pu_ports))
    for instance in ("row_reads", "col_reads"):
        out_lut = luts[instance]["out"]
        ports = out_lut.port_count
        out_ports = (
            ["clock : IN STD_LOGIC", "reset : IN STD_LOGIC", "enable : IN STD_LOGIC"]
            + [f"in0 : IN {vec}", f"in1 : IN {vec}"]
            + [f"out{j} : OUT {vec}" for j in range(ports)]
        )
        in_ports = (
            ["clock : IN STD_LOGIC", "reset : IN STD_LOGIC", "enable : IN STD_LOGIC"]
            + [f"in{j} : IN {vec}" for j in range(ports)]
            + [f"out0 : OUT {vec}", f"out1 : OUT {vec}"]
        )
        decls.append(_component_decl(f"switch_{instance}_out", out_ports))
        decls.append(_component_decl(f"switch_{instance}_in", in_ports))

    signals: list[str] = []
    assocs: dict[str, dict[str, str]] = {}

    def signal(name: str) -> str:
        signals.append(f"  SIGNAL {name} : {vec};")
        return name

    # Local channels: unit outputs feed the collocated memory write ports,
    # memory read ports feed back through the interconnect.
    for side in ("row", "col"):
        for i in range(f_units):
            assocs[f"{side}_pmu_{i}"] = {
                "data_in0": signal(f"{side}_write_{i}_0"),
                "data_in1": signal(f"{side}_write_{i}_1"),
                "data_out0": signal(f"{side}_read_{i}_0"),
                "data_out1": signal(f"{side}_read_{i}_1"),
            }
            assocs[f"{side}_ppu_{i}"] = {
                "data_in0": signal(f"{side}_operand_{i}_0"),
                "data_in1": signal(f"{side}_operand_{i}_1"),
                "data_out0": f"{side}_write_{i}_0",
                "data_out1": f"{side}_write_{i}_1",
            }
    wire_names: dict[tuple[str, int], str] = {}
    for wire in netlist.wires:
        name = signal(wire["name"])
        wire_names[(wire["src"][0], wire["src"][1])] = name
        wire_names[(wire["dst"][0], wire["dst"][1])] = name

    insts: list[str] = []

    def port_map(label: str, component: str, mapping: dict[str, str]) -> None:
        pairs = ["clock => clock", "reset => reset", "enable => enable"]
        pairs += [f"{formal} => {actual}" for formal, actual in mapping.items()]
        joined = ",\n    ".join(pairs)
        insts.append(f"  {label} : {component} PORT MAP (\n    {joined}\n  );")

    for side in ("row", "col"):
        for i in range(f_units):
            port_map(
                f"{side}_pmu_{i}",
                f"memory_unit_{side}",
                {
                    "mu_id": f'STD_LOGIC_VECTOR(TO_UNSIGNED({i}, {mu_width}))',
                    "rw0": "enable",
                    "rw1": "enable",
                    **assocs[f"{side}_pmu_{i}"],
                },
            )
            port_map(
                f"{side}_ppu_{i}", "processing_unit", assocs[f"{side}_ppu_{i}"]
            )
    for instance in ("row_reads", "col_reads"):
        reading = instance.split("_")[0]
        producing = other_side(reading)
        ports = luts[instance]["out"].port_count
        for m in range(f_units):
            mapping = {
                "in0": f"{producing}_read_{m}_0",
                "in1": f"{producing}_read_{m}_1",
            }
            for j in range(ports):
                mapping[f"out{j}"] = wire_names[(f"{instance}_out_{m}", j)]
            port_map(f"{instance}_out_{m}", f"switch_{instance}_out", mapping)
            mapping_in = {}
            for j in range(ports):
                mapping_in[f"in{j}"] = wire_names[(f"{instance}_in_{m}", j)]
            mapping_in["out0"] = f"{reading}_operand_{m}_0"
            mapping_in["out1"] = f"{reading}_operand_{m}_1"
            port_map(f"{instance}_in_{m}", f"switch_{instance}_in", mapping_in)

    decl_text = "\n".join(decls)
    signal_text = "\n".join(signals)
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
    graph: CirculantBipartiteGraph,
    plan: FoldPlan,
    netlist: Netlist,
    luts: dict[str, dict[str, SwitchLUT]],
    write_schedules: dict[str, WriteSchedule],
    layout: MemoryLayout,
    config: EmissionConfig | None = None,
) -> dict[str, str]:
    """All HDL skeleton files, keyed by file name."""
    config = config or EmissionConfig()
    files: dict[str, str] = {}
    for side in ("row", "col"):
        files[f"memory_unit_{side}.vhd"] = _memory_unit_vhdl(
            side, write_schedules[side], layout, plan.units_per_side, config
        )
    files["processing_unit.vhd"] = _processing_unit_vhdl(config)
    for instance in ("row_reads", "col_reads"):
        for kind in ("out", "in"):
            lut = luts[instance][kind]
            files[f"switch_{instance}_{kind}.vhd"] = _switch_vhdl(lut, config)
    files["top.vhd"] = _top_vhdl(graph, plan, netlist, luts, config)
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
    config: EmissionConfig | None = None,
) -> dict[str, str]:
    """Every artifact of one synthesis run, keyed by its path in the run
    directory: the graph, folded sequences, schedule tables, memory layout
    and address files, switch tables, netlist, timing, access traces,
    resource report and, when selected, the HDL, which must pass
    ``check_hdl``.  Nothing is written.
    """
    config = config or EmissionConfig()
    sequences = {
        side: generate_folded_sequence(graph, plan, side) for side in ("row", "col")
    }
    schedules = {side: write_schedule(graph, plan, side) for side in ("row", "col")}
    luts = switch_luts(graph, plan)
    netlist = build_netlist(graph, plan)
    layout = layout_addresses(plan, graph)
    timing = full_timing(graph, plan)
    files: dict[str, str] = {}
    if "json" in config.formats:
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
    if "csv" in config.formats:
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
    if "hdl" in config.formats:
        hdl = emit_hdl(graph, plan, netlist, luts, schedules, layout, config)
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
    config: EmissionConfig | None = None,
    extra_files: dict[str, str] | None = None,
) -> dict:
    """Write the rendered artifacts of one synthesis run, any extra files,
    and manifest.json hashing all of them.  Returns the manifest dict.
    """
    files = render_run_files(graph, plan, config)
    files.update(extra_files or {})
    files["manifest.json"] = emit_manifest_json(files)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return json.loads(files["manifest.json"])
