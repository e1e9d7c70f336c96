"""Serialization of every synthesis artifact.

The tables go out as CSV, the design and its plans as JSON with sorted
keys, and the hardware as two VHDL files.  The plan and the graph are
each stated once: plan.json alone gives q, F, the design option, T,
delta and the pipeline level, and graph.json alone J and the offsets.
The folded sequences, the schedule grid and the incidence table are not
emitted: a side's P = ⌈γ/2⌉ patterns pair graph.json's γ offsets,
plan.json's design option orders their P · q slots, and the incidence
is the offsets'; nor is the memory depth, two cells per slot.  Each
interconnect instance has one switch table, lut_<instance>.csv, which
its out switches and, a cycle later, its in switches both run, and
netlist.json lists its wire families alone, one per port code, so their
count is the instance's invalid code.  The write LUTs and the access
traces are run-length rows: one row per run of memory units making the
same access.
hdl/folded_luts.vhd is a ROM package: one integer array per LUT column
of the run, named after its file (the write LUT addresses, unit by unit,
its runs expanded, and each switch table's two port columns), which the
replay compares with the CSV integer by integer.  hdl/top.vhd is the
structural top level: it declares the memory unit, processing unit and
switch components, and wires them as one FOR GENERATE over the F units
of each side and one over the switches of each interconnect instance,
whose in switch m reads port j of out switch (m + delta) mod F: one
statement per wire family, which the replay compares with
netlist.json's.  The component bodies are not emitted.  Everything is
rendered from the graph, the fold plan and a subset of ``FORMATS``.
Data ports are ``DATA_WIDTH`` bits; a unit id is the fewest bits that
index F units.  manifest.json lists each file's digest: the SHA-256 of
its UTF-8 text, computed with CPython's built-in implementation, so no
command loads OpenSSL.  All output is deterministic: identical inputs
give byte-identical files.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

from .circulant import CirculantBipartiteGraph, SelfCheckError
from .folding import FoldPlan, FoldedSequence, generate_folded_sequence
from .schedule import (
    INSTANCES,
    Netlist,
    SwitchLUT,
    TimingPlan,
    WriteSchedule,
    build_netlist,
    full_timing,
    other_side,
    reader_of,
    switch_luts,
    write_schedule,
)

__all__ = [
    "FORMATS",
    "emit_netlist_json",
    "emit_graph_json",
    "emit_switch_lut_csv",
    "emit_write_lut_csv",
    "emit_access_trace",
    "emit_hdl",
    "check_hdl",
    "render_run_files",
    "emit_manifest_json",
    "write_run_directory",
    "sha256_text",
]


def _json_text(data: object) -> str:
    """``data`` as every JSON artifact is written: sorted keys, two-space
    indent and a final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _sha256_constructor():
    """SHA-256 from CPython's own implementation, which, unlike
    ``hashlib``, does not load OpenSSL; ``hashlib``'s on an interpreter
    built without it."""
    try:
        from _sha2 import sha256  # 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


_sha256 = _sha256_constructor()


def sha256_text(text: str) -> str:
    """The hex SHA-256 digest of ``text``'s UTF-8 bytes."""
    return _sha256(text.encode("utf-8")).hexdigest()


# Artifact families a run can emit, in emission order.
FORMATS = ("csv", "json", "hdl")


# ---------------------------------------------------------------------------
# flat artifacts


def emit_netlist_json(netlist: Netlist) -> str:
    return _json_text(netlist.to_json_dict())


def emit_graph_json(graph: CirculantBipartiteGraph) -> str:
    return _json_text(graph.to_json_dict())


def emit_switch_lut_csv(lut: SwitchLUT) -> str:
    """One row (slot, port0, port1) per pattern: the codes that both the
    out and the in switches of the instance select."""
    return "".join(
        ["slot,port0,port1\n", *(f"{l},{a},{b}\n" for l, (a, b) in enumerate(lut.rows))]
    )


def emit_write_lut_csv(schedule: WriteSchedule) -> str:
    """One row (slot, pmu, units, port, address) per run: units pmu to
    pmu + units - 1 write ``address`` on ``port`` in ``slot``.  The runs
    cover every unit, dummy producers included, whose addresses the ROM
    holds; rows are by slot, port and first unit."""
    return "".join(
        [
            "slot,pmu,units,port,address\n",
            *(
                f"{slot},{first},{units},{port},{address}\n"
                for slot, ports in enumerate(schedule.runs)
                for port, runs in enumerate(ports)
                for address, first, units in runs
            ),
        ]
    )


def emit_access_trace(
    pmu_side: str,
    plan: FoldPlan,
    timing: TimingPlan,
    sequences: dict[str, FoldedSequence],
    write_schedules: dict[str, WriteSchedule],
) -> str:
    """Every memory transaction touching one side's memory units, as runs:
    a row (cycle, pmu, units, port, address, rw) stands for units pmu to
    pmu + units - 1 each making that access in that cycle.

    Reads come from the opposite side's compute half at counter addresses
    2*slot and 2*slot+1; writes come from this side's own half at the
    scheduled LUT addresses.  Idle dummy-node slots produce no traffic.

    Each run is maximal, and rows are sorted by cycle, port, address, rw
    and first unit.  Every read and write cycle of a half lies within that
    half's ``side_span``, and each rises with the slot, so the row half's
    slots come first, then the col half's, each slot's runs in that order.
    """
    f_units = plan.units_per_side
    reader = other_side(pmu_side)
    rows = {"row": [], "col": []}  # by compute half
    sequence = sequences[reader]
    base = 0 if reader == "row" else timing.side_span
    for slot, (l, k) in enumerate(sequence.slots):
        # Unit i reads memory (f + i) mod F on each port, for the real
        # logical units k*F + i, i < n: a cyclic block of memories.
        n = write_schedules[reader].real_units(k)
        cycle = base + timing.read_cycles[slot]
        for port, f in enumerate(sequence.patterns[l].folded):
            if f is None:
                continue  # the dummy half of a padded pattern
            runs = [(0, f + n - f_units), (f, min(n, f_units - f))] if n < f_units else [(0, n)]
            rows[reader] += [
                f"{cycle},{first},{units},{port},{2 * slot + port},R\n"
                for first, units in runs
                if units > 0
            ]
    schedule = write_schedules[pmu_side]
    base = 0 if pmu_side == "row" else timing.side_span
    for slot in range(len(schedule.slots)):
        cycle = base + timing.write_cycles[slot]
        for port in (0, 1):
            rows[pmu_side] += [
                f"{cycle},{first},{units},{port},{address},W\n"
                for address, first, units in sorted(schedule.address_runs(slot, port))
            ]
    return "".join(["cycle,pmu,units,port,address,rw\n", *rows["row"], *rows["col"]])


# ---------------------------------------------------------------------------
# HDL: the LUT ROM package and the structural top level

# Word width of every data port.
DATA_WIDTH = 8

# A port of a component in top.vhd: (name, mode, width).  A port of width
# None is one STD_LOGIC; otherwise it is a vector of that many bits.
Port = tuple[str, str, int | None]

_CONTROL_PORTS: list[Port] = [(name, "IN", None) for name in ("clock", "reset", "enable")]


def _data_ports(prefix: str, mode: str, count: int) -> list[Port]:
    return [(f"{prefix}{j}", mode, DATA_WIDTH) for j in range(count)]


_PROCESSING_UNIT_PORTS: list[Port] = [
    *_CONTROL_PORTS,
    *_data_ports("data_in", "IN", 2),
    *_data_ports("data_out", "OUT", 2),
]


def _memory_unit_ports(units_per_side: int) -> list[Port]:
    return [
        *_CONTROL_PORTS,
        ("mu_id", "IN", _width(units_per_side)),
        *_data_ports("data_in", "IN", 2),
        *_data_ports("data_out", "OUT", 2),
    ]


def _switch_ports(inputs: int, outputs: int) -> list[Port]:
    """A memory-side switch fans two memory ports out to the wires; a
    unit-side switch selects two unit operands from them."""
    return [
        *_CONTROL_PORTS,
        *_data_ports("in", "IN", inputs),
        *_data_ports("out", "OUT", outputs),
    ]


def _port_list(ports: list[Port]) -> str:
    """The body of a COMPONENT's PORT clause."""
    return ";\n".join(
        f"      {name} : {mode} "
        + ("STD_LOGIC" if width is None else f"STD_LOGIC_VECTOR({width - 1} DOWNTO 0)")
        for name, mode, width in ports
    )


def _width(count: int) -> int:
    """Bits that index ``count`` values: the unit id of F units."""
    return max(1, (count - 1).bit_length())


def _vhdl_int_array(values: list[int], per_line: int = 12) -> str:
    if len(values) == 1:
        return f"(0 => {values[0]})"
    chunks = []
    for start in range(0, len(values), per_line):
        chunks.append(", ".join(str(v) for v in values[start : start + per_line]))
    body = ",\n    ".join(chunks)
    return f"(\n    {body}\n  )"


def _roms_vhdl(luts: dict[str, SwitchLUT], write_schedules: dict[str, WriteSchedule]) -> str:
    """The ROM package: one integer array per LUT file of the run, named
    after it.  ``write_lut_<side>`` holds one address per unit, slot and
    port, unit by unit: the runs of write_lut_<side>.csv expanded; the
    ``lut_<instance>_port<b>`` arrays are column port<b> of
    lut_<instance>.csv, by slot, which both switch sets of the instance
    read."""
    roms: dict[str, list[int]] = {}
    for side in ("row", "col"):
        columns = write_schedules[side].per_pmu()
        roms[f"write_lut_{side}"] = [address for column in columns for address in column]
    for instance in INSTANCES:
        for b in (0, 1):
            roms[f"lut_{instance}_port{b}"] = [row[b] for row in luts[instance].rows]
    constants = "\n".join(
        f"  CONSTANT {name} : integer_rom(0 TO {len(values) - 1}) := "
        f"{_vhdl_int_array(values)};"
        for name, values in roms.items()
    )
    return f"""-- ROM contents of the folded schedule: one array per LUT file of the
-- run, named after it.  write_lut_<side> is the address of each write
-- of write_lut_<side>.csv's runs: each memory unit's writes in turn,
-- two per slot.  lut_<instance>_port<b> is column port<b> of
-- lut_<instance>.csv, one entry per slot, which the out and the in
-- switches of the instance both read.
PACKAGE folded_luts IS
  TYPE integer_rom IS ARRAY (NATURAL RANGE <>) OF INTEGER;
{constants}
END folded_luts;
"""


def _top_vhdl(plan: FoldPlan, netlist: Netlist) -> str:
    f_units = plan.units_per_side
    components = {f"memory_unit_{side}": _memory_unit_ports(f_units) for side in ("row", "col")}
    components["processing_unit"] = _PROCESSING_UNIT_PORTS
    for instance in INSTANCES:
        # Port count rho_hat: one port per wire family.
        ports = len(netlist.offsets[instance])
        components[f"switch_{instance}_out"] = _switch_ports(2, ports)
        components[f"switch_{instance}_in"] = _switch_ports(ports, 2)
    decls = [
        f"""  COMPONENT {entity} IS
    PORT (
{_port_list(ports)}
    );
  END COMPONENT;"""
        for entity, ports in components.items()
    ]

    def port_map(label: str, component: str, actuals: list[str]) -> str:
        """Instance ``label`` with ``actuals`` bound, in order, to the
        component's ports after the three control inputs."""
        formals = [name for name, _, _ in components[component]]
        actuals = ["clock", "reset", "enable", *actuals]
        joined = ",\n      ".join(
            f"{formal} => {actual}" for formal, actual in zip(formals, actuals, strict=True)
        )
        return f"    {label} : {component} PORT MAP (\n      {joined}\n    );"

    def generate(label: str, *statements: str) -> str:
        body = "\n".join(statements)
        return f"  {label} : FOR m IN 0 TO {f_units - 1} GENERATE\n{body}\n  END GENERATE {label};"

    # The local channels of unit m on a side: "write" carries its outputs
    # into the collocated memory, "read" that memory's outputs into the
    # interconnect, and "operand" the unit-side switch outputs into it.
    # Each is an array of F units by two ports.
    def channel(side: str, name: str) -> list[str]:
        return [f"{side}_{name}(m, {b})" for b in (0, 1)]

    arrays = {
        f"{side}_{name}": 2 for side in ("row", "col") for name in ("write", "read", "operand")
    }
    blocks = []
    for side in ("row", "col"):
        mu_id = f"STD_LOGIC_VECTOR(TO_UNSIGNED(m, {_width(f_units)}))"
        write = channel(side, "write")
        blocks.append(
            generate(
                f"{side}_units",
                port_map("pmu", f"memory_unit_{side}", [mu_id, *write, *channel(side, "read")]),
                port_map("ppu", "processing_unit", [*channel(side, "operand"), *write]),
            )
        )
    # Out switch m's port j drives wire <instance>_w(m, j); in switch m's
    # port j reads the wire of out switch (m + delta) mod F: one statement
    # per wire family.
    for instance in INSTANCES:
        reading = reader_of(instance)
        offsets = sorted(netlist.offsets[instance].items())
        arrays[f"{instance}_w"] = len(offsets)
        out_wires = [f"{instance}_w(m, {j})" for j, _ in offsets]
        in_wires = [f"{instance}_w((m + {delta}) MOD {f_units}, {j})" for j, delta in offsets]
        read, operand = channel(other_side(reading), "read"), channel(reading, "operand")
        blocks.append(
            generate(
                instance,
                port_map("out_switch", f"switch_{instance}_out", [*read, *out_wires]),
                port_map("in_switch", f"switch_{instance}_in", [*in_wires, *operand]),
            )
        )

    decl_text = "\n".join(decls)
    signal_text = "\n".join(
        f"  SIGNAL {name} : word_array(0 TO {f_units - 1}, 0 TO {ports - 1});"
        for name, ports in arrays.items()
    )
    block_text = "\n".join(blocks)
    return f"""-- Structural top level: {f_units} processing and {f_units} memory units
-- per side plus the two static interconnect instances, each a FOR
-- GENERATE over the units.  The component bodies are not emitted;
-- folded_luts.vhd holds the contents of their LUTs.
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
  TYPE word_array IS ARRAY (NATURAL RANGE <>, NATURAL RANGE <>)
    OF STD_LOGIC_VECTOR({DATA_WIDTH - 1} DOWNTO 0);
{signal_text}
BEGIN
{block_text}
END structural;
"""


def emit_hdl(
    plan: FoldPlan,
    netlist: Netlist,
    luts: dict[str, SwitchLUT],
    write_schedules: dict[str, WriteSchedule],
) -> dict[str, str]:
    """The HDL files, keyed by file name: the ROM package and the
    structural top level."""
    return {
        "folded_luts.vhd": _roms_vhdl(luts, write_schedules),
        "top.vhd": _top_vhdl(plan, netlist),
    }


# A design unit and its kind; an ARCHITECTURE's END names the
# architecture.
_UNIT_RE = re.compile(r"^(ENTITY|ARCHITECTURE|PACKAGE) (\w+)(?: OF \w+)? IS$", re.MULTILINE)
_END_RE = re.compile(r"^END (\w+);$", re.MULTILINE)
_GENERATE_RE = re.compile(r"^\s*(\w+) : FOR \w+ IN .* GENERATE$", re.MULTILINE)
_END_GENERATE_RE = re.compile(r"^\s*END GENERATE (\w+);$", re.MULTILINE)
_COMPONENT_RE = re.compile(r"^\s*COMPONENT (\w+) IS$", re.MULTILINE)
_SIGNAL_RE = re.compile(r"^\s*SIGNAL (\w+)\s*:", re.MULTILINE)
_INSTANCE_RE = re.compile(r"^\s*(\w+) : (\w+) PORT MAP", re.MULTILINE)
_IDENTIFIER_RE = re.compile(r"\w+")


def check_hdl(files: dict[str, str]) -> list[str]:
    """Lexical well-formedness of the emitted HDL set.

    Checks that every ENTITY, ARCHITECTURE and PACKAGE has its END, that
    every ``label : FOR ... GENERATE`` has its ``END GENERATE label;``, that
    every declared signal is referenced beyond its declaration, and that
    every instance names a COMPONENT declared in its file.  The signal
    check makes one pass per file: it tokenises the file once, and a
    signal's uses are the identifier tokens equal to its name, so a name
    that only occurs inside a longer identifier is not a use.
    """
    problems: list[str] = []
    for name, text in files.items():
        ends = set(_END_RE.findall(text))
        for kind, unit in _UNIT_RE.findall(text):
            if unit not in ends:
                problems.append(f"{name}: {kind.lower()} {unit} has no matching end")
        generate_ends = set(_END_GENERATE_RE.findall(text))
        for label in _GENERATE_RE.findall(text):
            if label not in generate_ends:
                problems.append(f"{name}: generate {label} has no matching end")
        tokens = Counter(_IDENTIFIER_RE.findall(text))
        for sig in _SIGNAL_RE.findall(text):
            if tokens[sig] < 2:
                problems.append(f"{name}: signal {sig} declared but never used")
        components = set(_COMPONENT_RE.findall(text))
        for label, component in _INSTANCE_RE.findall(text):
            if component not in components:
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
    keyed by its path in the run directory: the graph, the plan, write
    LUTs, switch tables, netlist, timing, access traces and the HDL,
    which must pass ``check_hdl``.  Nothing is written.
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
    timing = full_timing(graph, plan)
    files: dict[str, str] = {}
    if "json" in formats:
        files["graph.json"] = emit_graph_json(graph)
        files["plan.json"] = _json_text(plan.to_json_dict())
        files["netlist.json"] = emit_netlist_json(netlist)
        files["timing.json"] = _json_text(timing.to_json_dict())
    if "csv" in formats:
        for side in ("row", "col"):
            files[f"write_lut_{side}.csv"] = emit_write_lut_csv(schedules[side])
            files[f"access_trace_{side}.csv"] = emit_access_trace(
                side, plan, timing, sequences, schedules
            )
        for instance in INSTANCES:
            files[f"lut_{instance}.csv"] = emit_switch_lut_csv(luts[instance])
    if "hdl" in formats:
        hdl = emit_hdl(plan, netlist, luts, schedules)
        problems = check_hdl(hdl)
        if problems:
            raise SelfCheckError("HDL self-check failed: " + "; ".join(problems))
        for name, text in hdl.items():
            files[f"hdl/{name}"] = text
    return files


def emit_manifest_json(files: dict[str, str]) -> str:
    """manifest.json of a run: the SHA-256 of each file's text, by name."""
    return _manifest_text({name: sha256_text(files[name]) for name in sorted(files)})


def _manifest_text(digests: dict) -> str:
    """manifest.json listing ``digests``, a digest by file name."""
    return _json_text({"format_version": 1, "files": digests})


def write_run_directory(
    out_dir: str | Path,
    graph: CirculantBipartiteGraph,
    plan: FoldPlan,
    formats: tuple[str, ...] = FORMATS,
) -> dict:
    """Write the rendered artifacts of one synthesis run and manifest.json
    of their digests.  Returns the manifest dict.
    """
    files = render_run_files(graph, plan, formats)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    manifest = emit_manifest_json(files)
    (out / "manifest.json").write_text(manifest, encoding="utf-8")
    return json.loads(manifest)
