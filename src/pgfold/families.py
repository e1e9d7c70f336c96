"""The replay's readers of netlist.json's wire families, of the write
LUTs' runs, of the ROM package hdl/folded_luts.vhd and of the generate
statements of hdl/top.vhd; only the replay imports them, so commands that
replay nothing do not compile them.  Each fact is read from the one file
that states it: an instance's switch port count from its wire families,
a memory's depth, two cells per slot, from the P · q slots that
graph.json's offsets and plan.json's q make."""

from __future__ import annotations

import re
from array import array
from collections.abc import Mapping

from .circulant import json_value
from .simulator import (
    _INSTANCES,
    SimulationStructureError,
    _field,
    _json_list,
    _outside,
    _read_csv,
)


def read_netlist(netlist: object, units: int) -> dict[str, dict[int, int]]:
    """Per instance, the folded offset of each port code of netlist.json's
    wire families.  A family names an instance, a port and a folded offset
    in [0, F); an instance's ports are exactly [0, rho_hat), rho_hat its
    family count, which is also the switch code no wire carries.  A fault
    raises SimulationStructureError naming its field."""
    offsets: dict[str, dict[int, int]] = {instance: {} for instance in _INSTANCES}
    families = _field("netlist.json", netlist, "wire_families", _json_list)
    for index, family in enumerate(families):
        entry = f"wire_families[{index}]"
        where = f"netlist.json:{entry}"
        instance = _field(where, family, "instance", json_value)
        if instance not in _INSTANCES:
            raise SimulationStructureError(
                f"{where}:instance {instance!r} is not one of {', '.join(_INSTANCES)}"
            )
        port, delta = (_field(where, family, key) for key in ("port", "folded_offset"))
        _outside("netlist.json", entry, "port", port, 0, len(families))
        _outside("netlist.json", entry, "folded_offset", delta, 0, units)
        if port in offsets[instance]:
            raise SimulationStructureError(f"{where}:port {port} of {instance} repeats")
        offsets[instance][port] = delta
    for instance, ports in offsets.items():
        missing = set(range(len(ports))) - ports.keys()
        if missing:
            raise SimulationStructureError(
                f"netlist.json:{instance}: {len(ports)} wire families, "
                f"but none of port {min(missing)}"
            )
    return offsets


def read_write_lut(
    files: Mapping[str, str],
    side: str,
    slots: list[tuple[int, int]],
    units: int,
    real_order: int,
    hdl: bool,
) -> tuple[list[array], array | None]:
    """Per slot, the runs of write_lut_<side>.csv that real producers make,
    as a column of (port, first unit, stop unit, address) in file order,
    and, with ``hdl``, the address column the ROM package mirrors.  A row
    (slot, pmu, units, port, address) stands for units pmu to pmu + units
    - 1 writing ``address``, one of the two cells per slot, on ``port`` in
    ``slot``; unit m of fold k is a real producer when k · F + m < real J.
    The ROM holds an address per unit, slot and port, unit by unit, -1
    where no run writes."""
    name = f"write_lut_{side}.csv"
    slot_count, stride = len(slots), 2 * len(slots)
    real = [max(0, min(units, real_order - k * units)) for _, k in slots]
    by_slot = [array("q") for _ in slots]
    addresses = array("q", [-1]) * (units * stride) if hdl else None
    columns = ("slot", "pmu", "units", "port", "address")
    for line, (slot, pmu, count, port, address) in _read_csv(files, name, columns):
        _outside(name, line, "slot", slot, 0, slot_count)
        _outside(name, line, "port", port, 0, 2)
        _outside(name, line, "pmu", pmu, 0, units)
        _outside(name, line, "units", count, 1, units - pmu + 1)
        _outside(name, line, "address", address, 0, stride)
        if addresses is not None:
            start = pmu * stride + 2 * slot + port
            addresses[start : start + count * stride : stride] = array("q", [address]) * count
        stop = min(pmu + count, real[slot])
        if pmu < stop:
            by_slot[slot].extend((port, pmu, stop, address))
    return by_slot, addresses


# The ROM package of a run with HDL: one integer array per LUT file
_ROM_FILE = "hdl/folded_luts.vhd"
_ROM_NAMES = ("write_lut_row", "write_lut_col") + tuple(
    f"lut_{instance}_port{b}" for instance in _INSTANCES for b in (0, 1)
)
_ROM_CONSTANT = re.compile(r"\bCONSTANT\s+(\w+)([^;]*);")
_ROM_DECLARATION = re.compile(
    r"\s*:\s*integer_rom\(0 TO (\d+)\)\s*:=\s*\((?:\s*0\s*=>)?(.*)\)\s*", re.DOTALL
)
_ROM_VALUE = re.compile(r"-?\d{1,18}")


def read_roms(files: Mapping[str, str]) -> dict[str, array] | None:
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


def rom_mismatch(roms: dict[str, array], name: str, twin: str, values) -> list[str]:
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


# The structural top level of a run with HDL: a FOR GENERATE per side over
# its units, and one per interconnect instance over its switches
_TOP_FILE = "hdl/top.vhd"
_GENERATE = re.compile(
    r"^  (\w+) : FOR m IN 0 TO (\d+) GENERATE\n(.*?)^  END GENERATE \1;$", re.MULTILINE | re.DOTALL
)


def top_mismatch(
    files: Mapping[str, str], units: int, offsets: dict[str, dict[int, int]]
) -> list[str]:
    """hdl/top.vhd's wiring against netlist.json's families, ``offsets``:
    every generate must run m over 0 TO F - 1, and each instance's must
    bind, for each family (port j, folded offset delta), out switch m's
    port j to ``<instance>_w(m, j)`` and in switch m's port j to
    ``<instance>_w((m + delta) MOD F, j)``.  One message per differing
    generate, naming it; a missing file, generate or
    switch, or a wire of another form, raises SimulationStructureError."""
    if _TOP_FILE not in files:
        raise SimulationStructureError(f"{_TOP_FILE}: absent, but the run has hdl/ files")
    text = files[_TOP_FILE]
    generates = {label: (int(top), body) for label, top, body in _GENERATE.findall(text)}
    mismatches = []
    for label in ("row_units", "col_units", *_INSTANCES):
        if label not in generates:
            raise SimulationStructureError(f"{_TOP_FILE}: generate {label} missing")
        top, body = generates[label]
        where = f"{_TOP_FILE}: generate {label}"
        if top != units - 1:
            mismatches.append(f"{where} runs m over 0 TO {top}, not 0 TO F - 1 = {units - 1}")
        if label not in _INSTANCES:
            continue
        wired = {}  # switch kind -> {port: folded offset}
        for kind, index, form in (
            ("out", "m", "m"),
            ("in", rf"\(m \+ (\d+)\) MOD {units}", f"(m + offset) MOD {units}"),
        ):
            switch = re.search(rf"^    {kind}_switch : \w+ PORT MAP \((.*?)\);$", body, re.M | re.S)
            if switch is None:
                raise SimulationStructureError(f"{where} has no {kind}_switch")
            wired[kind] = {}
            for j, actual in re.findall(rf"^ +{kind}(\d+) => (.*?),?$", switch[1], re.M):
                wire = re.fullmatch(rf"{label}_w\({index}, {j}\)", actual)
                if wire is None:
                    raise SimulationStructureError(
                        f"{where}: {kind}_switch {kind}{j} => {actual}, not {label}_w({form}, {j})"
                    )
                wired[kind][int(j)] = int(wire[1]) if kind == "in" else None
        if wired["out"].keys() != wired["in"].keys():
            mismatches.append(
                f"{where}: out_switch drives ports {sorted(wired['out'])}, "
                f"in_switch reads ports {sorted(wired['in'])}"
            )
        elif wired["in"] != offsets[label]:
            ports = sorted(wired["in"].keys() | offsets[label].keys())
            port = next(j for j in ports if wired["in"].get(j) != offsets[label].get(j))
            mismatches.append(
                f"{where}: port {port} reads offset {wired['in'].get(port)}, but "
                f"netlist.json's family has folded offset {offsets[label].get(port)}"
            )
    return mismatches
