"""The replay's index of the wires of netlist.json, as integer columns;
only the replay imports it, so commands that replay nothing do not compile it."""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable
from dataclasses import dataclass

from .circulant import is_int
from .simulator import _INSTANCES, SimulationStructureError

_SOURCE = re.compile(r"(row_reads|col_reads)_out_(0|[1-9][0-9]*)")
_WIRE_NAME = re.compile(r"(row_reads|col_reads)_w_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)")


@dataclass
class _Wires:
    """The netlist's wires as integer columns, indexed by their position in
    netlist.json's wire list.

    A wire is claimed by the id of its name.  A name of the emitted form
    ``<instance>_w_<unit>_<code>`` with a unit below the unit count has the
    id ``src_key`` gives that port, so equal names have equal ids and no
    name is kept; the n-th distinct name of any other form has id -1 - n.
    A wire named after its own source port has its ``by_src`` key as its
    id, so only the other wires' ids are kept."""

    units: int
    # the key of an out-switch port -> the index of the last wire it drives, or -1
    by_src: array
    # wire -> the id of its name, where that is not its source port's key
    renamed: dict[int, int]
    # the highest id of any wire, or -1
    top_id: int
    # per wire: the unit number its destination switch ends in, or -1 past the units
    dst_unit: array
    # wires not into ``<instance>_in_<unit>`` of their source's instance: claimed, never selected
    foreign: frozenset[int]
    # the names with a negative id, by -1 - id
    odd_names: list[str]

    @staticmethod
    def src_key(instance: int, unit: int, code: int, units: int) -> int:
        """The key of port ``code`` of out switch ``unit`` of instance 0
        (row_reads) or 1 (col_reads)."""
        return (code * 2 + instance) * units + unit

    def name(self, wire_id: int) -> str:
        if wire_id < 0:
            return self.odd_names[-1 - wire_id]
        code, unit = divmod(wire_id, self.units)
        code, instance = divmod(code, 2)
        return f"{_INSTANCES[instance]}_w_{unit}_{code}"


def _load_wires(entries: Iterable[object], units: int) -> _Wires:
    """Check every wire of netlist.json, in file order, and index those an
    out switch of units [0, ``units``) can drive by their source port.  A
    port keyed past twice the wire count, as no code below its switch's port
    count is, drives no wire; a name keyed past 2**32 counts as another form."""
    keys, dst_units, renamed, top_id = array("q"), array("q"), {}, -1
    foreign = set()
    # Switch names repeat once per port: each is parsed once.
    sources: dict[str, tuple[int, int, str] | None] = {}
    destinations: dict[str, int] = {}
    odd: dict[str, int] = {}  # a name of another form -> its id
    for index, wire in enumerate(entries):
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
        dst_unit = destinations.get(dst)
        if dst_unit is None:
            try:
                dst_unit = destinations[dst] = int(dst.rpartition("_")[2])
            except ValueError:
                raise SimulationStructureError(
                    f"netlist.json:wires[{index}]:dst {dst!r} does not end in a unit number"
                ) from None
        dst_units.append(dst_unit if 0 <= dst_unit < units else -1)
        src, code = wire["src"]
        if src not in sources:
            match = _SOURCE.fullmatch(src)
            sources[src] = None
            if match is not None and int(match[2]) < units:
                sources[src] = (_INSTANCES.index(match[1]), int(match[2]), match[1])
        source = sources[src]
        key = name_key = -1
        if source is not None:  # else no out switch of the replay drives it
            instance, unit, instance_name = source
            key = _Wires.src_key(instance, unit, code, units)
            if dst != f"{instance_name}_in_{dst_unit}":
                foreign.add(index)
            if wire_name == f"{instance_name}_w_{unit}_{code}":
                name_key = key
        if name_key < 0:
            match = _WIRE_NAME.fullmatch(wire_name)
            if match is not None and int(match[2]) < units:
                named = _INSTANCES.index(match[1]), int(match[2]), int(match[3])
                name_key = _Wires.src_key(*named, units)
        key = key if 0 <= key < 2**62 else -1
        keys.append(key)
        if not 0 <= name_key < 2**32:
            name_key = odd.setdefault(wire_name, -1 - len(odd))
        if name_key != key:
            renamed[index] = name_key
        top_id = max(top_id, name_key)
    by_src = array("q", [-1]) * min(2 * len(keys), max(keys, default=-1) + 1)
    for index, key in enumerate(keys):
        if 0 <= key < len(by_src):
            by_src[key] = index
    return _Wires(units, by_src, renamed, top_id, dst_units, frozenset(foreign), list(odd))
