"""The replay's reader of netlist.json's wire families; only the replay
imports it, so commands that replay nothing do not compile it."""

from __future__ import annotations

from .circulant import json_value
from .simulator import _INSTANCES, SimulationStructureError, _field, _json_list, _outside


def read_netlist(
    netlist: object, units: int
) -> tuple[dict[str, int], dict[str, dict[int, int]]]:
    """Per instance, netlist.json's rho_hat, the switch code no wire
    carries, and the folded offset of each port code of its wire families.
    A family names an instance, a port in [0, rho_hat), a folded offset in
    [0, F) and a copy of 0 or 1, which is 1 exactly for the extra ports,
    those at or past rho; no port of an instance has two.  Per instance,
    rho + theta must be rho_hat and wire_count F times its families.  A
    fault raises SimulationStructureError naming its field."""
    instances = netlist
    for key in ("annotations", "instances"):
        instances = _field("netlist.json", instances, key, json_value)
    sizes = {}  # instance -> (rho, rho_hat, wire_count)
    for instance in _INSTANCES:
        name = f"netlist.json:{instance}"
        annotation = _field("netlist.json", instances, instance, json_value)
        keys = ("rho", "theta", "rho_hat", "wire_count")
        rho, theta, rho_hat, wire_count = (_field(name, annotation, key) for key in keys)
        if rho + theta != rho_hat:
            raise SimulationStructureError(
                f"{name}:rho_hat {rho_hat} is not rho + theta = {rho} + {theta}"
            )
        sizes[instance] = rho, rho_hat, wire_count
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
        keys = ("port", "folded_offset", "copy")
        port, delta, copy = (_field(where, family, key) for key in keys)
        rho, rho_hat, _ = sizes[instance]
        _outside("netlist.json", entry, "port", port, 0, rho_hat)
        _outside("netlist.json", entry, "folded_offset", delta, 0, units)
        _outside("netlist.json", entry, "copy", copy, 0, 2)
        if copy != (port >= rho):
            raise SimulationStructureError(
                f"{where}:copy {copy}, but {instance}'s port {port} is "
                f"{'at or past' if port >= rho else 'below'} rho {rho}"
            )
        if port in offsets[instance]:
            raise SimulationStructureError(f"{where}:port {port} of {instance} repeats")
        offsets[instance][port] = delta
    for instance, (_, _, wire_count) in sizes.items():
        if wire_count != units * len(offsets[instance]):
            raise SimulationStructureError(
                f"netlist.json:{instance}:wire_count {wire_count} is not F × families "
                f"= {units} × {len(offsets[instance])}"
            )
    invalid = {instance: rho_hat for instance, (_, rho_hat, _) in sizes.items()}
    return invalid, offsets
