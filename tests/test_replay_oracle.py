"""The replay's run-and-pattern compile against a per-event oracle.

The oracle expands every write-LUT run into its writes and every pattern
into its drives and selects, one Python iteration per event, claims
every claim of every half in every iteration, compares the access traces
code by code and tests each edge of the dataflow check on its own.  Both
replays read the same loaded inputs, so any difference between their
reports or dataflow verdicts is a difference of the compile, the claims,
the trace comparison or the dataflow check.
"""

import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count, islice
from operator import itemgetter, le

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pgfold import simulator
from pgfold.circulant import CirculantBipartiteGraph
from pgfold.emit import render_run_files
from pgfold.folding import FoldPlan
from pgfold.simulator import (
    _INSTANCES,
    _SIDES,
    SimReport,
    SimulationStructureError,
    _claim,
    _graph_fields,
    _read_csv,
    _reader_offsets,
    _Resources,
    _source,
    _text,
    _Trace,
    _trace_accesses,
    check_dataflow_equivalence,
    read_json,
    simulate,
)

from .test_schedule import render_designs

# ---------------------------------------------------------------------------
# the per-event oracle


def _is_real_edge(real_order, real_offsets, side, consumer, producer):
    row, col = (consumer, producer) if side == "row" else (producer, consumer)
    if row >= real_order or col >= real_order:
        return False
    return (col - row) % real_order in real_offsets


def read_write_lut(files, side, slots, units, real_order):
    """Per slot, the real producers' writes as codes (pmu · depth +
    address) · 2 + port, depth two cells per slot, by place 2 · unit +
    port; a slot whose runs leave a place empty or fill one twice has its
    writes sorted by place."""
    name = f"write_lut_{side}.csv"
    depth = 2 * len(slots)
    step = 2 * depth
    by_slot = [
        array("q", [-1]) * (2 * max(0, min(units, real_order - k * units))) for _, k in slots
    ]
    placed = [0] * len(slots)
    columns = ("slot", "pmu", "units", "port", "address")
    for _, (slot, pmu, count_, port, address) in _read_csv(files, name, columns):
        stop = min(pmu + count_, len(by_slot[slot]) // 2)
        if pmu < stop:
            code = (pmu * depth + address) * 2 + port
            writes = range(code, code + (stop - pmu) * step, step)
            by_slot[slot][2 * pmu + port : 2 * stop : 2] = array("q", writes)
            placed[slot] += stop - pmu
    places = {s: [] for s, writes in enumerate(by_slot) if placed[s] > len(writes) or -1 in writes}
    if places:
        for _, (slot, pmu, count_, port, address) in _read_csv(files, name, columns):
            stop = min(pmu + count_, len(by_slot[slot]) // 2) if slot in places else pmu
            for unit in range(pmu, stop):
                places[slot].append((2 * unit + port, (unit * depth + address) * 2 + port))
        for slot, writes in places.items():
            by_slot[slot] = array("q", map(itemgetter(1), sorted(writes)))
    return by_slot


class Resources(_Resources):
    def port(self, side, pmu, port):
        return self.port_base + ((side == "col") * self.units + pmu) * 2 + port

    def switch(self, instance, direction, unit, code):
        base, low, width = self.switches[(instance, direction)]
        if not low <= code < low + width:
            return -1
        return base + unit * width + code - low


@dataclass
class Half:
    reading: str
    producing: str
    order: int
    ranks: int
    read_claims: list = field(default_factory=list)
    cells: array = field(default_factory=lambda: array("q"))
    keys: array = field(default_factory=lambda: array("q"))
    delivery_ranks: array = field(default_factory=lambda: array("q"))
    busy: int = 0
    port_reads: int = 0
    write_claims: list = field(default_factory=list)
    tokens: array = field(default_factory=lambda: array("q"))


def ids_of(ids):
    unique = set(ids)
    low, high = min(unique, default=0), max(unique, default=-1)
    return array("q", ids), len(unique) == len(ids), low, high


def compile_halves(inputs):
    resources = Resources(inputs)
    ranks = len(inputs.reader_offsets["row"])
    slot_count = len(inputs.slots)
    depth = 2 * slot_count
    trace = _Trace(inputs.units, depth)
    observed = {side: (array("q"), array("q")) for side in ("row", "col")}
    halves = {side: Half(side, other, inputs.order, ranks) for side, other in _SIDES.items()}
    cell_index = {}
    for half_index, (side, half) in enumerate(halves.items()):
        rel_base, seen = half_index * inputs.side_span, observed[side][half_index]
        cell_index[side] = compile_writes(inputs, half, rel_base, depth, resources, trace, seen)
    for half_index, half in enumerate(halves.values()):
        rel_base, seen = half_index * inputs.side_span, observed[half.producing][half_index]
        index, blank = cell_index[half.producing], len(halves[half.producing].tokens)
        compile_reads(inputs, half, rel_base, index, depth, blank, resources, trace, seen)
    return halves, resources, trace, observed


def compile_writes(inputs, half, rel_base, depth, resources, trace, seen):
    units, order = inputs.units, inputs.order
    width, span = trace.units, trace.span
    offsets = inputs.reader_offsets[half.reading]
    index = array("q", [-1]) * (max(units, 0) * depth)
    tokens = half.tokens
    for slot, writes in enumerate(inputs.writes.pop(half.reading)):
        if not writes:
            continue
        l, k = inputs.slots[slot]
        cycle = inputs.write_cycles[slot]
        top = (rel_base + cycle) * 2
        group, codes = [], []
        for write in writes:
            place, port = divmod(write, 2)
            pmu, address = divmod(place, depth)
            producer = k * units + pmu
            t = 2 * l + port
            token = -1
            if t < half.ranks:
                consumer = (producer + offsets[t]) % order
                token = (producer * order + consumer) * half.ranks + t
            group.append(resources.port(half.reading, pmu, port))
            codes.append((((top + port) * span + address) * 2 + 1) * width + pmu)
            spot = pmu * depth + address
            cell = index[spot]
            if cell < 0:
                index[spot] = len(tokens)
                tokens.append(token)
            else:
                tokens[cell] = token
        seen.extend(sorted(codes))
        half.write_claims.append((cycle, *ids_of(group)))
    return index


def compile_reads(inputs, half, rel_base, index, depth, blank, resources, trace, seen):
    instance = f"{half.reading}_reads"
    units, order = inputs.units, inputs.order
    width, span = trace.units, trace.span
    cons_offsets = inputs.reader_offsets[half.reading]
    slots = inputs.slots
    for slot, (l, k) in enumerate(slots):
        active = max(0, min(units, inputs.real_order - k * units))
        offset = inputs.read_cycles[slot]
        out_claims, drives, in_claims, selects = compile_pattern(
            inputs, resources, instance, half.producing, l, active
        )
        half.read_claims += ((offset, *out_claims), (offset + 1, *in_claims))
        half.busy += active
        half.port_reads += len(drives[0])
        for b in (0, 1):
            low = (((rel_base + offset) * 2 + b) * span + 2 * slot + b) * 2 * width
            seen.extend([low + m for m, port in zip(drives[0], drives[1]) if port == b])
        driven = {}
        for m, b, target in zip(*drives):
            address = 2 * slot + b
            if target >= 0:
                cell = index[m * depth + address]
                driven[target] = blank if cell < 0 else cell
        for i, b, in_id in zip(*selects, in_claims[0]):
            lpu = k * units + i
            rank = 2 * l + b
            producer = (lpu + cons_offsets[rank]) % order
            if _is_real_edge(
                inputs.real_order, inputs.real_base_offsets, half.reading, lpu, producer
            ):
                half.cells.append(driven.get(in_id, blank))
                half.keys.append(producer * order + lpu)
                half.delivery_ranks.append(rank)


def compile_pattern(inputs, resources, instance, producing, l, active):
    offsets = inputs.wire_offsets[instance]
    invalid = len(offsets)
    codes = inputs.switch_rows[instance][l]
    index = _INSTANCES.index(instance)
    out_ids, drives = [], ([], [], [])
    for m in range(inputs.units):
        for b, code in enumerate(codes):
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
    in_ids, selects = [], ([], [])
    for i in range(active):
        for b, code in enumerate(codes):
            if code == invalid:
                continue
            in_ids.append(resources.switch(instance, "in", i, code))
            selects[0].append(i)
            selects[1].append(b)
    return ids_of(out_ids), drives, ids_of(in_ids), selects


def deliver(half, memory, misroutes):
    ranks, order = half.ranks, half.order
    lost = [
        index
        for index, cell, key in zip(count(), half.cells, half.keys)
        if memory[cell] // ranks != key
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


def render_codes(trace, codes):
    lines, units = [trace.HEADER], trace.units
    first = last = None
    for code in chain(codes, [None]):
        if first is not None:
            if code == last + 1 and code % units:
                last = code
                continue
            cycle, pmu, port, address, rw = trace.row(first)
            lines.append(f"{cycle},{pmu},{last - first + 1},{port},{address},{rw}\n")
        first = last = code
    return "".join(lines)


def check_trace(files, side, trace, observed):
    name = f"access_trace_{side}.csv"
    if not all(map(le, chain(*observed), islice(chain(*observed), 1, None))):
        observed = (array("q", sorted(chain(*observed))),)
    if _text(files, name) == render_codes(trace, chain(*observed)):
        return None
    counts = Counter(chain(*observed))
    unmatched = sum(map(len, observed))
    for _, code in _trace_accesses(files, name, trace):
        seen = counts.get(code)
        if not seen:
            break
        counts[code] = seen - 1
        unmatched -= 1
    else:
        if not unmatched:
            return None
    expected = {values for values, _ in _trace_accesses(files, name, trace)}
    got = {trace.row(code) for code in counts}
    missing, extra = expected - got, got - expected
    sample = sorted(missing | extra)[:3]
    return (
        f"{name} disagrees with simulated traffic "
        f"({len(missing)} missing, {len(extra)} extra, sample {sample})"
    )


def oracle_simulate(files, iterations=1):
    """The replay with the per-event compile, claiming every claim of every
    half in every iteration."""
    files = _source(files)
    inputs = simulator._load(files)
    inputs.writes = {
        side: read_write_lut(files, side, inputs.slots, inputs.units, inputs.real_order)
        for side in ("row", "col")
    }
    halves, resources, trace, observed = compile_halves(inputs)
    units, side_span = inputs.units, inputs.side_span
    report = SimReport(iterations=iterations, file_mismatches=inputs.hdl_mismatches)
    read_cycles, write_cycles = inputs.read_cycles, inputs.write_cycles
    slot_count = len(inputs.slots)
    for side in ("row", "col"):
        mismatch = check_trace(files, side, trace, observed[side] if iterations > 0 else ())
        if mismatch is not None:
            report.file_mismatches.append(mismatch)
    memory = {side: array("q", [-1]) * (len(half.tokens) + 1) for side, half in halves.items()}
    report.ppu_slots = units * slot_count * iterations
    report.pmu_port_slots = 2 * units * slot_count * iterations
    report.ppu_busy = {"row": 0, "col": 0}
    report.pmu_port_reads = {"row": 0, "col": 0}
    report.real_tokens = {"row": 0, "col": 0}
    report.deliveries = {side: (half.keys, half.delivery_ranks) for side, half in halves.items()}
    report.lost = {"row": {}, "col": {}}
    use = {}
    reach = min(0, min(read_cycles, default=0), min(write_cycles, default=0))

    def write(half, base):
        _claim(half.write_claims, base, use, resources, report.conflicts)
        memory[half.reading][: len(half.tokens)] = half.tokens

    write(halves["col"], -2 * side_span)
    for iteration in range(iterations):
        for half_index, half in enumerate(halves.values()):
            base = (iteration * 2 + half_index) * side_span
            for cycle in [cycle for cycle in use if cycle < base + reach]:
                del use[cycle]
            _claim(half.read_claims, base, use, resources, report.conflicts)
            report.ppu_busy[half.reading] += half.busy
            report.pmu_port_reads[half.producing] += half.port_reads
            lost = deliver(half, memory[half.producing], report.misroutes)
            if lost:
                report.lost[half.reading][iteration] = lost
            report.real_tokens[half.reading] += len(half.keys) - len(lost)
            write(half, base)
    finish = max(write_cycles if inputs.pipeline_level == "graph" else read_cycles) + 1
    report.measured_half = {"row": finish, "col": finish}
    report.measured_full = 2 * side_span
    return report


def oracle_dataflow(report, files):
    """The dataflow check with one real-edge test per consumer and rank."""
    order, base_offsets, real_order, real_offsets = _graph_fields(
        read_json(_source(files), "graph.json")
    )
    real_offsets = set(real_offsets)
    if report.iterations < 1:
        return {"ok": False, "failures": ["no iterations simulated"]}
    failures = []
    reader_offsets = _reader_offsets(order, base_offsets)
    for side in ("row", "col"):
        keys, ranks = report.deliveries[side]
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
                failed += simulator._consumer_failures(side, consumer, incident, pairs)
        for iteration in range(report.iterations) if verdicts[()] else sorted(lost):
            failures += (
                f"iteration {iteration}: {failure}"
                for failure in verdicts[lost.get(iteration, ())]
            )
    return {"ok": not failures and report.ok, "failures": failures}


# ---------------------------------------------------------------------------
# tampers


def _csv_rows(text):
    header, *rows = text.splitlines()
    return header, [row.split(",") for row in rows]


def _csv_text(header, rows):
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


@st.composite
def tampers(draw, files):
    """``files`` with at most one drawn edit of a write LUT, timing.json,
    netlist.json or a switch table, and the edit's name."""
    kind = draw(
        st.sampled_from(
            ["none", "drop", "duplicate", "units", "address", "cycle", "offset", "code"]
        )
    )
    if kind in ("drop", "duplicate", "units", "address"):
        name = f"write_lut_{draw(st.sampled_from(['row', 'col']))}.csv"
        header, rows = _csv_rows(files[name])
        if not rows:
            return files, "none"
        index = draw(st.integers(0, len(rows) - 1))
        if kind == "drop":
            del rows[index]
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[index]))
        else:
            column = header.split(",").index(kind)
            rows[index][column] = str(max(0, int(rows[index][column]) + draw(st.integers(-2, 2))))
        return {**files, name: _csv_text(header, rows)}, kind
    if kind == "cycle":
        timing = json.loads(files["timing.json"])
        key = draw(st.sampled_from(["read_cycles", "write_cycles"]))
        index = draw(st.integers(0, len(timing[key]) - 1))
        span = timing["side_span"]
        timing[key][index] += draw(st.sampled_from([-span, -1, 1, 2, span, span + 1]))
        return {**files, "timing.json": json.dumps(timing)}, kind
    if kind == "offset":
        netlist = json.loads(files["netlist.json"])
        units = json.loads(files["plan.json"])["units_per_side"]
        family = draw(st.sampled_from(netlist["wire_families"]))
        family["folded_offset"] = (family["folded_offset"] + draw(st.integers(1, 3))) % units
        return {**files, "netlist.json": json.dumps(netlist)}, kind
    if kind == "code":
        instance = draw(st.sampled_from(["row_reads", "col_reads"]))
        families = json.loads(files["netlist.json"])["wire_families"]
        invalid = sum(family["instance"] == instance for family in families)
        name = f"lut_{instance}.csv"
        header, rows = _csv_rows(files[name])
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, 2))] = str(draw(st.integers(0, invalid)))
        return {**files, name: _csv_text(header, rows)}, kind
    return files, kind


def replay_both(files, iterations):
    """The replay and the oracle's, each a report or the message it raised."""
    outcomes = []
    for replay in (simulate, oracle_simulate):
        try:
            outcomes.append(replay(files, iterations))
        except SimulationStructureError as exc:
            outcomes.append(str(exc))
    return outcomes


def assert_same(files, iterations):
    report, oracle = replay_both(files, iterations)
    if isinstance(oracle, str):
        assert report == oracle
        return
    assert not isinstance(report, str), report
    assert report.conflicts == oracle.conflicts
    assert report.misroutes == oracle.misroutes
    assert report.file_mismatches == oracle.file_mismatches
    assert report.lost == oracle.lost
    assert {side: tuple(map(list, columns)) for side, columns in report.deliveries.items()} == {
        side: tuple(map(list, columns)) for side, columns in oracle.deliveries.items()
    }
    assert report.to_json_dict() == oracle.to_json_dict()
    assert check_dataflow_equivalence(report, files) == oracle_dataflow(oracle, files)
    return report


# ---------------------------------------------------------------------------
# tests


class TestAgainstOracle:
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=render_designs(), iterations=st.integers(2, 3), data=st.data())
    def test_random_design_with_one_tamper(self, design, iterations, data):
        files = render_run_files(*design, ("csv", "json"))
        files, _ = data.draw(tampers(files))
        assert_same(files, iterations)

    @pytest.mark.parametrize("q", [1, 3])
    def test_halves_sharing_cycles_claim_every_iteration(self, q):
        # Each slot is written one side span after it is read, in the next
        # half's window, where that half reads the same memory ports: the
        # halves share cycles, so those claims are made, and conflict, in
        # every iteration.
        graph = CirculantBipartiteGraph.plain(15, (0, 1, 2, 4, 5, 8, 10))
        files = render_run_files(graph, FoldPlan.for_graph(graph, q), ("csv", "json"))
        timing = json.loads(files["timing.json"])
        timing["write_cycles"] = [cycle + timing["side_span"] for cycle in timing["read_cycles"]]
        files = {**files, "timing.json": json.dumps(timing)}
        report = assert_same(files, 3)
        assert len({message.rsplit(" ", 1)[1] for message in report.conflicts}) > 3
        halves = simulator._compile(simulator._load(files))[0].values()
        assert all(half.read_claims and half.write_claims for half in halves)

    def test_zero_side_span_claims_every_iteration(self):
        graph = CirculantBipartiteGraph.plain(13, (0, 1, 3, 9))
        files = render_run_files(graph, FoldPlan.for_graph(graph, 1), ("csv", "json"))
        timing = json.loads(files["timing.json"])
        timing["side_span"] = 0
        report = assert_same({**files, "timing.json": json.dumps(timing)}, 2)
        assert report.conflicts

    def test_clean_design_claims_nothing_per_iteration(self):
        graph = CirculantBipartiteGraph.plain(15, (0, 1, 2, 4, 5, 8, 10))
        plan = FoldPlan.for_graph(graph, 3, design_option=2, pipeline_level="graph", T=2, delta=1)
        files = render_run_files(graph, plan, ("csv", "json"))
        halves = simulator._compile(simulator._load(files))[0]
        assert all(not half.read_claims and not half.write_claims for half in halves.values())
