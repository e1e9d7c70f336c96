"""Synthesis toolchain for folded semi-parallel architectures.

Turns a circulant balanced bipartite dataflow graph (built from projective
geometry or supplied directly) into folded conflict-free access schedules,
memory layouts, address generators, switch tables, a static netlist, timing
plans, and HDL skeletons, all checked by a file-driven architecture
simulator.
"""

from .circulant import (
    CirculantBipartiteGraph,
    choose_alpha,
    divisors,
    expand_circulant,
    offsets_equivalent,
)
from .emit import write_run_directory
from .folding import FoldPlan, generate_folded_sequence
from .galois import FiniteField, Polynomial, field_build, find_primitive_polynomial
from .projective import PgParams, build_pg_graph, phi, verify_pg_incidence
from .schedule import (
    Netlist,
    SwitchLUT,
    TimingPlan,
    WriteSchedule,
    build_netlist,
    full_timing,
    switch_luts,
    write_schedule,
)
from .simulator import (
    SimReport,
    check_dataflow_equivalence,
    measure_throughput,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CirculantBipartiteGraph",
    "FiniteField",
    "FoldPlan",
    "Netlist",
    "PgParams",
    "Polynomial",
    "SimReport",
    "SwitchLUT",
    "TimingPlan",
    "WriteSchedule",
    "build_netlist",
    "build_pg_graph",
    "check_dataflow_equivalence",
    "choose_alpha",
    "divisors",
    "expand_circulant",
    "field_build",
    "find_primitive_polynomial",
    "full_timing",
    "generate_folded_sequence",
    "measure_throughput",
    "offsets_equivalent",
    "phi",
    "simulate",
    "switch_luts",
    "verify_pg_incidence",
    "write_run_directory",
    "write_schedule",
    "__version__",
]
