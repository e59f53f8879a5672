"""Compiler and device-model simulator for QCCD trapped-ion architectures.

Pipeline: parse or generate a circuit, build a device graph from a topology,
place qubits, run the generic-swap scheduler, then evaluate the schedule
under the timing/fidelity model.
"""

from .bench import BENCHMARKS, gen_benchmark
from .circuit import Circuit, DepGraph, Gate, QasmError, build_dag, parse_qasm, to_qasm
from .costmodel import (CostParams, GateFamily, Metrics, evaluate, gate_duration,
                        gate_fidelity, shuttle_duration)
from .device import (DeviceGraph, Junction, Path, Topology, Trap, WeightParams,
                     build_topology, grid_topology, linear_topology, parse_topology_spec,
                     star_topology, to_graph, topology_from_json)
from .events import EventKind, EventRecord
from .mapping import (MappingParams, Strategy, first_level, initial_mapping,
                      interaction_scores, second_level)
from .oracle import (BoundMode, Infeasible, OracleLimits, exact_schedule,
                     ideal_bounds, random_instance)
from .scheduler import (DeviceFull, HeatParams, Schedule, SchedulerParams,
                        SchedulerStuck, candidates, distance_table, schedule)
from .state import MachineState, run_ready_gates
from .validate import replay

__version__ = "0.1.0"
