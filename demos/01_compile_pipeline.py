"""Walk through the full compile pipeline on a small QFT instance.

Generates the circuit, builds a 2x2 grid device, places qubits, runs the
generic-swap scheduler, validates the schedule by independent replay, and
prints the timing/fidelity metrics.
"""

import qccdc as q


def main():
    circuit = q.gen_benchmark("qft", 16)
    print(f"circuit: {circuit.name}, {circuit.n_qubits} qubits, "
          f"{circuit.two_qubit_count} two-qubit gates")

    topo = q.grid_topology(2, 2, 8)
    graph = q.to_graph(topo, q.WeightParams())
    print(f"device: {len(topo.traps)} traps x capacity 8 -> {graph.n_nodes} slots, "
          f"{int((graph.edge_class == q.device.SHUTTLE_EDGE).sum())} shuttle edges")

    mapping = q.initial_mapping(circuit, graph, q.MappingParams())
    sched = q.schedule(circuit, graph, mapping)
    print("inserted operations:", sched.metrics)

    violations = q.replay(sched)
    print(f"replay check: {'OK' if not violations else violations[:3]}")

    metrics = q.evaluate(sched, q.CostParams())
    print(f"makespan: {metrics.makespan_us:.0f} us, "
          f"success rate: {metrics.success_rate:.4f}")

    # first few movement events, annotated
    moves = [e for e in sched.events if e.kind is not q.EventKind.GATE][:5]
    for e in moves:
        print(f"  {e.kind.value:7s} qubits={e.qubits} slots={e.slots}")


if __name__ == "__main__":
    main()
