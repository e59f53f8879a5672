import pytest

from qccdc import BENCHMARKS, gen_benchmark
from qccdc.bench import alt, bv, cuccaro_adder, heisenberg, qaoa_chain, qft


def count2(c):
    return c.two_qubit_count


def test_qft_counts():
    # n*(n-1) two-qubit gates: each controlled-phase costs 2 CX
    assert count2(qft(24)) == 552
    assert count2(qft(64)) == 4032
    assert count2(qft(8)) == 8 * 7


def test_bv_counts():
    c = bv(64)
    assert c.n_qubits == 65
    assert count2(c) == 64
    # a sparse secret uses fewer couplers
    assert count2(bv(8, secret=0b1010)) == 2


def test_qaoa_chain_counts():
    assert count2(qaoa_chain(64, layers=20)) == 63 * 20
    assert count2(qaoa_chain(16, layers=4)) == 15 * 4


def test_alt_counts():
    # brick pattern: both sublayers per layer
    n, layers = 10, 3
    per_layer = len(range(0, n - 1, 2)) + len(range(1, n - 1, 2))
    assert count2(alt(n, layers)) == per_layer * layers


def test_cuccaro_counts():
    bits = 4
    c = cuccaro_adder(bits)
    assert c.n_qubits == 2 * bits + 2
    # 2*bits MAJ/UMA pairs, each with one 6-CNOT Toffoli plus 2 CX, plus carry CX
    assert count2(c) == 2 * bits * (6 + 2) + 1


def test_heisenberg_counts():
    assert count2(heisenberg(8, trotter_steps=2)) == 3 * 7 * 2


def test_generator_dispatch():
    for name in BENCHMARKS:
        c = gen_benchmark(name, 4)
        assert c.n_qubits >= 4
    with pytest.raises(ValueError):
        gen_benchmark("nope", 4)
    with pytest.raises(ValueError):
        qft(1)


def test_unknown_generator_parameter_is_a_value_error():
    """Named in the error with the generator's accepted parameters, not a
    ``TypeError`` from the call; the size's own name is no parameter."""
    with pytest.raises(ValueError, match=r"'foo' \(accepted: none\)"):
        gen_benchmark("qft", 8, foo=1)
    with pytest.raises(ValueError, match=r"'n' \(accepted: layers\)"):
        gen_benchmark("qaoa_chain", 8, n=3)
    with pytest.raises(ValueError, match=r"accepted: secret"):
        gen_benchmark("bv", 4, seed=1)
    assert gen_benchmark("heisenberg", 4, trotter_steps=2).two_qubit_count == 18
