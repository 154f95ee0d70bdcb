"""Simulator tests: gates, sampling, post-selection, tomography, fidelity.

The three-qubit solver replica is checked against a hand-multiplied kron
product so the oracle never touches the simulator's gate application.
"""
import math

import numpy as np
import pytest

from conftest import MAX_UNITARY_QUBITS, circuit_unitary, reduced_pure_state
from qhesolve import circ, qsim
from qhesolve.circ import Circuit, cx, h, ry, t, x
from qhesolve.qsim import (Counts, PauliExpectations, SimulationError,
                           StateVector, ZeroProbabilityError,
                           analytic_expectations, apply_gate,
                           fidelity_from_expectations, pauli_expectations,
                           postselect, postselect_counts,
                           run_statevector, sample_counts)

SQ2 = 1 / math.sqrt(2)

I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2
X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def ry_mat(theta):
    c, sn = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -sn], [sn, c]], dtype=complex)


# ---------------------------------------------------------------------------
# apply_gate / run_statevector
# ---------------------------------------------------------------------------

def test_h_on_zero():
    state = apply_gate(StateVector.zero(1), h(0))
    assert np.allclose(state.amps, [SQ2, SQ2], atol=1e-12)


def test_x_on_zero():
    state = apply_gate(StateVector.zero(1), x(0))
    assert np.allclose(state.amps, [0, 1], atol=1e-12)


def test_t_adds_quarter_pi_phase():
    plus = StateVector.from_amplitudes([SQ2, SQ2])
    state = apply_gate(plus, t(0))
    assert np.allclose(state.amps, [SQ2, SQ2 * np.exp(1j * math.pi / 4)],
                       atol=1e-12)


def test_qubit_zero_is_most_significant():
    state = run_statevector(Circuit(3, [x(0)]))
    expected = np.zeros(8)
    expected[0b100] = 1.0
    assert np.allclose(state.amps, expected)


def test_apply_gate_index_errors():
    with pytest.raises(SimulationError):
        apply_gate(StateVector.zero(1), x(1))
    with pytest.raises(SimulationError):
        apply_gate(StateVector.zero(2), circ.Gate("cx", (0, 3)))


def test_empty_circuit_identity():
    state = run_statevector(Circuit(2))
    assert np.allclose(state.amps, [1, 0, 0, 0])


def test_bell_circuit():
    state = run_statevector(Circuit(2, [h(0), cx(0, 1)]))
    assert np.allclose(state.amps, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_replica_circuit_against_kron_oracle():
    # Solver replica for the masked first fixture: prepared state (1,1)/sq2,
    # Hadamard eigen-rotation, copy, controlled rotation on the populated
    # (eigen=0) branch, uncopy, rotate back. Oracle: explicit 8x8 products.
    theta = math.radians(-57.34)
    gates = ([ry(math.pi / 2, 0), circ.z(0), ry(math.pi / 2, 0), cx(0, 1),
              x(1)] + circ.decompose_cry(theta, 1, 2)
             + [x(1), cx(0, 1)]
             + circ.invert_gates([circ.z(0), ry(math.pi / 2, 0)]))
    state = run_statevector(Circuit(3, gates))

    def lift(u, q):  # embed a 1q matrix at qubit q of 3
        ops = [I2, I2, I2]
        ops[q] = u
        return np.kron(np.kron(ops[0], ops[1]), ops[2])

    z_mat = np.diag([1, -1]).astype(complex)
    cnot01 = np.kron(CNOT, I2)
    cry12 = np.eye(8, dtype=complex)  # control q1=1, target q2, any q0
    cry12[np.ix_([2, 3], [2, 3])] = ry_mat(theta)
    cry12[np.ix_([6, 7], [6, 7])] = ry_mat(theta)
    u = lift(ry_mat(math.pi / 2), 0)
    u = lift(z_mat, 0) @ u
    u = lift(ry_mat(math.pi / 2), 0) @ u
    u = cnot01 @ u
    u = lift(X, 1) @ u
    u = cry12 @ u
    u = lift(X, 1) @ u
    u = cnot01 @ u
    u = lift(ry_mat(-math.pi / 2), 0) @ u
    u = lift(z_mat, 0) @ u
    expected = u @ np.eye(8)[:, 0]
    assert np.allclose(state.amps, expected, atol=1e-10)

    # the ancilla-1 branch carries (|0>+|1>)/sq2 on the state qubit
    post, _ = postselect(state, 2, 1)
    sol = reduced_pure_state(post, 0)
    overlap = abs(np.vdot(sol, np.array([SQ2, SQ2])))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_random_circuits_against_kron_oracle():
    # Independent evolution: every gate lifted to its full 2^n matrix with
    # plain kron products, never through the simulator's axis arithmetic.
    rng = np.random.default_rng(321)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        dim = 2 ** n
        full = np.eye(dim, dtype=complex)
        gates = []
        for _ in range(12):
            if n > 1 and rng.random() < 0.3:
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                gates.append(cx(a, b))
                mat = np.eye(dim, dtype=complex)
                for idx in range(dim):
                    bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
                    if bits[a] == 1:
                        bits[b] ^= 1
                    flipped = sum(bit << (n - 1 - q)
                                  for q, bit in enumerate(bits))
                    mat[:, idx] = 0.0
                    mat[flipped, idx] = 1.0
            else:
                kind = rng.choice(list(circ.SINGLE_QUBIT_KINDS) + ["ry"])
                q = int(rng.integers(n))
                if kind == "ry":
                    gate = ry(float(rng.uniform(-3, 3)), q)
                else:
                    gate = circ.Gate(kind, (q,))
                gates.append(gate)
                ops = [np.eye(2, dtype=complex)] * n
                ops[q] = qsim.gate_matrix(gate)
                mat = ops[0]
                for op in ops[1:]:
                    mat = np.kron(mat, op)
            full = mat @ full
        state = run_statevector(Circuit(n, gates))
        assert np.allclose(state.amps, full[:, 0], atol=1e-10)


def kron_matrix(gate, n):
    """The gate's full 2^n matrix from kron products and bit arithmetic."""
    dim = 2 ** n
    if gate.kind == "cx":
        mat = np.zeros((dim, dim), dtype=complex)
        for idx in range(dim):
            bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
            if bits[gate.control]:
                bits[gate.target] ^= 1
            mat[sum(bit << (n - 1 - q) for q, bit in enumerate(bits)), idx] = 1
        return mat
    ops = [I2] * n
    ops[gate.qubit] = qsim.gate_matrix(gate)
    mat = ops[0]
    for op in ops[1:]:
        mat = np.kron(mat, op)
    return mat


def random_single(rng, q):
    kind = rng.choice(list(circ.SINGLE_QUBIT_KINDS) + ["ry"])
    if kind == "ry":
        return ry(float(rng.uniform(-3, 3)), q)
    return circ.Gate(str(kind), (q,))


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector.from_amplitudes(amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", range(1, 9))
def test_fused_runs_against_kron_oracle(n):
    # Runs of 3-5 single-qubit gates on one qubit between cxs, half the cxs
    # on the outermost qubits, from a random state: the fusion's worst cases.
    rng = np.random.default_rng(1200 + n)
    for _ in range(4):
        gates = []
        while len(gates) < 60:
            q = int(rng.integers(n))
            gates += [random_single(rng, q) for _ in range(rng.integers(3, 6))]
            if n > 1:
                pair = ((0, n - 1) if rng.random() < 0.5
                        else rng.choice(n, size=2, replace=False))
                a, b = (int(v) for v in rng.permutation(pair))
                gates.append(cx(a, b))
        initial = random_state(rng, n)
        expected = initial.amps
        for gate in gates:
            expected = kron_matrix(gate, n) @ expected
        amps = qsim._evolve(initial.amps, n, gates)
        assert np.allclose(amps, expected, rtol=0, atol=1e-12)


def test_run_is_flushed_only_before_a_cx_on_its_qubit():
    s_mat = qsim.GATE_MATRICES["s"]
    t_mat = qsim.GATE_MATRICES["t"]
    gates = [h(0), t(0), h(1), cx(1, 2), circ.s(0), cx(0, 1), x(0), h(2)]
    ops = list(qsim._fused(gates))
    # h t s on qubit 0 spans cx(1, 2) and ends at cx(0, 1)
    assert [(a, b if isinstance(b, int) else None) for a, b in ops] == [
        (1, None), (1, 2), (0, None), (0, 1), (0, None), (2, None)]
    for (_, got), want in zip(ops[::2], (H, s_mat @ t_mat @ H, X)):
        assert np.allclose(got, want, atol=1e-15)
    initial = random_state(np.random.default_rng(5), 3)
    expected = initial.amps
    for gate in gates:
        expected = kron_matrix(gate, 3) @ expected
    amps = qsim._evolve(initial.amps, 3, gates)
    assert np.allclose(amps, expected, rtol=0, atol=1e-12)


def reference_fused(gates):
    """_fused as one left fold per run, with no memo."""
    runs = {}
    for gate in gates:
        if gate.kind == "cx":
            for q in gate.qubits:
                if q in runs:
                    yield q, runs.pop(q)
            yield gate.control, gate.target
        else:
            u = qsim.gate_matrix(gate)
            runs[gate.qubit] = u @ runs[gate.qubit] if gate.qubit in runs else u
    yield from runs.items()


def test_memoized_runs_are_the_left_fold_bit_for_bit():
    def run(q, angle):
        return [ry(angle, q), h(q), circ.sdg(q), h(q), ry(0.3, q), h(q),
                circ.s(q), h(q)]

    # the sign of a zero survives only a run that is ry(+-0.0) alone
    gates = (run(0, -0.0) + [cx(0, 1)] + run(1, 0.0) + run(2, -0.0)
             + [cx(1, 2), ry(-0.0, 1), cx(1, 0), ry(0.0, 1), cx(1, 2)]
             + run(1, -0.0) + run(0, -0.0) + [cx(2, 0)] + run(2, 0.0)
             + run(0, 0.0)[:3] + [ry(-0.0, 1)])
    got, want = list(qsim._fused(gates)), list(reference_fused(gates))
    assert len(got) == len(want)
    for (q, op), (q_want, op_want) in zip(got, want):
        assert q == q_want
        if isinstance(op_want, int):
            assert op == op_want
            continue
        assert np.array_equal(op, op_want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(op)), np.signbit(part(op_want)))


@pytest.mark.parametrize("cap", [0, 1, 5, 40])
def test_runs_past_the_memo_cap_are_the_left_fold_bit_for_bit(monkeypatch,
                                                              cap):
    # repeated runs and signed zeros on 3 qubits; every cap binds long
    # before the 600 gates end
    monkeypatch.setattr(qsim, "MAX_MEMO_ENTRIES", cap)
    rng = np.random.default_rng(21)
    pool = [ry(0.0, 0), ry(-0.0, 0), ry(0.3, 0), h(0), circ.s(0), circ.sdg(0),
            t(0), x(0)]
    gates = []
    for _ in range(600):
        q = int(rng.integers(3))
        if rng.random() < 0.1:
            gates.append(cx(q, (q + 1) % 3))
        else:
            g = pool[rng.integers(len(pool))]
            gates.append(circ.Gate(g.kind, (q,), g.angle))
    got, want = list(qsim._fused(gates)), list(reference_fused(gates))
    assert len(got) == len(want)
    for (q, op), (q_want, op_want) in zip(got, want):
        assert q == q_want
        if isinstance(op_want, int):
            assert op == op_want
            continue
        assert np.array_equal(op, op_want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(op)), np.signbit(part(op_want)))


def reference_evolve(amps, n, gates):
    """_evolve with the qubits kept in order: each 2x2 step gathers its
    qubit first for the GEMM and scatters the product back."""
    for q, op in reference_fused(gates):
        if isinstance(op, np.ndarray):  # view as (2^q, 2, rest), qubit q first
            rows = amps.reshape(1 << q, 2, -1).swapaxes(0, 1)
            out = op @ rows.reshape(2, -1)
            amps = out.reshape(rows.shape).swapaxes(0, 1).reshape(amps.shape)
        else:
            amps = amps.take(qsim._cnot_perm(n, q, op), axis=0)
    return amps


@pytest.mark.parametrize("n", range(1, 11))
def test_evolve_is_the_in_order_kernel_bit_for_bit(n):
    # a cx on every ordered pair, in seeded order, between runs that hold
    # ry(+-0.0); basis inputs have zeros whose signs must survive
    rng = np.random.default_rng(1300 + n)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    gates = []
    for i in [*rng.permutation(len(pairs)), None]:
        for _ in range(rng.integers(1, 5)):
            q = int(rng.integers(n))
            gates.append([ry(0.0, q), ry(-0.0, q), random_single(rng, q)][
                rng.integers(3)])
        if i is not None:
            gates.append(cx(*pairs[i]))
    dim = 2 ** n
    columns = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    for amps in (StateVector.zero(n).amps, random_state(rng, n).amps,
                 np.eye(dim, 3, dtype=complex), columns):
        got, want = qsim._evolve(amps, n, gates), reference_evolve(amps, n, gates)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_cnot_permutation_is_cached_read_only():
    perm = qsim._cnot_perm(3, 0, 2)
    assert perm is qsim._cnot_perm(3, 0, 2)
    assert not perm.flags.writeable
    with pytest.raises(ValueError):
        perm[0] = 1


# ---------------------------------------------------------------------------
# circuit_unitary
# ---------------------------------------------------------------------------

def test_unitary_of_empty_circuit():
    assert np.allclose(circuit_unitary(Circuit(1)), np.eye(2))


def test_h_is_involution():
    u = circuit_unitary(Circuit(1, [h(0), h(0)]))
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_unitary_matches_controlled_ry_block():
    theta = math.radians(-57.34)
    u = circuit_unitary(Circuit(2, circ.decompose_cry(theta, 0, 1)))
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = ry_mat(theta)
    assert np.allclose(u, want, atol=1e-10)


def test_unitary_qubit_guard():
    with pytest.raises(SimulationError):
        circuit_unitary(Circuit(7))


def test_unitary_is_unitary_for_random_circuits():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(15):
            if n > 1 and rng.random() < 0.3:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(cx(int(a), int(b)))
            else:
                kind = rng.choice(list(circ.SINGLE_QUBIT_KINDS))
                gates.append(circ.Gate(kind, (int(rng.integers(n)),)))
        u = circuit_unitary(Circuit(n, gates))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n))) < 1e-10


def test_unitary_columns_match_basis_state_runs():
    rng = np.random.default_rng(77)
    for n in range(1, MAX_UNITARY_QUBITS + 1):
        gates = [random_single(rng, int(rng.integers(n))) for _ in range(30)]
        if n > 1:
            gates[::4] = [cx(*(int(q) for q in rng.choice(n, 2, replace=False)))
                          for _ in gates[::4]]
        circuit = Circuit(n, gates)
        u = circuit_unitary(circuit)
        for j in range(2 ** n):
            column = qsim._evolve(np.eye(2 ** n, dtype=complex)[j], n, gates)
            assert np.allclose(u[:, j], column, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic_state():
    counts = sample_counts(StateVector.zero(1), 100, seed=1)
    assert counts.table == {"0": 100}


def test_sampling_bell_support():
    state = run_statevector(Circuit(2, [h(0), cx(0, 1)]))
    counts = sample_counts(state, 8192, seed=42)
    assert set(counts.table) == {"00", "11"}
    assert counts.shots == 8192


def test_sampling_seed_determinism():
    state = run_statevector(Circuit(2, [h(0), cx(0, 1)]))
    a = sample_counts(state, 4096, seed=9)
    b = sample_counts(state, 4096, seed=9)
    assert a == b


def test_sampling_zero_shots_rejected():
    with pytest.raises(SimulationError):
        sample_counts(StateVector.zero(1), 0, seed=0)


def test_sampling_consistency_with_born_rule():
    rng = np.random.default_rng(31)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    shots = 100_000
    counts = sample_counts(state, shots, seed=17)
    probs = state.probabilities()
    for idx, p in enumerate(probs):
        observed = counts.table.get(format(idx, "03b"), 0) / shots
        sigma = math.sqrt(max(p * (1 - p) / shots, 1e-12))
        assert abs(observed - p) < 5 * sigma + 1e-9


def _choice_table(state, shots, seed):
    """The sampler that sorted uniforms replaced: one choice draw per shot."""
    rng = np.random.default_rng(seed)
    probs = state.probabilities()
    probs = probs / probs.sum()
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    values, counts = np.unique(outcomes, return_counts=True)
    n = state.n_qubits
    return {format(int(v), f"0{n}b"): int(c) for v, c in zip(values, counts)}


def _assert_choice_counts(state, shots, seed):
    # items, not the dicts: a response encodes the table in this order
    got = sample_counts(state, shots, seed).table
    assert list(got.items()) == list(_choice_table(state, shots, seed).items())


@pytest.mark.parametrize("n", range(1, 11))
def test_sampled_counts_are_choice_counts(n):
    rng = np.random.default_rng(600 + n)
    size = 1 << n
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    with_zeros = np.where(rng.random(size) < 0.5, 0.0, amps)
    with_zeros[rng.integers(size)] = 1.0
    one_hot = np.zeros(size)
    one_hot[rng.integers(size)] = 1.0
    for amps in (np.ones(size), amps, amps * np.exp(-2.0 * np.arange(size)),
                 with_zeros, one_hot):
        state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        for shots in (1, 7, 8192):
            for seed in rng.integers(1 << 63, size=2).tolist():
                _assert_choice_counts(state, shots, seed)


def test_sampled_density_counts_are_choice_counts():
    circuit = Circuit(3, [h(0), cx(0, 1), t(1), ry(0.7, 2), cx(2, 0), h(2)])
    state = qsim.run_density(circuit, 0.05)
    for seed in range(50):
        for shots in (1, 7, 8192):
            _assert_choice_counts(state, shots, seed)


def test_sampled_uniform_on_a_cdf_entry_counts_as_choice_does():
    # cdf = [u, 1.0] exactly, where u is the seed's first uniform: choice
    # maps u to outcome 1
    for seed in range(50):
        u = np.random.default_rng(seed).random()
        state = qsim.DensityMatrix(1, np.diag([u, 1.0 - u]).astype(complex))
        assert sample_counts(state, 1, seed).table == {"1": 1}
        _assert_choice_counts(state, 7, seed)


def test_sampled_counts_are_choice_counts_at_max_shots():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    _assert_choice_counts(state, 1 << 20, 2024)


@pytest.mark.parametrize("diagonal", [[np.nan, 1.0], [0.0, 0.0], [np.inf, 0.0],
                                      [1e308, 1e308]],
                         ids=["nan", "all_zero", "inf", "sum_overflows"])
def test_sampling_refuses_what_choice_refused(diagonal):
    state = qsim.DensityMatrix(1, np.diag(diagonal).astype(complex))
    with pytest.raises(SimulationError, match="probabilities sum to"):
        sample_counts(state, 16, seed=0)


# ---------------------------------------------------------------------------
# post-selection
# ---------------------------------------------------------------------------

def test_postselect_bell():
    state = run_statevector(Circuit(2, [h(0), cx(0, 1)]))
    post, prob = postselect(state, 1, 1)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(post.amps, [0, 0, 0, 1], atol=1e-12)


def test_postselect_zero_probability():
    with pytest.raises(ZeroProbabilityError):
        postselect(StateVector.zero(1), 0, 1)


def test_postselect_success_probability_formula():
    # beta = (1, 0), lambdas = (1, 0.4), c = 0.4: P = sum beta_i^2 c^2 / l_i^2
    from qhesolve import hhl
    eig = hhl.eigendecompose(np.array([[0.7, 0.3], [0.3, 0.7]]))
    config = hhl.SolverConfig(mode="exact", c_constant=0.4)
    circuit = hhl.build_optimized_circuit(eig, np.array([SQ2, SQ2]), config)
    state = run_statevector(circuit)
    _, prob = postselect(state, 2, 1)
    assert prob == pytest.approx(0.16, abs=1e-9)


def test_born_totals_over_both_outcomes():
    rng = np.random.default_rng(12)
    for _ in range(20):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        qubit = int(rng.integers(3))
        total = 0.0
        for outcome in (0, 1):
            try:
                _, p = postselect(state, qubit, outcome)
                total += p
            except ZeroProbabilityError:
                pass
        assert total == pytest.approx(1.0, abs=1e-12)


def test_postselect_counts_examples():
    counts = Counts(100, {"01": 50, "11": 50})
    kept = postselect_counts(counts, 0, 1)
    assert kept == Counts(50, {"11": 50})

    with pytest.raises(ZeroProbabilityError):
        postselect_counts(Counts(100, {"00": 100}), 1, 1)

    kept = postselect_counts(Counts(100, {"10": 30, "11": 10, "00": 60}), 1, 0)
    assert kept == Counts(90, {"10": 30, "00": 60})


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def test_expectations_all_zeros():
    zc = Counts(100, {"0": 100})
    e = pauli_expectations(zc, zc, zc, 0)
    assert e.z == 1.0 and e.sigma_z == 0.0


def test_expectation_sigma_at_zero_mean():
    half = Counts(8192, {"0": 4096, "1": 4096})
    e = pauli_expectations(half, half, half, 0)
    assert e.x == 0.0
    assert e.sigma_x == pytest.approx(1 / math.sqrt(8192), abs=1e-12)


def test_analytic_expectations_plus_state():
    state = StateVector.from_amplitudes([SQ2, SQ2])
    e = analytic_expectations(state, 0)
    assert (e.z, e.x, e.y) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    assert e.shots_per_basis == 0


def test_analytic_purity_after_postselection():
    # state qubit stays pure once the ancilla branch is selected
    rng = np.random.default_rng(88)
    from conftest import random_symmetric_pd, random_unit_vector
    from qhesolve import hhl
    for _ in range(25):
        a = random_symmetric_pd(rng)
        b = random_unit_vector(rng)
        eig = hhl.eigendecompose(a)
        circuit = hhl.build_optimized_circuit(eig, b, hhl.SolverConfig())
        post, _ = postselect(run_statevector(circuit), 2, 1)
        e = analytic_expectations(post, 0)
        assert e.x ** 2 + e.y ** 2 + e.z ** 2 == pytest.approx(1.0, abs=1e-9)


def test_sampled_vs_analytic_expectations():
    state = run_statevector(Circuit(1, [ry(0.8, 0)]))
    exact = analytic_expectations(state, 0)
    tables = {}
    for basis, seed in zip("ZXY", qsim.basis_seeds(3, 3)):
        rotated = state
        for g in circ.basis_change(basis, 0):
            rotated = apply_gate(rotated, g)
        tables[basis] = sample_counts(rotated, 20000, seed)
    e = pauli_expectations(tables["Z"], tables["X"], tables["Y"], 0)
    for got, want, sig in ((e.z, exact.z, e.sigma_z), (e.x, exact.x, e.sigma_x),
                           (e.y, exact.y, e.sigma_y)):
        assert abs(got - want) < 5 * max(sig, 1e-4)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_exact_expectations_give_one():
    state = StateVector.from_amplitudes([math.cos(0.4), math.sin(0.4)])
    e = analytic_expectations(state, 0)
    assert fidelity_from_expectations(e, state) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_maximally_mixed():
    e = PauliExpectations(z=0.0, x=0.0, y=0.0)
    ideal = StateVector.from_amplitudes([SQ2, SQ2])
    assert fidelity_from_expectations(e, ideal) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_rejects_inconsistent_tomography():
    e = PauliExpectations(z=1.0, x=1.0, y=0.0, sigma_z=0.001, sigma_x=0.001,
                          sigma_y=0.001, shots_per_basis=100)
    with pytest.raises(SimulationError, match="inconsistent"):
        fidelity_from_expectations(e, StateVector.zero(1))


@pytest.mark.parametrize("shots", [1, 8192])
def test_agreeing_shots_count_as_one_shot_of_spread(shots):
    # every shot of each basis agrees, so every plug-in sigma is 0: one shot
    # per basis may read (1, 1, 1), while 8,192 shots may not
    e = PauliExpectations(z=1.0, x=1.0, y=1.0, shots_per_basis=shots)
    if shots == 1:
        assert qsim.check_bloch_ball(e) == 3.0
    else:
        with pytest.raises(SimulationError, match="inconsistent"):
            qsim.check_bloch_ball(e)


def test_fidelity_clamps_statistical_overshoot():
    e = PauliExpectations(z=1.002, x=0.0, y=0.0, sigma_z=0.01, sigma_x=0.01,
                          sigma_y=0.01, shots_per_basis=8192)
    f = fidelity_from_expectations(e, StateVector.zero(1))
    assert f == pytest.approx(1.0, abs=1e-9)


def test_fidelity_bounds_on_physical_vectors():
    rng = np.random.default_rng(55)
    for _ in range(200):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, 1)
        e = PauliExpectations(z=v[2], x=v[0], y=v[1])
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        ideal = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        f = fidelity_from_expectations(e, ideal)
        assert -1e-9 <= f <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_norm_preservation_random_gates():
    rng = np.random.default_rng(99)
    kinds = list(circ.SINGLE_QUBIT_KINDS) + ["ry", "cx"]
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "cx":
            if n == 1:
                continue
            a, b = rng.choice(n, size=2, replace=False)
            gate = cx(int(a), int(b))
        elif kind == "ry":
            gate = ry(float(rng.uniform(-6, 6)), int(rng.integers(n)))
        else:
            gate = circ.Gate(kind, (int(rng.integers(n)),))
        assert abs(np.linalg.norm(apply_gate(state, gate).amps) - 1.0) < 1e-12


def test_statevector_validation():
    with pytest.raises(SimulationError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(SimulationError):
        StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(SimulationError):  # a nan norm is not 1 either
        StateVector(1, np.array([math.nan, 0.0]))
    with pytest.raises(SimulationError):
        Counts(5, {"00": 4})
    with pytest.raises(SimulationError):
        Counts(4, {"0x": 4})


def test_counts_reject_mixed_lengths():
    with pytest.raises(SimulationError):
        Counts(2, {"0": 1, "00": 1})
