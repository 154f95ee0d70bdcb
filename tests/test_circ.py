"""Circuit IR, text format, and rewrite-pass tests.

Every pass is checked against circuit_unitary, with targets built directly
from kron products so the oracle never goes through the pass under test.
"""
import math

import numpy as np
import pytest

from qhesolve import circ, qsim
from qhesolve.circ import (Circuit, CircuitError, CircuitSyntaxError,
                           basis_change, cx, decompose_cry, emit_text, h,
                           legalize_star, parse_text, reverse_cnot, ry, s,
                           substitute_ry, t, x)


def ry_mat(theta):
    c, sn = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -sn], [sn, c]], dtype=complex)


def controlled(u):
    """diag(I, U) with the control as the more significant qubit."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


CNOT_01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                   dtype=complex)
CNOT_10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                   dtype=complex)


# ---------------------------------------------------------------------------
# Gate / Circuit construction
# ---------------------------------------------------------------------------

def test_gate_validation():
    with pytest.raises(CircuitError):
        cx(1, 1)
    with pytest.raises(CircuitError):
        ry(float("inf"), 0)
    with pytest.raises(CircuitError):
        circ.Gate("h", (0, 1))
    with pytest.raises(CircuitError):
        circ.Gate("nope", (0,))


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(CircuitError):
        Circuit(1, [cx(0, 1)])


def test_invert_gates_is_inverse():
    gates = [h(0), s(0), t(1), ry(0.7, 1), cx(0, 1), x(0)]
    c = Circuit(2, gates + circ.invert_gates(gates))
    assert np.allclose(qsim.circuit_unitary(c), np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# decompose_cry
# ---------------------------------------------------------------------------

def test_cry_zero_angle_is_identity():
    c = Circuit(2, decompose_cry(0.0, 0, 1))
    assert np.allclose(qsim.circuit_unitary(c), np.eye(4), atol=1e-12)


def test_cry_matches_block_matrix():
    theta = math.radians(-57.34)
    c = Circuit(2, decompose_cry(theta, 0, 1))
    assert np.allclose(qsim.circuit_unitary(c), controlled(ry_mat(theta)),
                       atol=1e-10)


def test_cry_two_pi_gives_z_on_control():
    c = Circuit(2, decompose_cry(2 * math.pi, 0, 1))
    assert np.allclose(qsim.circuit_unitary(c), np.diag([1, 1, -1, -1]),
                       atol=1e-10)


def test_cry_structure():
    gates = decompose_cry(0.5, 2, 0)
    kinds = [g.kind for g in gates]
    assert kinds == ["ry", "cx", "ry", "cx"]
    assert gates[0].angle == pytest.approx(0.25)
    assert gates[2].angle == pytest.approx(-0.25)
    assert all(g.qubits == (2, 0) for g in gates if g.kind == "cx")
    with pytest.raises(CircuitError):
        decompose_cry(0.5, 1, 1)


def test_cry_control_zero_branch_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        u = qsim.circuit_unitary(Circuit(2, decompose_cry(theta, 0, 1)))
        assert np.allclose(u[:2, :2], np.eye(2), atol=1e-12)
        assert np.allclose(u[:2, 2:], 0, atol=1e-12)


def test_cry_reversed_qubit_order():
    # control on q1: blocks interleave in the q0-major index ordering
    theta = 1.1
    u = qsim.circuit_unitary(Circuit(2, decompose_cry(theta, 1, 0)))
    want = np.eye(4, dtype=complex)
    rm = ry_mat(theta)
    want[np.ix_([1, 3], [1, 3])] = rm
    assert np.allclose(u, want, atol=1e-10)


# ---------------------------------------------------------------------------
# reverse_cnot
# ---------------------------------------------------------------------------

def test_reverse_cnot_is_textbook_identity():
    u = qsim.circuit_unitary(Circuit(2, reverse_cnot(0, 1)))
    assert np.allclose(u, CNOT_01, atol=1e-12)
    u = qsim.circuit_unitary(Circuit(2, reverse_cnot(1, 0)))
    assert np.allclose(u, CNOT_10, atol=1e-12)


def test_reverse_cnot_twice_restores_direction():
    gates = reverse_cnot(0, 1)
    # reverse the inner cnot again
    doubled = gates[:2] + reverse_cnot(*gates[2].qubits) + gates[3:]
    u = qsim.circuit_unitary(Circuit(2, doubled))
    assert np.allclose(u, CNOT_01, atol=1e-12)


# ---------------------------------------------------------------------------
# legalize_star
# ---------------------------------------------------------------------------

def test_legalize_noop_on_legal_circuit():
    c = Circuit(3, [h(0), cx(0, 1), cx(2, 1)])
    out = legalize_star(c, 1)
    assert out == c


def test_legalize_reverses_center_controlled_cnot():
    c = Circuit(2, [cx(1, 0)])
    out = legalize_star(c, 1)
    assert len(out.gates) == 5
    assert all(g.target == 1 for g in out.gates if g.kind == "cx")
    assert np.allclose(qsim.circuit_unitary(out), qsim.circuit_unitary(c),
                       atol=1e-12)


def test_legalize_rejects_leaf_to_leaf():
    c = Circuit(3, [cx(0, 2)])
    with pytest.raises(CircuitError, match="leaf"):
        legalize_star(c, 1)


@pytest.mark.parametrize("center", [-1, 3])
def test_legalize_rejects_center_outside_circuit(center):
    c = Circuit(3, [h(0), cx(0, 1)])
    with pytest.raises(CircuitError, match="star center outside the circuit"):
        legalize_star(c, center)


def test_legalize_idempotent_and_unconstrained():
    c = Circuit(3, [h(0), cx(1, 0), ry(0.3, 2), cx(2, 1)])
    once = legalize_star(c, 1)
    assert legalize_star(once, 1) == once


def random_star_circuit(rng, n_qubits, depth, center):
    gates = []
    for _ in range(depth):
        kind = rng.choice(["x", "y", "z", "h", "s", "sdg", "t", "tdg", "ry", "cx"])
        if kind == "cx":
            leaf = int(rng.choice([q for q in range(n_qubits) if q != center]))
            pair = (center, leaf) if rng.random() < 0.5 else (leaf, center)
            gates.append(cx(*pair))
        elif kind == "ry":
            gates.append(ry(float(rng.uniform(-math.pi, math.pi)),
                            int(rng.integers(n_qubits))))
        else:
            gates.append(circ.Gate(kind, (int(rng.integers(n_qubits)),)))
    return Circuit(n_qubits, gates)


def test_legalize_preserves_semantics_on_random_circuits():
    rng = np.random.default_rng(202)
    for trial in range(100):
        n = int(rng.integers(2, 5))
        center = int(rng.integers(n))
        c = random_star_circuit(rng, n, int(rng.integers(1, 31)), center)
        out = legalize_star(c, center)
        assert all(g.target == center for g in out.gates if g.kind == "cx")
        dist = qsim.phase_distance(qsim.circuit_unitary(c),
                                   qsim.circuit_unitary(out))
        assert dist < 1e-9


# ---------------------------------------------------------------------------
# substitute_ry
# ---------------------------------------------------------------------------

def test_substitute_noop_without_ry():
    c = Circuit(2, [h(0), cx(0, 1)])
    assert substitute_ry(c, {}) == c


def test_substitute_missing_angle_errors():
    c = Circuit(1, [ry(0.5, 0)])
    with pytest.raises(CircuitError, match="no approximation"):
        substitute_ry(c, {0.7: [h(0)]})


def test_substitute_exact_sequence_preserves_unitary():
    # ry(pi/2) equals h then x exactly, so substitution is lossless
    c = Circuit(2, [ry(math.pi / 2, 0), cx(0, 1), ry(math.pi / 2, 1)])
    out = substitute_ry(c, {math.pi / 2: [h(0), x(0)]})
    assert not any(g.kind == "ry" for g in out.gates)
    assert qsim.phase_distance(qsim.circuit_unitary(c),
                               qsim.circuit_unitary(out)) < 1e-12


def _substitution_case(theta, circuit):
    """Substitute the +-theta/2 rotations and measure the composed loss."""
    from qhesolve import synth
    approx, sims = {}, []
    for angle in (theta / 2, -theta / 2):
        found = synth.approximate_unitary(qsim.ry_matrix(angle), 7)
        approx[angle] = found.sequence.to_gates(0)
        sims.append(found.similarity)
    out = substitute_ry(circuit, approx)
    assert not any(g.kind == "ry" for g in out.gates)
    u, v = qsim.circuit_unitary(circuit), qsim.circuit_unitary(out)
    dim = u.shape[0]
    whole = abs(np.trace(u.conj().T @ v)) / dim
    n_subs = sum(1 for g in circuit.gates if g.kind == "ry")
    return whole, sims, n_subs


def test_substitute_similarity_composition_bound():
    # Each substitution deviates by an angle 2*arccos(F_i); deviations add,
    # so the composed similarity is at least cos(sum of arccos(F_i)).
    for theta in (math.radians(-57.34), math.radians(-132.84)):
        circuit = Circuit(2, decompose_cry(theta, 0, 1))
        whole, sims, n_subs = _substitution_case(theta, circuit)
        assert n_subs == 2
        bound = math.cos(sum(math.acos(min(1.0, f)) for f in sims))
        assert whole >= bound - 1e-9


def test_substitute_two_high_fidelity_substitutions():
    # With both approximations at 0.9983, twice-substituted circuits stay
    # above 0.996 (measured directly on the composed 4x4/8x8 unitaries).
    theta = math.radians(-132.84)
    whole, sims, _ = _substitution_case(theta, Circuit(2, decompose_cry(theta, 0, 1)))
    assert min(sims) >= 0.998
    assert whole >= 0.996
    whole, _, n_subs = _substitution_case(
        theta, Circuit(3, decompose_cry(theta, 1, 2) + decompose_cry(theta, 0, 2)))
    assert n_subs == 4
    assert whole >= 1.0 - 4 * (1.0 - min(sims)) - 4e-3  # first-order estimate


# ---------------------------------------------------------------------------
# basis_change
# ---------------------------------------------------------------------------

def test_basis_change_gate_lists():
    assert basis_change("Z", 0) == []
    assert [g.kind for g in basis_change("X", 0)] == ["h"]
    assert [g.kind for g in basis_change("Y", 0)] == ["sdg", "h"]
    with pytest.raises(CircuitError):
        basis_change("Q", 0)


def test_basis_change_diagonalizes_the_pauli():
    plus = qsim.StateVector.from_amplitudes(np.array([1, 1]) / math.sqrt(2))
    state = plus
    for g in basis_change("X", 0):
        state = qsim.apply_gate(state, g)
    assert abs(state.amps[0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    y_plus = qsim.StateVector.from_amplitudes(np.array([1, 1j]) / math.sqrt(2))
    state = y_plus
    for g in basis_change("Y", 0):
        state = qsim.apply_gate(state, g)
    assert abs(state.amps[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_minimal():
    c = parse_text("qubits 1\nh q0\n")
    assert c == Circuit(1, [h(0)])


def test_parse_rejects_equal_cx_qubits():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_text("qubits 2\ncx q0 q0\n")
    assert err.value.line == 2


def test_parse_error_positions():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_text("qubits 2\nh q0\nfrob q1\n")
    assert (err.value.line, err.value.column) == (3, 1)
    with pytest.raises(CircuitSyntaxError) as err:
        parse_text("qubits 2\nh q7\n")
    assert (err.value.line, err.value.column) == (2, 3)


def test_parse_lines_end_at_newline():
    assert parse_text("qubits 1\r\nh q0\r\n") == parse_text("qubits 1\nh q0\n")
    with pytest.raises(CircuitSyntaxError, match="'qubits' expects 1"):
        parse_text("qubits 1\rh q0\r")


def test_parse_overlong_line_allocates_no_token_list():
    import tracemalloc
    source = "qubits 1\nh " + "q0 " * 100_000
    tracemalloc.start()
    try:
        with pytest.raises(CircuitSyntaxError, match="expects 1 argument"):
            parse_text(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a list of 100,000 tokens would take ~30x the source
    assert peak < 8 * len(source)


@pytest.mark.parametrize("source", [
    "qubits \u00b2\n", "qubits " + "1" * 5000 + "\n",
    "qubits 2\nh q\u00b2\n", "qubits 2\nh q" + "1" * 5000 + "\n",
], ids=["count_superscript", "count_5000_digits", "qubit_superscript",
        "qubit_5000_digits"])
def test_parse_refuses_integers_int_cannot_read(source):
    # isdigit() passes each of these, but int() raises ValueError on them
    with pytest.raises(CircuitSyntaxError):
        parse_text(source)


def test_parse_rejects_gate_after_measure():
    # a circuit is its gates: role and measure lines are unknown gates
    for source, line, column, name in [
            ("qubits 1\nmeasure q0\nh q0\n", 2, 1, "measure"),
            ("qubits 3\nh q0\n  role q0 state\n", 3, 3, "role")]:
        with pytest.raises(CircuitSyntaxError,
                           match=f"unknown gate name '{name}'") as err:
            parse_text(source)
        assert (err.value.line, err.value.column) == (line, column)


def test_parse_requires_header():
    with pytest.raises(CircuitSyntaxError):
        parse_text("h q0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_text("")


def test_parse_comments_and_roles():
    src = """qubits 3  # three qubits
# full-line comment
ry(-1.0007963267948966) q0  # role q0 state
cx q0 q1
"""
    c = parse_text(src)
    assert c == Circuit(3, [ry(-1.0007963267948966, 0), cx(0, 1)])
    assert c.gates[0].angle == pytest.approx(-1.0007963267948966, abs=0)


def test_round_trip_is_identity():
    c = Circuit(3, [h(0), ry(-0.5003858965468718, 1), cx(2, 1), t(0),
                    s(2), x(1)])
    assert parse_text(emit_text(c)) == c


def test_round_trip_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        gates = []
        for _ in range(int(rng.integers(0, 25))):
            kind = rng.choice(list(circ.SINGLE_QUBIT_KINDS) + ["ry", "cx"])
            if kind == "cx" and n > 1:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(cx(int(a), int(b)))
            elif kind == "ry":
                gates.append(ry(float(rng.normal()), int(rng.integers(n))))
            elif kind != "cx":
                gates.append(circ.Gate(kind, (int(rng.integers(n)),)))
        c = Circuit(n, gates)
        assert parse_text(emit_text(c)) == c


def test_emitted_angles_survive_exactly():
    angle = -0.5003858965468718
    c = parse_text(emit_text(Circuit(1, [ry(angle, 0)])))
    assert c.gates[0].angle == angle


def test_legalized_solver_circuit_round_trips():
    import numpy as np
    from qhesolve import hhl
    eig = hhl.eigendecompose(np.array([[0.7, 0.3], [0.3, 0.7]]))
    config = hhl.SolverConfig(mode="replica",
                              theta_override=math.radians(-57.34))
    circuit = hhl.build_optimized_circuit(
        eig, np.array([1, 1]) / math.sqrt(2), config)
    legalized = legalize_star(circuit, hhl.EIGEN_QUBIT)
    assert parse_text(emit_text(legalized)) == legalized
