"""Solver-construction tests.

classical_solve is itself checked against numpy's solver, then serves as the
oracle for every quantum pipeline: exact-mode analytic runs must reproduce it
to 1e-6 over random positive-definite systems, and the general
phase-estimation circuit must agree with the optimized one.
"""
import math

import numpy as np
import pytest

from conftest import random_symmetric_pd, random_unit_vector
from qhesolve import circ, qsim
from qhesolve.hhl import (ANCILLA_QUBIT, STATE_QUBIT, EigenDecomp,
                          LinearSystem, SolverConfig, SolverError,
                          build_general_circuit, build_optimized_circuit,
                          choose_t0, classical_solve, compile_solver_circuit,
                          eigendecompose, extract_solution, prepare_b,
                          qft_gates, report_to_text, rotation_angle_exact,
                          rotation_angle_replica, rz_gates, submit_solve,
                          uniformly_controlled_ry)

SQ2 = 1 / math.sqrt(2)

A_EQ7 = np.array([[0.7, 0.3], [0.3, 0.7]])
A_EQ8 = np.array([[1.75, 0.75], [0.75, 1.75]])
B_MASKED_EQ7 = np.array([SQ2, SQ2])
B_MASKED_EQ8 = np.array([SQ2, -SQ2])


# ---------------------------------------------------------------------------
# classical_solve / eigendecompose
# ---------------------------------------------------------------------------

def test_classical_solve_first_fixture():
    system = LinearSystem(A_EQ7, np.array([SQ2 + 0.7, SQ2 + 0.3]))
    want = np.array([1 + SQ2, SQ2])
    assert np.allclose(classical_solve(system), want, atol=1e-12)
    assert np.allclose(classical_solve(system),
                       np.linalg.solve(system.a, system.b), atol=1e-12)


def test_classical_solve_identity():
    system = LinearSystem(np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(classical_solve(system), [3.0, 4.0])


def test_classical_solve_second_fixture():
    system = LinearSystem(A_EQ8, np.array([SQ2 + 1.75, -SQ2 + 0.75]))
    assert np.allclose(classical_solve(system), [1 + SQ2, -SQ2], atol=1e-12)


def test_singular_matrix_rejected():
    with pytest.raises(SolverError):
        LinearSystem(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("b", [[0.0, 0.0], [-0.0, 0.0], [1e-200, 0.0]],
                         ids=["zero", "negative_zero", "norm_underflows"])
def test_zero_right_hand_side_rejected(b):
    # every solve divides by ||b||
    with pytest.raises(SolverError, match="right-hand side must be nonzero"):
        LinearSystem(A_EQ7, np.array(b))


def test_eigendecompose_fixture_matrices():
    eig = eigendecompose(A_EQ7)
    assert eig.lambdas == pytest.approx((1.0, 0.4), abs=1e-12)
    hadamard = np.array([[SQ2, SQ2], [SQ2, -SQ2]])
    assert np.allclose(eig.r, hadamard, atol=1e-12)

    eig = eigendecompose(A_EQ8)
    assert eig.lambdas == pytest.approx((2.5, 1.0), abs=1e-12)
    assert np.allclose(eig.r, hadamard, atol=1e-12)


def test_eigendecompose_identity():
    eig = eigendecompose(np.eye(2))
    assert eig.lambdas == (1.0, 1.0)
    assert np.allclose(eig.r, np.eye(2))


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(SolverError):
        eigendecompose(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        m = rng.normal(size=(2, 2))
        a = (m + m.T) / 2
        eig = eigendecompose(a)
        rebuilt = eig.r.T @ np.diag(eig.lambdas) @ eig.r
        assert np.max(np.abs(rebuilt - a)) < 1e-10
        assert np.allclose(eig.r @ eig.r.T, np.eye(2), atol=1e-12)
        lead = [eig.r[i, 0] if abs(eig.r[i, 0]) > 1e-12 else eig.r[i, 1]
                for i in range(2)]
        assert all(v > 0 for v in lead)


# ---------------------------------------------------------------------------
# angles and preparation
# ---------------------------------------------------------------------------

def test_rotation_angle_exact_full_flip():
    assert rotation_angle_exact(1.0, 1.0) == pytest.approx(math.pi, abs=1e-12)


def test_rotation_angle_exact_examples():
    theta = rotation_angle_exact(1.0, 0.4)
    assert theta == pytest.approx(2 * math.asin(0.4), abs=1e-12)
    state = qsim.ry_matrix(theta) @ np.array([1, 0])
    assert state[1] == pytest.approx(0.4, abs=1e-12)
    assert rotation_angle_exact(2.5, 1.0) == pytest.approx(theta, abs=1e-12)
    with pytest.raises(SolverError):
        rotation_angle_exact(0.5, 0.6)


def test_rotation_angle_replica():
    eig = eigendecompose(np.eye(2))
    assert rotation_angle_replica(eig) == pytest.approx(0.0, abs=1e-12)
    eig = eigendecompose(A_EQ7)
    assert rotation_angle_replica(eig) == pytest.approx(-2 * math.acos(0.4),
                                                        abs=1e-12)
    assert rotation_angle_replica(eig, math.radians(-57.34)) == pytest.approx(
        -1.00077, abs=1e-5)


def test_prepare_b_examples():
    for b, angle in (((1.0, 0.0), 0.0), ((SQ2, SQ2), math.pi / 2),
                     ((SQ2, -SQ2), -math.pi / 2)):
        gates = prepare_b(np.array(b))
        assert len(gates) == 1 and gates[0].kind == "ry"
        assert gates[0].angle == pytest.approx(angle, abs=1e-12)
        state = qsim.run_statevector(circ.Circuit(1, gates))
        assert np.allclose(state.amps, b, atol=1e-12)
    with pytest.raises(SolverError):
        prepare_b(np.array([1.0, 1.0]))


def test_rz_gates_exact():
    for angle in (-2.2, 0.0, 0.4, 3.0):
        u = qsim.circuit_unitary(circ.Circuit(1, rz_gates(angle, 0)))
        want = np.diag([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)])
        assert np.allclose(u, want, atol=1e-12)


def test_qft_matches_dft_matrix():
    for m in (1, 2, 3):
        u = qsim.circuit_unitary(circ.Circuit(m, qft_gates(list(range(m)))))
        dim = 2 ** m
        omega = np.exp(2j * math.pi / dim)
        want = np.array([[omega ** (j * k) for k in range(dim)]
                         for j in range(dim)]) / math.sqrt(dim)
        assert qsim.phase_distance(u, want) < 1e-9


def test_controlled_evolution_matches_matrix_exponential():
    # Oracle route: e^{iA tau} from numpy's eigh, lifted to the controlled
    # block matrix; the gate gadget must match up to global phase.
    from qhesolve.hhl import _controlled_evolution
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_symmetric_pd(rng)
        tau = float(rng.uniform(-4.0, 4.0))
        vals, vecs = np.linalg.eigh(a)
        expm = vecs @ np.diag(np.exp(1j * vals * tau)) @ vecs.conj().T
        want = np.eye(4, dtype=complex)
        # control qubit 1, target qubit 0: control is the LOW index bit here
        want[np.ix_([1, 3], [1, 3])] = expm
        gates = _controlled_evolution(eigendecompose(a), 1, tau)
        got = qsim.circuit_unitary(circ.Circuit(2, gates))
        assert qsim.phase_distance(got, want) < 1e-9


def test_uniformly_controlled_ry_acts_per_register_value():
    rng = np.random.default_rng(6)
    angles = rng.uniform(-math.pi, math.pi, size=4)
    gates = uniformly_controlled_ry([0, 1], 2, angles)
    u = qsim.circuit_unitary(circ.Circuit(3, gates))
    for value in range(4):
        block = u[np.ix_([2 * value, 2 * value + 1],
                         [2 * value, 2 * value + 1])]
        assert np.allclose(block, qsim.ry_matrix(angles[value]), atol=1e-10)


# ---------------------------------------------------------------------------
# optimized circuit
# ---------------------------------------------------------------------------

def test_exact_mode_first_masked_fixture():
    eig = eigendecompose(A_EQ7)
    config = SolverConfig(mode="exact", c_constant=0.4)
    circuit = build_optimized_circuit(eig, B_MASKED_EQ7, config)
    state = qsim.run_statevector(circuit)
    post, prob = qsim.postselect(state, ANCILLA_QUBIT, 1)
    assert prob == pytest.approx(0.16, abs=1e-9)
    sol = qsim.reduced_pure_state(post, STATE_QUBIT)
    assert abs(np.vdot(sol, [SQ2, SQ2])) == pytest.approx(1.0, abs=1e-9)


def test_exact_mode_identity_system():
    eig = eigendecompose(np.eye(2))
    config = SolverConfig(mode="exact", c_constant=1.0)
    circuit = build_optimized_circuit(eig, np.array([1.0, 0.0]), config)
    state = qsim.run_statevector(circuit)
    post, prob = qsim.postselect(state, ANCILLA_QUBIT, 1)
    assert prob == pytest.approx(1.0, abs=1e-12)
    sol = qsim.reduced_pure_state(post, STATE_QUBIT)
    assert abs(np.vdot(sol, [1, 0])) == pytest.approx(1.0, abs=1e-12)


def test_replica_mode_second_masked_fixture():
    eig = eigendecompose(A_EQ8)
    config = SolverConfig(mode="replica",
                          theta_override=math.radians(-57.34))
    circuit = build_optimized_circuit(eig, B_MASKED_EQ8, config)
    state = qsim.run_statevector(circuit)
    post, _ = qsim.postselect(state, ANCILLA_QUBIT, 1)
    sol = qsim.reduced_pure_state(post, STATE_QUBIT)
    assert abs(np.vdot(sol, [SQ2, -SQ2])) == pytest.approx(1.0, abs=1e-9)


def test_replica_mode_rejects_zero_success():
    eig = eigendecompose(A_EQ7)
    config = SolverConfig(mode="replica", theta_override=0.0)
    with pytest.raises(SolverError, match="vanishing"):
        build_optimized_circuit(eig, B_MASKED_EQ7, config)


EXACT_GATES = ("ry0 z0 ry0 cx01 ry2 cx12 ry2 cx12 x1 ry2 cx12 ry2 cx12 x1 "
               "cx01 ry0 z0")


@pytest.mark.parametrize("mode, populated, want", [
    ("exact", 0, EXACT_GATES),
    ("exact", 1, EXACT_GATES),
    ("replica", 0, "ry0 z0 ry0 cx01 x1 ry2 cx12 ry2 cx12 x1 cx01 ry0 z0"),
    ("replica", 1, "ry0 z0 ry0 cx01 ry2 cx12 ry2 cx12 cx01 ry0 z0"),
])
def test_optimized_circuit_gate_sequence(mode, populated, want):
    # b is an eigenvector of eq7, so it populates exactly that branch; only
    # replica mode X-conjugates a single rotation onto eigenvalue bit 0
    eig = eigendecompose(A_EQ7)
    circuit = build_optimized_circuit(eig, eig.r[populated],
                                      SolverConfig(mode=mode))
    got = " ".join(g.kind + "".join(map(str, g.qubits)) for g in circuit.gates)
    assert got == want


def test_replica_angle_independence_on_eigenvector_inputs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_symmetric_pd(rng)
        eig = eigendecompose(a)
        b = eig.r[int(rng.integers(2))]  # an exact eigenvector
        b = b if b[0] >= 0 or b[1] >= 0 else -b
        theta = float(rng.uniform(0.2, math.pi))
        config = SolverConfig(mode="replica",
                              theta_override=theta * rng.choice([-1.0, 1.0]))
        circuit = build_optimized_circuit(eig, b, config)
        post, _ = qsim.postselect(qsim.run_statevector(circuit),
                                  ANCILLA_QUBIT, 1)
        sol = qsim.reduced_pure_state(post, STATE_QUBIT)
        assert abs(np.vdot(sol, b)) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# choose_t0 / general circuit
# ---------------------------------------------------------------------------

def test_choose_t0_fixture_spectrum():
    eig = eigendecompose(A_EQ7)  # lambdas (1.0, 0.4), ratio 5/2
    t0 = choose_t0(eig, 3)
    assert t0 == pytest.approx(2 * math.pi * 0.25 / 0.4, abs=1e-12)
    phases = [lam * t0 / (2 * math.pi) for lam in eig.lambdas]
    assert phases == pytest.approx([5 / 8, 2 / 8], abs=1e-12)


def test_choose_t0_wraps_modulo_register():
    eig = EigenDecomp((2.0, 1.0), np.eye(2))
    t0 = choose_t0(eig, 1)
    assert t0 == pytest.approx(math.pi, abs=1e-12)


def test_choose_t0_degenerate_spectrum():
    eig = eigendecompose(np.eye(2))
    t0 = choose_t0(eig, 1)
    assert 1.0 * t0 / (2 * math.pi) == pytest.approx(0.5, abs=1e-12)


def test_choose_t0_failures():
    with pytest.raises(SolverError):
        choose_t0(EigenDecomp((5.0, 1.0), np.eye(2)), 2)  # needs n1 = 5 > 4
    with pytest.raises(SolverError):
        choose_t0(EigenDecomp((math.pi, 1.0), np.eye(2)), 3)  # irrational


def fidelity_between(u, v):
    return abs(np.vdot(u, v))


def general_post_state(system, config):
    circuit = build_general_circuit(system, config)
    m = config.eigen_register_bits
    state = qsim.run_statevector(circuit)
    post, prob = qsim.postselect(state, 1 + m, 1)
    return qsim.reduced_pure_state(post, STATE_QUBIT), prob


def test_general_circuit_first_fixture():
    system = LinearSystem(A_EQ7, B_MASKED_EQ7)
    config = SolverConfig(mode="exact", c_constant=0.4, eigen_register_bits=3)
    sol, prob = general_post_state(system, config)
    assert prob == pytest.approx(0.16, abs=1e-9)
    assert fidelity_between(sol, [SQ2, SQ2]) == pytest.approx(1.0, abs=1e-6)


def test_general_circuit_second_fixture():
    system = LinearSystem(A_EQ8, B_MASKED_EQ8)
    config = SolverConfig(mode="exact", c_constant=0.4, eigen_register_bits=3)
    sol, prob = general_post_state(system, config)
    assert prob == pytest.approx(0.16, abs=1e-9)
    assert fidelity_between(sol, [SQ2, -SQ2]) == pytest.approx(1.0, abs=1e-6)


def test_general_circuit_identity_system():
    system = LinearSystem(np.eye(2), np.array([1.0, 0.0]))
    config = SolverConfig(mode="exact", c_constant=1.0, eigen_register_bits=1)
    sol, prob = general_post_state(system, config)
    assert prob == pytest.approx(1.0, abs=1e-9)
    assert fidelity_between(sol, [1, 0]) == pytest.approx(1.0, abs=1e-9)


def test_general_matches_optimized_when_representable():
    rng = np.random.default_rng(77)
    ratios = [(2, 1), (5, 2), (3, 1), (7, 4), (4, 3)]
    for n1, n2 in ratios:
        lam2 = rng.uniform(0.4, 1.2)
        lam1 = lam2 * n1 / n2
        phi = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        r = np.array([[c, -s], [s, c]])
        a = r.T @ np.diag([lam1, lam2]) @ r
        b = random_unit_vector(rng)
        system = LinearSystem(a, b)
        config = SolverConfig(mode="exact", eigen_register_bits=3)
        sol_gen, prob_gen = general_post_state(system, config)

        eig = eigendecompose(a)
        opt = build_optimized_circuit(eig, b, config)
        post, prob_opt = qsim.postselect(qsim.run_statevector(opt),
                                         ANCILLA_QUBIT, 1)
        sol_opt = qsim.reduced_pure_state(post, STATE_QUBIT)
        assert prob_gen == pytest.approx(prob_opt, abs=1e-9)
        assert fidelity_between(sol_gen, sol_opt) == pytest.approx(1.0, abs=1e-6)


def test_general_circuit_qubit_budget():
    system = LinearSystem(A_EQ7, B_MASKED_EQ7)
    with pytest.raises(SolverError, match="budget"):
        build_general_circuit(system, SolverConfig(eigen_register_bits=9))


def test_solver_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(mode="fast")
    with pytest.raises(SolverError):
        SolverConfig(execution="sampled", shots=0)


# ---------------------------------------------------------------------------
# extraction and the full local pipeline
# ---------------------------------------------------------------------------

def test_extract_solution_first_fixture_values():
    system = LinearSystem(A_EQ7, B_MASKED_EQ7)
    report = submit_solve(system, SolverConfig(mode="exact", c_constant=0.4))
    assert report.scale == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(report.solution, [SQ2, SQ2], atol=1e-9)
    assert report.success_probability == pytest.approx(0.16, abs=1e-9)
    assert report.relative_error < 1e-9
    assert report.fidelity_vs_ideal == pytest.approx(1.0, abs=1e-9)


def test_extract_solution_scaled_identity():
    system = LinearSystem(2 * np.eye(2), np.array([1.0, 0.0]))
    report = submit_solve(system, SolverConfig(mode="exact"))
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)
    assert report.scale == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(report.solution, [0.5, 0.0], atol=1e-9)


def test_extract_solution_rejects_zero_probability():
    with pytest.raises(SolverError):
        extract_solution(qsim.PauliExpectations(z=1.0, x=0.0, y=0.0), 0.0,
                         1.0, c_value=1.0, b_unit=np.array([1.0, 0.0]),
                         ideal=np.array([1.0, 0.0]))


def test_solution_invariants():
    rng = np.random.default_rng(10)
    for _ in range(30):
        system = LinearSystem(random_symmetric_pd(rng),
                              random_unit_vector(rng))
        report = submit_solve(system, SolverConfig(mode="exact"))
        assert np.linalg.norm(report.normalized_solution) == pytest.approx(
            1.0, abs=1e-9)
        assert np.allclose(report.solution,
                           report.scale * report.normalized_solution,
                           atol=1e-12)


def test_oracle_equivalence_exact_mode():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        a = random_symmetric_pd(rng, max_condition=10.0)
        b = random_unit_vector(rng)
        system = LinearSystem(a, b)
        report = submit_solve(system, SolverConfig(mode="exact"))
        want = classical_solve(system)
        err = np.linalg.norm(report.solution - want) / np.linalg.norm(want)
        assert err < 1e-6


def test_success_probability_law():
    rng = np.random.default_rng(321)
    for _ in range(50):
        a = random_symmetric_pd(rng)
        b = random_unit_vector(rng)
        system = LinearSystem(a, b)
        c = eigendecompose(a).lambda_min * rng.uniform(0.3, 1.0)
        report = submit_solve(system, SolverConfig(mode="exact", c_constant=c))
        want = c ** 2 * np.linalg.norm(np.linalg.solve(a, b)) ** 2
        assert report.success_probability == pytest.approx(want, abs=1e-9)
        # scale * ||normalized|| recovers ||A^-1 b||
        assert report.scale == pytest.approx(
            np.linalg.norm(np.linalg.solve(a, b)), abs=1e-6)


def test_sampled_execution_close_to_oracle():
    system = LinearSystem(A_EQ7, B_MASKED_EQ7)
    config = SolverConfig(mode="exact", execution="sampled", shots=8192,
                          seed=11)
    report = submit_solve(system, config)
    want = classical_solve(system)
    err = np.linalg.norm(report.solution - want) / np.linalg.norm(want)
    assert err < 0.05
    assert report.expectations.shots_per_basis > 0


def test_compile_solver_circuit_substitution_changes_gates():
    eig = eigendecompose(A_EQ7)
    config = SolverConfig(mode="replica",
                          theta_override=math.radians(-57.34),
                          star_center=1, rs_t_budget=7)
    circuit, c_value = compile_solver_circuit(eig, B_MASKED_EQ7, config)
    assert not any(g.kind == "ry" for g in circuit.gates)
    assert all(g.target == 1 for g in circuit.gates if g.kind == "cx")
    assert 0 < c_value <= 1.0


def test_report_text_format():
    system = LinearSystem(A_EQ7, B_MASKED_EQ7)
    report = submit_solve(system, SolverConfig(mode="exact", c_constant=0.4))
    text = report_to_text(report)
    lines = dict(line.split("=", 1) for line in text.strip().split("\n"))
    assert float(lines["success_probability"]) == pytest.approx(0.16, abs=1e-9)
    assert float(lines["solution_1"]) == pytest.approx(SQ2, abs=1e-9)
    assert set(lines) >= {"success_probability", "scale", "solution_1",
                          "solution_2", "expectation_z", "fidelity_vs_ideal"}
