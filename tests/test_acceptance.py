"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 2 is checked against an independent oracle, not against the
published similarity 0.998 for the budget-7 approximation of ry(-28.67 deg).
The oracle multiplies out the Matsumoto-Amano normal forms
(T|e)(HT|SHT)* C over the 24 Cliffords (arXiv:0806.3834). At T-count <= 7
they are 9168 phase-distinct unitaries, the census count 24*(3*2^7 - 2),
and their best similarity to ry(-28.67 deg) is 0.9967864880. Nearby
readings fall short of 0.998 too: budget 8 reaches only 0.997164, and
ry(-57.34 deg) (the other half-angle convention) reaches 0.994207. The best
word of exactly seven T-type and seven H gates reaches 0.989863. So the test
pins the proven optimum and records the published value as exceeding it.
The companion test shows the eigenvalue-ratio formula angle
(-2*arccos(0.4), half-angle -66.42 deg) does reach 0.998345 with a maximizer
of exactly seven T-type and seven H gates, which is where the published
figure likely comes from. The published figure may instead be a state
fidelity: the state Ry(-28.67 deg)|0> is reached at budget 7 with fidelity
0.99866. The unitary measure is kept because the compiled ry acts inside a
controlled rotation on arbitrary inputs.
"""
import json
import math
import time

import numpy as np

from conftest import circuit_unitary, random_symmetric_pd, reduced_pure_state
from qhesolve import circ, fixtures, hecrypt, hhl, qserve, qsim, synth
from qhesolve.cli import main
from qhesolve.qsim import GATE_MATRICES
from test_circ import phase_distance
from test_synth import word_matrix

SQ2 = 1 / math.sqrt(2)
ORACLE_EQ7 = np.array([1 + SQ2, SQ2])
ORACLE_EQ8 = np.array([1 + SQ2, -SQ2])


def verdict(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def cli_report(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    assert status == 0, f"cli failed: {argv}"
    return {k: float(v) for k, v in
            (line.split("=", 1) for line in out.strip().split("\n"))}


# ---------------------------------------------------------------------------
# 1. masked-solve reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_masked_solve_reproduction(capsys):
    started = time.monotonic()
    sampled = cli_report(capsys, [
        "solve", "--fixture", "eq7", "--key", "1,0", "--mode", "replica",
        "--execution", "sampled", "--shots", "8192", "--seed", "7"])
    elapsed = time.monotonic() - started
    got = np.array([sampled["solution_1"], sampled["solution_2"]])
    err7 = np.linalg.norm(got - ORACLE_EQ7) / np.linalg.norm(ORACLE_EQ7)

    exact = cli_report(capsys, [
        "solve", "--fixture", "eq7", "--key", "1,0", "--mode", "exact",
        "--execution", "analytic"])
    exact_err = np.linalg.norm(
        [exact["solution_1"] - ORACLE_EQ7[0],
         exact["solution_2"] - ORACLE_EQ7[1]]) / np.linalg.norm(ORACLE_EQ7)

    sampled8 = cli_report(capsys, [
        "solve", "--fixture", "eq8", "--key", "1,0", "--mode", "replica",
        "--execution", "sampled", "--shots", "8192", "--seed", "7"])
    got8 = np.array([sampled8["solution_1"], sampled8["solution_2"]])
    err8 = np.linalg.norm(got8 - ORACLE_EQ8) / np.linalg.norm(ORACLE_EQ8)

    exact8 = cli_report(capsys, [
        "solve", "--fixture", "eq8", "--key", "1,0", "--mode", "exact",
        "--execution", "analytic"])
    exact8_err = np.linalg.norm(
        [exact8["solution_1"] - ORACLE_EQ8[0],
         exact8["solution_2"] - ORACLE_EQ8[1]]) / np.linalg.norm(ORACLE_EQ8)

    # the hardware runs reported x2 = +0.6911 for eq8; direct inversion
    # gives -0.70711 (sign discrepancy on record, magnitudes within 2.3%)
    reported_x2 = fixtures.REFERENCE_DECRYPTED_SOLUTION["eq8"][1]
    magnitude_gap = abs(abs(reported_x2) - SQ2) / SQ2
    ok = verdict(
        "1", err7 < 0.02 and err8 < 0.02 and exact_err < 1e-6
        and exact8_err < 1e-6 and elapsed < 10.0 and magnitude_gap < 0.03,
        f"sampled rel err eq7={err7:.4f} eq8={err8:.4f} (<2%), analytic "
        f"{exact_err:.2e}/{exact8_err:.2e} (<1e-6), {elapsed:.1f}s; "
        f"recorded eq8 sign discrepancy: reported x2={reported_x2} vs "
        f"oracle {-SQ2:.5f}, magnitude gap {magnitude_gap:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 2. synthesis
# ---------------------------------------------------------------------------

def best_similarity_over_7t7h_words(target: np.ndarray) -> float:
    """Independent oracle: exact search over every word made of exactly
    seven T-type (t or tdg) and seven H letters, deduplicated mod phase."""
    def key(u):
        flat = u.reshape(-1)
        idx = int(np.argmax(np.abs(flat) > 1e-7))
        phase = flat[idx] / abs(flat[idx])
        return tuple(np.round((u * np.conj(phase)).reshape(-1).view(float), 6))

    layers = {(0, 0): {key(np.eye(2, dtype=complex)): np.eye(2, dtype=complex)}}
    for _ in range(14):
        grown = {}
        for (n_h, n_t), mats in layers.items():
            for letter in ("h", "t", "tdg"):
                n_h2 = n_h + (letter == "h")
                n_t2 = n_t + (letter != "h")
                if n_h2 > 7 or n_t2 > 7:
                    continue
                bucket = grown.setdefault((n_h2, n_t2), {})
                for mat in mats.values():
                    new = GATE_MATRICES[letter] @ mat
                    bucket.setdefault(key(new), new)
        layers = grown
    final = layers[(7, 7)].values()
    return max(abs(np.trace(target.conj().T @ u)) / 2.0 for u in final)


PAULI_STACK = np.stack([GATE_MATRICES[p] for p in ("x", "y", "z")])

# Proven budget-7 optimum for ry(REPLICA_THETA / 2), from the oracle below.
PROVEN_OPTIMUM_HALF_REPLICA = 0.9967864880


def phase_free_keys(mats: np.ndarray) -> list[tuple]:
    """Keys of a stack of 2x2 unitaries that ignore global phase.

    Each key is the rounded 3x3 rotation R_ij = Tr(P_i u P_j u^dag) / 2 over
    the Paulis, which is phase-invariant and faithful modulo phase."""
    rot = np.einsum("iab,nbc,jcd,nad->nij", PAULI_STACK, mats, PAULI_STACK,
                    mats.conj()).real / 2.0
    rows = np.round(rot.reshape(len(mats), 9), 9) + 0.0  # folds -0.0 into 0.0
    return [tuple(row) for row in rows]


def clifford_group() -> list[np.ndarray]:
    """The 24 single-qubit Cliffords, closed from H and S by plain products."""
    eye = np.eye(2, dtype=complex)
    group = {phase_free_keys(eye[None])[0]: eye}
    frontier = [eye]
    while frontier:
        grown = []
        for base in frontier:
            for gen in (GATE_MATRICES["h"], GATE_MATRICES["s"]):
                cand = gen @ base
                key = phase_free_keys(cand[None])[0]
                if key not in group:
                    group[key] = cand
                    grown.append(cand)
        frontier = grown
    return list(group.values())


def normal_form_unitaries(t_budget: int) -> np.ndarray:
    """Independent oracle: every Matsumoto-Amano normal form
    (T|e)(HT|SHT)* C with at most t_budget T gates, multiplied out as
    written. Normal forms are unique per unitary, so none repeat."""
    h, s, t = (GATE_MATRICES[g] for g in ("h", "s", "t"))
    syllables = (h @ t, s @ h @ t)
    prefixes = [np.eye(2, dtype=complex)]
    layer = [t, *syllables]  # the prefixes of T-count 1
    for _ in range(t_budget):
        prefixes += layer
        layer = [p @ syl for p in layer for syl in syllables]
    return np.einsum("pab,cbd->pcad", np.array(prefixes),
                     np.array(clifford_group())).reshape(-1, 2, 2)


def test_criterion_2_synthesis_as_specified():
    # The published 0.998 is out of reach here (see module docstring), so
    # the exhaustive search is checked against the normal-form oracle, its
    # optimum is pinned, and the published value is recorded as exceeding
    # it, the way criterion 1 records the eq8 sign discrepancy.
    target = qsim.ry_matrix(fixtures.REPLICA_THETA / 2.0)  # ry(-28.67 deg)
    started = time.monotonic()
    result = synth.approximate_unitary(target, 7)
    elapsed = time.monotonic() - started

    oracle = normal_form_unitaries(7)
    oracle_keys = set(phase_free_keys(oracle))
    table = np.array([e.matrix for e in synth.enumerate_unitaries(7)])
    same_table = set(phase_free_keys(table)) == oracle_keys
    oracle_best = float(np.max(np.abs(
        np.einsum("ab,nab->n", target.conj(), oracle)) / 2.0))
    published = fixtures.REFERENCE_RS_SIMILARITY
    best_7t7h = best_similarity_over_7t7h_words(target)

    rebuilt = word_matrix(result.sequence.gates)
    word_sim = abs(np.trace(target.conj().T @ rebuilt)) / 2.0
    word_t = sum(g in ("t", "tdg") for g in result.sequence.gates)

    ok = verdict(
        "2", len(oracle_keys) == 9168 and same_table
        and abs(result.similarity - oracle_best) < 1e-12
        and abs(oracle_best - PROVEN_OPTIMUM_HALF_REPLICA) < 1e-9
        and oracle_best < published
        and best_7t7h <= oracle_best + 1e-12
        and abs(word_sim - result.similarity) < 1e-12 and word_t <= 7
        and elapsed < 60.0,
        f"budget-7 optimum for ry(-28.67deg) is {result.similarity:.10f}; "
        f"normal-form oracle: {len(oracle_keys)} unitaries (census 9168), "
        f"same set as the table {same_table}, optimum {oracle_best:.10f} "
        f"(pinned {PROVEN_OPTIMUM_HALF_REPLICA}); 7T+7H words reach "
        f"{best_7t7h:.6f}; returned word has T-count {word_t} and "
        f"similarity {word_sim:.10f}; search {elapsed:.1f}s; recorded "
        f"discrepancy: published {published} vs proven {oracle_best:.6f}")
    assert ok


def test_criterion_2_formula_angle_reading():
    # Companion reading: the angle the rotation formula actually yields for
    # both fixtures. Every sub-claim of criterion 2 holds here.
    eig = hhl.eigendecompose(np.array([[0.7, 0.3], [0.3, 0.7]]))
    theta = hhl.rotation_angle_replica(eig)  # -2*arccos(0.4)
    target = qsim.ry_matrix(theta / 2.0)
    started = time.monotonic()
    result = synth.approximate_unitary(target, 7)
    elapsed = time.monotonic() - started
    best_7t7h = best_similarity_over_7t7h_words(target)
    ok = verdict(
        "2b", result.similarity >= 0.998
        and best_7t7h >= result.similarity - 1e-9 and elapsed < 60.0,
        f"formula half-angle {math.degrees(theta / 2):.2f}deg: similarity "
        f"{result.similarity:.6f} >= 0.998 with a 7T+7H maximizer "
        f"({best_7t7h:.6f}); search {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. coverage
# ---------------------------------------------------------------------------

def test_criterion_3_bloch_coverage(capsys, tmp_path):
    counts = {k: len(synth.enumerate_states(k)) for k in (0, 1, 3, 5, 7)}
    frozen = {0: 6, 1: 18, 3: 90, 5: 378, 7: 1530}
    strict = counts[1] < counts[3] < counts[5] < counts[7]

    out_file = tmp_path / "bloch.csv"
    status = main(["bloch", "--t-budget", "7", "--mark-ry-deg", "-28.67",
                   "--out", str(out_file)])
    capsys.readouterr()
    assert status == 0
    rows = out_file.read_text().strip().split("\n")[1:]
    points = {}
    for row in rows:
        x, y, z, tag = row.rsplit(",", 3)
        if tag in ("target", "approx"):
            points[tag] = np.array([float(x), float(y), float(z)])
    distance = float(np.linalg.norm(points["target"] - points["approx"]))

    ok = verdict(
        "3", counts == frozen and strict and distance < 0.1,
        f"reachable-state counts {counts} (frozen {frozen}), strict growth "
        f"{strict}, target/approx mark distance {distance:.4f} (<0.1)")
    assert ok


# ---------------------------------------------------------------------------
# 4. compiler semantics
# ---------------------------------------------------------------------------

def test_criterion_4_compiler_semantics():
    from test_circ import random_star_circuit
    started = time.monotonic()
    rng = np.random.default_rng(4040)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        center = int(rng.integers(n))
        circuit = random_star_circuit(rng, n, int(rng.integers(1, 31)), center)
        legalized = circ.legalize_star(circuit, center)
        assert all(g.target == center for g in legalized.gates
                   if g.kind == "cx")
        worst = max(worst, phase_distance(circuit_unitary(circuit),
                                          circuit_unitary(legalized)))

    # the full fixture circuits (replica, exact, and Clifford+T-substituted
    # replica) legalized onto the star
    cases = 0
    for fixture, mode, budget in (("eq7", "replica", None),
                                  ("eq8", "replica", None),
                                  ("eq7", "exact", None),
                                  ("eq8", "exact", None),
                                  ("eq7", "replica", 7),
                                  ("eq8", "replica", 7)):
        system = fixtures.FIXTURES[fixture]()
        masked = hecrypt.encrypt(system, hecrypt.MaskKey((1, 0)))
        eig = hhl.eigendecompose(masked.a)
        config = hhl.SolverConfig(mode=mode,
                                  theta_override=fixtures.REPLICA_THETA,
                                  rs_t_budget=budget)
        circuit, _ = hhl.compile_solver_circuit(
            eig, masked.b / np.linalg.norm(masked.b), config)
        legalized = circ.legalize_star(circuit, hhl.EIGEN_QUBIT)
        assert all(g.target == hhl.EIGEN_QUBIT for g in legalized.gates
                   if g.kind == "cx")
        worst = max(worst, phase_distance(circuit_unitary(circuit),
                                          circuit_unitary(legalized)))
        cases += 1
    elapsed = time.monotonic() - started
    ok = verdict("4", worst < 1e-9 and elapsed < 30.0,
                 f"100 random + {cases} fixture circuits legalized; worst "
                 f"global-phase distance {worst:.2e} (<1e-9); {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. cross-validation of the two builders
# ---------------------------------------------------------------------------

def test_criterion_5_general_vs_optimized():
    worst_overlap_defect = 0.0
    worst_prob_defect = 0.0
    for a, b_unit in ((np.array([[0.7, 0.3], [0.3, 0.7]]),
                       np.array([SQ2, SQ2])),
                      (np.array([[1.75, 0.75], [0.75, 1.75]]),
                       np.array([SQ2, -SQ2]))):
        system = hhl.LinearSystem(a, b_unit)
        config = hhl.SolverConfig(mode="exact", c_constant=0.4,
                                  eigen_register_bits=3)
        general = hhl.build_general_circuit(system, config)
        state = qsim.run_statevector(general)
        post, prob_gen = qsim.postselect(state, 1 + 3, 1)
        sol_gen = reduced_pure_state(post, hhl.STATE_QUBIT)

        eig = hhl.eigendecompose(a)
        optimized = hhl.build_optimized_circuit(eig, b_unit, config)
        post, prob_opt = qsim.postselect(qsim.run_statevector(optimized),
                                         hhl.ANCILLA_QUBIT, 1)
        sol_opt = reduced_pure_state(post, hhl.STATE_QUBIT)

        worst_overlap_defect = max(worst_overlap_defect,
                                   1.0 - abs(np.vdot(sol_gen, sol_opt)))
        worst_prob_defect = max(worst_prob_defect, abs(prob_gen - 0.16),
                                abs(prob_opt - 0.16))
    ok = verdict(
        "5", worst_overlap_defect < 1e-6 and worst_prob_defect < 1e-9,
        f"post-selected state overlap defect {worst_overlap_defect:.2e} "
        f"(<1e-6); success probability defect {worst_prob_defect:.2e} "
        f"from 0.16 (<1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# 6. homomorphism
# ---------------------------------------------------------------------------

def test_criterion_6_homomorphism():
    started = time.monotonic()
    rng = np.random.default_rng(6006)
    classical_worst = 0.0
    quantum_worst = 0.0
    pairs = 0
    while pairs < 1000:
        system = hhl.LinearSystem(random_symmetric_pd(rng, max_condition=10.0),
                                  rng.normal(size=2) * rng.uniform(0.5, 2.0))
        key = hecrypt.keygen(seed=int(rng.integers(1 << 31)))
        try:
            masked = hecrypt.encrypt(system, key)
        except hecrypt.MaskingError:
            continue
        pairs += 1
        inner = masked.x
        got = hecrypt.decrypt(inner, key)
        want = system.x
        classical_worst = max(classical_worst,
                              float(np.max(np.abs(got - want))))
        report = hhl.submit_solve(masked, hhl.SolverConfig(mode="exact"))
        got_q = hecrypt.decrypt(report.solution, key)
        quantum_worst = max(quantum_worst,
                            float(np.linalg.norm(got_q - want)
                                  / np.linalg.norm(want)))
    elapsed = time.monotonic() - started
    ok = verdict(
        "6", classical_worst < 1e-9 and quantum_worst < 1e-6
        and elapsed < 60.0,
        f"1000 pairs: classical worst abs dev {classical_worst:.2e} (<1e-9), "
        f"analytic quantum worst rel err {quantum_worst:.2e} (<1e-6); "
        f"{elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. tomography
# ---------------------------------------------------------------------------

def test_criterion_7_tomography(server):
    eig = hhl.eigendecompose(np.array([[0.7, 0.3], [0.3, 0.7]]))
    config = hhl.SolverConfig(mode="replica",
                              theta_override=fixtures.REPLICA_THETA,
                              star_center=hhl.EIGEN_QUBIT, rs_t_budget=7)
    circuit, _ = hhl.compile_solver_circuit(eig, np.array([SQ2, SQ2]), config)
    job = qserve.Job(id="tomo", circuit=circ.emit_text(circuit),
                     mode="sampled", shots=8192, seed=2024,
                     postselect=(hhl.ANCILLA_QUBIT, 1),
                     bases=(("Z", 0), ("X", 0), ("Y", 0)))
    result = qserve.submit(server.address, job)
    tables = {i["basis"]: qsim.Counts(i["kept_shots"], i["counts"])
              for i in result["results"]}
    e = qsim.pauli_expectations(tables["Z"], tables["X"], tables["Y"], 0)
    deviations = [abs(e.z - 0.0) / max(e.sigma_z, 1e-4),
                  abs(e.x - 1.0) / max(e.sigma_x, 1e-4),
                  abs(e.y - 0.0) / max(e.sigma_y, 1e-4)]
    within = max(deviations) <= 5.0

    ideal = qsim.StateVector.from_amplitudes(np.array([SQ2, SQ2]))
    exact = qsim.analytic_expectations(
        qsim.run_statevector(circ.Circuit(1, hhl.prepare_b(np.array([SQ2, SQ2])))), 0)
    f_exact = qsim.fidelity_from_expectations(exact, ideal)

    constants = fixtures.REFERENCE_HARDWARE_FIDELITY
    stored = (constants["eq7"] == (0.992, 0.001)
              and constants["eq8"] == (0.920, 0.007))
    ok = verdict(
        "7", within and abs(f_exact - 1.0) < 1e-9 and stored,
        f"sampled (z,x,y)=({e.z:.3f},{e.x:.3f},{e.y:.3f}) within "
        f"{max(deviations):.1f} sigma of (0,1,0) (<=5); exact-expectation "
        f"fidelity {f_exact:.12f}; device constants 0.992(1)/0.920(7) stored "
        f"as reference only")
    assert ok


# ---------------------------------------------------------------------------
# 8. service protocol
# ---------------------------------------------------------------------------

def test_criterion_8_service(server, request_log):
    import threading

    circuit_text = circ.emit_text(hhl.build_optimized_circuit(
        hhl.eigendecompose(np.array([[0.7, 0.3], [0.3, 0.7]])),
        np.array([SQ2, SQ2]),
        hhl.SolverConfig(mode="exact", c_constant=0.4)))
    jobs = [qserve.Job(id=f"acc8-{i}", circuit=circuit_text, mode="sampled",
                       shots=2048, seed=5000 + i,
                       postselect=(hhl.ANCILLA_QUBIT, 1),
                       bases=(("Z", 0), ("X", 0), ("Y", 0)))
            for i in range(8)]
    serial = [qserve.submit(server.address, job) for job in jobs]
    concurrent: list = [None] * 8
    threads = [threading.Thread(
        target=lambda i=i: concurrent.__setitem__(
            i, qserve.submit(server.address, jobs[i])))
        for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    identical = concurrent == serial
    ids_match = all(r["id"] == jobs[i].id for i, r in enumerate(serial))
    conserved = all(item["raw_shots"] == 2048
                    for r in serial for item in r["results"])

    request_log.clear()
    system = fixtures.eq7()
    hecrypt.solve_encrypted(
        system, hecrypt.MaskKey((1, 0)), server.address,
        hhl.SolverConfig(mode="replica",
                         theta_override=fixtures.REPLICA_THETA,
                         execution="sampled", shots=512, seed=1,
                         star_center=hhl.EIGEN_QUBIT, rs_t_budget=7))
    records = list(request_log)
    clean = bool(records)
    for raw in records:
        payload = json.loads(raw.decode("utf-8"))
        clean &= set(payload) <= {"id", "circuit", "mode", "shots", "seed",
                                  "postselect", "bases", "noise_p"}
        text = raw.decode("utf-8")
        clean &= "key" not in text.lower()
        for component in system.b:
            for digits in (4, 6, 9, 12):
                clean &= f"{component:.{digits}f}" not in text

    ok = verdict(
        "8", identical and ids_match and conserved and clean,
        f"8 concurrent == serial: {identical}; ids echoed: {ids_match}; raw "
        f"totals conserved: {conserved}; captured encrypted-solve stream "
        f"carries no key bytes or plaintext b: {clean}")
    assert ok
