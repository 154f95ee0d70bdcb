"""Execution-service tests: framing, job semantics, isolation, and the
honest-but-curious boundary."""
import functools
import json
import logging
import math
import socket
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhesolve import circ, cli, fixtures, hhl, qserve, qsim
from qhesolve.qserve import (Job, ServerError,
                             TransportError, apply_depolarizing, execute_job,
                             submit)

BELL = "qubits 2\nh q0\ncx q0 q1\n"


def replica_circuit_text():
    eig = hhl.eigendecompose(np.array([[0.7, 0.3], [0.3, 0.7]]))
    config = hhl.SolverConfig(mode="replica",
                              theta_override=fixtures.REPLICA_THETA)
    b_unit = np.array([1.0, 1.0]) / math.sqrt(2)
    return circ.emit_text(hhl.build_optimized_circuit(eig, b_unit, config))


# ---------------------------------------------------------------------------
# execute_job (the server's core, exercised directly)
# ---------------------------------------------------------------------------

def test_analytic_bell_job():
    result = execute_job(Job(id="j", circuit=BELL).to_payload())
    amps = np.array([complex(re, im) for re, im in result["amplitudes"]])
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-9)
    assert result["success_probability"] == 1.0


def test_parse_error_names_position():
    result = execute_job({"id": "j", "circuit": "qubits 1\nfrob q0\n",
                          "mode": "analytic"})
    assert result["error"] == "parse_error"
    assert "line 2" in result["detail"]


def test_missing_id_is_bad_request():
    result = execute_job({"circuit": BELL, "mode": "analytic"})
    assert result["error"] == "bad_request"


def test_sampled_requires_shots_and_seed():
    payload = Job(id="j", circuit=BELL, mode="sampled", shots=None,
                  seed=None).to_payload()
    assert execute_job(payload)["error"] == "bad_request"


def test_sampled_conservation():
    payload = Job(id="j", circuit=BELL, mode="sampled", shots=512, seed=5,
                  bases=(("Z", 0), ("X", 0))).to_payload()
    result = execute_job(payload)
    for item in result["results"]:
        assert item["raw_shots"] == 512
        assert sum(item["counts"].values()) == item["kept_shots"]
        assert item["kept_shots"] == 512  # no post-selection requested


def test_replica_job_tomography_within_five_sigma():
    payload = Job(id="j", circuit=replica_circuit_text(), mode="sampled",
                  shots=8192, seed=123, postselect=(2, 1),
                  bases=(("Z", 0), ("X", 0), ("Y", 0))).to_payload()
    result = execute_job(payload)
    tables = {item["basis"]: qsim.Counts(item["kept_shots"], item["counts"])
              for item in result["results"]}
    e = qsim.pauli_expectations(tables["Z"], tables["X"], tables["Y"], 0)
    for got, want, sigma in ((e.z, 0.0, e.sigma_z), (e.x, 1.0, e.sigma_x),
                             (e.y, 0.0, e.sigma_y)):
        assert abs(got - want) <= 5 * max(sigma, 1e-4)
    for item in result["results"]:
        assert item["raw_shots"] == 8192
        assert 0 < item["kept_shots"] < 8192


def test_analytic_postselect_applies():
    payload = Job(id="j", circuit=BELL, postselect=(1, 1)).to_payload()
    result = execute_job(payload)
    amps = np.array([complex(re, im) for re, im in result["amplitudes"]])
    assert result["success_probability"] == pytest.approx(0.5, abs=1e-12)
    assert abs(amps[3]) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_postselect_reported():
    payload = Job(id="j", circuit="qubits 1\n", postselect=(0, 1)).to_payload()
    assert execute_job(payload)["error"] == "zero_probability"


def test_execute_job_determinism():
    payload = Job(id="j", circuit=BELL, mode="sampled", shots=2048, seed=77,
                  bases=(("Z", 0),)).to_payload()
    assert execute_job(payload) == execute_job(payload)


# ---------------------------------------------------------------------------
# depolarizing knob
# ---------------------------------------------------------------------------

def test_depolarizing_zero_is_identity():
    state = qsim.StateVector.zero(1)
    rng = np.random.default_rng(1)
    out = apply_depolarizing(state, 0.0, 0, rng)
    assert np.array_equal(out.amps, state.amps)


def test_depolarizing_range_check():
    with pytest.raises(qsim.SimulationError):
        apply_depolarizing(qsim.StateVector.zero(1), 0.9, 0,
                           np.random.default_rng(0))


def test_depolarizing_z_expectation_at_half():
    # <Z> = 1 - 4p/3 under a uniform X/Y/Z error at rate p: 1/3 at p = 0.5
    rng = np.random.default_rng(2024)
    trials = 100_000
    total = 0.0
    zero = qsim.StateVector.zero(1)
    for _ in range(trials):
        out = apply_depolarizing(zero, 0.5, 0, rng)
        total += abs(out.amps[0]) ** 2 - abs(out.amps[1]) ** 2
    mean = total / trials
    sigma = math.sqrt((1 - (1 / 3) ** 2) / trials)
    assert abs(mean - 1 / 3) < 5 * sigma


def test_noisy_pipeline_degrades_fidelity_qualitatively():
    payload = Job(id="j", circuit=replica_circuit_text(), mode="sampled",
                  shots=1024, seed=5, postselect=(2, 1),
                  bases=(("Z", 0), ("X", 0), ("Y", 0)),
                  noise_p=0.05).to_payload()
    result = execute_job(payload)
    tables = {item["basis"]: qsim.Counts(item["kept_shots"], item["counts"])
              for item in result["results"]}
    e = qsim.pauli_expectations(tables["Z"], tables["X"], tables["Y"], 0)
    ideal = qsim.StateVector.from_amplitudes(np.array([1, 1]) / math.sqrt(2))
    f = qsim.fidelity_from_expectations(e, ideal)
    assert 0.5 < f < 1.0


# ---------------------------------------------------------------------------
# the exact depolarizing channel (qsim.run_density)
# ---------------------------------------------------------------------------

def compiled_replica_text(fixture):
    """The circuit `qhesolve solve --fixture <fixture> --key 1,0 --mode
    replica` sends: legalized, every ry a budget-7 Clifford+T word."""
    system = fixtures.FIXTURES[fixture]()
    b_prime = system.b - system.a @ np.array([1.0, 0.0])
    config = hhl.SolverConfig(mode="replica",
                              theta_override=fixtures.REPLICA_THETA,
                              star_center=hhl.EIGEN_QUBIT, rs_t_budget=7)
    circuit, _ = hhl.compile_solver_circuit(
        hhl.eigendecompose(system.a), b_prime / np.linalg.norm(b_prime), config)
    return circ.emit_text(circuit)


def rotated_probabilities(rho, basis, qubit):
    rotation = circ.basis_change(basis, qubit)
    return functools.reduce(qsim.apply_gate, rotation, rho).probabilities()


def test_channel_z_expectation_exact():
    circuit = circ.parse_text("qubits 1\nz q0\n")  # one gate that keeps |0>
    for p in (0.0, 0.01, 0.1, 0.25, 0.5):
        probs = qsim.run_density(circuit, p).probabilities()
        assert abs(probs[0] - probs[1] - (1 - 4 * p / 3)) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12  # the channel keeps the trace


def kraus_distribution(circuit, p, basis, qubit):
    """rho -> sum_k K_k rho K_k^dag after every gate on each qubit it
    touches, K = sqrt(1-p) I, sqrt(p/3) X, Y, Z; full 2^n matrices."""
    n = circuit.n_qubits

    def on(u, q):
        return np.kron(np.kron(np.eye(2 ** q), u), np.eye(2 ** (n - q - 1)))

    def gate_operator(gate):
        if gate.kind != "cx":
            return on(qsim.gate_matrix(gate), gate.qubit)
        flip = on(qsim.GATE_MATRICES["x"], gate.target)
        ones = on(np.diag([0.0, 1.0]), gate.control)
        return np.eye(2 ** n) - ones + ones @ flip

    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = gate_operator(gate)
        rho = u @ rho @ u.conj().T
        for q in gate.qubits:
            kraus = [math.sqrt(1 - p) * np.eye(2 ** n)]
            kraus += [math.sqrt(p / 3) * on(qsim.GATE_MATRICES[k], q)
                      for k in "xyz"]
            rho = sum(k @ rho @ k.conj().T for k in kraus)
    for gate in circ.basis_change(basis, qubit):
        u = gate_operator(gate)
        rho = u @ rho @ u.conj().T
    return np.real(np.diag(rho))


def general_circuit_text(m):
    config = hhl.SolverConfig(eigen_register_bits=m)
    return circ.emit_text(
        hhl.build_general_circuit(fixtures.FIXTURES["eq7"](), config))


@pytest.mark.parametrize("circuit_text", [
    pytest.param(functools.partial(compiled_replica_text, "eq7"), id="eq7"),
    pytest.param(functools.partial(compiled_replica_text, "eq8"), id="eq8"),
    # 5 qubits with cx targets 0 and 4: views where 2^q and rest exceed 1
    pytest.param(functools.partial(general_circuit_text, 3), id="general_m3"),
    # qubit 0 of 7: its columns come in runs of 64 entries, the longest kind
    pytest.param(lambda: "qubits 7\nh q0\nry(0.4) q6\ncx q0 q6\ncx q6 q0\n"
                 "sdg q0\n", id="seven_qubits"),
])
def test_channel_matches_kraus_sum(circuit_text):
    circuit = circ.parse_text(circuit_text())
    for p in (0.02, 0.3):
        rho = qsim.run_density(circuit, p)
        for basis in "ZXY":
            want = kraus_distribution(circuit, p, basis, 0)
            got = rotated_probabilities(rho, basis, 0)
            assert np.max(np.abs(got - want)) < 1e-12


def test_channel_agrees_with_trajectories():
    # the mean of exact per-trajectory probabilities under
    # apply_depolarizing estimates the channel's diagonal without bias
    circuit = circ.parse_text(replica_circuit_text())
    p, trajectories = 0.1, 2000
    rng = np.random.default_rng(11)
    samples = []
    for _ in range(trajectories):
        state = qsim.StateVector.zero(circuit.n_qubits)
        for gate in circuit.gates:
            state = qsim.apply_gate(state, gate)
            for q in gate.qubits:
                state = apply_depolarizing(state, p, q, rng)
        samples.append(state.probabilities())
    samples = np.array(samples)
    mean = samples.mean(axis=0)
    sigma = samples.std(axis=0, ddof=1) / math.sqrt(trajectories)
    exact = qsim.run_density(circuit, p).probabilities()
    assert np.all(np.abs(mean - exact) <= 5 * sigma + 1e-12)


def test_replica_fidelity_falls_with_noise():
    circuit = circ.parse_text(replica_circuit_text())
    ideal = np.array([1.0, 1.0]) / math.sqrt(2)
    fidelities = []
    for p in (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        rho = qsim.run_density(circuit, p)
        e = {}
        for basis in "ZXY":
            # state qubit 0 given ancilla qubit 2 reads 1
            kept = rotated_probabilities(rho, basis, 0).reshape(2, 2, 2)[..., 1]
            e[basis] = (kept[0].sum() - kept[1].sum()) / kept.sum()
        fidelities.append(qsim.fidelity_from_expectations(
            qsim.PauliExpectations(z=e["Z"], x=e["X"], y=e["Y"]), ideal))
    assert fidelities[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a > b for a, b in zip(fidelities, fidelities[1:]))


def test_vanishing_noise_samples_like_no_noise():
    # the noisy path draws from the same child RNGs with the same call
    for seed in (0, 5, 77):
        job = Job(id="j", circuit=replica_circuit_text(), mode="sampled",
                  shots=8192, seed=seed, postselect=(2, 1),
                  bases=(("Z", 0), ("X", 0), ("Y", 0)))
        noisy = replace(job, noise_p=1e-12)
        assert execute_job(noisy.to_payload()) == execute_job(job.to_payload())


def test_full_noisy_job_returns_within_a_second(server):
    job = Job(id="noisy", circuit=compiled_replica_text("eq7"),
              mode="sampled", shots=8192, seed=3, postselect=(2, 1),
              bases=(("Z", 0), ("X", 0), ("Y", 0)), noise_p=0.02)
    start = time.perf_counter()
    result = submit(server.address, job, timeout=1.0)
    assert time.perf_counter() - start < 1.0
    assert [item["raw_shots"] for item in result["results"]] == [8192] * 3


def test_noise_rejected_in_analytic_mode():
    payload = Job(id="j", circuit=BELL, noise_p=0.1).to_payload()
    assert execute_job(payload)["error"] == "bad_request"


def test_wide_noisy_job_is_refused_before_allocating(monkeypatch, server):
    reached = []

    def refuse(circuit, noise_p):
        reached.append(circuit.n_qubits)
        raise qsim.SimulationError("run_density reached")

    # the server thread shares this module, so the patch covers TCP too
    monkeypatch.setattr(qsim, "run_density", refuse)

    def noisy(n):
        return Job(id=f"w{n}", circuit=f"qubits {n}\nh q0\n", mode="sampled",
                   shots=1, seed=1, noise_p=0.01).to_payload()

    for n in (11, 15):
        direct = execute_job(noisy(n))
        assert (direct["error"], direct["detail"]) == (
            "bad_request", "a noisy job takes at most 10 qubits")
        with socket.create_connection(server.address, timeout=5.0) as sock:
            qserve.send_frame(sock, noisy(n))
            assert json.loads(qserve.recv_frame(sock)) == direct
            qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
            assert json.loads(qserve.recv_frame(sock))["id"] == "after"
    assert reached == []
    # 10 qubits is within the limit and reaches the density matrix
    assert execute_job(noisy(10))["error"] == "execution_error"
    assert reached == [10]


def test_wide_noiseless_job_is_refused_before_allocating(monkeypatch, server):
    reached = []
    run_statevector = qsim.run_statevector

    def refuse_wide(circuit, *args):
        if circuit.n_qubits > 10:
            reached.append(circuit.n_qubits)
            raise MemoryError("a wide statevector was allocated")
        return run_statevector(circuit, *args)

    # the server thread shares this module, so the patch covers TCP too
    monkeypatch.setattr(qsim, "run_statevector", refuse_wide)
    for n in (11, 30):
        for job in (Job(id=f"a{n}", circuit=f"qubits {n}\nh q0\n"),
                    Job(id=f"s{n}", circuit=f"qubits {n}\nh q0\n",
                        mode="sampled", shots=1, seed=1)):
            direct = execute_job(job.to_payload())
            assert (direct["error"], direct["detail"]) == (
                "bad_request", "a job takes at most 10 qubits")
            with socket.create_connection(server.address, timeout=5.0) as sock:
                qserve.send_frame(sock, job.to_payload())
                assert json.loads(qserve.recv_frame(sock)) == direct
                qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
                after = json.loads(qserve.recv_frame(sock))
                assert after["id"] == "after" and "error" not in after
    assert reached == []


def test_long_noisy_job_is_refused_before_allocating(monkeypatch, server):
    reached = []

    def refuse(circuit, noise_p):
        reached.append(len(circuit.gates))
        raise qsim.SimulationError("run_density reached")

    monkeypatch.setattr(qsim, "run_density", refuse)

    def noisy(gates):
        return Job(id=f"g{gates}", circuit="qubits 10\n" + "h q0\n" * gates,
                   mode="sampled", shots=1, seed=1, noise_p=0.01).to_payload()

    direct = execute_job(noisy(129))
    assert (direct["error"], direct["detail"]) == (
        "bad_request", "a noisy job takes at most 134217728 gates x 4^qubits")
    with socket.create_connection(server.address, timeout=5.0) as sock:
        qserve.send_frame(sock, noisy(129))
        assert json.loads(qserve.recv_frame(sock)) == direct
    assert reached == []
    # 128 gates x 4^10 is exactly the limit
    assert execute_job(noisy(128))["error"] == "execution_error"
    assert reached == [128]


def test_job_limits_are_inclusive():
    # MAX_CIRCUIT_LINES CRLF-terminated lines and MAX_BASES bases
    text = "qubits 1\r\nh q0\r\n" + "\r\n" * (qserve.MAX_CIRCUIT_LINES - 2)
    payload = Job(id="edge", circuit=text, mode="sampled", shots=4, seed=1,
                  bases=(("X", 0),) * qserve.MAX_BASES).to_payload()
    assert len(execute_job(payload)["results"]) == qserve.MAX_BASES


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------

def test_submit_round_trip(server):
    result = submit(server.address, Job(id="job-1", circuit=BELL))
    assert result["id"] == "job-1"


def test_submit_to_closed_port_raises():
    with pytest.raises(TransportError):
        submit(("127.0.0.1", 1), Job(id="x", circuit=BELL), timeout=2.0)


def test_superscript_port_is_a_bad_address():
    # str.isdigit() accepts "²", which int() refuses
    with pytest.raises(TransportError, match="bad server address"):
        submit("127.0.0.1:²", Job(id="x", circuit=BELL))


@pytest.mark.parametrize("port", ["65536", str(7177 + 65536), "1" * 5000],
                         ids=["65536", "7177_plus_65536", "5000_digits"])
def test_port_past_65535_is_a_bad_address(port, monkeypatch):
    # getaddrinfo would wrap 7177 + 65536 onto port 7177
    def refuse(*args, **kwargs):
        raise AssertionError("no socket may be opened for a bad address")

    monkeypatch.setattr(socket, "create_connection", refuse)
    with pytest.raises(TransportError, match="bad server address"):
        submit(f"127.0.0.1:{port}", Job(id="x", circuit=BELL))


def test_submit_surfaces_server_errors(server):
    with pytest.raises(ServerError, match="parse_error"):
        submit(server.address, Job(id="x", circuit="qubits 1\nq q0\n"))


def test_malformed_frame_keeps_connection_open(server):
    with socket.create_connection(server.address, timeout=5.0) as sock:
        garbage = b"this is not json"
        sock.sendall(struct.pack(">I", len(garbage)) + garbage)
        raw = qserve.recv_frame(sock)
        assert json.loads(raw)["error"] == "bad_request"
        # the same connection still serves a valid job
        qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
        raw = qserve.recv_frame(sock)
        assert json.loads(raw)["id"] == "after"


@pytest.mark.parametrize("frame", [
    b"[" * 100_000, b'{"id": "x", "circuit": ' + b"[" * 100_000],
    ids=["array", "in_job"])
def test_nested_json_frame_gets_one_bad_request(frame, server):
    assert qserve.handle_request(frame)["error"] == "bad_request"
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", len(frame)) + frame)
        assert json.loads(qserve.recv_frame(sock))["error"] == "bad_request"
        # exactly one reply, and the same connection serves the next job
        qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
        assert json.loads(qserve.recv_frame(sock))["id"] == "after"


def test_memory_error_gets_one_execution_error(monkeypatch, server):
    run_statevector = qsim.run_statevector

    def out_of_memory(circuit, *args):
        if circuit.n_qubits == 3:
            raise MemoryError("statevector")
        return run_statevector(circuit, *args)

    # the server thread shares this module, so the patch covers TCP too
    monkeypatch.setattr(qsim, "run_statevector", out_of_memory)
    job = Job(id="oom", circuit="qubits 3\nh q0\n")
    frame = json.dumps(job.to_payload()).encode()
    want = {"id": "oom", "error": "execution_error",
            "detail": "out of memory: statevector"}
    assert execute_job(job.to_payload()) == want
    assert qserve.handle_request(frame) == want
    with pytest.raises(ServerError, match="execution_error"):
        submit(None, job)
    with socket.create_connection(server.address, timeout=5.0) as sock:
        qserve.send_frame(sock, job.to_payload())
        assert json.loads(qserve.recv_frame(sock))["error"] == "execution_error"
        # exactly one reply, and the same connection serves the next job
        qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
        after = json.loads(qserve.recv_frame(sock))
        assert after["id"] == "after" and "error" not in after


def test_request_log_line_cannot_be_forged(caplog):
    # under `qhesolve serve --verbose` a raw newline would start a new line
    caplog.set_level(logging.INFO, logger="qhesolve.qserve")
    frame = json.dumps({"id": "a\nINFO forged", "circuit": BELL,
                        "mode": "x\ny"}).encode()
    assert qserve.handle_request(frame)["error"] == "bad_request"
    [record] = caplog.records
    assert "\n" not in record.getMessage()
    assert "'a\\nINFO forged'" in record.getMessage()


def test_oversized_echo_gets_one_bad_request(caplog, server):
    # each frame fits, but its mode's repr or its id would not fit a reply
    caplog.set_level(logging.INFO, logger="qhesolve.qserve")
    long_mode = {"id": "m", "circuit": BELL, "mode": "\\" * 5_000_000}
    long_id = {"id": "x" * (qserve.MAX_FRAME_BYTES - 100), "circuit": BELL}
    unknown_mode = f"unknown mode {long_mode['mode']!r}"
    want = [{"id": "m", "error": "bad_request",
             "detail": unknown_mode[:qserve.MAX_ECHO_CHARS]},
            {"error": "bad_request", "detail": "a job id takes at most "
             f"{qserve.MAX_ECHO_CHARS} characters"}]
    with socket.create_connection(server.address, timeout=10.0) as sock:
        for payload, reply in zip((long_mode, long_id), want):
            qserve.send_frame(sock, payload)
            assert json.loads(qserve.recv_frame(sock)) == reply
        # exactly one reply each, and the same connection serves the next job
        qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
        after = json.loads(qserve.recv_frame(sock))
        assert after["id"] == "after" and "amplitudes" in after
    assert len(caplog.records) == 3
    assert all(len(r.getMessage()) < 3 * qserve.MAX_ECHO_CHARS
               for r in caplog.records)


def test_oversized_frame_answered_then_closed(server):
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", qserve.MAX_FRAME_BYTES + 1))
        raw = qserve.recv_frame(sock)
        assert json.loads(raw)["error"] == "bad_frame"
        # the stream cannot be resynchronized, so the server hangs up
        assert qserve.recv_frame(sock) is None


def test_serve_cli_runs_real_server(tmp_path):
    import subprocess
    import sys
    import time as time_mod

    proc = subprocess.Popen(
        [sys.executable, "-m", "qhesolve", "serve", "--port", "0"],
        stdout=subprocess.PIPE, text=True)
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on ")
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        result = submit((host, int(port)), Job(id="sub-1", circuit=BELL),
                        timeout=10.0)
        assert result["id"] == "sub-1"
    finally:
        proc.terminate()
        proc.wait(timeout=10.0)
        proc.stdout.close()
        time_mod.sleep(0.05)


def test_repeat_submission_bit_identical(server):
    job = Job(id="twice", circuit=BELL, mode="sampled", shots=4096, seed=9,
              bases=(("Z", 0),))
    assert submit(server.address, job) == submit(server.address, job)


def test_concurrent_jobs_match_serial(server):
    jobs = [Job(id=f"c{i}", circuit=replica_circuit_text(), mode="sampled",
                shots=1024, seed=1000 + i, postselect=(2, 1),
                bases=(("Z", 0), ("X", 0), ("Y", 0)))
            for i in range(8)]
    serial = [submit(server.address, job) for job in jobs]

    results = [None] * len(jobs)

    def worker(idx):
        results[idx] = submit(server.address, jobs[idx])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == serial


def test_server_start_and_shutdown_are_quick():
    for _ in range(3):
        start = time.perf_counter()
        with qserve.ExecutionServer() as srv:
            submit(srv.address, Job(id="up", circuit=BELL))
        assert time.perf_counter() - start < 0.1


def test_idle_connection_is_dropped_after_the_timeout():
    with qserve.ExecutionServer(timeout=0.2) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as idle:
            start = time.perf_counter()
            assert idle.recv(1) == b""
            assert time.perf_counter() - start < 2.0
        # dropping one connection leaves the server serving new ones
        reply = submit(srv.address, Job(id="after", circuit=BELL))
        assert reply["id"] == "after"


def test_server_never_imports_key_material():
    import qhesolve.qserve as module
    with open(module.__file__, encoding="utf-8") as handle:
        source = handle.read()
    assert "hecrypt" not in source
    assert "MaskKey" not in source


# ---------------------------------------------------------------------------
# malformed jobs and the in-process transport
# ---------------------------------------------------------------------------

MALFORMED = {
    "noise_p_not_numeric": {"noise_p": "high"},
    "noise_p_overflowing": {"noise_p": 10**400},
    "noise_p_string": {"noise_p": "0.1"},
    "noise_p_boolean": {"noise_p": False},
    "basis_without_qubit": {"bases": [{"basis": "Z"}]},
    # falsy, but no array: not the Z-on-qubit-0 default
    "bases_empty_object": {"bases": {}},
    "bases_empty_string": {"bases": ""},
    "bases_zero": {"bases": 0},
    "bases_false": {"bases": False},
    "negative_seed": {"seed": -1},
    "circuit_not_string": {"circuit": 42},
    "shots_boolean": {"shots": True},
    "basis_qubit_outside_circuit": {"bases": [{"basis": "Z", "qubit": 3}]},
    "basis_qubit_infinite": {"bases": [{"basis": "Z", "qubit": math.inf}]},
    "basis_qubit_float": {"bases": [{"basis": "Z", "qubit": 0.99}]},
    "postselect_qubit_float": {"postselect": {"qubit": 0.7, "outcome": 1}},
    "postselect_outcome_boolean": {"postselect": {"qubit": 0,
                                                  "outcome": True}},
    "postselect_qubit_infinite": {"postselect": {"qubit": math.inf,
                                                 "outcome": 1}},
    "postselect_qubit_outside_circuit": {"postselect": {"qubit": 5,
                                                        "outcome": 1}},
    "shots_overflowing": {"shots": 10**30},
    "shots_over_limit": {"shots": qserve.MAX_SHOTS + 1},
    "basis_unknown": {"bases": [{"basis": "W", "qubit": 0}]},
    "basis_not_string": {"bases": [{"basis": ["Z"], "qubit": 0}]},
    "bases_over_limit": {"bases": [{"basis": "Z", "qubit": 0}]
                         * (qserve.MAX_BASES + 1)},
    "circuit_lines_over_limit": {
        "circuit": "qubits 1\n" + "h q0\n" * qserve.MAX_CIRCUIT_LINES},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_job_gets_one_bad_request(name, server):
    payload = {"id": "bad", "circuit": "qubits 1\nh q0\n", "mode": "sampled",
               "shots": 16, "seed": 1, "bases": [{"basis": "Z", "qubit": 0}],
               **MALFORMED[name]}
    direct = execute_job(payload)
    assert (direct["id"], direct["error"]) == ("bad", "bad_request")
    with socket.create_connection(server.address, timeout=5.0) as sock:
        qserve.send_frame(sock, payload)
        assert json.loads(qserve.recv_frame(sock)) == direct
        # exactly one reply, and the same connection serves the next job
        qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
        assert json.loads(qserve.recv_frame(sock))["id"] == "after"


def test_noiseless_sampled_job_simulates_once(monkeypatch):
    calls = []
    run = qsim.run_statevector

    def counting(circuit, *args):
        calls.append(circuit)
        return run(circuit, *args)

    monkeypatch.setattr(qsim, "run_statevector", counting)
    payload = Job(id="j", circuit=replica_circuit_text(), mode="sampled",
                  shots=256, seed=4, postselect=(2, 1),
                  bases=(("Z", 0), ("X", 0), ("Y", 0), ("X", 1))).to_payload()
    assert len(execute_job(payload)["results"]) == 4
    assert len(calls) == 1


def test_in_process_submit_matches_server(server):
    job = Job(id="same", circuit=replica_circuit_text(), mode="sampled",
              shots=2048, seed=21, postselect=(2, 1),
              bases=(("Z", 0), ("X", 0), ("Y", 0)))
    assert submit(None, job) == submit(server.address, job)
    with pytest.raises(ServerError, match="parse_error"):
        submit(None, Job(id="x", circuit="qubits 1\nq q0\n"))


# ---------------------------------------------------------------------------
# one frame in, one frame out: handle_request answers every JSON value
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=16)
# near-miss requests: a valid id and circuit, every other field of the wire
# format well-typed, at an extreme, or any JSON value
ODD = st.sampled_from([True, -1, 0, 2**63, 10**30, -10**400, math.inf,
                       math.nan, "", "Z", [], {}]) | JSON_VALUES
BIT = st.integers(0, 1) | ODD
NEAR_MISS = {
    "mode": st.sampled_from(["analytic", "sampled"]) | ODD,
    "shots": st.integers(1, 64) | ODD,
    "seed": st.integers(0, 64) | ODD,
    "postselect": st.fixed_dictionaries({"qubit": BIT, "outcome": BIT}) | ODD,
    "bases": st.lists(st.fixed_dictionaries(
        {"basis": st.sampled_from("ZXYW") | ODD, "qubit": BIT}),
        max_size=3) | ODD,
    "noise_p": st.floats(0, 0.5) | ODD,
}
BELL_ID = {"id": st.just("p"), "circuit": st.just(BELL)}
# half are sampled with well-typed shots and seed, so that some sampled jobs
# pass every check
JOB_LIKE = (st.fixed_dictionaries(BELL_ID, optional=NEAR_MISS)
            | st.fixed_dictionaries(
                {**BELL_ID, "mode": st.just("sampled"),
                 "shots": st.integers(1, 64), "seed": st.integers(0, 64)},
                optional={k: NEAR_MISS[k]
                          for k in ("postselect", "bases", "noise_p")}))
# token soup of up to 8 lines: a first statement, then gates with one or two
# operand tokens, or any statement name with up to three
OPERAND = st.sampled_from((
    "q0", "q1", "q9", "q-1", "q\u00b2", "\u00b2", "\u0663", "0", "2", "11",
    "-1", "1" * 5000, "q" + "1" * 5000, "state", "\r", "\u00e9"))
LINES = st.one_of(
    st.tuples(st.sampled_from(("h", "x", "sdg", "t", "ry(0.5)", "ry(nan)",
                               "ry(1e400)", "ry()", "measure")),
              OPERAND).map(" ".join),
    st.tuples(st.just("cx"), OPERAND, OPERAND).map(" ".join),
    st.tuples(st.sampled_from(("qubits", "h", "cx", "role", "#", "")),
              st.lists(OPERAND, max_size=3)
              ).map(lambda t: " ".join((t[0], *t[1]))))
FIRST = st.one_of(st.just("qubits 2"),
                  st.tuples(st.just("qubits"), OPERAND).map(" ".join), LINES)
SOUP = st.tuples(FIRST, st.lists(LINES, max_size=7)
                 ).map(lambda t: "\n".join((t[0], *t[1])))
SOUP_JOBS = st.fixed_dictionaries(
    {"id": st.just("p"), "circuit": SOUP,
     "mode": st.sampled_from(["analytic", "sampled"]),
     "shots": st.just(16), "seed": st.just(1)},
    optional={"postselect": st.just({"qubit": 1, "outcome": 1}),
              "noise_p": st.just(0.01)})


def answers_once(payload):
    response = qserve.handle_request(json.dumps(payload).encode("utf-8"))
    assert isinstance(response, dict)
    assert ("error" in response) != ("amplitudes" in response
                                     or "results" in response)
    assert len(json.dumps(response)) <= qserve.MAX_FRAME_BYTES


@pytest.fixture
def no_simulation(monkeypatch):
    # every accepted job stops at the simulator, so no case allocates a state
    def refuse(*args):
        raise qsim.SimulationError("simulation disabled in this test")

    monkeypatch.setattr(qsim, "run_statevector", refuse)
    monkeypatch.setattr(qsim, "run_density", refuse)


@pytest.mark.parametrize("values", [JSON_VALUES, JOB_LIKE, SOUP_JOBS],
                         ids=["json_value", "job_like", "token_soup"])
def test_every_request_gets_one_response(values, no_simulation):
    settings(derandomize=True, deadline=None, database=None,
             max_examples=300)(given(values)(answers_once))()


@pytest.mark.parametrize("values", [JSON_VALUES, JOB_LIKE],
                         ids=["json_value", "job_like"])
def test_every_request_gets_one_response_over_tcp(values, no_simulation,
                                                  monkeypatch, server):
    with socket.create_connection(server.address, timeout=5.0) as sock:
        def answers_once_over_tcp(payload):
            qserve.send_frame(sock, payload)
            # the in-process answer to the same bytes: this frame's reply
            assert json.loads(qserve.recv_frame(sock)) == qserve.handle_request(
                json.dumps(payload, sort_keys=True).encode("utf-8"))

        settings(derandomize=True, deadline=None, database=None,
                 max_examples=50)(given(values)(answers_once_over_tcp))()
        # no frame is left over, and the connection serves a real job
        monkeypatch.undo()
        qserve.send_frame(sock, Job(id="after", circuit=BELL).to_payload())
        after = json.loads(qserve.recv_frame(sock))
        assert after["id"] == "after" and "amplitudes" in after


def test_every_simulated_request_gets_one_response(monkeypatch):
    # accepted jobs simulate for real: at most 3 qubits and 64 shots. The
    # first 300 derandomized JOB_LIKE cases hold only 28 sampled jobs that
    # parse_job accepts, so this draws 600.
    replies = []
    handle = qserve.handle_request

    def recording(payload_bytes):
        replies.append(handle(payload_bytes))
        return replies[-1]

    monkeypatch.setattr(qserve, "handle_request", recording)
    for values in (JOB_LIKE, SOUP_JOBS):
        settings(derandomize=True, deadline=None, database=None,
                 max_examples=600)(given(values)(answers_once))()
    assert sum("results" in r for r in replies) >= 30
    assert any(r.get("error") == "zero_probability" for r in replies)


def test_soup_parse_error_names_a_token():
    def names_a_token(source):
        try:
            circ.parse_text(source)
        except circ.CircuitSyntaxError as exc:
            if "empty source" in str(exc):
                return
            lines = source.split("\n")
            assert 1 <= exc.line <= len(lines)
            line = lines[exc.line - 1]
            starts = [i for i, ch in enumerate(line) if not ch.isspace()
                      and (i == 0 or line[i - 1].isspace())]
            assert exc.column - 1 in starts

    settings(derandomize=True, deadline=None, database=None,
             max_examples=300)(given(SOUP)(names_a_token))()


# ---------------------------------------------------------------------------
# parse_job: every accepted payload parses to a canonical Job
# ---------------------------------------------------------------------------

# valid sampled jobs, with shots, seed and bases over their whole ranges
CANONICAL_JOBS = st.builds(
    Job, id=st.text(min_size=1, max_size=8), circuit=st.just(BELL),
    mode=st.just("sampled"), shots=st.integers(1, qserve.MAX_SHOTS),
    seed=st.integers(0, 2**64),
    postselect=st.none() | st.tuples(st.integers(0, 1), st.integers(0, 1)),
    bases=st.lists(st.tuples(st.sampled_from("ZXY"), st.integers(0, 1)),
                   min_size=1, max_size=qserve.MAX_BASES).map(tuple),
    noise_p=st.none() | st.floats(0, 0.5, exclude_min=True))


def test_parsed_job_round_trips():
    modes = []

    def parses_back(payload):
        try:
            job, circuit = qserve.parse_job(payload)
        except ServerError:
            return
        frame = json.dumps(job.to_payload())
        again, circuit_again = qserve.parse_job(json.loads(frame))
        assert again == job
        assert circ.emit_text(circuit_again) == circ.emit_text(circuit)
        modes.append(job.mode)

    settings(derandomize=True, deadline=None, database=None,
             max_examples=300)(given(JOB_LIKE)(parses_back))()
    # the sampled branch of parse_job is reached, not only its refusals
    assert modes.count("sampled") >= 30


def test_canonical_job_parses_to_itself():
    def parses_to_itself(job):
        assert qserve.parse_job(job.to_payload())[0] == job

    settings(derandomize=True, deadline=None, database=None,
             max_examples=200)(given(CANONICAL_JOBS)(parses_to_itself))()


@pytest.mark.parametrize("bases", [{}, {"bases": None}, {"bases": []}],
                         ids=["absent", "null", "empty_array"])
def test_sampled_job_without_bases_measures_z_on_qubit_0(bases):
    payload = {"id": "j", "circuit": BELL, "mode": "sampled", "shots": 8,
               "seed": 1, **bases}
    job, _ = qserve.parse_job(payload)
    assert job.bases == (("Z", 0),)


def test_analytic_job_parses_without_sampling_fields():
    payload = {"id": "j", "circuit": BELL, "shots": 8, "seed": 1,
               "bases": [{"basis": "X", "qubit": 1}], "noise_p": 0}
    job, _ = qserve.parse_job(payload)
    assert job == Job(id="j", circuit=BELL)


@pytest.mark.parametrize("config", [
    hhl.SolverConfig(mode="exact"),
    hhl.SolverConfig(mode="replica", theta_override=fixtures.REPLICA_THETA,
                     execution="sampled", shots=256, seed=3,
                     star_center=hhl.EIGEN_QUBIT, rs_t_budget=7),
], ids=["exact-analytic", "replica-sampled"])
def test_solver_jobs_are_canonical(config, monkeypatch):
    jobs = []
    submit_job = qserve.submit

    def recording(server, job, *args, **kwargs):
        jobs.append(job)
        return submit_job(server, job, *args, **kwargs)

    monkeypatch.setattr(qserve, "submit", recording)
    hhl.submit_solve(fixtures.eq7(), config)
    [job] = jobs
    assert qserve.parse_job(job.to_payload())[0] == job


@pytest.mark.parametrize("flags", [
    [],
    ["--postselect", "1:1", "--basis", "X:0", "--noise-p", "0"],
    ["--execution", "sampled", "--shots", "64", "--seed", "3",
     "--basis", "Z:0", "--basis", "y:1", "--postselect", "1:0",
     "--noise-p", "0.02"],
    ["--execution", "sampled", "--basis", "X:1", "--noise-p", "0"],
], ids=["analytic", "analytic_flags", "sampled_noisy", "sampled_noiseless"])
def test_cli_jobs_are_canonical(flags):
    args = cli.build_parser().parse_args(
        ["simulate", "--circuit", "bell.qc", *flags])
    job = cli._job_from_args(args, BELL)
    assert qserve.parse_job(job.to_payload())[0] == job


def test_cli_sampled_job_without_basis_gets_the_server_default():
    args = cli.build_parser().parse_args(
        ["simulate", "--circuit", "bell.qc", "--execution", "sampled"])
    job = cli._job_from_args(args, BELL)
    assert qserve.parse_job(job.to_payload())[0] == replace(
        job, bases=(("Z", 0),))
