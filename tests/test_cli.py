"""CLI behavior: determinism, exit codes, and the documented examples."""
import json
import math
import socket
import threading

import numpy as np
import pytest

from qhesolve import fixtures, hecrypt, hhl, qserve, qsim
from qhesolve.cli import build_parser, main

SQ2 = 1 / math.sqrt(2)


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def report_values(stdout):
    return {k: float(v) for k, v in
            (line.split("=", 1) for line in stdout.strip().split("\n"))}


# ---------------------------------------------------------------------------
# help / exit codes
# ---------------------------------------------------------------------------

def test_every_verb_has_help():
    parser = build_parser()
    for verb in ("solve", "synth", "bloch", "compile", "simulate", "serve",
                 "submit"):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([verb, "--help"])
        assert exit_info.value.code == 0


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--bogus"])
    assert exit_info.value.code == 2


def test_runtime_error_exits_one(capsys):
    status, out, err = run_cli(capsys, [
        "solve", "--matrix", "1,1,1,1", "--rhs", "1,0", "--key", "1,0"])
    assert status == 1
    assert err.startswith("error:")
    assert len(err.strip().split("\n")) == 1


def test_missing_key_is_an_error(capsys):
    status, _, err = run_cli(capsys, ["solve", "--fixture", "eq7"])
    assert status == 1
    assert "key" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_matrix_flags_match_oracle(capsys):
    status, out, _ = run_cli(capsys, [
        "solve", "--matrix", "0.7,0.3,0.3,0.7", "--rhs", "1.40711,1.00711",
        "--key", "1,0", "--mode", "exact", "--execution", "analytic"])
    assert status == 0
    values = report_values(out)
    want = np.linalg.solve([[0.7, 0.3], [0.3, 0.7]], [1.40711, 1.00711])
    assert values["solution_1"] == pytest.approx(want[0], abs=1e-6)
    assert values["solution_2"] == pytest.approx(want[1], abs=1e-6)


def test_solve_fixture_analytic(capsys):
    status, out, _ = run_cli(capsys, [
        "solve", "--fixture", "eq7", "--key", "1,0",
        "--mode", "exact", "--execution", "analytic"])
    assert status == 0
    values = report_values(out)
    assert values["solution_1"] == pytest.approx(1 + SQ2, abs=1e-6)
    assert values["solution_2"] == pytest.approx(SQ2, abs=1e-6)
    assert values["relative_error"] < 1e-6


def test_solve_stdout_deterministic(capsys):
    argv = ["solve", "--fixture", "eq7", "--key", "1,0", "--mode", "replica",
            "--execution", "sampled", "--shots", "1024", "--seed", "5"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second
    assert first[0] == 0


def test_solve_against_running_server(capsys, server):
    host, port = server.address
    status, out, _ = run_cli(capsys, [
        "solve", "--fixture", "eq8", "--key", "1,0", "--mode", "exact",
        "--execution", "analytic", "--server", f"{host}:{port}"])
    assert status == 0
    values = report_values(out)
    assert values["solution_2"] == pytest.approx(-SQ2, abs=1e-6)


def test_superscript_server_port_exits_one(capsys):
    status, out, err = run_cli(capsys, [
        "solve", "--fixture", "eq7", "--key", "1,0",
        "--server", "127.0.0.1:\u00b2"])
    assert (status, out) == (1, "")
    assert err.startswith("error: bad server address")


def reply_once(reply: bytes):
    """host:port of a one-connection server that answers with `reply`."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)

    def serve():
        with listener, listener.accept()[0] as conn:
            qserve.recv_frame(conn)
            conn.sendall(qserve.FRAME_HEADER.pack(len(reply)) + reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    return f"{host}:{port}", thread


def sampled_reply(bases):
    return json.dumps({"id": "solve-exact-sampled", "results": [
        {"basis": b, "qubit": 0, "counts": {"000": 8}, "raw_shots": raw,
         "kept_shots": 8} for b, raw in bases]}).encode()


# (execution, reply bytes)
MALFORMED_REPLIES = {
    "no_amplitudes": ("analytic", b'{"id": "solve-exact-analytic"}'),
    "array": ("analytic", b"[1, 2]"),
    "string": ("analytic", b'"solve-exact-analytic"'),
    "text_probability": ("analytic", json.dumps({
        "id": "solve-exact-analytic",
        "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7,
        "success_probability": "high"}).encode()),
    "no_z_result": ("sampled", sampled_reply([("X", 8), ("Y", 8)])),
    "no_raw_shots": ("sampled", sampled_reply([("Z", 0), ("X", 0), ("Y", 0)])),
    "nested": ("analytic", b"[" * 100_000),
}


@pytest.mark.parametrize("execution,reply", MALFORMED_REPLIES.values(),
                         ids=MALFORMED_REPLIES)
def test_malformed_server_reply_is_one_error_line(capsys, execution, reply):
    # the server is untrusted: no reply may crash the client
    address, thread = reply_once(reply)
    status, out, err = run_cli(capsys, [
        "solve", "--fixture", "eq7", "--key", "1,0", "--execution",
        execution, "--shots", "8", "--server", address])
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_port_out_of_range_is_usage_error(capsys, port):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--port", port])
    assert exit_info.value.code == 2
    assert "outside 0..65535" in capsys.readouterr().err


@pytest.mark.parametrize("matrix,rhs", [
    (m, r) for m in ("nan,0,0,1", "inf,0,0,1", "1,0,0,inf", "2,0,0,1")
    for r in ("1,1", "nan,1", "inf,1") if (m, r) != ("2,0,0,1", "1,1")])
def test_non_finite_system_is_refused(capsys, matrix, rhs):
    status, out, err = run_cli(capsys, ["solve", f"--matrix={matrix}",
                                        f"--rhs={rhs}", "--key", "0,1"])
    assert (status, out) == (1, "")
    assert err == "error: matrix and right-hand side must be finite\n"


def test_zero_right_hand_side_is_refused(capsys):
    status, out, err = run_cli(capsys, ["solve", "--matrix", "0.7,0.3,0.3,0.7",
                                        "--rhs", "0,0", "--key", "1,0"])
    assert (status, out) == (1, "")
    assert err == "error: right-hand side must be nonzero\n"


def test_solve_key_seed_generates_key(capsys):
    argv = ["solve", "--fixture", "eq7", "--key-seed", "4",
            "--mode", "exact", "--execution", "analytic"]
    status, out, _ = run_cli(capsys, argv)
    assert status == 0
    assert report_values(out)["relative_error"] < 1e-6


# Clifford+T substitution leaves the post-selected amplitudes complex; both
# executions read the same Z/X/Y expectations of the solution qubit.
PERSYMMETRIC = hhl.LinearSystem(
    np.array([[1.3151844762863751, 0.1035883042703736],
              [0.1035883042703736, 1.3151844762863751]]),
    np.array([-1.830819575104107, -1.0349728241419118]))
SUBSTITUTED_SOLVES = {
    "eq7_exact_t7": (["--fixture", "eq7", "--key", "0,1", "--mode", "exact",
                      "--t-budget", "7"], fixtures.eq7(), (0, 1)),
    "eq7_replica": (["--fixture", "eq7", "--key", "0,1", "--mode", "replica"],
                    fixtures.eq7(), (0, 1)),
    "persymmetric_replica": (
        ["--matrix=1.3151844762863751,0.1035883042703736,"
         "0.1035883042703736,1.3151844762863751",
         "--rhs=-1.830819575104107,-1.0349728241419118", "--key-seed", "13",
         "--mode", "replica"], PERSYMMETRIC, hecrypt.keygen(2, 13).a),
}


@pytest.mark.parametrize("name", sorted(SUBSTITUTED_SOLVES))
def test_substituted_solve_agrees_across_executions(capsys, name):
    flags, system, key = SUBSTITUTED_SOLVES[name]
    reports = {}
    for execution in ("analytic", "sampled"):
        status, out, err = run_cli(capsys, ["solve", *flags,
                                            "--execution", execution])
        assert status == 0, err
        reports[execution] = report_values(out)
    masked = hecrypt.encrypt(system, hecrypt.MaskKey(key))
    ideal = hhl.classical_solve(masked)
    point = qsim.bloch_point(ideal / np.linalg.norm(ideal))
    sampled = reports["sampled"]
    # fidelity = (1 + r . ideal point) / 2, so its sigma follows the sigmas
    sigma = 0.5 * math.sqrt(sum(
        (p * sampled[f"sigma_{axis}"]) ** 2 for p, axis in zip(point, "xyz")))
    assert sigma > 0
    assert abs(reports["analytic"]["fidelity_vs_ideal"]
               - sampled["fidelity_vs_ideal"]) <= 5 * sigma


# ---------------------------------------------------------------------------
# synth / bloch
# ---------------------------------------------------------------------------

def test_synth_reports_similarity_and_writes_sequence(capsys, tmp_path):
    out_file = tmp_path / "rs.qc"
    status, out, _ = run_cli(capsys, [
        "synth", "--target-ry-deg", "-28.67", "--t-budget", "7",
        "--out", str(out_file)])
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert float(lines["similarity"]) == pytest.approx(0.9967864880, abs=1e-9)
    assert int(lines["t_count"]) == 7
    from qhesolve import circ
    written = circ.parse_text(out_file.read_text())
    assert written.n_qubits == 1
    assert tuple(g.kind for g in written.gates) == tuple(lines["gates"].split())


def test_bloch_budget_zero_csv(capsys, tmp_path):
    out_file = tmp_path / "pts.csv"
    status, out, _ = run_cli(capsys, ["bloch", "--t-budget", "0",
                                      "--out", str(out_file)])
    assert status == 0
    assert out == "points=6\n"
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,tag"
    assert len(lines) == 7


def test_bloch_marks(capsys, tmp_path):
    out_file = tmp_path / "pts.csv"
    status, _, _ = run_cli(capsys, [
        "bloch", "--t-budget", "3", "--mark-ry-deg", "-28.67",
        "--out", str(out_file)])
    assert status == 0
    tags = [line.rsplit(",", 1)[1]
            for line in out_file.read_text().strip().split("\n")[1:]]
    assert tags.count("target") == 1
    assert tags.count("approx") == 1


# ---------------------------------------------------------------------------
# compile / simulate
# ---------------------------------------------------------------------------

def test_compile_legalizes_file(capsys, tmp_path):
    src = tmp_path / "in.qc"
    src.write_text("qubits 2\ncx q1 q0\n")
    out_file = tmp_path / "out.qc"
    status, out, _ = run_cli(capsys, [
        "compile", "--circuit", str(src), "--legalize-center", "1",
        "--out", str(out_file)])
    assert status == 0
    from qhesolve import circ
    compiled = circ.parse_text(out_file.read_text())
    assert all(g.target == 1 for g in compiled.gates if g.kind == "cx")


def test_simulate_deterministic(capsys, tmp_path):
    src = tmp_path / "bell.qc"
    src.write_text("qubits 2\nh q0\ncx q0 q1\n")
    argv = ["simulate", "--circuit", str(src), "--execution", "sampled",
            "--shots", "256", "--seed", "3", "--basis", "Z:0"]
    assert run_cli(capsys, argv) == run_cli(capsys, argv)


def test_simulate_analytic_amplitudes(capsys, tmp_path):
    src = tmp_path / "bell.qc"
    src.write_text("qubits 2\nh q0\ncx q0 q1\n")
    status, out, _ = run_cli(capsys, ["simulate", "--circuit", str(src)])
    assert status == 0
    import json
    amps = json.loads(out)["amplitudes"]
    assert amps[0][0] == pytest.approx(SQ2, abs=1e-12)
    assert amps[3][0] == pytest.approx(SQ2, abs=1e-12)


def test_simulate_postselect_flag(capsys, tmp_path):
    src = tmp_path / "bell.qc"
    src.write_text("qubits 2\nh q0\ncx q0 q1\n")
    status, out, _ = run_cli(capsys, [
        "simulate", "--circuit", str(src), "--execution", "sampled",
        "--shots", "512", "--seed", "8", "--postselect", "1:1",
        "--basis", "Z:0"])
    assert status == 0
    import json
    item = json.loads(out)["results"][0]
    assert item["raw_shots"] == 512
    assert 0 < item["kept_shots"] < 512
    assert set(item["counts"]) == {"11"}


def test_submit_verb_round_trip(capsys, tmp_path, server):
    src = tmp_path / "bell.qc"
    src.write_text("qubits 2\nh q0\ncx q0 q1\n")
    host, port = server.address
    status, out, _ = run_cli(capsys, [
        "submit", "--circuit", str(src), "--server", f"{host}:{port}",
        "--id", "cli-1"])
    assert status == 0
    import json
    assert json.loads(out)["id"] == "cli-1"


# ---------------------------------------------------------------------------
# in-process execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["--fixture", "eq7", "--key", "1,0", "--mode", "replica",
     "--execution", "sampled", "--shots", "8192", "--seed", "7"],
    ["--fixture", "eq8", "--key", "1,0", "--mode", "exact",
     "--execution", "analytic"],
    ["--matrix=1.2,0.4,0.4,0.9", "--rhs=-0.5,1", "--key", "0,1",
     "--mode", "exact", "--execution", "sampled", "--seed", "4"],
])
def test_solve_in_process_matches_server(capsys, server, argv):
    host, port = server.address
    local = run_cli(capsys, ["solve", *argv])
    remote = run_cli(capsys, ["solve", *argv, "--server", f"{host}:{port}"])
    assert local[0] == 0
    assert local == remote


@pytest.mark.parametrize("values", [
    ["--matrix", "1.2,0.4,0.4,0.9", "--rhs", "-0.5,1"],
    ["--matrix", "-1,0.2,0.2,-0.8", "--rhs", "-.5,-1"],
])
def test_values_starting_with_minus_parse_in_both_forms(capsys, values):
    # a usage error would raise SystemExit out of the spaced form
    spaced = run_cli(capsys, ["solve", *values, "--key", "0,1"])
    joined = run_cli(capsys, ["solve", f"{values[0]}={values[1]}",
                              f"{values[2]}={values[3]}", "--key", "0,1"])
    assert spaced == joined


@pytest.mark.parametrize("matrix", ["-1,0.2,0.2,-0.8", "1,0.2,0.2,-0.8"])
def test_matrix_that_is_not_positive_definite_is_refused(capsys, matrix):
    # the solution's sign is fixed by assuming A is positive definite
    status, out, err = run_cli(capsys, ["solve", f"--matrix={matrix}",
                                        "--rhs=-.5,-1", "--key", "0,1"])
    assert (status, out) == (1, "")
    assert "positive definite" in err


def test_solve_and_simulate_open_no_socket(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no sockets in this test")

    monkeypatch.setattr(socket, "socket", refuse)
    status, out, err = run_cli(capsys, [
        "solve", "--fixture", "eq7", "--key", "1,0", "--mode", "exact",
        "--execution", "sampled", "--shots", "1024", "--seed", "2"])
    assert status == 0, err
    assert report_values(out)["relative_error"] < 0.1
    src = tmp_path / "bell.qc"
    src.write_text("qubits 2\nh q0\ncx q0 q1\n")
    status, out, err = run_cli(capsys, ["simulate", "--circuit", str(src)])
    assert status == 0, err


def test_sampled_solve_just_outside_the_ball_is_accepted(capsys):
    # A correct pure state whose 8192-shot tomography gives |r|^2 = 1.0406,
    # 2.4 sigma of the delta-method spread above the ball.
    matrix = "1.031382351709835,1.3304631105359532,1.3304631105359532," \
             "5.587434331849081"
    rhs = "0.3377155756992855,-0.31071885365042484"
    status, out, err = run_cli(capsys, [
        "solve", f"--matrix={matrix}", f"--rhs={rhs}", "--key", "0,0",
        "--mode", "exact", "--execution", "sampled", "--seed", "2102065939"])
    assert status == 0, err
    values = report_values(out)
    got = np.array([values["solution_1"], values["solution_2"]])
    want = np.linalg.solve(np.array(matrix.split(","), float).reshape(2, 2),
                           np.array(rhs.split(","), float))
    # 5 sigma of the direction (1/(2 sqrt(kept))) and scale (binomial
    # success probability over 3 x 8192 raw shots) errors
    success, shots = values["success_probability"], 8192
    sigma = math.sqrt(1.0 / (4.0 * success * shots)
                      + (1.0 - success) / (12.0 * success * shots))
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 5.0 * sigma
