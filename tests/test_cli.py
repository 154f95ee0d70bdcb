"""CLI behavior: determinism, exit codes, and the documented examples."""
import contextlib
import copy
import io
import json
import math
import os
import socket
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhesolve
from qhesolve import circ, fixtures, hecrypt, hhl, qserve, qsim, synth
from qhesolve.cli import build_parser, main, run
from test_qserve import JSON_VALUES, ODD

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
# console entry
# ---------------------------------------------------------------------------

class FlushedStream(io.StringIO):
    """A stream that knows whether all it was given has been flushed."""

    def __init__(self, fails: bool = False):
        super().__init__()
        self.fails, self.pending = fails, False

    def write(self, text):
        self.pending = True
        return super().write(text)

    def flush(self):
        if self.fails:
            raise BrokenPipeError(32, "Broken pipe")
        self.pending = False


def run_console(argv, exits, stdout=None):
    """(stdout, stderr) of cli.run(), with sys.argv set to argv, on fresh
    streams, and os._exit patched to append (status, stdout pending, stderr
    pending) to exits instead of ending the tests."""
    out, err = stdout or FlushedStream(), FlushedStream()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", ["qhesolve", *argv])
        patch.setattr(sys, "stdout", out)
        patch.setattr(sys, "stderr", err)
        patch.setattr(os, "_exit", lambda status: exits.append(
            (status, out.pending, err.pending)))
        run()
    return out, err


@pytest.mark.parametrize("argv,status,stream", [
    (["synth", "--target-ry", "0.5", "--t-budget", "2"], 0, 0),
    (["solve", "--key", "0,0"], 1, 1),
    (["--help"], 0, 0),
    (["serve", "--timeout", "-1"], 2, 1),
], ids=["report", "runtime-error", "help", "usage-error"])
def test_run_flushes_then_ends_with_the_status(argv, status, stream):
    exits = []
    streams = run_console(argv, exits)
    assert exits == [(status, False, False)]
    assert streams[stream].getvalue()


def test_run_falls_back_to_sys_exit_when_a_flush_fails():
    exits = []
    with pytest.raises(SystemExit) as exit_info:
        run_console(["solve", "--key", "0,0"], exits,
                    stdout=FlushedStream(fails=True))
    assert exit_info.value.code == 1 and exits == []


def test_run_lets_an_unexpected_exception_through(monkeypatch):
    def interrupted(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(qhesolve.cli, "main", interrupted)
    exits = []
    with pytest.raises(KeyboardInterrupt):
        run_console(["solve", "--fixture", "eq7", "--key", "1,0"], exits)
    assert exits == []


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


# kept shots split evenly in every basis: a Bloch vector of 0, consistent
EVEN_COUNTS = {"000": 4, "100": 4}


def sampled_reply(bases, counts=EVEN_COUNTS, kept=None):
    kept = sum(counts.values()) if kept is None else kept
    return json.dumps({"id": "solve-exact-sampled", "results": [
        {"basis": b, "qubit": 0, "counts": counts, "raw_shots": raw,
         "kept_shots": kept} for b, raw in bases]}).encode()


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
    # json.loads reads NaN and Infinity, and float() reads "nan"
    **{f"{name}_probability": ("analytic", json.dumps({
        "id": "solve-exact-analytic",
        "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7,
        "success_probability": value}).encode())
       for name, value in (("nan", math.nan), ("infinite", math.inf),
                           ("text_nan", "nan"))},
    "nan_amplitude": ("analytic", json.dumps({
        "id": "solve-exact-analytic",
        "amplitudes": [[1.0, 0.0], [math.nan, 0.0]] + [[0.0, 0.0]] * 6,
        "success_probability": 0.5}).encode()),
    "nan_raw_shots": ("sampled", sampled_reply([("Z", math.nan), ("X", 8),
                                                ("Y", 8)])),
    # every shot kept of 8e12 raw ones: a success probability of 1e-12
    "inflated_raw_shots": ("sampled", sampled_reply(
        [(b, 8 * 10**12) for b in "ZXY"])),
    "negative_count": ("sampled", sampled_reply(
        [(b, 8) for b in "ZXY"], {"000": 12, "100": -4})),
    "no_kept_shots": ("sampled", sampled_reply([(b, 8) for b in "ZXY"], {})),
    # 8 kept shots claimed, none counted
    "kept_shots_not_counted": ("sampled", sampled_reply(
        [(b, 8) for b in "ZXY"], {}, kept=8)),
    "multiline_error": ("analytic", json.dumps({
        "error": "bad_request", "detail": "no\nerror: forged"}).encode()),
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


def _slots(node):
    """Every (container, key) pair inside a JSON value, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _slots(child)


ODD_REPLY_VALUES = ODD | st.sampled_from(["nan", "Infinity", "a\nb"])


@st.composite
def near_miss_reply(draw, real):
    """A real reply with one entry, at any depth, replaced by an odd value
    or deleted, or with an error field added."""
    reply = copy.deepcopy(real)
    node, key = draw(st.sampled_from(list(_slots(reply))))
    action = draw(st.sampled_from(["replace", "delete", "error"]))
    if action == "replace":
        node[key] = draw(ODD_REPLY_VALUES)
    elif action == "delete":
        del node[key]
    else:
        reply["error"] = draw(ODD_REPLY_VALUES)
    return reply


def test_any_server_reply_gives_a_finite_report_or_one_error_line(
        capsys, monkeypatch):
    # the client is total on replies: any JSON value, or a real reply with
    # one odd entry, ends in a finite report or in one error line
    solve = ["solve", "--fixture", "eq7", "--key", "1,0", "--shots", "64"]
    real, handle = {}, qserve.handle_request  # the replies of a real server
    for execution in ("analytic", "sampled"):
        monkeypatch.setattr(qserve, "handle_request", lambda data: (
            real.setdefault(execution, handle(data))))
        assert run_cli(capsys, [*solve, "--execution", execution])[0] == 0
    monkeypatch.undo()

    def one_outcome(case):
        execution, reply = case
        address, thread = reply_once(json.dumps(reply).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run_cli(capsys, [
                *solve, "--execution", execution, "--server", address])
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        if status == 0:
            assert err == ""
            assert all(map(math.isfinite, report_values(out).values()))
        else:
            assert (status, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1, err

    cases = st.sampled_from(sorted(real)).flatmap(lambda execution: st.tuples(
        st.just(execution), near_miss_reply(real[execution]) | JSON_VALUES))
    settings(derandomize=True, deadline=None, database=None,
             max_examples=100)(given(cases)(one_outcome))()


@pytest.mark.parametrize("flags,message", [
    (["--key", "1"], "key length must match the system dimension"),
    (["--key", "1,0,1"], "key length must match the system dimension"),
    (["--key", "2,0"], "key components must be 0 or 1"),
    (["--key", "1", "--theta-override", "1", "--theta-override-deg", "1"],
     "--theta-override given in both units"),
    (["--key", "-1,0"], "key components must be 0 or 1"),
    (["--key", "1,,0"], "--key needs comma-separated integers"),
    # the budget-7 Clifford+T word for ry(+-0.0005) is the identity
    (["--key", "1,0", "--mode", "replica", "--theta-override", "0.001"],
     "replica rotation leaves no ancilla amplitude"),
    (["--key", "1,0", "--mode", "replica", "--theta-override", "inf"],
     "--theta-override must be finite"),
    (["--key", "1,0", "--theta-override-deg", "nan"],
     "--theta-override-deg must be finite"),
    (["--key-seed", "-1"], "--key-seed must be a non-negative integer"),
], ids=["one_bit", "three_bits", "not_binary", "angle_in_both_units_first",
        "negative", "empty_component", "replica_rotation_is_the_identity",
        "infinite_angle", "nan_angle_in_degrees", "negative_key_seed"])
def test_bad_key_is_refused_in_one_line(capsys, flags, message):
    status, out, err = run_cli(capsys, ["solve", "--fixture", "eq7", *flags])
    assert (status, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["solve", "--matrix=1,2,3", "--rhs=1,1", "--key", "0,0"],
     "--matrix needs 4 comma-separated numbers"),
    (["solve", "--key", "0,0"], "provide --fixture, or both --matrix and --rhs"),
    (["synth"], "provide --target-ry or --target-ry-deg"),
    (["synth", "--target-ry", "nan"], "--target-ry must be finite"),
    (["synth", "--target-ry-deg", "inf"], "--target-ry-deg must be finite"),
    (["bloch", "--mark-ry", "nan"], "--mark-ry must be finite"),
    (["bloch", "--mark-ry-deg=-inf"], "--mark-ry-deg must be finite"),
    (["simulate", "--postselect", "x"], "--postselect needs QUBIT:OUTCOME, got 'x'"),
    (["simulate", "--postselect", "0"], "--postselect needs QUBIT:OUTCOME, got '0'"),
    (["simulate", "--basis", "Z"], "--basis needs BASIS:QUBIT, got 'Z'"),
], ids=["three_matrix_entries", "no_system", "no_synth_angle", "nan_synth_angle",
        "infinite_synth_angle", "nan_mark", "infinite_mark", "postselect_not_a_pair",
        "postselect_without_outcome", "basis_without_qubit"])
def test_bad_argv_is_refused_in_one_line(capsys, tmp_path, argv, message):
    bell = tmp_path / "bell.qc"
    bell.write_text("qubits 2\nh q0\ncx q0 q1\n")
    if argv[0] == "simulate":
        argv = [*argv, "--circuit", str(bell), "--execution", "sampled"]
    status, out, err = run_cli(capsys, argv)
    assert (status, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["serve", "--port", "70000"], "port 70000 is outside 0..65535"),
    (["serve", "--port", "-1"], "port -1 is outside 0..65535"),
    *((["serve", "--timeout", t], f"timeout {t} is not a positive finite")
      for t in ("0", "-1", "nan", "inf")),
    *((["submit", "--circuit", "bell.qc", "--server", "127.0.0.1:9",
        "--timeout", t], f"timeout {t} is not a positive finite")
      for t in ("0", "nan")),
], ids=["70000", "-1", "serve_timeout_zero", "serve_timeout_negative",
        "serve_timeout_nan", "serve_timeout_infinite", "submit_timeout_zero",
        "submit_timeout_nan"])
def test_serve_port_out_of_range_is_usage_error(capsys, argv, message):
    # refused while parsing: no server starts and no connection is tried
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}: {message}" in capsys.readouterr().err


def test_port_and_timeout_in_range_parse():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "0", "--timeout", "2.5"])
    assert (args.port, args.timeout) == (0, 2.5)
    args = parser.parse_args(["submit", "--circuit", "c.qc", "--server",
                              "127.0.0.1:9", "--timeout", "1e-3"])
    assert args.timeout == 1e-3


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


def exact_solve(a, b):
    """A^-1 b in exact rational arithmetic, for a 2x2 A given row by row."""
    (a00, a01), (a10, a11) = [[Fraction(v) for v in row] for row in a]
    b0, b1 = map(Fraction, b)
    det = a00 * a11 - a01 * a10
    return [(a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det]


def exact_distance(got, want):
    """||got - want|| and ||want|| as exact squares: no float can overflow."""
    return (sum((Fraction(g) - w) ** 2 for g, w in zip(got, want)),
            sum(w * w for w in want))


@pytest.mark.parametrize("matrix,rhs,key", [
    ("0.7,0.3,0.3,0.7", "1e200,1e200", "1,0"),
    ("0.7,0.3,0.3,0.7", "1e154,1e154", "0,0"),
    ("1e300,0,0,1e300", "1,1", "0,0"),
    ("1e10,0,0,1e-10", "1e153,1e153", "0,0"),
    ("1e150,0,0,1e150", "1e-150,1e-150", "1,0"),
    ("0.7,0.3,0.3,0.7", "1e-200,0", "0,0"),
    ("2e-5,0,0,1e-5", "1,1", "0,0"),
    ("1.3e148,0.4e148,0.4e148,0.9e148", "1e-89,2e-89", "0,1"),
], ids=["rhs_norm", "rhs_norm_squared", "determinant", "solution_large",
        "solution_small", "norm_underflows", "condition_two",
        "key_dominates"])
def test_system_at_any_scale_solves(capsys, matrix, rhs, key):
    status, out, err = run_cli(capsys, ["solve", f"--matrix={matrix}",
                                        f"--rhs={rhs}", "--key", key])
    assert status == 0, err
    values = report_values(out)
    a = np.array(matrix.split(","), dtype=float).reshape(2, 2)
    b = np.array(rhs.split(","), dtype=float)
    mask = np.array(key.split(","), dtype=float)
    # the server's answer y = A^-1 (b - A a), exactly as encrypt rounds b - A a
    masked = [values["masked_solution_1"], values["masked_solution_2"]]
    miss, norm = exact_distance(masked, exact_solve(a, b - a @ mask))
    assert miss <= Fraction(1, 10**18) * norm
    # x = y + a keeps the digits of x only down to those of the key a
    x = [values["solution_1"], values["solution_2"]]
    miss, norm = exact_distance(x, exact_solve(a, b))
    assert miss <= Fraction(1, 10**18) * (norm + int(mask @ mask))


@pytest.mark.parametrize("argv", [
    ["--matrix=1e-300,0,0,1e-300", "--rhs=1e300,1e300", "--key", "0,0"],
    ["--matrix=1e300,0,0,1e300", "--rhs=1e-300,1e-300", "--key", "0,0"],
], ids=["solution_overflows", "solution_underflows"])
def test_out_of_range_solution_is_refused(capsys, argv):
    # x = A^-1 b is 1e600 or 1e-600: no float holds it
    status, out, err = run_cli(capsys, ["solve", *argv, "--mode", "exact",
                                        "--execution", "analytic"])
    assert (status, out) == (1, "")
    assert err == "error: solution outside the float range\n"


def test_asymmetric_system_is_refused_at_any_scale(capsys):
    # 50% asymmetric, though a01 - a10 is only 5e-13 in these units
    status, out, err = run_cli(capsys, [
        "solve", "--matrix=2e-12,1e-12,1.5e-12,1e-12", "--rhs=1,1",
        "--key", "0,0"])
    assert (status, out) == (1, "")
    assert err == "error: matrix must be symmetric\n"


def test_few_shots_that_all_agree_are_consistent_tomography(capsys):
    # 64 shots keep about one per basis; every kept shot agrees, so every
    # plug-in sigma is 0, and the check allows one shot's worth of spread
    status, out, err = run_cli(capsys, [
        "solve", "--matrix=5e-107,0.0,0.0,7.224388570257488e-108",
        "--rhs=1.470426828897976e+58,0.0", "--key", "1,1",
        "--execution", "sampled", "--shots", "64"])
    assert status == 0, err
    assert all(map(math.isfinite, report_values(out).values()))


def test_c_constant_is_given_in_the_units_of_a(capsys):
    flags = ["solve", "--matrix=2e-300,0,0,1e-300", "--rhs=1e-300,1e-300",
             "--key", "0,0", "--c-constant"]
    status, out, err = run_cli(capsys, [*flags, "2e-300"])
    assert (status, out) == (1, "")
    assert err == ("error: c must satisfy 0 < c <= lambda_min (1e-300), "
                   "got 2e-300\n")
    status, out, err = run_cli(capsys, [*flags, "5e-301"])
    assert status == 0, err
    assert report_values(out)["relative_error"] < 1e-12


@st.composite
def solve_flags(draw):
    """--matrix, --rhs and --key at power-of-ten scales over the float range:
    rotated SPD matrices of condition <= 15, and asymmetric, indefinite and
    singular ones."""
    kind = draw(st.sampled_from(["spd", "spd", "spd", "asymmetric",
                                 "indefinite", "singular"]))
    lam1 = draw(st.floats(0.5, 2.0))
    lam2 = {"indefinite": -1.0, "singular": 0.0}.get(kind, 1.0) * lam1 / draw(
        st.floats(1.0, 15.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    c, s = math.cos(phi), math.sin(phi)
    a = [c * c * lam1 + s * s * lam2, c * s * (lam1 - lam2),
         c * s * (lam1 - lam2), s * s * lam1 + c * c * lam2]
    if kind == "asymmetric":
        a[2] += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 1.0))
    b = [draw(st.floats(-2.0, 2.0)) for _ in range(2)]
    scale_a, scale_b = (10.0 ** draw(st.integers(-300, 300)) for _ in "ab")
    return [f"--matrix={','.join(repr(v * scale_a) for v in a)}",
            f"--rhs={','.join(repr(v * scale_b) for v in b)}",
            "--key", draw(st.sampled_from(["0,0", "0,1", "1,0", "1,1"]))]


def test_solve_either_reports_finite_values_or_exits_one():
    # a total client: any finite system solves with a finite report or is
    # refused with one error line, in both executions, and never warns
    def one_outcome(flags):
        for execution in (["--execution", "analytic"],
                          ["--execution", "sampled", "--shots", "64"]):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                status = main(["solve", *flags, *execution])
            out, err = out.getvalue(), err.getvalue()
            if status == 0:
                assert err == ""
                assert all(map(math.isfinite, report_values(out).values()))
            else:
                assert (status, out) == (1, "")
                assert err.startswith("error: ") and err.count("\n") == 1

    settings(derandomize=True, deadline=None, database=None,
             max_examples=150)(given(solve_flags())(one_outcome))()


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
         "--mode", "replica"], PERSYMMETRIC, hecrypt.keygen(13).a),
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
    ideal = masked.x
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
    compiled = circ.parse_text(out_file.read_text())
    assert all(g.target == 1 for g in compiled.gates if g.kind == "cx")


def test_compile_readme_argv_substitutes_then_legalizes(capsys, tmp_path):
    source = "qubits 3\nry(0.7) q0\ncx q0 q1\nry(-0.3) q2\ncx q1 q2\n"
    src, out_file = tmp_path / "in.qc", tmp_path / "out.qc"
    src.write_text(source)
    status, _, _ = run_cli(capsys, [
        "compile", "--circuit", str(src), "--legalize-center", "1",
        "--substitute-t-budget", "7", "--out", str(out_file)])
    assert status == 0
    compiled = circ.parse_text(out_file.read_text())
    assert not any(g.kind == "ry" for g in compiled.gates)
    assert all(g.target == 1 for g in compiled.gates if g.kind == "cx")
    substituted, _ = synth.substitute_clifford_t(circ.parse_text(source), 7)
    assert out_file.read_text() == circ.emit_text(
        circ.legalize_star(substituted, 1))


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
    *(["--fixture", "eq7", "--key", "1,0", "--mode", "replica",
       "--execution", "sampled", "--seed", "7", flag]
      for flag in ("--no-substitute", "--no-legalize")),
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


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def run_child(argv, blas_threads):
    """stdout of a fresh `python *argv` on this qhesolve, with
    OPENBLAS_NUM_THREADS unset (blas_threads None) or set to blas_threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qhesolve.__file__))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, check=True, env=env, timeout=60).stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc")
def test_import_starts_no_blas_worker_thread():
    code = ("import os, qhesolve\n"
            "print(len(os.listdir('/proc/self/task')),"
            " os.environ['OPENBLAS_NUM_THREADS'])\n")
    assert run_child(["-c", code], None) == "1 1\n"


def test_a_blas_thread_count_the_user_set_wins():
    code = "import os, qhesolve; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_child(["-c", code], "2") == "2\n"


def test_solve_report_does_not_depend_on_blas_threads():
    argv = ["-m", "qhesolve", "solve", "--fixture", "eq7", "--key", "1,0",
            "--mode", "exact", "--execution", "sampled", "--shots", "2048",
            "--seed", "5"]
    out = run_child(argv, None)
    assert out.startswith("success_probability=")
    assert run_child(argv, "2") == out
