"""Benchmark of the masked-solve pipeline, end to end and by layer.

    python3 perfbench/run.py --workload solve_stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Workloads (README.md says why each exists):
  cli_cold      one cold `python -m qhesolve solve` replica process at a time
  solve_stream  hecrypt.solve_encrypted against a `qhesolve serve` process
  server_jobs   raw frames to a `qhesolve serve` process, one connection

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time with
the tracing wrappers and half without, and prints the per-layer metrics and
the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The program is run from this checkout's src/ and nowhere else.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SHOTS = 8192
NOISY_SHOTS = 64
SETUP_TRIALS = 5   # process starts per run for setup_s
WARMUP_TRIALS = 3  # cold budget-7 tables per run (about 2.5 s each)
STAR_CENTER = 1  # the eigenvalue qubit, as `qhesolve solve` legalizes replica circuits
T_BUDGET = 7
TABLE_ENTRIES = 9168  # Clifford+T unitaries with T-count <= 7: 24 (3 2^7 - 2)
CHILD_TIMEOUT = 120.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "cpu_ms_per_op": "ms",
                    "peak_rss_mb": "MB"}

qhesolve = None  # imported by main() once src/ is known to hold it


def program_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def spawn(argv, trace_out=None, **popen):
    """Start `python -m qhesolve argv`, or the tracing launcher."""
    if trace_out is None:
        cmd, env = [sys.executable, "-m", "qhesolve", *argv], program_env()
    else:
        cmd = [sys.executable, str(HERE / "launch.py"), *argv]
        env = program_env(PERFBENCH_T0=repr(time.perf_counter()),
                          PERFBENCH_TRACE_OUT=str(trace_out))
    return subprocess.Popen(cmd, env=env, cwd=ROOT, **popen)


def run_child(argv, trace_out=None):
    """(exit code, output, wall s, cpu s, peak rss KiB) of one qhesolve run."""
    start = time.perf_counter()
    proc = spawn(argv, trace_out, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode(errors="replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


class ServerProcess:
    """One `qhesolve serve --port 0` process, timed from spawn to listening."""

    def __init__(self, log_path: Path, trace_out=None):
        self.trace_out = trace_out
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = spawn(["serve", "--port", "0"], trace_out,
                          stdout=subprocess.PIPE, stderr=self._log)
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.startup_s = time.perf_counter() - start
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.address = (host, int(port))

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_kib(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def start_server(run_dir: Path, trials: int, traced: bool):
    """(the last of `trials` fresh servers, median spawn-to-listening)."""
    starts = []
    for i in range(trials):
        last = i == trials - 1
        server = ServerProcess(run_dir / "server.log",
                               run_dir / "server.jsonl" if traced and last else None)
        starts.append(server.startup_s)
        if not last:
            server.stop()
    return server, statistics.median(starts)


class Tally:
    """Operations attempted, failed and timed in one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures other than the kept, known fault
        self.latencies = []   # completed operations only
        self.busy_s = 0.0     # summed operation time, failures included

    def record(self, latency: float, problem: str | None, known_fault=False):
        self.attempted += 1
        self.busy_s += latency
        if problem is None:
            self.latencies.append(latency)
            return
        self.failed += 1
        if not known_fault:
            self.unexpected.append(problem)


def run_rounds(workload, tally: Tally, seconds: float):
    """Whole rounds until the operations have taken `seconds` (one at 0)."""
    rounds = 0
    while rounds == 0 or tally.busy_s < seconds:
        for op in workload.make_round():
            op(tally)
        rounds += 1


def percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

class CliCold:
    """Cold `qhesolve solve --mode replica --execution sampled` processes."""

    name = "cli_cold"

    def __init__(self, rng, run_dir: Path, traced: bool):
        self.rng = rng
        self.run_dir = run_dir
        self.traced = traced
        self.cpu_s = 0.0
        self.rss_kib = 0
        self.trace_files = []

    def setup(self, trials: int) -> float:
        """Median cold start of the CLI (`qhesolve --help`); a cold solve
        keeps nothing else between invocations."""
        times = []
        for _ in range(trials):
            code, out, wall, _, _ = run_child(["--help"])
            if code != 0:
                raise RuntimeError(f"qhesolve --help failed: {out}")
            times.append(wall)
        return statistics.median(times)

    def begin(self):
        pass

    def run_checks(self):
        return []

    def make_round(self):
        systems = [(name, *ref.FIXTURES[name], ref.FIXTURE_KEY)
                   for name in ("eq7", "eq8")]
        systems += [("seeded", *ref.persymmetric_aligned(self.rng))
                     for _ in range(2)]
        ops = []
        for label, a, b, key in systems:
            if label == "seeded":
                # `--rhs=` form: a value may start with '-'
                argv = ["solve",
                        "--matrix=" + ",".join(repr(float(v)) for v in a.ravel()),
                        "--rhs=" + ",".join(repr(float(v)) for v in b)]
            else:
                argv = ["solve", "--fixture", label]
            argv += ["--key", f"{key[0]},{key[1]}", "--mode", "replica",
                     "--execution", "sampled", "--shots", str(SHOTS),
                     "--seed", str(_seed(self.rng))]
            ops.append(functools.partial(self._solve, argv, a, b, key))
        return ops

    def _solve(self, argv, a, b, key, tally: Tally):
        trace_out = None
        if self.traced:
            trace_out = self.run_dir / f"cli-{len(self.trace_files)}.jsonl"
            self.trace_files.append(trace_out)
        code, out, wall, cpu, rss = run_child(argv, trace_out)
        self.cpu_s += cpu
        self.rss_kib = max(self.rss_kib, rss)
        tally.record(wall, check_cli_report(code, out, a, b, key))

    def finish(self):
        spans = []
        for i, path in enumerate(self.trace_files):
            if path.exists():  # a child that died at import wrote none
                spans += tracer.load(path, f"cli{i}", f"cli{i}")
        return self.cpu_s, self.rss_kib / 1024.0, spans


def check_cli_report(code, out, a, b, key) -> str | None:
    if code != 0:
        return f"solve exited {code}: {out.strip()[-300:]}"
    values = {}
    for line in out.splitlines():
        name, _, value = line.partition("=")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    try:
        solution = [values["solution_1"], values["solution_2"]]
        masked = [values["masked_solution_1"], values["masked_solution_2"]]
        success = values["success_probability"]
    except KeyError as exc:
        return f"report lacks {exc}: {out.strip()[-300:]}"
    tolerance = ref.REPLICA_ALLOWANCE + ref.sampled_tolerance(success, SHOTS)
    # the report prints 12 significant digits
    return ref.check_decrypted(a, b, key, solution, masked, tolerance,
                               decrypt_tol=1e-11)


# ---------------------------------------------------------------------------
# solve_stream
# ---------------------------------------------------------------------------

WARMUP_CHILD = (
    "import time\n"
    "from qhesolve import qsim, synth\n"
    "start = time.perf_counter()\n"
    f"synth.approximate_unitary(qsim.ry_matrix(0.3), {T_BUDGET})\n"
    "print(time.perf_counter() - start)\n"
)


class SolveStream:
    """A closed loop of delegated solves from this process to one server."""

    name = "solve_stream"

    def __init__(self, rng, run_dir: Path, traced: bool):
        self.rng = rng
        self.run_dir = run_dir
        self.tracer = tracer.Tracer() if traced else None
        self.server = None
        self.server_cpu0 = 0.0
        self.client_cpu_s = 0.0
        self.ops = 0

    def setup(self, trials: int) -> float:
        """Median server start to listening, plus the median cold client
        warm-up (the budget-7 synthesis table) of up to WARMUP_TRIALS; the
        last warm-up is this process's own."""
        self.server, startup_s = start_server(self.run_dir, trials,
                                              self.tracer is not None)
        warmups = []
        for _ in range(min(trials, WARMUP_TRIALS) - 1):
            done = subprocess.run([sys.executable, "-c", WARMUP_CHILD],
                                  env=program_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT, check=True)
            warmups.append(float(done.stdout))
        if self.tracer:
            self.tracer.install()
        start = time.perf_counter()
        qhesolve.synth.approximate_unitary(qhesolve.qsim.ry_matrix(0.3), T_BUDGET)
        warmups.append(time.perf_counter() - start)
        return startup_s + statistics.median(warmups)

    def begin(self):
        self.server_cpu0 = self.server.cpu_s()

    def run_checks(self):
        return []

    def make_round(self):
        """12 solves: 4 replica (eq7, eq8, 2 seeded), 2 exact analytic,
        6 exact sampled, in seeded order."""
        hhl = qhesolve.hhl
        replica = dict(mode="replica", execution="sampled", shots=SHOTS,
                       star_center=STAR_CENTER, rs_t_budget=T_BUDGET)
        ops = []
        for name in ("eq7", "eq8"):
            a, b = ref.FIXTURES[name]
            config = hhl.SolverConfig(theta_override=qhesolve.fixtures.REPLICA_THETA,
                                      seed=_seed(self.rng), **replica)
            ops.append((a, b, ref.FIXTURE_KEY, config))
        for _ in range(2):
            config = hhl.SolverConfig(seed=_seed(self.rng), **replica)
            ops.append((*ref.persymmetric_aligned(self.rng), config))
        for _ in range(2):
            ops.append((*ref.exact_analytic_input(self.rng),
                        hhl.SolverConfig(mode="exact", execution="analytic")))
        for _ in range(6):
            config = hhl.SolverConfig(mode="exact", execution="sampled",
                                      shots=SHOTS, seed=_seed(self.rng))
            ops.append((*ref.exact_sampled_input(self.rng), config))
        order = self.rng.permutation(len(ops))
        return [functools.partial(self._solve, *ops[i]) for i in order]

    def _solve(self, a, b, key, config, tally: Tally):
        system = qhesolve.hhl.LinearSystem(a, b)
        mask = qhesolve.hecrypt.MaskKey(key)
        if self.tracer:
            self.tracer.op = self.ops
        self.ops += 1
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            report = qhesolve.hecrypt.solve_encrypted(system, mask,
                                                      self.server.address, config)
        except Exception as exc:  # any raise is a failed operation
            report, problem = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        self.client_cpu_s += time.thread_time() - cpu0
        if report is not None:
            problem = check_solve_report(report, a, b, key, config)
        tally.record(latency, problem)

    def finish(self):
        if self.tracer:
            self.tracer.restore()
        if self.server is None:
            return 0.0, 0.0, []
        cpu = self.client_cpu_s + self.server.cpu_s() - self.server_cpu0
        rss = max(self.server.peak_rss_kib(),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0
        self.server.stop()
        spans = []
        if self.tracer:
            spans = [dict(s, process="client", group="main") for s in self.tracer.spans]
            spans += tracer.load(self.server.trace_out, "server", "main")
        return cpu, rss, spans


def check_solve_report(report, a, b, key, config) -> str | None:
    if config.execution == "analytic":
        tolerance = 1e-9
    elif config.mode == "replica":
        tolerance = (ref.REPLICA_ALLOWANCE
                     + ref.sampled_tolerance(report.success_probability, SHOTS))
    else:
        masked_b = b - a @ np.array(key, dtype=float)
        success = ref.ideal_success(a, masked_b)
        raw = 3 * SHOTS
        if not ref.binomial_plausible(round(report.success_probability * raw),
                                      raw, success):
            return (f"success probability {report.success_probability:.5g} "
                    f"implausible against {success:.5g}")
        tolerance = ref.sampled_tolerance(success, SHOTS)
    return ref.check_decrypted(a, b, key, report.solution,
                               report.masked_solution, tolerance)


# ---------------------------------------------------------------------------
# server_jobs
# ---------------------------------------------------------------------------

FRAME = struct.Struct(">I")
TINY_CIRCUIT = "qubits 1\nh q0\n"
_MALFORMED_BASE = {"circuit": TINY_CIRCUIT, "mode": "sampled", "shots": 16,
                   "seed": 1, "bases": [{"basis": "Z", "qubit": 0}]}
# Each gets no reply today: execute_job raises and the connection drops.
MALFORMED = {
    "noise_p_not_numeric": {**_MALFORMED_BASE, "noise_p": "high"},    # ValueError
    "basis_without_qubit": {**_MALFORMED_BASE, "bases": [{"basis": "Z"}]},  # KeyError
    "negative_seed": {**_MALFORMED_BASE, "seed": -1},                 # ValueError
    "circuit_not_string": {**_MALFORMED_BASE, "circuit": 42},          # AttributeError
    "shots_boolean": {**_MALFORMED_BASE, "shots": True},               # TypeError
}
REGISTER_BITS = range(3, 9)
NOISY_PER_FIXTURE = 3


def _recv_exactly(sock, count: int) -> bytes | None:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


class ServerJobs:
    """Raw job frames over one connection, reconnecting after a drop."""

    name = "server_jobs"

    def __init__(self, rng, run_dir: Path, traced: bool):
        self.rng = rng
        self.run_dir = run_dir
        self.traced = traced
        self.server = None
        self.server_cpu0 = 0.0
        self.sock = None
        self.jobs = 0
        self.exchanges = []
        # (fixture, basis, outcome or "kept") -> [seen, shots, expected]
        self.noisy_totals = defaultdict(lambda: [0, 0, 0.0])  # (start, end, reply bytes or None), in order

    def setup(self, trials: int) -> float:
        """Median server start to listening; the client needs no warm-up."""
        self.server, startup_s = start_server(self.run_dir, trials, self.traced)
        self.noisy_circuits = {name: self._replica_circuit(name)
                               for name in ("eq7", "eq8")}
        return startup_s

    @staticmethod
    def _replica_circuit(fixture: str) -> str:
        """The circuit `qhesolve solve --fixture <fixture> --key 1,0 --mode
        replica` submits. Fixed circuits keep every round's noisy jobs the
        same size; a seeded system may substitute a rotation by a short
        Clifford word and halve the job."""
        hhl = qhesolve.hhl
        a, b = ref.FIXTURES[fixture]
        masked = b - a @ np.array(ref.FIXTURE_KEY, dtype=float)
        config = hhl.SolverConfig(mode="replica", star_center=STAR_CENTER,
                                  rs_t_budget=T_BUDGET,
                                  theta_override=qhesolve.fixtures.REPLICA_THETA)
        circuit, _ = hhl.compile_solver_circuit(
            hhl.eigendecompose(a), masked / np.linalg.norm(masked), config)
        return qhesolve.circ.emit_text(circuit)

    def begin(self):
        self.server_cpu0 = self.server.cpu_s()

    def _add_noisy(self, fixture, basis, outcome, seen, expected):
        entry = self.noisy_totals[(fixture, basis, outcome)]
        entry[0] += seen
        entry[1] += NOISY_SHOTS
        entry[2] += expected

    def run_checks(self):
        """The noisy counts of the whole run against the channel: each job
        alone has too few shots to see, say, a tenfold noise_p."""
        return [f"noisy {fixture} {basis} {outcome}: {seen} of {shots} shots, "
                f"{expected:.1f} expected"
                for (fixture, basis, outcome), (seen, shots, expected)
                in sorted(self.noisy_totals.items())
                if not ref.binomial_plausible(seen, shots, expected / shots)]

    def make_round(self):
        """35 frames: for each register width 3..8 two sampled and two
        analytic general-circuit jobs, three noisy jobs on each fixture's
        replica circuit, and the five malformed payloads, in seeded order."""
        hhl, circ = qhesolve.hhl, qhesolve.circ
        ops = []
        for m in REGISTER_BITS:
            for mode in ("sampled", "sampled", "analytic", "analytic"):
                a, b = ref.phase_exact_system(self.rng, m)
                circuit = hhl.build_general_circuit(
                    hhl.LinearSystem(a, b), hhl.SolverConfig(eigen_register_bits=m))
                payload = {"circuit": circ.emit_text(circuit), "mode": mode,
                           "postselect": {"qubit": m + 1, "outcome": 1}}
                if mode == "sampled":
                    payload.update(shots=SHOTS, seed=_seed(self.rng),
                                   bases=[{"basis": x, "qubit": 0} for x in "ZXY"])
                ops.append((payload, functools.partial(check_general, a, b, m)))
        for fixture in [*self.noisy_circuits] * NOISY_PER_FIXTURE:
            text = self.noisy_circuits[fixture]
            p = float(self.rng.uniform(0.005, 0.03))
            payload = {"circuit": text, "mode": "sampled", "shots": NOISY_SHOTS,
                       "seed": _seed(self.rng), "noise_p": p,
                       "postselect": {"qubit": 2, "outcome": 1},
                       "bases": [{"basis": x, "qubit": 0} for x in "ZXY"]}
            totals = {basis: functools.partial(self._add_noisy, fixture, basis)
                      for basis in "ZXY"}
            ops.append((payload, functools.partial(check_noisy, text, p, totals)))
        for payload in MALFORMED.values():
            ops.append((dict(payload), None))
        order = self.rng.permutation(len(ops))
        return [functools.partial(self._job, *ops[i]) for i in order]

    def _job(self, payload, check, tally: Tally):
        payload["id"] = f"job-{self.jobs}"
        self.jobs += 1
        data = json.dumps(payload).encode()
        if self.sock is None:
            self.sock = socket.create_connection(self.server.address,
                                                 timeout=CHILD_TIMEOUT)
        start = time.perf_counter()
        self.sock.sendall(FRAME.pack(len(data)) + data)
        header = _recv_exactly(self.sock, FRAME.size)
        reply = None if header is None else _recv_exactly(
            self.sock, FRAME.unpack(header)[0])
        end = time.perf_counter()
        self.exchanges.append((start, end, reply))
        if reply is None:
            self.sock.close()
            self.sock = None
            tally.record(end - start, "no reply", known_fault=check is None)
            return
        response = json.loads(reply)
        if response.get("id") != payload["id"]:
            problem = f"reply id {response.get('id')!r} for {payload['id']!r}"
        elif check is None:
            problem = (None if isinstance(response.get("error"), str)
                       else f"malformed payload answered without an error: {response}")
        elif "error" in response:
            problem = f"{response['error']}: {response.get('detail')}"
        else:
            try:
                problem = check(response)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"response lacks a field or has a bad one: {exc!r}"
        tally.record(end - start, problem)

    def finish(self):
        if self.sock is not None:
            self.sock.close()
        if self.server is None:
            return 0.0, 0.0, []
        cpu = self.server.cpu_s() - self.server_cpu0
        rss = self.server.peak_rss_kib() / 1024.0
        self.server.stop()
        spans = []
        if self.traced:
            spans = tracer.load(self.server.trace_out, "server", "main")
            spans += [{"id": -1 - i, "name": "bench.exchange", "start": s, "end": e,
                       "parent": None, "op": i, "counts": {},
                       "bytes": None if r is None else len(r),
                       "process": "client", "group": "main"}
                      for i, (s, e, r) in enumerate(self.exchanges)]
        return cpu, rss, spans


def check_general(a, b, m, response) -> str | None:
    """Post-selected state qubit along A^-1 b, register at 0, ancilla at 1,
    success probability c^2 ||A^-1 b_unit||^2."""
    n = m + 2
    x = np.linalg.solve(a, b / np.linalg.norm(b))
    state = x / np.linalg.norm(x)
    success = ref.ideal_success(a, b)
    top = 2 ** (n - 1)
    if "amplitudes" in response:
        amps = np.array([complex(re, im) for re, im in response["amplitudes"]])
        if amps.shape != (2 ** n,):
            return f"{len(amps)} amplitudes for {n} qubits"
        ideal = np.zeros(2 ** n)
        ideal[1], ideal[top + 1] = state
        overlap = abs(np.vdot(ideal, amps))
        if not overlap >= 1.0 - 1e-9 or abs(np.linalg.norm(amps) - 1.0) > 1e-9:
            return f"post-selected state overlap {overlap:.12f}"
        if abs(response["success_probability"] - success) > 1e-9:
            return (f"success probability {response['success_probability']:.12g}"
                    f" != {success:.12g}")
        return None
    z, x_bloch = state[0] ** 2 - state[1] ** 2, 2.0 * state[0] * state[1]
    zero_prob = {"Z": (1.0 + z) / 2.0, "X": (1.0 + x_bloch) / 2.0, "Y": 0.5}
    results = response.get("results", [])
    if [(r["basis"], r["qubit"]) for r in results] != [("Z", 0), ("X", 0), ("Y", 0)]:
        return f"unexpected bases {results!r:.200}"
    for item in results:
        counts, kept = item["counts"], item["kept_shots"]
        if item["raw_shots"] != SHOTS or sum(counts.values()) != kept:
            return f"shot totals {item['raw_shots']}/{kept} do not add up"
        if any(len(k) != n or k[1:] != "0" * m + "1" for k in counts):
            return f"outcomes outside the solution subspace: {sorted(counts)[:4]}"
        if not ref.binomial_plausible(kept, SHOTS, success):
            return f"kept {kept}/{SHOTS} implausible at {success:.5g}"
        zeros = sum(v for k, v in counts.items() if k[0] == "0")
        if not ref.binomial_plausible(zeros, kept, zero_prob[item["basis"]]):
            return (f"{item['basis']}: {zeros}/{kept} zeros implausible at "
                    f"{zero_prob[item['basis']]:.5g}")
    return None


def check_noisy(text, p, totals, response) -> str | None:
    """Per-basis counts against the density-matrix channel evaluation; each
    basis's counts also go to totals[basis](outcome, seen, expected) for the
    run-level check."""
    results = response.get("results", [])
    if [(r["basis"], r["qubit"]) for r in results] != [("Z", 0), ("X", 0), ("Y", 0)]:
        return f"unexpected bases {results!r:.200}"
    for item in results:
        probs = ref.noisy_distribution(text, p, item["basis"], 0)
        counts, kept = item["counts"], item["kept_shots"]
        if item["raw_shots"] != NOISY_SHOTS or sum(counts.values()) != kept:
            return f"shot totals {item['raw_shots']}/{kept} do not add up"
        if any(not k.endswith("1") for k in counts):
            return f"post-selection kept {sorted(counts)}"
        observed = {"kept": (kept, float(probs[1::2].sum()))}
        for index in range(1, 8, 2):
            outcome = format(index, "03b")
            observed[outcome] = (counts.get(outcome, 0), float(probs[index]))
        for outcome, (seen, prob) in observed.items():
            totals[item["basis"]](outcome, seen, NOISY_SHOTS * prob)
        for outcome, (seen, prob) in observed.items():
            if not ref.binomial_plausible(seen, NOISY_SHOTS, prob):
                return (f"{item['basis']}: {outcome} seen {seen} times, "
                        f"probability {prob:.4g}")
    return None


WORKLOADS = {cls.name: cls for cls in (CliCold, SolveStream, ServerJobs)}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def phase(name, rng, run_dir, traced, seconds, trials):
    workload = WORKLOADS[name](rng, run_dir, traced)
    tally = Tally()
    try:
        setup_s = workload.setup(trials)
        workload.begin()
        run_rounds(workload, tally, seconds)
        tally.unexpected += workload.run_checks()
    finally:
        cpu_s, rss_mb, spans = workload.finish()
    return setup_s, tally, cpu_s, rss_mb, spans


def timed_run(name, seed, seconds, trials=SETUP_TRIALS):
    run_dir = fresh_dir(OUT / f"{name}-seed{seed}")
    setup_s, tally, cpu_s, rss_mb, _ = phase(
        name, np.random.default_rng(seed), run_dir, False, seconds, trials)
    done = len(tally.latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": done / tally.busy_s if tally.busy_s else 0.0,
        "latency_p50_ms": percentile_ms(tally.latencies, 50),
        "latency_p90_ms": percentile_ms(tally.latencies, 90),
        "cpu_ms_per_op": cpu_s * 1e3 / done if done else 0.0,
        "peak_rss_mb": rss_mb,
    }
    return ([tally], {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})


def traced_run(name, seed, seconds):
    """Half the time traced, half untraced; per-layer metrics plus overhead.

    Layers the workload never calls are filled from one traced cold
    `qhesolve solve` of eq7 (not counted as an operation).
    """
    rng = np.random.default_rng(seed)
    run_dir = fresh_dir(OUT / f"{name}-seed{seed}-trace")
    _, traced, _, _, spans = phase(name, rng, run_dir, True, seconds / 2, 1)
    _, plain, _, _, _ = phase(name, rng, run_dir, False, seconds / 2, 1)
    metrics, guard = layer_metrics(spans, seed, run_dir)
    p50_traced = statistics.median(traced.latencies) if traced.latencies else 0.0
    p50_plain = statistics.median(plain.latencies) if plain.latencies else 0.0
    metrics["trace.overhead_pct"] = (
        100.0 * (p50_traced - p50_plain) / p50_plain if p50_plain else 0.0, "%")
    with open(OUT / f"trace-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    if guard:
        plain.unexpected.append(guard)
    return [traced, plain], metrics


LAYER_UNITS = {
    "cli.startup_ms": "ms", "cli.server_lifecycle_ms": "ms",
    "synth.table_build_ms": "ms", "synth.table_entries": "count",
    "synth.search_ms": "ms", "synth.searches_per_solve": "count",
    "circ.legalize_ms": "ms", "circ.substitute_ms": "ms", "circ.emit_ms": "ms",
    "circ.parse_ms": "ms", "circ.circuit_bytes": "B",
    "hhl.compile_self_ms": "ms", "hhl.extract_ms": "ms",
    "hhl.compiled_gates": "count", "hhl.compiled_t_count": "count",
    "hecrypt.self_ms": "ms", "qserve.round_trip_ms": "ms",
    "qserve.transport_ms": "ms", "qserve.execute_job_ms": "ms",
    "qserve.frame_bytes_in": "B", "qserve.frame_bytes_out": "B",
    "qserve.depolarizing_calls_per_job": "count", "qserve.no_reply_frames": "count",
    "qsim.run_statevector_ms": "ms", "qsim.run_statevector_calls_per_job": "count",
    "qsim.apply_gate_calls_per_job": "count", "qsim.sample_ms": "ms",
}


def _median_ms(seconds):
    return 1e3 * statistics.median(seconds) if seconds else None


def _mean(values):
    return statistics.fmean(values) if values else None


def summarize_spans(spans) -> dict:
    """Per-layer values from spans; None where no span of that layer ran.

    Times are medians per call (self time where named), counts and sizes
    means per job or solve. Client round trips pair with server
    execute_job spans in order: one connection carries one job at a time.
    """
    kids = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
        if s["parent"] is not None:
            kids[(s["process"], s["parent"])].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in kids[(s["process"], s["id"])])

    starts = {s["process"]: s for s in named["qserve.ExecutionServer.start"]}
    first_builds = {}
    for s in sorted(named["synth.enumerate_unitaries"], key=lambda s: s["start"]):
        if s.get("budget") == T_BUDGET:
            first_builds.setdefault(s["process"], s)
    compiles = named["hhl.compile_solver_circuit"]
    substituting = [c for c in compiles if c.get("substitutes")]
    searches = [k for c in substituting for k in kids[(c["process"], c["id"])]
                if k["name"] == "synth.approximate_unitary"]
    jobs = named["qserve.execute_job"]
    round_trips = named["qserve.submit"] or named["bench.exchange"]
    transport = []
    by_group = defaultdict(lambda: ([], []))
    for s in round_trips:
        by_group[s["group"]][0].append(s)
    for s in jobs:
        by_group[s["group"]][1].append(s)
    for trips, executes in by_group.values():
        trips.sort(key=lambda s: s["start"])
        executes.sort(key=lambda s: s["start"])
        transport += [dur(t) - dur(e) for t, e in zip(trips, executes)]
    frames = named["qserve.recv_frame"]
    by_id = {(s["process"], s["id"]): s for s in spans}

    def under_submit(s):
        parent = by_id.get((s["process"], s["parent"]))
        return parent is not None and parent["name"] == "qserve.submit"

    frames_in = [s["bytes"] for s in frames
                 if not under_submit(s) and s.get("bytes") is not None]
    frames_out = [s["bytes"] for s in frames + named["bench.exchange"]
                  if (s["name"] == "bench.exchange" or under_submit(s))
                  and s.get("bytes") is not None]
    no_reply = (sum(1 for s in named["bench.exchange"] if s["bytes"] is None)
                + sum(1 for s in named["qserve.submit"]
                      if s.get("error") == "TransportError"))

    def per_job(counter):
        return _mean([j["counts"].get(counter, 0) for j in jobs if "error" not in j])

    return {
        "cli.startup_ms": _median_ms([dur(s) for s in named["cli.startup"]]),
        "cli.server_lifecycle_ms": _median_ms(
            [dur(s) + dur(starts[s["process"]])
             for s in named["qserve.ExecutionServer.shutdown"]
             if s["process"] in starts]),
        "synth.table_build_ms": _median_ms([dur(s) for s in first_builds.values()]),
        "synth.table_entries": _mean([s["entries"] for s in first_builds.values()]),
        "synth.search_ms": _median_ms(
            [self_time(s) for s in named["synth.approximate_unitary"]]),
        "synth.searches_per_solve": (len(searches) / len(substituting)
                                     if substituting else None),
        "circ.legalize_ms": _median_ms([dur(s) for s in named["circ.legalize_star"]]),
        "circ.substitute_ms": _median_ms([dur(s) for s in named["circ.substitute_ry"]]),
        "circ.emit_ms": _median_ms([dur(s) for s in named["circ.emit_text"]]),
        "circ.parse_ms": _median_ms([dur(s) for s in named["circ.parse_text"]]),
        "circ.circuit_bytes": _mean([j["circuit_bytes"] for j in jobs]),
        "hhl.compile_self_ms": _median_ms([self_time(s) for s in compiles]),
        "hhl.extract_ms": _median_ms([dur(s) for s in named["hhl.extract_solution"]]),
        "hhl.compiled_gates": _mean([c["gates"] for c in compiles]),
        "hhl.compiled_t_count": _mean([c["t_count"] for c in compiles]),
        "hecrypt.self_ms": _median_ms(
            [self_time(s) for s in named["hecrypt.solve_encrypted"]]),
        "qserve.round_trip_ms": _median_ms([dur(s) for s in round_trips]),
        "qserve.transport_ms": _median_ms(transport),
        "qserve.execute_job_ms": _median_ms([dur(s) for s in jobs]),
        "qserve.frame_bytes_in": _mean(frames_in),
        "qserve.frame_bytes_out": _mean(frames_out),
        "qserve.depolarizing_calls_per_job": per_job("qserve.apply_depolarizing"),
        "qserve.no_reply_frames": no_reply if round_trips else None,
        "qsim.run_statevector_ms": _median_ms(
            [dur(s) for s in named["qsim.run_statevector"]]),
        "qsim.run_statevector_calls_per_job": per_job("qsim.run_statevector"),
        "qsim.apply_gate_calls_per_job": per_job("qsim.apply_gate"),
        "qsim.sample_ms": _median_ms([dur(s) for s in named["qsim.sample_counts"]]),
    }


def layer_metrics(spans, seed, run_dir):
    """(metrics, guard problem or None) for a traced run's spans."""
    values = summarize_spans(spans)
    guard = None
    if any(v is None for v in values.values()):
        probe_out = run_dir / "probe.jsonl"
        a, b = ref.FIXTURES["eq7"]
        code, out, _, _, _ = run_child(
            ["solve", "--fixture", "eq7", "--key", "1,0", "--mode", "replica",
             "--execution", "sampled", "--shots", str(SHOTS), "--seed", str(seed)],
            probe_out)
        guard = check_cli_report(code, out, a, b, ref.FIXTURE_KEY)
        if guard is None:
            probe = summarize_spans(tracer.load(probe_out, "probe", "probe"))
            values = {k: probe[k] if v is None else v for k, v in values.items()}
    if values["synth.table_entries"] != TABLE_ENTRIES:
        guard = guard or f"budget-7 table holds {values['synth.table_entries']} entries"
    metrics = {k: (float(v) if v is not None else 0.0, LAYER_UNITS[k])
               for k, v in values.items()}
    return metrics, guard


def result_line(tallies, metrics) -> str:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    unexpected = [p for t in tallies for p in t.unexpected]
    for problem in unexpected[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    return json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def smoke() -> int:
    """One round of every workload, untraced and traced, all checks on."""
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            tallies, metrics = (traced_run(name, 1, 0) if trace
                                else timed_run(name, 1, 0, trials=1))
            line = json.loads(result_line(tallies, metrics))
            known = sum(t.failed - len(t.unexpected) for t in tallies)
            expected_known = (len(MALFORMED) * len(tallies)
                              if name == "server_jobs" else 0)
            ok = line["correct"] and known == expected_known
            bad += not ok
            print(f"{name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"attempted={line['attempted']} failed={line['failed']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="operation time to measure; 0 runs one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload, with all checks")
    args = parser.parse_args(argv)
    if not (SRC / "qhesolve" / "__init__.py").is_file():
        print(f"error: no qhesolve source under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    global qhesolve
    import qhesolve as loaded
    qhesolve = loaded
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.trace:
        tallies, metrics = traced_run(args.workload, args.seed, args.seconds)
    else:
        tallies, metrics = timed_run(args.workload, args.seed, args.seconds)
    print(result_line(tallies, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
