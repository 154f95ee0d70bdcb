"""Untrusted execution service: framed-JSON jobs over TCP, plus the client.

Wire format: each message is one frame, a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON. One request frame yields exactly
one response frame; malformed payloads get an error response and the
connection stays open. The server executes circuits it is sent and nothing
else; it depends only on the simulator and the IR, so no key material is
even importable here. submit() without an address runs a job in-process
through the same request handling, encoded and decoded as on the wire.

Request fields: id, circuit (text format), mode ("analytic"|"sampled"),
shots/seed (sampled), postselect {qubit, outcome}, bases [{basis, qubit}],
noise_p (optional, sampled only: an exact depolarizing channel after every
gate, evolved as one density matrix per job). parse_job checks each field
and MAX_* limit first. Responses carry amplitudes + success_probability,
per-basis counts with raw/kept totals, or error + detail.
"""
from __future__ import annotations

import functools
import json
import logging
import selectors
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import circ, qsim

log = logging.getLogger(__name__)

FRAME_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024
DEFAULT_TIMEOUT = 30.0
# checked before any allocation; a noisy job holds a 4^n-entry density
# matrix: 16 MB at 10 qubits
MAX_QUBITS = 10
# rng.choice raises on 2**63 shots; at this cap a basis draws 8 MB of outcomes
MAX_SHOTS = 1 << 20
# parsing costs ~7.5 us and ~230 bytes at peak per line
MAX_CIRCUIT_LINES = 1 << 16
MAX_BASES = 3 * MAX_QUBITS  # Z, X and Y on every qubit
# run_density costs O(gates x 4^n): 128 gates at 10 qubits take ~3 s
MAX_NOISY_WORK = 1 << 27
MAX_CONCURRENT_JOBS = 32
# a reply or log record quotes at most this much client text (the job id,
# an error detail, the mode), so every reply fits in one frame
MAX_ECHO_CHARS = 1024

_PAULI_KINDS = ("x", "y", "z")


class TransportError(ConnectionError):
    """Client-side connection, framing, timeout or malformed-reply failure."""


class ServerError(RuntimeError):
    """An error code and detail: parse_job's refusal, or a server reply."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class Job:
    """One execution request. bases are (basis, qubit) pairs."""

    id: str
    circuit: str
    mode: str = "analytic"
    shots: int | None = None
    seed: int | None = None
    postselect: tuple[int, int] | None = None
    bases: tuple[tuple[str, int], ...] = ()
    noise_p: float | None = None

    def to_payload(self) -> dict:
        payload = {"id": self.id, "circuit": self.circuit, "mode": self.mode}
        if self.mode == "sampled":
            payload["shots"] = self.shots
            payload["seed"] = self.seed
        if self.postselect is not None:
            payload["postselect"] = {"qubit": self.postselect[0],
                                     "outcome": self.postselect[1]}
        if self.bases:
            payload["bases"] = [{"basis": b, "qubit": q} for b, q in self.bases]
        if self.noise_p is not None:
            payload["noise_p"] = self.noise_p
        return payload


def apply_depolarizing(state: qsim.StateVector, p: float, qubit: int,
                       rng: np.random.Generator) -> qsim.StateVector:
    """One trajectory-sampled depolarizing event on a qubit.

    With probability p a Pauli drawn uniformly from {X, Y, Z} is applied;
    p = 0 is the identity. Averaging trajectories at p gives
    <Z> = 1 - 4p/3 on |0>, the channel qsim.run_density applies exactly.
    """
    if not 0.0 <= p <= 0.5:
        raise qsim.SimulationError("depolarizing probability must be in [0, 0.5]")
    if p == 0.0 or rng.random() >= p:
        return state
    kind = _PAULI_KINDS[int(rng.integers(3))]
    return qsim.apply_gate(state, circ.Gate(kind, (qubit,)))


def _require(ok: bool, detail: str):
    if not ok:
        raise ServerError("bad_request", detail)


def parse_job(payload: dict) -> tuple[Job, circ.Circuit]:
    """Every check and limit on one job payload, in order; raises ServerError.

    The Job is canonical: an analytic one has no shots, seed or bases, a
    sampled one Z on qubit 0 by default, and noise_p is None for no noise.
    """
    job_id = payload.get("id")
    _require(isinstance(job_id, str) and job_id != "", "missing job id")
    _require(len(job_id) <= MAX_ECHO_CHARS,
             f"a job id takes at most {MAX_ECHO_CHARS} characters")
    text = payload.get("circuit")
    _require(isinstance(text, str), "missing or non-text circuit")
    _require(text.count("\n") <= MAX_CIRCUIT_LINES,
             f"a circuit takes at most {MAX_CIRCUIT_LINES} lines")
    try:
        circuit = circ.parse_text(text)
    except circ.CircuitSyntaxError as exc:
        raise ServerError("parse_error", str(exc)) from None
    except circ.CircuitError as exc:
        raise ServerError("bad_circuit", str(exc)) from None

    mode = payload.get("mode", "analytic")
    postselect = payload.get("postselect")
    if postselect is not None:
        # type() is exact: JSON 0.7 and true are not qubits or outcomes
        _require(isinstance(postselect, dict) and all(
            type(postselect.get(k)) is int for k in ("qubit", "outcome")),
            "postselect needs integer qubit and outcome")
        postselect = (postselect["qubit"], postselect["outcome"])
        _require(postselect[1] in (0, 1), "postselect outcome must be 0 or 1")
        _require(0 <= postselect[0] < circuit.n_qubits,
                 "postselect qubit outside the circuit")
    noise_p = payload.get("noise_p", 0.0)
    _require(type(noise_p) in (int, float) and 0.0 <= noise_p <= 0.5,
             "noise_p must be a number in [0, 0.5]")
    _require(circuit.n_qubits <= MAX_QUBITS, f"a {'noisy ' if noise_p else ''}"
             f"job takes at most {MAX_QUBITS} qubits")
    _require(not noise_p or
             len(circuit.gates) * 4 ** circuit.n_qubits <= MAX_NOISY_WORK,
             f"a noisy job takes at most {MAX_NOISY_WORK} gates x 4^qubits")

    if mode == "analytic":
        _require(not noise_p, "a noisy job yields a mixed state, not "
                 "amplitudes; use sampled mode")
        return Job(job_id, text, postselect=postselect), circuit
    _require(mode == "sampled", f"unknown mode {mode!r}")
    shots = payload.get("shots")
    seed = payload.get("seed")
    # type() is exact: JSON true is a bool, not a count
    _require(type(shots) is int and 1 <= shots <= MAX_SHOTS,
             f"sampled mode needs 1 <= shots <= {MAX_SHOTS}")
    _require(type(seed) is int and seed >= 0,
             "sampled mode needs an integer seed >= 0")
    specs = payload.get("bases")
    if specs is None or specs == []:
        specs = [{"basis": "Z", "qubit": 0}]
    try:
        _require(len(specs) <= MAX_BASES,
                 f"a job takes at most {MAX_BASES} bases")
        bases = tuple((spec["basis"], spec["qubit"]) for spec in specs)
    except (KeyError, TypeError):
        bases = None
    # "" and {} hold no bases, yet are no array to default to Z either
    _require(isinstance(specs, list) and bases is not None,
             "each basis needs basis and qubit")
    _require(all(type(q) is int for _, q in bases),
             "each basis needs an integer qubit")
    _require(all(0 <= q < circuit.n_qubits for _, q in bases),
             "basis qubit outside the circuit")
    _require(all(b in ("Z", "X", "Y") for b, _ in bases),
             "each basis is Z, X or Y")
    return Job(job_id, text, mode, shots, seed, postselect, bases,
               float(noise_p) or None), circuit


def execute_job(payload: dict) -> dict:
    """Run one job payload; returns the response payload (pure function)."""
    try:
        job, circuit = parse_job(payload)
        if job.mode == "analytic":
            state = qsim.run_statevector(circuit)
            success = 1.0
            if job.postselect is not None:
                state, success = qsim.postselect(state, *job.postselect)
            return {
                "id": job.id,
                "amplitudes": [[float(a.real), float(a.imag)]
                               for a in state.amps],
                "success_probability": float(success),
            }
        # Simulate once; each basis rotates that state without noise.
        state = (qsim.run_density(circuit, job.noise_p) if job.noise_p
                 else qsim.run_statevector(circuit))
        results = []
        seeds = qsim.basis_seeds(job.seed, len(job.bases))
        for (basis, qubit), child_seed in zip(job.bases, seeds):
            rotation = circ.basis_change(basis, qubit)
            rotated = functools.reduce(qsim.apply_gate, rotation, state)
            counts = qsim.sample_counts(rotated, job.shots, child_seed)
            kept = counts
            if job.postselect is not None:
                kept = qsim.postselect_counts(counts, *job.postselect)
            results.append({
                "basis": basis,
                "qubit": qubit,
                "counts": dict(sorted(kept.table.items())),
                "raw_shots": counts.shots,
                "kept_shots": kept.shots,
            })
        return {"id": job.id, "results": results}
    except ServerError as exc:
        code, detail = exc.code, exc.detail
    except qsim.ZeroProbabilityError as exc:
        code, detail = "zero_probability", str(exc)
    except (qsim.SimulationError, circ.CircuitError) as exc:
        code, detail = "execution_error", str(exc)
    except MemoryError as exc:
        code, detail = "execution_error", f"out of memory: {exc}"
    error = {"error": code, "detail": detail[:MAX_ECHO_CHARS]}
    job_id = payload.get("id")  # echoed unless parse_job refused it first
    echo = isinstance(job_id, str) and 0 < len(job_id) <= MAX_ECHO_CHARS
    return {"id": job_id, **error} if echo else error


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _encode(payload: dict) -> bytes:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(data)} bytes exceeds the limit")
    return data


def send_frame(sock: socket.socket, payload: dict):
    data = _encode(payload)
    sock.sendall(FRAME_HEADER.pack(len(data)) + data)


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """One frame's payload bytes, or None on a clean EOF."""
    header = _recv_exactly(sock, FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"peer announced an oversized frame ({length})")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return payload


def handle_request(payload_bytes: bytes) -> dict:
    """The response payload for one request frame's bytes."""
    try:
        payload = json.loads(payload_bytes.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("payload must be a JSON object")
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        return {"error": "bad_request", "detail": f"undecodable payload: {exc}"}
    response = execute_job(payload)
    log.info("job id=%.*r mode=%.*r -> %s", MAX_ECHO_CHARS, payload.get("id"),
             MAX_ECHO_CHARS, payload.get("mode"),
             "error" if "error" in response else "ok")
    return response


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        self.request.settimeout(self.server.timeout)
        while True:
            try:
                payload_bytes = recv_frame(self.request)
            except TransportError as exc:
                # frame-level violation: answer, then drop the connection
                # (the stream can no longer be resynchronized)
                try:
                    send_frame(self.request,
                               {"error": "bad_frame", "detail": str(exc)})
                except OSError:
                    pass
                return
            except (socket.timeout, OSError):
                return
            if payload_bytes is None:
                return
            with self.server.job_slots:
                response = handle_request(payload_bytes)
            try:
                send_frame(self.request, response)
            except OSError:
                return


class ExecutionServer(socketserver.ThreadingTCPServer):
    """start() in a background thread, or serve_forever(); a connection idle
    for timeout seconds is dropped."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self.job_slots = threading.BoundedSemaphore(MAX_CONCURRENT_JOBS)
        # a byte on wake ends serve_until_stopped's select, which has no
        # timeout: an idle server never polls, and stops at once
        self.wake, self._woken = socket.socketpair()
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def serve_until_stopped(self):
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._woken, selectors.EVENT_READ)
            while all(key.fileobj is self for key, _ in selector.select()):
                self._handle_request_noblock()

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self.serve_until_stopped, name="qhesolve-server",
            daemon=True)
        self._thread.start()
        return self.address

    def serve_forever(self):
        log.info("serving on %s:%d", *self.address)
        self.serve_until_stopped()

    def shutdown(self):
        self.wake.send(b"\0")
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.server_close()

    def server_close(self):
        super().server_close()
        self.wake.close()
        self._woken.close()

    # BaseServer.__exit__ only closes the socket
    def __enter__(self) -> "ExecutionServer":
        self.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()


def _parse_address(server: tuple[str, int] | str) -> tuple[str, int]:
    if isinstance(server, tuple):
        return server
    host, _, port = server.rpartition(":")
    if not host or not port.isdecimal() or len(port) > 5 or int(port) > 65535:
        raise TransportError(f"bad server address {server!r}; want host:port")
    return host, int(port)


def submit(server: tuple[str, int] | str | None, job: Job,
           timeout: float = DEFAULT_TIMEOUT) -> dict:
    """Synchronous round trip; raises ServerError on an error payload.

    With server None the job runs in-process, with no socket: the same
    frame bytes go through handle_request, as on the server.
    """
    if server is None:
        payload_bytes = _encode(handle_request(_encode(job.to_payload())))
    else:
        address = _parse_address(server)
        try:
            with socket.create_connection(address, timeout=timeout) as sock:
                send_frame(sock, job.to_payload())
                payload_bytes = recv_frame(sock)
        except socket.timeout as exc:
            raise TransportError(f"timeout talking to {address}") from exc
        except OSError as exc:
            raise TransportError(f"cannot reach {address}: {exc}") from exc
        if payload_bytes is None:
            raise TransportError(
                "server closed the connection without replying")
    try:
        response = json.loads(payload_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise TransportError(f"malformed reply: {exc!r}") from None
    if not isinstance(response, dict):
        raise TransportError("the reply is not a JSON object")
    if "error" in response:
        raise ServerError(response["error"], response.get("detail", ""))
    if response.get("id") != job.id:
        raise TransportError(
            f"response id {response.get('id')!r} does not match {job.id!r}")
    return response
