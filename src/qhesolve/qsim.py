"""Dense statevector simulation with sampling, post-selection, and tomography.

Conventions, fixed across the package:
  - qubit 0 is the leftmost bitstring character, i.e. the most significant
    index bit of the amplitude array;
  - all randomness flows through numpy's default_rng (PCG64), seeded
    explicitly, so sampled results are stable across runs and releases;
  - operations are pure: they return new values and never mutate inputs.

Every kernel views the qubit at index bit p of a (2^n, ...) array as
(2^p, 2, rest) and applies a cx as one take() with a cached read-only row
permutation (under 1.5 MB for all pairs up to 10 qubits). _evolve fuses each
run of single-qubit gates on a qubit, up to a cx on it, into one 2x2 GEMM on a
(2^n,) or (2^n, k) statevector array. It keeps the index bits in whatever
order its steps leave them: a 2x2 step copies its qubit to the front (no copy
if it is there) and keeps the GEMM's product as it comes, and one transpose at
the end restores qubit order. A (2^n, 2^n) density matrix stays in qubit order
and takes gate, then noise, in turn. Within one call each distinct run prefix
is multiplied once, in the same left-fold order, so a run that repeats costs
dict lookups and its product is bit-identical.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .circ import Circuit, Gate

log = logging.getLogger(__name__)

# _fused's memo of run prefixes stops growing here (~400 bytes an entry); a
# step that finds no entry is multiplied as if new
MAX_MEMO_ENTRIES = 4096

_SQ2 = 1.0 / math.sqrt(2.0)
GATE_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


class SimulationError(ValueError):
    pass


class ZeroProbabilityError(SimulationError):
    """Post-selection on a branch whose Born probability vanishes."""


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a single-qubit gate."""
    if gate.kind == "ry":
        return ry_matrix(gate.angle)
    return GATE_MATRICES[gate.kind]


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes of n_qubits qubits (length 2**n)."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2 ** self.n_qubits,):
            raise SimulationError(
                f"expected {2 ** self.n_qubits} amplitudes, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:  # also refuses a nan amplitude
            raise SimulationError(f"state norm {norm} is not 1")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=complex)
        n = int(round(math.log2(len(amps))))
        if 2 ** n != len(amps):
            raise SimulationError("amplitude count must be a power of two")
        return cls(n, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state as a (2^n, 2^n) matrix, indexed like StateVector.amps."""

    n_qubits: int
    matrix: np.ndarray

    def probabilities(self) -> np.ndarray:
        # clip: rounding can leave -1e-18
        return np.diagonal(self.matrix).real.clip(0.0)


@dataclass(frozen=True)
class Counts:
    """Sampled measurement table: bitstring -> count, totalling `shots`."""

    shots: int
    table: dict[str, int]

    def __post_init__(self):
        lengths = {len(k) for k in self.table}
        if len(lengths) > 1:
            raise SimulationError("inconsistent bitstring lengths")
        for key, count in self.table.items():
            if set(key) - {"0", "1"}:
                raise SimulationError(f"bad bitstring {key!r}")
            if count < 0:
                raise SimulationError("negative count")
        if sum(self.table.values()) != self.shots:
            raise SimulationError("counts do not sum to shots")

    @property
    def n_qubits(self) -> int:
        if not self.table:
            raise SimulationError("empty counts have no qubit count")
        return len(next(iter(self.table)))


@dataclass(frozen=True)
class PauliExpectations:
    """Single-qubit Z/X/Y expectations with their standard errors.

    shots_per_basis is 0 in analytic mode, where the sigmas are exactly 0.
    """

    z: float
    x: float
    y: float
    sigma_z: float = 0.0
    sigma_x: float = 0.0
    sigma_y: float = 0.0
    shots_per_basis: int = 0


def _check_qubit(n_qubits: int, qubit: int):
    if not 0 <= qubit < n_qubits:
        raise SimulationError(f"qubit {qubit} out of range for {n_qubits} qubits")


def _fused(gates):
    """(control, target) per cx; (qubit, 2x2 product) per run up to a cx on it.

    Each open run is a prefix (id, product), id 0 being the empty run.
    (prefix id, kind, angle bits) names the next prefix, so a run that
    repeats, on any qubit, is dict lookups; angle.hex() keeps ry(-0.0) apart
    from ry(0.0), whose products differ in the sign of a zero. Past
    MAX_MEMO_ENTRIES a new prefix is not stored and gets id cap + 1, which no
    stored key holds.
    """
    runs: dict[int, tuple[int, np.ndarray]] = {}
    steps: dict[tuple, tuple[int, np.ndarray]] = {}
    for gate in gates:
        kind, qubits, angle = gate.kind, gate.qubits, gate.angle
        if kind == "cx":
            for q in qubits:
                if q in runs:
                    yield q, runs.pop(q)[1]
            yield qubits
            continue
        q = qubits[0]
        prefix, u = runs.get(q, (0, None))
        key = (prefix, kind, None if angle is None else float(angle).hex())
        step = steps.get(key)
        if step is None:
            v = gate_matrix(gate)
            step = (len(steps) + 1, v if u is None else v @ u)
            if len(steps) < MAX_MEMO_ENTRIES:
                steps[key] = step
        runs[q] = step
    for q, (_, u) in runs.items():
        yield q, u


@functools.cache
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """Row permutation of a cx on n index bits, its control and target given
    as bit positions (0 the most significant); read-only, 8 * 2^n bytes."""
    rows = np.arange(1 << n)
    perm = rows ^ (((rows >> (n - 1 - control)) & 1) << (n - 1 - target))
    perm.flags.writeable = False
    return perm


def _evolve(amps: np.ndarray, n: int, gates) -> np.ndarray:
    """The gates applied to a (2^n,) state or each column of a (2^n, k) array.

    order[p] is the qubit at index bit p (0 the most significant). A 2x2
    step on it multiplies (2, 2^p * rest), which moves it to bit 0.
    """
    shape, order = amps.shape, list(range(n))
    for q, op in _fused(gates):
        if isinstance(op, np.ndarray):
            p = order.index(q)
            rows = amps.reshape(1 << p, 2, -1).swapaxes(0, 1).reshape(2, -1)
            amps = (op @ rows).reshape(shape)
            order.insert(0, order.pop(p))
        else:
            amps = amps.take(_cnot_perm(n, order.index(q), order.index(op)),
                             axis=0)
    axes = [order.index(q) for q in range(n)] + [n]  # a copy unless in order
    return amps.reshape((2,) * n + (-1,)).transpose(axes).reshape(shape)


def _conjugate(rho: np.ndarray, n: int, gate: Gate) -> np.ndarray:
    """A fresh U rho U^dag: U on the rows, conj(U) on the columns."""
    if gate.kind == "cx":
        perm = _cnot_perm(n, gate.control, gate.target)
        return rho.take(perm, 0).take(perm, 1)
    u, q, rest = gate_matrix(gate), gate.qubit, 1 << (n - 1 - gate.qubit)
    rho = (u @ rho.reshape(1 << q, 2, -1)).reshape(rho.shape)
    if rest > 32:
        return (u.conj() @ rho.reshape(-1, 2, rest)).reshape(rho.shape)
    # runs of <= 32 columns: one GEMM by U^dag (x) I_rest beats a 2x2 one per run
    right = (u.conj().T[:, None, :, None] * np.eye(rest)[:, None]).reshape(2 * rest, -1)
    return (rho.reshape(-1, 2 * rest) @ right).reshape(rho.shape)


def apply_gate(state: StateVector | DensityMatrix, gate: Gate):
    """Apply one gate (U rho U^dag to a density matrix); indices are checked,
    the norm (trace) is preserved."""
    for q in gate.qubits:
        _check_qubit(state.n_qubits, q)
    if isinstance(state, DensityMatrix):
        return DensityMatrix(state.n_qubits, _conjugate(
            state.matrix, state.n_qubits, gate))
    return StateVector(state.n_qubits, _evolve(state.amps, state.n_qubits, [gate]))


def run_statevector(circuit: Circuit) -> StateVector:
    """Apply the circuit's gates in order to |0...0>."""
    n = circuit.n_qubits
    return StateVector(n, _evolve(StateVector.zero(n).amps, n, circuit.gates))


def run_density(circuit: Circuit, noise_p: float) -> DensityMatrix:
    """|0...0><0...0| through the circuit; after each gate, each qubit q it
    touches goes through the depolarizing channel (1-p) rho + (p/3)(X rho X +
    Y rho Y + Z rho Z) = (1 - 4p/3) rho + (4p/3) I/2 (x) Tr_q rho, p in
    [0, 0.5]: the mean of qserve.apply_depolarizing's trajectories, exactly.
    Cost is O(gates * 4^n) whatever the shot count."""
    n = circuit.n_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    keep, mix = 1.0 - 4.0 * noise_p / 3.0, 2.0 * noise_p / 3.0
    for gate in circuit.gates:
        rho = _conjugate(rho, n, gate)  # fresh, so the channel works in place
        for q in gate.qubits:
            rest = 1 << (n - 1 - q)
            blocks = rho.reshape(1 << q, 2, rest, 1 << q, 2, rest)
            traced = mix * (blocks[:, 0, :, :, 0] + blocks[:, 1, :, :, 1])
            blocks *= keep
            blocks[:, 0, :, :, 0] += traced
            blocks[:, 1, :, :, 1] += traced
    return DensityMatrix(n, rho)


def basis_seeds(seed: int, count: int) -> list[int]:
    """Per-basis child seeds derived deterministically from one job seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def sample_counts(state: StateVector | DensityMatrix, shots: int,
                  seed: int) -> Counts:
    """Draw i.i.d. outcomes from the state's probabilities; seeded.

    The counts of rng.choice(N, shots, p=p): its cdf and its uniforms u, which
    it maps to #{i: cdf[i] <= u}; sorted, count i is #{cdf[i-1] <= u < cdf[i]}.
    """
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    probs = state.probabilities()
    with np.errstate(over="ignore"):
        total = probs.sum()
    # probs are >= 0, so a NaN or inf entry leaves this sum non-finite
    if not 0.0 < total < math.inf:
        raise SimulationError(f"probabilities sum to {total}")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    u = rng.random(shots)
    u.sort()
    counts = np.diff(u.searchsorted(cdf, side="left"), prepend=0).tolist()
    n = state.n_qubits
    table = {format(i, f"0{n}b"): c for i, c in enumerate(counts) if c}
    return Counts(shots, table)


def postselect(state: StateVector, qubit: int, outcome: int) -> tuple[StateVector, float]:
    """Condition on `qubit` reading `outcome`; returns (renormalized state,
    Born probability of that outcome)."""
    _check_qubit(state.n_qubits, qubit)
    amps = state.amps.reshape(1 << qubit, 2, -1)
    kept = np.zeros_like(amps)
    kept[:, outcome] = amps[:, outcome]
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob <= 1e-12:
        raise ZeroProbabilityError(
            f"outcome {outcome} on qubit {qubit} has vanishing probability")
    return StateVector(state.n_qubits, kept.reshape(-1) / math.sqrt(prob)), prob


def postselect_counts(counts: Counts, qubit: int, outcome: int) -> Counts:
    """Keep only shots whose bit at `qubit` equals `outcome`."""
    _check_qubit(counts.n_qubits, qubit)
    table = {k: v for k, v in counts.table.items() if k[qubit] == str(outcome)}
    kept = sum(table.values())
    if kept == 0:
        raise ZeroProbabilityError(
            f"no shots with qubit {qubit} = {outcome} survive post-selection")
    return Counts(kept, table)


def _counts_expectation(counts: Counts, qubit: int) -> tuple[float, float, int]:
    _check_qubit(counts.n_qubits, qubit)
    total = counts.shots
    plus = sum(v for k, v in counts.table.items() if k[qubit] == "0")
    e = (plus - (total - plus)) / total
    sigma = math.sqrt(max(0.0, (1.0 - e * e) / total))
    return e, sigma, total


def pauli_expectations(z_counts: Counts, x_counts: Counts, y_counts: Counts,
                       qubit: int) -> PauliExpectations:
    """Expectations from three basis-rotated runs of the same circuit.

    Each expectation is (N+ - N-)/N on the chosen qubit and each sigma is
    sqrt((1 - e^2)/N), the Poissonian counting error.
    """
    ez, sz, nz = _counts_expectation(z_counts, qubit)
    ex, sx, nx = _counts_expectation(x_counts, qubit)
    ey, sy, ny = _counts_expectation(y_counts, qubit)
    return PauliExpectations(z=ez, x=ex, y=ey, sigma_z=sz, sigma_x=sx,
                             sigma_y=sy, shots_per_basis=min(nz, nx, ny))


def reduced_density(state: StateVector, qubit: int) -> np.ndarray:
    """2x2 reduced density matrix of one qubit."""
    _check_qubit(state.n_qubits, qubit)
    rows = state.amps.reshape(1 << qubit, 2, -1).swapaxes(0, 1).reshape(2, -1)
    return rows @ rows.conj().T


def analytic_expectations(state: StateVector, qubit: int) -> PauliExpectations:
    """Exact Z/X/Y expectations of one qubit; sigmas are 0, shots 0."""
    rho = reduced_density(state, qubit)
    return PauliExpectations(
        z=float((rho[0, 0] - rho[1, 1]).real),
        x=float(2.0 * rho[0, 1].real),
        y=float(-2.0 * rho[0, 1].imag),
    )


def bloch_point(vec) -> tuple[float, float, float]:
    """(x, y, z) Pauli expectations of a normalized 1-qubit pure state."""
    a0, a1 = np.asarray(vec, dtype=complex)
    cross = np.conj(a0) * a1
    return (float(2.0 * cross.real), float(2.0 * cross.imag),
            float(abs(a0) ** 2 - abs(a1) ** 2))


def check_bloch_ball(e: PauliExpectations) -> float:
    """The tomographed |r|^2, or an error if no state can explain it.

    Finite shots bias |r|^2 up by sum(sigma_i^2) and spread it by
    2 sqrt(sum(e_i^2 sigma_i^2)) (delta method); an excess over 1 beyond
    that bias plus five such spreads is inconsistent tomography. Each sigma
    counts as at least 1/N for N shots per basis: when all N shots of a
    basis agree, the plug-in sigma is 0 but the expectation is not exact.
    """
    floor = 1.0 / e.shots_per_basis if e.shots_per_basis else 0.0
    pairs = ((e.x, max(e.sigma_x, floor)), (e.y, max(e.sigma_y, floor)),
             (e.z, max(e.sigma_z, floor)))
    nsq = sum(v * v for v, _ in pairs)
    bias = sum(s * s for _, s in pairs)
    spread = 2.0 * math.sqrt(sum((v * s) ** 2 for v, s in pairs))
    if nsq > 1.0 + max(bias + 5.0 * spread, 1e-9):
        raise SimulationError(
            f"inconsistent tomography: Bloch norm^2 {nsq} exceeds the ball "
            f"beyond 5 sigma")
    return nsq


def fidelity_from_expectations(e: PauliExpectations, ideal) -> float:
    """<ideal| rho_exp |ideal> with rho_exp = (I + xX + yY + zZ)/2.

    A Bloch vector slightly outside the ball (finite-shot fluctuation) is
    rescaled onto it and logged; check_bloch_ball rejects a larger excess.
    """
    ideal = np.asarray(ideal.amps if isinstance(ideal, StateVector) else ideal,
                       dtype=complex)
    x_, y_, z_ = e.x, e.y, e.z
    nsq = check_bloch_ball(e)
    if nsq > 1.0:
        scale = 1.0 / math.sqrt(nsq)
        log.info("clamping super-normalized Bloch vector (norm^2 %.3e) "
                 "onto the ball", nsq)
        x_, y_, z_ = x_ * scale, y_ * scale, z_ * scale
    ix, iy, iz = bloch_point(ideal)
    return 0.5 * (1.0 + x_ * ix + y_ * iy + z_ * iz)
