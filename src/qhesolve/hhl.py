"""Problem setup, circuit construction and the solve pipeline for the 2x2
quantum linear solver. Every solve runs through submit_solve: compile the
circuit, submit one qserve job (in-process when no server is given), decode
the response. Two builders cover the same problem:

  - build_optimized_circuit: the three-qubit shortcut (state, eigenvalue,
    ancilla). Exact mode rotates the ancilla on both eigenvalue branches so
    the post-selected state is proportional to A^-1 |b>; replica mode applies
    the single controlled rotation of the hardware demonstration and is only
    faithful for eigenvector inputs.
  - build_general_circuit: textbook phase estimation with an m-bit eigenvalue
    register, a uniformly controlled ancilla rotation keyed on the register
    value, and the inverse estimation. Restricted to spectra whose
    eigenphases are exactly representable in m bits (see choose_t0).

Both executions hand extract_solution the solution qubit's Z/X/Y
expectations, exact (analytic) or tomographed (sampled). They fix the answer
up to a global sign, resolved against the input direction, which has positive
overlap with A^-1 b for positive-definite systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import circ, qserve, qsim, synth
from .circ import Circuit, Gate
from .qsim import PauliExpectations

STATE_QUBIT = 0
EIGEN_QUBIT = 1
ANCILLA_QUBIT = 2


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class LinearSystem:
    """A x = b with a real symmetric positive-definite 2x2 matrix."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)  # copy: the originals stay writable
        b = np.array(self.b, dtype=float)
        if a.shape != (2, 2) or b.shape != (2,):
            raise SolverError("expected a 2x2 matrix and a 2-vector")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise SolverError("matrix and right-hand side must be finite")
        # every solve divides by ||b||, which underflows to 0 below ~1e-162
        if np.linalg.norm(b) == 0:
            raise SolverError("right-hand side must be nonzero")
        if abs(a[0, 1] - a[1, 0]) > 1e-12:
            raise SolverError("matrix must be symmetric")
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) <= 1e-9:
            raise SolverError("matrix is singular")
        if a[0, 0] <= 0 or det <= 0:
            raise SolverError("matrix must be positive definite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class EigenDecomp:
    """A = r^T diag(lambdas) r; rows of r are the eigenvectors."""

    lambdas: tuple[float, float]
    r: np.ndarray

    @property
    def lambda1(self) -> float:
        return self.lambdas[0]

    @property
    def lambda2(self) -> float:
        return self.lambdas[1]

    @property
    def lambda_min(self) -> float:
        return min(abs(self.lambda1), abs(self.lambda2))


@dataclass
class SolverConfig:
    """Knobs for the quantum pipelines.

    c_constant is the inversion constant (amplitudes c/lambda_i); None means
    the largest valid value, lambda_min. theta_override forces the replica
    rotation angle. star_center and rs_t_budget, when set, legalize the
    compiled circuit for a star topology and substitute every ry with a
    Clifford+T approximation of that T budget.
    """

    mode: str = "exact"
    c_constant: float | None = None
    theta_override: float | None = None
    eigen_register_bits: int = 3
    execution: str = "analytic"
    shots: int = 8192
    seed: int = 0
    star_center: int | None = None
    rs_t_budget: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "replica"):
            raise SolverError(f"unknown mode {self.mode!r}")
        if self.execution not in ("analytic", "sampled"):
            raise SolverError(f"unknown execution {self.execution!r}")
        if self.execution == "sampled" and self.shots < 1:
            raise SolverError("sampled execution needs shots >= 1")


@dataclass
class SolutionReport:
    """Post-selected solve outcome with scale recovery and quality metrics.

    solution = scale * normalized_solution for reports straight out of
    extract_solution; after client-side decryption, solution holds the
    unmasked answer and masked_solution keeps the pre-decryption vector.
    """

    normalized_solution: np.ndarray
    success_probability: float
    scale: float
    solution: np.ndarray
    expectations: PauliExpectations
    fidelity_vs_ideal: float
    relative_error: float
    masked_solution: np.ndarray | None = None

    def as_records(self) -> list[tuple[str, float]]:
        items = [
            ("success_probability", self.success_probability),
            ("scale", self.scale),
            ("normalized_solution_1", float(self.normalized_solution[0])),
            ("normalized_solution_2", float(self.normalized_solution[1])),
            ("solution_1", float(self.solution[0])),
            ("solution_2", float(self.solution[1])),
            ("expectation_z", self.expectations.z),
            ("expectation_x", self.expectations.x),
            ("expectation_y", self.expectations.y),
            ("sigma_z", self.expectations.sigma_z),
            ("sigma_x", self.expectations.sigma_x),
            ("sigma_y", self.expectations.sigma_y),
            ("shots_per_basis", float(self.expectations.shots_per_basis)),
        ]
        if self.masked_solution is not None:
            items.append(("masked_solution_1", float(self.masked_solution[0])))
            items.append(("masked_solution_2", float(self.masked_solution[1])))
        return items + [("fidelity_vs_ideal", self.fidelity_vs_ideal),
                        ("relative_error", self.relative_error)]


def report_to_text(report: SolutionReport) -> str:
    """Flat key=value record, 12 significant digits per value."""
    return "\n".join(f"{k}={v:.12g}" for k, v in report.as_records()) + "\n"


def classical_solve(system: LinearSystem) -> np.ndarray:
    """Closed-form 2x2 inversion; the oracle every quantum result is held to."""
    a, b = system.a, system.b
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    return inv @ b


def eigendecompose(a: np.ndarray) -> EigenDecomp:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    Eigenvalues are ordered by descending magnitude, stably; each
    eigenvector's first nonzero component is positive, so r is deterministic.
    For matrices of the form [[p, q], [q, p]] r is the Hadamard matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2) or abs(a[0, 1] - a[1, 0]) > 1e-12:
        raise SolverError("matrix must be 2x2 symmetric")
    p, q, c = a[0, 0], a[0, 1], a[1, 1]
    if abs(q) < 1e-14:
        lam = (p, c)
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    else:
        mean = 0.5 * (p + c)
        disc = math.hypot(0.5 * (p - c), q)
        lam = (mean + disc, mean - disc)
        v1 = np.array([q, lam[0] - p])
        v1 = v1 / np.linalg.norm(v1)
        vecs = [v1, np.array([-v1[1], v1[0]])]
    order = sorted((0, 1), key=lambda i: -abs(lam[i]))
    lam = (float(lam[order[0]]), float(lam[order[1]]))
    vecs = [vecs[order[0]], vecs[order[1]]]
    rows = []
    for v in vecs:
        lead = v[0] if abs(v[0]) > 1e-12 else v[1]
        rows.append(v if lead > 0 else -v)
    return EigenDecomp(lam, np.array(rows))


def rotation_angle_exact(lam: float, c: float) -> float:
    """Angle theta with Ry(theta)|0> = sqrt(1 - c^2/lam^2)|0> + (c/lam)|1>."""
    if not 0 < c <= lam:
        raise SolverError(f"need 0 < c <= lambda, got c={c}, lambda={lam}")
    return 2.0 * math.asin(c / lam)


def rotation_angle_replica(eig: EigenDecomp,
                           override: float | None = None) -> float:
    """The replica rotation angle: the override if given, else the
    eigenvalue-ratio formula -2*arccos(lambda_small/lambda_large)."""
    if override is not None:
        return float(override)
    small, large = sorted((abs(eig.lambda1), abs(eig.lambda2)))
    ratio = min(1.0, max(-1.0, small / large))
    return -2.0 * math.acos(ratio)


def prepare_b(b_unit: np.ndarray) -> list[Gate]:
    """State preparation of a real unit 2-vector: a single ry."""
    b_unit = np.asarray(b_unit, dtype=float)
    if abs(np.linalg.norm(b_unit) - 1.0) > 1e-9:
        raise SolverError("b must be a unit vector")
    return [circ.ry(2.0 * math.atan2(b_unit[1], b_unit[0]), STATE_QUBIT)]


def _rotation_gates(r: np.ndarray, qubit: int) -> list[Gate]:
    """Gates applying a real orthogonal 2x2 matrix: ry, or z then ry."""
    det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    theta = 2.0 * math.atan2(r[1, 0], r[0, 0])
    if det > 0:
        return [circ.ry(theta, qubit)]
    return [circ.z(qubit), circ.ry(theta, qubit)]


def rz_gates(angle: float, qubit: int) -> list[Gate]:
    """Exact Rz(angle) from the available set: conjugate ry by H S H."""
    return [circ.h(qubit), circ.sdg(qubit), circ.h(qubit),
            circ.ry(angle, qubit),
            circ.h(qubit), circ.s(qubit), circ.h(qubit)]


def crz_gates(angle: float, control: int, target: int) -> list[Gate]:
    """Controlled-Rz(angle) = diag(1, 1, e^{-ia/2}, e^{ia/2})."""
    half = angle / 2.0
    return (rz_gates(half, target) + [circ.cx(control, target)]
            + rz_gates(-half, target) + [circ.cx(control, target)])


def cphase_gates(angle: float, control: int, target: int) -> list[Gate]:
    """Controlled phase diag(1, 1, 1, e^{ia}), up to global phase."""
    return crz_gates(angle, control, target) + rz_gates(angle / 2.0, control)


def qft_gates(qubits: list[int]) -> list[Gate]:
    """Fourier transform on a register whose first qubit is the high bit."""
    gates: list[Gate] = []
    m = len(qubits)
    for i, q in enumerate(qubits):
        gates.append(circ.h(q))
        for d, q2 in enumerate(qubits[i + 1:], start=2):
            gates.extend(cphase_gates(2.0 * math.pi / 2 ** d, q2, q))
    for i in range(m // 2):
        a, b = qubits[i], qubits[m - 1 - i]
        gates.extend([circ.cx(a, b), circ.cx(b, a), circ.cx(a, b)])
    return gates


def uniformly_controlled_ry(controls: list[int], target: int,
                            angles: np.ndarray) -> list[Gate]:
    """Ry(angles[k]) on `target` for each control-register value k.

    k is read with controls[0] as the high bit. The recursive CNOT/ry ladder
    is exact and stays inside the supported gate set.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (2 ** len(controls),):
        raise SolverError("need one angle per control value")
    if not controls:
        return [circ.ry(float(angles[0]), target)]
    half = len(angles) // 2
    low, high = angles[:half], angles[half:]
    first = uniformly_controlled_ry(controls[1:], target, (low + high) / 2.0)
    second = uniformly_controlled_ry(controls[1:], target, (low - high) / 2.0)
    return (first + [circ.cx(controls[0], target)]
            + second + [circ.cx(controls[0], target)])


def resolve_c(eig: EigenDecomp, config: SolverConfig) -> float:
    """The inversion constant: config value, or the default lambda_min."""
    c = config.c_constant if config.c_constant is not None else eig.lambda_min
    if not 0 < c <= eig.lambda_min + 1e-12:
        raise SolverError(
            f"c must satisfy 0 < c <= lambda_min ({eig.lambda_min}), got {c}")
    return float(min(c, eig.lambda_min))


def _populated_branch(eig: EigenDecomp, b_unit: np.ndarray) -> int:
    beta = eig.r @ np.asarray(b_unit, dtype=float)
    return 0 if abs(beta[0]) >= abs(beta[1]) else 1


def build_optimized_circuit(eig: EigenDecomp, b_unit: np.ndarray,
                            config: SolverConfig) -> Circuit:
    """Three-qubit solver circuit: state q0, eigenvalue q1, ancilla q2.

    Exact mode rotates the ancilla by 2*asin(c/lambda_i) on both eigenvalue
    branches (the second rotation is X-conjugated onto the branch with
    eigenvalue bit 0), so post-selecting the ancilla on 1 leaves
    c * sum_i (beta_i / lambda_i) |u_i>, normalized. Replica mode applies the
    single controlled rotation, with the control sense chosen so the populated
    eigenvector branch is the rotated one.
    """
    b_unit = np.asarray(b_unit, dtype=float)
    gates = prepare_b(b_unit) + _rotation_gates(eig.r, STATE_QUBIT)
    gates.append(circ.cx(STATE_QUBIT, EIGEN_QUBIT))
    if config.mode == "exact":
        c = resolve_c(eig, config)
        theta1 = rotation_angle_exact(abs(eig.lambda1), c)
        theta2 = rotation_angle_exact(abs(eig.lambda2), c)
        # eigenvalue bit 1 <-> second eigenvector; bit 0 branch via X conjugation
        branches = [(1, theta2), (0, theta1)]
    else:
        theta = rotation_angle_replica(eig, config.theta_override)
        populated = _populated_branch(eig, b_unit)
        beta = eig.r @ b_unit
        if beta[populated] ** 2 * math.sin(theta / 2.0) ** 2 < 1e-12:
            raise SolverError(
                "replica configuration has vanishing post-selection probability")
        branches = [(populated, theta)]
    for bit, theta in branches:
        flip = [] if bit else [circ.x(EIGEN_QUBIT)]
        gates += flip + circ.decompose_cry(theta, EIGEN_QUBIT, ANCILLA_QUBIT) + flip
    gates.append(circ.cx(STATE_QUBIT, EIGEN_QUBIT))
    gates += circ.invert_gates(_rotation_gates(eig.r, STATE_QUBIT))
    return Circuit(3, gates)


def choose_t0(eig: EigenDecomp, m: int) -> float:
    """Evolution time making both eigenphases exact m-bit register values.

    Returns t0 with lambda_i * t0 / (2 pi) = n_i / 2^m for integers n_i >= 1
    (register readouts are n_i mod 2^m). Errors when the eigenvalue ratio is
    not a small-enough rational, which would leak amplitude in phase
    estimation.
    """
    if m < 1:
        raise SolverError("need at least one register bit")
    lam1, lam2 = eig.lambda1, eig.lambda2
    if lam1 <= 0 or lam2 <= 0:
        raise SolverError("general circuit needs positive eigenvalues")
    ratio = lam1 / lam2
    frac = Fraction(ratio).limit_denominator(2 ** m)
    if abs(ratio - float(frac)) > 1e-9:
        raise SolverError(
            f"eigenvalue ratio {ratio} is not a ratio of integers <= 2^{m}")
    n1, n2 = frac.numerator, frac.denominator
    if n1 > 2 ** m:
        raise SolverError(
            f"eigenphases need registers beyond {m} bits (n1 = {n1})")
    return 2.0 * math.pi * n2 / (2 ** m * lam2)


def _register_values(eig: EigenDecomp, m: int, t0: float) -> tuple[int, int]:
    values = []
    for lam in eig.lambdas:
        phase = lam * t0 / (2.0 * math.pi) * 2 ** m
        n = round(phase)
        if abs(phase - n) > 1e-9:
            raise SolverError(f"eigenphase {phase} is not an exact register value")
        values.append(n % 2 ** m)
    return values[0], values[1]


def _controlled_evolution(eig: EigenDecomp, control: int, tau: float) -> list[Gate]:
    """Controlled e^{i A tau} on the state qubit, up to global phase."""
    a1, a2 = eig.lambda1 * tau, eig.lambda2 * tau
    gates = list(_rotation_gates(eig.r, STATE_QUBIT))
    gates += crz_gates(a2 - a1, control, STATE_QUBIT)
    gates += rz_gates((a1 + a2) / 2.0, control)
    gates += circ.invert_gates(_rotation_gates(eig.r, STATE_QUBIT))
    return gates


def build_general_circuit(system: LinearSystem,
                          config: SolverConfig) -> Circuit:
    """Phase-estimation solver: state q0, m register qubits, ancilla last.

    prepare b; estimate the eigenphases of e^{iAt0} into the register;
    rotate the ancilla by 2*asin(c/lambda_i) keyed on the register value;
    uncompute the estimation. Post-selected output matches the exact-mode
    optimized circuit.
    """
    m = config.eigen_register_bits
    n_qubits = 1 + m + 1
    if n_qubits > qserve.MAX_QUBITS:
        raise SolverError(f"qubit budget exceeded (max {qserve.MAX_QUBITS})")
    eig = eigendecompose(system.a)
    t0 = choose_t0(eig, m)
    n1, n2 = _register_values(eig, m, t0)
    c = resolve_c(eig, config)

    register = list(range(1, 1 + m))
    ancilla = 1 + m
    b_unit = system.b / np.linalg.norm(system.b)

    angles = np.zeros(2 ** m)
    angles[n1] = rotation_angle_exact(eig.lambda1, c)
    if n2 != n1:
        angles[n2] = rotation_angle_exact(eig.lambda2, c)
    elif abs(eig.lambda1 - eig.lambda2) > 1e-9:
        raise SolverError("distinct eigenvalues collide in the register")

    estimation: list[Gate] = []
    for q in register:
        estimation.append(circ.h(q))
    for i, q in enumerate(register):
        power = 2 ** (m - 1 - i)  # register bit weight
        estimation.extend(_controlled_evolution(eig, q, t0 * power))
    estimation.extend(circ.invert_gates(qft_gates(register)))

    gates = (prepare_b(b_unit) + estimation
             + uniformly_controlled_ry(register, ancilla, angles)
             + circ.invert_gates(estimation))
    return Circuit(n_qubits, gates)


def _canonical_sign(vec: np.ndarray, reference: np.ndarray) -> np.ndarray:
    # A^-1 b has positive overlap with b for positive-definite A, which pins
    # the otherwise unobservable global sign.
    if float(np.dot(vec, reference)) < 0:
        return -vec
    return vec


def extract_solution(expectations: PauliExpectations,
                     success_probability: float, b_norm: float, *,
                     c_value: float, b_unit: np.ndarray,
                     ideal: np.ndarray) -> SolutionReport:
    """Rebuild the signed solution and its scale from the solution qubit's
    Pauli expectations, exact (analytic) or tomographed (sampled).

    |a0| and |a1| follow from Z and the relative sign from X, since the
    solution amplitudes are real. The scale follows from the success
    probability: P = c^2 ||A^-1 b_unit||^2, so ||A^-1 b|| = b_norm sqrt(P) / c.
    """
    if success_probability <= 0:
        raise SolverError("zero success probability")
    z = min(1.0, max(-1.0, expectations.z))
    a0 = math.sqrt((1.0 + z) / 2.0)
    a1 = math.sqrt((1.0 - z) / 2.0)
    if expectations.x < 0:
        a1 = -a1
    normalized = _canonical_sign(np.array([a0, a1]), b_unit)
    scale = b_norm * math.sqrt(success_probability) / c_value
    solution = scale * normalized

    ideal_norm = np.linalg.norm(ideal)
    return SolutionReport(
        normalized_solution=normalized,
        success_probability=float(success_probability),
        scale=float(scale),
        solution=solution,
        expectations=expectations,
        fidelity_vs_ideal=qsim.fidelity_from_expectations(
            expectations, ideal / ideal_norm),
        relative_error=float(np.linalg.norm(solution - ideal) / ideal_norm),
    )


def compile_solver_circuit(eig: EigenDecomp, b_unit: np.ndarray,
                           config: SolverConfig) -> tuple[Circuit, float]:
    """Build, optionally substitute ry gates, and legalize the solver circuit.

    Returns the compiled circuit and the calibrated inversion constant that
    relates sqrt(success probability) to the solution norm. In replica mode
    that constant comes from the ancilla rotation actually compiled (including
    any Clifford+T substitution), keeping the scale recovery consistent with
    the submitted circuit.
    """
    circuit = build_optimized_circuit(eig, b_unit, config)
    chosen: dict[float, synth.CliffordTSequence] = {}
    if config.rs_t_budget is not None:
        circuit, chosen = synth.substitute_clifford_t(circuit,
                                                      config.rs_t_budget)

    if config.mode == "exact":
        c_value = resolve_c(eig, config)
    else:
        theta = rotation_angle_replica(eig, config.theta_override)
        populated = _populated_branch(eig, b_unit)
        lam_pop = abs(eig.lambdas[populated])
        branch = _branch_unitary(theta, chosen)
        c_value = lam_pop * abs(branch[1, 0])
        if c_value <= 1e-9:
            raise SolverError("replica rotation leaves no ancilla amplitude")

    if config.star_center is not None:
        circuit = circ.legalize_star(circuit, config.star_center)
    return circuit, c_value


def _branch_unitary(theta: float, chosen: dict[float, synth.CliffordTSequence]
                    ) -> np.ndarray:
    """Ancilla rotation on the control-1 branch of the compiled replica CRY."""
    def mat(angle: float) -> np.ndarray:
        for key, seq in chosen.items():
            if abs(key - angle) <= circ.ANGLE_MATCH_TOL:
                return seq.matrix()
        return qsim.ry_matrix(angle)

    x = qsim.GATE_MATRICES["x"]
    return x @ mat(-theta / 2.0) @ x @ mat(theta / 2.0)


def submit_solve(system: LinearSystem, config: SolverConfig,
                 server: tuple[str, int] | str | None = None
                 ) -> SolutionReport:
    """The one solve pipeline: compile, submit one job, decode the response.

    The job carries only the compiled circuit; ||b|| stays here for scale
    recovery. With no server it runs in-process through the server's own
    request handling.
    """
    eig = eigendecompose(system.a)
    b_norm = float(np.linalg.norm(system.b))
    b_unit = system.b / b_norm
    circuit, c_value = compile_solver_circuit(eig, b_unit, config)
    sampled = config.execution == "sampled"
    job = qserve.Job(
        id=f"solve-{config.mode}-{config.execution}",
        circuit=circ.emit_text(circuit),
        mode=config.execution,
        shots=config.shots if sampled else None,
        seed=config.seed if sampled else None,
        postselect=(ANCILLA_QUBIT, 1),
        bases=tuple((b, STATE_QUBIT) for b in "ZXY") if sampled else (),
    )
    response = qserve.submit(server, job)

    try:  # the server is untrusted, so its reply may have any shape
        if sampled:
            results = response["results"]
            tables = {r["basis"]: qsim.Counts(r["kept_shots"], r["counts"])
                      for r in results}
            expectations = qsim.pauli_expectations(tables["Z"], tables["X"],
                                                   tables["Y"], STATE_QUBIT)
            prob = (sum(item["kept_shots"] for item in results)
                    / sum(item["raw_shots"] for item in results))
        else:
            state = qsim.StateVector.from_amplitudes(
                [complex(re, im) for re, im in response["amplitudes"]])
            expectations = qsim.analytic_expectations(state, STATE_QUBIT)
            prob = float(response["success_probability"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise qserve.TransportError(f"malformed reply: {exc!r}") from None
    return extract_solution(expectations, prob, b_norm, c_value=c_value,
                            b_unit=b_unit, ideal=classical_solve(system))
