"""Circuit IR, textual format, and rewrite passes for star-topology hardware.

The gate set is the platform's: Clifford gates (x, y, z, h, s, sdg, cx) plus
t/tdg, and a reference ry(angle) rotation that the compiler passes eliminate.
Qubit 0 is the leftmost character of every bitstring; all passes are pure
functions returning new circuits.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

SINGLE_QUBIT_KINDS = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
GATE_KINDS = SINGLE_QUBIT_KINDS + ("ry", "cx")

ANGLE_MATCH_TOL = 1e-9


class CircuitError(ValueError):
    """Malformed circuit, gate, or unsupported rewrite input."""


class CircuitSyntaxError(CircuitError):
    """Parse failure; carries 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Gate:
    """One gate application: `kind` over `qubits`, plus `angle` for ry.

    For cx, qubits = (control, target).
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cx":
            if len(self.qubits) != 2:
                raise CircuitError("cx takes exactly two qubits")
            if self.qubits[0] == self.qubits[1]:
                raise CircuitError("cx control and target must differ")
        elif len(self.qubits) != 1:
            raise CircuitError(f"{self.kind} takes exactly one qubit")
        if self.kind == "ry":
            if self.angle is None or not math.isfinite(self.angle):
                raise CircuitError("ry needs a finite angle")
        elif self.angle is not None:
            raise CircuitError(f"{self.kind} takes no angle")
        if any(q < 0 for q in self.qubits):
            raise CircuitError("negative qubit index")

    @property
    def qubit(self) -> int:
        return self.qubits[0]

    @property
    def control(self) -> int:
        return self.qubits[0]

    @property
    def target(self) -> int:
        return self.qubits[1]


def x(q: int) -> Gate:
    return Gate("x", (q,))


def y(q: int) -> Gate:
    return Gate("y", (q,))


def z(q: int) -> Gate:
    return Gate("z", (q,))


def h(q: int) -> Gate:
    return Gate("h", (q,))


def s(q: int) -> Gate:
    return Gate("s", (q,))


def sdg(q: int) -> Gate:
    return Gate("sdg", (q,))


def t(q: int) -> Gate:
    return Gate("t", (q,))


def tdg(q: int) -> Gate:
    return Gate("tdg", (q,))


def ry(angle: float, q: int) -> Gate:
    return Gate("ry", (q,), float(angle))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


_INVERSE_KIND = {"x": "x", "y": "y", "z": "z", "h": "h", "s": "sdg", "sdg": "s",
                 "t": "tdg", "tdg": "t", "cx": "cx"}


def invert_gates(gates: Sequence[Gate]) -> list[Gate]:
    """Inverse of a gate sequence: reversed order, each gate inverted."""
    out = []
    for g in reversed(gates):
        if g.kind == "ry":
            out.append(ry(-g.angle, g.qubit))
        else:
            out.append(Gate(_INVERSE_KIND[g.kind], g.qubits))
    return out


def retarget(gates: Sequence[Gate], qubit: int) -> list[Gate]:
    """Move a single-qubit gate sequence onto `qubit`."""
    out = []
    for g in gates:
        if g.kind == "cx":
            raise CircuitError("cannot retarget a two-qubit gate")
        out.append(Gate(g.kind, (qubit,), g.angle))
    return out


@dataclass
class Circuit:
    """Ordered gate list over n_qubits."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        self.gates = list(self.gates)
        for g in self.gates:
            if any(q >= self.n_qubits for q in g.qubits):
                raise CircuitError(
                    f"gate {g.kind} touches qubit {max(g.qubits)} "
                    f"but circuit has {self.n_qubits} qubits")

    def ry_angles(self) -> list[float]:
        """Distinct ry angles in order of first appearance."""
        seen: list[float] = []
        for g in self.gates:
            if g.kind == "ry" and not any(
                    abs(g.angle - a) <= ANGLE_MATCH_TOL for a in seen):
                seen.append(g.angle)
        return seen


# ---------------------------------------------------------------------------
# Rewrite passes
# ---------------------------------------------------------------------------

def decompose_cry(theta: float, control: int, target: int) -> list[Gate]:
    """Controlled-ry(theta) as two CNOTs and ry(+-theta/2) on the target.

    Gate order is fixed so the control-0 branch composes to identity and the
    control-1 branch to ry(theta); the composed unitary equals
    diag(I, Ry(theta)) in control block order.
    """
    half = theta / 2.0
    return [ry(half, target), cx(control, target),
            ry(-half, target), cx(control, target)]


def reverse_cnot(control: int, target: int) -> list[Gate]:
    """CNOT with flipped direction plus four Hadamards; equals the original."""
    return [h(control), h(target), cx(target, control), h(control), h(target)]


def legalize_star(circuit: Circuit, center: int) -> Circuit:
    """Rewrite every CNOT so its target is the star center qubit.

    CNOTs already targeting the center pass through; CNOTs controlled by the
    center get the Hadamard-reversed form. A CNOT between two leaves is not
    routable on a star without SWAP insertion and is rejected.
    """
    if not 0 <= center < circuit.n_qubits:
        raise CircuitError("star center outside the circuit")
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind != "cx" or g.target == center:
            gates.append(g)
        elif g.control == center:
            gates.extend(reverse_cnot(g.control, g.target))
        else:
            raise CircuitError(
                f"cx q{g.control} q{g.target} joins two leaf qubits; "
                "not routable on a star topology")
    return Circuit(circuit.n_qubits, gates)


def substitute_ry(circuit: Circuit,
                  approximations: Mapping[float, Sequence[Gate]]) -> Circuit:
    """Replace every ry gate with its supplied single-qubit sequence.

    Angles are matched with absolute tolerance 1e-9; a missing angle is an
    error. The sequences are retargeted onto each ry's qubit.
    """
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind != "ry":
            gates.append(g)
            continue
        for angle, seq in approximations.items():
            if abs(g.angle - angle) <= ANGLE_MATCH_TOL:
                gates.extend(retarget(seq, g.qubit))
                break
        else:
            raise CircuitError(
                f"no approximation supplied for ry({g.angle!r})")
    return Circuit(circuit.n_qubits, gates)


def basis_change(basis: str, qubit: int) -> list[Gate]:
    """Pre-measurement rotation mapping the requested Pauli onto Z."""
    if basis == "Z":
        return []
    if basis == "X":
        return [h(qubit)]
    if basis == "Y":
        return [sdg(qubit), h(qubit)]
    raise CircuitError(f"unknown basis {basis!r}; expected Z, X or Y")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#   qubits <n>
#   x|y|z|h|s|sdg|t|tdg q<i>
#   ry(<radians>) q<i>
#   cx q<c> q<t>
# '#' starts a comment; tokens are whitespace separated.

_RY_RE = re.compile(r"^ry\((?P<angle>[^)]*)\)$")


def emit_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        if g.kind == "ry":
            lines.append(f"ry({g.angle!r}) q{g.qubit}")
        elif g.kind == "cx":
            lines.append(f"cx q{g.control} q{g.target}")
        else:
            lines.append(f"{g.kind} q{g.qubit}")
    return "\n".join(lines) + "\n"


def _decimal(token: str) -> int | None:
    # int() refuses superscripts (isdigit() passes them) and 4300+ digits
    try:
        return int(token) if token.isdecimal() else None
    except ValueError:
        return None


def parse_text(source: str) -> Circuit:
    n_qubits = None
    gates: list[Gate] = []
    # lines end at "\n" only, so qserve.MAX_CIRCUIT_LINES is one str.count
    for line_no, raw in enumerate(source.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        # no statement has 4 tokens: a 4th holds the rest of an overlong line
        tokens = line.split(maxsplit=3)
        if not tokens:
            continue
        head = tokens[0]

        def fail(message, i=0):
            # token i's column is found only for the error that names it
            end = 0
            for tok in tokens[:i + 1]:
                start = line.index(tok, end)
                end = start + len(tok)
            raise CircuitSyntaxError(message, line_no, start + 1)

        def need(count):
            if len(tokens) != count:
                fail(f"{head!r} expects {count - 1} argument(s)")

        def qubit(i):
            q = _decimal(tokens[i][1:]) if tokens[i].startswith("q") else None
            if q is None:
                fail(f"expected qubit token, got {tokens[i]!r}", i)
            if q >= n_qubits:
                fail(f"qubit q{q} out of range for {n_qubits} qubits", i)
            return q

        if n_qubits is None:
            if head != "qubits":
                fail("first statement must be 'qubits <n>'")
            need(2)
            n_qubits = _decimal(tokens[1])
            if n_qubits is None or n_qubits < 1:
                fail("qubit count must be a positive integer", 1)
        elif head == "qubits":
            fail("duplicate 'qubits' statement")
        elif head == "cx":
            need(3)
            c, tq = qubit(1), qubit(2)
            if c == tq:
                fail("cx control and target must differ", 2)
            gates.append(cx(c, tq))
        elif m := _RY_RE.match(head):
            need(2)
            try:
                angle = float(m.group("angle"))
            except ValueError:
                fail(f"bad ry angle {m.group('angle')!r}")
            if not math.isfinite(angle):
                fail("ry angle must be finite")
            gates.append(ry(angle, qubit(1)))
        elif head in SINGLE_QUBIT_KINDS:
            need(2)
            gates.append(Gate(head, (qubit(1),)))
        else:
            fail(f"unknown gate name {head!r}")
    if n_qubits is None:
        raise CircuitSyntaxError("empty source; expected 'qubits <n>'", 1, 1)
    return Circuit(n_qubits, gates)
