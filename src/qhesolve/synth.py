"""Single-qubit Clifford+T synthesis by exhaustive canonical enumeration.

Every Clifford+T unitary with minimal T-count k factors as
C0 . T . C1 . T ... T . Ck over single-qubit Cliffords, so a layered
breadth-first expansion (seed the 24 Cliffords, then repeatedly left-multiply
by T and close under Cliffords, deduplicating modulo global phase) visits the
exact set of unitaries reachable within a T budget. The same walk over state
vectors yields the set of Bloch points reachable from |0>. Enumeration is
deterministic and replaces sampling: results are the true optima, not
estimates.

Budgets are capped at 8; the cumulative canonical sets are memoized.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import circ
from .qsim import GATE_MATRICES, is_unitary, ry_matrix

MAX_T_BUDGET = 8
_DEDUP_DECIMALS = 9

CLIFFORD_LETTERS = ("h", "s", "sdg", "x", "y", "z")
T_MATRIX = GATE_MATRICES["t"]


class SynthesisError(ValueError):
    pass


@dataclass(frozen=True)
class CliffordTSequence:
    """A gate word over {x, y, z, h, s, sdg, t, tdg}, in application order."""

    gates: tuple[str, ...]

    def __post_init__(self):
        for g in self.gates:
            if g not in GATE_MATRICES:
                raise SynthesisError(f"unknown gate {g!r}")

    @property
    def t_count(self) -> int:
        return sum(1 for g in self.gates if g in ("t", "tdg"))

    def matrix(self) -> np.ndarray:
        u = np.eye(2, dtype=complex)
        for g in self.gates:
            u = GATE_MATRICES[g] @ u
        return u

    def to_circuit(self) -> circ.Circuit:
        return circ.Circuit(1, [circ.Gate(g, (0,)) for g in self.gates])

    def to_gates(self, qubit: int = 0) -> list[circ.Gate]:
        return [circ.Gate(g, (qubit,)) for g in self.gates]


@dataclass(frozen=True)
class SynthResult:
    sequence: CliffordTSequence
    unitary: np.ndarray
    similarity: float
    target: np.ndarray


@dataclass(frozen=True)
class CoverageSet:
    """Bloch points of every state C0 T C1 T ... T Ck |0> with k <= t_budget."""

    t_budget: int
    points: tuple[tuple[float, float, float], ...]


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant closeness |Tr(u^dag v)| / 2 of two unitaries."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (2, 2) or v.shape != (2, 2):
        raise SynthesisError("similarity is defined for 2x2 unitaries")
    if not is_unitary(u) or not is_unitary(v):
        raise SynthesisError("similarity arguments must be unitary")
    return abs(np.trace(u.conj().T @ v)) / 2.0


def _canonical_key(u: np.ndarray) -> tuple:
    # Rotate the first non-negligible entry (row-major) to be real positive,
    # then round; global phase is unobservable.
    flat = u.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-7))
    phase = flat[idx] / abs(flat[idx])
    canonical = u * np.conj(phase)
    return tuple(np.round(canonical.reshape(-1).view(float), _DEDUP_DECIMALS))


def _state_key(v: np.ndarray) -> tuple:
    cross = np.conj(v[0]) * v[1]
    point = (2.0 * cross.real, 2.0 * cross.imag,
             abs(v[0]) ** 2 - abs(v[1]) ** 2)
    return tuple(np.round(point, _DEDUP_DECIMALS))


def _word_order(word: tuple[str, ...]) -> tuple:
    return (len(word), word)


@functools.lru_cache(maxsize=1)
def clifford_words() -> tuple[tuple[str, ...], ...]:
    """The 24 single-qubit Cliffords as shortest (then lexicographic) words."""
    found = {_canonical_key(np.eye(2, dtype=complex)): ()}
    frontier = [()]
    while frontier:
        grown = []
        for word in sorted(frontier, key=_word_order):
            base = CliffordTSequence(word).matrix()
            for letter in CLIFFORD_LETTERS:
                key = _canonical_key(GATE_MATRICES[letter] @ base)
                if key not in found:
                    found[key] = word + (letter,)
                    grown.append(word + (letter,))
        frontier = grown
    return tuple(sorted(found.values(), key=_word_order))


@dataclass(frozen=True)
class _Entry:
    word: tuple[str, ...]
    matrix: np.ndarray
    t_count: int


@functools.lru_cache(maxsize=MAX_T_BUDGET + 1)
def enumerate_unitaries(t_budget: int) -> tuple[_Entry, ...]:
    """All canonical Clifford+T unitaries with minimal T-count <= t_budget.

    Each carries the first word found under the deterministic expansion
    order (shortest Clifford words, ties broken lexicographically).
    """
    if t_budget < 0 or t_budget > MAX_T_BUDGET:
        raise SynthesisError(f"t budget must be within 0..{MAX_T_BUDGET}")
    words = clifford_words()
    mats = [CliffordTSequence(w).matrix() for w in words]

    best: dict[tuple, _Entry] = {}
    layer: dict[tuple, _Entry] = {}
    for word, mat in zip(words, mats):
        key = _canonical_key(mat)
        entry = _Entry(word, mat, 0)
        if key not in best or _word_order(word) < _word_order(best[key].word):
            best[key] = entry
    layer = dict(best)
    for t_count in range(1, t_budget + 1):
        grown: dict[tuple, _Entry] = {}
        for _, entry in sorted(layer.items()):
            after_t = T_MATRIX @ entry.matrix
            word_t = entry.word + ("t",)
            for cword, cmat in zip(words, mats):
                key = _canonical_key(cmat @ after_t)
                if key in best:
                    continue
                word = word_t + cword
                if key not in grown or _word_order(word) < _word_order(grown[key].word):
                    grown[key] = _Entry(word, cmat @ after_t, t_count)
        best.update(grown)
        layer = grown
    return tuple(best.values())


@functools.lru_cache(maxsize=MAX_T_BUDGET + 1)
def enumerate_states(t_budget: int) -> CoverageSet:
    """Bloch points reachable from |0> within the T budget (exact set)."""
    if t_budget < 0 or t_budget > MAX_T_BUDGET:
        raise SynthesisError(f"t budget must be within 0..{MAX_T_BUDGET}")
    words = clifford_words()
    mats = [CliffordTSequence(w).matrix() for w in words]
    zero = np.array([1.0, 0.0], dtype=complex)

    seen: dict[tuple, np.ndarray] = {}
    layer: list[np.ndarray] = []
    for mat in mats:
        vec = mat @ zero
        key = _state_key(vec)
        if key not in seen:
            seen[key] = vec
            layer.append(vec)
    for _ in range(t_budget):
        grown = []
        for vec in layer:
            after_t = T_MATRIX @ vec
            for mat in mats:
                new = mat @ after_t
                key = _state_key(new)
                if key not in seen:
                    seen[key] = new
                    grown.append(new)
        layer = grown
    points = []
    for vec in seen.values():
        cross = np.conj(vec[0]) * vec[1]
        points.append((float(2.0 * cross.real), float(2.0 * cross.imag),
                       float(abs(vec[0]) ** 2 - abs(vec[1]) ** 2)))
    return CoverageSet(t_budget, tuple(sorted(points)))


def approximate_unitary(target: np.ndarray, t_budget: int) -> SynthResult:
    """Best Clifford+T approximation of `target` within the T budget.

    Maximizes the similarity over the enumerated canonical forms; ties are
    broken by lower T-count, then shorter sequence, then lexicographic gate
    order, so the result is deterministic.
    """
    target = np.asarray(target, dtype=complex)
    if not is_unitary(target):
        raise SynthesisError("target must be unitary")
    entries = enumerate_unitaries(t_budget)
    target_dag = target.conj().T
    best_entry = None
    best_sim = -1.0
    for entry in entries:
        sim = abs(np.trace(target_dag @ entry.matrix)) / 2.0
        if sim > best_sim + 1e-12:
            best_sim, best_entry = sim, entry
        elif sim > best_sim - 1e-12:
            if ((entry.t_count, len(entry.word), entry.word)
                    < (best_entry.t_count, len(best_entry.word), best_entry.word)):
                best_entry = entry
                best_sim = max(best_sim, sim)
    sequence = CliffordTSequence(best_entry.word)
    return SynthResult(sequence=sequence, unitary=best_entry.matrix,
                       similarity=float(best_sim), target=target)


def substitute_clifford_t(circuit: circ.Circuit, t_budget: int
                          ) -> tuple[circ.Circuit, dict[float, CliffordTSequence]]:
    """Replace every ry with its best Clifford+T word within the T budget.

    Returns the rewritten circuit and the word chosen for each ry angle.
    """
    chosen = {angle: approximate_unitary(ry_matrix(angle), t_budget).sequence
              for angle in circuit.ry_angles()}
    gates = {angle: seq.to_gates(0) for angle, seq in chosen.items()}
    return circ.substitute_ry(circuit, gates), chosen


def tied_maximizers(target: np.ndarray, t_budget: int,
                    tol: float = 1e-9) -> list[SynthResult]:
    """Every canonical form whose similarity ties the budget's maximum."""
    target = np.asarray(target, dtype=complex)
    if not is_unitary(target):
        raise SynthesisError("target must be unitary")
    entries = enumerate_unitaries(t_budget)
    target_dag = target.conj().T
    sims = [abs(np.trace(target_dag @ e.matrix)) / 2.0 for e in entries]
    top = max(sims)
    tied = [SynthResult(CliffordTSequence(e.word), e.matrix, float(s), target)
            for e, s in zip(entries, sims) if s >= top - tol]
    tied.sort(key=lambda r: (r.sequence.t_count, len(r.sequence.gates),
                             r.sequence.gates))
    return tied


def closest_state(target_state: np.ndarray,
                  coverage: CoverageSet) -> tuple[float, float, float]:
    """The coverage point nearest (in Bloch distance) to a target state."""
    cross = np.conj(target_state[0]) * target_state[1]
    want = np.array([2.0 * cross.real, 2.0 * cross.imag,
                     abs(target_state[0]) ** 2 - abs(target_state[1]) ** 2])
    pts = np.asarray(coverage.points)
    if pts.size == 0:
        raise SynthesisError("empty coverage set")
    best = int(np.argmin(np.linalg.norm(pts - want, axis=1)))
    return tuple(float(c) for c in pts[best])


def export_bloch_csv(coverage: CoverageSet,
                     marked: Sequence[tuple[str, Iterable[float]]] = ()) -> str:
    """CSV of coverage points plus tagged marks; 12 significant digits.

    `marked` entries are (tag, (x, y, z)) with tag in {target, approx}.
    """
    def fmt(v: float) -> str:
        return f"{v:.12g}"

    lines = ["x,y,z,tag"]
    for px, py, pz in coverage.points:
        lines.append(f"{fmt(px)},{fmt(py)},{fmt(pz)},reachable")
    for tag, point in marked:
        if tag not in ("target", "approx"):
            raise SynthesisError(f"unknown mark tag {tag!r}")
        px, py, pz = point
        lines.append(f"{fmt(px)},{fmt(py)},{fmt(pz)},{tag}")
    return "\n".join(lines) + "\n"
