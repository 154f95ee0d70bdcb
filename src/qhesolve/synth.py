"""Single-qubit Clifford+T synthesis by exhaustive canonical enumeration.

Every Clifford+T unitary with minimal T-count k factors as
C0 . T . C1 . T ... T . Ck over single-qubit Cliffords. One table holds
every such unitary up to global phase, grown one T-layer at a time and only
as far as the largest budget asked for (at most 8). Each unitary is keyed
exactly by its SO(3) image, whose entries are (a + b sqrt2) / sqrt2^k with
small integers a, b; its T-count is the least such k (Kliuchnikov, Maslov &
Mosca, arXiv:1206.5236; Gosset et al., arXiv:1308.4134). Layer k+1 is C.T.V
over the layer-k classes V for which T.V does not reduce, keeping for each
new class the least (length, word). A search is one vectorized pass over the
table, so results are the true optima, not estimates. The third columns of
the same keys give the set of Bloch points reachable from |0>.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from . import circ
from .qsim import GATE_MATRICES, bloch_point, is_unitary, ry_matrix

MAX_T_BUDGET = 8

CLIFFORD_LETTERS = ("h", "s", "sdg", "x", "y", "z")
T_MATRIX = GATE_MATRICES["t"]
# Table words take one byte per gate, a..g in the order h < s < sdg < t < x
# < y < z, so byte-string order is the order of the gate tuples.
_LETTERS = ("h", "s", "sdg", "t", "x", "y", "z")
_PAULIS = np.array([GATE_MATRICES[g] for g in ("x", "y", "z")])


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
        return functools.reduce(lambda u, g: GATE_MATRICES[g] @ u, self.gates,
                                np.eye(2, dtype=complex))

    def to_circuit(self) -> circ.Circuit:
        return circ.Circuit(1, self.to_gates())

    def to_gates(self, qubit: int = 0) -> list[circ.Gate]:
        return [circ.Gate(g, (qubit,)) for g in self.gates]


@dataclass(frozen=True)
class SynthResult:
    sequence: CliffordTSequence
    unitary: np.ndarray
    similarity: float


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant closeness |Tr(u^dag v)| / 2 of two unitaries."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (2, 2) or v.shape != (2, 2):
        raise SynthesisError("similarity is defined for 2x2 unitaries")
    if not is_unitary(u) or not is_unitary(v):
        raise SynthesisError("similarity arguments must be unitary")
    return abs(np.trace(u.conj().T @ v)) / 2.0


def _clifford_image(u: np.ndarray) -> np.ndarray:
    """The SO(3) image of a Clifford: a signed permutation, held exactly."""
    image = np.einsum("iab,bc,jcd,da->ij", _PAULIS, u, _PAULIS, u.conj().T)
    return np.rint(image.real / 2.0).astype(np.int8)


@functools.lru_cache(maxsize=1)
def clifford_words() -> tuple[tuple[str, ...], ...]:
    """The 24 single-qubit Cliffords as shortest (then lexicographic) words."""
    found: dict[bytes, tuple[str, ...]] = {}
    for length in itertools.count():
        for word in itertools.product(CLIFFORD_LETTERS, repeat=length):
            image = _clifford_image(CliffordTSequence(word).matrix())
            found.setdefault(image.tobytes(), word)
        if len(found) == 24:
            return tuple(found.values())


@dataclass(frozen=True)
class _Entry:
    word: tuple[str, ...]
    matrix: np.ndarray
    t_count: int


@dataclass(frozen=True, eq=False)
class UnitaryTable:
    """Canonical Clifford+T unitaries in (T-count, length, word) order.

    Row i has the (2, 2) matrix of its word, its T-count k, its word in one
    byte per gate, and its exact SO(3) image (keys[i, 0] + keys[i, 1] sqrt2)
    / sqrt2^k, where k is the least exponent that keeps a and b integers.
    """

    matrices: np.ndarray
    t_counts: np.ndarray
    words: np.ndarray
    keys: np.ndarray

    def __len__(self) -> int:
        return len(self.t_counts)

    def __getitem__(self, i: int) -> _Entry:
        word = tuple(_LETTERS[c - ord("a")] for c in self.words[i])
        return _Entry(word, self.matrices[i], int(self.t_counts[i]))


def _next_layer(layer: UnitaryTable, cliffords: UnitaryTable) -> UnitaryTable:
    """The classes one T above `layer`: C.T.V, least (length, word) each."""
    a, b = layer.keys[:, 0], layer.keys[:, 1]
    # T's image has rows (M0 - M1, M0 + M1, sqrt2 M2) / sqrt2, and
    # sqrt2 (a + b sqrt2) = 2b + a sqrt2.
    after_t = np.stack([np.stack([a[:, 0] - a[:, 1], a[:, 0] + a[:, 1], 2 * b[:, 2]], 1),
                        np.stack([b[:, 0] - b[:, 1], b[:, 0] + b[:, 1], a[:, 2]], 1)], 1)
    # If every a is even, T.V divides by sqrt2: a class of a lower layer.
    parents = np.flatnonzero((after_t[:, 0] % 2).any(axis=(1, 2)))
    keys = np.matmul(cliffords.keys[None, :, None, 0], after_t[parents, None])
    keys = keys.reshape(-1, 18)
    t_code = bytes([ord("a") + _LETTERS.index("t")])
    words = np.char.add(np.char.add(layer.words[parents], t_code)[:, None],
                        cliffords.words).reshape(-1)
    order = np.lexsort((words, np.char.str_len(words)))
    _, first = np.unique(keys[order].view(np.dtype((np.void, 18))).ravel(),
                         return_index=True)
    chosen = order[np.sort(first)]
    parent, clifford = np.divmod(chosen, len(cliffords))
    mats = cliffords.matrices[clifford] @ (T_MATRIX @ layer.matrices[parents[parent]])
    return UnitaryTable(mats, np.full(len(chosen), layer.t_counts[0] + 1),
                        words[chosen], keys[chosen].reshape(-1, 2, 3, 3))


@functools.lru_cache(maxsize=MAX_T_BUDGET + 1)
def _layer(t_count: int) -> UnitaryTable:
    """The classes of minimal T-count `t_count`."""
    if t_count:
        return _next_layer(_layer(t_count - 1), _layer(0))
    words = clifford_words()
    mats = np.array([CliffordTSequence(w).matrix() for w in words])
    keys = np.zeros((len(words), 2, 3, 3), dtype=np.int8)
    keys[:, 0] = [_clifford_image(m) for m in mats]
    codes = [bytes(ord("a") + _LETTERS.index(g) for g in w) for w in words]
    return UnitaryTable(mats, np.zeros(len(words), dtype=int),
                        np.array(codes, dtype="S"), keys)


@functools.lru_cache(maxsize=MAX_T_BUDGET + 1)
def enumerate_unitaries(t_budget: int) -> UnitaryTable:
    """All canonical Clifford+T unitaries with minimal T-count <= t_budget.

    Each carries the least word (shortest, then lexicographic) among those
    the layered expansion reaches.
    """
    if t_budget < 0 or t_budget > MAX_T_BUDGET:
        raise SynthesisError(f"t budget must be within 0..{MAX_T_BUDGET}")
    layers = [_layer(k) for k in range(t_budget + 1)]
    return UnitaryTable(*(np.concatenate([getattr(layer, f.name) for layer in layers])
                          for f in fields(UnitaryTable)))


@functools.lru_cache(maxsize=MAX_T_BUDGET + 1)
def enumerate_states(t_budget: int) -> tuple[tuple[float, float, float], ...]:
    """Sorted Bloch points reachable from |0> within the T budget (exact set).

    U|0> has Bloch point R z, the third column of U's key. Each coordinate is
    reduced to its least k, so equal values give bit-identical floats.
    """
    table = enumerate_unitaries(t_budget)
    a, b = table.keys[..., 2].astype(np.int64).transpose(1, 0, 2)
    k = np.repeat(table.t_counts[:, None], 3, axis=1)
    for _ in range(t_budget):  # a even: (a, b, k) -> (b, a/2, k - 1)
        even = (a % 2 == 0) & (k > 0)
        a, b, k = np.where(even, b, a), np.where(even, a // 2, b), k - even
    exact = np.unique(np.stack([a, b, k], axis=2).reshape(-1, 9), axis=0)
    a, b, k = exact.reshape(-1, 3, 3).transpose(2, 0, 1)
    points = (a + b * np.sqrt(2.0)) * 2.0 ** (-k / 2)  # exact for even k
    return tuple(sorted(map(tuple, points.tolist())))


def approximate_unitary(target: np.ndarray, t_budget: int) -> SynthResult:
    """Best Clifford+T approximation of `target` within the T budget.

    Maximizes the similarity over the enumerated canonical forms; ties
    (within 1e-12) are broken by lower T-count, then shorter sequence, then
    lexicographic gate order, so the result is deterministic.
    """
    tied = tied_maximizers(target, t_budget, tol=1e-12)
    return replace(tied[0], similarity=max(r.similarity for r in tied))


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
    """Every canonical form whose similarity ties the budget's maximum, in
    (T-count, length, word) order."""
    target = np.asarray(target, dtype=complex)
    if not is_unitary(target):
        raise SynthesisError("target must be unitary")
    table = enumerate_unitaries(t_budget)
    target_dag = target.conj().T
    sims = np.abs(np.einsum("ij,nji->n", target_dag, table.matrices)) / 2.0
    # einsum rounds differently: widen, then decide on the reported expression
    near = np.flatnonzero(sims >= sims.max() - tol - 1e-12)
    exact = [abs(np.trace(target_dag @ table.matrices[i])) / 2.0 for i in near]
    top = max(exact)
    return [SynthResult(CliffordTSequence(table[i].word), table.matrices[i],
                        float(s))
            for i, s in zip(near, exact) if s >= top - tol]


def closest_state(target_state: np.ndarray,
                  coverage: Sequence[tuple[float, float, float]]
                  ) -> tuple[float, float, float]:
    """The coverage point nearest (in Bloch distance) to a target state; a
    tie goes to the first in (x, y, z) order, as mirrored points are exact."""
    want = np.array(bloch_point(target_state))
    pts = np.asarray(coverage)
    if pts.size == 0:
        raise SynthesisError("empty coverage set")
    best = int(np.argmin(np.linalg.norm(pts - want, axis=1)))
    return tuple(float(c) for c in pts[best])


def export_bloch_csv(coverage: Sequence[tuple[float, float, float]],
                     marked: Sequence[tuple[str, Iterable[float]]] = ()) -> str:
    """CSV of coverage points plus tagged marks; 12 significant digits.

    `marked` entries are (tag, (x, y, z)) with tag in {target, approx}.
    """
    def fmt(v: float) -> str:
        return f"{v:.12g}"

    lines = ["x,y,z,tag"]
    for px, py, pz in coverage:
        lines.append(f"{fmt(px)},{fmt(py)},{fmt(pz)},reachable")
    for tag, point in marked:
        if tag not in ("target", "approx"):
            raise SynthesisError(f"unknown mark tag {tag!r}")
        px, py, pz = point
        lines.append(f"{fmt(px)},{fmt(py)},{fmt(pz)},{tag}")
    return "\n".join(lines) + "\n"
