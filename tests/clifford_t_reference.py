"""The reference enumeration behind `qhesolve/clifford_t.npz`.

`synth` rebuilds its Clifford+T table from the choices in that file: the 24
canonical Clifford words, and for each T-layer k the (row in layer k - 1,
Clifford row) of every class's canonical word, in table order. This module
derives the same choices by search: the shortest-then-lexicographic word of
each Clifford by brute force, and each layer k as C.T.V over the layer-k-1
classes V for which T.V does not reduce, keeping for each exact key the
least (length, word). `tests/test_synth.py` checks the shipped file and the
rebuilt tables against it, bit for bit.

Regenerate the file with:

    PYTHONPATH=src python tests/clifford_t_reference.py
"""
from __future__ import annotations

import functools
import itertools
import pathlib

import numpy as np

from qhesolve import synth
from qhesolve.synth import CliffordTSequence, UnitaryTable

CLIFFORD_LETTERS = ("h", "s", "sdg", "x", "y", "z")
CHOICES_PATH = pathlib.Path(synth.__file__).with_name("clifford_t.npz")


def clifford_words() -> tuple[tuple[str, ...], ...]:
    """The 24 single-qubit Cliffords as shortest (then lexicographic) words."""
    found: dict[bytes, tuple[str, ...]] = {}
    for length in itertools.count():
        for word in itertools.product(CLIFFORD_LETTERS, repeat=length):
            image = synth._clifford_image(CliffordTSequence(word).matrix())
            found.setdefault(image.tobytes(), word)
        if len(found) == 24:
            return tuple(found.values())


def clifford_layer() -> UnitaryTable:
    """Layer 0: the Cliffords, each with its exact SO(3) image."""
    words = clifford_words()
    mats = np.array([CliffordTSequence(w).matrix() for w in words])
    keys = np.zeros((len(words), 2, 3, 3), dtype=np.int8)
    keys[:, 0] = [synth._clifford_image(m) for m in mats]
    codes = [bytes(ord("a") + synth._LETTERS.index(g) for g in w) for w in words]
    return UnitaryTable(mats, np.zeros(len(words), dtype=int),
                        np.array(codes, dtype="S"), keys)


def next_layer(layer: UnitaryTable, cliffords: UnitaryTable
               ) -> tuple[UnitaryTable, np.ndarray]:
    """The classes one T above `layer`, C.T.V with the least (length, word)
    each, and the (row of V in layer, row of C in cliffords) of each."""
    a, b = layer.keys[:, 0], layer.keys[:, 1]
    # T's image has rows (M0 - M1, M0 + M1, sqrt2 M2) / sqrt2, and
    # sqrt2 (a + b sqrt2) = 2b + a sqrt2.
    after_t = np.stack([np.stack([a[:, 0] - a[:, 1], a[:, 0] + a[:, 1], 2 * b[:, 2]], 1),
                        np.stack([b[:, 0] - b[:, 1], b[:, 0] + b[:, 1], a[:, 2]], 1)], 1)
    # If every a is even, T.V divides by sqrt2: a class of a lower layer.
    parents = np.flatnonzero((after_t[:, 0] % 2).any(axis=(1, 2)))
    keys = np.matmul(cliffords.keys[None, :, None, 0], after_t[parents, None])
    keys = keys.reshape(-1, 18)
    t_code = bytes([ord("a") + synth._LETTERS.index("t")])
    words = np.char.add(np.char.add(layer.words[parents], t_code)[:, None],
                        cliffords.words).reshape(-1)
    order = np.lexsort((words, np.char.str_len(words)))
    _, first = np.unique(keys[order].view(np.dtype((np.void, 18))).ravel(),
                         return_index=True)
    chosen = order[np.sort(first)]
    parent, clifford = np.divmod(chosen, len(cliffords))
    mats = cliffords.matrices[clifford] @ (synth.T_MATRIX @ layer.matrices[parents[parent]])
    table = UnitaryTable(mats, np.full(len(chosen), layer.t_counts[0] + 1),
                         words[chosen], keys[chosen].reshape(-1, 2, 3, 3))
    return table, np.stack([parents[parent], clifford], axis=1)


@functools.lru_cache(maxsize=None)
def layers() -> tuple[list[UnitaryTable], list[np.ndarray]]:
    """Layers 0..MAX_T_BUDGET, and the choices of layers 1..MAX_T_BUDGET."""
    tables, pairs = [clifford_layer()], []
    for _ in range(synth.MAX_T_BUDGET):
        table, chosen = next_layer(tables[-1], tables[0])
        tables.append(table)
        pairs.append(chosen)
    return tables, pairs


def choices() -> dict[str, np.ndarray]:
    """The arrays `synth` reads, by name: `cliffords` and `t1`..`t8`."""
    tables, pairs = layers()
    return {"cliffords": tables[0].words,
            **{f"t{k}": p.astype(np.uint16) for k, p in enumerate(pairs, 1)}}


if __name__ == "__main__":
    np.savez(CHOICES_PATH, **choices())
    print(f"wrote {CHOICES_PATH}")
