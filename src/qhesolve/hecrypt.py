"""Client side of the masking protocol.

The client hides the right-hand side of A x = b with a binary key a:
substituting x = y + a gives A y = b', b' = b - A a. The server only ever
sees (A, b') through the submitted circuit; the key never leaves this module.
Results decrypt as x = y + a.

The matrix A stays public by construction, so the key space is the four
2-bit keys; the scheme is reproduced as designed, without hardening.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hhl import (LinearSystem, SolutionReport, SolverConfig, relative_error,
                  submit_solve)


class MaskingError(ValueError):
    pass


@dataclass(frozen=True)
class MaskKey:
    """Private binary mask; one component per unknown."""

    a: tuple[int, ...]

    def __post_init__(self):
        if any(bit not in (0, 1) for bit in self.a):
            raise MaskingError("key components must be 0 or 1")

    def vector(self) -> np.ndarray:
        return np.array(self.a, dtype=float)


def keygen(seed: int) -> MaskKey:
    """Uniform 2-bit key; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return MaskKey(tuple(int(b) for b in rng.integers(0, 2, size=2)))


def encrypt(system: LinearSystem, key: MaskKey) -> LinearSystem:
    """Mask the right-hand side: b' = b - A a, with A untouched. The server
    sees A and only the direction of b', through the circuit."""
    if len(key.a) != 2:
        raise MaskingError("key length must match the system dimension")
    b_prime = system.b - system.a @ key.vector()
    if not b_prime.any():
        raise MaskingError(
            "masked vector vanishes (b equals A a); resample the key")
    return LinearSystem(system.a, b_prime)


def decrypt(result: np.ndarray, key: MaskKey) -> np.ndarray:
    """Unmask a solution vector: x_i = r_i + a_i."""
    return result + key.vector()


def solve_encrypted(system: LinearSystem, key: MaskKey,
                    server: tuple[str, int] | str | None,
                    config: SolverConfig) -> SolutionReport:
    """Full delegated solve: mask, hhl.submit_solve, decrypt.

    Only A and the direction b'/||b'|| reach the job, encoded in the
    circuit. ||b'|| depends on the private b, so it stays with the client
    for scale recovery; server None executes in-process. The returned
    report's solution field holds the decrypted answer; the pre-decryption
    vector stays in masked_solution.
    """
    report = submit_solve(encrypt(system, key), config, server)
    decrypted = decrypt(report.solution, key)
    return replace(
        report,
        masked_solution=report.solution,
        solution=decrypted,
        relative_error=relative_error(decrypted, system.x),
    )
