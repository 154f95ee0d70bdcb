"""Built-in demonstration systems and reference constants.

The two fixtures are the systems used in the original 5-qubit cloud-device
demonstration this toolkit models. Masking either one with the key (1, 0)
yields a unit right-hand side aligned with an eigenvector of its matrix.

The hardware numbers below are measured device values kept for comparison
only; a noiseless simulation neither can nor tries to reproduce them.
"""
from __future__ import annotations

import math

import numpy as np

from .hhl import LinearSystem

_SQ2 = 1.0 / math.sqrt(2.0)


def eq7() -> LinearSystem:
    return LinearSystem(np.array([[0.7, 0.3], [0.3, 0.7]]),
                        np.array([_SQ2 + 0.7, _SQ2 + 0.3]))


def eq8() -> LinearSystem:
    return LinearSystem(np.array([[1.75, 0.75], [0.75, 1.75]]),
                        np.array([_SQ2 + 1.75, -_SQ2 + 0.75]))


FIXTURES = {"eq7": eq7, "eq8": eq8}

# The demonstration's replica rotation angle.
REPLICA_THETA = math.radians(-57.34)

# Device-run reference constants: (value, one-sigma uncertainty).
REFERENCE_HARDWARE_FIDELITY = {
    "eq7": (0.992, 0.001),
    "eq8": (0.920, 0.007),
}
# Decrypted solutions reported from the device runs. Note the second
# component for eq8 was reported positive although direct inversion gives
# -0.70711; the magnitudes agree within 2.3%.
REFERENCE_DECRYPTED_SOLUTION = {
    "eq7": (1.7173, 0.6967),
    "eq8": (1.7227, 0.6911),
}
# Reported similarity of the 7-T approximation to the replica half-angle
# rotation. With the bundled -57.34 deg angle the exhaustive budget-7
# optimum is 0.9968; the eigenvalue-ratio formula angle reproduces 0.9983.
REFERENCE_RS_SIMILARITY = 0.998
