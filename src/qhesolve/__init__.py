"""Masked delegation of a 2x2 quantum linear-equation solver.

Modules: qsim (statevector simulation and tomography), circ (circuit IR and
rewrite passes), synth (Clifford+T synthesis), hhl (solver construction),
hecrypt (masking client), qserve (execution service), fixtures (the paper's
demonstration systems), cli (front door).
"""

import os

# Every GEMM here is a 2x2 (at most 64x64) matrix times a tall operand, which
# is memory-bound: OpenBLAS's extra worker threads busy-wait for ~0.1 s of
# CPU per process and split these calls for no gain. The variable is read
# once, when numpy first loads, so this must run before any submodule
# imports numpy; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import circ, fixtures, hecrypt, hhl, qserve, qsim, synth  # noqa: E402

__version__ = "0.1.0"

__all__ = ["circ", "fixtures", "hecrypt", "hhl", "qserve", "qsim", "synth",
           "__version__"]
