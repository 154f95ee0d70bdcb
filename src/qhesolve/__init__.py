"""Masked delegation of a 2x2 quantum linear-equation solver.

Modules: qsim (statevector simulation and tomography), circ (circuit IR and
rewrite passes), synth (Clifford+T synthesis), hhl (solver construction),
hecrypt (masking client), qserve (execution service), fixtures (the paper's
demonstration systems), cli (front door).
"""

from . import circ, fixtures, hecrypt, hhl, qserve, qsim, synth

__version__ = "0.1.0"

__all__ = ["circ", "fixtures", "hecrypt", "hhl", "qserve", "qsim", "synth",
           "__version__"]
