"""Spectral abscissa of a bare linear part, read through the package's ``Spectrum``."""

import numpy as np

from carleman_lab.system import QuadraticSystem


def spectral_abscissa(f1) -> float:
    """max Re(lambda) of F1, as ``QuadraticSystem.spectrum.abscissa`` of the undriven system."""
    n = np.asarray(f1).shape[0]
    return QuadraticSystem(f0=np.zeros(n), f1=f1, f2=np.zeros((n, n * n))).spectrum.abscissa
