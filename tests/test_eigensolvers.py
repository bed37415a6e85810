"""Non-Hermitian eigensolves stay in ``linalg``.

Every eigenvalue-derived quantity the certifiers use (the spectral
abscissa, the real spectral gap, the eigenbasis norms and the
defectiveness refusal) is read from ``QuadraticSystem.spectrum``, which
factors F1 once through ``linalg.eig``.  Outside ``linalg.py`` no module
may call ``eig``/``eigvals`` from numpy or scipy; inside it only ``eig``
may.  Hermitian solves (``eigh``, ``eigvalsh``) are allowed everywhere.
The check reads the source with ``ast``, so docstrings that name a solver
do not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "carleman_lab"

SOLVERS = {"eig", "eigvals"}
LIBRARIES = {"np", "numpy", "scipy"}
LINALG_ALLOWED = {"eig"}


def eigensolver_calls(source: str) -> list:
    """(enclosing top-level name, line) of each numpy/scipy ``linalg.eig``/``eigvals`` use."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in SOLVERS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in LIBRARIES
            ):
                found.append((owner, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy.linalg",
                "scipy.linalg",
            ):
                found += [(owner, node.lineno) for a in node.names if a.name in SOLVERS]
    return found


def test_detector_sees_calls_and_ignores_docstrings():
    source = '''
def f(m):
    """Same as np.linalg.eigvals(m)."""
    return np.linalg.eigvals(m)

class C:
    def g(self, m):
        return scipy.linalg.eig(m), numpy.linalg.eig(m), np.linalg.eigvalsh(m)

from scipy.linalg import eig, eigh
from .linalg import eig
'''
    assert eigensolver_calls(source) == [("f", 4), ("C", 8), ("C", 8), (None, 10)]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linalg.py"),
)
def test_no_eigensolver_outside_linalg(module):
    assert eigensolver_calls((PACKAGE / module).read_text()) == []


def test_linalg_eigensolvers_only_in_allowed_functions():
    owners = {owner for owner, _line in eigensolver_calls((PACKAGE / "linalg.py").read_text())}
    assert owners <= LINALG_ALLOWED
