"""``np.kron`` stays out of the certify hot paths.

The reference and supremum solves, the R_P search and the spectral
context take their Kronecker products through ``linalg.kron_pair``,
``kron_square`` and ``kron2``, which are bitwise equal to ``np.kron``
but skip its per-call overhead (about 17 us, against a 2 us product at
n = 2).  The check reads the source with ``ast``, so docstrings that
name ``np.kron`` do not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "carleman_lab"

# the n-fold products and the Lyapunov linearization are not on a hot path
LINALG_ALLOWED = {"kron_chain", "tensor_power", "solve_lyapunov"}


def kron_calls(source: str) -> list:
    """(enclosing top-level name, line) of each ``np.kron``/``numpy.kron`` call or import."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "kron"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                found.append((owner, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [(owner, node.lineno) for a in node.names if a.name == "kron"]
    return found


def test_detector_sees_calls_and_ignores_docstrings():
    source = '''
def f(y):
    """Same as np.kron(y, y)."""
    return np.kron(y, y)

class C:
    def g(self, y):
        return numpy.kron(y, y)

from numpy import kron
'''
    assert kron_calls(source) == [("f", 4), ("C", 8), (None, 10)]


@pytest.mark.parametrize("module", ["system.py", "stability.py", "conservative.py"])
def test_no_kron_in_hot_modules(module):
    assert kron_calls((PACKAGE / module).read_text()) == []


def test_linalg_kron_only_in_allowed_functions():
    owners = {owner for owner, _line in kron_calls((PACKAGE / "linalg.py").read_text())}
    assert owners <= LINALG_ALLOWED
