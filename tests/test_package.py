"""Package-level source checks.

``import carleman_lab`` loads no package module and no scipy, and only
the commands that use scipy load it: ``simulate`` (``scipy.sparse``) and
the n >= 3 witness search of ``certify`` and ``scan``
(``scipy.optimize``).  A fresh interpreter is needed, since pytest has
already imported both.

One module enumerates index multisets: ``linalg.multiset_rows`` is the
only place the package names ``combinations_with_replacement``, and both
the lift's multiset coordinates and the no-resonance gap read it.

One per-block error bound: each certificate class has an
``error_bound(self, j, k, t)`` method, and no module defines a free
``*_error_bound`` function beside them.

Every public top-level function or class of the package is reached: some
other top-level statement of the package, a demo, the benchmark or the
acceptance suite names it.  A definition that only its own unit tests
call is dead code, unless it is a reference implementation the tests use
as an oracle (``ORACLES``).  The check reads the source with ``ast``, so
docstrings and comments that name a definition do not count.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "carleman_lab"

PROBE = """
import json, sys
import carleman_lab
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("carleman_lab.") or m.split(".")[0] == "scipy")))
"""

# runs {body}, then prints the scipy modules it loaded
COLD = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# reference implementations kept for the unit tests; no command reaches them
ORACLES = {
    "forests.leaf_count",
    "jsonio.system_to_json",
    "linalg.generalized_log_norm",
    "linalg.kron_chain",
    "linalg.p_norms",
}


def test_import_loads_no_submodule_and_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []


def scipy_loaded_by(body: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", COLD.format(body=body)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["system", "fixtures", "cli"])
def test_module_import_loads_no_scipy(module):
    assert scipy_loaded_by(f"import carleman_lab.{module}") == []


NUMPY_ONLY_COMMANDS = [
    ["diagonalize", "--fixture", "scalar", "--k", "4"],
    ["combinatorics", "--max-k", "6"],
    ["certify", "--fixture", "scalar"],
    ["certify", "--fixture", "damped_oscillator"],
    ["certify", "--fixture", "conservative_toy"],
]


def run_command(argv: list, out: Path) -> str:
    return (
        "from carleman_lab.cli import main\n"
        f"assert main({[*argv, '--out', str(out)]!r}) in (0, 3)"
    )


@pytest.mark.parametrize("argv", NUMPY_ONLY_COMMANDS, ids=" ".join)
def test_numpy_only_command_loads_no_scipy(argv, tmp_path):
    assert scipy_loaded_by(run_command(argv, tmp_path / "out")) == []


def test_simulate_loads_scipy_sparse(tmp_path):
    argv = ["simulate", "--fixture", "damped_oscillator", "--k", "4"]
    assert "scipy.sparse" in scipy_loaded_by(run_command(argv, tmp_path / "out"))


def names_read(node) -> set:
    """Every name ``node`` reads: bare names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unreached_definitions(modules: dict, readers: list) -> set:
    """``module.name`` of each public top-level def or class that nothing else names.

    ``modules`` maps module names to the package's sources, ``readers`` lists
    the other sources that count as callers.  A definition's own body does
    not count; the rest of its module does.
    """
    read_outside = set()
    for source in readers:
        read_outside |= names_read(ast.parse(source))
    tops = {mod: ast.parse(source).body for mod, source in modules.items()}
    unreached = set()
    for mod, body in tops.items():
        for top in body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            named = top.name in read_outside or any(
                top.name in names_read(other)
                for other_mod, other_body in tops.items()
                for other in other_body
                if other is not top
            )
            if not named:
                unreached.add(f"{mod}.{top.name}")
    return unreached


def test_detector_sees_callers_and_ignores_docstrings():
    modules = {
        "a": '''
def used_by_b():
    """Recursive, and named by b."""
    return used_by_b()

def only_itself():
    return only_itself()

def only_a_docstring():
    pass

class Used:
    pass

def _private():
    pass

x = Used()
''',
        "b": '''
def caller():
    """See only_a_docstring."""
    return a.used_by_b()
''',
    }
    reader = "from carleman_lab.b import caller\n"
    assert unreached_definitions(modules, [reader]) == {"a.only_itself", "a.only_a_docstring"}


def test_every_public_definition_is_reached():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [
        p.read_text()
        for p in [
            *sorted((ROOT / "demos").glob("*.py")),
            *sorted((ROOT / "bench").rglob("*.py")),
            ROOT / "tests" / "test_acceptance.py",
        ]
    ]
    assert unreached_definitions(modules, readers) == ORACLES


def test_one_module_enumerates_multisets():
    naming = [
        p.stem
        for p in sorted(PACKAGE.glob("*.py"))
        if "combinations_with_replacement" in names_read(ast.parse(p.read_text()))
    ]
    assert naming == ["linalg"]


CERTIFICATES = {
    "stability": "StabilityCertificate",
    "conservative": "ConservativeCertificate",
    "nonresonant": "NonresonantCertificate",
}


def test_one_error_bound_per_certificate():
    bounds = {}
    for p in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                assert not top.name.endswith("_error_bound"), (p.stem, top.name)
            if isinstance(top, ast.ClassDef) and top.name.endswith("Certificate"):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "error_bound":
                        bounds[(p.stem, top.name)] = [a.arg for a in item.args.args]
    assert bounds == {
        (module, name): ["self", "j", "k", "t"] for module, name in CERTIFICATES.items()
    }
