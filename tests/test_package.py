"""``import carleman_lab`` loads no package module and no scipy.

A fresh interpreter is needed: pytest has already imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import carleman_lab
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("carleman_lab.") or m.split(".")[0] == "scipy")))
"""


def test_import_loads_no_submodule_and_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []
