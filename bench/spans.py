"""In-memory span tracer installed around the package's public functions.

The benchmark wraps functions from its own files; nothing under ``src/``
changes.  A wrapper is installed at every module attribute of the
package bound to the function, because names such as ``solve_ivp`` and
``eig`` are imported into several modules and a wrapper on one binding
would miss calls made through the others.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "carleman_lab"

# (defining module, attribute, span name).  Besides the layers the
# benchmark reports, the list wraps the functions that sit between
# ``cli.main`` and those layers (``error_profile``, ``certify_conservative``),
# so that ``cli.main``'s self time is only parsing, formatting and writing.
TARGETS = (
    ("carleman_lab.cli", "main", "cli.main"),
    ("carleman_lab.carleman", "error_profile", "carleman.error_profile"),
    ("carleman_lab.carleman", "convergence_sweep", "carleman.convergence_sweep"),
    ("carleman_lab.carleman", "build_blocks", "carleman.build_blocks"),
    ("carleman_lab.carleman", "assemble_dense", "carleman.assemble_dense"),
    ("carleman_lab.carleman", "integrate_lift", "carleman.integrate_lift"),
    ("carleman_lab.linalg", "matrix_exp", "linalg.matrix_exp"),
    ("carleman_lab.linalg", "eig", "linalg.eig"),
    ("carleman_lab.system", "integrate_reference", "system.integrate_reference"),
    ("scipy.integrate", "solve_ivp", "rk45"),
    ("carleman_lab.stability", "optimize_rp", "stability.optimize_rp"),
    ("carleman_lab.stability", "r_p", "stability.r_p"),
    ("carleman_lab.conservative", "certify_conservative", "conservative.certify_conservative"),
    ("carleman_lab.conservative", "estimate_x_max_tilde", "conservative.estimate_x_max_tilde"),
    ("carleman_lab.nonresonant", "certify_poincare", "nonresonant.certify_poincare"),
    ("carleman_lab.nonresonant", "certify_siegel_split", "nonresonant.certify_siegel_split"),
    ("carleman_lab.nonresonant", "certify_oscillating", "nonresonant.certify_oscillating"),
    ("carleman_lab.nonresonant", "diagonalize_carleman", "nonresonant.diagonalize_carleman"),
    ("carleman_lab.nonresonant", "build_v_blocks", "nonresonant.build_v_blocks"),
    ("carleman_lab.nonresonant", "build_vinv_blocks", "nonresonant.build_vinv_blocks"),
    ("carleman_lab.nonresonant", "norm_bounds_check", "nonresonant.norm_bounds_check"),
    ("carleman_lab.forests", "fusion_sum", "forests.fusion_sum"),
    ("carleman_lab.forests", "enumerate_forests", "forests.enumerate_forests"),
)

# the certifier stages; their calls per certify request form
# ``certify.stages_per_request``
STAGES = (
    "stability.optimize_rp",
    "conservative.certify_conservative",
    "nonresonant.certify_poincare",
    "nonresonant.certify_siegel_split",
    "nonresonant.certify_oscillating",
)


def _blocks_nbytes(cm) -> int:
    return sum(b.nbytes for b in (*cm.lower, *cm.diag, *cm.upper)) + cm.drive.nbytes


class Tracer:
    """Records spans (name, start, end, parent, request) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request: str | None = None
        self._restore: list[tuple] = []

    # -- span recording -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, rid: str) -> int:
        self._request = rid
        return self.open("request")

    def end_request(self, index: int) -> None:
        self.close(index)
        self._request = None

    def _observe(self, name: str, result) -> None:
        if name == "rk45":
            self.counters["rk45.nfev"] += int(result.nfev)
        elif name == "carleman.build_blocks":
            self.counters["carleman.lift_dim_max"] = max(
                self.counters["carleman.lift_dim_max"], result.total_dim
            )
            self.counters["carleman.blocks_bytes_max"] = max(
                self.counters["carleman.blocks_bytes_max"], _blocks_nbytes(result)
            )
        elif name == "carleman.assemble_dense":
            self.counters["carleman.dense_bytes_max"] = max(
                self.counters["carleman.dense_bytes_max"], result.nbytes
            )

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self._observe(name, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target inside the package."""
        targets = [(importlib.import_module(m), attr, name) for m, attr, name in TARGETS]
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for owner, attr, name in targets:
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{owner.__name__}.{attr} is not bound in {PACKAGE}")

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._restore):
            setattr(module, key, fn)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _rid) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[i]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
        }

    def write(self, path: Path, pass_index: int) -> None:
        """Append this pass's spans as JSON lines."""
        with path.open("a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"pass": pass_index, "id": i, "name": name, "start": start,
                         "end": end, "parent": parent, "request": rid}
                    )
                    + "\n"
                )
