"""Seed-generated request lists for the three benchmark workloads.

A request is either an in-process ``carleman_lab.cli.main(argv)`` call,
whose output goes to a file under the run's scratch directory, or a call
to a public library function.  The seed only jitters numbers: every seed
yields the same request ids, shapes ((n, k), fixture) and expected
certifier stages, so results from different seeds stay comparable.

Why each workload exists:

* ``lift`` -- lift assembly and exact evolution.  Four simulations need
  one exponential each (dim 258-1364); two have uneven float steps, so one
  generator is exponentiated several times; two convergence sweeps
  rebuild the lift for every k.  Certifiers never run.
* ``certify`` -- the certifier chain and its reference solves, never the
  lift.  The stage mix (stable, conservative, oscillating, uncertified)
  lets a short-circuiting chain help some requests and leave the rest flat.
* ``diagonalize`` -- the forest transform.  One large request (n=3, k=6)
  dominates ``wall_s`` while the small ones set ``latency_p50_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("lift", "certify", "diagonalize")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Request:
    """One benchmark request.

    ``kind`` selects the output check: simulate, sweep, certify,
    diagonalize or combinatorics.  ``argv`` is set for CLI requests (the
    runner appends ``--out``); ``call`` holds the keyword arguments of a
    library call.  ``shape`` is what every seed must keep.
    """

    rid: str
    kind: str
    shape: dict
    argv: tuple = ()
    call: dict = field(default_factory=dict)


def _rng(seed: int, index: int) -> np.random.Generator:
    # one stream per request, so requests do not shift each other's draws
    return np.random.default_rng([seed, index])


def _jitter(rng: np.random.Generator, value: float, rel: float = 0.02) -> float:
    return float(value * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _fmt(x: float) -> str:
    return repr(float(x))


def _system_json(f0, f1, f2) -> str:
    def pair(z):
        return [float(np.real(z)), float(np.imag(z))]

    return json.dumps(
        {
            "n": int(f1.shape[0]),
            "f0": [pair(z) for z in f0],
            "f1": [[pair(z) for z in row] for row in f1],
            "f2": [pair(z) for z in np.ravel(f2)],
        }
    )


def stable_driven_system(rng: np.random.Generator, n: int):
    """Random driven system whose linear part is strongly stable.

    The diagonal dominates the coupling, so every eigenvalue of F1 has
    real part below about -0.5; the drive and the quadratic term are small
    enough that trajectories from the returned x0 stay bounded.
    """
    f1 = -np.diag(rng.uniform(1.0, 1.6, n)) + 0.3 * rng.standard_normal((n, n)) / n
    f0 = 0.1 * rng.standard_normal(n)
    f2 = 0.1 * rng.standard_normal((n, n * n)) / n
    x0 = 0.3 * rng.standard_normal(n) / np.sqrt(n)
    return f0, f1, f2, x0


def poincare_system(rng: np.random.Generator, n: int):
    """Random driftless system with spectrum in Re z in (-1.9, -1.0).

    A sum of two or more eigenvalues has real part below -2, so the
    spectrum is in the Poincare domain and non-resonant with a gap of at
    least 0.1.  The rightmost eigenvalue is a complex pair a +- ib with
    b in (0.2, 0.5), so the spectrum's convex hull is never a sliver
    along the real axis (see ``DIAGONALIZE_CASES``).
    """
    re = -1.0 - 0.9 * (np.arange(n) + rng.uniform(0.15, 0.85, n)) / n
    im = rng.uniform(0.2, 0.5)
    # the pair takes the slots of the two rightmost real parts
    block = np.diag(np.concatenate([[re[0], re[0]], re[2:]]))
    block[0, 1], block[1, 0] = im, -im
    basis = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
    f1 = basis @ block @ np.linalg.inv(basis)
    f0 = np.zeros(n)
    f2 = 0.1 * rng.standard_normal((n, n * n)) / n
    x0 = 0.3 * rng.standard_normal(n) / np.sqrt(n)
    return f0, f1, f2, x0


def _write_system(tmp: Path, rid: str, f0, f1, f2) -> str:
    path = tmp / f"{rid}.json"
    path.write_text(_system_json(f0, f1, f2), encoding="utf-8")
    return str(path)


def _x0_arg(x0) -> str:
    return ",".join(_fmt(v) for v in x0)


# (n, k, t, steps); t=1 with 10 steps gives uneven float steps
LIFT_SIMULATIONS = (
    (3, 6, 2.0, 8),
    (4, 5, 2.0, 8),
    (2, 9, 2.0, 8),
    (6, 3, 2.0, 8),
    (2, 8, 1.0, 10),
    (3, 5, 1.0, 10),
)
# (n, k_min, k_max)
LIFT_SWEEPS = ((2, 2, 8), (3, 2, 6))
SWEEP_T = 1.0


def lift_requests(seed: int, tmp: Path) -> list[Request]:
    from carleman_lab.system import QuadraticSystem

    out = []
    for index, (n, k, t, steps) in enumerate(LIFT_SIMULATIONS):
        rid = f"simulate-n{n}k{k}"
        f0, f1, f2, x0 = stable_driven_system(_rng(seed, index), n)
        path = _write_system(tmp, rid, f0, f1, f2)
        argv = ("simulate", "--system", path, f"--x0={_x0_arg(x0)}", "--k", str(k),
                "--t", _fmt(t), "--steps", str(steps))
        out.append(Request(rid, "simulate", {"n": n, "k": k, "steps": steps}, argv=argv))
    for index, (n, k_min, k_max) in enumerate(LIFT_SWEEPS, start=len(LIFT_SIMULATIONS)):
        rid = f"sweep-n{n}k{k_min}-{k_max}"
        f0, f1, f2, x0 = stable_driven_system(_rng(seed, index), n)
        call = {
            "sys": QuadraticSystem(f0=f0, f1=f1, f2=f2),
            "x0": x0,
            "k_range": tuple(range(k_min, k_max + 1)),
            "t": SWEEP_T,
        }
        out.append(Request(rid, "sweep", {"n": n, "k": [k_min, k_max]}, call=call))
    return out


# (fixture, jittered parameters, fixed parameters, expected stage).  The
# jitter is 2% around the given value, which keeps every request's stage;
# the uncertified oscillator's damping and the network's size stay fixed.
CERTIFY_CASES = (
    ("scalar", {"a": -1.0, "b": 0.1}, {}, "stable"),
    ("damped_oscillator", {"r": 1.6, "n": 0.22}, {}, "stable"),
    ("damped_oscillator", {"n": 0.5}, {"r": 1.0}, None),
    ("oscillating_toy", {"omega": 2.0, "a": 0.02}, {}, "conservative"),
    ("time_dep_toy", {"a": 0.05, "c1": 0.1}, {}, "conservative"),
    ("conservative_toy", {"a": 0.2, "b": 0.05}, {}, "conservative"),
    ("oscillator_network", {"w": 0.05}, {"n": 3}, "oscillating_f2"),
)


def certify_requests(seed: int, tmp: Path) -> list[Request]:
    from carleman_lab import fixtures

    out = []
    for repeat in (1, 2):
        for index, (name, jittered, fixed, stage) in enumerate(CERTIFY_CASES):
            rng = _rng(seed, len(CERTIFY_CASES) * (repeat - 1) + index)
            params = {key: _jitter(rng, value) for key, value in jittered.items()}
            params.update(fixed)
            argv = ["certify", "--fixture", name]
            for key, value in params.items():
                argv += ["--param", f"{key}={value!r}"]
            if name == "oscillator_network":
                omega = fixtures.fixture(name, **params).extras["omega"]
                argv += ["--f2-frequency", _fmt(omega)]
            tag = "uncertified" if stage is None else stage
            rid = f"certify-{name}-{tag}-{repeat}"
            shape = {"fixture": name, "stage": stage}
            out.append(Request(rid, "certify", shape, argv=tuple(argv)))
    return out


# The systems have a complex pair because the CLI reads every matrix as
# complex, and the complex eigensolver gives a real spectrum imaginary
# parts of about 1e-18; when three or more such eigenvalues span a hull,
# linalg.origin_hull_status counts the origin as inside it and the CLI
# drops every block bound (n=4 at about 1% of seeds, e.g. 186339417).
DIAGONALIZE_CASES = ((2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (4, 4), (3, 6))
COMBINATORICS_MAX_K = 7


def diagonalize_requests(seed: int, tmp: Path) -> list[Request]:
    out = []
    for index, (n, k) in enumerate(DIAGONALIZE_CASES):
        rid = f"diagonalize-n{n}k{k}"
        f0, f1, f2, x0 = poincare_system(_rng(seed, index), n)
        path = _write_system(tmp, rid, f0, f1, f2)
        argv = ("diagonalize", "--system", path, f"--x0={_x0_arg(x0)}", "--k", str(k))
        out.append(Request(rid, "diagonalize", {"n": n, "k": k}, argv=argv))
    argv = ("combinatorics", "--max-k", str(COMBINATORICS_MAX_K))
    out.append(
        Request("combinatorics", "combinatorics", {"max_k": COMBINATORICS_MAX_K}, argv=argv)
    )
    return out


BUILDERS = {
    "lift": lift_requests,
    "certify": certify_requests,
    "diagonalize": diagonalize_requests,
}


def build(workload: str, seed: int, tmp: Path) -> list[Request]:
    """The workload's request list for ``seed``; input files go to ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, tmp)


def warmup_requests(tmp: Path) -> list[Request]:
    """Tiny requests of every kind, run untimed before the first pass.

    They pay the lazy imports and first-call costs inside numpy, scipy and
    the package once, so that every timed pass costs the same.  Their
    outputs are not checked.
    """
    from carleman_lab.system import QuadraticSystem

    tmp.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    driven = stable_driven_system(rng, 2)
    driftless = poincare_system(rng, 2)
    lift = _write_system(tmp, "warmup-lift", *driven[:3])
    diag = _write_system(tmp, "warmup-diagonalize", *driftless[:3])
    argvs = (
        ("simulate", "--system", lift, f"--x0={_x0_arg(driven[3])}", "--k", "2",
         "--t", "1.0", "--steps", "2"),
        ("certify", "--fixture", "scalar"),
        ("certify", "--fixture", "oscillator_network", "--param", "n=2",
         "--param", "w=0.05", "--f2-frequency", "6.0"),
        ("diagonalize", "--system", diag, f"--x0={_x0_arg(driftless[3])}", "--k", "3"),
        ("combinatorics", "--max-k", "3"),
    )
    out = [Request(f"warmup-{i}", argv[0], {}, argv=argv) for i, argv in enumerate(argvs)]
    call = {"sys": QuadraticSystem(*driven[:3]), "x0": driven[3], "k_range": (2, 3),
            "t": SWEEP_T}
    out.append(Request("warmup-sweep", "sweep", {}, call=call))
    return out
