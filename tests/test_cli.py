import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from carleman_lab import cli
from carleman_lab.cli import _fmt, main
from carleman_lab.jsonio import system_to_json
from carleman_lab.system import QuadraticSystem


def run(args):
    return main(args)


class TestCertify:
    def test_stable_oscillator_point(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            [
                "certify",
                "--fixture",
                "damped_oscillator",
                "--param",
                "r=1.5",
                "--param",
                "n=0.1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certified"] and data["criterion"] == "R_P"

    def test_conservative_point(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            [
                "certify",
                "--fixture",
                "conservative_toy",
                "--param",
                "a=0.01",
                "--param",
                "b=0.01",
                "--param",
                "x1=0.5",
                "--param",
                "x2=0.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["criterion"] == "R_delta"
        assert data["certificate"]["caveats"] == ["empirical-supremum"]

    def test_uncertified_exit_code(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            [
                "certify",
                "--fixture",
                "scalar",
                "--param",
                "a=-1",
                "--param",
                "b=1",
                "--param",
                "x0=1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        data = json.loads(out.read_text())
        assert not data["certified"]
        # every certifier must report a diagnostic on failure
        assert set(data["diagnostics"]) >= {
            "stable",
            "conservative",
            "nonresonant_poincare",
            "siegel_split",
        }

    def test_input_error(self):
        assert run(["certify", "--fixture", "nope"]) == 1

    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "1e-2"])
    def test_tolerance_outside_range_is_an_input_error(self, tmp_path, capsys, tol):
        out = tmp_path / "cert.json"
        argv = ["certify", "--fixture", "conservative_toy", "--tol", tol, "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"input error: tolerance {float(tol)} outside [1e-14, 1e-3]\n"
        )
        assert not out.exists()

    def test_zero_horizon_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        argv = ["certify", "--fixture", "conservative_toy", "--t", "0", "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == "input error: horizon must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--t", "0"], "horizon must be positive"),
            (["--t", "nan"], "horizon must be positive"),
            (["--tol", "-1"], "tolerance -1.0 outside [1e-14, 1e-3]"),
            (["--tol", "nan"], "tolerance nan outside [1e-14, 1e-3]"),
        ],
    )
    def test_flags_checked_before_the_stable_stage(self, tmp_path, capsys, flags, message):
        # the scalar fixture certifies at the first stage, which solves no
        # trajectory, so the flags are refused before any stage runs
        out = tmp_path / "cert.json"
        assert run(["certify", "--fixture", "scalar", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    def test_finite_time_escape_is_uncertified(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            [
                "certify",
                "--fixture",
                "scalar",
                "--param",
                "a=-1",
                "--param",
                "b=2",
                "--param",
                "x0=3.0",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        data = json.loads(out.read_text())
        assert not data["certified"]
        assert "escapes" in data["diagnostics"]["conservative"]["reason"]

    def test_fixture_round_trip_certifies_identically(self, tmp_path):
        from carleman_lab.fixtures import fixture

        fx = fixture("damped_oscillator", r=1.5, n=0.1)
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(system_to_json(fx.system))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        x0 = ",".join(str(complex(z)) for z in fx.x0)
        assert (
            run(
                [
                    "certify",
                    "--fixture",
                    "damped_oscillator",
                    "--param",
                    "r=1.5",
                    "--param",
                    "n=0.1",
                    "--out",
                    str(out_a),
                ]
            )
            == 0
        )
        assert (
            run(
                [
                    "certify",
                    "--system",
                    str(sys_file),
                    "--x0",
                    x0,
                    "--out",
                    str(out_b),
                ]
            )
            == 0
        )
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSimulate:
    def test_linear_fixture_noise_floor(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(
            [
                "simulate",
                "--fixture",
                "scalar",
                "--param",
                "a=-1",
                "--param",
                "b=0",
                "--k",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,block,eta_norm"
        for line in lines[1:]:
            assert float(line.split(",")[2]) <= 1e-9

    def test_dump_states(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(
            [
                "simulate",
                "--fixture",
                "scalar",
                "--param",
                "b=0.1",
                "--k",
                "3",
                "--dump-states",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.with_suffix(".ref.csv").exists()
        assert out.with_suffix(".lift.csv").exists()

    def test_zero_horizon_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--fixture", "scalar", "--t", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "input error: times must be strictly increasing and start at 0\n"
        )
        assert not out.exists()


class TestScan:
    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "scan",
                "--fixture",
                "damped_oscillator",
                "--param",
                "r=1.5:1.5:1",
                "--param",
                "n=0.1:0.1:1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param1,param2,r_mu,r_alpha,r_p_best,certified"
        assert len(lines) == 2

    def test_oscillator_log_norm_column_all_inf(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "scan",
                "--fixture",
                "damped_oscillator",
                "--param",
                "r=0.5:2.0:3",
                "--param",
                "n=0.0:1.0:3",
                "--budget",
                "150",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 9
        assert all(line.split(",")[2] == "inf" for line in lines)

    def test_conservative_regions_complementary(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "scan",
                "--fixture",
                "conservative_toy",
                "--param",
                "a=0.05:0.45:9",
                "--param",
                "b=0.02:0.3:5",
                "--param",
                "x1=0.5",
                "--param",
                "x2=0.0833333333333333",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param1,param2,r_delta,r_p_reduced,ellipse_member,certified"
        gap_only = reduction_only = 0
        for line in lines[1:]:
            parts = line.split(",")
            r_delta = float(parts[2])
            r_reduced = float(parts[3])
            if r_delta < 1 <= r_reduced:
                gap_only += 1
            if r_reduced < 1 <= r_delta:
                reduction_only += 1
        # neither criterion's region contains the other
        assert gap_only > 0 and reduction_only > 0


class TestDiagonalize:
    def test_scalar_dump(self, tmp_path):
        out = tmp_path / "diag.json"
        code = run(
            [
                "diagonalize",
                "--fixture",
                "scalar",
                "--param",
                "a=-1",
                "--param",
                "b=0.5",
                "--k",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["residual"] <= 1e-12
        assert "1,5" in data["blocks"]
        assert data["blocks"]["1,5"]["norm"] <= data["blocks"]["1,5"]["bound"]

    @pytest.mark.parametrize("k", [1, 2])
    def test_orders_one_and_two_print_diagonal_rows(self, tmp_path, k):
        out = tmp_path / "diag.json"
        argv = ["diagonalize", "--fixture", "scalar", "--param", "a=-1", "--param", "b=0.5"]
        assert run([*argv, "--k", str(k), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        unit = {"bound": 1.0, "norm": 1.0}
        keys = [f"{i},{j}" for i in range(1, k + 1) for j in range(i, k + 1)]
        for family in ("blocks", "inverse_blocks"):
            assert list(data[family]) == keys
            assert all(data[family][f"{i},{i}"] == unit for i in range(1, k + 1))
        if k == 1:
            assert data == {
                "blocks": {"1,1": unit},
                "delta": data["delta"],
                "inverse_blocks": {"1,1": unit},
                "inverse_residual": 0.0,
                "residual": 0.0,
                "sparsity": 1,
            }
        else:
            # W_2 = N_2 o F2~ = b / a for the scalar system
            assert data["blocks"]["1,2"]["norm"] == data["inverse_blocks"]["1,2"]["norm"] == 0.5

    def test_resonant_exit_code(self, tmp_path):
        sys_file = tmp_path / "sys.json"
        resonant = QuadraticSystem(
            f0=np.zeros(2), f1=np.diag([-1.0, -2.0]), f2=0.1 * np.ones((2, 4))
        )
        sys_file.write_text(system_to_json(resonant))
        code = run(
            ["diagonalize", "--system", str(sys_file), "--x0", "1,0", "--k", "3"]
        )
        assert code == 4

    def test_non_finite_f2_tilde_is_a_numerical_failure(self, tmp_path, capsys):
        # Q^-1 F2 (Q (x) Q) overflows to NaN; V and V^-1 are not built from it
        sys_file = tmp_path / "sys.json"
        sysd = QuadraticSystem(
            f0=np.zeros(2), f1=[[-1.0, 0.9], [0.0, -0.7]], f2=np.full((2, 4), 1e308)
        )
        sys_file.write_text(system_to_json(sysd))
        out = tmp_path / "diag.json"
        argv = ["diagonalize", "--system", str(sys_file), "--x0", "0.1,0.1", "--k", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow forming F2~
            code = run([*argv, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: F2~ = Q^-1 F2 (Q (x) Q) is not finite\n"
        )
        assert not out.exists()

    def test_allow_large_keeps_the_default_cap(self, tmp_path, capsys, monkeypatch):
        from carleman_lab.cli import EXIT_INPUT

        # V and V^-1 blocks grow as n^(i+j): until a byte budget sizes them,
        # diagonalize refuses past the default cap even under --allow-large
        monkeypatch.delenv("CARLEMAN_LAB_CAP", raising=False)
        sys_file = tmp_path / "sys.json"
        sysd = QuadraticSystem(
            f0=np.zeros(2), f1=np.diag([-1.0, -2.3]), f2=0.1 * np.ones((2, 4))
        )
        sys_file.write_text(system_to_json(sysd))
        out = tmp_path / "diag.json"
        argv = ["diagonalize", "--system", str(sys_file), "--x0", "0.1,0.1", "--k", "15"]
        assert run([*argv, "--allow-large", "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Carleman lift dimension 65534 (full coordinates) exceeds cap 20000" in err
        assert not out.exists()

    def test_real_spectrum_keeps_block_bounds(self, tmp_path):
        # the CLI reads matrices as complex, so this real spectrum reaches
        # the hull test with imaginary parts of about 1e-17
        rng = np.random.default_rng(24)
        n = 4
        lams = -1.0 - 0.9 * (np.arange(n) + rng.uniform(0.15, 0.85, n)) / n
        basis = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
        sysd = QuadraticSystem(
            f0=np.zeros(n),
            f1=basis @ np.diag(lams) @ np.linalg.inv(basis),
            f2=0.1 * rng.standard_normal((n, n * n)) / n,
        )
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(system_to_json(sysd))
        out = tmp_path / "diag.json"
        argv = ["diagonalize", "--system", str(sys_file), "--x0", "0.1,0.1,0.1,0.1"]
        code = run([*argv, "--k", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["delta"] > 0
        rows = [*data["blocks"].values(), *data["inverse_blocks"].values()]
        assert rows and all(row["bound"] is not None for row in rows)
        assert all(row["norm"] <= row["bound"] for row in rows)


class TestCombinatorics:
    def test_all_identities_pass(self, tmp_path):
        out = tmp_path / "comb.csv"
        assert run(["combinatorics", "--max-k", "6", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "identity,j,k,lhs,rhs,pass"
        assert all(line.endswith("true") for line in lines[1:])
        assert "forest_count,2,4,5,5,true" in lines

    def test_table_matches_path_oracle(self, tmp_path, monkeypatch):
        from carleman_lab import cli
        from forest_oracle import fusion_sum_by_paths

        out = tmp_path / "comb.csv"
        expected = tmp_path / "oracle.csv"
        assert run(["combinatorics", "--max-k", "7", "--out", str(out)]) == 0
        monkeypatch.setattr(
            cli, "fusion_sums",
            lambda k: tuple(fusion_sum_by_paths(j, k) for j in range(1, k + 1)),
        )
        assert run(["combinatorics", "--max-k", "7", "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_one_fusion_run_per_order(self, tmp_path, monkeypatch):
        from carleman_lab import forests

        runs = count_calls(monkeypatch, forests.fusion_sums)
        assert run(["combinatorics", "--max-k", "6", "--out", str(tmp_path / "c.csv")]) == 0
        assert runs == [(k,) for k in range(1, 7)]

    def test_order_above_cap_is_refused(self, tmp_path, capsys):
        from carleman_lab.cli import EXIT_INPUT

        out = tmp_path / "comb.csv"
        assert run(["combinatorics", "--max-k", "9", "--out", str(out)]) == EXIT_INPUT
        assert "capped at k = 8" in capsys.readouterr().err
        assert not out.exists()


class TestSystemJson:
    def test_triplet_ingestion(self, tmp_path):
        data = {
            "n": 2,
            "f0": [[0.0, 0.0], [0.0, 0.0]],
            "f1": [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [-1.0, 0.0]]],
            "f2": {"triplets": [[1, 0, 0, -0.5, 0.0]]},
        }
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(data))
        from carleman_lab.jsonio import system_from_json

        sys = system_from_json(path.read_text())
        assert sys.f2[1, 0] == -0.5
        assert np.count_nonzero(sys.f2) == 1

    def test_cap_env_override(self, monkeypatch):
        from carleman_lab.errors import dense_cap

        monkeypatch.setenv("CARLEMAN_LAB_CAP", "123")
        assert dense_cap() == 123
        monkeypatch.delenv("CARLEMAN_LAB_CAP")
        assert dense_cap() == 20_000


class TestFormats:
    def test_simulate_json(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run(
            [
                "simulate",
                "--fixture",
                "scalar",
                "--param",
                "b=0.1",
                "--k",
                "3",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows and set(rows[0]) == {"t", "block", "eta_norm"}

    def test_certify_rejects_csv(self):
        code = run(
            ["certify", "--fixture", "scalar", "--param", "b=0.1", "--format", "csv"]
        )
        assert code == 1


class TestDeterminism:
    CASES = [
        ["certify", "--fixture", "scalar", "--param", "a=-1", "--param", "b=0.1"],
        ["simulate", "--fixture", "scalar", "--param", "b=0.1", "--k", "4"],
        [
            "scan",
            "--fixture",
            "damped_oscillator",
            "--param",
            "r=0.8:1.6:2",
            "--param",
            "n=0.05:0.15:2",
            "--budget",
            "150",
        ],
        ["diagonalize", "--fixture", "scalar", "--param", "b=0.5", "--k", "4"],
        ["combinatorics", "--max-k", "5"],
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_byte_identical_reruns(self, case, tmp_path):
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert run(case + ["--out", str(out_a)]) == run(case + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestParserCache:
    """One parser per process serves every call with a fresh namespace."""

    RUNS = [
        ["certify", "--fixture", "scalar"],
        ["simulate", "--fixture", "damped_oscillator", "--k", "3", "--steps", "2"],
        ["scan", "--fixture", "damped_oscillator", "--param", "r=0.8:1.6:2",
         "--param", "n=0.05:0.15:2", "--budget", "20"],
        ["diagonalize", "--fixture", "scalar", "--k", "3"],
        ["combinatorics", "--max-k", "4"],
        ["certify", "--fixture", "damped_oscillator", "--param", "r=1.5", "--param", "n=0.1"],
    ]
    BAD = ["simulate", "--k", "four"]

    @staticmethod
    def fresh(argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.run(
            [sys.executable, "-m", "carleman_lab.cli", *argv],
            env=env, capture_output=True, text=True,
        )

    def test_in_process_runs_match_fresh_processes(self, tmp_path, capsys):
        for index, argv in enumerate(self.RUNS):
            fresh_out, here_out = tmp_path / f"fresh{index}.out", tmp_path / f"here{index}.out"
            fresh = self.fresh([*argv, "--out", str(fresh_out)])
            assert main([*argv, "--out", str(here_out)]) == fresh.returncode
            assert capsys.readouterr().err == fresh.stderr
            assert here_out.read_bytes() == fresh_out.read_bytes()
            # an argparse error between calls leaves the parser as it was
            assert main(self.BAD) == 1
            bad_err = capsys.readouterr().err
        fresh = self.fresh(self.BAD)
        assert (fresh.returncode, fresh.stderr) == (1, bad_err)

    def test_usage_error_is_an_input_error(self, capsys):
        # argparse's own message, under the input-error exit code
        assert main(["certify", "--fixture", "scalar", "--t", "abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "invalid float value: 'abc'" in err
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0

    def test_replaced_command_is_called(self, monkeypatch):
        parser = cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_certify", lambda args: seen.append(args.param) or 17)
        assert main(["certify", "--fixture", "scalar", "--param", "a=-1"]) == 17
        assert main(["certify", "--fixture", "scalar"]) == 17
        assert seen == [["a=-1"], None]
        assert cli.build_parser() is parser


def numpy_predicate_fmt(value) -> str:
    """``cli._fmt`` as it was, testing the infinities with np.isposinf / np.isneginf."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isposinf(v):
        return "inf"
    if np.isneginf(v):
        return "-inf"
    return f"{v:.17g}"


@pytest.mark.parametrize(
    "value",
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
     -sys.float_info.max, 0.1, np.float64(math.inf), np.float64(-math.inf),
     np.float64(math.nan), np.float64(-0.0), np.float64(1 / 3), np.int64(-7),
     np.int64(2**62), True, False, 0, -12, 2**70],
    ids=repr,
)
def test_fmt_matches_numpy_predicates(value):
    assert _fmt(value) == numpy_predicate_fmt(value)


def count_calls(monkeypatch, fn) -> list:
    """Wrap every binding of ``fn`` inside the package; returns the call log."""
    import sys as interpreter

    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(interpreter.modules.items()):
        if module is not None and name.split(".")[0] == "carleman_lab":
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


class TestCertifyChain:
    ESCAPE = ["certify", "--fixture", "scalar", "--param", "a=-1", "--param", "b=2",
              "--param", "x0=3.0"]
    NETWORK = ["certify", "--fixture", "oscillator_network", "--param", "n=3",
               "--param", "w=0.05", "--f2-frequency", "6.928203230275509"]

    def stage_calls(self, monkeypatch):
        from carleman_lab import conservative, nonresonant, stability

        return [
            count_calls(monkeypatch, fn)
            for fn in (
                stability.optimize_rp,
                conservative.certify_conservative,
                nonresonant.certify_poincare,
                nonresonant.certify_siegel_split,
            )
        ]

    def test_stops_at_first_success(self, monkeypatch, tmp_path):
        stages = self.stage_calls(monkeypatch)
        out = tmp_path / "cert.json"
        assert run(["certify", "--fixture", "scalar", "--out", str(out)]) == 0
        assert [len(c) for c in stages] == [1, 0, 0, 0]
        data = json.loads(out.read_text())
        assert data["stage"] == "stable" and "diagnostics" not in data

    def test_all_runs_every_stage(self, monkeypatch, tmp_path):
        stages = self.stage_calls(monkeypatch)
        out = tmp_path / "cert.json"
        assert run(["certify", "--fixture", "scalar", "--all", "--out", str(out)]) == 0
        assert [len(c) for c in stages] == [1, 1, 1, 1]
        data = json.loads(out.read_text())
        assert data["stage"] == "stable"
        assert set(data["diagnostics"]) == {
            "stable", "conservative", "nonresonant_poincare", "siegel_split"
        }

    def test_one_eigendecomposition_per_system(self, monkeypatch, tmp_path):
        from carleman_lab import linalg

        calls = count_calls(monkeypatch, linalg.eig)
        argv = ["certify", "--fixture", "damped_oscillator", "--all"]
        run([*argv, "--out", str(tmp_path / "a.json")])
        assert len(calls) == 1
        out = tmp_path / "b.json"
        assert run([*self.NETWORK, "--all", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["stage"] == "oscillating_f2"
        # the oscillating certifier runs on the shifted system: one more
        assert len(calls) == 3

    def test_non_hermitian_eigensolves_per_system(self, monkeypatch, tmp_path):
        from carleman_lab import linalg

        calls = count_calls(monkeypatch, linalg.eig)
        eigvals = np.linalg.eigvals

        def counting(*args, **kwargs):
            calls.append(args)
            return eigvals(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        run(["certify", "--fixture", "conservative_toy", "--all",
             "--out", str(tmp_path / "a.json")])
        assert len(calls) == 1
        calls.clear()
        run(["certify", "--fixture", "damped_oscillator", "--all",
             "--out", str(tmp_path / "b.json")])
        assert len(calls) == 1

    def test_one_supremum_solve_per_key(self, monkeypatch, tmp_path):
        from carleman_lab import conservative

        calls = count_calls(monkeypatch, conservative.estimate_x_max_tilde)
        out = tmp_path / "cert.json"
        run(["certify", "--fixture", "damped_oscillator", "--all", "--out", str(out)])
        diag = json.loads(out.read_text())["diagnostics"]
        # conservative, Poincare and Siegel-split all read the same supremum
        sups = {diag[k]["x_max_tilde"] for k in ("conservative", "nonresonant_poincare",
                                                 "siegel_split")}
        assert len(sups) == 1 and None not in sups
        assert len(calls) == 1

    def test_output_is_json_with_caveats(self, tmp_path):
        out = tmp_path / "cert.json"
        run(["certify", "--fixture", "oscillating_toy", "--all", "--out", str(out)])
        data = json.loads(out.read_text(), parse_constant=reject_constant)
        diag = data["diagnostics"]
        assert diag["stable"]["value"] is None
        for name in ("conservative", "nonresonant_poincare", "siegel_split"):
            assert diag[name]["caveats"] == ["empirical-supremum"]

    def test_escape_is_uncertified_without_caveats(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run([*self.ESCAPE, "--all", "--out", str(out)]) == 3
        data = json.loads(out.read_text(), parse_constant=reject_constant)
        assert not data["certified"]
        for name in ("conservative", "nonresonant_poincare", "siegel_split"):
            cert = data["diagnostics"][name]
            assert cert["reason"] == "trajectory escapes in finite time"
            assert cert["caveats"] == []

    def test_escape_solved_once(self, monkeypatch, tmp_path):
        from carleman_lab import conservative

        calls = count_calls(monkeypatch, conservative.estimate_x_max_tilde)
        out = tmp_path / "cert.json"
        # no stage certifies, so conservative, Poincare and Siegel-split all
        # ask for the same escaping supremum
        assert run([*self.ESCAPE, "--out", str(out)]) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("omega,reason", [
        ("0", "frequency must be positive"),
        ("nan", "frequency must be positive"),
        ("inf", "frequency must be finite"),
    ])
    def test_invalid_frequency_is_uncertified(self, tmp_path, capsys, omega, reason):
        out = tmp_path / "cert.json"
        argv = [*self.NETWORK[:-1], omega, "--all", "--out", str(out)]
        assert run(argv) == 3
        assert capsys.readouterr().err == ""
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["oscillating_f2"]["reason"] == reason
        assert not diag["oscillating_f2"]["certified"]

    def test_solver_budget_ends_a_runaway_supremum(self, monkeypatch, tmp_path, capsys):
        from carleman_lab import system

        # the earlier stages' solves fit; at w = 1e17 the supremum solve
        # would never finish without the budget
        monkeypatch.setattr(system, "RHS_BUDGET", 20_000)
        out = tmp_path / "cert.json"
        assert run([*self.NETWORK[:-1], "1e17", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "input error: solve exceeded its budget of 20000 right-hand-side evaluations\n"
        )
        assert not out.exists()

    def test_escape_and_runaway_raise_no_warnings(self, monkeypatch, tmp_path, capsys):
        from carleman_lab import system

        monkeypatch.setattr(system, "RHS_BUDGET", 20_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*self.ESCAPE, "--out", str(tmp_path / "escape.json")]) == 3
            assert run([*self.NETWORK[:-1], "1e17", "--out", str(tmp_path / "w.json")]) == 1
        assert capsys.readouterr().err == (
            "input error: solve exceeded its budget of 20000 right-hand-side evaluations\n"
        )

    def test_tight_first_block_flag_is_gone(self):
        assert run(["certify", "--fixture", "scalar", "--tight-first-block"]) == 1


class TestDumpStatesReuse:
    def test_reference_and_lift_computed_once(self, monkeypatch, tmp_path):
        from carleman_lab import carleman, system

        builds = count_calls(monkeypatch, carleman.build_symmetric_lift)
        solves = count_calls(monkeypatch, system.integrate_reference)
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--fixture", "scalar", "--param", "b=0.1", "--k", "3",
                "--dump-states", "--out", str(out)]
        assert run(argv) == 0
        assert len(builds) == 1 and len(solves) == 1
        ref = out.with_suffix(".ref.csv").read_text().splitlines()
        lift = out.with_suffix(".lift.csv").read_text().splitlines()
        # 9 times; the reference has n = 1 coordinate, the order-3 lift 3
        assert len(ref) == 1 + 9 and len(lift) == 1 + 9 * 3
        assert ref[1] == lift[1]
