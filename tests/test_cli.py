import argparse
import ast
import csv
import importlib.util
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import dampwave
from dampwave import cli, harness
from dampwave.cli import run_command
from dampwave.linalg import SingularMatrixError
from dampwave.operators import build_grid
from dampwave.problems import load_problem_config
from dampwave.schemes import config_for, solve_evolution
from dampwave.stability import implicit_amplification

from oracles import solve_group_every_level


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


UNDAMPED_DOC = {
    "domain": [0, 3.141592653589793],
    "gamma": "0",
    "g": "0",
    "phi": "sin(x)",
    "psi": "0",
    "u_a": "0",
    "u_b": "0",
}


def assert_matches_every_level_run(tmp_path, capsys, monkeypatch, argv, code):
    """solve holds two levels, and its CSV and output equal those of a run that collects
    every level through on_block; returns stderr."""
    held = []

    def spy(*args, **kwargs):
        trajs = solve_evolution(*args, **kwargs)
        held.extend(traj.states.shape[0] for traj in trajs)
        return trajs

    def run(name):
        out = tmp_path / name
        assert run_command(["solve", *argv, "--out", str(out)]) == code
        return out.read_bytes(), capsys.readouterr()

    monkeypatch.setattr(cli, "solve_evolution", spy)
    ends = run("ends.csv")
    assert held == [2]
    monkeypatch.setattr(cli, "solve_evolution", solve_group_every_level)
    assert run("every.csv") == ends
    return ends[1].err


class TestSolve:
    def test_reference_run(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run_command([
            "solve", "--problem", "sample", "--scheme", "fd11",
            "--N", "10", "--k", "0.1", "--t-final", "0.1", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "numeric", "exact", "abs_error"]
        assert len(rows) == 11
        center = rows[5]
        assert float(center[0]) == pytest.approx(math.pi / 2)
        assert float(center[3]) == pytest.approx(4.01054e-05, rel=1e-5)

    def test_three_step_run(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_command([
            "solve", "--problem", "sample", "--scheme", "fd11",
            "--N", "10", "--k", "0.1", "--t-final", "0.3", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        errs = [float(r[3]) for r in rows]
        assert max(errs) == pytest.approx(8.456962e-05, rel=1e-4)

    def test_r_flag_resolves_k(self, tmp_path):
        out_r = tmp_path / "r.csv"
        out_k = tmp_path / "k.csv"
        h = math.pi / 10
        assert run_command(["solve", "--scheme", "fd01", "--N", "10",
                            "--r", "0.3", "--t-final", "1.0", "--out", str(out_r)]) == 0
        assert run_command(["solve", "--scheme", "fd01", "--N", "10",
                            "--k", str(0.3 * h), "--t-final", "1.0", "--out", str(out_k)]) == 0
        assert out_r.read_bytes() == out_k.read_bytes()

    def test_pade_orders(self, tmp_path):
        out = tmp_path / "st.csv"
        code = run_command(["solve", "--scheme", "fdST", "--pade", "2,2",
                            "--N", "10", "--k", "0.1", "--t-final", "0.3", "--out", str(out)])
        assert code == 0

    def test_missing_required_flags(self, tmp_path, capsys):
        code = run_command(["solve", "--scheme", "fd11", "--N", "10"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_both_N_and_h_rejected(self, tmp_path, capsys):
        # --h is not a solve flag, and it is not read as an abbreviated --help
        out = tmp_path / "x.csv"
        code = run_command(["solve", "--scheme", "fd11", "--N", "10", "--h", "0.1",
                            "--k", "0.1", "--t-final", "0.1", "--out", str(out)])
        assert code == 2
        assert "unrecognized arguments: --h 0.1" in capsys.readouterr().err
        assert not out.exists()

    def test_fdst_without_pade(self, tmp_path):
        code = run_command(["solve", "--scheme", "fdST", "--N", "10",
                            "--k", "0.1", "--t-final", "0.1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("pade", ["a,b", "2.0,2", "2", "2,2,2"])
    def test_malformed_pade_exits_2(self, tmp_path, capsys, pade):
        out = tmp_path / "x.csv"
        code = run_command(["solve", "--scheme", "fdST", "--pade", pade, "--N", "10",
                            "--k", "0.1", "--t-final", "0.1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--pade expects two integers 'S,T', got {pade!r}" in err
        assert "invalid literal" not in err
        assert not out.exists()

    def test_unknown_problem(self, tmp_path, capsys):
        code = run_command(["solve", "--problem", "mystery", "--scheme", "fd11",
                            "--N", "10", "--k", "0.1", "--t-final", "0.1",
                            "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_config_file_problem(self, tmp_path):
        doc = dict(UNDAMPED_DOC, gamma="2", psi="-sin(x)", exact="exp(-t)*sin(x)")
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cfg.csv"
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11",
                            "--N", "10", "--k", "0.1", "--t-final", "0.1", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        errs = [float(r[3]) for r in rows]
        assert max(errs) == pytest.approx(4.01054e-05, rel=1e-5)

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"domain": [0, 1]}))
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11",
                            "--N", "10", "--k", "0.1", "--t-final", "0.1",
                            "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_infinite_domain_exits_2(self, tmp_path, capsys):
        # Python's json reads 1e999 as inf
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, domain=[0, 1])).replace("1]", "1e999]"))
        out = tmp_path / "x.csv"
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11",
                            "--N", "10", "--k", "0.1", "--t-final", "1", "--out", str(out)])
        assert code == 2
        assert "grid needs finite a, b and h" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["solve", "--scheme", "fd11", "--N", "10", "--k", "0.1", "--t-final", "1"],
        ["compare", "--N", "10", "--k", "0.1", "--t-final", "1"],
        ["convergence", "--scheme", "fd11", "--axis", "time", "--base-k", "0.1",
         "--base-N", "10", "--levels", "3", "--t-eval", "0.2"],
    ], ids=["solve", "compare", "convergence"])
    @pytest.mark.parametrize("b", ["1e-300", "1e-160", "1e200"])
    def test_domain_without_finite_inverse_square_mesh_width_exits_2(self, tmp_path, capsys,
                                                                     command, b):
        # with N = 10, h^2 underflows to zero, is subnormal (1/h^2 = inf), or overflows
        cfg = tmp_path / "domain.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, phi="0", exact="0", domain=[0, float(b)])))
        out = tmp_path / "x.csv"
        assert run_command(command + ["--problem", str(cfg), "--out", str(out)]) == 2
        assert "1/h^2 a positive finite float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "(" * 200 + "x" + ")" * 200, "-" * 990 + "x", "^".join(["x"] * 991),
        "+".join(["x"] * 991), "sin(" * 300 + "x" + ")" * 300,
    ], ids=["parens", "minus", "power", "sum", "calls"])
    def test_deep_expression_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, phi=text)))
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11",
                            "--N", "10", "--k", "0.1", "--t-final", "0.1",
                            "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "'phi'" in capsys.readouterr().err

    SOLVE_FD11 = ["solve", "--scheme", "fd11", "--N", "10", "--k", "0.1", "--t-final", "0.1"]

    @pytest.mark.parametrize("text,message,command", [
        ("[" * 100_000, "invalid JSON", SOLVE_FD11),
        (json.dumps(dict(UNDAMPED_DOC, domain=[False, True])), "must be a pair of numbers",
         SOLVE_FD11),
        # an int past the float range, and one past Python's int-parsing digit limit
        (json.dumps(dict(UNDAMPED_DOC, domain=[0, 10**400])), "field 'domain'", SOLVE_FD11),
        ('{"domain": [0, 1' + "0" * 5000 + "]}", "invalid JSON", SOLVE_FD11),
        # non-decimal numerals: names to the scanner, numbers or bad characters before
        (json.dumps(dict(UNDAMPED_DOC, phi="²")), "unknown identifier '²'", SOLVE_FD11),
        (json.dumps(dict(UNDAMPED_DOC, phi="2²")), "unexpected trailing '²'", SOLVE_FD11),
        (json.dumps(dict(UNDAMPED_DOC, phi="x + ½")), "unknown identifier '½'", SOLVE_FD11),
        (json.dumps([UNDAMPED_DOC]), "document must be a JSON object", SOLVE_FD11),
        (json.dumps(dict(UNDAMPED_DOC, gamma=0)), "field 'gamma' must be an expression string",
         SOLVE_FD11),
        # a document without exact, which compare and convergence need
        (json.dumps(UNDAMPED_DOC), "compare needs a problem with an exact solution",
         ["compare", "--N", "10", "--k", "0.1", "--t-final", "0.1"]),
        (json.dumps(UNDAMPED_DOC), "convergence needs a problem with an exact solution",
         ["convergence", "--scheme", "fd11", "--axis", "time", "--base-k", "0.1",
          "--base-N", "10", "--levels", "3", "--t-eval", "0.2"]),
    ], ids=["nested-json", "boolean-domain", "domain-beyond-float", "domain-beyond-digit-limit",
            "superscript-numeral", "superscript-after-number", "fraction-numeral", "json-array",
            "numeric-field", "compare-without-exact", "convergence-without-exact"])
    def test_rejected_document_exits_2(self, tmp_path, capsys, text, message, command):
        cfg = tmp_path / "doc.json"
        cfg.write_text(text)
        code = run_command(command + ["--problem", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["phi", "gamma", "g", "u_b", "exact"])
    def test_non_finite_literal_exits_2(self, tmp_path, capsys, field):
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, **{"exact": "sin(x)", field: "1e400"})))
        out = tmp_path / "x.csv"
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11",
                            "--N", "10", "--k", "0.1", "--t-final", "0.1", "--out", str(out)])
        assert code == 2
        assert f"field '{field}': number '1e400' is not finite at offset 0" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["fd11", "oefd", "oifd"])
    def test_coefficient_failing_at_a_node_exits_2(self, tmp_path, capsys, scheme):
        # N=2 on [0, 2] puts the only interior node at x=1, where g divides by zero
        cfg = tmp_path / "pole.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, domain=[0, 2], phi="0", g="1/(x - 1)")))
        code = run_command(["solve", "--problem", str(cfg), "--scheme", scheme,
                            "--N", "2", "--k", "0.1", "--t-final", "0.1",
                            "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "(1.0 / (x - 1.0))" in capsys.readouterr().err

    @pytest.mark.parametrize("g,message", [
        ("sqrt(x - 1)", "math domain error in 'sqrt((x - 1.0))'"),
        ("1/(x - x)", "float division by zero in '(1.0 / (x - x))'"),
        ("(-8)^x", "non-finite result in '((-8.0) ^ x)'"),
        ("exp(1000*x)", "math range error in 'exp((1000.0 * x))'"),
    ], ids=["domain", "zero-division", "complex-power", "overflow"])
    def test_forcing_failing_at_a_node_names_that_node(self, tmp_path, capsys, g, message):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, g=g)))
        out = tmp_path / "x.csv"
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11",
                            "--N", "20", "--r", "0.5", "--t-final", "0.1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"dampwave: error: {message}\n"
        assert not out.exists()

    def test_blow_up_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "undamped.json"
        cfg.write_text(json.dumps(UNDAMPED_DOC))
        out = tmp_path / "blow.csv"
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd01",
                            "--N", "10", "--r", "5", "--t-final", "600", "--out", str(out)])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        assert out.exists()  # data still written

    @pytest.mark.parametrize("scheme,step", [("fd01", 623), ("oefd", 379)])
    def test_divergence_step_reported(self, tmp_path, capsys, scheme, step):
        # r = 1.59 lies outside both explicit schemes' stability regions
        code = run_command(["solve", "--scheme", scheme, "--N", "50", "--r", "1.59",
                            "--t-final", "80",
                            "--out", str(tmp_path / "blow.csv")])
        assert code == 4
        assert f"non-finite state at step {step} " in capsys.readouterr().err

    def test_error_past_the_blow_up_still_exits_4(self, tmp_path, capsys):
        # g raises from t = 633.5 k on, ten levels past fd01's blow-up at 623
        k = 1.59 * math.pi / 50
        cfg = tmp_path / "late_g.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, gamma="2", psi="-sin(x)",
                                       g=f"0*sqrt({633.5 * k!r} - t)")))
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd01", "--N", "50",
                            "--r", "1.59", "--t-final", "80", "--out", str(tmp_path / "b.csv")])
        assert code == 4
        assert "non-finite state at step 623 " in capsys.readouterr().err

    def test_diverged_velocity_reports_infinite_error(self, tmp_path, capsys):
        # the level fd01 halts at keeps finite displacements beside a non-finite u_t
        code = run_command(["solve", "--scheme", "fd01", "--N", "10", "--k", "1.5",
                            "--t-final", "3000",
                            "--out", str(tmp_path / "blow.csv")])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == "fd01: t=502.5 max abs error = inf\n"
        assert "non-finite state at step 335 " in err

    @pytest.mark.parametrize("argv,message", [
        (["--scheme", "fd11", "--N", "10", "--k", "0.1", "--t-final", "inf"],
         "t_final must be positive and finite, got inf"),
        (["--scheme", "oefd", "--N", "10", "--k", "inf", "--t-final", "1"],
         "time step must be positive and finite, got k=inf"),
        (["--scheme", "fd11", "--N", "10", "--k", "1e-320", "--t-final", "1e10"],
         "run would need inf steps"),
    ], ids=["t-final-inf", "k-inf", "k-subnormal"])
    def test_non_finite_time_input_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        assert run_command(["solve"] + argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mesh,message", [
        (["--N", "2000000"], "N=2000000 subintervals exceeds the bound 1000000"),
    ], ids=["N"])
    def test_grid_size_bound_exits_2(self, tmp_path, capsys, mesh, message):
        out = tmp_path / "x.csv"
        argv = ["solve", "--scheme", "fd11", "--k", "0.1", "--t-final", "0.1"]
        assert run_command(argv + mesh + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["sample", "forced-no-exact"])
    @pytest.mark.parametrize("scheme", [["fd01"], ["fd11"], ["fdST", "--pade", "2,2"],
                                        ["oefd"], ["oifd"]], ids=["fd01", "fd11", "fd22",
                                                                  "oefd", "oifd"])
    def test_output_matches_every_level_run(self, tmp_path, capsys, monkeypatch, scheme,
                                            problem):
        if problem != "sample":
            doc = dict(UNDAMPED_DOC, gamma="1 + x", g="x*t", psi="-sin(x)", u_a="sin(t)",
                       u_b="t")
            problem = tmp_path / "forced.json"
            problem.write_text(json.dumps(doc))
        argv = ["--problem", str(problem), "--scheme", *scheme, "--N", "12", "--r", "0.5",
                "--t-final", "1.3"]
        assert_matches_every_level_run(tmp_path, capsys, monkeypatch, argv, 0)

    def test_blow_up_matches_every_level_run(self, tmp_path, capsys, monkeypatch):
        argv = ["--scheme", "fd01", "--N", "50", "--r", "1.59", "--t-final", "80"]
        err = assert_matches_every_level_run(tmp_path, capsys, monkeypatch, argv, 4)
        assert "non-finite state at step 623 " in err

    def test_blow_up_at_r3_matches_every_level_run(self, tmp_path, capsys, monkeypatch):
        argv = ["--scheme", "fd01", "--N", "50", "--r", "3", "--t-final", "100"]
        err = assert_matches_every_level_run(tmp_path, capsys, monkeypatch, argv, 4)
        assert "non-finite state at step 414 " in err

    def test_solution_profile_without_exact(self, tmp_path):
        doc = json.dumps(dict(UNDAMPED_DOC, gamma="2", psi="-sin(x)", u_a="sin(t)", u_b="t"))
        cfg = tmp_path / "noexact.json"
        cfg.write_text(doc)
        out = tmp_path / "sol.csv"
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11",
                            "--N", "8", "--k", "0.1", "--t-final", "0.55", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "numeric"]
        assert len(rows) == 9
        problem = load_problem_config(doc)
        grid = build_grid(0.0, math.pi, 8)
        (traj,) = solve_evolution(problem, grid, (config_for("fd11", 0.1),), 0.55)
        t = float(traj.times[-1])
        assert t == pytest.approx(0.5)
        x, numeric = np.array(rows, dtype=float).T
        assert np.array_equal(x, grid.all_nodes())
        assert numeric[0] == problem.u_a(t) == pytest.approx(math.sin(0.5), rel=1e-15)
        assert numeric[-1] == problem.u_b(t) == pytest.approx(0.5, rel=1e-15)
        assert np.array_equal(numeric[1:-1], traj.displacements[-1])


class TestCompare:
    def test_runs_all_schemes(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run_command(["compare", "--N", "10", "--k", "0.1",
                            "--t-final", "0.3", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "oefd", "oifd", "fd01", "fd11"]
        assert len(rows) == 11
        assert "fd11" in capsys.readouterr().out

    def test_divergence_reported_as_data(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run_command(["compare", "--N", "50", "--r", "1.59",
                            "--t-final", "6.0", "--out", str(out)])
        assert code == 0
        assert "diverged" in capsys.readouterr().out


class TestStability:
    def test_stable_report(self, capsys):
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.01", "--h", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: stable" in out
        assert out.count("pass") == 2
        assert "margin" in out

    def test_unstable_report(self, capsys):
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.1",
                            "--h", str(math.pi / 10)])
        assert code == 0
        assert "verdict: unstable" in capsys.readouterr().out

    def test_spectrum_and_empirical(self, capsys):
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.05",
                            "--h", str(math.pi / 10), "--N", "10",
                            "--empirical", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max |mu|" in out
        assert "empirical" in out
        analytic = float(out.split("max |mu| over modes:")[1].split()[0])
        empirical = float(out.split("(seed=3):")[1].split()[0])
        assert empirical == pytest.approx(analytic, rel=1e-10)

    def test_empirical_at_bench_configuration(self, capsys):
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.05",
                            "--h", repr(math.pi / 50), "--N", "50",
                            "--empirical", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        analytic = float(out.split("max |mu| over modes:")[1].split()[0])
        empirical = float(out.split("empirical spectral radius (seed=5):")[1].split()[0])
        assert analytic == pytest.approx(0.969829531, rel=1e-9)
        assert empirical == pytest.approx(analytic, rel=1e-10)

    def test_empirical_on_the_schur_path(self, capsys):
        # from TRIDIAGONAL_MIN_N interior nodes fd11's step is D + rho resolvent, the resolvent
        # solved through the Schur complement's LDL^T
        assert 200 - 1 >= dampwave.schemes.TRIDIAGONAL_MIN_N
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.05",
                            "--h", repr(math.pi / 200), "--N", "200",
                            "--empirical", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        closed = implicit_amplification(200, math.pi / 200, 0.05, 2.0).max_modulus
        empirical = float(out.split("empirical spectral radius (seed=5):")[1].split()[0])
        assert empirical == pytest.approx(closed, rel=1e-10)

    def test_empirical_size_bound_exits_2(self, capsys):
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.05",
                            "--h", "0.003", "--N", "1002", "--empirical"])
        assert code == 2
        out, err = capsys.readouterr()
        assert "--empirical at N=1002" in err and "size 2000" in err
        assert out == ""  # the verdict lines are not printed before the failure

    def test_spectrum_grid_size_bound_exits_2(self, capsys):
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.05",
                            "--h", "0.1", "--N", str(10**19)])
        assert code == 2
        assert f"got N={10**19}" in capsys.readouterr().err

    def test_out_csv(self, tmp_path):
        out = tmp_path / "stab.csv"
        code = run_command(["stability", "--gamma-max", "0", "--k", "0.1",
                            "--h", "0.5", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["condition", "value", "bound", "margin", "passed"]
        assert rows[1][4] == "false"  # mesh-ratio condition unsatisfiable

    @pytest.mark.parametrize("flag,value,named", [
        ("--gamma-max", "nan", "gamma*=nan"), ("--gamma-max", "inf", "gamma*=inf"),
        ("--k", "inf", "k=inf"), ("--h", "inf", "h=inf"),
    ])
    def test_non_finite_input_exits_2(self, capsys, flag, value, named):
        argv = {"--gamma-max": "2", "--k": "0.1", "--h": "0.1", flag: value}
        code = run_command(["stability", *(a for kv in argv.items() for a in kv), "--N", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert "need finite k, h and gamma*" in captured.err and named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("h", ["1e-200", "1e200"])
    def test_spectrum_mesh_width_out_of_float_range_exits_2(self, capsys, h):
        # h**2 underflows to zero at 1e-200 and overflows at 1e200
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.1", "--h", h, "--N", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"mesh width h={float(h)}" in err and "Traceback" not in err

    @pytest.mark.parametrize("gamma,k", [("1e200", "0.05"), ("2", "1e308")],
                             ids=["gamma-squared", "k-lambda"])
    def test_spectrum_overflow_exits_2(self, capsys, gamma, k):
        # finite inputs whose spectrum overflows: gamma*^2 at 1e200, k lambda at k = 1e308
        code = run_command(["stability", "--gamma-max", gamma, "--k", k, "--h", "0.1",
                            "--N", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "implicit spectrum outside the finite floats" in captured.err
        assert captured.out == ""

    def test_empirical_requires_N(self, capsys):
        code = run_command(["stability", "--gamma-max", "2", "--k", "0.1",
                            "--h", "0.5", "--empirical"])
        assert code == 2
        assert capsys.readouterr().out == ""


class TestConvergence:
    def test_time_axis(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = run_command(["convergence", "--scheme", "fd11", "--axis", "time",
                            "--base-k", "0.15", "--base-N", "200", "--levels", "3",
                            "--t-eval", "0.3", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["level", "k", "max_error", "order"]
        assert len(rows) == 3
        assert rows[0][3] == ""
        assert float(rows[1][3]) == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("argv,message", [
        (["--axis", "time", "--levels", "21"], "run would need 1.04858e+07 steps (cap 10000000)"),
        (["--axis", "space", "--levels", "30"],
         "grid of N=1310720 subintervals exceeds the bound 1000000"),
    ], ids=["time", "space"])
    def test_level_past_a_bound_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         argv, message):
        solves = []
        monkeypatch.setattr(harness, "solve_evolution", lambda *args, **kw: solves.append(args))
        out = tmp_path / "conv.csv"
        code = run_command(["convergence", "--scheme", "fd11", *argv, "--base-k", "0.1",
                            "--base-N", "10", "--t-eval", "1", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert solves == [] and not out.exists()

    def test_a_flat_order_gets_one_note(self, tmp_path, capsys):
        # at N=40 the space error floors the time study from level 1 on: stdout, the CSV and
        # the exit code are as without the note
        code = run_command(["convergence", "--scheme", "fd11", "--axis", "time",
                            "--base-k", "0.1", "--base-N", "40", "--levels", "4",
                            "--t-eval", "0.5", "--out", str(tmp_path / "conv.csv")])
        assert code == 0
        captured = capsys.readouterr()
        assert [line.rsplit("order=", 1)[1] for line in captured.out.splitlines()] == [
            "-", "3.141", "0.069", "-0.597"]
        assert captured.err == ("dampwave: note: the error stops falling from level 1 to 2 "
                                "(order 0.069); the fixed N=40 may limit it\n")
        assert [f"{float(row[3]):.3f}" for row in read_csv(tmp_path / "conv.csv")[1][1:]] == [
            "3.141", "0.069", "-0.597"]

    def test_a_converging_study_gets_no_note(self, tmp_path, capsys):
        # the CI step's study, orders about 2
        code = run_command(["convergence", "--scheme", "fd11", "--axis", "time",
                            "--base-k", "0.1", "--base-N", "200", "--levels", "3",
                            "--t-eval", "1", "--out", str(tmp_path / "conv.csv")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_level_off_t_eval_exits_2(self, tmp_path, capsys):
        code = run_command(["convergence", "--scheme", "fd11", "--axis", "time",
                            "--base-k", "0.1", "--base-N", "40", "--levels", "4",
                            "--t-eval", "0.55", "--out", str(tmp_path / "conv.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert "level 0 (k=0.1)" in captured.err and "t=0.5" in captured.err
        assert "order=" not in captured.out


class TestTables:
    def test_table1_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_command(["table1", "--out", str(out1)]) == 0
        assert run_command(["table1", "--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        header, rows = read_csv(out1)
        assert len(rows) == 11
        center = rows[5]
        assert float(center[4]) == pytest.approx(4.01054e-05, rel=1e-5)

    def test_compare_writes_table1(self, tmp_path):
        table1, compare = tmp_path / "table1.csv", tmp_path / "compare.csv"
        assert run_command(["table1", "--out", str(table1)]) == 0
        assert run_command(["compare", "--problem", "sample", "--N", "10", "--k", "0.1",
                            "--t-final", "0.1", "--out", str(compare)]) == 0
        assert compare.read_bytes() == table1.read_bytes()

    def test_table2(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        code = run_command(["table2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert len(rows) == 5
        assert "fd01" in capsys.readouterr().out  # divergence note printed


class TestFigures:
    def test_emits_series(self, tmp_path, capsys):
        code = run_command(["figures", "--out-dir", str(tmp_path), "--t-final", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N=23" in out
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "figures_fd01_profile_N23_k0.05_t1.csv" in files
        assert "figures_fd11_profile_N23_k0.05_t1.csv" in files
        assert sum(1 for f in files if "maxerr" in f) == 16

    def test_prints_the_note_and_every_path_in_order(self, tmp_path, capsys, set_cpus):
        profiles = [f"figures_{s}_profile_N23_k0.05_t1.csv" for s in ("fd01", "fd11")]
        series = [f"figures_{s}_maxerr_r{r}.csv"
                  for r in cli.FIGURE_R_VALUES for s in harness.TABLE_SCHEMES]
        for cpus in (1, 2):
            set_cpus(cpus)
            assert run_command(["figures", "--out-dir", str(tmp_path), "--t-final", "0.1"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith("note: profile mesh uses N=23")
            assert lines[1:] == [f"wrote {tmp_path / name}" for name in profiles + series]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    def test_blas_restarts_no_worker_thread_after_the_fork(self, tmp_path):
        # the dense lanes' eigvals and products run on one BLAS thread: a threaded call after
        # the fan-out's fork would restart a worker, which spins beside the other process.
        # In a fresh process, so that pytest's own threads do not count.
        script = f"""if True:
            import contextlib, io, os
            os.sched_getaffinity = lambda pid: {{0, 1}}
            from dampwave.cli import run_command
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_command(["figures", "--out-dir", {str(tmp_path)!r}]) == 0
            print(len(os.listdir("/proc/self/task")))
        """
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "1\n"

    def test_a_failed_write_in_a_series_exits_2(self, tmp_path, capsys, set_cpus):
        # at this --t-final the parent runs the r = 0.016 (oefd, oifd) lane and the (fd01,
        # fd11) lanes at r = 0.159 and 1.45, the child the other five
        set_cpus(2)
        for name in ("figures_fd11_maxerr_r0.016.csv", "figures_oefd_maxerr_r0.016.csv"):
            path = tmp_path / name[:-4] / name
            path.mkdir(parents=True)
            assert run_command(["figures", "--out-dir", str(path.parent), "--t-final", "0.1"]) == 2
            assert capsys.readouterr().err == (f"dampwave: error: cannot write CSV to '{path}': "
                                               f"[Errno 21] Is a directory: '{path}'\n")

    def test_no_worker_outlives_the_command(self, tmp_path, capsys, monkeypatch, set_cpus):
        set_cpus(2)
        assert run_command(["figures", "--out-dir", str(tmp_path), "--t-final", "0.1"]) == 0
        (tmp_path / "figures_oefd_maxerr_r0.159.csv").unlink()
        (tmp_path / "figures_oefd_maxerr_r0.159.csv").mkdir()  # a lane of the child's
        assert run_command(["figures", "--out-dir", str(tmp_path), "--t-final", "0.1"]) == 2
        assert multiprocessing.active_children() == []
        parent, series = os.getpid(), cli._figure_series

        def exits_in_the_child(*job):  # the child dies before it replies
            if os.getpid() != parent:
                os._exit(9)
            return series(*job)

        monkeypatch.setattr(cli, "_figure_series", exits_in_the_child)
        with pytest.raises(RuntimeError, match="exited with code 9 "):
            run_command(["figures", "--out-dir", str(tmp_path), "--t-final", "0.1"])
        assert multiprocessing.active_children() == []

        def fails_in_the_parent(*job):  # the parent's share raises while the child runs
            if os.getpid() == parent:
                raise ValueError("the parent's share failed")
            time.sleep(0.1)
            return series(*job)

        monkeypatch.setattr(cli, "_figure_series", fails_in_the_parent)
        capsys.readouterr()
        assert run_command(["figures", "--out-dir", str(tmp_path), "--t-final", "0.1"]) == 2
        assert capsys.readouterr().err == "dampwave: error: the parent's share failed\n"
        assert multiprocessing.active_children() == []

    def test_one_cpu_starts_no_child(self, tmp_path, capsys, monkeypatch, set_cpus):
        # table2's rows and figures' lanes all run in the parent, with no child alive,
        # and write what a run that forks writes
        parent, calls = os.getpid(), []

        def spy(run):
            def spied(*args):
                calls.append((os.getpid(), multiprocessing.active_children()))
                return run(*args)
            return spied

        monkeypatch.setattr(harness, "compare_schemes", spy(harness.compare_schemes))
        monkeypatch.setattr(cli, "_figure_series", spy(cli._figure_series))
        outputs = {}
        for cpus in (2, 1):
            set_cpus(cpus)
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            calls.clear()
            assert run_command(["table2", "--out", str(out / "table2.csv"), "--t-final", "1"]) == 0
            assert run_command(["figures", "--out-dir", str(out), "--t-final", "0.1"]) == 0
            outputs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
            # of 5 rows and 8 lanes, the forking parent's shares are rows 0, 1, 4 and 3 lanes
            assert len(calls) == (13 if cpus == 1 else 6)
        assert calls == [(parent, [])] * 13
        assert len(outputs[1]) == 19 and outputs[1] == outputs[2]

    # 0.09 lies below the largest series step, 1.45 pi/50 = 0.0911
    @pytest.mark.parametrize("t_final", ["0", "0.09"])
    def test_t_final_rejected_before_any_file(self, tmp_path, capsys, t_final):
        code = run_command(["figures", "--out-dir", str(tmp_path), "--t-final", t_final])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "t_final" in err
        assert list(tmp_path.iterdir()) == []


class TestRunShorterThanOneStep:
    """t_final < k has no step to report: the command exits 2 and writes nothing,
    where it used to report the initial data as the answer; so does an option that does
    not apply to the scheme."""

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--scheme", "fd11", "--N", "10", "--k", "0.1", "--t-final", "0.05"],
         "t_final=0.05 is shorter than one time step k=0.1"),
        (["compare", "--N", "10", "--k", "0.1", "--t-final", "0.05"],
         "t_final=0.05 is shorter than one time step k=0.1"),
        (["table2", "--t-final", "0.01"], "t_final=0.01 is shorter than one time step k="),
        (["solve", "--scheme", "fd11", "--pade", "2,2", "--N", "10", "--k", "0.1",
          "--t-final", "1"], "--pade only applies to --scheme fdST"),
    ], ids=["solve", "compare", "table2", "pade-without-fdST"])
    def test_exits_2_without_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        assert run_command(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("dampwave: error: ") and message in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestErrorWiring:
    def test_numerical_failure_exits_3(self, monkeypatch, capsys):
        def boom(**kwargs):
            raise SingularMatrixError("numerically singular: pivot 0 at position 0")

        monkeypatch.setattr(cli.harness, "reproduce_table1", boom)
        code = run_command(["table1", "--out", "x.csv"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys, monkeypatch):
        # each help text is the same on a repeated call in one process
        monkeypatch.setenv("COLUMNS", "100")
        for argv in (["--help"], *([command, "--help"] for command in cli._COMMANDS)):
            assert run_command(argv) == 0
            first = capsys.readouterr()
            assert first.out.startswith("usage: dampwave") and first.err == ""
            assert run_command(argv) == 0
            assert capsys.readouterr() == first

    @pytest.mark.parametrize("argv", [
        ["solve", "--scheme", "fd11", "--N", "10", "--k", "0.1", "--t-final", "0.1",
         "--stride", "1"],
        ["table1", "--N", "10"], ["table1", "--k", "0.1"], ["table1", "--t-eval", "0.3"],
        ["table2", "--h", "0.1"],
        ["compare", "--h", "0.3", "--N", "10", "--k", "0.1", "--t-final", "0.1"],
    ], ids=["solve-stride", "table1-N", "table1-k", "table1-t-eval", "table2-h", "compare-h"])
    def test_removed_settings_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run_command(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_builtin_document_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "builtin.json"
        cfg.write_text(json.dumps({"builtin": "sample"}))
        out = tmp_path / "x.csv"
        code = run_command(["solve", "--problem", str(cfg), "--scheme", "fd11", "--N", "10",
                            "--k", "0.1", "--t-final", "0.1", "--out", str(out)])
        assert code == 2
        assert "missing field 'domain'" in capsys.readouterr().err
        assert not out.exists()


class TestSubcommandArguments:
    """A command builds only its own subcommand's arguments; repeated calls in one process
    each give what a first call gives."""

    SOLVE = ["solve", "--problem", "sample", "--scheme", "fd11", "--N", "10", "--t-final",
             "0.3"]

    def run(self, capsys, argv):
        code = run_command(argv)
        return code, *capsys.readouterr()

    def solve(self, capsys, path, step):
        return self.run(capsys, self.SOLVE + [*step, "--out", str(path)]), path.read_bytes()

    def test_only_the_parsed_command_has_its_arguments(self, monkeypatch):
        # a command builds the top-level parser and its own subcommand's, and --help of
        # the top level builds no subcommand's
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.build_parser().parse_args(["table2"]).t_final == 6.0
        assert len(built) == 2
        built.clear()
        forced = ["solve", "--problem", "forced.json", "--scheme", "fdST", "--pade", "2,2",
                  "--N", "800", "--r", "0.5", "--t-final", "0.04", "--out", "forced.csv"]
        assert cli.build_parser().parse_args(forced).pade == "2,2"
        assert len(built) == 2
        built.clear()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--help"])
        assert len(built) == 1

    class EagerSubcommand(argparse.ArgumentParser):
        """The subcommand parser as it was before the stand-in: built, with its arguments,
        when build_parser adds it."""

        def __init__(self, *, arguments, **kwargs):
            super().__init__(**kwargs)
            arguments(self)

    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in cli._COMMANDS), [],
        ["bogus"], ["-1", "solve"], ["--foo", "table1"], ["--", "table1"],
        ["solve", "--he"], ["solve", "--N", "ten"],
        ["solve", "--scheme", "fd11", "--N", "10", "--k", "0.1", "--t-final", "0.3"],
        ["solve", "--k", "0.1", "--r", "0.2"],
    ], ids=" ".join)
    def test_same_text_as_an_eager_parser(self, capsys, monkeypatch, argv):
        lazy = self.run(capsys, argv)
        monkeypatch.setattr(cli, "_Subcommand", self.EagerSubcommand)
        assert self.run(capsys, argv) == lazy

    def test_usage_error_then_solve(self, tmp_path, capsys):
        bad = ["solve", "--scheme", "fd11", "--N", "ten"]
        first = self.run(capsys, bad)
        assert first[0] == 2 and "invalid int value: 'ten'" in first[2]
        after = self.solve(capsys, tmp_path / "after.csv", ["--k", "0.1"])
        assert self.run(capsys, bad) == first
        again = self.solve(capsys, tmp_path / "again.csv", ["--k", "0.1"])
        assert after == again and after[0][0] == 0

    def test_step_flag_does_not_leak(self, tmp_path, capsys):
        first = self.solve(capsys, tmp_path / "first.csv", ["--r", "0.2"])
        with_k = self.solve(capsys, tmp_path / "k.csv", ["--k", "0.1"])
        assert self.solve(capsys, tmp_path / "r.csv", ["--r", "0.2"]) == first != with_k
        args = cli.build_parser().parse_args(self.SOLVE + ["--r", "0.2", "--out", "x.csv"])
        assert args.k is None and args.r == 0.2


class TestSetUpOverflow:
    """Overflow in a solve's set-up is a blow-up at level 1, warning-free."""

    @pytest.mark.parametrize("fields,argv", [
        # u^1's Laplacian of phi = 1e308 sin x; u_b matches phi at the corner
        (dict(phi="1e308*sin(x)", u_b="1e308*sin(pi)"), ["--scheme", "oefd"]),
        (dict(phi="1e308*sin(x)", u_b="1e308*sin(pi)"), ["--scheme", "oifd"]),
        # the forcing B/h^2 that a steady problem evaluates once in make_stepper
        (dict(phi="x/pi*1e308", u_b="1e308"), ["--scheme", "fd01"]),
        (dict(phi="x/pi*1e308", u_b="1e308"), ["--scheme", "fdST", "--pade", "2,2"]),
        # Q_2(kM)'s (k gamma)^2 entries
        (dict(gamma="1e200"), ["--scheme", "fdST", "--pade", "2,2"]),
    ], ids=["oefd-start", "oifd-ghost-start", "fd01-steady-forcing", "fd22-steady-forcing",
            "fd22-denominator"])
    def test_exits_4_at_step_1(self, tmp_path, capsys, fields, argv):
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps(dict(UNDAMPED_DOC, **fields)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(["solve", "--problem", str(cfg), *argv, "--N", "50",
                                "--r", "0.5", "--t-final", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 4
        assert "non-finite state at step 1 " in capsys.readouterr().err

    # r^2 = 1e310 overflows as a Python float; oefd's Taylor start u^1 needs only k^2
    # (finite), so it blows up at its first step, level 2, where oifd's ghost start is
    # already non-finite at level 1
    @pytest.mark.parametrize("scheme,t_final,code,step", [
        ("oefd", "1e154", 0, None), ("oefd", "3e154", 4, 2), ("oifd", "1e154", 4, 1),
    ], ids=["oefd-start", "oefd", "oifd"])
    def test_courant_ratio_squared_past_the_float_range(self, tmp_path, capsys, scheme,
                                                       t_final, code, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_command(["solve", "--scheme", scheme, "--N", "50", "--r", "1e155",
                               "--t-final", t_final, "--out", str(tmp_path / "x.csv")])
        assert got == code
        err = capsys.readouterr().err
        assert step is None and err == "" or f"non-finite state at step {step} " in err

    def test_a_huge_courant_ratio_on_the_tridiagonal_path(self, tmp_path, capsys):
        # at N=200 fd11 solves its Schur complement over c = k/2, whose c/h^2 is finite where
        # c^2/h^2 overflows: it exits 0 with the sample problem's |u| <= 1 (R(-inf) = -1);
        # oifd's r^2/2 overflows in its left-hand side, a blow-up at its ghost start
        argv = ["solve", "--N", "200", "--r", "1e155", "--t-final", "3e154"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fd11 = run_command([*argv, "--scheme", "fd11", "--out", str(tmp_path / "fd11.csv")])
            oifd = run_command([*argv, "--scheme", "oifd", "--out", str(tmp_path / "oifd.csv")])
        assert (fd11, oifd) == (0, 4)
        assert "non-finite state at step 1 " in capsys.readouterr().err
        _, rows = read_csv(tmp_path / "fd11.csv")
        assert abs(max(abs(float(row[1])) for row in rows) - 1.0) <= 1e-9


# the expression grammar over a field's variables, with constants near the float
# range's edges
def expressions(variables):
    atoms = st.sampled_from(["0", "1", "0.5", "2", "700", "1e155", "1e308", "1e-320", "pi",
                             *variables])
    return st.recursive(atoms, lambda inner: st.one_of(
        inner.map(lambda e: f"-({e})"),
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda p: f"({p[0]}){p[1]}({p[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), inner)
        .map(lambda p: f"{p[0]}({p[1]})"),
    ), max_leaves=5)


CONFIG_FIELDS = st.fixed_dictionaries(
    {"gamma": expressions("x").map(lambda e: f"abs({e})"),
     "g": expressions("xt"), "phi": expressions("x"), "psi": expressions("x"),
     "u_a": expressions("t"), "u_b": expressions("t")},
    optional={"exact": expressions("xt")})
SOLVE_SCHEMES = [["fd01"], ["fd11"], ["fdST", "--pade", "2,2"], ["fdST", "--pade", "3,3"],
                 ["oefd"], ["oifd"]]


class TestGeneratedConfigs:
    """No config the grammar can write makes solve raise: it exits 0, 2, 3 or 4."""

    # no shrink phase: shrinking r toward an overflow edge takes minutes per failure
    @settings(max_examples=150, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(fields=CONFIG_FIELDS, scheme=st.sampled_from(SOLVE_SCHEMES),
           N=st.sampled_from([2, 3, 8, 20]),
           r=st.one_of(st.sampled_from([0.5, 1.59, 1e155]), st.floats(1e-3, 1e155)),
           steps=st.sampled_from([1, 2, 70]))
    # finite endpoint data 1e308 away from the exact solution: the error overflows to inf
    @example(fields={"u_b": "1e308", "exact": "-(abs(1e308))", "gamma": "0.5", "g": "-(1e308)",
                     "phi": "sin(1e308)", "psi": "-(sin(x))", "u_a": "0"},
             scheme=["oifd"], N=20, r=1.59, steps=1)
    def test_solve_exits_with_a_code(self, fields, scheme, N, r, steps):
        t_final = (steps + 0.5) * r * math.pi / N
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "initial/boundary mismatch", UserWarning)
            cfg = os.path.join(tmp, "generated.json")
            with open(cfg, "w") as fh:
                json.dump(dict(fields, domain=[0, math.pi]), fh)
            code = run_command(["solve", "--problem", cfg, "--scheme", *scheme, "--N", str(N),
                                "--r", repr(r), "--t-final", repr(t_final),
                                "--out", os.path.join(tmp, "x.csv")])
        assert code in (0, 2, 3, 4)


class TestPackageRoot:
    def test_root_names_are_what_the_bench_reads(self):
        assert sorted(dampwave.__all__) == [
            "DampedWaveProblem", "assemble_system", "build_grid", "config_for",
            "load_problem_config", "make_stepper", "sample_problem",
        ]
        for name in dampwave.__all__:
            assert callable(getattr(dampwave, name))

    def test_every_traced_name_stays_bound(self):
        # each per-layer bench metric reads null when no name of its bucket is bound;
        # ("cli", "step_semigroup") is the step `stability --empirical` measures
        spec = importlib.util.spec_from_file_location(
            "bench_tracer", pathlib.Path(__file__).parents[1] / "bench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        unbound = [(module, name) for module, name, _ in tracer.PATCH_POINTS
                   if not callable(getattr(getattr(dampwave, module), name, None))]
        assert unbound == []

    def test_make_stepper_takes_what_the_bench_set_up_passes(self):
        # bench/run.py measure_setup: config_for(scheme, k, pade), then
        # make_stepper(config, op, grid, problem) positionally
        problem = dampwave.sample_problem()
        grid = dampwave.build_grid(*problem.domain, 50)
        op = dampwave.assemble_system(grid, problem)
        for scheme, pade in (("fd11", None), ("fdST", (2, 2)), ("oifd", None)):
            config = dampwave.config_for(scheme, 0.5 * grid.h, pade)
            stepper = dampwave.make_stepper(config, op, grid, problem)
            # the one-member lane: a state holds one column per member, and the lane holds
            # one finish record per member, not a stepper
            assert len(stepper.members) == 1
            assert not any(isinstance(m, (dampwave.schemes.SemigroupStepper,
                                          dampwave.schemes.BaselineStepper))
                           for m in stepper.members)
            assert stepper.start[0].values.shape in ((op.size, 1), (grid.n_interior, 1))

    @pytest.mark.parametrize("path", sorted(pathlib.Path(dampwave.__file__).parent.glob("*.py")),
                             ids=lambda path: path.name)
    def test_every_imported_name_is_used(self, path):
        # a name the module imports is read somewhere in it, or re-exported in __all__
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        assert sorted(imported - used) == []

    @pytest.mark.parametrize("module", ["schemes", "linalg", "harness", "stability"])
    def test_cli_import_binds_the_traced_modules(self, module):
        # the bench imports dampwave.cli, then patches names on these modules
        assert getattr(dampwave, module).__name__ == f"dampwave.{module}"
