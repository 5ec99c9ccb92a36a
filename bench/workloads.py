"""The benchmark's workloads: CLI commands, output checks and set-up cases.

A workload is a list of ``dampwave`` CLI commands run in-process through
``dampwave.cli.run_command``. The bench times them (``run_s``), runs them
once under tracemalloc (``peak_mb``) and checks every run's exit code and
output files. Guard commands run once per bench run, untimed, so that every
workload reports the accuracy metrics of fd11, fd22 and oifd on its own
problem. Set-up cases list the solve configurations whose set-up time
``setup_s`` sums.

Why these three workloads:

* paper-repro: the paper's own output (Tables 1 and 2, the figure series, an
  empirical stability check). Many small solves (N <= 50), divergent cells
  at r = 1.59 and a power iteration that runs into its cap. Stresses set-up,
  per-call overhead, the harness and ``spectral_radius``; bypasses large-N
  solves and the expression language.
* sample-large: one fd11 solve of the builtin sample problem at N = 3200,
  stride 1. Factors once and solves many times; zero forcing evaluated by
  builtin Python callables at every node; every step stored. Stresses the
  banded solve, ``apply_poly``, forcing assembly and snapshot storage;
  bypasses the expression language.
* forced-config: a seeded manufactured solution loaded from a JSON config
  and solved with fd11, fd22 and oifd at N = 800. Every term of the PDE goes
  through the expression language, and fd22 puts a wider band through the
  factorization.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "ref")

NAMES = ("paper-repro", "sample-large", "forced-config")
SIZES = ("full", "tiny")

#: relative tolerance on the finite Table 2 cells against the reference
TABLE2_RTOL = 1e-6
#: relative gap allowed between the power-iteration radius and the closed form
EMPIRICAL_RTOL = 1e-3

# Ceilings on the max abs error at t_final, per (workload, size, scheme):
# about three times the largest value measured at the seed commit (over 25
# seeds for forced-config; the other workloads do not depend on the seed).
# They catch a broken scheme; the max_error metrics and their bounds catch a
# smaller loss of accuracy.
ERROR_CEILINGS = {
    ("paper-repro", "full"): {"fd11": 4e-5, "fd22": 5e-5, "oifd": 2.5e-3},
    ("paper-repro", "tiny"): {"fd11": 6e-6, "fd22": 1e-4, "oifd": 5e-3},
    ("sample-large", "full"): {"fd11": 6e-9, "fd22": 8e-9, "oifd": 2.5e-5},
    ("sample-large", "tiny"): {"fd11": 1.5e-6, "fd22": 7e-7, "oifd": 1.3e-4},
    ("forced-config", "full"): {"fd11": 5e-4, "fd22": 4.5e-3, "oifd": 2.2e-7},
    ("forced-config", "tiny"): {"fd11": 7e-3, "fd22": 3.6e-2, "oifd": 1e-3},
}

SCHEME_FLAGS = {
    "fd11": ["--scheme", "fd11"],
    "fd22": ["--scheme", "fdST", "--pade", "2,2"],
    "oifd": ["--scheme", "oifd"],
}

# Solve sizes. forced-config's step count is small because every step walks
# the g expression tree once per node: about 80 ms per step for the three
# schemes together at N = 800.
SAMPLE_LARGE = {"full": {"N": 3200, "steps": 600}, "tiny": {"N": 200, "steps": 20}}
FORCED = {"full": {"N": 800, "steps": 20}, "tiny": {"N": 50, "steps": 10}}
PAPER = {
    "full": {"table2_t": 6.0, "figures_t": 6.0, "stab_N": 50, "guard_t": 6.0},
    "tiny": {"table2_t": 0.6, "figures_t": 0.3, "stab_N": 10, "guard_t": 0.6},
}
PAPER_R = 0.53  # the Table 2 row the paper-repro accuracy metrics read


@dataclass
class Command:
    """One CLI invocation, the files it writes and the check of its output."""

    argv: list
    outputs: list
    check: Callable[[str], list]  # stdout -> list of problems (empty when fine)


@dataclass
class SetupCase:
    """One solve configuration: problem loader, grid size, scheme and step."""

    load: Callable  # () -> DampedWaveProblem
    N: int
    scheme: str
    k: float
    pade: Optional[tuple] = None


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    commands: list
    guards: list
    setup_cases: list
    setup_reps: int  # set-up repetitions after each timed pass
    errors: dict = field(default_factory=dict)  # scheme -> () -> max abs error
    notes: dict = field(default_factory=dict)


# -- CSV helpers --------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _solve_check(path, N, ceiling):
    def check(stdout):
        if not os.path.exists(path):
            return [f"{path}: missing"]
        header, rows = read_csv(path)
        problems = []
        if header != ["x", "numeric", "exact", "abs_error"]:
            problems.append(f"{path}: header {header}")
        if len(rows) != N + 1:
            problems.append(f"{path}: {len(rows)} rows, expected {N + 1}")
        err = _max_abs_error(path)
        if not math.isfinite(err) or err > ceiling:
            problems.append(f"{path}: max abs error {err!r} above ceiling {ceiling!r}")
        return problems

    return check


def _max_abs_error(path):
    _, rows = read_csv(path)
    return max(float(row[3]) for row in rows)


def _solve_command(workdir, problem, scheme, N, r, t_final, tag, ceiling):
    out = os.path.join(workdir, f"solve_{tag}_{scheme}.csv")
    argv = ["solve", "--problem", problem, *SCHEME_FLAGS[scheme], "--N", str(N),
            "--r", repr(r), "--t-final", repr(t_final), "--out", out]
    return Command(argv, [out], _solve_check(out, N, ceiling)), out


def _t_final(steps, N, r, length=math.pi):
    # a quarter step past the last level keeps floor(t/k) at exactly `steps`
    return (steps + 0.25) * r * length / N


# -- paper-repro ----------------------------------------------------------------


def _ref_path(name):
    return os.path.join(REF_DIR, name)


def _table1_check(path):
    ref = _ref_path("table1.csv")

    def check(stdout):
        if not os.path.exists(path):
            return [f"{path}: missing"]
        with open(path, "rb") as a, open(ref, "rb") as b:
            same = a.read() == b.read()
        return [] if same else [f"{path}: not byte-identical to {ref}"]

    return check


def _table2_check(path, size):
    ref = _ref_path(f"table2_{size}.csv")

    def check(stdout):
        if not os.path.exists(path):
            return [f"{path}: missing"]
        header, rows = read_csv(path)
        ref_header, ref_rows = read_csv(ref)
        if header != ref_header or len(rows) != len(ref_rows):
            return [f"{path}: shape differs from {ref}"]
        problems = []
        for row, ref_row in zip(rows, ref_rows):
            cells, ref_cells = dict(zip(header, row)), dict(zip(header, ref_row))
            for col in header:
                if col.endswith("_diverged"):
                    if cells[col] != ref_cells[col]:
                        problems.append(f"{path}: r={ref_cells['r']} {col} flag changed")
                    continue
                if ref_cells.get(f"{col}_diverged") == "true":
                    continue  # a divergent cell's magnitude is not a result
                got, want = float(cells[col]), float(ref_cells[col])
                if not (math.isfinite(got) and abs(got - want) <= TABLE2_RTOL * abs(want)):
                    problems.append(f"{path}: r={ref_cells['r']} {col}={got!r}, reference {want!r}")
        return problems

    return check


def _figures_check(out_dir, size):
    with open(_ref_path(f"figures_{size}.json")) as fh:
        expected = json.load(fh)

    def check(stdout):
        present = sorted(f for f in os.listdir(out_dir) if f.startswith("figures_"))
        if present != sorted(expected):
            return [f"{out_dir}: files {present}, expected {sorted(expected)}"]
        problems = []
        for name, (header, count) in expected.items():
            got_header, rows = read_csv(os.path.join(out_dir, name))
            if got_header != header or len(rows) != count:
                problems.append(f"{name}: header {got_header} with {len(rows)} rows, "
                                f"expected {header} with {count}")
        return problems

    return check


_CLOSED = re.compile(r"implicit \(1,1\) max \|mu\| over modes: (\S+)")
_EMPIRICAL = re.compile(r"empirical spectral radius \(seed=\d+\): (\S+)")


def _stability_check(path):
    def check(stdout):
        closed, empirical = _CLOSED.search(stdout), _EMPIRICAL.search(stdout)
        if not (closed and empirical):
            return ["stability: closed-form or empirical radius missing from stdout"]
        a, b = float(closed.group(1)), float(empirical.group(1))
        problems = []
        if not abs(b - a) <= EMPIRICAL_RTOL * abs(a):
            problems.append(f"stability: empirical radius {b!r} vs closed form {a!r}")
        header = ["condition", "value", "bound", "margin", "passed"]
        if not os.path.exists(path) or read_csv(path)[0] != header:
            problems.append(f"{path}: missing or wrong header")
        return problems

    return check


def _table2_cell(path, scheme):
    header, rows = read_csv(path)
    for row in rows:
        if float(row[0]) == PAPER_R:
            return float(row[header.index(scheme)])
    raise ValueError(f"{path}: no row r={PAPER_R}")


def paper_repro(workdir, seed, size):
    p = PAPER[size]
    ceilings = ERROR_CEILINGS[("paper-repro", size)]
    t1 = os.path.join(workdir, "table1.csv")
    t2 = os.path.join(workdir, "table2.csv")
    figs = os.path.join(workdir, "figures")
    stab = os.path.join(workdir, "stability.csv")
    h = math.pi / p["stab_N"]
    with open(_ref_path(f"figures_{size}.json")) as fh:
        fig_outputs = [os.path.join(figs, name) for name in json.load(fh)]
    commands = [
        Command(["table1", "--out", t1], [t1], _table1_check(t1)),
        Command(["table2", "--out", t2, "--t-final", repr(p["table2_t"])], [t2],
                _table2_check(t2, size)),
        Command(["figures", "--out-dir", figs, "--t-final", repr(p["figures_t"])],
                fig_outputs, _figures_check(figs, size)),
        Command(["stability", "--gamma-max", "2", "--k", "0.05", "--h", repr(h),
                 "--N", str(p["stab_N"]), "--empirical", "--seed", str(seed), "--out", stab],
                [stab], _stability_check(stab)),
    ]
    guard, guard_out = _solve_command(workdir, "sample", "fd22", 50, PAPER_R, p["guard_t"],
                                      "guard", ceilings["fd22"])

    from dampwave import DampedWaveProblem, sample_problem

    def probe():
        # the problem cli._empirical_radius builds for `stability --empirical`
        return DampedWaveProblem(
            domain=(0.0, p["stab_N"] * h), gamma=lambda x: 2.0, g=lambda x, t: 0.0,
            phi=lambda x: 0.0, psi=lambda x: 0.0, u_a=lambda t: 0.0, u_b=lambda t: 0.0,
            name="stability-probe")

    # The solve configurations the four commands make. They are spelled out
    # here, not read from the package, so that a change to the package's
    # constants cannot silently change what setup_s measures.
    schemes = ("oefd", "oifd", "fd01", "fd11")
    cases = [SetupCase(sample_problem, 10, s, 0.1) for s in schemes]
    cases += [SetupCase(sample_problem, 50, s, r * math.pi / 50)
              for r in (1.59, 0.53, 0.32, 0.23, 0.18) for s in schemes]
    cases += [SetupCase(sample_problem, 23, s, 0.05) for s in ("fd01", "fd11")]
    cases += [SetupCase(sample_problem, 50, s, r * math.pi / 50)
              for r in (0.016, 0.159, 0.995, 1.45) for s in schemes]
    cases.append(SetupCase(probe, p["stab_N"], "fd11", 0.05))
    return Workload(
        name="paper-repro", seed=seed, size=size, commands=commands, guards=[guard],
        setup_cases=cases, setup_reps=5,
        errors={
            "fd11": lambda: _table2_cell(t2, "fd11"),
            "fd22": lambda: _max_abs_error(guard_out),
            "oifd": lambda: _table2_cell(t2, "oifd"),
        },
        notes={"stability_seed": seed},
    )


# -- sample-large ---------------------------------------------------------------


def sample_large(workdir, seed, size):
    s = SAMPLE_LARGE[size]
    N, r = s["N"], 0.5
    t_final = _t_final(s["steps"], N, r)
    ceilings = ERROR_CEILINGS[("sample-large", size)]
    cmd, out = _solve_command(workdir, "sample", "fd11", N, r, t_final, "large", ceilings["fd11"])
    guards, outs = [], {"fd11": out}
    for scheme in ("fd22", "oifd"):
        g, outs[scheme] = _solve_command(workdir, "sample", scheme, N, r, t_final, "guard",
                                         ceilings[scheme])
        guards.append(g)

    from dampwave import sample_problem

    return Workload(
        name="sample-large", seed=seed, size=size, commands=[cmd], guards=guards,
        setup_cases=[SetupCase(sample_problem, N, "fd11", r * math.pi / N)],
        setup_reps=1,
        errors={scheme: (lambda p=path: _max_abs_error(p)) for scheme, path in outs.items()},
        notes={"steps": s["steps"], "N": N, "r": r,
               "seed_use": "none: the sample problem has no free parameters"},
    )


# -- forced-config --------------------------------------------------------------


def manufactured_parameters(seed):
    """omega, alpha, beta, c0, c1 of the manufactured solution for a seed.

    The ranges are narrow so that the seeded errors stay within a few
    percent of each other; the expression shape never depends on the seed.
    """
    rng = random.Random(seed)
    return {
        "omega": round(rng.uniform(1.98, 2.02), 6),
        "alpha": round(rng.uniform(0.99, 1.01), 6),
        "beta": round(rng.uniform(0.2475, 0.2525), 6),
        "c0": round(rng.uniform(0.99, 1.01), 6),
        "c1": round(rng.uniform(0.495, 0.505), 6),
    }


def manufactured_config(params):
    """JSON problem config for u = cos(wt) sin x + (a + b x) sin t, gamma = c0 + c1 x."""
    w, a, b, c0, c1 = (repr(params[k]) for k in ("omega", "alpha", "beta", "c0", "c1"))
    gamma = f"{c0} + {c1}*x"
    return {
        "domain": [0.0, math.pi],
        "gamma": gamma,
        "g": (f"(1 - {w}^2)*cos({w}*t)*sin(x) - ({a} + {b}*x)*sin(t)"
              f" + ({gamma})*(-{w}*sin({w}*t)*sin(x) + ({a} + {b}*x)*cos(t))"),
        "phi": "sin(x)",
        "psi": f"{a} + {b}*x",
        "u_a": f"{a}*sin(t)",
        "u_b": f"({a} + {b}*pi)*sin(t)",
        "exact": f"cos({w}*t)*sin(x) + ({a} + {b}*x)*sin(t)",
    }


def forced_config(workdir, seed, size):
    s = FORCED[size]
    N, r = s["N"], 0.5
    t_final = _t_final(s["steps"], N, r)
    ceilings = ERROR_CEILINGS[("forced-config", size)]
    params = manufactured_parameters(seed)
    text = json.dumps(manufactured_config(params), indent=1)
    config_path = os.path.join(workdir, "forced.json")
    with open(config_path, "w") as fh:
        fh.write(text)
    commands, outs = [], {}
    for scheme in ("fd11", "fd22", "oifd"):
        cmd, outs[scheme] = _solve_command(workdir, config_path, scheme, N, r, t_final,
                                           "forced", ceilings[scheme])
        commands.append(cmd)

    from dampwave import load_problem_config

    def load():
        with open(config_path) as fh:
            return load_problem_config(fh.read())

    k = r * math.pi / N
    cases = [SetupCase(load, N, "fd11", k), SetupCase(load, N, "fdST", k, (2, 2)),
             SetupCase(load, N, "oifd", k)]
    return Workload(
        name="forced-config", seed=seed, size=size, commands=commands, guards=[],
        setup_cases=cases, setup_reps=2,
        errors={scheme: (lambda p=path: _max_abs_error(p)) for scheme, path in outs.items()},
        notes={"steps": s["steps"], "N": N, "r": r, "parameters": params},
    )


BUILDERS = {"paper-repro": paper_repro, "sample-large": sample_large,
            "forced-config": forced_config}


def build(name, workdir, seed, size):
    return BUILDERS[name](workdir, seed, size)
