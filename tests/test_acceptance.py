"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts. Every tolerance is pinned here.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dampwave.cli import run_command
from dampwave.harness import observed_order, reproduce_table1, reproduce_table2
from dampwave.operators import assemble_system, build_grid
from dampwave.pade import pade_coefficients
from dampwave.problems import sample_problem
from dampwave.schemes import (
    StateVector,
    config_for,
    make_stepper,
    solve_evolution,
    step_semigroup,
)
from dampwave.stability import check_explicit_stability, implicit_amplification

from oracles import (
    QuadraticCoeffs, jury_stable, matrix_exponential, solve_group_every_level,
)
from test_schemes import FORCED_DOC

GAMMA_STAR = 2.0  # damping maximum of the sample problem

#: the committed Table 1 and Table 2 references, which the benchmark also reads
REF_DIR = Path(__file__).resolve().parents[1] / "bench" / "ref"

#: SHA-256 of each `figures` CSV at the default --t-final 6. A change that
#: means to alter a figure's bytes updates its digest here and says why.
FIGURE_DIGESTS = {
    "figures_fd01_maxerr_r0.016.csv":
        "5131048ce2044d728356de68101fd7f6c9f85157eb787236ac94e6c5d964533f",
    "figures_fd01_maxerr_r0.159.csv":
        "69f6b5e7b608338b000cce1dbe39da2a6dceecef7ac6694f53330abd00749fb3",
    "figures_fd01_maxerr_r0.995.csv":
        "057ab6541e4a4bc2d2e0cc4c30858e9fae637ec9a49b4857389e647de22de5f0",
    "figures_fd01_maxerr_r1.45.csv":
        "031bd085d98ee848b933bbae6c81e43f049472cbf0bf40c9c3c6fc19a0be4374",
    "figures_fd01_profile_N23_k0.05_t1.csv":
        "aad2966dae93acb82e8ba0d8cd1ed8d8cc474395d71d48ee3d7e24ede0c6b997",
    "figures_fd11_maxerr_r0.016.csv":
        "714b443c4c994b675b88cd24ba08ff46d02e0950b380e67d2932ce34481d6c71",
    "figures_fd11_maxerr_r0.159.csv":
        "f8a096aa8405be61d21c81d44814d4faad316d62140bb7cc33dae660dececefa",
    "figures_fd11_maxerr_r0.995.csv":
        "bb746110ba57de2f299985a56a708104fe960d365524162db298c5cc00715aa4",
    "figures_fd11_maxerr_r1.45.csv":
        "43ce473ce363840fefc8f62ddd0d88e0d820a159db5a3845dabe66d2b6ed71af",
    "figures_fd11_profile_N23_k0.05_t1.csv":
        "ca79da5615518c91a46638d55a4134346118fcb9b71332c0862a986a5400bef6",
    "figures_oefd_maxerr_r0.016.csv":
        "ed896707280c903c6f2ae1bfe73361d08f17ab42e454f6d3e89a5ea313c2e76e",
    "figures_oefd_maxerr_r0.159.csv":
        "167dab8002313277fa6e4c2ae54be234c45a94b345f917bdd1ad19083ce58e88",
    "figures_oefd_maxerr_r0.995.csv":
        "1a296ef1c88e30e6f322f77a24617f5f8f986b47fc2e0adfcd75d27beee1662a",
    "figures_oefd_maxerr_r1.45.csv":
        "5776c56d22b808cd9e3035043602e77826905b55c3a8f1f2cb0244d093dbc18e",
    "figures_oifd_maxerr_r0.016.csv":
        "f97003eedb62255ff68062e63dd320891a6073f67bc2f43f0c2d34aab03c961f",
    "figures_oifd_maxerr_r0.159.csv":
        "abccb20a12688ade346ba33cbfb687fbb533bd9a84d8bf0aeacdbdbf65540ef7",
    "figures_oifd_maxerr_r0.995.csv":
        "426fd9acdb48279791bd2dc4743f3e5b6413065465faf17803e748443b466d29",
    "figures_oifd_maxerr_r1.45.csv":
        "a9f558864a434ca469662893883de44dbeff47633912b0ead62a47c7633fec8d",
}

#: SHA-256 of the `solve` CSV and of its stdout for each CLI scheme on the sample
#: problem (--N 40 --k 0.05 --t-final 1). A change that means to alter these bytes
#: updates the digests here and says why.
SOLVE_DIGESTS = {
    ("fd01",): ("d79a10012eee63095df7990fb7bc991eab90b89d643ed05b8e10fb69e4ec04a3",
                "4f32dd355dfabdbd08bf52ea8264f4701c367c5d750d80eeb4f550b97337e232"),
    ("fd11",): ("1b3be88769982791e45b9b40bfd517df6b60ba154ec456761e39d38be44b678f",
                "f2aaf4ef54d6db7d3515b2f3a4e664f418fa92a9214e15fa6611e6162ddd9045"),
    ("fdST", "--pade", "2,2"): (
        "2d6fa7a8fa7fe554625bbf77065aef20142e57d469edee19fc07ae12bc84fc92",
        "384373b7b6dae1d134b739eec8fd83a13dea9794d22650b14a12d49c6078e4f5"),
    ("fdST", "--pade", "3,3"): (
        "a68937896b37def8e776e4f559e6d2d5dff580e3a641ba9dfc312ab46985f983",
        "02709340e65d24d250281e6723f90c5aa0ef806a3de383a9a6359fb5e4f70822"),
    ("oefd",): ("f1b8b9be1323e80fe61872b39a9147f81ba3cde0caaa2f4dee4d63acf7496828",
                "45e8212e9ecc818bcb20ed540205f88287dd5443d0970f85031d28bca5016c55"),
    ("oifd",): ("13603c194a9d032ac402d55d9c3f624fe4e7c413cb374a6c43149a098f8ce69c",
                "83d91a8c2b657ea6d889a897af3e24bfbfef63164705edb5583fd5b364454caa"),
}

#: the same digests for the forced problem of test_schemes (nonzero g, damping,
#: Dirichlet data and psi, every field an expression) with its exact solution
FORCED_SOLVE_DIGESTS = {
    ("fd01",): ("f651f2fb6f62c1e20d0763a450727c0e815621369b13977f3597f9546d63bb20",
                "2f435fcc60577610e96d17694047577b88b5c5d95e293ed3064bffea724e3a4e"),
    ("fd11",): ("38b3c6c76df493afc08a250cc6a9d2f54b051b6e3d59047aa50dcb816c2728c9",
                "f3f0be2606c989dc8fd8cde96d1c346ed5e9758f905bc79e7560e7464a016d95"),
    ("fdST", "--pade", "2,2"): (
        "70ab0be8ed89c6dca291350cef16e06f760577afcaa4039a0ca7981bf4eab7c9",
        "2c2affa8421af57d659db09217887ec751a4d8d3ea9c798775c2597ad164e144"),
    ("fdST", "--pade", "3,3"): (
        "78f4bf8bbb18b4648b9a722797977a04fc231011d9c07c4147df12f308871b03",
        "75fecd9e8df1ba1a8979ee5060a1f66291c0b7b9b8ea8d7e81f2a5541e64529c"),
    ("oefd",): ("16c4b69bd11a8b7faa1a1e30834d96f7d7f359c4c7962c8ba318581b5f20ddd1",
                "9e7de708718729088a19233a4ac55baf94806ef9b26a8fd22dec14c8232757f9"),
    ("oifd",): ("5a79230f10d92a3b5cba287e841b859f8444a5af694a4e41832d05a102a9373c",
                "5ebe93a45dea43a53964d567f5c24307c752f4d710fb07b5c59c9c1223ace9b7"),
}
FORCED_EXACT = "cos(2.0*t)*sin(x) + (1.0 + 0.25*x)*sin(t)"

#: the same digests at N=800 (--r, --t-final 1), above schemes.TRIDIAGONAL_MIN_N nodes, so
#: that fd11 steps D + rho resolvent and oifd solves LDL^T, while fd22 and fd44 keep their
#: interleaved gbtrs bytes: the forced problem at r=0.5 and the sample problem's fd11 at r=3
LARGE_SOLVE_DIGESTS = {
    ("forced", "0.5", "fd11"): (
        "9651cb33cc796fe121a86890bd96f7d64041ef512040a872fd295ad0138c2c1a",
        "f9a439924e173ba8fec58780cf93b733693403916c7c5dc55a87587d6ae5020f"),
    ("forced", "0.5", "fdST", "--pade", "2,2"): (
        "0b54f456f8cb3eb107faa0641817948946e73532a2e95e3945ffb11c2fb095fc",
        "a6055ca156296a22084def27f96696603fc733bf59a8a3a6dbde49ae2d440713"),
    ("forced", "0.5", "fdST", "--pade", "4,4"): (
        "d26c08060a30ed1e7356ee407c32eb05d13e75e5aebb7a6c96ab1b38abd2ea9a",
        "97bdf14a3069bfd9a7db56c04c71332d4883732a65da861dede68d2fa8d471d1"),
    ("forced", "0.5", "oifd"): (
        "6884c488c28fcc0d2e3f1b26d7224835af5c80489d0c75346643dc70d844da33",
        "510893ee9c95aec8968af14561f312acf37f41816ba5e2e57284208ef4c5f2f4"),
    ("sample", "3", "fd11"): (
        "bb5a36921ddd44a7f26d085c73af9c88d080282cf7df332fb16d74b2ad44266d",
        "d44312eb40d482946eb674a78df0d65e855d11a14af863594dd93c05fb0a1f16"),
}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_table1_reproduction():
    """Benchmark error table at h=pi/10, k=1/10: per-scheme bands around the
    reference values (which live at the table's first time level)."""
    table = reproduce_table1()
    bands = {
        "fd11": (2e-5, 8e-5),
        "fd01": (2.4e-3, 9.7e-3),
        "oefd": (2.0357e-4 / 2, 2.0357e-4 * 2),
        "oifd": (4.38439e-4 / 2, 4.38439e-4 * 2),
    }
    values = {name: max(table.column(name)) for name in bands}
    ok = all(lo <= values[n] <= hi for n, (lo, hi) in bands.items())
    detail = ", ".join(f"{n}={values[n]:.4e} in [{lo:.2e}, {hi:.2e}]"
                       for n, (lo, hi) in bands.items())
    report("criterion 1: quantitative error-table reproduction", ok, detail)


def test_criterion_2_table2_trends():
    """Long-horizon table at h=pi/50, t=6: explicit scheme diverges at r=1.59
    and is accurate at r=0.18; implicit (1,1) stays below 1e-4 at every r."""
    table = reproduce_table2()
    fd01 = dict(zip(table.column("r"), table.column("fd01")))
    fd11 = table.column("fd11")
    checks = [
        fd01[1.59] > 1e6,
        fd01[0.18] < 1e-3,
        all(v < 1e-4 for v in fd11),
    ]
    detail = (f"fd01(r=1.59)={fd01[1.59]:.3e}>1e6, fd01(r=0.18)={fd01[0.18]:.3e}<1e-3, "
              f"max fd11={max(fd11):.3e}<1e-4")
    report("criterion 2: long-horizon trend reproduction", all(checks), detail)


def test_criterion_3_implicit_amplification_sweep():
    """Randomized sweep (>= 1e4 samples): implicit amplification factors obey
    |mu| <= 1 + 1e-12 for every mode; zero violations."""
    rng = np.random.default_rng(20240817)
    samples = 10_000
    violations = 0
    worst = 0.0
    for _ in range(samples):
        N = int(rng.integers(2, 41))
        h = rng.uniform(0.01, 1.0)
        k = rng.uniform(0.001, 1.0)
        gamma = rng.uniform(0.0, 10.0)
        spec = implicit_amplification(N, h, k, gamma)
        worst = max(worst, spec.max_modulus)
        if spec.max_modulus > 1.0 + 1e-12:
            violations += 1
    report(
        "criterion 3: unconditional implicit stability (spectral sweep)",
        violations == 0,
        f"{samples} samples, worst max|mu|={worst:.15f}, violations={violations}",
    )


def test_criterion_4_jury_oracle_equivalence():
    """Jury test agrees with brute-force root moduli on 1e4 random quadratics
    (unit-circle margin 1e-9 excluded); zero disagreements."""
    rng = np.random.default_rng(424242)
    checked = 0
    disagreements = 0
    while checked < 10_000:
        a = rng.uniform(1e-3, 4.0)
        b = rng.uniform(-5.0, 5.0)
        c = rng.uniform(-5.0, 5.0)
        moduli = np.abs(np.roots([a, b, c]))
        if np.any(np.abs(moduli - 1.0) <= 1e-9):
            continue
        brute = bool(np.all(moduli < 1.0))
        if jury_stable(QuadraticCoeffs(a, b, c)) != brute:
            disagreements += 1
        checked += 1
    report(
        "criterion 4: Jury lemma equals brute-force root location",
        disagreements == 0,
        f"{checked} quadratics, disagreements={disagreements}",
    )


def test_criterion_5_convergence_orders():
    """4-level halving studies: temporal order of fd11 and spatial order of
    fd11 in [1.7, 2.3]; temporal order of fd01 inside its stability region
    in [0.7, 1.3]."""
    problem = sample_problem()
    studies = {
        "fd11 temporal": (
            observed_order(problem, "fd11", "time", 0.15, 200, 4, 0.3), (1.7, 2.3)),
        "fd01 temporal": (
            observed_order(problem, "fd01", "time", 0.04, 10, 4, 0.12), (0.7, 1.3)),
        "fd11 spatial": (
            observed_order(problem, "fd11", "space", 0.002, 5, 4, 0.3), (1.7, 2.3)),
    }
    ok = True
    parts = []
    for label, (rep, (lo, hi)) in studies.items():
        inside = bool(np.all(rep.orders >= lo) and np.all(rep.orders <= hi))
        ok = ok and inside
        parts.append(f"{label}: {np.round(rep.orders, 3).tolist()} in [{lo}, {hi}]")
    # fd01 stability-region precondition, stated explicitly
    assert check_explicit_stability(0.04, math.pi / 10, GAMMA_STAR).stable
    report("criterion 5: observed convergence orders", ok, "; ".join(parts))


def test_criterion_6_one_step_oracle():
    """Single-step defect against the exponential-propagator oracle shrinks
    by 2^3 (fd11) and 2^2 (fd01) when k halves; N=6."""
    problem = sample_problem()
    grid = build_grid(0.0, math.pi, 6)
    op = assemble_system(grid, problem)
    v0 = np.concatenate([np.sin(grid.interior_nodes), -np.sin(grid.interior_nodes)])
    ratios = {}
    for name in ("fd11", "fd01"):
        defects = []
        for k in (0.1, 0.05):
            stepper = make_stepper(config_for(name, k), op, grid, problem)
            numeric = step_semigroup(stepper, StateVector(0.0, v0[:, None])).values[:, 0]
            oracle = matrix_exponential(op, k) @ v0
            defects.append(np.linalg.norm(numeric - oracle, np.inf))
        ratios[name] = defects[0] / defects[1]
    ok = 6.0 <= ratios["fd11"] <= 10.0 and 3.0 <= ratios["fd01"] <= 5.0
    report(
        "criterion 6: one-step propagator-oracle refinement",
        ok,
        f"fd11 ratio={ratios['fd11']:.3f} in [6, 10], fd01 ratio={ratios['fd01']:.3f} in [3, 5]",
    )


def _run_fd01_magnitude(N: int, k: float, t_final: float) -> float:
    problem = sample_problem()
    grid = build_grid(0.0, math.pi, N)
    (traj,) = solve_group_every_level(problem, grid, (config_for("fd01", k),), t_final)
    finite = traj.states[np.isfinite(traj.states)]
    peak = float(np.abs(finite).max()) if finite.size else math.inf
    return math.inf if traj.blow_up else peak


def test_criterion_7_verdict_vs_experiment():
    """20 verdict-stable points keep the explicit error below 1 at t=6;
    20 points with sqrt(k)/h > 1.2 sqrt(gamma*)/2 exceed magnitude 1e3 by
    t=6 (sampled well past the margin band, ratio 3.5..6)."""
    problem = sample_problem()

    stable_failures = []
    for alpha in (0.25, 0.45, 0.65, 0.85):
        for N in (6, 9, 12, 16, 20):
            grid = build_grid(0.0, math.pi, N)
            k = alpha * GAMMA_STAR * grid.h**2 / 4.0
            verdict = check_explicit_stability(k, grid.h, GAMMA_STAR)
            assert verdict.stable, (alpha, N)
            (traj,) = solve_evolution(problem, grid, (config_for("fd01", k),), 6.0)
            err = np.abs(
                traj.displacements[-1]
                - np.exp(-traj.times[-1]) * np.sin(grid.interior_nodes)
            ).max()
            if not err < 1.0:
                stable_failures.append((alpha, N, err))

    unstable_failures = []
    threshold = math.sqrt(GAMMA_STAR) / 2.0
    for ratio in (3.5, 4.33, 5.17, 6.0):
        for N in (40, 60, 80, 100, 120):
            grid = build_grid(0.0, math.pi, N)
            k = (ratio * threshold * grid.h) ** 2
            assert math.sqrt(k) / grid.h > 1.2 * threshold
            assert k < 2.0 / GAMMA_STAR  # only the mesh-ratio condition is violated
            peak = _run_fd01_magnitude(N, k, 6.0)
            if not peak > 1e3:
                unstable_failures.append((ratio, N, peak))

    ok = not stable_failures and not unstable_failures
    report(
        "criterion 7: stability verdict matches long-horizon experiment",
        ok,
        f"stable violations={stable_failures}, unstable violations={unstable_failures}",
    )


def test_criterion_8_pade_golden_table():
    """The four reference rational approximants of the exponential, exact in
    rational arithmetic."""
    golden = {
        (0, 1): ([Fraction(1), Fraction(1)], [Fraction(1)], Fraction(1, 2)),
        (0, 2): ([Fraction(1), Fraction(1), Fraction(1, 2)], [Fraction(1)], Fraction(1, 6)),
        (1, 0): ([Fraction(1)], [Fraction(1), Fraction(-1)], Fraction(-1, 2)),
        (1, 1): ([Fraction(1), Fraction(1, 2)], [Fraction(1), Fraction(-1, 2)], Fraction(-1, 12)),
    }
    mismatches = []
    for (S, T), (p, q, lead) in golden.items():
        approx = pade_coefficients(S, T)
        if not (list(approx.p_coeffs) == p and list(approx.q_coeffs) == q
                and approx.leading_error == lead):
            mismatches.append((S, T))
    report(
        "criterion 8: exact rational approximant table",
        not mismatches,
        f"4 rows checked exactly, mismatches={mismatches}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Repeated table1 CLI invocations produce byte-identical CSV."""
    out1, out2 = tmp_path / "t1a.csv", tmp_path / "t1b.csv"
    code1 = run_command(["table1", "--out", str(out1)])
    code2 = run_command(["table1", "--out", str(out2)])
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and b1 == b2
    report(
        "criterion 9: byte-identical CLI table output",
        ok,
        f"exit codes ({code1}, {code2}), {len(b1)} bytes each, identical={b1 == b2}",
    )


def test_criterion_10_tables_match_references(tmp_path, set_cpus):
    """table1 and table2 write the committed reference bytes, on one CPU and on two."""
    mismatched = []
    for cpus in (1, 2):
        set_cpus(cpus)
        for argv, ref in ((["table1"], "table1.csv"), (["table2"], "table2_full.csv")):
            out = tmp_path / f"cpus{cpus}_{ref}"
            code = run_command(argv + ["--out", str(out)])
            if code != 0 or out.read_bytes() != (REF_DIR / ref).read_bytes():
                mismatched.append(f"{argv[0]} on {cpus} CPU(s) (exit {code})")
    report(
        "criterion 10: Table 1 and Table 2 equal bench/ref byte for byte",
        not mismatched,
        f"mismatched={mismatched}",
    )


def test_criterion_11_figure_digests(tmp_path, set_cpus):
    """Every figure series keeps its recorded bytes, on one CPU and on two."""
    failed = []
    for cpus in (1, 2):
        set_cpus(cpus)
        out = tmp_path / f"cpus{cpus}"
        code = run_command(["figures", "--out-dir", str(out)])
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
        changed = sorted(n for n in FIGURE_DIGESTS.keys() | digests.keys()
                         if digests.get(n) != FIGURE_DIGESTS.get(n))
        if code != 0 or changed:
            failed.append(f"{cpus} CPU(s): exit {code}, {len(digests)} files, changed={changed}")
    report(
        "criterion 11: figure CSVs byte-identical to their recorded digests",
        not failed,
        f"failed={failed}",
    )


def _changed_solve_digests(digests, problem, tmp_path, capsys, grid=("--N", "40", "--k", "0.05")):
    changed = []
    for scheme, (csv_digest, stdout_digest) in digests.items():
        out = tmp_path / f"{''.join(scheme)}.csv"
        code = run_command(["solve", "--scheme", *scheme, "--problem", problem, *grid,
                            "--t-final", "1", "--out", str(out)])
        stdout = capsys.readouterr().out
        if (code, hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(stdout.encode()).hexdigest()) != (0, csv_digest, stdout_digest):
            changed.append(" ".join(scheme))
    return changed


def test_criterion_12_solve_digests(tmp_path, capsys):
    """Every CLI scheme's `solve` CSV and stdout keep their recorded bytes."""
    changed = _changed_solve_digests(SOLVE_DIGESTS, "sample", tmp_path, capsys)
    report(
        "criterion 12: solve CSV and stdout byte-identical to their recorded digests",
        not changed,
        f"{len(SOLVE_DIGESTS)} schemes, changed={changed}",
    )


def test_criterion_12_forced_solve_digests(tmp_path, capsys):
    """The same on a config whose every field goes through the expression language."""
    cfg = tmp_path / "forced.json"
    cfg.write_text(json.dumps(dict(FORCED_DOC, exact=FORCED_EXACT)))
    changed = _changed_solve_digests(FORCED_SOLVE_DIGESTS, str(cfg), tmp_path, capsys)
    report(
        "criterion 12: forced-config solve CSV and stdout byte-identical to their digests",
        not changed,
        f"{len(FORCED_SOLVE_DIGESTS)} schemes, changed={changed}",
    )


def test_criterion_12_large_solve_digests(tmp_path, capsys):
    """The same at N=800, where fd11 and oifd solve SPD tridiagonal systems."""
    cfg = tmp_path / "forced.json"
    cfg.write_text(json.dumps(dict(FORCED_DOC, exact=FORCED_EXACT)))
    changed = []
    for (problem, r, *scheme), digests in LARGE_SOLVE_DIGESTS.items():
        changed += [f"{problem} r={r} {name}" for name in _changed_solve_digests(
            {tuple(scheme): digests}, str(cfg) if problem == "forced" else problem, tmp_path,
            capsys, grid=("--N", "800", "--r", r))]
    report(
        "criterion 12: N=800 solve CSV and stdout byte-identical to their digests",
        not changed,
        f"{len(LARGE_SOLVE_DIGESTS)} solves, changed={changed}",
    )
