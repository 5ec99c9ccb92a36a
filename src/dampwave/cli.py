"""Command-line frontend.

Subcommands: solve, compare, stability, convergence, table1, table2, figures.
Problems are the builtin sample problem (--problem sample) or a JSON config
path; results are CSV files per the harness format. table1 and table2 are the
paper's configurations; compare --N 10 --k 0.1 --t-final 0.1 writes table1.

Exit codes: 0 success, 2 usage or input error, 3 numerical failure
(singular system), 4 a requested solve diverged (table2/compare report
divergence as data and still exit 0).

Each `run_command` call builds the top-level parser and only its own
subcommand's parser.

table2's rows and figures' max-error lanes, (oefd, oifd) and (fd01, fd11) per
series, run through `harness.fan_out`, whose docstring states how the work is
split and forked.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import harness, linalg, stability
from .linalg import SingularMatrixError
from .operators import assemble_system, build_grid
from .problems import DampedWaveProblem, ProblemConfigError, load_problem_config, sample_problem
from .schemes import (
    SCHEME_NAMES, StateVector, config_for, make_stepper, num_steps, solve_evolution, step_semigroup,
)
from .stability import MAX_MAP_SIZE, spectral_radius

FIGURE_GRID_N = 23  # nearest subinterval count to the reference mesh width 0.13464
FIGURE_R_VALUES = (0.016, 0.159, 0.995, 1.45)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4


def _fail(message: str, code: int) -> int:
    print(f"dampwave: error: {message}", file=sys.stderr)
    return code


def _add_problem_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--problem",
        default="sample",
        help="sample, or the path to a JSON problem config (default: sample)",
    )


def _add_step_flags(sp: argparse.ArgumentParser) -> None:
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--k", type=float, help="time step")
    g.add_argument("--r", type=float, help="Courant ratio; resolves k = r*h")


def _add_scheme_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
    sp.add_argument("--pade", help="S,T orders for --scheme fdST (e.g. --pade 2,2)")


class _Subcommand:
    """A subcommand's parser, kept as argparse's keyword arguments and built with its
    arguments when it parses: argparse calls nothing else on a subcommand parser, and
    parses with it once per command."""

    def __init__(self, *, arguments, **kwargs):
        self._arguments, self._kwargs = arguments, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._arguments(parser)
        return parser.parse_known_args(args, namespace)


def _solve_arguments(sp: argparse.ArgumentParser) -> None:
    _add_problem_flag(sp)
    _add_scheme_flags(sp)
    sp.add_argument("--N", type=int, required=True, help="number of subintervals")
    _add_step_flags(sp)
    sp.add_argument("--t-final", type=float, required=True)
    sp.add_argument("--out", required=True)


def _compare_arguments(sp: argparse.ArgumentParser) -> None:
    _add_problem_flag(sp)
    sp.add_argument("--N", type=int, required=True, help="number of subintervals")
    _add_step_flags(sp)
    sp.add_argument("--t-final", type=float, required=True)
    sp.add_argument("--out", required=True)


def _stability_arguments(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--gamma-max", type=float, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--N", type=int, help="also report the implicit amplification spectrum")
    sp.add_argument("--empirical", action="store_true",
                    help="measure the implicit map's spectral radius from its 2x2 block on "
                    f"each sine-mode plane (needs --N <= {MAX_MAP_SIZE // 2 + 1})")
    sp.add_argument("--seed", type=int, default=0,
                    help="accepted and echoed in the --empirical line; does not change the result")
    sp.add_argument("--out", help="optional CSV with the condition report")


def _convergence_arguments(sp: argparse.ArgumentParser) -> None:
    _add_problem_flag(sp)
    _add_scheme_flags(sp)
    sp.add_argument("--axis", required=True, choices=("time", "space"))
    sp.add_argument("--base-k", type=float, required=True)
    sp.add_argument("--base-N", type=int, required=True)
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--t-eval", type=float, required=True)
    sp.add_argument("--out", required=True)


def _table1_arguments(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="table1.csv")


def _table2_arguments(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="table2.csv")
    sp.add_argument("--t-final", type=float, default=6.0)


def _figures_arguments(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--t-final", type=float, default=6.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampwave",
        description="Finite-difference solvers and benchmarks for the 1D damped wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    # solve, compare and table2 take no --h; without abbreviations it is
    # refused instead of read as --help
    sub.add_parser("solve", help="run one scheme and write its error/solution profile",
                   allow_abbrev=False, arguments=_solve_arguments)
    sub.add_parser("compare", help="run all four standard schemes at the same parameters",
                   allow_abbrev=False, arguments=_compare_arguments)
    sub.add_parser("stability", help="evaluate the explicit stability conditions",
                   arguments=_stability_arguments)
    sub.add_parser("convergence", help="halving refinement study with observed orders",
                   arguments=_convergence_arguments)
    sub.add_parser("table1", help="per-node error table at h=pi/10, k=1/10, t=k",
                   arguments=_table1_arguments)
    sub.add_parser("table2", help="max error at t-final across Courant ratios, h=pi/50",
                   allow_abbrev=False, arguments=_table2_arguments)
    sub.add_parser("figures", help="emit profile and error-history series as CSV",
                   arguments=_figures_arguments)
    return parser


def _resolve_problem(value: str) -> DampedWaveProblem:
    if value == "sample":
        return sample_problem()
    if os.path.exists(value):
        with open(value) as fh:
            return load_problem_config(fh.read())
    raise ProblemConfigError(f"{value!r} is neither 'sample' nor an existing config path")


def _resolve_k(args, h: float) -> float:
    return args.k if args.k is not None else args.r * h


def _parse_pade(args) -> tuple[int, int] | None:
    if args.scheme != "fdST":
        if args.pade:
            raise ValueError("--pade only applies to --scheme fdST")
        return None
    if not args.pade:
        raise ValueError("--scheme fdST requires --pade S,T")
    try:
        S, T = (int(part) for part in args.pade.split(","))
    except ValueError:  # not two parts, or a part that is not an integer
        raise ValueError(f"--pade expects two integers 'S,T', got {args.pade!r}") from None
    return S, T


def _cmd_solve(args) -> int:
    problem = _resolve_problem(args.problem)
    grid = build_grid(*problem.domain, args.N)
    k = _resolve_k(args, grid.h)
    config = config_for(args.scheme, k, _parse_pade(args))
    (traj,) = solve_evolution(problem, grid, (config,), args.t_final)
    if problem.exact is not None:
        p = harness.error_profile(traj, problem)
        columns = ("x", "numeric", "exact", "abs_error")
        table = harness.Table.from_columns(columns, p.x, p.numeric, p.exact, p.abs_error)
        print(f"{config.label}: t={p.t!r} max abs error = {p.max_error:.6e}")
    else:
        ts, x, numeric = harness.snapshot(traj, problem)
        table = harness.Table.from_columns(("x", "numeric"), x, numeric)
        print(f"{config.label}: wrote solution profile at t={ts!r}")
    harness.write_csv(table, args.out)
    if traj.blow_up:
        print(
            f"run diverged: non-finite state at step {traj.blow_up_index} "
            f"(t={traj.blow_up_index * k!r})",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_compare(args) -> int:
    problem = _resolve_problem(args.problem)
    if problem.exact is None:
        return _fail("compare needs a problem with an exact solution", EXIT_USAGE)
    grid = build_grid(*problem.domain, args.N)
    k = _resolve_k(args, grid.h)
    table, summary = harness.compare_schemes(problem, grid, k, args.t_final)
    for name, (max_error, diverged) in summary.items():
        flag = " (diverged)" if diverged else ""
        print(f"{name}: max abs error = {max_error:.6e}{flag}")
    harness.write_csv(table, args.out)
    return EXIT_OK


def _cmd_stability(args) -> int:
    if args.empirical and args.N is None:
        return _fail("--empirical needs --N", EXIT_USAGE)
    # everything is computed before the first line is printed
    verdict = stability.check_explicit_stability(args.k, args.h, args.gamma_max)
    spec = None if args.N is None else stability.implicit_amplification(
        args.N, args.h, args.k, args.gamma_max)
    rho = _empirical_radius(args.N, args.h, args.k, args.gamma_max) if args.empirical else None
    print(f"explicit scheme verdict: {'stable' if verdict.stable else 'unstable'}")
    rows = []
    for cond in verdict.conditions:
        status = "pass" if cond.passed else "fail"
        print(
            f"  {cond.name}: value={cond.value:.6g} bound={cond.bound:.6g} "
            f"margin={cond.margin:.6g} [{status}]"
        )
        rows.append((cond.name, cond.value, cond.bound, cond.margin, cond.passed))
    if spec is not None:
        print(f"implicit (1,1) max |mu| over modes: {spec.max_modulus:.12f}")
    if rho is not None:
        print(f"implicit (1,1) empirical spectral radius (seed={args.seed}): {rho:.12f}")
    if args.out:
        table = harness.Table.from_rows(("condition", "value", "bound", "margin", "passed"), rows)
        harness.write_csv(table, args.out)
    return EXIT_OK


def _empirical_radius(N: int, h: float, k: float, gamma_max: float) -> float:
    zero = lambda *_: 0.0
    zero.variables = frozenset()  # reads no t: the probe is `steady`, its lane unforced
    problem = DampedWaveProblem(domain=(0.0, N * h), gamma=lambda x: gamma_max, g=zero, phi=zero,
                                psi=zero, u_a=zero, u_b=zero, name="stability-probe")
    grid = build_grid(0.0, N * h, N)
    op = assemble_system(grid, problem)
    stepper = make_stepper(config_for("fd11", k), op, grid, problem)
    # an unforced step is R(kM) v exactly; its result lives in a ring slot of the lane's plan
    step = lambda v: step_semigroup(stepper, StateVector(0.0, v[:, None])).values[:, 0].copy()
    try:
        return spectral_radius(step, N)[0]
    except ValueError as exc:
        raise ValueError(f"--empirical at N={N}: {exc}") from exc


def _cmd_convergence(args) -> int:
    problem = _resolve_problem(args.problem)
    if problem.exact is None:
        return _fail("convergence needs a problem with an exact solution", EXIT_USAGE)
    report = harness.observed_order(problem, args.scheme, args.axis, args.base_k, args.base_N,
                                    args.levels, args.t_eval, _parse_pade(args))
    # the first level, and any pair with a blown-up level, has no order
    orders = [""] + [float(o) if math.isfinite(o) else "" for o in report.orders]
    for j, order in enumerate(orders):
        shown = "-" if order == "" else f"{order:.3f}"
        print(
            f"level {j}: {report.axis}={report.levels[j]:.6g} "
            f"max_error={report.max_errors[j]:.6e} order={shown}"
        )
    columns = ("level", "k" if report.axis == "time" else "h", "max_error", "order")
    levels = range(len(orders))
    table = harness.Table.from_columns(columns, levels, report.levels, report.max_errors, orders)
    harness.write_csv(table, args.out)
    stall = next((j for j, o in enumerate(report.orders) if not o >= 0.5), None)
    if stall is not None:  # most likely where the fixed axis's error dominates
        fixed = f"N={args.base_N}" if report.axis == "time" else f"k={args.base_k!r}"
        print(f"dampwave: note: the error stops falling from level {stall} to {stall + 1} (order "
              f"{report.orders[stall]:.3f}); the fixed {fixed} may limit it", file=sys.stderr)
    return EXIT_OK


def _cmd_table1(args) -> int:
    table = harness.reproduce_table1()
    harness.write_csv(table, args.out)
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return EXIT_OK


def _cmd_table2(args) -> int:
    table = harness.reproduce_table2(t_final=args.t_final)
    harness.write_csv(table, args.out)
    for row in table.rows:
        cells = dict(zip(table.columns, row))
        flags = [n for n in harness.TABLE_SCHEMES if cells[f"{n}_diverged"]]
        note = f"  diverged: {', '.join(flags)}" if flags else ""
        print(f"r={cells['r']}: done{note}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _figure_series(problem: DampedWaveProblem, r: float, family: tuple[str, ...], out_dir: str,
                   t_final: float) -> list[str]:
    """One lane of a max-error series: its schemes' CSVs at h = pi/50, k = r*h, and their paths."""
    h = math.pi / 50
    tables = harness.max_error_series(problem, family, 50, r * h, t_final)
    paths = [os.path.join(out_dir, f"figures_{scheme}_maxerr_r{r}.csv") for scheme in family]
    for table, path in zip(tables, paths):
        harness.write_csv(table, path)
    return paths


def _cmd_figures(args) -> int:
    h = math.pi / 50
    # each lane's family and its measured cost per level at N = 50 and r = 0.016 in
    # microseconds: the dense path's set-up and blocks, the error reduction and the CSV row
    lanes = ((harness.TABLE_SCHEMES[:2], 9.6), (harness.TABLE_SCHEMES[2:], 9.0))
    # every series' --t-final check, before any file is written
    costs = [us * (num_steps(args.t_final, r * h) + 1) for r in FIGURE_R_VALUES for _, us in lanes]
    problem = sample_problem()
    os.makedirs(args.out_dir, exist_ok=True)
    print(
        f"note: profile mesh uses N={FIGURE_GRID_N} (h={math.pi / FIGURE_GRID_N:.5f}), "
        "the closest subdivision to the reference width 0.13464"
    )
    written = []
    for scheme in ("fd01", "fd11"):
        table = harness.solution_profile(problem, scheme, FIGURE_GRID_N, 0.05, 1.0)
        path = os.path.join(args.out_dir, f"figures_{scheme}_profile_N{FIGURE_GRID_N}_k0.05_t1.csv")
        harness.write_csv(table, path)
        written.append(path)
    jobs = [(problem, r, family, args.out_dir, args.t_final) for r in FIGURE_R_VALUES
            for family, _ in lanes]
    for paths in harness.fan_out(_figure_series, jobs, costs):
        written += paths
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "stability": _cmd_stability,
    "convergence": _cmd_convergence,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figures": _cmd_figures,
}


def run_command(argv) -> int:
    linalg.single_thread_blas()  # before any fan-out fork
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself; 2 on error, 0 on --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except SingularMatrixError as exc:
        return _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_USAGE)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
