"""Error measurement, convergence studies and the benchmark tables.

`snapshot` turns a trajectory's last level into an all-node profile, with
endpoint rows from the boundary data. A trajectory holds only the start and
last levels; `max_error_series` alone reads every level, reducing each block
that `solve_evolution` hands over against one call of the exact solution.
Each solve is one `solve_evolution` call with a config per scheme, a tuple of
one for `observed_order` and `solution_profile`; `compare_schemes` (Table 1,
Table 2) and `max_error_series` (the figure series) run their schemes in
lockstep (see `schemes`), each member's results those of its solo run, and a
figure block's one exact call serves every member's rows. `fan_out` runs
Table 2's rows, and the figure lanes for `cli`, on a split fixed before it
forks: the parent takes the first share and one forked child each other share.

Outputs are `Table`s, which store their columns as given, written as
RFC-4180-style CSV: header row, CRLF line endings, '.' decimal separator. A
float cell holds its shortest round-trip digits, in scientific notation below
1e-3 and from 1e16 (a signed exponent of at least two digits); an integral
value below 1e16 is an integer and a non-finite one nan, inf or -inf.
`format_value` formats one cell; a float64 column takes its digits, a block of
rows at a time, from orjson's shortest round-trip (Ryu) formatter.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing.connection  # fan_out's fork modules, loaded at import, not by a fork
import multiprocessing.popen_fork
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import orjson

from .operators import SpatialGrid, build_grid, sample
from .problems import DampedWaveProblem, ExpressionError, sample_problem
from .schemes import Trajectory, config_for, num_steps, solve_evolution

#: error magnitude past which a finite run is reported as divergent
DIVERGENCE_THRESHOLD = 1e6

TABLE2_R_VALUES = (1.59, 0.53, 0.32, 0.23, 0.18)
TABLE_SCHEMES = ("oefd", "oifd", "fd01", "fd11")


@dataclass(frozen=True)
class ErrorProfile:
    """Per-node absolute errors at one level, endpoints included."""

    t: float                  # the level's time
    x: np.ndarray             # all N+1 nodes
    numeric: np.ndarray
    exact: np.ndarray
    abs_error: np.ndarray
    max_error: float


def snapshot(traj: Trajectory, problem: DampedWaveProblem) -> tuple[float, np.ndarray, np.ndarray]:
    """(t, x, numeric) at the trajectory's last level, over all N+1 nodes.

    The endpoint rows take the boundary data u_a(t), u_b(t).
    """
    ts = float(traj.times[-1])
    numeric = np.concatenate(([problem.u_a(ts)], traj.displacements[-1], [problem.u_b(ts)]))
    return ts, traj.grid.all_nodes(), numeric


def error_profile(traj: Trajectory, problem: DampedWaveProblem) -> ErrorProfile:
    """Absolute errors |numeric - exact| at the trajectory's last level.

    Endpoint rows take the boundary data as the numeric value, so their
    error vanishes whenever the boundary data matches the exact solution.
    The max error is inf when any entry of the level's state (u_t too) is non-finite.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    ts, x, numeric = snapshot(traj, problem)
    exact = sample(problem.exact, x, ts)
    with np.errstate(over="ignore"):  # finite data far from the exact solution: inf error
        err = np.abs(numeric - exact)
    finite = np.isfinite(err).all() and np.isfinite(traj.states[-1]).all()
    return ErrorProfile(ts, x, numeric, exact, err, float(np.max(err)) if finite else math.inf)


@dataclass(frozen=True)
class ConvergenceReport:
    """Max errors over a halving sequence of k (or h) and the observed orders."""

    axis: str                 # "time" or "space"
    levels: np.ndarray        # the refined quantity per level (k or h), halving
    max_errors: np.ndarray
    orders: np.ndarray        # log2(e_j / e_{j+1}), nan where a level blew up


def observed_order(
    problem: DampedWaveProblem,
    scheme: str,
    axis: str,
    base_k: float,
    base_N: int,
    levels: int,
    t_eval: float,
    pade_orders: Optional[tuple[int, int]] = None,
) -> ConvergenceReport:
    """Refinement study: halve k (axis="time") or double N (axis="space").

    The fixed axis must be fine enough that the refined one dominates the
    error, otherwise the observed orders flatten toward the fixed-axis floor.
    Blown-up levels are recorded as inf and excluded from order estimates;
    any other level whose last step misses t_eval raises ValueError. Every
    level's grid and step count is checked before the first solve.
    """
    if axis not in ("time", "space"):
        raise ValueError(f"axis must be 'time' or 'space', got {axis!r}")
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    runs, level_values, errors = [], [], []
    for j in range(levels):
        k_j = base_k / 2**j if axis == "time" else base_k
        grid = build_grid(*problem.domain, base_N if axis == "time" else base_N * 2**j)
        runs.append((grid, config_for(scheme, k_j, pade_orders)))
        num_steps(t_eval, k_j)
        level_values.append(k_j if axis == "time" else grid.h)
    for j, (grid, config) in enumerate(runs):
        (traj,) = solve_evolution(problem, grid, (config,), t_eval)
        profile = None if traj.blow_up else error_profile(traj, problem)
        if profile is not None and abs(profile.t - t_eval) > 1e-9 * t_eval:
            raise ValueError(f"level {j} (k={config.k!r}) has no step at t_eval={t_eval!r}; "
                             f"its last is t={profile.t!r}")
        errors.append(math.inf if profile is None else profile.max_error)
    orders = [
        math.log2(e0 / e1) if math.isfinite(e0) and math.isfinite(e1) and e1 > 0 else math.nan
        for e0, e1 in zip(errors, errors[1:])
    ]
    return ConvergenceReport(axis, np.array(level_values), np.array(errors), np.array(orders))


@dataclass(frozen=True)
class Table:
    """Labelled columns for CSV emission, each stored as given (arrays stay arrays).
    `rows` and `column` build Python values (tolist): flags are bools."""

    columns: tuple[str, ...]
    data: tuple  # one equally long sequence per column

    @classmethod
    def from_columns(cls, columns: tuple[str, ...], *arrays) -> "Table":
        if len({len(a) for a in arrays}) > 1:
            raise ValueError(f"column lengths differ: {[len(a) for a in arrays]}")
        return cls(columns, arrays)

    @classmethod
    def from_rows(cls, columns: tuple[str, ...], rows) -> "Table":
        return cls(columns, tuple(zip(*rows, strict=True)) or tuple(() for _ in columns))

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*map(_values, self.data)))

    def column(self, name: str) -> list:
        return _values(self.data[self.columns.index(name)])


def _values(col) -> list:
    return col.tolist() if isinstance(col, np.ndarray) else list(col)


def compare_schemes(
    problem: DampedWaveProblem, grid: SpatialGrid, k: float, t: float
) -> tuple[Table, dict[str, tuple[float, bool]]]:
    """Run every TABLE_SCHEMES scheme to t at the same grid and step.

    Returns the per-node absolute errors at the last step with t_n <= t, as a
    table with an x column and one column per scheme, and each scheme's
    (max error, diverged) pair. A run diverged when it blew up or its max
    error exceeds DIVERGENCE_THRESHOLD.
    """
    errors, summary = [], {}
    trajs = solve_evolution(problem, grid, tuple(config_for(name, k) for name in TABLE_SCHEMES), t)
    for name, traj in zip(TABLE_SCHEMES, trajs):
        profile = error_profile(traj, problem)
        errors.append(profile.abs_error)
        diverged = traj.blow_up or not profile.max_error <= DIVERGENCE_THRESHOLD
        summary[name] = (profile.max_error, diverged)
    return Table.from_columns(("x",) + TABLE_SCHEMES, profile.x, *errors), summary


def reproduce_table1() -> Table:
    """Per-node absolute errors of the four schemes on the sample problem at h = pi/10,
    k = 1/10 and t = k, where the published reference values are defined;
    `compare_schemes` (`dampwave compare`) gives the table at any other mesh or time."""
    problem = sample_problem()
    return compare_schemes(problem, build_grid(*problem.domain, 10), 0.1, 0.1)[0]


def reproduce_table2(t_final: float = 6.0) -> Table:
    """Maximum error at t_final for each scheme across Courant ratios r = k/h.

    The mesh is h = pi/50 (the reference ratios leave it unstated); divergent
    runs keep their magnitude and carry a flag column rather than failing.
    The rows run through `fan_out`, each costed by its level count.
    """
    problem = sample_problem()
    grid = build_grid(*problem.domain, 50)
    columns = ("r", "k") + tuple(c for name in TABLE_SCHEMES for c in (name, f"{name}_diverged"))
    costs = [num_steps(t_final, r * grid.h) + 1 for r in TABLE2_R_VALUES]
    jobs = [(problem, grid, r, t_final) for r in TABLE2_R_VALUES]
    return Table.from_rows(columns, fan_out(_table2_row, jobs, costs))


def _table2_row(problem: DampedWaveProblem, grid: SpatialGrid, r: float, t_final: float) -> tuple:
    k = r * grid.h
    _, summary = compare_schemes(problem, grid, k, t_final)
    return (r, k) + tuple(v for name in TABLE_SCHEMES for v in summary[name])


def fan_out(run, jobs, costs) -> list:
    """[run(*job) for job in jobs], split over the CPUs this process may run on.

    The split is fixed before any fork, longest processing time first over `costs`: the
    parent runs group 0 in-process and a child forked from the "fork" context each other
    group, so jobs and run reach it unpickled and only its results or exception come back
    through a pipe. With one CPU or one job nothing forks. A child that exits without a
    reply raises RuntimeError. Every child is joined before fan_out returns, or, once any
    share has raised, terminated and joined before the exception leaves. Python 3.12 and
    later warn when a process forks with more than one OS thread; OpenBLAS's fork handler
    stops its pool first, so the parent has one (TestFanOut's
    test_a_fork_leaves_the_parent_one_thread).
    """
    n = min(len(jobs), _cpus())
    groups, loads = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(jobs)), key=lambda i: -costs[i]):
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += costs[i]
    groups = [sorted(group) for group in groups]  # each share runs in job order
    fork, children = multiprocessing.get_context("fork"), []
    try:
        for group in groups[1:]:
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=_serve, args=(writer, run, [jobs[i] for i in group]))
            child.start()
            writer.close()  # the child's end alone: its exit ends the parent's recv
            children.append((group, child, reader))
        results = {i: run(*jobs[i]) for i in groups[0]}
        for group, child, reader in children:
            try:
                ok, value = reader.recv()
            except EOFError:  # the child exited without a reply
                child.join()
                raise RuntimeError(f"a fan-out child exited with code {child.exitcode} "
                                   "before it replied") from None
            if not ok:
                raise value
            results.update(zip(group, value))
    except BaseException:
        for _, child, _ in children:
            child.terminate()
        raise
    finally:
        for _, child, reader in children:
            reader.close()
            child.join()
    return [results[i] for i in range(len(jobs))]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(writer, run, jobs) -> None:
    """A forked child's work: its jobs' results, or the exception one raised, to the parent."""
    try:
        reply = True, [run(*job) for job in jobs]
    except Exception as exc:  # raised again in the parent
        reply = False, exc
    writer.send(reply)


def solution_profile(
    problem: DampedWaveProblem, scheme: str, N: int, k: float, t: float
) -> Table:
    """(x, numeric, exact) series at the last step with t_n <= t."""
    grid = build_grid(*problem.domain, N)
    (traj,) = solve_evolution(problem, grid, (config_for(scheme, k),), t)
    profile = error_profile(traj, problem)
    return Table.from_columns(("x", "numeric", "exact"), profile.x, profile.numeric, profile.exact)


def max_error_series(
    problem: DampedWaveProblem, schemes: tuple[str, ...], N: int, k: float, t_final: float
) -> tuple[Table, ...]:
    """(t, max abs error) time series over a whole run of each scheme, all run in lockstep,
    one Table per scheme. exact is called once per block that
    `solve_evolution` hands over, on x[None, :] and t[:, None], or level by level if it
    rejects them; every member's rows of the block are reduced against that one call."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    grid, configs = build_grid(*problem.domain, N), tuple(config_for(s, k) for s in schemes)
    x, times = grid.interior_nodes, np.arange(num_steps(t_final, k) + 1) * k
    max_errors = [np.empty(len(times)) for _ in schemes]

    def reduce(first: int, blocks: tuple) -> None:
        rows = slice(first, first + max(map(len, blocks)))
        exact = np.empty((rows.stop - first, x.size))
        try:
            exact[...] = problem.exact(x[None, :], times[rows, None])
        except ExpressionError:
            raise
        except Exception:  # a callable that rejects arrays: one level at a time
            for row, t in zip(exact, times[rows]):
                row[...] = sample(problem.exact, x, t)
        for states, max_error in zip(blocks, max_errors):
            err = np.subtract(exact[: len(states)], states[:, : x.size])
            np.abs(err, out=err)
            err.max(axis=1, out=max_error[first : first + len(states)])

    tables = []
    for traj, max_error in zip(solve_evolution(problem, grid, configs, t_final, reduce),
                               max_errors):
        end = len(times) if traj.blow_up_index is None else traj.blow_up_index + 1
        tables.append(Table.from_columns(("t", "max_error"), times[:end], max_error[:end]))
    return tuple(tables)


def format_value(v) -> str:
    """One CSV cell, as the module docstring states for floats.

    repr gives a float's form outside [1e-4, 1e-3), once a trailing ".0" is
    dropped; inside that band it prints the digits positionally, "0.000ddd",
    which `_scientific` moves into "d.dde-04".
    """
    if not isinstance(v, float):  # np.float64 is a float
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
    f = float(v)
    if f == 0.0:
        return "0"
    text = repr(f)
    if 1e-4 <= abs(f) < 1e-3:
        return _scientific(text)
    return text[:-2] if text.endswith(".0") else text


def _scientific(text: str) -> str:
    """A positional "0.000ddd" or "0.0000ddd" (a magnitude in [1e-4, 1e-3) or [1e-5, 1e-4))
    as "d.dde-04" or "d.dde-05", its sign kept."""
    sign, _, digits = text.partition("0.000")
    exponent = "e-04"
    if digits[0] == "0":
        digits, exponent = digits[1:], "e-05"
    return f"{sign}{digits[0]}{'.' if digits[1:] else ''}{digits[1:]}{exponent}"


_BLOCK_ROWS = 256  # rows per CSV write
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d(?:,|$))")
_UNSIGNED_EXPONENT = re.compile(r"e(?=\d)")


def _band_moved(text: str, band: np.ndarray) -> str:
    """A float64 block's orjson text, its cells at the indices band, each a positional
    "0.000ddd" or "0.0000ddd" after an optional "-", written as `_scientific` writes them, by
    one byte gather over the text and the literals after it."""
    n = len(text) + 1  # orjson's text is ascii; the literals start at n + 1
    src = np.frombuffer(f",{text},.e-04e-05".encode(), np.uint8)
    cuts = np.flatnonzero(src[:n + 1] == ord(","))  # the commas around each cell
    s, e = cuts[band] + 1, cuts[band + 1]
    lead = s + (src[s] == ord("-"))
    five = src[lead + 5] == ord("0")  # "0.0000": e-05
    lead += 5 + five  # the first significant digit
    # the segments gathered for each band cell: the text up to its "0.000", its first digit,
    # "." unless that is its only digit, its other digits and its exponent; then the end
    start, length = np.zeros((2, len(band) + 1, 5), np.intp)
    start[:, 0] = np.concatenate(([1], e))
    length[:, 0] = np.concatenate((lead - five - 5, [n])) - start[:, 0]
    start[:-1, 1], length[:-1, 1] = lead, 1
    start[:-1, 2], length[:-1, 2] = n + 1, e - lead > 1
    start[:-1, 3], length[:-1, 3] = lead + 1, e - lead - 1
    start[:-1, 4], length[:-1, 4] = n + 2 + 4 * five, 4
    start, length = start.ravel(), length.ravel()
    at = np.repeat(start - np.cumsum(length) + length, length)
    at += np.arange(len(at))
    return src[at].tobytes().decode()


def _fields(col) -> list[str]:
    """One block of a column as format_value's CSV fields, quoted as csv's QUOTE_MINIMAL
    quotes. A float64 array's come from one orjson call: "e-9" and "e16" become "e-09" and
    "e+16" over the block's text, its positional [1e-5, 1e-3) cells are moved by `_band_moved`
    and its integral cells below 1e16 and non-finite ("null") ones through format_value."""
    if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
        texts = map(format_value, _values(col))
        return ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t for t in texts]
    values = col.tolist()
    text = orjson.dumps(values).decode()[1:-1]
    text = _UNSIGNED_EXPONENT.sub("e+", _ONE_DIGIT_EXPONENT.sub("e-0", text))
    mag = np.abs(col)
    band = np.flatnonzero((mag >= 1e-5) & (mag < 1e-3))
    texts = (_band_moved(text, band) if band.size else text).split(",")
    with np.errstate(invalid="ignore"):  # np.trunc of a signaling NaN warns
        integral = (col == np.trunc(col)) & (mag < 1e16)
    for i in np.flatnonzero(integral | ~np.isfinite(col)).tolist():
        texts[i] = format_value(values[i])
    return texts


def write_csv(table: Table, path) -> None:
    """Emit a table as CSV: header row, CRLF terminators, newline-terminated."""
    n_rows = len(table.data[0]) if table.data else 0
    blocks = itertools.chain([[(name,) for name in table.columns]], (
        [c[lo : lo + _BLOCK_ROWS] for c in table.data] for lo in range(0, n_rows, _BLOCK_ROWS)))
    try:
        with open(path, "w", newline="") as fh:
            for block in blocks:
                cols = [_fields(c) for c in block]
                if len(cols) == 1:  # csv quotes a row whose only field is empty
                    cols = [['""' if t == "" else t for t in cols[0]]]
                fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc
