import csv
import dataclasses
import gc
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dampwave import linalg, problems, stability
from dampwave.harness import (
    _BLOCK_ROWS,
    DIVERGENCE_THRESHOLD,
    TABLE_SCHEMES,
    Table,
    compare_schemes,
    error_profile,
    fan_out,
    format_value,
    max_error_series,
    observed_order,
    reproduce_table1,
    reproduce_table2,
    solution_profile,
    write_csv,
)
from dampwave.linalg import SingularMatrixError
from dampwave.operators import build_grid, sample
from dampwave.problems import (
    DampedWaveProblem,
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    Num,
    ProblemConfigError,
    UnknownIdentifierError,
    load_problem_config,
    parse_expression,
    sample_problem,
)
from dampwave.schemes import config_for, solve_evolution
from dampwave.stability import ModeCouplingError

from oracles import max_error_per_level, solve_group_every_level
from test_schemes import FORCED_DOC

# published per-node reference errors for h = pi/10, k = 1/10 (errors of the
# first time level; symmetric about the midpoint, zero at the ends)
TABLE1_REFERENCE = {
    "oefd": [0.0, 6.29067e-05, 0.000119656, 0.000164692, 0.000193607,
             0.00020357, 0.000193607, 0.000164692, 0.000119656, 6.29067e-05, 0.0],
    "oifd": [0.0, 0.000135485, 0.000257708, 0.000354705, 0.000416981,
             0.000438439, 0.000416981, 0.000354705, 0.000257708, 0.000135485, 0.0],
    "fd01": [0.0, 0.001494844, 0.002843363, 0.003913553, 0.004600658,
             0.004837418, 0.004600658, 0.003913553, 0.002843363, 0.001494844, 0.0],
    "fd11": [0.0, 1.23932e-05, 2.35734e-05, 3.24459e-05, 3.81425e-05,
             4.01054e-05, 3.81425e-05, 3.24459e-05, 2.35734e-05, 1.23932e-05, 0.0],
}


class TestErrorProfile:
    def test_non_finite_velocity_gives_infinite_error(self):
        # fd01 at k = 1.5 first overflows in u_t, at level 335
        problem = sample_problem()
        (traj,) = solve_evolution(problem, build_grid(0.0, math.pi, 10),
                                  (config_for("fd01", 1.5),), 3000.0)
        assert traj.blow_up_index == 335
        assert np.isfinite(traj.displacements[-1]).all()
        profile = error_profile(traj, problem)
        assert np.isfinite(profile.abs_error).all()
        assert profile.max_error == math.inf

    def test_zero_at_initial_time(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        (traj,) = solve_evolution(problem, grid, (config_for("fd11", 0.1),), 0.5)
        # error_profile reads the last level; cut the trajectory after its first
        start = dataclasses.replace(traj, times=traj.times[:1], states=traj.states[:1])
        profile = error_profile(start, problem)
        assert profile.t == 0.0
        assert profile.max_error == pytest.approx(0.0, abs=1e-15)

    def test_reference_values_at_center(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        center = 5  # x = 1.570796327
        for name, expected in (("fd11", 4.01054e-05), ("fd01", 0.004837418)):
            (traj,) = solve_evolution(problem, grid, (config_for(name, 0.1),), 0.1)
            profile = error_profile(traj, problem)
            assert profile.x[center] == pytest.approx(1.570796327)
            assert profile.abs_error[center] == pytest.approx(expected, rel=1e-5)

    def test_nearest_snapshot_with_offset(self):
        # the last step below t_final is the kept level nearest to it
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        (traj,) = solve_evolution(problem, grid, (config_for("fd11", 0.1),), 0.234)
        profile = error_profile(traj, problem)
        assert profile.t == pytest.approx(0.2)
        assert profile.t - 0.234 == pytest.approx(-0.034)

    def test_boundary_rows_zero_error(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        (traj,) = solve_evolution(problem, grid, (config_for("oefd", 0.1),), 0.3)
        profile = error_profile(traj, problem)
        assert profile.abs_error[0] == 0.0
        assert profile.abs_error[-1] == pytest.approx(0.0, abs=1e-15)

    def test_against_own_output_is_zero(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 8)
        (traj,) = solve_evolution(problem, grid, (config_for("fd11", 0.1),), 0.4)
        snapshot = dict(zip(np.round(grid.interior_nodes, 12), traj.displacements[-1]))

        def own_output(x, t):
            key = round(x, 12)
            if key in snapshot:
                return snapshot[key]
            return 0.0  # endpoints

        self_problem = DampedWaveProblem(
            domain=problem.domain, gamma=problem.gamma, g=problem.g,
            phi=problem.phi, psi=problem.psi, u_a=problem.u_a, u_b=problem.u_b,
            exact=own_output,
        )
        profile = error_profile(traj, self_problem)
        assert profile.max_error == 0.0

    def test_requires_exact(self):
        problem = sample_problem()
        stripped = DampedWaveProblem(
            domain=problem.domain, gamma=problem.gamma, g=problem.g,
            phi=problem.phi, psi=problem.psi, u_a=problem.u_a, u_b=problem.u_b,
        )
        grid = build_grid(0.0, math.pi, 6)
        (traj,) = solve_evolution(stripped, grid, (config_for("fd11", 0.1),), 0.3)
        with pytest.raises(ValueError, match="exact"):
            error_profile(traj, stripped)


class TestObservedOrder:
    def test_fd11_temporal_second_order(self):
        report = observed_order(sample_problem(), "fd11", "time",
                                base_k=0.15, base_N=200, levels=4, t_eval=0.3)
        assert report.levels == pytest.approx([0.15, 0.075, 0.0375, 0.01875])
        assert np.all(report.orders > 1.7) and np.all(report.orders < 2.3)

    def test_fd01_temporal_first_order_in_region(self):
        report = observed_order(sample_problem(), "fd01", "time",
                                base_k=0.04, base_N=10, levels=4, t_eval=0.12)
        assert np.all(report.orders > 0.7) and np.all(report.orders < 1.3)

    def test_fd11_spatial_second_order(self):
        report = observed_order(sample_problem(), "fd11", "space",
                                base_k=0.002, base_N=5, levels=4, t_eval=0.3)
        assert report.levels == pytest.approx([math.pi / 5, math.pi / 10, math.pi / 20, math.pi / 40])
        assert np.all(report.orders > 1.7) and np.all(report.orders < 2.3)

    def test_levels_halve(self):
        report = observed_order(sample_problem(), "oifd", "time",
                                base_k=0.1, base_N=10, levels=3, t_eval=0.4)
        assert report.levels[:-1] / report.levels[1:] == pytest.approx([2.0, 2.0])

    def test_blow_up_levels_excluded(self):
        # undamped problem: the explicit scheme has no stability region and
        # every level overflows before the long evaluation horizon
        undamped = DampedWaveProblem(
            domain=(0.0, math.pi),
            gamma=lambda x: 0.0,
            g=lambda x, t: 0.0,
            phi=math.sin,
            psi=lambda x: 0.0,
            u_a=lambda t: 0.0,
            u_b=lambda t: 0.0,
            exact=lambda x, t: math.cos(t) * math.sin(x),
        )
        h = math.pi / 10
        report = observed_order(undamped, "fd01", "time",
                                base_k=5 * h, base_N=10, levels=4, t_eval=600.0)
        assert np.all(np.isinf(report.max_errors))
        assert np.all(np.isnan(report.orders))

    # k = 0.1 does not divide t_eval: at 0.55 level 0's last step is at t = 0.5, and
    # at 0.05 it has no step at all, where the start level at t = 0.0 was measured
    @pytest.mark.parametrize("t_eval,match", [
        (0.55, r"level 0 \(k=0\.1\).* t=0\.5"),
        (0.05, r"t_final=0\.05 is shorter than one time step k=0\.1"),
    ], ids=["0.55-0.5", "0.05-0.0"])
    def test_rejects_level_without_snapshot_at_t_eval(self, t_eval, match):
        with pytest.raises(ValueError, match=match):
            observed_order(sample_problem(), "fd11", "time",
                           base_k=0.1, base_N=40, levels=4, t_eval=t_eval)

    def test_scaling_invariance_of_orders(self):
        alpha = 7.0
        base = sample_problem()
        scaled = DampedWaveProblem(
            domain=base.domain, gamma=base.gamma, g=base.g,
            phi=lambda x: alpha * math.sin(x),
            psi=lambda x: -alpha * math.sin(x),
            u_a=base.u_a, u_b=base.u_b,
            exact=lambda x, t: alpha * math.exp(-t) * math.sin(x),
        )
        r1 = observed_order(base, "fd11", "time", 0.1, 30, 3, 0.4)
        r2 = observed_order(scaled, "fd11", "time", 0.1, 30, 3, 0.4)
        assert r2.max_errors == pytest.approx(alpha * r1.max_errors, rel=1e-12)
        assert r2.orders == pytest.approx(r1.orders, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            observed_order(sample_problem(), "fd11", "time", 0.1, 10, 2, 0.3)
        with pytest.raises(ValueError):
            observed_order(sample_problem(), "fd11", "sideways", 0.1, 10, 3, 0.3)


class TestTable1:
    def test_shape(self):
        table = reproduce_table1()
        assert table.columns == ("x", "oefd", "oifd", "fd01", "fd11")
        assert len(table.rows) == 11

    def test_boundary_rows_zero(self):
        table = reproduce_table1()
        assert table.rows[0][0] == 0.0
        assert all(v == 0.0 for v in table.rows[0][1:])
        assert table.rows[-1][0] == pytest.approx(math.pi)
        assert all(abs(v) < 1e-15 for v in table.rows[-1][1:])

    @pytest.mark.parametrize("scheme", sorted(TABLE1_REFERENCE))
    def test_matches_reference_columns(self, scheme):
        table = reproduce_table1()
        got = table.column(scheme)
        assert got == pytest.approx(TABLE1_REFERENCE[scheme], rel=1e-5, abs=1e-15)

    def test_profile_symmetry(self):
        table = reproduce_table1()
        for name in ("oefd", "oifd", "fd01", "fd11"):
            col = table.column(name)
            assert col == pytest.approx(col[::-1], rel=1e-10, abs=1e-12)

    def test_explicit_t_eval(self):
        # Table 1's mesh at a three-step horizon: independently verified dense-run values
        table, _ = compare_schemes(sample_problem(), build_grid(0.0, math.pi, 10), 0.1, 0.3)
        assert max(table.column("fd11")) == pytest.approx(8.456962e-05, rel=1e-4)
        assert max(table.column("fd01")) == pytest.approx(1.159688e-02, rel=1e-4)

    def test_deterministic(self):
        t1 = reproduce_table1()
        t2 = reproduce_table1()
        assert t1.rows == t2.rows


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self):
        return reproduce_table2()

    def test_shape_and_k_column(self, table):
        assert len(table.rows) == 5
        h = math.pi / 50
        assert table.column("r") == pytest.approx([1.59, 0.53, 0.32, 0.23, 0.18])
        assert table.column("k") == pytest.approx([r * h for r in (1.59, 0.53, 0.32, 0.23, 0.18)])

    def test_explicit_scheme_divergence_pattern(self, table):
        fd01 = table.column("fd01")
        flags = table.column("fd01_diverged")
        assert fd01[0] > 1e6 and flags[0] is True
        assert fd01[-1] < 1e-3 and flags[-1] is False

    def test_implicit_always_small(self, table):
        fd11 = table.column("fd11")
        assert all(v < 1e-4 for v in fd11)
        assert not any(table.column("fd11_diverged"))
        # column varies by less than one order of magnitude
        assert max(fd11) / min(fd11) < 10.0

    def test_published_reference_rows(self, table):
        # stable entries track the published values closely
        assert table.column("oefd")[1:] == pytest.approx(
            [3.05424e-05, 2.04246e-05, 1.76452e-05, 1.64986e-05], rel=0.05
        )
        assert table.column("oifd")[1:] == pytest.approx(
            [0.00079153, 0.000473008, 0.000339697, 0.000266457], rel=0.05
        )
        assert table.column("fd11") == pytest.approx(
            [2.231e-06, 1.36036e-05, 1.43835e-05, 1.45754e-05, 1.46457e-05], rel=0.05
        )

    def test_oefd_diverges_at_large_ratio(self, table):
        assert table.column("oefd")[0] > 1e6
        assert table.column("oefd_diverged")[0] is True


#: one instance of each exception class of problems, linalg and stability
ERRORS = [
    ExpressionSyntaxError("bad", 3, ("x", ")")), UnknownIdentifierError("y", 2),
    EvaluationError("overflow", Num(1.0)), ExpressionError("plain"),
    ProblemConfigError("no gamma"), SingularMatrixError("zero pivot"),
    ModeCouplingError("off its plane"),
]


class TestFanOut:
    def test_the_split_is_fixed_by_the_costs(self, set_cpus):
        # the parent runs the jobs costing {334, 113, 38} and one child {261, 188}, every
        # time, and the results come back in job order
        set_cpus(2)
        parent, costs = os.getpid(), (334, 261, 188, 113, 38)
        runs = [fan_out(lambda cost: (cost, os.getpid() == parent), [(c,) for c in costs], costs)
                for _ in range(2)]
        assert runs == [[(334, True), (261, False), (188, False), (113, True), (38, True)]] * 2

    def test_one_cpu_or_one_job_runs_in_process(self, set_cpus, monkeypatch):
        parent = os.getpid()
        set_cpus(2)
        assert fan_out(lambda: os.getpid(), [()], [1]) == [parent]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
        assert fan_out(lambda: os.getpid(), [(), ()], [1, 1]) == [parent] * 2

    @pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
    def test_every_error_class_survives_the_pipe(self, error):
        # a child's exception reaches the parent pickled
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        for name in ("offset", "expected", "name", "expression"):
            assert getattr(copy, name, None) == getattr(error, name, None)

    def test_the_error_classes_are_all_covered(self):
        classes = {cls for module in (problems, linalg, stability) for cls in vars(module).values()
                   if isinstance(cls, type) and issubclass(cls, Exception)
                   and cls.__module__ == module.__name__}
        assert classes == {type(error) for error in ERRORS}

    def test_a_childs_expression_error_is_raised_in_the_parent(self, set_cpus):
        # the parent parses the costlier "x"; the child's "1 +" fails
        set_cpus(2)
        with pytest.raises(ExpressionSyntaxError) as raised:
            fan_out(parse_expression, [("1 +",), ("x",)], [1, 2])
        with pytest.raises(ExpressionSyntaxError) as direct:
            parse_expression("1 +")
        assert str(raised.value) == str(direct.value)
        assert raised.value.offset == direct.value.offset == 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/stat")
    def test_a_fork_leaves_the_parent_one_thread(self):
        # Python 3.12 and later warn when a process with more than one OS thread forks, and
        # count the threads in the parent just after the fork: OpenBLAS stops its pool in
        # its fork handler, so the CLI's process has one then. In a fresh process, so that
        # pytest's own threads do not count.
        script = """if True:
            import os
            os.sched_getaffinity = lambda pid: {0, 1}
            from dampwave import cli, harness
            def threads():
                with open("/proc/self/stat") as fh:
                    return int(fh.read().rsplit(")", 1)[1].split()[17])
            seen = []
            os.register_at_fork(after_in_parent=lambda: seen.append(threads()))
            assert harness.fan_out(abs, [(-1,), (-2,)], [1, 1]) == [1, 2]
            print(seen)
        """
        src = os.path.dirname(os.path.dirname(problems.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[1]\n"


class TestFigureData:
    def test_solution_profile(self):
        table = solution_profile(sample_problem(), "fd11", 23, 0.05, 1.0)
        assert table.columns == ("x", "numeric", "exact")
        assert len(table.rows) == 24
        num = np.array(table.column("numeric"))
        ex = np.array(table.column("exact"))
        assert np.abs(num - ex).max() < 5e-3

    def test_solution_profile_before_the_first_step_is_refused(self):
        # it used to solve to k and report the start level, the nearer to t = 0.04
        with pytest.raises(ValueError, match="t_final=0.04 is shorter than one time step"):
            solution_profile(sample_problem(), "fd11", 10, 0.1, 0.04)

    def test_max_error_series_memory_grows_only_by_its_output(self):
        # levels stream through one buffer of blocks per lane: at 4x the levels the peak
        # grows by no more than the t column and the max_error columns of the longer run,
        # for one scheme and for the four schemes in lockstep
        k = 0.016 * math.pi / 50
        for schemes in (("fd11",), TABLE_SCHEMES):
            max_error_series(sample_problem(), schemes, 50, k, 0.1)  # warm up

            def peak(t_final):
                gc.collect()
                tracemalloc.start()
                try:
                    tables = max_error_series(sample_problem(), schemes, 50, k, t_final)
                    return tracemalloc.get_traced_memory()[1], tables
                finally:
                    tracemalloc.stop()

            (short, _), (long, tables) = peak(1.5), peak(6.0)
            # 5968 steps and the start level, in one t column that every table shares and
            # a max_error column each
            assert [c.nbytes for t in tables for c in t.data] == [8 * 5969] * 2 * len(tables)
            assert all(np.shares_memory(t.data[0], tables[0].data[0]) for t in tables)
            output = 8 * 5969 * (1 + len(tables))
            assert long - short <= output, schemes

    def test_max_error_series(self):
        (table,) = max_error_series(sample_problem(), ("fd11",), 10, 0.1, 1.0)
        assert table.columns == ("t", "max_error")
        ts = table.column("t")
        assert ts == pytest.approx(0.1 * np.arange(11))
        assert table.column("max_error")[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("case,scheme,N,r,t_final", [
        ("sample", "fd11", 50, 0.159, 1.0),
        ("forced", "oifd", 40, 0.5, 1.0),
        ("scalar-only", "oefd", 20, 0.5, 1.0),  # math.sin rejects arrays: level by level
        ("multi-block", "fd01", 50, 1.59, 80.0),  # three blocks, the last ending in a blow-up
    ])
    def test_max_error_series_is_the_per_level_loop(self, case, scheme, N, r, t_final):
        problem = {
            "sample": sample_problem(),
            "multi-block": sample_problem(),
            "forced": load_problem_config(json.dumps(dict(
                FORCED_DOC, exact="cos(2.0*t)*sin(x) + (1.0 + 0.25*x)*sin(t)"))),
            "scalar-only": dataclasses.replace(
                sample_problem(), exact=lambda x, t: math.exp(-t) * math.sin(x)),
        }[case]
        k = r * (problem.domain[1] - problem.domain[0]) / N
        (got,) = max_error_series(problem, (scheme,), N, k, t_final)
        want = max_error_per_level(problem, scheme, N, k, t_final)
        assert np.array_equal(got.column("t"), want.column("t"))
        assert np.array_equal(got.column("max_error"), want.column("max_error"), equal_nan=True)
        if case == "multi-block":
            assert len(got.rows) == 624 > 2 * _BLOCK_ROWS
            assert got.column("max_error")[-1] > 1e300
        else:
            assert max(got.column("max_error")) < 0.05

    @pytest.mark.parametrize("scheme", ["fd11", "oifd"])
    def test_max_error_series_is_the_per_row_formula(self, scheme):
        # forced, with nonzero boundary data: the in-place array form must
        # reproduce max |u - exact| row by row, bit for bit
        problem = load_problem_config(json.dumps({
            "domain": [0, math.pi],
            "gamma": "1 + x",
            "g": "(1 - t) * sin(x) - sin(t) + (1 + x) * (cos(t) - sin(x))",
            "phi": "sin(x)",
            "psi": "1 - sin(x)",
            "u_a": "sin(t)",
            "u_b": "sin(t)",
            "exact": "(1 - t) * sin(x) + sin(t)",
        }))
        (table,) = max_error_series(problem, (scheme,), 12, 0.05, 0.5)
        grid = build_grid(0.0, math.pi, 12)
        (traj,) = solve_group_every_level(problem, grid, (config_for(scheme, 0.05),), 0.5)
        x = grid.interior_nodes
        expected = [np.max(np.abs(u - sample(problem.exact, x, t)))
                    for t, u in zip(traj.times, traj.displacements)]
        assert np.array_equal(table.column("t"), traj.times)
        assert np.array_equal(table.column("max_error"), expected)
        assert 0 < min(expected[1:]) and max(expected) < 0.05


def numpy_reference_format(f):
    """The cell format through numpy's shortest round-trip formatters."""
    if abs(f) < 1e-3 or abs(f) >= 1e16:
        return np.format_float_scientific(f, unique=True, trim="-")
    return np.format_float_positional(f, unique=True, trim="-")


# with their neighbouring floats, the edges of the scientific band, of repr's positional
# band, of orjson's positional band (1e-5) and of orjson's one-digit exponents (1e-9, 1e-10)
BAND_EDGES = [float(v) for edge in (1e-10, 1e-9, 1e-5, 1e-4, 1e-3, 1e16)
              for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]


def reference_csv(table):
    """The per-cell writer: csv.writer over format_value of every row's cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table.columns)
    for row in zip(*table.data):  # array cells as numpy scalars, as row tuples held them
        writer.writerow(map(format_value, row))
    return buf.getvalue().encode()


FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from(BAND_EDGES + [-v for v in BAND_EDGES] + [
        0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -7.0, 123456.0, 2.0**53,
        9999999999999998.0, -9999999999999998.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-320, 307)),
)
TEXT_CELLS = st.text(st.sampled_from('ab ;.,"\r\n\u00e9'), max_size=6)
B = _BLOCK_ROWS
ROW_COUNTS = st.one_of(st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 3]), st.integers(0, 3 * B))


@st.composite
def random_tables(draw):
    """Tables of float64, int, range, bool, string and float-or-"" columns.

    Each column repeats a small drawn pool of cells in a seeded random order,
    so long columns stay cheap to draw.
    """
    n = draw(ROW_COUNTS)
    names = tuple(draw(st.lists(TEXT_CELLS, min_size=1, max_size=4)))
    data = []
    for _ in names:
        kind = draw(st.sampled_from(["float64", "int64", "int", "range", "bool", "bool_array",
                                     "text", "mixed"]))
        if kind == "range":
            start = draw(st.integers(-10**6, 10**6))
            data.append(range(start, start + n))
            continue
        cells = {"float64": FLOAT_CELLS, "int64": st.integers(-2**63, 2**63 - 1),
                 "int": st.integers(), "bool": st.booleans(), "bool_array": st.booleans(),
                 "text": TEXT_CELLS, "mixed": st.one_of(FLOAT_CELLS, st.just(""))}[kind]
        pool = draw(st.lists(cells, min_size=1, max_size=12))
        order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(pool), size=n)
        column = [pool[i] for i in order]
        if kind in ("float64", "int64", "bool_array"):
            column = np.array(column, dtype={"float64": np.float64, "int64": np.int64,
                                             "bool_array": bool}[kind])
        data.append(column)
    return Table(names, tuple(data))


class TestCsv:
    @settings(max_examples=200, deadline=None)
    @given(random_tables())
    def test_matches_per_cell_writer_bytes(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(table, path)
        assert path.read_bytes() == reference_csv(table)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2 * B + 3).flatmap(
        lambda n: st.lists(st.floats(), min_size=n, max_size=n)))
    def test_float64_column_matches_per_cell_writer_bytes(self, tmp_path_factory, cells):
        table = Table(("v",), (np.array(cells, dtype=np.float64),))
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        write_csv(table, path)
        assert path.read_bytes() == reference_csv(table)

    def test_orjson_forms_that_the_float64_path_rewrites(self):
        # write_csv rewrites exactly these forms; a formatter that changes one fails here
        cells = [1e-5, float(np.nextafter(1e-5, 0.0)), 2.5e-4, 1e-9, 1e16, 1.5e-10,
                 math.nan, math.inf, -math.inf, -0.0, 12.0]
        assert orjson.dumps(cells) == (b"[0.00001,9.999999999999999e-6,0.00025,1e-9,1e16,"
                                       b"1.5e-10,null,null,null,-0.0,12.0]")

    def test_a_signaling_nan_writes_as_a_quiet_one(self, tmp_path):
        snan = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)
        assert np.isnan(snan[0])
        paths = []
        for nan in (snan, np.array([math.nan])):
            column = np.concatenate(([1.0, 2.5e-4], nan, [3.0]))
            paths.append(tmp_path / f"{len(paths)}.csv")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                write_csv(Table(("v", "w"), (column, column[::-1].copy())), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes() == (
            b"v,w\r\n1,3\r\n2.5e-04,nan\r\nnan,2.5e-04\r\n3,1\r\n")

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(Table.from_rows(("a", "b"), ()), path)
        content = path.read_bytes()
        assert content == b"a,b\r\n"

    def test_table1_shape(self, tmp_path):
        path = tmp_path / "t1.csv"
        write_csv(reproduce_table1(), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "oefd", "oifd", "fd01", "fd11"]
        assert len(rows) == 12
        assert all(len(r) == 5 for r in rows)

    def test_round_trip_full_precision(self, tmp_path):
        values = (0.0, 1.0, -0.1, 4.010538170406974e-05, 1.00967e34,
                  math.pi, 2.231e-06, -7.75e-300, 123456.789)
        table = Table.from_rows(("v",), [(v,) for v in values])
        path = tmp_path / "v.csv"
        write_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        parsed = [float(r[0]) for r in rows[1:]]
        assert parsed == list(values)

    def test_scientific_below_threshold(self):
        assert "e" in format_value(9.99e-4)
        assert "e" not in format_value(1.0e-3)
        assert format_value(0.0) == "0"
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(math.inf) == "inf"
        assert format_value(7) == "7"
        for v, text in ((math.nan, "nan"), (-math.inf, "-inf"), (np.float64(math.nan), "nan"),
                        (np.float64(-math.inf), "-inf"), (-0.0, "0"), (np.float64(-0.0), "0"),
                        (np.float32(0.5), "0.5"), (np.int64(3), "3"), (np.bool_(True), "true"),
                        (np.float64(2.5e-4), "2.5e-04"), (np.float64(12.0), "12")):
            assert format_value(v) == text, v

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda f: f != 0.0),
        st.builds(lambda m, e: m * 10.0**e,
                  st.floats(min_value=1.0, max_value=10.0), st.integers(-320, 307)),
        st.sampled_from(BAND_EDGES),
        # [1e-4, 1e-3), where repr's "0.000ddd" is rewritten as "d.dde-04"
        st.floats(min_value=1e-4, max_value=1e-3, exclude_max=True),
    ))
    @example(1e-4)
    @example(1e-3)
    @example(1e16)
    @example(2.5e-4)
    def test_matches_numpy_reference_formatting(self, f):
        for v in (f, -f, np.float64(f)):
            assert format_value(v) == numpy_reference_format(v)

    def test_crlf_and_terminated(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(Table.from_rows(("a",), [(1.5,)]), path)
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n")
        assert raw == b"a\r\n1.5\r\n"

    def test_write_failure_has_path_context(self, tmp_path):
        bad = tmp_path / "no_dir" / "x.csv"
        with pytest.raises(OSError, match="no_dir"):
            write_csv(Table.from_rows(("a",), ()), bad)


def test_divergence_threshold_value():
    assert DIVERGENCE_THRESHOLD == 1e6
