import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrconc import InfeasibleLevelError, cli, mcsim
from corrconc.cli import main


def run_cli(capsys, *argv):
    """Exit code (argparse's included), stdout and stderr of one command."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows in output: {text!r}"
    return rows


class TestMoments:
    def test_odd_moment_vanishes_uncorrelated(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--rho", "0", "--n", "10", "--m-max", "2")
        assert code == 0
        rows = parse_csv(out)
        assert rows[1]["m"] == "1"
        assert float(rows[1]["series"]) == 0.0

    def test_mean_bracket_high_correlation(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--rho", "0.95", "--n", "10",
                               "--precision", "6")
        assert code == 0
        rows = parse_csv(out)
        value = float(rows[1]["series"])
        assert 0.9012 <= value <= 0.95

    def test_series_agrees_with_quadrature(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--rho", "0.56", "--n", "10",
                               "--precision", "12")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["series"]) == pytest.approx(float(row["quadrature"]), abs=1e-8)

    def test_negative_order_rejected(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--rho", "0.3", "--n", "10",
                                 "--m-max", "-1")
        assert code == 2
        assert out == ""
        assert "--m-max" in err

    @pytest.mark.parametrize("m_max", [cli._MAX_GRID + 1, 2**53 + 1, 3 * 10**18])
    def test_order_beyond_the_table_cap_rejected(self, capsys, m_max):
        # The table is held in memory, so --m-max is capped as --grid is;
        # the command stops before computing any moment.
        code, out, err = run_cli(capsys, "moments", "--rho", "0.3", "--n", "10", "--m-max", str(m_max))
        assert code == 2
        assert out == ""
        assert "--m-max" in err

    @pytest.mark.parametrize("rho, n", [(0.999, 1000), (0.9999, 10)])
    def test_former_series_give_ups_succeed(self, capsys, rho, n):
        # The moment series needed more than 1e5 terms here (exit 3).
        code, out, _ = run_cli(capsys, "moments", "--rho", str(rho), "--n", str(n),
                               "--precision", "12")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["series"]) == pytest.approx(float(row["quadrature"]), abs=1e-11)

    def test_series_flags_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["moments", "--rho", "0.5", "--n", "10", "--max-terms", "10"])
        assert excinfo.value.code == 2

    def test_odd_orders_beyond_the_float_range_of_binomials(self, capsys):
        # From m = 1031 the small-rho expansion raised OverflowError (exit 1).
        code, out, _ = run_cli(capsys, "moments", "--rho", "0", "--n", "10", "--m-max", "1031")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1032
        assert float(rows[1031]["series"]) == 0.0

    @pytest.mark.parametrize("command", [
        ["bounds", "--t", "0.1"],
        ["moments", "--rho", "0.3"],
        ["density", "--rho", "0.3", "--r", "0.1"],
    ])
    def test_sample_size_beyond_the_float_range(self, capsys, command):
        # A 401-digit n raised OverflowError (exit 1) in every computation.
        code, out, err = run_cli(capsys, *command, "--n", str(10**400))
        assert code == 2
        assert out == ""
        assert err.startswith("corrconc: invalid arguments: sample size n must lie in")

    def test_correlation_one_ulp_below_one(self, capsys):
        # 1 - 2^-53: scipy's 2F1 returned nan on the grid, printed with exit 0.
        code, out, _ = run_cli(capsys, "moments", "--rho", "0.9999999999999999",
                               "--n", "100000", "--precision", "15")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["series"]) == pytest.approx(1.0, abs=1e-12)
            assert float(row["quadrature"]) == pytest.approx(1.0, abs=1e-12)


class TestTable1:
    def test_default_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        rows = parse_csv(out)
        assert [r["e_r"] for r in rows] == ["0.000", "-0.237", "0.531", "-0.712", "0.901"]
        assert [r["ub"] for r in rows] == ["0.471", "0.449", "0.359", "0.264", "0.109"]
        assert [r["sd_r"] for r in rows] == ["0.333", "0.312", "0.229", "0.146", "0.033"]

    def test_smallest_sample_mean_column(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--n", "3", "--reps", "200")
        assert code == 0
        rows = parse_csv(out)
        assert rows[4]["e_r"] == "0.776"

    def test_simulated_columns_close_to_closed_forms(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--reps", "10000", "--seed", "2023")
        assert code == 0
        for row in parse_csv(out):
            assert abs(float(row["r_bar"])) <= 1.0
            assert float(row["s_r"]) >= 0.0


class TestCoverage:
    def test_monotone_columns(self, capsys):
        code, out, _ = run_cli(capsys, "coverage", "--reps", "4000")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["c0_pct"]) >= float(row["c1_pct"]) >= float(row["c2_pct"])

    def test_clipped_flags_for_wide_intervals(self, capsys):
        code, out, _ = run_cli(capsys, "coverage", "--reps", "500")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["c0_clipped"] == "true"
        assert rows[0]["c0_lower"].startswith("-1.7")

    def test_large_sample_tight_interval_coverage(self, capsys):
        code, out, _ = run_cli(capsys, "coverage", "--n", "100", "--reps", "10000",
                               "--seed", "2023", "--rho-list", "0.95")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["c2_pct"]) == pytest.approx(98.8, abs=1.0)

    def test_worker_count_does_not_change_bytes(self, capsys, monkeypatch):
        # --workers 3 forks a real pool of 3 over the three chunks, whatever
        # the host's CPU count, and prints what the serial run prints.
        from concurrent.futures import ProcessPoolExecutor

        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        _, out1, _ = run_cli(capsys, "coverage", "--reps", "6000", "--seed", "11",
                             "--workers", "1")
        _, out2, _ = run_cli(capsys, "coverage", "--reps", "6000", "--seed", "11",
                             "--workers", "3")
        assert out1 == out2
        assert pools == [3]


class TestSimulationWorkers:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["table1", "coverage"])
    def test_workers_below_one_is_a_usage_error(self, capsys, command, workers):
        code, out, err = run_cli(capsys, command, "--reps", "100", "--workers", workers)
        assert code == 2
        assert out == ""
        assert "workers must be >= 1" in err


class TestSimulationInputs:
    # ModelParams owns the rho range and conc the alpha level; the CLI
    # restates neither.
    @pytest.mark.parametrize("rho_list", ["", "0.3,abc", "0.3,1.5", "nan"])
    @pytest.mark.parametrize("command", ["table1", "coverage"])
    def test_bad_rho_list_is_a_usage_error(self, capsys, command, rho_list):
        code, out, _ = run_cli(capsys, command, "--reps", "50", f"--rho-list={rho_list}")
        assert (code, out) == (2, "")

    def test_infeasible_alpha_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "coverage", "--reps", "50", "--alpha", "3")
        assert (code, out) == (4, "")
        assert "infeasible" in err

    def test_alpha_above_one_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "coverage", "--reps", "50", "--alpha", "1.5")
        assert (code, out) == (2, "")
        assert "alpha must lie in (0, 1)" in err

    @pytest.mark.parametrize("command", ["table1", "coverage"])
    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch, command):
        # One simulation row holds 2n normals, so a huge n cannot be
        # allocated whatever the chunk size; the allocation is stood in
        # for, never made.
        def no_memory(seed, keys, count, ws=None):
            raise MemoryError(f"Unable to allocate {8 * count * len(keys)} bytes")

        monkeypatch.setattr(mcsim, "normals", no_memory)
        code, out, err = run_cli(capsys, command, "--n", "1000000000000", "--reps", "2")
        assert (code, out) == (2, "")
        assert err.startswith("corrconc: out of memory: Unable to allocate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("reps, message", [
        (10**17, "corrconc: out of memory: Unable to allocate"),  # numpy's MemoryError
        (10**18, "corrconc: invalid arguments: array is too big"),  # numpy's ValueError
    ])
    def test_too_many_replications_exit_before_any_draw(self, capsys, monkeypatch, reps, message):
        # The (rho, reps) result is allocated first, so a run too large for
        # memory fails before a chunk is listed or drawn, not in the OOM killer.
        def no_draws(*args, **kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(mcsim, "normals", no_draws)
        code, out, err = run_cli(capsys, "table1", "--n", "10", "--reps", str(reps))
        assert (code, out) == (2, "")
        assert err.startswith(message)


class TestBounds:
    def test_tiny_t_clamps_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--t", "0.0001")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert all(r["clamped"] == "1.000" for r in rows)

    def test_conservative_interval(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--rho", "0", "--n", "10",
                               "--alpha", "0.05", "--kind", "c0")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["t"] == "1.718"
        assert rows[0]["clipped"] == "true"

    def test_tightest_interval_strong_correlation(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--rho", "0.95", "--n", "10",
                               "--alpha", "0.05", "--kind", "c2")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["t"] == "0.084"

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--rho", "0", "--n", "10",
                               "--alpha", "2.5")
        assert code == 4
        assert "infeasible" in err

    def test_huge_t_gives_zero_not_nan(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--t", "1e308")
        assert code == 0
        assert [(r["raw"], r["clamped"]) for r in parse_csv(out)] == [("0.000", "0.000")] * 4

    def test_tiny_alpha_gives_finite_width(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--alpha", "1e-320")
        assert code == 0
        rows = parse_csv(out)
        assert all(math.isfinite(float(r["t"])) for r in rows)
        # (1 - rho^2) sqrt(8 (ln 2 - ln alpha) / n) at rho = 0, divisor 8
        assert rows[1]["t"] == f"{math.sqrt(8 * (math.log(2) - math.log(1e-320)) / 10):.3f}"

    def test_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bounds", "--n", "10"])  # neither --t nor --alpha
        assert excinfo.value.code == 2
        code, _, err = run_cli(capsys, "bounds", "--rho", "1.5", "--n", "10", "--t", "0.1")
        assert code == 2
        assert "invalid" in err


class TestDensity:
    def test_flat_density_point(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--rho", "0", "--n", "4",
                               "--r", "0.3", "--precision", "6")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["density"] == "0.500000"

    @pytest.mark.parametrize("argv", [
        ("--rho", "0.999", "--n", "1000", "--r", "0.999"),
        ("--rho", "0.5", "--n", "100000", "--grid", "41"),
    ])
    def test_large_sample_points_succeed(self, capsys, argv):
        # Both failed with the power series (OverflowError).
        code, out, _ = run_cli(capsys, "density", *argv)
        assert code == 0
        assert all(float(row["density"]) >= 0.0 for row in parse_csv(out))

    def test_correlation_one_ulp_below_one(self, capsys):
        # 1 - 2^-53: scipy's 2F1 returned nan at the mode, printed with exit 0.
        code, out, _ = run_cli(capsys, "density", "--rho", "0.9999999999999999",
                               "--n", "100000", "--r", "0.9999999999999999", "--r", "0.5")
        assert code == 0
        values = [float(row["density"]) for row in parse_csv(out)]
        assert all(math.isfinite(v) for v in values) and values[0] > 1e17

    def test_series_flags_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["density", "--rho", "0.5", "--n", "10", "--r", "0.1", "--tol", "1e-10"])
        assert excinfo.value.code == 2

    def test_grid_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--rho", "0.56", "--n", "10",
                               "--grid", "9")
        assert code == 0
        assert len(parse_csv(out)) == 9

    def test_grid_is_one_call(self, capsys, monkeypatch):
        # The grid goes to density_at as one sequence; --r points one at a time.
        calls = []
        density_at = cli.density_at
        monkeypatch.setattr(cli, "density_at", lambda p, r: calls.append(r) or density_at(p, r))
        code, grid_out, _ = run_cli(capsys, "density", "--rho", "0.56", "--n", "10",
                                    "--grid", "3", "--precision", "12")
        assert code == 0 and len(calls) == 1 and len(calls[0]) == 3
        code, point_out, _ = run_cli(capsys, "density", "--rho", "0.56", "--n", "10",
                                     "--r", "-0.5", "--r", "0.0", "--r", "0.5",
                                     "--precision", "12")
        assert code == 0 and calls[1:] == [-0.5, 0.0, 0.5]
        assert grid_out == point_out

    @pytest.mark.parametrize("k", ["100001", "4611686018427387904"])
    def test_grid_ceiling(self, capsys, k):
        # Rejected before any point is built.
        code, out, err = run_cli(capsys, "density", "--rho", "0.3", "--n", "10", "--grid", k)
        assert code == 2 and out == ""
        assert err == f"corrconc: invalid arguments: --grid must be <= 100000, got {k}\n"


class TestOutputHandling:
    def test_repeat_runs_are_byte_identical(self, capsys):
        args = ("coverage", "--reps", "3000", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_cached_parser_matches_fresh_parser(self, capsys, monkeypatch):
        # main reuses one parser; flags given to one command (an appended
        # --r, a --rho-list) must not leak into the next.
        commands = [
            ("table1", "--n", "5", "--reps", "50", "--rho-list", "0.3,-0.5"),
            ("density", "--rho", "0.2", "--n", "6", "--r", "0.1", "--r", "0.4"),
            ("table1", "--n", "5", "--reps", "50"),
            ("density", "--rho", "0.2", "--n", "6", "--r", "-0.7"),
        ]
        cached = [run_cli(capsys, *argv) for argv in commands]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(capsys, *argv) for argv in commands]
        assert cached == fresh
        assert len(parse_csv(cached[2][1])) == 5
        assert len(parse_csv(cached[3][1])) == 1

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table1", "--reps", "300", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("rho,e_r,")

    @pytest.mark.parametrize("target", ["missing/t.csv", "."])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, target):
        # A missing directory, then a directory itself.
        path = tmp_path / target
        code, out, err = run_cli(capsys, "bounds", "--n", "10", "--t", "0.2", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("corrconc: cannot write") and str(path) in err

    @pytest.mark.parametrize("argv, flag", [
        (("bounds", "--n", "10", "--t", "0.2", "--rho=--"), "--rho"),
        (("bounds", "--n", "10", "--t", "0.2", "--out=--"), "--out"),
        (("density", "--rho", "0.3", "--n", "10", "--r", "0.1", "--r=--"), "--r"),
    ])
    def test_double_dash_value_is_a_usage_error(self, capsys, argv, flag):
        # argparse 3.11 drops "--" from an "=" value; --rho=-- used to exit
        # 2 with a TypeError text, and --r=-- to exit 0 printing "[],[]".
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: corrconc {argv[0]} ")
        assert err.endswith(f"corrconc {argv[0]}: error: argument {flag}: expected one argument\n")

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--rho", "0.56", "--n", "10",
                               "--alpha", "0.05", "--precision", "9")
        rows = parse_csv(out)
        from corrconc import ModelParams, TailBoundKind, coverage_interval
        iv = coverage_interval(TailBoundKind.CONSERVATIVE, ModelParams(rho=0.56, n=10), 0.05)
        got = next(r for r in rows if r["kind"] == "c0")
        assert float(got["t"]) == pytest.approx(iv.half_width, abs=5e-10)

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--rho", "0", "--n", "10",
                               "--r", "0.25", "--format", "markdown")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| r")
        assert set(lines[1]) <= {"|", "-"}

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--t", "0.5",
                               "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert list(records[0]) == ["kind", "raw", "clamped"]
        assert all(isinstance(r["raw"], float) for r in records)

    def test_precision_validation(self, capsys, monkeypatch):
        # The output flags are checked before a command computes anything.
        def computes(*args, **kwargs):
            raise AssertionError("computed before checking the output flags")

        for name in ("run_experiment", "moment", "density_at", "tail_bound", "coverage_interval"):
            monkeypatch.setattr(cli, name, computes)
        commands = [
            ("moments", "--rho", "0.3", "--n", "10"),
            ("table1", "--n", "10", "--reps", "300000"),
            ("coverage", "--n", "10", "--reps", "300000"),
            ("bounds", "--n", "10", "--t", "0.2"),
            ("bounds", "--n", "10", "--alpha", "0.05"),
            ("density", "--rho", "0.3", "--n", "10", "--r", "0.1"),
            ("density", "--rho", "0.3", "--n", "10", "--grid", "5"),
        ]
        for argv in commands:
            for precision in ("0", "16"):
                code, out, err = run_cli(capsys, *argv, "--precision", precision)
                assert (code, out) == (2, ""), argv
                assert err == (
                    f"corrconc: invalid arguments: precision must lie in [1, 15], got {precision}\n"
                ), argv

    def test_environment_does_not_change_the_seed(self, capsys, monkeypatch):
        # Only --seed sets the seed: output depends on the command line alone.
        monkeypatch.delenv("CORRCONC_SEED", raising=False)
        _, out_plain, _ = run_cli(capsys, "table1", "--reps", "2000")
        monkeypatch.setenv("CORRCONC_SEED", "404")
        _, out_env, _ = run_cli(capsys, "table1", "--reps", "2000")
        assert out_env == out_plain


_ONE_PER_COMMAND = [
    ("moments", "--rho", "0.3", "--n", "10", "--m-max", "2"),
    ("table1", "--n", "10", "--reps", "200", "--rho-list", "0.3,-0.5"),
    ("coverage", "--n", "10", "--reps", "200", "--rho-list", "0.3,-0.5"),
    ("bounds", "--rho", "0.3", "--n", "10", "--t", "0.2"),
    ("bounds", "--rho", "0.3", "--n", "10", "--alpha", "0.05"),
    ("density", "--rho", "0.3", "--n", "10", "--r", "0.1", "--r", "-0.5"),
    ("density", "--rho", "0.3", "--n", "10", "--grid", "5"),
]


class TestCommandContract:
    """A command computes its table and returns it, header and rows, each
    row a tuple of cells in header order; main alone renders and writes it."""

    @pytest.mark.parametrize("argv", _ONE_PER_COMMAND, ids=" ".join)
    def test_command_returns_its_table(self, capsys, argv):
        header, rows = cli._COMMANDS[argv[0]](cli._parse_args(list(argv)))
        assert capsys.readouterr().out == ""
        assert rows and len(set(header)) == len(header)
        assert all(type(row) is tuple and len(row) == len(header) for row in rows)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, cli.render_table(header, rows, cli.OutputSpec()))

    @pytest.mark.parametrize("argv", _ONE_PER_COMMAND, ids=" ".join)
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "t.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("corrconc: cannot write output: ")

    @pytest.mark.parametrize("exc, code", [
        (ValueError("bad"), 2), (InfeasibleLevelError("bad"), 4), (MemoryError("bad"), 2),
    ])
    @pytest.mark.parametrize("name, argv", [
        ("run_experiment", ("table1", "--n", "10", "--reps", "200")),
        ("density_at", ("density", "--rho", "0.3", "--n", "10", "--grid", "5")),
    ])
    def test_a_command_that_raises_writes_nothing(self, capsys, monkeypatch, tmp_path,
                                                  exc, code, name, argv):
        def raises(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, raises)
        assert run_cli(capsys, *argv)[:2] == (code, "")
        target = tmp_path / "t.csv"
        assert run_cli(capsys, *argv, "--out", str(target))[:2] == (code, "")
        assert not target.exists()


_DENSITY = ("density", "--rho", "0.2", "--n", "6", "--r", "0.4")


def _outcome(parse, argv):
    """What a parse gives for argv: each attribute's type and repr (so
    that -0.0 and nan compare), or argparse's exit code; then stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {k: (type(v), repr(v)) for k, v in vars(parse(list(argv))).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _direct(argv):
    """The direct parse of argv, or None where it defers to argparse."""
    return cli._direct_parse(list(argv), *cli._parser()._direct_specs[argv[0]])


class TestDispatch:
    """main parses a well-formed command line straight from the
    subcommand's actions and hands anything else to argparse; what it
    prints and returns must be what the full parse gives."""

    @pytest.mark.parametrize("argv", [
        (), ("-h",), ("bounds", "-h"), ("nope",),
        ("bounds", "--n", "10", "--bogus"), ("bounds", "--n", "10", "--t", "0.2", "stray"),
        ("bounds", "--n", "x", "--t", "1"),
        ("bounds", "--n", "10", "--t", "1", "--alpha", "0.05"),
        (*_DENSITY, "--prec", "4"),
        ("table1", "--n", "5", "--reps", "50", "--rho-list=-0.5,0.3"),
    ])
    def test_matches_the_full_parse(self, capsys, monkeypatch, argv):
        assert _outcome(cli._parse_args, argv) == _outcome(cli._parser().parse_args, argv)
        fast = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_parse_args", cli._parser().parse_args)
        assert run_cli(capsys, *argv) == fast

    @pytest.mark.parametrize("argv", [
        pytest.param(("bounds",), id="no-flags"),
        pytest.param(("bounds", "--n", "10", "--bogus"), id="unknown-flag"),
        pytest.param((*_DENSITY, "--prec", "4"), id="abbreviated-flag"),
        pytest.param((*_DENSITY, "--prec=4"), id="abbreviated-flag-with-value"),
        pytest.param(("bounds", "-h"), id="help"),
        pytest.param(("bounds", "--n", "10", "--help"), id="long-help"),
        pytest.param(("bounds", "--n", "10", "--", "--t", "0.2"), id="double-dash"),
        pytest.param(("bounds", "--n", "10", "--t", "0.2", "--out=--"), id="double-dash-value"),
        pytest.param(("bounds", "--rho", "-1e-3", "--n", "10", "--t", "0.2"), id="value-read-as-flag"),
        pytest.param(("bounds", "--rho", "-inf", "--n", "10", "--t", "0.2"), id="inf-read-as-flag"),
        pytest.param(("bounds", "--n", "10", "--t", "--alpha", "0.05"), id="flag-as-value"),
        pytest.param(("bounds", "--n", "x", "--t", "1"), id="failed-conversion"),
        pytest.param(("table1", "--rho-list", ","), id="failed-type-function"),
        pytest.param(("bounds", "--n", "10", "--t", "1", "--kind", "c9"), id="failed-choice"),
        pytest.param(("bounds", "--n", "10", "--t"), id="missing-value"),
        pytest.param(("bounds", "--t", "0.2"), id="required-flag-left-out"),
        pytest.param(("bounds", "--n", "10"), id="required-group-left-out"),
        pytest.param(("bounds", "--n", "10", "--t", "1", "--alpha", "0.05"), id="exclusive-pair"),
        pytest.param(("density", "--rho", "0", "--n", "6", "--r=0", "--grid=3"), id="exclusive-pair-eq"),
    ])
    def test_falls_back_to_argparse(self, capsys, monkeypatch, argv):
        assert _direct(argv) is None
        self.test_matches_the_full_parse(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("argv", [
        _DENSITY,
        ("density", "--rho=-0.2", "--n=6", "--r", "-.4", "--r=-1", "--r", "0.4", "--out="),
        ("bounds", "--rho", "0.1", "--rho", "-0.3", "--n", "10", "--alpha", "0.05",
         "--kind=c2", "--format", "jsonl", "--format=markdown", "--precision", "-0"),
        ("table1", "--n", "5", "--rho-list", "0.3", "--rho-list=-0.5,0.3", "--seed", "-1"),
        ("coverage", "--alpha=-1", "--workers", "0", "--reps", "3"),
        ("moments", "--rho", "-1", "--n", "-4", "--m-max", "-1"),
    ])
    def test_parses_directly(self, capsys, monkeypatch, argv):
        args = _direct(argv)
        assert args is not None
        assert _outcome(lambda _: args, argv) == _outcome(cli._parser().parse_args, argv)
        self.test_matches_the_full_parse(capsys, monkeypatch, argv)

    def test_defaults_are_argparse_objects(self):
        # argparse puts each action's default itself in the namespace.
        for argv in (("table1",), ("coverage",), ("bounds", "--n", "10", "--t", "1")):
            direct, full = cli._parse_args(list(argv)), cli._parser().parse_args(list(argv))
            assert vars(direct).keys() == vars(full).keys()
            defaulted = [k for k in vars(full) if f"--{k}" not in argv and k != "command"]
            assert all(getattr(direct, k) is getattr(full, k) for k in defaulted), defaulted
        # An appended flag starts a fresh list each time.
        first, second = cli._parse_args(list(_DENSITY)), cli._parse_args(list(_DENSITY))
        assert first.r == second.r == [0.4] and first.r is not second.r

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["corrconc", *_DENSITY])
        assert main() == 0
        assert capsys.readouterr().out == run_cli(capsys, *_DENSITY)[1]


# The direct-parse property: argv drawn from each subparser's own
# vocabulary, mostly well formed, sometimes with a junk value, an
# abbreviated flag, a flag left without its value, -h, --, a dropped token
# or the second flag of an exclusive group.
_PARSE_JUNK = ("", "-", "-1e-3", "-inf", "--", "abc", "-h", "--n", "1e999", "nan", "0x10")


def _subparser(command):
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _flag_values(action):
    if action.choices is not None:
        valid = st.sampled_from(list(action.choices))
    elif action.type is int:
        valid = st.integers(-3, 40).map(str)
    elif action.type is float:
        valid = st.one_of(st.floats(-1.5, 1.5).map(repr), st.sampled_from(("-.5", "-0", "1e-3")))
    elif action.type is None:
        valid = st.sampled_from(("t.csv", "-", ""))
    else:  # a --rho-list
        valid = st.lists(st.floats(-1.0, 1.0).map(repr), min_size=1, max_size=3).map(",".join)
    return st.sampled_from((True,) * 9 + (False,)).flatmap(
        lambda pick: valid if pick else st.sampled_from(_PARSE_JUNK)
    )


@st.composite
def _parse_argv(draw, command):
    p = _subparser(command)
    flagged = [a for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
    chosen = [a for a in flagged if a.required]
    chosen += [draw(st.sampled_from(g._group_actions)) for g in p._mutually_exclusive_groups]
    chosen += draw(st.lists(st.sampled_from(flagged), max_size=4))
    tokens = []
    for action in draw(st.permutations(chosen)):
        flag = draw(st.sampled_from(action.option_strings))
        if draw(st.integers(0, 9)) == 0:
            flag = flag[:draw(st.integers(3, max(3, len(flag) - 1)))]
        value = draw(_flag_values(action))
        tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 2)))):
        where = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("junk", "flag", "help", "drop")))
        if edit == "drop" and tokens:
            del tokens[min(where, len(tokens) - 1)]
        elif edit == "flag":
            tokens.append(draw(st.sampled_from(flagged)).option_strings[-1])
        else:
            tokens.insert(where, "-h" if edit == "help" else draw(st.sampled_from(_PARSE_JUNK)))
    return [command, *tokens]


class TestDirectParse:
    """The direct parse gives what argparse gives: the same namespace, or
    (through its fall-back) the same exit, usage, error or help text."""

    @pytest.mark.parametrize("command", ["moments", "table1", "coverage", "bounds", "density"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_full_parse(self, command, data):
        argv = data.draw(_parse_argv(command))
        assert _outcome(cli._parse_args, argv) == _outcome(cli._parser().parse_args, argv)


# Flag values for the failure-contract sweep, as strings a shell would
# pass: values inside each domain, most of the time, and otherwise edges
# of the domain, values beyond it and non-numeric tokens.
_ULP = 2.0**-52
_EDGE_REALS = (
    math.nan, math.inf, -math.inf, 0.0, 5e-324, -5e-324, 1.0, -1.0,
    1.0 - _ULP / 2, 1.0 + _ULP, -1.0 + _ULP / 2, -1.0 - _ULP, 2.0, 1e308,
)
_JUNK = ("abc", "", "0.3,0.4", "1e999", "0x10")


def _mostly(usual, other):
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda pick: usual if pick else other
    )


def _reals(lo, hi):
    return _mostly(
        st.floats(lo, hi).map(repr),
        st.one_of(st.sampled_from(_EDGE_REALS).map(repr), st.sampled_from(_JUNK)),
    )


def _ints(lo, hi, *edges):
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(edges + ("abc", "", "3.5")))


_RHOS = _reals(-1.0, 1.0)
_EXACT_NS = _ints(3, 1000, "2", "0", "-4", str(2**62))


@st.composite
def _argv(draw, command):
    def flag(name, values):
        return f"--{name}={draw(values)}"

    if command == "moments":
        return [command, flag("rho", _RHOS), flag("n", _EXACT_NS), flag("m-max", _ints(0, 4, "-1"))]
    if command == "density":
        if draw(st.booleans()):
            points = [flag("r", _reals(-1.0, 1.0)) for _ in range(draw(st.integers(1, 2)))]
        else:
            points = [flag("grid", _ints(1, 5, "0", "-1"))]
        return [command, flag("rho", _RHOS), flag("n", _EXACT_NS), *points]
    if command == "bounds":
        if draw(st.booleans()):
            level = flag("t", _reals(0.0, 3.0))
        else:
            level = flag("alpha", _reals(0.0, 1.0))
        kind = draw(st.sampled_from(("", "bernstein", "c0", "c1", "c2")))
        argv = [command, flag("rho", _RHOS), flag("n", _EXACT_NS), level]
        return argv + [f"--kind={kind}"] if kind else argv
    argv = [
        command,
        "--rho-list=" + ",".join(draw(st.lists(_RHOS, min_size=1, max_size=2))),
        flag("n", _ints(3, 30, "2", "-4")),
        flag("reps", _ints(2, 50, "1", "0")),
        flag("seed", _ints(0, 10, "-1", str(2**64))),
        "--workers=1",
    ]
    if command == "coverage":
        argv.append(flag("alpha", _reals(0.0, 1.0)))
    return argv


def _check_contract(capsys, argv):
    """Run argv, check its exit code and what it printed; return stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 4), (argv, err)
    if code != 0:
        assert out == "", argv
        return out
    assert "nan" not in out, argv
    for i, line in enumerate(out.splitlines()[1:]):
        if "inf" in line:
            args = cli._parser().parse_args(argv)
            assert argv[0] == "density" and args.n == 3, argv
            assert args.r is not None and abs(args.r[i]) == 1.0, argv
    return out


class TestFailureContract:
    """Every command, given values from the edges of its domain and
    beyond, exits 0, 2 or 4, prints nothing when it fails and never
    prints nan; it prints inf only for the n = 3 density at r = +-1."""

    @pytest.mark.parametrize("command", ["moments", "table1", "coverage", "bounds", "density"])
    # capsys is shared by the examples; each one reads it empty.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_codes_and_output(self, capsys, command, data):
        _check_contract(capsys, data.draw(_argv(command)))

    def test_the_documented_infinite_density(self, capsys):
        argv = ["density", "--rho=0.3", "--n=3", "--r=1", "--r=-1", "--r=0.5"]
        out = _check_contract(capsys, argv)
        assert [row["density"] for row in parse_csv(out)][:2] == ["inf", "inf"]
