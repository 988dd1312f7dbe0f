"""Command-line front end.

Subcommands map one-to-one onto the library's capabilities:

    moments    exact moments, base vs shifted trapezoid grid
    table1     closed-form mean/sd/upper-bound columns next to simulation
    coverage   empirical coverage of the three sub-Gaussian intervals
    bounds     tail bounds at a given t, or intervals at a given alpha
    density    density values of the sample correlation

A command line of exact flags, each `--flag value` or `--flag=value`,
is parsed straight from the subcommand's argparse actions; any other
goes to argparse, so errors and help are argparse's own.  main checks the
output flags before a command computes anything; the command returns one
table, its header and its rows, each a tuple of cells in header order,
and main renders it as CSV (default), Markdown, or JSON lines and writes
it, the one place output is written.  Floats take a fixed decimal
precision, so output is byte-stable across runs and worker counts.
Exit codes: 0 ok, 2 usage (or a simulation too large for memory), 4
infeasible level; 3 is reserved and nothing returns it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
from dataclasses import dataclass

from .approx import mean_approx, var_approx, variance_bounds
from .conc import TailBoundKind, coverage_interval, tail_bound, tail_bound_clamped
from .errors import InfeasibleLevelError
from .params import ModelParams, _integer

__all__ = ["OutputSpec", "main"]

# exactdist and mcsim (numpy) load, through the package's lazy names,
# when a command first needs them.  Commands call
# these names as attributes of this module, so that whatever is set on it
# (a tracer's wrapper) is what runs.
_LAZY = frozenset({"SimConfig", "density_at", "moment", "moment_quadrature", "run_experiment"})
_module = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 4

_MAX_GRID = 100_000  # density --grid and moments --m-max; their tables are held in memory
_DEFAULT_RHO_LIST = (0.0, -0.25, 0.56, -0.75, 0.95)
_FORMATS = ("csv", "markdown", "jsonl")


@dataclass(frozen=True)
class OutputSpec:
    """Where and how a table is written: format, destination path (None
    for standard output), and decimal places for floats, stored as an int."""

    format: str = "csv"
    destination: str | None = None
    precision: int = 3

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        object.__setattr__(self, "precision", _integer("precision", self.precision))
        if not 1 <= self.precision <= 15:
            raise ValueError(f"precision must lie in [1, 15], got {self.precision}")


def _column(values: list, precision: int) -> list[str]:
    """One column's csv or markdown cells: a column of floats in one
    pass, any other column a cell at a time."""
    fmt = f"{{:.{precision}f}}".format
    if all(isinstance(v, float) for v in values):
        return list(map(fmt, values))
    return [str(v).lower() if isinstance(v, bool) else fmt(v) if isinstance(v, float) else str(v)
            for v in values]


# JSON text holds no raw line break, so one encode of a list, a token a
# line, splits back into its tokens.
_encode = json.JSONEncoder(separators=("\n", ": ")).encode


def render_table(header: list[str], rows: list[tuple], out: OutputSpec) -> str:
    """The table as text, each row a tuple of cells in header order: csv
    joins each line's cells with commas; markdown and jsonl fill one `%`
    row template per table, laid out for each line, with the cells in row
    order in one pass."""
    p = out.precision
    if out.format == "jsonl":
        cells = _encode([round(v, p) if isinstance(v, float) else v for row in rows for v in row])
        cells = cells[1:-1].splitlines()
        line = "{" + ", ".join(json.dumps(k).replace("%", "%%") + ": %s" for k in header) + "}"
        lines = [line] * len(rows)
    else:
        # The header heads each column and is laid out as a row is.
        cols = [[k, *_column([row[i] for row in rows], p)] for i, k in enumerate(header)]
        if out.format == "csv":
            # No cell the CLI emits (a number, a bound kind, true or false)
            # holds ',', '"', '\r' or '\n', so no cell needs csv quoting.
            return "\n".join(map(",".join, zip(*cols))) + "\n"
        cells = itertools.chain.from_iterable(zip(*cols))
        widths = [max(map(len, col)) for col in cols]
        line = "| " + " | ".join(f"%-{w}s" for w in widths) + " |"
        lines = [line, "|" + "|".join("-" * (w + 2) for w in widths) + "|", *[line] * len(rows)]
    return ("\n".join(lines) + "\n") % tuple(cells)


def _parse_rho_list(text: str) -> list[float]:
    # ModelParams checks the range, before any draw is made.
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rho list {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("rho list is empty")
    return values


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("--precision", type=int, default=3, help="decimal places (1-15)")
    p.add_argument("--out", metavar="PATH", default=None, help="write to PATH instead of stdout")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--rho-list", type=_parse_rho_list,
                   default=list(_DEFAULT_RHO_LIST), metavar="R1,R2,...")
    p.add_argument("--reps", type=int, default=10_000, help="number of replications")
    p.add_argument("--seed", type=int, default=2023, help="64-bit seed (default 2023)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; output is identical for any value")


class _ArgumentParser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        # argparse 3.11 drops "--" given as a flag's "=" value (--rho=--)
        # and would store [] in its place, or append it to --r.
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="corrconc",
        description="Exact distribution, approximations, concentration bounds, and "
                    "simulation for the Pearson sample correlation coefficient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact moments on two independent trapezoid grids")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, default=4, metavar="M",
                   help=f"orders 0 to M, 0 <= M <= {_MAX_GRID} (default 4)")
    _add_output_flags(p)

    p = sub.add_parser("table1", help="closed-form columns next to a simulation")
    _add_sim_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("coverage", help="empirical coverage of the sub-Gaussian intervals")
    _add_sim_flags(p)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_output_flags(p)

    p = sub.add_parser("bounds", help="tail bounds at t, or intervals at alpha")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float)
    group.add_argument("--alpha", type=float)
    p.add_argument("--kind", choices=[k.value for k in TailBoundKind], default=None,
                   help="restrict to one bound kind")
    _add_output_flags(p)

    p = sub.add_parser("density", help="density of the sample correlation")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, action="append",
                       help="evaluation point (repeatable)")
    group.add_argument("--grid", type=int, metavar="K",
                       help=f"K evenly spaced interior points of [-1, 1], 1 <= K <= {_MAX_GRID}")
    _add_output_flags(p)

    # The direct parse's table, built with the parser and so once per process.
    parser._direct_specs = {name: _direct_spec(p) for name, p in sub.choices.items()}
    return parser


# Building the parser costs about as much as a short command, so main
# builds it once per process; parse_args leaves it unchanged.
_parser = functools.cache(build_parser)


def _check_size(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")
    if value > _MAX_GRID:
        raise ValueError(f"{flag} must be <= {_MAX_GRID}, got {value}")


def cmd_moments(args):
    params = ModelParams(rho=args.rho, n=args.n)
    _check_size("--m-max", args.m_max, 0)
    rows = []
    for m in range(args.m_max + 1):
        res = _module.moment(m, params)
        rows.append((m, res.value, _module.moment_quadrature(m, params), res.terms_used))
    return ["m", "series", "quadrature", "terms_used"], rows


def _simulation_table(args, header, cells, **config):
    # One SimConfig per rho, all run in one call, so that the draws are
    # made once for the whole --rho-list.  A row is rho, then the cells
    # of cells(params, summary), which header names.
    cfgs = [_module.SimConfig(params=ModelParams(rho=rho, n=args.n), reps=args.reps,
                              seed=args.seed, **config) for rho in args.rho_list]
    summaries = _module.run_experiment(cfgs, workers=args.workers)
    return ["rho", *header], [(cfg.params.rho, *cells(cfg.params, summary))
                              for cfg, summary in zip(cfgs, summaries)]


def cmd_table1(args):
    return _simulation_table(args, ["e_r", "r_bar", "sd_r", "s_r", "ub"], lambda params, s: (
        mean_approx(params), s.mean_r, var_approx(params) ** 0.5, s.sd_r,
        variance_bounds(params).upper_conservative ** 0.5))


# An interval's columns in the bounds and coverage tables, and its cells.
_INTERVAL_COLUMNS = ("lower", "upper", "clipped")
_interval_cells = operator.attrgetter(*_INTERVAL_COLUMNS)


def cmd_coverage(args):
    kinds = [kind for kind in TailBoundKind if kind.is_sub_gaussian]
    tags = [kind.value for kind in kinds]

    def cells(params, summary):
        pct = [100.0 * summary.coverage[kind] for kind in kinds]
        intervals = [_interval_cells(summary.intervals[kind]) for kind in kinds]
        return *pct, *itertools.chain.from_iterable(intervals), *pct

    header = [*(f"{t}_pct" for t in tags), *(f"{t}_{c}" for t in tags for c in _INTERVAL_COLUMNS),
              *(f"{t}_pct_clipped" for t in tags)]
    return _simulation_table(args, header, cells, alpha=args.alpha)


def cmd_bounds(args):
    params = ModelParams(rho=args.rho, n=args.n)
    kinds = [TailBoundKind(args.kind)] if args.kind else list(TailBoundKind)
    if args.t is not None:
        header = ["raw", "clamped"]
        cells = [(tail_bound(kind, params, args.t), tail_bound_clamped(kind, params, args.t))
                 for kind in kinds]
    else:
        header = ["t", *_INTERVAL_COLUMNS]
        intervals = [coverage_interval(kind, params, args.alpha) for kind in kinds]
        cells = [(iv.half_width, *_interval_cells(iv)) for iv in intervals]
    return ["kind", *header], [(kind.value, *row) for kind, row in zip(kinds, cells)]


def cmd_density(args):
    params = ModelParams(rho=args.rho, n=args.n)
    if args.grid is not None:
        _check_size("--grid", args.grid, 1)
        step = 2.0 / (args.grid + 1)
        points = [-1.0 + step * (i + 1) for i in range(args.grid)]
        # One array pass; a single point costs less as a float, so --r
        # stays one call per point.
        values = _module.density_at(params, points).tolist()
    else:
        points = args.r
        values = [_module.density_at(params, r) for r in points]
    return ["r", "density"], list(zip(points, values))


_COMMANDS = {
    "moments": cmd_moments,
    "table1": cmd_table1,
    "coverage": cmd_coverage,
    "bounds": cmd_bounds,
    "density": cmd_density,
}


def _direct_spec(p: argparse.ArgumentParser) -> tuple:
    """What the direct parse reads of a subcommand's parser: exact flag to
    (action, type), defaults, exclusive groups (a required action is a
    required group of one) and argparse's negative-number test."""
    actions = [a for a in p._actions if a.dest is not argparse.SUPPRESS]
    opts = {flag: (a, a.type or str) for a in actions
            if type(a) in (argparse._StoreAction, argparse._AppendAction) and a.nargs is None
            for flag in a.option_strings}
    defaults = {a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS}
    groups = [(g.required, set(g._group_actions)) for g in p._mutually_exclusive_groups]
    groups += [(True, {a}) for a in actions if a.required]
    negative = None if p._has_negative_number_optionals else p._negative_number_matcher.match
    return opts, defaults, groups, negative


def _direct_parse(argv, opts, defaults, groups, negative):
    """argv as argparse parses it, if each flag is exact and given as
    `--flag value` or `--flag=value`; None where argparse must parse it."""
    values, given = {}, set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag in opts:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not (negative and negative(value)):
                return None  # a missing value, or one argparse reads as a flag
        else:
            flag, eq, value = flag.partition("=")
            if not eq or flag not in opts or value == "--":
                return None
        action, convert = opts[flag]
        try:
            value = convert(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        if value is not action.default:  # argparse's test of presence in a group
            given.add(action)
        if type(action) is argparse._AppendAction:
            value = [*(values.get(action.dest, action.default) or ()), value]
        values[action.dest] = value
    if any(len(acts & given) > 1 or (req and not acts & given) for req, acts in groups):
        return None
    return argparse.Namespace(**{**defaults, **values, "command": argv[0]})


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # Two paths.  A well-formed command line is parsed straight from the
    # subcommand's actions, as build_parser read them.  Anything else takes
    # argparse's full parse, so every error, exit code and help text is
    # argparse's own.
    parser = _parser()
    if argv and argv[0] in parser._direct_specs:
        args = _direct_parse(argv, *parser._direct_specs[argv[0]])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # The output flags are checked before a command computes anything.
        out = OutputSpec(format=args.format, destination=args.out, precision=args.precision)
        text = render_table(*_COMMANDS[args.command](args), out)
        if out.destination is None:
            sys.stdout.write(text)
        else:
            with open(out.destination, "w", newline="") as fh:
                fh.write(text)
        return EXIT_OK
    except InfeasibleLevelError as exc:
        print(f"corrconc: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, TypeError) as exc:
        print(f"corrconc: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # --out names no writable file
        print(f"corrconc: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a simulation row of 2n normals at huge n
        print(f"corrconc: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
