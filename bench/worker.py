"""One workload in one fresh process.

Runs the workload's commands through ``corrconc.cli.main`` in this
process, one client in a closed loop (each command starts when the last
one ends), with stdout and stderr captured.  Then, untimed, it checks
every output and names the exception behind every failure.  The last
line of stdout is a JSON object with the raw results; ``run.py`` turns
it into metrics.

    python3 bench/worker.py --workload sweep --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
sys.path.insert(0, str(_HERE))

import workloads  # noqa: E402

# Latency metrics need this many commands beyond the reported tail.
TAIL_BEYOND = 10

# Host speed.  The host is shared, and its speed changes by 20% and more
# from one second to the next and between runs, for every process alike.
# The timed pass therefore times a fixed unit of work before the first
# command and then between commands, about once every REF_EVERY_S of
# command time.  Each command's latency is scaled by REF_NOMINAL_S over
# the median time of that unit within REF_WINDOW_S of the command, so
# that it reads as at the reference speed.  The unit is half pure-Python
# float work and half numpy on short arrays, because the host's swings
# move the two by different amounts and corrconc's commands mix them.  It
# takes about REF_NOMINAL_S on the reference machine (2 vCPUs, x86_64,
# Python 3.11, numpy 2.4).
REF_TERMS = 5_000
REF_ARRAYS = 10
REF_NOMINAL_S = 0.0023
REF_EVERY_S = 0.1
REF_WINDOW_S = 1.0
REF_FIRST = 8
REF_MAX_BURST = 10
_REF_RNG = np.random.Generator(np.random.Philox(2024))


def _import_program():
    src = _ROOT / "src"
    sys.path.insert(0, str(src))
    import corrconc
    import corrconc.cli

    if Path(corrconc.__file__).resolve().parent != src / "corrconc":
        raise SystemExit(f"corrconc was imported from {corrconc.__file__}, not from {src}")
    return corrconc


def run_pass(cli, cmds):
    """Run every command once; return one record per command."""
    records = []
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        exc_type = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc, exc_type = exc.code, "SystemExit"
        except Exception as exc:  # a traceback out of main is a failed command
            rc, exc_type = None, type(exc).__name__
        elapsed = perf_counter() - start
        records.append({
            "seconds": elapsed, "rc": rc, "exception": exc_type,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
        })
    return records


def reference_unit() -> float:
    """Seconds taken by the fixed unit of work that follows the host's speed."""
    start = perf_counter()
    total = 0.0
    for k in range(1, REF_TERMS):
        total += math.log(k) / k
    for _ in range(REF_ARRAYS):
        x = _REF_RNG.standard_normal(4000)
        y = 0.5 * x[:2000] + x[2000:]
        total += float(np.dot(y, x[:2000]))
        y.sort()
    return perf_counter() - start


def run_timed(cli, cmds):
    """The timed pass: every command once, with the reference unit timed
    before the first command and then between commands.  Returns (records,
    reference samples as (start, seconds))."""

    def sample():
        ref.append((perf_counter(), reference_unit()))

    ref = []
    for _ in range(REF_FIRST):
        sample()
    records = []
    for cmd in cmds:
        start = perf_counter()
        records += run_pass(cli, [cmd])
        records[-1]["at"] = start
        due = int((perf_counter() - ref[-1][0]) / REF_EVERY_S)
        for _ in range(min(due, REF_MAX_BURST)):
            sample()
    return records, ref


def scale_to_reference(records, ref):
    """Give each record its latency at the reference speed ("scaled"):
    its seconds times REF_NOMINAL_S over the median reference time within
    REF_WINDOW_S of the command.  A sample follows every command that
    ends REF_EVERY_S or more after the last sample, so each window holds
    one."""
    starts = [t for t, _ in ref]
    for rec in records:
        lo = bisect.bisect_left(starts, rec["at"] - REF_WINDOW_S)
        hi = bisect.bisect_right(starts, rec["at"] + rec["seconds"] + REF_WINDOW_S)
        near = statistics.median(d for _, d in ref[lo:hi])
        rec["scaled"] = rec["seconds"] * REF_NOMINAL_S / near


def run_paired(cli, cmds, tracer):
    """Run each command untraced and traced, back to back, alternating
    which goes first, so that drift in the host's speed cancels out of
    the ratio of the two totals.  Returns (untraced, traced) records."""
    plain, traced = [], []
    for i, cmd in enumerate(cmds):
        for with_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if with_tracer:
                tracer.command_id = i
                with tracer:
                    traced.append(run_pass(cli, [cmd])[0])
            else:
                plain.append(run_pass(cli, [cmd])[0])
    return plain, traced


def failure_types(cli, cmds, records):
    """Re-run each failed command under the tracer and name the exception
    that left a library layer (the CLI turns most of them into exit 3)."""
    from tracer import Tracer

    types, seen = {}, set()
    for i, (cmd, rec) in enumerate(zip(cmds, records)):
        if (rec["rc"] == 0 and rec["exception"] is None) or cmd in seen:
            continue
        seen.add(cmd)
        tracer = Tracer()
        with tracer:
            run_pass(cli, [cmd])
        inner = [t for (layer, t), _ in tracer.failures.items() if layer != "cli"]
        types[i] = inner[0] if inner else (rec["exception"] or f"exit {rec['rc']}")
    return types


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it, or (None, None) with too few samples."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return None, None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def summarize(cmds, records, failed, key="seconds"):
    """Latency statistics over distinct commands, from each record's
    ``key``.  A command that runs more than once (the exact-tails grid)
    counts once, at the median of its repetitions; a failed run makes its
    latency +inf."""
    runs = {}
    for i, (cmd, rec) in enumerate(zip(cmds, records)):
        runs.setdefault(cmd, []).append(math.inf if i in failed else rec[key])
    lat = {cmd: statistics.median(xs) for cmd, xs in runs.items()}
    by_kind = {}
    for cmd, x in lat.items():
        group = "sim" if cmd.kind in ("table1", "coverage") else cmd.kind
        by_kind.setdefault(group, []).append(x)
    tail_s, tail_pct = tail(list(lat.values()))
    sim_reps = sim_s = 0.0
    for i, (cmd, rec) in enumerate(zip(cmds, records)):
        if cmd.kind in ("table1", "coverage") and i not in failed:
            sim_reps += int(cmd.argv[cmd.argv.index("--reps") + 1]) * len(cmd.pairs)
            sim_s += rec["seconds"]
    return {
        "distinct": len(lat),
        "cmd_p50_s": statistics.median(lat.values()),
        "cmd_tail_s": tail_s,
        "cmd_tail_pct": tail_pct,
        "p50_s": {k: statistics.median(v) for k, v in by_kind.items()},
        "reps_per_s": sim_reps / sim_s if sim_s else None,
        "busy_s": sum(r["seconds"] for r in records),
    }


def check_outputs(corrconc, cmds, records):
    """Check every successful output; return (problems by command index,
    oracle problems, max relative error)."""
    import checks
    from corrconc import exactdist
    from corrconc.params import ModelParams

    oracle = checks.Oracle()
    oracle_problems = checks.validate_oracle(oracle, exactdist, ModelParams)
    checker = checks.Checker(oracle, exactdist, ModelParams)
    problems = {}
    for i, (cmd, rec) in enumerate(zip(cmds, records)):
        if rec["rc"] != 0 or rec["exception"] is not None:
            continue
        found = checker.check(cmd.argv, rec["stdout"])
        if found:
            problems[i] = found
    return (problems, oracle_problems, max(checker.max_rel_err, checks.ERR_FLOOR),
            checker.max_rel_err_at, checker.max_tail_rel_err)


def workers_identity(cli, cmds, records, problems):
    """Re-run the first simulation command with --workers 2 and require
    byte-identical output."""
    for i, cmd in enumerate(cmds):
        if cmd.kind in ("table1", "coverage") and records[i]["rc"] == 0:
            argv = list(cmd.argv)
            argv[argv.index("--workers") + 1] = "2"
            again = run_pass(cli, [workloads.Command(tuple(argv), cmd.kind, cmd.pairs)])[0]
            if again["stdout"] != records[i]["stdout"]:
                problems.setdefault(i, []).append("output differs between --workers 1 and 2")
            return " ".join(argv)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    corrconc = _import_program()
    cli = corrconc.cli
    cmds = workloads.commands(args.workload, args.seed, args.seconds)

    for warm in workloads.warmup_commands(args.workload):
        rec = run_pass(cli, [workloads.Command(warm, warm[0], ())])[0]
        if rec["rc"] != 0:
            raise SystemExit(f"warm-up {' '.join(warm)} failed: {rec['stderr']}{rec['exception']}")

    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        records, traced = run_paired(cli, cmds, tracer)
    else:
        records, ref = run_timed(cli, cmds)
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if not args.trace:
        scale_to_reference(records, ref)
        result["ref_unit_s"] = statistics.median(d for _, d in ref)
        result["ref_samples"] = len(ref)
        result["ref_nominal_s"] = REF_NOMINAL_S

    if args.trace:
        untraced_s = sum(r["seconds"] for r in records)
        traced_s = sum(r["seconds"] for r in traced)
        out_dir = _HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        result["spans"] = tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(_ROOT))
        result["per_layer"] = layer_metrics(tracer, len(cmds), traced_s / untraced_s - 1.0)
        mismatched = [
            i for i, (a, b) in enumerate(zip(records, traced))
            if (a["rc"], a["exception"], a["stdout"]) != (b["rc"], b["exception"], b["stdout"])
        ]
        result["traced_output_mismatch"] = mismatched

    failed_run = {
        i for i, r in enumerate(records) if r["rc"] != 0 or r["exception"] is not None
    }
    problems, oracle_problems, max_rel_err, max_rel_err_at, tail_rel_err = check_outputs(
        corrconc, cmds, records
    )
    result["workers_identity_cmd"] = (
        workers_identity(cli, cmds, records, problems) if args.workload == "sim-paper" else None
    )
    types = failure_types(cli, cmds, records)
    failed = failed_run | set(problems)

    summary = summarize(cmds, records, failed)
    if not args.trace:
        # The latency metrics are taken at the reference speed; the raw
        # figures go to the report.
        scaled = summarize(cmds, records, failed, key="scaled")
        for name in ("cmd_p50_s", "cmd_tail_s"):
            summary["raw_" + name], summary[name] = summary[name], scaled[name]
    result.update(summary)
    result.update({
        "attempted": len(cmds),
        "failed": len(failed),
        "failures": [
            {"argv": " ".join(cmds[i].argv), "type": types[i],
             "baseline": cmds[i].baseline_failure}
            for i in sorted(types)
        ],
        "check_problems": {" ".join(cmds[i].argv): p for i, p in problems.items()},
        "oracle_problems": oracle_problems,
        "max_rel_err": max_rel_err,
        "max_rel_err_at": max_rel_err_at,
        "density_tail_rel_err": tail_rel_err,
        "repeated_pair_share": workloads.repeated_pair_share(cmds),
    })
    # Only the Baseline failure points may fail; any other failed command
    # makes the run incorrect.
    unexpected = [i for i in failed_run if not cmds[i].baseline_failure]
    result["correct"] = not (
        problems or oracle_problems or unexpected or result.get("traced_output_mismatch")
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
