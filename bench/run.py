"""corrconc benchmark: one workload, one run, metrics on the last line.

    python3 bench/run.py --workload sim-paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout; nothing is built or installed.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``
(median over fresh interpreters of ``python3 -m corrconc`` running one
``bounds`` command, import included), then the workload in a fresh
process, untraced, with its latency metrics scaled to the reference
speed of the host (see ``worker.REF_NOMINAL_S``; the report gives the
raw figures too).  With ``--trace 1`` it prints the per-layer metrics:
import times from ``-X importtime``, then the workload with each command
run untraced and traced back to back, with ``trace.overhead_share`` the
extra time the traced runs took.  Either way the outputs are checked; a human
report goes first and one JSON object is the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
SETUP_ARGV = ("bounds", "--n", "10", "--t", "0.25")
IMPORT_MODULES = (
    "corrconc", "corrconc.cli", "corrconc.exactdist", "corrconc.mcsim",
    "numpy", "scipy.integrate",
)
# A run gives up (exit 1, no result) after SETUP_ALLOWANCE_S plus
# DEADLINE_FACTOR times --seconds: 170 s at --seconds 25.  At the
# baseline an untraced run measures about --seconds, plus set-up and the
# untimed checks; a traced run runs every command twice and takes about
# 2.5 times --seconds, so it still ends if the program gets about 2.5
# times slower.
SETUP_ALLOWANCE_S = 20.0
DEADLINE_FACTOR = 6.0

_START = monotonic()
_deadline_s = SETUP_ALLOWANCE_S


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CORRCONC_SEED", None)
    return env


def _left() -> float:
    return _deadline_s - (monotonic() - _START)


def measure_setup() -> list[float]:
    """Wall seconds, per fresh interpreter, for a user's first command."""
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "corrconc", *SETUP_ARGV], cwd=ROOT, env=_env(),
            capture_output=True, text=True, timeout=_left(),
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("kind,raw,clamped"):
            raise RuntimeError(f"set-up command failed: {proc.stderr.strip()}")
    return times


def measure_imports() -> dict[str, float]:
    """Median cumulative import time (ms) per module, from -X importtime."""
    samples = {m: [] for m in IMPORT_MODULES}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)")
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import corrconc.cli"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=_left(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            m = pattern.match(line)
            if m:
                seen[m.group(2)] = int(m.group(1)) / 1000.0
        for mod in IMPORT_MODULES:
            samples[mod].append(seen.get(mod, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def run_worker(args) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(_left(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ms(seconds):
    return None if seconds is None else seconds * 1000.0


def report(args, res, metrics, units, extra):
    say = print
    say(f"# corrconc benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    say(f"# python {platform.python_version()}, {os.cpu_count()} CPUs, {platform.machine()}")
    say(f"commands: {res['attempted']} attempted, {res['failed']} failed "
        f"(failed_share {res['failed'] / res['attempted']:.4f}); "
        f"closed loop, 1 client; busy {res['busy_s']:.2f} s")
    for f in res["failures"]:
        tag = "baseline failure" if f["baseline"] else "FAILURE"
        say(f"  {tag}: {f['type']}: corrconc {f['argv']}")
    for argv, problems in res["check_problems"].items():
        say(f"  CHECK FAILED: corrconc {argv}: {'; '.join(problems[:3])}")
    for p in res["oracle_problems"]:
        say(f"  ORACLE CHECK FAILED: {p}")
    if res.get("workers_identity_cmd"):
        say(f"workers 1 vs 2 byte identity checked on: corrconc {res['workers_identity_cmd']}")
    say(f"repeated (rho, n) pairs: {res['repeated_pair_share']:.3f} of evaluations")
    if res["cmd_tail_pct"] is not None:
        say(f"cmd_tail_ms is p{res['cmd_tail_pct']:.2f} of {res['distinct']} distinct commands "
            f"(the highest percentile with >= 10 commands beyond it)")
    if "ref_unit_s" in res:
        tail_ms = _ms(res["raw_cmd_tail_s"])
        say(f"host speed: reference unit median {res['ref_unit_s'] * 1000:.4f} ms over "
            f"{res['ref_samples']} samples (nominal {res['ref_nominal_s'] * 1000:g} ms); "
            f"raw cmd_p50_ms {_ms(res['raw_cmd_p50_s']):.6g}, raw cmd_tail_ms "
            f"{'n/a' if tail_ms is None else f'{tail_ms:.6g}'}; the per-subcommand "
            "figures below are raw")
    if "setup_samples" in res:
        say(f"setup_s is the median of {len(res['setup_samples'])} fresh interpreters: "
            + " ".join(f"{t:.4f}" for t in res["setup_samples"]) + " s")
    if res["max_rel_err_at"]:
        argv, got, want = res["max_rel_err_at"]
        say(f"largest error: {got!r} against {want!r} from corrconc {argv}")
    say(f"density_tail_rel_err {res['density_tail_rel_err']:.3g} ratio (plain relative error "
        "of densities; where r*rho < 0 the series cancels, so it is not gated)")
    for name, (value, unit) in extra.items():
        say(f"  {name:<28} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    say("metrics:")
    for name, value in metrics.items():
        say(f"  {name:<56} {value:.6g} {units.get(name, '')}")
    if "spans" in res:
        say(f"spans: {res['spans']} written to {res['span_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="corrconc benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    global _deadline_s
    _deadline_s = SETUP_ALLOWANCE_S + DEADLINE_FACTOR * args.seconds

    if not (SRC / "corrconc" / "cli.py").is_file():
        print(f"run.py: no corrconc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            imports = measure_imports()
        else:
            setup = measure_setup()
        res = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    p50 = res["p50_s"]
    extra = {
        "failed_share": (res["failed"] / res["attempted"], "ratio"),
        "reps_per_s": (res["reps_per_s"], "1/s"),
        "sim_p50_ms": (_ms(p50.get("sim")), "ms"),
        "moments_p50_ms": (_ms(p50.get("moments")), "ms"),
        "density_p50_ms": (_ms(p50.get("density")), "ms"),
        "bounds_p50_ms": (_ms(p50.get("bounds")), "ms"),
    }
    if args.trace:
        metrics = dict(res["per_layer"])
        for mod, ms in imports.items():
            metrics[f"setup.import_ms.{mod}"] = ms
        section = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "cmd_p50_ms": _ms(res["cmd_p50_s"]),
            "cmd_tail_ms": _ms(res["cmd_tail_s"]),
            "max_rel_err": res["max_rel_err"],
        }
        res["setup_samples"] = setup
        section = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    missing = set(units) - set(metrics)
    if missing:
        print(f"run.py: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    report(args, res, metrics, units, extra)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value if value is not None else math.inf, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
