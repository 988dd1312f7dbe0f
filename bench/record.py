"""Run the benchmark over several seeds and write a BENCH_<label>.json report.

    python3 bench/record.py --label baseline --seeds 101-110 --trace-seed 101

For each workload of ``BENCHMARK.json``, at its ``run_seconds``, it
runs ``bench/run.py`` once per seed (end-to-end metrics) and, with
``--trace-seed``, once traced (per-layer metrics), one run at a time.
The report holds the machine details, every run's result line, and per
metric the median, the quartiles and the spread (interquartile distance
over the median).  Reports are for quoting before/after numbers; they
gate nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
        }
    return out


def _versions() -> dict:
    code = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    numpy_v, scipy_v = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    return {
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy_v, "scipy": scipy_v,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="e.g. 101-110 or 1,5,9")
    ap.add_argument("--trace-seed", type=int, default=None)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"label": args.label, "machine": _versions(), "seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"end_to_end": _summary(runs), "runs": runs}
        if args.trace_seed is not None:
            entry["per_layer"] = _run(workload, args.trace_seed, seconds, 1)
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:<12} {name:<14} median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f}")
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
