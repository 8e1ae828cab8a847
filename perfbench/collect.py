#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the results.

    python3 perfbench/collect.py --label seed --seeds 1-10 [--trace] [--seconds 24]
                                 [--workloads heuristic analytic ...]

Each run is `perfbench/run.py` in its own process, one after another.  The
results go to perfbench/results/BENCH_<label>.json: per workload, every
run's result line and report lines, and per metric the median, the
quartiles and the spread (interquartile range as a share of the median).
Untraced runs fill the `end_to_end` section, `--trace` runs the `per_layer`
section; an existing file keeps the other section.  `provenance` holds the
commit and source digest the runs measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("heuristic", "analytic", "window_diagnostics")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=HERE.parent, text=True, capture_output=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(lines[-1]), "report": lines[:-1],
            "stderr": proc.stderr.strip().splitlines()}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.label}.json"
    data = json.loads(path.read_text()) if path.exists() else {"label": args.label}
    section = data.setdefault("per_layer" if args.trace else "end_to_end", {})
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = one_run(workload, seed, args.seconds, args.trace)
            res = run["result"]
            ratios = [line for line in run["report"] if line.endswith("verdicts)")
                      or line.startswith("failed_ops_ratio")]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}; " + "; ".join(ratios),
                  flush=True)
            runs.append(run)
        section[workload] = {"seconds": args.seconds, "runs": runs, "summary": summary(runs)}
        prov = next(line for line in runs[0]["report"] if line.startswith("provenance "))
        data["provenance"] = json.loads(prov[len("provenance "):])
        for name, s in section[workload]["summary"].items():
            print(f"  {name:36s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f}", flush=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
