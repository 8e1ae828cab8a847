#!/usr/bin/env python3
"""woldlab benchmark: one workload, end-to-end metrics, optional layer trace.

    python3 perfbench/run.py --workload heuristic --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The workload's operation list is generated from `--seed`
(workloads.py) and run as a closed loop: one client, one process, no
threads, each operation starting when the previous one has finished.  The
whole list (a pass) is repeated until about `--seconds` have been spent.
Every result is checked against the references captured at the seed and
against the known mathematical answer (checks.py); checking happens
outside the timed regions.

Operation times are reported at a reference machine speed (speed.py): the
run times a fixed calibration unit every CAL_EVERY_S, during operations too
(the sampling time is taken off them), and scales each operation's wall
time by the speed measured around and during it.  The raw wall-clock
figures and the run's median speed factor are printed as report lines
beside the scaled ones.

End-to-end metrics (`--trace 0`):
  run_s         median time of one pass: the time to all verdicts of the list
  op_p50_s      median latency of one operation
  op_tail_s     the highest of p99/p95/p90 with at least ten operations
                beyond it, else the slowest operation (its median over passes)
  peak_rss_mib  peak resident memory of the process
  setup_s       median wall time over SETUP_REPEATS cold processes of: start
                Python, import woldlab and numpy, build the operation list,
                load the references, compute the analytic truths, warm up
failed_ops_ratio and wrong_verdict_ratio are printed as report lines; the
first is also the `failed`/`attempted` pair of the result line.

With `--trace 1` the run makes one untraced pass, installs the outside-in
tracer (tracer.py) and makes at least two traced passes.  It reports the
per-layer metrics of the traced passes (counts of one pass, median times),
checks that traced outputs are byte-identical to the untraced pass and that
counts repeat exactly from pass to pass, reports the tracing overhead, and
writes spans and counts to perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 10
CAL_EVERY_S = 0.1    # the speed is sampled this often (only between operations when tracing)

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402

END_TO_END = (("run_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("peak_rss_mib", "MiB"), ("setup_s", "s"))


def load_package():
    """Import woldlab (and numpy) from the checkout's `src/`."""
    if not (SRC / "woldlab" / "__init__.py").is_file():
        sys.exit(f"error: no woldlab sources under {SRC}; run from a source checkout")
    # the program sees only the generated inputs, not a cap set by the caller
    os.environ.pop("WOLDLAB_MAX_VERTICES", None)
    sys.path.insert(0, str(SRC))
    import numpy
    import woldlab
    import woldlab.cli  # noqa: F401

    # decomposition_report imports numpy lazily; its first-call cost is set-up
    numpy.linalg.matrix_rank(numpy.eye(2))
    return woldlab


def setup(workload: str, seed: int):
    """Everything a run needs before the first timed operation."""
    wl = load_package()
    ops = workloads.operations(workload, seed)
    with open(REFERENCES / f"{workload}.json", encoding="utf-8") as fh:
        refs = json.load(fh)["ops"]
    dual_cache: dict = {}
    truths = [checks.truth_of(op, wl, dual_cache) for op in ops]
    checks.execute(workloads.window_op("tree", 2, (0, 0), (1, 1)), wl)
    return wl, ops, refs, truths


def cold_setups(workload: str, seed: int) -> list[float]:
    """Wall seconds of SETUP_REPEATS cold set-ups.

    Not speed-scaled: a child's start-up is mostly imports, which the
    calibration unit does not track.
    """
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed), "--setup-only"],
                       check=True, stdout=subprocess.DEVNULL, timeout=170)
        walls.append(time.perf_counter() - t0)
    return walls


def provenance(loadavg) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=20).stdout.strip() or None
        except OSError:
            sha = None
    h = hashlib.sha256()
    for path in sorted((SRC / "woldlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "git_sha": sha,
            "source_sha256": h.hexdigest()[:16], "nproc": os.cpu_count(),
            "loadavg_at_start": [round(x, 2) for x in loadavg]}


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self):
        self.spans: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self.latencies: list[float] = []  # seconds at the reference speed
        self.failures: list[tuple[str, list[str]]] = []
        self.verdicts = 0
        self.wrong = 0
        self.stdout_bytes = 0
        self.digest_mismatches = 0
        self.start = self.end = 0.0
        self.cpu = 0.0
        self.speed = 1.0
        self.trace = None

    @property
    def walls(self) -> list[float]:
        return [s for _, _, s in self.spans]

    @property
    def run_s(self) -> float:
        return sum(self.latencies)

    def scale(self, clock: SpeedClock) -> None:
        self.latencies = [s * clock.factor(t0, t1) for t0, t1, s in self.spans]
        self.speed = clock.run_factor(self.start, self.end)

    def check(self, op, ref, truth, seen_digests: dict, rc, payload, error, span) -> None:
        """Record one operation's span and judge its result (untimed)."""
        self.spans.append(span)
        text = checks.output_text(payload)
        problems, cls = checks.judge(op, rc, payload, ref, truth)
        if error:
            problems.insert(0, error)
        dig = checks.digest(text)
        if seen_digests.setdefault(op.key, dig) != dig:
            problems.append("output bytes differ from an earlier run of the same operation")
        if ref is not None and ref["digest"] != dig:
            self.digest_mismatches += 1
        if op.argv is not None:
            self.stdout_bytes += len(text.encode())
        if problems:
            self.failures.append((op.key, problems))
        if cls is not None:
            self.verdicts += 1
            self.wrong += cls == "wrong"


def run_pass(wl, ops, refs, truths, seen_digests: dict, clock: SpeedClock,
             tracer=None) -> Pass:
    # traced passes sample the speed only between operations, so that the
    # samples stay out of the layer timings
    sampler = clock.sampling(CAL_EVERY_S) if tracer is None else contextlib.nullcontext()
    p = Pass()
    p.start, cpu0 = time.perf_counter(), time.process_time()
    with sampler:
        for index, op in enumerate(ops):
            if tracer is not None and clock.since_last() >= CAL_EVERY_S:
                clock.calibrate()
            p.check(op, refs.get(op.key), truths[index], seen_digests,
                    *_timed_call(op, wl, clock, index, tracer))
    p.end, p.cpu = time.perf_counter(), time.process_time() - cpu0
    return p


def _timed_call(op, wl, clock: SpeedClock, index: int, tracer):
    """(result code, payload, error, (start, end, seconds spent in the call))."""
    if tracer is not None:
        tracer.begin_op(index)
    paused = clock.paused
    t0 = time.perf_counter()
    try:
        rc, payload = checks.execute(op, wl)
        error = None
    except Exception as exc:  # a library call that raises is a failed operation
        rc, payload, error = None, "", f"{type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
    return rc, payload, error, (t0, t1, t1 - t0 - (clock.paused - paused))


def run_passes(wl, ops, refs, truths, seen, clock, seconds, min_passes, tracer=None):
    """Whole passes until the next one would end past `seconds` (rounded)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        snap = tracer.snapshot() if tracer is not None else None
        p = run_pass(wl, ops, refs, truths, seen, clock, tracer)
        if tracer is not None:
            p.trace = _trace_delta(snap, tracer.snapshot())
            p.trace["spans"] = tracer.spans
            tracer.spans = []
        passes.append(p)
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed + 0.5 * elapsed / len(passes) > seconds:
            break
    clock.calibrate()
    for p in passes:
        p.scale(clock)
    return passes, elapsed


def _trace_delta(before, after) -> dict:
    (c0, t0, s0), (c1, t1, s1) = before, after
    return {"counts": dict(c1 - c0),
            "times": {k: v - t0.get(k, 0.0) for k, v in t1.items()},
            "self_times": {k: v - s0.get(k, 0.0) for k, v in s1.items()}}


# ---------------------------------------------------------------------------
# metrics


def tail(passes, per_pass) -> tuple[float, str]:
    """The highest of TAIL_PERCENTILES with TAIL_MIN_BEYOND operations beyond it.

    With too few operations for any of them: the slowest operation, taken
    as the largest per-operation median over the passes.
    """
    values = [x for p in passes for x in per_pass(p)]
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= TAIL_MIN_BEYOND:
            return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], f"p{pct}"
    by_op = zip(*(per_pass(p) for p in passes))
    return max(statistics.median(xs) for xs in by_op), "slowest operation"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_common(args, prov, passes, elapsed):
    attempted = sum(len(p.walls) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    verdicts = sum(p.verdicts for p in passes)
    wrong = sum(p.wrong for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"passes {len(passes)} ops_per_pass {len(passes[0].walls)} "
          f"measured_wall_s {elapsed:.4f} "
          f"pass_wall_s {[round(p.end - p.start, 4) for p in passes]} "
          f"pass_cpu_s {[round(p.cpu, 4) for p in passes]}")
    print(f"failed_ops_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    print(f"wrong_verdict_ratio {wrong / verdicts if verdicts else 0.0:.6f} "
          f"({wrong}/{verdicts} verdicts)")
    shown = 0
    for p in passes:
        for key, problems in p.failures:
            if shown < 10:
                print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
            shown += 1
    if shown > 10:
        print(f"... {shown - 10} more failed operations", file=sys.stderr)
    return attempted, failed


def main_untraced(args, wl, ops, refs, truths, prov) -> int:
    setups = cold_setups(args.workload, args.seed)
    clock = SpeedClock()
    clock.calibrate()
    passes, elapsed = run_passes(wl, ops, refs, truths, {}, clock, args.seconds, 1)
    lat = [x for p in passes for x in p.latencies]
    walls = [x for p in passes for x in p.walls]
    tail_value, tail_label = tail(passes, lambda p: p.latencies)
    metrics = {
        "run_s": statistics.median(p.run_s for p in passes),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": statistics.median(setups),
    }
    attempted, failed = print_common(args, prov, passes, elapsed)
    print(f"op_tail_s is {tail_label} of {len(lat)} operations")
    print(f"wall_clock run_s {statistics.median(sum(p.walls) for p in passes):.6f} "
          f"op_p50_s {statistics.median(walls):.6f} "
          f"op_tail_s {tail(passes, lambda p: p.walls)[0]:.6f} "
          f"speed_factor {passes[0].speed:.4f}")
    print(f"setup_s samples {[round(s, 4) for s in setups]}")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:14s} {value:.6f} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def main_traced(args, wl, ops, refs, truths, prov) -> int:
    from tracer import PER_LAYER, Tracer, layer_metrics

    seen: dict = {}
    clock = SpeedClock()
    clock.calibrate()
    untraced = run_pass(wl, ops, refs, truths, seen, clock)
    tracer = Tracer()
    tracer.install(wl)
    passes, elapsed = run_passes(wl, ops, refs, truths, seen, clock, args.seconds, 2,
                                 tracer)
    untraced.scale(clock)
    per_pass = []
    for p in passes:
        # layer times are scaled by the pass's median speed
        times = {k: v * p.speed for k, v in p.trace["times"].items()}
        self_times = {k: v * p.speed for k, v in p.trace["self_times"].items()}
        per_pass.append(layer_metrics(p.trace["counts"], times, self_times,
                                      p.stdout_bytes, p.digest_mismatches))
    counts_repeat = all(p.trace["counts"] == passes[0].trace["counts"] for p in passes)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [m[name] for m in per_pass]
        metrics[name] = statistics.median(values) if unit in ("s", "us") else values[0]
    traced_run_s = statistics.median(p.run_s for p in passes)
    overhead = traced_run_s - untraced.run_s

    attempted, failed = print_common(args, prov, [untraced, *passes], elapsed)
    print(f"untraced_run_s {untraced.run_s:.6f} traced_run_s {traced_run_s:.6f} "
          f"trace_overhead_s {overhead:.6f}")
    print(f"counts_repeat {counts_repeat}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6f} {units[name]}")

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "provenance": prov,
                   "operations": [op.key for op in ops],
                   "untraced_run_s": untraced.run_s, "trace_overhead_s": overhead,
                   "counts_repeat": counts_repeat, "per_layer": metrics,
                   "passes": [{"run_s": p.run_s, "wall_s": p.end - p.start, "cpu_s": p.cpu,
                               "speed": p.speed, "counts": p.trace["counts"],
                               "times": p.trace["times"],
                               "self_times": p.trace["self_times"]} for p in passes],
                   "span_fields": ["op", "name", "start", "end", "parent"],
                   "spans": passes[0].trace["spans"]}, fh, sort_keys=True)
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    result = {"correct": failed == 0 and counts_repeat, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up and exit (timed by the parent run)")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    wl, ops, refs, truths = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    # the harness's own objects (references, truths) would otherwise make
    # every full collection inside an operation slower than in a real process
    gc.collect()
    gc.freeze()
    prov = provenance(loadavg)
    if args.trace:
        return main_traced(args, wl, ops, refs, truths, prov)
    return main_untraced(args, wl, ops, refs, truths, prov)


if __name__ == "__main__":
    sys.exit(main())
