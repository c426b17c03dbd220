"""cmkit benchmark: time from a group and generating vector to a checked verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is family-streit, relation-search, cli-oneshot, or `all` to run the
three in turn (the last line then holds every workload's metrics, prefixed
with its name).

Run from the root of a source checkout; cmkit is imported from `src/`.  One
process, one closed-loop caller, no threads, at most one child process at a
time.  A pass runs every input of the seeded workload once; passes repeat
while the next one is expected to end within S seconds (at least one pass,
two when traced).

--trace 0 prints the end-to-end metrics, measured untraced:
  wall_s        time of the whole input set: the sum over inputs of each
                input's median time across the run's passes
  op_s_p50      median over inputs of each input's median time: one typical
                operation (input -> checked verdict)
  wall_norm_s,  the two above at a fixed host speed: multiplied by
  op_norm_s_p50 REF_NOMINAL_S over the median time of the reference loop
                (reference.py) timed before every operation of the run
  setup_s       median over fresh processes of start -> cmkit imported and
                the seeded input list built
  peak_rss_mb   peak resident set of the process doing the work (for
                cli-oneshot: of the largest command line child; with
                `all`, the peak so far in this process)
The result object carries wall_norm_s, op_norm_s_p50, setup_s and
peak_rss_mb; wall_s, op_s_p50 and the reference time are printed above it.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (per traced pass), plus trace.overhead_s = traced - untraced wall_s.
Spans are written to bench/.work/spans-<workload>-<seed>.jsonl.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import reference
from spans import Tracer, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("family-streit", "relation-search", "cli-oneshot")
# A traced run needs one untraced and one traced pass.
MIN_PASSES = {False: 1, True: 2}
SETUP_PROBES = 9
# The shared host runs Python up to 1.7 times slower for minutes at a time,
# and every operation slows with it.  The normalized metrics report seconds
# on a host where the reference loop takes this long (its typical time on a
# 2-vCPU Xeon KVM guest), so that they follow the program, not the host.
REF_NOMINAL_S = 0.020


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time setup)")
    return p.parse_args(argv)


def _import_program():
    """Import cmkit from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "cmkit", "__init__.py")):
        sys.exit(f"error: {SRC}/cmkit not found; run from a cmkit source checkout")
    sys.path.insert(0, SRC)
    import workloads  # imports cmkit
    import cmkit
    if os.path.dirname(os.path.dirname(os.path.abspath(cmkit.__file__))) != SRC:
        sys.exit(f"error: cmkit was imported from {cmkit.__file__}, not {SRC}")
    return workloads


def _time_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of spawn -> 'ready' (cmkit imported, inputs built)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: setup probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times)


def _run_pass(workloads, inputs, expected, tracer, op_base, refs):
    """Every input once; returns (wall, [(input, seconds, outcome)]).

    The reference loop is timed before each operation and appended to `refs`.
    """
    results = []
    start = time.perf_counter()
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.begin_op(op_base + i)
        # Each operation starts from a collected heap, so neither its garbage
        # collection pauses nor the peak RSS depend on the seeded input order.
        gc.collect()
        refs.append(reference.reference_seconds())
        seconds, out = workloads.run_op(inp, expected, tracer)
        if tracer is not None:
            tracer.counts["reports.payload_bytes"] += out.payload_bytes
        results.append((inp, seconds, out))
    return time.perf_counter() - start, results


def measure(workloads, workload: str, seed: int, seconds: float, trace: bool,
            inputs=None, expected=None) -> dict:
    """Run passes for about `seconds`; returns the result object to print."""
    inputs = workloads.WORKLOADS[workload](seed) if inputs is None else inputs
    expected = workloads.load_expected() if expected is None else expected
    tracer = Tracer() if trace else None
    plain, traced = [], []  # (wall, results) per pass
    refs = []
    start = time.perf_counter()
    while True:
        use_tracer = trace and len(plain) > len(traced)
        if use_tracer:
            tracer.install()
        try:
            wall, results = _run_pass(workloads, inputs, expected,
                                      tracer if use_tracer else None,
                                      len(inputs) * (len(plain) + len(traced)), refs)
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else plain).append((wall, results))
        walls = [w for w, _ in plain + traced]
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES[trace] and elapsed + max(walls) > seconds:
            break

    every = [r for _, results in plain + traced for r in results]
    failed = [(inp.name, out.mismatches) for inp, _, out in every if out.mismatches]
    attempted = len(every)
    op_medians = _input_medians(plain)
    wall_s = sum(op_medians)
    if trace:
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_s"] = sum(_input_medians(traced)) - wall_s
        os.makedirs(workloads.WORK, exist_ok=True)
        tracer.write(os.path.join(workloads.WORK, f"spans-{workload}-{seed}.jsonl"),
                     {"workload": workload, "seed": seed, "traced_passes": len(traced)})
    else:
        who = (resource.RUSAGE_SELF if workload in workloads.IN_PROCESS
               else resource.RUSAGE_CHILDREN)
        scale = REF_NOMINAL_S / statistics.median(refs)
        metrics = {
            "wall_norm_s": wall_s * scale,
            "op_norm_s_p50": statistics.median(op_medians) * scale,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
    return {
        "raw": {"wall_s": wall_s, "op_s_p50": statistics.median(op_medians),
                "reference_s": statistics.median(refs)},
        "workload": workload,
        "passes": len(plain) + len(traced),
        "op_samples": sum(len(results) for _, results in plain),
        "per_input": _per_input(plain + traced),
        "failures": failed,
        "result": {"correct": not failed, "attempted": attempted, "failed": len(failed),
                   "metrics": {k: {"value": v, "unit": unit_of(k) if trace else
                                   ("MB" if k == "peak_rss_mb" else "s")}
                               for k, v in metrics.items()}},
    }


def _input_medians(passes) -> list:
    """Each input's median time over the passes.

    Per-input medians discard the operations that a burst of load on the
    shared host slowed, which a median over a few whole passes cannot.  A
    median pooled over inputs of different sizes would fall in the gap
    between two of them and jump with the number of passes; a median over
    the inputs' own medians does not.
    """
    times = {}
    for _, results in passes:
        for inp, seconds, _ in results:
            times.setdefault(inp.name, []).append(seconds)
    return [statistics.median(t) for t in times.values()]


def _per_input(passes):
    """Median time and size descriptors of each input, in input order."""
    times, sizes = {}, {}
    for _, results in passes:
        for inp, seconds, out in results:
            times.setdefault(inp.name, []).append(seconds)
            sizes.setdefault(inp.name, {}).update(out.sizes)
    return [(name, statistics.median(t), len(t), sizes[name]) for name, t in times.items()]


def _report(summary: dict) -> None:
    result = summary["result"]
    print(f"workload {summary['workload']}: {summary['passes']} passes, "
          f"{result['attempted']} operations")
    for name, median, count, sizes in summary["per_input"]:
        desc = " ".join(f"{k}={v}" for k, v in sorted(sizes.items()))
        print(f"  {name:<24} {median:9.4f} s (n={count})  {desc}")
    for name, mismatches in summary["failures"]:
        print(f"  FAILED {name}: {'; '.join(mismatches)}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for name, value in summary["raw"].items():
        print(f"{name}: {value:.6g} s")
    print(f"op_s_p50 sample count: {summary['op_samples']} untraced operations")
    print(f"failed_frac: {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child it starts, so the
        # reference loop and the operations run on the same core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = _import_program()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        setup_s = None if args.trace else _time_setup(name, args.seed)
        summary = measure(workloads, name, args.seed, args.seconds, bool(args.trace))
        if setup_s is not None:
            summary["result"]["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        _report(summary)
        results[name] = summary["result"]
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
