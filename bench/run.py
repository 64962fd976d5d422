"""mlembed benchmark: one workload per invocation, or all of them.

    python3 bench/run.py --workload ml2plus-pretrain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from its
``src/``. ``--trace 0`` measures the end-to-end metrics with no tracing code
loaded. ``--trace 1`` alternates untraced and traced operations and reports
the per-layer metrics from the traced ones. Each metric is printed by name
with its unit and sample count; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go under ``.bench_work/`` and span dumps under
``.bench_out/``, both in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads: the package computes on one
# thread, and a second pool thread only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ml2plus-pretrain", "contrastive", "eval")


def import_program():
    """Import mlembed from this checkout's ``src/``; exit non-zero if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import mlembed
    except ImportError as exc:
        sys.exit(f"bench: cannot import mlembed from {SRC}: {exc}")
    if Path(mlembed.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: mlembed was imported from {mlembed.__file__}, not from {SRC}")


def print_metrics(title: str, metrics: dict, extra: dict | None = None) -> None:
    print(title)
    for name, (value, unit, note) in metrics.items():
        line = f"  {name:<30} {value:>14.6g} {unit:<6} {note}"
        if extra and name in extra:
            line += f"  -> {extra[name]}"
        print(line)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    import workloads

    wl = workloads.WORKLOADS[workload]
    workdir = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    try:
        m = workloads.measure(wl, seed, seconds, workdir, tracer=tracer)
    except workloads.SetupError as exc:
        sys.exit(f"bench: set-up failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    header = f"workload {workload}, seed {seed}: {m.attempted} operations, {m.failed} failed"
    if m.report_digest:
        header += f"; report.json sha256 {m.report_digest[:16]}"
    if trace:
        untraced, traced = workloads.median(m.op_s[False]), workloads.median(m.op_s[True])
        ratio = traced / untraced if untraced else 0.0
        metrics = tracing.layer_metrics(tracer, m.timed_runs, ratio)
        predictions = {name: spec[1] for name, spec in tracing.LAYER_METRICS.items()}
        print_metrics(header + " (traced)", metrics, predictions)
        absent = sorted(tracing.absent_metrics(tracer))
        if absent:
            print(f"  absent (hook missing: {', '.join(sorted(tracer.missing))}): {', '.join(absent)}")
        if metrics.get("trainer.step_ms_mean", (0,))[0]:
            parts = ("sampler.ms_per_step", "losses.ms_per_step", "model.forward_ms_per_step",
                     "model.backward_ms_per_step", "trainer.sgd_ms_per_step", "trainer.self_ms_per_step")
            total = sum(metrics[p][0] for p in parts if p in metrics)
            print(f"  step accounting: children + self = {total:.4f} ms = step mean "
                  f"{metrics['trainer.step_ms_mean'][0]:.4f} ms; step p50 {metrics['trainer.step_ms_p50'][0]:.4f} ms")
        spans_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        print(f"  {len(tracer.fields[0])} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = workloads.end_to_end(m)
        print_metrics(header, metrics)

    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {workload} exited {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
