"""Run one workload of the tempstable benchmark and print its metrics.

    python3 bench/run.py --workload density_eval --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the next task starts when the
previous one has finished.  A run does a fixed number of tasks,
``--seconds`` x ``TASKS_PER_SECOND``, from the workload's seeded input
list, so the same seed gives the same tasks and the same outcomes in
every run, while the time they take is measured.  With ``--trace 0``
the last line of stdout holds the end-to-end metrics of an untraced run,
timings scaled to a nominal host speed (see ``speed.py``); with
``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it gives each metric with its sample count (and a timing's
unscaled value), the failures by kind, and the machine and settings of
the run.  ``--workload all`` runs every workload in turn, each in its
own process.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("density_eval", "price_calibrate", "simulate_fit")
SETUP_REPEATS = 5
#: each workload's task rate on the machine the benchmark was written on
#: (a 2-vCPU x86-64 virtual machine); sets how many tasks a run does, so
#: that a run takes about ``--seconds`` there
TASKS_PER_SECOND = {"density_eval": 2.5, "price_calibrate": 2.5, "simulate_fit": 1.0}
PROCESS_TIMEOUT = 170


def pin_threads() -> dict:
    """Cap the package's worker threads and BLAS at the CPUs this process
    may use (at most two), before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    settings = {"TS_THREADS": str(min(nproc, 2))}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        settings[var] = "1"
    os.environ.update(settings)
    return {"nproc": nproc, **settings}


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def machine(threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "commit": commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "tempstable").glob("*.py"))),
    }


def measure_setup(workload: str, seed: int, count: int,
                  workdir: Path) -> list[tuple[float, float]]:
    """(seconds, host-speed reference) of each set-up process."""
    import speed

    samples, refs = [], [speed.reference()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "probe.py"), "--workload", workload,
                        "--seed", str(seed), "--tasks", str(count), "--workdir", str(workdir)],
                       check=True, timeout=PROCESS_TIMEOUT, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - t0
        refs.append(speed.reference())
        samples.append((seconds, 0.5 * (refs[-2] + refs[-1])))
    return samples


def task_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds * TASKS_PER_SECOND[workload]))


def run_tasks(workload, inputs, tracer, env, reference=None):
    """Closed loop over ``inputs``, one task each.

    ``reference``, when given, times the host-speed kernel before each
    task; it runs outside the task's own timing.
    """
    from report import TaskRecord
    from workloads import CheckFailed

    import tempstable

    records = []
    for index, inp in enumerate(inputs):
        ref = reference() if reference else 0.0
        t0 = time.perf_counter()
        outcome, detail = "ok", ""
        try:
            with tracer.task(index):
                workload.task(inp, tracer, env)
        except tempstable.TempStableError as exc:
            outcome, detail = "error", exc.code
        except CheckFailed as exc:
            outcome = "tolerance" if exc.tolerance else "check"
            detail = str(exc)
        except Exception as exc:  # a defect of the program: record it, keep running
            outcome, detail = "crash", f"{type(exc).__name__}: {exc}"
        records.append(TaskRecord(index, time.perf_counter() - t0, outcome, detail, ref))
    return records


def failures(records) -> dict:
    kinds: dict[str, int] = {}
    for r in records:
        if r.outcome != "ok":
            key = f"{r.outcome}: {r.detail}"[:160]
            kinds[key] = kinds.get(key, 0) + 1
    return kinds


def run_one(args, threads: dict) -> int:
    # imported only now, after pin_threads(), so numpy starts with the caps
    import report
    import spans
    import speed
    import workloads

    import tempstable

    loaded = Path(tempstable.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"error: tempstable was imported from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        count = task_count(args.workload, args.seconds)
        setup = [] if args.trace else measure_setup(args.workload, args.seed, count, workdir)
        env = workloads.Env(workdir)
        inputs = workload.inputs(args.seed, count)
        try:
            workload.task(inputs[0], spans.NullTracer(), env)  # warm-up
        except Exception:
            pass  # the timed loop starts with the same task and records how it fares
        # the traced run keeps its own timing free of the reference kernel
        tracer = spans.Tracer() if args.trace else spans.NullTracer()
        records = run_tasks(workload, inputs, tracer, env,
                            None if args.trace else speed.reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = report.per_layer(tracer.spans, len(records), spans.span_cost())
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans_{args.workload}_{args.seed}.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "task": s.task,
                                     "attrs": s.attrs, "error": s.error}) + "\n")
    else:
        # the set-up processes each run the same first task, so their peak
        # repeats from run to run; the loop's peak depends on which rare
        # heavy inputs the run reaches and is printed for reference only
        probe_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = report.end_to_end(records, setup, probe_rss_mb)
    failed = sum(1 for r in records if r.outcome != "ok")
    correct = not any(r.outcome in ("check", "crash") for r in records)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "closed_loop_clients": 1,
        "failed_frac": failed / len(records), "failures": failures(records),
        "loop_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": metrics,
        "machine": machine(threads),
    }))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; ends with one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=PROCESS_TIMEOUT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tempstable" / "__init__.py").is_file():
        print(f"error: no tempstable sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
