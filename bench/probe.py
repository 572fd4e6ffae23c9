"""Set-up probe, run in a fresh interpreter by ``run.py``.

It imports ``tempstable`` and ``tempstable.cli``, builds the run's
``--tasks`` workload inputs from the seed and finishes one untimed
warm-up task; the parent times the whole process as one ``setup_s``
sample.

    python3 bench/probe.py --workload density_eval --seed 1 --tasks 50 --workdir DIR
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tempstable  # noqa: E402,F401
import tempstable.cli  # noqa: E402,F401

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tasks", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.tasks)
    wl.task(inputs[0], spans.NullTracer(), workloads.Env(Path(args.workdir)))


if __name__ == "__main__":
    main()
