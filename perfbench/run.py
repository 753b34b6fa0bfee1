#!/usr/bin/env python3
"""The elastica benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form runs one workload and prints, as the last line of standard
output, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A readable
table with sample counts goes to standard error, and the full record
(environment, input hash, failures, spans) to perfbench/out/.  The second
form runs every workload in its own process and prints one table.  The
third runs the benchmark's own smoke tests.  Run it from anywhere; it uses
the library in src/ next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable core count before numpy loads;
    child processes inherit the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="exact_closed | minimize_solve | ode_shoot | cli_pipeline | all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the benchmark's own smoke tests")
    p.add_argument("--setup-probe", metavar="NAME", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.smoke or args.setup_probe or args.workload):
        p.error("give --workload, --smoke or --setup-probe")
    return args


def _run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    import harness

    status = 0
    print(f"{'workload':16s} {'metric':40s} {'value':>14s} {'unit':14s} samples")
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(harness.OUT / f"{name}-seed{args.seed}-trace{args.trace}.json",
                  encoding="utf-8") as fh:
            record = json.load(fh)
        for metric, m in record["metrics"].items():
            print(f"{name:16s} {metric:40s} {m['value']:>14.6g} {m['unit']:14s} {m['samples']}")
        print(f"{name:16s} {'fail_ratio':40s} {record['fail_ratio']:>14.6g} {'ratio':14s} "
              f"{record['tasks']}   correct={result['correct']}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "elastica" / "__init__.py").is_file():
        print(f"error: no elastica sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        # what a fresh process pays before its first task: imports plus first calls
        import importlib

        importlib.import_module(args.setup_probe).setup()
        return 0
    if args.smoke:
        import smoke

        return smoke.main()
    if args.workload == "all":
        return _run_all(args)

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
