"""Smoke tests of the benchmark itself (python3 perfbench/run.py --smoke).

For every workload: the same seed gives a byte-identical input list and
another seed a different one; a few tasks run untraced and traced, and
every metric named in BENCHMARK.json comes out with its unit and nothing
else does; and a task carrying a deliberately wrong expectation is counted
as an unexpected failure, so a check cannot pass silently.
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import sys
import tempfile

import harness
from tracer import NullTracer

SMOKE_TASKS = 3


def _check_workload(name: str, bench: dict) -> list[str]:
    problems = []
    _, h1 = harness.make_inputs(name, 0)
    _, h2 = harness.make_inputs(name, 0)
    _, h3 = harness.make_inputs(name, 1)
    if h1 != h2:
        problems.append("the same seed gave different inputs")
    if h1 == h3:
        problems.append("different seeds gave the same inputs")

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        res = harness.run_workload(name, 0, 0.0, trace, setup_reps=1, limit=SMOKE_TASKS)
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(res)}")
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            problems.append(f"{section}: missing {missing}, extra {extra}, wrong unit {wrong}")
        if res["attempted"] != SMOKE_TASKS:
            problems.append(f"attempted {res['attempted']} tasks, expected {SMOKE_TASKS}")

    wl = importlib.import_module(name)
    harness.OUT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke-", dir=harness.OUT)
    try:
        outs = [harness.run_one(wl, t, NullTracer(), work)
                for t in wl.wrong_expectation(random.Random(0))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(o.failed for o in outs[:-1]):
        problems.append("a prerequisite of the wrong-expectation task failed")
    if not outs[-1].unexpected:
        problems.append("a task with a wrong expectation was not counted as failed")
    return problems


def main() -> int:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0
    if [w["name"] for w in bench["workloads"]] != list(harness.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from the harness", file=sys.stderr)
        failures += 1
    for name in harness.WORKLOADS:
        problems = _check_workload(name, bench)
        for p in problems:
            print(f"FAIL {name}: {p}", file=sys.stderr)
        print(f"{'FAIL' if problems else 'ok  '} {name}", file=sys.stderr)
        failures += len(problems)
    print(f"smoke: {'FAILED' if failures else 'passed'}", file=sys.stderr)
    return 1 if failures else 0
