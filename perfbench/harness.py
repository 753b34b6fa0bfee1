"""Closed-loop runner, metric definitions and run records.

One client in one process: each task starts when the previous one ends.
Tasks come in rounds that hold a fixed mix of task kinds; the timed phase
runs whole rounds until --seconds have passed, so every run measures the
same mix.  The untraced run reports the end-to-end metrics; a traced run
reports the per-layer metrics and replays part of its tasks untraced to
measure the tracing overhead.

Times are reported at a fixed reference speed.  The shared host's speed
drifts by about 20% over minutes, so before every task the runner times a
reference that does not touch the library, and scales the task's wall time
by the reference's nominal time over its median time around the task.
In-process workloads use a small compute kernel; subprocess work (the CLI
tasks, set-up) uses a bare interpreter start, which drifts the way process
start-up does.  The raw wall-clock values are kept in the record.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("exact_closed", "minimize_solve", "ode_shoot", "cli_pipeline")
N_ROUNDS = 64  # rounds generated per seed; a run cycles through them
SETUP_REPS = 5  # fresh processes timed for setup_s
REF_WINDOW = 7  # neighbouring reference timings whose median sets a task's speed
CLI_SUBCOMMANDS = ("constants", "sample", "leafed", "liyau", "energy", "classify",
                   "integrate", "minimize")


# ---------------------------------------------------------------------------
# inputs

def make_inputs(name: str, seed: int) -> tuple[list[list[dict]], str]:
    """The seeded task rounds and the sha256 of their canonical JSON."""
    wl = importlib.import_module(name)
    rounds = wl.make_inputs(random.Random(f"{name}:{seed}"), N_ROUNDS)
    blob = json.dumps(rounds, sort_keys=True, separators=(",", ":")).encode()
    return rounds, hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# reference speed

def reference_kernel() -> float:
    """A fixed mix of interpreter float arithmetic and small-array NumPy
    calls, the same kind of work as the library's inner loops."""
    y = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    acc = 0.0
    for i in range(200):
        d = np.dot(y[2], y[3])
        y = y + 1e-3 * np.stack([y[1], y[2], y[3], -y[2] * d])
        x = i * 1e-3
        acc += math.sin(x) * math.cos(x) + math.sqrt(1.0 + x * x)
    return acc + float(y.sum())


def kernel_seconds() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def timed_process(cmd: list[str], timeout: float) -> float:
    """Wall time of a child process.  Its output is captured: with pipes the
    parent wakes when they close, whereas a bare wait with a timeout polls
    with sleeps of up to 50 ms and quantizes the timing."""
    t0 = perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=timeout)
    return perf_counter() - t0


def python_start_seconds() -> float:
    return timed_process([sys.executable, "-c", "pass"], 60)


# reference name -> (measurement, nominal seconds: its median on the
# development host, Intel Xeon with 2 vCPUs, which defines the reference speed)
REFERENCES = {
    "kernel": (kernel_seconds, 2.87e-3),
    "python_start": (python_start_seconds, 68.8e-3),
}


def at_reference_speed(seconds: list[float], refs: list[float], nominal: float) -> list[float]:
    """Scale each wall time by `nominal` over the median reference time in
    a window of REF_WINDOW timings around it."""
    out = []
    for i, sec in enumerate(seconds):
        lo = max(0, min(i - REF_WINDOW // 2, len(refs) - REF_WINDOW))
        out.append(sec * nominal / statistics.median(refs[lo:lo + REF_WINDOW]))
    return out


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A task mix has gaps between kinds; the plain median
    jumps across a gap when one task changes place, this estimate does not.
    Order statistic i gets the Beta(p(n+1), (1-p)(n+1)) mass on
    ((i-1)/n, i/n), by the midpoint rule (NumPy only: importing SciPy here
    would add to the measured process's memory)."""
    x = np.sort(np.asarray(values, dtype=float))
    n, sub = len(x), 64
    u = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (p * (n + 1) - 1.0) * np.log(u) + ((1.0 - p) * (n + 1) - 1.0) * np.log1p(-u)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(w @ x / w.sum())


# ---------------------------------------------------------------------------
# running tasks

@dataclass
class Outcome:
    index: int
    round: int
    task: dict
    seconds: float
    checks: dict
    detail: dict
    ref: float  # the workload's reference time, measured just before the task
    error: str | None = None
    known: str | None = None

    @property
    def failed_checks(self) -> list[str]:
        return [k for k, ok in self.checks.items() if not ok]

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failed_checks)

    @property
    def unexpected(self) -> bool:
        return self.failed and self.known is None


def reference(wl):
    """(measurement, nominal seconds) of the workload's reference."""
    return REFERENCES[getattr(wl, "REFERENCE", "kernel")]


def run_one(wl, t: dict, tr, work: str, index: int = 0, rnd: int = 0) -> Outcome:
    ref = reference(wl)[0]()
    tr.begin_task(index)
    t0 = perf_counter()
    try:
        with tr.span("task"):
            checks, detail = wl.run_task(t, tr, work)
        error = None
    except Exception:  # a library error is a failed operation; keep its traceback
        checks, detail, error = {}, {}, traceback.format_exc()
    out = Outcome(index, rnd, t, perf_counter() - t0, checks, detail, ref, error)
    if out.failed and error is None:
        out.known = wl.known_defect(t, out.failed_checks, detail)
    return out


def timed_loop(wl, rounds, tr, seconds: float, work: str, limit: int | None = None):
    """Whole rounds until `seconds` have passed (or `limit` tasks, for smoke runs)."""
    results: list[Outcome] = []
    start = perf_counter()
    r = 0
    while True:
        for t in rounds[r % len(rounds)]:
            results.append(run_one(wl, t, tr, work, len(results), r))
            if limit is not None and len(results) >= limit:
                return results, perf_counter() - start
        r += 1
        if perf_counter() - start >= seconds:
            return results, perf_counter() - start


def measure_setup(name: str, reps: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the workload and run its
    first-call set-up, and an interpreter start timed before each."""
    times, refs = [], []
    for _ in range(reps):
        refs.append(python_start_seconds())
        times.append(timed_process([sys.executable, str(ROOT / "perfbench" / "run.py"),
                                    "--setup-probe", name], 120))
    return times, refs


# ---------------------------------------------------------------------------
# metrics

def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def task_seconds(results: list[Outcome], nominal: float) -> list[float]:
    return at_reference_speed([o.seconds for o in results], [o.ref for o in results], nominal)


def end_to_end(results: list[Outcome], nominal: float, setup: list[float],
               setup_refs: list[float], cli: bool) -> dict:
    n = len(results)
    task_s = task_seconds(results, nominal)
    setup_s = at_reference_speed(setup, setup_refs, REFERENCES["python_start"][1])
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "setup_s": _metric(statistics.median(setup_s), "s", len(setup_s)),
        "tasks_per_s": _metric(n / sum(task_s), "1/s", n),
        "task_p50_ms": _metric(1e3 * harrell_davis(task_s, 0.5), "ms", n),
        "pass_ratio": _metric(sum(not o.failed for o in results) / n, "ratio", n),
        "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB", 1),
    }


def raw_timings(results: list[Outcome], elapsed: float, setup: list[float]) -> dict:
    """The same timings in plain wall-clock time, for the record."""
    n = len(results)
    return {
        "setup_s": statistics.median(setup) if setup else None,
        "tasks_per_s": n / elapsed,
        "task_p50_ms": 1e3 * statistics.median(o.seconds for o in results),
        "reference_ms": 1e3 * statistics.median(o.ref for o in results),
    }


class LayerView:
    """Aggregates of one traced phase, normalized per completed task."""

    def __init__(self, tr: Tracer, n_tasks: int):
        self.agg = tr.aggregate()
        self.spans_list = tr.spans
        self.counts = tr.counts
        self.samples = tr.samples
        self.n = max(n_tasks, 1)

    def busy_ms(self, *names: str, prefix: bool = False) -> float:
        if prefix:
            return 1e3 * sum(a["busy_s"] for k, a in self.agg.items() if k.startswith(names[0]))
        return 1e3 * sum(self.agg.get(k, {}).get("busy_s", 0.0) for k in names)

    def spans(self, name: str) -> int:
        return self.agg.get(name, {}).get("spans", 0)

    def self_ms(self, name: str) -> float:
        return 1e3 * self.agg.get(name, {}).get("self_s", 0.0)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_task_ms(span):
    return lambda v: v.busy_ms(span) / v.n


def _per_task(counter):
    return lambda v: v.counts.get(counter, 0.0) / v.n


def _per_call_us(span):
    return lambda v: _div(1e3 * v.busy_ms(span), v.counts.get(span + ".calls") or v.spans(span))


def _per_call_ms(span):
    return lambda v: _div(v.busy_ms(span), v.spans(span))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# name -> (unit, better, definition on a LayerView)
PER_LAYER: dict[str, tuple] = {}
for _k in ("sncndn", "jacobi_epsilon", "am"):
    PER_LAYER[f"elliptic.{_k}.ms"] = ("ms/task", "lower", _per_task_ms(f"elliptic.{_k}"))
    PER_LAYER[f"elliptic.{_k}.points"] = ("points/task", "lower", _per_task(f"elliptic.{_k}.points"))
PER_LAYER.update({
    "profiles.ms": ("ms/task", "lower", lambda v: v.busy_ms("profiles.", prefix=True) / v.n),
    "profiles.calls": ("count/task", "lower", _per_task("profiles.calls")),
    "curves.eval_planar.ms": ("ms/task", "lower", _per_task_ms("curves.eval_planar")),
    "curves.eval_planar.points": ("points/task", "lower", _per_task("curves.eval_planar.points")),
    "curves.eval_theta.ms": ("ms/task", "lower", _per_task_ms("curves.eval_theta")),
    "curves.sample_leafed.ms": ("ms/task", "lower", _per_task_ms("curves.sample_leafed")),
    "curves.build_leafed.ms": ("ms/task", "lower", _per_task_ms("curves.build_leafed")),
    "curves.classify_closed.ms": ("ms/task", "lower", _per_task_ms("curves.classify_closed")),
    "curves.planar_state.ms": ("ms/task", "lower", _per_task_ms("curves.planar_state")),
    "curves.reconstruct_spatial.ms": ("ms/task", "lower", _per_task_ms("curves.reconstruct_spatial")),
    "curves.reconstruct_spatial.steps": ("steps/task", "lower",
                                         _per_task("curves.reconstruct_spatial.steps")),
    "discrete.normalized_energy.ms": ("ms/task", "lower", _per_task_ms("discrete.normalized_energy")),
    "discrete.liyau_check.ms": ("ms/task", "lower", _per_task_ms("discrete.liyau_check")),
    "discrete.detect_multiplicity.ms": ("ms/task", "lower",
                                        _per_task_ms("discrete.detect_multiplicity")),
    "discrete.detect_multiplicity.vertices": ("vertices/task", "lower",
                                              _per_task("discrete.detect_multiplicity.vertices")),
    "discrete.detect_multiplicity.r_miss": ("count/task", "lower",
                                            _per_task("discrete.detect_multiplicity.r_miss")),
    "discrete.bending_energy.us": ("us/call", "lower", _per_call_us("discrete.bending_energy")),
    "discrete.DiscreteCurve.us": ("us/call", "lower", _per_call_us("discrete.DiscreteCurve")),
    "discrete.curve_to_csv.ms": ("ms/task", "lower", _per_task_ms("discrete.curve_to_csv")),
    "discrete.load_curve_csv.ms": ("ms/task", "lower", _per_task_ms("discrete.load_curve_csv")),
    "discrete.load_curve_csv.bytes": ("bytes/task", "lower", _per_task("discrete.load_curve_csv.bytes")),
    "minimize.solve.ms": ("ms/task", "lower", _per_task_ms("minimize.solve")),
    "minimize.iterations": ("count/task", "lower", _per_task("minimize.iterations")),
    "minimize.iterations.fine": ("count/task", "lower", _per_task("minimize.iterations.fine")),
    "minimize.iterations.coarse": ("count/task", "lower", _per_task("minimize.iterations.coarse")),
    "minimize.ms_per_iteration": ("ms/iter", "lower", lambda v: _div(
        v.busy_ms("minimize.solve"), v.counts.get("minimize.iterations", 0.0))),
    "minimize.energy_gradient.us": ("us/call", "lower", _per_call_us("minimize.energy_gradient")),
    "minimize.converged_ratio": ("ratio", "higher", lambda v: _div(
        v.counts.get("minimize.converged", 0.0), v.counts.get("minimize.solves", 0.0))),
    "minimize.saddle_kicks": ("count/task", "lower", _per_task("minimize.saddle_kicks")),
    "odeint.integrate_elastica.ms": ("ms/task", "lower", _per_task_ms("odeint.integrate_elastica")),
    "odeint.steps": ("steps/task", "lower", _per_task("odeint.steps")),
    "odeint.us_per_step": ("us/step", "lower", lambda v: _div(
        1e3 * v.busy_ms("odeint.integrate_elastica"), v.counts.get("odeint.steps", 0.0))),
    "odeint.monitors.ms": ("ms/task", "lower", lambda v: v.busy_ms(
        "odeint.monitor_det", "odeint.planarity_drift", "odeint.energy_law_residual") / v.n),
    "odeint.step_size_errors": ("count/task", "lower", _per_task("odeint.step_size_errors")),
    "cli.python_start_ms": ("ms", "lower", lambda v: 1e3 * _median(
        [t1 - t0 for name, t0, t1, *_ in v.spans_list if name == "cli.python_start"])),
    "cli.import_ms": ("ms", "lower", lambda v: _median(v.samples.get("cli.import_ms", []))),
})
for _k in CLI_SUBCOMMANDS:
    PER_LAYER[f"cli.main.{_k}.ms"] = ("ms/call", "lower", _per_call_ms(f"cli.main.{_k}"))
PER_LAYER.update({
    "cli.artifact_bytes": ("bytes/task", "lower", _per_task("cli.artifact_bytes")),
    "bench.self.ms": ("ms/task", "lower", lambda v: v.self_ms("task") / v.n),
})


def per_layer(tr: Tracer, n_tasks: int, speed: float, overhead_pct: float) -> dict:
    """Every per-layer metric; times are scaled to the reference speed by
    the run's median factor `speed`."""
    view = LayerView(tr, n_tasks)
    out = {}
    for name, (unit, _better, fn) in PER_LAYER.items():
        scale = speed if unit.startswith(("ms", "us")) else 1.0
        out[name] = _metric(scale * fn(view), unit, n_tasks)
    out["trace.overhead_pct"] = _metric(overhead_pct, "%", n_tasks)
    return out


# ---------------------------------------------------------------------------
# environment and records

def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _print_table(metrics: dict, file=sys.stderr) -> None:
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:<14s} n={m['samples']}", file=file)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_reps: int = SETUP_REPS, limit: int | None = None) -> dict:
    """Run one workload and write its record; returns the driver's result object."""
    wl = importlib.import_module(name)
    nominal = reference(wl)[1]
    rounds, digest = make_inputs(name, seed)
    setup, setup_refs = measure_setup(name, setup_reps) if not trace else ([], [])
    wl.setup()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    try:
        tr = Tracer() if trace else NullTracer()
        results, elapsed = timed_loop(wl, rounds, tr, seconds, str(work), limit)
        if trace:
            # replay the first half of the traced rounds untraced, task for task
            first_half = [o for o in results if o.round < (results[-1].round + 2) // 2]
            replay = [run_one(wl, o.task, NullTracer(), str(work)) for o in first_half]
            traced_s, untraced_s = (sum(task_seconds(rs, nominal)) for rs in (first_half, replay))
            speed = nominal / statistics.median(o.ref for o in results)
            metrics = per_layer(tr, len(results), speed, 100.0 * (traced_s / untraced_s - 1.0))
        else:
            metrics = end_to_end(results, nominal, setup, setup_refs, name == "cli_pipeline")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(results)
    failed = [o for o in results if o.failed]
    unexpected = [o for o in results if o.unexpected]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "inputs_sha256": digest, "rounds": results[-1].round + 1,
        "environment": environment(),
        "tasks": n, "elapsed_s": elapsed, "fail_ratio": len(failed) / n,
        "failed_tasks": len(failed), "unexpected_failures": len(unexpected),
        "known_defects": dict(Counter(o.known for o in failed if o.known)),
        "check_failures": dict(Counter(c for o in failed for c in (o.failed_checks or ["error"]))),
        "metrics": metrics,
        "raw_wall_clock": raw_timings(results, elapsed, setup),
        "task_seconds": [[o.task.get("kind") or o.task.get("step"), o.seconds, o.ref]
                         for o in results],
    }
    if not trace and n >= 100:  # p90 has at least ten samples beyond it
        record["task_p90_ms"] = _metric(1e3 * harrell_davis(task_seconds(results, nominal), 0.9),
                                        "ms", n)
    if trace:
        record["self_ms_per_task"] = {k: 1e3 * a["self_s"] / n
                                      for k, a in sorted(tr.aggregate().items())}
        tr.write_jsonl(OUT / f"{stem}.spans.jsonl")
    with open(OUT / f"{stem}.failures.jsonl", "w", encoding="utf-8") as fh:
        for o in failed:
            fh.write(json.dumps({"index": o.index, "round": o.round, "inputs": o.task,
                                 "failed_checks": o.failed_checks, "known_defect": o.known,
                                 "detail": o.detail, "error": o.error}, default=str) + "\n")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"{name} seed={seed} trace={int(trace)}: {n} tasks in {elapsed:.2f} s, "
          f"fail_ratio={record['fail_ratio']:.4f} (known {record['known_defects']}, "
          f"unexpected {len(unexpected)}), inputs sha256 {digest[:16]}", file=sys.stderr)
    _print_table(metrics)
    return {
        "correct": not unexpected,
        "attempted": n,
        "failed": len(unexpected),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
