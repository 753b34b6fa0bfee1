"""minimize_solve: one constrained bending-energy minimization per task.

Every round holds seven problems: the pinned loop P0 = P1 at N=100 and
N=200, a pinned chord in 2-D and in 3-D, a clamped arch, a clamped arch
that stalls, and the clamped teardrop (N=200, max_iters=3000).  Each solve
makes thousands of discrete energy and gradient calls on chains of about
200 vertices.

The iteration count of a solve varies by a factor of two or three with the
perturbation seed and with the chord length, so both follow fixed cycles:
perturbation seeds 0-7, chord lengths and arch angles on low-discrepancy
sequences.  Every seed then measures the same cost mix; the workload seed
sets the orientation of each chord and arch and the task order.

Two clamped problems are included on purpose; both end with
converged=False while every constraint holds, counted as failed under the
known defect "minimize_unconverged": the teardrop stops at grad_norm
2.24e-6 against tol 2e-6, and the stalling arch accepts no line-search step
and then diverges in the terminal polish, ending at grad_norm 2.0e-4.
Other arches stall the same way for some seeds, and 3-D chords with
|P1 - P0| in a narrow band near 0.462 use up the 2000-iteration budget with
grad_norm stuck near 1e-3.
"""

from __future__ import annotations

import math

import numpy as np

from common import SILVER, golden
from elastica import curves, discrete, minimize

PROBE_REPS = 20  # calls per probe of the inner per-call functions
SEED_CYCLE = 8  # perturbation seeds 0..7
STALLING_ARCH = {"kind": "arch_stall", "P0": [0.0, 0.0], "P1": [0.2622612116383645, 0.0], "N": 200,
                 "V0": [0.37389661194311186, 0.9274703895960571],
                 "V1": [0.37389661194311186, -0.9274703895960571], "seed": 1989225659}
TEARDROP = {"kind": "teardrop", "P0": [0.0, 0.0], "P1": [0.0, 0.0], "N": 200,
            "V0": [0.0, 1.0], "V1": [0.0, -1.0], "seed": None, "max_iters": 3000}


def _turn(angle: float, v: list[float]) -> list[float]:
    c, s = math.cos(angle), math.sin(angle)
    return [c * v[0] - s * v[1], s * v[0] + c * v[1]]


def make_inputs(rng, n_rounds: int) -> list[list[dict]]:
    rounds = []
    for i in range(n_rounds):
        seed = i % SEED_CYCLE
        d = 0.2 + 0.5 * golden(0.5, i)
        a = 0.3 + 0.9 * golden(0.5, i, SILVER)
        turn = rng.uniform(-math.pi, math.pi)
        z, phi = rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)
        u = [math.sqrt(1.0 - z * z) * math.cos(phi), math.sqrt(1.0 - z * z) * math.sin(phi), z]
        tasks = [
            {"kind": "loop100", "P0": [0.0, 0.0], "P1": [0.0, 0.0], "N": 100, "seed": seed},
            {"kind": "loop200", "P0": [0.0, 0.0], "P1": [0.0, 0.0], "N": 200,
             "seed": (seed + SEED_CYCLE // 2) % SEED_CYCLE},
            {"kind": "chord2d", "P0": [0.0, 0.0], "P1": _turn(turn, [d, 0.0]), "N": 200, "seed": seed},
            {"kind": "chord3d", "P0": [0.0, 0.0, 0.0], "P1": [d * c for c in u], "N": 100, "seed": None},
            {"kind": "arch", "P0": [0.0, 0.0], "P1": _turn(turn, [d, 0.0]), "N": 200,
             "V0": _turn(turn, [math.cos(a), math.sin(a)]),
             "V1": _turn(turn, [math.cos(a), -math.sin(a)]), "seed": seed},
            dict(STALLING_ARCH),
            dict(TEARDROP),
        ]
        for t in tasks:
            t["expect"] = {"converged": True, "leaf_floor": t["kind"].startswith("loop")}
        rng.shuffle(tasks)
        rounds.append(tasks)
    return rounds


def setup() -> None:
    curves.varpi_star()
    minimize.minimize_pinned(minimize.PinnedProblem([0.0, 0.0], [0.5, 0.0], 1.0, 16),
                             minimize.MinimizeOptions(max_iters=5))


def _probe(tr, name: str, fn) -> None:
    with tr.span(name, probe=True):
        for _ in range(PROBE_REPS):
            fn()
    tr.count(name + ".calls", PROBE_REPS)


def run_task(t, tr, work: str) -> tuple[dict, dict]:
    opts = minimize.MinimizeOptions(max_iters=t.get("max_iters", 2000), seed=t["seed"])
    if "V0" in t:
        p = minimize.ClampedProblem(t["P0"], t["P1"], 1.0, t["N"], t["V0"], t["V1"])
        with tr.span("minimize.solve"):
            res = minimize.minimize_clamped(p, opts)
    else:
        p = minimize.PinnedProblem(t["P0"], t["P1"], 1.0, t["N"])
        with tr.span("minimize.solve"):
            res = minimize.minimize_pinned(p, opts)
    if tr.enabled:
        fine = sum(1 for row in res.log if row["N"] == t["N"])
        tr.count("minimize.solves")
        tr.count("minimize.iterations", res.iterations)
        tr.count("minimize.iterations.fine", fine)
        tr.count("minimize.iterations.coarse", len(res.log) - fine)
        tr.count("minimize.converged", int(res.converged))
        tr.count("minimize.saddle_kicks", int(res.saddle_perturbed))
        # the solve wraps these per-call functions: time them on its solution
        X = res.curve.vertices
        _probe(tr, "discrete.DiscreteCurve", lambda: discrete.DiscreteCurve(X, closed=False))
        _probe(tr, "discrete.bending_energy", lambda: discrete.bending_energy(res.curve))
        _probe(tr, "minimize.energy_gradient", lambda: minimize.energy_gradient(res.curve))

    V = res.curve.vertices
    h = 1.0 / t["N"]
    edges = np.linalg.norm(np.diff(V, axis=0), axis=1)
    ends = max(np.linalg.norm(V[0] - t["P0"]), np.linalg.norm(V[-1] - t["P1"]))
    checks = {
        "converged": res.converged == t["expect"]["converged"],
        "edge_lengths": float(np.max(np.abs(edges - h))) / h <= 1e-10,
        "endpoints": ends <= 1e-12,
    }
    if "V0" in t:
        t0 = (V[1] - V[0]) / np.linalg.norm(V[1] - V[0])
        t1 = (V[-1] - V[-2]) / np.linalg.norm(V[-1] - V[-2])
        checks["clamped_tangents"] = max(np.linalg.norm(t0 - t["V0"]),
                                         np.linalg.norm(t1 - t["V1"])) <= 1e-8
    if t["expect"]["leaf_floor"]:
        checks["leaf_floor"] = res.Bbar >= 0.99 * curves.varpi_star()
    detail = {"converged": res.converged, "grad_norm": res.grad_norm,
              "iterations": res.iterations, "Bbar": res.Bbar}
    return checks, detail


def known_defect(t, failed: list[str], detail: dict) -> str | None:
    """Solves that end unconverged while every constraint holds."""
    if failed == ["converged"] and not detail["converged"]:
        return "minimize_unconverged"
    return None


def wrong_expectation(rng) -> list[dict]:
    """A pinned loop, falsely expected not to converge."""
    t = next(t for t in make_inputs(rng, 1)[0] if t["kind"] == "loop100")
    t["expect"] = dict(t["expect"], converged=False)
    return [t]
