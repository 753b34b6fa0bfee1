"""cli_pipeline: one `elastica` subprocess per task, from a fixed script.

Every round runs the script in order: constants; sample (CSV at N=4096,
then SVG); leafed --r 3 --dim 3 to a file, then liyau, energy and classify
on the files the script wrote; a small integrate; a small minimize.  The
seed varies the SVG family, the integrated circle and the minimizer seed.
Interpreter start and the import of elastica.cli make up most of each
task; CSV artifacts are written and read back, so serialization and
parsing both show.  This is the only workload that measures the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from elastica import cli, discrete

# reference values from 40-digit mpmath: m* solves 2E(m) = K(m), varpi* = 32(2m*-1)E(m*)^2
M_STAR = 0.8261147659849704
VARPI_STAR = 28.109902435330348
TIMEOUT_S = 120.0
REFERENCE = "python_start"  # tasks are processes: reference speed from interpreter start


def make_inputs(rng, n_rounds: int) -> list[list[dict]]:
    rounds = []
    for _ in range(n_rounds):
        fam = rng.choice(("wavelike", "orbitlike", "borderline"))
        svg = ["sample", "--family", fam, "--format", "svg", "--out", "{work}/curve.svg"]
        if fam != "borderline":
            svg[3:3] = ["--m", repr(rng.uniform(0.3, 0.95))]
        R = rng.uniform(0.5, 2.0)
        ic = (f"gamma = 0 {-R!r}\nd1 = 1 0\nd2 = 0 {1.0 / R!r}\nd3 = {-1.0 / R**2!r} 0\n"
              f"lam = {1.0 / R**2!r}\ns_end = {2.0 * math.pi * R!r}\nh = {2.0 * math.pi * R / 1000!r}\n")
        problem = f"P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 100\nseed = {rng.randrange(2**31)}\n"
        rounds.append([
            {"step": "constants", "argv": ["constants", "--format", "json"],
             "expect": {"m_star": M_STAR, "varpi_star": VARPI_STAR}},
            {"step": "sample_csv", "argv": ["sample", "--family", "wavelike", "--m", repr(M_STAR),
                                            "--N", "4096", "--out", "{work}/eight.csv"],
             "expect": {"rows": 4097}},
            {"step": "sample_svg", "argv": svg, "expect": {"points": 513}},
            {"step": "leafed", "argv": ["leafed", "--r", "3", "--dim", "3", "--N", "1024",
                                        "--out", "{work}/prop.csv"],
             "expect": {"rows": 3072}},
            {"step": "liyau", "argv": ["liyau", "{work}/prop.csv"],
             "expect": {"r": 3, "bound_kind": "liyau", "Bbar": 9 * VARPI_STAR}},
            {"step": "energy", "argv": ["energy", "{work}/prop.csv"],
             "expect": {"Bbar": 9 * VARPI_STAR}},
            {"step": "classify", "argv": ["classify", "{work}/eight.csv"],
             "expect": {"kind": "figure_eight", "fold": 1}},
            {"step": "integrate", "argv": ["integrate", "{work}/ic.txt", "--out", "{work}/circle.csv"],
             "files": {"ic.txt": ic}, "expect": {"rows": 1001, "kappa": 1.0 / R, "radius": R}},
            {"step": "minimize", "argv": ["minimize", "{work}/problem.txt", "--out", "{work}/loop.csv"],
             "files": {"problem.txt": problem}, "expect": {"rows": 101, "Bbar_min": 0.99 * VARPI_STAR}},
        ])
    return rounds


def setup() -> None:
    cli._build_parser()


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the child if it overruns the timeout
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=TIMEOUT_S)


def _csv_rows(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _check(t: dict, proc, work: str) -> tuple[dict, dict]:
    ex = t["expect"]
    step = t["step"]
    checks = {"exit_code": proc.returncode == 0}
    detail = {"returncode": proc.returncode, "stderr_tail": proc.stderr[-400:]}
    if proc.returncode != 0:
        return checks, detail
    if step == "constants":
        got = json.loads(proc.stdout)
        checks["m_star"] = abs(got["m_star"] / ex["m_star"] - 1.0) <= 1e-12
        checks["varpi_star"] = abs(got["varpi_star"] / ex["varpi_star"] - 1.0) <= 1e-12
    elif step in ("sample_csv", "leafed", "integrate"):
        header, rows = _csv_rows(_artifact(t, work))
        checks["rows"] = len(rows) == ex["rows"]
        checks["finite"] = bool(np.all(np.isfinite(rows)))
        if step == "sample_csv":
            checks["header"] = header == ["s", "x", "y", "k"]
            checks["closed"] = float(np.max(np.abs(rows[0, 1:3] - rows[-1, 1:3]))) <= 1e-9
        elif step == "leafed":
            checks["header"] = header == ["s", "x", "y", "z"]
        else:
            kap = rows[:, 4]
            checks["kappa"] = float(np.max(np.abs(kap * ex["radius"] - 1.0))) <= 1e-8
            checks["closed"] = float(np.max(np.abs(rows[0, 1:4] - rows[-1, 1:4]))) <= 1e-8 * ex["radius"]
            detail["kappa_range"] = [float(kap.min()), float(kap.max())]
    elif step == "sample_svg":
        with open(_artifact(t, work), encoding="ascii") as fh:
            text = fh.read()
        checks["svg"] = text.lstrip().startswith("<svg") and "<polyline" in text
        pts = text.split('points="', 1)[1].split('"', 1)[0].split() if 'points="' in text else []
        checks["points"] = len(pts) == ex["points"]
    elif step in ("liyau", "energy"):
        got = json.loads(proc.stdout)
        checks["energy"] = abs(got["Bbar"] / ex["Bbar"] - 1.0) <= 0.01
        if step == "liyau":
            checks["r"] = got["r"] == ex["r"]
            checks["bound_kind"] = got["bound_kind"] == ex["bound_kind"]
            checks["satisfied"] = got["satisfied"] is True
        else:
            checks["cauchy_schwarz"] = got["B"] * got["L"] >= got["TC"] ** 2 * (1.0 - 1e-9)
        detail["stdout"] = proc.stdout.strip()
    elif step == "classify":
        got = json.loads(proc.stdout)
        checks["kind"] = got["kind"] == ex["kind"]
        checks["fold"] = got["fold"] == ex["fold"]
        detail["stdout"] = proc.stdout.strip()
    elif step == "minimize":
        header, rows = _csv_rows(f"{work}/loop.csv")
        V = rows[:, 1:3]
        edges = np.linalg.norm(np.diff(V, axis=0), axis=1)
        h = 1.0 / (ex["rows"] - 1)
        result = json.loads(proc.stderr.split("result: ", 1)[1].splitlines()[0])
        with open(f"{work}/loop.csv.log", encoding="ascii") as fh:
            log = [json.loads(ln) for ln in fh]
        checks["rows"] = len(rows) == ex["rows"]
        checks["edge_lengths"] = float(np.max(np.abs(edges - h))) / h <= 1e-10
        checks["converged"] = result["converged"] is True
        checks["leaf_floor"] = result["Bbar"] >= ex["Bbar_min"]
        checks["log"] = len(log) >= 1 and "grad_norm" in log[-1]
        detail["result"] = result
    return checks, detail


def _artifact(t: dict, work: str) -> str | None:
    argv = t["argv"]
    return argv[argv.index("--out") + 1].format(work=work) if "--out" in argv else None


def _probes(t: dict, argv: list[str], work: str, env: dict, tr) -> None:
    step = t["step"]
    if step == "constants":
        # interpreter start and the eager import, each in a fresh process
        with tr.span("cli.python_start", probe=True):
            _run([sys.executable, "-c", "pass"], env)
        with tr.span("cli.import", probe=True):
            proc = _run([sys.executable, "-c", "import time; t = time.perf_counter(); "
                         "import elastica.cli; print(time.perf_counter() - t)"], env)
        tr.sample("cli.import_ms", 1e3 * float(proc.stdout))
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        with tr.span(f"cli.main.{argv[0]}", probe=True):
            cli.main(argv)
    path = _artifact(t, work)
    tr.count("cli.artifact_bytes", os.path.getsize(path) if path else len(out.getvalue()))
    if path and path.endswith(".csv"):
        with tr.span("discrete.load_curve_csv", probe=True):
            c = discrete.load_curve_csv(path)
        tr.count("discrete.load_curve_csv.bytes", os.path.getsize(path))
        with tr.span("discrete.curve_to_csv", probe=True):
            discrete.curve_to_csv(c)


def run_task(t, tr, work: str) -> tuple[dict, dict]:
    for name, text in t.get("files", {}).items():
        with open(os.path.join(work, name), "w", encoding="ascii") as fh:
            fh.write(text)
    argv = [a.format(work=work) for a in t["argv"]]
    env = _env()
    with tr.span(f"cli.subprocess.{argv[0]}"):
        proc = _run([sys.executable, "-m", "elastica.cli", *argv], env)
    checks, detail = _check(t, proc, work)
    if tr.enabled:
        _probes(t, argv, work, env, tr)
    return checks, detail


def known_defect(t, failed: list[str], detail: dict) -> str | None:
    return None


def wrong_expectation(rng) -> list[dict]:
    """The figure-eight sample, then classify falsely expecting fold 2."""
    rnd = make_inputs(rng, 1)[0]
    sample, classify = (next(t for t in rnd if t["step"] == s) for s in ("sample_csv", "classify"))
    return [sample, dict(classify, expect={"kind": "figure_eight", "fold": 2})]
