"""Command-line front end.

Subcommands: constants, sample, energy, liyau, minimize, integrate, leafed,
classify.  Each imports the modules it runs when it runs, so a process
loads and compiles only its own subcommand's code.  Every run echoes its
resolved configuration to stderr, and integrate its worst local error
estimate (suppress both with --quiet); the artifact goes to --out or
stdout.  CSV carries floats at 17 significant digits (lossless
round-trip), SVG at 6.

Exit codes: 0 success (and, for liyau, bound satisfied); 1 internal error or
violated bound; 2 input error, a non-ASCII byte in an input file included;
3 infeasible construction.  The `elastica` script and `python -m
elastica.cli` exit through run(); main() is the same work without the exit
path, for callers in the same process.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

import numpy as np

from .curves import (
    FAMILY_TAGS,
    PlanarElastica,
    build_leafed,
    classify_closed,
    eval_k,
    eval_planar,
    figure_eight_modulus,
    leaf_spread_angle,
    sample_leafed,
    varpi_star,
)
from .elliptic import comp_E, comp_K
from .errors import (
    MAX_COUNT, DomainError, InfeasibleError, StepSizeError, _require_count, _require_finite,
    _require_positive,
)

__all__ = ["main", "run"]

def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _echo(args: argparse.Namespace, **extra) -> None:
    if args.quiet:
        return
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg.update(extra)
    text = json.dumps(cfg, sort_keys=True, default=str, allow_nan=False)  # NaN is not JSON
    print("config: " + text, file=sys.stderr)


def _note(args: argparse.Namespace, label: str, payload: dict) -> None:
    if not args.quiet:
        print(f"{label}: " + json.dumps(payload, sort_keys=True), file=sys.stderr)


def _svg_polyline(xy: np.ndarray, size: int = 512, margin: int = 16) -> str:
    """Single-polyline SVG with the curve autoscaled to fill a unit box."""
    lo = xy.min(axis=0)
    span = float(np.max(xy.max(axis=0) - lo))
    if span == 0.0:
        span = 1.0
    scale = (size - 2 * margin) / span
    pts = " ".join(
        f"{margin + (x - lo[0]) * scale:.6g},{size - margin - (y - lo[1]) * scale:.6g}"
        for x, y in xy
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'  <rect width="{size}" height="{size}" fill="white"/>\n'
        f'  <polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>\n'
        f"</svg>\n"
    )


def _read_kv(path: str, what: str, required: tuple, optional: tuple = ()) -> dict[str, str]:
    """key = value per line; '#' starts a comment; later keys win.  Keys
    outside required + optional, and missing required keys, are errors."""
    from .discrete import _read_ascii

    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_ascii(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    unknown = set(out) - set(required) - set(optional)
    if unknown:
        raise DomainError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in out]
    if missing:
        raise DomainError(f"{what} file needs {missing}")
    return out


def _num(kv: dict[str, str], key: str, kind=float, default=None):
    """kv[key] as kind (float or int), or default when the key is absent."""
    if key not in kv:
        return default
    try:
        return kind(kv[key])
    except ValueError as exc:
        raise DomainError(f"{key}: could not parse {kind.__name__} from {kv[key]!r}") from exc


def _vec(kv: dict[str, str], key: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in kv[key].replace(",", " ").split()])
    except ValueError as exc:
        raise DomainError(f"{key}: could not parse vector from {kv[key]!r}") from exc


# ---------------------------------------------------------------------------
# subcommands

def cmd_constants(args) -> int:
    m = figure_eight_modulus()
    fields = [
        ("m_star", m),
        ("varpi_star", varpi_star()),
        ("psi", leaf_spread_angle()),
        ("K_mstar", comp_K(m)),
        ("E_mstar", comp_E(m)),
        ("four_pi_sq", 4.0 * math.pi**2),
    ]
    _echo(args)
    if args.format == "json":
        text = json.dumps({k: float(f"{v:.15g}") for k, v in fields}, indent=2) + "\n"
    else:
        text = "".join(f"{k} = {v:.15g}\n" for k, v in fields)
    _emit(text, args.out)
    return 0


def cmd_sample(args) -> int:
    from .discrete import _csv

    _require_count(args.N, 1, "--N", MAX_COUNT)
    _require_positive(args.periods, "--periods")
    e = PlanarElastica(args.family, m=args.m)  # validates family/m pairing
    if args.range is not None:
        s0, s1 = _require_finite(args.range, "--range").tolist()
        if not s1 > s0:
            raise DomainError("--range needs A < B")
    elif math.isfinite(e.period):
        s0, s1 = 0.0, args.periods * e.period
        _require_finite(s1, "--periods times the period")
    else:
        s0, s1 = -8.0, 8.0  # aperiodic families: window around the loop
    _echo(args, s_range=[s0, s1])
    s = np.linspace(s0, s1, args.N + 1)
    x, y = eval_planar(e, s)
    if args.format == "svg":
        _emit(_svg_polyline(np.column_stack([x, y])), args.out)
    else:
        _emit(_csv("s,x,y,k", s, x, y, eval_k(e, s)), args.out)
    return 0


def cmd_energy(args) -> int:
    from .discrete import load_curve_csv, normalized_energy

    rep = normalized_energy(load_curve_csv(args.input))
    _echo(args)
    _emit(rep.to_text() if args.format == "text" else rep.to_json_line() + "\n", args.out)
    return 0


def cmd_liyau(args) -> int:
    from .discrete import liyau_check, load_curve_csv

    rep = liyau_check(load_curve_csv(args.input), eps=args.eps)
    _echo(args)
    _emit(rep.to_json_line() + "\n", args.out)
    return 0 if rep.satisfied else 1


def _parse_problem(path: str):
    from .minimize import ClampedProblem, MinimizeOptions, PinnedProblem

    kv = _read_kv(path, "problem", ("P0", "P1", "L0", "N"),
                  ("V0", "V1", "tol", "max_iters", "seed"))
    P0, P1, L0, N = _vec(kv, "P0"), _vec(kv, "P1"), _num(kv, "L0"), _num(kv, "N", int)
    if ("V0" in kv) != ("V1" in kv):
        raise DomainError("clamped problems need both V0 and V1")
    if "V0" in kv:
        problem = ClampedProblem(P0, P1, L0, N, _vec(kv, "V0"), _vec(kv, "V1"))
    else:
        problem = PinnedProblem(P0, P1, L0, N)
    opts = MinimizeOptions(
        tol=_num(kv, "tol"),
        max_iters=_num(kv, "max_iters", int, MinimizeOptions.max_iters),
        seed=_num(kv, "seed", int),
    )
    return problem, opts


def _run_minimize_seeded(payload):
    from .minimize import ClampedProblem, minimize_clamped, minimize_pinned

    problem, opts, seed = payload
    solver = minimize_clamped if isinstance(problem, ClampedProblem) else minimize_pinned
    return seed, solver(problem, dataclasses.replace(opts, seed=seed))


def _usable_cores() -> int:
    """Cores this process may run on (its affinity where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_minimize(args) -> int:
    """Solve the problem file once per seed: the file's seed alone, or seeds
    0..K-1 with --sweep K.  A pool of min(--jobs, seeds, usable cores)
    workers opens only when that is at least 2; else the seeds run in this
    process.  The run kept has the least B-bar, converged runs first; runs
    within B-bar's rounding bound of it reach the same minimum and tie, and
    the lowest seed wins."""
    from .discrete import curve_to_csv
    from .minimize import _rounding_bound

    problem, opts = _parse_problem(args.problem)
    _require_count(args.jobs, 1, "--jobs")
    _echo(args, problem_kind=type(problem).__name__, seed=opts.seed)
    seeds = [opts.seed]
    if args.sweep is not None:
        _require_count(args.sweep, 1, "--sweep", MAX_COUNT)
        seeds = range(args.sweep)
    payloads = [(problem, opts, seed) for seed in seeds]
    workers = min(args.jobs, len(payloads), _usable_cores())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = dict(pool.map(_run_minimize_seeded, payloads))
    else:
        runs = dict(map(_run_minimize_seeded, payloads))
    if args.sweep is not None:
        for seed, r in sorted(runs.items()):
            _note(args, f"seed {seed}", {"Bbar": r.Bbar, "converged": r.converged,
                                         "iterations": r.iterations})
    best = min(runs.values(), key=lambda r: (not r.converged, r.Bbar))
    tie = _rounding_bound(best.Bbar, problem.N)
    seed = min(s for s, r in runs.items()
               if r.converged == best.converged and r.Bbar - best.Bbar <= tie)
    result = runs[seed]
    _note(args, "result", {
        "seed": seed, "B": result.B, "Bbar": result.Bbar, "grad_norm": result.grad_norm,
        "iterations": result.iterations, "converged": result.converged,
        "termination": result.termination,
        "lambda_est": None if math.isnan(result.lambda_est) else result.lambda_est,
    })
    _emit(curve_to_csv(result.curve), args.out)
    log_path = args.log if args.log is not None else (args.out + ".log" if args.out else None)
    if log_path is not None:
        with open(log_path, "w", encoding="ascii") as fh:
            for row in result.log:
                fh.write(json.dumps(row) + "\n")
    return 0


def cmd_integrate(args) -> int:
    from .discrete import _csv, _row_norms
    from .odeint import ElasticaState, integrate_elastica, monitor_det

    kv = _read_kv(args.ic, "IC", ("gamma", "d1", "d2", "d3", "lam", "s_end", "h"))
    state = ElasticaState(*(_vec(kv, k) for k in ("gamma", "d1", "d2", "d3")))
    lam, s_end, h = (_num(kv, k) for k in ("lam", "s_end", "h"))
    t = integrate_elastica(state, lam, s_end, h)
    _echo(args, lam=lam, s_end=s_end, h=h, dim=state.dim)
    _note(args, "error estimate", {"err_max": t.err_max, "err_max_s": t.err_max_s})
    g = t.data[:, 0, :]
    kap = _row_norms(t.data[:, 2, :])
    if t.dim == 3:
        det = monitor_det(t)
        z = g[:, 2]
    else:  # planar trajectories: z = 0 and det(d1,d2,d3) = 0 identically
        det = np.zeros(t.n_states)
        z = np.zeros(t.n_states)
    _emit(_csv("s,x,y,z,kappa,det", t.s, g[:, 0], g[:, 1], z, kap, det), args.out)
    return 0


def cmd_leafed(args) -> int:
    from .discrete import curve_to_csv

    le = build_leafed(args.r, args.dim)
    c = sample_leafed(le, args.N)
    _echo(args, total_vertices=len(c.vertices))
    if args.format == "svg":
        _emit(_svg_polyline(c.vertices[:, :2]), args.out)
    else:
        _emit(curve_to_csv(c), args.out)
    return 0


def cmd_classify(args) -> int:
    from .discrete import DiscreteCurve, load_curve_csv

    c = load_curve_csv(args.input)
    if c.dim == 3:
        # trajectory CSVs pad planar data with a z column; flatten it when it
        # carries no geometry (classification itself is a planar notion)
        z = c.vertices[:, 2]
        scale = max(float(c.vertex_arclengths[-1]), 1.0)
        if np.max(np.abs(z - z[0])) <= 1e-9 * scale:
            c = DiscreteCurve(c.vertices[:, :2], closed=c.closed)
    res = classify_closed(c, tol=args.tol)
    _echo(args)
    _emit(json.dumps(dataclasses.asdict(res)) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch

def _format_option(sp: argparse.ArgumentParser, *choices: str) -> None:
    sp.add_argument("--format", choices=choices, default=choices[0],
                    help=f"output format (default {choices[0]})")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write the artifact here (default stdout)")
    common.add_argument("--quiet", action="store_true", help="suppress config/result echo")

    p = argparse.ArgumentParser(
        prog="elastica",
        description="Elastica curves: constants, sampling, energies, bounds, minimization.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    sp = sub.add_parser("constants", parents=[common], help="print the leaf/figure-eight constants")
    _format_option(sp, "text", "json")
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("sample", parents=[common], help="sample a planar elastica: s,x,y,k CSV or SVG")
    sp.add_argument("--family", required=True, choices=FAMILY_TAGS)
    sp.add_argument("--m", type=float, help="elliptic parameter m = k^2 (wavelike/orbitlike)")
    sp.add_argument("--N", type=int, default=512, help="sample count (emits N+1 rows)")
    sp.add_argument("--periods", type=float, default=1.0,
                    help="curvature periods to cover (periodic families)")
    sp.add_argument("--range", type=float, nargs=2, metavar=("A", "B"),
                    help="explicit arclength window (overrides --periods)")
    _format_option(sp, "csv", "svg")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("energy", parents=[common], help="L, B, Bbar, TC of a curve CSV")
    sp.add_argument("input", help="curve CSV (header s,x,y[,z], '# closed=...' marker)")
    _format_option(sp, "json", "text")
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("liyau", parents=[common],
                        help="energy bound verdict for a closed curve CSV; exit 0 iff satisfied")
    sp.add_argument("input")
    sp.add_argument("--eps", type=float,
                    help="proximity radius of the sampled multiplicity search (default 1e-3 L)")
    sp.set_defaults(func=cmd_liyau)

    sp = sub.add_parser("minimize", parents=[common],
                        help="solve a pinned/clamped problem file; solution CSV + JSONL log")
    sp.add_argument("problem", help="key=value file: P0 P1 [V0 V1] L0 N [tol max_iters seed]")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for --sweep")
    sp.add_argument("--log", metavar="PATH",
                    help="convergence log path (default: OUT.log when --out is set)")
    sp.add_argument("--sweep", type=int, metavar="K",
                    help="run seeds 0..K-1 and keep the best result")
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("integrate", parents=[common],
                        help="integrate the elastica ODE from an IC file; s,x,y,z,kappa,det CSV")
    sp.add_argument("ic", help="key=value file: gamma d1 d2 d3 lam s_end h")
    sp.set_defaults(func=cmd_integrate)

    sp = sub.add_parser("leafed", parents=[common], help="construct a closed r-leafed elastica")
    sp.add_argument("--r", type=int, required=True, help="leaf count (multiplicity)")
    sp.add_argument("--dim", type=int, required=True, choices=(2, 3))
    sp.add_argument("--N", type=int, default=512, help="vertices per leaf")
    _format_option(sp, "csv", "svg")
    sp.set_defaults(func=cmd_leafed)

    sp = sub.add_parser("classify", parents=[common],
                        help="classify a closed planar curve CSV as circle/figure-eight/other")
    sp.add_argument("input")
    sp.add_argument("--tol", type=float, default=1e-3, help="relative rms curvature misfit")
    sp.set_defaults(func=cmd_classify)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DomainError, StepSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def run() -> int:
    """main()'s exit status, after gc.freeze(): the interpreter's collection
    at shutdown then skips every object alive at exit, numpy's included.
    Unlike os._exit, this keeps the atexit hooks (the --jobs pool's) and
    the flush of the standard streams."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(run())
