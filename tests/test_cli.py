"""Command-line front end: artifacts, exit codes, config echo, determinism."""

import argparse
import concurrent.futures
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import elastica
from elastica.cli import _build_parser, main
from elastica.curves import figure_eight_modulus, varpi_star
from elastica.discrete import (
    FOUR_PI_SQ,
    DiscreteCurve,
    LiYauReport,
    liyau_check,
    load_curve_csv,
    normalized_energy,
)

from curve_helpers import save_curve_csv

TWO_PI = 2.0 * math.pi
M_STAR_TEXT = f"{figure_eight_modulus():.17g}"


@pytest.fixture
def run(capsys):
    def _run(*argv: str):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return _run


def write_polygon(path, folds: int = 1, n: int = 256, axes=(1.0, 1.0)) -> None:
    th = TWO_PI * folds * np.arange(n) / n
    pts = np.column_stack([axes[0] * np.cos(th), axes[1] * np.sin(th)])
    save_curve_csv(DiscreteCurve(pts, closed=True), path)


def csv_rows(text: str):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    return lines[0], np.array([ln.split(",") for ln in lines[1:]], dtype=float)


class TestConstants:
    def test_text_fields_and_identity(self, run):
        code, out, _ = run("constants", "--quiet")
        assert code == 0
        lines = out.strip().splitlines()
        keys = [ln.split(" = ")[0] for ln in lines]
        assert keys == ["m_star", "varpi_star", "psi", "K_mstar", "E_mstar", "four_pi_sq"]
        assert lines[1].startswith("varpi_star = 28.109")
        vals = {k: float(ln.split(" = ")[1]) for k, ln in zip(keys, lines)}
        # the defining identity survives the 15-digit print format
        assert abs(2.0 * vals["E_mstar"] - vals["K_mstar"]) < 1e-13
        assert vals["four_pi_sq"] == pytest.approx(FOUR_PI_SQ, rel=1e-14)

    def test_json_matches_library(self, run):
        code, out, _ = run("constants", "--format", "json", "--quiet")
        assert code == 0
        vals = json.loads(out)
        assert set(vals) == {"m_star", "varpi_star", "psi", "K_mstar", "E_mstar", "four_pi_sq"}
        assert vals["m_star"] == pytest.approx(figure_eight_modulus(), rel=1e-14)
        assert vals["varpi_star"] == pytest.approx(varpi_star(), rel=1e-14)

    def test_out_file(self, run, tmp_path):
        dest = tmp_path / "c.txt"
        code, out, _ = run("constants", "--quiet", "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("m_star = ")


class TestConfigEcho:
    def test_echo_goes_to_stderr(self, run):
        code, out, err = run("constants")
        assert code == 0
        first = err.strip().splitlines()[0]
        assert first.startswith("config: ")
        cfg = json.loads(first[len("config: "):])
        assert cfg["subcommand"] == "constants"
        assert cfg["format"] == "text"
        assert "config" not in out

    def test_quiet_silences_stderr(self, run):
        _, _, err = run("constants", "--quiet")
        assert err == ""

    def test_echo_holds_only_the_subcommands_options(self, run):
        code, _, err = run("sample", "--family", "circular", "--N", "8")
        assert code == 0
        cfg = json.loads(err.splitlines()[0][len("config: "):])
        assert cfg["format"] == "csv"
        assert "seed" not in cfg and "jobs" not in cfg

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "circular", "--seed", "1"],
        ["sample", "--family", "circular", "--jobs", "2"],
        ["liyau", "x.csv", "--format", "json"],
        ["integrate", "ic.txt", "--format", "csv"],
        ["minimize", "p.txt", "--seed", "1"],  # the seed is a problem-file key
    ])
    def test_options_only_where_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_help_lists_format_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        assert "{csv,svg}" in capsys.readouterr().out


class TestSample:
    def test_circular_csv(self, run):
        code, out, _ = run("sample", "--family", "circular", "--N", "64", "--quiet")
        assert code == 0
        header, a = csv_rows(out)
        assert header == "s,x,y,k"
        assert len(a) == 65
        assert np.abs(np.hypot(a[:, 1], a[:, 2]) - 1.0).max() < 1e-12
        assert np.abs(a[:, 3] - 1.0).max() < 1e-12

    def test_figure_eight_closure(self, run):
        code, out, _ = run("sample", "--family", "wavelike", "--m", M_STAR_TEXT,
                           "--N", "2048", "--periods", "1", "--quiet")
        assert code == 0
        _, a = csv_rows(out)
        xy = a[:, 1:3]
        span = (xy.max(axis=0) - xy.min(axis=0)).max()
        assert np.hypot(*(xy[-1] - xy[0])) < 1e-9 * span

    def test_closure_at_rounded_modulus(self, run):
        # six printed digits of the modulus already cost ~1e-6 of closure
        _, out, _ = run("sample", "--family", "wavelike", "--m", "0.826115",
                        "--N", "2048", "--periods", "1", "--quiet")
        _, a = csv_rows(out)
        xy = a[:, 1:3]
        span = (xy.max(axis=0) - xy.min(axis=0)).max()
        assert np.hypot(*(xy[-1] - xy[0])) < 5e-6 * span

    def test_orbitlike_at_the_smallest_m(self, run):
        # m = 5e-324: the pose has no 1/m, so every row is finite, with no
        # warning; the curve is the circle (sin 2s / 2, sin^2 s) of radius 1/2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run("sample", "--family", "orbitlike", "--m", "5e-324", "--N", "8",
                                 "--quiet")
        assert code == 0 and err == ""
        assert [str(w.message) for w in caught] == []
        _, a = csv_rows(out)
        assert a.shape == (9, 4) and np.all(np.isfinite(a))
        s = a[:, 0]
        assert np.allclose(a[:, 1:3], np.column_stack([np.sin(2 * s) / 2, np.sin(s) ** 2]),
                           rtol=0, atol=1e-15)

    def test_borderline_default_window(self, run):
        code, out, _ = run("sample", "--family", "borderline", "--quiet")
        assert code == 0
        _, a = csv_rows(out)
        assert len(a) == 513  # default N = 512
        assert a[0, 0] == -8.0 and a[-1, 0] == 8.0
        assert a[:, 3].max() == pytest.approx(2.0, abs=1e-12)  # 2 sech(0)

    def test_range_overrides_periods(self, run):
        _, out, _ = run("sample", "--family", "circular", "--N", "10",
                        "--periods", "3", "--range", "0", "1", "--quiet")
        _, a = csv_rows(out)
        assert a[0, 0] == 0.0 and a[-1, 0] == 1.0

    def test_svg_structure(self, run):
        code, out, _ = run("sample", "--family", "circular", "--N", "64",
                           "--format", "svg", "--quiet")
        assert code == 0
        assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert out.count("<polyline") == 1
        assert out.endswith("</svg>\n")

    def test_bad_format_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--family", "circular", "--format", "json"])
        assert exc.value.code == 2

    def test_wavelike_needs_m(self, run):
        code, _, err = run("sample", "--family", "wavelike", "--quiet")
        assert code == 2
        assert "error:" in err

    def test_empty_range_exits_2(self, run):
        code, _, _ = run("sample", "--family", "circular", "--range", "2", "0", "--quiet")
        assert code == 2

    @pytest.mark.parametrize("bad", [
        ["--N", "-5"],
        ["--N", "0"],
        ["--periods", "nan"],
        ["--periods", "0"],
        ["--periods", "inf"],
        ["--range", "0", "inf"],
    ])
    def test_bad_arguments_exit_2(self, run, bad):
        code, out, err = run("sample", "--family", "circular", *bad, "--quiet")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestEnergy:
    def test_unit_square(self, run, tmp_path):
        path = tmp_path / "sq.csv"
        square = DiscreteCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], closed=True)
        save_curve_csv(square, path)
        code, out, _ = run("energy", str(path), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"L", "B", "Bbar", "TC"}
        assert rep["L"] == pytest.approx(4.0, rel=1e-12)
        assert rep["B"] == pytest.approx(math.pi**2, rel=1e-12)
        assert rep["Bbar"] == pytest.approx(FOUR_PI_SQ, rel=1e-12)
        assert rep["TC"] == pytest.approx(TWO_PI, rel=1e-12)

    def test_json_is_the_library_report(self, run, tmp_path):
        path = tmp_path / "c.csv"
        write_polygon(path, folds=2, axes=(1.0, 0.6))
        code, out, _ = run("energy", str(path), "--quiet")
        assert code == 0
        assert out == normalized_energy(load_curve_csv(path)).to_json_line() + "\n"

    def test_text_format(self, run, tmp_path):
        path = tmp_path / "c.csv"
        write_polygon(path)
        code, out, _ = run("energy", str(path), "--format", "text", "--quiet")
        assert code == 0
        assert "Bbar = " in out

    def test_missing_file_exits_2(self, run, tmp_path):
        code, _, err = run("energy", str(tmp_path / "nope.csv"), "--quiet")
        assert code == 2
        assert "error:" in err


class TestLiyau:
    def test_simple_circle_gets_fenchel_floor(self, run, tmp_path):
        path = tmp_path / "circle.csv"
        write_polygon(path)
        code, out, _ = run("liyau", str(path), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert rep["r"] == 1
        assert rep["bound_kind"] == "fenchel"
        assert rep["bound"] == pytest.approx(FOUR_PI_SQ, rel=1e-12)
        assert rep["satisfied"] is True

    def test_json_is_the_library_report(self, run, tmp_path):
        path = tmp_path / "eight.csv"
        code, _, _ = run("leafed", "--r", "2", "--dim", "2", "--N", "256",
                         "--quiet", "--out", str(path))
        assert code == 0
        code, out, _ = run("liyau", str(path), "--quiet")
        assert code == 0
        assert out == liyau_check(load_curve_csv(path)).to_json_line() + "\n"

    def test_json_explains_the_bound(self, run, tmp_path):
        path = tmp_path / "double.csv"
        write_polygon(path, folds=2, n=1024)
        code, out, _ = run("liyau", str(path), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert rep["r"] == 2 and rep["bound_kind"] == "liyau"
        assert rep["bound_reason"] == "a point visited 2 times within eps"
        assert rep["eps"] == pytest.approx(1e-3 * normalized_energy(load_curve_csv(path)).L, rel=1e-12)
        w = sorted(rep["witnesses"])
        assert len(w) == 2 and w[1] - w[0] > 2.0 * rep["eps"]

    def test_figure_eight_pipeline(self, run, tmp_path):
        eight = tmp_path / "eight.csv"
        code, _, _ = run("leafed", "--r", "2", "--dim", "2", "--N", "512",
                         "--quiet", "--out", str(eight))
        assert code == 0
        code, out, _ = run("liyau", str(eight), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert rep["r"] == 2
        assert rep["bound_kind"] == "liyau"
        assert rep["bound"] == pytest.approx(4.0 * varpi_star(), rel=1e-12)
        assert rep["satisfied"] is True
        assert rep["slack"] > -0.01 * rep["bound"]

    def test_violated_bound_exits_1(self, run, tmp_path, monkeypatch):
        # The inequality is a theorem for honest inputs, so a violation can
        # only come from an inconsistent toolchain; fake one to pin the exit
        # code contract.
        path = tmp_path / "circle.csv"
        write_polygon(path)
        fake = LiYauReport(r=2, Bbar=50.0, bound=4.0 * varpi_star(), satisfied=False,
                           slack=50.0 - 4.0 * varpi_star(), bound_kind="liyau")
        # cmd_liyau imports liyau_check from elastica.discrete when it runs
        monkeypatch.setattr("elastica.discrete.liyau_check", lambda curve, eps=None: fake)
        code, out, _ = run("liyau", str(path), "--quiet")
        assert code == 1
        assert json.loads(out)["satisfied"] is False

    def test_open_curve_rejected(self, run, tmp_path):
        path = tmp_path / "open.csv"
        path.write_text("# closed=false\ns,x,y\n0,0,0\n1,1,0\n2,2,1\n3,2,2\n")
        code, _, err = run("liyau", str(path), "--quiet")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_bad_eps_exits_2(self, run, tmp_path, eps):
        path = tmp_path / "circle.csv"
        write_polygon(path)
        code, out, err = run("liyau", str(path), "--eps", eps, "--quiet")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-14"])
    def test_eps_contract_exits_2(self, run, tmp_path, eps):
        # every eps the library rejects, the sampling floor 2 L / 2^16 included
        path = tmp_path / "eight.csv"
        assert run("leafed", "--r", "2", "--dim", "2", "--N", "256", "--out", str(path), "--quiet")[0] == 0
        code, out, err = run("liyau", str(path), f"--eps={eps}", "--quiet")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestMinimize:
    def leaf_problem(self, tmp_path, n: int = 96, seed: int = 3):
        path = tmp_path / "leaf.txt"
        path.write_text(
            "# closed loop of unit length\n"
            "P0 = 0 0\nP1 = 0 0\n"
            f"L0 = 1\nN = {n}\nseed = {seed}\nmax_iters = 2000\n"
        )
        return path

    def test_solution_csv_and_log(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path)
        sol = tmp_path / "sol.csv"
        code, _, err = run("minimize", str(problem), "--out", str(sol))
        assert code == 0

        curve = load_curve_csv(sol)
        assert not curve.closed
        assert curve.n_vertices == 97
        el = np.linalg.norm(np.diff(curve.vertices, axis=0), axis=1)
        assert np.abs(el - 1.0 / 96).max() < 1e-9 / 96
        assert np.array_equal(curve.vertices[0], [0.0, 0.0])
        assert np.array_equal(curve.vertices[-1], [0.0, 0.0])

        rows = [json.loads(ln) for ln in (tmp_path / "sol.csv.log").read_text().splitlines()]
        assert [r["iteration"] for r in rows] == list(range(len(rows)))
        for r in rows:
            assert {"iteration", "B", "grad_norm", "max_constraint_residual", "N",
                    "t", "direction", "backtracks", "closure_steps"} <= set(r)
        assert all(r["direction"] in ("newton", "laplacian") and r["t"] > 0.0 for r in rows[:-1])
        assert rows[-1]["t"] is None and rows[-1]["direction"] is None  # JSON null
        assert rows[-1]["B"] <= rows[0]["B"]

        result = json.loads(next(
            ln for ln in err.splitlines() if ln.startswith("result: "))[len("result: "):])
        assert result["converged"] is True
        assert result["Bbar"] == pytest.approx(varpi_star(), rel=0.01)

    def test_result_note_names_the_termination(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64)
        text = problem.read_text().replace("max_iters = 2000", "max_iters = 2")
        problem.write_text(text)
        code, _, err = run("minimize", str(problem), "--out", str(tmp_path / "s.csv"))
        assert code == 0
        result = json.loads(next(
            ln for ln in err.splitlines() if ln.startswith("result: "))[len("result: "):])
        assert result["termination"] == "budget"
        assert result["converged"] is False

    def test_echo_reports_the_file_seed(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64, seed=3)
        _, _, err = run("minimize", str(problem), "--out", str(tmp_path / "s.csv"))
        cfg = json.loads(err.splitlines()[0][len("config: "):])
        assert cfg["seed"] == 3

    def test_deterministic_artifacts(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("minimize", str(problem), "--quiet", "--out", str(a))[0] == 0
        assert run("minimize", str(problem), "--quiet", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.log").read_bytes() == (tmp_path / "b.csv.log").read_bytes()

    def test_sweep_parallel_matches_serial(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64)
        one, two = tmp_path / "j1.csv", tmp_path / "j2.csv"
        code, _, err = run("minimize", str(problem), "--sweep", "2", "--jobs", "1",
                           "--out", str(one))
        assert code == 0
        assert any(ln.startswith("seed 0: ") for ln in err.splitlines())
        assert any(ln.startswith("seed 1: ") for ln in err.splitlines())
        code, _, _ = run("minimize", str(problem), "--sweep", "2", "--jobs", "2",
                         "--quiet", "--out", str(two))
        assert code == 0
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("lower, want", [(np.nextafter(20.0, 0.0), 0), (20.0 - 1e-9, 1)],
                             ids=["one_ulp", "beyond_rounding"])
    def test_sweep_ties_go_to_the_lowest_seed(self, run, tmp_path, monkeypatch, lower, want):
        # two converged seeds, seed 1 lower in B-bar: by one ulp it ties with
        # seed 0 (within the rounding bound of the N-term energy sum) and the
        # lower seed is kept; by 1e-9 it wins
        solve = elastica.cli._run_minimize_seeded

        def ranked(payload):
            seed, r = solve(payload)
            return seed, dataclasses.replace(r, Bbar=lower if seed else 20.0)

        monkeypatch.setattr(elastica.cli, "_run_minimize_seeded", ranked)
        problem = self.leaf_problem(tmp_path, n=64)
        code, _, err = run("minimize", str(problem), "--sweep", "2", "--jobs", "1")
        assert code == 0
        result = json.loads(next(
            ln for ln in err.splitlines() if ln.startswith("result: "))[len("result: "):])
        assert result["converged"] is True
        assert (result["seed"], result["Bbar"]) == (want, lower if want else 20.0)

    def test_single_run_names_its_seed(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64, seed=3)
        code, _, err = run("minimize", str(problem), "--out", str(tmp_path / "s.csv"))
        assert code == 0
        result = json.loads(next(
            ln for ln in err.splitlines() if ln.startswith("result: "))[len("result: "):])
        assert result["seed"] == 3

    def test_taut_clamped_is_straight(self, run, tmp_path):
        problem = tmp_path / "taut.txt"
        problem.write_text(
            "P0 = 0 0\nP1 = 1 0\nV0 = 1 0\nV1 = 1 0\nL0 = 1\nN = 16\n")
        sol = tmp_path / "taut.csv"
        code, _, err = run("minimize", str(problem), "--out", str(sol))
        assert code == 0
        curve = load_curve_csv(sol)
        assert np.abs(curve.vertices[:, 1]).max() == 0.0
        result = json.loads(next(
            ln for ln in err.splitlines() if ln.startswith("result: "))[len("result: "):])
        assert result["B"] == 0.0
        assert result["iterations"] == 0

    @pytest.mark.parametrize("content", [
        "P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\nQ0 = 1\n",   # unknown key
        "P0 = 0 0\nP1 = 0 0\nL0 = 1\n",                    # missing N
        "P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\nV0 = 1 0\n",  # V0 without V1
        "P0 = zero zero\nP1 = 0 0\nL0 = 1\nN = 64\n",      # unparsable vector
        "P0 0 0\n",                                        # not key = value
        "P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 1.5\n",          # N not an integer
        "P0 = 0 0\nP1 = 0 0\nL0 = one\nN = 64\n",         # unparsable L0
        "P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\nmax_iters = ten\n",
        "P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\ntol = small\n",
        "P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\nseed = x\n",
    ])
    def test_problem_file_errors(self, run, tmp_path, content):
        problem = tmp_path / "bad.txt"
        problem.write_text(content)
        code, _, err = run("minimize", str(problem), "--quiet")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("option", [
        "tol = nan", "tol = -1", "tol = 0", "tol = inf", "max_iters = 0", "max_iters = -1",
    ])
    def test_bad_options_exit_2(self, run, tmp_path, option):
        problem = tmp_path / "bad.txt"
        problem.write_text(f"P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\n{option}\n")
        code, out, err = run("minimize", str(problem), "--quiet")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exits_2(self, run, tmp_path, jobs):
        problem = self.leaf_problem(tmp_path, n=64)
        code, out, err = run("minimize", str(problem), "--sweep", "2", "--jobs", jobs, "--quiet")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_missing_problem_file(self, run, tmp_path):
        code, _, _ = run("minimize", str(tmp_path / "nope.txt"), "--quiet")
        assert code == 2

    def test_sweep_zero_exits_2(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64)
        code, _, _ = run("minimize", str(problem), "--sweep", "0", "--quiet")
        assert code == 2

    def test_problem_defaults_are_the_options_defaults(self, tmp_path):
        from elastica.cli import _parse_problem
        from elastica.minimize import MinimizeOptions

        path = tmp_path / "bare.txt"
        path.write_text("P0 = 0 0\nP1 = 0.5 0\nL0 = 1\nN = 16\n")
        assert _parse_problem(str(path))[1] == MinimizeOptions()

    @staticmethod
    def serial_pool(monkeypatch, cores: int) -> list:
        """Swap the process pool for a serial stand-in that records its worker
        count, so no process starts, on a machine of `cores` usable cores."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        return sizes

    def test_sweep_pool_never_exceeds_the_seed_count(self, run, tmp_path, monkeypatch):
        sizes = self.serial_pool(monkeypatch, cores=8)
        problem = self.leaf_problem(tmp_path, n=64)
        code, _, _ = run("minimize", str(problem), "--sweep", "2", "--jobs", "10000000000000",
                         "--quiet", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert sizes == [2]

    def test_sweep_pool_never_exceeds_the_usable_cores(self, run, tmp_path, monkeypatch):
        sizes = self.serial_pool(monkeypatch, cores=2)
        problem = self.leaf_problem(tmp_path, n=64)
        code, _, _ = run("minimize", str(problem), "--sweep", "64", "--jobs", "64",
                         "--quiet", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert sizes == [2]

    def test_sweep_pool_falls_back_to_the_cpu_count(self, run, tmp_path, monkeypatch):
        # platforms without sched_getaffinity (macOS, Windows)
        sizes = self.serial_pool(monkeypatch, cores=8)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        problem = self.leaf_problem(tmp_path, n=64)
        code, _, _ = run("minimize", str(problem), "--sweep", "8", "--jobs", "8",
                         "--quiet", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert sizes == [3]

    @pytest.mark.parametrize("sweep, jobs, cores", [("1", "4", 8), ("8", "8", 1)],
                             ids=["one_seed", "one_core"])
    def test_sweep_runs_in_process_without_a_second_worker(self, run, tmp_path, monkeypatch,
                                                            sweep, jobs, cores):
        # a pool of one worker runs nothing in parallel: no pool opens
        sizes = self.serial_pool(monkeypatch, cores=cores)
        problem = self.leaf_problem(tmp_path, n=64)
        code, _, _ = run("minimize", str(problem), "--sweep", sweep, "--jobs", jobs,
                         "--quiet", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert sizes == []

    def test_custom_log_path(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64)
        log = tmp_path / "trace.jsonl"
        code, out, _ = run("minimize", str(problem), "--quiet", "--log", str(log))
        assert code == 0
        assert out.startswith("# closed=false")  # artifact still on stdout
        assert log.exists()


class TestIntegrate:
    def write_ic(self, tmp_path, text: str):
        path = tmp_path / "ic.txt"
        path.write_text(text)
        return str(path)

    def test_unit_circle(self, run, tmp_path):
        # kappa = 1 solves the stationarity equation with lambda = 1
        ic = self.write_ic(tmp_path,
                           "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                           "lam = 1\ns_end = 6.283185307179586\nh = 1e-3\n")
        code, out, _ = run("integrate", ic, "--quiet")
        assert code == 0
        header, a = csv_rows(out)
        assert header == "s,x,y,z,kappa,det"
        assert np.abs(a[:, 4] - 1.0).max() < 1e-10
        assert np.abs(a[:, 3]).max() == 0.0  # planar: z padded with zeros
        assert np.abs(a[:, 5]).max() == 0.0
        assert np.hypot(*(a[-1, 1:3] - a[0, 1:3])) < 1e-9

    def test_planar_data_in_3d_has_zero_det(self, run, tmp_path):
        ic = self.write_ic(tmp_path,
                           "gamma = 0 -1 0\nd1 = 1 0 0\nd2 = 0 1 0\nd3 = -1 0 0\n"
                           "lam = 1\ns_end = 3\nh = 1e-3\n")
        code, out, _ = run("integrate", ic, "--quiet")
        assert code == 0
        _, a = csv_rows(out)
        assert np.abs(a[:, 4] - 1.0).max() < 1e-10
        assert np.abs(a[:, 5]).max() < 1e-12

    def test_error_estimate_on_stderr_only(self, run, tmp_path):
        ic = self.write_ic(tmp_path,
                           "gamma = 0 0 0\nd1 = 1 0 0\nd2 = 0 1.5 0\nd3 = -2.25 0 0.27\n"
                           "lam = 0.5\ns_end = 2\nh = 2e-3\n")
        loud, quiet = tmp_path / "loud.csv", tmp_path / "quiet.csv"
        code, out, err = run("integrate", ic, "--out", str(loud))
        assert code == 0 and out == ""
        note = next(line for line in err.splitlines() if line.startswith("error estimate: "))
        est = json.loads(note.removeprefix("error estimate: "))
        assert 0.0 < est["err_max"] <= 1e-6
        assert 0.0 <= est["err_max_s"] < 2.0
        code, out, err = run("integrate", ic, "--out", str(quiet), "--quiet")
        assert code == 0 and out == "" and err == ""
        assert loud.read_bytes() == quiet.read_bytes()
        assert run("integrate", ic)[1].encode() == loud.read_bytes()

    @pytest.mark.parametrize("h", ["1e-300", "1e-12"])
    def test_step_count_above_the_cap_exits_2(self, run, tmp_path, h):
        # an input error (exit 2) raised before the trajectory table is
        # allocated, not NumPy's size error reported as an internal error
        ic = self.write_ic(tmp_path, "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                                     f"lam = 1\ns_end = 1\nh = {h}\n")
        code, out, err = run("integrate", ic)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "cap" in err

    @pytest.mark.parametrize("text", [
        "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\nlam = 1\ns_end = 1\n",  # no h
        "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\nlam = 1\ns_end = 1\nh = 1e-3\nfoo = 1\n",
        "gamma = a b\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\nlam = 1\ns_end = 1\nh = 1e-3\n",
        "gamma = 0 -1\nd1 = 3 0\nd2 = 0 1\nd3 = -1 0\nlam = 1\ns_end = 1\nh = 1e-3\n",  # |d1| != 1
        "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\nlam = one\ns_end = 1\nh = 1e-3\n",
        "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\nlam = 1\ns_end = 1\nh = 1e-3x\n",
    ])
    def test_bad_ic_exits_2(self, run, tmp_path, text):
        code, _, err = run("integrate", self.write_ic(tmp_path, text), "--quiet")
        assert code == 2
        assert "error:" in err

    def test_nan_lam_is_not_echoed(self, run, tmp_path):
        # the config echo is JSON, which has no NaN; the run rejects it first
        ic = self.write_ic(tmp_path,
                           "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                           "lam = nan\ns_end = 1\nh = 1e-3\n")
        code, out, err = run("integrate", ic)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "NaN" not in err and "config:" not in err


class TestLeafed:
    def test_planar_odd_r_infeasible(self, run):
        code, _, err = run("leafed", "--r", "3", "--dim", "2", "--quiet")
        assert code == 3
        assert err == "infeasible: planar closed leafed elasticae need an even leaf count\n"

    def test_figure_eight_csv(self, run, tmp_path):
        dest = tmp_path / "eight.csv"
        code, _, _ = run("leafed", "--r", "2", "--dim", "2", "--N", "128",
                         "--quiet", "--out", str(dest))
        assert code == 0
        assert dest.read_text().startswith("# closed=true")
        curve = load_curve_csv(dest)
        assert curve.closed and curve.dim == 2
        assert curve.n_vertices == 256  # 128 per leaf

    def test_propeller_pipeline(self, run, tmp_path):
        prop = tmp_path / "prop.csv"
        code, _, _ = run("leafed", "--r", "3", "--dim", "3", "--N", "256",
                         "--quiet", "--out", str(prop))
        assert code == 0
        assert load_curve_csv(prop).dim == 3
        code, out, _ = run("liyau", str(prop), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert rep["r"] == 3
        assert rep["bound"] == pytest.approx(9.0 * varpi_star(), rel=1e-12)
        assert rep["satisfied"] is True

    def test_svg_projects_to_plane(self, run):
        code, out, _ = run("leafed", "--r", "4", "--dim", "3", "--N", "64",
                           "--format", "svg", "--quiet")
        assert code == 0
        assert out.startswith("<svg") and out.endswith("</svg>\n")


class TestClassify:
    def test_two_fold_circle(self, run, tmp_path):
        path = tmp_path / "c2.csv"
        write_polygon(path, folds=2)
        code, out, _ = run("classify", str(path), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "circle"
        assert rep["fold"] == 2
        assert rep["residual"] < 1e-6

    def test_figure_eight(self, run, tmp_path):
        eight = tmp_path / "eight.csv"
        run("leafed", "--r", "2", "--dim", "2", "--N", "256", "--quiet",
            "--out", str(eight))
        code, out, _ = run("classify", str(eight), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "figure_eight"
        assert rep["fold"] == 1

    def test_ellipse_is_not_elastica(self, run, tmp_path):
        path = tmp_path / "ell.csv"
        write_polygon(path, axes=(1.0, 0.6))
        code, out, _ = run("classify", str(path), "--quiet")
        assert code == 0
        assert json.loads(out)["kind"] == "not_elastica"

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tol_exits_2(self, run, tmp_path, tol):
        leaf4 = tmp_path / "leaf4.csv"
        run("leafed", "--r", "4", "--dim", "2", "--N", "256", "--quiet", "--out", str(leaf4))
        code, out, err = run("classify", str(leaf4), "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_accepts_flat_trajectory_csv(self, run, tmp_path):
        # integrate pads planar output with z = 0; classify must flatten it
        ic = tmp_path / "ic.txt"
        ic.write_text("gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                      "lam = 1\ns_end = 6.283185307179586\nh = 1e-3\n")
        traj = tmp_path / "circle.csv"
        assert run("integrate", str(ic), "--quiet", "--out", str(traj))[0] == 0
        code, out, _ = run("classify", str(traj), "--quiet")
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "circle"
        assert rep["fold"] == 1


class TestNonAsciiInput:
    """Input files are ASCII.  A non-ASCII byte, here in a comment, is an
    input error (exit 2), not an internal error, which for liyau would read
    as a violated bound (exit 1)."""

    INPUTS = {
        "minimize": "P0 = 0 0\nP1 = 0.5 0\nL0 = 1\nN = 16\n",
        "integrate": "gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\nlam = 1\ns_end = 1\nh = 1e-2\n",
    }

    @pytest.mark.parametrize("subcommand", ["energy", "liyau", "classify", "minimize", "integrate"])
    def test_exits_2(self, run, tmp_path, subcommand):
        if subcommand in self.INPUTS:
            text = self.INPUTS[subcommand]
        else:
            write_polygon(tmp_path / "circle.csv")
            text = (tmp_path / "circle.csv").read_text()
        plain, accented = tmp_path / "plain", tmp_path / "accented"
        plain.write_text(text, encoding="ascii")
        accented.write_text("# café\n" + text, encoding="utf-8")
        # the same input without the comment runs
        assert run(subcommand, str(plain), "--quiet", "--out", str(tmp_path / "out"))[0] == 0
        code, out, err = run(subcommand, str(accented), "--out", str(tmp_path / "out2"))
        assert code == 2 and out == ""
        assert any(line.startswith("error: ") for line in err.splitlines()), err
        assert not (tmp_path / "out2").exists()
        # the message names the file, the line and the byte
        assert f"error: {accented}:1: non-ASCII byte 0xc3" in err.splitlines(), err

    def test_names_the_line_of_the_byte(self, run, tmp_path):
        path = tmp_path / "ic.txt"
        text = self.INPUTS["integrate"].replace("lam = 1\n", "lam = 1 # \xb5\n")
        path.write_bytes(text.replace("\n", "\r\n").encode("latin-1"))
        code, out, err = run("integrate", str(path), "--quiet")
        assert code == 2 and out == ""
        assert err == f"error: {path}:5: non-ASCII byte 0xb5\n"


class TestExtremeScales:
    """Problems whose lengths square outside the floats exit 2 with the
    scale as the reason, also when every warning is an error."""

    @pytest.mark.parametrize("text", [
        "P0 = 0 0\nP1 = 0.5 0\nL0 = 1e308\nN = 16\n",
        "P0 = 1e300 0\nP1 = -1e300 0\nL0 = 1\nN = 16\n",
        "P0 = 0 0\nP1 = 0 0\nL0 = 1e-300\nN = 16\n",
    ], ids=["huge_L0", "far_endpoints", "tiny_L0"])
    def test_exits_2(self, run, tmp_path, text):
        problem = tmp_path / "p.txt"
        problem.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("minimize", str(problem), "--quiet")
        assert code == 2 and out == ""
        assert err.startswith("error: problem scale outside the floats"), err


CLI_FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e308"]
CLI_INTS = ["0", "-1", "10000000000000"]

# (subcommand, option) -> (argv for a value and the input files, {value: exit
# code} for each value whose documented result is not exit 2).  Values go in
# as --opt=value, so that "-inf" reaches the program and not argparse.
CLI_CONTRACTS = {
    ("sample", "--m"): (
        lambda v, f: ["sample", "--family", "wavelike", f"--m={v}", "--N", "8"], {}),
    ("sample", "--N"): (lambda v, f: ["sample", "--family", "circular", f"--N={v}"], {}),
    ("sample", "--periods"): (
        lambda v, f: ["sample", "--family", "circular", "--N", "8", f"--periods={v}"], {}),
    # nargs=2 takes no "=": "-inf" reads as an option, an argparse usage error
    ("sample", "--range"): (
        lambda v, f: ["sample", "--family", "wavelike", "--m", "0.5", "--N", "8", "--range", "-2", v],
        {"0": 0, "-1": 0, "1e308": 0}),
    # eps above L / 6 leaves no two visits 3 eps apart on the curve: an
    # input error, not a pass on the Fenchel bound
    ("liyau", "--eps"): (lambda v, f: ["liyau", f["eight"], f"--eps={v}"], {}),
    ("classify", "--tol"): (lambda v, f: ["classify", f["eight"], f"--tol={v}"], {"1e308": 0}),
    # without --sweep, --jobs is read only for its sign
    ("minimize", "--jobs"): (
        lambda v, f: ["minimize", f["problem"], f"--jobs={v}"], {"10000000000000": 0}),
    ("minimize", "--sweep"): (lambda v, f: ["minimize", f["problem"], f"--sweep={v}"], {}),
    ("leafed", "--r"): (lambda v, f: ["leafed", f"--r={v}", "--dim", "2", "--N", "8"], {}),
    ("leafed", "--dim"): (lambda v, f: ["leafed", "--r", "2", f"--dim={v}", "--N", "8"], {}),
    ("leafed", "--N"): (lambda v, f: ["leafed", "--r", "2", "--dim", "2", f"--N={v}"], {}),
}


def numeric_options() -> dict:
    """(subcommand, option) -> type for every int or float option of the CLI."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {(name, a.option_strings[0]): a.type
            for name, sp in sub.choices.items() for a in sp._actions if a.type in (float, int)}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contracts")
    eight = d / "eight.csv"
    assert main(["leafed", "--r", "2", "--dim", "2", "--N", "64", "--out", str(eight), "--quiet"]) == 0
    problem = d / "problem.txt"
    problem.write_text("P0 = 0 0\nP1 = 0.5 0\nL0 = 1\nN = 16\n")
    return {"eight": str(eight), "problem": str(problem)}


class TestNumericOptionContracts:
    """Every int or float option, at nan, +-inf, 0, -1 and 1e308 (ints: 0,
    -1, 10^13): exit 2, or the documented result, and no RuntimeWarning."""

    def test_table_names_every_numeric_option(self):
        assert set(numeric_options()) == set(CLI_CONTRACTS)

    @pytest.mark.parametrize("key, value", [
        (key, v) for key, kind in sorted(numeric_options().items())
        for v in (CLI_INTS if kind is int else CLI_FLOATS)
    ], ids=lambda x: " ".join(x) if isinstance(x, tuple) else x)
    def test_option_value(self, key, value, contract_files, capsys):
        argv_of, documented = CLI_CONTRACTS[key]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv_of(value, contract_files) + ["--quiet"])
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in err
        expected = documented.get(value, 2)
        assert code == expected, err
        if expected == 2:
            assert out == "" and err.startswith(("error: ", "usage: "))
        else:
            assert out != "" and err == ""


class TestEntryPoint:
    # cheap end-to-end sanity through a real process, which finds the
    # package under test through PYTHONPATH
    @staticmethod
    def env() -> dict:
        src = os.path.dirname(os.path.dirname(elastica.__file__))
        path = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elastica.cli", "constants", "--quiet"],
            capture_output=True, text=True, timeout=60, env=self.env())
        assert proc.returncode == 0
        assert "varpi_star = 28.109" in proc.stdout

    def test_liyau_does_not_import_scipy_spatial(self, tmp_path):
        # importing scipy.spatial costs every CLI process well over 100 ms
        path = tmp_path / "circle.csv"
        write_polygon(path)
        script = (
            "import sys\n"
            "from elastica.cli import main\n"
            f"assert main(['liyau', {str(path)!r}, '--quiet']) == 0\n"
            "assert 'scipy.spatial' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=self.env())
        assert proc.returncode == 0, proc.stderr

    # The elastica modules each subcommand loads, read from -X importtime in
    # a fresh process without a bytecode cache, where every module loaded is
    # compiled: no subcommand loads profiles, only integrate loads odeint,
    # only minimize loads minimize, and constants loads no discrete.
    BASE = {"elastica", "elastica.errors", "elastica.elliptic", "elastica.curves"}
    CURVES = BASE | {"elastica.discrete"}
    MODULE_SETS = {
        "constants": BASE,
        "sample": CURVES,
        "energy": CURVES,
        "liyau": CURVES,
        "minimize": CURVES | {"elastica.minimize"},
        "integrate": CURVES | {"elastica.odeint"},
        "leafed": CURVES,
        "classify": CURVES,
    }

    @pytest.mark.parametrize("subcommand", sorted(MODULE_SETS))
    def test_subcommand_loads_only_its_modules(self, subcommand, tmp_path):
        curve = tmp_path / "circle.csv"
        write_polygon(curve)
        ic = tmp_path / "ic.txt"
        ic.write_text("gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                      "lam = 1\ns_end = 1\nh = 1e-2\n")
        problem = tmp_path / "leaf.txt"
        problem.write_text("P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 16\nseed = 0\n")
        argv = {
            "constants": [],
            "sample": ["--family", "wavelike", "--m", "0.5", "--N", "64"],
            "energy": [str(curve)],
            "liyau": [str(curve)],
            "minimize": [str(problem)],
            "integrate": [str(ic)],
            "leafed": ["--r", "3", "--dim", "3", "--N", "64"],
            "classify": [str(curve)],
        }[subcommand]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "elastica.cli", subcommand, *argv,
             "--quiet", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**self.env(), "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        loaded = {ln.rsplit("|", 1)[-1].strip() for ln in proc.stderr.splitlines()
                  if ln.startswith("import time:")}
        assert {m for m in loaded if m.split(".")[0] == "elastica"} == self.MODULE_SETS[subcommand]

    def test_main_freezes_nothing(self, run):
        # only the process exit path freezes the heap: tests and benchmark
        # probes call main() in processes that go on
        before = gc.get_freeze_count()
        assert run("constants", "--quiet")[0] == 0
        assert run("leafed", "--r", "3", "--dim", "2", "--quiet")[0] == 3
        assert gc.get_freeze_count() == before

    def test_run_freezes_the_heap_and_returns_the_status(self):
        script = (
            "import gc, sys\n"
            "from elastica.cli import run\n"
            "sys.argv = ['elastica', 'leafed', '--r', '3', '--dim', '2', '--quiet']\n"
            "assert gc.get_freeze_count() == 0\n"
            "status = run()\n"
            "assert gc.get_freeze_count() > 0\n"
            "sys.exit(status)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=self.env())
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("infeasible: ")

    def test_minimize_runs_without_scipy(self, tmp_path):
        # the library is NumPy only: a None entry makes any SciPy import
        # fail, and every subcommand, minimize included, must still run
        curve = tmp_path / "circle.csv"
        write_polygon(curve)
        ic = tmp_path / "ic.txt"
        ic.write_text("gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                      "lam = 1\ns_end = 1\nh = 1e-2\n")
        problem = tmp_path / "leaf.txt"
        problem.write_text("P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\nseed = 3\n")
        out = str(tmp_path / "out")
        calls = [
            ["constants"],
            ["sample", "--family", "wavelike", "--m", "0.5", "--N", "64"],
            ["energy", str(curve)],
            ["liyau", str(curve)],
            ["integrate", str(ic)],
            ["leafed", "--r", "3", "--dim", "3", "--N", "64"],
            ["classify", str(curve)],
            ["minimize", str(problem)],
        ]
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import elastica\n"
            "from elastica.cli import main\n"
            f"for argv in {calls!r}:\n"
            f"    assert main(argv + ['--quiet', '--out', {out!r}]) == 0, argv\n"
            "assert not any(m.startswith('scipy.') for m in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=self.env())
        assert proc.returncode == 0, proc.stderr

    def test_unknown_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elastica.cli", "frobnicate"],
            capture_output=True, text=True, timeout=60, env=self.env())
        assert proc.returncode == 2
