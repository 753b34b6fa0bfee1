"""Command-line front end: artifacts, exit codes, config echo, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import elastica
from elastica.cli import main
from elastica.curves import figure_eight_modulus, varpi_star
from elastica.discrete import (
    FOUR_PI_SQ,
    DiscreteCurve,
    LiYauReport,
    liyau_check,
    load_curve_csv,
    normalized_energy,
    save_curve_csv,
)

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
        monkeypatch.setattr("elastica.cli.liyau_check", lambda curve, eps=None: fake)
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
            assert {"iteration", "B", "grad_norm", "max_constraint_residual", "N"} <= set(r)
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

    def test_resolved_seed_prefers_file(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64, seed=3)
        _, _, err = run("minimize", str(problem), "--seed", "9", "--out",
                        str(tmp_path / "s.csv"))
        cfg = json.loads(err.splitlines()[0][len("config: "):])
        assert cfg["resolved_seed"] == 3

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

    def test_missing_problem_file(self, run, tmp_path):
        code, _, _ = run("minimize", str(tmp_path / "nope.txt"), "--quiet")
        assert code == 2

    def test_sweep_zero_exits_2(self, run, tmp_path):
        problem = self.leaf_problem(tmp_path, n=64)
        code, _, _ = run("minimize", str(problem), "--sweep", "0", "--quiet")
        assert code == 2

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

    def test_only_minimize_imports_scipy(self, tmp_path):
        # scipy.linalg costs every CLI process about 200 ms; only the
        # minimizer uses it
        curve = tmp_path / "circle.csv"
        write_polygon(curve)
        ic = tmp_path / "ic.txt"
        ic.write_text("gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                      "lam = 1\ns_end = 1\nh = 1e-2\n")
        out = str(tmp_path / "out")
        calls = [
            ["constants"],
            ["sample", "--family", "wavelike", "--m", "0.5", "--N", "64"],
            ["energy", str(curve)],
            ["liyau", str(curve)],
            ["integrate", str(ic)],
            ["leafed", "--r", "2", "--dim", "2", "--N", "64"],
            ["classify", str(curve)],
        ]
        script = (
            "import sys\n"
            "from elastica.cli import main\n"
            "assert 'scipy' not in sys.modules\n"
            f"for argv in {calls!r}:\n"
            f"    assert main(argv + ['--quiet', '--out', {out!r}]) == 0, argv\n"
            "    assert 'scipy' not in sys.modules, argv\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=self.env())
        assert proc.returncode == 0, proc.stderr

    def test_only_minimize_imports_minimizer(self, tmp_path):
        # compiling elastica.minimize costs every process that loads it
        # about 20 ms when no bytecode cache is written
        curve = tmp_path / "circle.csv"
        write_polygon(curve)
        ic = tmp_path / "ic.txt"
        ic.write_text("gamma = 0 -1\nd1 = 1 0\nd2 = 0 1\nd3 = -1 0\n"
                      "lam = 1\ns_end = 1\nh = 1e-2\n")
        out = str(tmp_path / "out")
        calls = [["constants"], ["integrate", str(ic)], ["liyau", str(curve)]]
        script = (
            "import sys\n"
            "from elastica.cli import main\n"
            f"for argv in {calls!r}:\n"
            f"    assert main(argv + ['--quiet', '--out', {out!r}]) == 0, argv\n"
            "    assert 'elastica.minimize' not in sys.modules, argv\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=self.env())
        assert proc.returncode == 0, proc.stderr

    def test_minimize_runs_without_scipy(self, tmp_path):
        # the minimizer is NumPy only; a None entry makes any SciPy import fail
        problem = tmp_path / "leaf.txt"
        problem.write_text("P0 = 0 0\nP1 = 0 0\nL0 = 1\nN = 64\nseed = 3\n")
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from elastica.cli import main\n"
            f"assert main(['minimize', {str(problem)!r}, '--quiet', "
            f"'--out', {str(tmp_path / 'sol.csv')!r}]) == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=self.env())
        assert proc.returncode == 0, proc.stderr

    def test_unknown_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elastica.cli", "frobnicate"],
            capture_output=True, text=True, timeout=60, env=self.env())
        assert proc.returncode == 2
