"""Discrete curve model: energies, bounds, multiplicity, CSV interchange."""

import gc
import inspect
import io
import json
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import elastica.discrete as discrete
from elastica.curves import (
    PlanarElastica,
    build_leafed,
    canonical_leaf,
    classify_closed,
    eval_planar,
    figure_eight_modulus,
    reconstruct_spatial,
    sample_leafed,
    varpi_star,
)
from elastica.discrete import (
    FOUR_PI_SQ,
    DiscreteCurve,
    EnergyReport,
    _csv,
    bending_energy,
    curvature_data,
    curve_from_csv,
    curve_to_csv,
    detect_multiplicity,
    length,
    liyau_check,
    load_curve_csv,
    normalized_energy,
    total_curvature,
)
from elastica.elliptic import comp_K
from elastica.errors import DomainError
from elastica.profiles import CurvatureProfile

from arclength_resample import resample_arclength
from curve_helpers import fenchel_floor_check, save_curve_csv
from input_contracts import BAD_FLOATS
from multiplicity_reference import narrow_phase_args, reference_detect_multiplicity, reference_near_edges

TWO_PI = 2.0 * math.pi


def regular_polygon(n: int, folds: int = 1, radius: float = 1.0) -> DiscreteCurve:
    th = TWO_PI * folds * np.arange(n) / n
    return DiscreteCurve(radius * np.column_stack([np.cos(th), np.sin(th)]), closed=True)


def leaf_vertices(n: int) -> DiscreteCurve:
    # open arc with zero endpoint curvature; smooth everywhere
    leaf = canonical_leaf()
    x, y = eval_planar(leaf.elastica, np.linspace(0.0, leaf.length, n + 1))
    return DiscreteCurve(np.column_stack([x, y]), closed=False)


def random_closed(rng, n: int) -> DiscreteCurve:
    return DiscreteCurve(rng.normal(size=(n, 2)), closed=True)


class TestValidation:
    def test_needs_three_vertices(self):
        with pytest.raises(DomainError):
            DiscreteCurve([[0.0, 0.0], [1.0, 0.0]])

    def test_dim_must_be_2_or_3(self):
        with pytest.raises(DomainError):
            DiscreteCurve(np.zeros((4, 4)))
        with pytest.raises(DomainError):
            DiscreteCurve(np.arange(4.0)[:, None])

    def test_consecutive_duplicates_rejected(self):
        with pytest.raises(DomainError):
            DiscreteCurve([[0, 0], [0, 0], [1, 0]])

    def test_closing_edge_checked(self):
        # last vertex equal to the first is a zero-length wrap edge
        with pytest.raises(DomainError):
            DiscreteCurve([[0, 0], [1, 0], [0, 1], [0, 0]], closed=True)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            DiscreteCurve([[0, 0], [1, np.nan], [0, 1]])

    def test_vertices_read_only(self):
        c = regular_polygon(8)
        with pytest.raises(ValueError):
            c.vertices[0, 0] = 5.0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("closed", [False, True])
    def test_edges_stored_read_only(self, dim, closed):
        v = default_rng(5).normal(size=(7, dim))
        c = DiscreteCurve(v, closed=closed)
        e = np.diff(v, axis=0)
        if closed:
            e = np.vstack([e, v[0] - v[-1]])  # the closing edge runs back to vertex 0
        assert np.array_equal(c.edges, e)
        assert np.array_equal(c.edge_lengths, np.linalg.norm(e, axis=1))
        for arr in (c.edges, c.edge_lengths):
            with pytest.raises(ValueError):
                arr[0] = 5.0

    def test_open_curve_may_touch_endpoints(self):
        # non-adjacent coincidence is allowed (only edges must be nonzero)
        DiscreteCurve([[0, 0], [1, 0], [1, 1], [0, 0]], closed=False)


class TestEquality:
    """Curves compare by closedness and vertex values, and hash alike when equal."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("closed", [False, True])
    def test_equal_to_its_rebuild(self, dim, closed):
        c = DiscreteCurve(default_rng(dim).normal(size=(8, dim)), closed=closed)
        again = DiscreteCurve(c.vertices.copy(), c.closed)
        assert (c == again) is True and not (c != again)
        assert hash(c) == hash(again) and len({c, again}) == 1
        assert c == pickle.loads(pickle.dumps(c))

    def test_unequal(self):
        c = regular_polygon(8)
        moved = c.vertices.copy()
        moved[3, 0] = np.nextafter(moved[3, 0], np.inf)
        for other in (DiscreteCurve(c.vertices, closed=False), DiscreteCurve(moved, closed=True),
                      DiscreteCurve(c.vertices[:-1], closed=True)):
            assert (c == other) is False and c != other
        assert c != "curve" and c.__eq__(c.vertices) is NotImplemented

    def test_signed_zero(self):
        # -0.0 == 0.0, so the two curves are equal and must hash alike
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = v.copy()
        w[0] = -0.0
        assert DiscreteCurve(v) == DiscreteCurve(w)
        assert hash(DiscreteCurve(v)) == hash(DiscreteCurve(w))


class TestLength:
    def test_unit_square(self):
        c = DiscreteCurve([[0, 0], [1, 0], [1, 1], [0, 1]], closed=True)
        assert length(c) == pytest.approx(4.0, abs=1e-15)

    def test_regular_ngon_chord_formula(self):
        for n in (3, 7, 64):
            c = regular_polygon(n)
            assert length(c) == pytest.approx(2 * n * math.sin(math.pi / n), rel=1e-14)

    def test_10000gon_close_to_circle(self):
        # series: 2pi - 2N sin(pi/N) = pi^3/(3 N^2) + O(N^-4) = 1.034e-7
        L = length(regular_polygon(10000))
        assert abs(L - TWO_PI) < 1.04e-7
        assert abs((TWO_PI - L) - math.pi**3 / 3e8) < 1e-12

    def test_open_vs_closed(self):
        v = [[0, 0], [1, 0], [1, 1]]
        assert length(DiscreteCurve(v, closed=False)) == pytest.approx(2.0)
        assert length(DiscreteCurve(v, closed=True)) == pytest.approx(2.0 + math.sqrt(2))

    def test_vertex_arclengths(self):
        c = DiscreteCurve([[0, 0], [3, 0], [3, 4]], closed=False)
        assert c.vertex_arclengths == pytest.approx([0.0, 3.0, 7.0])


class TestBendingEnergy:
    def test_straight_polyline_zero(self):
        x = np.linspace(0, 1, 17) ** 2
        c = DiscreteCurve(np.column_stack([x, np.zeros_like(x)]), closed=False)
        assert bending_energy(c) == 0.0

    def test_circle_4096(self):
        B = bending_energy(regular_polygon(4096))
        assert B == pytest.approx(TWO_PI, rel=1e-5)
        # exact discrete value is 2 pi^2 / (N sin(pi/N))
        assert B == pytest.approx(2 * math.pi**2 / (4096 * math.sin(math.pi / 4096)), rel=1e-13)

    def test_radius_scaling(self):
        # B[Lambda c] = B[c] / Lambda
        c1, c7 = regular_polygon(512), regular_polygon(512, radius=7.0)
        assert bending_energy(c7) == pytest.approx(bending_energy(c1) / 7.0, rel=1e-12)

    def test_two_fold_cover(self):
        c = regular_polygon(8192, folds=2)
        assert bending_energy(c) == pytest.approx(2 * TWO_PI, rel=1e-5)
        assert normalized_energy(c).Bbar == pytest.approx(16 * math.pi**2, rel=1e-6)

    def test_endpoints_carry_no_energy(self):
        # open L-shape: only the corner vertex contributes
        c = DiscreteCurve([[0, 0], [1, 0], [1, 1]], closed=False)
        theta = math.pi / 2
        assert bending_energy(c) == pytest.approx(2 * theta**2 / 2.0, rel=1e-14)


class TestNormalizedEnergy:
    def test_circle_hits_floor(self):
        rep = normalized_energy(regular_polygon(4096))
        assert rep.Bbar == pytest.approx(FOUR_PI_SQ, rel=1e-9)
        assert rep.Bbar == pytest.approx(rep.L * rep.B, rel=1e-15)

    def test_scale_invariance_exact(self):
        c = regular_polygon(600, folds=3)
        scaled = DiscreteCurve(7.0 * c.vertices, closed=True)
        assert normalized_energy(scaled).Bbar == pytest.approx(
            normalized_energy(c).Bbar, rel=1e-12
        )

    def test_isometry_invariance(self):
        rng = default_rng(7)
        c = random_closed(rng, 40)
        a = 0.83
        R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        moved = DiscreteCurve(c.vertices @ R.T + np.array([3.0, -1.5]), closed=True)
        r0, r1 = normalized_energy(c), normalized_energy(moved)
        assert r1.L == pytest.approx(r0.L, rel=1e-12)
        assert r1.B == pytest.approx(r0.B, rel=1e-12)
        assert r1.TC == pytest.approx(r0.TC, rel=1e-12)

    def test_report_formats(self):
        rep = normalized_energy(regular_polygon(64))
        import json

        parsed = json.loads(rep.to_json_line())
        assert parsed["Bbar"] == rep.Bbar
        assert set(parsed) == {"L", "B", "Bbar", "TC"}
        # one report, two spellings: the same keys in the same order, same
        # values; the second report's values need all 17 digits
        for r in (rep, EnergyReport(0.1 + 0.2, 1.0 + 2.0**-52, math.nextafter(math.pi, 4.0), 1e-300)):
            text = [line.split(" = ") for line in r.to_text().splitlines()]
            assert [(k, float(v)) for k, v in text] == list(json.loads(r.to_json_line()).items())


class TestTotalCurvature:
    def test_triangle(self):
        c = DiscreteCurve([[0, 0], [2, 0], [0.3, 1.1]], closed=True)
        assert total_curvature(c) == pytest.approx(TWO_PI, abs=1e-12)

    def test_circle_4096(self):
        assert total_curvature(regular_polygon(4096)) == pytest.approx(TWO_PI, abs=1e-10)

    def test_matches_abs_kappa_sum(self):
        rng = default_rng(3)
        c = random_closed(rng, 50)
        kappa, lbar, _ = curvature_data(c)
        assert total_curvature(c) == pytest.approx(np.sum(np.abs(kappa) * lbar), rel=1e-14)

    def test_signed_angles_planar_only(self):
        c = DiscreteCurve(np.eye(3), closed=True)
        with pytest.raises(DomainError):
            c.signed_turning_angles

    def test_signed_sum_counts_winding(self):
        for folds in (1, 2, 3):
            c = regular_polygon(1200, folds=folds)
            signed = c.signed_turning_angles
            assert np.sum(signed) == pytest.approx(TWO_PI * folds, abs=1e-9)


class TestFenchel:
    def test_circle_equality(self):
        rep = fenchel_floor_check(regular_polygon(4096))
        assert rep.passed
        assert rep.Bbar == pytest.approx(rep.TC**2, rel=1e-6)
        assert rep.TC == pytest.approx(TWO_PI, abs=1e-10)

    def test_jittered_circle_strict(self):
        rng = default_rng(11)
        for _ in range(20):
            th = np.sort(rng.uniform(0, TWO_PI, size=64))
            th = th[np.concatenate([[True], np.diff(th) > 1e-6])]
            r = 1.0 + 0.2 * rng.standard_normal(len(th))
            c = DiscreteCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]), closed=True)
            rep = fenchel_floor_check(c)
            assert rep.passed
            assert rep.Bbar > rep.TC**2

    def test_triangle_passes(self):
        rep = fenchel_floor_check(DiscreteCurve([[0, 0], [1, 0], [0.2, 0.5]], closed=True))
        assert rep.passed and rep.TC == pytest.approx(TWO_PI, abs=1e-12)
        # Bbar = (sum of weighted turning angles)^2-like; floor still holds
        assert rep.Bbar > FOUR_PI_SQ

    def test_open_curve_rejected(self):
        with pytest.raises(DomainError):
            fenchel_floor_check(DiscreteCurve([[0, 0], [1, 0], [1, 1]]))

    @given(st.integers(min_value=3, max_value=40), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz_property(self, n, seed):
        c = random_closed(default_rng(seed), n)
        rep = normalized_energy(c)
        assert rep.B * rep.L >= rep.TC**2 * (1.0 - 1e-12)


class TestConvergence:
    def test_circle_and_leaf_second_order(self):
        leaf = canonical_leaf()
        B_leaf = varpi_star() / leaf.length  # Bbar = L B with L = 2K
        cases = [
            (lambda n: regular_polygon(n), TWO_PI),
            (leaf_vertices, B_leaf),
        ]
        for build, exact in cases:
            errs = [abs(bending_energy(build(n)) - exact) / exact for n in (256, 512, 1024, 2048)]
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
            assert min(orders) >= 1.9


class TestResample:
    def test_regular_polygon_unchanged(self):
        c = regular_polygon(256)
        r = resample_arclength(c, 256)
        assert np.max(np.abs(r.vertices - c.vertices)) < 1e-12

    def test_geometric_line_made_uniform(self):
        x = np.concatenate([[0.0], np.cumsum(0.5 ** np.arange(9))])
        c = DiscreteCurve(np.column_stack([x, np.zeros_like(x)]), closed=False)
        r = resample_arclength(c, 12)
        gaps = np.diff(r.vertices[:, 0])
        assert np.allclose(gaps, gaps[0], atol=1e-12)
        assert r.vertices[0, 0] == c.vertices[0, 0]
        assert r.vertices[-1, 0] == c.vertices[-1, 0]

    def test_leaf_energy_stable_under_refinement(self):
        c = leaf_vertices(100)
        refined = resample_arclength(c, 300)
        B0, B1 = bending_energy(c), bending_energy(refined)
        assert abs(B1 - B0) / B0 < 1e-3

    def test_counts(self):
        c = regular_polygon(64)
        assert resample_arclength(c, 100).n_vertices == 100
        o = leaf_vertices(64)
        assert resample_arclength(o, 100).n_vertices == 101

    def test_needs_three(self):
        with pytest.raises(DomainError):
            resample_arclength(regular_polygon(16), 2)


class TestMultiplicity:
    def test_embedded_circle(self):
        rep = detect_multiplicity(regular_polygon(4096))
        assert rep.r == 1

    def test_two_fold_cover(self):
        rep = detect_multiplicity(regular_polygon(8192, folds=2))
        assert rep.r == 2
        assert len(rep.witnesses) == 2

    def test_witness_separation(self):
        c = regular_polygon(8192, folds=2)
        eps = 1e-3 * length(c)
        rep = detect_multiplicity(c, eps)
        w = sorted(rep.witnesses)
        assert w[1] - w[0] > 2 * eps  # at least one cluster diameter apart

    def test_eps_must_be_positive(self):
        with pytest.raises(DomainError):
            detect_multiplicity(regular_polygon(16), eps=0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_eps_must_be_finite(self, eps):
        with pytest.raises(DomainError):
            detect_multiplicity(regular_polygon(16), eps=eps)


def petal_curve(rng, r: int, n: int = 96) -> DiscreteCurve:
    # r circles through the origin, random radii and headings
    loops = []
    for _ in range(r):
        rho = rng.uniform(0.7, 1.5)
        phi = rng.uniform(0, TWO_PI)
        center = rho * np.array([math.cos(phi), math.sin(phi)])
        ang = phi + math.pi + TWO_PI * np.arange(n) / n
        loops.append(center + rho * np.column_stack([np.cos(ang), np.sin(ang)]))
    return DiscreteCurve(np.vstack(loops), closed=True)


class TestLiYau:
    def test_circle_falls_back_to_fenchel(self):
        rep = liyau_check(regular_polygon(4096))
        assert rep.r == 1
        assert rep.bound_kind == "fenchel"
        assert rep.bound == FOUR_PI_SQ
        assert rep.satisfied

    def test_double_cover_uses_r2_bound(self):
        rep = liyau_check(regular_polygon(8192, folds=2))
        assert rep.r == 2 and rep.bound_kind == "liyau"
        assert rep.bound == pytest.approx(4 * varpi_star(), rel=1e-15)
        assert rep.satisfied and rep.slack > 0

    def test_open_rejected(self):
        with pytest.raises(DomainError):
            liyau_check(leaf_vertices(32))

    def test_random_petal_curves_always_satisfy(self):
        # universal bound: 200 random curves forced through an r-fold point
        rng = default_rng(2024)
        for i in range(200):
            r = 2 + (i % 2)
            rep = liyau_check(petal_curve(rng, r))
            assert rep.r == r
            assert rep.bound_kind == "liyau"
            assert rep.satisfied and rep.slack > 0


def phased_eight(n: int, s0: float) -> DiscreteCurve:
    # the exact figure-eight at n equally spaced vertices, started at s0
    m = figure_eight_modulus()
    s = np.linspace(0.0, 4.0 * comp_K(m), n + 1)[:-1]
    x, y = eval_planar(PlanarElastica("wavelike", m=m, s0=s0), s)
    return DiscreteCurve(np.column_stack([x, y]), closed=True)


def posed(c: DiscreteCurve, seed: int, scale: float, shift: float) -> DiscreteCurve:
    # a random rotation (det +1), then scaling and a translation
    rng = default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(c.dim, c.dim)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return DiscreteCurve(scale * c.vertices @ q.T + shift * rng.normal(size=c.dim), closed=True)


# (leaf count, dimension): the planar figure-eight and double figure-eight,
# and the spatial 3- and 4-leafed propellers; r equals the leaf count
LEAFED = [(2, 2), (4, 2), (3, 3), (4, 3)]


GRAZING_EPS = 0.01


def grazing_pass(eps: float) -> DiscreteCurve:
    # the second lap runs at distance eps(1 + 0.1 sin) from the first, so
    # it leaves and re-enters the eps-ball every eps of arclength
    th = 4.0 * math.pi * np.arange(16384) / 16384
    rho = 1.0 + np.where(th >= 2.0 * math.pi, eps * (1.0 + 0.1 * np.sin(th * math.pi / eps)), 0.0)
    return DiscreteCurve(rho[:, None] * np.column_stack([np.cos(th), np.sin(th)]), closed=True)


class TestMultiplicityVisits:
    # phase in units of the vertex spacing; with the double point between
    # vertices no vertex lies within eps of the other strand
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("phase", [0.37, 0.5])
    def test_figure_eight_double_point_between_vertices(self, n, phase):
        c = phased_eight(n, phase * 4.0 * comp_K(figure_eight_modulus()) / n)
        assert detect_multiplicity(c).r == 2
        assert liyau_check(c).bound_kind == "liyau"

    def test_grazing_pass_counts_once(self):
        # gaps under 3 eps join the second lap's pieces into one visit
        assert detect_multiplicity(grazing_pass(GRAZING_EPS), GRAZING_EPS).r == 2


class TestMultiplicityInvariance:
    @settings(max_examples=30, deadline=None)
    @given(phase=st.floats(0.0, 1.0, exclude_max=True), npl=st.sampled_from([256, 1024, 4096]))
    def test_figure_eight_phase(self, phase, npl):
        rep = detect_multiplicity(phased_eight(2 * npl, phase * 4.0 * comp_K(figure_eight_modulus())))
        assert rep.r == 2 and len(rep.witnesses) == 2

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(LEAFED), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3), shift=st.floats(-1e2, 1e2))
    def test_rigid_motion_and_scaling(self, shape, seed, scale, shift):
        r, dim = shape
        c = posed(sample_leafed(build_leafed(r, dim), 256), seed, scale, shift)
        assert detect_multiplicity(c).r == r

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(LEAFED), start=st.integers(0, 4 * 256 - 1), reverse=st.booleans())
    def test_vertex_order(self, shape, start, reverse):
        r, dim = shape
        v = np.roll(sample_leafed(build_leafed(r, dim), 256).vertices, -start, axis=0)
        rep = detect_multiplicity(DiscreteCurve(v[::-1] if reverse else v, closed=True))
        assert rep.r == r and len(rep.witnesses) == r

    @pytest.mark.parametrize("npl", [256, 1024, 4096])
    @pytest.mark.parametrize("shape", LEAFED)
    def test_resampling(self, shape, npl):
        r, dim = shape
        assert detect_multiplicity(sample_leafed(build_leafed(r, dim), npl)).r == r


class TestMultiplicityReport:
    def test_eps_reported(self):
        c = regular_polygon(512, folds=2)
        assert detect_multiplicity(c).eps == pytest.approx(1e-3 * length(c), rel=1e-15)
        assert detect_multiplicity(c, eps=0.01).eps == 0.01

    def test_witnesses_lie_on_the_curve_near_the_point(self):
        c = sample_leafed(build_leafed(3, 3), 1024)
        rep = detect_multiplicity(c)
        s = np.append(c.vertex_arclengths, length(c))
        v = np.vstack([c.vertices, c.vertices[:1]])
        for w in rep.witnesses:
            x = [np.interp(w, s, v[:, k]) for k in range(3)]
            assert np.linalg.norm(x - rep.point) <= rep.eps * (1.0 + 1e-12)

    def test_liyau_json_explains_the_bound(self):
        one = json.loads(liyau_check(regular_polygon(4096)).to_json_line())
        assert list(one)[:6] == ["r", "Bbar", "bound", "satisfied", "slack", "bound_kind"]
        assert one["bound_reason"] == "no point visited twice within eps"
        assert one["eps"] == pytest.approx(2e-3 * math.pi, rel=1e-6)
        assert len(one["witnesses"]) == 1
        two = json.loads(liyau_check(regular_polygon(8192, folds=2)).to_json_line())
        assert two["bound_kind"] == "liyau"
        assert two["bound_reason"] == "a point visited 2 times within eps"
        assert len(two["witnesses"]) == 2


class TestCsv:
    def test_round_trip_closed(self, tmp_path):
        c = regular_polygon(17, folds=1, radius=0.9)
        path = tmp_path / "c.csv"
        save_curve_csv(c, path)
        back = load_curve_csv(path)
        assert back.closed
        assert np.array_equal(back.vertices, c.vertices)  # 17 sig digits round-trip

    def test_round_trip_open_3d(self):
        v = default_rng(0).normal(size=(9, 3))
        c = DiscreteCurve(v, closed=False)
        back = curve_from_csv(curve_to_csv(c))
        assert not back.closed and back.dim == 3
        assert np.array_equal(back.vertices, c.vertices)

    def test_marker_written(self):
        text = curve_to_csv(regular_polygon(5))
        assert text.splitlines()[0] == "# closed=true"
        assert text.splitlines()[1] == "s,x,y"

    def test_writer_prints_python_floats_as_numpy_scalars(self):
        # _csv formats Python floats; the reference formats the float64 scalars
        edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                -1.7976931348623157e308, 1.0, -3.0, 4096.0, 2.0**53, 1e22, 0.1, math.pi,
                math.inf, -math.inf, math.nan]
        rng = default_rng(4)
        wide = rng.standard_normal(4097) * 10.0 ** rng.integers(-300, 300, 4097)
        for cols in ([np.array(edge), np.array(edge[::-1])], [wide, wide[::-1], -wide, wide * 0.5]):
            rows = [",".join(f"{v:.17g}" for v in row) for row in zip(*cols)]
            assert _csv("h", *cols) == "\n".join(["h", *rows]) + "\n"

    def test_endpoint_coincidence_detected(self):
        # no marker: duplicated seam vertex implies a closed curve
        text = "s,x,y\n0,0,0\n1,1,0\n2,1,1\n3,0,1\n4,0,0\n"
        c = curve_from_csv(text)
        assert c.closed and c.n_vertices == 4

    def test_unmarked_open_stays_open(self):
        text = "s,x,y\n0,0,0\n1,1,0\n2,1,1\n"
        c = curve_from_csv(text)
        assert not c.closed

    def test_extra_columns_ignored(self):
        text = "# closed=false\ns,x,y,k\n0,0,0,1\n1,1,0,2\n2,1,1,3\n"
        c = curve_from_csv(text)
        assert c.n_vertices == 3 and c.dim == 2

    def test_parse_errors(self):
        for bad in (
            "x,y\n0,0\n1,1\n2,2\n",  # header must start with s,x,y
            "s,x,y\n0,0\n",  # column count mismatch
            "s,x,y\n0,zero,0\n1,1,0\n2,2,0\n",  # bad number
            "# closed=maybe\ns,x,y\n0,0,0\n1,1,0\n2,1,1\n",  # bad marker
            "# closed=true\n",  # no rows
        ):
            with pytest.raises(DomainError):
                curve_from_csv(bad)


class TestCurvatureData:
    def test_circle_signed_positive_ccw(self):
        kappa, lbar, s = curvature_data(regular_polygon(512), signed=True)
        assert np.all(kappa > 0)
        assert np.mean(kappa) == pytest.approx(1.0, rel=1e-4)
        assert np.sum(lbar) == pytest.approx(length(regular_polygon(512)), rel=1e-12)

    def test_open_interior_only(self):
        c = DiscreteCurve([[0, 0], [1, 0], [2, 0.1], [3, 0]], closed=False)
        kappa, lbar, s = curvature_data(c)
        assert len(kappa) == 2  # two interior vertices
        assert s[0] == pytest.approx(1.0)

    def test_edge_lengths_roll(self):
        c = DiscreteCurve([[0, 0], [2, 0], [2, 1]], closed=True)
        assert c.edge_lengths == pytest.approx([2.0, 1.0, math.sqrt(5)])


def assert_same_report(c: DiscreteCurve, eps=None):
    # every (point, edge) pair within eps and every MultiplicityReport
    # field, bit for bit, against the reference; the blocks may split
    # differently
    args = narrow_phase_args(c, eps)
    new, ref = (list(map(np.concatenate, zip(*f(*args)))) for f in (discrete._near_edges, reference_near_edges))
    assert [col.tobytes() for col in new] == [col.tobytes() for col in ref]
    new, ref = detect_multiplicity(c, eps), reference_detect_multiplicity(c, eps)
    assert (new.r, new.eps, new.witnesses) == (ref.r, ref.eps, ref.witnesses)
    assert new.point.tobytes() == ref.point.tobytes()
    assert np.array(new.witnesses).tobytes() == np.array(ref.witnesses).tobytes()
    return new


# the closed kinds of the exact_closed benchmark workload: (leaf count or
# covering number, dimension); a leaf count of 0 is the figure-eight
EXACT_CLOSED = {
    "figure_eight": (0, 2),
    "leafed2": (2, 2),
    "leafed4": (4, 2),
    "propeller3": (3, 3),
    "propeller4": (4, 3),
    "circle1": (1, 2),
    "circle2": (2, 2),
    "circle3": (3, 2),
}


def exact_closed_curve(kind: str, npl: int) -> DiscreteCurve:
    r, dim = EXACT_CLOSED[kind]
    if kind == "figure_eight":
        c = phased_eight(2 * npl, 0.3 * 4.0 * comp_K(figure_eight_modulus()))
    elif kind.startswith("circle"):
        c = regular_polygon(npl * r, folds=r)
    else:
        c = sample_leafed(build_leafed(r, dim), npl)
    return posed(c, seed=npl, scale=1.7, shift=0.5)


@st.composite
def polylines(draw):
    # random polylines in 2-D and 3-D, some traced up to three times with a
    # little noise so that points are visited more than twice
    dim, n, folds = draw(st.sampled_from([2, 3])), draw(st.integers(3, 40)), draw(st.integers(1, 3))
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 1e-3, 3e-2]))
    v = np.tile(rng.uniform(-1.0, 1.0, size=(n, dim)), (folds, 1))
    v += rng.normal(scale=noise, size=v.shape)
    return DiscreteCurve(v, closed=draw(st.booleans()))


class TestNarrowPhaseReference:
    """detect_multiplicity gives the reference implementation's report."""

    @settings(max_examples=200, deadline=None)
    @given(c=polylines(), frac=st.one_of(st.none(), st.floats(2e-3, 0.3)))
    def test_random_polylines(self, c, frac):
        eps = None if frac is None else frac * length(c)
        if c.closed and eps is not None and eps > length(c) / 6.0:
            with pytest.raises(DomainError):  # no two visits 3 eps apart on the circle
                detect_multiplicity(c, eps)
            return
        assert_same_report(c, eps)

    @pytest.mark.parametrize("npl", [256, 1024, 4096])
    @pytest.mark.parametrize("kind", list(EXACT_CLOSED))
    def test_exact_closed_kinds(self, kind, npl):
        r = EXACT_CLOSED[kind][0] or 2
        assert assert_same_report(exact_closed_curve(kind, npl)).r == r

    @pytest.mark.parametrize("n", [256, 512])
    def test_double_point_between_vertices(self, n):
        c = phased_eight(n, 0.37 * 4.0 * comp_K(figure_eight_modulus()) / n)
        assert assert_same_report(c).r == 2

    def test_grazing_pass(self):
        assert assert_same_report(grazing_pass(GRAZING_EPS), GRAZING_EPS).r == 2

    @pytest.mark.parametrize("block", [1, 1 << 20])
    def test_block_size_does_not_change_the_report(self, monkeypatch, block):
        cases = [(exact_closed_curve("leafed4", 256), None), (exact_closed_curve("propeller3", 256), None),
                 (grazing_pass(GRAZING_EPS), GRAZING_EPS), (petal_curve(default_rng(7), 3), 0.05)]
        want = [detect_multiplicity(c, eps) for c, eps in cases]
        monkeypatch.setattr(discrete, "_PAIR_BLOCK", block)
        for (c, eps), w in zip(cases, want):
            got = detect_multiplicity(c, eps)
            assert (got.r, got.witnesses, got.eps) == (w.r, w.witnesses, w.eps)
            assert got.point.tobytes() == w.point.tobytes()


# every float parameter of a function in discrete.__all__: the values of
# BAD_FLOATS that give a documented result, with its check; every other
# value must raise DomainError
FLOAT_CONTRACTS = {
    ("detect_multiplicity", "eps"): {},
    ("liyau_check", "eps"): {},
}


class TestInputContracts:
    def test_table_covers_every_float_parameter(self):
        # the report classes are outputs; DiscreteCurve's floats are its
        # vertices, checked below
        found = {
            (name, par.name)
            for name in discrete.__all__
            if inspect.isfunction(obj := getattr(discrete, name))
            for par in inspect.signature(obj).parameters.values()
            if "float" in str(par.annotation)
        }
        assert found == set(FLOAT_CONTRACTS)

    @pytest.mark.parametrize("value", BAD_FLOATS, ids=str)
    @pytest.mark.parametrize("fn,param", list(FLOAT_CONTRACTS), ids=[".".join(k) for k in FLOAT_CONTRACTS])
    def test_float_parameter(self, fn, param, value):
        c = sample_leafed(build_leafed(2, 2), 256)
        check = FLOAT_CONTRACTS[(fn, param)].get(value)
        if check is None:
            with pytest.raises(DomainError):
                getattr(discrete, fn)(c, **{param: value})
        else:
            check(getattr(discrete, fn)(c, **{param: value}))

    @pytest.mark.parametrize("value", BAD_FLOATS, ids=str)
    def test_vertex_coordinate(self, value):
        # through the constructor and through a CSV cell
        rows = [[0.0, 0.0], [1.0, 0.0], [2.0, value], [0.0, 1.0]]
        text = "s,x,y\n" + "".join(f"{i},{x},{y}\n" for i, (x, y) in enumerate(rows))
        if math.isfinite(value):
            assert math.isfinite(length(DiscreteCurve(rows, closed=True)))
            assert math.isfinite(length(curve_from_csv(text)))
            return
        with pytest.raises(DomainError):
            DiscreteCurve(rows, closed=True)
        with pytest.raises(DomainError):
            curve_from_csv(text)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e307])
    def test_overflowing_edges_rejected(self, scale):
        # finite vertices whose edge lengths or total length overflow; a
        # RuntimeWarning fails the suite, so the check must emit none
        with pytest.raises(DomainError):
            DiscreteCurve(scale * regular_polygon(4096).vertices, closed=True)
        with pytest.raises(DomainError):
            DiscreteCurve([[-scale, 0.0], [scale, 0.0], [0.0, 1.0]], closed=False)

    @pytest.mark.parametrize("frac", [5e-324, 1e-14, 5e-6, 2.0**-15 * (1.0 - 2.0**-52)])
    def test_eps_below_the_sampling_floor(self, frac):
        # below 2L / 2^16 the 2^16 sample cap would leave crossings more than
        # eps/4 from every sample: a 4096-gon read as doubly covered, and
        # figure-eights whose double point was missed
        for c in (regular_polygon(4096), phased_eight(512, 0.37 * 4.0 * comp_K(figure_eight_modulus()) / 512)):
            with pytest.raises(DomainError):
                detect_multiplicity(c, frac * length(c))
            with pytest.raises(DomainError):
                liyau_check(c, eps=frac * length(c))

    @pytest.mark.parametrize("frac", [0.17, 1.0, 1e300])
    def test_eps_above_a_sixth_of_the_length(self, frac):
        # visits more than 3 eps apart need more than 6 eps of arclength: a
        # larger eps would read the 4-leafed curve as visited once
        c = sample_leafed(build_leafed(4, 2), 256)
        with pytest.raises(DomainError):
            detect_multiplicity(c, frac * length(c))
        with pytest.raises(DomainError):
            liyau_check(c, eps=frac * length(c))
        assert detect_multiplicity(c, length(c) / 6.0).eps == length(c) / 6.0

    @pytest.mark.parametrize("frac", [0.34, 1.0, 1e300])
    def test_eps_above_a_third_of_an_open_length(self, frac):
        # an open curve's arclength does not wrap: its two ends lie L apart,
        # so eps up to L / 3 is valid and above it an input error
        c = DiscreteCurve(sample_leafed(build_leafed(4, 2), 256).vertices, closed=False)
        with pytest.raises(DomainError):
            detect_multiplicity(c, frac * length(c))
        assert detect_multiplicity(c, 0.3 * length(c)).eps == 0.3 * length(c)
        assert detect_multiplicity(c, length(c) / 3.0).eps == length(c) / 3.0

    def test_eps_at_the_sampling_floor(self):
        c = regular_polygon(1024, folds=2)
        rep = detect_multiplicity(c, 2.0 * length(c) / 2**16)
        assert rep.r == 2 and rep.eps == 2.0 * length(c) / 2**16


# every query of a curve, as bytes or text: (name, applies to the curve, call)
QUERIES = [
    ("normalized_energy", lambda c: True, lambda c: normalized_energy(c).to_json_line()),
    ("turning_angles", lambda c: True, lambda c: c.turning_angles.tobytes()),
    ("signed_turning_angles", lambda c: c.dim == 2, lambda c: c.signed_turning_angles.tobytes()),
    ("curvature_data", lambda c: True, lambda c: [a.tobytes() for a in curvature_data(c)]),
    ("signed_curvature_data", lambda c: c.dim == 2,
     lambda c: [a.tobytes() for a in curvature_data(c, signed=True)]),
    ("vertex_arclengths", lambda c: True, lambda c: c.vertex_arclengths.tobytes()),
    ("curve_to_csv", lambda c: True, curve_to_csv),
    ("detect_multiplicity", lambda c: True,
     lambda c: (lambda r: (r.r, r.witnesses, r.eps, r.point.tobytes()))(detect_multiplicity(c))),
    ("liyau_check", lambda c: c.closed, lambda c: liyau_check(c).to_json_line()),
    ("fenchel_floor_check", lambda c: c.closed, lambda c: repr(fenchel_floor_check(c))),
    ("classify_closed", lambda c: c.closed and c.dim == 2, lambda c: repr(classify_closed(c))),
]


def answer_all(c: DiscreteCurve, order=1) -> dict:
    return {name: call(c) for name, applies, call in QUERIES[::order] if applies(c)}


# random polylines in 2-D and 3-D, open and closed, the open leaf, an open
# spatial elastica, and every exact_closed kind
CACHE_CASES = ["2d-open", "2d-closed", "3d-open", "3d-closed", "leaf", "spatial"] + list(EXACT_CLOSED)


def cache_case(case: str) -> DiscreteCurve:
    if case in EXACT_CLOSED:
        return exact_closed_curve(case, 256)
    if case == "leaf":
        return leaf_vertices(256)
    if case == "spatial":
        return reconstruct_spatial(CurvatureProfile(0.2, 0.6, 1.5), np.eye(3), (0.0, 6.0), 1e-2)
    return DiscreteCurve(default_rng(17).normal(size=(40, int(case[0]))), case.endswith("closed"))


class TestCachedGeometry:
    """Turning angles and vertex arclengths are computed once per curve: no
    query may read differently on a curve that has answered the others."""

    @pytest.mark.parametrize("case", CACHE_CASES)
    def test_answers_do_not_depend_on_what_was_asked_before(self, case):
        c = cache_case(case)
        fresh = {q: call(DiscreteCurve(c.vertices, c.closed)) for q, applies, call in QUERIES if applies(c)}
        assert answer_all(c) == fresh
        assert answer_all(c, order=-1) == fresh  # each query after every other one

    @pytest.mark.parametrize("case", CACHE_CASES)
    def test_cached_arrays_are_shared_and_read_only(self, case):
        c = cache_case(case)
        answer_all(c)
        cached = [(c.turning_angles, lambda: c.turning_angles),
                  (c.vertex_arclengths, lambda: c.vertex_arclengths)]
        if c.dim == 2:
            cached.append((c.signed_turning_angles, lambda: c.signed_turning_angles))
        else:
            with pytest.raises(DomainError):
                c.signed_turning_angles
        for arr, again in cached:
            assert again() is arr
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr += 1.0

    def test_pickled_curve_is_rebuilt(self):
        # a curve sent to a worker process and back: read-only, no cache
        # carried along, and every answer byte-identical
        for c in map(cache_case, CACHE_CASES):
            want = answer_all(c)
            back = pickle.loads(pickle.dumps(c))
            assert set(vars(back)) == {"vertices", "closed", "edges", "edge_lengths"}
            assert not any(arr.flags.writeable for arr in (back.vertices, back.edges, back.edge_lengths))
            assert back.vertices.tobytes() == c.vertices.tobytes() and answer_all(back) == want

    def test_cache_dies_with_its_curve(self):
        for c in map(cache_case, CACHE_CASES):
            answer_all(c)
            arrays = [c.turning_angles, c.vertex_arclengths]
            if c.dim == 2:
                arrays.append(c.signed_turning_angles)
            refs = [weakref.ref(a) for a in arrays]
            del c, arrays
            gc.collect()
            assert all(r() is None for r in refs)


def signed_zero_vertices(rng, n: int, dim: int) -> np.ndarray:
    # coordinates from {-1, -0, +0, 1}: edges with signed zero components;
    # rows equal to their predecessor (a zero-length edge) are dropped
    v = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(n, dim))
    keep = np.r_[True, np.any(v[1:] != v[:-1], axis=1)]
    return v[keep]


def wide_rows(rng, n: int, dim: int) -> np.ndarray:
    return rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-160.0, 50.0, (n, 1))


class TestCoordinateRowKernels:
    """Edge lengths and the 3-D cross product run on coordinate rows; they
    must equal the np.linalg.norm / np.cross forms bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_edge_lengths_are_linalg_norm(self, dim, seed):
        rng = default_rng(seed)
        for v in (wide_rows(rng, 2048, dim), signed_zero_vertices(rng, 2048, dim)):
            c = DiscreteCurve(v, closed=False)
            assert c.edge_lengths.tobytes() == np.linalg.norm(c.edges, axis=1).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
    def test_row_norms_are_linalg_norm(self, dim, scale):
        # the one row-norm kernel (edge lengths, the minimizer, the CLI's
        # kappa column), also on a strided view such as a trajectory's d2
        rng = default_rng(dim)
        X = rng.normal(size=(4096, dim)) * scale
        strided = np.stack([X, -X], axis=1)[:, 1, :]
        for A in (X, strided, signed_zero_vertices(rng, 512, dim)):
            assert discrete._row_norms(A).tobytes() == np.linalg.norm(A, axis=1).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_norm_is_linalg_norm(self, seed):
        rng = default_rng(seed)
        zeros = [signed_zero_vertices(rng, 4096, 3)[:1024] for _ in range(2)]
        for a, b in [(wide_rows(rng, 2048, 3), wide_rows(rng, 2048, 3)), zeros]:
            theta, d, n = discrete._turn(a, b)
            want = np.linalg.norm(np.cross(a, b), axis=1)
            assert n.tobytes() == want.tobytes()
            assert theta.tobytes() == np.arctan2(want, np.einsum("ij,ij->i", a, b)).tobytes()

    def test_turn_ratio_at_tiny_sines(self):
        # theta / n where n > 1e-300, else 1: the values of the masked
        # division, with no division by zero (or overflow, 0.5 / 5e-324)
        # left to warn about
        n = np.repeat([0.0, 5e-324, 1e-300, 2e-300], 3)
        theta = np.tile([0.0, 1e-300, 0.5], 4)
        with np.errstate(all="ignore"):
            want = np.where(n > 1e-300, theta / n, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = discrete._turn_ratio(theta, n)
        assert got.tobytes() == want.tobytes()
        assert got.tolist() == [1.0] * 9 + [0.0, 0.5, 0.5 / 2e-300]

    @pytest.mark.parametrize("closed", [False, True])
    def test_planar_angles_are_the_unsigned_kernel(self, closed):
        # |signed angle| is the unsigned angle bit for bit, signed zeros included
        rng = default_rng(4)
        for v in (rng.normal(size=(512, 2)), signed_zero_vertices(rng, 2048, 2)):
            c = DiscreteCurve(v, closed=closed and np.any(v[0] != v[-1]))
            a, b = discrete._pairs(c, c.edges)
            assert c.turning_angles.tobytes() == discrete._turn(a, b)[0].tobytes()
