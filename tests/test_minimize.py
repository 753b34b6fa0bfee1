"""Constrained bending-energy minimization: gradient, descent, multiplier."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy.spatial import cKDTree

import elastica.minimize as minimize
from elastica.curves import canonical_leaf, eval_planar, figure_eight_modulus, varpi_star
from elastica.discrete import DiscreteCurve, _pairs, bending_energy, curvature_data
from elastica.elliptic import cn, comp_E, comp_K
from elastica.errors import DomainError
from elastica.minimize import (
    ClampedProblem,
    MinimizeOptions,
    PinnedProblem,
    energy_gradient,
    minimize_clamped,
    minimize_pinned,
)
from elastica.minimize import (
    _CLOSURE_TOL,
    _TOL_PER_EDGE,
    _band_kkt,
    _close,
    _closure_floor,
    _cross,
    _residual,
    _rounding_bound,
    _tri_kkt,
)

from band_reference import _band_solve as reference_band_solve
from input_contracts import BAD_FLOATS, check_contract, contract_cases, float_parameters
from leaf_minimality import verify_leaf_minimality

EX = np.array([1.0, 0.0])
EY = np.array([0.0, 1.0])


def circle_polygon(n: int, radius: float = 1.0) -> DiscreteCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    return DiscreteCurve(radius * np.column_stack([np.cos(th), np.sin(th)]), closed=True)


def fd_gradient(c: DiscreteCurve, eps: float = 1e-6) -> np.ndarray:
    V = c.vertices
    out = np.zeros_like(V)
    for i in range(V.shape[0]):
        for j in range(V.shape[1]):
            Vp, Vm = V.copy(), V.copy()
            Vp[i, j] += eps
            Vm[i, j] -= eps
            out[i, j] = (
                bending_energy(DiscreteCurve(Vp, closed=c.closed))
                - bending_energy(DiscreteCurve(Vm, closed=c.closed))
            ) / (2.0 * eps)
    return out


def reference_energy_gradient(c: DiscreteCurve) -> np.ndarray:
    """The expanded-algebra gradient that energy_gradient replaced, kept as
    a reference: 2-D edges padded to 3-D, grad(theta^2) from the atan2 form
    of theta written out in the raw edges u, w, scattered with np.add.at."""
    e = c.edges
    if c.dim == 2:
        e = np.column_stack([e, np.zeros(len(e))])
    u, w = _pairs(c, e)
    a, b = _pairs(c, c.edge_lengths)
    nv = c.n_vertices
    iw = np.arange(nv) if c.closed else np.arange(1, nv - 1)
    iu, iwn = iw - 1, (iw + 1) % nv
    d = np.einsum("ij,ij->i", u, w)
    n = np.linalg.norm(np.cross(u, w), axis=1)
    theta = np.arctan2(n, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(n > 1e-300, theta / np.where(n > 1e-300, n, 1.0), 1.0 / (a * b))
    ab2 = (a * b) ** 2
    g_u = (2.0 / ab2)[:, None] * (
        (ratio * d)[:, None] * (b**2)[:, None] * u
        - (ratio * d * d)[:, None] * w
        - (theta * n)[:, None] * w
    )
    g_w = (2.0 / ab2)[:, None] * (
        (ratio * d)[:, None] * (a**2)[:, None] * w
        - (ratio * d * d)[:, None] * u
        - (theta * n)[:, None] * u
    )
    flat = (n == 0.0) & (d > 0.0)
    g_u[flat] = 0.0
    g_w[flat] = 0.0
    apb = a + b
    th2 = theta * theta
    fu = (2.0 / apb)[:, None] * g_u - (2.0 * th2 / (apb**2 * a))[:, None] * u
    fw = (2.0 / apb)[:, None] * g_w - (2.0 * th2 / (apb**2 * b))[:, None] * w
    grad = np.zeros((nv, 3))
    np.add.at(grad, iu, -fu)
    np.add.at(grad, iw, fu - fw)
    np.add.at(grad, iwn, fw)
    return grad[:, : c.dim]


def hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    return max(cKDTree(A).query(B)[0].max(), cKDTree(B).query(A)[0].max())


def dense_grad_norm(c: DiscreteCurve) -> float:
    """grad_norm of a pinned chain of equal edges, densely: L0 |P (G - nu)|.

    Edge i moves every vertex after it, so B's gradient in its tangent T_i
    is G_i = h sum_{j > i} (vertex gradient)_j; P_i = I - T_i T_i^T keeps
    its part on the sphere.  Closure, sum(T) = const, moves T_i by P_i, so
    the closure multiplier nu is the least-squares fit of the stacked
    P_i G_i by the stacked P_i; the norm needs no frame of the tangents.
    """
    h = c.edge_lengths
    T = c.edges / h[:, None]
    G = h[:, None] * np.cumsum(energy_gradient(c)[:0:-1], axis=0)[::-1]
    P = np.eye(c.dim) - T[:, :, None] * T[:, None, :]
    M = P.reshape(-1, c.dim)
    PG = np.einsum("ijk,ik->ij", P, G).ravel()
    nu = np.linalg.lstsq(M, PG, rcond=None)[0]
    return float(np.linalg.norm(PG - M @ nu) * np.sum(h))


def rotate_to_match(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rotate B about the origin so its centroid direction matches A's.

    Adequate as a congruence fit for leaf-shaped curves pinned at the
    origin: the only residual freedom is this one rotation (the leaf's
    mirror symmetry makes reflections redundant).
    """
    a = math.atan2(*A.mean(axis=0)[::-1])
    b = math.atan2(*B.mean(axis=0)[::-1])
    t = a - b
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return B @ R.T


class TestEnergyGradient:
    def test_straight_polyline_zero(self):
        c = DiscreteCurve(np.linspace(0.0, 1.0, 21)[:, None] * EX)
        assert np.max(np.abs(energy_gradient(c))) == 0.0
        # off-axis line: turning angles only vanish to rounding, and the
        # h^-2 scale of the gradient amplifies that floor
        tilted = DiscreteCurve(np.linspace(0.0, 1.0, 21)[:, None] * np.array([0.6, 0.8]))
        assert np.max(np.abs(energy_gradient(tilted))) < 1e-10

    def test_circle_tangential_direction_is_flat(self):
        # reparametrization invariance: sliding vertices along the circle
        # does not change the energy to first order
        c = circle_polygon(64)
        eta = np.column_stack([-c.vertices[:, 1], c.vertices[:, 0]])
        analytic = float(np.sum(energy_gradient(c) * eta))
        eps = 1e-6
        Bp = bending_energy(DiscreteCurve(c.vertices + eps * eta, closed=True))
        Bm = bending_energy(DiscreteCurve(c.vertices - eps * eta, closed=True))
        fd = (Bp - Bm) / (2.0 * eps)
        assert abs(fd) < 1e-6
        assert abs(analytic) < 1e-6

    def test_random_closed_32gon_matches_fd(self):
        c = DiscreteCurve(default_rng(3).normal(size=(32, 2)), closed=True)
        G = energy_gradient(c)
        F = fd_gradient(c)
        assert np.max(np.abs(G - F)) / np.max(np.abs(F)) < 1e-5

    def test_random_open_3d_matches_fd(self):
        rng = default_rng(11)
        c = DiscreteCurve(np.cumsum(rng.normal(size=(20, 3)), axis=0), closed=False)
        G = energy_gradient(c)
        F = fd_gradient(c)
        assert np.max(np.abs(G - F)) / np.max(np.abs(F)) < 1e-5

    @given(st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_dilation_scaling(self, lam, seed):
        # B(lam X) = B(X)/lam, so the gradient picks up 1/lam^2
        V = default_rng(seed).normal(size=(16, 2))
        g1 = energy_gradient(DiscreteCurve(V, closed=True))
        g2 = energy_gradient(DiscreteCurve(lam * V, closed=True))
        assert np.allclose(g2, g1 / lam**2, rtol=1e-9, atol=1e-12 * np.max(np.abs(g1)))

    def test_rotation_equivariance(self):
        V = default_rng(5).normal(size=(24, 2))
        t = 0.7
        R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        g = energy_gradient(DiscreteCurve(V, closed=True))
        gR = energy_gradient(DiscreteCurve(V @ R.T, closed=True))
        assert np.allclose(gR, g @ R.T, rtol=1e-10, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 64), dim=st.sampled_from([2, 3]),
           closed=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_expanded_reference(self, seed, n, dim, closed):
        c = DiscreteCurve(default_rng(seed).normal(size=(n, dim)), closed=closed)
        g, ref = energy_gradient(c), reference_energy_gradient(c)
        assert g.shape == ref.shape
        assert np.max(np.abs(g - ref)) <= 1e-9 * np.max(np.abs(ref))


class TestProblemValidation:
    def test_pinned_rejects_far_endpoints(self):
        with pytest.raises(DomainError):
            PinnedProblem(np.zeros(2), 2.0 * EX, 1.0, 16)
        with pytest.raises(DomainError):  # equality is infeasible too (no slack)
            PinnedProblem(np.zeros(2), EX, 1.0, 16)

    def test_pinned_rejects_small_N(self):
        with pytest.raises(DomainError):
            PinnedProblem(np.zeros(2), 0.5 * EX, 1.0, 7)

    def test_pinned_rejects_bad_length(self):
        with pytest.raises(DomainError):
            PinnedProblem(np.zeros(2), 0.5 * EX, 0.0, 16)

    def test_pinned_rejects_mixed_dims(self):
        with pytest.raises(DomainError):
            PinnedProblem(np.zeros(2), np.zeros(3), 1.0, 16)
        with pytest.raises(DomainError):
            PinnedProblem(np.zeros(4), np.zeros(4), 1.0, 16)

    def test_pinned_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PinnedProblem(np.array([np.nan, 0.0]), 0.5 * EX, 1.0, 16)

    def test_clamped_rejects_non_unit_tangent(self):
        with pytest.raises(DomainError):
            ClampedProblem(np.zeros(2), 0.5 * EX, 1.0, 16, 2.0 * EX, EX)

    @pytest.mark.parametrize("V0", [[math.nan, 0.0], [0.0, math.nan], [math.nan, math.nan]])
    def test_clamped_rejects_nan_tangent(self, V0):
        # NaN passes |norm - 1| > 1e-9; the solve then failed to close the arc
        with pytest.raises(DomainError):
            ClampedProblem([0.0, 0.0], [0.3, 0.0], 1.0, 32, V0, [1.0, 0.0])

    @pytest.mark.parametrize("N", [8.5, 16.0, np.float64(16.0), "16"], ids=repr)
    def test_problems_reject_non_integer_N(self, N):
        with pytest.raises(DomainError):
            PinnedProblem(np.zeros(2), 0.5 * EX, 1.0, N)
        with pytest.raises(DomainError):
            ClampedProblem(np.zeros(2), 0.5 * EX, 1.0, N, EY, EY)

    def test_problems_reject_N_above_the_cap(self):
        # the arc start of 10^13 edges would not fit in memory
        with pytest.raises(DomainError, match="cap"):
            PinnedProblem(np.zeros(2), 0.5 * EX, 1.0, 10**13)
        with pytest.raises(DomainError, match="cap"):
            ClampedProblem(np.zeros(2), 0.5 * EX, 1.0, 10**13, EY, EY)

    @pytest.mark.parametrize("P0, P1, L0", [
        ([0.0, 0.0], [0.5, 0.0], 1e308), ([1e300, 0.0], [-1e300, 0.0], 1.0),
        ([0.0, 0.0], [0.0, 0.0], 1e-300), ([0.0, 0.0], [0.0, 0.0], 16 * 2.0**-241),
        ([2.0**511, 0.0], [2.0**511, 0.5], 1.0),
    ])
    def test_problems_reject_scales_outside_the_floats(self, P0, P1, L0):
        # squared lengths, or the vertex gradient ~ 1/h^2, overflowed there
        with pytest.raises(DomainError, match="scale"):
            PinnedProblem(P0, P1, L0, 16)
        with pytest.raises(DomainError, match="scale"):
            ClampedProblem(P0, P1, L0, 16, EY, -EY)

    @pytest.mark.parametrize("L0", [16 * 2.0**-240, 2.0**510])
    def test_problems_at_the_scale_bounds_solve(self, L0):
        # a RuntimeWarning (an overflow) fails the suite
        r = minimize_pinned(PinnedProblem(np.zeros(2), 0.5 * L0 * EX, L0, 16))
        assert math.isfinite(r.Bbar) and math.isfinite(r.lambda_est)
        r = minimize_clamped(ClampedProblem(np.zeros(2), np.zeros(2), L0, 16, EY, -EY))
        assert math.isfinite(r.Bbar) and math.isfinite(r.lambda_est)

    def test_clamped_rejects_taut_non_collinear(self):
        # |P0 - P1| = L0 with a tangent off the chord: no curve exists
        with pytest.raises(DomainError):
            ClampedProblem(np.zeros(2), EX, 1.0, 16, EY, EX)

    def test_clamped_accepts_taut_collinear(self):
        p = ClampedProblem(np.zeros(2), EX, 1.0, 16, EX, EX)
        assert p.is_taut

    def test_clamped_rejects_overlong_chord(self):
        with pytest.raises(DomainError):
            ClampedProblem(np.zeros(2), 1.5 * EX, 1.0, 16, EX, EX)

    def test_clamped_rejects_unreachable_inner_span(self):
        # first/last edges point away from each other; the N-2 inner edges
        # cannot bridge the remaining gap
        with pytest.raises(DomainError):
            ClampedProblem(np.zeros(2), 0.9 * EX, 1.0, 8, -EX, EX)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_options_reject_bad_tol(self, tol):
        with pytest.raises(DomainError):
            MinimizeOptions(tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -1, 1.5, math.nan])
    def test_options_reject_bad_budget(self, max_iters):
        with pytest.raises(DomainError):
            MinimizeOptions(max_iters=max_iters)

    @pytest.mark.parametrize("seed", [1.5, -1, math.nan, "3"], ids=repr)
    def test_options_reject_bad_seed(self, seed):
        with pytest.raises(DomainError):
            MinimizeOptions(seed=seed)

    def test_options_accept_valid_values(self):
        assert MinimizeOptions(tol=None, max_iters=1).max_iters == 1
        assert MinimizeOptions(tol=1e-3, max_iters=np.int64(5)).tol == 1e-3
        assert MinimizeOptions(seed=0).seed == 0
        assert MinimizeOptions(seed=np.int64(7)).seed == 7


@pytest.fixture(scope="module")
def leaf_result():
    p = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 200)
    return minimize_pinned(p, MinimizeOptions(max_iters=3000))


@pytest.fixture(scope="module")
def teardrop_result():
    p = ClampedProblem(np.zeros(2), np.zeros(2), 1.0, 200, EY, -EY)
    return minimize_clamped(p, MinimizeOptions(max_iters=3000))


def stalling_arch() -> ClampedProblem:
    V0 = np.array([0.37389661194311186, 0.9274703895960571])
    V1 = np.array([0.37389661194311186, -0.9274703895960571])
    return ClampedProblem(np.zeros(2), 0.2622612116383645 * EX, 1.0, 200, V0, V1)


class TestPinnedLeaf:
    def test_converges(self, leaf_result):
        assert leaf_result.converged
        assert leaf_result.grad_norm < _TOL_PER_EDGE * 200

    def test_energy_within_one_percent_of_leaf_constant(self, leaf_result):
        assert abs(leaf_result.Bbar / varpi_star() - 1.0) < 0.01

    def test_natural_boundary_condition(self, leaf_result):
        kappa, _, _ = curvature_data(leaf_result.curve, signed=True)
        assert max(abs(kappa[0]), abs(kappa[-1])) <= 5e-2 * np.max(np.abs(kappa))

    def test_multiplier_matches_scaled_figure_eight(self, leaf_result):
        m = figure_eight_modulus()
        target = 2.0 * (2.0 * m - 1.0) * (2.0 * comp_K(m)) ** 2  # lam / Lambda^2
        assert abs(leaf_result.lambda_est / target - 1.0) < 0.02

    def test_congruent_to_canonical_leaf(self, leaf_result):
        leaf = canonical_leaf()
        P = np.column_stack(eval_planar(leaf.elastica, np.linspace(0.0, leaf.length, 801))) / leaf.length
        V = leaf_result.curve.vertices
        assert hausdorff(V, rotate_to_match(V, P)) < 1e-2

    def test_seeded_runs_land_on_congruent_curves(self, leaf_result):
        p = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 200)
        V0 = leaf_result.curve.vertices
        for seed in (0, 1):
            r = minimize_pinned(p, MinimizeOptions(seed=seed, max_iters=3000))
            assert r.converged
            assert hausdorff(V0, rotate_to_match(V0, r.curve.vertices)) < 1e-2

    def test_constraints_at_solution(self, leaf_result):
        c = leaf_result.curve
        h = 1.0 / 200
        assert np.max(np.abs(c.edge_lengths - h)) / h <= 1e-10
        assert np.array_equal(c.vertices[0], np.zeros(2))
        assert np.array_equal(c.vertices[-1], np.zeros(2))

    def test_log_schema_and_descent(self, leaf_result):
        log = leaf_result.log
        assert len(log) > 0
        assert [row["iteration"] for row in log] == list(range(len(log)))
        by_level: dict[int, list[float]] = {}
        for row in log:
            assert set(row) == {"iteration", "B", "grad_norm", "max_constraint_residual", "N",
                                "t", "direction", "backtracks", "closure_steps"}
            assert row["max_constraint_residual"] <= 1e-10
            by_level.setdefault(row["N"], []).append(row["B"])
        # each row but the last records the step accepted from its iterate
        for row in log[:-1]:
            assert row["direction"] in ("newton", "laplacian")
            assert 0.0 < row["t"] <= 1.0
        assert log[-1]["t"] is None and log[-1]["direction"] is None
        assert log[-1]["backtracks"] == 0 and log[-1]["closure_steps"] == 0
        # energy never increases along the solve (terminal polish may wiggle
        # at roundoff scale)
        for Bs in by_level.values():
            slack = 1e-9 * max(1.0, abs(Bs[0]))
            assert all(b1 - b0 <= slack for b0, b1 in zip(Bs, Bs[1:]))

    def test_deterministic_given_seed(self):
        p = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 120)
        a = minimize_pinned(p, MinimizeOptions(seed=7))
        b = minimize_pinned(p, MinimizeOptions(seed=7))
        assert np.array_equal(a.curve.vertices, b.curve.vertices)
        assert a.Bbar == b.Bbar

    def test_saddle_flag_untouched_on_plain_run(self, leaf_result):
        assert leaf_result.saddle_perturbed is False


class TestPinnedOther:
    def test_nearly_straight_energy_decreases(self):
        vals = []
        for d in (0.99, 0.999, 0.9999):
            r = minimize_pinned(
                PinnedProblem(np.zeros(2), d * EX, 1.0, 100), MinimizeOptions(max_iters=2000)
            )
            assert r.converged
            vals.append(r.Bbar)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.01

    def test_one_arch_matches_wavelike_profile(self):
        # boundary data of a single wavelike arch at modulus m: the pinned
        # minimizer must reproduce kappa(s) = 2 sqrt(m) cn(s - K) up to scale
        m = 0.4
        K, E = comp_K(m), comp_E(m)
        Lc = 2.0 * K
        chord = (4.0 * E - 2.0 * K) / Lc
        r = minimize_pinned(
            PinnedProblem(np.zeros(2), chord * EX, 1.0, 200), MinimizeOptions(max_iters=3000)
        )
        assert r.converged
        kappa, _, s = curvature_data(r.curve, signed=True)
        pred = 2.0 * math.sqrt(m) * Lc * np.array([cn(x * Lc - K, m) for x in s])
        rel = np.max(np.abs(np.abs(kappa) - np.abs(pred))) / np.max(np.abs(pred))
        assert rel < 1e-2
        # single hump: no interior sign change where curvature is material
        body = kappa[np.abs(kappa) > 0.1 * np.max(np.abs(kappa))]
        assert np.all(np.sign(body) == np.sign(body[0]))

    def test_exhausted_budget_reports_non_convergence(self):
        r = minimize_pinned(
            PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 64), MinimizeOptions(max_iters=2)
        )
        assert not r.converged
        assert r.grad_norm >= _TOL_PER_EDGE * 64

    def test_3d_pinned_converges(self):
        p = PinnedProblem(np.zeros(3), np.array([0.3, 0.2, 0.1]), 1.0, 64)
        r = minimize_pinned(p, MinimizeOptions(max_iters=2000))
        assert r.converged
        # the minimizer is planar: lam is that of the same chord in the plane
        r2 = minimize_pinned(PinnedProblem(np.zeros(2), np.linalg.norm(p.P1) * EX, 1.0, 64),
                             MinimizeOptions(max_iters=2000))
        assert r.lambda_est == pytest.approx(r2.lambda_est, rel=1e-12)

    def test_3d_chord_converges_to_planar_energy(self):
        # without a quasi-Newton candidate in 3-D this chord exhausted 2000
        # iterations at grad ~2.6e-4; the minimizer is planar, so the 3-D
        # solve must land on the energy of the same chord solved in the plane
        d = 0.462 * np.array([1.0, 2.0, 2.0]) / 3.0
        r3 = minimize_pinned(PinnedProblem(np.zeros(3), d, 1.0, 100))
        r2 = minimize_pinned(PinnedProblem(np.zeros(2), 0.462 * EX, 1.0, 100))
        assert r3.converged and r2.converged
        assert r3.iterations < 200
        assert r3.B == pytest.approx(r2.B, rel=1e-10)
        assert r3.B == pytest.approx(12.4266241906, rel=1e-10)
        assert np.max(np.abs(r3.curve.edge_lengths - 0.01)) <= 1e-12

    @pytest.mark.parametrize("P1", [0.4 * EX, np.array([0.3, 0.2, 0.1])])
    def test_grad_norm_is_the_reduced_gradient(self, P1):
        # a loose tol stops at the arc start
        p = PinnedProblem(np.zeros(len(P1)), P1, 1.0, 64)
        r = minimize_pinned(p, MinimizeOptions(tol=1e3))
        assert r.converged and r.iterations == 0 and r.grad_norm > 1.0
        assert dense_grad_norm(r.curve) == pytest.approx(r.grad_norm, rel=1e-6)

    def test_tol_option_honored(self):
        p = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 64)
        r = minimize_pinned(p, MinimizeOptions(tol=1e-3, max_iters=2000))
        assert r.converged
        assert r.grad_norm < 1e-3


class TestScaleInvariance:
    """The solve is the same at every length: B-bar, lam L0^2, the verdict
    and the step count do not depend on L0 (grad_norm and tol are
    dimensionless)."""

    @pytest.mark.parametrize("make, Bbar", [
        (lambda L: PinnedProblem(np.zeros(2), [0.5 * L, 0.0], L, 16), 11.364114081),
        (lambda L: PinnedProblem(np.zeros(2), [0.5 * L, 0.0], L, 100), 11.400233554),
        (lambda L: ClampedProblem(np.zeros(3), [0.5 * L, 0.0, 0.0], L, 64, [0.6, 0.0, 0.8],
                                  [0.6, 0.8, 0.0]), 19.965108610),
    ], ids=["chord16", "chord100", "arch3d"])
    def test_same_solve_at_every_length(self, make, Bbar):
        results = []
        for L0 in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            p = make(L0)
            r = (minimize_clamped if isinstance(p, ClampedProblem) else minimize_pinned)(p)
            assert r.termination == "converged", (L0, r.grad_norm, r.iterations)
            results.append((r.Bbar, r.lambda_est * L0**2, r.iterations))
        ref = results[2]
        assert ref[0] == pytest.approx(Bbar, rel=1e-9)
        for got in results:
            assert got[0] == pytest.approx(ref[0], rel=1e-9)
            assert got[1] == pytest.approx(ref[1], rel=1e-8)
            assert got[2] == ref[2]


class TestClamped:
    def test_buckled_arc(self):
        p = ClampedProblem(np.zeros(2), 0.5 * EX, 1.0, 200, EX, EX)
        r = minimize_clamped(p, MinimizeOptions(max_iters=3000))
        assert r.converged
        assert np.isfinite(r.Bbar) and r.Bbar > 0.0
        # clamped directions are honored
        V = r.curve.vertices
        e0 = (V[1] - V[0]) / np.linalg.norm(V[1] - V[0])
        e1 = (V[-1] - V[-2]) / np.linalg.norm(V[-1] - V[-2])
        assert np.linalg.norm(e0 - EX) <= 1e-8
        assert np.linalg.norm(e1 - EX) <= 1e-8
        # symmetric about the chord midpoint
        mirrored = np.column_stack([0.5 - V[::-1, 0], V[::-1, 1]])
        assert np.max(np.linalg.norm(V - mirrored, axis=1)) < 1e-6

    def test_taut_collinear_returns_segment(self):
        p = ClampedProblem(np.zeros(2), EX, 1.0, 64, EX, EX)
        r = minimize_clamped(p)
        assert r.converged
        assert r.B == 0.0
        assert r.iterations == 0
        assert math.isnan(r.lambda_est)  # a straight segment has no multiplier
        t = np.linspace(0.0, 1.0, 65)
        assert np.allclose(r.curve.vertices, np.column_stack([t, np.zeros(65)]), atol=1e-15)

    def test_teardrop_energy_above_free_leaf(self, leaf_result, teardrop_result):
        # forcing vertical tangents at the pinch costs energy over the
        # free-tangent minimizer on the same endpoint data
        assert teardrop_result.converged
        assert teardrop_result.B > leaf_result.B

    def test_teardrop_constraints(self, teardrop_result):
        c = teardrop_result.curve
        h = 1.0 / 200
        assert np.max(np.abs(c.edge_lengths - h)) / h <= 1e-10
        V = c.vertices
        assert np.linalg.norm((V[1] - V[0]) / np.linalg.norm(V[1] - V[0]) - EY) <= 1e-8
        assert np.linalg.norm((V[-1] - V[-2]) / np.linalg.norm(V[-1] - V[-2]) + EY) <= 1e-8

    def test_arch_converges_at_energy_rounding_floor(self):
        # a clamped arch whose last Newton steps change B by less than the
        # rounding of B itself; an energy-only test rejects them and the
        # solve stalls unconverged at grad ~2e-4
        p = stalling_arch()
        V0, V1 = p.V0, p.V1
        r = minimize_clamped(p, MinimizeOptions(seed=1989225659))
        assert r.converged
        assert r.grad_norm < _TOL_PER_EDGE * 200
        h = 1.0 / 200
        V = r.curve.vertices
        assert np.max(np.abs(r.curve.edge_lengths - h)) / h <= 1e-10
        assert np.linalg.norm((V[1] - V[0]) / np.linalg.norm(V[1] - V[0]) - V0) <= 1e-8
        assert np.linalg.norm((V[-1] - V[-2]) / np.linalg.norm(V[-1] - V[-2]) - V1) <= 1e-8
        # B never rises by more than its rounding bound
        Bs = [row["B"] for row in r.log if row["N"] == 200]
        assert all(b1 - b0 <= _rounding_bound(b0, 200) for b0, b1 in zip(Bs, Bs[1:]))


    def test_planar_arch_embedded_in_3d(self):
        # the clamped arch of the plane, posed in R^3: it used to end at
        # grad ~9e2 with B = 20.59; it must reach the planar solution
        a = 0.5
        V0, V1 = np.array([math.cos(a), math.sin(a)]), np.array([math.cos(a), -math.sin(a)])
        p2 = ClampedProblem(np.zeros(2), 0.6 * EX, 1.0, 100, V0, V1)
        p3 = ClampedProblem(
            np.zeros(3), np.array([0.6, 0.0, 0.0]), 1.0, 100, np.append(V0, 0.0), np.append(V1, 0.0)
        )
        r2, r3 = minimize_clamped(p2), minimize_clamped(p3)
        assert r2.converged and r3.converged
        assert r3.grad_norm < _TOL_PER_EDGE * 100
        assert r3.B == pytest.approx(r2.B, rel=1e-12)
        assert r3.B == pytest.approx(20.476339258960, rel=1e-12)
        assert np.max(np.abs(r3.curve.vertices[:, 2])) == 0.0
        assert np.max(np.abs(r3.curve.vertices[:, :2] - r2.curve.vertices)) < 1e-6

    def test_solution_independent_of_pose(self):
        # chord along x converges to B 14.395; the rotated poses used to
        # start on the other side and land on a looped critical point at
        # B 92.467
        def solve(angle):
            c, s = math.cos(angle), math.sin(angle)
            R = np.array([[c, -s], [s, c]])
            V0 = R @ np.array([math.cos(1.1), math.sin(1.1)])
            V1 = R @ np.array([math.cos(1.1), -math.sin(1.1)])
            return minimize_clamped(ClampedProblem(np.zeros(2), R @ (0.5 * EX), 1.0, 64, V0, V1))

        ref = solve(0.0)
        assert ref.converged
        for angle in (0.5, 1.0, 2.0, 3.0):
            r = solve(angle)
            assert r.converged
            assert r.B == pytest.approx(ref.B, rel=1e-6)


    def test_floor_stall_data_converge_in_their_own_pose(self):
        # the initial arc used to bulge away from the clamped tangents here:
        # 406 iterations ended unconverged at B 64.478, while the same data
        # rotated by pi converged to B 7.82414699401513
        V0 = np.array([0.4793496565506274, -0.877624012185626])
        V1 = np.array([0.479349656550627, 0.8776240121856259])
        p = ClampedProblem(np.zeros(2), 0.6579888389922908 * EX, 1.0, 64, V0, V1)
        r = minimize_clamped(p)
        assert r.converged
        assert r.B == pytest.approx(7.82414699401513, rel=1e-8)

    def test_planar_arch_in_3d_converges_in_any_pose(self):
        # posed in the xy-plane this arch stopped at grad 1.7e-5, and under
        # a generic rotation at grad 1.7e-4 after 598 iterations (tol 1e-6)
        a = 0.8
        V0 = np.array([math.cos(a), math.sin(a), 0.0])
        V1 = np.array([math.cos(a), -math.sin(a), 0.0])
        P1 = np.array([0.4, 0.0, 0.0])
        Q = np.linalg.qr(default_rng(0).normal(size=(3, 3)))[0]
        for R in (np.eye(3), Q):
            r = minimize_clamped(ClampedProblem(np.zeros(3), R @ P1, 1.0, 100, R @ V0, R @ V1))
            assert r.converged
            assert r.B == pytest.approx(27.275175219017, rel=1e-10)

    def test_random_3d_problems_converge(self):
        # generic spatial clamped data: the edge-tangent Newton step uses
        # the exact block Hessian, so none of these may stall at the floor
        rng = default_rng(12)
        solved = 0
        while solved < 6:
            u, V0, V1 = (v / np.linalg.norm(v) for v in rng.normal(size=(3, 3)))
            try:
                p = ClampedProblem(np.zeros(3), rng.uniform(0.0, 0.8) * u, 1.0, 64, V0, V1)
            except DomainError:
                continue
            r = minimize_clamped(p)
            assert r.converged, (solved, r.termination, r.grad_norm)
            solved += 1


class TestClampedStart:
    """The initial arc meets each clamped end edge at a kink; the start
    spreads it over the free tangents next to the end, so the descent does
    not spend its first iterations on it."""

    def test_teardrop_converges_in_five_iterations(self, teardrop_result):
        assert teardrop_result.converged
        assert teardrop_result.iterations <= 5  # 6 from the kinked arc
        assert teardrop_result.B == pytest.approx(36.84994315542176, rel=1e-9)

    def test_stalling_arch_converges_in_five_iterations(self):
        r = minimize_clamped(stalling_arch(), MinimizeOptions(seed=1989225659))
        assert r.converged
        assert r.iterations <= 5  # 10 from the kinked arc
        assert r.B == pytest.approx(26.791561471066178, rel=1e-9)
        assert [row["direction"] for row in r.log] == ["newton"] * r.iterations + [None]

    @pytest.mark.parametrize("problem, seed", [
        (ClampedProblem(np.zeros(2), np.zeros(2), 1.0, 200, EY, -EY), None),
        (stalling_arch(), 1989225659),
        (stalling_arch(), None),
        (ClampedProblem(np.zeros(2), 0.5 * EX, 1.0, 16, EX, EX), 3),
        (ClampedProblem(np.zeros(3), [0.3, 0.1, -0.2], 1.0, 100, [0.0, 0.6, 0.8], [0.6, -0.8, 0.0]),
         None),
    ], ids=["teardrop", "stalling_arch", "stalling_arch_unseeded", "buckled_N16", "spatial"])
    def test_start_has_no_kink(self, problem, seed):
        # a tolerance no gradient reaches stops the solve at its start
        start = minimize_clamped(problem, MinimizeOptions(tol=1e300, seed=seed))
        assert start.iterations == 0
        theta = start.curve.turning_angles  # at vertices 1..N-1
        assert max(theta[0], theta[-1]) <= np.max(theta[1:-1])

    def test_rotated_and_reflected_spatial_problem(self):
        # the start is built from cross products and rotations about their
        # axes: a rotated or a mirrored problem takes the same path
        P1, V0, V1 = np.array([0.3, 0.1, -0.2]), np.array([0.0, 0.6, 0.8]), np.array([0.6, -0.8, 0.0])
        Q = np.linalg.qr(default_rng(5).normal(size=(3, 3)))[0]
        Q *= np.sign(np.linalg.det(Q))
        runs = [minimize_clamped(ClampedProblem(np.zeros(3), R @ P1, 1.0, 100, R @ V0, R @ V1))
                for R in (np.eye(3), Q, np.diag([1.0, 1.0, -1.0]) @ Q)]
        assert all(r.converged for r in runs)
        assert len({r.iterations for r in runs}) == 1
        for r in runs:
            assert r.B == pytest.approx(17.723899956069967, rel=1e-9)


def open_chain(rng, n: int, dim: int) -> np.ndarray:
    """n unit tangents scattered about the first axis."""
    T = np.eye(dim)[0] + 0.3 * rng.standard_normal((n, dim))
    return T / np.linalg.norm(T, axis=1)[:, None]


def count_calls(monkeypatch, name: str, keep=lambda *a, **k: True) -> list:
    """Record the calls of minimize.<name> for which keep(args) holds."""
    calls, fn = [], getattr(minimize, name)

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(minimize, name, counted)
    return calls


class TestClosure:
    """_close stops at the rounding floor of the tangent sum, 8 sqrt(n) eps,
    and returns the exactly rounded residual of the tangents it returns."""

    def test_floor_factor(self):
        eps = np.finfo(float).eps
        assert _closure_floor(200) == 8.0 * math.sqrt(200) * eps
        # the floor decides alone only on chains far longer than any solve
        assert _closure_floor(10**5) < _CLOSURE_TOL < _closure_floor(10**6)

    @pytest.mark.parametrize("n, dim", [(16, 2), (200, 3), (4096, 2)])
    def test_closes_to_the_floor_from_a_thousandth(self, n, dim):
        # one Gauss-Newton step leaves at most 2.7 sqrt(n) eps (measured for
        # n <= 4096), inside the floor
        rng = default_rng(n + dim)
        T = open_chain(rng, n, dim)
        target = T.sum(axis=0) + 1e-3 * rng.standard_normal(dim)
        Tc, r, steps = _close(T, target, 0, n)
        assert np.max(np.abs(r)) <= _closure_floor(n)
        assert same_floats(r, _residual(Tc, target))
        assert steps >= 1
        assert np.allclose(np.linalg.norm(Tc, axis=1), 1.0, rtol=0.0, atol=4e-16)

    def test_unreachable_target_gives_none(self):
        rng = default_rng(6)
        T = open_chain(rng, 16, 2)
        Tc, r, steps = _close(T, np.array([17.0, 0.0]), 0, 16)  # longer than the chain
        assert Tc is None and r is None and 1 <= steps <= 30

    @pytest.mark.parametrize("n, dim", [(16, 2), (200, 3)])
    def test_closed_chain_takes_no_step(self, n, dim, monkeypatch):
        rng = default_rng(n * dim)
        T = open_chain(rng, n, dim)
        target = T.sum(axis=0) + 1e-3 * rng.standard_normal(dim)
        Tc, r, _ = _close(T, target, 0, n)
        steps = count_calls(monkeypatch, "_rotate")
        again, r2, taken = _close(Tc, target, 0, n)
        assert steps == [] and taken == 0
        assert same_floats(again, Tc) and same_floats(r2, r)
        assert same_floats(r2, _residual(again, target))
        assert np.max(np.abs(r2)) <= _closure_floor(n)

    def test_one_more_step_above_the_floor(self, monkeypatch):
        # a residual between the floor and _CLOSURE_TOL takes exactly one step
        rng = default_rng(3)
        T = open_chain(rng, 64, 2)
        target = T.sum(axis=0) + 1e-13 * rng.standard_normal(2)
        assert _closure_floor(64) < np.max(np.abs(_residual(T, target))) <= _CLOSURE_TOL
        steps = count_calls(monkeypatch, "_rotate")
        Tc, r, taken = _close(T, target, 0, 64)
        assert len(steps) == 1 == taken
        assert np.max(np.abs(r)) <= _closure_floor(64)

    def test_weighted_closure_moves_weighted_tangents_only(self):
        rng = default_rng(4)
        n = 40
        T = open_chain(rng, n, 3)
        target = T.sum(axis=0) + 1e-3 * rng.standard_normal(3)
        w = np.minimum(1.0, np.minimum(np.arange(n - 2), np.arange(n - 2)[::-1]) / 7.0)
        Tc, r, _ = _close(T, target, 1, n - 1, w)
        assert np.max(np.abs(r)) <= _closure_floor(n)
        moved = np.linalg.norm(Tc - T, axis=1)
        # clamped ends and the zero-weight tangents next to them stay put
        assert np.all(moved[[0, 1, -2, -1]] == 0.0)
        # the others move by w_i P_i lam, P_i = I - T_i T_i^T, to first order
        D = (Tc - T)[2:-2] / w[1:-1, None]
        lam = np.linalg.lstsq(np.vstack([np.eye(3) - np.outer(t, t) for t in T[2:-2]]), D.ravel(),
                              rcond=None)[0]
        fit = np.array([lam - (t @ lam) * t for t in T[2:-2]])
        assert np.max(np.abs(D - fit)) < 1e-2 * np.max(np.abs(D))

    @pytest.mark.parametrize("problem, seed", [
        (stalling_arch(), 1989225659),
        (ClampedProblem(np.zeros(2), 0.5 * EX, 1.0, 16, EX, EX), 3),
    ], ids=["stalling_arch", "buckled_N16"])
    def test_clamped_start_takes_one_pass(self, problem, seed, monkeypatch):
        # the weighted closure leaves the spread kinks in place, so the
        # first pass of _unkinked already passes its check
        passes = count_calls(monkeypatch, "_close", lambda *args: len(args) == 5)
        start = minimize_clamped(problem, MinimizeOptions(tol=1e300, seed=seed))
        assert start.iterations == 0
        assert len(passes) == 1


def seeded_problem(k: int, N: int, clamped: bool, dim: int, d: float):
    """Chord of length d L0 in a seeded random direction; clamped ends tilt
    symmetrically off the chord, little enough to leave the inner chain
    slack at |P1 - P0| = 0.999 L0."""
    q = np.linalg.qr(default_rng(k).normal(size=(dim, dim)))[0]
    chord, normal = q[:, 0], q[:, 1]
    P1 = d * chord
    if not clamped:
        return PinnedProblem(np.zeros(dim), P1, 1.0, N)
    a = 0.1 if d > 0.99 else 0.5
    V0 = math.cos(a) * chord + math.sin(a) * normal
    V1 = math.cos(a) * chord - math.sin(a) * normal
    return ClampedProblem(np.zeros(dim), P1, 1.0, N, V0, V1)


SEEDED_GRID = list(itertools.product((16, 64, 200), (False, True), (2, 3), (0.0, 0.5, 0.97, 0.999)))


class TestSingleLevel:
    """The descent runs once, at the problem's N, from the arc start."""

    @pytest.mark.parametrize("clamped", [False, True])
    def test_log_rows_carry_the_problem_N(self, clamped):
        p = seeded_problem(3, 128, clamped, 2, 0.3)
        r = (minimize_clamped if clamped else minimize_pinned)(p, MinimizeOptions(seed=3))
        assert r.converged
        assert [row["iteration"] for row in r.log] == list(range(len(r.log)))
        assert all(row["N"] == 128 for row in r.log)
        assert len(r.log) == r.iterations + 1  # one row per iterate, the last included

    @pytest.mark.parametrize("k, N, clamped, dim, d",
                             [(k, *case) for k, case in enumerate(SEEDED_GRID)])
    def test_seeded_grid_converges(self, k, N, clamped, dim, d):
        p = seeded_problem(k, N, clamped, dim, d)
        r = (minimize_clamped if clamped else minimize_pinned)(p, MinimizeOptions(seed=k))
        assert r.termination == "converged", (r.grad_norm, r.iterations)


def random_band(rng, n: int, p: int) -> np.ndarray:
    """Upper band of a random symmetric, diagonally dominant n x n matrix of
    half-bandwidth p, pivots of both signs: band[q, i] = S[i, i + q]."""
    band = np.zeros((p + 1, n))
    for q in range(1, p + 1):
        band[q, : n - q] = rng.uniform(-1.0, 1.0, n - q)
    sign = np.where(rng.random(n) < 0.25, -1.0, 1.0)
    band[0] = sign * (1.0 + rng.random(n) + 2.0 * np.abs(band[1:]).sum(axis=0))
    return band


def dense(band: np.ndarray) -> np.ndarray:
    p1, n = band.shape
    S = np.diag(band[0])
    for q in range(1, p1):
        S += np.diag(band[q, : n - q], q) + np.diag(band[q, : n - q], -q)
    return S


def same_floats(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def parent_kkt(band, r, Ef, resid):
    """The Newton step as the library wrote it before the one-sweep KKT
    solve: S^-1 [r, Ef] fully solved (band_reference), then the Schur
    complement Ef^T S^-1 Ef in NumPy."""
    Z = reference_band_solve(band, np.column_stack([r, Ef]))
    Zg, ZA = Z[:, 0], Z[:, 1:]
    try:
        mu = np.linalg.solve(Ef.T @ ZA, resid - Ef.T @ Zg)
    except np.linalg.LinAlgError:
        return None
    return -(Zg + ZA @ mu)


class TestBandSolver:
    """_band_kkt against a dense solve of the KKT system and against the
    formula it replaced (parent_kkt); the planar kernel _tri_kkt against
    _band_kkt, float for float.  All three take (band, r, Ef, resid)."""

    @pytest.mark.parametrize("p, k, seed", [(p, k, 10 * p + k) for p in (1, 2, 3) for k in (1, 2, 3, 4)])
    def test_matches_reference_and_dense(self, p, k, seed):
        # k constraints: [[S, Ef], [Ef^T, 0]] [dy; mu] = [-r; -resid]
        rng = default_rng(seed)
        for n in (p + 1, 7, 40):
            if n < k:  # Ef would have dependent columns
                continue
            band = random_band(rng, n, p)
            r, Ef, resid = rng.standard_normal(n), rng.standard_normal((n, k)), rng.standard_normal(k)
            dy = _band_kkt(band, r, Ef, resid)
            assert dy.shape == (n,)
            K = np.block([[dense(band), Ef], [Ef.T, np.zeros((k, k))]])
            want = np.linalg.solve(K, -np.concatenate([r, resid]))[:n]
            assert np.linalg.norm(dy - want) <= 1e-12 * np.linalg.norm(want)
            old = parent_kkt(band, r, Ef, resid)
            assert np.linalg.norm(dy - old) <= 1e-12 * np.linalg.norm(old)

    @pytest.mark.parametrize("band", [
        [[0.0, 2.0, 2.0], [1.0, 1.0, 0.0]],  # first pivot zero
        [[1.0, 1.0, 3.0], [1.0, 0.5, 0.0]],  # second pivot 1 - 1 * 1 = 0
    ])
    def test_zero_pivot_gives_nan(self, band):
        # the full solve gave NaN at a zero pivot; the KKT solve gives None
        band = np.array(band)
        assert np.all(np.isnan(reference_band_solve(band, np.ones((3, 2)))))
        assert _band_kkt(band, np.ones(3), np.ones((3, 2)), np.ones(2)) is None
        assert _tri_kkt(band, np.ones(3), np.ones((3, 2)), np.ones(2)) is None  # tridiagonal too

    def test_singular_schur_gives_none(self):
        rng = default_rng(5)
        band = random_band(rng, 20, 2)
        Ef = np.repeat(rng.standard_normal((20, 1)), 2, axis=1)  # two equal constraint columns
        assert _band_kkt(band, rng.standard_normal(20), Ef, np.ones(2)) is None

    @pytest.mark.parametrize("n", [2, 7, 200])
    def test_planar_kernel_is_the_band_solve(self, n):
        # the one-pass tridiagonal kernel takes the band solve's operations
        # in its order: the same floats, on pivots of both signs
        rng = default_rng(n)
        for _ in range(5):
            band = random_band(rng, n, 1)
            r, Ef, resid = rng.standard_normal(n), rng.standard_normal((n, 2)), rng.standard_normal(2)
            want = _band_kkt(band, r, Ef, resid)
            assert want is not None
            assert same_floats(_tri_kkt(band, r, Ef, resid), want)

    def test_planar_kernel_singular_schur_gives_none(self):
        rng = default_rng(5)
        band = random_band(rng, 20, 1)
        Ef = np.repeat(rng.standard_normal((20, 1)), 2, axis=1)  # two equal constraint columns
        r = rng.standard_normal(20)
        assert _band_kkt(band, r, Ef, np.ones(2)) is None
        assert _tri_kkt(band, r, Ef, np.ones(2)) is None

    def test_cross_is_numpys(self):
        rng = default_rng(9)
        a, b = (rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-5.0, 5.0, (500, 3))
                for _ in range(2))
        assert same_floats(_cross(a, b), np.cross(a, b))

    @pytest.mark.parametrize("problem", [
        PinnedProblem(np.zeros(2), [0.4, 0.1], 1.0, 48),
        ClampedProblem(np.zeros(2), [0.5, 0.0], 1.0, 48, [0.6, 0.8], [0.6, -0.8]),
        PinnedProblem(np.zeros(3), [0.3, 0.2, 0.1], 1.0, 40),
    ], ids=["pinned2d", "clamped2d", "pinned3d"])
    def test_solves_match_the_parent_formula(self, problem, monkeypatch):
        # the KKT solve moves the step's floats at rounding level only: the
        # same steps, and the same curve up to the 3-D chord's gauge mode
        # (a rotation about the chord), which the rounding moves by ~1e-11
        solve = minimize_clamped if isinstance(problem, ClampedProblem) else minimize_pinned
        opts = MinimizeOptions(seed=1)
        got = solve(problem, opts)
        # the reference takes the band, as both kernels do
        monkeypatch.setattr(minimize, "_band_kkt", parent_kkt)
        monkeypatch.setattr(minimize, "_tri_kkt", parent_kkt)
        want = solve(problem, opts)
        assert got.converged and want.converged
        assert (got.termination, got.iterations) == (want.termination, want.iterations)
        steps = ("iteration", "N", "direction", "backtracks", "closure_steps")
        assert [[row[f] for f in steps] for row in got.log] == [[row[f] for f in steps] for row in want.log]
        assert got.B == pytest.approx(want.B, rel=1e-12, abs=0.0)
        assert got.Bbar == pytest.approx(want.Bbar, rel=1e-12, abs=0.0)
        assert np.max(np.abs(got.curve.vertices - want.curve.vertices)) <= 1e-9


class TestResultEquality:
    def test_results_compare_by_value(self):
        # a result holds a DiscreteCurve, which compares by its vertex values
        p = PinnedProblem(np.zeros(2), 0.4 * EX, 1.0, 32)
        first, again = minimize_pinned(p), minimize_pinned(p)
        assert first == again and first.curve is not again.curve
        other = minimize_pinned(PinnedProblem(np.zeros(2), 0.5 * EX, 1.0, 32))
        assert first != other and first.curve != other.curve


class TestTermination:
    def test_converged(self, leaf_result):
        assert leaf_result.termination == "converged"
        assert leaf_result.converged

    def test_budget(self):
        p = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 64)
        r = minimize_pinned(p, MinimizeOptions(max_iters=2))
        assert r.termination == "budget"
        assert not r.converged
        assert r.iterations == 2
        # the final iterate has its own row, and grad_norm describes it
        assert len(r.log) == r.iterations + 1
        assert [row["direction"] is None for row in r.log] == [False, False, True]
        assert r.log[-1]["grad_norm"] == r.grad_norm and r.log[-1]["B"] == r.B
        assert math.isfinite(r.lambda_est)  # lam of the last iterate
        assert r.grad_norm == pytest.approx(dense_grad_norm(r.curve), rel=1e-6)

    def test_floor(self):
        # the projected gradient cannot reach 1e-15 in double precision:
        # once neither B nor the gradient resolves a step the solve stops
        p = PinnedProblem(np.zeros(2), 0.5 * EX, 1.0, 64)
        r = minimize_pinned(p, MinimizeOptions(tol=1e-15))
        assert r.termination == "floor"
        assert not r.converged
        assert r.grad_norm >= 1e-15
        assert r.grad_norm < _TOL_PER_EDGE * 64  # well past the default tolerance
        assert r.iterations < 2000
        assert len(r.log) == r.iterations + 1  # iterations counts the accepted steps
        assert math.isfinite(r.lambda_est)

    @pytest.mark.parametrize("problem", [
        PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 64),
        PinnedProblem(np.zeros(3), [0.3, 0.2, 0.1], 1.0, 40),
    ], ids=["loop", "chord3d"])
    def test_log_counts_trials_and_closure_steps(self, problem, monkeypatch):
        # every _close after the start's closes one trial; each row counts its
        # iterate's rejected trials and the Gauss-Newton steps of all its trials
        steps, close = [], minimize._close

        def counted(*args):
            out = close(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr(minimize, "_close", counted)
        r = minimize_pinned(problem, MinimizeOptions(seed=2))
        assert r.converged
        log = r.log
        assert len(steps) - 1 == r.iterations + sum(row["backtracks"] for row in log)
        assert sum(row["closure_steps"] for row in log) == sum(steps[1:])
        assert log[-1]["backtracks"] == log[-1]["closure_steps"] == 0

    def test_taut_segment_is_converged(self):
        r = minimize_clamped(ClampedProblem(np.zeros(2), EX, 1.0, 16, EX, EX))
        assert r.termination == "converged"


class TestMultiplier:
    """lambda_est is lam of 2 k_ss + k^3 - lam k = 0 from the closure
    multiplier of the last iterate: the force -nu / h is constant along an
    elastica, in the plane and in space."""

    @pytest.mark.parametrize("N", [100, 200, 400])
    def test_pinned_leaf_follows_the_law_of_bbar(self, N):
        # the leaf's lam is varpi*, and the discrete lam misses it by Bbar's
        # own -0.918 / N^2 (sampled leafed curves), closer to Bbar than that
        r = minimize_pinned(PinnedProblem(np.zeros(2), np.zeros(2), 1.0, N), MinimizeOptions(seed=0))
        assert r.converged
        vp = varpi_star()
        assert abs((r.lambda_est / vp - 1.0) * N**2 + 0.918) <= 0.05
        assert abs(r.lambda_est - r.Bbar) / vp <= 4.0 / N**3

    def test_stalling_arch_matches_the_finite_difference_fit(self):
        # the reference is an independent estimate: the least-squares fit of
        # a finite-difference k_ss on the parent's solution
        r = minimize_clamped(stalling_arch())
        assert r.lambda_est == pytest.approx(8.821414741419238, rel=1e-3)

    def test_teardrop_matches_the_finite_difference_fit(self, teardrop_result):
        assert teardrop_result.lambda_est == pytest.approx(37.03954526921313, rel=1e-3)


class TestLeafMinimalityReport:
    def test_small_experiment_passes(self):
        rep = verify_leaf_minimality(120, 2)
        assert rep.passed
        assert abs(rep.min_Bbar / varpi_star() - 1.0) <= 0.01
        assert all(r.Bbar >= varpi_star() * 0.99 for r in rep.results)
        assert len(rep.results) == 2

    def test_refinement_shrinks_deviation(self):
        d1 = verify_leaf_minimality(120, 1).deviation
        d2 = verify_leaf_minimality(240, 1).deviation
        assert abs(d2) < abs(d1)

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_leaf_minimality(99, 2)
        with pytest.raises(DomainError):
            verify_leaf_minimality(120, 0)

    def test_counts_must_be_integers(self):
        with pytest.raises(DomainError):
            verify_leaf_minimality(120.5, 2)
        with pytest.raises(DomainError):
            verify_leaf_minimality(120, 2.5)


# every float parameter of minimize.__all__ (MinimizeResult is the record
# it returns): each value of BAD_FLOATS is an input error
FLOAT_CONTRACTS = {
    ("PinnedProblem", "L0"): (lambda v: PinnedProblem(np.zeros(2), 0.25 * EX, v, 16), {}),
    ("ClampedProblem", "L0"): (lambda v: ClampedProblem(np.zeros(2), 0.25 * EX, v, 16, EY, EY), {}),
    ("MinimizeOptions", "tol"): (lambda v: MinimizeOptions(tol=v), {}),
}
# the vector fields of the problems, one coordinate set to the value
VECTOR_FIELDS = {
    "P0": lambda v: PinnedProblem([0.0, v], 0.25 * EX, 3.0, 16),
    "P1": lambda v: PinnedProblem(np.zeros(2), [0.25, v], 3.0, 16),
    "V0": lambda v: ClampedProblem(np.zeros(2), 0.25 * EX, 3.0, 16, [v, 1.0], EY),
    "V1": lambda v: ClampedProblem(np.zeros(2), 0.25 * EX, 3.0, 16, EY, [v, 1.0]),
}


class TestInputContracts:
    def test_table_covers_every_float_parameter(self):
        assert float_parameters(minimize, records=("MinimizeResult",)) == set(FLOAT_CONTRACTS)

    @contract_cases(FLOAT_CONTRACTS)
    def test_float_parameter(self, key, value):
        check_contract(FLOAT_CONTRACTS, key, value)

    @pytest.mark.parametrize("value", BAD_FLOATS, ids=str)
    @pytest.mark.parametrize("field", list(VECTOR_FIELDS))
    def test_vector_coordinate(self, field, value):
        # a finite coordinate gives a problem (V0, V1: only where the
        # tangent stays a unit vector); NaN and inf are input errors
        build = VECTOR_FIELDS[field]
        if math.isfinite(value) and (field in ("P0", "P1") or value == 0.0):
            assert build(value).dim == 2
        else:
            with pytest.raises(DomainError):
                build(value)
