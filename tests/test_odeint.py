"""Position-form elastica ODE: integration accuracy and conservation laws."""

import itertools
import math
import warnings

import numpy as np
import pytest

from elastica import odeint
from elastica.curves import PlanarElastica, planar_state
from elastica.elliptic import cn, comp_K
from elastica.errors import DomainError, StepSizeError
from elastica.odeint import (
    ElasticaState,
    Trajectory,
    dimension_of_span,
    energy_law_residual,
    integrate_elastica,
    monitor_det,
    planarity_drift,
)
from elastica.profiles import CurvatureProfile, first_integral_coeffs, profile_c, profile_period

import odeint_reference
from input_contracts import check_contract, contract_cases, float_parameters, is_


def circle_state(dim=2):
    g = [0.0, -1.0, 0.0][:dim]
    return ElasticaState(g, [1, 0, 0][:dim], [0, 1, 0][:dim], [-1, 0, 0][:dim])


def line_state(dim=3):
    z = [0.0, 0.0, 0.0][:dim]
    return ElasticaState(z, [1, 0, 0][:dim], z, z)


def wavelike_state(m, dim=2):
    g, d1, d2, d3 = planar_state(PlanarElastica("wavelike", m), 0.0)
    if dim == 3:
        g, d1, d2, d3 = (np.append(v, 0.0) for v in (g, d1, d2, d3))
    return ElasticaState(g, d1, d2, d3)


def spatial_state(p: CurvatureProfile) -> ElasticaState:
    # at s=0 the profile sits at its curvature peak: k=A, k'=0
    k0 = p.A
    t0 = profile_c(p) / k0**2
    return ElasticaState(
        [0, 0, 0], [1, 0, 0], [0, k0, 0], [-k0 * k0, 0.0, k0 * t0]
    )


def borderline_state(s):
    # curvature 2 sech(s): nearly straight far from the single pulse at s = 0
    return ElasticaState(*planar_state(PlanarElastica("borderline"), s))


def reference_rhs(y, lam):
    d1, d2, d3 = y[1], y[2], y[3]
    out = np.empty_like(y)
    out[0] = d1
    out[1] = d2
    out[2] = d3
    out[3] = 0.5 * (lam * d2 - 6.0 * np.dot(d2, d3) * d1 - 3.0 * np.dot(d2, d2) * d2)
    return out


def reference_rk4(y, h, lam):
    k1 = reference_rhs(y, lam)
    k2 = reference_rhs(y + (0.5 * h) * k1, lam)
    k3 = reference_rhs(y + (0.5 * h) * k2, lam)
    k4 = reference_rhs(y + h * k3, lam)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_integrate(s0, lam, s_end, h):
    """The per-step NumPy loop integrate_elastica is checked against:
    (states, per-step error estimates, first offending step or None)."""
    n = max(1, int(round(s_end / h)))
    h = s_end / n
    data = np.empty((n + 1, 4, s0.dim))
    errs = []
    y = s0.as_array()
    data[0] = y
    for i in range(n):
        y_full = reference_rk4(y, h, lam)
        y_half = reference_rk4(reference_rk4(y, 0.5 * h, lam), 0.5 * h, lam)
        err = float(np.max(np.abs(y_full - y_half))) / 15.0
        if not err <= 1e-6:
            return data[: i + 1], np.array(errs), i
        errs.append(err)
        y = y_full
        data[i + 1] = y
    return data, np.array(errs), None


def rotation_3d(a, b):
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    Rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    Rz = np.array([[cb, -sb, 0], [sb, cb, 0], [0, 0, 1]])
    return Rz @ Rx


class TestState:
    def test_speed_must_be_unit(self):
        with pytest.raises(DomainError):
            ElasticaState([0, 0], [1.1, 0], [0, 1], [0, 0])

    def test_orthogonality_required(self):
        with pytest.raises(DomainError):
            ElasticaState([0, 0], [1, 0], [0.1, 1], [0, 0])

    def test_dimension_consistency(self):
        with pytest.raises(DomainError):
            ElasticaState([0, 0, 0], [1, 0], [0, 1], [0, 0])
        with pytest.raises(DomainError):
            ElasticaState([0], [1], [0], [0])

    def test_finite(self):
        with pytest.raises(DomainError):
            ElasticaState([0, np.inf], [1, 0], [0, 1], [0, 0])

    def test_read_only(self):
        st = circle_state()
        with pytest.raises(ValueError):
            st.d1[0] = 2.0

    def test_dim(self):
        assert circle_state(2).dim == 2
        assert circle_state(3).dim == 3


class TestIntegrate:
    def test_line_stays_line(self):
        tr = integrate_elastica(line_state(), 1.3, 5.0, 1e-2)
        assert np.max(np.abs(tr.data[:, 2, :])) == 0.0
        assert np.allclose(tr.data[:, 0, 0], tr.s, atol=1e-12)

    def test_circle_curvature_conserved(self):
        tr = integrate_elastica(circle_state(), 1.0, 2 * math.pi, 2e-3)
        u = np.linalg.norm(tr.data[:, 2, :], axis=1)
        assert np.max(np.abs(u - 1.0)) < 1e-7
        assert np.linalg.norm(tr.data[-1, 0] - tr.data[0, 0]) < 1e-8  # closes up

    def test_wavelike_matches_closed_form(self):
        m = 0.7
        K = comp_K(m)
        tr = integrate_elastica(wavelike_state(m), 2 * (2 * m - 1), 4 * K, 4e-3)
        kmag = np.linalg.norm(tr.data[:, 2, :], axis=1)
        exact = np.abs(2 * math.sqrt(m) * cn(tr.s, m))
        assert np.max(np.abs(kmag - exact)) < 1e-5

    def test_fourth_order_convergence(self):
        m = 0.7
        K = comp_K(m)

        def err(h):
            tr = integrate_elastica(wavelike_state(m), 2 * (2 * m - 1), 4 * K, h)
            kmag = np.linalg.norm(tr.data[:, 2, :], axis=1)
            return np.max(np.abs(kmag - np.abs(2 * math.sqrt(m) * cn(tr.s, m))))

        assert err(4e-3) / err(2e-3) >= 12.0

    def test_unit_speed_drift(self):
        tr = integrate_elastica(circle_state(), 1.0, 50.0, 4e-3)
        drift = np.abs(np.linalg.norm(tr.data[:, 1, :], axis=1) - 1.0)
        assert np.max(drift) < 1e-7

    def test_step_rejection(self):
        with pytest.raises(StepSizeError):
            integrate_elastica(wavelike_state(0.7), 0.8, 10.0, 0.5)

    def test_domain(self):
        st = circle_state()
        with pytest.raises(DomainError):
            integrate_elastica(st, 1.0, -1.0, 1e-3)
        with pytest.raises(DomainError):
            integrate_elastica(st, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_elastica(st, math.nan, 1.0, 1e-3)

    @pytest.mark.parametrize("s_end, h", [(1.0, 1e-300), (1.0, 1e-12), (1e300, 1.0)])
    def test_step_count_above_the_cap(self, s_end, h):
        # the table would not fit in memory: a DomainError before any
        # allocation, not NumPy's "maximum allowed size exceeded"
        assert s_end / h > odeint.MAX_STEPS
        for st in (circle_state(), wavelike_state(0.7, dim=3)):
            with pytest.raises(DomainError, match="cap"):
                integrate_elastica(st, 1.0, s_end, h)

    def test_trajectory_accessors(self):
        tr = integrate_elastica(circle_state(), 1.0, 0.1, 1e-2)
        assert tr.n_states == 11
        assert tr.s[-1] == pytest.approx(0.1)
        st = tr.state(5)
        assert isinstance(st, ElasticaState)
        assert [tr.state(i).as_array().tobytes() for i in range(11)] == [row.tobytes() for row in tr.data]

    def test_numpy_scalars_run_as_floats(self):
        # a NumPy scalar h would run every step of the float loop at NumPy speed
        tr = integrate_elastica(circle_state(), np.float64(1.0), np.float64(0.1), 1e-2)
        assert type(tr.h) is float and type(tr.lam) is float

    def test_states_past_initial_tolerance(self):
        # RK4 drifts past the 1e-9 initial-condition checks at this step
        # (<d1, d2> reaches 2.6e-5); every state must still be readable
        tr = integrate_elastica(wavelike_state(0.95, dim=3), 2 * (2 * 0.95 - 1),
                                4 * comp_K(0.95), 4e-3)
        states = [tr.state(i) for i in range(tr.n_states)]
        assert len(states) == tr.n_states
        assert max(abs(float(np.dot(st.d1, st.d2))) for st in states) > 1e-9
        np.testing.assert_array_equal(states[-1].as_array(), tr.data[-1])
        assert not states[-1].d3.flags.writeable

    @pytest.mark.parametrize("s0, lam, s_end, h", [
        (wavelike_state(0.7), 2 * (2 * 0.7 - 1), 4 * comp_K(0.7), 4e-3),
        (circle_state(), 1.0, 2 * math.pi, 4e-3),
    ])
    def test_planar_embedding_is_exact(self, s0, lam, s_end, h):
        # planar and spatial states share one kernel: z = 0 must leave the
        # x/y floats exactly as a 2-D run has them
        flat = integrate_elastica(s0, lam, s_end, h)
        s3 = ElasticaState(*(np.append(v, 0.0) for v in (s0.gamma, s0.d1, s0.d2, s0.d3)))
        emb = integrate_elastica(s3, lam, s_end, h)
        assert emb.data.shape == flat.data.shape[:2] + (3,)
        assert np.array_equal(emb.data[:, :, :2], flat.data)
        assert np.all(emb.data[:, :, 2] == 0.0) and not np.signbit(emb.data[:, :, 2]).any()
        assert (emb.err_max, emb.err_max_s) == (flat.err_max, flat.err_max_s)


class TestDetMonitor:
    def test_planar_embedded_zero(self):
        m = 0.7
        tr = integrate_elastica(wavelike_state(m, dim=3), 2 * (2 * m - 1), 5.0, 2e-3)
        assert np.max(np.abs(monitor_det(tr))) < 1e-8

    def test_spatial_profile_constant(self):
        p = CurvatureProfile(m=0.2, w=0.6, A=1.5)
        lam, a, c_sq = first_integral_coeffs(p)
        tr = integrate_elastica(spatial_state(p), lam, 5 * profile_period(p), 2e-3)
        dets = monitor_det(tr)
        c = profile_c(p)
        assert np.max(np.abs(dets - c)) < 1e-6

    def test_helix_det_is_k2t(self):
        # constant k=1, torsion 1/2: det = k^2 t
        p = CurvatureProfile(m=0.0, w=0.5, A=1.0)
        lam, a, c_sq = first_integral_coeffs(p)
        tr = integrate_elastica(spatial_state(p), lam, 10.0, 2e-3)
        assert np.max(np.abs(monitor_det(tr) - 0.5)) < 1e-8

    def test_needs_3d(self):
        tr = integrate_elastica(circle_state(), 1.0, 0.1, 1e-2)
        with pytest.raises(DomainError):
            monitor_det(tr)


class TestSpan:
    def test_line(self):
        assert dimension_of_span(line_state()) == 1

    def test_planar_wavelike(self):
        assert dimension_of_span(wavelike_state(0.7, dim=3)) == 2

    def test_spatial(self):
        assert dimension_of_span(spatial_state(CurvatureProfile(m=0.2, w=0.6, A=1.5))) == 3


class TestPlanarity:
    def test_tilted_planar_stays_planar(self):
        m = 0.7
        R = rotation_3d(0.5, 0.3)
        g, d1, d2, d3 = planar_state(PlanarElastica("wavelike", m), 0.0)
        st = ElasticaState(*(R @ np.append(v, 0.0) for v in (g, d1, d2, d3)))
        tr = integrate_elastica(st, 2 * (2 * m - 1), 20.0, 2e-3)
        assert planarity_drift(tr) < 1e-6

    def test_line_zero_drift(self):
        tr = integrate_elastica(line_state(), 0.5, 5.0, 1e-2)
        assert planarity_drift(tr) == pytest.approx(0.0, abs=1e-12)

    def test_spatial_rejected(self):
        p = CurvatureProfile(m=0.2, w=0.6, A=1.5)
        lam, _, _ = first_integral_coeffs(p)
        tr = integrate_elastica(spatial_state(p), lam, 1.0, 1e-3)
        with pytest.raises(DomainError):
            planarity_drift(tr)

    def test_2d_trajectory_trivially_planar(self):
        tr = integrate_elastica(circle_state(), 1.0, 1.0, 1e-3)
        assert planarity_drift(tr) == 0.0


class TestEnergyLaw:
    def test_wavelike(self):
        m = 0.7
        p = CurvatureProfile(m=m, w=m, A=2 * math.sqrt(m))
        lam, a, c_sq = first_integral_coeffs(p)
        assert lam == pytest.approx(2 * (2 * m - 1), rel=1e-12)
        tr = integrate_elastica(wavelike_state(m), lam, 4 * comp_K(m), 2e-3)
        assert np.max(np.abs(energy_law_residual(tr, a, c_sq))) < 1e-6

    def test_spatial(self):
        p = CurvatureProfile(m=0.2, w=0.6, A=1.5)
        lam, a, c_sq = first_integral_coeffs(p)
        tr = integrate_elastica(spatial_state(p), lam, 10.0, 1e-3)
        assert np.max(np.abs(energy_law_residual(tr, a, c_sq))) < 1e-9


REFERENCE_CASES = {
    "line": (line_state(), 1.3, 5.0, 1e-2),
    "circle": (circle_state(), 1.0, 2 * math.pi, 4e-3),
    "wavelike2d": (wavelike_state(0.7), 2 * (2 * 0.7 - 1), 4 * comp_K(0.7), 4e-3),
    "wavelike3d": (wavelike_state(0.9, dim=3), 2 * (2 * 0.9 - 1), 3.0, 2e-3),
    "tilted": (ElasticaState(*(rotation_3d(0.5, 0.3) @ np.append(v, 0.0) for v in planar_state(
        PlanarElastica("wavelike", 0.7), 0.4))), 2 * (2 * 0.7 - 1), 3.0, 4e-3),
    "spatial": (spatial_state(CurvatureProfile(m=0.2, w=0.6, A=1.5)),
                first_integral_coeffs(CurvatureProfile(m=0.2, w=0.6, A=1.5))[0], 6.0, 2e-3),
    "helix": (spatial_state(CurvatureProfile(m=0.0, w=0.5, A=1.0)),
              first_integral_coeffs(CurvatureProfile(m=0.0, w=0.5, A=1.0))[0], 3.0, 1e-2),
}


def assert_same_run(s0, lam, s_end, h):
    """integrate_elastica and the 12-float loop it replaced
    (tests/odeint_reference.py) give the same bytes or the same error."""
    def run(f):
        try:
            t = f(s0, lam, s_end, h)
        except StepSizeError as exc:
            return str(exc)
        return t.data.tobytes(), np.float64([t.err_max, t.err_max_s]).tobytes()
    assert run(integrate_elastica) == run(odeint_reference.integrate_elastica)


class TestReferenceLoop:
    """integrate_elastica against the per-step NumPy loop it replaced."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference(self, case):
        s0, lam, s_end, h = REFERENCE_CASES[case]
        tr = integrate_elastica(s0, lam, s_end, h)
        want, errs, bad = reference_integrate(s0, lam, s_end, h)
        assert bad is None
        assert tr.data.shape == want.shape
        assert np.all(np.abs(tr.data - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert tr.err_max == pytest.approx(errs.max(), rel=1e-3, abs=1e-15)
        assert tr.err_max <= 1e-6

    def test_err_max_location(self):
        # one clear peak of the estimate, at the pulse, in the second block
        s0, lam, s_end, h = borderline_state(-50.0), 2.0, 60.0, 0.04
        tr = integrate_elastica(s0, lam, s_end, h)
        _, errs, bad = reference_integrate(s0, lam, s_end, h)
        assert bad is None
        assert tr.err_max == pytest.approx(errs.max(), rel=1e-6)
        assert tr.err_max_s == pytest.approx(int(np.argmax(errs)) * tr.h, abs=1e-9)
        assert tr.err_max_s > odeint._BLOCK * tr.h

    @pytest.mark.parametrize("case", ["spatial", "tilted", "wavelike2d", "wavelike3d"])
    def test_batch_step_is_the_float_step(self, case):
        # the error estimate's array step and the kept float steps are one
        # formula: equal bit for bit on one state, in 3-D and in 2-D at
        # z = 0, for d1, d2, d3 (_run3, and _run2 on planar states) and
        # for the position (_gamma_increments), and the array step is the
        # 12-float kernel that advanced the position in the loop
        s0, lam, _, h = REFERENCE_CASES[case]
        y = s0.as_array()
        want = odeint._rk4_batch(y[:, :, None], h, lam)[:, :, 0]
        y3 = np.zeros((4, 3))
        y3[:, : s0.dim] = y
        got3 = np.array(odeint._run3(y3[1:].ravel().tolist(), 1, h, lam)[0]).reshape(3, 3)
        assert got3[:, : s0.dim].tobytes() == want[1:].tobytes()
        if s0.dim == 2 or not y[:, 2].any():
            got2 = np.array(odeint._run2(y[1:, :2].ravel().tolist(), 1, h, lam)[0]).reshape(3, 2)
            assert got2.tobytes() == want[1:, :2].tobytes()
        inc = odeint._gamma_increments(y[1:, :, None], h, lam)[:, 0]
        assert (y[0] + inc).tobytes() == want[0].tobytes()
        got12 = np.array(odeint_reference._step3(y3.ravel().tolist(), h, lam)).reshape(4, 3)
        assert got12[:, : s0.dim].tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_float_loop(self, case):
        # the two-coordinate kernel and the summed positions against the
        # 12-float loop they replaced: the same bytes, signed zeros included
        assert_same_run(*REFERENCE_CASES[case])

    @pytest.mark.parametrize("kind", ["2d", "3d_zero_z", "negative_zero_z", "tilted", "spatial"])
    @pytest.mark.parametrize("n", [1, 2, odeint._BLOCK + 3])
    def test_random_states_match_float_loop(self, kind, n):
        rng = np.random.default_rng([n, len(kind)])
        for scale in (0.5, 0.5, 4.0):  # the last one often fails its error estimate
            g, d2, d3 = rng.normal(size=(3, 3)) * [[1.0], [scale], [scale]]
            t = rng.uniform(0.0, 7.0)
            d1 = np.array([math.cos(t), math.sin(t), 0.0])
            d2 -= np.dot(d1, d2) * d1
            vs = [g, d1, d2, d3]
            if kind != "spatial":
                for v in vs:
                    v[2] = 0.0
            if kind == "negative_zero_z":
                vs[rng.integers(4)][2] = -0.0
            elif kind == "tilted":
                R = rotation_3d(*rng.uniform(0.0, 7.0, size=2))
                vs = [R @ v for v in vs]
            elif kind == "2d":
                vs = [v[:2] for v in vs]
            h = float(rng.uniform(1e-3, 1e-2))
            assert_same_run(ElasticaState(*vs), float(rng.normal()), n * h, h)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_signed_zero_lines_match_float_loop(self, dim):
        # a straight line whose d2, d3 are zeros of every sign: the dot
        # products start from 0.0, so a -0.0 product cannot flip a rate's sign
        for signs in itertools.product([0.0, -0.0], repeat=4):
            d2, d3 = np.zeros((2, dim))
            d2[:2], d3[:2] = signs[:2], signs[2:]
            for lam in (1.3, -1.3):
                assert_same_run(ElasticaState(np.zeros(dim), np.eye(dim)[0], d2, d3), lam, 0.3, 0.1)

    def test_signed_zero_lines_in_space_match_float_loop(self):
        # the same with signed zeros in the z entries too: a -0.0 there
        # sends the line to the R^3 kernel, whose dot products start from 0.0
        for signs in itertools.product([0.0, -0.0], repeat=6):
            d2, d3 = np.reshape(signs, (2, 3))
            if np.signbit(signs[2::3]).any():
                for lam in (1.3, -1.3):
                    assert_same_run(ElasticaState(np.zeros(3), np.eye(3)[0], d2, d3), lam, 0.3, 0.1)

    def test_default_fields(self):
        tr = Trajectory(h=0.1, lam=1.0, data=np.zeros((2, 4, 2)))
        assert math.isnan(tr.err_max) and math.isnan(tr.err_max_s)

    @pytest.mark.parametrize("s0, lam, s_end, h, first, last", [
        (circle_state(), 1.0, 1.0, 1.0, 0, 0),  # n = 1
        (wavelike_state(0.7), 0.8, 10.0, 0.5, 0, 0),  # n = 20
        (borderline_state(-10.0), 2.0, 20.0, 0.1, 1, odeint._BLOCK - 1),  # n = 200
        (borderline_state(-110.0), 2.0, 220.0, 0.1, odeint._BLOCK, 2 * odeint._BLOCK - 1),
    ])
    def test_first_offending_step_matches(self, s0, lam, s_end, h, first, last):
        # [first, last] brackets the reference's first offending step, so
        # each row covers the case it is here for
        _, _, bad = reference_integrate(s0, lam, s_end, h)
        assert bad is not None and first <= bad <= last
        n = max(1, int(round(s_end / h)))
        with pytest.raises(StepSizeError, match="> 1e-06") as exc:
            integrate_elastica(s0, lam, s_end, h)
        assert f"at s = {bad * (s_end / n):.6g}; reduce h" in str(exc.value)

    def test_non_finite_estimate_rejected(self):
        # lam = 1e160 overflows in the first step; NaN > 1e-6 is False, so a
        # plain threshold test would let the NaN trajectory through
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(StepSizeError, match="non-finite") as exc:
                integrate_elastica(circle_state(), 1e160, 1.0, 0.1)
        assert "at s = 0; reduce h" in str(exc.value)


class TestBlockKernels:
    """The planar kernel against the 3-D kernel, apart from the reference
    loop, and the block structure of integrate_elastica."""

    N = odeint._BLOCK + 3

    def assert_planar_is_3d(self, y2, h, lam):
        # _run2's rows are _run3's x/y floats at z = +0.0, and _run3 keeps
        # every z entry +0.0, never -0.0
        y3 = [v for x, y in zip(y2[0::2], y2[1::2]) for v in (x, y, 0.0)]
        rows2 = np.array(odeint._run2(y2, self.N, h, lam)).reshape(self.N, 3, 2)
        rows3 = np.array(odeint._run3(y3, self.N, h, lam)).reshape(self.N, 3, 3)
        assert np.isfinite(rows3).all()
        assert rows2.tobytes() == rows3[:, :, :2].tobytes()
        z = rows3[:, :, 2]
        assert not z.any() and not np.signbit(z).any()

    def test_random_planar_states(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = rng.uniform(0.0, 7.0)
            d1 = np.array([math.cos(t), math.sin(t)])
            d2, d3 = rng.normal(scale=0.5, size=(2, 2))
            d2 -= np.dot(d1, d2) * d1
            y2 = np.concatenate([d1, d2, d3]).tolist()
            self.assert_planar_is_3d(y2, float(rng.uniform(1e-3, 5e-3)), float(rng.normal()))

    @pytest.mark.parametrize("lam", [1.3, -1.3])
    def test_signed_zero_lines(self, lam):
        # d2 and d3 zeros of every sign, as in test_signed_zero_lines_match_float_loop
        for signs in itertools.product([0.0, -0.0], repeat=4):
            self.assert_planar_is_3d([1.0, 0.0, *signs], 0.01, lam)

    @pytest.mark.parametrize("n", [1, odeint._BLOCK, odeint._BLOCK + 1, 2 * odeint._BLOCK + 5])
    @pytest.mark.parametrize("s0", [circle_state(), circle_state(3), spatial_state(
        CurvatureProfile(m=0.0, w=0.5, A=1.0))], ids=["2d", "3d_zero_z", "spatial"])
    def test_one_kernel_call_per_block(self, s0, n, monkeypatch):
        # a kernel call per block of steps, never one per step
        calls = []
        for name in ("_run2", "_run3"):
            kernel = getattr(odeint, name)
            monkeypatch.setattr(odeint, name, lambda y, k, h, lam, name=name, kernel=kernel: (
                calls.append((name, k)) or kernel(y, k, h, lam)))
        tr = integrate_elastica(s0, 1.0, n * 0.01, 0.01)
        assert tr.n_states == n + 1
        blocks = -(-n // odeint._BLOCK)
        planar = s0.dim == 2 or not s0.as_array()[:, 2].any()
        assert [name for name, _ in calls] == ["_run2" if planar else "_run3"] * blocks
        assert sum(k for _, k in calls) == n


# a unit circle traversed for s in [0, 1]: u = |d2|^2 = 1 and u' = 0 to
# about 1e-10, so the energy law reads 1 - 2 lam - 4 a + 4 c^2 with lam = 1
CIRCLE = integrate_elastica(circle_state(), 1.0, 1.0, 1e-2)
# every float parameter of odeint.__all__ (Trajectory is the record
# integrate_elastica returns); a straight line ends at (1, 0, 0) for any lam
FLOAT_CONTRACTS = {
    ("integrate_elastica", "lam"): (lambda v: integrate_elastica(line_state(), v, 1.0, 0.1).data[-1, 0],
                                    {0.0: is_((1.0, 0.0, 0.0)), -1.0: is_((1.0, 0.0, 0.0))}),
    ("integrate_elastica", "s_end"): (lambda v: integrate_elastica(line_state(), 1.0, v, 0.1), {}),
    ("integrate_elastica", "h"): (lambda v: integrate_elastica(line_state(), 1.0, 1.0, v), {}),
    ("energy_law_residual", "a"): (lambda v: energy_law_residual(CIRCLE, v, 0.0),
                                   {0.0: is_(-1.0, rtol=1e-8), -1.0: is_(3.0, rtol=1e-8)}),
    ("energy_law_residual", "c_sq"): (lambda v: energy_law_residual(CIRCLE, 0.0, v),
                                      {0.0: is_(-1.0, rtol=1e-8), -1.0: is_(-5.0, rtol=1e-8)}),
}


class TestInputContracts:
    def test_table_covers_every_float_parameter(self):
        assert float_parameters(odeint, records=("Trajectory",)) == set(FLOAT_CONTRACTS)

    @contract_cases(FLOAT_CONTRACTS)
    def test_float_parameter(self, key, value):
        check_contract(FLOAT_CONTRACTS, key, value)
