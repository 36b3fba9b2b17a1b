"""Tests for the closed-form Landau solution machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from pointflow import (
    A_from_beta, CallableField, FlowState, LandauField, LandauParams,
    RescaledField, beta_from_A, flux_tensor, landau_eval, ns_residual,
    sup_speed_on_unit_sphere,
)
from pointflow.landau import A_MAX, BETA_MIN, _SERIES_SPLIT, _Stages

# beta(2) evaluated term by term at 50 digits (see oracle test below)
BETA_A2 = 34.766840318785736


def high_precision_beta(A, dps=50):
    """Independent extended-precision evaluation of the force magnitude."""
    import mpmath as mp

    with mp.workdps(dps):
        A = mp.mpf(A)
        value = 16 * mp.pi * (A + A**2 / 2 * mp.log((A - 1) / (A + 1))
                              + 4 * A / (3 * (A**2 - 1)))
        return float(value)


def equivariance_defect(params, R, x):
    """max |U^{Rb}(Rx) - R U^b(x)| over the points x, for a rotation R."""
    pts = np.reshape(np.asarray(x, dtype=float), (-1, 3))
    rotated = LandauParams(A=params.A, beta=params.beta, axis=R @ params.axis)
    lhs = landau_eval(rotated, pts @ R.T).u
    rhs = landau_eval(params, pts).u @ R.T
    return float(np.max(np.linalg.norm(lhs - rhs, axis=-1)))


class TestBetaFromA:
    def test_anchor_matches_high_precision_oracle(self):
        oracle = high_precision_beta(2.0)
        assert oracle == pytest.approx(BETA_A2, rel=1e-15)
        assert beta_from_A(2.0) == pytest.approx(oracle, rel=1e-13)

    def test_large_A_asymptote(self):
        # beta ~ 16 pi / A as A grows
        assert beta_from_A(1e6) == pytest.approx(16 * np.pi / 1e6, rel=0.1)

    def test_matches_oracle_across_the_range(self):
        for A in [1.0001, 1.01, 1.5, 3.0, 19.9, 20.1, 100.0, 1e4, 1e6]:
            assert beta_from_A(A) == pytest.approx(high_precision_beta(A),
                                                   rel=1e-11)

    def test_domain_error_at_the_guard(self):
        with pytest.raises(ValueError):
            beta_from_A(1.0 + 1e-9)
        with pytest.raises(ValueError):
            beta_from_A(1.0)
        with pytest.raises(ValueError):
            beta_from_A(0.5)

    def test_scalar_matches_array(self):
        # on both sides of the switch to the series at A = 20, and where
        # A^2 overflows in the unused closed form
        A = np.array([1.5, np.nextafter(_SERIES_SPLIT, 0.0), _SERIES_SPLIT,
                      np.nextafter(_SERIES_SPLIT, np.inf), 1e3, A_MAX, 1e200])
        values = beta_from_A(A)
        for a, value in zip(A, values):
            scalar = beta_from_A(float(a))
            assert type(scalar) is float and scalar == value

    def test_strictly_decreasing_with_endpoint_bounds(self):
        grid = np.logspace(np.log10(1e-6), np.log10(1e6 - 1.0), 200) + 1.0
        values = beta_from_A(grid)
        assert np.all(np.diff(values) < 0.0)
        assert values[0] > 1e4
        assert beta_from_A(1e6) < 1e-3
        assert np.all(values > 0.0)


class TestAFromBeta:
    def test_round_trip_anchors(self):
        assert A_from_beta(beta_from_A(2.0)) == pytest.approx(2.0, abs=1e-9)
        assert A_from_beta(beta_from_A(1.001)) == pytest.approx(1.001, abs=1e-8)

    def test_inverse_of_the_anchor_value(self):
        assert A_from_beta(BETA_A2) == pytest.approx(2.0, abs=1e-9)
        # four-digit truncations of the anchor still invert to A near 2
        assert A_from_beta(34.7624) == pytest.approx(2.0, abs=1e-3)

    def test_round_trip_log_grid(self):
        grid = np.logspace(np.log10(1e-6), np.log10(1e6 - 1.0), 100) + 1.0
        for A in grid:
            assert A_from_beta(beta_from_A(A)) == pytest.approx(A, rel=1e-9)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                A_from_beta(bad)
        with pytest.raises(ValueError):
            A_from_beta(1e-12)   # below beta(1e8)
        with pytest.raises(ValueError):
            A_from_beta(1e30)    # above beta(1 + 1e-9)


class TestLandauParams:
    def test_from_shape_consistency(self):
        params = LandauParams.from_shape(2.0)
        assert params.beta == pytest.approx(BETA_A2, rel=1e-12)
        assert np.allclose(params.b, [0.0, 0.0, params.beta])

    def test_from_force_round_trip(self):
        b = np.array([3.0, -4.0, 12.0])
        params = LandauParams.from_magnitude(np.linalg.norm(b), b)
        assert params.beta == pytest.approx(13.0)
        assert np.allclose(params.axis, b / 13.0)
        assert beta_from_A(params.A) == pytest.approx(13.0, rel=1e-10)

    def test_zero_sentinel(self):
        params = LandauParams.zero()
        assert params.is_zero and np.isinf(params.A)
        params2 = LandauParams.from_magnitude(0.0)
        assert params2.is_zero

    def test_inconsistent_pairs_rejected(self):
        with pytest.raises(ValueError):
            LandauParams(A=2.0, beta=1.0, axis=[0, 0, 1.0])
        with pytest.raises(ValueError):
            LandauParams(A=5.0, beta=0.0, axis=[0, 0, 1.0])
        with pytest.raises(ValueError):
            LandauParams(A=np.inf, beta=2.0, axis=[0, 0, 1.0])
        with pytest.raises(ValueError):
            LandauParams.from_shape(2.0, axis=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("beta", [-1.0, -1e-300, -np.inf])
    def test_negative_magnitude_rejected(self, beta):
        # a negative magnitude would flip the axis without a word
        with pytest.raises(ValueError, match="beta must be >= 0"):
            LandauParams.from_magnitude(beta, [1.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        b = np.array([np.nan, 0.0, 0.0])
        for beta, axis in [(np.linalg.norm(b), b), (1.0, b),
                           (np.nan, [0.0, 0.0, 1.0])]:
            with pytest.raises(ValueError):
                LandauParams.from_magnitude(beta, axis)

    def test_underflowing_force_rejected(self):
        # below beta(A_MAX), the smallest magnitude A_from_beta inverts
        with pytest.raises(ValueError, match="outside invertible range"):
            LandauParams.from_magnitude(1e-300)

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [1.0, 2.0, -2.0],
                                      [0.0, -3.0, 0.0]])
    def test_zero_magnitude_is_the_zero_solution(self, axis):
        params = LandauParams.from_magnitude(0.0, axis)
        zero = LandauParams.zero()
        assert params.is_zero and params.A == zero.A
        assert np.array_equal(params.b, zero.b)
        assert np.array_equal(params.axis, zero.axis)

    def test_zero_magnitude_checks_its_axis(self):
        with pytest.raises(ValueError, match="axis must be nonzero"):
            LandauParams.from_magnitude(0.0, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("A", [np.nextafter(A_MAX, np.inf), 1e150, 1e160,
                                   np.inf])
    def test_shape_above_bracket_rejected(self, A):
        # A_from_beta inverts beta only up to A_MAX; far above it the
        # closed form overflows (A^2 = inf at A = 1e160)
        with pytest.raises(ValueError, match="A <= "):
            LandauParams.from_shape(A)

    def test_equal_parameters_compare_and_hash(self):
        params = LandauParams.from_shape(2.0, [0.0, 0.6, 0.8])
        same = LandauParams.from_shape(2.0, [0.0, 0.6, 0.8])
        assert params == same and hash(params) == hash(same)
        assert len({params, same, LandauParams.zero(),
                    LandauParams.from_magnitude(0.0, [1.0, 0.0, 0.0])}) == 2
        assert params != LandauParams.from_shape(2.0)
        assert params != LandauParams.from_shape(3.0, [0.0, 0.6, 0.8])
        assert params != params.b.tolist()

    def test_equal_force_is_not_equal_parameters(self):
        # inverting beta(A) can land A an ulp or more off the shape that
        # gave beta, with the same b (337 of these 400 shapes); so the CLI
        # compares forces by b
        apart = 0
        for A in np.linspace(1.01, 50.0, 400):
            shaped = LandauParams.from_shape(A)
            forced = LandauParams.from_magnitude(shaped.beta)
            assert forced.b.tolist() == shaped.b.tolist()
            assert (forced == shaped) == (forced.A == shaped.A)
            apart += forced.A != shaped.A
        assert apart > 0

    def test_shape_at_bracket_end_accepted(self):
        params = LandauParams.from_shape(A_MAX)
        assert params.A == A_MAX
        assert A_from_beta(params.beta) == pytest.approx(A_MAX, rel=1e-9)


class TestLandauEval:
    def test_on_axis_values(self):
        # theta = 0 collapses the radial factor to 2/(A-1)
        for r in (0.5, 1.0, 2.0):
            st = landau_eval(LandauParams.from_shape(2.0), [0.0, 0.0, r])
            assert np.allclose(st.u, [0.0, 0.0, 4.0 / r], rtol=1e-14)
            assert st.p == pytest.approx(4.0 / r**2, rel=1e-14)

    def test_opposite_axis_values(self):
        # theta = pi: inflow feeding the jet, velocity along +axis
        st = landau_eval(LandauParams.from_shape(2.0), [0.0, 0.0, -1.0])
        assert np.allclose(st.u, [0.0, 0.0, 4.0 / 3.0], rtol=1e-14)
        assert st.p == pytest.approx(-4.0 / 3.0, rel=1e-14)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(t=strategies.floats(0.0, 1.0),
           axis=strategies.tuples(*[strategies.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1),
           seed=strategies.integers(0, 2**32 - 1))
    def test_stokeslet_limit(self, t, axis, seed):
        # for small beta, U^b/beta approaches the Stokeslet S a of the unit
        # force a, and P^b/beta its pressure, with a gap of order beta:
        # beta log-uniform over [BETA_MIN, 0.5].  The velocity's g1 =
        # (A^2-1)/d^2 - 1 - c/d cancels to O(1/A), so u and grad u also carry
        # a rounding of about A eps, which is 0.044 beta at BETA_MIN
        beta = BETA_MIN * (0.5 / BETA_MIN)**t
        params = LandauParams.from_magnitude(beta, axis)
        a = params.axis
        rounding = 2.0 * params.A * np.finfo(float).eps
        pts = np.random.default_rng(seed).normal(size=(200, 3))
        state = landau_eval(params, pts)
        r = np.linalg.norm(pts, axis=1)
        e = pts / r[:, None]
        c = e @ a
        u = (a + c[:, None] * e) / (8.0 * np.pi * r[:, None])
        # d_i u_j of the Stokeslet, (a_i e_j - e_i a_j + c d_ij - 3c e_i e_j)
        # / (8 pi r^2)
        grad = (a[:, None] * e[:, None, :] - e[:, :, None] * a
                + c[:, None, None] * (np.eye(3) - 3.0 * e[:, :, None]
                                      * e[:, None, :])) / (
            8.0 * np.pi * r[:, None, None]**2)
        u_gap = (np.max(np.linalg.norm(state.u / beta - u, axis=1))
                 / np.max(np.linalg.norm(u, axis=1)))
        assert 0.005 * beta - rounding <= u_gap <= 0.05 * beta + rounding
        grad_gap = (np.max(np.linalg.norm(state.grad_u / beta - grad,
                                          axis=(1, 2)))
                    / np.max(np.linalg.norm(grad, axis=(1, 2))))
        assert 0.01 * beta - rounding <= grad_gap <= 0.06 * beta + rounding
        # r^2 P^b is a function of c alone
        p_gap = np.max(np.abs(r**2 * state.p / beta - c / (4.0 * np.pi)))
        assert 0.001 * beta <= p_gap <= 0.002 * beta

    def test_zero_params_give_zero_fields(self):
        st = landau_eval(LandauParams.zero(), [0.3, -0.2, 0.9])
        assert np.all(st.u == 0.0) and st.p == 0.0 and np.all(st.grad_u == 0.0)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            landau_eval(LandauParams.from_shape(2.0), [0.0, 0.0, 0.0])

    def test_matches_spherical_coordinate_formula(self):
        # independent oracle: assemble u from the e_r / e_theta components
        params = LandauParams.from_shape(3.0)
        A = 3.0
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 3))
        r = np.linalg.norm(pts, axis=1)
        keep = np.abs(pts[:, 2] / r) < 0.99   # stay away from the poles
        pts, r = pts[keep], r[keep]
        ct = pts[:, 2] / r
        st_all = landau_eval(params, pts)

        e_r = pts / r[:, None]
        phi_angle = np.arctan2(pts[:, 1], pts[:, 0])
        stheta = np.sqrt(1.0 - ct**2)
        e_theta = np.stack([ct * np.cos(phi_angle), ct * np.sin(phi_angle),
                            -stheta], axis=1)
        u_r = (2.0 / r) * ((A**2 - 1) / (A - ct)**2 - 1.0)
        u_t = -2.0 * stheta / (r * (A - ct))
        oracle = u_r[:, None] * e_r + u_t[:, None] * e_theta
        assert np.max(np.linalg.norm(st_all.u - oracle, axis=1)) < 1e-12 * np.max(np.abs(oracle))

    def test_batch_shapes(self):
        params = LandauParams.from_shape(2.0)
        single = landau_eval(params, [0.1, 0.2, 0.3])
        assert single.u.shape == (3,) and single.grad_u.shape == (3, 3)
        batch = landau_eval(params, np.ones((4, 5, 3)))
        assert batch.u.shape == (4, 5, 3)
        assert batch.grad_u.shape == (4, 5, 3, 3)
        assert batch.p.shape == (4, 5)


class TestGradient:
    def test_divergence_free_at_random_points(self):
        params = LandauParams.from_shape(2.0)
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(1000, 3))
        st = landau_eval(params, pts)
        div = np.trace(st.grad_u, axis1=-2, axis2=-1)
        r = np.linalg.norm(pts, axis=1)
        speed = np.linalg.norm(st.u, axis=1)
        assert np.all(np.abs(div) <= 1e-9 * speed / r)

    def test_matches_central_differences_second_order(self):
        params = LandauParams.from_shape(2.0)
        pt = np.array([0.4, -0.3, 0.7])
        grad = landau_eval(params, pt).grad_u

        def fd_grad(h):
            g = np.empty((3, 3))
            for m in range(3):
                dx = np.zeros(3)
                dx[m] = h
                g[m] = (landau_eval(params, pt + dx).u
                        - landau_eval(params, pt - dx).u) / (2.0 * h)
            return g

        err_h = np.max(np.abs(fd_grad(1e-3) - grad))
        err_h2 = np.max(np.abs(fd_grad(5e-4) - grad))
        assert err_h / err_h2 == pytest.approx(4.0, rel=0.15)

    def test_pressure_homogeneity(self):
        # p is (-2)-homogeneous: x . grad relation checked through rescale
        params = LandauParams.from_shape(5.0)
        x = np.array([0.2, 0.1, -0.4])
        st1 = landau_eval(params, x)
        st2 = landau_eval(params, 3.0 * x)
        assert st1.p == pytest.approx(9.0 * st2.p, rel=1e-12)


def oracle_laplacian(A, axis, x, dps=40):
    """Delta u at x from mpmath's second derivatives of the closed-form u,
    at dps digits, for the float A, axis and x as given."""
    import mpmath as mp

    with mp.workdps(dps):
        A, a, x = mp.mpf(A), [mp.mpf(v) for v in axis], [mp.mpf(v) for v in x]

        def component(j):
            def u_j(*y):
                r = mp.sqrt(y[0]**2 + y[1]**2 + y[2]**2)
                c = (y[0] * a[0] + y[1] * a[1] + y[2] * a[2]) / r
                d = A - c
                g1 = (A * A - 1) / d**2 - 1 - c / d
                return 2 / r * (g1 * y[j] / r + a[j] / d)
            return u_j

        return np.array([float(sum(mp.diff(component(j), x, order)
                                   for order in ((2, 0, 0), (0, 2, 0),
                                                 (0, 0, 2))))
                         for j in range(3)])


class TestLaplacian:
    @pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-3, 1e-6])
    def test_matches_mpmath_oracle(self, eps):
        # tilted axes, 8 points within 5 jet widths sqrt(2 eps) of the axis
        # and 4 anywhere.  d = A - c holds c only to ulp(1)/eps of itself,
        # so the error bound, relative to the size of the two terms of
        # Delta u = (4 (A^2-1)/(r^3 d^3)) (axis - 3 (A c - 1)/d e), is a
        # multiple of eps64/eps plus a floor
        rng = np.random.default_rng(int(-np.log10(eps)))
        eps64 = np.finfo(float).eps
        for _ in range(3):
            params = LandauParams.from_shape(1.0 + eps, rng.normal(size=3))
            axis, A = params.axis, params.A
            perp = rng.normal(size=(8, 3))
            perp -= np.outer(perp @ axis, axis)
            perp /= np.linalg.norm(perp, axis=1)[:, None]
            theta = np.sqrt(2.0 * eps) * rng.uniform(0.0, 5.0, 8)
            dirs = np.vstack([np.cos(theta)[:, None] * axis
                              + np.sin(theta)[:, None] * perp,
                              rng.normal(size=(4, 3))])
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            pts = rng.uniform(0.1, 2.0, len(dirs))[:, None] * dirs
            stages = _Stages(params, pts)
            r, c, d = stages.r, stages.c, stages.d
            terms = (4.0 * (A * A - 1.0) / (r * d)**3
                     * (1.0 + 3.0 * np.abs(A * c - 1.0) / d))
            oracle = np.array([oracle_laplacian(A, axis, x) for x in pts])
            err = np.linalg.norm(stages.laplacian() - oracle, axis=1)
            assert np.all(err <= (8.0 / (A - 1.0) + 8.0) * eps64 * terms)


class TestFluxTensor:
    def test_pressure_only(self):
        st = FlowState(u=np.zeros(3), p=1.0, grad_u=np.zeros((3, 3)))
        assert np.allclose(flux_tensor(st), np.eye(3))

    def test_advection_only(self):
        st = FlowState(u=np.array([1.0, 0.0, 0.0]), p=0.0,
                       grad_u=np.zeros((3, 3)))
        assert np.allclose(flux_tensor(st), np.diag([1.0, 0.0, 0.0]))

    def test_landau_entry_against_finite_differences(self):
        params = LandauParams.from_shape(2.0)
        pt = np.array([0.0, 0.0, 1.0])
        st = landau_eval(params, pt)
        h = 1e-6
        dz_u3 = (landau_eval(params, pt + [0, 0, h]).u[2]
                 - landau_eval(params, pt - [0, 0, h]).u[2]) / (2.0 * h)
        expected = st.p + st.u[2]**2 - 2.0 * dz_u3
        assert flux_tensor(st)[2, 2] == pytest.approx(expected, rel=1e-9)

    def test_symmetry_exact(self):
        params = LandauParams.from_shape(1.5)
        rng = np.random.default_rng(7)
        T = flux_tensor(landau_eval(params, rng.normal(size=(100, 3))))
        assert np.array_equal(T, np.swapaxes(T, -2, -1))

    def test_scaled_magnitude_bounded_near_origin(self):
        # |T| ~ |x|^-2 exactly, so r^2 |T| is a bounded function of angle
        params = LandauParams.from_shape(2.0)
        rng = np.random.default_rng(13)
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        values = []
        for r in np.geomspace(0.01, 1.0, 12):
            T = flux_tensor(landau_eval(params, r * dirs))
            values.append(r**2 * np.linalg.norm(T, axis=(1, 2)))
        values = np.array(values)
        assert values.max() < 100.0
        # homogeneity makes the scaled magnitude radius independent
        assert np.max(np.abs(values - values[0])) < 1e-9 * values.max()

    def test_non_finite_rejected(self):
        st = FlowState(u=np.array([np.inf, 0, 0]), p=0.0, grad_u=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            flux_tensor(st)


class TestNsResidual:
    def test_small_at_unit_distance(self):
        res = ns_residual(LandauParams.from_shape(2.0), [0.0, 0.0, 1.0])
        assert np.linalg.norm(res) < 1e-6

    def test_zero_for_zero_force(self):
        res = ns_residual(LandauParams.zero(), [0.2, 0.5, -0.1])
        assert np.all(res == 0.0)

    def test_scaled_bound_near_origin(self):
        x = 0.01 * np.ones(3) / np.sqrt(3.0)
        res = ns_residual(LandauParams.from_shape(2.0), x)
        assert np.linalg.norm(res) * 0.01**3 < 1e-4


class TestShapeRule:
    """A result at x is the result on the flat batch x.reshape(-1, 3),
    reshaped to x's lead shape; one point is the lead shape ().  The
    "landau" probe is landau_eval."""

    PARAMS = LandauParams.from_magnitude(3.0, [0.3, -0.4, 0.866])
    LEADS = [(), (1,), (4,), (2, 3)]

    @staticmethod
    def points(lead):
        rng = np.random.default_rng(7)
        return rng.uniform(0.3, 1.2, lead + (3,)) * rng.choice([-1.0, 1.0],
                                                                lead + (3,))

    @classmethod
    def probes(cls):
        landau = LandauField(cls.PARAMS)

        def samples(pts):
            state = landau_eval(cls.PARAMS, pts)
            return np.column_stack([state.u, state.p])

        sampled = CallableField(samples)
        return {"landau": landau, "callable": sampled,
                "rescaled": RescaledField(sampled, 0.5)}

    @staticmethod
    def assert_reshaped(result, flat, lead, value_shape):
        assert np.shape(result) == lead + value_shape
        assert np.array_equal(result, np.reshape(flat, lead + value_shape))

    @pytest.mark.parametrize("lead", LEADS)
    def test_ns_residual(self, lead):
        x = self.points(lead)
        self.assert_reshaped(ns_residual(self.PARAMS, x),
                             ns_residual(self.PARAMS, x.reshape(-1, 3)),
                             lead, (3,))

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("name", ["landau", "callable", "rescaled"])
    def test_probes(self, lead, name):
        probe = self.probes()[name]
        x = self.points(lead)
        state, flat = probe(x), probe(x.reshape(-1, 3))
        self.assert_reshaped(state.u, flat.u, lead, (3,))
        self.assert_reshaped(state.p, flat.p, lead, ())
        self.assert_reshaped(state.grad_u, flat.grad_u, lead, (3, 3))
        self.assert_reshaped(probe.velocity(x),
                             probe.velocity(x.reshape(-1, 3)), lead, (3,))

    @pytest.mark.parametrize("name", ["landau", "callable", "rescaled"])
    def test_one_point_pressure_is_a_float(self, name):
        assert isinstance(self.probes()[name]([0.3, -0.5, 0.7]).p, float)


class TestCallableField:
    def test_velocity_rows_give_zero_pressure(self):
        field = CallableField(lambda pts: 2.0 * pts)
        state = field(np.array([[0.5, -1.0, 2.0]]))
        assert np.array_equal(state.p, [0.0])
        assert np.allclose(state.grad_u[0], 2.0 * np.eye(3), rtol=1e-8)

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_other_widths_are_rejected(self, width):
        field = CallableField(lambda pts: np.zeros((len(pts), width)))
        with pytest.raises(ValueError, match="sampler"):
            field(np.ones((4, 3)))
        with pytest.raises(ValueError, match="sampler"):
            field.velocity(np.ones((4, 3)))


class TestRescale:
    def test_identity_factor(self):
        params = LandauParams.from_shape(2.0)
        x = np.array([0.3, 0.1, -0.8])
        st = RescaledField(LandauField(params), 1.0)(x)
        ref = landau_eval(params, x)
        assert np.array_equal(st.u, ref.u) and st.p == ref.p

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_landau_homogeneity(self, lam):
        params = LandauParams.from_shape(2.0)
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(50, 3))
        st = RescaledField(LandauField(params), lam)(pts)
        ref = landau_eval(params, pts)
        assert np.allclose(st.u, ref.u, rtol=1e-12, atol=0.0)
        assert np.allclose(st.p, ref.p, rtol=1e-12, atol=0.0)
        assert np.allclose(st.grad_u, ref.grad_u, rtol=1e-12, atol=1e-13)

    def test_nonhomogeneous_field_deviates(self):
        field = CallableField(lambda pts: np.stack(
            [np.sin(pts[:, 1]), np.zeros(len(pts)), np.zeros(len(pts))], axis=1))
        x = np.array([0.2, 0.7, 0.1])
        deviation = np.linalg.norm(RescaledField(field, 2.0)(x).u - field(x).u)
        assert deviation > 1e-3

    def test_bad_factor_rejected(self):
        field = LandauField(LandauParams.from_shape(2.0))
        with pytest.raises(ValueError):
            RescaledField(field, 0.0)([0, 0, 1.0])
        with pytest.raises(ValueError):
            RescaledField(field, -2.0)([0, 0, 1.0])


class TestRotationEquivariance:
    def test_identity_rotation(self):
        params = LandauParams.from_shape(2.0)
        assert equivariance_defect(params, np.eye(3), [0.3, -0.2, 0.9]) == 0.0

    def test_quarter_turn(self):
        R = np.array([[1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0],
                      [0.0, 1.0, 0.0]])
        params = LandauParams.from_shape(2.0)
        assert equivariance_defect(params, R, [0.3, -0.2, 0.9]) <= 1e-10

    def test_random_rotations(self):
        rng = np.random.default_rng(23)
        b = np.array([1.0, 2.0, 2.0])
        params = LandauParams.from_magnitude(np.linalg.norm(b), b)
        pts = rng.normal(size=(20, 3))
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            assert equivariance_defect(params, Q, pts) <= 1e-10

    def test_zero_force(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert equivariance_defect(LandauParams.zero(), R, [1.0, 0, 0]) == 0.0


class TestSupSpeedMonotonicity:
    def test_nondecreasing_in_force_magnitude(self):
        betas = np.linspace(1.0, 100.0, 50)
        sups = [sup_speed_on_unit_sphere(LandauParams.from_magnitude(b))
                for b in betas]
        assert np.all(np.diff(sups) >= 0.0)

    def test_limits(self):
        assert sup_speed_on_unit_sphere(LandauParams.zero()) == 0.0
        small = sup_speed_on_unit_sphere(LandauParams.from_magnitude(1e-3))
        large = sup_speed_on_unit_sphere(LandauParams.from_magnitude(1e3))
        assert small < 1e-3 and large > 1e2
