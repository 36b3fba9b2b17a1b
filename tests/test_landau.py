"""Tests for the closed-form Landau solution machinery."""

import numpy as np
import pytest

from pointflow import (
    A_from_beta, CallableField, FlowState, LandauParams, RescaledField,
    beta_from_A, flux_tensor, landau_eval, ns_residual,
    rotate_equivariance_check, sup_speed_on_unit_sphere,
)

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
        params = LandauParams.from_force(b)
        assert params.beta == pytest.approx(13.0)
        assert np.allclose(params.axis, b / 13.0)
        assert beta_from_A(params.A) == pytest.approx(13.0, rel=1e-10)

    def test_zero_sentinel(self):
        params = LandauParams.zero()
        assert params.is_zero and np.isinf(params.A)
        params2 = LandauParams.from_force([0.0, 0.0, 0.0])
        assert params2.is_zero

    def test_inconsistent_pairs_rejected(self):
        with pytest.raises(ValueError):
            LandauParams(b=[0, 0, 1.0], A=2.0, beta=1.0, axis=[0, 0, 1.0])
        with pytest.raises(ValueError):
            LandauParams(b=[0, 0, 0.0], A=5.0, beta=0.0, axis=[0, 0, 1.0])
        with pytest.raises(ValueError):
            LandauParams(b=[0, 0, 2.0], A=np.inf, beta=2.0, axis=[0, 0, 1.0])
        with pytest.raises(ValueError):
            LandauParams.from_shape(2.0, axis=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("beta", [-1.0, -1e-300, -np.inf])
    def test_negative_magnitude_rejected(self, beta):
        # a negative magnitude would flip the axis without a word
        with pytest.raises(ValueError, match="beta must be >= 0"):
            LandauParams.from_magnitude(beta, [1.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LandauParams.from_force([np.nan, 0.0, 0.0])


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

    def test_stokeslet_limit(self):
        # for small beta the field approaches the point-force Stokeslet
        params = LandauParams.from_shape(1e5)
        beta = params.beta
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 3))
        st = landau_eval(params, pts)
        r = np.linalg.norm(pts, axis=1)
        e = pts / r[:, None]
        stokeslet = beta / (8.0 * np.pi * r[:, None]) * (
            np.array([0.0, 0.0, 1.0]) + e[:, 2:3] * e)
        assert np.max(np.linalg.norm(st.u - stokeslet, axis=1)) < 1e-4 * beta
        p_stokeslet = beta * pts[:, 2] / (4.0 * np.pi * r**3)
        assert np.max(np.abs(st.p - p_stokeslet)) < 1e-4 * beta

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
        div = st.divergence()
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
        res = ns_residual(LandauParams.from_shape(2.0), [0.0, 0.0, 1.0], h=1e-3)
        assert np.linalg.norm(res) < 1e-6

    def test_zero_for_zero_force(self):
        res = ns_residual(LandauParams.zero(), [0.2, 0.5, -0.1], h=1e-3)
        assert np.all(res == 0.0)

    def test_scaled_bound_near_origin(self):
        x = 0.01 * np.ones(3) / np.sqrt(3.0)
        res = ns_residual(LandauParams.from_shape(2.0), x, h=1e-5)
        assert np.linalg.norm(res) * 0.01**3 < 1e-4

    def test_stencil_guard(self):
        with pytest.raises(ValueError):
            ns_residual(LandauParams.from_shape(2.0), [0.0, 0.0, 0.01], h=0.01)


class TestRescale:
    def test_identity_factor(self):
        params = LandauParams.from_shape(2.0)
        x = np.array([0.3, 0.1, -0.8])
        st = RescaledField(params, 1.0)(x)
        ref = landau_eval(params, x)
        assert np.array_equal(st.u, ref.u) and st.p == ref.p

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_landau_homogeneity(self, lam):
        params = LandauParams.from_shape(2.0)
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(50, 3))
        st = RescaledField(params, lam)(pts)
        ref = landau_eval(params, pts)
        assert np.allclose(st.u, ref.u, rtol=1e-12, atol=0.0)
        assert np.allclose(st.p, ref.p, rtol=1e-12, atol=0.0)
        assert np.allclose(st.grad_u, ref.grad_u, rtol=1e-12, atol=1e-13)

    def test_nonhomogeneous_field_deviates(self):
        field = CallableField(velocity=lambda pts: np.stack(
            [np.sin(pts[:, 1]), np.zeros(len(pts)), np.zeros(len(pts))], axis=1))
        x = np.array([0.2, 0.7, 0.1])
        deviation = np.linalg.norm(RescaledField(field, 2.0)(x).u - field(x).u)
        assert deviation > 1e-3

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            RescaledField(LandauParams.from_shape(2.0), 0.0)([0, 0, 1.0])
        with pytest.raises(ValueError):
            RescaledField(LandauParams.from_shape(2.0), -2.0)([0, 0, 1.0])


class TestRotationEquivariance:
    def test_identity_rotation(self):
        params = LandauParams.from_shape(2.0)
        assert rotate_equivariance_check(params, np.eye(3), [0.3, -0.2, 0.9]) == 0.0

    def test_quarter_turn(self):
        R = np.array([[1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0],
                      [0.0, 1.0, 0.0]])
        params = LandauParams.from_shape(2.0)
        assert rotate_equivariance_check(params, R, [0.3, -0.2, 0.9]) <= 1e-10

    def test_random_rotations(self):
        rng = np.random.default_rng(23)
        params = LandauParams.from_force([1.0, 2.0, 2.0])
        pts = rng.normal(size=(20, 3))
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            assert rotate_equivariance_check(params, Q, pts) <= 1e-10

    def test_zero_force(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert rotate_equivariance_check(LandauParams.zero(), R, [1.0, 0, 0]) == 0.0

    def test_non_rotation_rejected(self):
        params = LandauParams.from_shape(2.0)
        with pytest.raises(ValueError):
            rotate_equivariance_check(params, 2.0 * np.eye(3), [1.0, 0, 0])
        with pytest.raises(ValueError):
            rotate_equivariance_check(params, -np.eye(3), [1.0, 0, 0])


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
