"""Tests for quadrature rules, norms, and the flux-integral force extraction."""

import numpy as np
import pytest

from pointflow import (
    CallableField, LandauField, LandauParams, ball_samples, ball_shell_rule,
    decay_report, flux_integral, landau_eval, lorentz_quasinorm,
    sobolev_norm, sphere_rule,
)

# uniform-sphere moments: E[x^2a y^2b z^2c] = prod (2k-1)!! / (2a+2b+2c+1)!!
INT_X2Y4_SPHERE = 4.0 * np.pi * 3.0 / 105.0


class TestSphereRule:
    def test_weights_sum_to_area(self):
        for R in (1.0, 2.0, 0.3):
            rule = sphere_rule(R, 16)
            assert rule.weights.sum() == pytest.approx(4 * np.pi * R**2, rel=1e-13)
            assert np.all(np.linalg.norm(rule.nodes, axis=1) == pytest.approx(R, rel=1e-14))

    def test_constant_integrand(self):
        rule = sphere_rule(1.0, 8)
        assert rule.weights @ np.ones(rule.n_nodes) == pytest.approx(4 * np.pi, rel=1e-13)

    def test_degree_two_moment(self):
        rule = sphere_rule(1.0, 8)
        value = rule.weights @ rule.nodes[:, 2]**2
        assert value == pytest.approx(4 * np.pi / 3.0, rel=1e-12)

    def test_odd_moment_vanishes(self):
        rule = sphere_rule(2.0, 12)
        value = rule.weights @ (rule.nodes[:, 0] * rule.nodes[:, 1])
        assert abs(value) < 1e-13 * rule.measure

    def test_declared_exactness(self):
        # degree 6 polynomial with n_theta = 4, n_phi = 8: within declaration
        rule = sphere_rule(1.0, 4, 8)
        assert rule.degree == 7
        assert rule.weights @ rule.nodes[:, 2]**6 == pytest.approx(
            4 * np.pi / 7.0, rel=1e-13)
        assert rule.weights @ (
            rule.nodes[:, 0]**2 * rule.nodes[:, 1]**4) == pytest.approx(
            INT_X2Y4_SPHERE, rel=1e-13)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sphere_rule(1.0, 1)
        with pytest.raises(ValueError):
            sphere_rule(1.0, 8, 3)
        with pytest.raises(ValueError):
            sphere_rule(-1.0, 8)


class TestBallShellRule:
    def test_full_ball_volume_and_constant(self):
        rule = ball_shell_rule(0.0, 1.0, 12, 12)
        assert rule.weights.sum() == pytest.approx(4 * np.pi / 3.0, rel=1e-12)
        assert rule.weights @ np.ones(rule.n_nodes) == pytest.approx(
            4 * np.pi / 3.0, rel=1e-10)

    def test_inverse_radius_integrand(self):
        rule = ball_shell_rule(0.0, 1.0, 24, 12)
        value = rule.weights @ (1.0 / np.linalg.norm(rule.nodes, axis=1))
        assert value == pytest.approx(2 * np.pi, rel=1e-8)

    def test_inverse_square_integrand(self):
        rule = ball_shell_rule(0.0, 1.0, 24, 12)
        value = rule.weights @ (1.0 / np.linalg.norm(rule.nodes, axis=1)**2)
        assert value == pytest.approx(4 * np.pi, rel=1e-6)

    @pytest.mark.parametrize("power, exact", [(-1, 2 * np.pi), (-2, 4 * np.pi)])
    def test_monotone_radial_refinement(self, power, exact):
        # the r = s^2 grading turns r^a r^2 dr into 2 s^(2a+5) ds, a
        # polynomial for r^power and for r^-1.5 (2 s^2 ds), so the rule is
        # exact and refinement can only move round-off noise
        floor = 1e-13 * exact
        errors = []
        for n_r in (4, 8, 16, 32):
            rule = ball_shell_rule(0.0, 1.0, n_r, 8)
            value = rule.weights @ (
                np.linalg.norm(rule.nodes, axis=1)**float(power))
            errors.append(abs(value - exact))
            half = rule.weights @ np.linalg.norm(rule.nodes, axis=1)**-1.5
            assert abs(half - 8.0 * np.pi / 3.0) <= 1e-13 * 8.0 * np.pi / 3.0
        assert all(e2 <= max(e1, floor) for e1, e2 in zip(errors, errors[1:]))
        # a log r factor leaves 4 s^(2 power + 5) log s ds, which no
        # polynomial matches, so the error is truncation and must fall
        # strictly; exact value is -exact / (power + 3)
        def log_integrand(p):
            r = np.linalg.norm(p, axis=1)
            return r**float(power) * np.log(r)

        errors = []
        for n_r in (4, 8, 16, 32):
            rule = ball_shell_rule(0.0, 1.0, n_r, 8)
            value = rule.weights @ log_integrand(rule.nodes)
            errors.append(abs(value + exact / (power + 3)))
        assert errors[-1] > 10 * floor, "refinement check would measure round-off"
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < errors[0]

    def test_annulus_volume(self):
        rule = ball_shell_rule(0.5, 1.5, 8, 8)
        assert rule.weights.sum() == pytest.approx(
            4 * np.pi / 3.0 * (1.5**3 - 0.5**3), rel=1e-12)

    def test_shifted_center(self):
        center = np.array([0.2, -0.1, 0.4])
        rule = ball_shell_rule(0.1, 0.3, 6, 6, center=center)
        rho = np.linalg.norm(rule.nodes - center, axis=1)
        assert rho.min() > 0.1 and rho.max() < 0.3
        assert rule.weights.sum() == pytest.approx(
            4 * np.pi / 3.0 * (0.3**3 - 0.1**3), rel=1e-12)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ball_shell_rule(1.0, 0.5, 8)
        with pytest.raises(ValueError):
            ball_shell_rule(0.0, 1.0, 2)


class TestFluxIntegral:
    def test_recovers_force_at_reference_resolution(self):
        params = LandauParams.from_shape(2.0)
        b = flux_integral(LandauField(params), 1.0, n_theta=64)
        assert np.linalg.norm(b - params.b) < 1e-6 * params.beta

    def test_radius_independence(self):
        params = LandauParams.from_shape(2.0)
        forces = [flux_integral(LandauField(params), R)
                  for R in np.linspace(0.25, 1.75, 7)]
        scale = np.linalg.norm(forces[0])
        for i in range(len(forces)):
            for j in range(i + 1, len(forces)):
                assert np.linalg.norm(forces[i] - forces[j]) < 1e-8 * scale

    def test_stable_under_refinement(self):
        params = LandauParams.from_shape(1.5)
        coarse = flux_integral(LandauField(params), 1.0, n_theta=64)
        fine = flux_integral(LandauField(params), 1.0, n_theta=128)
        assert np.linalg.norm(fine - coarse) < 1e-9 * np.linalg.norm(coarse)

    def test_zero_field(self):
        zero = LandauField(LandauParams.zero())
        assert np.array_equal(flux_integral(zero, 1.0), np.zeros(3))

    def test_general_axis(self):
        axis = np.array([2.0, -1.0, 2.0]) / 3.0
        params = LandauParams.from_shape(3.0, axis=axis)
        b = flux_integral(LandauField(params), 0.7)
        assert np.linalg.norm(b - params.b) < 1e-8 * params.beta

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(31)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        params = LandauParams.from_shape(2.0)
        b = flux_integral(LandauField(params), 1.0)
        rotated = LandauParams(A=params.A, beta=params.beta,
                               axis=Q @ params.axis)
        b_rot = flux_integral(LandauField(rotated), 1.0)
        assert np.linalg.norm(b_rot - Q @ b) < 1e-10 * np.linalg.norm(b)

    def test_finite_difference_gradient_route(self):
        # probe with analytic velocity/pressure but differenced gradient
        params = LandauParams.from_shape(2.0)

        def samples(pts):
            state = landau_eval(params, pts)
            return np.column_stack([state.u, state.p])

        probe = CallableField(samples)
        b = flux_integral(probe, 1.0, n_theta=64)
        assert np.linalg.norm(b - params.b) < 1e-6 * params.beta

    def test_failing_probe_propagates_after_one_call(self):
        calls = []

        def bad_velocity(pts):
            calls.append(len(pts))
            if np.any(pts[:, 2] > 0.5):
                raise FloatingPointError("synthetic failure")
            return np.zeros_like(pts)

        probe = CallableField(bad_velocity)
        with pytest.raises(FloatingPointError, match="^synthetic failure$"):
            flux_integral(probe, 1.0, n_theta=8)
        # the sampler's first call, on all 2 * 8^2 sphere nodes, raises;
        # no node is evaluated again on its own
        assert calls == [2 * 8**2]

    def test_non_finite_probe_is_refused_by_flux_tensor(self):
        probe = CallableField(
            lambda pts: np.where(pts[:, 2:] > 0.5, np.nan, 0.0)
            * np.ones((len(pts), 3)))
        with pytest.raises(ValueError, match="^flow state must be finite$"):
            flux_integral(probe, 1.0, n_theta=8)


class TestLorentzQuasinorm:
    def test_weak_l3_of_inverse_radius(self):
        values, weights = ball_samples(
            lambda pts: 1.0 / np.linalg.norm(pts, axis=1), 2.0,
            n_r=400, n_theta=16)
        report = lorentz_quasinorm(values, weights, 3.0, np.inf)
        exact = (4 * np.pi / 3.0)**(1.0 / 3.0)
        assert report.value == pytest.approx(exact, rel=0.02)
        assert report.norm_id == "weak-L3"

    def test_lpp_equals_lp_exactly(self):
        rng = np.random.default_rng(37)
        values = rng.random(500)
        weights = 0.1 + rng.random(500)
        report = lorentz_quasinorm(values, weights, 3.0, 3.0)
        plain = (np.sum(weights * values**3))**(1.0 / 3.0)
        assert report.value == pytest.approx(plain, rel=1e-12)

    def test_indicator_against_analytic_value(self):
        values, weights = ball_samples(
            lambda pts: (np.linalg.norm(pts, axis=1) <= 1.0).astype(float),
            2.0, n_r=400, n_theta=8)
        report = lorentz_quasinorm(values, weights, 3.0, 3.0)
        plain = (np.sum(weights * values**3))**(1.0 / 3.0)
        assert report.value == pytest.approx(plain, rel=1e-12)
        assert report.value == pytest.approx((4 * np.pi / 3.0)**(1 / 3.0), rel=0.02)

    def test_finite_q_matches_the_unscaled_sum(self):
        # the terms are scaled by the largest one in log form; against the
        # unscaled sum only round-off moves, and q = inf keeps its expression
        rng = np.random.default_rng(47)
        values = 10.0 * rng.random(400)
        weights = rng.random(400) + 0.1
        order = np.argsort(values)[::-1]
        v, t = values[order], np.cumsum(weights[order])
        for p, q in [(3.0, 2.0), (2.5, 1.0), (3.0, 3.0), (2.0, 10.0)]:
            tq = np.diff(np.concatenate(([0.0], t**(q / p))))
            unscaled = (p / q * np.sum(v**q * tq))**(1.0 / q)
            assert lorentz_quasinorm(values, weights, p, q).value == (
                pytest.approx(unscaled, rel=1e-14))
        assert (lorentz_quasinorm(values, weights, 3.0, np.inf).value
                == float(np.max(t**(1.0 / 3.0) * v)))

    def test_finite_q_of_large_and_small_samples(self):
        # r^-2 on a ball: the unscaled powers of the largest samples and of
        # the smallest cumulative measures leave the float range at large
        # q; the scaled terms reproduce the unscaled value where it is
        # finite and stay positive and finite where it is not
        values, weights = ball_samples(
            lambda pts: np.sum(pts**2, axis=1)**-1.0, 2.0, n_r=400,
            n_theta=16)
        order = np.argsort(values)[::-1]
        v, t = values[order], np.cumsum(weights[order])
        for p, q in [(1.5, 64.0), (1.5, 40.0), (3.0, 64.0), (1.01, 64.0)]:
            tq = np.diff(np.concatenate(([0.0], t**(q / p))))
            unscaled = (p / q * np.sum(v**q * tq))**(1.0 / q)
            assert 0.0 < unscaled < np.inf
            assert lorentz_quasinorm(values, weights, p, q).value == (
                pytest.approx(unscaled, rel=1e-14))
        for scale in (1e-200, 1e200):
            with np.errstate(over="ignore", under="ignore"):
                tq = np.diff(np.concatenate(([0.0], t**(64.0 / 3.0))))
                unscaled = (3.0 / 64.0 * np.sum((scale * v)**64 * tq))
            assert unscaled in (0.0, np.inf)
            value = lorentz_quasinorm(scale * values, weights, 3.0, 64.0).value
            base = lorentz_quasinorm(values, weights, 3.0, 64.0).value
            assert value == pytest.approx(scale * base, rel=1e-13)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(41)
        values = rng.random(300)
        weights = rng.random(300) + 0.5
        for p, q in [(3.0, np.inf), (2.0, 1.0), (2.5, 4.0)]:
            base = lorentz_quasinorm(values, weights, p, q).value
            scaled = lorentz_quasinorm(5.0 * values, weights, p, q).value
            assert scaled == pytest.approx(5.0 * base, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(43)
        values = rng.random(200)
        weights = rng.random(200) + 0.1
        perm = rng.permutation(200)
        a = lorentz_quasinorm(values, weights, 3.0, np.inf).value
        b = lorentz_quasinorm(values[perm], weights[perm], 3.0, np.inf).value
        assert a == pytest.approx(b, rel=1e-13)

    def test_exponent_domain_errors(self):
        values, weights = np.ones(3), np.ones(3)
        for p in (1.0, 0.5, np.inf):
            with pytest.raises(ValueError):
                lorentz_quasinorm(values, weights, p, 2.0)
        with pytest.raises(ValueError):
            lorentz_quasinorm(values, weights, 2.0, 0.5)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            lorentz_quasinorm([], [], 2.0, 2.0)
        with pytest.raises(ValueError):
            lorentz_quasinorm([1.0], [0.0], 2.0, 2.0)


class TestSobolevNorm:
    def test_constant_field_on_unit_cube(self):
        grid = np.full((8, 8, 8), 2.5)
        report = sobolev_norm(grid, 1.0, 2.0)
        assert report.value == pytest.approx(2.5, rel=1e-12)

    def test_sine_field_against_closed_form(self):
        n = 64
        x = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        X = np.meshgrid(x, x, x, indexing="ij")
        field = np.stack([np.sin(X[0]), np.zeros((n, n, n)), np.zeros((n, n, n))])
        exact = 2.0 * np.sqrt(4.0 * np.pi**3)
        spectral = sobolev_norm(field, 2 * np.pi, 2.0)
        assert spectral.value == pytest.approx(exact, rel=1e-12)

    def test_zero_field(self):
        assert sobolev_norm(np.zeros((3, 8, 8, 8)), 1.0, 2.0).value == 0.0

    @pytest.mark.parametrize("n", [16, 15])
    def test_real_fft_gradient_matches_complex_formula(self, n):
        from pointflow.quadrature import _periodic_gradient
        box = 3.0
        values = np.random.default_rng(2).standard_normal((2, n, n, n))
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=box / n)
        vhat = np.fft.fftn(values, axes=(1, 2, 3))
        reference = np.stack([
            np.fft.ifftn(1j * k1.reshape([n if a == axis else 1
                                          for a in range(3)]) * vhat,
                         axes=(1, 2, 3)).real
            for axis in range(3)])
        grads = _periodic_gradient(values, box)
        assert grads.shape == reference.shape
        assert np.max(np.abs(grads - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_validation(self):
        with pytest.raises(ValueError):
            sobolev_norm(np.zeros((4, 4, 4)), 1.0, 2.0)
        with pytest.raises(ValueError):
            sobolev_norm(np.zeros((8, 8, 8)), 1.0, 3.5)


class TestDecayReport:
    def test_matching_reference_is_zero(self):
        params = LandauParams.from_shape(2.0)
        report = decay_report(LandauField(params), params, 2.0,
                              [0.5, 0.25, 0.1])
        assert report.value == 0.0

    def test_perturbation_sets_the_scale(self):
        params = LandauParams.from_shape(2.0)
        eps = 1e-3

        def pert(pts):
            u = landau_eval(params, pts).u
            u = u + eps * np.stack([np.sin(pts[:, 1]), np.zeros(len(pts)),
                                    np.zeros(len(pts))], axis=1)
            return u

        field = CallableField(pert)
        shells = [0.8, 0.4, 0.2]
        report = decay_report(field, params, 2.0, shells)
        # oracle: evaluate the perturbation itself on the same shells
        expected = 0.0
        for R in shells:
            theta = np.linspace(0, np.pi, 201)[1:-1]
            sup = np.abs(eps * np.sin(R * np.cos(theta))).max()
            sup = max(sup, abs(eps * np.sin(R)))
            expected = max(expected, R**0.5 * sup)
        assert report.value == pytest.approx(expected, rel=0.05)

    def test_mismatched_reference_grows_as_shells_shrink(self):
        field = LandauField(LandauParams.from_shape(2.0))
        reference = LandauParams.from_shape(3.0)
        report = decay_report(field, reference, 2.0, [0.4, 0.2, 0.1, 0.05])
        weighted = report.meta["shell_weighted"]
        assert all(b > a for a, b in zip(weighted, weighted[1:]))

    def test_validation(self):
        params = LandauParams.from_shape(2.0)
        with pytest.raises(ValueError):
            decay_report(LandauField(params), params, 2.0, [1.5])
        with pytest.raises(ValueError):
            decay_report(LandauField(params), params, 0.5, [0.5])
        with pytest.raises(ValueError):
            decay_report(LandauField(params), params, 2.0, [])
