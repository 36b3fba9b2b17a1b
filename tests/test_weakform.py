"""Tests for divergence-free test functions and the Dirac-source pairing."""

import warnings

import numpy as np
import pytest

from pointflow import (
    CallableField, LandauField, LandauParams, ball_shell_rule,
    extract_force_weak, flux_integral, weak_residual, weakform,
)

E_Z = np.array([0.0, 0.0, 1.0])


class TestTestFunction:
    def test_plateau_value_exact(self):
        phi = weakform.TestFunction([0.1, -0.2, 0.0], 0.4, 0.9,
                                    [1.0, 2.0, -1.0])
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = np.array([0.1, -0.2, 0.0]) + 0.39 * rng.random((200, 1)) * dirs
        values = phi(pts)
        assert np.array_equal(values, np.tile([1.0, 2.0, -1.0], (200, 1)))
        assert np.array_equal(phi(np.array([0.1, -0.2, 0.0])), [1.0, 2.0, -1.0])

    def test_support_containment_exact(self):
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.3, 0.8, [0.0, 0.0, 1.0])
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(100, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = dirs * (0.8 + 2.0 * rng.random((100, 1)))
        assert np.all(phi(pts) == 0.0)
        assert np.all(phi.gradient(pts) == 0.0)
        assert np.all(phi.laplacian(pts) == 0.0)

    def test_divergence_free_everywhere(self):
        phi = weakform.TestFunction([0.05, 0.0, -0.1], 0.35, 1.1,
                                    [0.3, -1.0, 0.5])
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.3, 1.3, size=(1000, 3))
        div = np.trace(phi.gradient(pts), axis1=-2, axis2=-1)
        assert np.max(np.abs(div)) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, [0.0, 0.0, 1.0])
        pts = np.array([[0.7, 0.1, -0.2], [0.55, -0.3, 0.4], [0.0, 0.6, 0.55]])
        grad = phi.gradient(pts)
        h = 1e-6
        for m in range(3):
            dx = np.zeros(3)
            dx[m] = h
            fd = (phi(pts + dx) - phi(pts - dx)) / (2 * h)
            assert np.max(np.abs(grad[:, m, :] - fd)) < 1e-8

    def test_laplacian_matches_finite_differences(self):
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0,
                                    [1.0, -0.5, 2.0])
        pts = np.array([[0.7, 0.1, -0.2], [0.0, 0.6, 0.55]])
        lap = phi.laplacian(pts)
        h = 1e-5
        fd = np.zeros_like(lap)
        for m in range(3):
            dx = np.zeros(3)
            dx[m] = h
            fd += (phi(pts + dx) - 2.0 * phi(pts) + phi(pts - dx)) / h**2
        assert np.max(np.abs(lap - fd)) < 1e-5 * np.max(np.abs(lap))

    def test_laplacian_continuous_at_gluing_spheres(self):
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, [0.0, 0.0, 1.0])
        for rho in (0.5, 1.0):
            inner = phi.laplacian(np.array([rho - 1e-9, 0.0, 0.0]))
            outer = phi.laplacian(np.array([rho + 1e-9, 0.0, 0.0]))
            assert np.max(np.abs(inner - outer)) < 1e-5

    @pytest.mark.parametrize("rho", [1e-110, 1e-130, 1e-150])
    def test_no_warning_next_to_the_center(self, rho):
        # rho^3 underflows there; the plateau values are exact all the same
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, E_Z)
        x = np.array([[rho, 0.0, 0.0], [0.0, rho, -rho]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(phi.laplacian(x), np.zeros((2, 3)))
            assert np.array_equal(phi.gradient(x), np.zeros((2, 3, 3)))
            assert np.array_equal(phi(x), [E_Z, E_Z])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weakform.TestFunction([0, 0, 0], 0.8, 0.5, [0, 0, 1.0])
        with pytest.raises(ValueError):
            weakform.TestFunction([0, 0, 0], 0.0, 0.5, [0, 0, 1.0])
        with pytest.raises(ValueError):
            weakform.TestFunction([0, 0, 0], 0.2, 0.5, [0, 0, 0.0])


class TestWeakResidual:
    def test_landau_pairing_recovers_force_component(self):
        params = LandauParams.from_shape(2.0)
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, E_Z)
        value = weak_residual(LandauField(params), phi)
        assert value == pytest.approx(params.beta, rel=1e-8)

    def test_support_avoiding_origin_gives_zero(self):
        params = LandauParams.from_shape(2.0)
        phi = weakform.TestFunction([0.0, 0.0, 1.2], 0.075, 0.15, E_Z)
        value = weak_residual(LandauField(params), phi)
        assert abs(value) < 1e-6 * params.beta

    def test_zero_field(self):
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, E_Z)
        assert weak_residual(LandauField(LandauParams.zero()), phi) == 0.0

    def test_linearity_in_the_test_function(self):
        class PairSum:
            def __init__(self, f1, f2):
                self.f1, self.f2 = f1, f2

            def __call__(self, x):
                return self.f1(x) + self.f2(x)

            def gradient(self, x):
                return self.f1.gradient(x) + self.f2.gradient(x)

            def laplacian(self, x):
                return self.f1.laplacian(x) + self.f2.laplacian(x)

        params = LandauParams.from_shape(2.0)
        field = LandauField(params)
        phi1 = weakform.TestFunction([0.0, 0.0, 0.0], 0.3, 0.7,
                                     [0.0, 0.0, 1.0])
        phi2 = weakform.TestFunction([0.1, 0.0, 0.0], 0.2, 0.9,
                                     [1.0, 0.0, 0.0])
        rule = ball_shell_rule(1e-4, 1.05, 48, 32, center=np.zeros(3))
        lhs = weak_residual(field, PairSum(phi1, phi2), rule=rule)
        rhs = (weak_residual(field, phi1, rule=rule)
               + weak_residual(field, phi2, rule=rule))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_random_geometries_containing_origin(self):
        params = LandauParams.from_shape(2.0)
        field = LandauField(params)
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = 0.3 + 0.3 * rng.random()
            b = a + 0.2 + (1.4 - a - 0.2) * rng.random()
            center = rng.normal(size=3)
            center *= 0.8 * a * rng.random() / np.linalg.norm(center)
            result = extract_force_weak(field, center, a, b)
            assert np.linalg.norm(result.value - params.b) < 0.02 * params.beta

    def test_random_geometries_excluding_origin(self):
        params = LandauParams.from_shape(2.0)
        field = LandauField(params)
        rng = np.random.default_rng(13)
        for _ in range(5):
            b = 0.1 + 0.2 * rng.random()
            a = b * (0.3 + 0.4 * rng.random())
            center = rng.normal(size=3)
            center *= (b + 0.05 + rng.random()) / np.linalg.norm(center)
            result = extract_force_weak(field, center, a, b)
            assert np.linalg.norm(result.value) < 1e-6 * params.beta

    def test_refinement_at_least_halves_the_error(self):
        params = LandauParams.from_shape(2.0)
        field = LandauField(params)
        phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, E_Z)
        errors = []
        for n_r in (3, 6, 12, 24):
            value = weak_residual(field, phi, n_r=n_r, n_theta=2 * n_r)
            errors.append(abs(value - params.beta))
        floor = 1e-12 * params.beta
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= max(coarse / 2.0, floor)

    def test_agreement_with_flux_route(self):
        params = LandauParams.from_shape(2.0)
        field = LandauField(params)
        weak = extract_force_weak(field).value
        flux = flux_integral(field, 1.0)
        assert np.linalg.norm(weak - flux) < 1e-6 * params.beta


def flux_through(field, radii):
    """(m, 3) flux_integral values, one row per radius."""
    return np.array([flux_integral(field, eps) for eps in radii])


class TestDeltaLimitProbe:
    """The flux through shrinking spheres: constant for a point-force
    solution, the numerical witness of the Dirac-source extraction."""

    def test_landau_sequence_is_constant(self):
        params = LandauParams.from_shape(2.0)
        probes = flux_through(LandauField(params), [0.8, 0.4, 0.2, 0.1])
        assert probes.shape == (4, 3)
        scale = np.linalg.norm(probes[0])
        for i in range(4):
            assert np.linalg.norm(probes[i] - params.b) < 1e-7 * params.beta
            for j in range(i + 1, 4):
                assert np.linalg.norm(probes[i] - probes[j]) < 1e-7 * scale

    def test_zero_field_gives_zeros(self):
        probes = flux_through(LandauField(LandauParams.zero()), [0.5, 0.25])
        assert np.array_equal(probes, np.zeros((2, 3)))

    def test_perturbed_field_drifts(self):
        landau = LandauField(LandauParams.from_shape(2.0))

        def rows(pts):
            # Landau u plus a smooth perturbation, and the Landau p
            st = landau(pts)
            pert = np.stack([np.sin(pts[:, 1] + 0.7), np.sin(pts[:, 2] - 0.4),
                             np.sin(pts[:, 0] + 0.2)], axis=1)
            return np.column_stack([st.u + pert, st.p])

        field = CallableField(rows)
        probes = flux_through(field, [0.8, 0.4, 0.2, 0.1])
        scale = max(np.linalg.norm(p) for p in probes)
        deviation = max(np.linalg.norm(probes[i] - probes[j])
                        for i in range(4) for j in range(i + 1, 4))
        assert deviation > 1e-3 * scale
