"""The structural identities as properties over random parameters.

Homogeneity, rotation equivariance, radius independence of the flux, the
A -> beta -> A round trip, the beta and axis that from_magnitude keeps,
idempotence of the Leray projection, the plateau, support and divergence
of the test functions, and the bitwise pointwise evaluation of Landau
fields and test functions.  Hypothesis draws the parameters with
derandomize=True and a fixed example budget, so every run checks the same
examples; a seed it draws fixes the numpy points.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pointflow import (
    A_from_beta, LandauField, LandauParams, beta_from_A, flux_integral,
    landau_eval, leray_project, ns_residual, weakform,
)
from pointflow.landau import A_MAX, A_MIN, BETA_MIN, _as_points, _Stages
from pointflow.quadrature import NODE_BLOCK
from test_landau import equivariance_defect
from test_spectral import divergence_defect, from_physical

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)

seeds = st.integers(0, 2**32 - 1)
# A - 1 log-uniform over [1e-3, 1e3]: near-singular to Stokeslet-like flows
shapes = st.floats(-3.0, 3.0).map(lambda e: 1.0 + 10.0**e)
vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1)


def sphere_points(rng, m, rmin, rmax):
    """m points with radii uniform in [rmin, rmax) and uniform directions."""
    dirs = rng.normal(size=(m, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return (rmin + (rmax - rmin) * rng.random((m, 1))) * dirs


@PROPERTY
@given(A=shapes, axis=vectors, lam=st.floats(0.01, 100.0), seed=seeds)
def test_landau_eval_is_homogeneous(A, axis, lam, seed):
    # u(lam x) = u(x) / lam and p, grad u scale with lam^-2
    params = LandauParams.from_shape(A, axis)
    pts = sphere_points(np.random.default_rng(seed), 20, 0.1, 10.0)
    near, far = landau_eval(params, pts), landau_eval(params, lam * pts)
    assert np.allclose(lam * far.u, near.u, rtol=1e-11, atol=0.0)
    assert np.allclose(lam**2 * far.p, near.p, rtol=1e-11, atol=0.0)
    scale = np.max(np.abs(near.grad_u), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(lam**2 * far.grad_u - near.grad_u) <= 1e-11 * scale)


@PROPERTY
@given(A=shapes, axis=vectors, quaternion=vectors.flatmap(
    lambda v: st.floats(-1.0, 1.0).map(lambda w: np.append(v, w))),
    seed=seeds)
def test_landau_eval_is_rotation_equivariant(A, axis, quaternion, seed):
    w, x, y, z = quaternion / np.linalg.norm(quaternion)
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    params = LandauParams.from_shape(A, axis)
    pts = sphere_points(np.random.default_rng(seed), 20, 0.1, 10.0)
    speed = np.max(np.linalg.norm(landau_eval(params, pts).u, axis=1))
    assert equivariance_defect(params, R, pts) <= 1e-12 * speed


@PROPERTY
@given(A=shapes, axis=vectors, radii=st.lists(
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e), min_size=2, max_size=2))
def test_flux_is_independent_of_the_radius(A, axis, radii):
    # T scales as R^-2 and the sphere rule's weights as R^2, for every A
    params = LandauParams.from_shape(A, axis)
    b1, b2 = (flux_integral(LandauField(params), R, n_theta=32) for R in radii)
    assert np.linalg.norm(b1 - b2) <= 1e-11 * params.beta
    if A >= 2.0:
        # 32 polar nodes resolve the jet of A >= 2 to round-off
        assert np.linalg.norm(b1 - params.b) <= 1e-12 * params.beta


@PROPERTY
@given(exponent=st.floats(-6.0, 6.0))
def test_shape_magnitude_round_trip(exponent):
    # A - 1 log-uniform over [1e-6, 1e6]
    A = 1.0 + 10.0**exponent
    assert abs(A_from_beta(beta_from_A(A)) - A) <= 1e-9 * A


@PROPERTY
@given(t=st.floats(0.0, 1.0), axis=vectors)
def test_magnitude_and_axis_are_kept(t, axis):
    # beta log-uniform over [BETA_MIN, 1e6], below the 1e7 where A_from_beta's
    # A can miss LandauParams' consistency check
    beta = BETA_MIN * (1e6 / BETA_MIN)**t
    params = LandauParams.from_magnitude(beta, axis)
    assert params.beta == beta
    assert np.array_equal(params.axis, axis / np.linalg.norm(axis))


@PROPERTY
@given(n=st.sampled_from([8, 12, 16]), seed=seeds)
def test_leray_projection_is_idempotent(n, seed):
    samples = np.random.default_rng(seed).standard_normal((3, n, n, n))
    once = leray_project(from_physical(samples))
    twice = leray_project(once)
    assert np.max(np.abs(twice.coeff - once.coeff)) <= 1e-12 * np.max(
        np.abs(once.coeff))
    assert divergence_defect(once) <= 1e-12


@PROPERTY
@given(center=st.tuples(*[st.floats(-2.0, 2.0)] * 3).map(np.array),
       a=st.floats(0.01, 2.0), ratio=st.floats(1.01, 5.0),
       direction=vectors, seed=seeds)
def test_test_function_plateau_support_and_divergence(center, a, ratio,
                                                      direction, seed):
    b = a * ratio
    phi = weakform.TestFunction(center, a, b, direction)
    rng = np.random.default_rng(seed)
    plateau = center + sphere_points(rng, 50, 0.0, 0.99 * a)
    assert np.array_equal(phi(plateau), np.tile(direction, (50, 1)))
    assert np.array_equal(phi(center), direction)
    outside = center + sphere_points(rng, 50, 1.01 * b, 3.0 * b)
    for values in (phi(outside), phi.gradient(outside),
                   phi.laplacian(outside)):
        assert np.all(values == 0.0)
    # div phi = 0 to round-off on the transition annulus, where phi varies
    annulus = center + sphere_points(rng, 200, a, b)
    grad = phi.gradient(annulus)
    div = np.trace(grad, axis1=-2, axis2=-1)
    assert np.max(np.abs(div)) <= 1e-12 * np.max(np.abs(grad))


# the same (m, 3) points in every memory layout a caller may hand over
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "strided rows": lambda x: np.repeat(x, 2, axis=0)[::2],
    "strided columns": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
    # the transpose of a C-ordered (3, m) array
    "transposed": lambda x: np.ascontiguousarray(x.T).T,
}
WINDOWS = [*range(1, 12), 255, 256, 257, NODE_BLOCK - 1, NODE_BLOCK,
           NODE_BLOCK + 1]


def landau_stages(params):
    """Each Landau stage and the velocity as functions of (m, 3) points."""
    def stage(name):
        return lambda x: getattr(_Stages(params, _as_points(x)[0]), name)()
    return [*(stage(name) for name in ("u", "p", "grad", "gradp",
                                       "laplacian")),
            LandauField(params).velocity]


@settings(derandomize=True, max_examples=10, deadline=None)
@given(exponent=st.floats(np.log10(A_MIN - 1.0) + 0.05, np.log10(A_MAX - 1.0)),
       axis=vectors, direction=vectors, a=st.floats(0.2, 1.0),
       ratio=st.floats(1.05, 3.0), shift=st.integers(0, len(LAYOUTS) - 1),
       seed=seeds)
def test_a_points_values_depend_on_the_point_alone(exponent, axis, direction,
                                                   a, ratio, shift, seed):
    # a row of a batch equals the point alone, and every window of each
    # WINDOWS size, in one of the LAYOUTS by turn, equals its rows, to the
    # bit: blocked callers rely on it
    params = LandauParams.from_shape(1.0 + 10.0**exponent, axis)
    phi = weakform.TestFunction(0.1 * axis, a, a * ratio, direction)
    rng = np.random.default_rng(seed)
    pts = sphere_points(rng, NODE_BLOCK + 4, 0.05, 4.0)
    layouts = sorted(LAYOUTS)
    for kernel in [*landau_stages(params), lambda x: ns_residual(params, x),
                   phi, phi.gradient, phi.laplacian]:
        whole = kernel(pts)
        k = rng.integers(len(pts))
        assert np.array_equal(np.reshape(kernel(pts[k]), whole.shape[1:]),
                              whole[k])
        for i, window in enumerate(WINDOWS):
            start = rng.integers(len(pts) - window + 1)
            part = LAYOUTS[layouts[(i + shift) % len(layouts)]](
                pts[start:start + window])
            assert np.array_equal(kernel(part), whole[start:start + window])
