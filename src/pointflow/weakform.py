"""Divergence-free test functions and the distributional momentum pairing.

A very weak solution u is one for which the pairing

    <NS(u), phi> = int ( -u . Lap(phi) - u_i u_j d_j phi_i ) dx

equals <f, phi> for every smooth compactly supported divergence-free phi.
For a Landau field the force is a point source b delta_0, so the pairing
must return b . phi(0) whenever the support of phi contains the origin,
and zero when it does not.  This is the quadrature-level verification of
the Dirac forcing.

Test functions are built as curls, phi = curl( psi(|x - x0|) (c x (x - x0)) / 2 ),
which makes div phi = 0 an identity.  The radial cutoff psi is 1 on
[0, a], 0 on [b, inf) and transitions through a septic polynomial matching
value and three derivatives at both ends, so phi is C^2 with continuous
Laplacian, and phi equals the constant vector c exactly on the plateau.

Since grad(phi) and Lap(phi) vanish identically on the plateau and outside
the support, the pairing integrand is supported exactly on the transition
annulus a <= |x - x0| <= b; integrating over that annulus with the graded
shell rule (whose panel ends coincide with the cutoff's gluing spheres)
makes the quadrature spectrally accurate.
"""

import numpy as np
from dataclasses import dataclass

from .landau import _dot, as_vec3
from .quadrature import NODE_BLOCK, ball_shell_rule

__all__ = [
    "smoothstep7", "TestFunction", "weak_residual", "WeakResidual",
    "extract_force_weak",
]


def smoothstep7(t):
    """C^3 unit step on [0, 1] and its first three derivatives.

    s(t) = 35 t^4 - 84 t^5 + 70 t^6 - 20 t^7 satisfies s(0) = 0, s(1) = 1
    with vanishing first, second and third derivatives at both ends.
    Inputs outside [0, 1] are clamped.
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    s = t**4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))
    s1 = t**3 * (140.0 + t * (-420.0 + t * (420.0 - 140.0 * t)))
    s2 = t**2 * (420.0 + t * (-1680.0 + t * (2100.0 - 840.0 * t)))
    s3 = t * (840.0 + t * (-5040.0 + t * (8400.0 - 4200.0 * t)))
    return s, s1, s2, s3


@dataclass(frozen=True)
class TestFunction:
    """Divergence-free bump phi with a constant plateau.

    phi(x) = c exactly for |x - center| <= plateau_radius, phi and all the
    derivatives used here vanish for |x - center| >= support_radius, and
    div phi = 0 identically (phi is a curl).
    """

    center: np.ndarray
    plateau_radius: float
    support_radius: float
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "direction", as_vec3(self.direction))
        a = float(self.plateau_radius)
        b = float(self.support_radius)
        object.__setattr__(self, "plateau_radius", a)
        object.__setattr__(self, "support_radius", b)
        if not (0.0 < a < b):
            raise ValueError("radii must satisfy 0 < plateau < support")
        if np.all(self.direction == 0.0):
            raise ValueError("direction must be nonzero")

    def _profile(self, x):
        """phi = alpha(rho) c - gamma(rho) (y . c) y with y = x - center.

        Returns y, rho = |y| with 0 replaced by 1, y . c, the plateau mask,
        (alpha, alpha', alpha'') and (gamma, gamma', gamma''), all from the
        one cutoff psi(rho) = 1 - smoothstep7((rho - a) / (b - a)).
        """
        y = np.asarray(x, dtype=float).reshape(-1, 3) - self.center
        rho = np.linalg.norm(y, axis=1)
        rho_s = np.where(rho > 0.0, rho, 1.0)
        a, b = self.plateau_radius, self.support_radius
        width = b - a
        s, s1, s2, s3 = smoothstep7((rho - a) / width)
        psi, psi1, psi2, psi3 = 1.0 - s, -s1 / width, -s2 / width**2, -s3 / width**3
        alpha = (psi + rho * psi1 / 2.0,
                 1.5 * psi1 + rho * psi2 / 2.0,
                 2.0 * psi2 + rho * psi3 / 2.0)
        # within about 1e-108 of the center rho^3 underflows and gamma'' is
        # 0/0; the plateau mask drops it
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = (psi1 / (2.0 * rho_s),
                     psi2 / (2.0 * rho_s) - psi1 / (2.0 * rho_s**2),
                     psi3 / (2.0 * rho_s) - psi2 / rho_s**2 + psi1 / rho_s**3)
        return y, rho_s, _dot(y, self.direction), rho <= a, alpha, gamma

    def __call__(self, x):
        """phi(x); shape (..., 3)."""
        y, _, yc, _, (alpha, _, _), (gamma, _, _) = self._profile(x)
        phi = alpha[:, None] * self.direction - (gamma * yc)[:, None] * y
        return phi.reshape(np.shape(x))

    def gradient(self, x):
        """d_i phi_j(x); shape (..., 3, 3), first index the derivative."""
        y, rho_s, yc, flat, (_, alpha1, _), (gamma, gamma1, _) = self._profile(x)
        yhat = y / rho_s[:, None]
        c = self.direction
        grad = (alpha1[:, None, None] * yhat[:, :, None] * c[None, None, :]
                - (gamma1 * yc)[:, None, None] * yhat[:, :, None] * y[:, None, :]
                - gamma[:, None, None] * c[None, :, None] * y[:, None, :]
                - (gamma * yc)[:, None, None] * np.eye(3))
        grad[flat] = 0.0
        return grad.reshape(np.shape(x)[:-1] + (3, 3))

    def laplacian(self, x):
        """Lap(phi)(x); shape (..., 3).  Continuous (the cutoff is C^3)."""
        (y, rho_s, yc, flat, (_, alpha1, alpha2),
         (gamma, gamma1, gamma2)) = self._profile(x)
        lap = ((alpha2 + 2.0 * alpha1 / rho_s - 2.0 * gamma)[:, None] * self.direction
               - ((gamma2 + 6.0 * gamma1 / rho_s) * yc)[:, None] * y)
        lap[flat] = 0.0
        return lap.reshape(np.shape(x))


def weak_residual(field, phi, rule=None, n_r=32, n_theta=32):
    """Distributional momentum pairing of a flow probe against one
    TestFunction phi, the velocity taken NODE_BLOCK nodes at a time.

    Returns the quadrature value of

        int ( -u . Lap(phi) - u_i u_j d_j phi_i ) dx.

    The integrand vanishes identically wherever grad(phi) and Lap(phi)
    do, so the default rule, ball_shell_rule(a, b, n_r, n_theta) about
    phi's center, covers exactly the transition annulus a <= |x - center|
    <= b of phi, where the quadrature is spectrally accurate.  A
    caller-provided rule must contain the support of phi.

    For an exact solution with point force b at the origin the value
    equals b . phi(0): the force component along the plateau direction
    when the plateau contains the origin, zero when the support avoids it.
    """
    if rule is None:
        rule = ball_shell_rule(phi.plateau_radius, phi.support_radius,
                               n_r, n_theta, center=phi.center)
    return _pairings(field, [phi], rule)[0]


def _pairings(field, phis, rule):
    """The pairing against each of phis on rule: the velocity is evaluated
    NODE_BLOCK nodes at a time, and each integrand, one array summed by one
    dot, keeps the bits of a pass over every node at once."""
    integrands = [np.empty(rule.n_nodes) for _ in phis]
    for a in range(0, rule.n_nodes, NODE_BLOCK):
        s = slice(a, a + NODE_BLOCK)
        nodes = rule.nodes[s]
        v = field.velocity(nodes)
        for out, phi in zip(integrands, phis):
            out[s] = (-np.einsum("ki,ki->k", v, phi.laplacian(nodes))
                      - np.einsum("ki,kj,kji->k", v, v, phi.gradient(nodes)))
    return [float(rule.weights @ integrand) for integrand in integrands]


@dataclass(frozen=True)
class WeakResidual:
    """Force vector recovered from the pairing, one component per direction,
    and the number of nodes of the shared rule it was paired on."""

    value: np.ndarray
    n_nodes: int

    def __post_init__(self):
        object.__setattr__(self, "value", as_vec3(self.value))


def extract_force_weak(field, center=(0.0, 0.0, 0.0), a=0.5, b=1.0,
                       n_r=32, n_theta=32):
    """Recover the full force vector from three axis-aligned pairings.

    Pairs the field against TestFunction(center, a, b, e_k) for the
    directions e_x, e_y, e_z; when the plateau contains the singularity each
    pairing returns one Cartesian component of the point force.  The
    velocity is evaluated once per node block of the shared rule,
    ball_shell_rule(a, b, n_r, n_theta) about center, and paired there with
    all three; each component equals weak_residual(field, phi_k, rule=rule)
    bitwise.
    """
    rule = ball_shell_rule(a, b, n_r, n_theta,
                           center=np.asarray(center, dtype=float))
    components = _pairings(field, [TestFunction(center, a, b, c)
                                   for c in np.eye(3)], rule)
    return WeakResidual(value=np.array(components), n_nodes=rule.n_nodes)
