"""Closed-form Landau solutions of the stationary Navier-Stokes equations.

The Landau solutions are the explicit (-1)-homogeneous velocity fields U^b
(with (-2)-homogeneous pressure P^b) that solve

    -Delta u + (u . grad) u + grad p = b delta_0,   div u = 0,

in all of R^3, where delta_0 is a Dirac point force of strength b at the
origin.  For b = beta e_z (beta >= 0) the solution is axisymmetric about
e_z and, writing c = cos(theta) = z/r, takes the classical form

    u   = (2/r) [ (A^2-1)/(A-c)^2 - 1 ] e_r - (2 sin(theta))/(r (A-c)) e_theta
    p   = 4 (A c - 1) / (r^2 (A-c)^2)

with shape parameter A in (1, inf].  The force magnitude and the shape
parameter are linked by the transcendental relation

    beta(A) = 16 pi ( A + (A^2/2) log((A-1)/(A+1)) + 4A / (3(A^2-1)) ),

which is strictly decreasing, so either quantity determines the other.
General force directions are obtained by rotation.

Everything here is assembled in Cartesian components directly from
r = |x| and c = (x . axis)/r, so the coordinate poles theta in {0, pi}
are regular points of the evaluation.  The derivatives are analytic too:
the gradients of u and p and the Laplacian of u that the pointwise
residual check needs are hand-differentiated closed forms.

Evaluation is pointwise to the bit: a point's u, p, grad u, grad p and
Delta u depend only on the point and the parameters, not on its batch,
its place there or the batch's memory layout (points are made
C-contiguous, and dot products are elementwise sums in a fixed order,
_dot).  The CLI's
EMIT_CHUNK export and the NODE_BLOCK loops rely on this.
"""

import functools

import numpy as np
from dataclasses import dataclass

__all__ = [
    "A_MIN", "A_MAX", "BETA_MIN", "BETA_MAX", "E_Z",
    "as_vec3", "beta_from_A", "A_from_beta",
    "LandauParams", "FlowState",
    "landau_eval", "flux_tensor", "ns_residual", "sup_speed_on_unit_sphere",
    "FlowField", "LandauField", "CallableField", "RescaledField",
]

E_Z = np.array([0.0, 0.0, 1.0])

# The log term of beta(A) loses all double-precision digits as A -> 1+.
A_MIN = 1.0 + 1e-9
# Upper bracket for inverting beta(A).
A_MAX = 1.0e8

# Large-A series of beta(A)/(16 pi): sum_k (4/3 - 1/(2k+3)) A^-(2k+1).
# Used above _SERIES_SPLIT where the closed form suffers catastrophic
# cancellation between A and (A^2/2) log((A-1)/(A+1)).
_SERIES_SPLIT = 20.0
_SERIES_COEFFS = tuple(4.0 / 3.0 - 1.0 / (2 * k + 3) for k in range(6))


def as_vec3(v):
    """Validate and return a finite 3-vector as a float ndarray."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def _as_points(x):
    """(pts, lead): x as (m, 3) points and the lead shape x[..., 0] has.

    Every result for x is shaped lead + its value shape, so a single
    3-vector is the batch of lead ().
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        raise ValueError(f"points must have trailing dimension 3, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    return np.ascontiguousarray(x.reshape(-1, 3)), x.shape[:-1]


def _dot(x, v):
    """x0 v0 + x1 v1 + x2 v2 for each row x of (m, 3) points: a row's bits
    do not depend on its batch or layout, as those of numpy's x @ v do."""
    return x[:, 0] * v[0] + x[:, 1] * v[1] + x[:, 2] * v[2]


def beta_from_A(A):
    """Force magnitude beta as a function of the shape parameter A > 1.

    Accepts a scalar (giving a float) or an array, with the same bits for
    each A: the closed form below _SERIES_SPLIT, the large-A series from it
    on.  Strictly positive and strictly decreasing: beta -> infinity as
    A -> 1+ and beta ~ 16 pi / A as A -> infinity.  Raises ValueError for
    A <= 1 + 1e-9 where the logarithmic singularity destroys double
    precision.
    """
    a = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a <= A_MIN):
        raise ValueError(f"shape parameter must satisfy A > {A_MIN!r}")
    # log1p keeps the log accurate for moderately large A as well; A^2
    # overflows above about 1e154, where the series is taken
    with np.errstate(over="ignore"):
        closed = (a + 0.5 * a * a * np.log1p(-2.0 / (a + 1.0))
                  + 4.0 * a / (3.0 * (a * a - 1.0)))
    x = 1.0 / a
    x2 = x * x
    series = np.zeros_like(a)
    power = x
    for coeff in _SERIES_COEFFS:
        series += coeff * power
        power = power * x2
    out = np.where(a < _SERIES_SPLIT, closed, series) * (16.0 * np.pi)
    return float(out) if out.ndim == 0 else out


def A_from_beta(beta):
    """Invert the beta(A) relation by bracketed root finding.

    Monotonicity of beta(A) guarantees the bracket A in (1 + 1e-9, 1e8).
    The root is located in s = log(A - 1) for uniform relative accuracy
    across fourteen decades; round trips beta_from_A(A_from_beta(b)) = b
    hold to better than 1e-10 relative.  A beta outside [BETA_MIN,
    BETA_MAX], NaN and beta <= 0 included (BETA_MIN > 0), raises ValueError.
    """
    beta = float(beta)
    if not (BETA_MIN <= beta <= BETA_MAX):
        raise ValueError(
            f"force magnitude {beta:g} outside invertible range "
            f"[{BETA_MIN:.3e}, {BETA_MAX:.3e}]")
    from scipy.optimize import brentq
    s = brentq(lambda t: beta_from_A(1.0 + np.exp(t)) - beta,
               *_S_BRACKET, xtol=1e-13, rtol=4 * np.finfo(float).eps,
               maxiter=200)
    return 1.0 + np.exp(s)


# A_from_beta's bracket in s = log(A - 1), strictly inside the admissible
# A range (A_MIN itself is rejected), and the force magnitudes it inverts
_S_BRACKET = (np.log((A_MIN - 1.0) * 1.001), np.log(A_MAX - 1.0))
BETA_MIN = beta_from_A(1.0 + np.exp(_S_BRACKET[1]))
BETA_MAX = beta_from_A(1.0 + np.exp(_S_BRACKET[0]))


def _unit(axis):
    """axis/|axis| of a finite, nonzero 3-vector."""
    axis = as_vec3(axis)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("axis must be nonzero")
    return axis / n


@dataclass(frozen=True)
class LandauParams:
    """Identification (A, beta, axis) of one Landau solution.

    beta >= 0 is the force magnitude, axis the unit force direction (an
    arbitrary fixed default e_z when beta = 0), and A is the shape
    parameter tied to beta through the force-shape relation; from_shape and
    from_magnitude keep the A or beta given and axis/|axis|.  The
    point-force vector b = beta * axis is derived, not stored.  The zero
    solution is encoded by the sentinel A = inf, where every field
    evaluation returns zero.  == and hash compare (A, beta, axis).
    """

    A: float
    beta: float
    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", as_vec3(self.axis))
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "beta", float(self.beta))
        if self.beta < 0.0 or not np.isfinite(self.beta):
            raise ValueError("beta must be finite and nonnegative")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise ValueError("axis must be a unit vector")
        if self.beta == 0.0:
            if not np.isinf(self.A):
                raise ValueError("the zero solution requires the sentinel A = inf")
        else:
            if not (np.isfinite(self.A) and self.A > 1.0):
                raise ValueError("A must be finite and > 1 for a nonzero force")
            ref = beta_from_A(self.A)
            if abs(ref - self.beta) > 1e-10 * ref:
                raise ValueError(
                    f"A and beta are inconsistent: beta({self.A:g}) = {ref:.12g} "
                    f"but beta = {self.beta:.12g}")

    @classmethod
    def from_shape(cls, A, axis=E_Z):
        """Parameters from the shape parameter A in (A_MIN, A_MAX] and a
        nonzero force direction, kept as axis/|axis|."""
        if A > A_MAX:
            raise ValueError(f"shape parameter must satisfy A <= {A_MAX:g}")
        return cls(A=float(A), beta=beta_from_A(A), axis=_unit(axis))

    @classmethod
    def from_magnitude(cls, beta, axis=E_Z):
        """Parameters from the force magnitude beta, 0 (the zero solution)
        or in [BETA_MIN, BETA_MAX], and a nonzero force direction; beta is
        kept as given and the axis as axis/|axis|, bit for bit."""
        if beta < 0.0:
            raise ValueError(f"force magnitude beta must be >= 0, "
                             f"got {beta!r}")
        axis = _unit(axis)
        return cls.zero() if beta == 0.0 else cls(
            A=A_from_beta(beta), beta=float(beta), axis=axis)

    @classmethod
    def zero(cls):
        """The zero solution (no point force)."""
        return cls(A=np.inf, beta=0.0, axis=E_Z.copy())

    def _key(self):
        return self.A, self.beta, tuple(self.axis.tolist())

    def __eq__(self, other):
        return isinstance(other, LandauParams) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def b(self):
        """The point-force vector beta * axis."""
        return self.beta * self.axis

    @property
    def is_zero(self):
        return self.beta == 0.0


@dataclass(frozen=True)
class FlowState:
    """Velocity, pressure and velocity gradient at one point or a batch.

    grad_u stores du with grad_u[..., i, j] = d_i u_j, so the divergence
    is the trace over the last two axes.
    """

    u: np.ndarray
    p: np.ndarray
    grad_u: np.ndarray


class _Stages:
    """A Landau field at points (m, 3), one stage per quantity: u, p, grad
    (grad[k, i, j] = d_i u_j(x_k)), gradp and laplacian (Delta u).

    The stages share r, e, c and d, and u and grad also g1 and g2, p and
    gradp also q; each is computed by the expressions of a single pass over
    all five, so a stage has the same bits alone as with the others.  The
    stages of the zero field are zeros.
    """

    def __init__(self, params, pts):
        self.m = len(pts)
        self.r = r = np.sqrt(np.einsum("ki,ki->k", pts, pts))
        if np.any(r == 0.0):
            raise ValueError("Landau fields are singular at the origin")
        self.params = params
        if not params.is_zero:
            self.e = pts / r[:, None]
            self.c = np.clip(_dot(self.e, params.axis), -1.0, 1.0)
            self.d = params.A - self.c

    @functools.cached_property
    def _g(self):
        """(g1, g2) of u = (2/r) (g1 e + g2 axis)."""
        A, c, d = self.params.A, self.c, self.d
        return (A * A - 1.0) / d**2 - 1.0 - c / d, 1.0 / d

    @functools.cached_property
    def _q(self):
        """q = r^2 p."""
        A, c, d = self.params.A, self.c, self.d
        return 4.0 * (A * c - 1.0) / d**2

    def u(self):
        if self.params.is_zero:
            return np.zeros((self.m, 3))
        g1, g2 = self._g
        return (2.0 / self.r[:, None]) * (g1[:, None] * self.e
                                          + g2[:, None] * self.params.axis)

    def p(self):
        if self.params.is_zero:
            return np.zeros(self.m)
        return self._q / self.r**2

    def grad(self):
        if self.params.is_zero:
            return np.zeros((self.m, 3, 3))
        A, axis, r, e, c, d = (self.params.A, self.params.axis, self.r,
                               self.e, self.c, self.d)
        g1, g2 = self._g
        dg1 = 2.0 * (A * A - 1.0) / d**3 - A / d**2
        dg2 = 1.0 / d**2
        # grad[k, i, j] = (2/r^2) (g1 delta_ij + w_i e_j + v_i a_j)
        w = dg1[:, None] * (axis - c[:, None] * e) - 2.0 * g1[:, None] * e
        v = dg2[:, None] * (axis - c[:, None] * e) - g2[:, None] * e
        return (2.0 / r**2)[:, None, None] * (
            g1[:, None, None] * np.eye(3)
            + w[:, :, None] * e[:, None, :]
            + v[:, :, None] * axis[None, None, :])

    def gradp(self):
        if self.params.is_zero:
            return np.zeros((self.m, 3))
        A, axis, r, e, c, d = (self.params.A, self.params.axis, self.r,
                               self.e, self.c, self.d)
        dq = 4.0 * (A * A + A * c - 2.0) / d**3
        return (dq[:, None] * (axis - c[:, None] * e)
                - 2.0 * self._q[:, None] * e) / (r**3)[:, None]

    def laplacian(self):
        if self.params.is_zero:
            return np.zeros((self.m, 3))
        A, axis, r, e, c, d = (self.params.A, self.params.axis, self.r,
                               self.e, self.c, self.d)
        return (4.0 * (A * A - 1.0) / (r**3 * d**3))[:, None] * (
            axis - (3.0 * (A * c - 1.0) / d)[:, None] * e)


def landau_eval(params, x):
    """Evaluate a Landau solution at x (a 3-vector or an (..., 3) batch).

    Returns a FlowState holding the velocity, the pressure and the exact
    analytic velocity gradient, shaped lead + (3,), lead and lead + (3, 3)
    for the lead shape of x; at one point (lead ()) the pressure is a
    float.  Raises ValueError at the origin.
    """
    pts, lead = _as_points(x)
    stages = _Stages(params, pts)
    return FlowState(u=stages.u().reshape(lead + (3,)),
                     p=stages.p().reshape(lead)[()],
                     grad_u=stages.grad().reshape(lead + (3, 3)))


def flux_tensor(state):
    """Momentum flux tensor T_ij = p d_ij + u_i u_j - d_i u_j - d_j u_i.

    Symmetric by construction; its outward flux through any sphere
    enclosing the singularity of an exact point-force solution equals
    the force vector.
    """
    u = np.asarray(state.u, dtype=float)
    p = np.asarray(state.p, dtype=float)
    grad = np.asarray(state.grad_u, dtype=float)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(p))
            and np.all(np.isfinite(grad))):
        raise ValueError("flow state must be finite")
    sym = grad + np.swapaxes(grad, -2, -1)
    return (p[..., None, None] * np.eye(3)
            + u[..., :, None] * u[..., None, :] - sym)


def ns_residual(params, x):
    """Pointwise momentum residual -Delta u + (u . grad) u + grad p at x,
    a 3-vector or an (..., 3) batch away from the origin.

    Every term is a closed form, so for an exact Landau field, which solves
    the equation away from the origin, what is returned is round-off.  Near
    the axis of a jet (A close to 1) it grows like ulp(1)/(A - 1) relative
    to the terms, as d = A - c cancels.  Raises ValueError at the origin.
    """
    pts, lead = _as_points(x)
    stages = _Stages(params, pts)
    res = (-stages.laplacian()
           + np.einsum("km,kmn->kn", stages.u(), stages.grad())
           + stages.gradp())
    return res.reshape(lead + (3,))


class FlowField:
    """A point probe: maps x (or a batch of points) to a FlowState.

    Every library check takes its field as one: LandauField wraps a
    closed-form solution, CallableField a sampler.  Calling the probe gives
    velocity, pressure and velocity gradient; velocity(x) gives u alone,
    bitwise equal to self(x).u, and the checks that read only u (the weak
    pairing, the norms' ball sampler, decay and self-similarity) go through
    it.  The library's probes override it to compute no pressure and no
    gradient: LandauField runs the velocity stage alone, CallableField
    calls its sampler once, RescaledField asks its base for u.
    """

    def __call__(self, x):
        raise NotImplementedError

    def velocity(self, x):
        """u(x), shape (..., 3)."""
        return self(x).u


class LandauField(FlowField):
    """Probe backed by the closed-form Landau solution (analytic gradient)."""

    def __init__(self, params):
        self.params = params

    def __call__(self, x):
        return landau_eval(self.params, x)

    def velocity(self, x):
        """u(x) from the velocity stage alone: no pressure, no gradient."""
        pts, lead = _as_points(x)
        return _Stages(self.params, pts).u().reshape(lead + (3,))


class CallableField(FlowField):
    """Probe built from one sampler, vectorized over (m, 3) points.

    samples(pts) returns (m, 3) velocities, or (m, 4) rows with the
    pressure last; without that column the pressure is zero, and any
    other shape raises ValueError.  The gradient is central differences
    of the velocity with step 1e-5 |x| per point (so the relative accuracy
    is uniform across sphere radii).  A full evaluation thus calls the
    sampler 7 times: once for u and p, then at the 6 shifted point sets.
    velocity(x) calls it once, on the points as given.
    """

    def __init__(self, samples):
        self._samples = samples

    def _rows(self, pts):
        rows = np.asarray(self._samples(pts), dtype=float)
        if rows.shape not in ((len(pts), 3), (len(pts), 4)):
            raise ValueError(f"a sampler must return (m, 3) or (m, 4) rows "
                             f"for m points, got shape {rows.shape}")
        return rows

    def velocity(self, x):
        pts, lead = _as_points(x)
        return self._rows(pts)[:, :3].reshape(lead + (3,))

    def __call__(self, x):
        pts, lead = _as_points(x)
        rows = self._rows(pts)
        u = rows[:, :3]
        p = rows[:, 3] if rows.shape[1] == 4 else np.zeros(len(pts))
        h = 1e-5 * np.maximum(np.linalg.norm(pts, axis=1), 1e-7)
        grad = np.empty((len(pts), 3, 3))
        for m in range(3):
            dx = np.zeros_like(pts)
            dx[:, m] = h
            grad[:, m, :] = (self._rows(pts + dx)[:, :3]
                             - self._rows(pts - dx)[:, :3]) / (2.0 * h)[:, None]
        return FlowState(u=u.reshape(lead + (3,)), p=p.reshape(lead)[()],
                         grad_u=grad.reshape(lead + (3, 3)))


class RescaledField(FlowField):
    """The rescaled probe x -> (lam u(lam x), lam^2 p(lam x), lam^2 du(lam x)).

    Exact solutions map to exact solutions under this rescaling; Landau
    fields are fixed points of it for every lam > 0, and for other probes
    the deviation from the original witnesses a failure of self-similarity.
    """

    def __init__(self, base, lam):
        lam = float(lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ValueError("scaling factor must be positive")
        self.base = base
        self.lam = lam

    def __call__(self, x):
        st = self.base(self.lam * np.asarray(x, dtype=float))
        lam = self.lam
        return FlowState(u=lam * st.u, p=lam**2 * st.p, grad_u=lam**2 * st.grad_u)

    def velocity(self, x):
        return self.lam * self.base.velocity(self.lam * np.asarray(x, dtype=float))


def sup_speed_on_unit_sphere(params):
    """sup of |U^b| over the unit sphere, scanned along a meridian.

    By axisymmetry the speed depends only on the polar angle, so a dense
    1-D scan of 2001 angles including both poles suffices.  Used as the
    testable surrogate for monotonicity of the maximal speed in |b|.
    """
    axis = params.axis
    # any unit vector orthogonal to the axis
    trial = E_Z if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    perp = trial - (trial @ axis) * axis
    perp /= np.linalg.norm(perp)
    theta = np.linspace(0.0, np.pi, 2001)
    pts = np.cos(theta)[:, None] * axis + np.sin(theta)[:, None] * perp
    u = LandauField(params).velocity(pts)
    return float(np.max(np.linalg.norm(u, axis=1)))
