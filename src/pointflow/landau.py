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
are regular points of the evaluation.  First derivatives are analytic
(hand differentiated closed forms); the Laplacian needed for the pointwise
residual check is obtained from Richardson-extrapolated central differences
of the analytic gradient.
"""

import numpy as np
from dataclasses import dataclass
from scipy.optimize import brentq

__all__ = [
    "A_MIN", "A_MAX", "E_Z",
    "as_vec3", "beta_from_A", "A_from_beta",
    "LandauParams", "FlowState",
    "landau_eval", "flux_tensor", "ns_residual",
    "rotate_equivariance_check", "sup_speed_on_unit_sphere",
    "FlowField", "LandauField", "CallableField", "SumField", "RescaledField",
    "as_flow_field",
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
    """Coerce x to an (m, 3) array; return it plus a shape-restoring flag."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        raise ValueError(f"points must have trailing dimension 3, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    single = x.ndim == 1
    return x.reshape(-1, 3), single, x.shape[:-1]


def beta_from_A(A):
    """Force magnitude beta as a function of the shape parameter A > 1.

    Accepts a scalar or an array.  Strictly positive and strictly
    decreasing: beta -> infinity as A -> 1+ and beta ~ 16 pi / A as
    A -> infinity.  Raises ValueError for A <= 1 + 1e-9 where the
    logarithmic singularity destroys double precision.
    """
    A_arr = np.asarray(A, dtype=float)
    scalar = A_arr.ndim == 0
    A_arr = np.atleast_1d(A_arr)
    if not np.all(np.isfinite(A_arr)) or np.any(A_arr <= A_MIN):
        raise ValueError(f"shape parameter must satisfy A > {A_MIN!r}")

    out = np.empty_like(A_arr)
    close = A_arr < _SERIES_SPLIT
    if np.any(close):
        a = A_arr[close]
        # log1p keeps the log accurate for moderately large A as well
        out[close] = (a + 0.5 * a * a * np.log1p(-2.0 / (a + 1.0))
                      + 4.0 * a / (3.0 * (a * a - 1.0)))
    if np.any(~close):
        a = A_arr[~close]
        x = 1.0 / a
        x2 = x * x
        acc = np.zeros_like(a)
        power = x
        for coeff in _SERIES_COEFFS:
            acc += coeff * power
            power = power * x2
        out[~close] = acc
    out *= 16.0 * np.pi
    return float(out[0]) if scalar else out


def A_from_beta(beta):
    """Invert the beta(A) relation by bracketed root finding.

    Monotonicity of beta(A) guarantees the bracket A in (1 + 1e-9, 1e8).
    The root is located in s = log(A - 1) for uniform relative accuracy
    across fourteen decades; round trips beta_from_A(A_from_beta(b)) = b
    hold to better than 1e-10 relative.
    """
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0.0:
        raise ValueError("force magnitude must be a finite positive number")
    # bracket strictly inside the admissible A range (A_MIN itself is rejected)
    s_lo = np.log((A_MIN - 1.0) * 1.001)
    s_hi = np.log(A_MAX - 1.0)
    beta_max = beta_from_A(1.0 + np.exp(s_lo))
    beta_min = beta_from_A(1.0 + np.exp(s_hi))
    if not (beta_min <= beta <= beta_max):
        raise ValueError(
            f"force magnitude {beta:g} outside invertible range "
            f"[{beta_min:.3e}, {beta_max:.3e}]")
    s = brentq(lambda t: beta_from_A(1.0 + np.exp(t)) - beta,
               s_lo, s_hi, xtol=1e-13, rtol=4 * np.finfo(float).eps,
               maxiter=200)
    return 1.0 + np.exp(s)


@dataclass(frozen=True)
class LandauParams:
    """Identification (b, A, beta, axis) of one Landau solution.

    b is the point-force vector, beta = |b|, axis = b/|b| (an arbitrary
    fixed default e_z when b = 0), and A is the shape parameter tied to
    beta through the force-shape relation.  The zero solution is encoded
    by the sentinel A = inf, where every field evaluation returns zero.
    """

    b: np.ndarray
    A: float
    beta: float
    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", as_vec3(self.b))
        object.__setattr__(self, "axis", as_vec3(self.axis))
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "beta", float(self.beta))
        if self.beta < 0.0 or not np.isfinite(self.beta):
            raise ValueError("beta must be finite and nonnegative")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise ValueError("axis must be a unit vector")
        if abs(np.linalg.norm(self.b) - self.beta) > 1e-12 * (1.0 + self.beta):
            raise ValueError("beta must equal |b|")
        if np.max(np.abs(self.b - self.beta * self.axis)) > 1e-12 * (1.0 + self.beta):
            raise ValueError("b must equal beta * axis")
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
        """Parameters from the shape parameter A > 1 and a force direction."""
        axis = as_vec3(axis)
        n = np.linalg.norm(axis)
        if n == 0.0:
            raise ValueError("axis must be nonzero")
        axis = axis / n
        beta = beta_from_A(A)
        return cls(b=beta * axis, A=float(A), beta=beta, axis=axis)

    @classmethod
    def from_force(cls, b):
        """Parameters from the point-force vector b (b = 0 allowed)."""
        b = as_vec3(b)
        beta = float(np.linalg.norm(b))
        if beta == 0.0:
            return cls.zero()
        axis = b / beta
        return cls(b=b, A=A_from_beta(beta), beta=beta, axis=axis)

    @classmethod
    def from_magnitude(cls, beta, axis=E_Z):
        """Parameters from the force magnitude beta >= 0 and a direction."""
        if beta < 0.0:
            raise ValueError(f"force magnitude beta must be >= 0, "
                             f"got {beta!r}")
        if beta == 0.0:
            return cls.zero()
        axis = as_vec3(axis)
        n = np.linalg.norm(axis)
        if n == 0.0:
            raise ValueError("axis must be nonzero")
        return cls.from_force(float(beta) * axis / n)

    @classmethod
    def zero(cls):
        """The zero solution (no point force)."""
        return cls(b=np.zeros(3), A=np.inf, beta=0.0, axis=E_Z.copy())

    @property
    def is_zero(self):
        return self.beta == 0.0

    def rotated(self, R):
        """Parameters of the solution driven by the rotated force R b."""
        R = np.asarray(R, dtype=float)
        return LandauParams(b=R @ self.b, A=self.A, beta=self.beta,
                            axis=R @ self.axis)


@dataclass(frozen=True)
class FlowState:
    """Velocity, pressure and velocity gradient at one point or a batch.

    grad_u stores du with grad_u[..., i, j] = d_i u_j, so the divergence
    is the trace over the last two axes.
    """

    u: np.ndarray
    p: np.ndarray
    grad_u: np.ndarray

    def divergence(self):
        return np.trace(self.grad_u, axis1=-2, axis2=-1)


def _evaluate(params, pts):
    """Velocity, pressure, du and dp of a Landau field at points (m, 3).

    Returns (u, p, grad, gradp) with grad[k, i, j] = d_i u_j(x_k).
    """
    m = len(pts)
    r = np.sqrt(np.einsum("ki,ki->k", pts, pts))
    if np.any(r == 0.0):
        raise ValueError("Landau fields are singular at the origin")
    if params.is_zero:
        return (np.zeros((m, 3)), np.zeros(m),
                np.zeros((m, 3, 3)), np.zeros((m, 3)))

    A = params.A
    axis = params.axis
    e = pts / r[:, None]
    c = np.clip(e @ axis, -1.0, 1.0)
    d = A - c
    A2m1 = A * A - 1.0

    g1 = A2m1 / d**2 - 1.0 - c / d
    g2 = 1.0 / d
    dg1 = 2.0 * A2m1 / d**3 - A / d**2
    dg2 = 1.0 / d**2

    u = (2.0 / r[:, None]) * (g1[:, None] * e + g2[:, None] * axis)

    q = 4.0 * (A * c - 1.0) / d**2
    p = q / r**2

    # grad[k, i, j] = (2/r^2) (g1 delta_ij + w_i e_j + v_i a_j)
    w = dg1[:, None] * (axis - c[:, None] * e) - 2.0 * g1[:, None] * e
    v = dg2[:, None] * (axis - c[:, None] * e) - g2[:, None] * e
    grad = (2.0 / r**2)[:, None, None] * (
        g1[:, None, None] * np.eye(3)
        + w[:, :, None] * e[:, None, :]
        + v[:, :, None] * axis[None, None, :])

    dq = 4.0 * (A * A + A * c - 2.0) / d**3
    gradp = (dq[:, None] * (axis - c[:, None] * e) - 2.0 * q[:, None] * e) \
        / (r**3)[:, None]
    return u, p, grad, gradp


def landau_eval(params, x):
    """Evaluate a Landau solution at x (a 3-vector or an (..., 3) batch).

    Returns a FlowState holding the velocity, the pressure and the exact
    analytic velocity gradient.  Raises ValueError at the origin.
    """
    pts, single, lead = _as_points(x)
    u, p, grad, _ = _evaluate(params, pts)
    if single:
        return FlowState(u=u[0], p=float(p[0]), grad_u=grad[0])
    return FlowState(u=u.reshape(lead + (3,)), p=p.reshape(lead),
                     grad_u=grad.reshape(lead + (3, 3)))


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


def _laplacian_fd(params, pts, h):
    """Richardson-extrapolated vector Laplacian from the analytic gradient.

    Central first differences of d_m u at steps h and h/2, combined as
    (4 D(h/2) - D(h)) / 3 for an O(h^4) truncation error.
    """
    def diff(step):
        lap = np.zeros_like(pts)
        for m in range(3):
            dx = np.zeros_like(pts)
            dx[:, m] = step
            _, _, gp, _ = _evaluate(params, pts + dx)
            _, _, gm, _ = _evaluate(params, pts - dx)
            lap += (gp[:, m, :] - gm[:, m, :]) / (2.0 * step)[:, None]
        return lap

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


def ns_residual(params, x, h=None):
    """Pointwise momentum residual -Delta u + (u . grad) u + grad p.

    Vanishes identically away from the origin for an exact Landau field;
    what is returned is pure discretization error of the Laplacian, of
    size O(h^4) relative to the local field scale.  The advective term
    and the pressure gradient are analytic.

    Parameters
    ----------
    params : LandauParams
    x : 3-vector or (..., 3) batch, away from the origin
    h : difference step, scalar or per-point; defaults to 1e-3 |x|.
        The five-point stencil requires |x| > 4 h.
    """
    pts, single, lead = _as_points(x)
    r = np.linalg.norm(pts, axis=1)
    if np.any(r == 0.0):
        raise ValueError("residual is undefined at the origin")
    if h is None:
        h = 1e-3 * r
    else:
        h = np.broadcast_to(np.asarray(h, dtype=float), r.shape).copy()
        if np.any(h <= 0.0):
            raise ValueError("difference step must be positive")
    if np.any(r <= 4.0 * h):
        raise ValueError("stencil too close to the origin: need |x| > 4 h")

    u, _, grad, gradp = _evaluate(params, pts)
    lap = _laplacian_fd(params, pts, h)
    res = -lap + np.einsum("km,kmn->kn", u, grad) + gradp
    return res[0] if single else res.reshape(lead + (3,))


class FlowField:
    """A point probe: maps x (or a batch of points) to a FlowState.

    Calling the probe gives the full state: velocity, pressure and velocity
    gradient.  velocity(x) gives u alone, bitwise equal to self(x).u; the
    weak pairing, the ball sampler of the norms and the decay and
    self-similarity checks read only u and go through it.  Subclasses
    whose pressure or gradient cost extra work override it.
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


class CallableField(FlowField):
    """Probe built from user callables, all vectorized over (m, 3) points.

    velocity is required; pressure defaults to zero; if gradient is not
    supplied it is approximated by central differences of the velocity
    with step 1e-5 |x| per point (so the relative accuracy is uniform
    across sphere radii).  A full evaluation thus calls the velocity
    callable 7 times without a gradient callable.

    velocity(x) calls the velocity callable once, on the points as given,
    and nothing else: no pressure, no gradient, no finite differences.
    """

    def __init__(self, velocity, pressure=None, gradient=None):
        self._velocity = velocity
        self._pressure = pressure
        self._gradient = gradient

    def _u(self, pts):
        return np.asarray(self._velocity(pts), dtype=float).reshape(len(pts), 3)

    def velocity(self, x):
        pts, single, lead = _as_points(x)
        u = self._u(pts)
        return u[0] if single else u.reshape(lead + (3,))

    def __call__(self, x):
        pts, single, lead = _as_points(x)
        u = self._u(pts)
        if self._pressure is None:
            p = np.zeros(len(pts))
        else:
            p = np.asarray(self._pressure(pts), dtype=float).reshape(len(pts))
        if self._gradient is not None:
            grad = np.asarray(self._gradient(pts), dtype=float).reshape(len(pts), 3, 3)
        else:
            h = 1e-5 * np.maximum(np.linalg.norm(pts, axis=1), 1e-7)
            grad = np.empty((len(pts), 3, 3))
            for m in range(3):
                dx = np.zeros_like(pts)
                dx[:, m] = h
                up = np.asarray(self._velocity(pts + dx), dtype=float)
                um = np.asarray(self._velocity(pts - dx), dtype=float)
                grad[:, m, :] = (up - um) / (2.0 * h)[:, None]
        if single:
            return FlowState(u=u[0], p=float(p[0]), grad_u=grad[0])
        return FlowState(u=u.reshape(lead + (3,)), p=p.reshape(lead),
                         grad_u=grad.reshape(lead + (3, 3)))


class SumField(FlowField):
    """Pointwise sum of probes (not a solution in general: NS is nonlinear)."""

    def __init__(self, *fields):
        if not fields:
            raise ValueError("need at least one field")
        self.fields = [as_flow_field(f) for f in fields]

    def __call__(self, x):
        states = [f(x) for f in self.fields]
        return FlowState(u=sum(s.u for s in states),
                         p=sum(s.p for s in states),
                         grad_u=sum(s.grad_u for s in states))

    def velocity(self, x):
        return sum(f.velocity(x) for f in self.fields)


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
        self.base = as_flow_field(base)
        self.lam = lam

    def __call__(self, x):
        st = self.base(self.lam * np.asarray(x, dtype=float))
        lam = self.lam
        return FlowState(u=lam * st.u, p=lam**2 * st.p, grad_u=lam**2 * st.grad_u)

    def velocity(self, x):
        return self.lam * self.base.velocity(self.lam * np.asarray(x, dtype=float))


def as_flow_field(obj):
    """Coerce LandauParams or FlowField to a FlowField probe."""
    if isinstance(obj, FlowField):
        return obj
    if isinstance(obj, LandauParams):
        return LandauField(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a flow field")


def rotate_equivariance_check(params, R, x):
    """Max pointwise defect |U^{Rb}(Rx) - R U^b(x)| over the given points.

    R must be a rotation (orthogonal, det +1, verified to 1e-12).  The
    Cartesian assembly makes the two construction paths agree to round-off.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)):
        raise ValueError("R must be a finite 3x3 matrix")
    if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12:
        raise ValueError("R is not orthogonal")
    if abs(np.linalg.det(R) - 1.0) > 1e-12:
        raise ValueError("R must have determinant +1")
    pts, _, _ = _as_points(x)
    lhs = landau_eval(params.rotated(R), pts @ R.T).u
    rhs = landau_eval(params, pts).u @ R.T
    return float(np.max(np.linalg.norm(lhs - rhs, axis=-1)))


def sup_speed_on_unit_sphere(params, n_samples=2001):
    """sup of |U^b| over the unit sphere, scanned along a meridian.

    By axisymmetry the speed depends only on the polar angle, so a dense
    1-D scan including both poles suffices.  Used as the testable
    surrogate for monotonicity of the maximal speed in |b|.
    """
    if params.is_zero:
        return 0.0
    axis = params.axis
    # any unit vector orthogonal to the axis
    trial = E_Z if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    perp = trial - (trial @ axis) * axis
    perp /= np.linalg.norm(perp)
    theta = np.linspace(0.0, np.pi, n_samples)
    pts = np.cos(theta)[:, None] * axis + np.sin(theta)[:, None] * perp
    u = landau_eval(params, pts).u
    return float(np.max(np.linalg.norm(u, axis=1)))
