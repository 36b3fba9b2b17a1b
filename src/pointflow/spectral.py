"""Periodic Fourier machinery and the Picard map for the perturbed problem.

Near the singularity the difference v between a very weak solution and
the matching Landau field solves a Stokes problem perturbed by the Landau
drift U and its own quadratic term,

    -Delta v + div( U (x) v + v (x) (U + v) ) + grad pi = f,   div v = 0.

The fixed point of the Picard map

    Phi(v) = StokesSolve( f - div( U (x) v + v (x) (U + v) ) )

is that solution, and Phi is a strict contraction when the drift and the
data are small.  This module demonstrates the mechanism at desk scale in
a deliberately simplified geometry: the ball with Dirichlet conditions
and its divergence-fixing corrector are replaced by a periodic torus of
side 4 pi (so the ball of radius 2 about the origin embeds), where the
Stokes inverse is exact in Fourier space after Leray projection.  The
contraction estimate itself (small drift and data force a ratio below
one half) does not depend on that geometry choice.

The drift is the Landau field with a C^3 radial cutoff vanishing inside
delta_in / 2 and outside delta_out, re-projected to be divergence free
(the torus grid cannot represent the 1/|x| singularity); the deviation
caused by the projection is reported.  Quadratic products are dealiased
by the 2/3 rule.

Fields are real, so only half of their spectrum is stored: the
(3, n, n, n//2 + 1) array that scipy.fft.rfftn returns, whose last axis
holds the frequencies 0 .. n//2.  Every transform is an rfftn or irfftn
call, and W^{1,2} norms follow from the coefficients by Parseval.  The
odd-derivative wavenumber is zero at the Nyquist index of every axis,
which is what the real part of a full complex derivative gives as well.

The Picard step, the drift and the forcing are built one component at a
time: one (n, n, n) transform per component, never a stacked one, and
the projection and the Stokes solve work in place.  A component's
transform gives the same bits alone as inside a stacked call, and the
in-place arithmetic repeats the out-of-place expressions element by
element, so every result keeps its bits while at most one component's
scratch is held at once.

The transforms keep scipy.fft's single worker.  Two workers give the
same bits, but on a shared 2-vCPU host they made Picard runs slower and
far noisier whenever the second vCPU was busy elsewhere.
"""

import numpy as np
import scipy.fft
from dataclasses import dataclass
from functools import lru_cache

from .landau import LandauParams, landau_eval
from .quadrature import _half_wavenumbers, sobolev_norm
from .weakform import smoothstep7

__all__ = [
    "BOX", "SpectralField", "grid_coordinates",
    "leray_project", "stokes_solve", "dealias",
    "MollifiedDrift", "make_mollified_drift", "make_forcing",
    "picard_step", "IterationTrace", "ContractionDivergedError",
    "run_contraction",
]

# torus side: 2 pi * 2, chosen so the ball of radius 2 embeds
BOX = 4.0 * np.pi

_DIVERGENCE_FACTOR = 1e3


@lru_cache(maxsize=8)
def _wavenumbers(n):
    """(k, |k|^2, 1/|k|^2 with the zero mode masked) on the half spectrum.

    k is zero at the Nyquist index of each axis, and |k|^2 is taken from
    that k, so it is also the Parseval weight of the gradient.
    """
    shape = (n, n, n // 2 + 1)
    k = np.stack([np.broadcast_to(ka, shape) for ka in _half_wavenumbers(n, BOX)])
    k2 = (k**2).sum(axis=0)
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0.0] = 1.0 / k2[k2 > 0.0]
    return k, k2, inv_k2


@lru_cache(maxsize=8)
def _parseval_weights(n):
    """(w, w |k|^2): how many modes each stored column stands for.

    Columns 1 .. n/2 - 1 of the last axis stand for themselves and their
    conjugates; column 0 and, for even n, column n/2 for one mode.
    """
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w, w * _wavenumbers(n)[1]


def _band(n, cut):
    """Half-spectrum mask of the modes with every integer frequency <= cut."""
    f = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    fz = np.fft.rfftfreq(n, d=1.0 / n)
    return ((f[:, None, None] <= cut) & (f[None, :, None] <= cut)
            & (fz[None, None, :] <= cut))


@lru_cache(maxsize=8)
def _dealias_mask(n):
    """2/3-rule mask on integer frequencies."""
    return _band(n, n // 3)


def _axis(n):
    """Coordinates of the torus grid along one axis, origin at a grid point."""
    return (np.arange(n) - n // 2) * (BOX / n)


def grid_coordinates(n):
    """(3, n, n, n) coordinates of the torus grid, origin at a grid point."""
    x1 = _axis(n)
    return np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))


def _component_samples(coeff, mask=None):
    """irfftn of each component of coeff (times mask), one at a time.

    Yields (n, n, n) arrays with the bits of the matching component of
    the stacked irfftn over axes (1, 2, 3), at a third of its scratch.
    """
    n = coeff.shape[1]
    for c in coeff:
        yield scipy.fft.irfftn(c if mask is None else c * mask, s=(n, n, n))


@dataclass
class SpectralField:
    """Real periodic 3-vector field stored as its half spectrum.

    coeff has the shape (3, n, n, n//2 + 1) of scipy.fft.rfftn output: the
    last axis keeps the frequencies 0 .. n//2, the rest are the complex
    conjugates of stored modes.  Columns 1 .. n/2 - 1 of that axis thus
    stand for two modes each, column 0 and (for even n) column n/2 for
    one, and Parseval norms weight them so.  Those two self-conjugate
    columns are Hermitian in the first two axes, as rfftn makes them.
    The odd-derivative wavenumber is zero at each axis' Nyquist index.
    The mean mode is kept at zero by the operations here.
    """

    coeff: np.ndarray

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=complex)
        n = self.coeff.shape[1]
        if self.coeff.shape != (3, n, n, n // 2 + 1):
            raise ValueError("coefficients must have shape (3, n, n, n//2 + 1)")

    @property
    def n(self):
        return self.coeff.shape[1]

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((3, n, n, n // 2 + 1), dtype=complex))

    @classmethod
    def from_physical(cls, values):
        return cls(scipy.fft.rfftn(np.asarray(values), axes=(1, 2, 3)))

    def to_physical(self):
        """Real-space samples (3, n, n, n)."""
        n = self.n
        return scipy.fft.irfftn(self.coeff, s=(n, n, n), axes=(1, 2, 3))

    def divergence_defect(self):
        """max |k . vhat| over modes, scaled by the field's gradient size."""
        k, _, _ = _wavenumbers(self.n)
        div = np.einsum("aijk,aijk->ijk", k, self.coeff)
        scale = np.max(np.abs(k) * np.max(np.abs(self.coeff)))
        return float(np.max(np.abs(div)) / scale) if scale > 0.0 else 0.0

    def __add__(self, other):
        return SpectralField(self.coeff + other.coeff)

    def __sub__(self, other):
        return SpectralField(self.coeff - other.coeff)

    def __rmul__(self, scalar):
        return SpectralField(scalar * self.coeff)

    def _power(self):
        """|coeff|^2 summed over the components, one component at a time."""
        power = self.coeff[0].real**2 + self.coeff[0].imag**2
        for c in self.coeff[1:]:
            power += c.real**2 + c.imag**2
        return power

    def _parseval(self, power, weights):
        """sqrt(BOX^3 / n^6 * sum of weights * power over stored modes)."""
        return float(np.sqrt(np.sum(power * weights) * BOX**3 / self.n**6))

    def l2(self):
        """Physical L^2 norm over the torus (via Parseval)."""
        return self._parseval(self._power(), _parseval_weights(self.n)[0])

    def w1r(self, r):
        """Discrete W^{1,r} norm with spectral gradients.

        For r = 2 both terms follow from the coefficients by Parseval,
        with no transform; other r go through sobolev_norm on the samples.
        """
        if r == 2.0:
            power = self._power()
            w, wk2 = _parseval_weights(self.n)
            return self._parseval(power, w) + self._parseval(power, wk2)
        return sobolev_norm(self.to_physical(), BOX, r).value


def leray_project(fld):
    """Project onto divergence-free fields: vhat -= k (k . vhat) / |k|^2.

    Idempotent, annihilates gradients, fixes solenoidal fields; the mean
    mode is zeroed.  The Nyquist planes are dropped as well: k is zero at
    each axis' Nyquist index, so the discrete divergence cannot see a
    field's component along that axis there, nor the projector remove it.
    """
    coeff = fld.coeff.copy()
    _leray_in_place(coeff)
    return SpectralField(coeff)


def _leray_in_place(coeff):
    """leray_project on a (3, n, n, n//2 + 1) array, overwriting it.

    Each component becomes c - k_c (k . c / |k|^2), the same element-wise
    arithmetic as the out-of-place expression, with one component's
    scratch for k_c (k . c / |k|^2).
    """
    n = coeff.shape[1]
    k, _, inv_k2 = _wavenumbers(n)
    kdotv = np.einsum("aijk,aijk->ijk", k, coeff)
    kdotv *= inv_k2
    term = np.empty_like(kdotv)
    for kc, c in zip(k, coeff):
        np.multiply(kc, kdotv, out=term)
        c -= term
    coeff[:, 0, 0, 0] = 0.0
    if n % 2 == 0:
        coeff[:, n // 2, :, :] = 0.0
        coeff[:, :, n // 2, :] = 0.0
        coeff[:, :, :, n // 2] = 0.0


def stokes_solve(forcing):
    """Exact periodic Stokes solve: -Delta v + grad pi = f, div v = 0.

    In Fourier space v = P f / |k|^2 with P the Leray projector; the
    pressure gradient is eliminated exactly.  Rejects forcing with a
    nonzero mean mode (the torus Stokes operator cannot balance it).
    """
    coeff = forcing.coeff.copy()
    _stokes_in_place(coeff)
    return SpectralField(coeff)


def _stokes_in_place(coeff):
    """stokes_solve on a (3, n, n, n//2 + 1) array, overwriting it."""
    n = coeff.shape[1]
    mean = np.abs(coeff[:, 0, 0, 0] / n**3)
    scale = np.max([np.max(np.abs(c)) for c in coeff]) / n**3
    if np.any(mean > 1e-10 * max(scale, 1e-300)):
        raise ValueError("forcing must have zero mean")
    _leray_in_place(coeff)
    coeff *= _wavenumbers(n)[2]


def dealias(fld):
    """Zero every mode above the 2/3 cutoff."""
    return SpectralField(fld.coeff * _dealias_mask(fld.n))


@dataclass(frozen=True)
class MollifiedDrift:
    """Landau drift with a radial C^3 cutoff, realized on the torus grid.

    `field` is the Leray projection of the samples chi * U, which vanish
    exactly for |x| < delta_in/2 and |x| > delta_out (the grid drift must
    be divergence free); projection_deviation is the relative grid-L^2
    change caused by the projection.  phys_dealiased holds the samples of
    the 2/3-dealiased field that every Picard step reads.
    """

    params: LandauParams
    delta_in: float
    delta_out: float
    field: SpectralField
    projection_deviation: float
    phys_dealiased: np.ndarray = None  # derived; filled in __post_init__

    def __post_init__(self):
        n = self.n
        phys = np.empty((3, n, n, n))
        for dst, src in zip(phys, _component_samples(self.field.coeff,
                                                     _dealias_mask(n))):
            dst[...] = src
        object.__setattr__(self, "phys_dealiased", phys)

    @property
    def n(self):
        return self.field.n


def _mollified_samples(params, n, delta_in, delta_out):
    """(3, n, n, n) samples of chi(|x|) U^b on the torus grid."""
    x1 = _axis(n)
    rho = np.sqrt(x1[:, None, None]**2 + x1[None, :, None]**2 + x1**2)
    rise = smoothstep7((rho - delta_in / 2.0) / (delta_in / 2.0))[0]
    fall = smoothstep7((rho - 0.75 * delta_out) / (0.25 * delta_out))[0]
    del rho
    np.subtract(1.0, fall, out=fall)
    chi = rise
    chi *= fall
    del fall

    samples = np.zeros((3, n, n, n))
    mask = chi > 0.0
    if params.beta > 0.0 and np.any(mask):
        # C-ordered (m, 3), as coords[:, mask].T: landau_eval's bits
        # depend on the layout of its points
        pts = np.stack([x1[i] for i in np.nonzero(mask)], axis=-1)
        u = landau_eval(params, pts).u
        samples[:, mask] = (chi[mask][:, None] * u).T
    return samples


def _projection_deviation(samples, coeff):
    """|P s - s| / |s| in grid L^2, with coeff the projection P s.

    Overwrites samples with P s - s, a component at a time.
    """
    norm_raw = np.linalg.norm(samples)
    if not norm_raw > 0.0:
        return 0.0
    for s, projected in zip(samples, _component_samples(coeff)):
        np.subtract(projected, s, out=s)
    return float(np.linalg.norm(samples) / norm_raw)


def make_mollified_drift(params, n, delta_in=0.3, delta_out=1.5):
    """Sample chi(|x|) U^b on the n^3 torus grid and re-project.

    chi rises from 0 to 1 across [delta_in/2, delta_in] and falls back to
    0 across [3 delta_out/4, delta_out], both through the C^3 septic step,
    so the sampled drift is C^3 and band-limited enough for the grid.
    """
    delta_in = float(delta_in)
    delta_out = float(delta_out)
    if not (0.0 < delta_in < delta_out):
        raise ValueError("need 0 < delta_in < delta_out")
    if delta_out >= BOX / 2.0:
        raise ValueError("outer cutoff must fit inside the torus")
    n = int(n)

    samples = _mollified_samples(params, n, delta_in, delta_out)
    coeff = scipy.fft.rfftn(samples, axes=(1, 2, 3))
    _leray_in_place(coeff)
    deviation = _projection_deviation(samples, coeff)
    del samples
    return MollifiedDrift(params=params, delta_in=delta_in, delta_out=delta_out,
                          field=SpectralField(coeff),
                          projection_deviation=deviation)


def make_forcing(n, amplitude, seed=None):
    """Smooth mean-zero divergence-free forcing with max speed `amplitude`.

    With seed None the deterministic shear triple (sin(y/2), sin(z/2),
    sin(x/2)) is used; an integer seed draws a random band-limited field
    instead (modes up to |k_int| <= 3), Leray-projected and rescaled so
    the maximal pointwise speed equals the amplitude.
    """
    n = int(n)
    amplitude = float(amplitude)
    if not np.isfinite(amplitude) or amplitude < 0.0:
        raise ValueError("amplitude must be finite and nonnegative")
    if seed is None:
        wave = amplitude * np.sin(0.5 * _axis(n))
        phys = np.empty((3, n, n, n))
        phys[0] = wave[None, :, None]
        phys[1] = wave[None, None, :]
        phys[2] = wave[:, None, None]
        return SpectralField.from_physical(phys)
    rng = np.random.default_rng(seed)
    coeff = scipy.fft.rfftn(rng.standard_normal((3, n, n, n)), axes=(1, 2, 3))
    coeff *= _band(n, 3)
    _leray_in_place(coeff)
    # |v|^2 summed over the components in order, as norm(axis=0) sums it
    speed2 = 0.0
    for p in _component_samples(coeff):
        p *= p
        speed2 += p
    speed = np.sqrt(speed2).max()
    if amplitude > 0.0 and speed == 0.0:
        raise RuntimeError("degenerate random forcing draw")
    scale = amplitude / speed if speed > 0.0 else 0.0
    np.multiply(scale, coeff, out=coeff)
    return SpectralField(coeff)


# the 6 distinct entries (i, j) of a symmetric 3x3 tensor, in the order
# picard_step forms them, and the entry that each (i, j) reads
_SYM_PAIRS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2))
_SYM_ENTRY = ((0, 2, 3), (2, 1, 4), (3, 4, 5))


def picard_step(v, drift, forcing):
    """One application of the Picard map Phi.

    Phi(v) solves the periodic Stokes problem with forcing
    f - div( U (x) v + v (x) (U + v) ); the tensor products are formed in
    physical space from 2/3-dealiased samples and the divergence is taken
    spectrally, with the result truncated to the dealiased band.  The
    tensor is symmetric, so only its 6 distinct entries are formed.

    The step streams: 3 single-component irfftn bring v to physical
    space, then each entry M_ij, in the order of _SYM_PAIRS, is formed in
    one (n, n, n) scratch, transformed by one rfftn, and folded into the
    divergence rows it feeds (row i gains k_j M_ij, row j gains k_i M_ij)
    before the next is formed.  In that order every row adds its terms
    as k_0 M_i0 + k_1 M_i1 + k_2 M_i2 from the left, except that row 1
    starts with k_1 M_11 + k_0 M_10, a swap that IEEE addition does not
    see; so the step keeps the bits of one stacked 6-entry transform.
    The Stokes solve then runs in place on the step's own array.
    """
    n = v.n
    if drift is not None and drift.n != n:
        raise ValueError("drift grid does not match the iterate")
    k, _, _ = _wavenumbers(n)
    mask = _dealias_mask(n)
    v_phys = list(_component_samples(v.coeff, mask))
    u_phys = None if drift is None else drift.phys_dealiased
    div_M = np.empty((3, n, n, n // 2 + 1), dtype=complex)
    started = [False, False, False]
    # one buffer serves as the real entry M_ij and, once M_ij is
    # transformed, as the complex term k_j M_ij added to a row
    scratch = np.empty(n * n * (n // 2 + 1), dtype=complex)
    M = scratch.view(float)[:n**3].reshape(n, n, n)
    term = scratch.reshape(n, n, n // 2 + 1)
    w_j = None if drift is None else np.empty((n, n, n))
    for i, j in _SYM_PAIRS:
        # M_ij = U_i v_j + v_i (U + v)_j ; (div M)_i = d_j M_ij
        if drift is None:
            np.multiply(v_phys[i], v_phys[j], out=M)
        else:
            np.multiply(u_phys[i], v_phys[j], out=M)
            np.add(u_phys[j], v_phys[j], out=w_j)
            w_j *= v_phys[i]
            M += w_j
        M_hat = scipy.fft.rfftn(M)
        for row, kj in ((i, j),) if i == j else ((i, j), (j, i)):
            if started[row]:
                np.multiply(k[kj], M_hat, out=term)
                div_M[row] += term
            else:
                np.multiply(k[kj], M_hat, out=div_M[row])
                started[row] = True
        del M_hat
    del v_phys, scratch, M, term, w_j
    div_M *= 1j * mask
    np.subtract(forcing.coeff, div_M, out=div_M)
    _stokes_in_place(div_M)
    return SpectralField(div_M)


@dataclass
class IterationTrace:
    """Per-iteration record of a Picard run.

    norms[i] is the W^{1,r} norm of the i-th iterate, increments[i] the
    norm of the i-th update, ratios[i] the successive increment quotient
    (one entry shorter).  residual is the W^{1,r} norm of the fixed-point
    defect v - Phi(v) at the final iterate, which for r = 2 equals the
    H^{-1}-type norm of the momentum equation residual.
    """

    norms: list
    increments: list
    ratios: list
    residual: float
    converged: bool
    exponent: float
    grid: int
    tol: float
    uniqueness_distance: float = None

    @property
    def iterations(self):
        return len(self.increments)


class ContractionDivergedError(RuntimeError):
    """Iterates left the contraction regime (norm grew a thousandfold or
    overflowed)."""

    def __init__(self, trace):
        super().__init__(
            "Picard iteration diverged: the iterate norm exceeded 1000x the "
            "first iterate or overflowed (forcing or drift outside the "
            "smallness regime)")
        self.trace = trace


def run_contraction(drift, forcing, r=2.0, max_iters=40, tol=1e-9,
                    second_start=True):
    """Iterate the Picard map from v = 0 and record the contraction trace.

    Stops when the W^{1,r} increment drops below tol or max_iters is
    reached; raises ContractionDivergedError when the iterate norm grows
    beyond a thousand times the first iterate (the cheap witness of
    leaving the smallness regime) or stops being finite.  With
    second_start a second run from v0 = StokesSolve(f) / 2 is performed
    and the W^{1,r} distance between the two fixed points is reported,
    the numerical counterpart of the uniqueness argument.  That start
    lies in the contraction ball (on the segment from 0 to
    Phi(0) = StokesSolve(f)) but not on the first run's trajectory, so
    the two runs are independent witnesses.
    """
    r = float(r)
    if not (1.0 < r < 3.0):
        raise ValueError("norm exponent must lie in (1, 3)")
    max_iters = int(max_iters)
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    tol = float(tol)
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")

    def iterate(v, trace):
        # v is rebound each step, so the start is released after one
        first_norm = None
        previous_increment = None
        for _ in range(max_iters):
            v_next = picard_step(v, drift, forcing)
            increment = (v_next - v).w1r(r)
            norm = v_next.w1r(r)
            if trace is not None:
                trace.norms.append(norm)
                trace.increments.append(increment)
                if previous_increment is not None and previous_increment > 0.0:
                    trace.ratios.append(increment / previous_increment)
            if first_norm is None:
                first_norm = norm
            v = v_next
            # on overflow an inf first norm bounds nothing and NaN fails
            # every comparison, so a non-finite norm counts by itself
            if not np.isfinite(norm) or (first_norm > 0.0 and norm
                                         > _DIVERGENCE_FACTOR * first_norm):
                raise ContractionDivergedError(trace)
            if increment < tol:
                return v, True
            previous_increment = increment
        return v, False

    trace = IterationTrace(norms=[], increments=[], ratios=[], residual=np.nan,
                           converged=False, exponent=r, grid=forcing.n, tol=tol)
    v_star, converged = iterate(SpectralField.zeros(forcing.n), trace)
    trace.converged = converged
    trace.residual = (v_star - picard_step(v_star, drift, forcing)).w1r(r)

    if second_start:
        v_alt, _ = iterate(0.5 * stokes_solve(forcing), None)
        trace.uniqueness_distance = (v_star - v_alt).w1r(r)
    return trace
