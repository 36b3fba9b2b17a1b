"""Periodic Fourier machinery and the Picard map for the perturbed problem.

Near the singularity the difference v between a very weak solution and
the matching Landau field solves a Stokes problem perturbed by the Landau
drift U and its own quadratic term,

    -Delta v + div( U (x) v + v (x) (U + v) ) + grad pi = f,   div v = 0.

The fixed point of the Picard map

    Phi(v) = StokesSolve( f - div( U (x) v + v (x) (U + v) ) )

is that solution, and Phi is a strict contraction when the drift and the
data are small.  Computed, Phi is its Galerkin truncation to the
dealiased band B (the modes with every integer frequency <= n // 3):

    Phi(v) = StokesSolve( P_B ( f - div( U (x) v + v (x) (U + v) ) ) ),

which reads only v's band and returns a field supported on B.  This
module demonstrates the mechanism at desk scale in a deliberately
simplified geometry: the ball with Dirichlet conditions and its
divergence-fixing corrector are replaced by a periodic torus of side
4 pi (so the ball of radius 2 about the origin embeds), where the Stokes
inverse is exact in Fourier space after Leray projection.  The
contraction estimate itself (small drift and data force a ratio below
one half) does not depend on that geometry choice.

The drift is the Landau field with a C^3 radial cutoff vanishing inside
delta_in / 2 and outside delta_out, re-projected to be divergence free
(the torus grid cannot represent the 1/|x| singularity); the grid-L^2
deviation caused by the projection is reported.  Quadratic products are
dealiased by the 2/3 rule.

Fields are real and stored as a band of their half spectrum: of the
(n, n, n//2 + 1) array that scipy.fft.rfftn returns per component, the
(2c + 1, 2c + 1, c + 1) block of the modes with every integer frequency
<= c, for a cut c <= (n - 1) // 2, its rows in FFT order (0 .. c, then
-c .. -1).  No band holds a Nyquist index.  There the odd-derivative
wavenumber is zero, so the discrete divergence cannot see a component
and a Leray projection on the whole grid drops it; the band of cut
(n - 1) // 2 thus holds every mode a Leray-projected field can carry.
The drift is projected on that band, which only its build holds; the
forcing is its own small band, and every Picard iterate the band of cut
n // 3, 30% of the half spectrum at n = 64.
W^{1,2} norms, and the drift's projection deviation, follow from the
coefficients by Parseval; a band's weighted |coeff|^2 terms are summed
inside a zeroed half-spectrum array, so numpy's pairwise summation adds
them in the groups of the zero-filled half spectrum and every norm keeps
those bits.

Every transform is pruned: one-axis passes in rfftn's order (rfft along
the last axis, then fft along the first and the second), or irfftn's in
reverse, each on only the columns the band reaches, one component at a
time.  The inverse pads a band once, into the zero-filled half spectrum,
and runs its axis-0 pass as two in-place calls there, one per block of
the band's columns.  The drift's samples vanish outside a cube around
the origin, so its forward passes also skip the lines that are zero
there; a zero line transforms to zeros, up to the sign of a zero.  The
inverse runs its passes unscaled and applies irfftn's 1 / n^3 once, at
the end; so the pruned transforms keep the bits of the full 3-D ones on
the zero-filled half spectrum, while scaling after the first pass would
not unless n is a power of two.  The Picard step brings v's band to
physical space, forms the 6 distinct entries of the symmetric
tensor on the full grid (the only stage that needs it), a slab of
axis-0 planes at a time, each slab's rfft along the last axis straight
after its products, finishes each entry's transform to the band, and
runs the Leray projection and the Stokes solve in place on the band,
where both act mode by mode.  The zero iterate skips all of that: its
tensor is zero, so its image is the Stokes solve of the forcing's band.
A component's or a slab's transform gives the same bits alone as inside
a stacked call, and the in-place arithmetic repeats the out-of-place
expressions element by element, so every result keeps the bits of the
stacked, whole-spectrum computation, up to the sign of a zero.

The transforms keep scipy.fft's single worker.  Two workers give the
same bits, but on a shared 2-vCPU host they made Picard runs slower and
far noisier whenever the second vCPU was busy elsewhere.
"""

import numpy as np
import scipy.fft
from dataclasses import dataclass
from functools import lru_cache

from .landau import LandauField, LandauParams
from .quadrature import _half_wavenumbers, sobolev_norm
from .weakform import smoothstep7

__all__ = [
    "BOX", "SpectralField", "leray_project", "stokes_solve",
    "MollifiedDrift", "make_mollified_drift", "make_forcing",
    "picard_step", "IterationTrace", "ContractionDivergedError",
    "run_contraction",
]

# torus side: 2 pi * 2, chosen so the ball of radius 2 embeds
BOX = 4.0 * np.pi

_DIVERGENCE_FACTOR = 1e3

# bytes of the slab of axis-0 planes in which picard_step forms a tensor
# entry and transforms it along the last axis: the products stay in
# cache, and the step holds neither a whole entry nor its whole rfft
_SLAB_BYTES = 2**18


@lru_cache(maxsize=1)
def _wavenumbers(n, cut):
    """(k, |k|^2, 1/|k|^2 with the zero mode masked) on the band of cut.

    k is the tuple (k_0, k_1, k_2) of 1-D wavenumbers shaped to broadcast
    over the band; |k|^2 is also the Parseval weight of the gradient.
    Only the last cut is kept: a contraction reads the drift's cut once,
    then the step cut n // 3 for every step and norm.
    """
    rows = _band_rows(n, cut)
    kx, ky, kz = _half_wavenumbers(n, BOX)
    k = (kx[rows], ky[:, rows], kz[..., :cut + 1])
    # summed in the order (k**2).sum(axis=0) adds a stacked table
    k2 = k[0]**2 + k[1]**2 + k[2]**2
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0.0] = 1.0 / k2[k2 > 0.0]
    return k, k2, inv_k2


def _band_rows(n, cut):
    """Indices of the integer frequencies -cut .. cut on a full FFT axis.

    cut is capped at (n - 1) // 2, so the band never holds a Nyquist index.
    """
    cut = min(cut, (n - 1) // 2)
    return np.r_[0:cut + 1, n - cut:n]


def _take_band(coeff, cut):
    """The (..., 2 cut + 1, 2 cut + 1, cut + 1) band of a half spectrum.

    The band holds the modes with every integer frequency <= cut, the
    rows of its first two axes in FFT order (0 .. cut, then -cut .. -1).
    A band of a larger cut c is such a half spectrum itself, its axes
    FFT axes of length 2 c + 1.
    """
    rows = _band_rows(coeff.shape[-2], cut)
    return coeff[..., rows[:, None], rows, :len(rows) // 2 + 1]


def _put_band(band, n):
    """The zero-filled (..., n, n, n//2 + 1) half spectrum holding band,
    which with n = 2 c + 1 is the zero-filled band of a larger cut c."""
    rows = _band_rows(n, band.shape[-1] - 1)
    out = np.zeros(band.shape[:-3] + (n, n, n // 2 + 1), dtype=band.dtype)
    out[..., rows[:, None], rows, :band.shape[-1]] = band
    return out


def _band_to_physical(band, n):
    """(n, n, n) samples of one band component, pruned.

    Equal bit for bit to irfftn of the zero-filled half spectrum: the
    same one-axis passes in the same order (ifft along axis 0, ifft along
    axis 1, irfft along axis 2), unscaled, each on only the columns the
    band reaches, and one final scaling by 1 / n^3 as irfftn applies it.
    Scaling earlier would change the bits unless n is a power of two.
    The band is padded once, into the zero-filled half spectrum that the
    irfft reads (cheaper than letting irfft pad a (n, n, cut + 1) input);
    the axis-0 pass is two in-place calls on its two blocks of band
    columns, and the axis-1 pass one on the band's last-axis columns.
    """
    cut = band.shape[-1] - 1
    w = cut + 1
    full = _put_band(band, n)
    scipy.fft.ifft(full[:, :w, :w], axis=0, norm="forward", overwrite_x=True)
    scipy.fft.ifft(full[:, n - cut:, :w], axis=0, norm="forward",
                   overwrite_x=True)
    scipy.fft.ifft(full[..., :w], axis=1, norm="forward", overwrite_x=True)
    samples = scipy.fft.irfft(full, n=n, axis=2, norm="forward")
    samples *= 1.0 / n**3
    return samples


def _physical_to_band(samples, cut, n=None, start=0):
    """The band |f| <= cut of rfftn of one (n, n, n) component.

    samples is the (b, b, b) cube of the component at the indices
    start .. start + b - 1 of every axis, and the component is zero
    outside it; by default the cube is the whole grid.  Equal bit for bit
    to rfftn's coefficients on the band: rfft along axis 2, then fft
    along axis 0 and fft along axis 1, as rfftn orders them, each pass on
    only the lines that are not zero and that the band keeps.  A skipped
    zero line transforms to zeros, but pocketfft may give some of them a
    negative sign, so a coefficient that is zero can differ from rfftn's
    in its sign when the cube is not the whole grid.  The samples go once
    into a zeroed (b, b, n) array, whose rfft along the last axis gives
    the same bits in one call as line by line.  Under tracemalloc,
    make_forcing, the one whole-grid caller, peaks with a seed at 6.6 MB
    at n = 64 and 51.7 MB at n = 128 (4.4 and 34.3 MB for the shear
    triple), below a Picard step's 11.6 and 87.1 MB; glibc
    returns those temporaries, so each whole-grid call faults them in
    again (about 1,000 minor faults and 3 ms at n = 64).
    """
    b = samples.shape[0]
    n = b if n is None else n
    box = slice(start, start + b)
    lines = np.zeros((b, b, n))
    lines[..., box] = samples
    half = np.zeros((n, n, cut + 1), dtype=complex)
    half[box, box] = scipy.fft.rfft(lines, axis=2)[..., :cut + 1]
    return _columns_to_band(half, cut, box)


def _columns_to_band(half, cut, box=slice(None)):
    """The band of cut of the fft along axes 0 and 1 of half.

    half is the (n, n, cut + 1) block of rfft columns along axis 2, zero
    outside the columns box of axis 1.  Both passes run in place on half:
    the axis-0 pass on the columns box, the axis-1 pass on the band's
    rows.
    """
    n = half.shape[0]
    scipy.fft.fft(half[:, box], axis=0, overwrite_x=True)
    scipy.fft.fft(half[:cut + 1], axis=1, overwrite_x=True)
    scipy.fft.fft(half[n - cut:], axis=1, overwrite_x=True)
    return _take_band(half, cut)


def _axis(n):
    """Coordinates of the torus grid along one axis, origin at a grid point."""
    return (np.arange(n) - n // 2) * (BOX / n)


@dataclass
class SpectralField:
    """Real periodic 3-vector field on the n^3 torus grid, stored as a band.

    coeff is the (3, 2c + 1, 2c + 1, c + 1) band of cut c <= (n - 1) // 2
    of the field's rfftn half spectrum (see _take_band); every mode
    outside it is zero.  The last axis keeps the frequencies 0 .. c, the
    rest are the complex conjugates of stored modes, so column 0 stands
    for one mode and every other column for two, and Parseval norms
    weight them so.  Column 0 is Hermitian in the first two axes, as
    rfftn makes it.  The mean mode is kept at zero by the operations here.
    """

    coeff: np.ndarray
    n: int

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=complex)
        self.n = int(self.n)
        m = 2 * self.coeff.shape[-1] - 1
        if self.coeff.shape != (3, m, m, m // 2 + 1) or m > self.n:
            raise ValueError("coefficients must have the shape (3, 2c + 1,"
                             " 2c + 1, c + 1) of a band of cut"
                             " c <= (n - 1) // 2")

    @property
    def cut(self):
        """The cut of the stored band."""
        return self.coeff.shape[-1] - 1

    @classmethod
    def zeros(cls, n, cut):
        """The zero field on the band of cut."""
        m = 2 * cut + 1
        return cls(np.zeros((3, m, m, cut + 1), dtype=complex), n)

    def _band(self, cut):
        """coeff trimmed or zero-padded to the band of cut (coeff itself at
        its own cut)."""
        if cut == self.cut:
            return self.coeff
        if cut < self.cut:
            return _take_band(self.coeff, cut)
        return _put_band(self.coeff, 2 * cut + 1)

    def to_physical(self):
        """Real-space samples (3, n, n, n), a component at a time."""
        samples = np.empty((3, self.n, self.n, self.n))
        for dst, band in zip(samples, self.coeff):
            dst[...] = _band_to_physical(band, self.n)
        return samples

    def __sub__(self, other):
        if (other.n, other.cut) != (self.n, self.cut):
            raise ValueError("fields on different grids or bands")
        return SpectralField(self.coeff - other.coeff, self.n)

    def __rmul__(self, scalar):
        return SpectralField(scalar * self.coeff, self.n)

    def _power(self):
        """|coeff|^2 summed over the components, one component at a time."""
        # an overflow gives inf, which run_contraction's divergence
        # detector reads as leaving the regime; numpy need not warn of it
        with np.errstate(over="ignore"):
            power = self.coeff[0].real**2 + self.coeff[0].imag**2
            for c in self.coeff[1:]:
                power += c.real**2 + c.imag**2
        return power

    def _parseval(self, terms):
        """sqrt(BOX^3 / n^6 * sum of weighted terms), one term per stored mode.

        Column 0 of the last axis stands for one mode, every other column
        for itself and its conjugate (a band has no Nyquist column), so its
        terms count twice.  The terms are weighted and summed in a zeroed
        (n, n, n//2 + 1) array, so numpy's pairwise summation groups them
        as it does for the zero-filled half spectrum and the sum keeps
        those bits.
        """
        full = _put_band(terms, self.n)
        full[..., 1:terms.shape[-1]] *= 2.0
        return float(np.sqrt(np.sum(full) * BOX**3 / self.n**6))

    def w1r(self, r):
        """Discrete W^{1,r} norm with spectral gradients.

        For r = 2 both terms follow from the coefficients by Parseval,
        with no transform; other r go through sobolev_norm on the samples.
        """
        if r == 2.0:
            power = self._power()
            k2 = _wavenumbers(self.n, self.cut)[1]
            return self._parseval(power) + self._parseval(power * k2)
        return sobolev_norm(self.to_physical(), BOX, r).value


def leray_project(fld):
    """Project onto divergence-free fields: vhat -= k (k . vhat) / |k|^2.

    Idempotent, annihilates gradients, fixes solenoidal fields; the mean
    mode is zeroed.
    """
    coeff = fld.coeff.copy()
    _leray_in_place(coeff, fld.n)
    return SpectralField(coeff, fld.n)


def _leray_in_place(coeff, n):
    """leray_project on a band (see _take_band), overwriting it.

    Each component becomes c - k_c (k . c / |k|^2), the same element-wise
    arithmetic as the out-of-place expression; a mode's value does not
    depend on the cut of the band it sits in.  k . c is summed from a zero
    start, k_0 c_0 first, as einsum("aijk,aijk->ijk") sums it.
    """
    k, _, inv_k2 = _wavenumbers(n, coeff.shape[-1] - 1)
    kdotv = sum(kc * c for kc, c in zip(k, coeff))
    kdotv *= inv_k2
    for kc, c in zip(k, coeff):
        c -= kc * kdotv
    coeff[:, 0, 0, 0] = 0.0


def stokes_solve(forcing):
    """Exact periodic Stokes solve: -Delta v + grad pi = f, div v = 0.

    In Fourier space v = P f / |k|^2 with P the Leray projector; the
    pressure gradient is eliminated exactly.  Rejects forcing with a
    nonzero mean mode (the torus Stokes operator cannot balance it).
    """
    coeff = forcing.coeff.copy()
    _stokes_in_place(coeff, forcing.n)
    return SpectralField(coeff, forcing.n)


def _stokes_in_place(coeff, n):
    """stokes_solve on a band, overwriting it."""
    mean = np.abs(coeff[:, 0, 0, 0] / n**3)
    scale = np.max([np.max(np.abs(c)) for c in coeff]) / n**3
    if np.any(mean > 1e-10 * max(scale, 1e-300)):
        raise ValueError("forcing must have zero mean")
    _leray_in_place(coeff, n)
    coeff *= _wavenumbers(n, coeff.shape[-1] - 1)[2]


@dataclass(frozen=True)
class MollifiedDrift:
    """Landau drift with a radial C^3 cutoff, realized on the n^3 torus grid.

    The drift is the Leray projection of the samples chi * U, which
    vanish exactly for |x| < delta_in/2 and |x| > delta_out (the grid
    drift must be divergence free), on the band of cut (n - 1) // 2 that
    holds every mode it can carry; projection_deviation is the relative
    grid-L^2 change caused by the projection, taken by Parseval (see
    _projected_drift).  phys_dealiased holds the samples of its
    2/3-dealiased part, all that a Picard step reads.
    """

    params: LandauParams
    delta_in: float
    delta_out: float
    n: int
    projection_deviation: float
    phys_dealiased: np.ndarray


def _mollified_box(params, n, delta_in, delta_out):
    """(box, (3, b, b, b) samples of chi(|x|) U^b on the cube box^3).

    box is the slice of grid indices with |x_i| <= delta_out along one
    axis.  chi vanishes outside its cube: a coordinate beyond delta_out
    puts |x| there too, where the falling step is smoothstep7(1) == 1.0.
    """
    inside = np.flatnonzero(np.abs(_axis(n)) <= delta_out)
    box = slice(inside[0], inside[-1] + 1)
    x1 = _axis(n)[box]
    rho = np.sqrt(x1[:, None, None]**2 + x1[None, :, None]**2 + x1**2)
    rise = smoothstep7((rho - delta_in / 2.0) / (delta_in / 2.0))[0]
    fall = smoothstep7((rho - 0.75 * delta_out) / (0.25 * delta_out))[0]
    chi = rise * (1.0 - fall)

    samples = np.zeros((3,) + chi.shape)
    mask = chi > 0.0
    u = LandauField(params).velocity(x1[np.argwhere(mask)])
    samples[:, mask] = (chi[mask][:, None] * u).T
    return box, samples


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
    band, deviation = _projected_drift(params, n, delta_in, delta_out)
    # rebound, the wide band is freed before the inverses
    band = _take_band(band, n // 3)
    phys = SpectralField(band, n).to_physical()
    return MollifiedDrift(params=params, delta_in=delta_in, delta_out=delta_out,
                          n=n, projection_deviation=deviation,
                          phys_dealiased=phys)


def _projected_drift(params, n, delta_in, delta_out):
    """(band of cut (n - 1) // 2 of the projected drift, projection deviation).

    The samples s are formed and transformed on their support cube only.
    The band truncation composed with the Leray projection is an
    orthogonal projector P in grid L^2, so |P s - s|^2 = |s|^2 - |P s|^2:
    the deviation |P s - s| / |s| takes |s| from the cube's samples and
    |P s| from the band by Parseval, with no transform back.  Deviations
    of a cut-off Landau drift are about one half or more, so the
    difference loses no digits to cancellation.
    """
    box, values = _mollified_box(params, n, delta_in, delta_out)
    band = np.stack([_physical_to_band(v, (n - 1) // 2, n, box.start)
                     for v in values])
    _leray_in_place(band, n)
    norm_raw = np.sqrt(sum(np.sum(v**2) for v in values))
    if not norm_raw > 0.0:
        return band, 0.0
    fld = SpectralField(band, n)
    ratio = fld._parseval(fld._power()) / (norm_raw * np.sqrt((BOX / n)**3))
    return band, float(np.sqrt(1.0 - ratio**2))


def make_forcing(n, amplitude, seed=None):
    """Smooth mean-zero divergence-free forcing of size `amplitude`.

    With seed None the deterministic shear triple amplitude * (sin(y/2),
    sin(z/2), sin(x/2)) is used, held on its band of cut 1: all three
    components peak at the amplitude together, so its maximal speed is
    sqrt(3) * amplitude (on the grid points when 4 divides n).  An integer
    seed draws a random field on the band of cut min(3, n // 3) instead,
    Leray-projected and rescaled so the maximal pointwise speed equals the
    amplitude.  Both lie inside the band of cut n // 3 that every Picard
    step keeps (the shear triple once n >= 3).
    """
    n = int(n)
    amplitude = float(amplitude)
    if not np.isfinite(amplitude) or amplitude < 0.0:
        raise ValueError("amplitude must be finite and nonnegative")
    if seed is None:
        # the triple holds the integer frequency 1 alone; its band of cut
        # 1 drops only the transform's round-off outside it
        wave = amplitude * np.sin(0.5 * _axis(n))
        return SpectralField(np.stack([
            _physical_to_band(np.broadcast_to(wave.reshape(shape), (n,) * 3), 1)
            for shape in ((1, n, 1), (1, 1, n), (n, 1, 1))]), n)
    cut = min(3, n // 3)
    rng = np.random.default_rng(seed)
    # three (n, n, n) draws continue the stream as one (3, n, n, n) draw
    band = np.stack([_physical_to_band(rng.standard_normal((n, n, n)), cut)
                     for _ in range(3)])
    _leray_in_place(band, n)
    # |v|^2 summed over the components in order, as norm(axis=0) sums it
    speed = np.sqrt(sum(_band_to_physical(b, n)**2 for b in band)).max()
    if amplitude > 0.0 and speed == 0.0:
        raise RuntimeError("degenerate random forcing draw")
    scale = amplitude / speed if speed > 0.0 else 0.0
    np.multiply(scale, band, out=band)
    return SpectralField(band, n)


# the 6 distinct entries (i, j) of a symmetric 3x3 tensor, in the order
# picard_step forms them
_SYM_PAIRS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2))


def picard_step(v, drift, forcing):
    """One application of the Picard map Phi.

    Phi(v) solves the periodic Stokes problem with the forcing
    P_B (f - div( U (x) v + v (x) (U + v) )), P_B the truncation to the
    dealiased band B of cut n // 3: the tensor products are formed in
    physical space from the samples of v's band and the divergence is
    taken spectrally on B.  Any part of f outside B is dropped
    (make_forcing builds forcings inside it for n >= 3).  The drift U is
    a MollifiedDrift on v's grid, required: U = 0 is the drift of
    LandauParams.zero().  The tensor is symmetric, so only its 6 distinct
    entries are formed.

    The step streams: 3 pruned inverses bring v's band to physical space,
    then each entry M_ij, in the order of _SYM_PAIRS, is formed a slab of
    _SLAB_BYTES at a time, each slab transformed along the last axis as
    soon as it is formed, finished by the pruned passes to B, and folded
    into the divergence rows it feeds (row i gains k_j M_ij, row j gains
    k_i M_ij) before the next is formed.  In that order every row sums
    k_0 M_i0 + k_1 M_i1 + k_2 M_i2 from zero, except that row 1 adds
    k_1 M_11 before k_0 M_10, a swap that IEEE addition does not see; so
    the step keeps the values of one stacked 6-entry transform.
    The Stokes solve runs in place on the band, and the result is that
    band: a SpectralField of cut n // 3.  When v's band is zero, so is the
    tensor, and the step returns the Stokes solve of f's band without a
    transform.
    """
    n = v.n
    if drift.n != n:
        raise ValueError("drift grid does not match the iterate")
    cut = n // 3   # the 2/3 rule
    v_band = v._band(cut)
    if not v_band.any():
        # the tensor of the zero field is zero: Phi(0) = S(P_B f)
        return stokes_solve(SpectralField(forcing._band(cut), n))
    k, _, _ = _wavenumbers(n, cut)
    v_phys = [_band_to_physical(b, n) for b in v_band]
    div_M = np.zeros_like(v_band)
    del v_band   # a copy when v holds another cut
    u_phys = drift.phys_dealiased
    half = np.empty((n, n, cut + 1), dtype=complex)
    planes = max(1, _SLAB_BYTES // (8 * n * n))
    M = np.empty((min(planes, n), n, n))
    w_j = np.empty_like(M)
    for i, j in _SYM_PAIRS:
        # M_ij = U_i v_j + v_i (U + v)_j ; (div M)_i = d_j M_ij
        for a in range(0, n, planes):
            s = slice(a, min(a + planes, n))
            m = M[:s.stop - a]
            w = w_j[:s.stop - a]
            np.multiply(u_phys[i][s], v_phys[j][s], out=m)
            np.add(u_phys[j][s], v_phys[j][s], out=w)
            w *= v_phys[i][s]
            m += w
            half[s] = scipy.fft.rfft(m, axis=2)[..., :cut + 1]
        M_hat = _columns_to_band(half, cut)
        for row, kj in ((i, j),) if i == j else ((i, j), (j, i)):
            div_M[row] += k[kj] * M_hat
        del M_hat
    del v_phys, M, w_j
    div_M *= 1j
    np.subtract(forcing._band(cut), div_M, out=div_M)
    _stokes_in_place(div_M, n)
    return SpectralField(div_M, n)


@dataclass
class IterationTrace:
    """Per-iteration record of a Picard run.

    norms[i] is the W^{1,r} norm of the i-th iterate and increments[i]
    the norm of the i-th update; ratios derives from them.  residual is
    the W^{1,r} norm of the fixed-point defect v - Phi(v) at the final
    iterate, which for r = 2 equals the H^{-1}-type norm of the momentum
    equation residual.  converged says whether an increment fell below
    tol; uniqueness_distance is the W^{1,r} distance to the fixed point
    reached from the second start.  The trace of a diverged run holds NaN
    for both distances.
    """

    norms: list
    increments: list
    residual: float
    converged: bool
    tol: float
    uniqueness_distance: float

    @property
    def iterations(self):
        return len(self.increments)

    @property
    def ratios(self):
        """Quotients of successive increments, one entry shorter (a zero
        increment divides nothing)."""
        inc = self.increments
        return [b / a for a, b in zip(inc, inc[1:]) if a > 0.0]


class ContractionDivergedError(RuntimeError):
    """Iterates left the contraction regime (norm grew a thousandfold or
    overflowed)."""

    def __init__(self, trace):
        super().__init__(
            "Picard iteration diverged: the iterate norm exceeded 1000x the "
            "first iterate or overflowed (forcing or drift outside the "
            "smallness regime)")
        self.trace = trace


def run_contraction(drift, forcing, r=2.0, max_iters=40, tol=1e-9):
    """Iterate the Picard map from two starts and record the contraction
    trace of the first.

    drift is the MollifiedDrift every step reads, on the forcing's grid
    (make_mollified_drift(LandauParams.zero(), n) for no drift).  Each run
    stops when the W^{1,r} increment drops below tol or max_iters is
    reached; raises ContractionDivergedError when the iterate norm grows
    beyond a thousand times the first iterate (the cheap witness of
    leaving the smallness regime) or stops being finite.  The trace
    records the run from v = 0; a second run from v0 = Phi(0) / 2 always
    follows, and the W^{1,r} distance between the two fixed points is
    reported, the numerical counterpart of the uniqueness argument.
    Phi(0) = StokesSolve(P_B f) is re-derived from the forcing's band, as
    picard_step computes it for the zero band, so that start costs no
    transform; it lies in the contraction ball (on the segment from 0 to
    Phi(0)) but not on the first run's trajectory, so the two runs are
    independent witnesses.  The iterates are bands of cut n // 3
    from the zero band on (see picard_step).
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
        """(last iterate, whether it converged); a run keeps only its
        first norm."""
        # v is rebound each step, so the start is released after one
        first_norm = None
        for _ in range(max_iters):
            v_next = picard_step(v, drift, forcing)
            increment = (v_next - v).w1r(r)
            norm = v_next.w1r(r)
            if trace is not None:
                trace.norms.append(norm)
                trace.increments.append(increment)
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
        return v, False

    trace = IterationTrace(norms=[], increments=[], residual=np.nan,
                           converged=False, tol=tol,
                           uniqueness_distance=np.nan)
    n = forcing.n
    v_star, converged = iterate(SpectralField.zeros(n, n // 3), trace)
    trace.converged = converged
    trace.residual = (v_star - picard_step(v_star, drift, forcing)).w1r(r)
    v_alt, _ = iterate(
        0.5 * stokes_solve(SpectralField(forcing._band(n // 3), n)), None)
    trace.uniqueness_distance = (v_star - v_alt).w1r(r)
    return trace
