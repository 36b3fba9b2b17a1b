"""Tests for the periodic Fourier machinery and the Picard contraction run."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from pointflow import (
    BOX, ContractionDivergedError, LandauParams, SpectralField, leray_project,
    make_forcing, make_mollified_drift, picard_step, run_contraction,
    sobolev_norm, stokes_solve,
)
from pointflow.quadrature import _half_wavenumbers
from pointflow.spectral import _put_band, _take_band

N = 32


def half_spectrum(fld):
    """The (3, n, n, n//2 + 1) half spectrum of fld, its band zero-filled."""
    return _put_band(fld.coeff, fld.n)


def from_physical(values):
    """The field of (3, n, n, n) samples: the band of cut (n - 1) // 2 of
    their rfftn, which drops only the Nyquist planes of an even n."""
    n = values.shape[-1]
    return SpectralField(_take_band(scipy.fft.rfftn(values, axes=(1, 2, 3)),
                                    (n - 1) // 2), n)


def whole_wavenumbers(n):
    """(k, |k|^2, 1/|k|^2 with the zero mode masked) on the whole half
    spectrum, k zero at the Nyquist index of each axis."""
    shape = (n, n, n // 2 + 1)
    k = np.stack([np.broadcast_to(ka, shape)
                  for ka in _half_wavenumbers(n, BOX)])
    k2 = (k**2).sum(axis=0)
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0.0] = 1.0 / k2[k2 > 0.0]
    return k, k2, inv_k2


def divergence_defect(fld):
    """max |k . vhat| over modes, scaled by the field's gradient size."""
    k, _, _ = whole_wavenumbers(fld.n)
    coeff = half_spectrum(fld)
    div = np.einsum("aijk,aijk->ijk", k, coeff)
    scale = np.max(np.abs(k) * np.max(np.abs(coeff)))
    return float(np.max(np.abs(div)) / scale) if scale > 0.0 else 0.0


def grid_coordinates(n):
    """(3, n, n, n) coordinates of the torus grid, origin at a grid point."""
    from pointflow.spectral import _axis
    x1 = _axis(n)
    return np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))


def band_mask(n, cut):
    """Half-spectrum mask of the modes with every integer frequency <= cut."""
    f = np.abs((np.arange(n) + n // 2) % n - n // 2)
    fz = np.arange(n // 2 + 1)
    return ((f[:, None, None] <= cut) & (f[None, :, None] <= cut)
            & (fz[None, None, :] <= cut))


def dealias(fld):
    """The band of the 2/3 cutoff."""
    return SpectralField(_take_band(fld.coeff, fld.n // 3), fld.n)


def l2(fld):
    """Physical L^2 norm over the torus (via Parseval)."""
    return fld._parseval(fld._power())


def drift_beta_half(n=N):
    return make_mollified_drift(LandauParams.from_magnitude(0.5), n)


def zero_drift(n=N):
    return make_mollified_drift(LandauParams.zero(), n)


def raw_samples(drift):
    """The (3, n, n, n) samples chi * U that make_mollified_drift projects."""
    from pointflow.spectral import _mollified_box
    box, values = _mollified_box(drift.params, drift.n, drift.delta_in,
                                 drift.delta_out)
    samples = np.zeros((3, drift.n, drift.n, drift.n))
    samples[:, box, box, box] = values
    return samples


def drift_field(drift):
    """The projected drift on its band of cut (n - 1) // 2, as
    make_mollified_drift builds it."""
    from pointflow.spectral import _projected_drift
    band, _ = _projected_drift(drift.params, drift.n, drift.delta_in,
                               drift.delta_out)
    return SpectralField(band, drift.n)


def random_divfree(n, seed):
    """The modes |f| <= 4 of white noise, projected, on the band of cut
    (n - 1) // 2."""
    rng = np.random.default_rng(seed)
    white = from_physical(rng.standard_normal((3, n, n, n)))
    band = _put_band(_take_band(white.coeff, 4), white.coeff.shape[1])
    return leray_project(SpectralField(band, n))


class TestLerayProjection:
    def test_annihilates_gradients(self):
        coords = grid_coordinates(N)
        g = np.sin(0.5 * coords[0]) * np.cos(0.5 * coords[1])
        grad = np.stack([0.5 * np.cos(0.5 * coords[0]) * np.cos(0.5 * coords[1]),
                         -0.5 * np.sin(0.5 * coords[0]) * np.sin(0.5 * coords[1]),
                         np.zeros((N, N, N))])
        projected = leray_project(from_physical(grad))
        assert np.max(np.abs(projected.to_physical())) < 1e-12

    def test_fixes_solenoidal_fields(self):
        coords = grid_coordinates(N)
        u = np.stack([np.sin(0.5 * coords[1]), np.zeros((N, N, N)),
                      np.zeros((N, N, N))])
        field = from_physical(u)
        projected = leray_project(field)
        assert np.max(np.abs(projected.to_physical() - u)) < 1e-12

    def test_idempotent(self):
        field = random_divfree(N, seed=1)
        once = leray_project(field)
        twice = leray_project(once)
        assert np.max(np.abs(twice.coeff - once.coeff)) < 1e-12 * max(
            1.0, np.max(np.abs(once.coeff)))

    def test_divergence_defect_small(self):
        field = random_divfree(N, seed=2)
        assert divergence_defect(field) <= 1e-12


class TestStokesSolve:
    def test_single_mode_identity(self):
        # sin(x_2) lives on |k| = 1, so the inverse Laplacian is the identity
        coords = grid_coordinates(N)
        u = np.stack([np.sin(coords[1]), np.zeros((N, N, N)),
                      np.zeros((N, N, N))])
        field = from_physical(u)
        solved = stokes_solve(field)
        assert np.max(np.abs(solved.to_physical() - u)) < 1e-12

    def test_gradient_forcing_absorbed(self):
        coords = grid_coordinates(N)
        grad = np.stack([0.5 * np.cos(0.5 * coords[0]), np.zeros((N, N, N)),
                         np.zeros((N, N, N))])
        solved = stokes_solve(from_physical(grad))
        assert np.max(np.abs(solved.to_physical())) < 1e-12

    def test_recovers_manufactured_solution(self):
        w = random_divfree(N, seed=3)
        k2 = _take_band(whole_wavenumbers(N)[1], w.cut)
        forcing = SpectralField(w.coeff * k2, N)   # f = -Lap w
        solved = stokes_solve(forcing)
        scale = np.max(np.abs(w.coeff))
        assert np.max(np.abs(solved.coeff - w.coeff)) < 1e-12 * scale

    def test_spectral_residual_is_tiny(self):
        f = random_divfree(N, seed=4)
        v = stokes_solve(f)
        k2 = _take_band(whole_wavenumbers(N)[1], f.cut)
        residual = v.coeff * k2 - leray_project(f).coeff
        assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(f.coeff))

    def test_rejects_nonzero_mean(self):
        fld = SpectralField.zeros(N, 1)
        fld.coeff[0, 0, 0, 0] = N**3 * 0.5
        fld.coeff[1, 1, 0, 0] = N**3
        with pytest.raises(ValueError, match="zero mean"):
            stokes_solve(fld)


class TestMollifiedDrift:
    def test_support_of_raw_samples(self):
        drift = drift_beta_half()
        coords = grid_coordinates(N)
        rho = np.sqrt((coords**2).sum(axis=0))
        speed = np.linalg.norm(raw_samples(drift), axis=0)
        assert np.all(speed[rho < 0.15] == 0.0)
        assert np.all(speed[rho > 1.5] == 0.0)
        assert speed.max() > 0.0

    def test_plateau_matches_landau_field(self):
        from pointflow import landau_eval
        drift = drift_beta_half()
        coords = grid_coordinates(N)
        rho = np.sqrt((coords**2).sum(axis=0))
        plateau = (rho > 0.35) & (rho < 1.0)
        pts = coords[:, plateau].T
        u = landau_eval(drift.params, pts).u
        assert np.allclose(raw_samples(drift)[:, plateau].T, u, rtol=1e-12)

    def test_projection_reported_and_divergence_free(self):
        drift = drift_beta_half()
        assert 0.0 < drift.projection_deviation < 1.0
        assert divergence_defect(drift_field(drift)) <= 1e-12

    def test_zero_params_give_zero_drift(self):
        drift = make_mollified_drift(LandauParams.zero(), 16)
        assert np.all(raw_samples(drift) == 0.0)
        assert drift.projection_deviation == 0.0

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(n=st.sampled_from([16, 17, 24, 32]),
           beta=st.floats(-3.0, np.log10(30.0)).map(lambda e: 10.0**e),
           delta_out=st.floats(0.2, 6.2), share=st.floats(0.05, 0.95))
    @example(n=24, beta=0.0, delta_out=1.5, share=0.2)
    def test_deviation_by_parseval(self, n, beta, delta_out, share):
        # the band truncation composed with the Leray projection is an
        # orthogonal projector P in grid L^2, so the grid sums split as
        # cell |s|^2 = |P s|^2 + |P s - s|^2
        params = LandauParams.from_magnitude(beta)
        delta_in = share * delta_out
        drift = make_mollified_drift(params, n, delta_in, delta_out)
        deviation = reference_drift(params, n, delta_in, delta_out)[2]
        assert drift.projection_deviation == pytest.approx(
            deviation, rel=1e-14, abs=0.0)
        samples, field = raw_samples(drift), drift_field(drift)
        cell = (BOX / n)**3
        defect = field.to_physical() - samples
        split = l2(field)**2 + cell * np.sum(defect**2)
        assert split == pytest.approx(cell * np.sum(samples**2), rel=1e-13,
                                      abs=0.0)

    def test_cutoff_validation(self):
        params = LandauParams.from_magnitude(0.5)
        with pytest.raises(ValueError):
            make_mollified_drift(params, 16, delta_in=1.0, delta_out=0.5)
        with pytest.raises(ValueError):
            make_mollified_drift(params, 16, delta_out=10.0)


class TestPicardStep:
    def test_zero_start_gives_stokes_solution(self):
        drift = drift_beta_half()
        forcing = make_forcing(N, 1e-3)
        v1 = picard_step(SpectralField.zeros(N, (N - 1) // 2), drift, forcing)
        ref = half_spectrum(stokes_solve(forcing))
        assert np.max(np.abs(half_spectrum(v1) - ref)) < 1e-14 * max(
            1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("with_drift", [True, False])
    def test_matches_full_tensor_reference(self, with_drift):
        # the 9-entry flux tensor on the full complex spectrum
        drift = drift_beta_half() if with_drift else zero_drift()
        forcing = make_forcing(N, 1e-2, seed=3)
        v = random_divfree(N, seed=11)
        v_phys = dealias(v).to_physical()
        u_phys = drift.phys_dealiased
        M = (u_phys[:, None] * v_phys[None, :]
             + v_phys[:, None] * (u_phys + v_phys)[None, :])
        M_hat = np.fft.fftn(M, axes=(2, 3, 4))[..., :N // 2 + 1]
        k, _, _ = whole_wavenumbers(N)
        div_M = 1j * np.einsum("bijk,abijk->aijk", k, M_hat)
        ref = half_spectrum(stokes_solve(SpectralField(
            _take_band(half_spectrum(forcing) - div_M, N // 3), N)))
        step = picard_step(v, drift, forcing)
        assert (np.max(np.abs(half_spectrum(step) - ref))
                <= 1e-12 * np.max(np.abs(ref)))

    def test_zero_forcing_zero_iterate_is_fixed(self):
        drift = drift_beta_half()
        forcing = SpectralField.zeros(N, 1)
        v = picard_step(SpectralField.zeros(N, N // 3), drift, forcing)
        assert np.max(np.abs(v.coeff)) == 0.0

    def test_driftless_fixed_point_residual(self):
        forcing = make_forcing(N, 1e-3)
        trace = run_contraction(zero_drift(), forcing, tol=1e-12,
                                max_iters=50)
        assert trace.converged
        assert trace.residual < 1e-10


class TestRunContraction:
    def test_small_regime_contracts(self):
        trace = run_contraction(drift_beta_half(), make_forcing(N, 1e-3),
                                tol=1e-9)
        assert trace.converged and trace.iterations < 15
        inc = trace.increments
        assert trace.ratios == [b / a for a, b in zip(inc, inc[1:])]
        assert all(rho < 0.5 for rho in trace.ratios[1:])
        assert trace.uniqueness_distance <= 10.0 * trace.tol
        assert trace.residual <= 10.0 * trace.tol

    def test_no_drift_table_stays_cached(self):
        from pointflow.spectral import _wavenumbers
        run_contraction(drift_beta_half(), make_forcing(N, 1e-3), tol=1e-9)
        # the drift's cut (n - 1) // 2 tables are read by its build alone
        assert _wavenumbers.cache_info().currsize == 1
        misses = _wavenumbers.cache_info().misses
        _wavenumbers(N, (N - 1) // 2)
        assert _wavenumbers.cache_info().misses == misses + 1

    def test_zero_forcing_converges_immediately(self):
        trace = run_contraction(drift_beta_half(), SpectralField.zeros(N, 1),
                                tol=1e-9)
        assert trace.converged and trace.iterations == 1
        assert trace.norms[-1] == 0.0
        assert type(trace.uniqueness_distance) is float
        assert trace.uniqueness_distance == 0.0

    def test_divergence_detector_fires(self):
        with pytest.raises(ContractionDivergedError) as excinfo:
            run_contraction(drift_beta_half(16), make_forcing(16, 50.0),
                            tol=1e-9, max_iters=60)
        trace = excinfo.value.trace
        inc = trace.increments
        assert len(inc) >= 2
        assert trace.ratios == [b / a for a, b in zip(inc, inc[1:])]
        assert np.isnan(trace.uniqueness_distance)

    def test_ratios_nondecreasing_in_amplitude(self):
        drift = drift_beta_half()
        traces = {}
        for amp in (1e-4, 1e-3, 1e-2, 1e-1):
            try:
                traces[amp] = run_contraction(drift, make_forcing(N, amp),
                                              tol=1e-11, max_iters=25).ratios
            except ContractionDivergedError:
                traces[amp] = None   # only permitted for the largest amplitude
        amps = sorted(traces)
        assert all(traces[a] is not None for a in amps[:-1])
        for lo, hi in zip(amps, amps[1:]):
            if traces[hi] is None:
                continue
            shared = min(len(traces[lo]), len(traces[hi]), 10)
            for i in range(shared):
                assert traces[hi][i] >= traces[lo][i] - 1e-6

    def test_grid_independence(self):
        norms = {}
        for n in (32, 64):
            trace = run_contraction(drift_beta_half(n), make_forcing(n, 1e-3),
                                    tol=1e-11)
            norms[n] = trace.norms[-1]
        assert abs(norms[64] - norms[32]) < 0.01 * norms[32]

    @pytest.mark.parametrize("with_drift", [True, False])
    def test_uniqueness_witness_is_a_second_run(self, with_drift):
        drift = drift_beta_half() if with_drift else zero_drift()
        trace = run_contraction(drift, make_forcing(N, 1e-3), tol=1e-9)
        assert type(trace.uniqueness_distance) is float
        assert 0.0 < trace.uniqueness_distance <= 10.0 * trace.tol

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            run_contraction(zero_drift(16), make_forcing(16, 1e-3), r=3.5)
        with pytest.raises(ValueError):
            run_contraction(zero_drift(16), make_forcing(16, 1e-3), tol=-1.0)


def full_spectrum(field):
    """The (3, n, n, n) complex spectrum, completed by the conjugate mirror."""
    n = field.n
    half = half_spectrum(field)
    full = np.zeros((3, n, n, n), dtype=complex)
    full[..., :n // 2 + 1] = half
    mirror = np.roll(np.conj(half[:, ::-1, ::-1, :]), 1, axis=(1, 2))
    for j in range(n // 2 + 1, n):   # frequency j - n mirrors n - j
        full[..., j] = mirror[..., n - j]
    return full


def reality_defect(field):
    """Largest imaginary part of the full complex inverse transform."""
    return np.max(np.abs(np.fft.ifftn(full_spectrum(field), axes=(1, 2, 3)).imag))


class TestParsevalNorms:
    @pytest.mark.parametrize("n", [16, 17])
    def test_w1r_two_matches_sobolev_norm(self, n):
        white = from_physical(
            np.random.default_rng(3).standard_normal((3, n, n, n)))
        for fld in (white, random_divfree(n, seed=5)):
            ref = sobolev_norm(fld.to_physical(), BOX, 2.0).value
            assert fld.w1r(2.0) == pytest.approx(ref, rel=1e-12)

    def test_w1r_other_exponent_uses_samples(self):
        fld = random_divfree(N, seed=6)
        ref = sobolev_norm(fld.to_physical(), BOX, 1.5).value
        assert fld.w1r(1.5) == ref

    @pytest.mark.parametrize("n", [16, 17])
    def test_l2_equals_grid_sum(self, n):
        fld = from_physical(
            np.random.default_rng(8).standard_normal((3, n, n, n)))
        grid_sum = np.sqrt(np.sum(fld.to_physical()**2) * (BOX / n)**3)
        assert l2(fld) == pytest.approx(grid_sum, rel=1e-12)


class TestTransformBudget:
    NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

    @pytest.fixture
    def calls(self, monkeypatch):
        """(name, input shape) of every transform call."""
        counter = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                counter.append((fn.__name__, np.shape(args[0])))
                return fn(*args, **kwargs)
            return wrapper

        for module in (scipy.fft, np.fft):
            for name in self.NAMES:
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
        return counter

    @pytest.mark.parametrize("with_drift", [True, False])
    def test_picard_step_streams_single_components(self, calls, with_drift):
        # 3 band inverses bring v's dealiased band to physical space, then
        # one band forward per tensor entry; each is one-axis passes on the
        # columns the band reaches, none a full 3-D transform, the inverse
        # axis-0 pass in place on each of the band's two blocks of columns
        # and the forward axis-1 pass on each of its two blocks of rows
        drift = drift_beta_half() if with_drift else zero_drift()
        forcing = make_forcing(N, 1e-3)
        v = stokes_solve(forcing)
        calls.clear()
        picard_step(v, drift, forcing)
        c = N // 3
        band_inverse = [("ifft", (N, c + 1, c + 1)), ("ifft", (N, c, c + 1)),
                        ("ifft", (N, N, c + 1)), ("irfft", (N, N, N // 2 + 1))]
        band_forward = [("rfft", (N, N, N)), ("fft", (N, N, c + 1)),
                        ("fft", (c + 1, N, c + 1)), ("fft", (c, N, c + 1))]
        assert calls == band_inverse * 3 + band_forward * 6

    @pytest.mark.parametrize("with_drift", [True, False])
    def test_zero_band_step_makes_none(self, calls, with_drift):
        # the tensor of the zero field is zero: Phi(0) is the Stokes solve
        # of f's band, with no transform
        drift = drift_beta_half() if with_drift else zero_drift()
        forcing = make_forcing(N, 1e-2, seed=3)
        calls.clear()
        step = picard_step(SpectralField.zeros(N, N // 3), drift, forcing)
        assert calls == []
        band = SpectralField(_put_band(forcing.coeff, 2 * (N // 3) + 1), N)
        assert step.cut == N // 3
        assert np.array_equal(step.coeff, stokes_solve(band).coeff)

    def test_w1r_two_makes_none(self, calls):
        v = stokes_solve(make_forcing(N, 1e-3))
        calls.clear()
        v.w1r(2.0)
        assert calls == []


class TestReality:
    def test_transforms_keep_fields_real(self):
        drift = drift_beta_half()
        assert reality_defect(drift_field(drift)) < 1e-12 * max(
            1.0, np.max(np.abs(raw_samples(drift))))
        forcing = make_forcing(N, 1e-2, seed=9)
        v = stokes_solve(forcing)
        rel = reality_defect(v) / max(np.max(np.abs(v.to_physical())), 1e-300)
        assert rel < 1e-12
        for fld in (drift_field(drift), v):
            complex_inverse = np.fft.ifftn(full_spectrum(fld), axes=(1, 2, 3))
            assert np.allclose(fld.to_physical(), complex_inverse.real,
                               rtol=0.0, atol=1e-15 * np.max(np.abs(fld.coeff)))

    def test_hermitian_symmetry_of_real_fields(self):
        white = np.random.default_rng(12).standard_normal((3, N, N, N))
        for field in (random_divfree(N, seed=12), from_physical(white)):
            c = field.coeff
            # column 0 is a band's one self-conjugate column: it holds no
            # Nyquist index, and its rows are an FFT axis of length 2c + 1
            p = c[..., 0]
            mirrored = np.roll(np.conj(p[:, ::-1, ::-1]), 1, axis=(1, 2))
            assert np.max(np.abs(p - mirrored)) < 1e-9 * np.max(np.abs(c))

    def test_full_spectrum_matches_complex_transform(self):
        fld = from_physical(
            np.random.default_rng(4).standard_normal((3, 16, 16, 16)))
        assert np.allclose(full_spectrum(fld),
                           np.fft.fftn(fld.to_physical(), axes=(1, 2, 3)),
                           rtol=0.0, atol=1e-12)


class TestForcing:
    def test_deterministic_pattern_amplitude(self):
        f = make_forcing(N, 2.5e-3)
        speed = np.abs(f.to_physical())
        assert speed.max() == pytest.approx(2.5e-3, rel=1e-12)
        # each component peaks at the amplitude, at one grid point together
        assert np.linalg.norm(f.to_physical(), axis=0).max() == \
            pytest.approx(np.sqrt(3.0) * 2.5e-3, rel=1e-12)
        assert divergence_defect(f) <= 1e-12

    def test_seeded_draw_reproducible(self):
        a = make_forcing(N, 1e-3, seed=5)
        b = make_forcing(N, 1e-3, seed=5)
        assert np.array_equal(a.coeff, b.coeff)
        c = make_forcing(N, 1e-3, seed=6)
        assert not np.array_equal(a.coeff, c.coeff)

    def test_seeded_amplitude_normalization(self):
        f = make_forcing(N, 7e-2, seed=5)
        speed = np.linalg.norm(f.to_physical(), axis=0)
        assert speed.max() == pytest.approx(7e-2, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 6, 8, 9, 16])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_forcing_inside_the_picard_band(self, n, seed):
        # picard_step keeps the band of cut n // 3 and drops the rest of f
        f = half_spectrum(make_forcing(n, 1e-2, seed=seed))
        k = np.abs(np.fft.fftfreq(n, 1.0 / n))
        outside = ((k[:, None, None] > n // 3) | (k[None, :, None] > n // 3)
                   | (k[None, None, :n // 2 + 1] > n // 3))
        assert np.any(f != 0.0)
        assert not np.any(f[:, outside])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_forcing(N, -1.0)


def reference_picard_step(v, drift, forcing):
    """Out-of-place, single-worker copy of the Picard step, kept as the pin."""
    from pointflow.spectral import _SYM_PAIRS
    # row i of div M reads the entries (i, 0), (i, 1), (i, 2) of _SYM_PAIRS
    sym_entry = ((0, 2, 3), (2, 1, 4), (3, 4, 5))
    n = v.n
    k, _, inv_k2 = whole_wavenumbers(n)
    mask = band_mask(n, n // 3)
    v_phys = scipy.fft.irfftn(half_spectrum(v) * mask, s=(n, n, n),
                              axes=(1, 2, 3))
    M = np.empty((6, n, n, n))
    u_phys = drift.phys_dealiased
    w_phys = u_phys + v_phys
    for e, (i, j) in enumerate(_SYM_PAIRS):
        np.multiply(u_phys[i], v_phys[j], out=M[e])
        M[e] += v_phys[i] * w_phys[j]
    M_hat = scipy.fft.rfftn(M, axes=(1, 2, 3))
    div_M = np.stack([sum(k[j] * M_hat[e] for j, e in enumerate(row))
                      for row in sym_entry])
    div_M *= 1j * mask
    f = half_spectrum(forcing) - div_M
    kdotv = np.einsum("aijk,aijk->ijk", k, f)
    proj = f - k * (kdotv * inv_k2)
    proj[:, 0, 0, 0] = 0.0
    if n % 2 == 0:
        proj[:, n // 2, :, :] = 0.0
        proj[:, :, n // 2, :] = 0.0
        proj[:, :, :, n // 2] = 0.0
    return proj * inv_k2


class TestInPlaceArithmetic:
    @staticmethod
    def two_steps_equal_reference(n, with_drift):
        drift = drift_beta_half(n) if with_drift else zero_drift(n)
        forcing = make_forcing(n, 1e-2, seed=3)
        v = random_divfree(n, seed=11)
        # the first step trims v from the band of cut (n - 1) // 2 and f
        # pads from cut 3; the second reads v at the step's own cut n // 3
        for _ in range(2):
            expected = reference_picard_step(v, drift, forcing)
            v = picard_step(v, drift, forcing)
            assert v.cut == n // 3
            assert np.array_equal(half_spectrum(v), expected)

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("with_drift", [True, False])
    def test_step_equals_out_of_place_reference(self, n, with_drift):
        self.two_steps_equal_reference(n, with_drift)

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("with_drift", [True, False])
    def test_slabs_equal_out_of_place_reference(self, monkeypatch, n,
                                                with_drift):
        # tensor entries formed 3 planes at a time, the last slab shorter,
        # as grids above 32 form them
        monkeypatch.setattr("pointflow.spectral._SLAB_BYTES", 3 * 8 * n * n)
        self.two_steps_equal_reference(n, with_drift)

    def test_inputs_left_unchanged(self):
        drift = drift_beta_half(16)
        forcing = make_forcing(16, 1e-2, seed=3)
        v = random_divfree(16, seed=11)
        arrays = (v.coeff, forcing.coeff, drift.phys_dealiased)
        before = [a.copy() for a in arrays]
        picard_step(v, drift, forcing)
        stokes_solve(forcing)
        leray_project(v)
        leray_project(forcing)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)


def whole_w1r(coeff, r):
    """W^{1,r} norm of a whole (3, n, n, n//2 + 1) half spectrum: Parseval
    sums over it for r = 2, sobolev_norm of its stacked irfftn otherwise."""
    n = coeff.shape[1]
    if r != 2.0:
        samples = scipy.fft.irfftn(coeff, s=(n, n, n), axes=(1, 2, 3))
        return sobolev_norm(samples, BOX, r).value
    power = coeff[0].real**2 + coeff[0].imag**2
    for c in coeff[1:]:
        power += c.real**2 + c.imag**2
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    wk2 = w * whole_wavenumbers(n)[1]
    return sum(float(np.sqrt(np.sum(power * weight) * BOX**3 / n**6))
               for weight in (w, wk2))


def reference_contraction(drift, forcing, r, tol=1e-9, max_iters=40):
    """run_contraction's trace from whole half spectra, reference_picard_step
    and whole_w1r, the witness started at StokesSolve(f) / 2."""
    n = forcing.n

    def norm(coeff):
        return whole_w1r(coeff, r)

    def step(coeff):
        # the reference zeroes the Nyquist planes, the only modes outside
        # the band of cut (n - 1) // 2
        return reference_picard_step(
            SpectralField(_take_band(coeff, (n - 1) // 2), n), drift, forcing)

    def iterate(v, record):
        for _ in range(max_iters):
            v_next = step(v)
            increment = norm(v_next - v)
            if record is not None:
                if record["increments"] and record["increments"][-1] > 0.0:
                    record["ratios"].append(increment
                                            / record["increments"][-1])
                record["norms"].append(norm(v_next))
                record["increments"].append(increment)
            v = v_next
            if increment < tol:
                break
        return v

    record = {"norms": [], "increments": [], "ratios": []}
    v_star = iterate(np.zeros_like(half_spectrum(forcing)), record)
    record["residual"] = norm(v_star - step(v_star))
    v_alt = iterate(0.5 * half_spectrum(stokes_solve(forcing)), None)
    record["uniqueness_distance"] = norm(v_star - v_alt)
    return record


class TestBandIterates:
    """Iterates held on the band give run_contraction's trace the bits of
    whole half spectra."""

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("with_drift", [True, False])
    @pytest.mark.parametrize("r", [2.0, 1.5])
    @pytest.mark.parametrize("forcing_kind", ["seeded", "shear", "zero"])
    def test_trace_equals_whole_spectrum_reference(self, n, with_drift, r,
                                                   forcing_kind):
        drift = drift_beta_half(n) if with_drift else zero_drift(n)
        forcing = {"seeded": lambda: make_forcing(n, 1e-2, seed=3),
                   "shear": lambda: make_forcing(n, 1e-2),
                   "zero": lambda: SpectralField.zeros(n, 1)}[forcing_kind]()
        trace = run_contraction(drift, forcing, r=r)
        expected = reference_contraction(drift, forcing, r)
        assert trace.iterations == len(expected["increments"])
        assert trace.norms == expected["norms"]
        assert trace.increments == expected["increments"]
        assert trace.ratios == expected["ratios"]
        assert trace.residual == expected["residual"]
        assert trace.uniqueness_distance == expected["uniqueness_distance"]

    def test_band_shape_validation(self):
        assert SpectralField.zeros(16, 7).cut == 7
        assert SpectralField.zeros(17, 8).cut == 8
        with pytest.raises(ValueError):
            SpectralField(np.zeros((3, 12, 12, 7)), 16)   # even band side
        with pytest.raises(ValueError):
            SpectralField(np.zeros((3, 17, 17, 9)), 16)   # cut 8 > 15 // 2
        with pytest.raises(ValueError):
            SpectralField.zeros(16, 8)
        with pytest.raises(ValueError):
            SpectralField.zeros(16, 5) - SpectralField.zeros(17, 5)
        with pytest.raises(ValueError):
            SpectralField.zeros(16, 5) - SpectralField.zeros(16, 4)


class TestMemoryBudget:
    """Peak new numpy memory, in units of one whole (3, n, n, n//2 + 1)
    half spectrum at n = N."""

    UNIT = 3 * N * N * (N // 2 + 1) * 16

    @staticmethod
    def peak(fn):
        import tracemalloc
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_picard_step_peak(self):
        drift, forcing = drift_beta_half(), make_forcing(N, 1e-2)
        v = stokes_solve(forcing)
        picard_step(v, drift, forcing)   # fill the table caches first
        # the three samples of v, one tensor entry and its scratch, the rfft
        # columns of one entry and the band
        assert (self.peak(lambda: picard_step(v, drift, forcing))
                <= 2.75 * self.UNIT)

    def test_mollified_drift_peak(self):
        params = LandauParams.from_magnitude(0.5)
        make_mollified_drift(params, N)
        # the drift's wide band is freed before the three inverses of its
        # dealiased band (1.87, a 7% margin); holding it through them
        # peaked at 2.75, and samples and transforms over the whole grid
        # at 3.69
        assert (self.peak(lambda: make_mollified_drift(params, N))
                <= 2.0 * self.UNIT)

    def test_forcing_peak(self):
        make_forcing(N, 1e-2, seed=3)
        # one whole-grid draw, its zero-filled lines and their rfft
        # columns, the whole-grid caller of the forward transform (1.05)
        assert (self.peak(lambda: make_forcing(N, 1e-2, seed=3))
                <= 1.25 * self.UNIT)

    def test_run_contraction_peak(self):
        drift, forcing = drift_beta_half(), make_forcing(N, 1e-2, seed=3)
        run_contraction(drift, forcing)
        # a step's peak and the iterates the run holds (3.61); whole half
        # spectra for the iterates peaked at 4.67
        assert (self.peak(lambda: run_contraction(drift, forcing))
                <= 3.75 * self.UNIT)

    def test_w1r_two_peak(self):
        v = stokes_solve(make_forcing(N, 1e-2))
        v.w1r(2.0)
        # the Parseval terms are summed in one zeroed (n, n, n//2 + 1)
        # array; squaring a whole half spectrum at once peaks at 1.0
        assert self.peak(lambda: v.w1r(2.0)) <= 0.75 * self.UNIT


def reference_leray(coeff):
    """Out-of-place Leray projection of a (3, n, n, n//2 + 1) array."""
    n = coeff.shape[1]
    k, _, inv_k2 = whole_wavenumbers(n)
    kdotv = np.einsum("aijk,aijk->ijk", k, coeff)
    proj = coeff - k * (kdotv * inv_k2)
    proj[:, 0, 0, 0] = 0.0
    if n % 2 == 0:
        proj[:, n // 2, :, :] = 0.0
        proj[:, :, n // 2, :] = 0.0
        proj[:, :, :, n // 2] = 0.0
    return proj


def reference_drift(params, n, delta_in=0.3, delta_out=1.5):
    """Stacked-transform, full-grid copy of the drift build, kept as the pin.

    Returns (field coefficients, phys_dealiased, projection_deviation).
    """
    from pointflow import landau_eval, smoothstep7
    coords = grid_coordinates(n)
    rho = np.sqrt((coords**2).sum(axis=0))
    rise, _, _, _ = smoothstep7((rho - delta_in / 2.0) / (delta_in / 2.0))
    fall, _, _, _ = smoothstep7((rho - 0.75 * delta_out) / (0.25 * delta_out))
    chi = rise * (1.0 - fall)
    samples = np.zeros((3, n, n, n))
    mask = chi > 0.0
    if params.beta > 0.0 and np.any(mask):
        u = landau_eval(params, coords[:, mask].T).u
        samples[:, mask] = (chi[mask][:, None] * u).T
    projected = reference_leray(scipy.fft.rfftn(samples, axes=(1, 2, 3)))
    norm_raw = np.linalg.norm(samples)
    deviation = 0.0
    if norm_raw > 0.0:
        phys = scipy.fft.irfftn(projected, s=(n, n, n), axes=(1, 2, 3))
        deviation = float(np.linalg.norm(phys - samples) / norm_raw)
    dealiased = scipy.fft.irfftn(projected * band_mask(n, n // 3), s=(n, n, n),
                                 axes=(1, 2, 3))
    return projected, dealiased, deviation


def reference_forcing(n, amplitude, seed):
    """Stacked-transform copy of make_forcing's coefficients."""
    if seed is None:
        coords = grid_coordinates(n)
        phys = amplitude * np.stack([np.sin(0.5 * coords[1]),
                                     np.sin(0.5 * coords[2]),
                                     np.sin(0.5 * coords[0])])
        return scipy.fft.rfftn(phys, axes=(1, 2, 3)) * band_mask(n, 1)
    rng = np.random.default_rng(seed)
    white = scipy.fft.rfftn(rng.standard_normal((3, n, n, n)), axes=(1, 2, 3))
    proj = reference_leray(white * band_mask(n, 3))
    samples = scipy.fft.irfftn(proj, s=(n, n, n), axes=(1, 2, 3))
    speed = np.linalg.norm(samples, axis=0).max()
    return (amplitude / speed) * proj


class TestStreamedBuilders:
    """The component-at-a-time drift, forcing and projections keep the bits
    of their stacked, out-of-place references."""

    # n = 64 as well: landau_eval's bits depend on the layout of its
    # points, which only shows at the larger grid
    @pytest.mark.parametrize("n", [16, 17, 64])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    def test_drift_equals_stacked_reference(self, n, beta):
        params = LandauParams.from_magnitude(beta)
        drift = make_mollified_drift(params, n)
        coeff, dealiased, deviation = reference_drift(params, n)
        field = drift_field(drift)
        assert field.cut == (n - 1) // 2
        assert np.array_equal(half_spectrum(field), coeff)
        assert np.array_equal(drift.phys_dealiased, dealiased)
        # the deviation comes by Parseval, not from the physical samples
        assert drift.projection_deviation == pytest.approx(
            deviation, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_forcing_equals_stacked_reference(self, n, seed):
        forcing = make_forcing(n, 3e-2, seed=seed)
        assert forcing.cut == (1 if seed is None else 3)
        assert np.array_equal(half_spectrum(forcing),
                              reference_forcing(n, 3e-2, seed))

    @pytest.mark.parametrize("n", [16, 17])
    def test_projection_and_solve_equal_references(self, n):
        field = from_physical(
            np.random.default_rng(2).standard_normal((3, n, n, n)))
        field.coeff[:, 0, 0, 0] = 0.0
        projected = reference_leray(half_spectrum(field))
        assert np.array_equal(half_spectrum(leray_project(field)), projected)
        assert np.array_equal(half_spectrum(stokes_solve(field)),
                              projected * whole_wavenumbers(n)[2])


BAND_SIZES = [16, 17, 20, 24, 32, 33, 64]
BAND_DRAWS = settings(derandomize=True, max_examples=3, deadline=None)


class TestBandTransforms:
    """The pruned transforms keep the bits of the full 3-D ones."""

    @pytest.mark.parametrize("n", BAND_SIZES)
    @pytest.mark.parametrize("third", [True, False])
    @BAND_DRAWS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_inverse_equals_masked_irfftn(self, n, third, seed):
        # (n - 1) // 2 is the drift's band: every mode but the Nyquist planes
        from pointflow.spectral import _band_to_physical
        coeff = scipy.fft.rfftn(np.random.default_rng(seed).standard_normal((n, n, n)))
        for cut in (n // 3, (n - 1) // 2) if third else (3,):
            expected = scipy.fft.irfftn(coeff * band_mask(n, cut), s=(n, n, n))
            assert np.array_equal(_band_to_physical(_take_band(coeff, cut), n),
                                  expected)

    @pytest.mark.parametrize("n", BAND_SIZES)
    @pytest.mark.parametrize("third", [True, False])
    @BAND_DRAWS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_forward_equals_rfftn_on_the_band(self, n, third, seed):
        from pointflow.spectral import _physical_to_band
        samples = np.random.default_rng(seed).standard_normal((n, n, n))
        for cut in (n // 3, (n - 1) // 2) if third else (3,):
            assert np.array_equal(_physical_to_band(samples, cut),
                                  _take_band(scipy.fft.rfftn(samples), cut))

    @pytest.mark.parametrize("n", [16, 17, 33])
    @pytest.mark.parametrize("start", [0, 3])
    def test_support_cube_equals_rfftn_of_the_zero_filled_grid(self, n,
                                                              start):
        from pointflow.spectral import _physical_to_band
        b = n // 2
        cube = np.random.default_rng(n + start).standard_normal((b, b, b))
        grid = np.zeros((n, n, n))
        grid[start:start + b, start:start + b, start:start + b] = cube
        for cut in (3, n // 3, (n - 1) // 2):
            # array_equal: a zero's sign may differ (see _physical_to_band)
            assert np.array_equal(_physical_to_band(cube, cut, n, start),
                                  _take_band(scipy.fft.rfftn(grid), cut))

    @pytest.mark.parametrize("n", [16, 17, 33])
    def test_overwrite_x_transforms_the_view_in_place(self, n):
        # _columns_to_band and _band_to_physical discard what these calls
        # return and read the views; scipy documents overwrite_x only as
        # "the contents of x can be destroyed"
        rng = np.random.default_rng(n)
        for cut, box in ((n // 3, slice(3, 3 + n // 2)),
                         ((n - 1) // 2, slice(None))):
            w = cut + 1
            half, full = (rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape)
                          for shape in ((n, n, w), (n, n, n // 2 + 1)))
            for transform, view, axis, norm in (
                    (scipy.fft.fft, half[:, box], 0, "backward"),
                    (scipy.fft.fft, half[:cut + 1], 1, "backward"),
                    (scipy.fft.fft, half[n - cut:], 1, "backward"),
                    (scipy.fft.ifft, full[:, :w, :w], 0, "forward"),
                    (scipy.fft.ifft, full[:, n - cut:, :w], 0, "forward"),
                    (scipy.fft.ifft, full[..., :w], 1, "forward")):
                expected = transform(view.copy(), axis=axis, norm=norm)
                got = transform(view, axis=axis, norm=norm, overwrite_x=True)
                assert np.array_equal(got, expected)
                assert np.array_equal(view, got), (
                    "scipy.fft no longer writes an overwrite_x transform "
                    "into its strided input view, which "
                    "spectral._columns_to_band and spectral._band_to_physical "
                    "rely on")

    # 49 * (1 / 49) != 1 in floating point: a mask built from float
    # frequencies drops the plane |f| = 16 there
    @pytest.mark.parametrize("n", [7, 16, 17, 49, 64])
    def test_band_holds_the_integer_frequencies(self, n):
        coeff = scipy.fft.rfftn(np.random.default_rng(n).standard_normal((n, n, n)))
        for cut in (1, 3, n // 3):
            assert np.array_equal(_put_band(_take_band(coeff, cut), n),
                                  coeff * band_mask(n, cut))
