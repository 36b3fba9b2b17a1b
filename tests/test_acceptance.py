"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with the measured quantities and wall times.  Every tolerance is
pinned here; a failing assertion marks the criterion FAIL.
"""

import time

import numpy as np
import pytest

from pointflow import (
    A_from_beta, ContractionDivergedError, LandauField, LandauParams,
    RescaledField, ball_samples, beta_from_A, decay_report, flux_integral,
    landau_eval, lorentz_quasinorm, make_forcing, make_mollified_drift,
    ns_residual, run_contraction, sup_speed_on_unit_sphere, weak_residual,
    weakform,
)

E_Z = np.array([0.0, 0.0, 1.0])


class _Stopwatch:
    def __init__(self, budget_s):
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def done(self, label, detail):
        elapsed = time.perf_counter() - self.start
        print(f"ACCEPTANCE {label}: PASS ({detail}; {elapsed:.2f} s "
              f"< {self.budget_s:g} s)")
        assert elapsed < self.budget_s


def test_criterion_1_force_extraction_consistency():
    watch = _Stopwatch(5.0)
    params = LandauParams.from_shape(2.0)
    forces = {R: flux_integral(LandauField(params), R, n_theta=64)
              for R in (0.5, 1.0, 1.5)}
    worst_match = max(np.linalg.norm(b - params.b) / params.beta
                      for b in forces.values())
    assert worst_match < 1e-6
    values = list(forces.values())
    scale = np.linalg.norm(values[0])
    worst_pair = max(np.linalg.norm(a - b) / scale
                     for i, a in enumerate(values) for b in values[i + 1:])
    assert worst_pair < 1e-8
    watch.done("1 force-extraction",
               f"force error {worst_match:.2e}, radius deviation {worst_pair:.2e}")


def test_criterion_2_dirac_source_verification():
    watch = _Stopwatch(30.0)
    params = LandauParams.from_shape(2.0)
    field = LandauField(params)

    phi = weakform.TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, E_Z)
    pairing = weak_residual(field, phi)
    err_inside = abs(pairing - params.beta) / params.beta
    assert err_inside < 0.02

    phi_out = weakform.TestFunction([0.0, 0.0, 1.2], 0.075, 0.15, E_Z)
    pairing_out = abs(weak_residual(field, phi_out))
    assert pairing_out < 1e-6 * params.beta
    watch.done("2 dirac-source",
               f"plateau pairing error {err_inside:.2e}, "
               f"off-origin pairing {pairing_out:.2e}")


def test_criterion_3_pointwise_solution_check():
    watch = _Stopwatch(10.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for A in (1.5, 2.0, 5.0):
        params = LandauParams.from_shape(A)
        dirs = rng.normal(size=(100, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = 0.01 + (1.5 - 0.01) * rng.random(100)
        pts = radii[:, None] * dirs
        res = ns_residual(params, pts)
        worst = max(worst, float(np.max(radii**3 * np.linalg.norm(res, axis=1))))
    assert worst < 1e-4
    watch.done("3 pointwise-residual", f"max |x|^3 |residual| {worst:.2e}")


def test_criterion_4_parameter_relation():
    watch = _Stopwatch(1.0)
    import mpmath as mp

    with mp.workdps(50):
        a = mp.mpf(2)
        oracle = float(16 * mp.pi * (a + a**2 / 2 * mp.log((a - 1) / (a + 1))
                                     + 4 * a / (3 * (a**2 - 1))))
    anchor_err = abs(beta_from_A(2.0) - oracle) / oracle
    assert anchor_err < 1e-12

    grid = np.logspace(np.log10(1e-6), np.log10(1e6 - 1.0), 100) + 1.0
    betas = beta_from_A(grid)
    assert np.all(np.diff(betas) < 0.0)
    worst_rt = max(abs(A_from_beta(b) - A) / A for A, b in zip(grid, betas))
    assert worst_rt < 1e-9
    watch.done("4 parameter-relation",
               f"anchor {oracle:.6f} error {anchor_err:.2e}, "
               f"round trip {worst_rt:.2e}")


def test_criterion_5_homogeneity_and_self_similarity():
    watch = _Stopwatch(1.0)
    params = LandauParams.from_shape(2.0)
    rng = np.random.default_rng(55)
    pts = rng.normal(size=(200, 3))
    reference = landau_eval(params, pts)
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        state = RescaledField(LandauField(params), lam)(pts)
        scale_u = np.linalg.norm(reference.u, axis=1)
        worst = max(worst, float(np.max(
            np.linalg.norm(state.u - reference.u, axis=1) / scale_u)))
        worst = max(worst, float(np.max(
            np.abs(state.p - reference.p) / np.abs(reference.p))))
    assert worst < 1e-12

    rescaled = RescaledField(LandauField(params), 0.5)
    deviation = float(np.max(np.linalg.norm(
        rescaled(pts).u - reference.u, axis=1)))
    assert deviation <= 1e-12 * float(np.max(np.linalg.norm(reference.u, axis=1)))
    watch.done("5 self-similarity",
               f"homogeneity defect {worst:.2e}, "
               f"lambda=0.5 deviation {deviation:.2e}")


def test_criterion_6_contraction_demonstration():
    watch = _Stopwatch(120.0)
    drift = make_mollified_drift(LandauParams.from_magnitude(0.5), 32,
                                 delta_in=0.3, delta_out=1.5)
    tol = 1e-9
    trace = run_contraction(drift, make_forcing(32, 1e-3), r=2.0, tol=tol)
    late = trace.ratios[1:]
    assert trace.converged
    assert all(rho < 0.5 for rho in late)
    assert trace.uniqueness_distance <= 10.0 * tol

    max_ratios = []
    for amp in (1e-4, 1e-3, 1e-2, 1e-1):
        try:
            sweep = run_contraction(drift, make_forcing(32, amp), r=2.0,
                                    tol=1e-11, max_iters=25)
            max_ratios.append(max(sweep.ratios))
        except ContractionDivergedError:
            max_ratios.append(np.inf)
    assert all(b >= a - 1e-9 for a, b in zip(max_ratios, max_ratios[1:]))
    watch.done("6 contraction",
               f"max late ratio {max(late):.3f}, uniqueness "
               f"{trace.uniqueness_distance:.1e}, sweep ratios "
               + "/".join(f"{r:.3g}" for r in max_ratios))


def test_criterion_7_norm_machinery():
    watch = _Stopwatch(30.0)
    values, weights = ball_samples(
        lambda pts: 1.0 / np.linalg.norm(pts, axis=1), 2.0, n_r=400, n_theta=16)
    report = lorentz_quasinorm(values, weights, 3.0, np.inf)
    exact = (4.0 * np.pi / 3.0)**(1.0 / 3.0)
    weak_err = abs(report.value - exact) / exact
    assert weak_err < 0.02

    rng = np.random.default_rng(77)
    v = rng.random(1000)
    w = 0.1 + rng.random(1000)
    for p, q in ((3.0, np.inf), (2.0, 4.0)):
        base = lorentz_quasinorm(v, w, p, q).value
        scaled = lorentz_quasinorm(7.0 * v, w, p, q).value
        assert scaled == pytest.approx(7.0 * base, rel=1e-12)

    ind_values, ind_weights = ball_samples(
        lambda pts: (np.linalg.norm(pts, axis=1) <= 1.0).astype(float), 2.0,
        n_r=400, n_theta=8)
    l33 = lorentz_quasinorm(ind_values, ind_weights, 3.0, 3.0).value
    l3 = float(np.sum(ind_weights * ind_values**3)**(1.0 / 3.0))
    agreement = abs(l33 - l3) / l3
    assert agreement < 1e-3
    watch.done("7 norm-machinery",
               f"weak-L3 error {weak_err:.2e}, L33 vs L3 {agreement:.2e}")


def test_criterion_8_monotonicity_surrogate():
    watch = _Stopwatch(5.0)
    betas = np.linspace(1.0, 100.0, 50)
    sups = [sup_speed_on_unit_sphere(LandauParams.from_magnitude(b))
            for b in betas]
    diffs = np.diff(sups)
    assert np.all(diffs >= 0.0)
    watch.done("8 monotonicity", f"min increment {diffs.min():.2e}")


def test_criterion_9_decay_diagnostic():
    watch = _Stopwatch(5.0)
    params = LandauParams.from_shape(2.0)
    matched = decay_report(LandauField(params), params, 2.0, [0.5, 0.25, 0.1])
    assert matched.value == 0.0

    mismatched = decay_report(LandauField(params),
                              LandauParams.from_shape(3.0), 2.0,
                              [0.4, 0.2, 0.1, 0.05])
    weighted = mismatched.meta["shell_weighted"]
    assert all(b > a for a, b in zip(weighted, weighted[1:]))
    growth = weighted[-1] / weighted[0]
    watch.done("9 decay-diagnostic",
               f"matched value 0, mismatched growth x{growth:.1f} "
               "as shells shrink")
