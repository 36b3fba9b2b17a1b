"""The traced run's accounting closes, and the output checks have teeth.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
Jobs run at reduced sizes (grid 16, 16^3 cells) to keep the tests quick;
the accounting does not depend on the size.
"""

import copy

import numpy as np
import pytest

import pointflow
import tracer as tracing
import workloads
from pointflow import cli

COUNTS = ("quadrature.sobolev_calls", "spectral.w1r_calls",
          "landau.eval_points", "landau.probe_points", "quadrature.rule_nodes",
          "fft.calls", "fft.per_iteration", "fft.bytes_computed",
          "spectral.iterations", "spectral.picard_steps", "weakform.pairings",
          "weakform.evals_per_node")


def traced_run(workload, cfg, workdir):
    tracer = tracing.Tracer().install()
    try:
        tracer.job = 0
        tracer.active = True
        job = workload.run(cfg, workdir)
        tracer.active = False
    finally:
        tracer.uninstall()
    return tracer.spans, job.collect()


def traced_metrics(workload, cfg, workdir):
    spans, job = traced_run(workload, cfg, workdir)
    wall = max(s.end for s in spans) - min(s.start for s in spans)
    return spans, job, tracing.layer_metrics(spans, [wall], job.bytes_written)


@pytest.fixture
def small_workloads(tmp_path):
    grid = workloads.VerifyGrid(cells=16)
    grid.setup(str(tmp_path))
    return {"contraction": workloads.Contraction(grid=16),
            "verify_landau": workloads.VerifyLandau(),
            "verify_grid": grid}


def first_config(workload, seed=7):
    return workload.configs(seed, count=1)[0]


def test_contraction_steps_close_against_the_payload(small_workloads, tmp_path):
    wl = small_workloads["contraction"]
    spans, job, m = traced_metrics(wl, first_config(wl), str(tmp_path))
    payload = job.reports["picard"]["payload"]
    assert tracing.well_formed(spans) == []
    assert tracing.accounting_problems(spans, {0: payload}) == []
    (index,) = [i for i, s in enumerate(spans) if s.name == "spectral.contraction"]
    seq = tracing.contraction_sequence(spans, index, payload["tolerance"])
    assert seq["start1"] == payload["iterations"]
    assert m["spectral.picard_steps"] == payload["iterations"] + 1 + seq["start2"]
    assert m["spectral.iterations"] == payload["iterations"] + seq["start2"]
    assert m["spectral.w1r_calls"] == 2 * m["spectral.iterations"] + 2
    assert m["fft.per_iteration"] == 12.0


def test_weak_extraction_pairs_three_times(small_workloads, tmp_path):
    for name in ("verify_landau", "verify_grid"):
        wl = small_workloads[name]
        spans, job, m = traced_metrics(wl, first_config(wl), str(tmp_path))
        assert tracing.well_formed(spans) == []
        assert tracing.accounting_problems(spans, {}) == []
        assert m["weakform.pairings"] == 3
        assert m["weakform.evals_per_node"] == 3.0


def test_grid_probe_and_load_are_traced(small_workloads, tmp_path):
    wl = small_workloads["verify_grid"]
    _, _, m = traced_metrics(wl, first_config(wl), str(tmp_path))
    assert m["landau.probe_points"] > 0 and m["landau.probe_s"] > 0.0
    assert m["cli.grid_load_s"] > 0.0
    assert m["fft.calls"] == 0 and m["spectral.picard_steps"] == 0
    assert m["trace.coverage"] > 0.9


@pytest.mark.parametrize("name", ["contraction", "verify_landau", "verify_grid"])
def test_counts_repeat_exactly(small_workloads, tmp_path, name):
    wl = small_workloads[name]
    cfg = first_config(wl)
    _, _, first = traced_metrics(wl, cfg, str(tmp_path))
    _, _, second = traced_metrics(wl, cfg, str(tmp_path))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_child_outlasting_parent_is_reported():
    parent = tracing.Span("cli.main", 0, None, 0.0)
    parent.end = 1.0
    child = tracing.Span("landau.eval", 0, 0, 0.5)
    child.end = 1.5
    assert tracing.well_formed([parent, child])
    child.end = 0.9
    assert tracing.well_formed([parent, child]) == []


def test_uninstall_restores_every_namespace():
    originals = (cli.main, cli.landau_eval, pointflow.landau_eval,
                 np.fft.fftn, pointflow.SpectralField.w1r)
    tracer = tracing.Tracer().install()
    assert cli.landau_eval is pointflow.landau_eval is not originals[2]
    assert np.fft.fftn is not originals[3]
    tracer.uninstall()
    assert (cli.main, cli.landau_eval, pointflow.landau_eval, np.fft.fftn,
            pointflow.SpectralField.w1r) == originals


def test_independent_closed_form_matches_the_program():
    for beta in (0.1, 3.0, 100.0):
        A = workloads.A_of_beta(beta)
        assert A == pytest.approx(pointflow.A_from_beta(beta), rel=1e-11)
        axis = np.array([0.6, -0.8, 0.0])
        pts = np.random.default_rng(1).normal(size=(50, 3))
        u, p = workloads.landau_reference(A, axis, pts)
        params = pointflow.LandauParams.from_magnitude(beta, axis)
        state = pointflow.landau_eval(params, pts)
        assert np.allclose(u, state.u, rtol=1e-9, atol=0.0)
        assert np.allclose(p, state.p, rtol=1e-9, atol=1e-12)


def test_checks_reject_wrong_outputs(small_workloads, tmp_path):
    wl = small_workloads["contraction"]
    cfg = first_config(wl)
    job = wl.run(cfg, str(tmp_path)).collect()
    assert wl.check(cfg, job) == []
    bad = copy.copy(job)
    bad.reports = copy.deepcopy(job.reports)
    bad.reports["picard"]["payload"]["ratios"][-1] = 0.6
    assert wl.check(cfg, bad)
    bad = copy.copy(job)
    bad.codes = dict(job.codes, picard=1)
    assert wl.check(cfg, bad)

    wl = small_workloads["verify_landau"]
    cfg = first_config(wl)
    job = wl.run(cfg, str(tmp_path)).collect()
    assert wl.check(cfg, job) == []
    assert wl.check(dict(cfg, beta=1.01 * cfg["beta"]), job)


def test_benchmark_json_lists_every_layer_metric(small_workloads, tmp_path):
    import run
    declared = list(run.metric_units("per_layer"))
    wl = small_workloads["verify_landau"]
    _, _, m = traced_metrics(wl, first_config(wl), str(tmp_path))
    assert declared == list(m) + ["trace.overhead"]


def test_a_repeat_with_different_reports_fails():
    import run

    class Drifting:
        runs = 0

        def run(self, cfg, workdir):
            Drifting.runs += 1
            job = workloads.Job()
            job.values["x"] = Drifting.runs
            return job

        def check(self, cfg, job):
            return []

    records = run.run_jobs(Drifting(), [{}], [0, 0], "unused", {})
    assert records[0].problems == [] and records[1].problems
