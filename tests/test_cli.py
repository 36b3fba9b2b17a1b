"""Tests for the command-line interface: reports, exit codes, determinism."""

import argparse
import ast
import csv
import hashlib
import inspect
import json
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pointflow import (FlowField, LandauField, LandauParams, ball_samples,
                       extract_force_weak, flux_integral, make_mollified_drift,
                       run_contraction)
from pointflow import cli
from pointflow.cli import (_MAX_NODES, EXIT_CONFIG, EXIT_FAIL,
                           EXIT_NUMERICAL, EXIT_OUT_OF_REGIME, EXIT_PASS,
                           build_parser, main, parse_field_spec)
from pointflow.landau import BETA_MAX, BETA_MIN

try:   # numpy's own MemoryError, which the tests make without allocating
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:   # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

BETA_A2 = 34.766840318785736


def run(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestLandauCommand:
    def test_point_evaluation(self, tmp_path):
        code, report = run(tmp_path, "landau", "--A", "2", "--point", "0,0,1")
        assert code == EXIT_PASS
        entry = report["payload"]["points"][0]
        assert entry["u"] == pytest.approx([0.0, 0.0, 4.0], abs=1e-13)
        assert entry["p"] == pytest.approx(4.0, rel=1e-13)
        assert report["payload"]["beta"] == pytest.approx(BETA_A2, rel=1e-12)

    def test_beta_spec_matches_shape_spec(self, tmp_path):
        code, report = run(tmp_path, "landau", "--beta", repr(BETA_A2),
                           "--point", "0,0,1")
        assert code == EXIT_PASS
        entry = report["payload"]["points"][0]
        assert entry["u"] == pytest.approx([0.0, 0.0, 4.0], rel=1e-6)

    def test_overspecified_parameters(self, tmp_path):
        code, _ = run(tmp_path, "landau", "--A", "2", "--beta", "5",
                      "--point", "0,0,1")
        assert code == EXIT_CONFIG

    def test_missing_points(self, tmp_path):
        code, _ = run(tmp_path, "landau", "--A", "2")
        assert code == EXIT_CONFIG

    def test_csv_output_format(self, tmp_path):
        csv_path = tmp_path / "points.csv"
        code, _ = run(tmp_path, "landau", "--A", "2", "--point", "0,0,1",
                      "--point", "0,0,-1", "--csv", str(csv_path))
        assert code == EXIT_PASS
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["x", "y", "z", "ux", "uy", "uz", "p"]
        assert len(rows) == 3
        assert float(rows[1][5]) == pytest.approx(4.0)

    def test_points_file_input(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z\n0,0,1\n0,0,2\n")
        code, report = run(tmp_path, "landau", "--A", "2",
                           "--points-file", str(pts))
        assert code == EXIT_PASS
        assert len(report["payload"]["points"]) == 2

    @pytest.mark.parametrize("header", ["x, y, z", " x , y ,z "])
    def test_points_file_header_cells_are_stripped(self, tmp_path, header):
        # the header cells are stripped as a grid file's are
        pts = tmp_path / "pts.csv"
        pts.write_text(header + "\n0,0,1\n0,0,2\n")
        code, report = run(tmp_path, "landau", "--A", "2",
                           "--points-file", str(pts))
        assert code == EXIT_PASS
        assert [p["x"] for p in report["payload"]["points"]] == [
            [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]

    def test_domain_error_maps_to_config(self, tmp_path):
        code, _ = run(tmp_path, "landau", "--A", "0.5", "--point", "0,0,1")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flags, named", [
        (["--point", "inf,0,1"], "--point"),
        (["--point", "0,0,1", "--point", "0,0,0"], "--point"),
        (["--point", "0,0,1", "--axis", "nan,0,1"], "--axis"),
        (["--point", "0,0,1", "--seed", "-1"], "--seed"),
        (["--point", "1e-320,0,0"], "--point"),
        (["--point", "1e308,1e308,0"], "--point"),
        (["--point", "0,0,1", "--beta", "5"], "--beta"),
        (["--point", "0,0,1", "--points-file", "pts.csv"], "--points-file"),
        ([], "--point --points-file"),
        (["--point", "0,0,1", "--A", "0.5"], "--A"),
        (["--point", "0,0,1", "--A", "1e160"], "--A"),
        (["--point", "0,0,1", "--A", "1e150"], "--A"),
        (["--point", "0,0,1", "--axis", "0,0,0"], "--axis"),
        (["--point", "0,0,1", "--axis", "1e-320,0,0"], "--axis"),
        (["--point", "0,0,1", "--axis", "1e200,1e200,0"], "--axis"),
        (["--point", "0,0,1", "--output", ""], "--output"),
        (["--point", "0,0,1", "--csv", ""], "--csv"),
        (["--points-file", ""], "--points-file"),
    ])
    def test_bad_flag_is_config_error(self, tmp_path, capsys, flags, named):
        code, report = run(tmp_path, "landau", "--A", "2", *flags)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["landau", "--A", "2", "--point", "-0.5,0,1"],
        ["landau", "--A", "2", "--point", "0,0,1", "--axis", "-1,0,0"],
        ["verify", "weak", "--field", "landau:A=2", "--center", "-0.2,0,0"],
    ])
    def test_a_negative_first_component_takes_the_equals_form(
            self, tmp_path, capsys, argv):
        # after a space argparse reads "-0.5,0,1" as a flag
        *head, flag, value = argv
        code, report = run(tmp_path, *argv)
        assert code == EXIT_CONFIG and report is None
        assert f"argument {flag}: expected one argument" in \
            capsys.readouterr().err
        code, report = run(tmp_path, *head, f"{flag}={value}")
        assert code == EXIT_PASS
        assert value in json.dumps(report["config"])

    def test_a_point_prints_its_points_file_row(self, tmp_path):
        pts = np.random.default_rng(3).normal(size=(200, 3))
        (tmp_path / "pts.csv").write_text("".join(
            ",".join(map(repr, row)) + "\n" for row in pts.tolist()))
        flags = ["landau", "--beta", "2.5", "--axis", "0.3,-0.4,0.866"]
        code, report = run(tmp_path, *flags,
                           "--points-file", str(tmp_path / "pts.csv"))
        assert code == EXIT_PASS
        for row, entry in zip(pts.tolist(), report["payload"]["points"]):
            code, one = run(tmp_path, *flags,
                            "--point=" + ",".join(map(repr, row)),
                            name="one.json")
            assert code == EXIT_PASS and one["payload"]["points"] == [entry]


class TestFluxCommand:
    def test_landau_three_radii(self, tmp_path):
        code, report = run(tmp_path, "flux", "--field", "landau:A=2",
                           "--radii", "0.5,1,1.5")
        assert code == EXIT_PASS
        payload = report["payload"]
        assert payload["max_pairwise_relative_deviation"] < 1e-8
        assert payload["max_relative_force_error"] < 1e-6
        for b in payload["force_per_radius"]:
            assert b[2] == pytest.approx(BETA_A2, rel=1e-6)
        assert report["passed"] is True

    def test_zero_field(self, tmp_path):
        code, report = run(tmp_path, "flux", "--field", "landau:beta=0",
                           "--radii", "1")
        assert code == EXIT_PASS
        assert report["payload"]["force_per_radius"][0] == [0.0, 0.0, 0.0]

    def test_negative_radius(self, tmp_path):
        code, _ = run(tmp_path, "flux", "--field", "landau:A=2",
                      "--radii", "-1")
        assert code == EXIT_CONFIG

    def test_unachievable_tolerance_fails(self, tmp_path):
        csv_path = tmp_path / "forces.csv"
        code, report = run(tmp_path, "flux", "--field", "landau:A=2",
                           "--radii", "0.7,1.3", "--tol", "1e-30",
                           "--csv", str(csv_path))
        assert code == EXIT_FAIL
        assert report["passed"] is False
        # a failed run still writes its rows
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["radius", "bx", "by", "bz"]
        assert [float(r[0]) for r in rows[1:]] == [0.7, 1.3]
        assert [[float(v) for v in r[1:]] for r in rows[1:]] == \
            report["payload"]["force_per_radius"]

    @pytest.mark.parametrize("flags, expected", [
        # relative force errors at R = 1: 0.32, 7.6e-4 and 3.8e-9; the
        # radii agree to round-off in all three
        (["--field", "landau:A=1.001", "--radii", "1,2"], EXIT_FAIL),
        (["--field", "landau:A=1.1", "--radii", "1", "--n-theta", "16"],
         EXIT_FAIL),
        (["--field", "landau:A=1.1", "--radii", "1", "--n-theta", "32"],
         EXIT_PASS),
    ])
    def test_landau_force_error_is_graded(self, tmp_path, flags, expected):
        code, report = run(tmp_path, "flux", *flags)
        assert code == expected
        payload = report["payload"]
        assert payload["max_pairwise_relative_deviation"] <= 1e-8
        assert report["passed"] is (
            payload["max_relative_force_error"] <= payload["tolerance"])

    def test_grid_field_round_trip(self, tmp_path):
        # sample a Landau field on a grid, reload it, extract the force
        from pointflow import LandauParams, landau_eval

        params = LandauParams.from_shape(2.0)
        axis_pts = np.linspace(-1.4, 1.4, 28)   # even count keeps 0 off-grid
        grid_path = tmp_path / "field.csv"
        with grid_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "z", "ux", "uy", "uz", "p"])
            for x in axis_pts:
                for y in axis_pts:
                    for z in axis_pts:
                        st = landau_eval(params, [x, y, z])
                        writer.writerow([x, y, z, *st.u, st.p])
        code, report = run(tmp_path, "flux", "--field", f"grid:{grid_path}",
                           "--radii", "1.0", "--n-theta", "16", "--tol", "1")
        assert code == EXIT_PASS
        b = report["payload"]["force_per_radius"][0]
        # trilinear interpolation of a 1/r field is crude; just check the
        # direction and the rough magnitude survive the round trip
        assert b[2] == pytest.approx(BETA_A2, rel=0.2)
        assert abs(b[0]) < 0.1 * BETA_A2 and abs(b[1]) < 0.1 * BETA_A2

    @pytest.mark.parametrize("flags, named", [
        (["--n-theta", "1"], "--n-theta"),
        (["--tol", "nan"], "--tol"),
        (["--radii", "nan"], "--radii"),
        (["--radii", "1,inf"], "--radii"),
        (["--seed", "-1"], "--seed"),
        (["--radii", "1e300"], "--radii"),
        (["--radii", "1,1e-300"], "--radii"),
        (["--radii", "1,,2"], "--radii"),
        (["--radii", "1,"], "--radii"),
        (["--n-theta", "1449"], "--n-theta"),
        # above A_MAX; at 1e160 the closed form overflows
        (["--field", "landau:A=1e160"], "--field"),
        (["--field", "landau:A=1e150"], "--field"),
        (["--csv", ""], "--csv"),
    ])
    def test_bad_flag_is_config_error(self, tmp_path, capsys, flags, named):
        code, report = run(tmp_path, "flux", "--field", "landau:A=2",
                           "--radii", "1", *flags)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err


class TestVerifyCommand:
    def test_weak(self, tmp_path):
        code, report = run(tmp_path, "verify", "weak", "--field", "landau:A=2",
                           "--center", "0,0,0", "--a", "0.5", "--b", "1")
        assert code == EXIT_PASS
        assert report["payload"]["relative_error"] < 0.02
        assert report["payload"]["extracted_force"][2] == pytest.approx(
            BETA_A2, rel=0.02)

    def test_weak_support_avoiding_origin(self, tmp_path):
        code, report = run(tmp_path, "verify", "weak", "--field", "landau:A=2",
                           "--center", "0,0,1.2", "--a", "0.075", "--b", "0.15",
                           "--tol", "1e-6")
        assert code == EXIT_PASS
        assert report["payload"]["origin_in_plateau"] is False

    def test_ns(self, tmp_path):
        code, report = run(tmp_path, "verify", "ns", "--field", "landau:A=2",
                           "--samples", "100", "--seed", "7")
        assert code == EXIT_PASS
        assert report["payload"]["max_weighted_residual"] < 1e-4

    @pytest.mark.parametrize("samples", ["100", "1000"])
    @pytest.mark.parametrize("A", ["1.001", "1.0001", "1.000001"])
    def test_ns_passes_exact_jets_on_every_seed(self, tmp_path, A, samples):
        # a jet's angular width is sqrt(2 (A - 1)); its exact residual must
        # pass wherever the random points fall
        failed = [seed for seed in range(20)
                  if run(tmp_path, "verify", "ns", "--field", f"landau:A={A}",
                         "--samples", samples, "--seed", str(seed))[0]
                  != EXIT_PASS]
        assert failed == []

    def test_selfsim(self, tmp_path):
        code, report = run(tmp_path, "verify", "selfsim", "--field",
                           "landau:A=2", "--lambda", "0.5")
        assert code == EXIT_PASS
        assert report["payload"]["max_deviation"] <= 1e-12

    def test_ns_requires_landau_field(self, tmp_path):
        code, _ = run(tmp_path, "verify", "ns", "--field", "r^-1")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, named", [
        (["ns", "--samples", "0"], "--samples"),
        (["ns", "--rmin", "2", "--rmax", "1"], "--rmin"),
        (["ns", "--rmin", "0"], "--rmin"),
        (["ns", "--seed", "-1"], "--seed"),
        (["ns", "--tol", "nan"], "--tol"),
        (["selfsim", "--lambda", "0.5", "--samples", "0"], "--samples"),
        (["selfsim", "--lambda", "0.5", "--seed", "-1"], "--seed"),
        (["weak", "--n-r", "2"], "--n-r"),
        (["weak", "--n-theta", "1"], "--n-theta"),
        (["weak", "--center", "nan,0,0"], "--center"),
        (["ns", "--rmax", "inf"], "--rmax"),
        (["selfsim", "--lambda", "nan"], "--lambda"),
        (["weak", "--b", "inf"], "--b"),
        (["weak", "--b", "1e300"], "--b"),
        (["weak", "--a", "1e-300", "--b", "2e-300"], "--a"),
        (["ns", "--rmax", "1e300"], "--rmax"),
        (["ns", "--rmin", "1e-300"], "--rmin"),
        (["selfsim", "--lambda", "1e-300"], "--lambda"),
        (["weak", "--center", "1,2"], "--center"),
        (["weak", "--n-theta", "257"], "--n-theta"),
        (["weak", "--n-r", "4097", "--n-theta", "24"], "--n-r"),
        (["ns", "--samples", str(_MAX_NODES + 1)], "--samples"),
        (["weak", "--center", "1e300,0,0"], "--center"),
        (["weak", "--center", "1e200,1e200,0"], "--center"),
    ])
    def test_bad_flag_is_config_error(self, tmp_path, capsys, argv, named):
        code, report = run(tmp_path, "verify", argv[0], "--field",
                           "landau:A=2", *argv[1:])
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err


class TestPicardCommand:
    def test_small_amplitude_passes(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code, report = run(tmp_path, "picard", "--amp", "1e-3", "--grid", "32",
                           "--r", "2", "--csv", str(csv_path))
        assert code == EXIT_PASS
        payload = report["payload"]
        assert payload["converged"] is True
        assert payload["max_ratio_after_first"] < 0.5
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["iter", "increment", "ratio"]
        assert rows[1][2] == ""            # no ratio for the first increment
        assert len(rows) == payload["iterations"] + 1

    def test_zero_amplitude_converges_immediately(self, tmp_path):
        code, report = run(tmp_path, "picard", "--amp", "0", "--grid", "16")
        assert code == EXIT_PASS
        assert report["payload"]["iterations"] == 1

    def test_large_amplitude_out_of_regime(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code, report = run(tmp_path, "picard", "--amp", "50", "--grid", "16",
                           "--iters", "60", "--csv", str(csv_path))
        assert code == EXIT_OUT_OF_REGIME
        assert report["payload"]["diverged"] is True
        assert report["passed"] is False
        assert not csv_path.exists()

    def test_overflow_is_out_of_regime(self, tmp_path):
        # the first norm overflows to inf, which no ratio to it exceeds;
        # the non-finite norm itself stops the run
        csv_path = tmp_path / "trace.csv"
        csv_path.write_text("old trace\n")
        code, report = run(tmp_path, "picard", "--amp", "1e200", "--grid",
                           "16", "--csv", str(csv_path))
        assert code == EXIT_OUT_OF_REGIME
        assert report["payload"]["diverged"] is True
        assert report["payload"]["iterations"] == 1
        # a diverged run writes no trace, nor cuts the old one
        assert csv_path.read_text() == "old trace\n"

    def test_overflow_prints_only_the_regime_line(self, tmp_path, capsys):
        # the overflowed norm is read by the divergence detector; numpy
        # must not also warn of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "picard", "--amp", "1e200", "--grid",
                          "16")
        assert code == EXIT_OUT_OF_REGIME
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("out of regime:")

    def test_grid_validation(self, tmp_path):
        code, _ = run(tmp_path, "picard", "--amp", "1e-3", "--grid", "20")
        assert code == EXIT_CONFIG
        code, _ = run(tmp_path, "picard", "--amp", "1e-3", "--grid", "8")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flags, named", [
        (["--amp", "nan"], "--amp"),
        (["--amp", "inf"], "--amp"),
        (["--tol", "nan"], "--tol"),
        (["--r", "nan"], "--r"),
        (["--r", "3.5"], "--r"),
        (["--iters", "0"], "--iters"),
        (["--delta-in", "2", "--delta-out", "1"], "--delta-in"),
        (["--delta-out", "7"], "--delta-out"),
        (["--drift-beta", "nan"], "--drift-beta"),
        (["--drift-beta", "-1"], "--drift-beta"),
        (["--seed", "-1"], "--seed"),
        (["--grid", "256"], "--grid"),
        (["--drift-beta", "1e-9"], "--drift-beta"),
        (["--drift-beta", "1e300"], "--drift-beta"),
        # in range, but A_from_beta's A misses the consistency check
        (["--drift-beta", "1e9"], "--drift-beta"),
        (["--csv", ""], "--csv"),
    ])
    def test_bad_flag_is_config_error(self, tmp_path, capsys, flags, named):
        argv = ["picard", "--amp", "1e-3", "--grid", "16"] + flags
        code, report = run(tmp_path, *argv)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err


class TestNormsCommand:
    def test_weak_l3_of_inverse_radius(self, tmp_path):
        code, report = run(tmp_path, "norms", "--field", "r^-1", "--weak-l3",
                           "--domain", "ball:2")
        assert code == EXIT_PASS
        exact = (4 * np.pi / 3.0)**(1.0 / 3.0)
        assert report["payload"]["value"] == pytest.approx(exact, rel=0.02)
        assert report["passed"] is True

    def test_beta_sweep_monotone(self, tmp_path):
        code, report = run(tmp_path, "norms", "--sweep-beta", "1:100:50")
        assert code == EXIT_PASS
        sups = report["payload"]["sup_speed_on_unit_sphere"]
        assert len(sups) == 50
        assert all(b >= a for a, b in zip(sups, sups[1:]))

    def test_decay_zero_for_matching_reference(self, tmp_path):
        code, report = run(tmp_path, "norms", "--field", "landau:A=2",
                           "--decay", "--ref", "A=2", "--q", "2")
        assert code == EXIT_PASS
        assert report["payload"]["value"] == 0.0
        assert report["passed"] is True

    def test_norm_without_mode_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "norms", "--field", "r^-1")
        assert code == EXIT_CONFIG

    def test_decay_against_another_force_is_not_graded(self, tmp_path):
        code, report = run(tmp_path, "norms", "--field", "landau:A=2",
                           "--decay", "--ref", "A=3")
        assert code == EXIT_PASS
        assert report["passed"] is None
        assert report["payload"]["value"] > report["payload"]["tolerance"]

    def test_lorentz_norm_of_large_samples_is_finite(self, tmp_path, capsys):
        # v^40 of r^-2 near the origin of a small ball, and v^64 at a fine
        # radial resolution, overflow unless the powers are scaled first
        for argv in (["norms", "--field", "r^-2", "--lorentz", "3,40",
                      "--domain", "ball:1e-3"],
                     ["norms", "--field", "r^-2", "--lorentz", "3,64",
                      "--resolution", "1600,16,32"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, report = run(tmp_path, *argv)
            assert code == EXIT_PASS and not caught
            assert 0.0 < report["payload"]["value"] < np.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(tmp_path, *argv)[0] == EXIT_PASS
        assert capsys.readouterr().err == ""

    def test_lorentz_norm_with_small_scaled_terms(self, tmp_path):
        # at p = 1.5 the terms scaled by v_max^q and t_total^{q/p} fall
        # below the subnormals; the value computed with unscaled powers
        # is finite, and the scaled terms keep it
        code, report = run(tmp_path, "norms", "--field", "r^-2",
                           "--lorentz", "1.5,64")
        assert code == EXIT_PASS
        assert report["payload"]["value"] == pytest.approx(
            2.6658620427580786, rel=1e-14)


class TestReportContract:
    def test_payload_determinism(self, tmp_path):
        _, first = run(tmp_path, "verify", "ns", "--field", "landau:A=2",
                       "--samples", "50", "--seed", "11", name="a.json")
        _, second = run(tmp_path, "verify", "ns", "--field", "landau:A=2",
                        "--samples", "50", "--seed", "11", name="b.json")
        dump = lambda r: json.dumps(r["payload"], sort_keys=True)
        assert dump(first) == dump(second)
        assert first["passed"] == second["passed"]
        config = lambda r: {k: v for k, v in r["config"].items()
                            if k != "output"}
        assert config(first) == config(second)

    def test_seed_recorded_and_schema_versioned(self, tmp_path):
        _, report = run(tmp_path, "verify", "ns", "--field", "landau:A=2",
                        "--samples", "10", "--seed", "11")
        assert report["schema_version"] == 1
        assert report["config"]["seed"] == 11
        assert report["config"]["subcommand"] == "verify"

    @pytest.mark.parametrize("argv", [
        ["landau", "--A", "2", "--point", "0,0,1"],
        ["flux", "--field", "landau:A=2", "--radii", "1"],
        ["verify", "weak", "--field", "landau:A=2"],
        ["norms", "--field", "r^-1", "--weak-l3"]],
        ids=["landau", "flux", "verify-weak", "norms"])
    def test_seed_refused_where_nothing_draws(self, tmp_path, capsys, argv):
        code, report = run(tmp_path, *argv, "--seed", "1")
        assert code == EXIT_CONFIG and report is None
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_pass_flag_recomputable_from_payload(self, tmp_path):
        _, report = run(tmp_path, "flux", "--field", "landau:A=2",
                        "--radii", "0.5,1.5")
        payload = report["payload"]
        recomputed = (payload["max_pairwise_relative_deviation"]
                      <= payload["tolerance"])
        assert recomputed == report["passed"]

    def test_json_round_trip_lossless(self, tmp_path):
        _, report = run(tmp_path, "verify", "selfsim", "--field", "landau:A=2",
                        "--lambda", "0.5")
        text = json.dumps(report, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text

    def test_stdout_emission(self, capsys):
        code = main(["flux", "--field", "landau:beta=0", "--radii", "1"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["payload"]["force_per_radius"] == [[0.0, 0.0, 0.0]]

    def test_unknown_subcommand_is_config_error(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    # the config echo of each command at its default flags: a changed
    # flag name, default or parsed type shows up here
    DEFAULT_CONFIGS = [
        (["landau", "--A", "2", "--point", "0,0,1"], "landau",
         {"A": 2.0, "point": ["0,0,1"], "subcommand": "landau"}),
        (["flux", "--field", "landau:A=2", "--radii", "1"], "flux",
         {"field": "landau:A=2", "n_theta": 64, "radii": "1",
          "subcommand": "flux", "tol": 1e-08}),
        (["verify", "weak", "--field", "landau:A=2"], "verify-weak",
         {"a": 0.5, "b": 1.0, "center": "0,0,0", "field": "landau:A=2",
          "mode": "weak", "n_r": 32, "n_theta": 32,
          "subcommand": "verify", "tol": 0.02}),
        (["verify", "ns", "--field", "landau:A=2"], "verify-ns",
         {"field": "landau:A=2", "mode": "ns", "rmax": 1.5, "rmin": 0.01,
          "samples": 100, "seed": 0, "subcommand": "verify", "tol": 0.0001}),
        (["verify", "selfsim", "--field", "landau:A=2", "--lambda", "0.5"],
         "verify-selfsim",
         {"field": "landau:A=2", "lam": 0.5, "mode": "selfsim",
          "samples": 100, "seed": 0, "subcommand": "verify", "tol": 1e-12}),
        (["picard", "--amp", "0", "--grid", "16"], "picard",
         {"amp": 0.0, "delta_in": 0.3, "delta_out": 1.5, "drift_beta": 0.5,
          "grid": 16, "iters": 40, "r": 2.0, "seed": 0,
          "subcommand": "picard", "tol": 1e-09}),
        (["norms", "--field", "r^-1", "--weak-l3"], "norms",
         {"decay": False, "domain": "ball:2", "field": "r^-1", "q": 2.0,
          "resolution": "400,16,32",
          "shells": "0.4,0.2,0.1,0.05", "subcommand": "norms",
          "tol": 0.02, "weak_l3": True}),
    ]

    @pytest.mark.parametrize("argv, command, config", DEFAULT_CONFIGS,
                             ids=[c[1] for c in DEFAULT_CONFIGS])
    def test_config_echo_at_defaults(self, tmp_path, argv, command, config):
        code, report = run(tmp_path, *argv)
        assert code == EXIT_PASS and report["command"] == command
        expected = dict(config, output=str(tmp_path / "report.json"))
        # compared as JSON text, so an int where a float was fails too
        assert (json.dumps(report["config"], sort_keys=True)
                == json.dumps(expected, sort_keys=True))

    @pytest.mark.parametrize("argv, command, config", DEFAULT_CONFIGS,
                             ids=[c[1] for c in DEFAULT_CONFIGS])
    def test_defaults_run_without_warnings(self, tmp_path, argv, command,
                                           config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run(tmp_path, *argv)
        assert code == EXIT_PASS and report["command"] == command


class TestParseFieldSpec:
    @pytest.mark.parametrize("spec, params", [
        ("landau:A=2", LandauParams.from_shape(2.0)),
        ("landau:beta=5", LandauParams.from_magnitude(5.0)),
        ("zero", LandauParams.zero()),
    ])
    def test_landau_specs_give_landau_fields(self, spec, params):
        kind, probe = parse_field_spec(spec)
        assert kind == "landau" and isinstance(probe, LandauField)
        assert probe.params.A == params.A and probe.params.beta == params.beta
        assert probe.params.b.tolist() == params.b.tolist()

    def test_grid_spec_gives_flow_field(self, tmp_path):
        grid = tmp_path / "field.csv"
        grid.write_text("x,y,z,ux,uy,uz,p\n" + "".join(
            f"{x},{y},{z},1,2,3,4\n" for x in (-1, 1) for y in (-1, 1)
            for z in (-1, 1)))
        kind, probe = parse_field_spec(f"grid:{grid}")
        assert kind == "grid" and isinstance(probe, FlowField)
        assert probe.velocity([[0.5, 0.0, -0.5]]).tolist() == [[1.0, 2.0, 3.0]]

    def test_inverse_radius_gives_magnitude_callable(self):
        kind, probe = parse_field_spec("r^-1")
        assert kind == "scalar" and not isinstance(probe, FlowField)
        assert probe(np.array([[0.0, 3.0, 4.0]])).tolist() == [0.2]


class TestFailureModes:
    def test_nonpositive_tolerance_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "flux", "--field", "landau:A=2",
                      "--radii", "1", "--tol", "-1")
        assert code == EXIT_CONFIG

    def test_numerical_failure_exit_code(self, tmp_path):
        # grid field evaluated outside its own bounding box
        grid_path = tmp_path / "tiny.csv"
        with grid_path.open("w") as fh:
            fh.write("x,y,z,ux,uy,uz,p\n")
            for x in (-0.2, 0.2):
                for y in (-0.2, 0.2):
                    for z in (-0.2, 0.2):
                        fh.write(f"{x},{y},{z},1,0,0,0\n")
        code, _ = run(tmp_path, "flux", "--field", f"grid:{grid_path}",
                      "--radii", "1.5")
        assert code == 3


def raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


class TestMemoryError:
    """A MemoryError, raised here by patching and never by allocating,
    exits 3 with one stderr line that names the subcommand."""

    @pytest.mark.parametrize("error, text", [
        (MemoryError(), "MemoryError"),
        (_ArrayMemoryError((2**40,), np.dtype(float)),
         "Unable to allocate 8.00 TiB for an array with shape "
         "(1099511627776,) and data type float64")])
    def test_of_a_command(self, tmp_path, capsys, monkeypatch, error, text):
        calls = []

        def probe(self, pts):
            calls.append(len(pts))
            raise error

        # the command's library call, then the probe that call evaluates
        for target, name, fail in [(cli, "flux_integral", raising(error)),
                                   (LandauField, "__call__", probe)]:
            with monkeypatch.context() as patch:
                patch.setattr(target, name, fail)
                code, report = run(tmp_path, "flux", "--field", "landau:A=2",
                                   "--radii", "1")
            assert code == EXIT_NUMERICAL and report is None
            assert capsys.readouterr().err == (
                f"numerical failure: flux ran out of memory ({text})\n")
        # one evaluation of the 2 * 64^2 sphere nodes, none node by node
        assert calls == [2 * 64**2]

    @pytest.mark.parametrize("argv, command", [
        (["verify", "weak", "--field", "landau:A=2", "--n-r", "4",
          "--n-theta", "4", "--tol", "1"], "verify-weak"),
        (["norms", "--sweep-beta", "1:2:3"], "norms")])
    def test_of_the_report(self, tmp_path, capsys, monkeypatch, argv,
                           command):
        monkeypatch.setattr(cli, "_emit", raising(MemoryError()))
        code, report = run(tmp_path, *argv)
        assert code == EXIT_NUMERICAL and report is None
        assert capsys.readouterr().err == (
            f"numerical failure: {command} ran out of memory (MemoryError)\n")


class TestAdditionalSurfaces:
    def test_landau_axis_flag(self, tmp_path):
        code, report = run(tmp_path, "landau", "--A", "2", "--axis", "1,0,0",
                           "--point", "1,0,0")
        assert code == EXIT_PASS
        entry = report["payload"]["points"][0]
        assert entry["u"] == pytest.approx([4.0, 0.0, 0.0], abs=1e-13)

    def test_lorentz_flag_with_expect(self, tmp_path):
        exact = (4 * np.pi / 3.0)**(1.0 / 3.0)
        code, report = run(tmp_path, "norms", "--field", "r^-1", "--lorentz",
                           "3,inf", "--domain", "ball:2",
                           "--expect", repr(exact), "--tol", "0.02")
        assert code == EXIT_PASS
        assert report["payload"]["norm"] == "weak-L3"

    def test_weak_with_origin_in_transition_region(self, tmp_path):
        # phi(0) is neither the plateau value nor zero; the pairing must
        # still match b . phi(0), within a looser resolution-limited bound
        code, report = run(tmp_path, "verify", "weak", "--field",
                           "landau:A=2", "--center", "0,0,0.3", "--a", "0.1",
                           "--b", "0.6", "--n-r", "64", "--n-theta", "64",
                           "--tol", "0.05")
        assert code == EXIT_PASS
        expected = report["payload"]["expected_force"]
        assert expected[2] not in (0.0, pytest.approx(BETA_A2, rel=1e-6))
        assert report["payload"]["relative_error"] < 0.05


class TestNormsFlags:
    @pytest.mark.parametrize("flags, named", [
        (["--domain", "ball:abc"], "--domain"),
        (["--domain", "ball:nan"], "--domain"),
        (["--domain", "ball:-1"], "--domain"),
        (["--domain", "cube:2"], "--domain"),
        (["--resolution", "0,0,0"], "--resolution"),
        (["--resolution", "1,16,32"], "--resolution"),
        (["--resolution", "40,1,32"], "--resolution"),
        (["--resolution", "40,16,3"], "--resolution"),
        (["--resolution", "40,16"], "--resolution"),
        (["--resolution", "nan,16,32"], "--resolution"),
        (["--resolution", "a,b,c"], "--resolution"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "0"], "--tol"),
        (["--expect", "0"], "--expect"),
        (["--expect", "nan"], "--expect"),
        (["--seed", "-1"], "--seed"),
        (["--domain", "ball:1e300"], "--domain"),
        (["--domain", "ball:1e-300"], "--domain"),
        (["--resolution", "40.5,16,32"], "--resolution"),
        (["--resolution", "40,,16,32"], "--resolution"),
        (["--resolution", "1000000000,2,4"], "--resolution"),
        (["--lorentz", "2.5,2"], "--lorentz"),
        (["--decay", "--ref", "A=2"], "--decay"),
        (["--sweep-beta", "1:2:3"], "--sweep-beta"),
    ])
    def test_bad_weak_l3_flag_is_config_error(self, tmp_path, capsys, flags,
                                              named):
        code, report = run(tmp_path, "norms", "--field", "r^-1", "--weak-l3",
                           *flags)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("pq", ["0,1", "3,0.5", "3,nan", "inf,2", "3,1e300",
                                    "3", "3,2,1"])
    def test_bad_lorentz_exponents(self, tmp_path, capsys, pq):
        code, report = run(tmp_path, "norms", "--field", "r^-1",
                           "--lorentz", pq)
        assert code == EXIT_CONFIG and report is None
        assert "--lorentz" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--q", "3"], "--q"),
        (["--shells", "0.5,2"], "--shells"),
        (["--shells", "0,0.5"], "--shells"),
        (["--shells", "1e-300"], "--shells"),
        (["--weak-l3"], "--weak-l3"),
        (["--ref", "A=1e160"], "--ref"),
    ])
    def test_bad_decay_flag_is_config_error(self, tmp_path, capsys, flags,
                                            named):
        code, report = run(tmp_path, "norms", "--field", "landau:A=2",
                           "--decay", "--ref", "A=2", *flags)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["1:100:2.5", "1:100:nan", "1:inf:5",
                                       "1::5", f"1:2:{_MAX_NODES + 1}",
                                       "1e-9:1:3", "1:1e300:3",
                                       # in range, but a middle beta fails
                                       # A_from_beta's consistency check
                                       "5.026548245743665e-07:"
                                       "33476838598.789074:3"])
    def test_bad_sweep_is_config_error(self, tmp_path, capsys, sweep):
        code, report = run(tmp_path, "norms", "--sweep-beta", sweep)
        assert code == EXIT_CONFIG and report is None
        assert "--sweep-beta" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--field", "r^-1", "--weak-l3", "--ref", "A=2", "--q", "2.5",
          "--shells", "0.3"], "--ref"),
        (["--sweep-beta", "1:2:3", "--field", "r^-1", "--expect", "5"],
         "--field"),
        (["--sweep-beta", "1:2:3", "--resolution", "400,16,32"],
         "--resolution"),
        (["--field", "r^-1", "--lorentz", "3,2", "--q", "2"], "--q"),
        (["--field", "r^-1", "--weak-l3", "--shel", "0.3"], "--shells"),
        (["--field", "landau:A=2", "--decay", "--ref", "A=2",
          "--domain", "ball:2"], "--domain"),
        (["--field", "landau:A=2", "--decay", "--ref", "A=2", "--expect", "1"],
         "--expect"),
        (["--sweep-beta", "1:2:3", "--tol", "5"], "--tol"),
    ])
    def test_flag_of_another_mode_is_config_error(self, tmp_path, capsys,
                                                  argv, named):
        # a flag its mode does not read, even at its default value
        code, report = run(tmp_path, "norms", *argv)
        assert code == EXIT_CONFIG and report is None
        err = capsys.readouterr().err
        assert f"{named} does not apply to norms" in err

    @pytest.mark.parametrize("flags, named", [
        (["--resolution", "1,1,1"], "--resolution"),
        (["--domain", "cube:3"], "--domain"),
    ])
    def test_bad_flag_beside_sweep_is_config_error(self, tmp_path, capsys,
                                                   flags, named):
        # a flag the sweep does not read is still checked
        code, report = run(tmp_path, "norms", "--sweep-beta", "1:2:3", *flags)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [
        ["--weak-l3", "--resolution", "8,4,8"],
        ["--lorentz", "3,inf", "--resolution", "8,4,8"],
        ["--decay", "--ref", "A=3"],
    ])
    def test_tolerance_without_a_graded_value_is_config_error(
            self, tmp_path, capsys, mode):
        # no --expect, no r^-1 reference, or a reference of another force:
        # --tol would grade nothing
        code, report = run(tmp_path, "norms", "--field", "landau:A=2", *mode,
                           "--tol", "5")
        assert code == EXIT_CONFIG and report is None
        assert "--tol grades nothing" in capsys.readouterr().err
        code, report = run(tmp_path, "norms", "--field", "landau:A=2", *mode)
        assert code == EXIT_PASS and report["passed"] is None

    @pytest.mark.parametrize("mode", [["--weak-l3"], ["--lorentz", "3,inf"]])
    def test_tolerance_with_expect_is_graded(self, tmp_path, mode):
        code, report = run(tmp_path, "norms", "--field", "landau:A=2", *mode,
                           "--resolution", "8,4,8", "--expect", "1",
                           "--tol", "1e6")
        assert code == EXIT_PASS and report["passed"] is True
        assert report["payload"]["tolerance"] == 1e6

    def test_minimal_resolution_runs(self, tmp_path):
        code, report = run(tmp_path, "norms", "--field", "r^-1", "--weak-l3",
                           "--resolution", "2,2,4", "--tol", "1")
        assert code == EXIT_PASS
        assert report["payload"]["n_samples"] == 2 * 2 * 4


class TestBadFiles:
    GRID_HEADER = "x,y,z,ux,uy,uz,p\n"

    def grid_rows(self):
        return "".join(f"{x},{y},{z},1,0,0,0\n" for x in (-1, 1)
                       for y in (-1, 1) for z in (-1, 1))

    @pytest.mark.parametrize("content, message", [
        ("", "expected header"),
        ("a,b,c\n1,2,3\n", "expected header"),
        (GRID_HEADER, "holds no samples"),
        (GRID_HEADER + "\n\n", "holds no samples"),
        (GRID_HEADER + "0,0,0,1,abc,0,0\n", "abc"),
        (GRID_HEADER + "0,0,0,1,0,0\n", "columns"),
        (GRID_HEADER + "0,0,0,1,0,0,0\n0,0,0,1,0,0\n", "grid file"),
        (GRID_HEADER + "0,0,0,1,0,0,0\n1,1,1,1,0,0,0\n",
         "not a complete rectilinear grid"),
        (b"\xff\xfe\x00\x01", "can't decode"),
    ])
    def test_bad_grid_file_is_config_error(self, tmp_path, capsys, content,
                                           message):
        grid = tmp_path / "field.csv"
        grid.write_bytes(content if isinstance(content, bytes)
                         else content.encode())
        code, report = run(tmp_path, "flux", "--field", f"grid:{grid}",
                           "--radii", "0.5")
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and report is None
        assert str(grid) in err and message in err

    def test_grid_file_with_crlf_and_blank_line_loads(self, tmp_path):
        grid = tmp_path / "field.csv"
        grid.write_bytes((self.GRID_HEADER + self.grid_rows() + "\n")
                         .replace("\n", "\r\n").encode())
        code, report = run(tmp_path, "flux", "--field", f"grid:{grid}",
                           "--radii", "0.5", "--n-theta", "4", "--tol", "1")
        assert code == EXIT_PASS
        assert report["payload"]["force_per_radius"][0] == pytest.approx(
            [0.0, 0.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("filler", ["   \n", "  # note\n", "\t#\n",
                                        " \t \r\n"],
                             ids=["blanks", "indented-comment", "tab-comment",
                                  "blanks-crlf"])
    def test_blank_and_comment_lines_are_skipped(self, tmp_path, filler):
        # a line of blanks, or of blanks before a #, anywhere after the
        # grid header and anywhere in a points file
        rows = self.grid_rows().splitlines(keepends=True)
        grid = tmp_path / "field.csv"
        grid.write_text(self.GRID_HEADER + filler + "".join(rows[:3])
                        + filler + "".join(rows[3:]) + filler)
        code, report = run(tmp_path, "flux", "--field", f"grid:{grid}",
                           "--radii", "0.5", "--n-theta", "4", "--tol", "1")
        assert code == EXIT_PASS
        assert report["payload"]["force_per_radius"][0] == pytest.approx(
            [0.0, 0.0, 0.0], abs=1e-9)
        pts = tmp_path / "pts.csv"
        pts.write_text(filler + "x,y,z\n" + filler + "0.5,0.5,0.5\n" + filler
                       + "0,0,1\n")
        code, report = run(tmp_path, "landau", "--A", "2",
                           "--points-file", str(pts))
        assert code == EXIT_PASS
        assert [p["x"] for p in report["payload"]["points"]] == [
            [0.5, 0.5, 0.5], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("content", ["x,y,z\n0.5,0.5\n",
                                         "x,y,z\n0,0,1\n0.5,zz,1\n",
                                         "x,y,z\n0,0,1\n0,0,0\n",
                                         "x,y,z\n0,0,1\n1,inf,0\n",
                                         "x,y,z\n0,0,1\n1e-320,0,0\n",
                                         "x,y,z\n1e308,1e308,0\n",
                                         "x,y,z\n",
                                         b"x,y,z\n0,0,1\n\xff\xfe\n"])
    def test_bad_points_file_is_config_error(self, tmp_path, capsys, content):
        pts = tmp_path / "pts.csv"
        pts.write_bytes(content if isinstance(content, bytes)
                        else content.encode())
        code, report = run(tmp_path, "landau", "--A", "2",
                           "--points-file", str(pts))
        assert code == EXIT_CONFIG and report is None
        assert str(pts) in capsys.readouterr().err

    @pytest.mark.parametrize("xs, ux, argv", [
        ((-1, "inf"), 1, ["norms", "--weak-l3", "--domain", "ball:1"]),
        ((-1, "inf"), 1, ["flux", "--radii", "1"]),
        ((-1, 1), "nan", ["verify", "selfsim", "--lambda", "0.5"]),
        ((-1, 1), "nan", ["norms", "--weak-l3"]),
    ])
    def test_grid_file_with_a_non_finite_value_is_config_error(
            self, tmp_path, capsys, xs, ux, argv):
        grid = tmp_path / "field.csv"
        grid.write_text(self.GRID_HEADER + "".join(
            f"{x},{y},{z},{ux},0,0,0\n" for x in xs for y in (-1, 1)
            for z in (-1, 1)))
        code, report = run(tmp_path, *argv, "--field", f"grid:{grid}")
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and report is None
        assert f"grid file {grid} holds a non-finite value" in err

    def test_grid_file_with_a_repeated_node_is_config_error(self, tmp_path,
                                                           capsys):
        # each axis keeps its 4 values and there are 4^3 rows, but the node
        # (0.5, 0.5, 0.5) is missing and (0.5, 0.5, -0.5) listed twice
        axis = [-1.5, -0.5, 0.5, 1.5]
        nodes = [(x, y, z) for x in axis for y in axis for z in axis]
        nodes[nodes.index((0.5, 0.5, 0.5))] = (0.5, 0.5, -0.5)
        grid = tmp_path / "field.csv"
        grid.write_text(self.GRID_HEADER + "".join(
            f"{x},{y},{z},1,0,0,{x + 10 * y + 100 * z}\n" for x, y, z in nodes))
        code, report = run(tmp_path, "norms", "--field", f"grid:{grid}",
                           "--lorentz", "3,2", "--domain", "ball:1")
        assert code == EXIT_CONFIG and report is None
        assert "not a complete rectilinear grid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["landau", "--A", "2", "--point", "0,0,1", "--output", "a\0b"],
         "--output"),
        (["landau", "--A", "2", "--point", "0,0,1", "--csv", "a\0b"], "--csv"),
        (["landau", "--A", "2", "--points-file", "a\0b"], "--points-file"),
        (["flux", "--field", "landau:A=2", "--radii", "1", "--csv", "a\0b"],
         "--csv"),
        (["picard", "--grid", "16", "--amp", "0", "--csv", "a\0b"], "--csv"),
        (["flux", "--field", "grid:a\0b", "--radii", "1"], "--field"),
    ])
    def test_path_with_a_null_byte_is_config_error(self, capsys, argv, flag):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and "null byte" in err and "\0" not in err

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        code = main(["landau", "--A", "2", "--point", "0,0,1",
                     "--output", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


@pytest.fixture
def parses(monkeypatch):
    """The list that each np.loadtxt call appends to, from now on, with the
    CLI's parse memo empty."""
    monkeypatch.setattr(cli, "_PARSED", {})
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


class TestParseMemo:
    """A grid file and a --points-file are parsed once per content: each
    reader keeps its last result under the sha256 of the text it parsed."""

    def write_grid(self, path, ux=1):
        path.write_text(TestBadFiles.GRID_HEADER + "".join(
            f"{x},{y},{z},{ux},0,0,0\n" for x in (-1, 1) for y in (-1, 1)
            for z in (-1, 1)))
        return f"grid:{path}"

    WEAK_L3 = ["--weak-l3", "--domain", "ball:0.5", "--resolution", "4,2,4"]

    def test_a_rewrite_of_the_same_size_and_mtime_is_read(self, tmp_path,
                                                          parses):
        pts, grid = tmp_path / "pts.csv", tmp_path / "grid.csv"
        points, values = [], []
        for z, ux in ((1, 1), (3, 2)):
            pts.write_text(f"x,y,z\n0,0,{z}\n")
            spec = self.write_grid(grid, ux)
            if z == 1:
                stats = [path.stat() for path in (pts, grid)]
            else:   # the same size, and the mtime put back
                for path, stat in zip((pts, grid), stats):
                    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
                    assert path.stat().st_size == stat.st_size
                    assert path.stat().st_mtime_ns == stat.st_mtime_ns
            code, report = run(tmp_path, "landau", "--A", "2",
                               "--points-file", str(pts))
            assert code == EXIT_PASS
            points.append(report["payload"]["points"][0]["x"])
            code, report = run(tmp_path, "norms", "--field", spec,
                               *self.WEAK_L3)
            assert code == EXIT_PASS
            values.append(report["payload"]["value"])
        assert points == [[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]]
        assert values[1] == 2.0 * values[0] > 0.0
        assert len(parses) == 4

    def test_the_same_content_at_a_second_path_is_parsed_once(self, tmp_path,
                                                              parses):
        reports = []
        for name in ("a.csv", "b.csv"):
            pts = tmp_path / name
            pts.write_text("x,y,z\n0,0,1\n0.5,-0.25,2\n")
            code, report = run(tmp_path, "landau", "--A", "2",
                               "--points-file", str(pts))
            assert code == EXIT_PASS
            reports.append(report["payload"])
        assert reports[0] == reports[1] and len(parses) == 1

    def test_flux_norms_and_parse_field_spec_share_one_parse(self, tmp_path,
                                                             parses):
        spec = self.write_grid(tmp_path / "grid.csv")
        assert run(tmp_path, "flux", "--field", spec, "--radii", "0.5",
                   "--n-theta", "4", "--tol", "1")[0] == EXIT_PASS
        assert run(tmp_path, "norms", "--field", spec,
                   *self.WEAK_L3)[0] == EXIT_PASS
        kind, probe = cli.parse_field_spec(spec)
        assert kind == "grid" and np.array_equal(
            probe.velocity(np.zeros((1, 3))), [[1.0, 0.0, 0.0]])
        assert len(parses) == 1

    def test_a_bad_file_after_a_good_one_names_the_file(self, tmp_path,
                                                        capsys, parses):
        grid, pts = tmp_path / "grid.csv", tmp_path / "pts.csv"
        spec = self.write_grid(grid)
        pts.write_text("x,y,z\n0,0,1\n")
        assert run(tmp_path, "flux", "--field", spec, "--radii", "0.5",
                   "--n-theta", "4", "--tol", "1")[0] == EXIT_PASS
        assert run(tmp_path, "landau", "--A", "2",
                   "--points-file", str(pts))[0] == EXIT_PASS
        capsys.readouterr()
        for bad in (grid, tmp_path / "other.csv"):
            bad.write_text(TestBadFiles.GRID_HEADER + "0,0,0,1,abc,0,0\n")
            code, report = run(tmp_path, "flux", "--field", f"grid:{bad}",
                               "--radii", "0.5", name="bad.json")
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG and report is None
            assert f"grid file {bad}" in err and "abc" in err
        pts.write_text("x,y,z\n0,0,1\n0.5,zz,1\n")
        code, report = run(tmp_path, "landau", "--A", "2",
                           "--points-file", str(pts), name="bad.json")
        assert code == EXIT_CONFIG and report is None
        assert f"points file {pts}" in capsys.readouterr().err

    def test_a_file_rewritten_before_its_parse_is_kept_as_parsed(
            self, tmp_path, monkeypatch, parses):
        pts = tmp_path / "pts.csv"
        old, new = "x,y,z\n0,0,1\n", "x,y,z\n0,0,3\n"
        pts.write_text(old)
        opened = []

        def open_rewriting(path, *args, **kwargs):
            # the lookup reads the old text; the parse, the second open,
            # finds the new
            opened.append(path)
            if len(opened) == 2:
                pathlib.Path(path).write_text(new)
            return open(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "open", open_rewriting, raising=False)
            assert cli._read_points_file(str(pts)).tolist() == [[0, 0, 3]]
        assert len(opened) == 2
        assert cli._PARSED[cli._points][0] == hashlib.sha256(
            new.encode()).digest()
        # the new text is found, and the old one is parsed again
        assert cli._read_points_file(str(pts)).tolist() == [[0, 0, 3]]
        assert len(parses) == 1
        pts.write_text(old)
        assert cli._read_points_file(str(pts)).tolist() == [[0, 0, 1]]
        assert len(parses) == 2

    def test_a_points_file_found_gives_the_same_report_bytes(self, tmp_path,
                                                             parses):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z\n" + "".join(
            ",".join(map(repr, row)) + "\n"
            for row in np.random.default_rng(5).normal(size=(600, 3)).tolist()))
        texts = []
        for name in ("first", "second"):
            out, rows = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            assert main(["landau", "--beta", "2.5", "--points-file", str(pts),
                         "--csv", str(rows), "--output", str(out)]) == EXIT_PASS
            texts.append((rows.read_bytes(), [
                line for line in out.read_text().splitlines()
                if '"duration_s"' not in line and '"csv"' not in line
                and '"output"' not in line]))
        assert texts[0] == texts[1] and len(parses) == 1
        points = cli._read_points_file(str(pts))
        assert not points.flags.writeable
        with pytest.raises(ValueError):
            points[0, 0] = 1.0


def child_env():
    """os.environ with this checkout's src first on PYTHONPATH."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class TestClosedStdout:
    """A reader that closed stdout before the report is written ends the run
    without a stderr line and with the command's own exit code."""

    @staticmethod
    def run_into_a_closed_pipe(argv):
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                [sys.executable, "-m", "pointflow.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env=child_env(), text=True,
                timeout=120)
        finally:
            os.close(write)

    @pytest.mark.parametrize("argv, code", [
        (["landau", "--A", "2", "--point", "0,0,1"], EXIT_PASS),
        (["flux", "--field", "landau:A=2", "--radii", "1", "--n-theta", "4",
          "--tol", "1e-300"], EXIT_FAIL),
    ])
    def test_report_to_stdout(self, argv, code):
        result = self.run_into_a_closed_pipe(argv)
        assert (result.returncode, result.stderr) == (code, "")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                        reason="needs /dev/stdout")
    def test_an_output_file_that_is_the_pipe_is_config_error(self):
        # --output names a file the run opens, here the same closed pipe
        result = self.run_into_a_closed_pipe(
            ["landau", "--A", "2", "--point", "0,0,1",
             "--output", "/dev/stdout"])
        assert result.returncode == EXIT_CONFIG
        assert result.stderr == "configuration error: [Errno 32] Broken pipe\n"


class TestOutputRewrite:
    """Outputs are rewritten in place: no truncation on open, no stale tail."""

    ARGV = ["landau", "--A", "2", "--point", "0,0,1"]
    # a run of each command that writes a --csv
    CSV_ARGV = {
        "landau": ARGV,
        "flux": ["flux", "--field", "landau:A=2", "--radii", "1,2"],
        "picard": ["picard", "--grid", "16", "--amp", "0"],
    }

    def fresh_report(self, tmp_path):
        path = tmp_path / "fresh.json"
        assert main(self.ARGV + ["--output", str(path)]) == EXIT_PASS
        return json.loads(path.read_text())

    def test_shorter_rewrite_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("x" * 100_000)
        assert main(self.ARGV + ["--output", str(path)]) == EXIT_PASS
        text = path.read_text()
        assert text.endswith("}\n") and "x" * 10 not in text
        report = json.loads(text)
        assert report["payload"] == self.fresh_report(tmp_path)["payload"]

    def test_csv_outputs_rewrite_shorter(self, tmp_path):
        points, radii = tmp_path / "points.csv", tmp_path / "radii.csv"
        for path in (points, radii):
            path.write_text("9" * 50_000 + "\n")
        assert main(self.ARGV + ["--csv", str(points), "--output",
                                 str(tmp_path / "a.json")]) == EXIT_PASS
        assert main(["flux", "--field", "landau:A=2", "--radii", "1",
                     "--csv", str(radii), "--output",
                     str(tmp_path / "b.json")]) == EXIT_PASS
        assert len(points.read_text().splitlines()) == 2
        assert len(radii.read_text().splitlines()) == 2

    def test_links_and_mode_are_kept(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old contents that are longer than nothing\n" * 100)
        target.chmod(0o640)
        symlink, hardlink = tmp_path / "sym.json", tmp_path / "hard.json"
        symlink.symlink_to(target)
        hardlink.hardlink_to(target)
        inode = target.stat().st_ino
        assert main(self.ARGV + ["--output", str(symlink)]) == EXIT_PASS
        assert symlink.is_symlink()
        assert target.stat().st_ino == hardlink.stat().st_ino == inode
        assert target.stat().st_mode & 0o777 == 0o640
        fresh = self.fresh_report(tmp_path)["payload"]
        assert json.loads(hardlink.read_text())["payload"] == fresh
        assert main(self.ARGV + ["--output", str(hardlink)]) == EXIT_PASS
        assert json.loads(target.read_text())["payload"] == fresh

    def test_dev_null_output(self):
        assert main(self.ARGV + ["--output", "/dev/null"]) == EXIT_PASS

    def test_dev_null_csv_and_output(self):
        assert main(self.ARGV + ["--csv", "/dev/null",
                                 "--output", "/dev/null"]) == EXIT_PASS

    @pytest.mark.parametrize("command", CSV_ARGV)
    def test_unopenable_csv_leaves_the_report_untouched(self, tmp_path,
                                                        capsys, command):
        out, rows = tmp_path / "r.json", tmp_path / "missing" / "u.csv"
        out.write_text("old report\n")
        code = main(self.CSV_ARGV[command] + ["--csv", str(rows),
                                              "--output", str(out)])
        assert code == EXIT_CONFIG
        assert str(rows) in capsys.readouterr().err
        assert out.read_text() == "old report\n"

    @pytest.mark.parametrize("command", CSV_ARGV)
    def test_unopenable_output_cuts_the_csv(self, tmp_path, capsys, command):
        rows, out = tmp_path / "u.csv", tmp_path / "missing" / "r.json"
        rows.write_text("old rows\n")
        code = main(self.CSV_ARGV[command] + ["--csv", str(rows),
                                              "--output", str(out)])
        assert code == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err
        assert rows.read_text() == ""

    @pytest.mark.parametrize("command", CSV_ARGV)
    @pytest.mark.parametrize("how", ["same path", "new file", "hard link"])
    def test_csv_that_is_the_output_is_config_error(self, tmp_path, capsys,
                                                    how, command):
        out = rows = tmp_path / "r.json"
        if how != "new file":
            out.write_text("old report\n")
        if how == "hard link":
            rows = tmp_path / "u.csv"
            rows.hardlink_to(out)
        code = main(self.CSV_ARGV[command] + ["--csv", str(rows),
                                              "--output", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: --csv {rows} is the same file as "
            f"--output {out}\n")
        assert out.read_text() == ""

    def test_exception_mid_write_leaves_no_stale_tail(self, tmp_path):
        from pointflow.cli import _rewrite
        path = tmp_path / "partial.txt"
        path.write_text("stale " * 1000)
        with pytest.raises(RuntimeError):
            with _rewrite(path) as fh:
                fh.write("new")
                raise RuntimeError("interrupted")
        assert path.read_text() == "new"


class TestRangeEdges:
    @pytest.mark.parametrize("argv", [
        ["flux", "--field", "landau:A=2", "--radii", "1e-49,1e49", "--tol", "1"],
        ["verify", "ns", "--field", "landau:A=2", "--rmin", "1e-49",
         "--rmax", "1e49"],
        ["verify", "selfsim", "--field", "landau:A=2", "--lambda", "1e-49"],
        ["norms", "--field", "landau:A=2", "--decay", "--ref", "A=2",
         "--shells", "1e-49,1"],
        ["norms", "--field", "r^-2", "--lorentz", "3,64"],
        ["norms", "--field", "r^-1", "--lorentz", "3,inf"],
        ["landau", "--A", "1e8", "--point", "0,0,1"],
        ["landau", "--beta", repr(BETA_MIN), "--point", "0,0,1"],
        ["landau", "--beta", repr(BETA_MAX), "--point", "0,0,1"],
        ["landau", "--A", "2", "--axis", "1e-49,0,0", "--point", "0,0,1"],
        ["landau", "--A", "2", "--axis", "1e49,1e49,0", "--point", "0,0,1"],
        ["flux", "--field", "landau:A=1e8", "--radii", "1", "--tol", "1"],
        ["norms", "--sweep-beta", f"{BETA_MIN!r}:1:3"],
        ["verify", "weak", "--field", "landau:A=2", "--center", "1e49,0,0"],
        # on a non-unit axis
        ["landau", "--beta", "5.026548245743665e-07", "--axis=1,2,3",
         "--point", "0,0,1"],
        ["landau", "--beta", "3.7", "--axis=0.48,-0.6,0.64", "--point",
         "0,0,1"],
    ])
    def test_values_inside_the_ranges_run(self, tmp_path, argv):
        code, report = run(tmp_path, *argv)
        assert code in (EXIT_PASS, EXIT_FAIL) and report is not None
        if argv[:2] == ["landau", "--beta"]:
            # a landau export keeps its --beta as given
            assert code == EXIT_PASS
            assert report["payload"]["beta"] == float(argv[2])


def subparsers(parser):
    """(path, parser) of parser and of every subcommand below it."""
    yield (), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                for path, p in subparsers(child):
                    yield (name, *path), p


def flag_type(*path):
    """The argparse type of option path[-1] of subcommand path[:-1]."""
    parsers = dict(subparsers(build_parser()))
    return next(a.type for a in parsers[path[:-1]]._actions
                if path[-1] in a.option_strings)


class TestFlagContract:
    """Each flag's value is checked once, by its argparse type."""

    # a field spec, checked when it is parsed
    UNTYPED = {"--field", "--ref"}

    def test_every_value_flag_has_a_type(self):
        untyped = {(path, a.option_strings[0])
                   for path, p in subparsers(build_parser())
                   for a in p._actions
                   if a.option_strings and a.nargs != 0 and a.type is None}
        assert {flag for _, flag in untyped} <= self.UNTYPED

    @pytest.mark.parametrize("argv, named", [
        (["landau", "--point", "0,0,1"], "--A --beta"),
        (["norms", "--field", "r^-1"],
         "--weak-l3 --lorentz --decay --sweep-beta"),
    ])
    def test_neither_member_is_config_error(self, tmp_path, capsys, argv,
                                            named):
        code, report = run(tmp_path, *argv)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["landau", "--beta", "-1", "--point", "0,0,1"], "--beta"),
        (["flux", "--field", "landau:beta=-1", "--radii", "1"], "--field"),
        (["norms", "--field", "landau:A=2", "--decay", "--ref", "beta=-1"],
         "--ref"),
        # outside [beta(A_MAX), beta_max], the range A_from_beta inverts
        (["landau", "--beta", "1e-9", "--point", "0,0,1"], "--beta"),
        (["landau", "--beta", "1e300", "--point", "0,0,1"], "--beta"),
        # far below beta(A_MAX), and not 0, so not the zero solution either
        (["flux", "--field", "landau:beta=1e-320", "--radii", "1"], "--field"),
        (["verify", "weak", "--field", "landau:beta=1e-200"], "--field"),
        (["norms", "--field", "landau:A=2", "--decay", "--ref", "beta=1e-300"],
         "--ref"),
        # above beta_max, where the library's A_from_beta overflows
        (["flux", "--field", "landau:beta=1e300", "--radii", "1"], "--field"),
        (["flux", "--field", "landau:beta=inf", "--radii", "1"], "--field"),
        (["norms", "--field", "landau:A=2", "--decay", "--ref", "beta=inf"],
         "--ref"),
    ])
    def test_negative_magnitude_is_config_error(self, tmp_path, capsys, argv,
                                                named):
        code, report = run(tmp_path, *argv)
        assert code == EXIT_CONFIG and report is None
        assert named in capsys.readouterr().err

    def test_a_spec_error_has_one_prefix_per_guard(self, tmp_path, capsys):
        with pytest.raises(argparse.ArgumentTypeError) as rule:
            flag_type("landau", "--A")("0.5")
        code, report = run(tmp_path, "norms", "--field", "landau:A=2",
                           "--decay", "--ref", "A=0.5")
        assert code == EXIT_CONFIG and report is None
        assert capsys.readouterr().err == (
            "configuration error: --ref: bad landau spec 'landau:A=0.5': "
            f"{rule.value}\n")

    @pytest.mark.parametrize("argv", [
        ["flux", "--field", "r^-1", "--radii", "1"],
        ["verify", "weak", "--field", "r^-2"],
        ["verify", "ns", "--field", "r^-1"],
        ["verify", "selfsim", "--field", "r^-1", "--lambda", "0.5"],
        ["norms", "--field", "r^-1", "--decay", "--ref", "A=2"],
    ])
    def test_a_spec_of_another_kind_names_field(self, tmp_path, capsys,
                                                argv):
        code, report = run(tmp_path, *argv)
        assert code == EXIT_CONFIG and report is None
        assert capsys.readouterr().err.startswith(
            "configuration error: --field: ")

    # the type is called, never run: a run at the cap takes gigabytes
    @pytest.mark.parametrize("path, inside, outside", [
        (("norms", "--resolution"), "2,2,1048576", "2,2,1048577"),
        (("verify", "ns", "--samples"), "4194304", "4194305"),
        (("verify", "selfsim", "--samples"), "4194304", "4194305"),
        (("flux", "--n-theta"), "1448", "1449"),
        (("picard", "--grid"), "128", "256"),
        (("norms", "--sweep-beta"), "1:2:4194304", "1:2:4194305"),
    ])
    def test_counts_at_the_cap(self, path, inside, outside):
        assert _MAX_NODES == 4194304
        check = flag_type(*path)
        check(inside)
        with pytest.raises(argparse.ArgumentTypeError):
            check(outside)


def flag_default(*path):
    """The default of option path[-1] of subcommand path[:-1], as parsed."""
    action = next(a for a in dict(subparsers(build_parser()))[path[:-1]]._actions
                  if path[-1] in a.option_strings)
    default = action.default
    return action.type(default) if isinstance(default, str) else default


class TestLibraryDefaults:
    """A CLI default that restates a library default equals it."""

    LIBRARY_DEFAULTS = [
        (("flux", "--n-theta"), flux_integral, "n_theta"),
        (("verify", "weak", "--center"), extract_force_weak, "center"),
        (("verify", "weak", "--a"), extract_force_weak, "a"),
        (("verify", "weak", "--b"), extract_force_weak, "b"),
        (("verify", "weak", "--n-r"), extract_force_weak, "n_r"),
        (("verify", "weak", "--n-theta"), extract_force_weak, "n_theta"),
        (("picard", "--r"), run_contraction, "r"),
        (("picard", "--iters"), run_contraction, "max_iters"),
        (("picard", "--tol"), run_contraction, "tol"),
        (("picard", "--delta-in"), make_mollified_drift, "delta_in"),
        (("picard", "--delta-out"), make_mollified_drift, "delta_out"),
    ]

    @pytest.mark.parametrize("path, function, parameter", LIBRARY_DEFAULTS,
                             ids=[" ".join(c[0]) for c in LIBRARY_DEFAULTS])
    def test_flag_default_is_the_library_default(self, path, function,
                                                 parameter):
        value = flag_default(*path)
        if isinstance(value, str):
            # a number list keeps its text
            value = [float(v) for v in value.split(",")]
        default = inspect.signature(function).parameters[parameter].default
        assert np.array_equal(value, default)

    def test_resolution_is_the_ball_samples_default(self):
        n_r, n_theta, n_phi = (int(v) for v in
                               flag_default("norms", "--resolution").split(","))
        library = inspect.signature(ball_samples).parameters
        assert n_r == library["n_r"].default
        assert n_theta == library["n_theta"].default
        # n_phi None stands for the sphere rule's 2 n_theta
        assert library["n_phi"].default is None and n_phi == 2 * n_theta


def test_cli_import_leaves_out_scipy_optimize():
    # brentq is imported where A_from_beta needs it, so a command that
    # never turns a magnitude into A starts without scipy.optimize
    result = subprocess.run(
        [sys.executable, "-c", "import sys, pointflow.cli; "
         "print('scipy.optimize' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"


def test_main_alone_maps_failures_to_exit_codes():
    # a bare except or a handler of Exception or BaseException would catch
    # failures that main maps to exit codes; src/pointflow names what it
    # catches
    broad = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            kinds = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            if any(kind is None or getattr(kind, "id", getattr(
                    kind, "attr", None)) in ("Exception", "BaseException")
                   for kind in kinds):
                broad.append(f"{path.name}:{node.lineno}")
    assert broad == []


def readme_command_lines():
    """The pointflow lines of README's "Command line" code block."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines()
            if line.startswith("pointflow ")]


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(tmp_path, monkeypatch, line):
    # a CSV the line names is written in the temporary working directory
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    assert main(argv + ["--output", str(tmp_path / "report.json")]) \
        == EXIT_PASS
