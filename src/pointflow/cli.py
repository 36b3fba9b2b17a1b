"""Command-line interface: batch verifications with JSON/CSV reports.

Subcommands expose the library operations for reproducible runs:

    landau   evaluate a Landau solution (velocity, pressure, gradient,
             momentum tensor) at points
    flux     momentum-flux force extraction over one or more sphere radii
    verify   weak (distributional pairing), ns (pointwise residual) and
             selfsim (discrete self-similarity) checks
    picard   contraction run of the perturbed Stokes iteration
    norms    Lorentz/weak-L3 quasinorms, the decay diagnostic and the
             sup-speed monotonicity sweep

Every run emits a schema-versioned JSON report that echoes its full
configuration (including the seed) and carries pass/fail flags that are
recomputable from the payload alone.  Identical configurations produce
byte-identical payloads; only the wall-clock duration field varies.

Exit codes: 0 pass, 1 tolerance failure, 2 configuration error,
3 numerical failure, 4 out-of-regime (Picard divergence detector).
"""

import argparse
import csv
import io
import json
import re
import sys
import time

import numpy as np

from .landau import (LandauField, LandauParams, CallableField, RescaledField,
                     as_flow_field, flux_tensor, landau_eval, ns_residual,
                     sup_speed_on_unit_sphere)
from .quadrature import (ball_samples, decay_report, flux_integral,
                         lorentz_quasinorm)
from .spectral import (BOX, ContractionDivergedError, make_forcing,
                       make_mollified_drift, run_contraction)
from .weakform import extract_force_weak, make_test_function

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUT_OF_REGIME = 4

WEAK_L3_R_INV = float((4.0 * np.pi / 3.0)**(1.0 / 3.0))

POINT_CSV_COLUMNS = ["x", "y", "z", "ux", "uy", "uz", "p"]
TRACE_CSV_COLUMNS = ["iter", "increment", "ratio"]

# a landau point table is rendered this many points at a time
EMIT_CHUNK = 2048
# json.dumps renders the marker string "\0<k>" as "\u0000<k>"
_MARKER = re.compile(r'"\\u0000(\d+)"')
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class ConfigError(Exception):
    """Invalid combination or value of command-line parameters."""


def _require(condition, message):
    """Raise ConfigError(message) unless condition holds (NaN fails)."""
    if not condition:
        raise ConfigError(message)


def _parse_vec3(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected 'x,y,z', got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad coordinate in {text!r}: {exc}") from None


def _parse_floats(text, flag):
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag}: bad number list {text!r}: {exc}") from None


def parse_field_spec(spec):
    """Resolve a field spec string to a probe.

    Supported: 'landau:A=<v>', 'landau:beta=<v>', 'zero', 'r^-1' (scalar,
    norms only) and 'grid:<file.csv>' (uniform rectilinear samples with
    columns x,y,z,ux,uy,uz,p, interpolated trilinearly).
    Returns (kind, payload) with kind in {'landau', 'scalar', 'grid'}.
    """
    if spec == "zero":
        return "landau", LandauParams.zero()
    if spec in ("r^-1", "r^-2"):
        power = -1 if spec == "r^-1" else -2
        return "scalar", (lambda pts: np.linalg.norm(pts, axis=-1)**power)
    if spec.startswith("landau:"):
        body = spec[len("landau:"):]
        if "=" not in body:
            raise ConfigError(f"bad landau spec {spec!r}: expected key=value")
        key, _, value = body.partition("=")
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"bad landau parameter value in {spec!r}") from None
        try:
            if key == "A":
                return "landau", LandauParams.from_shape(value)
            if key == "beta":
                return "landau", LandauParams.from_magnitude(value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        raise ConfigError(f"unknown landau parameter {key!r} (use A or beta)")
    if spec.startswith("grid:"):
        return "grid", _load_grid_field(spec[len("grid:"):])
    raise ConfigError(f"unrecognized field spec {spec!r}")


def _load_grid_field(path):
    """Trilinear probe from a CSV of samples on a rectilinear grid.

    One interpolator runs over the stacked (ux, uy, uz, p) samples; its
    columns are bitwise equal to four per-component interpolators, since
    linear interpolation weighs every trailing component alike.
    """
    from scipy.interpolate import RegularGridInterpolator

    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if [h.strip() for h in header] != POINT_CSV_COLUMNS:
            raise ConfigError(
                f"grid file {path}: expected header {','.join(POINT_CSV_COLUMNS)}")
        body = fh.read()
    if not body.strip():
        raise ConfigError(f"grid file {path} holds no samples")
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", quotechar='"',
                          ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"grid file {path}: {exc}") from None
    if rows.shape[1] != len(POINT_CSV_COLUMNS):
        raise ConfigError(f"grid file {path}: expected "
                          f"{len(POINT_CSV_COLUMNS)} columns per row")
    xs, ys, zs = (np.unique(rows[:, i]) for i in range(3))
    if len(xs) * len(ys) * len(zs) != len(rows):
        raise ConfigError(f"grid file {path} is not a complete rectilinear grid")
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    data = rows[order, 3:].reshape(len(xs), len(ys), len(zs), 4)
    interp = RegularGridInterpolator((xs, ys, zs), data)
    return CallableField(velocity=lambda pts: interp(pts)[..., :3],
                         pressure=lambda pts: interp(pts)[..., 3])


def _report(command, config, payload, passed):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
        "passed": passed,
    }


def _point_dict(row):
    """One landau point of a report from its 25 numbers; see PointTable."""
    return {"x": row[0:3], "u": row[3:6], "p": row[6],
            "grad_u": [row[7:10], row[10:13], row[13:16]],
            "T": [row[16:19], row[19:22], row[22:25]]}


class PointTable:
    """The points block of a landau report, kept as one (n, 25) array.

    Row k holds x, u, p, grad_u and T of point k flattened in that order,
    so its first 7 columns are the --csv columns.  _emit writes it out as
    the list of {"x", "u", "p", "grad_u", "T"} objects without building
    them; dicts() builds them.  Numbers are written as float.__repr__
    strings; the strings of the columns written to --csv are kept, and the
    JSON report reuses them.
    """

    def __init__(self, points, state, tensors):
        n = len(points)
        self.values = np.concatenate(
            [points, state.u, np.reshape(state.p, (n, 1)),
             state.grad_u.reshape(n, 9), tensors.reshape(n, 9)], axis=1)
        self._kept = {}

    def dicts(self):
        return [_point_dict(row) for row in self.values.tolist()]

    def column_text(self, k, start=0, stop=None):
        """float.__repr__ of column k, rows start:stop."""
        if k in self._kept:
            return self._kept[k][start:stop]
        return list(map(float.__repr__, self.values[start:stop, k].tolist()))

    def keep_text(self, columns):
        for k in columns:
            self._kept[k] = self.column_text(k)


def _json_chunks(report):
    """json.dumps(report, indent=2, sort_keys=True), as strings to concatenate.

    A PointTable in payload["points"] is written without per-point dicts.
    json.dumps of the report with two marker points (each number replaced
    by the marker string "\\0<column>") splits at the markers into the text
    before the points, one point's layout around its 25 numbers, the text
    between two points and the text after them.  The numbers, formatted as
    json formats floats, fill that layout point by point.
    """
    payload = report.get("payload")
    table = payload.get("points") if isinstance(payload, dict) else None
    if not isinstance(table, PointTable):
        yield json.dumps(report, indent=2, sort_keys=True)
        return

    def dumps(points):
        return json.dumps(dict(report, payload=dict(payload, points=points)),
                          indent=2, sort_keys=True)

    width = table.values.shape[1]
    marker_point = _point_dict([f"\0{k}" for k in range(width)])
    pieces = _MARKER.split(dumps([marker_point, marker_point]))
    texts, columns = pieces[0::2], [int(k) for k in pieces[1::2]]
    if len(columns) != 2 * width or len(table.values) == 0:
        # no points, or another string of the report reads like a marker
        yield dumps(table.dicts())
        return
    between = texts[width]
    layout = "%s" + "".join(t.replace("%", "%%") + "%s" for t in texts[1:width])
    yield texts[0]
    for start in range(0, len(table.values), EMIT_CHUNK):
        stop = start + EMIT_CHUNK
        text = [table.column_text(k, start, stop) for k in columns[:width]]
        if not np.all(np.isfinite(table.values[start:stop])):
            text = [[_JSON_NONFINITE.get(v, v) for v in col] for col in text]
        if start:
            yield between
        yield between.join(layout % row for row in zip(*text))
    yield texts[2 * width]


def _emit(report, output, duration):
    report = dict(report)
    report["duration_s"] = duration
    if output:
        with open(output, "w") as fh:
            fh.writelines(_json_chunks(report))
            fh.write("\n")
    else:
        sys.stdout.writelines(_json_chunks(report))
        sys.stdout.write("\n")


def _write_point_csv(path, table):
    """The x,y,z,ux,uy,uz,p rows, as csv.writer writes repr() strings."""
    columns = range(len(POINT_CSV_COLUMNS))
    table.keep_text(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(POINT_CSV_COLUMNS) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in
                      zip(*(table.column_text(k) for k in columns)))


def _write_trace_csv(path, increments, ratios):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_CSV_COLUMNS)
        for i, inc in enumerate(increments, start=1):
            ratio = repr(float(ratios[i - 2])) if i >= 2 and i - 2 < len(ratios) else ""
            writer.writerow([i, repr(float(inc)), ratio])


def _resolve_params(args):
    """LandauParams from exactly one of --A / --beta."""
    has_a = getattr(args, "A", None) is not None
    has_b = getattr(args, "beta", None) is not None
    if has_a == has_b:
        raise ConfigError("specify exactly one of --A or --beta")
    axis = _parse_vec3(args.axis) if getattr(args, "axis", None) else [0.0, 0.0, 1.0]
    try:
        if has_a:
            return LandauParams.from_shape(args.A, axis)
        return LandauParams.from_magnitude(args.beta, axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _landau_params_of(spec):
    kind, payload = parse_field_spec(spec)
    if kind != "landau":
        raise ConfigError(f"this check needs a landau:* field spec, got {spec!r}")
    return payload


def _read_points_file(path):
    """(n, 3) points from the x,y,z columns of a CSV; # rows are comments."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    if lines and next(csv.reader(lines[:1]))[:3] == ["x", "y", "z"]:
        lines = lines[1:]
    if not lines:
        return np.empty((0, 3))
    try:
        return np.loadtxt(lines, delimiter=",", quotechar='"', usecols=(0, 1, 2),
                          ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"points file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_landau(args):
    params = _resolve_params(args)
    if args.point:
        points = np.array([_parse_vec3(p) for p in args.point])
    elif args.points_file:
        points = _read_points_file(args.points_file)
    else:
        raise ConfigError("provide --point (repeatable) or --points-file")
    if points.size == 0:
        raise ConfigError("no evaluation points given")

    state = landau_eval(params, points)
    table = PointTable(points, state, flux_tensor(state))
    if args.csv:
        _write_point_csv(args.csv, table)
    payload = {
        "A": params.A if np.isfinite(params.A) else "inf",
        "beta": params.beta,
        "axis": params.axis.tolist(),
        "points": table,
    }
    return _report("landau", _config_echo(args), payload, None), EXIT_PASS


def cmd_flux(args):
    _require(np.isfinite(args.tol) and args.tol > 0.0,
             "--tol must be finite and > 0")
    kind, fld = parse_field_spec(args.field)
    if kind == "scalar":
        raise ConfigError("flux needs a vector field spec")
    radii = _parse_floats(args.radii, "--radii")
    if not radii or any(r <= 0.0 for r in radii):
        raise ConfigError("radii must be positive")
    _require(args.n_theta >= 2, "--n-theta must be >= 2")

    probe = LandauField(fld) if kind == "landau" else fld
    forces = [flux_integral(probe, R, n_theta=args.n_theta) for R in radii]
    magnitudes = [float(np.linalg.norm(b)) for b in forces]
    scale = max(max(magnitudes), 1e-300)
    deviation = 0.0
    for i in range(len(forces)):
        for j in range(i + 1, len(forces)):
            deviation = max(deviation,
                            float(np.linalg.norm(forces[i] - forces[j])) / scale)
    payload = {
        "radii": radii,
        "force_per_radius": [b.tolist() for b in forces],
        "max_pairwise_relative_deviation": deviation,
        "tolerance": args.tol,
    }
    if kind == "landau":
        payload["expected_force"] = fld.b.tolist()
        ref = max(fld.beta, 1e-300)
        payload["max_relative_force_error"] = max(
            float(np.linalg.norm(b - fld.b)) / ref for b in forces)
    passed = deviation <= args.tol
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radius", "bx", "by", "bz"])
            for R, b in zip(radii, forces):
                writer.writerow([repr(float(R)), *(repr(float(v)) for v in b)])
    return (_report("flux", _config_echo(args), payload, passed),
            EXIT_PASS if passed else EXIT_FAIL)


def cmd_verify(args):
    _require(np.isfinite(args.tol) and args.tol > 0.0,
             "--tol must be finite and > 0")
    if args.mode == "weak":
        params = _landau_params_of(args.field)
        center = _parse_vec3(args.center)
        if not (0.0 < args.a < args.b):
            raise ConfigError("need 0 < --a < --b")
        _require(args.n_r >= 3, "--n-r must be >= 3")
        _require(args.n_theta >= 2, "--n-theta must be >= 2")
        result = extract_force_weak(LandauField(params), center,
                                    args.a, args.b, n_r=args.n_r,
                                    n_theta=args.n_theta)
        # the pairing returns b . phi(0) for each direction, which is b_k
        # on the plateau and 0 outside the support; evaluating phi at the
        # origin covers test functions straddling it as well
        origin = np.zeros(3)
        expected = np.array([
            params.b @ make_test_function(center, args.a, args.b, e)(origin)
            for e in np.eye(3)])
        origin_inside = float(np.linalg.norm(np.asarray(center))) < args.a
        scale = max(params.beta, 1.0)
        err = float(np.linalg.norm(result.value - expected)) / scale
        payload = {
            "extracted_force": result.value.tolist(),
            "expected_force": expected.tolist(),
            "origin_in_plateau": origin_inside,
            "relative_error": err,
            "tolerance": args.tol,
        }
        passed = err <= args.tol
    elif args.mode == "ns":
        params = _landau_params_of(args.field)
        _require(args.samples >= 1, "--samples must be >= 1")
        _require(0.0 < args.rmin < args.rmax, "need 0 < --rmin < --rmax")
        _require(args.seed >= 0, "--seed must be >= 0")
        rng = np.random.default_rng(args.seed)
        radii = args.rmin + (args.rmax - args.rmin) * rng.random(args.samples)
        dirs = rng.normal(size=(args.samples, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = radii[:, None] * dirs
        res = ns_residual(params, pts)
        worst = float(np.max(radii**3 * np.linalg.norm(res, axis=1)))
        payload = {
            "samples": args.samples,
            "radius_range": [args.rmin, args.rmax],
            "max_weighted_residual": worst,
            "tolerance": args.tol,
        }
        passed = worst <= args.tol
    elif args.mode == "selfsim":
        kind, fld = parse_field_spec(args.field)
        if kind == "scalar":
            raise ConfigError("selfsim needs a vector field spec")
        probe = LandauField(fld) if kind == "landau" else fld
        if not (0.0 < args.lam < 1.0):
            raise ConfigError("--lambda must lie in (0, 1)")
        _require(args.samples >= 1, "--samples must be >= 1")
        _require(args.seed >= 0, "--seed must be >= 0")
        rng = np.random.default_rng(args.seed)
        radii = 0.25 + 1.25 * rng.random(args.samples)
        dirs = rng.normal(size=(args.samples, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = radii[:, None] * dirs
        rescaled = RescaledField(probe, args.lam)
        deviation = float(np.max(np.linalg.norm(
            rescaled.velocity(pts) - as_flow_field(probe).velocity(pts), axis=1)))
        payload = {
            "lambda": args.lam,
            "samples": args.samples,
            "max_deviation": deviation,
            "tolerance": args.tol,
        }
        passed = deviation <= args.tol
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown verify mode {args.mode!r}")
    return (_report(f"verify-{args.mode}", _config_echo(args), payload, passed),
            EXIT_PASS if passed else EXIT_FAIL)


def cmd_picard(args):
    grid = args.grid
    if grid < 16 or grid & (grid - 1) != 0:
        raise ConfigError("grid size must be a power of two >= 16")
    _require(np.isfinite(args.amp) and args.amp >= 0.0,
             "--amp must be finite and >= 0")
    _require(np.isfinite(args.tol) and args.tol > 0.0,
             "--tol must be finite and > 0")
    _require(1.0 < args.r < 3.0, "--r must lie in (1, 3)")
    _require(args.iters >= 1, "--iters must be >= 1")
    _require(0.0 < args.delta_in < args.delta_out < BOX / 2.0,
             "need 0 < --delta-in < --delta-out < 2 pi (the torus half-side)")
    _require(np.isfinite(args.drift_beta) and args.drift_beta >= 0.0,
             "--drift-beta must be finite and >= 0")
    _require(args.seed >= 0, "--seed must be >= 0")
    params = (LandauParams.from_magnitude(args.drift_beta)
              if args.drift_beta > 0.0 else LandauParams.zero())
    drift = make_mollified_drift(params, grid, args.delta_in, args.delta_out)
    forcing = make_forcing(grid, args.amp, seed=args.seed)
    trace = run_contraction(drift, forcing, r=args.r, max_iters=args.iters,
                            tol=args.tol)
    late_ratios = trace.ratios[1:]
    max_late_ratio = max(late_ratios) if late_ratios else 0.0
    passed = (trace.converged and max_late_ratio < 0.5
              and trace.uniqueness_distance <= 10.0 * args.tol)
    payload = {
        "grid": grid,
        "amplitude": args.amp,
        "drift_beta": args.drift_beta,
        "drift_projection_deviation": drift.projection_deviation,
        "exponent": args.r,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "norms": trace.norms,
        "increments": trace.increments,
        "ratios": trace.ratios,
        "max_ratio_after_first": max_late_ratio,
        "fixed_point_residual": trace.residual,
        "uniqueness_distance": trace.uniqueness_distance,
        "tolerance": args.tol,
    }
    if args.csv:
        _write_trace_csv(args.csv, trace.increments, trace.ratios)
    return (_report("picard", _config_echo(args), payload, passed),
            EXIT_PASS if passed else EXIT_FAIL)


def _sample_magnitudes(fld_kind, fld, radius, resolution):
    n_r, n_theta, n_phi = resolution
    if fld_kind == "scalar":
        f = fld
    else:
        probe = LandauField(fld) if fld_kind == "landau" else fld
        f = lambda pts: np.linalg.norm(probe.velocity(pts), axis=1)
    return ball_samples(f, radius, n_r, n_theta, n_phi)


def _parse_ball_radius(domain):
    message = f"--domain must look like ball:<radius>, got {domain!r}"
    _require(domain.startswith("ball:"), message)
    try:
        radius = float(domain[len("ball:"):])
    except ValueError:
        raise ConfigError(message) from None
    _require(np.isfinite(radius) and radius > 0.0,
             "--domain radius must be finite and > 0")
    return radius


def _parse_resolution(text):
    """(n_r, n_theta, n_phi) at or above the minima of ball_samples."""
    values = _parse_floats(text, "--resolution")
    _require(len(values) == 3 and all(np.isfinite(values)),
             "--resolution expects nr,ntheta,nphi")
    n_r, n_theta, n_phi = (int(v) for v in values)
    _require(n_r >= 2 and n_theta >= 2 and n_phi >= 4,
             "--resolution needs nr >= 2, ntheta >= 2 and nphi >= 4")
    return n_r, n_theta, n_phi


def cmd_norms(args):
    _require(np.isfinite(args.tol) and args.tol > 0.0,
             "--tol must be finite and > 0")
    _require(args.expect is None
             or (np.isfinite(args.expect) and args.expect != 0.0),
             "--expect must be finite and nonzero")
    payload = {}
    passed = None

    if args.sweep_beta:
        parts = _parse_floats(args.sweep_beta.replace(":", ","), "--sweep-beta")
        if len(parts) != 3 or parts[0] <= 0 or parts[1] <= parts[0] or parts[2] < 2:
            raise ConfigError("--sweep-beta expects start:stop:count with "
                              "0 < start < stop and count >= 2")
        betas = np.linspace(parts[0], parts[1], int(parts[2]))
        sups = [sup_speed_on_unit_sphere(LandauParams.from_magnitude(b))
                for b in betas]
        nondecreasing = bool(np.all(np.diff(sups) >= 0.0))
        payload = {
            "betas": betas.tolist(),
            "sup_speed_on_unit_sphere": sups,
            "nondecreasing": nondecreasing,
        }
        passed = nondecreasing
    elif args.decay:
        if not args.field or not args.ref:
            raise ConfigError("--decay needs --field and --ref")
        params = _landau_params_of(args.field)
        _, ref = parse_field_spec("landau:" + args.ref)
        shells = _parse_floats(args.shells, "--shells")
        _require(1.0 < args.q < 3.0, "--q must lie in (1, 3)")
        _require(shells and all(0.0 < r <= 1.0 for r in shells),
                 "--shells must lie in (0, 1]")
        report = decay_report(LandauField(params), ref, args.q, shells)
        payload = {
            "q": args.q,
            "shells": shells,
            "shell_weighted": report.meta["shell_weighted"],
            "value": report.value,
            "tolerance": args.tol,
        }
        if params.b.tolist() == ref.b.tolist():
            passed = report.value <= args.tol
    elif args.weak_l3 or args.lorentz:
        if not args.field:
            raise ConfigError("norm computation needs --field")
        radius = _parse_ball_radius(args.domain)
        resolution = _parse_resolution(args.resolution)
        if args.weak_l3:
            p, q = 3.0, np.inf
        else:
            pq = _parse_floats(args.lorentz, "--lorentz")
            if len(pq) != 2:
                raise ConfigError("--lorentz expects p,q")
            p, q = pq
            _require(1.0 < p < np.inf and q >= 1.0,
                     "--lorentz needs 1 < p < inf and 1 <= q <= inf")
        kind, fld = parse_field_spec(args.field)
        values, weights = _sample_magnitudes(kind, fld, radius, resolution)
        report = lorentz_quasinorm(values, weights, p, q)
        payload = {
            "norm": report.norm_id,
            "value": report.value,
            "n_samples": report.meta["n_samples"],
            "domain_radius": radius,
        }
        expected = args.expect
        if expected is None and args.weak_l3 and args.field == "r^-1":
            expected = WEAK_L3_R_INV
        if expected is not None:
            err = abs(report.value - expected) / abs(expected)
            payload["expected"] = expected
            payload["relative_error"] = err
            payload["tolerance"] = args.tol
            passed = err <= args.tol
    else:
        raise ConfigError(
            "choose one of --weak-l3, --lorentz, --decay, --sweep-beta")

    exit_code = EXIT_PASS if passed in (None, True) else EXIT_FAIL
    return _report("norms", _config_echo(args), payload, passed), exit_code


# ---------------------------------------------------------------------------
# parser and dispatch


def _config_echo(args):
    config = {k: v for k, v in sorted(vars(args).items())
              if k != "func" and v is not None}
    config.setdefault("seed", 0)
    return config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pointflow",
        description="Point-force singularities of stationary Navier-Stokes "
                    "flows: batch verification toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--output", help="write the JSON report here "
                                        "(default: stdout)")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed recorded in the report")

    p = sub.add_parser("landau", help="evaluate a Landau solution at points")
    p.add_argument("--A", type=float, help="shape parameter (> 1)")
    p.add_argument("--beta", type=float, help="force magnitude (>= 0)")
    p.add_argument("--axis", help="force direction as x,y,z (default e_z)")
    p.add_argument("--point", action="append",
                   help="evaluation point x,y,z (repeatable)")
    p.add_argument("--points-file", help="CSV of evaluation points (x,y,z)")
    p.add_argument("--csv", help="write x,y,z,ux,uy,uz,p rows here")
    add_common(p)
    p.set_defaults(func=cmd_landau)

    p = sub.add_parser("flux", help="force extraction by momentum flux")
    p.add_argument("--field", required=True, help="field spec (landau:A=2, ...)")
    p.add_argument("--radii", required=True, help="sphere radii r1,r2,...")
    p.add_argument("--n-theta", type=int, default=64, dest="n_theta")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="pass threshold on the pairwise radius deviation")
    p.add_argument("--csv", help="write radius,bx,by,bz rows here")
    add_common(p)
    p.set_defaults(func=cmd_flux)

    p = sub.add_parser("verify", help="weak / pointwise / self-similarity checks")
    vsub = p.add_subparsers(dest="mode", required=True)

    pv = vsub.add_parser("weak", help="distributional pairing vs b phi(0)")
    pv.add_argument("--field", required=True)
    pv.add_argument("--center", default="0,0,0")
    pv.add_argument("--a", type=float, default=0.5, help="plateau radius")
    pv.add_argument("--b", type=float, default=1.0, help="support radius")
    pv.add_argument("--n-r", type=int, default=32, dest="n_r")
    pv.add_argument("--n-theta", type=int, default=32, dest="n_theta")
    pv.add_argument("--tol", type=float, default=0.02)
    add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pn = vsub.add_parser("ns", help="pointwise residual away from the origin")
    pn.add_argument("--field", required=True)
    pn.add_argument("--samples", type=int, default=100)
    pn.add_argument("--rmin", type=float, default=0.01)
    pn.add_argument("--rmax", type=float, default=1.5)
    pn.add_argument("--tol", type=float, default=1e-4)
    add_common(pn)
    pn.set_defaults(func=cmd_verify)

    ps = vsub.add_parser("selfsim", help="discrete self-similarity deviation")
    ps.add_argument("--field", required=True)
    ps.add_argument("--lambda", type=float, required=True, dest="lam")
    ps.add_argument("--samples", type=int, default=100)
    ps.add_argument("--tol", type=float, default=1e-12)
    add_common(ps)
    ps.set_defaults(func=cmd_verify)

    p = sub.add_parser("picard", help="contraction run of the Picard map")
    p.add_argument("--amp", type=float, required=True, help="forcing amplitude")
    p.add_argument("--grid", type=int, required=True,
                   help="grid points per axis (power of two >= 16)")
    p.add_argument("--r", type=float, default=2.0, help="norm exponent in (1,3)")
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--delta-in", type=float, default=0.3, dest="delta_in")
    p.add_argument("--delta-out", type=float, default=1.5, dest="delta_out")
    p.add_argument("--drift-beta", type=float, default=0.5, dest="drift_beta",
                   help="force magnitude of the mollified Landau drift")
    p.add_argument("--csv", help="write iter,increment,ratio rows here")
    add_common(p)
    p.set_defaults(func=cmd_picard)

    p = sub.add_parser("norms", help="norm machinery and diagnostic sweeps")
    p.add_argument("--field", help="field spec (landau:A=2, r^-1, ...)")
    p.add_argument("--weak-l3", action="store_true", dest="weak_l3")
    p.add_argument("--lorentz", help="exponent pair p,q")
    p.add_argument("--domain", default="ball:2", help="sampling domain ball:<R>")
    p.add_argument("--resolution", default="400,16,32",
                   help="ball sampling resolution nr,ntheta,nphi")
    p.add_argument("--decay", action="store_true",
                   help="weighted shell deviation from a reference")
    p.add_argument("--ref", help="reference Landau parameters, e.g. A=2")
    p.add_argument("--q", type=float, default=2.0, help="decay exponent")
    p.add_argument("--shells", default="0.4,0.2,0.1,0.05")
    p.add_argument("--sweep-beta", dest="sweep_beta",
                   help="start:stop:count sweep of sup-sphere speeds")
    p.add_argument("--sup-sphere", action="store_true", dest="sup_sphere",
                   help="with --sweep-beta: tabulate sup |U| on the unit sphere")
    p.add_argument("--expect", type=float, help="reference value for pass/fail")
    p.add_argument("--tol", type=float, default=0.02)
    add_common(p)
    p.set_defaults(func=cmd_norms)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching EXIT_CONFIG
        return exc.code if exc.code else EXIT_PASS

    start = time.perf_counter()
    try:
        report, code = args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractionDivergedError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        trace = exc.trace
        payload = {"diverged": True}
        if trace is not None:
            payload.update({
                "iterations": trace.iterations,
                "norms": trace.norms,
                "increments": trace.increments,
                "ratios": trace.ratios,
            })
        report = _report(args.subcommand, _config_echo(args), payload, False)
        _emit(report, args.output, time.perf_counter() - start)
        return EXIT_OUT_OF_REGIME
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        _emit(report, args.output, time.perf_counter() - start)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
