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

Each flag's value is parsed and range-checked once, by its argparse
type (number lists keep their text for the config echo); either/or flags
form required mutually exclusive groups.  A cmd_* checks only relations
between flags, files and field specs, and returns (payload, passed);
main alone builds the report.  Report and CSV files are rewritten in
place.

Exit codes: 0 pass, 1 tolerance failure, 2 configuration error (a bad,
malformed, missing or conflicting flag, counts above the node cap and
points outside 1e-50 < |x| < 1e50 included; the message names the flag
or file), 3 numerical failure, 4 out-of-regime (Picard divergence
detector).
"""

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import re
import stat
import sys
import time

import numpy as np

from .landau import (FlowField, LandauField, LandauParams, CallableField,
                     RescaledField, flux_tensor, landau_eval, ns_residual,
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


def _flag(convert, rule, what, keep_text=False):
    """argparse type: convert, then require rule(value); NaN and a None
    value fail.  With keep_text the text is kept, not the value."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not rule(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return text if keep_text else value
    return parse


def _numbers(text, kind=float, sep=","):
    """The items of 'a,b,...' as kind; an empty item is malformed."""
    return [kind(p) for p in text.split(sep)]


def _ball_radius(text):
    shape, _, radius = text.partition(":")
    return float(radius) if shape == "ball" else None


def _at_least(least):
    return _flag(int, lambda v: v >= least, f"an integer >= {least}")


def _between(low, high, what=None):
    return _flag(float, lambda v: low < v < high,
                 what or f"in ({low:g}, {high:g})")


_POSITIVE = _flag(float, lambda v: 0.0 < v < np.inf, "finite and > 0")
_NONNEGATIVE = _flag(float, lambda v: 0.0 <= v < np.inf, "finite and >= 0")
_NONZERO = _flag(float, lambda v: v != 0.0 and abs(v) < np.inf,
                 "finite and nonzero")
# support and ball radii: far enough from the overflow and underflow of
# r^3 that every quadrature weight and measure stays finite and positive
_RADII = (1e-50, 1e50)
_RADIUS = _between(*_RADII)
# a finite secondary Lorentz exponent above this overflows v^q on the
# singular fields at the default resolution; q = inf is the weak norm
_LORENTZ_Q_MAX = 64.0
# the most quadrature nodes, samples or grid points one run may allocate:
# at the heaviest measured cost (about 760 B per node) that is about 3 GB
_MAX_NODES = 2**22
_GRID_SIZE = _flag(int, lambda v: v >= 16 and v & (v - 1) == 0
                   and v**3 <= _MAX_NODES,
                   f"a power of two >= 16 with n^3 <= {_MAX_NODES}")
_SAMPLES = _flag(int, lambda v: 1 <= v <= _MAX_NODES,
                 f"an integer in [1, {_MAX_NODES}]")
# flux_integral evaluates 2 n_theta^2 nodes on each sphere
_SPHERE_N_THETA = _flag(int, lambda v: v >= 2 and 2 * v * v <= _MAX_NODES,
                        f"an integer >= 2 with 2*n^2 <= {_MAX_NODES}")

# number lists keep their text, which the config echo shows
_kept_text = functools.partial(_flag, keep_text=True)
_VEC3 = _kept_text(_numbers, lambda v: len(v) == 3 and all(np.isfinite(v)),
                   "three finite numbers x,y,z")
_RADIUS_LIST = _kept_text(
    _numbers, lambda v: all(_RADII[0] < r < _RADII[1] for r in v),
    "radii r1,r2,... in ({:g}, {:g})".format(*_RADII))
_SHELL_LIST = _kept_text(
    _numbers, lambda v: all(_RADII[0] < r <= 1.0 for r in v),
    "shell radii in ({:g}, 1]".format(_RADII[0]))
_LORENTZ_PAIR = _kept_text(
    _numbers, lambda v: len(v) == 2 and 1.0 < v[0] < np.inf
    and (1.0 <= v[1] <= _LORENTZ_Q_MAX or v[1] == np.inf),
    "p,q with 1 < p < inf and q in [1, {:g}] or inf".format(_LORENTZ_Q_MAX))
_RESOLUTION = _kept_text(
    lambda text: _numbers(text, int), lambda v: len(v) == 3 and v[0] >= 2
    and v[1] >= 2 and v[2] >= 4 and v[0] * v[1] * v[2] <= _MAX_NODES,
    "integers nr,ntheta,nphi with nr >= 2, ntheta >= 2, nphi >= 4 and "
    f"nr*ntheta*nphi <= {_MAX_NODES}")
_SWEEP = _kept_text(
    lambda text: _numbers(text, sep=":"), lambda v: len(v) == 3
    and 0.0 < v[0] < v[1] < np.inf and v[2].is_integer()
    and 2 <= v[2] <= _MAX_NODES,
    "start:stop:count with 0 < start < stop < inf and an integer count "
    f"in [2, {_MAX_NODES}]")
_BALL = _kept_text(_ball_radius, lambda r: _RADII[0] < r < _RADII[1],
                   "ball:<R> with R in ({:g}, {:g})".format(*_RADII))


def parse_field_spec(spec):
    """Resolve a field spec string to (kind, probe).

    'landau:A=<v>', 'landau:beta=<v>' and 'zero' give kind 'landau' and a
    LandauField, whose parameters are probe.params; 'grid:<file.csv>'
    (uniform rectilinear samples with columns x,y,z,ux,uy,uz,p,
    interpolated trilinearly) gives kind 'grid' and a CallableField;
    'r^-1' and 'r^-2' (norms only) give kind 'scalar' and the magnitude
    callable.
    """
    if spec == "zero":
        return "landau", LandauField(LandauParams.zero())
    if spec in ("r^-1", "r^-2"):
        power = -1 if spec == "r^-1" else -2
        return "scalar", (lambda pts: np.linalg.norm(pts, axis=-1)**power)
    if spec.startswith("landau:"):
        key, eq, value = spec[len("landau:"):].partition("=")
        _require(eq, f"bad landau spec {spec!r}: expected key=value")
        make = {"A": LandauParams.from_shape,
                "beta": LandauParams.from_magnitude}.get(key)
        _require(make, f"unknown landau parameter {key!r} (use A or beta)")
        try:
            return "landau", LandauField(make(float(value)))
        except ValueError as exc:
            raise ConfigError(f"bad landau spec {spec!r}: {exc}") from None
    if spec.startswith("grid:"):
        return "grid", _load_grid_field(spec[len("grid:"):])
    raise ConfigError(f"unrecognized field spec {spec!r}")


def _probe(spec, command, kinds=("landau", "grid"), flag="--field"):
    """The probe of a field spec whose kind `command` accepts; a bad spec
    is a ConfigError that names flag."""
    try:
        kind, probe = parse_field_spec(spec)
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    _require(kind in kinds,
             f"{command} needs a {' or '.join(kinds)} field spec, got {spec!r}")
    return probe


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


@contextlib.contextmanager
def _rewrite(path, newline=None):
    """Text stream that replaces the contents of path, created if missing.

    Opened without O_TRUNC, which on some filesystems waits for the old
    blocks to be discarded (tens to hundreds of ms per file), and cut at
    the end of what was written once writing stops, also on an exception.
    The inode stays, so links and permissions do too.  Files that are
    not regular (/dev/null, pipes) are only written.
    """
    fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              newline=newline)
    with fh:
        try:
            yield fh
        finally:
            fh.flush()
            fd = fh.fileno()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _emit(report, output, duration):
    report = dict(report)
    report["duration_s"] = duration
    if output:
        with _rewrite(output) as fh:
            fh.writelines(_json_chunks(report))
            fh.write("\n")
    else:
        sys.stdout.writelines(_json_chunks(report))
        sys.stdout.write("\n")


def _write_point_csv(path, table):
    """The x,y,z,ux,uy,uz,p rows, as csv.writer writes repr() strings."""
    columns = range(len(POINT_CSV_COLUMNS))
    table.keep_text(columns)
    with _rewrite(path, newline="") as fh:
        fh.write(",".join(POINT_CSV_COLUMNS) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in
                      zip(*(table.column_text(k) for k in columns)))


def _write_csv(path, header, rows):
    with _rewrite(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _random_sphere_points(seed, n, rmin, rmax):
    """(radii, points) of n points with uniform radii in [rmin, rmax).

    Directions are normalised Gaussian draws, uniform on the sphere.
    """
    rng = np.random.default_rng(seed)
    radii = rmin + (rmax - rmin) * rng.random(n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return radii, radii[:, None] * dirs


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, passed), passed None when not graded


def cmd_landau(args):
    axis = _numbers(args.axis) if args.axis else [0.0, 0.0, 1.0]
    try:
        params = (LandauParams.from_shape(args.A, axis) if args.A is not None
                  else LandauParams.from_magnitude(args.beta, axis))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.point:
        source, points = "--point", np.array([_numbers(p) for p in args.point])
    else:
        source = f"points file {args.points_file}"
        points = _read_points_file(args.points_file)
    _require(points.size, "no evaluation points given")
    # hypot neither overflows nor underflows; NaN and inf rows fail
    radii = np.hypot.reduce(points, axis=1)
    _require(np.all((_RADII[0] < radii) & (radii < _RADII[1])),
             "{}: points need {:g} < |x| < {:g}; Landau fields are singular "
             "at the origin".format(source, *_RADII))

    state = landau_eval(params, points)
    table = PointTable(points, state, flux_tensor(state))
    if args.csv:
        _write_point_csv(args.csv, table)
    return {
        "A": params.A if np.isfinite(params.A) else "inf",
        "beta": params.beta,
        "axis": params.axis.tolist(),
        "points": table,
    }, None


def cmd_flux(args):
    probe = _probe(args.field, "flux")
    radii = _numbers(args.radii)
    forces = [flux_integral(probe, R, n_theta=args.n_theta) for R in radii]
    scale = max(max(float(np.linalg.norm(b)) for b in forces), 1e-300)
    deviation = max([0.0] + [float(np.linalg.norm(bi - bj)) / scale
                             for i, bi in enumerate(forces)
                             for bj in forces[i + 1:]])
    payload = {
        "radii": radii,
        "force_per_radius": [b.tolist() for b in forces],
        "max_pairwise_relative_deviation": deviation,
        "tolerance": args.tol,
    }
    if isinstance(probe, LandauField):
        params = probe.params
        payload["expected_force"] = params.b.tolist()
        payload["max_relative_force_error"] = max(
            float(np.linalg.norm(b - params.b)) / max(params.beta, 1e-300)
            for b in forces)
    if args.csv:
        _write_csv(args.csv, ["radius", "bx", "by", "bz"],
                   ([repr(float(R)), *(repr(float(v)) for v in b)]
                    for R, b in zip(radii, forces)))
    return payload, deviation <= args.tol


def cmd_verify_weak(args):
    probe = _probe(args.field, "verify weak", ("landau",))
    params = probe.params
    center = _numbers(args.center)
    _require(args.a < args.b, "need --a < --b")
    _require(args.n_r * 2 * args.n_theta**2 <= _MAX_NODES,
             f"need --n-r * 2 * --n-theta^2 <= {_MAX_NODES} nodes")
    result = extract_force_weak(probe, center, args.a, args.b,
                                n_r=args.n_r, n_theta=args.n_theta)
    # the pairing returns b . phi(0) for each direction, which is b_k on
    # the plateau and 0 outside the support; evaluating phi at the origin
    # covers test functions straddling it as well
    origin = np.zeros(3)
    expected = np.array([
        params.b @ make_test_function(center, args.a, args.b, e)(origin)
        for e in np.eye(3)])
    err = (float(np.linalg.norm(result.value - expected))
           / max(params.beta, 1.0))
    return {
        "extracted_force": result.value.tolist(),
        "expected_force": expected.tolist(),
        "origin_in_plateau": float(np.linalg.norm(center)) < args.a,
        "relative_error": err,
        "tolerance": args.tol,
    }, err <= args.tol


def cmd_verify_ns(args):
    params = _probe(args.field, "verify ns", ("landau",)).params
    _require(args.rmin < args.rmax, "need --rmin < --rmax")
    radii, pts = _random_sphere_points(args.seed, args.samples,
                                       args.rmin, args.rmax)
    res = ns_residual(params, pts)
    worst = float(np.max(radii**3 * np.linalg.norm(res, axis=1)))
    return {
        "samples": args.samples,
        "radius_range": [args.rmin, args.rmax],
        "max_weighted_residual": worst,
        "tolerance": args.tol,
    }, worst <= args.tol


def cmd_verify_selfsim(args):
    probe = _probe(args.field, "verify selfsim")
    _, pts = _random_sphere_points(args.seed, args.samples, 0.25, 1.5)
    deviation = float(np.max(np.linalg.norm(
        RescaledField(probe, args.lam).velocity(pts) - probe.velocity(pts),
        axis=1)))
    return {
        "lambda": args.lam,
        "samples": args.samples,
        "max_deviation": deviation,
        "tolerance": args.tol,
    }, deviation <= args.tol


def cmd_picard(args):
    _require(args.delta_in < args.delta_out, "need --delta-in < --delta-out")
    drift = make_mollified_drift(LandauParams.from_magnitude(args.drift_beta),
                                 args.grid, args.delta_in, args.delta_out)
    forcing = make_forcing(args.grid, args.amp, seed=args.seed)
    trace = run_contraction(drift, forcing, r=args.r, max_iters=args.iters,
                            tol=args.tol)
    late_ratios = trace.ratios[1:]
    max_late_ratio = max(late_ratios) if late_ratios else 0.0
    if args.csv:
        _write_csv(args.csv, TRACE_CSV_COLUMNS, (
            [i, repr(float(inc)),
             repr(float(trace.ratios[i - 2])) if 2 <= i < len(trace.ratios) + 2
             else ""]
            for i, inc in enumerate(trace.increments, start=1)))
    return {
        "grid": args.grid,
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
    }, (trace.converged and max_late_ratio < 0.5
        and trace.uniqueness_distance <= 10.0 * args.tol)


def cmd_norms(args):
    if args.sweep_beta:
        start, stop, count = _numbers(args.sweep_beta, sep=":")
        betas = np.linspace(start, stop, int(count))
        sups = [sup_speed_on_unit_sphere(LandauParams.from_magnitude(b))
                for b in betas]
        nondecreasing = bool(np.all(np.diff(sups) >= 0.0))
        return {
            "betas": betas.tolist(),
            "sup_speed_on_unit_sphere": sups,
            "nondecreasing": nondecreasing,
        }, nondecreasing
    if args.decay:
        _require(args.field and args.ref, "--decay needs --field and --ref")
        probe = _probe(args.field, "norms --decay", ("landau",))
        ref = _probe("landau:" + args.ref, "norms --decay", ("landau",),
                     "--ref").params
        shells = _numbers(args.shells)
        report = decay_report(probe, ref, args.q, shells)
        payload = {
            "q": args.q,
            "shells": shells,
            "shell_weighted": report.meta["shell_weighted"],
            "value": report.value,
            "tolerance": args.tol,
        }
        if probe.params.b.tolist() == ref.b.tolist():
            return payload, report.value <= args.tol
        return payload, None
    _require(args.field, "norm computation needs --field")
    p, q = (3.0, np.inf) if args.weak_l3 else _numbers(args.lorentz)
    radius = _ball_radius(args.domain)
    resolution = _numbers(args.resolution, int)
    probe = _probe(args.field, "norms", ("landau", "grid", "scalar"))
    magnitude = probe if not isinstance(probe, FlowField) else (
        lambda pts: np.linalg.norm(probe.velocity(pts), axis=1))
    report = lorentz_quasinorm(*ball_samples(magnitude, radius, *resolution),
                               p, q)
    payload = {
        "norm": report.norm_id,
        "value": report.value,
        "n_samples": report.meta["n_samples"],
        "domain_radius": radius,
    }
    expected = args.expect
    if expected is None and args.weak_l3 and args.field == "r^-1":
        expected = WEAK_L3_R_INV
    if expected is None:
        return payload, None
    err = abs(report.value - expected) / abs(expected)
    payload.update(expected=expected, relative_error=err, tolerance=args.tol)
    return payload, err <= args.tol


# ---------------------------------------------------------------------------
# parser and dispatch


def _config_echo(args):
    return {k: v for k, v in sorted(vars(args).items())
            if k != "func" and v is not None}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pointflow",
        description="Point-force singularities of stationary Navier-Stokes "
                    "flows: batch verification toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, func, tol=None, tol_help=None):
        p.add_argument("--output", help="write the JSON report here "
                                        "(default: stdout)")
        p.add_argument("--seed", type=_at_least(0), default=0,
                       help="random seed recorded in the report")
        if tol is not None:
            p.add_argument("--tol", type=_POSITIVE, default=tol, help=tol_help)
        p.set_defaults(func=func)

    p = sub.add_parser("landau", help="evaluate a Landau solution at points")
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--A", type=float, help="shape parameter (> 1)")
    shape.add_argument("--beta", type=_NONNEGATIVE,
                       help="force magnitude (>= 0)")
    p.add_argument("--axis", type=_VEC3,
                   help="force direction as x,y,z (default e_z)")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--point", type=_VEC3, action="append",
                       help="evaluation point x,y,z (repeatable)")
    where.add_argument("--points-file",
                       help="CSV of evaluation points (x,y,z)")
    p.add_argument("--csv", help="write x,y,z,ux,uy,uz,p rows here")
    add_common(p, cmd_landau)

    p = sub.add_parser("flux", help="force extraction by momentum flux")
    p.add_argument("--field", required=True, help="field spec (landau:A=2, ...)")
    p.add_argument("--radii", type=_RADIUS_LIST, required=True,
                   help="sphere radii r1,r2,...")
    p.add_argument("--n-theta", type=_SPHERE_N_THETA, default=64,
                   dest="n_theta")
    p.add_argument("--csv", help="write radius,bx,by,bz rows here")
    add_common(p, cmd_flux, 1e-8,
               "pass threshold on the pairwise radius deviation")

    p = sub.add_parser("verify", help="weak / pointwise / self-similarity checks")
    vsub = p.add_subparsers(dest="mode", required=True)

    pv = vsub.add_parser("weak", help="distributional pairing vs b phi(0)")
    pv.add_argument("--field", required=True)
    pv.add_argument("--center", type=_VEC3, default="0,0,0")
    pv.add_argument("--a", type=_RADIUS, default=0.5, help="plateau radius")
    pv.add_argument("--b", type=_RADIUS, default=1.0, help="support radius")
    pv.add_argument("--n-r", type=_at_least(3), default=32, dest="n_r")
    pv.add_argument("--n-theta", type=_at_least(2), default=32, dest="n_theta")
    add_common(pv, cmd_verify_weak, 0.02)

    pn = vsub.add_parser("ns", help="pointwise residual away from the origin")
    pn.add_argument("--field", required=True)
    pn.add_argument("--samples", type=_SAMPLES, default=100)
    pn.add_argument("--rmin", type=_RADIUS, default=0.01)
    pn.add_argument("--rmax", type=_RADIUS, default=1.5)
    add_common(pn, cmd_verify_ns, 1e-4)

    ps = vsub.add_parser("selfsim", help="discrete self-similarity deviation")
    ps.add_argument("--field", required=True)
    ps.add_argument("--lambda", type=_between(_RADII[0], 1.0), required=True,
                    dest="lam")
    ps.add_argument("--samples", type=_SAMPLES, default=100)
    add_common(ps, cmd_verify_selfsim, 1e-12)

    p = sub.add_parser("picard", help="contraction run of the Picard map")
    p.add_argument("--amp", type=_NONNEGATIVE, required=True,
                   help="forcing amplitude")
    p.add_argument("--grid", type=_GRID_SIZE, required=True,
                   help="grid points per axis (power of two in [16, 128])")
    p.add_argument("--r", type=_between(1.0, 3.0), default=2.0,
                   help="norm exponent in (1,3)")
    p.add_argument("--iters", type=_at_least(1), default=40)
    half_side = _between(0.0, BOX / 2.0, "in (0, 2 pi), the torus half-side")
    p.add_argument("--delta-in", type=half_side, default=0.3, dest="delta_in")
    p.add_argument("--delta-out", type=half_side, default=1.5, dest="delta_out")
    p.add_argument("--drift-beta", type=_NONNEGATIVE, default=0.5,
                   dest="drift_beta",
                   help="force magnitude of the mollified Landau drift")
    p.add_argument("--csv", help="write iter,increment,ratio rows here")
    add_common(p, cmd_picard, 1e-9)

    p = sub.add_parser("norms", help="norm machinery and diagnostic sweeps")
    p.add_argument("--field", help="field spec (landau:A=2, r^-1, ...)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weak-l3", action="store_true", dest="weak_l3")
    mode.add_argument("--lorentz", type=_LORENTZ_PAIR,
                      help="exponent pair p,q")
    mode.add_argument("--decay", action="store_true",
                      help="weighted shell deviation from a reference")
    mode.add_argument("--sweep-beta", type=_SWEEP, dest="sweep_beta",
                      help="start:stop:count sweep of sup |U| on |x| = 1")
    p.add_argument("--domain", type=_BALL, default="ball:2",
                   help="sampling domain ball:<R>")
    p.add_argument("--resolution", type=_RESOLUTION, default="400,16,32",
                   help="ball sampling resolution nr,ntheta,nphi")
    p.add_argument("--ref", help="reference Landau parameters, e.g. A=2")
    p.add_argument("--q", type=_between(1.0, 3.0), default=2.0,
                   help="decay exponent")
    p.add_argument("--shells", type=_SHELL_LIST, default="0.4,0.2,0.1,0.05")
    p.add_argument("--expect", type=_NONZERO,
                   help="reference value for pass/fail")
    add_common(p, cmd_norms, 0.02)

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
        payload, passed = args.func(args)
        code = EXIT_FAIL if passed is False else EXIT_PASS
    except ContractionDivergedError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        payload, passed, code = {"diverged": True}, False, EXIT_OUT_OF_REGIME
        if exc.trace is not None:
            payload.update(iterations=exc.trace.iterations,
                           norms=exc.trace.norms,
                           increments=exc.trace.increments,
                           ratios=exc.trace.ratios)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    command = "-".join(filter(None, [args.subcommand,
                                     getattr(args, "mode", None)]))
    report = _report(command, _config_echo(args), payload, passed)
    try:
        _emit(report, args.output, time.perf_counter() - start)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
