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

Each flag's value is parsed and range-checked once, by its argparse type
(number lists keep their text for the config echo), and a landau: spec's
A or beta by that of --A or --beta; either/or flags form required
mutually exclusive groups.  One guard, _naming, names the flag or file
of a ValueError raised while an input is consumed.  A cmd_* checks only
relations between flags, files and field specs and returns (payload,
passed), flux and picard also their --csv rows; it opens no output file.
main alone builds the report and writes it and the CSV, both rewritten
in place.

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
import itertools
import json
import os
import re
import stat
import sys
import time
import warnings

import numpy as np

from .landau import (A_MAX, A_MIN, BETA_MAX, BETA_MIN, FlowField,
                     LandauField, LandauParams, CallableField, RescaledField,
                     flux_tensor, landau_eval, ns_residual,
                     sup_speed_on_unit_sphere)
from .quadrature import (NODE_BLOCK, ball_samples, decay_report,
                         flux_integral, lorentz_quasinorm)
from .spectral import (BOX, ContractionDivergedError, make_forcing,
                       make_mollified_drift, run_contraction)
from .weakform import TestFunction, extract_force_weak

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


class ConfigError(ValueError):
    """Invalid combination or value of command-line parameters."""


@contextlib.contextmanager
def _naming(what):
    """Raise a ValueError (a ConfigError too, so guards nest) or a flag
    type's ArgumentTypeError raised inside as a ConfigError "what: ..."."""
    try:
        yield
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


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
# the shape parameters and force magnitudes A_from_beta maps onto each other
_SHAPE = _flag(float, lambda v: A_MIN < v <= A_MAX,
               f"a shape parameter in ({A_MIN!r}, {A_MAX:g}]")
_MAGNITUDE = _flag(float, lambda v: v == 0.0 or BETA_MIN <= v <= BETA_MAX,
                   f"0 or a force magnitude in [{BETA_MIN!r}, {BETA_MAX!r}]")
# the largest finite secondary Lorentz exponent accepted; q = inf is the
# weak norm
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
# open() raises ValueError, not OSError, on an embedded null byte
_PATH = _flag(str, lambda v: v and "\0" not in v,
              "a nonempty path without an embedded null byte")
_VEC3 = _kept_text(_numbers, lambda v: len(v) == 3 and all(np.isfinite(v)),
                   "three finite numbers x,y,z")


def _norm(v):
    """np.linalg.norm(v), as LandauParams takes it; inf on overflow."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(v)


_CENTER = _kept_text(_numbers, lambda v: len(v) == 3 and _norm(v) < _RADII[1],
                     "three numbers x,y,z with |x| < {:g}".format(_RADII[1]))
_AXIS = _kept_text(
    _numbers, lambda v: len(v) == 3 and _RADII[0] < _norm(v) < _RADII[1],
    "three numbers x,y,z with {:g} < |x| < {:g}".format(*_RADII))
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
    and BETA_MIN <= v[0] < v[1] <= BETA_MAX and v[2].is_integer()
    and 2 <= v[2] <= _MAX_NODES,
    f"start:stop:count with {BETA_MIN!r} <= start < stop <= {BETA_MAX!r} "
    f"and an integer count in [2, {_MAX_NODES}]")
_BALL = _kept_text(_ball_radius, lambda r: _RADII[0] < r < _RADII[1],
                   "ball:<R> with R in ({:g}, {:g})".format(*_RADII))


def parse_field_spec(spec):
    """Resolve a field spec string to (kind, probe).

    'landau:A=<v>', 'landau:beta=<v>' and 'zero' give kind 'landau' and a
    LandauField, whose parameters are probe.params; 'grid:<file.csv>'
    (rectilinear samples with columns x,y,z,ux,uy,uz,p) gives kind 'grid'
    and a CallableField over their trilinear interpolation;
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
        _require(key in ("A", "beta"),
                 f"unknown landau parameter {key!r} (use A or beta)")
        with _naming(f"bad landau spec {spec!r}"):   # --A's or --beta's rule
            return "landau", LandauField(
                LandauParams.from_shape(_SHAPE(value)) if key == "A" else
                LandauParams.from_magnitude(_MAGNITUDE(value)))
    if spec.startswith("grid:"):
        return "grid", _load_grid_field(spec[len("grid:"):])
    raise ConfigError(f"unrecognized field spec {spec!r}")


def _probe(spec, command, kinds=("landau", "grid"), flag="--field"):
    """The probe of a field spec whose kind `command` accepts; a bad spec
    is a ConfigError that names flag."""
    with _naming(flag):
        kind, probe = parse_field_spec(spec)
        _require(kind in kinds, f"{command} needs a {' or '.join(kinds)} "
                 f"field spec, got {spec!r}")
    return probe


def _load_grid_field(path):
    """Trilinear probe from a CSV of samples on a rectilinear grid.

    The rows are parsed from the open file after the header; they must be
    finite and list every node of the product grid of their distinct
    coordinates once.
    One interpolator runs over the stacked (ux, uy, uz, p) samples; its
    columns are bitwise equal to four per-component interpolators, since
    linear interpolation weighs every trailing component alike.  Its
    (m, 4) rows are the probe's one sampler, so a full evaluation
    interpolates each node set once.  It runs NODE_BLOCK nodes at a time
    into one (m, 4) output, so its temporaries stay a fixed size however
    many nodes a probe asks for; trilinear interpolation works node by
    node, so the blocks keep every bit.
    """
    from scipy.interpolate import RegularGridInterpolator

    _require("\0" not in path, f"grid file {path!r} has an embedded null byte")
    # a UnicodeDecodeError, of a non-text file, is a ValueError
    with open(path, newline="") as fh, _naming(f"grid file {path}"):
        header = next(csv.reader([fh.readline()]), [])
        _require([h.strip() for h in header] == POINT_CSV_COLUMNS,
                 f"expected header {','.join(POINT_CSV_COLUMNS)}")
        with warnings.catch_warnings():
            # a file without rows is reported below, not warned of
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
    _require(rows.size, f"grid file {path} holds no samples")
    _require(rows.shape[1] == len(POINT_CSV_COLUMNS), f"grid file {path}: "
             f"expected {len(POINT_CSV_COLUMNS)} columns per row")
    _require(np.all(np.isfinite(rows)),
             f"grid file {path} holds a non-finite value")
    xs, ys, zs = (np.unique(rows[:, i]) for i in range(3))
    incomplete = f"grid file {path} is not a complete rectilinear grid"
    # the count bounds the product grid that the rows are compared with
    _require(len(xs) * len(ys) * len(zs) == len(rows), incomplete)
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    _require(np.array_equal(rows[order, :3].T, np.reshape(
        np.meshgrid(xs, ys, zs, indexing="ij"), (3, -1))), incomplete)
    data = rows[order, 3:].reshape(len(xs), len(ys), len(zs), 4)
    interp = RegularGridInterpolator((xs, ys, zs), data)

    def samples(pts):
        """(m, 4) interpolated (ux, uy, uz, p), NODE_BLOCK nodes at a time."""
        # the interpolator's own bounds check, over every node at once, so
        # the first failing axis is the one a single call would name
        for axis, (coord, grid) in enumerate(zip(pts.T, (xs, ys, zs))):
            if not (np.all(grid[0] <= coord) and np.all(coord <= grid[-1])):
                raise ValueError("One of the requested xi is out of bounds "
                                 f"in dimension {axis}")
        out = np.empty((len(pts), 4))
        for a in range(0, len(pts), NODE_BLOCK):
            out[a:a + NODE_BLOCK] = interp(pts[a:a + NODE_BLOCK])
        return out

    return CallableField(samples)


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
    so its first 7 columns are the --csv columns.  _json_chunks writes the
    table out as the list of {"x", "u", "p", "grad_u", "T"} objects
    without building them, and the csv rows in the same pass.
    """

    def __init__(self, points, state, tensors):
        n = len(points)
        self.values = np.concatenate(
            [points, state.u, np.reshape(state.p, (n, 1)),
             state.grad_u.reshape(n, 9), tensors.reshape(n, 9)], axis=1)

    def text_chunks(self, csv=None):
        """(rows, float.__repr__ of each column) per EMIT_CHUNK rows; the
        --csv header and rows go to the text stream csv, if given."""
        if csv is not None:
            csv.writelines(_csv_lines([POINT_CSV_COLUMNS]))
        for start in range(0, len(self.values), EMIT_CHUNK):
            rows = self.values[start:start + EMIT_CHUNK]
            text = [list(map(float.__repr__, col.tolist())) for col in rows.T]
            if csv is not None:
                csv.writelines(_csv_lines(zip(*text[:len(POINT_CSV_COLUMNS)])))
            yield rows, text


def _json_chunks(report, csv=None):
    """json.dumps(report, indent=2, sort_keys=True), as strings to concatenate.

    A PointTable in payload["points"] is written without per-point dicts,
    one text_chunks chunk at a time, with its csv rows on every path.
    json.dumps of the report with two marker points (each number replaced
    by the marker string "\\0<column>") splits at the markers into the text
    before the points, one point's layout around its 25 numbers, the text
    between two points and the text after them.  The numbers, formatted as
    json formats floats (NaN where the CSV keeps nan), fill that layout
    point by point.
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
    chunks = table.text_chunks(csv)
    if len(columns) != 2 * width or len(table.values) == 0:
        # no points, or another string of the report reads like a marker
        for _ in chunks:   # the csv rows
            pass
        yield dumps([_point_dict(row) for row in table.values.tolist()])
        return
    between = texts[width]
    layout = "%s" + "".join(t.replace("%", "%%") + "%s" for t in texts[1:width])
    yield texts[0]
    for i, (rows, text) in enumerate(chunks):
        text = [text[k] for k in columns[:width]]
        if not np.all(np.isfinite(rows)):
            text = [[_JSON_NONFINITE.get(v, v) for v in col] for col in text]
        if i:
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


def _emit(report, output, duration, csv_path=None, rows=()):
    """Write the report to output (stdout when None) and to csv_path the rows
    (header first) or a PointTable's, in the report's one pass; csv_path is
    opened first and may not be the file output."""
    report = dict(report, duration_s=duration)
    with contextlib.ExitStack() as files:
        csv = (files.enter_context(_rewrite(csv_path, newline=""))
               if csv_path else None)
        _require(not (csv and output and os.path.isfile(output)
                      and os.path.samefile(csv_path, output)),
                 f"--csv {csv_path} is the same file as --output {output}")
        fh = files.enter_context(_rewrite(output)) if output else sys.stdout
        if csv:
            csv.writelines(_csv_lines(rows))
        fh.writelines(_json_chunks(report, csv))
        fh.write("\n")


def _csv_lines(rows):
    """Rows of number text as CRLF-terminated CSV lines."""
    return (",".join(row) + "\r\n" for row in rows)


def _read_points_file(path):
    """(n, 3) points from the x,y,z columns of a CSV, parsed as it is read;
    blank and # lines are comments, and a first other line x,y,z (cells
    stripped, as in a grid file) is a header."""
    with _naming(f"points file {path}"), open(path, newline="") as fh:
        lines = (ln for ln in fh if ln.strip() and not ln.startswith("#"))
        first = next(lines, "")
        header = next(csv.reader([first]), [])[:3]
        if [h.strip() for h in header] != ["x", "y", "z"]:
            lines = itertools.chain([first], lines)
        with warnings.catch_warnings():
            # a file without rows is refused by the command, not warned of
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(lines, delimiter=",", quotechar='"',
                              usecols=(0, 1, 2), ndmin=2)


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
# subcommands: each returns (payload, passed), passed None when not graded;
# flux and picard append their --csv rows, header first


def cmd_landau(args):
    axis = _numbers(args.axis) if args.axis else [0.0, 0.0, 1.0]
    # a value in its flag's range can still fail: above about 1e7 the A of
    # A_from_beta can miss LandauParams' consistency check, and |b| taken
    # along a non-unit --axis can round one ulp past the range ends
    with _naming("--A" if args.A is not None else "--beta"):
        params = (LandauParams.from_shape(args.A, axis) if args.A is not None
                  else LandauParams.from_magnitude(args.beta, axis))
    if args.point:
        source, points = "--point", np.array([_numbers(p) for p in args.point])
    else:
        source = f"points file {args.points_file}"
        points = _read_points_file(args.points_file)
    _require(points.size, f"{source}: no evaluation points given")
    # hypot neither overflows nor underflows; NaN and inf rows fail
    radii = np.hypot.reduce(points, axis=1)
    _require(np.all((_RADII[0] < radii) & (radii < _RADII[1])),
             "{}: points need {:g} < |x| < {:g}; Landau fields are singular "
             "at the origin".format(source, *_RADII))

    state = landau_eval(params, points)
    return {
        "A": params.A if np.isfinite(params.A) else "inf",
        "beta": params.beta,
        "axis": params.axis.tolist(),
        "points": PointTable(points, state, flux_tensor(state)),
    }, None


def cmd_flux(args):
    """Passes when the forces of the radii agree within --tol, and for a
    Landau field also when each is within --tol of b, relative to beta."""
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
    passed = deviation <= args.tol
    if isinstance(probe, LandauField):
        params = probe.params
        payload["expected_force"] = params.b.tolist()
        payload["max_relative_force_error"] = error = max(
            float(np.linalg.norm(b - params.b)) / max(params.beta, 1e-300)
            for b in forces)
        passed = passed and error <= args.tol
    return payload, passed, [["radius", "bx", "by", "bz"], *(
        [repr(float(R)), *(repr(float(v)) for v in b)]
        for R, b in zip(radii, forces))]


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
        params.b @ TestFunction(center, args.a, args.b, e)(origin)
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
    with _naming("--drift-beta"):   # fails in range too; see cmd_landau
        params = LandauParams.from_magnitude(args.drift_beta)
    drift = make_mollified_drift(params, args.grid, args.delta_in,
                                 args.delta_out)
    forcing = make_forcing(args.grid, args.amp, seed=args.seed)
    trace = run_contraction(drift, forcing, r=args.r, max_iters=args.iters,
                            tol=args.tol)
    ratios = trace.ratios
    max_late_ratio = max(ratios[1:]) if ratios[1:] else 0.0
    rows = [TRACE_CSV_COLUMNS, *(
        [str(i), repr(float(inc)),
         repr(float(ratios[i - 2])) if 2 <= i < len(ratios) + 2 else ""]
        for i, inc in enumerate(trace.increments, start=1))]
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
        "ratios": ratios,
        "max_ratio_after_first": max_late_ratio,
        "fixed_point_residual": trace.residual,
        "uniqueness_distance": trace.uniqueness_distance,
        "tolerance": args.tol,
    }, (trace.converged and max_late_ratio < 0.5
        and trace.uniqueness_distance <= 10.0 * args.tol), rows


class _ModeFlag(argparse.Action):
    """Store the value and note the flag in args.given, so the command can
    refuse a flag its mode does not read (a default is never noted)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (
            self.option_strings[0],)


# each norms mode flag, with the _ModeFlag flags that mode reads; the mode
# is the one whose flag is set (argparse's dest of "--weak-l3" is weak_l3)
_NORMS_MODE_FLAGS = {
    "--sweep-beta": (),
    "--decay": ("--field", "--ref", "--q", "--shells", "--tol"),
    "--weak-l3": ("--field", "--domain", "--resolution", "--expect", "--tol"),
    "--lorentz": ("--field", "--domain", "--resolution", "--expect", "--tol"),
}


def cmd_norms(args):
    mode, = (flag for flag in _NORMS_MODE_FLAGS
             if getattr(args, flag[2:].replace("-", "_")))
    given = getattr(args, "given", ())
    for flag in given:
        _require(flag in _NORMS_MODE_FLAGS[mode],
                 f"{flag} does not apply to norms {mode}")
    if mode == "--sweep-beta":
        start, stop, count = _numbers(args.sweep_beta, sep=":")
        betas = np.linspace(start, stop, int(count))
        with _naming("--sweep-beta"):   # fails in range too; see cmd_landau
            sups = [sup_speed_on_unit_sphere(LandauParams.from_magnitude(b))
                    for b in betas]
        nondecreasing = bool(np.all(np.diff(sups) >= 0.0))
        return {
            "betas": betas.tolist(),
            "sup_speed_on_unit_sphere": sups,
            "nondecreasing": nondecreasing,
        }, nondecreasing
    if mode == "--decay":
        _require(args.field and args.ref, "--decay needs --field and --ref")
        probe = _probe(args.field, "norms --decay", ("landau",))
        ref = _probe("landau:" + args.ref, "norms --decay", ("landau",),
                     "--ref").params
        graded = probe.params.b.tolist() == ref.b.tolist()
        _require(graded or "--tol" not in given,
                 "--tol grades nothing in norms --decay against another force")
        shells = _numbers(args.shells)
        report = decay_report(probe, ref, args.q, shells)
        payload = {
            "q": args.q,
            "shells": shells,
            "shell_weighted": report.meta["shell_weighted"],
            "value": report.value,
            "tolerance": args.tol,
        }
        return payload, report.value <= args.tol if graded else None
    _require(args.field, "norm computation needs --field")
    expected = args.expect
    if expected is None and mode == "--weak-l3" and args.field == "r^-1":
        expected = WEAK_L3_R_INV
    _require(expected is not None or "--tol" not in given,
             f"--tol grades nothing in norms {mode} of {args.field} without "
             "--expect")
    p, q = (3.0, np.inf) if mode == "--weak-l3" else _numbers(args.lorentz)
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
    if expected is None:
        return payload, None
    err = abs(report.value - expected) / abs(expected)
    payload.update(expected=expected, relative_error=err, tolerance=args.tol)
    return payload, err <= args.tol


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pointflow",
        description="Point-force singularities of stationary Navier-Stokes "
                    "flows: batch verification toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, func, tol=None, tol_help=None):
        p.add_argument("--output", type=_PATH,
                       help="write the JSON report here (default: stdout)")
        p.add_argument("--seed", type=_at_least(0), default=0,
                       help="random seed recorded in the report")
        if tol is not None:
            p.add_argument("--tol", type=_POSITIVE, default=tol, help=tol_help)
        p.set_defaults(func=func)

    p = sub.add_parser("landau", help="evaluate a Landau solution at points")
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--A", type=_SHAPE,
                       help="shape parameter (in (1, 1e8])")
    shape.add_argument("--beta", type=_MAGNITUDE,
                       help="force magnitude (0, or beta(A) for such A)")
    p.add_argument("--axis", type=_AXIS,
                   help="force direction as x,y,z (default e_z)")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--point", type=_VEC3, action="append",
                       help="evaluation point x,y,z (repeatable)")
    where.add_argument("--points-file", type=_PATH,
                       help="CSV of evaluation points (x,y,z)")
    p.add_argument("--csv", type=_PATH,
                   help="write x,y,z,ux,uy,uz,p rows here")
    add_common(p, cmd_landau)

    p = sub.add_parser("flux", help="force extraction by momentum flux")
    p.add_argument("--field", required=True, help="field spec (landau:A=2, ...)")
    p.add_argument("--radii", type=_RADIUS_LIST, required=True,
                   help="sphere radii r1,r2,...")
    p.add_argument("--n-theta", type=_SPHERE_N_THETA, default=64,
                   dest="n_theta")
    p.add_argument("--csv", type=_PATH, help="write radius,bx,by,bz rows here")
    add_common(p, cmd_flux, 1e-8,
               "pass threshold on the pairwise radius deviation and, for a "
               "Landau field, on the relative force error")

    p = sub.add_parser("verify", help="weak / pointwise / self-similarity checks")
    vsub = p.add_subparsers(dest="mode", required=True)

    pv = vsub.add_parser("weak", help="distributional pairing vs b phi(0)")
    pv.add_argument("--field", required=True)
    pv.add_argument("--center", type=_CENTER, default="0,0,0")
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
    p.add_argument("--drift-beta", type=_MAGNITUDE, default=0.5,
                   dest="drift_beta",
                   help="force magnitude of the mollified Landau drift")
    p.add_argument("--csv", type=_PATH,
                   help="write iter,increment,ratio rows here")
    add_common(p, cmd_picard, 1e-9)

    p = sub.add_parser("norms", help="norm machinery and diagnostic sweeps")
    p.add_argument("--field", action=_ModeFlag,
                   help="field spec (landau:A=2, r^-1, ...)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weak-l3", action="store_true")
    mode.add_argument("--lorentz", type=_LORENTZ_PAIR,
                      help="exponent pair p,q")
    mode.add_argument("--decay", action="store_true",
                      help="weighted shell deviation from a reference")
    mode.add_argument("--sweep-beta", type=_SWEEP,
                      help="start:stop:count sweep of sup |U| on |x| = 1")
    p.add_argument("--domain", type=_BALL, default="ball:2", action=_ModeFlag,
                   help="sampling domain ball:<R> (--weak-l3, --lorentz)")
    p.add_argument("--resolution", type=_RESOLUTION, default="400,16,32",
                   action=_ModeFlag,
                   help="ball sampling resolution nr,ntheta,nphi "
                        "(--weak-l3, --lorentz)")
    p.add_argument("--ref", action=_ModeFlag,
                   help="reference Landau parameters, e.g. A=2 (--decay)")
    p.add_argument("--q", type=_between(1.0, 3.0), default=2.0,
                   action=_ModeFlag, help="decay exponent (--decay)")
    p.add_argument("--shells", type=_SHELL_LIST, default="0.4,0.2,0.1,0.05",
                   action=_ModeFlag, help="shell radii (--decay)")
    p.add_argument("--expect", type=_NONZERO, action=_ModeFlag,
                   help="reference value for pass/fail (--weak-l3, --lorentz)")
    p.add_argument("--tol", type=_POSITIVE, default=0.02, action=_ModeFlag,
                   help="tolerance of the graded value (every mode but "
                        "--sweep-beta)")
    add_common(p, cmd_norms)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching EXIT_CONFIG
        return exc.code if exc.code else EXIT_PASS

    csv_path = getattr(args, "csv", None)
    start = time.perf_counter()
    try:
        payload, passed, *rows = args.func(args)
        code = EXIT_FAIL if passed is False else EXIT_PASS
    except ContractionDivergedError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        payload, passed, code = {"diverged": True}, False, EXIT_OUT_OF_REGIME
        # a diverged run has no trace table, so its --csv is left alone
        csv_path, rows = None, ()
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
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "given") and v is not None}
    report = _report(command, config, payload, passed)
    try:
        _emit(report, args.output, time.perf_counter() - start, csv_path,
              *rows)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
