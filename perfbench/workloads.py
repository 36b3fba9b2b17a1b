"""The benchmark's three workloads: seeded inputs, jobs and output checks.

A job calls pointflow only through its public entry points: the CLI
in-process (`pointflow.cli.main(argv)`) and, for verify_grid, the public
`parse_field_spec` and `extract_force_weak`.  Names are looked up on the
modules at call time so that the traced run sees its wrappers.

Every check compares an output with a value the benchmark computes on
its own (an independent closed form of the Landau solution, its weak-L3
quasinorm by adaptive quadrature, the force vector of the field it
asked for) or with a tolerance of the paper, never with the program's
own pass flag alone.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
from scipy.integrate import quad

import pointflow
import reduce_report
from pointflow import cli

# the paper's acceptance tolerances
FLUX_FORCE_TOL = 1e-6          # flux force against b, relative to beta
FLUX_RADIUS_TOL = 1e-8         # pairwise deviation across radii (CLI default)
WEAK_TOL = 0.02                # weak pairing, relative to max(beta, 1)
NS_TOL = 1e-4                  # r^3-weighted momentum residual
SELFSIM_TOL = 1e-12            # discrete self-similarity (CLI default)
RATIO_LIMIT = 0.5              # Picard increment ratios after the first
UNIQUENESS_FACTOR = 10.0       # uniqueness distance <= 10 tol
PICARD_TOL = 1e-9              # CLI default Picard tolerance
# tolerances of this benchmark, 4 to 5 times the worst error seen over
# 200 verify_landau and 30 verify_grid seeds: the closed-form weak-L3 of
# a Landau field, and what survives the export to a 32^3 grid and the
# trilinear interpolation back
WEAK_L3_TOL = 5e-3
GRID_FLUX_TOL = 2e-2
GRID_WEAK_TOL = 3e-3
GRID_WEAK_L3_TOL = 1e-2
EXPORT_TOL = 1e-10             # exported u, p against the closed form


# ---------------------------------------------------------------------------
# independent closed form of the Landau family


def beta_of_A(A):
    """Force magnitude of the Landau solution with shape parameter A > 1.

    Above A = 20 the closed form cancels A against (A^2/2) log(...), so
    its expansion in x = 1/A is summed instead:
    beta / (16 pi) = sum_k (4/3 - 1/(2k+3)) x^(2k+1).
    """
    if A > 20.0:
        x = 1.0 / A
        return 16.0 * math.pi * math.fsum(
            (4.0 / 3.0 - 1.0 / (2 * k + 3)) * x**(2 * k + 1) for k in range(12))
    return 16.0 * math.pi * (A + 0.5 * A * A * math.log1p(-2.0 / (A + 1.0))
                             + 4.0 * A / (3.0 * (A * A - 1.0)))


def A_of_beta(beta):
    """Shape parameter by bisection in log(A - 1); beta_of_A decreases."""
    lo, hi = math.log(1e-8), math.log(1e7)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if beta_of_A(1.0 + math.exp(mid)) > beta:
            lo = mid
        else:
            hi = mid
    return 1.0 + math.exp(0.5 * (lo + hi))


def landau_reference(A, axis, pts):
    """Velocity and pressure in spherical form, u = (2/r)[F e_r - sin(t)/(A-c) e_t],
    p = 4 (A c - 1) / (r^2 (A - c)^2), with c = cos(t) along the axis."""
    r = np.linalg.norm(pts, axis=1)
    e_r = pts / r[:, None]
    c = e_r @ axis
    d = A - c
    # sin(t) e_t = c e_r - axis
    u = (2.0 / r)[:, None] * (((A * A - 1.0) / d**2 - 1.0)[:, None] * e_r
                              - (c[:, None] * e_r - axis) / d[:, None])
    p = 4.0 * (A * c - 1.0) / (r**2 * d**2)
    return u, p


def weak_l3_reference(beta):
    """Weak-L3 quasinorm of a Landau field on any ball about the origin.

    For a (-1)-homogeneous field, lam * mu(|u| > lam)^(1/3) increases to
    ((1/3) int_{S^2} |u|^3)^(1/3); by axisymmetry that is a 1-D integral
    in c = cos(theta) of the unit-sphere speed.
    """
    A = A_of_beta(beta)

    def speed_cubed(c):
        d = A - c
        return 8.0 * (((A * A - 1.0) / d**2 - 1.0)**2 + (1.0 - c * c) / d**2)**1.5

    value, _ = quad(speed_cubed, -1.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=400)
    return (2.0 * math.pi / 3.0 * value)**(1.0 / 3.0)


# ---------------------------------------------------------------------------
# job plumbing


class Job:
    """Outputs of one job: exit codes, then (after collect) reports."""

    def __init__(self):
        self.codes = {}
        self.files = {}
        self.values = {}
        self.reports = {}
        self.digest = hashlib.sha256()
        self.bytes_written = 0

    def collect(self):
        """Read the job's files; runs after the job, outside its timing."""
        for step, (report, extra, sample) in self.files.items():
            for path in (report, *extra):
                if os.path.exists(path):
                    self.bytes_written += os.path.getsize(path)
            if not os.path.exists(report):
                continue
            if sample is None:
                digest, self.reports[step] = reduce_report.reduce(report)
            else:
                out = subprocess.run(
                    [sys.executable, reduce_report.__file__, report,
                     *map(str, sample)],
                    capture_output=True, text=True, timeout=120, check=True)
                result = json.loads(out.stdout)
                digest, self.reports[step] = result["digest"], result["report"]
            self.digest.update(f"{step}\0{digest}\0".encode())
        for name, value in sorted(self.values.items()):
            self.digest.update(name.encode() + b"\0"
                               + repr(np.asarray(value).tolist()).encode())
        return self


def run_cli(job, step, argv, workdir, extra_files=(), sample=None):
    """Run `pointflow <argv> --output <step>.json` in-process.

    sample = (seed, count) has collect() parse the report in a child
    process and keep only `count` of its points.
    """
    out = os.path.join(workdir, f"{step}.json")
    job.codes[step] = cli.main(list(argv) + ["--output", out])
    job.files[step] = (out, extra_files, sample)


def _rel(a, b, scale):
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float))) / scale


class Checker:
    """Collects failed checks of one job as readable strings."""

    def __init__(self, job):
        self.job = job
        self.problems = []

    def that(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def report(self, step, passed=(True,)):
        """Exit code 0 and pass flag of a CLI step; returns its payload."""
        got = self.job.codes.get(step)
        if not self.that(got == 0, f"{step}: exit code {got}, expected 0"):
            return None
        report = self.job.reports.get(step)
        if not self.that(report is not None, f"{step}: no report"):
            return None
        self.that(report.get("passed") in passed,
                  f"{step}: passed = {report.get('passed')!r}")
        return report["payload"]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A workload: `name`, `traced_jobs` (the jobs a --trace 1 run times
    untraced and traced), `draw(rng)` for one job config, `run` and
    `check`."""

    def configs(self, seed, count=256):
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        return [self.draw(rng) for _ in range(count)]

    def setup(self, workdir):
        """Write the inputs shared by every job (none by default)."""


class Contraction(Workload):
    """picard --grid 64 --amp 1e-2 --seed <s> at the default r and drift."""

    name = "contraction"
    traced_jobs = 2

    def __init__(self, grid=64):
        self.grid = grid

    def draw(self, rng):
        return {"seed": int(rng.integers(0, 2**31 - 1))}

    def run(self, cfg, workdir):
        job = Job()
        run_cli(job, "picard", ["picard", "--grid", str(self.grid), "--amp",
                                "1e-2", "--seed", str(cfg["seed"])], workdir)
        return job

    def check(self, cfg, job):
        chk = Checker(job)
        p = chk.report("picard")
        if p is None:
            return chk.problems
        chk.that(p["grid"] == self.grid and p["amplitude"] == 1e-2,
                 "picard: config echo differs from the job")
        chk.that(p["converged"] and p["increments"][-1] < PICARD_TOL,
                 "picard: did not converge to tol")
        late = p["ratios"][1:]
        chk.that(bool(late) and max(late) < RATIO_LIMIT
                 and max(late) == p["max_ratio_after_first"],
                 f"picard: increment ratios {p['ratios']} not below 1/2")
        chk.that(p["uniqueness_distance"] <= UNIQUENESS_FACTOR * PICARD_TOL,
                 f"picard: uniqueness distance {p['uniqueness_distance']}")
        chk.that(p["iterations"] == len(p["increments"]) == len(p["norms"]),
                 "picard: iteration count disagrees with the trace")
        return chk.problems


class VerifyLandau(Workload):
    """The default CLI checks on one seeded random landau:beta=<b> field."""

    name = "verify_landau"
    traced_jobs = 8

    def draw(self, rng):
        return {"beta": float(10.0**rng.uniform(-1.0, 2.0)),
                "lam": float(rng.uniform(0.2, 0.9)),
                "seed": int(rng.integers(0, 2**31 - 1))}

    def run(self, cfg, workdir):
        job = Job()
        beta, seed = cfg["beta"], str(cfg["seed"])
        field = f"landau:beta={beta!r}"
        run_cli(job, "flux", ["flux", "--field", field,
                              "--radii", "0.5,1,1.5"], workdir)
        run_cli(job, "weak", ["verify", "weak", "--field", field], workdir)
        run_cli(job, "ns", ["verify", "ns", "--field", field, "--seed", seed],
                workdir)
        run_cli(job, "selfsim", ["verify", "selfsim", "--field", field,
                                 "--lambda", repr(cfg["lam"]), "--seed", seed],
                workdir)
        run_cli(job, "weak_l3", ["norms", "--field", field, "--weak-l3"],
                workdir)
        run_cli(job, "decay", ["norms", "--field", field, "--decay",
                               "--ref", f"beta={beta!r}"], workdir)
        run_cli(job, "sweep", ["norms", "--sweep-beta", "1:100:50"], workdir)
        return job

    def check(self, cfg, job):
        chk = Checker(job)
        beta = cfg["beta"]
        b = np.array([0.0, 0.0, beta])
        p = chk.report("flux")
        if p is not None:
            worst = max(_rel(f, b, beta) for f in p["force_per_radius"])
            chk.that(worst <= FLUX_FORCE_TOL, f"flux: force error {worst:.3g}")
            chk.that(p["max_pairwise_relative_deviation"] <= FLUX_RADIUS_TOL,
                     "flux: force depends on the radius")
        p = chk.report("weak")
        if p is not None:
            err = _rel(p["extracted_force"], b, max(beta, 1.0))
            chk.that(err <= WEAK_TOL, f"weak: pairing error {err:.3g}")
        p = chk.report("ns")
        if p is not None:
            chk.that(p["max_weighted_residual"] <= NS_TOL and p["samples"] == 100,
                     f"ns: residual {p['max_weighted_residual']:.3g}")
        p = chk.report("selfsim")
        if p is not None:
            chk.that(p["max_deviation"] <= SELFSIM_TOL,
                     f"selfsim: deviation {p['max_deviation']:.3g}")
        p = chk.report("weak_l3", passed=(None,))
        if p is not None:
            ref = weak_l3_reference(beta)
            err = abs(p["value"] - ref) / ref
            chk.that(err <= WEAK_L3_TOL, f"weak_l3: error {err:.3g}")
        p = chk.report("decay")
        if p is not None:
            chk.that(p["value"] <= 1e-12, f"decay: self-deviation {p['value']}")
        p = chk.report("sweep")
        if p is not None:
            sups = p["sup_speed_on_unit_sphere"]
            chk.that(len(sups) == 50 and all(np.diff(sups) >= 0.0),
                     "sweep: sup speed not nondecreasing in beta")
        return chk.problems


class VerifyGrid(Workload):
    """Export a seeded Landau field on a cell-centred grid, recover it."""

    name = "verify_grid"
    traced_jobs = 2
    half_width = 2.0
    spot_checks = 64

    def __init__(self, cells=32):
        self.cells = cells

    def points_path(self, workdir):
        return os.path.join(workdir, "grid_points.csv")

    def setup(self, workdir):
        h = 2.0 * self.half_width / self.cells
        x = -self.half_width + h * (np.arange(self.cells) + 0.5)
        pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1)
        with open(self.points_path(workdir), "w") as fh:
            fh.write("x,y,z\n")
            fh.writelines(f"{a!r},{b!r},{c!r}\n"
                          for a, b, c in pts.reshape(-1, 3).tolist())

    def draw(self, rng):
        axis = rng.normal(size=3)
        return {"beta": float(10.0**rng.uniform(-1.0, 1.0)),
                "axis": (axis / np.linalg.norm(axis)).tolist(),
                "spot": int(rng.integers(0, 2**31 - 1))}

    def run(self, cfg, workdir):
        job = Job()
        grid = os.path.join(workdir, "grid_field.csv")
        axis = ",".join(repr(v) for v in cfg["axis"])
        run_cli(job, "landau", ["landau", "--beta", repr(cfg["beta"]),
                                f"--axis={axis}", "--points-file",
                                self.points_path(workdir), "--csv", grid],
                workdir, extra_files=(grid,),
                sample=(cfg["spot"], self.spot_checks))
        run_cli(job, "flux", ["flux", "--field", f"grid:{grid}",
                              "--radii", "1,1.5", "--tol", repr(GRID_FLUX_TOL)],
                workdir)
        run_cli(job, "weak_l3", ["norms", "--field", f"grid:{grid}",
                                 "--weak-l3", "--domain", "ball:1.5"], workdir)
        _, probe = cli.parse_field_spec(f"grid:{grid}")
        job.values["weak_force"] = pointflow.extract_force_weak(probe).value
        return job

    def check(self, cfg, job):
        chk = Checker(job)
        beta = cfg["beta"]
        axis = np.array(cfg["axis"])
        b = beta * axis
        p = chk.report("landau", passed=(None,))
        if p is not None:
            A = float(p["A"])
            chk.that(abs(beta_of_A(A) - beta) <= 1e-10 * beta
                     and _rel(p["axis"], axis, 1.0) <= 1e-12,
                     "landau: reported A or axis is not the requested field")
            chk.that(p["point_count"] == self.cells**3, "landau: point count")
            x = np.array([pt["x"] for pt in p["points"]])
            u = np.array([pt["u"] for pt in p["points"]])
            pr = np.array([pt["p"] for pt in p["points"]])
            u_ref, p_ref = landau_reference(A, axis, x)
            scale = np.linalg.norm(u_ref, axis=1)
            chk.that(np.all(np.linalg.norm(u - u_ref, axis=1) <= EXPORT_TOL * scale)
                     and np.all(np.abs(pr - p_ref)
                                <= EXPORT_TOL * (np.abs(p_ref) + scale**2)),
                     "landau: exported values differ from the closed form")
        p = chk.report("flux")
        if p is not None:
            worst = max(_rel(f, b, beta) for f in p["force_per_radius"])
            chk.that(worst <= GRID_FLUX_TOL, f"grid flux: force error {worst:.3g}")
        p = chk.report("weak_l3", passed=(None,))
        if p is not None:
            ref = weak_l3_reference(beta)
            err = abs(p["value"] - ref) / ref
            chk.that(err <= GRID_WEAK_L3_TOL, f"grid weak_l3: error {err:.3g}")
        err = _rel(job.values["weak_force"], b, beta)
        chk.that(err <= GRID_WEAK_TOL, f"grid weak force: error {err:.3g}")
        return chk.problems


WORKLOADS = {w.name: w for w in (Contraction, VerifyLandau, VerifyGrid)}
