"""Regenerate the payload corpus that tests/test_payload_corpus.py checks.

Runs every config of CONFIGS in-process through pointflow.cli.main, in
order, inside one scratch directory with fixed relative paths (the config
echo of a report names them), and writes what each run gave to
corpus.json beside this script:

- its exit code, stderr, stdout and the warnings it raised;
- its report without the duration_s line: as JSON, or by sha256 and size
  when the report text is over REPORT_INLINE_BYTES, together with the
  sha256 of json.dumps(payload, sort_keys=True), so that a change of
  layout alone moves only the report's own hash;
- every CSV it wrote: by value, as its columns keyed csv:<header cell>
  with each cell an int, a float or the text (an empty cell stays ""), or
  by sha256 when the file is over REPORT_INLINE_BYTES or not rectangular.

It prints the name of every run whose record differs from the one in the
corpus.json it replaces (a new run included).

The Python, numpy and scipy versions are recorded too; the test skips when
numpy or scipy differ.  ulp_budget.json, also beside this script, is the
per-key float tolerance of the test (a CSV column's key is csv:<header
cell>); regenerating keeps its entries and adds a 0 budget for every new
key.

Run from the repository root, with the commit whose reports are the
reference checked out:

    PYTHONPATH=src python tests/corpus/regenerate.py
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import pathlib
import platform
import re
import sys
import tempfile
import warnings

import numpy as np
import scipy

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
BUDGET = HERE / "ulp_budget.json"

# a report or CSV longer than this is kept by sha256 only
REPORT_INLINE_BYTES = 64 * 1024
_DURATION_LINE = re.compile(r'^  "duration_s": .*\n', re.MULTILINE)

# the 12^3 cell-centred grid of the landau export, inside [-1.65, 1.65]^3
_GRID_AXIS = ((np.arange(12) - 5.5) * 0.3).tolist()
# the 13^3 cell-centred grid of the export whose 2,197 points cross four
# cli.EMIT_CHUNK (512) boundaries, on [-1.6, 1.65]^3 so that no point is
# the origin
_GRID_AXIS_13 = ((np.arange(13) - 5.9) * 0.25).tolist()
# (file, header, grid axis, how many of its points); the first 1,025
# points of the 13^3 grid are two full cli.EMIT_CHUNK chunks and one of a
# single point, and the headerless file starts with a row of numbers
_POINTS_FILES = (("points.csv", "x,y,z\n", _GRID_AXIS, None),
                 ("points13.csv", "x,y,z\n", _GRID_AXIS_13, None),
                 ("points1025.csv", "x,y,z\n", _GRID_AXIS_13, 1025),
                 ("points-bare.csv", "", _GRID_AXIS, 27))


def _picard(grid, amp, seed, *extra):
    name = f"picard-g{grid}-a{amp}-s{seed}" + "".join(extra)
    return name, ["picard", "--grid", str(grid), "--amp", str(amp),
                  "--seed", str(seed), *extra, "--csv", name + ".csv"]


GRID_FIELD = "grid:export.csv"

CONFIGS = [
    *(_picard(g, a, s)
      for g in (16, 32) for a in ("0", "1e-2") for s in (0, 5)),
    _picard(64, "1e-2", 1),
    _picard(16, "1e-2", 0, "--r", "1.5"),
    _picard(32, "1e-2", 0, "--drift-beta", "0"),
    _picard(16, "50", 0),
    ("landau-export", ["landau", "--beta", "2.5", "--axis", "0,0.6,0.8",
                       "--points-file", "points.csv", "--csv", "export.csv"]),
    ("landau-export-13", ["landau", "--A", "3", "--points-file", "points13.csv",
                          "--csv", "export13.csv"]),
    ("landau-point-tilted", ["landau", "--beta", "2.5",
                             "--axis", "0.3,-0.4,0.866",
                             "--point=-0.5,0.25,1"]),
    ("landau-export-1025", ["landau", "--beta", "2.5",
                            "--axis", "0.3,-0.4,0.866",
                            "--points-file", "points1025.csv",
                            "--csv", "export1025.csv"]),
    ("grid-flux", ["flux", "--field", GRID_FIELD, "--radii", "0.6,1.2",
                   "--n-theta", "16", "--csv", "grid-flux.csv"]),
    ("grid-weak-l3", ["norms", "--field", GRID_FIELD, "--weak-l3",
                      "--domain", "ball:1.5", "--resolution", "60,8,16"]),
    ("grid-lorentz", ["norms", "--field", GRID_FIELD, "--lorentz", "3,2",
                      "--domain", "ball:1.5", "--resolution", "60,8,16"]),
    ("grid-selfsim", ["verify", "selfsim", "--field", GRID_FIELD,
                      "--lambda", "0.5", "--samples", "50"]),
    ("grid-flux-outside", ["flux", "--field", GRID_FIELD, "--radii", "3"]),
    ("verify-weak", ["verify", "weak", "--field", "landau:A=2",
                     "--center", "0.1,-0.2,0.05", "--n-r", "16",
                     "--n-theta", "16"]),
    ("verify-ns", ["verify", "ns", "--field", "landau:beta=3", "--seed", "7"]),
    ("verify-ns-jet", ["verify", "ns", "--field", "landau:A=1.001",
                       "--samples", "1000", "--seed", "0"]),
    ("verify-selfsim", ["verify", "selfsim", "--field", "landau:A=1.5",
                        "--lambda", "0.3"]),
    ("flux", ["flux", "--field", "landau:A=2", "--radii", "0.5,1,1.5",
              "--n-theta", "32", "--csv", "flux.csv"]),
    ("decay-same", ["norms", "--decay", "--field", "landau:A=2",
                    "--ref", "A=2"]),
    ("decay-other", ["norms", "--decay", "--field", "landau:A=2",
                     "--ref", "A=3"]),
    ("sweep", ["norms", "--sweep-beta", "0.5:40:6"]),
    ("weak-l3-r-inv", ["norms", "--field", "r^-1", "--weak-l3",
                       "--resolution", "200,16,32"]),
    ("bad-delta", ["picard", "--grid", "16", "--amp", "0",
                   "--delta-in", "1", "--delta-out", "0.5"]),
    ("bad-field", ["flux", "--field", "landau:C=2", "--radii", "1"]),
    ("bad-grid-file", ["flux", "--field", "grid:missing.csv", "--radii", "1"]),
    ("flux-zero", ["flux", "--field", "zero", "--radii", "1"]),
    ("lorentz-r-inv2", ["norms", "--field", "r^-2", "--lorentz", "1.5,inf",
                        "--resolution", "200,16,32"]),
    _picard(16, "1e-2", 0, "--iters", "2"),
    ("landau-points-bare", ["landau", "--A", "2",
                            "--points-file", "points-bare.csv"]),
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _cell(text):
    """text as an int, else as a float, else as itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def csv_columns(data):
    """{csv:<header cell>: the column's cells} of CSV bytes, in header
    order; None when a row's length differs from the header's."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    if any(len(row) != len(header) for row in rows):
        return None
    return {f"csv:{name}": [_cell(row[i]) for row in rows]
            for i, name in enumerate(header)}


def write_inputs(workdir):
    """The points files of the landau exports."""
    for name, header, axis, count in _POINTS_FILES:
        points = itertools.islice(itertools.product(axis, repeat=3), count)
        with open(workdir / name, "w") as fh:
            fh.write(header)
            fh.writelines(f"{x!r},{y!r},{z!r}\n" for x, y, z in points)


def run_one(name, argv):
    """What main(argv + --output <name>.json) gives, as a corpus record.

    Runs in the current directory, which holds the inputs and the outputs
    of the configs before it.
    """
    from pointflow.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--output", name + ".json"])
    record = {"name": name, "argv": argv, "exit": code,
              "stdout": out.getvalue(), "stderr": err.getvalue(),
              "warnings": [f"{w.category.__name__}: {w.message}"
                           for w in caught]}
    report = pathlib.Path(name + ".json")
    if report.exists():
        text = _DURATION_LINE.sub("", report.read_text())
        if len(text) > REPORT_INLINE_BYTES:
            record["report_sha256"] = _sha256(text.encode())
            record["report_bytes"] = len(text)
            record["report_payload_sha256"] = _sha256(json.dumps(
                json.loads(text)["payload"], sort_keys=True).encode())
        else:
            record["report"] = json.loads(text)
    record["csv"], record["csv_sha256"] = {}, {}
    for flag, path in zip(argv, argv[1:]):
        if flag == "--csv" and pathlib.Path(path).exists():
            data = pathlib.Path(path).read_bytes()
            table = (csv_columns(data) if len(data) <= REPORT_INLINE_BYTES
                     else None)
            if table is None:
                record["csv_sha256"][path] = _sha256(data)
            else:
                record["csv"][path] = table
    return record


def run_all(workdir):
    """The records of every config, run in order in workdir."""
    workdir = pathlib.Path(workdir)
    write_inputs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [run_one(name, argv) for name, argv in CONFIGS]
    finally:
        os.chdir(cwd)


def environment():
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def float_keys(value, key=None):
    """The dict keys under which value holds a float, itself included."""
    if isinstance(value, dict):
        return set().union(*(float_keys(v, k) for k, v in value.items()))
    if isinstance(value, list):
        return set().union(*(float_keys(v, key) for v in value))
    return {key} if isinstance(value, float) else set()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(tmp)
    previous = (json.loads(CORPUS.read_text())["runs"]
                if CORPUS.exists() else [])
    previous = {r["name"]: json.dumps(r, sort_keys=True) for r in previous}
    for record in records:
        if previous.get(record["name"]) != json.dumps(record, sort_keys=True):
            print(f"changed: {record['name']}")
    CORPUS.write_text(json.dumps({"environment": environment(),
                                  "runs": records}, indent=1) + "\n")
    budget = json.loads(BUDGET.read_text()) if BUDGET.exists() else {}
    for record in records:
        for key in float_keys([record.get("report", {}), record["csv"]]):
            budget.setdefault(key, 0)
    BUDGET.write_text(json.dumps(budget, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} runs -> {CORPUS.relative_to(HERE.parents[1])}")


if __name__ == "__main__":
    sys.exit(main())
