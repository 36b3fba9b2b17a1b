"""Generated argv for every subcommand: the exit-code contract as a property.

Each flag's value is drawn from edge classes (0, -1, NaN, +-inf, 1e+-300,
1e+-49, "", "abc" and malformed lists) or a valid value, each path flag's
from a file in one temporary directory (which an earlier run may have
written), "" and a path in a missing directory, and each field spec from
landau: specs with those values, zero, r^-1, r^-2, an unknown kind and a
missing grid: file.  Four input files are drawn as grid: specs and as
--points-file: a small valid export of a Landau field on a 4^3 grid, its
header alone, the export with a bad row and the export with a node
missing.  Counts stay tiny, so a run takes milliseconds; counts at the
node cap stay with test_cli's type checks.

Every run must return from main without an exception or a warning, with
exit 0, 1, 2 or 4, or with exit 3 and a "numerical failure:" line when
its --field is the valid grid: a probe asked for a node outside its
samples (the one documented exit 3).  A run that reads one of the three
bad files exits 2.  An exit 2 must name a flag or a file.  Every option
string of every subcommand of build_parser, and every input file under
both flags, must be drawn, so a new flag fails until it is drawn here.  Hypothesis draws with
derandomize=True and a fixed example budget, so every run checks the same
argv.
"""

import argparse
import collections
import contextlib
import io
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointflow import LandauField, LandauParams
from pointflow.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERICAL,
                           EXIT_OUT_OF_REGIME, EXIT_PASS, POINT_CSV_COLUMNS,
                           build_parser, main)

EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
         "1e49", "1e-49", "", "abc"]
MALFORMED = ["1,,2", "1,", ",", "1;2;3", "1 2 3"]
MISSING = "no-such-dir/missing.csv"
TMP = tempfile.TemporaryDirectory()
PATHS = st.sampled_from([os.path.join(TMP.name, "a.json"),
                         os.path.join(TMP.name, "b.csv"), "", MISSING])


def export_rows(n=4, half=1.6):
    """The x,y,z,ux,uy,uz,p rows of landau:A=2 on an n^3 cell-centred grid
    over [-half, half]^3, as number text."""
    x = -half + 2.0 * half / n * (np.arange(n) + 0.5)
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), -1).reshape(-1, 3)
    state = LandauField(LandauParams.from_shape(2.0))(pts)
    rows = np.column_stack([pts, state.u, state.p]).tolist()
    return [[repr(v) for v in row] for row in rows]


def write_input(name, rows):
    path = os.path.join(TMP.name, name)
    with open(path, "w") as fh:
        fh.write("".join(",".join(row) + "\n"
                         for row in [POINT_CSV_COLUMNS, *rows]))
    return path


ROWS = export_rows()
VALID = write_input("valid.csv", ROWS)
HEADER_ONLY = write_input("header.csv", [])
# a y cell, which a points file reads too
BAD_ROW = write_input("bad-row.csv", ROWS[:5] + [
    [ROWS[5][0], "abc", *ROWS[5][2:]]] + ROWS[6:])
MISSING_NODE = write_input("missing-node.csv", ROWS[:-1])
INPUTS = [VALID, HEADER_ONLY, BAD_ROW, MISSING_NODE]
# the (flag, file) pairs that must exit 2; a node missing is no fault in a
# points file
FAULTY = {("--field", HEADER_ONLY), ("--field", BAD_ROW),
          ("--field", MISSING_NODE), ("--points-file", HEADER_ONLY),
          ("--points-file", BAD_ROW)}
GRIDS = st.sampled_from(INPUTS).map("grid:{}".format)
POINTS_FILES = st.sampled_from(INPUTS)


def sometimes(edges, *valid):
    """One of the valid texts or, in about one draw of four, of edges; so
    most argv hold one edge value or none, and many runs get past parsing."""
    return st.integers(0, 3).flatmap(
        lambda k: edges if k == 0 else st.sampled_from(valid))


def value(*valid):
    return sometimes(st.sampled_from(EDGES), *valid)


def items(*valid, sep=",", most=4):
    """A valid list text or a list of edge items joined by sep, malformed
    lists included."""
    return sometimes(st.one_of(
        st.sampled_from(MALFORMED),
        st.lists(st.sampled_from(EDGES + ["1", "0.5"]), max_size=most).map(
            sep.join)), *valid)


SPECS = sometimes(st.one_of(
    st.sampled_from(["r^-1", "r^-2", "landau:C=2", "landau:A", "torus",
                     f"grid:{MISSING}"]),
    st.builds("landau:{}={}".format, st.sampled_from(["A", "beta"]),
              st.sampled_from(EDGES)), GRIDS),
    "landau:A=2", "landau:beta=5", "zero")


def flag(name, values=None, required=False):
    """[name=value] with a drawn value (a switch without one when values
    is None), or sometimes [] unless required."""
    given_ = (st.just([name]) if values is None
              else values.map(lambda v: [f"{name}={v}"]))
    return given_ if required else st.one_of(st.just([]), given_)


def foreign(name, values):
    """[name=value] in about one draw of four, else []: a flag of another
    norms mode."""
    return sometimes(flag(name, values, True), [])


def argv(*parts):
    """The words and drawn flags of parts, in order."""
    return st.tuples(*[st.just([p]) if isinstance(p, str) else p
                       for p in parts]).map(lambda ps: sum(ps, []))


def common(tol=None, seed=False):
    """--output, --tol given its valid value, and with seed --seed, which
    only the commands that draw take."""
    return [flag("--output", PATHS),
            *([flag("--seed", value("3"))] if seed else []),
            *([flag("--tol", value(tol))] if tol else [])]


LANDAU = argv(
    "landau",
    st.sampled_from(["--A", "--beta"]).flatmap(
        lambda name: flag(name, value("2", "5"), True)),
    flag("--axis", items("0,0,1", "1e49,1e49,0")),
    st.one_of(flag("--point", items("0,0,1", "1,2,3"), True),
              flag("--points-file", st.one_of(PATHS, POINTS_FILES), True)),
    flag("--csv", PATHS), *common())
FLUX = argv(
    "flux", flag("--field", SPECS, True),
    flag("--radii", items("1", "0.5,2"), True), flag("--n-theta", value("8")),
    flag("--csv", PATHS), *common("1"))
WEAK = argv(
    "verify", "weak", flag("--field", SPECS, True),
    flag("--center", items("0,0,0", "0,0,1.2", "1e49,0,0")),
    flag("--a", value("0.5")), flag("--b", value("1")),
    flag("--n-r", value("3"), True), flag("--n-theta", value("2"), True),
    *common("0.02"))
NS = argv(
    "verify", "ns", flag("--field", SPECS, True),
    flag("--samples", value("10"), True), flag("--rmin", value("0.01")),
    flag("--rmax", value("1.5")), *common("1e-4", seed=True))
SELFSIM = argv(
    "verify", "selfsim", flag("--field", SPECS, True),
    flag("--lambda", value("0.5"), True), flag("--samples", value("10"), True),
    *common("1e-12", seed=True))
PICARD = argv(
    "picard", flag("--amp", value("0.1"), True),
    flag("--grid", value("16"), True), flag("--iters", value("3"), True),
    flag("--r", value("2")), flag("--delta-in", value("0.3")),
    flag("--delta-out", value("1.5")), flag("--drift-beta", value("0.5")),
    flag("--csv", PATHS), *common("1e-9", seed=True))
# each norms mode with its own flags and sometimes one of another mode
NORMS = st.one_of(
    argv("norms", st.one_of(flag("--weak-l3", required=True),
                            flag("--lorentz", items("3,2", "3,inf", most=3),
                                 True)),
         flag("--field", SPECS, True), flag("--domain", value("ball:1").map(
             lambda v: v if v.startswith("ball:") else f"ball:{v}")),
         flag("--resolution", items("4,2,4"), True),
         flag("--expect", value("1.6")), *common("0.02"),
         foreign("--shells", items("0.5"))),
    argv("norms", flag("--decay", required=True), flag("--field", SPECS, True),
         flag("--ref", st.builds("{}={}".format, st.sampled_from(
             ["A", "beta", "C"]), value("2", "5")), True),
         flag("--q", value("2")), flag("--shells", items("0.4,0.2")),
         *common("0.02"), foreign("--resolution", items("4,2,4"))),
    argv("norms", flag("--sweep-beta", st.one_of(
        items("1:2:3", sep=":", most=3),
        st.tuples(value("1"), value("2"), value("3")).map(":".join)), True),
         foreign("--field", SPECS), *common()))

# runs that read an input file, their other flags valid
FILE_RUNS = st.one_of(
    argv("landau", "--A=2", flag("--points-file", POINTS_FILES, True)),
    argv("flux", flag("--field", GRIDS, True), "--n-theta=8", "--tol=1",
         flag("--radii", st.sampled_from(["1", "0.5,2"]), True)),
    argv("verify", "selfsim", flag("--field", GRIDS, True), "--lambda=0.5",
         "--samples=10"),
    argv("norms", "--weak-l3", flag("--field", GRIDS, True),
         flag("--domain", st.sampled_from(["ball:1", "ball:1.5"]), True),
         "--resolution=4,2,4"))

# the option strings drawn for each subcommand, by its words
DRAWN = collections.defaultdict(set)
# the input files drawn, as (flag, path)
READ = set()


@pytest.fixture(scope="module", autouse=True)
def _remove_tmp():
    yield
    TMP.cleanup()


def subcommands(parser, words=()):
    """(words, parser) of each subcommand under parser that has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, words + (name,))
            return
    yield words, parser


@settings(derandomize=True, max_examples=500, deadline=None)
@given(argv=st.one_of(LANDAU, FLUX, WEAK, NS, SELFSIM, PICARD, NORMS,
                      FILE_RUNS))
def exit_contract(argv):
    words = tuple(a for a in argv if not a.startswith("--"))
    DRAWN[words].update(a.split("=")[0] for a in argv if a.startswith("--"))
    inputs = {(name, path)
              for name, _, value in (a.partition("=") for a in argv)
              if (path := value.removeprefix("grid:")) in INPUTS}
    READ.update(inputs)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if inputs & FAULTY:
        assert code == EXIT_CONFIG, err.getvalue()
    if code == EXIT_NUMERICAL:
        assert ("--field", VALID) in inputs, err.getvalue()
        assert err.getvalue().startswith("numerical failure:")
    else:
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG,
                        EXIT_OUT_OF_REGIME), err.getvalue()
    if code == EXIT_CONFIG:
        assert re.search("|".join(["--[a-z]", re.escape(MISSING),
                                   re.escape(TMP.name)]), err.getvalue()), (
            err.getvalue())


def test_generated_argv_keeps_the_exit_contract():
    DRAWN.clear()
    READ.clear()
    exit_contract()
    assert READ == {(flag, path) for flag in ("--field", "--points-file")
                    for path in INPUTS}
    for words, parser in subcommands(build_parser()):
        options = {option for action in parser._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert options - DRAWN[words] == set(), words
