"""Generated argv for every subcommand: the exit-code contract as a property.

Each flag's value is drawn from edge classes (0, -1, NaN, +-inf, 1e+-300,
1e+-49, "", "abc" and malformed lists) or a valid value, and each field
spec from landau: specs with those values, zero, r^-1, r^-2, an unknown
kind and a missing grid: file.  Counts stay tiny, so a run takes
milliseconds; counts at the node cap stay with test_cli's type checks.

Every run must return from main without an exception or a warning, with
exit 0, 1, 2 or 4: no grid: file is ever read, so no probe leaves its
samples (the one documented exit 3).  An exit 2 must name a flag or the
file.  Hypothesis draws with derandomize=True and a fixed example budget,
so every run checks the same argv.
"""

import contextlib
import io
import re
import warnings

from hypothesis import given, settings, strategies as st

from pointflow.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_OUT_OF_REGIME,
                           EXIT_PASS, main)

EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
         "1e49", "1e-49", "", "abc"]
MALFORMED = ["1,,2", "1,", ",", "1;2;3", "1 2 3"]
MISSING = "no-such-dir/missing.csv"


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
              st.sampled_from(EDGES))), "landau:A=2", "landau:beta=5", "zero")


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


LANDAU = argv(
    "landau",
    st.sampled_from(["--A", "--beta"]).flatmap(
        lambda name: flag(name, value("2", "5"), True)),
    flag("--axis", items("0,0,1", "1e49,1e49,0")),
    st.one_of(flag("--point", items("0,0,1", "1,2,3"), True),
              flag("--points-file", st.just(MISSING), True)))
FLUX = argv(
    "flux", flag("--field", SPECS, True),
    flag("--radii", items("1", "0.5,2"), True), flag("--n-theta", value("8")),
    flag("--tol", value("1")), flag("--seed", value("3")))
WEAK = argv(
    "verify", "weak", flag("--field", SPECS, True),
    flag("--center", items("0,0,0", "0,0,1.2", "1e49,0,0")),
    flag("--a", value("0.5")), flag("--b", value("1")),
    flag("--n-r", value("3"), True), flag("--n-theta", value("2"), True),
    flag("--tol", value("0.02")))
NS = argv(
    "verify", "ns", flag("--field", SPECS, True),
    flag("--samples", value("10"), True), flag("--rmin", value("0.01")),
    flag("--rmax", value("1.5")), flag("--seed", value("7")))
SELFSIM = argv(
    "verify", "selfsim", flag("--field", SPECS, True),
    flag("--lambda", value("0.5"), True), flag("--samples", value("10"), True))
PICARD = argv(
    "picard", flag("--amp", value("0.1"), True),
    flag("--grid", value("16"), True), flag("--iters", value("3"), True),
    flag("--r", value("2")), flag("--delta-in", value("0.3")),
    flag("--delta-out", value("1.5")), flag("--drift-beta", value("0.5")),
    flag("--tol", value("1e-9")))
# each norms mode with its own flags and sometimes one of another mode
NORMS = st.one_of(
    argv("norms", st.one_of(flag("--weak-l3", required=True),
                            flag("--lorentz", items("3,2", "3,inf", most=3),
                                 True)),
         flag("--field", SPECS, True), flag("--domain", value("ball:1").map(
             lambda v: v if v.startswith("ball:") else f"ball:{v}")),
         flag("--resolution", items("4,2,4"), True),
         flag("--expect", value("1.6")), flag("--tol", value("0.02")),
         foreign("--shells", items("0.5"))),
    argv("norms", flag("--decay", required=True), flag("--field", SPECS, True),
         flag("--ref", st.builds("{}={}".format, st.sampled_from(
             ["A", "beta", "C"]), value("2", "5")), True),
         flag("--q", value("2")), flag("--shells", items("0.4,0.2")),
         flag("--tol", value("0.02")), foreign("--resolution", items("4,2,4"))),
    argv("norms", flag("--sweep-beta", st.one_of(
        items("1:2:3", sep=":", most=3),
        st.tuples(value("1"), value("2"), value("3")).map(":".join)), True),
         foreign("--field", SPECS)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(argv=st.one_of(LANDAU, FLUX, WEAK, NS, SELFSIM, PICARD, NORMS))
def test_generated_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_OUT_OF_REGIME), (
        err.getvalue())
    if code == EXIT_CONFIG:
        assert re.search("--[a-z]|" + re.escape(MISSING), err.getvalue()), (
            err.getvalue())
