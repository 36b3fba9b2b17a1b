"""Every CLI run of the payload corpus gives what it gave when recorded.

tests/corpus/corpus.json holds, for each config of
tests/corpus/regenerate.py, the exit code, stdout, stderr and warnings of
the run, its report with duration_s dropped (or, when it is large, the
sha256 of the report and of its payload) and every CSV it wrote, as
columns of cells (or the CSV's sha256 when it is large).  This test
re-runs the configs in-process and compares:

- exit codes, output streams, warnings, hashes, the column names and
  order of a CSV and every string, integer, bool and empty cell exactly;
- every float of a report or a CSV within the ulp budget that
  tests/corpus/ulp_budget.json gives its key: the innermost dict key it
  sits under, csv:<header cell> for a CSV column.  A change that moves
  last bits on purpose raises that key's budget, so its diff states the
  tolerance it needs.

Reports differ across numpy and scipy versions in their last bits, so the
test skips when either differs from the versions the corpus records.
"""

import importlib.util
import json
import math
import pathlib
import struct

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent / "corpus" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("corpus_regenerate", _SCRIPT)
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

CORPUS = json.loads(regenerate.CORPUS.read_text())
BUDGET = json.loads(regenerate.BUDGET.read_text())
RUNS = CORPUS["runs"]


def ulps(a, b):
    """How many doubles lie from a to b, -0.0 one step below 0.0."""
    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF) - 1
    return abs(ordered(a) - ordered(b))


def mismatches(got, want, path="report", key=None):
    """Where got differs from want beyond the budget, as messages."""
    if isinstance(want, float) and isinstance(got, float):
        budget = BUDGET.get(key, 0)
        if math.isnan(want) or math.isnan(got):
            same = math.isnan(want) and math.isnan(got)
        else:
            same = ulps(got, want) <= budget
        return [] if same else [
            f"{path}: {got!r} != {want!r} ({ulps(got, want)} ulps, "
            f"budget {budget} for key {key!r})"]
    if isinstance(want, dict) and isinstance(got, dict) \
            and list(got) == list(want):
        return [m for k in want
                for m in mismatches(got[k], want[k], f"{path}.{k}", k)]
    if isinstance(want, list) and isinstance(got, list) \
            and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]", key)]
    # dicts that reach here differ in their keys or in the keys' order
    if type(got) is type(want) and not isinstance(want, dict) \
            and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The records of this tree's runs, by name."""
    recorded, running = CORPUS["environment"], regenerate.environment()
    for lib in ("numpy", "scipy"):
        if running[lib] != recorded[lib]:
            pytest.skip(f"the corpus was recorded with {lib} "
                        f"{recorded[lib]}, this is {lib} {running[lib]}")
    records = regenerate.run_all(tmp_path_factory.mktemp("corpus"))
    return {record["name"]: record for record in records}


def test_corpus_holds_every_config():
    assert [[r["name"], r["argv"]] for r in RUNS] == [
        [name, argv] for name, argv in regenerate.CONFIGS]


def test_configs_run_every_field_spec_and_a_stalled_picard():
    # every form parse_field_spec accepts, and the picard path that
    # returns its last iterate unconverged
    specs = [argv[i + 1] for _, argv in regenerate.CONFIGS
             for i, flag in enumerate(argv[:-1]) if flag == "--field"]
    for form in ("landau:A=", "landau:beta=", "zero", "grid:", "r^-1", "r^-2"):
        assert any(spec.startswith(form) for spec in specs), form
    assert any(r["argv"][0] == "picard"
               and r.get("report", {}).get("payload", {}).get("converged")
               is False for r in RUNS)


def test_budget_names_every_float_key():
    keys = regenerate.float_keys([[r.get("report", {}), r["csv"]]
                                  for r in RUNS])
    assert keys <= BUDGET.keys()
    assert all(isinstance(v, int) and v >= 0 for v in BUDGET.values())


def test_ulps():
    assert ulps(1.0, 1.0) == 0
    assert ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulps(0.0, -0.0) == 1
    assert ulps(-5e-324, 5e-324) == 3


def test_mismatches_apply_the_budget(monkeypatch):
    one_up = math.nextafter(1.0, 2.0)
    assert mismatches({"value": one_up}, {"value": 1.0})
    monkeypatch.setitem(BUDGET, "value", 1)
    assert not mismatches({"value": one_up}, {"value": 1.0})
    assert mismatches({"value": 1}, {"value": 1.0})
    assert mismatches({"value": [1.0]}, {"value": [1.0, 1.0]})
    assert mismatches({"b": 1.0, "a": 1.0}, {"a": 1.0, "b": 1.0})


def test_csv_columns():
    table = regenerate.csv_columns(b"iter,increment,ratio\r\n1,0.5,\r\n"
                                   b"2,0.25,0.5\r\n")
    assert table == {"csv:iter": [1, 2], "csv:increment": [0.5, 0.25],
                     "csv:ratio": ["", 0.5]}
    assert regenerate.csv_columns(b"a,b\r\n1\r\n") is None


@pytest.mark.parametrize("want", RUNS, ids=[r["name"] for r in RUNS])
def test_run_matches_the_corpus(fresh, want):
    got = fresh[want["name"]]
    for field in ("exit", "stdout", "stderr", "warnings", "csv_sha256",
                  "report_sha256", "report_bytes", "report_payload_sha256"):
        assert got.get(field) == want.get(field), field
    assert ("report" in got) == ("report" in want)
    assert mismatches(got.get("report"), want.get("report")) == []
    assert mismatches(got["csv"], want["csv"], "csv") == []
