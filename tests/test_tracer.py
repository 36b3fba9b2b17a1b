"""The traced benchmark still fits the library.

perfbench/tracer.py wraps library functions and methods by name.  A
renamed or deleted name would break `perfbench/run.py --trace 1` without
failing any other test, so this loads the tracer by path (reading it,
never editing it), installs it over the current library and checks that
every pointflow name it wraps resolves and that uninstalling puts every
original back.  It also traces one small Picard run and replays the
run's trace from the recorded spans, as the traced benchmark does.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

import pointflow  # noqa: F401  (the tracer scans the loaded pointflow modules)

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_entries(tracing):
    return [(module, attr) for module, attr, *_ in tracing.LAYER_SPANS
            if module.startswith("pointflow.")]


def resolve(module_name, attr):
    """The object (module, attr) names: a function, or a method as its
    class stores it."""
    owner = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        return owner.__dict__[name]
    return getattr(owner, name)


def bindings():
    """Every attribute of the modules the tracer patches (pointflow's and
    the FFT modules) and of the classes they define."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name in ("pointflow", "numpy.fft",
                                           "scipy.fft")
                                  or name.startswith("pointflow.")):
            continue
        for key, value in vars(module).items():
            found[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for method, fn in vars(value).items():
                    found[(name, key, method)] = fn
    return found


def test_every_library_span_resolves(tracing):
    entries = library_entries(tracing)
    assert entries
    missing = []
    for module, attr in entries:
        try:
            resolve(module, attr)
        except (AttributeError, KeyError, ImportError):
            missing.append(f"{module}.{attr}")
    assert not missing, f"LAYER_SPANS names gone from the library: {missing}"


def test_install_wraps_and_uninstall_restores(tracing):
    originals = {entry: resolve(*entry) for entry in library_entries(tracing)}
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for entry, original in originals.items():
            assert resolve(*entry) is not original, entry
    finally:
        tracer.uninstall()
    for entry, original in originals.items():
        assert resolve(*entry) is original, entry
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, f"not restored: {changed}"


def test_traced_contraction_replays_its_trace(tracing):
    import pointflow.spectral as spectral
    drift = spectral.make_mollified_drift(
        pointflow.LandauParams.from_magnitude(0.5), 16)
    forcing = spectral.make_forcing(16, 1e-2, seed=3)
    tracer = tracing.Tracer().install()
    try:
        tracer.job = 0
        tracer.active = True
        trace = spectral.run_contraction(drift, forcing, tol=1e-9)
        tracer.active = False
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert tracing.well_formed(spans) == []
    (index,) = [i for i, s in enumerate(spans)
                if s.name == "spectral.contraction"]
    seq = tracing.contraction_sequence(spans, index, trace.tol)
    assert seq["start1"] == trace.iterations
    assert seq["increments"] == trace.increments
    assert seq["norms"] == trace.norms
    assert seq["residual"] == trace.residual
    assert seq["uniqueness"] == trace.uniqueness_distance
