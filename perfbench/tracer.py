"""Span tracing of pointflow's public functions, applied from outside.

The program carries no instrumentation of its own, so the traced run
wraps each public function listed in LAYER_SPANS (and the numpy.fft /
scipy.fft transforms) in a recorder and installs the wrapper in every
namespace that binds the original object: the defining module, every
``pointflow.*`` module that imported it by name, and the package root.
Methods are wrapped on their class.  ``Tracer.uninstall`` puts every
original back.

A span records its name, the job it belongs to, its parent span, start
and end, and an optional count (points, nodes or bytes) or value.  Self
time is a span's duration minus the durations of its children; one
thread runs all spans, so children never overlap.
"""

import functools
import importlib
import sys
import time

import numpy as np

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                 "hfft", "ihfft")


def _points(index):
    """Counter: number of 3-vectors in positional argument `index`."""
    def count(args, kwargs, result):
        return int(np.size(args[index])) // 3
    return count


def _rule_nodes(args, kwargs, result):
    return int(result.n_nodes)


def _fft_bytes(args, kwargs, result):
    return int(np.asarray(args[0]).nbytes) + int(np.asarray(result).nbytes)


def _field_spec_span(args, kwargs):
    spec = str(args[0] if args else kwargs.get("spec", ""))
    return "cli.grid_load" if spec.startswith("grid:") else "cli.parse_field_spec"


# (module, attribute, span name or callable(args, kwargs) -> name,
#  counter(args, kwargs, result) -> int or None, keep the return value)
LAYER_SPANS = (
    ("pointflow.cli", "main", "cli.main", None, False),
    ("pointflow.cli", "parse_field_spec", _field_spec_span, None, False),
    ("pointflow.landau", "landau_eval", "landau.eval", _points(1), False),
    ("pointflow.landau", "ns_residual", "landau.ns_residual", _points(1), False),
    ("pointflow.landau", "flux_tensor", "landau.flux_tensor", None, False),
    ("pointflow.landau", "A_from_beta", "landau.A_from_beta", None, False),
    ("pointflow.landau", "sup_speed_on_unit_sphere", "landau.sup_speed",
     None, False),
    ("pointflow.landau", "CallableField.__call__", "landau.probe",
     _points(1), False),
    ("pointflow.quadrature", "sphere_rule", "quadrature.rule", _rule_nodes, False),
    ("pointflow.quadrature", "ball_shell_rule", "quadrature.rule",
     _rule_nodes, False),
    ("pointflow.quadrature", "flux_integral", "quadrature.flux", None, False),
    ("pointflow.quadrature", "ball_samples", "quadrature.ball_samples",
     None, False),
    ("pointflow.quadrature", "lorentz_quasinorm", "quadrature.lorentz",
     None, False),
    ("pointflow.quadrature", "sobolev_norm", "quadrature.sobolev", None, False),
    ("pointflow.quadrature", "decay_report", "quadrature.decay", None, False),
    ("pointflow.weakform", "weak_residual", "weakform.pairing", None, False),
    ("pointflow.weakform", "extract_force_weak", "weakform.extract",
     _rule_nodes, False),
    ("pointflow.weakform", "TestFunction.__call__", "weakform.testfn",
     _points(1), False),
    ("pointflow.weakform", "TestFunction.gradient", "weakform.testfn",
     _points(1), False),
    ("pointflow.weakform", "TestFunction.laplacian", "weakform.testfn",
     _points(1), False),
    ("pointflow.spectral", "make_mollified_drift", "spectral.drift", None, False),
    ("pointflow.spectral", "make_forcing", "spectral.forcing", None, False),
    ("pointflow.spectral", "picard_step", "spectral.picard_step", None, False),
    ("pointflow.spectral", "run_contraction", "spectral.contraction",
     None, False),
    ("pointflow.spectral", "SpectralField.w1r", "spectral.w1r", None, True),
) + tuple((module, name, "fft", _fft_bytes, False)
          for module in ("numpy.fft", "scipy.fft") for name in FFT_FUNCTIONS)


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "count", "value")

    def __init__(self, name, job, parent, start):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = None
        self.count = None
        self.value = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed and `active`; inert otherwise."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.active = False
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, counter, keep_value):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_name, tracer.job, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            if keep_value:
                span.value = float(result)
            return result

        return traced

    def install(self):
        """Wrap every LAYER_SPANS entry in every namespace that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "pointflow"
                                            or n.startswith("pointflow."))]
        for module_name, attr, name, counter, keep_value in LAYER_SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method,
                        self._wrap(original, name, counter, keep_value))
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, name, counter, keep_value)
            for ns in [module] + namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, traced)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []
        self.active = False


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def _ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield p
        p = spans[p].parent


def well_formed(spans):
    """Problems with span nesting: unclosed spans or children that outlast
    their parent."""
    problems = []
    for i, s in enumerate(spans):
        if s.end is None:
            problems.append(f"span {i} ({s.name}) never closed")
            continue
        if s.parent is not None:
            p = spans[s.parent]
            if p.end is None or s.start < p.start or s.end > p.end:
                problems.append(f"span {i} ({s.name}) outlasts its parent "
                                f"{s.parent} ({p.name})")
            if p.job != s.job:
                problems.append(f"span {i} ({s.name}) crosses jobs")
    return problems


def contraction_sequence(spans, index, tol):
    """Parse the children of one run_contraction span.

    Expects, in order: start 1 as (picard_step, w1r increment, w1r norm)
    triplets up to the first increment below tol, the residual step
    (picard_step, w1r), start 2 as triplets up to the first increment
    below tol, then the uniqueness w1r.  Returns a dict with the
    iteration counts and the recorded w1r values, or raises ValueError
    when the calls do not follow that sequence.
    """
    kids = sorted((j for j, s in enumerate(spans) if s.parent == index),
                  key=lambda j: spans[j].start)
    seq = [(spans[j].name, spans[j].value) for j in kids
           if spans[j].name in ("spectral.picard_step", "spectral.w1r")]
    pos = 0

    def take(name):
        nonlocal pos
        if pos >= len(seq) or seq[pos][0] != name:
            raise ValueError(f"expected {name} at call {pos} of run_contraction")
        pos += 1
        return seq[pos - 1][1]

    def start():
        increments, norms = [], []
        while True:
            take("spectral.picard_step")
            increments.append(take("spectral.w1r"))
            norms.append(take("spectral.w1r"))
            if increments[-1] < tol:
                return increments, norms

    inc1, norms1 = start()
    take("spectral.picard_step")
    residual = take("spectral.w1r")
    inc2, _ = start()
    uniqueness = take("spectral.w1r")
    if pos != len(seq):
        raise ValueError("run_contraction made calls after the uniqueness norm")
    return {"start1": len(inc1), "start2": len(inc2), "increments": inc1,
            "norms": norms1, "residual": residual, "uniqueness": uniqueness,
            "picard_steps": len(inc1) + 1 + len(inc2)}


def accounting_problems(spans, picard_payloads):
    """Where the traced counts fail to close against the program's reports.

    Every run_contraction span must replay the picard payload of its job
    (picard_payloads maps job -> payload): the start-1 increments, norms,
    residual and uniqueness distance equal the traced w1r values, and its
    picard_step calls are exactly both starts' iterations plus the
    residual step (contraction_sequence consumes every call).  Every weak
    extraction pairs three test functions, each probing the field once on
    the rule's nodes.
    """
    problems = []
    for i, s in enumerate(spans):
        if s.name != "spectral.contraction":
            continue
        payload = picard_payloads.get(s.job)
        if payload is None:
            problems.append(f"job {s.job}: contraction without a picard report")
            continue
        try:
            seq = contraction_sequence(spans, i, payload["tolerance"])
        except ValueError as exc:
            problems.append(f"job {s.job}: {exc}")
            continue
        replay = (seq["start1"], seq["increments"], seq["norms"],
                  seq["residual"], seq["uniqueness"])
        reported = (payload["iterations"], payload["increments"],
                    payload["norms"], payload["fixed_point_residual"],
                    payload["uniqueness_distance"])
        if replay != reported:
            problems.append(f"job {s.job}: traced w1r values do not replay "
                            "the picard payload")
    for i, s in enumerate(spans):
        if s.name != "weakform.extract":
            continue
        pairings = [j for j, c in enumerate(spans)
                    if c.parent == i and c.name == "weakform.pairing"]
        points = sum(c.count for c in spans
                     if c.name in ("landau.eval", "landau.probe")
                     and c.parent in pairings)
        if len(pairings) != 3 or points != 3 * s.count:
            problems.append(f"job {s.job}: weak extraction made "
                            f"{len(pairings)} pairings over {points} points "
                            f"for {s.count} nodes")
    return problems


def layer_metrics(spans, job_walls, bytes_written):
    """Per-job per-layer metrics from the spans of len(job_walls) jobs."""
    jobs = len(job_walls)
    kids = _children(spans)
    self_s, total_s, calls, counts = {}, {}, {}, {}
    top_level = 0.0
    rule_nodes = 0
    fft_in_contraction = 0
    steps_in_contraction = 0
    extract_nodes = 0
    extract_points = 0
    for i, s in enumerate(spans):
        d = s.duration
        child = sum(spans[j].duration for j in kids[i])
        self_s[s.name] = self_s.get(s.name, 0.0) + d - child
        total_s[s.name] = total_s.get(s.name, 0.0) + d
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.count is not None:
            counts[s.name] = counts.get(s.name, 0) + s.count
        if s.parent is None:
            top_level += d
        ancestors = [spans[a].name for a in _ancestors(spans, i)]
        if s.name == "quadrature.rule" and "quadrature.rule" not in ancestors:
            rule_nodes += s.count
        if "spectral.contraction" in ancestors:
            if s.name == "fft":
                fft_in_contraction += 1
            elif s.name == "spectral.picard_step":
                steps_in_contraction += 1
        if s.name == "weakform.extract":
            extract_nodes += s.count
        if (s.name in ("landau.eval", "landau.probe")
                and "weakform.extract" in ancestors
                and not {"landau.eval", "landau.probe"} & set(ancestors)):
            extract_points += s.count

    def per_job(value):
        return value / jobs

    metrics = {
        "cli.self_s": per_job(sum(self_s.get(n, 0.0) for n in (
            "cli.main", "cli.parse_field_spec", "cli.grid_load"))),
        "cli.grid_load_s": per_job(total_s.get("cli.grid_load", 0.0)),
        "cli.bytes_written": per_job(bytes_written),
        "landau.eval_s": per_job(self_s.get("landau.eval", 0.0)),
        "landau.eval_points": per_job(counts.get("landau.eval", 0)),
        "landau.ns_residual_s": per_job(self_s.get("landau.ns_residual", 0.0)),
        "landau.probe_s": per_job(self_s.get("landau.probe", 0.0)),
        "landau.probe_points": per_job(counts.get("landau.probe", 0)),
        "quadrature.rule_s": per_job(self_s.get("quadrature.rule", 0.0)),
        "quadrature.rule_nodes": per_job(rule_nodes),
        "quadrature.flux_s": per_job(self_s.get("quadrature.flux", 0.0)),
        "quadrature.ball_samples_s": per_job(
            self_s.get("quadrature.ball_samples", 0.0)),
        "quadrature.lorentz_s": per_job(self_s.get("quadrature.lorentz", 0.0)),
        "quadrature.sobolev_s": per_job(self_s.get("quadrature.sobolev", 0.0)),
        "quadrature.sobolev_calls": per_job(calls.get("quadrature.sobolev", 0)),
        "weakform.pairing_s": per_job(self_s.get("weakform.pairing", 0.0)),
        "weakform.testfn_s": per_job(self_s.get("weakform.testfn", 0.0)),
        "weakform.pairings": per_job(calls.get("weakform.pairing", 0)),
        "weakform.evals_per_node": (extract_points / extract_nodes
                                    if extract_nodes else 0.0),
        "spectral.drift_s": per_job(self_s.get("spectral.drift", 0.0)),
        "spectral.picard_step_s": per_job(
            self_s.get("spectral.picard_step", 0.0)),
        "spectral.picard_steps": per_job(calls.get("spectral.picard_step", 0)),
        "spectral.w1r_s": per_job(self_s.get("spectral.w1r", 0.0)),
        "spectral.w1r_calls": per_job(calls.get("spectral.w1r", 0)),
        # every run_contraction evaluates one extra step for the residual
        "spectral.iterations": per_job(
            steps_in_contraction - calls.get("spectral.contraction", 0)),
        "fft.calls": per_job(calls.get("fft", 0)),
        "fft.s": per_job(self_s.get("fft", 0.0)),
        "fft.per_iteration": (fft_in_contraction / steps_in_contraction
                              if steps_in_contraction else 0.0),
        "fft.bytes_computed": per_job(counts.get("fft", 0)),
        "trace.coverage": top_level / sum(job_walls),
    }
    return metrics
