"""Spans around the program's public calls, and the per-layer metrics
derived from them.

A :class:`Tracer` replaces public functions of ``flime`` modules with
wrappers while it is installed, and wraps Hamiltonians in a proxy that
times ``H(t)``.  Every wrapped call records a span (name, start, end,
parent, root) in flat arrays kept in memory; counts taken at the same
boundaries (integrator steps, kept terms, ...) are stored next to them.
``src/flime`` is not modified.

Integrations are named by where they run: inside ``monodromy`` or
``mode_grid`` they belong to the floquet layer, under a ``reference`` root
to the lindblad layer, and otherwise they are the state propagation
(``integrate`` with its ``solver.rhs``).
"""

import contextlib
import dataclasses
import statistics
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

from flime import analysis, floquet, lindblad, solver

# (metric, unit, better, meaning) for the traced run, in report order.
PER_LAYER = [
    ("hamiltonians.evals", "count", "lower", "H(t) evaluations through the proxy"),
    ("hamiltonians.s", "s", "lower", "time in H(t)"),
    ("floquet.monodromy_s", "s", "lower", "monodromy, with its integration and H(t)"),
    ("floquet.decompose_s", "s", "lower", "floquet_decompose"),
    ("floquet.mode_grid_s", "s", "lower", "mode_grid, with its integration and H(t)"),
    ("floquet.fourier_s", "s", "lower", "fourier_coefficients (called by build_terms)"),
    ("floquet.grid_samples", "count", "lower", "mode-grid samples over all bases"),
    ("solver.build_terms_s", "s", "lower", "build_terms, with fourier_coefficients"),
    ("solver.build_terms_peak_mb", "MB", "lower",
     "largest tracemalloc peak of one build_terms call, in a separate pass"),
    ("solver.candidates", "count", "lower", "candidate rate terms"),
    ("solver.kept", "count", "lower", "kept static plus oscillating terms"),
    ("solver.keep_ratio", "ratio", "lower", "kept over candidates"),
    ("solver.groups", "count", "lower", "distinct oscillation frequencies"),
    ("solver.terms_mb", "MB", "lower", "rate-term store, computed from array sizes"),
    ("solver.rhs_s", "s", "lower", "state-propagation RHS calls"),
    ("solver.rhs_calls", "count", "lower", "state-propagation RHS calls"),
    ("solver.us_per_rhs", "us", "lower", "solver.rhs_s per call"),
    ("integrate.s", "s", "lower", "state-propagation integrate_adaptive, with the RHS"),
    ("integrate.self_s", "s", "lower", "integrate.s minus its RHS calls"),
    ("integrate.steps", "count", "lower", "accepted steps"),
    ("integrate.rejected", "count", "lower", "rejected steps"),
    ("integrate.accept_ratio", "ratio", "higher", "accepted over attempted steps"),
    ("integrate.calls", "count", "lower", "integrate_adaptive calls"),
    ("solver.reconstruct_s", "s", "lower", "evolve minus its integration"),
    ("analysis.ness_s", "s", "lower", "evolve_to_ness"),
    ("analysis.ness_periods", "count", "lower", "periods to NESS convergence"),
    ("analysis.ms_per_period", "ms", "lower", "analysis.ness_s per period"),
    ("analysis.g1_s", "s", "lower", "correlation_g1"),
    ("analysis.spectrum_s", "s", "lower", "spectrum"),
    ("analysis.spectrum_mb", "MB", "lower",
     "dense transform kernel, detunings x taus x 16 B, computed from array sizes"),
    ("lindblad.evolve_direct_s", "s", "lower", "evolve_direct in the reference (outside wall_s)"),
    ("lindblad.steps", "count", "lower", "accepted steps of the reference"),
    ("lindblad.rhs_calls", "count", "lower", "RHS calls of the reference"),
    ("self.hamiltonians_s", "s", "lower", "self time of the hamiltonians layer"),
    ("self.floquet_s", "s", "lower", "self time of the floquet layer"),
    ("self.solver_s", "s", "lower", "self time of the solver layer"),
    ("self.integrate_s", "s", "lower", "self time of the integrate layer"),
    ("self.analysis_s", "s", "lower", "self time of the analysis layer"),
    ("trace.unattributed_s", "s", "lower", "pass time outside every wrapped call"),
    ("trace.wall_s", "s", "lower", "traced pass time; the self.* times and unattributed sum to it"),
    ("trace.untraced_wall_s", "s", "lower", "untraced pass time in the same run"),
    ("trace.overhead_s", "s", "lower", "trace.wall_s minus trace.untraced_wall_s"),
    ("trace.spans", "count", "lower", "spans recorded in one traced pass"),
]

_LAYERS = ("hamiltonians", "floquet", "solver", "integrate", "analysis")
_FLOQUET_INTEGRATORS = ("floquet.monodromy", "floquet.mode_grid")


def _nbytes(obj):
    """Bytes held by the arrays of a (nested) dataclass or tuple."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class _HamiltonianProxy:
    """Forwards everything to a Hamiltonian and records a span per H(t)."""

    def __init__(self, tracer, hamiltonian):
        self._tracer = tracer
        self._hamiltonian = hamiltonian
        self._nid = tracer.name_id("hamiltonians.call")

    def __call__(self, t):
        sid = self._tracer.open(self._nid)
        try:
            return self._hamiltonian(t)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, name):
        return getattr(self._hamiltonian, name)


class Tracer:
    """In-memory span recorder with wrappers for the program's public calls."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._root = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self.counters = []  # (span id, key, value)

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        sid = len(self._start)
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._root.append(stack[0] if stack else sid)
        self._end.append(0.0)
        stack.append(sid)
        self._start.append(perf_counter())
        return sid

    def close(self, sid):
        self._end[sid] = perf_counter()
        self._stack.pop()

    def count(self, sid, key, value):
        self.counters.append((sid, key, value))

    @contextlib.contextmanager
    def root(self, name):
        """A top-level span: ``pass``, ``reference`` or ``mem``."""
        if self._stack:
            raise RuntimeError("a root span cannot be nested")
        sid = self.open(self.name_id(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def proxy(self, hamiltonian):
        return _HamiltonianProxy(self, hamiltonian)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(sid, result)
            return result

        return wrapper

    def _wrap_rhs(self, nid, rhs):
        def traced_rhs(t, y):
            sid = self.open(nid)
            try:
                return rhs(t, y)
            finally:
                self.close(sid)

        return traced_rhs

    def _wrap_integrate(self, fn):
        nid = self.name_id
        pairs = {"floquet": (nid("floquet.integrate"), nid("floquet.rhs")),
                 "lindblad": (nid("lindblad.integrate"), nid("lindblad.rhs")),
                 "solver": (nid("integrate"), nid("solver.rhs"))}

        def integrate(rhs, *args, **kwargs):
            stack = self._stack
            if stack and self.names[self._name[stack[0]]] == "reference":
                layer = "lindblad"
            elif stack and self.names[self._name[stack[-1]]] in _FLOQUET_INTEGRATORS:
                layer = "floquet"
            else:
                layer = "solver"
            integ_nid, rhs_nid = pairs[layer]
            sid = self.open(integ_nid)
            try:
                out, stats = fn(self._wrap_rhs(rhs_nid, rhs), *args, **kwargs)
            finally:
                self.close(sid)
            self.count(sid, "steps", stats.steps_accepted)
            self.count(sid, "rejected", stats.steps_rejected)
            return out, stats

        return integrate

    def _build_terms(self, fn):
        nid = self.name_id("solver.build_terms")

        def build_terms(*args, **kwargs):
            tracing_memory = tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            sid = self.open(nid)
            try:
                rates = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if tracing_memory:
                self.count(sid, "peak_bytes", tracemalloc.get_traced_memory()[1] - base)
            self.count(sid, "candidates", rates.candidate_terms)
            self.count(sid, "kept", rates.kept_static + rates.kept_oscillating)
            self.count(sid, "groups", rates.n_frequency_groups)
            self.count(sid, "terms_bytes", _nbytes(rates))
            return rates

        return build_terms

    def _targets(self):
        """(owner, attribute, wrapper factory) for every wrapped call."""
        def plain(name):
            return lambda fn: self._wrap(name, fn)

        def counted(name, key, measure):
            return lambda fn: self._wrap(name, fn, lambda sid, r: self.count(sid, key, measure(r)))

        integrate = self._wrap_integrate
        return [
            (floquet, "monodromy", plain("floquet.monodromy")),
            (floquet, "floquet_decompose", plain("floquet.decompose")),
            (floquet, "mode_grid", counted("floquet.mode_grid", "samples", lambda b: b.n_samples)),
            (floquet, "integrate_adaptive", integrate),
            (solver, "fourier_coefficients", plain("floquet.fourier")),
            (solver, "build_terms", self._build_terms),
            (solver, "evolve", plain("solver.evolve")),
            (solver, "integrate_adaptive", integrate),
            (analysis, "evolve_to_ness", counted("analysis.evolve_to_ness", "periods",
                                                  lambda r: r.periods_to_converge)),
            (analysis.FlimePropagator, "cycle", plain("analysis.cycle")),
            (analysis, "correlation_g1", plain("analysis.correlation_g1")),
            (analysis, "spectrum", counted("analysis.spectrum", "kernel_bytes",
                                           lambda r: r.detunings.size * r.n_tau * 16)),
            (analysis, "integrate_adaptive", integrate),
            (lindblad, "evolve_direct", plain("lindblad.evolve_direct")),
            (lindblad, "integrate_adaptive", integrate),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Replace the program's public calls with traced wrappers."""
        saved = []
        try:
            for owner, attr, factory in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def spans(self):
        """The recorded spans as numpy arrays."""
        return dict(
            name=np.frombuffer(self._name, dtype=np.intc).copy(),
            parent=np.frombuffer(self._parent, dtype=np.intc).copy(),
            root=np.frombuffer(self._root, dtype=np.intc).copy(),
            start=np.frombuffer(self._start, dtype=float).copy(),
            end=np.frombuffer(self._end, dtype=float).copy(),
        )

    def save(self, path):
        """Write spans, names and counters to an ``.npz`` file."""
        sp = self.spans()
        ctr = np.array([(s, v) for s, _, v in self.counters], dtype=float).reshape(-1, 2)
        np.savez(path, names=np.array(self.names), counter_keys=np.array([k for _, k, _ in self.counters]),
                 counter_span=ctr[:, 0].astype(int), counter_value=ctr[:, 1], **sp)

    def summaries(self):
        """Per root span: inclusive time, count and self time by span name,
        and counters by ``<span name>.<key>``."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        roots = np.flatnonzero(~has_parent)
        for r in roots:
            mask = sp["root"] == r
            names = sp["name"][mask]
            summary = {"root": self.names[sp["name"][r]], "wall": float(dur[r]),
                       "spans": int(mask.sum()), "inc": {}, "n": {}, "self": {}, "ctr": {}}
            for nid in np.unique(names):
                sel = names == nid
                key = self.names[nid]
                summary["inc"][key] = float(dur[mask][sel].sum())
                summary["n"][key] = int(sel.sum())
                summary["self"][key] = float(self_time[mask][sel].sum())
            out[int(r)] = summary
        for sid, key, value in self.counters:
            summary = out[int(sp["root"][sid])]
            full = f"{self.names[sp['name'][sid]]}.{key}"
            agg = max if key == "peak_bytes" else (lambda a, b: a + b)
            summary["ctr"][full] = agg(summary["ctr"].get(full, 0), value)
        return list(out.values())


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(s):
    """Per-layer metrics of one traced pass summary."""
    inc, n, self_t, ctr = s["inc"], s["n"], s["self"], s["ctr"]

    def g(d, k):
        return d.get(k, 0)

    steps, rejected = g(ctr, "integrate.steps"), g(ctr, "integrate.rejected")
    candidates, kept = g(ctr, "solver.build_terms.candidates"), g(ctr, "solver.build_terms.kept")
    ness_s, periods = g(inc, "analysis.evolve_to_ness"), g(ctr, "analysis.evolve_to_ness.periods")
    m = {
        "hamiltonians.evals": g(n, "hamiltonians.call"),
        "hamiltonians.s": g(inc, "hamiltonians.call"),
        "floquet.monodromy_s": g(inc, "floquet.monodromy"),
        "floquet.decompose_s": g(inc, "floquet.decompose"),
        "floquet.mode_grid_s": g(inc, "floquet.mode_grid"),
        "floquet.fourier_s": g(inc, "floquet.fourier"),
        "floquet.grid_samples": g(ctr, "floquet.mode_grid.samples"),
        "solver.build_terms_s": g(inc, "solver.build_terms"),
        "solver.candidates": candidates,
        "solver.kept": kept,
        "solver.keep_ratio": _ratio(kept, candidates),
        "solver.groups": g(ctr, "solver.build_terms.groups"),
        "solver.terms_mb": g(ctr, "solver.build_terms.terms_bytes") / 1e6,
        "solver.rhs_s": g(inc, "solver.rhs"),
        "solver.rhs_calls": g(n, "solver.rhs"),
        "solver.us_per_rhs": 1e6 * _ratio(g(inc, "solver.rhs"), g(n, "solver.rhs")),
        "integrate.s": g(inc, "integrate"),
        "integrate.self_s": g(self_t, "integrate"),
        "integrate.steps": steps,
        "integrate.rejected": rejected,
        "integrate.accept_ratio": _ratio(steps, steps + rejected),
        "integrate.calls": g(n, "integrate"),
        "solver.reconstruct_s": g(self_t, "solver.evolve"),
        "analysis.ness_s": ness_s,
        "analysis.ness_periods": periods,
        "analysis.ms_per_period": 1e3 * _ratio(ness_s, periods),
        "analysis.g1_s": g(inc, "analysis.correlation_g1"),
        "analysis.spectrum_s": g(inc, "analysis.spectrum"),
        "analysis.spectrum_mb": g(ctr, "analysis.spectrum.kernel_bytes") / 1e6,
    }
    for layer in _LAYERS:
        m[f"self.{layer}_s"] = sum(v for k, v in self_t.items() if k.split(".")[0] == layer)
    m["trace.unattributed_s"] = self_t[s["root"]]
    m["trace.wall_s"] = s["wall"]
    m["trace.spans"] = s["spans"]
    return m


def layer_metrics(tracer, untraced_walls):
    """All PER_LAYER metrics.

    Pass metrics come from the traced pass of median wall time (the lower
    median for an even count), so its self times add up to its wall time.
    The lindblad figures come from the ``reference`` root and the
    build_terms peak from the ``mem`` root.
    """
    summaries = tracer.summaries()
    passes = sorted((pass_metrics(s) for s in summaries if s["root"] == "pass"),
                    key=lambda p: p["trace.wall_s"])
    metrics = dict(passes[(len(passes) - 1) // 2])
    ref = [s for s in summaries if s["root"] == "reference"]
    metrics["lindblad.evolve_direct_s"] = sum(s["inc"].get("lindblad.evolve_direct", 0.0) for s in ref)
    metrics["lindblad.steps"] = sum(s["ctr"].get("lindblad.integrate.steps", 0) for s in ref)
    metrics["lindblad.rhs_calls"] = sum(s["n"].get("lindblad.rhs", 0) for s in ref)
    mem = [s for s in summaries if s["root"] == "mem"]
    metrics["solver.build_terms_peak_mb"] = max(
        (s["ctr"].get("solver.build_terms.peak_bytes", 0) for s in mem), default=0) / 1e6
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return {name: float(metrics[name]) for name, _, _, _ in PER_LAYER}
