"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions of each disclab layer with
wrappers that time every call made while an op runs, including the calls
one layer makes into another (the harness calling ``ppf`` or the cells
evaluator, for instance).  Nothing under ``src/`` changes: the wrappers are
set on the module and class attributes the library looks its callees up in,
and ``uninstall`` puts the originals back.

A span's self time is its duration minus the time of the traced spans it
directly contains.  Spans are reduced as they close into per-name arrays of
durations and per-unit times, so memory grows by a few numbers per call.
Counts that must repeat exactly for a seed (evaluations, terms, calls,
computed tensor sizes) are summed over round 0 only, which is a fixed set of
ops however long the pass runs.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from disclab import core, density, discrepancy, experiments


def _reps(args, kwargs, out):
    cfg = args[0] if args else kwargs["cfg"]
    reps = getattr(cfg, "replications", None)
    if reps is None:  # c_rescale_experiment(N, d, kind, replications, seed)
        reps = args[3] if len(args) > 3 else kwargs["replications"]
    return reps, reps


def _points(args, kwargs, out):
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    n = x.size if isinstance(x, np.ndarray) else 1
    return n or 1, n


def _evals(args, kwargs, out):
    return out.evaluations or 1, out.evaluations


def _pairs(args, kwargs, out):
    n = out.n * out.n
    return n, n


def _mc_pairs(args, kwargs, out):
    n = out.evaluations * out.n
    return n, n


def _one(args, kwargs, out):
    return 1, 1


def _solve(args, kwargs, out):
    """A general-p solve; p = 1 and p = 2 have closed forms and are left out."""
    p = args[0] if args else kwargs["p"]
    return None if p in (1.0, 2.0) else (1, 1)


# (owner, attribute, span name, unit function).  The unit function returns
# (divisor for the per-unit time, units of work for the round-0 count), or
# None for a call the span's metrics leave out.
# experiments imports the cells evaluator and optimal_density into its own
# namespace, so those names are patched in both places.  A probe whose
# attribute is missing is skipped, and its metrics read 0.
_PROBES = (
    (experiments, "run_average_discrepancy", "experiments.run", _reps),
    (experiments, "c_rescale_experiment", "experiments.run", _reps),
    (density, "optimal_density", "density.solve", _solve),
    (experiments, "optimal_density", "density.solve", _solve),
    (density.Density1D, "pdf", "density.pdf", _points),
    (density.Density1D, "pdf_fast", "density.pdf_fast", _points),
    (density.Density1D, "cdf", "density.cdf", _points),
    (density.Density1D, "ppf", "density.ppf", _points),
    (density.Density1D, "normalization", "density.quad", _one),
    (density, "J_functional", "density.quad", _one),
    (discrepancy, "lp_discrepancy_cells", "discrepancy.cells", _evals),
    (experiments, "lp_discrepancy_cells", "discrepancy.cells", _evals),
    (discrepancy, "lp_discrepancy_even", "discrepancy.even", _evals),
    (discrepancy, "l2_discrepancy_kernel", "discrepancy.kernel", _pairs),
    (discrepancy, "lp_discrepancy_mc", "discrepancy.mc", _mc_pairs),
    (core.WeightedPointSet, "__init__", "core.pointset", _one),
)


class _Stats:
    """Reductions of the spans of one name."""

    def __init__(self):
        self.dur = array("d")
        self.per_unit = array("d")
        self.self_per_unit = array("d")
        self.calls0 = 0  # over round 0
        self.units0 = 0  # over round 0
        self.tensor_bytes0 = 0  # largest N^2 d 8 over round 0 (kernel only)
        self.clamped = 0
        self.resamples = 0


class Tracer:
    """Span timer and counters for the traced pass; see the module docstring."""

    def __init__(self):
        self.recording = False
        self.round = None
        self.stats = defaultdict(_Stats)
        self.failed = Counter()  # by layer, over the whole traced pass
        self._open = []  # child time accumulated by each open span
        self._saved = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, units in _PROBES:
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name, units))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, name, units):
        layer = name.split(".")[0]
        st = self.stats[name]
        open_spans = self._open
        perf_counter = time.perf_counter
        has_flags = layer in ("experiments", "discrepancy")

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
            counted = units(args, kwargs, out)
            if counted is None:
                return out
            n, work = counted
            st.dur.append(dt)
            st.per_unit.append(dt / n)
            st.self_per_unit.append((dt - child) / n)
            if has_flags:
                st.clamped += int(getattr(out, "clamped", False))
                st.resamples += getattr(out, "resamples", 0)
            if self.round == 0:
                st.calls0 += 1
                st.units0 += work
                if name == "discrepancy.kernel":
                    st.tensor_bytes0 = max(st.tensor_bytes0, work * out.d * 8)
            return out

        return traced

    # -- reduction ----------------------------------------------------------

    def _median(self, name, field, scale):
        values = getattr(self.stats[name], field)
        return statistics.median(values) * scale if len(values) else 0.0

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; a layer that was not
        called reads 0."""
        m, st, f = self._median, self.stats, self.failed
        disc = ("cells", "even", "kernel", "mc")
        return {
            "experiments.us_per_rep": (m("experiments.run", "per_unit", 1e6), "us/rep"),
            "experiments.self_us_per_rep": (m("experiments.run", "self_per_unit", 1e6), "us/rep"),
            "experiments.run_ms": (m("experiments.run", "dur", 1e3), "ms"),
            "experiments.resamples": (st["experiments.run"].resamples, "count"),
            "experiments.failed": (f["experiments"], "count"),
            "density.solve_ms": (m("density.solve", "dur", 1e3), "ms"),
            "density.solve_calls": (st["density.solve"].calls0, "count"),
            "density.pdf_ns_per_pt": (m("density.pdf", "per_unit", 1e9), "ns/pt"),
            "density.pdf_fast_ns_per_pt": (m("density.pdf_fast", "per_unit", 1e9), "ns/pt"),
            "density.ppf_ns_per_pt": (m("density.ppf", "per_unit", 1e9), "ns/pt"),
            "density.cdf_ns_per_pt": (m("density.cdf", "per_unit", 1e9), "ns/pt"),
            "density.quad_ms": (m("density.quad", "dur", 1e3), "ms"),
            "density.failed": (f["density"], "count"),
            "discrepancy.cells_ms": (m("discrepancy.cells", "dur", 1e3), "ms"),
            "discrepancy.cells_evals": (st["discrepancy.cells"].units0, "count"),
            "discrepancy.cells_ns_per_eval": (m("discrepancy.cells", "per_unit", 1e9), "ns/eval"),
            "discrepancy.even_ms": (m("discrepancy.even", "dur", 1e3), "ms"),
            "discrepancy.even_terms": (st["discrepancy.even"].units0, "count"),
            "discrepancy.even_ns_per_term": (m("discrepancy.even", "per_unit", 1e9), "ns/term"),
            "discrepancy.kernel_ms": (m("discrepancy.kernel", "dur", 1e3), "ms"),
            "discrepancy.kernel_ns_per_pair": (m("discrepancy.kernel", "per_unit", 1e9), "ns/pair"),
            "discrepancy.kernel_tensor_mb": (st["discrepancy.kernel"].tensor_bytes0 / 1e6, "MB"),
            "discrepancy.mc_ms": (m("discrepancy.mc", "dur", 1e3), "ms"),
            "discrepancy.mc_ns_per_pair": (m("discrepancy.mc", "per_unit", 1e9), "ns/pair"),
            "discrepancy.failed": (f["discrepancy"], "count"),
            "discrepancy.clamped": (sum(st[f"discrepancy.{k}"].clamped for k in disc), "count"),
            "core.pointset_us": (m("core.pointset", "dur", 1e6), "us"),
            "core.pointset_calls": (st["core.pointset"].calls0, "count"),
            "core.failed": (f["core"], "count"),
        }
