"""In-memory span tracer for the traced benchmark run.

The tracer wraps library functions by rebinding the name in the module that
*calls* them (``eigensense.detectors`` imports ``_log_j_batch`` by name, so
the wrapper goes on ``eigensense.detectors._log_j_batch``).  Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

Each wrapped call records a span: layer, function, parent span, thread,
start, end, the request it served, and counts read from its arguments and
return value.  Counter-only wrappers (Philox streams, J integrand
evaluations, multiprecision J segments, guard perturbations) add to the
innermost open span on the calling thread and to a per-thread total.

The parent stack is thread-local.  A span opened with an empty stack (a
``run_roc`` worker thread) takes the open chunk-scheduler span as its parent, so
chunk work done by pool workers nests under the sweep that scheduled it.
"""

from __future__ import annotations

import threading
import time
from collections import Counter


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "thread", "request",
                 "start", "end", "error", "counts")

    def __init__(self, sid, parent, layer, name, thread, request):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.thread = thread
        self.request = request
        self.start = 0.0
        self.end = 0.0
        self.error = False
        self.counts = Counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts from the wrapped functions; see module doc."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._local = threading.local()
        self._totals: list[Counter] = []
        self._lock = threading.Lock()
        self._ambient = None
        self._patches = []

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.totals = Counter()
            with self._lock:
                self._totals.append(self._local.totals)
        return stack

    def totals(self) -> Counter:
        """Counter-only counts summed over every thread."""
        out = Counter()
        with self._lock:
            for c in self._totals:
                out.update(c)
        return out

    def _count(self, key: str, n: int) -> None:
        stack = self._stack()
        self._local.totals[key] += n
        if stack:
            stack[-1].counts[key] += n

    # -- wrapping -----------------------------------------------------------

    def _rebind(self, module, name, wrapper) -> None:
        original = getattr(module, name)
        self._patches.append((module, name, original))
        setattr(module, name, wrapper)

    def span(self, module, name, layer, on_return=None, ambient=False) -> None:
        """Record a span per call of ``module.name``.

        on_return(span, args, result) adds counts; ambient marks the ROC
        chunk scheduler, whose span parents spans opened on pool worker threads.
        """
        fn = getattr(module, name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._ambient
            with tracer._lock:
                span = Span(len(tracer.spans), parent.sid if parent else None,
                            layer, name, threading.get_ident(), tracer.request)
                tracer.spans.append(span)
            stack.append(span)
            if ambient:
                tracer._ambient = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if ambient:
                    tracer._ambient = None
            if on_return is not None:
                on_return(span, args, result)
            return result

        self._rebind(module, name, wrapper)

    def counter(self, module, name, count) -> None:
        """Count calls of ``module.name``: count(args, result) -> [(key, n)]."""
        fn = getattr(module, name)
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, n in count(args, result):
                tracer._count(key, n)
            return result

        self._rebind(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- queries ------------------------------------------------------------

    def children(self) -> dict:
        kids: dict = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> dict:
        """Self time per layer: each span's duration minus the part of it that
        its child spans cover (children on pool threads may overlap)."""
        kids = self.children()
        out: Counter = Counter()
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(kids.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.layer] += s.duration - covered
        return dict(out)

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span


def instrument(tracer: Tracer, es) -> None:
    """Wrap every layer boundary of the eigensense package ``es``.

    Layers follow the package's modules: montecarlo.synthesis,
    spectra.reduction, special.j_kernel, detectors.assembly,
    detectors.escalation, montecarlo.roc, montecarlo.oracle and
    special.bessel_oracle.
    """
    det, mc, special = es.detectors, es.montecarlo, es.special

    # synthesis: one span per ROC chunk; each Philox generator is counted.
    tracer.span(mc, "_synthesize_block", "synthesis",
                lambda s, a, r: s.counts.update(trials=int(a[3])))
    tracer.counter(mc, "_stream", lambda a, r: [("streams", 1)])

    # reduction: batched in the ROC chunks, scalar in the requests.
    tracer.span(mc, "_gram_eigenvalues_batch", "reduction",
                lambda s, a, r: s.counts.update(rows=int(a[0].shape[0])))
    tracer.span(es, "gram_eigenvalues", "reduction",
                lambda s, a, r: s.counts.update(rows=1))

    # J kernel: one span per call; integrand evaluations are counted per
    # element, 1-D arguments being the cutoff search and 2-D ones the
    # Gauss-Kronrod panels of one refinement round.
    def j_counts(span, args, result):
        span.counts.update(integrals=int(result.size))

    def g_counts(args, result):
        if result.ndim == 2:
            return [("quad_evals", int(result.size)), ("rounds", 1)]
        return [("cutoff_evals", int(result.size))]

    for module in (det, special):
        tracer.span(module, "_log_j_batch", "j_kernel", j_counts)
    tracer.counter(special, "_g_log_integrand", g_counts)

    # assembly: signed sums over tuples/permutations and marginalisation.
    def fast_counts(span, args, result):
        _, bad, n_perturbed = result
        span.counts.update(flagged=int(bad.sum()), perturbed=int(n_perturbed))

    tracer.span(mc, "_batch_fast_stats", "assembly", fast_counts)
    for name in ("_simo_batch", "_mimo_batch"):
        tracer.span(det, name, "assembly",
                    lambda s, a, r: s.counts.update(components=int(a[0].shape[0])))
    tracer.span(det, "_signed_lse_rows", "assembly",
                lambda s, a, r: s.counts.update(terms=int(a[0].size)))
    tracer.span(det, "_marginal_statistic", "assembly")
    tracer.span(det, "_signal_from_guarded", "assembly")
    tracer.counter(det, "_guard_values", lambda a, r: [("perturbed", int(r[1]))])

    # escalation: batch rows redone scalar-side, then mpmath.
    def retry_counts(span, args, result):
        failed, _ = result
        span.counts.update(rows=len(args[4]), failed=int(failed.sum()))

    tracer.span(mc, "_retry_rows_scalar", "escalation", retry_counts)
    tracer.span(det, "_signal_mp", "escalation",
                lambda s, a, r: s.counts.update(dps=int(a[4])))
    for module in (det, special):
        tracer.counter(module, "_log_j_segment_mp", lambda a, r: [("mp_segments", 1)])

    # roc: the per-hypothesis chunk scheduler and its thread pool.
    tracer.span(mc, "_stats_for_hypothesis", "roc",
                lambda s, a, r: s.counts.update(threads=int(a[3])), ambient=True)

    # oracles.
    tracer.span(mc, "_gaussian_loglikes", "oracle",
                lambda s, a, r: s.counts.update(draws=int(a[3].shape[0])))
    tracer.span(es, "j_via_bessel", "bessel")


def layer_metrics(tracer: Tracer, tail_requests, overhead_frac: float,
                  thread_speedup: float) -> dict:
    """Per-layer metrics from one traced replay.

    tail_requests are the request ids at or beyond the latency tail
    percentile; thread_speedup is measured by the caller (0 when the
    workload runs no ROC sweep).
    """
    by_name: dict = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    kids = tracer.children()
    selfs = tracer.self_times()
    totals = tracer.totals()

    def spans(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def busy(group):
        return sum(s.duration for s in group)

    def total(group, key):
        return sum(s.counts[key] for s in group)

    synth = spans("_synthesize_block")
    trials = total(synth, "trials")
    reduction = spans("_gram_eigenvalues_batch", "gram_eigenvalues")
    jk = spans("_log_j_batch")
    integrals = total(jk, "integrals")
    fast = spans("_batch_fast_stats")

    retries = spans("_retry_rows_scalar")
    mp_calls = spans("_signal_mp")
    escalated = [s for s in spans("_signal_from_guarded")
                 if any(c.name == "_signal_mp" for c in kids.get(s.sid, ()))
                 and not any(a.name == "_retry_rows_scalar" for a in tracer.ancestors(s))]
    esc_rows = total(retries, "rows") + len(escalated)
    esc_failed = total(retries, "failed") + sum(s.error for s in escalated)
    tail = set(tail_requests)
    tail_escalated = {s.request for s in mp_calls if s.request in tail}

    roc = spans("_stats_for_hypothesis")
    roc_ids = {s.sid for s in roc}
    chunk_work = [c for sid in roc_ids for c in kids.get(sid, ()) if c.layer != "escalation"]
    roc_capacity = sum(s.counts["threads"] * s.duration for s in roc)

    mc = spans("_gaussian_loglikes")
    bessel = spans("j_via_bessel")
    fallbacks = [s for s in bessel if s.counts["mp_segments"] > 0]

    return {
        "synthesis.busy_s": busy(synth),
        "synthesis.trials": trials,
        "synthesis.streams": total(synth, "streams"),
        "synthesis.us_per_trial": 1e6 * busy(synth) / trials if trials else 0.0,
        "reduction.busy_s": busy(reduction),
        "reduction.rows": total(reduction, "rows"),
        "j_kernel.busy_s": busy(jk),
        "j_kernel.calls": len(jk),
        "j_kernel.integrals": integrals,
        "j_kernel.cutoff_evals_per_integral":
            total(jk, "cutoff_evals") / integrals if integrals else 0.0,
        "j_kernel.quad_evals_per_integral":
            total(jk, "quad_evals") / integrals if integrals else 0.0,
        "j_kernel.rounds_max": max((s.counts["rounds"] for s in jk), default=0),
        "assembly.self_s": selfs.get("assembly", 0.0),
        "assembly.components": total(spans("_simo_batch", "_mimo_batch"), "components"),
        "assembly.terms": total(spans("_signed_lse_rows"), "terms"),
        "assembly.perturbed": total(fast, "perturbed") + totals["perturbed"],
        "assembly.flagged": total(fast, "flagged"),
        "escalation.rows": esc_rows,
        "escalation.mp_calls": len(mp_calls),
        "escalation.mp_busy_s": busy(mp_calls),
        "escalation.dps_max": max((s.counts["dps"] for s in mp_calls), default=0),
        "escalation.failed": esc_failed,
        "escalation.rescued_ratio": (esc_rows - esc_failed) / esc_rows if esc_rows else 0.0,
        "escalation.tail_share": len(tail_escalated) / len(tail) if tail else 0.0,
        "roc.chunks": sum(1 for s in synth if s.parent in roc_ids),
        "roc.worker_busy_s": busy(chunk_work),
        "roc.parallel_efficiency": busy(chunk_work) / roc_capacity if roc_capacity else 0.0,
        "roc.thread_speedup": thread_speedup,
        "oracle.mc_busy_s": busy(mc),
        "oracle.mc_draws": total(mc, "draws"),
        "bessel.calls": len(bessel),
        "bessel.mp_fallbacks": len(fallbacks),
        "bessel.mp_busy_s": busy(fallbacks),
        "bessel.fast_busy_s": busy(bessel) - busy(fallbacks),
        "trace.overhead_frac": overhead_frac,
    }
