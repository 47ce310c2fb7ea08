"""Benchmark worker: runs one workload in one fresh process.

``run.py`` starts this file with OpenBLAS and OpenMP pinned to one thread,
times it until it prints ``SETUP_DONE`` (imports, input generation and a
warm-up call of every path), and reads the JSON record it prints last.
The library is imported from the checkout's ``src/`` directory.

A workload is a sequence of passes; a pass is a fixed list of requests,
each one call into the public ``eigensense`` API, timed on its own.  Passes
repeat until the next one would overrun ``--seconds`` (at least
``min_passes``).  Each one-thread request's time is scaled by a speed probe
taken around it (SpeedProbe), a multi-thread request has the CPU time the
host stole while it ran taken off (steal_seconds), and rates and latencies
are medians over passes and requests, so neither a slow spell of a shared
host nor one stalled pass moves them much.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_MARK = "SETUP_DONE"
SLOWDOWN_MARK = "SETUP_SLOWDOWN"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A request's ln C must sit on a curve threshold within this distance.
THRESHOLD_TOL = 1e-9
# Largest relative gap allowed between the two routes to J (criterion 1).
BESSEL_TOL = 1e-8
# Monte Carlo estimates must fall within this many standard errors.
MC_SIGMAS = 5.0
POSTERIOR_TOL = 1e-12
# The latency tail is the highest percentile with this many samples beyond.
TAIL_BEYOND = 10
# SpeedProbe: sampling interval, window half-width, and the reference time
# (a fast spell of a 2-core Xeon VM) that normalised latencies are scaled to.
PROBE_INTERVAL_S = 0.2
PROBE_SPAN = 3
PROBE_REF_S = 0.0065
# Clock ticks per second of the steal counters in /proc/stat.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
# Warm-up inputs do not depend on --seed, so set-up does the same work on
# every run (whether a warm-up request escalates depends on its input).
WARM_SEED = 0


def import_library():
    sys.path.insert(0, str(SRC))
    import eigensense

    if Path(eigensense.__file__).resolve().parent != SRC / "eigensense":
        raise ImportError(f"eigensense imported from {eigensense.__file__}, not {SRC}")
    return eigensense


@dataclass
class Request:
    kind: str
    call: object
    units: int = 1
    meta: object = None
    threads: int = 1


@dataclass
class Result:
    kind: str
    raw: float                 # seconds on the wall clock
    output: object
    units: int
    meta: object
    error: str | None = None
    latency: float = 0.0       # raw scaled by SpeedProbe, or less steal_seconds


@dataclass
class Pass:
    results: list
    wall: float


def sub_seed(*parts) -> int:
    """A 64-bit scenario seed derived from the workload seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def sha256(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c).tobytes() if isinstance(c, np.ndarray)
                 else repr(c).encode())
    return h.hexdigest()


def median_rate(passes, kinds, units=lambda r: r.units, clock=lambda r: r.latency) -> float:
    """Median over passes of work units per second of the given request kinds."""
    rates = []
    for p in passes:
        rs = [r for r in p.results if r.kind in kinds]
        rates.append(sum(units(r) for r in rs) / sum(clock(r) for r in rs))
    return statistics.median(rates)


def tail_index(n: int) -> int:
    """Index in the sorted sample of the highest percentile with TAIL_BEYOND beyond."""
    return max(0, n - TAIL_BEYOND - 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs, passes, output checks and digest of one workload."""

    min_passes = 1
    work_kinds: frozenset = frozenset()   # requests whose units count as work
    latency_kinds: frozenset = frozenset()
    threads = 1

    def __init__(self, es, seed: int):
        self.es = es
        self.seed = seed

    def pass_requests(self, index: int, threads: int | None = None) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, passes) -> tuple[list, dict]:
        """(problems, notes) for the outputs of the given passes."""
        raise NotImplementedError

    def digest(self, passes) -> str:
        raise NotImplementedError

    def rates(self, passes) -> dict:
        """The workload's own end-to-end rates, by the names in the README."""
        raise NotImplementedError

    def work_per_s(self, passes) -> float:
        return median_rate(passes, self.work_kinds)


class RocWorkload(Workload):
    """run_roc sweeps plus single-trial requests on trials of the same sweep.

    The single-trial requests are the output check (each ln C must sit on a
    threshold of the Bayes curve) and the latency population.
    """

    work_kinds = frozenset({"sweep"})
    latency_kinds = frozenset({"detect"})
    snr_db = -3.0

    def __init__(self, es, seed, trials: int | None = None):
        super().__init__(es, seed)
        self.trials = trials or self.trials
        self.scenario = es.Scenario(4, 8, self.n_sources, self.snr_db, self.trials, seed)

    def detectors(self) -> list:
        raise NotImplementedError

    def _detect(self, y):
        es = self.es
        return es.detection_log_ratio(es.gram_eigenvalues(y), self.prior)

    def pass_requests(self, index, threads=None):
        es = self.es
        threads = threads or self.threads
        reqs = [Request("sweep", partial(es.run_roc, self.scenario, det, n_threads=threads),
                        2 * self.trials, det.label, threads)
                for det in self.detectors()]
        rng = np.random.default_rng([self.seed, index])
        per_hyp = self.n_requests // 2
        for hyp in ("H0", "H1"):
            for trial in rng.choice(self.trials, size=per_hyp, replace=False):
                y = es.synthesize_observation(self.scenario, hyp, int(trial))
                reqs.append(Request("detect", partial(self._detect, y), 1, (hyp, int(trial), y)))
        return reqs

    def warm_up(self):
        es = self.es
        small = es.Scenario(4, 8, self.n_sources, self.snr_db, 64, WARM_SEED)
        for det in self.detectors():
            es.run_roc(small, det, n_threads=self.threads)
        self._detect(es.synthesize_observation(small, "H1", 0))

    def _curves(self, p):
        return {r.meta: r.output for r in p.results if r.kind == "sweep" and r.output}

    def check(self, passes):
        es = self.es
        problems = []
        exact = checked = 0
        for p in passes:
            curves = self._curves(p)
            for label, c in curves.items():
                if c.n_noise_trials + c.n_failed_noise != self.trials or \
                        c.n_signal_trials + c.n_failed_signal != self.trials:
                    problems.append(f"{label} curve does not account for every trial")
                if np.any(np.diff(c.far) < 0) or np.any(np.diff(c.cdr) < 0):
                    problems.append(f"{label} curve rates are not monotone")
            thresholds = {label: np.sort(c.thresholds[np.isfinite(c.thresholds)])
                          for label, c in curves.items()}
            for r in p.results:
                if r.kind != "detect" or r.output is None:
                    continue
                hyp, trial, y = r.meta
                values = [("bayes", r.output.log_ratio)]
                if "energy" in thresholds:
                    values.append(("energy", es.energy_statistic(
                        es.gram_eigenvalues(y), self.scenario.sigma2).log_ratio))
                for label, stat in values:
                    thr = thresholds.get(label)
                    if thr is None:
                        continue
                    checked += 1
                    gap = np.min(np.abs(thr - stat.log_magnitude))
                    if stat.sign != 1 or not gap <= THRESHOLD_TOL:
                        problems.append(f"{label} {hyp} trial {trial}: ln C "
                                        f"{stat.log_magnitude!r} is {gap:.3g} off the curve")
                    exact += bool(gap == 0.0)
        if len({self.digest([p]) for p in passes}) > 1:
            problems.append("curves differ between passes of the same scenario")
        return problems, {"requests_checked": checked, "exact_matches": exact}

    def digest(self, passes):
        curves = self._curves(passes[0])
        return sha256(x for label in sorted(curves) for x in (
            label, curves[label].thresholds, curves[label].far, curves[label].cdr,
            curves[label].n_failed_noise, curves[label].n_failed_signal))

    def rates(self, passes):
        return {"trials_per_s": (self.work_per_s(passes), "1/s")}


class RocKnown(RocWorkload):
    name = "roc_known"
    n_sources = 1
    trials = 2048      # short passes, so the median pass sees a typical machine
    n_requests = 6

    def __init__(self, es, seed, trials=None):
        super().__init__(es, seed, trials)
        self.prior = es.PriorConfig(es.ExactCount(1), es.ExactNoise(self.scenario.sigma2))

    def detectors(self):
        return [self.es.BayesDetector(self.prior), self.es.EnergyDetector()]


class RocMarginal(RocWorkload):
    name = "roc_marginal"
    n_sources = 2
    trials = 4096      # two 2048-trial chunks per hypothesis, one per worker
    n_requests = 20
    threads = 2

    def __init__(self, es, seed, trials=None):
        super().__init__(es, seed, trials)
        self.prior = es.PriorConfig(es.BoundedCount(2), es.NoiseGrid(-5.0, 5.0, 11, "db"))

    def detectors(self):
        return [self.es.BayesDetector(self.prior)]


class DetectMix(Workload):
    """Closed loop, one client: scalar requests in a fixed cyclic class order.

    Weights 3/6/1/1/1/1 put the median inside known2.  The tail percentile
    is the 11th-slowest request; 13 cycles put it inside the escalate4
    class even when an escalate4 input happens not to escalate.
    """

    name = "detect_mix"
    min_passes = 13
    work_kinds = latency_kinds = frozenset({"detect", "count"})
    classes = (("known1", 3), ("known2", 6), ("grid1", 1),
               ("count3", 1), ("bounded4", 1), ("escalate4", 1))
    warm_offset = 1 << 20

    def __init__(self, es, seed):
        super().__init__(es, seed)
        grid = es.NoiseGrid(-5.0, 5.0, 11, "db")
        self.priors = {
            "known1": es.PriorConfig(es.ExactCount(1), es.ExactNoise(1.0)),
            "known2": es.PriorConfig(es.ExactCount(2), es.ExactNoise(1.0)),
            "grid1": es.PriorConfig(es.ExactCount(1), grid),
            "bounded4": es.PriorConfig(es.BoundedCount(4), grid),
            # The receiver assumes noise 9 dB above the truth, so the m=4
            # sum cancels past the double-precision limit.
            "escalate4": es.PriorConfig(es.ExactCount(4), es.ExactNoise(10.0 ** 0.9)),
        }
        self.scenarios = {
            name: es.Scenario(6 if name == "count3" else 4, 9 if name == "count3" else 8,
                              1, 0.0, 1 << 30, sub_seed(seed, i))
            for i, (name, _) in enumerate(self.classes)
        }

    def _request(self, name, j):
        es = self.es
        y = es.synthesize_observation(self.scenarios[name], "H1" if j % 2 else "H0", j)
        if name == "count3":
            call = partial(self._count, y)
        else:
            call = partial(self._detect, y, self.priors[name])
        return Request("count" if name == "count3" else "detect", call, 1, name)

    def _detect(self, y, prior):
        es = self.es
        return es.detection_log_ratio(es.gram_eigenvalues(y), prior)

    def _count(self, y):
        es = self.es
        return es.source_count_posteriors(es.gram_eigenvalues(y), 1.0, 3)

    def pass_requests(self, index, threads=None):
        return [self._request(name, index * weight + i)
                for name, weight in self.classes for i in range(weight)]

    def warm_up(self):
        warm = DetectMix(self.es, WARM_SEED)
        for name, _ in self.classes:
            warm._request(name, self.warm_offset).call()

    def check(self, passes):
        problems = []
        escalated = 0
        for p in passes:
            for r in p.results:
                if r.output is None:
                    continue
                if r.kind == "count":
                    total = math.fsum(r.output.probabilities)
                    if not abs(total - 1.0) <= POSTERIOR_TOL:
                        problems.append(f"count posterior sums to {total!r}")
                else:
                    stat = r.output.log_ratio
                    if stat.sign != 1 or not math.isfinite(stat.log_magnitude):
                        problems.append(f"{r.meta}: statistic {stat} is not finite and positive")
                    escalated += r.output.extended_used
        return problems, {"extended_requests": escalated}

    def digest(self, passes):
        chunks = []
        for p in passes:
            for r in p.results:
                if r.output is None:
                    chunks.append(r.error)
                elif r.kind == "count":
                    chunks.append(np.array(r.output.probabilities))
                else:
                    chunks.append(np.array([r.output.log_ratio.sign,
                                            r.output.log_ratio.log_magnitude]))
        return sha256(chunks)

    def rates(self, passes):
        out = {"requests_per_s": (self.work_per_s(passes), "1/s")}
        for name, _ in self.classes:
            lat = [r.latency for p in passes for r in p.results if r.meta == name]
            out[f"{name}_p50_ms"] = (1e3 * statistics.median(lat), "ms")
        return out


class Oracles(Workload):
    """The validation paths: j_via_bessel against j_integral over the table
    grid, then channel-averaging Monte Carlo at m=1 and m=2 on one 4x8
    observation.  One request per grid point and per Monte Carlo estimate.
    """

    name = "oracles"
    work_kinds = latency_kinds = frozenset({"point", "mc"})
    j_orders = range(-12, 7)
    j_x = (0.1, 0.5, 1.0, 2.0, 5.0)
    j_y = (0.1, 1.0, 10.0, 100.0)
    # (m, draws, estimates) per pass.  Below about 2^19 draws at m=1 the
    # oracle's own standard error is too small now and then (one estimate in
    # a few hundred lands beyond 5 SE), so the check would fail by chance.
    mc_plan = ((1, 1 << 19, 2), (2, 1 << 18, 2))
    sigma2 = 1.0

    def __init__(self, es, seed):
        super().__init__(es, seed)
        scenario = es.Scenario(4, 8, 1, 0.0, 1, seed)
        self.observation = es.synthesize_observation(scenario, "H1", 0)

    def _point(self, k, x, y):
        es = self.es
        return es.j_via_bessel(k, x, y), es.j_integral(k, x, y).log_magnitude

    def _mc(self, m, seed, draws):
        return self.es.mc_signal_likelihood_oracle(self.observation, m, self.sigma2,
                                                   draws, seed)

    def pass_requests(self, index, threads=None):
        reqs = [Request("point", partial(self._point, k, x, y), 1, (k, x, y))
                for k in self.j_orders for x in self.j_x for y in self.j_y]
        for m, draws, count in self.mc_plan:
            for i in range(count):
                seed = sub_seed(self.seed, index, m, i)
                reqs.append(Request("mc", partial(self._mc, m, seed, draws), 1, (m, draws)))
        return reqs

    def warm_up(self):
        # Off-grid points: one on the double route, two that fall to mpmath.
        for k, x, y in ((2, 0.3, 3.0), (-12, 3.0, 0.2), (-7, 4.0, 0.3)):
            self._point(k, x, y)
        for m in (1, 2):
            self._mc(m, WARM_SEED, 1000)

    def check(self, passes):
        es = self.es
        problems = []
        spectrum = es.gram_eigenvalues(self.observation)
        closed = {m: es.log_mimo_signal_likelihood(spectrum, m, self.sigma2).log_magnitude
                  for m in (1, 2)}
        worst_dev = 0.0
        worst_z = 0.0
        for p in passes:
            for r in p.results:
                if r.output is None:
                    continue
                if r.kind == "point":
                    via_bessel, log_quad = r.output
                    dev = abs(math.expm1(log_quad - math.log(via_bessel)))
                    worst_dev = max(worst_dev, dev)
                else:
                    est, se = r.output
                    m = r.meta[0]
                    z = abs(est.log_magnitude - closed[m]) / se
                    worst_z = max(worst_z, z)
                    if not z <= MC_SIGMAS:
                        problems.append(f"MC estimate at m={m} is {z:.2f} SE off")
        if not worst_dev <= BESSEL_TOL:
            problems.append(f"j_via_bessel deviates by {worst_dev:.3g} > {BESSEL_TOL}")
        return problems, {"max_bessel_rel_dev": worst_dev, "max_mc_z": worst_z}

    def digest(self, passes):
        chunks = []
        for r in passes[0].results:
            if r.output is None:
                chunks.append(r.error)
            elif r.kind == "point":
                chunks.append(np.array(r.output))
            else:
                chunks.append(np.array([r.output[0].log_magnitude, r.output[1]]))
        return sha256(chunks)

    def rates(self, passes):
        return {"requests_per_s": (self.work_per_s(passes), "1/s"),
                "oracle_draws_per_s":
                    (median_rate(passes, {"mc"}, lambda r: r.meta[1]), "1/s"),
                "bessel_points_per_s": (median_rate(passes, {"point"}), "1/s")}


WORKLOADS = {w.name: w for w in (RocKnown, RocMarginal, DetectMix, Oracles)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Times a fixed reference computation between requests.

    On a shared host the CPU's speed can drift by tens of percent for
    seconds at a time, long enough for a whole run to sit in a slow or a
    fast spell.  Each request's latency is therefore divided by the local
    slowdown: the median time of the PROBE_SPAN probes before and after it,
    over PROBE_REF_S.  The probe (interpreter loop, small batched LAPACK
    calls, vector math, like the library's own mix) never calls eigensense,
    so a change to the library moves the normalised figures as it moves
    the wall-clock ones.  Both are recorded.  A request that runs on more
    than one thread is not scaled by the probe (with both CPUs busy its speed
    depends on how the two contend, which a one-thread probe does not see)
    but has the CPU time the host stole from it taken off (steal_seconds).
    """

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((64, 8, 8))
        self._mats = a @ a.transpose(0, 2, 1)
        self._vec = np.linspace(0.0, 1.0, 20000)
        self.times = []
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(40000):
            x += i * i
        for _ in range(10):
            np.linalg.eigvalsh(self._mats)
            np.exp(self._vec).sum()
        self._last = time.perf_counter()
        self.times.append(self._last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def slowdown(self, seq: int) -> float:
        """Slowdown around a request made after the first `seq` probes."""
        window = self.times[max(0, seq - PROBE_SPAN):seq + PROBE_SPAN]
        return statistics.median(window) / PROBE_REF_S


def steal_seconds() -> float:
    """CPU time the host has run something else on this machine's virtual
    CPUs while they had work, summed over the CPUs (the steal column of
    /proc/stat); 0 where the file is not there.

    On a shared host this is what most slows a two-thread sweep: in 80
    back-to-back roc_marginal sweeps on a 2-vCPU VM, the slow ones (+20%)
    were those with 1.5-2 s of steal, and over sets of ten pairs of sweeps
    the interquartile range fell from 5-12% of the median to 5-7% once
    steal was taken off.  Scaling by SpeedProbe, or by a two-thread numpy
    probe, widened it instead.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if fields[0] != "cpu" or len(fields) < 9:
        return 0.0
    return int(fields[8]) / CLOCK_TICKS


def measure(workload, seconds: float, n_passes: int | None = None,
            tracer=None, threads: int | None = None, probe=None) -> list:
    """Run passes for `seconds` (or exactly n_passes) and time every request."""
    error_types = (workload.es.EigensenseError,)
    passes = []
    probe = probe or SpeedProbe()
    probe.sample()
    # Per request: the SpeedProbe count before it (one thread), or the CPU
    # time stolen per thread while it ran (more than one).
    seqs = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        reqs = workload.pass_requests(index, threads)
        results = []
        t_pass = time.perf_counter()
        for rid, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = (index, rid)
            stolen = steal_seconds()
            t0 = time.perf_counter()
            try:
                output, error = req.call(), None
            except error_types as exc:
                output, error = None, f"{type(exc).__name__}: {exc}"
            results.append(Result(req.kind, time.perf_counter() - t0, output,
                                  req.units, req.meta, error))
            if req.threads > 1:
                seqs.append((steal_seconds() - stolen) / req.threads)
            else:
                seqs.append(len(probe.times))
            probe.maybe_sample()
        passes.append(Pass(results, time.perf_counter() - t_pass))
        if n_passes is not None:
            if len(passes) >= n_passes:
                break
            continue
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= workload.min_passes and elapsed + typical > seconds:
            break
    probe.sample()
    for r, seq in zip((r for p in passes for r in p.results), seqs):
        r.latency = r.raw - seq if isinstance(seq, float) else r.raw / probe.slowdown(seq)
    return passes


def latency_population(workload, passes) -> list:
    return sorted((r.latency, (i, rid)) for i, p in enumerate(passes)
                  for rid, r in enumerate(p.results)
                  if r.kind in workload.latency_kinds)


def timings(workload, passes, clock) -> dict:
    """work_per_s and the latency p50 and tail, timing each request by clock(result)."""
    lat = sorted(clock(r) for p in passes for r in p.results if r.kind in workload.latency_kinds)
    i_tail = tail_index(len(lat))
    return {"work_per_s": median_rate(passes, workload.work_kinds, clock=clock),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * lat[i_tail],
            "latency_tail_percentile": 100.0 * (i_tail + 1) / len(lat),
            "latency_samples": len(lat)}


def attempted_and_failed(passes) -> tuple[int, int]:
    """Operations attempted and failed: trials for a sweep, else one per request."""
    attempted = failed = 0
    for r in (r for p in passes for r in p.results):
        n = r.units if r.kind == "sweep" else 1
        attempted += n
        if r.error is not None:
            failed += n
        elif r.kind == "sweep":
            failed += r.output.n_failed_noise + r.output.n_failed_signal
    return attempted, failed


def end_to_end(workload, passes) -> tuple[dict, dict]:
    """(metrics for the final JSON line, every named metric with its unit)."""
    t = timings(workload, passes, lambda r: r.latency)
    attempted, failed = attempted_and_failed(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": (t["work_per_s"], "1/s"),
        "latency_p50_ms": (t["latency_p50_ms"], "ms"),
        "latency_tail_ms": (t["latency_tail_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named = dict(workload.rates(passes))
    named.update({
        "latency_p50_ms": metrics["latency_p50_ms"],
        "latency_tail_ms": metrics["latency_tail_ms"],
        "latency_tail_percentile": (t["latency_tail_percentile"], "%"),
        "latency_samples": (t["latency_samples"], "count"),
        "failed_fraction": (failed / attempted, "1"),
        "peak_rss_mb": metrics["peak_rss_mb"],
    })
    return metrics, named


def probe_summary(times) -> dict:
    q1, median, q3 = statistics.quantiles([1e3 * t for t in times], n=4)
    return {"samples": len(times), "median": median, "q1": q1, "q3": q3,
            "min": 1e3 * min(times), "max": 1e3 * max(times)}


def traced_run(workload, es, passes) -> tuple[dict, list, dict]:
    """Replay the measured passes traced; returns (layer metrics, problems, notes)."""
    tracer = spans.Tracer()
    spans.instrument(tracer, es)
    try:
        traced = measure(workload, 0.0, n_passes=len(passes), tracer=tracer)
    finally:
        tracer.uninstall()
    problems, _ = workload.check(traced)
    notes = {"digest_traced": workload.digest(traced)}
    if notes["digest_traced"] != workload.digest(passes):
        problems.append("traced and untraced digests differ")

    lat = latency_population(workload, traced)
    tail_requests = [rid for _, rid in lat[tail_index(len(lat)):]]
    overhead = (sum(r.latency for p in traced for r in p.results)
                / sum(r.latency for p in passes for r in p.results) - 1.0)

    speedup = 0.0
    if isinstance(workload, RocWorkload):
        # One more traced pass at the other thread count: 2 threads against 1.
        other = 2 if workload.threads == 1 else 1
        extra_tracer = spans.Tracer()
        spans.instrument(extra_tracer, es)
        try:
            extra = measure(workload, 0.0, n_passes=1, tracer=extra_tracer, threads=other)
        finally:
            extra_tracer.uninstall()

        def sweep_time(p):
            return sum(r.raw for r in p.results if r.kind == "sweep")

        by_threads = {workload.threads: sweep_time(traced[0]), other: sweep_time(extra[0])}
        speedup = by_threads[1] / by_threads[2]
        notes[f"digest_threads_{other}"] = workload.digest(extra)
        if notes[f"digest_threads_{other}"] != notes["digest_traced"]:
            problems.append(f"curves differ between n_threads={workload.threads} and {other}")

    metrics = spans.layer_metrics(tracer, tail_requests, overhead, speedup)
    notes["self_s"] = tracer.self_times()
    return metrics, problems, notes


# ---------------------------------------------------------------------------
# Record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    import mpmath
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    es = import_library()
    workload = WORKLOADS[args.workload](es, args.seed)
    workload.warm_up()
    print(SETUP_MARK, flush=True)
    # run.py divides the set-up time by the slowdown measured right after it.
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    print(f"{SLOWDOWN_MARK} {statistics.median(probe.times) / PROBE_REF_S!r}", flush=True)
    if args.setup_only:
        return 0

    probe = SpeedProbe()
    passes = measure(workload, args.seconds, probe=probe)
    problems, notes = workload.check(passes)
    metrics, named = end_to_end(workload, passes)
    attempted, failed = attempted_and_failed(passes)
    record = {
        "workload": workload.name,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "digest": workload.digest(passes),
        "end_to_end": metrics,
        "named": named,
        "checks": notes,
        "wall_clock": timings(workload, passes, lambda r: r.raw),
        "probe_ms": probe_summary(probe.times),
        "machine": machine(args.seed),
    }
    if args.trace:
        layers, trace_problems, trace_notes = traced_run(workload, es, passes)
        problems += trace_problems
        record["per_layer"] = layers
        record["trace"] = trace_notes
    record["problems"] = problems
    record["correct"] = not problems
    print(json.dumps(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
