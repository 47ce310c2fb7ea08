"""Reproducible synthesis, reference oracles and ROC evaluation.

Trial data is generated from counter-based Philox streams keyed on
(seed; hypothesis, trial index, role), so any trial can be regenerated in
isolation and batched generation is bit-identical to one-at-a-time
generation regardless of chunking or thread count.

Each synthesis block builds one Philox generator and re-points it at every
stream's counter in turn (building a generator costs about ten times as
much as re-pointing one); the bits are those of a fresh generator per
stream.  No generator is shared between threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .detectors import (
    PriorConfig,
    _batch_energy_stats,
    _batch_fast_stats,
    _retry_rows_scalar,
)
from .errors import DomainError, InputError, NumericError
from .spectra import SampleMatrix, _gram_eigenvalues_batch

__all__ = [
    "Scenario",
    "BayesDetector",
    "EnergyDetector",
    "RocCurve",
    "RocOperatingPoint",
    "synthesize_observation",
    "mc_signal_likelihood_oracle",
    "exact_n1_likelihood_oracle",
    "run_roc",
    "roc_metrics",
]

_HYP_CODES = {"H0": 0, "H1": 1}
_ROLE_NOISE = 0
_ROLE_CHANNEL = 1
_ROLE_SYMBOLS = 2
# The hypothesis slot only ever carries 0 or 1 during synthesis; the oracle
# uses 2 there so its streams can never collide with trial streams.
_ORACLE_HYP_CODE = 2

_ROC_CHUNK = 2048
_ORACLE_CHUNK = 1 << 17
_MAX_FAILED_FRACTION = 1e-3


@dataclass(frozen=True)
class Scenario:
    """A synthetic experiment: geometry, truth, SNR and trial budget."""

    n_sensors: int
    n_snapshots: int
    n_sources: int
    snr_db: float
    n_trials: int
    seed: int

    def __post_init__(self):
        for name in ("n_sensors", "n_snapshots", "n_sources", "n_trials", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "snr_db", float(self.snr_db))
        if self.n_sensors < 1 or self.n_snapshots < 1:
            raise DomainError("scenario needs n_sensors >= 1 and n_snapshots >= 1")
        if self.n_sources < 1:
            raise DomainError("scenario needs n_sources >= 1")
        if self.n_trials < 1:
            raise DomainError("scenario needs n_trials >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if not math.isfinite(self.snr_db):
            raise DomainError("snr_db must be finite")

    @property
    def sigma2(self) -> float:
        """Noise power implied by the SNR with unit-power sources."""
        return 10.0 ** (-self.snr_db / 10.0)


@dataclass(frozen=True)
class BayesDetector:
    """Run the closed-form ratio under the given receiver prior."""

    prior: PriorConfig

    @property
    def label(self) -> str:
        return "bayes"


@dataclass(frozen=True)
class EnergyDetector:
    """Classical total-energy baseline; sigma2=None uses the scenario truth."""

    sigma2: float | None = None

    @property
    def label(self) -> str:
        return "energy"


def _stream(seed: int, hyp_code: int, trial: int, role: int) -> np.random.Generator:
    """A Philox generator keyed on seed at counter [0, trial, role, hyp_code].

    The only place a Philox is built; _repointer re-aims one at other counters.
    """
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, trial, role, hyp_code]))


def _repointer(gen: np.random.Generator):
    """point(hyp_code, trial, role): aim gen at counter [0, trial, role, hyp_code].

    point assigns the bit generator's state: gen's key, an empty buffer
    (buffer_pos 4) and has_uint32 0, which is what a fresh _stream at that
    counter holds, so the bits that follow are the same.  It returns gen.
    """
    state = gen.bit_generator.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    def point(hyp_code: int, trial: int, role: int) -> np.random.Generator:
        state["state"]["counter"] = (0, trial, role, hyp_code)
        gen.bit_generator.state = state
        return gen

    return point


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Unit-power circular complex normals from two standard normal arrays."""
    return (re + 1j * im) / np.sqrt(2.0)


def _complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    z = gen.standard_normal(size=(2,) + tuple(shape))
    return _complex(z[0], z[1])


def _check_hypothesis(hypothesis: str) -> int:
    if hypothesis not in _HYP_CODES:
        raise InputError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    return _HYP_CODES[hypothesis]


def synthesize_observation(s: Scenario, hypothesis: str, trial_index: int) -> SampleMatrix:
    """The observation matrix for one trial of the scenario.

    Deterministic in (seed, hypothesis, trial_index): noise, channel and
    symbols come from independent counter-based streams, so H0 and H1 trials
    with the same index even share nothing but the seed.
    """
    code = _check_hypothesis(hypothesis)
    trial_index = int(trial_index)
    if not 0 <= trial_index < s.n_trials:
        raise InputError(
            f"trial_index {trial_index} outside [0, {s.n_trials}) for this scenario")
    return SampleMatrix(_synthesize_block(s, code, trial_index, 1)[0])


def _synthesize_block(s: Scenario, hyp_code: int, start: int, count: int) -> np.ndarray:
    """Observations of trials start, ..., start + count - 1 under one hypothesis.

    Each trial's noise, channel and symbol normals come from their own
    stream and land in block arrays; the arithmetic then runs once over the
    block, element by element, with one small matrix product per trial, so
    a trial's bits do not depend on the block it is drawn in.
    """
    n, L, m = s.n_sensors, s.n_snapshots, s.n_sources
    shapes = {_ROLE_NOISE: (n, L)}
    if hyp_code:
        shapes.update({_ROLE_CHANNEL: (n, m), _ROLE_SYMBOLS: (m, L)})
    draws = {role: np.empty((count, 2) + shape) for role, shape in shapes.items()}
    point = _repointer(_stream(s.seed, hyp_code, start, _ROLE_NOISE))
    for i in range(count):
        for role, z in draws.items():
            point(hyp_code, start + i, role).standard_normal(out=z[i])
    c = {role: _complex(z[:, 0], z[:, 1]) for role, z in draws.items()}
    noise = math.sqrt(s.sigma2) * c[_ROLE_NOISE]
    if hyp_code == 0:
        return noise
    return (c[_ROLE_CHANNEL] / math.sqrt(m)) @ c[_ROLE_SYMBOLS] + noise


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _real_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(sum_k conj(a_k) b_k) per row of two contiguous (B, N) complex arrays,
    as one real dot product of their (B, 2N) float views."""
    return np.einsum("ij,ij->i", a.view(float), b.view(float))


def _gaussian_loglikes(w_mat: np.ndarray, n_snapshots: int, sigma2: float,
                       h_block: np.ndarray) -> np.ndarray:
    """ln of the conditional density of Y given each channel draw.

    Given C = H H^H + sigma2 I, this is
    -N L ln(pi) - L ln det(C) - tr(Y Y^H C^-1), evaluated for a (B, N, m)
    stack of channels through the m x m matrix G = sigma2 I + H^H H:
    ln det(C) = (N - m) ln sigma2 + ln det(G) (determinant lemma) and
    tr(W C^-1) = (tr W - tr(G^-1 H^H W H)) / sigma2 (Woodbury identity).

    G is factored as U^H D U (Cholesky without square roots, U unit upper
    triangular) one column at a time, vectorised over the draws.  Forward
    substitution V = H U^-1 carries W V along, so ln det(G) = sum_j ln d_j
    and tr(G^-1 H^H W H) = sum_j Re(v_j^H W v_j) / d_j.  h_block is not
    written to.
    """
    b, n, m = h_block.shape
    L = n_snapshots
    # Column j of every draw as one contiguous (B, N) slab.  At m = 1 this is
    # a view of h_block, so nothing below writes to it; W V is a new array.
    h = np.ascontiguousarray(h_block.transpose(2, 0, 1))
    wv = (h.reshape(m * b, n) @ w_mat.T).reshape(m, b, n)
    gram = [[np.einsum("ij,ij->i", h[i].conj(), h[j]) for i in range(j)]
            + [_real_dots(h[j], h[j]) + sigma2] for j in range(m)]
    d, u, v = [], [], []
    logdet_g = np.zeros(b)
    reduced = np.zeros(b)
    for j in range(m):
        # u[j][i] = U_ij for i < j, from G_ij = sum_l conj(U_li) d_l U_lj.
        u_j = []
        for i in range(j):
            acc = gram[j][i]
            for l in range(i):
                acc = acc - u[i][l].conj() * d[l] * u_j[l]
            u_j.append(acc / d[i])
        d_j, v_j = gram[j][j], h[j]
        for i in range(j):
            d_j = d_j - d[i] * (u_j[i].conj() * u_j[i]).real
            v_j = v_j - u_j[i][:, None] * v[i]
            wv[j] -= u_j[i][:, None] * wv[i]
        d.append(d_j)
        u.append(u_j)
        v.append(v_j)
        logdet_g += np.log(d_j)
        reduced += _real_dots(v_j, wv[j]) / d_j
    logdet = logdet_g + (n - m) * math.log(sigma2)
    trace_term = (np.trace(w_mat).real - reduced) / sigma2
    return -n * L * math.log(math.pi) - L * logdet - trace_term


def mc_signal_likelihood_oracle(y: SampleMatrix, m: int, sigma2: float,
                                n_samples: int, seed: int):
    """Monte Carlo estimate of P(Y | m sources) by averaging over channels.

    Returns (estimate as a SignedLog, relative standard error of the
    estimate).  Completely independent of the closed-form machinery: it
    averages the conditional Gaussian density over fresh channel draws.
    """
    m = int(m)
    n_samples = int(n_samples)
    if m < 1:
        raise DomainError("m must be >= 1")
    if n_samples < 1000:
        raise DomainError("n_samples < 1000 gives a meaningless standard error")
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise DomainError("sigma2 must be positive and finite")
    if not 0 <= int(seed) < 2 ** 64:
        raise DomainError("seed must fit in an unsigned 64-bit integer")

    from .special import SignedLog

    n, L = y.n_sensors, y.n_snapshots
    w_mat = y.entries @ y.entries.conj().T
    lls = np.empty(n_samples)
    n_chunks = (n_samples + _ORACLE_CHUNK - 1) // _ORACLE_CHUNK
    point = _repointer(_stream(int(seed), _ORACLE_HYP_CODE, 0, 0))
    for c in range(n_chunks):
        start = c * _ORACLE_CHUNK
        count = min(_ORACLE_CHUNK, n_samples - start)
        h_block = _complex_normal(point(_ORACLE_HYP_CODE, c, 0), (count, n, m))
        h_block /= math.sqrt(m)
        lls[start:start + count] = _gaussian_loglikes(w_mat, L, float(sigma2), h_block)

    peak = lls.max()
    scaled = np.exp(lls - peak)
    mean = scaled.mean()
    if mean <= 0.0:
        raise NumericError("all oracle samples underflowed")
    std = scaled.std(ddof=1)
    se_log = float(std / (mean * math.sqrt(n_samples)))
    return SignedLog(1, float(peak + math.log(mean))), se_log


def _exact_n1_log(x1: float, sigma2: float, n_snapshots: int) -> float:
    """ln P(Y | one source) for a single sensor, by direct 1-D quadrature.

    The channel gain nu = |h|^2 is Exp(1), so the likelihood is
    integral over nu of exp(-nu) (pi (nu+sigma2))^-L exp(-x1/(nu+sigma2)).
    """
    x1 = float(x1)
    sigma2 = float(sigma2)
    L = int(n_snapshots)
    if x1 < 0.0 or not math.isfinite(x1):
        raise DomainError("x1 must be finite and >= 0")
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise DomainError("sigma2 must be positive and finite")
    if L < 1:
        raise DomainError("n_snapshots must be >= 1")

    w_star = 0.5 * (-L + math.sqrt(L * L + 4.0 * x1))
    nu_star = max(0.0, w_star - sigma2)

    def log_f(nu):
        w = nu + sigma2
        return -L * math.log(math.pi * w) - x1 / w - nu

    shift = log_f(nu_star)

    def f(nu):
        return math.exp(log_f(nu) - shift)

    hi = nu_star + 200.0
    pts = [nu_star] if 0.0 < nu_star < hi else None
    head, _ = integrate.quad(f, 0.0, hi, points=pts, limit=200,
                             epsabs=1e-14, epsrel=1e-12)
    tail, _ = integrate.quad(f, hi, np.inf, limit=200)
    total = head + tail
    if total <= 0.0:
        raise NumericError("single-sensor oracle quadrature underflowed")
    return shift + math.log(total)


def exact_n1_likelihood_oracle(x1: float, sigma2: float, n_snapshots: int) -> float:
    """P(Y | one source) for N = 1, to about 1e-10 relative accuracy."""
    return math.exp(_exact_n1_log(x1, sigma2, n_snapshots))


# ---------------------------------------------------------------------------
# ROC evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RocCurve:
    """Empirical ROC: detection vs false alarm over a threshold sweep.

    thresholds are in the detector's own log statistic domain, descending;
    far and cdr are the matching false-alarm and correct-detection rates.
    Failed trials (numerically unevaluable statistics) are excluded from the
    denominators and counted separately.
    """

    thresholds: np.ndarray
    far: np.ndarray
    cdr: np.ndarray
    n_noise_trials: int
    n_signal_trials: int
    n_failed_noise: int
    n_failed_signal: int
    detector_label: str
    scenario: Scenario


@dataclass(frozen=True)
class RocOperatingPoint:
    """roc_metrics output: the curve read at one false-alarm target."""

    far_target: float
    cdr: float
    nearest_threshold: float
    nearest_far: float
    nearest_cdr: float
    stderr: float
    clipped: bool


def _stats_for_hypothesis(s: Scenario, hyp_code: int, detector,
                          n_threads: int):
    """Detection statistics for every trial under one hypothesis.

    Returns (stats with NaN at failures, n_failed).  The rows any chunk
    flags are redone in one pass after all chunks, each as a scalar call
    would be.  Chunk boundaries are fixed, so the result is independent of
    n_threads.
    """
    n_trials = s.n_trials
    n_chunks = (n_trials + _ROC_CHUNK - 1) // _ROC_CHUNK

    energy = isinstance(detector, EnergyDetector)
    if energy:
        sigma2 = s.sigma2 if detector.sigma2 is None else float(detector.sigma2)

    def eval_chunk(c):
        start = c * _ROC_CHUNK
        count = min(_ROC_CHUNK, n_trials - start)
        block = _synthesize_block(s, hyp_code, start, count)
        vals = _gram_eigenvalues_batch(block)
        if energy:
            stats = _batch_energy_stats(vals, s.n_snapshots, sigma2)
            return stats, np.zeros(count, dtype=bool), vals
        stats, bad, _ = _batch_fast_stats(vals, s.n_snapshots, detector.prior)
        return stats, bad, vals

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(eval_chunk, range(n_chunks)))
    else:
        results = [eval_chunk(c) for c in range(n_chunks)]

    stats, bad, vals = (np.concatenate(parts) for parts in zip(*results))
    if not bad.any():
        return stats, 0
    # Scalar escalation is serial: it adjusts global mpmath precision.
    failed, _ = _retry_rows_scalar(vals, s.n_snapshots, detector.prior, stats,
                                   np.nonzero(bad)[0])
    return stats, int(failed.sum())


def run_roc(s: Scenario, detector, thresholds="auto", n_threads: int = 1) -> RocCurve:
    """Empirical ROC of a detector over the scenario's H0 and H1 trials.

    thresholds="auto" sweeps every achievable operating point (all distinct
    statistic values plus the two trivial endpoints); an array sweeps those
    values instead.  More than 0.1% failed trials raises NumericError;
    fewer are excluded from the rates and reported on the curve.
    """
    if not isinstance(detector, (BayesDetector, EnergyDetector)):
        raise DomainError("detector must be a BayesDetector or EnergyDetector")
    n_threads = int(n_threads)
    if n_threads < 1:
        raise DomainError("n_threads must be >= 1")

    stats0, failed0 = _stats_for_hypothesis(s, 0, detector, n_threads)
    stats1, failed1 = _stats_for_hypothesis(s, 1, detector, n_threads)
    n_failed = failed0 + failed1
    if n_failed > _MAX_FAILED_FRACTION * 2 * s.n_trials:
        raise NumericError(
            f"{n_failed} of {2 * s.n_trials} trials failed numerically "
            f"(> {_MAX_FAILED_FRACTION:.1%})")

    valid0 = np.sort(stats0[~np.isnan(stats0)])
    valid1 = np.sort(stats1[~np.isnan(stats1)])
    n0, n1 = valid0.size, valid1.size
    if n0 == 0 or n1 == 0:
        raise NumericError("no valid trials under one hypothesis")

    if isinstance(thresholds, str):
        if thresholds != "auto":
            raise InputError(f"thresholds must be 'auto' or an array, got {thresholds!r}")
        uniq = np.unique(np.concatenate([valid0, valid1]))
        thr = np.concatenate(([np.inf], uniq[::-1], [-np.inf]))
    else:
        thr = np.asarray(thresholds, dtype=float)
        if thr.ndim != 1 or thr.size == 0:
            raise InputError("explicit thresholds must be a non-empty 1-D array")
        thr = np.sort(thr)[::-1]

    far = (n0 - np.searchsorted(valid0, thr, side="right")) / n0
    cdr = (n1 - np.searchsorted(valid1, thr, side="right")) / n1
    return RocCurve(thr, far, cdr, n0, n1, failed0, failed1,
                    detector.label, s)


def roc_metrics(curve: RocCurve, far_target: float) -> RocOperatingPoint:
    """Read a curve at a false-alarm target.

    cdr interpolates linearly between the two bracketing operating points;
    the nearest_* fields report the closest achieved point with a binomial
    standard error on its detection rate.  clipped marks targets outside the
    range the curve actually resolves.
    """
    far_target = float(far_target)
    if not 0.0 < far_target < 1.0:
        raise DomainError("far_target must lie strictly between 0 and 1")
    far = curve.far
    cdr = curve.cdr
    # thresholds descend, so far ascends along the stored arrays
    interp_cdr = float(np.interp(far_target, far, cdr))
    positive = far[far > 0.0]
    min_resolved = positive[0] if positive.size else math.inf
    clipped = bool(far_target < min_resolved or far_target > far[-1])
    idx = int(np.argmin(np.abs(far - far_target)))
    nearest_cdr = float(cdr[idx])
    stderr = math.sqrt(nearest_cdr * (1.0 - nearest_cdr) / curve.n_signal_trials)
    return RocOperatingPoint(far_target, interp_cdr, float(curve.thresholds[idx]),
                             float(far[idx]), nearest_cdr, stderr, clipped)
