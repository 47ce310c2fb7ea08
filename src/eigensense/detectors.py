"""Closed-form Bayesian detection ratios over eigenvalue spectra.

Implements, all as functions of the eigenvalues x_1 >= ... >= x_N of Y Y^H:

* the pure-noise log likelihood,
* the signal likelihood of m <= N sources (MIMO), assembled term-by-term
  in signed log arithmetic; one source (SIMO) is the same sum at m=1,
* the decision ratio C = P(signal)/P(noise) for every combination of
  known or uniformly distributed source count and known/gridded noise power,
* the classical energy detector baseline, and
* the source-count posterior over {0, 1, ..., m_max} sources.

Each statistic has one evaluation path: the batch kernels (guard, signal
components per (m, sigma2), logsumexp combine, energy) run on (B, N) stacks,
and the scalar API runs them at B=1, bit for bit.  One source is the
m-source sum at m=1.

The alternating sums in the closed forms can cancel catastrophically when
eigenvalues cluster, so every component tracks its cancellation severity; one
that lost more than CANCEL_DIGITS_LIMIT digits, is non-finite or has the wrong
sign is flagged in a batch and re-run in multiprecision on the scalar path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import logsumexp

from .errors import DegeneracyError, DomainError, NumericError
from .special import (
    CANCEL_DIGITS_LIMIT,
    CancellationReport,
    SignedLog,
    _log_j_batch,
    _log_j_segment_mp,
    _signed_lse_rows,
)
from .spectra import EigenSpectrum

__all__ = [
    "ExactCount",
    "BoundedCount",
    "ExactNoise",
    "NoiseGrid",
    "PriorConfig",
    "DetectionStatistic",
    "CountPosterior",
    "log_noise_likelihood",
    "log_simo_signal_likelihood",
    "log_mimo_signal_likelihood",
    "detection_log_ratio",
    "energy_statistic",
    "source_count_posteriors",
]

_LN10 = math.log(10.0)
_LOG_PI = math.log(math.pi)

# Degeneracy guard: eigenvalue pairs closer than this (relative to x_1) get a
# deterministic perturbation before the signal formulas are evaluated.
_GAP_REL = 1e-9
_PERTURB_EPS = 1e-8


# ---------------------------------------------------------------------------
# Receiver priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactCount:
    """The receiver knows the number of transmitting sources."""

    m: int

    def __post_init__(self):
        if int(self.m) < 1:
            raise DomainError("source count must be >= 1")
        object.__setattr__(self, "m", int(self.m))


@dataclass(frozen=True)
class BoundedCount:
    """Source count unknown; uniform prior over 1..m_max."""

    m_max: int

    def __post_init__(self):
        if int(self.m_max) < 1:
            raise DomainError("m_max must be >= 1")
        object.__setattr__(self, "m_max", int(self.m_max))


@dataclass(frozen=True)
class ExactNoise:
    """The receiver knows the noise power sigma2."""

    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "sigma2", _check_sigma2(self.sigma2))


@dataclass(frozen=True)
class NoiseGrid:
    """Noise power known only to lie in a range; marginalised over a grid.

    On the linear scale sigma2_min/sigma2_max bound sigma2 itself and the
    grid takes the k_points midpoints of equal cells (a uniform prior, so the
    weights are equal and cancel in the ratio).  On the "db" scale the bounds
    are read as 10*log10(sigma2) and the points are spaced evenly in dB,
    endpoints included; the non-uniform linear cell widths then enter as
    explicit weights so the prior stays uniform in sigma2.
    """

    sigma2_min: float
    sigma2_max: float
    k_points: int
    scale: str = "linear"

    def __post_init__(self):
        lo, hi, k = float(self.sigma2_min), float(self.sigma2_max), int(self.k_points)
        if self.scale not in ("linear", "db"):
            raise DomainError(f"grid scale must be 'linear' or 'db', got {self.scale!r}")
        if k < 1:
            raise DomainError("k_points must be >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("grid bounds must be finite")
        if self.scale == "linear" and lo <= 0.0:
            raise DomainError("linear sigma2 grid requires sigma2_min > 0")
        if k >= 2 and not lo < hi:
            raise DomainError("grid with k_points >= 2 requires sigma2_min < sigma2_max")
        if k == 1 and lo > hi:
            raise DomainError("grid requires sigma2_min <= sigma2_max")
        object.__setattr__(self, "sigma2_min", lo)
        object.__setattr__(self, "sigma2_max", hi)
        object.__setattr__(self, "k_points", k)
        try:  # dB bounds far enough out put nodes or weights past a double's range
            with np.errstate(all="ignore"):
                nodes = np.concatenate(self.points_and_weights())
            representable = np.all(np.isfinite(nodes) & (nodes > 0.0))
        except OverflowError:  # a lone dB point overflows Python's float power
            representable = False
        if not representable:
            raise DomainError(f"noise grid {lo}:{hi}:{k} ({self.scale}) has a sigma2 "
                              "node or weight that is not a finite positive double")

    def points_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        k = self.k_points
        if self.scale == "linear":
            delta = (self.sigma2_max - self.sigma2_min) / k
            points = self.sigma2_min + (np.arange(k) + 0.5) * delta
            weights = np.full(k, 1.0 / k)
            return points, weights
        if k == 1:
            mid_db = 0.5 * (self.sigma2_min + self.sigma2_max)
            return np.array([10.0 ** (mid_db / 10.0)]), np.array([1.0])
        step = (self.sigma2_max - self.sigma2_min) / (k - 1)
        db = self.sigma2_min + step * np.arange(k)
        points = 10.0 ** (db / 10.0)
        weights = 10.0 ** ((db + 0.5 * step) / 10.0) - 10.0 ** ((db - 0.5 * step) / 10.0)
        weights = weights / weights.sum()
        return points, weights


@dataclass(frozen=True)
class PriorConfig:
    """What the receiver knows: source count and noise power."""

    source_count: ExactCount | BoundedCount
    noise: ExactNoise | NoiseGrid

    def __post_init__(self):
        if not isinstance(self.source_count, (ExactCount, BoundedCount)):
            raise DomainError("source_count must be ExactCount or BoundedCount")
        if not isinstance(self.noise, (ExactNoise, NoiseGrid)):
            raise DomainError("noise must be ExactNoise or NoiseGrid")


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionStatistic:
    """A detector output: the statistic as a SignedLog plus diagnostics.

    For the Bayesian detectors log_ratio carries ln C; for the energy
    detector it carries the raw (linear) statistic in log form.  The sign is
    +1 for every valid Bayesian statistic.
    """

    log_ratio: SignedLog
    detector_id: str
    cancellation: CancellationReport
    extended_used: bool = False
    perturbed: bool = False

    @property
    def log10_ratio(self) -> float:
        if self.log_ratio.sign == 0:
            return -math.inf
        if self.log_ratio.sign < 0:
            return math.nan
        return self.log_ratio.log_magnitude / _LN10

    def decides_signal(self, log_threshold: float = 0.0) -> bool:
        """Compare ln C against a natural-log threshold (default ln 1 = 0)."""
        if self.log_ratio.sign == 0:
            return False
        return self.log_ratio.log_magnitude > log_threshold


@dataclass(frozen=True)
class CountPosterior:
    """Posterior over the number of sources k, under a uniform prior.

    ratios[i] is the posterior odds p_i / (1 - p_i); it is inf when the other
    hypotheses are too unlikely for the odds to fit in a double.
    """

    counts: tuple
    probabilities: tuple
    ratios: tuple
    sigma2: float
    m_max: int
    includes_noise_hypothesis: bool

    def argmax_count(self) -> int:
        return self.counts[int(np.argmax(self.probabilities))]


# ---------------------------------------------------------------------------
# Validation and the degeneracy guard
# ---------------------------------------------------------------------------

def _check_sigma2(sigma2: float) -> float:
    s = float(sigma2)
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")
    return s


def _check_bayes_shape(n: int, L: int) -> None:
    if L <= n:
        raise DomainError(
            f"Bayesian detectors require more snapshots than sensors (L > N); got N={n}, L={L}")


def _guard_values(vals: np.ndarray) -> tuple[np.ndarray, bool]:
    """_guard_values_batch for one descending spectrum: (values, perturbed)."""
    out, flagged = _guard_values_batch(vals[None, :])
    return out[0], bool(flagged[0])


def _guard_values_batch(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perturb (B, N) descending spectra whose gaps fall under the guard threshold.

    The offsets are deterministic and symmetric around zero (epsilon * x_1 *
    centred rank); when a symmetric shift would push the smallest eigenvalue
    negative, a nonnegative variant anchored at the smallest value is used.
    Returns the guarded rows and the mask of perturbed rows.
    """
    b, n = vals.shape
    if n == 1:
        return vals, np.zeros(b, dtype=bool)
    scale = np.where(vals[:, 0] > 0.0, vals[:, 0], 1.0)
    gaps = vals[:, :-1] - vals[:, 1:]
    flagged = gaps.min(axis=1) < _GAP_REL * scale
    if not flagged.any():
        return vals, flagged
    out = vals.copy()
    ranks = np.arange(1, n + 1, dtype=float)
    sym = 0.5 * (n + 1) - ranks
    pos = n - ranks
    for i in np.nonzero(flagged)[0]:
        offsets = _PERTURB_EPS * scale[i] * sym
        if vals[i, -1] + offsets[-1] < 0.0:
            offsets = _PERTURB_EPS * scale[i] * pos
        out[i] = vals[i] + offsets
        if np.any(out[i, :-1] - out[i, 1:] <= 0.0) or np.any(out[i] < 0.0):
            raise DegeneracyError("spectrum remained degenerate after the deterministic guard")
    return out, flagged


# ---------------------------------------------------------------------------
# Noise likelihood
# ---------------------------------------------------------------------------

def _noise_ll_from_values(gvals_sum, n: int, L: int, sigma2: float):
    """ln P(Y | pure noise) from the eigenvalue sum; a float or a (B,) array."""
    return -n * L * math.log(math.pi * sigma2) - gvals_sum / sigma2


def log_noise_likelihood(x: EigenSpectrum, sigma2: float) -> float:
    """ln P(Y | pure noise at power sigma2): -NL ln(pi sigma2) - sum(x)/sigma2."""
    s2 = _check_sigma2(sigma2)
    vals = x.sorted_descending()
    return _noise_ll_from_values(float(np.sum(vals)), x.n_sensors, x.n_snapshots, s2)


# ---------------------------------------------------------------------------
# Signal likelihood (m sources, m <= N; one source is m=1)
# ---------------------------------------------------------------------------

def _log_gaps(gvals: np.ndarray) -> np.ndarray:
    """log|x_i - x_j| over a (B, N) stack, flattened to (B, N*N) with index
    i*N + j; the diagonal holds 0."""
    b, n = gvals.shape
    absd = np.abs(gvals[:, :, None] - gvals[:, None, :]).reshape(b, n * n)
    absd[:, :: n + 1] = 1.0
    return np.log(absd)


def _perm_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=None)
def _mimo_tables(n: int, m: int):
    """Gather tables of the m-source sum, shared by the double and mpmath paths.

    The terms are the ordered m-tuples a of distinct sensor indices, each with
    every permutation b of the J orders 1..m, tuple-major.  Read-only arrays:

    * tuples (T, m): the tuples a;
    * gaps: per i < m, the (T, N-1-i) flat gap indices a_i*N + j over the j
      not in a_1..a_i, which divide the term;
    * jcols (m, T*P): per l < m, the flat J index (b_l - 1)*N + a_l of every
      term;
    * signs (T*P,): b's parity times the global (-1)^(m(m-1)/2), which makes
      the likelihood positive, times the signs of the term's gaps, which the
      descending order of the spectrum fixes.
    """
    tuples = list(itertools.permutations(range(n), m))
    perms = list(itertools.permutations(range(m)))
    sign_pref = -1 if (m * (m - 1) // 2) % 2 else 1
    gaps = [[] for _ in range(m)]
    signs = []
    for a in tuples:
        gap_sign = sign_pref
        for i in range(m):
            keep = [j for j in range(n) if j not in a[: i + 1]]
            gaps[i].append([a[i] * n + j for j in keep])
            gap_sign *= -1 if sum(j < a[i] for j in keep) % 2 else 1
        signs += [gap_sign * _perm_sign(p) for p in perms]
    jcols = [[p[l] * n + a[l] for a in tuples for p in perms] for l in range(m)]
    gaps = tuple(np.array(g, dtype=np.intp).reshape(len(tuples), n - 1 - i)
                 for i, g in enumerate(gaps))
    tables = (np.array(tuples, dtype=np.intp), gaps, np.array(jcols, dtype=np.intp),
              np.array(signs, dtype=float))
    for arr in (tables[0], *gaps, *tables[2:]):
        arr.setflags(write=False)
    return tables


def _mimo_prefactor_rows(gvals: np.ndarray, L: int, m: int, sigma2: float) -> np.ndarray:
    # Leading constant is 1/m! (each m-subset of sensors appears m! times in
    # the ordered-tuple sum); validated against the Monte Carlo oracle at
    # (N=3, m=2) and (N=4, m=2).  At m=1 it is the one-source constant, fixed
    # against three independent oracles (Monte Carlo channel averaging, and
    # direct quadrature at N=1 and N=2).
    b, n = gvals.shape
    const = (-math.lgamma(m + 1)
             + 0.5 * m * (2 * L - m + 1) * math.log(m)
             + m * m * sigma2
             - n * L * _LOG_PI
             - (n - m) * (L - m) * math.log(sigma2)
             - sum(math.lgamma(j + 1) for j in range(1, m)))
    return const - gvals.sum(axis=1) / sigma2


def _mimo_batch(gvals: np.ndarray, L: int, m: int, sigma2: float):
    """ln P(Y | m sources) over a (B, N) stack of guarded descending spectra.

    Outer sum over ordered m-tuples a of distinct sensor indices; inner
    alternating sum over permutations b of {1..m} of products
    J_{N-L-2+b_l}(m sigma2, m x_{a_l}); everything in signed log space, every
    term gathered through _mimo_tables.  One source is m=1.
    """
    b, n = gvals.shape
    tuples, gaps, jcols, signs = _mimo_tables(n, m)
    my = (m * gvals).ravel()
    jlog = np.concatenate([_log_j_batch(n - L - 2 + j, m * sigma2, my).reshape(b, n)
                           for j in range(1, m + 1)], axis=1)
    logabs = _log_gaps(gvals)
    # From 0, left to right over gap groups and J factors: the order fixes the bits.
    dlog = sum(logabs[:, g].sum(axis=2) for g in gaps)
    jl = sum(jlog[:, c] for c in jcols).reshape(b, len(tuples), -1)
    eterm = gvals[:, tuples].sum(axis=2) / sigma2
    logmags = ((eterm[:, :, None] + jl) - dlog[:, :, None]).reshape(b, -1)
    sign, log_mag, peak, digits = _signed_lse_rows(signs[None, :].repeat(b, axis=0), logmags)
    pref = _mimo_prefactor_rows(gvals, L, m, sigma2)
    return sign, log_mag + pref, peak + pref, digits


def _simo_batch(gvals: np.ndarray, L: int, sigma2: float):
    """_mimo_batch at m=1.  Nothing in the package calls it; it stays only
    because perfbench/spans.py wraps it by name (ROADMAP item 2 removes it)."""
    return _mimo_batch(gvals, L, 1, sigma2)


# ---------------------------------------------------------------------------
# Multiprecision fallback (the same term tables as _mimo_batch)
# ---------------------------------------------------------------------------

def _signal_mp(gvals: np.ndarray, L: int, m: int, sigma2: float, dps: int):
    """Multiprecision ln P(Y | m sources); returns (sign, logmag, peak, digits).

    Only the J values and the signed sum run in mpmath: the term tables and
    the prefactor are the double path's.
    """
    n = gvals.size
    tuples, gaps, jcols, signs = _mimo_tables(n, m)
    n_perms = jcols.shape[1] // len(tuples)
    pref = float(_mimo_prefactor_rows(gvals[None, :], L, m, sigma2)[0])
    with mp.workdps(dps):
        s2 = mp.mpf(sigma2)
        xs = [mp.mpf(float(v)) for v in gvals]
        if len(set(xs)) < n:
            raise DegeneracyError("degenerate spectrum reached the multiprecision path")
        u_lo = mp.log(m * s2)
        jlog = [_log_j_segment_mp(n - L - 2 + j, m * x, u_lo, mp.inf, dps)
                for j in range(1, m + 1) for x in xs]
        logabs = [mp.log(abs(xs[i] - xs[j])) if i != j else mp.mpf(0)
                  for i in range(n) for j in range(n)]

        term_logs = []
        for t, a in enumerate(tuples.tolist()):
            dlog = mp.mpf(0)
            for g in gaps:
                for k in g[t].tolist():
                    dlog += logabs[k]
            eterm = mp.fsum(xs[i] for i in a) / s2
            for c in jcols[:, t * n_perms:(t + 1) * n_perms].T.tolist():
                term_logs.append(eterm + mp.fsum(jlog[k] for k in c) - dlog)

        peak = max(term_logs)
        total = mp.fsum(s * mp.exp(lm - peak) for s, lm in zip(signs.tolist(), term_logs))
        if total == 0:
            return 0, -math.inf, float(peak + pref), math.inf
        log_mag = peak + mp.log(abs(total)) + pref
        digits = max(0.0, float(-mp.log(abs(total)) / mp.log(10)))
        return (1 if total > 0 else -1), float(log_mag), float(peak + pref), digits


# ---------------------------------------------------------------------------
# Signal components and the ln C combine, shared by every batch size
# ---------------------------------------------------------------------------

def _component_rows(gvals: np.ndarray, L: int, ms, points):
    """ln P(Y | m sources, sigma2) for every (m, sigma2) pair, m-major.

    gvals is a (B, N) stack of guarded descending spectra.  Each entry is the
    (sign, log_mag, peak, digits) rows of _mimo_batch.
    """
    return [_mimo_batch(gvals, L, m, float(p)) for m in ms for p in points]


def _accepted(sign, log_mag, digits):
    """Rows the double path may keep: sign +1, finite, and no more than
    CANCEL_DIGITS_LIMIT digits cancelled."""
    return (sign == 1) & (digits <= CANCEL_DIGITS_LIMIT) & np.isfinite(log_mag)


def _log_mix(cols) -> np.ndarray:
    """Row-wise ln sum exp over a list of (B,) log columns."""
    return cols[0] if len(cols) == 1 else logsumexp(np.stack(cols, axis=1), axis=1)


def _log_ratio_rows(comp_logs, gvals: np.ndarray, L: int, ms,
                    points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """ln C per row from the component log likelihoods of _component_rows.

    The source count averages over ms (a uniform prior, over one count when
    it is exact); gridded noise mixes numerator and denominator by weight.
    """
    n = gvals.shape[1]
    log_w = [math.log(w) for w in weights]
    num = _log_mix([c + log_w[i % len(log_w)] for i, c in enumerate(comp_logs)])
    gsum = gvals.sum(axis=1)
    den = _log_mix([lw + _noise_ll_from_values(gsum, n, L, float(p))
                    for p, lw in zip(points, log_w)])
    return num - math.log(len(ms)) - den


# ---------------------------------------------------------------------------
# Scalar evaluation: the components at B=1, escalating the rejected ones
# ---------------------------------------------------------------------------

def _signal_from_guarded(gvals: np.ndarray, L: int, m: int, sigma2: float,
                         digits_hint: float):
    """Multiprecision (sign, log_mag, peak, digits) row of ln P(Y | m sources),
    sign +1, for a component the double path rejected.

    digits_hint is the double path's cancellation (inf when it was not run)
    and sizes the working precision.
    """
    dps = min(300, 40 + int(1.6 * digits_hint)) if math.isfinite(digits_hint) else 60
    for _ in range(2):
        row = _signal_mp(gvals, L, m, sigma2, dps)
        if row[0] == 1:
            return row
        dps = min(600, 2 * dps)
    raise NumericError(
        f"signal likelihood sign stayed {row[0]} after multiprecision retry "
        f"(N={gvals.size}, L={L}, m={m}, sigma2={sigma2})")


def _components_at_one(gvals: np.ndarray, L: int, ms, points, precision: str):
    """_component_rows for one guarded spectrum: (rows, extended_used).

    Each row is a component's (sign, log_mag, peak, digits) as floats.
    Components that fail _accepted, and every component under
    precision="extended", take _signal_from_guarded's row instead.
    """
    if precision not in ("standard", "extended"):
        raise DomainError(f"unknown precision mode {precision!r}")
    batch = None
    if precision == "standard":
        batch = _component_rows(gvals[None, :], L, ms, points)
    rows = []
    extended = False
    for i, (m, p) in enumerate(itertools.product(ms, points)):
        digits = math.inf
        if batch is not None:
            row = tuple(float(a[0]) for a in batch[i])
            sign, log_mag, _, digits = row
            if _accepted(sign, log_mag, digits):
                rows.append(row)
                continue
        rows.append(_signal_from_guarded(gvals, L, m, float(p), digits))
        extended = True
    return rows, extended


def _prepare_spectrum(x: EigenSpectrum, sigma2: float) -> tuple[np.ndarray, bool]:
    _check_sigma2(sigma2)
    _check_bayes_shape(x.n_sensors, x.n_snapshots)
    return _guard_values(x.sorted_descending())


def log_simo_signal_likelihood(x: EigenSpectrum, sigma2: float, *,
                               precision: str = "standard") -> SignedLog:
    """ln P(Y | one source, noise power sigma2) as a SignedLog (sign +1)."""
    return log_mimo_signal_likelihood(x, 1, sigma2, precision=precision)


def log_mimo_signal_likelihood(x: EigenSpectrum, m: int, sigma2: float, *,
                               precision: str = "standard") -> SignedLog:
    """ln P(Y | m sources, noise power sigma2) as a SignedLog (sign +1)."""
    m = int(m)
    if m < 1:
        raise DomainError("m must be >= 1")
    if m > x.n_sensors:
        raise DomainError(f"m={m} sources with N={x.n_sensors} sensors is unsupported (m <= N)")
    gvals, _ = _prepare_spectrum(x, sigma2)
    rows, _ = _components_at_one(gvals, x.n_snapshots, [m], [float(sigma2)], precision)
    return SignedLog(1, rows[0][1])


# ---------------------------------------------------------------------------
# Decision ratios
# ---------------------------------------------------------------------------

def _expand_prior(prior: PriorConfig, n_sensors: int):
    if isinstance(prior.source_count, ExactCount):
        ms = [prior.source_count.m]
    else:
        ms = list(range(1, prior.source_count.m_max + 1))
    if max(ms) > n_sensors:
        raise DomainError(
            f"prior allows m={max(ms)} sources but the spectrum has only N={n_sensors}")
    if isinstance(prior.noise, ExactNoise):
        points = np.array([prior.noise.sigma2])
        weights = np.array([1.0])
    else:
        points, weights = prior.noise.points_and_weights()
    return ms, points, weights


def _marginal_statistic(gvals: np.ndarray, L: int, ms, points: np.ndarray,
                        weights: np.ndarray, precision: str):
    """ln C from guarded values for an expanded prior: the batch combine at B=1.

    Returns (SignedLog, worst CancellationReport, extended_used).
    """
    rows, extended = _components_at_one(gvals, L, ms, points, precision)
    stat = _log_ratio_rows([np.array([r[1]]) for r in rows],
                           gvals[None, :], L, ms, points, weights)
    _, log_mag, peak, digits = max(rows, key=lambda r: r[3])
    return (SignedLog(1, float(stat[0])), CancellationReport(peak, log_mag, digits),
            extended)


def detection_log_ratio(x: EigenSpectrum, prior: PriorConfig, *,
                        precision: str = "standard") -> DetectionStatistic:
    """ln C = ln P(Y | signal prior) - ln P(Y | noise prior) as a statistic.

    The signal likelihood averages over the prior's source counts; gridded
    noise mixes both numerator and denominator with the grid weights.  The
    result sign is always +1; anything else raises.
    """
    ms, points, weights = _expand_prior(prior, x.n_sensors)
    sigma_ref = float(points[0])
    gvals, perturbed = _prepare_spectrum(x, sigma_ref)
    stat, report, extended = _marginal_statistic(
        gvals, x.n_snapshots, ms, points, weights, precision)
    return DetectionStatistic(stat, "bayes", report, extended, perturbed)


def energy_statistic(x: EigenSpectrum, sigma2: float) -> DetectionStatistic:
    """The classical energy detector: sum(x) / (L N sigma2), in log form."""
    log_value = float(_batch_energy_stats(x.sorted_descending()[None, :],
                                          x.n_snapshots, sigma2)[0])
    stat = SignedLog(1, log_value) if log_value > -math.inf else SignedLog.zero()
    report = CancellationReport(stat.log_magnitude, stat.log_magnitude, 0.0)
    return DetectionStatistic(stat, "energy", report)


# ---------------------------------------------------------------------------
# Source counting
# ---------------------------------------------------------------------------

def source_count_posteriors(x: EigenSpectrum, sigma2: float, m_max: int, *,
                            include_noise_hypothesis: bool = True,
                            precision: str = "standard") -> CountPosterior:
    """Posterior over the source count k under a uniform hypothesis prior.

    With include_noise_hypothesis (the default) the hypothesis set is
    k = 0 (pure noise) through k = m_max; otherwise only k = 1..m_max.
    probabilities[k] is proportional to P(Y | k sources), and ratios[k]
    is the posterior odds p_k / (1 - p_k).
    """
    m_max = int(m_max)
    if not 1 <= m_max <= x.n_sensors:
        raise DomainError(f"m_max must lie in [1, N]; got m_max={m_max}, N={x.n_sensors}")
    s2 = _check_sigma2(sigma2)
    gvals, _ = _prepare_spectrum(x, s2)
    L = x.n_snapshots

    counts = list(range(1, m_max + 1))
    rows, _ = _components_at_one(gvals, L, counts, [s2], precision)
    log_ev = [r[1] for r in rows]
    if include_noise_hypothesis:
        counts.insert(0, 0)
        log_ev.insert(0, _noise_ll_from_values(float(np.sum(gvals)), x.n_sensors, L, s2))

    log_ev = np.array(log_ev)
    shifted = log_ev - log_ev.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    ratios = []
    for i in range(len(log_ev)):
        others = np.delete(log_ev, i)
        with np.errstate(over="ignore"):
            ratios.append(float(np.exp(log_ev[i] - logsumexp(others))))
    return CountPosterior(tuple(counts), tuple(float(p) for p in probs),
                          tuple(ratios), s2, m_max, include_noise_hypothesis)


# ---------------------------------------------------------------------------
# Batched statistics for the Monte Carlo harness
# ---------------------------------------------------------------------------

def _batch_energy_stats(vals: np.ndarray, L: int, sigma2: float) -> np.ndarray:
    """Log of the energy statistic for a (B, N) stack (log 0 -> -inf)."""
    s2 = _check_sigma2(sigma2)
    sums = vals.sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.log(sums / (L * vals.shape[1] * s2))


def _batch_fast_stats(vals: np.ndarray, L: int, prior: PriorConfig):
    """Double-precision ln C for a (B, N) stack of descending spectra.

    Touches no global state, so it is safe to run from worker threads.
    Returns (stats, bad, n_perturbed) where bad flags rows whose evaluation
    cancelled too hard (or signed wrong) and must be redone scalar-side.
    """
    b, n = vals.shape
    _check_bayes_shape(n, L)
    ms, points, weights = _expand_prior(prior, n)
    gvals, pert_mask = _guard_values_batch(vals)
    rows = _component_rows(gvals, L, ms, points)
    bad = np.zeros(b, dtype=bool)
    for sign, log_mag, _, digits in rows:
        bad |= ~_accepted(sign, log_mag, digits)
    stats = _log_ratio_rows([r[1] for r in rows], gvals, L, ms, points, weights)
    return stats, bad, int(pert_mask.sum())


def _retry_rows_scalar(vals: np.ndarray, L: int, prior: PriorConfig,
                       stats: np.ndarray, rows):
    """Redo flagged rows through the scalar path, in place.

    Each row escalates exactly the components a detection_log_ratio call on
    it would.  Serial by design: the multiprecision fallback adjusts global
    mpmath precision, so this must not run concurrently.  Returns
    (failed_mask_over_rows, n_extended).
    """
    failed = np.zeros(len(rows), dtype=bool)
    n_extended = 0
    for j, i in enumerate(rows):
        try:
            ds = detection_log_ratio(EigenSpectrum(vals[i], L), prior)
            stats[i] = ds.log_ratio.log_magnitude
            n_extended += int(ds.extended_used)
        except NumericError:
            stats[i] = np.nan
            failed[j] = True
    return failed, n_extended
