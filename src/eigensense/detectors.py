"""Closed-form Bayesian detection ratios over eigenvalue spectra.

Implements, all as functions of the eigenvalues x_1 >= ... >= x_N of Y Y^H:

* the pure-noise log likelihood,
* the signal likelihood of m <= N sources (MIMO), an m x m determinant of
  divided differences whose entries are signed log sums; one source (SIMO)
  is the same determinant at m=1,
* the decision ratio C = P(signal)/P(noise) for every combination of
  known or uniformly distributed source count and known/gridded noise power,
* the classical energy detector baseline, and
* the source-count posterior over {0, 1, ..., m_max} sources.

Each statistic has one evaluation path: the batch kernels (guard, signal
components, combine, energy) run on (B, N) stacks, and the scalar API runs
them at B=1, bit for bit.  The signal components of every (m, sigma2) pair
are one (4, C, B) array of (sign, log_mag, peak, digits), and ln C mixes its
log_mag block by one np.logaddexp.reduce.  One source is the m-source
determinant at m=1.

The divided differences cancel catastrophically when eigenvalues cluster, and
the determinant can amplify what they lost, so every component reports the
digits it may have lost; one that lost more than CANCEL_DIGITS_LIMIT digits,
is non-finite or has the wrong sign is flagged in a batch and re-run in
multiprecision on the scalar path, in the calling thread's own mpmath
context; every function here may be called from several threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, NumericError
from .special import (
    CANCEL_DIGITS_LIMIT,
    CancellationReport,
    SignedLog,
    _log_j_batch,
    _log_j_segment_mp,
    _mp_context,
    _signed_lse_rows,
)
from .spectra import EigenSpectrum, _is_whole

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

# Multiprecision tier: working digits tried (doubling from the start) and
# the digits a kept row must have to spare beyond its cancellation.
_MP_DPS_START = 60
_MP_DPS_MAX = 600
_MP_SPARE_DIGITS = 20


# ---------------------------------------------------------------------------
# Receiver priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactCount:
    """The receiver knows the number of transmitting sources."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _check_integer("m", self.m))
        if self.m < 1:
            raise DomainError("source count must be >= 1")


@dataclass(frozen=True)
class BoundedCount:
    """Source count unknown; uniform prior over 1..m_max."""

    m_max: int

    def __post_init__(self):
        object.__setattr__(self, "m_max", _check_integer("m_max", self.m_max))
        if self.m_max < 1:
            raise DomainError("m_max must be >= 1")


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
        lo, hi = float(self.sigma2_min), float(self.sigma2_max)
        k = _check_integer("k_points", self.k_points)
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

def _check_integer(name: str, value) -> int:
    """value as an int if it is a finite whole number (2, 2.0 and numpy
    integers pass); anything else raises DomainError naming the argument."""
    if _is_whole(value):
        return int(value)
    raise DomainError(f"{name} must be a finite integer, got {value!r}")


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
    # <=, not <: where x_1 is subnormal the threshold underflows to 0, and a
    # zero gap must still be flagged.
    flagged = (vals[:, :-1] - vals[:, 1:]).min(axis=1) <= _GAP_REL * scale
    if not flagged.any():
        return vals, flagged
    ranks = np.arange(1, n + 1, dtype=float)
    step = _PERTURB_EPS * scale[flagged, None]
    offsets = step * (0.5 * (n + 1) - ranks)
    offsets = np.where(vals[flagged, -1:] + offsets[:, -1:] < 0.0, step * (n - ranks), offsets)
    guarded = vals[flagged] + offsets
    # Reachable where the offsets themselves underflow (a subnormal spectrum).
    if np.any(guarded[:, :-1] - guarded[:, 1:] <= 0.0) or np.any(guarded < 0.0):
        raise DegeneracyError("spectrum remained degenerate after the deterministic guard")
    out = vals.copy()
    out[flagged] = guarded
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
# The likelihood is a ratio of determinants.  With the spectrum descending,
# x_1 > ... > x_N, and F_j(x) = e^{x/sigma2} J_{N-L-2+j}(m sigma2, m x),
#
#   ln P(Y | m sources) = prefactor + ln det D,
#   D[k, j] = F_j[x_{m-k+1}, ..., x_N]   (k, j = 1..m),
#
# where f[...] is the divided difference of f over the N-m+k smallest
# eigenvalues.  det D = +-det[F_1 .. F_m | x^{N-m-1} .. x^0] / Vandermonde(x):
# Newton elimination turns row i of that N x N matrix into the divided
# difference over the i smallest eigenvalues, which vanishes on x^p for
# p < i - 1, so the polynomial block becomes triangular with a unit
# anti-diagonal and what is left is D.

def _mimo_prefactor_rows(gvals: np.ndarray, L: int, m: int, points: np.ndarray) -> np.ndarray:
    """The prefactor of ln P for a (B, N) stack at each sigma2 in points: (P, B)."""
    # The constant was validated against the Monte Carlo oracle at (N=3, m=2)
    # and (N=4, m=2).  At m=1 it is the one-source constant, fixed against
    # three independent oracles (Monte Carlo channel averaging, and direct
    # quadrature at N=1 and N=2).
    n = gvals.shape[1]
    const = [0.5 * m * (2 * L - m + 1) * math.log(m)
             + m * m * s2
             - n * L * _LOG_PI
             - (n - m) * (L - m) * math.log(s2)
             - sum(math.lgamma(j + 1) for j in range(1, m)) for s2 in points.tolist()]
    return np.array(const)[:, None] - gvals.sum(axis=1) / points[:, None]


def _mimo_batch(gvals: np.ndarray, L: int, m: int, points: np.ndarray, jlog: np.ndarray):
    """ln P(Y | m sources, sigma2) over a (B, N) stack of guarded descending
    spectra, for every sigma2 in points: a (4, P, B) array stacking sign,
    log_mag, peak and digits.  jlog is _component_rows' kernel table for
    this m: jlog[j-1, p, b, i] = ln J_{N-L-2+j}(m points[p], m gvals[b, i]).

    ln P is the prefactor plus ln det D (see above).  Each entry of D at each
    grid point is one row of _signed_lse_rows: the terms
    (-1)^pos F_j(x_i) / prod |x_i - x_l| over the entry's points in
    descending order, padded at the front to N terms by zeros.  At m=1, D is
    that one sum, with its own digits and peak term.  Otherwise the stack of
    every D, all grid points at once, is scaled in the log domain, by column
    and then by row, and goes to one np.linalg.slogdet; digits is log10 of
    sum_kj |cofactor_kj| max(|D_kj|, e^{peak_kj}) / |det D|, the cofactors
    over det D being the entries of the inverse, and peak is
    ln P + digits ln 10.
    """
    b, n = gvals.shape
    # Arrays put D's indices (k, j) first, so D's row and column reductions
    # combine whole slabs.  Row k of D takes the points s = m-1-k .. N-1; the
    # points before s are zero terms, with gap sum +inf and sign 0.
    # off[q, :, i] is log|x_i - x_l| for the q-th l != i (the diagonal drops
    # out of the flattened matrix as every (n+1)-th entry), so the gaps of x_i
    # over the points from s on are off[s:, :, i], summed left to right.
    diff = (gvals[:, :, None] - gvals[:, None, :]).reshape(b, n * n)[:, 1:]
    off = np.log(np.abs(diff.reshape(b, n - 1, n + 1)[:, :, :n]))
    off = off.reshape(b, n, n - 1).transpose(2, 0, 1).copy()
    gaps = np.full((m, 1, 1, b, n), np.inf)
    signs = np.zeros((m, 1, 1, 1, n))
    for k in range(m):
        s = m - 1 - k
        gaps[k, 0, 0, :, s:] = off[s:, :, s:].sum(axis=0)
        signs[k, ..., s::2] = 1.0
        signs[k, ..., s + 1::2] = -1.0
    pref = _mimo_prefactor_rows(gvals, L, m, points)
    # One row sum per block of grid points, each block of at most 2^15 terms
    # (at least one point), which bounds the temporaries.
    entries = np.empty((4, m, m, len(points), b))
    step = max(1, (1 << 15) // (m * m * b * n))
    for lo in range(0, len(points), step):
        blk = slice(lo, lo + step)
        logmags = gvals / points[blk, None, None] + jlog[:, blk] - gaps
        rows = np.empty(logmags.shape)
        rows[...] = signs
        entries[:, :, :, blk] = np.reshape(
            _signed_lse_rows(rows.reshape(-1, n), logmags.reshape(-1, n)), (4, m, m, -1, b))
    if m == 1:  # D is its one entry, which needs no determinant
        out = entries[:, 0, 0]
        out[1:3] += pref
        return out
    sign, ell, _, digits = entries
    col = ell.max(axis=0)
    col = np.where(np.isfinite(col), col, 0.0)
    by_col = ell - col
    row = by_col.max(axis=1, keepdims=True)
    row = np.where(np.isfinite(row), row, 0.0)
    scaled = sign * np.exp(by_col - row)
    mats = scaled.transpose(2, 3, 0, 1)
    det_sign, log_det = np.linalg.slogdet(mats)
    # An exactly singular D becomes the identity first, so inv cannot raise
    # and every row stays independent of the others.
    inv = np.linalg.inv(np.where(det_sign[..., None, None] != 0, mats, np.eye(m)))
    with np.errstate(invalid="ignore"):
        weights = np.abs(inv.transpose(3, 2, 0, 1) * scaled) * 10.0 ** digits
        cond = np.log10(weights.sum(axis=(0, 1)))
    cond = np.where(np.isnan(cond) | (det_sign == 0), np.inf, cond)
    log_mag = log_det + col.sum(axis=0) + row.sum(axis=(0, 1)) + pref
    peak = np.where(det_sign != 0, log_mag + cond * _LN10, -np.inf)
    return np.stack([det_sign, log_mag, peak, cond])


def _simo_batch(gvals: np.ndarray, L: int, points: np.ndarray):
    """_component_rows at m=1, a (4, P, B) array.  Nothing in the package
    calls it; it stays only because perfbench/spans.py wraps it by name
    (ROADMAP item 2 removes it)."""
    return _component_rows(gvals, L, [1], points)


# ---------------------------------------------------------------------------
# Multiprecision fallback (the same D as _mimo_batch)
# ---------------------------------------------------------------------------

def _signal_mp(gvals: np.ndarray, L: int, m: int, sigma2: float, dps: int):
    """Multiprecision ln P(Y | m sources); returns (sign, logmag, peak, digits).

    Builds _mimo_batch's D from m*N multiprecision J values and takes mp.det;
    digits and peak are _mimo_batch's, and the prefactor is the double path's.
    """
    mp = _mp_context()
    n = gvals.size
    pref = float(_mimo_prefactor_rows(gvals[None, :], L, m, np.array([sigma2]))[0, 0])
    with mp.workdps(dps):
        s2 = mp.mpf(sigma2)
        xs = [mp.mpf(float(v)) for v in gvals]
        if len(set(xs)) < n:
            raise DegeneracyError("degenerate spectrum reached the multiprecision path")
        u_lo = mp.log(m * s2)
        f = [[mp.exp(x / s2 + _log_j_segment_mp(n - L - 2 + j, m * x, u_lo, mp.inf, dps))
              for x in xs] for j in range(1, m + 1)]
        d, top = mp.matrix(m, m), mp.matrix(m, m)
        for k in range(m):
            pts = range(m - 1 - k, n)
            for j in range(m):
                terms = [f[j][i] / mp.fprod(xs[i] - xs[l] for l in pts if l != i) for i in pts]
                d[k, j] = mp.fsum(terms)
                top[k, j] = max(abs(t) for t in terms)
        # Rows are divided by their largest term first: mpmath's pivot test is
        # relative to the whole matrix, so rows 1e200 apart (L ~ 1000) would
        # read as singular.  The digits do not depend on row scale.
        scale = [max(top[k, j] for j in range(m)) for k in range(m)]
        for k in range(m):
            for j in range(m):
                d[k, j] /= scale[k]
                top[k, j] /= scale[k]
        det = mp.det(d)
        if det == 0:
            return 0, -math.inf, -math.inf, math.inf
        inv = mp.inverse(d)
        digits = float(mp.log10(mp.fsum(abs(inv[j, k]) * max(abs(d[k, j]), top[k, j])
                                        for k in range(m) for j in range(m))))
        log_mag = float(mp.log(abs(det)) + mp.fsum(mp.log(s) for s in scale) + pref)
        return (1 if det > 0 else -1), log_mag, log_mag + digits * _LN10, digits


# ---------------------------------------------------------------------------
# Signal components and the ln C combine, shared by every batch size
# ---------------------------------------------------------------------------

def _component_rows(gvals: np.ndarray, L: int, ms, points):
    """ln P(Y | m sources, sigma2) for every (m, sigma2) pair, m-major.

    gvals is a (B, N) stack of guarded descending spectra and points an
    array of sigma2.  Returns _mimo_batch's (4, P, B) arrays joined along
    the component axis, (4, C, B): column i is ms[i // P] at points[i % P].
    Every J value the components need comes from one kernel call: group m
    holds the m orders N-L-2+j, j = 1..m, at the lower limits m * points
    with y = m * gvals, which share one quadrature window per integral, and
    each _mimo_batch gets its m orders as an (m, P, B, N) view.
    """
    b, n = gvals.shape
    points = np.asarray(points, dtype=float)
    m_g = np.array(ms, dtype=float)
    table = _log_j_batch(np.full(m_g.size, n - L - 1.0), np.outer(points, m_g),
                         np.outer(m_g, gvals), ms)
    table = table.reshape(len(points), -1, b, n).transpose(1, 0, 2, 3)
    starts = np.cumsum([0] + list(ms))
    return np.concatenate([_mimo_batch(gvals, L, m, points, table[g:g + m])
                           for m, g in zip(ms, starts)], axis=1)


def _accepted(sign, log_mag, digits):
    """Rows the double path may keep: sign +1, finite, and no more than
    CANCEL_DIGITS_LIMIT digits cancelled."""
    return (sign == 1) & (digits <= CANCEL_DIGITS_LIMIT) & np.isfinite(log_mag)


def _log_ratio_rows(log_mag: np.ndarray, gvals: np.ndarray, L: int, ms,
                    points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """ln C per row from the (C, B) log_mag block of _component_rows.

    The source count averages over ms (a uniform prior, over one count when
    it is exact); gridded noise mixes numerator and denominator by weight.
    A single column passes through the reduction unchanged.
    """
    n = gvals.shape[1]
    log_w = np.array([math.log(w) for w in weights])
    num = np.logaddexp.reduce(log_mag + np.tile(log_w, len(ms))[:, None], axis=0)
    gsum = gvals.sum(axis=1)
    den = np.logaddexp.reduce([lw + _noise_ll_from_values(gsum, n, L, p)
                               for p, lw in zip(points.tolist(), log_w.tolist())], axis=0)
    return num - math.log(len(ms)) - den


# ---------------------------------------------------------------------------
# Scalar evaluation: the components at B=1, escalating the rejected ones
# ---------------------------------------------------------------------------

def _signal_from_guarded(gvals: np.ndarray, L: int, m: int, sigma2: float):
    """Multiprecision (sign, log_mag, peak, digits) row of ln P(Y | m sources),
    sign +1, for a component the double path rejected.

    The working precision starts at _MP_DPS_START digits and doubles, up to
    _MP_DPS_MAX, until the row has sign +1 and digits <= dps -
    _MP_SPARE_DIGITS; a row that never does raises NumericError.
    """
    dps = _MP_DPS_START
    while True:
        row = _signal_mp(gvals, L, m, sigma2, dps)
        if row[0] == 1 and row[3] <= dps - _MP_SPARE_DIGITS:
            return row
        if dps >= _MP_DPS_MAX:
            raise NumericError(
                f"signal likelihood kept sign {row[0]} with {row[3]:.1f} digits cancelled "
                f"at {dps} working digits (N={gvals.size}, L={L}, m={m}, sigma2={sigma2})")
        dps = min(_MP_DPS_MAX, 2 * dps)


def _components_at_one(gvals: np.ndarray, L: int, ms, points, precision: str):
    """_component_rows for one guarded spectrum: ((4, C) array, extended_used).

    Columns that fail _accepted take _signal_from_guarded's row instead.
    Under precision="extended" every column starts as inf, so all of them
    fail.
    """
    if precision not in ("standard", "extended"):
        raise DomainError(f"unknown precision mode {precision!r}")
    if precision == "standard":
        comps = _component_rows(gvals[None, :], L, ms, points)[:, :, 0]
    else:
        comps = np.full((4, len(ms) * len(points)), np.inf)
    redo = np.flatnonzero(~_accepted(comps[0], comps[1], comps[3]))
    for i in redo.tolist():
        m, p = ms[i // len(points)], float(points[i % len(points)])
        comps[:, i] = _signal_from_guarded(gvals, L, m, p)
    return comps, redo.size > 0


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
    m = _check_integer("m", m)
    if m < 1:
        raise DomainError("m must be >= 1")
    if m > x.n_sensors:
        raise DomainError(f"m={m} sources with N={x.n_sensors} sensors is unsupported (m <= N)")
    gvals, _ = _prepare_spectrum(x, sigma2)
    comps, _ = _components_at_one(gvals, x.n_snapshots, [m], [float(sigma2)], precision)
    return SignedLog(1, float(comps[1, 0]))


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
    comps, extended = _components_at_one(gvals, L, ms, points, precision)
    stat = _log_ratio_rows(comps[1][:, None], gvals[None, :], L, ms, points, weights)
    _, log_mag, peak, digits = comps[:, np.argmax(comps[3])].tolist()
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
    m_max = _check_integer("m_max", m_max)
    if not 1 <= m_max <= x.n_sensors:
        raise DomainError(f"m_max must lie in [1, N]; got m_max={m_max}, N={x.n_sensors}")
    s2 = _check_sigma2(sigma2)
    gvals, _ = _prepare_spectrum(x, s2)
    L = x.n_snapshots

    counts = list(range(1, m_max + 1))
    comps, _ = _components_at_one(gvals, L, counts, [s2], precision)
    log_ev = comps[1]
    if include_noise_hypothesis:
        counts.insert(0, 0)
        noise = _noise_ll_from_values(float(np.sum(gvals)), x.n_sensors, L, s2)
        log_ev = np.concatenate(([noise], log_ev))

    shifted = log_ev - log_ev.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    # Row i of others is log_ev without hypothesis i; -inf drops out of the sum.
    others = np.where(np.eye(log_ev.size, dtype=bool), -np.inf, log_ev)
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ev - np.logaddexp.reduce(others, axis=1))
    return CountPosterior(tuple(counts), tuple(probs.tolist()),
                          tuple(ratios.tolist()), s2, m_max, include_noise_hypothesis)


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

    Safe on worker threads, as is the scalar path its flagged rows go to.
    Returns (stats, bad, n_perturbed) where bad flags rows whose evaluation
    cancelled too hard (or signed wrong) and must be redone scalar-side.
    """
    n = vals.shape[1]
    _check_bayes_shape(n, L)
    ms, points, weights = _expand_prior(prior, n)
    gvals, pert_mask = _guard_values_batch(vals)
    sign, log_mag, _, digits = _component_rows(gvals, L, ms, points)
    bad = ~_accepted(sign, log_mag, digits).all(axis=0)
    stats = _log_ratio_rows(log_mag, gvals, L, ms, points, weights)
    return stats, bad, int(pert_mask.sum())


def _retry_rows_scalar(vals: np.ndarray, L: int, prior: PriorConfig,
                       stats: np.ndarray, rows):
    """Redo flagged rows through the scalar path, in place.

    Each row escalates exactly the components a detection_log_ratio call on
    it would, in the calling thread's own mpmath context, so ROC chunks run
    this on their worker threads.  Returns (failed_mask_over_rows, n_extended).
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
