"""Signed log-domain arithmetic and the special functions behind the detectors.

The detection ratios are alternating sums of terms shaped like
``exp(x_l/sigma2) * J_k(sigma2, x_l) / prod(x_l - x_i)`` whose individual
magnitudes overflow doubles long before the sums do.  Everything here
therefore carries values as (sign, log|value|) pairs:

* :class:`SignedLog` plus :func:`signed_log_sum` implement exact-sign
  log-domain accumulation with a cancellation diagnostic; signed_log_sum is
  the one-row case of ``_signed_lse_rows``, which sums each row of a stack
  by one NumPy reduction; signed_log_sum alone sorts its row first.
* :func:`j_integral` evaluates J_k(x, y) = integral of t^k e^(-t - y/t)
  over [x, inf) by fixed 32-node Gauss-Legendre panels on each side of the
  integrand's peak in u = ln t, returning the log of the (always positive)
  value.  It is :func:`_log_j_batch` at one x and one y; the kernel takes
  groups of y, each with its own order k and grid of lower limits x, shares
  each y's peak and the side above it across its grid points, and is what
  the detectors drive, once per statistic.
* :func:`j_via_bessel` evaluates the same quantity through the independent
  Bessel-K identity and exists purely as an oracle for j_integral.
* :func:`kappa` and :func:`lemma1_determinant` expose the derivative
  coefficients and the ones-plus-kappa determinant identity used by the
  closed-form proofs, so they can be property-tested numerically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy import special as sps

from .errors import DomainError, NumericError

__all__ = [
    "SignedLog",
    "CancellationReport",
    "signed_log_sum",
    "j_integral",
    "j_via_bessel",
    "kappa",
    "lemma1_determinant",
]

_LN10 = math.log(10.0)

# Tail truncation for the J quadrature: the log-integrand is followed until it
# drops this many nats below its maximum on the domain.
_TAIL_NATS = 60.0

# Bisection steps per J cutoff, in doubles and in _log_j_segment_mp.
_J_CUT_BISECTIONS = 30
_MP_CUT_BISECTIONS = 40

# Generous sanity cap on |k|; detector orders stay within a few times N+L.
_J_MAX_ABS_K = 1000

# Digits of cancellation beyond which callers should re-run in extended mode.
CANCEL_DIGITS_LIMIT = 12.0


# ---------------------------------------------------------------------------
# Signed log-domain values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedLog:
    """A real number stored as sign * exp(log_magnitude).

    sign is -1, 0 or +1; log_magnitude is ignored (kept at -inf) when the
    value is exactly zero.
    """

    sign: int
    log_magnitude: float

    @classmethod
    def from_float(cls, value: float) -> "SignedLog":
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise DomainError(f"SignedLog.from_float requires a finite value, got {value}")
        if value == 0.0:
            return cls(0, -math.inf)
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    @classmethod
    def zero(cls) -> "SignedLog":
        return cls(0, -math.inf)

    def to_float(self) -> float:
        """Back to a native float; may over/underflow for extreme magnitudes."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0 or other.sign == 0:
            return SignedLog.zero()
        return SignedLog(self.sign * other.sign,
                         self.log_magnitude + other.log_magnitude)

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.log_magnitude)


@dataclass(frozen=True)
class CancellationReport:
    """Severity record for a signed sum or a likelihood component.

    cancellation_digits = (peak_term_log - result_log) / ln 10, i.e. how many
    leading decimal digits were lost to cancellation.  +inf marks an exact
    cancellation to zero, 0 marks a sum that never shrank below its peak term.
    A likelihood component det D (m >= 2) reports log10 of sum_kj |cofactor_kj|
    max(|D_kj|, e^{peak_kj}) / |det D|, peak_kj being the largest term of D_kj.
    """

    peak_term_log: float
    result_log: float
    cancellation_digits: float


def _signed_lse_rows(signs: np.ndarray, logmags: np.ndarray):
    """Row sums of sign*exp(logmag) terms, max-shifted, by one reduction per row.

    Each row is summed on its own, so a row gives the same bits wherever it
    sits in the batch; terms are added in the order given.  Returns
    (sign, log_magnitude, peak_term_log, cancellation_digits), each of
    shape (B,).  Rows whose terms are all zero sum to sign 0.
    """
    peak = logmags.max(axis=-1)
    finite_peak = np.isfinite(peak)
    shifted = np.where(finite_peak[:, None], logmags - peak[:, None], -np.inf)
    total = (signs * np.exp(shifted)).sum(axis=-1)
    nonzero = total != 0.0
    safe = np.where(nonzero, np.abs(total), 1.0)
    with np.errstate(divide="ignore"):
        log_mag = np.where(nonzero, peak + np.log(safe), -np.inf)
    # + 0.0 turns the -0.0 of a sum that never shrank (-log(1) / ln 10) into +0.0.
    digits = np.where(nonzero, np.maximum(0.0, -np.log(safe) / _LN10) + 0.0, np.inf)
    digits = np.where(finite_peak, digits, 0.0)
    sign = np.where(finite_peak, np.sign(total), 0.0)
    log_mag = np.where(finite_peak, log_mag, -np.inf)
    return sign, log_mag, peak, digits


def signed_log_sum(terms) -> tuple[SignedLog, CancellationReport]:
    """Sum SignedLog terms: the one-row case of the row kernel above.

    The row is sorted by log magnitude, largest first, sign as tie-break, so
    the result does not depend on input order.  Returns the sum and a
    CancellationReport; an empty or all-zero input sums to zero.  A nonzero
    term whose log magnitude is +inf or NaN raises DomainError.
    """
    live = [t for t in terms if t.sign != 0 and t.log_magnitude != -math.inf]
    for t in live:
        if not math.isfinite(t.log_magnitude):
            raise DomainError(f"signed_log_sum requires finite terms, got {t}")
    if not live:
        return SignedLog.zero(), CancellationReport(-math.inf, -math.inf, 0.0)
    live.sort(key=lambda t: (-t.log_magnitude, t.sign))
    signs, logmags = np.array([(t.sign, t.log_magnitude) for t in live], dtype=float).T[:, None, :]
    sign, log_mag, peak, digits = (float(v[0]) for v in _signed_lse_rows(signs, logmags))
    return SignedLog(int(sign), log_mag), CancellationReport(peak, log_mag, digits)


# ---------------------------------------------------------------------------
# J_k(x, y): fixed Gauss-Legendre panels in the peak-shifted variable
# ---------------------------------------------------------------------------
# After t = e^u the integral over [x, inf) becomes the integral of e^{g(u)}
# with g(u) = (k+1) u - e^u - y e^{-u}, which is strictly concave, so the
# integrand has a single peak at t* solving t^2 - (k+1) t - y = 0 and
# doubly-exponential tails.  Each integral is reduced to a finite window
# [a, b] where g stays within _TAIL_NATS of its maximum, split at the peak,
# and each side is cut into equal panels no longer than _GL_PANEL in
# v = u - u_pk, each integrated by one 32-node Gauss-Legendre rule.  The
# integrand is formed as g(u_pk + v) - g(u_pk) directly in v (_shifted_g):
# formed from g itself it would carry eps*|g| of absolute rounding, 4e-6 nats
# at y = 1e20, where |g| at the peak is 2e10.  Only the side below the peak
# depends on x while ln x lies below the peak, so a grid of lower limits
# shares the peak, the upper cut and the side above it (_log_j_rows).  Rows
# of different k are independent too, so one call takes every (order, grid)
# group a statistic needs (_log_j_batch).
#
# Why 32 nodes suffice: e^{g(u_pk + v) - gmax} is entire in v, and the cuts
# bound each side to the stretch where it falls by 60 nats, so Gauss-Legendre
# converges geometrically on each panel (Trefethen, "Is Gauss quadrature
# better than Clenshaw-Curtis?", SIAM Review 50, 2008).  Measured against the
# 40-digit mpmath segment on the 480 points k in {-12, -7, -5, -3, -1, 0, 2, 6},
# x in {0.05, 1, 30, 2511.9, 1e4, 1e6}, y in {0, 0.1, 3, ..., 1e20}: 32 nodes
# a side were within 1.1e-13 of log J where |log J| < 1e3 and within
# 1.5 ulp of log J elsewhere; 24 nodes gave 1.1e-11 and 16 gave 1.2e-7,
# worst at x = 0.05 and y near 0, where the peak sits on the lower cut.
#
# Why panels of 8: the convergence rate is set by how far the ellipse of
# analyticity reaches, and the double-exponential wall of e^{-t} (t near 1)
# or of e^{-y/t} (t near y) grows off the real line within pi/2 of it, so a
# panel holding a wall must be short.  At k = -1, y = 0, where a flat
# plateau ends in the wall, one panel of length 8, 8.5, 9 and 10 gave
# 3.6e-15, 3.7e-14, 8.5e-14 and 5.2e-13.  Sides longer than 8 occur only for
# x < 0.05 (up to ln(1/x) + 4); every side at x >= 0.05 is one panel.  On
# the 912 points k in [-12, 6], x in {1e-2, 1e-3, 1e-4, 1e-6, 1e-10, 1e-30},
# y in {0, 1e-30, 1e-10, 1e-6, 1e-3, 1e-2, 0.1, 1} the worst error was 1.1e-13.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# Mapped onto [0, 1]: panel j of signed length h has nodes h*(j + s) and
# weights |h|*w.
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS
_GL_PANEL = 8.0
# Nodes evaluated at once (see _side_sums).
_GL_BLOCK_NODES = 1 << 15
# (group, y) rows evaluated at once (see _log_j_batch): one J order of a
# 2048-trial chunk at N = 4.
_J_BLOCK_ROWS = 1 << 13

# sinh v - v = v^3 * sum_j w^j / (2j+3)! with w = v^2, highest power first.
# At |v| < 1 the first dropped term, v^19/19!, is below 5e-17 of the sum.
_SINH_ODD = np.array([1.0 / math.factorial(n) for n in range(17, 2, -2)])


def _g_log_integrand(u, kp1, y):
    """g(u); e^u may overflow to inf, so callers ignore overflow."""
    return kp1 * u - np.exp(u) - y * np.exp(-u)


def _peak_t(kp1, y):
    """Location t* > 0 of the integrand maximum (0 when none exists)."""
    s = np.sqrt(kp1 * kp1 + 4.0 * y)
    with np.errstate(invalid="ignore", divide="ignore"):
        rationalized = np.where(s - kp1 > 0.0, (2.0 * y) / (s - kp1), 0.0)
    return np.where(kp1 >= 0.0, 0.5 * (kp1 + s), rationalized)


def _validate_j_args(k: float, x: float) -> None:
    if not (math.isfinite(k) and abs(k) <= _J_MAX_ABS_K):
        raise DomainError(f"j order k={k} outside sanity bound |k| <= {_J_MAX_ABS_K}")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"j_integral requires x > 0, got x={x}")


def _bisect_cut(outer, inner, kp1, y, target):
    """Move each cutoff from outer (g <= target) toward inner (g > target)
    by a fixed number of bisections, in place; returns the final outer ends."""
    for _ in range(_J_CUT_BISECTIONS):
        mid = 0.5 * (outer + inner)
        below = _g_log_integrand(mid, kp1, y) <= target
        np.copyto(outer, mid, where=below)
        np.copyto(inner, mid, where=~below)
    return outer


def _shifted_g(v, c, t_pk, y_hat):
    """g(u_pk + v) - g(u_pk) without forming g, so its rounding is relative to
    itself, not to |g|.

    With phi(v) = e^v - 1 - v >= 0 it is c v - t_pk phi(v) - y_hat phi(-v),
    where t_pk = e^u_pk, y_hat = y / t_pk and c = g'(u_pk) = k + 1 - t_pk + y_hat.
    For |v| < 1, phi(+-v) = 2 sinh^2(v/2) +- (sinh v - v), the odd part from
    its series.  Beyond, phi(+-v) = expm1(+-v) -+ v loses at most two bits,
    where the two sinh parts would cancel to e^-|v| of their size.  Far from
    the peak expm1 may overflow to inf, so callers ignore overflow.
    """
    w = v * v
    # Horner in place: the operations of np.polyval(_SINH_ODD, w), in its
    # order, without a temporary per coefficient.
    p = w * _SINH_ODD[0] + _SINH_ODD[1]
    for coef in _SINH_ODD[2:]:
        p *= w
        p += coef
    odd = v * w * p
    even = 2.0 * np.sinh(0.5 * v) ** 2
    small = np.abs(v) < 1.0
    phi_pos = np.where(small, even + odd, np.expm1(v) - v)
    phi_neg = np.where(small, even - odd, np.expm1(-v) + v)
    return c * v - t_pk * phi_pos - y_hat * phi_neg


def _side_sums(side, c, t_pk, y_hat):
    """Integral of e^{g(u_pk + v) - g(u_pk)} over v from 0 to each signed
    length in side, by equal panels of at most _GL_PANEL, 32 nodes each.

    c, t_pk and y_hat are each side's _shifted_g parameters.  The nodes are
    evaluated in blocks of sides holding at most _GL_BLOCK_NODES of them,
    which bounds the temporaries; every sum is local to its side, so the
    blocking changes no bit.
    """
    n_panels = np.maximum(1.0, np.ceil(np.abs(side) / _GL_PANEL))
    width = (side / n_panels)[:, None]
    step = max(1, _GL_BLOCK_NODES // (_GL_S.size * int(n_panels.max())))
    out = np.empty(side.size)
    for lo in range(0, side.size, step):
        blk = slice(lo, lo + step)
        # Panels past a side's own count have length 0.
        j = np.arange(n_panels[blk].max())
        h = np.where(j < n_panels[blk, None], width[blk], 0.0)
        f = np.exp(_shifted_g(h[..., None] * (j[:, None] + _GL_S),
                              *(q[blk, None, None] for q in (c, t_pk, y_hat))))
        # Row-local sums: a BLAS matrix-vector product rounds a row differently
        # depending on its position in the matrix.  The panels are summed in
        # order (cumsum), so the zero-length ones a longer side in the same
        # block adds leave the sum exact, as a pairwise sum over them would not.
        out[blk] = np.cumsum(np.abs(h) * (f * _GL_W).sum(-1), axis=-1)[:, -1]
    return out


def _log_j_batch(k, x, y) -> np.ndarray:
    """log J_k(x, y) for groups of rows, each with its own order and grid.

    Grouped form: k of shape (G,), x of shape (P, G) and y of shape (G, n);
    group g evaluates order k[g] for every y[g, i] >= 0 at every lower limit
    x[p, g], and the result has shape (P, G, n).  One-group form: k a float,
    x a float or a 1-D grid and y of shape (n,); the result has shape
    x.shape + y.shape, and a float x is the one-point grid.

    The groups are flattened into rows (g, i), which go through _log_j_rows
    in blocks of at most _J_BLOCK_ROWS, so the temporaries stay bounded.
    Every integral is computed and summed on its own, so each value is the
    same bits whatever the grid, the groups and the blocks it shares a call
    with.
    """
    ks = np.asarray(k, dtype=float)
    xs = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if ks.ndim == 0:
        if xs.ndim > 1 or xs.size == 0:
            raise DomainError("x must be a float or a non-empty one-dimensional array")
        if y.ndim != 1:
            raise DomainError("y must be one-dimensional")
        shape = xs.shape + y.shape
        ks, xs, y = ks[None], xs.reshape(-1, 1), y[None, :]
    elif not (ks.ndim == 1 and xs.ndim == 2 and y.ndim == 2 and xs.shape[0] > 0
              and xs.shape[1] == ks.size == y.shape[0]):
        raise DomainError("grouped J arguments must be k (G,), x (P, G) and y (G, n)")
    else:
        shape = xs.shape + y.shape[1:]
    for kg, col in zip(ks.tolist(), xs.T.tolist()):
        for xp in col:
            _validate_j_args(kg, xp)
    if y.size == 0:
        return np.empty(shape)
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise DomainError("j_integral requires finite y >= 0")

    n = y.shape[1]
    group = np.repeat(np.arange(ks.size), n)
    kp1 = (ks + 1.0)[group]
    yr = y.ravel()
    # ln x by math.log, not np.log, which may round the last bit differently
    # and so move every J value.
    a0 = np.array([math.log(v) for v in xs.ravel().tolist()]).reshape(xs.shape)
    out = np.empty((xs.shape[0], yr.size))
    for lo in range(0, yr.size, _J_BLOCK_ROWS):
        blk = slice(lo, lo + _J_BLOCK_ROWS)
        out[:, blk], ok = _log_j_rows(kp1[blk], a0[:, group[blk]], yr[blk])
        if not ok.all():
            p, r = np.unravel_index(np.argmin(ok), ok.shape)
            g, i = divmod(lo + r, n)
            raise NumericError(f"J quadrature gave a non-positive or non-finite value; "
                               f"first offender k={ks[g]}, x={xs[p, g]}, y={y[g, i]!r}")
    return out.reshape(shape)


@np.errstate(over="ignore", divide="ignore")
def _log_j_rows(kp1, a0, y):
    """log J for rows of k + 1 = kp1[i] and y[i], at the lower limits
    e^a0[p, i]: a (P, R) table, and the (P, R) mask of the values that are
    finite with a positive integral.

    Where ln x_p lies below row i's peak, the peak, the cuts above it and the
    side above it do not depend on x_p, so they are computed once per row and
    shared by every such grid point, which adds only its own side below the
    peak.  Every integral meets the same nodes of its own window, 32 per
    panel.
    """
    tstar = _peak_t(kp1, y)
    u_star = np.where(tstar > 0.0, np.log(np.where(tstar > 0.0, tstar, 1.0)), -np.inf)

    # Peak tasks: one per row whose peak lies above ln x_p for some p, shared
    # by those (two-sided) pairs; then one per remaining pair, whose peak sits
    # on ln x_p and whose side below it is empty.  pk maps each pair to its task.
    two = a0 < u_star
    rows = np.flatnonzero(two.any(axis=0))
    one_p, one_i = np.nonzero(~two)
    two_p, two_i = np.nonzero(two)
    s = np.searchsorted(rows, two_i)
    pk = np.empty(two.shape, dtype=np.intp)
    pk[two] = s
    pk[~two] = rows.size + np.arange(one_p.size)
    task_row = np.concatenate([rows, one_i])
    u_pk = np.concatenate([u_star[rows], a0[one_p, one_i]])
    kp1_pk = kp1[task_row]
    y_pk = y[task_row]
    gmax = _g_log_integrand(u_pk, kp1_pk, y_pk)
    if not np.all(np.isfinite(gmax)):
        raise NumericError("J integrand maximum is not finite; arguments out of range")
    target = gmax - _TAIL_NATS

    # Upper cutoff: double a step past the peak until g drops below target,
    # then bisect.  Fixed iteration counts keep every element's result a pure
    # function of its own arguments.
    step = np.ones(u_pk.size)
    hi = u_pk + step
    for _ in range(130):
        need = _g_log_integrand(hi, kp1_pk, y_pk) > target
        if not need.any():
            break
        np.multiply(step, 2.0, out=step, where=need)
        np.add(u_pk, step, out=hi, where=need)
    else:
        raise NumericError("J tail cutoff search failed to terminate")

    # Lower cutoff of a two-sided pair: only needed when the left tail falls
    # below target before reaching ln x.  One bisection moves both kinds of
    # cutoff, each element on its own.
    a_cut = a0[two_p, two_i]
    left = np.flatnonzero(_g_log_integrand(a_cut, kp1_pk[s], y_pk[s]) < target[s])
    sl = s[left]
    cut = _bisect_cut(np.concatenate([hi, a_cut[left]]), np.concatenate([u_pk, u_pk[sl]]),
                      np.concatenate([kp1_pk, kp1_pk[sl]]), np.concatenate([y_pk, y_pk[sl]]),
                      np.concatenate([target, target[sl]]))
    a_cut[left] = cut[u_pk.size:]

    # The sides above every peak, then the sides below the two-sided pairs'.
    t_pk = np.exp(u_pk)
    y_hat = y_pk / t_pk
    c = kp1_pk - t_pk + y_hat
    owner = np.concatenate([np.arange(u_pk.size), s])
    sums = _side_sums(np.concatenate([cut[:u_pk.size] - u_pk, a_cut - u_pk[s]]),
                      c[owner], t_pk[owner], y_hat[owner])
    # Lower side plus upper side; a pair with no lower side adds exactly 0.0.
    lower = np.zeros(two.shape)
    lower[two] = sums[u_pk.size:]
    acc = lower + sums[pk]
    ok = np.isfinite(acc) & (acc > 0.0)
    with np.errstate(invalid="ignore"):  # a negative acc is reported through ok
        return gmax[pk] + np.log(acc), ok


def _log_j_segment_mp(k, y, u_lo, u_hi, dps: int):
    """log of the integral of e^{g(u)} over [u_lo, u_hi] in mpmath.

    Bounds may be -inf / +inf; y must be > 0 when u_lo is -inf so the left
    tail decays.  Returns an mpf evaluated at the requested precision.
    """
    with mp.workdps(dps):
        kp1 = mp.mpf(k) + 1
        y_ = mp.mpf(y)

        def g(u):
            e = mp.exp(u)
            return kp1 * u - e - y_ / e

        s = mp.sqrt(kp1 * kp1 + 4 * y_)
        if kp1 >= 0:
            tstar = (kp1 + s) / 2
        else:
            tstar = (2 * y_) / (s - kp1) if s - kp1 > 0 else mp.mpf(0)
        u_star = mp.log(tstar) if tstar > 0 else mp.mpf("-inf")

        lo = mp.mpf(u_lo)
        hi = mp.mpf(u_hi)
        u_pk = u_star
        if u_pk < lo:
            u_pk = lo
        if u_pk > hi:
            u_pk = hi
        gmax = g(u_pk)
        tail = mp.mp.dps * mp.log(10) + 30
        target = gmax - tail

        def cut(limit, direction):
            # outermost usable bound between u_pk and limit, below the peak
            # for direction -1 and above it for +1, with g ~ target
            if mp.isfinite(limit) and g(limit) >= target:
                return limit
            step = mp.mpf(1)
            outer = u_pk + direction * step
            for _ in range(4000):
                if g(outer) <= target or direction * outer >= direction * limit:
                    break
                step *= 2
                outer = u_pk + direction * step
            if direction * outer > direction * limit:
                outer = limit
            inner = u_pk
            # Every outer kept has g <= target, so fewer steps only leave more
            # of the negligible tail inside the segment.
            for _ in range(_MP_CUT_BISECTIONS):
                mid = (outer + inner) / 2
                if g(mid) <= target:
                    outer = mid
                else:
                    inner = mid
            return outer

        a = cut(lo, -1)
        b = cut(hi, 1)
        segments = [(a, u_pk), (u_pk, b)] if a < u_pk < b else [(a, b)]
        # Each segment is mapped onto [0, 1]: mp.quad keeps the nodes of every
        # interval it meets twice, so quadrature over the segments themselves
        # would grow that cache with every distinct integral.
        val = mp.fsum((q - p) * mp.quad(lambda s: mp.exp(g(p + (q - p) * s) - gmax), [0, 1])
                      for p, q in segments)
        if val <= 0:
            raise NumericError("extended-precision J quadrature returned a non-positive value")
        return gmax + mp.log(val)


def j_integral(k: float, x: float, y: float, *, precision: str = "standard") -> SignedLog:
    """J_k(x, y) = integral over [x, inf) of t^k e^(-t - y/t) dt, as a SignedLog.

    The value is always positive; the returned sign is +1.  Against a
    40-digit reference over k in [-12, 6], x in [1e-30, 1e6] and y in
    [0, 1e20], log J is within 2e-13 where |log J| < 1e3 and within 2 ulp
    of log J beyond (worst seen 1.1e-13 and 1.5 ulp).
    precision="extended" evaluates in multiprecision arithmetic instead
    (used by the cancellation fallback paths).
    """
    _validate_j_args(k, x)
    if not (math.isfinite(y) and y >= 0.0):
        raise DomainError(f"j_integral requires y >= 0, got y={y}")
    if precision == "extended":
        log_val = float(_log_j_segment_mp(k, y, math.log(x), math.inf, dps=40))
    elif precision == "standard":
        log_val = float(_log_j_batch(k, x, np.array([y]))[0])
    else:
        raise DomainError(f"unknown precision mode {precision!r}")
    return SignedLog(1, log_val)


def j_via_bessel(k: int, x: float, y: float) -> float:
    """J_k(x, y) through the identity 2 y^((k+1)/2) K_(k+1)(2 sqrt(y)) minus
    the [0, x] piece; an independent oracle for j_integral.

    Requires y > 0 (the identity degenerates at y = 0).  The full-range term
    and the [0, x] term can agree to dozens of digits, so the working
    precision is chosen from an a-priori estimate of that cancellation and
    the subtraction escalates to multiprecision when doubles cannot carry it.
    Raises NumericError when J is not a finite double >= sys.float_info.min.
    """
    _validate_j_args(k, x)
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"j_via_bessel requires y > 0, got y={y}")

    kp1 = k + 1.0
    # Log-magnitude of the full-range term via the scaled Bessel function.
    z = 2.0 * math.sqrt(y)
    kve = float(sps.kve(kp1, z))
    if math.isfinite(kve) and kve > 0.0:
        log_full = math.log(2.0) + 0.5 * kp1 * math.log(y) + math.log(kve) - z
    else:
        log_full = math.inf  # force the multiprecision branch

    # Height of the [x, inf) integrand peak estimates log J; the gap to
    # log_full estimates how many digits the subtraction cancels.
    tstar = float(_peak_t(kp1, np.array([y]))[0])
    u_pk = max(math.log(tstar) if tstar > 0 else -math.inf, math.log(x))
    g_tail = kp1 * u_pk - math.exp(u_pk) - y * math.exp(-u_pk)
    digits_lost = (log_full - g_tail) / _LN10 if math.isfinite(log_full) else math.inf

    if digits_lost < 2.0 and abs(log_full) < 650.0:
        full = 2.0 * y ** (0.5 * kp1) * kve * math.exp(-z)

        def integrand(t):
            if t <= 0.0:
                return 0.0
            return t ** k * math.exp(-t - y / t)

        pts = [tstar] if 0.0 < tstar < x else None
        head, _ = integrate.quad(integrand, 0.0, x, points=pts,
                                 epsabs=abs(full) * 1e-13, epsrel=1e-12, limit=200)
        value = full - head
        if value >= sys.float_info.min:
            return value
        # fall through to multiprecision if the subtraction collapsed

    d = 0.0 if not math.isfinite(digits_lost) else max(0.0, digits_lost)
    dps = min(400, 30 + int(1.3 * d) + 10)
    for attempt in range(2):
        with mp.workdps(dps):
            kp1_mp = mp.mpf(k) + 1
            y_mp = mp.mpf(y)
            full_mp = 2 * y_mp ** (kp1_mp / 2) * mp.besselk(kp1_mp, 2 * mp.sqrt(y_mp))
            log_head = _log_j_segment_mp(k, y, mp.mpf("-inf"), mp.log(mp.mpf(x)), dps)
            value_mp = full_mp - mp.exp(log_head)
            if value_mp > 0 and mp.log(value_mp) > mp.log(full_mp) - (dps - 12) * mp.log(10):
                value = float(value_mp)
                if sys.float_info.min <= value < math.inf:
                    return value
                raise NumericError(f"J_k(x, y) at k={k}, x={x}, y={y} is "
                                   f"{mp.nstr(value_mp, 8)}, not a finite normal double")
        dps *= 2
    raise NumericError(
        f"j_via_bessel lost all significance at k={k}, x={x}, y={y}")


# ---------------------------------------------------------------------------
# kappa coefficients and the kappa-matrix determinant identity
# ---------------------------------------------------------------------------

def kappa(k: int, a: float, b: float) -> float:
    """Coefficient kappa_k(a, b) of the k-th b-derivative of e^(-a/b).

    kappa_k(a, b) = sum_{m=1..k} (-1)^(k+m) b^-(m+k) C(k, m)
                    ((k-1)!/(m-1)!) a^m, so that
    d^k/db^k e^(-a/b) = kappa_k(a, b) e^(-a/b).
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"kappa requires integer k >= 1, got {k}")
    if b == 0.0:
        raise DomainError("kappa requires b != 0")
    total = 0.0
    for m in range(1, k + 1):
        coeff = math.comb(k, m) * (math.factorial(k - 1) // math.factorial(m - 1))
        total += (-1.0) ** (k + m) * b ** (-(m + k)) * coeff * a ** m
    return total


def lemma1_determinant(a, b: float) -> float:
    """Determinant of the N x N matrix [1 | kappa_1(a_i,b) | ... | kappa_{N-1}(a_i,b)].

    Property tests compare this against the closed form
    b^(-N(N-1)) * prod_{i<j} (a_j - a_i).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise DomainError("lemma1_determinant requires a list of N >= 2 values")
    if b == 0.0:
        raise DomainError("lemma1_determinant requires b != 0")
    n = a.size
    mat = np.empty((n, n))
    mat[:, 0] = 1.0
    for j in range(1, n):
        mat[:, j] = [kappa(j, ai, b) for ai in a]
    return float(np.linalg.det(mat))
