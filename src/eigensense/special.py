"""Signed log-domain arithmetic and the special functions behind the detectors.

The detection ratios are alternating sums of terms shaped like
``exp(x_l/sigma2) * J_k(sigma2, x_l) / prod(x_l - x_i)`` whose individual
magnitudes overflow doubles long before the sums do.  Everything here
therefore carries values as (sign, log|value|) pairs:

* :class:`SignedLog` plus :func:`signed_log_sum` implement exact-sign
  log-domain accumulation with a cancellation diagnostic; signed_log_sum is
  the one-row case of ``_signed_lse_rows``, which the detectors run on stacks.
* :func:`j_integral` evaluates J_k(x, y) = integral of t^k e^(-t - y/t)
  over [x, inf) by peak-centred adaptive quadrature in u = ln t, returning
  the log of the (always positive) value.  A vectorised variant,
  :func:`_log_j_batch`, amortises the quadrature over many y at once and is
  what the Monte Carlo harness drives.
* :func:`j_via_bessel` evaluates the same quantity through the independent
  Bessel-K identity and exists purely as an oracle for j_integral.
* :func:`kappa` and :func:`lemma1_determinant` expose the derivative
  coefficients and the ones-plus-kappa determinant identity used by the
  closed-form proofs, so they can be property-tested numerically.
"""

from __future__ import annotations

import math
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

# Internal quadrature target; tighter than the 1e-10 contract to leave margin.
_J_RTOL = 1e-12

# Bisection steps per J cutoff and the cap on panel-refinement rounds.
_J_CUT_BISECTIONS = 30
_J_MAX_ROUNDS = 60

# Cap on the live panels of one integral.  At very large y the rounding of
# g(u) outweighs the panel budget, every panel splits each round, and memory
# would double per round; the table grid needs at most a dozen.
_J_MAX_PANELS = 4096

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
    """Severity record for a signed sum.

    cancellation_digits = (peak_term_log - result_log) / ln 10, i.e. how many
    leading decimal digits were lost to cancellation.  +inf marks an exact
    cancellation to zero, 0 marks a sum that never shrank below its peak term.
    """

    peak_term_log: float
    result_log: float
    cancellation_digits: float


def _signed_lse_rows(signs: np.ndarray, logmags: np.ndarray):
    """Row sums of sign*exp(logmag) terms with max-shifted, compensated accumulation.

    Each row's terms are first put in a canonical order (log-magnitude
    descending, sign as tie-break) so its sum does not depend on term order.
    Returns (sign, log_magnitude, peak_term_log, cancellation_digits), each
    of shape (B,).  Rows whose terms are all zero sum to sign 0.
    """
    order = np.lexsort((signs, -logmags), axis=-1)
    sm = np.take_along_axis(signs, order, axis=-1)
    lm = np.take_along_axis(logmags, order, axis=-1)
    peak = lm[:, 0].copy()
    finite_peak = np.isfinite(peak)
    shifted = np.where(finite_peak[:, None], lm - peak[:, None], -np.inf)
    terms = sm * np.exp(shifted)
    total = np.zeros(signs.shape[0])
    comp = np.zeros(signs.shape[0])
    for col in range(terms.shape[1]):
        y = terms[:, col] - comp
        t = total + y
        comp = (t - total) - y
        total = t
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

    The result does not depend on input order.  Returns the sum and a
    CancellationReport; an empty or all-zero input sums to zero.
    """
    live = [(t.sign, t.log_magnitude) for t in terms if t.sign != 0]
    if not live:
        return SignedLog.zero(), CancellationReport(-math.inf, -math.inf, 0.0)
    signs, logmags = np.array(live, dtype=float).T[:, None, :]
    sign, log_mag, peak, digits = (float(v[0]) for v in _signed_lse_rows(signs, logmags))
    return SignedLog(int(sign), log_mag), CancellationReport(peak, log_mag, digits)


# ---------------------------------------------------------------------------
# J_k(x, y): adaptive quadrature in u = ln t
# ---------------------------------------------------------------------------
# After t = e^u the integral over [x, inf) becomes the integral of e^{g(u)}
# with g(u) = (k+1) u - e^u - y e^{-u}, which is strictly concave, so the
# integrand has a single peak at t* solving t^2 - (k+1) t - y = 0 and
# doubly-exponential tails.  Each integral is reduced to a finite window
# [a, b] where g stays within _TAIL_NATS of its maximum, split at the peak,
# and refined panel-by-panel with a 15-point Gauss-Kronrod rule.

# Nodes and weights of the 15-point Kronrod rule with embedded 7-point Gauss.
_GK_NODES_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_GK_WEIGHTS_HALF = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_G7_WEIGHTS_HALF = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_GK_NODES = np.concatenate([-_GK_NODES_HALF[:-1], _GK_NODES_HALF[::-1]])
_GK_WK = np.concatenate([_GK_WEIGHTS_HALF[:-1], _GK_WEIGHTS_HALF[::-1]])
# Gauss points are the odd-indexed Kronrod nodes.
_GK_GIDX = np.arange(1, 15, 2)
_GK_WG = np.concatenate([_G7_WEIGHTS_HALF[:-1], _G7_WEIGHTS_HALF[::-1]])


def _g_log_integrand(u, kp1, y):
    with np.errstate(over="ignore"):
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
    by a fixed number of bisections; returns the final outer ends."""
    for _ in range(_J_CUT_BISECTIONS):
        mid = 0.5 * (outer + inner)
        below = _g_log_integrand(mid, kp1, y) <= target
        outer = np.where(below, mid, outer)
        inner = np.where(below, inner, mid)
    return outer


def _log_j_batch(k: float, x: float, y: np.ndarray) -> np.ndarray:
    """log J_k(x, y_i) for an array of y >= 0 sharing one (k, x).

    Refinement decisions for each integral depend only on that integral's own
    panels, so results are identical no matter how calls are batched.
    """
    _validate_j_args(k, x)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DomainError("y must be one-dimensional")
    if y.size == 0:
        return np.empty(0)
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise DomainError("j_integral requires finite y >= 0")

    n = y.size
    kp1 = k + 1.0
    a0 = math.log(x)

    tstar = _peak_t(kp1, y)
    with np.errstate(divide="ignore"):
        u_star = np.where(tstar > 0.0, np.log(np.where(tstar > 0.0, tstar, 1.0)), -np.inf)
    u_pk = np.maximum(u_star, a0)
    gmax = _g_log_integrand(u_pk, kp1, y)
    if not np.all(np.isfinite(gmax)):
        raise NumericError("J integrand maximum is not finite; arguments out of range")
    target = gmax - _TAIL_NATS

    # Upper cutoff: double a step past the peak until g drops below target,
    # then bisect.  Fixed iteration counts keep every element's result a pure
    # function of its own arguments.
    step = np.ones(n)
    hi = u_pk + step
    for _ in range(130):
        need = _g_log_integrand(hi, kp1, y) > target
        if not need.any():
            break
        step = np.where(need, 2.0 * step, step)
        hi = np.where(need, u_pk + step, hi)
    else:
        raise NumericError("J tail cutoff search failed to terminate")
    b_cut = _bisect_cut(hi, u_pk, kp1, y, target)

    # Lower cutoff: only needed when the peak sits strictly inside the domain
    # and the left tail falls below target before reaching ln x.
    a_cut = np.full(n, a0)
    needs_left = (u_pk > a0) & (_g_log_integrand(a_cut, kp1, y) < target)
    if needs_left.any():
        a_cut = np.where(needs_left, _bisect_cut(a_cut, u_pk, kp1, y, target), a0)

    # Seed panels [a, peak] and [peak, b].  Since a <= peak < b, only the
    # first panel of a peak on the lower cut is empty, and it is dropped.
    owner = np.repeat(np.arange(n), 2)
    plo = np.column_stack([a_cut, u_pk]).ravel()
    phi = np.column_stack([u_pk, b_cut]).ravel()
    seeded = plo < phi
    owner, plo, phi = owner[seeded], plo[seeded], phi[seeded]

    width_total = b_cut - a_cut
    acc = np.zeros(n)

    for _ in range(_J_MAX_ROUNDS):
        if owner.size == 0:
            break
        mid = 0.5 * (plo + phi)
        half = 0.5 * (phi - plo)
        u_nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
        g_vals = _g_log_integrand(u_nodes, kp1, y[owner][:, None])
        f_vals = np.exp(g_vals - gmax[owner][:, None])
        # Row-local sums: a BLAS matrix-vector product rounds a row
        # differently depending on its position in the matrix.
        i_k = half * np.einsum("ij,j->i", f_vals, _GK_WK)
        i_g = half * np.einsum("ij,j->i", f_vals[:, _GK_GIDX], _GK_WG)
        err = np.abs(i_k - i_g)

        totals = acc + np.bincount(owner, weights=i_k, minlength=n)
        budget = _J_RTOL * totals[owner] * ((phi - plo) / width_total[owner])
        done = err <= np.maximum(budget, 5e-324)

        if done.any():
            acc += np.bincount(owner[done], weights=i_k[done], minlength=n)
        live = ~done
        if not live.any():
            owner = owner[:0]
            break
        owner_l, plo_l, phi_l, mid_l = owner[live], plo[live], phi[live], mid[live]
        crowded = 2 * np.bincount(owner_l, minlength=n) > _J_MAX_PANELS
        if crowded.any():
            bad = np.nonzero(crowded)[0]
            raise NumericError(
                f"J quadrature needs more than {_J_MAX_PANELS} panels for "
                f"{bad.size} integral(s); first offender k={k}, x={x}, y={y[bad[0]]}")
        m = owner_l.size
        owner = np.repeat(owner_l, 2)
        plo = np.empty(2 * m); phi = np.empty(2 * m)
        plo[0::2] = plo_l;  phi[0::2] = mid_l
        plo[1::2] = mid_l;  phi[1::2] = phi_l
    else:
        bad = np.unique(owner)
        raise NumericError(
            "J quadrature failed to converge for "
            f"{bad.size} integral(s); first offender k={k}, x={x}, y={y[bad[0]]}")

    if np.any(acc <= 0.0):
        raise NumericError("J quadrature produced a non-positive value")
    return gmax + np.log(acc)


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
            for _ in range(mp.mp.dps * 4 + 60):
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

    The value is always positive; the returned sign is +1.  Relative accuracy
    is 1e-10 or better.  precision="extended" evaluates in multiprecision
    arithmetic instead (used by the cancellation fallback paths).
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
        if value > 0.0:
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
                return float(value_mp)
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
