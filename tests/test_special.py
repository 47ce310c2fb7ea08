"""Unit tests for signed log arithmetic and the J / kappa / determinant kernels."""

import math

import mpmath as mp
import numpy as np
import pytest

from eigensense import (
    CancellationReport,
    DomainError,
    SignedLog,
    j_integral,
    j_via_bessel,
    kappa,
    lemma1_determinant,
    signed_log_sum,
)
from eigensense.special import _log_j_batch, _log_j_segment_mp
from mp_reference import mp_j


class TestSignedLog:
    def test_from_float_roundtrip(self):
        for v in (3.5, -2.25, 1e-300, -1e300):
            s = SignedLog.from_float(v)
            assert s.to_float() == pytest.approx(v, rel=1e-12)
            assert math.copysign(1.0, s.to_float()) == math.copysign(1.0, v)

    def test_zero(self):
        z = SignedLog.from_float(0.0)
        assert z.sign == 0 and z.to_float() == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            SignedLog.from_float(math.inf)
        with pytest.raises(DomainError):
            SignedLog.from_float(math.nan)

    def test_multiply_and_negate(self):
        a = SignedLog.from_float(-3.0)
        b = SignedLog.from_float(2.0)
        assert (a * b).to_float() == pytest.approx(-6.0, rel=1e-15)
        assert (-a).to_float() == pytest.approx(3.0, rel=1e-15)
        assert (a * SignedLog.zero()).sign == 0


class TestSignedLogSum:
    def test_equal_terms(self):
        total, report = signed_log_sum([SignedLog(1, 0.0), SignedLog(1, 0.0)])
        assert total.sign == 1
        assert total.log_magnitude == pytest.approx(math.log(2.0), abs=1e-15)
        assert report.cancellation_digits == 0.0

    def test_exact_cancellation(self):
        total, report = signed_log_sum([SignedLog(1, 0.0), SignedLog(-1, 0.0)])
        assert total.sign == 0
        assert report.cancellation_digits == math.inf

    def test_huge_magnitudes_stay_in_log_domain(self):
        total, _ = signed_log_sum([SignedLog(1, 700.0), SignedLog(1, 690.0)])
        expected = 700.0 + math.log1p(math.exp(-10.0))
        assert total.log_magnitude == pytest.approx(expected, abs=1e-13)

    def test_order_invariance_is_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            terms = [SignedLog(int(s), float(lm))
                     for s, lm in zip(rng.choice([-1, 1], 9),
                                      rng.uniform(-40, 40, 9))]
            ref, _ = signed_log_sum(terms)
            for _ in range(4):
                perm = [terms[i] for i in rng.permutation(9)]
                got, _ = signed_log_sum(perm)
                assert got == ref

    def test_cancellation_digits_counted(self):
        # 1 - (1 - 1e-6): about six digits cancel
        a = SignedLog.from_float(1.0)
        b = SignedLog.from_float(-(1.0 - 1e-6))
        total, report = signed_log_sum([a, b])
        assert total.sign == 1
        assert 5.5 < report.cancellation_digits < 6.5

    def test_unshrunk_sum_reports_positive_zero_digits(self):
        _, report = signed_log_sum([SignedLog(1, 0.0)])
        assert math.copysign(1.0, report.cancellation_digits) == 1.0

    def test_empty_sums_to_zero(self):
        total, report = signed_log_sum([])
        assert total.sign == 0 and report.cancellation_digits == 0.0


class TestJIntegral:
    def test_exact_exponential_cases(self):
        # y = 0 reduces to incomplete-gamma values: J_0(1,0) = e^-1,
        # J_1(1,0) = 2 e^-1
        j0 = j_integral(0, 1.0, 0.0)
        assert j0.sign == 1
        assert math.exp(j0.log_magnitude) == pytest.approx(math.exp(-1.0), rel=1e-10)
        j1 = j_integral(1, 1.0, 0.0)
        assert math.exp(j1.log_magnitude) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)

    def test_whole_line_bessel_limit(self):
        # As x -> 0 with k <= -2 the integral tends to 2 y^((k+1)/2) K_{k+1}(2 sqrt y)
        got = math.exp(j_integral(-3, 1e-8, 2.0).log_magnitude)
        ref = float(2 * mp.mpf(2) ** (-1) * mp.besselk(2, 2 * mp.sqrt(2)))
        assert got == pytest.approx(ref, rel=1e-8)

    def test_against_multiprecision_reference(self):
        for k, x, y in [(0, 1.0, 1.0), (-5, 0.5, 3.0), (2, 2.0, 0.1),
                        (-12, 5.0, 0.1), (6, 0.1, 100.0)]:
            got = j_integral(k, x, y).log_magnitude
            ref = float(mp.log(mp_j(k, x, y)))
            assert got == pytest.approx(ref, abs=5e-11), (k, x, y)

    def test_extended_matches_standard(self):
        for k, x, y in [(0, 1.0, 1.0), (-5, 0.5, 3.0), (2, 2.0, 0.1)]:
            s = j_integral(k, x, y).log_magnitude
            e = j_integral(k, x, y, precision="extended").log_magnitude
            assert s == pytest.approx(e, abs=1e-12)

    def test_monotone_decreasing_in_x_and_y(self):
        base = j_integral(-2, 1.0, 1.0).log_magnitude
        assert j_integral(-2, 2.0, 1.0).log_magnitude < base
        assert j_integral(-2, 1.0, 2.0).log_magnitude < base

    def test_batch_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(4)
        ys = rng.uniform(0.0, 50.0, 64)
        batch = _log_j_batch(-7, 0.5, ys)
        for i, y in enumerate(ys):
            assert batch[i] == j_integral(-7, 0.5, float(y)).log_magnitude

    def test_batch_composition_independence(self):
        # splitting a batch must not change any element
        rng = np.random.default_rng(5)
        ys = rng.uniform(0.0, 20.0, 30)
        whole = _log_j_batch(-4, 1.3, ys)
        parts = np.concatenate([_log_j_batch(-4, 1.3, ys[:11]),
                                _log_j_batch(-4, 1.3, ys[11:17]),
                                _log_j_batch(-4, 1.3, ys[17:])])
        assert np.array_equal(whole, parts)

    def test_each_row_alone_matches_the_batch(self):
        # Every split position at once: each y alone against the whole batch.
        ys = np.random.default_rng(5).uniform(0.0, 20.0, 257)
        whole = _log_j_batch(-4, 1.3, ys)
        alone = np.array([_log_j_batch(-4, 1.3, ys[i:i + 1])[0] for i in range(ys.size)])
        assert whole.tobytes() == alone.tobytes()

    def test_huge_y_raises_instead_of_growing(self, capped_python):
        # At y = 1e20 the panels never meet their budget; the panel cap turns
        # unbounded growth into a NumericError naming the integral.
        code = ("import numpy as np\n"
                "from eigensense import NumericError\n"
                "from eigensense.special import _log_j_batch\n"
                "try:\n"
                "    _log_j_batch(-7, 1.0, np.array([1.0, 1e20]))\n"
                "except NumericError as exc:\n"
                "    print(exc)\n")
        proc = capped_python(["-c", code], timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert "first offender k=-7, x=1.0, y=1e+20" in proc.stdout

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            j_integral(0, 0.0, 1.0)
        with pytest.raises(DomainError):
            j_integral(0, -1.0, 1.0)
        with pytest.raises(DomainError):
            j_integral(0, 1.0, -0.5)
        with pytest.raises(DomainError):
            j_integral(5000, 1.0, 1.0)


class TestLogJSegmentMp:
    @pytest.mark.parametrize("k, y, u_lo, u_hi", [
        (0, 100.0, math.log(0.5), math.log(200.0)),  # both cuts clamp to their limits
        (0, 100.0, math.log(0.01), math.log(1e4)),   # both bisect inside finite limits
        (-3, 50.0, -math.inf, math.log(30.0)),       # lower cut bisects toward -inf
        (1, 0.0, math.log(0.5), math.inf),           # upper cut bisects toward +inf
    ])
    def test_segment_against_quadrature_in_t(self, k, y, u_lo, u_hi):
        got = _log_j_segment_mp(k, y, u_lo, u_hi, 40)
        with mp.workdps(60):
            # The segment is the integral of t^k e^(-t - y/t) over [e^u_lo, e^u_hi].
            f = lambda t: t ** mp.mpf(k) * mp.e ** (-t - mp.mpf(y) / t)
            kp1 = mp.mpf(k) + 1
            s = mp.sqrt(kp1 * kp1 + 4 * mp.mpf(y))
            tstar = (kp1 + s) / 2 if kp1 >= 0 else (2 * mp.mpf(y)) / (s - kp1)
            t_lo, t_hi = mp.exp(mp.mpf(u_lo)), mp.exp(mp.mpf(u_hi))
            pts = [t_lo, tstar, t_hi] if t_lo < tstar < t_hi else [t_lo, t_hi]
            assert abs(got - mp.log(mp.quad(f, pts))) < mp.mpf("1e-30")

    def test_repeats_add_no_node_cache_entry_per_integral(self):
        # mp.quad keeps the nodes of every interval it meets twice.  Segments
        # are mapped onto [0, 1], so repeating distinct integrals must not add
        # cache entries keyed by their own endpoints.
        cache = mp.mp._tanh_sinh.transformed_cache
        before = set(cache)
        for _ in range(2):
            for y in (2.0, 3.0, 5.0):
                _log_j_segment_mp(-2, y, math.log(0.5), math.inf, 30)
        assert {key[:2] for key in set(cache) - before} <= {(0, 1)}


class TestJViaBessel:
    def test_spot_points_against_reference(self):
        for k, x, y in [(0, 1.0, 1.0), (-5, 0.5, 3.0), (2, 2.0, 0.1)]:
            got = j_via_bessel(k, x, y)
            ref = float(mp_j(k, x, y))
            assert got == pytest.approx(ref, rel=1e-10), (k, x, y)

    def test_survives_heavy_cancellation(self):
        # At k=-12, x=5, y=0.1 the two identity terms agree to ~29 digits.
        got = j_via_bessel(-12, 5.0, 0.1)
        ref = float(mp_j(-12, 5.0, 0.1, dps=80))
        assert got == pytest.approx(ref, rel=1e-10)

    def test_rejects_y_zero(self):
        with pytest.raises(DomainError):
            j_via_bessel(0, 1.0, 0.0)


class TestKappa:
    def test_known_values(self):
        assert kappa(1, 3.0, 2.0) == pytest.approx(0.75, abs=1e-15)
        a, b = 1.3, 0.7
        expected = a * a / b ** 4 - 2 * a / b ** 3
        assert kappa(2, a, b) == pytest.approx(expected, rel=1e-14)

    def test_is_derivative_coefficient(self):
        # d^k/db^k e^{-a/b} = kappa_k(a,b) e^{-a/b}, checked with mp.diff
        for k in range(1, 5):
            for a, b in [(1.5, 0.8), (3.0, 2.0), (0.4, 1.7)]:
                with mp.workdps(40):
                    deriv = mp.diff(lambda t: mp.e ** (-mp.mpf(a) / t), mp.mpf(b), k)
                    ref = float(deriv * mp.e ** (mp.mpf(a) / mp.mpf(b)))
                assert kappa(k, a, b) == pytest.approx(ref, rel=1e-5), (k, a, b)

    def test_validation(self):
        with pytest.raises(DomainError):
            kappa(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kappa(2, 1.0, 0.0)


class TestLemma1Determinant:
    def closed_form(self, a, b):
        n = len(a)
        prod = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                prod *= a[j] - a[i]
        return b ** (-n * (n - 1)) * prod

    def test_two_by_two_exact(self):
        assert lemma1_determinant([1.0, 4.0], 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_repeated_value_vanishes(self):
        assert lemma1_determinant([2.0, 2.0, 5.0], 1.2) == pytest.approx(0.0, abs=1e-9)

    def test_four_by_four(self):
        a = [0.5, 1.25, 2.0, 3.5]
        got = lemma1_determinant(a, 1.5)
        assert got == pytest.approx(self.closed_form(a, 1.5), rel=1e-6)

    def test_random_well_separated(self):
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            for _ in range(20):
                while True:
                    a = np.sort(rng.uniform(0.2, 5.0, n))
                    if n == 1 or np.all(np.diff(a) >= 0.05):
                        break
                b = float(rng.uniform(0.6, 2.4))
                got = lemma1_determinant(a, b)
                ref = self.closed_form(list(a), b)
                assert got == pytest.approx(ref, rel=1e-6), (n, a, b)
