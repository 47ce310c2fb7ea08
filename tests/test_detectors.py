"""Tests for the closed-form detectors.

The reference values here are computed three independent ways: by hand for
the noise likelihood and energy statistic, and through the mpmath assemblies
of the one-source and two-source closed forms in mp_reference for the signal
likelihoods.  Those assemblies deliberately share no code with the package
internals.
"""

import math
import re
import sys
import threading
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from eigensense import (
    BayesDetector,
    BoundedCount,
    DegeneracyError,
    DomainError,
    EigenSpectrum,
    ExactCount,
    ExactNoise,
    NoiseGrid,
    NumericError,
    PriorConfig,
    Scenario,
    detection_log_ratio,
    energy_statistic,
    gram_eigenvalues,
    j_integral,
    log_mimo_signal_likelihood,
    log_noise_likelihood,
    log_simo_signal_likelihood,
    run_roc,
    source_count_posteriors,
    synthesize_observation,
)
from eigensense import detectors
from eigensense.detectors import (
    _batch_energy_stats,
    _batch_fast_stats,
    _guard_values,
    _guard_values_batch,
    _marginal_statistic,
)
from eigensense.spectra import _gram_eigenvalues_batch
from mp_reference import mp_j, mp_one_source_logpdf, mp_two_source_logpdf


class TestNoiseLikelihood:
    def test_single_sensor_zero_energy(self):
        x = EigenSpectrum([0.0], 1)
        assert log_noise_likelihood(x, 1.0) == pytest.approx(-math.log(math.pi), abs=1e-15)

    def test_single_sensor_unit_noise(self):
        x = EigenSpectrum([2.0], 1)
        assert log_noise_likelihood(x, 1.0) == pytest.approx(-2.0 - math.log(math.pi), abs=1e-14)

    def test_two_sensor_half_noise(self):
        x = EigenSpectrum([1.2, 0.3], 3)
        expected = -6.0 * math.log(0.5 * math.pi) - 3.0
        assert log_noise_likelihood(x, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_permutation_invariant(self):
        a = log_noise_likelihood(EigenSpectrum([0.3, 1.2], 3), 0.5)
        b = log_noise_likelihood(EigenSpectrum([1.2, 0.3], 3), 0.5)
        assert a == b

    def test_rejects_bad_sigma2(self):
        x = EigenSpectrum([1.0], 2)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                log_noise_likelihood(x, bad)


class TestOneSourceLikelihood:
    def test_matches_direct_assembly(self):
        rng = np.random.default_rng(101)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            L = n + int(rng.integers(1, 5))
            vals = np.sort(rng.uniform(0.3, 6.0, size=n))[::-1]
            if np.min(-np.diff(vals)) < 0.05:
                continue
            sigma2 = float(rng.uniform(0.4, 2.5))
            got = log_simo_signal_likelihood(EigenSpectrum(vals, L), sigma2)
            ref = mp_one_source_logpdf(vals, L, sigma2)
            assert got.sign == 1
            assert got.log_magnitude == pytest.approx(ref, abs=1e-11)

    def test_eight_sensors_match_direct_assembly(self):
        # Eight sensors is where the gap sums run long enough for numpy's
        # summation order to matter.
        rng = np.random.default_rng(8)
        for i in range(6):
            s = Scenario(8, 12, 1, float(rng.uniform(-3.0, 3.0)), 1, 80 + i)
            x = gram_eigenvalues(synthesize_observation(s, "H1", 0))
            got = log_simo_signal_likelihood(x, s.sigma2)
            ref = mp_one_source_logpdf(x.values, 12, s.sigma2)
            assert got.sign == 1
            assert got.log_magnitude == pytest.approx(ref, abs=1e-10)

    def test_single_sensor_case(self):
        # N=1 collapses to a single J term with no eigenvalue differences.
        vals = np.array([3.7])
        L, sigma2 = 4, 1.25
        got = log_simo_signal_likelihood(EigenSpectrum(vals, L), sigma2)
        with mp.workdps(50):
            s2 = mp.mpf("1.25")
            ref = float(s2 - vals[0] / s2 - L * mp.log(mp.pi)
                        + vals[0] / s2 + mp.log(mp_j(-L, s2, vals[0], 50)))
        assert got.log_magnitude == pytest.approx(ref, abs=1e-11)

    def test_requires_more_snapshots_than_sensors(self):
        with pytest.raises(DomainError):
            log_simo_signal_likelihood(EigenSpectrum([2.0, 1.0], 2), 1.0)


class TestMultiSourceLikelihood:
    def test_one_source_paths_agree(self):
        # The m-source sum at m=1 must equal the one-source expression: the
        # public one-source entry point and the independent mpmath
        # one-source reference, on spectra with no gap filter.
        rng = np.random.default_rng(55)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            L = n + int(rng.integers(1, 4))
            vals = np.sort(rng.uniform(0.2, 8.0, size=n))[::-1]
            sigma2 = float(rng.uniform(0.3, 3.0))
            x = EigenSpectrum(vals, L)
            a = log_simo_signal_likelihood(x, sigma2)
            b = log_mimo_signal_likelihood(x, 1, sigma2)
            ref = mp_one_source_logpdf(vals, L, sigma2)
            assert b.log_magnitude == pytest.approx(a.log_magnitude, abs=1e-10)
            assert b.log_magnitude == pytest.approx(ref, abs=1e-10)

    def test_two_source_matches_direct_assembly(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 8:
            n = int(rng.integers(3, 5))
            L = n + int(rng.integers(2, 5))
            vals = np.sort(rng.uniform(0.5, 9.0, size=n))[::-1]
            if np.min(-np.diff(vals)) < 0.1:
                continue
            sigma2 = float(rng.uniform(0.5, 2.0))
            got = log_mimo_signal_likelihood(EigenSpectrum(vals, L), 2, sigma2)
            ref = mp_two_source_logpdf(vals, L, sigma2)
            assert got.sign == 1
            assert got.log_magnitude == pytest.approx(ref, abs=1e-9)
            done += 1

    @pytest.mark.parametrize("m", [4, 5])
    def test_eight_sensors_match_extended_within_reported_digits(self, m):
        # Scenario(8, 12, 2, 3.0, 4, 7), H1 trial 0: 5.5 and 7.2 digits.
        x = EigenSpectrum([55.860111544770206, 38.04393673314062, 13.391854506394639,
                           5.440360176759242, 4.828103697480852, 2.7802043987793827,
                           1.8866487449623173, 1.1299825903984968], 12)
        prior = PriorConfig(ExactCount(m), ExactNoise(1.0))
        std = detection_log_ratio(x, prior)
        ext = detection_log_ratio(x, prior, precision="extended")
        assert not std.extended_used
        err = abs(std.log_ratio.log_magnitude - ext.log_ratio.log_magnitude)
        assert err <= 10.0 ** (std.cancellation.cancellation_digits - 13.0), err

    def test_eight_sources_on_eight_sensors_within_budget(self):
        # Scenario(8, 12, 2, 0.0, 4, 3), H1 trial 0, at sigma2 = 3: m=8
        # cancels past the double-precision limit, so this is 64 J segments
        # and one 8x8 determinant in multiprecision.
        x = EigenSpectrum([86.60730985314353, 56.81107768542161, 19.79572539081958,
                           14.171051677999527, 11.099622394107278, 7.3459963928786705,
                           5.33377484747598, 4.052837112987291], 12)
        start = time.perf_counter()
        got = log_mimo_signal_likelihood(x, 8, 3.0)
        elapsed = time.perf_counter() - start
        assert got.sign == 1 and math.isfinite(got.log_magnitude)
        assert elapsed < 10.0, elapsed

    def test_rejects_more_sources_than_sensors(self):
        x = EigenSpectrum([3.0, 1.0], 5)
        with pytest.raises(DomainError):
            log_mimo_signal_likelihood(x, 3, 1.0)
        with pytest.raises(DomainError):
            log_mimo_signal_likelihood(x, 0, 1.0)


class TestDetectionRatio:
    def _spectrum(self):
        return EigenSpectrum([4.1, 1.7, 0.6], 7)

    def test_consistency_chain(self):
        # ln C with the exact priors must equal the two likelihoods' gap.
        x = self._spectrum()
        sigma2 = 0.8
        stat = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(sigma2)))
        direct = (log_simo_signal_likelihood(x, sigma2).log_magnitude
                  - log_noise_likelihood(x, sigma2))
        assert stat.log_ratio.sign == 1
        assert stat.log_ratio.log_magnitude == pytest.approx(direct, abs=1e-12)
        assert stat.detector_id == "bayes"

    def test_decision_and_log10(self):
        x = self._spectrum()
        stat = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(1.0)))
        lnc = stat.log_ratio.log_magnitude
        assert stat.log10_ratio == pytest.approx(lnc / math.log(10.0), rel=1e-15)
        assert stat.decides_signal(lnc - 1.0)
        assert not stat.decides_signal(lnc + 1.0)

    def test_single_point_grid_matches_exact(self):
        # A one-point grid whose midpoint lands on sigma2 is the same model.
        x = self._spectrum()
        exact = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(1.3)))
        db = 10.0 * math.log10(1.3)
        grid = detection_log_ratio(
            x, PriorConfig(ExactCount(1), NoiseGrid(db, db, 1, "db")))
        assert grid.log_ratio.log_magnitude == pytest.approx(
            exact.log_ratio.log_magnitude, abs=1e-12)

    def test_bounded_one_matches_exact_one(self):
        x = self._spectrum()
        a = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(0.9)))
        b = detection_log_ratio(x, PriorConfig(BoundedCount(1), ExactNoise(0.9)))
        assert a.log_ratio.log_magnitude == b.log_ratio.log_magnitude

    def test_bounded_count_averages_hypotheses(self):
        # With a uniform prior over m in {1, 2} the marginal likelihood is the
        # mean of the per-m likelihoods, so ln C must sit strictly between
        # the two single-m ratios.
        x = self._spectrum()
        s2 = 1.1
        r1 = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(s2)))
        r2 = detection_log_ratio(x, PriorConfig(ExactCount(2), ExactNoise(s2)))
        rb = detection_log_ratio(x, PriorConfig(BoundedCount(2), ExactNoise(s2)))
        lo = min(r1.log_ratio.log_magnitude, r2.log_ratio.log_magnitude)
        hi = max(r1.log_ratio.log_magnitude, r2.log_ratio.log_magnitude)
        assert lo < rb.log_ratio.log_magnitude < hi
        # Exact value: ln((e^a + e^b)/2) - ln P0, reassembled by hand.
        la = log_mimo_signal_likelihood(x, 1, s2).log_magnitude
        lb = log_mimo_signal_likelihood(x, 2, s2).log_magnitude
        expected = (np.logaddexp(la, lb) - math.log(2.0)
                    - log_noise_likelihood(x, s2))
        assert rb.log_ratio.log_magnitude == pytest.approx(expected, abs=1e-12)

    def test_weight_scale_invariance(self):
        # The ratio is invariant under a common rescaling of grid weights
        # because the same weights appear in numerator and denominator.
        x = self._spectrum()
        gvals, _ = _guard_values(x.sorted_descending())
        points = np.array([0.7, 1.0, 1.6])
        w = np.array([0.2, 0.5, 0.3])
        s1, _, _ = _marginal_statistic(gvals, 7, [1], points, w, "standard")
        s2, _, _ = _marginal_statistic(gvals, 7, [1], points, 5.0 * w, "standard")
        assert s1.log_magnitude == pytest.approx(s2.log_magnitude, abs=1e-12)

    def test_permutation_invariance_bit_exact(self):
        vals = np.array([0.6, 4.1, 1.7])
        a = detection_log_ratio(EigenSpectrum(vals, 7),
                                PriorConfig(ExactCount(1), ExactNoise(1.0)))
        b = detection_log_ratio(EigenSpectrum(vals[::-1].copy(), 7),
                                PriorConfig(ExactCount(1), ExactNoise(1.0)))
        assert a.log_ratio.log_magnitude == b.log_ratio.log_magnitude

    def test_degenerate_spectrum_is_guarded(self):
        x = EigenSpectrum([2.0, 2.0, 2.0], 7)
        stat = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(1.0)))
        assert stat.perturbed
        assert stat.log_ratio.sign == 1
        assert math.isfinite(stat.log_ratio.log_magnitude)

    def test_zero_spectrum_is_guarded(self):
        x = EigenSpectrum([0.0, 0.0], 5)
        stat = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(1.0)))
        assert stat.perturbed
        assert math.isfinite(stat.log_ratio.log_magnitude)

    def test_guard_threshold_behaviour(self):
        # Gaps above the relative threshold pass through untouched.
        vals = np.array([2.0, 1.0, 0.5])
        out, flagged = _guard_values(vals)
        assert not flagged
        assert np.array_equal(out, vals)
        # A gap below threshold triggers a deterministic, order-preserving fix.
        tight = np.array([2.0, 1.0 + 1e-12, 1.0])
        out2, flagged2 = _guard_values(tight)
        assert flagged2
        assert np.all(np.diff(out2) < 0)
        assert np.all(out2 >= 0)
        out3, _ = _guard_values(tight)
        assert np.array_equal(out2, out3)
        # The scalar guard is the batch guard's row.
        for v in (vals, tight, np.array([0.0, 0.0]), np.array([3.0])):
            out, flagged = _guard_values(v)
            rows, mask = _guard_values_batch(v[None, :])
            assert np.array_equal(out, rows[0]) and flagged == mask[0]

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_subnormal_zero_gap_raises_degeneracy(self, precision):
        # At x_1 = 1e-320 the guard's threshold underflows to 0, yet the zero
        # gap is flagged; the offsets underflow too, so the guard's own
        # re-check raises before any log of a zero gap is taken.
        x = EigenSpectrum([1e-320, 1e-320], 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneracyError):
                detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(1.0)),
                                    precision=precision)

    def test_prior_count_exceeding_sensors_rejected(self):
        x = EigenSpectrum([3.0, 1.0], 6)
        with pytest.raises(DomainError):
            detection_log_ratio(x, PriorConfig(ExactCount(3), ExactNoise(1.0)))
        with pytest.raises(DomainError):
            detection_log_ratio(x, PriorConfig(BoundedCount(3), ExactNoise(1.0)))


class TestEnergyStatistic:
    def test_hand_computed_value(self):
        x = EigenSpectrum([5.0, 3.0], 4)
        stat = energy_statistic(x, 1.0)
        assert stat.log_ratio.to_float() == pytest.approx(1.0, rel=1e-15)
        assert stat.detector_id == "energy"

    def test_scales_inversely_with_sigma2(self):
        x = EigenSpectrum([5.0, 3.0], 4)
        a = energy_statistic(x, 1.0).log_ratio.to_float()
        b = energy_statistic(x, 2.0).log_ratio.to_float()
        assert b == pytest.approx(0.5 * a, rel=1e-14)

    def test_zero_spectrum(self):
        stat = energy_statistic(EigenSpectrum([0.0, 0.0], 4), 1.0)
        assert stat.log_ratio.sign == 0
        assert stat.log10_ratio == -math.inf
        assert not stat.decides_signal(-math.inf)

    def test_permutation_invariance_bit_exact(self):
        a = energy_statistic(EigenSpectrum([0.25, 7.5, 2.0], 5), 0.7)
        b = energy_statistic(EigenSpectrum([7.5, 2.0, 0.25], 5), 0.7)
        assert a.log_ratio.log_magnitude == b.log_ratio.log_magnitude

    def test_no_shape_restriction(self):
        # The energy detector is defined for L <= N as well.
        stat = energy_statistic(EigenSpectrum([1.0, 2.0, 3.0], 2), 1.0)
        assert stat.log_ratio.to_float() == pytest.approx(1.0, rel=1e-14)


class TestSourceCounting:
    def _posterior(self, include_noise=True):
        rng = np.random.default_rng(31)
        y = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        vals = np.sort(np.linalg.eigvalsh(y @ y.conj().T / 2.0))[::-1]
        x = EigenSpectrum(np.clip(vals, 0, None), 9)
        return source_count_posteriors(x, 1.0, 3, include_noise_hypothesis=include_noise)

    def test_probabilities_normalised(self):
        post = self._posterior()
        assert post.counts == (0, 1, 2, 3)
        assert sum(post.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in post.probabilities)

    def test_ratio_identity(self):
        post = self._posterior()
        for p, r in zip(post.probabilities, post.ratios):
            assert r == pytest.approx(p / (1.0 - p), rel=1e-9)

    def test_excluding_noise_hypothesis(self):
        post = self._posterior(include_noise=False)
        assert post.counts == (1, 2, 3)
        assert sum(post.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert not post.includes_noise_hypothesis

    def test_argmax_count(self):
        post = self._posterior()
        k = int(np.argmax(post.probabilities))
        assert post.argmax_count() == post.counts[k]

    def test_deterministic(self):
        a = self._posterior()
        b = self._posterior()
        assert a.probabilities == b.probabilities

    def test_validation(self):
        x = EigenSpectrum([3.0, 1.0], 6)
        with pytest.raises(DomainError):
            source_count_posteriors(x, 1.0, 0)
        with pytest.raises(DomainError):
            source_count_posteriors(x, 1.0, 3)
        with pytest.raises(DomainError):
            source_count_posteriors(x, -1.0, 2)


class TestPriorValidation:
    def test_exact_count(self):
        with pytest.raises(DomainError):
            ExactCount(0)
        assert ExactCount(2).m == 2

    def test_bounded_count(self):
        with pytest.raises(DomainError):
            BoundedCount(0)
        assert BoundedCount(3).m_max == 3

    def test_exact_noise(self):
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                ExactNoise(bad)

    def test_noise_grid_bounds(self):
        with pytest.raises(DomainError):
            NoiseGrid(2.0, 1.0, 4)
        with pytest.raises(DomainError):
            NoiseGrid(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            NoiseGrid(1.0, 2.0, 0)
        with pytest.raises(DomainError):
            NoiseGrid(1.0, 2.0, 4, "octave")
        # dB bounds may be negative (they are logarithmic).
        NoiseGrid(-6.0, 3.0, 5, "db")

    @pytest.mark.parametrize("lo, hi, k", [(0.0, 4000.0, 2), (-300.0, 3000.0, 12),
                                           (4000.0, 4000.0, 1), (-4000.0, -3990.0, 2)])
    def test_db_grid_beyond_doubles_is_rejected(self, lo, hi, k):
        # Nodes or cell edges that overflow to inf or underflow to 0 are
        # refused at construction, naming the bounds, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"{lo}:{hi}:{k}"):
                NoiseGrid(lo, hi, k, "db")

    def test_linear_grid_points(self):
        g = NoiseGrid(1.0, 3.0, 4)
        points, weights = g.points_and_weights()
        assert points == pytest.approx([1.25, 1.75, 2.25, 2.75])
        assert weights == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_db_grid_points(self):
        g = NoiseGrid(-3.0, 3.0, 3, "db")
        points, weights = g.points_and_weights()
        assert points == pytest.approx([10 ** -0.3, 1.0, 10 ** 0.3])
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        # Wider linear cells at the top of the dB range get more weight.
        assert weights[2] > weights[1] > weights[0]

    @pytest.mark.parametrize("make, message", [
        (lambda: ExactCount(2.5), "m must be a finite integer, got 2.5"),
        (lambda: BoundedCount(3.9), "m_max must be a finite integer, got 3.9"),
        (lambda: NoiseGrid(0.5, 2.0, 3.7), "k_points must be a finite integer, got 3.7"),
        (lambda: Scenario(4.9, 8.2, 1.5, 0.0, 10.5, 1.7),
         "n_sensors must be a finite integer, got 4.9"),
        (lambda: Scenario(4, 8, 1.5, 0.0, 10, 1), "n_sources must be a finite integer, got 1.5"),
        (lambda: Scenario(4, 8, 1, 0.0, 10, 1.7), "seed must be a finite integer, got 1.7"),
        (lambda: source_count_posteriors(EigenSpectrum([3.0, 1.0], 6), 1.0, 2.5),
         "m_max must be a finite integer, got 2.5"),
        (lambda: log_mimo_signal_likelihood(EigenSpectrum([3.0, 1.0], 6), 1.5, 1.0),
         "m must be a finite integer, got 1.5"),
        (lambda: ExactCount(math.nan), "m must be a finite integer, got nan"),
        (lambda: NoiseGrid(0.5, 2.0, math.inf), "k_points must be a finite integer, got inf"),
        (lambda: run_roc(Scenario(4, 8, 1, 0.0, 10, 1),
                         BayesDetector(PriorConfig(ExactCount(1), ExactNoise(1.0))),
                         n_threads=1.5), "n_threads must be a finite integer, got 1.5"),
        (lambda: BayesDetector("x"), "prior must be a PriorConfig, got 'x'"),
    ], ids=["ExactCount", "BoundedCount", "NoiseGrid", "Scenario", "Scenario-sources",
            "Scenario-seed", "source_count_posteriors", "log_mimo_signal_likelihood",
            "ExactCount-nan", "NoiseGrid-inf", "run_roc-threads", "BayesDetector"])
    def test_bad_counts_and_priors_are_domain_errors(self, make, message):
        # A fractional or non-finite count is refused, never truncated, and a
        # detector's prior is checked when the detector is built.
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            make()

    def test_integral_counts_of_any_type_pass(self):
        assert ExactCount(2.0).m == 2 and type(ExactCount(2.0).m) is int
        assert BoundedCount(np.int64(3)).m_max == 3
        assert NoiseGrid(0.5, 2.0, np.float64(4.0)).k_points == 4
        assert Scenario(4, 8, 1, 0.0, 10.0, np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1

    def test_prior_config_types(self):
        with pytest.raises(DomainError):
            PriorConfig(1, ExactNoise(1.0))
        with pytest.raises(DomainError):
            PriorConfig(ExactCount(1), 1.0)


class TestExtendedPrecision:
    """precision="extended" runs every component in multiprecision; on a
    spectrum the double path handles cleanly both modes agree."""

    x = EigenSpectrum([4.1, 1.7, 0.6], 7)
    s2 = 0.8

    def test_likelihoods_match_standard(self):
        for fn, args in ((log_simo_signal_likelihood, (self.s2,)),
                         (log_mimo_signal_likelihood, (2, self.s2))):
            std = fn(self.x, *args)
            ext = fn(self.x, *args, precision="extended")
            assert ext.sign == 1
            assert abs(ext.log_magnitude - std.log_magnitude) <= 1e-10

    def test_detection_ratio_matches_standard(self):
        prior = PriorConfig(ExactCount(2), NoiseGrid(-3.0, 1.0, 3, "db"))
        std = detection_log_ratio(self.x, prior)
        ext = detection_log_ratio(self.x, prior, precision="extended")
        assert not std.extended_used
        assert ext.extended_used
        assert abs(ext.log_ratio.log_magnitude - std.log_ratio.log_magnitude) <= 1e-10

    def test_count_posteriors_match_standard(self):
        std = source_count_posteriors(self.x, self.s2, 2)
        ext = source_count_posteriors(self.x, self.s2, 2, precision="extended")
        assert np.allclose(ext.probabilities, std.probabilities, rtol=1e-10, atol=0.0)

    # Ids without a suffix are the prior ExactCount(1).
    @pytest.mark.parametrize("hypothesis, n_sources, count", [
        pytest.param(h, n, c, id=f"{h}-{n}" + ("-count2" if c == 2 else ""))
        for c in (1, 2) for h in ("H0", "H1") for n in (1, 2)])
    def test_long_observation_matches_extended(self, hypothesis, n_sources, count):
        # At L = 1100 the J orders reach N - L - 1 = -1097; the statistic is
        # defined for every L > N, so both paths evaluate it.  At m = 2 the
        # rows of D differ by about 1e211, which the multiprecision
        # determinant must not read as singular.
        s = Scenario(4, 1100, n_sources, -10.0, 1, 5)
        x = gram_eigenvalues(synthesize_observation(s, hypothesis, 0))
        prior = PriorConfig(ExactCount(count), ExactNoise(1.0))
        std = detection_log_ratio(x, prior)
        ext = detection_log_ratio(x, prior, precision="extended")
        assert not std.extended_used
        assert abs(ext.log_ratio.log_magnitude - std.log_ratio.log_magnitude) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the m=4 determinant is "
                       "accepted at 10.48 digits and ln C is 8.4e-5 from extended "
                       "precision; J's 1e-13 rounding, amplified by the reported "
                       "digits, is above this bound")
    def test_accepted_four_source_ratio_matches_extended(self):
        # The benchmark's escalate4 input at detect_mix seed 1, pass 5: the
        # receiver assumes noise 9 dB above the truth.
        x = EigenSpectrum([14.914110074720558, 8.515530331671943,
                           3.7590369771385435, 1.7433465555413366], 8)
        prior = PriorConfig(ExactCount(4), ExactNoise(10.0 ** 0.9))
        std = detection_log_ratio(x, prior)
        ext = detection_log_ratio(x, prior, precision="extended")
        assert abs(std.log_ratio.log_magnitude - ext.log_ratio.log_magnitude) <= 1e-8

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the m=4 determinant is "
                       "accepted at 9.00 digits and ln C is 2.4e-7 from extended "
                       "precision; J's 1e-13 rounding, amplified by the reported "
                       "digits, is above this bound")
    def test_accepted_six_sensor_four_source_ratio_matches_extended(self):
        # Scenario(6, 9, 1, -7.209564731545271, 64, 676689), H1 trial 35.
        x = EigenSpectrum([118.7605109341104, 100.75905288910276, 47.87697551577943,
                           37.927688967607644, 34.43556591056647, 9.851014201690528], 9)
        prior = PriorConfig(ExactCount(4), ExactNoise(5.963403574933445))
        std = detection_log_ratio(x, prior)
        ext = detection_log_ratio(x, prior, precision="extended")
        assert abs(std.log_ratio.log_magnitude - ext.log_ratio.log_magnitude) <= 1e-8

    @pytest.mark.parametrize("vals, L, sigma2", [
        # The benchmark's escalate4 input at detect_mix seed 1, pass 5.
        ([14.914110074720558, 8.515530331671943, 3.7590369771385435,
          1.7433465555413366], 8, 10.0 ** 0.9),
        # Scenario(6, 9, 1, -7.209564731545271, 64, 676689), H1 trial 35.
        ([118.7605109341104, 100.75905288910276, 47.87697551577943,
          37.927688967607644, 34.43556591056647, 9.851014201690528], 9, 5.963403574933445),
        # Scenario(6, 9, 1, -4.640586964651652, 64, 10686), H0 trial 57.
        ([51.437529961316294, 35.26111324593436, 31.550629106200255,
          18.000291957243597, 10.565646921373366, 7.946295540646374], 9, 6.857332000441908),
    ])
    def test_accepted_four_source_ratio_keeps_the_extended_decision(self, vals, L, sigma2):
        # A term-by-term sum accepted these at 11.6 to 12 digits cancelled,
        # 8 to 26 nats off, with the decision flipped.
        x = EigenSpectrum(vals, L)
        prior = PriorConfig(ExactCount(4), ExactNoise(sigma2))
        std = detection_log_ratio(x, prior)
        ext = detection_log_ratio(x, prior, precision="extended")
        assert abs(std.log_ratio.log_magnitude - ext.log_ratio.log_magnitude) <= 1e-3
        assert std.decides_signal() == ext.decides_signal()

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    @pytest.mark.parametrize("n, L, sigma2, want", [
        (8, 12, 1e4, -0.009589498736772839),
        (8, 12, 1e5, -0.0009598948283837672),
        (6, 9, 1e8, -5.296647032082547e-07),
    ])
    def test_multiprecision_row_has_digits_to_spare(self, n, L, sigma2, want, precision):
        # x / sigma2 << 1 cancels 53 to 78 digits, so a multiprecision row is
        # kept only with 20 working digits to spare.  want is _signal_mp at
        # 200 digits (300 give the same double), near the first-order limit
        # -L N / sigma2.
        x = EigenSpectrum(np.linspace(10.0, 1.0, n), L)
        stat = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(sigma2)),
                                   precision=precision)
        assert stat.extended_used
        assert abs(stat.log_ratio.log_magnitude - want) <= 1e-12

    def test_multiprecision_gives_up_naming_digits_and_dps(self, monkeypatch):
        # Points 1e-300 apart need more working digits than the cap allows.
        monkeypatch.setattr(detectors, "_MP_DPS_MAX", 120)
        x = EigenSpectrum([3e-300, 2e-300, 1e-300], 5)
        with pytest.raises(NumericError, match=r"digits cancelled at 120 working digits"):
            detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(1.0)))

    def test_escalation_ignores_the_shared_mpmath_context(self):
        # All six rows escalate (test_montecarlo's escalated ROC rows).  A
        # thread that keeps setting the shared mpmath.mp to 15 digits must
        # not move a multiprecision result by one bit: each thread evaluates
        # in its own context.
        s = Scenario(4, 8, 1, 0.0, 3, 11)
        prior = PriorConfig(ExactCount(4), ExactNoise(10 ** 1.2))
        spectra = [gram_eigenvalues(synthesize_observation(s, hyp, i))
                   for hyp in ("H0", "H1") for i in range(s.n_trials)]

        def evaluate():
            stats = [detection_log_ratio(x, prior) for x in spectra]
            assert all(stat.extended_used for stat in stats)
            return ([stat.log_ratio.log_magnitude for stat in stats]
                    + [j_integral(-5, 1.0, 14.9, precision="extended").log_magnitude])

        want = evaluate()
        stop = threading.Event()

        def clobber():
            while not stop.wait(1e-4):
                mp.mp.dps = 15

        prec, interval = mp.mp.prec, sys.getswitchinterval()
        clobberer = threading.Thread(target=clobber, daemon=True)
        sys.setswitchinterval(1e-4)
        clobberer.start()
        try:
            got = evaluate()
        finally:
            stop.set()
            clobberer.join(timeout=10)
            sys.setswitchinterval(interval)
            mp.mp.prec = prec
        assert not clobberer.is_alive()
        assert got == want

    def test_unknown_mode_rejected(self):
        prior = PriorConfig(ExactCount(1), ExactNoise(self.s2))
        with pytest.raises(DomainError):
            detection_log_ratio(self.x, prior, precision="bogus")
        with pytest.raises(DomainError):
            log_simo_signal_likelihood(self.x, self.s2, precision="bogus")


class TestLowSnrMisses:
    """Inputs where x / sigma2 << 1 makes e^{x / sigma2} nearly a polynomial
    over the spectrum, so D's divided differences are the small remainder of
    an alternating sum: the mechanism of ROADMAP item 12's -35 dB rows."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the double path accepts "
                       "this row at 10.4 to 11.0 digits cancelled, with ln C = +39.73 "
                       "(sigma2 = 1e5) and +54.93 (1e6), and decides signal")
    @pytest.mark.parametrize("sigma2, want", [(1e5, -3.1997700409647223e-4),
                                              (1e6, -3.1999879695376876e-5)])
    def test_accepted_row_matches_extended(self, sigma2, want):
        # want is precision="extended", equal to _signal_mp at 200 digits.
        x = EigenSpectrum(np.linspace(10.0, 1.0, 4), 8)
        stat = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(sigma2)))
        assert abs(stat.log_ratio.log_magnitude - want) <= 1e-8

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the divided differences "
                       "over points 1e-300 apart cancel beyond 600 digits, so the "
                       "multiprecision tier raises NumericError (a 61-digit row "
                       "gave ln C = +1096.17)")
    def test_tiny_spectrum_is_the_zero_spectrum_limit(self):
        # The all-zero spectrum gives -4.518811675, and [1e-6, 2e-6, 3e-6]
        # gives -4.518810836.
        x = EigenSpectrum([3e-300, 2e-300, 1e-300], 5)
        stat = detection_log_ratio(x, PriorConfig(ExactCount(1), ExactNoise(1.0)))
        assert abs(stat.log_ratio.log_magnitude - (-4.518811674685363)) <= 1e-6


class TestScalarIsBatchRow:
    """The scalar statistics are the batch kernels at B=1, bit for bit."""

    @staticmethod
    def _spectra(n, L, count, seed):
        # Gram eigenvalues of one-source blocks at random signal-to-noise ratios.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, count, n, L)) + 1j * rng.standard_normal((2, count, n, L))
        h = rng.standard_normal((count, n, 1)) + 1j * rng.standard_normal((count, n, 1))
        scale = 10.0 ** rng.uniform(-0.6, 0.6, size=(count, 1, 1))
        return _gram_eigenvalues_batch(z[0] + scale * h * z[1][:, :1, :])

    @pytest.mark.parametrize("n, L, n_bounded4", [(4, 8, 4), (6, 9, 2)])
    def test_detection_log_ratio_equals_batch_row(self, n, L, n_bounded4):
        # All of a prior's spectra form one batch, so a scalar call must
        # equal its row wherever that row sits in the batch.
        grid = NoiseGrid(-5.0, 5.0, 11, "db")
        priors = [(ExactCount(1), ExactNoise(1.3), 60), (ExactCount(2), ExactNoise(1.3), 60),
                  (ExactCount(3), ExactNoise(1.3), 40),
                  (ExactCount(1), grid, 40), (BoundedCount(2), grid, 40),
                  (BoundedCount(4), grid, n_bounded4)]
        for count, noise, n_rows in priors:
            prior = PriorConfig(count, noise)
            vals = self._spectra(n, L, n_rows, seed=n)
            stats, bad, _ = _batch_fast_stats(vals, L, prior)
            for row, stat in zip(vals[~bad], stats[~bad]):
                got = detection_log_ratio(EigenSpectrum(row, L), prior)
                assert got.log_ratio.log_magnitude == stat, (prior, row)

    @pytest.mark.parametrize("n, L", [(4, 8), (6, 9)])
    def test_energy_statistic_equals_batch_row(self, n, L):
        vals = self._spectra(n, L, 1024, seed=L)
        stats = _batch_energy_stats(vals, L, 0.5)
        got = [energy_statistic(EigenSpectrum(v, L), 0.5).log_ratio.log_magnitude
               for v in vals]
        assert np.array_equal(got, stats)


class TestOneKernelCallPerStatistic:
    """Every J value a statistic needs comes from one _log_j_batch call,
    whatever its source counts, J orders and noise grid."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        kernel = detectors._log_j_batch

        def counting(*args):
            seen.append(args)
            return kernel(*args)

        monkeypatch.setattr(detectors, "_log_j_batch", counting)
        return seen

    @pytest.mark.parametrize("count, noise", [
        (ExactCount(1), ExactNoise(1.0)),
        (ExactCount(2), ExactNoise(1.0)),
        (ExactCount(1), NoiseGrid(-5.0, 5.0, 11, "db")),
        (BoundedCount(4), NoiseGrid(-5.0, 5.0, 11, "db")),
        (ExactCount(4), ExactNoise(10.0 ** 0.9)),
    ], ids=["known1", "known2", "grid1", "bounded4", "escalate4"])
    def test_detection_log_ratio(self, calls, count, noise):
        x = gram_eigenvalues(synthesize_observation(Scenario(4, 8, 1, 0.0, 4, 3), "H1", 1))
        detection_log_ratio(x, PriorConfig(count, noise))
        assert len(calls) == 1

    def test_source_count_posteriors(self, calls):
        x = gram_eigenvalues(synthesize_observation(Scenario(6, 9, 1, 0.0, 4, 5), "H1", 0))
        source_count_posteriors(x, 1.0, 3)
        assert len(calls) == 1

    def test_roc_chunk(self, calls):
        # 2048 rows of 4 x 8 under a two-source grid prior: two components of
        # 2048 * 4 rows each at 11 grid points, one holding one J order (m = 1)
        # and one two (m = 2).
        vals = TestScalarIsBatchRow._spectra(4, 8, 2048, seed=3)
        prior = PriorConfig(BoundedCount(2), NoiseGrid(-5.0, 5.0, 11, "db"))
        _batch_fast_stats(vals, 8, prior)
        assert len(calls) == 1
        assert calls[0][1].shape == (11, 2)
        assert list(calls[0][3]) == [1, 2]
