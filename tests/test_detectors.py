"""Tests for the closed-form detectors.

The reference values here are computed three independent ways: by hand for
the noise likelihood and energy statistic, and through the mpmath assemblies
of the one-source and two-source closed forms in mp_reference for the signal
likelihoods.  Those assemblies deliberately share no code with the package
internals.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from eigensense import (
    BoundedCount,
    DomainError,
    EigenSpectrum,
    ExactCount,
    ExactNoise,
    NoiseGrid,
    PriorConfig,
    Scenario,
    detection_log_ratio,
    energy_statistic,
    gram_eigenvalues,
    log_mimo_signal_likelihood,
    log_noise_likelihood,
    log_simo_signal_likelihood,
    source_count_posteriors,
    synthesize_observation,
)
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

    def test_unknown_mode_rejected(self):
        prior = PriorConfig(ExactCount(1), ExactNoise(self.s2))
        with pytest.raises(DomainError):
            detection_log_ratio(self.x, prior, precision="bogus")
        with pytest.raises(DomainError):
            log_simo_signal_likelihood(self.x, self.s2, precision="bogus")


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
