"""Tests for synthesis, the reference oracles and ROC evaluation."""

import math

import numpy as np
import pytest
from scipy import special as sps

from eigensense import (
    BayesDetector,
    DomainError,
    EigenSpectrum,
    EnergyDetector,
    ExactCount,
    ExactNoise,
    InputError,
    NoiseGrid,
    NumericError,
    PriorConfig,
    RocCurve,
    Scenario,
    detection_log_ratio,
    exact_n1_likelihood_oracle,
    log_mimo_signal_likelihood,
    log_simo_signal_likelihood,
    mc_signal_likelihood_oracle,
    roc_metrics,
    run_roc,
    synthesize_observation,
)
from eigensense import montecarlo as mc
from eigensense.montecarlo import _exact_n1_log, _gaussian_loglikes, _synthesize_block
from eigensense.spectra import SampleMatrix, _gram_eigenvalues_batch, gram_eigenvalues


def _prior(sigma2=1.0, m=1):
    return PriorConfig(ExactCount(m), ExactNoise(sigma2))


class TestScenario:
    def test_sigma2_from_snr(self):
        assert Scenario(2, 4, 1, 0.0, 10, 1).sigma2 == pytest.approx(1.0)
        assert Scenario(2, 4, 1, -3.0, 10, 1).sigma2 == pytest.approx(10 ** 0.3, rel=1e-12)
        assert Scenario(2, 4, 1, 10.0, 10, 1).sigma2 == pytest.approx(0.1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            Scenario(0, 4, 1, 0.0, 10, 1)
        with pytest.raises(DomainError):
            Scenario(2, 4, 0, 0.0, 10, 1)
        with pytest.raises(DomainError):
            Scenario(2, 4, 1, 0.0, 0, 1)
        with pytest.raises(DomainError):
            Scenario(2, 4, 1, math.nan, 10, 1)
        with pytest.raises(DomainError):
            Scenario(2, 4, 1, 0.0, 10, -1)
        # SNRs whose noise power overflows or underflows a double.
        for snr_db in (-4000.0, 4000.0):
            with pytest.raises(DomainError):
                Scenario(4, 8, 1, snr_db, 10, 1)


class TestSynthesis:
    def test_deterministic(self):
        s = Scenario(3, 6, 1, 0.0, 100, 42)
        a = synthesize_observation(s, "H1", 7)
        b = synthesize_observation(s, "H1", 7)
        assert np.array_equal(a.entries, b.entries)

    def test_trials_and_hypotheses_are_independent_streams(self):
        s = Scenario(3, 6, 1, 0.0, 100, 42)
        y0 = synthesize_observation(s, "H0", 3).entries
        y1 = synthesize_observation(s, "H1", 3).entries
        y0b = synthesize_observation(s, "H0", 4).entries
        assert not np.array_equal(y0, y1)
        assert not np.array_equal(y0, y0b)

    def test_block_matches_scalar_bit_exact(self):
        s = Scenario(2, 5, 2, -2.0, 64, 9)
        block = _synthesize_block(s, 1, 10, 20)
        for i in range(20):
            single = synthesize_observation(s, "H1", 10 + i)
            assert np.array_equal(block[i], single.entries)

    def test_shape_and_bounds(self):
        s = Scenario(4, 8, 1, 0.0, 10, 5)
        y = synthesize_observation(s, "H0", 0)
        assert y.entries.shape == (4, 8)
        with pytest.raises(InputError):
            synthesize_observation(s, "H2", 0)
        with pytest.raises(InputError):
            synthesize_observation(s, "H0", 10)
        with pytest.raises(InputError):
            synthesize_observation(s, "H0", -1)
        for bad in (1.7, np.nan, "1"):
            with pytest.raises(InputError, match="whole number"):
                synthesize_observation(s, "H1", bad)
        one = synthesize_observation(s, "H1", 1).entries
        for good in (1.0, np.int64(1)):
            assert np.array_equal(synthesize_observation(s, "H1", good).entries, one)

    def test_noise_power_calibration(self):
        # Under H0 the mean per-entry energy estimates sigma2.
        s = Scenario(2, 4, 1, -3.0, 4000, 2718)
        block = _synthesize_block(s, 0, 0, s.n_trials)
        per_trial = (np.abs(block) ** 2).mean(axis=(1, 2))
        mean = per_trial.mean()
        se = per_trial.std(ddof=1) / math.sqrt(s.n_trials)
        assert abs(mean - s.sigma2) < 3 * se

    def test_signal_power_calibration(self):
        # Under H1 with unit-power sources the per-entry energy is sigma2 + 1
        # regardless of the source count (the channel is scaled by 1/sqrt(m)).
        for m in (1, 2):
            s = Scenario(3, 6, m, 0.0, 4000, 99)
            block = _synthesize_block(s, 1, 0, s.n_trials)
            per_trial = (np.abs(block) ** 2).mean(axis=(1, 2))
            mean = per_trial.mean()
            se = per_trial.std(ddof=1) / math.sqrt(s.n_trials)
            assert abs(mean - (s.sigma2 + 1.0)) < 4 * se


def _fresh_stream(seed, trial, role, hyp):
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, trial, role, hyp]))


def _fresh_normals(gen, shape):
    z = gen.standard_normal(size=(2,) + shape)
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def _reference_observation(s, hyp, trial):
    """One trial built the way the streams are defined: a fresh Philox per
    (trial, role, hypothesis) counter, roles 0/1/2 = noise/channel/symbols."""
    n, L, m = s.n_sensors, s.n_snapshots, s.n_sources
    noise = math.sqrt(s.sigma2) * _fresh_normals(_fresh_stream(s.seed, trial, 0, hyp), (n, L))
    if hyp == 0:
        return noise
    h = _fresh_normals(_fresh_stream(s.seed, trial, 1, hyp), (n, m)) / math.sqrt(m)
    return h @ _fresh_normals(_fresh_stream(s.seed, trial, 2, hyp), (m, L)) + noise


class TestStreamReference:
    """Synthesis and the MC oracle against generators built afresh in the test.

    The library re-points one generator per block; these pin its bits to the
    stream definition rather than to the library itself.
    """

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("hyp", [0, 1])
    def test_block_and_scalar_match_fresh_streams(self, hyp, m):
        s = Scenario(3, 5, m, -2.0, 2200, 77)
        start, count = 37, 2100          # more trials than one ROC chunk
        block = _synthesize_block(s, hyp, start, count)
        assert block.shape == (count, 3, 5)
        for i in range(count):
            assert block[i].tobytes() == _reference_observation(s, hyp, start + i).tobytes()
        label = "H1" if hyp else "H0"
        for trial in (0, 38, s.n_trials - 1):
            ref = _reference_observation(s, hyp, trial).tobytes()
            assert _synthesize_block(s, hyp, trial, 1)[0].tobytes() == ref
            assert synthesize_observation(s, label, trial).entries.tobytes() == ref

    def test_mc_oracle_matches_fresh_chunk_streams(self):
        y = synthesize_observation(Scenario(3, 5, 1, 0.0, 4, 11), "H1", 1)
        n_samples, seed = mc._ORACLE_CHUNK + 3000, 21     # two chunks
        w_mat = y.entries @ y.entries.conj().T
        lls = []
        for c, count in enumerate((mc._ORACLE_CHUNK, 3000)):
            h = _fresh_normals(_fresh_stream(seed, c, 0, mc._ORACLE_HYP_CODE), (count, 3, 1))
            lls.append(_gaussian_loglikes(w_mat, 5, 1.0, h))
        lls = np.concatenate(lls)
        scaled = np.exp(lls - lls.max())
        est, se = mc_signal_likelihood_oracle(y, 1, 1.0, n_samples, seed)
        assert est.log_magnitude == lls.max() + math.log(scaled.mean())
        assert se == scaled.std(ddof=1) / (scaled.mean() * math.sqrt(n_samples))


class TestGaussianLoglikes:
    @staticmethod
    def _eigh_reference(w, L, sigma2, h):
        # Eigendecompose the full N x N covariance C = H H^H + sigma2 I.
        n = h.shape[1]
        cov = h @ h.conj().transpose(0, 2, 1) + sigma2 * np.eye(n)
        eigvals, eigvecs = np.linalg.eigh(cov)
        quad = np.einsum("bji,jk,bki->bi", eigvecs.conj(), w, eigvecs).real
        return (-n * L * math.log(math.pi) - L * np.log(eigvals).sum(axis=1)
                - (quad / eigvals).sum(axis=1))

    def test_matches_eigh_reference(self):
        rng = np.random.default_rng(17)
        n, L, b, sigma2 = 4, 7, 50, 0.7
        y = rng.standard_normal((n, L)) + 1j * rng.standard_normal((n, L))
        w = y @ y.conj().T

        def draws(m):
            return (rng.standard_normal((b, n, m))
                    + 1j * rng.standard_normal((b, n, m))) / np.sqrt(2 * m)

        # m = 5 > N = 4: G is 5 x 5 but H^H H has rank 4.
        cases = [(f"m={m}", sigma2, draws(m)) for m in (1, 2, 3, 5)]
        # Two near-collinear columns under little noise: G is ill-conditioned.
        h = draws(2)
        h[:, :, 1] = h[:, :, 0] * (1.0 + 1e-6j) + 1e-6 * h[:, :, 1]
        cases.append(("near-collinear", 1e-3, h))
        for label, s2, h in cases:
            got = _gaussian_loglikes(w, L, s2, h)
            assert got == pytest.approx(self._eigh_reference(w, L, s2, h), rel=1e-11), label

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_leaves_channels_untouched(self, m):
        # At m = 1 the (m, B, N) transpose of h_block is a view of it, so an
        # in-place elimination on it would write into the caller's array.
        rng = np.random.default_rng(m)
        y = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        h = rng.standard_normal((40, 4, m)) + 1j * rng.standard_normal((40, 4, m))
        before = h.tobytes()
        _gaussian_loglikes(y @ y.conj().T, 6, 0.5, h)
        assert h.tobytes() == before


class TestMcOracle:
    def _observation(self):
        s = Scenario(2, 4, 1, 0.0, 10, 314)
        return synthesize_observation(s, "H1", 2)

    def test_deterministic(self):
        y = self._observation()
        a, se_a = mc_signal_likelihood_oracle(y, 1, 1.0, 2000, seed=5)
        b, se_b = mc_signal_likelihood_oracle(y, 1, 1.0, 2000, seed=5)
        assert a.log_magnitude == b.log_magnitude
        assert se_a == se_b

    def test_error_scales_as_inverse_sqrt(self):
        y = self._observation()
        _, se_small = mc_signal_likelihood_oracle(y, 1, 1.0, 10_000, seed=8)
        _, se_big = mc_signal_likelihood_oracle(y, 1, 1.0, 1_000_000, seed=8)
        assert se_small / se_big == pytest.approx(10.0, rel=0.2)

    def test_agrees_with_closed_form(self):
        y = self._observation()
        spec = gram_eigenvalues(y)
        closed = log_simo_signal_likelihood(spec, 1.0).log_magnitude
        est, se = mc_signal_likelihood_oracle(y, 1, 1.0, 200_000, seed=21)
        assert abs(closed - est.log_magnitude) < 3 * se

    @pytest.mark.parametrize("n, L, m", [(3, 5, 3), (4, 7, 4), (5, 8, 5)])
    def test_agrees_with_closed_form_at_three_or_more_sources(self, n, L, m):
        # The other m >= 3 checks share D's layout and the prefactor with the
        # double path; the channel-averaging oracle shares neither.  The bound
        # is criterion 4's, |z| <= 3.
        rng = np.random.default_rng(303)
        for i in range(4):
            sigma2 = float(rng.uniform(0.6, 1.8))
            s = Scenario(n, L, m, -10.0 * math.log10(sigma2), 1, int(rng.integers(2 ** 32)))
            y = synthesize_observation(s, "H1", 0)
            closed = log_mimo_signal_likelihood(gram_eigenvalues(y), m, sigma2).log_magnitude
            est, se = mc_signal_likelihood_oracle(y, m, sigma2, 2_000_000, seed=600 + i)
            z = (closed - est.log_magnitude) / se
            assert abs(z) <= 3.0, (i, sigma2, z)

    def test_validation(self):
        y = self._observation()
        with pytest.raises(DomainError):
            mc_signal_likelihood_oracle(y, 0, 1.0, 2000, seed=1)
        with pytest.raises(DomainError):
            mc_signal_likelihood_oracle(y, 1, 1.0, 10, seed=1)
        with pytest.raises(DomainError):
            mc_signal_likelihood_oracle(y, 1, -1.0, 2000, seed=1)


class TestExactSingleSensorOracle:
    def test_known_value_at_origin(self):
        # With L=1, sigma2=1, x=0 the integral reduces to (e/pi) E1(1).
        expected = math.log(math.e / math.pi * sps.exp1(1.0))
        assert _exact_n1_log(0.0, 1.0, 1) == pytest.approx(expected, abs=1e-10)

    def test_matches_closed_form(self):
        for x1, sigma2, L in [(0.5, 1.0, 2), (3.0, 0.8, 4), (12.0, 1.5, 8), (0.0, 1.0, 3)]:
            spec = EigenSpectrum([x1], L)
            closed = log_simo_signal_likelihood(spec, sigma2).log_magnitude
            assert _exact_n1_log(x1, sigma2, L) == pytest.approx(closed, abs=1e-8)

    def test_linear_domain_wrapper(self):
        assert exact_n1_likelihood_oracle(1.0, 1.0, 2) == pytest.approx(
            math.exp(_exact_n1_log(1.0, 1.0, 2)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            _exact_n1_log(-1.0, 1.0, 2)
        with pytest.raises(DomainError):
            _exact_n1_log(1.0, 0.0, 2)
        with pytest.raises(DomainError):
            _exact_n1_log(1.0, 1.0, 0)


class TestRunRoc:
    def _scenario(self, trials=400):
        return Scenario(2, 4, 1, 0.0, trials, 7)

    def test_energy_curve_shape(self):
        curve = run_roc(self._scenario(), EnergyDetector())
        assert curve.thresholds[0] == math.inf
        assert curve.thresholds[-1] == -math.inf
        assert np.all(np.diff(curve.thresholds) <= 0)
        # thresholds descend, so both rates ascend along the arrays
        assert np.all(np.diff(curve.far) >= 0)
        assert np.all(np.diff(curve.cdr) >= 0)
        assert curve.far[0] == 0.0 and curve.cdr[0] == 0.0
        assert curve.far[-1] == 1.0 and curve.cdr[-1] == 1.0
        assert curve.n_noise_trials == 400
        assert curve.n_failed_noise == 0

    def test_curve_is_deterministic(self):
        a = run_roc(self._scenario(), EnergyDetector())
        b = run_roc(self._scenario(), EnergyDetector())
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.far, b.far)
        assert np.array_equal(a.cdr, b.cdr)

    def test_detector_beats_chance(self):
        # At 0 dB this scenario is easy; both detectors must sit above the
        # diagonal in the interior of the curve.
        for det in (EnergyDetector(), BayesDetector(_prior())):
            curve = run_roc(self._scenario(), det)
            interior = (curve.far > 0.05) & (curve.far < 0.95)
            assert np.all(curve.cdr[interior] > curve.far[interior])

    def test_explicit_threshold_endpoints(self):
        curve = run_roc(self._scenario(100), EnergyDetector(),
                        thresholds=np.array([-math.inf, math.inf]))
        assert list(curve.thresholds) == [math.inf, -math.inf]
        assert list(curve.far) == [0.0, 1.0]
        assert list(curve.cdr) == [0.0, 1.0]

    def test_nan_threshold_is_rejected(self):
        with pytest.raises(InputError, match="NaN"):
            run_roc(self._scenario(100), EnergyDetector(),
                    thresholds=np.array([np.nan, 0.0]))

    def test_explicit_thresholds_match_manual_counts(self):
        s = self._scenario(200)
        blocks = _synthesize_block(s, 0, 0, 200)
        vals = _gram_eigenvalues_batch(blocks)
        stats = np.log(vals.sum(axis=1) / (s.n_snapshots * s.n_sensors * s.sigma2))
        thr = float(np.median(stats))
        curve = run_roc(s, EnergyDetector(), thresholds=np.array([thr]))
        assert curve.far[0] == pytest.approx((stats > thr).mean())

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(mc, "_ROC_CHUNK", 64)
        s = Scenario(2, 4, 1, 0.0, 300, 13)
        det = BayesDetector(_prior())
        serial = run_roc(s, det, n_threads=1)
        threaded = run_roc(s, det, n_threads=2)
        assert np.array_equal(serial.thresholds, threaded.thresholds)
        assert np.array_equal(serial.far, threaded.far)
        assert np.array_equal(serial.cdr, threaded.cdr)

    def test_escalated_rows_equal_scalar_calls(self, monkeypatch):
        # Four sources on four sensors at sigma2 = 10^1.2 cancel past the
        # double-precision limit (12.4 to 13.4 digits), so all 6 rows go to
        # multiprecision; with two-trial chunks they sit on both sides of a
        # chunk boundary.
        monkeypatch.setattr(mc, "_ROC_CHUNK", 2)
        s = Scenario(4, 8, 1, 0.0, 3, 11)
        prior = PriorConfig(ExactCount(4), ExactNoise(10 ** 1.2))
        n_extended = 0
        for code, hyp in enumerate(("H0", "H1")):
            stats, n_failed = mc._stats_for_hypothesis(s, code, BayesDetector(prior), 1)
            assert n_failed == 0
            for i in range(s.n_trials):
                ref = detection_log_ratio(gram_eigenvalues(synthesize_observation(s, hyp, i)),
                                          prior)
                assert stats[i] == ref.log_ratio.log_magnitude, (hyp, i)
                n_extended += ref.extended_used
        assert n_extended == 6

    def test_escalation_on_two_roc_threads(self, monkeypatch):
        # The rows of test_escalated_rows_equal_scalar_calls, each chunk
        # escalating its own rows on one of two pool threads at once.
        monkeypatch.setattr(mc, "_ROC_CHUNK", 2)
        s = Scenario(4, 8, 1, 0.0, 3, 11)
        prior = PriorConfig(ExactCount(4), ExactNoise(10 ** 1.2))
        det = BayesDetector(prior)
        serial = run_roc(s, det, n_threads=1)
        threaded = run_roc(s, det, n_threads=2)
        for field in ("thresholds", "far", "cdr"):
            assert getattr(threaded, field).tobytes() == getattr(serial, field).tobytes()
        for code, hyp in enumerate(("H0", "H1")):
            stats, n_failed = mc._stats_for_hypothesis(s, code, det, 2)
            assert n_failed == 0
            for i in range(s.n_trials):
                ref = detection_log_ratio(gram_eigenvalues(synthesize_observation(s, hyp, i)),
                                          prior)
                assert stats[i] == ref.log_ratio.log_magnitude, (hyp, i)

    @pytest.mark.parametrize("snr_db, grid", [(-35.0, None), (-40.0, None),
                                              (-30.0, (25.0, 35.0, 11, "db"))])
    def test_low_snr_sweeps_have_no_failed_trials(self, snr_db, grid):
        # sigma2 = 1e3 to 1e4, so J is taken at x >= 1e3, where |g| at its
        # peak is in the thousands of nats.
        s = Scenario(4, 8, 1, snr_db, 64, 9)
        noise = NoiseGrid(*grid) if grid else ExactNoise(s.sigma2)
        curve = run_roc(s, BayesDetector(PriorConfig(ExactCount(1), noise)))
        assert curve.n_failed_noise == curve.n_failed_signal == 0

    @staticmethod
    def _low_snr_rows():
        # The H1 rows of the -35 dB known-noise sweep whose ln C is furthest
        # from extended precision: 9.1 to 9.95 digits cancel, none escalates.
        s = Scenario(4, 8, 1, -35.0, 64, 9)
        prior = PriorConfig(ExactCount(1), ExactNoise(s.sigma2))
        for i in (9, 23, 25, 26, 63):
            vals = gram_eigenvalues(synthesize_observation(s, "H1", i))
            std = detection_log_ratio(vals, prior)
            ext = detection_log_ratio(vals, prior, precision="extended")
            yield i, std, abs(std.log_ratio.log_magnitude - ext.log_ratio.log_magnitude)

    def test_low_snr_rows_within_amplified_rounding(self):
        # Each term's log carries about 1e-12 of rounding (log J is near
        # -3,200 there), and the reported cancellation amplifies it.
        for i, std, err in self._low_snr_rows():
            assert not std.extended_used, i
            assert err <= 10 ** std.cancellation.cancellation_digits * 1e-12, (i, err)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: rows that cancel 9 to 10 "
                       "digits are up to 1e-3 off in ln C and are not escalated")
    def test_low_snr_rows_match_extended_precision(self):
        for i, std, err in self._low_snr_rows():
            assert err <= 1e-8, (i, err)

    def test_small_failure_fraction_is_excluded(self, monkeypatch):
        real_fast = mc._batch_fast_stats

        def poisoned(vals, L, prior):
            stats, bad, n_pert = real_fast(vals, L, prior)
            stats[0] = np.nan
            bad = bad.copy()
            bad[0] = True
            return stats, bad, n_pert

        def failing_retry(vals, L, prior, stats, rows):
            return np.ones(len(rows), dtype=bool), 0

        monkeypatch.setattr(mc, "_batch_fast_stats", poisoned)
        monkeypatch.setattr(mc, "_retry_rows_scalar", failing_retry)
        s = Scenario(2, 4, 1, 0.0, 1000, 3)
        curve = run_roc(s, BayesDetector(_prior()))
        assert curve.n_failed_noise == 1
        assert curve.n_failed_signal == 1
        assert curve.n_noise_trials == 999
        assert curve.n_signal_trials == 999

    def test_excessive_failures_raise(self, monkeypatch):
        def all_bad(vals, L, prior):
            n = vals.shape[0]
            return np.full(n, np.nan), np.ones(n, dtype=bool), 0

        def failing_retry(vals, L, prior, stats, rows):
            return np.ones(len(rows), dtype=bool), 0

        monkeypatch.setattr(mc, "_batch_fast_stats", all_bad)
        monkeypatch.setattr(mc, "_retry_rows_scalar", failing_retry)
        s = Scenario(2, 4, 1, 0.0, 50, 3)
        with pytest.raises(NumericError):
            run_roc(s, BayesDetector(_prior()))

    def test_validation(self):
        s = self._scenario(50)
        with pytest.raises(DomainError):
            run_roc(s, "energy")
        with pytest.raises(DomainError):
            run_roc(s, EnergyDetector(), n_threads=0)
        with pytest.raises(InputError):
            run_roc(s, EnergyDetector(), thresholds="all")
        with pytest.raises(InputError):
            run_roc(s, EnergyDetector(), thresholds=np.array([]))


class TestRocMetrics:
    def _hand_curve(self):
        s = Scenario(2, 4, 1, 0.0, 10, 1)
        return RocCurve(
            thresholds=np.array([2.0, 1.0]),
            far=np.array([0.1, 0.5]),
            cdr=np.array([0.7, 0.9]),
            n_noise_trials=10, n_signal_trials=10,
            n_failed_noise=0, n_failed_signal=0,
            detector_label="energy", scenario=s)

    def test_linear_interpolation(self):
        point = roc_metrics(self._hand_curve(), 0.3)
        assert point.cdr == pytest.approx(0.8)
        assert not point.clipped

    def test_nearest_point_and_stderr(self):
        point = roc_metrics(self._hand_curve(), 0.15)
        assert point.nearest_far == 0.1
        assert point.nearest_cdr == 0.7
        assert point.nearest_threshold == 2.0
        assert point.stderr == pytest.approx(math.sqrt(0.7 * 0.3 / 10))

    def test_clipping_flags(self):
        assert roc_metrics(self._hand_curve(), 0.05).clipped
        assert roc_metrics(self._hand_curve(), 0.7).clipped
        assert not roc_metrics(self._hand_curve(), 0.4).clipped

    def test_target_validation(self):
        curve = self._hand_curve()
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                roc_metrics(curve, bad)
