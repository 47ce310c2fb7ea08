"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Each test gathers all of its subchecks first, records the criterion verdict
through the shared reporter, and only then asserts, so the summary always
carries one line per criterion.  Monte Carlo scenarios reuse module-scoped
curves where two criteria share them.
"""

import math
import time

import numpy as np
import pytest

from eigensense import (
    BayesDetector,
    EigenSpectrum,
    EnergyDetector,
    ExactCount,
    ExactNoise,
    NoiseGrid,
    PriorConfig,
    Scenario,
    detection_log_ratio,
    energy_statistic,
    gram_eigenvalues,
    j_integral,
    j_via_bessel,
    lemma1_determinant,
    log_mimo_signal_likelihood,
    log_simo_signal_likelihood,
    mc_signal_likelihood_oracle,
    roc_metrics,
    run_roc,
    source_count_posteriors,
    synthesize_observation,
    write_roc_csv,
)
from eigensense.montecarlo import _exact_n1_log, _synthesize_block
from eigensense.spectra import _gram_eigenvalues_batch
from mp_reference import mp_one_source_logpdf, mp_two_source_logpdf


def _cdr_at(curve, far_target: float) -> float:
    return float(np.interp(far_target, curve.far, curve.cdr))


def _far_grid(curves, lo: float, hi: float) -> np.ndarray:
    pts = np.unique(np.concatenate([c.far for c in curves] + [np.array([lo, hi])]))
    return pts[(pts >= lo) & (pts <= hi)]


def _random_spectrum(rng, n, L, sigma2):
    """A realistic signal-bearing spectrum plus its generating matrix."""
    s = Scenario(n, L, 1, -10.0 * math.log10(sigma2), 1, int(rng.integers(2 ** 32)))
    y = synthesize_observation(s, "H1", 0)
    return y, gram_eigenvalues(y)


@pytest.fixture(scope="module")
def roc_single_source():
    s = Scenario(4, 8, 1, -3.0, 100_000, 2024)
    prior = PriorConfig(ExactCount(1), ExactNoise(s.sigma2))
    started = time.perf_counter()
    bayes = run_roc(s, BayesDetector(prior))
    energy = run_roc(s, EnergyDetector())
    return {"bayes": bayes, "energy": energy,
            "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="module")
def roc_two_source():
    s = Scenario(4, 8, 2, -3.0, 100_000, 2024)
    prior = PriorConfig(ExactCount(2), ExactNoise(s.sigma2))
    started = time.perf_counter()
    bayes = run_roc(s, BayesDetector(prior))
    energy = run_roc(s, EnergyDetector())
    return {"bayes": bayes, "energy": energy,
            "elapsed": time.perf_counter() - started}


def test_criterion_1_special_function_identities(criterion):
    started = time.perf_counter()
    worst = 0.0
    for k in range(-12, 7):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            for y in (0.1, 1.0, 10.0, 100.0):
                log_quad = j_integral(k, x, y).log_magnitude
                bessel = j_via_bessel(k, x, y)
                worst = max(worst, abs(math.expm1(log_quad - math.log(bessel))))
    # At y=0 the integral is an upper incomplete gamma with exact values.
    dev0 = abs(math.exp(j_integral(0, 1.0, 0.0).log_magnitude) - math.exp(-1.0))
    dev1 = abs(math.exp(j_integral(1, 1.0, 0.0).log_magnitude) - 2.0 * math.exp(-1.0))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-8 and dev0 <= 1e-10 and dev1 <= 1e-10 and elapsed < 10.0
    criterion("criterion 1 special-function identities", ok,
              f"worst rel dev {worst:.2e} (<=1e-8), gamma checks "
              f"{max(dev0, dev1):.2e} (<=1e-10), {elapsed:.1f}s (<10s)")
    assert ok


def test_criterion_2_determinant_identity(criterion):
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for n in range(2, 7):
        done = 0
        while done < 100:
            a = np.sort(rng.uniform(0.1, 5.0, size=n))
            if n > 1 and np.min(np.diff(a)) < 0.05:
                continue
            b = float(rng.uniform(0.5, 2.5))
            det = lemma1_determinant(a, b)
            closed = float(b ** (-n * (n - 1)) * np.prod(
                [a[j] - a[i] for i in range(n) for j in range(i + 1, n)]))
            worst = max(worst, abs(det - closed) / abs(closed))
            done += 1
    # The 2x2 case collapses to (a2 - a1) / b^2.
    worst2 = 0.0
    for a1, a2, b in ((1.0, 2.5, math.sqrt(2.0)), (0.3, 4.0, 1.7), (2.0, 2.2, 0.9)):
        det = lemma1_determinant(np.array([a1, a2]), b)
        worst2 = max(worst2, abs(det - (a2 - a1) / b ** 2))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-6 and worst2 <= 1e-12 and elapsed < 5.0
    criterion("criterion 2 determinant identity", ok,
              f"worst rel residual {worst:.2e} (<=1e-6), 2x2 abs dev "
              f"{worst2:.2e} (<=1e-12), {elapsed:.1f}s (<5s)")
    assert ok


def test_criterion_3_single_source_oracles(criterion):
    started = time.perf_counter()
    # (a) single sensor against deterministic quadrature
    rng = np.random.default_rng(33)
    worst_quad = 0.0
    for L in (2, 4, 8):
        for _ in range(50):
            x1 = float(rng.uniform(0.0, 15.0))
            sigma2 = float(rng.uniform(0.3, 2.5))
            closed = log_simo_signal_likelihood(
                EigenSpectrum([x1], L), sigma2).log_magnitude
            oracle = _exact_n1_log(x1, sigma2, L)
            worst_quad = max(worst_quad, abs(math.expm1(closed - oracle)))

    # (b) N=2 and N=3 against the Monte Carlo channel-average oracle
    worst_z = 0.0
    for n in (2, 3):
        L = n + 2
        for i in range(10):
            sigma2 = float(rng.uniform(0.6, 1.8))
            y, spec = _random_spectrum(rng, n, L, sigma2)
            closed = log_simo_signal_likelihood(spec, sigma2).log_magnitude
            est, se = mc_signal_likelihood_oracle(y, 1, sigma2, 10_000_000,
                                                  seed=9000 + 20 * n + i)
            worst_z = max(worst_z, abs(closed - est.log_magnitude) / se)
    elapsed = time.perf_counter() - started

    ok = worst_quad <= 1e-6 and worst_z <= 3.0 and elapsed < 900.0
    criterion("criterion 3 one-source oracle equivalence", ok,
              f"worst quadrature rel dev {worst_quad:.2e} (<=1e-6), worst MC z "
              f"{worst_z:.2f} (<=3), {elapsed:.0f}s (<900s)")
    assert ok


def test_criterion_4_two_source_oracles(criterion):
    started = time.perf_counter()
    rng = np.random.default_rng(44)

    # MC oracle agreement at M=2
    worst_z = 0.0
    for i in range(10):
        sigma2 = float(rng.uniform(0.6, 1.8))
        y, spec = _random_spectrum(rng, 3, 5, sigma2)
        closed = log_mimo_signal_likelihood(spec, 2, sigma2).log_magnitude
        est, se = mc_signal_likelihood_oracle(y, 2, sigma2, 10_000_000,
                                              seed=7000 + i)
        worst_z = max(worst_z, abs(closed - est.log_magnitude) / se)

    # M=1 reduction: the m-source sum at m=1 against the independent
    # one-source expression
    worst_red = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        L = n + int(rng.integers(1, 4))
        sigma2 = float(rng.uniform(0.4, 2.0))
        _, spec = _random_spectrum(rng, n, L, sigma2)
        got = log_mimo_signal_likelihood(spec, 1, sigma2).log_magnitude
        ref = mp_one_source_logpdf(spec.values, L, sigma2)
        worst_red = max(worst_red, abs(got - ref))

    # general-M assembly against the explicit two-source expression
    worst_expl = 0.0
    done = 0
    while done < 5:
        n = int(rng.integers(3, 5))
        L = n + int(rng.integers(2, 4))
        vals = np.sort(rng.uniform(0.5, 9.0, size=n))[::-1]
        if np.min(-np.diff(vals)) < 0.1:
            continue
        sigma2 = float(rng.uniform(0.6, 1.6))
        got = log_mimo_signal_likelihood(EigenSpectrum(vals, L), 2, sigma2).log_magnitude
        ref = mp_two_source_logpdf(vals, L, sigma2)
        worst_expl = max(worst_expl, abs(math.expm1(got - ref)))
        done += 1
    elapsed = time.perf_counter() - started

    ok = (worst_z <= 3.0 and worst_red <= 1e-10 and worst_expl <= 1e-9
          and elapsed < 1200.0)
    criterion("criterion 4 two-source oracle equivalence", ok,
              f"worst MC z {worst_z:.2f} (<=3), M=1 reduction {worst_red:.2e} "
              f"(<=1e-10), explicit form {worst_expl:.2e} (<=1e-9), "
              f"{elapsed:.0f}s (<1200s)")
    assert ok


def test_criterion_5_roc_reproduction(criterion, roc_single_source):
    started = time.perf_counter()
    bayes = roc_single_source["bayes"]
    energy = roc_single_source["energy"]

    cdr_b = roc_metrics(bayes, 1e-3).cdr
    cdr_e = roc_metrics(energy, 1e-3).cdr
    gap = cdr_b - cdr_e

    grid = _far_grid([bayes, energy], 0.3, 1.0)
    diff = np.interp(grid, bayes.far, bayes.cdr) - np.interp(grid, energy.far, energy.cdr)
    high_far_dev = float(np.max(np.abs(diff)))
    elapsed = roc_single_source["elapsed"] + (time.perf_counter() - started)

    ok = gap >= 0.05 and high_far_dev <= 0.03 and elapsed < 1800.0
    criterion("criterion 5 ROC dominance at low FAR", ok,
              f"CDR gap at FAR=1e-3 {gap * 100:+.1f}pp (>=5pp), high-FAR dev "
              f"{high_far_dev * 100:.1f}pp (<=3pp), {elapsed:.0f}s (<1800s)")
    assert ok


def test_criterion_6_two_source_gap_narrowing(criterion, roc_single_source,
                                              roc_two_source):
    started = time.perf_counter()
    bayes2 = roc_two_source["bayes"]
    energy2 = roc_two_source["energy"]

    grid = _far_grid([bayes2, energy2], 1e-3, 1e-1)
    margin = (np.interp(grid, bayes2.far, bayes2.cdr)
              - np.interp(grid, energy2.far, energy2.cdr))
    min_margin = float(np.min(margin))

    cdr_m2 = roc_metrics(bayes2, 1e-2).cdr
    cdr_m1 = roc_metrics(roc_single_source["bayes"], 1e-2).cdr
    elapsed = roc_two_source["elapsed"] + (time.perf_counter() - started)

    ok = min_margin >= 0.0 and cdr_m2 < cdr_m1 and elapsed < 2700.0
    criterion("criterion 6 two-source gap narrowing", ok,
              f"min dominance margin {min_margin * 100:+.2f}pp (>=0), CDR at "
              f"FAR=1e-2 M=2 {cdr_m2:.3f} < M=1 {cdr_m1:.3f}, "
              f"{elapsed:.0f}s (<2700s)")
    assert ok


def test_criterion_7_noise_grid_robustness(criterion):
    started = time.perf_counter()
    s = Scenario(4, 8, 1, 0.0, 20_000, 2024)

    def curve_for(noise):
        prior = PriorConfig(ExactCount(1), noise)
        return run_roc(s, BayesDetector(prior))

    exact = curve_for(ExactNoise(1.0))
    short = curve_for(NoiseGrid(-2.5, 2.5, 6, "db"))
    large = curve_for(NoiseGrid(-5.0, 5.0, 11, "db"))
    wide = curve_for(NoiseGrid(-9.0, 9.0, 19, "db"))

    cdr_exact = roc_metrics(exact, 1e-2).cdr
    cdr_short = roc_metrics(short, 1e-2).cdr
    cdr_large = roc_metrics(large, 1e-2).cdr
    ordered = (cdr_exact >= cdr_short - 0.02) and (cdr_short >= cdr_large - 0.02)

    grid = _far_grid([large, wide], 1e-2, 1.0)
    dev = float(np.max(np.abs(np.interp(grid, large.far, large.cdr)
                              - np.interp(grid, wide.far, wide.cdr))))
    elapsed = time.perf_counter() - started

    ok = ordered and dev < 0.01 and elapsed < 1800.0
    criterion("criterion 7 noise-grid robustness", ok,
              f"CDR at FAR=1e-2 exact {cdr_exact:.3f} >= short {cdr_short:.3f} "
              f">= large {cdr_large:.3f} (2pp slack), wide-grid dev "
              f"{dev * 100:.2f}pp (<1pp), {elapsed:.0f}s (<1800s)")
    assert ok


def test_criterion_8_determinism_and_invariance(criterion, tmp_path):
    started = time.perf_counter()
    s = Scenario(4, 8, 1, 0.0, 2000, 77)
    prior = PriorConfig(ExactCount(1), ExactNoise(1.0))

    # Byte-identical reruns of the full sweep, arrays and CSV both.
    a = run_roc(s, BayesDetector(prior))
    b = run_roc(s, BayesDetector(prior))
    rerun_ok = (np.array_equal(a.thresholds, b.thresholds)
                and np.array_equal(a.far, b.far)
                and np.array_equal(a.cdr, b.cdr))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_roc_csv(pa, a)
    write_roc_csv(pb, b)
    rerun_ok = rerun_ok and pa.read_bytes() == pb.read_bytes()

    # Permutation invariance of every detector statistic.
    vals = np.array([6.2, 3.1, 1.4, 0.2])
    perm = vals[[2, 0, 3, 1]].copy()
    grid = NoiseGrid(-3.0, 3.0, 4, "db")
    perm_ok = True
    for noise in (ExactNoise(1.0), grid):
        p = PriorConfig(ExactCount(1), noise)
        x1 = detection_log_ratio(EigenSpectrum(vals, 9), p)
        x2 = detection_log_ratio(EigenSpectrum(perm, 9), p)
        perm_ok = perm_ok and x1.log_ratio.log_magnitude == x2.log_ratio.log_magnitude
    e1 = energy_statistic(EigenSpectrum(vals, 9), 1.0)
    e2 = energy_statistic(EigenSpectrum(perm, 9), 1.0)
    perm_ok = perm_ok and e1.log_ratio.log_magnitude == e2.log_ratio.log_magnitude
    c1 = source_count_posteriors(EigenSpectrum(vals, 9), 1.0, 2)
    c2 = source_count_posteriors(EigenSpectrum(perm, 9), 1.0, 2)
    perm_ok = perm_ok and c1.probabilities == c2.probabilities

    # The H0 energy statistic is calibrated: mean 1 within 3 standard errors.
    s0 = Scenario(4, 8, 1, -3.0, 10_000, 555)
    blocks = _synthesize_block(s0, 0, 0, s0.n_trials)
    evals = _gram_eigenvalues_batch(blocks)
    stats = evals.sum(axis=1) / (s0.n_snapshots * s0.n_sensors * s0.sigma2)
    mean = float(stats.mean())
    se = float(stats.std(ddof=1) / math.sqrt(s0.n_trials))
    mean_ok = abs(mean - 1.0) < 3 * se
    elapsed = time.perf_counter() - started

    ok = rerun_ok and perm_ok and mean_ok and elapsed < 120.0
    criterion("criterion 8 determinism and invariance", ok,
              f"reruns byte-identical {rerun_ok}, permutation invariant "
              f"{perm_ok}, H0 energy mean {mean:.4f} within 3se ({3 * se:.4f}), "
              f"{elapsed:.0f}s (<120s)")
    assert ok
