"""Unit tests for signed log arithmetic and the J / kappa / determinant kernels."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from eigensense import (
    CancellationReport,
    DomainError,
    EigensenseError,
    NumericError,
    SignedLog,
    j_integral,
    j_via_bessel,
    kappa,
    lemma1_determinant,
    signed_log_sum,
)
from eigensense.special import (
    _GL_PANEL,
    _GL_S,
    _J_BLOCK_ROWS,
    _TAIL_NATS,
    _g_log_integrand,
    _log_j_batch,
    _log_j_segment_mp,
    _newton_cut,
    _peak_t,
    _shifted_g,
    _side_sums,
    _signed_lse_rows,
)
from mp_reference import mp_j


def _one_group(k, xs, ys):
    """_log_j_batch on one group, order k, grid xs and rows ys: a (P, n) table."""
    return _log_j_batch(np.array([k], dtype=float), np.reshape(xs, (-1, 1)),
                        np.reshape(ys, (1, -1)))[:, 0]


# Lower-limit grids for one group of _log_j_batch, by what they exercise.
_GRID_CASES = {
    # Grid points below and above the peaks: some pairs share their row's
    # upper side, the others integrate from ln x.
    "straddle": (-5, np.geomspace(0.3, 30.0, 11), np.geomspace(1e-3, 1e3, 41)),
    # y = 0 rows: at k + 1 <= 0 the peak is on ln x at every grid point.
    "y0_k-1": (-1, np.geomspace(0.05, 20.0, 7),
               np.concatenate([[0.0, 0.0], np.geomspace(1e-6, 50, 9)])),
    "y0_k2": (2, np.geomspace(0.05, 20.0, 7), np.concatenate([[0.0], np.geomspace(1e-6, 50, 9)])),
    # y far above x: the left tail falls 60 nats below the peak before ln x,
    # so those pairs solve for a lower cut and the others do not.
    "lower_cut": (-6, np.array([0.5, 1.0, 2.0, 40.0]), np.geomspace(10.0, 1e6, 30)),
    # x < 0.05: sides of several panels, above and below the peak.
    "small_x": (-1, np.geomspace(1e-30, 1e-2, 6),
                np.concatenate([[0.0], np.geomspace(1e-30, 1.0, 20)])),
    "small_x_k-12": (-12, np.geomspace(1e-10, 1e-2, 5), np.geomspace(1e-12, 1e-3, 12)),
}


def _random_points(n=300, seed=20261020):
    """n seeded (k, x, y): integer k in [-12, 6], x log-uniform on
    [1e-30, 1e6], y = 0 with probability 0.1, else log-uniform on
    [1e-30, 1e20]; y = 0 is skipped for k <= -1, which the fixed 40-digit
    grids hold at k = -12, -5 and -1.  Returns (k, x, y) arrays."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        k = float(rng.integers(-12, 7))
        x = math.exp(rng.uniform(math.log(1e-30), math.log(1e6)))
        y = 0.0 if rng.random() < 0.1 else math.exp(rng.uniform(math.log(1e-30), math.log(1e20)))
        if not (y == 0.0 and k <= -1):
            points.append((k, x, y))
    return tuple(np.array(col) for col in zip(*points))


def _calls_on_test_points(monkeypatch, name, fn):
    """The positional argument tuple of each call the J kernel makes to its
    helper `name` (whose function is fn) on the grid cases and the random
    points; keyword arguments (_side_sums' orders) are passed on unrecorded."""
    calls = []
    monkeypatch.setattr(f"eigensense.special.{name}",
                        lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    for k, xs, ys in _GRID_CASES.values():
        _one_group(k, xs, ys)
    ks, xs, ys = _random_points()
    _log_j_batch(ks, xs[None, :], ys[:, None])
    monkeypatch.undo()
    return calls


def _shared_window_points(n=75, seed=20261022):
    """n seeded points of each regime a component's shared window meets, and
    one named one: (k0, x, y, orders) arrays, orders 2 to 4.

    - The detector regime: (N, L) in {(4, 8), (6, 9), (8, 16), (16, 32)},
      m = orders uniform in 2..4, sigma2 log-uniform on [10^-1.5, 10^3.5] and
      an eigenvalue sigma2 L 10^U[-1, 2]; k0 = N - L - 1, x = m sigma2 and
      y = m times the eigenvalue.
    - The wide grid: integer k0 in [-12, 6], x log-uniform on [1e-3, 1e6],
      y on [1e-3, 1e12].
    - k0 = -1, x = 0.0406, y = 0.0028 at 4 orders: the orders' peaks lie far
      apart and e^{o v} grows across a side that ends in the wall of e^-t;
      with panels of 8 the top orders were 18 and 442 times J's tolerance.
    """
    rng = np.random.default_rng(seed)
    shapes = [(4, 8), (6, 9), (8, 16), (16, 32)]
    points = []
    for _ in range(n):
        n_s, L = shapes[rng.integers(len(shapes))]
        m = int(rng.integers(2, 5))
        s2 = 10.0 ** rng.uniform(-1.5, 3.5)
        points.append((n_s - L - 1.0, m * s2, m * s2 * L * 10.0 ** rng.uniform(-1.0, 2.0), m))
    for _ in range(n):
        x, y = (math.exp(rng.uniform(math.log(lo), math.log(hi))) for lo, hi in ((1e-3, 1e6),
                                                                                 (1e-3, 1e12)))
        points.append((float(rng.integers(-12, 7)), x, y, int(rng.integers(2, 5))))
    points.append((-1.0, 0.040610490081497724, 0.0027964875465518995, 4))
    k0, x, y, orders = (np.array(col) for col in zip(*points))
    return k0, x, y, orders.astype(int)


# Edges of the double range for the order, the lower limit and y.
_EXTREME_K = (1e300, -1e300, 1e20, -1e20, 1e6, -1e6, -2000.0, 0.0)
_EXTREME_X = (5e-324, 1e-300, 1e-30, 1.0, 1e30, 1e300, 1.7e308)
_EXTREME_Y = (0.0, 5e-324, 1.0, 1e20, 1e100, 1e300, 1.7e308)


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

    def test_zero_term_at_minus_inf_is_dropped(self):
        total, _ = signed_log_sum([SignedLog(1, 0.0), SignedLog(-1, -math.inf)])
        assert total == SignedLog(1, 0.0)

    @pytest.mark.parametrize("terms", [[SignedLog(1, math.inf)],
                                       [SignedLog(1, math.nan), SignedLog(1, 0.0)]],
                             ids=["inf", "nan"])
    def test_non_finite_term_raises(self, terms):
        with pytest.raises(DomainError, match=re.escape(str(terms[0]))):
            signed_log_sum(terms)


class TestSignedRows:
    """_signed_lse_rows sums each row on its own, within the bound of an
    uncompensated sum."""

    # Terms per row: m = 1 and m = 2 at N = 4, m = 4 at N = 4, m = 3 at N = 6.
    @pytest.mark.parametrize("n_terms", [4, 24, 576, 720])
    def test_rows_are_local_and_bounded(self, n_terms):
        rng = np.random.default_rng(n_terms)
        rows, half = 4099, n_terms // 2
        # Each term has a partner of the other sign, 1e-10 to 1e-5 relatively
        # smaller, so every row cancels by more than four digits and the
        # rounding of recovering its total from log_mag is far below the bound.
        lm = rng.uniform(-30.0, 0.0, (rows, half))
        rel = 10.0 ** rng.uniform(-10.0, -5.0, (rows, half))
        logmags = np.concatenate([lm, lm + np.log1p(-rel)], axis=1) + rng.uniform(-5, 5, (rows, 1))
        signs = np.concatenate([np.ones((rows, half)), -np.ones((rows, half))], axis=1)
        order = rng.permuted(np.tile(np.arange(n_terms), (rows, 1)), axis=1)
        signs = np.take_along_axis(signs, order, axis=1)
        logmags = np.take_along_axis(logmags, order, axis=1)
        sign, log_mag, peak, digits = _signed_lse_rows(signs, logmags)
        assert np.all(digits > 4.0)
        eps = np.finfo(float).eps / 2
        for r in range(rows):
            alone = _signed_lse_rows(signs[r:r + 1], logmags[r:r + 1])
            assert [v[0] for v in alone] == [sign[r], log_mag[r], peak[r], digits[r]], r
            terms = signs[r] * np.exp(logmags[r] - peak[r])
            total = sign[r] * math.exp(log_mag[r] - peak[r])
            bound = (n_terms - 1) * eps * np.abs(terms).sum()
            assert abs(total - math.fsum(terms)) <= bound, r


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

    def test_reference_past_the_peak_at_large_x(self):
        # The peak lies below x = 1e4 and the integrand decays on a unit scale
        # above it; both precisions agree with the reference there.
        ref = float(mp.log(mp_j(-5, 1e4, 10.0)))
        for precision in ("standard", "extended"):
            got = j_integral(-5, 1e4, 10.0, precision=precision).log_magnitude
            assert got == pytest.approx(ref, rel=1e-12), precision

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
        batch = _one_group(-7, 0.5, ys)[0]
        for i, y in enumerate(ys):
            assert batch[i] == j_integral(-7, 0.5, float(y)).log_magnitude

    def test_batch_composition_independence(self):
        # splitting a batch must not change any element
        rng = np.random.default_rng(5)
        ys = rng.uniform(0.0, 20.0, 30)
        whole = _one_group(-4, 1.3, ys)
        parts = np.concatenate([_one_group(-4, 1.3, ys[:11]),
                                _one_group(-4, 1.3, ys[11:17]),
                                _one_group(-4, 1.3, ys[17:])], axis=1)
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("k, x, y_max", [(-4, 1.3, 20.0), (-12, 2511.9, 1e20),
                                             (0, 1e4, 1e12)])
    def test_each_row_alone_matches_the_batch(self, k, x, y_max):
        # Every split position at once: each y alone against the whole batch.
        ys = np.random.default_rng(5).uniform(0.0, y_max, 257)
        whole = _one_group(k, x, ys)
        alone = np.concatenate([_one_group(k, x, ys[i:i + 1]) for i in range(ys.size)], axis=1)
        assert whole.tobytes() == alone.tobytes()

    def test_rows_with_many_panels_match_alone(self):
        # At x = 1e-300 a side is cut into 1 to 87 panels, depending on y.
        # A batch pads each row to its longest row with zero-length panels,
        # which must leave the row's sum unchanged bit for bit.
        ys = np.concatenate([[0.0], 10.0 ** np.random.default_rng(1).uniform(-300, 2, 300)])
        whole = _one_group(-1, 1e-300, ys)
        alone = np.concatenate([_one_group(-1, 1e-300, ys[i:i + 1]) for i in range(ys.size)],
                               axis=1)
        assert whole.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("k, xs, ys", _GRID_CASES.values(), ids=_GRID_CASES.keys())
    def test_grid_point_matches_its_own_call(self, k, xs, ys):
        grid = _one_group(k, xs, ys)
        assert grid.shape == (xs.size, ys.size)
        for p, x in enumerate(xs):
            assert grid[p].tobytes() == _one_group(k, x, ys).tobytes(), x

    def test_grid_cases_reach_every_kind_of_pair(self):
        # Pairs whose peak lies above ln x (sharing the row's upper side),
        # pairs integrated from ln x, shared pairs with and without a lower
        # cut, and lower sides of several panels.
        seen = np.zeros(5, dtype=bool)
        for k, xs, ys in _GRID_CASES.values():
            ln_x = np.log(xs)[:, None]
            t = _peak_t(k + 1.0, ys)
            u_star = np.log(np.where(t > 0.0, t, np.nan))
            two = ln_x < u_star
            gmax = _g_log_integrand(np.where(two, u_star, ln_x), k + 1.0, ys)
            cut = two & (_g_log_integrand(ln_x, k + 1.0, ys) < gmax - _TAIL_NATS)
            wide = two & ~cut & (u_star - ln_x > _GL_PANEL)
            seen |= [two.any(), (~two).any(), cut.any(), (two & ~cut).any(), wide.any()]
        assert seen.all(), seen

    def test_grouped_call_matches_each_group_alone(self):
        # One group per grid case, each with its own k and grid.  np.resize
        # repeats a case's grid and rows cyclically up to the common P and n,
        # so the groups hold every pair of _GRID_CASES and so reach every
        # kind of pair (see the test above), side by side in one block.
        p = max(xs.size for _, xs, _ in _GRID_CASES.values())
        n = max(ys.size for _, _, ys in _GRID_CASES.values())
        ks = np.array([k for k, _, _ in _GRID_CASES.values()], dtype=float)
        xs = np.stack([np.resize(xs, p) for _, xs, _ in _GRID_CASES.values()], axis=1)
        ys = np.stack([np.resize(ys, n) for _, _, ys in _GRID_CASES.values()])
        table = _log_j_batch(ks, xs, ys)
        assert table.shape == (p, ks.size, n)
        for g, k in enumerate(ks):
            assert table[:, g].tobytes() == _one_group(k, xs[:, g], ys[g]).tobytes(), k

    def test_rows_past_one_block_match_the_blocks_called_alone(self):
        # Two groups of n rows: the first block of _J_BLOCK_ROWS rows ends
        # inside the second group, at row `split` of it.
        n = 5000
        split = _J_BLOCK_ROWS - n
        assert 0 < split < n
        ys = np.random.default_rng(9).uniform(0.0, 50.0, (2, n))
        ks = np.array([-5.0, -3.0])
        xs = np.array([[0.5, 2.0], [3.0, 0.1]])
        table = _log_j_batch(ks, xs, ys)
        for g, lo, hi in [(0, 0, n), (1, 0, split), (1, split, n)]:
            alone = _one_group(ks[g], xs[:, g], ys[g, lo:hi])
            assert table[:, g, lo:hi].tobytes() == alone.tobytes(), (g, lo)

    def test_groups_of_orders_past_one_block_match_each_group_alone(self):
        # Groups of 1, 3 and 2 orders: a block holds _J_BLOCK_ROWS // 3 rows,
        # so the first block holds rows of the one-order group only and the
        # last rows of the two-order group only.
        n = 3000
        assert _J_BLOCK_ROWS // 3 < n
        ys = np.random.default_rng(12).uniform(0.0, 50.0, (3, n))
        ks, orders = np.array([-5.0, -6.0, -4.0]), [1, 3, 2]
        xs = np.array([[0.5, 2.0, 1.0], [3.0, 0.1, 0.7]])
        table = _log_j_batch(ks, xs, ys, orders)
        assert table.shape == (2, 6, n)
        for g, col in zip(range(3), (0, 1, 4)):
            alone = _log_j_batch(ks[g:g + 1], xs[:, g:g + 1], ys[g:g + 1], orders[g:g + 1])
            assert table[:, col:col + orders[g]].tobytes() == alone.tobytes(), g

    @pytest.mark.parametrize("ks, xs, ys", [
        (-3.0, np.ones(2), np.ones(4)),                   # a float k, 1-D x and y
        (np.array([-3.0]), np.ones(2), np.ones((1, 4))),  # a 1-D x
        (np.array([-3.0]), np.ones((2, 1)), np.ones(4)),  # a 1-D y
        (np.array([-3.0, 2.0]), np.ones((2, 3)), np.ones((2, 4))),  # G differs in x
        (np.array([-3.0, 2.0]), np.ones((2, 2)), np.ones((3, 4))),  # G differs in y
        (np.array([-3.0]), np.ones((0, 1)), np.ones((1, 4))),       # an empty grid
    ], ids=["one_group", "x_1d", "y_1d", "x_g", "y_g", "empty_grid"])
    def test_malformed_shapes_name_the_expected_ones(self, ks, xs, ys):
        with pytest.raises(DomainError, match=re.escape("k (G,), x (P, G) and y (G, n)")):
            _log_j_batch(ks, xs, ys)

    def test_group_order_out_of_bound_is_named(self):
        with pytest.raises(DomainError, match=r"k=nan is not finite"):
            _log_j_batch(np.array([-3.0, np.nan, 2.0]), np.ones((2, 3)), np.ones((3, 4)))

    def test_failing_pair_is_named_by_its_own_arguments(self):
        # Above x = 1e308 the integrand falls 60 nats within less than one
        # rounding step of ln x, so that integral comes out 0.  The first
        # failing pair in (grid point, group, row) order is (1, 1, 0).
        xs = np.array([[1.0, 2.0, 3.0], [1.0, 1e308, 3.0]])
        ys = np.array([[1.0, 2.0], [0.25, 0.5], [3.0, 4.0]])
        with pytest.raises(NumericError, match=r"offender k=-3\.0, x=1e\+308, y=np\.float64\(0\.25\)"):
            _log_j_batch(np.array([0.0, -3.0, 2.0]), xs, ys)

    @pytest.mark.parametrize("ks, xs, ys", [
        # 480 points, y up to 1e20 and x up to 1e6.
        ((-12, -7, -5, -3, -1, 0, 2, 6), (0.05, 1.0, 30.0, 2511.9, 1e4, 1e6),
         (0.0, 0.1, 3.0, 100.0, 3719.0, 1e5, 1e8, 1e12, 1e16, 1e20)),
        # Below x = 0.05 a side spans up to ln(1/x) + 4 in ln t and ends in
        # the wall of e^{-t} or e^{-y/t}; k = -1 with y near 0 (a flat
        # plateau, then the wall) is the hardest case.
        ((-12, -5, -1, 0, 2, 6), (1e-3, 1e-6, 1e-10, 1e-30),
         (0.0, 1e-30, 1e-10, 1e-6, 1e-3, 1.0)),
    ], ids=["wide", "small_x"])
    def test_matches_40_digit_reference(self, ks, xs, ys):
        # The reference is the 40-digit segment (mp_j misses the narrow peak
        # at large y).  Within 2e-13 where |log J| < 1e3, else within 2 ulp.
        # One grouped call, as the detectors make: one group per order, each
        # with the whole grid and every y.
        table = _log_j_batch(np.array(ks, dtype=float), np.tile(np.array(xs)[:, None], len(ks)),
                             np.tile(ys, (len(ks), 1)))
        for g, k in enumerate(ks):
            for p, x in enumerate(xs):
                for y, got in zip(ys, table[p, g]):
                    ref = _log_j_segment_mp(k, y, math.log(x), math.inf, 40)
                    tol = 2e-13 if abs(ref) < 1e3 else 2 * math.ulp(float(ref))
                    assert abs(mp.mpf(float(got)) - ref) <= tol, (k, x, y)

    def test_matches_40_digit_reference_at_random_points(self):
        # Seeded points between the fixed grids' nodes, where a cut solve
        # that stops short of converging can pass the grids and still miss.
        # Same bounds as above, each point its own group of one call.
        ks, xs, ys = _random_points()
        table = _log_j_batch(ks, xs[None, :], ys[:, None])[0, :, 0]
        for k, x, y, got in zip(ks.tolist(), xs.tolist(), ys.tolist(), table.tolist()):
            ref = _log_j_segment_mp(k, y, math.log(x), math.inf, 40)
            tol = 2e-13 if abs(ref) < 1e3 else 2 * math.ulp(float(ref))
            assert abs(mp.mpf(got) - ref) <= tol, (k, x, y)

    @pytest.mark.parametrize("x", _EXTREME_X)
    @pytest.mark.parametrize("k", _EXTREME_K)
    def test_extreme_arguments_give_a_value_or_a_typed_error(self, k, x):
        # Past the double range J may be refused, but only by its typed error:
        # never a NumPy warning first, nor any other exception.
        outcomes = []
        for y in _EXTREME_Y:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value = j_integral(k, x, y).log_magnitude
                except EigensenseError:
                    continue
            outcomes.append((y, value))
        assert all(math.isfinite(v) for _, v in outcomes), outcomes

    def test_cut_solve_keeps_the_window_contract(self, monkeypatch):
        # Every cut lies in its bracket, where g has dropped between 50 and
        # 61 nats below the peak: g(cut) - target in [-1, +10].  The solve's
        # inputs are those of the grid cases' and the random points' calls.
        calls = _calls_on_test_points(monkeypatch, "_newton_cut", _newton_cut)
        assert len(calls) == len(_GRID_CASES) + 1
        span, c, t_pk, y_hat = (np.concatenate(col) for col in zip(*calls))
        v = _newton_cut(span, c, t_pk, y_hat)
        frac = v / span
        assert np.all((frac > 0.0) & (frac <= 1.0))
        excess = _shifted_g(v, c, t_pk, y_hat) + _TAIL_NATS
        assert np.all((excess >= -1.0) & (excess <= 10.0)), (excess.min(), excess.max())

    def test_shared_window_orders_match_40_digits(self):
        # Each point is a group of its own orders, all in one call, as the
        # detectors make it: every order from the shared window against the
        # 40-digit segment, within J's stated tolerance.
        k0, x, y, orders = _shared_window_points()
        table = _log_j_batch(k0, x[None, :], y[:, None], orders)[0, :, 0]
        assert table.size == orders.sum()
        col = 0
        for k, xp, yp, n in zip(k0.tolist(), x.tolist(), y.tolist(), orders.tolist()):
            for o in range(n):
                ref = _log_j_segment_mp(k + o, yp, math.log(xp), math.inf, 40)
                tol = 2e-13 if abs(ref) < 1e3 else 2 * math.ulp(float(ref))
                assert abs(mp.mpf(float(table[col])) - ref) <= tol, (k, xp, yp, n, o)
                col += 1

    def test_shared_window_upper_cut_bounds_the_top_order(self, monkeypatch):
        # A shared window's upper cut is solved on the top order's integrand
        # relative to the lowest order's peak, _shifted_g with c + top: there
        # it must have dropped between 59 and 70 nats below its value at the
        # peak, as each single order's cut must below its own.
        calls = []
        monkeypatch.setattr("eigensense.special._newton_cut",
                            lambda *args: calls.append(args) or _newton_cut(*args))
        k0, x, y, orders = _shared_window_points()
        _log_j_batch(k0, x[None, :], y[:, None], orders)
        monkeypatch.undo()
        span, c, t_pk, y_hat = (np.concatenate(col) for col in zip(*calls))
        upper = span > 0.0
        # At 50 of the 151 points the top order still rises above the peak
        # (c + top >= 1 there), the case where the drop first dips below zero.
        assert np.count_nonzero(upper & (c >= 1.0)) >= 40
        span, c, t_pk, y_hat = (q[upper] for q in (span, c, t_pk, y_hat))
        v = _newton_cut(span, c, t_pk, y_hat)
        frac = v / span
        assert np.all((frac > 0.0) & (frac <= 1.0))
        excess = _shifted_g(v, c, t_pk, y_hat) + _TAIL_NATS
        assert np.all((excess >= -1.0) & (excess <= 10.0)), (excess.min(), excess.max())

    def test_integrand_at_each_node_matches_40_digits(self, monkeypatch):
        # The integrand at the quadrature nodes of 400 seeded sides of the
        # grid cases' and the random points' calls, against 40 digits on the
        # same double inputs.  Its rounding may be a few eps of each of its
        # terms, |c v|, t_pk |v|, y_hat |v|, t_pk |e^v - 1| and y_hat |e^-v - 1|,
        # but no more, also near the peak where t_pk + y_hat is large.
        calls = _calls_on_test_points(monkeypatch, "_side_sums", _side_sums)
        side, c, t_pk, y_hat = (np.concatenate(col) for col in zip(*calls))
        pick = np.random.default_rng(2026).choice(side.size, 400, replace=False)
        nodes = []
        for i in pick.tolist():
            n_panels = max(1.0, math.ceil(abs(side[i]) / _GL_PANEL))
            v = (side[i] / n_panels) * (np.arange(n_panels)[:, None] + _GL_S)
            nodes.append(np.stack(np.broadcast_arrays(v.ravel(), c[i], t_pk[i], y_hat[i])))
        v, c, t_pk, y_hat = np.concatenate(nodes, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _shifted_g(v, c, t_pk, y_hat)
            live = got > -745.0
            v, c, t_pk, y_hat, got = (q[live] for q in (v, c, t_pk, y_hat, got))
            bound = 4 * np.finfo(float).eps * (np.abs(c * v) + (t_pk + y_hat) * np.abs(v)
                                               + t_pk * np.abs(np.expm1(v))
                                               + y_hat * np.abs(np.expm1(-v)))
        assert np.any((np.abs(v) < 1.0) & (t_pk + y_hat > 1e6))
        with mp.workdps(40):
            for args in zip(v.tolist(), c.tolist(), t_pk.tolist(), y_hat.tolist(),
                            got.tolist(), bound.tolist()):
                vm, cm, tm, ym = (mp.mpf(q) for q in args[:4])
                ref = cm * vm - tm * (mp.exp(vm) - 1 - vm) - ym * (mp.exp(-vm) - 1 + vm)
                assert abs(args[4] - ref) <= args[5], args[:4]

    def test_huge_y_is_within_two_ulp_in_bounded_memory(self, capped_python):
        # At y = 1e20, |g| at the peak is 2e10: formed from g, the integrand
        # would carry 4e-6 nats of rounding.  The value must still be right,
        # and computed in bounded memory.
        code = ("import numpy as np\n"
                "from eigensense.special import _log_j_batch\n"
                "j = _log_j_batch(np.array([-7.0]), np.array([[1.0]]), np.array([[1.0, 1e20]]))\n"
                "print(repr(float(j[0, 0, 1])))\n")
        proc = capped_python(["-c", code], timeout=30)
        assert proc.returncode == 0, proc.stderr
        got = float(proc.stdout)
        ref = _log_j_segment_mp(-7, 1e20, 0.0, math.inf, 40)
        assert float(ref) == -20000000149.095665
        assert abs(got - ref) <= 2 * math.ulp(float(ref))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            j_integral(0, 0.0, 1.0)
        with pytest.raises(DomainError):
            j_integral(0, -1.0, 1.0)
        with pytest.raises(DomainError):
            j_integral(0, 1.0, -0.5)
        for k in (math.nan, math.inf):
            with pytest.raises(DomainError):
                j_integral(k, 1.0, 1.0)


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

    @pytest.mark.parametrize("k, x, y", [(-5, 1.0, 1e6), (2, 10.0, 3e5), (200, 0.05, 1.0)])
    def test_value_outside_the_double_range_raises(self, k, x, y):
        # J underflows at the first two points and overflows at the third.
        with pytest.raises(NumericError, match=f"k={k}, x={x}, y={y}"):
            j_via_bessel(k, x, y)


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
