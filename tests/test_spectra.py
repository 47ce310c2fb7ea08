"""Tests for observation containers and the Gram eigenvalue reduction."""

import numpy as np
import pytest

from eigensense import InputError, NumericError, SampleMatrix, EigenSpectrum, gram_eigenvalues
from eigensense.spectra import _clamp_spectra_batch, _gram_eigenvalues_batch


class TestSampleMatrix:
    def test_shape_properties(self):
        m = SampleMatrix(np.zeros((3, 7), dtype=complex))
        assert m.n_sensors == 3
        assert m.n_snapshots == 7

    def test_real_input_promoted_to_complex(self):
        m = SampleMatrix(np.ones((2, 2)))
        assert m.entries.dtype == complex

    def test_rejects_wrong_rank(self):
        with pytest.raises(InputError):
            SampleMatrix(np.zeros(4))
        with pytest.raises(InputError):
            SampleMatrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            SampleMatrix(np.zeros((0, 5)))

    def test_rejects_nonfinite(self):
        bad = np.ones((2, 3), dtype=complex)
        bad[1, 2] = np.nan + 0j
        with pytest.raises(InputError):
            SampleMatrix(bad)
        bad2 = np.ones((2, 3), dtype=complex)
        bad2[0, 0] = 1j * np.inf
        with pytest.raises(InputError):
            SampleMatrix(bad2)


class TestEigenSpectrum:
    def test_basic(self):
        s = EigenSpectrum([3.0, 1.0, 0.5], 8)
        assert s.n_sensors == 3
        assert s.n_snapshots == 8

    def test_sorted_descending_does_not_mutate(self):
        s = EigenSpectrum([1.0, 4.0, 2.0], 6)
        out = s.sorted_descending()
        assert list(out) == [4.0, 2.0, 1.0]
        assert list(s.values) == [1.0, 4.0, 2.0]

    def test_rejects_negative_values(self):
        with pytest.raises(InputError):
            EigenSpectrum([1.0, -0.1], 4)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            EigenSpectrum([1.0, np.inf], 4)

    def test_rejects_bad_snapshots(self):
        with pytest.raises(InputError):
            EigenSpectrum([1.0], 0)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            EigenSpectrum([], 4)

    def test_zero_spectrum_allowed(self):
        s = EigenSpectrum([0.0, 0.0], 4)
        assert s.n_sensors == 2


class TestGramEigenvalues:
    def test_known_diagonal_case(self):
        # Y with orthogonal rows: Y Y^H is diagonal with the squared row norms.
        y = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]], dtype=complex)
        spec = gram_eigenvalues(SampleMatrix(y))
        assert spec.values == pytest.approx([9.0, 4.0], rel=1e-14)
        assert spec.n_snapshots == 3

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, ell = rng.integers(1, 6), rng.integers(1, 9)
            y = rng.standard_normal((n, ell)) + 1j * rng.standard_normal((n, ell))
            spec = gram_eigenvalues(SampleMatrix(y))
            ref = np.sort(np.linalg.eigvalsh(y @ y.conj().T))[::-1]
            ref = np.clip(ref, 0.0, None)
            assert spec.values == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_values_sorted_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            spec = gram_eigenvalues(SampleMatrix(y))
            assert np.all(np.diff(spec.values) <= 0)
            assert np.all(spec.values >= 0)

    def test_rank_deficient_block_clamps_to_zero(self):
        # Repeated rows give a singular Gram matrix; tiny negative round-off
        # from the solver must clamp to exactly 0, not raise.
        row = np.array([1.0 + 0.5j, -0.25j, 2.0])
        y = np.vstack([row, row, 2 * row])
        spec = gram_eigenvalues(SampleMatrix(y))
        assert np.all(spec.values >= 0.0)
        assert spec.values[1] <= 1e-12 * spec.values[0]
        assert spec.values[2] <= 1e-12 * spec.values[0]

    # Clamp rows are ascending, as eigvalsh returns them.
    def test_clamp_rejects_large_negative(self):
        with pytest.raises(NumericError, match="-1.000e\\+00"):
            _clamp_spectra_batch(np.array([[-1.0, 5.0]]))

    def test_clamp_accepts_roundoff_negative(self):
        out = _clamp_spectra_batch(np.array([[-1e-13, 5.0]]))
        assert out.tolist() == [[5.0, 0.0]]


class TestBatchReduction:
    def test_batch_matches_scalar_bit_exact(self):
        rng = np.random.default_rng(29)
        blocks = (rng.standard_normal((10, 3, 7)) + 1j * rng.standard_normal((10, 3, 7)))
        batch = _gram_eigenvalues_batch(blocks)
        for b in range(10):
            single = gram_eigenvalues(SampleMatrix(blocks[b]))
            assert np.array_equal(batch[b], single.values)

    def test_batch_shape(self):
        blocks = np.zeros((4, 2, 5), dtype=complex)
        out = _gram_eigenvalues_batch(blocks)
        assert out.shape == (4, 2)
        assert np.all(out == 0.0)
