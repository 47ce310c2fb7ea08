"""Tests for observation file formats and ROC output files."""

import json
import math

import numpy as np
import pytest

from eigensense import (
    EigenSpectrum,
    InputError,
    RocCurve,
    SampleMatrix,
    Scenario,
    read_observation,
    write_eigen_spectrum,
    write_roc_csv,
    write_roc_sidecar,
    write_sample_matrix,
)


class TestMatrixRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        path = tmp_path / "obs.txt"
        write_sample_matrix(path, SampleMatrix(y))
        back = read_observation(path)
        assert isinstance(back, SampleMatrix)
        assert np.array_equal(back.entries, y)

    def test_extreme_magnitudes_round_trip(self, tmp_path):
        y = np.array([[1e-200 + 1e200j, -0.0 + 0.0j],
                      [3.141592653589793 - 1e-17j, 7.0 + 0j]])
        path = tmp_path / "obs.txt"
        write_sample_matrix(path, SampleMatrix(y))
        back = read_observation(path)
        assert np.array_equal(back.entries, y)


class TestSpectrumRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        vals = np.sort(rng.uniform(0, 10, size=5))[::-1]
        path = tmp_path / "eigs.txt"
        write_eigen_spectrum(path, EigenSpectrum(vals, 12))
        back = read_observation(path)
        assert isinstance(back, EigenSpectrum)
        assert np.array_equal(back.values, vals)
        assert back.n_snapshots == 12

    def test_header_is_case_insensitive(self, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_text("EIGS,4\n2.0\n1.0\n")
        back = read_observation(path)
        assert isinstance(back, EigenSpectrum)
        assert back.n_snapshots == 4


class TestReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_observation(tmp_path / "nope.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(InputError, match="empty"):
            read_observation(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello world\n")
        with pytest.raises(InputError, match="header"):
            read_observation(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2,2\n1:0,2:0\n")
        with pytest.raises(InputError, match="rows"):
            read_observation(path)

    def test_nonpositive_matrix_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2,-3\n1:0\n1:0\n")
        with pytest.raises(InputError, match="header"):
            read_observation(path)

    def test_huge_header_is_checked_against_the_rows(self, tmp_path):
        # The header alone must not size an allocation (this one is 1.46 TiB).
        path = tmp_path / "bad.txt"
        path.write_text("1,99999999999\n1:0\n")
        with pytest.raises(InputError, match="cells"):
            read_observation(path)

    def test_cell_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,3\n1:0,2:0\n")
        with pytest.raises(InputError, match="cells"):
            read_observation(path)

    def test_bad_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2\n1:0,oops\n")
        with pytest.raises(InputError, match="column 2"):
            read_observation(path)

    def test_bad_eigenvalue_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigs,4\n2.0\nxyz\n")
        with pytest.raises(InputError, match="not a number"):
            read_observation(path)

    def test_eigen_header_without_values(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigs,4\n")
        with pytest.raises(InputError, match="no values"):
            read_observation(path)


class TestRocFiles:
    def _curve(self):
        s = Scenario(2, 4, 1, 0.0, 10, 1)
        return RocCurve(
            thresholds=np.array([math.inf, math.log(10.0), 0.0, -math.inf]),
            far=np.array([0.0, 0.2, 0.6, 1.0]),
            cdr=np.array([0.0, 0.5, 0.8, 1.0]),
            n_noise_trials=10, n_signal_trials=10,
            n_failed_noise=0, n_failed_signal=1,
            detector_label="bayes", scenario=s)

    def test_csv_content(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(path, self._curve())
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,far,cdr"
        assert len(lines) == 5
        # thresholds are written as log10 of the statistic
        cells = lines[2].split(",")
        assert float(cells[0]) == pytest.approx(1.0, rel=1e-15)
        assert float(cells[1]) == 0.2
        assert float(cells[2]) == 0.5
        assert float(lines[1].split(",")[0]) == math.inf
        assert float(lines[4].split(",")[0]) == -math.inf

    def test_sidecar_content(self, tmp_path):
        path = tmp_path / "roc.json"
        write_roc_sidecar(path, self._curve(), {"detector": "bayes"}, 1.25)
        payload = json.loads(path.read_text())
        assert payload["tool"] == "eigensense"
        assert payload["threshold_scale"] == "log10_statistic"
        assert payload["scenario"]["n_sensors"] == 2
        assert payload["scenario"]["seed"] == 1
        assert payload["n_failed_signal"] == 1
        assert payload["config"] == {"detector": "bayes"}
        assert payload["runtime_seconds"] == 1.25
