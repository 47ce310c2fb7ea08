"""End-to-end tests of the command-line interface.

Every test drives main(argv) in process and checks exit codes, output files
and report contents.  Observations are synthesized through the library and
written with the package's own writers, so these tests also exercise the
full file round trip.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from eigensense import (
    EigenSpectrum,
    ExactCount,
    ExactNoise,
    NumericError,
    PriorConfig,
    Scenario,
    detection_log_ratio,
    gram_eigenvalues,
    synthesize_observation,
    write_eigen_spectrum,
    write_sample_matrix,
)
from eigensense import cli
from eigensense.cli import main


def _write_eigs(tmp_path, values, n_snapshots, name="obs.txt"):
    path = tmp_path / name
    write_eigen_spectrum(path, EigenSpectrum(values, n_snapshots))
    return str(path)


def _detect_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--output", str(out)])
    assert code == 0
    return json.loads(out.read_text())


class TestDetect:
    def test_strong_signal_decision(self, tmp_path):
        obs = _write_eigs(tmp_path, [40.0, 2.0, 1.0, 0.5], 8)
        report = _detect_json(tmp_path, ["detect", "--input", obs, "--sigma2", "1.0"])
        assert report["result"]["decision"] == "signal"
        assert report["result"]["log10_ratio"] > 0
        assert report["result"]["detector"] == "bayes"
        assert report["config"]["n_sensors"] == 4

    def test_zero_spectrum_is_guarded_not_fatal(self, tmp_path):
        obs = _write_eigs(tmp_path, [0.0, 0.0], 5)
        report = _detect_json(tmp_path, ["detect", "--input", obs, "--sigma2", "1.0"])
        assert report["result"]["perturbed_spectrum"] is True
        assert math.isfinite(report["result"]["log10_ratio"])

    def test_matrix_input_matches_library(self, tmp_path):
        s = Scenario(3, 7, 1, 0.0, 10, 77)
        y = synthesize_observation(s, "H1", 4)
        path = tmp_path / "matrix.txt"
        write_sample_matrix(path, y)
        report = _detect_json(
            tmp_path, ["detect", "--input", str(path), "--sigma2", "1.0"])
        direct = detection_log_ratio(
            gram_eigenvalues(y), PriorConfig(ExactCount(1), ExactNoise(1.0)))
        assert report["result"]["log10_ratio"] == direct.log10_ratio

    def test_collapsed_grid_matches_exact(self, tmp_path):
        obs = _write_eigs(tmp_path, [6.0, 2.5, 0.9], 9)
        exact = _detect_json(tmp_path, ["detect", "--input", obs, "--sigma2", "1.0"])
        grid = _detect_json(
            tmp_path,
            ["detect", "--input", obs, "--sigma2-range", "0.8:1.2:1"])
        assert grid["result"]["log10_ratio"] == pytest.approx(
            exact["result"]["log10_ratio"], abs=1e-12)

    def test_threshold_flags(self, tmp_path):
        obs = _write_eigs(tmp_path, [40.0, 2.0, 1.0, 0.5], 8)
        hi = _detect_json(tmp_path, ["detect", "--input", obs, "--sigma2", "1.0",
                                     "--threshold-db", "1000"])
        assert hi["result"]["decision"] == "noise"
        lo = _detect_json(tmp_path, ["detect", "--input", obs, "--sigma2", "1.0",
                                     "--threshold-db", "-1000"])
        assert lo["result"]["decision"] == "signal"
        assert main(["detect", "--input", obs, "--sigma2", "1.0",
                     "--threshold", "-2.0"]) == 2
        # A non-finite threshold would be written as non-strict JSON.
        for flag, value in (("--threshold", "inf"), ("--threshold-db", "nan"),
                            ("--threshold-db", "inf")):
            assert main(["detect", "--input", obs, "--sigma2", "1.0", flag, value]) == 2

    def test_one_sensor_reports_positive_zero_digits(self, tmp_path):
        # One eigenvalue gives a one-term sum that cannot cancel.
        obs = _write_eigs(tmp_path, [2.5], 4)
        report = _detect_json(tmp_path, ["detect", "--input", obs, "--sigma2", "1"])
        digits = report["result"]["cancellation_digits"]
        assert math.copysign(1.0, digits) == 1.0 and digits == 0.0

    def test_majority_positive_under_signal(self, tmp_path):
        # At 0 dB with N=4, L=8 most H1 trials should favour the signal.
        s = Scenario(4, 8, 1, 0.0, 60, 555)
        wins = 0
        for t in range(s.n_trials):
            y = synthesize_observation(s, "H1", t)
            path = tmp_path / "trial.txt"
            write_sample_matrix(path, y)
            report = _detect_json(
                tmp_path, ["detect", "--input", str(path), "--sigma2", "1.0"])
            wins += report["result"]["decision"] == "signal"
        assert wins > 30

    def test_csv_format(self, tmp_path, capsys):
        obs = _write_eigs(tmp_path, [6.0, 2.5], 6)
        assert main(["detect", "--input", obs, "--sigma2", "1.0",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("log10_ratio,decision,")
        assert len(out[1].split(",")) == len(out[0].split(","))

    def test_bounded_count_and_grid_flags(self, tmp_path):
        obs = _write_eigs(tmp_path, [6.0, 2.5, 0.9], 9)
        report = _detect_json(
            tmp_path,
            ["detect", "--input", obs, "--sigma2-range=-3:3:4",
             "--grid-scale", "db", "--m-max", "2"])
        assert math.isfinite(report["result"]["log10_ratio"])
        assert "BoundedCount" in report["config"]["source_count"]
        assert "NoiseGrid" in report["config"]["noise"]

    def test_extended_precision_matches_standard(self, tmp_path):
        obs = _write_eigs(tmp_path, [4.1, 1.7, 0.6], 7)
        args = ["detect", "--input", obs, "--sigma2-range=-3:1:3", "--grid-scale", "db",
                "--m", "2"]
        std = _detect_json(tmp_path, args)
        ext = _detect_json(tmp_path, args + ["--precision", "extended"])
        assert ext["config"]["precision"] == "extended"
        assert ext["result"]["extended_used"] is True
        assert std["result"]["extended_used"] is False
        assert abs(ext["result"]["log10_ratio"] - std["result"]["log10_ratio"]) <= 1e-10


class TestRoc:
    def test_energy_sweep_writes_files(self, tmp_path, capsys):
        base = str(tmp_path / "sweep")
        code = main(["roc", "--n", "2", "--l", "4", "--trials", "200",
                     "--detector", "energy", "--output", base])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "detection rate" in out
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "threshold,far,cdr"
        assert len(lines) > 10
        sidecar = json.loads((tmp_path / "sweep.json").read_text())
        assert sidecar["detector"] == "energy"
        assert sidecar["scenario"]["n_trials"] == 200
        assert sidecar["n_noise_trials"] == 200

    def test_bayes_sweep(self, tmp_path):
        base = str(tmp_path / "bayes")
        code = main(["roc", "--n", "2", "--l", "4", "--trials", "64",
                     "--seed", "3", "--output", base])
        assert code == 0
        sidecar = json.loads((tmp_path / "bayes.json").read_text())
        assert sidecar["detector"] == "bayes"
        assert sidecar["n_failed_noise"] == 0

    def test_energy_rejects_grid_noise(self, tmp_path, capsys):
        base = str(tmp_path / "x")
        code = main(["roc", "--detector", "energy", "--trials", "50",
                     "--sigma2-range", "0.5:2:4", "--output", base])
        assert code == 2
        assert "scalar" in capsys.readouterr().err


class TestTable:
    def test_cross_validation_report(self, tmp_path):
        out = tmp_path / "table.json"
        code = main(["table", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_j_rel_deviation"] < 1e-8
        assert report["max_lemma_rel_residual"] < 1e-6
        assert len(report["j_table"]) == 19 * 5 * 4
        assert len(report["lemma_table"]) == 5 * 25

    def test_csv_format(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["table", "--format", "csv", "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("k,x,y,")
        assert "n,draw,b," in text


class TestCount:
    def test_two_source_scene_recovers_count(self, tmp_path):
        # High SNR, two sources: the posterior mode should usually be 2.
        s = Scenario(4, 8, 2, 10.0, 40, 808)
        hits = 0
        for t in range(s.n_trials):
            y = synthesize_observation(s, "H1", t)
            path = tmp_path / "trial.txt"
            write_sample_matrix(path, y)
            out = tmp_path / "count.json"
            code = main(["count", "--input", str(path),
                         "--sigma2", str(s.sigma2), "--m-max", "3",
                         "--output", str(out)])
            assert code == 0
            report = json.loads(out.read_text())
            assert sum(report["probabilities"]) == pytest.approx(1.0, abs=1e-9)
            hits += report["argmax_count"] == 2
        assert hits > 20

    def test_report_shape(self, tmp_path):
        obs = _write_eigs(tmp_path, [9.0, 4.0, 1.1], 9)
        out = tmp_path / "count.json"
        code = main(["count", "--input", obs, "--sigma2", "1.0",
                     "--m-max", "2", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["counts"] == [0, 1, 2]
        assert len(report["ratios"]) == 3

    def test_exclude_noise_hypothesis(self, tmp_path):
        obs = _write_eigs(tmp_path, [9.0, 4.0, 1.1], 9)
        out = tmp_path / "count.json"
        code = main(["count", "--input", obs, "--sigma2", "1.0",
                     "--m-max", "2", "--no-include-noise",
                     "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["counts"] == [1, 2]

    def test_csv_format(self, tmp_path, capsys):
        obs = _write_eigs(tmp_path, [9.0, 4.0, 1.1], 9)
        assert main(["count", "--input", obs, "--sigma2", "1.0",
                     "--m-max", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "count,probability,ratio"
        assert len(lines) == 4

    def test_extended_precision_matches_standard(self, tmp_path):
        obs = _write_eigs(tmp_path, [4.1, 1.7, 0.6], 7)
        reports = {}
        for mode in ("standard", "extended"):
            out = tmp_path / f"{mode}.json"
            assert main(["count", "--input", obs, "--sigma2", "0.8", "--m-max", "2",
                         "--precision", mode, "--output", str(out)]) == 0
            reports[mode] = json.loads(out.read_text())
        assert reports["extended"]["config"]["precision"] == "extended"
        assert np.allclose(reports["extended"]["probabilities"],
                           reports["standard"]["probabilities"], rtol=1e-10, atol=0.0)

    def test_eight_sensors_up_to_eight_sources(self, tmp_path):
        # Scenario(8, 12, 2, 0.0, 4, 3), H1 trial 0, at sigma2 = 3: the
        # components m = 6 to 8 cancel past the double-precision limit and go
        # to multiprecision, so this takes seconds, not milliseconds.
        obs = _write_eigs(tmp_path, [86.60730985314353, 56.81107768542161,
                                     19.79572539081958, 14.171051677999527,
                                     11.099622394107278, 7.3459963928786705,
                                     5.33377484747598, 4.052837112987291], 12)
        out = tmp_path / "count.json"
        start = time.perf_counter()
        code = main(["count", "--input", obs, "--sigma2", "3", "--m-max", "8",
                     "--output", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        report = json.loads(out.read_text())
        assert report["counts"] == list(range(9))
        assert sum(report["probabilities"]) == pytest.approx(1.0, abs=1e-9)
        assert elapsed < 30.0, elapsed

    def test_overflowing_odds_are_null_in_strict_json(self, tmp_path):
        # One huge eigenvalue: the noise hypothesis is so unlikely that the
        # one-source odds overflow a double.
        obs = _write_eigs(tmp_path, [2000.0, 1.2, 1.0, 0.8], 8)
        out = tmp_path / "count.json"

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["count", "--input", obs, "--sigma2", "1",
                         "--m-max", "1", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["ratios"] == [0.0, None]


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["detect"]) == 2
        assert main(["detect", "--input", "x.txt"]) == 2
        assert main(["roc", "--sigma2-range", "nonsense"]) == 2
        # ROC sweeps escalate like scalar calls; there is no precision mode.
        assert main(["roc", "--precision", "extended"]) == 2
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "eigensense" in capsys.readouterr().out

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["detect", "--input", str(tmp_path / "missing.txt"),
                     "--sigma2", "1.0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unrepresentable_db_grid_exits_two(self, tmp_path, capsys):
        obs = _write_eigs(tmp_path, [3.0, 1.0], 6)
        code = main(["detect", "--input", obs, "--sigma2-range=-300:3000:12",
                     "--grid-scale", "db"])
        assert code == 2
        assert "-300.0:3000.0:12" in capsys.readouterr().err

    def test_domain_error_exits_two(self, tmp_path, capsys):
        # More snapshots than sensors is required by the Bayesian detectors.
        obs = _write_eigs(tmp_path, [3.0, 1.0], 2)
        code = main(["detect", "--input", obs, "--sigma2", "1.0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_numeric_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        obs = _write_eigs(tmp_path, [3.0, 1.0], 6)

        def boom(*args, **kwargs):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli, "detection_log_ratio", boom)
        code = main(["detect", "--input", obs, "--sigma2", "1.0"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_huge_eigenvalues_match_extended_precision(self, tmp_path, capped_python):
        # J at y near 1e20: a number equal to the multiprecision path's,
        # computed in bounded memory.
        obs = tmp_path / "huge.txt"
        obs.write_text("eigs,8\n1e20\n1e20\n")
        ratios = {}
        for mode in ("standard", "extended"):
            proc = capped_python(["-m", "eigensense.cli", "detect", "--input", str(obs),
                                  "--sigma2", "1", "--precision", mode], timeout=60)
            assert proc.returncode == 0, proc.stderr
            ratios[mode] = json.loads(proc.stdout)["result"]["log10_ratio"]
        assert ratios["standard"] == ratios["extended"] == 4.342944839878653e+19

    @pytest.mark.parametrize("text", ["2,-3\n1:0\n1:0\n", "1,99999999999\n1:0\n"])
    def test_malformed_matrix_header_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["detect", "--input", str(path), "--sigma2", "1.0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("detector", ["bayes", "energy"])
    @pytest.mark.parametrize("snr_db", ["-4000", "4000"])
    def test_unrepresentable_snr_exits_two(self, tmp_path, capsys, detector, snr_db):
        code = main(["roc", f"--snr-db={snr_db}", "--detector", detector, "--trials", "8",
                     "--output", str(tmp_path / "roc")])
        assert code == 2
        assert "noise power" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_table_seed_exits_two(self, tmp_path, capsys, monkeypatch):
        # Rejected before the J table is computed.
        monkeypatch.setattr(cli, "_table_j_rows", lambda: pytest.fail("table computed"))
        code = main(["table", "--seed", "-1", "--output", str(tmp_path / "t.json")])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        obs = _write_eigs(tmp_path, [3.0, 1.0], 6)
        code = main(["detect", "--input", obs, "--sigma2", "1.0",
                     "--output", str(tmp_path / "no" / "dir" / "out.json")])
        assert code == 2
        capsys.readouterr()
