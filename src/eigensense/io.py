"""File formats for observations and results.

Two observation formats, distinguished by the first line:

* sample matrix: header ``N,L`` then N rows of L comma-separated cells,
  each cell ``re:im`` printed with 17 significant digits (round-trip exact);
* eigenvalue list: header ``eigs,L`` then one eigenvalue per line.

ROC curves go to CSV with a ``threshold,far,cdr`` header (thresholds as
log10 of the detection statistic) plus a JSON sidecar with the full
configuration, so a curve file is reproducible from its sidecar alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import InputError
from .montecarlo import RocCurve
from .spectra import EigenSpectrum, SampleMatrix

__all__ = [
    "read_observation",
    "write_sample_matrix",
    "write_eigen_spectrum",
    "write_roc_csv",
    "write_roc_sidecar",
]

_LN10 = np.log(10.0)


def _fmt(value: float) -> str:
    """A number as 17 significant digits, which reads back to the same double."""
    return f"{float(value):.17g}"


def _write_lines(path, lines) -> None:
    """Write lines to path as ASCII text, each ended by a newline.  Every
    file the package writes goes through here."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sample_matrix(path, matrix: SampleMatrix) -> None:
    _write_lines(path, [f"{matrix.n_sensors},{matrix.n_snapshots}"]
                 + [",".join(f"{_fmt(c.real)}:{_fmt(c.imag)}" for c in row)
                    for row in matrix.entries])


def write_eigen_spectrum(path, spectrum: EigenSpectrum) -> None:
    _write_lines(path, [f"eigs,{spectrum.n_snapshots}"] + [_fmt(v) for v in spectrum.values])


def _parse_cell(cell: str, where: str) -> complex:
    parts = cell.split(":")
    if len(parts) != 2:
        raise InputError(f"{where}: expected 're:im', got {cell!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def read_observation(path):
    """Parse either observation format; returns SampleMatrix or EigenSpectrum."""
    try:
        with open(path, "rb") as fh:
            raw_lines = fh.read().decode("ascii").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # the whole file is decoded, so start is its offset
        raise InputError(f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x} "
                         f"at byte offset {exc.start}") from None
    lines = [ln.strip() for ln in raw_lines if ln.strip()]
    if not lines:
        raise InputError(f"{path}: empty observation file")

    header = lines[0]
    if header.lower().startswith("eigs,"):
        try:
            n_snapshots = int(header.split(",", 1)[1])
        except ValueError:
            raise InputError(f"{path}: bad eigenvalue header {header!r}") from None
        if len(lines) < 2:
            raise InputError(f"{path}: eigenvalue file has no values")
        values = []
        for i, ln in enumerate(lines[1:], start=2):
            try:
                values.append(float(ln))
            except ValueError:
                raise InputError(f"{path}:{i}: not a number: {ln!r}") from None
        return EigenSpectrum(np.array(values), n_snapshots)

    parts = header.split(",")
    if len(parts) != 2:
        raise InputError(f"{path}: expected a 'N,L' or 'eigs,L' header, got {header!r}")
    try:
        n_sensors, n_snapshots = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"{path}: bad matrix header {header!r}") from None
    if n_sensors < 1 or n_snapshots < 1:
        raise InputError(f"{path}: matrix header {header!r} needs N >= 1 and L >= 1")
    if len(lines) - 1 != n_sensors:
        raise InputError(
            f"{path}: header promises {n_sensors} rows, found {len(lines) - 1}")
    # Sized from the parsed rows, never from the header alone.
    rows = []
    for r, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != n_snapshots:
            raise InputError(
                f"{path}: row {r + 1} has {len(cells)} cells, expected {n_snapshots}")
        rows.append([_parse_cell(cell, f"{path}: row {r + 1}, column {c + 1}")
                     for c, cell in enumerate(cells)])
    return SampleMatrix(np.array(rows, dtype=complex))


def write_roc_csv(path, curve: RocCurve) -> None:
    log10_thr = curve.thresholds / _LN10
    _write_lines(path, ["threshold,far,cdr"]
                 + [f"{_fmt(t)},{_fmt(f)},{_fmt(c)}"
                    for t, f, c in zip(log10_thr, curve.far, curve.cdr)])


def write_roc_sidecar(path, curve: RocCurve, config: dict,
                      runtime_seconds: float) -> None:
    payload = {
        "tool": "eigensense",
        "version": __version__,
        "threshold_scale": "log10_statistic",
        "scenario": asdict(curve.scenario),
        "detector": curve.detector_label,
        "config": config,
        "n_noise_trials": curve.n_noise_trials,
        "n_signal_trials": curve.n_signal_trials,
        "n_failed_noise": curve.n_failed_noise,
        "n_failed_signal": curve.n_failed_signal,
        "runtime_seconds": runtime_seconds,
    }
    _write_lines(path, [json.dumps(payload, indent=2)])
