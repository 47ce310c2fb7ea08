"""Observation containers and the reduction to the eigenvalue statistic.

Every detector in this package is a function of the eigenvalues of Y Y^H
alone, so the pipeline is: wrap the received block in a SampleMatrix, reduce
it with gram_eigenvalues, and hand the EigenSpectrum to the detectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

__all__ = ["SampleMatrix", "EigenSpectrum", "gram_eigenvalues"]

# Eigenvalues of the PSD Gram matrix may come out slightly negative from the
# solver; anything within this relative band of the largest eigenvalue is
# clamped to zero, anything below it is treated as a numerical fault.
_CLAMP_REL = 1e-12


def _is_whole(value) -> bool:
    """True for a finite whole number: 2, 2.0 and numpy integers pass."""
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer())


@dataclass(frozen=True)
class SampleMatrix:
    """Complex N x L received block: N sensors, L snapshots."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(f"sample matrix must be 2-D and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise InputError("sample matrix contains non-finite entries")
        object.__setattr__(self, "entries", arr)

    @property
    def n_sensors(self) -> int:
        return self.entries.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class EigenSpectrum:
    """The N eigenvalues of Y Y^H plus the snapshot count L they came from.

    gram_eigenvalues produces values sorted descending; the detectors
    canonicalise on entry, so consumers may construct instances in any order.
    """

    values: np.ndarray
    n_snapshots: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise InputError("eigenvalue list must be a non-empty vector")
        if not np.all(np.isfinite(vals)):
            raise InputError("eigenvalues must be finite")
        if np.any(vals < 0.0):
            raise InputError("eigenvalues must be nonnegative")
        if not _is_whole(self.n_snapshots):
            raise InputError(f"n_snapshots must be a whole number, got {self.n_snapshots!r}")
        if int(self.n_snapshots) < 1:
            raise InputError("n_snapshots must be >= 1")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n_snapshots", int(self.n_snapshots))

    @property
    def n_sensors(self) -> int:
        return self.values.size

    def sorted_descending(self) -> np.ndarray:
        return np.sort(self.values)[::-1].copy()


def gram_eigenvalues(y: SampleMatrix) -> EigenSpectrum:
    """Eigenvalues of Y Y^H, sorted descending, as an EigenSpectrum."""
    return EigenSpectrum(_gram_eigenvalues_batch(y.entries[None])[0], y.n_snapshots)


def _clamp_spectra_batch(raw: np.ndarray) -> np.ndarray:
    """Descending-sort (B, N) ascending solver output, clamping round-off at zero."""
    vals = raw[:, ::-1].copy()
    floor = -_CLAMP_REL * np.maximum(vals[:, 0], 1.0)
    low = vals < floor[:, None]
    if np.any(low):
        b, i = np.argwhere(low)[0]
        raise NumericError(
            f"eigen-solver returned a negative eigenvalue {vals[b, i]:.3e} "
            f"below the round-off band {floor[b]:.3e}")
    np.clip(vals, 0.0, None, out=vals)
    return vals


def _gram_eigenvalues_batch(blocks: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for a (B, N, L) stack; returns (B, N)."""
    gram = blocks @ blocks.conj().transpose(0, 2, 1)
    return _clamp_spectra_batch(np.linalg.eigvalsh(gram))
