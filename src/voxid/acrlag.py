"""Vocal-source features from the autocorrelation of the LP residual.

The LP residual carries what the all-pole vocal-tract model leaves behind:
periodicity from the glottal excitation, or noise-like structure for
unvoiced speech.  Correlating the normalized residual against itself over a
short range of lags summarizes that excitation in a fixed-length vector,
lag 0 included so overall residual energy survives normalization of scale
elsewhere in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import DegenerateResidual, NoFeatures, check_types
from .features import FeatureKind, FeatureMatrix
from .signal_prep import FrameSequence

DEFAULT_LP_ORDER = 13
DEFAULT_MAX_LAG = 12


@dataclass(frozen=True)
class AcrlagConfig:
    """Residual-autocorrelation feature settings."""

    lp_order: int = DEFAULT_LP_ORDER
    max_lag: int = DEFAULT_MAX_LAG

    def __post_init__(self) -> None:
        check_types(self, "acrlag")
        if self.lp_order < 1:
            raise ValueError("lp_order must be at least 1")
        if self.max_lag < 0:
            raise ValueError("max_lag must be non-negative")

    @property
    def dim(self) -> int:
        return self.max_lag + 1


def _normalize_rows(e: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove each row's mean, then scale its peak magnitude to one.

    Returns the normalized rows that ``valid`` admits and whose residual is
    not constant, together with the narrowed mask.
    """
    centered = e - e.mean(axis=1, keepdims=True)
    peaks = np.max(np.abs(centered), axis=1)
    # A relative floor also rejects rows that are constant up to round-off,
    # where dividing by the ulp-sized peak would amplify noise into a fake
    # feature vector.
    floors = np.max(np.abs(e), axis=1) * 1e-12
    valid = valid & (peaks > floors) & np.isfinite(peaks)
    return centered[valid] / peaks[valid, None], valid


def normalize_residual(e: np.ndarray) -> np.ndarray:
    """Remove the mean, then scale the peak magnitude to one."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1:
        raise ValueError("residual must be 1-D")
    if e.size == 0:
        raise DegenerateResidual("empty residual")
    normalized, valid = _normalize_rows(e[None, :], np.ones(1, dtype=bool))
    if not valid[0]:
        raise DegenerateResidual("residual is constant; nothing to correlate")
    return normalized[0]


def acrlag_feature(e: np.ndarray, config: AcrlagConfig = AcrlagConfig()) -> np.ndarray:
    """Feature vector r[0..max_lag] of one normalized residual."""
    return lp.autocorr(normalize_residual(e), config.max_lag)


def extract_acrlag(frames: FrameSequence, config: AcrlagConfig = AcrlagConfig()) -> FeatureMatrix:
    """ACRLAG matrix for every frame of an utterance.

    Frames the LP analysis cannot model (zero energy, unstable recursion) or
    whose residual collapses to a constant are dropped rather than padded.
    """
    data = frames.frames
    r = lp._autocorr_batch(data, config.lp_order)
    coeffs, _, _, valid = lp._levinson_batch(r)
    normalized, valid = _normalize_rows(lp._residual_batch(data, coeffs), valid)
    if not np.any(valid):
        raise NoFeatures("no frame produced a usable residual")
    return FeatureMatrix(FeatureKind.ACRLAG, lp._autocorr_batch(normalized, config.max_lag))
